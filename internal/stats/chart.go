package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Chart renders one or more named series over a shared x-axis as an
// ASCII line chart, for terminal output of the paper's figures. Each
// series gets a distinct plot rune.
type Chart struct {
	Title   string
	XLabel  string
	YLabel  string
	XTicks  []string // one per x position
	Series  map[string][]float64
	Height  int // plot rows; default 12
	YMinSet bool
	YMin    float64
}

var chartRunes = []rune{'o', '*', '+', 'x', '#', '@', '%', '&'}

// isFinite reports whether v is a plottable sample.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// String renders the chart.
func (c *Chart) String() string {
	if len(c.Series) == 0 {
		return "(empty chart)\n"
	}
	height := c.Height
	if height <= 0 {
		height = 12
	}
	names := make([]string, 0, len(c.Series))
	for name := range c.Series {
		names = append(names, name)
	}
	sort.Strings(names)

	n := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, name := range names {
		s := c.Series[name]
		if len(s) > n {
			n = len(s)
		}
		for _, v := range s {
			// A single NaN would poison both bounds (and ±Inf one of
			// them), rendering every finite point off-grid.
			if !isFinite(v) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if lo > hi { // no finite samples at all
		lo, hi = 0, 1
	}
	if c.YMinSet {
		lo = c.YMin
	}
	if hi <= lo {
		hi = lo + 1
	}
	pad := (hi - lo) * 0.05
	if !c.YMinSet {
		lo -= float64(pad)
	}
	hi += float64(pad)

	const colWidth = 6
	width := n * colWidth
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	rowOf := func(v float64) int {
		frac := (v - lo) / (hi - lo)
		r := int(math.Round(frac * float64(height-1)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return height - 1 - r
	}
	for si, name := range names {
		mark := chartRunes[si%len(chartRunes)]
		for i, v := range c.Series[name] {
			if !isFinite(v) {
				continue
			}
			col := i*colWidth + colWidth/2
			row := rowOf(v)
			if grid[row][col] == ' ' {
				grid[row][col] = mark
			} else {
				grid[row][col] = '!'
			}
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for r, row := range grid {
		y := hi - (hi-lo)*float64(r)/float64(height-1)
		fmt.Fprintf(&b, "%7.2f |%s\n", y, string(row))
	}
	b.WriteString("        +" + strings.Repeat("-", width) + "\n")
	b.WriteString("         ")
	for i := 0; i < n; i++ {
		tick := ""
		if i < len(c.XTicks) {
			tick = c.XTicks[i]
		}
		// Truncate by rune: byte slicing could split a multi-byte
		// label (e.g. "µop/c") into invalid UTF-8.
		if r := []rune(tick); len(r) > colWidth-1 {
			tick = string(r[:colWidth-1])
		}
		b.WriteString(fmt.Sprintf("%-*s", colWidth, tick))
	}
	b.WriteString("  " + c.XLabel + "\n")
	b.WriteString("legend: ")
	for si, name := range names {
		if si > 0 {
			b.WriteString("   ")
		}
		fmt.Fprintf(&b, "%c=%s", chartRunes[si%len(chartRunes)], name)
	}
	b.WriteString("  ('!' marks overlapping points)\n")
	return b.String()
}
