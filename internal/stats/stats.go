// Package stats provides the helpers the experiment drivers share:
// simulation jobs for internal/runner (RunnerJobs), summary
// statistics, and plain-text/markdown table rendering for the paper's
// figures.
package stats

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/multicore"
	"repro/internal/runner"
)

// Job is one simulation to run.
type Job struct {
	Name   string
	Config core.Config
}

// RunnerJobs converts simulation jobs into runner jobs: each builds a
// simulator and runs it. The config rides along as the job payload so
// a non-local runner.Executor (internal/fleet) can ship it to a remote
// backend instead of calling Run.
func RunnerJobs(jobs []Job) []runner.Job[core.Result] {
	rjobs := make([]runner.Job[core.Result], len(jobs))
	for i, j := range jobs {
		j := j
		rjobs[i] = runner.Job[core.Result]{
			Name:    j.Name,
			Payload: j.Config,
			Run: func(context.Context) (core.Result, error) {
				// Multi-core configs fan out through internal/multicore;
				// the aggregate system view keeps the Result shape.
				if j.Config.Cores > 1 {
					return multicore.RunConfig(j.Config)
				}
				sim, err := core.NewSimulator(j.Config)
				if err != nil {
					return core.Result{}, err
				}
				res := sim.Run()
				// Recycle the machine shell: sweep jobs overwhelmingly
				// share a geometry, so later jobs skip construction.
				sim.Close()
				return res, nil
			},
		}
	}
	return rjobs
}

// Mean returns the arithmetic mean; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of the positive values in xs,
// skipping non-positive entries; 0 only when no positive value exists.
// A zero entry is a legitimate outcome here — an allocation policy can
// starve a thread to zero IPC — and the old behaviour (any non-positive
// value zeroed the whole mean) silently wiped summary rows that
// contained one starved thread. Callers that must know whether values
// were skipped use GeoMeanSkipping.
func GeoMean(xs []float64) float64 {
	gm, _ := GeoMeanSkipping(xs)
	return gm
}

// GeoMeanSkipping returns the geometric mean of the positive values and
// the number of non-positive entries it skipped. gm is 0 when every
// value was skipped (or xs is empty); skipped lets table renderers
// annotate a mean that does not cover the full population.
func GeoMeanSkipping(xs []float64) (gm float64, skipped int) {
	s, n := 0.0, 0
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			skipped++
			continue
		}
		s += math.Log(x)
		n++
	}
	if n == 0 {
		return 0, skipped
	}
	return math.Exp(s / float64(n)), skipped
}

// Stddev returns the sample standard deviation; 0 for fewer than two
// values.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Median returns the median; 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Table renders rows as a markdown table. Header length fixes the column
// count; short rows are padded.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as markdown.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", w-len(s)) }
	b.WriteString("|")
	for i, h := range t.Header {
		b.WriteString(" " + pad(h, widths[i]) + " |")
	}
	b.WriteString("\n|")
	for i := range t.Header {
		b.WriteString(strings.Repeat("-", widths[i]+2) + "|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString("|")
		for i := range t.Header {
			c := ""
			if i < len(row) {
				c = row[i]
			}
			b.WriteString(" " + pad(c, widths[i]) + " |")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// F formats a float compactly for table cells.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// Pct formats a ratio as a signed percentage.
func Pct(v float64) string { return fmt.Sprintf("%+.1f%%", 100*v) }
