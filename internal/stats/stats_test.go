package stats

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/runner"
)

// TestEmptyAndDegenerateInputs locks in the contract that every summary
// statistic returns 0 — never NaN, never a panic — on empty, nil, and
// degenerate inputs.
func TestEmptyAndDegenerateInputs(t *testing.T) {
	funcs := []struct {
		name string
		f    func([]float64) float64
	}{
		{"Mean", Mean},
		{"GeoMean", GeoMean},
		{"Stddev", Stddev},
		{"Median", Median},
	}
	cases := []struct {
		name string
		in   []float64
		want map[string]float64 // expected per function
	}{
		{"nil", nil,
			map[string]float64{"Mean": 0, "GeoMean": 0, "Stddev": 0, "Median": 0}},
		{"empty", []float64{},
			map[string]float64{"Mean": 0, "GeoMean": 0, "Stddev": 0, "Median": 0}},
		{"singleton", []float64{3},
			map[string]float64{"Mean": 3, "GeoMean": 3, "Stddev": 0, "Median": 3}},
		{"zeros", []float64{0, 0},
			map[string]float64{"Mean": 0, "GeoMean": 0, "Stddev": 0, "Median": 0}},
		{"negative", []float64{-1, 1},
			map[string]float64{"Mean": 0, "GeoMean": 1, "Stddev": math.Sqrt2, "Median": 0}},
	}
	for _, tc := range cases {
		for _, fn := range funcs {
			got := fn.f(tc.in)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Errorf("%s(%s) = %v, want finite", fn.name, tc.name, got)
				continue
			}
			if want := tc.want[fn.name]; math.Abs(got-want) > 1e-12 {
				t.Errorf("%s(%s) = %v, want %v", fn.name, tc.name, got, want)
			}
		}
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	// One starved (zero-IPC) thread must not zero the whole mean: the
	// non-positive entry is skipped, and GeoMeanSkipping reports it.
	cases := []struct {
		name    string
		in      []float64
		want    float64
		skipped int
	}{
		{"all positive", []float64{1, 4}, 2, 0},
		{"one starved thread", []float64{1, 4, 0}, 2, 1},
		{"negative skipped", []float64{-3, 2, 8}, 4, 1},
		{"nan and inf skipped", []float64{math.NaN(), math.Inf(1), 9}, 9, 2},
		{"all non-positive", []float64{0, -1}, 0, 2},
		{"nil", nil, 0, 0},
	}
	for _, tc := range cases {
		gm, skipped := GeoMeanSkipping(tc.in)
		if math.Abs(gm-tc.want) > 1e-12 || skipped != tc.skipped {
			t.Errorf("GeoMeanSkipping(%s) = (%v, %d), want (%v, %d)", tc.name, gm, skipped, tc.want, tc.skipped)
		}
		if got := GeoMean(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("GeoMean(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestStddev(t *testing.T) {
	if Stddev([]float64{5}) != 0 {
		t.Fatal("Stddev of singleton should be 0")
	}
	if got := Stddev([]float64{2, 4}); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Fatalf("Stddev = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd Median = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("even Median = %v", got)
	}
	if Median(nil) != 0 {
		t.Fatal("Median(nil) != 0")
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Fatal("Median mutated input")
	}
}

// TestMeanBounds: the mean lies within [min, max] for any input.
func TestMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333") // short row: padded
	out := tb.String()
	if !strings.Contains(out, "### T") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "| a   | bb |") {
		t.Fatalf("header misrendered:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, blank, header, separator, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456) != "1.235" {
		t.Fatalf("F = %q", F(1.23456))
	}
	if Pct(0.256) != "+25.6%" {
		t.Fatalf("Pct = %q", Pct(0.256))
	}
	if Pct(-0.01) != "-1.0%" {
		t.Fatalf("Pct = %q", Pct(-0.01))
	}
}

func TestRunAllAlignmentAndParallel(t *testing.T) {
	mk := func(mix string, quanta int) core.Config {
		cfg := core.DefaultConfig(mix)
		cfg.Quanta = quanta
		cfg.FastForward = 1024
		return cfg
	}
	jobs := []Job{
		{Name: "a", Config: mk("int-compute", 2)},
		{Name: "b", Config: mk("fp-stream", 3)},
		{Name: "c", Config: mk("int-compute", 2)},
	}
	res, err := runner.Run(context.Background(), RunnerJobs(jobs), runner.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if len(res[1].QuantumIPC) != 3 || len(res[0].QuantumIPC) != 2 {
		t.Fatal("results not aligned with jobs")
	}
	// Identical configs must give identical results regardless of
	// worker scheduling.
	if res[0].AggregateIPC != res[2].AggregateIPC {
		t.Fatal("identical jobs produced different results under parallel run")
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	bad := core.DefaultConfig("no-such-mix")
	_, err := runner.Run(context.Background(), RunnerJobs([]Job{{Name: "bad", Config: bad}}), runner.Options{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error not propagated with job name: %v", err)
	}
}

// Regression: the sweep runner used to dispatch every remaining job after a
// failure and keep only the first error. It must fail fast and name
// each job that failed in a joined error.
func TestRunAllFailsFastWithJoinedError(t *testing.T) {
	good := core.DefaultConfig("int-compute")
	good.Quanta = 1
	good.FastForward = 0
	badA := core.DefaultConfig("no-such-mix-a")
	jobs := []Job{
		{Name: "ok", Config: good},
		{Name: "badA", Config: badA},
	}
	// A second bad job behind the first: fail-fast means dispatch stops
	// at badA, so badB never runs and must not appear in the error.
	badB := core.DefaultConfig("no-such-mix-b")
	jobs = append(jobs, Job{Name: "badB", Config: badB})
	_, err := runner.Run(context.Background(), RunnerJobs(jobs), runner.Options{Workers: 1})
	if err == nil {
		t.Fatal("no error returned")
	}
	if !strings.Contains(err.Error(), `job "badA"`) {
		t.Fatalf("joined error does not name the failed job: %v", err)
	}
	if strings.Contains(err.Error(), `job "badB"`) {
		t.Fatalf("jobs kept dispatching after the first failure: %v", err)
	}
}

func TestChartRendering(t *testing.T) {
	c := &Chart{
		Title:  "test chart",
		XLabel: "m",
		XTicks: []string{"1", "2", "3"},
		Series: map[string][]float64{
			"a": {1, 2, 3},
			"b": {3, 2, 1},
		},
		Height: 6,
	}
	out := c.String()
	if !strings.Contains(out, "test chart") || !strings.Contains(out, "legend:") {
		t.Fatalf("chart missing title/legend:\n%s", out)
	}
	if !strings.Contains(out, "o=a") || !strings.Contains(out, "*=b") {
		t.Fatalf("chart legend wrong:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 9 {
		t.Fatalf("chart too short:\n%s", out)
	}
	empty := (&Chart{}).String()
	if !strings.Contains(empty, "empty") {
		t.Fatal("empty chart not handled")
	}
}

// Regression: a single NaN sample used to poison the lo/hi scan
// (NaN min/max propagates), pushing every finite point off-grid and
// rendering a blank chart. Non-finite values must be skipped.
func TestChartSkipsNonFiniteValues(t *testing.T) {
	c := &Chart{
		XTicks: []string{"1", "2", "3", "4"},
		Series: map[string][]float64{
			"a": {1, math.NaN(), 3, math.Inf(1)},
			"b": {2, 2, 2, 2},
		},
		Height: 6,
	}
	out := c.String()
	marks := strings.Count(out, "o") + strings.Count(out, "*") + strings.Count(out, "!")
	// 2 finite points of a + 4 of b, minus possible overlaps; the
	// legend contributes one "o=a" and one "*=b".
	if marks < 2+4 {
		t.Fatalf("finite points missing from grid (%d marks):\n%s", marks, out)
	}
	// Axis labels must be finite numbers, not NaN.
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("non-finite axis labels:\n%s", out)
	}

	// All-NaN series must still render without a degenerate scale.
	allNaN := &Chart{
		XTicks: []string{"1"},
		Series: map[string][]float64{"a": {math.NaN()}},
		Height: 4,
	}
	if out := allNaN.String(); strings.Contains(out, "NaN") {
		t.Fatalf("all-NaN chart rendered NaN labels:\n%s", out)
	}
}

// Regression: tick truncation used byte slicing, which can split a
// multi-byte rune and emit invalid UTF-8.
func TestChartTickTruncationIsRuneSafe(t *testing.T) {
	c := &Chart{
		XTicks: []string{"µµµµµµµµ", "αβγδεζηθ"},
		Series: map[string][]float64{"a": {1, 2}},
		Height: 4,
	}
	out := c.String()
	if !utf8.ValidString(out) {
		t.Fatalf("chart output is not valid UTF-8:\n%q", out)
	}
	if !strings.Contains(out, "µµµµµ") {
		t.Fatalf("truncated tick lost its runes:\n%s", out)
	}
	if strings.Contains(out, "�") || strings.Contains(out, "µµµµµµ") {
		t.Fatalf("tick truncation wrong:\n%s", out)
	}
}
