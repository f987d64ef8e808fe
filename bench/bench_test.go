package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite expected.json from the current code")

// TestExpectedDigests pins each workload's simulated output at seed 1:
// a change to any result fails it. Run with -update after a change that
// is meant to alter simulated results.
func TestExpectedDigests(t *testing.T) {
	got := map[string]string{}
	for _, w := range workloadNames {
		jobs, err := jobsFor(w, 1, fullScale)
		if err != nil {
			t.Fatal(err)
		}
		d, err := localDigests(context.Background(), w, jobs)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		got[w] = passDigest(d)
	}
	if *update {
		if err := writeJSON("expected.json", got); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := expectedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		if got[w] != want[w] {
			t.Errorf("%s: pass digest %s, expected.json has %s (rerun with -update if the change is meant to alter results)", w, got[w], want[w])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	span := func(id, parent int, start, end int64) Span {
		return Span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
	}
	for _, tc := range []struct {
		name  string
		spans []Span
		want  map[int]int64
	}{
		{
			name:  "nested",
			spans: []Span{span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 2, 20, 30)},
			want:  map[int]int64{1: 70, 2: 20, 3: 10},
		},
		{
			name:  "overlapping children from two workers count once",
			spans: []Span{span(1, 0, 0, 100), span(2, 1, 0, 60), span(3, 1, 40, 100), span(4, 1, 50, 55)},
			want:  map[int]int64{1: 0, 2: 60, 3: 60, 4: 5},
		},
		{
			name:  "child outliving its parent covers only the overlap",
			spans: []Span{span(1, 0, 0, 50), span(2, 1, 30, 80)},
			want:  map[int]int64{1: 30, 2: 50},
		},
		{
			name:  "touching and disjoint children",
			spans: []Span{span(1, 0, 0, 100), span(2, 1, 10, 20), span(3, 1, 20, 30), span(4, 1, 70, 90)},
			want:  map[int]int64{1: 60, 2: 10, 3: 10, 4: 20},
		},
		{
			name:  "child wholly outside its parent covers nothing",
			spans: []Span{span(1, 0, 0, 10), span(2, 1, 20, 30)},
			want:  map[int]int64{1: 10, 2: 10},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := selfTimes(tc.spans)
			for id, want := range tc.want {
				if got[id] != want {
					t.Errorf("span %d: self %d, want %d", id, got[id], want)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3.5, 1}, 0.375, 4.125},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	seq := func(from, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = from + step*float64(i)
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		base, head   []float64
		wins         int
		moreFailures bool
		want         string
	}{
		{"clear gain", seq(100, 1), seq(120, 1), 10, false, "gain"},
		{"wins but within the base spread", seq(100, 1), seq(101, 1), 10, false, "no regression"},
		{"worse by more than the bound", seq(100, 1), seq(80, 1), 0, false, "regression"},
		{"base spread wider than the bound", seq(100, 10), seq(95, 10), 4, false, "unresolved"},
		{"too few pairs", []float64{1, 2}, []float64{3, 4}, 2, false, "unresolved (fewer than 10 pairs)"},
		{"faster but failing more items", seq(100, 1), seq(120, 1), 10, true, "regression (more failed items)"},
		{"unchanged but failing more items", seq(100, 1), seq(100, 1), 5, true, "regression (more failed items)"},
	} {
		if got := verdict(tc.base, tc.head, tc.wins, "higher", 0.1, tc.moreFailures); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestSmoke runs every workload at a few items with one traced sample
// and checks that every metric BENCHMARK.json names is reported with
// its unit, that no item failed, and that the traced sample's self times
// account for every worker's wall time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts smtsimd daemons")
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &decl); err != nil {
		t.Fatal(err)
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	smtsimd, err := buildSmtsimd(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			spec := childSpec{
				Workload: w, Seed: 1, Budget: 0.01, Traced: true, Scale: smokeScale,
				T0: time.Now().UnixNano(), RunDir: t.TempDir(), OutDir: t.TempDir(), Smtsimd: smtsimd,
			}
			cr, err := runChild(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if !cr.correct() {
				t.Errorf("error_rate %d/%d, want 0", cr.Failed, cr.Attempted)
			}
			for _, c := range []struct {
				traced bool
				decl   []struct{ Name, Unit string }
			}{{false, decl.EndToEnd}, {true, decl.PerLayer}} {
				got := cr.reported(true, c.traced)
				if len(got) != len(c.decl) {
					t.Errorf("traced=%v: reported %d metrics, BENCHMARK.json declares %d", c.traced, len(got), len(c.decl))
				}
				for _, d := range c.decl {
					m, ok := got[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: reported %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
					if !c.traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s reads %v, want a positive measurement", d.Name, m.Value)
					}
				}
			}
			if cov := cr.Layers["bench.span_coverage"]; cov < 0.95 || cov > 1.05 {
				t.Errorf("span self times cover %.3f of workers × wall time, want within 5%%", cov)
			}
			if _, err := os.Stat(filepath.Join(spec.OutDir, "trace-"+w+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
			line, err := json.Marshal(resultLine{Correct: cr.correct(), Attempted: cr.Attempted, Failed: cr.Failed, Metrics: cr.reported(true, false)})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s", line)
		})
	}
}
