// Command bench is the repository's benchmark: four closed-loop
// workloads that drive the product only through its public entry points
// (two in-process sweeps as adts-sweep runs them, two served through
// real smtsimd daemons and the fleet client), with repeatable end-to-end
// metrics and a traced sample that splits item time by layer. See
// README.md for the workloads, the metrics and how to read a trace.
//
// Usage (from the checkout root; bench/run.sh builds and runs it):
//
//	bash bench/run.sh                                  # all four workloads, seed 1
//	bash bench/run.sh -workload served-warm -seed 3 -seconds 15 -trace 0
//
// Each workload runs in fresh child processes of this binary (three
// set-ups, the last followed by the timed samples), so runtime state and
// peak RSS belong to that workload alone. Host times are normalized to
// nominal host speed (hostspeed.go). The last
// stdout line is one JSON object: correct, attempted, failed, and the
// metrics (end-to-end with -trace 0, per-layer with -trace 1; both,
// prefixed by workload, when every workload runs).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+" (default: all)")
		seed     = flag.Uint64("seed", 1, "workload seed: derives every config seed")
		seconds  = flag.Float64("seconds", 15, "timed seconds per workload")
		traceF   = flag.Int("trace", 1, "1: also run the traced sample and probes and report per-layer metrics")
		outDir   = flag.String("out", "", "directory for trace-<workload>.json (default <root>/.bench_build/out)")
		child    = flag.String("child", "", "internal: run one workload described by this JSON spec")
		compare  = flag.String("compare", "", "compare the paired runs bench/ab.sh recorded in this directory")
	)
	flag.Parse()
	runtime.GOMAXPROCS(2)
	if *child != "" {
		return childMain(*child)
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	if *compare != "" {
		return compareMain(root, *compare)
	}
	if *traceF != 0 && *traceF != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	names := workloadNames
	if *workload != "" {
		if _, err := jobsFor(*workload, 1, smokeScale); err != nil {
			return fail(err)
		}
		names = []string{*workload}
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, ".bench_build", "out")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := runOpts{root: root, seed: *seed, seconds: *seconds, traced: *traceF == 1, outDir: *outDir, scale: fullScale}
	results, err := runWorkloads(ctx, opts, names)
	if err != nil {
		return fail(err)
	}
	env := currentEnv(root)
	fmt.Printf("# env nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d\n", env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, *seed)
	for _, r := range results {
		r.print()
	}
	line := resultLine{Correct: true, Metrics: map[string]metricOut{}}
	for _, r := range results {
		line.Correct = line.Correct && r.correct()
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for name, v := range r.reported(len(names) == 1, opts.traced) {
			line.Metrics[name] = v
		}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(raw))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

type runOpts struct {
	root    string
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
	scale   scale
}

// runWorkloads runs each workload in child processes of its own. Scratch
// files live in one run directory inside the checkout, removed at the
// end.
func runWorkloads(ctx context.Context, o runOpts, names []string) ([]*childResult, error) {
	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	var smtsimd string
	var out []*childResult
	for _, name := range names {
		if (name == servedCold || name == servedWarm) && smtsimd == "" {
			if smtsimd, err = buildSmtsimd(o.root, runDir); err != nil {
				return nil, err
			}
		}
		spec := childSpec{
			Workload: name, Seed: o.seed, Budget: o.seconds, Traced: o.traced, Scale: o.scale,
			RunDir: runDir, OutDir: o.outDir, Smtsimd: smtsimd,
		}
		// The workload is set up setupRuns times, each in a fresh child;
		// the last child goes on to the timed samples.
		var setups []float64
		for range setupRuns - 1 {
			s := spec
			s.SetupOnly = true
			cr, err := spawnChild(ctx, s)
			if err != nil {
				return nil, fmt.Errorf("%s set-up: %w", name, err)
			}
			setups = append(setups, cr.SetupS...)
		}
		cr, err := spawnChild(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		cr.SetupS = append(setups, cr.SetupS...)
		fmt.Fprintf(os.Stderr, "bench: %s: set-up %s s; per sample: items/s %s, as measured %s, host speed %s; failed %d\n",
			name, join(cr.SetupS, "%.3f"), sampleField(cr.Samples, func(s sampleStat) float64 { return float64(s.Items) / s.Seconds }),
			sampleField(cr.Samples, func(s sampleStat) float64 { return float64(s.Items) / s.RawSeconds }),
			sampleField(cr.Samples, func(s sampleStat) float64 { return s.Speed }), cr.Failed)
		out = append(out, cr)
	}
	return out, nil
}

// setupRuns is how many times each workload is set up; setup_s is the
// median.
const setupRuns = 3

// spawnChild runs one workload in a fresh child process of this binary,
// pinned to GOMAXPROCS=2, and waits for it.
func spawnChild(ctx context.Context, spec childSpec) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, 150*time.Second)
	defer cancel()
	spec.T0 = time.Now().UnixNano()
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", string(raw))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var cr childResult
	if err := json.Unmarshal(stdout.Bytes(), &cr); err != nil {
		return nil, fmt.Errorf("decoding child result: %w", err)
	}
	return &cr, nil
}

func childMain(specJSON string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cr, err := runChild(ctx, spec)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", spec.Workload, err))
	}
	if err := json.NewEncoder(os.Stdout).Encode(cr); err != nil {
		return fail(err)
	}
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's last stdout line.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func (c *childResult) correct() bool { return c.Failed == 0 && c.Attempted > 0 }

// endToEnd returns the end-to-end metrics: set-up time is the median over
// the set-ups, throughput the median over the timed samples, latency
// percentiles pool every timed request, and peak RSS is the median over
// samples where each sample has its own daemons. Host times are at
// nominal host speed.
func (c *childResult) endToEnd() map[string]float64 {
	rates := make([]float64, len(c.Samples))
	for i, s := range c.Samples {
		rates[i] = float64(s.Items) / s.Seconds
	}
	return map[string]float64{
		"setup_s":      median(c.SetupS),
		"items_per_s":  median(rates),
		"item_p50_ms":  percentile(c.LatencyMS, 50),
		"item_tail_ms": percentile(c.LatencyMS, tailPercentile(c.Workload)),
		"peak_rss_mb":  median(c.RSSMB),
	}
}

// reported is what the result line carries: for a single workload the
// end-to-end metrics untraced or the per-layer metrics traced, or
// everything, prefixed by workload, when several ran.
func (c *childResult) reported(single, traced bool) map[string]metricOut {
	out := map[string]metricOut{}
	put := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			name := d.name
			if !single {
				name = c.Workload + "." + name
			}
			out[name] = metricOut{vals[d.name], d.unit}
		}
	}
	switch {
	case single && traced:
		put(perLayer, c.Layers)
	case single:
		put(endToEnd, c.endToEnd())
	default:
		put(endToEnd, c.endToEnd())
		if traced {
			put(perLayer, c.Layers)
		}
	}
	return out
}

// print writes a human-readable summary of every metric.
func (c *childResult) print() {
	fmt.Printf("# %s: attempted %d, failed %d, error_rate %g; %d timed samples; item_tail_ms is p%g of %d timed requests\n",
		c.Workload, c.Attempted, c.Failed, ratio(float64(c.Failed), float64(c.Attempted)),
		len(c.Samples), tailPercentile(c.Workload), len(c.LatencyMS))
	e2e := c.endToEnd()
	for _, d := range endToEnd {
		fmt.Printf("#   %-36s %14.6g %s\n", d.name, e2e[d.name], d.unit)
	}
	if c.Layers != nil {
		for _, d := range perLayer {
			fmt.Printf("#   %-36s %14.6g %s\n", d.name, c.Layers[d.name], d.unit)
		}
	}
}

func sampleField(samples []sampleStat, f func(sampleStat) float64) string {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return join(xs, "%.4g")
}

func join(xs []float64, format string) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, format, x)
	}
	return b.String()
}
