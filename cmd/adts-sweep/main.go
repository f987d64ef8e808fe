// Command adts-sweep regenerates the paper's evaluation: the Table 1
// fixed-policy comparison, the Figure 7 switch-count/switch-quality
// grids, the Figure 8 throughput grids, the §6 headline, the oracle
// upper bound, the homogeneous-vs-diverse comparison, the thread-count
// saturation experiment, and the §4.3.2 condition-threshold calibration
// — plus the beyond-the-paper studies: thread-to-core allocation on
// multi-core systems (-multicore) and learned dynamic policy selection
// (-adaptive, comparing the bandit/ucb/learned heuristics against
// Type 3/3'/4; see docs/adaptive.md).
//
// One invocation is one pass: the selected experiments' configs are
// collected first, a config that several of them read (the fixed-ICOUNT
// baselines, above all) runs once, and stderr names the experiments
// with "N runs requested, M distinct" before the first run starts. Runs
// go through the resilient runner (internal/runner): progress ticks on
// stderr, Ctrl-C drains in-flight simulations and records them in the
// checkpoint directory, and -resume continues an interrupted sweep
// without recomputing finished runs. A checkpoint is a result-store
// directory (internal/resultstore) keyed by config, holding each
// distinct run once, so it resumes locally or through a fleet, and
// smtsimd can serve it as -store-dir.
//
// Usage:
//
//	adts-sweep -all
//	adts-sweep -fig7 -fig8 -quanta 64 -intervals 3
//	adts-sweep -table1 -mixes kitchen-sink,int-memory
//	adts-sweep -fig8 -checkpoint sweep.ckpt      # interruptible
//	adts-sweep -fig8 -resume sweep.ckpt          # continue after Ctrl-C
//	adts-sweep -table1 -json > table1.json       # machine-readable
//	adts-sweep -all -backends sim1:8080,sim2:8080,sim3:8080   # distributed
//	adts-sweep -all -backends sim1:8080,sim2:8080 -peer-lookup
//
// With -backends, runs are dispatched to a pool of smtsimd servers in
// chunks of at most 64 configs, one POST /v1/batch per chunk
// (least-loaded among backends that are up, with retries; a failed
// health probe or three failed dispatches in a row mark a backend down
// until its next good probe — see docs/fleet.md); results are
// byte-identical to a local run, and -checkpoint/-resume work
// unchanged. -peer-lookup reads every backend's store manifest once,
// then fetches each run's stored result from a backend that lists its
// key and ships only the runs no backend lists, so a fleet that has
// seen a config anywhere never re-simulates it (see
// docs/resultstore.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/buildinfo"
	"repro/internal/detector"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/profiling"
	"repro/internal/resultstore"
	"repro/internal/trace"
)

func main() {
	var (
		all        = flag.Bool("all", false, "run every experiment")
		fig7       = flag.Bool("fig7", false, "Figure 7: switch counts and benign-switch probability")
		fig8       = flag.Bool("fig8", false, "Figure 8: throughput vs threshold and heuristic")
		table1     = flag.Bool("table1", false, "Table 1: fixed-policy comparison")
		oracleF    = flag.Bool("oracle", false, "oracle-scheduled upper bound")
		saturation = flag.Bool("saturation", false, "thread-count scaling, fixed vs adaptive")
		calibrate  = flag.Bool("calibrate", false, "condition-threshold calibration (§4.3.2)")
		jobschedF  = flag.Bool("jobsched", false, "job-scheduler interplay: oblivious vs DT-assisted (§3/§7)")
		headline   = flag.Bool("headline", false, "§6 headline: best configuration vs fixed ICOUNT")
		similarity = flag.Bool("similarity", false, "homogeneous vs diverse mix gains (§6)")
		multicoreF = flag.Bool("multicore", false, "thread-to-core allocation policies on N SMT cores")
		adaptiveF  = flag.Bool("adaptive", false, "learned policy selection (bandit, ucb, learned FSM) vs Type 3/3'/4")

		coresF           = flag.String("cores", "2,4", "with -multicore: comma-separated core counts")
		adaptiveThreadsF = flag.String("adaptive-threads", "4,8", "with -adaptive: comma-separated thread counts")
		adaptiveCoresF   = flag.String("adaptive-cores", "1,2", "with -adaptive: comma-separated core counts (1 = single core)")

		quanta      = flag.Int("quanta", 64, "measured scheduling quanta per run")
		intervals   = flag.Int("intervals", 3, "measurement intervals per mix (paper used 10)")
		threads     = flag.Int("threads", 8, "hardware contexts")
		seed        = flag.Uint64("seed", 1, "base seed")
		workers     = flag.Int("workers", 0, "parallel runs (0 = GOMAXPROCS)")
		mixesFlag   = flag.String("mixes", "", "comma-separated mix subset (default: all 13)")
		checkpointF = flag.String("checkpoint", "", "record completed runs in this new or empty result-store directory")
		resumeF     = flag.String("resume", "", "resume from (and keep recording to) this checkpoint directory")
		jsonF       = flag.Bool("json", false, "emit machine-readable JSON results to stdout instead of tables")

		backendsF     = flag.String("backends", "", "comma-separated smtsimd backends (host:port or URL) to shard runs across")
		peerLookupF   = flag.Bool("peer-lookup", false, "with -backends: read every backend's store manifest once, then fetch each run's stored result from a backend that lists it instead of dispatching the run")
		peerTimeoutF  = flag.Duration("peer-timeout", resultstore.DefaultPeerTimeout, "with -peer-lookup: budget for the first lookup's manifest reads (all backends at once) and for each result fetch")
		maxRetriesF   = flag.Int("max-retries", 3, "with -backends: re-dispatches per chunk of runs after a failure (0 or -1 disables)")
		fleetMetricsF = flag.Bool("fleet-metrics", false, "with -backends: print fleet client metrics to stderr on exit")
		auditRateF    = flag.Float64("audit-rate", 0, "with -backends: fraction of runs (0..1) re-checked on a second backend; disagreements are majority-voted and byzantine backends quarantined")
		auditSeedF    = flag.Uint64("audit-seed", 1, "with -backends: seed for the audit sampler (deterministic sampling)")
		versionF      = flag.Bool("version", false, "print version and exit")
		cpuProf       = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf       = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()
	if *versionF {
		fmt.Println(buildinfo.String("adts-sweep"))
		return
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adts-sweep:", err)
		os.Exit(1)
	}
	defer stopProf()

	o := experiments.DefaultOptions()
	o.Quanta = *quanta
	o.Intervals = *intervals
	o.Threads = *threads
	o.Seed = *seed
	o.Workers = *workers
	o.Progress = os.Stderr
	if *mixesFlag != "" {
		o.Mixes = splitMixes(*mixesFlag)
		if len(o.Mixes) == 0 {
			fatalf("-mixes %q selects no mixes", *mixesFlag)
		}
		for _, m := range o.Mixes {
			if _, ok := trace.MixByName(m); !ok {
				fatalf("unknown mix %q", m)
			}
		}
	}

	if err := checkFleetFlags(*backendsF, *peerLookupF, *fleetMetricsF, *auditRateF); err != nil {
		fatalf("%v", err)
	}

	// -resume implies checkpointing to the same directory.
	ckPath, ckResume := *checkpointF, false
	if *resumeF != "" {
		if ckPath != "" && ckPath != *resumeF {
			fatalf("-checkpoint %q and -resume %q name different directories", ckPath, *resumeF)
		}
		ckPath, ckResume = *resumeF, true
	}
	if ckPath != "" {
		// A fresh checkpoint never adopts (or rearranges) existing files:
		// continuing a directory's runs is what -resume is for. A path
		// ReadDir cannot list is new, or fails in OpenDisk below.
		if names, _ := os.ReadDir(ckPath); !ckResume && len(names) > 0 {
			fatalf("-checkpoint %s: directory is not empty; use -resume %s to continue its runs", ckPath, ckPath)
		}
		ck, err := resultstore.OpenDisk(ckPath, resultstore.DiskOptions{Log: os.Stderr})
		if err != nil {
			fatalf("%v", err)
		}
		defer ck.Close()
		if ckResume {
			fmt.Fprintf(os.Stderr, "resuming: %d runs already checkpointed in %s\n", ck.Len(), ckPath)
		}
		o.Checkpoint = ck
	}

	// -backends shards runs across a pool of smtsimd servers. Results
	// are byte-identical to local execution, so checkpoints written
	// locally resume remotely and vice versa.
	if *backendsF != "" {
		backends := splitMixes(*backendsF) // same comma-list parsing
		var peers resultstore.PeerLookup
		if *peerLookupF {
			var err error
			peers, err = fleet.NewPeerLookup(backends, *peerTimeoutF)
			if err != nil {
				fatalf("fleet: %v", err)
			}
		}
		retries := *maxRetriesF
		if retries == 0 {
			retries = -1 // flag 0 means "no retries"; Config 0 means "default"
		}
		fc, err := fleet.New(fleet.Config{
			Backends:   backends,
			MaxRetries: retries,
			AuditRate:  *auditRateF,
			AuditSeed:  *auditSeedF,
			PeerLookup: peers,
			Log:        os.Stderr,
		})
		if err != nil {
			fatalf("fleet: %v", err)
		}
		defer fc.Close()
		o.Executor = fc.BatchExecutor()
		fmt.Fprintf(os.Stderr, "dispatching runs across %d backend(s)\n", fc.Backends())
		if *fleetMetricsF {
			defer fc.WriteMetrics(os.Stderr)
		}
	}

	// Ctrl-C / SIGTERM cancels the sweep context: in-flight runs drain
	// and are recorded in the checkpoint before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *all {
		*fig7, *fig8, *table1, *oracleF, *saturation, *calibrate, *headline, *similarity, *jobschedF, *multicoreF, *adaptiveF =
			true, true, true, true, true, true, true, true, true, true, true
	}
	if !(*fig7 || *fig8 || *table1 || *oracleF || *saturation || *calibrate || *headline || *similarity || *jobschedF || *multicoreF || *adaptiveF) {
		flag.Usage()
		os.Exit(2)
	}

	// out collects the machine-readable export for -json.
	var out struct {
		Sweep      *experiments.Sweep            `json:"sweep,omitempty"`
		Table1     *experiments.Table1Result     `json:"table1,omitempty"`
		Oracle     *experiments.OracleResult     `json:"oracle,omitempty"`
		Envelope   *experiments.EnvelopeResult   `json:"envelope,omitempty"`
		Saturation *experiments.SaturationResult `json:"saturation,omitempty"`
		Calibrate  *experiments.Calibration      `json:"calibrate,omitempty"`
		Jobsched   *experiments.JobschedResult   `json:"jobsched,omitempty"`
		Multicore  *experiments.MultiCoreResult  `json:"multicore,omitempty"`
		Adaptive   *experiments.AdaptiveResult   `json:"adaptive,omitempty"`
	}
	emit := func(s fmt.Stringer) {
		if !*jsonF {
			fmt.Println(s)
		}
	}

	// Every selected runner-driven experiment shares one pass, so a
	// config two of them read (the fixed-ICOUNT baselines, above all)
	// runs once. Flag errors surface before any run starts.
	var exps []experiments.Experiment
	add := func(name string, reduce func(experiments.Get)) {
		exps = append(exps, experiments.Experiment{Name: name, Reduce: reduce})
	}
	if *fig7 || *fig8 || *headline || *similarity {
		add("sweep", func(get experiments.Get) { out.Sweep = o.Sweep(nil, nil, get) })
	}
	if *table1 {
		add("table1", func(get experiments.Get) { out.Table1 = o.Table1(get) })
	}
	if *oracleF {
		add("oracle", func(get experiments.Get) { out.Oracle = o.Oracle(get) })
		add("envelope", func(get experiments.Get) { out.Envelope = o.Envelope(nil, get) })
	}
	if *saturation {
		add("saturation", func(get experiments.Get) { out.Saturation = o.Saturation(nil, get) })
	}
	if *calibrate {
		add("calibrate", func(get experiments.Get) { out.Calibrate = o.Calibration(get) })
	}
	if *multicoreF {
		cores, err := parseCores(*coresF, o.Threads)
		if err != nil {
			fatalf("%v", err)
		}
		add("multicore", func(get experiments.Get) { out.Multicore = o.MultiCore(cores, get) })
	}
	if *adaptiveF {
		ths, cores, err := parseAdaptiveGrid(*adaptiveThreadsF, *adaptiveCoresF)
		if err != nil {
			fatalf("%v", err)
		}
		add("adaptive", func(get experiments.Get) { out.Adaptive = o.Adaptive(ths, cores, get) })
	}
	err = o.Run(ctx, exps...)
	if err == nil && *jobschedF {
		out.Jobsched, err = experiments.RunJobsched(ctx, o, 12)
	}
	if err != nil {
		sweepFatal(err, ckPath)
	}

	if *table1 {
		emit(out.Table1.Table())
		emit(out.Table1.PerMixTable())
	}
	sweep := out.Sweep
	if *fig7 {
		emit(sweep.Figure7Switches())
		emit(sweep.Figure7Benign())
	}
	if *fig8 {
		emit(sweep.Figure8IPC())
		emit(sweep.Figure8Improvement())
		emit(sweep.Figure8Chart())
	}
	if *headline && !*jsonF {
		fmt.Println(sweep.Headline())
		fmt.Println()
	}
	if *similarity && !*jsonF {
		homo := map[string]bool{}
		for _, m := range trace.Mixes() {
			homo[m.Name] = m.Homogeneous
		}
		hg, dg, err := sweep.Similarity(2, detector.Type3, homo)
		if err != nil {
			fatalf("similarity: %v", err)
		}
		fmt.Printf("similarity (Type 3, m=2): homogeneous mixes %+.1f%%, diverse mixes %+.1f%% over fixed ICOUNT (paper: homogeneous benefit more)\n\n",
			100*hg, 100*dg)
	}
	if *oracleF {
		emit(out.Oracle.Table())
		emit(out.Envelope.Table())
	}
	if *saturation {
		emit(out.Saturation.Table())
	}
	if *calibrate {
		emit(out.Calibrate.Table())
	}
	if *jobschedF {
		emit(out.Jobsched.Table())
	}
	if *multicoreF {
		for _, tb := range out.Multicore.Tables() {
			emit(tb)
		}
	}
	if *adaptiveF {
		for _, tb := range out.Adaptive.Tables() {
			emit(tb)
		}
	}

	if *jsonF {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatalf("json: %v", err)
		}
	}
}

// checkFleetFlags rejects fleet flags that would be accepted but have
// no effect, so such a command fails before any run starts.
func checkFleetFlags(backends string, peerLookup, fleetMetrics bool, auditRate float64) error {
	if backends == "" && (peerLookup || fleetMetrics || auditRate != 0) {
		return errors.New("-peer-lookup, -fleet-metrics, and -audit-rate require -backends")
	}
	return nil
}

// parseCores parses the -cores list and checks each count divides the
// thread count (the same constraint core.Config.Validate enforces),
// so a bad flag fails before any simulation runs.
func parseCores(s string, threads int) ([]int, error) {
	var cores []int
	for _, part := range splitMixes(s) {
		var c int
		if _, err := fmt.Sscanf(part, "%d", &c); err != nil || c < 2 || c > 8 {
			return nil, fmt.Errorf("-cores: want counts in 2..8, got %q", part)
		}
		if threads%c != 0 {
			return nil, fmt.Errorf("-cores: %d does not divide -threads %d", c, threads)
		}
		cores = append(cores, c)
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("-cores: empty list")
	}
	return cores, nil
}

// parseAdaptiveGrid parses the -adaptive-threads and -adaptive-cores
// lists and checks every core count divides every thread count, so a
// bad grid fails before any simulation runs. Unlike -multicore's
// -cores, core count 1 is valid here (the single-core grid points).
func parseAdaptiveGrid(threadsList, coresList string) (threads, cores []int, err error) {
	for _, part := range splitMixes(threadsList) {
		var t int
		if _, err := fmt.Sscanf(part, "%d", &t); err != nil || t < 1 || t > 8 {
			return nil, nil, fmt.Errorf("-adaptive-threads: want counts in 1..8, got %q", part)
		}
		threads = append(threads, t)
	}
	for _, part := range splitMixes(coresList) {
		var c int
		if _, err := fmt.Sscanf(part, "%d", &c); err != nil || c < 1 || c > 8 {
			return nil, nil, fmt.Errorf("-adaptive-cores: want counts in 1..8, got %q", part)
		}
		for _, t := range threads {
			if t%c != 0 {
				return nil, nil, fmt.Errorf("-adaptive-cores: %d does not divide thread count %d", c, t)
			}
		}
		cores = append(cores, c)
	}
	if len(threads) == 0 || len(cores) == 0 {
		return nil, nil, fmt.Errorf("-adaptive-threads/-adaptive-cores: empty list")
	}
	return threads, cores, nil
}

// splitMixes parses the -mixes value: comma-separated names with
// whitespace trimmed and empty entries dropped, so
// "kitchen-sink, int-memory" or a trailing comma both work.
func splitMixes(s string) []string {
	var mixes []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			mixes = append(mixes, m)
		}
	}
	return mixes
}

// sweepFatal reports a failed pass; an interrupt with an active
// checkpoint exits with the conventional SIGINT status and a resume
// hint instead of a bare error.
func sweepFatal(err error, ckPath string) {
	if errors.Is(err, context.Canceled) {
		if ckPath != "" {
			fmt.Fprintf(os.Stderr, "adts-sweep: interrupted; completed runs are in %s — re-run with -resume %s to continue\n",
				ckPath, ckPath)
		} else {
			fmt.Fprintln(os.Stderr, "adts-sweep: interrupted (no -checkpoint; completed runs were discarded)")
		}
		os.Exit(130)
	}
	fatalf("%v", err)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adts-sweep: "+format+"\n", args...)
	os.Exit(1)
}
