// Command adts-train fits the learned-FSM transition table that the
// "learned" ADTS heuristic executes at runtime (internal/adaptive).
//
// The primary mode runs a training sweep in-process: for every arm
// policy (ICOUNT, BRCOUNT, L1MISSCOUNT), each selected mix × interval
// is simulated under that fixed policy through the core stepping seam,
// and every quantum boundary yields one sample — the quantized context
// of quantum t paired with the arm and the IPC of quantum t+1. Fit
// then picks, per context, the arm with the highest mean next-quantum
// IPC. The sweep is deterministic (same flags → byte-identical table),
// so the committed artifact internal/adaptive/learned_table.json is
// regenerable with:
//
//	adts-train -out internal/adaptive/learned_table.json
//
// Alternatively -from-checkpoint replays a checkpoint directory
// (adts-sweep -checkpoint, or any smtsimd -store-dir) instead of
// simulating: per-run policy timelines and quantum IPC series become
// samples keyed by the run's aggregate counter signature. That context
// is coarser than the per-quantum one (run-level rates stand in for
// quantum rates), but it trains from data a sweep already paid for.
// Entries are read in key order, so the same directory trains the same
// table whatever worker count wrote it.
//
// Usage:
//
//	adts-train -out learned_table.json
//	adts-train -mixes kitchen-sink,int-memory -quanta 32 -intervals 2
//	adts-train -from-checkpoint sweep.ckpt -out learned_table.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/trace"
)

func main() {
	var (
		out        = flag.String("out", "learned_table.json", "path for the trained table artifact")
		mixesF     = flag.String("mixes", "", "comma-separated mixes (default: all)")
		threads    = flag.Int("threads", 8, "hardware contexts per run")
		quanta     = flag.Int("quanta", 64, "measured quanta per run")
		intervals  = flag.Int("intervals", 3, "measurement intervals per mix")
		seed       = flag.Uint64("seed", 1, "base RNG seed")
		m          = flag.Float64("m", 2, "detector IPC threshold used for context quantization")
		checkpoint = flag.String("from-checkpoint", "", "replay a checkpoint (result-store) directory instead of simulating")
		verbose    = flag.Bool("v", false, "print per-context training summary")
		versionF   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *versionF {
		fmt.Println(buildinfo.String("adts-train"))
		return
	}

	var (
		samples   []adaptive.Sample
		trainedOn string
		err       error
	)
	if *checkpoint != "" {
		samples, err = replaySamples(*checkpoint, *m)
		trainedOn = fmt.Sprintf("checkpoint replay of %s (run-level contexts, m=%g)", *checkpoint, *m)
	} else {
		var mixes []string
		if *mixesF != "" {
			mixes = splitList(*mixesF)
		} else {
			for _, mx := range trace.Mixes() {
				mixes = append(mixes, mx.Name)
			}
		}
		samples, err = sweepSamples(mixes, *threads, *quanta, *intervals, *seed, *m)
		trainedOn = fmt.Sprintf("fixed-policy sweep: %d mixes × %d intervals × %d threads × %d quanta, m=%g, seed %d",
			len(mixes), *intervals, *threads, *quanta, *m, *seed)
	}
	if err != nil {
		fatal(err)
	}

	table, err := adaptive.Fit(samples, trainedOn)
	if err != nil {
		fatal(err)
	}
	blob, err := adaptive.EncodeTable(table)
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("adts-train: %d samples → %d/%d contexts trained → %s\n",
		len(samples), table.Trained(), adaptive.NumContexts, *out)
	if *verbose {
		for c := 0; c < adaptive.NumContexts; c++ {
			p := table.Policy[c]
			if p == "" {
				p = "(untrained — Type 3 fallback)"
			}
			fmt.Printf("  context %2d: %-12s %5d samples, mean IPC %.3f\n",
				c, p, table.Samples[c], table.MeanIPC[c])
		}
	}
}

// sweepSamples runs every mix × interval under each arm policy through
// the stepping seam and emits one sample per quantum transition.
func sweepSamples(mixes []string, threads, quanta, intervals int, seed uint64, m float64) ([]adaptive.Sample, error) {
	o := experiments.DefaultOptions()
	o.Mixes = mixes
	o.Threads = threads
	o.Quanta = quanta
	o.Intervals = intervals
	o.Seed = seed

	// Context keys must quantize against the same thresholds the
	// runtime selectors will use.
	dcfg := detector.DefaultConfig(threads)
	dcfg.IPCThreshold = m

	var samples []adaptive.Sample
	for _, arm := range adaptive.Arms {
		for _, mix := range mixes {
			for it := 0; it < intervals; it++ {
				cfg := o.FixedConfig(mix, arm, it)
				sim, err := core.NewSimulator(cfg)
				if err != nil {
					return nil, fmt.Errorf("adts-train: %s under %s: %w", mix, arm, err)
				}
				sim.Start()
				prev := false
				var prevCtx uint8
				for q := 0; q < cfg.Quanta; q++ {
					ipc := sim.StepQuantum()
					if prev {
						samples = append(samples, adaptive.Sample{
							Context: prevCtx,
							Policy:  arm.String(),
							IPC:     ipc,
						})
					}
					prevCtx = adaptive.QuantizeQuantum(dcfg, sim.LastQuantum())
					prev = true
				}
				sim.Finish()
				sim.Close()
			}
		}
	}
	return samples, nil
}

// replaySamples derives training samples from a checkpoint directory:
// each entry's policy timeline and quantum IPC series, in key order,
// keyed by the run's aggregate counter signature. Entries that fail
// verification are quarantined by the store and skipped.
func replaySamples(dir string, m float64) ([]adaptive.Sample, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	store, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{Log: os.Stderr})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	var samples []adaptive.Sample
	for _, key := range store.Manifest() {
		e, ok := store.Get(key)
		if !ok {
			continue
		}
		res, err := e.Decode()
		if err != nil {
			continue
		}
		if len(res.PolicyTimeline) != len(res.QuantumIPC) || len(res.QuantumIPC) < 2 {
			continue
		}
		dcfg := detector.DefaultConfig(res.Threads)
		dcfg.IPCThreshold = m
		if res.Threshold > 0 {
			dcfg.IPCThreshold = res.Threshold
		}
		// One coarse context per run: the aggregate rates stand in for
		// the per-quantum signature the primary mode measures.
		ctx := adaptive.Quantize(dcfg, res.AggregateIPC, res.L1MissRate, res.LSQFullRate, res.MispredRate, res.CondBrRate)
		// PolicyTimeline[t] is the policy engaged at the END of quantum
		// t, so quantum t+1 ran under it.
		for t := 0; t+1 < len(res.QuantumIPC); t++ {
			samples = append(samples, adaptive.Sample{
				Context: ctx,
				Policy:  res.PolicyTimeline[t].String(),
				IPC:     res.QuantumIPC[t+1],
			})
		}
	}
	return samples, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "adts-train: %v\n", err)
	os.Exit(1)
}
