package simrun

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dtvm"
	"repro/internal/policy"
)

func TestDefaultsMatchSmtsim(t *testing.T) {
	cfg, err := Request{}.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := core.DefaultConfig("kitchen-sink")
	if cfg.MixName != want.MixName || cfg.Threads != want.Threads ||
		cfg.Quanta != want.Quanta || cfg.FastForward != want.FastForward ||
		cfg.Seed != want.Seed || cfg.Mode != core.ModeFixed ||
		cfg.FixedPolicy != policy.ICOUNT {
		t.Fatalf("zero Request = %+v, want the smtsim defaults %+v", cfg, want)
	}
}

func TestFastForwardSentinel(t *testing.T) {
	cfg, err := Request{FastForward: -1}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FastForward != 0 {
		t.Fatalf("FastForward -1 should mean none, got %d", cfg.FastForward)
	}
	cfg, _ = Request{}.Config()
	if cfg.FastForward != 16384 {
		t.Fatalf("FastForward 0 should mean default 16384, got %d", cfg.FastForward)
	}
}

func TestConfigModes(t *testing.T) {
	cfg, err := Request{Mode: "adts", Heuristic: "Type 1", M: 3}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != core.ModeADTS || cfg.Detector.Heuristic != detector.Type1 || cfg.Detector.IPCThreshold != 3 {
		t.Fatalf("adts request misassembled: %+v", cfg)
	}
	cfg, err = Request{Mode: "oracle"}.Config()
	if err != nil || cfg.Mode != core.ModeOracle {
		t.Fatalf("oracle request misassembled: %+v (%v)", cfg, err)
	}
	cfg, err = Request{Mode: "adts", Kernel: dtvm.Type1Source(2)}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kernel == nil {
		t.Fatal("kernel source did not assemble into cfg.Kernel")
	}
}

func TestConfigErrors(t *testing.T) {
	for _, r := range []Request{
		{Mode: "warp"},
		{Policy: "NOPE"},
		{Mode: "adts", Heuristic: "Type 9"},
		{Mode: "adts", Kernel: "@@ not a kernel"},
		{Mix: "no-such-mix"},
		{Threads: 99},
	} {
		if _, err := r.Config(); err == nil {
			t.Errorf("Request %+v: want error, got nil", r)
		}
	}
}

func TestKeyIdentity(t *testing.T) {
	a, _ := Request{Seed: 7}.Config()
	b, _ := Request{Seed: 7}.Config()
	c, _ := Request{Seed: 8}.Config()
	if Key(a) == "" || Key(a) != Key(b) {
		t.Fatal("identical configs must share a non-empty key")
	}
	if Key(a) == Key(c) {
		t.Fatal("different seeds must produce different keys")
	}
}

func TestRunAndReportDeterministic(t *testing.T) {
	cfg, err := Request{Mix: "int-compute", Threads: 2, Quanta: 2, FastForward: -1}.Config()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep1 := Report(cfg, r1, ReportOptions{Verbose: true, Timeline: true})
	rep2 := Report(cfg, r2, ReportOptions{Verbose: true, Timeline: true})
	if rep1 != rep2 {
		t.Fatalf("identical configs produced diverging reports:\n%s\n---\n%s", rep1, rep2)
	}
	for _, want := range []string{"mix int-compute", "aggregate IPC", "thread 0 (", "quantum timeline"} {
		if !strings.Contains(rep1, want) {
			t.Errorf("report missing %q:\n%s", want, rep1)
		}
	}
	csv := CSV(r1)
	if !strings.HasPrefix(csv, "quantum,policy,ipc\n") || strings.Count(csv, "\n") != 1+len(r1.PolicyTimeline) {
		t.Fatalf("CSV malformed:\n%s", csv)
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	cfg, err := Request{Mix: "int-compute", Threads: 1, Quanta: 1, FastForward: -1}.Config()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg); err != context.Canceled {
		t.Fatalf("Run on cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestMultiCoreRequest: cores/allocation thread through Request into
// core.Config, the run routes through internal/multicore, and the
// report gains the per-core section — while a single-core request's
// config and report stay exactly what they always were.
func TestMultiCoreRequest(t *testing.T) {
	cfg, err := Request{Mix: "kitchen-sink", Threads: 4, Cores: 2, Quanta: 2, FastForward: -1}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cores != 2 || cfg.Allocation != "random" {
		t.Fatalf("multi-core fields not threaded: Cores=%d Allocation=%q", cfg.Cores, cfg.Allocation)
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores != 2 || len(res.PerCoreIPC) != 2 || len(res.Assignment) != 2 {
		t.Fatalf("multi-core run not routed through multicore: %+v", res)
	}
	rep := Report(cfg, res, ReportOptions{})
	for _, want := range []string{"cores 2, allocation random", "core 0 [threads ", "core 1 [threads "} {
		if !strings.Contains(rep, want) {
			t.Errorf("multi-core report missing %q:\n%s", want, rep)
		}
	}

	// Single-core: config carries no multi-core fields (so hashes and
	// digests are unchanged) and the report has no cores section.
	single, err := Request{Mix: "kitchen-sink", Threads: 4, Cores: 1, Quanta: 2, FastForward: -1}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if single.Cores != 0 || single.Allocation != "" {
		t.Fatalf("single-core request leaked multi-core fields: %+v", single)
	}
	sres, err := Run(context.Background(), single)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(Report(single, sres, ReportOptions{}), "cores ") {
		t.Fatal("single-core report grew a cores section")
	}
}

func TestMultiCoreRequestErrors(t *testing.T) {
	for _, r := range []Request{
		{Cores: 99},
		{Cores: -1},
		{Allocation: "random"},         // allocation without cores
		{Cores: 2, Allocation: "nope"}, // unknown policy
		{Cores: 3, Threads: 8},         // threads don't divide
		{Cores: 2, Threads: 1},         // 1 thread across 2 cores
	} {
		if _, err := r.Config(); err == nil {
			t.Errorf("Request %+v: want error, got nil", r)
		}
	}
}

// spinOnceCommitting is a detector kernel that halts on the dry run
// (which sees zero IPC) but loops past dtvm.MaxSteps as soon as a
// quantum commits anything, so the simulator panics mid-run.
const spinOnceCommitting = `
	loadc r1, ipc
	loadi r2, 0
	blt   r2, r1, spin
	keep
	halt
spin:
	jmp spin
`

// TestRunReturnsSimulationPanics: Run simulates on goroutines of its
// own (one per single-core run; one per core under multicore), where no
// caller can recover. A panic there must come back
// as a *core.PanicError, not kill the process.
func TestRunReturnsSimulationPanics(t *testing.T) {
	kernel, err := dtvm.Assemble(spinOnceCommitting)
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{0, 2} {
		cfg := core.DefaultConfig("int-compute")
		cfg.Threads, cfg.Cores, cfg.Quanta, cfg.FastForward = 4, cores, 2, 1024
		cfg.Mode = core.ModeADTS
		cfg.Kernel = kernel
		_, err := Run(context.Background(), cfg)
		var pe *core.PanicError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), "detector kernel failed") {
			t.Fatalf("cores=%d: Run err = %v, want a *core.PanicError from the kernel", cores, err)
		}
	}
}
