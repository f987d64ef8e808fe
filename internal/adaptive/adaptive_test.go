package adaptive

import (
	"reflect"
	"testing"

	"repro/internal/detector"
	"repro/internal/policy"
)

func dcfg() detector.Config {
	c := detector.DefaultConfig(8)
	c.IPCThreshold = 2
	return c
}

// q builds a QuantumStats with the given IPC and condition drivers.
func q(ipc float64, condMem, condBr bool) detector.QuantumStats {
	s := detector.QuantumStats{Cycles: 8192, IPC: ipc, Committed: uint64(ipc * 8192)}
	if condMem {
		s.L1MissRate = 0.5
	}
	if condBr {
		s.MispredRate = 0.05
	}
	return s
}

func TestSelectorsRegistered(t *testing.T) {
	for _, h := range detector.SelectorHeuristics() {
		if !detector.SelectorRegistered(h) {
			t.Errorf("selector %v not registered", h)
		}
		cfg := dcfg()
		cfg.Heuristic = h
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v", h, err)
		}
		// New must construct the full detector without panicking.
		d := detector.New(cfg)
		if d.Selector() == nil {
			t.Errorf("detector for %v has no selector", h)
		}
	}
}

func TestQuantizeCoversAllBits(t *testing.T) {
	cfg := dcfg()
	seen := map[uint8]bool{}
	for _, ipc := range []float64{0.5, 1.5, 2.5, 4.0} {
		for _, mem := range []bool{false, true} {
			for _, br := range []bool{false, true} {
				k := QuantizeQuantum(cfg, q(ipc, mem, br))
				if k >= NumContexts {
					t.Fatalf("context %d out of range", k)
				}
				seen[k] = true
			}
		}
	}
	if len(seen) != NumContexts {
		t.Fatalf("quantizer reached %d/%d contexts", len(seen), NumContexts)
	}
}

// Satellite: the context key is a pure function of the counter
// signature — identical inputs always produce identical keys.
func TestQuantizeDeterministic(t *testing.T) {
	cfg := dcfg()
	for i := 0; i < 3; i++ {
		if k := Quantize(cfg, 1.2, 0.3, 0.01, 0.04, 0.2); k != Quantize(cfg, 1.2, 0.3, 0.01, 0.04, 0.2) {
			t.Fatal("Quantize not deterministic")
		}
	}
	// The threshold m shifts only the IPC bucket bits.
	lo := dcfg()
	lo.IPCThreshold = 1
	if Quantize(cfg, 1.2, 0, 0, 0, 0)&3 != Quantize(lo, 1.2, 0, 0, 0, 0)&3 {
		t.Fatal("condition bits depend on IPC threshold")
	}
}

// Identical bandit instances fed identical quantum streams must make
// identical decisions — the determinism contract.
func TestBanditDeterministic(t *testing.T) {
	run := func() []policy.Policy {
		b := NewEpsilonGreedy(dcfg())
		var picks []policy.Policy
		inc := policy.ICOUNT
		for i := 0; i < 200; i++ {
			ipc := float64(i%5) * 0.4
			p := b.Select(inc, q(ipc, i%2 == 0, i%3 == 0))
			b.Reward(ipc, float64((i+1)%5)*0.4)
			picks = append(picks, p)
			inc = p
		}
		return picks
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("epsilon-greedy bandit diverged across identical runs")
	}
}

func TestBanditSeedChangesExploration(t *testing.T) {
	cfg1 := dcfg()
	cfg2 := dcfg()
	cfg2.SelectorSeed = 12345
	b1, b2 := NewEpsilonGreedy(cfg1), NewEpsilonGreedy(cfg2)
	same := true
	for i := 0; i < 500; i++ {
		p1 := b1.Select(policy.ICOUNT, q(0.5, false, false))
		p2 := b2.Select(policy.ICOUNT, q(0.5, false, false))
		b1.Reward(0.5, 0.5)
		b2.Reward(0.5, 0.5)
		if p1 != p2 {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds never diverged in 500 selections")
	}
}

// The bandit must learn: if one arm is always rewarded and the others
// never are, it converges to that arm.
func TestBanditLearnsBestArm(t *testing.T) {
	b := NewEpsilonGreedy(dcfg())
	best := Arms[2]
	for i := 0; i < 300; i++ {
		p := b.Select(policy.ICOUNT, q(0.5, true, false))
		if p == best {
			b.Reward(0.5, 1.5) // improved
		} else {
			b.Reward(0.5, 0.1) // regressed
		}
	}
	wins := 0
	for i := 0; i < 100; i++ {
		if b.Select(policy.ICOUNT, q(0.5, true, false)) == best {
			wins++
		}
		b.Reward(0.5, 0.5)
	}
	// Epsilon-greedy at eps=0.1 should exploit the winner ~93% of the
	// time; 70 leaves slack for exploration.
	if wins < 70 {
		t.Fatalf("bandit picked the rewarded arm %d/100 times", wins)
	}
}

func TestUCBDeterministicAndLearns(t *testing.T) {
	run := func() []policy.Policy {
		u := NewUCB(dcfg())
		best := Arms[1]
		var picks []policy.Policy
		for i := 0; i < 100; i++ {
			p := u.Select(policy.ICOUNT, q(0.5, false, true))
			if p == best {
				u.Reward(0.5, 1.5)
			} else {
				u.Reward(0.5, 0.1)
			}
			picks = append(picks, p)
		}
		return picks
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("UCB diverged across identical runs")
	}
	// First three selections visit each arm once, in canonical order.
	for i := 0; i < numArms; i++ {
		if a[i] != Arms[i] {
			t.Fatalf("selection %d = %v, want canonical-order %v", i, a[i], Arms[i])
		}
	}
	wins := 0
	for _, p := range a[50:] {
		if p == Arms[1] {
			wins++
		}
	}
	if wins < 40 {
		t.Fatalf("UCB picked the rewarded arm %d/50 times in steady state", wins)
	}
}

func TestFitPicksBestArmPerContext(t *testing.T) {
	samples := []Sample{
		{Context: 1, Policy: "ICOUNT", IPC: 1.0},
		{Context: 1, Policy: "ICOUNT", IPC: 1.2},
		{Context: 1, Policy: "BRCOUNT", IPC: 2.0},
		{Context: 1, Policy: "BRCOUNT", IPC: 2.2},
		{Context: 1, Policy: "L1MISSCOUNT", IPC: 0.4},
		{Context: 1, Policy: "L1MISSCOUNT", IPC: 0.5},
		// Context 2: only one sample — below minSupport, stays untrained.
		{Context: 2, Policy: "ICOUNT", IPC: 9.9},
		// Context 3: RR carries no signal for the arm set.
		{Context: 3, Policy: "RR", IPC: 9.9},
		{Context: 3, Policy: "RR", IPC: 9.9},
	}
	tb, err := Fit(samples, "test")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Policy[1] != "BRCOUNT" {
		t.Fatalf("context 1 trained to %q, want BRCOUNT", tb.Policy[1])
	}
	if tb.Policy[2] != "" || tb.Policy[3] != "" {
		t.Fatalf("under-supported contexts trained: %q, %q", tb.Policy[2], tb.Policy[3])
	}
	if tb.Samples[1] != 6 || tb.MeanIPC[1] != 2.1 {
		t.Fatalf("context 1 bookkeeping: %d samples, mean %v", tb.Samples[1], tb.MeanIPC[1])
	}
}

// Fit is order-independent: shuffled samples produce the same table.
func TestFitOrderIndependent(t *testing.T) {
	var samples []Sample
	for i := 0; i < 60; i++ {
		samples = append(samples, Sample{
			Context: uint8(i % NumContexts),
			Policy:  Arms[i%numArms].String(),
			IPC:     float64(i%7) * 0.3,
		})
	}
	t1, err := Fit(samples, "fwd")
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]Sample, len(samples))
	for i, s := range samples {
		rev[len(samples)-1-i] = s
	}
	t2, err := Fit(rev, "fwd")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("Fit depends on sample order")
	}
}

func TestTableEncodeDecodeRoundTrip(t *testing.T) {
	tb, err := Fit([]Sample{
		{Context: 5, Policy: "ICOUNT", IPC: 1.5},
		{Context: 5, Policy: "ICOUNT", IPC: 1.7},
	}, "round-trip")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeTable(tb)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTable(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tb, back) {
		t.Fatal("table round-trip mismatch")
	}
	if _, err := DecodeTable([]byte(`{"version": 99}`)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestEmbeddedTableLoadsAndIsTrained(t *testing.T) {
	tb, err := DefaultTable()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Trained() == 0 {
		t.Fatal("committed learned_table.json has no trained contexts")
	}
	if _, err := NewLearned(dcfg(), tb); err != nil {
		t.Fatal(err)
	}
}

func TestLearnedFallsBackToType3(t *testing.T) {
	tb, err := Fit(nil, "empty")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLearned(dcfg(), tb)
	if err != nil {
		t.Fatal(err)
	}
	// With an untrained table every selection must match the paper's
	// Type 3 regular transition.
	for _, inc := range []policy.Policy{policy.ICOUNT, policy.BRCOUNT, policy.L1MISSCOUNT} {
		for _, mem := range []bool{false, true} {
			for _, br := range []bool{false, true} {
				qs := q(0.5, mem, br)
				want, _ := detector.Type3Transition(dcfg(), inc, qs)
				if got := l.Select(inc, qs); got != want {
					t.Fatalf("fallback(%v, mem=%t, br=%t) = %v, want %v", inc, mem, br, got, want)
				}
			}
		}
	}
}

func TestLearnedUsesTrainedEntry(t *testing.T) {
	samples := []Sample{}
	qs := q(0.5, true, false)
	ctx := QuantizeQuantum(dcfg(), qs)
	for i := 0; i < 3; i++ {
		samples = append(samples, Sample{Context: ctx, Policy: "BRCOUNT", IPC: 2.0})
	}
	tb, err := Fit(samples, "one-entry")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLearned(dcfg(), tb)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Select(policy.ICOUNT, qs); got != policy.BRCOUNT {
		t.Fatalf("trained context routed to %v, want BRCOUNT", got)
	}
}
