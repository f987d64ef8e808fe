package detector

import (
	"testing"
	"testing/quick"

	"repro/internal/policy"
)

func cfg(h Heuristic) Config {
	c := DefaultConfig(8)
	c.Heuristic = h
	return c
}

// q builds a QuantumStats with the given IPC and condition drivers.
func q(ipc float64, condMem, condBr bool) QuantumStats {
	s := QuantumStats{
		Cycles:    8192,
		IPC:       ipc,
		Committed: uint64(ipc * 8192),
		PerThread: make([]ThreadQuantum, 8),
	}
	if condMem {
		s.L1MissRate = 0.5 // > 0.19
	}
	if condBr {
		s.MispredRate = 0.05 // > 0.02
	}
	return s
}

func TestHighThroughputNoAction(t *testing.T) {
	d := New(cfg(Type3))
	dec := d.OnQuantumEnd(q(5.0, true, true))
	if dec.LowThroughput || dec.Switch {
		t.Fatalf("high-IPC quantum triggered action: %+v", dec)
	}
	if d.Incumbent() != policy.ICOUNT {
		t.Fatal("incumbent changed without a switch")
	}
}

func TestType1Toggles(t *testing.T) {
	d := New(cfg(Type1))
	seq := []policy.Policy{policy.BRCOUNT, policy.ICOUNT, policy.BRCOUNT, policy.ICOUNT}
	for i, want := range seq {
		dec := d.OnQuantumEnd(q(0.5, false, false))
		if !dec.Switch || dec.NewPolicy != want {
			t.Fatalf("step %d: got switch=%t to %v, want %v", i, dec.Switch, dec.NewPolicy, want)
		}
	}
}

func TestType2Cycles(t *testing.T) {
	d := New(cfg(Type2))
	seq := []policy.Policy{policy.L1MISSCOUNT, policy.BRCOUNT, policy.ICOUNT, policy.L1MISSCOUNT}
	for i, want := range seq {
		dec := d.OnQuantumEnd(q(0.5, false, false))
		if !dec.Switch || dec.NewPolicy != want {
			t.Fatalf("step %d: got %v, want %v", i, dec.NewPolicy, want)
		}
	}
}

func TestType3Routing(t *testing.T) {
	cases := []struct {
		from            policy.Policy
		condMem, condBr bool
		want            policy.Policy
	}{
		// From ICOUNT: memory symptom first, then branch symptom.
		{policy.ICOUNT, true, false, policy.L1MISSCOUNT},
		{policy.ICOUNT, true, true, policy.L1MISSCOUNT},
		{policy.ICOUNT, false, true, policy.BRCOUNT},
		{policy.ICOUNT, false, false, policy.ICOUNT}, // no symptom: stay
		// From BRCOUNT: COND_MEM routes.
		{policy.BRCOUNT, true, false, policy.L1MISSCOUNT},
		{policy.BRCOUNT, false, false, policy.ICOUNT},
		{policy.BRCOUNT, false, true, policy.ICOUNT},
		// From L1MISSCOUNT: COND_BR routes.
		{policy.L1MISSCOUNT, false, true, policy.BRCOUNT},
		{policy.L1MISSCOUNT, false, false, policy.ICOUNT},
		{policy.L1MISSCOUNT, true, false, policy.ICOUNT},
	}
	for _, c := range cases {
		conf := cfg(Type3)
		conf.InitialPolicy = c.from
		d := New(conf)
		dec := d.OnQuantumEnd(q(0.5, c.condMem, c.condBr))
		got := d.Incumbent()
		if dec.Switch {
			got = dec.NewPolicy
		}
		if got != c.want {
			t.Errorf("Type3 from %v (mem=%t br=%t): got %v, want %v",
				c.from, c.condMem, c.condBr, got, c.want)
		}
		if c.want == c.from && dec.Switch {
			t.Errorf("Type3 from %v: switched to the incumbent", c.from)
		}
	}
}

func TestType3GradientGuard(t *testing.T) {
	d := New(cfg(Type3G))
	// First low quantum: no previous IPC, switch happens.
	dec := d.OnQuantumEnd(q(0.5, true, false))
	if !dec.Switch {
		t.Fatal("first low quantum should switch")
	}
	// Next quantum: still low but IPC rose 0.5 -> 0.8: gradient holds.
	dec = d.OnQuantumEnd(q(0.8, true, false))
	if dec.Switch {
		t.Fatal("positive gradient should suppress the switch")
	}
	if d.Stats().GradientHolds != 1 {
		t.Fatalf("GradientHolds = %d", d.Stats().GradientHolds)
	}
	// IPC falls again: switch allowed.
	dec = d.OnQuantumEnd(q(0.4, true, false))
	if !dec.Switch {
		t.Fatal("negative gradient should allow the switch")
	}
	// Plain Type 3 ignores the gradient.
	d3 := New(cfg(Type3))
	d3.OnQuantumEnd(q(0.5, true, false))
	if dec := d3.OnQuantumEnd(q(0.8, false, true)); !dec.Switch {
		t.Fatal("Type 3 should ignore the gradient")
	}
}

func TestBenignScoring(t *testing.T) {
	d := New(cfg(Type3))
	d.OnQuantumEnd(q(0.5, true, false)) // switch at base IPC 0.5
	d.OnQuantumEnd(q(1.0, true, false)) // next quantum higher: benign (and switches again)
	d.OnQuantumEnd(q(0.3, true, false)) // lower: malignant
	st := d.Stats()
	if st.Benign != 1 || st.Malignant != 1 {
		t.Fatalf("benign/malignant = %d/%d, want 1/1", st.Benign, st.Malignant)
	}
	if p := st.BenignProbability(); p != 0.5 {
		t.Fatalf("benign probability %.2f", p)
	}
}

func TestType4ReversesOnBadHistory(t *testing.T) {
	d := New(cfg(Type4))
	// Establish a negative history for (ICOUNT, condMem): switch to
	// L1MISSCOUNT, then observe a throughput DROP.
	dec := d.OnQuantumEnd(q(0.5, true, false))
	if dec.NewPolicy != policy.L1MISSCOUNT {
		t.Fatalf("first transition %v", dec.NewPolicy)
	}
	// Drop => malignant, history (ICOUNT, mem) gets neg=1.
	// Incumbent is L1MISSCOUNT now; no conditions => back to ICOUNT.
	dec = d.OnQuantumEnd(q(0.3, false, false))
	if dec.NewPolicy != policy.ICOUNT {
		t.Fatalf("second transition %v", dec.NewPolicy)
	}
	// Third quantum: same (ICOUNT, condMem) situation, history is net
	// negative => reversal to the opposite destination (BRCOUNT).
	dec = d.OnQuantumEnd(q(0.2, true, false))
	if !dec.Switch || dec.NewPolicy != policy.BRCOUNT {
		t.Fatalf("expected history reversal to BRCOUNT, got %v (switch=%t)", dec.NewPolicy, dec.Switch)
	}
	if d.Stats().Reversals != 1 {
		t.Fatalf("Reversals = %d", d.Stats().Reversals)
	}
}

func TestType4FollowsGoodHistory(t *testing.T) {
	d := New(cfg(Type4))
	d.OnQuantumEnd(q(0.5, true, false))  // ICOUNT -> L1MISSCOUNT @ base 0.5
	d.OnQuantumEnd(q(1.0, false, false)) // rise: benign, (ICOUNT,mem).pos=1; gradient holds
	d.OnQuantumEnd(q(0.4, false, false)) // falls: L1MISSCOUNT -> ICOUNT (no symptoms)
	d.OnQuantumEnd(q(0.5, false, false)) // rise: gradient holds, stays ICOUNT
	// Same (ICOUNT, COND_MEM) situation as step 1; its history is net
	// positive, so the regular transition must be taken again.
	dec := d.OnQuantumEnd(q(0.2, true, false))
	if !dec.Switch || dec.NewPolicy != policy.L1MISSCOUNT {
		t.Fatalf("positive history should keep the regular transition, got %v (switch=%t)",
			dec.NewPolicy, dec.Switch)
	}
	if d.Stats().Reversals != 0 {
		t.Fatal("unexpected reversal")
	}
}

func TestCloggingIdentification(t *testing.T) {
	d := New(cfg(Type3))
	qs := q(0.5, false, false)
	// Fair share is 96/8 = 12; factor 2 => threshold 24.
	qs.PerThread[2].PreIssue = 30
	qs.PerThread[5].PreIssue = 10
	dec := d.OnQuantumEnd(qs)
	if !dec.LowThroughput {
		t.Fatal("low quantum not flagged")
	}
	if !dec.Clogging[2] {
		t.Fatal("hogging thread not flagged as clogging")
	}
	if dec.Clogging[5] {
		t.Fatal("modest thread flagged as clogging")
	}
}

func TestWorkBudgets(t *testing.T) {
	d := New(cfg(Type3))
	d.SetWorkModel(100, 200, 300)
	dec := d.OnQuantumEnd(q(5, false, false))
	if dec.Work != 100 {
		t.Fatalf("idle work %d, want 100", dec.Work)
	}
	dec = d.OnQuantumEnd(q(0.5, true, false))
	if dec.Work != 600 {
		t.Fatalf("decision work %d, want 100+200+300", dec.Work)
	}
}

// TestIncumbentStaysInFSM: whatever the observation sequence, Type 3's
// incumbent stays within the three-policy FSM of Figure 6.
func TestIncumbentStaysInFSM(t *testing.T) {
	d := New(cfg(Type3))
	f := func(ipcRaw uint8, mem, br bool) bool {
		ipc := float64(ipcRaw%60) / 10
		dec := d.OnQuantumEnd(q(ipc, mem, br))
		inc := d.Incumbent()
		if dec.Switch {
			inc = dec.NewPolicy
		}
		return inc == policy.ICOUNT || inc == policy.BRCOUNT || inc == policy.L1MISSCOUNT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestNeverSwitchToIncumbent: a Switch decision always names a policy
// different from the incumbent at decision time.
func TestNeverSwitchToIncumbent(t *testing.T) {
	for _, h := range AllHeuristics() {
		d := New(cfg(h))
		f := func(ipcRaw uint8, mem, br bool) bool {
			before := d.Incumbent()
			dec := d.OnQuantumEnd(q(float64(ipcRaw%40)/10, mem, br))
			return !dec.Switch || dec.NewPolicy != before
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%v: %v", h, err)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(8)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Quantum = 0
	if bad.Validate() == nil {
		t.Fatal("zero quantum accepted")
	}
	bad = good
	bad.Heuristic = Heuristic(99)
	if bad.Validate() == nil {
		t.Fatal("unknown heuristic accepted")
	}
	bad = good
	bad.CloggingFactor = 0
	if bad.Validate() == nil {
		t.Fatal("zero clogging factor accepted")
	}
}

func TestParseHeuristic(t *testing.T) {
	for _, h := range AllHeuristics() {
		got, err := ParseHeuristic(h.String())
		if err != nil || got != h {
			t.Fatalf("ParseHeuristic(%q) = %v, %v", h.String(), got, err)
		}
	}
	if _, err := ParseHeuristic("Type 9"); err == nil {
		t.Fatal("accepted unknown heuristic")
	}
}

func TestConditionThresholds(t *testing.T) {
	c := DefaultConfig(8)
	// Each sub-condition independently triggers its condition.
	if !c.CondMem(QuantumStats{L1MissRate: 0.20}) {
		t.Fatal("L1 rate sub-condition failed")
	}
	if !c.CondMem(QuantumStats{LSQFullRate: 0.46}) {
		t.Fatal("LSQ sub-condition failed")
	}
	if c.CondMem(QuantumStats{L1MissRate: 0.18, LSQFullRate: 0.44}) {
		t.Fatal("COND_MEM fired below both thresholds")
	}
	if !c.CondBr(QuantumStats{MispredRate: 0.03}) {
		t.Fatal("mispredict sub-condition failed")
	}
	if !c.CondBr(QuantumStats{CondBrRate: 0.39}) {
		t.Fatal("branch-rate sub-condition failed")
	}
	if c.CondBr(QuantumStats{MispredRate: 0.01, CondBrRate: 0.30}) {
		t.Fatal("COND_BR fired below both thresholds")
	}
}
