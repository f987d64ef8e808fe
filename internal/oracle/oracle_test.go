package oracle

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/trace"
)

func machineOf(t testing.TB, mixName string) *pipeline.Machine {
	t.Helper()
	mix, ok := trace.MixByName(mixName)
	if !ok {
		t.Fatalf("unknown mix %s", mixName)
	}
	progs, err := mix.Programs(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.New(pipeline.DefaultConfig(), progs, 1)
}

func machine(t testing.TB) *pipeline.Machine { return machineOf(t, "mixed-lowipc") }

func TestBestPolicyIsCandidate(t *testing.T) {
	m := machine(t)
	m.Run(4000)
	s := NewScheduler(2048)
	defer s.Close()
	best, gain := s.lookahead(m)
	found := false
	for _, c := range s.Candidates {
		if c == best {
			found = true
		}
	}
	if !found {
		t.Fatalf("best policy %v not among candidates", best)
	}
	if gain == 0 {
		t.Fatal("oracle saw zero committed instructions in a quantum")
	}
}

// TestBestPolicyIsArgmax: the winner's measured gain must equal the
// maximum over candidates when each is re-simulated independently.
func TestBestPolicyIsArgmax(t *testing.T) {
	m := machine(t)
	m.Run(6000)
	s := NewScheduler(2048)
	defer s.Close()
	best, bestGain := s.lookahead(m)
	for _, c := range s.Candidates {
		clone := m.Clone()
		clone.SetPolicy(c)
		base := clone.TotalCommitted()
		clone.Run(2048)
		gain := clone.TotalCommitted() - base
		if gain > bestGain {
			t.Fatalf("candidate %v gained %d > winner %v's %d", c, gain, best, bestGain)
		}
		if c == best && gain != bestGain {
			t.Fatalf("winner's gain not reproducible: %d vs %d", gain, bestGain)
		}
	}
}

func TestBestPolicyDoesNotPerturb(t *testing.T) {
	m := machine(t)
	m.Run(4000)
	before := m.TotalCommitted()
	pol := m.Policy()
	s := NewScheduler(2048)
	defer s.Close()
	s.lookahead(m)
	if m.TotalCommitted() != before || m.Policy() != pol {
		t.Fatal("oracle evaluation perturbed the machine")
	}
}

func TestSchedulerStep(t *testing.T) {
	m := machine(t)
	s := NewScheduler(2048)
	defer s.Close()
	start := m.Now()
	for i := 0; i < 4; i++ {
		got := s.Step(m)
		if got != m.Policy() {
			t.Fatal("Step did not engage its choice")
		}
	}
	if m.Now()-start != 4*2048 {
		t.Fatalf("scheduler ran %d cycles, want %d", m.Now()-start, 4*2048)
	}
	if s.Quanta != 4 {
		t.Fatalf("quanta = %d", s.Quanta)
	}
}

// TestOracleFirstQuantumOptimal: the oracle's first quantum commits
// exactly what the best candidate, measured independently from the
// same state, commits.
func TestOracleFirstQuantumOptimal(t *testing.T) {
	quantum := int64(2048)
	base := machine(t)
	base.Run(4000)

	// Best candidate for one quantum, measured independently.
	var bestGain uint64
	for _, c := range DefaultCandidates() {
		cl := base.Clone()
		cl.SetPolicy(c)
		s := cl.TotalCommitted()
		cl.Run(quantum)
		if g := cl.TotalCommitted() - s; g > bestGain {
			bestGain = g
		}
	}

	// Oracle step from the same state.
	m := base.Clone()
	s := NewScheduler(quantum)
	defer s.Close()
	before := m.TotalCommitted()
	s.Step(m)
	if got := m.TotalCommitted() - before; got != bestGain {
		t.Fatalf("oracle first quantum committed %d, best candidate %d", got, bestGain)
	}
}

func TestBestPolicyPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty candidate set")
		}
	}()
	m := machine(t)
	s := &Scheduler{Quantum: 100}
	s.Step(m)
}

func TestDefaultCandidates(t *testing.T) {
	c := DefaultCandidates()
	if len(c) != 3 || c[0] != policy.ICOUNT {
		t.Fatalf("unexpected default candidates %v", c)
	}
}

// referenceStep is the direct oracle: look ahead on a fresh clone per
// candidate, take the earliest argmax, then engage the winner on the
// real machine and simulate its quantum again.
func referenceStep(m *pipeline.Machine, quantum int64, cands []policy.Policy) policy.Policy {
	var best policy.Policy
	var bestGain uint64
	for i, c := range cands {
		cl := m.Clone()
		cl.SetPolicy(c)
		base := cl.TotalCommitted()
		cl.Run(quantum)
		if g := cl.TotalCommitted() - base; i == 0 || g > bestGain {
			best, bestGain = c, g
		}
		pipeline.Release(cl)
	}
	m.SetPolicy(best)
	m.Run(quantum)
	return best
}

// requireSameMachines fails unless a and b agree on every observable:
// cycle, committed total, engaged policy and each thread's counters.
func requireSameMachines(t *testing.T, what string, a, b *pipeline.Machine) {
	t.Helper()
	if a.Now() != b.Now() || a.TotalCommitted() != b.TotalCommitted() || a.Policy() != b.Policy() {
		t.Fatalf("%s: now %d/%d committed %d/%d policy %v/%v", what,
			a.Now(), b.Now(), a.TotalCommitted(), b.TotalCommitted(), a.Policy(), b.Policy())
	}
	for i := 0; i < a.NumThreads(); i++ {
		if *a.State(i) != *b.State(i) {
			t.Fatalf("%s: thread %d state diverged:\nstep      %+v\nreference %+v", what, i, *a.State(i), *b.State(i))
		}
	}
}

// TestStepMatchesReference is the differential check on adopting the
// winner's lookahead: Step must leave the machine exactly where the
// re-simulating reference leaves it, quantum after quantum, and the
// two must stay identical when run on afterwards, which catches
// divergence in state the counters do not show.
func TestStepMatchesReference(t *testing.T) {
	const quantum, quanta = 4096, 8
	switches := uint64(0)
	for _, mix := range []string{"kitchen-sink", "mixed-lowipc"} {
		m, ref := machineOf(t, mix), machineOf(t, mix)
		m.Run(4000)
		ref.Run(4000)
		s := NewScheduler(quantum)
		var refSwitches uint64
		for q := 0; q < quanta; q++ {
			prev := ref.Policy()
			want := referenceStep(ref, quantum, s.Candidates)
			if want != prev {
				refSwitches++
			}
			if got := s.Step(m); got != want {
				t.Fatalf("%s quantum %d: Step chose %v, reference %v", mix, q, got, want)
			}
			if s.Switches != refSwitches {
				t.Fatalf("%s quantum %d: %d switches, reference %d", mix, q, s.Switches, refSwitches)
			}
			requireSameMachines(t, mix, m, ref)
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("%s quantum %d: %v", mix, q, err)
			}
		}
		s.Close()
		switches += refSwitches

		m.SetPolicy(policy.BRCOUNT)
		ref.SetPolicy(policy.BRCOUNT)
		for q := 0; q < 2; q++ {
			m.Run(quantum)
			ref.Run(quantum)
			requireSameMachines(t, mix+" after oracle", m, ref)
		}
	}
	if switches == 0 {
		t.Fatal("no policy switch in the differential run; it never exercised a non-first winner")
	}
}

// TestStepAllocationFree: once the scratch machines exist, an oracle
// quantum allocates nothing.
func TestStepAllocationFree(t *testing.T) {
	m := machine(t)
	s := NewScheduler(1024)
	defer s.Close()
	s.Step(m)
	if n := testing.AllocsPerRun(4, func() { s.Step(m) }); n != 0 {
		t.Fatalf("Step allocated %.1f times per quantum, want 0", n)
	}
}

// TestCloseReleasesScratches: Close hands both scratch machines back to
// the shell pool, where the next clones of that geometry find them.
func TestCloseReleasesScratches(t *testing.T) {
	pipeline.DrainPools()
	defer pipeline.DrainPools()
	m := machine(t)
	s := NewScheduler(1024)
	s.Step(m)
	scratches := map[*pipeline.Machine]bool{s.scratch: true, s.best: true}
	s.Close()
	if s.scratch != nil || s.best != nil {
		t.Fatal("Close kept a scratch machine")
	}
	for i := 0; i < 2; i++ {
		if c := m.Clone(); !scratches[c] {
			t.Fatalf("clone %d did not reuse a released scratch machine", i)
		}
	}
}
