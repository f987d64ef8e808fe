package pipeline

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/counters"
	"repro/internal/policy"
	"repro/internal/trace"
)

func testMachine(t testing.TB, mixName string, threads int, tweak func(*Config)) *Machine {
	t.Helper()
	mix, ok := trace.MixByName(mixName)
	if !ok {
		t.Fatalf("unknown mix %s", mixName)
	}
	progs, err := mix.Programs(threads, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if tweak != nil {
		tweak(&cfg)
	}
	return New(cfg, progs, 1)
}

func TestInvariantsThroughoutRun(t *testing.T) {
	m := testMachine(t, "kitchen-sink", 8, nil)
	for step := 0; step < 40; step++ {
		m.Run(500)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after %d cycles: %v", m.Now(), err)
		}
	}
	if m.TotalCommitted() == 0 {
		t.Fatal("no instructions committed in 20k cycles")
	}
}

func TestInvariantsAllMixes(t *testing.T) {
	for _, mix := range trace.Mixes() {
		m := testMachine(t, mix.Name, 8, nil)
		m.Run(6000)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("mix %s: %v", mix.Name, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := testMachine(t, "int-memory", 8, nil)
	b := testMachine(t, "int-memory", 8, nil)
	a.Run(20000)
	b.Run(20000)
	if a.TotalCommitted() != b.TotalCommitted() {
		t.Fatalf("same seed, different commits: %d vs %d", a.TotalCommitted(), b.TotalCommitted())
	}
	for i := 0; i < a.NumThreads(); i++ {
		if a.State(i).Cum != b.State(i).Cum {
			t.Fatalf("thread %d counters diverged", i)
		}
	}
}

// predictorKinds lists every branch.Kind a Config can name, so the
// clone and pooled-reuse paths are exercised for each arm of
// CopyPredictor.
var predictorKinds = []branch.Kind{branch.KindHybrid, branch.KindBimodal, branch.KindGShare, branch.KindLocal, branch.KindTaken}

// TestCloneEquivalence is the property the oracle depends on: a clone
// must replay a bit-identical future, whatever the predictor kind.
func TestCloneEquivalence(t *testing.T) {
	for _, kind := range predictorKinds {
		t.Run(string(kind), func(t *testing.T) {
			m := testMachine(t, "kitchen-sink", 8, func(c *Config) { c.PredictorKind = kind })
			m.Run(15000) // into steady state, with in-flight work everywhere
			c := m.Clone()
			m.Run(15000)
			c.Run(15000)
			if m.TotalCommitted() != c.TotalCommitted() {
				t.Fatalf("clone diverged: %d vs %d committed", m.TotalCommitted(), c.TotalCommitted())
			}
			for i := 0; i < m.NumThreads(); i++ {
				if m.State(i).Cum != c.State(i).Cum {
					t.Fatalf("thread %d: clone counters diverged:\n%+v\n%+v",
						i, m.State(i).Cum, c.State(i).Cum)
				}
				if m.State(i).Live != c.State(i).Live {
					t.Fatalf("thread %d: clone gauges diverged", i)
				}
			}
		})
	}
}

func TestCloneIsolation(t *testing.T) {
	m := testMachine(t, "int-compute", 4, nil)
	m.Run(5000)
	before := m.TotalCommitted()
	snapshot := m.State(0).Cum
	c := m.Clone()
	c.SetPolicy(policy.RR)
	c.Run(10000)
	if m.TotalCommitted() != before || m.State(0).Cum != snapshot {
		t.Fatal("running the clone mutated the original")
	}
}

func TestIPCBounds(t *testing.T) {
	m := testMachine(t, "fp-compute", 8, nil)
	m.Run(30000)
	ipc := m.AggregateIPC()
	if ipc <= 0.1 || ipc > float64(m.Config().CommitWidth) {
		t.Fatalf("implausible aggregate IPC %.3f", ipc)
	}
}

func TestCommittedNeverExceedsFetched(t *testing.T) {
	m := testMachine(t, "branchy-mixed", 8, nil)
	m.Run(20000)
	for i := 0; i < m.NumThreads(); i++ {
		c := m.State(i).Cum
		if c.Committed > c.Fetched {
			t.Fatalf("thread %d committed %d > fetched %d", i, c.Committed, c.Fetched)
		}
		if c.WrongFetched > c.Fetched {
			t.Fatalf("thread %d wrong-fetched exceeds fetched", i)
		}
	}
}

func TestPoliciesChangeBehaviour(t *testing.T) {
	a := testMachine(t, "kitchen-sink", 8, nil) // ICOUNT
	b := testMachine(t, "kitchen-sink", 8, func(c *Config) { c.InitialPolicy = policy.RR })
	a.Run(30000)
	b.Run(30000)
	if a.TotalCommitted() == b.TotalCommitted() {
		t.Fatal("ICOUNT and RR produced identical commit counts; policies are inert")
	}
}

func TestMispredictsProduceWrongPath(t *testing.T) {
	m := testMachine(t, "int-branchy", 8, nil)
	m.Run(30000)
	var wrong, misp uint64
	for i := 0; i < m.NumThreads(); i++ {
		wrong += m.State(i).Cum.WrongFetched
		misp += m.State(i).Cum.Mispredicts
	}
	if misp == 0 {
		t.Fatal("branchy mix produced no mispredicts")
	}
	if wrong == 0 {
		t.Fatal("mispredicts produced no wrong-path fetch")
	}
}

func TestWrongPathAblation(t *testing.T) {
	m := testMachine(t, "int-branchy", 8, func(c *Config) { c.WrongPath = false })
	m.Run(30000)
	for i := 0; i < m.NumThreads(); i++ {
		if w := m.State(i).Cum.WrongFetched; w != 0 {
			t.Fatalf("wrong-path disabled but thread %d fetched %d wrong-path instructions", i, w)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.TotalCommitted() == 0 {
		t.Fatal("ablated machine made no progress")
	}
}

// sysHeavy is a high-syscall synthetic profile that exercises the
// drain path.
var sysHeavy = &trace.Profile{
	Name: "sysheavy", Class: "int",
	Phases: []trace.Phase{{
		Name: "main", MeanLen: 10000,
		BranchFrac: 0.1, LoadFrac: 0.2, StoreFrac: 0.1, SyscallRate: 0.002,
		DataFootprint: 64 << 10, SeqFrac: 0.5, StackFrac: 0.2, CodeWords: 2000,
		BiasedW: 0.6, LoopW: 0.3, RandomW: 0.1, MeanDepDist: 5, DepProb: 0.7,
	}},
}

func TestSyscallDrain(t *testing.T) {
	progs := []*trace.Program{
		trace.NewProgram(sysHeavy, 0, 1),
		trace.NewProgram(sysHeavy, 1, 1),
	}
	m := New(DefaultConfig(), progs, 1)
	m.Run(60000)
	var sys uint64
	for i := 0; i < 2; i++ {
		sys += m.State(i).Cum.Syscalls
	}
	if sys == 0 {
		t.Fatal("no syscalls committed despite 0.2% syscall rate")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.TotalCommitted() == 0 {
		t.Fatal("no forward progress with syscalls")
	}
}

func TestFetchDisableFlagStopsThread(t *testing.T) {
	m := testMachine(t, "int-compute", 4, nil)
	m.Run(2000)
	m.SetFlags(2, counters.Flags{FetchDisabled: true})
	before := m.State(2).Cum.Fetched
	m.Run(5000)
	if got := m.State(2).Cum.Fetched; got != before {
		t.Fatalf("fetch-disabled thread fetched %d more instructions", got-before)
	}
	// Others keep running.
	if m.State(0).Cum.Fetched == 0 {
		t.Fatal("other threads stalled")
	}
	// Its pipeline must eventually drain and its gauges must go to zero.
	g := m.State(2).Live
	if g.PreIssue != 0 || g.IQ != 0 || g.ROB != 0 || g.LSQ != 0 || g.Branches != 0 || g.Loads != 0 || g.Mem != 0 {
		t.Fatalf("disabled thread's gauges did not drain: %+v", g)
	}
}

func TestDetectorJobUsesOnlySpareSlots(t *testing.T) {
	m := testMachine(t, "kitchen-sink", 8, nil)
	m.Run(2000)
	m.ScheduleDetectorJob(2000, policy.BRCOUNT, true)
	if !m.DetectorBusy() {
		t.Fatal("job scheduled but detector idle")
	}
	if m.Policy() != policy.ICOUNT {
		t.Fatal("policy switched before the DT job completed")
	}
	limit := 0
	for m.DetectorBusy() && limit < 100000 {
		m.Cycle()
		limit++
	}
	if m.DetectorBusy() {
		t.Fatal("detector job never completed")
	}
	if m.Policy() != policy.BRCOUNT {
		t.Fatal("policy did not switch at job completion")
	}
	st := m.DTStats()
	if st.JobsCompleted != 1 || st.FetchSlotsUsed < 2000 || st.IssueSlotsUsed < 2000 {
		t.Fatalf("DT stats %+v", st)
	}
}

func TestDetectorJobPreemption(t *testing.T) {
	m := testMachine(t, "kitchen-sink", 8, nil)
	m.ScheduleDetectorJob(1_000_000, policy.BRCOUNT, true)
	m.Run(100)
	m.ScheduleDetectorJob(100, policy.L1MISSCOUNT, true)
	if m.DTStats().JobsPreempted != 1 {
		t.Fatalf("preemptions = %d", m.DTStats().JobsPreempted)
	}
	for i := 0; i < 50000 && m.DetectorBusy(); i++ {
		m.Cycle()
	}
	if m.Policy() != policy.L1MISSCOUNT {
		t.Fatalf("policy = %v after preempting job", m.Policy())
	}
}

func TestSetPolicyImmediate(t *testing.T) {
	m := testMachine(t, "int-compute", 4, nil)
	m.SetPolicy(policy.L1DMISSCOUNT)
	if m.Policy() != policy.L1DMISSCOUNT {
		t.Fatal("SetPolicy not immediate")
	}
}

func TestSingleThread(t *testing.T) {
	m := testMachine(t, "int-compute", 1, nil)
	m.Run(20000)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ipc := m.AggregateIPC()
	if ipc < 0.2 || ipc > 8 {
		t.Fatalf("single-thread IPC %.3f implausible", ipc)
	}
}

func TestMoreThreadsMoreThroughput(t *testing.T) {
	// The SMT premise: 4 threads should clearly outperform 1 on the
	// same machine (saturation comes later).
	one := testMachine(t, "mixed-ilp", 1, nil)
	four := testMachine(t, "mixed-ilp", 4, nil)
	one.Run(40000)
	four.Run(40000)
	if four.AggregateIPC() < one.AggregateIPC()*1.3 {
		t.Fatalf("4 threads (%.2f) should beat 1 thread (%.2f) by >30%%",
			four.AggregateIPC(), one.AggregateIPC())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.FetchWidth = 0
	if bad.Validate() == nil {
		t.Fatal("zero fetch width accepted")
	}
	bad = DefaultConfig()
	bad.IntRegs = 0
	if bad.Validate() == nil {
		t.Fatal("zero rename pool accepted")
	}
	bad = DefaultConfig()
	bad.FUs[0] = 0
	if bad.Validate() == nil {
		t.Fatal("zero FU count accepted")
	}
}

func TestCachesSeeTraffic(t *testing.T) {
	m := testMachine(t, "memory-mixed", 8, nil)
	m.Run(20000)
	h := m.Hierarchy()
	if h.L1D.TotalStats().Misses == 0 || h.L1D.TotalStats().Hits == 0 {
		t.Fatal("L1D saw no mixed traffic")
	}
	if h.L2.TotalStats().Hits+h.L2.TotalStats().Misses == 0 {
		t.Fatal("L2 saw no traffic")
	}
	if h.Mem.Accesses == 0 {
		t.Fatal("DRAM never accessed by a memory-bound mix")
	}
}

func TestStallAccounting(t *testing.T) {
	m := testMachine(t, "int-memory", 8, nil)
	m.Run(20000)
	var stalls uint64
	for i := 0; i < m.NumThreads(); i++ {
		stalls += m.State(i).QuantumStalls
	}
	if stalls == 0 {
		t.Fatal("memory-bound mix recorded no commit stalls")
	}
}

func TestDetectorJobWithoutSwitch(t *testing.T) {
	// A monitoring-only DT job (clog scan) must complete without
	// touching the engaged policy.
	m := testMachine(t, "kitchen-sink", 8, nil)
	m.Run(1000)
	m.ScheduleDetectorJob(500, policy.BRCOUNT, false)
	for i := 0; i < 50000 && m.DetectorBusy(); i++ {
		m.Cycle()
	}
	if m.DetectorBusy() {
		t.Fatal("monitor job never completed")
	}
	if m.Policy() != policy.ICOUNT {
		t.Fatalf("monitor-only job switched the policy to %v", m.Policy())
	}
}

func TestAggregateIPCMatchesCounters(t *testing.T) {
	m := testMachine(t, "fp-compute", 8, nil)
	m.Run(10000)
	var sum uint64
	for i := 0; i < m.NumThreads(); i++ {
		sum += m.State(i).Cum.Committed
	}
	if m.TotalCommitted() != sum {
		t.Fatalf("TotalCommitted %d != per-thread sum %d", m.TotalCommitted(), sum)
	}
	want := float64(sum) / float64(m.Now())
	if m.AggregateIPC() != want {
		t.Fatalf("AggregateIPC %v != %v", m.AggregateIPC(), want)
	}
}
