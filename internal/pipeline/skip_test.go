package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/counters"
	"repro/internal/isa"
	"repro/internal/policy"
	"repro/internal/trace"
)

// threadSnap is every field of a thread that evolves as it runs.
type threadSnap struct {
	st                                 counters.State
	robHead, robTail, ifqHead, ifqTail uint64
	fetchBlockedUntil, dispHoldUntil   int64
	blockedByIMiss, wrongPath          bool
	hasPending                         bool
	pending                            isa.Inst
	wrongPC, lastIBlock, accCommitted  uint64
	genCtr                             uint32
}

// machineSnap is the machine-level state Run must reproduce exactly:
// the clock, the rotation cursors, the shared-resource occupancies, the
// drain and detector-job state.
type machineSnap struct {
	now                                   int64
	commitCursor, renameCursor, rrCursor  int
	policy                                policy.Policy
	ifqTotal, lsqUsed, dMissTotal         int
	intRegsUsed, fpRegsUsed               int
	intIQCount, intIQTail                 int
	fpIQCount, fpIQTail                   int
	draining                              bool
	drainTid                              int
	dtToFetch, dtToIssue                  int
	dtSwitchArmed                         bool
	dtSwitchTo                            policy.Policy
	dtJobStart                            int64
	dtStats                               DTStats
	activeTids                            string
	lastDone, fuBusy                      string
	threads                               [8]threadSnap
	nthreads                              int
	committed                             uint64
	intIQReady, fpIQReady, nextEventAfter int64
}

func snapshot(m *Machine) machineSnap {
	s := machineSnap{
		now:          m.now,
		commitCursor: m.commitCursor, renameCursor: m.renameCursor, rrCursor: m.sel.Cursor(),
		policy:   m.sel.Policy(),
		ifqTotal: m.ifqTotal, lsqUsed: m.lsqUsed, dMissTotal: m.dMissTotal,
		intRegsUsed: m.intRegsUsed, fpRegsUsed: m.fpRegsUsed,
		intIQCount: m.intIQ.count, intIQTail: m.intIQ.tail,
		fpIQCount: m.fpIQ.count, fpIQTail: m.fpIQ.tail,
		draining: m.draining, drainTid: m.drainTid,
		dtToFetch: m.dtToFetch, dtToIssue: m.dtToIssue,
		dtSwitchArmed: m.dtSwitchArmed, dtSwitchTo: m.dtSwitchTo, dtJobStart: m.dtJobStart,
		dtStats:    m.dtStats,
		activeTids: fmt.Sprint(m.activeTids),
		lastDone:   fmt.Sprint(m.lastDone),
		fuBusy:     fmt.Sprint(m.fuBusy),
		nthreads:   len(m.threads),
		committed:  m.TotalCommitted(),
		intIQReady: m.intIQ.earliestReady(),
		fpIQReady:  m.fpIQ.earliestReady(),
	}
	for c := int64(0); c < eventRing; c++ {
		if len(m.events[uint64(m.now+c)&(eventRing-1)]) != 0 {
			s.nextEventAfter = c
			break
		}
	}
	for i, t := range m.threads {
		s.threads[i] = threadSnap{
			st:      t.st,
			robHead: t.robHead, robTail: t.robTail, ifqHead: t.ifqHead, ifqTail: t.ifqTail,
			fetchBlockedUntil: t.fetchBlockedUntil, dispHoldUntil: t.dispHoldUntil,
			blockedByIMiss: t.blockedByIMiss, wrongPath: t.wrongPath,
			hasPending: t.hasPending, pending: t.pending,
			wrongPC: t.wrongPC, lastIBlock: t.lastIBlock, accCommitted: t.accCommitted,
			genCtr: t.genCtr,
		}
	}
	return s
}

// diffMachines reports the first difference between a machine advanced
// with Run and one advanced with Cycle, after checking both machines'
// invariants.
func diffMachines(run, step *Machine) error {
	for name, m := range map[string]*Machine{"Run": run, "Cycle": step} {
		if err := m.CheckInvariants(); err != nil {
			return fmt.Errorf("%s machine: %v", name, err)
		}
	}
	a, b := snapshot(run), snapshot(step)
	if a == b {
		return nil
	}
	for i := range a.threads {
		if a.threads[i] != b.threads[i] {
			return fmt.Errorf("cycle %d thread %d:\nRun   %+v\nCycle %+v", b.now, i, a.threads[i], b.threads[i])
		}
	}
	a.threads, b.threads = [8]threadSnap{}, [8]threadSnap{}
	return fmt.Errorf("machine state:\nRun   %+v\nCycle %+v", a, b)
}

// runCase is one Run-versus-Cycle comparison: two identically built
// machines, one advanced chunk by chunk with Run, the other with the
// same number of Cycle calls, compared after every chunk. A chunk of
// -1 schedules a switching detector job on both machines, -2 disables
// fetch on context 0 and -3 blocks fetch on every context for
// stallPenalty cycles; all three exercise paths a plain run never
// reaches. A stall followed by a chunk one cycle short of the penalty
// makes Run start on an idle cycle right before fetch unblocks.
type runCase struct {
	mix       string
	threads   int
	pol       policy.Policy
	wrongPath bool
	mshrs     int
	seed      uint64
	chunks    []int64
}

const stallPenalty = 300

// programs builds the case's workload: a named mix, or every context
// running the syscall-heavy profile.
func (c runCase) programs() ([]*trace.Program, error) {
	if c.mix == sysHeavy.Name {
		progs := make([]*trace.Program, c.threads)
		for i := range progs {
			progs[i] = trace.NewProgram(sysHeavy, i, c.seed)
		}
		return progs, nil
	}
	mix, ok := trace.MixByName(c.mix)
	if !ok {
		return nil, fmt.Errorf("unknown mix %s", c.mix)
	}
	return mix.Programs(c.threads, c.seed)
}

func (c runCase) check() error {
	cfg := DefaultConfig()
	cfg.InitialPolicy = c.pol
	cfg.WrongPath = c.wrongPath
	cfg.MSHRs = c.mshrs
	var ms [2]*Machine
	for i := range ms {
		progs, err := c.programs()
		if err != nil {
			return err
		}
		ms[i] = New(cfg, progs, c.seed)
	}
	run, step := ms[0], ms[1]
	for _, n := range c.chunks {
		switch {
		case n == -1:
			for _, m := range ms {
				m.ScheduleDetectorJob(400, policy.ICOUNT, true)
			}
			continue
		case n == -2:
			for _, m := range ms {
				m.SetFlags(0, counters.Flags{FetchDisabled: true})
			}
			continue
		case n == -3:
			for _, m := range ms {
				m.StallAllFetch(stallPenalty)
			}
			continue
		}
		run.Run(n)
		for i := int64(0); i < n; i++ {
			step.Cycle()
		}
		if err := diffMachines(run, step); err != nil {
			return err
		}
	}
	return nil
}

// TestRunMatchesCycle pins the quiescent-cycle skip: for every bench mix,
// context count, fetch policy, wrong-path mode and MSHR setting, Run(n)
// must leave exactly the state n Cycle calls leave.
func TestRunMatchesCycle(t *testing.T) {
	chunks := []int64{1, 3, 250, 1, 2047, -1, 777, 1, 1500, -3, stallPenalty - 1, 5, -2, 4096}
	if testing.Short() {
		chunks = []int64{1, 250, 1500, -1, 777, -3, stallPenalty - 1, 5, -2, 1000}
	}
	for _, mix := range []string{"kitchen-sink", "mixed-lowipc", "fp-stream", "int-memory"} {
		for _, threads := range []int{1, 2, 4, 8} {
			for _, pol := range policy.All() {
				for _, wrongPath := range []bool{true, false} {
					for _, mshrs := range []int{0, 4} {
						c := runCase{mix, threads, pol, wrongPath, mshrs, 1, chunks}
						name := fmt.Sprintf("%s/%d/%v/wp=%v/mshr=%d", mix, threads, pol, wrongPath, mshrs)
						if err := c.check(); err != nil {
							t.Errorf("%s: %v", name, err)
						}
					}
				}
			}
		}
	}
}

// TestRunMatchesCycleThroughDrains covers the syscall drain, during
// which fetch stops machine-wide and the selector does not rotate: with
// context 0's fetch disabled the remaining contexts often stall on a
// drain that waits for memory.
func TestRunMatchesCycleThroughDrains(t *testing.T) {
	for _, threads := range []int{2, 4} {
		for _, pol := range []policy.Policy{policy.RR, policy.ICOUNT, policy.ACCIPC} {
			c := runCase{sysHeavy.Name, threads, pol, true, 4, 1, []int64{2000, -2, 1, 3000, -1, 3000}}
			if err := c.check(); err != nil {
				t.Errorf("%d/%v: %v", threads, pol, err)
			}
		}
	}
}

// FuzzRunMatchesCycle drives the same comparison from fuzzed seeds,
// mixes, context counts, policies, wrong-path modes, MSHR pools and
// chunk lengths.
func FuzzRunMatchesCycle(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(7), uint8(1), true, uint8(0), []byte{0, 2, 60, 255, 9})
	f.Add(uint64(7), uint8(1), uint8(3), uint8(8), false, uint8(4), []byte{1, 200, 200, 3})
	f.Add(uint64(3), uint8(3), uint8(0), uint8(9), true, uint8(2), []byte{120, 5, 250})
	mixes := trace.Mixes()
	f.Fuzz(func(t *testing.T, seed uint64, mix, threads, pol uint8, wrongPath bool, mshrs uint8, raw []byte) {
		c := runCase{
			mix:       mixes[int(mix)%len(mixes)].Name,
			threads:   1 + int(threads%8),
			pol:       policy.Policy(pol % uint8(policy.NumPolicies)),
			wrongPath: wrongPath,
			mshrs:     int(mshrs % 9),
			seed:      seed,
		}
		var total int64
		for i, b := range raw {
			if total > 20000 {
				break
			}
			n := 1 + int64(b)*4
			if i == len(raw)/2 {
				c.chunks = append(c.chunks, -1)
			}
			c.chunks = append(c.chunks, n)
			total += n
		}
		if err := c.check(); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	})
}
