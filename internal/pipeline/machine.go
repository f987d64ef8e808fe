package pipeline

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/counters"
	"repro/internal/isa"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/trace"
)

const (
	// doneRing is the per-thread completion-ring size. Dependency
	// distances larger than maxDepWindow are treated as already
	// satisfied (the producer left the pipeline long ago), so ring
	// slots are never consulted stale.
	doneRing     = 2048
	maxDepWindow = 512

	// eventRing buckets completion events by cycle; it must exceed the
	// largest possible completion latency (DRAM + L2 + L1 + FU).
	eventRing = 256

	// eventBucketCap is the arena-backed capacity of each event bucket.
	// Buckets that overflow it fall back to ordinary append growth (the
	// full slice expression below caps the arena slices, so growth can
	// never clobber a neighbouring bucket). The deepest bucket observed
	// across every built-in mix over 1M-cycle runs holds 16 events; 32
	// gives 2x headroom so steady-state execution never grows a bucket
	// (the allocation regression test enforces this).
	eventBucketCap = 32

	// pending marks a not-yet-completed instruction in the done ring.
	pending = math.MaxInt64
)

type entryState uint8

const (
	sWaiting  entryState = iota // in an instruction queue
	sIssued                     // executing
	sDone                       // complete, awaiting commit
	sSquashed                   // squashed; slot awaiting reuse
)

// robEntry is one in-flight instruction owned by a thread's ROB ring.
type robEntry struct {
	inst       isa.Inst
	gen        uint32
	state      entryState
	wrong      bool  // wrong-path instruction
	mispred    bool  // real branch known (to the trace) to be mispredicted
	readyAt    int64 // wrong-path synthetic readiness
	completeAt int64
	dMissOut   bool // load with an outstanding L1D miss
	usesFPQ    bool
	hasDst     bool
	isMem      bool
	lsqHeld    bool // occupies a load/store-queue entry
}

// fetchEntry is one instruction in the shared fetch buffer.
type fetchEntry struct {
	inst      isa.Inst
	fetchedAt int64
	wrong     bool
	mispred   bool
}

// iqWait is the hot half of an issue-queue slot: everything the
// per-cycle readiness scan reads. Sixteen bytes, so a cache line covers
// four waiting slots.
//
// readyAt accumulates the operand-ready cycle as producers resolve:
// dep1Idx/dep2Idx hold the done-ring indices of producers that were
// still executing at dispatch (-1 = resolved), and the issue scan folds
// each producer's completion cycle into readyAt the cycle it becomes
// finite, clearing the index. Once both indices are -1, readyAt is
// final and a waiting slot costs the scan one load and one compare —
// it never touches the ROB entry. Caching ring indices at dispatch is
// sound because a producer's done-ring slot cannot be overwritten while
// a consumer is still in flight (the per-thread ROB window is far
// smaller than the ring).
type iqWait struct {
	readyAt int64
	dep1Idx int16 // done-ring index of an unresolved producer, or -1
	dep2Idx int16
	tid     int8
}

// iqRef is the cold half of a slot: the ROB entry it stands for, read
// only when the slot actually issues (or on squash/invariant walks). gen
// detects slot reuse after a squash (defensive: squashes purge their
// queue entries eagerly, and CheckInvariants asserts queues only hold
// live waiting entries).
type iqRef struct {
	robIdx uint64
	gen    uint32
}

// issueQ is a fixed-capacity instruction queue: an age-ordered slot
// array with a multi-word occupancy bitmask. Slots are claimed at tail
// in dispatch order and cleared in place on issue, so iterating set bits
// low-to-high (bits.TrailingZeros64) visits entries oldest first —
// exactly the order the old compacting linear scan produced. The array
// is compacted (order-preserving) only when tail reaches physical
// capacity, which with capacity >= 2x the architectural queue size makes
// insertion amortized O(1) with zero steady-state allocation.
type issueQ struct {
	wait  []iqWait
	ref   []iqRef
	occ   []uint64 // one bit per slot; bit set = slot live
	tail  int      // next insertion index; live bits all lie below tail
	count int      // number of live slots (the architectural occupancy)

	// unres holds one bitmask per hardware context: bit set = live slot
	// of that context with an unresolved producer. Dependencies are
	// always same-thread, so a context's unresolved slots can only make
	// progress in a cycle where that context completed an instruction —
	// the resolution pass polls exactly those and skips every other
	// waiting slot without touching it.
	unres  [][]uint64
	words  int      // len(occ)
	unresW []uint64 // unres[0]..unres[n-1] backing (words*n)
}

func newIssueQ(size, nthreads int) issueQ {
	phys := 2 * size
	if phys < 64 {
		phys = 64
	}
	phys = (phys + 63) &^ 63 // whole occupancy words
	words := phys / 64
	q := issueQ{
		wait:   make([]iqWait, phys),
		ref:    make([]iqRef, phys),
		occ:    make([]uint64, words),
		unres:  make([][]uint64, nthreads),
		words:  words,
		unresW: make([]uint64, words*nthreads),
	}
	for t := 0; t < nthreads; t++ {
		q.unres[t] = q.unresW[t*words : (t+1)*words : (t+1)*words]
	}
	return q
}

// push claims the tail slot. unresolved marks slots whose producers are
// still executing; they join the owning context's resolution mask.
func (q *issueQ) push(w iqWait, r iqRef, unresolved bool) {
	if q.tail == len(q.wait) {
		q.compact()
	}
	i := q.tail
	q.wait[i] = w
	q.ref[i] = r
	bit := uint64(1) << (uint(i) & 63)
	q.occ[i>>6] |= bit
	if unresolved {
		q.unres[w.tid][i>>6] |= bit
	}
	q.tail++
	q.count++
}

// clear releases a slot on issue. Issue implies the slot's producers
// resolved, so its unres bit is already clear.
func (q *issueQ) clear(i int) {
	q.occ[i>>6] &^= 1 << (uint(i) & 63)
	q.count--
}

// compact slides live slots down to the front, preserving age order,
// and rebuilds the occupancy and per-context resolution masks.
func (q *issueQ) compact() {
	w := 0
	for wi, word := range q.occ {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			q.wait[w] = q.wait[wi<<6|b]
			q.ref[w] = q.ref[wi<<6|b]
			w++
		}
	}
	for i := range q.occ {
		q.occ[i] = 0
	}
	for i := range q.unresW {
		q.unresW[i] = 0
	}
	for i := 0; i < w>>6; i++ {
		q.occ[i] = ^uint64(0)
	}
	if r := uint(w) & 63; r != 0 {
		q.occ[w>>6] = 1<<r - 1
	}
	for i := 0; i < w; i++ {
		s := &q.wait[i]
		if s.dep1Idx >= 0 || s.dep2Idx >= 0 {
			q.unres[s.tid][i>>6] |= 1 << (uint(i) & 63)
		}
	}
	q.tail = w
}

// purgeThread drops this thread's entries: all of them, or only those
// younger than the after ROB index (wrong-path squash).
func (q *issueQ) purgeThread(tid int, after uint64, all bool) {
	unres := q.unres[tid]
	for wi := range q.occ {
		word := q.occ[wi]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			i := wi<<6 | b
			if int(q.wait[i].tid) == tid && (all || q.ref[i].robIdx > after) {
				q.occ[wi] &^= 1 << uint(b)
				unres[wi] &^= 1 << uint(b)
				q.count--
			}
		}
	}
}

// copyFrom overwrites q's contents with src's. Physical geometries match
// because both queues were built from the same Config.
func (q *issueQ) copyFrom(src *issueQ) {
	copy(q.wait[:src.tail], src.wait[:src.tail])
	copy(q.ref[:src.tail], src.ref[:src.tail])
	copy(q.occ, src.occ)
	copy(q.unresW, src.unresW)
	q.tail = src.tail
	q.count = src.count
}

type event struct {
	tid    int8
	robIdx uint64
	gen    uint32
}

// thread is one normal hardware context.
type thread struct {
	id   int
	prog *trace.Program
	wrng rng.PRNG // wrong-path instruction stream

	pending    isa.Inst // peeked next architectural instruction
	hasPending bool

	wrongPath bool
	wrongPC   uint64

	fetchBlockedUntil int64
	blockedByIMiss    bool
	lastIBlock        uint64 // last I-cache block accessed (+1, 0 = none)

	// dispHoldUntil caches the head fetch-buffer entry's decode-ready
	// cycle so the dispatch stage can skip a decode-stalled thread
	// without touching its fetch ring. Monotonicity of fetch times makes
	// a stale value safe: any entry that later becomes head was fetched
	// no earlier, so it cannot be decode-ready before the cached cycle.
	dispHoldUntil int64

	// ifq is this thread's slice of the shared fetch buffer: a fixed
	// power-of-two ring (slot = index & ifqMask) so steady-state fetch
	// and dispatch never touch the allocator.
	ifq              []fetchEntry
	ifqMask          uint64
	ifqHead, ifqTail uint64

	rob              []robEntry // ring; physical size is a power of two
	robMask          uint64     // len(rob) - 1
	robHead, robTail uint64     // monotonic indices; slot = idx & robMask
	genCtr           uint32

	doneAt []int64 // completion cycles by seq % doneRing

	// accCommitted is Cum.Committed at the last AccIPC refresh, so the
	// periodic bookkeeping skips the division for idle threads.
	accCommitted uint64

	st counters.State

	// progVal is machine-owned program storage: Clone/CloneInto copy the
	// source program value here and point prog at it, so cloning never
	// allocates a Program and never aliases the source machine's stream.
	progVal trace.Program
}

func (t *thread) robCount() int { return int(t.robTail - t.robHead) }

func (t *thread) entry(idx uint64) *robEntry { return &t.rob[idx&t.robMask] }

func (t *thread) ifqCount() int { return int(t.ifqTail - t.ifqHead) }

// copyFrom overwrites t's state with src's, keeping t's own storage.
func (t *thread) copyFrom(src *thread) {
	rob, done, ifq := t.rob, t.doneAt, t.ifq
	*t = *src
	t.rob, t.doneAt, t.ifq = rob, done, ifq
	copy(t.rob, src.rob)
	copy(t.doneAt, src.doneAt)
	copy(t.ifq, src.ifq)
	if src.prog != nil { // a pristine shell has no program yet
		t.progVal = *src.prog
		t.prog = &t.progVal
	}
}

// DTStats reports the detector-thread cost model's bookkeeping.
type DTStats struct {
	FetchSlotsUsed uint64 // leftover fetch slots consumed by the DT
	IssueSlotsUsed uint64 // leftover issue slots consumed by the DT
	JobsScheduled  uint64
	JobsCompleted  uint64
	JobsPreempted  uint64 // job replaced before completion (budget overrun)
	JobCycles      uint64 // total cycles from job schedule to completion
}

// Machine is the SMT core. All state is deterministic plain data; Clone
// produces an independent machine that replays an identical future.
type Machine struct {
	cfg     Config
	now     int64
	threads []*thread

	sel  *policy.Selector
	pred branch.Predictor
	btb  *branch.BTB
	hier *cache.Hierarchy

	// predHybrid and the l1i/l1d pointers are devirtualization fast
	// paths: the hot loops call concrete methods instead of dispatching
	// through the Predictor interface or re-loading hierarchy fields.
	predHybrid *branch.Hybrid
	l1i, l1d   *cache.Cache

	intIQ, fpIQ issueQ
	ifqTotal    int
	lsqUsed     int
	dMissTotal  int // outstanding L1D load misses machine-wide (MSHR occupancy)
	intRegsUsed int
	fpRegsUsed  int

	fuBusy [isa.NumFU][]int64 // per-unit reserved-until cycles

	events [eventRing][]event

	commitCursor int
	renameCursor int

	// Syscall drain state (conservative flush, paper §6).
	draining bool
	drainTid int

	// Detector-thread job model.
	dtToFetch     int
	dtToIssue     int
	dtSwitchArmed bool
	dtSwitchTo    policy.Policy
	dtJobStart    int64
	dtStats       DTStats

	statesView []*counters.State
	orderBuf   []int

	// doneArena backs every thread's done ring contiguously; the issue
	// scan indexes it as tid<<doneRingShift | ringIdx, skipping the
	// thread-struct pointer chase on the poll path.
	doneArena []int64

	// lastDone[tid] is the last cycle context tid completed an
	// instruction, kept as one compact array (a cache line for typical
	// context counts) rather than per-thread fields. The issue stage's
	// resolution pass polls a context's waiting queue slots only in
	// cycles where its entry equals now: dependencies are same-thread,
	// so nothing else can have made them ready. activeTids is the
	// per-cycle scratch list of such contexts.
	lastDone   []int64
	activeTids []int8

	// fbShift/icShift strength-reduce the per-instruction fetch-block
	// and I-cache-block divisions to shifts when the configured sizes
	// are powers of two (255 = not a power of two, divide).
	fbShift, icShift uint8

	// progress counts instruction movements: completion buckets, commits,
	// issues, dispatches and fetch attempts. A cycle that leaves it
	// unchanged was idle, and Run then tries to skip ahead. Only its
	// change within one cycle matters, so copies ignore it.
	progress uint64
}

const doneRingShift = 11 // log2(doneRing)

// fetchBlockOf returns pc's fetch-block id.
func (m *Machine) fetchBlockOf(pc uint64) uint64 {
	if sh := m.fbShift; sh != 255 {
		return pc >> sh
	}
	return pc / uint64(m.cfg.FetchBlock)
}

// iBlockOf returns pc's I-cache block id.
func (m *Machine) iBlockOf(pc uint64) uint64 {
	if sh := m.icShift; sh != 255 {
		return pc >> sh
	}
	return pc / uint64(m.cfg.ICacheBlockWords)
}

// newPredictor builds the configured direction predictor.
func newPredictor(cfg Config, threads int) branch.Predictor {
	pred, err := branch.NewKind(cfg.PredictorKind, cfg.GShareEntries, cfg.HistoryBits, threads)
	if err != nil {
		panic(err)
	}
	if cfg.PredictorKind == branch.KindHybrid || cfg.PredictorKind == "" {
		// The hybrid gets its full three-table geometry.
		pred = branch.NewHybrid(cfg.BimodalEntries, cfg.GShareEntries, cfg.MetaEntries, cfg.HistoryBits, threads)
	}
	return pred
}

// newShell builds a machine with every structure allocated for n contexts
// but no programs attached and no wrong-path streams seeded. Arena-style
// allocation keeps the allocation count low and the per-thread rings
// cache-adjacent: one backing slab each for the thread structs, ROB
// rings, done rings, fetch rings, FU reservations and event buckets.
func newShell(cfg Config, n int) *Machine {
	m := &Machine{
		cfg:  cfg,
		sel:  policy.NewSelector(cfg.InitialPolicy, n),
		pred: newPredictor(cfg, n),
		btb:  branch.NewBTB(cfg.BTBSets, cfg.BTBWays),
		hier: cache.NewHierarchy(cfg.Hierarchy, n),
	}
	m.predHybrid, _ = m.pred.(*branch.Hybrid)
	m.l1i, m.l1d = m.hier.L1I, m.hier.L1D

	m.fbShift, m.icShift = 255, 255
	if fb := cfg.FetchBlock; fb&(fb-1) == 0 {
		m.fbShift = uint8(bits.TrailingZeros(uint(fb)))
	}
	if ic := cfg.ICacheBlockWords; ic&(ic-1) == 0 {
		m.icShift = uint8(bits.TrailingZeros(uint(ic)))
	}

	fuTotal := 0
	for _, k := range cfg.FUs {
		fuTotal += k
	}
	fuArena := make([]int64, fuTotal)
	for k := range m.fuBusy {
		m.fuBusy[k], fuArena = fuArena[:cfg.FUs[k]:cfg.FUs[k]], fuArena[cfg.FUs[k]:]
	}

	evArena := make([]event, eventRing*eventBucketCap)
	for i := range m.events {
		m.events[i] = evArena[i*eventBucketCap : i*eventBucketCap : (i+1)*eventBucketCap]
	}

	m.intIQ = newIssueQ(cfg.IntIQSize, n)
	m.fpIQ = newIssueQ(cfg.FPIQSize, n)
	m.lastDone = make([]int64, n)
	m.activeTids = make([]int8, 0, n)

	robPhys := 1
	for robPhys < cfg.ROBPerThr {
		robPhys <<= 1
	}
	ifqPhys := 1
	for ifqPhys < cfg.IFQSize {
		ifqPhys <<= 1
	}
	threadArena := make([]thread, n)
	robArena := make([]robEntry, n*robPhys)
	doneArena := make([]int64, n*doneRing)
	ifqArena := make([]fetchEntry, n*ifqPhys)
	m.doneArena = doneArena

	m.threads = make([]*thread, n)
	m.statesView = make([]*counters.State, n)
	m.orderBuf = make([]int, n)
	for i := 0; i < n; i++ {
		t := &threadArena[i]
		t.id = i
		t.rob = robArena[i*robPhys : (i+1)*robPhys : (i+1)*robPhys]
		t.robMask = uint64(robPhys - 1)
		t.doneAt = doneArena[i*doneRing : (i+1)*doneRing : (i+1)*doneRing]
		t.ifq = ifqArena[i*ifqPhys : (i+1)*ifqPhys : (i+1)*ifqPhys]
		t.ifqMask = uint64(ifqPhys - 1)
		m.threads[i] = t
		m.statesView[i] = &t.st
	}
	return m
}

// New builds a machine running the given programs (one per context).
// seed feeds the wrong-path generators only; all architectural behaviour
// comes from the programs.
func New(cfg Config, progs []*trace.Program, seed uint64) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(progs) == 0 {
		panic("pipeline: need at least one program")
	}
	m := newShell(cfg, len(progs))
	m.attach(progs, seed)
	return m
}

// attach binds programs and seeds the wrong-path streams, exactly as New
// always has: one Split per thread, in thread order.
func (m *Machine) attach(progs []*trace.Program, seed uint64) {
	root := rng.New(seed ^ 0xd1b54a32d192ed03)
	for i, p := range progs {
		t := m.threads[i]
		t.prog = p
		t.wrng = root.Split()
	}
}

// Clone returns an independent deep copy. The clone and the original
// diverge only through future SetPolicy / flag calls — identical inputs
// replay identical cycles (the oracle scheduler depends on this). The
// copy is written into a pooled shell of the same geometry when one is
// available, so a clone handed back with Release costs no construction
// the next time.
func (m *Machine) Clone() *Machine {
	nm, _ := takeShell(shellKey{m.cfg, len(m.threads)}, false)
	if nm == nil {
		nm = newShell(m.cfg, len(m.threads))
	}
	m.CloneInto(nm)
	return nm
}

// CloneInto overwrites dst — a machine of identical geometry, typically
// a previous Clone — with a deep copy of m, reusing all of dst's
// storage. It is the oracle's scratch path (per-candidate lookahead with
// zero steady-state allocation) and Acquire's restore path (copying a
// never-run pristine shell over a pooled one). dst's programs become
// machine-owned copies; the source machine is never aliased or written.
func (m *Machine) CloneInto(dst *Machine) {
	if dst == m {
		panic("pipeline: CloneInto self")
	}
	if dst.cfg != m.cfg || len(dst.threads) != len(m.threads) {
		panic("pipeline: CloneInto geometry mismatch")
	}
	dst.now = m.now
	dst.sel.CopyFrom(m.sel)
	branch.CopyPredictor(dst.pred, m.pred)
	dst.btb.CopyFrom(m.btb)
	dst.hier.CopyFrom(m.hier)

	dst.intIQ.copyFrom(&m.intIQ)
	dst.fpIQ.copyFrom(&m.fpIQ)
	copy(dst.lastDone, m.lastDone)
	dst.ifqTotal = m.ifqTotal
	dst.lsqUsed = m.lsqUsed
	dst.dMissTotal = m.dMissTotal
	dst.intRegsUsed = m.intRegsUsed
	dst.fpRegsUsed = m.fpRegsUsed
	for k := range m.fuBusy {
		copy(dst.fuBusy[k], m.fuBusy[k])
	}
	for i := range m.events {
		dst.events[i] = append(dst.events[i][:0], m.events[i]...)
	}
	dst.commitCursor = m.commitCursor
	dst.renameCursor = m.renameCursor
	dst.draining = m.draining
	dst.drainTid = m.drainTid
	dst.dtToFetch = m.dtToFetch
	dst.dtToIssue = m.dtToIssue
	dst.dtSwitchArmed = m.dtSwitchArmed
	dst.dtSwitchTo = m.dtSwitchTo
	dst.dtJobStart = m.dtJobStart
	dst.dtStats = m.dtStats

	for i, t := range m.threads {
		dst.threads[i].copyFrom(t)
	}
}

// Now returns the current cycle.
func (m *Machine) Now() int64 { return m.now }

// NumThreads returns the number of normal hardware contexts.
func (m *Machine) NumThreads() int { return len(m.threads) }

// Config returns the machine geometry.
func (m *Machine) Config() Config { return m.cfg }

// State returns the live per-thread status view (counters, gauges,
// flags). The pointer stays valid for the machine's lifetime.
func (m *Machine) State(tid int) *counters.State { return &m.threads[tid].st }

// States returns all per-thread status views, indexed by context id.
func (m *Machine) States() []*counters.State { return m.statesView }

// Policy returns the currently engaged fetch policy.
func (m *Machine) Policy() policy.Policy { return m.sel.Policy() }

// SetPolicy switches the fetch policy immediately, bypassing the
// detector-thread cost model (used for fixed-policy runs and by the
// oracle).
func (m *Machine) SetPolicy(p policy.Policy) { m.sel.SetPolicy(p) }

// SetFlags updates a thread's control flags (the detector thread's
// write port).
func (m *Machine) SetFlags(tid int, f counters.Flags) { m.threads[tid].st.Flags = f }

// Hierarchy exposes the cache hierarchy for inspection.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Predictor exposes the branch predictor for inspection.
func (m *Machine) Predictor() branch.Predictor { return m.pred }

// DTStats returns the detector-thread cost-model statistics.
func (m *Machine) DTStats() DTStats { return m.dtStats }

// DetectorBusy reports whether a detector job is still running.
func (m *Machine) DetectorBusy() bool { return m.dtToIssue > 0 }

// ScheduleDetectorJob models the detector thread executing work
// instructions using only leftover fetch and issue slots. If doSwitch,
// the fetch policy switches to switchTo at the cycle the job completes —
// not before: an overloaded pipeline delays its own remedy, exactly the
// ADTS cost model of the paper. A job scheduled while one is running
// preempts it (counted in DTStats.JobsPreempted).
func (m *Machine) ScheduleDetectorJob(work int, switchTo policy.Policy, doSwitch bool) {
	if work <= 0 {
		work = 1
	}
	if m.dtToIssue > 0 {
		m.dtStats.JobsPreempted++
	}
	m.dtStats.JobsScheduled++
	m.dtToFetch = work
	m.dtToIssue = work
	m.dtSwitchArmed = doSwitch
	m.dtSwitchTo = switchTo
	m.dtJobStart = m.now
}

// TotalCommitted returns committed instructions summed over threads.
func (m *Machine) TotalCommitted() uint64 {
	var n uint64
	for _, t := range m.threads {
		n += t.st.Cum.Committed
	}
	return n
}

// AggregateIPC returns committed instructions per cycle so far.
func (m *Machine) AggregateIPC() float64 {
	if m.now == 0 {
		return 0
	}
	return float64(m.TotalCommitted()) / float64(m.now)
}

// Run advances the machine n cycles. It leaves exactly the state n
// Cycle calls would, but after a cycle in which nothing moved it jumps
// over the idle stretch ahead in one step (see skipQuiescent).
func (m *Machine) Run(n int64) {
	end := m.now + n
	for m.now < end {
		mark := m.progress
		m.Cycle()
		if m.progress == mark && m.now < end {
			m.skipQuiescent(end)
		}
	}
}

// CheckInvariants recounts every occupancy gauge and shared-resource
// counter from first principles and returns an error on any mismatch.
// Tests call it; it is O(machine size) and not meant for per-cycle use.
func (m *Machine) CheckInvariants() error {
	ifqTotal, lsq, intRegs, fpRegs := 0, 0, 0, 0
	for _, t := range m.threads {
		preIssue, iq, brs, loads, mem, dmiss, rob, lsqT := 0, 0, 0, 0, 0, 0, 0, 0
		for i := t.ifqHead; i < t.ifqTail; i++ {
			fe := &t.ifq[i&t.ifqMask]
			preIssue++
			if fe.inst.Class.IsCtrl() {
				brs++
			}
			switch fe.inst.Class {
			case isa.Load:
				loads++
				mem++
			case isa.Store:
				mem++
			}
		}
		ifqTotal += t.ifqCount()
		for idx := t.robHead; idx < t.robTail; idx++ {
			e := t.entry(idx)
			if e.state == sSquashed {
				return fmt.Errorf("thread %d: squashed entry %d inside live ROB window", t.id, idx)
			}
			rob++
			if e.hasDst {
				if e.inst.Class.IsFP() {
					fpRegs++
				} else {
					intRegs++
				}
			}
			if e.lsqHeld {
				lsqT++
			}
			if e.state == sWaiting {
				iq++
				preIssue++
				switch {
				case e.inst.Class.IsCtrl():
					brs++
				case e.inst.Class == isa.Load:
					loads++
					mem++
				case e.inst.Class == isa.Store:
					mem++
				}
			}
			if e.dMissOut {
				dmiss++
			}
		}
		g := t.st.Live
		if g.PreIssue != preIssue || g.IQ != iq || g.Branches != brs ||
			g.Loads != loads || g.Mem != mem || g.DMissOut != dmiss || g.ROB != rob || g.LSQ != lsqT {
			return fmt.Errorf("thread %d gauge mismatch: have %+v want preIssue=%d iq=%d brs=%d loads=%d mem=%d dmiss=%d rob=%d lsq=%d",
				t.id, g, preIssue, iq, brs, loads, mem, dmiss, rob, lsqT)
		}
		lsq += lsqT
	}
	if ifqTotal != m.ifqTotal {
		return fmt.Errorf("ifqTotal mismatch: have %d want %d", m.ifqTotal, ifqTotal)
	}
	if lsq != m.lsqUsed {
		return fmt.Errorf("lsqUsed mismatch: have %d want %d", m.lsqUsed, lsq)
	}
	dmissTotal := 0
	for _, t := range m.threads {
		dmissTotal += t.st.Live.DMissOut
	}
	if dmissTotal != m.dMissTotal {
		return fmt.Errorf("dMissTotal mismatch: have %d want %d", m.dMissTotal, dmissTotal)
	}
	if intRegs != m.intRegsUsed || fpRegs != m.fpRegsUsed {
		return fmt.Errorf("rename pools mismatch: have int=%d fp=%d want int=%d fp=%d",
			m.intRegsUsed, m.fpRegsUsed, intRegs, fpRegs)
	}
	// IQ entries must reference live waiting entries, bits must lie
	// below tail, and the cached count must match the mask population.
	for qi, q := range [...]*issueQ{&m.intIQ, &m.fpIQ} {
		pop := 0
		for wi, word := range q.occ {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				i := wi<<6 | b
				pop++
				if i >= q.tail {
					return fmt.Errorf("issueQ %d: live bit %d at or beyond tail %d", qi, i, q.tail)
				}
				w, r := &q.wait[i], &q.ref[i]
				t := m.threads[w.tid]
				e := t.entry(r.robIdx)
				if e.gen != r.gen || e.state != sWaiting {
					return fmt.Errorf("stale IQ entry: thread %d robIdx %d", w.tid, r.robIdx)
				}
				unresBit := q.unres[w.tid][wi]&(1<<uint(b)) != 0
				if want := w.dep1Idx >= 0 || w.dep2Idx >= 0; unresBit != want {
					return fmt.Errorf("issueQ %d slot %d: unres bit %v but deps resolved=%v", qi, i, unresBit, !want)
				}
			}
		}
		if pop != q.count {
			return fmt.Errorf("issueQ %d: count %d != population %d", qi, q.count, pop)
		}
		for tid, u := range q.unres {
			for wi, word := range u {
				if word&^q.occ[wi] != 0 {
					return fmt.Errorf("issueQ %d: thread %d unres bits outside occupancy in word %d", qi, tid, wi)
				}
				for w2 := word; w2 != 0; w2 &= w2 - 1 {
					i := wi<<6 | bits.TrailingZeros64(w2)
					if int(q.wait[i].tid) != tid {
						return fmt.Errorf("issueQ %d: unres bit for thread %d on slot %d owned by %d", qi, tid, i, q.wait[i].tid)
					}
				}
			}
		}
	}
	return nil
}
