package pipeline

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
)

// farFuture blocks a thread's fetch until an explicit event (syscall
// commit) re-enables it.
const farFuture = math.MaxInt64 / 2

// Cycle advances the machine by one clock. Stages run back to front so
// that resources freed this cycle become available to earlier stages next
// cycle, with one deliberate exception: completions are processed first
// so same-cycle wakeup (a modest bypass network) is modelled.
func (m *Machine) Cycle() {
	m.processCompletions()
	m.commit()
	m.issue()
	m.dispatch()
	m.fetch()
	m.now++
	if m.now&255 == 0 {
		m.updateAccIPC()
	}
}

// updateAccIPC refreshes each thread's accumulated-IPC estimate every
// 256 cycles. Threads whose committed count has not moved keep their
// previous estimate, skipping the division; the range over threads
// lives here, out of Cycle's hot straight-line path.
func (m *Machine) updateAccIPC() {
	den := float64(m.now)
	for _, t := range m.threads {
		if c := t.st.Cum.Committed; c != t.accCommitted {
			t.accCommitted = c
			t.st.AccIPC = float64(c) / den
		}
	}
}

// ---------------------------------------------------------------- fetch

func (m *Machine) fetch() {
	if m.draining {
		for _, t := range m.threads {
			t.st.Cum.FetchStalls++
		}
		return
	}
	order := m.sel.Order(m.statesView, m.orderBuf)
	m.sel.Advance()
	slots := m.cfg.FetchWidth
	threadsUsed := 0
	for _, ti := range order {
		if slots == 0 || threadsUsed >= m.cfg.FetchThreads {
			break
		}
		t := m.threads[ti]
		if !m.canFetch(t) {
			continue
		}
		n := m.fetchThread(t, slots)
		if n > 0 {
			slots -= n
			threadsUsed++
		}
	}
	// The detector thread takes only what nobody else wanted (paper §3:
	// "when the slots are almost fully occupied by normal threads, the
	// detector thread will not obtain any more scheduling slots").
	if m.dtToFetch > 0 && slots > 0 {
		k := min(slots, m.dtToFetch)
		m.dtToFetch -= k
		m.dtStats.FetchSlotsUsed += uint64(k)
	}
}

// canFetch checks a thread's eligibility this cycle, counting stalls.
func (m *Machine) canFetch(t *thread) bool {
	if t.st.Flags.FetchDisabled {
		t.st.Cum.FetchStalls++
		return false
	}
	if t.fetchBlockedUntil > m.now {
		t.st.Cum.FetchStalls++
		return false
	}
	if t.blockedByIMiss {
		t.blockedByIMiss = false
		t.st.Live.IMissOut = 0
	}
	if t.wrongPath && !m.cfg.WrongPath {
		// Ablation mode: no wrong-path injection; fetch simply waits
		// for the mispredicted branch to resolve.
		t.st.Cum.FetchStalls++
		return false
	}
	if m.ifqTotal >= m.cfg.IFQSize {
		t.st.Cum.FetchStalls++
		return false
	}
	return true
}

// fetchPC returns the address of the next instruction to fetch.
func (m *Machine) fetchPC(t *thread) uint64 {
	if t.wrongPath {
		return t.wrongPC
	}
	m.peek(t)
	return t.pending.PC
}

// peek ensures t.pending holds the next architectural instruction.
func (m *Machine) peek(t *thread) {
	if !t.hasPending {
		t.pending = t.prog.Next()
		t.hasPending = true
	}
}

// fetchThread fetches up to slots instructions from t, stopping at the
// fetch-block boundary (the ICOUNT.2.8 cache-block rule), at a
// mispredicted branch (the PC stream redirects), or at a syscall.
// It returns the number of instructions fetched.
func (m *Machine) fetchThread(t *thread, slots int) int {
	m.progress++
	pc := m.fetchPC(t)

	// I-cache access for this block. The detector thread never reaches
	// this path: its code lives in a private program cache.
	iBlock := m.iBlockOf(pc)
	if iBlock+1 != t.lastIBlock {
		lat, miss := m.l1i.Access(t.id, pc*4, false)
		t.lastIBlock = iBlock + 1
		if miss {
			t.st.Cum.L1IMisses++
			t.fetchBlockedUntil = m.now + int64(lat)
			t.blockedByIMiss = true
			t.st.Live.IMissOut = 1
			t.st.Cum.FetchStalls++
			return 0
		}
	}

	fetchBlock := m.fetchBlockOf(pc)
	n := 0
	for n < slots {
		pc = m.fetchPC(t)
		if m.fetchBlockOf(pc) != fetchBlock {
			break // cache-block boundary: the next thread gets the slots
		}
		if m.iBlockOf(pc)+1 != t.lastIBlock {
			break // crossed into an unchecked I-cache block
		}
		if m.ifqTotal >= m.cfg.IFQSize {
			break
		}
		in, wrong, mispred := m.nextInst(t)
		t.ifq[t.ifqTail&t.ifqMask] = fetchEntry{inst: in, fetchedAt: m.now, wrong: wrong, mispred: mispred}
		t.ifqTail++
		m.ifqTotal++
		n++

		t.st.Cum.Fetched++
		if wrong {
			t.st.Cum.WrongFetched++
		}
		t.st.Live.PreIssue++
		switch {
		case in.Class.IsCtrl():
			t.st.Live.Branches++
		case in.Class == isa.Load:
			t.st.Live.Loads++
			t.st.Live.Mem++
		case in.Class == isa.Store:
			t.st.Live.Mem++
		}

		if mispred {
			break // fetch redirects onto the wrong path next cycle
		}
		if !wrong && in.Class == isa.Syscall {
			// Serialise: nothing more from this thread until the
			// syscall commits and pays its penalty.
			t.fetchBlockedUntil = farFuture
			break
		}
	}
	return n
}

// nextInst produces the next instruction for t — architectural or
// wrong-path — handling branch prediction and mispredict detection.
func (m *Machine) nextInst(t *thread) (in isa.Inst, wrong, mispred bool) {
	if t.wrongPath {
		in = t.prog.WrongPathInst(&t.wrng, t.wrongPC)
		t.wrongPC++
		return in, true, false
	}
	m.peek(t)
	in = t.pending
	t.hasPending = false

	if in.Class == isa.Branch {
		var predTaken bool
		if h := m.predHybrid; h != nil {
			predTaken = h.Predict(t.id, in.PC)
		} else {
			predTaken = m.pred.Predict(t.id, in.PC)
		}
		var predTarget uint64
		if predTaken {
			tgt, hit := m.btb.Lookup(t.id, in.PC)
			if hit {
				predTarget = tgt
			} else {
				predTaken = false // cannot redirect without a target
			}
		}
		mispred = predTaken != in.Taken || (predTaken && predTarget != in.Target)
		if mispred {
			t.wrongPath = true
			if predTaken {
				t.wrongPC = predTarget
			} else {
				t.wrongPC = in.PC + 1
			}
		}
	}
	return in, false, mispred
}

// ------------------------------------------------------------- dispatch

// dispatch renames and dispatches instructions from the fetch buffer
// into the instruction queues, allocating ROB, LSQ and rename-register
// resources. Threads are served round-robin; each thread dispatches in
// order and stops at its first blocked instruction.
func (m *Machine) dispatch() {
	budget := m.cfg.DecodeWidth
	n := len(m.threads)
	start := m.renameCursor
	m.renameCursor = (m.renameCursor + 1) % n
	for i := 0; i < n && budget > 0; i++ {
		j := start + i
		if j >= n {
			j -= n
		}
		t := m.threads[j]
		if t.dispHoldUntil > m.now {
			continue // head of the fetch buffer is still in decode
		}
		for budget > 0 && t.ifqTail != t.ifqHead {
			if !m.dispatchOne(t) {
				break
			}
			budget--
		}
	}
}

// dispatchOne tries to dispatch t's oldest fetched instruction,
// reporting whether it moved.
func (m *Machine) dispatchOne(t *thread) bool {
	fe := &t.ifq[t.ifqHead&t.ifqMask]
	if ready := fe.fetchedAt + int64(m.cfg.DecodeDelay); ready > m.now {
		t.dispHoldUntil = ready
		return false // still in the decode pipe
	}
	cls := fe.inst.Class
	usesFPQ := cls.IsFP()
	isMem := cls.IsMem()

	if t.robCount() >= m.cfg.ROBPerThr {
		return false
	}
	if usesFPQ {
		if m.fpIQ.count >= m.cfg.FPIQSize {
			return false
		}
	} else if m.intIQ.count >= m.cfg.IntIQSize {
		return false
	}
	if fe.inst.HasDst {
		if usesFPQ {
			if m.fpRegsUsed >= m.cfg.FPRegs {
				return false
			}
		} else if m.intRegsUsed >= m.cfg.IntRegs {
			return false
		}
	}
	if isMem && m.lsqUsed >= m.cfg.LSQSize {
		t.st.Cum.LSQFull++
		return false
	}

	// Allocate.
	idx := t.robTail
	t.robTail++
	e := t.entry(idx)
	*e = robEntry{
		inst:    fe.inst,
		gen:     t.genCtr,
		state:   sWaiting,
		wrong:   fe.wrong,
		mispred: fe.mispred,
		usesFPQ: usesFPQ,
		hasDst:  fe.inst.HasDst,
		isMem:   isMem,
		lsqHeld: isMem,
	}
	t.genCtr++
	ready := int64(0)
	dep1, dep2 := int16(-1), int16(-1)
	if fe.wrong {
		// Synthetic wrong-path readiness: a short dependency chain.
		e.readyAt = m.now + 1 + int64(fe.inst.Dep1&3)
		ready = e.readyAt
	} else {
		t.doneAt[fe.inst.Seq%doneRing] = pending
		if d := fe.inst.Dep1; d != 0 && d <= maxDepWindow {
			if p := fe.inst.Seq - uint64(d); p >= 1 {
				ri := p % doneRing
				if v := t.doneAt[ri]; v == pending {
					dep1 = int16(ri)
				} else if v > ready {
					ready = v
				}
			}
		}
		if d := fe.inst.Dep2; d != 0 && d <= maxDepWindow {
			if p := fe.inst.Seq - uint64(d); p >= 1 {
				ri := p % doneRing
				if v := t.doneAt[ri]; v == pending {
					dep2 = int16(ri)
				} else if v > ready {
					ready = v
				}
			}
		}
	}

	if fe.inst.HasDst {
		if usesFPQ {
			m.fpRegsUsed++
		} else {
			m.intRegsUsed++
		}
	}
	if isMem {
		m.lsqUsed++
		t.st.Live.LSQ++
	}
	w := iqWait{readyAt: ready, dep1Idx: dep1, dep2Idx: dep2, tid: int8(t.id)}
	r := iqRef{robIdx: idx, gen: e.gen}
	if usesFPQ {
		m.fpIQ.push(w, r, dep1 >= 0 || dep2 >= 0)
	} else {
		m.intIQ.push(w, r, dep1 >= 0 || dep2 >= 0)
	}
	t.st.Live.IQ++
	t.st.Live.ROB++

	// Pop from the fetch buffer.
	t.ifqHead++
	m.ifqTotal--
	m.progress++
	return true
}

// ---------------------------------------------------------------- issue

// issue selects up to IssueWidth ready instructions, oldest first within
// each queue (integer queue first, matching SimpleSMT's split queues).
// Leftover issue bandwidth executes detector-thread work.
func (m *Machine) issue() {
	active := m.activeTids // filled by processCompletions this cycle
	if len(active) > 0 {
		m.resolveQueue(&m.intIQ, active)
		m.resolveQueue(&m.fpIQ, active)
	}
	budget := m.cfg.IssueWidth
	m.issueQueue(&m.intIQ, &budget)
	m.issueQueue(&m.fpIQ, &budget)

	if budget > 0 && m.dtToIssue > m.dtToFetch {
		k := min(budget, m.dtToIssue-m.dtToFetch)
		m.dtToIssue -= k
		m.dtStats.IssueSlotsUsed += uint64(k)
		if m.dtToIssue == 0 {
			m.dtStats.JobsCompleted++
			m.dtStats.JobCycles += uint64(m.now - m.dtJobStart)
			if m.dtSwitchArmed {
				m.sel.SetPolicy(m.dtSwitchTo)
				m.dtSwitchArmed = false
			}
		}
	}
}

// resolveQueue folds newly-finite producer completion cycles into
// waiting slots. Dependencies are same-thread, so only slots belonging
// to a context that completed an instruction this very cycle can have
// made progress — the pass polls exactly those (via the per-context
// unres masks) and never touches any other waiting slot. It runs every
// cycle regardless of issue budget: the completion signal is this-cycle
// only, so a skipped pass could strand a slot as unresolved forever.
// Resolution is pure caching (doneAt values are immutable once finite),
// so resolving eagerly here is behaviour-identical to the former poll
// inside the issue scan.
func (m *Machine) resolveQueue(q *issueQ, active []int8) {
	doneArena := m.doneArena
	for wi := 0; wi < q.words; wi++ {
		var poll uint64
		for _, tid := range active {
			poll |= q.unresW[int(tid)*q.words+wi]
		}
		for poll != 0 {
			b := bits.TrailingZeros64(poll)
			poll &= poll - 1
			i := wi<<6 | b
			s := &q.wait[i]
			base := int(s.tid) << doneRingShift
			resolved := true
			if s.dep1Idx >= 0 {
				if v := doneArena[base|int(s.dep1Idx)]; v == pending {
					resolved = false // producer still executing
				} else {
					if v > s.readyAt {
						s.readyAt = v
					}
					s.dep1Idx = -1
				}
			}
			if s.dep2Idx >= 0 {
				if v := doneArena[base|int(s.dep2Idx)]; v == pending {
					resolved = false
				} else {
					if v > s.readyAt {
						s.readyAt = v
					}
					s.dep2Idx = -1
				}
			}
			if resolved {
				q.unres[s.tid][wi] &^= 1 << uint(b)
			}
		}
	}
}

// issueQueue walks the queue's resolved slots oldest-entry-first (slot
// order is age order), issuing ready instructions until the budget runs
// out. Slots with an executing producer are masked out wholesale — each
// visited slot costs one load and one compare against its cached
// readiness cycle, and the ROB entry is only ever loaded for slots that
// actually issue.
func (m *Machine) issueQueue(q *issueQ, budget *int) {
	now := m.now
	for wi := 0; wi < q.words && *budget > 0; wi++ {
		word := q.occ[wi]
		if word == 0 {
			continue
		}
		for o := wi; o < len(q.unresW); o += q.words {
			word &^= q.unresW[o]
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			i := wi<<6 | b
			s := &q.wait[i]
			if s.readyAt > now {
				continue
			}
			t := m.threads[s.tid]
			robIdx := q.ref[i].robIdx
			if !m.tryIssue(t, t.entry(robIdx), robIdx) {
				continue
			}
			q.clear(i)
			if *budget--; *budget == 0 {
				return
			}
		}
	}
}

// tryIssue claims a functional unit (and the D-cache for memory ops) and
// schedules completion. It reports whether the instruction issued.
func (m *Machine) tryIssue(t *thread, e *robEntry, robIdx uint64) bool {
	kind := e.inst.Class.FU()
	units := m.fuBusy[kind]
	unit := -1
	for u := range units {
		if units[u] <= m.now {
			unit = u
			break
		}
	}
	if unit < 0 {
		return false
	}
	lat := int64(e.inst.Class.Latency())
	if e.inst.Class.Pipelined() {
		units[unit] = m.now + 1
	} else {
		units[unit] = m.now + lat
	}

	switch e.inst.Class {
	case isa.Load:
		// MSHR admission: a load that would miss cannot issue while
		// all miss-status registers are busy (it retries next cycle).
		if m.cfg.MSHRs > 0 && m.dMissTotal >= m.cfg.MSHRs && !m.l1d.Probe(e.inst.Addr) {
			t.st.Cum.MSHRFull++
			units[unit] = m.now // release the claimed port
			return false
		}
		dlat, miss := m.l1d.Access(t.id, e.inst.Addr, false)
		lat += int64(dlat)
		if miss {
			t.st.Cum.L1DMisses++
			e.dMissOut = true
			t.st.Live.DMissOut++
			m.dMissTotal++
		}
	case isa.Store:
		// The store buffer hides store latency from the pipeline; the
		// cache sees the write (and any miss traffic) now.
		_, miss := m.l1d.Access(t.id, e.inst.Addr, true)
		if miss {
			t.st.Cum.L1DMisses++
		}
		lat = 1
	}

	e.state = sIssued
	e.completeAt = m.now + lat
	if e.completeAt-m.now >= eventRing {
		panic(fmt.Sprintf("pipeline: completion latency %d exceeds event ring", e.completeAt-m.now))
	}
	bi := uint64(e.completeAt) & (eventRing - 1)
	m.events[bi] = append(m.events[bi], event{tid: int8(t.id), robIdx: robIdx, gen: e.gen})
	m.progress++
	t.st.Live.IQ--
	t.st.Live.PreIssue--
	// BRCOUNT, LDCOUNT and MEMCOUNT count instructions in the pre-issue
	// stages (decode, rename, the queues), per Tullsen et al.; the
	// outstanding-miss gauges (dMissOut) track post-issue state.
	switch {
	case e.inst.Class.IsCtrl():
		t.st.Live.Branches--
	case e.inst.Class == isa.Load:
		t.st.Live.Loads--
		t.st.Live.Mem--
	case e.inst.Class == isa.Store:
		t.st.Live.Mem--
	}
	return true
}

// --------------------------------------------------------- completions

// processCompletions retires execution of instructions whose latency
// expires this cycle: wakes dependents, resolves branches (training the
// predictor and squashing wrong paths), and marks entries committable.
func (m *Machine) processCompletions() {
	// activeTids collects the contexts that complete an architectural
	// instruction this cycle — the exact set whose waiting issue-queue
	// slots can have resolved (dependencies are same-thread), consumed
	// by issue's resolution pass.
	m.activeTids = m.activeTids[:0]
	bucket := &m.events[uint64(m.now)&(eventRing-1)]
	if len(*bucket) != 0 {
		m.progress++
	}
	for _, ev := range *bucket {
		t := m.threads[ev.tid]
		e := t.entry(ev.robIdx)
		if e.gen != ev.gen || e.state != sIssued {
			continue // squashed, or the slot was reused
		}
		e.state = sDone
		in := &e.inst
		if in.Class == isa.Load {
			if e.dMissOut {
				e.dMissOut = false
				t.st.Live.DMissOut--
				m.dMissTotal--
			}
			// Loads release their LSQ entry once the value returns;
			// stores hold theirs until commit.
			if e.lsqHeld {
				e.lsqHeld = false
				m.lsqUsed--
				t.st.Live.LSQ--
			}
		}
		if e.wrong {
			continue
		}
		t.doneAt[in.Seq%doneRing] = m.now
		if m.lastDone[t.id] != m.now {
			m.lastDone[t.id] = m.now
			m.activeTids = append(m.activeTids, int8(t.id))
		}
		switch in.Class {
		case isa.Branch:
			if h := m.predHybrid; h != nil {
				h.Update(t.id, in.PC, in.Taken)
			} else {
				m.pred.Update(t.id, in.PC, in.Taken)
			}
			if in.Taken {
				m.btb.Insert(t.id, in.PC, in.Target)
			}
			if e.mispred {
				t.st.Cum.Mispredicts++
				m.squashWrongPath(t, ev.robIdx)
			}
		case isa.Jump:
			m.btb.Insert(t.id, in.PC, in.Target)
		}
	}
	*bucket = (*bucket)[:0]
}

// squashWrongPath removes everything younger than the resolved branch at
// brIdx from t's fetch buffer, queues and ROB, releasing the shared
// resources wrong-path execution was holding, and redirects fetch.
func (m *Machine) squashWrongPath(t *thread, brIdx uint64) {
	// Everything still in the fetch buffer is younger than the branch.
	for i := t.ifqHead; i < t.ifqTail; i++ {
		fe := &t.ifq[i&t.ifqMask]
		t.st.Live.PreIssue--
		switch {
		case fe.inst.Class.IsCtrl():
			t.st.Live.Branches--
		case fe.inst.Class == isa.Load:
			t.st.Live.Loads--
			t.st.Live.Mem--
		case fe.inst.Class == isa.Store:
			t.st.Live.Mem--
		}
		m.ifqTotal--
	}
	t.ifqHead = t.ifqTail

	for idx := t.robTail; idx > brIdx+1; idx-- {
		e := t.entry(idx - 1)
		if !e.wrong {
			panic("pipeline: squashing an architectural instruction")
		}
		switch e.state {
		case sWaiting:
			t.st.Live.IQ--
			t.st.Live.PreIssue--
			switch {
			case e.inst.Class.IsCtrl():
				t.st.Live.Branches--
			case e.inst.Class == isa.Load:
				t.st.Live.Loads--
				t.st.Live.Mem--
			case e.inst.Class == isa.Store:
				t.st.Live.Mem--
			}
		case sIssued:
			if e.dMissOut {
				e.dMissOut = false
				t.st.Live.DMissOut--
				m.dMissTotal--
			}
		}
		if e.hasDst {
			if e.usesFPQ {
				m.fpRegsUsed--
			} else {
				m.intRegsUsed--
			}
		}
		if e.lsqHeld {
			e.lsqHeld = false
			m.lsqUsed--
			t.st.Live.LSQ--
		}
		t.st.Live.ROB--
		e.state = sSquashed
	}
	t.robTail = brIdx + 1

	// Purge queue entries referencing squashed slots.
	m.intIQ.purgeThread(t.id, brIdx, false)
	m.fpIQ.purgeThread(t.id, brIdx, false)

	t.wrongPath = false
	t.wrongPC = 0
	t.lastIBlock = 0 // redirect: refetch the I-cache block
	if t.fetchBlockedUntil < m.now+1 {
		t.fetchBlockedUntil = m.now + 1 // one-cycle redirect bubble
	}
}

// --------------------------------------------------------------- commit

// commit retires completed instructions in order per thread, up to
// CommitWidth total per cycle, rotating the starting thread for
// fairness. It also implements the conservative syscall drain.
func (m *Machine) commit() {
	budget := m.cfg.CommitWidth
	n := len(m.threads)
	start := m.commitCursor
	m.commitCursor = (m.commitCursor + 1) % n
	// One pass serves both commit and stall accounting: every thread is
	// visited even after the budget runs out, because a thread that
	// commits nothing this cycle while holding ROB entries counts a
	// quantum stall regardless of why it was starved.
	for i := 0; i < n; i++ {
		j := start + i
		if j >= n {
			j -= n
		}
		t := m.threads[j]
		c := 0
		for budget > 0 && t.robCount() > 0 {
			e := t.entry(t.robHead)
			if e.state != sDone {
				break
			}
			if e.wrong {
				panic("pipeline: wrong-path instruction reached ROB head")
			}
			if e.inst.Class == isa.Syscall && !m.commitSyscallReady(t) {
				break
			}
			m.commitEntry(t, e)
			t.robHead++
			budget--
			c++
		}
		if c == 0 && t.robCount() > 0 {
			t.st.QuantumStalls++
		}
	}
}

// commitSyscallReady implements the paper's conservative assumption:
// "when a thread encounters a system call, all threads have to flush out
// of the pipeline before the system call can be started". We model the
// flush as a global drain: fetch stops machine-wide, in-flight work
// completes, and only then does the syscall commit and pay its penalty.
func (m *Machine) commitSyscallReady(t *thread) bool {
	if !m.draining {
		m.draining = true
		m.drainTid = t.id
	}
	if m.drainTid != t.id {
		return false // one syscall drains at a time
	}
	if m.drainBlockers() > 0 {
		return false
	}
	m.draining = false
	t.st.Cum.Syscalls++
	t.fetchBlockedUntil = m.now + int64(m.cfg.SyscallPenalty)
	return true
}

// drainBlockers counts in-flight work other than ROB-head syscalls that
// are themselves waiting to drain.
func (m *Machine) drainBlockers() int {
	blockers := 0
	for _, t := range m.threads {
		blockers += t.ifqCount()
		for idx := t.robHead; idx < t.robTail; idx++ {
			e := t.entry(idx)
			if idx == t.robHead && e.inst.Class == isa.Syscall && e.state == sDone && !e.wrong {
				continue
			}
			blockers++
		}
	}
	return blockers
}

// commitEntry retires one instruction, updating architectural counters
// and freeing its resources.
func (m *Machine) commitEntry(t *thread, e *robEntry) {
	m.progress++
	c := &t.st.Cum
	c.Committed++
	switch e.inst.Class {
	case isa.Branch:
		c.Branches++
		c.CondBranches++
	case isa.Jump:
		c.Branches++
	case isa.Load:
		c.Loads++
	case isa.Store:
		c.Stores++
	}
	if e.hasDst {
		if e.usesFPQ {
			m.fpRegsUsed--
		} else {
			m.intRegsUsed--
		}
	}
	if e.lsqHeld {
		e.lsqHeld = false
		m.lsqUsed--
		t.st.Live.LSQ--
	}
	t.st.Live.ROB--
	e.state = sSquashed // slot free
}
