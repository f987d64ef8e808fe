package pipeline

import (
	"math"
	"math/bits"
)

// Quiescent-cycle skipping. A clogged SMT spends long stretches in
// which no instruction moves: every thread waits on a cache miss, a
// fetch block or a full shared queue, and the only thing a cycle does
// is count stalls and rotate cursors. Run detects such a cycle through
// the progress mark, proves that the stretch ahead is equally idle, and
// jumps to the first cycle at which some stage could act, applying the
// skipped cycles' bookkeeping in closed form. Cycle stays the exact
// one-cycle reference; Run(n) leaves the same state as n Cycle calls.

// skipQuiescent advances now over the cycles before end in which no
// stage can change anything but stall counters and cursors.
//
// Run calls it only right after an idle cycle, and that cycle already
// settled most of the proof: it had no completions (activeTids is
// empty), it committed nothing, so any completed ROB head is a syscall
// waiting on the drain, and it dispatched nothing, so every undecoded
// fetch-buffer head has its decode-ready cycle cached in dispHoldUntil.
// What is left to check is that no stage can act now and how long that
// lasts. The horizon is the first cycle at which that could change: the
// next completion bucket with an event, the earliest resolved
// issue-queue slot's readiness, the earliest decode-ready fetch-buffer
// head, the earliest fetch unblock, the next AccIPC refresh (a multiple
// of 256) and end. Resources only free up through completion, commit,
// issue or dispatch, so a head blocked on a resource stays blocked.
func (m *Machine) skipQuiescent(end int64) {
	// A running detector job takes leftover slots every cycle
	// (dtToIssue >= dtToFetch, so one test covers both).
	if m.draining || m.dtToIssue > 0 {
		return
	}
	now := m.now
	h := min(end, (now|255)+1, m.intIQ.earliestReady(), m.fpIQ.earliestReady())
	for _, t := range m.threads {
		until, ok := m.fetchIdleUntil(t)
		if !ok {
			return
		}
		h = min(h, until)
		if t.ifqTail != t.ifqHead {
			fe := &t.ifq[t.ifqHead&t.ifqMask]
			if ready := fe.fetchedAt + int64(m.cfg.DecodeDelay); ready > now {
				h = min(h, ready)
			} else if m.dispatchStall(t, fe) == stallNone {
				return
			}
		}
	}
	for c := now; c < h; c++ {
		if len(m.events[uint64(c)&(eventRing-1)]) != 0 {
			h = c
			break
		}
	}
	if h > now {
		m.skipTo(h)
	}
}

// fetchIdleUntil mirrors canFetch without its side effects: ok reports
// that the thread fails canFetch at every cycle before until.
func (m *Machine) fetchIdleUntil(t *thread) (until int64, ok bool) {
	switch {
	case t.st.Flags.FetchDisabled:
		return math.MaxInt64, true
	case t.fetchBlockedUntil > m.now:
		return t.fetchBlockedUntil, true
	case t.blockedByIMiss:
		return 0, false // canFetch clears the miss this cycle
	case t.wrongPath && !m.cfg.WrongPath, m.ifqTotal >= m.cfg.IFQSize:
		return math.MaxInt64, true
	}
	return 0, false
}

// dispatchStall is the outcome of dispatchOne's resource checks for a
// decode-ready fetch-buffer head, evaluated without side effects and in
// the same order: ROB, issue queue, rename register, then the
// load/store queue, the only stall with its own counter.
type dispatchStall uint8

const (
	stallNone dispatchStall = iota
	stallResource
	stallLSQ
)

func (m *Machine) dispatchStall(t *thread, fe *fetchEntry) dispatchStall {
	iqFull, regsFull := m.intIQ.count >= m.cfg.IntIQSize, m.intRegsUsed >= m.cfg.IntRegs
	if fe.inst.Class.IsFP() {
		iqFull, regsFull = m.fpIQ.count >= m.cfg.FPIQSize, m.fpRegsUsed >= m.cfg.FPRegs
	}
	switch {
	case t.robCount() >= m.cfg.ROBPerThr, iqFull, fe.inst.HasDst && regsFull:
		return stallResource
	case fe.inst.Class.IsMem() && m.lsqUsed >= m.cfg.LSQSize:
		return stallLSQ
	}
	return stallNone
}

// skipTo applies, in closed form, what cycles now..h-1 would do to a
// machine skipQuiescent proved idle over them, and lands on cycle h.
func (m *Machine) skipTo(h int64) {
	k := h - m.now
	n := int64(len(m.threads))
	m.commitCursor = int((int64(m.commitCursor) + k) % n)
	m.renameCursor = int((int64(m.renameCursor) + k) % n)
	m.sel.AdvanceBy(int(k))
	for _, t := range m.threads {
		t.st.Cum.FetchStalls += uint64(k)
		if t.robTail != t.robHead {
			t.st.QuantumStalls += uint64(k)
		}
		if t.ifqTail == t.ifqHead {
			continue
		}
		fe := &t.ifq[t.ifqHead&t.ifqMask]
		if fe.fetchedAt+int64(m.cfg.DecodeDelay) <= m.now && m.dispatchStall(t, fe) == stallLSQ {
			t.st.Cum.LSQFull += uint64(k)
		}
	}
	m.now = h
	if m.now&255 == 0 {
		m.updateAccIPC()
	}
}

// earliestReady returns the smallest readiness cycle among live slots
// whose producers have all resolved, or MaxInt64 when there are none.
// Unresolved slots can only become ready after a completion event.
func (q *issueQ) earliestReady() int64 {
	r := int64(math.MaxInt64)
	for wi := 0; wi < q.words; wi++ {
		word := q.occ[wi]
		for o := wi; o < len(q.unresW); o += q.words {
			word &^= q.unresW[o]
		}
		for ; word != 0; word &= word - 1 {
			r = min(r, q.wait[wi<<6|bits.TrailingZeros64(word)].readyAt)
		}
	}
	return r
}
