// Package policy implements the ten SMT fetch policies of the paper's
// Table 1. A fetch policy orders the hardware contexts each cycle; the
// fetch stage then takes instructions from the first (up to two) fetchable
// threads in that order (ICOUNT.2.8).
//
// ICOUNT, BRCOUNT, the MISSCOUNT family and RR follow Tullsen et al.
// ("Exploiting Choice", ISCA'96): the count is of the thread's
// instructions currently in the pre-issue stages or in flight, so the
// policy steers fetch away from threads that are clogging that resource
// right now. LDCOUNT, MEMCOUNT, ACCIPC and STALLCOUNT are the paper's
// additions.
package policy

import (
	"fmt"
	"math"

	"repro/internal/counters"
)

// Policy identifies a fetch policy.
type Policy uint8

// The ten fetch policies of Table 1.
const (
	// RR is oblivious round-robin scheduling.
	RR Policy = iota
	// ICOUNT prioritises threads with the fewest instructions in the
	// decode/rename stages and the instruction queues. The paper's (and
	// Tullsen's) best fixed policy, and ADTS's default incumbent.
	ICOUNT
	// BRCOUNT prioritises threads with the fewest unresolved branches
	// in flight, throttling wrong-path-prone threads.
	BRCOUNT
	// LDCOUNT prioritises threads with the fewest loads in flight.
	LDCOUNT
	// MEMCOUNT prioritises threads with the fewest memory accesses in
	// flight.
	MEMCOUNT
	// L1MISSCOUNT prioritises threads with the fewest outstanding L1
	// (instruction + data) cache misses.
	L1MISSCOUNT
	// L1IMISSCOUNT prioritises threads with the fewest outstanding L1
	// instruction-cache misses.
	L1IMISSCOUNT
	// L1DMISSCOUNT prioritises threads with the fewest outstanding L1
	// data-cache misses.
	L1DMISSCOUNT
	// ACCIPC prioritises threads with the highest accumulated IPC:
	// threads whose instructions drain fastest get the fetch slots.
	ACCIPC
	// STALLCOUNT prioritises threads that have incurred the fewest
	// stall cycles in the current quantum.
	STALLCOUNT
	NumPolicies
)

var names = [NumPolicies]string{
	"RR", "ICOUNT", "BRCOUNT", "LDCOUNT", "MEMCOUNT",
	"L1MISSCOUNT", "L1IMISSCOUNT", "L1DMISSCOUNT", "ACCIPC", "STALLCOUNT",
}

func (p Policy) String() string {
	if int(p) < len(names) {
		return names[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Parse returns the policy with the given name (as printed by String).
func Parse(name string) (Policy, error) {
	for i, n := range names {
		if n == name {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("policy: unknown policy %q", name)
}

// All returns all ten policies in Table 1 order.
func All() []Policy {
	out := make([]Policy, NumPolicies)
	for i := range out {
		out[i] = Policy(i)
	}
	return out
}

// Description returns the Table 1 description of the policy.
func (p Policy) Description() string {
	switch p {
	case RR:
		return "Round-robin scheduling"
	case ICOUNT:
		return "Fewest instructions in decode, rename and the instruction queues"
	case BRCOUNT:
		return "Fewest unresolved branches in flight for a thread"
	case LDCOUNT:
		return "Fewest loads in flight for a thread"
	case MEMCOUNT:
		return "Fewest memory accesses in flight for a thread"
	case L1MISSCOUNT:
		return "Fewest outstanding L1 cache misses for a thread"
	case L1IMISSCOUNT:
		return "Fewest outstanding L1 ICache misses for a thread"
	case L1DMISSCOUNT:
		return "Fewest outstanding L1 DCache misses for a thread"
	case ACCIPC:
		return "Highest accumulated IPC for a thread"
	case STALLCOUNT:
		return "Fewest stall cycles incurred for a thread"
	default:
		return "unknown"
	}
}

// Selector computes per-cycle thread priority orders. It owns the
// round-robin cursor so RR rotates fairly; all other state it reads from
// the per-thread counters.State views the pipeline maintains.
type Selector struct {
	policy   Policy
	rrCursor int
	keys     []float64
	order    []int
	pk       []int64 // packed key|rank scratch for the integer-key sort
}

// NewSelector returns a selector over n hardware contexts, initially
// using pol.
func NewSelector(pol Policy, n int) *Selector {
	return &Selector{
		policy: pol,
		keys:   make([]float64, n),
		order:  make([]int, n),
		pk:     make([]int64, n),
	}
}

// Policy returns the currently engaged policy.
func (s *Selector) Policy() Policy { return s.policy }

// SetPolicy switches the engaged policy (the detector thread's
// Policy_Switch action).
func (s *Selector) SetPolicy(p Policy) { s.policy = p }

// CopyFrom overwrites s's state with src's without allocating. The two
// selectors must cover the same number of contexts.
func (s *Selector) CopyFrom(src *Selector) {
	if len(s.keys) != len(src.keys) {
		panic("policy: Selector.CopyFrom context-count mismatch")
	}
	s.policy = src.policy
	s.rrCursor = src.rrCursor
	copy(s.keys, src.keys)
	copy(s.order, src.order)
}

// key returns the priority key for thread i; lower is higher priority.
func (s *Selector) key(p Policy, st *counters.State, i int) float64 {
	switch p {
	case RR:
		n := len(s.keys)
		return float64((i - s.rrCursor + n) % n)
	case ICOUNT:
		return float64(st.Live.PreIssue)
	case BRCOUNT:
		return float64(st.Live.Branches)
	case LDCOUNT:
		return float64(st.Live.Loads)
	case MEMCOUNT:
		return float64(st.Live.Mem)
	case L1MISSCOUNT:
		return float64(st.Live.MissOut())
	case L1IMISSCOUNT:
		return float64(st.Live.IMissOut)
	case L1DMISSCOUNT:
		return float64(st.Live.DMissOut)
	case ACCIPC:
		return -st.AccIPC
	case STALLCOUNT:
		return float64(st.QuantumStalls)
	default:
		panic("policy: unknown policy " + p.String())
	}
}

// Order fills dst with the indices of threads (0..len(states)-1) in fetch
// priority order under the engaged policy, breaking ties by the
// round-robin cursor so no thread is structurally starved. dst must have
// len(states) capacity. It returns dst truncated to len(states).
//
// The fetch stage calls this once per cycle; after fetching it must call
// Advance so RR and tie-breaking rotate. The sort is a hand-rolled
// insertion sort: n is at most the hardware context count and this runs
// every simulated cycle, so avoiding sort.SliceStable's closure calls
// matters.
func (s *Selector) Order(states []*counters.State, dst []int) []int {
	n := len(states)
	dst = dst[:n]
	if s.policy == ACCIPC || n > 256 {
		return s.orderByFloat(states, dst)
	}
	pk := s.pk[:n]
	cur := s.rrCursor
	// One switch per cycle, not one per thread: the policy is loop
	// invariant, and the specialised loops compute exactly the keys
	// s.key would. Key and rotated rank pack into one int64 (key*256 +
	// rank), so the sort below compares plain integers with no memory
	// indirection and ties resolve by rank — exactly the stable
	// rotated-order tie-break of the float path. Every integer policy's
	// key is a machine-occupancy gauge or a stall count, far below the
	// 2^55 packing limit (STALLCOUNT is clamped defensively; both paths
	// are exact to well past 2^53, so they cannot diverge).
	switch s.policy {
	case RR:
		for i := 0; i < n; i++ {
			pk[i] = int64(i)<<8 | int64(i)
		}
	case ICOUNT:
		for i := 0; i < n; i++ {
			t := i + cur
			if t >= n {
				t -= n
			}
			pk[i] = int64(states[t].Live.PreIssue)<<8 | int64(i)
		}
	case BRCOUNT:
		for i := 0; i < n; i++ {
			t := i + cur
			if t >= n {
				t -= n
			}
			pk[i] = int64(states[t].Live.Branches)<<8 | int64(i)
		}
	case LDCOUNT:
		for i := 0; i < n; i++ {
			t := i + cur
			if t >= n {
				t -= n
			}
			pk[i] = int64(states[t].Live.Loads)<<8 | int64(i)
		}
	case MEMCOUNT:
		for i := 0; i < n; i++ {
			t := i + cur
			if t >= n {
				t -= n
			}
			pk[i] = int64(states[t].Live.Mem)<<8 | int64(i)
		}
	case L1MISSCOUNT:
		for i := 0; i < n; i++ {
			t := i + cur
			if t >= n {
				t -= n
			}
			pk[i] = int64(states[t].Live.MissOut())<<8 | int64(i)
		}
	case L1IMISSCOUNT:
		for i := 0; i < n; i++ {
			t := i + cur
			if t >= n {
				t -= n
			}
			pk[i] = int64(states[t].Live.IMissOut)<<8 | int64(i)
		}
	case L1DMISSCOUNT:
		for i := 0; i < n; i++ {
			t := i + cur
			if t >= n {
				t -= n
			}
			pk[i] = int64(states[t].Live.DMissOut)<<8 | int64(i)
		}
	case STALLCOUNT:
		for i := 0; i < n; i++ {
			t := i + cur
			if t >= n {
				t -= n
			}
			k := states[t].QuantumStalls
			if k > 1<<55-1 {
				k = 1<<55 - 1
			}
			pk[i] = int64(k)<<8 | int64(i)
		}
	default:
		panic("policy: unknown policy " + s.policy.String())
	}
	if n <= 8 {
		sortNet8(pk)
	} else {
		for i := 1; i < n; i++ {
			v := pk[i]
			j := i - 1
			for j >= 0 && pk[j] > v {
				pk[j+1] = pk[j]
				j--
			}
			pk[j+1] = v
		}
	}
	for i := 0; i < n; i++ {
		t := int(pk[i]&0xff) + cur
		if t >= n {
			t -= n
		}
		dst[i] = t
	}
	return dst
}

// sortNet8 sorts up to 8 packed keys with the optimal 19-comparator
// sorting network, each comparator a pair of cmov-compiled min/max —
// no data-dependent branches, so the per-cycle ordering never pays the
// mispredict tax an insertion sort incurs on shuffling gauge values.
// Packed keys are distinct (the rank occupies the low byte), so the
// unique ascending order is exactly what the insertion sort produced.
// Short inputs are padded with MaxInt64, which sorts to the unused tail.
func sortNet8(pk []int64) {
	v0, v1, v2, v3 := int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64)
	v4, v5, v6, v7 := int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64)
	switch len(pk) {
	case 8:
		v7 = pk[7]
		fallthrough
	case 7:
		v6 = pk[6]
		fallthrough
	case 6:
		v5 = pk[5]
		fallthrough
	case 5:
		v4 = pk[4]
		fallthrough
	case 4:
		v3 = pk[3]
		fallthrough
	case 3:
		v2 = pk[2]
		fallthrough
	case 2:
		v1, v0 = pk[1], pk[0]
	default:
		return
	}
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v5 = min(v4, v5), max(v4, v5)
	v6, v7 = min(v6, v7), max(v6, v7)
	v0, v2 = min(v0, v2), max(v0, v2)
	v1, v3 = min(v1, v3), max(v1, v3)
	v4, v6 = min(v4, v6), max(v4, v6)
	v5, v7 = min(v5, v7), max(v5, v7)
	v1, v2 = min(v1, v2), max(v1, v2)
	v5, v6 = min(v5, v6), max(v5, v6)
	v0, v4 = min(v0, v4), max(v0, v4)
	v3, v7 = min(v3, v7), max(v3, v7)
	v1, v5 = min(v1, v5), max(v1, v5)
	v2, v6 = min(v2, v6), max(v2, v6)
	v1, v4 = min(v1, v4), max(v1, v4)
	v3, v6 = min(v3, v6), max(v3, v6)
	v2, v4 = min(v2, v4), max(v2, v4)
	v3, v5 = min(v3, v5), max(v3, v5)
	v3, v4 = min(v3, v4), max(v3, v4)
	switch len(pk) {
	case 8:
		pk[7] = v7
		fallthrough
	case 7:
		pk[6] = v6
		fallthrough
	case 6:
		pk[5] = v5
		fallthrough
	case 5:
		pk[4] = v4
		fallthrough
	case 4:
		pk[3] = v3
		fallthrough
	case 3:
		pk[2] = v2
		fallthrough
	case 2:
		pk[1], pk[0] = v1, v0
	}
}

// orderByFloat is the float-keyed ordering path: ACCIPC (whose key is a
// real-valued IPC) and the >256-context fallback where ranks no longer
// fit the packed representation.
func (s *Selector) orderByFloat(states []*counters.State, dst []int) []int {
	n := len(states)
	keys := s.keys
	for i := 0; i < n; i++ {
		// Start from cursor rotation so equal keys keep rotating fairly.
		t := i + s.rrCursor
		if t >= n {
			t -= n
		}
		dst[i] = t
		keys[t] = s.key(s.policy, states[t], t)
	}
	for i := 1; i < n; i++ {
		t := dst[i]
		k := keys[t]
		j := i - 1
		for j >= 0 && keys[dst[j]] > k {
			dst[j+1] = dst[j]
			j--
		}
		dst[j+1] = t
	}
	return dst
}

// Advance rotates the round-robin cursor; call once per fetch cycle.
func (s *Selector) Advance() {
	if n := len(s.keys); n > 0 {
		s.rrCursor = (s.rrCursor + 1) % n
	}
}

// AdvanceBy rotates the round-robin cursor k steps, as k Advance calls
// would (the pipeline's skip over idle cycles).
func (s *Selector) AdvanceBy(k int) {
	if n := len(s.keys); n > 0 {
		s.rrCursor = (s.rrCursor + k%n) % n
	}
}

// Cursor returns the round-robin cursor.
func (s *Selector) Cursor() int { return s.rrCursor }
