package policy

import (
	"testing"
	"testing/quick"

	"repro/internal/counters"
	"repro/internal/rng"
)

func states(n int) []*counters.State {
	out := make([]*counters.State, n)
	for i := range out {
		out[i] = &counters.State{}
	}
	return out
}

func TestParseStringRoundtrip(t *testing.T) {
	for _, p := range All() {
		got, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("Parse(%q) = %v", p.String(), got)
		}
	}
	if _, err := Parse("NOPE"); err == nil {
		t.Fatal("Parse accepted unknown policy")
	}
}

func TestAllCountAndDescriptions(t *testing.T) {
	all := All()
	if len(all) != int(NumPolicies) || len(all) != 10 {
		t.Fatalf("expected the 10 policies of Table 1, got %d", len(all))
	}
	for _, p := range all {
		if p.Description() == "" || p.Description() == "unknown" {
			t.Fatalf("%v lacks a description", p)
		}
	}
}

// TestOrderKeyedPolicies checks that each gauge-keyed policy puts the
// thread with the smallest key first and the largest last.
func TestOrderKeyedPolicies(t *testing.T) {
	cases := []struct {
		pol Policy
		set func(st *counters.State, v int)
	}{
		{ICOUNT, func(st *counters.State, v int) { st.Live.PreIssue = v }},
		{BRCOUNT, func(st *counters.State, v int) { st.Live.Branches = v }},
		{LDCOUNT, func(st *counters.State, v int) { st.Live.Loads = v }},
		{MEMCOUNT, func(st *counters.State, v int) { st.Live.Mem = v }},
		{L1MISSCOUNT, func(st *counters.State, v int) { st.Live.DMissOut = v }},
		{L1IMISSCOUNT, func(st *counters.State, v int) { st.Live.IMissOut = v }},
		{L1DMISSCOUNT, func(st *counters.State, v int) { st.Live.DMissOut = v }},
		{STALLCOUNT, func(st *counters.State, v int) { st.QuantumStalls = uint64(v) }},
	}
	vals := []int{5, 2, 9, 0} // thread 3 should be first, thread 2 last
	for _, c := range cases {
		sts := states(4)
		for i, v := range vals {
			c.set(sts[i], v)
		}
		sel := NewSelector(c.pol, 4)
		order := sel.Order(sts, make([]int, 4))
		if order[0] != 3 || order[3] != 2 {
			t.Errorf("%v order = %v, want thread 3 first and 2 last", c.pol, order)
		}
	}
}

func TestOrderACCIPC(t *testing.T) {
	sts := states(3)
	sts[0].AccIPC = 0.5
	sts[1].AccIPC = 2.0
	sts[2].AccIPC = 1.0
	sel := NewSelector(ACCIPC, 3)
	order := sel.Order(sts, make([]int, 3))
	if order[0] != 1 || order[2] != 0 {
		t.Fatalf("ACCIPC order = %v, want highest-IPC thread first", order)
	}
}

func TestRRRotates(t *testing.T) {
	sts := states(4)
	sel := NewSelector(RR, 4)
	buf := make([]int, 4)
	seenFirst := map[int]bool{}
	for i := 0; i < 4; i++ {
		order := sel.Order(sts, buf)
		seenFirst[order[0]] = true
		sel.Advance()
	}
	if len(seenFirst) != 4 {
		t.Fatalf("RR first picks %v, want all 4 threads over 4 cycles", seenFirst)
	}
}

func TestTieBreakRotation(t *testing.T) {
	// All keys equal: the leading thread must rotate with the cursor so
	// no thread is structurally starved.
	sts := states(3)
	sel := NewSelector(ICOUNT, 3)
	buf := make([]int, 3)
	first := map[int]bool{}
	for i := 0; i < 3; i++ {
		order := sel.Order(sts, buf)
		first[order[0]] = true
		sel.Advance()
	}
	if len(first) != 3 {
		t.Fatalf("tie-break first picks %v, want rotation over all threads", first)
	}
}

// TestOrderIsPermutation is a property test: Order always returns a
// permutation of thread indices, whatever the gauges hold.
func TestOrderIsPermutation(t *testing.T) {
	f := func(pre, brs, loads [6]uint8, polRaw uint8) bool {
		pol := Policy(polRaw % uint8(NumPolicies))
		sts := states(6)
		for i := range sts {
			sts[i].Live.PreIssue = int(pre[i])
			sts[i].Live.Branches = int(brs[i])
			sts[i].Live.Loads = int(loads[i])
		}
		sel := NewSelector(pol, 6)
		order := sel.Order(sts, make([]int, 6))
		seen := map[int]bool{}
		for _, idx := range order {
			if idx < 0 || idx >= 6 || seen[idx] {
				return false
			}
			seen[idx] = true
		}
		return len(seen) == 6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOrderSorted is a property test: the returned order is
// non-decreasing in the policy key.
func TestOrderSorted(t *testing.T) {
	f := func(pre [8]uint8) bool {
		sts := states(8)
		for i := range sts {
			sts[i].Live.PreIssue = int(pre[i])
		}
		sel := NewSelector(ICOUNT, 8)
		order := sel.Order(sts, make([]int, 8))
		for i := 1; i < len(order); i++ {
			if sts[order[i-1]].Live.PreIssue > sts[order[i]].Live.PreIssue {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectorCloneIndependence(t *testing.T) {
	sel := NewSelector(ICOUNT, 4)
	sel.Advance()
	cl := NewSelector(RR, 4)
	cl.CopyFrom(sel)
	if cl.Policy() != sel.Policy() {
		t.Fatal("clone policy mismatch")
	}
	cl.SetPolicy(BRCOUNT)
	if sel.Policy() == BRCOUNT {
		t.Fatal("clone mutation leaked into original")
	}
	sts := states(4)
	sts[2].Live.PreIssue = -1 // force distinct order
	a := sel.Order(sts, make([]int, 4))
	got := append([]int(nil), a...)
	cl2 := NewSelector(RR, 4)
	cl2.CopyFrom(sel)
	b := cl2.Order(sts, make([]int, 4))
	for i := range got {
		if got[i] != b[i] {
			t.Fatal("clone does not replay the same order")
		}
	}
}

func TestSetPolicy(t *testing.T) {
	sel := NewSelector(ICOUNT, 2)
	sel.SetPolicy(L1MISSCOUNT)
	if sel.Policy() != L1MISSCOUNT {
		t.Fatal("SetPolicy did not take effect")
	}
}

func TestL1MissCountIncludesICacheMisses(t *testing.T) {
	sts := states(2)
	sts[0].Live.DMissOut = 1
	sts[1].Live.IMissOut = 0
	sel := NewSelector(L1MISSCOUNT, 2)
	order := sel.Order(sts, make([]int, 2))
	if order[0] != 1 {
		t.Fatalf("order %v: thread without misses should lead", order)
	}
	// An I-miss counts too.
	sts[1].Live.IMissOut = 1
	sts[1].Live.DMissOut = 1
	order = sel.Order(sts, make([]int, 2))
	if order[0] != 0 {
		t.Fatalf("order %v: thread 1 has 2 outstanding misses vs 1", order)
	}
}

// TestSortNet8MatchesInsertion: the sorting network must order every
// input length exactly as the insertion sort it replaced — keys are
// distinct by construction, so there is one right answer.
func TestSortNet8MatchesInsertion(t *testing.T) {
	r := rng.New(42)
	for n := 1; n <= 8; n++ {
		for trial := 0; trial < 2000; trial++ {
			a := make([]int64, n)
			b := make([]int64, n)
			for i := range a {
				// Gauge-shaped keys with the rank packed low, ranks unique.
				a[i] = int64(r.Uint64n(1<<20))<<8 | int64(i)
				b[i] = a[i]
			}
			sortNet8(a)
			for i := 1; i < n; i++ {
				v := b[i]
				j := i - 1
				for j >= 0 && b[j] > v {
					b[j+1] = b[j]
					j--
				}
				b[j+1] = v
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d trial=%d: network %v != insertion %v", n, trial, a, b)
				}
			}
		}
	}
}
