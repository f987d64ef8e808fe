package detector

import (
	"strings"
	"testing"

	"repro/internal/policy"
)

// fakeSelector always proposes a fixed policy and records the rewards
// it is paid. It registers under Bandit for this test binary only —
// internal detector tests cannot link internal/adaptive (import
// cycle), which also makes the unregistered-heuristic paths testable.
type fakeSelector struct {
	next    policy.Policy
	rewards []float64
}

func (f *fakeSelector) Select(incumbent policy.Policy, q QuantumStats) policy.Policy {
	return f.next
}
func (f *fakeSelector) Reward(baseIPC, nextIPC float64) {
	f.rewards = append(f.rewards, nextIPC-baseIPC)
}

var lastFake *fakeSelector

func init() {
	RegisterSelector(Bandit, func(cfg Config) (Selector, error) {
		lastFake = &fakeSelector{next: policy.BRCOUNT}
		return lastFake, nil
	})
}

// Satellite: String ↔ ParseHeuristic round-trips for every value,
// including spaced lowercase forms.
func TestParseHeuristicRoundTrip(t *testing.T) {
	all := append(AllHeuristics(), SelectorHeuristics()...)
	for _, h := range all {
		got, err := ParseHeuristic(h.String())
		if err != nil || got != h {
			t.Errorf("ParseHeuristic(%q) = %v, %v; want %v", h.String(), got, err, h)
		}
	}
	for in, want := range map[string]Heuristic{
		"type 3'":        Type3G,
		"type 3g":        Type3G,
		"TYPE 3G":        Type3G,
		" type 4 ":       Type4,
		"type2":          Type2,
		"3'":             Type3G,
		"bandit":         Bandit,
		"Bandit":         Bandit,
		"epsilon-greedy": Bandit,
		"ucb":            BanditUCB,
		"UCB1":           BanditUCB,
		"bandit-ucb":     BanditUCB,
		"learned":        Learned,
		"learned-fsm":    Learned,
	} {
		got, err := ParseHeuristic(in)
		if err != nil || got != want {
			t.Errorf("ParseHeuristic(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "type 9", "bandit2", "5"} {
		if h, err := ParseHeuristic(bad); err == nil {
			t.Errorf("ParseHeuristic(%q) accepted as %v", bad, h)
		}
	}
}

// Any string that parses must round-trip through String and parse to
// the same value again.
func FuzzParseHeuristic(f *testing.F) {
	for _, h := range append(AllHeuristics(), SelectorHeuristics()...) {
		f.Add(h.String())
		f.Add(strings.ToLower(h.String()))
	}
	f.Add("3g")
	f.Add("bandit-ucb")
	f.Fuzz(func(t *testing.T, s string) {
		h, err := ParseHeuristic(s)
		if err != nil {
			return
		}
		again, err := ParseHeuristic(h.String())
		if err != nil || again != h {
			t.Fatalf("ParseHeuristic(%q) = %v but %q does not round-trip: %v, %v",
				s, h, h.String(), again, err)
		}
	})
}

func TestValidateSelectorRegistration(t *testing.T) {
	c := DefaultConfig(8)
	c.Heuristic = Bandit // fake registered above
	if err := c.Validate(); err != nil {
		t.Fatalf("registered selector rejected: %v", err)
	}
	// Learned is never registered in this test binary (internal tests
	// cannot link internal/adaptive), so Validate must name the fix.
	c.Heuristic = Learned
	err := c.Validate()
	if err == nil {
		t.Fatal("unregistered selector heuristic accepted")
	}
	if !strings.Contains(err.Error(), "internal/adaptive") {
		t.Fatalf("error should point at the missing import, got: %v", err)
	}
}

func TestSelectorDrivesSwitches(t *testing.T) {
	d := New(cfg(Bandit))
	sel := lastFake

	// High throughput: no selector consultation.
	if dec := d.OnQuantumEnd(q(5.0, false, false)); dec.Switch {
		t.Fatalf("high-IPC quantum switched: %+v", dec)
	}
	// Low throughput: the selector's proposal becomes the new policy.
	dec := d.OnQuantumEnd(q(0.5, true, false))
	if !dec.Switch || dec.NewPolicy != policy.BRCOUNT {
		t.Fatalf("selector proposal not engaged: %+v", dec)
	}
	if d.Incumbent() != policy.BRCOUNT {
		t.Fatalf("incumbent = %v, want BRCOUNT", d.Incumbent())
	}
	// The next quantum pays the reward for that selection.
	d.OnQuantumEnd(q(1.0, false, false))
	if len(sel.rewards) != 1 || sel.rewards[0] <= 0 {
		t.Fatalf("reward not paid for improving selection: %v", sel.rewards)
	}
	st := d.Stats()
	if st.Switches != 1 {
		t.Fatalf("Switches = %d, want 1", st.Switches)
	}
	// Proposing the incumbent holds without a switch, but still learns:
	// the previous quantum (IPC 1.0, below m=2) was itself low, so it
	// already queued a selection whose reward lands now, and this low
	// quantum queues another.
	d.OnQuantumEnd(q(0.5, true, false))
	d.OnQuantumEnd(q(0.4, false, false))
	if len(sel.rewards) != 3 || sel.rewards[1] >= 0 || sel.rewards[2] >= 0 {
		t.Fatalf("hold selections not rewarded: %v", sel.rewards)
	}
	if d.Stats().Switches != 1 {
		t.Fatalf("hold counted as a switch")
	}
}

func TestPolicyQuantaAudit(t *testing.T) {
	d := New(cfg(Type3))
	d.OnQuantumEnd(q(5.0, false, false)) // ICOUNT incumbent
	d.OnQuantumEnd(q(0.5, true, false))  // switches to L1MISSCOUNT
	d.OnQuantumEnd(q(5.0, false, false)) // L1MISSCOUNT incumbent
	pq := d.Stats().PolicyQuanta
	if len(pq) != int(policy.NumPolicies) {
		t.Fatalf("PolicyQuanta length %d, want %d", len(pq), policy.NumPolicies)
	}
	if pq[policy.ICOUNT] != 2 || pq[policy.L1MISSCOUNT] != 1 {
		t.Fatalf("PolicyQuanta = %v, want ICOUNT:2 L1MISSCOUNT:1", pq)
	}
	// Stats must return an independent copy.
	pq[policy.ICOUNT] = 99
	if d.Stats().PolicyQuanta[policy.ICOUNT] != 2 {
		t.Fatal("Stats aliases internal PolicyQuanta slice")
	}
}

func TestMergePolicyQuanta(t *testing.T) {
	dst := MergePolicyQuanta(nil, []uint64{1, 2})
	dst = MergePolicyQuanta(dst, []uint64{0, 3, 7})
	want := []uint64{1, 5, 7}
	for i, v := range want {
		if dst[i] != v {
			t.Fatalf("merged[%d] = %d, want %d (full: %v)", i, dst[i], v, dst)
		}
	}
}
