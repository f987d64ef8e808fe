package adaptive

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/detector"
	"repro/internal/policy"
)

// TableVersion is the on-disk format version of a trained table.
const TableVersion = 1

// minSupport is the minimum number of training samples a (context,
// policy) cell needs before Fit will trust its mean; contexts whose
// winning cell is thinner than this stay untrained and fall back to
// Type 3 routing at runtime.
const minSupport = 2

// Table is the offline-trained transition table of the learned FSM:
// one row per context key, each naming the policy that maximised mean
// next-quantum IPC in training. An empty Policy entry means the
// context was not (sufficiently) covered by training; the runtime
// falls back to detector.Type3Transition there.
type Table struct {
	Version   int      `json:"version"`
	TrainedOn string   `json:"trained_on,omitempty"`
	Arms      []string `json:"arms"`
	// Policy, Samples, and MeanIPC are indexed by context key.
	Policy  []string  `json:"policy"`
	Samples []int     `json:"samples"`
	MeanIPC []float64 `json:"mean_ipc"`
}

// Validate checks structural invariants of a decoded table.
func (t *Table) Validate() error {
	if t.Version != TableVersion {
		return fmt.Errorf("adaptive: table version %d, want %d", t.Version, TableVersion)
	}
	if len(t.Arms) != numArms {
		return fmt.Errorf("adaptive: table has %d arms, want %d", len(t.Arms), numArms)
	}
	for i, name := range t.Arms {
		if name != Arms[i].String() {
			return fmt.Errorf("adaptive: table arm %d is %q, want %q", i, name, Arms[i])
		}
	}
	if len(t.Policy) != NumContexts || len(t.Samples) != NumContexts || len(t.MeanIPC) != NumContexts {
		return fmt.Errorf("adaptive: table rows %d/%d/%d, want %d each",
			len(t.Policy), len(t.Samples), len(t.MeanIPC), NumContexts)
	}
	for c, name := range t.Policy {
		if name == "" {
			continue
		}
		if _, err := policy.Parse(name); err != nil {
			return fmt.Errorf("adaptive: table context %d: %w", c, err)
		}
	}
	return nil
}

// compile resolves policy names to a context-indexed lookup; entries
// for untrained contexts are -1.
func (t *Table) compile() ([NumContexts]policy.Policy, [NumContexts]bool, error) {
	var (
		lut     [NumContexts]policy.Policy
		trained [NumContexts]bool
	)
	if err := t.Validate(); err != nil {
		return lut, trained, err
	}
	for c, name := range t.Policy {
		if name == "" {
			continue
		}
		p, err := policy.Parse(name)
		if err != nil {
			return lut, trained, err
		}
		lut[c], trained[c] = p, true
	}
	return lut, trained, nil
}

// Trained reports how many of the table's contexts carry a trained
// policy.
func (t *Table) Trained() int {
	n := 0
	for _, name := range t.Policy {
		if name != "" {
			n++
		}
	}
	return n
}

// Learned is the table-driven FSM selector: pure lookup at runtime,
// no online state, no randomness.
type Learned struct {
	cfg     detector.Config
	lut     [NumContexts]policy.Policy
	trained [NumContexts]bool
}

// NewLearned compiles t into a runtime selector.
func NewLearned(cfg detector.Config, t *Table) (*Learned, error) {
	lut, trained, err := t.compile()
	if err != nil {
		return nil, err
	}
	return &Learned{cfg: cfg, lut: lut, trained: trained}, nil
}

// Select implements detector.Selector: trained contexts route straight
// to the table's policy; untrained ones take the paper's Type 3
// regular transition.
func (l *Learned) Select(incumbent policy.Policy, q detector.QuantumStats) policy.Policy {
	c := QuantizeQuantum(l.cfg, q)
	if l.trained[c] {
		return l.lut[c]
	}
	regular, _ := detector.Type3Transition(l.cfg, incumbent, q)
	return regular
}

// Reward implements detector.Selector; the offline table does not
// learn online.
func (l *Learned) Reward(baseIPC, nextIPC float64) {}

// Sample is one training observation: at some quantum the context was
// Context, the next quantum ran under Policy and achieved IPC.
type Sample struct {
	Context uint8   `json:"context"`
	Policy  string  `json:"policy"`
	IPC     float64 `json:"ipc"`
}

// Fit builds a table from training samples: per context, the arm with
// the highest mean next-quantum IPC among arms with at least
// minSupport samples wins; ties break in canonical arm order. The fit
// is deterministic for any ordering of samples (cells accumulate
// commutatively; argmax reads them in canonical order).
func Fit(samples []Sample, trainedOn string) (*Table, error) {
	type cell struct {
		n   int
		sum float64
	}
	var cells [NumContexts][numArms]cell
	for i, s := range samples {
		if int(s.Context) >= NumContexts {
			return nil, fmt.Errorf("adaptive: sample %d: context %d out of range", i, s.Context)
		}
		p, err := policy.Parse(s.Policy)
		if err != nil {
			return nil, fmt.Errorf("adaptive: sample %d: %w", i, err)
		}
		a := armIndex(p)
		if a < 0 {
			// Policies outside the arm set (e.g. RR quanta from a
			// mixed sweep) carry no signal for the selector.
			continue
		}
		cells[s.Context][a].n++
		cells[s.Context][a].sum += s.IPC
	}
	t := &Table{
		Version:   TableVersion,
		TrainedOn: trainedOn,
		Arms:      make([]string, numArms),
		Policy:    make([]string, NumContexts),
		Samples:   make([]int, NumContexts),
		MeanIPC:   make([]float64, NumContexts),
	}
	for i, a := range Arms {
		t.Arms[i] = a.String()
	}
	for c := 0; c < NumContexts; c++ {
		best, bestMean := -1, 0.0
		total := 0
		for a := 0; a < numArms; a++ {
			cl := cells[c][a]
			total += cl.n
			if cl.n < minSupport {
				continue
			}
			if m := cl.sum / float64(cl.n); best < 0 || m > bestMean {
				best, bestMean = a, m
			}
		}
		t.Samples[c] = total
		if best >= 0 {
			t.Policy[c] = Arms[best].String()
			t.MeanIPC[c] = bestMean
		}
	}
	return t, nil
}

// EncodeTable renders t as the canonical committed-artifact form:
// stable-keyed indented JSON with a trailing newline.
func EncodeTable(t *Table) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeTable parses and validates a table artifact.
func DecodeTable(b []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("adaptive: decoding table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// SortSamples orders samples canonically (context, policy, IPC) —
// handy for tests and for writers that want reproducible dumps.
func SortSamples(samples []Sample) {
	sort.Slice(samples, func(i, j int) bool {
		a, b := samples[i], samples[j]
		if a.Context != b.Context {
			return a.Context < b.Context
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.IPC < b.IPC
	})
}
