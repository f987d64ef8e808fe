// Package oracle implements the oracle-scheduled upper bound the paper's
// argument rests on: the authors' prior study showed fixed ICOUNT leaves
// ~30% of throughput on the table relative to a scheduler that always
// picks the best fetch policy for each quantum. ADTS tries to approach
// this bound with realisable heuristics.
//
// The oracle exploits the simulator's determinism: at each quantum
// boundary it copies the whole machine once per candidate policy, runs
// each copy one quantum into the future, and copies the winning
// lookahead back into the real machine as its next quantum. This is
// exact — a copy replays bit-identical behaviour, so adopting the
// winner's simulated quantum equals running it again — and obviously
// unimplementable in hardware, which is the point of an upper bound.
package oracle

import (
	"repro/internal/pipeline"
	"repro/internal/policy"
)

// DefaultCandidates is the policy set the oracle (and the paper's FSMs)
// choose from. Restricting to the three ADTS policies bounds what ADTS
// itself could achieve; use policy.All for the unrestricted bound.
func DefaultCandidates() []policy.Policy {
	return []policy.Policy{policy.ICOUNT, policy.BRCOUNT, policy.L1MISSCOUNT}
}

// Scheduler drives a machine quantum by quantum under oracle policy
// selection.
type Scheduler struct {
	Quantum    int64
	Candidates []policy.Policy

	Switches uint64 // quantum boundaries where the policy changed
	Quanta   uint64

	// scratch runs the candidate under evaluation; best holds the
	// best-so-far lookahead. Both are cloned lazily from the first
	// machine Step sees and overwritten in place afterwards.
	scratch, best *pipeline.Machine
}

// NewScheduler returns an oracle scheduler with the default candidate
// set.
func NewScheduler(quantum int64) *Scheduler {
	return &Scheduler{Quantum: quantum, Candidates: DefaultCandidates()}
}

// Close releases both scratch machines to the pipeline shell pool. The
// scheduler may be used again after Close (new scratches are cloned
// lazily), but callers normally close once, when done.
func (s *Scheduler) Close() {
	pipeline.Release(s.scratch)
	pipeline.Release(s.best)
	s.scratch, s.best = nil, nil
}

// Step selects the best policy for the next quantum and advances m by
// that quantum under it. It returns the chosen policy.
func (s *Scheduler) Step(m *pipeline.Machine) policy.Policy {
	best, _ := s.lookahead(m)
	if best != m.Policy() {
		s.Switches++
	}
	s.best.CloneInto(m)
	s.Quanta++
	return best
}

// lookahead runs every candidate one quantum ahead of m, leaving m
// untouched and the winner's end state in s.best. It returns the
// winner and the committed-instruction gain it achieved. Ties go to the
// earliest candidate, so ICOUNT (first in DefaultCandidates) wins when
// policies are indistinguishable.
func (s *Scheduler) lookahead(m *pipeline.Machine) (best policy.Policy, bestCommitted uint64) {
	if len(s.Candidates) == 0 {
		panic("oracle: no candidate policies")
	}
	if s.scratch == nil {
		s.scratch, s.best = m.Clone(), m.Clone()
	}
	for i, cand := range s.Candidates {
		m.CloneInto(s.scratch)
		s.scratch.SetPolicy(cand)
		base := s.scratch.TotalCommitted()
		s.scratch.Run(s.Quantum)
		if gain := s.scratch.TotalCommitted() - base; i == 0 || gain > bestCommitted {
			best, bestCommitted = cand, gain
			s.scratch, s.best = s.best, s.scratch
		}
	}
	return best, bestCommitted
}
