package adaptive

import (
	"math"

	"repro/internal/detector"
	"repro/internal/policy"
	"repro/internal/rng"
)

// Epsilon is the epsilon-greedy exploration rate: one selection in ten
// tries a uniform random arm; the rest exploit the best observed mean.
const Epsilon = 0.1

// armStat is one (context, arm) cell: Bernoulli reward bookkeeping.
type armStat struct {
	n   uint64
	sum float64
}

func (s armStat) mean() float64 {
	if s.n == 0 {
		// Optimistic-neutral prior so untried arms compete with a
		// middling incumbent instead of being starved forever.
		return 0.5
	}
	return s.sum / float64(s.n)
}

// reward converts the selection outcome to the Bernoulli payoff both
// bandits learn from: 1 iff the quantum run under the chosen policy
// out-performed the selection-time IPC — the paper's benign-switch
// criterion applied to every selection, hold or switch.
func reward(baseIPC, nextIPC float64) float64 {
	if nextIPC > baseIPC {
		return 1
	}
	return 0
}

// EpsilonGreedy is the online epsilon-greedy contextual bandit
// selector. All state is plain data.
type EpsilonGreedy struct {
	cfg   detector.Config
	rng   rng.PRNG
	cells [NumContexts][numArms]armStat

	pending bool
	lastCtx uint8
	lastArm int
}

// NewEpsilonGreedy returns a bandit seeded from cfg.SelectorSeed
// (0 selects the fixed default stream).
func NewEpsilonGreedy(cfg detector.Config) *EpsilonGreedy {
	seed := cfg.SelectorSeed
	if seed == 0 {
		seed = defaultSelectorSeed
	}
	return &EpsilonGreedy{cfg: cfg, rng: rng.New(seed)}
}

// Select implements detector.Selector.
func (b *EpsilonGreedy) Select(incumbent policy.Policy, q detector.QuantumStats) policy.Policy {
	c := QuantizeQuantum(b.cfg, q)
	var arm int
	if b.rng.Bool(Epsilon) {
		arm = b.rng.Intn(numArms)
	} else {
		arm = bestMeanArm(&b.cells[c])
	}
	b.pending, b.lastCtx, b.lastArm = true, c, arm
	return Arms[arm]
}

// Reward implements detector.Selector.
func (b *EpsilonGreedy) Reward(baseIPC, nextIPC float64) {
	if !b.pending {
		return
	}
	b.pending = false
	cell := &b.cells[b.lastCtx][b.lastArm]
	cell.n++
	cell.sum += reward(baseIPC, nextIPC)
}

// bestMeanArm returns the arm with the highest observed mean reward,
// ties broken in canonical arm order.
func bestMeanArm(cells *[numArms]armStat) int {
	best, bestMean := 0, cells[0].mean()
	for i := 1; i < numArms; i++ {
		if m := cells[i].mean(); m > bestMean {
			best, bestMean = i, m
		}
	}
	return best
}

// UCB is the UCB1 contextual bandit selector: deterministic
// optimism-in-the-face-of-uncertainty, no random stream at all.
type UCB struct {
	cfg   detector.Config
	cells [NumContexts][numArms]armStat

	pending bool
	lastCtx uint8
	lastArm int
}

// NewUCB returns a UCB1 selector.
func NewUCB(cfg detector.Config) *UCB {
	return &UCB{cfg: cfg}
}

// Select implements detector.Selector: play each untried arm of the
// context once (in canonical order), then argmax of mean + the UCB1
// confidence radius sqrt(2 ln N / n).
func (u *UCB) Select(incumbent policy.Policy, q detector.QuantumStats) policy.Policy {
	c := QuantizeQuantum(u.cfg, q)
	cells := &u.cells[c]
	arm := -1
	var total uint64
	for i := 0; i < numArms; i++ {
		total += cells[i].n
		if arm < 0 && cells[i].n == 0 {
			arm = i
		}
	}
	if arm < 0 {
		lnN := math.Log(float64(total))
		best := math.Inf(-1)
		for i := 0; i < numArms; i++ {
			score := cells[i].mean() + math.Sqrt(2*lnN/float64(cells[i].n))
			if score > best {
				arm, best = i, score
			}
		}
	}
	u.pending, u.lastCtx, u.lastArm = true, c, arm
	return Arms[arm]
}

// Reward implements detector.Selector.
func (u *UCB) Reward(baseIPC, nextIPC float64) {
	if !u.pending {
		return
	}
	u.pending = false
	cell := &u.cells[u.lastCtx][u.lastArm]
	cell.n++
	cell.sum += reward(baseIPC, nextIPC)
}
