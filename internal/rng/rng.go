// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// The simulator must be bit-reproducible given a seed, across Go versions
// and across Simulator.Clone boundaries (the oracle scheduler depends on
// clones replaying identical futures). math/rand makes no cross-version
// stream guarantees and is awkward to deep-copy, so we use SplitMix64: a
// single uint64 of state, trivially cloneable by value, with excellent
// statistical quality for simulation purposes.
package rng

import "math"

// PRNG is a SplitMix64 generator. The zero value is a valid generator
// (seeded with 0); use New to seed explicitly. Copying a PRNG by value
// yields an independent generator that replays the same future stream.
type PRNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) PRNG {
	return PRNG{state: seed}
}

// Split derives a new, statistically independent generator from p,
// advancing p. It is used to give each thread, cache, and predictor its
// own stream so that subsystems do not perturb one another.
func (p *PRNG) Split() PRNG {
	return PRNG{state: p.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (p *PRNG) Uint64() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (p *PRNG) Uint32() uint32 {
	return uint32(p.Uint64() >> 32)
}

// Float64 returns a uniform value in [0, 1). The outer conversion keeps
// an inlined caller from fusing the scaling into its own arithmetic.
func (p *PRNG) Float64() float64 {
	return float64(float64(p.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(p.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (p *PRNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return p.Uint64() % n
}

// Bool returns true with probability prob.
func (p *PRNG) Bool(prob float64) bool {
	return p.Float64() < prob
}

// Geometric returns a sample from a geometric distribution with the given
// mean (>= 1): the number of Bernoulli trials up to and including the
// first success with success probability 1/mean. The result is always >= 1.
func (p *PRNG) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	u := p.Float64()
	// Inverse-CDF sampling: ceil(ln(1-u) / ln(1-1/mean)).
	n := int(math.Ceil(math.Log(1-u) / math.Log(1-1/mean)))
	if n < 1 {
		n = 1
	}
	return n
}

// GeometricLogQ is Geometric with the denominator hoisted: logQ must be
// math.Log(1-1/mean) for the intended mean > 1. For a fixed mean the two
// methods draw bit-identical samples from the same stream; hot callers
// that sample the same distribution repeatedly cache logQ once instead
// of paying a math.Log per draw. A mean <= 1 has no valid logQ — callers
// keep Geometric's early-return (constant 1, no draw) on their side.
func (p *PRNG) GeometricLogQ(logQ float64) int {
	u := p.Float64()
	n := int(math.Ceil(math.Log(1-u) / logQ))
	if n < 1 {
		n = 1
	}
	return n
}

// Pick returns an index in [0, len(weights)) with probability proportional
// to weights[i]. Zero or negative total weight picks index 0.
func (p *PRNG) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	x := p.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// State exposes the raw generator state, for tests and serialization.
func (p *PRNG) State() uint64 { return p.state }
