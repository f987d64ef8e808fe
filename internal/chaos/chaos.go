// Package chaos is the deterministic fault-injection layer behind the
// `-tags chaos` end-to-end suite: a seeded http.RoundTripper wrapper
// (Transport) that injects network and protocol faults into fleet →
// smtsimd traffic, and an io.WriteCloser wrapper (Writer) that tears a
// result-store write mid-record the way a kill -9 or power loss would.
//
// Every fault decision is a pure function of (Seed, event index): event
// N derives its own PCG stream from the seed, so a logged seed replays
// the exact same fault sequence — latency spikes on the same calls,
// the same bytes corrupted — regardless of wall clock or scheduler
// interleaving of *decisions* (the set of injected faults is
// reproducible even though goroutine interleaving may reorder which
// request observes which event index).
//
// The package injects faults; it never hides them. Counters record how
// many of each class actually fired so a test that asserts "the system
// survived corruption" can also assert corruption happened.
package chaos

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync/atomic"
)

// Fault enumerates the injectable fault classes.
type Fault int

const (
	// FaultReset severs the connection: the request errors without a
	// response, as if the backend died mid-handshake.
	FaultReset Fault = iota
	// FaultLatency delays the request by the configured spike before
	// forwarding it.
	FaultLatency
	// FaultTruncate forwards the request but cuts the response body
	// short, simulating a connection dropped mid-transfer.
	FaultTruncate
	// FaultCorrupt forwards the request but flips bits in the response
	// body, simulating in-flight corruption the TCP checksum missed.
	FaultCorrupt
	// Fault5xx synthesizes an HTTP 500 without contacting the backend,
	// and keeps doing so for BurstLen consecutive calls (a crash loop
	// or overloaded proxy, not an isolated blip).
	Fault5xx
	// FaultTear is recorded by Writer when it tears a write. It is
	// never drawn by Transport.
	FaultTear
	// FaultDiskFull is recorded by DiskFull when its byte budget runs
	// out and a write fails with ENOSPC. Never drawn by Transport.
	FaultDiskFull
	// FaultRot is recorded by RotFile when it flips a stored bit.
	// Never drawn by Transport.
	FaultRot

	numFaults
)

func (f Fault) String() string {
	switch f {
	case FaultReset:
		return "reset"
	case FaultLatency:
		return "latency"
	case FaultTruncate:
		return "truncate"
	case FaultCorrupt:
		return "corrupt"
	case Fault5xx:
		return "5xx"
	case FaultTear:
		return "tear"
	case FaultDiskFull:
		return "diskfull"
	case FaultRot:
		return "rot"
	default:
		return fmt.Sprintf("fault(%d)", int(f))
	}
}

// counters tallies injected faults per class.
type counters struct {
	n [numFaults]atomic.Int64
}

func (c *counters) add(f Fault) { c.n[f].Add(1) }

func (c *counters) get(f Fault) int64 { return c.n[f].Load() }

func (c *counters) total() int64 {
	var t int64
	for i := range c.n {
		t += c.n[i].Load()
	}
	return t
}

func (c *counters) String() string {
	var parts []string
	for f := Fault(0); f < numFaults; f++ {
		if n := c.n[f].Load(); n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", f, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// eventRand derives the RNG for event n of stream seed. Each event gets
// its own PCG, so the decision for event n never depends on how many
// random draws earlier events consumed.
func eventRand(seed, n uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, n))
}
