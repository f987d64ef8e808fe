package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host speed. The benchmark runs on a few cores of a shared host whose
// speed moves with its neighbours: for seconds to minutes at a time a
// register-only loop runs up to a third slower, a pointer chase or a
// loopback round trip twice as slow or worse, with no steal time
// recorded. CPU time
// moves with wall time, so only a reference timed next to the
// measurement cancels it. Every host time the benchmark reports is
// therefore normalized: multiplied by the host's speed, read just before
// and just after the timed interval with a fixed reference kernel
// (benchmark code, identical on both sides of any comparison). A product
// change moves the product's time and not the kernel's, so it shows in
// full; the host slowing down moves both and cancels.
//
// No single kind of work slows like the product does: the sweeps slow
// about as much as a pointer chase, the served workloads more than a
// register loop and about as much as loopback HTTP. The kernel times one
// of each, so its slowdown is their blend:
//
//   - arith: xorshift steps, a dependent chain of shifts and xors in
//     registers, on every CPU at once;
//   - chase: dependent loads through a 4 MiB single-cycle permutation,
//     larger than one core's share of the last-level cache, on every CPU;
//   - http: HTTP/1.1 round trips over loopback to a server in this
//     process, one keep-alive client per CPU.
//
// Each part is timed speedRuns times and the fastest run counts, so a
// preemption, or a GC cycle the timed work left running, in one run does
// not.
const (
	arithIters = 4_000_000 // per CPU: about 8 ms on a quiet host
	chaseSteps = 100_000   // per CPU: about 5 ms
	httpTrips  = 180       // per client: about 7 ms
	speedRuns  = 3
	// nominalSeconds is one reading (the sum of the three parts' fastest
	// runs) at speed 1: about what the 2-vCPU Xeon host the benchmark was
	// written on gives when its neighbours are quiet. Busy neighbours
	// have made it read up to 0.043.
	nominalSeconds = 0.020
)

var speedSink atomic.Uint64

// speedRef holds the kernel's chase table and loopback server.
type speedRef struct {
	table   []uint32
	url     string
	clients []*http.Client
}

var (
	refOnce sync.Once
	ref     *speedRef
	refErr  error
)

// hostSpeed returns the host's current speed relative to nominal: 1 at
// nominal, 0.8 when the kernel takes 25% longer. The first call builds
// the kernel's table and starts its server.
func hostSpeed() (float64, error) {
	refOnce.Do(func() { ref, refErr = newSpeedRef() })
	if refErr != nil {
		return 0, refErr
	}
	total := 0.0
	for _, part := range []func() (float64, error){ref.arith, ref.chase, ref.http} {
		best := math.Inf(1)
		for range speedRuns {
			s, err := part()
			if err != nil {
				return 0, fmt.Errorf("host speed: %w", err)
			}
			best = min(best, s)
		}
		total += best
	}
	return nominalSeconds / total, nil
}

func newSpeedRef() (*speedRef, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	body := make([]byte, 512)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(body) })}
	go func() { _ = srv.Serve(l) }() // serves until the process exits
	r := &speedRef{table: sattolo(1 << 20), url: "http://" + l.Addr().String() + "/"}
	for range runtime.GOMAXPROCS(0) {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second})
	}
	return r, nil
}

// sattolo returns a random cyclic permutation of 0..n-1 (Sattolo's
// algorithm), so a chase from any index visits every entry.
func sattolo(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// onEveryCPU runs f once per CPU the benchmark uses, all at once, and
// returns the wall time.
func onEveryCPU(f func(k int) error) (float64, error) {
	n := runtime.GOMAXPROCS(0)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = f(k)
		}()
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return secs, nil
}

func (r *speedRef) arith() (float64, error) {
	return onEveryCPU(func(k int) error {
		x := uint64(k) + 1
		for range arithIters {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		speedSink.Add(x)
		return nil
	})
}

func (r *speedRef) chase() (float64, error) {
	return onEveryCPU(func(k int) error {
		p := uint32(k * len(r.table) / 2)
		for range chaseSteps {
			p = r.table[p]
		}
		speedSink.Add(uint64(p))
		return nil
	})
}

func (r *speedRef) http() (float64, error) {
	return onEveryCPU(func(k int) error {
		for range httpTrips {
			resp, err := r.clients[k].Get(r.url)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
		}
		return nil
	})
}
