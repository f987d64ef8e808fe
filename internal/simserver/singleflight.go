package simserver

import (
	"sync"

	"repro/internal/resultstore"
)

// flightGroup deduplicates concurrent work by key: the first request
// for a key becomes the leader and executes; every request that arrives
// while the flight is open waits on the same result. No external
// singleflight dependency — the stdlib primitives are enough.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// flight is one in-progress unit of work. done is closed exactly once,
// after val/err are set; waiters must not read them before done closes.
type flight struct {
	done chan struct{}
	val  *resultstore.Entry
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// join returns the open flight for key, creating one if absent. leader
// reports whether the caller created it and therefore must execute the
// work, call finish, and handle the result.
func (g *flightGroup) join(key string) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// finish publishes the result and closes the flight: later requests for
// the same key start a fresh flight (normally they hit the cache first).
func (g *flightGroup) finish(key string, f *flight, val *resultstore.Entry, err error) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.val, f.err = val, err
	close(f.done)
}
