package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one call the benchmark made into a layer of the product,
// recorded in the traced sample. Times are nanoseconds since the
// recorder's epoch; Parent 0 means a top-level span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Item   int    `json:"item"` // item index, or -1 when the span covers many items
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the benchmark writes them out.
// A nil *Recorder records nothing, so untraced samples run the same
// code with no span bookkeeping.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) begin(parent int, name string, item int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Item: item, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (r *Recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (r *Recorder) snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the union
// of its children's intervals, each child clipped to the parent's
// interval. Children that overlap (two workers under one parent) are
// counted once; a child that outlives its parent only covers the part
// inside it.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// lanes hands out worker lane numbers so the traced sample can hang each
// item under the lane that ran it. At most len(free) items run at once
// (the runner's worker bound), so take never blocks for long.
type lanes struct{ free chan int }

func newLanes(n int) lanes {
	l := lanes{free: make(chan int, n)}
	for i := range n {
		l.free <- i
	}
	return l
}

func (l lanes) take() int    { return <-l.free }
func (l lanes) put(lane int) { l.free <- lane }
