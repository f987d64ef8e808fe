package branch

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Fatalf("counter saturated at %d, want 3", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Fatalf("counter floored at %d, want 0", c)
	}
	if counter(1).taken() || !counter(2).taken() {
		t.Fatal("taken threshold wrong")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(1024)
	const pc = 0x1234
	for i := 0; i < 10; i++ {
		b.Update(0, pc, false)
	}
	if b.Predict(0, pc) {
		t.Fatal("bimodal did not learn a not-taken bias")
	}
	for i := 0; i < 10; i++ {
		b.Update(0, pc, true)
	}
	if !b.Predict(0, pc) {
		t.Fatal("bimodal did not relearn a taken bias")
	}
}

func TestGShareLearnsPattern(t *testing.T) {
	g := NewGShare(4096, 10, 1)
	const pc = 0x77
	// Strict period-4 loop pattern: T T T N. After warmup gshare should
	// predict it near-perfectly; bimodal cannot (it would always say T).
	pattern := []bool{true, true, true, false}
	for i := 0; i < 400; i++ {
		g.Update(0, pc, pattern[i%4])
	}
	misp := 0
	for i := 0; i < 400; i++ {
		want := pattern[i%4]
		if g.Predict(0, pc) != want {
			misp++
		}
		g.Update(0, pc, want)
	}
	if misp > 8 {
		t.Fatalf("gshare mispredicted %d/400 on a period-4 pattern", misp)
	}
}

func TestHybridBeatsWorstComponent(t *testing.T) {
	// Two branches: one biased (bimodal-friendly), one periodic
	// (gshare-friendly). The hybrid should handle both.
	h := NewHybrid(1024, 4096, 1024, 10, 1)
	r := rng.New(1)
	misp := 0
	const n = 4000
	for i := 0; i < n; i++ {
		// biased branch at 0x10
		taken := r.Bool(0.95)
		if h.Predict(0, 0x10) != taken {
			misp++
		}
		h.Update(0, 0x10, taken)
		// period-3 branch at 0x20
		taken = i%3 != 2
		if h.Predict(0, 0x20) != taken {
			misp++
		}
		h.Update(0, 0x20, taken)
	}
	rate := float64(misp) / float64(2*n)
	if rate > 0.10 {
		t.Fatalf("hybrid mispredict rate %.3f on easy branches", rate)
	}
}

func TestThreadsDoNotAliasTrivially(t *testing.T) {
	b := NewBimodal(4096)
	const pc = 0x500
	for i := 0; i < 10; i++ {
		b.Update(0, pc, true)
		b.Update(1, pc, false)
	}
	if !b.Predict(0, pc) || b.Predict(1, pc) {
		t.Fatal("thread-mixed indexing aliased two contexts onto one entry")
	}
}

// TestPredictorClones copies a trained predictor into a fresh one of
// the same geometry with CopyPredictor.
func TestPredictorClones(t *testing.T) {
	makers := []func() Predictor{
		func() Predictor { return NewBimodal(256) },
		func() Predictor { return NewGShare(256, 8, 2) },
		func() Predictor { return NewHybrid(256, 256, 256, 8, 2) },
		func() Predictor { return Static{Taken: true} },
	}
	for _, mk := range makers {
		p := mk()
		for i := 0; i < 50; i++ {
			p.Update(0, uint64(i%7)*4, i%3 == 0)
		}
		c := mk()
		CopyPredictor(c, p)
		// The copy must agree now...
		for pc := uint64(0); pc < 32; pc += 4 {
			if p.Predict(0, pc) != c.Predict(0, pc) {
				t.Fatalf("%T clone disagrees immediately", p)
			}
		}
		// ...and diverging the clone must not affect the original.
		before := p.Predict(0, 0)
		for i := 0; i < 20; i++ {
			c.Update(0, 0, !before)
		}
		if p.Predict(0, 0) != before {
			t.Fatalf("%T clone mutation leaked into original", p)
		}
	}
}

func TestStatic(t *testing.T) {
	s := Static{Taken: true}
	if !s.Predict(0, 1) {
		t.Fatal("static taken predictor said not-taken")
	}
	s.Update(0, 1, false) // no-op
	if !s.Predict(0, 1) {
		t.Fatal("static predictor changed state")
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewBimodal(0) },
		func() { NewBimodal(100) }, // not a power of two
		func() { NewGShare(100, 8, 1) },
		func() { NewHybrid(256, 256, 100, 8, 1) },
		func() { NewBTB(100, 4) },
		func() { NewBTB(256, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid geometry")
				}
			}()
			f()
		}()
	}
}

func TestBTBStoresTargets(t *testing.T) {
	b := NewBTB(64, 4)
	if _, hit := b.Lookup(0, 0x40); hit {
		t.Fatal("empty BTB hit")
	}
	b.Insert(0, 0x40, 0x99)
	tgt, hit := b.Lookup(0, 0x40)
	if !hit || tgt != 0x99 {
		t.Fatalf("lookup = (%#x, %t)", tgt, hit)
	}
	b.Insert(0, 0x40, 0xAA) // update target in place
	tgt, _ = b.Lookup(0, 0x40)
	if tgt != 0xAA {
		t.Fatalf("target not updated: %#x", tgt)
	}
}

func TestBTBLRUEviction(t *testing.T) {
	b := NewBTB(1, 2) // one set, two ways: third insert evicts LRU
	b.Insert(0, 1, 100)
	b.Insert(0, 2, 200)
	b.Lookup(0, 1) // touch 1 so 2 becomes LRU
	b.Insert(0, 3, 300)
	if _, hit := b.Lookup(0, 2); hit {
		t.Fatal("LRU entry survived eviction")
	}
	if _, hit := b.Lookup(0, 1); !hit {
		t.Fatal("MRU entry was evicted")
	}
	if tgt, hit := b.Lookup(0, 3); !hit || tgt != 300 {
		t.Fatal("new entry missing")
	}
}

func TestBTBClone(t *testing.T) {
	b := NewBTB(16, 2)
	b.Insert(0, 8, 80)
	c := NewBTB(16, 2)
	c.CopyFrom(b)
	c.Insert(0, 8, 81)
	if tgt, _ := b.Lookup(0, 8); tgt != 80 {
		t.Fatal("clone mutation leaked into original BTB")
	}
}

// TestBTBInsertLookupProperty: anything inserted is immediately
// retrievable with its exact target.
func TestBTBInsertLookupProperty(t *testing.T) {
	b := NewBTB(128, 4)
	f := func(tid uint8, pc, target uint64) bool {
		id := int(tid % 8)
		b.Insert(id, pc, target)
		got, hit := b.Lookup(id, pc)
		return hit && got == target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalLearnsLoopPattern(t *testing.T) {
	l := NewLocal(1024, 10, 4096)
	const pc = 0x99
	// Period-5 loop: T T T T N — local history nails this, bimodal
	// cannot.
	pattern := []bool{true, true, true, true, false}
	for i := 0; i < 500; i++ {
		l.Update(0, pc, pattern[i%5])
	}
	misp := 0
	for i := 0; i < 500; i++ {
		want := pattern[i%5]
		if l.Predict(0, pc) != want {
			misp++
		}
		l.Update(0, pc, want)
	}
	if misp > 10 {
		t.Fatalf("local predictor mispredicted %d/500 on a period-5 loop", misp)
	}
}

func TestLocalClone(t *testing.T) {
	l := NewLocal(256, 8, 1024)
	for i := 0; i < 100; i++ {
		l.Update(0, 0x40, i%3 != 0)
	}
	c := NewLocal(256, 8, 1024)
	c.CopyFrom(l)
	if c.Predict(0, 0x40) != l.Predict(0, 0x40) {
		t.Fatal("clone disagrees")
	}
	for i := 0; i < 50; i++ {
		c.Update(0, 0x40, false)
	}
	if !l.Predict(0, 0x40) && c.Predict(0, 0x40) {
		t.Fatal("clone mutation leaked")
	}
}

func TestNewKind(t *testing.T) {
	for _, k := range []Kind{KindHybrid, KindBimodal, KindGShare, KindLocal, KindTaken, ""} {
		p, err := NewKind(k, 4096, 10, 4)
		if err != nil || p == nil {
			t.Fatalf("NewKind(%q): %v", k, err)
		}
		p.Update(0, 0x10, true)
		p.Predict(0, 0x10)
	}
	if _, err := NewKind("nope", 4096, 10, 4); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestLocalConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewLocal(100, 8, 1024) },
		func() { NewLocal(256, 0, 1024) },
		func() { NewLocal(256, 8, 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
