package resultstore

import (
	"fmt"
	"sync"
	"testing"
)

func TestMemoryEvictsOldest(t *testing.T) {
	c := NewMemory(2)
	c.Put(&Entry{Key: "a"})
	c.Put(&Entry{Key: "b"})
	if _, ok := c.Get("a"); !ok { // promote a; b is now oldest
		t.Fatal("a missing")
	}
	c.Put(&Entry{Key: "d"})
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := c.Evictions(); got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
}

func TestMemoryUpdateInPlace(t *testing.T) {
	c := NewMemory(2)
	c.Put(&Entry{Key: "a", Digest: "v1"})
	c.Put(&Entry{Key: "a", Digest: "v2"})
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	v, _ := c.Get("a")
	if v.Digest != "v2" {
		t.Fatalf("Digest = %q, want v2", v.Digest)
	}
	if got := c.Evictions(); got != 0 {
		t.Fatalf("Evictions = %d, want 0 (update is not eviction)", got)
	}
}

// TestMemoryConcurrent hammers the cache from many goroutines; the
// -race build is the real assertion.
func TestMemoryConcurrent(t *testing.T) {
	c := NewMemory(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%16)
				c.Put(&Entry{Key: k})
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("Len = %d exceeds capacity 8", c.Len())
	}
}

func TestValidKey(t *testing.T) {
	for key, want := range map[string]bool{
		"0123456789abcdef":     true,
		"cfg:0123456789abcdef": true,
		"":                     false,
		"../etc/passwd":        false,
		"a/b":                  false,
		"a b":                  false,
		"ok-key_1.x":           true,
	} {
		if got := ValidKey(key); got != want {
			t.Errorf("ValidKey(%q) = %v, want %v", key, got, want)
		}
	}
}
