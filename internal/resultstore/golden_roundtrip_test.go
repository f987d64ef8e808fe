package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/simrun"
)

// goldenMixes reads the mix list out of the committed multi-core
// golden experiment, so this property test automatically tracks
// whatever workloads the golden covers.
func goldenMixes(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("../../docs/results/multicore-golden.json")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	var golden struct {
		Multicore struct {
			Opts struct {
				Mixes []string
			}
		} `json:"multicore"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("parsing golden: %v", err)
	}
	if len(golden.Multicore.Opts.Mixes) == 0 {
		t.Fatal("golden names no mixes; the property test would prove nothing")
	}
	return golden.Multicore.Opts.Mixes
}

// TestDiskRoundTripIdentityForGoldenMixes is the tier-1 identity
// property: for every mix in the committed multi-core golden (and a
// few seeds each), write a real simulation result to the disk tier,
// force it out of the memory tier, read it back through the tiered
// store, and require that (a) the digest re-verifies, (b) the stored
// result bytes are exactly the bytes written, which are json.Marshal of
// the decoded result and hash to its simrun.ResultDigest, and (c) the
// decoded result is deep-equal to the simulated one. Equal configs
// produce byte-identical results, so any divergence here means the
// disk tier mutated bytes in flight.
func TestDiskRoundTripIdentityForGoldenMixes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	mixes := goldenMixes(t)
	disk := openTestDisk(t, t.TempDir(), DiskOptions{})
	mem := NewMemory(1) // capacity 1: every new Put evicts the prior key
	ts := NewTiered(mem, disk)

	for _, mix := range mixes {
		for seed := uint64(1); seed <= 2; seed++ {
			req := simrun.Request{Mix: mix, Mode: "fixed", Policy: "ICOUNT", Quanta: 2, Seed: seed, Threads: 4}
			cfg, err := req.Config()
			if err != nil {
				t.Fatalf("%s seed %d: %v", mix, seed, err)
			}
			res, err := simrun.Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", mix, seed, err)
			}
			e := NewEntry(simrun.Key(cfg), res)
			ts.Put(e)
			// Evict from memory by churning the 1-entry LRU.
			mem.Put(testEntry("cfg:evictor000000000", 1))
			if _, ok := mem.Get(e.Key); ok {
				t.Fatalf("%s seed %d: entry still in memory; eviction step broken", mix, seed)
			}

			got, tier, ok := ts.Get(e.Key)
			if !ok || tier != TierDisk {
				t.Fatalf("%s seed %d: Get = (%v, %q), want a disk hit", mix, seed, ok, tier)
			}
			if !got.Verify() {
				t.Fatalf("%s seed %d: digest failed to re-verify after disk round-trip", mix, seed)
			}
			if !bytes.Equal(got.ResultJSON(), e.ResultJSON()) {
				t.Fatalf("%s seed %d: disk round-trip changed the result bytes:\nwrote %s\nread  %s", mix, seed, e.ResultJSON(), got.ResultJSON())
			}
			decoded, err := got.Decode()
			if err != nil {
				t.Fatalf("%s seed %d: %v", mix, seed, err)
			}
			canonical, err := json.Marshal(decoded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.ResultJSON(), canonical) {
				t.Fatalf("%s seed %d: stored result bytes are not json.Marshal of the decoded result", mix, seed)
			}
			if simrun.DigestJSON(got.ResultJSON()) != simrun.ResultDigest(res) || got.Digest != simrun.ResultDigest(res) {
				t.Fatalf("%s seed %d: stored result bytes do not hash to ResultDigest", mix, seed)
			}
			if !reflect.DeepEqual(decoded, res) {
				t.Fatalf("%s seed %d: decoded result differs from the simulated one", mix, seed)
			}
		}
	}
}
