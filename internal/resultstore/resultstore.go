// Package resultstore is the simulation-result store behind smtsimd
// and the fleet client: one Get/Put surface over two local tiers with
// strictly increasing latency —
//
//   - tier 0 "memory": a fixed-capacity in-process LRU (the former
//     simserver cache, generalized). Nanoseconds.
//   - tier 1 "disk": a content-addressed on-disk store of canonical
//     JSON entries keyed by config hash, written via atomic rename,
//     integrity-re-verified on every read, size-bounded with
//     oldest-access eviction, and rebuilt by directory scan on
//     startup. Microseconds, survives restarts.
//
// A store never reads from another daemon on its request path.
// Results cross daemons only over the digest-verified
// GET /v1/result/{key} endpoint, by two callers: the fleet client's
// pre-dispatch lookup (PeerClient) and the background anti-entropy
// Replicator. Both learn which peer holds a key from its
// GET /v1/store/manifest and ask only a peer that lists it.
// The Replicator is also how a daemon refills an entry its Scrubber
// quarantined: the key drops out of the local manifest, so the next
// pull round fetches it again.
//
// Simulations are deterministic functions of their config and results
// are SHA-256-digested end to end (simrun.ResultDigest), so an entry
// fetched from any tier or peer is exact: there is no TTL, no
// invalidation, and every reader re-verifies the digest before serving
// bytes it did not just compute. See docs/resultstore.md for the tier
// contract and the on-disk layout.
package resultstore

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/simrun"
)

// Tier names, used as metric labels and reported by Tiered.Get.
const (
	TierMemory = "memory"
	TierDisk   = "disk"
)

// Store-level serving states, reported by Tiered.State and surfaced in
// /healthz as store_state so fleet health probes can weight dispatch
// away from degraded backends.
const (
	// StateOK: all configured tiers serving normally.
	StateOK = "ok"
	// StateReadOnly: a classified fault tripped the disk tier; it
	// refuses writes but still serves the entries it can read.
	StateReadOnly = "readonly"
	// StateMemoryOnly: no disk tier is configured.
	StateMemoryOnly = "memory-only"
)

// Entry is one stored simulation result: the canonical JSON bytes of
// its core.Result (exactly json.Marshal of it, the bytes
// simrun.ResultDigest hashes) and their digest, under its key. Every
// tier, the disk file, GET /v1/result/{key} (both an entry record, see
// AppendRecord) and /v1/batch lines carry those bytes as they are;
// each hop verifies them by hashing them, and only a consumer that
// needs a core.Result decodes one (Decode).
type Entry struct {
	// Key is the store key of the config the entry holds the result
	// of (ConfigKey).
	Key string
	// Result is the simulation result of an entry built as a literal;
	// ResultJSON encodes it when the entry holds no bytes. An entry
	// read from a tier or a peer holds bytes only and leaves Result
	// zero: read it with Decode.
	Result core.Result
	// Report is ignored: no tier stores or serves a report, and a
	// POST /v1/run reply derives its report from the request's config.
	// It stays only because the benchmark's store probe (bench/probes.go)
	// still sets it; delete it with that line.
	Report string
	// Digest is the canonical SHA-256 of the result bytes
	// (simrun.ResultDigest). Every tier re-verifies it before serving an
	// entry it did not just compute.
	Digest string

	raw []byte // canonical result JSON; nil on a literal entry
}

// NewEntry builds the stored form of one simulation: the result's
// canonical bytes and their digest, under key. Every writer — smtsimd
// and sweep checkpoints — builds entries here, so equal configs store
// equal bytes.
func NewEntry(key string, res core.Result) *Entry {
	raw, err := json.Marshal(res)
	if err != nil {
		// core.Result is plain data; an unencodable one cannot verify.
		return &Entry{Key: key}
	}
	return &Entry{Key: key, Digest: simrun.DigestJSON(raw), raw: raw}
}

// ConfigKey is the store key of a config's result: simrun.Key behind
// the "cfg:" prefix. POST /v1/run, /v1/batch items and sweep
// checkpoints all key by it, so a config stored by one is found by the
// others.
func ConfigKey(cfg core.Config) string { return "cfg:" + simrun.Key(cfg) }

// ResultJSON returns the result's canonical JSON bytes: the bytes the
// entry carries, or, for a literal entry, the encoding of Result.
// Callers must not modify them.
func (e *Entry) ResultJSON() []byte {
	if e.raw != nil {
		return e.raw
	}
	raw, err := json.Marshal(e.Result)
	if err != nil {
		return nil
	}
	return raw
}

// Decode returns the entry's result: decoded from its bytes, or Result
// itself for a literal entry.
func (e *Entry) Decode() (core.Result, error) {
	if e.raw == nil {
		return e.Result, nil
	}
	var res core.Result
	if err := json.Unmarshal(e.raw, &res); err != nil {
		return core.Result{}, fmt.Errorf("resultstore: decoding result %s: %w", e.Key, err)
	}
	return res, nil
}

// Verify hashes the result bytes and reports whether they match the
// entry's digest. Entries with no digest are unverifiable and fail.
func (e *Entry) Verify() bool {
	if e == nil || e.Digest == "" {
		return false
	}
	raw := e.ResultJSON()
	return len(raw) > 0 && simrun.DigestJSON(raw) == e.Digest
}

// ValidKey reports whether key is storable: non-empty, bounded, and
// built only from the characters config hashes use (hex, plus the
// "cfg:" prefix of ConfigKey). Everything else is rejected before it
// can reach a filename, a URL path or a manifest line.
func ValidKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == ':', r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return !strings.Contains(key, "..")
}

// PeerLookup is a fleet-wide best-effort lookup: the fleet client
// consults one before dispatching a config. Implementations must digest-verify entries
// before returning them and must treat every failure (timeout,
// corruption, dead peer) as a miss.
type PeerLookup interface {
	Lookup(ctx context.Context, key string) (*Entry, bool)
}

// Tiered composes the local tiers behind one Get/Put. Either tier may
// be nil; a fully-nil Tiered is a valid always-miss store.
type Tiered struct {
	mem  *Memory
	disk *Disk

	metrics Metrics
}

// NewTiered composes mem and disk (each optional) into one store.
func NewTiered(mem *Memory, disk *Disk) *Tiered {
	return &Tiered{mem: mem, disk: disk}
}

// Memory returns the tier-0 store, or nil.
func (t *Tiered) Memory() *Memory { return t.mem }

// Disk returns the tier-1 store, or nil.
func (t *Tiered) Disk() *Disk { return t.disk }

// Metrics returns the per-tier hit/miss counters.
func (t *Tiered) Metrics() *Metrics { return &t.metrics }

// Get walks the tiers in order (memory, then disk) and returns the
// first verified entry together with the name of the tier that served
// it. A disk hit is promoted into memory, so a result read from disk
// costs its latency once per process lifetime, not once per request.
func (t *Tiered) Get(key string) (*Entry, string, bool) {
	if t == nil {
		return nil, "", false
	}
	if t.mem != nil {
		if e, ok := t.mem.Get(key); ok {
			t.metrics.hits[memSlot].Add(1)
			return e, TierMemory, true
		}
		t.metrics.misses[memSlot].Add(1)
	}
	if t.disk != nil {
		if e, ok := t.disk.Get(key); ok {
			t.metrics.hits[diskSlot].Add(1)
			if t.mem != nil {
				t.mem.Put(e)
			}
			return e, TierDisk, true
		}
		t.metrics.misses[diskSlot].Add(1)
	}
	return nil, "", false
}

// Put stores the entry in every writable tier. Disk failures are
// counted, not propagated: the store is a cache, and a full or broken
// disk must never fail the simulation that produced the result.
func (t *Tiered) Put(e *Entry) {
	if t == nil || e == nil || e.Key == "" {
		return
	}
	if t.mem != nil {
		t.mem.Put(e)
	}
	if t.disk != nil {
		if err := t.disk.Put(e); err != nil {
			t.metrics.putErrors[diskSlot].Add(1)
		}
	}
}

// State reports the store's serving state: StateOK when every
// configured tier serves, StateReadOnly when the disk tier is
// degraded, StateMemoryOnly when no disk tier is configured.
func (t *Tiered) State() string {
	if t == nil || t.disk == nil {
		return StateMemoryOnly
	}
	if t.disk.State() == DiskReadOnly {
		return StateReadOnly
	}
	return StateOK
}

// ManifestLocal lists every key the local tiers (memory, disk) can
// serve, in key order — the GET /v1/store/manifest payload. The
// memory tier is included so a daemon whose disk is degraded still
// advertises (and can replicate out) the results it holds in RAM.
func (t *Tiered) ManifestLocal() []string {
	if t == nil {
		return nil
	}
	var out []string
	if t.disk != nil {
		out = t.disk.Manifest()
	}
	if t.mem != nil {
		out = append(out, t.mem.Manifest()...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Close flushes and closes the tiers that hold external resources
// (today: the disk tier's index). Safe on a nil or tierless store.
func (t *Tiered) Close() error {
	if t == nil || t.disk == nil {
		return nil
	}
	return t.disk.Close()
}
