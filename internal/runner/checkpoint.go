package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"
)

// Entry is one checkpoint line: a settled job keyed by name + config
// hash with its JSON-encoded result. The file is JSONL — one Entry per
// line, appended as jobs complete, so an interrupt loses at most the
// line being written (a torn tail line is skipped on resume).
//
// Each line is prefixed with the IEEE CRC32 of its JSON payload,
// rendered as eight hex digits and a space: "%08x {...}\n". The
// checksum catches silent mid-file corruption (bit rot, partial block
// writes) that a torn-tail scan alone cannot — a corrupted line fails
// its CRC, is skipped, and the affected job reruns. Legacy lines
// without the prefix still parse.
type Entry struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// CheckpointOptions configures OpenWith.
type CheckpointOptions struct {
	// Resume loads existing entries instead of truncating the file.
	Resume bool
	// NoSync skips the fsync after each Record. The default (sync per
	// record) means a completed job survives power loss the moment
	// Record returns; NoSync trades that for throughput, bounding the
	// loss to what the OS had not yet flushed.
	NoSync bool
	// WrapWriter, when non-nil, wraps the checkpoint's backing file —
	// a fault-injection seam so tests can tear writes mid-line (see
	// internal/chaos.Writer) and prove resume survives.
	WrapWriter func(io.WriteCloser) io.WriteCloser
}

// Checkpoint is an append-only JSONL record of completed jobs. It is
// safe for concurrent Record calls from pool workers.
type Checkpoint struct {
	path    string
	mu      sync.Mutex
	w       io.WriteCloser
	sync    bool
	done    map[string]json.RawMessage
	skipped int
}

// Open creates or opens a checkpoint file. With resume true, existing
// entries are loaded (satisfying matching jobs on the next Run) and new
// results append; with resume false any existing file is truncated.
func Open(path string, resume bool) (*Checkpoint, error) {
	return OpenWith(path, CheckpointOptions{Resume: resume})
}

// OpenWith is Open with explicit durability and fault-injection
// options.
//
// A crash mid-append leaves a torn, unterminated tail line. On resume
// that tail is discarded — from memory and from the file, so the next
// appended entry starts on a clean line instead of being concatenated
// onto the torn bytes (which would poison it for every later resume).
// Mid-file lines that fail their CRC or do not parse are skipped in
// memory but left in place. The affected jobs simply rerun; Skipped
// reports how many lines were dropped so callers can warn.
func OpenWith(path string, opts CheckpointOptions) (*Checkpoint, error) {
	done := make(map[string]json.RawMessage)
	skipped := 0
	needNL := false
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if opts.Resume {
		data, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("runner: resume %s: %w", path, err)
		}
		// Scan lines tracking byte offsets so a torn tail can be cut off
		// the file, not just ignored in memory.
		tailStart, tailOK := 0, true
		for off := 0; off < len(data); {
			end := len(data)
			if nl := bytes.IndexByte(data[off:], '\n'); nl >= 0 {
				end = off + nl + 1
			}
			line := bytes.TrimSpace(data[off:end])
			if len(line) > 0 {
				e, err := parseLine(line)
				if err != nil {
					skipped++
					tailStart, tailOK = off, false
				} else {
					done[e.Key] = e.Result
					tailOK = true
				}
			}
			off = end
		}
		if !tailOK {
			if err := os.Truncate(path, int64(tailStart)); err != nil {
				return nil, fmt.Errorf("runner: dropping torn checkpoint tail in %s: %w", path, err)
			}
		}
		needNL = tailOK && len(data) > 0 && data[len(data)-1] != '\n'
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: checkpoint %s: %w", path, err)
	}
	if needNL {
		// A crash can cut a line after its last payload byte but before
		// the newline: the entry is intact, but appending onto the
		// unterminated tail would concatenate two lines into garbage.
		// Terminate it now.
		if _, err := f.WriteString("\n"); err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: terminating checkpoint tail in %s: %w", path, err)
		}
	}
	var w io.WriteCloser = f
	if opts.WrapWriter != nil {
		w = opts.WrapWriter(f)
	}
	return &Checkpoint{path: path, w: w, sync: !opts.NoSync, done: done, skipped: skipped}, nil
}

// encodeLine renders one entry as a CRC-prefixed line, newline
// included, and returns the JSON-encoded result it carries.
func encodeLine(key string, v any) (string, json.RawMessage, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", nil, err
	}
	payload, err := json.Marshal(Entry{Key: key, Result: raw})
	if err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload), raw, nil
}

// parseLine decodes one checkpoint line in either format: the current
// CRC-prefixed form "%08x <json>" or a legacy bare-JSON line.
func parseLine(line []byte) (Entry, error) {
	if len(line) > 9 && line[8] == ' ' {
		if crc, err := strconv.ParseUint(string(line[:8]), 16, 32); err == nil {
			payload := line[9:]
			if crc32.ChecksumIEEE(payload) != uint32(crc) {
				return Entry{}, fmt.Errorf("crc mismatch")
			}
			line = payload
		}
	}
	var e Entry
	if err := json.Unmarshal(line, &e); err != nil {
		return Entry{}, err
	}
	if e.Key == "" {
		return Entry{}, fmt.Errorf("entry missing key")
	}
	return e, nil
}

// ReadEntries loads every readable entry of a checkpoint file in file
// order, without opening it for appending. Duplicate keys keep every
// occurrence (last-wins semantics belong to resume; offline consumers
// like cmd/adts-train want the raw record). Unreadable lines are
// skipped, mirroring resume. File order is deterministic — the order
// jobs were recorded — so replay-based training is reproducible.
func ReadEntries(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runner: reading checkpoint %s: %w", path, err)
	}
	var out []Entry
	for off := 0; off < len(data); {
		end := len(data)
		if nl := bytes.IndexByte(data[off:], '\n'); nl >= 0 {
			end = off + nl + 1
		}
		line := bytes.TrimSpace(data[off:end])
		if len(line) > 0 {
			if e, err := parseLine(line); err == nil {
				out = append(out, e)
			}
		}
		off = end
	}
	return out, nil
}

// Skipped reports how many unreadable lines (torn tails from
// interrupted writes, CRC failures, or other corruption) were
// discarded on resume. Callers should surface a warning when it is
// non-zero; the affected jobs rerun.
func (c *Checkpoint) Skipped() int { return c.skipped }

// Path returns the backing file path.
func (c *Checkpoint) Path() string { return c.path }

// Len returns the number of recorded entries.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Lookup returns the recorded result for key, if any.
func (c *Checkpoint) Lookup(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.done[key]
	return raw, ok
}

// Record appends one completed job as a CRC-prefixed line and, unless
// opened with NoSync, fsyncs before returning — so a recorded result
// survives power loss, not just process death.
func (c *Checkpoint) Record(key string, v any) error {
	line, raw, err := encodeLine(key, v)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := io.WriteString(c.w, line); err != nil {
		return err
	}
	if c.sync {
		if s, ok := c.w.(interface{ Sync() error }); ok {
			if err := s.Sync(); err != nil {
				return err
			}
		}
	}
	c.done[key] = raw
	return nil
}

// Close closes the backing file. Lookup keeps working afterwards;
// Record does not.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.Close()
}
