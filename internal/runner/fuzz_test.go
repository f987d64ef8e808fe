package runner

import (
	"bytes"
	"testing"
	"unicode/utf8"
)

// FuzzParseLine drives the checkpoint line parser with untrusted bytes
// (data) and with lines in Record's own format (key, val). parseLine
// must never panic; a recorded line must round-trip; and no single bit
// flip of a recorded line may yield an accepted entry that differs from
// the one recorded — the CRC prefix turns corruption into a skipped
// line, never a wrong result.
func FuzzParseLine(f *testing.F) {
	f.Add([]byte(`{"key":"legacy","result":1}`), "job#1", "result")
	f.Add([]byte(`0000000g {"key":"k"}`), "fig7/kitchen-sink", `{"ipc":1.5}`)
	f.Add([]byte(`deadbeef {"key":"k","result":null}`), "k", "")

	f.Fuzz(func(t *testing.T, data []byte, key, val string) {
		parseLine(data)

		if key == "" || !utf8.ValidString(key) {
			return // parseLine rejects an empty key; JSON rewrites invalid UTF-8
		}
		line, raw, err := encodeLine(key, val)
		if err != nil {
			t.Fatal(err)
		}
		e, err := parseLine(bytes.TrimSpace([]byte(line)))
		if err != nil || e.Key != key || !bytes.Equal(e.Result, raw) {
			t.Fatalf("recorded line %q parsed as %+v, %v", line, e, err)
		}

		buf := []byte(line)
		for i := range buf {
			for bit := 0; bit < 8; bit++ {
				buf[i] ^= 1 << bit
				got, err := parseLine(bytes.TrimSpace(buf))
				if err == nil && (got.Key != key || !bytes.Equal(got.Result, raw)) {
					t.Fatalf("flipping bit %d of byte %d accepted %+v, recorded %q => %s", bit, i, got, key, raw)
				}
				buf[i] ^= 1 << bit
			}
		}
	})
}
