package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestOracleResultGolden pins oracle-mode results byte for byte: the
// SHA-256 of each Result's JSON for three mixes at 8 threads and 4
// quanta. A change to how the oracle evaluates candidates must leave
// these unchanged — same QuantumIPC, PolicyTimeline and OracleSwitches.
func TestOracleResultGolden(t *testing.T) {
	golden := map[string]string{
		"kitchen-sink": "ad4bf9772409ff192c326ced8c73ffd93dbce6adb13c7335f5cbd2c1d8269795",
		"mixed-lowipc": "085efb3cc163f8471c65691398af832366364c0abadf00a4da1baa4cbcd0ddc7",
		"fp-stream":    "47f60c6c78ebddc13521a36b7d57141b19b02f2be2a374dd40b020067764a5c4",
	}
	for mix, want := range golden {
		cfg := DefaultConfig(mix)
		cfg.Mode = ModeOracle
		cfg.Quanta = 4
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Run()
		sim.Close()
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: oracle result digest %s, want %s", mix, got, want)
		}
	}
}
