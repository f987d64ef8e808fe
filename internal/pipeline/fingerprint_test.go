package pipeline

import "testing"

// TestDeterminismFingerprint pins the simulator's behavioural
// fingerprint: kitchen-sink × 8, seed 1, the default machine, warmed
// 8192 cycles and then run 1 M cycles commits exactly this many
// instructions (aggregate IPC 1.591). A speed change that moves it
// changed simulated behaviour, not just speed.
func TestDeterminismFingerprint(t *testing.T) {
	m := testMachine(t, "kitchen-sink", 8, nil)
	m.Run(8192)
	m.Run(1_000_000)
	const want = 1603833
	if got := m.TotalCommitted(); got != want {
		t.Fatalf("fingerprint moved: committed %d (IPC %.4f), want %d", got, m.AggregateIPC(), want)
	}
}
