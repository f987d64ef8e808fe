#!/usr/bin/env bash
# store_golden.sh — the warm-store acceptance check (docs/resultstore.md).
#
# Starts one smtsimd with a temp -store-dir, runs the same quick sweep
# against it twice (batch-dispatched, so the daemon serves its own
# store), and asserts:
#
#   1. the two sweep outputs are byte-identical,
#   2. the second pass performed ZERO simulations — every result came
#      out of the tiered store, and
#   3. a background scrub pass over the warm store is a no-op: every
#      entry re-verifies, nothing is quarantined, and a third sweep
#      after the scrub is still byte-identical with zero simulations,
#   4. a sweep checkpoint is a store directory: a local
#      `adts-sweep -checkpoint CK` run, served by a second
#      `smtsimd -store-dir CK`, replays byte-identically through it with
#      zero simulations.
#
# Run from the repo root: ./scripts/store_golden.sh
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18470"
CK_ADDR="127.0.0.1:18471"
STORE_DIR="$(mktemp -d)"
OUT_DIR="$(mktemp -d)"
DAEMON_PID="" CK_PID=""
trap 'kill $DAEMON_PID $CK_PID 2>/dev/null || true; wait $DAEMON_PID $CK_PID 2>/dev/null || true; rm -rf "$STORE_DIR" "$OUT_DIR"' EXIT

go build -o "$OUT_DIR/smtsimd" ./cmd/smtsimd/
go build -o "$OUT_DIR/adts-sweep" ./cmd/adts-sweep/

# -scrub-interval 2s so the integrity scrubber provably runs over the
# warm store within the test's lifetime.
"$OUT_DIR/smtsimd" -addr "$ADDR" -store-dir "$STORE_DIR" -scrub-interval 2s &
DAEMON_PID=$!

wait_up() {
    for i in $(seq 1 50); do
        if curl -sf "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "smtsimd at $1 never came up" >&2
    exit 1
}
wait_up "$ADDR"

sims() {
    curl -sf "http://${1:-$ADDR}/metrics" | awk '$1 == "smtsimd_simulations_total" {print $2}'
}

# sweep [extra adts-sweep flags...] runs the fixed quick sweep, through
# the first daemon unless the flags say otherwise.
sweep() {
    [ $# -gt 0 ] || set -- -backends "$ADDR"
    "$OUT_DIR/adts-sweep" -table1 -quanta 4 -intervals 1 \
        -mixes kitchen-sink,int-memory,mixed-lowipc -json "$@"
}

echo "== pass 1 (cold store) =="
sweep > "$OUT_DIR/pass1.json"
AFTER1="$(sims)"
echo "pass 1 done: smtsimd_simulations_total=$AFTER1"
if [ "$AFTER1" -eq 0 ]; then
    echo "FAIL: cold pass ran no simulations — the sweep never reached the daemon" >&2
    exit 1
fi

echo "== pass 2 (warm store) =="
sweep > "$OUT_DIR/pass2.json"
AFTER2="$(sims)"
echo "pass 2 done: smtsimd_simulations_total=$AFTER2"

if ! diff -u "$OUT_DIR/pass1.json" "$OUT_DIR/pass2.json"; then
    echo "FAIL: warm-store sweep output diverges from the cold run" >&2
    exit 1
fi
if [ "$AFTER2" -ne "$AFTER1" ]; then
    echo "FAIL: warm pass performed $((AFTER2 - AFTER1)) simulation(s); the store should have served all of them" >&2
    exit 1
fi
echo "OK: second pass byte-identical with zero simulations"

metric() {
    curl -sf "http://$ADDR/metrics" | awk -v m="$1" '$1 == m {print $2}'
}

echo "== scrub pass over the warm store =="
# Wait for at least one full scrub pass to start after the store warmed.
BASE_PASSES="$(metric smtsimd_scrub_passes_total)"
for i in $(seq 1 50); do
    PASSES="$(metric smtsimd_scrub_passes_total)"
    [ "$PASSES" -gt "$BASE_PASSES" ] && break
    [ "$i" = 50 ] && { echo "FAIL: scrubber never ran a pass" >&2; exit 1; }
    sleep 0.2
done
sleep 1 # let the in-progress pass finish its (tiny) scan
CORRUPT="$(metric smtsimd_scrub_corrupt_total)"
QUARANTINED="$(metric smtsimd_store_disk_quarantines_total)"
SCANNED="$(metric smtsimd_scrub_scanned_total)"
echo "scrub: passes=$PASSES scanned=$SCANNED corrupt=$CORRUPT quarantined=$QUARANTINED"
if [ "$CORRUPT" -ne 0 ] || [ "$QUARANTINED" -ne 0 ]; then
    echo "FAIL: scrubbing a warm, healthy store flagged $CORRUPT corrupt / $QUARANTINED quarantined entries; a scrub over intact data must be a no-op" >&2
    exit 1
fi

echo "== pass 3 (post-scrub) =="
sweep > "$OUT_DIR/pass3.json"
AFTER3="$(sims)"
if ! diff -u "$OUT_DIR/pass1.json" "$OUT_DIR/pass3.json"; then
    echo "FAIL: post-scrub sweep output diverges from the cold run" >&2
    exit 1
fi
if [ "$AFTER3" -ne "$AFTER1" ]; then
    echo "FAIL: post-scrub pass performed $((AFTER3 - AFTER1)) simulation(s); the scrub must not evict or perturb the store" >&2
    exit 1
fi
echo "OK: scrub over the warm store was a no-op; third pass byte-identical with zero simulations"

echo "== checkpoint directory served as a store =="
CK="$OUT_DIR/ckpt"
sweep -checkpoint "$CK" > "$OUT_DIR/local.json"
if ! diff -u "$OUT_DIR/pass1.json" "$OUT_DIR/local.json"; then
    echo "FAIL: local checkpointed sweep diverges from the daemon sweep" >&2
    exit 1
fi
"$OUT_DIR/smtsimd" -addr "$CK_ADDR" -store-dir "$CK" &
CK_PID=$!
wait_up "$CK_ADDR"
sweep -backends "$CK_ADDR" > "$OUT_DIR/ckpt.json"
CK_SIMS="$(sims "$CK_ADDR")"
echo "checkpoint store pass done: smtsimd_simulations_total=$CK_SIMS"
if ! diff -u "$OUT_DIR/local.json" "$OUT_DIR/ckpt.json"; then
    echo "FAIL: sweep through a daemon serving the checkpoint diverges from the local run" >&2
    exit 1
fi
if [ "$CK_SIMS" -ne 0 ]; then
    echo "FAIL: the daemon serving the checkpoint performed $CK_SIMS simulation(s); every run was already in it" >&2
    exit 1
fi
echo "OK: checkpoint directory served as -store-dir, byte-identical with zero simulations"
