#!/usr/bin/env bash
# check_fma.sh — fail if the compiler fuses a multiply-add anywhere in
# the module's non-test packages.
#
# Go lets a compiler fuse x*y + z into one instruction with a single
# rounding. The amd64 compiler does not, but the arm64, ppc64le, s390x
# and riscv64 compilers do, and a fused op can change a result's bytes
# on those machines (DESIGN.md §6). An explicit conversion, float64(x*y),
# keeps the product rounded on its own. This script cross-compiles every
# package for those four architectures with -gcflags=-S and lists each
# fused instruction with its source line.
#
# Run from anywhere: ./scripts/check_fma.sh
set -euo pipefail

cd "$(dirname "$0")/.."

asm="$(mktemp)"
trap 'rm -f "$asm" "$asm.hits"' EXIT

found=0
for arch in arm64 ppc64le s390x riscv64; do
    if ! GOOS=linux GOARCH="$arch" go build -gcflags=-S ./... >"$asm" 2>&1; then
        cat "$asm" >&2
        exit 1
    fi
    # arm64 and riscv64 spell them FMADDD/FMSUBD/FNMADDD/FNMSUBD,
    # ppc64le and s390x FMADD/FMSUB/FNMADD/FNMSUB; S marks float32.
    if grep -E $'\t(FN?M(ADD|SUB)[DS]?)\t' "$asm" >"$asm.hits"; then
        echo "fused multiply-add on $arch:" >&2
        sed -E -e 's/^[[:space:]]*0x[0-9a-f]+ [0-9]+ //' -e "s#\($PWD/#(#" "$asm.hits" >&2
        found=1
    fi
    rm -f "$asm.hits"
done
if [ "$found" -ne 0 ]; then
    echo "check_fma: round each product with an explicit float64(x*y) conversion" >&2
    exit 1
fi
echo "check_fma: no fused multiply-add on arm64, ppc64le, s390x or riscv64"
