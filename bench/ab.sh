#!/usr/bin/env bash
# Same-host A/B of the benchmark: the working tree (head) against a base
# revision, run in alternating order so host drift hits both sides.
#
#   bash bench/ab.sh <base-rev> [pairs]
#
# The base is checked out in a git worktree under .bench_build/ab, and
# the current bench/ and BENCHMARK.json are copied into it, so both
# sides run identical benchmark code and settings. Pair p runs every
# workload on both sides with -seed p; odd pairs run the base first.
# At least 10 pairs are needed for a verdict;
# WORKLOADS=a,b restricts the workloads. Results land in
# .bench_build/ab/results and the per-metric table is printed at the end.
set -euo pipefail

if [[ $# -lt 1 ]]; then
	echo "usage: bash bench/ab.sh <base-rev> [pairs]" >&2
	exit 2
fi
base_rev=$1
pairs=${2:-10}
if (( pairs < 10 )); then
	echo "ab.sh: $pairs pairs is fewer than the 10 a verdict needs; the table is indicative only" >&2
fi

repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
ab="$repo/.bench_build/ab"
wt="$ab/base"
results="$ab/results"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$repo/BENCHMARK.json")"
IFS=, read -r -a workloads <<< "${WORKLOADS:-sweep-1core,sweep-multicore,served-cold,served-warm}"

if [[ -e "$wt" ]]; then
	git -C "$repo" worktree remove --force "$wt"
fi
rm -rf "$results"
mkdir -p "$results"
git -C "$repo" worktree add --detach "$wt" "$base_rev" >/dev/null
trap 'git -C "$repo" worktree remove --force "$wt"' EXIT
rm -rf "$wt/bench"
cp -R "$repo/bench" "$wt/bench"
cp "$repo/BENCHMARK.json" "$wt/BENCHMARK.json"

run_side() { # side workload pair
	local dir=$repo
	[[ $1 == base ]] && dir=$wt
	(cd "$dir" && bash bench/run.sh -workload "$2" -seed "$3" -seconds "$seconds" -trace 0) | tail -n 1 > "$results/$1-$2-$3.json"
}

for (( p = 1; p <= pairs; p++ )); do
	order=(base head)
	(( p % 2 == 0 )) && order=(head base)
	for w in "${workloads[@]}"; do
		for side in "${order[@]}"; do
			echo "ab.sh: pair $p/$pairs $w $side" >&2
			run_side "$side" "$w" "$p"
		done
	done
done

cd "$repo"
"$repo/.bench_build/bench" -compare "$results"
