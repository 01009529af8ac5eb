#!/usr/bin/env bash
# Benchmark gate: the parent commit against the change, on identical
# benchmark code.
#
# Usage (from the repository root):
#
#     .github/bench-gate.sh PARENT_REF
#
# Checks PARENT_REF out as a detached worktree, copies this tree's
# bench/ and BENCHMARK.json into it, then runs `bench/run.py` (all four
# workloads) on both trees in pairs, seed i on each side, the side that
# goes first alternating, appending to parent.jsonl and change.jsonl
# here.  Exits with `bench/compare.py parent.jsonl change.jsonl`'s
# code: 1 when any end-to-end metric of any workload reads `worse`
# (bench/README.md).  One side of one pair takes about 105 s on a
# 2-vCPU VM.
set -euo pipefail

PAIRS=3
parent_ref=${1:?usage: $0 PARENT_REF}
change=$(pwd)
scratch=$(mktemp -d)
parent=$scratch/parent

cleanup() {
    git -C "$change" worktree remove --force "$parent" || true
    rm -rf "$scratch"
}
trap cleanup EXIT

git worktree add --detach "$parent" "$parent_ref"
rm -rf "$parent/bench"
cp -R bench BENCHMARK.json "$parent/"

# set-up time includes compiling the package when no bytecode cache
# exists; both sides run cold, so a cache on one side cannot skew
# `setup_s`
export PYTHONDONTWRITEBYTECODE=1
find "$change" "$parent" -name __pycache__ -type d -prune -exec rm -rf {} +

run_parent() { (cd "$parent" && python3 bench/run.py --seed "$1" --record "$change/parent.jsonl"); }
run_change() { python3 bench/run.py --seed "$1" --record "$change/change.jsonl"; }

rm -f parent.jsonl change.jsonl
for seed in $(seq 1 "$PAIRS"); do
    if (( seed % 2 )); then
        run_parent "$seed"; run_change "$seed"
    else
        run_change "$seed"; run_parent "$seed"
    fi
done
python3 bench/compare.py parent.jsonl change.jsonl
