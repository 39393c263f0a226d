#!/usr/bin/env bash
# Quick wall-clock sanity pass over the kernel benches.
#
# Builds release, runs the kernel, simulator and GIS microbenches with a
# reduced iteration count (override with LMAS_BENCH_ITERS), and leaves
# the ns/unit numbers in results/BENCH_kernels.json,
# results/BENCH_sim.json and results/BENCH_gis.json. Expected shape:
# radix_sort beats comparison_sort on Rec128, packet fan-out is ~0
# ns/record (O(1) Arc clone, not a deep copy), calendar schedule+pop
# stays within a few tens of ns per event, and the external PQ costs
# about the same per item in memory as spilling (a few tens of ns).
set -euo pipefail
cd "$(dirname "$0")/.."

export LMAS_BENCH_ITERS="${LMAS_BENCH_ITERS:-7}"
# cargo bench runs with cwd = the bench package; pin output to the
# repo-root results/ dir regardless.
export LMAS_RESULTS_DIR="${LMAS_RESULTS_DIR:-$PWD/results}"

echo "== cargo build --release =="
cargo build --release -q

echo "== kernel benches (LMAS_BENCH_ITERS=$LMAS_BENCH_ITERS) =="
cargo bench -q -p lmas-bench --bench kernels

echo "== simulator microbenches (LMAS_BENCH_ITERS=$LMAS_BENCH_ITERS) =="
cargo bench -q -p lmas-bench --bench sim_micro

echo "== GIS microbenches (LMAS_BENCH_ITERS=$LMAS_BENCH_ITERS) =="
cargo bench -q -p lmas-bench --bench gis_micro

echo
echo "== $LMAS_RESULTS_DIR/BENCH_kernels.json =="
cat "$LMAS_RESULTS_DIR/BENCH_kernels.json"

echo
echo "== $LMAS_RESULTS_DIR/BENCH_sim.json =="
cat "$LMAS_RESULTS_DIR/BENCH_sim.json"

echo
echo "== $LMAS_RESULTS_DIR/BENCH_gis.json =="
cat "$LMAS_RESULTS_DIR/BENCH_gis.json"
