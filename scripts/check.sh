#!/usr/bin/env bash
# Full correctness gate: every workspace test plus lint-clean clippy.
# Run from the repo root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

# run_twice BIN: run lmas-bench's release binary BIN twice at full scale,
# each run with its own scratch LMAS_RESULTS_DIR ($R1, $R2) holding its
# stdout as .stdout.
run_twice() {
    R1="$(mktemp -d)"; R2="$(mktemp -d)"
    local d
    for d in "$R1" "$R2"; do
        LMAS_SCALE=1 LMAS_RESULTS_DIR="$d" "./target/release/$1" > "$d/.stdout" || {
            echo "$1 exited non-zero (a false gate is named above)" >&2
            exit 1
        }
    done
}

echo "== cargo test (workspace) =="
# Every crate's tests run here, once; the gates below add only what a
# test cannot (release binaries run twice and diffed, checks on the
# checked-in artifacts). The parallel kernel's pins are tests too:
# lmas-sort's par_golden holds the frozen sequential goldens at threads
# 2 and 4, par_diff fuzzes cluster shapes x fault plans x the balancer
# across thread counts against the sequential run.
cargo test -q --workspace

echo "== cargo clippy -D warnings (workspace, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings (workspace, no deps) =="
# A deleted or renamed item must not leave a dangling intra-doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

cargo build -q --release -p lmas-bench --bins

echo "== determinism gate (seeded emulation + chaos + planned + parallel runs, twice, diff) =="
# The determinism binary covers the fault-free pinned sort, a pinned
# chaos run (ASU crash + lossy link), a planner-placed run with the
# balancer armed, a threads=4 partitioned run, a faulted partitioned
# run (static timelines + per-partition controllers), and a
# snapshot-balanced partitioned run: bounces, retries, fencing, repair,
# plan reports, reweights, and the parallel kernel's merged reports
# must all be run-to-run stable despite real thread interleaving. Both
# runs must also equal results/determinism.txt, the binary's recorded
# stdout: a change that means to move virtual time re-records it
# (./target/release/determinism > results/determinism.txt) and says why.
run_twice determinism
if ! diff results/determinism.txt "$R1/.stdout" || ! diff results/determinism.txt "$R2/.stdout"; then
    echo "determinism gate FAILED: the pinned emulation's runs differ from each other or from results/determinism.txt" >&2
    exit 1
fi
cat "$R1/.stdout"

echo "== artifact gate (every deterministic artifact at full scale, twice, against results/) =="
# Each row runs BIN twice at full scale; each run's artifacts must equal
# the checked-in results/ copies byte for byte, after dropping the lines
# that match FILTER (wall-clock fields). A binary whose declared gate is
# false exits non-zero, which fails the row. A change that means to move
# a figure re-records the artifact (./target/release/BIN from the repo
# root writes results/) and says why.
#   BIN              ARTIFACTS (comma-separated)                FILTER
artifacts="
    fig9             fig9_speedup.csv
    fig10            fig10_utilization.csv
    work_table       work_table.csv
    c_sensitivity    c_sensitivity.csv
    gamma_split      gamma_split.csv
    routing_ablation routing_ablation.csv
    interference     interference.csv
    rtree_layouts    rtree_layouts.csv,rtree_hot_region.csv
    terraflow_steps  terraflow_steps.csv
    fault_sweep      BENCH_faults.json
    disk_scaling     BENCH_storage.json
    placement_sweep  BENCH_placement.json
    coded_shuffle    BENCH_coded.json
    repair_fleet     BENCH_repair.json
    multi_tenant     BENCH_sched.json
    par_scaling      BENCH_par_sim.json                         barrier_wait_hist|host_cores
"
# strip FILTER FILE: FILE without the lines matching FILTER, if any.
strip() { if [ -n "$1" ]; then grep -Ev -- "$1" "$2"; else cat "$2"; fi; }
while read -r bin files filter; do
    [ -n "$bin" ] || continue
    run_twice "$bin"
    for f in ${files//,/ }; do
        for d in "$R1" "$R2"; do
            diff <(strip "$filter" "results/$f") <(strip "$filter" "$d/$f") || {
                echo "artifact gate FAILED: $bin no longer reproduces results/$f" >&2
                exit 1
            }
        done
    done
done <<< "$artifacts"
echo "artifacts verified (every deterministic artifact reproduced twice, byte for byte)"

echo "== gate summary (BENCH_summary.json recomputed from the checked-in artifacts) =="
# Every gate is a declared boolean and every wall-clock artifact carries a
# headline and host_cores; the summary must be current and all green.
bs="$(mktemp -d)"
cp results/BENCH_*.json "$bs/"
LMAS_RESULTS_DIR="$bs" scripts/bench_summary.sh > /dev/null
diff results/BENCH_summary.json "$bs/BENCH_summary.json" || {
    echo "gate summary FAILED: results/BENCH_summary.json is stale (re-run scripts/bench_summary.sh)" >&2
    exit 1
}
grep -q '"all_verified": true' results/BENCH_summary.json || {
    echo "gate summary FAILED: a declared gate is false in results/" >&2
    exit 1
}
echo "gate summary verified (summary current, all_verified true)"

echo "== wall-clock benchmark gate (harness self-tests + every workload at --quick) =="
# benchmark/ is a package of its own (own lockfile and target dir), so
# the workspace test above does not reach it. The self-tests hold the
# traced recomposition to the untraced entry points; the --quick pass
# runs all six workloads in both modes and verifies every output (it
# times nothing worth reading: 2 reps each).
cargo test -q --offline --manifest-path benchmark/Cargo.toml
bq="$(mktemp -d)"
benchmark/run.sh --quick --out "$bq" > /dev/null
for f in "$bq"/*.json; do
    case "$f" in */trace_*) continue ;; esac
    if ! grep -q '"correct": true' "$f" || ! grep -q '"ops_failed": 0' "$f"; then
        echo "benchmark gate FAILED: $(basename "$f") reports an incorrect run or failed operations" >&2
        exit 1
    fi
done
echo "benchmark verified (self-tests pass; all workloads correct, ops_failed = 0)"

echo "check.sh: all green"
