#!/usr/bin/env bash
# Full correctness gate: every workspace test plus lint-clean clippy.
# Run from the repo root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

# run_twice_diff FAIL_MSG BIN ENV WHAT [FILTER [RECORDED]]
# Build lmas-bench's release binary BIN and run it twice, each run with
# the space-separated ENV assignments and its own scratch
# LMAS_RESULTS_DIR. Exit 1 with FAIL_MSG and the diff unless both runs
# agree on WHAT: `stdout`, an artifact file name, or `stdout+ARTIFACT`.
# Lines matching the optional FILTER regex are dropped before comparing
# (wall-clock noise). Stdout has the run's results dir rewritten to
# RESULTS; run 1's copy is left at $RTD_STDOUT for the caller to print.
# With RECORDED, both runs' stdout must also equal that checked-in file.
run_twice_diff() {
    local msg="$1" bin="$2" envs="$3" what="$4" filter="${5:-}" recorded="${6:-}"
    cargo build -q --release -p lmas-bench --bin "$bin"
    local d d1 d2 f out=""
    d1="$(mktemp -d)"; d2="$(mktemp -d)"
    for d in "$d1" "$d2"; do
        # shellcheck disable=SC2086  # ENV is a word list by contract
        env $envs LMAS_RESULTS_DIR="$d" "./target/release/$bin" | sed "s|$d|RESULTS|" > "$d/.stdout"
    done
    for f in ${what//+/ }; do
        [ "$f" = stdout ] && f=.stdout
        if [ -n "$filter" ]; then
            out+="$(diff <(grep -v -- "$filter" "$d1/$f") <(grep -v -- "$filter" "$d2/$f") || true)"
        else
            out+="$(diff "$d1/$f" "$d2/$f" || true)"
        fi
    done
    if [ -n "$recorded" ]; then
        out+="$(diff "$recorded" "$d1/.stdout" || true)$(diff "$recorded" "$d2/.stdout" || true)"
    fi
    if [ -n "$out" ]; then
        echo "$msg" >&2
        echo "$out" >&2
        exit 1
    fi
    RTD_STDOUT="$d1/.stdout"
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
run_twice_diff "determinism gate FAILED: the pinned emulation's runs differ from each other or from results/determinism.txt" \
    determinism "" stdout "" results/determinism.txt
cat "$RTD_STDOUT"

echo "== parallel scaling gate (par_scaling at reduced scale, twice, diff; speedup regression guard) =="
# Faulted-parallel determinism: the BENCH-par-sim sweep (fault-free,
# faulted, and faulted+balanced variants at threads 1/2/4/8) must be
# byte-identical across two runs. barrier_wait_hist is wall-clock
# scheduling noise — stripped before the diff; every other figure is
# virtual time and must be stable.
run_twice_diff "parallel scaling gate FAILED: two par_scaling runs differ" \
    par_scaling "LMAS_SCALE=${LMAS_PAR_SCALE:-0.1}" BENCH_par_sim.json barrier_wait_hist
# Bench-regression guard: the checked-in full-scale artifact must still
# assert both dispatch-speedup gates (the binary writes `false` — and
# aborts — when a gate misses at full scale).
grep -q '"verified_speedup_ge_4_5_at_8_threads_256_nodes": true' results/BENCH_par_sim.json || {
    echo "bench regression: fault-free 8-thread speedup gate missing from results/BENCH_par_sim.json" >&2
    exit 1
}
grep -q '"verified_faulted_balanced_speedup_ge_2_at_4_threads_256_nodes": true' results/BENCH_par_sim.json || {
    echo "bench regression: faulted 4-thread speedup gate missing from results/BENCH_par_sim.json" >&2
    exit 1
}
echo "parallel scaling verified (artifact deterministic; speedup gates hold in checked-in results)"

echo "== chaos recovery gate (fault_sweep at full scale, twice, diff; equals results/BENCH_faults.json) =="
# Every cell of the sweep verifies its recovered output byte-identical
# to the fault-free golden run (the binary asserts it). A full-scale run
# takes well under a second, so the gate reruns it and fails when the
# current binary no longer reproduces the checked-in artifact. A change
# that means to move these figures re-records the artifact
# (./target/release/fault_sweep writes results/BENCH_faults.json) and
# says why.
run_twice_diff "chaos recovery gate FAILED: two fault_sweep runs differ" \
    fault_sweep "LMAS_SCALE=1" BENCH_faults.json
diff results/BENCH_faults.json "$(dirname "$RTD_STDOUT")/BENCH_faults.json" || {
    echo "chaos recovery gate FAILED: BENCH_faults.json differs from the checked-in results/BENCH_faults.json" >&2
    exit 1
}
echo "fault sweep verified (every masked run byte-identical after repair; artifact as recorded)"

echo "== planner smoke (placement sweep at reduced scale, twice, diff) =="
# Every cell asserts planned <= both naive layouts and that an
# always-in-deadband balancer leaves the planned run untouched; the
# JSON artifact must also be byte-identical across runs.
run_twice_diff "planner smoke FAILED: two placement_sweep runs differ" \
    placement_sweep "LMAS_SCALE=${LMAS_PLAN_SCALE:-0.25}" BENCH_placement.json
echo "placement sweep verified (planned never loses to naive layouts; artifact deterministic)"

echo "== storage substrate smoke (disk_scaling at tiny n, twice, diff) =="
# The multi-disk/pool/read-ahead bench must be run-to-run byte-identical
# in all printed virtual-time figures and in its JSON artifact.
run_twice_diff "storage smoke FAILED: two disk_scaling runs differ" \
    disk_scaling "LMAS_SCALE=0.05" stdout+BENCH_storage.json
echo "disk_scaling deterministic (stdout + JSON byte-identical across runs)"

echo "== coded shuffle smoke (coded_shuffle at reduced scale, twice, diff) =="
# Coded-shuffle distribute: the r-sweep, planner agreement checks, the
# threads {1,2,4} byte-identity gate, and the r=1-vs-uncoded gate must
# all be run-to-run byte-identical (the thread and r=1 gates are hard
# asserts at any scale; the tracking/agreement gates are asserted at
# full scale and recorded as verified_* booleans here).
run_twice_diff "coded shuffle smoke FAILED: two coded_shuffle runs differ" \
    coded_shuffle "LMAS_SCALE=${LMAS_CODED_SCALE:-0.25}" BENCH_coded.json
# Bench-regression guard: the checked-in full-scale artifact must carry
# all four verified gates (the binary aborts before writing `true` when
# a gate misses at full scale).
for gate in verified_inverse_r_tracking verified_planner_agreement \
            verified_threads_identical verified_r1_matches_uncoded; do
    grep -q "\"$gate\": true" results/BENCH_coded.json || {
        echo "bench regression: $gate missing from results/BENCH_coded.json" >&2
        exit 1
    }
done
echo "coded shuffle verified (1/r tracking + planner agreement hold in checked-in results; artifact deterministic)"

echo "== repair smoke (fleet durability sweep at reduced scale, twice, diff) =="
# Background re-replication: every cell of the fleet × bandwidth sweep
# asserts its measured replica trajectory against the mean-field ODE
# (the binary aborts on a miss), and the JSON artifact must be
# byte-identical across runs. The determinism binary's repair/parrepair
# sections already pin the same engine across thread counts above.
run_twice_diff "repair smoke FAILED: two repair_fleet runs differ" \
    repair_fleet "LMAS_SCALE=${LMAS_REPAIR_SCALE:-0.1}" BENCH_repair.json
# Bench-regression guard: the checked-in full-scale artifact must carry
# the mean-field validation stamp (the binary aborts before writing it
# when any cell misses its tolerance).
grep -q '"verified_mean_field"' results/BENCH_repair.json || {
    echo "bench regression: mean-field stamp missing from results/BENCH_repair.json" >&2
    exit 1
}
echo "repair fleet verified (ODE tolerances hold; artifact deterministic)"

echo "== scheduler smoke (multi_tenant, twice, diff; latency gates) =="
# Multi-tenant scheduler: every >=70%-utilization cell asserts aware
# (residual-planned) placement beats the naive static stack on both
# p50 and p99 latency (the binary aborts on a miss), deep queues admit
# everything, and one cell re-runs byte-identically.
run_twice_diff "scheduler smoke FAILED: two multi_tenant runs differ" \
    multi_tenant "" BENCH_sched.json
# Bench-regression guard: the checked-in artifact must carry all four
# verified gates (the binary aborts before writing them on a miss).
for gate in verified_aware_beats_naive_p50_at_70pct verified_aware_beats_naive_p99_at_70pct \
            verified_all_admitted_complete verified_deterministic; do
    grep -q "\"$gate\": true" results/BENCH_sched.json || {
        echo "bench regression: $gate missing from results/BENCH_sched.json" >&2
        exit 1
    }
done
echo "multi-tenant scheduler verified (aware beats naive at >=70% util on p50+p99; artifact deterministic)"

echo "== GIS gate (terraflow_steps at full scale, twice, diff; equals results/terraflow_steps.csv) =="
# TerraFlow's per-step virtual times on the 257 x 257 terrain: the
# binary audits its labels against the sequential oracle, two runs must
# agree byte for byte, and the CSV must equal the checked-in one. Step
# 3's cost reads the time-forward queue's length per packet, so a queue
# that ever holds a different number of messages moves step3_s. A change
# that means to move virtual time re-records the CSV and says why.
run_twice_diff "GIS gate FAILED: two terraflow_steps runs differ" \
    terraflow_steps "" stdout+terraflow_steps.csv
diff results/terraflow_steps.csv "$(dirname "$RTD_STDOUT")/terraflow_steps.csv" || {
    echo "GIS gate FAILED: terraflow_steps.csv differs from the checked-in results/terraflow_steps.csv" >&2
    exit 1
}
echo "terraflow verified (labels match the oracle; step times deterministic and as recorded)"

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
