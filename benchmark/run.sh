#!/usr/bin/env bash
# The benchmark's one command: build release, then measure.
#
#   benchmark/run.sh [--workload W] [--trace 0|1] [--seed S] [--seconds N] [--quick] [--out DIR]
#
# Every workload runs in its own process (so peak RSS is per workload),
# untraced (--trace 0: end-to-end metrics) and traced (--trace 1:
# per-layer metrics and a Chrome trace). Without --workload all six run;
# without --trace both modes run. Each run prints its metrics by name and
# unit, ends with one JSON line, and writes DIR/<W>.json (untraced) or
# DIR/layers_<W>.json + DIR/trace_<W>.json (traced); DIR defaults to
# benchmark/out. See README.md.
set -euo pipefail

dir=$(dirname "$0")
workloads="sort_default sort_bulk fleet_chaos fleet_chaos_par sched_mix terraflow"
traces="0 1"
out=$dir/out
single=0
pass=()
while (($#)); do
    case $1 in
        --workload) workloads=$2; single=$((single + 1)); shift 2 ;;
        --trace) traces=$2; single=$((single + 1)); shift 2 ;;
        --out) out=$2; shift 2 ;;
        *) pass+=("$1"); shift ;;
    esac
done

cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$dir/target}/release/lmas-benchmark"

# Keep freed memory inside the process. With glibc's defaults the
# multi-megabyte record buffers of every rep are unmapped and mapped
# afresh (sort_default: 1276 page faults per 5 ms rep), and rep time then
# follows what a first touch of a page costs in this VM at the moment,
# which varies by tens of percent between runs. Pinned here so that parent
# and change are measured under the same allocator settings.
export MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=1073741824 MALLOC_TOP_PAD_=67108864

LMAS_BENCH_RUSTC=$(rustc --version 2>/dev/null || echo unknown)
LMAS_BENCH_COMMIT=$(git -C "$dir" rev-parse --short HEAD 2>/dev/null || echo unknown)
export LMAS_BENCH_RUSTC LMAS_BENCH_COMMIT

# One workload in one mode: the run's own output and exit code stand.
if ((single == 2)); then
    exec "$bin" --workload "$workloads" --trace "$traces" --out "$out" ${pass[@]+"${pass[@]}"}
fi

incorrect=()
for w in $workloads; do
    for t in $traces; do
        "$bin" --workload "$w" --trace "$t" --out "$out" ${pass[@]+"${pass[@]}"}
        if [[ $t == 1 ]]; then written=$out/layers_$w.json; else written=$out/$w.json; fi
        grep -q '"correct": true' "$written" || incorrect+=("$w/trace=$t")
        echo
    done
done
if ((${#incorrect[@]})); then
    echo "INCORRECT OR FAILED OPERATIONS: ${incorrect[*]}"
    exit 1
fi
echo "all runs correct, no failed operations"
