#!/usr/bin/env bash
# Repeatability check: run the whole benchmark twice back to back on the
# same commit and compare.
#
#   benchmark/repeat.sh [--seed S] [--seconds N] [--quick] [--workload W]
#
# Per workload x end-to-end metric it prints both values, their relative
# difference and the metric's bound from BENCHMARK.json, and exits
# non-zero if a difference exceeds its bound. It also requires what must
# repeat exactly to do so: sim_digest, the virtual-time end-to-end
# metrics, and every per-layer metric that is a count or virtual time.
# Run it before claiming a gain: a difference between two commits means
# nothing while two runs of one commit differ by as much.
set -euo pipefail

dir=$(dirname "$0")
for half in a b; do
    echo "######## set $half"
    bash "$dir/run.sh" "$@" --out "$dir/out/repeat_$half"
done

python3 - "$dir/../BENCHMARK.json" "$dir/out/repeat_a" "$dir/out/repeat_b" <<'EOF'
import json, os, sys

spec, a_dir, b_dir = json.load(open(sys.argv[1])), sys.argv[2], sys.argv[3]
exact_units = {"count", "bytes", "sim_ms"}  # program counts and virtual time
bad = 0

def load(d, name):
    path = os.path.join(d, name)
    return json.load(open(path)) if os.path.exists(path) else None

print(f"{'workload':16} {'metric':18} {'first':>16} {'second':>16} {'diff':>8} {'bound':>7}")
for w in (w["name"] for w in spec["workloads"]):
    a, b = load(a_dir, f"{w}.json"), load(b_dir, f"{w}.json")
    if a and b:
        if (a["sim_digest"], a["ops_failed"], b["ops_failed"]) != (b["sim_digest"], 0, 0):
            print(f"{w:16} sim_digest or ops_failed differ: {a['sim_digest']}/{a['ops_failed']} vs {b['sim_digest']}/{b['ops_failed']}")
            bad += 1
        for m in spec["end_to_end"]:
            x, y = (r["metrics"][m["name"]]["value"] for r in (a, b))
            exact = m["unit"] in exact_units
            diff = abs(y - x) / abs(x) if x else float(y != x)
            ok = x == y if exact else diff <= m["bound"]
            bad += not ok
            bound = "exact" if exact else f"{100 * m['bound']:.1f}%"
            print(f"{w:16} {m['name']:18} {x:16.4f} {y:16.4f} {100 * diff:7.2f}% {bound:>7} {'' if ok else 'EXCEEDS'}")
    a, b = load(a_dir, f"layers_{w}.json"), load(b_dir, f"layers_{w}.json")
    if a and b:
        moved = [
            n for n, v in a["metrics"].items()
            if v["unit"] in exact_units and not n.startswith("bench.") and v["value"] != b["metrics"][n]["value"]
        ]
        if a["sim_digest"] != b["sim_digest"] or moved:
            print(f"{w:16} per-layer counts that did not repeat exactly: {moved or 'sim_digest'}")
            bad += 1

print("REPEATABLE within the bounds" if not bad else f"NOT REPEATABLE: {bad} check(s) failed")
sys.exit(1 if bad else 0)
EOF
