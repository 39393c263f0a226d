#!/usr/bin/env bash
# Aggregate every results/BENCH_*.json into results/BENCH_summary.json:
# one row per bench with the gates it declares (its "gates" object of
# booleans) and, for a wall-clock bench, its declared headline and
# host_cores, plus an all_verified conjunction across every gate. Fails
# on an artifact that breaks that schema. Run from the repo root after
# regenerating artifacts; check.sh recomputes it and diffs the result.
set -euo pipefail
cd "$(dirname "$0")/.."

results_dir="${LMAS_RESULTS_DIR:-results}"
python3 - "$results_dir" <<'EOF'
import json, os, sys

results = sys.argv[1]
rows, all_verified = [], True
for name in sorted(os.listdir(results)):
    if not (name.startswith("BENCH_") and name.endswith(".json")) or name == "BENCH_summary.json":
        continue
    with open(os.path.join(results, name)) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            sys.exit(f"{name}: invalid JSON ({e})")
    row = {"file": name}
    if "headline" in doc:
        h = doc["headline"]
        if not (isinstance(h, dict) and isinstance(h.get("name"), str) and type(h.get("value")) in (int, float)):
            sys.exit(f"{name}: headline is not {{name, numeric value}}: {h!r}")
        if type(doc.get("host_cores")) is not int:
            sys.exit(f"{name}: a wall-clock artifact records host_cores")
        row["headline"] = h
        row["host_cores"] = doc["host_cores"]
    gates = doc.get("gates", {})
    for k, v in gates.items():
        if type(v) is not bool:
            sys.exit(f"{name}: gate {k} is not a boolean: {v!r}")
    if gates:
        row["gates"] = gates
        all_verified &= all(gates.values())
    rows.append(row)

summary = {
    "source": "scripts/bench_summary.sh",
    "benches": rows,
    "all_verified": all_verified,
}
out = os.path.join(results, "BENCH_summary.json")
with open(out, "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
print(f"[wrote {out}] ({len(rows)} benches, all_verified={all_verified})")
EOF
