#!/usr/bin/env bash
# Quick check: build the benchmark offline, then run every workload briefly
# (one untraced and one traced run each, correctness gate on) and print
# every metric. Exits non-zero when a build, a run or the gate fails.
#
#   coldbench/quick.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
bench=(cargo run --release --offline --quiet --manifest-path coldbench/Cargo.toml --)
cargo build --release --offline --quiet --manifest-path coldbench/Cargo.toml
status=0
for w in paper-matrix tenant-churn conflict-dynamic; do
    for t in 0 1; do
        echo "== $w, seed $seed, trace $t"
        line="$("${bench[@]}" --workload "$w" --seed "$seed" --seconds 1 --trace "$t" | tail -n 1)"
        python3 - "$line" <<'PY' || status=1
import json, sys
r = json.loads(sys.argv[1])
print(f"   correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
for name, m in r["metrics"].items():
    print(f"   {name:34s} {m['value']:>18.6g} {m['unit']}")
sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)
PY
    done
done
exit "$status"
