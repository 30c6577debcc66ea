#!/usr/bin/env bash
# Build the benchmark, run its self-tests, then a smoke pass (--seconds 2
# per workload, the same code paths) of every workload in BENCHMARK.json,
# untraced and traced. Fails unless every run is correct and prints every
# metric BENCHMARK.json names for its mode.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
    for trace in 0 1; do
        echo "== $w --trace $trace" >&2
        bash benchmark/run.sh --workload "$w" --seed 1 --seconds 2 --trace "$trace" | tail -n 1 |
            python3 -c '
import json, sys
spec = json.load(open("BENCHMARK.json"))
trace = sys.argv[1] == "1"
want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
res = json.loads(sys.stdin.read())
got = {k: v["unit"] for k, v in res["metrics"].items()}
assert res["correct"] is True and res["failed"] == 0, res
assert got == want, ("metrics differ from BENCHMARK.json", sorted(set(got) ^ set(want)))
' "$trace"
    done
done
echo "benchmark ci: ok" >&2
