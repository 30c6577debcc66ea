#!/usr/bin/env bash
# Build the benchmark and run it from the repository root.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#
# With --workload, runs that workload and its last line of output is the
# JSON result. Without it, runs all four workloads one after another, each
# in its own process so heap, buffer pool and peak RSS start fresh; the exit
# code is non-zero if any of them failed.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/basm-benchmark"

# Never look for a repository above this directory.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse --short HEAD 2>/dev/null || echo unknown)
echo "# commit $commit"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

status=0
for w in serve_steady serve_unique microbatch train; do
    "$bin" --workload "$w" "$@" || status=$?
done
exit "$status"
