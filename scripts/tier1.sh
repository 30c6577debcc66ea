#!/usr/bin/env bash
# Tier-1 gate: the benchmark's lock file check, release build, one
# workspace test launch, rustdoc with warnings denied, and the docs gate.
#
# There is one build and the suite runs once. Execution modes are not swept
# by relaunching the suite under different builds or environments: every
# bits-invariant mode — worker threads, SIMD lanes, the online-state WAL,
# telemetry — is crossed in one process by
# `crates/serving/tests/mode_matrix.rs`, which asserts one digest for a BASM
# train step, a served request, a load schedule and two crash-recovered
# schedules (DESIGN.md §6, §7, §13, §14). Fault injection is attached per
# pipeline, so the degradation ladder's tests — including a faulted A/B run
# (`crates/serving/tests/fault_ladder.rs`) — sit in the same launch
# (DESIGN.md §8). Buffer recycling has no off switch; its poisoned-vs-cleared
# pins run here too (DESIGN.md §9), as do every doctest and both crash
# suites (`crash_sweep`, `crash_recovery`).
set -euo pipefail
cd "$(dirname "$0")/.."

# `benchmark/` is a package of its own with its own lock file, built from
# the library crates' manifests. A manifest change that would make cargo
# rewrite that lock (a dependency added to or dropped from a crate the
# benchmark builds) fails here instead of silently changing the benchmark.
echo "== tier1: benchmark lock file is current =="
cargo metadata --locked --offline --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null

echo "== tier1: cargo build --release =="
cargo build --release

echo "== tier1: cargo test =="
cargo test -q --workspace

echo "== tier1: cargo doc --no-deps (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== tier1: docs gate (links, env knobs, cargo features) =="
bash scripts/check_docs.sh

echo "== tier1: OK =="
