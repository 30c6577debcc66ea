#!/usr/bin/env bash
# Tier-1 gate: release build, the workspace suite in the plain, `obs` and
# `faults` builds, rustdoc with warnings denied, and the docs gate.
#
# Execution modes are not swept by relaunching the suite under different
# environments. Every bits-invariant mode — worker threads, SIMD lanes, the
# online-state WAL, telemetry — is crossed in one process by
# `crates/serving/tests/mode_matrix.rs`, which asserts one digest for a BASM
# train step, a served request, a load schedule and two crash-recovered
# schedules (DESIGN.md §6, §13, §14). Buffer recycling has no off switch;
# its poisoned-vs-cleared pins run in the plain launch (DESIGN.md §9). The
# plain launch also runs every doctest and both crash suites (`crash_sweep`,
# `crash_recovery`).
#
# The `obs` launch compiles telemetry in; `mode_matrix` and
# `parallel_determinism` flip it on and off in-process (DESIGN.md §7). The
# `faults` launch runs under a fixed nonzero ambient profile (every hop
# failing 5% of the time — the degradation ladder, not the tests, has to
# absorb it); every bits pin calls `set_faults(None)`, so the same launch
# also runs the injector-free faults build (DESIGN.md §8).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
cargo build --release

echo "== tier1: cargo test =="
cargo test -q --workspace

echo "== tier1: cargo test --features obs =="
cargo test -q --workspace --features obs

echo "== tier1: cargo test --features faults (BASM_FAULTS=0.05) =="
BASM_FAULTS=0.05 cargo test -q --workspace --features faults

echo "== tier1: cargo doc --no-deps (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== tier1: docs gate (links, env knobs) =="
bash scripts/check_docs.sh

echo "== tier1: OK =="
