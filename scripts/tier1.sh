#!/usr/bin/env bash
# Tier-1 gate: release build + full workspace test suite, run twice —
# once forced serial and once under 4 threads. The parallel execution
# layer guarantees bitwise-identical results for any BASM_THREADS, so
# both passes must be green (see DESIGN.md §6).
#
# The telemetry layer (DESIGN.md §7) adds three more gates: the suite must
# stay green with `--features obs` under BASM_OBS=0 and BASM_OBS=1 (telemetry
# is purely observational — no computed bit may change), rustdoc must build
# without warnings, and every doctest must pass.
#
# The fault layer (DESIGN.md §8) mirrors the obs gates: with `--features
# faults` the suite must stay green both with injection disabled
# (BASM_FAULTS=0 — the pinned-exposure tests prove this path is bitwise
# identical to a build without the feature) and under a fixed nonzero
# ambient profile (every hop failing 5% of the time — the degradation
# ladder, not the tests, has to absorb it).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
cargo build --release

for threads in 1 4; do
    echo "== tier1: cargo test (BASM_THREADS=$threads) =="
    BASM_THREADS=$threads cargo test -q --workspace
done

# The buffer-recycling arena (DESIGN.md §9) must be purely an allocation
# strategy: the tensor determinism/gradcheck suites have to stay green — and
# bitwise identical — with the pool disabled (the cold pre-arena path) and
# enabled, including under threads. The serving suite rides the same sweep:
# the batched front-end (DESIGN.md §10) pins coalesced microbatch scoring
# bitwise-equal to sequential per-request scoring, and that pin must hold
# at any batch height.
for pool in 0 1; do
    echo "== tier1: basm-tensor tests (BASM_POOL=$pool, BASM_THREADS=4) =="
    BASM_POOL=$pool BASM_THREADS=4 cargo test -q -p basm-tensor --tests
    echo "== tier1: basm-serving tests (BASM_POOL=$pool, BASM_THREADS=4) =="
    BASM_POOL=$pool BASM_THREADS=4 cargo test -q -p basm-serving --tests
    echo "== tier1: basm-serving tests --features faults (BASM_POOL=$pool, BASM_FAULTS=0.05) =="
    BASM_POOL=$pool BASM_THREADS=4 BASM_FAULTS=0.05 \
        cargo test -q -p basm-serving --features faults --tests
done

# The SIMD kernel layer (DESIGN.md §14) must be a pure dispatch decision:
# scalar and vector lanes produce the same bits per element, so the tensor
# determinism/gradcheck suites and the serving equivalence pins have to stay
# green — and bitwise identical — with the lanes forced off and on, across
# the thread and pool dimensions the kernels compose with.
for simd in 0 1; do
    for threads in 1 4; do
        echo "== tier1: basm-tensor tests (BASM_SIMD=$simd, BASM_THREADS=$threads) =="
        BASM_SIMD=$simd BASM_THREADS=$threads cargo test -q -p basm-tensor --tests
    done
    for pool in 0 1; do
        echo "== tier1: basm-serving tests (BASM_SIMD=$simd, BASM_POOL=$pool, BASM_THREADS=4) =="
        BASM_SIMD=$simd BASM_POOL=$pool BASM_THREADS=4 \
            cargo test -q -p basm-serving --tests
    done
done

# The crash-consistency layer (DESIGN.md §13) adds two gates. First the
# kill-point sweeps: the packstore crash-sweep enumerates "die at IO op k,
# tear the last write at byte b" over checkpoint/compact/flush and proves
# reopen always lands on old-or-new state, and the serving crash suite kills
# a live replica (at request preps and inside WAL appends) and pins the
# supervised recovery bitwise-equal to the uninterrupted run. Second the WAL
# equivalence pair: journaling is a durability knob, never a bits knob, so
# the serving suite — including the frontend determinism pins and the
# recovery suite itself — must stay green with the WAL off and on.
#
# The embedding store (DESIGN.md §11) needs no leg of its own: it has one
# backend, and its twin tests compare tables with no directory against the
# same tables attached to a mapped pack directory in-process, so every run
# of the tensor and serving suites above covers both.
echo "== tier1: basm-tensor crash sweep (kill-point enumeration) =="
cargo test -q -p basm-tensor --test crash_sweep
echo "== tier1: basm-serving crash recovery (supervised restart pins) =="
cargo test -q -p basm-serving --test crash_recovery
for wal in 0 1; do
    echo "== tier1: basm-serving tests (BASM_WAL=$wal, BASM_THREADS=4) =="
    BASM_WAL=$wal BASM_THREADS=4 cargo test -q -p basm-serving --tests
done

for obs in 0 1; do
    echo "== tier1: cargo test --features obs (BASM_OBS=$obs) =="
    BASM_OBS=$obs cargo test -q --workspace --features obs
done

for bf in 0 0.05; do
    echo "== tier1: cargo test --features faults (BASM_FAULTS=$bf) =="
    BASM_FAULTS=$bf cargo test -q --workspace --features faults
done

echo "== tier1: cargo doc --no-deps (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== tier1: cargo test --doc =="
cargo test -q --doc --workspace

echo "== tier1: docs gate (link check) =="
bash scripts/check_docs.sh

echo "== tier1: OK =="
