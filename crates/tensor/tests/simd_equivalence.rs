//! SIMD-vs-scalar bitwise equivalence, and the GEMM kernel's bitwise pins.
//!
//! The `basm_tensor::simd` contract: the SIMD toggle moves wall-clock only.
//! Lanes map to distinct output elements, no accumulation chain is split,
//! and no FMA contraction is emitted — so the GEMM kernel's 16-lane AVX-512,
//! 8-lane AVX, 4-lane SSE2 and scalar backends, and the slice kernels'
//! inlined and AVX instances of their one scalar body, round identically
//! per element. These tests sweep every remainder-handling edge (`m`, `k`,
//! `n` in `1 ..= 2·MAX_LANES + 1`, i.e. past two full 16-lane vectors plus
//! a ragged tail) and compare raw bits between forced-off and forced-on runs
//! of the same computation. Forced on is the widest backend the CPU has;
//! the GEMM kernel's narrower backends are pinned by `linalg`'s unit tests.
//! The tensor crate builds optimized in the test profile (root
//! `Cargo.toml`), so the AVX instances compared here are vectorized code.

use basm_tensor::{linalg, pool, simd, Graph, Prng, Tensor};
use proptest::prelude::*;
use std::sync::Mutex;

/// The SIMD override is process-global; serialize tests that flip it.
static SETTINGS: Mutex<()> = Mutex::new(());

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Run `f` twice — SIMD forced off, then forced on — and return both results.
fn scalar_vs_simd<R>(f: impl Fn() -> R) -> (R, R) {
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    simd::set_simd(false);
    let scalar = f();
    simd::set_simd(true);
    let vector = f();
    (scalar, vector)
}

/// Dimension range covering sub-lane, exactly-one-lane, multi-lane and
/// ragged-tail shapes for the 4-, 8- and 16-lane backends: `n` reaches the
/// 32-wide two-vector tile, the 16-wide tile and the 8-lane AVX tail.
const DIM_MAX: usize = 2 * simd::MAX_LANES + 1;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three GEMM entry points, bitwise, across the full remainder grid.
    #[test]
    fn matmul_family_simd_matches_scalar(
        m in 1..=DIM_MAX,
        k in 1..=DIM_MAX,
        n in 1..=DIM_MAX,
        seed in 0u64..1000,
    ) {
        let mut rng = Prng::seeded(seed + 1);
        let a = rng.randn(m, k, 1.0);
        let b = rng.randn(k, n, 1.0);
        let at = a.transposed();
        let bt = b.transposed();
        let (s, v) = scalar_vs_simd(|| {
            (
                bits(&linalg::matmul(&a, &b)),
                bits(&linalg::matmul_at_b(&at, &b)),
                bits(&linalg::matmul_a_bt(&a, &bt)),
            )
        });
        prop_assert_eq!(s, v);
    }

    /// Elementwise graph ops (add/sub/mul, scale, add_scalar) and the
    /// broadcast forms (add_row/mul_row/add_col/mul_col), bitwise.
    #[test]
    fn elementwise_simd_matches_scalar(
        m in 1..=DIM_MAX,
        n in 1..=DIM_MAX,
        c in -3.0f32..3.0,
        seed in 0u64..1000,
    ) {
        let mut rng = Prng::seeded(seed + 7);
        let x = rng.randn(m, n, 1.0);
        let y = rng.randn(m, n, 1.0);
        let row = rng.randn(1, n, 1.0);
        let col = rng.randn(m, 1, 1.0);
        let (s, v) = scalar_vs_simd(|| {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let yv = g.input(y.clone());
            let rv = g.input(row.clone());
            let cv = g.input(col.clone());
            let ops = [
                g.add(xv, yv),
                g.sub(xv, yv),
                g.mul(xv, yv),
                g.scale(xv, c),
                g.add_scalar(xv, c),
                g.add_row(xv, rv),
                g.mul_row(xv, rv),
                g.add_col(xv, cv),
                g.mul_col(xv, cv),
            ];
            ops.iter().map(|&o| bits(g.value(o))).collect::<Vec<_>>()
        });
        prop_assert_eq!(s, v);
    }

    /// Softmax (plain and through the composite graph backward), bitwise.
    /// The max/exp/sum folds stay serial; the sub-max and normalize passes
    /// are the lanes under test.
    #[test]
    fn softmax_and_backward_simd_matches_scalar(
        m in 1..=DIM_MAX,
        n in 1..=DIM_MAX,
        seed in 0u64..1000,
    ) {
        let mut rng = Prng::seeded(seed + 13);
        let x = rng.randn(m, n, 2.0);
        let (s, v) = scalar_vs_simd(|| {
            let mut g = Graph::new();
            let xv = g.input_with_grad(x.clone());
            let sm = g.softmax_rows(xv);
            let sq = g.square(sm);
            let loss = g.mean_all(sq);
            g.backward(loss);
            (
                bits(g.value(sm)),
                bits(g.grad(xv).expect("softmax input grad")),
            )
        });
        prop_assert_eq!(s, v);
    }
}

/// The remainder grid above sits below the elementwise dispatcher's
/// wide-slice threshold (short slices run the scalar loop in both modes by
/// design), so this sweep pins the *wide* region too: widths straddling the
/// threshold and every lane width's tails, where the AVX/SSE slice bodies
/// execute. The matmuls ride along at the same widths.
#[test]
fn wide_slices_simd_matches_scalar_bitwise() {
    for n in [63usize, 64, 65, 80, 127, 128, 129, 137, 200] {
        let mut rng = Prng::seeded(200 + n as u64);
        let (m, k) = (5, 9);
        let a = rng.randn(m, k, 1.0);
        let b = rng.randn(k, n, 1.0);
        let at = a.transposed();
        let bt = b.transposed();
        let sm_in = rng.randn(3, n, 2.0);
        let (s, v) = scalar_vs_simd(|| {
            let mut g = Graph::new();
            let xv = g.input(sm_in.clone());
            let sm = g.softmax_rows(xv);
            (
                bits(&linalg::matmul(&a, &b)),
                bits(&linalg::matmul_at_b(&at, &b)),
                bits(&linalg::matmul_a_bt(&a, &bt)),
                bits(g.value(sm)),
            )
        });
        assert_eq!(s, v, "wide-slice divergence at n={n}");
    }
}

/// Reference for the kernel pins: the naive `p`-ascending triple loop,
/// `acc = 0.0; acc += a·b`, over row-major `a: [m,k]`, `b: [k,n]`.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let ((m, k), n) = (a.shape(), b.cols());
    let (ad, bd) = (a.data(), b.data());
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ad[i * k + p] * bd[p * n + j];
            }
            out.push(acc);
        }
    }
    out
}

/// Run `f` under every bits-invariant kernel mode: `BASM_THREADS` 1 and 4
/// (with the parallelism threshold at zero, so even one-row outputs take
/// the partitioned path) × SIMD off and on.
fn for_each_kernel_mode(mut f: impl FnMut(&str)) {
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    pool::set_min_work(0);
    for threads in [1usize, 4] {
        pool::set_threads(threads);
        for on in [false, true] {
            simd::set_simd(on);
            f(&format!("threads={threads} simd={on}"));
        }
    }
    simd::set_simd(true);
    pool::set_threads(0);
    pool::set_min_work(pool::DEFAULT_MIN_WORK);
}

/// All three entry points on `a · b`, with the operands laid out as each
/// entry point takes them.
fn three_entry_points(a: &Tensor, b: &Tensor, at: &Tensor, bt: &Tensor) -> [Tensor; 3] {
    [linalg::matmul(a, b), linalg::matmul_at_b(at, b), linalg::matmul_a_bt(a, bt)]
}

/// Tile-edge sweep through the public entry points: every 4-row tile
/// remainder (`m` up to two tiles plus one), the column remainders of the
/// two-vector, one-vector and narrower column tiles (`n` up to 33, around
/// 64, and a wide 528), and `k` at zero, tiny, and either side of one and
/// two `KC` seams. All three entry points must reproduce the naive loop bit
/// for bit in every thread and SIMD mode. The per-backend sweep, with the
/// 8-row AVX-512 tiles, is `linalg`'s
/// `every_backend_matches_naive_loop_at_tile_edges`.
#[test]
fn tile_edges_match_naive_loop_bitwise() {
    let kc = linalg::KC;
    let ns: Vec<usize> = (1..=33).chain([63, 64, 65, 528]).collect();
    let ks = [0, 1, 2, kc - 1, kc, kc + 1, 2 * kc + 3];
    let mut cases = Vec::new();
    for m in 1..=9usize {
        for &n in &ns {
            for &k in &ks {
                let mut rng = Prng::seeded((m * 1000 + n) as u64 * 1000 + k as u64);
                let a = rng.randn(m, k, 1.0);
                let b = rng.randn(k, n, 1.0);
                let want: Vec<u32> = naive_matmul(&a, &b).iter().map(|v| v.to_bits()).collect();
                let (at, bt) = (a.transposed(), b.transposed());
                cases.push((a, b, at, bt, want));
            }
        }
    }
    for_each_kernel_mode(|mode| {
        for (a, b, at, bt, want) in &cases {
            let (m, k, n) = (a.rows(), a.cols(), b.cols());
            for (name, c) in ["matmul", "matmul_at_b", "matmul_a_bt"]
                .iter()
                .zip(three_entry_points(a, b, at, bt))
            {
                assert!(bits(&c) == *want, "{name} m={m} k={k} n={n} {mode}");
            }
        }
    });
}

/// Signed zeros, infinities and NaNs through every entry point. Row 0 of
/// `A` is all `-0.0` against a non-negative column 0 of `B`, so output
/// `(0,0)` sums only `-0.0` products: the naive loop gives `+0.0`, and a
/// kernel that started from the first product would give `-0.0`. Column 1
/// of `B` is all `-0.0`, and specials sit on a stride through both
/// operands, so they land on tile edges and either side of the `KC` seam.
/// NaN payloads are not part of the contract, so NaN positions compare by
/// `is_nan`; every other element compares bit for bit.
#[test]
fn special_values_match_naive_loop() {
    const SPECIALS: [f32; 6] = [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 3.0e38];
    let kc = linalg::KC;
    let (mut saw_nan, mut saw_inf) = (false, false);
    for (m, k, n) in [(9, kc + 3, 33), (5, 2 * kc + 3, 27), (6, 1, 17), (3, kc, 65)] {
        let mut rng = Prng::seeded((m * k * n) as u64);
        let mut a = rng.randn(m, k, 1.0);
        let mut b = rng.randn(k, n, 1.0).map(f32::abs);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i < k {
                *v = -0.0;
            } else if i % 61 == 0 {
                *v = SPECIALS[(i / 61) % SPECIALS.len()];
            }
        }
        for (i, v) in b.data_mut().iter_mut().enumerate() {
            if i % n == 1 {
                *v = -0.0;
            } else if i % n != 0 && i % 37 == 0 {
                *v = SPECIALS[(i / 37) % SPECIALS.len()];
            }
        }
        let want = naive_matmul(&a, &b);
        assert_eq!(want[0].to_bits(), 0, "fixture: (0,0) must be +0.0");
        saw_nan |= want.iter().any(|v| v.is_nan());
        saw_inf |= want.iter().any(|v| v.is_infinite());
        let (at, bt) = (a.transposed(), b.transposed());
        for_each_kernel_mode(|mode| {
            for (name, c) in ["matmul", "matmul_at_b", "matmul_a_bt"]
                .iter()
                .zip(three_entry_points(&a, &b, &at, &bt))
            {
                for (e, (&got, &w)) in c.data().iter().zip(want.iter()).enumerate() {
                    let same = if w.is_nan() { got.is_nan() } else { got.to_bits() == w.to_bits() };
                    assert!(same, "{name} m={m} k={k} n={n} {mode}: [{e}] {got:?} vs {w:?}");
                }
            }
        });
    }
    assert!(saw_nan && saw_inf, "fixture must produce NaN and infinite outputs");
}

/// The runtime dispatcher reports a real lane width and the override
/// switches it in both directions.
#[test]
fn lane_detection_and_override() {
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    let lanes = simd::detected_lanes();
    assert!([1, 4, 8, 16].contains(&lanes), "unexpected lane width {lanes}");
    simd::set_simd(false);
    assert_eq!(simd::active_lanes(), 1, "forced-off must run scalar");
    simd::set_simd(true);
    assert_eq!(simd::active_lanes(), lanes, "forced-on must use detected width");
}
