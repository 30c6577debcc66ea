//! Matrix multiplication: one register-tiled kernel behind three entry points.
//!
//! * `matmul`        — `C = A  · B`
//! * `matmul_at_b`   — `C = Aᵀ · B` (weight gradients)
//! * `matmul_a_bt`   — `C = A  · Bᵀ` (input gradients)
//!
//! All three run one kernel, `C[i,j] = Σ_p A(i,p)·B(p,j)`, over a strided
//! left operand `A(i,p) = a[i·ai + p·ap]` and a row-major `B`. `matmul`
//! passes `A` row-major (`ai = k`, `ap = 1`). `matmul_at_b` reads its stored
//! `[k, m]` operand column-wise (`ai = 1`, `ap = m`), so no transpose is
//! materialized. `matmul_a_bt` transposes its `B` (weight-sized, `[n, k]`)
//! once into pooled scratch.
//!
//! **The kernel.** `p` runs in [`KC`]-long blocks, so a block of `B` stays
//! cache-resident while every row tile of the output passes over it. Output
//! rows go in tiles of `MR = 4`. Within a row tile, columns go in tiles two
//! vectors wide, then one vector wide, then (AVX-512 only) one 8-lane AVX
//! tile, then one column at a time. Each accumulator tile lives in registers
//! for the whole `KC` block and is stored once at its end, then loaded back
//! for the next block. The loop nest is written once, generic over a
//! `simd::Lanes` backend (AVX-512F 16, AVX 8, SSE2 4, scalar 1 lanes), and
//! dispatched once per call to the widest backend the CPU has. The AVX-512
//! and AVX instances each compile inside one `#[target_feature]` function,
//! so the call boundary is paid per matmul, not per row.
//! `simd::set_simd(false)` runs the scalar instance of the same loop
//! order.
//!
//! **Bits.** Every output element sees exactly `acc = +0.0; acc = acc +
//! a_p·b_p` for `p` ascending, with no FMA. Lanes and tile rows are distinct
//! output elements, a `KC` seam is an exact store and reload of the running
//! sum, and `k = 0` writes the empty sum `+0.0`. That is the naive `i-k-j`
//! triple loop's float-op sequence, so results are bitwise the same for
//! every backend (`simd::set_simd`), every row partition (`BASM_THREADS`, via
//! [`pool::par_row_blocks`]) and every tile position. The sweep in
//! `tests/simd_equivalence.rs` pins this against the naive loop at every
//! tile and `KC` edge, including signed zeros, infinities and NaNs.
//!
//! The kernel is branch-free over the data: it skips no zero entries, so its
//! flop count is shape-determined (what the Table VI efficiency accounting
//! assumes).

use crate::bufpool;
use crate::pool;
use crate::simd::{self, Lanes};
use crate::tensor::Tensor;

/// Output rows per register tile (the arms of `tile_rows`).
const MR: usize = 4;

/// Length of the `p` block an accumulator tile stays in registers for, and
/// the number of `B` rows kept cache-resident across all row tiles: a block
/// of a 32-wide `B` is 32 KiB.
pub const KC: usize = 256;

/// `C = A · B` where `A: [m,k]`, `B: [k,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul: inner dims {k} vs {k2} (A {m}x{k}, B {k2}x{n})");
    gemm(a.data(), k, 1, b.data(), m, k, n)
}

/// `C = Aᵀ · B` where `A: [k,m]`, `B: [k,n]`, result `[m,n]`.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul_at_b: outer dims {k} vs {k2}");
    gemm(a.data(), 1, m, b.data(), m, k, n)
}

/// `C = A · Bᵀ` where `A: [m,k]`, `B: [n,k]`, result `[m,n]`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let (n, k2) = b.shape();
    assert_eq!(k, k2, "matmul_a_bt: inner dims {k} vs {k2}");
    let bt = transpose_scratch(b);
    let c = gemm(a.data(), k, 1, &bt, m, k, n);
    bufpool::release(bt);
    c
}

/// `bᵀ` of an `[n, k]` tensor as a row-major `[k, n]` pooled buffer — the
/// right operand of `A · Bᵀ`. Return it with [`bufpool::release`].
pub(crate) fn transpose_scratch(b: &Tensor) -> Vec<f32> {
    let (n, k) = b.shape();
    let bd = b.data();
    let mut bt = bufpool::acquire_scratch(k * n);
    for p in 0..k {
        for j in 0..n {
            bt[p * n + j] = bd[j * k + p];
        }
    }
    bt
}

/// `C = A · B` into a fresh `[m, n]` tensor, for `A(i,p) = a[i·ai + p·ap]`
/// and row-major `b: [k, n]`. Output rows are partitioned across the pool;
/// each element's sum does not depend on the partition.
fn gemm(a: &[f32], ai: usize, ap: usize, b: &[f32], m: usize, k: usize, n: usize) -> Tensor {
    // Pooled scratch: the kernel writes every element, so no memset.
    let mut c = Tensor::scratch_pooled(m, n);
    let threads = pool::threads_for(m, m * k * n);
    pool::par_row_blocks(c.data_mut(), n, threads, |i0, block| {
        gemm_rows(a, ai, ap, b, k, n, i0, block);
    });
    c
}

/// Output rows `i0..i0 + c.len() / n` of `C = A · B` into `c`, on the
/// calling thread: the row-block entry fused ops use to run the kernel on a
/// cache-sized block. Bits are those of the same rows of a whole-matrix
/// call, since no element's sum depends on which rows share a call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_rows(
    a: &[f32],
    ai: usize,
    ap: usize,
    b: &[f32],
    k: usize,
    n: usize,
    i0: usize,
    c: &mut [f32],
) {
    // SAFETY: `active_lanes` reports 16 lanes only when the CPU has
    // AVX-512F (with the AVX2 and FMA it implies), and 8 only with AVX.
    unsafe { gemm_rows_on(simd::active_lanes(), a, ai, ap, b, k, n, i0, c) }
}

/// [`gemm_rows`] on the backend of `lanes` lanes: 16 (AVX-512F), 8 (AVX),
/// 4 (SSE2) or anything else (scalar).
///
/// # Safety
/// The CPU must support that backend (see `simd::detected_lanes`).
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_rows_on(
    lanes: usize,
    a: &[f32],
    ai: usize,
    ap: usize,
    b: &[f32],
    k: usize,
    n: usize,
    i0: usize,
    c: &mut [f32],
) {
    let rows = c.len() / n.max(1);
    if rows == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0); // the empty sum
        return;
    }
    // The kernel reads without bounds checks; these make every read valid.
    assert!((i0 + rows - 1) * ai + (k - 1) * ap < a.len(), "gemm: A too short");
    assert_eq!(b.len(), k * n, "gemm: B is not [k, n]");
    assert_eq!(c.len(), rows * n, "gemm: C is not whole rows");
    // SAFETY: `c` holds whole output rows `i0..i0 + rows`, so every
    // `A(i,p)` read is inside `a` and every `B(p,j)` read inside `b` (both
    // asserted above); the caller vouches for the backend.
    unsafe {
        match lanes {
            #[cfg(target_arch = "x86_64")]
            16 => gemm_avx512(a, ai, ap, b, c, i0, k, n),
            #[cfg(target_arch = "x86_64")]
            8 => gemm_avx(a, ai, ap, b, c, i0, k, n),
            #[cfg(target_arch = "x86_64")]
            4 => gemm_tiled::<simd::Sse, simd::Scalar>(a, ai, ap, b, c, i0, k, n),
            _ => gemm_tiled::<simd::Scalar, simd::Scalar>(a, ai, ap, b, c, i0, k, n),
        }
    }
}

/// The AVX-512 instance of [`gemm_tiled`]: the whole loop nest in one
/// `target_feature` function, with an 8-lane AVX tile for the column tail.
///
/// # Safety
/// The CPU must support AVX-512F, AVX2 and FMA; otherwise as [`gemm_tiled`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_avx512(
    a: &[f32],
    ai: usize,
    ap: usize,
    b: &[f32],
    c: &mut [f32],
    i0: usize,
    k: usize,
    n: usize,
) {
    gemm_tiled::<simd::Avx512, simd::Avx>(a, ai, ap, b, c, i0, k, n)
}

/// The AVX instance of [`gemm_tiled`]: the whole loop nest in one
/// `target_feature` function.
///
/// # Safety
/// The CPU must support AVX; otherwise as [`gemm_tiled`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_avx(
    a: &[f32],
    ai: usize,
    ap: usize,
    b: &[f32],
    c: &mut [f32],
    i0: usize,
    k: usize,
    n: usize,
) {
    gemm_tiled::<simd::Avx, simd::Scalar>(a, ai, ap, b, c, i0, k, n)
}

/// Output rows `i0..` of `C` (whole rows, in `c`) for `k >= 1`, in row
/// tiles of [`MR`]. Columns go in `L` tiles two vectors wide, then one
/// vector wide, then one tail tile of the narrower `T` (none when `T` is
/// scalar), then single columns.
///
/// # Safety
/// `L`'s and `T`'s instructions must be available, and `a`/`b` must cover
/// every `A(i,p)`, `B(p,j)` those rows read.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_tiled<L: Lanes, T: Lanes>(
    a: &[f32],
    ai: usize,
    ap: usize,
    b: &[f32],
    c: &mut [f32],
    i0: usize,
    k: usize,
    n: usize,
) {
    let rows = c.len() / n;
    let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        for r in (0..rows).step_by(MR) {
            let mr = MR.min(rows - r);
            let (ar, cr) = (a.add((i0 + r) * ai), c.add(r * n));
            let mut j = 0;
            while j + 2 * L::W <= n {
                tile_rows::<L, 2>(mr, ar, ai, ap, b.add(j), cr.add(j), n, kb, kc);
                j += 2 * L::W;
            }
            if j + L::W <= n {
                tile_rows::<L, 1>(mr, ar, ai, ap, b.add(j), cr.add(j), n, kb, kc);
                j += L::W;
            }
            if T::W > 1 && j + T::W <= n {
                tile_rows::<T, 1>(mr, ar, ai, ap, b.add(j), cr.add(j), n, kb, kc);
                j += T::W;
            }
            for j in j..n {
                tile_rows::<simd::Scalar, 1>(mr, ar, ai, ap, b.add(j), cr.add(j), n, kb, kc);
            }
        }
    }
}

/// [`tile`] for the `rows <= MR` rows left in a row tile.
///
/// # Safety
/// As [`tile`], for `rows` rows.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_rows<L: Lanes, const C: usize>(
    rows: usize,
    a: *const f32,
    ai: usize,
    ap: usize,
    b: *const f32,
    c: *mut f32,
    n: usize,
    kb: usize,
    kc: usize,
) {
    match rows {
        4 => tile::<L, 4, C>(a, ai, ap, b, c, n, kb, kc),
        3 => tile::<L, 3, C>(a, ai, ap, b, c, n, kb, kc),
        2 => tile::<L, 2, C>(a, ai, ap, b, c, n, kb, kc),
        _ => tile::<L, 1, C>(a, ai, ap, b, c, n, kb, kc),
    }
}

/// One `R × C·W` accumulator tile over `p ∈ kb..kb + kc`. `a` points at
/// `A(first tile row, 0)`, `b` at `B(0, first tile column)`, and `c` at the
/// tile's top-left output element (row stride `n`). The first block starts
/// every accumulator at `+0.0`; later blocks reload the stored running sum.
///
/// # Safety
/// `L`'s instructions must be available; `A(r, p)` for `r < R`, `p <
/// kb + kc`, `B(p, 0..C·W)` and the tile's `R` output rows of `C·W`
/// elements must all be in bounds.
#[inline(always)]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn tile<L: Lanes, const R: usize, const C: usize>(
    a: *const f32,
    ai: usize,
    ap: usize,
    b: *const f32,
    c: *mut f32,
    n: usize,
    kb: usize,
    kc: usize,
) {
    let mut acc = [[L::zero(); C]; R];
    if kb > 0 {
        for r in 0..R {
            for v in 0..C {
                acc[r][v] = L::load(c.add(r * n + v * L::W));
            }
        }
    }
    for p in kb..kb + kc {
        let (a_p, b_p) = (a.add(p * ap), b.add(p * n));
        let mut bv = [L::zero(); C];
        for v in 0..C {
            bv[v] = L::load(b_p.add(v * L::W));
        }
        for r in 0..R {
            let av = L::splat(*a_p.add(r * ai));
            for v in 0..C {
                acc[r][v] = L::add_mul(acc[r][v], av, bv[v]);
            }
        }
    }
    for r in 0..R {
        for v in 0..C {
            L::store(c.add(r * n + v * L::W), acc[r][v]);
        }
    }
}

/// Dot product of two equal-length slices: `acc = -0.0; acc = acc + a_p·b_p`
/// for `p` ascending. `-0.0` is the additive identity, so the result is the
/// first product plus each next one in order (and an empty dot is `-0.0`).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).fold(-0.0, |acc, (&x, &y)| acc + x * y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape();
        let (_, n) = b.shape();
        Tensor::from_fn(m, n, |i, j| (0..k).map(|p| a.get(i, p) * b.get(p, j)).sum())
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = Prng::seeded(1);
        let a = rng.randn(7, 5, 1.0);
        let b = rng.randn(5, 9, 1.0);
        assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn at_b_matches_transpose() {
        let mut rng = Prng::seeded(2);
        let a = rng.randn(6, 4, 1.0);
        let b = rng.randn(6, 3, 1.0);
        assert_close(&matmul_at_b(&a, &b), &matmul(&a.transposed(), &b), 1e-4);
    }

    #[test]
    fn a_bt_matches_transpose() {
        let mut rng = Prng::seeded(3);
        let a = rng.randn(6, 4, 1.0);
        let b = rng.randn(5, 4, 1.0);
        assert_close(&matmul_a_bt(&a, &b), &matmul(&a, &b.transposed()), 1e-4);
    }

    #[test]
    fn identity_is_noop() {
        let mut rng = Prng::seeded(4);
        let a = rng.randn(4, 4, 1.0);
        let eye = Tensor::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_close(&matmul(&a, &eye), &a, 1e-6);
        assert_close(&matmul(&eye, &a), &a, 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn shape_mismatch_panics() {
        matmul(&Tensor::zeros(2, 3), &Tensor::zeros(4, 2));
    }

    /// Every backend this CPU can run, by lane count: the scalar instance
    /// everywhere, then each x86-64 instance up to the detected width.
    fn backends() -> Vec<usize> {
        let widest = simd::detected_lanes();
        [1, 4, 8, 16]
            .into_iter()
            .filter(|&w| w == 1 || (cfg!(target_arch = "x86_64") && w <= widest))
            .collect()
    }

    /// `C = A · B` on one backend, for row-major `a: [m, ai]` read as
    /// `A(i,p) = a[i·ai + p]` with `p < k`, and `b` whose first `k` rows are
    /// `B`.
    fn gemm_on(
        lanes: usize,
        a: &[f32],
        ai: usize,
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<u32> {
        let mut c = vec![f32::NAN; m * n];
        // SAFETY: `backends` lists only what the CPU supports.
        unsafe { gemm_rows_on(lanes, a, ai, 1, &b[..k * n], k, n, 0, &mut c) };
        c.iter().map(|v| v.to_bits()).collect()
    }

    /// The naive `p`-ascending loop's bits at every `k` in `ks` (ascending):
    /// each element's running sum `acc = 0.0; acc += a·b`, read off as `p`
    /// reaches each `k`.
    fn naive_prefixes(
        a: &[f32],
        ai: usize,
        b: &[f32],
        m: usize,
        n: usize,
        ks: &[usize],
    ) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::with_capacity(m * n); ks.len()];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                let mut p = 0;
                for (want, &k) in out.iter_mut().zip(ks) {
                    while p < k {
                        acc += a[i * ai + p] * b[p * n + j];
                        p += 1;
                    }
                    want.push(acc.to_bits());
                }
            }
        }
        out
    }

    /// Tile-edge sweep on every backend the CPU supports, so the 8-lane AVX
    /// and 4-lane SSE2 instances stay pinned on a host whose default is
    /// wider. `m` runs to two row tiles plus one; `n` covers every
    /// remainder of the 32-, 16- and 8-wide column tiles, plus a wide 528;
    /// `k` is zero, tiny, and either side of one and two `KC` seams.
    #[test]
    fn every_backend_matches_naive_loop_at_tile_edges() {
        let ks = [0, 1, 2, KC, KC + 1, 2 * KC + 1];
        let kmax = ks[ks.len() - 1];
        for n in (1..=65).chain([528]) {
            for m in 1..=2 * MR + 1 {
                let mut rng = Prng::seeded((m * 1000 + n) as u64);
                let (a, b) = (rng.randn(m, kmax, 1.0), rng.randn(kmax, n, 1.0));
                let want = naive_prefixes(a.data(), kmax, b.data(), m, n, &ks);
                for lanes in backends() {
                    for (&k, want) in ks.iter().zip(&want) {
                        let got = gemm_on(lanes, a.data(), kmax, b.data(), m, k, n);
                        assert!(got == *want, "{lanes} lanes: m={m} k={k} n={n}");
                    }
                }
            }
        }
    }

    /// Signed zeros, infinities and NaNs on every backend. Row 0 of `A` is
    /// all `-0.0` against a non-negative, finite column 0 of `B`, so output
    /// `(0, 0)` sums only `-0.0` products: `+0.0` in the naive loop, `-0.0`
    /// in a kernel that started from the first product. Column 1 of `B` is
    /// all `-0.0`; specials sit on strides through both operands. NaN
    /// payloads are not part of the contract, so NaN outputs compare by
    /// `is_nan`.
    #[test]
    fn every_backend_matches_naive_loop_on_special_values() {
        const SPECIALS: [f32; 6] = [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 3.0e38];
        let (mut saw_nan, mut saw_inf) = (false, false);
        for (m, k, n) in [(9, KC + 3, 80), (9, 2 * KC + 3, 27), (6, 1, 49), (3, KC, 65)] {
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
            let want = naive_prefixes(a.data(), k, b.data(), m, n, &[k]).remove(0);
            assert_eq!(want[0], 0, "fixture: (0, 0) must be +0.0");
            saw_nan |= want.iter().any(|&w| f32::from_bits(w).is_nan());
            saw_inf |= want.iter().any(|&w| f32::from_bits(w).is_infinite());
            for lanes in backends() {
                let got = gemm_on(lanes, a.data(), k, b.data(), m, k, n);
                for (e, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    let same = if f32::from_bits(w).is_nan() {
                        f32::from_bits(g).is_nan()
                    } else {
                        g == w
                    };
                    assert!(same, "{lanes} lanes: m={m} k={k} n={n} [{e}]");
                }
            }
        }
        assert!(saw_nan && saw_inf, "fixture must produce NaN and infinite outputs");
    }

    /// An FMA-sensitive fixture: `A(i,0)·B(0,j) = -(1 + 2⁻¹¹)·s` exactly,
    /// and `A(i,1)·B(1,j) = (1 + 2⁻¹¹ + 2⁻²⁴)·s` rounds to `(1 + 2⁻¹¹)·s`
    /// (a tie, to even), for a power-of-two scale `s`. A multiply and an
    /// add give exactly `+0.0`; a fused multiply-add keeps the `2⁻²⁴·s`.
    /// So a backend whose `add_mul` the compiler contracted fails here at
    /// every output element.
    #[test]
    fn every_backend_rounds_multiply_and_add_separately() {
        let (lo, hi) = (1.0 + 2f32.powi(-12), 1.0 + 2f32.powi(-11));
        assert_eq!(lo.mul_add(lo, -hi), 2f32.powi(-24), "fixture must be FMA-sensitive");
        let scale = |e: usize| 2f32.powi(e as i32 % 5 - 2);
        for (m, n) in [(9, 80), (9, 63), (9, 31), (5, 17), (3, 528)] {
            let k = 2;
            let a: Vec<f32> = (0..m).flat_map(|i| [-hi * scale(i), lo * scale(i)]).collect();
            let b: Vec<f32> = (0..k)
                .flat_map(|p| (0..n).map(move |j| if p == 0 { scale(j) } else { lo * scale(j) }))
                .collect();
            let want = naive_prefixes(&a, k, &b, m, n, &[k]).remove(0);
            assert!(want.iter().all(|&w| w == 0), "fixture: unfused sums are +0.0");
            for lanes in backends() {
                assert!(gemm_on(lanes, &a, k, &b, m, k, n) == want, "{lanes} lanes: m={m} n={n}");
            }
        }
    }
}
