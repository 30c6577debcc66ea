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
//! vectors wide, then one vector wide, then one column at a time. Each
//! accumulator tile lives in registers for the whole `KC` block and is
//! stored once at its end, then loaded back for the next block. The loop
//! nest is written once, generic over a `simd::Lanes` backend (AVX 8,
//! SSE2 4, scalar 1 lanes), and dispatched once per call. The AVX instance
//! compiles inside one `#[target_feature(enable = "avx")]` function, so the
//! call boundary is paid per matmul, not per row. `simd::set_simd(Some(false))`
//! runs the scalar instance of the same loop order.
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
    let _span = basm_obs::span!("tensor.matmul", rows = m, inner = k, cols = n);
    gemm(a.data(), k, 1, b.data(), m, k, n)
}

/// `C = Aᵀ · B` where `A: [k,m]`, `B: [k,n]`, result `[m,n]`.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul_at_b: outer dims {k} vs {k2}");
    let _span = basm_obs::span!("tensor.matmul_at_b", rows = m, inner = k, cols = n);
    gemm(a.data(), 1, m, b.data(), m, k, n)
}

/// `C = A · Bᵀ` where `A: [m,k]`, `B: [n,k]`, result `[m,n]`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let (n, k2) = b.shape();
    assert_eq!(k, k2, "matmul_a_bt: inner dims {k} vs {k2}");
    let _span = basm_obs::span!("tensor.matmul_a_bt", rows = m, inner = k, cols = n);
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
    // asserted above); `active_lanes` reports 8 lanes only when the CPU has
    // AVX.
    unsafe {
        match simd::active_lanes() {
            #[cfg(target_arch = "x86_64")]
            8 => gemm_avx(a, ai, ap, b, c, i0, k, n),
            #[cfg(target_arch = "x86_64")]
            4 => gemm_tiled::<simd::Sse>(a, ai, ap, b, c, i0, k, n),
            _ => gemm_tiled::<simd::Scalar>(a, ai, ap, b, c, i0, k, n),
        }
    }
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
    gemm_tiled::<simd::Avx>(a, ai, ap, b, c, i0, k, n)
}

/// Output rows `i0..` of `C` (whole rows, in `c`) for `k >= 1`.
///
/// # Safety
/// `L`'s instructions must be available, and `a`/`b` must cover every
/// `A(i,p)`, `B(p,j)` those rows read.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_tiled<L: Lanes>(
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

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
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
}
