//! SIMD inner kernels — portable fixed-width `f32` lanes.
//!
//! Most hot inner loops in this crate are *elementwise* maps over one or two
//! slices (`axpy` in the backward kernels, `add`/`mul`/... in the graph ops,
//! scalar broadcasts in softmax). Each of those loops is written once, as a
//! plain scalar loop, and compiled twice: inlined at the crate's baseline
//! target, and inside one `#[target_feature(enable = "avx")]` function per
//! kernel, selected at runtime for long slices. The module also exports
//! register-level `Lanes` types for the GEMM kernel in [`crate::linalg`],
//! which keeps accumulators in registers across a whole loop nest instead of
//! mapping one slice at a time:
//!
//! * **16 lanes** — AVX-512F (`_mm512_*`), used when the CPU reports
//!   `avx512f` at runtime. A register backend only: the GEMM kernel runs
//!   16-wide, while the slice kernels run their AVX instance.
//! * **8 lanes** — AVX (`core::arch::x86_64::_mm256_*`), used when the CPU
//!   reports `avx` at runtime. The crate's baseline target is plain x86-64,
//!   so without this the compiler never emits 256-bit ops.
//! * **4 lanes** — SSE2 (`_mm_*`), the x86-64 floor; always available there.
//!   A register backend only: on an SSE2-only host the slice kernels run
//!   their inlined instance, which LLVM vectorizes 4-wide on its own.
//! * **1 lane** — plain scalar loop, the portable fallback and the pinned
//!   reference path on every other architecture.
//!
//! **Determinism contract.** Lanes always map to *distinct output elements*;
//! no kernel ever splits one element's accumulation chain across lanes or
//! reassociates a reduction. Each element sees exactly the scalar op
//! sequence (`c + a*x`, `a - s`, `a / s`, ...), and none of the vector paths
//! use FMA (`vfmadd*` contracts `a*x + c` into one rounding — bits would
//! move): the `avx` feature set does not include `fma`, and Rust never
//! contracts or reassociates float ops on its own. IEEE-754
//! `mul`/`add`/`sub`/`div` are exact per element, so the 16/8/4/1-lane
//! paths are **bitwise identical**, pinned by in-module tests (ordinary and
//! special values), `tests/simd_equivalence.rs`, the
//! `tests/parallel_determinism.rs` composite pin, and the serving crate's
//! `tests/mode_matrix.rs`, which crosses the SIMD toggle with thread count,
//! WAL and telemetry.
//!
//! Reductions (`dot`, softmax max/sum folds, `exp`) stay scalar: vectorizing
//! them would reassociate the accumulation order, which is exactly what the
//! bitwise contract forbids.
//!
//! **Scalar reference.** [`set_simd`]`(false)` forces the scalar path
//! in-process: a toggle that moves wall-clock, never bits. The equivalence
//! tests use it as the reference and `bench_simd` as the interleaved
//! baseline.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Widest lane count any backend uses. Shape sweeps in tests cover
/// `1..=2*MAX_LANES+1` so every tail-masking case is exercised.
pub const MAX_LANES: usize = 16;

/// Runtime-detected hardware lane width (16 = AVX-512F, 8 = AVX, 4 = SSE2,
/// 1 = scalar).
static DETECTED_LANES: OnceLock<usize> = OnceLock::new();

/// Memoized [`active_lanes`]: 16, 8, 4 or 1 lanes, or 0 = not yet resolved.
/// Wide-slice dispatches consult this per call, so it must be exactly one
/// relaxed load on the hot path — the toggle and CPUID resolution are
/// folded in at [`set_simd`]/first-use time, not per call.
static ACTIVE_LANES: AtomicU8 = AtomicU8::new(0);

/// Turn the SIMD kernels on (the default) or off. Used by the determinism
/// tests and `bench_simd` to compare lane widths within one process.
pub fn set_simd(on: bool) {
    let lanes = if on { detected_lanes() } else { 1 };
    ACTIVE_LANES.store(lanes as u8, Ordering::Relaxed);
}

/// The widest lane count this CPU supports, detected once at runtime.
pub fn detected_lanes() -> usize {
    *DETECTED_LANES.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            // To the compiler `avx512f` implies `avx2` and `fma` (never
            // used here, see `avx512`), so a function built with it is
            // sound to call only when all three are present.
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return 16;
            }
            if std::arch::is_x86_feature_detected!("avx") {
                return 8;
            }
            return 4; // SSE2 is part of the x86-64 baseline.
        }
        #[allow(unreachable_code)]
        1
    })
}

/// The lane width kernels dispatch on right now: [`detected_lanes`] when
/// enabled, 1 when [`set_simd`] turned SIMD off. One relaxed load on the hot
/// path; CPUID is resolved on first use.
#[inline]
pub fn active_lanes() -> usize {
    match ACTIVE_LANES.load(Ordering::Relaxed) {
        0 => refresh_active_lanes(),
        n => n as usize,
    }
}

/// First use: resolve CPUID, unless [`set_simd`] got there first.
#[cold]
fn refresh_active_lanes() -> usize {
    let detected = detected_lanes() as u8;
    match ACTIVE_LANES.compare_exchange(0, detected, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => detected as usize,
        Err(set) => set as usize,
    }
}

/// Scalar reference kernels — the one body of each slice kernel, and the
/// semantics every vector path must replay bit-for-bit. Inlined where called
/// (`#[inline(always)]`), they compile to the baseline target's auto-vectorized
/// loop at each call site and to 256-bit ops inside `avx`'s wrappers.
mod scalar {
    /// `acc[i] += a * x[i]`.
    #[inline(always)]
    pub fn axpy(acc: &mut [f32], x: &[f32], a: f32) {
        for (c, &v) in acc.iter_mut().zip(x.iter()) {
            *c += a * v;
        }
    }

    /// `acc[i] += x[i]`.
    #[inline(always)]
    pub fn acc(acc: &mut [f32], x: &[f32]) {
        for (c, &v) in acc.iter_mut().zip(x.iter()) {
            *c += v;
        }
    }

    /// `out[i] = a[i] <op> b[i]` for the three arithmetic ops.
    #[inline(always)]
    pub fn binary(op: super::BinOp, out: &mut [f32], a: &[f32], b: &[f32]) {
        use super::BinOp::*;
        match op {
            Add => {
                for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
                    *o = x + y;
                }
            }
            Sub => {
                for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
                    *o = x - y;
                }
            }
            Mul => {
                for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
                    *o = x * y;
                }
            }
        }
    }

    /// `out[i] = c * a[i]`.
    #[inline(always)]
    pub fn scale(out: &mut [f32], a: &[f32], c: f32) {
        for (o, &x) in out.iter_mut().zip(a.iter()) {
            *o = c * x;
        }
    }

    /// `x[i] *= c`.
    #[inline(always)]
    pub fn scale_inplace(x: &mut [f32], c: f32) {
        for v in x.iter_mut() {
            *v *= c;
        }
    }

    /// `out[i] = a[i] + s`.
    #[inline(always)]
    pub fn add_scalar(out: &mut [f32], a: &[f32], s: f32) {
        for (o, &x) in out.iter_mut().zip(a.iter()) {
            *o = x + s;
        }
    }

    /// `out[i] = a[i] - s` (softmax max-subtract).
    #[inline(always)]
    pub fn sub_scalar(out: &mut [f32], a: &[f32], s: f32) {
        for (o, &x) in out.iter_mut().zip(a.iter()) {
            *o = x - s;
        }
    }

    /// `x[i] /= s` (softmax sum-normalize: same divisor per element, so the
    /// division is exact per element and safe to lane-split).
    #[inline(always)]
    pub fn div_scalar_inplace(x: &mut [f32], s: f32) {
        for v in x.iter_mut() {
            *v /= s;
        }
    }

    /// The 1-lane register backend (see [`super::Lanes`]): plain `f32`
    /// arithmetic, the reference semantics.
    pub(crate) struct Scalar;

    impl super::Lanes for Scalar {
        const W: usize = 1;
        type V = f32;
        #[inline(always)]
        unsafe fn zero() -> f32 {
            0.0
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> f32 {
            x
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> f32 {
            *p
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: f32) {
            *p = v;
        }
        #[inline(always)]
        unsafe fn add_mul(acc: f32, a: f32, b: f32) -> f32 {
            acc + a * b
        }
    }
}

/// Elementwise binary op selector shared by all lane widths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
}

/// SSE2 4-lane register backend, for the GEMM kernel only. SSE2 is
/// unconditionally present on x86-64, so it needs no `target_feature` gate —
/// only the intrinsics' `unsafe`.
#[cfg(target_arch = "x86_64")]
mod sse {
    use std::arch::x86_64::*;

    /// The 4-lane register backend (see [`super::Lanes`]).
    pub(crate) struct Sse;

    impl super::Lanes for Sse {
        const W: usize = 4;
        type V = __m128;
        #[inline(always)]
        unsafe fn zero() -> __m128 {
            _mm_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m128 {
            _mm_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m128 {
            _mm_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m128) {
            _mm_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn add_mul(acc: __m128, a: __m128, b: __m128) -> __m128 {
            _mm_add_ps(acc, _mm_mul_ps(a, b))
        }
    }
}

/// The AVX instance of every slice kernel, and the 8-lane register backend.
/// Each kernel is the `scalar` body compiled once more inside a
/// `#[target_feature(enable = "avx")]` function, where LLVM vectorizes it to
/// 256-bit ops; callers gate on runtime `is_x86_feature_detected!("avx")`
/// (see [`detected_lanes`]). **Never** enable `fma` here or call
/// `_mm256_fmadd_ps`: fusing `a*x + c` into one rounding would break the
/// bitwise contract with the scalar path.
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::*;

    macro_rules! avx_instances {
        ($($name:ident ( $($arg:ident : $ty:ty),* );)*) => {$(
            /// # Safety
            /// Caller must have verified `is_x86_feature_detected!("avx")`.
            #[target_feature(enable = "avx")]
            pub unsafe fn $name($($arg: $ty),*) {
                super::scalar::$name($($arg),*)
            }
        )*};
    }

    avx_instances! {
        axpy(acc: &mut [f32], x: &[f32], a: f32);
        acc(acc: &mut [f32], x: &[f32]);
        binary(op: super::BinOp, out: &mut [f32], a: &[f32], b: &[f32]);
        scale(out: &mut [f32], a: &[f32], c: f32);
        scale_inplace(x: &mut [f32], c: f32);
        add_scalar(out: &mut [f32], a: &[f32], s: f32);
        sub_scalar(out: &mut [f32], a: &[f32], s: f32);
        div_scalar_inplace(x: &mut [f32], s: f32);
    }

    /// The 8-lane register backend (see [`super::Lanes`]). Only ever
    /// instantiated inside a `#[target_feature(enable = "avx")]` caller,
    /// which is where these `#[inline(always)]` bodies become 256-bit ops.
    pub(crate) struct Avx;

    impl super::Lanes for Avx {
        const W: usize = 8;
        type V = __m256;
        #[inline(always)]
        unsafe fn zero() -> __m256 {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m256 {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m256) {
            _mm256_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn add_mul(acc: __m256, a: __m256, b: __m256) -> __m256 {
            _mm256_add_ps(acc, _mm256_mul_ps(a, b))
        }
    }
}

/// AVX-512F 16-lane register backend, for the GEMM kernel only: the slice
/// kernels run their AVX instance under AVX-512 (see `dispatch!`). Gated behind
/// runtime detection of `avx512f` (see [`detected_lanes`]). Same rule as the
/// `avx` module: `add_mul` is a separate multiply and add, never
/// `_mm512_fmadd_ps`, and without fast-math flags the compiler never fuses
/// the pair itself.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// The 16-lane register backend (see [`super::Lanes`]). Only ever
    /// instantiated inside a `#[target_feature(enable = "avx512f")]`
    /// caller, which is where these bodies become 512-bit ops.
    pub(crate) struct Avx512;

    impl super::Lanes for Avx512 {
        const W: usize = 16;
        type V = __m512;
        #[inline(always)]
        unsafe fn zero() -> __m512 {
            _mm512_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m512 {
            _mm512_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m512 {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m512) {
            _mm512_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn add_mul(acc: __m512, a: __m512, b: __m512) -> __m512 {
            _mm512_add_ps(acc, _mm512_mul_ps(a, b))
        }
    }
}

/// One lane backend as register-level operations, for kernels that keep
/// vector accumulators live across a whole loop nest (the register-tiled
/// GEMM in [`crate::linalg`]). The kernel is written once, generic over
/// `Lanes`, and instantiated per backend; for `Avx` the instantiation sits
/// inside one `#[target_feature(enable = "avx")]` function, so the nest pays
/// the call boundary once instead of once per slice.
pub(crate) trait Lanes {
    /// `f32` lanes per vector.
    const W: usize;
    /// The register type.
    type V: Copy;
    /// All lanes `+0.0`.
    ///
    /// # Safety
    /// The backend's instructions must be available (see [`active_lanes`]).
    unsafe fn zero() -> Self::V;
    /// All lanes `x`.
    ///
    /// # Safety
    /// As [`Lanes::zero`].
    unsafe fn splat(x: f32) -> Self::V;
    /// Unaligned load of `W` floats.
    ///
    /// # Safety
    /// As [`Lanes::zero`]; `p` must be valid for `W` reads.
    unsafe fn load(p: *const f32) -> Self::V;
    /// Unaligned store of `W` floats.
    ///
    /// # Safety
    /// As [`Lanes::zero`]; `p` must be valid for `W` writes.
    unsafe fn store(p: *mut f32, v: Self::V);
    /// `acc + a·b` per lane — a multiply and an add, two roundings, never
    /// fused (same per-element sequence as the scalar `*c += a * v`).
    ///
    /// # Safety
    /// As [`Lanes::zero`].
    unsafe fn add_mul(acc: Self::V, a: Self::V, b: Self::V) -> Self::V;
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx::Avx;
#[cfg(target_arch = "x86_64")]
pub(crate) use avx512::Avx512;
pub(crate) use scalar::Scalar;
#[cfg(target_arch = "x86_64")]
pub(crate) use sse::Sse;

// ---------------------------------------------------------------------------
// Public dispatchers: pick the widest *worthwhile* instance per call.
//
// Every slice kernel has one body, `scalar::$name`, and two instances of it:
// inlined into the caller at the crate's baseline target (SSE2 on x86-64,
// where LLVM auto-vectorizes and unrolls it 4-wide), and compiled once more
// as `avx::$name`, where the same loop becomes 256-bit ops. The AVX instance
// carries `#[target_feature]`, which makes it a real call: the compiler
// cannot inline it into baseline callers, and each call pays the boundary
// (argument spill + vzeroupper). For short slices — the `n=1` output layers,
// per-row softmax passes over a 50-step sequence — that boundary costs more
// than 256-bit lanes save. So slices under [`WIDE_MIN_LEN`] run the inlined
// instance, and only longer slices on an AVX host call the AVX one. A host
// without AVX runs the inlined instance at every length.
//
// Ordering matters: the length test comes FIRST, against a compile-time
// constant, so the short-slice fast path never touches `active_lanes()` at
// all. When the matmuls still ran on `axpy`, they called it once per output
// element at `n = 1`, and even a relaxed atomic load per call showed up as
// an 8–23% regression on those shapes before the check was reordered. Only
// slices long enough to amortize it pay the one-load mode lookup. Both
// instances produce identical bits (pinned below), so this routing is a pure
// wall-clock choice, invisible to results.
// ---------------------------------------------------------------------------

/// Minimum slice length before the AVX instance beats the inlined,
/// auto-vectorized one, for the slice kernels below. It no longer
/// governs matmul: the GEMM kernel in [`crate::linalg`] dispatches once per
/// call and pays the `target_feature` call boundary once per matmul, so it
/// runs full-width (8- or 16-lane) vectors at every output width. The value
/// was measured when the matmuls still ran on `axpy`, at three levels:
/// `axpy_tune` (standalone kernel — AVX edges ahead near 64), inside
/// `matmul` (64-wide slices still *lost* ~5% to the call boundary), and
/// `bench_simd` end to end (64 → serve 0.90x, train 1.08x; 128 → serve
/// parity, train 1.13x). The in-context crossover is what counts, hence 128.
const WIDE_MIN_LEN: usize = 128;

macro_rules! dispatch {
    ($len:expr, $name:ident ( $($arg:expr),* )) => {
        if $len < WIDE_MIN_LEN {
            scalar::$name($($arg),*)
        } else {
            match active_lanes() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `active_lanes()` is 8 only when the CPU has AVX,
                // and 16 only when it has AVX-512F, which includes AVX.
                16 | 8 => unsafe { avx::$name($($arg),*) },
                _ => scalar::$name($($arg),*),
            }
        }
    };
}

/// `acc[i] += a * x[i]` — every backward accumulate-scaled-row kernel.
#[inline]
pub fn axpy(acc: &mut [f32], x: &[f32], a: f32) {
    debug_assert_eq!(acc.len(), x.len());
    dispatch!(acc.len(), axpy(acc, x, a));
}

/// `acc[i] += x[i]` — gradient accumulation.
#[inline]
pub fn acc(acc_s: &mut [f32], x: &[f32]) {
    debug_assert_eq!(acc_s.len(), x.len());
    dispatch!(acc_s.len(), acc(acc_s, x));
}

/// `out[i] = a[i] <op> b[i]` — the elementwise graph ops.
#[inline]
pub fn binary(op: BinOp, out: &mut [f32], a: &[f32], b: &[f32]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    dispatch!(out.len(), binary(op, out, a, b));
}

/// `out[i] = c * a[i]`.
#[inline]
pub fn scale(out: &mut [f32], a: &[f32], c: f32) {
    debug_assert_eq!(out.len(), a.len());
    dispatch!(out.len(), scale(out, a, c));
}

/// `x[i] *= c`.
#[inline]
pub fn scale_inplace(x: &mut [f32], c: f32) {
    dispatch!(x.len(), scale_inplace(x, c));
}

/// `out[i] = a[i] + s`.
#[inline]
pub fn add_scalar(out: &mut [f32], a: &[f32], s: f32) {
    debug_assert_eq!(out.len(), a.len());
    dispatch!(out.len(), add_scalar(out, a, s));
}

/// `out[i] = a[i] - s` — the softmax max-subtract pass.
#[inline]
pub fn sub_scalar(out: &mut [f32], a: &[f32], s: f32) {
    debug_assert_eq!(out.len(), a.len());
    dispatch!(out.len(), sub_scalar(out, a, s));
}

/// `x[i] /= s` — the softmax sum-normalize pass (one divisor per row, exact
/// per element).
#[inline]
pub fn div_scalar_inplace(x: &mut [f32], s: f32) {
    dispatch!(x.len(), div_scalar_inplace(x, s));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic "awkward" values: mixed signs/magnitudes, exercises
    /// rounding on every op, no NaN/Inf.
    fn vals(n: usize, salt: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = ((i as u32).wrapping_mul(2654435761).wrapping_add(salt) >> 8) as f32;
                (x / 65536.0 - 128.0) * 1.7
            })
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Run `f` with SIMD forced on and off, assert identical output bits.
    /// The SIMD override is process-global; serialize the tests that flip
    /// it, or one test's `set_simd` lands between another's set and check.
    fn simd_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// `f` with SIMD on, then with SIMD off.
    fn wide_and_scalar(mut f: impl FnMut() -> Vec<f32>) -> (Vec<f32>, Vec<f32>) {
        let _guard = simd_lock();
        set_simd(true);
        let wide = f();
        set_simd(false);
        let narrow = f();
        set_simd(true);
        (wide, narrow)
    }

    fn assert_modes_match(f: impl FnMut() -> Vec<f32>) {
        let (wide, narrow) = wide_and_scalar(f);
        assert_eq!(bits(&wide), bits(&narrow));
    }

    /// Just below the wide-dispatch threshold, then every remainder of the
    /// compiled AVX loop above it (LLVM unrolls it to 32 floats per
    /// iteration, with vector and scalar epilogues).
    const WIDE_LENS: std::ops::RangeInclusive<usize> = WIDE_MIN_LEN - 1..=WIDE_MIN_LEN + 32;

    // Every length around the 4/8/16-lane boundaries (including 0 and 1)
    // plus both sides of the wide-dispatch threshold.
    fn lens() -> Vec<usize> {
        (0..=2 * MAX_LANES + 1).chain([63, 64, 65]).chain(WIDE_LENS).collect()
    }

    #[test]
    fn axpy_matches_scalar_bitwise() {
        for n in lens() {
            assert_modes_match(|| {
                let mut acc = vals(n, 1);
                axpy(&mut acc, &vals(n, 2), 0.37);
                acc
            });
        }
    }

    #[test]
    fn acc_and_binary_match_scalar_bitwise() {
        for n in lens() {
            assert_modes_match(|| {
                let mut a = vals(n, 5);
                acc(&mut a, &vals(n, 6));
                a
            });
            for op in [BinOp::Add, BinOp::Sub, BinOp::Mul] {
                assert_modes_match(|| {
                    let mut out = vec![0.0; n];
                    binary(op, &mut out, &vals(n, 7), &vals(n, 8));
                    out
                });
            }
        }
    }

    #[test]
    fn scalar_broadcasts_match_scalar_bitwise() {
        for n in lens() {
            assert_modes_match(|| {
                let mut out = vec![0.0; n];
                scale(&mut out, &vals(n, 9), 0.001953125);
                out
            });
            assert_modes_match(|| {
                let mut x = vals(n, 10);
                scale_inplace(&mut x, -3.7);
                x
            });
            assert_modes_match(|| {
                let mut out = vec![0.0; n];
                add_scalar(&mut out, &vals(n, 11), 0.333);
                out
            });
            assert_modes_match(|| {
                let mut out = vec![0.0; n];
                sub_scalar(&mut out, &vals(n, 12), 17.5);
                out
            });
            assert_modes_match(|| {
                let mut x = vals(n, 13);
                div_scalar_inplace(&mut x, 0.7);
                x
            });
        }
    }

    /// Special values through every slice kernel, wide against scalar: ±0,
    /// ±∞, NaN, ±3e38 (overflows under `mul`/`scale`) and a subnormal, with
    /// every one of them also as the broadcast operand (so
    /// `div_scalar_inplace` divides by ±0). The output starts as `a`, the
    /// second operand is `b`, and `a[i]`, `b[i]` walk all pairs of specials.
    /// NaN compares by class, as in `linalg`'s special-values pin: payloads
    /// are not part of the contract.
    #[test]
    fn special_values_match_scalar() {
        const SPECIALS: [f32; 8] =
            [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 3.0e38, -3.0e38, 1.0e-40];
        assert!(SPECIALS[7].is_subnormal());
        fn binary_inplace(op: BinOp, out: &mut [f32], y: &[f32]) {
            let x = out.to_vec();
            binary(op, out, &x, y)
        }
        type Kernel = fn(&mut [f32], &[f32], f32);
        let kernels: [(&str, Kernel); 10] = [
            ("axpy", axpy),
            ("acc", |o, y, _| acc(o, y)),
            ("add", |o, y, _| binary_inplace(BinOp::Add, o, y)),
            ("sub", |o, y, _| binary_inplace(BinOp::Sub, o, y)),
            ("mul", |o, y, _| binary_inplace(BinOp::Mul, o, y)),
            ("scale", scale),
            ("scale_inplace", |o, _, c| scale_inplace(o, c)),
            ("add_scalar", add_scalar),
            ("sub_scalar", sub_scalar),
            ("div_scalar_inplace", |o, _, c| div_scalar_inplace(o, c)),
        ];
        for n in WIDE_LENS {
            let a: Vec<f32> = (0..n).map(|i| SPECIALS[i % 8]).collect();
            let b: Vec<f32> = (0..n).map(|i| SPECIALS[i / 8 % 8]).collect();
            for c in SPECIALS.into_iter().chain([2.0, -0.5]) {
                for (name, kernel) in kernels {
                    let (wide, narrow) = wide_and_scalar(|| {
                        let mut out = a.clone();
                        kernel(&mut out, &b, c);
                        out
                    });
                    for (i, (w, s)) in wide.iter().zip(&narrow).enumerate() {
                        let same = if s.is_nan() { w.is_nan() } else { w.to_bits() == s.to_bits() };
                        assert!(same, "{name}({c:?}) n={n} [{i}]: wide {w:?}, scalar {s:?}");
                    }
                }
            }
        }
    }

    /// `linalg`'s FMA-sensitive fixture on the slice path: `-(1 + 2⁻¹¹) +
    /// (1 + 2⁻¹²)·(1 + 2⁻¹²)` is exactly `+0.0` as a multiply and an add,
    /// and `2⁻²⁴` fused. So an `axpy` instance the compiler contracted to
    /// `vfmadd` fails here at every element.
    #[test]
    fn axpy_rounds_multiply_and_add_separately() {
        let (lo, hi) = (1.0 + 2f32.powi(-12), 1.0 + 2f32.powi(-11));
        assert_eq!(lo.mul_add(lo, -hi), 2f32.powi(-24), "fixture must be FMA-sensitive");
        for n in WIDE_LENS {
            let (wide, narrow) = wide_and_scalar(|| {
                let mut x = vec![-hi; n];
                axpy(&mut x, &vec![lo; n], lo);
                x
            });
            assert!(wide.iter().chain(&narrow).all(|v| v.to_bits() == 0), "n={n}");
        }
    }

    #[test]
    fn toggle_defaults_on_and_override_wins() {
        let _guard = simd_lock();
        assert_eq!(active_lanes(), detected_lanes(), "SIMD is on by default");
        set_simd(false);
        assert_eq!(active_lanes(), 1);
        set_simd(true);
        assert_eq!(active_lanes(), detected_lanes());
        assert!([1, 4, 8, 16].contains(&detected_lanes()));
    }
}
