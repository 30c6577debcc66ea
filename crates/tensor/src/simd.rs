//! Explicit-SIMD inner kernels — portable fixed-width `f32` lanes.
//!
//! Most hot inner loops in this crate are *elementwise* maps over one or two
//! slices (`axpy` in the backward kernels, `add`/`mul`/... in the graph ops,
//! scalar broadcasts in softmax). This module gives each of those loops an
//! explicit lane-parallel implementation selected at runtime, and exports
//! register-level `Lanes` types for the GEMM kernel in [`crate::linalg`],
//! which keeps accumulators in registers across a whole loop nest instead of
//! mapping one slice at a time:
//!
//! * **16 lanes** — AVX-512F (`_mm512_*`), used when the CPU reports
//!   `avx512f` at runtime. A register backend only: the GEMM kernel runs
//!   16-wide, while the slice kernels keep their 8-lane AVX bodies.
//! * **8 lanes** — AVX (`core::arch::x86_64::_mm256_*`), used when the CPU
//!   reports `avx` at runtime. The crate's baseline target is plain x86-64,
//!   so without this the compiler never emits 256-bit ops.
//! * **4 lanes** — SSE2 (`_mm_*`), the x86-64 floor; always available there.
//! * **1 lane** — plain scalar loop, the portable fallback and the pinned
//!   reference path on every other architecture.
//!
//! **Determinism contract.** Lanes always map to *distinct output elements*;
//! no kernel ever splits one element's accumulation chain across lanes or
//! reassociates a reduction. Each element sees exactly the scalar op
//! sequence (`c + a*x`, `a - s`, `a / s`, ...), and none of the vector paths
//! use FMA (`vfmadd*` contracts `a*x + c` into one rounding — bits would
//! move). IEEE-754 `mul`/`add`/`sub`/`div` are exact per element, so the
//! 16/8/4/1-lane paths are **bitwise identical**, pinned by in-module tests,
//! `tests/simd_equivalence.rs`, the `tests/parallel_determinism.rs`
//! composite pin, and the serving crate's `tests/mode_matrix.rs`, which
//! crosses the SIMD toggle with thread count, WAL and telemetry.
//!
//! Reductions (`dot`, softmax max/sum folds, `exp`) stay scalar: vectorizing
//! them would reassociate the accumulation order, which is exactly what the
//! bitwise contract forbids.
//!
//! **Scalar reference.** [`set_simd`]`(Some(false))` forces the scalar path
//! in-process: a toggle that moves wall-clock, never bits. The equivalence
//! tests use it as the reference and `bench_simd` as the interleaved
//! baseline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Widest lane count any backend uses. Shape sweeps in tests cover
/// `1..=2*MAX_LANES+1` so every tail-masking case is exercised.
pub const MAX_LANES: usize = 16;

/// Whether SIMD kernels are requested; [`set_simd`] flips it.
static SIMD_ON: AtomicBool = AtomicBool::new(true);

/// Runtime-detected hardware lane width (16 = AVX-512F, 8 = AVX, 4 = SSE2,
/// 1 = scalar).
static DETECTED_LANES: OnceLock<usize> = OnceLock::new();

/// Memoized [`active_lanes`]: 16, 8, 4 or 1 lanes, or 0 = stale, recompute.
/// Wide-slice dispatches consult this per call, so it must be exactly one
/// relaxed load on the hot path — the enabled-check and CPUID resolution
/// are folded in at [`set_simd`]/first-use time, not per call.
static ACTIVE_LANES: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Whether SIMD kernels are requested (on unless [`set_simd`] turned them
/// off). The effective width still depends on [`detected_lanes`].
#[inline]
pub fn simd_enabled() -> bool {
    SIMD_ON.load(Ordering::Relaxed)
}

/// Override the runtime toggle (`Some(on)`), or restore the default, on
/// (`None`). Used by the determinism tests and `bench_simd` to compare lane
/// widths within one process.
pub fn set_simd(on: Option<bool>) {
    SIMD_ON.store(on.unwrap_or(true), Ordering::Relaxed);
    ACTIVE_LANES.store(0, Ordering::Relaxed); // recompute on next dispatch
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
/// path; the override/CPUID resolution only reruns after [`set_simd`].
#[inline]
pub fn active_lanes() -> usize {
    match ACTIVE_LANES.load(Ordering::Relaxed) {
        0 => refresh_active_lanes(),
        n => n as usize,
    }
}

#[cold]
fn refresh_active_lanes() -> usize {
    let lanes = if simd_enabled() { detected_lanes() } else { 1 };
    ACTIVE_LANES.store(lanes as u8, Ordering::Relaxed);
    lanes
}

/// Scalar reference kernels — the semantics every vector path must replay
/// bit-for-bit. These are also the portable fallback and the lane tails.
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

/// SSE2 4-lane kernels. SSE2 is unconditionally present on x86-64, so these
/// need no `target_feature` gate — only the intrinsics' `unsafe`.
#[cfg(target_arch = "x86_64")]
mod sse {
    use std::arch::x86_64::*;

    const W: usize = 4;

    #[inline]
    pub fn axpy(acc: &mut [f32], x: &[f32], a: f32) {
        let n = acc.len();
        let body = n - n % W;
        unsafe {
            let va = _mm_set1_ps(a);
            let mut i = 0;
            while i < body {
                let vx = _mm_loadu_ps(x.as_ptr().add(i));
                let vc = _mm_loadu_ps(acc.as_ptr().add(i));
                _mm_storeu_ps(acc.as_mut_ptr().add(i), _mm_add_ps(vc, _mm_mul_ps(va, vx)));
                i += W;
            }
        }
        super::scalar::axpy(&mut acc[body..], &x[body..], a);
    }

    #[inline]
    pub fn acc(acc: &mut [f32], x: &[f32]) {
        let n = acc.len();
        let body = n - n % W;
        unsafe {
            let mut i = 0;
            while i < body {
                let vx = _mm_loadu_ps(x.as_ptr().add(i));
                let vc = _mm_loadu_ps(acc.as_ptr().add(i));
                _mm_storeu_ps(acc.as_mut_ptr().add(i), _mm_add_ps(vc, vx));
                i += W;
            }
        }
        super::scalar::acc(&mut acc[body..], &x[body..]);
    }

    #[inline]
    pub fn binary(op: super::BinOp, out: &mut [f32], a: &[f32], b: &[f32]) {
        let n = out.len();
        let body = n - n % W;
        unsafe {
            let mut i = 0;
            while i < body {
                let va = _mm_loadu_ps(a.as_ptr().add(i));
                let vb = _mm_loadu_ps(b.as_ptr().add(i));
                let r = match op {
                    super::BinOp::Add => _mm_add_ps(va, vb),
                    super::BinOp::Sub => _mm_sub_ps(va, vb),
                    super::BinOp::Mul => _mm_mul_ps(va, vb),
                };
                _mm_storeu_ps(out.as_mut_ptr().add(i), r);
                i += W;
            }
        }
        super::scalar::binary(op, &mut out[body..], &a[body..], &b[body..]);
    }

    #[inline]
    pub fn scale(out: &mut [f32], a: &[f32], c: f32) {
        let n = out.len();
        let body = n - n % W;
        unsafe {
            let vc = _mm_set1_ps(c);
            let mut i = 0;
            while i < body {
                let va = _mm_loadu_ps(a.as_ptr().add(i));
                _mm_storeu_ps(out.as_mut_ptr().add(i), _mm_mul_ps(vc, va));
                i += W;
            }
        }
        super::scalar::scale(&mut out[body..], &a[body..], c);
    }

    #[inline]
    pub fn scale_inplace(x: &mut [f32], c: f32) {
        let n = x.len();
        let body = n - n % W;
        unsafe {
            let vc = _mm_set1_ps(c);
            let mut i = 0;
            while i < body {
                let vx = _mm_loadu_ps(x.as_ptr().add(i));
                _mm_storeu_ps(x.as_mut_ptr().add(i), _mm_mul_ps(vx, vc));
                i += W;
            }
        }
        super::scalar::scale_inplace(&mut x[body..], c);
    }

    #[inline]
    pub fn add_scalar(out: &mut [f32], a: &[f32], s: f32) {
        let n = out.len();
        let body = n - n % W;
        unsafe {
            let vs = _mm_set1_ps(s);
            let mut i = 0;
            while i < body {
                let va = _mm_loadu_ps(a.as_ptr().add(i));
                _mm_storeu_ps(out.as_mut_ptr().add(i), _mm_add_ps(va, vs));
                i += W;
            }
        }
        super::scalar::add_scalar(&mut out[body..], &a[body..], s);
    }

    #[inline]
    pub fn sub_scalar(out: &mut [f32], a: &[f32], s: f32) {
        let n = out.len();
        let body = n - n % W;
        unsafe {
            let vs = _mm_set1_ps(s);
            let mut i = 0;
            while i < body {
                let va = _mm_loadu_ps(a.as_ptr().add(i));
                _mm_storeu_ps(out.as_mut_ptr().add(i), _mm_sub_ps(va, vs));
                i += W;
            }
        }
        super::scalar::sub_scalar(&mut out[body..], &a[body..], s);
    }

    #[inline]
    pub fn div_scalar_inplace(x: &mut [f32], s: f32) {
        let n = x.len();
        let body = n - n % W;
        unsafe {
            let vs = _mm_set1_ps(s);
            let mut i = 0;
            while i < body {
                let vx = _mm_loadu_ps(x.as_ptr().add(i));
                _mm_storeu_ps(x.as_mut_ptr().add(i), _mm_div_ps(vx, vs));
                i += W;
            }
        }
        super::scalar::div_scalar_inplace(&mut x[body..], s);
    }

    /// The 4-lane register backend (see [`super::Lanes`]).
    pub(crate) struct Sse;

    impl super::Lanes for Sse {
        const W: usize = W;
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

/// AVX 8-lane kernels. Gated behind runtime `is_x86_feature_detected!("avx")`
/// (see [`detected_lanes`]); every fn carries `#[target_feature(enable =
/// "avx")]` so the compiler emits 256-bit ops. **Never** enable `fma` here or
/// call `_mm256_fmadd_ps`: fusing `a*x + c` into one rounding would break the
/// bitwise contract with the scalar path.
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::*;

    const W: usize = 8;

    /// # Safety
    /// Caller must have verified `is_x86_feature_detected!("avx")`.
    #[target_feature(enable = "avx")]
    pub unsafe fn axpy(acc: &mut [f32], x: &[f32], a: f32) {
        let n = acc.len();
        let body = n - n % W;
        let va = _mm256_set1_ps(a);
        let mut i = 0;
        while i < body {
            let vx = _mm256_loadu_ps(x.as_ptr().add(i));
            let vc = _mm256_loadu_ps(acc.as_ptr().add(i));
            _mm256_storeu_ps(acc.as_mut_ptr().add(i), _mm256_add_ps(vc, _mm256_mul_ps(va, vx)));
            i += W;
        }
        super::scalar::axpy(&mut acc[body..], &x[body..], a);
    }

    /// # Safety
    /// Caller must have verified `is_x86_feature_detected!("avx")`.
    #[target_feature(enable = "avx")]
    pub unsafe fn acc(acc: &mut [f32], x: &[f32]) {
        let n = acc.len();
        let body = n - n % W;
        let mut i = 0;
        while i < body {
            let vx = _mm256_loadu_ps(x.as_ptr().add(i));
            let vc = _mm256_loadu_ps(acc.as_ptr().add(i));
            _mm256_storeu_ps(acc.as_mut_ptr().add(i), _mm256_add_ps(vc, vx));
            i += W;
        }
        super::scalar::acc(&mut acc[body..], &x[body..]);
    }

    /// # Safety
    /// Caller must have verified `is_x86_feature_detected!("avx")`.
    #[target_feature(enable = "avx")]
    pub unsafe fn binary(op: super::BinOp, out: &mut [f32], a: &[f32], b: &[f32]) {
        let n = out.len();
        let body = n - n % W;
        let mut i = 0;
        while i < body {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i));
            let r = match op {
                super::BinOp::Add => _mm256_add_ps(va, vb),
                super::BinOp::Sub => _mm256_sub_ps(va, vb),
                super::BinOp::Mul => _mm256_mul_ps(va, vb),
            };
            _mm256_storeu_ps(out.as_mut_ptr().add(i), r);
            i += W;
        }
        super::scalar::binary(op, &mut out[body..], &a[body..], &b[body..]);
    }

    /// # Safety
    /// Caller must have verified `is_x86_feature_detected!("avx")`.
    #[target_feature(enable = "avx")]
    pub unsafe fn scale(out: &mut [f32], a: &[f32], c: f32) {
        let n = out.len();
        let body = n - n % W;
        let vc = _mm256_set1_ps(c);
        let mut i = 0;
        while i < body {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_mul_ps(vc, va));
            i += W;
        }
        super::scalar::scale(&mut out[body..], &a[body..], c);
    }

    /// # Safety
    /// Caller must have verified `is_x86_feature_detected!("avx")`.
    #[target_feature(enable = "avx")]
    pub unsafe fn scale_inplace(x: &mut [f32], c: f32) {
        let n = x.len();
        let body = n - n % W;
        let vc = _mm256_set1_ps(c);
        let mut i = 0;
        while i < body {
            let vx = _mm256_loadu_ps(x.as_ptr().add(i));
            _mm256_storeu_ps(x.as_mut_ptr().add(i), _mm256_mul_ps(vx, vc));
            i += W;
        }
        super::scalar::scale_inplace(&mut x[body..], c);
    }

    /// # Safety
    /// Caller must have verified `is_x86_feature_detected!("avx")`.
    #[target_feature(enable = "avx")]
    pub unsafe fn add_scalar(out: &mut [f32], a: &[f32], s: f32) {
        let n = out.len();
        let body = n - n % W;
        let vs = _mm256_set1_ps(s);
        let mut i = 0;
        while i < body {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_add_ps(va, vs));
            i += W;
        }
        super::scalar::add_scalar(&mut out[body..], &a[body..], s);
    }

    /// # Safety
    /// Caller must have verified `is_x86_feature_detected!("avx")`.
    #[target_feature(enable = "avx")]
    pub unsafe fn sub_scalar(out: &mut [f32], a: &[f32], s: f32) {
        let n = out.len();
        let body = n - n % W;
        let vs = _mm256_set1_ps(s);
        let mut i = 0;
        while i < body {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_sub_ps(va, vs));
            i += W;
        }
        super::scalar::sub_scalar(&mut out[body..], &a[body..], s);
    }

    /// # Safety
    /// Caller must have verified `is_x86_feature_detected!("avx")`.
    #[target_feature(enable = "avx")]
    pub unsafe fn div_scalar_inplace(x: &mut [f32], s: f32) {
        let n = x.len();
        let body = n - n % W;
        let vs = _mm256_set1_ps(s);
        let mut i = 0;
        while i < body {
            let vx = _mm256_loadu_ps(x.as_ptr().add(i));
            _mm256_storeu_ps(x.as_mut_ptr().add(i), _mm256_div_ps(vx, vs));
            i += W;
        }
        super::scalar::div_scalar_inplace(&mut x[body..], s);
    }

    /// The 8-lane register backend (see [`super::Lanes`]). Only ever
    /// instantiated inside a `#[target_feature(enable = "avx")]` caller,
    /// which is where these `#[inline(always)]` bodies become 256-bit ops.
    pub(crate) struct Avx;

    impl super::Lanes for Avx {
        const W: usize = W;
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
/// kernels above stay 8-wide under AVX-512 (see `dispatch!`). Gated behind
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
// Public dispatchers: pick the widest *worthwhile* backend per call.
//
// The AVX functions carry `#[target_feature]`, which makes them real calls:
// the compiler cannot inline them into SSE-baseline callers, and each call
// pays the boundary (argument spill + vzeroupper). For short slices — the
// `n=1` output layers, per-row softmax passes over a 50-step sequence — that
// boundary costs more than 256-bit lanes save. And below the boundary the
// manual 4-wide loop is no better either: LLVM auto-vectorizes the plain
// scalar loop with unrolling the hand-written body doesn't have. So slices
// under [`WIDE_MIN_LEN`] run the scalar kernel (inlined, auto-vectorized —
// the same machine code the scalar reference runs), and only longer slices dispatch
// to the explicit wide backend.
//
// Ordering matters: the length test comes FIRST, against a compile-time
// constant, so the short-slice fast path never touches `active_lanes()` at
// all. When the matmuls still ran on `axpy`, they called it once per output
// element at `n = 1`, and even a relaxed atomic load per call showed up as
// an 8–23% regression on those shapes before the check was reordered. Only slices long enough to
// amortize it pay the one-load mode lookup. Every backend produces identical
// bits (pinned below), so this routing is a pure wall-clock choice,
// invisible to results.
// ---------------------------------------------------------------------------

/// Minimum slice length before an explicit wide kernel beats the inlined,
/// auto-vectorized scalar loop, for the slice kernels below. It no longer
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
                #[cfg(target_arch = "x86_64")]
                4 => sse::$name($($arg),*),
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

    fn assert_modes_match(mut f: impl FnMut() -> Vec<f32>) {
        let _guard = simd_lock();
        set_simd(Some(true));
        let wide = f();
        set_simd(Some(false));
        let narrow = f();
        set_simd(None);
        assert_eq!(bits(&wide), bits(&narrow));
    }

    // Every length around the 4/8/16-lane boundaries (including 0 and 1)
    // plus both sides of the wide-dispatch threshold.
    fn lens() -> Vec<usize> {
        (0..=2 * MAX_LANES + 1)
            .chain([63, 64, 65])
            .chain([WIDE_MIN_LEN - 1, WIDE_MIN_LEN, WIDE_MIN_LEN + 1, WIDE_MIN_LEN + 9])
            .collect()
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

    #[test]
    fn toggle_defaults_on_and_override_wins() {
        let _guard = simd_lock();
        set_simd(None);
        assert_eq!(active_lanes(), detected_lanes(), "SIMD is on by default");
        set_simd(Some(false));
        assert_eq!(active_lanes(), 1);
        set_simd(Some(true));
        assert_eq!(active_lanes(), detected_lanes());
        set_simd(None);
        assert!([1, 4, 8, 16].contains(&detected_lanes()));
    }
}
