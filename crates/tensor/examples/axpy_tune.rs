//! Per-length cost of all eight slice kernels, scalar-vs-SIMD — the
//! measurement behind `simd::WIDE_MIN_LEN`.
//!
//! Each kernel has one body, compiled twice: inlined at the caller (the
//! baseline target, where LLVM auto-vectorizes and unrolls it) and as the
//! kernel's AVX instance, a `#[target_feature(enable = "avx")]` function.
//! `simd::set_simd(false)` always runs the inlined instance; SIMD on calls
//! the AVX instance once a slice reaches `WIDE_MIN_LEN` (128). So rows below
//! 128 time the same code in both arms and read 1.0 up to noise: they are the
//! A/A control. From 128 up, `on-speedup` is what the AVX call boundary
//! (`#[target_feature]` functions cannot inline into baseline callers) costs
//! or pays at that length. The standalone figure is *optimistic* — inside
//! real kernels the boundary costs more (see the `WIDE_MIN_LEN` doc), so a
//! threshold is moved only on an end-to-end measurement. Run with
//! `cargo run --release -p basm-tensor --example axpy_tune`.

use basm_tensor::simd;
use std::hint::black_box;
use std::time::Instant;

const LENS: [usize; 11] = [16, 64, 127, 128, 160, 200, 256, 384, 512, 1024, 4096];

/// Time `kernel(out, x, c)` over `LENS`, SIMD off against on, and print one
/// row per length plus the shortest length from which SIMD on never loses.
fn tune(name: &str, kernel: impl Fn(&mut [f32], &[f32], f32)) {
    let mut wins_from = None;
    for n in LENS {
        let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.3).collect();
        let mut out = vec![0.5f32; n];
        let reps = 40_000_000 / n;
        let mut best = [f64::MAX; 2];
        // Trial 0 is warmup; keep the best of the rest per mode, interleaved
        // so host-speed drift hits both arms equally.
        for trial in 0..5 {
            for (mi, on) in [false, true].into_iter().enumerate() {
                simd::set_simd(on);
                let el = time_reps(&kernel, &mut out, &x, reps);
                if trial > 0 {
                    best[mi] = best[mi].min(el);
                }
            }
        }
        let speedup = best[0] / best[1];
        println!(
            "{name:>18}  n={n:5}  off={:7.1}ms  on={:7.1}ms  on-speedup={speedup:.3}",
            best[0] * 1e3,
            best[1] * 1e3,
        );
        wins_from = if speedup < 1.0 { None } else { wins_from.or(Some(n)) };
    }
    match wins_from {
        Some(n) => println!("{name:>18}  SIMD on never loses from n={n}"),
        None => println!("{name:>18}  SIMD on loses at n={}", LENS[LENS.len() - 1]),
    }
}

/// Seconds for `reps` calls of `kernel`. Never inlined, so both arms run one
/// copy of the loop and the A/A rows compare identical machine code.
#[inline(never)]
fn time_reps(
    kernel: &impl Fn(&mut [f32], &[f32], f32),
    out: &mut [f32],
    x: &[f32],
    reps: usize,
) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        // `black_box` keeps the operand opaque, so the loop cannot be
        // hoisted; 1.0 keeps in-place kernels' values steady.
        kernel(out, x, black_box(1.0));
    }
    black_box(out);
    t.elapsed().as_secs_f64()
}

fn main() {
    println!("lanes detected: {}", simd::detected_lanes());
    tune("axpy", simd::axpy);
    tune("acc", |o, x, _| simd::acc(o, x));
    tune("binary(mul)", |o, x, _| simd::binary(simd::BinOp::Mul, o, x, x));
    tune("scale", simd::scale);
    tune("scale_inplace", |o, _, c| simd::scale_inplace(o, c));
    tune("add_scalar", simd::add_scalar);
    tune("sub_scalar", simd::sub_scalar);
    tune("div_scalar_inplace", |o, _, c| simd::div_scalar_inplace(o, c));
}
