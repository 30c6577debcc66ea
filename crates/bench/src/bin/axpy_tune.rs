//! Per-length cost of all eight slice kernels, scalar-vs-SIMD — the
//! measurement behind `simd::WIDE_MIN_LEN`.
//!
//! Each kernel has one body, compiled twice: inlined at the caller (the
//! baseline target, where LLVM auto-vectorizes and unrolls it) and as the
//! kernel's AVX instance, a `#[target_feature(enable = "avx")]` function.
//! `simd::set_simd(false)` always runs the inlined instance; SIMD on calls
//! the AVX instance once a slice reaches `WIDE_MIN_LEN` (128). So rows below
//! 128 time the same code in both arms: they are the A/A control, and their
//! spread is the noise floor every other row must be read against. From 128
//! up, the ratio is what the AVX call boundary (`#[target_feature]`
//! functions cannot inline into baseline callers) costs or pays at that
//! length. The standalone figure is *optimistic* — inside real kernels the
//! boundary costs more (see the `WIDE_MIN_LEN` doc), so a threshold is moved
//! only on an end-to-end measurement.
//!
//! Each length runs [`PAIRS`] interleaved off/on pairs after one warmup pair
//! (`basm_bench::timing`) and prints the median and quartiles of the
//! per-pair `off/on` ratios: above 1 SIMD on is faster. A length counts as a
//! loss only when its whole interquartile range is below 1. Run with
//! `cargo run --release -p basm-bench --bin axpy_tune`.

use basm_bench::timing;
use basm_tensor::simd;
use std::hint::black_box;

const LENS: [usize; 11] = [16, 64, 127, 128, 160, 200, 256, 384, 512, 1024, 4096];

/// Timed off/on pairs per length.
const PAIRS: usize = 10;

/// Time `kernel(out, x, c)` over `LENS`, SIMD off against on, and print one
/// row per length plus the shortest length from which SIMD on never loses.
fn tune(name: &str, kernel: impl Fn(&mut [f32], &[f32], f32)) {
    let mut wins_from = None;
    for n in LENS {
        let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.3).collect();
        let (mut out_off, mut out_on) = (vec![0.5f32; n], vec![0.5f32; n]);
        let reps = 10_000_000 / n;
        let (off, on) = timing::interleave_samples(
            PAIRS + 1,
            || {
                simd::set_simd(false);
                time_reps(&kernel, &mut out_off, &x, reps);
            },
            || {
                simd::set_simd(true);
                time_reps(&kernel, &mut out_on, &x, reps);
            },
        );
        let ratios = off.iter().zip(&on).skip(1).map(|(a, b)| a / b).collect();
        let [q1, median, q3] = timing::quartiles(ratios);
        println!(
            "{name:>18}  n={n:5}  off={:6.2}ms  on={:6.2}ms  off/on={median:.3} [{q1:.3}, {q3:.3}]",
            timing::median(off[1..].to_vec()) * 1e3,
            timing::median(on[1..].to_vec()) * 1e3,
        );
        wins_from = if q3 < 1.0 { None } else { wins_from.or(Some(n)) };
    }
    match wins_from {
        Some(n) => println!("{name:>18}  SIMD on never loses from n={n}"),
        None => println!("{name:>18}  SIMD on loses at n={}", LENS[LENS.len() - 1]),
    }
}

/// `reps` calls of `kernel`. Never inlined, so both arms run one copy of
/// the loop and the A/A rows compare identical machine code.
#[inline(never)]
fn time_reps(kernel: &impl Fn(&mut [f32], &[f32], f32), out: &mut [f32], x: &[f32], reps: usize) {
    for _ in 0..reps {
        // `black_box` keeps the operand opaque, so the loop cannot be
        // hoisted; 1.0 keeps in-place kernels' values steady.
        kernel(out, x, black_box(1.0));
    }
    black_box(out);
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
