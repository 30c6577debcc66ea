//! Per-length `axpy` cost, scalar-vs-SIMD — the measurement behind
//! `simd::WIDE_MIN_LEN`.
//!
//! `simd::set_simd(Some(false))` runs the inlined scalar loop (which LLVM
//! auto-vectorizes with unrolling); SIMD on dispatches to the explicit wide
//! backend once a slice crosses the threshold. The crossover printed here is where
//! the AVX call boundary (`#[target_feature]` functions cannot inline into
//! SSE-baseline callers) is paid for by the wider lanes. Note this
//! standalone crossover is *optimistic* — inside real kernels the boundary
//! costs more (see the `WIDE_MIN_LEN` doc), which is why the shipped
//! threshold sits above the break-even printed here. Run with
//! `cargo run --release -p basm-tensor --example axpy_tune`.

use basm_tensor::simd;
use std::time::Instant;

fn main() {
    println!("lanes detected: {}", simd::detected_lanes());
    for &n in &[16usize, 32, 48, 64, 80, 96, 128, 160, 200, 256, 384, 512, 1024] {
        let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.3).collect();
        let mut acc = vec![0.5f32; n];
        let reps = 40_000_000 / n.max(1);
        let mut best = [f64::MAX; 2];
        // Trial 0 is warmup; keep the best of the rest per mode, interleaved
        // so host-speed drift hits both arms equally.
        for trial in 0..5 {
            for (mi, on) in [false, true].into_iter().enumerate() {
                simd::set_simd(Some(on));
                let t = Instant::now();
                for r in 0..reps {
                    // Vary `a` so the loop cannot be hoisted.
                    simd::axpy(&mut acc, &x, 1.0 + (r & 1) as f32 * 1e-9);
                }
                let el = t.elapsed().as_secs_f64();
                if trial > 0 {
                    best[mi] = best[mi].min(el);
                }
                std::hint::black_box(&acc);
            }
        }
        simd::set_simd(None);
        println!(
            "n={n:5}  off={:8.1}ms  on={:8.1}ms  on-speedup={:.3}",
            best[0] * 1e3,
            best[1] * 1e3,
            best[0] / best[1]
        );
    }
}
