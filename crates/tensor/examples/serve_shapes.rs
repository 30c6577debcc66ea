//! Matmul SIMD-vs-scalar cost at the serve path's actual shapes.
//!
//! Times `linalg::matmul` with the GEMM kernel's scalar instance
//! (`simd::set_simd(Some(false))`) against its widest one, at the shapes the BASM serve
//! path runs (tower layers `[cands,150]→64→32→1`, attention projections at
//! width 32). The kernel is dispatched once per call, so narrow outputs
//! get wide lanes too; `axpy_tune` measures the per-slice crossover
//! (`simd::WIDE_MIN_LEN`) that still governs the elementwise kernels. Run
//! with `cargo run --release -p basm-tensor --example serve_shapes`.

use basm_tensor::{linalg, simd, Prng};
use std::time::Instant;

fn main() {
    // (m, k, n): serve tower layers at 30 candidates, attention-sized blocks,
    // and one wide-output shape where AVX should clearly win.
    let shapes = [
        (30usize, 150usize, 64usize),
        (30, 64, 32),
        (30, 32, 1),
        (30, 48, 32),
        (50, 32, 32),
        (30, 150, 128),
    ];
    for &(m, k, n) in &shapes {
        let mut rng = Prng::seeded(1);
        let a = rng.randn(m, k, 1.0);
        let b = rng.randn(k, n, 1.0);
        let reps = 20_000_000 / (m * k * n).max(1);
        let mut best = [f64::MAX; 2];
        // Trial 0 is warmup; keep the best of the rest per mode, interleaved
        // so host-speed drift hits both arms equally.
        for trial in 0..5 {
            for (mi, on) in [false, true].into_iter().enumerate() {
                simd::set_simd(Some(on));
                let t = Instant::now();
                for _ in 0..reps {
                    std::hint::black_box(linalg::matmul(&a, &b));
                }
                let el = t.elapsed().as_secs_f64();
                if trial > 0 {
                    best[mi] = best[mi].min(el);
                }
            }
        }
        simd::set_simd(None);
        println!(
            "[{m},{k}]x[{k},{n}] reps={reps}  off={:7.1}ms on={:7.1}ms  on-speedup={:.3}",
            best[0] * 1e3,
            best[1] * 1e3,
            best[0] / best[1]
        );
    }
}
