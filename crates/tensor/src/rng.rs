//! Seeded randomness and weight initialization.
//!
//! Every stochastic component in the reproduction takes an explicit seed so
//! experiments are deterministic and the paper's "average of five repetitions"
//! protocol can be driven by seeds `1..=5`.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG used across the workspace: the vendored `StdRng`,
/// xoshiro256++ seeded by SplitMix64.
pub struct Prng {
    inner: StdRng,
    /// Cached second value from the Box-Muller transform.
    spare_normal: Option<f32>,
}

impl Prng {
    /// Create an RNG from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        Self { inner: StdRng::seed_from_u64(seed), spare_normal: None }
    }

    /// Derive an independent child RNG; `stream` disambiguates sub-generators
    /// created from the same parent.
    pub fn fork(&mut self, stream: u64) -> Prng {
        let s: u64 = self.inner.gen::<u64>() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Prng::seeded(s)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        self.inner.gen::<f32>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Prng::below(0)");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.inner.gen::<f64>()) < p
    }

    /// Standard normal via Box-Muller (keeps the workspace free of extra
    /// distribution crates).
    pub fn normal(&mut self) -> f32 {
        if let Some(v) = self.spare_normal.take() {
            return v;
        }
        // Draw u1 in (0, 1] to keep ln(u1) finite.
        let u1: f32 = 1.0 - self.inner.gen::<f32>();
        let u2: f32 = self.inner.gen::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Zipf-like rank sample over `n` items with exponent `s`: the classic
    /// heavy-tailed popularity model used for city/item traffic. Returns a
    /// 0-based rank (0 = most popular).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        debug_assert!(n > 0);
        // Inverse-CDF on the (approximate) continuous Zipf distribution.
        let u = self.inner.gen::<f64>().max(1e-12);
        if (s - 1.0).abs() < 1e-9 {
            let hmax = (n as f64 + 1.0).ln();
            let x = (u * hmax).exp() - 1.0;
            (x as usize).min(n - 1)
        } else {
            let p = 1.0 - s;
            let hmax = ((n as f64 + 1.0).powf(p) - 1.0) / p;
            let x = (u * hmax * p + 1.0).powf(1.0 / p) - 1.0;
            (x as usize).min(n - 1)
        }
    }

    /// Sample an index from unnormalized non-negative weights.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        debug_assert!(!weights.is_empty());
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return self.below(weights.len());
        }
        let mut target = self.inner.gen::<f64>() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Tensor with i.i.d. `N(0, std^2)` entries.
    pub fn randn(&mut self, rows: usize, cols: usize, std: f32) -> Tensor {
        Tensor::from_fn(rows, cols, |_, _| self.normal() * std)
    }

    /// Tensor with i.i.d. `U(lo, hi)` entries.
    pub fn rand_uniform(&mut self, rows: usize, cols: usize, lo: f32, hi: f32) -> Tensor {
        Tensor::from_fn(rows, cols, |_, _| self.uniform_range(lo, hi))
    }

    /// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` weight.
    pub fn xavier(&mut self, fan_in: usize, fan_out: usize) -> Tensor {
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        self.rand_uniform(fan_in, fan_out, -bound, bound)
    }

    /// He/Kaiming normal initialization (for ReLU-family activations).
    pub fn he(&mut self, fan_in: usize, fan_out: usize) -> Tensor {
        let std = (2.0 / fan_in as f32).sqrt();
        self.randn(fan_in, fan_out, std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Prng::seeded(7);
        let mut b = Prng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Prng::seeded(42);
        let n = 100_000;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for _ in 0..n {
            let x = rng.normal() as f64;
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn zipf_is_head_heavy() {
        let mut rng = Prng::seeded(3);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[rng.zipf(10, 1.1)] += 1;
        }
        assert!(counts[0] > counts[4], "head should dominate: {counts:?}");
        assert!(counts[0] > counts[9] * 3, "tail should be rare: {counts:?}");
    }

    #[test]
    fn weighted_respects_weights() {
        let mut rng = Prng::seeded(11);
        let mut hits = [0usize; 3];
        for _ in 0..30_000 {
            hits[rng.weighted(&[1.0, 0.0, 3.0])] += 1;
        }
        assert_eq!(hits[1], 0);
        assert!(hits[2] > hits[0] * 2);
    }

    #[test]
    fn xavier_within_bound() {
        let mut rng = Prng::seeded(5);
        let w = rng.xavier(100, 50);
        let bound = (6.0f32 / 150.0).sqrt();
        assert!(w.max_abs() <= bound + 1e-6);
        assert!(w.max_abs() > bound * 0.5);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Prng::seeded(9);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}
