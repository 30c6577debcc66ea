//! Host-speed reference. On a shared host, how fast the program runs moves
//! with whatever runs next to it: a fixed loop here ran at anywhere from
//! 0.5× to 1× its best speed, in phases that lasted seconds, and
//! independently on each vCPU. Ten wall-clock runs of the same code then
//! spread by 15–30%.
//!
//! So every timed unit of work is also measured against a fixed reference
//! kernel that the benchmark owns (a small GEMM and a random gather over a
//! table larger than L2), run on the same thread right before and after the
//! unit, or in the server's idle gaps. A unit's host-normalised time is its
//! wall time × `NOMINAL_S` ÷ the reference time around it: the time it would
//! have taken on a host where the reference takes `NOMINAL_S`. In one set of
//! ten runs per workload, the end-to-end times spread by 0.04–0.16 on the
//! wall clock and by 0.014–0.084 normalised. The kernel uses no library code,
//! so a change to the library moves the normalised times as it moves the
//! wall times. One that leaves work running between units (a background
//! thread) would slow the kernel and flatter the normalised times; the
//! `wall.*` context lines show it.

use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 96;
const DIM: usize = 256;
/// 4 MiB of `f32`, past the L2 of the host the baseline was measured on.
const TABLE: usize = 1 << 20;
const GATHERS: usize = 32_768;
const GATHER_LEN: usize = 16;

/// The kernel's median time on the host the baseline was measured on (a
/// 2-vCPU VM on a shared 2.1 GHz Xeon): normalised times are in seconds of
/// that host at its typical load.
pub const NOMINAL_S: f64 = 1.7e-3;

/// Bytes the kernel keeps resident, left out of the reported peak RSS.
pub const RESIDENT_BYTES: usize = 4 * (2 * ROWS * DIM + DIM * DIM + TABLE) + 4 * GATHERS;

pub struct HostSpeed {
    a: Vec<f32>,
    w: Vec<f32>,
    c: Vec<f32>,
    table: Vec<f32>,
    idx: Vec<u32>,
    /// (midpoint, kernel seconds), in time order.
    samples: Vec<(Instant, f64)>,
}

impl HostSpeed {
    /// Builds the kernel's inputs and runs it once untimed, so that its pages
    /// are resident before the first sample.
    pub fn new() -> Self {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let idx = (0..GATHERS)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 20) as u32 & (TABLE - GATHER_LEN) as u32
            })
            .collect();
        let mut host = Self {
            a: (0..ROWS * DIM).map(|i| (i % 7) as f32 * 0.1).collect(),
            w: (0..DIM * DIM).map(|i| (i % 5) as f32 * 0.01).collect(),
            c: vec![0.0; ROWS * DIM],
            table: (0..TABLE).map(|i| (i % 11) as f32).collect(),
            idx,
            samples: Vec::new(),
        };
        black_box(host.kernel());
        host
    }

    fn kernel(&mut self) -> f32 {
        for (a, c) in self.a.chunks_exact(DIM).zip(self.c.chunks_exact_mut(DIM)) {
            c.fill(0.0);
            for (&av, w) in a.iter().zip(self.w.chunks_exact(DIM)) {
                for (x, y) in c.iter_mut().zip(w) {
                    *x += av * y;
                }
            }
        }
        let mut sum = self.c[17];
        for &i in &self.idx {
            let i = i as usize;
            sum += self.table[i..i + GATHER_LEN].iter().sum::<f32>();
        }
        sum
    }

    /// Time the kernel once, now.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(self.kernel());
        let took = t0.elapsed();
        self.samples.push((t0 + took / 2, took.as_secs_f64()));
    }

    /// When the last sample was taken.
    pub fn last(&self) -> Option<Instant> {
        self.samples.last().map(|s| s.0)
    }

    /// `NOMINAL_S` over the mean kernel time of the samples nearest `at` on
    /// either side (or the one side that has one); 1 without samples.
    pub fn factor(&self, at: Instant) -> f64 {
        let i = self.samples.partition_point(|s| s.0 <= at);
        let around: Vec<f64> = [i.checked_sub(1), Some(i)]
            .into_iter()
            .flatten()
            .filter_map(|k| self.samples.get(k).map(|s| s.1))
            .collect();
        if around.is_empty() {
            1.0
        } else {
            NOMINAL_S * around.len() as f64 / around.iter().sum::<f64>()
        }
    }

    /// The kernel's times so far, in seconds.
    pub fn kernel_s(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    #[cfg(test)]
    fn with_samples(samples: Vec<(Instant, f64)>) -> Self {
        Self {
            a: Vec::new(),
            w: Vec::new(),
            c: Vec::new(),
            table: Vec::new(),
            idx: Vec::new(),
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn factor_uses_the_samples_on_either_side() {
        let t = Instant::now();
        let ms = |n: u64| t + Duration::from_millis(n);
        let near = |a: f64, b: f64| (a - b).abs() < 1e-12;
        let none = HostSpeed::with_samples(Vec::new());
        assert_eq!(none.factor(t), 1.0);
        let h = HostSpeed::with_samples(vec![(ms(10), NOMINAL_S), (ms(20), 3.0 * NOMINAL_S)]);
        // Before the first and after the last sample: that sample alone.
        assert!(near(h.factor(ms(0)), 1.0));
        assert!(near(h.factor(ms(30)), 1.0 / 3.0));
        // Between two samples: their mean, 2 × nominal.
        assert!(near(h.factor(ms(15)), 0.5));
        // On a sample: that one and the next.
        assert!(near(h.factor(ms(10)), 0.5));
    }

    #[test]
    fn kernel_is_deterministic_and_timed() {
        let mut h = HostSpeed::new();
        let (x, y) = (h.kernel(), h.kernel());
        assert_eq!(x.to_bits(), y.to_bits());
        h.sample();
        h.sample();
        assert_eq!(h.kernel_s().len(), 2);
        assert!(h.kernel_s().iter().all(|&s| s > 0.0));
        assert!(h.last().is_some());
    }
}
