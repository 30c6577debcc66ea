//! Workload inputs generated from `--seed`: the benchmark's own random
//! source, Poisson arrival times, Zipf user popularity and the repeat-key
//! share of a request stream.
//!
//! The generator is the benchmark's own SplitMix64 rather than the library's
//! `Prng`, so a change to the library cannot change the inputs it is timed on.

use std::collections::HashMap;

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose of one run.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut r = Self(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Index drawn in proportion to non-negative `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Poisson-distributed count with the given mean (Knuth's product
    /// method; the means used here are small).
    pub fn poisson(&mut self, mean: f64) -> usize {
        let limit = (-mean).exp();
        let mut k = 0;
        let mut p = self.uniform();
        while p > limit {
            k += 1;
            p *= self.uniform();
        }
        k
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Arrival offsets in nanoseconds of a homogeneous Poisson process at
/// `rate` per second over `duration_s` seconds.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, duration_s: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * duration_s * 1.1) as usize);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.uniform()).ln() / rate;
        if t >= duration_s {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Discrete Zipf sampler over ranks `0..n` with exponent `s`
/// (P(rank k) ∝ 1/(k+1)^s).
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(s);
                total
            })
            .collect();
        Self { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let target = rng.uniform() * self.cumulative[self.cumulative.len() - 1];
        self.cumulative
            .partition_point(|&c| c <= target)
            .min(self.cumulative.len() - 1)
    }
}

/// One event of a serving stream, as far as feature reuse is concerned.
#[derive(Debug, Clone, Copy)]
pub enum KeyEvent {
    /// A request keyed by the user's feature-block key `(uid, geo, hour)`.
    Request { uid: u32, geo: (u8, u8), hour: u8 },
    /// A click by `uid`, which changes that user's history.
    Click { uid: u32 },
}

/// Share of requests whose `(uid, geo, hour)` key was requested before with
/// no click by that user since: the requests a reuse cache could answer.
/// A property of the input stream, not a program counter.
pub fn repeat_key_share(events: &[KeyEvent]) -> f64 {
    let mut clicks: HashMap<u32, u64> = HashMap::new();
    let mut last_seen: HashMap<(u32, (u8, u8), u8), u64> = HashMap::new();
    let (mut requests, mut repeats) = (0u64, 0u64);
    for e in events {
        match *e {
            KeyEvent::Request { uid, geo, hour } => {
                let version = clicks.get(&uid).copied().unwrap_or(0);
                if last_seen.insert((uid, geo, hour), version) == Some(version) {
                    repeats += 1;
                }
                requests += 1;
            }
            KeyEvent::Click { uid } => *clicks.entry(uid).or_insert(0) += 1,
        }
    }
    if requests == 0 {
        0.0
    } else {
        repeats as f64 / requests as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_and_hits_its_rate() {
        let a = poisson_arrivals(&mut Rng::stream(1, 7), 300.0, 100.0);
        let b = poisson_arrivals(&mut Rng::stream(1, 7), 300.0, 100.0);
        let c = poisson_arrivals(&mut Rng::stream(2, 7), 300.0, 100.0);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seeds, different schedules");
        let rate = a.len() as f64 / 100.0;
        assert!(
            (rate - 300.0).abs() < 0.05 * 300.0,
            "mean rate {rate} is not within 5% of 300"
        );
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "arrivals are in time order"
        );
        assert!(*a.last().unwrap() < 100_000_000_000);
    }

    #[test]
    fn poisson_counts_have_their_mean() {
        let mut rng = Rng::stream(3, 0);
        let n = 20_000;
        let total: usize = (0..n).map(|_| rng.poisson(28.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 28.0).abs() < 0.05 * 28.0, "poisson mean {mean}");
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let z = Zipf::new(3000, 1.1);
        let draw = |seed| {
            let mut rng = Rng::stream(seed, 0);
            (0..50_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert_ne!(a, draw(6));
        let mut counts = vec![0usize; 3000];
        a.iter().for_each(|&k| counts[k] += 1);
        // P(0)/P(1) = 2^1.1 ≈ 2.14; allow sampling noise.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((1.9..2.4).contains(&ratio), "rank-0/rank-1 ratio {ratio}");
        assert!(
            counts[0] > counts[100] * 50,
            "the head must dominate the tail"
        );
    }

    #[test]
    fn repeat_key_share_counts_unchanged_keys() {
        use KeyEvent::*;
        let events = [
            Request {
                uid: 1,
                geo: (0, 0),
                hour: 12,
            }, // first sight
            Request {
                uid: 1,
                geo: (0, 0),
                hour: 12,
            }, // repeat
            Request {
                uid: 1,
                geo: (0, 0),
                hour: 13,
            }, // new hour: new key
            Click { uid: 1 },
            Request {
                uid: 1,
                geo: (0, 0),
                hour: 12,
            }, // history changed
            Request {
                uid: 1,
                geo: (0, 0),
                hour: 12,
            }, // repeat again
            Click { uid: 2 }, // another user's click
            Request {
                uid: 1,
                geo: (0, 0),
                hour: 12,
            }, // still a repeat
            Request {
                uid: 2,
                geo: (1, 1),
                hour: 12,
            }, // first sight
        ];
        assert_eq!(repeat_key_share(&events), 3.0 / 7.0);
        assert_eq!(repeat_key_share(&[]), 0.0);
    }
}
