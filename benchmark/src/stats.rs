//! Order statistics and the FNV digest used for the exposure/loss check.

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `None` on an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Nearest-rank median (the lower middle of an even sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The median over windows of each window's `p`th percentile, where
/// `window[i]` numbers the window of `samples[i]`. A stall of the host that
/// fills fewer than half the windows does not move it. `None` on an empty
/// sample.
pub fn windowed_percentile(samples: &[f64], window: &[usize], p: f64) -> Option<f64> {
    let mut by_window: Vec<Vec<f64>> = Vec::new();
    for (&x, &w) in samples.iter().zip(window) {
        if by_window.len() <= w {
            by_window.resize(w + 1, Vec::new());
        }
        by_window[w].push(x);
    }
    let per_window: Vec<f64> = by_window
        .iter()
        .filter_map(|xs| percentile(xs, p))
        .collect();
    median(&per_window)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Rate of work per second, as the median over consecutive full windows of
/// `window` units of (work done ÷ time spent); all units form one window when
/// there are too few for a full one. A window hit by a stall of the host
/// moves this less than a rate over the whole run.
pub fn windowed_rate(work: &[f64], secs: &[f64], window: usize) -> f64 {
    let rate = |w: &[f64], s: &[f64]| w.iter().sum::<f64>() / s.iter().sum::<f64>().max(1e-12);
    if work.len() < window {
        return if work.is_empty() {
            0.0
        } else {
            rate(work, secs)
        };
    }
    let rates: Vec<f64> = work
        .chunks_exact(window)
        .zip(secs.chunks_exact(window))
        .map(|(w, s)| rate(w, s))
        .collect();
    median(&rates).unwrap_or(0.0)
}

/// 64-bit FNV-1a over a stream of words: the per-workload output digest.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in a ranked list: item, position and score bits.
    pub fn ranked(&mut self, list: &[crate::rank::Ranked]) {
        for &(item, position, bits) in list {
            self.word(u64::from(item) << 16 | u64::from(position));
            self.word(u64::from(bits));
        }
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        // 10 samples: p99 is the maximum, p50 the lower middle.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 99.0), Some(10.0));
        assert_eq!(median(&ten), Some(5.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // Three windows; the third is a stall.
        let xs = [1.0, 2.0, 3.0, 2.0, 3.0, 4.0, 50.0, 60.0, 70.0];
        let w = [0, 0, 0, 1, 1, 1, 2, 2, 2];
        assert_eq!(windowed_percentile(&xs, &w, 100.0), Some(4.0));
        assert_eq!(percentile(&xs, 100.0), Some(70.0));
        // One window is the plain percentile.
        assert_eq!(windowed_percentile(&xs, &[0; 9], 50.0), median(&xs));
        assert_eq!(windowed_percentile(&[], &[], 95.0), None);
    }

    #[test]
    fn windowed_rate_takes_the_median_window() {
        // Three windows of two units: rates 2, 1 and 0.1 per second.
        let work = [1.0; 6];
        let secs = [0.5, 0.5, 1.0, 1.0, 10.0, 10.0];
        assert_eq!(windowed_rate(&work, &secs, 2), 1.0);
        // A partial tail window is left out...
        assert_eq!(windowed_rate(&[4.0, 4.0, 4.0], &[1.0, 1.0, 2.0], 2), 4.0);
        // ...unless there is no full window at all.
        assert_eq!(windowed_rate(&[4.0, 4.0, 4.0], &[1.0, 1.0, 2.0], 10), 3.0);
        assert_eq!(windowed_rate(&[], &[], 10), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let run = |ws: &[u64]| {
            let mut d = Digest::new();
            ws.iter().for_each(|&w| d.word(w));
            d.value()
        };
        assert_eq!(run(&[1, 2, 3]), run(&[1, 2, 3]));
        assert_ne!(run(&[1, 2, 3]), run(&[3, 2, 1]));
        assert_eq!(run(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
