//! Reliability diagram (calibration curve): predicted-probability buckets vs
//! empirical click rate — the debias story (§V-D) made measurable.

use serde::Serialize;

/// One calibration bucket.
#[derive(Debug, Clone, Serialize)]
pub struct CalibrationBucket {
    /// Bucket lower edge (predicted probability).
    pub lo: f64,
    /// Bucket upper edge.
    pub hi: f64,
    /// Mean predicted probability inside the bucket.
    pub mean_predicted: f64,
    /// Empirical positive rate inside the bucket.
    pub empirical: f64,
    /// Samples in the bucket.
    pub count: usize,
}

/// Build an equal-width reliability diagram with `n_buckets` over `[0, 1]`.
/// Empty buckets are omitted.
pub fn reliability_diagram(
    probs: &[f32],
    labels: &[f32],
    n_buckets: usize,
) -> Vec<CalibrationBucket> {
    assert_eq!(probs.len(), labels.len());
    assert!(n_buckets >= 1);
    let mut pred_sum = vec![0.0f64; n_buckets];
    let mut label_sum = vec![0.0f64; n_buckets];
    let mut count = vec![0usize; n_buckets];
    for (&p, &l) in probs.iter().zip(labels.iter()) {
        let b = ((p as f64 * n_buckets as f64) as usize).min(n_buckets - 1);
        pred_sum[b] += p as f64;
        label_sum[b] += l as f64;
        count[b] += 1;
    }
    (0..n_buckets)
        .filter(|&b| count[b] > 0)
        .map(|b| CalibrationBucket {
            lo: b as f64 / n_buckets as f64,
            hi: (b + 1) as f64 / n_buckets as f64,
            mean_predicted: pred_sum[b] / count[b] as f64,
            empirical: label_sum[b] / count[b] as f64,
            count: count[b],
        })
        .collect()
}

/// Expected Calibration Error: count-weighted mean |predicted - empirical|.
pub fn expected_calibration_error(probs: &[f32], labels: &[f32], n_buckets: usize) -> f64 {
    let buckets = reliability_diagram(probs, labels, n_buckets);
    let total: usize = buckets.iter().map(|b| b.count).sum();
    if total == 0 {
        return 0.0;
    }
    buckets
        .iter()
        .map(|b| (b.count as f64 / total as f64) * (b.mean_predicted - b.empirical).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_calibrated_has_tiny_ece() {
        // Predictions equal to long-run frequencies in each bucket.
        let mut probs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..1000 {
            let p = 0.3f32;
            probs.push(p);
            labels.push(f32::from(i % 10 < 3)); // 30% positives
        }
        let ece = expected_calibration_error(&probs, &labels, 10);
        assert!(ece < 0.01, "{ece}");
    }

    #[test]
    fn overconfident_predictions_have_large_ece() {
        let probs = vec![0.95f32; 200];
        let labels: Vec<f32> = (0..200).map(|i| f32::from(i % 10 == 0)).collect(); // 10%
        let ece = expected_calibration_error(&probs, &labels, 10);
        assert!(ece > 0.7, "{ece}");
    }

    #[test]
    fn buckets_partition_and_count() {
        let probs = vec![0.05f32, 0.15, 0.95, 0.97];
        let labels = vec![0.0f32, 1.0, 1.0, 1.0];
        let d = reliability_diagram(&probs, &labels, 10);
        let total: usize = d.iter().map(|b| b.count).sum();
        assert_eq!(total, 4);
        assert!(d.iter().all(|b| b.lo < b.hi));
        // Highest bucket holds the two 0.9x predictions.
        assert_eq!(d.last().unwrap().count, 2);
    }

    #[test]
    fn boundary_probability_goes_to_last_bucket() {
        let d = reliability_diagram(&[1.0], &[1.0], 5);
        assert_eq!(d.len(), 1);
        assert!((d[0].hi - 1.0).abs() < 1e-12);
    }
}
