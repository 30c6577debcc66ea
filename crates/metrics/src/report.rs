//! Prediction accumulation and the full Table IV metric row.

use crate::auc::auc;
use crate::grouped::grouped_auc;
use crate::logloss::{calibration, logloss};
use crate::ndcg::ndcg_at_k;
use serde::Serialize;

/// Accumulates predictions across evaluation batches, then computes every
/// metric the paper reports (AUC, TAUC, CAUC, NDCG3, NDCG10, Logloss).
#[derive(Debug, Clone, Default)]
pub struct EvalAccumulator {
    /// Predicted click probabilities.
    pub probs: Vec<f32>,
    /// Binary labels.
    pub labels: Vec<f32>,
    /// Time-period key per prediction (TAUC grouping).
    pub time_periods: Vec<u32>,
    /// City key per prediction (CAUC grouping).
    pub cities: Vec<u32>,
    /// Session key per prediction (NDCG grouping).
    pub sessions: Vec<u32>,
}

impl EvalAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one batch of predictions.
    pub fn push_batch(
        &mut self,
        probs: &[f32],
        labels: &[f32],
        time_periods: impl IntoIterator<Item = u32>,
        cities: impl IntoIterator<Item = u32>,
        sessions: impl IntoIterator<Item = u32>,
    ) {
        assert_eq!(probs.len(), labels.len());
        self.probs.extend_from_slice(probs);
        self.labels.extend_from_slice(labels);
        self.time_periods.extend(time_periods);
        self.cities.extend(cities);
        self.sessions.extend(sessions);
        assert_eq!(self.probs.len(), self.time_periods.len());
        assert_eq!(self.probs.len(), self.cities.len());
        assert_eq!(self.probs.len(), self.sessions.len());
    }

    /// Number of accumulated predictions.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Compute the full metric report.
    pub fn report(&self) -> MetricReport {
        MetricReport {
            auc: auc(&self.probs, &self.labels).unwrap_or(0.5),
            tauc: grouped_auc(&self.probs, &self.labels, &self.time_periods).unwrap_or(0.5),
            cauc: grouped_auc(&self.probs, &self.labels, &self.cities).unwrap_or(0.5),
            ndcg3: ndcg_at_k(&self.probs, &self.labels, &self.sessions, 3).unwrap_or(0.0),
            ndcg10: ndcg_at_k(&self.probs, &self.labels, &self.sessions, 10).unwrap_or(0.0),
            logloss: logloss(&self.probs, &self.labels),
            calibration: calibration(&self.probs, &self.labels).unwrap_or(f64::NAN),
            n: self.len(),
        }
    }
}

/// One Table IV row: every offline metric for one model on one dataset.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MetricReport {
    /// Global AUC.
    pub auc: f64,
    /// Time-period-wise AUC (Eq. 20).
    pub tauc: f64,
    /// City-wise AUC (Eq. 21).
    pub cauc: f64,
    /// Session-grouped NDCG@3.
    pub ndcg3: f64,
    /// Session-grouped NDCG@10.
    pub ndcg10: f64,
    /// Log loss.
    pub logloss: f64,
    /// Predicted/actual CTR ratio.
    pub calibration: f64,
    /// Number of evaluated impressions.
    pub n: usize,
}

impl MetricReport {
    /// Render as the paper's column order.
    pub fn row(&self) -> String {
        format!(
            "{:.4}  {:.4}  {:.4}  {:.4}  {:.4}  {:.4}",
            self.auc, self.tauc, self.cauc, self.ndcg3, self.ndcg10, self.logloss
        )
    }

    /// Average several reports (the paper's five-repetition protocol).
    pub fn average(reports: &[MetricReport]) -> MetricReport {
        assert!(!reports.is_empty(), "average of zero reports");
        let k = reports.len() as f64;
        MetricReport {
            auc: reports.iter().map(|r| r.auc).sum::<f64>() / k,
            tauc: reports.iter().map(|r| r.tauc).sum::<f64>() / k,
            cauc: reports.iter().map(|r| r.cauc).sum::<f64>() / k,
            ndcg3: reports.iter().map(|r| r.ndcg3).sum::<f64>() / k,
            ndcg10: reports.iter().map(|r| r.ndcg10).sum::<f64>() / k,
            logloss: reports.iter().map(|r| r.logloss).sum::<f64>() / k,
            calibration: reports.iter().map(|r| r.calibration).sum::<f64>() / k,
            n: reports.iter().map(|r| r.n).sum::<usize>() / reports.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> EvalAccumulator {
        let mut acc = EvalAccumulator::new();
        acc.push_batch(
            &[0.9, 0.1, 0.8, 0.2],
            &[1.0, 0.0, 1.0, 0.0],
            [0u32, 0, 1, 1],
            [0u32, 1, 0, 1],
            [0u32, 0, 1, 1],
        );
        acc
    }

    #[test]
    fn report_on_perfect_predictions() {
        let r = toy().report();
        assert_eq!(r.auc, 1.0);
        assert_eq!(r.tauc, 1.0);
        assert_eq!(r.ndcg3, 1.0);
        assert!(r.logloss < 0.25);
        assert_eq!(r.n, 4);
    }

    #[test]
    fn batches_concatenate() {
        let mut acc = toy();
        acc.push_batch(&[0.5], &[1.0], [2u32], [2u32], [9u32]);
        assert_eq!(acc.len(), 5);
    }

    #[test]
    #[should_panic]
    fn mismatched_groups_panic() {
        let mut acc = EvalAccumulator::new();
        acc.push_batch(&[0.5, 0.5], &[1.0, 0.0], [0u32], [0u32, 1], [0u32, 0]);
    }

    #[test]
    fn averaging_reports() {
        let a = toy().report();
        let mut b = a;
        b.auc = 0.8;
        let avg = MetricReport::average(&[a, b]);
        assert!((avg.auc - 0.9).abs() < 1e-12);
        assert_eq!(avg.tauc, a.tauc);
    }

    #[test]
    fn row_formatting() {
        let row = toy().report().row();
        assert_eq!(row.split_whitespace().count(), 6);
    }
}
