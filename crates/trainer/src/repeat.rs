//! The paper's five-repetition protocol: train the same configuration under
//! several seeds and average the metric reports (§III-A4).

use basm_data::{Dataset, WorldConfig};
use basm_metrics::MetricReport;
use basm_tensor::pool;
use serde::Serialize;

use crate::harness::{train_and_evaluate, TrainConfig, TrainOutcome};

/// Averaged outcome of repeated runs.
#[derive(Debug, Clone, Serialize)]
pub struct RepeatedOutcome {
    /// Model name.
    pub model: String,
    /// Per-seed outcomes.
    pub runs: Vec<TrainOutcome>,
    /// Metric report averaged over seeds.
    pub mean: MetricReport,
}

/// Train `model_name` under each seed and average.
///
/// Seeds are data-parallel: each run owns its model, RNG state and tape, so
/// runs fan out across the thread pool ([`pool::par_map`] keeps outputs in
/// seed order, and kernels inside a worker degrade to their serial path).
/// Results are bitwise identical to the sequential loop for any thread count.
pub fn run_repeated(
    model_name: &str,
    world: &WorldConfig,
    ds: &Dataset,
    epochs: usize,
    batch_size: usize,
    seeds: &[u64],
) -> RepeatedOutcome {
    assert!(!seeds.is_empty(), "run_repeated: need at least one seed");
    let runs = pool::par_map(seeds, |&seed| {
        let mut model = basm_baselines::build_model(model_name, world, seed);
        let tc = TrainConfig::default_for(ds, epochs, batch_size, seed);
        train_and_evaluate(model.as_mut(), ds, &tc)
    });
    let reports: Vec<MetricReport> = runs.iter().map(|r| r.report).collect();
    RepeatedOutcome {
        model: model_name.to_string(),
        mean: MetricReport::average(&reports),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basm_data::generate_dataset;

    #[test]
    fn repeats_and_averages() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let out = run_repeated("Wide&Deep", &cfg, &data.dataset, 1, 128, &[1, 2]);
        assert_eq!(out.runs.len(), 2);
        let manual = (out.runs[0].report.auc + out.runs[1].report.auc) / 2.0;
        assert!((out.mean.auc - manual).abs() < 1e-12);
    }

    #[test]
    fn parallel_repeat_matches_serial() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        pool::set_threads(1);
        let serial = run_repeated("Wide&Deep", &cfg, &data.dataset, 1, 128, &[3, 4]);
        pool::set_threads(4);
        let parallel = run_repeated("Wide&Deep", &cfg, &data.dataset, 1, 128, &[3, 4]);
        pool::set_threads(0);
        assert_eq!(serial.runs.len(), parallel.runs.len());
        for (s, p) in serial.runs.iter().zip(&parallel.runs) {
            assert_eq!(s.report.auc.to_bits(), p.report.auc.to_bits());
            assert_eq!(s.report.logloss.to_bits(), p.report.logloss.to_bits());
        }
        assert_eq!(serial.mean.auc.to_bits(), parallel.mean.auc.to_bits());
    }
}
