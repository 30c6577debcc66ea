//! Online (streaming) training with progressive validation.
//!
//! Ele.me's production models train continuously on the impression stream
//! (the reason the paper uses AdagradDecay \[25\]: plain Adagrad's effective
//! learning rate collapses on never-ending jobs). This module replays the
//! recorded log day by day: each day is first *predicted* (progressive
//! validation — every example is scored before the model trains on it) and
//! then trained on. The result is a per-day metric trajectory with no
//! train/test leakage.

use basm_core::model::{train_step, CtrModel};
use basm_data::Dataset;
use basm_metrics::{EvalAccumulator, MetricReport};
use basm_tensor::optim::{AdagradDecay, LrSchedule};
use basm_tensor::Prng;
use serde::{Deserialize, Serialize};

/// One day of the online trajectory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineDay {
    /// 0-based day index in the recorded log.
    pub day: usize,
    /// Metrics on the day's traffic *before* training on it.
    pub report: MetricReport,
    /// Mean training loss over the day's batches.
    pub train_loss: f64,
}

/// Full online-training outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineOutcome {
    /// Model name.
    pub model: String,
    /// Per-day trajectory.
    pub days: Vec<OnlineDay>,
}

impl OnlineOutcome {
    /// Impression-weighted average report over days `skip..` (skipping the
    /// cold-start days where every model predicts noise).
    pub fn steady_state(&self, skip: usize) -> Option<MetricReport> {
        let tail: Vec<MetricReport> =
            self.days.iter().skip(skip).map(|d| d.report).collect();
        (!tail.is_empty()).then(|| MetricReport::average(&tail))
    }
}

/// Stream the recorded days through the model: predict day `d`, then train
/// on it, then move to day `d+1`.
pub fn train_online(
    model: &mut dyn CtrModel,
    ds: &Dataset,
    batch_size: usize,
    schedule: LrSchedule,
    seed: u64,
) -> OnlineOutcome {
    let n_days = ds.config.recorded_days();
    let mut rng = Prng::seeded(seed ^ 0x0D1);
    let mut opt = AdagradDecay::paper_default();
    let mut step: u64 = 0;
    let mut days = Vec::with_capacity(n_days);

    for day in 0..n_days {
        let day_idx: Vec<usize> =
            (0..ds.len()).filter(|&i| ds.day[i] as usize == day).collect();
        if day_idx.is_empty() {
            continue;
        }
        // Progressive validation: score the day before training on it.
        let mut acc = EvalAccumulator::new();
        for chunk in day_idx.chunks(batch_size) {
            let batch = ds.batch(chunk);
            let probs = basm_core::model::predict(model, &batch);
            acc.push_batch(
                &probs,
                batch.labels.data(),
                batch.tp_raw.iter().map(|&t| t as u32),
                batch.city_raw.iter().map(|&c| c as u32),
                batch.session.iter().copied(),
            );
        }
        let report = acc.report();

        // Then consume the day as training data (shuffled within the day, as
        // a production job's intra-day buffer would).
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for chunk in ds.shuffled_batches(&day_idx, batch_size, &mut rng) {
            let batch = ds.batch(&chunk);
            loss_sum +=
                train_step(model, &batch, &mut opt, schedule.at(step), Some(10.0)) as f64;
            step += 1;
            batches += 1;
        }
        // End-of-day durability point: when the embedding tables are
        // attached to a pack directory, append the day's row updates to the
        // delta files so a crash between days replays cleanly on reopen.
        // Tables with no directory have nothing to flush.
        let flushed: usize = model
            .embedders()
            .into_iter()
            .map(|e| e.emb.flush_deltas().expect("flushing embedding deltas"))
            .sum();
        if flushed > 0 {
            basm_obs::counter_add("trainer.delta_rows_flushed", flushed as u64);
        }
        days.push(OnlineDay {
            day,
            report,
            train_loss: loss_sum / batches.max(1) as f64,
        });
    }
    OnlineOutcome { model: model.name().to_string(), days }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basm_baselines::build_model;
    use basm_data::{generate_dataset, WorldConfig};

    #[test]
    fn trajectory_covers_every_day_and_improves() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let ds = &data.dataset;
        let mut model = build_model("AutoInt", &ds.config, 1);
        let out = train_online(
            model.as_mut(),
            ds,
            128,
            LrSchedule::Constant(0.02),
            1,
        );
        assert_eq!(out.days.len(), cfg.recorded_days());
        // Day 0 is scored by an untrained model; later days by a trained one.
        let first = out.days.first().unwrap().report.auc;
        let last = out.days.last().unwrap().report.auc;
        assert!(
            last > first,
            "progressive validation should improve: {first:.4} -> {last:.4}"
        );
    }

    #[test]
    fn steady_state_skips_cold_start() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let mut model = build_model("Wide&Deep", &data.dataset.config, 1);
        let out = train_online(
            model.as_mut(),
            &data.dataset,
            128,
            LrSchedule::Constant(0.02),
            1,
        );
        let all = out.steady_state(0).unwrap();
        let warm = out.steady_state(1).unwrap();
        assert!(warm.auc >= all.auc, "cold start should drag the average down");
        assert!(out.steady_state(out.days.len()).is_none());
    }

    #[test]
    fn no_leakage_first_day_is_near_random() {
        // The very first progressive-validation day is scored by an untrained
        // model: AUC must be near 0.5, proving no peeking.
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let mut model = build_model("DIN", &data.dataset.config, 3);
        let out = train_online(
            model.as_mut(),
            &data.dataset,
            128,
            LrSchedule::Constant(0.02),
            1,
        );
        let first = out.days.first().unwrap().report.auc;
        assert!((0.35..0.68).contains(&first), "untrained day-0 AUC {first}");
    }
}
