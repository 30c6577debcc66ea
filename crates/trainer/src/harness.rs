//! Train/evaluate loop over a [`Dataset`].

use crate::log::{self, StepRecord, SummaryRecord};
use basm_core::model::{predict, train_step_checked, CtrModel};
use basm_data::Dataset;
use basm_metrics::{EvalAccumulator, MetricReport};
use basm_tensor::optim::{AdagradDecay, LrSchedule};
use basm_tensor::Prng;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Offline training protocol parameters.
#[derive(Debug, Clone, Serialize)]
pub struct TrainConfig {
    /// Passes over the training days.
    pub epochs: usize,
    /// Minibatch size (the paper uses 1024).
    pub batch_size: usize,
    /// Learning-rate schedule; [`TrainConfig::default_for`] scales the
    /// paper's warmup to the dataset.
    pub schedule: LrSchedule,
    /// Global-norm gradient clip.
    pub grad_clip: Option<f64>,
    /// Shuffling seed.
    pub seed: u64,
}

impl TrainConfig {
    /// The paper's protocol scaled to a dataset: warmup over the first 40%
    /// of total steps.
    pub fn default_for(ds: &Dataset, epochs: usize, batch_size: usize, seed: u64) -> Self {
        let steps_per_epoch = ds.train_indices().len().div_ceil(batch_size) as u64;
        let warmup = (steps_per_epoch * epochs as u64) * 2 / 5;
        Self {
            epochs,
            batch_size,
            schedule: LrSchedule::paper_warmup(warmup.max(1)),
            grad_clip: Some(10.0),
            seed,
        }
    }
}

/// Everything a training run produces.
#[derive(Debug, Clone, Serialize)]
pub struct TrainOutcome {
    /// The model's Table IV row label.
    pub model: String,
    /// Test-set metrics.
    pub report: MetricReport,
    /// Wall-clock training time.
    pub train_secs: f64,
    /// Optimization steps taken.
    pub steps: u64,
    /// Mean training loss of the final epoch.
    pub final_train_loss: f64,
}

/// Train a model in place (no evaluation). Returns `(steps, mean loss of the
/// final epoch)`.
///
/// If [`open_train_log`](crate::open_train_log) opened the training log,
/// each step appends one record (`step`, `epoch`, `loss`, `lr`, `grad_norm`
/// post-clip, `examples_per_sec`) and the run closes with one
/// `"event": "summary"` record (total steps and examples, wall seconds,
/// mean final-epoch loss, aggregate throughput).
pub fn train(
    model: &mut dyn CtrModel,
    ds: &Dataset,
    cfg: &TrainConfig,
) -> (u64, f64) {
    let _span = basm_obs::span!("trainer.train", epochs = cfg.epochs, batch = cfg.batch_size);
    let train_idx = ds.train_indices();
    assert!(!train_idx.is_empty(), "no training examples");
    // Resolved once: the log is opened before training starts.
    let log_steps = log::train_log_open();
    let run_start = Instant::now();
    let mut rng = Prng::seeded(cfg.seed ^ 0x7EA1_B00C);
    let mut opt = AdagradDecay::paper_default();
    let mut step: u64 = 0;
    let mut examples: u64 = 0;
    let mut last_epoch_loss = 0.0f64;
    for epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in ds.shuffled_batches(&train_idx, cfg.batch_size, &mut rng) {
            let step_start = Instant::now();
            let batch = ds.batch(&chunk);
            let lr = cfg.schedule.at(step);
            let out = train_step_checked(model, &batch, &mut opt, lr, cfg.grad_clip);
            if out.applied {
                epoch_loss += out.loss as f64;
                batches += 1;
            } else {
                // A NaN/Inf loss or gradient norm: the step was skipped and
                // the model left untouched. Count it and keep training —
                // one poisoned batch must not take the run down.
                basm_obs::counter_add("trainer.nonfinite_skips", 1);
            }
            step += 1;
            examples += chunk.len() as u64;
            let step_secs = step_start.elapsed().as_secs_f64();
            basm_obs::record_hist("trainer.step_ns", (step_secs * 1e9) as u64);
            if log_steps {
                log::write_record(&StepRecord {
                    step,
                    epoch: epoch as u64,
                    loss: out.loss,
                    lr,
                    grad_norm: out.grad_norm,
                    examples_per_sec: chunk.len() as f64 / step_secs.max(1e-12),
                });
            }
        }
        last_epoch_loss = epoch_loss / batches.max(1) as f64;
    }
    refresh_batch_norm(model, ds, &train_idx, cfg, &mut rng);
    if log_steps {
        let wall_secs = run_start.elapsed().as_secs_f64();
        log::write_record(&SummaryRecord {
            event: "summary",
            model: model.name().into(),
            steps: step,
            examples,
            wall_secs,
            final_train_loss: last_epoch_loss,
            examples_per_sec: examples as f64 / wall_secs.max(1e-12),
        });
    }
    (step, last_epoch_loss)
}

/// Batch-norm recalibration: embeddings and attention shift the activation
/// distribution throughout training, so running statistics lag the final
/// weights and bias inference-mode outputs. A handful of forward-only
/// training-mode passes with frozen parameters refreshes them.
fn refresh_batch_norm(
    model: &mut dyn CtrModel,
    ds: &Dataset,
    train_idx: &[usize],
    cfg: &TrainConfig,
    rng: &mut Prng,
) {
    let passes = 30usize;
    for chunk in ds
        .shuffled_batches(train_idx, cfg.batch_size, rng)
        .into_iter()
        .take(passes)
    {
        let batch = ds.batch(&chunk);
        basm_tensor::with_graph(|g| {
            let _ = model.forward(g, &batch, true);
        });
        model.clear_journals();
    }
}

/// Evaluate a model over the given example indices, accumulating the
/// spatiotemporal grouping keys the paper's metrics need.
pub fn evaluate(
    model: &mut dyn CtrModel,
    ds: &Dataset,
    indices: &[usize],
    batch_size: usize,
) -> EvalAccumulator {
    let _span = basm_obs::span!("trainer.evaluate", examples = indices.len());
    let mut acc = EvalAccumulator::new();
    for chunk in indices.chunks(batch_size) {
        let batch = ds.batch(chunk);
        let probs = predict(model, &batch);
        acc.push_batch(
            &probs,
            batch.labels.data(),
            batch.tp_raw.iter().map(|&t| t as u32),
            batch.city_raw.iter().map(|&c| c as u32),
            batch.session.iter().copied(),
        );
    }
    acc
}

/// Full protocol: train on the train days, evaluate on the test day.
pub fn train_and_evaluate(
    model: &mut dyn CtrModel,
    ds: &Dataset,
    cfg: &TrainConfig,
) -> TrainOutcome {
    let start = Instant::now();
    let (steps, final_train_loss) = train(model, ds, cfg);
    let train_time: Duration = start.elapsed();
    let acc = evaluate(model, ds, &ds.test_indices(), cfg.batch_size);
    TrainOutcome {
        model: model.name().to_string(),
        report: acc.report(),
        train_secs: train_time.as_secs_f64(),
        steps,
        final_train_loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basm_baselines::build_model;
    use basm_data::{generate_dataset, WorldConfig};

    #[test]
    fn din_beats_random_on_tiny() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let mut model = build_model("DIN", &cfg, 1);
        let tc = TrainConfig::default_for(&data.dataset, 2, 128, 1);
        let out = train_and_evaluate(model.as_mut(), &data.dataset, &tc);
        assert!(
            out.report.auc > 0.55,
            "DIN should comfortably beat random: AUC {}",
            out.report.auc
        );
        assert!(out.final_train_loss.is_finite());
        assert!(out.steps > 0);
    }

    #[test]
    fn nonfinite_batch_skips_the_step_and_leaves_the_model_untouched() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let mut model = build_model("Wide&Deep", &cfg, 1);
        let probe = data.dataset.batch(&[4, 5, 6, 7]);
        let before = predict(model.as_mut(), &probe);

        let mut poisoned = data.dataset.batch(&[0, 1, 2, 3]);
        poisoned.labels.data_mut()[0] = f32::NAN;
        let mut opt = AdagradDecay::paper_default();
        let out =
            train_step_checked(model.as_mut(), &poisoned, &mut opt, 0.05, Some(10.0));
        assert!(!out.applied, "NaN label must not produce an applied step");
        assert!(!out.loss.is_finite());
        // Dense params and embeddings are exactly as they were.
        assert_eq!(predict(model.as_mut(), &probe), before);

        // A healthy batch right after still trains normally.
        let clean = data.dataset.batch(&[0, 1, 2, 3]);
        let out = train_step_checked(model.as_mut(), &clean, &mut opt, 0.05, Some(10.0));
        assert!(out.applied);
        assert!(out.loss.is_finite() && out.grad_norm.is_finite());
        assert_ne!(predict(model.as_mut(), &probe), before);
    }

    #[test]
    fn evaluate_covers_all_indices() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let mut model = build_model("Wide&Deep", &cfg, 1);
        let test = data.dataset.test_indices();
        let acc = evaluate(model.as_mut(), &data.dataset, &test, 64);
        assert_eq!(acc.len(), test.len());
    }
}
