//! Table VI accounting: wall-clock time per epoch and training memory.
//!
//! Memory = dense params (+grads) + embedding tables (+Adagrad state) +
//! dense-optimizer state + peak activation memory actually measured on a
//! training-step tape.

use basm_core::model::{train_step, CtrModel};
use basm_data::Dataset;
use basm_tensor::optim::{AdagradDecay, Optimizer};
use basm_tensor::{Graph, Prng};
use serde::Serialize;
use std::time::Instant;

/// One Table VI row.
#[derive(Debug, Clone, Serialize)]
pub struct EfficiencyReport {
    /// Model name.
    pub model: String,
    /// Wall-clock seconds for one epoch over the training split.
    pub secs_per_epoch: f64,
    /// Total trainable scalars (dense + sparse).
    pub num_params: usize,
    /// Total training memory in bytes (params, grads, optimizer state,
    /// measured activation tape).
    pub memory_bytes: usize,
    /// The activation-tape component alone.
    pub activation_bytes: usize,
}

impl EfficiencyReport {
    /// Memory in the paper's unit (GB would be silly at this scale; MB).
    pub fn memory_mb(&self) -> f64 {
        self.memory_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Measure one model: a full epoch of training plus an activation-memory
/// probe on one batch.
pub fn measure_efficiency(
    model: &mut dyn CtrModel,
    ds: &Dataset,
    batch_size: usize,
    lr: f32,
) -> EfficiencyReport {
    let train_idx = ds.train_indices();
    let mut opt = AdagradDecay::paper_default();

    // Activation probe: one forward+backward tape at full batch size.
    let probe: Vec<usize> = train_idx.iter().copied().take(batch_size).collect();
    let batch = ds.batch(&probe);
    let mut g = Graph::new();
    let fwd = model.forward(&mut g, &batch, true);
    let labels = g.input(batch.labels.clone());
    let loss = g.bce_with_logits(fwd.logits, labels);
    g.backward(loss);
    let activation_bytes = g.memory_bytes();
    model.params().zero_grads();
    model.clear_journals();

    let secs_per_epoch = train_epoch(model, ds, batch_size, lr, &mut opt);

    let num_params = model.num_params();
    let memory_bytes = model.memory_bytes() + opt.state_bytes() + activation_bytes;
    EfficiencyReport {
        model: model.name().to_string(),
        secs_per_epoch,
        num_params,
        memory_bytes,
        activation_bytes,
    }
}

/// Seconds for one training epoch of `model` over the training split, in
/// a fixed shuffle order: the Table VI time column.
pub fn train_epoch(
    model: &mut dyn CtrModel,
    ds: &Dataset,
    batch_size: usize,
    lr: f32,
    opt: &mut AdagradDecay,
) -> f64 {
    let mut rng = Prng::seeded(0xEFF1);
    let start = Instant::now();
    for chunk in ds.shuffled_batches(&ds.train_indices(), batch_size, &mut rng) {
        let b = ds.batch(&chunk);
        train_step(model, &b, opt, lr, Some(10.0));
    }
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use basm_baselines::build_model;
    use basm_data::{generate_dataset, WorldConfig};

    #[test]
    fn efficiency_measures_are_positive() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let mut model = build_model("DIN", &cfg, 1);
        let rep = measure_efficiency(model.as_mut(), &data.dataset, 128, 0.01);
        assert!(rep.secs_per_epoch > 0.0);
        assert!(rep.num_params > 10_000);
        assert!(rep.activation_bytes > 0);
        assert!(rep.memory_bytes > rep.activation_bytes);
    }

    #[test]
    fn dynamic_models_cost_more_than_static() {
        // The Table VI ordering at the memory level: APG's generated
        // full matrices dominate DIN's static tower.
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let mut apg = build_model("APG", &cfg, 1);
        let mut din = build_model("DIN", &cfg, 1);
        let ra = measure_efficiency(apg.as_mut(), &data.dataset, 64, 0.01);
        let rd = measure_efficiency(din.as_mut(), &data.dataset, 64, 0.01);
        assert!(
            ra.activation_bytes > rd.activation_bytes,
            "APG {} vs DIN {}",
            ra.activation_bytes,
            rd.activation_bytes
        );
    }
}
