//! The model interface shared by BASM and all comparison methods.

use basm_data::Batch;
use basm_tensor::graph::stable_sigmoid;
use basm_tensor::optim::Optimizer;
use basm_tensor::{with_graph, Graph, ParamStore, Var};

use crate::features::FeatureEmbedder;

/// Everything a forward pass exposes.
pub struct Forward {
    /// `[B, 1]` pre-sigmoid logits.
    pub logits: Var,
    /// The final hidden representation `[B, H]` (t-SNE analysis, Fig. 10/11).
    pub hidden: Var,
    /// StAEL's per-field spatiotemporal weights `α_j` `[B, 1]` each, in
    /// `basm_data::FIELDS` order minus the context field (Fig. 8/9). Empty
    /// for models without an aware embedding layer.
    pub alphas: Vec<Var>,
}

/// A trainable CTR model over [`Batch`]es.
pub trait CtrModel {
    /// Display name (Table IV row label).
    fn name(&self) -> &str;

    /// Build the forward computation for a batch. `training` switches batch
    /// normalization between batch and running statistics.
    fn forward(&mut self, g: &mut Graph, batch: &Batch, training: bool) -> Forward;

    /// The dense parameter store.
    fn params(&mut self) -> &mut ParamStore;

    /// The sparse embedding side.
    fn embedder(&mut self) -> &mut FeatureEmbedder;

    /// Every embedding side, [`CtrModel::embedder`] first. Models with extra
    /// embedding stores (e.g. Wide&Deep's wide tables) override this; the
    /// sparse update, journals, sizes and checkpoints all go through it.
    fn embedders(&mut self) -> Vec<&mut FeatureEmbedder> {
        vec![self.embedder()]
    }

    /// Apply sparse (embedding) updates after backward, store by store.
    fn apply_sparse_grads(&mut self, g: &Graph, lr: f32) {
        for e in self.embedders() {
            e.emb.apply_grads(g, lr);
        }
    }

    /// Discard pending sparse-lookup journals (after inference passes).
    fn clear_journals(&mut self) {
        for e in self.embedders() {
            e.emb.clear_journal();
        }
    }

    /// The model's batch-norm layers in a deterministic order. Checkpointing
    /// serializes their running statistics; models without BN keep the empty
    /// default.
    fn bn_layers(&mut self) -> Vec<&mut basm_tensor::nn::BatchNorm1d> {
        Vec::new()
    }

    /// Total trainable scalars (dense + sparse).
    fn num_params(&mut self) -> usize {
        let dense = self.params().num_scalars();
        dense + self.embedders().iter().map(|e| e.num_params()).sum::<usize>()
    }

    /// Approximate training memory in bytes: dense params + grads, sparse
    /// tables + Adagrad state. Optimizer state for dense params is added by
    /// the trainer (it owns the optimizer).
    fn memory_bytes(&mut self) -> usize {
        let dense = self.params().memory_bytes();
        dense + self.embedders().iter().map(|e| e.memory_bytes()).sum::<usize>()
    }
}

/// What [`train_step_checked`] did with one batch.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// Batch BCE loss (may be non-finite when the step was skipped).
    pub loss: f32,
    /// Post-clip global gradient norm over the dense parameters. Reported
    /// from the norm the clip already computed, so logging it is free.
    pub grad_norm: f64,
    /// Whether the optimizer update was applied. `false` means the loss or
    /// gradient norm was NaN/Inf and both dense and sparse updates were
    /// skipped — the model is exactly as it was before the call.
    pub applied: bool,
}

/// One optimization step shared by every model: BCE loss (Eq. 19), backward,
/// dense update through `opt`, sparse Adagrad update at the same learning
/// rate. Returns the batch loss.
///
/// Panics in debug builds on a non-finite loss; use [`train_step_checked`]
/// for loops that must survive poisoned batches.
pub fn train_step(
    model: &mut dyn CtrModel,
    batch: &Batch,
    opt: &mut dyn Optimizer,
    lr: f32,
    grad_clip: Option<f64>,
) -> f32 {
    let out = train_step_checked(model, batch, opt, lr, grad_clip);
    debug_assert!(out.applied, "non-finite training step: loss {}", out.loss);
    out.loss
}

/// [`train_step`] with a non-finite guard: if the batch loss or the global
/// gradient norm comes back NaN/Inf, the update (dense *and* sparse) is
/// skipped entirely and the pending sparse journals are discarded, leaving
/// the model bit-for-bit unchanged. On healthy batches the update sequence
/// is identical to the unchecked path, so training trajectories don't move.
pub fn train_step_checked(
    model: &mut dyn CtrModel,
    batch: &Batch,
    opt: &mut dyn Optimizer,
    lr: f32,
    grad_clip: Option<f64>,
) -> StepOutcome {
    // Poisoned labels would trip the graph's finite-forward invariant before
    // a loss even exists; refuse the batch up front without touching state.
    if !batch.labels.all_finite() {
        return StepOutcome { loss: f32::NAN, grad_norm: f64::NAN, applied: false };
    }
    // The recycled per-thread graph keeps the tape and tensor buffers warm
    // across steps (see `basm_tensor::with_graph`).
    with_graph(|g| {
        let fwd = model.forward(g, batch, true);
        let labels = g.input(batch.labels.clone());
        let loss = g.bce_with_logits(fwd.logits, labels);
        g.backward(loss);
        let loss_val = g.value(loss).item();

        let store = model.params();
        store.zero_grads();
        store.accumulate_grads(g);
        let pre_norm = match grad_clip {
            Some(max) => store.clip_grad_norm(max),
            None => store.grad_norm(),
        };
        let grad_norm = match grad_clip {
            Some(max) if pre_norm > max => max,
            _ => pre_norm,
        };
        // The pre-clip norm is the honest health signal: clipping an infinite
        // norm scales every gradient to zero, which would look "finite" after.
        if !loss_val.is_finite() || !pre_norm.is_finite() {
            model.clear_journals();
            return StepOutcome { loss: loss_val, grad_norm: pre_norm, applied: false };
        }
        opt.step(store, lr);
        model.apply_sparse_grads(g, lr);
        StepOutcome { loss: loss_val, grad_norm, applied: true }
    })
}

/// Inference: predicted click probabilities for a batch.
///
/// Marks the graph as inference-mode, so fused ops keep no backward context.
pub fn predict(model: &mut dyn CtrModel, batch: &Batch) -> Vec<f32> {
    let probs = with_graph(|g| {
        g.set_inference(true);
        let fwd = model.forward(g, batch, false);
        g.value(fwd.logits)
            .data()
            .iter()
            .map(|&z| stable_sigmoid(z))
            .collect()
    });
    model.clear_journals();
    probs
}

/// Inference that also returns the final hidden representation (for the
/// t-SNE analyses) and StAEL α weights.
pub struct Inference {
    /// Predicted probabilities.
    pub probs: Vec<f32>,
    /// `[B, H]` final hidden activations.
    pub hidden: basm_tensor::Tensor,
    /// Per-field α values `[B]` each (empty when the model has no StAEL).
    pub alphas: Vec<Vec<f32>>,
}

/// Run inference capturing hidden states and α weights.
pub fn predict_full(model: &mut dyn CtrModel, batch: &Batch) -> Inference {
    let out = with_graph(|g| {
        g.set_inference(true);
        let fwd = model.forward(g, batch, false);
        let probs = g
            .value(fwd.logits)
            .data()
            .iter()
            .map(|&z| stable_sigmoid(z))
            .collect();
        let hidden = g.value(fwd.hidden).clone();
        let alphas = fwd
            .alphas
            .iter()
            .map(|&a| g.value(a).data().to_vec())
            .collect();
        Inference { probs, hidden, alphas }
    });
    model.clear_journals();
    out
}
