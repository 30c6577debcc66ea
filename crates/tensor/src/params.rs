//! Named dense parameter storage shared by all models.
//!
//! A [`ParamStore`] owns every trainable dense tensor of a model (MLP weights,
//! attention projections, BN affine parameters, meta-network weights...).
//! Per batch, a [`Graph`] copies the needed parameters
//! onto the tape via [`Graph::param`](crate::graph::Graph::param); after
//! `backward`, [`ParamStore::accumulate_grads`] pulls the tape gradients back,
//! and an [`Optimizer`](crate::optim::Optimizer) applies the update.
//!
//! Sparse parameters (embedding tables) intentionally live elsewhere — see
//! [`crate::nn::embedding`].

use crate::graph::Graph;
use crate::tensor::Tensor;
use std::collections::HashMap;

/// Stable identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

struct Entry {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// Registry of named dense parameters with accumulated gradients.
#[derive(Default)]
pub struct ParamStore {
    entries: Vec<Entry>,
    by_name: HashMap<String, ParamId>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter. Names must be unique — scoped names like
    /// `"tower.fc1.weight"` are the convention.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate parameter name {name:?}"
        );
        let grad = Tensor::zeros(value.rows(), value.cols());
        let id = ParamId(self.entries.len());
        self.by_name.insert(name.clone(), id);
        self.entries.push(Entry { name, value, grad });
        id
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of trainable scalars.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Look up a parameter id by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    /// The name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Mutable value (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].value
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].grad
    }

    /// Mutable gradient accumulator.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].grad
    }

    /// Iterate over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }

    /// Zero every gradient accumulator (start of a step).
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            e.grad.fill_zero();
        }
    }

    /// Pull gradients of parameter nodes out of a graph after `backward`,
    /// adding them into the store's accumulators.
    pub fn accumulate_grads(&mut self, g: &Graph) {
        for (&node, &pid) in &g.param_of_node {
            if let Some(grad) = &g.nodes[node].grad {
                self.entries[pid.0].grad.add_assign(grad);
            }
        }
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn grad_norm(&self) -> f64 {
        self.entries.iter().map(|e| e.grad.sq_norm()).sum::<f64>().sqrt()
    }

    /// Scale every gradient so the global norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f64) -> f64 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = (max_norm / norm) as f32;
            for e in &mut self.entries {
                e.grad.scale_inplace(scale);
            }
        }
        norm
    }

    /// Estimated memory footprint in bytes: values + gradients.
    pub fn memory_bytes(&self) -> usize {
        self.num_scalars() * std::mem::size_of::<f32>() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn add_and_lookup() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::ones(2, 3));
        assert_eq!(s.id_of("w"), Some(id));
        assert_eq!(s.value(id).shape(), (2, 3));
        assert_eq!(s.num_scalars(), 6);
        assert_eq!(s.name(id), "w");
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut s = ParamStore::new();
        s.add("w", Tensor::zeros(1, 1));
        s.add("w", Tensor::zeros(1, 1));
    }

    #[test]
    fn grads_flow_from_graph() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::scalar(3.0));
        let mut g = Graph::new();
        let wv = g.param(&s, w);
        let sq = g.square(wv);
        let loss = g.sum_all(sq);
        g.backward(loss);
        s.accumulate_grads(&g);
        assert!((s.grad(w).item() - 6.0).abs() < 1e-5);
        s.zero_grads();
        assert_eq!(s.grad(w).item(), 0.0);
    }

    #[test]
    fn param_node_reused_within_graph() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::scalar(2.0));
        let mut g = Graph::new();
        let a = g.param(&s, w);
        let b = g.param(&s, w);
        assert_eq!(a, b);
        // Two consumers of the same node still accumulate correctly.
        let p = g.mul(a, b); // w^2
        let loss = g.sum_all(p);
        g.backward(loss);
        s.accumulate_grads(&g);
        assert!((s.grad(w).item() - 4.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_scales() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::zeros(1, 2));
        s.grad_mut(w).data_mut().copy_from_slice(&[3.0, 4.0]);
        let pre = s.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((s.grad_norm() - 1.0).abs() < 1e-5);
    }
}
