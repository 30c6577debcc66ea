//! Fully-connected layer.

use crate::graph::{Graph, Var};
use crate::params::{ParamId, ParamStore};
use crate::rng::Prng;
use crate::tensor::Tensor;

/// A dense affine map `x · W + b` with Xavier-initialized weights.
pub struct Linear {
    /// Weight `[in_dim, out_dim]`.
    pub w: ParamId,
    /// Optional bias `[1, out_dim]`.
    pub b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Register a new layer. `name` scopes the parameter names
    /// (`"{name}.w"`, `"{name}.b"`).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Prng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = store.add(format!("{name}.w"), rng.xavier(in_dim, out_dim));
        let b = bias.then(|| store.add(format!("{name}.b"), Tensor::zeros(1, out_dim)));
        Self { w, b, in_dim, out_dim }
    }

    /// Apply the layer to `x [batch, in_dim]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        debug_assert_eq!(
            g.value(x).cols(),
            self.in_dim,
            "Linear: input cols {} != in_dim {}",
            g.value(x).cols(),
            self.in_dim
        );
        let w = g.param(store, self.w);
        let h = g.matmul(x, w);
        match self.b {
            Some(b) => {
                let bv = g.param(store, b);
                g.add_row(h, bv)
            }
            None => h,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.in_dim * self.out_dim + if self.b.is_some() { self.out_dim } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = Prng::seeded(1);
        let layer = Linear::new(&mut store, &mut rng, "fc", 4, 3, true);
        assert_eq!(layer.num_params(), 15);
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(2, 4));
        let y = layer.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (2, 3));
    }

    #[test]
    fn no_bias_variant() {
        let mut store = ParamStore::new();
        let mut rng = Prng::seeded(2);
        let layer = Linear::new(&mut store, &mut rng, "fc", 4, 2, false);
        assert_eq!(layer.num_params(), 8);
        assert!(layer.b.is_none());
    }

    #[test]
    fn gradient_reaches_weights() {
        let mut store = ParamStore::new();
        let mut rng = Prng::seeded(3);
        let layer = Linear::new(&mut store, &mut rng, "fc", 3, 1, true);
        let mut g = Graph::new();
        let x = g.input(rng.randn(5, 3, 1.0));
        let y = layer.forward(&mut g, &store, x);
        let loss = g.mean_all(y);
        g.backward(loss);
        store.accumulate_grads(&g);
        assert!(store.grad(layer.w).max_abs() > 0.0);
        assert!(store.grad(layer.b.unwrap()).max_abs() > 0.0);
    }
}
