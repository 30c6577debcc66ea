//! Attention blocks used by the model zoo.
//!
//! * [`TargetAttention`] — DIN's local activation unit: an MLP scores each
//!   behavior against the candidate item.
//! * [`MultiHeadTargetAttention`] — scaled dot-product target attention with
//!   multiple heads; three of these make up the paper's online "Base model"
//!   (a DIN variation over long/short/realtime sequences).
//! * [`SelfAttentionLayer`] — AutoInt's multi-head self-attention over field
//!   embeddings with a residual connection.
//!
//! Sequences are laid out `[batch, seq_len * dim]` (position-major) with a
//! `[batch, seq_len]` 0/1 mask; padded positions are excluded by masked
//! softmax.
//!
//! [`TargetAttention`] scores behaviors with one fused graph op,
//! [`Graph::din_scores`], which keeps its parameters in the block's [`Mlp`]
//! and is pinned bitwise (forward and every gradient) to the composite of
//! primitive ops it replaces by `tests/din_scores.rs`. The other blocks
//! compose primitive graph ops. Either way the SIMD kernel layer
//! (DESIGN.md §14) rides in underneath: the matmuls run the register-tiled
//! GEMM, the (masked) softmax's sub-max / normalize passes run the
//! lane-parallel broadcasts, and the max/sum folds stay serial. The SIMD
//! toggle therefore never moves attention bits — pinned by
//! `tests/simd_equivalence.rs`, `tests/din_scores.rs` and the composite
//! forward/backward pin in `tests/parallel_determinism.rs`.

use crate::graph::{Graph, Var};
use crate::nn::linear::Linear;
use crate::nn::mlp::{Activation, Mlp};
use crate::params::ParamStore;
use crate::rng::Prng;

/// DIN-style target attention: `score(q, k) = MLP([q; k; q-k; q⊙k])`.
pub struct TargetAttention {
    mlp: Mlp,
    dim: usize,
}

impl TargetAttention {
    /// `dim` is the shared query/key width; `hidden` sizes the activation
    /// unit (the DIN paper uses a small tower, e.g. 36).
    pub fn new(store: &mut ParamStore, rng: &mut Prng, name: &str, dim: usize, hidden: usize) -> Self {
        let mlp = Mlp::new(
            store,
            rng,
            &format!("{name}.act_unit"),
            &[4 * dim, hidden, 1],
            Activation::LeakyRelu(0.01),
        );
        Self { mlp, dim }
    }

    /// Attend `query [m, dim]` over `seq [m, t*dim]` with `mask [m, t]`.
    /// Returns `(pooled [m, dim], attention [m, t])`.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        query: Var,
        seq: Var,
        mask: Var,
        t: usize,
    ) -> (Var, Var) {
        let d = self.dim;
        let m = g.value(query).rows();
        debug_assert_eq!(g.value(query).cols(), d);
        debug_assert_eq!(g.value(mask).shape(), (m, t));

        let [fc0, fc1] = self.mlp.layers() else { unreachable!("two-layer activation unit") };
        let Activation::LeakyRelu(slope) = self.mlp.activation() else {
            unreachable!("the activation unit is LeakyReLU")
        };
        let bias = |l: &Linear| l.b.expect("activation-unit layers have biases");
        let w1 = g.param(store, fc0.w);
        let b1 = g.param(store, bias(fc0));
        let w2 = g.param(store, fc1.w);
        let b2 = g.param(store, bias(fc1));
        let scores = g.din_scores(query, seq, w1, b1, w2, b2, t, slope);
        let att = g.masked_softmax_rows(scores, mask);
        let pooled = g.seq_weighted_sum(seq, att, t, d);
        (pooled, att)
    }

    /// Trainable scalars.
    pub fn num_params(&self) -> usize {
        self.mlp.num_params()
    }
}

/// Scaled dot-product target attention with `heads` heads.
pub struct MultiHeadTargetAttention {
    wq: Vec<Linear>,
    wk: Vec<Linear>,
    wv: Vec<Linear>,
    wo: Linear,
    dim: usize,
    head_dim: usize,
}

impl MultiHeadTargetAttention {
    /// `dim` must be divisible by `heads`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Prng,
        name: &str,
        dim: usize,
        heads: usize,
    ) -> Self {
        assert!(heads >= 1 && dim % heads == 0, "dim {dim} not divisible by heads {heads}");
        let head_dim = dim / heads;
        let mk = |store: &mut ParamStore, rng: &mut Prng, kind: &str, h: usize| {
            Linear::new(store, rng, &format!("{name}.{kind}{h}"), dim, head_dim, false)
        };
        let wq = (0..heads).map(|h| mk(store, rng, "wq", h)).collect();
        let wk = (0..heads).map(|h| mk(store, rng, "wk", h)).collect();
        let wv = (0..heads).map(|h| mk(store, rng, "wv", h)).collect();
        let wo = Linear::new(store, rng, &format!("{name}.wo"), dim, dim, true);
        Self { wq, wk, wv, wo, dim, head_dim }
    }

    /// Attend `query [m, dim]` over `seq [m, t*dim]` with `mask [m, t]`;
    /// returns `[m, dim]`.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        query: Var,
        seq: Var,
        mask: Var,
        t: usize,
    ) -> Var {
        let d = self.dim;
        let dh = self.head_dim;
        let m = g.value(query).rows();
        debug_assert_eq!(g.value(seq).shape(), (m, t * d));
        let seq_flat = g.reshape(seq, m * t, d);
        let scale = 1.0 / (dh as f32).sqrt();

        let mut heads = Vec::with_capacity(self.wq.len());
        for h in 0..self.wq.len() {
            let q = self.wq[h].forward(g, store, query); // [m, dh]
            let k = self.wk[h].forward(g, store, seq_flat); // [m*t, dh]
            let v = self.wv[h].forward(g, store, seq_flat); // [m*t, dh]
            let q_rep = g.repeat_rows(q, t); // [m*t, dh]
            let dots = g.row_dot(q_rep, k); // [m*t, 1]
            let scores0 = g.reshape(dots, m, t);
            let scores = g.scale(scores0, scale);
            let att = g.masked_softmax_rows(scores, mask);
            let v_seq = g.reshape(v, m, t * dh);
            heads.push(g.seq_weighted_sum(v_seq, att, t, dh)); // [m, dh]
        }
        let cat = g.concat_cols(&heads); // [m, dim]
        self.wo.forward(g, store, cat)
    }

    /// Trainable scalars.
    pub fn num_params(&self) -> usize {
        self.wq.iter().map(Linear::num_params).sum::<usize>()
            + self.wk.iter().map(Linear::num_params).sum::<usize>()
            + self.wv.iter().map(Linear::num_params).sum::<usize>()
            + self.wo.num_params()
    }
}

/// AutoInt's interacting layer: multi-head self-attention across feature
/// fields with a residual projection and ReLU.
pub struct SelfAttentionLayer {
    wq: Vec<Linear>,
    wk: Vec<Linear>,
    wv: Vec<Linear>,
    wres: Linear,
    head_dim: usize,
}

impl SelfAttentionLayer {
    /// `dim` is the per-field embedding width; the output field width is
    /// `heads * head_dim` (`= dim` when `head_dim = dim / heads`).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Prng,
        name: &str,
        dim: usize,
        heads: usize,
    ) -> Self {
        assert!(heads >= 1 && dim % heads == 0, "dim {dim} not divisible by heads {heads}");
        let head_dim = dim / heads;
        let mk = |store: &mut ParamStore, rng: &mut Prng, kind: &str, h: usize| {
            Linear::new(store, rng, &format!("{name}.{kind}{h}"), dim, head_dim, false)
        };
        let wq = (0..heads).map(|h| mk(store, rng, "wq", h)).collect();
        let wk = (0..heads).map(|h| mk(store, rng, "wk", h)).collect();
        let wv = (0..heads).map(|h| mk(store, rng, "wv", h)).collect();
        let wres = Linear::new(store, rng, &format!("{name}.wres"), dim, dim, false);
        Self { wq, wk, wv, wres, head_dim }
    }

    /// One interacting layer over `fields` (each `[m, dim]`); returns the
    /// transformed fields (same shapes).
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, fields: &[Var]) -> Vec<Var> {
        let n = fields.len();
        assert!(n >= 1, "SelfAttentionLayer: no fields");
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        // Per head, project every field once.
        let heads = self.wq.len();
        let mut out_fields: Vec<Vec<Var>> = vec![Vec::with_capacity(heads); n];
        for h in 0..heads {
            let qs: Vec<Var> = fields.iter().map(|&f| self.wq[h].forward(g, store, f)).collect();
            let ks: Vec<Var> = fields.iter().map(|&f| self.wk[h].forward(g, store, f)).collect();
            let vs: Vec<Var> = fields.iter().map(|&f| self.wv[h].forward(g, store, f)).collect();
            for i in 0..n {
                //

                let dots: Vec<Var> = (0..n).map(|j| g.row_dot(qs[i], ks[j])).collect();
                let scores0 = g.concat_cols(&dots); // [m, n]
                let scores = g.scale(scores0, scale);
                let att = g.softmax_rows(scores);
                // Weighted sum of value vectors.
                let mut acc: Option<Var> = None;
                for (j, &v) in vs.iter().enumerate() {
                    let w = g.slice_cols(att, j, 1); // [m,1]
                    let term = g.mul_col(v, w);
                    acc = Some(match acc {
                        Some(a) => g.add(a, term),
                        None => term,
                    });
                }
                out_fields[i].push(acc.expect("n >= 1"));
            }
        }
        // Concat heads, add residual projection, ReLU.
        out_fields
            .into_iter()
            .enumerate()
            .map(|(i, head_outs)| {
                let cat = g.concat_cols(&head_outs); // [m, heads*head_dim] = [m, dim]
                let res = self.wres.forward(g, store, fields[i]);
                let sum = g.add(cat, res);
                g.relu(sum)
            })
            .collect()
    }

    /// Trainable scalars.
    pub fn num_params(&self) -> usize {
        self.wq.iter().map(Linear::num_params).sum::<usize>()
            + self.wk.iter().map(Linear::num_params).sum::<usize>()
            + self.wv.iter().map(Linear::num_params).sum::<usize>()
            + self.wres.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn setup() -> (ParamStore, Prng) {
        (ParamStore::new(), Prng::seeded(42))
    }

    #[test]
    fn target_attention_shapes_and_mask() {
        let (mut store, mut rng) = setup();
        let att = TargetAttention::new(&mut store, &mut rng, "ta", 4, 8);
        let mut g = Graph::new();
        let q = g.input(rng.randn(3, 4, 1.0));
        let seq = g.input(rng.randn(3, 5 * 4, 1.0));
        // Third sample fully masked.
        let mut mask = Tensor::ones(3, 5);
        mask.row_mut(2).iter_mut().for_each(|m| *m = 0.0);
        let mask = g.input(mask);
        let (pooled, weights) = att.forward(&mut g, &store, q, seq, mask, 5);
        assert_eq!(g.value(pooled).shape(), (3, 4));
        assert_eq!(g.value(weights).shape(), (3, 5));
        // Fully masked row pools to zero.
        assert!(g.value(pooled).row(2).iter().all(|&v| v == 0.0));
        // Unmasked rows have weights summing to 1.
        let sum: f32 = g.value(weights).row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mhta_shapes() {
        let (mut store, mut rng) = setup();
        let att = MultiHeadTargetAttention::new(&mut store, &mut rng, "mh", 8, 2);
        let mut g = Graph::new();
        let q = g.input(rng.randn(2, 8, 1.0));
        let seq = g.input(rng.randn(2, 3 * 8, 1.0));
        let mask = g.input(Tensor::ones(2, 3));
        let out = att.forward(&mut g, &store, q, seq, mask, 3);
        assert_eq!(g.value(out).shape(), (2, 8));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn mhta_bad_heads_panics() {
        let (mut store, mut rng) = setup();
        MultiHeadTargetAttention::new(&mut store, &mut rng, "mh", 6, 4);
    }

    #[test]
    fn self_attention_preserves_field_shapes() {
        let (mut store, mut rng) = setup();
        let layer = SelfAttentionLayer::new(&mut store, &mut rng, "sa", 8, 2);
        let mut g = Graph::new();
        let fields: Vec<Var> = (0..3).map(|_| g.input(rng.randn(4, 8, 1.0))).collect();
        let out = layer.forward(&mut g, &store, &fields);
        assert_eq!(out.len(), 3);
        for &f in &out {
            assert_eq!(g.value(f).shape(), (4, 8));
        }
    }

    #[test]
    fn gradients_flow_through_attention() {
        let (mut store, mut rng) = setup();
        let att = TargetAttention::new(&mut store, &mut rng, "ta", 4, 8);
        let mut g = Graph::new();
        let q = g.input_with_grad(rng.randn(2, 4, 1.0));
        let seq = g.input_with_grad(rng.randn(2, 3 * 4, 1.0));
        let mask = g.input(Tensor::ones(2, 3));
        let (pooled, _) = att.forward(&mut g, &store, q, seq, mask, 3);
        let sq = g.square(pooled);
        let loss = g.mean_all(sq);
        g.backward(loss);
        store.accumulate_grads(&g);
        assert!(g.grad(q).unwrap().max_abs() > 0.0);
        assert!(g.grad(seq).unwrap().max_abs() > 0.0);
        // The activation-unit MLP received gradient too.
        let any_param_grad = store.ids().any(|id| store.grad(id).max_abs() > 0.0);
        assert!(any_param_grad);
    }
}
