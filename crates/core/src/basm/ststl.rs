//! Spatiotemporal Semantic Transformation Layer (StSTL, §II-C).
//!
//! A meta network conditioned on `[h_c; h_ui]` (spatiotemporal context ⊕
//! spatiotemporally-filtered user behavior) emits per-sample dynamic weights
//! `W_stl` and bias `b_stl` (Eq. 7/8), which transform the raw semantic
//! `ĥ` into the spatiotemporal semantic `h* = W_stl ĥ + b_stl` (Eq. 9).
//!
//! The dynamic weight is generated in **decomposed form**
//! `W_stl = W_base + U·V` with a static full-rank base `W_base` and
//! per-sample low-rank factors `U ∈ R^{out×r}`, `V ∈ R^{r×in}` — the
//! "matrix decomposition" §III-D credits for BASM's parameter/compute
//! advantage over APG and M2M: only the cheap factors are generated per
//! sample, while full-rank capacity comes from the shared base.
//! `rank: None` generates the full matrix per sample instead (ablation
//! mode, APG-like cost).
//!
//! The low-rank path runs as one tape op, [`Graph::ststl`]: per row block
//! it generates `U`, `V` and `b_stl` with the GEMM kernel and applies
//! `h* = (W_base ĥ + U (V ĥ)) + b_stl` in place, and its backward forms the
//! gradients without per-op intermediates. It computes the same bits as the
//! four `Linear`s, two `meta_linear`s and two `add`s it replaced
//! (DESIGN.md §15; `basm-tensor`'s `tests/ststl.rs` keeps that composite as
//! the op's oracle). The parameters stay in this layer's `Linear`s, so their
//! names, the RNG order (`meta_b`, `base`, `meta_u`, `meta_v`) and the
//! checkpoint format are unchanged. `rank: None` stays a composite.

use basm_tensor::nn::Linear;
use basm_tensor::{Graph, ParamStore, Prng, Var};

/// The semantic transformation layer.
pub struct StStl {
    base: Option<Linear>,
    meta_u: Option<Linear>,
    meta_v: Option<Linear>,
    meta_full: Option<Linear>,
    meta_b: Linear,
    in_dim: usize,
    out_dim: usize,
    rank: Option<usize>,
}

impl StStl {
    /// `cond_dim` is the meta-network input width (`h_c` ⊕ `h_ui`);
    /// `in_dim → out_dim` is the semantic transformation; `rank` selects
    /// low-rank (Some) vs full (None) weight generation.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Prng,
        name: &str,
        cond_dim: usize,
        in_dim: usize,
        out_dim: usize,
        rank: Option<usize>,
    ) -> Self {
        let meta_b = Linear::new(store, rng, &format!("{name}.meta_b"), cond_dim, out_dim, true);
        match rank {
            Some(r) => {
                assert!(r >= 1, "StSTL rank must be >= 1");
                let base = Linear::new(store, rng, &format!("{name}.base"), in_dim, out_dim, false);
                let meta_u =
                    Linear::new(store, rng, &format!("{name}.meta_u"), cond_dim, out_dim * r, true);
                let meta_v =
                    Linear::new(store, rng, &format!("{name}.meta_v"), cond_dim, r * in_dim, true);
                Self {
                    base: Some(base),
                    meta_u: Some(meta_u),
                    meta_v: Some(meta_v),
                    meta_full: None,
                    meta_b,
                    in_dim,
                    out_dim,
                    rank,
                }
            }
            None => {
                let meta_full = Linear::new(
                    store,
                    rng,
                    &format!("{name}.meta_w"),
                    cond_dim,
                    out_dim * in_dim,
                    true,
                );
                Self {
                    base: None,
                    meta_u: None,
                    meta_v: None,
                    meta_full: Some(meta_full),
                    meta_b,
                    in_dim,
                    out_dim,
                    rank,
                }
            }
        }
    }

    /// Transform the raw semantic `h_hat [B, in]` under condition
    /// `cond = [h_c; h_ui]` (Eq. 7-9). Output `[B, out]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, h_hat: Var, cond: Var) -> Var {
        debug_assert_eq!(g.value(h_hat).cols(), self.in_dim);
        match (self.rank, &self.meta_full) {
            (Some(r), _) => {
                // (W_base + U·V) ĥ + b = W_base ĥ + U (V ĥ) + b: a static
                // full-rank path plus two cheap per-sample contractions.
                let [base, u, v] = [&self.base, &self.meta_u, &self.meta_v]
                    .map(|l| l.as_ref().expect("low-rank StSTL layer"));
                let w_base = g.param(store, base.w);
                let [u, v, b] = [u, v, &self.meta_b].map(|l| {
                    let bias = l.b.expect("StSTL meta layers have biases");
                    (g.param(store, l.w), g.param(store, bias))
                });
                g.ststl(h_hat, cond, w_base, u, v, b, r)
            }
            (None, Some(full)) => {
                let w = full.forward(g, store, cond); // [B, out*in]
                let dynamic = g.meta_linear(w, h_hat, self.out_dim, self.in_dim);
                let b = self.meta_b.forward(g, store, cond); // [B, out]
                g.add(dynamic, b)
            }
            _ => unreachable!("StSTL: inconsistent construction"),
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Trainable scalars.
    pub fn num_params(&self) -> usize {
        let gen = match self.rank {
            Some(_) => {
                self.base.as_ref().map_or(0, Linear::num_params)
                    + self.meta_u.as_ref().map_or(0, Linear::num_params)
                    + self.meta_v.as_ref().map_or(0, Linear::num_params)
            }
            None => self.meta_full.as_ref().map_or(0, Linear::num_params),
        };
        gen + self.meta_b.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(rank: Option<usize>) -> (StStl, ParamStore, Prng) {
        let mut store = ParamStore::new();
        let mut rng = Prng::seeded(11);
        let layer = StStl::new(&mut store, &mut rng, "ststl", 6, 10, 4, rank);
        (layer, store, rng)
    }

    #[test]
    fn low_rank_shapes() {
        let (layer, store, mut rng) = setup(Some(2));
        let mut g = Graph::new();
        let h = g.input(rng.randn(3, 10, 1.0));
        let cond = g.input(rng.randn(3, 6, 1.0));
        let out = layer.forward(&mut g, &store, h, cond);
        assert_eq!(g.value(out).shape(), (3, 4));
    }

    #[test]
    fn full_rank_shapes() {
        let (layer, store, mut rng) = setup(None);
        let mut g = Graph::new();
        let h = g.input(rng.randn(3, 10, 1.0));
        let cond = g.input(rng.randn(3, 6, 1.0));
        let out = layer.forward(&mut g, &store, h, cond);
        assert_eq!(g.value(out).shape(), (3, 4));
    }

    #[test]
    fn low_rank_is_cheaper_than_full() {
        let (low, ..) = setup(Some(2));
        let (full, ..) = setup(None);
        assert!(
            low.num_params() < full.num_params(),
            "{} vs {}",
            low.num_params(),
            full.num_params()
        );
    }

    #[test]
    fn different_conditions_give_different_mappings() {
        // The same ĥ must map differently under different spatiotemporal
        // conditions — the whole point of the layer.
        let (layer, store, mut rng) = setup(Some(2));
        let mut g = Graph::new();
        let h_row = rng.randn(1, 10, 1.0);
        let h1 = g.input(h_row.clone());
        let h2 = g.input(h_row);
        let c1 = g.input(rng.randn(1, 6, 2.0));
        let c2 = g.input(rng.randn(1, 6, 2.0));
        let o1 = layer.forward(&mut g, &store, h1, c1);
        let o2 = layer.forward(&mut g, &store, h2, c2);
        let d: f32 = g
            .value(o1)
            .data()
            .iter()
            .zip(g.value(o2).data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d > 1e-4, "outputs identical across conditions");
    }

    #[test]
    fn gradients_flow_to_meta_network() {
        let (layer, mut store, mut rng) = setup(Some(2));
        let mut g = Graph::new();
        let h = g.input(rng.randn(4, 10, 1.0));
        let cond = g.input(rng.randn(4, 6, 1.0));
        let out = layer.forward(&mut g, &store, h, cond);
        let sq = g.square(out);
        let loss = g.mean_all(sq);
        g.backward(loss);
        store.accumulate_grads(&g);
        assert!(store.grad(layer.meta_u.as_ref().unwrap().w).max_abs() > 0.0);
        assert!(store.grad(layer.meta_v.as_ref().unwrap().w).max_abs() > 0.0);
        assert!(store.grad(layer.meta_b.w).max_abs() > 0.0);
    }
}
