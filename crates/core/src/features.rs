//! Field-level feature embedding shared by BASM and every baseline.
//!
//! Implements the paper's Table I layout: five feature fields (user, user
//! behavior sequence, candidate item, spatiotemporal context, combine), each
//! assembled from per-feature embedding lookups plus the dense statistics the
//! production logs carry. Embedding tables are shared between scalar features
//! and their sequence counterparts (item/category/time-period), as in
//! industrial systems.

use basm_data::{Batch, WorldConfig};
use basm_tensor::nn::embedding::{EmbeddingStore, TableId};
use basm_tensor::{Graph, Prng, Tensor, Var};

/// Embedding width per feature.
#[derive(Debug, Clone, Copy)]
pub struct EmbDims {
    pub user: usize,
    pub item: usize,
    pub category: usize,
    pub brand: usize,
    pub city: usize,
    pub hour: usize,
    pub time_period: usize,
    pub geohash: usize,
    pub position: usize,
    pub combine: usize,
}

impl Default for EmbDims {
    fn default() -> Self {
        Self {
            user: 16,
            item: 16,
            category: 8,
            brand: 8,
            city: 8,
            hour: 8,
            time_period: 8,
            geohash: 8,
            position: 4,
            combine: 8,
        }
    }
}

/// Dense columns 0..3 are user statistics, 3..8 item/context statistics
/// (see `basm_data::schema::DENSE_FEATURES` ordering).
const USER_DENSE: (usize, usize) = (0, 3);
const ITEM_DENSE: (usize, usize) = (3, 5);

impl EmbDims {
    /// Per-position width of the behavior sequence embedding
    /// (item ⊕ category ⊕ time-period).
    pub fn seq_dim(&self) -> usize {
        self.item + self.category + self.time_period
    }

    /// Width of the user field (embedding + user dense stats).
    pub fn user_field_dim(&self) -> usize {
        self.user + USER_DENSE.1
    }

    /// Width of the candidate-item field.
    pub fn candidate_field_dim(&self) -> usize {
        self.item + self.category + self.brand + self.position + ITEM_DENSE.1
    }

    /// Width of the spatiotemporal-context field.
    pub fn context_field_dim(&self) -> usize {
        self.time_period + self.hour + self.city + self.geohash
    }

    /// Width of the combine field.
    pub fn combine_field_dim(&self) -> usize {
        self.combine
    }

    /// Width of the concatenated raw semantic
    /// `ĥ = [h_user; h_behavior; h_candidate; h_context; h_combine]`
    /// when the behavior field is a pooled sequence embedding.
    pub fn raw_semantic_dim(&self) -> usize {
        self.user_field_dim()
            + self.seq_dim()
            + self.candidate_field_dim()
            + self.context_field_dim()
            + self.combine_field_dim()
    }
}

/// Embedding tables + field assembly for one model instance.
pub struct FeatureEmbedder {
    /// The sparse parameter store (per-row Adagrad).
    pub emb: EmbeddingStore,
    /// Embedding widths.
    pub dims: EmbDims,
    seq_len: usize,
    n_cities: usize,
    t_user: TableId,
    t_item: TableId,
    t_cat: TableId,
    t_brand: TableId,
    t_city: TableId,
    t_hour: TableId,
    t_tp: TableId,
    t_geo: TableId,
    t_pos: TableId,
    t_combine: TableId,
}

impl FeatureEmbedder {
    /// Create the tables sized for a dataset configuration.
    pub fn new(rng: &mut Prng, cfg: &WorldConfig, dims: EmbDims) -> Self {
        let mut emb = EmbeddingStore::new();
        let std = 0.05;
        let t_user = emb.add_table(rng, "user", cfg.n_users + 2, dims.user, std);
        let t_item = emb.add_table(rng, "item", cfg.n_items + 2, dims.item, std);
        let t_cat = emb.add_table(rng, "category", cfg.n_categories + 2, dims.category, std);
        let t_brand = emb.add_table(rng, "brand", cfg.n_brands + 2, dims.brand, std);
        let t_city = emb.add_table(rng, "city", cfg.n_cities + 2, dims.city, std);
        let t_hour = emb.add_table(rng, "hour", 26, dims.hour, std);
        let t_tp = emb.add_table(rng, "time_period", 7, dims.time_period, std);
        let t_geo = emb.add_table(rng, "geohash", cfg.n_geohash() + 2, dims.geohash, std);
        let t_pos =
            emb.add_table(rng, "position", cfg.candidates_per_session + 2, dims.position, std);
        let t_combine = emb.add_table(
            rng,
            "combine",
            basm_data::Dataset::COMBINE_CARD + 2,
            dims.combine,
            std,
        );
        Self {
            emb,
            dims,
            seq_len: cfg.seq_len,
            n_cities: cfg.n_cities,
            t_user,
            t_item,
            t_cat,
            t_brand,
            t_city,
            t_hour,
            t_tp,
            t_geo,
            t_pos,
            t_combine,
        }
    }

    /// Sequence capacity the embedder was built for.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// The batch's dense statistics as a constant node `[B, DENSE_FEATURES]`.
    pub fn dense_input(&self, g: &mut Graph, b: &Batch) -> Var {
        g.input(b.dense.clone())
    }

    /// User field: user embedding ⊕ user dense statistics.
    pub fn user_field(&mut self, g: &mut Graph, b: &Batch) -> Var {
        let ue = self.emb.lookup(g, self.t_user, &b.user_ids);
        let dense = self.dense_input(g, b);
        let ud = g.slice_cols(dense, USER_DENSE.0, USER_DENSE.1);
        g.concat_cols(&[ue, ud])
    }

    /// Candidate-item field: item ⊕ category ⊕ brand ⊕ position embeddings
    /// ⊕ item dense statistics.
    pub fn candidate_field(&mut self, g: &mut Graph, b: &Batch) -> Var {
        let parts = [
            (self.t_item, &b.item_ids[..]),
            (self.t_cat, &b.cat_ids[..]),
            (self.t_brand, &b.brand_ids[..]),
            (self.t_pos, &b.pos_ids[..]),
        ];
        let emb = self.emb.lookup_concat(g, &parts, b.size);
        let dense = self.dense_input(g, b);
        let id = g.slice_cols(dense, ITEM_DENSE.0, ITEM_DENSE.1);
        g.concat_cols(&[emb, id])
    }

    /// Spatiotemporal context field: time-period ⊕ hour ⊕ city ⊕ geohash.
    pub fn context_field(&mut self, g: &mut Graph, b: &Batch) -> Var {
        let parts = [
            (self.t_tp, &b.tp_ids[..]),
            (self.t_hour, &b.hour_ids[..]),
            (self.t_city, &b.city_ids[..]),
            (self.t_geo, &b.geo_ids[..]),
        ];
        self.emb.lookup_concat(g, &parts, b.size)
    }

    /// Width of [`FeatureEmbedder::context_direct`] (5 time-period one-hots,
    /// `n_cities` city one-hots, sin/cos of the hour angle).
    pub fn context_direct_dim(&self) -> usize {
        5 + self.n_cities + 2
    }

    /// Direct (non-learned) spatiotemporal context features: one-hot
    /// time-period and city plus a cyclic hour encoding. The paper's
    /// "spatiotemporal context feature" field (Table I) carries the raw ids;
    /// conditioning networks receive them undegraded by embedding warm-up.
    pub fn context_direct(&self, g: &mut Graph, b: &Batch) -> Var {
        let d = self.context_direct_dim();
        let mut t = Tensor::zeros(b.size, d);
        for r in 0..b.size {
            let row = t.row_mut(r);
            row[b.tp_raw[r] as usize] = 1.0;
            let city = (b.city_raw[r] as usize).min(self.n_cities - 1);
            row[5 + city] = 1.0;
            // hour_ids are +1 shifted.
            let hour = (b.hour_ids[r].saturating_sub(1)) as f32;
            let angle = hour * std::f32::consts::TAU / 24.0;
            row[5 + self.n_cities] = angle.sin();
            row[5 + self.n_cities + 1] = angle.cos();
        }
        g.input(t)
    }

    /// Combine field: the hand-crafted cross-feature embedding.
    pub fn combine_field(&mut self, g: &mut Graph, b: &Batch) -> Var {
        self.emb.lookup(g, self.t_combine, &b.combine_ids)
    }

    /// Attention query matching the sequence layout: candidate item ⊕
    /// candidate category ⊕ current time-period.
    pub fn query_emb(&mut self, g: &mut Graph, b: &Batch) -> Var {
        let parts = [
            (self.t_item, &b.item_ids[..]),
            (self.t_cat, &b.cat_ids[..]),
            (self.t_tp, &b.tp_ids[..]),
        ];
        self.emb.lookup_concat(g, &parts, b.size)
    }

    /// Behavior-sequence embeddings `[B, T * seq_dim]` (item ⊕ category ⊕
    /// time-period per position; padded positions embed to zero via row 0),
    /// gathered straight into the `[B, T·seq_dim]` leaf.
    pub fn seq_embs(&mut self, g: &mut Graph, b: &Batch) -> Var {
        let parts = [
            (self.t_item, &b.seq_item[..]),
            (self.t_cat, &b.seq_cat[..]),
            (self.t_tp, &b.seq_tp[..]),
        ];
        self.emb.lookup_concat(g, &parts, b.size)
    }

    /// Masked mean pooling of a sequence `[B, T*d]` with a host-side mask
    /// `[B, T]` — weights are `mask / max(1, Σ mask)` per row.
    pub fn masked_mean(&self, g: &mut Graph, seq: Var, mask: &Tensor, d: usize) -> Var {
        let (m, t) = mask.shape();
        let mut w = Tensor::zeros(m, t);
        for r in 0..m {
            let len: f32 = mask.row(r).iter().sum();
            if len > 0.0 {
                for (o, &v) in w.row_mut(r).iter_mut().zip(mask.row(r).iter()) {
                    *o = v / len;
                }
            }
        }
        let wv = g.input(w);
        g.seq_weighted_sum(seq, wv, t, d)
    }

    /// Pooled behavior field (masked mean over all valid positions).
    pub fn behavior_field_mean(&mut self, g: &mut Graph, b: &Batch) -> Var {
        let seq = self.seq_embs(g, b);
        self.masked_mean(g, seq, &b.mask, self.dims.seq_dim())
    }

    /// Spatiotemporally-filtered behavior `h_ui` (masked mean over positions
    /// whose behavior matches the current time-period and nearby geohash) —
    /// the personalized filtering StSTL uses (§II-C).
    pub fn behavior_field_st(&mut self, g: &mut Graph, b: &Batch) -> Var {
        let seq = self.seq_embs(g, b);
        self.masked_mean(g, seq, &b.st_mask, self.dims.seq_dim())
    }

    /// Total sparse parameters.
    pub fn num_params(&self) -> usize {
        self.emb.num_params()
    }

    /// Bytes held by tables + their optimizer state.
    pub fn memory_bytes(&self) -> usize {
        self.emb.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basm_data::generate_dataset;

    fn setup() -> (FeatureEmbedder, basm_data::Dataset) {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let mut rng = Prng::seeded(5);
        (FeatureEmbedder::new(&mut rng, &cfg, EmbDims::default()), data.dataset)
    }

    #[test]
    fn field_shapes() {
        let (mut fe, ds) = setup();
        let b = ds.batch(&(0..16).collect::<Vec<_>>());
        let mut g = Graph::new();
        let d = fe.dims;
        let user = fe.user_field(&mut g, &b);
        assert_eq!(g.value(user).shape(), (16, d.user_field_dim()));
        let cand = fe.candidate_field(&mut g, &b);
        assert_eq!(g.value(cand).shape(), (16, d.candidate_field_dim()));
        let ctx = fe.context_field(&mut g, &b);
        assert_eq!(g.value(ctx).shape(), (16, d.context_field_dim()));
        let comb = fe.combine_field(&mut g, &b);
        assert_eq!(g.value(comb).shape(), (16, d.combine_field_dim()));
        let q = fe.query_emb(&mut g, &b);
        assert_eq!(g.value(q).shape(), (16, d.seq_dim()));
        let seq = fe.seq_embs(&mut g, &b);
        assert_eq!(g.value(seq).shape(), (16, ds.seq_len() * d.seq_dim()));
    }

    #[test]
    fn padded_positions_embed_to_zero() {
        let (mut fe, ds) = setup();
        // Find an example with a padded tail.
        let idx = (0..ds.len())
            .find(|&i| (ds.seq_used[i] as usize) < ds.seq_len())
            .expect("some short sequence");
        let b = ds.batch(&[idx]);
        let mut g = Graph::new();
        let seq = fe.seq_embs(&mut g, &b);
        let d = fe.dims.seq_dim();
        let used = ds.seq_used[idx] as usize;
        let row = g.value(seq).row(0).to_vec();
        for t in used..ds.seq_len() {
            assert!(
                row[t * d..(t + 1) * d].iter().all(|&v| v == 0.0),
                "position {t} should be zero-embedded"
            );
        }
    }

    #[test]
    fn masked_mean_is_average_of_valid() {
        let (fe, _) = setup();
        let mut g = Graph::new();
        // 1 sample, 3 positions of dim 2: [1,2], [3,4], [5,6], mask [1,1,0].
        let seq = g.input(Tensor::from_vec(1, 6, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let mask = Tensor::from_vec(1, 3, vec![1.0, 1.0, 0.0]);
        let pooled = fe.masked_mean(&mut g, seq, &mask, 2);
        assert_eq!(g.value(pooled).data(), &[2.0, 3.0]);
    }

    #[test]
    fn all_masked_pools_to_zero() {
        let (fe, _) = setup();
        let mut g = Graph::new();
        let seq = g.input(Tensor::ones(1, 6));
        let mask = Tensor::zeros(1, 3);
        let pooled = fe.masked_mean(&mut g, seq, &mask, 2);
        assert_eq!(g.value(pooled).data(), &[0.0, 0.0]);
    }

    #[test]
    fn embeddings_update_through_training_lookup() {
        let (mut fe, ds) = setup();
        let b = ds.batch(&[0, 1, 2, 3]);
        let before = fe.emb.table(fe.t_user).row(b.user_ids[0]).to_vec();
        let mut g = Graph::new();
        let uf = fe.user_field(&mut g, &b);
        let sq = g.square(uf);
        let loss = g.mean_all(sq);
        g.backward(loss);
        fe.emb.apply_grads(&g, 0.5);
        let after = fe.emb.table(fe.t_user).row(b.user_ids[0]);
        assert_ne!(before.as_slice(), after);
    }
}
