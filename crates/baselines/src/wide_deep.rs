//! Wide&Deep \[21\]: a wide linear memorization part over 1-dimensional
//! feature embeddings plus a deep MLP generalization part, jointly trained.

use basm_core::features::{EmbDims, FeatureEmbedder};
use basm_core::model::{CtrModel, Forward};
use basm_core::tower::PlainBnTower;
use basm_data::{Batch, WorldConfig};
use basm_tensor::nn::Activation;
use basm_tensor::{Graph, ParamStore, Prng};

fn wide_dims() -> EmbDims {
    EmbDims {
        user: 1,
        item: 1,
        category: 1,
        brand: 1,
        city: 1,
        hour: 1,
        time_period: 1,
        geohash: 1,
        position: 1,
        combine: 1,
    }
}

/// The Wide&Deep CTR model.
pub struct WideDeep {
    store: ParamStore,
    deep: FeatureEmbedder,
    wide: FeatureEmbedder,
    tower: PlainBnTower,
    wide_head: basm_tensor::nn::Linear,
}

impl WideDeep {
    /// Build for a dataset configuration.
    pub fn new(world: &WorldConfig, seed: u64) -> Self {
        let mut rng = Prng::seeded(seed);
        let mut store = ParamStore::new();
        let dims = EmbDims::default();
        let deep = FeatureEmbedder::new(&mut rng, world, dims);
        let wide = FeatureEmbedder::new(&mut rng.fork(1), world, wide_dims());
        let raw = dims.raw_semantic_dim();
        let tower = PlainBnTower::new(
            &mut store,
            &mut rng,
            "wd.deep",
            &[raw, 64, 32],
            Activation::LeakyRelu(0.01),
        );
        // Wide input: one scalar per feature (10) + the raw dense stats — the
        // memorization path.
        let wide_in = wide_dims().raw_semantic_dim();
        let wide_head =
            basm_tensor::nn::Linear::new(&mut store, &mut rng, "wd.wide", wide_in, 1, true);
        Self { store, deep, wide, tower, wide_head }
    }

    fn fields(fe: &mut FeatureEmbedder, g: &mut Graph, b: &Batch) -> basm_tensor::Var {
        let user = fe.user_field(g, b);
        let beh = fe.behavior_field_mean(g, b);
        let cand = fe.candidate_field(g, b);
        let ctx = fe.context_field(g, b);
        let comb = fe.combine_field(g, b);
        g.concat_cols(&[user, beh, cand, ctx, comb])
    }
}

impl CtrModel for WideDeep {
    fn name(&self) -> &str {
        "Wide&Deep"
    }

    fn forward(&mut self, g: &mut Graph, batch: &Batch, training: bool) -> Forward {
        let deep_in = Self::fields(&mut self.deep, g, batch);
        let (deep_logit, hidden) = self.tower.forward(g, &self.store, deep_in, training);
        let wide_in = Self::fields(&mut self.wide, g, batch);
        let wide_logit = self.wide_head.forward(g, &self.store, wide_in);
        let logits = g.add(deep_logit, wide_logit);
        Forward { logits, hidden, alphas: Vec::new() }
    }

    fn params(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn bn_layers(&mut self) -> Vec<&mut basm_tensor::nn::BatchNorm1d> {
        self.tower.bn_layers_mut()
    }

    fn embedder(&mut self) -> &mut FeatureEmbedder {
        &mut self.deep
    }

    fn embedders(&mut self) -> Vec<&mut FeatureEmbedder> {
        vec![&mut self.deep, &mut self.wide]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basm_core::model::{predict, train_step};
    use basm_data::generate_dataset;
    use basm_tensor::optim::AdagradDecay;

    #[test]
    fn forward_and_train() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let mut model = WideDeep::new(&cfg, 1);
        let b = data.dataset.batch(&(0..32).collect::<Vec<_>>());
        let mut opt = AdagradDecay::paper_default();
        let l1 = train_step(&mut model, &b, &mut opt, 0.05, Some(10.0));
        for _ in 0..20 {
            train_step(&mut model, &b, &mut opt, 0.05, Some(10.0));
        }
        let l2 = train_step(&mut model, &b, &mut opt, 0.05, Some(10.0));
        assert!(l2 < l1, "loss should fall on a fixed batch: {l1} -> {l2}");
        let probs = predict(&mut model, &b);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn wide_tables_update_too() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let mut model = WideDeep::new(&cfg, 1);
        let b = data.dataset.batch(&[0, 1]);
        let tid = model.wide.emb.id_of("item").unwrap();
        let before = model.wide.emb.table(tid).row(b.item_ids[0]).to_vec();
        let mut opt = AdagradDecay::paper_default();
        train_step(&mut model, &b, &mut opt, 0.1, None);
        let after = model.wide.emb.table(tid).row(b.item_ids[0]);
        assert_ne!(before.as_slice(), after);
    }

    #[test]
    fn checkpoint_dir_restores_wide_tables() {
        use basm_core::checkpoint::{load_model_dir, save_model_dir};
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let b = data.dataset.batch(&(0..32).collect::<Vec<_>>());
        let mut trained = WideDeep::new(&cfg, 1);
        let mut opt = AdagradDecay::paper_default();
        for _ in 0..3 {
            train_step(&mut trained, &b, &mut opt, 0.05, None);
        }
        let bits = |m: &mut WideDeep| -> Vec<u32> {
            predict(m, &b).iter().map(|p| p.to_bits()).collect()
        };
        let expected = bits(&mut trained);

        let dir = basm_tensor::packstore::fresh_temp_dir();
        save_model_dir(&mut trained, &dir).unwrap();
        let mut restored = WideDeep::new(&cfg, 2);
        load_model_dir(&mut restored, &dir).unwrap();
        assert_eq!(bits(&mut restored), expected, "both stores must round-trip");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
