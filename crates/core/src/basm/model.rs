//! The full Bottom-up Adaptive Spatiotemporal Model (Fig. 3).
//!
//! Bottom-up assembly: StAEL adapts field embeddings to the spatiotemporal
//! context (§II-B) → the adapted fields concatenate into the raw semantic
//! `ĥ` → StSTL transforms it into the spatiotemporal semantic (§II-C) →
//! StABT classifies under spatiotemporal bias modulation (§II-D) →
//! sigmoid/BCE head (Eq. 18/19, fused into the loss).
//!
//! Each module has an ablation switch reproducing Table V:
//! * `use_stael = false` — fields pass through unweighted (α ≡ 1);
//! * `use_ststl = false` — the dynamic transformation is replaced by a
//!   *static* linear map of identical width, isolating "dynamic vs static"
//!   rather than capacity;
//! * `use_stabt = false` — a plain FC+BN tower of identical widths.
//!
//! The forward tags its tape nodes with the module that pushed them
//! ([`MODULES`]), so telemetry reports each module's forward and backward
//! time (`basm.<module>.fwd` / `.bwd` spans, DESIGN.md §7).

use basm_data::Batch;
use basm_tensor::nn::{Activation, Linear, TargetAttention};
use basm_tensor::{Graph, Module, ParamStore, Prng};

use crate::basm::stabt::StAbt;
use crate::basm::stael::StAel;
use crate::basm::ststl::StStl;
use crate::features::{EmbDims, FeatureEmbedder};
use crate::model::{CtrModel, Forward};
use crate::tower::PlainBnTower;

static EMBED: Module = Module { fwd: "basm.embed.fwd", bwd: "basm.embed.bwd" };
static ATTENTION: Module = Module { fwd: "basm.attention.fwd", bwd: "basm.attention.bwd" };
static STAEL: Module = Module { fwd: "basm.stael.fwd", bwd: "basm.stael.bwd" };
static STSTL: Module = Module { fwd: "basm.ststl.fwd", bwd: "basm.ststl.bwd" };
static STABT: Module = Module { fwd: "basm.stabt.fwd", bwd: "basm.stabt.bwd" };

/// The module tags of [`Basm::forward`], in forward order: field
/// embeddings, behavior attention, StAEL, StSTL and the StABT tower. An
/// ablated module's stand-in keeps its tag.
pub static MODULES: [&Module; 5] = [&EMBED, &ATTENTION, &STAEL, &STSTL, &STABT];

/// Hyperparameters of a BASM instance.
#[derive(Debug, Clone)]
pub struct BasmConfig {
    /// Embedding widths.
    pub dims: EmbDims,
    /// Enable the Spatiotemporal-Aware Embedding Layer.
    pub use_stael: bool,
    /// Enable the Spatiotemporal Semantic Transformation Layer.
    pub use_ststl: bool,
    /// Enable the Spatiotemporal Adaptive Bias Tower.
    pub use_stabt: bool,
    /// StSTL weight-generation rank; `None` = full matrix (APG-like cost).
    pub ststl_rank: Option<usize>,
    /// StSTL output width (the spatiotemporal semantic dimension).
    pub ststl_out: usize,
    /// Hidden widths of the classification tower.
    pub tower: Vec<usize>,
    /// Hidden width of the behavior target-attention activation unit.
    pub attention_hidden: usize,
    /// Parameter-initialization seed.
    pub seed: u64,
}

impl Default for BasmConfig {
    fn default() -> Self {
        Self {
            dims: EmbDims::default(),
            use_stael: true,
            use_ststl: true,
            use_stabt: true,
            ststl_rank: Some(4),
            ststl_out: 80,
            tower: vec![64, 32],
            attention_hidden: 32,
            seed: 1,
        }
    }
}

impl BasmConfig {
    /// Table V ablation: `w/o StAEL`.
    pub fn without_stael(mut self) -> Self {
        self.use_stael = false;
        self
    }

    /// Table V ablation: `w/o StSTL`.
    pub fn without_ststl(mut self) -> Self {
        self.use_ststl = false;
        self
    }

    /// Table V ablation: `w/o StABT`.
    pub fn without_stabt(mut self) -> Self {
        self.use_stabt = false;
        self
    }
}

enum SemanticLayer {
    Dynamic(StStl),
    Static(Linear),
}

enum Tower {
    Adaptive(StAbt),
    Plain(PlainBnTower),
}

/// The BASM CTR model.
pub struct Basm {
    name: String,
    config: BasmConfig,
    store: ParamStore,
    embedder: FeatureEmbedder,
    attention: TargetAttention,
    stael: Option<StAel>,
    semantic: SemanticLayer,
    tower: Tower,
}

impl Basm {
    /// Build a BASM instance for a dataset configuration.
    pub fn new(world: &basm_data::WorldConfig, config: BasmConfig) -> Self {
        let mut rng = Prng::seeded(config.seed);
        let mut store = ParamStore::new();
        let dims = config.dims;
        let embedder = FeatureEmbedder::new(&mut rng, world, dims);

        // Conditioning networks see the learned context embeddings plus the
        // direct one-hot/cyclic context features (tp, city, hour) — the raw
        // "spatiotemporal context features" of Table I, available to the
        // modulators from step one instead of after embedding warm-up.
        let ctx_direct_dim = 5 + world.n_cities + 2;
        let ctx_dim = dims.context_field_dim() + ctx_direct_dim;

        let attention = TargetAttention::new(
            &mut store,
            &mut rng,
            "basm.att",
            dims.seq_dim(),
            config.attention_hidden,
        );

        let field_dims = [
            dims.user_field_dim(),
            dims.seq_dim(),
            dims.candidate_field_dim(),
            dims.combine_field_dim(),
        ];
        let stael = config
            .use_stael
            .then(|| StAel::new(&mut store, &mut rng, "basm.stael", &field_dims, ctx_dim));

        let raw_dim = dims.raw_semantic_dim();
        let cond_dim = ctx_dim + dims.seq_dim(); // [h_c; h_ui]
        let semantic = if config.use_ststl {
            SemanticLayer::Dynamic(StStl::new(
                &mut store,
                &mut rng,
                "basm.ststl",
                cond_dim,
                raw_dim,
                config.ststl_out,
                config.ststl_rank,
            ))
        } else {
            SemanticLayer::Static(Linear::new(
                &mut store,
                &mut rng,
                "basm.static_sem",
                raw_dim,
                config.ststl_out,
                true,
            ))
        };

        let mut tower_dims = vec![config.ststl_out];
        tower_dims.extend_from_slice(&config.tower);
        let act = Activation::LeakyRelu(0.01);
        let tower = if config.use_stabt {
            Tower::Adaptive(StAbt::new(&mut store, &mut rng, "basm.stabt", &tower_dims, ctx_dim, act))
        } else {
            Tower::Plain(PlainBnTower::new(&mut store, &mut rng, "basm.tower", &tower_dims, act))
        };

        let name = match (config.use_stael, config.use_ststl, config.use_stabt) {
            (true, true, true) => "BASM".to_string(),
            (false, true, true) => "BASM w/o StAEL".to_string(),
            (true, false, true) => "BASM w/o StSTL".to_string(),
            (true, true, false) => "BASM w/o StABT".to_string(),
            _ => "BASM (custom ablation)".to_string(),
        };

        Self { name, config, store, embedder, attention, stael, semantic, tower }
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &BasmConfig {
        &self.config
    }
}

impl CtrModel for Basm {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, g: &mut Graph, batch: &Batch, training: bool) -> Forward {
        let fe = &mut self.embedder;
        let store = &self.store;

        // Field embeddings (Table I).
        g.set_module(Some(&EMBED));
        let ctx_emb = fe.context_field(g, batch);
        let ctx_direct = fe.context_direct(g, batch);
        let ctx = g.concat_cols(&[ctx_emb, ctx_direct]);
        let user = fe.user_field(g, batch);
        let cand = fe.candidate_field(g, batch);
        let comb = fe.combine_field(g, batch);

        // Behavior field via target attention over the sequence.
        let query = fe.query_emb(g, batch);
        let seq = fe.seq_embs(g, batch);
        let mask = g.input(batch.mask.clone());
        g.set_module(Some(&ATTENTION));
        let (behavior, _att_w) =
            self.attention.forward(g, store, query, seq, mask, batch.seq_len);

        // StAEL: field-granular spatiotemporal weight adaptation (Eq. 5/6).
        let fields = [user, behavior, cand, comb];
        g.set_module(Some(&STAEL));
        let (adapted, alphas) = match &self.stael {
            Some(stael) => stael.forward(g, store, &fields, ctx),
            None => (fields.to_vec(), Vec::new()),
        };

        // Raw semantic ĥ = [h_0; ...; h_{n-1}] (all five fields; the context
        // field enters as its learned embeddings).
        let mut parts = adapted;
        parts.push(ctx_emb);
        let h_hat = g.concat_cols(&parts);

        // StSTL condition: spatiotemporal context ⊕ st-filtered behavior.
        g.set_module(Some(&EMBED));
        let h_ui = fe.behavior_field_st(g, batch);
        g.set_module(Some(&STSTL));
        let cond = g.concat_cols(&[ctx, h_ui]);
        let h_star = match &self.semantic {
            SemanticLayer::Dynamic(ststl) => ststl.forward(g, store, h_hat, cond),
            SemanticLayer::Static(lin) => lin.forward(g, store, h_hat),
        };

        // Classification tower.
        g.set_module(Some(&STABT));
        let (logits, hidden) = match &mut self.tower {
            Tower::Adaptive(t) => t.forward(g, store, h_star, ctx, training),
            Tower::Plain(t) => t.forward(g, store, h_star, training),
        };
        g.set_module(None);

        Forward { logits, hidden, alphas }
    }

    fn params(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn embedder(&mut self) -> &mut FeatureEmbedder {
        &mut self.embedder
    }

    fn bn_layers(&mut self) -> Vec<&mut basm_tensor::nn::BatchNorm1d> {
        match &mut self.tower {
            Tower::Adaptive(t) => t.bn_layers_mut(),
            Tower::Plain(t) => t.bn_layers_mut(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{predict, predict_full, train_step};
    use basm_data::{generate_dataset, WorldConfig};
    use basm_tensor::optim::AdagradDecay;

    fn setup(config: BasmConfig) -> (Basm, basm_data::Dataset) {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        (Basm::new(&cfg, config), data.dataset)
    }

    #[test]
    fn forward_shapes_full_model() {
        let (mut model, ds) = setup(BasmConfig::default());
        let b = ds.batch(&(0..16).collect::<Vec<_>>());
        let mut g = Graph::new();
        let fwd = model.forward(&mut g, &b, true);
        assert_eq!(g.value(fwd.logits).shape(), (16, 1));
        assert_eq!(g.value(fwd.hidden).shape(), (16, 32));
        assert_eq!(fwd.alphas.len(), 4, "α per non-context field");
        model.embedder().emb.clear_journal();
    }

    #[test]
    fn ablations_construct_and_run() {
        for (cfg, expected_alphas) in [
            (BasmConfig::default().without_stael(), 0),
            (BasmConfig::default().without_ststl(), 4),
            (BasmConfig::default().without_stabt(), 4),
        ] {
            let (mut model, ds) = setup(cfg);
            let b = ds.batch(&[0, 1, 2, 3]);
            let mut g = Graph::new();
            let fwd = model.forward(&mut g, &b, true);
            assert_eq!(g.value(fwd.logits).shape(), (4, 1));
            assert_eq!(fwd.alphas.len(), expected_alphas, "{}", model.name());
            model.embedder().emb.clear_journal();
        }
    }

    #[test]
    fn ablation_names() {
        let cfg = WorldConfig::tiny();
        assert_eq!(Basm::new(&cfg, BasmConfig::default()).name(), "BASM");
        assert_eq!(
            Basm::new(&cfg, BasmConfig::default().without_stael()).name(),
            "BASM w/o StAEL"
        );
        assert_eq!(
            Basm::new(&cfg, BasmConfig::default().without_ststl()).name(),
            "BASM w/o StSTL"
        );
        assert_eq!(
            Basm::new(&cfg, BasmConfig::default().without_stabt()).name(),
            "BASM w/o StABT"
        );
    }

    #[test]
    fn training_reduces_loss() {
        let (mut model, ds) = setup(BasmConfig::default());
        let mut rng = Prng::seeded(9);
        let train = ds.train_indices();
        let mut opt = AdagradDecay::paper_default();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..2 {
            for chunk in ds.shuffled_batches(&train, 128, &mut rng) {
                let b = ds.batch(&chunk);
                last = train_step(&mut model, &b, &mut opt, 0.05, Some(10.0));
                first.get_or_insert(last);
            }
        }
        let first = first.unwrap();
        assert!(last < first, "loss should fall: {first} -> {last}");
        assert!(last.is_finite());
    }

    #[test]
    fn predict_matches_label_scale() {
        let (mut model, ds) = setup(BasmConfig::default());
        let b = ds.batch(&(0..32).collect::<Vec<_>>());
        let probs = predict(&mut model, &b);
        assert_eq!(probs.len(), 32);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn predict_full_exposes_alphas_and_hidden() {
        let (mut model, ds) = setup(BasmConfig::default());
        let b = ds.batch(&(0..8).collect::<Vec<_>>());
        let inf = predict_full(&mut model, &b);
        assert_eq!(inf.hidden.shape(), (8, 32));
        assert_eq!(inf.alphas.len(), 4);
        assert!(inf.alphas.iter().all(|a| a.len() == 8));
        assert!(inf
            .alphas
            .iter()
            .flatten()
            .all(|&a| a > 0.0 && a < 2.0));
    }

    #[test]
    fn param_counts_positive_and_low_rank_smaller() {
        let cfg = WorldConfig::tiny();
        let mut full = Basm::new(
            &cfg,
            BasmConfig { ststl_rank: None, ..BasmConfig::default() },
        );
        let mut low = Basm::new(&cfg, BasmConfig::default());
        assert!(low.num_params() > 0);
        assert!(
            low.num_params() < full.num_params(),
            "low-rank {} vs full {}",
            low.num_params(),
            full.num_params()
        );
    }
}
