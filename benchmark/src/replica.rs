//! An in-situ replica of `Basm::forward`, assembled from the library's public
//! modules in `Basm::new`'s parameter and RNG order, so each module's share
//! of a forward pass can be timed from outside the library.
//!
//! The replica is a `CtrModel`, so it loads the workload's checkpoint like
//! the real model does. `matches` checks it against the library bit for bit;
//! when a later change to the model makes them differ, the module rows stop
//! describing the library and the run reports `basm.replica_match = 0`.

use std::time::Instant;

use basm_core::basm::{StAbt, StAel, StStl};
use basm_core::model::{predict, CtrModel, Forward};
use basm_core::{BasmConfig, FeatureEmbedder};
use basm_data::{Batch, WorldConfig};
use basm_tensor::nn::{Activation, BatchNorm1d, TargetAttention};
use basm_tensor::{with_graph, Graph, ParamStore, Prng, Tensor, Var};

/// The modules the replica times, in forward order (span names).
pub const MODULES: [&str; 5] = [
    "basm.embed",
    "basm.attention",
    "basm.stael",
    "basm.ststl",
    "basm.stabt",
];

/// Span names of each module's isolated backward, indexed like [`MODULES`].
pub const BACKWARD: [&str; 5] = [
    "basm.embed.bwd",
    "basm.attention.bwd",
    "basm.stael.bwd",
    "basm.ststl.bwd",
    "basm.stabt.bwd",
];

/// `(module, start, end)` of one timed module call.
pub type Mark = (&'static str, Instant, Instant);

/// Module inputs of one forward pass, kept to time each module's backward
/// on an isolated graph.
pub struct Captured {
    query: Tensor,
    seq: Tensor,
    mask: Tensor,
    fields: Vec<Tensor>,
    ctx: Tensor,
    h_hat: Tensor,
    cond: Tensor,
    h_star: Tensor,
}

pub struct Replica {
    store: ParamStore,
    embedder: FeatureEmbedder,
    attention: TargetAttention,
    stael: StAel,
    ststl: StStl,
    stabt: StAbt,
    /// Every module call of the last forward.
    pub marks: Vec<Mark>,
    /// Capture module inputs on the next forward.
    pub capture: bool,
    pub captured: Option<Captured>,
}

impl Replica {
    pub fn new(world: &WorldConfig) -> Self {
        let config = BasmConfig::default();
        let mut rng = Prng::seeded(config.seed);
        let mut store = ParamStore::new();
        let dims = config.dims;
        let embedder = FeatureEmbedder::new(&mut rng, world, dims);
        let ctx_dim = dims.context_field_dim() + 5 + world.n_cities + 2;
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
        let stael = StAel::new(&mut store, &mut rng, "basm.stael", &field_dims, ctx_dim);
        let ststl = StStl::new(
            &mut store,
            &mut rng,
            "basm.ststl",
            ctx_dim + dims.seq_dim(),
            dims.raw_semantic_dim(),
            config.ststl_out,
            config.ststl_rank,
        );
        let mut tower_dims = vec![config.ststl_out];
        tower_dims.extend_from_slice(&config.tower);
        let act = Activation::LeakyRelu(0.01);
        let stabt = StAbt::new(
            &mut store,
            &mut rng,
            "basm.stabt",
            &tower_dims,
            ctx_dim,
            act,
        );
        Self {
            store,
            embedder,
            attention,
            stael,
            ststl,
            stabt,
            marks: Vec::new(),
            capture: false,
            captured: None,
        }
    }

    /// One forward on a recycled graph, as `predict` or a training step
    /// runs it. Returns its `(start, end)`; module calls land in `marks`.
    pub fn timed_forward(&mut self, batch: &Batch, training: bool) -> (Instant, Instant) {
        let t0 = Instant::now();
        with_graph(|g| {
            if !training {
                g.set_inference(true);
            }
            let fwd = self.forward(g, batch, training);
            std::hint::black_box(g.value(fwd.logits));
        });
        let t1 = Instant::now();
        self.clear_journals();
        (t0, t1)
    }

    /// Time each module's backward on a graph fed the captured inputs:
    /// `(module, start, end)` of each backward sweep. The embedding tables
    /// have no backward here (their update is the step's sparse update).
    pub fn isolated_backward(&mut self, cap: &Captured, seq_len: usize) -> Vec<Mark> {
        let store = &self.store;
        let mut out = Vec::with_capacity(4);
        out.push(backward_of(BACKWARD[1], |g| {
            let q = g.input_with_grad(cap.query.clone());
            let s = g.input_with_grad(cap.seq.clone());
            let m = g.input(cap.mask.clone());
            self.attention.forward(g, store, q, s, m, seq_len).0
        }));
        out.push(backward_of(BACKWARD[2], |g| {
            let fields: Vec<Var> = cap
                .fields
                .iter()
                .map(|f| g.input_with_grad(f.clone()))
                .collect();
            let ctx = g.input_with_grad(cap.ctx.clone());
            let (adapted, _) = self.stael.forward(g, store, &fields, ctx);
            g.concat_cols(&adapted)
        }));
        out.push(backward_of(BACKWARD[3], |g| {
            let h = g.input_with_grad(cap.h_hat.clone());
            let c = g.input_with_grad(cap.cond.clone());
            self.ststl.forward(g, store, h, c)
        }));
        let stabt = &mut self.stabt;
        out.push(backward_of(BACKWARD[4], |g| {
            let h = g.input_with_grad(cap.h_star.clone());
            let c = g.input_with_grad(cap.ctx.clone());
            stabt.forward(g, store, h, c, true).0
        }));
        out
    }
}

/// Build `f`'s sub-graph, reduce its output to a scalar and time the
/// backward sweep alone.
fn backward_of(name: &'static str, f: impl FnOnce(&mut Graph) -> Var) -> Mark {
    with_graph(|g| {
        let out = f(g);
        let loss = g.sum_all(out);
        let t0 = Instant::now();
        g.backward(loss);
        (name, t0, Instant::now())
    })
}

impl CtrModel for Replica {
    fn name(&self) -> &str {
        "BASM replica"
    }

    /// `Basm::forward`, op for op, with a clock around each module.
    fn forward(&mut self, g: &mut Graph, batch: &Batch, training: bool) -> Forward {
        let mut marks = Vec::with_capacity(6);
        let fe = &mut self.embedder;
        let store = &self.store;

        let t = Instant::now();
        let ctx_emb = fe.context_field(g, batch);
        let ctx_direct = fe.context_direct(g, batch);
        let ctx = g.concat_cols(&[ctx_emb, ctx_direct]);
        let user = fe.user_field(g, batch);
        let cand = fe.candidate_field(g, batch);
        let comb = fe.combine_field(g, batch);
        let query = fe.query_emb(g, batch);
        let seq = fe.seq_embs(g, batch);
        let mask = g.input(batch.mask.clone());
        marks.push((MODULES[0], t, Instant::now()));

        let t = Instant::now();
        let (behavior, _) = self
            .attention
            .forward(g, store, query, seq, mask, batch.seq_len);
        marks.push((MODULES[1], t, Instant::now()));

        let fields = [user, behavior, cand, comb];
        let t = Instant::now();
        let (adapted, alphas) = self.stael.forward(g, store, &fields, ctx);
        marks.push((MODULES[2], t, Instant::now()));

        let mut parts = adapted;
        parts.push(ctx_emb);
        let h_hat = g.concat_cols(&parts);

        let t = Instant::now();
        let h_ui = fe.behavior_field_st(g, batch);
        marks.push((MODULES[0], t, Instant::now()));
        let cond = g.concat_cols(&[ctx, h_ui]);

        let t = Instant::now();
        let h_star = self.ststl.forward(g, store, h_hat, cond);
        marks.push((MODULES[3], t, Instant::now()));

        let t = Instant::now();
        let (logits, hidden) = self.stabt.forward(g, store, h_star, ctx, training);
        marks.push((MODULES[4], t, Instant::now()));

        self.marks = marks;
        if self.capture {
            let v = |x: Var| g.value(x).clone();
            self.captured = Some(Captured {
                query: v(query),
                seq: v(seq),
                mask: v(mask),
                fields: fields.iter().map(|&f| v(f)).collect(),
                ctx: v(ctx),
                h_hat: v(h_hat),
                cond: v(cond),
                h_star: v(h_star),
            });
        }
        Forward {
            logits,
            hidden,
            alphas,
        }
    }

    fn params(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn embedder(&mut self) -> &mut FeatureEmbedder {
        &mut self.embedder
    }

    fn bn_layers(&mut self) -> Vec<&mut BatchNorm1d> {
        self.stabt.bn_layers_mut()
    }
}

/// Logit bits of one forward pass of `model` (training or inference mode).
fn logit_bits(model: &mut dyn CtrModel, batch: &Batch, training: bool) -> Vec<u32> {
    let bits = with_graph(|g| {
        if !training {
            g.set_inference(true);
        }
        let fwd = model.forward(g, batch, training);
        g.value(fwd.logits)
            .data()
            .iter()
            .map(|z| z.to_bits())
            .collect()
    });
    model.clear_journals();
    bits
}

/// Whether the replica reproduces `reference` (the library's model, loaded
/// from the same checkpoint) bit for bit: served probabilities and, when
/// `training`, training-mode logits.
pub fn matches(
    replica: &mut Replica,
    reference: &mut dyn CtrModel,
    batch: &Batch,
    training: bool,
) -> bool {
    let bits = |p: Vec<f32>| p.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    if bits(predict(replica, batch)) != bits(predict(reference, batch)) {
        return false;
    }
    !training || logit_bits(replica, batch, true) == logit_bits(reference, batch, true)
}
