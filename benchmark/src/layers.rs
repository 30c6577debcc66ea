//! Per-layer results of a traced run. Every workload fills the same record,
//! so every per-layer metric is printed for every workload: a stage a
//! workload never reaches has a share of 0.

use basm_core::checkpoint::load_model_dir;
use basm_data::{Batch, WorldConfig};

use crate::replica::{self, Replica, BACKWARD, MODULES};
use crate::report::Report;
use crate::setup::{fresh_model, stage_median, Stages};
use crate::trace::Tracer;

/// Stages a unit of work (request, microbatch pass, training step) is split
/// into. `share.other` is what none of them covers.
pub const STAGES: [&str; 9] = [
    "queue_wait",
    "recall",
    "feature_fetch",
    "assemble",
    "forward",
    "backward",
    "grad",
    "dense_update",
    "sparse_update",
];

#[derive(Default)]
pub struct Layers {
    /// Median traced duration of one unit.
    pub unit_ms: f64,
    /// Mean duration of one unit, the denominator of every share.
    pub unit_mean_us: f64,
    /// Mean microseconds per unit spent in each of [`STAGES`].
    pub stage_us: [f64; 9],
    /// Probed work on the path that no stage names (ranking), microseconds
    /// per unit; counted as attributed by the closure check.
    pub probed_other_us: f64,
    pub rows_per_unit: f64,
    /// Spans recorded per unit, for the tracing-overhead estimate.
    pub spans_per_unit: f64,
    pub modules: Option<ModuleBreakdown>,
    pub repeat_key_share: f64,
}

/// BASM module timings from the replica.
pub struct ModuleBreakdown {
    pub matches: bool,
    pub fwd_us_per_row: [f64; 5],
    pub unattributed_share: f64,
    /// Each module's isolated backward over the full training backward
    /// (training only; zero elsewhere). Indexed like `MODULES`.
    pub bwd_share: [f64; 5],
}

impl Layers {
    fn stage(&self, name: &str) -> f64 {
        STAGES
            .iter()
            .position(|s| *s == name)
            .map_or(0.0, |i| self.stage_us[i])
    }

    /// Print every per-layer metric.
    pub fn emit(&self, rep: &mut Report, setup: &[Stages], bufpool_reuse: f64, span_cost_ns: f64) {
        rep.metric("data.generate_s", stage_median(setup, |s| s.generate), "s");
        rep.metric(
            "model.build_ms",
            stage_median(setup, |s| s.build) * 1e3,
            "ms",
        );
        rep.metric(
            "checkpoint.save_ms",
            stage_median(setup, |s| s.save) * 1e3,
            "ms",
        );
        rep.metric(
            "checkpoint.load_ms",
            stage_median(setup, |s| s.load) * 1e3,
            "ms",
        );
        rep.metric(
            "workload.setup_ms",
            stage_median(setup, |s| s.workload) * 1e3,
            "ms",
        );

        rep.metric("unit.traced_ms", self.unit_ms, "ms");
        rep.info("unit.rows", self.rows_per_unit, "count");
        let denom = self.unit_mean_us.max(f64::MIN_POSITIVE);
        let mut attributed = 0.0;
        for (name, us) in STAGES.iter().zip(self.stage_us) {
            rep.metric(&format!("share.{name}"), us / denom, "ratio");
            attributed += us;
        }
        rep.metric("share.other", 1.0 - attributed / denom, "ratio");
        let closure = ((self.unit_mean_us - attributed - self.probed_other_us) / denom).abs();
        rep.metric("trace.closure_error", closure, "ratio");
        rep.metric(
            "trace.overhead_share",
            self.spans_per_unit * span_cost_ns / 1e3 / denom,
            "ratio",
        );

        let rows = self.rows_per_unit.max(1.0);
        rep.metric(
            "batch.assemble_us_per_row",
            self.stage("assemble") / rows,
            "us",
        );
        rep.metric(
            "model.forward_us_per_row",
            self.stage("forward") / rows,
            "us",
        );
        let m = self.modules.as_ref();
        for (i, name) in MODULES.iter().enumerate() {
            rep.metric(
                &format!("{name}.fwd_us_per_row"),
                m.map_or(0.0, |m| m.fwd_us_per_row[i]),
                "us",
            );
        }
        rep.metric(
            "basm.unattributed_share",
            m.map_or(0.0, |m| m.unattributed_share),
            "ratio",
        );
        rep.metric(
            "basm.replica_match",
            m.map_or(0.0, |m| f64::from(u8::from(m.matches))),
            "count",
        );
        for (i, name) in MODULES.iter().enumerate().skip(1) {
            rep.metric(
                &format!("{name}.bwd_share"),
                m.map_or(0.0, |m| m.bwd_share[i]),
                "ratio",
            );
        }

        rep.metric("bufpool.reuse_ratio", bufpool_reuse, "ratio");
        rep.metric("workload.repeat_key_share", self.repeat_key_share, "ratio");
    }
}

/// Run the replica over batches the workload produced and break each
/// forward pass into modules. With `training`, the replica runs in training
/// mode and the first two batches also time each module's backward, as a
/// share of `full_backward_us` (the traced training backward per step).
pub fn module_breakdown(
    cfg: &WorldConfig,
    ckpt: &std::path::Path,
    batches: &[Batch],
    training: bool,
    full_backward_us: f64,
    tr: &mut Tracer,
) -> std::io::Result<Option<ModuleBreakdown>> {
    let Some(first) = batches.first() else {
        return Ok(None);
    };
    let mut replica = Replica::new(cfg);
    load_model_dir(&mut replica, ckpt)?;
    let mut reference = fresh_model(cfg);
    load_model_dir(reference.as_mut(), ckpt)?;
    let matches = replica::matches(&mut replica, reference.as_mut(), first, training);
    drop(reference);

    let (mut module_ns, mut root_ns, mut rows) = ([0u64; 5], 0u64, 0usize);
    let mut bwd_ns = [0u64; 5];
    let mut bwd_reps = 0u32;
    for (i, batch) in batches.iter().enumerate() {
        let unit = 1_000_000 + i as u64;
        replica.capture = training && i < 2;
        let (t0, t1) = replica.timed_forward(batch, training);
        let root = tr.record("basm.forward", unit, None, t0, t1);
        root_ns += (t1 - t0).as_nanos() as u64;
        rows += batch.size;
        for &(name, a, b) in &replica.marks {
            tr.record(name, unit, root, a, b);
            let k = MODULES
                .iter()
                .position(|m| *m == name)
                .expect("known module");
            module_ns[k] += (b - a).as_nanos() as u64;
        }
        if let Some(cap) = replica.captured.take() {
            let bwd = tr.open("basm.isolated_backward", unit, None);
            for (name, a, b) in replica.isolated_backward(&cap, batch.seq_len) {
                tr.record(name, unit, bwd, a, b);
                let k = BACKWARD
                    .iter()
                    .position(|m| *m == name)
                    .expect("known module");
                bwd_ns[k] += (b - a).as_nanos() as u64;
            }
            tr.close(bwd);
            bwd_reps += 1;
        }
    }
    let per_row = |ns: u64| ns as f64 / 1e3 / rows.max(1) as f64;
    let mut fwd_us_per_row = [0.0; 5];
    for k in 0..5 {
        fwd_us_per_row[k] = per_row(module_ns[k]);
    }
    let covered: u64 = module_ns.iter().sum();
    let mut bwd_share = [0.0; 5];
    if bwd_reps > 0 && full_backward_us > 0.0 {
        for k in 1..5 {
            bwd_share[k] = bwd_ns[k] as f64 / 1e3 / f64::from(bwd_reps) / full_backward_us;
        }
    }
    Ok(Some(ModuleBreakdown {
        matches,
        fwd_us_per_row,
        unattributed_share: (root_ns - covered.min(root_ns)) as f64 / root_ns.max(1) as f64,
        bwd_share,
    }))
}
