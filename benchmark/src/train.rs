//! `train`: `train_step_checked` on 1024-row batches of the eleme-like log,
//! in seeded shuffle order, warm-started from the set-up checkpoint. The
//! only workload with backward and the optimizers. The host's speed is
//! sampled before every timed step and after the last.

use std::time::{Duration, Instant};

use basm_core::checkpoint::load_model_dir;
use basm_core::model::{predict, train_step_checked, CtrModel, StepOutcome};
use basm_data::{Batch, Dataset};
use basm_tensor::optim::{AdagradDecay, Optimizer};
use basm_tensor::with_graph;

use crate::host::HostSpeed;
use crate::layers::{module_breakdown, Layers, STAGES};
use crate::report::{peak_rss_mb, Report};
use crate::schedule::Rng;
use crate::setup::{self, fresh_model, RunDir};
use crate::stats::{median, windowed_rate, Digest};
use crate::trace::Tracer;
use crate::{Args, Run};

pub const NAME: &str = "train";

const BATCH: usize = 1024;
const WARMUP_STEPS: usize = 10;
/// The paper's post-warmup learning rate.
const LR: f32 = 0.012;
const CLIP: f64 = 10.0;
const TEST_ROWS: usize = 20_000;
/// A model that learned nothing scores 0.5; the benchmark's steps reach
/// about 0.7.
const MIN_AUC: f64 = 0.6;
const MODULE_BATCHES: usize = 4;
/// Steps per throughput window.
const RATE_WINDOW: usize = 10;

struct Trainer<'a> {
    ds: &'a Dataset,
    order: Vec<usize>,
    model: Box<dyn CtrModel>,
    opt: AdagradDecay,
    step: usize,
}

impl Trainer<'_> {
    fn batch(&self, step: usize) -> Batch {
        let n = self.order.len() / BATCH;
        let at = (step % n) * BATCH;
        self.ds.batch(&self.order[at..at + BATCH])
    }
}

fn check(out: &StepOutcome, step: usize) -> Result<(), String> {
    if out.applied && out.loss.is_finite() {
        Ok(())
    } else {
        Err(format!(
            "step {step} skipped (loss {}, grad norm {})",
            out.loss, out.grad_norm
        ))
    }
}

/// `train_step_checked`, stage for stage, with a span around each stage.
/// Must stay bitwise equal to the library's step (checked before use).
fn traced_step(
    model: &mut dyn CtrModel,
    batch: &Batch,
    opt: &mut dyn Optimizer,
    tr: &mut Tracer,
    unit: u64,
    parent: Option<usize>,
) -> StepOutcome {
    if !batch.labels.all_finite() {
        return StepOutcome {
            loss: f32::NAN,
            grad_norm: f64::NAN,
            applied: false,
        };
    }
    with_graph(|g| {
        let (fwd, loss) = tr.time("forward", unit, parent, || {
            let fwd = model.forward(g, batch, true);
            let labels = g.input(batch.labels.clone());
            let loss = g.bce_with_logits(fwd.logits, labels);
            (fwd, loss)
        });
        let _ = fwd;
        tr.time("backward", unit, parent, || g.backward(loss));
        let loss_val = g.value(loss).item();
        let (pre_norm, grad_norm) = tr.time("grad", unit, parent, || {
            let store = model.params();
            store.zero_grads();
            store.accumulate_grads(g);
            let pre = store.clip_grad_norm(CLIP);
            (pre, if pre > CLIP { CLIP } else { pre })
        });
        if !loss_val.is_finite() || !pre_norm.is_finite() {
            model.clear_journals();
            return StepOutcome {
                loss: loss_val,
                grad_norm: pre_norm,
                applied: false,
            };
        }
        tr.time("dense_update", unit, parent, || {
            opt.step(model.params(), LR)
        });
        tr.time("sparse_update", unit, parent, || {
            model.apply_sparse_grads(g, LR)
        });
        StepOutcome {
            loss: loss_val,
            grad_norm,
            applied: true,
        }
    })
}

/// Whether `traced_step` reproduces `train_step_checked`: two steps on two
/// models loaded from the same checkpoint, compared bit for bit.
fn traced_step_matches(t: &Trainer, ckpt: &std::path::Path) -> std::io::Result<bool> {
    let cfg = &t.ds.config;
    let (mut lib, mut ours) = (fresh_model(cfg), fresh_model(cfg));
    load_model_dir(lib.as_mut(), ckpt)?;
    load_model_dir(ours.as_mut(), ckpt)?;
    let (mut lib_opt, mut our_opt) = (AdagradDecay::paper_default(), AdagradDecay::paper_default());
    let mut off = Tracer::new(false);
    for step in 0..2 {
        let b = t.batch(step);
        let a = train_step_checked(lib.as_mut(), &b, &mut lib_opt, LR, Some(CLIP));
        let c = traced_step(ours.as_mut(), &b, &mut our_opt, &mut off, 0, None);
        if (a.loss.to_bits(), a.grad_norm.to_bits()) != (c.loss.to_bits(), c.grad_norm.to_bits()) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Held-out AUC on the first `TEST_ROWS` test rows, scored in 1024-row
/// chunks.
fn test_auc(model: &mut dyn CtrModel, ds: &Dataset) -> f64 {
    let test = ds.test_indices();
    let (mut scores, mut labels) = (Vec::new(), Vec::new());
    for chunk in test[..TEST_ROWS.min(test.len())].chunks(BATCH) {
        let b = ds.batch(chunk);
        scores.extend(predict(model, &b));
        labels.extend_from_slice(b.labels.data());
    }
    basm_metrics::auc::auc(&scores, &labels).unwrap_or(0.5)
}

pub fn run(
    args: &Args,
    rep: &mut Report,
    tr: &mut Tracer,
    host: &mut HostSpeed,
) -> Result<Run, String> {
    let io = |e: std::io::Error| format!("set-up: {e}");
    let run_dir = RunDir::new(&args.out, NAME, args.seed).map_err(io)?;
    let ((ds, model, ckpt, order), setup) = setup::repeated(host, |st| {
        let base = setup::base(&run_dir, true, st)?;
        let ds = base.dataset.expect("set-up generated the log");
        let t = Instant::now();
        let mut order = ds.train_indices();
        Rng::stream(args.seed, 8).shuffle(&mut order);
        st.workload = t.elapsed().as_secs_f64();
        Ok((ds, base.model, base.ckpt, order))
    })
    .map_err(io)?;
    let mut t = Trainer {
        ds: &ds,
        order,
        model,
        opt: AdagradDecay::paper_default(),
        step: 0,
    };
    let mut digest = Digest::new();
    let replay_ok = if tr.enabled() {
        traced_step_matches(&t, &ckpt).map_err(io)?
    } else {
        true
    };

    // The held-out AUC is taken after a fixed number of timed steps, so it
    // and the loss digest over the steps before it repeat for a seed; the
    // evaluation is not timed.
    let auc_after = ((3.0 * args.seconds) as usize).clamp(6, 60);
    let digested = WARMUP_STEPS + auc_after;
    let lib_step = |t: &mut Trainer, rep: &mut Report, digest: &mut Digest| {
        let b = t.batch(t.step);
        let out = train_step_checked(t.model.as_mut(), &b, &mut t.opt, LR, Some(CLIP));
        if t.step < digested {
            digest.word(u64::from(out.loss.to_bits()));
        }
        rep.op(check(&out, t.step));
        t.step += 1;
    };
    for _ in 0..WARMUP_STEPS {
        lib_step(&mut t, rep, &mut digest);
    }

    let mut auc = None;
    let pool_before = basm_tensor::bufpool::stats();
    let mut step_ms = Vec::new();
    let mut mids = Vec::new();
    let mut traced_ms = Vec::new();
    let mut busy = Duration::ZERO;
    let mut timed = 0usize;
    let mut batches = Vec::new();
    while busy.as_secs_f64() < args.seconds || timed < auc_after {
        let unit = t.step as u64;
        let traced = tr.enabled() && timed % 2 == 1;
        host.sample();
        let t0 = Instant::now();
        if traced {
            let root = tr.open("step", unit, None);
            let b = tr.time("assemble", unit, root, || t.batch(t.step));
            let out = traced_step(t.model.as_mut(), &b, &mut t.opt, tr, unit, root);
            tr.close(root);
            rep.op(check(&out, t.step));
            t.step += 1;
            if batches.len() < MODULE_BATCHES {
                batches.push(b);
            }
        } else {
            lib_step(&mut t, rep, &mut digest);
        }
        let took = t0.elapsed();
        busy += took;
        if traced {
            traced_ms.push(took.as_secs_f64() * 1e3);
        } else {
            step_ms.push(took.as_secs_f64() * 1e3);
            mids.push(t0 + took / 2);
        }
        timed += 1;
        if timed == auc_after {
            let a = test_auc(t.model.as_mut(), &ds);
            digest.word(a.to_bits());
            auc = Some(a);
        }
    }
    host.sample();
    let pool_after = basm_tensor::bufpool::stats();
    let peak_rss_mb = peak_rss_mb();

    let auc = auc.unwrap_or(0.0);
    if auc < MIN_AUC {
        rep.fail(format!(
            "held-out AUC {auc:.4} after {auc_after} steps is below {MIN_AUC}"
        ));
    }
    rep.digest(digest.value());
    rep.info("steps.timed", timed as f64, "count");
    rep.info("auc", auc, "ratio");
    rep.info("auc.after_steps", digested as f64, "count");

    let step_s: Vec<f64> = step_ms.iter().map(|ms| ms / 1e3).collect();
    let normalised_s: Vec<f64> = step_s
        .iter()
        .zip(&mids)
        .map(|(s, &mid)| s * host.factor(mid))
        .collect();
    let examples = vec![BATCH as f64; step_s.len()];
    let mut layers = Layers::default();
    if tr.enabled() {
        layers.unit_ms = median(&traced_ms).unwrap_or(0.0);
        layers.unit_mean_us = tr.mean_per_unit_us("step");
        for (k, name) in STAGES.iter().enumerate() {
            layers.stage_us[k] = tr.mean_per_unit_us(name);
        }
        layers.rows_per_unit = BATCH as f64;
        // step, assemble and five stage spans, on every other step.
        layers.spans_per_unit = 7.0 / 2.0;
        let backward = tr.mean_per_unit_us("backward");
        layers.modules = module_breakdown(&ds.config, &ckpt, &batches, true, backward, tr)
            .map_err(io)?
            .map(|mut m| {
                m.matches &= replay_ok;
                m
            });
    }
    Ok(Run {
        setup,
        latency_ms: step_ms,
        normalised_ms: normalised_s.iter().map(|s| s * 1e3).collect(),
        window: vec![0; step_s.len()],
        throughput: windowed_rate(&examples, &step_s, RATE_WINDOW),
        normalised_throughput: windowed_rate(&examples, &normalised_s, RATE_WINDOW),
        pool: (pool_before, pool_after),
        peak_rss_mb,
        layers,
    })
}
