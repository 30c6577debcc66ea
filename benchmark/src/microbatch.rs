//! `microbatch`: the batched front-end (`run_load`) draining one coalesced
//! microbatch per call. Each call's schedule is the requests that arrive at
//! λ = 4500/s while the previous pass is in service: a Poisson count with
//! mean 28, capped at the front-end's batch bound of 32, all due at once.
//! So every call is one model pass of about 840 rows, and its wall time is
//! the pass's latency.
//!
//! The front-end's cost model is pinned here, so batch composition does not
//! move when `CostModel::default()` is refitted. The host's speed is sampled
//! before every pass and after the last.

use std::time::Instant;

use basm_core::checkpoint::load_model_dir;
use basm_core::model::CtrModel;
use basm_data::World;
use basm_serving::{
    run_load, Arrival, CostModel, FrontendConfig, LbsRecall, LoadOutcome, ServingPipeline,
};

use crate::host::HostSpeed;
use crate::layers::{module_breakdown, Layers, STAGES};
use crate::probe::{self, POOL, TOP_K};
use crate::rank::{self, Ranked};
use crate::report::{peak_rss_mb, Report};
use crate::schedule::{repeat_key_share, KeyEvent, Rng};
use crate::setup::{self, fresh_model, seed_histories, RunDir};
use crate::stats::{mean, median, windowed_rate, Digest};
use crate::trace::Tracer;
use crate::{Args, Run};

pub const NAME: &str = "microbatch";

/// Arrivals per service interval at λ = 4500/s.
const MEAN_BATCH: f64 = 28.0;
const MAX_BATCH: usize = 32;
/// Arrivals whose coalesced and sequential results must agree bitwise.
const AGREE_ARRIVALS: usize = 1000;
const MIN_MEAN_BATCH: f64 = 24.0;
const MODULE_BATCHES: usize = 8;
/// Passes per throughput window.
const RATE_WINDOW: usize = 20;
/// Untimed passes before the measured phase.
const WARMUP_PASSES: usize = 10;

fn frontend(coalesce: bool) -> FrontendConfig {
    FrontendConfig {
        queue_capacity: 256,
        max_batch: MAX_BATCH,
        coalesce,
        cost: CostModel {
            assemble_ns: 10_000,
            batch_ns: 5_000_000,
            row_ns: 1_000,
            prior_ns: 10_000,
        },
    }
}

fn pipeline(world: &World, model: Box<dyn CtrModel>, seed: u64) -> ServingPipeline {
    let pipe = ServingPipeline::new(world, model, POOL, TOP_K);
    seed_histories(world, &pipe.features, &mut Rng::stream(seed, 2));
    pipe
}

/// The next pass's arrivals: uniform users at hours drawn from the world's
/// hour curve, each with its own recall seed.
fn next_pass(rng: &mut Rng, world: &World, day: u16) -> Vec<Arrival> {
    let n = rng.poisson(MEAN_BATCH).clamp(1, MAX_BATCH);
    pass_of(n, rng, world, day)
}

fn pass_of(n: usize, rng: &mut Rng, world: &World, day: u16) -> Vec<Arrival> {
    (0..n)
        .map(|_| {
            let uid = rng.below(world.users.len());
            Arrival {
                t_ns: 0,
                uid,
                day,
                hour: rng.weighted(&world.hour_weights) as u8,
                geo: world.users[uid].geo,
                seed: rng.next_u64(),
            }
        })
        .collect()
}

/// Everything one pass must satisfy: one batch, no sheds, every request
/// served by the model with a full, ordered, finite top-k.
fn check(out: &LoadOutcome, n: usize) -> Result<(), String> {
    let s = &out.summary;
    if s.completed != n || s.model_served != n || s.batches != 1 {
        return Err(format!(
            "{n} arrivals: completed {}, model-served {}, batches {}",
            s.completed, s.model_served, s.batches
        ));
    }
    if s.shed_queue_full + s.deadline_shed + s.fault_shed + s.rejected != 0 {
        return Err(format!("sheds or rejects in a pass: {s:?}"));
    }
    for c in &out.completed {
        rank::check_top_k(&c.exposures, TOP_K)
            .map_err(|e| format!("arrival {}: {e}", c.arrival))?;
    }
    Ok(())
}

fn ranked(out: &LoadOutcome) -> Vec<Vec<Ranked>> {
    out.completed
        .iter()
        .map(|c| rank::ranked(&c.exposures))
        .collect()
}

pub fn run(
    args: &Args,
    rep: &mut Report,
    tr: &mut Tracer,
    host: &mut HostSpeed,
) -> Result<Run, String> {
    let io = |e: std::io::Error| format!("set-up: {e}");
    let run_dir = RunDir::new(&args.out, NAME, args.seed).map_err(io)?;
    let ((world, mut pipe, ckpt), setup) = setup::repeated(host, |st| {
        let base = setup::base(&run_dir, false, st)?;
        let t = std::time::Instant::now();
        let pipe = pipeline(&base.world, base.model, args.seed);
        st.workload = t.elapsed().as_secs_f64();
        Ok((base.world, pipe, base.ckpt))
    })
    .map_err(io)?;
    let day = (world.config.train_days + world.config.test_days) as u16;
    let recall = LbsRecall::build(&world);
    let mut passes = Rng::stream(args.seed, 9);
    // Warmup: one pass of every size, smallest first, then ordinary passes.
    // Without the ramp, peak RSS depended on the order in which the seed's
    // pass sizes first arrived (~112 or ~120 MB).
    for k in 0..MAX_BATCH + WARMUP_PASSES {
        let pass = match k {
            k if k < MAX_BATCH => pass_of(k + 1, &mut passes, &world, day),
            _ => next_pass(&mut passes, &world, day),
        };
        let out = run_load(&mut pipe, &world, &pass, &frontend(true));
        rep.op(check(&out, pass.len()));
    }

    let pool_before = basm_tensor::bufpool::stats();
    let mut pass_ms = Vec::new();
    let mut mids = Vec::new();
    let mut sizes = Vec::new();
    let mut batches = Vec::new();
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut unit = 0u64;
    while Instant::now() < t_end {
        let pass = next_pass(&mut passes, &world, day);
        // A traced run re-derives every other pass through the public
        // stages first; those passes run warm, so only the others time it.
        let probed = tr.enabled() && unit % 2 == 1;
        let probe_out = probed.then(|| {
            let p = tr.open("probe", unit, None);
            let out = probe::rederive(&mut pipe, &recall, &world, &pass, tr, unit, p);
            tr.close(p);
            out
        });
        host.sample();
        let t0 = Instant::now();
        let out = run_load(&mut pipe, &world, &pass, &frontend(true));
        let t1 = Instant::now();
        tr.record(
            if probed { "pass.probed" } else { "pass" },
            unit,
            None,
            t0,
            t1,
        );
        let mut outcome = check(&out, pass.len());
        if let Some((top, batch)) = probe_out {
            if outcome.is_ok() && top != ranked(&out) {
                outcome = Err("run_load top-k differs from the re-derived one".into());
            }
            if batches.len() < MODULE_BATCHES {
                batches.push(batch);
            }
        } else {
            pass_ms.push((t1 - t0).as_secs_f64() * 1e3);
            mids.push(t0 + (t1 - t0) / 2);
            sizes.push(pass.len() as f64);
        }
        rep.op(outcome);
        unit += 1;
    }
    host.sample();
    let pool_after = basm_tensor::bufpool::stats();
    let peak_rss_mb = peak_rss_mb();
    drop(pipe);

    // Coalesced and sequential execution of the same passes must agree
    // bitwise, on two fresh pipelines. This runs after the measured phase so
    // that their memory is not in `peak_rss_mb`.
    let fresh = || -> std::io::Result<ServingPipeline> {
        let mut model = fresh_model(&world.config);
        load_model_dir(model.as_mut(), &ckpt)?;
        Ok(pipeline(&world, model, args.seed))
    };
    let (mut coalesced, mut sequential) = (fresh().map_err(io)?, fresh().map_err(io)?);
    let mut agreement = Rng::stream(args.seed, 7);
    let mut keys = Vec::new();
    let mut digest = Digest::new();
    let agree = AGREE_ARRIVALS.min((50.0 * args.seconds) as usize);
    let (mut arrivals, mut passes_agreed) = (0, 0);
    while arrivals < agree {
        let pass = next_pass(&mut agreement, &world, day);
        keys.extend(pass.iter().map(|a| KeyEvent::Request {
            uid: a.uid as u32,
            geo: a.geo,
            hour: a.hour,
        }));
        arrivals += pass.len();
        passes_agreed += 1;
        let out = run_load(&mut coalesced, &world, &pass, &frontend(true));
        let seq = run_load(&mut sequential, &world, &pass, &frontend(false));
        let got = ranked(&out);
        got.iter().for_each(|r| digest.ranked(r));
        let agreed = if got == ranked(&seq) {
            Ok(())
        } else {
            Err("coalesced and sequential passes disagree".to_string())
        };
        rep.op(check(&out, pass.len()).and(agreed));
    }
    drop((coalesced, sequential));
    // Batch composition and key reuse over the passes a seed fixes.
    let mean_batch = arrivals as f64 / passes_agreed as f64;
    let repeat = repeat_key_share(&keys);

    let pass_s: Vec<f64> = pass_ms.iter().map(|ms| ms / 1e3).collect();
    let normalised_s: Vec<f64> = pass_s
        .iter()
        .zip(&mids)
        .map(|(s, &mid)| s * host.factor(mid))
        .collect();
    if mean_batch < MIN_MEAN_BATCH {
        rep.fail(format!(
            "mean batch {mean_batch:.1} is below {MIN_MEAN_BATCH}"
        ));
    }
    rep.digest(digest.value());
    rep.info("passes.agreement", agree as f64, "count");
    rep.info("passes.timed", pass_ms.len() as f64, "count");
    rep.info("frontend.mean_batch", mean_batch, "count");
    rep.info("workload.repeat_key_share", repeat, "ratio");

    let mut layers = Layers::default();
    if tr.enabled() {
        layers.unit_ms = median(&pass_ms).unwrap_or(0.0);
        layers.unit_mean_us = mean(&pass_ms) * 1e3;
        for (k, name) in STAGES.iter().enumerate() {
            layers.stage_us[k] = tr.mean_per_unit_us(name);
        }
        layers.probed_other_us = tr.mean_per_unit_us("rank");
        layers.rows_per_unit = mean(&sizes) * POOL as f64;
        // pass, plus a probe's spans (two per request, four per pass) on
        // every other pass.
        layers.spans_per_unit = 1.0 + (2.0 * mean(&sizes) + 5.0) / 2.0;
        layers.modules =
            module_breakdown(&world.config, &ckpt, &batches, false, 0.0, tr).map_err(io)?;
        layers.repeat_key_share = repeat;
    }
    Ok(Run {
        setup,
        latency_ms: pass_ms,
        normalised_ms: normalised_s.iter().map(|s| s * 1e3).collect(),
        window: vec![0; pass_s.len()],
        throughput: windowed_rate(&sizes, &pass_s, RATE_WINDOW),
        normalised_throughput: windowed_rate(&sizes, &normalised_s, RATE_WINDOW),
        pool: (pool_before, pool_after),
        peak_rss_mb,
        layers,
    })
}
