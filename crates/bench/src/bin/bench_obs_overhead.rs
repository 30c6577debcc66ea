//! **BENCH_obs_overhead**: measure what the telemetry layer costs.
//!
//! Times the same block of training steps three ways:
//!
//! * `obs_off` — telemetry off (`basm_obs::set_enabled(false)`, the
//!   default): every hook is one relaxed atomic load and an untaken branch.
//! * `obs_on` — spans/counters/histograms recording.
//! * `obs_on_jsonl` — recording plus the per-step JSONL training log.
//!
//! Writes `BENCH_obs_overhead.json` with the measured overhead percentages.
//! Policy (DESIGN.md §7): < 3% with telemetry on, on the paper-scale
//! workload. Two noise controls: the three
//! modes are interleaved within every repetition (so slow machine drift
//! hits all of them equally) and the artifact records best-of-`reps` wall
//! times. `BASM_FAST=1` switches to the tiny world, where per-op work is so
//! small that the fixed per-span cost is proportionally inflated — fast-mode
//! numbers are smoke-test plumbing checks, not the policy measurement.

use basm_baselines::build_model;
use basm_bench::BenchEnv;
use basm_data::{generate_dataset, WorldConfig};
use basm_trainer::{close_train_log, open_train_log, train, TrainConfig};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ObsOverheadBench {
    /// Training steps timed per measurement.
    steps: u64,
    /// Best-of-reps wall seconds with telemetry runtime-off.
    obs_off_secs: f64,
    /// Best-of-reps wall seconds with spans/counters/histograms on.
    obs_on_secs: f64,
    /// Best-of-reps wall seconds with recording + per-step JSONL log.
    obs_on_jsonl_secs: f64,
    /// `(on - off) / off`, percent.
    overhead_pct: f64,
    /// `(on_jsonl - off) / off`, percent.
    overhead_jsonl_pct: f64,
    note: String,
}

/// One full `train()` pass; returns (steps, wall seconds).
fn timed_train(ds: &basm_data::Dataset, epochs: usize, batch: usize) -> (u64, f64) {
    let mut model = build_model("BASM", &ds.config, 1);
    let tc = TrainConfig::default_for(ds, epochs, batch, 1);
    let t0 = Instant::now();
    let (steps, _) = train(model.as_mut(), ds, &tc);
    (steps, t0.elapsed().as_secs_f64())
}

fn main() {
    let env = BenchEnv::from_env();
    let data = generate_dataset(&if env.fast {
        WorldConfig::tiny()
    } else {
        WorldConfig::eleme_like()
    });
    let ds = &data.dataset;
    let (epochs, reps) = if env.fast { (1, 3) } else { (1, 4) };
    let log_path = basm_bench::artifact_path(&env, "BENCH_obs_overhead_train_log.jsonl");

    let mut steps = 0;
    let (mut obs_off_secs, mut obs_on_secs, mut obs_on_jsonl_secs) =
        (f64::MAX, f64::MAX, f64::MAX);
    for rep in 0..reps {
        // Warm-up pass: the first training run pays one-time costs (page
        // faults, allocator growth) that would otherwise bias whichever
        // mode happens to run first.
        basm_obs::set_enabled(false);
        if rep == 0 {
            timed_train(ds, epochs, env.batch);
        }
        let (s, off) = timed_train(ds, epochs, env.batch);
        steps = s;
        obs_off_secs = obs_off_secs.min(off);

        basm_obs::set_enabled(true);
        basm_obs::reset();
        let (_, on) = timed_train(ds, epochs, env.batch);
        obs_on_secs = obs_on_secs.min(on);

        open_train_log(&log_path).expect("open train log");
        let (_, on_jsonl) = timed_train(ds, epochs, env.batch);
        close_train_log();
        obs_on_jsonl_secs = obs_on_jsonl_secs.min(on_jsonl);
    }
    basm_obs::set_enabled(false);
    // The throwaway per-step log only exists to price JSONL emission.
    let _ = std::fs::remove_file(&log_path);

    let pct = |on: f64| 100.0 * (on - obs_off_secs) / obs_off_secs;
    let result = ObsOverheadBench {
        steps,
        obs_off_secs,
        obs_on_secs,
        obs_on_jsonl_secs,
        overhead_pct: pct(obs_on_secs),
        overhead_jsonl_pct: pct(obs_on_jsonl_secs),
        note: if env.fast {
            "BASM_FAST=1: tiny world inflates per-span cost; \
             plumbing smoke check, not the policy measurement"
                .into()
        } else {
            "off/on differ only in the runtime switch (basm_obs::set_enabled)".into()
        },
    };
    println!(
        "obs overhead: off {:.3}s, on {:.3}s ({:+.2}%), on+jsonl {:.3}s ({:+.2}%) over {} steps",
        result.obs_off_secs,
        result.obs_on_secs,
        result.overhead_pct,
        result.obs_on_jsonl_secs,
        result.overhead_jsonl_pct,
        result.steps,
    );
    env.write_json("BENCH_obs_overhead.json", &result);
}
