//! **BENCH_obs_overhead**: measure what the telemetry layer costs.
//!
//! Times one BASM training pass with telemetry off (the default: every hook
//! is one relaxed load and an untaken branch) and on, alternating the arms
//! pass by pass (`basm_bench::timing`). Writes `BENCH_obs_overhead.json`:
//! the median over pairs of `(on - off) / off` with its quartiles. Policy
//! (DESIGN.md §7): < 3% with telemetry on, on the paper-scale workload;
//! `BASM_FAST=1` (tiny world) is a plumbing smoke check only.

use basm_baselines::build_model;
use basm_bench::timing::{self, ModeStat};
use basm_bench::BenchEnv;
use basm_data::{generate_dataset, WorldConfig};
use basm_trainer::{train, TrainConfig};
use serde::Serialize;
use std::cell::Cell;

/// Interleaved off/on pairs.
const PAIRS: usize = 10;

#[derive(Serialize)]
struct ObsOverheadBench {
    /// Training steps per pass.
    steps: u64,
    /// Wall seconds per pass with telemetry off.
    obs_off: ModeStat,
    /// Wall seconds per pass with telemetry on.
    obs_on: ModeStat,
    /// Median over pairs of `(on - off) / off`, percent.
    overhead_pct: f64,
    /// First and third quartiles of the per-pair overhead, percent.
    overhead_q1_pct: f64,
    overhead_q3_pct: f64,
    note: String,
}

fn main() {
    let env = BenchEnv::from_env();
    let data = generate_dataset(&if env.fast {
        WorldConfig::tiny()
    } else {
        WorldConfig::eleme_like()
    });
    let ds = &data.dataset;
    let tc = TrainConfig::default_for(ds, 1, env.batch, 1);
    let steps = Cell::new(0);
    let pass = |on: bool| {
        basm_obs::set_enabled(on);
        basm_obs::reset();
        let mut model = build_model("BASM", &ds.config, 1);
        steps.set(train(model.as_mut(), ds, &tc).0);
    };
    // Warm-up pass of each arm: the first training run pays one-time costs
    // (page faults, allocator growth) that would bias its pair.
    pass(false);
    pass(true);
    let (off, on) = timing::interleave_samples(PAIRS, || pass(false), || pass(true));
    basm_obs::set_enabled(false);

    let ratios = off.iter().zip(&on).map(|(f, n)| 100.0 * (n - f) / f).collect();
    let [q1, median, q3] = timing::quartiles(ratios);
    let result = ObsOverheadBench {
        steps: steps.get(),
        obs_off: ModeStat::from_samples("off", off),
        obs_on: ModeStat::from_samples("on", on),
        overhead_pct: median,
        overhead_q1_pct: q1,
        overhead_q3_pct: q3,
        note: if env.fast {
            "BASM_FAST=1: tiny world; plumbing smoke check, not the policy measurement".into()
        } else {
            format!(
                "{PAIRS} interleaved off/on pairs of one training pass; the arms differ only \
                 in the runtime switch (basm_obs::set_enabled)"
            )
        },
    };
    println!(
        "obs overhead over {PAIRS} pairs of {} steps: median {:+.2}% \
         (quartiles {:+.2}% .. {:+.2}%), off median {:.3}s, on median {:.3}s",
        result.steps,
        result.overhead_pct,
        result.overhead_q1_pct,
        result.overhead_q3_pct,
        result.obs_off.median_secs,
        result.obs_on.median_secs,
    );
    env.write_json("BENCH_obs_overhead.json", &result);
}
