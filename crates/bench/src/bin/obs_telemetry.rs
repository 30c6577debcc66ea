//! **OBS_telemetry**: exercise the observability layer end to end.
//!
//! Runs a full offline training run (the paper's protocol on the
//! `BASM_FAST`-selected dataset) with the trainer's per-step JSONL log
//! attached, then pushes a batch of LBS-recalled serving requests through
//! `score_sessions`, and dumps the merged span / counter / histogram report.
//!
//! Artifacts (under `BASM_OUT`, default `results/`):
//!
//! * `train_log.jsonl` — one JSON object per optimization step (step, epoch,
//!   loss, lr, grad norm, examples/sec) plus a final `"event": "summary"`
//!   line; see EXPERIMENTS.md for how to read it.
//! * `OBS_telemetry.json` — per-op span table, pool occupancy counters,
//!   the buffer pool's reuse/miss totals (`pool.buffer_*` gauges) and
//!   serving latency histograms (p50/p90/p99).
//! * `OBS_telemetry.txt` — the same report, human-readable.
//!
//! The binary turns telemetry on itself.

use basm_baselines::build_model;
use basm_bench::BenchEnv;
use basm_data::{Context, StatCounters, TimePeriod};
use basm_serving::{score_sessions, LbsRecall, SessionRequest};
use basm_tensor::{bufpool, Prng};
use basm_trainer::{train_and_evaluate, TrainConfig, TRAIN_LOG_STREAM};

fn main() {
    let env = BenchEnv::from_env();
    basm_obs::set_enabled(true);
    basm_obs::reset();

    // ---- offline training with the per-step log attached ----------------
    let data = env.eleme();
    let ds = &data.dataset;
    let log_path = basm_bench::artifact_path(&env, "train_log.jsonl");
    basm_obs::jsonl::open_stream(TRAIN_LOG_STREAM, &log_path).expect("open train log");
    let mut model = build_model("BASM", &ds.config, env.seeds[0]);
    let tc = TrainConfig::default_for(ds, env.epochs, env.batch, env.seeds[0]);
    let outcome = train_and_evaluate(model.as_mut(), ds, &tc);
    if let Some(path) = basm_obs::jsonl::close_stream(TRAIN_LOG_STREAM) {
        eprintln!("[artifact] {}", path.display());
    }
    eprintln!(
        "[obs_telemetry] {}: AUC {:.4}, {} steps in {:.1}s",
        outcome.model, outcome.report.auc, outcome.steps, outcome.train_secs
    );

    // ---- serving latency distributions ----------------------------------
    let world = &data.world;
    let recall = LbsRecall::build(world);
    let counters = StatCounters::new(world.config.n_users, world.config.n_items);
    let mut rng = Prng::seeded(7);
    let n_requests = if env.fast { 64 } else { 256 };
    let requests: Vec<SessionRequest> = (0..n_requests)
        .map(|i| {
            let uid = i % world.users.len();
            let user = &world.users[uid];
            let ctx = Context {
                day: 0,
                hour: 19,
                tp: TimePeriod::Dinner,
                city: user.city,
                geo: user.geo,
                position: 0,
            };
            let candidates = recall.candidates(user.city, user.geo, 30, &mut rng);
            SessionRequest { uid, candidates, ctx, history: Default::default() }
        })
        .collect();
    let make_model = || build_model("BASM", &world.config, env.seeds[0]);
    let scores = score_sessions(make_model, world, &requests, &counters);
    eprintln!("[obs_telemetry] scored {} sessions", scores.len());

    // ---- report ----------------------------------------------------------
    // The pool counts its traffic in its own atomics; publish the totals once.
    let pool = bufpool::stats();
    basm_obs::gauge_max("pool.buffer_reuse", pool.reuse);
    basm_obs::gauge_max("pool.buffer_miss", pool.miss);
    let report = basm_obs::report();
    env.write("OBS_telemetry.txt", &report.to_table());
    env.write("OBS_telemetry.json", &report.to_json());
}
