//! **OBS_telemetry**: exercise the observability layer end to end.
//!
//! Three phases, each reported on its own: `train` (the paper's offline
//! protocol on the `BASM_FAST`-selected dataset, with the trainer's
//! per-step JSONL log open), `evaluate` (the test day, at the training
//! batch size) and `serve` (LBS-recalled 30-candidate sessions through
//! `score_sessions`). Each phase's report holds its BASM module spans
//! (`basm.<module>.fwd` / `.bwd`, with µs per row), its trainer or serving
//! spans and histograms, and its buffer-pool traffic.
//!
//! Artifacts (under `BASM_OUT`, default `results/`):
//!
//! * `train_log.jsonl` — one JSON object per optimization step (step, epoch,
//!   loss, lr, grad norm, examples/sec) plus a final `"event":"summary"`
//!   line; see EXPERIMENTS.md for how to read it.
//! * `OBS_telemetry.json` — per phase: the span table, counters, gauges
//!   (`graph.peak_bytes`, the phase's buffer-pool reuse/miss as
//!   `pool.buffer_*`) and latency histograms (p50/p90/p99).
//! * `OBS_telemetry.txt` — the same reports, human-readable.
//!
//! The binary turns telemetry on itself.

use basm_baselines::build_model;
use basm_bench::BenchEnv;
use basm_data::{Context, StatCounters, TimePeriod};
use basm_serving::{score_sessions, LbsRecall, SessionRequest};
use basm_tensor::{bufpool, Prng};
use basm_trainer::{close_train_log, evaluate, open_train_log, train, TrainConfig};
use serde::{Serialize, Value};

/// One phase's [`basm_obs::Report`] rows, section by section;
/// `OBS_telemetry.json` is the list of phases.
#[derive(Serialize)]
struct Phase {
    phase: String,
    spans: Vec<SpanJson>,
    counters: Vec<NamedValue>,
    gauges: Vec<NamedValue>,
    histograms: Vec<HistJson>,
}

#[derive(Serialize)]
struct SpanJson {
    name: String,
    calls: u64,
    total_ns: u64,
    mean_ns: f64,
    max_ns: u64,
    /// Per-dimension value sums, keyed by dimension name.
    dims: Value,
}

#[derive(Serialize)]
struct NamedValue {
    name: String,
    value: u64,
}

#[derive(Serialize)]
struct HistJson {
    name: String,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    mean: f64,
    p50: u64,
    p90: u64,
    p99: u64,
}

impl Phase {
    fn from_report(phase: &str, r: &basm_obs::Report) -> Self {
        let named = |rows: &[(String, u64)]| {
            rows.iter()
                .map(|(name, value)| NamedValue { name: name.clone(), value: *value })
                .collect()
        };
        Self {
            phase: phase.to_string(),
            spans: r
                .spans
                .iter()
                .map(|s| SpanJson {
                    name: s.name.clone(),
                    calls: s.calls,
                    total_ns: s.total_ns,
                    mean_ns: s.mean_ns,
                    max_ns: s.max_ns,
                    dims: Value::Object(
                        s.dims.iter().map(|(n, v)| (n.clone(), v.to_json_value())).collect(),
                    ),
                })
                .collect(),
            counters: named(&r.counters),
            gauges: named(&r.gauges),
            histograms: r
                .hists
                .iter()
                .map(|h| {
                    let s = &h.summary;
                    HistJson {
                        name: h.name.clone(),
                        count: s.count,
                        sum: s.sum,
                        min: s.min,
                        max: s.max,
                        mean: s.mean,
                        p50: s.p50,
                        p90: s.p90,
                        p99: s.p99,
                    }
                })
                .collect(),
        }
    }
}

/// Close a phase: publish its buffer-pool traffic since `pool` as gauges,
/// append its table to `text`, and clear the telemetry.
fn end_phase(name: &str, pool: &mut bufpool::PoolStats, text: &mut String) -> Phase {
    let now = bufpool::stats();
    basm_obs::gauge_max("pool.buffer_reuse", now.reuse - pool.reuse);
    basm_obs::gauge_max("pool.buffer_miss", now.miss - pool.miss);
    *pool = now;
    let report = basm_obs::report();
    basm_obs::reset();
    text.push_str(&format!("#### phase: {name}\n{}\n", report.to_table()));
    Phase::from_report(name, &report)
}

fn main() {
    let env = BenchEnv::from_env();
    basm_obs::set_enabled(true);
    basm_obs::reset();
    let (mut pool, mut text, mut phases) = (bufpool::stats(), String::new(), Vec::new());

    // ---- offline training with the per-step log attached ----------------
    let data = env.eleme();
    let ds = &data.dataset;
    let log_path = basm_bench::artifact_path(&env, "train_log.jsonl");
    open_train_log(&log_path).expect("open train log");
    let mut model = build_model("BASM", &ds.config, env.seeds[0]);
    let tc = TrainConfig::default_for(ds, env.epochs, env.batch, env.seeds[0]);
    let (steps, _) = train(model.as_mut(), ds, &tc);
    if let Some(path) = close_train_log() {
        eprintln!("[artifact] {}", path.display());
    }
    phases.push(end_phase("train", &mut pool, &mut text));

    let auc = evaluate(model.as_mut(), ds, &ds.test_indices(), tc.batch_size).report().auc;
    eprintln!("[obs_telemetry] {}: AUC {auc:.4} after {steps} steps", model.name());
    phases.push(end_phase("evaluate", &mut pool, &mut text));

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
    phases.push(end_phase("serve", &mut pool, &mut text));

    env.write("OBS_telemetry.txt", &text);
    env.write_json("OBS_telemetry.json", &phases);
}

#[cfg(test)]
mod tests {
    use super::*;
    use basm_obs::{HistRow, Histogram, Report, SpanRow};

    #[test]
    fn telemetry_json_keeps_the_report_schema() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let report = Report {
            spans: vec![SpanRow {
                name: "basm.ststl.fwd".into(),
                calls: 2,
                total_ns: 300,
                mean_ns: 150.0,
                max_ns: 200,
                dims: vec![("rows".into(), 96)],
            }],
            counters: vec![("serving.retries".into(), 4)],
            gauges: vec![("graph.peak_bytes".into(), 4096)],
            hists: vec![HistRow { name: "serving.e2e_ns".into(), summary: h.summary() }],
        };
        let json = serde_json::to_string(&Phase::from_report("train", &report)).unwrap();
        assert_eq!(
            json,
            concat!(
                r#"{"phase":"train","#,
                r#""spans":[{"name":"basm.ststl.fwd","calls":2,"total_ns":300,"mean_ns":150.0,"#,
                r#""max_ns":200,"dims":{"rows":96}}],"#,
                r#""counters":[{"name":"serving.retries","value":4}],"#,
                r#""gauges":[{"name":"graph.peak_bytes","value":4096}],"#,
                r#""histograms":[{"name":"serving.e2e_ns","count":3,"sum":60,"min":10,"max":30,"#,
                r#""mean":20.0,"p50":20,"p90":30,"p99":30}]}"#,
            )
        );
        let empty = vec![Phase::from_report("serve", &Report::default())];
        assert_eq!(
            serde_json::to_string(&empty).unwrap(),
            r#"[{"phase":"serve","spans":[],"counters":[],"gauges":[],"histograms":[]}]"#
        );
    }
}
