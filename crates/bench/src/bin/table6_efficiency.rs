//! **Table VI**: training time per epoch and memory per model on the
//! Ele.me-like dataset. Absolute numbers are CPU-laptop scale; the paper's
//! *ordering* (static cheap, dynamic expensive, APG worst, BASM the cheapest
//! dynamic method thanks to low-rank generation) is the reproduction target.
//!
//! One epoch per model cannot order two models a few percent apart on a
//! shared host, so the BASM-vs-M2M claim gets its own interval: [`PAIRS`]
//! interleaved epoch pairs (`basm_bench::timing`), reported as the median
//! and quartiles of the per-pair BASM/M2M seconds ratio. The artifact
//! records the pool thread count the epochs ran on (`BASM_THREADS`).

use basm_baselines::{build_model, TABLE4_MODELS};
use basm_bench::{format_table, timing, BenchEnv};
use basm_tensor::optim::AdagradDecay;
use basm_tensor::pool;
use basm_trainer::{measure_efficiency, train_epoch, EfficiencyReport};
use serde::Serialize;

/// Interleaved BASM/M2M epoch pairs behind the ratio.
const PAIRS: usize = 5;

#[derive(Serialize)]
struct Table6 {
    /// Library pool threads every epoch ran on.
    pool_threads: usize,
    models: Vec<EfficiencyReport>,
    basm_vs_m2m: EpochRatio,
}

/// BASM against M2M over interleaved one-epoch pairs.
#[derive(Serialize)]
struct EpochRatio {
    basm_secs: Vec<f64>,
    m2m_secs: Vec<f64>,
    /// Median and quartiles of the per-pair BASM/M2M seconds ratio (below
    /// 1: BASM is cheaper).
    ratio_median: f64,
    ratio_q1: f64,
    ratio_q3: f64,
}

fn main() {
    let env = BenchEnv::from_env();
    let data = env.eleme();
    let ds = &data.dataset;

    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for name in TABLE4_MODELS {
        let mut model = build_model(name, &ds.config, 1);
        let rep = measure_efficiency(model.as_mut(), ds, env.batch, 0.01);
        eprintln!(
            "[table6] {name}: {:.1}s/epoch, {:.1} MB",
            rep.secs_per_epoch,
            rep.memory_mb()
        );
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", rep.secs_per_epoch),
            format!("{:.1}", rep.memory_mb()),
            format!("{}", rep.num_params),
            format!("{:.2}", rep.activation_bytes as f64 / (1024.0 * 1024.0)),
        ]);
        reports.push(rep);
    }
    let [mut basm, mut m2m] = ["BASM", "M2M"].map(|name| build_model(name, &ds.config, 1));
    let mut opts = [AdagradDecay::paper_default(), AdagradDecay::paper_default()];
    let [opt_basm, opt_m2m] = &mut opts;
    let (basm_secs, m2m_secs) = timing::interleave_samples(
        PAIRS,
        || {
            train_epoch(basm.as_mut(), ds, env.batch, 0.01, opt_basm);
        },
        || {
            train_epoch(m2m.as_mut(), ds, env.batch, 0.01, opt_m2m);
        },
    );
    let ratios = basm_secs.iter().zip(&m2m_secs).map(|(b, m)| b / m).collect();
    let [q1, median, q3] = timing::quartiles(ratios);
    let ratio =
        EpochRatio { basm_secs, m2m_secs, ratio_median: median, ratio_q1: q1, ratio_q3: q3 };
    eprintln!("[table6] BASM/M2M over {PAIRS} pairs: {median:.3} [{q1:.3}, {q3:.3}]");

    let pool_threads = pool::num_threads();
    let mut out = format!(
        "Table VI — training time per epoch and memory cost ({pool_threads} pool thread{})\n",
        if pool_threads == 1 { "" } else { "s" }
    );
    out.push_str(&format_table(
        &["Method", "Time/Epoch (s)", "Memory (MB)", "#Params", "Activations (MB)"],
        &rows,
    ));

    let time = |n: &str| reports.iter().find(|r| r.model == n).map(|r| r.secs_per_epoch);
    let static_max = ["Wide&Deep", "DIN", "AutoInt"]
        .iter()
        .filter_map(|n| time(n))
        .fold(0.0, f64::max);
    let apg = time("APG").unwrap_or(0.0);
    let basm = time("BASM").unwrap_or(0.0);
    let other_dynamic_min =
        ["STAR", "M2M", "APG"].iter().filter_map(|n| time(n)).fold(f64::MAX, f64::min);
    out.push_str(&format!(
        "\nshape: BASM {basm:.1}s vs cheapest other dynamic {other_dynamic_min:.1}s \
         (paper: BASM cheapest dynamic); APG worst: {} (paper: APG worst); \
         static ≤ dynamic: {}\n",
        ["STAR", "M2M", "BASM"].iter().filter_map(|n| time(n)).all(|t| apg >= t),
        static_max <= apg
    ));
    out.push_str(&format!(
        "BASM/M2M time per epoch over {PAIRS} interleaved epoch pairs: median {median:.3} \
         (quartiles {q1:.3}–{q3:.3}; below 1 means BASM is cheaper)\n"
    ));
    env.emit("table6_efficiency.txt", &out);
    let table = Table6 { pool_threads, models: reports, basm_vs_m2m: ratio };
    env.write_json("table6_efficiency.json", &table);
}
