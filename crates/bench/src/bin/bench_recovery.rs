//! **BENCH_recovery**: the crash-consistency machinery's cost (DESIGN.md
//! §13), three views:
//!
//! * **WAL replay** — wall time to recover + replay journals of increasing
//!   length into a fresh feature server (the dominant term of restart
//!   latency once a replica has served real traffic).
//! * **Model restore** — wall time to save and to warm-start the scoring
//!   model from a versioned checkpoint directory (the other half of a
//!   rebuild; embedding shards reattach zero-copy).
//! * **Supervised crash runs** — full load runs killed at an arbitrary
//!   request prep and recovered by the supervisor (checkpoint rebuild + WAL
//!   replay + re-enqueue). Each run re-asserts the §13 contract end to end:
//!   the recovered exposure stream must be **bitwise equal** to the
//!   uninterrupted run's; the artifact records the wall-clock overhead that
//!   equality costs.

use basm_bench::{timing, BenchEnv};
use basm_core::checkpoint::{load_model_dir, save_model_dir};
use basm_data::{BehaviorEvent, World};
use basm_serving::{
    fresh_wal_path, generate_arrivals, run_load, run_load_supervised, ArrivalConfig,
    FeatureServer, FrontendConfig, Journal, LoadOutcome, ServingPipeline, SupervisorConfig,
    WalRecord,
};
use serde::Serialize;

#[derive(Serialize)]
struct WalReplayPoint {
    records: usize,
    wal_bytes: u64,
    recover_ms: f64,
    replay_ms: f64,
    records_per_sec: f64,
}

#[derive(Serialize)]
struct ModelRestore {
    save_ms: f64,
    load_ms: f64,
}

#[derive(Serialize)]
struct CrashRun {
    kill_at_prep: u64,
    restarts: u64,
    replayed_records: u64,
    reenqueued: u64,
    wall_ms: f64,
    bitwise_equal: bool,
}

#[derive(Serialize)]
struct RecoveryBench {
    host_threads: usize,
    dataset: String,
    wal_replay: Vec<WalReplayPoint>,
    model_restore: ModelRestore,
    uninterrupted_wall_ms: f64,
    crash_runs: Vec<CrashRun>,
    /// Mean wall overhead of one crash+recovery versus the uninterrupted
    /// run, in milliseconds (negative noise is possible on tiny runs).
    mean_recovery_overhead_ms: f64,
    note: String,
}

fn ev(i: u64) -> BehaviorEvent {
    BehaviorEvent {
        item: (i % 97) as u32,
        cat: (i % 13) as u16,
        brand: (i % 7) as u16,
        tp: (i % 4) as u8,
        hour: (i % 24) as u8,
        city: (i % 5) as u16,
        gx: (i % 8) as u8,
        gy: (i % 8) as u8,
    }
}

/// Build a journal of `n` click records and measure recover + replay.
fn wal_replay_point(n: usize, n_users: usize, n_items: usize) -> WalReplayPoint {
    let path = fresh_wal_path();
    let j = Journal::create(&path).expect("create wal");
    for i in 0..n as u64 {
        j.append(&WalRecord::Click {
            uid: (i % n_users as u64) as u32,
            ordered: i % 5 == 0,
            event: ev(i),
        })
        .expect("append");
    }
    drop(j);
    let wal_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let ((journal, records, stats), recover_secs) =
        timing::timed(|| Journal::recover(&path).expect("recover wal"));
    let recover_ms = recover_secs * 1e3;
    assert_eq!(stats.records as usize, n);
    let fs = FeatureServer::new(n_users, n_items, 50);
    let (_, replay_secs) = timing::timed(|| fs.replay_records(&records).expect("replay"));
    let replay_ms = replay_secs * 1e3;
    drop(journal);
    let _ = std::fs::remove_file(&path);
    let total_secs = (recover_ms + replay_ms) / 1e3;
    WalReplayPoint {
        records: n,
        wal_bytes,
        recover_ms,
        replay_ms,
        records_per_sec: n as f64 / total_secs.max(1e-9),
    }
}

fn main() {
    let env = BenchEnv::from_env();
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let data = env.eleme();
    let world: &World = &data.world;

    // --- WAL replay latency vs journal length -----------------------------
    let lengths: Vec<usize> =
        if env.fast { vec![1_000, 10_000] } else { vec![1_000, 10_000, 100_000] };
    let wal_replay: Vec<WalReplayPoint> = lengths
        .iter()
        .map(|&n| {
            let p = wal_replay_point(n, world.config.n_users, world.config.n_items);
            eprintln!(
                "[bench_recovery] wal replay {n} records: recover {:.2}ms + replay {:.2}ms \
                 ({:.0} rec/s)",
                p.recover_ms, p.replay_ms, p.records_per_sec
            );
            p
        })
        .collect();

    // --- checkpoint save/restore ------------------------------------------
    let ckpt_dir = std::env::temp_dir().join(format!(
        "basm-recovery-ckpt-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mut model = basm_baselines::build_model("BASM", &world.config, 1);
    let (_, save_secs) =
        timing::timed(|| save_model_dir(model.as_mut(), &ckpt_dir).expect("save checkpoint"));
    let save_ms = save_secs * 1e3;
    let mut restored = basm_baselines::build_model("BASM", &world.config, 1);
    let (_, load_secs) =
        timing::timed(|| load_model_dir(restored.as_mut(), &ckpt_dir).expect("load checkpoint"));
    let load_ms = load_secs * 1e3;
    eprintln!("[bench_recovery] checkpoint save {save_ms:.1}ms, restore {load_ms:.1}ms");
    let model_restore = ModelRestore { save_ms, load_ms };

    // --- supervised crash runs --------------------------------------------
    let (pool, top_k) = if env.fast { (16, 6) } else { (30, 10) };
    let duration_ns: u64 = if env.fast { 500_000_000 } else { 1_000_000_000 };
    let arrivals = generate_arrivals(
        world,
        &ArrivalConfig { qps: 300.0, duration_ns, ..ArrivalConfig::default() },
    );
    let cfg = FrontendConfig::default();
    // The replica rebuild the supervisor calls after each death: model
    // weights from the checkpoint (they never change during serving), online
    // state from the WAL (replayed by the supervisor itself).
    let build = || {
        let mut m = basm_baselines::build_model("BASM", &world.config, 1);
        load_model_dir(m.as_mut(), &ckpt_dir).expect("replica restore");
        ServingPipeline::new(world, m, pool, top_k)
    };

    // The injected kills below panic by design (the supervisor catches
    // them); keep the default hook for anything else so real failures still
    // print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected crash"));
        if !injected {
            default_hook(info);
        }
    }));

    let (baseline, base_secs): (LoadOutcome, f64) =
        timing::timed(|| run_load(&mut build(), world, &arrivals, &cfg));
    let uninterrupted_wall_ms = base_secs * 1e3;
    let admitted = baseline.summary.admitted as u64;

    let exposures_sig = |out: &LoadOutcome| -> Vec<(usize, Vec<(u32, u32)>)> {
        out.completed
            .iter()
            .map(|c| {
                (c.arrival, c.exposures.iter().map(|e| (e.item, e.score.to_bits())).collect())
            })
            .collect()
    };
    let want = exposures_sig(&baseline);

    let kill_points: Vec<u64> = vec![0, admitted / 4, admitted / 2, admitted.saturating_sub(1)];
    let crash_runs: Vec<CrashRun> = kill_points
        .into_iter()
        .map(|kill_at_prep| {
            let sup = SupervisorConfig {
                wal_path: fresh_wal_path(),
                max_restarts: 2,
                kill_at_prep: Some(kill_at_prep),
            };
            let (out, secs) = timing::timed(|| {
                run_load_supervised(world, &arrivals, &cfg, &sup, build).expect("supervised run")
            });
            let wall_ms = secs * 1e3;
            let bitwise_equal = exposures_sig(&out.load) == want;
            assert!(bitwise_equal, "recovery diverged at kill_at_prep={kill_at_prep}");
            let _ = std::fs::remove_file(&sup.wal_path);
            eprintln!(
                "[bench_recovery] kill@{kill_at_prep}: {} restart(s), {} records replayed, \
                 {} re-enqueued, {:.0}ms (uninterrupted {:.0}ms)",
                out.recovery.restarts,
                out.recovery.replayed_records,
                out.recovery.reenqueued,
                wall_ms,
                uninterrupted_wall_ms
            );
            CrashRun {
                kill_at_prep,
                restarts: out.recovery.restarts,
                replayed_records: out.recovery.replayed_records,
                reenqueued: out.recovery.reenqueued,
                wall_ms,
                bitwise_equal,
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let mean_recovery_overhead_ms = crash_runs
        .iter()
        .map(|r| r.wall_ms - uninterrupted_wall_ms)
        .sum::<f64>()
        / crash_runs.len().max(1) as f64;

    let bench = RecoveryBench {
        host_threads,
        dataset: if env.fast { "tiny".into() } else { "eleme_like".into() },
        wal_replay,
        model_restore,
        uninterrupted_wall_ms,
        crash_runs,
        mean_recovery_overhead_ms,
        note: "Every crash run asserts bitwise equality against the uninterrupted run \
               before reporting; a divergence aborts the bench."
            .into(),
    };
    env.write_json("BENCH_recovery.json", &bench);
    eprintln!("[bench_recovery] wrote BENCH_recovery.json");
}
