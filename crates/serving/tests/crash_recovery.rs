//! Crash consistency of the online serving state (DESIGN.md §13):
//!
//! 1. **WAL replay is bitwise** — replaying a journal into a fresh feature
//!    server rebuilds histories, counters and versions exactly, including
//!    state from before the journal attached (the snapshot baseline).
//! 2. **Journaling is invisible** — a run with a WAL attached serves
//!    bitwise the same exposures as one without (journaling is a
//!    durability knob, never a bits knob; `tests/mode_matrix.rs` crosses
//!    it with threads, SIMD and telemetry).
//! 3. **Supervised restart is exactly-once** — a replica killed at an
//!    arbitrary request prep, or inside a WAL append via an armed
//!    [`CrashPlan`], recovers by checkpoint-style rebuild + WAL replay and
//!    completes the schedule **bitwise equal to the run that never
//!    crashed**, at 1 worker thread and at 4.

use basm_baselines::build_model;
use basm_data::{BehaviorEvent, World, WorldConfig};
use basm_serving::{
    fresh_wal_path, generate_arrivals, run_load, run_load_supervised, ArrivalConfig,
    FeatureServer, FrontendConfig, Journal, LoadOutcome, ServingPipeline, SupervisorConfig,
};
use basm_tensor::packstore::{set_crash_plan, CrashPlan};
use basm_tensor::pool;

mod common;

fn ev(item: u32, cat: u16) -> BehaviorEvent {
    BehaviorEvent { item, cat, brand: cat + 1, tp: 2, hour: 18, city: 3, gx: 1, gy: 2 }
}

/// Full observable feature-server state, bit-exact.
fn fs_state(fs: &FeatureServer, n_users: usize) -> impl PartialEq + std::fmt::Debug {
    let hist: Vec<Vec<BehaviorEvent>> =
        (0..n_users).map(|u| fs.history_snapshot(u).into_iter().collect()).collect();
    let versions: Vec<u64> = (0..n_users).map(|u| fs.history_version(u)).collect();
    let counters = fs.with_counters(|c| {
        (c.user_clicks.clone(), c.user_orders.clone(), c.item_clicks.clone(), c.item_exposures.clone())
    });
    (hist, versions, fs.clicks_version(), counters)
}

#[test]
fn wal_replay_rebuilds_feature_server_bitwise() {
    let (n_users, n_items) = (4usize, 16usize);
    let path = fresh_wal_path();
    let mut fs = FeatureServer::new(n_users, n_items, 3);
    // State from *before* the journal exists — the attach must snapshot it.
    fs.seed_history(0, (0..5).map(|i| ev(i, 1))); // over-cap: exercises the cap in the baseline
    fs.record_click(1, ev(7, 2), true);
    fs.record_exposure(9);
    fs.attach_journal(Journal::create(&path).unwrap()).unwrap();
    // Journaled writes of every kind.
    fs.record_click(0, ev(8, 3), false);
    fs.record_click(2, ev(9, 1), true);
    fs.seed_history(3, (10..12).map(|i| ev(i, 4)));
    fs.record_exposure(8);
    fs.record_exposures(&[vec![1, 2, 3], vec![], vec![1]]);
    let want = fs_state(&fs, n_users);
    fs.detach_journal().unwrap().seal().unwrap();

    let (journal, records, stats) = Journal::recover(&path).unwrap();
    assert!(stats.sealed, "clean shutdown must read back sealed");
    let replica = FeatureServer::new(n_users, n_items, 3);
    replica.replay_records(&records).unwrap();
    assert_eq!(fs_state(&replica, n_users), want, "replay must rebuild the exact state");
    drop(journal);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wal_replay_rejects_wrong_geometry() {
    let path = fresh_wal_path();
    let mut fs = FeatureServer::new(4, 16, 3);
    fs.attach_journal(Journal::create(&path).unwrap()).unwrap();
    fs.record_click(3, ev(15, 1), false);
    drop(fs.detach_journal());
    let (_, records, _) = Journal::recover(&path).unwrap();
    // A journal from a bigger world must not corrupt a smaller server.
    let small = FeatureServer::new(2, 8, 3);
    assert!(small.replay_records(&records).is_err());
    let _ = std::fs::remove_file(&path);
}

fn world_and_arrivals() -> (World, Vec<basm_serving::Arrival>) {
    let world = World::generate(WorldConfig::tiny());
    let arrivals = generate_arrivals(
        &world,
        &ArrivalConfig { qps: 300.0, duration_ns: 1_000_000_000, ..ArrivalConfig::default() },
    );
    assert!(arrivals.len() > 60, "need real traffic, got {}", arrivals.len());
    (world, arrivals)
}

/// A fault-free Wide&Deep replica. Every item starts with one click
/// (`common::seed_one_click_per_item`), so the replayed exposure counters
/// reach the scores the supervised pins compare.
fn replica(world: &World) -> ServingPipeline {
    #[allow(unused_mut)]
    let mut pipe =
        ServingPipeline::new(world, build_model("Wide&Deep", &world.config, 1), 16, 6);
    #[cfg(feature = "faults")]
    pipe.set_faults(None); // a supervised sweep must be fault-free to pin bits
    common::seed_one_click_per_item(&pipe, world);
    pipe
}

/// Everything observable about a load run, bit-exact (same shape as the
/// frontend determinism suite's signature).
fn signature(out: &LoadOutcome) -> Vec<(usize, usize, u64, u64, Vec<(u32, u16, u32)>)> {
    out.completed
        .iter()
        .map(|c| {
            (
                c.arrival,
                c.uid,
                c.queue_wait_ns,
                c.latency_ns,
                c.exposures.iter().map(|e| (e.item, e.position, e.score.to_bits())).collect(),
            )
        })
        .collect()
}

/// Contract 2: a WAL on the serving path changes durability, never bits.
#[test]
fn journaled_run_matches_unjournaled_bitwise() {
    let (world, arrivals) = world_and_arrivals();
    let cfg = FrontendConfig::default();
    let plain = run_load(&mut replica(&world), &world, &arrivals, &cfg);

    let path = fresh_wal_path();
    let mut pipe = replica(&world);
    pipe.features.attach_journal(Journal::create(&path).unwrap()).unwrap();
    let journaled = run_load(&mut pipe, &world, &arrivals, &cfg);
    assert_eq!(signature(&plain), signature(&journaled), "journaling must be bits-invariant");
    drop(pipe);
    let _ = std::fs::remove_file(&path);
}

/// Contract 3, prep kills: kill the replica at assorted request preps and
/// pin the supervised outcome to the uninterrupted run, across thread
/// counts (the tier-1 acceptance sweep).
#[test]
fn supervised_restart_matches_uninterrupted_run() {
    let (world, arrivals) = world_and_arrivals();
    let cfg = FrontendConfig::default();
    for threads in [1usize, 4] {
        pool::set_threads(threads);
        let baseline = run_load(&mut replica(&world), &world, &arrivals, &cfg);
        let n = baseline.summary.admitted as u64;
        for kill_at in [0, 1, 7, n / 2, n - 1] {
            let sup = SupervisorConfig {
                wal_path: fresh_wal_path(),
                max_restarts: 2,
                kill_at_prep: Some(kill_at),
            };
            let out = run_load_supervised(&world, &arrivals, &cfg, &sup, || replica(&world))
                .expect("supervised run");
            assert_eq!(out.recovery.restarts, 1, "kill_at={kill_at} must kill exactly once");
            assert_eq!(
                signature(&baseline),
                signature(&out.load),
                "threads={threads} kill_at={kill_at}: recovery diverged from the uninterrupted run"
            );
            assert_eq!(baseline.summary.completed, out.load.summary.completed);
            assert_eq!(baseline.summary.sim_end_ns, out.load.summary.sim_end_ns);
            assert!(out.recovery.reenqueued >= 1, "the in-flight batch must re-enqueue");
            let _ = std::fs::remove_file(&sup.wal_path);
        }
    }
    pool::set_threads(1);
}

/// Contract 3, IO kills: arm a [`CrashPlan`] so the replica dies *inside a
/// WAL append* (mid-commit, with a torn tail on disk). The supervisor must
/// treat it as process death, drop the torn tail on replay, and still land
/// bitwise on the uninterrupted run.
#[test]
fn wal_append_kill_recovers_bitwise() {
    let (world, arrivals) = world_and_arrivals();
    let cfg = FrontendConfig::default();
    let baseline = run_load(&mut replica(&world), &world, &arrivals, &cfg);
    // One Exposures append per committed microbatch, so the sweep domain is
    // the batch count.
    let appends = baseline.summary.batches as u64;
    assert!(appends >= 4, "need enough batches to sweep, got {appends}");

    for (kill_at, tear) in [(0u64, 0usize), (appends / 2, 7), (appends - 1, 3)] {
        let sup = SupervisorConfig {
            wal_path: fresh_wal_path(),
            max_restarts: 2,
            kill_at_prep: None,
        };
        // Arm only after the first replica is fully built: the shim guards
        // *all* durable IO, so a replica attached to a pack directory or to
        // a journal of its own would otherwise eat the kill point during
        // construction. Armed this way, op 0 is the first WAL append
        // on every backend. The supervisor disarms the plan when the
        // "process" dies, so the rebuild constructs unarmed.
        let armed = std::cell::Cell::new(false);
        let build = || {
            let p = replica(&world);
            if !armed.get() {
                armed.set(true);
                set_crash_plan(Some(CrashPlan { kill_at_op: kill_at, tear_bytes: tear }));
            }
            p
        };
        let pre = Journal::create(&sup.wal_path).unwrap(); // fix the file; recover() reuses it
        drop(pre);
        let out = run_load_supervised(&world, &arrivals, &cfg, &sup, build).expect("supervised");
        set_crash_plan(None);
        assert_eq!(out.recovery.restarts, 1, "kill_at_op={kill_at} must kill exactly once");
        assert_eq!(
            signature(&baseline),
            signature(&out.load),
            "kill_at_op={kill_at} tear={tear}: recovery diverged"
        );
        let _ = std::fs::remove_file(&sup.wal_path);
    }
}

/// A clean supervised run (no kill) is also pinned — the supervisor layer
/// itself must be invisible when nothing dies.
#[test]
fn supervised_without_crash_is_invisible() {
    let (world, arrivals) = world_and_arrivals();
    let cfg = FrontendConfig::default();
    let baseline = run_load(&mut replica(&world), &world, &arrivals, &cfg);
    let sup = SupervisorConfig { wal_path: fresh_wal_path(), ..SupervisorConfig::default() };
    let out = run_load_supervised(&world, &arrivals, &cfg, &sup, || replica(&world)).unwrap();
    assert_eq!(out.recovery.restarts, 0);
    assert_eq!(out.recovery.reenqueued, 0);
    assert_eq!(signature(&baseline), signature(&out.load));
    let _ = std::fs::remove_file(&sup.wal_path);
}
