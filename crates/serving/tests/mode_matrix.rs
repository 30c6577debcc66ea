//! One process, every execution mode: what a BASM model trains and serves
//! must not depend on how the work is executed (DESIGN.md §6, §13, §14).
//!
//! One flow — two BASM `train_step`s and a `predict`, one `serve` request,
//! a short `run_load` schedule, and two `run_load_supervised` runs of the
//! same schedule (the replica killed once at a request prep and once inside
//! a WAL append) — runs under the product of
//!
//! * worker threads {1, 4}, with the parallelism threshold at zero so even
//!   tiny shapes take the partitioned kernels;
//! * SIMD lanes {off, on} (`simd::set_simd`);
//! * an online-state WAL {none, attached} (`FeatureServer::attach_journal`);
//! * telemetry {off, on} (`basm_obs::set_enabled`).
//!
//! Every configuration must produce the digest of the serial, scalar,
//! unjournaled, untraced run. The toggles are process-global, so this file
//! is its own test binary holding a single test.

use basm_baselines::build_model;
use basm_core::model::{predict, train_step};
use basm_data::{generate_dataset, Batch, World, WorldConfig};
use basm_serving::{
    fresh_wal_path, generate_arrivals, run_load, run_load_supervised, Arrival, ArrivalConfig,
    FrontendConfig, Journal, LoadOutcome, Request, ServingPipeline, SupervisorConfig,
};
use basm_tensor::optim::AdagradDecay;
use basm_tensor::packstore::{set_crash_plan, CrashPlan};
use basm_tensor::{pool, simd, Prng};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

mod common;

#[derive(Debug, Clone, Copy)]
struct Mode {
    threads: usize,
    simd: bool,
    wal: bool,
    obs: bool,
}

/// What the flow's parts computed, one hash each, in [`FLOWS`] order.
type Digest = [u64; 5];

const FLOWS: [&str; 5] = [
    "train_step x2 + predict",
    "serve",
    "run_load",
    "supervised, killed at a request prep",
    "supervised, killed inside a WAL append",
];

struct Fixture {
    world: World,
    train: Batch,
    eval: Batch,
    arrivals: Vec<Arrival>,
}

fn fixture() -> Fixture {
    let data = generate_dataset(&WorldConfig::tiny());
    let train = data.dataset.batch(&(0..16).collect::<Vec<_>>());
    let eval = data.dataset.batch(&(16..24).collect::<Vec<_>>());
    let arrivals = generate_arrivals(
        &data.world,
        &ArrivalConfig { qps: 300.0, duration_ns: 300_000_000, ..ArrivalConfig::default() },
    );
    assert!(arrivals.len() >= 40, "need real traffic, got {}", arrivals.len());
    Fixture { world: data.world, train, eval, arrivals }
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Per completed request: arrival, uid, queue wait, latency, and the
/// exposures as (item, position, score bits).
type Signature = Vec<(usize, usize, u64, u64, Vec<(u32, u16, u32)>)>;

/// Everything observable about a load run, bit-exact.
fn signature(out: &LoadOutcome) -> Signature {
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

/// A fault-free replica serving `model`, journaled when the mode says so.
/// Journal paths land in `wals` for cleanup. Every item starts with one
/// click (`common::seed_one_click_per_item`).
fn replica(
    world: &World,
    model: &str,
    mode: Mode,
    wals: &RefCell<Vec<PathBuf>>,
) -> ServingPipeline {
    let mut pipe = ServingPipeline::new(world, build_model(model, &world.config, 1), 16, 6);
    common::seed_one_click_per_item(&pipe, world);
    if mode.wal {
        let path = fresh_wal_path();
        pipe.features
            .attach_journal(Journal::create(&path).expect("create WAL"))
            .expect("attach WAL");
        wals.borrow_mut().push(path);
    }
    pipe
}

fn run_flow(fx: &Fixture, mode: Mode) -> Digest {
    pool::set_threads(mode.threads);
    simd::set_simd(mode.simd);
    basm_obs::set_enabled(mode.obs);
    let wals = RefCell::new(Vec::new());
    let world = &fx.world;

    let mut model = build_model("BASM", &world.config, 7);
    let mut opt = AdagradDecay::paper_default();
    let losses: Vec<u32> = (0..2)
        .map(|_| train_step(model.as_mut(), &fx.train, &mut opt, 0.05, Some(10.0)).to_bits())
        .collect();
    let probs: Vec<u32> = predict(model.as_mut(), &fx.eval).iter().map(|p| p.to_bits()).collect();

    let req = Request { uid: 3, day: 0, hour: 12, geo: world.users[3].geo };
    let served: Vec<(u32, u16, u32)> = replica(world, "BASM", mode, &wals)
        .serve(world, req, &mut Prng::seeded(5))
        .expect("valid request")
        .iter()
        .map(|e| (e.item, e.position, e.score.to_bits()))
        .collect();
    assert!(!served.is_empty(), "serve exposed nothing; the pin is vacuous");

    // The schedules serve Wide&Deep: the front-end, WAL and supervisor are
    // model-agnostic, and BASM's kernels already ran above at a fraction of
    // the cost of three schedules in a debug build.
    let cfg = FrontendConfig::default();
    let build = || replica(world, "Wide&Deep", mode, &wals);
    let load = run_load(&mut build(), world, &fx.arrivals, &cfg);

    let sup = SupervisorConfig {
        wal_path: fresh_wal_path(),
        max_restarts: 2,
        kill_at_prep: Some(load.summary.admitted as u64 / 2),
    };
    wals.borrow_mut().push(sup.wal_path.clone());
    let prep_kill =
        run_load_supervised(world, &fx.arrivals, &cfg, &sup, build).expect("supervised run");
    assert_eq!(prep_kill.recovery.restarts, 1, "{mode:?}: the prep kill must fire once");

    // Arm the kill plan only once the first replica is built, so op 0 is
    // the first WAL append; the file exists beforehand, so the supervisor's
    // recovery writes nothing either. The supervisor disarms the plan when
    // the replica "dies".
    let sup = SupervisorConfig { wal_path: fresh_wal_path(), max_restarts: 2, kill_at_prep: None };
    wals.borrow_mut().push(sup.wal_path.clone());
    drop(Journal::create(&sup.wal_path).expect("create WAL"));
    let armed = Cell::new(false);
    let append_kill = run_load_supervised(world, &fx.arrivals, &cfg, &sup, || {
        let pipe = build();
        if !armed.replace(true) {
            let kill_at_op = load.summary.batches as u64 / 2;
            set_crash_plan(Some(CrashPlan { kill_at_op, tear_bytes: 7 }));
        }
        pipe
    })
    .expect("supervised run");
    set_crash_plan(None);
    assert_eq!(append_kill.recovery.restarts, 1, "{mode:?}: the WAL kill must fire once");

    for path in wals.into_inner() {
        let _ = std::fs::remove_file(path);
    }
    [
        hash_of(&(losses, probs)),
        hash_of(&served),
        hash_of(&signature(&load)),
        hash_of(&signature(&prep_kill.load)),
        hash_of(&signature(&append_kill.load)),
    ]
}

#[test]
fn every_execution_mode_computes_the_same_bits() {
    let fx = fixture();
    pool::set_min_work(0);

    let reference =
        run_flow(&fx, Mode { threads: 1, simd: false, wal: false, obs: false });
    assert_eq!(reference[2], reference[3], "a prep kill changed the served stream");
    assert_eq!(reference[2], reference[4], "a WAL-append kill changed the served stream");
    for threads in [1, 4] {
        for simd in [false, true] {
            for wal in [false, true] {
                for obs in [false, true] {
                    let mode = Mode { threads, simd, wal, obs };
                    let digest = run_flow(&fx, mode);
                    let diverged: Vec<&str> = FLOWS
                        .iter()
                        .zip(digest.iter().zip(&reference))
                        .filter(|(_, (a, b))| a != b)
                        .map(|(name, _)| *name)
                        .collect();
                    assert!(
                        diverged.is_empty(),
                        "{mode:?} diverged from the serial scalar unjournaled run in: {diverged:?}"
                    );
                }
            }
        }
    }

    pool::set_threads(0);
    pool::set_min_work(pool::DEFAULT_MIN_WORK);
    simd::set_simd(true);
    basm_obs::set_enabled(false);
}
