//! The batched front-end's contract (DESIGN.md §10):
//!
//! 1. **Coalescing is invisible** — one cross-request microbatch per model
//!    pass produces bitwise identical exposures to one pass per request, on
//!    the same simulated schedule, across worker-thread counts (the packed
//!    kernel preserves per-row accumulation order).
//! 2. **`max_batch = 1` collapses onto the sequential pipeline** — the
//!    front-end is the plain [`ServingPipeline::serve`] loop plus a queue,
//!    nothing more.
//! 3. **Overload degrades, never drops** — a full queue sheds at the door,
//!    a hopeless deadline sheds to the statistics prior, and every admitted
//!    request still gets a non-empty exposure list.
//! 4. (`faults` feature) **The ladder composes with batching** — a hot
//!    fault profile degrades requests and inflates the simulated clock but
//!    never panics, never drops, and stays run-to-run deterministic.

use basm_baselines::build_model;
use basm_data::{World, WorldConfig};
use basm_serving::{
    generate_arrivals, run_load, ArrivalConfig, CostModel, DeadlinePolicy, FrontendConfig,
    LoadOutcome, Request, ServingPipeline, ShedReason,
};
use basm_tensor::{pool, Prng};

#[cfg(feature = "faults")]
use basm_faults::{FaultInjector, FaultProfile};

fn pipeline(world: &World, seed: u64) -> ServingPipeline {
    #[allow(unused_mut)]
    let mut pipe =
        ServingPipeline::new(world, build_model("Wide&Deep", &world.config, seed), 16, 6);
    #[cfg(feature = "faults")]
    pipe.set_faults(None); // don't inherit the ambient BASM_FAULTS profile
    pipe
}

/// Everything observable about a load run, bit-exact: per-request identity,
/// timing, shed path, and the exposure lists down to score bits.
fn signature(out: &LoadOutcome) -> Vec<(usize, usize, u64, u64, ShedReason, Vec<(u32, u16, u32)>)> {
    out.completed
        .iter()
        .map(|c| {
            (
                c.arrival,
                c.uid,
                c.queue_wait_ns,
                c.latency_ns,
                c.shed,
                c.exposures.iter().map(|e| (e.item, e.position, e.score.to_bits())).collect(),
            )
        })
        .collect()
}

/// Contract 1: the coalesce flag changes how the model pass executes, and
/// nothing else — exposures, waits, latencies and shed decisions are
/// bitwise identical, at 1 worker thread and at 4.
#[test]
fn coalesced_matches_sequential_bitwise_across_threads() {
    let world = World::generate(WorldConfig::tiny());
    let arrivals = generate_arrivals(
        &world,
        &ArrivalConfig { qps: 400.0, duration_ns: 2_000_000_000, ..ArrivalConfig::default() },
    );
    assert!(arrivals.len() > 100, "need real traffic, got {}", arrivals.len());

    let mut reference = None;
    for threads in [1usize, 4] {
        pool::set_threads(threads);
        let run = |coalesce: bool| {
            let mut pipe = pipeline(&world, 1);
            let cfg = FrontendConfig { coalesce, ..FrontendConfig::default() };
            run_load(&mut pipe, &world, &arrivals, &cfg)
        };
        let batched = run(true);
        let sequential = run(false);
        // The microbatching must actually engage, or the pin is vacuous.
        assert!(
            batched.summary.batches < batched.summary.admitted,
            "no batch ever coalesced >1 request: {:?}",
            batched.summary
        );
        assert_eq!(batched.summary.batches, sequential.summary.batches);
        assert_eq!(batched.summary.max_queue_depth, sequential.summary.max_queue_depth);
        assert_eq!(batched.summary.sim_end_ns, sequential.summary.sim_end_ns);
        let sig = signature(&batched);
        assert_eq!(
            sig,
            signature(&sequential),
            "coalesced and per-request scoring diverged at {threads} threads"
        );
        // ... and across thread counts.
        match &reference {
            None => reference = Some(sig),
            Some(r) => assert_eq!(r, &sig, "front-end diverged across thread counts"),
        }
    }
    pool::set_threads(0);
}

/// Contract 2: with `max_batch = 1`, an unbounded queue, and a budget no
/// request can breach, the front-end serves exactly what the sequential
/// `serve()` loop serves — same requests, same rngs, same exposures, to
/// the bit.
#[test]
fn unit_batch_frontend_collapses_onto_sequential_serve() {
    let world = World::generate(WorldConfig::tiny());
    let arrivals = generate_arrivals(
        &world,
        &ArrivalConfig { qps: 150.0, duration_ns: 2_000_000_000, ..ArrivalConfig::default() },
    );
    assert!(arrivals.len() > 50);

    let mut front = pipeline(&world, 2);
    front.set_deadline_policy(DeadlinePolicy {
        budget_ns: u64::MAX / 2,
        ..DeadlinePolicy::default()
    });
    let cfg = FrontendConfig {
        queue_capacity: arrivals.len().max(1),
        max_batch: 1,
        coalesce: true,
        cost: CostModel::default(),
    };
    let out = run_load(&mut front, &world, &arrivals, &cfg);
    assert_eq!(out.summary.admitted, arrivals.len());
    assert_eq!(out.summary.deadline_shed, 0);

    let mut seq = pipeline(&world, 2);
    assert_eq!(out.completed.len(), arrivals.len());
    for (c, a) in out.completed.iter().zip(arrivals.iter()) {
        let req = Request { uid: a.uid, day: a.day, hour: a.hour, geo: a.geo };
        let mut rng = Prng::seeded(a.seed);
        let want = seq.serve(&world, req, &mut rng).expect("in-range request");
        assert_eq!(c.shed, ShedReason::None);
        assert_eq!(
            c.exposures.len(),
            want.len(),
            "arrival {} diverged from the sequential pipeline",
            c.arrival
        );
        for (got, want) in c.exposures.iter().zip(want.iter()) {
            assert_eq!((got.item, got.position), (want.item, want.position));
            assert_eq!(got.score.to_bits(), want.score.to_bits());
        }
    }
}

/// Contract 3: drive far more load than the simulated server can take.
/// Arrivals beyond the queue bound shed at the door; admitted requests
/// whose wait makes the deadline hopeless degrade to the statistics prior;
/// and availability stays 100% — every admitted request is answered with a
/// non-empty exposure list.
#[test]
fn overload_sheds_at_the_door_and_degrades_at_the_deadline() {
    let world = World::generate(WorldConfig::tiny());
    let arrivals = generate_arrivals(
        &world,
        &ArrivalConfig { qps: 500.0, duration_ns: 1_000_000_000, ..ArrivalConfig::default() },
    );
    let cfg = FrontendConfig {
        queue_capacity: 8,
        max_batch: 2,
        coalesce: true,
        // A deliberately slow simulated server: ~25 QPS capacity against
        // ~500 QPS offered.
        cost: CostModel {
            assemble_ns: 1_000_000,
            batch_ns: 50_000_000,
            row_ns: 1_000_000,
            prior_ns: 100_000,
        },
    };
    let mut pipe = pipeline(&world, 3);
    let out = run_load(&mut pipe, &world, &arrivals, &cfg);
    let s = &out.summary;

    assert_eq!(s.offered, arrivals.len());
    assert_eq!(s.admitted + s.shed_queue_full, s.offered, "arrivals must be accounted for");
    assert!(s.shed_queue_full > 0, "the bounded queue never filled: {s:?}");
    assert!(s.deadline_shed > 0, "no request ever hit the deadline check: {s:?}");
    assert!(s.max_queue_depth <= cfg.queue_capacity);

    // 100% availability for admitted traffic, degraded or not.
    assert_eq!(s.completed, s.admitted);
    assert_eq!(s.rejected, 0);
    assert_eq!(s.model_served + s.deadline_shed + s.fault_shed, s.completed);
    for c in &out.completed {
        assert!(
            !c.exposures.is_empty(),
            "request {} got an empty response under overload",
            c.arrival
        );
        if c.shed == ShedReason::Deadline {
            assert!(c.exposures.iter().all(|e| e.score.is_finite()));
        }
    }
}

/// Contract 4 (`faults` feature): a hot fault profile on top of batching.
/// Hop faults fire constantly, stale/empty histories and partial/empty
/// recalls flow through the microbatch, scorer errors shed to the prior —
/// and the whole thing still answers every admitted request and replays
/// bit-for-bit with a same-seeded injector.
#[cfg(feature = "faults")]
#[test]
fn hot_fault_profile_degrades_but_answers_every_admitted_request() {
    let world = World::generate(WorldConfig::tiny());
    let arrivals = generate_arrivals(
        &world,
        &ArrivalConfig { qps: 300.0, duration_ns: 1_000_000_000, ..ArrivalConfig::default() },
    );
    let run = || {
        let mut pipe = pipeline(&world, 4);
        pipe.set_faults(Some(FaultInjector::new(FaultProfile::uniform(0.5), 7)));
        run_load(&mut pipe, &world, &arrivals, &FrontendConfig::default())
    };
    let out = run();
    let s = &out.summary;
    assert_eq!(s.completed, s.admitted, "faults must never drop an admitted request");
    assert!(s.fault_shed > 0, "a 50% scorer-error rate never shed: {s:?}");
    for c in &out.completed {
        assert!(!c.exposures.is_empty(), "request {} got an empty response", c.arrival);
    }
    // Same injector seed, same schedule → same run, to the bit.
    assert_eq!(signature(&out), signature(&run()), "fault-injected run is not deterministic");
}
