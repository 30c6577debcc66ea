//! The degradation ladder's contract (DESIGN.md §8):
//!
//! 1. **Invisibility at rate zero** — a zero-rate injector produces bitwise
//!    identical exposures to no injector at all (whose exposures
//!    `pipeline.rs` pins directly).
//! 2. **No panics, ever** — property test over arbitrary fault profiles,
//!    deadline policies, and request streams (including out-of-range
//!    requests, which must come back as typed errors).
//! 3. **The ladder actually degrades** — total outage still serves from the
//!    city-popularity + statistics-prior rungs; a breached deadline swaps
//!    the model's scores for the prior's.
//! 4. **The A/B loop runs degraded** — a closed-loop A/B with both arms
//!    faulting still tallies consistently and replays bit for bit.

use basm_baselines::build_model;
use basm_data::{World, WorldConfig};
use basm_serving::faults::{FaultInjector, FaultProfile};
use basm_serving::{run_ab_test, AbConfig, DeadlinePolicy, Request, ServingPipeline};
use basm_tensor::Prng;
use proptest::prelude::*;

fn pipeline(world: &World, pool: usize, top_k: usize) -> ServingPipeline {
    ServingPipeline::new(world, build_model("Wide&Deep", &world.config, 1), pool, top_k)
}

fn requests(world: &World, n: usize) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let uid = i % world.users.len();
            Request {
                uid,
                day: (i / 7) as u16,
                hour: (7 + 2 * i as u8) % 24,
                geo: world.users[uid].geo,
            }
        })
        .collect()
}

/// Rung-zero pin: attaching an injector whose profile never fires must not
/// change a single exposure relative to running without one: the extra
/// clock/injector plumbing must be invisible.
#[test]
fn zero_rate_schedule_is_bitwise_identical_to_no_injector() {
    let cfg = WorldConfig::tiny();
    let world = World::generate(cfg.clone());

    let mut plain = pipeline(&world, 12, 5);
    let mut zero = pipeline(&world, 12, 5);
    zero.set_faults(Some(FaultInjector::new(FaultProfile::zero(), 99)));

    let mut rng_a = Prng::seeded(7);
    let mut rng_b = Prng::seeded(7);
    for req in requests(&world, 60) {
        let a = plain.serve(&world, req, &mut rng_a).expect("in-range");
        let b = zero.serve(&world, req, &mut rng_b).expect("in-range");
        assert_eq!(a, b, "zero-rate injector changed the serving path for {req:?}");
    }
    // Both arms recorded the same exposures, so their online state agrees too.
    let plain_expo = plain.features.with_counters(|c| c.item_exposures.clone());
    let zero_expo = zero.features.with_counters(|c| c.item_exposures.clone());
    assert_eq!(plain_expo, zero_expo);
}

/// Total outage of every hop: the ladder has to bottom out at
/// city-popularity recall + the statistics-prior ranker and still serve.
#[test]
fn total_outage_still_serves_from_the_bottom_rungs() {
    let cfg = WorldConfig::tiny();
    let world = World::generate(cfg.clone());
    let mut pipe = pipeline(&world, 10, 4);
    pipe.set_faults(Some(FaultInjector::new(FaultProfile::uniform(1.0), 3)));

    let mut rng = Prng::seeded(5);
    for req in requests(&world, 20) {
        let exposures = pipe.serve(&world, req, &mut rng).expect("in-range");
        assert!(
            !exposures.is_empty(),
            "a fully degraded pipeline must still expose items for {req:?}"
        );
        for w in exposures.windows(2) {
            assert!(w[0].score >= w[1].score, "degraded ranking must stay score-descending");
        }
    }
}

/// A stalled scorer with no budget left must fall back to the statistics
/// prior: exposure scores become the smoothed item CTRs, not model outputs.
#[test]
fn deadline_breach_swaps_model_scores_for_the_prior() {
    let cfg = WorldConfig::tiny();
    let world = World::generate(cfg.clone());
    let mut pipe = pipeline(&world, 8, 4);
    // Warm the counters so the prior is not all-zero.
    for iid in 0..world.items.len() as u32 {
        pipe.features.record_exposure(iid);
    }
    let mut profile = FaultProfile::zero();
    profile.scorer_stall = 1.0;
    pipe.set_faults(Some(FaultInjector::new(profile.clone(), 11)));
    // Budget too small for even one nominal scorer pass after the first two
    // hops: scoring must not be attempted at all.
    pipe.set_deadline_policy(DeadlinePolicy {
        budget_ns: profile.feature_cost_ns + profile.recall_cost_ns + profile.scorer_cost_ns / 2,
        max_retries: 0,
        backoff_ns: 0,
    });

    let req = Request { uid: 0, day: 0, hour: 12, geo: world.users[0].geo };
    let mut rng = Prng::seeded(9);
    let exposures = pipe.serve(&world, req, &mut rng).expect("in-range");
    assert!(!exposures.is_empty());
    let prior = pipe.features.with_counters(|c| {
        exposures
            .iter()
            .map(|e| {
                c.item_clicks[e.item as usize] as f32
                    / (c.item_exposures[e.item as usize] as f32 + 10.0)
            })
            .collect::<Vec<f32>>()
    });
    for (e, p) in exposures.iter().zip(&prior) {
        // record_exposure ran after scoring, so the prior recomputed now
        // differs only through that one extra exposure.
        let before = pipe.features.with_counters(|c| {
            c.item_clicks[e.item as usize] as f32
                / (c.item_exposures[e.item as usize] as f32 - 1.0 + 10.0)
        });
        assert_eq!(e.score, before, "breached request must carry prior scores, got {p}");
    }
}

/// Partial recall serves the half of the pool that answered.
#[test]
fn partial_recall_halves_the_candidate_set() {
    let cfg = WorldConfig::tiny();
    let world = World::generate(cfg.clone());

    let mut plain = pipeline(&world, 12, 12);
    let mut partial = pipeline(&world, 12, 12);
    let mut profile = FaultProfile::zero();
    profile.recall_partial = 1.0;
    partial.set_faults(Some(FaultInjector::new(profile, 4)));

    let req = Request { uid: 1, day: 0, hour: 19, geo: world.users[1].geo };
    let full = plain.serve(&world, req, &mut Prng::seeded(3)).expect("in-range");
    let half = partial.serve(&world, req, &mut Prng::seeded(3)).expect("in-range");
    assert_eq!(half.len(), full.len().div_ceil(2), "partial recall should halve the pool");
}

/// Contract 4: the closed-loop A/B with both arms under a 5% fault rate on
/// every hop. Each arm's segment and city tallies add up to its day totals,
/// both CTRs stay proper rates, and a same-seed rerun is bit-identical.
#[test]
fn ab_test_under_faults_tallies_consistently_and_replays() {
    let cfg = WorldConfig::tiny();
    let world = World::generate(cfg.clone());
    let ab = AbConfig { days: 2, sessions_per_day: 80, recall_pool: 10, top_k: 4, seed: 3 };
    let run = || {
        let mut base = ServingPipeline::new(&world, build_model("Wide&Deep", &cfg, 1), 10, 4);
        let mut treat = ServingPipeline::new(&world, build_model("DIN", &cfg, 2), 10, 4);
        base.set_faults(Some(FaultInjector::new(FaultProfile::uniform(0.05), 11)));
        treat.set_faults(Some(FaultInjector::new(FaultProfile::uniform(0.05), 12)));
        let res = run_ab_test(&world, &mut base, &mut treat, &ab);
        let counters = |p: &ServingPipeline| {
            p.features.with_counters(|c| (c.item_exposures.clone(), c.item_clicks.clone()))
        };
        (res, counters(&base), counters(&treat))
    };
    let (res, base_counters, treat_counters) = run();
    assert_eq!(res.days.len(), ab.days);
    let (bctr, tctr, _) = res.overall();
    assert!(bctr > 0.0 && bctr < 1.0, "base CTR {bctr} outside (0, 1)");
    assert!(tctr > 0.0 && tctr < 1.0, "treatment CTR {tctr} outside (0, 1)");
    let sum = |ts: &[basm_serving::Tally]| -> (u64, u64) {
        ts.iter().fold((0, 0), |(e, c), t| (e + t.exposures, c + t.clicks))
    };
    let base_days: Vec<_> = res.days.iter().map(|d| d.base).collect();
    let treat_days: Vec<_> = res.days.iter().map(|d| d.treatment).collect();
    for seg in [&res.by_time_period, &res.by_city] {
        assert_eq!(sum(&seg.base), sum(&base_days), "base segments vs days: {:?}", seg.labels);
        assert_eq!(sum(&seg.treatment), sum(&treat_days), "treatment segments vs days");
    }

    let (again, base_again, treat_again) = run();
    assert_eq!(format!("{res:?}"), format!("{again:?}"), "fault-injected A/B did not replay");
    assert_eq!(base_counters, base_again);
    assert_eq!(treat_counters, treat_again);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `serve` never panics: arbitrary per-class fault rates, arbitrary
    /// (possibly absurd) deadline policies, arbitrary request streams with
    /// out-of-range users and cells mixed in. Valid requests serve (possibly
    /// degraded); invalid ones come back as typed errors.
    #[test]
    fn serve_never_panics_under_arbitrary_fault_schedules(
        feature_timeout in 0.0f64..1.0,
        feature_stale in 0.0f64..1.0,
        recall_empty in 0.0f64..1.0,
        recall_partial in 0.0f64..1.0,
        scorer_error in 0.0f64..1.0,
        scorer_stall in 0.0f64..1.0,
        seed in 0u64..1_000,
        budget_ms in 0u64..400,
        max_retries in 0u32..4,
        n_requests in 1usize..40,
    ) {
        let cfg = WorldConfig::tiny();
        let world = World::generate(cfg.clone());
        let mut profile = FaultProfile::uniform(0.0);
        profile.feature_timeout = feature_timeout;
        profile.feature_stale = feature_stale;
        profile.recall_empty = recall_empty;
        profile.recall_partial = recall_partial;
        profile.scorer_error = scorer_error;
        profile.scorer_stall = scorer_stall;

        let mut pipe = pipeline(&world, 10, 5);
        pipe.set_faults(Some(FaultInjector::new(profile, seed)));
        pipe.set_deadline_policy(DeadlinePolicy {
            budget_ns: budget_ms * 1_000_000,
            max_retries,
            backoff_ns: 5_000_000,
        });

        let mut rng = Prng::seeded(seed ^ 0xDEAD);
        for i in 0..n_requests {
            // Every third request is deliberately out of range.
            let (uid, geo) = match i % 3 {
                0 => (i % world.users.len(), world.users[i % world.users.len()].geo),
                1 => (world.users.len() + i, (0, 0)),
                _ => (i % world.users.len(), (u8::MAX, u8::MAX - 1)),
            };
            let req = Request { uid, day: 0, hour: (i % 24) as u8, geo };
            match pipe.serve(&world, req, &mut rng) {
                Ok(exposures) => {
                    prop_assert!(i % 3 == 0, "out-of-range request served: {req:?}");
                    prop_assert!(exposures.len() <= 5);
                    for (rank, e) in exposures.iter().enumerate() {
                        prop_assert_eq!(e.position as usize, rank);
                    }
                }
                Err(_) => prop_assert!(i % 3 != 0, "in-range request refused: {req:?}"),
            }
        }
    }
}
