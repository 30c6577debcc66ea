//! Serve-level reference pin: under arbitrary interleavings of clicks,
//! history seeds and requests, every exposure `ServingPipeline::serve`
//! returns carries exactly the score a from-scratch re-derivation gives
//! that item, to the bit.
//!
//! The oracle runs the library's public stages by hand, before the request
//! is served (so both read the same feature state): `LbsRecall::candidates`
//! on the request's own rng seed, one `append_example` row per candidate
//! built from the pre-request `history_snapshot` and counters, and
//! `predict` on the pipeline's own model. Any cache, stale read or second
//! assembly path between the feature server and the model shows up here as
//! a score mismatch. The suite runs on embedding tables that own their
//! records and on the same tables attached to a pack directory, and the two
//! must serve the same exposures to the bit.

use basm_baselines::build_model;
use basm_core::model::predict;
use basm_data::{append_example, BehaviorEvent, Context, Dataset, TimePeriod, World, WorldConfig};
use basm_serving::{LbsRecall, Request, ServingPipeline};
use basm_tensor::{packstore, Prng};
use proptest::prelude::*;

const POOL: usize = 12;
const TOP_K: usize = 5;

/// A BASM pipeline whose embedding tables own their records, or are
/// exported to `dir` and attached to it. Tests must not inherit an ambient
/// injector from `BASM_FAULTS`.
fn pipeline(world: &World, attach_to: Option<&std::path::Path>) -> ServingPipeline {
    let mut model = build_model("BASM", &world.config, 1);
    if let Some(dir) = attach_to {
        let store = &mut model.embedder().emb;
        store.export_pack_dir(dir).unwrap();
        store.attach_pack_dir(dir).unwrap();
    }
    #[allow(unused_mut)]
    let mut pipe = ServingPipeline::new(world, model, POOL, TOP_K);
    #[cfg(feature = "faults")]
    pipe.set_faults(None);
    let in_dir = pipe.model.embedder().emb.tables().all(|t| t.pack().dir() == attach_to);
    assert!(in_dir, "store not attached as asked");
    pipe
}

/// A click event for `item` consistent with the world's item profile.
fn click_event(world: &World, item: u32, hour: u8) -> BehaviorEvent {
    let item = item % world.items.len() as u32;
    let it = &world.items[item as usize];
    BehaviorEvent {
        item,
        cat: it.category,
        brand: it.brand,
        tp: TimePeriod::from_hour(hour).index() as u8,
        hour,
        city: it.city,
        gx: it.geo.0,
        gy: it.geo.1,
    }
}

/// The oracle's `(item, score)` pairs for `req`, in candidate order.
fn reference_scores(
    pipe: &mut ServingPipeline,
    recall: &LbsRecall,
    world: &World,
    req: Request,
    seed: u64,
) -> Vec<(u32, f32)> {
    let city = world.users[req.uid].city;
    let candidates = recall.candidates(city, req.geo, POOL, &mut Prng::seeded(seed));
    if candidates.is_empty() {
        return Vec::new();
    }
    let history = pipe.features.history_snapshot(req.uid);
    let ctx = Context {
        day: req.day,
        hour: req.hour,
        tp: TimePeriod::from_hour(req.hour),
        city,
        geo: req.geo,
        position: 0,
    };
    let batch = pipe.features.with_counters(|c| {
        let mut ds = Dataset::empty(world.config.clone());
        for &iid in &candidates {
            append_example(&mut ds, world, req.uid, iid, ctx, 0, false, 0.0, &history, c);
        }
        ds.batch(&(0..ds.len()).collect::<Vec<_>>())
    });
    let scores = predict(pipe.model.as_mut(), &batch);
    candidates.into_iter().zip(scores).collect()
}

/// Serve `req` and check it against the oracle: every exposure's score bits
/// equal the oracle's score for that item, and the list is the oracle's
/// top-k (score-descending, ties in candidate order). Returns the served
/// `(item, score bits)` pairs.
fn serve_and_check(
    pipe: &mut ServingPipeline,
    recall: &LbsRecall,
    world: &World,
    req: Request,
    seed: u64,
) -> Result<Vec<(u32, u32)>, String> {
    let oracle = reference_scores(pipe, recall, world, req, seed);
    let served = pipe.serve(world, req, &mut Prng::seeded(seed)).expect("in-range request");
    for e in &served {
        let want = oracle.iter().find(|(item, _)| *item == e.item).map(|(_, s)| s.to_bits());
        prop_assert_eq!(
            Some(e.score.to_bits()),
            want,
            "item {} served with score {} for {:?}",
            e.item,
            e.score,
            req
        );
    }
    let mut ranked = oracle.clone();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let want: Vec<u32> = ranked.iter().take(TOP_K).map(|(item, _)| *item).collect();
    let got: Vec<u32> = served.iter().map(|e| e.item).collect();
    prop_assert_eq!(got, want, "exposure list is not the oracle's top-k for {:?}", req);
    Ok(served.iter().map(|e| (e.item, e.score.to_bits())).collect())
}

/// One step of the op-interleaving property test.
#[derive(Debug, Clone)]
enum Op {
    /// Serve a request for `uid` at `hour`.
    Serve { uid: usize, hour: u8 },
    /// Record a click for `uid` on `item`.
    Click { uid: usize, item: u32, ordered: bool },
    /// Seed `n` events into `uid`'s history.
    Seed { uid: usize, n: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Serve-heavy mix (kind 0-2 serve, 3-4 click, 5 seed); uids are folded
    // into a handful of users so requests repeat between writes.
    (0u32..6, 0usize..6, 0u32..10_000, 0u8..24).prop_map(|(kind, uid, item, hour)| {
        match kind {
            0..=2 => Op::Serve { uid, hour },
            3 | 4 => Op::Click { uid, item, ordered: item % 3 == 0 },
            _ => Op::Seed { uid, n: 1 + item as usize % 5 },
        }
    })
}

/// Every exposure a run served, as `(item, score bits)`, in serve order.
type Served = Vec<(u32, u32)>;

/// Apply `ops` to a fresh pipeline, attached to a pack directory or not,
/// checking every serve. Returns every exposure served.
fn run_ops(world: &World, attached: bool, ops: &[Op], seed: u64) -> Result<Served, String> {
    let dir = attached.then(packstore::fresh_temp_dir);
    let served = serve_ops(world, dir.as_deref(), ops, seed);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    served
}

fn serve_ops(
    world: &World,
    attach_to: Option<&std::path::Path>,
    ops: &[Op],
    seed: u64,
) -> Result<Served, String> {
    let mut pipe = pipeline(world, attach_to);
    let recall = LbsRecall::build(world);
    let mut served = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Serve { uid, hour } => {
                let req = Request { uid, day: 0, hour, geo: world.users[uid].geo };
                served.extend(serve_and_check(&mut pipe, &recall, world, req, seed ^ i as u64)?);
            }
            Op::Click { uid, item, ordered } => {
                let event = click_event(world, item, (item % 24) as u8);
                pipe.features.record_click(uid, event, ordered);
            }
            Op::Seed { uid, n } => {
                let events = (0..n).map(|j| click_event(world, (uid + 7 * j) as u32, 9));
                pipe.features.seed_history(uid, events);
            }
        }
    }
    Ok(served)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Writes land on the very next request, and a served score is never
    /// anything but the from-scratch score — on owned and attached tables
    /// alike, which serve the same exposures.
    #[test]
    fn served_scores_equal_the_reference_under_interleaved_writes(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        seed in 0u64..1_000,
    ) {
        let world = World::generate(WorldConfig::tiny());
        let owned = run_ops(&world, false, &ops, seed)?;
        let attached = run_ops(&world, true, &ops, seed)?;
        prop_assert_eq!(owned, attached, "attached tables served other exposures");
    }
}

/// Session-shaped traffic: the same users ask again after their own clicks
/// land, so a pipeline that served pre-click history would be caught.
#[test]
fn repeat_requests_after_clicks_match_the_reference() {
    let world = World::generate(WorldConfig::tiny());
    let mut ops = Vec::new();
    for round in 0..3u32 {
        for uid in 0..4usize {
            ops.push(Op::Serve { uid, hour: 12 + uid as u8 });
            ops.push(Op::Click { uid, item: round * 11 + uid as u32, ordered: uid % 2 == 0 });
            ops.push(Op::Serve { uid, hour: 12 + uid as u8 });
        }
    }
    let owned = run_ops(&world, false, &ops, 5).expect("reference pin");
    assert!(!owned.is_empty(), "no exposures served; the pin is vacuous");
    let attached = run_ops(&world, true, &ops, 5).expect("reference pin");
    assert_eq!(owned, attached, "attached tables served other exposures");
}
