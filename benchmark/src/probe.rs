//! Re-derivation of served requests through the library's public stages:
//! `LbsRecall::candidates`, `FeatureServer::history_snapshot`,
//! `append_example` + `Dataset::batch`, `predict` on the served model, and
//! the benchmark's reference ranker. The serve and microbatch checks compare
//! the library's output with it, and a traced run times each stage.

use basm_core::model::predict;
use basm_data::{append_example, Batch, Context, Dataset, TimePeriod, World};
use basm_serving::{Arrival, LbsRecall, ServingPipeline};
use basm_tensor::Prng;

use crate::rank::{self, Ranked};
use crate::trace::Tracer;

/// Recall depth of every served request.
pub const POOL: usize = 30;
/// Exposure-list length of every served request.
pub const TOP_K: usize = 10;

/// Each request's top-k, and the one batch all their candidate rows were
/// scored in. Runs before the library serves them, so both read the same
/// feature state. Records `recall` and `feature_fetch` spans per request and
/// `assemble`, `forward` and `rank` spans for the batch, under `parent`.
pub fn rederive(
    pipe: &mut ServingPipeline,
    recall: &LbsRecall,
    world: &World,
    reqs: &[Arrival],
    tr: &mut Tracer,
    unit: u64,
    parent: Option<usize>,
) -> (Vec<Vec<Ranked>>, Batch) {
    let mut cands = Vec::with_capacity(reqs.len());
    let mut histories = Vec::with_capacity(reqs.len());
    for a in reqs {
        let city = world.users[a.uid].city;
        let mut rng = Prng::seeded(a.seed);
        cands.push(tr.time("recall", unit, parent, || {
            recall.candidates(city, a.geo, POOL, &mut rng)
        }));
        histories.push(tr.time("feature_fetch", unit, parent, || {
            pipe.features.history_snapshot(a.uid)
        }));
    }
    let batch = tr.time("assemble", unit, parent, || {
        pipe.features.with_counters(|c| {
            let mut ds = Dataset::empty(world.config.clone());
            for ((a, cs), h) in reqs.iter().zip(&cands).zip(&histories) {
                let ctx = Context {
                    day: a.day,
                    hour: a.hour,
                    tp: TimePeriod::from_hour(a.hour),
                    city: world.users[a.uid].city,
                    geo: a.geo,
                    position: 0,
                };
                for &iid in cs {
                    append_example(&mut ds, world, a.uid, iid, ctx, 0, false, 0.0, h, c);
                }
            }
            ds.batch(&(0..ds.len()).collect::<Vec<_>>())
        })
    });
    let scores = tr.time("forward", unit, parent, || {
        predict(pipe.model.as_mut(), &batch)
    });
    let top = tr.time("rank", unit, parent, || {
        let mut off = 0;
        cands
            .iter()
            .map(|cs| {
                let t = rank::top_k(&scores[off..off + cs.len()], cs, TOP_K);
                off += cs.len();
                t
            })
            .collect()
    });
    (top, batch)
}
