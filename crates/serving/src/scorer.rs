//! RTP-like scorer: assembles serving-time features for (user, candidates,
//! context) through the same materialization path as offline training
//! ([`append_example`]) and runs model inference. There is one entry point,
//! [`score_microbatch`]: a single request is a batch of one job.

use basm_core::model::{predict, CtrModel};
use basm_data::{append_example, BehaviorEvent, Context, Dataset, StatCounters, World};
use basm_tensor::pool;
use std::collections::VecDeque;

/// One request's slice of a cross-request microbatch (borrowed views — the
/// coalescer owns the data).
pub struct ScoreJob<'a> {
    /// Requesting user index.
    pub uid: usize,
    /// The request's candidate items.
    pub candidates: &'a [u32],
    /// Request context (position is overridden to 0 at scoring time).
    pub ctx: Context,
    /// The user's behavior history at request time.
    pub history: &'a VecDeque<BehaviorEvent>,
}

/// Score the candidates of one or more requests in **one** model pass: every
/// candidate row from every job is assembled into a single batch, run
/// through one forward, and the flat score vector is split back per job.
/// `position` is unknown at scoring time, so every candidate is scored at
/// position 0 (production convention); the position feature only takes real
/// values in logged training data.
///
/// Per-row bitwise contract (pinned by `tests/frontend_determinism.rs`):
/// each row's score is identical to what a one-job call produces for that
/// request alone against the same `counters`. Inference touches no
/// cross-row state — matmuls accumulate per output row in a fixed k-order
/// regardless of batch height, batch norm runs on running statistics, and
/// the sequence ops reduce within a row — so coalescing changes wall-clock
/// only, never bits. (Within a microbatch all jobs see the *same* counter
/// snapshot; the caller defers exposure write-back until after the pass.)
pub fn score_microbatch(
    model: &mut dyn CtrModel,
    world: &World,
    jobs: &[ScoreJob<'_>],
    counters: &StatCounters,
) -> Vec<Vec<f32>> {
    let total: usize = jobs.iter().map(|j| j.candidates.len()).sum();
    if total == 0 {
        return jobs.iter().map(|_| Vec::new()).collect();
    }
    let _span = basm_obs::span!("serving.microbatch", jobs = jobs.len(), rows = total);
    // Per-pass and per-stage latency distributions (`serving.*_ns`
    // histograms, p50/p90/p99 via `basm_obs::report`).
    let _e2e = basm_obs::hist_timer("serving.e2e_ns");
    let batch = {
        let _t = basm_obs::hist_timer("serving.assemble_ns");
        let mut ds = Dataset::empty(world.config.clone());
        for job in jobs {
            for &iid in job.candidates {
                let scoring_ctx = Context { position: 0, ..job.ctx };
                append_example(
                    &mut ds, world, job.uid, iid, scoring_ctx, 0, false, 0.0, job.history,
                    counters,
                );
            }
        }
        let indices: Vec<usize> = (0..total).collect();
        ds.batch(&indices)
    };
    let flat = {
        let _t = basm_obs::hist_timer("serving.predict_ns");
        predict(model, &batch)
    };
    let mut flat = flat.into_iter();
    jobs.iter().map(|job| flat.by_ref().take(job.candidates.len()).collect()).collect()
}

/// One scoring request: a user, their candidate items and request context.
#[derive(Debug, Clone)]
pub struct SessionRequest {
    /// Requesting user index.
    pub uid: usize,
    /// Candidate item ids.
    pub candidates: Vec<u32>,
    /// Request context (position is overridden to 0 at scoring time).
    pub ctx: Context,
    /// The user's behavior history at request time.
    pub history: VecDeque<BehaviorEvent>,
}

impl SessionRequest {
    /// This request as a scoring job (borrowed views).
    pub fn job(&self) -> ScoreJob<'_> {
        ScoreJob {
            uid: self.uid,
            candidates: &self.candidates,
            ctx: self.ctx,
            history: &self.history,
        }
    }
}

/// Score many independent sessions, fanning request blocks out across the
/// thread pool, one job per [`score_microbatch`] call.
/// [`CtrModel::forward`] takes `&mut self`, so each worker builds its own
/// model instance via `make_model`; with a deterministic factory (same
/// weights per call) the scores are identical to scoring the requests
/// serially, in request order, for any thread count.
pub fn score_sessions<F>(
    make_model: F,
    world: &World,
    requests: &[SessionRequest],
    counters: &StatCounters,
) -> Vec<Vec<f32>>
where
    F: Fn() -> Box<dyn CtrModel> + Sync,
{
    let n = requests.len();
    if n == 0 {
        return Vec::new();
    }
    let _span = basm_obs::span!("serving.score_sessions", sessions = n);
    let threads = if pool::in_pool() { 1 } else { pool::num_threads().min(n) };
    let chunks: Vec<&[SessionRequest]> = requests.chunks(n.div_ceil(threads)).collect();
    let parts = pool::par_map(&chunks, |chunk| {
        let mut model = make_model();
        chunk
            .iter()
            .map(|req| score_microbatch(model.as_mut(), world, &[req.job()], counters).remove(0))
            .collect::<Vec<Vec<f32>>>()
    });
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use basm_baselines::build_model;
    use basm_data::{TimePeriod, WorldConfig};

    /// Score one request alone: a batch of one job.
    fn score_one(
        model: &mut dyn CtrModel,
        world: &World,
        req: &SessionRequest,
        c: &StatCounters,
    ) -> Vec<f32> {
        score_microbatch(model, world, &[req.job()], c).remove(0)
    }

    #[test]
    fn scores_match_candidate_count_and_are_probabilities() {
        let cfg = WorldConfig::tiny();
        let world = World::generate(cfg.clone());
        let mut model = build_model("DIN", &cfg, 1);
        let counters = StatCounters::new(cfg.n_users, cfg.n_items);
        let req = SessionRequest {
            uid: 0,
            candidates: vec![1, 2, 3],
            ctx: Context {
                day: 0,
                hour: 12,
                tp: TimePeriod::Lunch,
                city: world.users[0].city,
                geo: world.users[0].geo,
                position: 3, // scoring must override this to 0 internally
            },
            history: VecDeque::new(),
        };
        let scores = score_one(model.as_mut(), &world, &req, &counters);
        assert_eq!(scores.len(), 3);
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    /// Coalescing must never change a row: every job's scores out of one
    /// big microbatch pass must be bitwise identical to scoring that job
    /// alone (same counters, same history).
    #[test]
    fn microbatch_rows_bitwise_match_per_request_scoring() {
        let cfg = WorldConfig::tiny();
        let world = World::generate(cfg.clone());
        let mut counters = StatCounters::new(cfg.n_users, cfg.n_items);
        // Non-trivial counters so the dense statistics features are not all
        // zero.
        for i in 0..cfg.n_items {
            counters.item_exposures[i] = (i as u32 * 7) % 50;
            counters.item_clicks[i] = (i as u32 * 3) % 11;
        }
        let ev = |item: u32| basm_data::BehaviorEvent {
            item,
            cat: (item as usize % cfg.n_categories) as u16,
            brand: (item as usize % cfg.n_brands) as u16,
            tp: (item % 5) as u8,
            hour: (item % 24) as u8,
            city: (item as usize % cfg.n_cities) as u16,
            gx: (item as usize % cfg.geo_grid) as u8,
            gy: (item as usize % cfg.geo_grid) as u8,
        };
        let histories: Vec<VecDeque<_>> = vec![
            VecDeque::new(),
            (0..3).map(|i| ev(i)).collect(),
            (0..10).map(|i| ev(i * 2 + 1)).collect(),
        ];
        let jobs_data: Vec<(usize, Vec<u32>)> =
            vec![(0, vec![1, 2, 3, 4]), (1, vec![9]), (2, vec![5, 6, 7, 8, 10, 11, 12])];
        let ctx_for = |uid: usize| Context {
            day: 0,
            hour: 12,
            tp: TimePeriod::Lunch,
            city: world.users[uid].city,
            geo: world.users[uid].geo,
            position: 0,
        };
        let jobs: Vec<ScoreJob<'_>> = jobs_data
            .iter()
            .zip(histories.iter())
            .map(|((uid, cands), history)| ScoreJob {
                uid: *uid,
                candidates: cands,
                ctx: ctx_for(*uid),
                history,
            })
            .collect();

        let mut coalesced_model = build_model("BASM", &cfg, 1);
        let coalesced = score_microbatch(coalesced_model.as_mut(), &world, &jobs, &counters);

        let mut solo_model = build_model("BASM", &cfg, 1);
        let solo: Vec<Vec<f32>> = jobs
            .chunks(1)
            .flat_map(|j| score_microbatch(solo_model.as_mut(), &world, j, &counters))
            .collect();

        let bits =
            |v: &Vec<Vec<f32>>| -> Vec<Vec<u32>> {
                v.iter().map(|r| r.iter().map(|s| s.to_bits()).collect()).collect()
            };
        assert_eq!(bits(&coalesced), bits(&solo), "coalescing changed a scored row");
    }

    #[test]
    fn parallel_sessions_match_serial_loop() {
        let cfg = WorldConfig::tiny();
        let world = World::generate(cfg.clone());
        let counters = StatCounters::new(cfg.n_users, cfg.n_items);
        let requests: Vec<SessionRequest> = (0..7)
            .map(|u| SessionRequest {
                uid: u,
                candidates: vec![1 + u as u32, 2 + u as u32, 5],
                ctx: Context {
                    day: 0,
                    hour: 19,
                    tp: TimePeriod::Dinner,
                    city: world.users[u].city,
                    geo: world.users[u].geo,
                    position: 0,
                },
                history: VecDeque::new(),
            })
            .collect();
        let make_model = || build_model("DIN", &cfg, 1);
        let mut serial_model = make_model();
        let serial: Vec<Vec<f32>> = requests
            .iter()
            .map(|r| score_one(serial_model.as_mut(), &world, r, &counters))
            .collect();
        basm_tensor::pool::set_threads(4);
        let parallel = score_sessions(make_model, &world, &requests, &counters);
        basm_tensor::pool::set_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_candidates_empty_scores() {
        let cfg = WorldConfig::tiny();
        let world = World::generate(cfg.clone());
        let mut model = build_model("Wide&Deep", &cfg, 1);
        let counters = StatCounters::new(cfg.n_users, cfg.n_items);
        let req = SessionRequest {
            uid: 0,
            candidates: Vec::new(),
            ctx: Context {
                day: 0,
                hour: 9,
                tp: TimePeriod::Breakfast,
                city: 0,
                geo: (0, 0),
                position: 0,
            },
            history: VecDeque::new(),
        };
        assert!(score_one(model.as_mut(), &world, &req, &counters).is_empty());
        let jobs = [req.job(), req.job()];
        assert_eq!(score_microbatch(model.as_mut(), &world, &jobs, &counters).len(), 2);
    }
}
