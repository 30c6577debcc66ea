//! TPP-like orchestration (Fig. 13): request → feature server → LBS recall →
//! RTP scoring → top-k exposure.
//!
//! ## Robustness model (DESIGN.md §8)
//!
//! `serve` validates its inputs (typed [`ServeError`] instead of a panic on
//! out-of-range users or cells) and, when an injector is attached
//! (`ServingPipeline::set_faults`), runs every hop under a per-request
//! **deadline budget** against the injector's simulated clock with a
//! **degradation ladder**:
//!
//! 1. **Retry with backoff** — retryable hop faults (feature-fetch timeout,
//!    empty recall, scorer error) are retried up to
//!    [`DeadlinePolicy::max_retries`] times while budget remains.
//! 2. **Stage fallbacks** — when retries are exhausted the request degrades
//!    instead of failing: empty history when the feature server stays down,
//!    city-popularity recall when LBS stays empty, and a statistics-prior
//!    ranker (item click counters the feature server already holds) when the
//!    scorer errors out or the deadline is breached.
//!
//! Every retry, fallback, and breach is counted through `basm-obs`
//! (`serving.retries`, `serving.fault.*`, `serving.fallback.*`,
//! `serving.deadline_breach`). With no injector attached the plain fast path
//! runs; a zero-rate injector is bitwise identical to it (pinned by
//! `tests/fault_ladder.rs`).
//!
//! ## One path
//!
//! A request reads its candidates from [`LbsRecall::candidates`] and its
//! history from a feature-server snapshot, and every model-scored request,
//! healthy or on a degraded rung, goes through one-job [`score_microbatch`]
//! against the current counters, which assembles each candidate row with
//! `append_example`, the function that builds the training log. Nothing is
//! cached between requests (DESIGN.md §12 says why).

use basm_core::model::CtrModel;
use basm_data::{BehaviorEvent, Context, TimePeriod, World};
use basm_tensor::Prng;
use std::collections::VecDeque;

use crate::faults::{FaultInjector, FeatureFault, RecallFault, ScoreFault};
use crate::feature_server::FeatureServer;
use crate::recall::LbsRecall;
use crate::scorer::{score_microbatch, ScoreJob};

/// One exposed item with its rank and model score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exposure {
    /// Item index.
    pub item: u32,
    /// 0-based exposure position. `u16`: a `u8` silently truncated ranks
    /// past 255 when `top_k > 255` (positions wrapped back to 0).
    pub position: u16,
    /// Model probability at scoring time (or the statistics-prior score when
    /// the request degraded past the model).
    pub score: f32,
}

/// Rank `scores` descending and take the first `top_k` as exposures.
///
/// Non-finite scores (NaN, ±inf — a model output can only legitimately be a
/// probability) sink **below every finite score**: under a plain descending
/// `total_cmp` a single NaN ranks above +inf and silently wins position 0.
/// Among themselves non-finite scores keep the `total_cmp` order, so the
/// ranking stays deterministic. Returns the exposures plus the count of
/// non-finite scores seen (callers feed it to `serving.nonfinite_score`).
pub(crate) fn rank_top_k(
    scores: &[f32],
    candidates: &[u32],
    top_k: usize,
) -> (Vec<Exposure>, usize) {
    debug_assert_eq!(scores.len(), candidates.len());
    let nonfinite = scores.iter().filter(|s| !s.is_finite()).count();
    let mut ranked: Vec<(f32, u32)> =
        scores.iter().copied().zip(candidates.iter().copied()).collect();
    ranked.sort_by(|a, b| match (a.0.is_finite(), b.0.is_finite()) {
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        _ => b.0.total_cmp(&a.0),
    });
    let exposures = ranked
        .into_iter()
        .take(top_k.min(1 + u16::MAX as usize))
        .enumerate()
        .map(|(rank, (score, item))| Exposure { item, position: rank as u16, score })
        .collect();
    (exposures, nonfinite)
}

/// An incoming recommendation request.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Requesting user.
    pub uid: usize,
    /// Simulated day (for logging only).
    pub day: u16,
    /// Hour of day.
    pub hour: u8,
    /// Request geohash cell.
    pub geo: (u8, u8),
}

/// A request the pipeline refuses to serve (bad input, not a hop failure —
/// hop failures degrade instead; see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// `uid` is not a user of this world.
    UnknownUser {
        /// The offending user id.
        uid: usize,
        /// Number of users the world holds.
        n_users: usize,
    },
    /// The request cell lies outside the world's geo grid.
    GeoOutOfRange {
        /// The offending cell.
        geo: (u8, u8),
        /// The grid is `grid × grid`.
        grid: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownUser { uid, n_users } => {
                write!(f, "unknown user {uid} (world has {n_users} users)")
            }
            ServeError::GeoOutOfRange { geo, grid } => {
                write!(f, "geo cell {geo:?} outside the {grid}x{grid} grid")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-request latency budget and retry policy for the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlinePolicy {
    /// Total simulated budget per request.
    pub budget_ns: u64,
    /// Retries per hop (on top of the first attempt) for retryable faults.
    pub max_retries: u32,
    /// Simulated pause before each retry.
    pub backoff_ns: u64,
}

impl Default for DeadlinePolicy {
    /// 150 ms budget, 2 retries per hop, 5 ms backoff — generous against the
    /// default nominal hop costs (15 ms total) so a zero-fault request never
    /// comes near the deadline, and tight enough that repeated 40 ms hop
    /// timeouts push a request down the ladder.
    fn default() -> Self {
        Self { budget_ns: 150_000_000, max_retries: 2, backoff_ns: 5_000_000 }
    }
}

/// The replica-lag rung's truncation: keep the oldest three quarters of the
/// history, but always drop at least one trailing event when any exist.
/// (The naive `len - len/4` is a no-op for histories shorter than 4: the
/// stale counter fired but the serving path saw the fully fresh sequence.)
pub(crate) fn stale_keep_len(len: usize) -> usize {
    len.saturating_sub((len / 4).max(usize::from(len > 0)))
}

/// One serving arm: a model plus its online state.
pub struct ServingPipeline {
    /// The ranking model.
    pub model: Box<dyn CtrModel>,
    /// The arm's online feature state.
    pub features: FeatureServer,
    pub(crate) recall: LbsRecall,
    pub(crate) top_k: usize,
    pub(crate) pool: usize,
    pub(crate) policy: DeadlinePolicy,
    pub(crate) faults: Option<FaultInjector>,
}

impl ServingPipeline {
    /// Build an arm for a world. `pool` is the recall depth, `top_k` the
    /// exposure list length.
    ///
    /// The arm starts unjournaled; attach a write-ahead log with
    /// `pipeline.features.attach_journal` (DESIGN.md §13), and fault-free;
    /// attach an injector with [`ServingPipeline::set_faults`].
    pub fn new(world: &World, model: Box<dyn CtrModel>, pool: usize, top_k: usize) -> Self {
        Self {
            model,
            features: FeatureServer::new(
                world.config.n_users,
                world.config.n_items,
                4 * world.config.seq_len,
            ),
            recall: LbsRecall::build(world),
            top_k,
            pool,
            policy: DeadlinePolicy::default(),
            faults: None,
        }
    }

    /// Replace the deadline/retry policy (defaults to
    /// [`DeadlinePolicy::default`]).
    pub fn set_deadline_policy(&mut self, policy: DeadlinePolicy) {
        self.policy = policy;
    }

    /// Attach (or detach, with `None`) a fault injector (module docs).
    pub fn set_faults(&mut self, faults: Option<FaultInjector>) {
        self.faults = faults;
    }

    /// Serve a request: recall → score → rank → expose.
    ///
    /// Returns a typed [`ServeError`] for out-of-range input. Hop failures
    /// never surface here — the degradation ladder absorbs them (module
    /// docs), so a valid request always yields an exposure list (possibly
    /// empty when recall finds nothing).
    pub fn serve(
        &mut self,
        world: &World,
        req: Request,
        rng: &mut Prng,
    ) -> Result<Vec<Exposure>, ServeError> {
        if req.uid >= world.users.len() {
            return Err(ServeError::UnknownUser { uid: req.uid, n_users: world.users.len() });
        }
        let grid = world.config.geo_grid;
        if req.geo.0 as usize >= grid || req.geo.1 as usize >= grid {
            return Err(ServeError::GeoOutOfRange { geo: req.geo, grid });
        }
        if self.faults.is_some() {
            return Ok(self.serve_degraded(world, req, rng));
        }
        Ok(self.serve_fast(world, req, rng))
    }

    /// The fault-free serving path — exactly the pre-ladder pipeline.
    fn serve_fast(&mut self, world: &World, req: Request, rng: &mut Prng) -> Vec<Exposure> {
        let city = world.users[req.uid].city;
        let candidates = self.recall.candidates(city, req.geo, self.pool, rng);
        if candidates.is_empty() {
            return Vec::new();
        }
        let ctx = request_context(city, req);
        let history = self.features.history_snapshot(req.uid);
        let scores = self.model_scores(world, req.uid, &candidates, ctx, &history);
        self.rank_and_expose(scores, candidates)
    }

    /// Run the degradation ladder with the attached injector. The injector
    /// is taken out of `self` for the duration so the ladder can borrow the
    /// pipeline mutably alongside it.
    fn serve_degraded(&mut self, world: &World, req: Request, rng: &mut Prng) -> Vec<Exposure> {
        let mut inj = self.faults.take().expect("serve_degraded requires an injector");
        let out = self.serve_under_faults(world, req, rng, &mut inj);
        self.faults = Some(inj);
        out
    }

    /// The deadline-budgeted ladder: per-hop faults, bounded retries with
    /// backoff against the simulated clock, then stage fallbacks.
    fn serve_under_faults(
        &mut self,
        world: &World,
        req: Request,
        rng: &mut Prng,
        inj: &mut FaultInjector,
    ) -> Vec<Exposure> {
        let policy = self.policy;
        let profile = inj.profile().clone();
        let deadline = inj.clock().now_ns().saturating_add(policy.budget_ns);
        // Can one more retry (backoff + another attempt at nominal cost)
        // still land inside the budget?
        let retry_fits = |inj: &mut FaultInjector, hop_cost_ns: u64| {
            inj.clock().now_ns().saturating_add(policy.backoff_ns + hop_cost_ns) < deadline
        };
        let user_city = world.users[req.uid].city;
        let ctx = request_context(user_city, req);

        // --- ABFS feature fetch: retry timeouts, degrade to stale/empty ---
        let mut attempts = 0u32;
        let history = loop {
            inj.clock().advance(profile.feature_cost_ns);
            match inj.feature_fetch() {
                FeatureFault::Ok => break self.features.history_snapshot(req.uid),
                FeatureFault::Stale => {
                    // A lagging replica answered: the newest quarter of the
                    // sequence hasn't replicated yet. Serve what it has.
                    basm_obs::counter_add("serving.fault.feature_stale", 1);
                    let mut h = self.features.history_snapshot(req.uid);
                    h.truncate(stale_keep_len(h.len()));
                    break h;
                }
                FeatureFault::Timeout => {
                    basm_obs::counter_add("serving.fault.feature_timeout", 1);
                    inj.clock().advance(profile.hop_timeout_ns);
                    if attempts < policy.max_retries && retry_fits(inj, profile.feature_cost_ns) {
                        attempts += 1;
                        basm_obs::counter_add("serving.retries", 1);
                        inj.clock().advance(policy.backoff_ns);
                        continue;
                    }
                    // Ladder rung: serve with an empty behavior sequence.
                    basm_obs::counter_add("serving.fallback.history", 1);
                    break VecDeque::new();
                }
            }
        };

        // --- LBS recall: retry empties, degrade to city popularity ---
        let mut attempts = 0u32;
        let candidates = loop {
            inj.clock().advance(profile.recall_cost_ns);
            match inj.recall() {
                RecallFault::Ok => {
                    break self.recall.candidates(user_city, req.geo, self.pool, rng)
                }
                RecallFault::Partial => {
                    // A shard answered, the rest timed out: serve the half
                    // that arrived.
                    basm_obs::counter_add("serving.fault.recall_partial", 1);
                    let mut c = self.recall.candidates(user_city, req.geo, self.pool, rng);
                    c.truncate(c.len().div_ceil(2));
                    break c;
                }
                RecallFault::Empty => {
                    basm_obs::counter_add("serving.fault.recall_empty", 1);
                    if attempts < policy.max_retries && retry_fits(inj, profile.recall_cost_ns) {
                        attempts += 1;
                        basm_obs::counter_add("serving.retries", 1);
                        inj.clock().advance(policy.backoff_ns);
                        continue;
                    }
                    // Ladder rung: most-clicked items of the user's city.
                    basm_obs::counter_add("serving.fallback.recall", 1);
                    break self.popularity_candidates(user_city);
                }
            }
        };
        if candidates.is_empty() {
            return Vec::new();
        }

        // --- RTP scoring: retry errors, degrade to the statistics prior ---
        let mut attempts = 0u32;
        let scores = loop {
            if inj.clock().now_ns().saturating_add(profile.scorer_cost_ns) >= deadline {
                // No room left for a model pass at all.
                break self.breach_to_prior(&candidates);
            }
            inj.clock().advance(profile.scorer_cost_ns);
            match inj.score() {
                ScoreFault::Ok => {
                    break self.model_scores(world, req.uid, &candidates, ctx, &history)
                }
                ScoreFault::Stall => {
                    basm_obs::counter_add("serving.fault.scorer_stall", 1);
                    inj.clock().advance(profile.hop_timeout_ns);
                    if inj.clock().now_ns() >= deadline {
                        break self.breach_to_prior(&candidates);
                    }
                    // The stalled answer arrived inside the budget after all.
                    break self.model_scores(world, req.uid, &candidates, ctx, &history);
                }
                ScoreFault::Error => {
                    basm_obs::counter_add("serving.fault.scorer_error", 1);
                    if attempts < policy.max_retries && retry_fits(inj, profile.scorer_cost_ns) {
                        attempts += 1;
                        basm_obs::counter_add("serving.retries", 1);
                        inj.clock().advance(policy.backoff_ns);
                        continue;
                    }
                    basm_obs::counter_add("serving.fallback.ranker", 1);
                    break self.prior_scores(&candidates);
                }
            }
        };
        self.rank_and_expose(scores, candidates)
    }

    /// Deadline breached mid-request: count it and fall back to the prior.
    fn breach_to_prior(&self, candidates: &[u32]) -> Vec<f32> {
        basm_obs::counter_add("serving.deadline_breach", 1);
        basm_obs::counter_add("serving.fallback.ranker", 1);
        self.prior_scores(candidates)
    }

    /// Statistics-prior ranker (the last ladder rung): smoothed item CTR
    /// from the click/exposure counters the feature server already holds.
    /// Deterministic and model-free. Also the shed rung of the batched
    /// front-end (`frontend.rs`).
    pub(crate) fn prior_scores(&self, candidates: &[u32]) -> Vec<f32> {
        self.features.with_counters(|c| {
            candidates
                .iter()
                .map(|&iid| {
                    c.item_clicks[iid as usize] as f32
                        / (c.item_exposures[iid as usize] as f32 + 10.0)
                })
                .collect()
        })
    }

    /// City-popularity recall (LBS-failure rung): the city's most-clicked
    /// items by the feature server's counters, ties broken by item id.
    pub(crate) fn popularity_candidates(&self, city: u16) -> Vec<u32> {
        self.features.with_counters(|c| {
            let mut pool = self.recall.city_pool(city).to_vec();
            pool.sort_by_key(|&iid| (std::cmp::Reverse(c.item_clicks[iid as usize]), iid));
            pool.truncate(self.pool);
            pool
        })
    }

    /// Score one request's candidates — a one-job microbatch — against the
    /// feature server's current counters.
    fn model_scores(
        &mut self,
        world: &World,
        uid: usize,
        candidates: &[u32],
        ctx: Context,
        history: &VecDeque<BehaviorEvent>,
    ) -> Vec<f32> {
        let job = ScoreJob { uid, candidates, ctx, history };
        self.features
            .with_counters(|c| score_microbatch(self.model.as_mut(), world, &[job], c))
            .remove(0)
    }

    /// Rank by score (non-finite scores sink — see [`rank_top_k`]), take the
    /// top-k, record the exposures.
    pub(crate) fn rank_and_expose(&mut self, scores: Vec<f32>, candidates: Vec<u32>) -> Vec<Exposure> {
        let exposures = self.rank_only(scores, candidates);
        for e in &exposures {
            self.features.record_exposure(e.item);
        }
        exposures
    }

    /// Rank without the exposure write-back — the batched front-end splits
    /// ranking from commit so a whole microbatch's exposures land as **one**
    /// atomic journal record ([`FeatureServer::record_exposures`]). Counter
    /// updates are pure increments and ranking never reads them mid-batch,
    /// so deferring the write-back to the batch boundary is bitwise
    /// equivalent to the per-request path.
    pub(crate) fn rank_only(&mut self, scores: Vec<f32>, candidates: Vec<u32>) -> Vec<Exposure> {
        let (exposures, nonfinite) = rank_top_k(&scores, &candidates, self.top_k);
        if nonfinite > 0 {
            basm_obs::counter_add("serving.nonfinite_score", nonfinite as u64);
        }
        exposures
    }

    /// Commit a microbatch's exposure write-backs (one list per request, in
    /// admission order) as a single atomic unit.
    pub(crate) fn commit_exposures(&mut self, lists: &[Vec<u32>]) {
        self.features.record_exposures(lists);
    }
}

/// The serving-time context for a request (position 0 by production
/// convention — see [`score_microbatch`]).
pub(crate) fn request_context(city: u16, req: Request) -> Context {
    Context {
        day: req.day,
        hour: req.hour,
        tp: TimePeriod::from_hour(req.hour),
        city,
        geo: req.geo,
        position: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basm_baselines::build_model;
    use basm_data::WorldConfig;

    #[test]
    fn serves_top_k_in_score_order() {
        let cfg = WorldConfig::tiny();
        let world = World::generate(cfg.clone());
        let model = build_model("Wide&Deep", &cfg, 1);
        let mut pipe = ServingPipeline::new(&world, model, 15, 5);
        let mut rng = Prng::seeded(1);
        let req = Request { uid: 0, day: 0, hour: 12, geo: world.users[0].geo };
        let exposures = pipe.serve(&world, req, &mut rng).expect("in-range request");
        assert!(exposures.len() <= 5);
        assert!(!exposures.is_empty());
        for w in exposures.windows(2) {
            assert!(w[0].score >= w[1].score, "ranking must be score-descending");
        }
        for (i, e) in exposures.iter().enumerate() {
            assert_eq!(e.position as usize, i);
        }
    }

    #[test]
    fn exposures_update_counters() {
        let cfg = WorldConfig::tiny();
        let world = World::generate(cfg.clone());
        let model = build_model("Wide&Deep", &cfg, 1);
        let mut pipe = ServingPipeline::new(&world, model, 10, 3);
        let mut rng = Prng::seeded(2);
        let req = Request { uid: 1, day: 0, hour: 19, geo: world.users[1].geo };
        let exposures = pipe.serve(&world, req, &mut rng).expect("in-range request");
        pipe.features.with_counters(|c| {
            for e in &exposures {
                assert!(c.item_exposures[e.item as usize] > 0);
            }
        });
    }

    #[test]
    fn out_of_range_requests_get_typed_errors_not_panics() {
        let cfg = WorldConfig::tiny();
        let world = World::generate(cfg.clone());
        let model = build_model("Wide&Deep", &cfg, 1);
        let mut pipe = ServingPipeline::new(&world, model, 10, 3);
        let mut rng = Prng::seeded(3);

        // uid past the end of the user table used to index out of bounds.
        let bad_uid = Request { uid: world.users.len(), day: 0, hour: 12, geo: (0, 0) };
        assert_eq!(
            pipe.serve(&world, bad_uid, &mut rng),
            Err(ServeError::UnknownUser { uid: world.users.len(), n_users: world.users.len() })
        );
        let way_past = Request { uid: usize::MAX, day: 0, hour: 12, geo: (0, 0) };
        assert!(matches!(
            pipe.serve(&world, way_past, &mut rng),
            Err(ServeError::UnknownUser { .. })
        ));

        // A cell outside the grid used to panic inside recall indexing.
        let g = world.config.geo_grid as u8;
        for geo in [(g, 0), (0, g), (u8::MAX, u8::MAX)] {
            let bad_geo = Request { uid: 0, day: 0, hour: 12, geo };
            assert_eq!(
                pipe.serve(&world, bad_geo, &mut rng),
                Err(ServeError::GeoOutOfRange { geo, grid: world.config.geo_grid })
            );
        }

        // The pipeline still serves valid traffic afterwards.
        let ok = Request { uid: 0, day: 0, hour: 12, geo: world.users[0].geo };
        assert!(!pipe.serve(&world, ok, &mut rng).expect("valid request").is_empty());

        // Errors render a readable message.
        let msg = ServeError::UnknownUser { uid: 9, n_users: 4 }.to_string();
        assert!(msg.contains("9") && msg.contains("4"), "unhelpful message: {msg}");
    }

    /// An injected NaN must never win top exposure: non-finite scores sink
    /// below every finite one (they used to rank *above* +inf under the
    /// plain descending `total_cmp` and silently take position 0).
    ///
    /// The NaN is injected at the score boundary, where it enters in
    /// production: the tensor graph `debug_assert`s every forward value
    /// finite, so in debug builds nothing non-finite can leave a model —
    /// but that guard is compiled out of release serving, which is exactly
    /// why the ranking layer must handle NaN itself.
    #[test]
    fn nan_score_sinks_below_all_finite_scores() {
        let cfg = WorldConfig::tiny();
        let world = World::generate(cfg.clone());
        // top_k == candidate count so every scored candidate is exposed,
        // including the NaN one — it must come last.
        let mut pipe = ServingPipeline::new(&world, build_model("Wide&Deep", &cfg, 1), 8, 8);
        let scores = vec![0.3, f32::NAN, 0.9, f32::INFINITY, 0.1, f32::NEG_INFINITY];
        let candidates: Vec<u32> = (0..scores.len() as u32).collect();
        let exposures = pipe.rank_and_expose(scores, candidates.clone());
        assert_eq!(exposures.len(), candidates.len());
        // Finite prefix first, score-descending; the non-finite tail after.
        let finite = [2u32, 0, 4];
        let got: Vec<u32> = exposures.iter().map(|e| e.item).collect();
        assert_eq!(&got[..3], &finite, "finite scores must outrank non-finite: {exposures:?}");
        for w in exposures[..3].windows(2) {
            assert!(w[0].score >= w[1].score, "finite prefix must stay score-descending");
        }
        for e in &exposures[3..] {
            assert!(!e.score.is_finite(), "only the sunk tail may be non-finite: {exposures:?}");
        }
        // Within the tail the descending total order still applies
        // (positive NaN, then +inf, then -inf) — deterministic, if degraded.
        assert!(exposures[3].score.is_nan());
        assert!(exposures[4].score.is_infinite() && exposures[4].score > 0.0);
        assert!(exposures[5].score.is_infinite() && exposures[5].score < 0.0);
        // Exposure positions stayed dense and ordered.
        for (rank, e) in exposures.iter().enumerate() {
            assert_eq!(e.position as usize, rank);
        }
    }

    /// Positions past 255 must survive: `rank as u8` used to wrap position
    /// 256 back to 0, so a `top_k > 255` exposure list carried duplicate
    /// (and wrong) positions.
    #[test]
    fn positions_past_255_do_not_wrap() {
        let n = 300usize;
        let scores: Vec<f32> = (0..n).map(|i| 1.0 - i as f32 / n as f32).collect();
        let candidates: Vec<u32> = (0..n as u32).collect();
        let (exposures, nonfinite) = rank_top_k(&scores, &candidates, n);
        assert_eq!(nonfinite, 0);
        assert_eq!(exposures.len(), n);
        for (i, e) in exposures.iter().enumerate() {
            assert_eq!(e.position as usize, i, "position truncated at rank {i}");
        }
        assert_eq!(exposures[256].position, 256u16);
    }

    /// The stale rung must actually shed trailing history: `len - len/4`
    /// kept histories shorter than 4 fully intact while the fault counter
    /// claimed staleness.
    #[test]
    fn stale_truncation_drops_at_least_one_event() {
        assert_eq!(stale_keep_len(0), 0);
        assert_eq!(stale_keep_len(1), 0, "a 1-event history must lose its only event");
        assert_eq!(stale_keep_len(2), 1, "short histories used to slip through untouched");
        assert_eq!(stale_keep_len(3), 2);
        assert_eq!(stale_keep_len(4), 3);
        assert_eq!(stale_keep_len(8), 6);
        for len in 1..64usize {
            assert!(stale_keep_len(len) < len, "stale fetch must drop something at len {len}");
        }
    }

    /// Exposures for a fixed seed, pinned. Any change to the zero-fault
    /// serving path shows up here — the degradation ladder must be invisible
    /// when no faults are injected (see also `tests/fault_ladder.rs`, which
    /// pins no-injector vs zero-rate-injector equality).
    #[test]
    fn zero_fault_exposures_are_pinned() {
        let cfg = WorldConfig::tiny();
        let world = World::generate(cfg.clone());
        let model = build_model("Wide&Deep", &cfg, 1);
        let mut pipe = ServingPipeline::new(&world, model, 12, 4);
        let mut rng = Prng::seeded(42);
        let mut served: Vec<Vec<u32>> = Vec::new();
        for uid in 0..4usize {
            let req = Request { uid, day: 0, hour: 12 + uid as u8, geo: world.users[uid].geo };
            let exposures = pipe.serve(&world, req, &mut rng).expect("in-range request");
            served.push(exposures.iter().map(|e| e.item).collect());
        }
        assert_eq!(
            served,
            vec![
                vec![92, 65, 98, 126],
                vec![35, 74, 112, 18],
                vec![55, 72, 83, 15],
                vec![1, 100, 106, 80]
            ],
            "zero-fault serving path changed: exposures diverge from the pinned sequence"
        );
    }
}
