//! High-throughput batched serving front-end (DESIGN.md §10): a bounded
//! admission queue in front of [`ServingPipeline`], draining microbatches
//! that coalesce candidates from many concurrent requests into **one**
//! model pass.
//!
//! ## Time model
//!
//! The front-end runs on its own simulated nanosecond clock, like the fault
//! injector's `SimClock`: arrivals carry simulated
//! timestamps (see [`crate::arrivals`]) and service charges nominal costs
//! from a [`CostModel`]. Queue waits, shed decisions, batch boundaries and
//! latency percentiles are therefore a pure function of the schedule — the
//! whole load test replays bit-for-bit, which is what makes the
//! batched-vs-sequential exposure pin possible at all.
//!
//! ## Batching semantics
//!
//! Every request in a drained microbatch is scored against the feature
//! state as of the batch's service start: exposure write-back is deferred
//! until the whole batch is scored (a real coalescer cannot thread one
//! request's exposures into a batch-mate's already-assembled features —
//! they are in the same forward pass). With `max_batch = 1` this collapses
//! exactly onto the sequential [`ServingPipeline::serve`] loop, and the
//! determinism suite pins that equivalence bitwise.
//!
//! [`FrontendConfig::coalesce`] selects only *how the model pass executes*
//! — one cross-request microbatch versus one pass per request. The
//! simulated schedule (and therefore batch composition) is identical in
//! both modes, so per-request exposures must agree to the bit; the
//! wall-clock difference between the modes is what `bench_load` measures.
//! Both run the one scorer, [`score_microbatch`]: all of the batch's jobs in
//! one call, or one job per call.
//!
//! ## Admission control & shedding
//!
//! Two mechanisms protect the deadline budget ([`DeadlinePolicy`]):
//!
//! 1. **Queue-full shedding** — an arrival finding the bounded queue full
//!    is turned away immediately (`serving.frontend.shed_queue_full`), the
//!    cheapest place to reject work.
//! 2. **Deadline shedding** — a drained request whose queue wait plus its
//!    own nominal scoring cost would overrun the budget skips the model and
//!    degrades to the statistics-prior rung of the PR 3 ladder
//!    (`serving.frontend.deadline_shed` + `serving.fallback.ranker`), which
//!    costs microseconds instead of a model pass. Availability stays 100%:
//!    every admitted request is answered.
//!
//! With the `faults` feature and an injector attached, each drained request
//! additionally draws the ladder's hop faults (stale/timed-out features,
//! partial/empty recall, scorer stalls/errors); fault costs inflate the
//! simulated service time, which in turn drives real queue growth and
//! deadline sheds — the interaction `tests/frontend_determinism.rs`
//! exercises under a hot profile.

use std::collections::VecDeque;

use basm_data::{BehaviorEvent, Context, World};
use basm_tensor::Prng;

use crate::arrivals::Arrival;
#[allow(unused_imports)] // DeadlinePolicy: doc links only
use crate::pipeline::{request_context, DeadlinePolicy, Exposure, Request, ServingPipeline};
use crate::scorer::{score_microbatch, ScoreJob};

#[cfg(feature = "faults")]
use crate::pipeline::stale_keep_len;
#[cfg(feature = "faults")]
use basm_faults::{FeatureFault, RecallFault, ScoreFault};

/// Nominal simulated service costs. Like the fault profile's hop costs,
/// these are simulated-clock constants, not measurements — determinism is
/// the point; `bench_load` reports the real wall clock separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Per-request recall + feature-assembly cost.
    pub assemble_ns: u64,
    /// Fixed cost per model pass (batch setup, weights traffic).
    pub batch_ns: u64,
    /// Cost per scored candidate row.
    pub row_ns: u64,
    /// Per-request cost of the statistics-prior shed rung.
    pub prior_ns: u64,
}

impl Default for CostModel {
    /// 0.2 ms assembly, 2 ms per pass, 50 µs per row, 0.1 ms prior — scaled
    /// so a 30-candidate request costs ~1.7 ms amortized at `max_batch` 32
    /// (≈580 QPS capacity), comfortably inside the default 150 ms budget
    /// until a queue builds.
    fn default() -> Self {
        Self { assemble_ns: 200_000, batch_ns: 2_000_000, row_ns: 50_000, prior_ns: 100_000 }
    }
}

/// Front-end shape: queue bound, microbatch bound, execution mode.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Bounded queue capacity; arrivals beyond it are shed at the door.
    pub queue_capacity: usize,
    /// Most requests coalesced into one model pass.
    pub max_batch: usize,
    /// `true` = one cross-request microbatch per pass (the production
    /// shape); `false` = one pass per request (the accumulation-order
    /// reference the determinism suite pins against). Wall-clock only —
    /// the simulated schedule is identical in both modes.
    pub coalesce: bool,
    /// Simulated service costs.
    pub cost: CostModel,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self { queue_capacity: 256, max_batch: 32, coalesce: true, cost: CostModel::default() }
    }
}

/// Why a served request skipped the model pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Scored by the model — the normal path.
    None,
    /// Queue wait would have breached the deadline budget; degraded to the
    /// statistics-prior rung.
    Deadline,
    /// The scorer hop faulted (injector-driven); degraded to the prior.
    ScorerFault,
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct CompletedRequest {
    /// Index into the arrival schedule.
    pub arrival: usize,
    /// Requesting user.
    pub uid: usize,
    /// Simulated time spent queued before the batch began service.
    pub queue_wait_ns: u64,
    /// Simulated arrival → response latency (the whole batch completes
    /// together).
    pub latency_ns: u64,
    /// Whether (and why) the request skipped the model pass.
    pub shed: ShedReason,
    /// The exposure list served.
    pub exposures: Vec<Exposure>,
}

/// Aggregate counts for one load run.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct LoadSummary {
    /// Arrivals in the schedule.
    pub offered: usize,
    /// Arrivals admitted to the queue.
    pub admitted: usize,
    /// Arrivals turned away at a full queue.
    pub shed_queue_full: usize,
    /// Arrivals rejected as invalid (out-of-range user/cell).
    pub rejected: usize,
    /// Admitted requests degraded to the prior by the deadline check.
    pub deadline_shed: usize,
    /// Admitted requests degraded to the prior by a scorer fault.
    pub fault_shed: usize,
    /// Requests answered (model-scored or degraded).
    pub completed: usize,
    /// Requests that got a genuine model pass.
    pub model_served: usize,
    /// Microbatches drained.
    pub batches: usize,
    /// Deepest the queue ever got.
    pub max_queue_depth: usize,
    /// Simulated clock at drain-out.
    pub sim_end_ns: u64,
}

/// Everything a load run produces.
pub struct LoadOutcome {
    /// Per-request results, in completion (= admission) order.
    pub completed: Vec<CompletedRequest>,
    /// Aggregate counters.
    pub summary: LoadSummary,
}

/// One drained request after admission/triage, waiting for its scores.
struct Prep {
    arrival: usize,
    uid: usize,
    queue_wait_ns: u64,
    candidates: Vec<u32>,
    history: VecDeque<BehaviorEvent>,
    ctx: Context,
    shed: ShedReason,
}

/// One microbatch's rollback point: everything `step` mutates before the
/// batch commits, snapshotted right after admission. On a panic mid-batch
/// the supervisor restores this mark — the queue itself needs no restore
/// because the batch is *peeked*, not popped, until commit.
struct BatchMark {
    completed_len: usize,
    summary: LoadSummary,
    now: u64,
    take: usize,
}

/// The front-end's loop state, factored out of [`run_load`] so the
/// supervised runner can survive a panicking batch: admission queue, sim
/// clock, completions and counters live *here* (the supervisor's side of
/// the process boundary), while the pipeline being stepped is the
/// disposable scoring replica.
struct LoadEngine {
    queue: VecDeque<usize>,
    next: usize,
    now: u64,
    completed: Vec<CompletedRequest>,
    summary: LoadSummary,
    mark: Option<BatchMark>,
    /// Total drained-request preps started, across restarts (test hook
    /// domain for `kill_at_prep`).
    preps_started: u64,
    /// Panic when prep number `k` begins — the supervised tests' simulated
    /// process death at an arbitrary request index. Disarmed on rollback, so
    /// a recovered run never re-kills itself.
    kill_at_prep: Option<u64>,
}

impl LoadEngine {
    fn new(offered: usize, kill_at_prep: Option<u64>) -> Self {
        Self {
            queue: VecDeque::new(),
            next: 0,
            now: 0,
            completed: Vec::with_capacity(offered),
            summary: LoadSummary { offered, ..LoadSummary::default() },
            mark: None,
            preps_started: 0,
            kill_at_prep,
        }
    }

    fn done(&self, arrivals: &[Arrival]) -> bool {
        self.next >= arrivals.len() && self.queue.is_empty()
    }

    /// Restore the pre-batch mark after a panic mid-batch. The in-flight
    /// requests are still queued (peek-don't-pop), so "re-enqueue in
    /// admission order" is a no-op by construction; returns how many there
    /// were. Also disarms the kill hook: the crash fired.
    fn rollback(&mut self) -> usize {
        self.kill_at_prep = None;
        let Some(mark) = self.mark.take() else { return 0 };
        self.completed.truncate(mark.completed_len);
        self.summary = mark.summary;
        self.now = mark.now;
        mark.take
    }

    fn finish(mut self) -> LoadOutcome {
        self.summary.completed = self.completed.len();
        self.summary.sim_end_ns = self.now;
        LoadOutcome { completed: self.completed, summary: self.summary }
    }

    /// Admit + serve one microbatch. The batch is peeked from the queue,
    /// processed, and only *popped at the commit point* — after the batch's
    /// single atomic exposure write-back — so a panic anywhere in between
    /// leaves every in-flight request queued in admission order.
    fn step(
        &mut self,
        pipe: &mut ServingPipeline,
        world: &World,
        arrivals: &[Arrival],
        cfg: &FrontendConfig,
    ) {
        let budget_ns = pipe.policy.budget_ns;
        // Take the injector out for the batch (like `serve_degraded`) so
        // fault draws can interleave with mutable pipeline access.
        #[cfg(feature = "faults")]
        let mut injector = pipe.faults.take();

        if self.queue.is_empty() {
            // Idle server: jump to the next arrival.
            self.now = self.now.max(arrivals[self.next].t_ns);
        }
        // Admission: everything that has arrived by `now` either queues or
        // is shed at the door. Admission is never rolled back — an admitted
        // request rides out a replica crash in the queue.
        while self.next < arrivals.len() && arrivals[self.next].t_ns <= self.now {
            if self.queue.len() < cfg.queue_capacity {
                self.queue.push_back(self.next);
                self.summary.admitted += 1;
                basm_obs::counter_add("serving.frontend.admitted", 1);
            } else {
                self.summary.shed_queue_full += 1;
                basm_obs::counter_add("serving.frontend.shed_queue_full", 1);
            }
            self.next += 1;
        }
        self.summary.max_queue_depth = self.summary.max_queue_depth.max(self.queue.len());

        let take = self.queue.len().min(cfg.max_batch);
        debug_assert!(take >= 1, "the drain loop must always make progress");
        self.mark = Some(BatchMark {
            completed_len: self.completed.len(),
            summary: self.summary.clone(),
            now: self.now,
            take,
        });
        let drained: Vec<usize> = self.queue.iter().take(take).copied().collect();
        let mut now = self.now;
        let completed = &mut self.completed;
        let summary = &mut self.summary;
        summary.batches += 1;
        basm_obs::record_hist("serving.batch_size", take as u64);

        // --- phase 1: per-request recall/features + shed triage, in
        // admission order ---------------------------------------------------
        let service_start = now;
        let mut preps: Vec<Prep> = Vec::with_capacity(take);
        for &ai in &drained {
            let prep_idx = self.preps_started;
            self.preps_started += 1;
            if self.kill_at_prep == Some(prep_idx) {
                panic!("injected crash at request prep {prep_idx}");
            }
            let a = &arrivals[ai];
            let queue_wait_ns = service_start - a.t_ns;
            basm_obs::record_hist("serving.queue_wait_ns", queue_wait_ns);
            let grid = world.config.geo_grid;
            if a.uid >= world.users.len()
                || a.geo.0 as usize >= grid
                || a.geo.1 as usize >= grid
            {
                // The typed-reject class `serve` returns as `ServeError`.
                summary.rejected += 1;
                basm_obs::counter_add("serving.frontend.rejected", 1);
                continue;
            }
            now += cfg.cost.assemble_ns;
            let city = world.users[a.uid].city;
            let req = Request { uid: a.uid, day: a.day, hour: a.hour, geo: a.geo };
            let ctx = request_context(city, req);
            let mut rng = Prng::seeded(a.seed);

            // Feature + recall hops; under an injector these can fault and
            // degrade per the PR 3 ladder (no in-batch retries: a retry
            // would stall every batch-mate, so the batch regime goes
            // straight to the fallback rung).
            #[allow(unused_mut)]
            let mut scorer_fault = false;
            let healthy = |pipe: &ServingPipeline, rng: &mut Prng| {
                let history = pipe.features.history_snapshot(a.uid);
                (history, pipe.recall.candidates(city, a.geo, pipe.pool, rng))
            };
            #[cfg(feature = "faults")]
            let (history, candidates) = match injector.as_mut() {
                Some(inj) => {
                    let profile = inj.profile().clone();
                    let history = match inj.feature_fetch() {
                        FeatureFault::Ok => pipe.features.history_snapshot(a.uid),
                        FeatureFault::Stale => {
                            basm_obs::counter_add("serving.fault.feature_stale", 1);
                            let mut h = pipe.features.history_snapshot(a.uid);
                            h.truncate(stale_keep_len(h.len()));
                            h
                        }
                        FeatureFault::Timeout => {
                            basm_obs::counter_add("serving.fault.feature_timeout", 1);
                            basm_obs::counter_add("serving.fallback.history", 1);
                            now += profile.hop_timeout_ns;
                            VecDeque::new()
                        }
                    };
                    let candidates = match inj.recall() {
                        RecallFault::Ok => pipe.recall.candidates(city, a.geo, pipe.pool, &mut rng),
                        RecallFault::Partial => {
                            basm_obs::counter_add("serving.fault.recall_partial", 1);
                            let mut c = pipe.recall.candidates(city, a.geo, pipe.pool, &mut rng);
                            c.truncate(c.len().div_ceil(2));
                            c
                        }
                        RecallFault::Empty => {
                            basm_obs::counter_add("serving.fault.recall_empty", 1);
                            basm_obs::counter_add("serving.fallback.recall", 1);
                            now += profile.hop_timeout_ns;
                            pipe.popularity_candidates(city)
                        }
                    };
                    match inj.score() {
                        ScoreFault::Ok => {}
                        ScoreFault::Stall => {
                            // The stalled answer still arrives; the batch
                            // just pays for it.
                            basm_obs::counter_add("serving.fault.scorer_stall", 1);
                            now += profile.hop_timeout_ns;
                        }
                        ScoreFault::Error => {
                            basm_obs::counter_add("serving.fault.scorer_error", 1);
                            scorer_fault = true;
                        }
                    }
                    (history, candidates)
                }
                None => healthy(pipe, &mut rng),
            };
            #[cfg(not(feature = "faults"))]
            let (history, candidates) = healthy(pipe, &mut rng);

            // Shed triage: would this request's own nominal scoring cost,
            // on top of its queue wait, overrun the budget?
            let score_est_ns =
                cfg.cost.batch_ns + cfg.cost.row_ns * candidates.len() as u64;
            let shed = if scorer_fault {
                summary.fault_shed += 1;
                basm_obs::counter_add("serving.fallback.ranker", 1);
                ShedReason::ScorerFault
            } else if queue_wait_ns + cfg.cost.assemble_ns + score_est_ns > budget_ns {
                summary.deadline_shed += 1;
                basm_obs::counter_add("serving.frontend.deadline_shed", 1);
                basm_obs::counter_add("serving.fallback.ranker", 1);
                ShedReason::Deadline
            } else {
                ShedReason::None
            };
            preps.push(Prep {
                arrival: ai,
                uid: a.uid,
                queue_wait_ns,
                candidates,
                history,
                ctx,
                shed,
            });
        }

        // --- phase 2: score. One counter snapshot for the whole batch (the
        // read guard spans the pass); exposure write-back is deferred to
        // phase 3, so coalesced and per-request passes see identical state.
        let model_idx: Vec<usize> = preps
            .iter()
            .enumerate()
            .filter(|(_, p)| p.shed == ShedReason::None && !p.candidates.is_empty())
            .map(|(i, _)| i)
            .collect();
        let model_rows: u64 =
            model_idx.iter().map(|&i| preps[i].candidates.len() as u64).sum();
        if !model_idx.is_empty() {
            now += cfg.cost.batch_ns + cfg.cost.row_ns * model_rows;
        }
        let mut scores: Vec<Vec<f32>> = preps.iter().map(|_| Vec::new()).collect();
        if !model_idx.is_empty() {
            let jobs: Vec<ScoreJob<'_>> = model_idx
                .iter()
                .map(|&i| {
                    let p = &preps[i];
                    ScoreJob {
                        uid: p.uid,
                        candidates: &p.candidates,
                        ctx: p.ctx,
                        history: &p.history,
                    }
                })
                .collect();
            // Coalesced: the whole batch in one pass; otherwise one pass per
            // request. Same scorer, same counter snapshot either way.
            let per_pass = if cfg.coalesce { jobs.len() } else { 1 };
            let model = pipe.model.as_mut();
            let results: Vec<Vec<f32>> = pipe.features.with_counters(|c| {
                jobs.chunks(per_pass)
                    .flat_map(|pass| score_microbatch(&mut *model, world, pass, c))
                    .collect()
            });
            summary.model_served += model_idx.len();
            for (i, s) in model_idx.into_iter().zip(results) {
                scores[i] = s;
            }
        }
        for (i, p) in preps.iter().enumerate() {
            if p.shed != ShedReason::None && !p.candidates.is_empty() {
                now += cfg.cost.prior_ns;
                scores[i] = pipe.prior_scores(&p.candidates);
            }
        }

        // --- phase 3: rank (pure), then commit the whole microbatch — in
        // admission order, so the feature state evolves identically in both
        // modes. Ranking never reads the exposure counters and counter
        // updates are pure increments, so batching the write-back is bitwise
        // equivalent to the per-request `rank_and_expose` loop.
        let t_done = now;
        let batch: Vec<(Prep, Vec<Exposure>)> = preps
            .into_iter()
            .zip(scores)
            .map(|(mut p, s)| {
                let candidates = std::mem::take(&mut p.candidates);
                let exposures = pipe.rank_only(s, candidates);
                (p, exposures)
            })
            .collect();
        let lists: Vec<Vec<u32>> =
            batch.iter().map(|(_, e)| e.iter().map(|x| x.item).collect()).collect();
        // The commit point: one atomic journal record for the microbatch's
        // exposures (a crash before this line leaves the batch un-logged and
        // still queued; after it, replay rebuilds the counters exactly).
        pipe.commit_exposures(&lists);
        self.queue.drain(..take);
        self.mark = None;
        for (p, exposures) in batch {
            let latency_ns = t_done - arrivals[p.arrival].t_ns;
            basm_obs::record_hist("serving.frontend.latency_ns", latency_ns);
            completed.push(CompletedRequest {
                arrival: p.arrival,
                uid: p.uid,
                queue_wait_ns: p.queue_wait_ns,
                latency_ns,
                shed: p.shed,
                exposures,
            });
        }

        #[cfg(feature = "faults")]
        {
            pipe.faults = injector;
        }
        self.now = now;
    }
}

/// Run an arrival schedule through the front-end. Single logical server:
/// the microbatch in service blocks the queue, exactly like one RTP scoring
/// replica. Telemetry: `serving.queue_wait_ns`, `serving.batch_size` and
/// `serving.frontend.latency_ns` histograms; `serving.frontend.*` admission
/// counters; the ladder's `serving.fallback.*` counters for degraded
/// requests.
pub fn run_load(
    pipe: &mut ServingPipeline,
    world: &World,
    arrivals: &[Arrival],
    cfg: &FrontendConfig,
) -> LoadOutcome {
    assert!(cfg.queue_capacity >= 1, "queue capacity must be at least 1");
    assert!(cfg.max_batch >= 1, "microbatch bound must be at least 1");
    let mut engine = LoadEngine::new(arrivals.len(), None);
    while !engine.done(arrivals) {
        engine.step(pipe, world, arrivals, cfg);
    }
    engine.finish()
}

/// Shape of the supervised runner (DESIGN.md §13).
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The online-state WAL backing the scoring replica. Recovered (and
    /// replayed) at start and after every restart; appended to by every
    /// feature-server write in between.
    pub wal_path: std::path::PathBuf,
    /// Restarts tolerated before the supervisor gives up and re-raises the
    /// replica's panic.
    pub max_restarts: u32,
    /// Test hook: panic when drained-request prep number `k` begins — a
    /// simulated process death at an arbitrary request index. Fires once;
    /// recovery disarms it.
    pub kill_at_prep: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            wal_path: crate::journal::fresh_wal_path(),
            max_restarts: 8,
            kill_at_prep: None,
        }
    }
}

/// What the supervisor did across the run.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct RecoveryStats {
    /// Replica rebuilds after a panic.
    pub restarts: u64,
    /// WAL records replayed across all rebuilds (initial recovery included).
    pub replayed_records: u64,
    /// In-flight requests re-enqueued (in admission order) across restarts.
    pub reenqueued: u64,
}

/// A supervised load run's results.
pub struct SupervisedOutcome {
    /// The load outcome — bitwise identical to an uninterrupted [`run_load`]
    /// over the same schedule, however many times the replica died.
    pub load: LoadOutcome,
    /// Recovery counters (also exported as `serving.recovery.*`).
    pub recovery: RecoveryStats,
}

/// Run an arrival schedule through a **supervised** scoring replica:
/// `build` constructs the replica (typically loading model weights from a
/// checkpoint dir — weights never change during serving, so the checkpoint
/// is the model's recovery point), the WAL at `sup.wal_path` carries the
/// online feature state, and a panic anywhere in a batch — including a
/// kill-point death inside a WAL append (`packstore::set_crash_plan`) —
/// triggers the restart path: rebuild the replica, replay the WAL into a
/// fresh feature server, re-enqueue the in-flight microbatch in admission
/// order, and continue on the *same* simulated clock.
///
/// Determinism: the sim clock does not advance during recovery, per-request
/// rngs are schedule-seeded, and the killed batch never committed its
/// exposure record — so the completed stream is **bitwise equal to the run
/// that never crashed** (pinned by `tests/crash_recovery.rs`). The one
/// exception is a fault injector: a rebuilt replica restarts its fault
/// schedule, exactly as a real restarted process would.
pub fn run_load_supervised(
    world: &World,
    arrivals: &[Arrival],
    cfg: &FrontendConfig,
    sup: &SupervisorConfig,
    build: impl Fn() -> ServingPipeline,
) -> std::io::Result<SupervisedOutcome> {
    assert!(cfg.queue_capacity >= 1, "queue capacity must be at least 1");
    assert!(cfg.max_batch >= 1, "microbatch bound must be at least 1");

    // Recover the WAL into a (re)built replica: replay whatever is durable,
    // then attach the journal for the writes to come. Replaces any journal
    // `build` attached — the supervisor's WAL is the replica's durability
    // story.
    let attach = |pipe: &mut ServingPipeline| -> std::io::Result<u64> {
        let _ = pipe.features.detach_journal();
        let (journal, records, _stats) = crate::journal::Journal::recover(&sup.wal_path)?;
        pipe.features.replay_records(&records)?;
        pipe.features.install_journal(journal);
        Ok(records.len() as u64)
    };

    let mut recovery = RecoveryStats::default();
    let mut pipe = build();
    recovery.replayed_records += attach(&mut pipe)?;
    let mut engine = LoadEngine::new(arrivals.len(), sup.kill_at_prep);
    while !engine.done(arrivals) {
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.step(&mut pipe, world, arrivals, cfg)
        }));
        let Err(cause) = step else { continue };
        recovery.restarts += 1;
        basm_obs::counter_add("serving.recovery.restarts", 1);
        if recovery.restarts > u64::from(sup.max_restarts) {
            std::panic::resume_unwind(cause);
        }
        // The replica process "died": an armed kill plan died with it — the
        // supervisor is the surviving side of the process boundary.
        basm_tensor::packstore::set_crash_plan(None);
        let reenqueued = engine.rollback() as u64;
        recovery.reenqueued += reenqueued;
        basm_obs::counter_add("serving.recovery.reenqueued", reenqueued);
        drop(pipe);
        pipe = build();
        let replayed = attach(&mut pipe)?;
        recovery.replayed_records += replayed;
        basm_obs::counter_add("serving.recovery.replayed_records", replayed);
    }
    Ok(SupervisedOutcome { load: engine.finish(), recovery })
}

/// Nearest-rank percentile over raw nanosecond samples (the exact
/// percentile the bench artifact reports; the obs histograms bucket with
/// ≤1/16 relative error, so artifacts use this instead).
pub fn percentile_ns(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_ns(&mut s, 50.0), 50);
        assert_eq!(percentile_ns(&mut s, 99.0), 99);
        assert_eq!(percentile_ns(&mut s, 100.0), 100);
        let mut one = vec![7u64];
        assert_eq!(percentile_ns(&mut one, 50.0), 7);
        let mut none: Vec<u64> = Vec::new();
        assert_eq!(percentile_ns(&mut none, 99.0), 0);
    }
}
