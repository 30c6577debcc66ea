//! # basm-serving
//!
//! The online serving and A/B-testing side of the paper (Section IV,
//! Table VII, Fig. 12), simulated end to end:
//!
//! * [`FeatureServer`] — the ABFS role: behavior sequences + statistics.
//! * [`LbsRecall`] — geohash-ring candidate recall.
//! * [`scorer`] — RTP-style feature assembly + model inference, through
//!   one entry point ([`score_microbatch`]; a single request is a batch of
//!   one).
//! * [`ServingPipeline`] — TPP orchestration: recall → score → top-k.
//! * [`ab_test`] — the closed-loop 7-day A/B experiment against the
//!   ground-truth click model, with per-day and per-segment CTRs.
//!
//! Serving is hardened for production-shaped failures (DESIGN.md §8): every
//! request carries a [`DeadlinePolicy`] budget, malformed requests come back
//! as typed [`ServeError`]s, and an attached [`faults::FaultInjector`]
//! drives a graceful-degradation ladder (retry → stale/empty history →
//! city-popularity recall → statistics-prior ranker) that never panics and
//! never returns an empty response. With no injector (the default) or a
//! zero-rate one the pipeline is bitwise identical to the fault-free path.
//!
//! On top of the per-request pipeline sits the batched front-end
//! (DESIGN.md §10): [`arrivals`] generates deterministic Poisson traffic
//! riding the world's hour-of-day curve, and [`frontend`] runs it through a
//! bounded admission queue that coalesces concurrent requests into one
//! microbatch per model pass ([`scorer::score_microbatch`]),
//! shedding to the degradation ladder's statistics-prior rung when queue
//! wait would breach the deadline budget. Batched execution is pinned
//! bitwise-equal to sequential per-request scoring.
//!
//! Every request, served alone or coalesced, is assembled by
//! `basm_data::append_example` — the function that builds the training log —
//! and nothing is cached between requests (DESIGN.md §12).
//!
//! Online state is crash-consistent (DESIGN.md §13): with a [`Journal`]
//! attached, every feature-server write lands in a CRC'd write-ahead log
//! *before* the in-memory mutation, and [`run_load_supervised`] wraps the
//! scoring replica in a supervisor that — after a simulated process death —
//! rebuilds the pipeline, replays the WAL, re-enqueues the in-flight
//! microbatch, and continues **bitwise-equal to the run that never
//! crashed**. Journaling changes durability and wall-clock only, never
//! computed bits (pinned with threads, SIMD and telemetry in
//! `tests/mode_matrix.rs`).
//!
//! ```
//! use basm_data::{World, WorldConfig};
//! use basm_serving::{Request, ServingPipeline};
//! use basm_tensor::Prng;
//!
//! let cfg = WorldConfig::tiny();
//! let world = World::generate(cfg.clone());
//! let model = basm_baselines::build_model("Wide&Deep", &cfg, 1);
//! let mut pipe = ServingPipeline::new(&world, model, 12, 4);
//! let mut rng = Prng::seeded(7);
//! let req = Request { uid: 0, day: 0, hour: 12, geo: world.users[0].geo };
//! let exposures = pipe.serve(&world, req, &mut rng).unwrap();
//! assert!(exposures.len() <= 4);
//! ```

pub mod ab_test;
pub mod arrivals;
pub mod faults;
pub mod feature_server;
pub mod frontend;
pub mod journal;
pub mod pipeline;
pub mod recall;
pub mod replay;
pub mod scorer;

pub use ab_test::{run_ab_test, AbConfig, AbResult, DayResult, SegmentBreakdown, Tally};
pub use arrivals::{generate_arrivals, Arrival, ArrivalConfig};
pub use feature_server::FeatureServer;
pub use frontend::{
    percentile_ns, run_load, run_load_supervised, CompletedRequest, CostModel, FrontendConfig,
    LoadOutcome, LoadSummary, RecoveryStats, ShedReason, SupervisedOutcome, SupervisorConfig,
};
pub use journal::{fresh_wal_path, Journal, WalRecord, WalSnapshot, WalStats};
pub use pipeline::{DeadlinePolicy, Exposure, Request, ServeError, ServingPipeline};
pub use recall::LbsRecall;
pub use replay::{position_ctr_profile, replay_top1, ReplayReport};
pub use scorer::{score_microbatch, score_sessions, ScoreJob, SessionRequest};
