//! Deterministic fault injection for the serving chain.
//!
//! A production serving chain (TPP → ABFS feature server → LBS recall → RTP
//! scoring, Fig. 13 of the paper) *degrades* under load; it does not fail
//! cleanly. This module provides the machinery to reproduce that behaviour
//! deterministically so the degradation ladder in [`crate::pipeline`] can be
//! exercised, measured, and regression-tested:
//!
//! * [`SimClock`] — a simulated monotonic nanosecond clock. Hops "cost"
//!   simulated time; injected stalls cost more. Deadline budgets are checked
//!   against this clock, never the wall clock, so every run is reproducible.
//! * [`FaultProfile`] — per-hop fault rates (feature-server timeouts and
//!   stale reads, empty/partial recall, scorer errors and stalls) plus the
//!   simulated cost model (nominal per-hop latencies, the timeout cost of a
//!   failed call).
//! * [`FaultInjector`] — a seeded `Prng`-driven decision source: one draw
//!   per hop per attempt, in a fixed order, so a fault schedule is a pure
//!   function of `(seed, profile, call sequence)`.
//!
//! A pipeline starts with no injector; `ServingPipeline::set_faults`
//! attaches one. With none attached (or a zero-rate one) the serving path
//! is bitwise identical to the fault-free pipeline — pinned by
//! `crates/serving/tests/fault_ladder.rs`.
//!
//! ```
//! use basm_serving::faults::{FaultInjector, FaultProfile, FeatureFault, RecallFault, ScoreFault};
//!
//! let mut inj = FaultInjector::new(FaultProfile::uniform(1.0), 7);
//! // With every rate at 1.0 the first decision of each hop always faults.
//! assert!(!matches!(inj.feature_fetch(), FeatureFault::Ok));
//! assert!(!matches!(inj.recall(), RecallFault::Ok));
//! assert!(!matches!(inj.score(), ScoreFault::Ok));
//!
//! let mut clean = FaultInjector::new(FaultProfile::zero(), 7);
//! assert!(matches!(clean.feature_fetch(), FeatureFault::Ok));
//! ```
//!
//! Crash faults (killing the process at an IO op) live next to the durable
//! write primitives they guard, in `basm_tensor::packstore::crash`; see
//! DESIGN.md §13.

mod clock;
mod inject;
mod profile;

pub use clock::SimClock;
pub use inject::{FaultInjector, FeatureFault, RecallFault, ScoreFault};
pub use profile::FaultProfile;
