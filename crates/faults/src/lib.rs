//! # basm-faults — deterministic fault injection for the serving stack
//!
//! A production serving chain (TPP → ABFS feature server → LBS recall → RTP
//! scoring, Fig. 13 of the paper) *degrades* under load; it does not fail
//! cleanly. This crate provides the machinery to reproduce that behaviour
//! deterministically so the degradation ladder in `basm-serving` can be
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
//! ## Gating
//!
//! Fault injection is double-gated, mirroring the telemetry layer
//! (DESIGN.md §7): the `faults` cargo feature on `basm-serving` compiles the
//! injection hooks in, and the `BASM_FAULTS` environment variable (or an
//! explicitly attached injector) turns them on. With the feature off, or
//! with `BASM_FAULTS=0` / no injector attached, the serving path is bitwise
//! identical to the fault-free build — pinned by
//! `crates/serving/tests/fault_ladder.rs`.
//!
//! ## `BASM_FAULTS` syntax
//!
//! * `0`, `0.0`, `off`, unset — no injection.
//! * A single rate, e.g. `0.05` — uniform 5% rate on every fault class.
//! * A comma list of `class=rate` pairs, e.g.
//!   `feature_timeout=0.2,scorer_stall=0.1` — per-class rates; unnamed
//!   classes stay at zero. Class names match the [`FaultProfile`] fields.
//!
//! ```
//! use basm_faults::{FaultInjector, FaultProfile, FeatureFault, RecallFault, ScoreFault};
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

//! ## Kill-point injection
//!
//! Crash faults are the other half of the story: a deterministic IO shim
//! kills the process at IO op `k`, tearing its last write at byte `b`
//! (armed per thread with `set_crash_plan`). The shim lives next to the durable
//! write primitives it guards (`basm_tensor::packstore::crash`, because the
//! pack store sits *below* this crate in the dependency order) and is
//! re-exported here as [`crash`]/[`CrashPlan`] so fault tooling has one
//! import surface. See DESIGN.md §13 for the crash model.

mod clock;
mod inject;
mod profile;

/// Kill-point injection shim (re-export of `basm_tensor::packstore::crash`).
pub use basm_tensor::packstore::crash;
pub use basm_tensor::packstore::{set_crash_plan, CrashPlan};
pub use clock::SimClock;
pub use inject::{FaultInjector, FeatureFault, RecallFault, ScoreFault};
pub use profile::FaultProfile;
