//! The seeded fault decision source.

use super::clock::SimClock;
use super::profile::FaultProfile;
use basm_tensor::Prng;

/// Outcome of one feature-server fetch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureFault {
    /// Fetch succeeded.
    Ok,
    /// Fetch exceeded its per-call timeout; the caller burned
    /// [`FaultProfile::hop_timeout_ns`] and may retry.
    Timeout,
    /// Fetch hit a lagging replica: serve the sequence minus its newest
    /// events (not retryable — the replica *answered*).
    Stale,
}

/// Outcome of one recall attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecallFault {
    /// Recall succeeded.
    Ok,
    /// Recall returned nothing (index shard down); retryable.
    Empty,
    /// Recall returned a truncated candidate set; served as-is.
    Partial,
}

/// Outcome of one scorer attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreFault {
    /// Scoring succeeded.
    Ok,
    /// Scorer returned an error; retryable.
    Error,
    /// Scorer answered but only after burning
    /// [`FaultProfile::hop_timeout_ns`] of budget.
    Stall,
}

/// Seeded per-hop fault decision source + the simulated clock.
///
/// One decision is drawn per hop attempt in a fixed order, so the whole
/// fault schedule is a pure function of `(seed, profile, call sequence)`.
/// The injector draws from its **own** [`Prng`]: the request RNG stream that
/// drives traffic and recall sampling is never consumed by injection, which
/// keeps the zero-rate schedule bitwise identical to no injector at all.
pub struct FaultInjector {
    profile: FaultProfile,
    prng: Prng,
    clock: SimClock,
}

impl FaultInjector {
    /// Injector with the given profile and decision seed.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        Self { profile, prng: Prng::seeded(seed ^ 0xFA_17_5_EED), clock: SimClock::new() }
    }

    /// The active profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// The simulated clock (hops charge their cost here).
    pub fn clock(&mut self) -> &mut SimClock {
        &mut self.clock
    }

    /// Draw the outcome of one feature-server fetch attempt.
    pub fn feature_fetch(&mut self) -> FeatureFault {
        let u = self.prng.uniform() as f64;
        if u < self.profile.feature_timeout {
            FeatureFault::Timeout
        } else if u < (self.profile.feature_timeout + self.profile.feature_stale).min(1.0) {
            FeatureFault::Stale
        } else {
            FeatureFault::Ok
        }
    }

    /// Draw the outcome of one recall attempt.
    pub fn recall(&mut self) -> RecallFault {
        let u = self.prng.uniform() as f64;
        if u < self.profile.recall_empty {
            RecallFault::Empty
        } else if u < (self.profile.recall_empty + self.profile.recall_partial).min(1.0) {
            RecallFault::Partial
        } else {
            RecallFault::Ok
        }
    }

    /// Draw the outcome of one scorer attempt.
    pub fn score(&mut self) -> ScoreFault {
        let u = self.prng.uniform() as f64;
        if u < self.profile.scorer_error {
            ScoreFault::Error
        } else if u < (self.profile.scorer_error + self.profile.scorer_stall).min(1.0) {
            ScoreFault::Stall
        } else {
            ScoreFault::Ok
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_profile_never_faults() {
        let mut inj = FaultInjector::new(FaultProfile::zero(), 1);
        for _ in 0..1000 {
            assert_eq!(inj.feature_fetch(), FeatureFault::Ok);
            assert_eq!(inj.recall(), RecallFault::Ok);
            assert_eq!(inj.score(), ScoreFault::Ok);
        }
    }

    #[test]
    fn full_rate_always_faults() {
        let mut inj = FaultInjector::new(FaultProfile::uniform(1.0), 2);
        for _ in 0..100 {
            assert_ne!(inj.feature_fetch(), FeatureFault::Ok);
            assert_ne!(inj.recall(), RecallFault::Ok);
            assert_ne!(inj.score(), ScoreFault::Ok);
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let draw = |seed: u64| -> Vec<(FeatureFault, RecallFault, ScoreFault)> {
            let mut inj = FaultInjector::new(FaultProfile::uniform(0.3), seed);
            (0..200).map(|_| (inj.feature_fetch(), inj.recall(), inj.score())).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn rate_is_roughly_respected() {
        let mut inj = FaultInjector::new(FaultProfile::uniform(0.2), 3);
        let n = 10_000;
        let faults = (0..n).filter(|_| inj.feature_fetch() != FeatureFault::Ok).count();
        // Timeout + stale at 0.2 each = 0.4 expected.
        let observed = faults as f64 / n as f64;
        assert!((observed - 0.4).abs() < 0.03, "observed fault rate {observed}");
    }

    #[test]
    fn clock_is_exposed() {
        let mut inj = FaultInjector::new(FaultProfile::zero(), 4);
        inj.clock().advance(10);
        assert_eq!(inj.clock().now_ns(), 10);
    }
}
