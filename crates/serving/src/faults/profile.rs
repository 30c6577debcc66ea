//! Per-hop fault rates and the simulated latency cost model.

use serde::Serialize;

const MS: u64 = 1_000_000;

/// Fault rates per serving hop plus the simulated cost model.
///
/// Rates are probabilities in `[0, 1]`, drawn independently per hop attempt
/// by [`super::FaultInjector`]. Within one hop the fault classes are
/// mutually exclusive (a feature fetch either times out, returns stale, or
/// succeeds), so the two rates of a hop should sum to at most 1 — rates are
/// clamped at draw time if they don't.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultProfile {
    /// Feature-server fetch exceeds its per-call timeout (retryable).
    pub feature_timeout: f64,
    /// Feature-server read lands on a lagging replica: the newest events of
    /// the behavior sequence are missing (non-retryable, served as-is).
    pub feature_stale: f64,
    /// LBS recall returns no candidates (retryable).
    pub recall_empty: f64,
    /// LBS recall returns only part of the candidate pool (non-retryable,
    /// served as-is).
    pub recall_partial: f64,
    /// RTP scorer returns an error (retryable).
    pub scorer_error: f64,
    /// RTP scorer stalls: the call succeeds but burns
    /// [`FaultProfile::hop_timeout_ns`] of the deadline budget first.
    pub scorer_stall: f64,
    /// Nominal simulated cost of a feature-server fetch.
    pub feature_cost_ns: u64,
    /// Nominal simulated cost of a recall call.
    pub recall_cost_ns: u64,
    /// Nominal simulated cost of a scorer call.
    pub scorer_cost_ns: u64,
    /// Simulated cost of a timed-out or stalled call: the caller waits this
    /// long before the failure is observable.
    pub hop_timeout_ns: u64,
}

impl FaultProfile {
    /// The all-zero profile: never injects, nominal costs only.
    pub fn zero() -> Self {
        Self::uniform(0.0)
    }

    /// Every fault class at the same `rate`, with the default cost model
    /// (2 ms feature fetch, 3 ms recall, 10 ms scoring, 40 ms hop timeout).
    pub fn uniform(rate: f64) -> Self {
        Self {
            feature_timeout: rate,
            feature_stale: rate,
            recall_empty: rate,
            recall_partial: rate,
            scorer_error: rate,
            scorer_stall: rate,
            feature_cost_ns: 2 * MS,
            recall_cost_ns: 3 * MS,
            scorer_cost_ns: 10 * MS,
            hop_timeout_ns: 40 * MS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sets_every_rate() {
        let p = FaultProfile::uniform(0.2);
        assert_eq!(p.feature_timeout, 0.2);
        assert_eq!(p.scorer_stall, 0.2);
    }
}
