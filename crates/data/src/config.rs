//! World/dataset configuration and the two paper-shaped presets.

use serde::Serialize;

/// Parameters of the synthetic spatiotemporal world and of the impression log
/// generated from it. All sizes are laptop-scale by default but preserve the
/// paper datasets' *relative* structure; scale them up freely.
#[derive(Debug, Clone, Serialize)]
pub struct WorldConfig {
    /// Dataset name used in reports.
    pub name: String,
    /// RNG seed for world construction and log generation.
    pub seed: u64,
    /// Number of users.
    pub n_users: usize,
    /// Number of items (shops).
    pub n_items: usize,
    /// Number of cities (traffic is Zipf over cities).
    pub n_cities: usize,
    /// Number of item categories.
    pub n_categories: usize,
    /// Number of brands.
    pub n_brands: usize,
    /// Geohash grid side per city (cells are `grid x grid`).
    pub geo_grid: usize,
    /// Latent taste/quality dimensionality of the ground-truth click model.
    pub latent_dim: usize,
    /// Behavior-sequence capacity (the paper's ML ≈ 41-43).
    pub seq_len: usize,
    /// Target bootstrapped history events per user (scaled by user activity):
    /// compresses the months of pre-log behavior the production sequences
    /// carry, so ML is meaningful from day one.
    pub history_bootstrap: usize,
    /// Warm-up days generated only to populate behavior histories.
    pub warmup_days: usize,
    /// Recorded training days (the paper uses 45 and 7; we default smaller).
    pub train_days: usize,
    /// Recorded test days (paper: 1).
    pub test_days: usize,
    /// Sessions (user requests) per day.
    pub sessions_per_day: usize,
    /// Candidate items per session (exposure list length).
    pub candidates_per_session: usize,
    /// Global logit offset controlling the base CTR level.
    pub base_logit: f32,
    /// Std of the irreducible per-impression logit noise.
    pub label_noise: f32,
    /// Strength multiplier of the spatiotemporal structure (time/city bias
    /// and time-varying feature weights). 0 removes all spatiotemporal
    /// signal; 1 is the calibrated default.
    pub st_strength: f32,
    /// Reported "#Feature" count analogous to Table III (schema columns; the
    /// Ele.me production schema has 417, the public dataset 38).
    pub reported_features: usize,
}

impl WorldConfig {
    /// The Ele.me-like preset: richer features, heavier spatiotemporal skew,
    /// CTR ≈ 3.6% (Table III: 86.7M clicks / 2.38B impressions).
    pub fn eleme_like() -> Self {
        Self {
            name: "eleme".into(),
            seed: 2022,
            n_users: 3_000,
            n_items: 3_000,
            n_cities: 10,
            n_categories: 40,
            n_brands: 200,
            geo_grid: 8,
            latent_dim: 8,
            seq_len: 20,
            history_bootstrap: 26,
            warmup_days: 2,
            train_days: 7,
            test_days: 1,
            sessions_per_day: 4_000,
            candidates_per_session: 8,
            base_logit: -3.55,
            label_noise: 0.35,
            st_strength: 1.0,
            reported_features: 417,
        }
    }

    /// The public-dataset-like preset: fewer features, sparser clicks
    /// (CTR ≈ 1.8%: Table III: 3.14M clicks / 177M impressions), noisier.
    pub fn public_like() -> Self {
        Self {
            name: "public".into(),
            seed: 131_047, // the Tianchi dataset id, for flavor
            n_users: 2_500,
            n_items: 4_000,
            n_cities: 8,
            n_categories: 30,
            n_brands: 120,
            geo_grid: 6,
            latent_dim: 8,
            seq_len: 20,
            history_bootstrap: 20,
            warmup_days: 2,
            train_days: 7,
            test_days: 1,
            sessions_per_day: 3_200,
            candidates_per_session: 8,
            base_logit: -4.45,
            label_noise: 0.55,
            st_strength: 0.7,
            reported_features: 38,
        }
    }

    /// A tiny configuration for unit tests (seconds, not minutes).
    pub fn tiny() -> Self {
        Self {
            name: "tiny".into(),
            seed: 7,
            n_users: 200,
            n_items: 150,
            n_cities: 4,
            n_categories: 10,
            n_brands: 20,
            geo_grid: 4,
            latent_dim: 4,
            seq_len: 8,
            history_bootstrap: 6,
            warmup_days: 1,
            train_days: 2,
            test_days: 1,
            sessions_per_day: 150,
            candidates_per_session: 5,
            base_logit: -2.2,
            label_noise: 0.3,
            st_strength: 1.0,
            reported_features: 24,
        }
    }

    /// Recorded days (train + test).
    pub fn recorded_days(&self) -> usize {
        self.train_days + self.test_days
    }

    /// Total days including warm-up.
    pub fn total_days(&self) -> usize {
        self.warmup_days + self.recorded_days()
    }

    /// Expected number of recorded impressions. This is exact when every
    /// city's item pool is at least `candidates_per_session` deep (true for
    /// the shipped presets) and an upper bound otherwise — a session in a
    /// nearly-empty city exposes fewer items.
    pub fn expected_impressions(&self) -> usize {
        self.recorded_days() * self.sessions_per_day * self.candidates_per_session
    }

    /// Geohash cell count across all cities.
    pub fn n_geohash(&self) -> usize {
        self.n_cities * self.geo_grid * self.geo_grid
    }

    /// Basic sanity checks; panics on nonsensical settings.
    pub fn validate(&self) {
        assert!(self.n_users > 0 && self.n_items > 0 && self.n_cities > 0);
        assert!(self.n_categories > 0 && self.n_brands > 0);
        assert!(self.geo_grid > 0 && self.latent_dim > 0);
        assert!(self.seq_len > 0 && self.candidates_per_session > 0);
        assert!(self.train_days > 0 && self.test_days > 0);
        assert!(self.st_strength >= 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        WorldConfig::eleme_like().validate();
        WorldConfig::public_like().validate();
        WorldConfig::tiny().validate();
    }

    #[test]
    fn derived_counts() {
        let c = WorldConfig::tiny();
        assert_eq!(c.recorded_days(), 3);
        assert_eq!(c.total_days(), 4);
        assert_eq!(c.expected_impressions(), 3 * 150 * 5);
        assert_eq!(c.n_geohash(), 4 * 16);
    }

    #[test]
    fn eleme_is_denser_than_public() {
        // The Ele.me preset must target a higher CTR than the public one, as
        // in Table III (3.6% vs 1.8%).
        assert!(WorldConfig::eleme_like().base_logit > WorldConfig::public_like().base_logit);
    }
}
