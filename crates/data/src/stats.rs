//! Dataset statistics (Table III) and spatiotemporal distribution summaries
//! (Fig. 2 and Fig. 6).

use crate::dataset::Dataset;
use crate::schema::TIME_PERIODS;
use serde::Serialize;
use std::collections::HashSet;

/// The Table III row for one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Total number of impressions.
    pub total_size: usize,
    /// Schema feature count (reported, like the paper's 417 / 38).
    pub n_features: usize,
    /// Distinct users appearing in the log.
    pub n_users: usize,
    /// Distinct items appearing in the log.
    pub n_items: usize,
    /// Number of clicks.
    pub n_clicks: usize,
    /// Mean length of the behavior sequences (the paper's "ML").
    pub mean_seq_len: f64,
    /// Overall CTR.
    pub ctr: f64,
}

impl DatasetStats {
    /// Compute the statistics of a dataset.
    pub fn compute(ds: &Dataset) -> Self {
        let users: HashSet<u32> = ds.user.iter().copied().collect();
        let items: HashSet<u32> = ds.item.iter().copied().collect();
        let clicks = ds.label.iter().filter(|&&l| l > 0.5).count();
        let mean_seq_len = if ds.is_empty() {
            0.0
        } else {
            ds.seq_used.iter().map(|&u| u as f64).sum::<f64>() / ds.len() as f64
        };
        Self {
            name: ds.config.name.clone(),
            total_size: ds.len(),
            n_features: ds.config.reported_features,
            n_users: users.len(),
            n_items: items.len(),
            n_clicks: clicks,
            mean_seq_len,
            ctr: ds.ctr(),
        }
    }
}

/// Exposure count and CTR per bucket (hour / city / time-period).
#[derive(Debug, Clone, Default, Serialize)]
pub struct BucketStat {
    /// Bucket label.
    pub label: String,
    /// Number of exposures in the bucket.
    pub exposures: usize,
    /// Number of clicks in the bucket.
    pub clicks: usize,
}

impl BucketStat {
    /// Click-through rate of the bucket.
    pub fn ctr(&self) -> f64 {
        if self.exposures == 0 {
            0.0
        } else {
            self.clicks as f64 / self.exposures as f64
        }
    }
}

/// Exposure/CTR distribution over the 24 hours (Fig. 2a).
pub fn distribution_by_hour(ds: &Dataset) -> Vec<BucketStat> {
    let mut buckets: Vec<BucketStat> = (0..24)
        .map(|h| BucketStat { label: format!("{h:02}h"), ..Default::default() })
        .collect();
    for i in 0..ds.len() {
        let b = &mut buckets[ds.hour[i] as usize];
        b.exposures += 1;
        b.clicks += (ds.label[i] > 0.5) as usize;
    }
    buckets
}

/// Exposure/CTR distribution over cities (Fig. 2b), ordered by city index
/// (traffic-ranked by construction).
pub fn distribution_by_city(ds: &Dataset) -> Vec<BucketStat> {
    let n = ds.config.n_cities;
    let mut buckets: Vec<BucketStat> = (0..n)
        .map(|c| BucketStat { label: format!("city{}", c + 1), ..Default::default() })
        .collect();
    for i in 0..ds.len() {
        let b = &mut buckets[ds.city[i] as usize];
        b.exposures += 1;
        b.clicks += (ds.label[i] > 0.5) as usize;
    }
    buckets
}

/// Exposure/CTR distribution over the five time-periods (Fig. 12 grouping).
pub fn distribution_by_time_period(ds: &Dataset) -> Vec<BucketStat> {
    let mut buckets: Vec<BucketStat> = TIME_PERIODS
        .iter()
        .map(|tp| BucketStat { label: tp.name().to_string(), ..Default::default() })
        .collect();
    for i in 0..ds.len() {
        let b = &mut buckets[ds.tp[i] as usize];
        b.exposures += 1;
        b.clicks += (ds.label[i] > 0.5) as usize;
    }
    buckets
}

/// CTR surface over (city, hour): the spatiotemporal-bias grid of Fig. 6.
/// Returns a `n_cities x 24` matrix of CTRs (NaN-free; empty cells are 0).
pub fn ctr_surface(ds: &Dataset) -> Vec<Vec<f64>> {
    let n = ds.config.n_cities;
    let mut exp = vec![vec![0usize; 24]; n];
    let mut clk = vec![vec![0usize; 24]; n];
    for i in 0..ds.len() {
        let c = ds.city[i] as usize;
        let h = ds.hour[i] as usize;
        exp[c][h] += 1;
        clk[c][h] += (ds.label[i] > 0.5) as usize;
    }
    exp.iter()
        .zip(clk.iter())
        .map(|(erow, crow)| {
            erow.iter()
                .zip(crow.iter())
                .map(|(&e, &c)| if e == 0 { 0.0 } else { c as f64 / e as f64 })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::generate::generate_dataset;

    fn tiny() -> Dataset {
        generate_dataset(&WorldConfig::tiny()).dataset
    }

    #[test]
    fn stats_are_consistent() {
        let ds = tiny();
        let s = DatasetStats::compute(&ds);
        assert_eq!(s.total_size, ds.len());
        assert_eq!(s.n_clicks, ds.label.iter().filter(|&&l| l > 0.5).count());
        assert!(s.n_users <= ds.config.n_users);
        assert!(s.n_items <= ds.config.n_items);
        assert!((s.ctr - ds.ctr()).abs() < 1e-12);
        assert!(s.mean_seq_len >= 0.0 && s.mean_seq_len <= ds.config.seq_len as f64);
    }

    #[test]
    fn hour_distribution_totals_match() {
        let ds = tiny();
        let dist = distribution_by_hour(&ds);
        assert_eq!(dist.len(), 24);
        let total: usize = dist.iter().map(|b| b.exposures).sum();
        assert_eq!(total, ds.len());
        // Meal peaks carry more exposure than deep night.
        assert!(dist[12].exposures > dist[3].exposures);
    }

    #[test]
    fn city_distribution_is_head_heavy() {
        let ds = tiny();
        let dist = distribution_by_city(&ds);
        let total: usize = dist.iter().map(|b| b.exposures).sum();
        assert_eq!(total, ds.len());
        assert!(dist[0].exposures >= dist.last().unwrap().exposures);
    }

    #[test]
    fn ctr_varies_across_time_periods() {
        let ds = tiny();
        let dist = distribution_by_time_period(&ds);
        let ctrs: Vec<f64> = dist.iter().filter(|b| b.exposures > 50).map(BucketStat::ctr).collect();
        assert!(ctrs.len() >= 2);
        let max = ctrs.iter().cloned().fold(0.0, f64::max);
        let min = ctrs.iter().cloned().fold(1.0, f64::min);
        assert!(max > min, "spatiotemporal bias should produce CTR spread");
    }

    #[test]
    fn surface_dimensions() {
        let ds = tiny();
        let surface = ctr_surface(&ds);
        assert_eq!(surface.len(), ds.config.n_cities);
        assert!(surface.iter().all(|row| row.len() == 24));
    }
}
