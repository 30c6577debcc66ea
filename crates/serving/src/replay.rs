//! Offline replay: counterfactual policy evaluation on logged exposures.
//!
//! Production teams never deploy on faith alone — between offline AUC and a
//! live A/B sits *replay*: re-rank each logged session with the candidate
//! policy and look up what actually happened to the items it would have
//! promoted. Because the log stores every exposed candidate with its label,
//! top-1 replay is exact up to position bias; a per-position correction
//! estimated from the log itself (the PAL \[28\] idea in its simplest form)
//! debiases the comparison.

use basm_core::model::{predict, CtrModel};
use basm_data::Dataset;
use serde::Serialize;
use std::collections::BTreeMap;

/// Replay outcome for one policy.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayReport {
    /// Policy (model) name.
    pub policy: String,
    /// Raw mean label of the policy's top-1 picks.
    pub ctr_at_1: f64,
    /// Position-debiased estimate of the same.
    pub ctr_at_1_debiased: f64,
    /// Sessions evaluated.
    pub sessions: usize,
    /// How often the policy's top-1 agrees with the logged position-0 item.
    pub top1_agreement: f64,
}

/// Estimate the per-position CTR profile of the logged policy; index =
/// exposure position. Used as the debiasing divisor.
pub fn position_ctr_profile(ds: &Dataset, indices: &[usize]) -> Vec<f64> {
    let mut clicks: Vec<f64> = Vec::new();
    let mut counts: Vec<f64> = Vec::new();
    for &i in indices {
        let p = ds.position[i] as usize;
        if p >= clicks.len() {
            clicks.resize(p + 1, 0.0);
            counts.resize(p + 1, 0.0);
        }
        clicks[p] += ds.label[i] as f64;
        counts[p] += 1.0;
    }
    clicks
        .iter()
        .zip(counts.iter())
        .map(|(&c, &n)| if n > 0.0 { c / n } else { 0.0 })
        .collect()
}

/// Replay a policy over the sessions covering `indices` (typically the test
/// day). For each session the policy rescores the logged candidates; its
/// top-1 pick's logged label feeds the CTR estimate, weighted by the
/// position-bias correction for wherever that item was actually shown.
pub fn replay_top1(model: &mut dyn CtrModel, ds: &Dataset, indices: &[usize]) -> ReplayReport {
    // Group example indices by session. A `BTreeMap`, deliberately: the
    // f64 `raw`/`debiased` sums below fold in map iteration order, and
    // `HashMap` order varies run to run — which made the low bits of the
    // report nondeterministic (the same last-ULP drift PR 1 fixed in
    // `ndcg_at_k`).
    let mut sessions: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for &i in indices {
        sessions.entry(ds.session[i]).or_default().push(i);
    }
    let profile = position_ctr_profile(ds, indices);
    let base_rate = profile.first().copied().unwrap_or(0.0).max(1e-9);

    let mut raw = 0.0f64;
    let mut debiased = 0.0f64;
    let mut agree = 0usize;
    let mut counted = 0usize;
    for (_, mut idx) in sessions {
        if idx.len() < 2 {
            continue;
        }
        idx.sort_by_key(|&i| ds.position[i]);
        let scores = predict(model, &ds.batch(&idx));
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k)
            .expect("non-empty session");
        let picked = idx[best];
        let label = ds.label[picked] as f64;
        raw += label;
        // Correct for the position the pick was *actually* shown at: a click
        // observed at position 5 under-counts relative to position 0.
        let pos = ds.position[picked] as usize;
        let pos_rate = profile.get(pos).copied().unwrap_or(base_rate).max(1e-9);
        debiased += label * (base_rate / pos_rate);
        agree += usize::from(best == 0);
        counted += 1;
    }
    let n = counted.max(1) as f64;
    ReplayReport {
        policy: model.name().to_string(),
        ctr_at_1: raw / n,
        ctr_at_1_debiased: (debiased / n).min(1.0),
        sessions: counted,
        top1_agreement: agree as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basm_baselines::build_model;
    use basm_data::{generate_dataset, WorldConfig};
    use basm_trainer::{train, TrainConfig};

    #[test]
    fn position_profile_decays() {
        let data = generate_dataset(&WorldConfig::tiny());
        let ds = &data.dataset;
        let all: Vec<usize> = (0..ds.len()).collect();
        let profile = position_ctr_profile(ds, &all);
        assert_eq!(profile.len(), ds.config.candidates_per_session);
        assert!(
            profile[0] > profile[profile.len() - 1],
            "position bias should decay: {profile:?}"
        );
    }

    #[test]
    fn trained_policy_replays_above_uniform_baseline() {
        let data = generate_dataset(&WorldConfig::tiny());
        let ds = &data.dataset;
        let test = ds.test_indices();

        // Expected CTR@1 of a uniform-random policy = mean label over all
        // logged candidates (every candidate equally likely to be picked).
        let uniform: f64 = test.iter().map(|&i| ds.label[i] as f64).sum::<f64>()
            / test.len() as f64;

        let mut trained = build_model("DIN", &ds.config, 1);
        let tc = TrainConfig::default_for(ds, 2, 128, 1);
        train(trained.as_mut(), ds, &tc);
        let after = replay_top1(trained.as_mut(), ds, &test);

        assert!(after.sessions > 50);
        assert!(
            after.ctr_at_1 > uniform,
            "trained policy should beat a uniform pick: {} vs {uniform}",
            after.ctr_at_1
        );
    }

    /// Two identical replays must agree to the last bit. With the session
    /// grouping in a `HashMap` they generally did not: each run folded the
    /// f64 `raw`/`debiased` sums in a different iteration order, so reruns
    /// of the same policy on the same log drifted in the low mantissa bits.
    #[test]
    fn replay_is_bitwise_run_to_run_deterministic() {
        let data = generate_dataset(&WorldConfig::tiny());
        let ds = &data.dataset;
        let test = ds.test_indices();
        let run = || {
            // A fresh identically-seeded model per run: nothing carries over.
            let mut model = build_model("DIN", &ds.config, 3);
            let rep = replay_top1(model.as_mut(), ds, &test);
            (
                rep.ctr_at_1.to_bits(),
                rep.ctr_at_1_debiased.to_bits(),
                rep.top1_agreement.to_bits(),
                rep.sessions,
            )
        };
        assert_eq!(run(), run(), "replay_top1 is not bitwise deterministic across runs");
    }

    #[test]
    fn report_fields_are_sane() {
        let data = generate_dataset(&WorldConfig::tiny());
        let ds = &data.dataset;
        let test = ds.test_indices();
        let mut model = build_model("Wide&Deep", &ds.config, 2);
        let rep = replay_top1(model.as_mut(), ds, &test);
        assert!((0.0..=1.0).contains(&rep.ctr_at_1));
        assert!((0.0..=1.0).contains(&rep.top1_agreement));
        assert!(rep.ctr_at_1_debiased >= 0.0);
    }
}
