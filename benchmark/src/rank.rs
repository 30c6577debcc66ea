//! The benchmark's reference ranker, written from the serving contract:
//! finite scores first, highest first; non-finite scores after them in
//! descending total order; ties keep candidate order; positions are dense.

use basm_serving::Exposure;

/// One ranked exposure: item, position and the score's bits.
pub type Ranked = (u32, u16, u32);

pub fn top_k(scores: &[f32], candidates: &[u32], k: usize) -> Vec<Ranked> {
    assert_eq!(scores.len(), candidates.len(), "one score per candidate");
    let mut order: Vec<usize> = (0..scores.len()).collect();
    // Stable sort: equal keys keep candidate order.
    order.sort_by(|&a, &b| {
        let (sa, sb) = (scores[a], scores[b]);
        sb.is_finite().cmp(&sa.is_finite()).then(sb.total_cmp(&sa))
    });
    order
        .into_iter()
        .take(k)
        .enumerate()
        .map(|(pos, i)| (candidates[i], pos as u16, scores[i].to_bits()))
        .collect()
}

/// A served exposure list in the ranker's terms.
pub fn ranked(ex: &[Exposure]) -> Vec<Ranked> {
    ex.iter()
        .map(|e| (e.item, e.position, e.score.to_bits()))
        .collect()
}

/// What every served top-k must satisfy: exactly `k` exposures, dense
/// positions, finite scores in descending order.
pub fn check_top_k(ex: &[Exposure], k: usize) -> Result<(), String> {
    if ex.len() != k {
        return Err(format!("{} exposures, expected {k}", ex.len()));
    }
    for (i, e) in ex.iter().enumerate() {
        if usize::from(e.position) != i {
            return Err(format!("position {} at rank {i}", e.position));
        }
        if !e.score.is_finite() {
            return Err(format!("non-finite score {} at rank {i}", e.score));
        }
    }
    if ex.windows(2).any(|w| w[0].score < w[1].score) {
        return Err("scores are not descending".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_scores_sink_below_finite_ones() {
        let scores = [0.3, f32::NAN, 0.9, f32::INFINITY, 0.1, f32::NEG_INFINITY];
        let got = top_k(&scores, &[10, 11, 12, 13, 14, 15], 6);
        let items: Vec<u32> = got.iter().map(|r| r.0).collect();
        assert_eq!(items, vec![12, 10, 14, 11, 13, 15]);
        let positions: Vec<u16> = got.iter().map(|r| r.1).collect();
        assert_eq!(positions, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(got[0].2, 0.9f32.to_bits());
    }

    #[test]
    fn top_k_check_rejects_malformed_lists() {
        let e = |position, score| Exposure {
            item: 1,
            position,
            score,
        };
        assert!(check_top_k(&[e(0, 0.9), e(1, 0.5)], 2).is_ok());
        assert!(
            check_top_k(&[e(0, 0.9), e(1, 0.9)], 2).is_ok(),
            "ties are descending"
        );
        assert!(check_top_k(&[e(0, 0.9)], 2).is_err(), "too short");
        assert!(
            check_top_k(&[e(0, 0.5), e(1, 0.9)], 2).is_err(),
            "ascending"
        );
        assert!(
            check_top_k(&[e(0, 0.9), e(2, 0.5)], 2).is_err(),
            "gap in positions"
        );
        assert!(check_top_k(&[e(0, f32::NAN), e(1, 0.5)], 2).is_err(), "NaN");
    }

    #[test]
    fn ties_keep_candidate_order_and_k_truncates() {
        let got = top_k(&[0.5, 0.7, 0.5, 0.5], &[4, 3, 2, 1], 3);
        assert_eq!(got.iter().map(|r| r.0).collect::<Vec<_>>(), vec![3, 4, 2]);
        assert!(top_k(&[], &[], 10).is_empty());
        assert_eq!(top_k(&[0.1, 0.2], &[1, 2], 10).len(), 2);
    }
}
