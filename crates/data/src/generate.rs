//! Impression-log generation: the closed-loop process that turns a
//! [`World`] into a [`Dataset`].
//!
//! Each simulated session mirrors the production funnel in Fig. 1/13 of the
//! paper: a user opens the app at some hour and location, an LBS recall pulls
//! nearby candidates, a (noisy, ground-truth-correlated) legacy ranker orders
//! them, the top-k get exposed, and clicks are drawn from the ground-truth
//! click model. Users accumulate behavior history across days; per-user and
//! per-item counters provide the "statistics" dense features of Table I as
//! they would exist in production logs (as-of-impression-time values).

use crate::config::WorldConfig;
use crate::dataset::Dataset;
use crate::schema::{DENSE_FEATURES, TimePeriod};
use crate::world::{BehaviorSummary, Context, World};
use basm_tensor::Prng;
use std::collections::VecDeque;

type Event = BehaviorEvent;

/// One behavior event in a user's history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BehaviorEvent {
    /// Clicked item index.
    pub item: u32,
    /// Item category.
    pub cat: u16,
    /// Item brand.
    pub brand: u16,
    /// Time-period index of the click.
    pub tp: u8,
    /// Hour of the click.
    pub hour: u8,
    /// City of the click.
    pub city: u16,
    /// Item geohash x within the city grid.
    pub gx: u8,
    /// Item geohash y within the city grid.
    pub gy: u8,
}

/// As-of-impression-time statistics counters (the production "statistics"
/// features of Table I). The serving simulator maintains its own copy — that
/// is the feature server's job.
pub struct StatCounters {
    /// Cumulative clicks per user.
    pub user_clicks: Vec<u32>,
    /// Cumulative orders per user.
    pub user_orders: Vec<u32>,
    /// Cumulative clicks per item.
    pub item_clicks: Vec<u32>,
    /// Cumulative exposures per item.
    pub item_exposures: Vec<u32>,
}

impl StatCounters {
    /// Zeroed counters for a world.
    pub fn new(n_users: usize, n_items: usize) -> Self {
        Self {
            user_clicks: vec![0; n_users],
            user_orders: vec![0; n_users],
            item_clicks: vec![0; n_items],
            item_exposures: vec![0; n_items],
        }
    }
}

/// A world plus the impression log generated from it.
pub struct GeneratedData {
    /// The generating world (kept for serving simulation and analysis).
    pub world: World,
    /// The recorded impression log.
    pub dataset: Dataset,
}

/// Cumulative-weight sampler over a fixed distribution.
struct WeightedSampler {
    cumulative: Vec<f64>,
}

impl WeightedSampler {
    fn new(weights: impl Iterator<Item = f64>) -> Self {
        let mut cumulative = Vec::new();
        let mut total = 0.0;
        for w in weights {
            total += w.max(0.0);
            cumulative.push(total);
        }
        assert!(total > 0.0, "WeightedSampler: all-zero weights");
        Self { cumulative }
    }

    fn sample(&self, rng: &mut Prng) -> usize {
        let target = rng.uniform() as f64 * self.cumulative.last().copied().unwrap_or(1.0);
        self.cumulative.partition_point(|&c| c < target).min(self.cumulative.len() - 1)
    }
}

/// Generate the full impression log for a configuration.
pub fn generate_dataset(config: &WorldConfig) -> GeneratedData {
    let world = World::generate(config.clone());
    let mut rng = Prng::seeded(config.seed ^ 0xD47A_5E7);
    let dataset = generate_log(&world, &mut rng);
    GeneratedData { world, dataset }
}

fn generate_log(world: &World, rng: &mut Prng) -> Dataset {
    let cfg = &world.config;
    let t = cfg.seq_len;
    let mut ds = Dataset::empty(cfg.clone());
    let n_expected = cfg.expected_impressions();
    reserve(&mut ds, n_expected, t);

    // LBS substrate: items per city.
    let mut city_items: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_cities];
    for (i, item) in world.items.iter().enumerate() {
        city_items[item.city as usize].push(i as u32);
    }
    // Give any empty city a fallback pool (tiny configs).
    for c in 0..cfg.n_cities {
        if city_items[c].is_empty() {
            city_items[c].push(rng.below(cfg.n_items) as u32);
        }
    }

    let user_sampler = WeightedSampler::new(world.users.iter().map(|u| u.activity as f64));
    let hour_sampler = WeightedSampler::new(world.hour_weights.iter().copied());

    // Evolving state.
    let mut history: Vec<VecDeque<Event>> = vec![VecDeque::new(); cfg.n_users];
    let mut counters = StatCounters::new(cfg.n_users, cfg.n_items);

    // History bootstrap: compress the months of pre-log behavior production
    // sequences carry. For each user, draw past click events directly from
    // the ground-truth preference structure (pick among a few candidates in
    // proportion to their click probability) at meal-curve hours.
    for (uid, user) in world.users.iter().enumerate() {
        let n_events =
            ((cfg.history_bootstrap as f32) * user.activity).round().max(1.0) as usize;
        let pool = &city_items[user.city as usize];
        let h = &mut history[uid];
        for _ in 0..n_events.min(4 * t) {
            let hour = hour_sampler.sample(rng) as u8;
            let tp = TimePeriod::from_hour(hour);
            let ctx = Context {
                day: 0,
                hour,
                tp,
                city: user.city,
                geo: user.geo,
                position: 0,
            };
            // The user clicked *something*: pick among candidates weighted by
            // click probability so history reflects true preferences.
            let n_cand = 5.min(pool.len());
            let cands: Vec<u32> = (0..n_cand).map(|_| pool[rng.below(pool.len())]).collect();
            let weights: Vec<f64> = cands
                .iter()
                .map(|&iid| {
                    let item = &world.items[iid as usize];
                    let beh = summarize(h, item.category, tp, t);
                    world.click_probability(user, item, ctx, beh, 0.0) as f64
                })
                .collect();
            let pick = cands[rng.weighted(&weights)];
            let item = &world.items[pick as usize];
            h.push_back(Event {
                item: pick,
                cat: item.category,
                brand: item.brand,
                tp: tp.index() as u8,
                hour,
                city: user.city,
                gx: item.geo.0,
                gy: item.geo.1,
            });
            counters.user_clicks[uid] += 1;
            counters.item_clicks[pick as usize] += 1;
            counters.item_exposures[pick as usize] += 5;
            if rng.chance(0.35) {
                counters.user_orders[uid] += 1;
            }
        }
    }

    let k = cfg.candidates_per_session;
    let pool_size = (3 * k).min(64);
    let mut session_id: u32 = 0;

    for day in 0..cfg.total_days() {
        let recorded = day >= cfg.warmup_days;
        for _ in 0..cfg.sessions_per_day {
            let uid = user_sampler.sample(rng);
            let user = &world.users[uid];
            let hour = hour_sampler.sample(rng) as u8;
            let tp = TimePeriod::from_hour(hour);
            // Request location: home cell jittered by at most one cell.
            let jitter = |v: u8, rng: &mut Prng| {
                let d = rng.below(3) as i32 - 1;
                (v as i32 + d).clamp(0, cfg.geo_grid as i32 - 1) as u8
            };
            let geo = (jitter(user.geo.0, rng), jitter(user.geo.1, rng));
            let ctx0 = Context {
                day: day as u16,
                hour,
                tp,
                city: user.city,
                geo,
                position: 0,
            };

            // Recall: popularity-weighted sample from the city pool.
            let pool = &city_items[user.city as usize];
            let mut candidates: Vec<u32> = Vec::with_capacity(pool_size);
            for _ in 0..pool_size.min(pool.len() * 2) {
                let cand = pool[rng.below(pool.len())];
                if !candidates.contains(&cand) {
                    candidates.push(cand);
                }
                if candidates.len() == pool_size {
                    break;
                }
            }

            // Legacy ranker: ground-truth logit + noise, top-k exposed.
            let hist = &history[uid];
            let mut scored: Vec<(f32, u32)> = candidates
                .iter()
                .map(|&iid| {
                    let item = &world.items[iid as usize];
                    let beh = summarize(hist, item.category, tp, t);
                    let score =
                        world.click_logit(user, item, ctx0, beh) + rng.normal() * 0.8;
                    (score, iid)
                })
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            scored.truncate(k);

            let mut clicked_events: Vec<Event> = Vec::new();
            for (rank, &(_, iid)) in scored.iter().enumerate() {
                let item = &world.items[iid as usize];
                let ctx = Context { position: rank as u8, ..ctx0 };
                let beh = summarize(&history[uid], item.category, tp, t);
                let p = world.click_probability(
                    user,
                    item,
                    ctx,
                    beh,
                    rng.normal() * cfg.label_noise,
                );
                let label = rng.chance(p as f64);

                if recorded {
                    append_example(
                        &mut ds,
                        world,
                        uid,
                        iid,
                        ctx,
                        session_id,
                        label,
                        p,
                        &history[uid],
                        &counters,
                    );
                }

                counters.item_exposures[iid as usize] += 1;
                if label {
                    counters.user_clicks[uid] += 1;
                    counters.item_clicks[iid as usize] += 1;
                    if rng.chance(0.35) {
                        counters.user_orders[uid] += 1;
                    }
                    clicked_events.push(Event {
                        item: iid,
                        cat: item.category,
                        brand: item.brand,
                        tp: tp.index() as u8,
                        hour,
                        city: user.city,
                        gx: item.geo.0,
                        gy: item.geo.1,
                    });
                }
            }

            // Append clicks to history after the session, capped.
            let h = &mut history[uid];
            for ev in clicked_events {
                h.push_back(ev);
                while h.len() > 4 * t {
                    h.pop_front();
                }
            }
            if recorded {
                session_id += 1;
            }
        }
    }

    // Re-index recorded days to 0-based.
    let warm = world.config.warmup_days as u16;
    for d in &mut ds.day {
        *d -= warm;
    }
    ds
}

fn reserve(ds: &mut Dataset, n: usize, t: usize) {
    ds.label.reserve(n);
    ds.true_prob.reserve(n);
    ds.day.reserve(n);
    ds.session.reserve(n);
    ds.hour.reserve(n);
    ds.tp.reserve(n);
    ds.city.reserve(n);
    ds.geohash.reserve(n);
    ds.position.reserve(n);
    ds.user.reserve(n);
    ds.item.reserve(n);
    ds.category.reserve(n);
    ds.brand.reserve(n);
    ds.combine.reserve(n);
    ds.dense.reserve(n * DENSE_FEATURES);
    ds.seq_item.reserve(n * t);
    ds.seq_cat.reserve(n * t);
    ds.seq_brand.reserve(n * t);
    ds.seq_tp.reserve(n * t);
    ds.seq_hour.reserve(n * t);
    ds.seq_city.reserve(n * t);
    ds.seq_geo.reserve(n * t);
    ds.seq_st_flag.reserve(n * t);
    ds.seq_used.reserve(n);
}

/// Summarize the most recent `t` events against a candidate category and the
/// current time-period.
fn summarize(history: &VecDeque<Event>, cat: u16, tp: TimePeriod, t: usize) -> BehaviorSummary {
    let recent = history.len().min(t);
    if recent == 0 {
        return BehaviorSummary::default();
    }
    let mut cat_hits = 0usize;
    let mut cat_tp_hits = 0usize;
    for ev in history.iter().rev().take(recent) {
        if ev.cat == cat {
            cat_hits += 1;
            if ev.tp as usize == tp.index() {
                cat_tp_hits += 1;
            }
        }
    }
    BehaviorSummary {
        cat_affinity: cat_hits as f32 / recent as f32,
        cat_tp_affinity: cat_tp_hits as f32 / recent as f32,
    }
}

/// Materialize one impression into a dataset: ids, dense statistics, combine
/// cross features and the behavior-sequence snapshot. This is the single
/// feature-engineering path shared by offline log generation and the online
/// serving simulator.
#[allow(clippy::too_many_arguments)]
pub fn append_example(
    ds: &mut Dataset,
    world: &World,
    uid: usize,
    iid: u32,
    ctx: Context,
    session: u32,
    label: bool,
    true_prob: f32,
    history: &VecDeque<BehaviorEvent>,
    counters: &StatCounters,
) {
    let cfg = &world.config;
    let user = &world.users[uid];
    let item = &world.items[iid as usize];
    let t = cfg.seq_len;

    ds.label.push(if label { 1.0 } else { 0.0 });
    ds.true_prob.push(true_prob);
    ds.day.push(ctx.day);
    ds.session.push(session);
    ds.hour.push(ctx.hour);
    ds.tp.push(ctx.tp.index() as u8);
    ds.city.push(ctx.city);
    ds.geohash.push(world.geohash_id(ctx.city, ctx.geo));
    ds.position.push(ctx.position);
    ds.user.push(uid as u32);
    ds.item.push(iid);
    ds.category.push(item.category);
    ds.brand.push(item.brand);

    // Combine cross feature: category relation x price-match bucket x city tier.
    let cat_rel: u16 = if item.category == user.fav_category {
        2
    } else if item.category == user.alt_category {
        1
    } else {
        0
    };
    let price_bucket = ((user.price_pref - item.price_tier).abs() as u16).min(4);
    let city_tier: u16 = u16::from(world.cities[ctx.city as usize].user_share <= 0.15);
    let combine = cat_rel * 10 + price_bucket * 2 + city_tier;
    debug_assert!((combine as usize) < Dataset::COMBINE_CARD);
    ds.combine.push(combine);

    // Dense statistics (as-of-impression-time, normalized to ~unit scale).
    let dist = world.geo_distance(ctx.geo, item.geo);
    let exposures = counters.item_exposures[iid as usize];
    let item_ctr = counters.item_clicks[iid as usize] as f32 / (exposures as f32 + 10.0);
    ds.dense.extend_from_slice(&[
        (counters.user_clicks[uid] as f32).ln_1p() / 5.0,
        (counters.user_orders[uid] as f32).ln_1p() / 5.0,
        user.activity / 2.0,
        item_ctr * 10.0,
        (counters.item_clicks[iid as usize] as f32).ln_1p() / 6.0,
        item.price_tier / 4.0,
        dist,
        ctx.position as f32 / cfg.candidates_per_session as f32,
    ]);
    debug_assert_eq!(ds.dense.len(), ds.label.len() * DENSE_FEATURES);

    // Behavior sequence: most recent first, padded with 0.
    let used = history.len().min(t);
    ds.seq_used.push(used as u8);
    let mut wrote = 0usize;
    for ev in history.iter().rev().take(used) {
        ds.seq_item.push(ev.item + 1);
        ds.seq_cat.push(ev.cat + 1);
        ds.seq_brand.push(ev.brand + 1);
        ds.seq_tp.push(ev.tp + 1);
        ds.seq_hour.push(ev.hour + 1);
        ds.seq_city.push(ev.city + 1);
        ds.seq_geo.push(world.geohash_id(ev.city, (ev.gx, ev.gy)) + 1);
        let same_tp = ev.tp as usize == ctx.tp.index();
        let nearby = ev.city == ctx.city
            && (ev.gx as i32 - ctx.geo.0 as i32).abs() <= 2
            && (ev.gy as i32 - ctx.geo.1 as i32).abs() <= 2;
        ds.seq_st_flag.push(u8::from(same_tp && nearby));
        wrote += 1;
    }
    for _ in wrote..t {
        ds.seq_item.push(0);
        ds.seq_cat.push(0);
        ds.seq_brand.push(0);
        ds.seq_tp.push(0);
        ds.seq_hour.push(0);
        ds.seq_city.push(0);
        ds.seq_geo.push(0);
        ds.seq_st_flag.push(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_expected_volume() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        assert_eq!(data.dataset.len(), cfg.expected_impressions());
    }

    #[test]
    fn deterministic_generation() {
        let cfg = WorldConfig::tiny();
        let a = generate_dataset(&cfg).dataset;
        let b = generate_dataset(&cfg).dataset;
        assert_eq!(a.label, b.label);
        assert_eq!(a.seq_item, b.seq_item);
        assert_eq!(a.dense, b.dense);
    }

    #[test]
    fn ctr_in_plausible_band() {
        let ctr = generate_dataset(&WorldConfig::tiny()).dataset.ctr();
        assert!(ctr > 0.01 && ctr < 0.5, "tiny CTR {ctr}");
    }

    #[test]
    fn days_are_zero_based_and_complete() {
        let cfg = WorldConfig::tiny();
        let ds = generate_dataset(&cfg).dataset;
        let max_day = *ds.day.iter().max().unwrap() as usize;
        let min_day = *ds.day.iter().min().unwrap() as usize;
        assert_eq!(min_day, 0);
        assert_eq!(max_day, cfg.recorded_days() - 1);
    }

    #[test]
    fn sequences_are_warm_from_day_one() {
        // The history bootstrap means even day-0 impressions carry meaningful
        // sequences, and they stay populated through the last day.
        let cfg = WorldConfig::tiny();
        let ds = generate_dataset(&cfg).dataset;
        let first_day_avg: f32 = avg_seq(&ds, 0);
        let last_day_avg: f32 = avg_seq(&ds, cfg.recorded_days() as u16 - 1);
        assert!(first_day_avg > 1.0, "bootstrap should warm histories: {first_day_avg}");
        assert!(last_day_avg > 1.0, "histories should stay warm: {last_day_avg}");
        fn avg_seq(ds: &Dataset, day: u16) -> f32 {
            let (sum, n) = ds
                .day
                .iter()
                .zip(ds.seq_used.iter())
                .filter(|(&d, _)| d == day)
                .fold((0f32, 0usize), |(s, n), (_, &u)| (s + u as f32, n + 1));
            sum / n.max(1) as f32
        }
    }

    #[test]
    fn st_flag_only_on_valid_positions() {
        let ds = generate_dataset(&WorldConfig::tiny()).dataset;
        for (i, &flag) in ds.seq_st_flag.iter().enumerate() {
            if flag != 0 {
                assert_ne!(ds.seq_item[i], 0, "st flag on padded position {i}");
            }
        }
    }

    #[test]
    fn positive_labels_follow_higher_true_prob() {
        let ds = generate_dataset(&WorldConfig::tiny()).dataset;
        let pos_mean: f64 = mean_prob(&ds, 1.0);
        let neg_mean: f64 = mean_prob(&ds, 0.0);
        assert!(
            pos_mean > neg_mean,
            "clicked impressions should have higher ground-truth p: {pos_mean} vs {neg_mean}"
        );
        fn mean_prob(ds: &Dataset, label: f32) -> f64 {
            let (sum, n) = ds
                .label
                .iter()
                .zip(ds.true_prob.iter())
                .filter(|(&l, _)| l == label)
                .fold((0f64, 0usize), |(s, n), (_, &p)| (s + p as f64, n + 1));
            sum / n.max(1) as f64
        }
    }

    #[test]
    fn weighted_sampler_respects_mass() {
        let sampler = WeightedSampler::new([0.0, 1.0, 3.0].into_iter());
        let mut rng = Prng::seeded(5);
        let mut hits = [0usize; 3];
        for _ in 0..20_000 {
            hits[sampler.sample(&mut rng)] += 1;
        }
        assert_eq!(hits[0], 0);
        assert!(hits[2] > 2 * hits[1]);
    }
}
