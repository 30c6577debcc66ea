//! Columnar impression log and model-facing batches.
//!
//! Examples are stored struct-of-arrays to keep memory compact. Id columns
//! for scalar features store **raw entity indices**; behavior-sequence
//! columns store **index + 1 with 0 = padding** so embedding row 0 can stay
//! the frozen pad row. [`Batch`] applies the `+1` shift to scalar ids so
//! every id handed to a model is embedding-ready.

use crate::config::WorldConfig;
use crate::schema::{DENSE_FEATURES, TimePeriod};
use basm_tensor::pool;
use basm_tensor::{Prng, Tensor};

/// Columnar dataset of impressions.
pub struct Dataset {
    /// The generating configuration.
    pub config: WorldConfig,
    /// Click labels (0/1).
    pub label: Vec<f32>,
    /// Ground-truth click probability (analysis only; never a feature).
    pub true_prob: Vec<f32>,
    /// Recorded day index (0-based; `< train_days` → train).
    pub day: Vec<u16>,
    /// Session (request) id for NDCG grouping.
    pub session: Vec<u32>,
    /// Hour of day.
    pub hour: Vec<u8>,
    /// Time-period index.
    pub tp: Vec<u8>,
    /// City index.
    pub city: Vec<u16>,
    /// Global geohash cell id.
    pub geohash: Vec<u32>,
    /// Exposure position (0-based).
    pub position: Vec<u8>,
    /// User index.
    pub user: Vec<u32>,
    /// Item index.
    pub item: Vec<u32>,
    /// Item category index.
    pub category: Vec<u16>,
    /// Item brand index.
    pub brand: Vec<u16>,
    /// Hand-crafted cross-feature id (< [`Dataset::COMBINE_CARD`]).
    pub combine: Vec<u16>,
    /// Dense statistics, `DENSE_FEATURES` per example, row-major.
    pub dense: Vec<f32>,
    /// Behavior sequence item ids (`+1`, 0 = pad), `seq_len` per example.
    pub seq_item: Vec<u32>,
    /// Sequence category ids (`+1`, 0 = pad).
    pub seq_cat: Vec<u16>,
    /// Sequence brand ids (`+1`, 0 = pad).
    pub seq_brand: Vec<u16>,
    /// Sequence time-period ids (`+1`, 0 = pad).
    pub seq_tp: Vec<u8>,
    /// Sequence hour ids (`+1`, 0 = pad).
    pub seq_hour: Vec<u8>,
    /// Sequence city ids (`+1`, 0 = pad).
    pub seq_city: Vec<u16>,
    /// Sequence geohash ids (`+1`, 0 = pad).
    pub seq_geo: Vec<u32>,
    /// Per-position flag: behavior matches the impression's spatiotemporal
    /// context (same time-period, nearby geohash) — StSTL's filter.
    pub seq_st_flag: Vec<u8>,
    /// Valid prefix length of each sequence.
    pub seq_used: Vec<u8>,
}

impl Dataset {
    /// Cardinality of the combine cross-feature.
    pub const COMBINE_CARD: usize = 30;

    /// An empty dataset shell for the given config.
    pub fn empty(config: WorldConfig) -> Self {
        Self {
            config,
            label: Vec::new(),
            true_prob: Vec::new(),
            day: Vec::new(),
            session: Vec::new(),
            hour: Vec::new(),
            tp: Vec::new(),
            city: Vec::new(),
            geohash: Vec::new(),
            position: Vec::new(),
            user: Vec::new(),
            item: Vec::new(),
            category: Vec::new(),
            brand: Vec::new(),
            combine: Vec::new(),
            dense: Vec::new(),
            seq_item: Vec::new(),
            seq_cat: Vec::new(),
            seq_brand: Vec::new(),
            seq_tp: Vec::new(),
            seq_hour: Vec::new(),
            seq_city: Vec::new(),
            seq_geo: Vec::new(),
            seq_st_flag: Vec::new(),
            seq_used: Vec::new(),
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.label.len()
    }

    /// True when no examples are stored.
    pub fn is_empty(&self) -> bool {
        self.label.is_empty()
    }

    /// Sequence capacity per example.
    pub fn seq_len(&self) -> usize {
        self.config.seq_len
    }

    /// Indices of training examples (`day < train_days`).
    pub fn train_indices(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| (self.day[i] as usize) < self.config.train_days)
            .collect()
    }

    /// Indices of test examples.
    pub fn test_indices(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| (self.day[i] as usize) >= self.config.train_days)
            .collect()
    }

    /// Empirical CTR over all examples.
    pub fn ctr(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.label.iter().map(|&l| l as f64).sum::<f64>() / self.len() as f64
    }

    /// Assemble a model-facing batch from example indices.
    ///
    /// Large batches are encoded in parallel: the index list is split into
    /// contiguous chunks, each chunk fills its own partial [`Batch`], and the
    /// parts are concatenated in chunk order — byte-for-byte the same result
    /// as the serial path for any thread count.
    pub fn batch(&self, indices: &[usize]) -> Batch {
        let b = indices.len();
        let t = self.seq_len();
        // Per example we copy ~7 sequence columns plus dense + scalar ids.
        let work = b * (7 * t + DENSE_FEATURES + 16);
        let threads = pool::threads_for(b, work);
        if threads <= 1 {
            let mut batch = Batch::with_capacity(b, t);
            self.fill_batch(&mut batch, indices);
            return batch.seal();
        }
        let chunks: Vec<&[usize]> = indices.chunks(b.div_ceil(threads)).collect();
        let parts = pool::par_map(&chunks, |chunk| {
            let mut part = Batch::with_capacity(chunk.len(), t);
            self.fill_batch(&mut part, chunk);
            part
        });
        let mut batch = Batch::with_capacity(b, t);
        for part in parts {
            batch.append_columns(part);
        }
        batch.seal()
    }

    /// Append the examples at `indices` onto `batch`'s raw columns.
    fn fill_batch(&self, batch: &mut Batch, indices: &[usize]) {
        let t = self.seq_len();
        for &i in indices {
            batch.labels_vec.push(self.label[i]);
            batch.user_ids.push(self.user[i] + 1);
            batch.item_ids.push(self.item[i] + 1);
            batch.cat_ids.push(self.category[i] as u32 + 1);
            batch.brand_ids.push(self.brand[i] as u32 + 1);
            batch.city_ids.push(self.city[i] as u32 + 1);
            batch.hour_ids.push(self.hour[i] as u32 + 1);
            batch.tp_ids.push(self.tp[i] as u32 + 1);
            batch.geo_ids.push(self.geohash[i] + 1);
            batch.pos_ids.push(self.position[i] as u32 + 1);
            batch.combine_ids.push(self.combine[i] as u32 + 1);
            batch
                .dense_vec
                .extend_from_slice(&self.dense[i * DENSE_FEATURES..(i + 1) * DENSE_FEATURES]);
            let s = i * t;
            batch.seq_item.extend_from_slice(&self.seq_item[s..s + t]);
            batch.seq_cat.extend(self.seq_cat[s..s + t].iter().map(|&v| v as u32));
            batch.seq_brand.extend(self.seq_brand[s..s + t].iter().map(|&v| v as u32));
            batch.seq_tp.extend(self.seq_tp[s..s + t].iter().map(|&v| v as u32));
            batch.seq_hour.extend(self.seq_hour[s..s + t].iter().map(|&v| v as u32));
            batch.seq_city.extend(self.seq_city[s..s + t].iter().map(|&v| v as u32));
            batch.seq_geo.extend_from_slice(&self.seq_geo[s..s + t]);
            for k in 0..t {
                let valid = self.seq_item[s + k] != 0;
                batch.mask_vec.push(if valid { 1.0 } else { 0.0 });
                batch.st_mask_vec.push(if valid && self.seq_st_flag[s + k] != 0 {
                    1.0
                } else {
                    0.0
                });
            }
            batch.tp_raw.push(self.tp[i]);
            batch.city_raw.push(self.city[i]);
            batch.session.push(self.session[i]);
        }
    }

    /// Iterate training batches in a fresh shuffled order.
    pub fn shuffled_batches(
        &self,
        indices: &[usize],
        batch_size: usize,
        rng: &mut Prng,
    ) -> Vec<Vec<usize>> {
        let mut order = indices.to_vec();
        rng.shuffle(&mut order);
        order.chunks(batch_size).map(<[usize]>::to_vec).collect()
    }
}

/// A model-facing minibatch. Scalar id columns are embedding-ready (`+1`
/// shifted); sequence columns use 0 as padding with an explicit mask.
pub struct Batch {
    /// Batch size.
    pub size: usize,
    /// Sequence capacity.
    pub seq_len: usize,
    /// `[size, 1]` click labels.
    pub labels: Tensor,
    /// `[size, DENSE_FEATURES]` normalized statistics.
    pub dense: Tensor,
    /// `[size, seq_len]` 0/1 validity mask.
    pub mask: Tensor,
    /// `[size, seq_len]` mask restricted to behaviors matching the current
    /// spatiotemporal context (StSTL's personalized filter).
    pub st_mask: Tensor,
    pub user_ids: Vec<u32>,
    pub item_ids: Vec<u32>,
    pub cat_ids: Vec<u32>,
    pub brand_ids: Vec<u32>,
    pub city_ids: Vec<u32>,
    pub hour_ids: Vec<u32>,
    pub tp_ids: Vec<u32>,
    pub geo_ids: Vec<u32>,
    pub pos_ids: Vec<u32>,
    pub combine_ids: Vec<u32>,
    pub seq_item: Vec<u32>,
    pub seq_cat: Vec<u32>,
    pub seq_brand: Vec<u32>,
    pub seq_tp: Vec<u32>,
    pub seq_hour: Vec<u32>,
    pub seq_city: Vec<u32>,
    pub seq_geo: Vec<u32>,
    /// Raw time-period per example (metrics grouping).
    pub tp_raw: Vec<u8>,
    /// Raw city per example (metrics grouping).
    pub city_raw: Vec<u16>,
    /// Session id per example (NDCG grouping).
    pub session: Vec<u32>,
    labels_vec: Vec<f32>,
    dense_vec: Vec<f32>,
    mask_vec: Vec<f32>,
    st_mask_vec: Vec<f32>,
}

impl Batch {
    fn with_capacity(b: usize, t: usize) -> Self {
        Self {
            size: b,
            seq_len: t,
            labels: Tensor::zeros(0, 0),
            dense: Tensor::zeros(0, 0),
            mask: Tensor::zeros(0, 0),
            st_mask: Tensor::zeros(0, 0),
            user_ids: Vec::with_capacity(b),
            item_ids: Vec::with_capacity(b),
            cat_ids: Vec::with_capacity(b),
            brand_ids: Vec::with_capacity(b),
            city_ids: Vec::with_capacity(b),
            hour_ids: Vec::with_capacity(b),
            tp_ids: Vec::with_capacity(b),
            geo_ids: Vec::with_capacity(b),
            pos_ids: Vec::with_capacity(b),
            combine_ids: Vec::with_capacity(b),
            seq_item: Vec::with_capacity(b * t),
            seq_cat: Vec::with_capacity(b * t),
            seq_brand: Vec::with_capacity(b * t),
            seq_tp: Vec::with_capacity(b * t),
            seq_hour: Vec::with_capacity(b * t),
            seq_city: Vec::with_capacity(b * t),
            seq_geo: Vec::with_capacity(b * t),
            tp_raw: Vec::with_capacity(b),
            city_raw: Vec::with_capacity(b),
            session: Vec::with_capacity(b),
            labels_vec: Vec::with_capacity(b),
            dense_vec: Vec::with_capacity(b * DENSE_FEATURES),
            mask_vec: Vec::with_capacity(b * t),
            st_mask_vec: Vec::with_capacity(b * t),
        }
    }

    /// Append the raw (unsealed) columns of `part` onto `self`, preserving
    /// order. Used to merge chunk-parallel partial batches.
    fn append_columns(&mut self, mut part: Batch) {
        self.user_ids.append(&mut part.user_ids);
        self.item_ids.append(&mut part.item_ids);
        self.cat_ids.append(&mut part.cat_ids);
        self.brand_ids.append(&mut part.brand_ids);
        self.city_ids.append(&mut part.city_ids);
        self.hour_ids.append(&mut part.hour_ids);
        self.tp_ids.append(&mut part.tp_ids);
        self.geo_ids.append(&mut part.geo_ids);
        self.pos_ids.append(&mut part.pos_ids);
        self.combine_ids.append(&mut part.combine_ids);
        self.seq_item.append(&mut part.seq_item);
        self.seq_cat.append(&mut part.seq_cat);
        self.seq_brand.append(&mut part.seq_brand);
        self.seq_tp.append(&mut part.seq_tp);
        self.seq_hour.append(&mut part.seq_hour);
        self.seq_city.append(&mut part.seq_city);
        self.seq_geo.append(&mut part.seq_geo);
        self.tp_raw.append(&mut part.tp_raw);
        self.city_raw.append(&mut part.city_raw);
        self.session.append(&mut part.session);
        self.labels_vec.append(&mut part.labels_vec);
        self.dense_vec.append(&mut part.dense_vec);
        self.mask_vec.append(&mut part.mask_vec);
        self.st_mask_vec.append(&mut part.st_mask_vec);
    }

    fn seal(mut self) -> Self {
        let b = self.size;
        let t = self.seq_len;
        self.labels = Tensor::from_vec(b, 1, std::mem::take(&mut self.labels_vec));
        self.dense = Tensor::from_vec(b, DENSE_FEATURES, std::mem::take(&mut self.dense_vec));
        self.mask = Tensor::from_vec(b, t, std::mem::take(&mut self.mask_vec));
        self.st_mask = Tensor::from_vec(b, t, std::mem::take(&mut self.st_mask_vec));
        self
    }

    /// The time-period of example `i` as an enum.
    pub fn time_period(&self, i: usize) -> TimePeriod {
        TimePeriod::from_index(self.tp_raw[i] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_dataset;

    #[test]
    fn batch_shapes_and_id_shift() {
        let ds = generate_dataset(&WorldConfig::tiny()).dataset;
        assert!(ds.len() > 100);
        let idx: Vec<usize> = (0..32).collect();
        let batch = ds.batch(&idx);
        assert_eq!(batch.size, 32);
        assert_eq!(batch.labels.shape(), (32, 1));
        assert_eq!(batch.dense.shape(), (32, DENSE_FEATURES));
        assert_eq!(batch.mask.shape(), (32, ds.seq_len()));
        // Scalar ids are +1 shifted: never 0.
        assert!(batch.user_ids.iter().all(|&v| v >= 1));
        assert!(batch.tp_ids.iter().all(|&v| (1..=5).contains(&v)));
        assert_eq!(batch.seq_item.len(), 32 * ds.seq_len());
    }

    #[test]
    fn mask_matches_padding() {
        let ds = generate_dataset(&WorldConfig::tiny()).dataset;
        let idx: Vec<usize> = (0..64.min(ds.len())).collect();
        let batch = ds.batch(&idx);
        for r in 0..batch.size {
            for k in 0..batch.seq_len {
                let valid = batch.seq_item[r * batch.seq_len + k] != 0;
                assert_eq!(batch.mask.get(r, k) != 0.0, valid);
                // st_mask is a subset of mask.
                assert!(batch.st_mask.get(r, k) <= batch.mask.get(r, k));
            }
        }
    }

    #[test]
    fn train_test_split_by_day() {
        let cfg = WorldConfig::tiny();
        let ds = generate_dataset(&cfg).dataset;
        let train = ds.train_indices();
        let test = ds.test_indices();
        assert_eq!(train.len() + test.len(), ds.len());
        assert!(!train.is_empty() && !test.is_empty());
        assert!(train.iter().all(|&i| (ds.day[i] as usize) < cfg.train_days));
        assert!(test.iter().all(|&i| (ds.day[i] as usize) >= cfg.train_days));
    }

    #[test]
    fn parallel_batch_matches_serial() {
        let ds = generate_dataset(&WorldConfig::tiny()).dataset;
        let idx: Vec<usize> = (0..ds.len().min(97)).collect();
        let serial = ds.batch(&idx);
        pool::set_threads(4);
        pool::set_min_work(0);
        let parallel = ds.batch(&idx);
        pool::set_threads(0);
        pool::set_min_work(pool::DEFAULT_MIN_WORK);
        assert_eq!(serial.labels.data(), parallel.labels.data());
        assert_eq!(serial.dense.data(), parallel.dense.data());
        assert_eq!(serial.mask.data(), parallel.mask.data());
        assert_eq!(serial.st_mask.data(), parallel.st_mask.data());
        assert_eq!(serial.user_ids, parallel.user_ids);
        assert_eq!(serial.item_ids, parallel.item_ids);
        assert_eq!(serial.seq_item, parallel.seq_item);
        assert_eq!(serial.seq_geo, parallel.seq_geo);
        assert_eq!(serial.session, parallel.session);
    }

    #[test]
    fn shuffled_batches_cover_everything() {
        let ds = generate_dataset(&WorldConfig::tiny()).dataset;
        let idx = ds.train_indices();
        let mut rng = Prng::seeded(1);
        let batches = ds.shuffled_batches(&idx, 17, &mut rng);
        let mut seen: Vec<usize> = batches.into_iter().flatten().collect();
        seen.sort_unstable();
        let mut want = idx.clone();
        want.sort_unstable();
        assert_eq!(seen, want);
    }
}
