//! LBS candidate recall: "the candidate items are recalled based on
//! Location-based Service" (§IV-B). Items are indexed by (city, geohash
//! cell); a request pulls items within a grid radius of the request cell,
//! widening the radius until enough candidates are found.

use basm_data::World;
use basm_tensor::Prng;

/// Geohash-indexed item store.
pub struct LbsRecall {
    grid: usize,
    /// `cells[city][cell] -> item ids`.
    cells: Vec<Vec<Vec<u32>>>,
    /// All items per city (radius-exhausted fallback).
    by_city: Vec<Vec<u32>>,
}

impl LbsRecall {
    /// Index a world's items.
    pub fn build(world: &World) -> Self {
        let grid = world.config.geo_grid;
        let n_cities = world.config.n_cities;
        let mut cells = vec![vec![Vec::new(); grid * grid]; n_cities];
        let mut by_city = vec![Vec::new(); n_cities];
        for (i, item) in world.items.iter().enumerate() {
            let c = item.city as usize;
            cells[c][item.geo.0 as usize * grid + item.geo.1 as usize].push(i as u32);
            by_city[c].push(i as u32);
        }
        Self { grid, cells, by_city }
    }

    /// Every indexed item of a city. Input for the city-popularity fallback
    /// rung of the degradation ladder (DESIGN.md §8): when geo recall fails,
    /// the pipeline ranks this pool by click-count priors instead.
    pub fn city_pool(&self, city: u16) -> &[u32] {
        &self.by_city[city as usize]
    }

    /// Recall up to `limit` candidates near `(city, geo)`, expanding the
    /// search radius ring by ring; falls back to sampling the whole city.
    pub fn candidates(
        &self,
        city: u16,
        geo: (u8, u8),
        limit: usize,
        rng: &mut Prng,
    ) -> Vec<u32> {
        let cells = &self.cells[city as usize];
        let mut out: Vec<u32> = Vec::with_capacity(limit);
        let g = self.grid as i32;
        for radius in 0..g {
            for dx in -radius..=radius {
                for dy in -radius..=radius {
                    if dx.abs().max(dy.abs()) != radius {
                        continue; // only the ring at this radius
                    }
                    let x = geo.0 as i32 + dx;
                    let y = geo.1 as i32 + dy;
                    if x < 0 || y < 0 || x >= g || y >= g {
                        continue;
                    }
                    for &iid in &cells[(x * g + y) as usize] {
                        if out.len() < limit {
                            out.push(iid);
                        }
                    }
                }
            }
            if out.len() >= limit {
                break;
            }
        }
        // Radius exhausted: top up from the whole city pool.
        let pool = &self.by_city[city as usize];
        let mut guard = 0;
        while out.len() < limit && !pool.is_empty() && guard < limit * 20 {
            let cand = pool[rng.below(pool.len())];
            if !out.contains(&cand) {
                out.push(cand);
            }
            guard += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basm_data::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::tiny())
    }

    #[test]
    fn recall_prefers_nearby_items() {
        let w = world();
        let recall = LbsRecall::build(&w);
        let mut rng = Prng::seeded(1);
        let geo = (1u8, 1u8);
        let got = recall.candidates(0, geo, 10, &mut rng);
        assert!(!got.is_empty());
        // Every candidate is from the requested city.
        for &iid in &got {
            assert_eq!(w.items[iid as usize].city, 0);
        }
        // The first candidates are no farther than the last ones on average.
        let d = |iid: u32| {
            let item = &w.items[iid as usize];
            w.geo_distance(geo, item.geo)
        };
        if got.len() >= 4 {
            let first = d(got[0]);
            let last = d(*got.last().unwrap());
            assert!(first <= last + 1e-6, "ring order violated: {first} vs {last}");
        }
    }

    #[test]
    fn recall_caps_at_limit() {
        let w = world();
        let recall = LbsRecall::build(&w);
        let mut rng = Prng::seeded(2);
        let got = recall.candidates(0, (0, 0), 5, &mut rng);
        assert!(got.len() <= 5);
    }

    #[test]
    fn recall_is_exhaustive_when_city_is_small() {
        let w = world();
        let recall = LbsRecall::build(&w);
        let mut rng = Prng::seeded(3);
        let city = (w.config.n_cities - 1) as u16; // smallest city
        let total = w.items.iter().filter(|i| i.city == city).count();
        let got = recall.candidates(city, (2, 2), total + 50, &mut rng);
        assert_eq!(got.len(), total, "should recall every item in the city");
    }
}
