//! Fixtures shared by the serving integration tests.

use basm_data::{BehaviorEvent, TimePeriod, World};
use basm_serving::ServingPipeline;

/// Record one click on every item (user `item % n_users`, hour 12).
///
/// Item CTR features divide clicks by exposures, so with no clicks at all
/// the exposure counters a WAL replays never reach a score, and a replay
/// that loses a record would pass unseen.
pub fn seed_one_click_per_item(pipe: &ServingPipeline, world: &World) {
    for (iid, item) in world.items.iter().enumerate() {
        let uid = iid % world.users.len();
        let event = BehaviorEvent {
            item: iid as u32,
            cat: item.category,
            brand: item.brand,
            tp: TimePeriod::from_hour(12).index() as u8,
            hour: 12,
            city: world.users[uid].city,
            gx: item.geo.0,
            gy: item.geo.1,
        };
        pipe.features.record_click(uid, event, false);
    }
}
