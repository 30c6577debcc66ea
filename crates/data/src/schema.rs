//! Feature schema: fields, time-periods and the categorical/dense layout
//! shared by every model (Table I of the paper).

use serde::Serialize;

/// The paper's five meal time-periods (§III-A2: STAR uses them as domains).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TimePeriod {
    Breakfast,
    Lunch,
    AfternoonTea,
    Dinner,
    Night,
}

/// All time-periods in canonical order.
pub const TIME_PERIODS: [TimePeriod; 5] = [
    TimePeriod::Breakfast,
    TimePeriod::Lunch,
    TimePeriod::AfternoonTea,
    TimePeriod::Dinner,
    TimePeriod::Night,
];

impl TimePeriod {
    /// Map an hour of day (0-23) to its time-period.
    pub fn from_hour(hour: u8) -> TimePeriod {
        match hour {
            5..=9 => TimePeriod::Breakfast,
            10..=13 => TimePeriod::Lunch,
            14..=16 => TimePeriod::AfternoonTea,
            17..=20 => TimePeriod::Dinner,
            _ => TimePeriod::Night,
        }
    }

    /// Canonical index (0-4).
    pub fn index(self) -> usize {
        match self {
            TimePeriod::Breakfast => 0,
            TimePeriod::Lunch => 1,
            TimePeriod::AfternoonTea => 2,
            TimePeriod::Dinner => 3,
            TimePeriod::Night => 4,
        }
    }

    /// Inverse of [`TimePeriod::index`].
    pub fn from_index(i: usize) -> TimePeriod {
        TIME_PERIODS[i]
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TimePeriod::Breakfast => "breakfast",
            TimePeriod::Lunch => "lunch",
            TimePeriod::AfternoonTea => "afternoon-tea",
            TimePeriod::Dinner => "dinner",
            TimePeriod::Night => "night",
        }
    }
}

/// The paper's five feature fields (Table I). StAEL learns one adaptive
/// weight per *other* field conditioned on the spatiotemporal context field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Field {
    /// User ID, profiles, user statistics.
    User,
    /// The behavior sequence (item/category/brand/time-period/hour/city).
    UserBehavior,
    /// Candidate item ID, category, brand, position, shop statistics.
    CandidateItem,
    /// Time-period / hour / geohash / city.
    SpatiotemporalContext,
    /// Hand-selected user x item cross features.
    Combine,
}

/// All fields in canonical order.
pub const FIELDS: [Field; 5] = [
    Field::User,
    Field::UserBehavior,
    Field::CandidateItem,
    Field::SpatiotemporalContext,
    Field::Combine,
];

impl Field {
    /// Canonical index (0-4).
    pub fn index(self) -> usize {
        match self {
            Field::User => 0,
            Field::UserBehavior => 1,
            Field::CandidateItem => 2,
            Field::SpatiotemporalContext => 3,
            Field::Combine => 4,
        }
    }

    /// Human-readable name (used in the Fig. 8/9 heatmaps).
    pub fn name(self) -> &'static str {
        match self {
            Field::User => "user",
            Field::UserBehavior => "user-behavior",
            Field::CandidateItem => "candidate-item",
            Field::SpatiotemporalContext => "st-context",
            Field::Combine => "combine",
        }
    }
}

/// Number of sequence feature columns stored per behavior event
/// (item, category, brand, time-period, hour, city, geohash).
pub const SEQ_FEATURES: usize = 7;

/// Dense (statistics) feature columns attached to every example, normalized
/// to roughly unit scale:
/// user clicks (1d), user orders (90d), user activity, item CTR, item
/// popularity, item price tier, user-item distance, position.
pub const DENSE_FEATURES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hours_cover_all_periods() {
        let mut seen = [false; 5];
        for h in 0..24u8 {
            seen[TimePeriod::from_hour(h).index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn meal_hours_map_sensibly() {
        assert_eq!(TimePeriod::from_hour(8), TimePeriod::Breakfast);
        assert_eq!(TimePeriod::from_hour(12), TimePeriod::Lunch);
        assert_eq!(TimePeriod::from_hour(15), TimePeriod::AfternoonTea);
        assert_eq!(TimePeriod::from_hour(19), TimePeriod::Dinner);
        assert_eq!(TimePeriod::from_hour(23), TimePeriod::Night);
        assert_eq!(TimePeriod::from_hour(2), TimePeriod::Night);
    }

    #[test]
    fn index_roundtrip() {
        for tp in TIME_PERIODS {
            assert_eq!(TimePeriod::from_index(tp.index()), tp);
        }
        for (i, f) in FIELDS.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
    }
}
