//! # basm-data
//!
//! Synthetic spatiotemporal Online-Food-Ordering-Service datasets.
//!
//! The paper evaluates on two inaccessible datasets (the proprietary Ele.me
//! production log and a 177M-row Tianchi dataset). This crate substitutes a
//! **generative world model** whose ground-truth click process has exactly
//! the structure the paper's method exploits: spatiotemporal bias (CTR base
//! rates shifting with city/hour/time-period) and time/space-varying feature
//! importance. See `DESIGN.md` §1 for the substitution argument.
//!
//! ```
//! use basm_data::{WorldConfig, generate_dataset, DatasetStats};
//!
//! let data = generate_dataset(&WorldConfig::tiny());
//! let stats = DatasetStats::compute(&data.dataset);
//! assert!(stats.ctr > 0.0);
//! let batch = data.dataset.batch(&[0, 1, 2]);
//! assert_eq!(batch.size, 3);
//! ```

pub mod config;
pub mod dataset;
pub mod io;
pub mod generate;
pub mod schema;
pub mod stats;
pub mod world;

pub use config::WorldConfig;
pub use dataset::{Batch, Dataset};
pub use generate::{
    append_example, generate_dataset, BehaviorEvent, GeneratedData, StatCounters,
};
pub use io::{export_tsv, import_tsv, TsvError, TSV_HEADER};
pub use schema::{Field, TimePeriod, DENSE_FEATURES, FIELDS, SEQ_FEATURES, TIME_PERIODS};
pub use stats::{
    ctr_surface, distribution_by_city, distribution_by_hour, distribution_by_time_period,
    BucketStat, DatasetStats,
};
pub use world::{BehaviorSummary, City, Context, ItemProfile, UserProfile, World};
