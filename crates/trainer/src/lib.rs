//! # basm-trainer
//!
//! The offline training/evaluation harness: the paper's protocol (§III-A4) —
//! AdagradDecay with linear warmup 0.001→0.012, batch 1024, N train days +
//! 1 test day, metrics averaged over five seeded repetitions — plus the
//! wall-clock and memory accounting behind Table VI.

pub mod efficiency;
pub mod harness;
mod log;
pub mod online;
pub mod repeat;

pub use efficiency::{measure_efficiency, train_epoch, EfficiencyReport};
pub use harness::{evaluate, train, train_and_evaluate, TrainConfig, TrainOutcome};
pub use log::{close_train_log, open_train_log};
pub use online::{train_online, OnlineDay, OnlineOutcome};
pub use repeat::{run_repeated, RepeatedOutcome};
