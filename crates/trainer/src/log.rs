//! The per-step training log: one JSON object per line.
//!
//! [`train`](crate::train) writes a [`StepRecord`] per optimization step and
//! a closing [`SummaryRecord`] to the log, if and only if a caller opened it
//! with [`open_train_log`] first. Unit tests and library callers that never
//! open it leave no file behind. Records are rendered by `serde_json`, the
//! workspace's one JSON writer.

use serde::Serialize;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// One optimization step.
#[derive(Serialize)]
pub struct StepRecord {
    /// 1-based step count across epochs.
    pub step: u64,
    /// 0-based epoch.
    pub epoch: u64,
    /// Training loss of the batch.
    pub loss: f32,
    /// Learning rate the step used.
    pub lr: f32,
    /// Post-clip global gradient norm.
    pub grad_norm: f64,
    /// Batch rows over the step's wall time.
    pub examples_per_sec: f64,
}

/// The last line of a run.
#[derive(Serialize)]
pub struct SummaryRecord {
    /// Always `"summary"`; tells this line apart from the step lines.
    pub event: &'static str,
    /// The model's Table IV row label.
    pub model: String,
    /// Optimization steps taken.
    pub steps: u64,
    /// Training rows consumed.
    pub examples: u64,
    /// Wall time of the whole run, batch-norm refresh included.
    pub wall_secs: f64,
    /// Mean training loss of the final epoch.
    pub final_train_loss: f64,
    /// `examples / wall_secs`.
    pub examples_per_sec: f64,
}

struct TrainLog {
    path: PathBuf,
    w: BufWriter<File>,
}

static TRAIN_LOG: Mutex<Option<TrainLog>> = Mutex::new(None);

fn train_log() -> MutexGuard<'static, Option<TrainLog>> {
    TRAIN_LOG.lock().unwrap_or_else(|p| p.into_inner())
}

/// Open (or replace) the training log at `path`, truncating it and creating
/// parent directories. Every later [`train`](crate::train) run appends its
/// records until [`close_train_log`].
pub fn open_train_log(path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref().to_path_buf();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let w = BufWriter::new(File::create(&path)?);
    *train_log() = Some(TrainLog { path, w });
    Ok(())
}

/// Flush and close the training log, returning its path if it was open.
pub fn close_train_log() -> Option<PathBuf> {
    train_log().take().map(|mut log| {
        if let Err(e) = log.w.flush() {
            eprintln!("[basm-trainer] flush {}: {e}", log.path.display());
        }
        log.path
    })
}

/// Whether [`write_record`] would write anywhere. Callers computing record
/// fields check this first.
pub(crate) fn train_log_open() -> bool {
    train_log().is_some()
}

/// Append one record as a line. Errors are reported to stderr and
/// otherwise swallowed: the log must never abort the run it observes.
pub(crate) fn write_record(record: &impl Serialize) {
    if let Some(log) = train_log().as_mut() {
        let line = serde_json::to_string(record).expect("serialize train log record");
        if let Err(e) = writeln!(log.w, "{line}") {
            eprintln!("[basm-trainer] write {}: {e}", log.path.display());
        }
    }
}
