//! Deterministic kill-point injection for durable IO (DESIGN.md §13).
//!
//! Every write-side filesystem operation the pack store (and the layers
//! above it: checkpoint directories, the serving WAL) performs is funneled
//! through the guarded primitives in this module. Each primitive counts as
//! exactly **one IO op** on a thread-local op counter; an armed
//! [`CrashPlan`] kills the op whose index equals `kill_at_op`:
//!
//! * a [`write_file`]/[`append_file`] op writes only the first `tear_bytes`
//!   bytes of its buffer (a torn write) and skips its fsync;
//! * a [`rename`]/[`remove_file`]/[`remove_dir_all`]/[`sync_dir`] op does
//!   nothing at all;
//! * in every case the op returns the distinctive injected-crash error
//!   ([`is_injected_crash`]), and **every subsequent op on the thread fails
//!   the same way without touching the disk** — the process is dead, so
//!   error-path cleanup must not run either.
//!
//! A sweep then enumerates `kill_at_op` over `0..ops_executed()` of a dry
//! run and proves that reopening after each simulated crash yields a valid
//! store equal to either the pre- or post-write state — never a corruption
//! error (`tests/crash_sweep.rs`).
//!
//! When no plan is armed the primitives run the full durable discipline:
//! data fsync before rename, parent-directory fsync after, append fsync
//! before a flush claims durability. Every thread starts unarmed; sweeps arm
//! a plan with [`set_crash_plan`]. A crash plan changes durability and
//! control flow on the error path only — a run that is not killed computes
//! bitwise-identical results with any plan armed.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;

/// A deterministic crash: kill IO op number `kill_at_op` (0-based, in
/// execution order on the current thread), tearing the last write at byte
/// `tear_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Index of the guarded IO op that dies.
    pub kill_at_op: u64,
    /// How many bytes of the killed op's buffer reach the disk (ignored for
    /// non-write ops; clamped to the buffer length).
    pub tear_bytes: usize,
}

struct Active {
    plan: Option<CrashPlan>,
    ops: u64,
    killed: bool,
}

thread_local! {
    static ACTIVE: RefCell<Active> =
        const { RefCell::new(Active { plan: None, ops: 0, killed: false }) };
}

/// Arm a crash plan on the current thread (or disarm with `None`), resetting
/// the op counter and any prior kill. Sweeps call this before each probe.
pub fn set_crash_plan(plan: Option<CrashPlan>) {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        a.plan = plan;
        a.ops = 0;
        a.killed = false;
    });
}

/// Guarded IO ops executed on this thread since the last [`set_crash_plan`]
/// (counted with or without a plan armed — a disarmed dry run measures the
/// sweep domain).
pub fn ops_executed() -> u64 {
    ACTIVE.with(|a| a.borrow().ops)
}

/// Whether the armed plan has fired on this thread.
pub fn crash_fired() -> bool {
    ACTIVE.with(|a| a.borrow().killed)
}

const CRASH_MSG: &str = "injected crash (kill point)";

/// The error every op returns at and after the kill point.
fn crash_error() -> std::io::Error {
    std::io::Error::other(CRASH_MSG)
}

/// Whether an error came from an injected kill point (as opposed to a real
/// filesystem failure). The serving WAL turns exactly these into panics so
/// the supervised restart path treats them as the crash they simulate.
pub fn is_injected_crash(e: &std::io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.to_string() == CRASH_MSG)
}

enum OpFate {
    Run,
    /// Kill this op; write ops land `tear` bytes first.
    Kill { tear: usize },
    /// The thread already crashed: do no IO at all.
    Dead,
}

fn next_op() -> OpFate {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        if a.killed {
            return OpFate::Dead;
        }
        let n = a.ops;
        a.ops += 1;
        match a.plan {
            Some(p) if n == p.kill_at_op => {
                a.killed = true;
                OpFate::Kill { tear: p.tear_bytes }
            }
            _ => OpFate::Run,
        }
    })
}

/// Create/truncate `path` and write `bytes` durably (`sync_all` before
/// returning). One guarded op; a kill leaves a torn, unsynced prefix.
pub fn write_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    match next_op() {
        OpFate::Run => {
            let mut f = std::fs::File::create(path)?;
            f.write_all(bytes)?;
            f.sync_all()
        }
        OpFate::Kill { tear } => {
            if let Ok(mut f) = std::fs::File::create(path) {
                let _ = f.write_all(&bytes[..tear.min(bytes.len())]);
            }
            Err(crash_error())
        }
        OpFate::Dead => Err(crash_error()),
    }
}

/// Append `bytes` to `path` durably (`sync_all` before returning), creating
/// the file if absent. One guarded op; a kill appends a torn, unsynced
/// prefix — exactly the artifact torn-tail-tolerant replay must absorb.
pub fn append_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    match next_op() {
        OpFate::Run => {
            let mut f =
                std::fs::OpenOptions::new().append(true).create(true).open(path)?;
            f.write_all(bytes)?;
            f.sync_all()
        }
        OpFate::Kill { tear } => {
            if let Ok(mut f) =
                std::fs::OpenOptions::new().append(true).create(true).open(path)
            {
                let _ = f.write_all(&bytes[..tear.min(bytes.len())]);
            }
            Err(crash_error())
        }
        OpFate::Dead => Err(crash_error()),
    }
}

/// Rename `from` over `to`. One guarded op; a kill renames nothing.
pub fn rename(from: &Path, to: &Path) -> std::io::Result<()> {
    match next_op() {
        OpFate::Run => std::fs::rename(from, to),
        OpFate::Kill { .. } | OpFate::Dead => Err(crash_error()),
    }
}

/// Remove a file. One guarded op; a kill removes nothing.
pub fn remove_file(path: &Path) -> std::io::Result<()> {
    match next_op() {
        OpFate::Run => std::fs::remove_file(path),
        OpFate::Kill { .. } | OpFate::Dead => Err(crash_error()),
    }
}

/// Remove a directory tree. One guarded op (a real crash kills the whole
/// recursive removal as one unit as far as callers can observe: they either
/// proceed past it or they don't); a kill removes nothing.
pub fn remove_dir_all(path: &Path) -> std::io::Result<()> {
    match next_op() {
        OpFate::Run => std::fs::remove_dir_all(path),
        OpFate::Kill { .. } | OpFate::Dead => Err(crash_error()),
    }
}

/// Fsync a directory so a just-renamed or just-removed entry survives power
/// loss (POSIX: `rename` durability requires the parent's metadata on disk).
/// One guarded op; a kill syncs nothing.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    match next_op() {
        OpFate::Run => std::fs::File::open(dir)?.sync_all(),
        OpFate::Kill { .. } | OpFate::Dead => Err(crash_error()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_point_tears_and_stays_dead() {
        let dir = super::super::fresh_temp_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.bin");
        let b = dir.join("b.bin");

        set_crash_plan(Some(CrashPlan { kill_at_op: 1, tear_bytes: 3 }));
        write_file(&a, b"hello world").unwrap(); // op 0 survives
        let err = write_file(&b, b"hello world").unwrap_err(); // op 1 dies
        assert!(is_injected_crash(&err));
        assert!(crash_fired());
        assert_eq!(std::fs::read(&a).unwrap(), b"hello world");
        assert_eq!(std::fs::read(&b).unwrap(), b"hel", "torn at tear_bytes");
        // The thread is dead: nothing else touches the disk.
        assert!(is_injected_crash(&remove_file(&a).unwrap_err()));
        assert!(a.exists());

        set_crash_plan(None);
        assert_eq!(ops_executed(), 0);
        write_file(&b, b"recovered").unwrap();
        assert_eq!(std::fs::read(&b).unwrap(), b"recovered");
        assert_eq!(ops_executed(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_write_ops_do_nothing_when_killed() {
        let dir = super::super::fresh_temp_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.bin");
        std::fs::write(&a, b"x").unwrap();

        set_crash_plan(Some(CrashPlan { kill_at_op: 0, tear_bytes: 0 }));
        assert!(is_injected_crash(&rename(&a, &dir.join("b.bin")).unwrap_err()));
        assert!(a.exists(), "killed rename must not move the file");
        set_crash_plan(Some(CrashPlan { kill_at_op: 0, tear_bytes: 0 }));
        assert!(is_injected_crash(&remove_file(&a).unwrap_err()));
        assert!(a.exists(), "killed remove must not remove the file");
        set_crash_plan(None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
