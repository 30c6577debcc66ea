//! Kill-point enumeration over every pack-store write path (DESIGN.md §13).
//!
//! Each sweep dry-runs an operation with the crash shim counting but not
//! killing, then replays the identical operation once per IO op with a
//! [`CrashPlan`] that kills exactly that op (optionally tearing the last
//! write). After every simulated crash the store must reopen to a valid
//! table whose bits equal either the pre-operation or the post-operation
//! state — any `PackError`, or any third state, is a failed probe.

use basm_tensor::packstore::{
    set_crash_plan, write_table, CrashPlan, PackOptions, PackTable,
};
use basm_tensor::packstore::crash;

fn lcg_f32s(seed: u64, n: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 40) as f32) / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn snapshot_bits(dir: &std::path::Path, rows: usize, dim: usize) -> (Vec<u32>, Vec<u32>) {
    let t = PackTable::open(dir, "t", rows, dim).expect("reopen after simulated crash");
    t.verify().expect("verify after simulated crash");
    let (w, a) = t.snapshot();
    (bits(&w), bits(&a))
}

/// Run `op` (over a fresh scenario from `setup`) once per kill point and
/// assert old-or-new recovery. `op` returns `Ok` on a run that completes;
/// a killed run must surface the injected error.
fn sweep_old_or_new<S, O>(label: &str, rows: usize, dim: usize, setup: S, op: O)
where
    S: Fn(&std::path::Path),
    O: Fn(&std::path::Path) -> std::io::Result<()>,
{
    // Dry run: measure the op count and capture the old/new states.
    let dir = basm_tensor::packstore::fresh_temp_dir();
    setup(&dir);
    let old_state = snapshot_bits(&dir, rows, dim);
    set_crash_plan(None);
    op(&dir).expect("dry run must succeed");
    let n_ops = crash::ops_executed();
    assert!(n_ops > 0, "{label}: op performed no guarded IO");
    let new_state = snapshot_bits(&dir, rows, dim);
    let _ = std::fs::remove_dir_all(&dir);

    for kill_at in 0..n_ops {
        for tear in [0usize, 5] {
            let dir = basm_tensor::packstore::fresh_temp_dir();
            setup(&dir);
            set_crash_plan(Some(CrashPlan { kill_at_op: kill_at, tear_bytes: tear }));
            // A kill in the post-commit best-effort sweep is swallowed by
            // design (the commit already landed), so the op may return Ok;
            // the plan must have fired either way.
            let res = op(&dir);
            assert!(
                crash::crash_fired(),
                "{label} kill_at={kill_at}: plan did not fire (result {res:?})"
            );
            set_crash_plan(None);
            let got = snapshot_bits(&dir, rows, dim);
            assert!(
                got == old_state || got == new_state,
                "{label} kill_at={kill_at} tear={tear}: reopened to a third state"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    set_crash_plan(None);
}

const ROWS: usize = 40;
const DIM: usize = 3;
const OPTS: PackOptions = PackOptions { shard_rows: 16 };

/// Base table every scenario starts from: 3 shards, a flushed delta chunk.
fn seeded_table(dir: &std::path::Path) {
    set_crash_plan(None);
    write_table(dir, "t", ROWS, DIM, &lcg_f32s(1, ROWS * DIM), &lcg_f32s(2, ROWS * DIM), OPTS)
        .unwrap();
    let mut t = PackTable::open(dir, "t", ROWS, DIM).unwrap();
    t.write_record(2, &lcg_f32s(3, 2 * DIM));
    t.write_record(33, &lcg_f32s(4, 2 * DIM));
    t.flush_deltas().unwrap();
}

#[test]
fn flush_deltas_crash_yields_old_or_new() {
    sweep_old_or_new("flush_deltas", ROWS, DIM, seeded_table, |dir| {
        let mut t = PackTable::open(dir, "t", ROWS, DIM).expect("pre-crash open");
        t.write_record(7, &lcg_f32s(5, 2 * DIM));
        t.write_record(21, &lcg_f32s(6, 2 * DIM));
        t.flush_deltas().map(|_| ())
    });
}

#[test]
fn compact_crash_yields_old_or_new() {
    sweep_old_or_new("compact", ROWS, DIM, seeded_table, |dir| {
        let mut t = PackTable::open(dir, "t", ROWS, DIM).expect("pre-crash open");
        t.write_record(18, &lcg_f32s(7, 2 * DIM));
        t.compact().map_err(|e| std::io::Error::other(e.to_string())).map(|_| {
            assert!(!t.has_delta_file(), "compact retired the delta");
        })
    });
}

#[test]
fn rewrite_base_crash_yields_old_or_new() {
    // A fresh base over an existing table (a pack export into its dir):
    // must be old-or-new even though it rewrites every shard + the index.
    sweep_old_or_new("write_table over existing", ROWS, DIM, seeded_table, |dir| {
        write_table(
            dir,
            "t",
            ROWS,
            DIM,
            &lcg_f32s(8, ROWS * DIM),
            &lcg_f32s(9, ROWS * DIM),
            OPTS,
        )
        .map(|_| ())
        .map_err(|e| std::io::Error::other(e.to_string()))
    });
}

#[test]
fn compact_crash_then_retry_completes() {
    // A crashed compaction must not wedge the table: reopening and
    // compacting again lands the new state.
    let dir = basm_tensor::packstore::fresh_temp_dir();
    seeded_table(&dir);
    let mut t = PackTable::open(&dir, "t", ROWS, DIM).unwrap();
    t.write_record(9, &lcg_f32s(11, 2 * DIM));
    let expect = {
        let (w, a) = t.snapshot();
        (bits(&w), bits(&a))
    };
    set_crash_plan(Some(CrashPlan { kill_at_op: 2, tear_bytes: 9 }));
    // flush so the expected state survives the simulated process death...
    // (the overlay alone would die with the process)
    assert!(t.compact().is_err());
    set_crash_plan(None);
    drop(t);
    // The "restarted process" replays the deltas and retries the compaction.
    let mut t2 = PackTable::open(&dir, "t", ROWS, DIM).unwrap();
    t2.write_record(9, &lcg_f32s(11, 2 * DIM));
    t2.compact().unwrap();
    assert!(!t2.has_delta_file());
    let (w, a) = t2.snapshot();
    assert_eq!((bits(&w), bits(&a)), expect, "retry converges on the new state");
    t2.verify().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_error_retains_pending_for_retry() {
    // Regression: flush_deltas used to `mem::take` the pending buffer before
    // writing, silently discarding every update on an IO error. An injected
    // short write must leave the buffer intact and a later flush must land
    // the same records.
    let dir = basm_tensor::packstore::fresh_temp_dir();
    seeded_table(&dir);
    let mut t = PackTable::open(&dir, "t", ROWS, DIM).unwrap();
    let rec = lcg_f32s(12, 2 * DIM);
    t.write_record(13, &rec);
    assert_eq!(t.pending_len(), 1);
    set_crash_plan(Some(CrashPlan { kill_at_op: 0, tear_bytes: 6 }));
    assert!(t.flush_deltas().is_err());
    set_crash_plan(None);
    assert_eq!(t.pending_len(), 1, "failed flush must retain pending rows");
    // Retry after the "transient" failure: the torn tail on disk is dropped
    // by the next open, and the retried chunk carries the update.
    assert_eq!(t.flush_deltas().unwrap(), 1);
    assert_eq!(t.pending_len(), 0);
    drop(t);
    let reopened = PackTable::open(&dir, "t", ROWS, DIM).unwrap();
    assert_eq!(bits(reopened.record(13)), bits(&rec));
    let _ = std::fs::remove_dir_all(&dir);
}
