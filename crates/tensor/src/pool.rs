//! Thread-pool policy for the parallel execution layer.
//!
//! This module owns the *decision* of how many threads a kernel may use and
//! the scoped-thread helpers that fan work out. Design rules, which every
//! parallel kernel in the workspace follows:
//!
//! * **Determinism.** A parallel kernel must produce results bitwise
//!   identical to its serial counterpart: work is partitioned into fixed,
//!   contiguous blocks of disjoint *output* rows, each output element's
//!   accumulation order is independent of the partition, and there are no
//!   atomics or cross-thread reductions. Changing `BASM_THREADS` therefore
//!   never changes results, only wall-clock.
//! * **Thresholds.** Problems under a work estimate (`threads_for`) stay on
//!   the serial path. Above it every parallel region spawns its scoped
//!   threads afresh, and near the default threshold the spawns cost more
//!   than the work they split (DESIGN.md §6).
//! * **No oversubscription.** Work spawned from inside a pool worker (e.g. a
//!   matmul inside a data-parallel seed repeat) runs serially — the
//!   thread-local [`in_pool`] flag makes nested parallel regions degrade to
//!   their serial path instead of multiplying threads.
//!
//! Thread count resolution order: [`set_threads`] override (used by tests
//! and benchmarks) → `BASM_THREADS` env var → available parallelism.
//!
//! The helpers record no telemetry: a row-block worker runs one kernel's
//! slice and records nothing. [`par_map`]'s workers flush `basm-obs` before
//! they return, because the serving scorer records spans inside them
//! (DESIGN.md §7).
//!
//! ```
//! use basm_tensor::pool;
//!
//! // Deterministic parallel map: output order always matches input order.
//! let items: Vec<u64> = (0..100).collect();
//! let squares = pool::par_map(&items, |&x| x * x);
//! assert_eq!(squares[7], 49);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default minimum per-kernel work (≈ multiply-adds or scalar ops) before a
/// kernel considers going parallel.
pub const DEFAULT_MIN_WORK: usize = 64 * 1024;

/// Runtime override for the thread count; 0 = unset.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The parallelism threshold; [`set_min_work`] changes it.
static MIN_WORK: AtomicUsize = AtomicUsize::new(DEFAULT_MIN_WORK);

/// `BASM_THREADS`/available-parallelism default, resolved once.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| {
        std::env::var("BASM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            })
    })
}

/// The number of threads parallel sections may use.
pub fn num_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Override the thread count at runtime (`0` resets to the `BASM_THREADS` /
/// available-parallelism default). Used by determinism tests and benchmarks
/// to switch thread counts within one process.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Current minimum-work threshold for kernel parallelism.
pub fn min_work() -> usize {
    MIN_WORK.load(Ordering::Relaxed)
}

/// Set the minimum-work threshold. Tests set it to 0 so tiny fixtures still
/// exercise the parallel code paths, then restore [`DEFAULT_MIN_WORK`].
pub fn set_min_work(n: usize) {
    MIN_WORK.store(n, Ordering::Relaxed);
}

/// Whether the current thread is already a pool worker.
pub fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Run `f` with the current thread marked as a pool worker, restoring the
/// previous state afterwards (also on panic).
fn enter_pool<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_POOL.with(|flag| flag.set(self.0));
        }
    }
    let _guard = IN_POOL.with(|flag| Restore(flag.replace(true)));
    f()
}

/// How many threads a kernel over `units` independent output rows with total
/// `work` scalar operations should use. Returns 1 (serial) when nested in a
/// pool worker, when threads are capped at 1, or when `work` is under the
/// threshold.
///
/// ```
/// use basm_tensor::pool;
///
/// pool::set_threads(4);
/// // Tiny problems stay serial; big ones get up to the thread budget,
/// // capped by the number of independent output rows.
/// assert_eq!(pool::threads_for(1024, 16), 1);
/// assert_eq!(pool::threads_for(1024, 1 << 24), 4);
/// assert_eq!(pool::threads_for(2, 1 << 24), 2);
/// pool::set_threads(0); // back to the BASM_THREADS / core-count default
/// ```
pub fn threads_for(units: usize, work: usize) -> usize {
    if units <= 1 || in_pool() || work < min_work() {
        return 1;
    }
    num_threads().min(units)
}

/// Partition `out` — a row-major `rows × width` buffer — into `threads`
/// contiguous row blocks and run `f(first_row, block)` on each block, one
/// scoped thread per block (the first block runs on the calling thread).
///
/// Each invocation sees a disjoint `&mut` output slice, so data races are
/// impossible by construction; because the blocks are processed by the same
/// per-row code as the serial path, results are bitwise identical for any
/// thread count.
///
/// ```
/// use basm_tensor::pool;
///
/// // Fill a 6×2 row-major buffer with each row's index, on 3 threads.
/// let mut out = vec![0.0f32; 6 * 2];
/// pool::par_row_blocks(&mut out, 2, 3, |first_row, block| {
///     for (i, row) in block.chunks_mut(2).enumerate() {
///         row.fill((first_row + i) as f32);
///     }
/// });
/// assert_eq!(out[2 * 5], 5.0);
/// ```
pub fn par_row_blocks<F>(out: &mut [f32], width: usize, threads: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    par_row_blocks_n([out], [width], threads, |first_row, [block]| f(first_row, block));
}

/// [`par_row_blocks`] over `N` outputs that share one row partition: output
/// `i` is row-major with `widths[i]` floats per row, and every output has
/// the same row count. `f(first_row, blocks)` receives the same rows of
/// every output — how a fused op writes its result and its saved
/// intermediates in one pass.
///
/// ```
/// use basm_tensor::pool;
///
/// // Row r of `a` (width 1) and `b` (width 2) written together, on 2 threads.
/// let (mut a, mut b) = (vec![0.0f32; 4], vec![0.0f32; 8]);
/// pool::par_row_blocks_n([&mut a[..], &mut b[..]], [1, 2], 2, |first_row, [a, b]| {
///     for (i, (x, y)) in a.iter_mut().zip(b.chunks_mut(2)).enumerate() {
///         *x = (first_row + i) as f32;
///         y.fill(*x);
///     }
/// });
/// assert_eq!((a[3], b[7]), (3.0, 3.0));
/// ```
pub fn par_row_blocks_n<const N: usize, F>(
    outs: [&mut [f32]; N],
    widths: [usize; N],
    threads: usize,
    f: F,
) where
    F: Fn(usize, [&mut [f32]; N]) + Sync,
{
    debug_assert!(widths.iter().all(|&w| w > 0));
    let rows = outs[0].len() / widths[0];
    debug_assert!((0..N).all(|i| outs[i].len() == rows * widths[i]));
    if threads <= 1 || rows <= 1 {
        f(0, outs);
        return;
    }
    let threads = threads.min(rows);
    let chunk_rows = rows.div_ceil(threads);
    let mut rest = outs;
    let mut blocks = (0..rows.div_ceil(chunk_rows)).map(|_| {
        std::array::from_fn::<_, N, _>(|i| {
            let tail = std::mem::take(&mut rest[i]);
            let (block, tail) = tail.split_at_mut((chunk_rows * widths[i]).min(tail.len()));
            rest[i] = tail;
            block
        })
    });
    std::thread::scope(|scope| {
        let f = &f;
        let first = blocks.next().expect("non-empty output");
        for (bi, block) in blocks.enumerate() {
            let first_row = (bi + 1) * chunk_rows;
            scope.spawn(move || enter_pool(|| f(first_row, block)));
        }
        enter_pool(|| f(0, first));
    });
}

/// Map `f` over `items` with up to [`num_threads`] scoped threads, preserving
/// input order in the output. Each worker owns a contiguous chunk of items,
/// so ordering (and with deterministic `f`, results) match the serial path
/// exactly. Falls back to a plain serial map when nested in a pool worker or
/// when only one thread is available.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let threads = if in_pool() { 1 } else { num_threads().min(n.max(1)) };
    if threads <= 1 || n <= 1 {
        return items.iter().map(|item| f(item)).collect();
    }
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let run_chunk = move |chunk_items: &[T], chunk_slots: &mut [Option<U>]| {
            enter_pool(|| {
                for (slot, item) in chunk_slots.iter_mut().zip(chunk_items) {
                    *slot = Some(f(item));
                }
            });
        };
        let mut pairs = items.chunks(chunk).zip(slots.chunks_mut(chunk));
        let first = pairs.next().expect("non-empty input");
        for (chunk_items, chunk_slots) in pairs {
            scope.spawn(move || {
                run_chunk(chunk_items, chunk_slots);
                // Scorer spans run in these workers. `scope` may return
                // before a worker's TLS destructors (the merge-on-exit
                // backstop) run, so flush before the region completes.
                basm_obs::flush();
            });
        }
        run_chunk(first.0, first.1);
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("par_map: worker left a slot empty"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Settings are process-global; serialize the tests that mutate them.
    fn with_settings<R>(threads: usize, min_work: usize, f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap();
        set_threads(threads);
        set_min_work(min_work);
        let out = f();
        set_threads(0);
        set_min_work(DEFAULT_MIN_WORK);
        out
    }

    #[test]
    fn threads_for_respects_threshold_and_units() {
        with_settings(4, DEFAULT_MIN_WORK, || {
            assert_eq!(threads_for(100, DEFAULT_MIN_WORK - 1), 1);
            assert_eq!(threads_for(100, DEFAULT_MIN_WORK), 4);
            assert_eq!(threads_for(2, usize::MAX), 2);
            assert_eq!(threads_for(1, usize::MAX), 1);
        });
    }

    #[test]
    fn par_row_blocks_covers_every_row_once() {
        with_settings(3, 0, || {
            let rows = 10;
            let width = 4;
            let mut out = vec![0.0f32; rows * width];
            par_row_blocks(&mut out, width, 3, |first_row, block| {
                for (r, row) in block.chunks_mut(width).enumerate() {
                    for v in row.iter_mut() {
                        *v += (first_row + r) as f32;
                    }
                }
            });
            for r in 0..rows {
                assert!(out[r * width..(r + 1) * width].iter().all(|&v| v == r as f32));
            }
        });
    }

    #[test]
    fn par_map_preserves_order() {
        with_settings(4, 0, || {
            let items: Vec<usize> = (0..23).collect();
            let out = par_map(&items, |&x| x * x);
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        });
    }

    #[test]
    fn nested_parallel_sections_degrade_to_serial() {
        with_settings(4, 0, || {
            let items: Vec<usize> = (0..4).collect();
            let nested = par_map(&items, |_| {
                // Inside a worker the pool must refuse more threads.
                threads_for(1000, usize::MAX)
            });
            assert!(nested.iter().all(|&t| t == 1));
            // And back outside, parallelism is available again.
            assert_eq!(threads_for(1000, usize::MAX), 4);
        });
    }
}
