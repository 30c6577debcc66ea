//! Recycling buffer pool for tensor storage — the allocation-free hot path.
//!
//! Steady-state training and serving rebuild an identical-shaped [`crate::Graph`]
//! every step/request, so every node's value and gradient buffer used to be a
//! fresh heap allocation that was freed moments later. This module keeps those
//! buffers alive instead: released `Vec<f32>` buffers land in a global,
//! size-bucketed free list and the next tensor of a compatible size reuses
//! them, so after the first step the hot path stops touching the system
//! allocator entirely.
//!
//! Design rules:
//!
//! * **Power-of-two buckets.** Every pooled buffer has a power-of-two
//!   capacity (min [`MIN_BUCKET_LEN`] floats). A request of length `len` is
//!   served from the bucket `len.next_power_of_two()`, so a recycled buffer
//!   can serve any request up to its capacity. [`release`] only retains
//!   buffers whose capacity is an exact power of two — buffers that did not
//!   originate here (e.g. `Tensor::from_vec`) are simply freed.
//! * **Determinism.** Reuse can never change results: [`acquire_zeroed`]
//!   memsets the buffer (pinned by a proptest in `tests/bufpool.rs`) and
//!   [`acquire_scratch`] is only used by kernels that overwrite every element
//!   before reading it. A run whose free lists were first filled with NaN
//!   computes the same bits as a run after [`clear`] (pinned in
//!   `tests/parallel_determinism.rs` and for every Table IV model in
//!   `basm-baselines`), so a kernel that reads scratch before writing it
//!   fails those tests.
//! * **Bounded retention.** Each bucket keeps at most [`MAX_PER_BUCKET`]
//!   buffers and oversized requests (> [`MAX_POOLED_LEN`]) bypass the pool,
//!   so retained memory is bounded and observable via [`retained_bytes`].
//!
//! When the `obs` feature is on, the pool reports `pool.buffer_reuse` /
//! `pool.buffer_miss` counters (a hit serves from the free list; a miss
//! allocates), alongside the always-on [`stats`] used by tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Smallest pooled capacity in `f32`s; shorter requests round up to this.
pub const MIN_BUCKET_LEN: usize = 64;

/// Largest pooled capacity in `f32`s (256 MiB); larger requests bypass the
/// pool entirely so a one-off giant tensor cannot pin memory forever.
pub const MAX_POOLED_LEN: usize = 1 << 26;

/// Maximum buffers retained per size bucket.
pub const MAX_PER_BUCKET: usize = 256;

const MIN_SHIFT: u32 = MIN_BUCKET_LEN.trailing_zeros();
const NUM_BUCKETS: usize = (MAX_POOLED_LEN.trailing_zeros() - MIN_SHIFT + 1) as usize;

static REUSE: AtomicU64 = AtomicU64::new(0);
static MISS: AtomicU64 = AtomicU64::new(0);
static RETURNED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

static BUCKETS: OnceLock<Vec<Mutex<Vec<Vec<f32>>>>> = OnceLock::new();

fn buckets() -> &'static [Mutex<Vec<Vec<f32>>>] {
    BUCKETS.get_or_init(|| (0..NUM_BUCKETS).map(|_| Mutex::new(Vec::new())).collect())
}

/// The bucket capacity a request of `len` floats is served from.
#[inline]
pub fn bucket_len(len: usize) -> usize {
    len.max(MIN_BUCKET_LEN).next_power_of_two()
}

#[inline]
fn bucket_index(capacity: usize) -> usize {
    (capacity.trailing_zeros() - MIN_SHIFT) as usize
}

/// Pop a recycled buffer with capacity `>= len`, if the pool has one.
fn checkout(len: usize) -> Option<Vec<f32>> {
    if len == 0 || len > MAX_POOLED_LEN {
        return None;
    }
    let hit = {
        let mut bucket = buckets()[bucket_index(bucket_len(len))]
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        bucket.pop()
    };
    match hit {
        Some(buf) => {
            REUSE.fetch_add(1, Ordering::Relaxed);
            basm_obs::counter_add("pool.buffer_reuse", 1);
            Some(buf)
        }
        None => {
            MISS.fetch_add(1, Ordering::Relaxed);
            basm_obs::counter_add("pool.buffer_miss", 1);
            None
        }
    }
}

/// A zeroed buffer of exactly `len` floats, recycled when possible. The
/// returned buffer always reads all-zero regardless of what the previous
/// owner wrote into it.
pub fn acquire_zeroed(len: usize) -> Vec<f32> {
    match checkout(len) {
        Some(mut buf) => {
            buf.clear();
            buf.resize(len, 0.0);
            buf
        }
        None => alloc_bucket_sized(len),
    }
}

/// A buffer of exactly `len` floats whose contents are **unspecified** (stale
/// data from its previous owner). Only for kernels that provably write every
/// element before any read — using it anywhere else lets stale data reach
/// results (and the NaN-poisoned determinism tests will catch it).
pub fn acquire_scratch(len: usize) -> Vec<f32> {
    match checkout(len) {
        Some(mut buf) => {
            // Already-initialized stale floats; only the tail grown by
            // `resize` (if any) is written here.
            buf.resize(len, 0.0);
            buf
        }
        None => alloc_bucket_sized(len),
    }
}

/// Fresh allocation with the bucket's power-of-two capacity (so the buffer is
/// eligible for recycling later), or an exact-size allocation for requests
/// the pool refuses.
fn alloc_bucket_sized(len: usize) -> Vec<f32> {
    if len == 0 || len > MAX_POOLED_LEN {
        return vec![0.0; len];
    }
    let mut buf = Vec::with_capacity(bucket_len(len));
    buf.resize(len, 0.0);
    buf
}

/// Return a buffer to the pool. Only buffers with a power-of-two capacity in
/// `[MIN_BUCKET_LEN, MAX_POOLED_LEN]` are retained (anything else did not
/// come from the pool) and full buckets drop the excess.
pub fn release(buf: Vec<f32>) {
    let cap = buf.capacity();
    if !cap.is_power_of_two() || !(MIN_BUCKET_LEN..=MAX_POOLED_LEN).contains(&cap) {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let mut bucket = buckets()[bucket_index(cap)].lock().unwrap_or_else(|p| p.into_inner());
    if bucket.len() >= MAX_PER_BUCKET {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    bucket.push(buf);
    RETURNED.fetch_add(1, Ordering::Relaxed);
}

/// Drop every retained buffer (tests / memory-pressure hook).
pub fn clear() {
    for bucket in buckets() {
        bucket.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }
}

/// Total bytes currently retained on the free lists.
pub fn retained_bytes() -> usize {
    buckets()
        .iter()
        .map(|b| {
            b.lock()
                .unwrap_or_else(|p| p.into_inner())
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<f32>())
                .sum::<usize>()
        })
        .sum()
}

/// Cumulative pool traffic since process start (always recorded, independent
/// of the `obs` feature, so tests can assert on reuse behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires served from the free list.
    pub reuse: u64,
    /// Acquires that had to allocate.
    pub miss: u64,
    /// Releases retained on a free list.
    pub returned: u64,
    /// Releases dropped (foreign buffer or full bucket).
    pub dropped: u64,
}

/// Snapshot the cumulative [`PoolStats`].
pub fn stats() -> PoolStats {
    PoolStats {
        reuse: REUSE.load(Ordering::Relaxed),
        miss: MISS.load(Ordering::Relaxed),
        returned: RETURNED.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The free lists are process-global; serialize tests that assert on
    /// their contents.
    fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn bucket_rounding_is_next_power_of_two_with_floor() {
        assert_eq!(bucket_len(1), MIN_BUCKET_LEN);
        assert_eq!(bucket_len(MIN_BUCKET_LEN), MIN_BUCKET_LEN);
        assert_eq!(bucket_len(MIN_BUCKET_LEN + 1), MIN_BUCKET_LEN * 2);
        assert_eq!(bucket_len(1000), 1024);
        assert_eq!(bucket_len(1024), 1024);
        assert_eq!(bucket_len(1025), 2048);
    }

    #[test]
    fn roundtrip_reuses_the_same_allocation() {
        let _guard = pool_lock();
        clear();
        let buf = acquire_zeroed(100);
        assert_eq!(buf.len(), 100);
        assert_eq!(buf.capacity(), 128);
        let ptr = buf.as_ptr();
        release(buf);
        let again = acquire_zeroed(120); // same bucket (128)
        assert_eq!(again.as_ptr(), ptr, "must reuse the retained buffer");
        assert!(again.iter().all(|&x| x == 0.0));
        release(again);
        clear();
    }

    #[test]
    fn foreign_and_oversized_buffers_are_not_retained() {
        let _guard = pool_lock();
        clear();
        release(vec![1.0; 100]); // capacity 100: not a power of two
        release(Vec::new()); // capacity 0
        assert_eq!(retained_bytes(), 0);
        // Oversized requests bypass the pool entirely.
        let before = stats();
        let big = acquire_zeroed(MAX_POOLED_LEN + 1);
        release(big);
        let after = stats();
        assert_eq!(before.reuse, after.reuse);
        assert_eq!(before.miss, after.miss);
        assert_eq!(retained_bytes(), 0);
        clear();
    }

    #[test]
    fn bucket_capacity_is_bounded() {
        let _guard = pool_lock();
        clear();
        // Hold every buffer before releasing any, so the releases actually
        // have to fill the bucket rather than round-tripping one buffer.
        let held: Vec<_> = (0..MAX_PER_BUCKET + 10)
            .map(|_| acquire_zeroed(MIN_BUCKET_LEN))
            .collect();
        for buf in held {
            release(buf);
        }
        let retained = retained_bytes() / (MIN_BUCKET_LEN * std::mem::size_of::<f32>());
        assert!(retained <= MAX_PER_BUCKET, "retained {retained} buffers");
        clear();
    }
}
