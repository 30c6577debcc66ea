//! Integration tests for the recycling buffer pool (`basm_tensor::bufpool`):
//! thread safety of the global free lists, bucket-capacity behaviour as seen
//! through pooled tensors, and a property pin that reuse can never leak a
//! previous owner's data through [`bufpool::acquire_zeroed`].

use basm_tensor::{bufpool, Tensor};
use proptest::prelude::*;
use std::sync::{Barrier, Mutex, OnceLock};

/// The free lists are process-global; serialize the tests that assert on
/// their contents.
fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Several threads check buffers out of the same bucket simultaneously; the
/// pool must never hand the same allocation to two owners at once. Every
/// thread stamps its buffers with a unique pattern, all threads rendezvous
/// while still holding them, and both the pointers and the contents are
/// checked for collisions.
#[test]
fn concurrent_checkout_never_double_hands_a_buffer() {
    let _guard = pool_lock();
    bufpool::clear();
    const THREADS: usize = 4;
    const PER_THREAD: usize = 8;
    const LEN: usize = 256;

    // Seed the bucket so checkouts actually race over shared free-list state
    // instead of all missing into fresh allocations.
    let seed: Vec<_> = (0..THREADS * PER_THREAD / 2)
        .map(|_| bufpool::acquire_zeroed(LEN))
        .collect();
    for buf in seed {
        bufpool::release(buf);
    }

    let barrier = Barrier::new(THREADS);
    let held_ptrs = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let barrier = &barrier;
            let held_ptrs = &held_ptrs;
            s.spawn(move || {
                let stamp = (t + 1) as f32;
                let mut mine = Vec::new();
                for _ in 0..PER_THREAD {
                    let mut buf = bufpool::acquire_zeroed(LEN);
                    buf.fill(stamp);
                    mine.push(buf);
                }
                held_ptrs
                    .lock()
                    .unwrap()
                    .extend(mine.iter().map(|b| b.as_ptr() as usize));
                // Every thread holds all its buffers at this point.
                barrier.wait();
                for buf in mine {
                    assert!(
                        buf.iter().all(|&x| x == stamp),
                        "another owner scribbled over a held buffer"
                    );
                    bufpool::release(buf);
                }
            });
        }
    });
    let mut ptrs = held_ptrs.into_inner().unwrap();
    let total = ptrs.len();
    assert_eq!(total, THREADS * PER_THREAD);
    ptrs.sort_unstable();
    ptrs.dedup();
    assert_eq!(ptrs.len(), total, "the same allocation was handed out twice");
    bufpool::clear();
}

/// Pooled tensors carry power-of-two bucket capacity; exact-size constructors
/// do not. `recycle` feeds the pool so the next same-bucket tensor reuses the
/// allocation.
#[test]
fn pooled_tensors_round_to_buckets_and_recycle() {
    let _guard = pool_lock();
    bufpool::clear();
    let t = Tensor::zeros_pooled(10, 10);
    assert_eq!(t.shape(), (10, 10));
    assert_eq!(t.capacity(), bufpool::bucket_len(100));
    let ptr = t.data().as_ptr();
    t.recycle();
    let again = Tensor::zeros_pooled(11, 11); // 121 floats: same 128 bucket
    assert_eq!(again.data().as_ptr(), ptr, "recycled tensor buffer not reused");
    assert!(again.data().iter().all(|&x| x == 0.0));
    again.recycle();
    // A from_vec tensor has whatever capacity the Vec came with; recycling
    // one with a non-power-of-two capacity must simply free it.
    let before = bufpool::stats();
    Tensor::from_vec(3, 3, vec![1.0; 9]).recycle();
    assert_eq!(bufpool::stats().dropped, before.dropped + 1);
    bufpool::clear();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a previous owner wrote, and whatever length the next request
    /// has (same bucket or not), `acquire_zeroed` always reads all-zero.
    #[test]
    fn reused_zeroed_buffers_never_leak_previous_contents(
        first_len in 1usize..1500,
        second_len in 1usize..1500,
        fill in 1.0f32..1e6,
    ) {
        let _guard = pool_lock();
        let mut buf = bufpool::acquire_zeroed(first_len);
        buf.fill(fill);
        bufpool::release(buf);
        let reused = bufpool::acquire_zeroed(second_len);
        prop_assert_eq!(reused.len(), second_len);
        prop_assert!(reused.iter().all(|&x| x == 0.0), "stale data leaked");
        bufpool::release(reused);
    }
}
