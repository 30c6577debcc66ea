//! Bitwise determinism of the parallel execution layer.
//!
//! The contract (see `basm_tensor::pool`): changing the thread count never
//! changes results, only wall-clock. Partitions are fixed contiguous output
//! blocks, every element's accumulation order is partition-independent, and
//! there are no atomics or cross-thread reductions. These tests pin that
//! contract by running identical computations under 1, 3 and 4 threads with
//! the parallelism threshold forced to zero (so even tiny fixtures take the
//! parallel code paths) and comparing raw bits.

use basm_tensor::gradcheck::assert_gradients;
use basm_tensor::{bufpool, linalg, pool, simd};
use basm_tensor::{with_graph, Graph, Prng, Tensor};
use std::sync::Mutex;

/// Pool settings are process-global; serialize the tests that change them.
static SETTINGS: Mutex<()> = Mutex::new(());

fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    pool::set_threads(threads);
    pool::set_min_work(0);
    let out = f();
    pool::set_threads(0);
    pool::set_min_work(usize::MAX);
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn matmul_kernels_bitwise_identical_across_thread_counts() {
    let _guard = SETTINGS.lock().unwrap();
    let mut rng = Prng::seeded(7);
    let a = rng.randn(37, 19, 1.0);
    let b = rng.randn(19, 23, 1.0);
    let at = rng.randn(19, 37, 1.0);
    let bt = rng.randn(23, 19, 1.0);
    let run = |threads: usize| {
        with_pool(threads, || {
            (
                bits(&linalg::matmul(&a, &b)),
                bits(&linalg::matmul_at_b(&at, &b)),
                bits(&linalg::matmul_a_bt(&a, &bt)),
            )
        })
    };
    let serial = run(1);
    assert_eq!(serial, run(4));
    // 37 rows over 3 threads: a partition that does not divide evenly.
    assert_eq!(serial, run(3));
}

/// A composite model exercising the parallel graph/backward kernels:
/// matmul, batch norm, leaky ReLU, softmax, fused sequence pooling,
/// per-sample meta-linear, concat, tanh, row dots and the BCE loss.
fn forward_backward_bits() -> (u32, Vec<Vec<u32>>) {
    let mut g = Graph::new();
    forward_backward_bits_in(&mut g)
}

/// Same composite model, but building onto a caller-supplied graph so the
/// recycled-tape path of [`with_graph`] can be exercised too.
fn forward_backward_bits_in(g: &mut Graph) -> (u32, Vec<Vec<u32>>) {
    let mut rng = Prng::seeded(42);
    let x = rng.randn(24, 16, 1.0);
    let w1 = rng.randn(16, 12, 0.5);
    let seq = rng.randn(24, 6 * 8, 1.0);
    let wq = rng.randn(24, 6, 0.5);
    let mw = rng.randn(24, 4 * 12, 0.3);
    let labels = Tensor::from_fn(24, 1, |r, _| (r % 2) as f32);

    let xv = g.input_with_grad(x);
    let w1v = g.input_with_grad(w1);
    let seqv = g.input_with_grad(seq);
    let wqv = g.input_with_grad(wq);
    let mwv = g.input_with_grad(mw);
    let yv = g.input(labels);

    let h = g.matmul(xv, w1v);
    let hb = g.batch_norm_train(h, 1e-5);
    let ha = g.leaky_relu(hb, 0.1);
    let att = g.softmax_rows(wqv);
    let pooled = g.seq_weighted_sum(seqv, att, 6, 8);
    let meta = g.meta_linear(mwv, ha, 4, 12);
    let cat = g.concat_cols(&[pooled, meta]);
    let s = g.tanh(cat);
    let ones = g.input(Tensor::ones(24, g.value(s).cols()));
    let logits = g.row_dot(s, ones);
    let loss = g.bce_with_logits(logits, yv);
    g.backward(loss);

    let loss_bits = g.value(loss).data()[0].to_bits();
    let grad_bits = [xv, w1v, seqv, wqv, mwv]
        .iter()
        .map(|&v| {
            g.grad(v)
                .expect("input gradient present")
                .data()
                .iter()
                .map(|f| f.to_bits())
                .collect()
        })
        .collect();
    (loss_bits, grad_bits)
}

#[test]
fn forward_backward_bitwise_identical_across_thread_counts() {
    let _guard = SETTINGS.lock().unwrap();
    let serial = with_pool(1, forward_backward_bits);
    assert_eq!(serial, with_pool(4, forward_backward_bits));
    assert_eq!(serial, with_pool(3, forward_backward_bits));
}

/// Telemetry must be purely observational: with the `obs` feature compiled
/// in, flipping `BASM_OBS` (here via the programmatic override) must not
/// change a single bit of any computed value, serial or parallel. Without
/// the feature the hooks are no-ops and this pins that they stay that way.
#[test]
fn telemetry_on_off_bitwise_identical() {
    let _guard = SETTINGS.lock().unwrap();
    let run = |obs: bool, threads: usize| {
        basm_obs::set_enabled(Some(obs));
        let out = with_pool(threads, forward_backward_bits);
        basm_obs::set_enabled(None);
        out
    };
    let baseline = run(false, 1);
    assert_eq!(baseline, run(true, 1), "obs on/off must match serially");
    assert_eq!(baseline, run(true, 4), "obs on/off must match in parallel");
    assert_eq!(baseline, run(false, 4));
}

/// Overwrite every buffer on the pool's free lists with NaN: drain each
/// bucket through `acquire_scratch`, fill the whole capacity and release the
/// lot. Stops at the first empty bucket past the largest occupied one.
fn poison_free_lists() {
    let mut held = Vec::new();
    let mut len = bufpool::MIN_BUCKET_LEN;
    while bufpool::retained_bytes() > 0 && len <= 1 << 22 {
        loop {
            let before = bufpool::retained_bytes();
            let mut buf = bufpool::acquire_scratch(len);
            if bufpool::retained_bytes() >= before {
                break; // a fresh allocation: this bucket is drained
            }
            buf.resize(buf.capacity(), f32::NAN);
            buf.fill(f32::NAN);
            held.push(buf);
        }
        len *= 2;
    }
    held.into_iter().for_each(bufpool::release);
}

/// Buffer recycling must be purely an allocation strategy: a run whose free
/// lists hold nothing but NaN buffers computes every bit of a run after
/// `bufpool::clear()`, serial or under 4 threads. A kernel that reads
/// `acquire_scratch` memory before writing it turns the poisoned run's bits
/// into NaN.
#[test]
fn poisoned_and_cleared_pool_bitwise_identical() {
    let _guard = SETTINGS.lock().unwrap();
    for threads in [1, 4] {
        bufpool::clear();
        let cleared = with_pool(threads, forward_backward_bits);
        poison_free_lists();
        let poisoned = with_pool(threads, forward_backward_bits);
        assert_eq!(cleared, poisoned, "stale pool contents changed bits ({threads} threads)");
    }
}

/// The explicit-SIMD lanes must be purely a speed knob: with vector kernels
/// on or off (via [`simd::set_simd`]), serial or
/// under 4 threads, every computed bit of the composite forward/backward —
/// matmul, BN, softmax, fused sequence pooling, meta-linear, BCE and all
/// their gradients — must be identical. Lanes map to distinct output
/// elements and no accumulation chain is ever split or contracted (no FMA),
/// so 8/4/1-lane execution rounds identically per element.
#[test]
fn simd_on_off_bitwise_identical() {
    let _guard = SETTINGS.lock().unwrap();
    let run = |on: bool, threads: usize| {
        simd::set_simd(Some(on));
        let out = with_pool(threads, forward_backward_bits);
        simd::set_simd(None);
        out
    };
    let baseline = run(false, 1);
    assert_eq!(baseline, run(true, 1), "simd on/off must match serially");
    assert_eq!(baseline, run(true, 4), "simd on/off must match in parallel");
    assert_eq!(baseline, run(false, 4));
}

/// Recycled tapes from [`with_graph`] start logically empty but reuse node
/// storage and pooled tensor buffers; repeated reuse must not change a bit
/// relative to a fresh `Graph::new()`.
#[test]
fn graph_recycling_bitwise_identical_across_reuse() {
    let _guard = SETTINGS.lock().unwrap();
    let fresh = forward_backward_bits();
    for round in 0..3 {
        let reused = with_graph(forward_backward_bits_in);
        assert_eq!(fresh, reused, "recycled graph diverged on round {round}");
    }
}

/// `Graph::memory_bytes` must report allocated capacity, not logical
/// length: the recycling pool rounds buffers up to power-of-two buckets and
/// the Table VI accounting has to see what is actually held.
#[test]
fn graph_memory_bytes_counts_capacity() {
    let _guard = SETTINGS.lock().unwrap();
    // 3x33 = 99 floats rounds up to a 128-float bucket.
    let t = Tensor::zeros_pooled(3, 33);
    let cap = t.capacity();
    assert!(cap >= 128, "pooled buffer should carry bucket capacity, got {cap}");
    let mut g = Graph::new();
    g.input(t);
    assert_eq!(g.memory_bytes(), cap * std::mem::size_of::<f32>());
}

#[test]
fn gradcheck_passes_under_parallel_kernels() {
    let _guard = SETTINGS.lock().unwrap();
    with_pool(4, || {
        let mut rng = Prng::seeded(11);
        let a = rng.randn(5, 4, 0.7);
        let b = rng.randn(4, 3, 0.7);
        assert_gradients(&[a, b], |g, v| {
            let y = g.matmul(v[0], v[1]);
            let s = g.softmax_rows(y);
            let q = g.square(s);
            g.mean_all(q)
        });
        let w = rng.randn(4, 6, 0.5);
        let x = rng.randn(4, 3, 0.5);
        assert_gradients(&[w, x], |g, v| {
            let y = g.meta_linear(v[0], v[1], 2, 3);
            let t = g.tanh(y);
            g.mean_all(t)
        });
    });
}
