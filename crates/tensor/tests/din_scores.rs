//! Bitwise pin for the fused DIN activation unit, `Graph::din_scores`.
//!
//! The oracle is the composite the op replaced, built from public graph
//! primitives: `reshape → repeat_rows → sub → mul → concat_cols → matmul →
//! add_row → leaky_relu → matmul → add_row → reshape`. Both feed the same
//! masked softmax, weighted sum and loss, and every forward value and every
//! gradient (`query`, `seq`, `w1`, `b1`, `w2`, `b2`) must match bit for bit
//! — NaN positions by `is_nan` — at every thread count and lane width.

use basm_tensor::{pool, simd, Graph, Prng, Tensor, Var};
use std::sync::Mutex;

/// Thread and SIMD overrides are process-global; serialize the tests.
static SETTINGS: Mutex<()> = Mutex::new(());

const SLOPE: f32 = 0.01;

/// What `Case::run` returns, in order.
const NAMES: [&str; 10] =
    ["scores", "att", "pooled", "loss", "dq", "dseq", "dw1", "db1", "dw2", "db2"];

/// Bits of every element, with any NaN mapped to one marker.
fn bits(t: &Tensor) -> Vec<Option<u32>> {
    t.data().iter().map(|v| (!v.is_nan()).then(|| v.to_bits())).collect()
}

struct Case {
    q: Tensor,
    seq: Tensor,
    mask: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    t: usize,
}

impl Case {
    fn new(m: usize, t: usize, d: usize, h: usize, seed: u64) -> Self {
        let mut rng = Prng::seeded(seed);
        // Sample 1 (when present) is fully masked; elsewhere every third
        // position is padding, except that position 0 always counts.
        let masked = |r, i| r == 1 || (i > 0 && i % 3 == 2);
        let mask = Tensor::from_fn(m, t, |r, i| if masked(r, i) { 0.0 } else { 1.0 });
        Self {
            q: rng.randn(m, d, 1.0),
            seq: rng.randn(m, t * d, 1.0),
            mask,
            w1: rng.randn(4 * d, h, 0.3),
            b1: rng.randn(1, h, 0.1),
            w2: rng.randn(h, 1, 0.3),
            b2: rng.randn(1, 1, 0.1),
            t,
        }
    }

    /// Forward + backward through either the fused op or the composite;
    /// returns the bits of every value and gradient.
    fn run(&self, fused: bool) -> Vec<Vec<Option<u32>>> {
        let (m, d) = self.q.shape();
        let t = self.t;
        let mut g = Graph::new();
        let q = g.input_with_grad(self.q.clone());
        let seq = g.input_with_grad(self.seq.clone());
        let mask = g.input(self.mask.clone());
        let w1 = g.input_with_grad(self.w1.clone());
        let b1 = g.input_with_grad(self.b1.clone());
        let w2 = g.input_with_grad(self.w2.clone());
        let b2 = g.input_with_grad(self.b2.clone());
        let scores = if fused {
            g.din_scores(q, seq, w1, b1, w2, b2, t, SLOPE)
        } else {
            let seq_flat = g.reshape(seq, m * t, d);
            let q_rep = g.repeat_rows(q, t);
            let diff = g.sub(q_rep, seq_flat);
            let prod = g.mul(q_rep, seq_flat);
            let feats = g.concat_cols(&[q_rep, seq_flat, diff, prod]);
            let h1 = g.matmul(feats, w1);
            let pre = g.add_row(h1, b1);
            let a = g.leaky_relu(pre, SLOPE);
            let s1 = g.matmul(a, w2);
            let s = g.add_row(s1, b2);
            g.reshape(s, m, t)
        };
        let att = g.masked_softmax_rows(scores, mask);
        let pooled = g.seq_weighted_sum(seq, att, t, d);
        // `q` has a later consumer too, so its fused gradient lands on an
        // existing one — the accumulation order is part of the pin.
        let pq = g.mul(pooled, q);
        let sq = g.square(pq);
        let loss = g.mean_all(sq);
        g.backward(loss);
        let mut out: Vec<Vec<Option<u32>>> =
            [scores, att, pooled, loss].iter().map(|&v| bits(g.value(v))).collect();
        for v in [q, seq, w1, b1, w2, b2] {
            out.push(bits(g.grad(v).expect("every input gets a gradient")));
        }
        out
    }
}

/// Fused == composite under every thread count and lane width.
fn assert_pinned(case: &Case, label: &str) {
    for threads in [1, 4] {
        for lanes_on in [false, true] {
            pool::set_threads(threads);
            pool::set_min_work(0);
            simd::set_simd(lanes_on);
            let (fused, composite) = (case.run(true), case.run(false));
            pool::set_threads(0);
            pool::set_min_work(pool::DEFAULT_MIN_WORK);
            simd::set_simd(true);
            for ((f, c), name) in fused.iter().zip(&composite).zip(NAMES) {
                assert!(f == c, "{label}: {name} differs (threads {threads}, simd {lanes_on})");
            }
        }
    }
}

#[test]
fn fused_matches_composite_bitwise_across_shapes() {
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    let mut seed = 0;
    for m in [1, 3, 33] {
        for t in [1, 5, 20] {
            for d in [4, 32] {
                for h in [8, 32, 36] {
                    seed += 1;
                    let case = Case::new(m, t, d, h, seed);
                    assert_pinned(&case, &format!("m={m} t={t} d={d} h={h}"));
                }
            }
        }
    }
}

#[test]
fn fused_matches_composite_with_signed_zeros() {
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    let mut case = Case::new(3, 5, 4, 8, 101);
    // Zeros of both signs in the inputs, a weight column and the biases, so
    // products, sums from +0.0 and the LeakyReLU test all see them.
    for (i, v) in case.q.data_mut().iter_mut().enumerate().filter(|(i, _)| i % 3 == 0) {
        *v = if i % 2 == 0 { -0.0 } else { 0.0 };
    }
    for v in case.seq.data_mut().iter_mut().step_by(4) {
        *v = -0.0;
    }
    for r in 0..case.w1.rows() {
        case.w1.set(r, 0, -0.0);
    }
    case.b1.data_mut().fill(-0.0);
    case.w2.set(1, 0, -0.0);
    case.b2.data_mut()[0] = -0.0;
    assert_pinned(&case, "signed zeros");
}

/// Infinities and NaNs. Debug builds refuse non-finite values on the tape
/// (a `debug_assert` in `Graph`), so this case runs in release builds:
/// `cargo test --release -p basm-tensor --test din_scores`.
#[test]
fn fused_matches_composite_with_nonfinite_inputs() {
    if cfg!(debug_assertions) {
        return;
    }
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    let mut case = Case::new(4, 5, 4, 8, 202);
    case.q.set(0, 1, f32::INFINITY);
    case.seq.set(2, 6, f32::NEG_INFINITY);
    case.seq.set(3, 3, f32::NAN);
    case.w1.set(5, 2, f32::INFINITY);
    assert_pinned(&case, "non-finite");
}

#[test]
fn inference_tape_matches_training_tape() {
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    let case = Case::new(33, 20, 32, 36, 303);
    let scores = |inference: bool| {
        let mut g = Graph::new();
        g.set_inference(inference);
        let v: Vec<Var> = [&case.q, &case.seq, &case.w1, &case.b1, &case.w2, &case.b2]
            .iter()
            .map(|x| g.input((*x).clone()))
            .collect();
        let s = g.din_scores(v[0], v[1], v[2], v[3], v[4], v[5], case.t, SLOPE);
        bits(g.value(s))
    };
    assert_eq!(scores(true), scores(false));
}
