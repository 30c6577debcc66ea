//! Finite-difference verification of every op's backward rule.
//!
//! Each test builds a scalar loss through one (or a few) ops and compares the
//! analytic gradient against a central difference. Inputs are kept away from
//! non-differentiable points (ReLU kinks, softmax ties) by construction.

use basm_tensor::gradcheck::assert_gradients;
use basm_tensor::{Graph, Tensor, Prng};

fn rt(rng: &mut Prng, r: usize, c: usize) -> Tensor {
    rng.randn(r, c, 0.7)
}

/// Offset away from zero so ReLU-family kinks don't break finite differences.
fn rt_off(rng: &mut Prng, r: usize, c: usize) -> Tensor {
    rng.randn(r, c, 0.5).map(|x| if x >= 0.0 { x + 0.3 } else { x - 0.3 })
}

fn positive(rng: &mut Prng, r: usize, c: usize) -> Tensor {
    rng.randn(r, c, 0.4).map(|x| x.abs() + 0.5)
}

#[test]
fn grad_matmul() {
    let mut rng = Prng::seeded(1);
    assert_gradients(&[rt(&mut rng, 3, 4), rt(&mut rng, 4, 2)], |g, v| {
        let y = g.matmul(v[0], v[1]);
        let s = g.square(y);
        g.mean_all(s)
    });
}

#[test]
fn grad_add_sub_mul_div() {
    let mut rng = Prng::seeded(2);
    let a = rt(&mut rng, 3, 3);
    let b = positive(&mut rng, 3, 3);
    assert_gradients(&[a.clone(), b.clone()], |g, v| {
        let s = g.add(v[0], v[1]);
        g.mean_all(s)
    });
    assert_gradients(&[a.clone(), b.clone()], |g, v| {
        let s = g.sub(v[0], v[1]);
        let q = g.square(s);
        g.mean_all(q)
    });
    assert_gradients(&[a, b], |g, v| {
        let s = g.mul(v[0], v[1]);
        g.mean_all(s)
    });
}

#[test]
fn grad_broadcasts() {
    let mut rng = Prng::seeded(3);
    let a = rt(&mut rng, 4, 3);
    let row = rt(&mut rng, 1, 3);
    let col = rt(&mut rng, 4, 1);
    assert_gradients(&[a.clone(), row.clone()], |g, v| {
        let s = g.add_row(v[0], v[1]);
        let q = g.square(s);
        g.mean_all(q)
    });
    assert_gradients(&[a.clone(), row], |g, v| {
        let s = g.mul_row(v[0], v[1]);
        let q = g.square(s);
        g.mean_all(q)
    });
    assert_gradients(&[a.clone(), col.clone()], |g, v| {
        let s = g.add_col(v[0], v[1]);
        let q = g.square(s);
        g.mean_all(q)
    });
    assert_gradients(&[a, col], |g, v| {
        let s = g.mul_col(v[0], v[1]);
        let q = g.square(s);
        g.mean_all(q)
    });
}

#[test]
fn grad_scalar_ops() {
    let mut rng = Prng::seeded(4);
    let a = rt(&mut rng, 3, 3);
    assert_gradients(&[a.clone()], |g, v| {
        let s = g.scale(v[0], -1.7);
        let q = g.square(s);
        g.mean_all(q)
    });
    assert_gradients(&[a], |g, v| {
        let s = g.add_scalar(v[0], 2.5);
        let q = g.square(s);
        g.mean_all(q)
    });
}

#[test]
fn grad_activations() {
    let mut rng = Prng::seeded(5);
    assert_gradients(&[rt(&mut rng, 3, 3)], |g, v| {
        let s = g.sigmoid(v[0]);
        g.mean_all(s)
    });
    assert_gradients(&[rt(&mut rng, 3, 3)], |g, v| {
        let s = g.tanh(v[0]);
        g.mean_all(s)
    });
    assert_gradients(&[rt_off(&mut rng, 3, 3)], |g, v| {
        let s = g.relu(v[0]);
        g.mean_all(s)
    });
    assert_gradients(&[rt_off(&mut rng, 3, 3)], |g, v| {
        let s = g.leaky_relu(v[0], 0.1);
        g.mean_all(s)
    });
}

#[test]
fn grad_exp_ln_sqrt_square() {
    let mut rng = Prng::seeded(6);
    assert_gradients(&[rt(&mut rng, 2, 3)], |g, v| {
        let s = g.exp(v[0]);
        g.mean_all(s)
    });
    assert_gradients(&[positive(&mut rng, 2, 3)], |g, v| {
        let s = g.ln(v[0]);
        g.mean_all(s)
    });
    assert_gradients(&[positive(&mut rng, 2, 3)], |g, v| {
        let s = g.sqrt(v[0]);
        g.mean_all(s)
    });
    assert_gradients(&[rt(&mut rng, 2, 3)], |g, v| {
        let s = g.square(v[0]);
        g.mean_all(s)
    });
}

#[test]
fn grad_softmax_rows() {
    let mut rng = Prng::seeded(7);
    let target = rng.rand_uniform(3, 4, 0.0, 1.0);
    assert_gradients(&[rt(&mut rng, 3, 4)], move |g, v| {
        let s = g.softmax_rows(v[0]);
        let t = g.input(target.clone());
        let d = g.sub(s, t);
        let q = g.square(d);
        g.mean_all(q)
    });
}

#[test]
fn grad_masked_softmax() {
    let mut rng = Prng::seeded(8);
    let mask = Tensor::from_vec(2, 4, vec![1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
    let target = rng.rand_uniform(2, 4, 0.0, 1.0);
    assert_gradients(&[rt(&mut rng, 2, 4)], move |g, v| {
        let m = g.input(mask.clone());
        let s = g.masked_softmax_rows(v[0], m);
        let t = g.input(target.clone());
        let d = g.sub(s, t);
        let q = g.square(d);
        g.mean_all(q)
    });
}

#[test]
fn grad_concat_slice() {
    let mut rng = Prng::seeded(9);
    assert_gradients(&[rt(&mut rng, 3, 2), rt(&mut rng, 3, 3)], |g, v| {
        let c = g.concat_cols(&[v[0], v[1]]);
        let s = g.slice_cols(c, 1, 3);
        let q = g.square(s);
        g.mean_all(q)
    });
}

#[test]
fn grad_reductions() {
    let mut rng = Prng::seeded(10);
    let a = rt(&mut rng, 3, 4);
    assert_gradients(&[a], |g, v| {
        let s = g.square(v[0]);
        g.sum_all(s)
    });
}

#[test]
fn grad_row_dot() {
    let mut rng = Prng::seeded(11);
    assert_gradients(&[rt(&mut rng, 3, 4), rt(&mut rng, 3, 4)], |g, v| {
        let s = g.row_dot(v[0], v[1]);
        let q = g.square(s);
        g.mean_all(q)
    });
}

#[test]
fn grad_transpose_reshape_repeat() {
    let mut rng = Prng::seeded(12);
    let a = rt(&mut rng, 3, 4);
    assert_gradients(&[a.clone()], |g, v| {
        let t = g.reshape(v[0], 4, 3);
        let q = g.square(t);
        g.mean_all(q)
    });
    // Weight repeated rows unevenly so the backward sum is actually checked.
    let w = rng.rand_uniform(6, 4, 0.5, 1.5);
    assert_gradients(&[a], move |g, v| {
        let t = g.repeat_rows(v[0], 2);
        let wv = g.input(w.clone());
        let p = g.mul(t, wv);
        let q = g.square(p);
        g.mean_all(q)
    });
}

#[test]
fn grad_seq_weighted_sum() {
    let mut rng = Prng::seeded(13);
    // seq [2, 3*4], weights [2, 3]
    assert_gradients(&[rt(&mut rng, 2, 12), rt(&mut rng, 2, 3)], |g, v| {
        let s = g.seq_weighted_sum(v[0], v[1], 3, 4);
        let q = g.square(s);
        g.mean_all(q)
    });
}

#[test]
fn grad_meta_linear() {
    let mut rng = Prng::seeded(14);
    // w [2, 3*4], x [2, 4] -> [2, 3]
    assert_gradients(&[rt(&mut rng, 2, 12), rt(&mut rng, 2, 4)], |g, v| {
        let s = g.meta_linear(v[0], v[1], 3, 4);
        let q = g.square(s);
        g.mean_all(q)
    });
}

#[test]
fn grad_batch_norm_train() {
    let mut rng = Prng::seeded(15);
    let target = rng.rand_uniform(6, 3, -1.0, 1.0);
    assert_gradients(&[rt(&mut rng, 6, 3)], move |g, v| {
        let s = g.batch_norm_train(v[0], 1e-3);
        let t = g.input(target.clone());
        let d = g.sub(s, t);
        let q = g.square(d);
        g.mean_all(q)
    });
}

#[test]
fn grad_normalize_eval() {
    let mut rng = Prng::seeded(16);
    let mean = rng.randn(1, 3, 0.5);
    let var = positive(&mut rng, 1, 3);
    assert_gradients(&[rt(&mut rng, 4, 3)], move |g, v| {
        let m = g.input(mean.clone());
        let va = g.input(var.clone());
        let s = g.normalize_eval(v[0], m, va, 1e-3);
        let q = g.square(s);
        g.mean_all(q)
    });
}

#[test]
fn grad_bce_with_logits() {
    let mut rng = Prng::seeded(17);
    let labels = Tensor::from_vec(4, 1, vec![1.0, 0.0, 1.0, 0.0]);
    assert_gradients(&[rt(&mut rng, 4, 1)], move |g, v| {
        let y = g.input(labels.clone());
        g.bce_with_logits(v[0], y)
    });
}

#[test]
fn grad_composed_network() {
    // A miniature CTR tower: embedding-ish input -> linear -> leaky relu ->
    // meta-linear -> bce. Exercises interaction between rules.
    let mut rng = Prng::seeded(18);
    let w1 = rt(&mut rng, 5, 4);
    let metaw = rt(&mut rng, 3, 4); // per-sample 1x4
    let labels = Tensor::from_vec(3, 1, vec![1.0, 0.0, 1.0]);
    assert_gradients(&[rt(&mut rng, 3, 5)], move |g, v| {
        let w = g.input_with_grad(w1.clone());
        // tanh rather than a ReLU-family kink: finite differences near a kink
        // are unreliable at f32 precision.
        let h0 = g.matmul(v[0], w);
        let h1 = g.tanh(h0);
        let mw = g.input(metaw.clone());
        let logits = g.meta_linear(mw, h1, 1, 4);
        let y = g.input(labels.clone());
        g.bce_with_logits(logits, y)
    });
}

#[test]
fn grad_meta_linear_in_major() {
    let mut rng = Prng::seeded(19);
    // w [2, 4*3] in-major ([in=4, out=3] flat), x [2, 4] -> [2, 3]
    assert_gradients(&[rt(&mut rng, 2, 12), rt(&mut rng, 2, 4)], |g, v| {
        let s = g.meta_linear_in_major(v[0], v[1], 3, 4);
        let q = g.square(s);
        g.mean_all(q)
    });
}

#[test]
fn meta_linear_in_major_matches_transposed_meta_linear() {
    let mut rng = Prng::seeded(20);
    let w_in_major = rt(&mut rng, 1, 6); // [in=2, out=3] flat
    // Transpose to out-major layout [out=3, in=2]: w_om[o*2+i] = w_im[i*3+o].
    let mut w_out_major = vec![0.0f32; 6];
    for i in 0..2 {
        for o in 0..3 {
            w_out_major[o * 2 + i] = w_in_major.data()[i * 3 + o];
        }
    }
    let x = rt(&mut rng, 1, 2);
    let mut g = Graph::new();
    let wi = g.input(w_in_major);
    let wo = g.input(Tensor::from_vec(1, 6, w_out_major));
    let xv = g.input(x);
    let a = g.meta_linear_in_major(wi, xv, 3, 2);
    let b = g.meta_linear(wo, xv, 3, 2);
    for (x, y) in g.value(a).data().iter().zip(g.value(b).data()) {
        assert!((x - y).abs() < 1e-6);
    }
}

#[test]
fn grad_din_scores() {
    let mut rng = Prng::seeded(21);
    // query [2, 3], seq [2, 4*3] (t = 4), w1 [12, 5], b1, w2 [5, 1], b2.
    let inputs = [
        rt(&mut rng, 2, 3),
        rt(&mut rng, 2, 12),
        rt(&mut rng, 12, 5),
        rt_off(&mut rng, 1, 5),
        rt(&mut rng, 5, 1),
        rt(&mut rng, 1, 1),
    ];
    assert_gradients(&inputs, |g, v| {
        let s = g.din_scores(v[0], v[1], v[2], v[3], v[4], v[5], 4, 0.1);
        let q = g.square(s);
        g.mean_all(q)
    });
}

#[test]
fn grad_ststl() {
    let mut rng = Prng::seeded(22);
    // h_hat [3, 5], cond [3, 4], out 3, rank 2: w_base [5, 3], w_u [4, 6],
    // b_u [1, 6], w_v [4, 10], b_v [1, 10], w_b [4, 3], b_b [1, 3].
    let inputs = [
        rt(&mut rng, 3, 5),
        rt(&mut rng, 3, 4),
        rt(&mut rng, 5, 3),
        rt(&mut rng, 4, 6),
        rt(&mut rng, 1, 6),
        rt(&mut rng, 4, 10),
        rt(&mut rng, 1, 10),
        rt(&mut rng, 4, 3),
        rt(&mut rng, 1, 3),
    ];
    assert_gradients(&inputs, |g, v| {
        let h = g.ststl(v[0], v[1], v[2], (v[3], v[4]), (v[5], v[6]), (v[7], v[8]), 2);
        let q = g.square(h);
        g.mean_all(q)
    });
}
