//! Bitwise pin for StSTL's fused low-rank transformation, `Graph::ststl`.
//!
//! The oracle is the composite the op replaced, built from public graph
//! primitives: `matmul → add_row` for each of `U`, `V` and the bias,
//! `matmul` for the static base, `meta_linear(V, ĥ)`, `meta_linear(U, tmp)`
//! and two `add`s. Both feed the same loss, `Σ m ⊙ h*`, so the output
//! gradient `dS` is the weight `m` whatever `h*` holds: it has a zero row
//! (whose `dtmp` is all zero) and scattered zeros of both signs. `h*` and
//! the gradients of `ĥ`, `cond` and all seven parameters must match bit for
//! bit — NaN positions by `is_nan` — at every thread count and lane width.

use basm_tensor::{pool, simd, Graph, Prng, Tensor, Var};
use std::sync::Mutex;

/// Thread and SIMD overrides are process-global; serialize the tests.
static SETTINGS: Mutex<()> = Mutex::new(());

/// What `Case::run` returns, in order.
const NAMES: [&str; 11] =
    ["h*", "loss", "dh_hat", "dcond", "dw_base", "dw_u", "db_u", "dw_v", "db_v", "dw_b", "db_b"];

/// The eleme-like shapes: `cond` 81 wide, `ĥ` 132, `h*` 80.
const ELEME: (usize, usize, usize) = (81, 132, 80);

/// Bits of every element, with any NaN mapped to one marker.
fn bits(t: &Tensor) -> Vec<Option<u32>> {
    t.data().iter().map(|v| (!v.is_nan()).then(|| v.to_bits())).collect()
}

struct Case {
    h_hat: Tensor,
    cond: Tensor,
    /// `w_base, w_u, b_u, w_v, b_v, w_b, b_b`.
    params: [Tensor; 7],
    /// The loss weight `m`.
    weight: Tensor,
    rank: usize,
}

impl Case {
    fn new(m: usize, (nc, ni, no): (usize, usize, usize), rank: usize, seed: u64) -> Self {
        let mut rng = Prng::seeded(seed);
        let (nu, nv) = (no * rank, rank * ni);
        let mut params = [
            rng.randn(ni, no, 0.1),
            rng.randn(nc, nu, 0.1),
            rng.randn(1, nu, 0.1),
            rng.randn(nc, nv, 0.1),
            rng.randn(1, nv, 0.1),
            rng.randn(nc, no, 0.1),
            rng.randn(1, no, 0.1),
        ];
        if rank > 1 {
            // Factor column 1 of every U is exactly zero, so every row's
            // dtmp[1] is a sum of zero products: the V rule skips it.
            let [_, w_u, b_u, ..] = &mut params;
            for o in 0..no {
                for r in 0..nc {
                    w_u.set(r, o * rank + 1, 0.0);
                }
                b_u.set(0, o * rank + 1, 0.0);
            }
        }
        // Row 1 (when present) gets no gradient at all; elsewhere every
        // fifth output does not count, as +0.0 or -0.0.
        let weight = Tensor::from_fn(m, no, |r, o| match (r, (r + o) % 5, o % 2) {
            (1, ..) | (_, 3, 0) => 0.0,
            (_, 3, _) => -0.0,
            _ => ((r * 7 + o) % 11) as f32 / 11.0 - 0.45,
        });
        Self { h_hat: rng.randn(m, ni, 1.0), cond: rng.randn(m, nc, 1.0), params, weight, rank }
    }

    /// Forward + backward through either the fused op or the composite;
    /// returns the bits of `h*`, the loss and every gradient.
    fn run(&self, fused: bool) -> Vec<Vec<Option<u32>>> {
        let mut g = Graph::new();
        let h_hat = g.input_with_grad(self.h_hat.clone());
        let cond = g.input_with_grad(self.cond.clone());
        let p: Vec<Var> = self.params.iter().map(|t| g.input_with_grad(t.clone())).collect();
        let h_star = self.forward(&mut g, h_hat, cond, &p, fused);
        let weight = g.input(self.weight.clone());
        let weighted = g.mul(h_star, weight);
        let loss = g.sum_all(weighted);
        g.backward(loss);
        let mut out = vec![bits(g.value(h_star)), bits(g.value(loss))];
        for v in [h_hat, cond].iter().chain(&p) {
            out.push(bits(g.grad(*v).expect("every input gets a gradient")));
        }
        out
    }

    fn forward(&self, g: &mut Graph, h_hat: Var, cond: Var, p: &[Var], fused: bool) -> Var {
        let (r, ni, no) = (self.rank, self.h_hat.cols(), self.params[0].cols());
        if fused {
            return g.ststl(h_hat, cond, p[0], (p[1], p[2]), (p[3], p[4]), (p[5], p[6]), r);
        }
        // `StStl::forward` before the fused op, in its node order.
        let u0 = g.matmul(cond, p[1]);
        let u = g.add_row(u0, p[2]);
        let v0 = g.matmul(cond, p[3]);
        let v = g.add_row(v0, p[4]);
        let static_path = g.matmul(h_hat, p[0]);
        let tmp = g.meta_linear(v, h_hat, r, ni);
        let low_rank = g.meta_linear(u, tmp, no, r);
        let dynamic = g.add(static_path, low_rank);
        let b0 = g.matmul(cond, p[5]);
        let b = g.add_row(b0, p[6]);
        g.add(dynamic, b)
    }

    /// `h*` from an inference tape (fused) or a training tape (composite),
    /// with the tape's bytes.
    fn infer(&self, fused: bool) -> (Vec<Option<u32>>, usize) {
        let mut g = Graph::new();
        g.set_inference(fused);
        let h_hat = g.input(self.h_hat.clone());
        let cond = g.input(self.cond.clone());
        let p: Vec<Var> = self.params.iter().map(|t| g.input(t.clone())).collect();
        let h_star = self.forward(&mut g, h_hat, cond, &p, fused);
        (bits(g.value(h_star)), g.memory_bytes())
    }
}

/// Fused == composite under every thread count and lane width.
fn assert_pinned(case: &Case, label: &str) {
    for threads in [1, 3] {
        for lanes_on in [false, true] {
            pool::set_threads(threads);
            pool::set_min_work(0);
            simd::set_simd(lanes_on);
            let (fused, composite) = (case.run(true), case.run(false));
            let (inferred, _) = case.infer(true);
            pool::set_threads(0);
            pool::set_min_work(pool::DEFAULT_MIN_WORK);
            simd::set_simd(true);
            let at = format!("{label}, threads {threads}, simd {lanes_on}");
            for ((f, c), name) in fused.iter().zip(&composite).zip(NAMES) {
                assert!(f == c, "{at}: {name} differs");
            }
            assert!(inferred == composite[0], "{at}: inference-tape h* differs");
        }
    }
}

#[test]
fn fused_matches_composite_bitwise_across_shapes() {
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    let mut seed = 0;
    for m in [1, 5, 30, 300] {
        for rank in [1, 4] {
            seed += 1;
            assert_pinned(&Case::new(m, ELEME, rank, seed), &format!("m={m} rank={rank}"));
        }
    }
    // Widths off every tile edge, and a block seam (rows 32, 33).
    assert_pinned(&Case::new(33, (7, 9, 3), 2, 99), "odd widths");
}

#[test]
fn fused_matches_composite_with_signed_zeros() {
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    let mut case = Case::new(6, ELEME, 4, 101);
    // Zeros of both signs in both inputs and the biases, so products, sums
    // from +0.0 and the skip tests all see them.
    for (i, v) in case.h_hat.data_mut().iter_mut().enumerate().filter(|(i, _)| i % 3 == 0) {
        *v = if i % 2 == 0 { -0.0 } else { 0.0 };
    }
    for v in case.cond.data_mut().iter_mut().step_by(4) {
        *v = -0.0;
    }
    for b in [2, 4, 6] {
        for v in case.params[b].data_mut().iter_mut().step_by(3) {
            *v = -0.0;
        }
    }
    assert_pinned(&case, "signed zeros");
}

/// Infinities and NaNs. Debug builds refuse non-finite values on the tape
/// (a `debug_assert` in `Graph`), so this case runs in release builds:
/// `cargo test --release -p basm-tensor --test ststl`.
#[test]
fn fused_matches_composite_with_nonfinite_inputs() {
    if cfg!(debug_assertions) {
        return;
    }
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    let mut case = Case::new(5, ELEME, 4, 202);
    case.cond.set(0, 3, f32::INFINITY);
    case.h_hat.set(2, 7, f32::NAN);
    case.params[1].set(5, 9, f32::NEG_INFINITY);
    // Row 1 has no output gradient, so its `dU` and `dV` stay +0.0 only
    // if the zero gradients are skipped rather than multiplied by ∞.
    case.h_hat.set(1, 4, f32::INFINITY);
    assert_pinned(&case, "non-finite");
}

/// An inference tape computes the same `h*` and keeps none of the factors
/// a training tape saves for the backward pass.
#[test]
fn inference_tape_saves_nothing() {
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    let case = Case::new(30, ELEME, 4, 303);
    let (inferred, bytes) = case.infer(true);
    let mut g = Graph::new();
    let inputs = [&case.h_hat, &case.cond].into_iter().chain(&case.params);
    let v: Vec<Var> = inputs.map(|t| g.input(t.clone())).collect();
    let values = g.memory_bytes();
    let h_star = g.ststl(v[0], v[1], v[2], (v[3], v[4]), (v[5], v[6]), (v[7], v[8]), case.rank);
    assert_eq!(bits(g.value(h_star)), inferred);
    let out = g.value(h_star).capacity() * std::mem::size_of::<f32>();
    assert_eq!(bytes, values + out, "an inference tape holds only values");
    assert!(g.memory_bytes() > bytes, "a training tape saves U, V and tmp");
}
