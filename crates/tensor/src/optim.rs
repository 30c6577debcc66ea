//! Optimizers and learning-rate schedules.
//!
//! The paper trains every model with **AdagradDecay** (Duchi et al. \[25\] with
//! the accumulator decay used on Alibaba's long-running online-learning jobs)
//! and a **linear warmup** of the learning rate from 0.001 to 0.012 (§III-A4).
//! SGD, plain Adagrad and Adam are provided for tests and ablations.

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use std::collections::HashMap;

/// A dense-parameter optimizer. `step` consumes the accumulated gradients in
/// the store (the caller zeroes them afterwards).
pub trait Optimizer {
    /// Apply one update with the given learning rate.
    fn step(&mut self, store: &mut ParamStore, lr: f32);

    /// Bytes of optimizer state currently held (for the Table VI memory
    /// accounting).
    fn state_bytes(&self) -> usize;
}

/// Plain stochastic gradient descent with optional momentum.
pub struct Sgd {
    momentum: f32,
    velocity: HashMap<ParamId, Tensor>,
}

impl Sgd {
    /// SGD; `momentum = 0.0` disables the velocity buffer.
    pub fn new(momentum: f32) -> Self {
        Self { momentum, velocity: HashMap::new() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, lr: f32) {
        for id in store.ids().collect::<Vec<_>>() {
            if self.momentum == 0.0 {
                let grad = store.grad(id).clone();
                store.value_mut(id).axpy(-lr, &grad);
            } else {
                let grad = store.grad(id).clone();
                let v = self.velocity.entry(id).or_insert_with(|| {
                    Tensor::zeros(grad.rows(), grad.cols())
                });
                v.scale_inplace(self.momentum);
                v.add_assign(&grad);
                let update = v.clone();
                store.value_mut(id).axpy(-lr, &update);
            }
        }
    }

    fn state_bytes(&self) -> usize {
        self.velocity.values().map(|t| t.len() * 4).sum()
    }
}

/// Adagrad: per-coordinate learning rates from accumulated squared gradients.
pub struct Adagrad {
    eps: f32,
    accum: HashMap<ParamId, Tensor>,
}

impl Adagrad {
    /// Adagrad with the given numerical floor.
    pub fn new(eps: f32) -> Self {
        Self { eps, accum: HashMap::new() }
    }
}

impl Optimizer for Adagrad {
    fn step(&mut self, store: &mut ParamStore, lr: f32) {
        adagrad_like_step(store, lr, self.eps, 1.0, &mut self.accum);
    }

    fn state_bytes(&self) -> usize {
        self.accum.values().map(|t| t.len() * 4).sum()
    }
}

/// AdagradDecay: Adagrad whose squared-gradient accumulator decays each step,
/// preventing the effective learning rate from collapsing on long-running
/// (online-learning) jobs. With `decay = 1.0` this is exactly Adagrad.
pub struct AdagradDecay {
    eps: f32,
    decay: f32,
    accum: HashMap<ParamId, Tensor>,
}

impl AdagradDecay {
    /// The paper's optimizer. Typical `decay` is very close to 1 (e.g.
    /// 0.9999); `eps` guards the rsqrt.
    pub fn new(eps: f32, decay: f32) -> Self {
        assert!((0.0..=1.0).contains(&decay), "decay must be in [0,1]");
        Self { eps, decay, accum: HashMap::new() }
    }

    /// Defaults used across the reproduction (eps 1e-6, decay 0.9999).
    pub fn paper_default() -> Self {
        Self::new(1e-6, 0.9999)
    }
}

impl Optimizer for AdagradDecay {
    fn step(&mut self, store: &mut ParamStore, lr: f32) {
        adagrad_like_step(store, lr, self.eps, self.decay, &mut self.accum);
    }

    fn state_bytes(&self) -> usize {
        self.accum.values().map(|t| t.len() * 4).sum()
    }
}

fn adagrad_like_step(
    store: &mut ParamStore,
    lr: f32,
    eps: f32,
    decay: f32,
    accum: &mut HashMap<ParamId, Tensor>,
) {
    for id in store.ids().collect::<Vec<_>>() {
        let grad = store.grad(id).clone();
        let acc = accum
            .entry(id)
            .or_insert_with(|| Tensor::zeros(grad.rows(), grad.cols()));
        if decay != 1.0 {
            acc.scale_inplace(decay);
        }
        for (a, &g) in acc.data_mut().iter_mut().zip(grad.data().iter()) {
            *a += g * g;
        }
        let acc_snapshot = acc.clone();
        let value = store.value_mut(id);
        for ((v, &g), &a) in value
            .data_mut()
            .iter_mut()
            .zip(grad.data().iter())
            .zip(acc_snapshot.data().iter())
        {
            *v -= lr * g / (a.sqrt() + eps);
        }
    }
}

/// Adam with bias correction.
pub struct Adam {
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: HashMap<ParamId, Tensor>,
    v: HashMap<ParamId, Tensor>,
}

impl Adam {
    /// Adam with explicit hyperparameters.
    pub fn new(beta1: f32, beta2: f32, eps: f32) -> Self {
        Self { beta1, beta2, eps, t: 0, m: HashMap::new(), v: HashMap::new() }
    }

    /// The usual (0.9, 0.999, 1e-8).
    pub fn default_params() -> Self {
        Self::new(0.9, 0.999, 1e-8)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, lr: f32) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for id in store.ids().collect::<Vec<_>>() {
            let grad = store.grad(id).clone();
            let m = self
                .m
                .entry(id)
                .or_insert_with(|| Tensor::zeros(grad.rows(), grad.cols()));
            let v = self
                .v
                .entry(id)
                .or_insert_with(|| Tensor::zeros(grad.rows(), grad.cols()));
            for ((mi, vi), &g) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(grad.data().iter())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            }
            let m_snapshot = m.clone();
            let v_snapshot = v.clone();
            let value = store.value_mut(id);
            for ((val, &mi), &vi) in value
                .data_mut()
                .iter_mut()
                .zip(m_snapshot.data().iter())
                .zip(v_snapshot.data().iter())
            {
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                *val -= lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn state_bytes(&self) -> usize {
        self.m.values().map(|t| t.len() * 4).sum::<usize>()
            + self.v.values().map(|t| t.len() * 4).sum::<usize>()
    }
}

/// Learning-rate schedule.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub enum LrSchedule {
    /// A constant learning rate.
    Constant(f32),
    /// Linear warmup from `start` to `end` over `steps` steps, then constant
    /// at `end` — the paper's 0.001 → 0.012 warmup (§III-A4).
    Warmup { start: f32, end: f32, steps: u64 },
}

impl LrSchedule {
    /// The paper's schedule scaled to a given warmup horizon (the paper warms
    /// up over 1M steps on 2.4B samples; we scale the horizon with the
    /// simulated dataset).
    pub fn paper_warmup(steps: u64) -> Self {
        LrSchedule::Warmup { start: 0.001, end: 0.012, steps }
    }

    /// Learning rate at a (0-based) global step.
    pub fn at(&self, step: u64) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::Warmup { start, end, steps } => {
                if steps == 0 || step >= steps {
                    end
                } else {
                    start + (end - start) * (step as f32 / steps as f32)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::rng::Prng;

    /// Fit y = 2x - 1 with each optimizer; all should reach near-zero loss.
    fn fit_linear(opt: &mut dyn Optimizer, lr: f32) -> f32 {
        let mut rng = Prng::seeded(17);
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        let b = store.add("b", Tensor::scalar(0.0));
        let xs = rng.rand_uniform(64, 1, -1.0, 1.0);
        let ys = xs.map(|x| 2.0 * x - 1.0);
        let mut last = f32::MAX;
        for _ in 0..400 {
            store.zero_grads();
            let mut g = Graph::new();
            let x = g.input(xs.clone());
            let y = g.input(ys.clone());
            let wv = g.param(&store, w);
            let bv = g.param(&store, b);
            let pred0 = g.matmul(x, wv);
            let pred = g.add_row(pred0, bv);
            let diff = g.sub(pred, y);
            let sq = g.square(diff);
            let loss = g.mean_all(sq);
            g.backward(loss);
            store.accumulate_grads(&g);
            opt.step(&mut store, lr);
            last = g.value(loss).item();
        }
        last
    }

    #[test]
    fn sgd_converges() {
        assert!(fit_linear(&mut Sgd::new(0.0), 0.3) < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges() {
        assert!(fit_linear(&mut Sgd::new(0.9), 0.05) < 1e-3);
    }

    #[test]
    fn adagrad_converges() {
        assert!(fit_linear(&mut Adagrad::new(1e-6), 0.3) < 1e-2);
    }

    #[test]
    fn adagrad_decay_converges() {
        assert!(fit_linear(&mut AdagradDecay::paper_default(), 0.2) < 1e-2);
    }

    #[test]
    fn adam_converges() {
        assert!(fit_linear(&mut Adam::default_params(), 0.05) < 1e-3);
    }

    #[test]
    fn adagrad_decay_with_unit_decay_matches_adagrad() {
        let l1 = fit_linear(&mut Adagrad::new(1e-6), 0.2);
        let l2 = fit_linear(&mut AdagradDecay::new(1e-6, 1.0), 0.2);
        assert!((l1 - l2).abs() < 1e-6, "{l1} vs {l2}");
    }

    #[test]
    fn warmup_schedule_shape() {
        let s = LrSchedule::paper_warmup(100);
        assert!((s.at(0) - 0.001).abs() < 1e-7);
        assert!((s.at(50) - 0.0065).abs() < 1e-6);
        assert!((s.at(100) - 0.012).abs() < 1e-7);
        assert!((s.at(1_000_000) - 0.012).abs() < 1e-7);
    }

    #[test]
    fn state_bytes_tracks_buffers() {
        let mut opt = Adam::default_params();
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(10, 10));
        assert_eq!(opt.state_bytes(), 0);
        opt.step(&mut store, 0.01);
        assert_eq!(opt.state_bytes(), 2 * 100 * 4);
    }
}
