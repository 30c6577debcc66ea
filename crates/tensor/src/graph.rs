//! Tape-based reverse-mode autograd.
//!
//! A [`Graph`] is a flat tape of nodes built eagerly (define-by-run): each
//! op constructor computes its forward value immediately and records enough
//! context for the backward pass. The tape is rebuilt per batch, which is what
//! makes per-sample dynamic-parameter models (StSTL, APG, M2M) natural to
//! express.
//!
//! Node ids are topologically ordered by construction, so the backward pass is
//! a single reverse sweep over ids (see [`crate::backward`]).
//!
//! Ops whose output elements are independent (elementwise maps, row-broadcast
//! ops, per-row softmax and the fused sequence/meta-linear ops) fan out over
//! [`crate::pool`] row blocks when shapes warrant; cross-row reductions
//! (`sum_cols`, the BN batch statistics, the BCE total) stay serial so their
//! accumulation order — and therefore every result bit — is independent of
//! the thread count.

use crate::bufpool;
use crate::linalg;
use crate::pool;
use crate::params::{ParamId, ParamStore};
use crate::simd;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::collections::HashMap;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The raw tape index of this node.
    pub fn id(&self) -> usize {
        self.0
    }
}

/// The operation that produced a node. Inputs are tape indices.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Leaf node: external input or parameter.
    Leaf,
    /// `A · B`.
    Matmul { a: usize, b: usize },
    /// Elementwise `a + b` (same shape).
    Add { a: usize, b: usize },
    /// Elementwise `a - b`.
    Sub { a: usize, b: usize },
    /// Elementwise `a * b` (Hadamard).
    Mul { a: usize, b: usize },
    /// `a[m,n] + b[1,n]` broadcast over rows.
    AddRow { a: usize, b: usize },
    /// `a[m,n] * b[1,n]` broadcast over rows.
    MulRow { a: usize, b: usize },
    /// `a[m,n] + b[m,1]` broadcast over columns.
    AddCol { a: usize, b: usize },
    /// `a[m,n] * b[m,1]` broadcast over columns.
    MulCol { a: usize, b: usize },
    /// `c * a`.
    Scale { a: usize, c: f32 },
    /// `a + c`.
    AddScalar { a: usize, #[allow(dead_code)] c: f32 },
    Sigmoid { a: usize },
    Tanh { a: usize },
    Relu { a: usize },
    LeakyRelu { a: usize, slope: f32 },
    Exp { a: usize },
    Ln { a: usize },
    Sqrt { a: usize },
    Square { a: usize },
    /// Row-wise softmax.
    SoftmaxRows { a: usize },
    /// Row-wise softmax over positions where `mask != 0`; masked outputs are 0.
    MaskedSoftmaxRows { a: usize, #[allow(dead_code)] mask: usize },
    /// Horizontal concatenation of parts (equal row counts).
    ConcatCols { parts: Vec<usize> },
    /// Columns `[start, start+len)` of `a`.
    SliceCols { a: usize, start: usize, len: usize },
    /// Sum of all elements, `[1,1]`.
    SumAll { a: usize },
    /// Mean of all elements, `[1,1]`.
    MeanAll { a: usize },
    /// Row-wise dot product of equal-shape tensors, `[m,1]`.
    RowDot { a: usize, b: usize },
    /// Same buffer, new shape.
    Reshape { a: usize },
    /// Row `i` of `a` repeated `times` consecutive rows: `[m,n] -> [m*times,n]`.
    RepeatRows { a: usize, times: usize },
    /// `seq [m, t*d]` weighted by `w [m, t]` -> `[m, d]`.
    SeqWeightedSum { seq: usize, w: usize, t: usize, d: usize },
    /// Per-sample linear map: `w [m, out*inp]` applied to `x [m, inp]` -> `[m, out]`.
    MetaLinear { w: usize, x: usize, out_dim: usize, in_dim: usize },
    /// Like `MetaLinear` but with in-major weight layout: `y_o = Σ_i w[i*out+o]·x_i`.
    MetaLinearInMajor { w: usize, x: usize, out_dim: usize, in_dim: usize },
    /// DIN's activation unit, fused: per sample and position,
    /// `score = leaky([q; k; q-k; q⊙k] · w1 + b1) · w2 + b2` -> `[m, t]`.
    DinScores {
        query: usize,
        seq: usize,
        w1: usize,
        b1: usize,
        w2: usize,
        b2: usize,
        t: usize,
        slope: f32,
    },
    /// Per-column batch normalization (no affine) using batch statistics.
    BatchNormTrain { x: usize, eps: f32 },
    /// Per-column normalization with fixed (running) statistics `mean`/`var` `[1,n]`.
    NormalizeEval { x: usize, #[allow(dead_code)] mean: usize, var: usize, eps: f32 },
    /// Mean binary cross-entropy over all elements of `logits` vs `labels`.
    BceWithLogits { logits: usize, labels: usize },
}

/// Extra context saved by ops whose backward (or whose caller) needs it.
#[derive(Debug, Clone)]
pub(crate) enum Saved {
    /// Batch statistics computed by [`Op::BatchNormTrain`].
    BnStats { mean: Vec<f32>, var: Vec<f32> },
    /// The features `[q; k; q-k; q⊙k]` (`[m·t, 4d]`) and hidden activations
    /// (`[m·t, h]`) of an [`Op::DinScores`] node on a training tape.
    DinActs { feats: Tensor, acts: Tensor },
}

impl Saved {
    /// Allocated bytes, counted like node values (capacity, not length).
    fn bytes(&self) -> usize {
        let floats = match self {
            Saved::BnStats { mean, var } => mean.capacity() + var.capacity(),
            Saved::DinActs { feats, acts } => feats.capacity() + acts.capacity(),
        };
        floats * std::mem::size_of::<f32>()
    }

    /// Return the buffers to the [`crate::bufpool`].
    fn recycle(self) {
        match self {
            Saved::BnStats { mean, var } => {
                bufpool::release(mean);
                bufpool::release(var);
            }
            Saved::DinActs { feats, acts } => {
                feats.recycle();
                acts.recycle();
            }
        }
    }
}

pub(crate) struct Node {
    pub(crate) op: Op,
    pub(crate) value: Tensor,
    pub(crate) grad: Option<Tensor>,
    pub(crate) requires_grad: bool,
    pub(crate) saved: Option<Saved>,
}

/// A define-by-run autograd tape.
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    param_cache: HashMap<ParamId, Var>,
    pub(crate) param_of_node: HashMap<usize, ParamId>,
    /// Inference-only tape: fused ops drop the buffers only backward reads.
    /// Set by `predict`, never by `train_step`; cleared on [`Graph::reset`].
    inference: bool,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Bytes held by all node values, gradients and saved backward context
    /// (a fused op's intermediates, batch statistics) currently on the tape —
    /// the activation-memory measurement used by the Table VI accounting.
    /// Counts allocated **capacity**, not logical length, so buffers the
    /// recycling pool rounded up to a bucket size are reported honestly.
    pub fn memory_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                let g = n.grad.as_ref().map_or(0, Tensor::capacity);
                (n.value.capacity() + g) * std::mem::size_of::<f32>()
                    + n.saved.as_ref().map_or(0, Saved::bytes)
            })
            .sum()
    }

    /// Clear the tape for reuse, recycling every node's value, gradient and
    /// saved buffer into the [`crate::bufpool`] while retaining the node
    /// vector's and the param maps' own capacity. Records the tape's
    /// high-water mark as the `graph.peak_bytes` gauge before releasing
    /// anything.
    pub fn reset(&mut self) {
        if !self.nodes.is_empty() {
            basm_obs::gauge_max("graph.peak_bytes", self.memory_bytes() as u64);
        }
        for node in self.nodes.drain(..) {
            node.value.recycle();
            if let Some(grad) = node.grad {
                grad.recycle();
            }
            if let Some(saved) = node.saved {
                saved.recycle();
            }
        }
        self.param_cache.clear();
        self.param_of_node.clear();
        self.inference = false;
    }

    /// Mark (or unmark) this tape inference-only. Inference tapes keep no
    /// saved backward context (`din_scores` recycles its activations at
    /// once), so `train_step` must never see an inference tape.
    pub fn set_inference(&mut self, on: bool) {
        self.inference = on;
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of `v`, if backward reached it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Batch statistics `(mean, var)` saved by a [`Graph::batch_norm_train`]
    /// node; used by `BatchNorm1d` to update running statistics.
    pub fn bn_saved(&self, v: Var) -> Option<(&[f32], &[f32])> {
        match &self.nodes[v.0].saved {
            Some(Saved::BnStats { mean, var }) => Some((mean, var)),
            _ => None,
        }
    }

    fn push(&mut self, op: Op, value: Tensor, requires_grad: bool) -> Var {
        self.push_saved(op, value, requires_grad, None)
    }

    fn push_saved(
        &mut self,
        op: Op,
        value: Tensor,
        requires_grad: bool,
        saved: Option<Saved>,
    ) -> Var {
        debug_assert!(value.all_finite(), "non-finite forward value from {op:?}");
        self.nodes.push(Node { op, value, grad: None, requires_grad, saved });
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, id: usize) -> bool {
        self.nodes[id].requires_grad
    }

    // ---------------------------------------------------------------- leaves

    /// A constant leaf (no gradient flows into it).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, t, false)
    }

    /// A leaf that accumulates gradient (used for embedding lookups whose
    /// gradient is scatter-applied outside the graph).
    pub fn input_with_grad(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, t, true)
    }

    /// A parameter leaf: copies the parameter's current value onto the tape
    /// and remembers the mapping so [`ParamStore::accumulate_grads`] can pull
    /// the gradient back. Repeated calls with the same id reuse the node.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&v) = self.param_cache.get(&id) {
            return v;
        }
        let v = self.push(Op::Leaf, store.value(id).clone_pooled(), true);
        self.param_cache.insert(id, v);
        self.param_of_node.insert(v.0, id);
        v
    }

    // ------------------------------------------------------------ binary ops

    /// `a · b` for `a [m,k]`, `b [k,n]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = linalg::matmul(self.value(a), self.value(b));
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(Op::Matmul { a: a.0, b: b.0 }, v, rg)
    }

    /// Elementwise sum; shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).par_binary(self.value(b), simd::BinOp::Add);
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(Op::Add { a: a.0, b: b.0 }, v, rg)
    }

    /// Elementwise difference; shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).par_binary(self.value(b), simd::BinOp::Sub);
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(Op::Sub { a: a.0, b: b.0 }, v, rg)
    }

    /// Elementwise (Hadamard) product; shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).par_binary(self.value(b), simd::BinOp::Mul);
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(Op::Mul { a: a.0, b: b.0 }, v, rg)
    }

    /// `a [m,n] + b [1,n]`, `b` broadcast over rows (bias add).
    pub fn add_row(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = self.value(a).shape();
        assert_eq!(self.value(b).shape(), (1, n), "add_row: b must be [1,{n}]");
        let bd = self.value(b).data();
        let av = self.value(a);
        let mut out = Tensor::scratch_pooled(m, n);
        let threads = pool::threads_for(m, m * n);
        pool::par_row_blocks(out.data_mut(), n, threads, |i0, block| {
            for (ri, orow) in block.chunks_mut(n).enumerate() {
                simd::binary(simd::BinOp::Add, orow, av.row(i0 + ri), bd);
            }
        });
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(Op::AddRow { a: a.0, b: b.0 }, out, rg)
    }

    /// `a [m,n] * b [1,n]`, `b` broadcast over rows.
    pub fn mul_row(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = self.value(a).shape();
        assert_eq!(self.value(b).shape(), (1, n), "mul_row: b must be [1,{n}]");
        let bd = self.value(b).data();
        let av = self.value(a);
        let mut out = Tensor::scratch_pooled(m, n);
        let threads = pool::threads_for(m, m * n);
        pool::par_row_blocks(out.data_mut(), n, threads, |i0, block| {
            for (ri, orow) in block.chunks_mut(n).enumerate() {
                simd::binary(simd::BinOp::Mul, orow, av.row(i0 + ri), bd);
            }
        });
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(Op::MulRow { a: a.0, b: b.0 }, out, rg)
    }

    /// `a [m,n] + b [m,1]`, `b` broadcast over columns.
    pub fn add_col(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = self.value(a).shape();
        assert_eq!(self.value(b).shape(), (m, 1), "add_col: b must be [{m},1]");
        let bd = self.value(b).data();
        let av = self.value(a);
        let mut out = Tensor::scratch_pooled(m, n);
        let threads = pool::threads_for(m, m * n);
        pool::par_row_blocks(out.data_mut(), n, threads, |i0, block| {
            for (ri, orow) in block.chunks_mut(n).enumerate() {
                let r = i0 + ri;
                simd::add_scalar(orow, av.row(r), bd[r]);
            }
        });
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(Op::AddCol { a: a.0, b: b.0 }, out, rg)
    }

    /// `a [m,n] * b [m,1]`, `b` broadcast over columns (per-row scaling —
    /// how StAEL applies its field weight α).
    pub fn mul_col(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = self.value(a).shape();
        assert_eq!(self.value(b).shape(), (m, 1), "mul_col: b must be [{m},1]");
        let bd = self.value(b).data();
        let av = self.value(a);
        let mut out = Tensor::scratch_pooled(m, n);
        let threads = pool::threads_for(m, m * n);
        pool::par_row_blocks(out.data_mut(), n, threads, |i0, block| {
            for (ri, orow) in block.chunks_mut(n).enumerate() {
                let r = i0 + ri;
                simd::scale(orow, av.row(r), bd[r]);
            }
        });
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(Op::MulCol { a: a.0, b: b.0 }, out, rg)
    }

    // ------------------------------------------------------------- unary ops

    /// `c * a`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).par_scale(c);
        let rg = self.rg(a.0);
        self.push(Op::Scale { a: a.0, c }, v, rg)
    }

    /// `a + c`.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).par_add_scalar(c);
        let rg = self.rg(a.0);
        self.push(Op::AddScalar { a: a.0, c }, v, rg)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).par_map(stable_sigmoid);
        let rg = self.rg(a.0);
        self.push(Op::Sigmoid { a: a.0 }, v, rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).par_map(f32::tanh);
        let rg = self.rg(a.0);
        self.push(Op::Tanh { a: a.0 }, v, rg)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).par_map(|x| x.max(0.0));
        let rg = self.rg(a.0);
        self.push(Op::Relu { a: a.0 }, v, rg)
    }

    /// Leaky ReLU with the given negative slope (the paper's activation).
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let v = self.value(a).par_map(|x| select(x > 0.0, x, slope * x));
        let rg = self.rg(a.0);
        self.push(Op::LeakyRelu { a: a.0, slope }, v, rg)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).par_map(f32::exp);
        let rg = self.rg(a.0);
        self.push(Op::Exp { a: a.0 }, v, rg)
    }

    /// Elementwise natural log (inputs must be positive).
    pub fn ln(&mut self, a: Var) -> Var {
        let v = self.value(a).par_map(f32::ln);
        let rg = self.rg(a.0);
        self.push(Op::Ln { a: a.0 }, v, rg)
    }

    /// Elementwise square root (inputs must be non-negative).
    pub fn sqrt(&mut self, a: Var) -> Var {
        let v = self.value(a).par_map(f32::sqrt);
        let rg = self.rg(a.0);
        self.push(Op::Sqrt { a: a.0 }, v, rg)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.value(a).par_map(|x| x * x);
        let rg = self.rg(a.0);
        self.push(Op::Square { a: a.0 }, v, rg)
    }

    // ------------------------------------------------------- softmax / shape

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let (m, n) = av.shape();
        let mut out = Tensor::scratch_pooled(m, n);
        let threads = pool::threads_for(m, m * n);
        pool::par_row_blocks(out.data_mut(), n, threads, |i0, block| {
            for (ri, orow) in block.chunks_mut(n).enumerate() {
                softmax_into(av.row(i0 + ri), orow);
            }
        });
        let rg = self.rg(a.0);
        self.push(Op::SoftmaxRows { a: a.0 }, out, rg)
    }

    /// Row-wise softmax restricted to positions where `mask != 0`; masked
    /// positions produce 0. A fully masked row produces all zeros.
    pub fn masked_softmax_rows(&mut self, a: Var, mask: Var) -> Var {
        let av = self.value(a);
        let mv = self.value(mask);
        assert_eq!(av.shape(), mv.shape(), "masked_softmax: shape mismatch");
        let (m, n) = av.shape();
        let mut out = Tensor::scratch_pooled(m, n);
        let threads = pool::threads_for(m, m * n);
        pool::par_row_blocks(out.data_mut(), n, threads, |i0, block| {
            for (ri, orow) in block.chunks_mut(n).enumerate() {
                masked_softmax_into(av.row(i0 + ri), mv.row(i0 + ri), orow);
            }
        });
        let rg = self.rg(a.0);
        self.push(Op::MaskedSoftmaxRows { a: a.0, mask: mask.0 }, out, rg)
    }

    /// Horizontal concatenation; all parts must have the same row count.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: empty parts");
        let m = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| {
            let t = self.value(p);
            assert_eq!(t.rows(), m, "concat_cols: row mismatch");
            t.cols()
        }).sum();
        let mut out = Tensor::scratch_pooled(m, total);
        let mut offset = 0;
        for &p in parts {
            let t = &self.nodes[p.0].value;
            let w = t.cols();
            for r in 0..m {
                out.row_mut(r)[offset..offset + w].copy_from_slice(t.row(r));
            }
            offset += w;
        }
        let rg = parts.iter().any(|&p| self.rg(p.0));
        self.push(Op::ConcatCols { parts: parts.iter().map(|p| p.0).collect() }, out, rg)
    }

    /// Columns `[start, start+len)` of `a`.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let av = self.value(a);
        let (m, n) = av.shape();
        assert!(start + len <= n, "slice_cols: [{start},{}) out of {n}", start + len);
        let mut out = Tensor::scratch_pooled(m, len);
        for r in 0..m {
            out.row_mut(r).copy_from_slice(&av.row(r)[start..start + len]);
        }
        let rg = self.rg(a.0);
        self.push(Op::SliceCols { a: a.0, start, len }, out, rg)
    }

    /// Reinterpret the buffer as `rows x cols` (element count preserved).
    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let v = self.value(a).reshaped(rows, cols);
        let rg = self.rg(a.0);
        self.push(Op::Reshape { a: a.0 }, v, rg)
    }

    /// Repeat each row `times` consecutive times: `[m,n] -> [m*times, n]`.
    /// Pairs a per-sample query with every sequence position.
    pub fn repeat_rows(&mut self, a: Var, times: usize) -> Var {
        assert!(times > 0, "repeat_rows: times must be positive");
        let av = self.value(a);
        let (m, n) = av.shape();
        let mut out = Tensor::scratch_pooled(m * times, n);
        let threads = pool::threads_for(m * times, m * times * n);
        pool::par_row_blocks(out.data_mut(), n, threads, |i0, block| {
            for (ri, orow) in block.chunks_mut(n).enumerate() {
                orow.copy_from_slice(av.row((i0 + ri) / times));
            }
        });
        let rg = self.rg(a.0);
        self.push(Op::RepeatRows { a: a.0, times }, out, rg)
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements, `[1,1]`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::full_pooled(1, 1, self.value(a).sum() as f32);
        let rg = self.rg(a.0);
        self.push(Op::SumAll { a: a.0 }, v, rg)
    }

    /// Mean of all elements, `[1,1]`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Tensor::full_pooled(1, 1, self.value(a).mean() as f32);
        let rg = self.rg(a.0);
        self.push(Op::MeanAll { a: a.0 }, v, rg)
    }

    /// Row-wise dot product of equal-shape tensors: `[m,n],[m,n] -> [m,1]`.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a);
        let bv = self.value(b);
        assert_eq!(av.shape(), bv.shape(), "row_dot: shape mismatch");
        let (m, n) = av.shape();
        let mut v = Tensor::scratch_pooled(m, 1);
        let threads = pool::threads_for(m, m * n);
        pool::par_row_blocks(v.data_mut(), 1, threads, |i0, block| {
            for (ri, o) in block.iter_mut().enumerate() {
                *o = linalg::dot(av.row(i0 + ri), bv.row(i0 + ri));
            }
        });
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(Op::RowDot { a: a.0, b: b.0 }, v, rg)
    }

    // ---------------------------------------------------------- fused ops

    /// Weighted sum over sequence positions: `seq [m, t*d]` with weights
    /// `w [m, t]` gives `[m, d]`: `out[r] = Σ_t w[r,t] · seq[r, t·d .. t·d+d]`.
    pub fn seq_weighted_sum(&mut self, seq: Var, w: Var, t: usize, d: usize) -> Var {
        let sv = self.value(seq);
        let wv = self.value(w);
        let m = sv.rows();
        assert_eq!(sv.cols(), t * d, "seq_weighted_sum: seq cols {} != {t}*{d}", sv.cols());
        assert_eq!(wv.shape(), (m, t), "seq_weighted_sum: weights must be [{m},{t}]");
        let _span = basm_obs::span!("tensor.seq_weighted_sum", rows = m, t, d);
        // Accumulating op (masked positions are skipped): needs exact zeros.
        let mut out = Tensor::zeros_pooled(m, d);
        let threads = pool::threads_for(m, m * t * d);
        pool::par_row_blocks(out.data_mut(), d, threads, |i0, block| {
            for (ri, orow) in block.chunks_mut(d).enumerate() {
                let srow = sv.row(i0 + ri);
                let wrow = wv.row(i0 + ri);
                for (ti, &wt) in wrow.iter().enumerate() {
                    // Masked positions (w = 0) contribute nothing; skipping
                    // them is per-row, so the partition cannot change results.
                    if wt == 0.0 {
                        continue;
                    }
                    let sblock = &srow[ti * d..(ti + 1) * d];
                    simd::axpy(orow, sblock, wt);
                }
            }
        });
        let rg = self.rg(seq.0) || self.rg(w.0);
        self.push(Op::SeqWeightedSum { seq: seq.0, w: w.0, t, d }, out, rg)
    }

    /// Per-sample linear map (the dynamic layer of StSTL / APG / M2M):
    /// `w [m, out*inp]` holds a row-major `out x inp` matrix per sample,
    /// applied to `x [m, inp]` giving `[m, out]`.
    pub fn meta_linear(&mut self, w: Var, x: Var, out_dim: usize, in_dim: usize) -> Var {
        let wv = self.value(w);
        let xv = self.value(x);
        let m = xv.rows();
        assert_eq!(xv.cols(), in_dim, "meta_linear: x cols {} != {in_dim}", xv.cols());
        assert_eq!(
            wv.shape(),
            (m, out_dim * in_dim),
            "meta_linear: w must be [{m},{}]",
            out_dim * in_dim
        );
        let _span = basm_obs::span!("tensor.meta_linear", rows = m, out_dim, in_dim);
        let mut out = Tensor::scratch_pooled(m, out_dim);
        let threads = pool::threads_for(m, m * out_dim * in_dim);
        pool::par_row_blocks(out.data_mut(), out_dim, threads, |i0, block| {
            for (ri, orow) in block.chunks_mut(out_dim).enumerate() {
                let wrow = wv.row(i0 + ri);
                let xrow = xv.row(i0 + ri);
                for (o, oval) in orow.iter_mut().enumerate() {
                    *oval = linalg::dot(&wrow[o * in_dim..(o + 1) * in_dim], xrow);
                }
            }
        });
        let rg = self.rg(w.0) || self.rg(x.0);
        self.push(Op::MetaLinear { w: w.0, x: x.0, out_dim, in_dim }, out, rg)
    }

    /// Per-sample linear map with **in-major** weight layout (a flattened
    /// `[in, out]` matrix per sample): `y_o = Σ_i w[i*out + o] · x_i`.
    /// Used where the per-sample weight is built by broadcasting a shared
    /// `[in, out]` dense weight (e.g. STAR's `W_s ⊙ W_d`).
    pub fn meta_linear_in_major(
        &mut self,
        w: Var,
        x: Var,
        out_dim: usize,
        in_dim: usize,
    ) -> Var {
        let wv = self.value(w);
        let xv = self.value(x);
        let m = xv.rows();
        assert_eq!(xv.cols(), in_dim, "meta_linear_in_major: x cols {} != {in_dim}", xv.cols());
        assert_eq!(
            wv.shape(),
            (m, out_dim * in_dim),
            "meta_linear_in_major: w must be [{m},{}]",
            out_dim * in_dim
        );
        let _span = basm_obs::span!("tensor.meta_linear_in_major", rows = m, out_dim, in_dim);
        // Accumulating op (zero inputs are skipped): needs exact zeros.
        let mut out = Tensor::zeros_pooled(m, out_dim);
        let threads = pool::threads_for(m, m * out_dim * in_dim);
        pool::par_row_blocks(out.data_mut(), out_dim, threads, |i0, block| {
            for (ri, orow) in block.chunks_mut(out_dim).enumerate() {
                let wrow = wv.row(i0 + ri);
                let xrow = xv.row(i0 + ri);
                for (i, &xi) in xrow.iter().enumerate() {
                    // Per-row skip of zero inputs (sparse one-hot features);
                    // does not interact with the thread partition.
                    if xi == 0.0 {
                        continue;
                    }
                    let wblock = &wrow[i * out_dim..(i + 1) * out_dim];
                    simd::axpy(orow, wblock, xi);
                }
            }
        });
        let rg = self.rg(w.0) || self.rg(x.0);
        self.push(Op::MetaLinearInMajor { w: w.0, x: x.0, out_dim, in_dim }, out, rg)
    }

    /// DIN's local activation unit as one op: for sample `r` and position
    /// `i < t`, with `q = query[r]` and `k = seq[r, i·d .. i·d+d]`,
    /// `scores[r, i] = leaky([q; k; q-k; q⊙k] · w1 + b1) · w2 + b2`, for
    /// `query [m, d]`, `seq [m, t·d]`, `w1 [4d, h]`, `b1 [1, h]`, `w2 [h, 1]`,
    /// `b2 [1, 1]`.
    ///
    /// Bitwise equal, forward and backward, to the composite `repeat_rows`,
    /// `sub`, `mul`, `concat_cols`, `matmul`, `add_row`, `leaky_relu`,
    /// `matmul`, `add_row`, `reshape` (DESIGN.md §15). Samples go 32 at a
    /// time, so a block's features are still in cache when the GEMM reads
    /// them. A training tape keeps the features and hidden activations for
    /// the backward pass; an inference tape recycles them as soon as the
    /// scores are out.
    #[allow(clippy::too_many_arguments)]
    pub fn din_scores(
        &mut self,
        query: Var,
        seq: Var,
        w1: Var,
        b1: Var,
        w2: Var,
        b2: Var,
        t: usize,
        slope: f32,
    ) -> Var {
        let (qv, sv) = (self.value(query), self.value(seq));
        let (m, d) = qv.shape();
        let (fw, h) = (4 * d, self.value(w1).cols());
        assert!(t > 0, "din_scores: t must be positive");
        assert_eq!(sv.shape(), (m, t * d), "din_scores: seq must be [{m},{}]", t * d);
        assert_eq!(self.value(w1).shape(), (fw, h), "din_scores: w1 must be [{fw},{h}]");
        assert_eq!(self.value(b1).shape(), (1, h), "din_scores: b1 must be [1,{h}]");
        assert_eq!(self.value(w2).shape(), (h, 1), "din_scores: w2 must be [{h},1]");
        assert_eq!(self.value(b2).shape(), (1, 1), "din_scores: b2 must be [1,1]");
        let _span = basm_obs::span!("tensor.din_scores", rows = m, t, d, h);
        let (w1d, b1d) = (self.value(w1).data(), self.value(b1).data());
        let w2d = self.value(w2).data();
        let b2v = self.value(b2).item();
        let mut scores = Tensor::scratch_pooled(m, t);
        let mut feats = Tensor::scratch_pooled(m * t, fw);
        let mut acts = Tensor::scratch_pooled(m * t, h);
        let threads = pool::threads_for(m, m * t * fw * h);
        let outs = [scores.data_mut(), feats.data_mut(), acts.data_mut()];
        pool::par_row_blocks_n(outs, [t, t * fw, t * h], threads, |s0, [sc, f, a]| {
            for b0 in (0..sc.len() / t).step_by(DIN_BLOCK) {
                let nb = DIN_BLOCK.min(sc.len() / t - b0);
                let (r0, r1) = (b0 * t, (b0 + nb) * t);
                let (f, a) = (&mut f[r0 * fw..r1 * fw], &mut a[r0 * h..r1 * h]);
                for (ri, frow) in f.chunks_mut(fw).enumerate() {
                    let s = s0 + b0 + ri / t;
                    let (q, k) = (qv.row(s), &sv.row(s)[(ri % t) * d..(ri % t + 1) * d]);
                    let (fq, rest) = frow.split_at_mut(d);
                    let (fk, rest) = rest.split_at_mut(d);
                    let (fdiff, fprod) = rest.split_at_mut(d);
                    fq.copy_from_slice(q);
                    fk.copy_from_slice(k);
                    simd::binary(simd::BinOp::Sub, fdiff, q, k);
                    simd::binary(simd::BinOp::Mul, fprod, q, k);
                }
                linalg::gemm_rows(f, fw, 1, w1d, fw, h, 0, a);
                for arow in a.chunks_mut(h) {
                    for (x, &b) in arow.iter_mut().zip(b1d) {
                        let pre = *x + b;
                        *x = select(pre > 0.0, pre, slope * pre);
                    }
                }
                let sc = &mut sc[r0..r1];
                linalg::gemm_rows(a, h, 1, w2d, h, 1, 0, sc);
                sc.iter_mut().for_each(|s| *s += b2v);
            }
        });
        let rg = [query, seq, w1, b1, w2, b2].iter().any(|v| self.rg(v.0));
        let saved = if self.inference {
            feats.recycle();
            acts.recycle();
            None
        } else {
            Some(Saved::DinActs { feats, acts })
        };
        let op = Op::DinScores {
            query: query.0,
            seq: seq.0,
            w1: w1.0,
            b1: b1.0,
            w2: w2.0,
            b2: b2.0,
            t,
            slope,
        };
        self.push_saved(op, scores, rg, saved)
    }

    // --------------------------------------------------------- normalization

    /// Batch normalization core (no affine): per-column standardization with
    /// the batch's own statistics. Saves `(mean, var)` retrievable via
    /// [`Graph::bn_saved`] so layers can maintain running statistics.
    pub fn batch_norm_train(&mut self, x: Var, eps: f32) -> Var {
        let xv = self.value(x);
        let (m, n) = xv.shape();
        assert!(m > 0, "batch_norm_train: empty batch");
        let mut mean = bufpool::acquire_zeroed(n);
        let mut var = bufpool::acquire_zeroed(n);
        for r in 0..m {
            for (j, &v) in xv.row(r).iter().enumerate() {
                mean[j] += v;
            }
        }
        for mj in &mut mean {
            *mj /= m as f32;
        }
        for r in 0..m {
            for (j, &v) in xv.row(r).iter().enumerate() {
                let d = v - mean[j];
                var[j] += d * d;
            }
        }
        for vj in &mut var {
            *vj /= m as f32;
        }
        // The per-row standardization is independent across rows; the batch
        // statistics above stay serial because their accumulation order is
        // part of the deterministic contract.
        let mut out = Tensor::scratch_pooled(m, n);
        let threads = pool::threads_for(m, m * n);
        pool::par_row_blocks(out.data_mut(), n, threads, |i0, block| {
            for (ri, orow) in block.chunks_mut(n).enumerate() {
                let xrow = xv.row(i0 + ri);
                for j in 0..n {
                    orow[j] = (xrow[j] - mean[j]) / (var[j] + eps).sqrt();
                }
            }
        });
        let rg = self.rg(x.0);
        self.push_saved(
            Op::BatchNormTrain { x: x.0, eps },
            out,
            rg,
            Some(Saved::BnStats { mean, var }),
        )
    }

    /// Normalization with fixed statistics (inference mode): `mean`/`var` are
    /// `[1,n]` constant nodes (no gradient flows into them).
    pub fn normalize_eval(&mut self, x: Var, mean: Var, var: Var, eps: f32) -> Var {
        let xv = self.value(x);
        let (m, n) = xv.shape();
        assert_eq!(self.value(mean).shape(), (1, n), "normalize_eval: mean must be [1,{n}]");
        assert_eq!(self.value(var).shape(), (1, n), "normalize_eval: var must be [1,{n}]");
        let mu = self.value(mean).data();
        let va = self.value(var).data();
        let mut out = Tensor::scratch_pooled(m, n);
        let threads = pool::threads_for(m, m * n);
        pool::par_row_blocks(out.data_mut(), n, threads, |i0, block| {
            for (ri, orow) in block.chunks_mut(n).enumerate() {
                let xrow = xv.row(i0 + ri);
                for j in 0..n {
                    orow[j] = (xrow[j] - mu[j]) / (va[j] + eps).sqrt();
                }
            }
        });
        let rg = self.rg(x.0);
        self.push(Op::NormalizeEval { x: x.0, mean: mean.0, var: var.0, eps }, out, rg)
    }

    // ----------------------------------------------------------------- loss

    /// Numerically stable mean binary cross-entropy from logits (Eq. 19 of the
    /// paper, with the sigmoid of Eq. 18 fused in). `labels` carries no grad.
    pub fn bce_with_logits(&mut self, logits: Var, labels: Var) -> Var {
        let zv = self.value(logits);
        let yv = self.value(labels);
        assert_eq!(zv.shape(), yv.shape(), "bce_with_logits: shape mismatch");
        let count = zv.len().max(1) as f64;
        let mut total = 0.0f64;
        for (&z, &y) in zv.data().iter().zip(yv.data().iter()) {
            // max(z,0) - z*y + ln(1 + exp(-|z|))
            let term = z.max(0.0) - z * y + (-z.abs()).exp().ln_1p();
            total += term as f64;
        }
        let v = Tensor::full_pooled(1, 1, (total / count) as f32);
        let rg = self.rg(logits.0);
        self.push(Op::BceWithLogits { logits: logits.0, labels: labels.0 }, v, rg)
    }
}

impl Drop for Graph {
    /// Dropping a graph recycles its buffers into the pool, so even call
    /// sites that build a one-shot `Graph::new()` feed the steady-state
    /// reuse path.
    fn drop(&mut self) {
        self.reset();
    }
}

/// Samples per cache block of [`Graph::din_scores`]: a block's features
/// (`DIN_BLOCK·t` rows of `4d`) are written and then read by the GEMM while
/// still cache-resident — 320 KiB at `t = 20`, `d = 32`.
pub(crate) const DIN_BLOCK: usize = 32;

/// Graphs retained per thread by [`with_graph`]. Serving fans one request
/// out per worker thread and each worker needs at most one live graph, but
/// a couple of spares cover nested/evaluation use without unbounded growth.
const MAX_CACHED_GRAPHS: usize = 4;

thread_local! {
    static GRAPH_CACHE: RefCell<Vec<Graph>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a recycled [`Graph`]: the tape arrives empty but retains the
/// node storage, param-map and tensor-buffer capacity of previous steps, so
/// steady-state training/serving stops cold-allocating. The graph is cached
/// per thread, so concurrent workers never contend on a shared arena.
pub fn with_graph<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
    let mut g = GRAPH_CACHE
        .with(|c| c.borrow_mut().pop())
        .unwrap_or_default();
    let out = f(&mut g);
    g.reset();
    GRAPH_CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        if cache.len() < MAX_CACHED_GRAPHS {
            cache.push(g);
        }
    });
    out
}

/// `if pos { x } else { other }` as a bitwise select. LeakyReLU's sign test
/// on activations is a coin flip, so a branch there mispredicts every other
/// element; this form cannot become a branch.
#[inline(always)]
pub(crate) fn select(pos: bool, x: f32, other: f32) -> f32 {
    let m = (pos as u32).wrapping_neg();
    f32::from_bits((x.to_bits() & m) | (other.to_bits() & !m))
}

/// Numerically stable logistic function.
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

pub(crate) fn softmax_into(input: &[f32], out: &mut [f32]) {
    let max = input.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    // Lane-parallel subtract (exact per element); the exp+sum fold stays
    // serial because its accumulation order is part of the bitwise contract.
    simd::sub_scalar(out, input, max);
    let mut sum = 0.0f32;
    for o in out.iter_mut() {
        let e = o.exp();
        *o = e;
        sum += e;
    }
    if sum > 0.0 {
        // One divisor for the whole row — exact per element, lane-safe.
        simd::div_scalar_inplace(out, sum);
    }
}

pub(crate) fn masked_softmax_into(input: &[f32], mask: &[f32], out: &mut [f32]) {
    let mut max = f32::NEG_INFINITY;
    for (&x, &m) in input.iter().zip(mask.iter()) {
        if m != 0.0 && x > max {
            max = x;
        }
    }
    if max == f32::NEG_INFINITY {
        out.iter_mut().for_each(|o| *o = 0.0);
        return;
    }
    let mut sum = 0.0f32;
    for ((o, &x), &m) in out.iter_mut().zip(input.iter()).zip(mask.iter()) {
        if m != 0.0 {
            let e = (x - max).exp();
            *o = e;
            sum += e;
        } else {
            *o = 0.0;
        }
    }
    if sum > 0.0 {
        simd::div_scalar_inplace(out, sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matmul_add() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.input(Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).data(), &[19.0, 22.0, 43.0, 50.0]);
        let d = g.add(c, c);
        assert_eq!(g.value(d).get(0, 0), 38.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let s = g.softmax_rows(a);
        for r in 0..2 {
            let sum: f32 = g.value(s).row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn masked_softmax_zeroes_masked() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(1, 3, vec![1.0, 100.0, 2.0]));
        let m = g.input(Tensor::from_vec(1, 3, vec![1.0, 0.0, 1.0]));
        let s = g.masked_softmax_rows(a, m);
        assert_eq!(g.value(s).get(0, 1), 0.0);
        let sum: f32 = g.value(s).row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn masked_softmax_all_masked_is_zero() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let m = g.input(Tensor::zeros(1, 2));
        let s = g.masked_softmax_rows(a, m);
        assert_eq!(g.value(s).data(), &[0.0, 0.0]);
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.input(Tensor::from_vec(2, 1, vec![9.0, 8.0]));
        let c = g.concat_cols(&[a, b]);
        assert_eq!(g.value(c).shape(), (2, 3));
        assert_eq!(g.value(c).row(1), &[3.0, 4.0, 8.0]);
        let s = g.slice_cols(c, 2, 1);
        assert_eq!(g.value(s).data(), &[9.0, 8.0]);
    }

    #[test]
    fn repeat_rows_layout() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let r = g.repeat_rows(a, 3);
        assert_eq!(g.value(r).shape(), (6, 2));
        assert_eq!(g.value(r).row(0), &[1.0, 2.0]);
        assert_eq!(g.value(r).row(2), &[1.0, 2.0]);
        assert_eq!(g.value(r).row(3), &[3.0, 4.0]);
    }

    #[test]
    fn seq_weighted_sum_forward() {
        let mut g = Graph::new();
        // 1 sample, t=2, d=2: positions [1,2] and [3,4]; weights [0.5, 2.0]
        let seq = g.input(Tensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let w = g.input(Tensor::from_vec(1, 2, vec![0.5, 2.0]));
        let out = g.seq_weighted_sum(seq, w, 2, 2);
        assert_eq!(g.value(out).data(), &[6.5, 9.0]);
    }

    #[test]
    fn meta_linear_forward() {
        let mut g = Graph::new();
        // per-sample W = [[1,0],[0,2],[1,1]] (3x2), x = [3, 5] -> y = [3, 10, 8]
        let w = g.input(Tensor::from_vec(1, 6, vec![1.0, 0.0, 0.0, 2.0, 1.0, 1.0]));
        let x = g.input(Tensor::from_vec(1, 2, vec![3.0, 5.0]));
        let y = g.meta_linear(w, x, 3, 2);
        assert_eq!(g.value(y).data(), &[3.0, 10.0, 8.0]);
    }

    #[test]
    fn batch_norm_train_standardizes() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]));
        let y = g.batch_norm_train(x, 1e-5);
        let v = g.value(y);
        let mean: f32 = v.data().iter().sum::<f32>() / 4.0;
        let var: f32 = v.data().iter().map(|d| (d - mean) * (d - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
        let (m, s) = g.bn_saved(y).unwrap();
        assert!((m[0] - 2.5).abs() < 1e-6);
        assert!((s[0] - 1.25).abs() < 1e-5);
    }

    /// `memory_bytes` counts saved backward context: a training tape holds
    /// the fused attention op's features and activations (and BN's batch
    /// statistics) on top of the values an inference tape holds, so Table
    /// VI's activation column cannot shrink by hiding buffers in `Saved`.
    #[test]
    fn memory_bytes_counts_saved_buffers() {
        let (m, t, d, h) = (3, 5, 4, 8);
        let build = |inference: bool| {
            let mut g = Graph::new();
            g.set_inference(inference);
            let mut v = |r, c| {
                g.input(Tensor::from_fn(r, c, |i, j| ((i * 7 + j) % 5) as f32 - 2.0))
            };
            let (q, seq) = (v(m, d), v(m, t * d));
            let (w1, b1, w2, b2) = (v(4 * d, h), v(1, h), v(h, 1), v(1, 1));
            g.din_scores(q, seq, w1, b1, w2, b2, t, 0.01);
            g.memory_bytes()
        };
        let f32s = std::mem::size_of::<f32>();
        let saved = Tensor::scratch_pooled(m * t, 4 * d).capacity()
            + Tensor::scratch_pooled(m * t, h).capacity();
        assert_eq!(build(false), build(true) + saved * f32s);

        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn(m, t, |i, j| (i * t + j) as f32));
        let y = g.batch_norm_train(x, 1e-5);
        let (mean, var) = match &g.nodes[y.0].saved {
            Some(Saved::BnStats { mean, var }) => (mean.capacity(), var.capacity()),
            _ => unreachable!("batch_norm_train saves its statistics"),
        };
        let values = g.value(x).capacity() + g.value(y).capacity();
        assert_eq!(g.memory_bytes(), (values + mean + var) * f32s);
    }

    #[test]
    fn bce_known_value() {
        let mut g = Graph::new();
        let z = g.input(Tensor::from_vec(2, 1, vec![0.0, 0.0]));
        let y = g.input(Tensor::from_vec(2, 1, vec![1.0, 0.0]));
        let l = g.bce_with_logits(z, y);
        // -ln(0.5) for both.
        assert!((g.value(l).item() - std::f32::consts::LN_2).abs() < 1e-5);
    }

    #[test]
    fn stable_sigmoid_extremes() {
        assert!(stable_sigmoid(100.0) > 0.999_999);
        assert!(stable_sigmoid(-100.0) < 1e-6);
        assert!((stable_sigmoid(0.0) - 0.5).abs() < 1e-7);
    }
}
