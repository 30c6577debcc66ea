//! The reverse sweep: gradient rules for every op on the tape.
//!
//! Node ids are topologically ordered, so a single reverse pass over ids
//! visits every consumer before its producers. Each rule is exercised by a
//! finite-difference check in `tests/gradcheck.rs`.

use crate::bufpool;
use crate::graph::{select, stable_sigmoid, Graph, Op, Saved, Var, DIN_BLOCK};
use crate::linalg;
use crate::pool;
use crate::simd;
use crate::tensor::Tensor;

impl Graph {
    /// Run backpropagation from a scalar `loss` node, accumulating gradients
    /// into every upstream node with `requires_grad`.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be a scalar, got {:?}",
            self.value(loss).shape()
        );
        assert!(
            self.nodes[loss.0].requires_grad,
            "backward: loss does not depend on any gradient-requiring leaf"
        );
        let _span = basm_obs::span!("tensor.backward", nodes = self.nodes.len());
        self.accum_grad(loss.0, Tensor::full_pooled(1, 1, 1.0));

        for i in (0..=loss.0).rev() {
            let Some(gout) = self.nodes[i].grad.take() else { continue };
            if !self.nodes[i].requires_grad {
                self.nodes[i].grad = Some(gout);
                continue;
            }
            let op = self.nodes[i].op.clone();
            let contributions = self.local_grads(i, &op, &gout);
            for (j, g) in contributions {
                self.accum_grad(j, g);
            }
            self.nodes[i].grad = Some(gout);
        }
    }

    fn accum_grad(&mut self, id: usize, g: Tensor) {
        debug_assert_eq!(self.nodes[id].value.shape(), g.shape(), "grad shape mismatch");
        match &mut self.nodes[id].grad {
            Some(existing) => {
                existing.add_assign(&g);
                // The contribution was folded in; its buffer goes back to
                // the pool instead of the allocator.
                g.recycle();
            }
            slot @ None => *slot = Some(g),
        }
    }

    fn val(&self, id: usize) -> &Tensor {
        &self.nodes[id].value
    }

    fn needs(&self, id: usize) -> bool {
        self.nodes[id].requires_grad
    }

    /// Gradient contributions of node `i` (output grad `gout`, forward value
    /// `self.val(i)`) to each of its inputs.
    fn local_grads(&self, i: usize, op: &Op, gout: &Tensor) -> Vec<(usize, Tensor)> {
        let y = self.val(i);
        let mut out: Vec<(usize, Tensor)> = Vec::with_capacity(2);
        match *op {
            Op::Leaf => {}
            Op::Matmul { a, b } => {
                if self.needs(a) {
                    out.push((a, linalg::matmul_a_bt(gout, self.val(b))));
                }
                if self.needs(b) {
                    out.push((b, linalg::matmul_at_b(self.val(a), gout)));
                }
            }
            Op::Add { a, b } => {
                if self.needs(a) {
                    out.push((a, gout.clone_pooled()));
                }
                if self.needs(b) {
                    out.push((b, gout.clone_pooled()));
                }
            }
            Op::Sub { a, b } => {
                if self.needs(a) {
                    out.push((a, gout.clone_pooled()));
                }
                if self.needs(b) {
                    out.push((b, gout.par_map(|g| -g)));
                }
            }
            Op::Mul { a, b } => {
                if self.needs(a) {
                    out.push((a, gout.par_binary(self.val(b), simd::BinOp::Mul)));
                }
                if self.needs(b) {
                    out.push((b, gout.par_binary(self.val(a), simd::BinOp::Mul)));
                }
            }
            Op::AddRow { a, b } => {
                if self.needs(a) {
                    out.push((a, gout.clone_pooled()));
                }
                if self.needs(b) {
                    out.push((b, col_sums(gout)));
                }
            }
            Op::MulRow { a, b } => {
                let (m, n) = gout.shape();
                if self.needs(a) {
                    let bv = self.val(b);
                    let mut g = Tensor::scratch_pooled(m, n);
                    let threads = pool::threads_for(m, m * n);
                    pool::par_row_blocks(g.data_mut(), n, threads, |i0, block| {
                        let brow = bv.row(0);
                        for (ri, orow) in block.chunks_mut(n).enumerate() {
                            simd::binary(simd::BinOp::Mul, orow, gout.row(i0 + ri), brow);
                        }
                    });
                    out.push((a, g));
                }
                if self.needs(b) {
                    // Cross-row reduction into [1,n]: stays serial so the
                    // accumulation order is fixed.
                    let av = self.val(a);
                    let mut g = Tensor::zeros_pooled(1, n);
                    for r in 0..m {
                        let grow = gout.row(r);
                        let arow = av.row(r);
                        let orow = g.row_mut(0);
                        for j in 0..n {
                            orow[j] += grow[j] * arow[j];
                        }
                    }
                    out.push((b, g));
                }
            }
            Op::AddCol { a, b } => {
                if self.needs(a) {
                    out.push((a, gout.clone_pooled()));
                }
                if self.needs(b) {
                    let g = Tensor::from_fn(gout.rows(), 1, |r, _| gout.row(r).iter().sum());
                    out.push((b, g));
                }
            }
            Op::MulCol { a, b } => {
                let (m, n) = gout.shape();
                if self.needs(a) {
                    let bv = self.val(b);
                    let mut g = Tensor::scratch_pooled(m, n);
                    let threads = pool::threads_for(m, m * n);
                    pool::par_row_blocks(g.data_mut(), n, threads, |i0, block| {
                        for (ri, orow) in block.chunks_mut(n).enumerate() {
                            simd::scale(orow, gout.row(i0 + ri), bv.get(i0 + ri, 0));
                        }
                    });
                    out.push((a, g));
                }
                if self.needs(b) {
                    let av = self.val(a);
                    let mut g = Tensor::scratch_pooled(m, 1);
                    let threads = pool::threads_for(m, m * n);
                    pool::par_row_blocks(g.data_mut(), 1, threads, |i0, block| {
                        for (ri, o) in block.iter_mut().enumerate() {
                            *o = linalg::dot(gout.row(i0 + ri), av.row(i0 + ri));
                        }
                    });
                    out.push((b, g));
                }
            }
            Op::Scale { a, c } => {
                if self.needs(a) {
                    out.push((a, gout.par_scale(c)));
                }
            }
            Op::AddScalar { a, .. } => {
                if self.needs(a) {
                    out.push((a, gout.clone_pooled()));
                }
            }
            Op::Sigmoid { a } => {
                if self.needs(a) {
                    out.push((a, gout.par_zip_map(y, |g, yv| g * yv * (1.0 - yv))));
                }
            }
            Op::Tanh { a } => {
                if self.needs(a) {
                    out.push((a, gout.par_zip_map(y, |g, yv| g * (1.0 - yv * yv))));
                }
            }
            Op::Relu { a } => {
                if self.needs(a) {
                    out.push((a, gout.par_zip_map(y, |g, yv| if yv > 0.0 { g } else { 0.0 })));
                }
            }
            Op::LeakyRelu { a, slope } => {
                if self.needs(a) {
                    out.push((
                        a,
                        gout.par_zip_map(y, |g, yv| select(yv > 0.0, g, g * slope)),
                    ));
                }
            }
            Op::Exp { a } => {
                if self.needs(a) {
                    out.push((a, gout.par_zip_map(y, |g, yv| g * yv)));
                }
            }
            Op::Ln { a } => {
                if self.needs(a) {
                    out.push((a, gout.par_zip_map(self.val(a), |g, xv| g / xv)));
                }
            }
            Op::Sqrt { a } => {
                if self.needs(a) {
                    out.push((a, gout.par_zip_map(y, |g, yv| g / (2.0 * yv))));
                }
            }
            Op::Square { a } => {
                if self.needs(a) {
                    out.push((a, gout.par_zip_map(self.val(a), |g, xv| 2.0 * g * xv)));
                }
            }
            Op::SoftmaxRows { a } | Op::MaskedSoftmaxRows { a, .. } => {
                // dx_j = y_j * (g_j - Σ_k g_k y_k); masked positions have y=0.
                if self.needs(a) {
                    let (m, n) = y.shape();
                    let mut g = Tensor::scratch_pooled(m, n);
                    let threads = pool::threads_for(m, m * n);
                    pool::par_row_blocks(g.data_mut(), n, threads, |i0, block| {
                        for (ri, orow) in block.chunks_mut(n).enumerate() {
                            let yrow = y.row(i0 + ri);
                            let grow = gout.row(i0 + ri);
                            let inner = linalg::dot(grow, yrow);
                            for j in 0..n {
                                orow[j] = yrow[j] * (grow[j] - inner);
                            }
                        }
                    });
                    out.push((a, g));
                }
            }
            Op::ConcatCols { ref parts } => {
                let mut offset = 0;
                for &p in parts {
                    let w = self.val(p).cols();
                    if self.needs(p) {
                        let m = gout.rows();
                        let mut g = Tensor::scratch_pooled(m, w);
                        for r in 0..m {
                            g.row_mut(r).copy_from_slice(&gout.row(r)[offset..offset + w]);
                        }
                        out.push((p, g));
                    }
                    offset += w;
                }
            }
            Op::SliceCols { a, start, len } => {
                if self.needs(a) {
                    let (m, n) = self.val(a).shape();
                    // Only the slice is written; the rest must be exact zero.
                    let mut g = Tensor::zeros_pooled(m, n);
                    for r in 0..m {
                        g.row_mut(r)[start..start + len].copy_from_slice(gout.row(r));
                    }
                    out.push((a, g));
                }
            }
            Op::SumAll { a } => {
                if self.needs(a) {
                    let (m, n) = self.val(a).shape();
                    out.push((a, Tensor::full_pooled(m, n, gout.item())));
                }
            }
            Op::MeanAll { a } => {
                if self.needs(a) {
                    let (m, n) = self.val(a).shape();
                    let scale = gout.item() / (m * n) as f32;
                    out.push((a, Tensor::full_pooled(m, n, scale)));
                }
            }
            Op::RowDot { a, b } => {
                if self.needs(a) {
                    let bv = self.val(b);
                    let g = Tensor::from_fn(bv.rows(), bv.cols(), |r, c| {
                        gout.get(r, 0) * bv.get(r, c)
                    });
                    out.push((a, g));
                }
                if self.needs(b) {
                    let av = self.val(a);
                    let g = Tensor::from_fn(av.rows(), av.cols(), |r, c| {
                        gout.get(r, 0) * av.get(r, c)
                    });
                    out.push((b, g));
                }
            }
            Op::Reshape { a } => {
                if self.needs(a) {
                    let (m, n) = self.val(a).shape();
                    out.push((a, gout.reshaped(m, n)));
                }
            }
            Op::RepeatRows { a, times } => {
                if self.needs(a) {
                    let (m, n) = self.val(a).shape();
                    // Accumulates over the repeats: needs exact zeros.
                    let mut g = Tensor::zeros_pooled(m, n);
                    let threads = pool::threads_for(m, m * times * n);
                    pool::par_row_blocks(g.data_mut(), n, threads, |i0, block| {
                        for (ri, orow) in block.chunks_mut(n).enumerate() {
                            let r = i0 + ri;
                            for k in 0..times {
                                simd::acc(orow, gout.row(r * times + k));
                            }
                        }
                    });
                    out.push((a, g));
                }
            }
            Op::SeqWeightedSum { seq, w, t, d } => {
                let m = gout.rows();
                if self.needs(seq) {
                    let wv = self.val(w);
                    let mut g = Tensor::zeros_pooled(m, t * d);
                    let threads = pool::threads_for(m, m * t * d);
                    pool::par_row_blocks(g.data_mut(), t * d, threads, |i0, block| {
                        for (ri, orow) in block.chunks_mut(t * d).enumerate() {
                            let grow = gout.row(i0 + ri);
                            let wrow = wv.row(i0 + ri);
                            for (ti, &wt) in wrow.iter().enumerate() {
                                if wt == 0.0 {
                                    continue;
                                }
                                let oblk = &mut orow[ti * d..(ti + 1) * d];
                                simd::axpy(oblk, grow, wt);
                            }
                        }
                    });
                    out.push((seq, g));
                }
                if self.needs(w) {
                    let sv = self.val(seq);
                    let mut g = Tensor::scratch_pooled(m, t);
                    let threads = pool::threads_for(m, m * t * d);
                    pool::par_row_blocks(g.data_mut(), t, threads, |i0, block| {
                        for (ri, orow) in block.chunks_mut(t).enumerate() {
                            let grow = gout.row(i0 + ri);
                            let srow = sv.row(i0 + ri);
                            for (ti, o) in orow.iter_mut().enumerate() {
                                *o = linalg::dot(&srow[ti * d..(ti + 1) * d], grow);
                            }
                        }
                    });
                    out.push((w, g));
                }
            }
            Op::MetaLinear { w, x, out_dim, in_dim } => {
                let m = gout.rows();
                if self.needs(w) {
                    let xv = self.val(x);
                    let mut g = Tensor::zeros_pooled(m, out_dim * in_dim);
                    let threads = pool::threads_for(m, m * out_dim * in_dim);
                    pool::par_row_blocks(g.data_mut(), out_dim * in_dim, threads, |i0, block| {
                        for (ri, orow) in block.chunks_mut(out_dim * in_dim).enumerate() {
                            let grow = gout.row(i0 + ri);
                            let xrow = xv.row(i0 + ri);
                            for (o, &gv) in grow.iter().enumerate() {
                                if gv == 0.0 {
                                    continue;
                                }
                                let oblk = &mut orow[o * in_dim..(o + 1) * in_dim];
                                simd::axpy(oblk, xrow, gv);
                            }
                        }
                    });
                    out.push((w, g));
                }
                if self.needs(x) {
                    let wv = self.val(w);
                    let mut g = Tensor::zeros_pooled(m, in_dim);
                    let threads = pool::threads_for(m, m * out_dim * in_dim);
                    pool::par_row_blocks(g.data_mut(), in_dim, threads, |i0, block| {
                        for (ri, orow) in block.chunks_mut(in_dim).enumerate() {
                            let grow = gout.row(i0 + ri);
                            let wrow = wv.row(i0 + ri);
                            for (o, &gv) in grow.iter().enumerate() {
                                if gv == 0.0 {
                                    continue;
                                }
                                let wblock = &wrow[o * in_dim..(o + 1) * in_dim];
                                simd::axpy(orow, wblock, gv);
                            }
                        }
                    });
                    out.push((x, g));
                }
            }
            Op::MetaLinearInMajor { w, x, out_dim, in_dim } => {
                let m = gout.rows();
                if self.needs(w) {
                    let xv = self.val(x);
                    let mut g = Tensor::zeros_pooled(m, out_dim * in_dim);
                    let threads = pool::threads_for(m, m * out_dim * in_dim);
                    pool::par_row_blocks(g.data_mut(), out_dim * in_dim, threads, |i0, block| {
                        for (ri, orow) in block.chunks_mut(out_dim * in_dim).enumerate() {
                            let grow = gout.row(i0 + ri);
                            let xrow = xv.row(i0 + ri);
                            for (i, &xi) in xrow.iter().enumerate() {
                                if xi == 0.0 {
                                    continue;
                                }
                                let oblk = &mut orow[i * out_dim..(i + 1) * out_dim];
                                simd::axpy(oblk, grow, xi);
                            }
                        }
                    });
                    out.push((w, g));
                }
                if self.needs(x) {
                    let wv = self.val(w);
                    let mut g = Tensor::scratch_pooled(m, in_dim);
                    let threads = pool::threads_for(m, m * out_dim * in_dim);
                    pool::par_row_blocks(g.data_mut(), in_dim, threads, |i0, block| {
                        for (ri, orow) in block.chunks_mut(in_dim).enumerate() {
                            let grow = gout.row(i0 + ri);
                            let wrow = wv.row(i0 + ri);
                            for (i, oi) in orow.iter_mut().enumerate() {
                                *oi = linalg::dot(&wrow[i * out_dim..(i + 1) * out_dim], grow);
                            }
                        }
                    });
                    out.push((x, g));
                }
            }
            Op::DinScores { query, seq, w1, b1, w2, b2, t, slope } => {
                let Some(Saved::DinActs { feats, acts }) = &self.nodes[i].saved else {
                    unreachable!("DinScores node missing saved activations (inference tape?)");
                };
                let ids = [query, seq, w1, b1, w2, b2];
                self.din_scores_grads(feats, acts, gout, ids, t, slope, &mut out);
            }
            Op::BatchNormTrain { x, eps } => {
                if self.needs(x) {
                    let Some(Saved::BnStats { var, .. }) = &self.nodes[i].saved else {
                        unreachable!("BatchNormTrain node missing saved stats");
                    };
                    let (m, n) = y.shape();
                    let mf = m as f32;
                    // Per column: dx = s * (g - mean(g) - y * mean(g ⊙ y))
                    let mut mean_g = vec![0.0f32; n];
                    let mut mean_gy = vec![0.0f32; n];
                    for r in 0..m {
                        let grow = gout.row(r);
                        let yrow = y.row(r);
                        for j in 0..n {
                            mean_g[j] += grow[j];
                            mean_gy[j] += grow[j] * yrow[j];
                        }
                    }
                    for j in 0..n {
                        mean_g[j] /= mf;
                        mean_gy[j] /= mf;
                    }
                    // The column-mean reductions above stay serial (fixed
                    // accumulation order); the per-row combine is independent
                    // across rows and may fan out.
                    let mut g = Tensor::scratch_pooled(m, n);
                    let threads = pool::threads_for(m, m * n);
                    pool::par_row_blocks(g.data_mut(), n, threads, |i0, block| {
                        for (ri, orow) in block.chunks_mut(n).enumerate() {
                            let grow = gout.row(i0 + ri);
                            let yrow = y.row(i0 + ri);
                            for j in 0..n {
                                let s = 1.0 / (var[j] + eps).sqrt();
                                orow[j] = s * (grow[j] - mean_g[j] - yrow[j] * mean_gy[j]);
                            }
                        }
                    });
                    out.push((x, g));
                }
            }
            Op::NormalizeEval { x, var, eps, .. } => {
                if self.needs(x) {
                    let vv = self.val(var);
                    let (m, n) = gout.shape();
                    let mut g = Tensor::scratch_pooled(m, n);
                    let threads = pool::threads_for(m, m * n);
                    pool::par_row_blocks(g.data_mut(), n, threads, |i0, block| {
                        for (ri, orow) in block.chunks_mut(n).enumerate() {
                            let grow = gout.row(i0 + ri);
                            for j in 0..n {
                                orow[j] = grow[j] / (vv.get(0, j) + eps).sqrt();
                            }
                        }
                    });
                    out.push((x, g));
                }
            }
            Op::BceWithLogits { logits, labels } => {
                if self.needs(logits) {
                    let zv = self.val(logits);
                    let yv = self.val(labels);
                    let inv = gout.item() / zv.len().max(1) as f32;
                    let g = zv.par_zip_map(yv, |z, lab| inv * (stable_sigmoid(z) - lab));
                    out.push((logits, g));
                }
            }
        }
        out
    }

    /// Backward of [`Graph::din_scores`]. Every element replays the float-op
    /// sequence the composite's reverse sweep produces through `accum_grad`
    /// (DESIGN.md §15): GEMM and repeat-rows sums start at `+0.0`, and the
    /// `q`/`k` contributions add up in the sweep's order. `dF = dpre · w1ᵀ`
    /// is formed one `DIN_BLOCK` of samples at a time and folded straight
    /// into `dq`/`dk`, never materialized whole.
    #[allow(clippy::too_many_arguments)]
    fn din_scores_grads(
        &self,
        feats: &Tensor,
        acts: &Tensor,
        gout: &Tensor,
        [query, seq, w1, b1, w2, b2]: [usize; 6],
        t: usize,
        slope: f32,
        out: &mut Vec<(usize, Tensor)>,
    ) {
        let (qv, sv) = (self.val(query), self.val(seq));
        let (m, d) = qv.shape();
        let (rows, fw, h) = (m * t, 4 * d, acts.cols());
        let _span = basm_obs::span!("tensor.din_scores.backward", rows = m, t, d, h);
        let gs = gout.data();
        let w2d = self.val(w2).data();
        // dpre = leaky'(A) ⊙ (0 + dS·w2): the score GEMM's input gradient
        // (k = 1) through the LeakyReLU rule.
        let mut dpre = Tensor::scratch_pooled(rows, h);
        let threads = pool::threads_for(rows, rows * h);
        pool::par_row_blocks(dpre.data_mut(), h, threads, |i0, block| {
            for (ri, orow) in block.chunks_mut(h).enumerate() {
                let (g, arow) = (gs[i0 + ri], acts.row(i0 + ri));
                for ((o, &a), &w) in orow.iter_mut().zip(arow).zip(w2d) {
                    let da = 0.0 + g * w;
                    *o = select(a > 0.0, da, da * slope);
                }
            }
        });
        // dW2, db2, db1: serial sums in row order, each from +0.0.
        if self.needs(w2) {
            let mut g = Tensor::zeros_pooled(h, 1);
            for (r, &gr) in gs.iter().enumerate() {
                simd::axpy(g.data_mut(), acts.row(r), gr);
            }
            out.push((w2, g));
        }
        if self.needs(b2) {
            let mut g = Tensor::zeros_pooled(1, 1);
            for &gr in gs {
                g.data_mut()[0] += gr;
            }
            out.push((b2, g));
        }
        if self.needs(b1) {
            out.push((b1, col_sums(&dpre)));
        }
        if self.needs(w1) {
            out.push((w1, linalg::matmul_at_b(feats, &dpre)));
        }
        if self.needs(query) || self.needs(seq) {
            // dq = Σ_i ((g0 + g3⊙k) + g2) and dk = (g1 + g3⊙q) + (-g2), with
            // dF = [g0 g1 g2 g3] the gradient of the [q; k; q-k; q⊙k] row.
            let w1t = linalg::transpose_scratch(self.val(w1));
            let mut dq = Tensor::zeros_pooled(m, d);
            let mut dk = Tensor::scratch_pooled(m, t * d);
            let threads = pool::threads_for(m, rows * fw * h);
            let outs = [dq.data_mut(), dk.data_mut()];
            pool::par_row_blocks_n(outs, [d, t * d], threads, |s0, [dqb, dkb]| {
                let ns = dqb.len() / d;
                let mut df = bufpool::acquire_scratch(DIN_BLOCK.min(ns) * t * fw);
                for b0 in (0..ns).step_by(DIN_BLOCK) {
                    let nb = DIN_BLOCK.min(ns - b0);
                    let (r0, r1) = ((s0 + b0) * t, (s0 + b0 + nb) * t);
                    let df = &mut df[..(r1 - r0) * fw];
                    linalg::gemm_rows(&dpre.data()[r0 * h..r1 * h], h, 1, &w1t, h, fw, 0, df);
                    for (ri, grow) in df.chunks(fw).enumerate() {
                        let (sl, i) = (b0 + ri / t, ri % t);
                        let (q, k) = (qv.row(s0 + sl), &sv.row(s0 + sl)[i * d..(i + 1) * d]);
                        let dq = &mut dqb[sl * d..(sl + 1) * d];
                        let dk = &mut dkb[(sl * t + i) * d..(sl * t + i + 1) * d];
                        let (g0, rest) = grow.split_at(d);
                        let (g1, rest) = rest.split_at(d);
                        let (g2, g3) = rest.split_at(d);
                        for e in 0..d {
                            dq[e] += (g0[e] + g3[e] * k[e]) + g2[e];
                            dk[e] = (g1[e] + g3[e] * q[e]) + (-g2[e]);
                        }
                    }
                }
                bufpool::release(df);
            });
            // The composite's repeat-rows node (query) sits after its
            // reshape node (seq) on the tape, so query's gradient lands first.
            for (v, g) in [(query, dq), (seq, dk)] {
                if self.needs(v) {
                    out.push((v, g));
                } else {
                    g.recycle();
                }
            }
        }
        dpre.recycle();
    }
}

fn col_sums(t: &Tensor) -> Tensor {
    let (m, n) = t.shape();
    let mut out = Tensor::zeros_pooled(1, n);
    // Row order stays serial (fixed accumulation order per column); lanes
    // split across columns, which are independent accumulators.
    for r in 0..m {
        simd::acc(out.row_mut(0), t.row(r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_through_chain() {
        // loss = mean((a*b + a)^2); check via hand computation on scalars.
        let mut g = Graph::new();
        let a = g.input_with_grad(Tensor::scalar(2.0));
        let b = g.input_with_grad(Tensor::scalar(3.0));
        let ab = g.mul(a, b);
        let s = g.add(ab, a); // 8
        let sq = g.square(s); // 64
        let loss = g.mean_all(sq);
        g.backward(loss);
        // d/da = 2*s*(b+1) = 2*8*4 = 64 ; d/db = 2*s*a = 32
        assert!((g.grad(a).unwrap().item() - 64.0).abs() < 1e-4);
        assert!((g.grad(b).unwrap().item() - 32.0).abs() < 1e-4);
    }

    #[test]
    fn grads_accumulate_across_consumers() {
        let mut g = Graph::new();
        let a = g.input_with_grad(Tensor::scalar(3.0));
        let x = g.add(a, a); // 2a
        let y = g.mul(a, x); // 2a^2
        let loss = g.sum_all(y);
        g.backward(loss);
        // d(2a^2)/da = 4a = 12
        assert!((g.grad(a).unwrap().item() - 12.0).abs() < 1e-4);
    }

    #[test]
    fn no_grad_leaf_untouched() {
        let mut g = Graph::new();
        let a = g.input(Tensor::scalar(1.0));
        let b = g.input_with_grad(Tensor::scalar(2.0));
        let c = g.mul(a, b);
        let loss = g.sum_all(c);
        g.backward(loss);
        assert!(g.grad(a).is_none());
        assert!(g.grad(b).is_some());
    }

    #[test]
    #[should_panic(expected = "loss must be a scalar")]
    fn non_scalar_loss_panics() {
        let mut g = Graph::new();
        let a = g.input_with_grad(Tensor::zeros(2, 2));
        let b = g.relu(a);
        g.backward(b);
    }

    /// Every hot-path allocation goes through the buffer pool: after
    /// backward, each node value and gradient carries a pool-bucket
    /// (power-of-two) capacity — reshape copies, the pass-through gradients
    /// of the add-family rules, parameter copies, embedding gathers and the
    /// fused attention op included.
    #[test]
    fn hot_path_buffers_come_from_the_pool() {
        use crate::nn::EmbeddingTable;
        use crate::params::ParamStore;
        use crate::rng::Prng;
        let mut rng = Prng::seeded(9);
        let mut store = ParamStore::new();
        let w = store.add("w", rng.randn(3, 3, 1.0));
        let w1 = store.add("w1", rng.randn(12, 5, 1.0));
        let b1 = store.add("b1", rng.randn(1, 5, 1.0));
        let w2 = store.add("w2", rng.randn(5, 1, 1.0));
        let b2 = store.add("b2", rng.randn(1, 1, 1.0));
        let table = EmbeddingTable::new(&mut rng, "emb", 10, 3, 1.0);

        let mut g = Graph::new();
        let x = g.input_with_grad(table.gather(&[1, 2, 3, 4]));
        let wv = g.param(&store, w);
        let h = g.matmul(x, wv);
        let a = g.add(h, x);
        let s = g.sub(a, x);
        let row = g.input_with_grad(rng.randn(1, 3, 1.0));
        let col = g.input_with_grad(rng.randn(4, 1, 1.0));
        let r = g.add_row(s, row);
        let c = g.add_col(r, col);
        let k = g.add_scalar(c, 0.5);
        let seq = g.reshape(k, 1, 12);
        let q = g.slice_cols(seq, 0, 3);
        let p: Vec<Var> = [w1, b1, w2, b2].iter().map(|&id| g.param(&store, id)).collect();
        let scores = g.din_scores(q, seq, p[0], p[1], p[2], p[3], 4, 0.01);
        let loss = g.sum_all(scores);
        g.backward(loss);

        for (i, node) in g.nodes.iter().enumerate() {
            let grad = node.grad.as_ref().map(Tensor::capacity);
            for cap in std::iter::once(node.value.capacity()).chain(grad) {
                assert!(cap.is_power_of_two(), "node {i} ({:?}): capacity {cap}", node.op);
            }
        }
    }

    #[test]
    fn bce_gradient_sign() {
        let mut g = Graph::new();
        let z = g.input_with_grad(Tensor::from_vec(2, 1, vec![0.0, 0.0]));
        let y = g.input(Tensor::from_vec(2, 1, vec![1.0, 0.0]));
        let loss = g.bce_with_logits(z, y);
        g.backward(loss);
        let gz = g.grad(z).unwrap();
        assert!(gz.get(0, 0) < 0.0, "positive label pushes logit up");
        assert!(gz.get(1, 0) > 0.0, "negative label pushes logit down");
    }
}
