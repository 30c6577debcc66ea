//! Dense, row-major, rank-2 `f32` tensor.
//!
//! Everything in this reproduction is expressible as `[rows, cols]` matrices:
//! a batch of feature vectors is `[batch, features]`, a batch of behavior
//! sequences is `[batch, seq_len * dim]` (with explicit fused ops that know the
//! `(seq_len, dim)` split), a scalar loss is `[1, 1]`. Keeping the tensor rank
//! fixed at 2 keeps every backward rule auditable.

use crate::bufpool;
use crate::pool;
use crate::simd;
use std::fmt;

/// A dense row-major matrix of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    /// A `rows x cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![0.0; rows * cols], rows, cols }
    }

    /// A `rows x cols` zero tensor whose buffer comes from the recycling
    /// [`crate::bufpool`] when possible. Numerically identical to
    /// [`Tensor::zeros`]; pair with [`Tensor::recycle`] to keep the buffer
    /// circulating.
    pub fn zeros_pooled(rows: usize, cols: usize) -> Self {
        Self { data: bufpool::acquire_zeroed(rows * cols), rows, cols }
    }

    /// A `rows x cols` tensor with **unspecified contents** from the
    /// recycling pool. Callers must overwrite every element before reading
    /// any — this is the memset-free path for kernels that fully write their
    /// output (see `crate::bufpool` for the determinism contract).
    pub fn scratch_pooled(rows: usize, cols: usize) -> Self {
        Self { data: bufpool::acquire_scratch(rows * cols), rows, cols }
    }

    /// Consume the tensor, returning its buffer to the recycling pool (a
    /// no-op drop when pooling is disabled or the buffer is foreign).
    pub fn recycle(self) {
        bufpool::release(self.data);
    }

    /// Allocated capacity of the underlying buffer in elements (>= `len`;
    /// pooled buffers round up to a power-of-two bucket).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// A `rows x cols` tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// A `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { data: vec![value; rows * cols], rows, cols }
    }

    /// [`Tensor::full`] in a buffer from the recycling pool.
    pub fn full_pooled(rows: usize, cols: usize, value: f32) -> Self {
        let mut out = Self::scratch_pooled(rows, cols);
        out.data.fill(value);
        out
    }

    /// Build a tensor from an existing buffer. Panics if the buffer length
    /// does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Tensor::from_vec: buffer length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { data, rows, cols }
    }

    /// Build a tensor by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut out = Self::scratch_pooled(rows, cols);
        for r in 0..rows {
            for (c, o) in out.row_mut(r).iter_mut().enumerate() {
                *o = f(r, c);
            }
        }
        out
    }

    /// A `1 x 1` tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// A column vector `[n, 1]` from a slice.
    pub fn column(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// A row vector `[1, n]` from a slice.
    pub fn row_vec(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor and return its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The single value of a `1 x 1` tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "Tensor::item on non-scalar {:?}", self.shape());
        self.data[0]
    }

    /// Immutable slice of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// A new tensor with the same buffer reinterpreted as `rows x cols`.
    pub fn reshaped(&self, rows: usize, cols: usize) -> Tensor {
        assert_eq!(
            rows * cols,
            self.len(),
            "reshape {:?} -> ({rows},{cols}) changes element count",
            self.shape()
        );
        Tensor { rows, cols, ..self.clone_pooled() }
    }

    /// [`Clone::clone`] into a buffer from the recycling pool.
    pub fn clone_pooled(&self) -> Tensor {
        let mut out = Tensor::scratch_pooled(self.rows, self.cols);
        out.data.copy_from_slice(&self.data);
        out
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::scratch_pooled(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Apply `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = Tensor::scratch_pooled(self.rows, self.cols);
        for (o, &x) in out.data.iter_mut().zip(self.data.iter()) {
            *o = f(x);
        }
        out
    }

    /// Apply `f` elementwise against `other` (same shape), returning a new tensor.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        let mut out = Tensor::scratch_pooled(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(self.data.iter()).zip(other.data.iter()) {
            *o = f(a, b);
        }
        out
    }

    /// Like [`Tensor::map`], but element blocks fan out across the thread
    /// pool when the tensor is large enough (see [`crate::pool::threads_for`]).
    /// Every element is transformed independently by the same `f`, so the
    /// result is bitwise identical to `map` for any thread count.
    pub fn par_map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        self.par_slices(self, |out, x, _| {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = f(v);
            }
        })
    }

    /// Parallel sibling of [`Tensor::zip_map`]; same determinism contract as
    /// [`Tensor::par_map`].
    pub fn par_zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        self.par_slices(other, |out, x, y| {
            for ((o, &a), &b) in out.iter_mut().zip(x).zip(y) {
                *o = f(a, b);
            }
        })
    }

    /// The row-block driver of the parallel elementwise maps:
    /// `kernel(out, x, y)` fills each row block of a fresh pooled tensor from
    /// the matching blocks of `self` and `other` (pass `self` twice for a
    /// one-operand kernel), typically with one [`crate::simd`] slice kernel.
    pub(crate) fn par_slices(
        &self,
        other: &Tensor,
        kernel: impl Fn(&mut [f32], &[f32], &[f32]) + Sync,
    ) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "elementwise shape mismatch");
        let mut out = Tensor::scratch_pooled(self.rows, self.cols);
        let len = self.data.len();
        let threads = pool::threads_for(len, len);
        let a = &self.data;
        let b = &other.data;
        pool::par_row_blocks(&mut out.data, 1, threads, |i0, block| {
            let hi = i0 + block.len();
            kernel(block, &a[i0..hi], &b[i0..hi]);
        });
        out
    }

    /// `self += other` elementwise. Shapes must match.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        simd::acc(&mut self.data, &other.data);
    }

    /// `self += alpha * other` elementwise (axpy). Shapes must match.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        simd::axpy(&mut self.data, &other.data, alpha);
    }

    /// Multiply every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        simd::scale_inplace(&mut self.data, s);
    }

    /// Set every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements (f64 accumulator).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// Maximum absolute value (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Squared Frobenius norm.
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum()
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        let max_rows = 6;
        for (i, row) in self.rows_iter().enumerate().take(max_rows) {
            write!(f, "  [")?;
            for (j, v) in row.iter().enumerate().take(8) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if row.len() > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]{}", if i + 1 < self.rows { "," } else { "" })?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(1, 2), 5.0);
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_fn(3, 4, |r, c| (r * 10 + c) as f32);
        assert_eq!(t.transposed().transposed(), t);
        assert_eq!(t.transposed().get(2, 1), t.get(1, 2));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(2, 6, |r, c| (r * 6 + c) as f32);
        let u = t.reshaped(3, 4);
        assert_eq!(u.get(1, 1), 5.0);
        assert_eq!(t.data(), u.data());
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_bad_size_panics() {
        Tensor::zeros(2, 3).reshaped(2, 4);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::ones(2, 2);
        let b = Tensor::full(2, 2, 3.0);
        a.axpy(2.0, &b);
        assert_eq!(a.get(0, 0), 7.0);
        a.scale_inplace(0.5);
        assert_eq!(a.get(1, 1), 3.5);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert!((t.sum() - 10.0).abs() < 1e-9);
        assert!((t.mean() - 2.5).abs() < 1e-9);
        assert_eq!(t.max_abs(), 4.0);
        assert!((t.sq_norm() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn item_scalar() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    fn par_maps_match_serial() {
        let t = Tensor::from_fn(7, 5, |r, c| (r * 5 + c) as f32 - 10.0);
        let u = Tensor::from_fn(7, 5, |r, c| (c * 7 + r) as f32 * 0.5);
        assert_eq!(t.par_map(|x| x * 2.0 + 1.0), t.map(|x| x * 2.0 + 1.0));
        assert_eq!(t.par_zip_map(&u, |a, b| a * b - a), t.zip_map(&u, |a, b| a * b - a));
    }
}
