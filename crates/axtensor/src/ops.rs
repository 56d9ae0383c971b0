//! Reference operations: matrices, matmul, direct convolution, reductions.
//!
//! Everything here is the *golden model* the optimized backends (CPU GEMM,
//! simulated GPU) are validated against in tests.

use crate::pool::{run_spans, spans};
use crate::{ConvGeometry, FilterShape, Tensor, TensorError, WorkerPool};
use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Matrix<T> {
    /// A zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// The transposed matrix, built with a cache-blocked sweep so neither
    /// the source rows nor the destination columns thrash: both sides of
    /// each `32×32` block stay resident while it is copied.
    ///
    /// This is the panel-major conversion of the tiled LUT-GEMM path: a
    /// row-major patch matrix (`rows = patches`, `cols = taps`) becomes a
    /// tap-major panel matrix whose row `k` holds tap `k` of every patch
    /// contiguously — the layout a microkernel streams while it holds one
    /// look-up-table row fixed.
    #[must_use]
    pub fn transposed(&self) -> Matrix<T> {
        const B: usize = 32;
        let mut data = vec![T::default(); self.data.len()];
        for rb in (0..self.rows).step_by(B) {
            let r_end = (rb + B).min(self.rows);
            for cb in (0..self.cols).step_by(B) {
                let c_end = (cb + B).min(self.cols);
                for r in rb..r_end {
                    let src = &self.data[r * self.cols..(r + 1) * self.cols];
                    for c in cb..c_end {
                        data[c * self.rows + r] = src[c];
                    }
                }
            }
        }
        Matrix {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }
}

impl<T> Matrix<T> {
    /// Wrap a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                got: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major flat view.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable row-major flat view.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Consume into the row-major buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl<T: Copy> Matrix<T> {
    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    #[must_use]
    pub fn at(&self, r: usize, c: usize) -> T {
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut T {
        &mut self.data[r * self.cols + c]
    }
}

/// Reference f32 matrix product `a × b`.
///
/// # Errors
///
/// Returns [`TensorError::MatrixDims`] if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix<f32>, b: &Matrix<f32>) -> Result<Matrix<f32>, TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::MatrixDims {
            left_cols: a.cols(),
            right_rows: b.rows(),
        });
    }
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a.at(i, k);
            if av == 0.0 {
                continue;
            }
            let brow = b.row(k);
            let orow = &mut out.as_mut_slice()[i * brow.len()..(i + 1) * brow.len()];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    Ok(out)
}

/// A filter bank: HWCF-layout weights with their shape.
///
/// # Layout invariant
///
/// The flat buffer is HWCF-ordered: `c_out` (the filter index F) is the
/// **fastest-varying** dimension, then `c_in`, then kernel width, then
/// kernel height. Consequences downstream code relies on:
///
/// - flat index `i` belongs to output channel `i % c_out` (per-channel
///   range scans and the `Sf` column sums use this),
/// - the buffer reinterpreted as a row-major `patch_len() × c_out` matrix
///   ([`Filter::to_matrix`]) puts each filter in its own column with no
///   data movement.
///
/// [`Filter::from_vec`] enforces `data.len() == shape.len()` exactly, so
/// a buffer whose length is not a multiple of `c_out` can never be
/// wrapped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Filter {
    shape: FilterShape,
    data: Vec<f32>,
}

impl Filter {
    /// Wrap an HWCF-ordered weight buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] on a size mismatch.
    pub fn from_vec(shape: FilterShape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                got: data.len(),
            });
        }
        Ok(Filter { shape, data })
    }

    /// Build by evaluating `f(h, w, c_in, c_out)` at every tap.
    pub fn from_fn(
        shape: FilterShape,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for h in 0..shape.h {
            for w in 0..shape.w {
                for ci in 0..shape.c_in {
                    for co in 0..shape.c_out {
                        data.push(f(h, w, ci, co));
                    }
                }
            }
        }
        Filter { shape, data }
    }

    /// The filter bank's shape.
    #[must_use]
    pub fn shape(&self) -> FilterShape {
        self.shape
    }

    /// HWCF-ordered flat weights.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Weight at `(h, w, c_in, c_out)`.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is out of range.
    #[inline]
    #[must_use]
    pub fn at(&self, h: usize, w: usize, ci: usize, co: usize) -> f32 {
        self.data[self.shape.index(h, w, ci, co)]
    }

    /// View the bank as a `patch_len × c_out` matrix (each column one
    /// filter — "the filters matrix in which each column corresponds to a
    /// single filter").
    #[must_use]
    pub fn to_matrix(&self) -> Matrix<f32> {
        Matrix::from_vec(self.shape.patch_len(), self.shape.c_out, self.data.clone())
            .expect("HWCF layout is already (patch, c_out) row-major")
    }
}

/// Reference direct 2D convolution (nested loops over the definition).
///
/// # Errors
///
/// Propagates shape errors from [`ConvGeometry::output_shape`].
pub fn conv2d_direct(
    input: &Tensor<f32>,
    filter: &Filter,
    geom: ConvGeometry,
) -> Result<Tensor<f32>, TensorError> {
    let out_shape = geom.output_shape(input.shape(), filter.shape())?;
    let (pad_h, pad_w) = geom.pad_before(input.shape(), filter.shape());
    let fs = filter.shape();
    let shape = input.shape();
    let mut out = Tensor::<f32>::zeros(out_shape);
    for n in 0..out_shape.n {
        for oy in 0..out_shape.h {
            for ox in 0..out_shape.w {
                for co in 0..fs.c_out {
                    let mut acc = 0f32;
                    for ky in 0..fs.h {
                        let iy =
                            (oy * geom.stride.0 + ky * geom.dilation.0) as isize - pad_h as isize;
                        if iy < 0 || iy as usize >= shape.h {
                            continue;
                        }
                        for kx in 0..fs.w {
                            let ix = (ox * geom.stride.1 + kx * geom.dilation.1) as isize
                                - pad_w as isize;
                            if ix < 0 || ix as usize >= shape.w {
                                continue;
                            }
                            for ci in 0..fs.c_in {
                                acc += input.at(n, iy as usize, ix as usize, ci)
                                    * filter.at(ky, kx, ci, co);
                            }
                        }
                    }
                    *out.at_mut(n, oy, ox, co) = acc;
                }
            }
        }
    }
    Ok(out)
}

/// GEMM-formulated 2D convolution: im2col followed by a matrix product
/// (phase (i) + phase (ii) of the paper, in f32).
///
/// # Errors
///
/// Propagates shape errors.
pub fn conv2d_gemm(
    input: &Tensor<f32>,
    filter: &Filter,
    geom: ConvGeometry,
) -> Result<Tensor<f32>, TensorError> {
    let pm = crate::im2col(input, filter.shape(), geom)?;
    let prod = matmul(&pm.matrix, &filter.to_matrix())?;
    Tensor::from_vec(pm.out_shape, prod.into_vec())
}

/// Minimum and maximum over all elements — the paper's inserted `Min` /
/// `Max` graph nodes, computed "once per batch".
///
/// Returns `(0.0, 0.0)` for an empty tensor and `(NaN, NaN)` if any
/// element is NaN (a NaN range is undefined; propagating it lets the
/// quantization layer reject it instead of silently deriving garbage
/// coefficients — `f32::min`/`f32::max` alone would swallow the NaN).
#[must_use]
pub fn min_max(t: &Tensor<f32>) -> (f32, f32) {
    min_max_slice(t.as_slice())
}

/// Minimum and maximum over a plain slice, serially: the specification
/// [`min_of`] and [`max_of`] reproduce.
///
/// Returns `(0.0, 0.0)` for an empty slice and `(NaN, NaN)` if any
/// element is NaN (see [`min_max`]).
#[must_use]
pub fn min_max_slice(s: &[f32]) -> (f32, f32) {
    let Some((&first, rest)) = s.split_first() else {
        return (0.0, 0.0);
    };
    let mut lo = first;
    let mut hi = first;
    let mut saw_nan = first.is_nan();
    for &v in rest {
        saw_nan |= v.is_nan();
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if saw_nan {
        (f32::NAN, f32::NAN)
    } else {
        (lo, hi)
    }
}

/// Accumulators of the lane-parallel [`min_of`] / [`max_of`] folds.
const LANES: usize = 16;

/// The minimum of `s`: bit-identical to `min_max_slice(s).0`, one pass
/// that reads each value once, lane-parallel and split into spans on
/// `pool` (see [`crate::pool::spans`]).
///
/// Empty gives 0.0 and any NaN gives NaN. On a tie the serial fold keeps
/// the value it already holds, so when the minimum is ±0 the result is
/// the first zero in scan order: `[1.0, -0.0, 0.0]` gives −0.0.
#[must_use]
pub fn min_of(s: &[f32], pool: Option<&WorkerPool>) -> f32 {
    bound_of::<false>(s, pool)
}

/// The maximum of `s`, the counterpart of [`min_of`]: bit-identical to
/// `min_max_slice(s).1`.
#[must_use]
pub fn max_of(s: &[f32], pool: Option<&WorkerPool>) -> f32 {
    bound_of::<true>(s, pool)
}

/// Whether `v` replaces `acc` in a `MAX` (or min) fold: strictly beyond,
/// so a tie keeps the accumulator.
#[inline(always)]
fn beats<const MAX: bool>(v: f32, acc: f32) -> bool {
    if MAX {
        v > acc
    } else {
        v < acc
    }
}

/// Fold each span, then fold the span results in span order the same
/// way — exact, because each span already resolved a ±0 tie to its first
/// zero, and the first span holding a zero holds the first zero overall.
fn bound_of<const MAX: bool>(s: &[f32], pool: Option<&WorkerPool>) -> f32 {
    let jobs: Vec<_> = spans(pool, s.len(), 1)
        .into_iter()
        .map(|span| {
            let part = &s[span];
            move || lane_bound::<MAX>(part)
        })
        .collect();
    lane_bound::<MAX>(&run_spans(pool, jobs))
}

/// One span's extreme with [`LANES`] independent accumulators, so the
/// compare-and-select vectorizes. A NaN is tracked apart, and a zero
/// result is replaced by the span's first zero — the one the serial fold
/// would have kept.
fn lane_bound<const MAX: bool>(s: &[f32]) -> f32 {
    let Some(&first) = s.first() else {
        return 0.0;
    };
    let mut acc = [first; LANES];
    let mut nan = [false; LANES];
    let chunks = s.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for ((a, n), &v) in acc.iter_mut().zip(&mut nan).zip(chunk) {
            *n |= v.is_nan();
            if beats::<MAX>(v, *a) {
                *a = v;
            }
        }
    }
    let mut saw_nan = nan.contains(&true);
    let mut best = first;
    for &v in acc.iter().chain(tail) {
        saw_nan |= v.is_nan();
        if beats::<MAX>(v, best) {
            best = v;
        }
    }
    if saw_nan {
        f32::NAN
    } else if best == 0.0 {
        *s.iter()
            .find(|&&v| v == 0.0)
            .expect("the extreme is an element")
    } else {
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use crate::{Padding, Shape4};

    #[test]
    fn transposed_swaps_indices() {
        let m = Matrix::from_vec(2, 3, vec![1u8, 2, 3, 4, 5, 6]).unwrap();
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(t.at(c, r), m.at(r, c));
            }
        }
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn transposed_covers_partial_blocks() {
        // Dimensions straddling the 32-wide blocking so edge blocks run.
        let m = Matrix::from_vec(33, 65, (0..33 * 65).map(|i| i as u32).collect()).unwrap();
        let t = m.transposed();
        for r in [0, 31, 32] {
            for c in [0, 31, 32, 63, 64] {
                assert_eq!(t.at(c, r), m.at(r, c), "({r}, {c})");
            }
        }
    }

    #[test]
    fn transposed_empty_matrix() {
        let m = Matrix::<f32>::zeros(0, 5);
        let t = m.transposed();
        assert_eq!((t.rows(), t.cols()), (5, 0));
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let id = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(matmul(&a, &id).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_dim_mismatch() {
        let a = Matrix::<f32>::zeros(2, 3);
        let b = Matrix::<f32>::zeros(2, 2);
        assert!(matches!(
            matmul(&a, &b).unwrap_err(),
            TensorError::MatrixDims {
                left_cols: 3,
                right_rows: 2
            }
        ));
    }

    #[test]
    fn direct_conv_identity_kernel() {
        let input = Tensor::from_fn(Shape4::new(1, 3, 3, 1), |_, h, w, _| (h * 3 + w) as f32);
        let filter = Filter::from_fn(FilterShape::new(1, 1, 1, 1), |_, _, _, _| 1.0);
        let out = conv2d_direct(&input, &filter, ConvGeometry::default()).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn direct_conv_box_filter_valid() {
        let input = Tensor::<f32>::full(Shape4::new(1, 3, 3, 1), 1.0);
        let filter = Filter::from_fn(FilterShape::new(3, 3, 1, 1), |_, _, _, _| 1.0);
        let out = conv2d_direct(
            &input,
            &filter,
            ConvGeometry::default().with_padding(Padding::Valid),
        )
        .unwrap();
        assert_eq!(out.as_slice(), &[9.0]);
    }

    #[test]
    fn gemm_conv_matches_direct_conv() {
        let input = rng::uniform(Shape4::new(2, 9, 7, 3), 42, -1.0, 1.0);
        for (stride, padding) in [
            (1, Padding::Same),
            (2, Padding::Same),
            (1, Padding::Valid),
            (2, Padding::Valid),
        ] {
            let geom = ConvGeometry::default()
                .with_stride(stride)
                .with_padding(padding);
            let filter = rng::uniform_filter(FilterShape::new(3, 3, 3, 5), 7, -0.5, 0.5);
            let d = conv2d_direct(&input, &filter, geom).unwrap();
            let g = conv2d_gemm(&input, &filter, geom).unwrap();
            assert!(
                d.max_abs_diff(&g).unwrap() < 1e-4,
                "stride={stride} padding={padding:?}"
            );
        }
    }

    #[test]
    fn gemm_conv_matches_direct_with_dilation() {
        let input = rng::uniform(Shape4::new(1, 10, 10, 2), 3, -1.0, 1.0);
        let geom = ConvGeometry::default()
            .with_dilation(2)
            .with_padding(Padding::Valid);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 4), 8, -0.5, 0.5);
        let d = conv2d_direct(&input, &filter, geom).unwrap();
        let g = conv2d_gemm(&input, &filter, geom).unwrap();
        assert!(d.max_abs_diff(&g).unwrap() < 1e-4);
    }

    #[test]
    fn min_max_basic() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 3, 1), vec![-2.0, 0.5, 7.0]).unwrap();
        assert_eq!(min_max(&t), (-2.0, 7.0));
        assert_eq!(min_max_slice(&[]), (0.0, 0.0));
    }

    #[test]
    fn min_max_propagates_nan() {
        // A NaN anywhere — first or later — must not be swallowed.
        let (lo, hi) = min_max_slice(&[1.0, f32::NAN, 3.0]);
        assert!(lo.is_nan() && hi.is_nan());
        let (lo, hi) = min_max_slice(&[f32::NAN, 1.0]);
        assert!(lo.is_nan() && hi.is_nan());
        // Infinities are legitimate extremes, not NaNs.
        assert_eq!(min_max_slice(&[f32::INFINITY, 0.0]), (0.0, f32::INFINITY));
    }

    #[test]
    fn filter_flat_index_maps_channel_by_modulo() {
        // The HWCF invariant per-channel consumers rely on: flat index i
        // belongs to output channel i % c_out.
        let fs = FilterShape::new(2, 3, 4, 5);
        let f = Filter::from_fn(fs, |h, w, ci, co| {
            (h * 1000 + w * 100 + ci * 10 + co) as f32
        });
        for (i, &v) in f.as_slice().iter().enumerate() {
            let co = i % fs.c_out;
            assert_eq!(v as usize % 10, co, "flat index {i}");
        }
    }

    #[test]
    fn filter_rejects_buffers_not_matching_shape() {
        let fs = FilterShape::new(3, 3, 2, 4); // len 72
                                               // One short — in particular not a multiple of c_out.
        assert!(Filter::from_vec(fs, vec![0.0; 71]).is_err());
        assert!(Filter::from_vec(fs, vec![0.0; 70]).is_err());
        assert!(Filter::from_vec(fs, vec![0.0; 72]).is_ok());
    }

    #[test]
    fn filter_matrix_columns_are_filters() {
        let f = Filter::from_fn(FilterShape::new(1, 1, 2, 3), |_, _, ci, co| {
            (ci * 10 + co) as f32
        });
        let m = f.to_matrix();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.at(0, 2), 2.0); // ci=0, co=2
        assert_eq!(m.at(1, 0), 10.0); // ci=1, co=0
    }
}
