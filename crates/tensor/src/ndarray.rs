//! Dense row-major n-dimensional array of `f32` with NumPy-style
//! broadcasting, matrix multiplication kernels, and reductions.
//!
//! `NdArray` is the value type of the autodiff engine. Cloning is cheap
//! (`Rc`-shared buffer, copy-on-write on mutation) so ops can save forward
//! values for their backward pass without duplicating memory.

use crate::pool;
use std::rc::Rc;

/// Owner of an `NdArray`'s backing buffer that returns it to the
/// thread-local recycling pool (`crate::pool`) on drop instead of freeing
/// it. Transparent everywhere else: derefs to `[f32]`, clones through the
/// pool, compares and prints as the underlying slice.
pub(crate) struct Buf {
    v: Vec<f32>,
}

impl Buf {
    /// Take ownership of a buffer (pool-served or caller-allocated).
    #[inline]
    pub(crate) fn adopt(v: Vec<f32>) -> Buf {
        Buf { v }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.v
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        pool::recycle(std::mem::take(&mut self.v));
    }
}

impl Clone for Buf {
    fn clone(&self) -> Buf {
        // `Rc::make_mut` copy-on-write lands here; serve the copy from the
        // pool like any other allocation.
        let mut v = pool::take_empty(self.v.len());
        v.extend_from_slice(&self.v);
        Buf { v }
    }
}

impl std::ops::Deref for Buf {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        &self.v
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Buf) -> bool {
        self.v == other.v
    }
}

impl std::fmt::Debug for Buf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.v.fmt(f)
    }
}

/// A dense, row-major, `f32` n-dimensional array.
///
/// The empty shape `[]` denotes a scalar holding one element.
#[derive(Clone, Debug, PartialEq)]
pub struct NdArray {
    shape: Vec<usize>,
    data: Rc<Buf>,
}

/// Number of elements implied by a shape (empty shape = scalar = 1 element).
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

impl NdArray {
    /// Create an array from a shape and matching data buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: impl Into<Vec<usize>>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            numel(&shape),
            data.len(),
            "shape {shape:?} does not match data length {}",
            data.len()
        );
        NdArray {
            shape,
            data: Rc::new(Buf::adopt(data)),
        }
    }

    /// An array filled with `value`.
    pub fn full(shape: impl Into<Vec<usize>>, value: f32) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        NdArray {
            shape,
            data: Rc::new(Buf::adopt(pool::take_filled(n, value))),
        }
    }

    /// An all-zeros array.
    pub fn zeros(shape: impl Into<Vec<usize>>) -> Self {
        Self::full(shape, 0.0)
    }

    /// An all-ones array.
    pub fn ones(shape: impl Into<Vec<usize>>) -> Self {
        Self::full(shape, 1.0)
    }

    /// A scalar (shape `[]`).
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(Vec::new(), vec![value])
    }

    /// The scalar value of a single-element array.
    ///
    /// # Panics
    /// Panics if the array has more than one element.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(self.len(), 1, "scalar_value on shape {:?}", self.shape);
        self.data[0]
    }

    /// Shape of the array.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array holds zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (copy-on-write if shared).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        Rc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Reinterpret with a new shape of the same element count.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: impl Into<Vec<usize>>) -> NdArray {
        let shape = shape.into();
        assert_eq!(
            numel(&shape),
            self.len(),
            "cannot reshape {:?} -> {shape:?}",
            self.shape
        );
        NdArray {
            shape,
            data: Rc::clone(&self.data),
        }
    }

    /// Apply `f` elementwise, producing a new array.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> NdArray {
        let mut out = pool::take_empty(self.len());
        out.extend(self.data.iter().map(|&v| f(v)));
        NdArray {
            shape: self.shape.clone(),
            data: Rc::new(Buf::adopt(out)),
        }
    }

    /// Apply `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Combine with `other` elementwise; shapes must match exactly.
    pub fn zip_map(&self, other: &NdArray, f: impl Fn(f32, f32) -> f32) -> NdArray {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        let mut out = pool::take_empty(self.len());
        out.extend(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b)),
        );
        NdArray {
            shape: self.shape.clone(),
            data: Rc::new(Buf::adopt(out)),
        }
    }

    /// Accumulate `other * scale` into `self`; shapes must match exactly.
    /// Runs over the element grid (`crate::grid`): each element is
    /// independent, so the bits are those of one whole `saxpy`.
    pub fn add_scaled_assign(&mut self, other: &NdArray, scale: f32) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        let src = other.data();
        let saxpy = crate::simd::kernels().saxpy;
        crate::grid::for_each_chunk(self.data_mut(), |lo, dst| {
            saxpy(dst, &src[lo..lo + dst.len()], scale)
        });
    }

    /// Broadcast shape of two operands under NumPy rules.
    ///
    /// # Panics
    /// Panics if the shapes are not broadcast-compatible.
    // lint-allow(panic): index arms are range-guarded (`i < nd - len` picks the 1 branch)
    pub fn broadcast_shape(a: &[usize], b: &[usize]) -> Vec<usize> {
        let nd = a.len().max(b.len());
        let mut out = vec![0usize; nd];
        for i in 0..nd {
            let da = if i < nd - a.len() {
                1
            } else {
                a[i - (nd - a.len())]
            };
            let db = if i < nd - b.len() {
                1
            } else {
                b[i - (nd - b.len())]
            };
            out[i] = if da == db {
                da
            } else if da == 1 {
                db
            } else if db == 1 {
                da
            } else {
                // lint-allow(panic): the documented incompatibility contract of this fn
                panic!("incompatible broadcast: {a:?} vs {b:?}");
            };
        }
        out
    }

    /// Elementwise binary operation with NumPy broadcasting.
    // lint-allow(panic): odometer digits stay below out_shape, and stride tables are nd long by construction
    pub fn broadcast_zip(&self, other: &NdArray, f: impl Fn(f32, f32) -> f32) -> NdArray {
        if self.shape == other.shape {
            return self.zip_map(other, f);
        }
        let out_shape = Self::broadcast_shape(&self.shape, &other.shape);
        let n = numel(&out_shape);
        let sa = broadcast_strides(&self.shape, &out_shape);
        let sb = broadcast_strides(&other.shape, &out_shape);
        let mut out = pool::take_empty(n);
        let mut idx = vec![0usize; out_shape.len()];
        let (mut off_a, mut off_b) = (0usize, 0usize);
        for _ in 0..n {
            out.push(f(self.data[off_a], other.data[off_b]));
            // Odometer increment over the output index space.
            for d in (0..out_shape.len()).rev() {
                idx[d] += 1;
                off_a += sa[d];
                off_b += sb[d];
                if idx[d] < out_shape[d] {
                    break;
                }
                off_a -= sa[d] * out_shape[d];
                off_b -= sb[d] * out_shape[d];
                idx[d] = 0;
            }
        }
        NdArray::from_vec(out_shape, out)
    }

    /// Sum this array down to `target` shape (the adjoint of broadcasting).
    ///
    /// Used by backward passes of broadcasting ops: the gradient w.r.t. a
    /// broadcast operand is the output gradient summed over the broadcast
    /// axes. When `target` (leading 1s aside) is a suffix of the shape —
    /// bias and positional-embedding gradients — this is a leading-axis sum
    /// on the row grid (`crate::grid::sum_rows`), the formula the fused
    /// bias-GELU backward uses too; other broadcasts walk the index space.
    pub fn reduce_to_shape(&self, target: &[usize]) -> NdArray {
        if self.shape == target {
            return self.clone();
        }
        assert_eq!(
            Self::broadcast_shape(target, &self.shape),
            self.shape,
            "reduce_to_shape: {target:?} does not broadcast to {:?}",
            self.shape
        );
        let kept = &target[target.iter().take_while(|&&t| t == 1).count()..];
        if !kept.is_empty() && self.shape.ends_with(kept) {
            let sums = crate::grid::sum_rows(self.data(), numel(kept));
            return NdArray::from_vec(target.to_vec(), sums);
        }
        let n = self.len();
        let strides = broadcast_strides(target, &self.shape);
        let mut out = pool::take_filled(numel(target), 0.0);
        let mut idx = vec![0usize; self.shape.len()];
        let mut off = 0usize;
        for i in 0..n {
            out[off] += self.data[i];
            for d in (0..self.shape.len()).rev() {
                idx[d] += 1;
                off += strides[d];
                if idx[d] < self.shape[d] {
                    break;
                }
                off -= strides[d] * self.shape[d];
                idx[d] = 0;
            }
        }
        NdArray::from_vec(target.to_vec(), out)
    }

    /// 2-D matrix multiply: `[m, k] x [k, n] -> [m, n]`.
    pub fn matmul2d(&self, rhs: &NdArray) -> NdArray {
        assert_eq!(self.ndim(), 2, "matmul2d lhs must be 2-D");
        assert_eq!(rhs.ndim(), 2, "matmul2d rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul2d inner dims: {k} vs {k2}");
        let mut out = pool::take_filled(m * n, 0.0);
        matmul_kernel(&self.data, &rhs.data, &mut out, m, k, n);
        NdArray::from_vec(vec![m, n], out)
    }

    /// Transpose-free right product: `[m, k] x [n, k]^T -> [m, n]`.
    ///
    /// Reads `rhs` row-major as-is — no `[k, n]` transpose is ever
    /// materialized. Every output element is a single k-ascending dot
    /// product, so the result is bitwise identical to
    /// `self.matmul2d(&rhs.transpose_last2())`.
    pub fn matmul2d_nt(&self, rhs: &NdArray) -> NdArray {
        assert_eq!(self.ndim(), 2, "matmul2d_nt lhs must be 2-D");
        assert_eq!(rhs.ndim(), 2, "matmul2d_nt rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul2d_nt inner dims: {k} vs {k2}");
        let mut out = pool::take_filled(m * n, 0.0);
        matmul_nt_kernel(&self.data, &rhs.data, &mut out, m, k, n);
        NdArray::from_vec(vec![m, n], out)
    }

    /// Transpose-free left product: `[k, m]^T x [k, n] -> [m, n]`.
    ///
    /// Reads `self` row-major as-is (column `i` of `self` becomes row `i`
    /// of the product) — no `[m, k]` transpose is ever materialized.
    /// Accumulation runs k-ascending per output element, so the result is
    /// bitwise identical to `self.transpose_last2().matmul2d(&rhs)`.
    pub fn matmul2d_tn(&self, rhs: &NdArray) -> NdArray {
        assert_eq!(self.ndim(), 2, "matmul2d_tn lhs must be 2-D");
        assert_eq!(rhs.ndim(), 2, "matmul2d_tn rhs must be 2-D");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul2d_tn inner dims: {k} vs {k2}");
        let mut out = pool::take_filled(m * n, 0.0);
        matmul_tn_kernel(&self.data, &rhs.data, &mut out, m, k, n);
        NdArray::from_vec(vec![m, n], out)
    }

    /// Batched matrix multiply: `[b, m, k] x [b, k, n] -> [b, m, n]`.
    pub fn bmm(&self, rhs: &NdArray) -> NdArray {
        assert_eq!(self.ndim(), 3, "bmm lhs must be 3-D");
        assert_eq!(rhs.ndim(), 3, "bmm rhs must be 3-D");
        let (b, m, k) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, k2, n) = (rhs.shape[0], rhs.shape[1], rhs.shape[2]);
        assert_eq!(b, b2, "bmm batch dims");
        assert_eq!(k, k2, "bmm inner dims");
        let mut out = pool::take_filled(b * m * n, 0.0);
        {
            // Parallelize over independent batch planes; the per-plane
            // kernel runs inline when called from a pool worker.
            let (a, r) = (self.data(), rhs.data());
            let w = slime_par::UnsafeSlice::new(&mut out);
            slime_par::parallel_for(b, 1, |b0, b1| {
                // lint-proof(l8): w[b0 * m * n .. b1 * m * n]
                for i in b0..b1 {
                    // SAFETY: batch planes are disjoint.
                    let o = unsafe { w.slice_mut(i * m * n, m * n) };
                    matmul_kernel(
                        &a[i * m * k..(i + 1) * m * k],
                        &r[i * k * n..(i + 1) * k * n],
                        o,
                        m,
                        k,
                        n,
                    );
                }
            });
        }
        NdArray::from_vec(vec![b, m, n], out)
    }

    /// Batched transpose-free right product:
    /// `[b, m, k] x [b, n, k]^T -> [b, m, n]` (per-plane [`Self::matmul2d_nt`]).
    pub fn bmm_nt(&self, rhs: &NdArray) -> NdArray {
        assert_eq!(self.ndim(), 3, "bmm_nt lhs must be 3-D");
        assert_eq!(rhs.ndim(), 3, "bmm_nt rhs must be 3-D");
        let (b, m, k) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, n, k2) = (rhs.shape[0], rhs.shape[1], rhs.shape[2]);
        assert_eq!(b, b2, "bmm_nt batch dims");
        assert_eq!(k, k2, "bmm_nt inner dims");
        let mut out = pool::take_filled(b * m * n, 0.0);
        {
            let (a, r) = (self.data(), rhs.data());
            let w = slime_par::UnsafeSlice::new(&mut out);
            slime_par::parallel_for(b, 1, |b0, b1| {
                // lint-proof(l8): w[b0 * m * n .. b1 * m * n]
                for i in b0..b1 {
                    // SAFETY: batch planes are disjoint.
                    let o = unsafe { w.slice_mut(i * m * n, m * n) };
                    matmul_nt_kernel(
                        &a[i * m * k..(i + 1) * m * k],
                        &r[i * n * k..(i + 1) * n * k],
                        o,
                        m,
                        k,
                        n,
                    );
                }
            });
        }
        NdArray::from_vec(vec![b, m, n], out)
    }

    /// Batched transpose-free left product:
    /// `[b, k, m]^T x [b, k, n] -> [b, m, n]` (per-plane [`Self::matmul2d_tn`]).
    pub fn bmm_tn(&self, rhs: &NdArray) -> NdArray {
        assert_eq!(self.ndim(), 3, "bmm_tn lhs must be 3-D");
        assert_eq!(rhs.ndim(), 3, "bmm_tn rhs must be 3-D");
        let (b, k, m) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, k2, n) = (rhs.shape[0], rhs.shape[1], rhs.shape[2]);
        assert_eq!(b, b2, "bmm_tn batch dims");
        assert_eq!(k, k2, "bmm_tn inner dims");
        let mut out = pool::take_filled(b * m * n, 0.0);
        {
            let (a, r) = (self.data(), rhs.data());
            let w = slime_par::UnsafeSlice::new(&mut out);
            slime_par::parallel_for(b, 1, |b0, b1| {
                // lint-proof(l8): w[b0 * m * n .. b1 * m * n]
                for i in b0..b1 {
                    // SAFETY: batch planes are disjoint.
                    let o = unsafe { w.slice_mut(i * m * n, m * n) };
                    matmul_tn_kernel(
                        &a[i * k * m..(i + 1) * k * m],
                        &r[i * k * n..(i + 1) * k * n],
                        o,
                        m,
                        k,
                        n,
                    );
                }
            });
        }
        NdArray::from_vec(vec![b, m, n], out)
    }

    /// Transpose the last two dimensions.
    pub fn transpose_last2(&self) -> NdArray {
        let nd = self.ndim();
        assert!(nd >= 2, "transpose_last2 needs >= 2 dims");
        let mut axes: Vec<usize> = (0..nd).collect();
        axes.swap(nd - 2, nd - 1);
        self.permute(&axes)
    }

    /// Permute dimensions; `axes` must be a permutation of `0..ndim`.
    pub fn permute(&self, axes: &[usize]) -> NdArray {
        let nd = self.ndim();
        assert_eq!(axes.len(), nd, "permute axes length");
        let mut seen = vec![false; nd];
        for &a in axes {
            assert!(a < nd && !seen[a], "invalid permutation {axes:?}");
            seen[a] = true;
        }
        let in_strides = contiguous_strides(&self.shape);
        let out_shape: Vec<usize> = axes.iter().map(|&a| self.shape[a]).collect();
        let src_strides: Vec<usize> = axes.iter().map(|&a| in_strides[a]).collect();
        let n = self.len();
        // Pure gather (each output element written once), parallel over
        // output ranges; each task re-seeds the odometer at its chunk start.
        let mut out = pool::take_filled(n, 0.0);
        let src = self.data();
        let (out_shape_r, src_strides_r) = (&out_shape, &src_strides);
        let w = slime_par::UnsafeSlice::new(&mut out);
        slime_par::parallel_for(n, 1 << 14, |lo, hi| {
            let (out_shape, src_strides) = (out_shape_r, src_strides_r);
            // SAFETY: output chunks are disjoint.
            // lint-proof(l8): w[lo .. hi]
            let dst = unsafe { w.slice_mut(lo, hi - lo) };
            let mut idx = vec![0usize; nd];
            let mut off = 0usize;
            let mut rem = lo;
            for d in (0..nd).rev() {
                idx[d] = rem % out_shape[d];
                rem /= out_shape[d];
                off += idx[d] * src_strides[d];
            }
            for slot in dst.iter_mut() {
                *slot = src[off];
                for d in (0..nd).rev() {
                    idx[d] += 1;
                    off += src_strides[d];
                    if idx[d] < out_shape[d] {
                        break;
                    }
                    off -= src_strides[d] * out_shape[d];
                    idx[d] = 0;
                }
            }
        });
        NdArray::from_vec(out_shape, out)
    }

    /// Sum over one axis, removing it.
    pub fn sum_axis(&self, axis: usize) -> NdArray {
        let nd = self.ndim();
        assert!(axis < nd, "sum_axis out of range");
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out = pool::take_filled(outer * inner, 0.0);
        for o in 0..outer {
            for m in 0..mid {
                let base = (o * mid + m) * inner;
                let dst = &mut out[o * inner..(o + 1) * inner];
                for (d, s) in dst.iter_mut().zip(&self.data[base..base + inner]) {
                    *d += s;
                }
            }
        }
        let mut shape = self.shape.clone();
        shape.remove(axis);
        NdArray::from_vec(shape, out)
    }

    /// Mean over one axis, removing it.
    pub fn mean_axis(&self, axis: usize) -> NdArray {
        debug_assert!(axis < self.ndim(), "mean_axis: axis out of range");
        let d = self.shape[axis] as f32;
        let mut s = self.sum_axis(axis);
        s.map_inplace(|v| v / d);
        s
    }

    /// Sum of all elements (scalar).
    pub fn sum_all(&self) -> f32 {
        // Pairwise-ish accumulation in f64 for stability on long buffers.
        self.data.iter().map(|&v| v as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean_all(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum_all() / self.len() as f32
        }
    }
}

/// Row-major strides for a shape.
// lint-allow(panic): loop range is `0..len-1`, every index is in bounds by construction
pub fn contiguous_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Strides of `shape` viewed through broadcast `out_shape` (0 where broadcast).
fn broadcast_strides(shape: &[usize], out_shape: &[usize]) -> Vec<usize> {
    let nd = out_shape.len();
    debug_assert!(shape.len() <= nd, "operand rank exceeds broadcast rank");
    let offset = nd - shape.len();
    let own = contiguous_strides(shape);
    let mut strides = vec![0usize; nd];
    for i in 0..shape.len() {
        strides[offset + i] = if shape[i] == 1 { 0 } else { own[i] };
    }
    strides
}

/// Multiply-adds per parallel chunk of the matmul kernel. Sized so pool
/// dispatch (~µs) is amortized; products smaller than one chunk run inline
/// on the caller.
const MATMUL_CHUNK_FLOPS: usize = 1 << 16;

/// Row-parallel, register-blocked `i-k-j` matmul kernel writing into `out`
/// (must be zeroed).
///
/// Rows are partitioned into chunks sized by shape alone — never by thread
/// count — and every output element accumulates over `k` in ascending
/// order in both the blocked and remainder paths, so results are bitwise
/// identical from 1 to N threads (the slime-par determinism contract).
///
/// The former `av == 0.0` skip is gone: on dense inputs (everything this
/// workspace multiplies — activations, weights, gradients) the inner-loop
/// branch cost more than it saved and blocked vectorization.
pub(crate) fn matmul_kernel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    debug_assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n);
    let rows_per_chunk = (MATMUL_CHUNK_FLOPS / (k * n).max(1)).clamp(1, m);
    let w = slime_par::UnsafeSlice::new(out);
    slime_par::parallel_for(m, rows_per_chunk, |r0, r1| {
        // SAFETY: chunk row ranges are disjoint, so each task owns its
        // slice of `out`.
        // lint-proof(l8): w[r0 * n .. r1 * n]
        let o = unsafe { w.slice_mut(r0 * n, (r1 - r0) * n) };
        matmul_rows(&a[r0 * k..r1 * k], b, o, k, n);
    });
}

/// Multiply a block of rows (`rows x k` times `k x n`) into `out`
/// (row-major, zeroed, `rows * n` long). Four-row register blocking shares
/// each loaded `b` row across four accumulator rows; the whole `k` loop is
/// one fused `matmul4` kernel call so the vector backend can keep the output
/// tile in registers.
pub(crate) fn matmul_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    // Degenerate shapes must be handled by the caller's early-out: a zero
    // `n` here would silently compute 0 rows out of a non-empty `out`.
    debug_assert!(n > 0, "matmul_rows called with n == 0");
    debug_assert_eq!(out.len() % n, 0, "matmul_rows: out not a whole row count");
    debug_assert_eq!(a.len(), (out.len() / n) * k, "matmul_rows: a/out mismatch");
    let rows = out.len() / n;
    let kn = crate::simd::kernels();
    let mut r = 0usize;
    while r + 4 <= rows {
        let (o0, rest) = out[r * n..(r + 4) * n].split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let a0 = &a[r * k..(r + 1) * k];
        let a1 = &a[(r + 1) * k..(r + 2) * k];
        let a2 = &a[(r + 2) * k..(r + 3) * k];
        let a3 = &a[(r + 3) * k..(r + 4) * k];
        (kn.matmul4)(o0, o1, o2, o3, a0, a1, a2, a3, b, n);
        r += 4;
    }
    while r < rows {
        let a_row = &a[r * k..(r + 1) * k];
        let o_row = &mut out[r * n..(r + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            (kn.saxpy)(o_row, b_row, av);
        }
        r += 1;
    }
}

/// Row-parallel `A x B^T` kernel: `a` is `[m, k]`, `b` is `[n, k]`, both
/// row-major, writing `[m, n]` into `out` (must be zeroed).
///
/// Same determinism contract as `matmul_kernel`: the chunk grid is a pure
/// function of the shape, and each output element is one k-ascending dot
/// product confined to a single chunk.
fn matmul_nt_kernel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    // Each chunk packs the `b` tiles it reads, so chunks carry a fixed
    // O(k * n) packing cost on top of their rows * k * n multiply-adds:
    // keep at least NT_PACK_AMORTIZE_ROWS rows per chunk to amortize it.
    debug_assert!(a.len() >= m * k && b.len() >= n * k && out.len() >= m * n);
    let rows_per_chunk = (MATMUL_CHUNK_FLOPS / (k * n).max(1))
        .max(NT_PACK_AMORTIZE_ROWS)
        .clamp(1, m);
    let w = slime_par::UnsafeSlice::new(out);
    slime_par::parallel_for(m, rows_per_chunk, |r0, r1| {
        // SAFETY: chunk row ranges are disjoint.
        // lint-proof(l8): w[r0 * n .. r1 * n]
        let o = unsafe { w.slice_mut(r0 * n, (r1 - r0) * n) };
        matmul_nt_rows(&a[r0 * k..r1 * k], b, o, k, n);
    });
}

/// Column-tile width of the `A x B^T` kernel: a packed tile is at most
/// `NT_TILE_COLS * k` floats (64 KiB at `k = 128`), small enough to stay
/// cache-resident while every row of the chunk streams against it.
const NT_TILE_COLS: usize = 128;

/// Minimum rows per `matmul_nt_kernel` chunk, so the per-chunk tile packing
/// (`O(k * n)`) stays a small fraction of the chunk's `rows * k * n` work.
const NT_PACK_AMORTIZE_ROWS: usize = 16;

/// A block of rows of `A x B^T`: `rows x k` times `(n x k)^T` into `out`
/// (`rows * n` long, zeroed).
///
/// The rows of `b` covering a tile of at most [`NT_TILE_COLS`] output
/// columns are packed transposed into a pooled cache-resident scratch, then
/// every row of the block runs the same vectorized `i-k-j` loop as
/// `matmul_rows` against the packed tile. Tiling splits only the output
/// columns — never `k` — so each output element is still one k-ascending
/// single-accumulator sum: the exact operation sequence `matmul_rows`
/// performs on a materialized transpose, hence bitwise-identical results.
fn matmul_nt_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    debug_assert!(n > 0, "matmul_nt_rows called with n == 0");
    debug_assert_eq!(out.len() % n, 0, "matmul_nt_rows: out not whole rows");
    debug_assert_eq!(
        a.len(),
        (out.len() / n) * k,
        "matmul_nt_rows: a/out mismatch"
    );
    let rows = out.len() / n;
    let jt_max = NT_TILE_COLS.min(n);
    let mut pack = crate::pool::take_filled(k * jt_max, 0.0);
    let mut j0 = 0usize;
    while j0 < n {
        let jt = jt_max.min(n - j0);
        // Pack b[j0..j0+jt, :] transposed: pack[kk * jt + jj] = b[j0+jj][kk].
        // Rows of `b` are read contiguously; the strided writes land in a
        // tile small enough to stay in cache.
        for jj in 0..jt {
            let b_row = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
            for (kk, &bv) in b_row.iter().enumerate() {
                pack[kk * jt + jj] = bv;
            }
        }
        let tile = &pack[..k * jt];
        let kn = crate::simd::kernels();
        let mut r = 0usize;
        while r + 4 <= rows {
            let block = &mut out[r * n..(r + 4) * n];
            let (b0, rest) = block.split_at_mut(n);
            let (b1, rest) = rest.split_at_mut(n);
            let (b2, b3) = rest.split_at_mut(n);
            let o0 = &mut b0[j0..j0 + jt];
            let o1 = &mut b1[j0..j0 + jt];
            let o2 = &mut b2[j0..j0 + jt];
            let o3 = &mut b3[j0..j0 + jt];
            let a0 = &a[r * k..(r + 1) * k];
            let a1 = &a[(r + 1) * k..(r + 2) * k];
            let a2 = &a[(r + 2) * k..(r + 3) * k];
            let a3 = &a[(r + 3) * k..(r + 4) * k];
            (kn.matmul4)(o0, o1, o2, o3, a0, a1, a2, a3, tile, jt);
            r += 4;
        }
        while r < rows {
            let a_row = &a[r * k..(r + 1) * k];
            let o_row = &mut out[r * n + j0..r * n + j0 + jt];
            for kk in 0..k {
                let t_row = &tile[kk * jt..(kk + 1) * jt];
                (kn.saxpy)(o_row, t_row, a_row[kk]);
            }
            r += 1;
        }
        j0 += jt;
    }
    crate::pool::recycle(pack);
}

/// Row-parallel `A^T x B` kernel: `a` is `[k, m]`, `b` is `[k, n]`, both
/// row-major, writing `[m, n]` into `out` (must be zeroed).
///
/// Parallelism is over *output* rows (columns of `a`); chunk grid depends
/// only on the shape and accumulation stays k-ascending per element.
///
/// The chunk floor is a multiple of four rows: for tall-skinny adjoints
/// (`k*n` past the flops budget, e.g. `dW = A^T G`) the naive budget
/// degenerates to one row per chunk, which starves [`matmul_tn_rows`] of
/// its 4-row `matmul4` blocking and streams `b` once per output row.
/// Values are grid-independent (each output element is one k-ascending
/// chain inside a single chunk), so the floor only changes locality.
pub(crate) fn matmul_tn_kernel(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    let budget = (MATMUL_CHUNK_FLOPS / (k * n).max(1)).max(16);
    let rows_per_chunk = budget.next_multiple_of(4).min(m.next_multiple_of(4));
    let w = slime_par::UnsafeSlice::new(out);
    slime_par::parallel_for(m, rows_per_chunk, |r0, r1| {
        // SAFETY: chunk row ranges are disjoint.
        // lint-proof(l8): w[r0 * n .. r1 * n]
        let o = unsafe { w.slice_mut(r0 * n, (r1 - r0) * n) };
        matmul_tn_rows(a, b, o, r0, k, m, n);
    });
}

/// Output rows `r0..r0 + rows` of `A^T x B`, where `a` is the *untransposed*
/// `[k, m]` operand (so output row `i` reads column `r0 + i` of `a`, stride
/// `m`). Mirrors `matmul_rows`' four-row `i-k-j` blocking — each loaded `b`
/// row is shared across four accumulator rows, and accumulation order per
/// element is identical to running `matmul_rows` on a materialized `A^T`.
pub(crate) fn matmul_tn_rows(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    r0: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    debug_assert!(n > 0, "matmul_tn_rows called with n == 0");
    debug_assert_eq!(out.len() % n, 0, "matmul_tn_rows: out not whole rows");
    debug_assert_eq!(a.len(), k * m, "matmul_tn_rows: a is not [k, m]");
    debug_assert_eq!(b.len(), k * n, "matmul_tn_rows: b is not [k, n]");
    let rows = out.len() / n;
    debug_assert!(r0 + rows <= m, "matmul_tn_rows: row range exceeds m");
    let kn = crate::simd::kernels();
    // Cache-blocked over `k` and output rows: each `[kc, pr]` tile of `a`
    // is transposed once into a contiguous panel and the matching `[kc, n]`
    // panel of `b` stays resident while every 4-row block consumes both.
    // Without the blocking, every 4-row block walked all `k` rows of `a`
    // (one cache line each, 4 useful floats) and streamed all of `b` — for
    // tall-skinny adjoints like `dW = A^T G` (k = batch·seq, m = n =
    // hidden) that re-read both operands `rows/4` times over and the
    // kernel went memory-bound at ~5x the cost of the equal-FLOP forward.
    // Splitting `k` only splits each output element's k-ascending
    // accumulation across consecutive `matmul4` calls (which accumulate in
    // place, k-sequential), so results stay bitwise identical to the
    // single-call form.
    const TN_K_CHUNK: usize = 512;
    const TN_ROW_PANEL: usize = 256;
    let cap = k.min(TN_K_CHUNK);
    let panel_rows = rows.min(TN_ROW_PANEL);
    let mut panel = crate::pool::take_filled(panel_rows * cap, 0.0);
    let mut k0 = 0usize;
    while k0 < k {
        let kc = (k - k0).min(TN_K_CHUNK);
        let bp = &b[k0 * n..(k0 + kc) * n];
        let mut p0 = 0usize;
        while p0 < rows {
            let pr = (rows - p0).min(TN_ROW_PANEL);
            // Transpose a[k0..k0+kc, r0+p0..r0+p0+pr] into the panel:
            // sequential reads, panel-resident strided writes.
            for kk in 0..kc {
                let arow = &a[(k0 + kk) * m + r0 + p0..][..pr];
                for (i, &v) in arow.iter().enumerate() {
                    panel[i * cap + kk] = v;
                }
            }
            let mut r = p0;
            while r + 4 <= p0 + pr {
                let (o0, rest) = out[r * n..(r + 4) * n].split_at_mut(n);
                let (o1, rest) = rest.split_at_mut(n);
                let (o2, o3) = rest.split_at_mut(n);
                let i = r - p0;
                (kn.matmul4)(
                    o0,
                    o1,
                    o2,
                    o3,
                    &panel[i * cap..][..kc],
                    &panel[(i + 1) * cap..][..kc],
                    &panel[(i + 2) * cap..][..kc],
                    &panel[(i + 3) * cap..][..kc],
                    bp,
                    n,
                );
                r += 4;
            }
            while r < p0 + pr {
                let o_row = &mut out[r * n..(r + 1) * n];
                let crow = &panel[(r - p0) * cap..][..kc];
                for kk in 0..kc {
                    (kn.saxpy)(o_row, &bp[kk * n..(kk + 1) * n], crow[kk]);
                }
                r += 1;
            }
            p0 += pr;
        }
        k0 += kc;
    }
    crate::pool::recycle(panel);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_scalars() {
        let a = NdArray::zeros(vec![2, 3]);
        assert_eq!(a.shape(), &[2, 3]);
        assert_eq!(a.len(), 6);
        let s = NdArray::scalar(4.5);
        assert_eq!(s.shape(), &[] as &[usize]);
        assert_eq!(s.scalar_value(), 4.5);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_rejects_mismatch() {
        NdArray::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn copy_on_write() {
        let a = NdArray::from_vec(vec![3], vec![1.0, 2.0, 3.0]);
        let mut b = a.clone();
        b.data_mut()[0] = 9.0;
        assert_eq!(a.data()[0], 1.0);
        assert_eq!(b.data()[0], 9.0);
    }

    #[test]
    fn broadcast_shapes() {
        assert_eq!(NdArray::broadcast_shape(&[2, 3], &[3]), vec![2, 3]);
        assert_eq!(NdArray::broadcast_shape(&[4, 1, 3], &[2, 1]), vec![4, 2, 3]);
        assert_eq!(NdArray::broadcast_shape(&[], &[5]), vec![5]);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn broadcast_rejects_incompatible() {
        NdArray::broadcast_shape(&[2, 3], &[4]);
    }

    #[test]
    fn broadcast_zip_bias_pattern() {
        let x = NdArray::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = NdArray::from_vec(vec![3], vec![10., 20., 30.]);
        let y = x.broadcast_zip(&b, |a, b| a + b);
        assert_eq!(y.data(), &[11., 22., 33., 14., 25., 36.]);
    }

    #[test]
    fn broadcast_zip_middle_axis() {
        // (2,1,2) * (1,3,1) -> (2,3,2)
        let a = NdArray::from_vec(vec![2, 1, 2], vec![1., 2., 3., 4.]);
        let b = NdArray::from_vec(vec![1, 3, 1], vec![1., 10., 100.]);
        let y = a.broadcast_zip(&b, |x, y| x * y);
        assert_eq!(y.shape(), &[2, 3, 2]);
        assert_eq!(
            y.data(),
            &[1., 2., 10., 20., 100., 200., 3., 4., 30., 40., 300., 400.]
        );
    }

    #[test]
    fn reduce_to_shape_inverts_broadcast() {
        let g = NdArray::ones(vec![4, 3]);
        let r = g.reduce_to_shape(&[3]);
        assert_eq!(r.data(), &[4., 4., 4.]);
        let r2 = g.reduce_to_shape(&[4, 3]);
        assert_eq!(r2.data(), g.data());
        let r3 = NdArray::ones(vec![2, 3, 4]).reduce_to_shape(&[3, 1]);
        assert_eq!(r3.shape(), &[3, 1]);
        assert_eq!(r3.data(), &[8., 8., 8.]);
    }

    #[test]
    fn matmul2d_known_values() {
        let a = NdArray::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = NdArray::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul2d(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul2d_nt_matches_materialized_transpose() {
        let a = NdArray::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        // b is [n, k] = [2, 3]; nt multiplies by its transpose.
        let b = NdArray::from_vec(vec![2, 3], vec![7., 9., 11., 8., 10., 12.]);
        let c = a.matmul2d_nt(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), a.matmul2d(&b.transpose_last2()).data());
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul2d_tn_matches_materialized_transpose() {
        // a is [k, m] = [3, 2]; tn multiplies its transpose by b.
        let a = NdArray::from_vec(vec![3, 2], vec![1., 4., 2., 5., 3., 6.]);
        let b = NdArray::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul2d_tn(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), a.transpose_last2().matmul2d(&b).data());
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_degenerate_dims_early_out() {
        // m == 0, n == 0, and k == 0 must all produce well-formed outputs
        // instead of silently mis-shaping (the old `n.max(1)` row count).
        let a0 = NdArray::zeros(vec![0, 3]);
        let b = NdArray::zeros(vec![3, 2]);
        assert_eq!(a0.matmul2d(&b).shape(), &[0, 2]);
        let a = NdArray::zeros(vec![2, 3]);
        let b0 = NdArray::zeros(vec![3, 0]);
        assert_eq!(a.matmul2d(&b0).shape(), &[2, 0]);
        let ak0 = NdArray::zeros(vec![2, 0]);
        let bk0 = NdArray::zeros(vec![0, 2]);
        assert_eq!(ak0.matmul2d(&bk0).data(), &[0.0; 4]);
        // Same early-outs for the transpose-free variants.
        assert_eq!(a0.matmul2d_nt(&NdArray::zeros(vec![2, 3])).shape(), &[0, 2]);
        assert_eq!(a.matmul2d_nt(&NdArray::zeros(vec![0, 3])).shape(), &[2, 0]);
        assert_eq!(NdArray::zeros(vec![3, 0]).matmul2d_tn(&b).shape(), &[0, 2]);
        let a_tn = NdArray::zeros(vec![2, 3]);
        assert_eq!(
            a_tn.matmul2d_tn(&NdArray::zeros(vec![2, 0])).shape(),
            &[3, 0]
        );
    }

    #[test]
    fn bmm_nt_tn_known_values() {
        // Two planes of [1, 2] x ([2, 2]^T in nt layout).
        let a = NdArray::from_vec(vec![2, 1, 2], vec![1., 2., 3., 4.]);
        let bt = NdArray::from_vec(vec![2, 2, 2], vec![5., 6., 7., 8., 1., 0., 0., 1.]);
        let c = a.bmm_nt(&bt);
        assert_eq!(c.shape(), &[2, 1, 2]);
        assert_eq!(c.data(), a.bmm(&bt.transpose_last2()).data());
        let at = NdArray::from_vec(vec![2, 2, 1], vec![1., 2., 3., 4.]);
        let b = NdArray::from_vec(vec![2, 2, 3], (0..12).map(|v| v as f32).collect());
        let d = at.bmm_tn(&b);
        assert_eq!(d.shape(), &[2, 1, 3]);
        assert_eq!(d.data(), at.transpose_last2().bmm(&b).data());
    }

    #[test]
    fn bmm_independent_batches() {
        let a = NdArray::from_vec(vec![2, 1, 2], vec![1., 2., 3., 4.]);
        let b = NdArray::from_vec(vec![2, 2, 1], vec![5., 6., 7., 8.]);
        let c = a.bmm(&b);
        assert_eq!(c.shape(), &[2, 1, 1]);
        assert_eq!(c.data(), &[17., 53.]);
    }

    #[test]
    fn permute_and_transpose() {
        let a = NdArray::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose_last2();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[1., 4., 2., 5., 3., 6.]);
        let b = NdArray::from_vec(vec![2, 2, 2], (0..8).map(|v| v as f32).collect());
        let p = b.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[2, 2, 2]);
        // p[i,j,k] = b[j,k,i]
        assert_eq!(p.data(), &[0., 2., 4., 6., 1., 3., 5., 7.]);
    }

    #[test]
    fn permute_roundtrip_inverse() {
        let a = NdArray::from_vec(vec![2, 3, 4], (0..24).map(|v| v as f32).collect());
        let p = a.permute(&[1, 2, 0]);
        let back = p.permute(&[2, 0, 1]);
        assert_eq!(back, a);
    }

    #[test]
    fn axis_reductions() {
        let a = NdArray::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.sum_axis(0).data(), &[5., 7., 9.]);
        assert_eq!(a.sum_axis(1).data(), &[6., 15.]);
        assert_eq!(a.mean_axis(1).data(), &[2., 5.]);
        assert_eq!(a.sum_all(), 21.0);
        assert!((a.mean_all() - 3.5).abs() < 1e-6);
    }

    #[test]
    fn reshape_shares_and_checks() {
        let a = NdArray::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = a.reshape(vec![3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_rejects_bad_count() {
        NdArray::zeros(vec![2, 3]).reshape(vec![4]);
    }
}
