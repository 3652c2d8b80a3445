//! The fused frequency-domain filter ops at the heart of SLIME4Rec.
//!
//! Forward (paper Eqs. 12, 21, 25–27):
//!
//! ```text
//! X        = rfft(x)                          x: [B, N, D], X: [B, M, D] complex, M = N/2+1
//! F[k,c]   = sum_i coef_i * mask_i[k] * W_i[k,c]    (learnable complex filters W_i)
//! Y[k,c]   = X[k,c] * F[k,c]                  (elementwise complex product)
//! y        = irfft(Y)                         y: [B, N, D] real
//! ```
//!
//! With two branches — the Dynamic Frequency Selection filter at coefficient
//! `1 - gamma` and the Static Frequency Split filter at `gamma` — this is
//! exactly the paper's filter mixer. With one all-ones mask branch it is
//! FMLP-Rec's global filter.
//!
//! Backward (derived from the adjoints of the real DFT pair; all verified by
//! finite differences in `tests/gradcheck.rs`):
//!
//! ```text
//! G[b,k,c]     = (c_k / N) * rfft(grad_y[b,:,c])[k]   c_k = 1 at k = 0 and k = N/2 (even N), else 2
//!                with Im(G) zeroed at k = 0 and the even-N Nyquist bin
//! grad_X       = G * conj(F)
//! grad_W_i     = coef_i * mask_i[k] * sum_b G * conj(X)
//! grad_x[b,:,c]= Re( unnormalized-inverse-DFT( zero-pad(grad_X[b,:,c], N) ) )
//! ```
//!
//! Every transform — forward, replay and both adjoints — is a dense matmul
//! against cached trig tables (`DftTables`), one `[N, D]` batch plane per
//! parallel chunk, and runs only over the *active band*: the bins from the
//! first to the last where some branch has a nonzero `coef * mask[k]`.
//! `F` is exactly zero outside it, so the skipped bins contribute nothing.
//!
//! [`spectral_filter_mix_last`] returns only the last time step. By the
//! convolution theorem `y[b, t] = sum_s x[b, s] * kappa[(t - s) mod N]`
//! with `kappa = irfft(F)`, so the last row is the O(B·N·D) correlation
//! `y[b, N-1, c] = sum_t x[b, t, c] * kappa[N-1-t, c]`.

use std::ops::Range;

use slime_par::UnsafeSlice;

use crate::ndarray::NdArray;
use crate::tensor::{Op, Tensor};

/// Spectrum elements per parallel task of the `grad_F` reduction over
/// frequency rows (and of the last-row op's `grad_kappa` reduction over
/// time rows). A pure function of the shape, so the chunk grid — and
/// therefore the result bits — never depend on the thread count.
const POINTS_PER_CHUNK: usize = 4096;

/// Signal elements per parallel task of the last-row op's per-plane passes
/// (forward and `grad_x`): a plane costs only O(N·D), so one plane per
/// chunk would be all dispatch.
const LAST_ROW_POINTS_PER_CHUNK: usize = 1 << 16;

/// Cached rfft/irfft coefficient tables for one sequence length, all four
/// stored k-major as `[M, N]` so any run of bins is a contiguous row slice.
///
/// With `theta(k, t) = 2 pi (k * t mod n) / n` (reduced mod `n` in f64 so
/// the angle stays accurate) and the irfft fold weights `c_k / n`
/// (`c_k = 1` at DC and the even-`n` Nyquist bin, else 2):
///
/// * `cre[k * n + t] =  cos(theta)`, `cim[k * n + t] = -sin(theta)`:
///   `X = rfft(x)` is `Xre = cre @ x`, `Xim = cim @ x` per `[N, D]` plane.
/// * `dre[k * n + t] = (c_k / n) cos(theta)`, `dim[k * n + t] =
///   -(c_k / n) sin(theta)`: `y = irfft(Y)` is `dre^T @ Yre + dim^T @ Yim`.
///   The `dim` rows at DC and the even-`n` Nyquist bin are exactly zero —
///   the conjugate-symmetry projection that discards those imaginary parts.
///
/// `matmul_tn_rows` reads every transpose in place, and accumulates in the
/// same order as `matmul_rows` on a materialized transpose.
///
/// Each transform costs O(kb·N) per (batch, channel) pair for a band of
/// `kb` bins, against an FFT's O(N log N), but runs at vector width
/// through the blocked row kernels with no per-pair plan lookup or
/// scratch; the tables hold `4 * M * N` floats (~320 KB at N = 200) per
/// thread and length.
struct DftTables {
    n: usize,
    cre: Vec<f32>,
    cim: Vec<f32>,
    dre: Vec<f32>,
    dim: Vec<f32>,
}

impl DftTables {
    fn new(n: usize) -> DftTables {
        debug_assert!(n >= 1, "DFT tables need a non-empty signal");
        let m = n / 2 + 1;
        let mut cre = vec![0.0f32; m * n];
        let mut cim = vec![0.0f32; m * n];
        let mut dre = vec![0.0f32; m * n];
        let mut dim = vec![0.0f32; m * n];
        for k in 0..m {
            // DC and the even-n Nyquist bin: fold weight 1, and irfft
            // discards their imaginary parts, so those fold rows are zero.
            let edge = k == 0 || (n.is_multiple_of(2) && k == m - 1);
            let fold = (if edge { 1.0 } else { 2.0 }) / n as f64;
            for t in 0..n {
                let theta = 2.0 * std::f64::consts::PI * ((k * t) % n) as f64 / n as f64;
                let (sin, cos) = theta.sin_cos();
                cre[k * n + t] = cos as f32;
                cim[k * n + t] = -sin as f32;
                dre[k * n + t] = (fold * cos) as f32;
                dim[k * n + t] = if edge { 0.0 } else { (-fold * sin) as f32 };
            }
        }
        DftTables {
            n,
            cre,
            cim,
            dre,
            dim,
        }
    }

    /// Rows `band` of the four tables, each a `[kb, N]` slice, in
    /// `[cre, cim, dre, dim]` order.
    fn rows(&self, band: &Range<usize>) -> [&[f32]; 4] {
        let r = band.start * self.n..band.end * self.n;
        debug_assert!(r.end <= self.cre.len(), "band past the Nyquist bin");
        [
            &self.cre[r.clone()],
            &self.cim[r.clone()],
            &self.dre[r.clone()],
            &self.dim[r],
        ]
    }
}

std::thread_local! {
    static DFT_TABLES: std::cell::RefCell<std::collections::HashMap<usize, std::rc::Rc<DftTables>>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
}

/// Run `f` with the cached tables for length `n`, building them on first
/// use (lengths in a process are few).
fn with_dft_tables<R>(n: usize, f: impl FnOnce(&DftTables) -> R) -> R {
    let tables = DFT_TABLES.with(|cache| {
        std::rc::Rc::clone(
            cache
                .borrow_mut()
                .entry(n)
                .or_insert_with(|| std::rc::Rc::new(DftTables::new(n))),
        )
    });
    f(&tables)
}

/// One learnable filter branch of the mixer.
#[derive(Clone)]
pub struct SpectralBranch {
    /// Real part of the complex filter, shape `[M, D]`.
    pub w_re: Tensor,
    /// Imaginary part of the complex filter, shape `[M, D]`.
    pub w_im: Tensor,
    /// Frequency indicator window `sigma[k]` (paper Eq. 15/16), length `M`.
    pub mask: Vec<f32>,
    /// Mixing coefficient (`1 - gamma` for DFS, `gamma` for SFS; Eq. 26).
    pub coef: f32,
}

/// Apply a single learnable frequency filter (FMLP-Rec's global filter when
/// `mask` is all ones).
pub fn spectral_filter(x: &Tensor, w_re: &Tensor, w_im: &Tensor, mask: &[f32]) -> Tensor {
    assert_eq!(
        w_re.shape(),
        w_im.shape(),
        "spectral_filter: real/imag filter shapes must match"
    );
    spectral_filter_mix(
        x,
        &[SpectralBranch {
            w_re: w_re.clone(),
            w_im: w_im.clone(),
            mask: mask.to_vec(),
            coef: 1.0,
        }],
    )
}

/// Apply a mixture of masked learnable frequency filters along the time axis
/// of a `[B, N, D]` tensor.
pub fn spectral_filter_mix(x: &Tensor, branches: &[SpectralBranch]) -> Tensor {
    let _prof = super::fwd_prof("spectral_filter_mix", x.len());
    let (b, n, d) = assert_mix_operands(x, branches);
    spectral_op(x, branches, Mix::of(branches), (b, n, d))
}

/// The full-sequence op over `mix`'s band, on operands already checked.
fn spectral_op(
    x: &Tensor,
    branches: &[SpectralBranch],
    mix: Mix,
    (b, n, d): (usize, usize, usize),
) -> Tensor {
    let parents = mix_parents(x, branches);
    let (out, xre, xim) = mix_forward(&parents, &mix, b, n, d);
    Tensor::from_op(
        NdArray::from_vec(vec![b, n, d], out),
        parents,
        Box::new(SpectralOp {
            b,
            n,
            d,
            xre: std::cell::RefCell::new(xre),
            xim: std::cell::RefCell::new(xim),
            mix,
        }),
    )
}

/// The last time step of [`spectral_filter_mix`]: `[B, N, D] -> [B, D]`,
/// equal to `index_axis(spectral_filter_mix(x, branches), 1, N - 1)` up to
/// rounding, at O(B·N·D) instead of two O(kb·N·D) transforms per plane.
pub fn spectral_filter_mix_last(x: &Tensor, branches: &[SpectralBranch]) -> Tensor {
    let _prof = super::fwd_prof("spectral_filter_mix_last", x.len());
    let (b, n, d) = assert_mix_operands(x, branches);
    let mix = Mix::of(branches);
    let parents = mix_parents(x, branches);
    let (out, kappa) = last_forward(&parents, &mix, b, n, d);
    Tensor::from_op(
        NdArray::from_vec(vec![b, d], out),
        parents,
        Box::new(SpectralLastOp {
            b,
            n,
            d,
            kappa: std::cell::RefCell::new(kappa),
            mix,
        }),
    )
}

/// Validate `x: [B, N, D]` against every branch's `[M, D]` filter and
/// length-`M` mask; returns `(B, N, D)`.
fn assert_mix_operands(x: &Tensor, branches: &[SpectralBranch]) -> (usize, usize, usize) {
    assert!(!branches.is_empty(), "need at least one filter branch");
    let shape = x.shape();
    assert_eq!(shape.len(), 3, "spectral filter expects [B, N, D]");
    let (b, n, d) = (shape[0], shape[1], shape[2]);
    assert!(n >= 1, "empty time axis");
    let m = n / 2 + 1;
    for (i, br) in branches.iter().enumerate() {
        assert_eq!(br.w_re.shape(), vec![m, d], "branch {i} w_re shape");
        assert_eq!(br.w_im.shape(), vec![m, d], "branch {i} w_im shape");
        assert_eq!(br.mask.len(), m, "branch {i} mask length");
    }
    (b, n, d)
}

/// `[x, w_re_0, w_im_0, w_re_1, w_im_1, ...]`: the op's parent list, whose
/// tail is the weight pairs [`Mix::filter`] reads.
fn mix_parents(x: &Tensor, branches: &[SpectralBranch]) -> Vec<Tensor> {
    let mut parents = Vec::with_capacity(1 + branches.len() * 2);
    parents.push(x.clone());
    for br in branches {
        parents.push(br.w_re.clone());
        parents.push(br.w_im.clone());
    }
    parents
}

/// The fixed part of a branch list — masks and coefficients — and the
/// active band they leave.
struct Mix {
    masks: Vec<Vec<f32>>,
    coefs: Vec<f32>,
    band: Range<usize>,
}

impl Mix {
    fn of(branches: &[SpectralBranch]) -> Mix {
        let masks: Vec<Vec<f32>> = branches.iter().map(|b| b.mask.clone()).collect();
        let coefs: Vec<f32> = branches.iter().map(|b| b.coef).collect();
        let band = active_band(&masks, &coefs);
        Mix { masks, coefs, band }
    }

    /// `F[k,c] = sum_i coef_i * mask_i[k] * W_i[k,c]` over the band, as
    /// `[kb, D]` planes; `weights` holds the `(w_re, w_im)` pairs.
    fn filter(&self, weights: &[Tensor], d: usize) -> (Vec<f32>, Vec<f32>) {
        debug_assert_eq!(
            weights.len(),
            2 * self.masks.len(),
            "a weight pair per mask"
        );
        let k0 = self.band.start;
        let mut fre = crate::pool::take_filled(self.band.len() * d, 0.0);
        let mut fim = crate::pool::take_filled(self.band.len() * d, 0.0);
        for ((mask, &coef), w) in self.masks.iter().zip(&self.coefs).zip(weights.chunks(2)) {
            let (wre, wim) = (w[0].data(), w[1].data());
            let (wre, wim) = (wre.data(), wim.data());
            for k in self.band.clone() {
                let a = coef * mask[k];
                if a == 0.0 {
                    continue;
                }
                let r = (k - k0) * d;
                for c in 0..d {
                    fre[r + c] += a * wre[k * d + c];
                    fim[r + c] += a * wim[k * d + c];
                }
            }
        }
        (fre, fim)
    }

    /// `grad_W_i = coef_i * mask_i[k] * grad_F[k]`, full `[M, D]` per
    /// branch (zero outside the band), from the band's `[kb, D]` `grad_F`.
    fn weight_grads(&self, dfre: &[f32], dfim: &[f32], m: usize, d: usize) -> Vec<Option<NdArray>> {
        debug_assert!(dfre.len() == self.band.len() * d && dfim.len() == dfre.len());
        let k0 = self.band.start;
        let mut grads = Vec::with_capacity(2 * self.masks.len());
        for (mask, &coef) in self.masks.iter().zip(&self.coefs) {
            let mut dwre = crate::pool::take_filled(m * d, 0.0);
            let mut dwim = crate::pool::take_filled(m * d, 0.0);
            for k in self.band.clone() {
                let a = coef * mask[k];
                if a != 0.0 {
                    let r = (k - k0) * d;
                    for c in 0..d {
                        dwre[k * d + c] = a * dfre[r + c];
                        dwim[k * d + c] = a * dfim[r + c];
                    }
                }
            }
            grads.push(Some(NdArray::from_vec(vec![m, d], dwre)));
            grads.push(Some(NdArray::from_vec(vec![m, d], dwim)));
        }
        grads
    }
}

/// The bins from the first to the last where some branch has a nonzero
/// `coef * mask[k]`; empty when no branch passes any bin. The filter is
/// exactly zero outside this range.
fn active_band(masks: &[Vec<f32>], coefs: &[f32]) -> Range<usize> {
    debug_assert_eq!(masks.len(), coefs.len(), "one coefficient per branch mask");
    let m = masks.first().map_or(0, Vec::len);
    let live = |k: &usize| {
        masks
            .iter()
            .zip(coefs)
            .any(|(mask, &c)| c * mask[*k] != 0.0)
    };
    match ((0..m).find(live), (0..m).rev().find(live)) {
        (Some(k0), Some(k1)) => k0..k1 + 1,
        _ => 0..0,
    }
}

/// Full-sequence forward body (eager construction and plan replay): the
/// band's filter, then [`spectral_transform`]. Returns `(out, xre, xim)`.
fn mix_forward(
    parents: &[Tensor],
    mix: &Mix,
    b: usize,
    n: usize,
    d: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    debug_assert_eq!(
        parents.len(),
        1 + 2 * mix.masks.len(),
        "signal plus weight pairs"
    );
    let (fre, fim) = mix.filter(&parents[1..], d);
    let data = parents[0].data();
    let res = spectral_transform(data.data(), &fre, &fim, b, n, d, &mix.band);
    drop(data);
    // F is pure scratch — hand it straight back to the buffer pool.
    crate::pool::recycle(fre);
    crate::pool::recycle(fim);
    res
}

/// `y = irfft(rfft(x) * F)` along the time axis, over the bins of `band`
/// only. Returns `(out, xre, xim)` — the output signal and the saved
/// forward spectrum planes (`[B, kb, D]`) the backward pass reads.
///
/// One chunk per `[N, D]` batch plane runs `X = C @ x`, `Y = X * F` into a
/// chunk-local `[kb, D]` scratch, then `y = dre^T @ Yre + dim^T @ Yim`;
/// the row kernels accumulate into the zeroed output, so the two matmuls
/// fold in a fixed order. The grid is a pure function of the shape, so
/// results never depend on the thread count.
#[allow(clippy::needless_range_loop)] // elementwise product across four same-shape planes
fn spectral_transform(
    src: &[f32],
    fre: &[f32],
    fim: &[f32],
    b: usize,
    n: usize,
    d: usize,
    band: &Range<usize>,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let kb = band.len();
    debug_assert!(
        src.len() == b * n * d && fre.len() == kb * d && fim.len() == kb * d,
        "signal is [b, n, d] with [kb, d] filter planes"
    );
    let mut xre = crate::pool::take_filled(b * kb * d, 0.0);
    let mut xim = crate::pool::take_filled(b * kb * d, 0.0);
    let mut out = crate::pool::take_filled(b * n * d, 0.0);
    if d == 0 || kb == 0 {
        return (out, xre, xim);
    }
    {
        let wre = UnsafeSlice::new(&mut xre);
        let wim = UnsafeSlice::new(&mut xim);
        let wout = UnsafeSlice::new(&mut out);
        slime_par::parallel_for(b, 1, |lo, hi| {
            with_dft_tables(n, |tab| {
                let [cre, cim, dre, dim] = tab.rows(band);
                let mut scratch = crate::pool::take_filled(2 * kb * d, 0.0);
                let (yre, yim) = scratch.split_at_mut(kb * d);
                for bi in lo..hi {
                    let x_plane = &src[bi * n * d..(bi + 1) * n * d];
                    // SAFETY: each batch plane is claimed by exactly one
                    // chunk, so these per-plane slices are disjoint.
                    // lint-proof(l8): wre[lo * kb * d .. hi * kb * d]
                    // lint-proof(l8): wim[lo * kb * d .. hi * kb * d]
                    // lint-proof(l8): wout[lo * n * d .. hi * n * d]
                    let ore = unsafe { wre.slice_mut(bi * kb * d, kb * d) };
                    let oim = unsafe { wim.slice_mut(bi * kb * d, kb * d) };
                    let o = unsafe { wout.slice_mut(bi * n * d, n * d) };
                    crate::ndarray::matmul_rows(cre, x_plane, ore, n, d);
                    crate::ndarray::matmul_rows(cim, x_plane, oim, n, d);
                    for i in 0..kb * d {
                        yre[i] = ore[i] * fre[i] - oim[i] * fim[i];
                        yim[i] = ore[i] * fim[i] + oim[i] * fre[i];
                    }
                    crate::ndarray::matmul_tn_rows(dre, yre, o, 0, kb, n, d);
                    crate::ndarray::matmul_tn_rows(dim, yim, o, 0, kb, n, d);
                }
                crate::pool::recycle(scratch);
            });
        });
    }
    (out, xre, xim)
}

struct SpectralOp {
    b: usize,
    n: usize,
    d: usize,
    /// Saved forward spectrum over the band, `[B, kb, D]` planes
    /// (refreshed on replay).
    xre: std::cell::RefCell<Vec<f32>>,
    xim: std::cell::RefCell<Vec<f32>>,
    mix: Mix,
}

impl Op for SpectralOp {
    #[allow(clippy::needless_range_loop)] // strided gather/scatter over (b, k, c) planes
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let (b, n, d) = (self.b, self.n, self.d);
        let band = &self.mix.band;
        let kb = band.len();
        let g = grad.data();
        debug_assert_eq!(g.len(), b * n * d, "grad is [b, n, d]");

        // Recompute F from the (unchanged) parent weights.
        let (fre, fim) = self.mix.filter(&parents[1..], d);

        // One chunk per batch plane. `G = (c_k/N) rfft(grad_y)` is the
        // irfft fold tables applied untransposed — `Gre = dre @ grad_y`,
        // `Gim = dim @ grad_y` — with the zeroed `dim` rows supplying the
        // "no gradient to discarded imaginary parts" rule. Then
        // `grad_X = G * conj(F)` goes into a chunk-local `[kb, D]` scratch
        // and the rfft adjoint is the transposed forward tables:
        // `grad_x = cre^T @ Zre + cim^T @ Zim`, accumulated in a fixed
        // order. `matmul_tn_rows` reads every transpose in place.
        let mut gre = crate::pool::take_filled(b * kb * d, 0.0);
        let mut gim = crate::pool::take_filled(b * kb * d, 0.0);
        let mut dx = crate::pool::take_filled(b * n * d, 0.0);
        if d > 0 && kb > 0 {
            let wre = UnsafeSlice::new(&mut gre);
            let wim = UnsafeSlice::new(&mut gim);
            let wdx = UnsafeSlice::new(&mut dx);
            let (fre, fim) = (&fre, &fim);
            slime_par::parallel_for(b, 1, |lo, hi| {
                with_dft_tables(n, |tab| {
                    let [cre, cim, dre, dim] = tab.rows(band);
                    let mut scratch = crate::pool::take_filled(2 * kb * d, 0.0);
                    let (zre, zim) = scratch.split_at_mut(kb * d);
                    for bi in lo..hi {
                        let g_plane = &g[bi * n * d..(bi + 1) * n * d];
                        // SAFETY: disjoint per-plane slices (one chunk per
                        // batch index).
                        // lint-proof(l8): wre[lo * kb * d .. hi * kb * d]
                        // lint-proof(l8): wim[lo * kb * d .. hi * kb * d]
                        // lint-proof(l8): wdx[lo * n * d .. hi * n * d]
                        let ore = unsafe { wre.slice_mut(bi * kb * d, kb * d) };
                        let oim = unsafe { wim.slice_mut(bi * kb * d, kb * d) };
                        let o = unsafe { wdx.slice_mut(bi * n * d, n * d) };
                        crate::ndarray::matmul_rows(dre, g_plane, ore, n, d);
                        crate::ndarray::matmul_rows(dim, g_plane, oim, n, d);
                        for i in 0..kb * d {
                            zre[i] = ore[i] * fre[i] + oim[i] * fim[i];
                            zim[i] = oim[i] * fre[i] - ore[i] * fim[i];
                        }
                        crate::ndarray::matmul_tn_rows(cre, zre, o, 0, kb, n, d);
                        crate::ndarray::matmul_tn_rows(cim, zim, o, 0, kb, n, d);
                    }
                    crate::pool::recycle(scratch);
                });
            });
        }

        // grad_F[k,c] = sum_b G * conj(X). Parallel over the band's rows:
        // each chunk owns the rows `k0..k1` of the accumulator outright and
        // sums its batch contributions in ascending-`bi` order — the same
        // order as the serial loop — so the reduction is bitwise stable
        // regardless of thread count.
        let mut dfre = crate::pool::take_filled(kb * d, 0.0);
        let mut dfim = crate::pool::take_filled(kb * d, 0.0);
        let xre_guard = self.xre.borrow();
        let xim_guard = self.xim.borrow();
        let (xre, xim): (&[f32], &[f32]) = (&xre_guard, &xim_guard);
        {
            let wdre = UnsafeSlice::new(&mut dfre);
            let wdim = UnsafeSlice::new(&mut dfim);
            let (gre, gim) = (&gre, &gim);
            let rows_per_chunk = (POINTS_PER_CHUNK / (b * d).max(1)).max(1);
            slime_par::parallel_for(kb, rows_per_chunk, |k0, k1| {
                // SAFETY: chunks partition `0..kb`, so these row ranges are
                // disjoint across tasks.
                // lint-proof(l8): wdre[k0 * d .. k1 * d]
                // lint-proof(l8): wdim[k0 * d .. k1 * d]
                let dre = unsafe { wdre.slice_mut(k0 * d, (k1 - k0) * d) };
                let dim = unsafe { wdim.slice_mut(k0 * d, (k1 - k0) * d) };
                for bi in 0..b {
                    for k in k0..k1 {
                        for c in 0..d {
                            let i = (bi * kb + k) * d + c;
                            let w = (k - k0) * d + c;
                            dre[w] += gre[i] * xre[i] + gim[i] * xim[i];
                            dim[w] += gim[i] * xre[i] - gre[i] * xim[i];
                        }
                    }
                }
            });
        }

        let mut grads: Vec<Option<NdArray>> = vec![Some(NdArray::from_vec(vec![b, n, d], dx))];
        grads.extend(self.mix.weight_grads(&dfre, &dfim, n / 2 + 1, d));
        // Everything else was backward-local scratch; recycle it.
        for buf in [gre, gim, fre, fim, dfre, dfim] {
            crate::pool::recycle(buf);
        }
        grads
    }
    fn name(&self) -> &'static str {
        "spectral_filter_mix"
    }
    fn replayable(&self) -> bool {
        true
    }
    fn replay(&self, parents: &[Tensor], _ctx: &mut crate::plan::ReplayCtx) -> Option<NdArray> {
        debug_assert_eq!(
            parents.len(),
            1 + 2 * self.mix.masks.len(),
            "signal plus weight pairs"
        );
        let _prof = super::fwd_prof("spectral_filter_mix", parents[0].len());
        let (b, n, d) = (self.b, self.n, self.d);
        let (out, xre, xim) = mix_forward(parents, &self.mix, b, n, d);
        crate::pool::recycle(std::mem::replace(&mut *self.xre.borrow_mut(), xre));
        crate::pool::recycle(std::mem::replace(&mut *self.xim.borrow_mut(), xim));
        Some(NdArray::from_vec(vec![b, n, d], out))
    }
}

impl Drop for SpectralOp {
    fn drop(&mut self) {
        // The saved spectrum planes are plain `Vec`s (not `NdArray`s), so
        // recycle them by hand when the graph node dies.
        crate::pool::recycle(self.xre.take());
        crate::pool::recycle(self.xim.take());
    }
}

/// Batch planes per parallel task of the last-row op's per-plane passes.
fn planes_per_chunk(n: usize, d: usize) -> usize {
    (LAST_ROW_POINTS_PER_CHUNK / (n * d).max(1)).max(1)
}

/// Last-row forward body (eager construction and plan replay): the
/// kernel `kappa = irfft(F)` (`[N, D]`), then the per-plane correlation
/// with it. Returns `(out, kappa)`; the backward pass reads `kappa`.
fn last_forward(
    parents: &[Tensor],
    mix: &Mix,
    b: usize,
    n: usize,
    d: usize,
) -> (Vec<f32>, Vec<f32>) {
    debug_assert_eq!(
        parents.len(),
        1 + 2 * mix.masks.len(),
        "signal plus weight pairs"
    );
    let kb = mix.band.len();
    let mut kappa = crate::pool::take_filled(n * d, 0.0);
    if d > 0 && kb > 0 {
        // kappa = dre^T @ Fre + dim^T @ Fim over the band: the irfft of the
        // filter, with the same conjugate-symmetry projection as the
        // full-sequence path.
        let (fre, fim) = mix.filter(&parents[1..], d);
        with_dft_tables(n, |tab| {
            let [_, _, dre, dim] = tab.rows(&mix.band);
            crate::ndarray::matmul_tn_kernel(dre, &fre, &mut kappa, n, kb, d);
            crate::ndarray::matmul_tn_kernel(dim, &fim, &mut kappa, n, kb, d);
        });
        crate::pool::recycle(fre);
        crate::pool::recycle(fim);
    }

    // y[b, c] = sum_t x[b, t, c] * kappa[N-1-t, c], t ascending.
    let src = parents[0].data();
    let src = src.data();
    debug_assert_eq!(src.len(), b * n * d, "signal is [b, n, d]");
    let mut out = crate::pool::take_filled(b * d, 0.0);
    if d > 0 {
        let w = UnsafeSlice::new(&mut out);
        let kappa = &kappa;
        slime_par::parallel_for(b, planes_per_chunk(n, d), |lo, hi| {
            // SAFETY: chunks partition the batch planes, so these output
            // row ranges are disjoint across tasks.
            // lint-proof(l8): w[lo * d .. hi * d]
            let o = unsafe { w.slice_mut(lo * d, (hi - lo) * d) };
            for (row, plane) in o
                .chunks_exact_mut(d)
                .zip(src[lo * n * d..hi * n * d].chunks_exact(n * d))
            {
                for (xt, kt) in plane.chunks_exact(d).zip(kappa.chunks_exact(d).rev()) {
                    for ((y, &xv), &kv) in row.iter_mut().zip(xt).zip(kt) {
                        *y += xv * kv;
                    }
                }
            }
        });
    }
    (out, kappa)
}

struct SpectralLastOp {
    b: usize,
    n: usize,
    d: usize,
    /// `kappa = irfft(F)`, `[N, D]` (refreshed on replay).
    kappa: std::cell::RefCell<Vec<f32>>,
    mix: Mix,
}

impl Op for SpectralLastOp {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let (b, n, d) = (self.b, self.n, self.d);
        let kb = self.mix.band.len();
        let g = grad.data();
        debug_assert_eq!(g.len(), b * d, "grad is [b, d]");
        let kappa_guard = self.kappa.borrow();
        let kappa: &[f32] = &kappa_guard;
        let x = parents[0].data();
        let x = x.data();
        debug_assert_eq!(x.len(), b * n * d, "signal is [b, n, d]");

        let mut dx = crate::pool::take_filled(b * n * d, 0.0);
        let mut gk = crate::pool::take_filled(n * d, 0.0);
        if d > 0 {
            // grad_x[b, t, c] = g[b, c] * kappa[N-1-t, c], per batch plane.
            let wdx = UnsafeSlice::new(&mut dx);
            slime_par::parallel_for(b, planes_per_chunk(n, d), |lo, hi| {
                // SAFETY: chunks partition the batch planes.
                // lint-proof(l8): wdx[lo * n * d .. hi * n * d]
                let o = unsafe { wdx.slice_mut(lo * n * d, (hi - lo) * n * d) };
                for (plane, gb) in o
                    .chunks_exact_mut(n * d)
                    .zip(g[lo * d..hi * d].chunks_exact(d))
                {
                    for (ot, kt) in plane.chunks_exact_mut(d).zip(kappa.chunks_exact(d).rev()) {
                        for ((o, &gv), &kv) in ot.iter_mut().zip(gb).zip(kt) {
                            *o = gv * kv;
                        }
                    }
                }
            });

            // grad_kappa[j, c] = sum_b g[b, c] * x[b, N-1-j, c]. Parallel
            // over kappa rows: each chunk owns rows `j0..j1` outright and
            // sums batch contributions in ascending `bi`, so the bits never
            // depend on the thread count.
            let wgk = UnsafeSlice::new(&mut gk);
            let rows_per_chunk = (POINTS_PER_CHUNK / (b * d).max(1)).max(1);
            slime_par::parallel_for(n, rows_per_chunk, |j0, j1| {
                // SAFETY: chunks partition `0..n`.
                // lint-proof(l8): wgk[j0 * d .. j1 * d]
                let o = unsafe { wgk.slice_mut(j0 * d, (j1 - j0) * d) };
                for (gb, plane) in g.chunks_exact(d).zip(x.chunks_exact(n * d)) {
                    for (j, oj) in (j0..j1).zip(o.chunks_exact_mut(d)) {
                        let xt = &plane[(n - 1 - j) * d..(n - j) * d];
                        for ((o, &gv), &xv) in oj.iter_mut().zip(gb).zip(xt) {
                            *o += gv * xv;
                        }
                    }
                }
            });
        }

        // grad_F = dre @ grad_kappa, dim @ grad_kappa over the band: the
        // transpose of the kernel's irfft.
        let mut dfre = crate::pool::take_filled(kb * d, 0.0);
        let mut dfim = crate::pool::take_filled(kb * d, 0.0);
        if d > 0 && kb > 0 {
            with_dft_tables(n, |tab| {
                let [_, _, dre, dim] = tab.rows(&self.mix.band);
                crate::ndarray::matmul_kernel(dre, &gk, &mut dfre, kb, n, d);
                crate::ndarray::matmul_kernel(dim, &gk, &mut dfim, kb, n, d);
            });
        }

        let mut grads: Vec<Option<NdArray>> = vec![Some(NdArray::from_vec(vec![b, n, d], dx))];
        grads.extend(self.mix.weight_grads(&dfre, &dfim, n / 2 + 1, d));
        for buf in [gk, dfre, dfim] {
            crate::pool::recycle(buf);
        }
        grads
    }
    fn name(&self) -> &'static str {
        "spectral_filter_mix_last"
    }
    fn replayable(&self) -> bool {
        true
    }
    fn replay(&self, parents: &[Tensor], _ctx: &mut crate::plan::ReplayCtx) -> Option<NdArray> {
        debug_assert_eq!(
            parents.len(),
            1 + 2 * self.mix.masks.len(),
            "signal plus weight pairs"
        );
        let _prof = super::fwd_prof("spectral_filter_mix_last", parents[0].len());
        let (b, n, d) = (self.b, self.n, self.d);
        let (out, kappa) = last_forward(parents, &self.mix, b, n, d);
        crate::pool::recycle(std::mem::replace(&mut *self.kappa.borrow_mut(), kappa));
        Some(NdArray::from_vec(vec![b, d], out))
    }
}

impl Drop for SpectralLastOp {
    fn drop(&mut self) {
        crate::pool::recycle(self.kappa.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{mul, sum_all};
    use slime_fft::{with_cached_plan, Complex32};

    fn ones_branch(m: usize, d: usize) -> SpectralBranch {
        SpectralBranch {
            w_re: Tensor::param(NdArray::ones(vec![m, d])),
            w_im: Tensor::param(NdArray::zeros(vec![m, d])),
            mask: vec![1.0; m],
            coef: 1.0,
        }
    }

    #[test]
    fn identity_filter_is_identity() {
        // W = 1 + 0i with full mask leaves the signal unchanged.
        let (bsz, n, d) = (2, 8, 3);
        let m = n / 2 + 1;
        let x = Tensor::param(NdArray::from_vec(
            vec![bsz, n, d],
            (0..bsz * n * d).map(|i| (i as f32 * 0.37).sin()).collect(),
        ));
        let y = spectral_filter_mix(&x, &[ones_branch(m, d)]);
        for (a, b) in y.value().data().iter().zip(x.value().data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_mask_zeroes_output() {
        let (bsz, n, d) = (1, 6, 2);
        let m = n / 2 + 1;
        let mut br = ones_branch(m, d);
        br.mask = vec![0.0; m];
        let x = Tensor::param(NdArray::ones(vec![bsz, n, d]));
        let y = spectral_filter_mix(&x, &[br]);
        for v in y.value().data() {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn dc_only_mask_averages() {
        // Keeping only bin 0 projects each channel onto its mean.
        let (bsz, n, d) = (1, 4, 1);
        let m = n / 2 + 1;
        let mut br = ones_branch(m, d);
        br.mask = vec![1.0, 0.0, 0.0];
        let x = Tensor::param(NdArray::from_vec(vec![bsz, n, d], vec![1., 2., 3., 6.]));
        let y = spectral_filter_mix(&x, &[br]);
        for v in y.value().data() {
            assert!((v - 3.0).abs() < 1e-4, "{v}");
        }
    }

    #[test]
    fn two_branch_mix_is_linear() {
        let (bsz, n, d) = (1, 8, 2);
        let m = n / 2 + 1;
        let x = Tensor::param(NdArray::from_vec(
            vec![bsz, n, d],
            (0..bsz * n * d).map(|i| (i as f32 * 0.9).cos()).collect(),
        ));
        let gamma = 0.25;
        let b1 = SpectralBranch {
            coef: 1.0 - gamma,
            ..ones_branch(m, d)
        };
        let b2 = SpectralBranch {
            coef: gamma,
            ..ones_branch(m, d)
        };
        let mixed = spectral_filter_mix(&x, &[b1.clone(), b2]);
        let only1 = spectral_filter_mix(&x, &[SpectralBranch { coef: 1.0, ..b1 }]);
        // Since both filters are identical, the gamma-mix equals either branch alone.
        for (a, b) in mixed.value().data().iter().zip(only1.value().data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_flow_to_weights_and_input() {
        let (bsz, n, d) = (2, 6, 2);
        let m = n / 2 + 1;
        let br = ones_branch(m, d);
        let x = Tensor::param(NdArray::from_vec(
            vec![bsz, n, d],
            (0..bsz * n * d).map(|i| (i as f32 * 0.21).sin()).collect(),
        ));
        let w = Tensor::constant(NdArray::from_vec(
            vec![bsz, n, d],
            (0..bsz * n * d).map(|i| (i as f32 * 1.7).cos()).collect(),
        ));
        let y = spectral_filter_mix(&x, std::slice::from_ref(&br));
        sum_all(&mul(&y, &w)).backward();
        assert!(x.grad().is_some());
        assert!(br.w_re.grad().is_some());
        assert!(br.w_im.grad().is_some());
        let gw = br.w_re.grad().unwrap();
        assert!(gw.data().iter().any(|v| v.abs() > 1e-6));
    }

    #[test]
    fn masked_bins_receive_no_weight_gradient() {
        let (bsz, n, d) = (1, 8, 1);
        let m = n / 2 + 1;
        let mut br = ones_branch(m, d);
        br.mask = vec![0.0, 1.0, 1.0, 0.0, 0.0];
        let x = Tensor::param(NdArray::from_vec(
            vec![bsz, n, d],
            (0..n).map(|i| (i as f32).sin()).collect(),
        ));
        let y = spectral_filter_mix(&x, std::slice::from_ref(&br));
        sum_all(&mul(&y, &y)).backward();
        let g = br.w_re.grad().unwrap();
        assert_eq!(g.data()[0], 0.0);
        assert_eq!(g.data()[3], 0.0);
        assert_eq!(g.data()[4], 0.0);
        assert!(g.data()[1].abs() > 0.0 || g.data()[2].abs() > 0.0);
    }

    #[test]
    fn dft_tables_match_fft_plan_and_roundtrip() {
        // The cached-table matmuls compute the same rfft as the FFT plan,
        // and the irfft fold tables invert it (even and odd n, so both
        // Nyquist conventions are covered, up to the longest paper length
        // and past it).
        for n in [4usize, 7, 50, 150, 200, 256] {
            let m = n / 2 + 1;
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
            let tab = DftTables::new(n);
            let mut xre = vec![0.0f32; m];
            let mut xim = vec![0.0f32; m];
            crate::ndarray::matmul_rows(&tab.cre, &x, &mut xre, n, 1);
            crate::ndarray::matmul_rows(&tab.cim, &x, &mut xim, n, 1);
            with_cached_plan(n, |plan| {
                let mut buf: Vec<Complex32> = x.iter().map(|&v| Complex32::new(v, 0.0)).collect();
                plan.forward(&mut buf);
                for k in 0..m {
                    assert!((xre[k] - buf[k].re).abs() < 1e-3, "n={n} re bin {k}");
                    assert!((xim[k] - buf[k].im).abs() < 1e-3, "n={n} im bin {k}");
                }
            });
            let mut y = vec![0.0f32; n];
            crate::ndarray::matmul_tn_rows(&tab.dre, &xre, &mut y, 0, m, n, 1);
            crate::ndarray::matmul_tn_rows(&tab.dim, &xim, &mut y, 0, m, n, 1);
            for (t, (a, b)) in y.iter().zip(&x).enumerate() {
                assert!((a - b).abs() < 1e-4, "n={n} roundtrip t={t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn long_sequences_filter_is_identity() {
        // ML-1M length (n = 200): the identity filter must still be the
        // identity and gradients must still flow.
        let (bsz, n, d) = (1, 200, 2);
        let m = n / 2 + 1;
        let x = Tensor::param(NdArray::from_vec(
            vec![bsz, n, d],
            (0..bsz * n * d).map(|i| (i as f32 * 0.13).sin()).collect(),
        ));
        let y = spectral_filter_mix(&x, &[ones_branch(m, d)]);
        for (a, b) in y.value().data().iter().zip(x.value().data()) {
            assert!((a - b).abs() < 2e-3, "{a} vs {b}");
        }
        sum_all(&mul(&y, &y)).backward();
        assert!(x.grad().is_some());
    }

    #[test]
    fn filter_mix_is_bitwise_stable_across_thread_counts() {
        // Forward output and every gradient at [3, 200, 8] must not depend
        // on how many threads split the per-plane grid.
        let (bsz, n, d) = (3, 200, 8);
        let m = n / 2 + 1;
        let run = || {
            let x = Tensor::param(NdArray::from_vec(
                vec![bsz, n, d],
                (0..bsz * n * d).map(|i| (i as f32 * 0.31).sin()).collect(),
            ));
            let br = SpectralBranch {
                w_re: Tensor::param(NdArray::from_vec(
                    vec![m, d],
                    (0..m * d).map(|i| (i as f32 * 0.17).cos()).collect(),
                )),
                w_im: Tensor::param(NdArray::from_vec(
                    vec![m, d],
                    (0..m * d).map(|i| (i as f32 * 0.23).sin()).collect(),
                )),
                mask: (0..m).map(|k| if k % 3 == 0 { 0.0 } else { 1.0 }).collect(),
                coef: 0.75,
            };
            let y = spectral_filter_mix(&x, std::slice::from_ref(&br));
            sum_all(&mul(&y, &y)).backward();
            let bits = |a: NdArray| a.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            [
                bits(y.value()),
                bits(x.grad().unwrap()),
                bits(br.w_re.grad().unwrap()),
                bits(br.w_im.grad().unwrap()),
            ]
        };
        let prev = slime_par::num_threads();
        slime_par::set_threads(1);
        let one = run();
        slime_par::set_threads(2);
        let two = run();
        slime_par::set_threads(prev);
        assert!(one == two, "results differ between 1 and 2 threads");
    }

    fn ramp(len: usize, scale: f32, phase: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32 + phase) * scale).sin())
            .collect()
    }

    /// Two masked branches at `gamma = 0.3` over `[m, d]` filters.
    fn two_branches(m: usize, d: usize, mask_d: Vec<f32>, mask_s: Vec<f32>) -> [SpectralBranch; 2] {
        let param = |phase| Tensor::param(NdArray::from_vec(vec![m, d], ramp(m * d, 0.29, phase)));
        [
            SpectralBranch {
                w_re: param(0.0),
                w_im: param(1.0),
                mask: mask_d,
                coef: 0.7,
            },
            SpectralBranch {
                w_re: param(2.0),
                w_im: param(3.0),
                mask: mask_s,
                coef: 0.3,
            },
        ]
    }

    /// Indicator of the bins `lo..hi` out of `m`.
    fn window(m: usize, lo: usize, hi: usize) -> Vec<f32> {
        (0..m)
            .map(|k| if (lo..hi).contains(&k) { 1.0 } else { 0.0 })
            .collect()
    }

    fn assert_close(a: &NdArray, b: &NdArray, tol: f32, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shapes");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!((x - y).abs() <= tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    /// Forward and every gradient of `sum(y * w)` for a `y` built by `op`.
    fn value_and_grads(
        x: &Tensor,
        branches: &[SpectralBranch],
        op: impl Fn(&Tensor, &[SpectralBranch]) -> Tensor,
    ) -> Vec<NdArray> {
        for t in std::iter::once(x).chain(branches.iter().flat_map(|b| [&b.w_re, &b.w_im])) {
            t.zero_grad();
        }
        let y = op(x, branches);
        let w = Tensor::constant(NdArray::from_vec(y.shape(), ramp(y.len(), 0.77, 0.5)));
        sum_all(&mul(&y, &w)).backward();
        let mut out = vec![y.value(), x.grad().unwrap()];
        for br in branches {
            out.push(br.w_re.grad().unwrap());
            out.push(br.w_im.grad().unwrap());
        }
        out
    }

    #[test]
    fn last_row_matches_the_full_transform_at_the_last_step() {
        // Even and odd n, up to the ML-1M length, with a partial band
        // (the two windows leave the low bins out) and a full one.
        for n in [7usize, 8, 50, 200] {
            let (bsz, d) = (3, 4);
            let m = n / 2 + 1;
            for (lo_d, lo_s) in [(m / 2, m / 3), (1, 0)] {
                let branches = two_branches(m, d, window(m, lo_d, m), window(m, lo_s, m / 2 + 1));
                let x = Tensor::param(NdArray::from_vec(
                    vec![bsz, n, d],
                    ramp(bsz * n * d, 0.13, 0.0),
                ));
                let last = value_and_grads(&x, &branches, spectral_filter_mix_last);
                let full = value_and_grads(&x, &branches, |x, br| {
                    crate::ops::index_axis(&spectral_filter_mix(x, br), 1, n - 1)
                });
                for (i, (a, b)) in last.iter().zip(&full).enumerate() {
                    assert_close(a, b, 2e-4, &format!("n={n} lo=({lo_d},{lo_s}) output {i}"));
                }
            }
        }
    }

    /// `spectral_filter_mix` with its band forced to `band`.
    fn mix_over_band(x: &Tensor, branches: &[SpectralBranch], band: Range<usize>) -> Tensor {
        let shape = assert_mix_operands(x, branches);
        let mix = Mix {
            band,
            ..Mix::of(branches)
        };
        spectral_op(x, branches, mix, shape)
    }

    #[test]
    fn active_band_bounds_every_live_bin() {
        let m = 101;
        // Slide mode 4 at N = 200, layer 0 of 2: both windows in the top half.
        let masks = vec![window(m, 50, 101), window(m, 51, 101)];
        assert_eq!(active_band(&masks, &[0.6, 0.4]), 50..101);
        // A zero coefficient retires its branch's window.
        assert_eq!(active_band(&masks, &[0.0, 1.0]), 51..101);
        // Disjoint windows: the band spans the gap between them.
        let split = vec![window(m, 0, 10), window(m, 90, 95)];
        assert_eq!(active_band(&split, &[0.5, 0.5]), 0..95);
        assert!(active_band(&[vec![0.0; m]], &[1.0]).is_empty());
    }

    #[test]
    fn band_matches_the_full_transform() {
        let (bsz, n, d) = (2, 50, 3);
        let m = n / 2 + 1;
        // A mode-4-like pair (both windows high: band 13..26), a mode-1-like
        // pair (DFS high, SFS low: full band) and an all-zero pair.
        let pairs = [
            (window(m, 13, m), window(m, 17, m)),
            (window(m, 10, m), window(m, 0, 13)),
            (vec![0.0; m], vec![0.0; m]),
        ];
        for (mask_d, mask_s) in pairs {
            let branches = two_branches(m, d, mask_d, mask_s);
            let x = Tensor::param(NdArray::from_vec(
                vec![bsz, n, d],
                ramp(bsz * n * d, 0.41, 0.0),
            ));
            let band = Mix::of(&branches).band;
            let banded = value_and_grads(&x, &branches, spectral_filter_mix);
            let full = value_and_grads(&x, &branches, |x, br| mix_over_band(x, br, 0..m));
            for (i, (a, b)) in banded.iter().zip(&full).enumerate() {
                assert_close(a, b, 1e-5, &format!("band {band:?} output {i}"));
            }
            if band.is_empty() {
                assert!(banded.iter().all(|a| a.data().iter().all(|&v| v == 0.0)));
            }
        }
    }

    #[test]
    fn filter_mix_last_is_bitwise_stable_across_thread_counts() {
        // 90 planes of [200, 8] split into several chunks on every pass
        // (planes, kappa rows and the kernel's own row grid).
        let (bsz, n, d) = (90, 200, 8);
        let m = n / 2 + 1;
        let run = || {
            let branches = two_branches(m, d, window(m, 50, m), window(m, 51, m));
            let x = Tensor::param(NdArray::from_vec(
                vec![bsz, n, d],
                ramp(bsz * n * d, 0.31, 0.0),
            ));
            let bits = |a: &NdArray| a.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            value_and_grads(&x, &branches, spectral_filter_mix_last)
                .iter()
                .map(bits)
                .collect::<Vec<_>>()
        };
        let prev = slime_par::num_threads();
        slime_par::set_threads(1);
        let one = run();
        slime_par::set_threads(2);
        let two = run();
        slime_par::set_threads(prev);
        assert!(one == two, "results differ between 1 and 2 threads");
    }

    #[test]
    fn odd_length_sequences_work() {
        let (bsz, n, d) = (1, 7, 2);
        let m = n / 2 + 1;
        let x = Tensor::param(NdArray::from_vec(
            vec![bsz, n, d],
            (0..bsz * n * d).map(|i| i as f32 * 0.1).collect(),
        ));
        let y = spectral_filter_mix(&x, &[ones_branch(m, d)]);
        for (a, b) in y.value().data().iter().zip(x.value().data()) {
            assert!((a - b).abs() < 1e-4);
        }
        sum_all(&y).backward();
        assert!(x.grad().is_some());
    }
}
