//! The fused frequency-domain filter op at the heart of SLIME4Rec.
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
//! parallel chunk.

use slime_par::UnsafeSlice;

use crate::ndarray::NdArray;
use crate::tensor::{Op, Tensor};

/// Spectrum elements per parallel task of the `grad_F` reduction over
/// frequency rows. A pure function of the shape, so the chunk grid — and
/// therefore the result bits — never depend on the thread count.
const POINTS_PER_CHUNK: usize = 4096;

/// Cached rfft/irfft coefficient tables for one sequence length.
///
/// With `theta(k, t) = 2 pi (k * t mod n) / n` (reduced mod `n` in f64 so
/// the angle stays accurate) and the irfft fold weights `c_k / n`
/// (`c_k = 1` at DC and the even-`n` Nyquist bin, else 2):
///
/// * `cre[k * n + t] =  cos(theta)`, `cim[k * n + t] = -sin(theta)`:
///   `X = rfft(x)` is `Xre = cre @ x`, `Xim = cim @ x` per `[N, D]` plane.
/// * `dre[t * m + k] = (c_k / n) cos(theta)`, `dim[t * m + k] =
///   -(c_k / n) sin(theta)`: `y = irfft(Y)` is `dre @ Yre + dim @ Yim`.
///   The `dim` columns at DC and the even-`n` Nyquist bin are exactly
///   zero — the conjugate-symmetry projection that discards those
///   imaginary parts.
///
/// The backward transforms are the transposes of these same tables (see
/// `SpectralOp::backward`), which the `matmul_tn_rows` kernel reads in
/// place.
///
/// Each transform costs O(N^2) per (batch, channel) pair against an FFT's
/// O(N log N), but runs at vector width through the blocked row kernel
/// with no per-pair plan lookup or scratch; the tables hold `4 * M * N`
/// floats (~320 KB at N = 200) per thread and length.
struct DftTables {
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
        let mut dre = vec![0.0f32; n * m];
        let mut dim = vec![0.0f32; n * m];
        for k in 0..m {
            let ck = if k == 0 || (n % 2 == 0 && k == m - 1) {
                1.0
            } else {
                2.0
            };
            let fold = ck / n as f64;
            // Imaginary parts of the DC and even-n Nyquist bins are
            // discarded by irfft; their fold columns are exactly zero.
            let im_dropped = k == 0 || (n % 2 == 0 && k == m - 1);
            for t in 0..n {
                let theta = 2.0 * std::f64::consts::PI * ((k * t) % n) as f64 / n as f64;
                let (sin, cos) = theta.sin_cos();
                cre[k * n + t] = cos as f32;
                cim[k * n + t] = -sin as f32;
                dre[t * m + k] = (fold * cos) as f32;
                dim[t * m + k] = if im_dropped {
                    0.0
                } else {
                    (-fold * sin) as f32
                };
            }
        }
        DftTables { cre, cim, dre, dim }
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
#[allow(clippy::needless_range_loop)] // strided gather/scatter over (b, k, c) planes
pub fn spectral_filter_mix(x: &Tensor, branches: &[SpectralBranch]) -> Tensor {
    let _prof = super::fwd_prof("spectral_filter_mix", x.len());
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

    let (fre, fim) = effective_filter(branches, m, d);
    let data = x.data();
    let (out, xre, xim) = spectral_transform(data.data(), &fre, &fim, b, n, d, m);
    drop(data);

    // F is pure scratch — hand it straight back to the buffer pool.
    crate::pool::recycle(fre);
    crate::pool::recycle(fim);

    let mut parents = Vec::with_capacity(1 + branches.len() * 2);
    parents.push(x.clone());
    for br in branches {
        parents.push(br.w_re.clone());
        parents.push(br.w_im.clone());
    }
    Tensor::from_op(
        NdArray::from_vec(vec![b, n, d], out),
        parents,
        Box::new(SpectralOp {
            b,
            n,
            d,
            xre: std::cell::RefCell::new(xre),
            xim: std::cell::RefCell::new(xim),
            masks: branches.iter().map(|br| br.mask.clone()).collect(),
            coefs: branches.iter().map(|br| br.coef).collect(),
        }),
    )
}

/// Shared transform body (eager construction and plan replay):
/// `y = irfft(rfft(x) * F)` along the time axis. Returns
/// `(out, xre, xim)` — the output signal and the saved forward spectrum
/// planes the backward pass reads.
///
/// One chunk per `[N, D]` batch plane runs `X = C @ x`, `Y = X * F` into a
/// chunk-local `[M, D]` scratch, then `y = dre @ Yre + dim @ Yim`; the row
/// kernel accumulates into the zeroed output, so the two matmuls fold in a
/// fixed order. The grid is a pure function of the shape, so results never
/// depend on the thread count.
#[allow(clippy::needless_range_loop)] // elementwise product across four same-shape planes
fn spectral_transform(
    src: &[f32],
    fre: &[f32],
    fim: &[f32],
    b: usize,
    n: usize,
    d: usize,
    m: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    debug_assert!(
        src.len() == b * n * d && fre.len() == m * d && fim.len() == m * d,
        "signal is [b, n, d] with [m, d] filter planes"
    );
    let mut xre = crate::pool::take_filled(b * m * d, 0.0);
    let mut xim = crate::pool::take_filled(b * m * d, 0.0);
    let mut out = crate::pool::take_filled(b * n * d, 0.0);
    if d == 0 {
        return (out, xre, xim);
    }
    {
        let wre = UnsafeSlice::new(&mut xre);
        let wim = UnsafeSlice::new(&mut xim);
        let wout = UnsafeSlice::new(&mut out);
        slime_par::parallel_for(b, 1, |lo, hi| {
            with_dft_tables(n, |tab| {
                let mut scratch = crate::pool::take_filled(2 * m * d, 0.0);
                let (yre, yim) = scratch.split_at_mut(m * d);
                for bi in lo..hi {
                    let x_plane = &src[bi * n * d..(bi + 1) * n * d];
                    // SAFETY: each batch plane is claimed by exactly one
                    // chunk, so these per-plane slices are disjoint.
                    // lint-proof(l8): wre[lo * m * d .. hi * m * d]
                    // lint-proof(l8): wim[lo * m * d .. hi * m * d]
                    // lint-proof(l8): wout[lo * n * d .. hi * n * d]
                    let ore = unsafe { wre.slice_mut(bi * m * d, m * d) };
                    let oim = unsafe { wim.slice_mut(bi * m * d, m * d) };
                    let o = unsafe { wout.slice_mut(bi * n * d, n * d) };
                    crate::ndarray::matmul_rows(&tab.cre, x_plane, ore, n, d);
                    crate::ndarray::matmul_rows(&tab.cim, x_plane, oim, n, d);
                    for i in 0..m * d {
                        yre[i] = ore[i] * fre[i] - oim[i] * fim[i];
                        yim[i] = ore[i] * fim[i] + oim[i] * fre[i];
                    }
                    crate::ndarray::matmul_rows(&tab.dre, yre, o, m, d);
                    crate::ndarray::matmul_rows(&tab.dim, yim, o, m, d);
                }
                crate::pool::recycle(scratch);
            });
        });
    }
    (out, xre, xim)
}

/// `F[k,c] = sum_i coef_i * mask_i[k] * W_i[k,c]` from branch tensors.
fn effective_filter_from(
    masks: &[Vec<f32>],
    coefs: &[f32],
    weights: &[(NdArray, NdArray)],
    m: usize,
    d: usize,
) -> (Vec<f32>, Vec<f32>) {
    debug_assert_eq!(masks.len(), coefs.len(), "one coefficient per branch mask");
    let mut fre = crate::pool::take_filled(m * d, 0.0);
    let mut fim = crate::pool::take_filled(m * d, 0.0);
    for ((mask, &coef), (wre, wim)) in masks.iter().zip(coefs).zip(weights) {
        let wre = wre.data();
        let wim = wim.data();
        for k in 0..m {
            let a = coef * mask[k];
            if a == 0.0 {
                continue;
            }
            for c in 0..d {
                fre[k * d + c] += a * wre[k * d + c];
                fim[k * d + c] += a * wim[k * d + c];
            }
        }
    }
    (fre, fim)
}

fn effective_filter(branches: &[SpectralBranch], m: usize, d: usize) -> (Vec<f32>, Vec<f32>) {
    let masks: Vec<Vec<f32>> = branches.iter().map(|b| b.mask.clone()).collect();
    let coefs: Vec<f32> = branches.iter().map(|b| b.coef).collect();
    let weights: Vec<(NdArray, NdArray)> = branches
        .iter()
        .map(|b| (b.w_re.value(), b.w_im.value()))
        .collect();
    effective_filter_from(&masks, &coefs, &weights, m, d)
}

struct SpectralOp {
    b: usize,
    n: usize,
    d: usize,
    /// Saved forward spectrum, `[B, M, D]` planes (refreshed on replay).
    xre: std::cell::RefCell<Vec<f32>>,
    xim: std::cell::RefCell<Vec<f32>>,
    masks: Vec<Vec<f32>>,
    coefs: Vec<f32>,
}

impl Op for SpectralOp {
    #[allow(clippy::needless_range_loop)] // strided gather/scatter over (b, k, c) planes
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let (b, n, d) = (self.b, self.n, self.d);
        let m = n / 2 + 1;
        let g = grad.data();
        debug_assert_eq!(g.len(), b * n * d, "grad is [b, n, d]");

        // Recompute F from the (unchanged) parent weights.
        let weights: Vec<(NdArray, NdArray)> = parents[1..]
            .chunks(2)
            .map(|p| (p[0].value(), p[1].value()))
            .collect();
        let (fre, fim) = effective_filter_from(&self.masks, &self.coefs, &weights, m, d);

        // One chunk per batch plane. `G = (c_k/N) rfft(grad_y)` is exactly
        // the transpose of the irfft fold tables — `Gre = dre^T @ grad_y`,
        // `Gim = dim^T @ grad_y` — with the zeroed `dim` columns supplying
        // the "no gradient to discarded imaginary parts" rule. Then
        // `grad_X = G * conj(F)` goes into a chunk-local `[M, D]` scratch
        // and the rfft adjoint is the transposed forward tables:
        // `grad_x = cre^T @ Zre + cim^T @ Zim`, accumulated in a fixed
        // order. `matmul_tn_rows` reads every transpose in place.
        let mut gre = crate::pool::take_filled(b * m * d, 0.0);
        let mut gim = crate::pool::take_filled(b * m * d, 0.0);
        let mut dx = crate::pool::take_filled(b * n * d, 0.0);
        if d > 0 {
            let wre = UnsafeSlice::new(&mut gre);
            let wim = UnsafeSlice::new(&mut gim);
            let wdx = UnsafeSlice::new(&mut dx);
            let (fre, fim) = (&fre, &fim);
            slime_par::parallel_for(b, 1, |lo, hi| {
                with_dft_tables(n, |tab| {
                    let mut scratch = crate::pool::take_filled(2 * m * d, 0.0);
                    let (zre, zim) = scratch.split_at_mut(m * d);
                    for bi in lo..hi {
                        let g_plane = &g[bi * n * d..(bi + 1) * n * d];
                        // SAFETY: disjoint per-plane slices (one chunk per
                        // batch index).
                        // lint-proof(l8): wre[lo * m * d .. hi * m * d]
                        // lint-proof(l8): wim[lo * m * d .. hi * m * d]
                        // lint-proof(l8): wdx[lo * n * d .. hi * n * d]
                        let ore = unsafe { wre.slice_mut(bi * m * d, m * d) };
                        let oim = unsafe { wim.slice_mut(bi * m * d, m * d) };
                        let o = unsafe { wdx.slice_mut(bi * n * d, n * d) };
                        crate::ndarray::matmul_tn_rows(&tab.dre, g_plane, ore, 0, n, m, d);
                        crate::ndarray::matmul_tn_rows(&tab.dim, g_plane, oim, 0, n, m, d);
                        for i in 0..m * d {
                            zre[i] = ore[i] * fre[i] + oim[i] * fim[i];
                            zim[i] = oim[i] * fre[i] - ore[i] * fim[i];
                        }
                        crate::ndarray::matmul_tn_rows(&tab.cre, zre, o, 0, m, n, d);
                        crate::ndarray::matmul_tn_rows(&tab.cim, zim, o, 0, m, n, d);
                    }
                    crate::pool::recycle(scratch);
                });
            });
        }

        // grad_F[k,c] = sum_b G * conj(X). Parallel over frequency-bin rows:
        // each chunk owns the rows `k0..k1` of the accumulator outright and
        // sums its batch contributions in ascending-`bi` order — the same
        // order as the serial loop — so the reduction is bitwise stable
        // regardless of thread count.
        let mut dfre = crate::pool::take_filled(m * d, 0.0);
        let mut dfim = crate::pool::take_filled(m * d, 0.0);
        let xre_guard = self.xre.borrow();
        let xim_guard = self.xim.borrow();
        let (xre, xim): (&[f32], &[f32]) = (&xre_guard, &xim_guard);
        {
            let wdre = UnsafeSlice::new(&mut dfre);
            let wdim = UnsafeSlice::new(&mut dfim);
            let (gre, gim) = (&gre, &gim);
            let rows_per_chunk = (POINTS_PER_CHUNK / (b * d).max(1)).max(1);
            slime_par::parallel_for(m, rows_per_chunk, |k0, k1| {
                // SAFETY: chunks partition `0..m`, so these row ranges are
                // disjoint across tasks.
                // lint-proof(l8): wdre[k0 * d .. k1 * d]
                // lint-proof(l8): wdim[k0 * d .. k1 * d]
                let dre = unsafe { wdre.slice_mut(k0 * d, (k1 - k0) * d) };
                let dim = unsafe { wdim.slice_mut(k0 * d, (k1 - k0) * d) };
                for bi in 0..b {
                    for k in k0..k1 {
                        for c in 0..d {
                            let i = (bi * m + k) * d + c;
                            let w = (k - k0) * d + c;
                            dre[w] += gre[i] * xre[i] + gim[i] * xim[i];
                            dim[w] += gim[i] * xre[i] - gre[i] * xim[i];
                        }
                    }
                }
            });
        }

        let mut grads: Vec<Option<NdArray>> = vec![Some(NdArray::from_vec(vec![b, n, d], dx))];
        for (mask, &coef) in self.masks.iter().zip(&self.coefs) {
            let mut dwre = crate::pool::take_filled(m * d, 0.0);
            let mut dwim = crate::pool::take_filled(m * d, 0.0);
            for k in 0..m {
                let a = coef * mask[k];
                if a != 0.0 {
                    for c in 0..d {
                        dwre[k * d + c] = a * dfre[k * d + c];
                        dwim[k * d + c] = a * dfim[k * d + c];
                    }
                }
            }
            grads.push(Some(NdArray::from_vec(vec![m, d], dwre)));
            grads.push(Some(NdArray::from_vec(vec![m, d], dwim)));
        }
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
        let _prof = super::fwd_prof("spectral_filter_mix", parents[0].len());
        debug_assert_eq!(parents.len() % 2, 1, "signal plus (re, im) weight pairs");
        let (b, n, d) = (self.b, self.n, self.d);
        let m = n / 2 + 1;
        let weights: Vec<(NdArray, NdArray)> = parents[1..]
            .chunks(2)
            .map(|p| (p[0].value(), p[1].value()))
            .collect();
        let (fre, fim) = effective_filter_from(&self.masks, &self.coefs, &weights, m, d);
        let data = parents[0].data();
        let (out, xre, xim) = spectral_transform(data.data(), &fre, &fim, b, n, d, m);
        drop(data);
        crate::pool::recycle(fre);
        crate::pool::recycle(fim);
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
            crate::ndarray::matmul_rows(&tab.dre, &xre, &mut y, m, 1);
            crate::ndarray::matmul_rows(&tab.dim, &xim, &mut y, m, 1);
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
