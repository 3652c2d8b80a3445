//! Normalization ops: layer normalization (paper Eq. 10/28/30) and L2
//! normalization (used by the contrastive similarity).

use slime_par::UnsafeSlice;

use crate::ndarray::NdArray;
use crate::tensor::{Op, Tensor};

/// Layer normalization over the last dimension:
/// `y = (x - mean) / sqrt(var + eps) * gamma + beta`.
///
/// `gamma` and `beta` must be 1-D of the last-dim size.
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    let _prof = super::fwd_prof("layer_norm", x.len());
    let shape = x.shape();
    assert!(!shape.is_empty(), "layer_norm needs >= 1 dim");
    let d = shape[shape.len() - 1];
    assert_eq!(gamma.shape(), vec![d], "gamma shape");
    assert_eq!(beta.shape(), vec![d], "beta shape");
    let (out, xhat, inv_std) =
        layer_norm_rows(&x.data(), None, &gamma.data(), &beta.data(), eps, d);
    Tensor::from_op(
        out,
        vec![x.clone(), gamma.clone(), beta.clone()],
        Box::new(LayerNormOp {
            xhat: std::cell::RefCell::new(xhat),
            inv_std: std::cell::RefCell::new(inv_std),
            eps,
        }),
    )
}

/// The layer-norm forward of every form (eager construction and plan
/// replay alike), row-parallel on the row grid: normalizes each row of `a`,
/// or of the residual sum `a + b` when `b` is given (`add_layer_norm`, which
/// makes the sum and its statistics in one pass per row). Returns
/// `(out, xhat, inv_std)`.
pub(crate) fn layer_norm_rows(
    a: &NdArray,
    b: Option<&NdArray>,
    gamma: &NdArray,
    beta: &NdArray,
    eps: f32,
    d: usize,
) -> (NdArray, NdArray, Vec<f32>) {
    let rows = a.len() / d;
    let ad = a.data();
    let bd = b.map(NdArray::data);
    let gw = gamma.data();
    let bw = beta.data();
    debug_assert!(
        ad.len() == rows * d
            && bd.is_none_or(|bd| bd.len() == ad.len())
            && gw.len() == d
            && bw.len() == d,
        "layer_norm rows divide evenly, operands match, affine params are [d]"
    );
    let mut out = crate::pool::take_unfilled(a.len());
    let mut xhat = crate::pool::take_unfilled(a.len());
    let mut inv_std = crate::pool::take_unfilled(rows);
    let k = crate::simd::kernels();
    {
        let (wo, wx, wi) = (
            UnsafeSlice::new(&mut out),
            UnsafeSlice::new(&mut xhat),
            UnsafeSlice::new(&mut inv_std),
        );
        slime_par::parallel_for(rows, crate::grid::rows_per_chunk(d), |r0, r1| {
            // SAFETY: row chunks are disjoint, and each output is written
            // only at its rows `r0..r1`.
            // lint-proof(l8): wo[r0 * d .. r1 * d]
            // lint-proof(l8): wx[r0 * d .. r1 * d]
            // lint-proof(l8): wi[r0 .. r1]
            let o = unsafe { wo.slice_mut(r0 * d, (r1 - r0) * d) };
            let xh = unsafe { wx.slice_mut(r0 * d, (r1 - r0) * d) };
            let istd = unsafe { wi.slice_mut(r0, r1 - r0) };
            // Row scratch for the residual sum: it never leaves the row.
            let mut sum = vec![0.0f32; if bd.is_some() { d } else { 0 }];
            for r in r0..r1 {
                let (row, local) = (r * d..(r + 1) * d, (r - r0) * d..(r - r0 + 1) * d);
                let (src, (mean, var)) = match bd {
                    Some(bd) => {
                        let stats = (k.add_mean_var)(&ad[row.clone()], &bd[row], &mut sum);
                        (&sum[..], stats)
                    }
                    None => (&ad[row.clone()], (k.mean_var)(&ad[row])),
                };
                let is = 1.0 / (var + eps).sqrt();
                istd[r - r0] = is;
                (k.layernorm_affine)(src, mean, is, gw, bw, &mut xh[local.clone()], &mut o[local]);
            }
        });
    }
    let shape = a.shape().to_vec();
    (
        NdArray::from_vec(shape.clone(), out),
        NdArray::from_vec(shape, xhat),
        inv_std,
    )
}

/// The layer-norm backward of every form: `(dx, dgamma, dbeta)` from the
/// saved `xhat` and `inv_std`. `dx` is computed per row on the row grid;
/// `dgamma`/`dbeta` are leading-axis sums through [`crate::grid::fold_rows`].
/// For `add_layer_norm`, `dx` is the gradient of the residual sum, which
/// flows unchanged to both addends.
pub(crate) fn layer_norm_bwd(
    grad: &NdArray,
    xhat: &NdArray,
    inv_std: &[f32],
    gamma: &NdArray,
) -> (NdArray, NdArray, NdArray) {
    let d = gamma.len();
    let rows = xhat.len() / d;
    let (g, xh, gw) = (grad.data(), xhat.data(), gamma.data());
    debug_assert!(
        g.len() == xhat.len() && inv_std.len() == rows,
        "grad matches saved xhat, one inv_std per row"
    );
    let mut dx = crate::pool::take_unfilled(xhat.len());
    let sums = crate::grid::fold_rows(rows, d, &mut dx, 2 * d, |r0, r1, dx, acc| {
        let (dgamma, dbeta) = acc.split_at_mut(d);
        for r in r0..r1 {
            let base = r * d;
            // dxhat = g * gamma
            let mut mean_dxhat = 0.0f32;
            let mut mean_dxhat_xhat = 0.0f32;
            for j in 0..d {
                let dxh = g[base + j] * gw[j];
                mean_dxhat += dxh;
                mean_dxhat_xhat += dxh * xh[base + j];
                dgamma[j] += g[base + j] * xh[base + j];
                dbeta[j] += g[base + j];
            }
            mean_dxhat /= d as f32;
            mean_dxhat_xhat /= d as f32;
            let istd = inv_std[r];
            let dxr = &mut dx[(r - r0) * d..(r - r0 + 1) * d];
            for j in 0..d {
                let dxh = g[base + j] * gw[j];
                dxr[j] = istd * (dxh - mean_dxhat - xh[base + j] * mean_dxhat_xhat);
            }
        }
    });
    (
        NdArray::from_vec(xhat.shape().to_vec(), dx),
        NdArray::from_vec(vec![d], sums[..d].to_vec()),
        NdArray::from_vec(vec![d], sums[d..].to_vec()),
    )
}

struct LayerNormOp {
    xhat: std::cell::RefCell<NdArray>,
    inv_std: std::cell::RefCell<Vec<f32>>,
    eps: f32,
}

impl Op for LayerNormOp {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        debug_assert_eq!(parents.len(), 3, "layer_norm has x, gamma, beta");
        let (dx, dgamma, dbeta) = layer_norm_bwd(
            grad,
            &self.xhat.borrow(),
            &self.inv_std.borrow(),
            &parents[1].data(),
        );
        vec![Some(dx), Some(dgamma), Some(dbeta)]
    }
    fn name(&self) -> &'static str {
        "layer_norm"
    }
    fn replayable(&self) -> bool {
        true
    }
    fn replay(&self, parents: &[Tensor], _ctx: &mut crate::plan::ReplayCtx) -> Option<NdArray> {
        let _prof = super::fwd_prof("layer_norm", parents[0].len());
        debug_assert_eq!(parents.len(), 3, "layer_norm has x, gamma, beta");
        let d = parents[1].len();
        let (out, xhat, inv_std) = layer_norm_rows(
            &parents[0].data(),
            None,
            &parents[1].data(),
            &parents[2].data(),
            self.eps,
            d,
        );
        *self.xhat.borrow_mut() = xhat;
        *self.inv_std.borrow_mut() = inv_std;
        Some(out)
    }
}

/// L2-normalize each row of the last dimension: `y = x / max(||x||, eps)`.
pub fn l2_normalize(x: &Tensor, eps: f32) -> Tensor {
    let _prof = super::fwd_prof("l2_normalize", x.len());
    let shape = x.shape();
    assert!(!shape.is_empty(), "l2_normalize needs >= 1 dim");
    let d = shape[shape.len() - 1];
    let (out, inv_norm) = l2_normalize_fwd(&x.data(), eps, d);
    let y = out.clone();
    Tensor::from_op(
        out,
        vec![x.clone()],
        Box::new(L2NormalizeOp {
            y: std::cell::RefCell::new(y),
            inv_norm: std::cell::RefCell::new(inv_norm),
            d,
            eps,
        }),
    )
}

/// Shared forward body: returns `(out, inv_norm)`.
fn l2_normalize_fwd(x: &NdArray, eps: f32, d: usize) -> (NdArray, Vec<f32>) {
    let rows = x.len() / d;
    let src = x.data();
    debug_assert_eq!(src.len(), rows * d, "l2_normalize rows divide evenly");
    let mut out = crate::pool::take_filled(x.len(), 0.0);
    let mut inv_norm = crate::pool::take_filled(rows, 0.0);
    let k = crate::simd::kernels();
    for r in 0..rows {
        let row = &src[r * d..(r + 1) * d];
        let norm = (k.dot)(row, row).sqrt().max(eps);
        let inv = 1.0 / norm;
        inv_norm[r] = inv;
        (k.scale)(row, inv, &mut out[r * d..(r + 1) * d]);
    }
    (NdArray::from_vec(x.shape().to_vec(), out), inv_norm)
}

struct L2NormalizeOp {
    y: std::cell::RefCell<NdArray>,
    inv_norm: std::cell::RefCell<Vec<f32>>,
    d: usize,
    eps: f32,
}

impl Op for L2NormalizeOp {
    fn backward(&self, grad: &NdArray, _parents: &[Tensor]) -> Vec<Option<NdArray>> {
        // dx = (g - y * (y . g)) / ||x||
        let d = self.d;
        let saved = self.y.borrow();
        let inv_norm = self.inv_norm.borrow();
        let rows = saved.len() / d;
        let y = saved.data();
        let g = grad.data();
        debug_assert_eq!(g.len(), saved.len(), "grad matches saved output");
        let mut dx = crate::pool::take_filled(saved.len(), 0.0);
        let k = crate::simd::kernels();
        for r in 0..rows {
            let base = r * d;
            let dot = (k.dot)(&y[base..base + d], &g[base..base + d]);
            let inv = inv_norm[r];
            for j in 0..d {
                dx[base + j] = (g[base + j] - y[base + j] * dot) * inv;
            }
        }
        vec![Some(NdArray::from_vec(saved.shape().to_vec(), dx))]
    }
    fn name(&self) -> &'static str {
        "l2_normalize"
    }
    fn replayable(&self) -> bool {
        true
    }
    fn replay(&self, parents: &[Tensor], _ctx: &mut crate::plan::ReplayCtx) -> Option<NdArray> {
        let _prof = super::fwd_prof("l2_normalize", parents[0].len());
        debug_assert_eq!(parents.len(), 1, "l2_normalize has one parent");
        let (out, inv_norm) = l2_normalize_fwd(&parents[0].data(), self.eps, self.d);
        *self.y.borrow_mut() = out.clone();
        *self.inv_norm.borrow_mut() = inv_norm;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::sum_all;

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = Tensor::constant(NdArray::from_vec(
            vec![2, 4],
            vec![1., 2., 3., 4., -2., 0., 2., 8.],
        ));
        let gamma = Tensor::constant(NdArray::ones(vec![4]));
        let beta = Tensor::constant(NdArray::zeros(vec![4]));
        let y = layer_norm(&x, &gamma, &beta, 1e-5).value();
        for r in 0..2 {
            let row = &y.data()[r * 4..(r + 1) * 4];
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layer_norm_affine_params() {
        let x = Tensor::constant(NdArray::from_vec(vec![1, 2], vec![0., 2.]));
        let gamma = Tensor::constant(NdArray::from_vec(vec![2], vec![2.0, 2.0]));
        let beta = Tensor::constant(NdArray::from_vec(vec![2], vec![1.0, 1.0]));
        let y = layer_norm(&x, &gamma, &beta, 1e-8).value();
        // normalized = [-1, 1] -> *2 + 1 = [-1, 3]
        assert!((y.data()[0] + 1.0).abs() < 1e-3);
        assert!((y.data()[1] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_input_grad_is_orthogonal_to_constants() {
        // Shifting the input by a constant doesn't change the output, so the
        // gradient must sum to ~0 per row.
        let x = Tensor::param(NdArray::from_vec(vec![1, 4], vec![0.5, -1.0, 2.0, 0.3]));
        let gamma = Tensor::constant(NdArray::from_vec(vec![4], vec![1.5, 0.5, 2.0, 1.0]));
        let beta = Tensor::constant(NdArray::zeros(vec![4]));
        let y = layer_norm(&x, &gamma, &beta, 1e-5);
        // Weighted sum so the grad is nontrivial.
        let w = Tensor::constant(NdArray::from_vec(vec![1, 4], vec![1.0, -2.0, 0.5, 3.0]));
        sum_all(&crate::ops::mul(&y, &w)).backward();
        let g = x.grad().unwrap();
        let s: f32 = g.data().iter().sum();
        assert!(s.abs() < 1e-4, "grad sum {s}");
    }

    #[test]
    fn l2_normalize_unit_norm() {
        let x = Tensor::constant(NdArray::from_vec(vec![2, 2], vec![3., 4., 0., 5.]));
        let y = l2_normalize(&x, 1e-12).value();
        assert!((y.data()[0] - 0.6).abs() < 1e-6);
        assert!((y.data()[1] - 0.8).abs() < 1e-6);
        assert!((y.data()[3] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_grad_orthogonal_to_direction() {
        // y has constant norm, so gradient of any function through y is
        // orthogonal to x: x . dx = 0.
        let x = Tensor::param(NdArray::from_vec(vec![1, 3], vec![1.0, 2.0, -0.5]));
        let w = Tensor::constant(NdArray::from_vec(vec![1, 3], vec![0.2, -1.0, 0.7]));
        sum_all(&crate::ops::mul(&l2_normalize(&x, 1e-12), &w)).backward();
        let g = x.grad().unwrap();
        let dot = g.data()[0] * 1.0 + g.data()[1] * 2.0 + g.data()[2] * -0.5;
        assert!(dot.abs() < 1e-5, "x.dx = {dot}");
    }
}
