//! Portable scalar kernels — the reference backend.
//!
//! Every function here reproduces the pre-SIMD loop body operation for
//! operation (same expression shapes, same accumulation order), so routing
//! the hot paths through this module under `SLIME_SIMD=0` is bitwise
//! identical to the historical code. The AVX2 backend in [`super::avx2`] is
//! parity-tested against these functions.

use super::AdamCoeffs;

/// `dst[j] += a * src[j]` — the matmul single-row remainder and
/// `add_scaled_assign` loop.
pub fn saxpy(dst: &mut [f32], src: &[f32], a: f32) {
    for (o, &bv) in dst.iter_mut().zip(src) {
        *o += a * bv;
    }
}

/// Four-row fused saxpy: the register-blocked matmul inner loop. Each loaded
/// `b` element feeds four accumulator rows.
#[allow(clippy::too_many_arguments)] // mirrors the 4-row register block
pub fn saxpy4(
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
    b: &[f32],
    v0: f32,
    v1: f32,
    v2: f32,
    v3: f32,
) {
    for (j, &bv) in b.iter().enumerate() {
        o0[j] += v0 * bv;
        o1[j] += v1 * bv;
        o2[j] += v2 * bv;
        o3[j] += v3 * bv;
    }
}

/// Four-row matmul block over the whole `k` loop: for each `kk` in order,
/// `o_r[j] += a_r[kk] * b[kk * n + j]`. Exactly `k` [`saxpy4`] calls fused —
/// per output element the accumulation is a single k-ascending chain, so
/// this is bitwise identical to the unfused loop it replaces.
#[allow(clippy::too_many_arguments)] // mirrors the 4-row x k-loop block
pub fn matmul4(
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    b: &[f32],
    n: usize,
) {
    for kk in 0..a0.len() {
        let b_row = &b[kk * n..(kk + 1) * n];
        saxpy4(o0, o1, o2, o3, b_row, a0[kk], a1[kk], a2[kk], a3[kk]);
    }
}

/// `out[j] = a[j] + b[j]`.
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `out[j] = a[j] - b[j]`.
pub fn sub(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// `out[j] = a[j] * b[j]`.
pub fn mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// `out[j] = src[j] * c`.
pub fn scale(src: &[f32], c: f32, out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = v * c;
    }
}

/// `dst[j] *= c` — the softmax normalize loop.
pub fn scale_inplace(dst: &mut [f32], c: f32) {
    for o in dst.iter_mut() {
        *o *= c;
    }
}

/// `out[j] = src[j] - c` — the log-softmax shift loop.
pub fn sub_scalar(src: &[f32], c: f32, out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = v - c;
    }
}

pub(crate) const SQRT_2_OVER_PI: f32 = 0.797_884_6;
pub(crate) const GELU_C: f32 = 0.044_715;

/// Branch-free rational `tanh` for the GELU hot loop.
///
/// libm's `tanhf` is an accurate but scalar, branchy routine; called once
/// per element of a `[batch * len, 4 * hidden]` activation it dominates the
/// FFN's runtime. This is the classic odd-polynomial-over-even-polynomial
/// fit on the clamped range `[-9, 9]` (the same shape Eigen and XLA use):
/// straight-line mul/add/div that vectorizes, with absolute error below
/// `1e-6` — far inside the tanh-GELU approximation error (the bound is
/// pinned by `fast_tanh_abs_error_bound` in `tests/simd_parity.rs`). Only
/// `gelu` routes through it; the public `tanh` op keeps libm.
pub fn fast_tanh(x: f32) -> f32 {
    const A1: f32 = 4.893_525e-3;
    const A3: f32 = 6.372_619e-4;
    const A5: f32 = 1.485_722_4e-5;
    const A7: f32 = 5.122_297e-8;
    const A9: f32 = -8.604_672e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_5e-16;
    const B0: f32 = 4.893_525e-3;
    const B2: f32 = 2.268_434_6e-3;
    const B4: f32 = 1.185_347e-4;
    const B6: f32 = 1.198_258_4e-6;
    let x = x.clamp(-9.0, 9.0);
    let x2 = x * x;
    let p = x * (A1 + x2 * (A3 + x2 * (A5 + x2 * (A7 + x2 * (A9 + x2 * (A11 + x2 * A13))))));
    let q = B0 + x2 * (B2 + x2 * (B4 + x2 * B6));
    p / q
}

/// GELU (tanh approximation, BERT / paper Eq. 29) of one element.
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + fast_tanh(SQRT_2_OVER_PI * (x + GELU_C * x * x * x)))
}

/// Derivative of [`gelu_scalar`].
pub fn gelu_grad_scalar(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_C * x * x * x);
    let t = fast_tanh(u);
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// `out[j] = gelu(src[j])`.
pub fn gelu_fwd(src: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = gelu_scalar(v);
    }
}

/// `out[j] = g[j] * gelu'(x[j])` — the GELU backward pass.
pub fn gelu_bwd(x: &[f32], g: &[f32], out: &mut [f32]) {
    for ((o, &xv), &gv) in out.iter_mut().zip(x).zip(g) {
        *o = gv * gelu_grad_scalar(xv);
    }
}

/// Row maximum (softmax shift).
pub fn row_max(row: &[f32]) -> f32 {
    row.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// `out[j] = exp(row[j] - max)`, returning the sum of the exponentials —
/// the softmax accumulation loop.
pub fn exp_shift_sum(row: &[f32], max: f32, out: &mut [f32]) -> f32 {
    let mut sum = 0.0f32;
    for (o, &v) in out.iter_mut().zip(row) {
        let e = (v - max).exp();
        *o = e;
        sum += e;
    }
    sum
}

/// Sequential dot product (softmax backward, l2-normalize norms).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Widening int8 dot product with an exact `i32` accumulator — the
/// quantized-embedding scoring kernel. Unlike the float kernels, integer
/// addition is associative, so every backend must return the *same* value
/// bit for bit (pinned by `dot_i8_is_bitwise_equal_across_backends` in
/// `tests/simd_parity.rs`); quantized scores are therefore a pure function
/// of the quantized inputs under every runtime knob.
///
/// Inputs follow the symmetric-quantization contract: values lie in
/// `[-127, 127]` (never `-128` — the AVX2 `maddubs` sign trick needs
/// `|a|` representable). With `|a·b| <= 127^2` the `i32` accumulator is
/// exact up to ~133k elements, far past any embedding width here.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| i32::from(x) * i32::from(y))
        .sum()
}

/// `out[j] = y[j] * (g[j] - dot)` — the softmax backward row update.
pub fn softmax_bwd_row(y: &[f32], g: &[f32], dot: f32, out: &mut [f32]) {
    for ((o, &yv), &gv) in out.iter_mut().zip(y).zip(g) {
        *o = yv * (gv - dot);
    }
}

/// Per-row mean and (biased) variance — the layer-norm reductions.
pub fn mean_var(row: &[f32]) -> (f32, f32) {
    let d = row.len() as f32;
    let mean = row.iter().sum::<f32>() / d;
    let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d;
    (mean, var)
}

/// The layer-norm normalize + affine loop: `xhat[j] = (row[j] - mean) *
/// istd; out[j] = xhat[j] * gw[j] + bw[j]`.
#[allow(clippy::too_many_arguments)] // the layer-norm row contract
pub fn layernorm_affine(
    row: &[f32],
    mean: f32,
    istd: f32,
    gw: &[f32],
    bw: &[f32],
    xhat: &mut [f32],
    out: &mut [f32],
) {
    for j in 0..row.len() {
        let xh = (row[j] - mean) * istd;
        xhat[j] = xh;
        out[j] = xh * gw[j] + bw[j];
    }
}

/// Fused bias + GELU epilogue over one matmul output row:
/// `pre[j] += bias[j]; out[j] = gelu(pre[j])` in a single pass. The bias
/// add is the exact per-element `x + y` of the unfused broadcast add, and
/// the activation is this backend's GELU of the same value — so per row
/// this is bitwise identical to the add-then-`gelu_fwd` composition.
pub fn bias_gelu(pre: &mut [f32], bias: &[f32], out: &mut [f32]) {
    for j in 0..pre.len() {
        let z = pre[j] + bias[j];
        pre[j] = z;
        out[j] = gelu_scalar(z);
    }
}

/// Fused backward of the bias+GELU epilogue over one row:
/// `dpre[j] = g[j] * gelu'(z[j]); db[j] += dpre[j]`. The bias-gradient
/// accumulation visits rows in ascending row order (the caller's loop), so
/// each `db[j]` chain is exactly the flat `reduce_to_shape` order of the
/// unfused broadcast-add backward.
pub fn bias_gelu_bwd(z: &[f32], g: &[f32], dpre: &mut [f32], db: &mut [f32]) {
    for j in 0..z.len() {
        let d = g[j] * gelu_grad_scalar(z[j]);
        dpre[j] = d;
        db[j] += d;
    }
}

/// Fused residual add + layer-norm reductions: `sum[j] = a[j] + b[j]` while
/// accumulating the row sum, then a second pass for the biased variance —
/// the same sequential accumulation order as [`add`] followed by
/// [`mean_var`], so `(mean, var)` come out bitwise identical to the unfused
/// composition.
pub fn add_mean_var(a: &[f32], b: &[f32], sum: &mut [f32]) -> (f32, f32) {
    let d = sum.len() as f32;
    let mut s = 0.0f32;
    for j in 0..sum.len() {
        let v = a[j] + b[j];
        sum[j] = v;
        s += v;
    }
    let mean = s / d;
    let var = sum.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d;
    (mean, var)
}

/// Fused filter×gate mix: `out[j] = yd[j] * om + ys[j] * g` where
/// `om = 1 - g` is precomputed by the caller. Two multiplies and one add
/// per element — the exact expressions of the unfused
/// `mul(yd, 1-g) + mul(ys, g)` chain (no FMA contraction in any backend,
/// so the fused value is bitwise identical to the composition everywhere).
pub fn gate_mix(yd: &[f32], ys: &[f32], om: f32, g: f32, out: &mut [f32]) {
    for j in 0..out.len() {
        out[j] = yd[j] * om + ys[j] * g;
    }
}

/// Fused backward of the filter×gate mix: writes `dyd[j] = grad[j] * om`
/// and `dys[j] = grad[j] * g`, and returns the two gate reductions
/// `(Σ grad[j]·yd[j], Σ grad[j]·ys[j])` accumulated sequentially in flat
/// order — the `reduce_to_shape([1])` order of the unfused `mul` backward.
#[allow(clippy::too_many_arguments)] // the fused gate backward contract
pub fn gate_mix_bwd(
    grad: &[f32],
    yd: &[f32],
    ys: &[f32],
    om: f32,
    g: f32,
    dyd: &mut [f32],
    dys: &mut [f32],
) -> (f32, f32) {
    let mut sum_gyd = 0.0f32;
    let mut sum_gys = 0.0f32;
    for j in 0..grad.len() {
        let gv = grad[j];
        dyd[j] = gv * om;
        dys[j] = gv * g;
        sum_gyd += gv * yd[j];
        sum_gys += gv * ys[j];
    }
    (sum_gyd, sum_gys)
}

/// Fused Adam update for one parameter buffer. Per element this performs
/// exactly the operation sequence of the historical `zip_map`/`map` chain
/// (`m`/`v` EMA, bias correction, `x -= lr * (m_hat / (sqrt(v_hat) + eps) +
/// wd * x)`), so the scalar backend is bitwise identical to pre-SIMD Adam.
pub fn adam_update(x: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], c: &AdamCoeffs) {
    for i in 0..x.len() {
        let gv = g[i];
        let m2 = c.b1 * m[i] + (1.0 - c.b1) * gv;
        let v2 = c.b2 * v[i] + (1.0 - c.b2) * gv * gv;
        m[i] = m2;
        v[i] = v2;
        let mh = m2 / c.bc1;
        let vh = v2 / c.bc2;
        let decayed = if c.wd > 0.0 { x[i] * c.wd } else { 0.0 };
        x[i] -= c.lr * (mh / (vh.sqrt() + c.eps) + decayed);
    }
}

/// One step of the counter-based dropout hash: murmur3's 32-bit finalizer
/// over `index ^ seed_lo`, whitened with `seed_hi`. Pure integer — every
/// backend computes the identical value, so hashed dropout masks are
/// bitwise stable across `SLIME_SIMD` (pinned in `tests/fusion_parity.rs`).
#[inline]
pub fn dropout_hash(i: u32, s0: u32, s1: u32) -> u32 {
    let mut x = i ^ s0;
    x ^= x >> 16;
    x = x.wrapping_mul(0x85eb_ca6b);
    x ^= x >> 13;
    x = x.wrapping_mul(0xc2b2_ae35);
    x ^= x >> 16;
    x ^ s1
}

/// Counter-based dropout in one branchless pass: element `i` of this call
/// is global index `first + i`, which keeps with probability `keep` iff
/// `hash(first + i) / 2^24 < keep` (the hash's top 24 bits as a `[0, 1)`
/// float — the same conversion `Standard for f32` uses), and is written as
/// `src[i] * mask` with `mask` either `scale` or 0. No data-dependent
/// branches and no serial RNG state, so calls over chunks at their offsets
/// reproduce one whole call bit for bit. The forward applies it to the
/// input and the backward to the gradient: the mask is regenerated, never
/// stored (the fused fast path's dropout sampler; DESIGN.md §14).
pub fn dropout_mask(seed: u64, first: usize, keep: f32, scale: f32, src: &[f32], out: &mut [f32]) {
    debug_assert_eq!(src.len(), out.len(), "dropout src and out match");
    let s0 = seed as u32;
    let s1 = (seed >> 32) as u32;
    for i in 0..src.len() {
        let h = dropout_hash((first + i) as u32, s0, s1);
        let u = (h >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
        let m = ((u < keep) as u32 as f32) * scale;
        out[i] = src[i] * m;
    }
}
