//! AVX2+FMA kernels (x86_64 only).
//!
//! Every public function is a safe wrapper whose single `unsafe` call enters
//! a `#[target_feature(enable = "avx2,fma")]` implementation; safety rests
//! on the dispatch table in [`super`] only routing here after the runtime
//! probe (`slime_fft::simd::avx2_fma_detected`) confirmed both features.
//!
//! Numerics: vector bodies use FMA contraction and 8-lane tree reductions,
//! so results differ from the scalar backend by a few ulps (bounded by
//! `tests/simd_parity.rs`) but are a pure function of input values and slice
//! lengths — the per-backend determinism contract. Remainder elements
//! (`len % 8`) run the scalar expressions, except in the GELU kernels, whose
//! tails replicate the lane arithmetic exactly (`gelu_lane`), so a GELU
//! value does not depend on its position in the slice.

use super::AdamCoeffs;
use crate::simd::scalar;
use std::arch::x86_64::*;

/// Horizontal sum with a fixed three-level tree (128-bit halves, then pairs,
/// then lanes) — the reduction order depends only on the lane structure.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum(v: __m256) -> f32 {
    let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    _mm_cvtss_f32(s)
}

/// Horizontal max with the same fixed tree as [`hsum`].
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn hmax(v: __m256) -> f32 {
    let s = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    let s = _mm_max_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
    _mm_cvtss_f32(s)
}

/// Vectorized `e^x`: Cephes-style range reduction (`x = n ln 2 + r`) plus a
/// degree-5 polynomial on the reduced argument, then scaling by `2^n` built
/// directly in the exponent field. Accurate to ~2 ulp over the clamped
/// range, matching the classic `avx_mathfun` constants.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp256(x: __m256) -> __m256 {
    let x = _mm256_min_ps(x, _mm256_set1_ps(88.376_26));
    let x = _mm256_max_ps(x, _mm256_set1_ps(-88.376_26));
    // n = round-down(x * log2(e) + 0.5)
    let fx = _mm256_fmadd_ps(
        x,
        _mm256_set1_ps(std::f32::consts::LOG2_E),
        _mm256_set1_ps(0.5),
    );
    let fx = _mm256_floor_ps(fx);
    // r = x - n * ln(2), in two parts for accuracy.
    let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693_359_4), x);
    let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.121_944_4e-4), x);
    let x2 = _mm256_mul_ps(x, x);
    let mut y = _mm256_set1_ps(1.987_569_1e-4);
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.398_199_9e-3));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.333_452e-3));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.166_579_6e-2));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.666_666_5e-1));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.000_000_3e-1));
    y = _mm256_fmadd_ps(y, x2, x);
    y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
    // 2^n via the exponent field.
    let n = _mm256_cvttps_epi32(fx);
    let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_add_epi32(n, _mm256_set1_epi32(0x7f)),
        23,
    ));
    _mm256_mul_ps(y, pow2n)
}

/// Vectorized [`scalar::fast_tanh`]: same clamped rational polynomial with
/// FMA-contracted Horner chains.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn fast_tanh256(x: __m256) -> __m256 {
    let x = _mm256_max_ps(_mm256_min_ps(x, _mm256_set1_ps(9.0)), _mm256_set1_ps(-9.0));
    let x2 = _mm256_mul_ps(x, x);
    let mut p = _mm256_set1_ps(-2.760_768_5e-16);
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(2.000_188e-13));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(-8.604_672e-11));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(5.122_297e-8));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(1.485_722_4e-5));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(6.372_619e-4));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(4.893_525e-3));
    p = _mm256_mul_ps(p, x);
    let mut q = _mm256_set1_ps(1.198_258_4e-6);
    q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(1.185_347e-4));
    q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(2.268_434_6e-3));
    q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(4.893_525e-3));
    _mm256_div_ps(p, q)
}

/// One lane of [`fast_tanh256`] in scalar code: the same operations in the
/// same order, `mul_add` wherever the lanes use `vfmadd`, and the clamp with
/// `minps`/`maxps` semantics (the second operand unless the first compares
/// strictly smaller/larger, so NaN clamps to 9). The GELU tails below are
/// built from it, so a tail element equals the lane value bit for bit and no
/// output depends on where its row or chunk starts.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn fast_tanh_lane(x: f32) -> f32 {
    let x = if x < 9.0 { x } else { 9.0 };
    let x = if x > -9.0 { x } else { -9.0 };
    let x2 = x * x;
    let mut p = -2.760_768_5e-16f32;
    p = p.mul_add(x2, 2.000_188e-13);
    p = p.mul_add(x2, -8.604_672e-11);
    p = p.mul_add(x2, 5.122_297e-8);
    p = p.mul_add(x2, 1.485_722_4e-5);
    p = p.mul_add(x2, 6.372_619e-4);
    p = p.mul_add(x2, 4.893_525e-3);
    p *= x;
    let mut q = 1.198_258_4e-6f32;
    q = q.mul_add(x2, 1.185_347e-4);
    q = q.mul_add(x2, 2.268_434_6e-3);
    q = q.mul_add(x2, 4.893_525e-3);
    p / q
}

/// One lane of the 8-wide GELU body in [`gelu_fwd`] / [`bias_gelu`].
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn gelu_lane(x: f32) -> f32 {
    let inner = scalar::GELU_C.mul_add(x * x * x, x);
    let t = fast_tanh_lane(scalar::SQRT_2_OVER_PI * inner);
    (0.5 * x) * (1.0 + t)
}

/// One lane of the 8-wide GELU derivative in [`gelu_bwd`] /
/// [`bias_gelu_bwd`].
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn gelu_grad_lane(x: f32) -> f32 {
    let xx = x * x;
    let inner = scalar::GELU_C.mul_add(xx * x, x);
    let t = fast_tanh_lane(scalar::SQRT_2_OVER_PI * inner);
    let du = scalar::SQRT_2_OVER_PI * (3.0 * scalar::GELU_C).mul_add(xx, 1.0);
    let sech2 = (-t).mul_add(t, 1.0);
    ((0.5 * x) * sech2).mul_add(du, 0.5 * (1.0 + t))
}

#[target_feature(enable = "avx2,fma")]
unsafe fn saxpy_impl(dst: &mut [f32], src: &[f32], a: f32) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let av = _mm256_set1_ps(a);
    let mut j = 0usize;
    while j + 8 <= n {
        let r = _mm256_fmadd_ps(av, _mm256_loadu_ps(sp.add(j)), _mm256_loadu_ps(dp.add(j)));
        _mm256_storeu_ps(dp.add(j), r);
        j += 8;
    }
    while j < n {
        dst[j] += a * src[j];
        j += 1;
    }
}

pub fn saxpy(dst: &mut [f32], src: &[f32], a: f32) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { saxpy_impl(dst, src, a) }
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn saxpy4_impl(
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
    let n = b.len();
    let (p0, p1, p2, p3) = (
        o0.as_mut_ptr(),
        o1.as_mut_ptr(),
        o2.as_mut_ptr(),
        o3.as_mut_ptr(),
    );
    let bp = b.as_ptr();
    let (w0, w1, w2, w3) = (
        _mm256_set1_ps(v0),
        _mm256_set1_ps(v1),
        _mm256_set1_ps(v2),
        _mm256_set1_ps(v3),
    );
    let mut j = 0usize;
    while j + 8 <= n {
        let bv = _mm256_loadu_ps(bp.add(j));
        _mm256_storeu_ps(
            p0.add(j),
            _mm256_fmadd_ps(w0, bv, _mm256_loadu_ps(p0.add(j))),
        );
        _mm256_storeu_ps(
            p1.add(j),
            _mm256_fmadd_ps(w1, bv, _mm256_loadu_ps(p1.add(j))),
        );
        _mm256_storeu_ps(
            p2.add(j),
            _mm256_fmadd_ps(w2, bv, _mm256_loadu_ps(p2.add(j))),
        );
        _mm256_storeu_ps(
            p3.add(j),
            _mm256_fmadd_ps(w3, bv, _mm256_loadu_ps(p3.add(j))),
        );
        j += 8;
    }
    while j < n {
        let bv = b[j];
        o0[j] += v0 * bv;
        o1[j] += v1 * bv;
        o2[j] += v2 * bv;
        o3[j] += v3 * bv;
        j += 1;
    }
}

#[allow(clippy::too_many_arguments)]
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
    // SAFETY: dispatch verified avx2+fma.
    unsafe { saxpy4_impl(o0, o1, o2, o3, b, v0, v1, v2, v3) }
}

#[allow(clippy::too_many_arguments)] // mirrors the 4-row x k-loop block
#[target_feature(enable = "avx2,fma")]
unsafe fn matmul4_impl(
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
    // Column-tiled with the output held in registers across the whole `k`
    // loop: per `kk` the tile costs two `b` loads and four broadcasts
    // instead of the eight output loads + eight stores the per-`kk`
    // `saxpy4` formulation pays. The FMA chain per output element is the
    // same k-ascending single accumulator, and the FMA/scalar lane split
    // is the same `n % 8` tail, so results are bitwise identical to `k`
    // fused [`saxpy4`] calls.
    let k = a0.len();
    let (p0, p1, p2, p3) = (
        o0.as_mut_ptr(),
        o1.as_mut_ptr(),
        o2.as_mut_ptr(),
        o3.as_mut_ptr(),
    );
    let bp = b.as_ptr();
    let mut j = 0usize;
    while j + 16 <= n {
        let mut acc00 = _mm256_loadu_ps(p0.add(j));
        let mut acc01 = _mm256_loadu_ps(p0.add(j + 8));
        let mut acc10 = _mm256_loadu_ps(p1.add(j));
        let mut acc11 = _mm256_loadu_ps(p1.add(j + 8));
        let mut acc20 = _mm256_loadu_ps(p2.add(j));
        let mut acc21 = _mm256_loadu_ps(p2.add(j + 8));
        let mut acc30 = _mm256_loadu_ps(p3.add(j));
        let mut acc31 = _mm256_loadu_ps(p3.add(j + 8));
        for kk in 0..k {
            let b_row = bp.add(kk * n);
            let bv0 = _mm256_loadu_ps(b_row.add(j));
            let bv1 = _mm256_loadu_ps(b_row.add(j + 8));
            let w0 = _mm256_set1_ps(a0[kk]);
            acc00 = _mm256_fmadd_ps(w0, bv0, acc00);
            acc01 = _mm256_fmadd_ps(w0, bv1, acc01);
            let w1 = _mm256_set1_ps(a1[kk]);
            acc10 = _mm256_fmadd_ps(w1, bv0, acc10);
            acc11 = _mm256_fmadd_ps(w1, bv1, acc11);
            let w2 = _mm256_set1_ps(a2[kk]);
            acc20 = _mm256_fmadd_ps(w2, bv0, acc20);
            acc21 = _mm256_fmadd_ps(w2, bv1, acc21);
            let w3 = _mm256_set1_ps(a3[kk]);
            acc30 = _mm256_fmadd_ps(w3, bv0, acc30);
            acc31 = _mm256_fmadd_ps(w3, bv1, acc31);
        }
        _mm256_storeu_ps(p0.add(j), acc00);
        _mm256_storeu_ps(p0.add(j + 8), acc01);
        _mm256_storeu_ps(p1.add(j), acc10);
        _mm256_storeu_ps(p1.add(j + 8), acc11);
        _mm256_storeu_ps(p2.add(j), acc20);
        _mm256_storeu_ps(p2.add(j + 8), acc21);
        _mm256_storeu_ps(p3.add(j), acc30);
        _mm256_storeu_ps(p3.add(j + 8), acc31);
        j += 16;
    }
    while j + 8 <= n {
        let mut acc0 = _mm256_loadu_ps(p0.add(j));
        let mut acc1 = _mm256_loadu_ps(p1.add(j));
        let mut acc2 = _mm256_loadu_ps(p2.add(j));
        let mut acc3 = _mm256_loadu_ps(p3.add(j));
        for kk in 0..k {
            let bv = _mm256_loadu_ps(bp.add(kk * n + j));
            acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[kk]), bv, acc0);
            acc1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[kk]), bv, acc1);
            acc2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[kk]), bv, acc2);
            acc3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[kk]), bv, acc3);
        }
        _mm256_storeu_ps(p0.add(j), acc0);
        _mm256_storeu_ps(p1.add(j), acc1);
        _mm256_storeu_ps(p2.add(j), acc2);
        _mm256_storeu_ps(p3.add(j), acc3);
        j += 8;
    }
    while j < n {
        // Scalar mul+add tail — the same non-contracted ops the per-`kk`
        // saxpy4 tail performs, k-ascending.
        let (mut s0, mut s1, mut s2, mut s3) = (o0[j], o1[j], o2[j], o3[j]);
        for kk in 0..k {
            let bv = b[kk * n + j];
            s0 += a0[kk] * bv;
            s1 += a1[kk] * bv;
            s2 += a2[kk] * bv;
            s3 += a3[kk] * bv;
        }
        o0[j] = s0;
        o1[j] = s1;
        o2[j] = s2;
        o3[j] = s3;
        j += 1;
    }
}

#[allow(clippy::too_many_arguments)]
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
    debug_assert_eq!(b.len(), a0.len() * n, "matmul4: b is not [k, n]");
    // SAFETY: dispatch verified avx2+fma.
    unsafe { matmul4_impl(o0, o1, o2, o3, a0, a1, a2, a3, b, n) }
}

macro_rules! binary_kernel {
    ($name:ident, $impl_name:ident, $vop:ident, $sop:tt) => {
        #[target_feature(enable = "avx2,fma")]
        unsafe fn $impl_name(a: &[f32], b: &[f32], out: &mut [f32]) {
            let n = out.len();
            let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
            let mut j = 0usize;
            while j + 8 <= n {
                let r = $vop(_mm256_loadu_ps(ap.add(j)), _mm256_loadu_ps(bp.add(j)));
                _mm256_storeu_ps(op.add(j), r);
                j += 8;
            }
            while j < n {
                out[j] = a[j] $sop b[j];
                j += 1;
            }
        }

        pub fn $name(a: &[f32], b: &[f32], out: &mut [f32]) {
            // SAFETY: dispatch verified avx2+fma.
            unsafe { $impl_name(a, b, out) }
        }
    };
}

binary_kernel!(add, add_impl, _mm256_add_ps, +);
binary_kernel!(sub, sub_impl, _mm256_sub_ps, -);
binary_kernel!(mul, mul_impl, _mm256_mul_ps, *);

#[target_feature(enable = "avx2,fma")]
unsafe fn scale_impl(src: &[f32], c: f32, out: &mut [f32]) {
    debug_assert!(src.len() >= out.len(), "scale src shorter than out");
    let n = out.len();
    let (sp, op) = (src.as_ptr(), out.as_mut_ptr());
    let cv = _mm256_set1_ps(c);
    let mut j = 0usize;
    while j + 8 <= n {
        _mm256_storeu_ps(op.add(j), _mm256_mul_ps(_mm256_loadu_ps(sp.add(j)), cv));
        j += 8;
    }
    while j < n {
        out[j] = src[j] * c;
        j += 1;
    }
}

pub fn scale(src: &[f32], c: f32, out: &mut [f32]) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { scale_impl(src, c, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn scale_inplace_impl(dst: &mut [f32], c: f32) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let cv = _mm256_set1_ps(c);
    let mut j = 0usize;
    while j + 8 <= n {
        _mm256_storeu_ps(dp.add(j), _mm256_mul_ps(_mm256_loadu_ps(dp.add(j)), cv));
        j += 8;
    }
    while j < n {
        dst[j] *= c;
        j += 1;
    }
}

pub fn scale_inplace(dst: &mut [f32], c: f32) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { scale_inplace_impl(dst, c) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn sub_scalar_impl(src: &[f32], c: f32, out: &mut [f32]) {
    let n = out.len();
    let (sp, op) = (src.as_ptr(), out.as_mut_ptr());
    let cv = _mm256_set1_ps(c);
    let mut j = 0usize;
    while j + 8 <= n {
        _mm256_storeu_ps(op.add(j), _mm256_sub_ps(_mm256_loadu_ps(sp.add(j)), cv));
        j += 8;
    }
    while j < n {
        out[j] = src[j] - c;
        j += 1;
    }
}

pub fn sub_scalar(src: &[f32], c: f32, out: &mut [f32]) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { sub_scalar_impl(src, c, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn gelu_fwd_impl(src: &[f32], out: &mut [f32]) {
    let n = out.len();
    let (sp, op) = (src.as_ptr(), out.as_mut_ptr());
    let sqrt_2_over_pi = _mm256_set1_ps(scalar::SQRT_2_OVER_PI);
    let gelu_c = _mm256_set1_ps(scalar::GELU_C);
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let mut j = 0usize;
    while j + 8 <= n {
        let x = _mm256_loadu_ps(sp.add(j));
        let xx = _mm256_mul_ps(x, x);
        // u = sqrt(2/pi) * (x + c * x^3)
        let inner = _mm256_fmadd_ps(gelu_c, _mm256_mul_ps(xx, x), x);
        let t = fast_tanh256(_mm256_mul_ps(sqrt_2_over_pi, inner));
        // gelu = 0.5 * x * (1 + t)
        let r = _mm256_mul_ps(_mm256_mul_ps(half, x), _mm256_add_ps(one, t));
        _mm256_storeu_ps(op.add(j), r);
        j += 8;
    }
    while j < n {
        out[j] = gelu_lane(src[j]);
        j += 1;
    }
}

pub fn gelu_fwd(src: &[f32], out: &mut [f32]) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { gelu_fwd_impl(src, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn gelu_bwd_impl(x: &[f32], g: &[f32], out: &mut [f32]) {
    let n = out.len();
    let (xp, gp, op) = (x.as_ptr(), g.as_ptr(), out.as_mut_ptr());
    let sqrt_2_over_pi = _mm256_set1_ps(scalar::SQRT_2_OVER_PI);
    let gelu_c = _mm256_set1_ps(scalar::GELU_C);
    let three_c = _mm256_set1_ps(3.0 * scalar::GELU_C);
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let mut j = 0usize;
    while j + 8 <= n {
        let xv = _mm256_loadu_ps(xp.add(j));
        let xx = _mm256_mul_ps(xv, xv);
        let inner = _mm256_fmadd_ps(gelu_c, _mm256_mul_ps(xx, xv), xv);
        let t = fast_tanh256(_mm256_mul_ps(sqrt_2_over_pi, inner));
        // du = sqrt(2/pi) * (1 + 3c x^2)
        let du = _mm256_mul_ps(sqrt_2_over_pi, _mm256_fmadd_ps(three_c, xx, one));
        // d = 0.5 (1 + t) + 0.5 x (1 - t^2) du
        let sech2 = _mm256_fnmadd_ps(t, t, one);
        let d = _mm256_fmadd_ps(
            _mm256_mul_ps(_mm256_mul_ps(half, xv), sech2),
            du,
            _mm256_mul_ps(half, _mm256_add_ps(one, t)),
        );
        _mm256_storeu_ps(op.add(j), _mm256_mul_ps(_mm256_loadu_ps(gp.add(j)), d));
        j += 8;
    }
    while j < n {
        out[j] = g[j] * gelu_grad_lane(x[j]);
        j += 1;
    }
}

pub fn gelu_bwd(x: &[f32], g: &[f32], out: &mut [f32]) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { gelu_bwd_impl(x, g, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn row_max_impl(row: &[f32]) -> f32 {
    let n = row.len();
    let rp = row.as_ptr();
    let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut j = 0usize;
    while j + 8 <= n {
        acc = _mm256_max_ps(acc, _mm256_loadu_ps(rp.add(j)));
        j += 8;
    }
    let mut m = hmax(acc);
    while j < n {
        m = m.max(row[j]);
        j += 1;
    }
    m
}

pub fn row_max(row: &[f32]) -> f32 {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { row_max_impl(row) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn exp_shift_sum_impl(row: &[f32], max: f32, out: &mut [f32]) -> f32 {
    let n = out.len();
    let (rp, op) = (row.as_ptr(), out.as_mut_ptr());
    let mv = _mm256_set1_ps(max);
    let mut acc = _mm256_setzero_ps();
    let mut j = 0usize;
    while j + 8 <= n {
        let e = exp256(_mm256_sub_ps(_mm256_loadu_ps(rp.add(j)), mv));
        _mm256_storeu_ps(op.add(j), e);
        acc = _mm256_add_ps(acc, e);
        j += 8;
    }
    let mut sum = hsum(acc);
    while j < n {
        let e = (row[j] - max).exp();
        out[j] = e;
        sum += e;
        j += 1;
    }
    sum
}

pub fn exp_shift_sum(row: &[f32], max: f32, out: &mut [f32]) -> f32 {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { exp_shift_sum_impl(row, max, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn dot_impl(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm256_setzero_ps();
    let mut j = 0usize;
    while j + 8 <= n {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(j)), _mm256_loadu_ps(bp.add(j)), acc);
        j += 8;
    }
    let mut sum = hsum(acc);
    while j < n {
        sum += a[j] * b[j];
        j += 1;
    }
    sum
}

pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { dot_impl(a, b) }
}

/// Widening int8 dot product via the classic `maddubs` sign trick:
/// `a·b = |a| ·u8×i8 sign(b, a)`, pairs summed to `i16` by
/// `_mm256_maddubs_epi16`, then to exact `i32` lanes by `_mm256_madd_epi16`.
/// With the symmetric-quantization contract (`|a|, |b| <= 127`, never
/// `-128`) each `i16` pair sum is at most `2 * 127^2 = 32258 < i16::MAX`,
/// so the saturating `maddubs` step never saturates and the result is the
/// exact integer sum — bitwise identical to [`scalar::dot_i8`].
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_i8_impl(a: &[i8], b: &[i8]) -> i32 {
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let ones = _mm256_set1_epi16(1);
    let mut acc = _mm256_setzero_si256();
    let mut j = 0usize;
    while j + 32 <= n {
        let av = _mm256_loadu_si256(ap.add(j) as *const __m256i);
        let bv = _mm256_loadu_si256(bp.add(j) as *const __m256i);
        // |a| is exact because -128 is excluded by the quantization clamp.
        let abs_a = _mm256_abs_epi8(av);
        let sgn_b = _mm256_sign_epi8(bv, av);
        let pairs = _mm256_maddubs_epi16(abs_a, sgn_b);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
        j += 32;
    }
    // Integer horizontal sum: 128-bit halves, then pairwise.
    let s = _mm_add_epi32(
        _mm256_castsi256_si128(acc),
        _mm256_extracti128_si256(acc, 1),
    );
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
    let mut sum = _mm_cvtsi128_si32(s);
    while j < n {
        sum += i32::from(a[j]) * i32::from(b[j]);
        j += 1;
    }
    sum
}

pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { dot_i8_impl(a, b) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn softmax_bwd_row_impl(y: &[f32], g: &[f32], dot: f32, out: &mut [f32]) {
    let n = out.len();
    let (yp, gp, op) = (y.as_ptr(), g.as_ptr(), out.as_mut_ptr());
    let dv = _mm256_set1_ps(dot);
    let mut j = 0usize;
    while j + 8 <= n {
        let r = _mm256_mul_ps(
            _mm256_loadu_ps(yp.add(j)),
            _mm256_sub_ps(_mm256_loadu_ps(gp.add(j)), dv),
        );
        _mm256_storeu_ps(op.add(j), r);
        j += 8;
    }
    while j < n {
        out[j] = y[j] * (g[j] - dot);
        j += 1;
    }
}

pub fn softmax_bwd_row(y: &[f32], g: &[f32], dot: f32, out: &mut [f32]) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { softmax_bwd_row_impl(y, g, dot, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn mean_var_impl(row: &[f32]) -> (f32, f32) {
    let n = row.len();
    let rp = row.as_ptr();
    let d = n as f32;
    let mut acc = _mm256_setzero_ps();
    let mut j = 0usize;
    while j + 8 <= n {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(rp.add(j)));
        j += 8;
    }
    let mut sum = hsum(acc);
    while j < n {
        sum += row[j];
        j += 1;
    }
    let mean = sum / d;
    let mv = _mm256_set1_ps(mean);
    let mut vacc = _mm256_setzero_ps();
    j = 0;
    while j + 8 <= n {
        let c = _mm256_sub_ps(_mm256_loadu_ps(rp.add(j)), mv);
        vacc = _mm256_fmadd_ps(c, c, vacc);
        j += 8;
    }
    let mut vsum = hsum(vacc);
    while j < n {
        let c = row[j] - mean;
        vsum += c * c;
        j += 1;
    }
    (mean, vsum / d)
}

pub fn mean_var(row: &[f32]) -> (f32, f32) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { mean_var_impl(row) }
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn layernorm_affine_impl(
    row: &[f32],
    mean: f32,
    istd: f32,
    gw: &[f32],
    bw: &[f32],
    xhat: &mut [f32],
    out: &mut [f32],
) {
    let n = row.len();
    let (rp, gp, bp) = (row.as_ptr(), gw.as_ptr(), bw.as_ptr());
    let (xp, op) = (xhat.as_mut_ptr(), out.as_mut_ptr());
    let mv = _mm256_set1_ps(mean);
    let iv = _mm256_set1_ps(istd);
    let mut j = 0usize;
    while j + 8 <= n {
        let xh = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(rp.add(j)), mv), iv);
        _mm256_storeu_ps(xp.add(j), xh);
        let o = _mm256_fmadd_ps(xh, _mm256_loadu_ps(gp.add(j)), _mm256_loadu_ps(bp.add(j)));
        _mm256_storeu_ps(op.add(j), o);
        j += 8;
    }
    while j < n {
        let xh = (row[j] - mean) * istd;
        xhat[j] = xh;
        out[j] = xh * gw[j] + bw[j];
        j += 1;
    }
}

#[allow(clippy::too_many_arguments)]
pub fn layernorm_affine(
    row: &[f32],
    mean: f32,
    istd: f32,
    gw: &[f32],
    bw: &[f32],
    xhat: &mut [f32],
    out: &mut [f32],
) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { layernorm_affine_impl(row, mean, istd, gw, bw, xhat, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn adam_update_impl(x: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], c: &AdamCoeffs) {
    let n = x.len();
    let (xp, mp, vp) = (x.as_mut_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
    let gp = g.as_ptr();
    let b1 = _mm256_set1_ps(c.b1);
    let b2 = _mm256_set1_ps(c.b2);
    let omb1 = _mm256_set1_ps(1.0 - c.b1);
    let omb2 = _mm256_set1_ps(1.0 - c.b2);
    let bc1 = _mm256_set1_ps(c.bc1);
    let bc2 = _mm256_set1_ps(c.bc2);
    let lr = _mm256_set1_ps(c.lr);
    let eps = _mm256_set1_ps(c.eps);
    let wd = _mm256_set1_ps(c.wd);
    let use_wd = c.wd > 0.0;
    let mut j = 0usize;
    while j + 8 <= n {
        let gv = _mm256_loadu_ps(gp.add(j));
        let m2 = _mm256_fmadd_ps(b1, _mm256_loadu_ps(mp.add(j)), _mm256_mul_ps(omb1, gv));
        let v2 = _mm256_fmadd_ps(
            b2,
            _mm256_loadu_ps(vp.add(j)),
            _mm256_mul_ps(omb2, _mm256_mul_ps(gv, gv)),
        );
        _mm256_storeu_ps(mp.add(j), m2);
        _mm256_storeu_ps(vp.add(j), v2);
        let mh = _mm256_div_ps(m2, bc1);
        let vh = _mm256_div_ps(v2, bc2);
        let mut upd = _mm256_div_ps(mh, _mm256_add_ps(_mm256_sqrt_ps(vh), eps));
        let xv = _mm256_loadu_ps(xp.add(j));
        if use_wd {
            upd = _mm256_fmadd_ps(xv, wd, upd);
        }
        _mm256_storeu_ps(xp.add(j), _mm256_fnmadd_ps(lr, upd, xv));
        j += 8;
    }
    if j < n {
        scalar::adam_update(&mut x[j..], &mut m[j..], &mut v[j..], &g[j..], c);
    }
}

pub fn adam_update(x: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], c: &AdamCoeffs) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { adam_update_impl(x, m, v, g, c) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn bias_gelu_impl(pre: &mut [f32], bias: &[f32], out: &mut [f32]) {
    // Bias add is `vaddps` (bitwise equal to the scalar `+`), then the exact
    // 8-lane gelu body from [`gelu_fwd`], whose tail replicates the lanes:
    // per row this matches a flat [`gelu_fwd`] pass over the biased buffer
    // at any width.
    let n = pre.len();
    let (pp, bp, op) = (pre.as_mut_ptr(), bias.as_ptr(), out.as_mut_ptr());
    let sqrt_2_over_pi = _mm256_set1_ps(scalar::SQRT_2_OVER_PI);
    let gelu_c = _mm256_set1_ps(scalar::GELU_C);
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let mut j = 0usize;
    while j + 8 <= n {
        let z = _mm256_add_ps(_mm256_loadu_ps(pp.add(j)), _mm256_loadu_ps(bp.add(j)));
        _mm256_storeu_ps(pp.add(j), z);
        let zz = _mm256_mul_ps(z, z);
        let inner = _mm256_fmadd_ps(gelu_c, _mm256_mul_ps(zz, z), z);
        let t = fast_tanh256(_mm256_mul_ps(sqrt_2_over_pi, inner));
        let r = _mm256_mul_ps(_mm256_mul_ps(half, z), _mm256_add_ps(one, t));
        _mm256_storeu_ps(op.add(j), r);
        j += 8;
    }
    while j < n {
        let z = pre[j] + bias[j];
        pre[j] = z;
        out[j] = gelu_lane(z);
        j += 1;
    }
}

pub fn bias_gelu(pre: &mut [f32], bias: &[f32], out: &mut [f32]) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { bias_gelu_impl(pre, bias, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn bias_gelu_bwd_impl(z: &[f32], g: &[f32], dpre: &mut [f32], db: &mut [f32]) {
    // Same 8-lane derivative body as [`gelu_bwd`]; the `db` accumulation is
    // per-element independent, so lane-wise `vaddps` into `db` matches the
    // scalar row-by-row `db[j] += d` chains bitwise.
    let n = z.len();
    let (zp, gp) = (z.as_ptr(), g.as_ptr());
    let (dp, dbp) = (dpre.as_mut_ptr(), db.as_mut_ptr());
    let sqrt_2_over_pi = _mm256_set1_ps(scalar::SQRT_2_OVER_PI);
    let gelu_c = _mm256_set1_ps(scalar::GELU_C);
    let three_c = _mm256_set1_ps(3.0 * scalar::GELU_C);
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let mut j = 0usize;
    while j + 8 <= n {
        let xv = _mm256_loadu_ps(zp.add(j));
        let xx = _mm256_mul_ps(xv, xv);
        let inner = _mm256_fmadd_ps(gelu_c, _mm256_mul_ps(xx, xv), xv);
        let t = fast_tanh256(_mm256_mul_ps(sqrt_2_over_pi, inner));
        let du = _mm256_mul_ps(sqrt_2_over_pi, _mm256_fmadd_ps(three_c, xx, one));
        let sech2 = _mm256_fnmadd_ps(t, t, one);
        let dv = _mm256_fmadd_ps(
            _mm256_mul_ps(_mm256_mul_ps(half, xv), sech2),
            du,
            _mm256_mul_ps(half, _mm256_add_ps(one, t)),
        );
        let d = _mm256_mul_ps(_mm256_loadu_ps(gp.add(j)), dv);
        _mm256_storeu_ps(dp.add(j), d);
        _mm256_storeu_ps(dbp.add(j), _mm256_add_ps(_mm256_loadu_ps(dbp.add(j)), d));
        j += 8;
    }
    while j < n {
        let d = g[j] * gelu_grad_lane(z[j]);
        dpre[j] = d;
        db[j] += d;
        j += 1;
    }
}

pub fn bias_gelu_bwd(z: &[f32], g: &[f32], dpre: &mut [f32], db: &mut [f32]) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { bias_gelu_bwd_impl(z, g, dpre, db) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn add_mean_var_impl(a: &[f32], b: &[f32], sum: &mut [f32]) -> (f32, f32) {
    // The reduction replicates [`mean_var`]'s lane structure exactly — 8-lane
    // add accumulator → [`hsum`] → scalar tail, then the fmadd variance pass
    // over the stored sums — so fusing the `vaddps` residual add in front
    // leaves the result bitwise equal to `add` followed by `mean_var`.
    let n = sum.len();
    let (ap, bp, sp) = (a.as_ptr(), b.as_ptr(), sum.as_mut_ptr());
    let d = n as f32;
    let mut acc = _mm256_setzero_ps();
    let mut j = 0usize;
    while j + 8 <= n {
        let v = _mm256_add_ps(_mm256_loadu_ps(ap.add(j)), _mm256_loadu_ps(bp.add(j)));
        _mm256_storeu_ps(sp.add(j), v);
        acc = _mm256_add_ps(acc, v);
        j += 8;
    }
    let mut s = hsum(acc);
    while j < n {
        let v = a[j] + b[j];
        sum[j] = v;
        s += v;
        j += 1;
    }
    let mean = s / d;
    let mv = _mm256_set1_ps(mean);
    let mut vacc = _mm256_setzero_ps();
    j = 0;
    while j + 8 <= n {
        let c = _mm256_sub_ps(_mm256_loadu_ps(sp.add(j)), mv);
        vacc = _mm256_fmadd_ps(c, c, vacc);
        j += 8;
    }
    let mut vsum = hsum(vacc);
    while j < n {
        let c = sum[j] - mean;
        vsum += c * c;
        j += 1;
    }
    (mean, vsum / d)
}

pub fn add_mean_var(a: &[f32], b: &[f32], sum: &mut [f32]) -> (f32, f32) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { add_mean_var_impl(a, b, sum) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn gate_mix_impl(yd: &[f32], ys: &[f32], om: f32, g: f32, out: &mut [f32]) {
    // vmul/vmul/vadd with NO fma: per-element mul and add are bitwise equal
    // to their scalar counterparts, so this matches both the scalar kernel
    // and the unfused broadcast-mul + add composition on either backend.
    let n = out.len();
    let (ydp, ysp, op) = (yd.as_ptr(), ys.as_ptr(), out.as_mut_ptr());
    let omv = _mm256_set1_ps(om);
    let gv = _mm256_set1_ps(g);
    let mut j = 0usize;
    while j + 8 <= n {
        let r = _mm256_add_ps(
            _mm256_mul_ps(_mm256_loadu_ps(ydp.add(j)), omv),
            _mm256_mul_ps(_mm256_loadu_ps(ysp.add(j)), gv),
        );
        _mm256_storeu_ps(op.add(j), r);
        j += 8;
    }
    while j < n {
        out[j] = yd[j] * om + ys[j] * g;
        j += 1;
    }
}

pub fn gate_mix(yd: &[f32], ys: &[f32], om: f32, g: f32, out: &mut [f32]) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { gate_mix_impl(yd, ys, om, g, out) }
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn gate_mix_bwd_impl(
    grad: &[f32],
    yd: &[f32],
    ys: &[f32],
    om: f32,
    g: f32,
    dyd: &mut [f32],
    dys: &mut [f32],
) -> (f32, f32) {
    // Branch grads are vectorized `vmulps` (per-element, bitwise equal to
    // scalar). The two gate reductions must match `reduce_to_shape`'s
    // sequential flat fold, so the 8-lane products are spilled to a stack
    // tile and added lane 0..7 in order to a single scalar accumulator each.
    let n = grad.len();
    let (gp, ydp, ysp) = (grad.as_ptr(), yd.as_ptr(), ys.as_ptr());
    let (dydp, dysp) = (dyd.as_mut_ptr(), dys.as_mut_ptr());
    let omv = _mm256_set1_ps(om);
    let gv = _mm256_set1_ps(g);
    let mut sum_gyd = 0.0f32;
    let mut sum_gys = 0.0f32;
    let mut tile_yd = [0.0f32; 8];
    let mut tile_ys = [0.0f32; 8];
    let mut j = 0usize;
    while j + 8 <= n {
        let gr = _mm256_loadu_ps(gp.add(j));
        _mm256_storeu_ps(dydp.add(j), _mm256_mul_ps(gr, omv));
        _mm256_storeu_ps(dysp.add(j), _mm256_mul_ps(gr, gv));
        _mm256_storeu_ps(
            tile_yd.as_mut_ptr(),
            _mm256_mul_ps(gr, _mm256_loadu_ps(ydp.add(j))),
        );
        _mm256_storeu_ps(
            tile_ys.as_mut_ptr(),
            _mm256_mul_ps(gr, _mm256_loadu_ps(ysp.add(j))),
        );
        for l in 0..8 {
            sum_gyd += tile_yd[l];
            sum_gys += tile_ys[l];
        }
        j += 8;
    }
    while j < n {
        let gs = grad[j];
        dyd[j] = gs * om;
        dys[j] = gs * g;
        sum_gyd += gs * yd[j];
        sum_gys += gs * ys[j];
        j += 1;
    }
    (sum_gyd, sum_gys)
}

#[allow(clippy::too_many_arguments)]
pub fn gate_mix_bwd(
    grad: &[f32],
    yd: &[f32],
    ys: &[f32],
    om: f32,
    g: f32,
    dyd: &mut [f32],
    dys: &mut [f32],
) -> (f32, f32) {
    // SAFETY: dispatch verified avx2+fma.
    unsafe { gate_mix_bwd_impl(grad, yd, ys, om, g, dyd, dys) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn dropout_mask_impl(
    seed: u64,
    first: usize,
    keep: f32,
    scale: f32,
    src: &[f32],
    out: &mut [f32],
) {
    // 8 lanes of the murmur3 finalizer over `index ^ seed_lo`, whitened
    // with `seed_hi` — pure 32-bit integer ops (`vpmulld`, shifts, xors),
    // so every lane equals `scalar::dropout_hash` exactly. The top 24 hash
    // bits convert exactly to f32 (`vcvtdq2ps` on values < 2^24) and the
    // power-of-two scale to [0, 1) is exact, so the keep decision — and
    // therefore the whole output — is bitwise identical to the scalar
    // kernel, at any `first`.
    let n = src.len();
    let s0 = _mm256_set1_epi32(seed as u32 as i32);
    let s1 = _mm256_set1_epi32((seed >> 32) as u32 as i32);
    let c1 = _mm256_set1_epi32(0x85eb_ca6bu32 as i32);
    let c2 = _mm256_set1_epi32(0xc2b2_ae35u32 as i32);
    let to_unit = _mm256_set1_ps(1.0 / (1u32 << 24) as f32);
    let keepv = _mm256_set1_ps(keep);
    let scalev = _mm256_set1_ps(scale);
    let eight = _mm256_set1_epi32(8);
    let (sp, op) = (src.as_ptr(), out.as_mut_ptr());
    let mut idx = _mm256_add_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(first as u32 as i32),
    );
    let mut j = 0usize;
    while j + 8 <= n {
        let mut x = _mm256_xor_si256(idx, s0);
        x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 16));
        x = _mm256_mullo_epi32(x, c1);
        x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 13));
        x = _mm256_mullo_epi32(x, c2);
        x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 16));
        x = _mm256_xor_si256(x, s1);
        let u = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_srli_epi32(x, 8)), to_unit);
        let kept = _mm256_cmp_ps::<_CMP_LT_OQ>(u, keepv);
        let m = _mm256_and_ps(kept, scalev);
        _mm256_storeu_ps(op.add(j), _mm256_mul_ps(_mm256_loadu_ps(sp.add(j)), m));
        idx = _mm256_add_epi32(idx, eight);
        j += 8;
    }
    let (s0s, s1s) = (seed as u32, (seed >> 32) as u32);
    while j < n {
        let h = scalar::dropout_hash((first + j) as u32, s0s, s1s);
        let u = (h >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
        let m = ((u < keep) as u32 as f32) * scale;
        out[j] = src[j] * m;
        j += 1;
    }
}

pub fn dropout_mask(seed: u64, first: usize, keep: f32, scale: f32, src: &[f32], out: &mut [f32]) {
    debug_assert_eq!(src.len(), out.len(), "dropout src and out match");
    // SAFETY: dispatch verified avx2+fma.
    unsafe { dropout_mask_impl(seed, first, keep, scale, src, out) }
}
