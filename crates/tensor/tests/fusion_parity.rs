//! Fused-epilogue parity: every op in `slime_tensor::fusion` must agree
//! with the unfused chain it replaces — in values, bitwise where the
//! kernels guarantee it, and in gradients against finite differences.
//!
//! The bitwise contract (see the module docs of `fusion`): all three
//! fusions bitwise at any width on both backends — the AVX2 GELU tails
//! replicate the lane arithmetic, so the fused kernel restarting its lane
//! grouping at each row changes nothing.
//!
//! Gradient agreement between the fused backward and the unfused graph's
//! backward is also asserted directly (same inputs, both graphs, compare
//! leaf grads) — that is the property training actually relies on when
//! `--no-fuse` toggles the graph shape.
//!
//! Backend selection is process-global, so everything runs inside a single
//! test function that sweeps scalar then (where detected) AVX2.

use slime_rng::rngs::StdRng;
use slime_rng::{Rng, SeedableRng};
use slime_tensor::gradcheck::assert_gradients_match;
use slime_tensor::{fusion, ops, simd, NdArray, Tensor};

fn rand_param(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::param(NdArray::from_vec(shape.to_vec(), data))
}

const TOL: f32 = 5e-2; // f32 + central differences (same as gradcheck.rs)

fn assert_bitwise(fused: &Tensor, unfused: &Tensor, what: &str) {
    let (f, u) = (fused.value(), unfused.value());
    assert_eq!(f.shape(), u.shape(), "{what}: shape");
    for (i, (a, b)) in f.data().iter().zip(u.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
    }
}

/// Backward both graphs from an all-ones seed and compare the leaves'
/// gradients bitwise (fused backward mirrors the unfused accumulation
/// order expression-for-expression on the scalar backend, and within the
/// documented lane rules on AVX2 — exact agreement is the contract).
fn assert_grads_agree(fused: &Tensor, unfused: &Tensor, leaves: &[&Tensor], what: &str) {
    for l in leaves {
        l.zero_grad();
    }
    fused.backward_with(NdArray::ones(fused.shape()));
    let fg: Vec<NdArray> = leaves.iter().map(|l| l.grad().unwrap()).collect();
    for l in leaves {
        l.zero_grad();
    }
    unfused.backward_with(NdArray::ones(unfused.shape()));
    for (i, l) in leaves.iter().enumerate() {
        let ug = l.grad().unwrap();
        for (j, (a, b)) in fg[i].data().iter().zip(ug.data()).enumerate() {
            let diff = (a - b).abs();
            let scale = a.abs().max(b.abs()).max(1e-3);
            assert!(
                diff / scale < 1e-4,
                "{what}: leaf {i} grad[{j}] differs: {a} vs {b}"
            );
        }
        l.zero_grad();
    }
}

fn check_matmul_bias_gelu(n: usize, seed: u64, label: &str) {
    let x = rand_param(&[3, 5], seed);
    let w = rand_param(&[5, n], seed + 1);
    let b = rand_param(&[n], seed + 2);
    let fused = fusion::matmul_bias_gelu(&x, &w, &b);
    let unfused = ops::gelu(&ops::add(&ops::matmul(&x, &w), &b));
    assert_bitwise(&fused, &unfused, label);
    assert_grads_agree(&fused, &unfused, &[&x, &w, &b], label);
    assert_gradients_match(
        &[&x, &w, &b],
        || ops::mean_all(&fusion::matmul_bias_gelu(&x, &w, &b)),
        TOL,
    );
}

fn check_add_layer_norm(d: usize, seed: u64, label: &str) {
    let a = rand_param(&[4, d], seed);
    let b = rand_param(&[4, d], seed + 1);
    let gamma = rand_param(&[d], seed + 2);
    let beta = rand_param(&[d], seed + 3);
    let eps = 1e-5;
    let fused = fusion::add_layer_norm(&a, &b, &gamma, &beta, eps);
    let unfused = ops::layer_norm(&ops::add(&a, &b), &gamma, &beta, eps);
    assert_bitwise(&fused, &unfused, label);
    assert_grads_agree(&fused, &unfused, &[&a, &b, &gamma, &beta], label);
    assert_gradients_match(
        &[&a, &b, &gamma, &beta],
        || ops::mean_all(&fusion::add_layer_norm(&a, &b, &gamma, &beta, eps)),
        TOL,
    );
}

fn check_gate_mix(len: usize, seed: u64, label: &str) {
    let yd = rand_param(&[2, len], seed);
    let ys = rand_param(&[2, len], seed + 1);
    let g = Tensor::param(NdArray::scalar(0.35));
    let fused = fusion::gate_mix(&yd, &ys, &g);
    let om = ops::add_scalar(&ops::neg(&g), 1.0);
    let unfused = ops::add(&ops::mul(&yd, &om), &ops::mul(&ys, &g));
    assert_bitwise(&fused, &unfused, label);
    assert_grads_agree(&fused, &unfused, &[&yd, &ys, &g], label);
    assert_gradients_match(
        &[&yd, &ys, &g],
        || ops::mean_all(&fusion::gate_mix(&yd, &ys, &g)),
        TOL,
    );
}

/// The hashed dropout sampler's full output (mask applied to a ramp) —
/// integer hash + exact 24-bit conversions, so it must be bitwise identical
/// on every backend. Calls over chunks at their global offsets, aligned to
/// 8 lanes or not, must reproduce the whole call.
fn hashed_dropout_bits(seed: u64) -> Vec<u32> {
    let src: Vec<f32> = (0..1003).map(|i| i as f32 * 0.01 - 5.0).collect();
    let kernel = simd::kernels().dropout_mask;
    let mut out = vec![0.0f32; src.len()];
    kernel(seed, 0, 0.8, 1.25, &src, &mut out);
    let mut chunked = vec![0.0f32; src.len()];
    for (lo, hi) in [(0usize, 5usize), (5, 16), (16, 300), (300, 1003)] {
        kernel(seed, lo, 0.8, 1.25, &src[lo..hi], &mut chunked[lo..hi]);
    }
    let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
    let chunked: Vec<u32> = chunked.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, chunked, "chunked dropout calls differ from one call");
    bits
}

#[test]
fn fused_ops_match_unfused_chains_on_both_backends() {
    let was = simd::enabled();
    let mut dropout_baseline: Option<Vec<u32>> = None;
    for simd_on in [false, true] {
        simd::set_enabled(simd_on);
        let avx2 = simd::backend() == simd::Backend::Avx2Fma;
        let tag = if avx2 { "avx2" } else { "scalar" };

        // Hashed dropout masks never depend on the backend.
        let bits = hashed_dropout_bits(0x5eed_cafe_f00d_d1ce);
        match &dropout_baseline {
            None => dropout_baseline = Some(bits),
            Some(b) => assert_eq!(b, &bits, "[{tag}] hashed dropout mask differs"),
        }

        // Any width, 8-multiple or ragged: bitwise on both backends.
        for n in [7usize, 8, 12, 16] {
            check_matmul_bias_gelu(n, 100 + n as u64, &format!("[{tag}] bias_gelu n={n}"));
        }

        // Any width, both backends.
        for d in [6usize, 8, 13] {
            check_add_layer_norm(d, 200 + d as u64, &format!("[{tag}] add_ln d={d}"));
        }
        for len in [5usize, 8, 19] {
            check_gate_mix(
                len,
                300 + len as u64,
                &format!("[{tag}] gate_mix len={len}"),
            );
        }
    }
    simd::set_enabled(was);
}
