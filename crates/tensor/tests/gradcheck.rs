//! Finite-difference validation of every autodiff op, including
//! property-based checks over random shapes and values.
//!
//! Formerly proptest-driven; the `prop_*` tests now sweep seeded shape/value
//! grids (offline-purity: no external dev dependencies).

use slime_rng::rngs::StdRng;
use slime_rng::{Rng, SeedableRng};
use slime_tensor::gradcheck::assert_gradients_match;
use slime_tensor::{ops, NdArray, Tensor};

fn rand_param(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::param(NdArray::from_vec(shape.to_vec(), data))
}

const TOL: f32 = 5e-2; // f32 + central differences at eps=1e-2

#[test]
fn gradcheck_elementwise_binary() {
    let a = rand_param(&[2, 3], 1);
    let b = rand_param(&[3], 2);
    assert_gradients_match(&[&a, &b], || ops::mean_all(&ops::add(&a, &b)), TOL);
    assert_gradients_match(&[&a, &b], || ops::mean_all(&ops::sub(&a, &b)), TOL);
    assert_gradients_match(&[&a, &b], || ops::mean_all(&ops::mul(&a, &b)), TOL);
}

#[test]
fn gradcheck_scalar_ops() {
    let a = rand_param(&[2, 3], 11);
    assert_gradients_match(&[&a], || ops::mean_all(&ops::neg(&a)), TOL);
    assert_gradients_match(&[&a], || ops::mean_all(&ops::scale(&a, 2.5)), TOL);
    assert_gradients_match(&[&a], || ops::mean_all(&ops::add_scalar(&a, -1.7)), TOL);
}

#[test]
fn gradcheck_broadcast_middle_axis() {
    let a = rand_param(&[2, 1, 3], 3);
    let b = rand_param(&[2, 4, 1], 4);
    assert_gradients_match(&[&a, &b], || ops::mean_all(&ops::mul(&a, &b)), TOL);
}

#[test]
fn gradcheck_activations() {
    let x = rand_param(&[7], 5);
    assert_gradients_match(&[&x], || ops::mean_all(&ops::sigmoid(&x)), TOL);
    assert_gradients_match(&[&x], || ops::mean_all(&ops::tanh(&x)), TOL);
    assert_gradients_match(&[&x], || ops::mean_all(&ops::gelu(&x)), TOL);
    assert_gradients_match(&[&x], || ops::mean_all(&ops::softplus(&x)), TOL);
    assert_gradients_match(&[&x], || ops::mean_all(&ops::exp(&x)), TOL);
}

#[test]
fn gradcheck_relu_away_from_kink() {
    let x = Tensor::param(NdArray::from_vec(vec![4], vec![-0.9, -0.3, 0.4, 1.2]));
    assert_gradients_match(&[&x], || ops::mean_all(&ops::relu(&x)), TOL);
}

#[test]
fn gradcheck_log_positive_inputs() {
    let x = Tensor::param(NdArray::from_vec(vec![3], vec![0.5, 1.5, 3.0]));
    assert_gradients_match(&[&x], || ops::mean_all(&ops::log(&x)), TOL);
}

#[test]
fn gradcheck_matmul_chain() {
    let a = rand_param(&[3, 4], 7);
    let b = rand_param(&[4, 2], 8);
    assert_gradients_match(&[&a, &b], || ops::mean_all(&ops::matmul(&a, &b)), TOL);
}

#[test]
fn gradcheck_bmm() {
    let a = rand_param(&[2, 3, 4], 9);
    let b = rand_param(&[2, 4, 2], 10);
    assert_gradients_match(&[&a, &b], || ops::mean_all(&ops::bmm(&a, &b)), TOL);
}

#[test]
fn gradcheck_matmul_nt() {
    // Right operand stays in [n, k] layout; the op multiplies by its
    // transpose without materializing it.
    let a = rand_param(&[3, 4], 70);
    let b = rand_param(&[5, 4], 71);
    assert_gradients_match(&[&a, &b], || ops::mean_all(&ops::matmul_nt(&a, &b)), TOL);
}

#[test]
fn gradcheck_bmm_nt() {
    let a = rand_param(&[2, 3, 4], 72);
    let b = rand_param(&[2, 5, 4], 73);
    assert_gradients_match(&[&a, &b], || ops::mean_all(&ops::bmm_nt(&a, &b)), TOL);
}

#[test]
fn gradcheck_softmax_and_log_softmax() {
    let x = rand_param(&[2, 5], 11);
    let w = Tensor::constant(NdArray::from_vec(
        vec![2, 5],
        (0..10).map(|i| (i as f32 * 0.7).sin()).collect(),
    ));
    assert_gradients_match(
        &[&x],
        || ops::mean_all(&ops::mul(&ops::softmax(&x), &w)),
        TOL,
    );
    assert_gradients_match(
        &[&x],
        || ops::mean_all(&ops::mul(&ops::log_softmax(&x), &w)),
        TOL,
    );
}

#[test]
fn gradcheck_layer_norm_all_params() {
    let x = rand_param(&[3, 6], 12);
    let gamma = rand_param(&[6], 13);
    let beta = rand_param(&[6], 14);
    let w = Tensor::constant(NdArray::from_vec(
        vec![3, 6],
        (0..18).map(|i| (i as f32 * 0.37).cos()).collect(),
    ));
    assert_gradients_match(
        &[&x, &gamma, &beta],
        || ops::mean_all(&ops::mul(&ops::layer_norm(&x, &gamma, &beta, 1e-5), &w)),
        TOL,
    );
}

#[test]
fn gradcheck_l2_normalize() {
    let x = rand_param(&[2, 4], 15);
    let w = Tensor::constant(NdArray::from_vec(
        vec![2, 4],
        (0..8).map(|i| (i as f32 * 1.3).sin()).collect(),
    ));
    assert_gradients_match(
        &[&x],
        || ops::mean_all(&ops::mul(&ops::l2_normalize(&x, 1e-12), &w)),
        TOL,
    );
}

#[test]
fn gradcheck_embedding() {
    let w = rand_param(&[5, 3], 16);
    assert_gradients_match(
        &[&w],
        || ops::mean_all(&ops::embedding(&w, &[0, 2, 2, 4], &[4])),
        TOL,
    );
}

#[test]
fn gradcheck_cross_entropy() {
    let logits = rand_param(&[3, 6], 17);
    assert_gradients_match(&[&logits], || ops::cross_entropy(&logits, &[1, 0, 5]), TOL);
}

#[test]
fn gradcheck_shape_ops() {
    let x = rand_param(&[2, 3, 4], 18);
    let w = Tensor::constant(NdArray::from_vec(
        vec![4, 3, 2],
        (0..24).map(|i| (i as f32 * 0.9).sin()).collect(),
    ));
    assert_gradients_match(
        &[&x],
        || ops::mean_all(&ops::mul(&ops::permute(&x, &[2, 1, 0]), &w)),
        TOL,
    );
    assert_gradients_match(&[&x], || ops::mean_all(&ops::reshape(&x, vec![6, 4])), TOL);
    assert_gradients_match(&[&x], || ops::mean_all(&ops::index_axis(&x, 1, 2)), TOL);
    assert_gradients_match(&[&x], || ops::mean_all(&ops::slice_axis(&x, 1, 1, 2)), TOL);
    assert_gradients_match(&[&x], || ops::mean_all(&ops::unfold_time(&x, 2)), TOL);
    assert_gradients_match(
        &[&x],
        || ops::mean_all(&ops::gather_positions(&x, &[(0, 1), (1, 2), (1, 0)])),
        TOL,
    );
}

#[test]
fn gradcheck_concat() {
    let a = rand_param(&[2, 2], 19);
    let b = rand_param(&[2, 3], 20);
    assert_gradients_match(
        &[&a, &b],
        || ops::mean_all(&ops::concat(&[a.clone(), b.clone()], 1)),
        TOL,
    );
}

#[test]
fn gradcheck_reductions() {
    let x = rand_param(&[3, 4], 21);
    assert_gradients_match(&[&x], || ops::sum_all(&x), TOL);
    assert_gradients_match(&[&x], || ops::mean_all(&x), TOL);
    assert_gradients_match(&[&x], || ops::mean_all(&ops::sum_axis(&x, 0)), TOL);
    assert_gradients_match(&[&x], || ops::mean_all(&ops::mean_axis(&x, 1)), TOL);
}

/// The critical one: the fused spectral filter against finite differences,
/// for even and odd N, with nontrivial masks and a two-branch mix.
#[test]
#[allow(clippy::needless_range_loop)]
fn gradcheck_spectral_filter_mix() {
    for (n, seed) in [(8usize, 22u64), (7, 23), (10, 24)] {
        let d = 2;
        let m = n / 2 + 1;
        let x = rand_param(&[2, n, d], seed);
        let wd_re = rand_param(&[m, d], seed + 100);
        let wd_im = rand_param(&[m, d], seed + 200);
        let ws_re = rand_param(&[m, d], seed + 300);
        let ws_im = rand_param(&[m, d], seed + 400);
        // Dynamic window covering bins [1, m-1), static covering [0, 2).
        let mut mask_d = vec![0.0f32; m];
        for k in 1..m.saturating_sub(1) {
            mask_d[k] = 1.0;
        }
        let mut mask_s = vec![0.0f32; m];
        for k in 0..2.min(m) {
            mask_s[k] = 1.0;
        }
        let gamma = 0.3;
        let wconst = Tensor::constant(NdArray::from_vec(
            vec![2, n, d],
            (0..2 * n * d).map(|i| (i as f32 * 0.77).cos()).collect(),
        ));
        let build = || {
            let branches = [
                ops::SpectralBranch {
                    w_re: wd_re.clone(),
                    w_im: wd_im.clone(),
                    mask: mask_d.clone(),
                    coef: 1.0 - gamma,
                },
                ops::SpectralBranch {
                    w_re: ws_re.clone(),
                    w_im: ws_im.clone(),
                    mask: mask_s.clone(),
                    coef: gamma,
                },
            ];
            let y = ops::spectral_filter_mix(&x, &branches);
            ops::mean_all(&ops::mul(&y, &wconst))
        };
        assert_gradients_match(&[&x, &wd_re, &wd_im, &ws_re, &ws_im], build, TOL);
    }
}

/// The last-row filter op: the kernel adjoint (`grad_kappa` through the
/// transposed irfft tables) and the per-plane `grad_x`, for even and odd N
/// with two masked branches whose band leaves the low bins out.
#[test]
#[allow(clippy::needless_range_loop)]
fn gradcheck_spectral_filter_mix_last() {
    for (n, seed) in [(8usize, 52u64), (7, 53), (12, 54)] {
        let d = 2;
        let m = n / 2 + 1;
        let x = rand_param(&[3, n, d], seed);
        let wd_re = rand_param(&[m, d], seed + 100);
        let wd_im = rand_param(&[m, d], seed + 200);
        let ws_re = rand_param(&[m, d], seed + 300);
        let ws_im = rand_param(&[m, d], seed + 400);
        // Dynamic window over the top half, static over [2, m - 1).
        let mut mask_d = vec![0.0f32; m];
        for k in m / 2..m {
            mask_d[k] = 1.0;
        }
        let mut mask_s = vec![0.0f32; m];
        for k in 2..m - 1 {
            mask_s[k] = 1.0;
        }
        let gamma = 0.3;
        let wconst = Tensor::constant(NdArray::from_vec(
            vec![3, d],
            (0..3 * d).map(|i| (i as f32 * 0.77).cos()).collect(),
        ));
        let build = || {
            let branches = [
                ops::SpectralBranch {
                    w_re: wd_re.clone(),
                    w_im: wd_im.clone(),
                    mask: mask_d.clone(),
                    coef: 1.0 - gamma,
                },
                ops::SpectralBranch {
                    w_re: ws_re.clone(),
                    w_im: ws_im.clone(),
                    mask: mask_s.clone(),
                    coef: gamma,
                },
            ];
            let y = ops::spectral_filter_mix_last(&x, &branches);
            ops::mean_all(&ops::mul(&ops::mul(&y, &y), &wconst))
        };
        assert_gradients_match(&[&x, &wd_re, &wd_im, &ws_re, &ws_im], build, TOL);
    }
}

#[test]
fn gradcheck_spectral_filter_long_sequence() {
    // The ML-1M sequence length (n = 200): the table-matmul adjoints must
    // hold at the longest paper setting too.
    let (n, d) = (200usize, 1usize);
    let m = n / 2 + 1;
    let x = rand_param(&[1, n, d], 80);
    let w_re = rand_param(&[m, d], 81);
    let w_im = rand_param(&[m, d], 82);
    let mask = vec![1.0f32; m];
    assert_gradients_match(
        &[&x, &w_re, &w_im],
        || {
            let y = ops::spectral_filter(&x, &w_re, &w_im, &mask);
            ops::mean_all(&ops::mul(&y, &y))
        },
        TOL,
    );
}

#[test]
fn gradcheck_spectral_single_filter_quadratic_loss() {
    // Quadratic in the op output exercises interactions between grad_x and
    // grad_w paths.
    let (n, d) = (6usize, 2usize);
    let m = n / 2 + 1;
    let x = rand_param(&[1, n, d], 30);
    let w_re = rand_param(&[m, d], 31);
    let w_im = rand_param(&[m, d], 32);
    let mask = vec![1.0f32; m];
    assert_gradients_match(
        &[&x, &w_re, &w_im],
        || {
            let y = ops::spectral_filter(&x, &w_re, &w_im, &mask);
            ops::mean_all(&ops::mul(&y, &y))
        },
        TOL,
    );
}

/// Broadcast add/mul gradients hold for arbitrary compatible shapes.
#[test]
fn prop_broadcast_mul_gradients() {
    for rows in 1usize..4 {
        for cols in 1usize..4 {
            let seed = (rows * 101 + cols * 13) as u64;
            let a = rand_param(&[rows, cols], seed);
            let b = rand_param(&[cols], seed + 1);
            assert_gradients_match(&[&a, &b], || ops::mean_all(&ops::mul(&a, &b)), TOL);
        }
    }
}

/// Matmul gradients hold for arbitrary small shapes.
#[test]
fn prop_matmul_gradients() {
    for m in 1usize..4 {
        for k in 1usize..4 {
            for n in 1usize..4 {
                let seed = (m * 307 + k * 53 + n * 11) as u64;
                let a = rand_param(&[m, k], seed);
                let b = rand_param(&[k, n], seed + 7);
                assert_gradients_match(&[&a, &b], || ops::mean_all(&ops::matmul(&a, &b)), TOL);
            }
        }
    }
}

/// The spectral identity: a unit filter reproduces the input for any
/// length, and round-trips gradients exactly like identity.
#[test]
fn prop_spectral_identity() {
    for n in 2usize..12 {
        for seed in [0u64, 421, 997] {
            let d = 2;
            let m = n / 2 + 1;
            let x = rand_param(&[1, n, d], seed + n as u64);
            let w_re = Tensor::constant(NdArray::ones(vec![m, d]));
            let w_im = Tensor::constant(NdArray::zeros(vec![m, d]));
            let y = ops::spectral_filter(&x, &w_re, &w_im, &vec![1.0; m]);
            let xv = x.value();
            let yv = y.value();
            for (a, b) in yv.data().iter().zip(xv.data()) {
                assert!((a - b).abs() < 1e-3, "n={n}: {a} vs {b}");
            }
        }
    }
}

/// Cross-entropy gradient rows always sum to ~0 (softmax minus one-hot).
#[test]
fn prop_cross_entropy_grad_rows_sum_zero() {
    for b in 1usize..4 {
        for v in 2usize..6 {
            let seed = (b * 173 + v * 29) as u64;
            let logits = rand_param(&[b, v], seed);
            let targets: Vec<usize> = (0..b).map(|i| (seed as usize + i) % v).collect();
            ops::cross_entropy(&logits, &targets).backward();
            let g = logits.grad().unwrap();
            for r in 0..b {
                let s: f32 = g.data()[r * v..(r + 1) * v].iter().sum();
                assert!(s.abs() < 1e-5);
            }
        }
    }
}

#[test]
fn gradcheck_dropout_mask_is_consistent() {
    // Dropout is stochastic, so finite differences can't apply directly;
    // instead verify the backward mask equals the forward mask exactly.
    use slime_rng::rngs::StdRng;
    use slime_rng::SeedableRng;
    let x = Tensor::param(NdArray::ones(vec![64]));
    let mut rng = StdRng::seed_from_u64(5);
    let y = ops::dropout(&x, 0.5, &mut rng);
    ops::sum_all(&y).backward();
    let g = x.grad().unwrap();
    let yv = y.value();
    for (gv, yv) in g.data().iter().zip(yv.data()) {
        assert_eq!(*gv, *yv, "grad must equal the scaled keep mask");
    }
}

#[test]
fn gradcheck_composed_attention_style_chain() {
    // softmax(QK^T) V with shared parameters — a miniature of the attention
    // wiring, checked end-to-end through finite differences.
    let q = rand_param(&[3, 2], 40);
    let k = rand_param(&[3, 2], 41);
    let v = rand_param(&[3, 2], 42);
    assert_gradients_match(
        &[&q, &k, &v],
        || {
            let scores = ops::matmul(&q, &ops::permute(&k, &[1, 0]));
            let attn = ops::softmax(&ops::scale(&scores, 1.0 / 1.41));
            ops::mean_all(&ops::matmul(&attn, &v))
        },
        TOL,
    );
}

#[test]
fn gradcheck_layernorm_then_spectral_composition() {
    // The exact composition used by a filter-mixer block input path.
    let x = rand_param(&[1, 6, 2], 50);
    let gamma = rand_param(&[2], 51);
    let beta = rand_param(&[2], 52);
    let w_re = rand_param(&[4, 2], 53);
    let w_im = rand_param(&[4, 2], 54);
    let mask = vec![1.0f32; 4];
    assert_gradients_match(
        &[&x, &gamma, &beta, &w_re, &w_im],
        || {
            let n = ops::layer_norm(&x, &gamma, &beta, 1e-5);
            let y = ops::spectral_filter(&n, &w_re, &w_im, &mask);
            ops::mean_all(&ops::mul(&y, &y))
        },
        TOL,
    );
}
