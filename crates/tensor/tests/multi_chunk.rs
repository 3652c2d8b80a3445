//! Multi-chunk coverage for the row-wise grids: every op that runs on a
//! shape-only chunk grid (layer norms, the bias-GELU epilogue, same-shape
//! elementwise ops, `scale`, the leading-axis gradient sums, hashed dropout
//! and gradient accumulation) is run at shapes spanning several chunks with
//! a ragged last chunk. Forward values, a recorded plan's replay and every
//! gradient must be bitwise equal at 1, 2 and 4 threads and with the buffer
//! pool on and off; the fused epilogues' gradients must equal their unfused
//! chains' bit for bit at those row counts.
//!
//! Thread count, pool, SIMD backend and fuse gate are process-global, so
//! the tests in this file serialize on one lock.

use std::sync::Mutex;

use slime_rng::rngs::StdRng;
use slime_rng::{Rng, SeedableRng};
use slime_tensor::{fusion, ops, plan, pool, simd, NdArray, Tensor};

static GLOBALS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

fn rand_array(shape: &[usize], seed: u64) -> NdArray {
    let mut rng = StdRng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    NdArray::from_vec(
        shape.to_vec(),
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

fn bits(a: &NdArray) -> Vec<u32> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// One op under test: its leaves' shapes and the graph over them.
struct Case {
    name: &'static str,
    leaves: Vec<Vec<usize>>,
    build: fn(&[Tensor], &mut StdRng) -> Tensor,
}

fn cases() -> Vec<Case> {
    // [130, 200, 64] is ~100 chunks of 2^14 elements; [3, 201, 64] is three
    // chunks of 256 rows, the last one ragged.
    let big = vec![130, 200, 64];
    let small = vec![3, 201, 64];
    vec![
        Case {
            name: "layer_norm",
            leaves: vec![big.clone(), vec![64], vec![64]],
            build: |l, _| ops::layer_norm(&l[0], &l[1], &l[2], 1e-5),
        },
        Case {
            name: "add_layer_norm",
            leaves: vec![small.clone(), small.clone(), vec![64], vec![64]],
            build: |l, _| fusion::add_layer_norm(&l[0], &l[1], &l[2], &l[3], 1e-5),
        },
        Case {
            name: "matmul_bias_gelu n=64",
            leaves: vec![vec![603, 16], vec![16, 64], vec![64]],
            build: |l, _| fusion::matmul_bias_gelu(&l[0], &l[1], &l[2]),
        },
        Case {
            name: "matmul_bias_gelu n=12",
            leaves: vec![vec![3000, 8], vec![8, 12], vec![12]],
            build: |l, _| fusion::matmul_bias_gelu(&l[0], &l[1], &l[2]),
        },
        Case {
            name: "add/sub/mul/scale",
            leaves: vec![small.clone(), small.clone()],
            build: |l, _| {
                let s = ops::sub(&ops::add(&l[0], &l[1]), &ops::scale(&l[1], 0.75));
                ops::mul(&s, &l[0])
            },
        },
        Case {
            name: "bias and positional sums",
            leaves: vec![big.clone(), vec![64], vec![200, 64]],
            build: |l, _| ops::add(&ops::add(&l[0], &l[1]), &l[2]),
        },
        Case {
            name: "ragged positional sum",
            leaves: vec![small.clone(), vec![1, 201, 64]],
            build: |l, _| ops::add(&l[0], &l[1]),
        },
        Case {
            name: "hashed dropout",
            leaves: vec![big.clone()],
            build: |l, rng| ops::dropout(&l[0], 0.3, rng),
        },
    ]
}

/// Capture the case as a plan, then: the eager forward, a replay after the
/// leaves moved, and every leaf's gradient through the replayed graph (the
/// seed gradient is non-uniform so the sums are not trivial).
fn run(case: &Case) -> Vec<Vec<u32>> {
    let leaves: Vec<Tensor> = case
        .leaves
        .iter()
        .enumerate()
        .map(|(i, s)| Tensor::param(rand_array(s, 10 + i as u64)))
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let (inputs, targets) = ([0usize; 1], [0usize; 1]);
    plan::begin_capture(&inputs, &targets);
    let y = (case.build)(&leaves, &mut rng);
    let step = plan::end_capture().expect("every case is replayable");
    let mut out = vec![bits(&y.value())];
    for (i, l) in leaves.iter().enumerate() {
        l.set_data(rand_array(&case.leaves[i], 100 + i as u64));
    }
    step.replay(&inputs, &targets, Some(&mut rng))
        .expect("replay");
    out.push(bits(&y.value()));
    y.backward_with(rand_array(&y.shape(), 99));
    out.extend(leaves.iter().map(|l| bits(&l.grad().expect("leaf grad"))));
    out
}

#[test]
fn grid_ops_are_bitwise_stable_across_threads_and_pool() {
    let _g = lock();
    let (threads_was, pool_was, fuse_was) = (
        slime_par::num_threads(),
        pool::enabled(),
        simd::fuse::enabled(),
    );
    simd::fuse::set_enabled(true);
    for case in cases() {
        let mut reference: Option<Vec<Vec<u32>>> = None;
        for threads in [1usize, 2, 4] {
            for pool_on in [true, false] {
                slime_par::set_threads(threads);
                pool::set_enabled(pool_on);
                let got = run(&case);
                match &reference {
                    None => reference = Some(got),
                    Some(want) => {
                        for (k, (a, b)) in want.iter().zip(&got).enumerate() {
                            assert!(
                                a == b,
                                "{}: output {k} differs at threads={threads} pool={pool_on}",
                                case.name
                            );
                        }
                    }
                }
            }
        }
    }
    slime_par::set_threads(threads_was);
    pool::set_enabled(pool_was);
    simd::fuse::set_enabled(fuse_was);
}

/// Gradients of two graphs over the same leaves, bitwise.
fn assert_same_grads(fused: &Tensor, unfused: &Tensor, leaves: &[&Tensor], what: &str) {
    let seed = rand_array(&fused.shape(), 77);
    let mut want = Vec::new();
    for (pass, y) in [fused, unfused].into_iter().enumerate() {
        for l in leaves {
            l.zero_grad();
        }
        y.backward_with(seed.clone());
        let got: Vec<Vec<u32>> = leaves.iter().map(|l| bits(&l.grad().unwrap())).collect();
        if pass == 0 {
            want = got;
        } else {
            for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                assert!(a == b, "{what}: leaf {i} gradient differs fused vs unfused");
            }
        }
    }
    assert_eq!(
        bits(&fused.value()),
        bits(&unfused.value()),
        "{what}: forward"
    );
}

#[test]
fn fused_bias_and_norm_gradients_match_unfused_across_chunks() {
    let _g = lock();
    let was = simd::enabled();
    for simd_on in [false, true] {
        simd::set_enabled(simd_on);
        let tag = format!("{:?}", simd::backend());
        for (rows, k, n) in [(603usize, 16usize, 64usize), (3000, 8, 12)] {
            let x = Tensor::param(rand_array(&[rows, k], 1));
            let w = Tensor::param(rand_array(&[k, n], 2));
            let b = Tensor::param(rand_array(&[n], 3));
            let fused = fusion::matmul_bias_gelu(&x, &w, &b);
            let unfused = ops::gelu(&ops::add(&ops::matmul(&x, &w), &b));
            let what = format!("[{tag}] bias_gelu rows={rows} n={n}");
            assert_same_grads(&fused, &unfused, &[&x, &w, &b], &what);
        }
        let a = Tensor::param(rand_array(&[3, 201, 64], 4));
        let c = Tensor::param(rand_array(&[3, 201, 64], 5));
        let gamma = Tensor::param(rand_array(&[64], 6));
        let beta = Tensor::param(rand_array(&[64], 7));
        let fused = fusion::add_layer_norm(&a, &c, &gamma, &beta, 1e-5);
        let unfused = ops::layer_norm(&ops::add(&a, &c), &gamma, &beta, 1e-5);
        let what = format!("[{tag}] add_layer_norm");
        assert_same_grads(&fused, &unfused, &[&a, &c, &gamma, &beta], &what);
    }
    simd::set_enabled(was);
}

#[test]
fn hashed_dropout_backward_regenerates_the_forward_mask() {
    let _g = lock();
    let fuse_was = simd::fuse::enabled();
    simd::fuse::set_enabled(true);
    // Five chunks, the last ragged; with x = 1 the output is the mask.
    let n = 4 * (1 << 14) + 1003;
    let x = Tensor::param(NdArray::ones(vec![n]));
    let mut rng = StdRng::seed_from_u64(3);
    let (inputs, targets) = ([0usize; 1], [0usize; 1]);
    plan::begin_capture(&inputs, &targets);
    let y = ops::dropout(&x, 0.4, &mut rng);
    let step = plan::end_capture().expect("dropout is replayable");
    let first = y.value();
    let kept = first.data().iter().filter(|&&v| v != 0.0).count();
    assert!(
        (n * 5 / 10..n * 7 / 10).contains(&kept),
        "kept {kept} of {n}"
    );
    // The chunked forward equals one kernel call over the whole array with
    // the seed the op drew (the rng's first u64).
    let seed = StdRng::seed_from_u64(3).gen::<u64>();
    let mut whole = vec![0.0f32; n];
    (simd::kernels().dropout_mask)(seed, 0, 0.6, 1.0 / 0.6, &vec![1.0; n], &mut whole);
    assert_eq!(
        bits(&first),
        bits(&NdArray::from_vec(vec![n], whole)),
        "chunked dropout differs from one whole call"
    );

    step.replay(&inputs, &targets, Some(&mut rng))
        .expect("replay");
    let second = y.value();
    assert_ne!(bits(&first), bits(&second), "replay must re-draw the seed");
    y.backward_with(NdArray::ones(vec![n]));
    assert_eq!(
        bits(&x.grad().unwrap()),
        bits(&second),
        "backward mask differs from the replayed forward's"
    );
    simd::fuse::set_enabled(fuse_was);
}
