//! Runtime-knob determinism: training the full model is bitwise identical
//! across thread counts (1 vs 4) and with the buffer pool on vs off — and
//! that holds within each SIMD backend (scalar and, where detected,
//! AVX2+FMA).
//!
//! This is the contract slime-par and the slime-tensor buffer pool sell:
//! every parallel kernel either keeps floating-point accumulation inside one
//! chunk of a thread-count-independent grid, or folds per-chunk partials in
//! chunk order; and a pooled buffer is either fully overwritten or handed
//! out empty before any value is read from it. If any kernel raced its
//! accumulation order — or any code path read recycled bytes — two epochs
//! of SGD would amplify the differences into visibly different losses and
//! weights.
//!
//! The SIMD dimension is deliberately *inside* the matrix, not across it:
//! the two backends may differ from each other in the last float bits (FMA
//! contraction, 8-lane tree reductions), but each backend is a pure
//! function of the input values — so threads × pool sweeps must stay
//! bitwise stable under both.
//!
//! The fuse dimension (fused epilogues + recorded step plans, DESIGN.md
//! §14) sits inside the matrix the same way: the fused fast path uses the
//! hashed dropout sampler, so fuse on/off are two (equally deterministic)
//! training runs — but within each fuse×SIMD configuration, threads × pool
//! sweeps must stay bitwise identical, and plan replay must be bitwise
//! identical to the eager trace it stands in for (pinned end to end in
//! `tests/step_plan.rs`).

use std::sync::Mutex;

use slime4rec::{run_slime, ContrastiveMode, SlimeConfig, TrainConfig};
use slime_data::synthetic::{generate_with_core, SyntheticConfig};
use slime_data::SeqDataset;
use slime_nn::Module;
use slime_tensor::StateDict;

/// Every test in this binary mutates process-global runtime knobs
/// (thread count, pool, SIMD backend, fuse) and compares results bitwise
/// — two tests sweeping concurrently would flip each other's knobs
/// mid-run. Serialize them.
static KNOB_LOCK: Mutex<()> = Mutex::new(());

fn tiny_ds() -> SeqDataset {
    let cfg = SyntheticConfig {
        name: "determinism-test".into(),
        users: 60,
        clusters: 4,
        items_per_cluster: 5,
        noise_items: 4,
        min_len: 8,
        max_len: 14,
        low_period: 5,
        high_cycle: 3,
        p_high: 0.6,
        p_noise: 0.1,
    };
    generate_with_core(&cfg, 11, 0)
}

fn train_once(
    ds: &SeqDataset,
    threads: usize,
    pool_on: bool,
    simd_on: bool,
    fuse_on: bool,
) -> (Vec<f32>, StateDict) {
    slime_par::set_threads(threads);
    slime_tensor::pool::set_enabled(pool_on);
    slime_tensor::simd::set_enabled(simd_on);
    slime_tensor::simd::fuse::set_enabled(fuse_on);
    let mut cfg = SlimeConfig::small(ds.num_items());
    cfg.hidden = 16;
    cfg.max_len = 10;
    cfg.layers = 2;
    cfg.contrastive = ContrastiveMode::Unsupervised;
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 32,
        ..TrainConfig::default()
    };
    let (model, report, _) = run_slime(ds, &cfg, &tc);
    slime_tensor::pool::set_enabled(true);
    (report.epoch_losses, model.state_dict())
}

fn assert_bitwise_eq(
    (losses_a, params_a): &(Vec<f32>, StateDict),
    (losses_b, params_b): &(Vec<f32>, StateDict),
    what: &str,
) {
    assert_eq!(losses_a.len(), losses_b.len(), "{what}: epoch count");
    for (e, (a, b)) in losses_a.iter().zip(losses_b).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: epoch {e} loss differs: {a} vs {b}"
        );
    }

    let names_a: Vec<&str> = params_a.names().collect();
    let names_b: Vec<&str> = params_b.names().collect();
    assert_eq!(names_a, names_b, "{what}: parameter names");
    assert!(!names_a.is_empty());
    for name in names_a {
        let a = params_a.get(name).unwrap();
        let b = params_b.get(name).unwrap();
        assert_eq!(a.shape, b.shape, "{what}: {name} shape");
        assert_eq!(a.data.len(), b.data.len(), "{what}: {name} length");
        for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: {name}[{i}] differs: {x} vs {y}"
            );
        }
    }
}

/// The `--quantize` × `--retrieval` serving matrix: end-to-end
/// recommendations through a quantized two-stage retriever must be bitwise
/// stable across threads × pool within each SIMD backend (the float
/// user-repr forward is per-backend, like training), and the *retrieval
/// index itself* must come out bitwise identical across **all** knobs —
/// its build consumes only quantized codes and exact integer dots.
#[test]
fn quantized_two_stage_serving_is_knob_invariant() {
    use slime4rec::recommend::recommend_batch_with;
    use slime4rec::retrieval::{RetrievalConfig, RetrievalMode, Retriever};
    use slime4rec::Slime4Rec;

    let _knobs = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ds = tiny_ds();
    let histories: Vec<Vec<usize>> = (0..6).map(|u| ds.train_seq(u).to_vec()).collect();
    let refs: Vec<&[usize]> = histories.iter().map(Vec::as_slice).collect();

    let serve =
        |threads: usize, pool_on: bool, simd_on: bool, mode: RetrievalMode, quantize: bool| {
            slime_par::set_threads(threads);
            slime_tensor::pool::set_enabled(pool_on);
            slime_tensor::simd::set_enabled(simd_on);
            let mut cfg = SlimeConfig::small(ds.num_items());
            cfg.hidden = 16;
            cfg.max_len = 10;
            cfg.layers = 1;
            cfg.contrastive = ContrastiveMode::None;
            // Seeded init is knob-invariant, so every run builds the retriever
            // over the same embedding table.
            let model = Slime4Rec::new(cfg);
            let rcfg = RetrievalConfig {
                mode,
                quantize,
                cells: 4,
                nprobe: 2,
                iters: 3,
                ..RetrievalConfig::default()
            };
            let r = Retriever::build(&model.item_emb.weight.value(), rcfg);
            let index_fp: Vec<Vec<u32>> = r
                .kmeans()
                .map(|k| (0..k.n_cells()).map(|c| k.cell(c).to_vec()).collect())
                .unwrap_or_default();
            let recs = recommend_batch_with(&model, &refs, 5, true, Some(&r));
            let rec_fp: Vec<Vec<(usize, u32)>> = recs
                .iter()
                .map(|user| user.iter().map(|x| (x.item, x.score.to_bits())).collect())
                .collect();
            slime_tensor::pool::set_enabled(true);
            (index_fp, rec_fp)
        };

    let simd_was = slime_tensor::simd::enabled();
    for (mode, quantize) in [
        (RetrievalMode::TwoStage, true),
        (RetrievalMode::TwoStage, false),
        (RetrievalMode::Exact, true),
    ] {
        let mut index_baseline: Option<Vec<Vec<u32>>> = None;
        for simd_on in [true, false] {
            let label = if simd_on { "simd-on" } else { "scalar" };
            let baseline = serve(1, true, simd_on, mode, quantize);
            // Index build: bitwise across *everything*, SIMD included.
            match &index_baseline {
                None => index_baseline = Some(baseline.0.clone()),
                Some(b) => assert_eq!(
                    b,
                    &baseline.0,
                    "[{}] index differs across SIMD backends",
                    mode.as_str()
                ),
            }
            for (threads, pool_on) in [(4, true), (1, false), (4, false)] {
                let run = serve(threads, pool_on, simd_on, mode, quantize);
                assert_eq!(
                    baseline,
                    run,
                    "[{label} {} quantize={quantize}] differs at {threads} \
                     threads/pool-{}",
                    mode.as_str(),
                    if pool_on { "on" } else { "off" }
                );
            }
        }
    }
    slime_tensor::simd::set_enabled(simd_was);
    slime_par::set_threads(1);
}

/// Concurrent serving determinism: N client threads hammering the daemon
/// must receive bitwise-identical responses to the same requests issued
/// serially over one connection — swept across SIMD × serve-workers ×
/// quantize. This is batch-composition invariance end to end: the
/// micro-batcher gathers arbitrary request mixes under concurrency (the
/// serial pass gathers mostly singletons), so any cross-row leakage in
/// the batched forward pass, the seen-bitmap reuse, or the shared scratch
/// buffers would show up as a flipped bit here.
#[test]
fn concurrent_serving_is_bitwise_identical_to_serial() {
    use slime4rec::retrieval::{RetrievalConfig, RetrievalMode, Retriever};
    use slime4rec::Slime4Rec;
    use slime_serve::{Client, ModelEngine, RecEngine, ServeConfig, Server};

    let _knobs = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ds = tiny_ds();
    // A request mix that exercises ragged histories, varying k, and both
    // exclude settings.
    let requests: Vec<(Vec<usize>, usize, bool)> = (0..24)
        .map(|i| {
            let h = ds.train_seq(i % ds.num_users()).to_vec();
            (h, 1 + i % 7, i % 2 == 0)
        })
        .collect();
    let fingerprint = |items: Vec<(u32, f32)>| -> Vec<(u32, u32)> {
        items
            .into_iter()
            .map(|(it, sc)| (it, sc.to_bits()))
            .collect()
    };

    let simd_was = slime_tensor::simd::enabled();
    for quantize in [false, true] {
        for simd_on in [true, false] {
            for workers in [1usize, 4] {
                slime_tensor::simd::set_enabled(simd_on);
                // `workers` only caps the process count, so raise that to
                // `workers` for the corner to run at its nominal count.
                slime_par::set_threads(workers);
                let label = format!(
                    "simd={} workers={workers} quantize={quantize}",
                    if simd_on { "on" } else { "off" }
                );
                let num_items = ds.num_items();
                let server = Server::start(
                    ServeConfig {
                        port: 0,
                        workers,
                        max_batch: 8,
                        linger_us: 1000,
                        queue_cap: 256,
                    },
                    move || {
                        // Seeded init: every boot serves the same weights.
                        let mut cfg = SlimeConfig::small(num_items);
                        cfg.hidden = 16;
                        cfg.max_len = 10;
                        cfg.layers = 1;
                        cfg.contrastive = ContrastiveMode::None;
                        let model = Slime4Rec::new(cfg);
                        let retriever = quantize.then(|| {
                            Retriever::build(
                                &model.item_emb.weight.value(),
                                RetrievalConfig {
                                    mode: RetrievalMode::Exact,
                                    quantize: true,
                                    ..RetrievalConfig::default()
                                },
                            )
                        });
                        Box::new(ModelEngine::new(model, retriever)) as Box<dyn RecEngine>
                    },
                )
                .expect("daemon boots");

                // Serial pass: one connection, one request at a time.
                let mut serial_client = Client::connect(server.addr()).unwrap();
                let serial: Vec<Vec<(u32, u32)>> = requests
                    .iter()
                    .map(|(h, k, ex)| fingerprint(serial_client.recommend(h, *k, *ex).unwrap()))
                    .collect();

                // Concurrent pass: 4 threads each replay the full request
                // list against the same daemon, interleaving freely so the
                // batcher gathers mixed-composition batches.
                let concurrent: Vec<Vec<Vec<(u32, u32)>>> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..4)
                        .map(|_| {
                            scope.spawn(|| {
                                let mut c = Client::connect(server.addr()).unwrap();
                                requests
                                    .iter()
                                    .map(|(h, k, ex)| fingerprint(c.recommend(h, *k, *ex).unwrap()))
                                    .collect()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                let snap = server.stats();
                server.shutdown();

                for (t, got) in concurrent.iter().enumerate() {
                    assert_eq!(got, &serial, "[{label}] client thread {t} diverged");
                }
                // The sweep only proves something if batching engaged.
                assert!(
                    snap.max_occupancy > 1,
                    "[{label}] concurrent pass never formed a multi-request batch"
                );
            }
        }
    }
    slime_tensor::simd::set_enabled(simd_was);
    slime_par::set_threads(1);
}

#[test]
fn training_is_bitwise_identical_across_threads_pool_and_fuse() {
    let _knobs = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ds = tiny_ds();
    let simd_was = slime_tensor::simd::enabled();
    let fuse_was = slime_tensor::simd::fuse::enabled();
    // Sweep the dispatched backend first (whatever SLIME_SIMD + the CPU
    // probe resolve to when on), then force the scalar backend; each
    // fuse × SIMD configuration must be internally bitwise stable across
    // threads × pool. (Fuse on and off are different runs by design — the
    // fused path samples dropout with the hashed kernel.)
    for simd_on in [true, false] {
        let label = if simd_on { "simd-on" } else { "scalar" };
        for fuse_on in [true, false] {
            let flabel = format!("{label}/fuse-{}", if fuse_on { "on" } else { "off" });
            let baseline = train_once(&ds, 1, true, simd_on, fuse_on);
            for (threads, pool_on) in [(4, true), (1, false), (4, false)] {
                let run = train_once(&ds, threads, pool_on, simd_on, fuse_on);
                assert_bitwise_eq(
                    &baseline,
                    &run,
                    &format!(
                        "[{flabel}] 1 thread/pool-on vs {threads} threads/pool-{}",
                        if pool_on { "on" } else { "off" }
                    ),
                );
            }
        }
    }
    slime_tensor::simd::set_enabled(simd_was);
    slime_tensor::simd::fuse::set_enabled(fuse_was);
}
