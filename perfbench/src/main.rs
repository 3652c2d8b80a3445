//! `slime-perfbench`: one workload of the train-and-serve benchmark per run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-long|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload trains a SLIME4Rec model, evaluates it by full ranking
//! over the test split and serves it through the `slime-serve` daemon, the
//! three phases taking turns over the run. The workloads differ in catalog,
//! sequence length and contrastive mode, and in which phase gets most of
//! the run. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — end-to-end ones with `--trace 0`, per-layer ones with
//! `--trace 1`. See README.md for the metric map.

mod checks;
mod serve;
mod stats;
mod train;

use std::time::Instant;

use slime4rec::{ContrastiveMode, Slime4Rec};
use slime_data::synthetic::{generate, generate_long_tail, profile, LongTailConfig};
use slime_data::SeqDataset;
use slime_nn::Module;
use slime_tensor::StateDict;

use stats::Metrics;
use train::TrainShape;

/// Run length the per-workload sizes below are set for; other `--seconds`
/// scale the number of training slices and the serving time in proportion.
const REFERENCE_SECONDS: f64 = 40.0;

/// End-to-end metrics, reported by every workload with `--trace 0`; the
/// same names, units and order as BENCHMARK.json.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("train_examples_per_s", "examples/s"),
    ("eval_users_per_s", "users/s"),
    ("serve_p50_ms", "ms"),
    ("serve_recall10", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
const PER_LAYER: [(&str, &str); 38] = [
    ("json.load_s", "s"),
    ("data.batch_ms", "ms"),
    ("model.encode_ms", "ms"),
    ("model.filter_mixer_ms", "ms"),
    ("fft.lookups_per_step", "count"),
    ("fft.plan_cache_hit_rate", "fraction"),
    ("tensor.score_ms", "ms"),
    ("tensor.score_gflops", "GFLOP/s"),
    ("tensor.loss_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("tensor.adam_ms", "ms"),
    ("tensor.adam_gbps", "GB/s"),
    ("tensor.pool_hit_rate", "fraction"),
    ("tensor.nodes_per_step", "count"),
    ("tensor.plan_replay_share", "fraction"),
    ("par.jobs_per_step", "count"),
    ("par.serial_share", "fraction"),
    ("par.chunks_per_job", "count"),
    ("eval.forward_ms", "ms"),
    ("eval.rank_ms", "ms"),
    ("retrieval.build_s", "s"),
    ("retrieval.shortlist_us", "us"),
    ("retrieval.candidates_per_query", "count"),
    ("retrieval.rerank_us", "us"),
    ("recommend.batch_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.batch_occupancy", "count"),
    ("serve.outside_engine_ms", "ms"),
    ("serve.batch_dependent_share", "fraction"),
    ("protocol.codec_us", "us"),
    ("serve.boot_s", "s"),
    ("serve.qps", "requests/s"),
    ("serve.p99_ms", "ms"),
    ("serve.coverage", "fraction"),
    ("train.model_epoch_s", "s"),
    ("train.traced_epoch_s", "s"),
    ("train.examples_per_s", "examples/s"),
    ("train.coverage", "fraction"),
];

struct Workload {
    name: &'static str,
    /// The dataset, generated from the seed.
    data: fn(u64) -> SeqDataset,
    shape: TrainShape,
    /// Batches per timed evaluation slice.
    eval_chunk: usize,
    /// Share of `--seconds` spent serving.
    serve_share: f64,
}

/// Every user of a workload has the same history length, so each training
/// shard holds the same number of examples in whole batches.
fn ml1m_long(seed: u64) -> SeqDataset {
    let mut cfg = profile("ml-1m", 1.0);
    cfg.users = 4096;
    cfg.min_len = 195;
    cfg.max_len = 195;
    generate(&cfg, seed)
}

fn long_tail(items: usize, clusters: usize, users: usize, seed: u64) -> SeqDataset {
    let mut cfg = LongTailConfig::at_scale(items);
    cfg.users = users;
    cfg.clusters = clusters;
    cfg.min_len = 19;
    cfg.max_len = 19;
    generate_long_tail(&cfg, seed)
}

fn serving_catalog(seed: u64) -> SeqDataset {
    long_tail(100_000, 16, 4096, seed)
}

fn workloads() -> Vec<Workload> {
    vec![
        // 195-item histories at stride 24: 8 examples per user, one
        // 128-example step per 16-user shard.
        Workload {
            name: "train-long",
            data: ml1m_long,
            shape: TrainShape {
                max_len: 200,
                contrastive: ContrastiveMode::Supervised,
                stride: 24,
                shard_users: 16,
                slices: 16,
            },
            eval_chunk: 1,
            serve_share: 0.2,
        },
        // 19-item histories at stride 4: 4 examples per user, 4 steps per
        // 128-user shard.
        Workload {
            name: "serve",
            data: serving_catalog,
            shape: TrainShape {
                max_len: 50,
                contrastive: ContrastiveMode::None,
                stride: 4,
                shard_users: 128,
                slices: 6,
            },
            eval_chunk: 2,
            serve_share: 0.4,
        },
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds {} out of (0, 600]", a.seconds));
    }
    Ok(a)
}

/// Pin every ambient knob the program reads, before any of it runs, and
/// print them with the host facts they depend on.
fn pin_knobs(a: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    let knobs = [
        ("SLIME_THREADS", threads.to_string()),
        ("SLIME_SIMD", "1".to_string()),
        ("SLIME_FUSE", "1".to_string()),
        ("SLIME_POOL", "1".to_string()),
        ("SLIME_TRACE", "off".to_string()),
        ("SLIME_RETRIEVAL", "two-stage".to_string()),
    ];
    for (k, v) in &knobs {
        std::env::set_var(k, v);
    }
    slime_par::set_threads(threads);
    slime_tensor::simd::set_enabled(true);
    slime_tensor::simd::fuse::set_enabled(true);
    slime_tensor::pool::set_enabled(true);
    let pinned: Vec<String> = knobs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "# env workload={} seed={} seconds={} trace={} nproc={nproc} slime_par_threads={} simd_backend={} avx2_fma_detected={} {}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        slime_par::num_threads(),
        slime_tensor::simd::backend().name(),
        slime_tensor::simd::avx2_fma_detected(),
        pinned.join(" ")
    );
}

/// Slices of an `n`-slice phase that should be done by the end of `round`
/// when they are spread evenly over the serving rounds.
fn due(n: usize, round: usize) -> usize {
    (n * (round + 1)).div_ceil(serve::WINDOWS)
}

fn scaled(base: usize, seconds: f64) -> usize {
    ((base as f64 * seconds / REFERENCE_SECONDS).round() as usize).max(2)
}

/// Runs workload `w`; `t_start` is the clock read first thing in `main`.
fn run(w: &Workload, a: &Args, t_start: Instant) -> Result<(bool, u64, u64, Metrics), String> {
    let phase = |name: &str| eprintln!("# {:8.3} s  {name}", t_start.elapsed().as_secs_f64());
    let mut out = Metrics::default();
    let mut shape_slices = scaled(w.shape.slices, a.seconds);
    if a.trace {
        // The traced run needs one shard for `train_model` and the
        // call-by-call epoch.
        shape_slices = 1;
    }
    let shape = TrainShape {
        slices: shape_slices,
        ..w.shape
    };

    // The training set-up is timed from the process's start, so it also
    // covers generating the dataset and writing it as JSON: whatever a
    // change moves ahead of the first training step still counts.
    let dataset_json = slime_json::to_string(&(w.data)(a.seed));
    phase("inputs generated");
    let p = train::setup(&dataset_json, &shape, a.seed)?;
    let train_setup_s = t_start.elapsed().as_secs_f64();
    drop(dataset_json);
    phase("training set-up done");

    let mut problems: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut training = (!a.trace).then(|| train::TrainRun::new(&p, a.seed));
    if a.trace {
        train::traced(&p, a.seed, &mut out);
        phase("traced training done");
    } else if let Some(t) = training.as_mut() {
        // The first slice runs cold and trains the model the daemon will
        // serve; its rate is left out of the metric.
        t.step();
        phase("first training slice done");
    }

    // The daemon serves the model as it stands now. The rest of training,
    // the serving windows and the evaluation slices then take turns in
    // equal rounds, so that each of them samples the whole run rather than
    // one stretch of it: the host's slow spells last seconds to tens of
    // seconds, and all metrics of a run then meet the same ones.
    let weights = p.model.state_dict();
    let weights_json_s = if a.trace && w.name == "serve" {
        weights_json_load_s(&weights)?
    } else {
        0.0
    };
    let served_model = Slime4Rec::new(p.cfg.clone());
    served_model.load_state_dict(&weights);
    let mut daemon = serve::Daemon::boot(&p.cfg, weights, a.seed, a.trace);
    phase("daemon up");
    let mut eval = training
        .as_ref()
        .map(|_| train::EvalRun::new(&p, w.eval_chunk));
    let window_s = a.seconds * w.serve_share / serve::WINDOWS as f64;
    for round in 0..serve::WINDOWS {
        if let Some(t) = training.as_mut() {
            while t.done() < due(t.slices(), round) {
                t.step();
            }
        }
        daemon.window(p.ds.sequences(), window_s);
        if let Some(e) = eval.as_mut() {
            while e.done() < due(e.slices(), round) {
                e.step();
            }
        }
    }
    if let (Some(t), Some(e)) = (training, eval) {
        let trained = t.finish();
        attempted += trained.steps as u64;
        out.set("train_examples_per_s", trained.examples_per_s, "examples/s");
        let evaluated = e.finish();
        attempted += evaluated.users_ranked as u64;
        out.set("eval_users_per_s", evaluated.users_per_s, "users/s");
        match train::head_quality(&p) {
            Ok((q, users)) => {
                attempted += users as u64;
                // Printed, not gated: after the few steps a run affords,
                // NDCG@10 follows the seed's dataset more than the program
                // (README.md).
                eprintln!(
                    "# test HR@5 {:.5} HR@10 {:.5} NDCG@10 {:.5} over the first {} users",
                    q.hr5, q.hr10, q.ndcg10, q.head_users
                );
                if let Err(e) =
                    checks::check_training(&trained.epoch_losses, q.hr5, q.hr10, q.ndcg10)
                {
                    problems.push(format!("training: {e}"));
                }
                if let Err(e) = train::check_rankings(&p, &q) {
                    problems.push(format!("rankings: {e}"));
                }
            }
            Err(e) => problems.push(format!("evaluation: {e}")),
        }
    }
    phase("training, serving and evaluation done");
    let served = daemon.finish(&served_model, &p.model, &mut out);
    attempted += served.attempted;
    phase("serving checks done");
    if let Err(e) = &served.check {
        problems.push(format!("serving: {e}"));
    }

    // The serve workload's set-up adds the daemon's to the training
    // set-up, both cold; training in between is the workload's work.
    let (setup_s, json_load_s) = if w.name == "serve" {
        (train_setup_s + served.setup_s, weights_json_s)
    } else {
        (train_setup_s, p.json_load_s)
    };
    if a.trace {
        out.set("json.load_s", json_load_s, "s");
    } else {
        out.set("setup_s", setup_s, "s");
        out.set("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    for msg in &problems {
        eprintln!("CHECK FAILED: {msg}");
    }
    let declared: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    Ok((
        problems.is_empty(),
        attempted,
        served.failed,
        out.select(declared)?,
    ))
}

/// Seconds `slime_json` takes to load `weights` back from JSON, as a
/// model directory's weights.json would be loaded. The daemon is handed
/// the state in memory: the load is reported here, per layer, and kept out
/// of `setup_s` (see README.md, "Set-up time").
fn weights_json_load_s(weights: &StateDict) -> Result<f64, String> {
    let json = slime_json::to_string(weights);
    let t = Instant::now();
    let back: StateDict = slime_json::from_str(&json).map_err(|e| format!("weights JSON: {e}"))?;
    let took = t.elapsed().as_secs_f64();
    if &back != weights {
        return Err("weights JSON did not load back to the state it was written from".into());
    }
    Ok(took)
}

fn main() {
    let t_start = Instant::now();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slime-perfbench: {e}");
            eprintln!("usage: --workload train-long|serve --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let all = workloads();
    let Some(w) = all.iter().find(|w| w.name == a.workload) else {
        eprintln!("slime-perfbench: unknown workload {:?}", a.workload);
        std::process::exit(2);
    };
    pin_knobs(&a);
    match run(w, &a, t_start) {
        Ok((correct, attempted, failed, metrics)) => println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
            metrics.to_json()
        ),
        Err(e) => {
            eprintln!("slime-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above are the ones BENCHMARK.json declares.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = slime_json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = super::workloads()
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, ours);
    }
}
