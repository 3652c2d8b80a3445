//! The serving phase: the `slime-serve` daemon booted in-process around a
//! trained model, answering closed-loop connections.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use slime4rec::recommend::recommend_batch_with;
use slime4rec::retrieval::{RetrievalConfig, RetrievalMode, Retriever};
use slime4rec::{NextItemModel, Slime4Rec, SlimeConfig};
use slime_data::batch::pad_truncate;
use slime_nn::{Module, TrainContext};
use slime_rng::rngs::StdRng;
use slime_rng::{Rng, SeedableRng};
use slime_serve::protocol::{decode_request, decode_response, encode_recommend, encode_response};
use slime_serve::{Client, ModelEngine, RecEngine, RecRequest, ServeConfig, Server, Status};
use slime_tensor::StateDict;

use crate::checks;
use crate::stats::{interquartile_mean, median, ms, quantile, Metrics};

/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Equal time windows a serving phase is cut into for its rates.
pub const WINDOWS: usize = 16;
/// Replies per client compared with in-process references.
const REFERENCE_SAMPLE: usize = 64;
/// `k` values requests draw from, uniformly. The mix is a stand-in, not a
/// measured traffic profile: the repository's own load harness sends
/// k = 10 with exclude off, and 5 and 20 put a shorter and a longer list
/// beside it so that gathered batches mix k.
const KS: [usize; 3] = [5, 10, 20];

/// The retrieval stack every serving phase uses: two-stage k-means
/// shortlist with an int8 re-rank.
fn retrieval_config() -> RetrievalConfig {
    RetrievalConfig {
        mode: RetrievalMode::TwoStage,
        quantize: true,
        ..RetrievalConfig::default()
    }
}

/// Build-time figures the engine builder reports from the batcher thread.
#[derive(Default, Clone, Copy)]
struct BuildTimes {
    retrieval_s: f64,
    total_s: f64,
}

/// Engine calls as the batcher made them: (milliseconds, batch size).
type EngineLog = Arc<Mutex<Vec<(f64, usize)>>>;

/// Wraps the daemon's engine to time each `recommend` from outside.
struct TimedEngine {
    inner: ModelEngine<Slime4Rec>,
    log: Option<EngineLog>,
}

impl RecEngine for TimedEngine {
    fn vocab(&self) -> usize {
        self.inner.vocab()
    }

    fn recommend(&mut self, reqs: &[&RecRequest]) -> Vec<Vec<(u32, f32)>> {
        let Some(log) = &self.log else {
            return self.inner.recommend(reqs);
        };
        let t = Instant::now();
        let out = self.inner.recommend(reqs);
        let took = ms(t);
        log.lock()
            .expect("engine log poisoned")
            .push((took, reqs.len()));
        out
    }
}

/// One request as sent, and what came back.
struct Exchange {
    history: Vec<usize>,
    k: usize,
    exclude: bool,
    rtt_ms: f64,
    reply: Option<Vec<(u32, f32)>>,
}

/// The next request of a client's stream: a prefix of a dataset sequence,
/// with `k` drawn from [`KS`] and the exclude flag set on half of them, so
/// both of the engine's exclude groups are served.
fn next_request(rng: &mut StdRng, seqs: &[Vec<usize>]) -> (Vec<usize>, usize, bool) {
    let s = &seqs[rng.gen_range(0..seqs.len())];
    let cut = rng.gen_range(1..=s.len());
    let k = KS[rng.gen_range(0..KS.len())];
    (s[..cut].to_vec(), k, rng.gen_bool(0.5))
}

/// One closed-loop connection and its request stream, kept across windows.
struct Conn {
    client: Client,
    rng: StdRng,
    log: Vec<Exchange>,
}

impl Conn {
    /// Send the next request when the previous reply arrives, until `until`.
    fn run(&mut self, seqs: &[Vec<usize>], until: Instant) {
        while Instant::now() < until {
            let (history, k, exclude) = next_request(&mut self.rng, seqs);
            let t = Instant::now();
            let reply = self.client.recommend(&history, k, exclude).ok();
            self.log.push(Exchange {
                history,
                k,
                exclude,
                rtt_ms: ms(t),
                reply,
            });
        }
    }
}

/// What a serving phase measured and checked.
pub struct ServeOutcome {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub check: Result<(), String>,
}

/// The daemon booted around a trained model, with its two connections.
/// Serving happens in [`WINDOWS`] windows, which the caller may interleave
/// with other work so that the windows sample the whole run.
pub struct Daemon {
    server: Server,
    vocab: usize,
    setup_s: f64,
    build: BuildTimes,
    engine_log: Option<EngineLog>,
    conns: Vec<Conn>,
    /// Per window: answered requests per second and p50 in ms.
    qps: Vec<f64>,
    p50: Vec<f64>,
    /// Client time spent inside round trips, and window time.
    rtt_total_ms: f64,
    window_total_ms: f64,
}

impl Daemon {
    /// The daemon's set-up, timed: `weights` (the trained model's state)
    /// loaded into a fresh model, int8 table and k-means index on the
    /// batcher thread that owns the engine, boot, and the first answered
    /// ping.
    pub fn boot(cfg: &SlimeConfig, weights: StateDict, seed: u64, traced: bool) -> Daemon {
        let times = Arc::new(Mutex::new(BuildTimes::default()));
        let engine_log: Option<EngineLog> = traced.then(|| Arc::new(Mutex::new(Vec::new())));
        let t_setup = Instant::now();
        let server = {
            let (cfg, times, log) = (cfg.clone(), Arc::clone(&times), engine_log.clone());
            // Workers 0: the daemon's forward pass uses the process's pinned
            // slime-par thread count, as the harness's own phases do.
            let serve_cfg = ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            };
            Server::start(serve_cfg, move || {
                let t = Instant::now();
                let model = Slime4Rec::new(cfg);
                model.load_state_dict(&weights);
                drop(weights);
                let t_ret = Instant::now();
                let retriever =
                    Retriever::build(&model.item_emb.weight.value(), retrieval_config());
                let retrieval_s = t_ret.elapsed().as_secs_f64();
                let inner = ModelEngine::new(model, Some(retriever));
                *times.lock().expect("build times poisoned") = BuildTimes {
                    retrieval_s,
                    total_s: t.elapsed().as_secs_f64(),
                };
                Box::new(TimedEngine { inner, log }) as Box<dyn RecEngine>
            })
            .expect("daemon boots")
        };
        let addr = server.addr();
        let vocab = loop {
            match Client::connect(addr).and_then(|mut c| c.ping().map_err(std::io::Error::other)) {
                Ok(v) => break v,
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let setup_s = t_setup.elapsed().as_secs_f64();
        let build = *times.lock().expect("build times poisoned");
        eprintln!(
            "# daemon set-up {setup_s:.3} s: retrieval index {:.3} s, engine build {:.3} s",
            build.retrieval_s, build.total_s
        );
        let conns = (0..CLIENTS)
            .map(|c| Conn {
                client: Client::connect(addr).expect("connect to the daemon"),
                rng: StdRng::seed_from_u64(seed ^ (0xc11e_0000 + c as u64)),
                log: Vec::new(),
            })
            .collect();
        Daemon {
            server,
            vocab,
            setup_s,
            build,
            engine_log,
            conns,
            qps: Vec::new(),
            p50: Vec::new(),
            rtt_total_ms: 0.0,
            window_total_ms: 0.0,
        }
    }

    /// One serving window: every connection runs its closed loop for
    /// `seconds`; the window's rate and median latency are recorded.
    pub fn window(&mut self, seqs: &[Vec<usize>], seconds: f64) {
        let marks: Vec<usize> = self.conns.iter().map(|c| c.log.len()).collect();
        let t = Instant::now();
        let until = t + Duration::from_secs_f64(seconds);
        std::thread::scope(|s| {
            for conn in self.conns.iter_mut() {
                s.spawn(move || conn.run(seqs, until));
            }
        });
        let wall_ms = ms(t);
        let rtts: Vec<f64> = self
            .conns
            .iter()
            .zip(&marks)
            .flat_map(|(c, &m)| c.log[m..].iter())
            .filter(|e| e.reply.is_some())
            .map(|e| e.rtt_ms)
            .collect();
        self.qps.push(rtts.len() as f64 * 1e3 / wall_ms);
        self.p50.push(quantile(&rtts, 0.5));
        self.rtt_total_ms += rtts.iter().sum::<f64>();
        self.window_total_ms += wall_ms * self.conns.len() as f64;
    }

    /// Stop the daemon, record the serving metrics over the windows, and
    /// check every reply against `served`, a model holding the state the
    /// daemon was booted with. Recall is measured on `trained`, the model
    /// at the end of the run.
    pub fn finish(
        self,
        served: &Slime4Rec,
        trained: &Slime4Rec,
        out: &mut Metrics,
    ) -> ServeOutcome {
        let stats = self.server.stats();
        self.server.shutdown();
        eprintln!(
            "# serving windows: qps {:.0?} p50 ms {:.2?}",
            self.qps, self.p50
        );
        out.set("serve_p50_ms", interquartile_mean(&self.p50), "ms");

        let logs: Vec<&[Exchange]> = self.conns.iter().map(|c| c.log.as_slice()).collect();
        let all: Vec<&Exchange> = logs.iter().flat_map(|l| l.iter()).collect();
        let attempted = all.len() as u64;
        let ok = all.iter().filter(|e| e.reply.is_some()).count() as u64;
        let check = check_replies(&all, self.vocab, ok, &stats)
            .and_then(|()| reference_checks(served, &logs))
            .and_then(|share| {
                out.set("serve.batch_dependent_share", share, "fraction");
                recall(trained, &logs, out)
            });

        if let Some(log) = &self.engine_log {
            let engine_ms: Vec<f64> = log
                .lock()
                .expect("engine log poisoned")
                .iter()
                .map(|e| e.0)
                .collect();
            let rtts: Vec<f64> = all.iter().map(|e| e.rtt_ms).collect();
            let ok_rtts: Vec<f64> = all
                .iter()
                .filter(|e| e.reply.is_some())
                .map(|e| e.rtt_ms)
                .collect();
            eprintln!("# serve.p99_ms over {} answered requests", ok_rtts.len());
            out.set("serve.p99_ms", quantile(&ok_rtts, 0.99), "ms");
            let occupancy = stats.batched_requests as f64 / stats.batches.max(1) as f64;
            out.set("serve.qps", interquartile_mean(&self.qps), "requests/s");
            out.set(
                "serve.coverage",
                self.rtt_total_ms / self.window_total_ms,
                "fraction",
            );
            out.set("serve.engine_ms", median(&engine_ms), "ms");
            out.set("serve.batch_occupancy", occupancy, "count");
            out.set(
                "serve.outside_engine_ms",
                median(&rtts) - median(&engine_ms),
                "ms",
            );
            out.set("serve.boot_s", self.setup_s - self.build.total_s, "s");
            out.set("retrieval.build_s", self.build.retrieval_s, "s");
            layer_probes(served, &all, occupancy.round().max(1.0) as usize, out);
        }

        ServeOutcome {
            setup_s: self.setup_s,
            attempted,
            failed: attempted - ok,
            check,
        }
    }
}

/// Every `Ok` reply is a well-formed ranked list, and the client's count
/// of them matches the daemon's own counters.
fn check_replies(
    all: &[&Exchange],
    vocab: usize,
    ok: u64,
    stats: &slime_serve::StatsSnapshot,
) -> Result<(), String> {
    for e in all {
        if let Some(items) = &e.reply {
            checks::check_ranked_list(items, e.k, vocab, &e.history, e.exclude)
                .map_err(|m| format!("served reply: {m}"))?;
        }
    }
    checks::check_serve_counts(ok, stats.served, stats.batched_requests)
}

/// The first replies of each client against `model`, which holds the state
/// the daemon was booted with, and an identically built retriever in this
/// thread: bitwise equal to `recommend_batch_with`. Returns the share of
/// replies that matched only at a larger `k` than their own.
fn reference_checks(model: &Slime4Rec, logs: &[&[Exchange]]) -> Result<f64, String> {
    let retriever = Retriever::build(&model.item_emb.weight.value(), retrieval_config());
    let (mut compared, mut own_k_mismatch) = (0usize, 0usize);
    for e in logs.iter().flat_map(|l| l.iter().take(REFERENCE_SAMPLE)) {
        let Some(served) = &e.reply else { continue };
        // The daemon answers a gathered batch at its largest k and
        // truncates, and the two-stage shortlist grows with k (a fault
        // noted in CHANGES.md); so until that is mended the reference is
        // the in-process answer at the request's own k or at a larger k of
        // the mix, truncated.
        let mut verdict = Err(String::new());
        for &k in KS.iter().filter(|&&k| k >= e.k) {
            let reference =
                recommend_batch_with(model, &[&e.history], k, e.exclude, Some(&retriever));
            let reference: Vec<(usize, f32)> = reference[0]
                .iter()
                .take(e.k)
                .map(|r| (r.item, r.score))
                .collect();
            verdict = checks::check_bitwise(served, &reference).map(|()| k);
            if verdict.is_ok() {
                break;
            }
        }
        let matched_k = verdict.map_err(|m| format!("served vs in-process: {m}"))?;
        compared += 1;
        own_k_mismatch += usize::from(matched_k != e.k);
    }
    if compared == 0 {
        return Err("no reply to compare".into());
    }
    Ok(own_k_mismatch as f64 / compared as f64)
}

/// The recall metric on the same sampled requests: the in-process
/// two-stage top-10 of `model` (at k = 10 with the request's exclude flag,
/// which the request stream and the model fix) against an exact f64
/// top-10.
fn recall(model: &Slime4Rec, logs: &[&[Exchange]], out: &mut Metrics) -> Result<(), String> {
    let cfg = &model.cfg;
    let retriever = Retriever::build(&model.item_emb.weight.value(), retrieval_config());
    let table = model.item_emb.weight.value();
    let dim = cfg.hidden;
    let (mut overlap, mut slots) = (0usize, 0usize);
    for e in logs.iter().flat_map(|l| l.iter().take(REFERENCE_SAMPLE)) {
        if e.reply.is_none() {
            continue;
        }
        let two_stage = recommend_batch_with(model, &[&e.history], 10, e.exclude, Some(&retriever));
        let inputs = pad_truncate(&e.history, cfg.max_len);
        let repr = model
            .user_repr(&inputs, 1, &mut TrainContext::eval())
            .value();
        let (exact, _) = checks::exact_scores(repr.data(), table.data(), dim);
        let mut ids: Vec<usize> = (1..exact.len())
            .filter(|i| !(e.exclude && e.history.contains(i)))
            .collect();
        let top = ids.len().min(10);
        if top == 0 {
            continue;
        }
        let by_rank = |a: &usize, b: &usize| exact[*b].total_cmp(&exact[*a]).then(a.cmp(b));
        ids.select_nth_unstable_by(top - 1, by_rank);
        let best = &ids[..top];
        overlap += two_stage[0]
            .iter()
            .filter(|r| best.contains(&r.item))
            .count();
        slots += top;
    }
    if slots == 0 {
        return Err("no reply to measure recall on".into());
    }
    out.set("serve_recall10", overlap as f64 / slots as f64, "fraction");
    Ok(())
}

/// Per-query retrieval, batched recommendation and codec timings on the
/// phase's own requests.
fn layer_probes(model: &Slime4Rec, all: &[&Exchange], occupancy: usize, out: &mut Metrics) {
    let cfg = &model.cfg;
    let retriever = Retriever::build(&model.item_emb.weight.value(), retrieval_config());
    let sample: Vec<&Exchange> = all
        .iter()
        .copied()
        .filter(|e| e.reply.is_some())
        .take(256)
        .collect();

    let (mut shortlist, mut rerank, mut cands) = (Vec::new(), Vec::new(), 0usize);
    let mut scores = Vec::new();
    for e in &sample {
        let inputs = pad_truncate(&e.history, cfg.max_len);
        let repr = model
            .user_repr(&inputs, 1, &mut TrainContext::eval())
            .value();
        let need = e.k + if e.exclude { e.history.len() } else { 0 };
        let t = Instant::now();
        let items = retriever.shortlist(repr.data(), need);
        shortlist.push(ms(t) * 1e3);
        let t = Instant::now();
        retriever.score_items(repr.data(), &items, &mut scores);
        rerank.push(ms(t) * 1e3);
        cands += items.len();
    }
    out.set("retrieval.shortlist_us", median(&shortlist), "us");
    out.set("retrieval.rerank_us", median(&rerank), "us");
    out.set(
        "retrieval.candidates_per_query",
        cands as f64 / sample.len().max(1) as f64,
        "count",
    );

    let mut batch = Vec::new();
    for group in sample.chunks(occupancy) {
        let histories: Vec<&[usize]> = group.iter().map(|e| e.history.as_slice()).collect();
        let t = Instant::now();
        std::hint::black_box(recommend_batch_with(
            model,
            &histories,
            10,
            false,
            Some(&retriever),
        ));
        batch.push(ms(t));
    }
    out.set("recommend.batch_ms", median(&batch), "ms");

    let t = Instant::now();
    for e in &sample {
        let req = encode_recommend(&e.history, e.k, e.exclude);
        std::hint::black_box(decode_request(&req).expect("own request decodes"));
        let resp = encode_response(Status::Ok, e.reply.as_deref().unwrap_or_default());
        std::hint::black_box(decode_response(&resp).expect("own response decodes"));
    }
    out.set(
        "protocol.codec_us",
        ms(t) * 1e3 / sample.len().max(1) as f64,
        "us",
    );
}
