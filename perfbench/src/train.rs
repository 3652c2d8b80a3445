//! The training and full-ranking evaluation phases, their output checks,
//! and the traced per-layer epoch.

use std::time::Instant;

use slime4rec::recommend::recommend_batch;
use slime4rec::{contrastive::info_nce_with_targets, NextItemModel, ViewStrategy};
use slime4rec::{evaluate, train_model, ContrastiveMode, Slime4Rec, SlimeConfig, TrainConfig};
use slime_data::augment::SameTargetIndex;
use slime_data::batch::pad_truncate;
use slime_data::{eval_batches, EvalBatch, SeqDataset, Split, TrainSet};
use slime_metrics::MetricSet;
use slime_nn::{Module, TrainContext};
use slime_rng::rngs::StdRng;
use slime_rng::SeedableRng;
use slime_tensor::ops;
use slime_tensor::optim::{Adam, Optimizer};

use crate::checks;
use crate::stats::{interquartile_mean, median, ms, quantile, ratio, Metrics};

/// Mini-batch size of training and evaluation.
pub const BATCH: usize = 128;
/// Hidden size and filter-mixer blocks of every workload's model.
const HIDDEN: usize = 64;
const LAYERS: usize = 2;
/// Adam learning rate: high enough that the few steps a run affords move
/// the model off its initialisation.
const LR: f32 = 5e-3;
/// Ranking cutoffs the evaluator reports.
const CUTOFFS: [usize; 2] = [5, 10];
/// Users whose top-10 lists are re-scored in f64.
const EXACT_SAMPLE: usize = 64;
/// Leading test batches whose users the quality and ranking checks cover.
const HEAD_BATCHES: usize = 2;

/// The model shape and training-set make-up of one workload.
pub struct TrainShape {
    pub max_len: usize,
    pub contrastive: ContrastiveMode,
    /// Keep every `stride`-th prefix of each user as an example.
    pub stride: usize,
    /// Users per training shard; one slice trains one epoch over a shard.
    pub shard_users: usize,
    /// Training slices (one shard each).
    pub slices: usize,
}

/// One training slice's examples.
pub struct Shard {
    pub ts: TrainSet,
    index: Option<SameTargetIndex>,
}

impl Shard {
    fn strategy(&self, mode: ContrastiveMode) -> ViewStrategy<'_> {
        match (mode, &self.index) {
            (ContrastiveMode::Supervised, Some(index)) => ViewStrategy::Supervised(index),
            (ContrastiveMode::Unsupervised, _) => ViewStrategy::Unsupervised,
            _ => ViewStrategy::None,
        }
    }
}

/// Everything the timed phases need, built by [`setup`].
pub struct Prepared {
    pub ds: SeqDataset,
    pub cfg: SlimeConfig,
    pub model: Slime4Rec,
    pub shards: Vec<Shard>,
    pub eval: Vec<EvalBatch>,
    pub json_load_s: f64,
}

/// The training set-up a user pays before the first step: dataset JSON
/// load, model build, training-set and evaluation-batch build.
pub fn setup(json: &str, shape: &TrainShape, seed: u64) -> Result<Prepared, String> {
    let t = Instant::now();
    let ds: SeqDataset = slime_json::from_str(json).map_err(|e| format!("dataset JSON: {e}"))?;
    let json_load_s = t.elapsed().as_secs_f64();

    let mut cfg = SlimeConfig::new(ds.num_items());
    cfg.hidden = HIDDEN;
    cfg.max_len = shape.max_len;
    cfg.layers = LAYERS;
    cfg.contrastive = shape.contrastive;
    cfg.seed = seed;
    let model = Slime4Rec::new(cfg.clone());

    let users = ds.num_users();
    let per = shape.shard_users.min(users).max(1);
    let distinct = (users / per).max(1);
    let shards = (0..shape.slices)
        .map(|i| {
            let start = (i % distinct) * per;
            let sub = SeqDataset::new(
                format!("{}-shard{i}", ds.name),
                ds.sequences()[start..start + per].to_vec(),
                ds.num_items(),
            );
            let ts = TrainSet::with_stride(&sub, 1, shape.stride);
            let index = (shape.contrastive == ContrastiveMode::Supervised)
                .then(|| SameTargetIndex::new(&ts));
            Shard { ts, index }
        })
        .collect();
    let eval = eval_batches(&ds, Split::Test, shape.max_len, BATCH);
    Ok(Prepared {
        ds,
        cfg,
        model,
        shards,
        eval,
        json_load_s,
    })
}

fn slice_config(seed: u64, slice: usize) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        lr: LR,
        seed: seed.wrapping_add(slice as u64),
        ..TrainConfig::default()
    }
}

fn steps_of(ts: &TrainSet) -> usize {
    ts.len().div_ceil(BATCH)
}

/// What the training phase measured.
pub struct TrainOutcome {
    pub examples_per_s: f64,
    pub epoch_losses: Vec<f32>,
    pub steps: usize,
}

/// Training through `train_model`, one epoch over one shard per slice.
/// Slices run one at a time through [`TrainRun::step`], so the caller can
/// spread them over the run.
pub struct TrainRun<'a> {
    p: &'a Prepared,
    seed: u64,
    rates: Vec<f64>,
    losses: Vec<f32>,
    steps: usize,
}

impl<'a> TrainRun<'a> {
    pub fn new(p: &'a Prepared, seed: u64) -> TrainRun<'a> {
        TrainRun {
            p,
            seed,
            rates: Vec::new(),
            losses: Vec::new(),
            steps: 0,
        }
    }

    /// Number of slices in the phase.
    pub fn slices(&self) -> usize {
        self.p.shards.len()
    }

    /// Slices trained so far.
    pub fn done(&self) -> usize {
        self.rates.len()
    }

    /// Train the next slice, if one is left.
    pub fn step(&mut self) {
        let i = self.rates.len();
        let Some(shard) = self.p.shards.get(i) else {
            return;
        };
        let p = self.p;
        let t = Instant::now();
        let report = train_model(
            &p.model,
            &p.ds,
            &shard.ts,
            &slice_config(self.seed, i),
            p.cfg.lambda,
            p.cfg.temperature,
            shard.strategy(p.cfg.contrastive),
        );
        self.rates
            .push(shard.ts.len() as f64 / t.elapsed().as_secs_f64());
        self.losses.extend(report.epoch_losses);
        self.steps += steps_of(&shard.ts);
    }

    /// Train what is left and report: the rate is the warm interquartile
    /// mean over slices.
    pub fn finish(mut self) -> TrainOutcome {
        while self.rates.len() < self.slices() {
            self.step();
        }
        let rates = &self.rates;
        eprintln!("# training slices (examples/s): {rates:.1?}");
        TrainOutcome {
            examples_per_s: warm_rate(rates),
            epoch_losses: self.losses,
            steps: self.steps,
        }
    }
}

/// Interquartile mean of per-slice rates, leaving out the first slice —
/// it pays for cold caches, buffer-pool misses and first page touches —
/// when at least two remain.
pub fn warm_rate(rates: &[f64]) -> f64 {
    if rates.len() >= 3 {
        interquartile_mean(&rates[1..])
    } else {
        interquartile_mean(rates)
    }
}

/// Ranking quality of the trained model over the leading test users.
pub struct Quality {
    pub hr5: f64,
    pub hr10: f64,
    pub ndcg10: f64,
    /// Those users and their HR@10 hit count, for [`check_rankings`].
    pub head_users: usize,
    pub head_hits10: usize,
}

/// What the evaluation phase measured.
pub struct EvalOutcome {
    pub users_per_s: f64,
    pub users_ranked: usize,
}

/// Hits behind an HR value: `hr = hits / count` exactly.
fn hits(m: &MetricSet, k: usize) -> usize {
    (m.hr(k) * m.count as f64).round() as usize
}

/// One full-ranking pass over the test split, cut into slices of `chunk`
/// batches, each timed around one `evaluate` call. Slices run one at a
/// time through [`EvalRun::step`], so the caller can spread them over the
/// run, training included: the model may change between slices, which
/// changes what a slice ranks but not the work it takes.
pub struct EvalRun<'a> {
    p: &'a Prepared,
    slices: Vec<&'a [EvalBatch]>,
    rates: Vec<f64>,
    users: usize,
}

impl<'a> EvalRun<'a> {
    pub fn new(p: &'a Prepared, chunk: usize) -> EvalRun<'a> {
        EvalRun {
            p,
            slices: p.eval.chunks(chunk.max(1)).collect(),
            rates: Vec::new(),
            users: 0,
        }
    }

    /// Number of slices in the pass.
    pub fn slices(&self) -> usize {
        self.slices.len()
    }

    /// Slices evaluated so far.
    pub fn done(&self) -> usize {
        self.rates.len()
    }

    /// Evaluate the next slice, if one is left.
    pub fn step(&mut self) {
        let Some(batches) = self.slices.get(self.rates.len()) else {
            return;
        };
        let users: usize = batches.iter().map(|b| b.batch).sum();
        let t = Instant::now();
        std::hint::black_box(evaluate(&self.p.model, batches, &CUTOFFS));
        self.rates.push(users as f64 / t.elapsed().as_secs_f64());
        self.users += users;
    }

    /// Evaluate what is left and report: the rate is the warm interquartile
    /// mean over slices.
    pub fn finish(mut self) -> EvalOutcome {
        while self.rates.len() < self.slices() {
            self.step();
        }
        let rates = &self.rates;
        eprintln!("# evaluation slices (users/s): {rates:.1?}");
        EvalOutcome {
            users_per_s: warm_rate(rates),
            users_ranked: self.users,
        }
    }
}

/// The trained model's quality over the first [`HEAD_BATCHES`] test
/// batches, evaluated twice: the metrics must repeat exactly. Returns the
/// quality and the number of users ranked.
pub fn head_quality(p: &Prepared) -> Result<(Quality, usize), String> {
    let head = &p.eval[..p.eval.len().min(HEAD_BATCHES)];
    let first = evaluate(&p.model, head, &CUTOFFS);
    let again = evaluate(&p.model, head, &CUTOFFS);
    let same = CUTOFFS
        .iter()
        .all(|&k| first.hr(k) == again.hr(k) && first.ndcg(k) == again.ndcg(k));
    if !same {
        return Err(format!(
            "evaluation did not repeat: {} then {}",
            first.render(),
            again.render()
        ));
    }
    let quality = Quality {
        hr5: first.hr(5),
        hr10: first.hr(10),
        ndcg10: first.ndcg(10),
        head_users: first.count,
        head_hits10: hits(&first, 10),
    };
    Ok((quality, first.count + again.count))
}

/// Checks on the trained model's rankings over the leading evaluated users:
/// the evaluator's HR@10 equals the hit rate counted from `recommend_batch`
/// top-10 lists for the same users, every list is well formed, and a sample
/// of lists agrees with f64 scoring of `user_repr · Eᵀ`.
pub fn check_rankings(p: &Prepared, q: &Quality) -> Result<(), String> {
    let n = p.cfg.max_len;
    let vocab = p.ds.vocab_size();
    let cases: Vec<(&[usize], usize)> = (0..p.ds.num_users())
        .filter_map(|u| p.ds.eval_example(u, Split::Test))
        .take(q.head_users)
        .collect();
    let table = p.model.item_emb.weight.value();
    let dim = p.cfg.hidden;
    let mut hits = 0usize;
    for (c, chunk) in cases.chunks(BATCH).enumerate() {
        let histories: Vec<&[usize]> = chunk.iter().map(|(h, _)| *h).collect();
        let lists = recommend_batch(&p.model, &histories, 10, false);
        for (list, (h, target)) in lists.iter().zip(chunk) {
            let pairs: Vec<(u32, f32)> = list.iter().map(|r| (r.item as u32, r.score)).collect();
            checks::check_ranked_list(&pairs, 10, vocab, h, false)?;
            hits += usize::from(list.iter().any(|r| r.item == *target));
        }
        if c == 0 {
            let rows = chunk.len().min(EXACT_SAMPLE);
            let inputs: Vec<usize> = histories[..rows]
                .iter()
                .flat_map(|h| pad_truncate(h, n))
                .collect();
            let repr = p
                .model
                .user_repr(&inputs, rows, &mut TrainContext::eval())
                .value();
            for (r, list) in lists.iter().take(rows).enumerate() {
                let q = &repr.data()[r * dim..(r + 1) * dim];
                let (exact, slack) = checks::exact_scores(q, table.data(), dim);
                let items: Vec<usize> = list.iter().map(|x| x.item).collect();
                checks::check_topk_exact(&items, &exact, &slack, &[])?;
            }
        }
    }
    let evaluator_hr = q.head_hits10 as f64 / q.head_users.max(1) as f64;
    checks::check_hit_rate(evaluator_hr, hits, cases.len())
}

/// Counters the program keeps on its own, read before and after a span.
#[derive(Clone, Copy)]
struct Counters {
    pool: slime_tensor::pool::PoolStats,
    par: slime_par::ParStats,
    fft: slime_fft::PlanCacheStats,
    plan: slime_tensor::plan::PlanStats,
    nodes: u64,
}

impl Counters {
    fn read() -> Counters {
        Counters {
            pool: slime_tensor::pool::stats(),
            par: slime_par::pool_stats(),
            fft: slime_fft::plan_cache_stats(),
            plan: slime_tensor::plan::stats(),
            nodes: slime_tensor::nodes_allocated(),
        }
    }
}

/// Per-layer figures of the training and evaluation phases: one epoch
/// through `train_model` for the program's own counters, then one epoch
/// over the same shard driven call by call with a clock around each.
pub fn traced(p: &Prepared, seed: u64, out: &mut Metrics) {
    let shard = &p.shards[0];
    let steps = steps_of(&shard.ts) as f64;
    let epoch = || {
        train_model(
            &p.model,
            &p.ds,
            &shard.ts,
            &slice_config(seed, 0),
            p.cfg.lambda,
            p.cfg.temperature,
            shard.strategy(p.cfg.contrastive),
        )
    };

    // A first epoch warms caches, the buffer pool and the FFT plans, so
    // the measured epoch and the call-by-call one below both run warm.
    epoch();
    let before = Counters::read();
    let t = Instant::now();
    epoch();
    let model_epoch_s = t.elapsed().as_secs_f64();
    let after = Counters::read();

    let lookups = (after.fft.hits + after.fft.misses - before.fft.hits - before.fft.misses) as f64;
    out.set("fft.lookups_per_step", lookups / steps, "count");
    out.set(
        "fft.plan_cache_hit_rate",
        ratio((after.fft.hits - before.fft.hits) as f64, lookups),
        "fraction",
    );
    let pool_hits = (after.pool.hits - before.pool.hits) as f64;
    let pool_misses = (after.pool.misses - before.pool.misses) as f64;
    out.set(
        "tensor.pool_hit_rate",
        ratio(pool_hits, pool_hits + pool_misses),
        "fraction",
    );
    out.set(
        "tensor.nodes_per_step",
        (after.nodes - before.nodes) as f64 / steps,
        "count",
    );
    out.set(
        "tensor.plan_replay_share",
        (after.plan.replays - before.plan.replays) as f64 / steps,
        "fraction",
    );
    let published = (after.par.jobs_published - before.par.jobs_published) as f64;
    let serial = (after.par.jobs_serial - before.par.jobs_serial) as f64;
    out.set("par.jobs_per_step", (published + serial) / steps, "count");
    out.set(
        "par.serial_share",
        ratio(serial, published + serial),
        "fraction",
    );
    out.set(
        "par.chunks_per_job",
        ratio(
            (after.par.chunks_executed - before.par.chunks_executed) as f64,
            published,
        ),
        "count",
    );
    out.set("train.model_epoch_s", model_epoch_s, "s");
    out.set(
        "train.examples_per_s",
        shard.ts.len() as f64 / model_epoch_s,
        "examples/s",
    );

    traced_epoch(p, shard, seed, out);
    filter_mixer_probe(p, shard, seed, out);
    traced_eval(p, out);
}

/// One epoch over `shard` through the same public calls `train_model`
/// makes, each timed from outside.
fn traced_epoch(p: &Prepared, shard: &Shard, seed: u64, out: &mut Metrics) {
    let tc = slice_config(seed, 1);
    let model = &p.model;
    let n = p.cfg.max_len;
    let params = model.parameters();
    let param_elems: usize = params.iter().map(|t| t.len()).sum();
    let mut opt = Adam::new(params, tc.lr);
    let mut batch_rng = StdRng::seed_from_u64(tc.seed ^ 0x5eed);
    let mut ctx = TrainContext::train(tc.seed);
    let (mut data, mut encode, mut score, mut loss_t, mut backward, mut adam) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut score_flops = 0.0;
    let strategy = shard.strategy(p.cfg.contrastive);

    let wall = Instant::now();
    let t = Instant::now();
    let batches = shard.ts.epoch_batches(n, tc.batch_size, &mut batch_rng);
    data += ms(t);
    for batch in &batches {
        opt.zero_grad();
        let t = Instant::now();
        let repr = model.user_repr(&batch.inputs, batch.batch, &mut ctx);
        encode += ms(t);
        let t = Instant::now();
        let logits = model.score_all(&repr);
        score += ms(t);
        score_flops += 2.0 * (batch.batch * p.cfg.hidden * p.cfg.vocab_size()) as f64;
        let t = Instant::now();
        let rec = ops::cross_entropy(&logits, &batch.targets);
        loss_t += ms(t);
        let view2 = match &strategy {
            ViewStrategy::None => None,
            ViewStrategy::Unsupervised => {
                let t = Instant::now();
                let v = model.user_repr(&batch.inputs, batch.batch, &mut ctx);
                encode += ms(t);
                Some(v)
            }
            ViewStrategy::Supervised(index) => {
                let t = Instant::now();
                let ids: Vec<usize> = batch
                    .example_ids
                    .iter()
                    .map(|&i| index.sample_positive(&shard.ts, i, &mut ctx.rng))
                    .collect();
                let partner = shard.ts.make_batch(&ids, n);
                data += ms(t);
                let t = Instant::now();
                let v = model.user_repr(&partner.inputs, partner.batch, &mut ctx);
                encode += ms(t);
                Some(v)
            }
        };
        let t = Instant::now();
        let loss = match view2 {
            Some(v) if batch.batch >= 2 => {
                let cl = info_nce_with_targets(&repr, &v, &batch.targets, p.cfg.temperature);
                ops::add(&rec, &ops::scale(&cl, p.cfg.lambda))
            }
            _ => rec,
        };
        let value = loss.item();
        loss_t += ms(t);
        assert!(value.is_finite(), "traced epoch loss {value}");
        let t = Instant::now();
        loss.backward();
        backward += ms(t);
        let t = Instant::now();
        opt.step();
        adam += ms(t);
    }
    let wall_ms = ms(wall);
    let steps = batches.len() as f64;
    out.set("data.batch_ms", data / steps, "ms");
    out.set("model.encode_ms", encode / steps, "ms");
    out.set("tensor.score_ms", score / steps, "ms");
    out.set(
        "tensor.score_gflops",
        score_flops / (score * 1e6),
        "GFLOP/s",
    );
    out.set("tensor.loss_ms", loss_t / steps, "ms");
    out.set("tensor.backward_ms", backward / steps, "ms");
    out.set("tensor.adam_ms", adam / steps, "ms");
    // Adam reads parameter, gradient and both moments and writes back
    // parameter and moments: 7 f32 per element, counted from tensor sizes.
    out.set(
        "tensor.adam_gbps",
        28.0 * param_elems as f64 * steps / (adam * 1e6),
        "GB/s",
    );
    out.set("train.traced_epoch_s", wall_ms / 1e3, "s");
    out.set(
        "train.coverage",
        (data + encode + score + loss_t + backward + adam) / wall_ms,
        "fraction",
    );
}

/// `FilterMixerBlock::forward` per call, on the training batch shape.
fn filter_mixer_probe(p: &Prepared, shard: &Shard, seed: u64, out: &mut Metrics) {
    let n = p.cfg.max_len;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf11e);
    let batches = shard.ts.epoch_batches(n, BATCH, &mut rng);
    let mut ctx = TrainContext::train(seed);
    let mut calls = Vec::new();
    for batch in batches.iter().filter(|b| b.batch == BATCH).take(4) {
        let e = p.model.item_emb.forward(&batch.inputs, &[batch.batch, n]);
        let mut h = ops::add(&e, &p.model.pos_emb.forward(n));
        for block in &p.model.blocks {
            let t = Instant::now();
            h = block.forward(&h, &mut ctx);
            calls.push(ms(t));
        }
    }
    out.set("model.filter_mixer_ms", median(&calls), "ms");
}

/// Evaluation split into the forward pass and the ranking that follows.
/// Each pair times one `evaluate` call on a batch and, right after it, a
/// forward-only pass over the same batch; the ranking time is the median of
/// the pairs' differences. When that median lies within the spread of the
/// forward times it is noise, not ranking, and the run says so on standard
/// error; the figure is still the median as measured, of either sign, so
/// that it is never a constant.
fn traced_eval(p: &Prepared, out: &mut Metrics) {
    let eval = &p.eval[..p.eval.len().min(8)];
    let (mut forward, mut diffs) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for b in eval {
            let t = Instant::now();
            evaluate(&p.model, std::slice::from_ref(b), &CUTOFFS);
            let whole = ms(t);
            let t = Instant::now();
            let repr = p
                .model
                .user_repr(&b.inputs, b.batch, &mut TrainContext::eval());
            let scores = p.model.score_all(&repr);
            std::hint::black_box(scores.data().data()[0]);
            let fwd = ms(t);
            forward.push(fwd);
            diffs.push(whole - fwd);
        }
    }
    let rank = median(&diffs);
    let noise = quantile(&forward, 0.75) - quantile(&forward, 0.25);
    if rank.abs() < noise {
        eprintln!(
            "# eval.rank_ms unresolved: median difference {rank:.3} ms is within the forward pass's spread {noise:.3} ms"
        );
    }
    out.set("eval.forward_ms", median(&forward), "ms");
    out.set("eval.rank_ms", rank, "ms");
}
