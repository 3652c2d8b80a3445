//! slime-serve: a persistent recommendation daemon.
//!
//! The CLI's `recommend` path pays model construction, weight loading,
//! quantization, and index building on every invocation. This crate keeps
//! a process alive instead: state is built **once** at startup and every
//! subsequent request costs only its share of a forward pass.
//!
//! Architecture (DESIGN.md §16):
//!
//! * [`protocol`] — length-prefixed binary frames over `TcpListener`
//!   (std only; offline-purity-compatible) with an HTTP/1.1 fallback so
//!   `curl http://host:port/recommend?h=1,2,3&k=10` works.
//! * [`batcher`] — the perf core. Connection threads decode and enqueue;
//!   a single batcher thread owns the model (Tensors are `Rc`-based and
//!   not `Send`, so the engine is built *on* that thread via a `Send`
//!   builder closure) and gathers pending requests into one
//!   `recommend_batch` pass under a batch-size cap and a sub-millisecond
//!   linger deadline. Intra-batch parallelism still flows through
//!   slime-par inside the forward pass, so one gathered batch uses every
//!   worker core.
//! * [`server`] — listener, connection handling, graceful shutdown.
//! * [`load`] — an in-process open-/closed-loop load generator for the
//!   smoke gate and the `load_sweep` bench (`BENCH_serve.json`).
//! * [`stats`] — always-on atomic counters backing `/stats` and the CI
//!   floors; richer histograms ride slime-trace when tracing is enabled.

pub mod batcher;
pub mod load;
pub mod protocol;
pub mod server;
pub mod stats;

use slime4rec::recommend::recommend_batch_per_k;
use slime4rec::retrieval::Retriever;
use slime4rec::NextItemModel;
use slime_nn::TrainContext;

pub use protocol::{Client, ClientError, RecRequest, Status};
pub use server::Server;
pub use stats::{StatsCell, StatsSnapshot};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral, reported by
    /// [`Server::addr`]).
    pub port: u16,
    /// slime-par worker threads for the forward pass (0 = leave the
    /// global/runtime setting untouched).
    pub workers: usize,
    /// Most requests gathered into one engine pass (1 = unbatched).
    pub max_batch: usize,
    /// Linger deadline in microseconds: how long the batcher waits for a
    /// partial batch to fill once its first request is in hand.
    pub linger_us: u64,
    /// Admission-control bound on queued requests; arrivals beyond this
    /// are rejected with [`Status::Overloaded`].
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            port: 0,
            workers: 0,
            max_batch: 32,
            linger_us: 500,
            queue_cap: 1024,
        }
    }
}

/// What the batcher drives: anything that can answer a batch of decoded
/// requests. `&mut self` because engines may keep scratch state; the
/// batcher is single-threaded so no locking is needed.
pub trait RecEngine {
    /// Catalog size; requests with ids at or above this are rejected as
    /// bad requests before they reach [`RecEngine::recommend`].
    fn vocab(&self) -> usize;

    /// Answer every request, in order. `reqs` is non-empty and
    /// pre-validated (`k >= 1`, all ids `< vocab`).
    fn recommend(&mut self, reqs: &[&RecRequest]) -> Vec<Vec<(u32, f32)>>;
}

/// [`RecEngine`] over any [`NextItemModel`], optionally through a
/// retrieval stack (two-stage / quantized exact).
///
/// Gathered batches are heterogeneous: requests may disagree on `k` and
/// on the exclude flag. The engine partitions by exclude (two forward
/// passes at most) and ranks every request at its own `k` — under
/// two-stage retrieval the shortlist width follows `k`, so serving a
/// request at a batch-mate's larger `k` would change its reply.
pub struct ModelEngine<M: NextItemModel> {
    model: M,
    retriever: Option<Retriever>,
    vocab: usize,
}

impl<M: NextItemModel> ModelEngine<M> {
    /// Wrap a model. Runs one single-row probe forward pass to discover
    /// the score dimension (vocab) the model actually serves.
    pub fn new(model: M, retriever: Option<Retriever>) -> ModelEngine<M> {
        let vocab = match &retriever {
            Some(r) => r.vocab(),
            None => {
                let mut ctx = TrainContext::eval();
                let inputs = vec![0usize; model.max_len()];
                let repr = model.user_repr(&inputs, 1, &mut ctx);
                model.score_all(&repr).value().shape()[1]
            }
        };
        ModelEngine {
            model,
            retriever,
            vocab,
        }
    }

    fn serve_group(&self, idx: &[usize], reqs: &[&RecRequest], out: &mut [Vec<(u32, f32)>]) {
        if idx.is_empty() {
            return;
        }
        let exclude = reqs[idx[0]].exclude;
        let ks: Vec<usize> = idx.iter().map(|&i| reqs[i].k).collect();
        let histories: Vec<&[usize]> = idx.iter().map(|&i| reqs[i].history.as_slice()).collect();
        let ranked = recommend_batch_per_k(
            &self.model,
            &histories,
            &ks,
            exclude,
            self.retriever.as_ref(),
        );
        for (&i, recs) in idx.iter().zip(ranked) {
            out[i] = recs.into_iter().map(|r| (r.item as u32, r.score)).collect();
        }
    }
}

impl<M: NextItemModel> RecEngine for ModelEngine<M> {
    fn vocab(&self) -> usize {
        self.vocab
    }

    fn recommend(&mut self, reqs: &[&RecRequest]) -> Vec<Vec<(u32, f32)>> {
        let mut out: Vec<Vec<(u32, f32)>> = vec![Vec::new(); reqs.len()];
        let (mut plain, mut excl) = (Vec::new(), Vec::new());
        for (i, r) in reqs.iter().enumerate() {
            if r.exclude {
                excl.push(i);
            } else {
                plain.push(i);
            }
        }
        self.serve_group(&plain, reqs, &mut out);
        self.serve_group(&excl, reqs, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slime4rec::recommend::recommend_top_k_with;
    use slime4rec::retrieval::RetrievalConfig;
    use slime4rec::{ContrastiveMode, Slime4Rec, SlimeConfig};

    fn tiny_model() -> Slime4Rec {
        let mut cfg = SlimeConfig::small(24);
        cfg.hidden = 8;
        cfg.max_len = 6;
        cfg.layers = 1;
        cfg.contrastive = ContrastiveMode::None;
        Slime4Rec::new(cfg)
    }

    #[test]
    fn model_engine_probes_vocab() {
        let engine = ModelEngine::new(tiny_model(), None);
        // score_all emits [batch, vocab+1] including the pad column.
        assert_eq!(engine.vocab(), 25);
    }

    #[test]
    fn mixed_batch_matches_individual_queries() {
        let model = tiny_model();
        let reference: Vec<Vec<(u32, f32)>> = [
            (vec![1usize, 2, 3], 5usize, false),
            (vec![4, 5], 2, true),
            (vec![9], 7, false),
            (vec![1, 2, 3, 4, 5, 6, 7, 8], 3, true),
        ]
        .iter()
        .map(|(h, k, ex)| {
            recommend_top_k_with(&model, h, *k, *ex, None)
                .into_iter()
                .map(|r| (r.item as u32, r.score))
                .collect()
        })
        .collect();

        let mut engine = ModelEngine::new(model, None);
        let reqs = [
            RecRequest {
                history: vec![1, 2, 3],
                k: 5,
                exclude: false,
            },
            RecRequest {
                history: vec![4, 5],
                k: 2,
                exclude: true,
            },
            RecRequest {
                history: vec![9],
                k: 7,
                exclude: false,
            },
            RecRequest {
                history: vec![1, 2, 3, 4, 5, 6, 7, 8],
                k: 3,
                exclude: true,
            },
        ];
        let refs: Vec<&RecRequest> = reqs.iter().collect();
        let got = engine.recommend(&refs);
        assert_eq!(got, reference, "batched heterogeneous results must match");
    }

    #[test]
    fn reply_does_not_depend_on_batch_mates_k() {
        // Under two-stage retrieval the shortlist widens with k, so a k = 5
        // request answered at k = 20 can see a different top 5. Batched
        // with a k = 20 request it must still get its stand-alone reply.
        let mut cfg = SlimeConfig::small(400);
        cfg.hidden = 8;
        cfg.max_len = 6;
        cfg.layers = 1;
        cfg.contrastive = ContrastiveMode::None;
        let model = Slime4Rec::new(cfg);
        let retrieval = RetrievalConfig {
            cells: 40,
            nprobe: 1,
            iters: 2,
            ..RetrievalConfig::default()
        };
        let retriever = Retriever::build(&model.item_emb.weight.value(), retrieval);
        let histories: Vec<Vec<usize>> = (1..30usize)
            .map(|s| (0..4).map(|j| s * 13 + j * 7).collect())
            .collect();
        // The top 5 of each history's k = 20 reply, as the engine used to
        // answer a k = 5 request batched with a k = 20 one.
        let wide_top5: Vec<Vec<(u32, f32)>> = histories
            .iter()
            .map(|h| {
                recommend_top_k_with(&model, h, 20, false, Some(&retriever))
                    .into_iter()
                    .take(5)
                    .map(|x| (x.item as u32, x.score))
                    .collect()
            })
            .collect();
        let mut engine = ModelEngine::new(model, Some(retriever));
        let mut discriminating = 0;
        for (i, (history, wide)) in histories.iter().zip(&wide_top5).enumerate() {
            let small = RecRequest {
                history: history.clone(),
                k: 5,
                exclude: false,
            };
            let big = RecRequest {
                history: vec![i + 200],
                k: 20,
                exclude: false,
            };
            let alone = engine.recommend(&[&small]);
            let batched = engine.recommend(&[&small, &big]);
            assert_eq!(batched[0], alone[0], "history {history:?}");
            discriminating += usize::from(*wide != alone[0]);
        }
        assert!(
            discriminating > 0,
            "no history where k = 20 changes the top 5; the check would pass vacuously"
        );
    }
}
