//! Convenience inference API: top-K recommendations from raw histories.
//!
//! Serving-scale notes: candidate selection works on a pooled `f32` id
//! buffer (4 bytes/candidate instead of a 16-byte `Recommendation` per
//! vocab row — ids are exact in `f32` up to catalogs of 2²⁴ items, with a
//! plain `u32` fallback above that), and exclude-history filtering goes
//! through a per-user seen-bitmap built once per user instead of an
//! O(|history|) scan per candidate. With a [`Retriever`] the full-vocab
//! scoring is replaced by the two-stage shortlist + exact re-rank path
//! (see `crate::retrieval`).

use slime_nn::TrainContext;
use slime_tensor::pool;

use crate::retrieval::{RetrievalMode, Retriever};
use crate::NextItemModel;

/// Reusable per-thread serving scratch: the seen-bitmap word buffer and
/// the padded-input staging buffer. Steady-state serving (same batch
/// shape, same catalog) touches the heap zero times per request — both
/// buffers are clear-and-reuse, mirroring the f32 pool in
/// `slime_tensor::pool`.
struct Scratch {
    seen_words: Vec<u64>,
    inputs: Vec<usize>,
    reuses: u64,
    allocs: u64,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = const {
        std::cell::RefCell::new(Scratch {
            seen_words: Vec::new(),
            inputs: Vec::new(),
            reuses: 0,
            allocs: 0,
        })
    };
}

/// This thread's scratch-buffer acquisition counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchStats {
    /// Acquisitions served from an already-large-enough buffer.
    pub reuses: u64,
    /// Acquisitions that had to (re)allocate.
    pub allocs: u64,
}

/// Snapshot this thread's scratch counters.
pub fn scratch_stats() -> ScratchStats {
    SCRATCH.with(|s| {
        let s = s.borrow();
        ScratchStats {
            reuses: s.reuses,
            allocs: s.allocs,
        }
    })
}

/// Zero this thread's scratch counters (the buffers keep their capacity).
pub fn reset_scratch_stats() {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        s.reuses = 0;
        s.allocs = 0;
    });
}

/// Take the input staging buffer, sized (and zeroed) to `len`.
fn acquire_inputs(len: usize) -> Vec<usize> {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let mut buf = std::mem::take(&mut s.inputs);
        if buf.capacity() < len {
            s.allocs += 1;
        } else {
            s.reuses += 1;
        }
        buf.clear();
        buf.resize(len, 0);
        buf
    })
}

/// Return the input staging buffer for the next request.
fn release_inputs(buf: Vec<usize>) {
    SCRATCH.with(|s| s.borrow_mut().inputs = buf);
}

/// One scored recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Item id (1-based; 0 is never recommended).
    pub item: usize,
    /// Raw model score (higher = better; not a probability).
    pub score: f32,
}

/// Deterministic ranking order: score descending, ties broken by item id
/// ascending. The tie-break is total (item ids are unique), so partial
/// selection cannot reorder results relative to a full sort.
#[inline]
fn rank_order(score_a: f32, item_a: usize, score_b: f32, item_b: usize) -> std::cmp::Ordering {
    score_b
        .partial_cmp(&score_a)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(item_a.cmp(&item_b))
}

/// A reusable per-user bitmap over item ids. Setting and clearing are
/// O(|history|), membership is O(1) — replacing the old
/// `history.contains(item)` scan that made exclude-history filtering
/// O(V·|history|) per user.
struct SeenBitmap {
    words: Vec<u64>,
    vocab: usize,
}

impl SeenBitmap {
    /// Build over the thread's reusable word buffer; pair with
    /// [`SeenBitmap::release`] to give the buffer back. The buffer only
    /// grows when the catalog does, so steady-state serving reuses one
    /// allocation forever.
    fn acquire(vocab: usize) -> SeenBitmap {
        let need = vocab.div_ceil(64);
        let words = SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            let mut buf = std::mem::take(&mut s.seen_words);
            if buf.capacity() < need {
                s.allocs += 1;
            } else {
                s.reuses += 1;
            }
            buf.clear();
            buf.resize(need, 0);
            buf
        });
        SeenBitmap { words, vocab }
    }

    /// Return the word buffer to the thread scratch. The set/clear
    /// discipline in the batch loop leaves it all-zero, and `acquire`
    /// re-zeroes defensively anyway.
    fn release(self) {
        SCRATCH.with(|s| s.borrow_mut().seen_words = self.words);
    }

    /// Mark the history items (ids outside the vocab are ignored).
    fn set(&mut self, history: &[usize]) {
        for &item in history {
            if item < self.vocab {
                self.words[item / 64] |= 1u64 << (item % 64);
            }
        }
    }

    #[inline]
    fn contains(&self, item: usize) -> bool {
        self.words[item / 64] & (1u64 << (item % 64)) != 0
    }

    /// Unmark the same items — O(|history|), so the batch loop reuses one
    /// allocation instead of zeroing O(V/64) words per user.
    fn clear(&mut self, history: &[usize]) {
        for &item in history {
            if item < self.vocab {
                self.words[item / 64] &= !(1u64 << (item % 64));
            }
        }
    }
}

/// Select the top-k of `scores` (indexed by item id, slot 0 = padding,
/// never recommended), skipping items marked in `seen`. Candidate ids are
/// staged in a pooled `f32` buffer when they fit exactly (vocab ≤ 2²⁴),
/// falling back to a transient `u32` vec for larger catalogs.
fn select_top_k(scores: &[f32], seen: Option<&SeenBitmap>, k: usize) -> Vec<Recommendation> {
    let vocab = scores.len();
    let eligible = (1..vocab).filter(|&i| seen.is_none_or(|s| !s.contains(i)));
    if vocab <= (1usize << 24) {
        let mut cand = pool::take_empty(vocab);
        cand.extend(eligible.map(|i| i as f32));
        let by_rank = |a: &f32, b: &f32| {
            let (ia, ib) = (*a as usize, *b as usize);
            rank_order(scores[ia], ia, scores[ib], ib)
        };
        if cand.len() > k {
            // O(V) selection of the k winners, then sort only those —
            // full-vocab `sort_by` was O(V log V) per user.
            cand.select_nth_unstable_by(k - 1, by_rank);
            cand.truncate(k);
        }
        cand.sort_by(by_rank);
        let out = cand
            .iter()
            .map(|&id| {
                let item = id as usize;
                Recommendation {
                    item,
                    score: scores[item],
                }
            })
            .collect();
        pool::recycle(cand);
        out
    } else {
        let mut cand: Vec<u32> = eligible.map(|i| i as u32).collect();
        let by_rank = |a: &u32, b: &u32| {
            let (ia, ib) = (*a as usize, *b as usize);
            rank_order(scores[ia], ia, scores[ib], ib)
        };
        if cand.len() > k {
            cand.select_nth_unstable_by(k - 1, by_rank);
            cand.truncate(k);
        }
        cand.sort_by(by_rank);
        cand.iter()
            .map(|&id| Recommendation {
                item: id as usize,
                score: scores[id as usize],
            })
            .collect()
    }
}

/// Top-K next-item recommendations for a single interaction history.
///
/// `exclude_history` removes items the user has already consumed — the
/// usual serving-time behaviour; the paper's *evaluation* keeps them
/// (full unfiltered ranking), so the evaluator does not use this path.
pub fn recommend_top_k<M: NextItemModel>(
    model: &M,
    history: &[usize],
    k: usize,
    exclude_history: bool,
) -> Vec<Recommendation> {
    let batch = recommend_batch(model, &[history], k, exclude_history);
    batch.into_iter().next().unwrap_or_default()
}

/// [`recommend_top_k`] through an optional retrieval stack.
pub fn recommend_top_k_with<M: NextItemModel>(
    model: &M,
    history: &[usize],
    k: usize,
    exclude_history: bool,
    retriever: Option<&Retriever>,
) -> Vec<Recommendation> {
    let batch = recommend_batch_with(model, &[history], k, exclude_history, retriever);
    batch.into_iter().next().unwrap_or_default()
}

/// Top-K recommendations for several histories in one forward pass.
pub fn recommend_batch<M: NextItemModel>(
    model: &M,
    histories: &[&[usize]],
    k: usize,
    exclude_history: bool,
) -> Vec<Vec<Recommendation>> {
    recommend_batch_with(model, histories, k, exclude_history, None)
}

/// Top-K recommendations for several histories, optionally served through
/// a [`Retriever`]:
///
/// - `None`, or `Some` in [`RetrievalMode::Exact`] without quantization:
///   the dense baseline — score every item via `score_all`.
/// - `Exact` with `quantize`: full-catalog int8 scoring through the
///   `dot_i8` kernel (no float matmul, no f32 table traffic).
/// - `TwoStage` / `Spectral`: coarse shortlist from the index, exact
///   re-rank of the survivors. The shortlist is asked for enough
///   candidates to cover `k` plus the user's history, so exclusion can
///   never starve the result; small catalogs degrade to exact ranking.
pub fn recommend_batch_with<M: NextItemModel>(
    model: &M,
    histories: &[&[usize]],
    k: usize,
    exclude_history: bool,
    retriever: Option<&Retriever>,
) -> Vec<Vec<Recommendation>> {
    let ks = vec![k; histories.len()];
    recommend_batch_per_k(model, histories, &ks, exclude_history, retriever)
}

/// [`recommend_batch_with`] with a separate `ks[i]` for each history: one
/// encoder forward for the whole batch, then each row is ranked — and,
/// under two-stage retrieval, shortlisted — at its own `k`. A row's result
/// therefore never depends on which other rows share its batch.
pub fn recommend_batch_per_k<M: NextItemModel>(
    model: &M,
    histories: &[&[usize]],
    ks: &[usize],
    exclude_history: bool,
    retriever: Option<&Retriever>,
) -> Vec<Vec<Recommendation>> {
    assert_eq!(ks.len(), histories.len(), "one k per history");
    assert!(ks.iter().all(|&k| k >= 1), "k must be positive");
    if histories.is_empty() {
        return Vec::new();
    }
    let mode = retriever.map(|r| (r.cfg.mode, r.cfg.quantize));
    let _span = slime_trace::span!("recommend", {
        "users": histories.len(),
        "k": ks.iter().copied().max().unwrap_or(0),
        "mode": mode.map_or("dense", |(m, _)| m.as_str())
    });
    let n = model.max_len();
    // Ragged histories are staged straight into the reusable scratch
    // buffer: row `i` is `history[i]`'s tail, left-padded in place — the
    // serving path does no per-request `pad_truncate` Vec.
    let mut inputs = acquire_inputs(histories.len() * n);
    for (row, h) in histories.iter().enumerate() {
        let tail = if h.len() > n { &h[h.len() - n..] } else { h };
        inputs[(row + 1) * n - tail.len()..(row + 1) * n].copy_from_slice(tail);
    }
    let mut ctx = TrainContext::eval();
    let repr = model.user_repr(&inputs, histories.len(), &mut ctx);
    release_inputs(inputs);

    match (retriever, mode) {
        (Some(r), Some((RetrievalMode::TwoStage | RetrievalMode::Spectral, _))) => {
            let rv = repr.value();
            let dim = rv.shape()[1];
            let mut seen = exclude_history.then(|| SeenBitmap::acquire(r.vocab()));
            let mut scores = Vec::new();
            let out: Vec<Vec<Recommendation>> = histories
                .iter()
                .enumerate()
                .map(|(row, history)| {
                    let k = ks[row];
                    let query = &rv.data()[row * dim..(row + 1) * dim];
                    let need = k + if exclude_history { history.len() } else { 0 };
                    let mut cands = r.shortlist(query, need);
                    if let Some(s) = &mut seen {
                        s.set(history);
                        cands.retain(|&it| !s.contains(it as usize));
                        s.clear(history);
                    }
                    r.score_items(query, &cands, &mut scores);
                    let mut ranked: Vec<Recommendation> = cands
                        .iter()
                        .zip(&scores)
                        .map(|(&item, &score)| Recommendation {
                            item: item as usize,
                            score,
                        })
                        .collect();
                    let by_rank = |a: &Recommendation, b: &Recommendation| {
                        rank_order(a.score, a.item, b.score, b.item)
                    };
                    if ranked.len() > k {
                        ranked.select_nth_unstable_by(k - 1, by_rank);
                        ranked.truncate(k);
                    }
                    ranked.sort_by(by_rank);
                    ranked
                })
                .collect();
            if let Some(s) = seen {
                s.release();
            }
            out
        }
        (Some(r), Some((RetrievalMode::Exact, true))) => {
            let rv = repr.value();
            let dim = rv.shape()[1];
            let vocab = r.vocab();
            let mut seen = exclude_history.then(|| SeenBitmap::acquire(vocab));
            let mut scores = pool::take_filled(vocab, 0.0);
            let out = histories
                .iter()
                .enumerate()
                .map(|(row, history)| {
                    let query = &rv.data()[row * dim..(row + 1) * dim];
                    r.score_all_quantized(query, &mut scores);
                    if let Some(s) = &mut seen {
                        s.set(history);
                    }
                    let recs = select_top_k(&scores, seen.as_ref(), ks[row]);
                    if let Some(s) = &mut seen {
                        s.clear(history);
                    }
                    recs
                })
                .collect();
            pool::recycle(scores);
            if let Some(s) = seen {
                s.release();
            }
            out
        }
        _ => {
            let scores = model.score_all(&repr);
            let v = scores.value();
            let vocab = v.shape()[1];
            let mut seen = exclude_history.then(|| SeenBitmap::acquire(vocab));
            let out: Vec<Vec<Recommendation>> = histories
                .iter()
                .enumerate()
                .map(|(row, history)| {
                    let slice = &v.data()[row * vocab..(row + 1) * vocab];
                    if let Some(s) = &mut seen {
                        s.set(history);
                    }
                    let recs = select_top_k(slice, seen.as_ref(), ks[row]);
                    if let Some(s) = &mut seen {
                        s.clear(history);
                    }
                    recs
                })
                .collect();
            if let Some(s) = seen {
                s.release();
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retrieval::RetrievalConfig;
    use crate::{ContrastiveMode, Slime4Rec, SlimeConfig};

    fn tiny_model() -> Slime4Rec {
        let mut cfg = SlimeConfig::small(12);
        cfg.hidden = 8;
        cfg.max_len = 6;
        cfg.layers = 1;
        cfg.contrastive = ContrastiveMode::None;
        Slime4Rec::new(cfg)
    }

    #[test]
    fn returns_k_sorted_unique_items() {
        let m = tiny_model();
        let recs = recommend_top_k(&m, &[1, 2, 3], 5, false);
        assert_eq!(recs.len(), 5);
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        let mut items: Vec<usize> = recs.iter().map(|r| r.item).collect();
        items.dedup();
        assert_eq!(items.len(), 5);
        assert!(items.iter().all(|&i| (1..=12).contains(&i)));
    }

    #[test]
    fn exclude_history_filters_consumed_items() {
        let m = tiny_model();
        let history = [1usize, 2, 3, 4, 5, 6, 7];
        let recs = recommend_top_k(&m, &history, 5, true);
        for r in &recs {
            assert!(
                !history.contains(&r.item),
                "recommended consumed {}",
                r.item
            );
        }
    }

    #[test]
    fn batch_matches_single_queries() {
        let m = tiny_model();
        let h1: &[usize] = &[1, 2, 3];
        let h2: &[usize] = &[4, 5];
        let batch = recommend_batch(&m, &[h1, h2], 3, false);
        assert_eq!(batch[0], recommend_top_k(&m, h1, 3, false));
        assert_eq!(batch[1], recommend_top_k(&m, h2, 3, false));
    }

    /// The in-place ragged assembly must be byte-for-byte equivalent to
    /// the old path that materialized `pad_truncate(h, n)` per history:
    /// feeding pre-padded histories through the same API has to produce
    /// bitwise-identical rankings (pad id 0 is never recommended, so
    /// padding cannot leak into results).
    #[test]
    fn ragged_batch_matches_padded_naive_assembly() {
        let m = tiny_model(); // max_len = 6
        let ragged: Vec<Vec<usize>> = vec![
            vec![],
            vec![7],
            vec![2, 3, 4],
            vec![1, 2, 3, 4, 5, 6],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9], // longer than max_len
        ];
        let padded: Vec<Vec<usize>> = ragged
            .iter()
            .map(|h| slime_data::batch::pad_truncate(h, 6))
            .collect();
        let r_refs: Vec<&[usize]> = ragged.iter().map(|h| h.as_slice()).collect();
        let p_refs: Vec<&[usize]> = padded.iter().map(|h| h.as_slice()).collect();
        for k in [1usize, 3, 8] {
            let got = recommend_batch(&m, &r_refs, k, false);
            let naive = recommend_batch(&m, &p_refs, k, false);
            for (row, (g, nv)) in got.iter().zip(&naive).enumerate() {
                let gb: Vec<(usize, u32)> = g.iter().map(|r| (r.item, r.score.to_bits())).collect();
                let nb: Vec<(usize, u32)> =
                    nv.iter().map(|r| (r.item, r.score.to_bits())).collect();
                assert_eq!(gb, nb, "row {row}, k {k}");
            }
        }
    }

    /// Ragged batches with exclusion must match the single-query path —
    /// exclusion uses the *full* history, including items truncated out
    /// of the model input.
    #[test]
    fn ragged_batch_exclusion_matches_single_queries() {
        let m = tiny_model();
        let ragged: Vec<Vec<usize>> = vec![
            vec![1],
            vec![4, 5, 6, 7],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        ];
        let refs: Vec<&[usize]> = ragged.iter().map(|h| h.as_slice()).collect();
        let batch = recommend_batch(&m, &refs, 2, true);
        for (row, h) in ragged.iter().enumerate() {
            assert_eq!(batch[row], recommend_top_k(&m, h, 2, true), "row {row}");
        }
    }

    #[test]
    fn k_larger_than_vocab_is_clamped_by_reality() {
        let m = tiny_model();
        let recs = recommend_top_k(&m, &[1], 100, false);
        assert_eq!(recs.len(), 12); // full vocab minus the pad item
    }

    #[test]
    fn empty_history_still_recommends() {
        let m = tiny_model();
        let recs = recommend_top_k(&m, &[], 3, false);
        assert_eq!(recs.len(), 3);
    }

    /// Scores every item with a fixed per-item score, independent of the
    /// history — lets the tests pin exact ranking outcomes.
    struct FixedScores {
        scores: Vec<f32>,
    }

    impl slime_nn::Module for FixedScores {
        fn collect(&self, _out: &mut slime_nn::ParamCollector) {}
    }

    impl NextItemModel for FixedScores {
        fn max_len(&self) -> usize {
            4
        }
        fn user_repr(&self, _inputs: &[usize], batch: usize, _ctx: &mut TrainContext) -> Tensor {
            Tensor::constant(NdArray::zeros(vec![batch, 1]))
        }
        fn score_all(&self, repr: &Tensor) -> Tensor {
            let batch = repr.shape()[0];
            let mut data = Vec::with_capacity(batch * self.scores.len());
            for _ in 0..batch {
                data.extend_from_slice(&self.scores);
            }
            Tensor::constant(NdArray::from_vec(vec![batch, self.scores.len()], data))
        }
    }

    use slime_tensor::{NdArray, Tensor};

    #[test]
    fn ties_break_by_item_id_ascending() {
        // Items 2, 3, 5 share the top score; 1 and 4 share the next one.
        let m = FixedScores {
            scores: vec![9.0, 1.0, 2.0, 2.0, 1.0, 2.0],
        };
        let recs = recommend_top_k(&m, &[1], 4, false);
        let items: Vec<usize> = recs.iter().map(|r| r.item).collect();
        assert_eq!(items, vec![2, 3, 5, 1]);
        // The cut itself can land inside a tie group: top-2 of the three
        // score-2.0 items must be the two smallest ids.
        let top2: Vec<usize> = recommend_top_k(&m, &[1], 2, false)
            .iter()
            .map(|r| r.item)
            .collect();
        assert_eq!(top2, vec![2, 3]);
    }

    #[test]
    fn partial_selection_matches_full_sort() {
        // Pseudo-random scores with planted duplicates; the k winners must
        // be exactly the first k of the fully sorted ranking.
        let scores: Vec<f32> = (0..97).map(|i| ((i * 37 + 11) % 23) as f32 / 4.0).collect();
        let m = FixedScores {
            scores: scores.clone(),
        };
        let mut reference: Vec<(usize, f32)> = scores.iter().copied().enumerate().skip(1).collect();
        reference.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        for k in [1, 5, 23, 96] {
            let recs = recommend_top_k(&m, &[1], k, false);
            let got: Vec<(usize, f32)> = recs.iter().map(|r| (r.item, r.score)).collect();
            assert_eq!(got, reference[..k], "k = {k}");
        }
    }

    /// The seen-bitmap + pooled-candidate path must reproduce the old
    /// per-candidate `history.contains` filter exactly, at a catalog size
    /// where the O(V·|history|) scan actually hurt.
    #[test]
    fn large_catalog_exclusion_matches_naive_filter() {
        let vocab = 5000usize;
        let scores: Vec<f32> = (0..vocab)
            .map(|i| ((i * 131 + 7) % 997) as f32 / 8.0)
            .collect();
        let m = FixedScores {
            scores: scores.clone(),
        };
        // A long, gappy history with duplicates and an out-of-vocab id.
        let mut history: Vec<usize> = (1..vocab).step_by(3).collect();
        history.push(1);
        history.push(vocab + 17);
        for k in [1usize, 10, 100] {
            let recs = recommend_top_k(&m, &history, k, true);
            // Reference: the pre-bitmap implementation, verbatim.
            let mut naive: Vec<Recommendation> = scores
                .iter()
                .enumerate()
                .skip(1)
                .filter(|(item, _)| !history.contains(item))
                .map(|(item, &score)| Recommendation { item, score })
                .collect();
            naive.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.item.cmp(&b.item))
            });
            naive.truncate(k);
            assert_eq!(recs, naive, "k = {k}");
        }
    }

    /// Two-stage retrieval through a real model: results must be top-k of
    /// the exact ranking restricted to the shortlist — and with a widened
    /// shortlist covering the whole tiny catalog, identical items to the
    /// exact path.
    #[test]
    fn two_stage_on_tiny_catalog_degrades_to_exact_items() {
        let m = tiny_model();
        let emb = m.item_emb.weight.value();
        let cfg = RetrievalConfig {
            cells: 3,
            nprobe: 3,
            iters: 2,
            ..RetrievalConfig::default()
        };
        let r = crate::retrieval::Retriever::build(&emb, cfg);
        let exact = recommend_top_k(&m, &[1, 2, 3], 4, true);
        let two_stage = recommend_top_k_with(&m, &[1, 2, 3], 4, true, Some(&r));
        let e: Vec<usize> = exact.iter().map(|x| x.item).collect();
        let t: Vec<usize> = two_stage.iter().map(|x| x.item).collect();
        assert_eq!(e, t, "nprobe = all cells must reproduce exact item set");
    }

    /// Quantized exact mode ranks via int8 scores; on a toy model the
    /// returned items must be valid, unique, and history-free.
    #[test]
    fn quantized_exact_mode_serves_valid_items() {
        let m = tiny_model();
        let emb = m.item_emb.weight.value();
        let cfg = RetrievalConfig {
            mode: RetrievalMode::Exact,
            quantize: true,
            ..RetrievalConfig::default()
        };
        let r = crate::retrieval::Retriever::build(&emb, cfg);
        let history = [1usize, 2, 3];
        let recs = recommend_top_k_with(&m, &history, 5, true, Some(&r));
        assert_eq!(recs.len(), 5);
        let mut items: Vec<usize> = recs.iter().map(|x| x.item).collect();
        items.sort_unstable();
        items.dedup();
        assert_eq!(items.len(), 5);
        for &it in &items {
            assert!((1..=12).contains(&it) && !history.contains(&it));
        }
    }
}
