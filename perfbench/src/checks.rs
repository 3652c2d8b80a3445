//! Output checks. Each one tests a property that any correct output has,
//! computed independently of the program under test; none compares with a
//! recorded copy of an earlier output.

/// Unit roundoff of `f32`.
const F32_EPS: f64 = 1.0 / 16_777_216.0;

/// A served or recommended list: distinct ids in `1..vocab`, ordered by
/// score descending then id ascending, finite scores, no history item
/// when `exclude` is set, and exactly `k` entries whenever the catalog
/// holds `k` eligible items.
pub fn check_ranked_list(
    items: &[(u32, f32)],
    k: usize,
    vocab: usize,
    history: &[usize],
    exclude: bool,
) -> Result<(), String> {
    let eligible = if exclude {
        let mut h: Vec<usize> = history
            .iter()
            .copied()
            .filter(|&i| i >= 1 && i < vocab)
            .collect();
        h.sort_unstable();
        h.dedup();
        vocab.saturating_sub(1 + h.len())
    } else {
        vocab.saturating_sub(1)
    };
    if items.len() != k.min(eligible) {
        return Err(format!(
            "list has {} items, expected {} (k {k}, {eligible} eligible)",
            items.len(),
            k.min(eligible)
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for (pos, &(id, score)) in items.iter().enumerate() {
        let id_us = id as usize;
        if id_us == 0 || id_us >= vocab {
            return Err(format!("id {id} at position {pos} outside 1..{vocab}"));
        }
        if !seen.insert(id) {
            return Err(format!("id {id} repeated at position {pos}"));
        }
        if !score.is_finite() {
            return Err(format!("non-finite score {score} for id {id}"));
        }
        if exclude && history.contains(&id_us) {
            return Err(format!("history item {id} served with exclude set"));
        }
        if pos > 0 {
            let (pid, ps) = items[pos - 1];
            let ordered = ps > score || (ps == score && pid < id);
            if !ordered {
                return Err(format!(
                    "positions {} and {pos} out of order: ({pid}, {ps}) before ({id}, {score})",
                    pos - 1
                ));
            }
        }
    }
    Ok(())
}

/// f64 scores `q · E[i]` for every row of `table` (`vocab × dim`), plus
/// for each row the rounding slack of an f32 dot product of that length:
/// `(dim + 2) · u · Σ|q_j E_ij|`.
pub fn exact_scores(query: &[f32], table: &[f32], dim: usize) -> (Vec<f64>, Vec<f64>) {
    let rows = table.len() / dim;
    let mut score = Vec::with_capacity(rows);
    let mut slack = Vec::with_capacity(rows);
    let gamma = (dim as f64 + 2.0) * F32_EPS;
    for r in 0..rows {
        let row = &table[r * dim..(r + 1) * dim];
        let (mut s, mut a) = (0.0f64, 0.0f64);
        for (&q, &e) in query.iter().zip(row) {
            let p = q as f64 * e as f64;
            s += p;
            a += p.abs();
        }
        score.push(s);
        slack.push(gamma * a);
    }
    (score, slack)
}

/// A top-k list agrees with exact scoring: consecutive entries are ordered
/// by exact score, and no eligible item outside the list scores above the
/// list's weakest entry — each comparison allowing both scores' rounding
/// slack, so only near-ties may go either way.
pub fn check_topk_exact(
    items: &[usize],
    exact: &[f64],
    slack: &[f64],
    excluded: &[usize],
) -> Result<(), String> {
    for w in items.windows(2) {
        let (a, b) = (w[0], w[1]);
        if exact[a] + slack[a] + slack[b] < exact[b] {
            return Err(format!(
                "item {a} (exact {}) ranked above item {b} (exact {})",
                exact[a], exact[b]
            ));
        }
    }
    let Some(floor) = items
        .iter()
        .map(|&i| exact[i] + slack[i])
        .min_by(|x, y| x.total_cmp(y))
    else {
        return Ok(());
    };
    for j in 1..exact.len() {
        if items.contains(&j) || excluded.contains(&j) {
            continue;
        }
        if exact[j] - slack[j] > floor {
            return Err(format!(
                "item {j} (exact {}) left out of a top-{} list whose weakest entry allows {floor}",
                exact[j],
                items.len()
            ));
        }
    }
    Ok(())
}

/// The evaluator's HR@10 equals the hit rate counted from top-10 lists.
pub fn check_hit_rate(evaluator_hr: f64, hits: usize, users: usize) -> Result<(), String> {
    let counted = hits as f64 / users.max(1) as f64;
    if evaluator_hr == counted {
        Ok(())
    } else {
        Err(format!(
            "evaluator HR@10 {evaluator_hr} != counted {hits}/{users} = {counted}"
        ))
    }
}

/// Every epoch loss is finite and the last is below the first; the ranking
/// metrics satisfy `0 <= NDCG@10 <= HR@10 <= 1` and `HR@5 <= HR@10`.
pub fn check_training(losses: &[f32], hr5: f64, hr10: f64, ndcg10: f64) -> Result<(), String> {
    if losses.is_empty() {
        return Err("no epoch losses".into());
    }
    if let Some(l) = losses.iter().find(|l| !l.is_finite()) {
        return Err(format!("non-finite epoch loss {l} in {losses:?}"));
    }
    if losses.len() >= 2 && losses[losses.len() - 1] >= losses[0] {
        return Err(format!("last epoch loss not below the first: {losses:?}"));
    }
    let ordered = 0.0 <= ndcg10 && ndcg10 <= hr10 && hr10 <= 1.0 && hr5 <= hr10;
    if !ordered {
        return Err(format!(
            "metric bounds violated: HR@5 {hr5}, HR@10 {hr10}, NDCG@10 {ndcg10}"
        ));
    }
    Ok(())
}

/// Client-side `Ok` replies equal the daemon's served count, and every
/// served request went through a gathered batch.
pub fn check_serve_counts(ok_replies: u64, served: u64, batched: u64) -> Result<(), String> {
    if ok_replies != served {
        return Err(format!(
            "client saw {ok_replies} Ok replies, daemon served {served}"
        ));
    }
    if batched != served {
        return Err(format!("batched requests {batched} != served {served}"));
    }
    Ok(())
}

/// A served reply is bitwise equal to an in-process reference list.
pub fn check_bitwise(served: &[(u32, f32)], reference: &[(usize, f32)]) -> Result<(), String> {
    if served.len() != reference.len() {
        return Err(format!(
            "served {} items, reference {}",
            served.len(),
            reference.len()
        ));
    }
    for (pos, (&(id, s), &(rid, rs))) in served.iter().zip(reference).enumerate() {
        if id as usize != rid || s.to_bits() != rs.to_bits() {
            return Err(format!(
                "position {pos}: served ({id}, {s}) vs reference ({rid}, {rs})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_list() -> Vec<(u32, f32)> {
        vec![(7, 3.0), (2, 2.5), (4, 2.5), (9, 1.0)]
    }

    #[test]
    fn ranked_list_accepts_a_valid_reply() {
        check_ranked_list(&good_list(), 4, 20, &[1, 3], true).unwrap();
    }

    #[test]
    fn ranked_list_rejects_a_swapped_pair() {
        let mut l = good_list();
        l.swap(0, 1);
        assert!(check_ranked_list(&l, 4, 20, &[], false).is_err());
    }

    #[test]
    fn ranked_list_rejects_a_tie_in_id_descending_order() {
        let mut l = good_list();
        l.swap(1, 2);
        assert!(check_ranked_list(&l, 4, 20, &[], false).is_err());
    }

    #[test]
    fn ranked_list_rejects_a_history_item_under_exclude() {
        let l = good_list();
        assert!(check_ranked_list(&l, 4, 20, &[2], true).is_err());
        // The same item is fine when exclusion is off.
        check_ranked_list(&l, 4, 20, &[2], false).unwrap();
    }

    #[test]
    fn ranked_list_rejects_id_zero_and_out_of_vocab() {
        let mut l = good_list();
        l[3].0 = 0;
        assert!(check_ranked_list(&l, 4, 20, &[], false).is_err());
        let mut l = good_list();
        l[0].0 = 20;
        assert!(check_ranked_list(&l, 4, 20, &[], false).is_err());
    }

    #[test]
    fn ranked_list_rejects_duplicates_and_short_lists() {
        let mut l = good_list();
        l[3] = (7, 0.5);
        assert!(check_ranked_list(&l, 4, 20, &[], false).is_err());
        let l = good_list();
        assert!(check_ranked_list(&l[..3], 4, 20, &[], false).is_err());
        // A short list is right when the catalog runs out of items.
        let small = [(3u32, 2.0f32), (1, 1.0), (2, 0.5)];
        check_ranked_list(&small, 4, 4, &[], false).unwrap();
        assert!(check_ranked_list(&small[..2], 4, 4, &[], false).is_err());
    }

    #[test]
    fn ranked_list_rejects_non_finite_scores() {
        let mut l = good_list();
        l[3].1 = f32::NAN;
        assert!(check_ranked_list(&l, 4, 20, &[], false).is_err());
    }

    fn table() -> (Vec<f32>, Vec<f32>) {
        // Row 0 is padding; rows score 0, 1, 5, 3, 3 + 1e-9-ish, 2.
        let q = vec![1.0f32, 0.0];
        let t = vec![
            0.0, 0.0, //
            1.0, 0.0, //
            5.0, 1.0, //
            3.0, 2.0, //
            3.0, -1.0, //
            2.0, 0.0,
        ];
        (q, t)
    }

    #[test]
    fn topk_accepts_the_exact_order_and_near_ties() {
        let (q, t) = table();
        let (s, sl) = exact_scores(&q, &t, 2);
        check_topk_exact(&[2, 3, 4], &s, &sl, &[]).unwrap();
        // Items 3 and 4 tie exactly, so either order passes.
        check_topk_exact(&[2, 4, 3], &s, &sl, &[]).unwrap();
    }

    #[test]
    fn topk_rejects_a_swapped_pair() {
        let (q, t) = table();
        let (s, sl) = exact_scores(&q, &t, 2);
        assert!(check_topk_exact(&[3, 2, 4], &s, &sl, &[]).is_err());
    }

    #[test]
    fn topk_rejects_a_missing_winner() {
        let (q, t) = table();
        let (s, sl) = exact_scores(&q, &t, 2);
        assert!(check_topk_exact(&[2, 3, 5], &s, &sl, &[]).is_err());
        // Unless the winner is excluded.
        check_topk_exact(&[2, 3, 5], &s, &sl, &[4]).unwrap();
    }

    #[test]
    fn hit_rate_must_match_exactly() {
        check_hit_rate(27.0 / 512.0, 27, 512).unwrap();
        assert!(check_hit_rate(27.0 / 512.0, 28, 512).is_err());
    }

    #[test]
    fn training_rejects_non_finite_or_rising_loss() {
        check_training(&[5.0, 4.0, 3.5], 0.1, 0.2, 0.1).unwrap();
        assert!(check_training(&[5.0, f32::NAN, 3.5], 0.1, 0.2, 0.1).is_err());
        assert!(check_training(&[5.0, 4.0, 5.5], 0.1, 0.2, 0.1).is_err());
        assert!(check_training(&[], 0.1, 0.2, 0.1).is_err());
    }

    #[test]
    fn training_rejects_inconsistent_metrics() {
        assert!(check_training(&[5.0, 4.0], 0.1, 0.2, 0.3).is_err());
        assert!(check_training(&[5.0, 4.0], 0.3, 0.2, 0.1).is_err());
        assert!(check_training(&[5.0, 4.0], 0.1, 1.2, 0.1).is_err());
        assert!(check_training(&[5.0, 4.0], 0.1, 0.2, -0.1).is_err());
    }

    #[test]
    fn serve_counts_reject_an_off_by_one() {
        check_serve_counts(100, 100, 100).unwrap();
        assert!(check_serve_counts(99, 100, 100).is_err());
        assert!(check_serve_counts(100, 100, 101).is_err());
    }

    #[test]
    fn bitwise_rejects_a_changed_bit_or_item() {
        let served = vec![(3u32, 1.5f32), (1, 0.25)];
        check_bitwise(&served, &[(3, 1.5), (1, 0.25)]).unwrap();
        let nudged = f32::from_bits(0.25f32.to_bits() + 1);
        assert!(check_bitwise(&served, &[(3, 1.5), (1, nudged)]).is_err());
        assert!(check_bitwise(&served, &[(1, 0.25), (3, 1.5)]).is_err());
        assert!(check_bitwise(&served, &[(3, 1.5)]).is_err());
    }
}
