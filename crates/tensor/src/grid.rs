//! Shape-only chunk grids for the row-wise ops: layer norms, the
//! bias-GELU epilogues, hashed dropout, same-shape elementwise ops and the
//! gradient sums over a leading axis.
//!
//! Every grid is a pure function of the shape, never of the thread count
//! (the slime-par contract, DESIGN.md §8), so each op computes the same
//! bits at any `SLIME_THREADS`. A chunk holds about [`CHUNK_ELEMS`]
//! elements, in whole rows and a multiple of 8 elements, so no AVX2 lane
//! group straddles a chunk boundary: a per-element kernel called once per
//! chunk computes exactly what one call over the whole array would. An
//! array of one chunk or less runs inline on the caller.
//!
//! Sums over the leading axis (layer-norm `dgamma`/`dbeta`, the bias
//! gradient of `matmul_bias_gelu`, and `reduce_to_shape` onto a suffix of
//! the shape) all go through [`fold_rows`] or [`sum_rows`], which compute
//! one formula: each chunk of rows sums its rows in ascending order from
//! zero into a partial, and the partials are summed in ascending chunk
//! order. One formula at every row count is what keeps the fused and
//! unfused bias gradients bitwise equal.

use slime_par::{parallel_for, UnsafeSlice};

use crate::pool;

/// Elements per chunk of a row-wise grid (64 KiB of `f32`).
pub(crate) const CHUNK_ELEMS: usize = 1 << 14;

/// Rows per chunk for rows of `d` elements: about [`CHUNK_ELEMS`]
/// elements, at least one row, and a multiple of 8 elements.
pub(crate) fn rows_per_chunk(d: usize) -> usize {
    let d = d.max(1);
    let lane_rows = 8 >> d.trailing_zeros().min(3);
    (CHUNK_ELEMS / d).max(1).next_multiple_of(lane_rows)
}

/// Run `f(lo, chunk)` over the element grid of `out`, in parallel, where
/// `chunk` is `out[lo .. lo + chunk.len()]`. For kernels whose elements
/// are independent: the result is bitwise that of `f(0, out)`.
pub(crate) fn for_each_chunk(out: &mut [f32], f: impl Fn(usize, &mut [f32]) + Sync) {
    let w = UnsafeSlice::new(out);
    parallel_for(w.len(), CHUNK_ELEMS, |lo, hi| {
        // SAFETY: the chunks of the grid are disjoint.
        // lint-proof(l8): w[lo .. hi]
        f(lo, unsafe { w.slice_mut(lo, hi - lo) });
    });
}

/// Leading-axis fold over `rows` rows of `d` elements.
///
/// For each chunk of the row grid, `body(r0, r1, out_rows, acc)` writes
/// rows `r0..r1` of `out` (`rows * d` long, or empty when the op has no
/// row output) and adds those rows' contributions, in ascending row order,
/// to `acc` — the chunk's zeroed partial of `width` elements. Returns the
/// partials summed in ascending chunk order.
pub(crate) fn fold_rows(
    rows: usize,
    d: usize,
    out: &mut [f32],
    width: usize,
    body: impl Fn(usize, usize, &mut [f32], &mut [f32]) + Sync,
) -> Vec<f32> {
    let step = rows_per_chunk(d);
    let chunks = rows.div_ceil(step);
    let od = if out.is_empty() { 0 } else { d };
    debug_assert_eq!(out.len(), rows * od, "row output is [rows, d] or empty");
    if chunks == 0 {
        return pool::take_filled(width, 0.0);
    }
    let mut parts = pool::take_unfilled(chunks * width);
    {
        let (wo, wp) = (UnsafeSlice::new(out), UnsafeSlice::new(&mut parts));
        parallel_for(chunks, 1, |c0, c1| {
            let (r0, r1) = (c0 * step, (c1 * step).min(rows));
            // SAFETY: chunk `c0` alone owns partial `c0` and output rows
            // `r0..r1` (the last chunk's rows stop short of its claim).
            // lint-proof(l8): wp[c0 * width .. c1 * width]
            // lint-proof(l8): wo[c0 * step * od .. c1 * step * od]
            let acc = unsafe { wp.slice_mut(c0 * width, (c1 - c0) * width) };
            let o = unsafe { wo.slice_mut(r0 * od, (r1 - r0) * od) };
            acc.fill(0.0);
            body(r0, r1, o, acc);
        });
    }
    if chunks == 1 {
        return parts;
    }
    let sums = fold_columns(&parts, chunks, width);
    pool::recycle(parts);
    sums
}

/// `Σ_r src[r, ..]` for `src` viewed as `[rows, width]`: the [`fold_rows`]
/// formula with each row as its own contribution.
pub(crate) fn sum_rows(src: &[f32], width: usize) -> Vec<f32> {
    let rows = if width == 0 { 0 } else { src.len() / width };
    debug_assert_eq!(rows * width, src.len(), "src is whole rows of width");
    if rows_per_chunk(width) == 1 {
        // One row per chunk, so each partial is `0 + row`: summing the rows
        // straight from zero gives the same bits (a sum started at +0 is
        // never -0, so `acc + (0 + x) == acc + x`) without materializing a
        // partial per row.
        return fold_columns(src, rows, width);
    }
    fold_rows(rows, width, &mut [], width, |r0, r1, _, acc| {
        for r in r0..r1 {
            for (a, &v) in acc.iter_mut().zip(&src[r * width..(r + 1) * width]) {
                *a += v;
            }
        }
    })
}

/// `res[j] = Σ_i parts[i * width + j]`, `i` ascending from a zero start,
/// in parallel over blocks of columns sized so a block reads about
/// [`CHUNK_ELEMS`] elements.
fn fold_columns(parts: &[f32], n: usize, width: usize) -> Vec<f32> {
    debug_assert!(parts.len() >= n * width, "parts holds n rows of width");
    let mut res = pool::take_unfilled(width);
    let block = (CHUNK_ELEMS / n.max(1)).next_multiple_of(8).max(8);
    let w = UnsafeSlice::new(&mut res);
    parallel_for(width, block, |lo, hi| {
        // SAFETY: column blocks are disjoint.
        // lint-proof(l8): w[lo .. hi]
        let o = unsafe { w.slice_mut(lo, hi - lo) };
        o.fill(0.0);
        for i in 0..n {
            for (a, &v) in o.iter_mut().zip(&parts[i * width + lo..i * width + hi]) {
                *a += v;
            }
        }
    });
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_chunks_are_whole_rows_of_whole_lane_groups() {
        for d in [1usize, 3, 8, 12, 64, 200, 256, 12_800, 20_000] {
            let step = rows_per_chunk(d);
            assert!(step >= 1);
            assert_eq!(step * d % 8, 0, "d={d}");
            assert!(step * d <= CHUNK_ELEMS + 8 * d, "d={d}");
        }
        assert_eq!(rows_per_chunk(64), 256);
        assert_eq!(rows_per_chunk(12_800), 1);
    }

    /// The reference formula, written out serially.
    fn chunked_sum(src: &[f32], width: usize) -> Vec<f32> {
        let rows = src.len() / width;
        let step = rows_per_chunk(width);
        let mut res = vec![0.0f32; width];
        for c in 0..rows.div_ceil(step) {
            let mut part = vec![0.0f32; width];
            for r in c * step..((c + 1) * step).min(rows) {
                for j in 0..width {
                    part[j] += src[r * width + j];
                }
            }
            for j in 0..width {
                res[j] += part[j];
            }
        }
        res
    }

    #[test]
    fn sums_follow_the_chunked_formula_on_both_paths() {
        // Width 64 takes the partial path, width 9000 the direct one.
        for (rows, width) in [(1000usize, 64usize), (7, 9000), (1, 5), (0, 3)] {
            let src: Vec<f32> = (0..rows * width)
                .map(|i| ((i as f32 * 0.618).sin() * 1e3).fract() - 0.25)
                .collect();
            let got = sum_rows(&src, width);
            let want = chunked_sum(&src, width);
            assert_eq!(got.len(), width);
            for (j, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "rows={rows} width={width} [{j}]");
            }
        }
    }
}
