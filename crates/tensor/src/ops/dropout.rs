//! Inverted dropout.

use std::cell::{Cell, RefCell};

use slime_rng::Rng;

use crate::ndarray::NdArray;
use crate::tensor::{Op, Tensor};

/// Inverted dropout: zero each element with probability `p` and scale the
/// survivors by `1/(1-p)` so expectations are preserved.
///
/// Dropout is the source of the "model-level augmentation" of the paper's
/// contrastive task (Section III-E): passing the same sequence through the
/// network twice with independent dropout masks yields two semantically
/// similar but numerically different views.
///
/// Two samplers, both deterministic under a seeded `rng`:
///
/// * **hashed** (fused fast path, [`crate::simd::fuse::enabled`]): one
///   `u64` drawn from `rng` seeds a counter-based per-index hash
///   ([`Kernels::dropout_mask`](crate::simd::Kernels)) — branchless, 8-lane
///   vectorizable, bitwise identical across SIMD backends, and run in
///   parallel over the element grid. The op keeps only the seed: backward
///   regenerates the mask;
/// * **sequential** (`--no-fuse`): the historical draw-per-element walk,
///   kept bit-exact so the escape hatch reproduces pre-fusion results. Its
///   mask cannot be regenerated, so the op stores it.
///
/// The sampler is fixed at construction, so a step plan replays whichever
/// sampler traced the capture step regardless of the current gate.
///
/// Callers implement eval mode by *not* applying dropout (there is no
/// internal training flag).
pub fn dropout(x: &Tensor, p: f32, rng: &mut impl Rng) -> Tensor {
    let _prof = super::fwd_prof("dropout", x.len());
    assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
    if p == 0.0 {
        // Identity but still a graph node, so callers can rely on a fresh tensor.
        return crate::ops::scale(x, 1.0);
    }
    let keep = 1.0 - p;
    let scale = 1.0 / keep;
    let (out, mask) = if crate::simd::fuse::enabled() {
        let seed = rng.gen::<u64>();
        (
            apply_hashed(seed, keep, scale, &x.data()),
            Mask::Hashed(Cell::new(seed)),
        )
    } else {
        let (out, mask) = sequential(keep, scale, rng, &x.data());
        (out, Mask::Stored(RefCell::new(mask)))
    };
    Tensor::from_op(
        out,
        vec![x.clone()],
        Box::new(DropoutOp { keep, scale, mask }),
    )
}

/// `x · mask(seed, i)` for the hashed sampler, over the element grid: the
/// forward applies it to the input, the backward to the gradient.
fn apply_hashed(seed: u64, keep: f32, scale: f32, x: &NdArray) -> NdArray {
    let src = x.data();
    let kernel = crate::simd::kernels().dropout_mask;
    let mut out = crate::pool::take_unfilled(src.len());
    debug_assert_eq!(out.len(), src.len(), "chunks of out index src");
    crate::grid::for_each_chunk(&mut out, |lo, o| {
        kernel(seed, lo, keep, scale, &src[lo..lo + o.len()], o)
    });
    NdArray::from_vec(x.shape().to_vec(), out)
}

/// The sequential sampler: one `rng` draw per element, in order. Returns
/// `(out, mask)` with the mask 0 or `scale`.
fn sequential(keep: f32, scale: f32, rng: &mut impl Rng, x: &NdArray) -> (NdArray, NdArray) {
    let src = x.data();
    // Only survivors are written, so both buffers start zeroed.
    let mut mask = crate::pool::take_filled(src.len(), 0.0);
    let mut out = crate::pool::take_filled(src.len(), 0.0);
    debug_assert_eq!(mask.len(), src.len(), "mask and out match the source");
    for i in 0..src.len() {
        if rng.gen::<f32>() < keep {
            mask[i] = scale;
            out[i] = src[i] * scale;
        }
    }
    let shape = x.shape().to_vec();
    (
        NdArray::from_vec(shape.clone(), out),
        NdArray::from_vec(shape, mask),
    )
}

/// What the backward needs to know of the mask, per sampler.
enum Mask {
    /// The hashed sampler's seed; the mask is a pure function of it.
    Hashed(Cell<u64>),
    /// The sequential sampler's mask (0 or `scale` per element).
    Stored(RefCell<NdArray>),
}

struct DropoutOp {
    keep: f32,
    scale: f32,
    mask: Mask,
}

impl Op for DropoutOp {
    fn backward(&self, grad: &NdArray, _parents: &[Tensor]) -> Vec<Option<NdArray>> {
        vec![Some(match &self.mask {
            Mask::Hashed(seed) => apply_hashed(seed.get(), self.keep, self.scale, grad),
            Mask::Stored(mask) => grad.zip_map(&mask.borrow(), |g, m| g * m),
        })]
    }
    fn name(&self) -> &'static str {
        "dropout"
    }
    fn replayable(&self) -> bool {
        true
    }
    // Re-draw the mask from the replay RNG with the exact sampler the eager
    // constructor ran, so a replayed step consumes the same draw sequence
    // (and produces the same mask) as re-tracing would.
    fn replay(&self, parents: &[Tensor], ctx: &mut crate::plan::ReplayCtx) -> Option<NdArray> {
        let _prof = super::fwd_prof("dropout", parents[0].len());
        debug_assert_eq!(parents.len(), 1, "dropout has one parent");
        let rng = ctx.rng.as_deref_mut()?;
        let x = parents[0].data();
        Some(match &self.mask {
            Mask::Hashed(seed) => {
                seed.set(rng.gen::<u64>());
                apply_hashed(seed.get(), self.keep, self.scale, &x)
            }
            Mask::Stored(mask) => {
                let (out, m) = sequential(self.keep, self.scale, rng, &x);
                *mask.borrow_mut() = m;
                out
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::sum_all;
    use slime_rng::rngs::StdRng;

    /// The fuse gate is process-global: tests that flip it hold this lock so
    /// they cannot flip it under each other.
    static FUSE_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    use slime_rng::SeedableRng;

    #[test]
    fn zero_p_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::param(NdArray::from_vec(vec![4], vec![1., 2., 3., 4.]));
        let y = dropout(&x, 0.0, &mut rng);
        assert_eq!(y.value().data(), x.value().data());
    }

    #[test]
    fn survivors_are_scaled_and_grad_matches_mask() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::param(NdArray::ones(vec![1000]));
        let y = dropout(&x, 0.5, &mut rng);
        let vals = y.value();
        let kept = vals.data().iter().filter(|&&v| v != 0.0).count();
        // Expect roughly half kept.
        assert!((300..700).contains(&kept), "kept {kept}");
        for &v in vals.data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
        sum_all(&y).backward();
        let g = x.grad().unwrap();
        for (gv, yv) in g.data().iter().zip(vals.data()) {
            assert_eq!(*gv != 0.0, *yv != 0.0);
        }
    }

    #[test]
    fn expectation_roughly_preserved() {
        let mut rng = StdRng::seed_from_u64(42);
        let x = Tensor::constant(NdArray::ones(vec![10_000]));
        let y = dropout(&x, 0.3, &mut rng);
        let mean = y.value().mean_all();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn hashed_sampler_preserves_expectation_and_seed_determinism() {
        let _gate = FUSE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let was = crate::simd::fuse::enabled();
        crate::simd::fuse::set_enabled(true);
        let x = Tensor::constant(NdArray::ones(vec![10_000]));
        let mut rng = StdRng::seed_from_u64(42);
        let y = dropout(&x, 0.3, &mut rng);
        let mean = y.value().mean_all();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Same rng state -> same seed draw -> identical mask.
        let mut rng2 = StdRng::seed_from_u64(42);
        let y2 = dropout(&x, 0.3, &mut rng2);
        assert_eq!(y.value().data(), y2.value().data());
        // Different state -> a different mask (two contrastive views).
        let y3 = dropout(&x, 0.3, &mut rng2);
        assert_ne!(y2.value().data(), y3.value().data());
        crate::simd::fuse::set_enabled(was);
    }

    #[test]
    fn samplers_follow_the_fuse_gate() {
        // Sequential consumes one draw per element; hashed consumes one u64
        // (two PCG outputs) total — observable through the rng state.
        let _gate = FUSE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let was = crate::simd::fuse::enabled();
        let x = Tensor::constant(NdArray::ones(vec![100]));
        crate::simd::fuse::set_enabled(false);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = dropout(&x, 0.5, &mut rng);
        let mut reference = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let _ = reference.gen::<f32>();
        }
        assert_eq!(rng.gen::<u32>(), reference.gen::<u32>());
        crate::simd::fuse::set_enabled(true);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = dropout(&x, 0.5, &mut rng);
        let mut reference = StdRng::seed_from_u64(7);
        let _ = reference.gen::<u64>();
        assert_eq!(rng.gen::<u32>(), reference.gen::<u32>());
        crate::simd::fuse::set_enabled(was);
    }
}
