//! Differentiable operations.
//!
//! Every function here builds a graph node: it computes the forward value
//! eagerly and records an [`Op`](crate::tensor::Op) whose `backward` produces
//! the vector-Jacobian products for its parents. All ops are validated
//! against finite differences in `tests/gradcheck.rs`.

mod dropout;
mod elementwise;
mod embedding;
mod loss;
mod matmul;
mod norm;
mod reduce;
mod shape;
mod softmax;
mod spectral;

/// Forward-profiling guard for the heavy op constructors, matching the
/// generic backward timer in `Tensor::backward_with` so each op gets one
/// merged profile row under its tape name. `elements` is the primary
/// operand's length, feeding the profiler's ns-per-element column.
/// `None` (no clock read, no allocation) while tracing is off — the
/// zero-overhead default.
pub(crate) fn fwd_prof(name: &'static str, elements: usize) -> Option<slime_trace::prof::Timer> {
    ensure_attr_probe();
    slime_trace::prof::timer_n(name, slime_trace::prof::Phase::Forward, elements as u64)
}

/// Register the profiler's kernel-attribution probe exactly once. The
/// probe lives here (not in slime-trace) because the SIMD backend and
/// fuse gate are tensor-side state — trace cannot depend on tensor.
pub(crate) fn ensure_attr_probe() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        slime_trace::prof::set_attr_probe(|| {
            (crate::simd::backend().code(), crate::simd::fuse::enabled())
        });
    });
}

pub use dropout::dropout;
pub use elementwise::{
    add, add_scalar, exp, gelu, log, mul, neg, relu, scale, sigmoid, softplus, sub, tanh,
};
pub use embedding::embedding;
pub use loss::cross_entropy;
pub use matmul::{bmm, bmm_nt, matmul, matmul_nt};
pub use norm::{l2_normalize, layer_norm};
pub use reduce::{mean_all, mean_axis, sum_all, sum_axis};
pub use shape::{concat, gather_positions, index_axis, permute, reshape, slice_axis, unfold_time};
pub use softmax::{log_softmax, softmax};
pub use spectral::{
    spectral_filter, spectral_filter_mix, spectral_filter_mix_last, SpectralBranch,
};

use crate::ndarray::NdArray;
use crate::tensor::{Op, Tensor};

/// Assert that two operand shapes are NumPy-broadcast-compatible: aligned
/// right-to-left, every dimension pair must match or contain a 1.
pub(crate) fn assert_broadcastable(a: &[usize], b: &[usize], op: &str) {
    let compatible = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .all(|(&x, &y)| x == y || x == 1 || y == 1);
    assert!(
        compatible,
        "{op}: operand shapes {a:?} and {b:?} are not broadcast-compatible"
    );
}

/// Replay closure for a [`Unary`] op: `(parent_value, old_saved)` to
/// `(fresh_output, fresh_saved)`. Must compute the exact expressions the
/// eager constructor computes so a replayed step is bitwise identical.
pub(crate) type UnaryRefwd = Box<dyn Fn(&NdArray, &NdArray) -> (NdArray, NdArray)>;

/// A unary op saving one array, with the VJP given as a closure
/// `(grad_out, saved) -> grad_in`. Ops constructed with
/// [`unary_replayable`] additionally carry a forward-recompute closure and
/// participate in recorded step plans (the saved array sits in a `RefCell`
/// so replay can refresh it in place).
pub(crate) struct Unary<F>
where
    F: Fn(&NdArray, &NdArray) -> NdArray,
{
    name: &'static str,
    saved: std::cell::RefCell<NdArray>,
    vjp: F,
    refwd: Option<UnaryRefwd>,
}

impl<F> Op for Unary<F>
where
    F: Fn(&NdArray, &NdArray) -> NdArray,
{
    fn backward(&self, grad_out: &NdArray, _parents: &[Tensor]) -> Vec<Option<NdArray>> {
        vec![Some((self.vjp)(grad_out, &self.saved.borrow()))]
    }
    fn name(&self) -> &'static str {
        self.name
    }
    fn replayable(&self) -> bool {
        self.refwd.is_some()
    }
    fn replay(&self, parents: &[Tensor], _ctx: &mut crate::plan::ReplayCtx) -> Option<NdArray> {
        debug_assert_eq!(parents.len(), 1, "unary op has one parent");
        let refwd = self.refwd.as_ref()?;
        let (out, fresh) = refwd(&parents[0].data(), &self.saved.borrow());
        *self.saved.borrow_mut() = fresh;
        Some(out)
    }
}

pub(crate) fn unary<F>(
    name: &'static str,
    x: &Tensor,
    out: NdArray,
    saved: NdArray,
    vjp: F,
) -> Tensor
where
    F: Fn(&NdArray, &NdArray) -> NdArray + 'static,
{
    Tensor::from_op(
        out,
        vec![x.clone()],
        Box::new(Unary {
            name,
            saved: std::cell::RefCell::new(saved),
            vjp,
            refwd: None,
        }),
    )
}

/// [`unary`] plus a replay closure, making the op step-plan replayable.
pub(crate) fn unary_replayable<F>(
    name: &'static str,
    x: &Tensor,
    out: NdArray,
    saved: NdArray,
    vjp: F,
    refwd: UnaryRefwd,
) -> Tensor
where
    F: Fn(&NdArray, &NdArray) -> NdArray + 'static,
{
    Tensor::from_op(
        out,
        vec![x.clone()],
        Box::new(Unary {
            name,
            saved: std::cell::RefCell::new(saved),
            vjp,
            refwd: Some(refwd),
        }),
    )
}
