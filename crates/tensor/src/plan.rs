//! Recorded step plans: capture one training step's op graph, then replay
//! it without re-tracing.
//!
//! Every eager step heap-allocates one graph node per op and re-dispatches
//! through the op constructors even though the step structure is identical
//! each iteration. A [`StepPlan`] removes that overhead: during a **capture**
//! step the constructors run normally while a thread-local [`Recorder`]
//! remembers every produced tensor (in construction order) plus every leaf
//! created mid-step; on **replay** the plan walks the recorded tensors,
//! rebinding the per-step input/target buffers and asking each op to
//! recompute its forward value in place (`Op::replay`), refreshing whatever
//! saved state its backward needs through interior mutability. No tensors,
//! nodes, or boxes are allocated — `tape.nodes_allocated` stays flat — and
//! `backward()` runs over the same persistent graph.
//!
//! # Legality
//!
//! A step is replayable iff every op it records implements [`Op::replay`]
//! and every leaf created during the step is registered with a rebuild
//! closure via [`bind_leaf`] (the contrastive pair mask is the one such leaf
//! on the SLIME path; ad-hoc leaves like per-step noise mark the plan
//! unsupported and the trainer falls back to eager tracing permanently).
//! RNG-consuming ops (dropout) re-draw from the caller's RNG in construction
//! order — exactly the order eager tracing draws in — so a replayed step is
//! bitwise identical to the eager step it stands in for. Plans are keyed by
//! the input/target lengths; any shape change (last partial batch)
//! invalidates the plan and the next step re-captures. See DESIGN.md §14.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::ndarray::NdArray;
use crate::tensor::Tensor;

/// Which per-step integer buffer an op argument was identified with at
/// capture time (by pointer+length identity against the buffers registered
/// in [`begin_capture`]). On replay the op's `rebind` receives the fresh
/// buffer for its slot before `replay` runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Slot {
    /// The batch's input token ids.
    Inputs,
    /// The batch's target item ids.
    Targets,
}

/// Per-replay context handed to every [`Op::replay`](crate::Op) call.
pub struct ReplayCtx<'a> {
    /// The caller's RNG, consumed by stochastic ops (dropout) in
    /// construction order. `None` makes stochastic ops non-replayable.
    pub rng: Option<&'a mut slime_rng::rngs::StdRng>,
}

/// Rebuilds a bound leaf's value from the fresh `(inputs, targets)` buffers.
pub type LeafBuilder = Box<dyn Fn(&[usize], &[usize]) -> NdArray>;

struct Recorder {
    nodes: Vec<Tensor>,
    bound_leaves: Vec<(Tensor, LeafBuilder)>,
    /// Leaves created during capture; each must be bound by `end_capture`.
    pending_leaves: Vec<u64>,
    inputs_key: (usize, usize),
    targets_key: (usize, usize),
    unsupported: Option<&'static str>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

static CAPTURES: AtomicU64 = AtomicU64::new(0);
static REPLAYS: AtomicU64 = AtomicU64::new(0);
static INVALIDATIONS: AtomicU64 = AtomicU64::new(0);

/// Lifetime counters for plan reuse, published as `plan.*` gauges.
#[derive(Clone, Copy, Debug)]
pub struct PlanStats {
    /// Successful `end_capture` calls.
    pub captures: u64,
    /// Successful `StepPlan::replay` calls.
    pub replays: u64,
    /// Plans discarded for a shape change (counted by [`note_invalidation`]).
    pub invalidations: u64,
}

/// Snapshot of the process-wide plan counters.
pub fn stats() -> PlanStats {
    PlanStats {
        captures: CAPTURES.load(Ordering::Relaxed),
        replays: REPLAYS.load(Ordering::Relaxed),
        invalidations: INVALIDATIONS.load(Ordering::Relaxed),
    }
}

/// Record that a cached plan was discarded because the step shape changed.
pub fn note_invalidation() {
    INVALIDATIONS.fetch_add(1, Ordering::Relaxed);
}

/// Start recording the current thread's op constructions into a plan.
/// `inputs` and `targets` are the per-step integer buffers ops may bind to
/// (matched by pointer+length identity in [`slot_of`]).
pub fn begin_capture(inputs: &[usize], targets: &[usize]) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            nodes: Vec::new(),
            bound_leaves: Vec::new(),
            pending_leaves: Vec::new(),
            inputs_key: (inputs.as_ptr() as usize, inputs.len()),
            targets_key: (targets.as_ptr() as usize, targets.len()),
            unsupported: None,
        });
    });
}

/// Whether a capture is active on this thread.
pub fn capturing() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Identify an op's integer-buffer argument with a registered slot.
/// Only meaningful during capture; ops store the result so replay knows
/// which fresh buffer to rebind. Pointer identity is sound because the
/// registered buffers outlive the captured step, so no other live
/// allocation can alias them.
pub fn slot_of(arg: &[usize]) -> Option<Slot> {
    RECORDER.with(|r| {
        let borrow = r.borrow();
        let rec = borrow.as_ref()?;
        let key = (arg.as_ptr() as usize, arg.len());
        if key == rec.inputs_key {
            Some(Slot::Inputs)
        } else if key == rec.targets_key {
            Some(Slot::Targets)
        } else {
            None
        }
    })
}

/// Register a rebuild closure for a leaf created during capture (e.g. the
/// contrastive pair mask, a pure function of the step's targets). Unbound
/// mid-step leaves make the plan unsupported.
pub fn bind_leaf(t: &Tensor, builder: LeafBuilder) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.pending_leaves.retain(|&id| id != t.id());
            rec.bound_leaves.push((t.clone(), builder));
        }
    });
}

/// Tape hook: a non-leaf tensor was constructed. Called by
/// `Tensor::from_op`; a no-op unless a capture is active.
pub(crate) fn record_node(t: &Tensor) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if rec.unsupported.is_some() {
                return;
            }
            match t.op_replay_support() {
                Some(true) => rec.nodes.push(t.clone()),
                Some(false) => rec.unsupported = Some(t.op_name()),
                // An op output that tracked no gradient has no node to
                // replay through; its value would silently go stale.
                None => rec.unsupported = Some("untracked op output"),
            }
        }
    });
}

/// Tape hook: a leaf tensor was constructed mid-capture. Called by
/// `Tensor::leaf`; a no-op unless a capture is active.
pub(crate) fn record_leaf(t: &Tensor) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.pending_leaves.push(t.id());
        }
    });
}

/// A captured training step: the op graph in construction order plus the
/// rebind points. Holding the plan keeps the whole graph alive.
pub struct StepPlan {
    nodes: Vec<Tensor>,
    bound_leaves: Vec<(Tensor, LeafBuilder)>,
    inputs_len: usize,
    targets_len: usize,
}

/// Finish recording. Returns the plan, or the name of the first op (or
/// leaf) that made the step non-replayable.
pub fn end_capture() -> Result<StepPlan, &'static str> {
    let rec = RECORDER
        .with(|r| r.borrow_mut().take())
        .expect("end_capture without begin_capture");
    if let Some(name) = rec.unsupported {
        return Err(name);
    }
    if !rec.pending_leaves.is_empty() {
        return Err("unbound mid-step leaf");
    }
    CAPTURES.fetch_add(1, Ordering::Relaxed);
    Ok(StepPlan {
        nodes: rec.nodes,
        bound_leaves: rec.bound_leaves,
        inputs_len: rec.inputs_key.1,
        targets_len: rec.targets_key.1,
    })
}

impl std::fmt::Debug for StepPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepPlan")
            .field("nodes", &self.nodes.len())
            .field("bound_leaves", &self.bound_leaves.len())
            .field("inputs_len", &self.inputs_len)
            .field("targets_len", &self.targets_len)
            .finish()
    }
}

impl StepPlan {
    /// Whether a step with these buffers can replay through this plan.
    pub fn matches(&self, inputs: &[usize], targets: &[usize]) -> bool {
        inputs.len() == self.inputs_len && targets.len() == self.targets_len
    }

    /// Number of recorded op nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the plan recorded no ops.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Re-execute the captured step in place for fresh `(inputs, targets)`:
    /// rebuild bound leaves, rebind slot-bound ops, and recompute every
    /// node's value in construction order. Allocates zero graph nodes.
    ///
    /// # Panics
    /// Panics if `matches` is false for these buffers.
    pub fn replay(
        &self,
        inputs: &[usize],
        targets: &[usize],
        rng: Option<&mut slime_rng::rngs::StdRng>,
    ) -> Result<(), &'static str> {
        assert!(
            self.matches(inputs, targets),
            "StepPlan::replay: shape key mismatch (plan {}x{}, step {}x{})",
            self.inputs_len,
            self.targets_len,
            inputs.len(),
            targets.len()
        );
        let _prof = slime_trace::prof::timer_n(
            "plan.replay",
            slime_trace::prof::Phase::Forward,
            inputs.len() as u64,
        );
        for (leaf, builder) in &self.bound_leaves {
            leaf.set_data(builder(inputs, targets));
        }
        let mut ctx = ReplayCtx { rng };
        for t in &self.nodes {
            let out = t.replay_node(inputs, targets, &mut ctx)?;
            t.set_data(out);
        }
        REPLAYS.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn capture_replay_matches_eager_chain() {
        let x = Tensor::param(NdArray::from_vec(vec![4], vec![1.0, -2.0, 3.0, 0.5]));
        let inputs = [0usize; 4];
        let targets = [0usize; 1];
        begin_capture(&inputs, &targets);
        let y = ops::scale(&ops::sigmoid(&x), 2.0);
        let plan = end_capture().expect("chain is replayable");
        // Count this thread's nodes only.
        let before = crate::tensor::nodes_allocated_on_thread();

        // Mutate the leaf as an optimizer step would, then replay.
        x.set_data(NdArray::from_vec(vec![4], vec![0.5, 0.25, -1.0, 2.0]));
        plan.replay(&inputs, &targets, None).expect("replay");
        assert_eq!(
            crate::tensor::nodes_allocated_on_thread(),
            before,
            "replay allocated nodes"
        );

        // Eager recompute on a fresh graph must agree bitwise.
        let x2 = Tensor::param(x.value());
        let y2 = ops::scale(&ops::sigmoid(&x2), 2.0);
        assert_eq!(y.value().data(), y2.value().data());

        // And the replayed graph must backprop against the refreshed state.
        y.backward_with(NdArray::ones(vec![4]));
        y2.backward_with(NdArray::ones(vec![4]));
        assert_eq!(x.grad().unwrap().data(), x2.grad().unwrap().data());
    }

    #[test]
    fn unreplayable_op_is_reported() {
        let x = Tensor::param(NdArray::from_vec(vec![3], vec![1.0, 2.0, 3.0]));
        let inputs = [0usize; 3];
        let targets = [0usize; 1];
        begin_capture(&inputs, &targets);
        let _y = ops::softplus(&x);
        assert_eq!(end_capture().unwrap_err(), "softplus");
    }

    #[test]
    fn unbound_leaf_marks_plan_unsupported() {
        let x = Tensor::param(NdArray::from_vec(vec![2], vec![1.0, 2.0]));
        let inputs = [0usize; 2];
        let targets = [0usize; 1];
        begin_capture(&inputs, &targets);
        let noise = Tensor::constant(NdArray::from_vec(vec![2], vec![0.1, 0.2]));
        let _y = ops::add(&x, &noise);
        assert_eq!(end_capture().unwrap_err(), "unbound mid-step leaf");
    }

    #[test]
    fn bound_leaf_is_rebuilt_on_replay() {
        let x = Tensor::param(NdArray::from_vec(vec![2], vec![1.0, 2.0]));
        let inputs = [0usize; 2];
        let targets: Vec<usize> = vec![3, 5];
        begin_capture(&inputs, &targets);
        let bias = Tensor::constant(NdArray::from_vec(
            vec![2],
            targets.iter().map(|&t| t as f32).collect(),
        ));
        bind_leaf(
            &bias,
            Box::new(|_, t| NdArray::from_vec(vec![2], t.iter().map(|&v| v as f32).collect())),
        );
        let y = ops::add(&x, &bias);
        let plan = end_capture().expect("bound leaf is replayable");

        let targets2: Vec<usize> = vec![10, 20];
        plan.replay(&inputs, &targets2, None).expect("replay");
        assert_eq!(y.value().data(), &[11.0, 22.0]);
    }

    #[test]
    fn slot_rebinding_refreshes_embedding_and_targets() {
        let w = Tensor::param(NdArray::from_vec(
            vec![4, 2],
            (0..8).map(|v| v as f32).collect(),
        ));
        let inputs: Vec<usize> = vec![0, 1];
        let targets: Vec<usize> = vec![1, 0];
        begin_capture(&inputs, &targets);
        let e = ops::embedding(&w, &inputs, &[2]);
        let loss = ops::cross_entropy(&e, &targets);
        let plan = end_capture().expect("replayable");

        let inputs2: Vec<usize> = vec![3, 2];
        let targets2: Vec<usize> = vec![0, 1];
        plan.replay(&inputs2, &targets2, None).expect("replay");

        let e2 = ops::embedding(&w, &inputs2, &[2]);
        let loss2 = ops::cross_entropy(&e2, &targets2);
        assert_eq!(e.value().data(), e2.value().data());
        assert_eq!(loss.item().to_bits(), loss2.item().to_bits());
    }

    #[test]
    fn shape_change_fails_matches() {
        let x = Tensor::param(NdArray::from_vec(vec![2], vec![1.0, 2.0]));
        let inputs = [0usize; 2];
        let targets = [0usize; 1];
        begin_capture(&inputs, &targets);
        let _y = ops::scale(&x, 1.0);
        let plan = end_capture().expect("replayable");
        assert!(plan.matches(&inputs, &targets));
        assert!(!plan.matches(&[0usize; 3], &targets));
    }
}
