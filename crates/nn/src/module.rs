//! Module trait, parameter collection, and the training context threaded
//! through forward passes.

use slime_rng::rngs::StdRng;
use slime_rng::SeedableRng;
use slime_tensor::{CheckpointError, NdArray, StateDict, Tensor};

/// RNG + training-mode flag threaded through every forward pass.
///
/// Keeping the RNG external to the layers makes dropout (and therefore the
/// paper's two-view contrastive augmentation) deterministic under a fixed
/// seed.
pub struct TrainContext {
    /// Source of randomness for dropout and sampling.
    pub rng: StdRng,
    /// Training (dropout active) vs evaluation (dropout bypassed).
    pub training: bool,
}

impl TrainContext {
    /// A training-mode context with the given seed.
    pub fn train(seed: u64) -> Self {
        TrainContext {
            rng: StdRng::seed_from_u64(seed),
            training: true,
        }
    }

    /// An evaluation-mode context (dropout disabled; the RNG is still
    /// available for samplers that need it).
    pub fn eval() -> Self {
        TrainContext {
            rng: StdRng::seed_from_u64(0),
            training: false,
        }
    }
}

/// Accumulates named parameters while walking a module tree.
#[derive(Default)]
pub struct ParamCollector {
    entries: Vec<(String, Tensor)>,
}

impl ParamCollector {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter under `name` (joined with the current prefix by
    /// the caller via [`Module::collect`] conventions).
    pub fn push(&mut self, name: impl Into<String>, t: &Tensor) {
        self.entries.push((name.into(), t.clone()));
    }

    /// Recurse into a child module under a name prefix.
    pub fn child(&mut self, prefix: &str, module: &impl Module) {
        let mut sub = ParamCollector::new();
        module.collect(&mut sub);
        for (name, t) in sub.entries {
            self.entries.push((format!("{prefix}.{name}"), t));
        }
    }

    /// All collected `(name, tensor)` pairs.
    pub fn entries(&self) -> &[(String, Tensor)] {
        &self.entries
    }

    /// Just the tensors, for handing to an optimizer.
    pub fn tensors(&self) -> Vec<Tensor> {
        self.entries.iter().map(|(_, t)| t.clone()).collect()
    }
}

/// A trainable component exposing its parameters.
pub trait Module {
    /// Report every trainable parameter to the collector.
    fn collect(&self, out: &mut ParamCollector);

    /// Flat list of parameter tensors (optimizer input).
    fn parameters(&self) -> Vec<Tensor> {
        let mut c = ParamCollector::new();
        self.collect(&mut c);
        c.tensors()
    }

    /// Snapshot all parameters into a [`StateDict`].
    fn state_dict(&self) -> StateDict {
        let mut c = ParamCollector::new();
        self.collect(&mut c);
        let mut sd = StateDict::new();
        for (name, t) in c.entries() {
            sd.insert(name, t);
        }
        sd
    }

    /// Load all parameters from a [`StateDict`].
    ///
    /// # Panics
    /// Panics, with no parameter written, on any checkpoint that
    /// [`Module::try_load_state_dict`] refuses.
    fn load_state_dict(&self, sd: &StateDict) {
        let loaded = self.try_load_state_dict(sd);
        assert!(loaded.is_ok(), "refused checkpoint: {loaded:?}");
    }

    /// Load all parameters from a [`StateDict`], or refuse it with no
    /// parameter written: every record must be present, match its
    /// parameter's shape and hold only finite values.
    fn try_load_state_dict(&self, sd: &StateDict) -> Result<(), CheckpointError> {
        let mut c = ParamCollector::new();
        self.collect(&mut c);
        let records = c
            .entries()
            .iter()
            .map(|(name, t)| Ok((t, sd.checked(name, &t.shape())?)))
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        for (t, rec) in records {
            t.set_data(NdArray::from_vec(rec.shape.clone(), rec.data.clone()));
        }
        Ok(())
    }

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slime_tensor::NdArray;

    struct Leaf {
        w: Tensor,
    }
    impl Module for Leaf {
        fn collect(&self, out: &mut ParamCollector) {
            out.push("w", &self.w);
        }
    }
    struct Pair {
        a: Leaf,
        b: Leaf,
    }
    impl Module for Pair {
        fn collect(&self, out: &mut ParamCollector) {
            out.child("a", &self.a);
            out.child("b", &self.b);
        }
    }

    #[test]
    fn nested_names_and_state_dict_roundtrip() {
        let p = Pair {
            a: Leaf {
                w: Tensor::param(NdArray::from_vec(vec![2], vec![1., 2.])),
            },
            b: Leaf {
                w: Tensor::param(NdArray::from_vec(vec![2], vec![3., 4.])),
            },
        };
        let sd = p.state_dict();
        let names: Vec<&str> = sd.names().collect();
        assert_eq!(names, vec!["a.w", "b.w"]);
        assert_eq!(p.num_parameters(), 4);

        let q = Pair {
            a: Leaf {
                w: Tensor::param(NdArray::zeros(vec![2])),
            },
            b: Leaf {
                w: Tensor::param(NdArray::zeros(vec![2])),
            },
        };
        q.load_state_dict(&sd);
        assert_eq!(q.a.w.value().data(), &[1., 2.]);
        assert_eq!(q.b.w.value().data(), &[3., 4.]);
    }

    #[test]
    fn contexts() {
        let mut t = TrainContext::train(3);
        assert!(t.training);
        let _: f32 = slime_rng::Rng::gen(&mut t.rng);
        let e = TrainContext::eval();
        assert!(!e.training);
    }
}
