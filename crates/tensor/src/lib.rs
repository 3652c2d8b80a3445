//! # slime-tensor
//!
//! A reverse-mode autodiff tensor engine in pure Rust, built for the
//! SLIME4Rec reproduction. It plays the role PyTorch plays in the paper:
//! `f32` dense tensors, a dynamic tape, an op library sized for sequential
//! recommenders (matmuls, attention pieces, layer norm, embeddings,
//! dropout, losses), Adam/SGD optimizers, and — the part specific to this
//! paper — a fused [`ops::spectral_filter_mix`] op implementing the
//! frequency-domain filter mixer with a hand-derived adjoint.
//!
//! ## Quick example
//!
//! ```
//! use slime_tensor::{ops, NdArray, Tensor};
//!
//! let w = Tensor::param(NdArray::from_vec(vec![2, 1], vec![0.0, 0.0]));
//! let x = Tensor::constant(NdArray::from_vec(vec![3, 2], vec![1., 0., 0., 1., 1., 1.]));
//! let target = Tensor::constant(NdArray::from_vec(vec![3, 1], vec![1., 2., 3.]));
//! let diff = ops::sub(&ops::matmul(&x, &w), &target);
//! let loss = ops::mean_all(&ops::mul(&diff, &diff));
//! loss.backward();
//! assert!(w.grad().is_some());
//! ```

pub mod fusion;
pub mod gradcheck;
pub mod init;
mod ndarray;
pub mod ops;
pub mod optim;
pub mod plan;
pub mod pool;
pub mod quant;
pub mod serialize;
pub mod simd;
mod tensor;

pub use ndarray::{contiguous_strides, numel, NdArray};
pub use serialize::{ArrayRecord, CheckpointError, StateDict};
pub use tensor::{nodes_allocated, Op, Tensor};
