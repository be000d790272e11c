//! # reduce-tensor
//!
//! Dense `f32` tensor library underpinning the Reduce (DATE 2023)
//! reproduction. It provides exactly the numeric substrate a CPU
//! reimplementation of fault-aware DNN retraining needs:
//!
//! * [`Tensor`] — contiguous row-major storage with seeded random
//!   initialisers, elementwise maps and reductions;
//! * [`Shape`] — rank/volume/stride arithmetic with typed errors;
//! * [`ops`] — cache-blocked GEMM kernels (plain, `AᵀB`, `ABᵀ`), im2col/
//!   col2im convolution lowering, pooling with exact adjoints, and stable
//!   softmax kernels.
//!
//! Every stochastic constructor takes an explicit seed so experiments built
//! on top are bit-reproducible.
//!
//! # Examples
//!
//! ```
//! use reduce_tensor::{ops, Tensor};
//!
//! # fn main() -> Result<(), reduce_tensor::TensorError> {
//! // A tiny dense layer: y = x·Wᵀ + b
//! let x = Tensor::rand_uniform([4, 3], -1.0, 1.0, 0);
//! let w = Tensor::rand_uniform([2, 3], -1.0, 1.0, 1);
//! let b = Tensor::zeros([2]);
//! let mut y = ops::matmul_nt(&x, &w)?;
//! ops::add_bias_rows_in_place(&mut y, &b)?;
//! assert_eq!(y.dims(), &[4, 2]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
// Tests may unwrap/expect freely: a panic there *is* the failure report.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod error;
pub mod ops;
mod shape;
mod tensor;

pub use error::{Result, TensorError};
pub use shape::Shape;
pub use tensor::Tensor;
