//! # reduce-nn
//!
//! A layer-based neural-network training framework with manual
//! backpropagation — the PyTorch substitute for the Reduce (DATE 2023)
//! reproduction.
//!
//! The crate provides:
//!
//! * [`layers`] — `Linear`, `Conv2d`, `Relu`, `MaxPool2d`, `BatchNorm2d`,
//!   `Flatten`; every layer implements exact forward/backward passes
//!   verified against finite differences;
//! * [`Sequential`] — the model container with copy-on-write state dicts
//!   and **fault masks** on its GEMM weight matrices (the hook fault-aware
//!   training uses);
//! * [`CrossEntropyLoss`] over class labels, [`Sgd`]/[`Adam`]
//!   (mask-projecting optimizers) and an epoch-granular [`Trainer`];
//! * [`models`] — VGG11 (paper topology, configurable width) and MLPs.
//!
//! # Examples
//!
//! ```
//! use reduce_nn::{evaluate, models, CrossEntropyLoss, Sgd, TrainConfig, Trainer};
//! use reduce_tensor::Tensor;
//!
//! # fn main() -> Result<(), reduce_nn::NnError> {
//! let mut model = models::mlp(&[2, 16, 2], 0)?;
//! let x = Tensor::rand_uniform([32, 2], -1.0, 1.0, 1);
//! let labels: Vec<usize> = x
//!     .data()
//!     .chunks(2)
//!     .map(|p| usize::from(p[0] + p[1] > 0.0))
//!     .collect();
//! let mut trainer = Trainer::new(Sgd::new(0.1), CrossEntropyLoss, TrainConfig::default());
//! trainer.fit(&mut model, &x, &labels, 3)?;
//! let stats = evaluate(&mut model, &CrossEntropyLoss, &x, &labels, 32)?;
//! assert!((0.0..=1.0).contains(&stats.accuracy));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
// Tests may unwrap/expect freely: a panic there *is* the failure report.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod error;
mod init;
pub mod layers;
mod loss;
mod metrics;
mod model;
pub mod models;
mod optim;
mod param;
mod scheduler;
mod trainer;
mod workspace;

pub use error::{NnError, Result};
pub use init::Init;
pub use loss::{CrossEntropyLoss, Loss, LossOutput, Target};
pub use metrics::accuracy;
pub use model::Sequential;
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Parameter;
pub use scheduler::LrSchedule;
pub use trainer::{evaluate, EvalStats, TrainConfig, Trainer};
pub use workspace::{Workspace, WorkspaceStats};
