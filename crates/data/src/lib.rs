//! # reduce-data
//!
//! Seeded synthetic datasets for the Reduce (DATE 2023) reproduction.
//!
//! Real CIFAR-10 is not available offline, so the headline experiments use
//! [`synthetic_cifar`] / [`SynthTask`]: a procedurally generated, balanced
//! image-classification task whose difficulty (pixel noise, geometric
//! jitter, label noise) is tuned so a nano-VGG saturates in the low-to-mid
//! 90s — making the paper's 91 % accuracy constraint meaningful. The toy
//! tabular generator [`blobs`] supports fast tests.
//!
//! Everything is deterministic given its seeds.
//!
//! # Examples
//!
//! ```
//! use reduce_data::{synthetic_cifar, SynthImageConfig};
//!
//! # fn main() -> Result<(), reduce_data::DataError> {
//! let data = synthetic_cifar(SynthImageConfig::cifar_like(100, 42))?;
//! let (train, test) = data.split(0.8, 0)?;
//! assert_eq!(train.len() + test.len(), 100);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
// Tests may unwrap/expect freely: a panic there *is* the failure report.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod dataset;
mod synth;
mod toy;

pub use dataset::{DataError, Dataset, Result};
pub use synth::{synthetic_cifar, SynthImageConfig, SynthTask};
pub use toy::blobs;
