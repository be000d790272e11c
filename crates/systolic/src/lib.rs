//! # reduce-systolic
//!
//! A weight-stationary systolic-array DNN accelerator model with permanent
//! faults — the hardware substrate of the Reduce (DATE 2023) reproduction.
//!
//! The crate models the FAP-equipped accelerator of Zhang et al. (VTS'18)
//! that the paper evaluates on:
//!
//! * [`FaultMap`] — per-PE permanent-fault maps with random (paper) and
//!   clustered (extension) generators;
//! * [`fap_mask`] — the Fault-Aware-Pruning semantics: the periodic
//!   structured-pruning mask a fault map induces on a layer's GEMM weights;
//! * [`fam_mapping`] — SalvageDNN-style saliency-driven fault-aware mapping
//!   (the stronger mitigation baseline);
//! * [`SystolicArray`] — a functional bypass-level emulator used as the
//!   oracle for the mask semantics;
//! * [`CostModel`] — cycle/energy accounting for inference and retraining;
//! * [`Chip`]/[`generate_chip`] — the chips of a seeded fleet, generated
//!   one id at a time;
//! * [`fault_map_distance`]/[`cluster_fault_maps`] — fault-map similarity
//!   and deterministic chip clustering for eFAT-style shared retraining.
//!
//! # Examples
//!
//! ```
//! use reduce_systolic::{fap_mask, FaultMap, FaultModel};
//!
//! # fn main() -> Result<(), reduce_systolic::SystolicError> {
//! // A 256x256 array with 2% of PEs faulty, as in the paper.
//! let map = FaultMap::generate(256, 256, 0.02, FaultModel::Random, 7)?;
//! // The pruning mask it induces on a conv layer's (64, 576) GEMM weights.
//! let mask = fap_mask(64, 576, &map)?;
//! assert!(mask.sparsity() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
// Tests may unwrap/expect freely: a panic there *is* the failure report.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod array;
mod chip;
mod cluster;
mod dataflow;
mod error;
mod fault;
mod mapping;
mod perf;
mod quant;

pub use array::SystolicArray;
pub use chip::{chip_rate, generate_chip, Chip, FleetConfig, RateDistribution};
pub use cluster::{cluster_fault_maps, fault_map_distance, Cluster, ClusterConfig};
pub use dataflow::{simulate_tiled_gemm, DataflowOutput, DataflowSim};
pub use error::{Result, SystolicError};
pub use fault::{FaultMap, FaultModel};
pub use mapping::{
    affected_weights, fam_mapping, fap_mask, pruned_fraction, saliency_loss, stuck_at_weights,
    FamMapping,
};
pub use perf::CostModel;
pub use quant::{quantized_gemm_nt, QuantParams, QuantizedTensor};
