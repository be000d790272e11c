//! # reduce-core
//!
//! The **Reduce** framework (Hanif & Shafique, DATE 2023): resilience-driven
//! selection of fault-aware-retraining amounts for fleets of faulty DNN
//! accelerator chips.
//!
//! Fault-aware training (FAT) recovers the accuracy a chip loses to
//! permanent PE faults, but is expensive and must run per chip. Reduce cuts
//! the aggregate cost in three steps:
//!
//! 1. [`ResilienceAnalysis`] (Step ①) — characterise accuracy vs fault rate
//!    vs retraining epochs once, up front (Fig. 2);
//! 2. [`RetrainPolicy::Reduce`] (Step ②) — per chip, interpolate the
//!    [`ResilienceTable`] at the chip's fault rate to pick its epoch budget
//!    ([`Statistic::Max`] is the paper's high-confidence recommendation);
//! 3. [`FatRunner`] / [`FleetEvaluation`] (Step ③) — stream FAT over the
//!    fleet and verify the accuracy constraint (Fig. 3).
//!
//! Each step is one type, and callers chain them directly. The input the
//! paper assumes — a pre-trained DNN — comes from [`Workbench::pretrain`];
//! [`Workbench`] describes the model/task/training setup; the fixed-policy
//! baseline of Zhang et al. is [`RetrainPolicy::Fixed`]. Steps ① and ③
//! both fan out over the shared deterministic executor ([`exec`]): every
//! entry point takes an [`exec::ExecConfig`] choosing the worker count (0 =
//! auto), and results are byte-identical to a sequential run at any thread
//! count. The [`telemetry`] module observes the whole pipeline — typed
//! events, run logs, metrics, and per-run manifests.
//!
//! # Examples
//!
//! ```
//! use reduce_core::exec::ExecConfig;
//! use reduce_core::{
//!     FatRunner, FleetEvaluation, ResilienceAnalysis, ResilienceConfig, RetrainPolicy,
//!     SeededChips, Statistic, Workbench,
//! };
//! use reduce_systolic::{FaultModel, FleetConfig, RateDistribution};
//!
//! # fn main() -> Result<(), reduce_core::ReduceError> {
//! // A fast tabular workbench (tests & doc builds); see Workbench::paper_scale
//! // for the nano-VGG image setup.
//! let exec = ExecConfig::default(); // sequential; ExecConfig::auto() fans out
//! let workbench = Workbench::toy(7);
//! let pretrained = workbench.pretrain(10)?;
//! let runner = FatRunner::new(workbench)?;
//! // Step 1: characterise once.
//! let grid = ResilienceConfig::builder()
//!     .fault_rates(vec![0.0, 0.15])
//!     .max_epochs(4)
//!     .repeats(1)
//!     .constraint(0.88)
//!     .seed(1)
//!     .build()?;
//! let table = ResilienceAnalysis::run(&runner, &pretrained, grid, &exec)?.table();
//! // Steps 2+3: pick each chip's budget from the table and retrain it.
//! // Chips stream from the seeded fleet on demand, one id at a time.
//! let fleet = SeededChips::new(FleetConfig {
//!     chips: 2,
//!     rows: 8,
//!     cols: 8,
//!     rates: RateDistribution::Uniform { lo: 0.0, hi: 0.15 },
//!     model: FaultModel::Random,
//!     seed: 2,
//! });
//! let report = FleetEvaluation::new(RetrainPolicy::Reduce(Statistic::Max), 0.88)
//!     .source(&fleet)
//!     .table(&table)
//!     .exec(&exec)
//!     .run(&runner, &pretrained)?;
//! assert_eq!(report.evaluated, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
// Tests may unwrap/expect freely: a panic there *is* the failure report.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
mod error;
pub mod exec;
mod fat;
mod fleet;
mod journal;
mod policy;
pub mod report;
mod resilience;
pub mod telemetry;
mod workbench;

pub use error::{CorruptKind, ReduceError, Result};
pub use exec::ExecConfig;
pub use fat::{FatOutcome, FatRunner, Mitigation, StopRule};
pub use fleet::{
    ChipOutcome, ChipSource, FleetEvaluation, FleetReport, FleetStrategy, QuarantinedChip,
    SealedChip, SeededChips,
};
pub use journal::{
    inspect_journal, repair_journal, Checkpoint, IoStats, JournalHealth, JournalRecord,
    JournalStatus, RepairSummary, DEFAULT_SHARD_RECORDS,
};
pub use policy::RetrainPolicy;
pub use resilience::{
    FailedPoint, RateSummary, ResilienceAnalysis, ResilienceConfig, ResilienceConfigBuilder,
    ResiliencePoint, ResilienceTable, Selection, Statistic, TableEntry,
};
pub use workbench::{ModelSpec, OptimSpec, Pretrained, TaskSpec, TrainSpec, Workbench};
