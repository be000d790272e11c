//! Step ③ at fleet scale — streaming evaluation of chip populations under
//! a retraining policy (the data behind Fig. 3).
//!
//! The evaluator is built for fleets of 10⁴–10⁶ chips, far beyond what a
//! materialised `Vec<Chip>` + `Vec<FatOutcome>` pipeline can hold:
//!
//! * **Intake** is a [`ChipSource`] — chips are pulled on demand by id
//!   ([`SeededChips`] regenerates them from the fleet seed), never stored.
//! * **Scheduling** walks the fleet in fixed windows; within a window the
//!   epoch-budget scheduler groups chips by the budget the policy selects
//!   for them, so a batch of same-budget chips shares one pooled model
//!   workspace (only the first chip of a batch pays warm-up allocations).
//! * **Accounting** streams into a constant-size [`FleetReport`]: counts,
//!   epoch-spend histogram and running min/mean/max — per-chip
//!   [`ChipOutcome`]s are only kept when
//!   [`FleetEvaluation::collect_outcomes`] asks for them.
//! * **Checkpointing** journals one [`crate::journal::JournalRecord::FleetBatch`]
//!   per sealed batch; batch composition is a pure function of the config,
//!   so a resumed run recomputes the same batches, replays the sealed ones
//!   bit-identically, and runs only the missing ones.
//!
//! Everything is keyed on stable chip ids, so reports and telemetry are
//! byte-identical across thread counts and across kill-and-resume.

use crate::error::{ReduceError, Result};
use crate::exec::{self, ExecConfig, JobStatus};
use crate::fat::{FatRunner, Mitigation, StopRule};
use crate::journal::{Checkpoint, JournalRecord};
use crate::policy::RetrainPolicy;
use crate::resilience::ResilienceTable;
use crate::telemetry::{self, EpochScope, Event, Stage};
use crate::workbench::Pretrained;
use reduce_nn::{Workspace, WorkspaceStats};
use reduce_systolic::{
    chip_rate, cluster_fault_maps, generate_chip, Chip, Cluster, ClusterConfig, CostModel,
    FaultMap, FleetConfig,
};
use reduce_tensor::Tensor;

/// A model's named-parameter snapshot (`state_dict()` order) — the
/// warm-start payload a cluster representative donates to its members.
type ModelState = Vec<(String, Tensor)>;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// The outcome of retraining one chip under a policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipOutcome {
    /// Chip identifier.
    pub chip_id: usize,
    /// The chip's fault rate (fraction of faulty PEs).
    pub fault_rate: f64,
    /// Epochs the policy budgeted for this chip.
    pub epochs_budgeted: usize,
    /// Epochs actually executed (equals the budget under
    /// [`StopRule::Exact`]).
    pub epochs_run: usize,
    /// Test accuracy after masking, before retraining.
    pub pre_retrain_accuracy: f32,
    /// Deployed (post-FAT) test accuracy.
    pub final_accuracy: f32,
    /// Whether the deployed accuracy meets the constraint.
    pub meets_constraint: bool,
    /// Fraction of GEMM weights the chip's faults pruned.
    pub pruned_fraction: f32,
    /// Whether the chip's fault rate fell outside the characterised range.
    pub clamped: bool,
    /// Whether the chip warm-started from a cluster representative's
    /// converged state instead of the pretrained baseline
    /// ([`FleetStrategy::Clustered`]). Defaults to `false` when absent so
    /// records written before the eFAT extension still deserialize.
    #[serde(default)]
    pub warm_started: bool,
}

/// A chip whose FAT run exhausted its retry budget and was quarantined.
///
/// Quarantined chips are excluded from every aggregate statistic — a
/// handful of failing chips must not abort (or silently skew) the rest of
/// the fleet's evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedChip {
    /// Chip identifier.
    pub chip_id: usize,
    /// The chip's fault rate.
    pub fault_rate: f64,
    /// Attempts consumed (retry budget + 1).
    pub attempts: u32,
    /// The final attempt's error.
    pub error: String,
}

/// Containment status of one chip in a [`FleetReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChipStatus {
    /// The chip was retrained and contributes to the aggregates.
    Ok,
    /// The chip exhausted its retry budget and was quarantined.
    Quarantined,
}

/// One chip's sealed fate inside an evaluated batch: the unit the fleet
/// journal records and the report accumulator absorbs.
#[derive(Debug, Clone, PartialEq)]
pub enum SealedChip {
    /// The chip was retrained (successfully or not w.r.t. the constraint).
    Retrained(ChipOutcome),
    /// The chip exhausted its retry budget.
    Quarantined(QuarantinedChip),
}

impl SealedChip {
    /// The chip's identifier.
    pub fn chip_id(&self) -> usize {
        match self {
            SealedChip::Retrained(c) => c.chip_id,
            SealedChip::Quarantined(q) => q.chip_id,
        }
    }

    /// The chip's containment status.
    pub fn status(&self) -> ChipStatus {
        match self {
            SealedChip::Retrained(_) => ChipStatus::Ok,
            SealedChip::Quarantined(_) => ChipStatus::Quarantined,
        }
    }
}

/// How the epoch-budget scheduler shares retraining across a batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FleetStrategy {
    /// Every chip runs FAT from the pretrained baseline — the paper's
    /// Step ③ and the default.
    #[default]
    PerChip,
    /// eFAT (arXiv:2304.12949): chips in a batch are clustered by
    /// fault-map similarity; each cluster's highest-fault representative
    /// runs FAT from the pretrained baseline and the members warm-start
    /// from its converged state. The whole pipeline is constraint-aware —
    /// every chip stops the moment it meets the constraint (eFAT computes
    /// the *required* retraining, where Reduce spends the selected budget
    /// open-loop) — and the policy budget stays the upper bound.
    Clustered(ClusterConfig),
}

/// A source of chips addressed by stable id — the streaming intake of the
/// fleet evaluator.
///
/// Implementations must be pure: `chip(id)` returns the same chip every
/// call (the evaluator may re-pull a chip on retry or resume), and
/// `fault_rate(id)` equals `chip(id)?.fault_rate()`. Slices satisfy this
/// trivially; [`SeededChips`] regenerates chips from the fleet seed so a
/// 10⁶-chip fleet never exists in memory at once.
pub trait ChipSource: Sync {
    /// Number of chips in the fleet.
    fn len(&self) -> usize;

    /// Whether the fleet is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialises chip `id`.
    ///
    /// # Errors
    ///
    /// Implementation-defined; ids in `0..len()` must succeed on a valid
    /// source.
    fn chip(&self, id: usize) -> Result<Chip>;

    /// The fault rate of chip `id` — ideally without materialising the
    /// chip (the scheduler calls this for every chip in a window before
    /// running any of them).
    ///
    /// # Errors
    ///
    /// Same domain as [`ChipSource::chip`].
    fn fault_rate(&self, id: usize) -> Result<f64> {
        Ok(self.chip(id)?.fault_rate())
    }
}

impl ChipSource for [Chip] {
    fn len(&self) -> usize {
        <[Chip]>::len(self)
    }

    fn chip(&self, id: usize) -> Result<Chip> {
        let chip = self.get(id).ok_or_else(|| ReduceError::InvalidConfig {
            what: format!(
                "chip id {id} outside fleet of {} chips",
                <[Chip]>::len(self)
            ),
        })?;
        if chip.id() != id {
            return Err(ReduceError::InvalidConfig {
                what: format!(
                    "slice chip sources must be in id order (found chip {} at index {id})",
                    chip.id()
                ),
            });
        }
        Ok(chip.clone())
    }

    fn fault_rate(&self, id: usize) -> Result<f64> {
        self.get(id)
            .map(Chip::fault_rate)
            .ok_or_else(|| ReduceError::InvalidConfig {
                what: format!(
                    "chip id {id} outside fleet of {} chips",
                    <[Chip]>::len(self)
                ),
            })
    }
}

impl ChipSource for &[Chip] {
    fn len(&self) -> usize {
        ChipSource::len(&**self)
    }

    fn chip(&self, id: usize) -> Result<Chip> {
        ChipSource::chip(&**self, id)
    }

    fn fault_rate(&self, id: usize) -> Result<f64> {
        ChipSource::fault_rate(&**self, id)
    }
}

impl ChipSource for Vec<Chip> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn chip(&self, id: usize) -> Result<Chip> {
        ChipSource::chip(self.as_slice(), id)
    }

    fn fault_rate(&self, id: usize) -> Result<f64> {
        ChipSource::fault_rate(self.as_slice(), id)
    }
}

/// A [`ChipSource`] that regenerates each chip on demand from a
/// [`FleetConfig`] seed ([`reduce_systolic::generate_chip`]), so the fleet
/// is never materialised: the intake primitive behind
/// `fig3 --fleet-size 100000`.
#[derive(Debug, Clone)]
pub struct SeededChips {
    config: FleetConfig,
}

impl SeededChips {
    /// A streaming view of the fleet `config` describes.
    pub fn new(config: FleetConfig) -> Self {
        SeededChips { config }
    }

    /// The underlying fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }
}

impl ChipSource for SeededChips {
    fn len(&self) -> usize {
        self.config.chips
    }

    fn chip(&self, id: usize) -> Result<Chip> {
        Ok(generate_chip(&self.config, id)?)
    }

    fn fault_rate(&self, id: usize) -> Result<f64> {
        // The rate draw alone — no fault map is generated, so scheduling a
        // window costs O(window) RNG seeds, not O(window) fault maps.
        Ok(chip_rate(&self.config, id)?)
    }
}

/// Aggregate results of retraining a fleet under one policy.
///
/// The report is constant-size by construction — counts, a histogram and
/// streaming extrema — so evaluating 10⁶ chips needs no per-chip memory.
/// Per-chip [`ChipOutcome`]s appear in [`FleetReport::outcomes`] only when
/// [`FleetEvaluation::collect_outcomes`] requested them.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Policy label (for tables/figures).
    pub policy: String,
    /// The accuracy constraint evaluated against.
    pub constraint: f32,
    /// Number of successfully retrained chips (quarantined chips are
    /// counted separately).
    pub evaluated: usize,
    /// Chips quarantined after exhausting the retry budget, in scheduler
    /// order. Empty on a clean run.
    pub quarantined: Vec<QuarantinedChip>,
    /// Total retraining epochs spent across the fleet — the paper's
    /// overhead metric.
    pub total_epochs: usize,
    /// Number of chips meeting the constraint — the paper's robustness
    /// metric.
    pub satisfied: usize,
    /// Mean deployed accuracy (f64-accumulated in scheduler order).
    pub mean_accuracy: f32,
    /// Worst deployed accuracy.
    pub min_accuracy: f32,
    /// Best deployed accuracy.
    pub max_accuracy: f32,
    /// Epoch-spend histogram: `epochs_run → chips` — the streaming
    /// replacement for walking per-chip outcomes.
    pub epoch_histogram: BTreeMap<usize, usize>,
    /// Estimated retraining cycles on the accelerator (cost-model based),
    /// if a cost model was supplied.
    pub retrain_cycles: Option<u64>,
    /// Fault-similarity clusters formed across all batches (0 for
    /// [`FleetStrategy::PerChip`] runs).
    pub clusters: usize,
    /// Chips that warm-started from a cluster representative.
    pub warm_started: usize,
    /// Epochs the warm-started chips left unspent of their policy budgets
    /// — the eFAT savings metric (Σ budgeted − run over warm chips).
    pub warm_start_epochs_saved: usize,
    /// Per-chip outcomes in scheduler order, present only when
    /// [`FleetEvaluation::collect_outcomes`] was enabled — the one opt-in
    /// path back to O(fleet) memory.
    pub outcomes: Option<Vec<ChipOutcome>>,
}

impl FleetReport {
    /// Fraction of retrained chips meeting the constraint.
    pub fn yield_fraction(&self) -> f32 {
        if self.evaluated == 0 {
            return 0.0;
        }
        self.satisfied as f32 / self.evaluated as f32
    }

    /// Mean epochs per retrained chip.
    pub fn mean_epochs(&self) -> f32 {
        if self.evaluated == 0 {
            return 0.0;
        }
        self.total_epochs as f32 / self.evaluated as f32
    }

    /// Chip counts per containment status — the constant-size summary
    /// that replaced the per-chip status listing.
    pub fn status_counts(&self) -> [(ChipStatus, usize); 2] {
        [
            (ChipStatus::Ok, self.evaluated),
            (ChipStatus::Quarantined, self.quarantined.len()),
        ]
    }

    /// Number of chips quarantined after exhausting the retry budget.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }
}

/// One chip's slot in a scheduled batch.
#[derive(Debug, Clone)]
struct ChipPlan {
    id: usize,
    budget: usize,
    clamped: bool,
}

/// One scheduled batch: same-budget chips of one intake window sharing a
/// pooled workspace. `(window, budget, chunk)` is the batch's stable
/// identity in the journal.
#[derive(Debug, Clone)]
struct BatchPlan {
    window: usize,
    budget: usize,
    chunk: usize,
    members: Vec<ChipPlan>,
}

/// The sealed output of one batch, fresh or replayed.
struct BatchResult {
    clusters: Vec<Cluster>,
    chips: Vec<SealedChip>,
    workspace: WorkspaceStats,
    events: Vec<Event>,
}

/// Streaming accumulator behind [`FleetReport`] — absorbs sealed chips
/// one at a time in scheduler order.
struct ReportAccumulator {
    evaluated: usize,
    quarantined: Vec<QuarantinedChip>,
    total_epochs: usize,
    satisfied: usize,
    accuracy_sum: f64,
    min_accuracy: f32,
    max_accuracy: f32,
    epoch_histogram: BTreeMap<usize, usize>,
    clusters: usize,
    warm_started: usize,
    warm_start_epochs_saved: usize,
    outcomes: Option<Vec<ChipOutcome>>,
}

impl ReportAccumulator {
    fn new(collect_outcomes: bool) -> Self {
        ReportAccumulator {
            evaluated: 0,
            quarantined: Vec::new(),
            total_epochs: 0,
            satisfied: 0,
            accuracy_sum: 0.0,
            min_accuracy: f32::INFINITY,
            max_accuracy: f32::NEG_INFINITY,
            epoch_histogram: BTreeMap::new(),
            clusters: 0,
            warm_started: 0,
            warm_start_epochs_saved: 0,
            outcomes: collect_outcomes.then(Vec::new),
        }
    }

    fn absorb(&mut self, sealed: SealedChip) -> Result<()> {
        match sealed {
            SealedChip::Retrained(c) => {
                // FAT runs guard this at the source; re-check here so a
                // hand-edited journal can't slip a NaN into the
                // aggregates, where it would poison the mean and vanish
                // in `min` comparisons.
                if !c.final_accuracy.is_finite() {
                    return Err(ReduceError::Divergence {
                        what: format!("chip {} final accuracy is {}", c.chip_id, c.final_accuracy),
                    });
                }
                self.evaluated += 1;
                self.total_epochs += c.epochs_run;
                if c.meets_constraint {
                    self.satisfied += 1;
                }
                self.accuracy_sum += f64::from(c.final_accuracy);
                self.min_accuracy = self.min_accuracy.min(c.final_accuracy);
                self.max_accuracy = self.max_accuracy.max(c.final_accuracy);
                *self.epoch_histogram.entry(c.epochs_run).or_insert(0) += 1;
                if c.warm_started {
                    self.warm_started += 1;
                    self.warm_start_epochs_saved += c.epochs_budgeted.saturating_sub(c.epochs_run);
                }
                if let Some(outcomes) = &mut self.outcomes {
                    outcomes.push(c);
                }
            }
            SealedChip::Quarantined(q) => self.quarantined.push(q),
        }
        Ok(())
    }

    fn finish(self, policy: String, constraint: f32, retrain_cycles: Option<u64>) -> FleetReport {
        let mean_accuracy = if self.evaluated == 0 {
            0.0
        } else {
            (self.accuracy_sum / self.evaluated as f64) as f32
        };
        FleetReport {
            policy,
            constraint,
            evaluated: self.evaluated,
            quarantined: self.quarantined,
            total_epochs: self.total_epochs,
            satisfied: self.satisfied,
            mean_accuracy,
            min_accuracy: if self.min_accuracy.is_finite() {
                self.min_accuracy
            } else {
                0.0
            },
            max_accuracy: if self.max_accuracy.is_finite() {
                self.max_accuracy
            } else {
                0.0
            },
            epoch_histogram: self.epoch_histogram,
            retrain_cycles,
            clusters: self.clusters,
            warm_started: self.warm_started,
            warm_start_epochs_saved: self.warm_start_epochs_saved,
            outcomes: self.outcomes,
        }
    }
}

/// Builder for a streaming fleet evaluation — the single entry point that
/// replaced `evaluate_fleet` / `evaluate_fleet_resumable`.
///
/// # Examples
///
/// ```
/// use reduce_core::exec::ExecConfig;
/// use reduce_core::{FatRunner, FleetEvaluation, RetrainPolicy, SeededChips, Workbench};
/// use reduce_systolic::{FaultModel, FleetConfig, RateDistribution};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let workbench = Workbench::toy(1);
/// let pretrained = workbench.pretrain(5)?;
/// let runner = FatRunner::new(workbench)?;
/// let chips = SeededChips::new(FleetConfig {
///     chips: 3,
///     rows: 8,
///     cols: 8,
///     rates: RateDistribution::Fixed(0.1),
///     model: FaultModel::Random,
///     seed: 2,
/// });
/// let exec = ExecConfig::default();
/// let report = FleetEvaluation::new(RetrainPolicy::Fixed(1), 0.8)
///     .source(&chips)
///     .exec(&exec)
///     .run(&runner, &pretrained)?;
/// assert_eq!(report.total_epochs, 3);
/// # Ok(())
/// # }
/// ```
pub struct FleetEvaluation<'a> {
    policy: RetrainPolicy,
    constraint: f32,
    source: Option<&'a dyn ChipSource>,
    table: Option<&'a ResilienceTable>,
    strategy: Mitigation,
    fleet_strategy: FleetStrategy,
    early_stop: bool,
    cost_model: Option<CostModel>,
    seed: u64,
    window: usize,
    batch_cap: usize,
    journal: Option<&'a Checkpoint>,
    exec: Option<&'a ExecConfig>,
    collect_outcomes: bool,
}

impl<'a> FleetEvaluation<'a> {
    /// Default chips per intake window: the upper bound on scheduling
    /// state held at once.
    pub const DEFAULT_WINDOW: usize = 1024;

    /// Default chips per executor batch: bounds both a worker's pooled
    /// workspace lifetime and the size of one journal record.
    pub const DEFAULT_BATCH_CAP: usize = 32;

    /// A plain-FAP evaluation of `policy` against `constraint`; configure
    /// the rest with the builder methods and launch with
    /// [`FleetEvaluation::run`].
    pub fn new(policy: RetrainPolicy, constraint: f32) -> Self {
        FleetEvaluation {
            policy,
            constraint,
            source: None,
            table: None,
            strategy: Mitigation::Fap,
            fleet_strategy: FleetStrategy::PerChip,
            early_stop: false,
            cost_model: None,
            seed: 0xF1EE7,
            window: Self::DEFAULT_WINDOW,
            batch_cap: Self::DEFAULT_BATCH_CAP,
            journal: None,
            exec: None,
            collect_outcomes: false,
        }
    }

    /// The chip intake (required).
    #[must_use]
    pub fn source(mut self, source: &'a dyn ChipSource) -> Self {
        self.source = Some(source);
        self
    }

    /// The characterised resilience table (required by the Reduce
    /// policies, unused by Fixed).
    #[must_use]
    pub fn table(mut self, table: &'a ResilienceTable) -> Self {
        self.table = Some(table);
        self
    }

    /// Mitigation strategy (FAP per the paper; FAM as ablation).
    #[must_use]
    pub fn strategy(mut self, strategy: Mitigation) -> Self {
        self.strategy = strategy;
        self
    }

    /// Retraining-sharing strategy: per-chip FAT (the paper's Step ③,
    /// the default) or eFAT clustered warm-starting
    /// ([`FleetStrategy::Clustered`]). Clustered runs get a distinct
    /// policy label (`"… + eFAT"`), so their journal batches never
    /// collide with a per-chip run of the same policy.
    #[must_use]
    pub fn fleet_strategy(mut self, fleet_strategy: FleetStrategy) -> Self {
        self.fleet_strategy = fleet_strategy;
        self
    }

    /// Stop each chip's FAT as soon as its test accuracy reaches the
    /// constraint instead of spending the whole budget (the early-stop
    /// extension, ablation A5). The paper's Step ③ spends the budget
    /// exactly, so this defaults to `false`.
    #[must_use]
    pub fn early_stop(mut self, early_stop: bool) -> Self {
        self.early_stop = early_stop;
        self
    }

    /// Accelerator cost model for cycle accounting.
    #[must_use]
    pub fn cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = Some(cost_model);
        self
    }

    /// Per-chip run-seed base (decorrelates shuffling across chips).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Chips per intake window (defaults to
    /// [`FleetEvaluation::DEFAULT_WINDOW`]); must be non-zero.
    #[must_use]
    pub fn window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Maximum chips per scheduled batch (defaults to
    /// [`FleetEvaluation::DEFAULT_BATCH_CAP`]); must be non-zero.
    #[must_use]
    pub fn batch_cap(mut self, batch_cap: usize) -> Self {
        self.batch_cap = batch_cap;
        self
    }

    /// Checkpoint journal for crash recovery: every sealed batch is
    /// appended, and batches already journaled under this policy are
    /// replayed bit-identically instead of re-run.
    #[must_use]
    pub fn journal(mut self, journal: &'a Checkpoint) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Executor configuration (threads, observer, retries, chaos);
    /// defaults to the sequential [`ExecConfig::default`].
    #[must_use]
    pub fn exec(mut self, exec: &'a ExecConfig) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Also collect per-chip [`ChipOutcome`]s into
    /// [`FleetReport::outcomes`] — the explicit opt-in to O(fleet) memory
    /// that per-chip tables and CSVs need.
    #[must_use]
    pub fn collect_outcomes(mut self, collect: bool) -> Self {
        self.collect_outcomes = collect;
        self
    }

    fn validated(&self) -> Result<&'a dyn ChipSource> {
        let reject = |what: String| ReduceError::InvalidConfig {
            what: format!("fleet evaluation rejected: {what}"),
        };
        let source = self
            .source
            .ok_or_else(|| reject("no chip source configured (call .source())".to_string()))?;
        if source.is_empty() {
            return Err(reject("empty fleet (zero chips)".to_string()));
        }
        if self.window == 0 {
            return Err(reject("zero intake window".to_string()));
        }
        if self.batch_cap == 0 {
            return Err(reject("zero batch cap".to_string()));
        }
        if !self.constraint.is_finite() || !(0.0..=1.0).contains(&self.constraint) {
            return Err(reject(format!(
                "constraint {} not in [0, 1]",
                self.constraint
            )));
        }
        if let FleetStrategy::Clustered(config) = &self.fleet_strategy {
            config
                .validate()
                .map_err(|e| reject(format!("invalid cluster config: {e}")))?;
        }
        Ok(source)
    }

    /// The evaluation's label: the policy label, suffixed for clustered
    /// runs. This is the key reports and journal batches carry.
    fn label(&self) -> String {
        match self.fleet_strategy {
            FleetStrategy::PerChip => self.policy.label(),
            FleetStrategy::Clustered(_) => format!("{} + eFAT", self.policy.label()),
        }
    }

    /// Retrains the whole fleet under the configured policy and streams
    /// the aggregate statistics of Fig. 3.
    ///
    /// Batches are distributed over `exec.threads` workers on the shared
    /// deterministic executor ([`crate::exec`]); outcomes are stitched
    /// back in scheduler order (window-major, then ascending budget,
    /// chunk and chip id), so the report and the flushed telemetry are
    /// byte-identical at any thread count and across resume splits.
    /// `exec`'s observer receives a `Deploy` stage pair plus per-epoch
    /// ticks and one [`Event::ChipRetrained`] per chip.
    ///
    /// # Errors
    ///
    /// [`ReduceError::InvalidConfig`] for a rejected configuration
    /// (missing source, empty fleet, zero window or batch cap, constraint
    /// outside `[0, 1]`, or a Reduce policy without a table), and
    /// propagates chip-generation and checkpoint-write failures. A chip
    /// whose FAT run fails or panics is retried up to
    /// `exec.retry_budget()` times with a deterministically derived
    /// reseed and then *quarantined* into [`FleetReport::quarantined`] —
    /// never fatal to the rest of the fleet.
    pub fn run(&self, runner: &FatRunner, pretrained: &Pretrained) -> Result<FleetReport> {
        let source = self.validated()?;
        let default_exec;
        let exec = match self.exec {
            Some(exec) => exec,
            None => {
                default_exec = ExecConfig::default();
                &default_exec
            }
        };
        let policy_label = self.label();
        let n = source.len();

        // Index the journal's batch records under this evaluation's label.
        let mut replayed: BTreeMap<(usize, usize, usize), JournalRecord> = BTreeMap::new();
        if let Some(cp) = self.journal {
            for record in cp.records()? {
                if let Some((policy, window, budget, chunk)) = record.batch_key() {
                    if policy == policy_label {
                        replayed.insert((window, budget, chunk), record);
                    }
                }
            }
        }

        let accumulator = telemetry::timed_stage(exec.observer(), Stage::Deploy, || {
            let mut acc = ReportAccumulator::new(self.collect_outcomes);
            let mut stage_ws = WorkspaceStats::default();
            let mut window_index = 0usize;
            let mut start = 0usize;
            while start < n {
                let end = (start + self.window).min(n);
                let plans = self.schedule_window(source, window_index, start..end)?;
                self.run_window(
                    runner,
                    pretrained,
                    source,
                    exec,
                    &policy_label,
                    &plans,
                    &replayed,
                    &mut acc,
                    &mut stage_ws,
                )?;
                window_index += 1;
                start = end;
            }
            exec.observer().on_event(&Event::WorkspaceUsed {
                stage: Stage::Deploy,
                hits: stage_ws.hits,
                misses: stage_ws.misses,
                bytes_allocated: stage_ws.bytes_allocated,
            });
            if self.journal.is_some() {
                exec.observer().on_event(&Event::CheckpointWritten {
                    stage: Stage::Deploy,
                    completed: n,
                });
            }
            Ok::<_, ReduceError>(acc)
        })?;

        let retrain_cycles = match &self.cost_model {
            Some(cm) => {
                let wb = runner.workbench();
                let shapes = wb.model.gemm_shapes(wb.train.batch_size)?;
                let samples = runner.train_data().len();
                let per_epoch = cm.epoch_cycles(&shapes, samples, wb.train.batch_size)?;
                Some(per_epoch * accumulator.total_epochs as u64)
            }
            None => None,
        };
        Ok(accumulator.finish(policy_label, self.constraint, retrain_cycles))
    }

    /// The scheduling pass for one window: select a budget for every chip
    /// (from its fault rate alone — no fault maps are generated), group
    /// by budget, and chunk each group at the batch cap. The result is a
    /// pure function of the config, independent of threads and resume
    /// state — the property batch replay keys on.
    fn schedule_window(
        &self,
        source: &dyn ChipSource,
        window: usize,
        ids: std::ops::Range<usize>,
    ) -> Result<Vec<BatchPlan>> {
        let mut groups: BTreeMap<usize, Vec<ChipPlan>> = BTreeMap::new();
        for id in ids {
            let rate = source.fault_rate(id)?;
            let selection = self.policy.epochs_for_chip(self.table, rate)?;
            groups.entry(selection.epochs).or_default().push(ChipPlan {
                id,
                budget: selection.epochs,
                clamped: selection.clamped,
            });
        }
        let mut plans = Vec::new();
        for (budget, members) in groups {
            for (chunk, slice) in members.chunks(self.batch_cap).enumerate() {
                plans.push(BatchPlan {
                    window,
                    budget,
                    chunk,
                    members: slice.to_vec(),
                });
            }
        }
        Ok(plans)
    }

    /// Executes one window's batches (replaying journaled ones) and
    /// stitches their outputs into the accumulator in scheduler order.
    #[allow(clippy::too_many_arguments)] // internal plumbing of one call site
    fn run_window(
        &self,
        runner: &FatRunner,
        pretrained: &Pretrained,
        source: &dyn ChipSource,
        exec: &ExecConfig,
        policy_label: &str,
        plans: &[BatchPlan],
        replayed: &BTreeMap<(usize, usize, usize), JournalRecord>,
        acc: &mut ReportAccumulator,
        stage_ws: &mut WorkspaceStats,
    ) -> Result<()> {
        // Partition into journal-replayable and fresh batches.
        let fresh: Vec<&BatchPlan> = plans
            .iter()
            .filter(|plan| !replayed.contains_key(&(plan.window, plan.budget, plan.chunk)))
            .collect();
        let fresh_results = exec::parallel_map(&fresh, exec.threads, |_, plan| {
            self.run_batch(runner, pretrained, source, exec, policy_label, plan)
        })?;
        let mut fresh_iter = fresh_results.into_iter();
        for plan in plans {
            let result = if let Some(record) = replayed.get(&(plan.window, plan.budget, plan.chunk))
            {
                replay_batch(record)?
            } else {
                fresh_iter.next().ok_or_else(|| ReduceError::Internal {
                    invariant: "every scheduled batch is either replayed or freshly run"
                        .to_string(),
                })?
            };
            for event in &result.events {
                exec.observer().on_event(event);
            }
            stage_ws.merge(&result.workspace);
            acc.clusters += result.clusters.len();
            for sealed in result.chips {
                acc.absorb(sealed)?;
            }
        }
        Ok(())
    }

    /// Runs one batch of same-budget chips through a shared workspace
    /// pool, seals every chip (retrained or quarantined) and journals the
    /// batch. Runs on an executor worker; all telemetry is buffered into
    /// the result for in-order flushing.
    fn run_batch(
        &self,
        runner: &FatRunner,
        pretrained: &Pretrained,
        source: &dyn ChipSource,
        exec: &ExecConfig,
        policy_label: &str,
        plan: &BatchPlan,
    ) -> Result<BatchResult> {
        let pool = RefCell::new(Workspace::new());
        let (clusters, chips, events) = match &self.fleet_strategy {
            FleetStrategy::PerChip => {
                let mut events = Vec::new();
                let mut chips = Vec::with_capacity(plan.members.len());
                for member in &plan.members {
                    let chip = source.chip(member.id)?;
                    let sealed = self.seal_chip(
                        runner,
                        &pretrained.state,
                        exec,
                        member,
                        &chip,
                        None,
                        &pool,
                        &mut events,
                    )?;
                    chips.push(sealed.0);
                }
                (Vec::new(), chips, events)
            }
            FleetStrategy::Clustered(config) => {
                self.run_clustered_batch(runner, pretrained, source, exec, plan, config, &pool)?
            }
        };
        let workspace = pool.borrow().stats();
        if let Some(cp) = self.journal {
            cp.append(JournalRecord::FleetBatch {
                policy: policy_label.to_string(),
                window: plan.window,
                budget: plan.budget,
                chunk: plan.chunk,
                clusters: clusters.clone(),
                chips: chips.clone(),
                workspace,
                events: events.clone(),
            })?;
        }
        Ok(BatchResult {
            clusters,
            chips,
            workspace,
            events,
        })
    }

    /// The eFAT batch path: cluster the batch's chips by fault-map
    /// similarity, run each cluster's representative cold (full FAT from
    /// the pretrained baseline), then warm-start the members from the
    /// representative's converged state.
    ///
    /// Output normalisation keeps the per-chip journal invariant and the
    /// determinism contract: sealed chips and their buffered events come
    /// out in ascending chip-id order (not cluster execution order),
    /// preceded by one [`Event::ClusterFormed`] per cluster in leader
    /// order. A quarantined representative demotes its members to cold
    /// per-chip runs — containment never cascades through a cluster.
    #[allow(clippy::too_many_arguments)] // internal plumbing of one call site
    fn run_clustered_batch(
        &self,
        runner: &FatRunner,
        pretrained: &Pretrained,
        source: &dyn ChipSource,
        exec: &ExecConfig,
        plan: &BatchPlan,
        config: &ClusterConfig,
        pool: &RefCell<Workspace>,
    ) -> Result<(Vec<Cluster>, Vec<SealedChip>, Vec<Event>)> {
        // Batches are bounded by the batch cap, so materialising the
        // batch's chips (fault maps included) is O(batch_cap), not
        // O(fleet).
        let mut batch_chips = Vec::with_capacity(plan.members.len());
        for member in &plan.members {
            batch_chips.push(source.chip(member.id)?);
        }
        let pairs: Vec<(usize, &FaultMap)> = batch_chips
            .iter()
            .map(|chip| (chip.id(), chip.fault_map()))
            .collect();
        let clusters = cluster_fault_maps(&pairs, config)?;
        let plan_of: BTreeMap<usize, &ChipPlan> = plan.members.iter().map(|m| (m.id, m)).collect();
        let chip_of: BTreeMap<usize, &Chip> = batch_chips.iter().map(|c| (c.id(), c)).collect();
        let member_of = |id: usize| -> Result<(&ChipPlan, &Chip)> {
            match (plan_of.get(&id), chip_of.get(&id)) {
                (Some(member), Some(chip)) => Ok((member, chip)),
                _ => Err(ReduceError::Internal {
                    invariant: "clusters partition the batch's members".to_string(),
                }),
            }
        };
        let mut events = Vec::with_capacity(clusters.len());
        let mut sealed_by_id: BTreeMap<usize, SealedChip> = BTreeMap::new();
        let mut events_by_id: BTreeMap<usize, Vec<Event>> = BTreeMap::new();
        for cluster in &clusters {
            events.push(Event::ClusterFormed {
                representative: cluster.representative,
                size: cluster.size(),
            });
            let (rep_member, rep_chip) = member_of(cluster.representative)?;
            let mut rep_events = Vec::new();
            let (rep_sealed, rep_state) = self.seal_chip(
                runner,
                &pretrained.state,
                exec,
                rep_member,
                rep_chip,
                None,
                pool,
                &mut rep_events,
            )?;
            sealed_by_id.insert(cluster.representative, rep_sealed);
            events_by_id.insert(cluster.representative, rep_events);
            for &member_id in &cluster.members {
                let (member, chip) = member_of(member_id)?;
                let mut member_events = Vec::new();
                // A quarantined representative leaves no converged state:
                // its members run cold, exactly as in a per-chip batch.
                let warm = rep_state
                    .as_ref()
                    .map(|state| (state.as_slice(), cluster.representative));
                let (member_sealed, _) = self.seal_chip(
                    runner,
                    warm.map_or(&pretrained.state, |(state, _)| state),
                    exec,
                    member,
                    chip,
                    warm.map(|(_, rep)| rep),
                    pool,
                    &mut member_events,
                )?;
                sealed_by_id.insert(member_id, member_sealed);
                events_by_id.insert(member_id, member_events);
            }
        }
        for (_, chip_events) in events_by_id {
            events.extend(chip_events);
        }
        Ok((clusters, sealed_by_id.into_values().collect(), events))
    }

    /// Runs one chip resiliently (retry/chaos/quarantine) and seals its
    /// fate, returning the converged state of a successful run so cluster
    /// representatives can donate it to their members.
    #[allow(clippy::too_many_arguments)] // internal plumbing of two call sites
    fn seal_chip(
        &self,
        runner: &FatRunner,
        base_state: &[(String, Tensor)],
        exec: &ExecConfig,
        member: &ChipPlan,
        chip: &Chip,
        warm_from: Option<usize>,
        pool: &RefCell<Workspace>,
        events: &mut Vec<Event>,
    ) -> Result<(SealedChip, Option<ModelState>)> {
        // Job ids are the chip ids — stable across batching, clustering
        // and resume subsetting, so retry salts and chaos decisions are
        // per-chip properties, independent of scheduling.
        let report = exec::run_job_resilient(
            member.id as u64,
            chip,
            exec,
            Stage::Deploy,
            &|_, chip: &Chip, salt, job_events: &mut Vec<Event>| {
                self.retrain_chip_pooled(
                    runner, base_state, member, chip, salt, warm_from, pool, job_events,
                )
            },
        )?;
        events.extend(report.events);
        match report.status {
            JobStatus::Ok((outcome, state)) => Ok((SealedChip::Retrained(outcome), Some(state))),
            JobStatus::Quarantined { attempts, error } => Ok((
                SealedChip::Quarantined(QuarantinedChip {
                    chip_id: member.id,
                    fault_rate: chip.fault_rate(),
                    attempts,
                    error,
                }),
                None,
            )),
        }
    }

    /// Steps ②+③ for one chip, training out of the batch's shared
    /// workspace pool. `base_state` is the pretrained baseline for cold
    /// runs or a cluster representative's converged state when
    /// `warm_from` names the donor; warm runs stop at the constraint (the
    /// eFAT savings mechanism) while cold runs follow the early-stop
    /// setting. Returns the outcome together with the converged state.
    #[allow(clippy::too_many_arguments)] // internal plumbing of one call site
    fn retrain_chip_pooled(
        &self,
        runner: &FatRunner,
        base_state: &[(String, Tensor)],
        member: &ChipPlan,
        chip: &Chip,
        salt: u64,
        warm_from: Option<usize>,
        pool: &RefCell<Workspace>,
        events: &mut Vec<Event>,
    ) -> Result<(ChipOutcome, ModelState)> {
        let rate = chip.fault_rate();
        // The clustered pipeline is constraint-aware end to end: eFAT
        // computes the *required* retraining per chip, so representatives
        // and warm-started members alike stop the moment the constraint
        // is met — unlike Reduce's open-loop budget spending, which only
        // stops early when the user opts in.
        let clustered = matches!(self.fleet_strategy, FleetStrategy::Clustered(_));
        let stop = if clustered || warm_from.is_some() || self.early_stop {
            StopRule::AtAccuracy(self.constraint)
        } else {
            StopRule::Exact
        };
        if let Some(representative) = warm_from {
            events.push(Event::WarmStartHit {
                chip_id: chip.id(),
                representative,
            });
        }
        let mut pool = pool.borrow_mut();
        let mut outcome = runner.run_warm_pooled_observed(
            base_state,
            chip.fault_map(),
            member.budget,
            stop,
            self.strategy,
            // `salt` is 0 on the first attempt; retries re-randomise the
            // chip's training shuffle without touching its fault map.
            self.seed.wrapping_add(chip.id() as u64) ^ salt,
            &mut pool,
            &mut |epoch, accuracy| {
                events.push(Event::EpochCompleted {
                    scope: EpochScope::Chip { chip_id: chip.id() },
                    epoch,
                    accuracy,
                });
            },
        )?;
        outcome.ensure_finite()?;
        let final_accuracy = outcome.final_accuracy();
        events.push(Event::ChipRetrained {
            chip_id: chip.id(),
            fault_rate: rate,
            epochs_budgeted: member.budget,
            epochs_run: outcome.epochs_run(),
            final_accuracy,
            satisfied: final_accuracy >= self.constraint,
        });
        let chip_outcome = ChipOutcome {
            chip_id: chip.id(),
            fault_rate: rate,
            epochs_budgeted: member.budget,
            epochs_run: outcome.epochs_run(),
            pre_retrain_accuracy: outcome.pre_retrain_accuracy,
            final_accuracy,
            meets_constraint: final_accuracy >= self.constraint,
            pruned_fraction: outcome.pruned_fraction,
            clamped: member.clamped,
            warm_started: warm_from.is_some(),
        };
        Ok((chip_outcome, std::mem::take(&mut outcome.final_state)))
    }
}

/// Reconstructs a batch's output from its journal record.
fn replay_batch(record: &JournalRecord) -> Result<BatchResult> {
    match record {
        JournalRecord::FleetBatch {
            clusters,
            chips,
            workspace,
            events,
            ..
        } => Ok(BatchResult {
            clusters: clusters.clone(),
            chips: chips.clone(),
            workspace: *workspace,
            events: events.clone(),
        }),
        _ => Err(ReduceError::Internal {
            invariant: "batch-keyed journal records are fleet-batch records".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{Statistic, TableEntry};
    use crate::workbench::Workbench;
    use reduce_systolic::{generate_fleet, FaultModel, RateDistribution};

    fn fleet_config() -> FleetConfig {
        FleetConfig {
            chips: 6,
            rows: 8,
            cols: 8,
            rates: RateDistribution::Uniform { lo: 0.0, hi: 0.25 },
            model: FaultModel::Random,
            seed: 5,
        }
    }

    fn setup() -> (FatRunner, Pretrained, Vec<Chip>) {
        let wb = Workbench::toy(21);
        let pre = wb.pretrain(12).expect("valid workbench");
        let runner = FatRunner::new(wb).expect("valid workbench");
        let fleet = generate_fleet(&fleet_config()).expect("valid fleet");
        (runner, pre, fleet)
    }

    fn table() -> ResilienceTable {
        ResilienceTable::from_entries(
            vec![
                TableEntry {
                    rate: 0.0,
                    mean_epochs: 0.0,
                    max_epochs: 0,
                },
                TableEntry {
                    rate: 0.25,
                    mean_epochs: 3.0,
                    max_epochs: 5,
                },
            ],
            8,
        )
        .expect("non-empty")
    }

    #[test]
    fn fixed_policy_charges_every_chip_equally() {
        let (runner, pre, fleet) = setup();
        let report = FleetEvaluation::new(RetrainPolicy::Fixed(2), 0.85)
            .source(&fleet)
            .run(&runner, &pre)
            .expect("valid run");
        assert_eq!(report.evaluated, 6);
        assert_eq!(report.epoch_histogram, BTreeMap::from([(2, 6)]));
        assert_eq!(report.total_epochs, 12);
        assert_eq!(report.policy, "Fixed (2 epochs)");
        assert_eq!(report.outcomes, None, "per-chip memory is opt-in");
    }

    #[test]
    fn reduce_policy_scales_epochs_with_fault_rate() {
        let (runner, pre, fleet) = setup();
        let t = table();
        let report = FleetEvaluation::new(RetrainPolicy::Reduce(Statistic::Max), 0.85)
            .source(&fleet)
            .table(&t)
            .collect_outcomes(true)
            .run(&runner, &pre)
            .expect("valid run");
        // Chips with higher fault rates get more epochs (monotone table).
        let mut sorted = report.outcomes.clone().expect("collected");
        sorted.sort_by(|a, b| a.fault_rate.partial_cmp(&b.fault_rate).expect("finite"));
        for pair in sorted.windows(2) {
            assert!(pair[0].epochs_budgeted <= pair[1].epochs_budgeted);
        }
        // A clean chip costs nothing.
        if let Some(clean) = sorted.iter().find(|c| c.fault_rate == 0.0) {
            assert_eq!(clean.epochs_run, 0);
        }
    }

    #[test]
    fn reduce_spends_less_than_fixed_high_for_same_yield_level() {
        let (runner, pre, fleet) = setup();
        let t = table();
        let constraint = 0.85;
        let reduce = FleetEvaluation::new(RetrainPolicy::Reduce(Statistic::Max), constraint)
            .source(&fleet)
            .table(&t)
            .run(&runner, &pre)
            .expect("valid run");
        let fixed_high = FleetEvaluation::new(RetrainPolicy::Fixed(5), constraint)
            .source(&fleet)
            .run(&runner, &pre)
            .expect("valid run");
        assert!(
            reduce.total_epochs < fixed_high.total_epochs,
            "Reduce ({}) should be cheaper than Fixed-5 ({})",
            reduce.total_epochs,
            fixed_high.total_epochs
        );
    }

    #[test]
    fn report_aggregates() {
        let (runner, pre, fleet) = setup();
        let report = FleetEvaluation::new(RetrainPolicy::Fixed(1), 0.5)
            .source(&fleet)
            .collect_outcomes(true)
            .run(&runner, &pre)
            .expect("valid run");
        assert!(report.yield_fraction() > 0.0);
        assert!((report.mean_epochs() - 1.0).abs() < 1e-6);
        assert!(report.min_accuracy <= report.mean_accuracy);
        assert!(report.mean_accuracy <= report.max_accuracy);
        let outcomes = report.outcomes.as_ref().expect("collected");
        assert_eq!(
            report.satisfied,
            outcomes.iter().filter(|c| c.meets_constraint).count()
        );
        assert_eq!(
            report.status_counts(),
            [(ChipStatus::Ok, 6), (ChipStatus::Quarantined, 0)]
        );
        assert_eq!(
            report.epoch_histogram.values().sum::<usize>(),
            report.evaluated
        );
    }

    #[test]
    fn cycle_accounting_present_with_cost_model() {
        let (runner, pre, fleet) = setup();
        let report = FleetEvaluation::new(RetrainPolicy::Fixed(1), 0.5)
            .source(&fleet)
            .cost_model(CostModel::small(8, 8))
            .run(&runner, &pre)
            .expect("valid run");
        let cycles = report.retrain_cycles.expect("cost model supplied");
        assert!(cycles > 0);
        // Double the epochs, double the cycles.
        let report2 = FleetEvaluation::new(RetrainPolicy::Fixed(2), 0.5)
            .source(&fleet)
            .cost_model(CostModel::small(8, 8))
            .run(&runner, &pre)
            .expect("valid run");
        assert_eq!(
            report2.retrain_cycles.expect("cost model supplied"),
            2 * cycles
        );
    }

    #[test]
    fn early_stop_fleet_never_spends_more() {
        let (runner, pre, fleet) = setup();
        let exact = FleetEvaluation::new(RetrainPolicy::Fixed(4), 0.85)
            .source(&fleet)
            .run(&runner, &pre)
            .expect("valid run");
        let stopped = FleetEvaluation::new(RetrainPolicy::Fixed(4), 0.85)
            .source(&fleet)
            .early_stop(true)
            .collect_outcomes(true)
            .run(&runner, &pre)
            .expect("valid run");
        assert!(stopped.total_epochs <= exact.total_epochs);
        // Early stop only stops *after* the constraint is met, so yield
        // cannot be worse.
        assert!(stopped.satisfied >= exact.satisfied.saturating_sub(1));
        for c in stopped.outcomes.as_ref().expect("collected") {
            assert!(c.epochs_run <= c.epochs_budgeted);
        }
    }

    #[test]
    fn parallel_fleet_matches_sequential() {
        let (runner, pre, fleet) = setup();
        let seq = FleetEvaluation::new(RetrainPolicy::Fixed(2), 0.85)
            .source(&fleet)
            .collect_outcomes(true)
            .run(&runner, &pre)
            .expect("valid run");
        // 0 auto-sizes from the hardware; the report must still match.
        for threads in [0usize, 1, 2, 4] {
            let exec = ExecConfig::new(threads);
            let par = FleetEvaluation::new(RetrainPolicy::Fixed(2), 0.85)
                .source(&fleet)
                .collect_outcomes(true)
                .exec(&exec)
                .run(&runner, &pre)
                .expect("valid run");
            assert_eq!(par, seq, "{threads}-thread report differs from sequential");
        }
    }

    #[test]
    fn window_and_batch_partitioning_do_not_change_the_report() {
        let (runner, pre, fleet) = setup();
        let baseline = FleetEvaluation::new(RetrainPolicy::Fixed(2), 0.85)
            .source(&fleet)
            .collect_outcomes(true)
            .run(&runner, &pre)
            .expect("valid run");
        for (window, batch_cap) in [(1usize, 1usize), (2, 1), (4, 2), (100, 3)] {
            let report = FleetEvaluation::new(RetrainPolicy::Fixed(2), 0.85)
                .source(&fleet)
                .window(window)
                .batch_cap(batch_cap)
                .collect_outcomes(true)
                .run(&runner, &pre)
                .expect("valid run");
            assert_eq!(
                report, baseline,
                "window {window} / batch {batch_cap} changed the report"
            );
        }
    }

    #[test]
    fn streaming_source_matches_materialised_fleet() {
        let (runner, pre, fleet) = setup();
        let materialised = FleetEvaluation::new(RetrainPolicy::Fixed(2), 0.85)
            .source(&fleet)
            .collect_outcomes(true)
            .run(&runner, &pre)
            .expect("valid run");
        let seeded = SeededChips::new(fleet_config());
        let streamed = FleetEvaluation::new(RetrainPolicy::Fixed(2), 0.85)
            .source(&seeded)
            .collect_outcomes(true)
            .run(&runner, &pre)
            .expect("valid run");
        assert_eq!(streamed, materialised);
    }

    #[test]
    fn unprotected_execution_is_catastrophic() {
        let (runner, pre, _) = setup();
        // A mere 5% of stuck-at-saturated PEs without FAP...
        let map =
            reduce_systolic::FaultMap::generate(8, 8, 0.05, reduce_systolic::FaultModel::Random, 3)
                .expect("valid rate");
        let unprotected = runner
            .unprotected_accuracy(&pre, &map, 8.0)
            .expect("valid run");
        // ...versus the same chip under FAP bypass.
        let fap = runner
            .run(
                &pre,
                &map,
                0,
                crate::fat::StopRule::Exact,
                Mitigation::Fap,
                0,
            )
            .expect("valid run")
            .pre_retrain_accuracy;
        assert!(
            unprotected < fap - 0.1,
            "stuck-at faults should be much worse than bypass: {unprotected} vs {fap}"
        );
    }

    #[test]
    fn reduce_without_table_fails() {
        let (runner, pre, fleet) = setup();
        assert!(
            FleetEvaluation::new(RetrainPolicy::Reduce(Statistic::Max), 0.85)
                .source(&fleet)
                .run(&runner, &pre)
                .is_err()
        );
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let (runner, pre, fleet) = setup();
        let rejected = |eval: FleetEvaluation| {
            let err = eval.run(&runner, &pre).expect_err("must reject");
            assert!(
                err.to_string().contains("fleet evaluation rejected"),
                "unexpected error: {err}"
            );
        };
        rejected(FleetEvaluation::new(RetrainPolicy::Fixed(1), 0.5));
        let empty: Vec<Chip> = Vec::new();
        rejected(FleetEvaluation::new(RetrainPolicy::Fixed(1), 0.5).source(&empty));
        rejected(
            FleetEvaluation::new(RetrainPolicy::Fixed(1), 0.5)
                .source(&fleet)
                .window(0),
        );
        rejected(
            FleetEvaluation::new(RetrainPolicy::Fixed(1), 0.5)
                .source(&fleet)
                .batch_cap(0),
        );
        rejected(FleetEvaluation::new(RetrainPolicy::Fixed(1), 1.5).source(&fleet));
        rejected(FleetEvaluation::new(RetrainPolicy::Fixed(1), f32::NAN).source(&fleet));
        rejected(
            FleetEvaluation::new(RetrainPolicy::Fixed(1), 0.5)
                .source(&fleet)
                .fleet_strategy(FleetStrategy::Clustered(ClusterConfig {
                    threshold: 2.0,
                    ..ClusterConfig::default()
                })),
        );
    }

    #[test]
    fn clustered_strategy_saves_epochs_at_equal_or_better_yield() {
        let (runner, pre, fleet) = setup();
        let constraint = 0.5;
        let per_chip = FleetEvaluation::new(RetrainPolicy::Fixed(3), constraint)
            .source(&fleet)
            .collect_outcomes(true)
            .run(&runner, &pre)
            .expect("valid run");
        let clustered = FleetEvaluation::new(RetrainPolicy::Fixed(3), constraint)
            .source(&fleet)
            .fleet_strategy(FleetStrategy::Clustered(ClusterConfig::default()))
            .collect_outcomes(true)
            .run(&runner, &pre)
            .expect("valid run");
        assert_eq!(clustered.policy, "Fixed (3 epochs) + eFAT");
        assert!(clustered.clusters > 0, "batch formed no clusters");
        assert!(
            clustered.warm_started > 0,
            "default config should merge same-band 8x8 maps into shared clusters"
        );
        // The eFAT claim: warm-started members stop at the constraint, so
        // the fleet spends strictly fewer epochs without losing yield.
        assert!(
            clustered.total_epochs < per_chip.total_epochs,
            "clustered ({}) should undercut per-chip ({})",
            clustered.total_epochs,
            per_chip.total_epochs
        );
        assert!(clustered.satisfied >= per_chip.satisfied);
        let outcomes = clustered.outcomes.as_ref().expect("collected");
        let saved: usize = outcomes
            .iter()
            .filter(|c| c.warm_started)
            .map(|c| c.epochs_budgeted - c.epochs_run)
            .sum();
        assert_eq!(clustered.warm_start_epochs_saved, saved);
        assert_eq!(
            clustered.warm_started,
            outcomes.iter().filter(|c| c.warm_started).count()
        );
        assert_eq!(per_chip.clusters, 0);
        assert_eq!(per_chip.warm_started, 0);
    }

    #[test]
    fn cluster_assignment_is_invariant_across_thread_counts() {
        let (runner, pre, fleet) = setup();
        let baseline = FleetEvaluation::new(RetrainPolicy::Fixed(3), 0.5)
            .source(&fleet)
            .fleet_strategy(FleetStrategy::Clustered(ClusterConfig::default()))
            .collect_outcomes(true)
            .run(&runner, &pre)
            .expect("valid run");
        for threads in [1usize, 2, 8] {
            let exec = ExecConfig::new(threads);
            let report = FleetEvaluation::new(RetrainPolicy::Fixed(3), 0.5)
                .source(&fleet)
                .fleet_strategy(FleetStrategy::Clustered(ClusterConfig::default()))
                .collect_outcomes(true)
                .exec(&exec)
                .run(&runner, &pre)
                .expect("valid run");
            assert_eq!(
                report, baseline,
                "{threads}-thread clustered report differs from sequential"
            );
        }
    }

    #[test]
    fn clustered_batches_replay_from_the_journal() {
        let (runner, pre, fleet) = setup();
        let path = std::env::temp_dir()
            .join(format!("reduce_fleet_cluster_{}", std::process::id()))
            .join("journal.jsonl");
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let eval = |journal: &Checkpoint| {
            FleetEvaluation::new(RetrainPolicy::Fixed(3), 0.5)
                .source(&fleet)
                .fleet_strategy(FleetStrategy::Clustered(ClusterConfig::default()))
                .collect_outcomes(true)
                .journal(journal)
                .run(&runner, &pre)
                .expect("valid run")
        };
        let journal = Checkpoint::create(&path);
        let fresh = eval(&journal);
        // A resumed run finds every batch journaled and replays it; the
        // report — cluster and warm-start accounting included — must be
        // indistinguishable from the fresh run.
        let resumed = Checkpoint::create(&path);
        let replayed = eval(&resumed);
        assert_eq!(replayed, fresh);
        assert!(replayed.clusters > 0, "replay dropped cluster accounting");
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
