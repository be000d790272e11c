//! Step ① — resilience characterisation.
//!
//! Fault-injection experiments at a grid of fault rates, each repeated with
//! several independent fault maps, measuring test accuracy after every FAT
//! epoch. The analysis yields:
//!
//! * the **resilience curves** (Fig. 2a): accuracy vs fault rate at each
//!   retraining level;
//! * the **epochs-to-constraint** statistics (Fig. 2b): min/mean/max
//!   retraining epochs needed at each fault rate to meet the accuracy
//!   constraint — whose spread is exactly why the paper recommends the
//!   *max* statistic (means undertrain);
//! * a [`ResilienceTable`] that Step ② interpolates to pick a retraining
//!   amount for an arbitrary chip.

use crate::error::{ReduceError, Result};
use crate::exec::{self, ExecConfig, JobStatus, Sealed};
use crate::fat::{FatRunner, Mitigation, StopRule};
use crate::journal::{Checkpoint, JournalRecord};
use crate::telemetry::{EpochScope, Event, Stage};
use crate::workbench::Pretrained;
use reduce_nn::{Workspace, WorkspaceStats};
use reduce_systolic::{FaultMap, FaultModel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration of the resilience characterisation. Every grid cell
/// retrains under FAP, the paper's mitigation (and the one Step ③ deploys).
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Fault rates to characterise (will be sorted; should include 0).
    pub fault_rates: Vec<f64>,
    /// Maximum FAT epochs measured at each rate.
    pub max_epochs: usize,
    /// Independent fault maps per rate (the paper uses 5).
    pub repeats: usize,
    /// The user's accuracy constraint.
    pub constraint: f32,
    /// Spatial fault model for the injected maps.
    pub fault_model: FaultModel,
    /// Master seed for the injected fault maps.
    pub seed: u64,
}

impl ResilienceConfig {
    /// Starts building a characterisation config. Every invariant is
    /// checked at [`ResilienceConfigBuilder::build`] — an empty grid,
    /// non-finite rates, or zero points/repeats/epochs never reach
    /// [`ResilienceAnalysis::run`].
    pub fn builder() -> ResilienceConfigBuilder {
        ResilienceConfigBuilder::default()
    }

    fn validate(&self) -> Result<()> {
        if self.fault_rates.is_empty()
            || self.repeats == 0
            || self.max_epochs == 0
            || !(0.0..=1.0).contains(&self.constraint)
        {
            return Err(ReduceError::InvalidConfig {
                what: format!(
                    "resilience config rejected: {} rates, {} repeats, {} epochs, constraint {}",
                    self.fault_rates.len(),
                    self.repeats,
                    self.max_epochs,
                    self.constraint
                ),
            });
        }
        for &rate in &self.fault_rates {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(ReduceError::InvalidConfig {
                    what: format!("fault rate {rate} is not a probability"),
                });
            }
        }
        Ok(())
    }
}

/// Validated builder for [`ResilienceConfig`].
///
/// The grid is either explicit ([`ResilienceConfigBuilder::fault_rates`])
/// or generated: `points` rates linearly spaced from 0 to
/// [`ResilienceConfigBuilder::max_rate`]. Defaults match the paper: 4
/// points up to rate 0.3, 5 repeats, 10 epochs, constraint 0.9.
///
/// # Examples
///
/// ```
/// use reduce_core::ResilienceConfig;
///
/// # fn main() -> Result<(), reduce_core::ReduceError> {
/// let config = ResilienceConfig::builder()
///     .max_rate(0.25)
///     .points(4)
///     .max_epochs(10)
///     .constraint(0.9)
///     .build()?;
/// assert_eq!(config.fault_rates.len(), 4);
/// assert!(ResilienceConfig::builder().points(0).build().is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ResilienceConfigBuilder {
    fault_rates: Option<Vec<f64>>,
    max_rate: f64,
    points: usize,
    max_epochs: usize,
    repeats: usize,
    constraint: f32,
    fault_model: FaultModel,
    seed: u64,
}

impl Default for ResilienceConfigBuilder {
    fn default() -> Self {
        ResilienceConfigBuilder {
            fault_rates: None,
            max_rate: 0.3,
            points: 4,
            max_epochs: 10,
            repeats: 5,
            constraint: 0.9,
            fault_model: FaultModel::Random,
            seed: 0xC0FFEE,
        }
    }
}

impl ResilienceConfigBuilder {
    /// Uses an explicit rate grid instead of the generated linear one.
    #[must_use]
    pub fn fault_rates(mut self, rates: Vec<f64>) -> Self {
        self.fault_rates = Some(rates);
        self
    }

    /// Top of the generated linear grid (ignored with explicit rates).
    #[must_use]
    pub fn max_rate(mut self, max_rate: f64) -> Self {
        self.max_rate = max_rate;
        self
    }

    /// Number of generated grid points (ignored with explicit rates).
    #[must_use]
    pub fn points(mut self, points: usize) -> Self {
        self.points = points;
        self
    }

    /// Maximum FAT epochs measured at each rate.
    #[must_use]
    pub fn max_epochs(mut self, max_epochs: usize) -> Self {
        self.max_epochs = max_epochs;
        self
    }

    /// Independent fault maps per rate (the paper uses 5).
    #[must_use]
    pub fn repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats;
        self
    }

    /// The user's accuracy constraint.
    #[must_use]
    pub fn constraint(mut self, constraint: f32) -> Self {
        self.constraint = constraint;
        self
    }

    /// Spatial fault model for the injected maps.
    #[must_use]
    pub fn fault_model(mut self, fault_model: FaultModel) -> Self {
        self.fault_model = fault_model;
        self
    }

    /// Master seed for the injected fault maps.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates and produces the config.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidConfig`] for an empty or non-finite
    /// grid, `points == 0`, a non-finite or out-of-range `max_rate`, zero
    /// repeats or epochs, or a constraint outside `[0, 1]`.
    pub fn build(self) -> Result<ResilienceConfig> {
        let fault_rates = match self.fault_rates {
            Some(rates) => rates,
            None => {
                if self.points == 0 {
                    return Err(ReduceError::InvalidConfig {
                        what: "a generated grid needs points >= 1".to_string(),
                    });
                }
                if !self.max_rate.is_finite() || !(0.0..=1.0).contains(&self.max_rate) {
                    return Err(ReduceError::InvalidConfig {
                        what: format!("max_rate {} is not a probability", self.max_rate),
                    });
                }
                (0..self.points)
                    .map(|i| self.max_rate * i as f64 / (self.points.max(2) - 1) as f64)
                    .collect()
            }
        };
        let config = ResilienceConfig {
            fault_rates,
            max_epochs: self.max_epochs,
            repeats: self.repeats,
            constraint: self.constraint,
            fault_model: self.fault_model,
            seed: self.seed,
        };
        config.validate()?;
        Ok(config)
    }
}

/// One fault-injection run: a single `(rate, repeat)` cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResiliencePoint {
    /// Index of [`ResiliencePoint::rate`] in the sorted characterisation
    /// grid — the grouping key for per-rate summaries (grouping by the
    /// `f64` rate itself would be a float-equality footgun).
    pub rate_index: usize,
    /// Injected fault rate.
    pub rate: f64,
    /// Repeat index.
    pub repeat: usize,
    /// Accuracy after masking, before retraining.
    pub pre_retrain_accuracy: f32,
    /// Accuracy after each FAT epoch.
    pub accuracy_after_epoch: Vec<f32>,
    /// Epochs needed to reach the constraint (0 = immediately), if reached.
    pub epochs_to_constraint: Option<usize>,
}

/// A grid cell that exhausted its retry budget and was quarantined.
///
/// Quarantined cells are excluded from every summary statistic; they are
/// reported here (and in the journal/telemetry) instead of failing the
/// whole characterisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailedPoint {
    /// Index of the cell's rate in the sorted characterisation grid.
    pub rate_index: usize,
    /// Injected fault rate.
    pub rate: f64,
    /// Repeat index.
    pub repeat: usize,
    /// Attempts consumed (retry budget + 1).
    pub attempts: u32,
    /// The final attempt's error.
    pub error: String,
}

/// Per-rate summary across repeats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSummary {
    /// Fault rate.
    pub rate: f64,
    /// Minimum epochs-to-constraint over repeats (failures count as the
    /// epoch cap).
    pub min_epochs: usize,
    /// Mean epochs-to-constraint over repeats.
    pub mean_epochs: f64,
    /// Maximum epochs-to-constraint over repeats — the paper's recommended
    /// high-confidence statistic.
    pub max_epochs: usize,
    /// Repeats that never met the constraint within the epoch budget.
    pub failures: usize,
    /// Mean accuracy at each retraining level: index 0 is pre-retraining,
    /// index `e` is after `e` epochs (Fig. 2a's y-values).
    pub mean_accuracy_at_level: Vec<f32>,
    /// Repeats quarantined after exhausting the retry budget (excluded
    /// from every other statistic in this summary).
    pub quarantined: usize,
}

/// The full Step-① output.
#[derive(Debug, Clone)]
pub struct ResilienceAnalysis {
    config: ResilienceConfig,
    points: Vec<ResiliencePoint>,
    summaries: Vec<RateSummary>,
    failures: Vec<FailedPoint>,
}

impl ResilienceAnalysis {
    /// Runs the characterisation: `rates × repeats` fault-injection +
    /// retraining experiments, each measuring the full accuracy-per-epoch
    /// curve.
    ///
    /// The grid is fanned out over `exec.threads` workers on the shared
    /// deterministic executor ([`crate::exec`]). Every grid cell is
    /// independently seeded from `(rate index, repeat)` and the executor
    /// returns cells in grid order, so points, summaries and the derived
    /// table are byte-identical to a sequential run regardless of thread
    /// count. `exec`'s observer receives a `Characterize` stage pair, and
    /// per grid cell one [`Event::EpochCompleted`] per epoch of its curve
    /// followed by one [`Event::PointFinished`], flushed in grid order.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors; a cell whose training fails (or
    /// panics) is retried up to `exec.retry_budget()` times and then
    /// quarantined into [`ResilienceAnalysis::failures`] rather than
    /// failing the whole characterisation.
    ///
    /// # Examples
    ///
    /// ```
    /// use reduce_core::exec::ExecConfig;
    /// use reduce_core::{FatRunner, ResilienceAnalysis, ResilienceConfig, Workbench};
    ///
    /// # fn main() -> Result<(), reduce_core::ReduceError> {
    /// let workbench = Workbench::toy(1);
    /// let pretrained = workbench.pretrain(5)?;
    /// let runner = FatRunner::new(workbench)?;
    /// let config = ResilienceConfig::builder()
    ///     .max_rate(0.2)
    ///     .points(2)
    ///     .max_epochs(2)
    ///     .repeats(2)
    ///     .constraint(0.85)
    ///     .build()?;
    /// let parallel =
    ///     ResilienceAnalysis::run(&runner, &pretrained, config.clone(), &ExecConfig::new(2))?;
    /// let sequential =
    ///     ResilienceAnalysis::run(&runner, &pretrained, config, &ExecConfig::default())?;
    /// assert_eq!(parallel.points(), sequential.points());
    /// # Ok(())
    /// # }
    /// ```
    pub fn run(
        runner: &FatRunner,
        pretrained: &Pretrained,
        config: ResilienceConfig,
        exec: &ExecConfig,
    ) -> Result<Self> {
        Self::run_resumable(runner, pretrained, config, exec, None)
    }

    /// [`ResilienceAnalysis::run`] with checkpoint/resume: every sealed
    /// grid cell (measured or quarantined) is appended to `checkpoint`,
    /// and cells already in the journal are *replayed* — their outcomes
    /// and buffered telemetry re-emitted bit-identically, in grid order —
    /// instead of re-run. Cells keep their full-grid job id either way, so
    /// retry salts and chaos decisions are independent of which subset
    /// actually executes, and an interrupted-then-resumed run produces the
    /// same analysis and (redacted) artifacts as an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors and checkpoint-write failures.
    pub fn run_resumable(
        runner: &FatRunner,
        pretrained: &Pretrained,
        config: ResilienceConfig,
        exec: &ExecConfig,
        checkpoint: Option<&Checkpoint>,
    ) -> Result<Self> {
        config.validate()?;
        let mut rates = config.fault_rates.clone();
        rates.sort_by(|a, b| a.total_cmp(b));
        rates.dedup();
        let (rows, cols) = runner.workbench().array_dims();
        // Job ids are the *full-grid* linear cell index — stable across
        // resume subsetting, which is what keeps retry seeds and chaos
        // decisions identical between interrupted and uninterrupted runs.
        let cells: Vec<(u64, (usize, f64, usize))> = rates
            .iter()
            .enumerate()
            .flat_map(|(ri, &rate)| {
                let repeats = config.repeats;
                (0..repeats).map(move |rep| ((ri * repeats + rep) as u64, (ri, rate, rep)))
            })
            .collect();
        // Each journaled cell is converted once into the output the
        // driver replays in its place.
        let mut replayed: BTreeMap<(usize, usize), Sealed<JobStatus<ResiliencePoint>>> =
            BTreeMap::new();
        if let Some(cp) = checkpoint {
            for record in cp.records()? {
                let (key, sealed) = match record {
                    JournalRecord::Point {
                        point,
                        workspace,
                        events,
                        ..
                    } => (
                        (point.rate_index, point.repeat),
                        Sealed {
                            events,
                            workspace,
                            result: JobStatus::Ok(point),
                        },
                    ),
                    JournalRecord::PointFailed {
                        rate_index,
                        repeat,
                        attempts,
                        error,
                        events,
                        ..
                    } => (
                        (rate_index, repeat),
                        Sealed {
                            events,
                            workspace: WorkspaceStats::default(),
                            result: JobStatus::Quarantined { attempts, error },
                        },
                    ),
                    JournalRecord::FleetBatch { .. } => continue,
                };
                replayed.insert(key, sealed);
            }
        }
        let mut points = Vec::with_capacity(cells.len());
        let mut failures = Vec::new();
        exec::run_resumable_stage(
            exec,
            Stage::Characterize,
            checkpoint.map(|_| cells.len()),
            [Ok(cells)],
            |&(_, (ri, _, rep))| replayed.remove(&(ri, rep)),
            |&(job, cell)| {
                let report = exec::run_job_resilient(
                    job,
                    &cell,
                    exec,
                    Stage::Characterize,
                    &|_, &(ri, rate, rep), salt, events: &mut Vec<Event>| {
                        let map_seed = config
                            .seed
                            .wrapping_add((ri as u64) << 32)
                            .wrapping_add(rep as u64);
                        // The fault map is the cell's identity and survives
                        // retries; the salt only re-randomises training.
                        let map =
                            FaultMap::generate(rows, cols, rate, config.fault_model, map_seed)?;
                        let mut pool = Workspace::new();
                        let outcome = runner.run_from_state(
                            &pretrained.state,
                            &map,
                            config.max_epochs,
                            StopRule::Exact,
                            Mitigation::Fap,
                            map_seed ^ 0x5EED ^ salt,
                            &mut pool,
                        )?;
                        outcome.ensure_finite()?;
                        events.extend(outcome.epoch_events(EpochScope::Point {
                            rate_index: ri,
                            repeat: rep,
                        }));
                        let final_accuracy = outcome.final_accuracy();
                        let epochs_to_constraint = outcome.epochs_to_reach(config.constraint);
                        events.push(Event::PointFinished {
                            rate_index: ri,
                            rate,
                            repeat: rep,
                            epochs_to_constraint,
                            pre_retrain_accuracy: outcome.pre_retrain_accuracy,
                            final_accuracy,
                        });
                        let point = ResiliencePoint {
                            rate_index: ri,
                            rate,
                            repeat: rep,
                            pre_retrain_accuracy: outcome.pre_retrain_accuracy,
                            epochs_to_constraint,
                            accuracy_after_epoch: outcome.accuracy_after_epoch,
                        };
                        Ok((point, pool.stats()))
                    },
                )?;
                let (result, workspace) = match report.status {
                    JobStatus::Ok((point, workspace)) => (JobStatus::Ok(point), workspace),
                    JobStatus::Quarantined { attempts, error } => (
                        JobStatus::Quarantined { attempts, error },
                        WorkspaceStats::default(),
                    ),
                };
                // Sealed cells are journaled on the worker thread, in
                // completion order; the driver restores grid order.
                if let Some(cp) = checkpoint {
                    let (rate_index, rate, repeat) = cell;
                    let events = report.events.clone();
                    cp.append(match &result {
                        JobStatus::Ok(point) => JournalRecord::Point {
                            job,
                            point: point.clone(),
                            workspace,
                            events,
                        },
                        JobStatus::Quarantined { attempts, error } => JournalRecord::PointFailed {
                            job,
                            rate_index,
                            rate,
                            repeat,
                            attempts: *attempts,
                            error: error.clone(),
                            events,
                        },
                    })?;
                }
                Ok(Sealed {
                    events: report.events,
                    workspace,
                    result,
                })
            },
            |&(_, (ri, rate, rep)), status| {
                match status {
                    JobStatus::Ok(point) => points.push(point),
                    JobStatus::Quarantined { attempts, error } => failures.push(FailedPoint {
                        rate_index: ri,
                        rate,
                        repeat: rep,
                        attempts,
                        error,
                    }),
                }
                Ok(())
            },
        )?;
        let summaries = summarise(&rates, &points, &failures, &config);
        Ok(ResilienceAnalysis {
            config,
            points,
            summaries,
            failures,
        })
    }

    /// The configuration that produced this analysis.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// All raw `(rate, repeat)` runs.
    pub fn points(&self) -> &[ResiliencePoint] {
        &self.points
    }

    /// Grid cells quarantined after exhausting their retry budget, in grid
    /// order. Empty on a clean run.
    pub fn failures(&self) -> &[FailedPoint] {
        &self.failures
    }

    /// Per-rate summaries, sorted by rate.
    pub fn summaries(&self) -> &[RateSummary] {
        &self.summaries
    }

    /// Builds the Step-② lookup table.
    pub fn table(&self) -> ResilienceTable {
        ResilienceTable {
            entries: self
                .summaries
                .iter()
                .map(|s| TableEntry {
                    rate: s.rate,
                    mean_epochs: s.mean_epochs,
                    max_epochs: s.max_epochs,
                })
                .collect(),
            epoch_cap: self.config.max_epochs,
        }
    }
}

fn summarise(
    rates: &[f64],
    points: &[ResiliencePoint],
    failures: &[FailedPoint],
    config: &ResilienceConfig,
) -> Vec<RateSummary> {
    rates
        .iter()
        .enumerate()
        .map(|(ri, &rate)| {
            // Group by grid index, not by `f64` equality on the rate.
            let runs: Vec<&ResiliencePoint> =
                points.iter().filter(|p| p.rate_index == ri).collect();
            let cap = config.max_epochs;
            let epochs: Vec<usize> = runs
                .iter()
                .map(|p| p.epochs_to_constraint.unwrap_or(cap))
                .collect();
            let constraint_failures = runs
                .iter()
                .filter(|p| p.epochs_to_constraint.is_none())
                .count();
            let min_epochs = epochs.iter().copied().min().unwrap_or(0);
            let max_epochs = epochs.iter().copied().max().unwrap_or(0);
            let mean_epochs = if epochs.is_empty() {
                0.0
            } else {
                epochs.iter().sum::<usize>() as f64 / epochs.len() as f64
            };
            // Mean accuracy at each level (0 = pre-retrain).
            let mut mean_accuracy_at_level = vec![0.0f32; cap + 1];
            for p in &runs {
                if let Some(level0) = mean_accuracy_at_level.first_mut() {
                    *level0 += p.pre_retrain_accuracy;
                }
                // Runs are Exact so the curve has cap entries; a shorter
                // curve repeats its last accuracy.
                for (e, level) in mean_accuracy_at_level.iter_mut().skip(1).enumerate() {
                    let a =
                        p.accuracy_after_epoch.get(e).copied().unwrap_or_else(|| {
                            p.accuracy_after_epoch.last().copied().unwrap_or(0.0)
                        });
                    *level += a;
                }
            }
            let n = runs.len().max(1) as f32;
            for v in &mut mean_accuracy_at_level {
                *v /= n;
            }
            RateSummary {
                rate,
                min_epochs,
                mean_epochs,
                max_epochs,
                failures: constraint_failures,
                mean_accuracy_at_level,
                quarantined: failures.iter().filter(|f| f.rate_index == ri).count(),
            }
        })
        .collect()
}

/// Which per-rate statistic Step ② reads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Statistic {
    /// The maximum over repeats — the paper's recommendation (high
    /// confidence the constraint is met).
    Max,
    /// The mean over repeats — cheaper but risks undertraining (the paper's
    /// Fig. 3b comparison).
    Mean,
    /// Mean plus a fixed epoch margin — an intermediate ablation.
    MeanPlusMargin(f64),
}

/// One row of the lookup table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableEntry {
    /// Characterised fault rate.
    pub rate: f64,
    /// Mean epochs-to-constraint at this rate.
    pub mean_epochs: f64,
    /// Max epochs-to-constraint at this rate.
    pub max_epochs: usize,
}

/// The retraining amount a lookup produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Selection {
    /// Retraining epochs to spend on the chip.
    pub epochs: usize,
    /// Whether the chip's fault rate fell outside the characterised range
    /// (the value was clamped to the nearest grid edge).
    pub clamped: bool,
}

/// The Step-② lookup table: fault rate → retraining epochs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceTable {
    entries: Vec<TableEntry>,
    epoch_cap: usize,
}

impl ResilienceTable {
    /// Creates a table from explicit entries (sorted by rate internally).
    /// Every constructor goes through here, so a loaded table holds only
    /// budgets Step ② can turn into whole epochs.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidConfig`] for an empty table, a rate
    /// that is not a probability, or a `mean_epochs` that is not a finite,
    /// non-negative number.
    pub fn from_entries(mut entries: Vec<TableEntry>, epoch_cap: usize) -> Result<Self> {
        if entries.is_empty() {
            return Err(ReduceError::InvalidConfig {
                what: "resilience table needs at least one entry".to_string(),
            });
        }
        for e in &entries {
            if !e.rate.is_finite() || !(0.0..=1.0).contains(&e.rate) {
                return Err(ReduceError::InvalidConfig {
                    what: format!("table rate {} is not a probability", e.rate),
                });
            }
            if !e.mean_epochs.is_finite() || e.mean_epochs < 0.0 {
                return Err(ReduceError::InvalidConfig {
                    what: format!(
                        "table mean_epochs {} at rate {} is not a finite, non-negative budget",
                        e.mean_epochs, e.rate
                    ),
                });
            }
        }
        entries.sort_by(|a, b| a.rate.total_cmp(&b.rate));
        Ok(ResilienceTable { entries, epoch_cap })
    }

    /// The table rows, sorted by rate.
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// The epoch budget the characterisation measured up to.
    pub fn epoch_cap(&self) -> usize {
        self.epoch_cap
    }

    /// Whether `rate` lies within the characterised range.
    pub fn covers(&self, rate: f64) -> bool {
        match (self.entries.first(), self.entries.last()) {
            (Some(first), Some(last)) => (first.rate..=last.rate).contains(&rate),
            // `from_entries` rejects empty tables; unreachable in practice.
            _ => false,
        }
    }

    /// Serialises the table to a small, versioned, line-based text format
    /// — the reusable Step-① artifact (characterise once, deploy many
    /// times).
    pub fn to_text(&self) -> String {
        let mut s = String::from("# reduce resilience table v1\n");
        s.push_str(&format!("epoch_cap {}\n", self.epoch_cap));
        s.push_str("rate mean_epochs max_epochs\n");
        for e in &self.entries {
            s.push_str(&format!("{} {} {}\n", e.rate, e.mean_epochs, e.max_epochs));
        }
        s
    }

    /// Parses a table serialised by [`ResilienceTable::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidConfig`] for a malformed document.
    pub fn from_text(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header.trim() != "# reduce resilience table v1" {
            return Err(ReduceError::InvalidConfig {
                what: format!("unrecognised table header {header:?}"),
            });
        }
        let cap_line = lines.next().unwrap_or_default();
        let epoch_cap = cap_line
            .strip_prefix("epoch_cap ")
            .and_then(|v| v.trim().parse::<usize>().ok())
            .ok_or_else(|| ReduceError::InvalidConfig {
                what: format!("bad epoch_cap line {cap_line:?}"),
            })?;
        let columns = lines.next().unwrap_or_default();
        if columns.trim() != "rate mean_epochs max_epochs" {
            return Err(ReduceError::InvalidConfig {
                what: format!("bad column header {columns:?}"),
            });
        }
        let mut entries = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let parse_err = || ReduceError::InvalidConfig {
                what: format!("bad table row {line:?}"),
            };
            let rate: f64 = it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(parse_err)?;
            let mean_epochs: f64 = it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(parse_err)?;
            let max_epochs: usize = it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(parse_err)?;
            if it.next().is_some() {
                return Err(parse_err());
            }
            entries.push(TableEntry {
                rate,
                mean_epochs,
                max_epochs,
            });
        }
        Self::from_entries(entries, epoch_cap)
    }

    /// Writes the table to a file via the shared atomic artifact writer
    /// (temp file + rename; a concurrent reader or a crash never sees a
    /// torn table).
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidConfig`] wrapping the I/O failure.
    pub fn save(&self, path: &std::path::Path) -> Result<()> {
        crate::artifact::write_atomic(path, &self.to_text())
    }

    /// Reads a table written by [`ResilienceTable::save`].
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidConfig`] for I/O or parse failures.
    pub fn load(path: &std::path::Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(|e| ReduceError::InvalidConfig {
            what: format!("cannot read table from {}: {e}", path.display()),
        })?;
        Self::from_text(&text)
    }

    /// Selects the retraining amount for a chip with the given fault rate:
    /// piecewise-linear interpolation of the chosen statistic between the
    /// bracketing characterised rates, rounded **up** to whole epochs
    /// (conservative), clamped to the grid edges outside the range.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::MissingCharacterization`] for a non-finite
    /// rate.
    pub fn epochs_for(&self, rate: f64, statistic: Statistic) -> Result<Selection> {
        if !rate.is_finite() || rate < 0.0 {
            return Err(ReduceError::MissingCharacterization {
                reason: format!("fault rate {rate} is not a valid probability"),
            });
        }
        let stat = |e: &TableEntry| -> f64 {
            match statistic {
                Statistic::Max => e.max_epochs as f64,
                Statistic::Mean => e.mean_epochs,
                Statistic::MeanPlusMargin(m) => e.mean_epochs + m,
            }
        };
        let invariant = |what: &str| ReduceError::Internal {
            invariant: what.to_string(),
        };
        let first = self
            .entries
            .first()
            .ok_or_else(|| invariant("resilience tables are non-empty by construction"))?;
        let last = self
            .entries
            .last()
            .ok_or_else(|| invariant("resilience tables are non-empty by construction"))?;
        let raw = if rate <= first.rate {
            stat(first)
        } else if rate >= last.rate {
            stat(last)
        } else {
            let hi = self
                .entries
                .iter()
                .position(|e| e.rate >= rate)
                .ok_or_else(|| invariant("rate < last implies a bracketing entry"))?;
            let a = self
                .entries
                .get(hi.wrapping_sub(1))
                .ok_or_else(|| invariant("rate > first implies a lower bracketing entry"))?;
            let b = &self.entries[hi]; // xtask:allow(index): `position` returned this index
            if (b.rate - a.rate).abs() < f64::EPSILON {
                stat(b)
            } else {
                let t = (rate - a.rate) / (b.rate - a.rate);
                stat(a) + t * (stat(b) - stat(a))
            }
        };
        let epochs = raw.ceil().max(0.0) as usize;
        // The characterisation only measured up to `epoch_cap` epochs, so
        // no selection (in particular a margined one) may budget beyond it.
        Ok(Selection {
            epochs: epochs.min(self.epoch_cap),
            clamped: !self.covers(rate),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ResilienceTable {
        ResilienceTable::from_entries(
            vec![
                TableEntry {
                    rate: 0.0,
                    mean_epochs: 0.0,
                    max_epochs: 0,
                },
                TableEntry {
                    rate: 0.1,
                    mean_epochs: 2.0,
                    max_epochs: 4,
                },
                TableEntry {
                    rate: 0.2,
                    mean_epochs: 5.0,
                    max_epochs: 8,
                },
            ],
            10,
        )
        .expect("non-empty")
    }

    #[test]
    fn exact_grid_lookup() {
        let t = table();
        assert_eq!(t.epochs_for(0.1, Statistic::Max).expect("valid").epochs, 4);
        assert_eq!(t.epochs_for(0.1, Statistic::Mean).expect("valid").epochs, 2);
        assert_eq!(t.epochs_for(0.0, Statistic::Max).expect("valid").epochs, 0);
    }

    #[test]
    fn interpolation_rounds_up() {
        let t = table();
        // Halfway between 4 and 8 is 6 -> exactly 6; at 0.125 it's 5 -> 5.
        assert_eq!(t.epochs_for(0.15, Statistic::Max).expect("valid").epochs, 6);
        let s = t.epochs_for(0.125, Statistic::Max).expect("valid");
        assert_eq!(s.epochs, 5);
        assert!(!s.clamped);
        // Mean interpolation: 2 + 0.5*(5-2) = 3.5 -> ceil 4.
        assert_eq!(
            t.epochs_for(0.15, Statistic::Mean).expect("valid").epochs,
            4
        );
    }

    #[test]
    fn clamping_outside_grid() {
        let t = table();
        let s = t.epochs_for(0.5, Statistic::Max).expect("valid");
        assert_eq!(s.epochs, 8);
        assert!(s.clamped);
        assert!(!t.covers(0.5));
        assert!(t.covers(0.15));
    }

    #[test]
    fn margin_statistic() {
        let t = table();
        assert_eq!(
            t.epochs_for(0.1, Statistic::MeanPlusMargin(1.5))
                .expect("valid")
                .epochs,
            4 // 2.0 + 1.5 = 3.5 -> 4
        );
    }

    #[test]
    fn selections_are_capped_at_epoch_cap() {
        // Regression: the cap used to be a no-op (`min(cap.max(epochs))`),
        // so an aggressive margin could budget epochs the characterisation
        // never measured.
        let t = table(); // epoch_cap = 10
        for rate in [0.0, 0.05, 0.1, 0.15, 0.2, 0.5] {
            let s = t
                .epochs_for(rate, Statistic::MeanPlusMargin(100.0))
                .expect("valid");
            assert_eq!(s.epochs, 10, "margined selection must clamp to the cap");
        }
        // Grid values at/below the cap are untouched.
        assert_eq!(t.epochs_for(0.2, Statistic::Max).expect("valid").epochs, 8);
        // A table whose entries exceed its cap clamps them too.
        let tight = ResilienceTable::from_entries(
            vec![TableEntry {
                rate: 0.1,
                mean_epochs: 9.0,
                max_epochs: 12,
            }],
            6,
        )
        .expect("non-empty");
        assert_eq!(
            tight.epochs_for(0.1, Statistic::Max).expect("valid").epochs,
            6
        );
    }

    #[test]
    fn invalid_rates_rejected() {
        let t = table();
        assert!(t.epochs_for(f64::NAN, Statistic::Max).is_err());
        assert!(t.epochs_for(-0.1, Statistic::Max).is_err());
        assert!(ResilienceTable::from_entries(vec![], 5).is_err());
    }

    #[test]
    fn builder_generates_the_linear_grid() {
        let c = ResilienceConfig::builder()
            .max_rate(0.3)
            .points(4)
            .max_epochs(10)
            .constraint(0.91)
            .build()
            .expect("valid");
        assert_eq!(c.fault_rates.len(), 4);
        assert!((c.fault_rates[0] - 0.0).abs() < 1e-12);
        assert!((c.fault_rates[3] - 0.3).abs() < 1e-12);
        assert_eq!(c.repeats, 5, "paper default");
        assert_eq!(c.seed, 0xC0FFEE, "stable default seed");
    }

    #[test]
    fn builder_accepts_explicit_rates() {
        let c = ResilienceConfig::builder()
            .fault_rates(vec![0.0, 0.05, 0.2])
            .repeats(1)
            .build()
            .expect("valid");
        assert_eq!(c.fault_rates, vec![0.0, 0.05, 0.2]);
        assert_eq!(c.repeats, 1);
    }

    #[test]
    fn builder_rejects_invalid_configs_at_construction() {
        assert!(ResilienceConfig::builder().points(0).build().is_err());
        assert!(ResilienceConfig::builder()
            .max_rate(f64::NAN)
            .build()
            .is_err());
        assert!(ResilienceConfig::builder().max_rate(1.5).build().is_err());
        assert!(ResilienceConfig::builder().repeats(0).build().is_err());
        assert!(ResilienceConfig::builder().max_epochs(0).build().is_err());
        assert!(ResilienceConfig::builder().constraint(1.5).build().is_err());
        assert!(ResilienceConfig::builder()
            .fault_rates(vec![])
            .build()
            .is_err());
        assert!(ResilienceConfig::builder()
            .fault_rates(vec![0.1, f64::INFINITY])
            .build()
            .is_err());
        assert!(ResilienceConfig::builder()
            .fault_rates(vec![-0.1])
            .build()
            .is_err());
    }

    #[test]
    fn config_validation() {
        let mut c = ResilienceConfig::builder().build().expect("valid");
        c.repeats = 0;
        assert!(c.validate().is_err());
        let mut c = ResilienceConfig::builder().build().expect("valid");
        c.constraint = 1.5;
        assert!(c.validate().is_err());
        let mut c = ResilienceConfig::builder().build().expect("valid");
        c.fault_rates.clear();
        assert!(c.validate().is_err());
        let mut c = ResilienceConfig::builder().build().expect("valid");
        c.fault_rates.push(f64::NAN);
        assert!(c.validate().is_err());
    }

    #[test]
    fn text_round_trip() {
        let t = table();
        let parsed = ResilienceTable::from_text(&t.to_text()).expect("own format");
        assert_eq!(parsed, t);
    }

    #[test]
    fn from_text_rejects_malformed_documents() {
        assert!(ResilienceTable::from_text("").is_err());
        assert!(ResilienceTable::from_text("# wrong header\n").is_err());
        let good = table().to_text();
        assert!(ResilienceTable::from_text(&good.replace("epoch_cap 10", "epoch_cap x")).is_err());
        assert!(ResilienceTable::from_text(&good.replace("0.1 2 4", "0.1 2 4 9")).is_err());
        assert!(ResilienceTable::from_text(&good.replace("0.1 2 4", "5.0 2 4")).is_err());
        // Comments and blank lines are tolerated.
        let commented = format!("{good}\n# trailing comment\n\n");
        assert!(ResilienceTable::from_text(&commented).is_ok());
    }

    #[test]
    fn tables_reject_budgets_that_are_not_whole_epoch_counts() {
        // `epochs_for` would turn a NaN or negative mean into a 0-epoch
        // budget and an infinite one into the epoch cap, so no constructor
        // may build such a row.
        let good = table().to_text();
        for bad_mean in ["nan", "NaN", "inf", "-inf", "-1"] {
            let text = good.replace("0.1 2 4", &format!("0.1 {bad_mean} 4"));
            let err = ResilienceTable::from_text(&text).expect_err("non-finite budget loaded");
            assert!(err.to_string().contains("mean_epochs"), "{err}");
        }
        for bad_rate in ["nan", "inf", "-1", "1.5"] {
            let text = good.replace("0.1 2 4", &format!("{bad_rate} 2 4"));
            assert!(
                ResilienceTable::from_text(&text).is_err(),
                "rate {bad_rate}"
            );
        }
        let entry = |rate, mean_epochs| TableEntry {
            rate,
            mean_epochs,
            max_epochs: 1,
        };
        assert!(ResilienceTable::from_entries(vec![entry(f64::NAN, 1.0)], 4).is_err());
        assert!(ResilienceTable::from_entries(vec![entry(0.1, f64::INFINITY)], 4).is_err());
        assert!(ResilienceTable::from_entries(vec![entry(0.1, -0.5)], 4).is_err());
        // Boundary values stay valid.
        assert!(ResilienceTable::from_entries(vec![entry(0.0, 0.0), entry(1.0, 9.0)], 4).is_ok());
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("reduce_table_test");
        let path = dir.join("table.txt");
        let t = table();
        t.save(&path).expect("temp dir writable");
        let back = ResilienceTable::load(&path).expect("just written");
        assert_eq!(back, t);
        assert!(ResilienceTable::load(&dir.join("missing.txt")).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn summarise_counts_failures_as_cap() {
        let config = ResilienceConfig {
            fault_rates: vec![0.1],
            max_epochs: 5,
            repeats: 2,
            constraint: 0.9,
            fault_model: reduce_systolic::FaultModel::Random,
            seed: 0,
        };
        let points = vec![
            ResiliencePoint {
                rate_index: 0,
                rate: 0.1,
                repeat: 0,
                pre_retrain_accuracy: 0.5,
                accuracy_after_epoch: vec![0.92, 0.93, 0.94, 0.94, 0.95],
                epochs_to_constraint: Some(1),
            },
            ResiliencePoint {
                rate_index: 0,
                rate: 0.1,
                repeat: 1,
                pre_retrain_accuracy: 0.4,
                accuracy_after_epoch: vec![0.5, 0.6, 0.7, 0.8, 0.85],
                epochs_to_constraint: None,
            },
        ];
        let quarantined = vec![FailedPoint {
            rate_index: 0,
            rate: 0.1,
            repeat: 2,
            attempts: 2,
            error: "chaos injection: forced failure (job 2, attempt 1)".to_string(),
        }];
        let s = summarise(&[0.1], &points, &quarantined, &config);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].min_epochs, 1);
        assert_eq!(s[0].max_epochs, 5);
        assert_eq!(s[0].failures, 1);
        assert_eq!(s[0].quarantined, 1);
        assert!((s[0].mean_epochs - 3.0).abs() < 1e-9);
        assert_eq!(s[0].mean_accuracy_at_level.len(), 6);
        assert!((s[0].mean_accuracy_at_level[0] - 0.45).abs() < 1e-6);
        assert!((s[0].mean_accuracy_at_level[1] - 0.71).abs() < 1e-6);
    }
}
