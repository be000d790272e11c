//! The end-to-end Reduce framework (Fig. 1 of the paper).
//!
//! [`Reduce`] wires the three steps together:
//!
//! 1. **Characterise** the DNN's resilience over a fault-rate grid
//!    ([`Reduce::characterize`]);
//! 2. **Select** a retraining amount per chip from the resilience table
//!    ([`Reduce::plan`]);
//! 3. **Retrain and deploy** each chip's fault-aware DNN
//!    ([`Reduce::deploy`]).

use crate::error::{ReduceError, Result};
use crate::exec::ExecConfig;
use crate::fat::{FatRunner, Mitigation};
use crate::fleet::{FleetEvaluation, FleetReport};
use crate::policy::RetrainPolicy;
use crate::resilience::{ResilienceAnalysis, ResilienceConfig, ResilienceTable, Selection};
use crate::telemetry::{self, Stage};
use crate::workbench::{Pretrained, Workbench};
use reduce_systolic::Chip;

/// The Reduce framework instance: a pre-trained DNN, its workbench, an
/// accuracy constraint, and (after Step ①) a resilience characterisation.
///
/// Every entry point takes an [`ExecConfig`] choosing the worker-thread
/// count (0 = auto) and the telemetry sink; results are identical at any
/// thread count.
///
/// # Examples
///
/// ```no_run
/// use reduce_core::exec::ExecConfig;
/// use reduce_core::{Reduce, ResilienceConfig, RetrainPolicy, Statistic, Workbench};
/// use reduce_systolic::{generate_fleet, FleetConfig};
///
/// # fn main() -> Result<(), reduce_core::ReduceError> {
/// let exec = ExecConfig::auto();
/// let workbench = Workbench::toy(7);
/// let mut reduce = Reduce::new(workbench, 0.9, 12)?;
/// // Step 1: resilience characterisation.
/// let grid = ResilienceConfig::builder()
///     .max_rate(0.25)
///     .points(4)
///     .max_epochs(10)
///     .build()?;
/// reduce.characterize(grid, &exec)?;
/// // Steps 2+3: per-chip selection + fault-aware retraining.
/// let mut fleet_cfg = FleetConfig::paper(0.25, 3);
/// fleet_cfg.chips = 10;
/// fleet_cfg.rows = 8;
/// fleet_cfg.cols = 8;
/// let fleet = generate_fleet(&fleet_cfg)?;
/// let report = reduce.deploy(&fleet, RetrainPolicy::Reduce(Statistic::Max), &exec)?;
/// println!("{} chips meet the constraint", report.satisfied);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Reduce {
    runner: FatRunner,
    pretrained: Pretrained,
    constraint: f32,
    analysis: Option<ResilienceAnalysis>,
}

impl Reduce {
    /// Creates a framework instance, pre-training the fault-free DNN for
    /// `pretrain_epochs` (the paper receives a pre-trained DNN as input;
    /// this reproduces that input).
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidConfig`] for a constraint outside
    /// `(0, 1]` and propagates training errors.
    pub fn new(workbench: Workbench, constraint: f32, pretrain_epochs: usize) -> Result<Self> {
        if !(0.0..=1.0).contains(&constraint) || constraint == 0.0 {
            return Err(ReduceError::InvalidConfig {
                what: format!("accuracy constraint {constraint} not in (0, 1]"),
            });
        }
        let pretrained = workbench.pretrain(pretrain_epochs)?;
        let runner = FatRunner::new(workbench)?;
        Ok(Reduce {
            runner,
            pretrained,
            constraint,
            analysis: None,
        })
    }

    /// Creates an instance from an existing pre-trained model (skips
    /// pre-training).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Reduce::new`] minus training.
    pub fn with_pretrained(
        workbench: Workbench,
        pretrained: Pretrained,
        constraint: f32,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&constraint) || constraint == 0.0 {
            return Err(ReduceError::InvalidConfig {
                what: format!("accuracy constraint {constraint} not in (0, 1]"),
            });
        }
        let runner = FatRunner::new(workbench)?;
        Ok(Reduce {
            runner,
            pretrained,
            constraint,
            analysis: None,
        })
    }

    /// The accuracy constraint.
    pub fn constraint(&self) -> f32 {
        self.constraint
    }

    /// The pre-trained fault-free model.
    pub fn pretrained(&self) -> &Pretrained {
        &self.pretrained
    }

    /// The FAT runner (datasets + retraining engine).
    pub fn runner(&self) -> &FatRunner {
        &self.runner
    }

    /// The Step-① analysis, if [`Reduce::characterize`] has run.
    pub fn analysis(&self) -> Option<&ResilienceAnalysis> {
        self.analysis.as_ref()
    }

    /// Step ①: runs the resilience characterisation over `exec`'s workers
    /// on the shared deterministic executor ([`crate::exec`]) — the
    /// analysis is byte-identical at any thread count. The config's
    /// constraint is overridden by this instance's, and its strategy by
    /// FAP (the paper's mitigation).
    ///
    /// # Errors
    ///
    /// Propagates characterisation errors.
    pub fn characterize(
        &mut self,
        mut config: ResilienceConfig,
        exec: &ExecConfig,
    ) -> Result<&ResilienceAnalysis> {
        config.constraint = self.constraint;
        config.strategy = Mitigation::Fap;
        let analysis = ResilienceAnalysis::run(&self.runner, &self.pretrained, config, exec)?;
        Ok(self.analysis.insert(analysis))
    }

    /// [`Reduce::characterize`] with checkpoint/resume: sealed grid cells
    /// are journaled to `checkpoint` and already-journaled cells are
    /// replayed instead of re-run (see
    /// [`ResilienceAnalysis::run_resumable`]).
    ///
    /// # Errors
    ///
    /// Propagates characterisation errors and checkpoint-write failures.
    pub fn characterize_resumable(
        &mut self,
        mut config: ResilienceConfig,
        exec: &ExecConfig,
        checkpoint: Option<&crate::journal::Checkpoint>,
    ) -> Result<&ResilienceAnalysis> {
        config.constraint = self.constraint;
        config.strategy = Mitigation::Fap;
        let analysis = ResilienceAnalysis::run_resumable(
            &self.runner,
            &self.pretrained,
            config,
            exec,
            checkpoint,
        )?;
        Ok(self.analysis.insert(analysis))
    }

    /// The Step-② lookup table.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::MissingCharacterization`] before
    /// [`Reduce::characterize`] has run.
    pub fn table(&self) -> Result<ResilienceTable> {
        self.analysis.as_ref().map(|a| a.table()).ok_or_else(|| {
            ReduceError::MissingCharacterization {
                reason: "call characterize() before table()".to_string(),
            }
        })
    }

    /// Step ②: plans the per-chip retraining amounts for a fleet without
    /// retraining anything. Emits a `Plan` stage pair to `exec`'s
    /// observer.
    ///
    /// # Errors
    ///
    /// Propagates selection errors (e.g. a Reduce policy without a table).
    pub fn plan(
        &self,
        fleet: &[Chip],
        policy: RetrainPolicy,
        exec: &ExecConfig,
    ) -> Result<Vec<Selection>> {
        telemetry::timed_stage(exec.observer(), Stage::Plan, || {
            let table = if policy.needs_table() {
                Some(self.table()?)
            } else {
                None
            };
            fleet
                .iter()
                .map(|chip| policy.epochs_for_chip(table.as_ref(), chip.fault_rate()))
                .collect()
        })
    }

    /// Steps ②+③: selects, retrains and evaluates every chip in the
    /// fleet over `exec`'s workers — the report is identical at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Propagates selection and training errors.
    pub fn deploy(
        &self,
        fleet: &[Chip],
        policy: RetrainPolicy,
        exec: &ExecConfig,
    ) -> Result<FleetReport> {
        let table = if policy.needs_table() {
            Some(self.table()?)
        } else {
            None
        };
        let mut eval = FleetEvaluation::new(policy, self.constraint)
            .source(&fleet)
            .exec(exec)
            .collect_outcomes(true);
        if let Some(table) = table.as_ref() {
            eval = eval.table(table);
        }
        eval.run(&self.runner, &self.pretrained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::Statistic;
    use reduce_systolic::{generate_fleet, FaultModel, FleetConfig, RateDistribution};

    fn fleet(n: usize, hi: f64) -> Vec<Chip> {
        generate_fleet(&FleetConfig {
            chips: n,
            rows: 8,
            cols: 8,
            rates: RateDistribution::Uniform { lo: 0.0, hi },
            model: FaultModel::Random,
            seed: 77,
        })
        .expect("valid fleet")
    }

    #[test]
    fn constraint_validation() {
        assert!(Reduce::new(Workbench::toy(1), 0.0, 1).is_err());
        assert!(Reduce::new(Workbench::toy(1), 1.5, 1).is_err());
    }

    #[test]
    fn table_before_characterize_is_error() {
        let r = Reduce::new(Workbench::toy(2), 0.9, 2).expect("valid");
        assert!(matches!(
            r.table(),
            Err(ReduceError::MissingCharacterization { .. })
        ));
        assert!(r.analysis().is_none());
    }

    #[test]
    fn end_to_end_pipeline() {
        let wb = Workbench::toy(31);
        let mut reduce = Reduce::new(wb, 0.88, 12).expect("valid");
        let baseline = reduce.pretrained().baseline_accuracy;
        assert!(
            baseline > 0.88,
            "baseline {baseline} below the test constraint"
        );
        // Step 1 on a coarse grid.
        let exec = ExecConfig::default();
        let grid = ResilienceConfig::builder()
            .fault_rates(vec![0.0, 0.1, 0.25])
            .max_epochs(8)
            .repeats(2)
            .constraint(0.88)
            .fault_model(FaultModel::Random)
            .strategy(Mitigation::Fap)
            .seed(3)
            .build()
            .expect("valid grid");
        reduce
            .characterize(grid, &exec)
            .expect("characterisation runs");
        let table = reduce.table().expect("characterised");
        assert_eq!(table.entries().len(), 3);
        // Step 2: plans scale with fault rate.
        let chips = fleet(6, 0.25);
        let plan = reduce
            .plan(&chips, RetrainPolicy::Reduce(Statistic::Max), &exec)
            .expect("table available");
        assert_eq!(plan.len(), 6);
        // Step 3: deploy; Reduce should meet the constraint on most chips.
        let report = reduce
            .deploy(&chips, RetrainPolicy::Reduce(Statistic::Max), &exec)
            .expect("deployment runs");
        assert_eq!(report.evaluated, 6);
        assert!(
            report.satisfied >= 4,
            "Reduce(max) satisfied only {}/6 chips",
            report.satisfied
        );
        // Fixed-0 baseline must be no better in yield.
        let fixed0 = reduce
            .deploy(&chips, RetrainPolicy::Fixed(0), &exec)
            .expect("deployment runs");
        assert!(fixed0.satisfied <= report.satisfied);
        assert_eq!(fixed0.total_epochs, 0);
    }

    #[test]
    fn plan_without_table_for_fixed_policy_works() {
        let r = Reduce::new(Workbench::toy(4), 0.9, 2).expect("valid");
        let exec = ExecConfig::default();
        let chips = fleet(3, 0.1);
        let plan = r
            .plan(&chips, RetrainPolicy::Fixed(2), &exec)
            .expect("fixed needs no table");
        assert!(plan.iter().all(|s| s.epochs == 2));
        assert!(r
            .plan(&chips, RetrainPolicy::Reduce(Statistic::Max), &exec)
            .is_err());
    }
}
