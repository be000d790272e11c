//! Fault-aware training (FAT) — Step ③ of the Reduce pipeline, and the
//! engine behind the Step ① resilience characterisation.
//!
//! Given a pre-trained DNN and a chip's fault map, the runner derives the
//! FAP pruning masks the chip's bypassed PEs induce on every GEMM weight
//! matrix, installs them, and retrains the masked network so the surviving
//! weights compensate — evaluating test accuracy after every epoch so
//! callers can reason about *epochs-to-accuracy*.

use crate::error::{ReduceError, Result};
use crate::telemetry::{EpochScope, Event};
use crate::workbench::{Pretrained, Workbench};
use reduce_data::Dataset;
use reduce_nn::{Sequential, Workspace};
use reduce_systolic::{fam_mapping, fap_mask, FaultMap};
use reduce_tensor::Tensor;

/// Which fault-mitigation mapping derives the masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mitigation {
    /// Fault-aware pruning: the identity mapping of Zhang et al. — weights
    /// land where they land, faulty PEs zero them. (The paper's setting.)
    #[default]
    Fap,
    /// Fault-aware mapping (SalvageDNN): permute output channels so the
    /// least-salient weights land on faulty columns before pruning.
    Fam,
}

/// The result of fault-aware-retraining one chip.
#[derive(Debug, Clone)]
pub struct FatOutcome {
    /// Test accuracy after masking but before any retraining (i.e. plain
    /// FAP, or FAM for the [`Mitigation::Fam`] strategy).
    pub pre_retrain_accuracy: f32,
    /// Test accuracy after each completed FAT epoch.
    pub accuracy_after_epoch: Vec<f32>,
    /// Fraction of all GEMM weights pruned by the chip's fault map.
    pub pruned_fraction: f32,
    /// Final masked weights (deployable to the chip).
    pub final_state: Vec<(String, Tensor)>,
}

impl FatOutcome {
    /// Test accuracy after all executed epochs (the deployed accuracy).
    ///
    /// Outcomes produced by [`FatRunner::run`] are guaranteed finite (the
    /// runner fails with [`ReduceError::Divergence`] otherwise); callers
    /// constructing outcomes by hand should run [`FatOutcome::ensure_finite`]
    /// before aggregating.
    pub fn final_accuracy(&self) -> f32 {
        self.accuracy_after_epoch
            .last()
            .copied()
            .unwrap_or(self.pre_retrain_accuracy)
    }

    /// Errors if any recorded accuracy is non-finite.
    ///
    /// NaN compares false against every constraint, so a diverged run would
    /// otherwise read as "constraint never reached" in
    /// [`FatOutcome::epochs_to_reach`] and poison fleet aggregates silently.
    /// This surfaces it as a typed [`ReduceError::Divergence`] instead.
    ///
    /// # Errors
    ///
    /// [`ReduceError::Divergence`] naming the first non-finite quantity.
    pub fn ensure_finite(&self) -> Result<()> {
        if !self.pre_retrain_accuracy.is_finite() {
            return Err(ReduceError::Divergence {
                what: format!("pre-retrain accuracy is {}", self.pre_retrain_accuracy),
            });
        }
        for (i, &a) in self.accuracy_after_epoch.iter().enumerate() {
            if !a.is_finite() {
                return Err(ReduceError::Divergence {
                    what: format!("accuracy after epoch {} is {a}", i + 1),
                });
            }
        }
        Ok(())
    }

    /// The smallest number of epochs after which accuracy reached
    /// `constraint` (0 = met before retraining), or `None` if it never did
    /// within the executed epochs.
    ///
    /// Assumes finite accuracies (see [`FatOutcome::ensure_finite`]): a NaN
    /// would compare false here and masquerade as an unmet constraint.
    pub fn epochs_to_reach(&self, constraint: f32) -> Option<usize> {
        if self.pre_retrain_accuracy >= constraint {
            return Some(0);
        }
        self.accuracy_after_epoch
            .iter()
            .position(|&a| a >= constraint)
            .map(|i| i + 1)
    }

    /// Number of FAT epochs actually executed.
    pub fn epochs_run(&self) -> usize {
        self.accuracy_after_epoch.len()
    }

    /// One [`Event::EpochCompleted`] per executed epoch (1-based), in
    /// epoch order: the telemetry a finished run reports under `scope`.
    pub(crate) fn epoch_events(&self, scope: EpochScope) -> impl Iterator<Item = Event> + '_ {
        (1..)
            .zip(&self.accuracy_after_epoch)
            .map(move |(epoch, &accuracy)| Event::EpochCompleted {
                scope,
                epoch,
                accuracy,
            })
    }
}

/// Early-stop behaviour of a FAT run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Run exactly the budgeted number of epochs (deployment mode — the
    /// selected retraining amount is spent as planned).
    Exact,
    /// Stop as soon as test accuracy reaches the constraint
    /// (characterisation mode measures the full curve instead; this rule
    /// exists for the early-stop ablation).
    AtAccuracy(f32),
}

/// Drives fault-aware retraining for one workbench.
///
/// Construction materialises the datasets once; every run then builds a
/// fresh model, loads the pre-trained weights ([`FatRunner::run`]) or any
/// other state dict ([`FatRunner::run_from_state`]), installs the chip's
/// masks and retrains.
///
/// # Examples
///
/// ```
/// use reduce_core::{FatRunner, Mitigation, StopRule, Workbench};
/// use reduce_systolic::{FaultMap, FaultModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let workbench = Workbench::toy(1);
/// let pretrained = workbench.pretrain(5)?;
/// let runner = FatRunner::new(workbench)?;
/// let chip = FaultMap::generate(8, 8, 0.15, FaultModel::Random, 2)?;
/// let outcome = runner.run(&pretrained, &chip, 2, StopRule::Exact, Mitigation::Fap, 0)?;
/// assert_eq!(outcome.epochs_run(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FatRunner {
    workbench: Workbench,
    train: Dataset,
    test: Dataset,
    weight_dims: Vec<(usize, usize)>,
}

impl FatRunner {
    /// Creates a runner, materialising the workbench datasets.
    ///
    /// # Errors
    ///
    /// Propagates dataset/model construction errors.
    pub fn new(workbench: Workbench) -> Result<Self> {
        let (train, test) = workbench.datasets()?;
        let weight_dims = workbench.model.weight_dims()?;
        Ok(FatRunner {
            workbench,
            train,
            test,
            weight_dims,
        })
    }

    /// The workbench this runner executes.
    pub fn workbench(&self) -> &Workbench {
        &self.workbench
    }

    /// The training split.
    pub fn train_data(&self) -> &Dataset {
        &self.train
    }

    /// The held-out test split.
    pub fn test_data(&self) -> &Dataset {
        &self.test
    }

    /// `(out, in)` dims of the model's maskable GEMM weights.
    pub fn weight_dims(&self) -> &[(usize, usize)] {
        &self.weight_dims
    }

    /// Derives per-weight masks for `fault_map` under `strategy`.
    ///
    /// For [`Mitigation::Fam`] the saliency permutation is computed from
    /// the *pre-trained* weights in `model`.
    ///
    /// # Errors
    ///
    /// Rejects a fault map whose geometry does not match the workbench's
    /// systolic array (a wrong-sized map would otherwise mask the wrong
    /// weight tiles, or panic on an out-of-range index deep inside the
    /// mapping); propagates mapping errors.
    pub fn derive_masks(
        &self,
        model: &Sequential,
        fault_map: &FaultMap,
        strategy: Mitigation,
    ) -> Result<Vec<Option<Tensor>>> {
        let (rows, cols) = self.workbench.array_dims();
        if (fault_map.rows(), fault_map.cols()) != (rows, cols) {
            return Err(reduce_systolic::SystolicError::BadGeometry {
                reason: format!(
                    "fault map is {}x{} but the workbench targets a {rows}x{cols} array",
                    fault_map.rows(),
                    fault_map.cols()
                ),
            }
            .into());
        }
        let mut masks = Vec::with_capacity(self.weight_dims.len());
        match strategy {
            Mitigation::Fap => {
                for &(out, inp) in &self.weight_dims {
                    masks.push(Some(fap_mask(out, inp, fault_map)?));
                }
            }
            Mitigation::Fam => {
                for p in model.weight_params() {
                    masks.push(Some(fam_mapping(p.value(), fault_map)?.mask));
                }
            }
        }
        Ok(masks)
    }

    /// Loads `base_state` into a fresh model and installs the chip's masks,
    /// returning the masked model and its pruned weight fraction.
    ///
    /// `base_state` is keyed like [`Pretrained::state`]
    /// (`"{layer}.{param}"`): the pretrained weights for a cold start, or a
    /// cluster representative's converged [`FatOutcome::final_state`] for
    /// an eFAT warm start.
    ///
    /// Loading the state dict is O(1) per parameter: the returned model's
    /// tensors *share* the state dict's copy-on-write storage, so every
    /// concurrent FAT run (executor threads fan chips/grid cells out over
    /// this method) reads the same immutable buffers. Applying the masks
    /// is the first write and therefore the CoW trigger — masked weights
    /// un-share privately while untouched parameters (biases, norm scales)
    /// keep aliasing the state dict for the run's lifetime.
    ///
    /// # Errors
    ///
    /// Propagates build/load/mask errors.
    pub fn masked_model_from_state(
        &self,
        base_state: &[(String, Tensor)],
        fault_map: &FaultMap,
        strategy: Mitigation,
    ) -> Result<(Sequential, f32)> {
        let mut model = self.workbench.model.build_from_state(base_state)?;
        let masks = self.derive_masks(&model, fault_map, strategy)?;
        model.set_weight_masks(&masks)?;
        let (mut pruned, mut total) = (0usize, 0usize);
        for p in model.weight_params() {
            if let Some(m) = p.mask() {
                pruned += m.data().iter().filter(|&&v| v == 0.0).count();
                total += m.len();
            }
        }
        let fraction = if total == 0 {
            0.0
        } else {
            pruned as f32 / total as f32
        };
        Ok((model, fraction))
    }

    /// Evaluates the pre-trained model under **unprotected** execution:
    /// every weight on a faulty PE reads as `stuck_value` (no FAP bypass,
    /// no retraining).
    ///
    /// This reproduces the motivation for the whole mitigation stack:
    /// without FAP even a small fault fraction is catastrophic, because a
    /// stuck register contributes an arbitrary saturated value instead of
    /// zero.
    ///
    /// # Errors
    ///
    /// Propagates build/evaluation errors.
    pub fn unprotected_accuracy(
        &self,
        pretrained: &Pretrained,
        fault_map: &FaultMap,
        stuck_value: f32,
    ) -> Result<f32> {
        let mut model = self.workbench.model.build_from_state(&pretrained.state)?;
        for p in model.weight_params_mut() {
            let corrupted = reduce_systolic::stuck_at_weights(p.value(), fault_map, stuck_value)?;
            p.load_value(corrupted)?;
        }
        let mut model = model;
        Ok(self.workbench.evaluate(&mut model, &self.test)?.accuracy)
    }

    /// Refreshes batch-norm running statistics of a (typically just-masked)
    /// model by streaming the training set through it in train mode,
    /// `passes` times, without any weight updates.
    ///
    /// Masking shifts every layer's activation statistics; a
    /// batch-normalised network evaluated against its *pre-mask* running
    /// statistics collapses far below its true post-pruning accuracy. One
    /// or two recalibration passes repair this at the cost of `passes`
    /// forward epochs.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn recalibrate_statistics(&self, model: &mut Sequential, passes: usize) -> Result<()> {
        use reduce_nn::layers::Mode;
        let features = self.train.features();
        let dims = features.dims();
        let n = dims.first().copied().unwrap_or(0);
        let stride: usize = dims.iter().skip(1).product();
        let batch = self.workbench.train.batch_size.max(1);
        for _ in 0..passes {
            let mut start = 0usize;
            while start < n {
                let end = (start + batch).min(n);
                let mut batch_dims = dims.to_vec();
                if let Some(lead) = batch_dims.first_mut() {
                    *lead = end - start;
                }
                // Borrow the batch buffer from the model's workspace instead
                // of allocating a fresh Vec per batch; take() hands back a
                // uniquely-owned tensor, so data_mut() cannot deep-copy.
                let mut bx = model.workspace_mut().take(batch_dims);
                let slice = features
                    .data()
                    .get(start * stride..end * stride)
                    .ok_or_else(|| ReduceError::Internal {
                        invariant: "batch range lies within the feature buffer".to_string(),
                    })?;
                bx.data_mut().copy_from_slice(slice);
                let y = model.forward(&bx, Mode::Train)?;
                model.workspace_mut().give(bx);
                model.workspace_mut().give(y);
                start = end;
            }
        }
        Ok(())
    }

    /// Runs fault-aware retraining for one chip, cold-started from the
    /// pretrained weights on a private workspace.
    ///
    /// `max_epochs` bounds the retraining budget; with
    /// [`StopRule::AtAccuracy`] the run ends as soon as the constraint is
    /// met. `run_seed` decouples this run's shuffling from other chips'.
    /// If the workbench configures BN recalibration, it happens between
    /// masking and the first evaluation.
    ///
    /// # Errors
    ///
    /// Propagates training/evaluation errors.
    pub fn run(
        &self,
        pretrained: &Pretrained,
        fault_map: &FaultMap,
        max_epochs: usize,
        stop: StopRule,
        strategy: Mitigation,
        run_seed: u64,
    ) -> Result<FatOutcome> {
        self.run_from_state(
            &pretrained.state,
            fault_map,
            max_epochs,
            stop,
            strategy,
            run_seed,
            &mut Workspace::new(),
        )
    }

    /// [`FatRunner::run`] starting from an arbitrary state dict on a
    /// caller-owned workspace — the general entry point, of which `run` is
    /// the cold-start shortcut.
    ///
    /// **Warm start.** `base_state` is loaded through
    /// [`FatRunner::masked_model_from_state`]: pass
    /// [`Pretrained::state`] for a cold start, or (eFAT) a cluster
    /// representative's converged [`FatOutcome::final_state`]. With
    /// [`StopRule::AtAccuracy`] a member whose warm-started accuracy
    /// already meets the constraint spends zero retraining epochs — the
    /// source of eFAT's aggregate savings.
    ///
    /// **Pool.** The run trains out of `pool`: the arena is swapped into
    /// the model for the duration of the run and swapped back out before
    /// returning, with all the run's allocation traffic accumulated into
    /// the pool's counters, which the caller reads with
    /// [`reduce_nn::Workspace::stats`]. Step ① hands every grid cell a
    /// fresh pool; the epoch-budget scheduler runs a whole batch of chips
    /// through one, so only the first chip of a batch pays the warm-up
    /// allocations and every later chip trains entirely from recycled
    /// buffers. Accuracy results never observe the pool: recycled buffers
    /// are zeroed on `take`. If the run fails (divergence, injected chaos)
    /// the model — holding the swapped-in arena — is dropped with it, and
    /// the pool is left holding an empty arena; the next chip in the batch
    /// simply warms it up again. The loss is deterministic because
    /// failures are.
    ///
    /// # Errors
    ///
    /// Propagates training/evaluation errors.
    #[allow(clippy::too_many_arguments)] // `run`'s arguments plus state and pool
    pub fn run_from_state(
        &self,
        base_state: &[(String, Tensor)],
        fault_map: &FaultMap,
        max_epochs: usize,
        stop: StopRule,
        strategy: Mitigation,
        run_seed: u64,
        pool: &mut Workspace,
    ) -> Result<FatOutcome> {
        let (mut model, pruned_fraction) =
            self.masked_model_from_state(base_state, fault_map, strategy)?;
        std::mem::swap(model.workspace_mut(), pool);
        if self.workbench.bn_recalibration_passes > 0 {
            self.recalibrate_statistics(&mut model, self.workbench.bn_recalibration_passes)?;
        }
        let pre = self.workbench.evaluate(&mut model, &self.test)?.accuracy;
        if !pre.is_finite() {
            return Err(ReduceError::Divergence {
                what: format!("pre-retrain accuracy is {pre}"),
            });
        }
        let mut outcome = FatOutcome {
            pre_retrain_accuracy: pre,
            accuracy_after_epoch: Vec::with_capacity(max_epochs),
            pruned_fraction,
            final_state: Vec::new(),
        };
        let met_before_retraining = matches!(stop, StopRule::AtAccuracy(c) if pre >= c);
        if !met_before_retraining {
            let mut trainer = self.workbench.fat_trainer(run_seed);
            for epoch in 1..=max_epochs {
                trainer.train_epoch(&mut model, self.train.features(), self.train.labels())?;
                let acc = self.workbench.evaluate(&mut model, &self.test)?.accuracy;
                if !acc.is_finite() {
                    return Err(ReduceError::Divergence {
                        what: format!("accuracy after epoch {epoch} is {acc}"),
                    });
                }
                outcome.accuracy_after_epoch.push(acc);
                if let StopRule::AtAccuracy(c) = stop {
                    if acc >= c {
                        break;
                    }
                }
            }
            debug_assert!(model.mask_invariants_hold(), "FAT broke the mask invariant");
            if !model.mask_invariants_hold() {
                return Err(ReduceError::InvalidConfig {
                    what: "mask invariant violated after FAT".to_string(),
                });
            }
        }
        outcome.final_state = model.state_dict();
        std::mem::swap(model.workspace_mut(), pool);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reduce_systolic::FaultModel;

    fn runner() -> (FatRunner, Pretrained) {
        let wb = Workbench::toy(11);
        let pre = wb.pretrain(12).expect("valid workbench");
        (FatRunner::new(wb).expect("valid workbench"), pre)
    }

    fn map(rate: f64, seed: u64) -> FaultMap {
        FaultMap::generate(8, 8, rate, FaultModel::Random, seed).expect("valid rate")
    }

    #[test]
    fn faults_hurt_and_retraining_recovers() {
        let (runner, pre) = runner();
        let heavy = map(0.25, 1);
        let out = runner
            .run(&pre, &heavy, 10, StopRule::Exact, Mitigation::Fap, 0)
            .expect("valid run");
        assert!(
            out.pre_retrain_accuracy < pre.baseline_accuracy - 0.03,
            "25% faults should hurt: {} vs baseline {}",
            out.pre_retrain_accuracy,
            pre.baseline_accuracy
        );
        assert!(
            out.final_accuracy() > out.pre_retrain_accuracy + 0.02,
            "retraining should recover: {} -> {}",
            out.pre_retrain_accuracy,
            out.final_accuracy()
        );
        assert!(out.pruned_fraction > 0.15);
        assert_eq!(out.epochs_run(), 10);
    }

    #[test]
    fn fault_free_chip_needs_no_retraining() {
        let (runner, pre) = runner();
        let clean = map(0.0, 2);
        let out = runner
            .run(&pre, &clean, 3, StopRule::Exact, Mitigation::Fap, 0)
            .expect("valid run");
        assert!((out.pre_retrain_accuracy - pre.baseline_accuracy).abs() < 1e-6);
        assert_eq!(out.pruned_fraction, 0.0);
        assert_eq!(out.epochs_to_reach(pre.baseline_accuracy), Some(0));
    }

    #[test]
    fn early_stop_saves_epochs() {
        let (runner, pre) = runner();
        let light = map(0.05, 3);
        let constraint = pre.baseline_accuracy - 0.05;
        let exact = runner
            .run(&pre, &light, 8, StopRule::Exact, Mitigation::Fap, 0)
            .expect("valid run");
        let stopped = runner
            .run(
                &pre,
                &light,
                8,
                StopRule::AtAccuracy(constraint),
                Mitigation::Fap,
                0,
            )
            .expect("valid run");
        assert!(stopped.epochs_run() <= exact.epochs_run());
        if let Some(k) = stopped.epochs_to_reach(constraint) {
            assert_eq!(stopped.epochs_run(), k);
        }
    }

    #[test]
    fn epochs_to_reach_semantics() {
        let out = FatOutcome {
            pre_retrain_accuracy: 0.5,
            accuracy_after_epoch: vec![0.6, 0.8, 0.9],
            pruned_fraction: 0.1,
            final_state: Vec::new(),
        };
        assert_eq!(out.epochs_to_reach(0.4), Some(0));
        assert_eq!(out.epochs_to_reach(0.75), Some(2));
        assert_eq!(out.epochs_to_reach(0.95), None);
        assert_eq!(out.final_accuracy(), 0.9);
    }

    #[test]
    fn mismatched_fault_map_geometry_is_a_typed_error() {
        let (runner, pre) = runner();
        // The toy workbench targets an 8x8 array; hand it a 4x4 map.
        let wrong = FaultMap::generate(4, 4, 0.1, FaultModel::Random, 1).expect("valid rate");
        let err = runner
            .run(&pre, &wrong, 1, StopRule::Exact, Mitigation::Fap, 0)
            .expect_err("geometry mismatch must be rejected");
        match err {
            ReduceError::Systolic(reduce_systolic::SystolicError::BadGeometry { reason }) => {
                assert!(reason.contains("4x4"), "reason names the map: {reason}");
                assert!(reason.contains("8x8"), "reason names the array: {reason}");
            }
            other => panic!("expected BadGeometry, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_accuracies_are_typed_divergence_errors() {
        let nan_pre = FatOutcome {
            pre_retrain_accuracy: f32::NAN,
            accuracy_after_epoch: vec![0.5],
            pruned_fraction: 0.1,
            final_state: Vec::new(),
        };
        match nan_pre.ensure_finite() {
            Err(ReduceError::Divergence { what }) => {
                assert!(what.contains("pre-retrain"), "what: {what}");
            }
            other => panic!("expected Divergence, got {other:?}"),
        }
        let nan_epoch = FatOutcome {
            pre_retrain_accuracy: 0.5,
            accuracy_after_epoch: vec![0.6, f32::INFINITY],
            pruned_fraction: 0.1,
            final_state: Vec::new(),
        };
        match nan_epoch.ensure_finite() {
            Err(ReduceError::Divergence { what }) => {
                assert!(what.contains("epoch 2"), "what: {what}");
            }
            other => panic!("expected Divergence, got {other:?}"),
        }
        // NaN would otherwise masquerade as "constraint never reached":
        assert_eq!(nan_epoch.epochs_to_reach(0.55), Some(1));
        let healthy = FatOutcome {
            pre_retrain_accuracy: 0.5,
            accuracy_after_epoch: vec![0.6],
            pruned_fraction: 0.1,
            final_state: Vec::new(),
        };
        healthy.ensure_finite().expect("finite outcome passes");
    }

    #[test]
    fn runs_are_deterministic() {
        let (runner, pre) = runner();
        let m = map(0.1, 4);
        let a = runner
            .run(&pre, &m, 3, StopRule::Exact, Mitigation::Fap, 9)
            .expect("valid run");
        let b = runner
            .run(&pre, &m, 3, StopRule::Exact, Mitigation::Fap, 9)
            .expect("valid run");
        assert_eq!(a.accuracy_after_epoch, b.accuracy_after_epoch);
    }

    #[test]
    fn fam_pre_retrain_is_no_worse_on_average() {
        let (runner, pre) = runner();
        let mut fap_total = 0.0f32;
        let mut fam_total = 0.0f32;
        for seed in 0..5 {
            let m = map(0.2, 100 + seed);
            let fap = runner
                .run(&pre, &m, 0, StopRule::Exact, Mitigation::Fap, 0)
                .expect("valid run");
            let fam = runner
                .run(&pre, &m, 0, StopRule::Exact, Mitigation::Fam, 0)
                .expect("valid run");
            fap_total += fap.pre_retrain_accuracy;
            fam_total += fam.pre_retrain_accuracy;
        }
        assert!(
            fam_total >= fap_total - 0.05,
            "FAM ({fam_total}) much worse than FAP ({fap_total}) across seeds"
        );
    }

    #[test]
    fn masked_models_share_pretrained_storage_until_masked() {
        let (runner, pre) = runner();
        let m = map(0.2, 8);
        let (model, _) = runner
            .masked_model_from_state(&pre.state, &m, Mitigation::Fap)
            .expect("valid");
        let state = model.state_dict();
        assert_eq!(state.len(), pre.state.len());
        let (mut shared, mut unshared) = (0usize, 0usize);
        for ((name, t), (pre_name, pre_t)) in state.iter().zip(pre.state.iter()) {
            assert_eq!(name, pre_name);
            if t.shares_storage(pre_t) {
                shared += 1;
            } else {
                unshared += 1;
            }
        }
        // Installing the masks writes every GEMM weight (the CoW trigger),
        // un-sharing exactly those tensors; every other parameter still
        // aliases the single immutable pretrained snapshot.
        assert_eq!(unshared, runner.weight_dims().len());
        assert!(
            shared > 0,
            "non-weight parameters keep sharing the snapshot"
        );
    }

    #[test]
    fn two_masked_models_do_not_alias_each_other() {
        let (runner, pre) = runner();
        let (a, _) = runner
            .masked_model_from_state(&pre.state, &map(0.2, 8), Mitigation::Fap)
            .expect("valid");
        let (b, _) = runner
            .masked_model_from_state(&pre.state, &map(0.2, 9), Mitigation::Fap)
            .expect("valid");
        for ((_, ta), (_, tb)) in a.state_dict().iter().zip(b.state_dict().iter()) {
            if !ta.shares_storage(tb) {
                // Weights un-shared independently per chip: mutating one
                // model must never leak into the other.
                assert_ne!(
                    ta.data().as_ptr(),
                    tb.data().as_ptr(),
                    "un-shared weights must live in distinct buffers"
                );
            }
        }
    }

    #[test]
    fn steady_state_fat_epochs_are_allocation_free() {
        let (runner, pre) = runner();
        let m = map(0.1, 9);
        let pooled = |epochs| {
            let mut pool = Workspace::new();
            runner
                .run_from_state(
                    &pre.state,
                    &m,
                    epochs,
                    StopRule::Exact,
                    Mitigation::Fap,
                    3,
                    &mut pool,
                )
                .expect("valid run");
            pool.stats()
        };
        let (short, long) = (pooled(1), pooled(4));
        assert!(long.requests() > short.requests());
        assert_eq!(
            long.misses, short.misses,
            "epochs beyond warm-up must be served from the workspace pool"
        );
        assert_eq!(
            long.bytes_allocated, short.bytes_allocated,
            "epochs beyond warm-up must not allocate"
        );
    }

    #[test]
    fn masked_model_reports_pruned_fraction() {
        let (runner, pre) = runner();
        let m = map(0.25, 5);
        let (_, frac) = runner
            .masked_model_from_state(&pre.state, &m, Mitigation::Fap)
            .expect("valid");
        // Weight dims are multiples related to the 8x8 array; fraction
        // should be near the fault rate.
        assert!((frac - 0.25).abs() < 0.1, "fraction {frac}");
    }

    #[test]
    fn bn_recalibration_repairs_masked_statistics() {
        use crate::workbench::{ModelSpec, TaskSpec};
        use reduce_data::SynthImageConfig;
        use reduce_nn::models::VggConfig;
        // A tiny batch-normalised CNN on a small image task.
        let mut vgg = VggConfig::nano(4);
        vgg.input_hw = 8;
        vgg.width = 2;
        let mut images = SynthImageConfig::cifar_like(120, 0);
        images.classes = 4;
        images.hw = 8;
        let mut wb = Workbench::toy(301);
        wb.model = ModelSpec::Vgg(vgg);
        wb.task = TaskSpec::SynthImages {
            config: images,
            train_samples: 120,
            test_samples: 80,
        };
        let pre = wb.pretrain(6).expect("valid workbench");

        let stale_runner = FatRunner::new(wb.clone()).expect("valid workbench");
        let m = FaultMap::generate(8, 8, 0.15, FaultModel::Random, 3).expect("valid rate");
        let stale = stale_runner
            .run(&pre, &m, 0, StopRule::Exact, Mitigation::Fap, 0)
            .expect("valid run");

        wb.bn_recalibration_passes = 2;
        let recal_runner = FatRunner::new(wb).expect("valid workbench");
        let recal = recal_runner
            .run(&pre, &m, 0, StopRule::Exact, Mitigation::Fap, 0)
            .expect("valid run");
        assert!(
            recal.pre_retrain_accuracy >= stale.pre_retrain_accuracy - 0.02,
            "recalibration made things worse: {} vs stale {}",
            recal.pre_retrain_accuracy,
            stale.pre_retrain_accuracy
        );
    }

    #[test]
    fn recalibration_is_noop_for_bn_free_models() {
        let (runner, pre) = runner();
        let m = map(0.1, 7);
        let (mut model, _) = runner
            .masked_model_from_state(&pre.state, &m, Mitigation::Fap)
            .expect("valid");
        let before = runner
            .workbench()
            .evaluate(&mut model, runner.test_data())
            .expect("valid")
            .accuracy;
        runner
            .recalibrate_statistics(&mut model, 3)
            .expect("forward passes run");
        let after = runner
            .workbench()
            .evaluate(&mut model, runner.test_data())
            .expect("valid")
            .accuracy;
        assert_eq!(before, after, "BN-free model must be unaffected");
    }

    #[test]
    fn warm_start_resumes_from_the_donor_state() {
        let (runner, pre) = runner();
        let m = map(0.2, 12);
        // Representative: full FAT from the pretrained baseline.
        let rep = runner
            .run(&pre, &m, 6, StopRule::Exact, Mitigation::Fap, 0)
            .expect("valid run");
        // A zero-epoch warm run on the same fault map re-evaluates the
        // representative's converged state exactly.
        let warm = runner
            .run_from_state(
                &rep.final_state,
                &m,
                0,
                StopRule::Exact,
                Mitigation::Fap,
                1,
                &mut Workspace::new(),
            )
            .expect("valid run");
        assert_eq!(
            warm.pre_retrain_accuracy,
            rep.final_accuracy(),
            "warm start must pick up where the donor finished"
        );
        // Warm-starting from the donor begins at or near its converged
        // accuracy; cold-starting the same chip begins at the masked
        // pretrained accuracy, which retraining had to climb from.
        let cold = runner
            .run(&pre, &m, 0, StopRule::Exact, Mitigation::Fap, 1)
            .expect("valid run");
        assert!(
            warm.pre_retrain_accuracy >= cold.pre_retrain_accuracy,
            "warm {} must not start below cold {}",
            warm.pre_retrain_accuracy,
            cold.pre_retrain_accuracy
        );
    }

    #[test]
    fn warm_start_meets_constraint_without_spending_epochs() {
        let (runner, pre) = runner();
        let m = map(0.15, 13);
        let rep = runner
            .run(&pre, &m, 6, StopRule::Exact, Mitigation::Fap, 0)
            .expect("valid run");
        let constraint = rep.final_accuracy() - 0.01;
        let member = runner
            .run_from_state(
                &rep.final_state,
                &m,
                6,
                StopRule::AtAccuracy(constraint),
                Mitigation::Fap,
                2,
                &mut Workspace::new(),
            )
            .expect("valid run");
        assert_eq!(
            member.epochs_run(),
            0,
            "a member whose warm accuracy meets the constraint spends nothing"
        );
        assert_eq!(member.epochs_to_reach(constraint), Some(0));
    }

    #[test]
    fn zero_epoch_run_returns_pre_accuracy_only() {
        let (runner, pre) = runner();
        let m = map(0.1, 6);
        let out = runner
            .run(&pre, &m, 0, StopRule::Exact, Mitigation::Fap, 0)
            .expect("valid run");
        assert!(out.accuracy_after_epoch.is_empty());
        assert_eq!(out.final_accuracy(), out.pre_retrain_accuracy);
        assert!(!out.final_state.is_empty());
    }
}
