//! Mini-batch training loop.
//!
//! The [`Trainer`] is deliberately epoch-granular: `reduce-core` drives
//! fault-aware retraining one epoch at a time so it can stop exactly when a
//! chip's accuracy constraint is met and charge the chip for the epochs it
//! actually consumed.

use crate::error::{NnError, Result};
use crate::layers::Mode;
use crate::loss::{Loss, Target};
use crate::metrics::accuracy;
use crate::model::Sequential;
use crate::optim::Optimizer;
use crate::scheduler::LrSchedule;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use reduce_tensor::Tensor;

/// Configuration for a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Mini-batch size (the last batch may be smaller).
    pub batch_size: usize,
    /// Seed for per-epoch shuffling.
    pub shuffle_seed: u64,
    /// Learning-rate schedule applied on top of the optimizer's base rate.
    pub schedule: LrSchedule,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 32,
            shuffle_seed: 0,
            schedule: LrSchedule::Constant,
        }
    }
}

/// Statistics of an evaluation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalStats {
    /// Mean loss over the dataset.
    pub loss: f32,
    /// Top-1 accuracy over the dataset.
    pub accuracy: f32,
}

/// The shape of a batch of `count` samples drawn from `x`.
fn batch_dims(x: &Tensor, count: usize) -> Result<Vec<usize>> {
    let dims = x.dims();
    if dims.is_empty() {
        return Err(NnError::InvalidConfig {
            what: "cannot batch a scalar".to_string(),
        });
    }
    let mut out = dims.to_vec();
    out[0] = count;
    Ok(out)
}

/// Copies samples `idx` (along dim 0) of `x` into `out`, which must already
/// have the [`batch_dims`] shape for `idx.len()` samples.
///
/// Works for any rank ≥ 1 because samples are contiguous in row-major
/// layout. This is the workspace-friendly form: the caller provides the
/// destination buffer, so steady-state batch slicing allocates nothing.
fn gather_samples_into(x: &Tensor, idx: &[usize], out: &mut Tensor) -> Result<()> {
    let dims = x.dims();
    let n = dims.first().copied().unwrap_or(0);
    let stride: usize = dims.get(1..).unwrap_or(&[]).iter().product();
    let dst = out.data_mut();
    for (k, &i) in idx.iter().enumerate() {
        if i >= n {
            return Err(NnError::InvalidConfig {
                what: format!("sample index {i} out of range ({n} samples)"),
            });
        }
        dst[k * stride..(k + 1) * stride].copy_from_slice(&x.data()[i * stride..(i + 1) * stride]);
    }
    Ok(())
}

/// Copies the contiguous sample range `[start, end)` of `x` into `out`.
fn slice_samples_into(x: &Tensor, start: usize, end: usize, out: &mut Tensor) -> Result<()> {
    let stride: usize = x.dims().get(1..).unwrap_or(&[]).iter().product();
    out.data_mut()
        .copy_from_slice(&x.data()[start * stride..end * stride]);
    Ok(())
}

/// Copies samples `idx` (along dim 0) of `x` into a new tensor.
///
/// Allocating convenience wrapper around [`gather_samples_into`].
#[cfg(test)]
fn gather_samples(x: &Tensor, idx: &[usize]) -> Result<Tensor> {
    let mut out = Tensor::zeros(batch_dims(x, idx.len())?);
    gather_samples_into(x, idx, &mut out)?;
    Ok(out)
}

/// Evaluates `model` on `(x, labels)` in eval mode, batched.
///
/// # Errors
///
/// Returns an error on shape inconsistencies or an empty dataset.
pub fn evaluate(
    model: &mut Sequential,
    loss: &dyn Loss,
    x: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<EvalStats> {
    let n = x.dims().first().copied().unwrap_or(0);
    if n == 0 || labels.len() != n {
        return Err(NnError::InvalidConfig {
            what: format!("dataset has {n} samples and {} labels", labels.len()),
        });
    }
    if batch_size == 0 {
        return Err(NnError::InvalidConfig {
            what: "batch_size must be nonzero".to_string(),
        });
    }
    let mut total_loss = 0.0f64;
    let mut correct = 0usize;
    let mut start = 0usize;
    while start < n {
        let end = (start + batch_size).min(n);
        // Batch input comes from (and returns to) the model's workspace;
        // labels are borrowed straight from the caller's slice.
        let mut bx = model
            .workspace_mut()
            .take_unzeroed(batch_dims(x, end - start)?);
        slice_samples_into(x, start, end, &mut bx)?;
        let by = &labels[start..end];
        let logits = model.forward(&bx, Mode::Eval)?;
        model.workspace_mut().give(bx);
        let out = loss.evaluate(&logits, Target::Labels(by))?;
        total_loss += out.loss as f64 * (end - start) as f64;
        correct += (accuracy(&logits, by)? * (end - start) as f32).round() as usize;
        model.workspace_mut().give(logits);
        model.workspace_mut().give(out.grad);
        start = end;
    }
    Ok(EvalStats {
        // xtask:allow(lossy-float-cast): f64 accumulator narrowed once for reporting
        loss: (total_loss / n as f64) as f32,
        accuracy: correct as f32 / n as f32,
    })
}

/// A mini-batch SGD training driver.
#[derive(Debug)]
pub struct Trainer {
    optimizer: Box<dyn Optimizer>,
    loss: Box<dyn Loss>,
    config: TrainConfig,
    base_lr: f32,
    epochs_run: usize,
}

impl Trainer {
    /// Creates a trainer from an optimizer, a loss and a configuration.
    pub fn new<O, L>(optimizer: O, loss: L, config: TrainConfig) -> Self
    where
        O: Optimizer + 'static,
        L: Loss + 'static,
    {
        let base_lr = optimizer.learning_rate();
        Trainer {
            optimizer: Box::new(optimizer),
            loss: Box::new(loss),
            config,
            base_lr,
            epochs_run: 0,
        }
    }

    /// Runs one epoch of training on `(x, labels)`.
    ///
    /// # Errors
    ///
    /// Returns an error on empty/ill-shaped data or optimizer failure.
    pub fn train_epoch(
        &mut self,
        model: &mut Sequential,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<()> {
        let n = x.dims().first().copied().unwrap_or(0);
        if n == 0 || labels.len() != n {
            return Err(NnError::InvalidConfig {
                what: format!("dataset has {n} samples and {} labels", labels.len()),
            });
        }
        if self.config.batch_size == 0 {
            return Err(NnError::InvalidConfig {
                what: "batch_size must be nonzero".to_string(),
            });
        }
        let epoch = self.epochs_run;
        self.optimizer
            .set_learning_rate(self.config.schedule.rate(self.base_lr, epoch));

        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SmallRng::seed_from_u64(self.config.shuffle_seed.wrapping_add(epoch as u64));
        order.shuffle(&mut rng);

        // One label buffer reused across batches; the loss borrows it.
        let mut by: Vec<usize> = Vec::with_capacity(self.config.batch_size);
        for chunk in order.chunks(self.config.batch_size) {
            let mut bx = model
                .workspace_mut()
                .take_unzeroed(batch_dims(x, chunk.len())?);
            gather_samples_into(x, chunk, &mut bx)?;
            by.clear();
            by.extend(chunk.iter().map(|&i| labels[i]));
            let logits = model.forward(&bx, Mode::Train)?;
            model.workspace_mut().give(bx);
            let out = self.loss.evaluate(&logits, Target::Labels(&by))?;
            model.workspace_mut().give(logits);
            model.zero_grad();
            model.backward_params(&out.grad)?;
            model.workspace_mut().give(out.grad);
            let mut params = model.params_mut();
            self.optimizer.step(&mut params)?;
        }
        self.epochs_run += 1;
        Ok(())
    }

    /// Runs `epochs` epochs.
    ///
    /// # Errors
    ///
    /// Propagates the first failing epoch's error.
    pub fn fit(
        &mut self,
        model: &mut Sequential,
        x: &Tensor,
        labels: &[usize],
        epochs: usize,
    ) -> Result<()> {
        for _ in 0..epochs {
            self.train_epoch(model, x, labels)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use crate::loss::CrossEntropyLoss;
    use crate::optim::Sgd;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Linearly separable 2-class blobs.
    fn blobs(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { -1.5f32 } else { 1.5f32 };
            let noise = Tensor::rand_normal_with([2], 0.0, 0.4, &mut rng);
            data.push(center + noise.data()[0]);
            data.push(center + noise.data()[1]);
            labels.push(class);
        }
        (
            Tensor::from_vec(data, [n, 2]).expect("length matches"),
            labels,
        )
    }

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = SmallRng::seed_from_u64(seed);
        Sequential::new()
            .push(Linear::new(2, 16, &mut rng))
            .push(Relu::new())
            .push(Linear::new(16, 2, &mut rng))
    }

    #[test]
    fn training_learns_blobs() {
        let (x, y) = blobs(200, 1);
        let mut model = tiny_model(2);
        let mut trainer = Trainer::new(
            Sgd::with_momentum(0.1, 0.9),
            CrossEntropyLoss,
            TrainConfig::default(),
        );
        let before = evaluate(&mut model, &CrossEntropyLoss, &x, &y, 32).expect("valid data");
        trainer.fit(&mut model, &x, &y, 10).expect("valid data");
        let after = evaluate(&mut model, &CrossEntropyLoss, &x, &y, 32).expect("valid data");
        assert!(after.accuracy > 0.95, "accuracy {}", after.accuracy);
        // Loss decreased.
        assert!(after.loss < before.loss);
    }

    #[test]
    fn training_is_deterministic_for_fixed_seeds() {
        let (x, y) = blobs(64, 3);
        let run = || {
            let mut model = tiny_model(4);
            let mut trainer =
                Trainer::new(Sgd::new(0.05), CrossEntropyLoss, TrainConfig::default());
            trainer.fit(&mut model, &x, &y, 3).expect("valid data");
            model.state_dict()
        };
        let a = run();
        let b = run();
        for ((_, t1), (_, t2)) in a.iter().zip(&b) {
            assert_eq!(t1, t2);
        }
    }

    #[test]
    fn masked_weights_stay_zero_through_training() {
        let (x, y) = blobs(64, 7);
        let mut model = tiny_model(8);
        let mut mask = Tensor::ones([16, 2]);
        for j in 0..8 {
            mask.data_mut()[j * 2] = 0.0;
        }
        model
            .set_weight_masks(&[Some(mask), None])
            .expect("count matches");
        let mut trainer = Trainer::new(
            Sgd::with_momentum(0.1, 0.9),
            CrossEntropyLoss,
            TrainConfig::default(),
        );
        trainer.fit(&mut model, &x, &y, 5).expect("valid data");
        assert!(
            model.mask_invariants_hold(),
            "mask invariant violated by training"
        );
    }

    #[test]
    fn validation_errors() {
        let mut model = tiny_model(9);
        let mut trainer = Trainer::new(Sgd::new(0.1), CrossEntropyLoss, TrainConfig::default());
        // Mismatched labels.
        let x = Tensor::zeros([4, 2]);
        assert!(trainer.train_epoch(&mut model, &x, &[0, 1]).is_err());
        // Empty dataset.
        assert!(trainer
            .train_epoch(&mut model, &Tensor::zeros([0, 2]), &[])
            .is_err());
        // Zero batch size.
        let mut trainer = Trainer::new(
            Sgd::new(0.1),
            CrossEntropyLoss,
            TrainConfig {
                batch_size: 0,
                ..TrainConfig::default()
            },
        );
        assert!(trainer.train_epoch(&mut model, &x, &[0, 1, 0, 1]).is_err());
    }

    #[test]
    fn gather_samples_reorders() {
        let x = Tensor::from_fn([3, 2], |i| i as f32);
        let g = gather_samples(&x, &[2, 0]).expect("indices valid");
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0]);
        assert!(gather_samples(&x, &[3]).is_err());
    }

    #[test]
    fn evaluate_validates_input() {
        let mut model = tiny_model(10);
        assert!(evaluate(
            &mut model,
            &CrossEntropyLoss,
            &Tensor::zeros([0, 2]),
            &[],
            4
        )
        .is_err());
        assert!(evaluate(
            &mut model,
            &CrossEntropyLoss,
            &Tensor::zeros([2, 2]),
            &[0, 1],
            0
        )
        .is_err());
    }
}
