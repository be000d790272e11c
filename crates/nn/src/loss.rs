//! Loss functions.
//!
//! Each loss returns both the scalar loss and the gradient with respect to
//! the network output, ready to feed into the model's backward pass.

use crate::error::{NnError, Result};
use reduce_tensor::{ops, Tensor};

/// Value and gradient of a loss evaluated on one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct LossOutput {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Gradient of the mean loss w.r.t. the network output.
    pub grad: Tensor,
}

/// A differentiable loss over batched predictions.
pub trait Loss: std::fmt::Debug + Send {
    /// Evaluates the loss and its gradient.
    ///
    /// # Errors
    ///
    /// Returns an error if predictions and targets are inconsistent.
    fn evaluate(&self, predictions: &Tensor, targets: Target<'_>) -> Result<LossOutput>;
}

/// Training targets: one class label per batch row.
///
/// Targets borrow the caller's data — a trainer hands each batch's label
/// slice straight through without copying it per batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target<'a> {
    /// One class index per batch row.
    Labels(&'a [usize]),
}

/// Softmax cross-entropy over logits, fused for numerical stability.
///
/// `loss = -(1/N) Σ log softmax(logits)[i, y_i]`, and the gradient has the
/// classic closed form `softmax(logits) - onehot(y)` scaled by `1/N`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossEntropyLoss;

impl Loss for CrossEntropyLoss {
    fn evaluate(&self, predictions: &Tensor, targets: Target<'_>) -> Result<LossOutput> {
        let Target::Labels(labels) = targets;
        let (n, c) = predictions.shape().as_matrix()?;
        if labels.len() != n {
            return Err(NnError::InvalidConfig {
                what: format!("{} labels for {n} predictions", labels.len()),
            });
        }
        if n == 0 {
            return Err(NnError::InvalidConfig {
                what: "empty batch".to_string(),
            });
        }
        let log_probs = ops::log_softmax_rows(predictions)?;
        let mut loss = 0.0f32;
        for (i, &y) in labels.iter().enumerate() {
            if y >= c {
                return Err(NnError::InvalidConfig {
                    what: format!("label {y} >= classes {c}"),
                });
            }
            loss -= log_probs.data()[i * c + y];
        }
        loss /= n as f32;
        let mut grad = ops::softmax_rows(predictions)?;
        let inv = 1.0 / n as f32;
        for (i, &y) in labels.iter().enumerate() {
            grad.data_mut()[i * c + y] -= 1.0;
        }
        grad.scale(inv);
        Ok(LossOutput { loss, grad })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Tensor::zeros([2, 4]);
        let out = CrossEntropyLoss
            .evaluate(&logits, Target::Labels(&[0, 1]))
            .expect("valid");
        assert!((out.loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_confident_correct_is_small() {
        let mut logits = Tensor::zeros([1, 3]);
        logits.data_mut()[1] = 20.0;
        let out = CrossEntropyLoss
            .evaluate(&logits, Target::Labels(&[1]))
            .expect("valid");
        assert!(out.loss < 1e-6);
    }

    #[test]
    fn cross_entropy_grad_matches_finite_diff() {
        let logits = Tensor::rand_uniform([3, 4], -2.0, 2.0, 1);
        let labels = Target::Labels(&[2, 0, 3]);
        let out = CrossEntropyLoss.evaluate(&logits, labels).expect("valid");
        let eps = 1e-3;
        for i in [0usize, 5, 11] {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let fp = CrossEntropyLoss.evaluate(&lp, labels).expect("valid").loss;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let fm = CrossEntropyLoss.evaluate(&lm, labels).expect("valid").loss;
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - out.grad.data()[i]).abs() < 1e-3, "at {i}");
        }
    }

    #[test]
    fn cross_entropy_grad_rows_sum_to_zero() {
        let logits = Tensor::rand_uniform([4, 5], -1.0, 1.0, 2);
        let out = CrossEntropyLoss
            .evaluate(&logits, Target::Labels(&[0, 1, 2, 3]))
            .expect("valid");
        for i in 0..4 {
            let s: f32 = out.grad.row_slice(i).expect("in range").iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_validation() {
        let logits = Tensor::zeros([2, 3]);
        assert!(CrossEntropyLoss
            .evaluate(&logits, Target::Labels(&[0]))
            .is_err());
        assert!(CrossEntropyLoss
            .evaluate(&logits, Target::Labels(&[0, 3]))
            .is_err());
        assert!(CrossEntropyLoss
            .evaluate(&Tensor::zeros([0, 3]), Target::Labels(&[]))
            .is_err());
    }
}
