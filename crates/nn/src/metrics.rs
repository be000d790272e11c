//! Classification metrics.

use crate::error::{NnError, Result};
use reduce_tensor::Tensor;

/// Top-1 accuracy of logits against labels, in `[0, 1]`.
///
/// # Errors
///
/// Returns an error if `logits` is not a matrix or row count differs from
/// the label count.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    let preds = logits.argmax_rows()?;
    if preds.len() != labels.len() {
        return Err(NnError::InvalidConfig {
            what: format!("{} predictions for {} labels", preds.len(), labels.len()),
        });
    }
    if labels.is_empty() {
        return Err(NnError::InvalidConfig {
            what: "empty batch".to_string(),
        });
    }
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    Ok(correct as f32 / labels.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], [3, 2]).expect("ok");
        let acc = accuracy(&logits, &[0, 1, 1]).expect("consistent");
        assert!((acc - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn accuracy_validation() {
        let logits = Tensor::zeros([2, 2]);
        assert!(accuracy(&logits, &[0]).is_err());
        assert!(accuracy(&Tensor::zeros([0, 2]), &[]).is_err());
    }
}
