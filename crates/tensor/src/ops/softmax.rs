//! Row-wise softmax and related numerically-stable kernels.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// Row-wise softmax of a `(m, n)` matrix, numerically stabilised by
/// max-subtraction.
///
/// # Errors
///
/// Returns an error for non-matrix input or zero columns.
///
/// # Examples
///
/// ```
/// use reduce_tensor::{ops::softmax_rows, Tensor};
///
/// # fn main() -> Result<(), reduce_tensor::TensorError> {
/// let logits = Tensor::from_vec(vec![0.0, 0.0], [1, 2])?;
/// let p = softmax_rows(&logits)?;
/// assert!((p.data()[0] - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn softmax_rows(x: &Tensor) -> Result<Tensor> {
    let (m, n) = x.shape().as_matrix()?;
    if n == 0 {
        return Err(TensorError::InvalidArgument {
            op: "softmax_rows",
            reason: "zero columns".to_string(),
        });
    }
    let mut out = x.clone();
    for i in 0..m {
        let row = &mut out.data_mut()[i * n..(i + 1) * n];
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - mx).exp();
            denom += *v;
        }
        for v in row.iter_mut() {
            *v /= denom;
        }
    }
    Ok(out)
}

/// Row-wise log-softmax (stable), used by the cross-entropy loss.
///
/// # Errors
///
/// Same conditions as [`softmax_rows`].
pub fn log_softmax_rows(x: &Tensor) -> Result<Tensor> {
    let (m, n) = x.shape().as_matrix()?;
    if n == 0 {
        return Err(TensorError::InvalidArgument {
            op: "log_softmax_rows",
            reason: "zero columns".to_string(),
        });
    }
    let mut out = x.clone();
    for i in 0..m {
        let row = &mut out.data_mut()[i * n..(i + 1) * n];
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = row.iter().map(|&v| (v - mx).exp()).sum::<f32>().ln() + mx;
        for v in row.iter_mut() {
            *v -= lse;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::rand_uniform([4, 7], -5.0, 5.0, 3);
        let p = softmax_rows(&x).expect("matrix");
        for i in 0..4 {
            let s: f32 = p.row_slice(i).expect("in range").iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(p.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1000.0], [1, 2]).expect("ok");
        let p = softmax_rows(&x).expect("matrix");
        assert!(p.all_finite());
        assert!((p.data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = Tensor::rand_uniform([3, 5], -2.0, 2.0, 4);
        let a = log_softmax_rows(&x).expect("matrix");
        let b = softmax_rows(&x).expect("matrix").map(|v| v.ln());
        assert!(a.approx_eq(&b, 1e-5));
    }

    #[test]
    fn softmax_invariant_to_shift() {
        let x = Tensor::rand_uniform([2, 4], -1.0, 1.0, 5);
        let shifted = &x + 7.5;
        let a = softmax_rows(&x).expect("matrix");
        let b = softmax_rows(&shifted).expect("matrix");
        assert!(a.approx_eq(&b, 1e-5));
    }

    #[test]
    fn softmax_rejects_non_matrix() {
        assert!(softmax_rows(&Tensor::zeros([3])).is_err());
        assert!(log_softmax_rows(&Tensor::zeros([2, 0])).is_err());
    }
}
