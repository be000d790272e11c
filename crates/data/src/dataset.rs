//! Labelled datasets and split utilities.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use reduce_tensor::{Tensor, TensorError};
use std::error::Error;
use std::fmt;

/// Error produced by dataset construction and manipulation.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A tensor-level operation failed.
    Tensor(TensorError),
    /// Labels/features/classes are mutually inconsistent.
    Inconsistent {
        /// What was inconsistent.
        reason: String,
    },
    /// A configuration value was rejected.
    InvalidConfig {
        /// What configuration was invalid.
        what: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Tensor(e) => write!(f, "tensor error: {e}"),
            DataError::Inconsistent { reason } => write!(f, "inconsistent dataset: {reason}"),
            DataError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl Error for DataError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DataError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for DataError {
    fn from(e: TensorError) -> Self {
        DataError::Tensor(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DataError>;

/// A labelled classification dataset.
///
/// Features are stored with samples along dimension 0 (rank 2 for tabular
/// data, rank 4 NCHW for images); labels are class indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Tensor,
    labels: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating feature/label consistency.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Inconsistent`] if sample and label counts
    /// differ, any label is out of range, or `classes` is zero.
    pub fn new(features: Tensor, labels: Vec<usize>, classes: usize) -> Result<Self> {
        let n = features.dims().first().copied().unwrap_or(0);
        if labels.len() != n {
            return Err(DataError::Inconsistent {
                reason: format!("{n} samples but {} labels", labels.len()),
            });
        }
        if classes == 0 {
            return Err(DataError::Inconsistent {
                reason: "zero classes".to_string(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
            return Err(DataError::Inconsistent {
                reason: format!("label {bad} >= classes {classes}"),
            });
        }
        Ok(Dataset {
            features,
            labels,
            classes,
        })
    }

    /// The feature tensor (samples along dim 0).
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// The class labels, one per sample.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Copies the samples at `idx` into a new dataset.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Inconsistent`] if any index is out of range.
    pub fn subset(&self, idx: &[usize]) -> Result<Dataset> {
        let n = self.len();
        let dims = self.features.dims();
        let stride: usize = dims[1..].iter().product();
        let mut data = Vec::with_capacity(idx.len() * stride);
        let mut labels = Vec::with_capacity(idx.len());
        for &i in idx {
            if i >= n {
                return Err(DataError::Inconsistent {
                    reason: format!("subset index {i} out of range ({n} samples)"),
                });
            }
            data.extend_from_slice(&self.features.data()[i * stride..(i + 1) * stride]);
            labels.push(self.labels[i]);
        }
        let mut out_dims = dims.to_vec();
        out_dims[0] = idx.len();
        Ok(Dataset {
            features: Tensor::from_vec(data, out_dims)?,
            labels,
            classes: self.classes,
        })
    }

    /// Splits into `(train, test)` with `train_fraction` of the samples in
    /// the first part, after a seeded shuffle.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] unless `0 < train_fraction < 1`.
    pub fn split(&self, train_fraction: f32, seed: u64) -> Result<(Dataset, Dataset)> {
        if !(0.0..1.0).contains(&train_fraction) || train_fraction == 0.0 {
            return Err(DataError::InvalidConfig {
                what: format!("train_fraction {train_fraction} not in (0, 1)"),
            });
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(&mut SmallRng::seed_from_u64(seed));
        let cut = ((self.len() as f32) * train_fraction).round() as usize;
        let cut = cut.min(self.len());
        Ok((self.subset(&order[..cut])?, self.subset(&order[cut..])?))
    }

    /// Flips a fraction of labels to a different uniformly random class —
    /// the label-noise knob that keeps the synthetic tasks from saturating
    /// at 100 % and makes an accuracy constraint meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] unless `0 ≤ fraction ≤ 1`, or
    /// if the dataset has fewer than two classes.
    pub fn with_label_noise(mut self, fraction: f32, seed: u64) -> Result<Dataset> {
        use rand::Rng;
        if !(0.0..=1.0).contains(&fraction) {
            return Err(DataError::InvalidConfig {
                what: format!("label-noise fraction {fraction} not in [0, 1]"),
            });
        }
        if fraction > 0.0 && self.classes < 2 {
            return Err(DataError::InvalidConfig {
                what: "label noise requires at least two classes".to_string(),
            });
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        for l in &mut self.labels {
            if rng.gen::<f32>() < fraction {
                let mut new = rng.gen_range(0..self.classes - 1);
                if new >= *l {
                    new += 1;
                }
                *l = new;
            }
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let features = Tensor::from_fn([n, 2], |i| i as f32);
        let labels = (0..n).map(|i| i % 2).collect();
        Dataset::new(features, labels, 2).expect("consistent")
    }

    #[test]
    fn new_validates() {
        assert!(Dataset::new(Tensor::zeros([3, 2]), vec![0, 1], 2).is_err());
        assert!(Dataset::new(Tensor::zeros([2, 2]), vec![0, 2], 2).is_err());
        assert!(Dataset::new(Tensor::zeros([2, 2]), vec![0, 1], 0).is_err());
    }

    #[test]
    fn class_counts() {
        let d = toy(10);
        assert_eq!(d.class_counts(), vec![5, 5]);
        assert_eq!(d.len(), 10);
        assert!(!d.is_empty());
    }

    #[test]
    fn subset_copies_rows() {
        let d = toy(5);
        let s = d.subset(&[4, 0]).expect("indices valid");
        assert_eq!(s.len(), 2);
        assert_eq!(s.features().data(), &[8.0, 9.0, 0.0, 1.0]);
        assert_eq!(s.labels(), &[0, 0]);
        assert!(d.subset(&[5]).is_err());
    }

    #[test]
    fn split_partitions_everything() {
        let d = toy(100);
        let (tr, te) = d.split(0.8, 1).expect("valid fraction");
        assert_eq!(tr.len(), 80);
        assert_eq!(te.len(), 20);
        assert!(d.split(0.0, 1).is_err());
        assert!(d.split(1.5, 1).is_err());
    }

    #[test]
    fn split_is_deterministic() {
        let d = toy(50);
        let (a, _) = d.split(0.5, 7).expect("valid fraction");
        let (b, _) = d.split(0.5, 7).expect("valid fraction");
        assert_eq!(a, b);
        let (c, _) = d.split(0.5, 8).expect("valid fraction");
        assert_ne!(a, c);
    }

    #[test]
    fn label_noise_flips_roughly_fraction() {
        let d = toy(10_000);
        let orig = d.labels().to_vec();
        let noisy = d.with_label_noise(0.1, 3).expect("valid fraction");
        let flipped = orig
            .iter()
            .zip(noisy.labels())
            .filter(|(a, b)| a != b)
            .count() as f32
            / 10_000.0;
        assert!((flipped - 0.1).abs() < 0.02, "flipped {flipped}");
        // Flipped labels are always different classes and stay in range.
        assert!(noisy.labels().iter().all(|&l| l < 2));
    }

    #[test]
    fn label_noise_validation() {
        assert!(toy(4).with_label_noise(1.5, 0).is_err());
        let one_class = Dataset::new(Tensor::zeros([2, 1]), vec![0, 0], 1).expect("consistent");
        assert!(one_class.clone().with_label_noise(0.5, 0).is_err());
        assert!(one_class.with_label_noise(0.0, 0).is_ok());
    }
}
