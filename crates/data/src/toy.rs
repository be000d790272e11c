//! The toy tabular dataset for fast tests and examples: Gaussian blobs.

use crate::dataset::{DataError, Dataset, Result};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use reduce_tensor::Tensor;

/// Gaussian blobs: `classes` isotropic clusters in `dim` dimensions.
///
/// Cluster centres are placed on a seeded random sphere of radius
/// `separation`; points are drawn `N(centre, std²)`.
///
/// # Errors
///
/// Returns [`DataError::InvalidConfig`] for zero classes/dim/samples.
///
/// # Examples
///
/// ```
/// use reduce_data::blobs;
///
/// # fn main() -> Result<(), reduce_data::DataError> {
/// let d = blobs(100, 2, 3, 3.0, 0.5, 7)?;
/// assert_eq!(d.len(), 100);
/// assert_eq!(d.classes(), 3);
/// # Ok(())
/// # }
/// ```
pub fn blobs(
    samples: usize,
    dim: usize,
    classes: usize,
    separation: f32,
    std: f32,
    seed: u64,
) -> Result<Dataset> {
    if samples == 0 || dim == 0 || classes == 0 {
        return Err(DataError::InvalidConfig {
            what: format!("blobs({samples}, {dim}, {classes}) has a zero argument"),
        });
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    // Random unit directions scaled by separation.
    let mut centres = Vec::with_capacity(classes);
    for _ in 0..classes {
        let dir = Tensor::rand_normal_with([dim], 0.0, 1.0, &mut rng);
        let norm = dir.norm_sq().sqrt().max(1e-6);
        centres.push(dir.map(|v| v / norm * separation));
    }
    let mut data = Vec::with_capacity(samples * dim);
    let mut labels = Vec::with_capacity(samples);
    for i in 0..samples {
        let class = i % classes;
        let noise = Tensor::rand_normal_with([dim], 0.0, std, &mut rng);
        for j in 0..dim {
            data.push(centres[class].data()[j] + noise.data()[j]);
        }
        labels.push(class);
    }
    Dataset::new(Tensor::from_vec(data, [samples, dim])?, labels, classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_are_balanced_and_separated() {
        let d = blobs(300, 4, 3, 5.0, 0.3, 1).expect("valid");
        assert_eq!(d.class_counts(), vec![100; 3]);
        // With separation >> std, per-class means are far apart.
        let dim = 4;
        let mut means = vec![vec![0.0f32; dim]; 3];
        for (i, &l) in d.labels().iter().enumerate() {
            let row = &d.features().data()[i * dim..(i + 1) * dim];
            for (m, &v) in means[l].iter_mut().zip(row) {
                *m += v / 100.0;
            }
        }
        let dist01: f32 = means[0]
            .iter()
            .zip(&means[1])
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(dist01 > 2.0, "clusters overlap: {dist01}");
    }

    #[test]
    fn blobs_deterministic() {
        let a = blobs(50, 2, 2, 3.0, 0.5, 9).expect("valid");
        let b = blobs(50, 2, 2, 3.0, 0.5, 9).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn zero_args_rejected() {
        assert!(blobs(0, 2, 2, 1.0, 0.1, 0).is_err());
        assert!(blobs(10, 0, 2, 1.0, 0.1, 0).is_err());
        assert!(blobs(10, 2, 0, 1.0, 0.1, 0).is_err());
    }
}
