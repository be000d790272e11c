//! Weight initialisation schemes.

use rand::Rng;
use reduce_tensor::Tensor;

/// Weight initialisation scheme for layers with a `(fan_out, fan_in)`
/// weight matrix.
///
/// Random schemes draw from a caller-supplied RNG so whole-model
/// initialisation is reproducible from a single seed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Init {
    /// All zeros, drawing no random number: the skeleton a state dict is
    /// loaded into.
    Zeros,
    /// Kaiming/He normal: `N(0, sqrt(2 / fan_in))` — the right choice ahead
    /// of ReLU nonlinearities, used for all conv/linear layers here.
    #[default]
    KaimingNormal,
}

impl Init {
    /// Materialises a tensor of the given shape.
    ///
    /// `fan_in` follows the convention of a row-major `(fan_out, fan_in)`
    /// weight matrix; for other shapes pass the effective fan-in.
    pub fn tensor<R: Rng>(&self, dims: &[usize], fan_in: usize, rng: &mut R) -> Tensor {
        match *self {
            Init::Zeros => Tensor::zeros(dims.to_vec()),
            Init::KaimingNormal => {
                let std = (2.0 / fan_in.max(1) as f32).sqrt();
                Tensor::rand_normal_with(dims.to_vec(), 0.0, std, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_draw_no_random_number() {
        let mut rng = SmallRng::seed_from_u64(0);
        let z = Init::Zeros.tensor(&[2, 2], 2, &mut rng);
        assert!(z.data().iter().all(|&v| v == 0.0));
        assert_eq!(rng.gen::<u64>(), SmallRng::seed_from_u64(0).gen::<u64>());
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut rng = SmallRng::seed_from_u64(1);
        let t = Init::KaimingNormal.tensor(&[200, 50], 50, &mut rng);
        let mean = t.mean();
        let std = t.map(|x| (x - mean) * (x - mean)).mean().sqrt();
        let expected = (2.0f32 / 50.0).sqrt();
        assert!(
            (std - expected).abs() / expected < 0.1,
            "std {std} vs {expected}"
        );
    }

    #[test]
    fn deterministic_given_rng_state() {
        let mut r1 = SmallRng::seed_from_u64(3);
        let mut r2 = SmallRng::seed_from_u64(3);
        let a = Init::KaimingNormal.tensor(&[8], 8, &mut r1);
        let b = Init::KaimingNormal.tensor(&[8], 8, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_fan_does_not_divide_by_zero() {
        let mut rng = SmallRng::seed_from_u64(4);
        let t = Init::KaimingNormal.tensor(&[2], 0, &mut rng);
        assert!(t.all_finite());
    }
}
