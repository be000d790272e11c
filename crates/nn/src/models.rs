//! Reference architectures.
//!
//! The paper evaluates Reduce on VGG11/CIFAR-10. [`vgg11`] builds the same
//! 8-conv + classifier topology with a configurable channel width so the
//! reproduction can run at CPU scale ([`VggConfig::nano`]) or at the paper's
//! full width ([`VggConfig::full`]). [`mlp`] provides the cheaper model
//! for tests and fast experiments.

use crate::error::{NnError, Result};
use crate::init::Init;
use crate::layers::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Relu};
use crate::model::Sequential;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Side of every VGG convolution's square kernel (stride 1, padding 1).
const KERNEL: usize = 3;

/// The VGG11 feature extractor: each convolution's output channels in
/// units of the base width, and whether a 2×2 max pool follows it.
const PLAN: [(usize, bool); 8] = [
    (1, true),
    (2, true),
    (4, false),
    (4, true),
    (8, false),
    (8, true),
    (8, false),
    (8, true),
];

/// Configuration of the VGG11 family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VggConfig {
    /// Square input resolution (CIFAR-10 is 32).
    pub input_hw: usize,
    /// Input channels (3 for RGB).
    pub in_channels: usize,
    /// Output classes.
    pub classes: usize,
    /// Base channel width. The canonical VGG11 uses 64; the nano variant
    /// used for CPU-scale experiments defaults to 8.
    pub width: usize,
    /// Insert `BatchNorm2d` after every convolution.
    pub batch_norm: bool,
}

impl VggConfig {
    /// CPU-scale configuration: 16×16 inputs, width 8 — same topology,
    /// ~1000× fewer MACs than the paper's VGG11.
    pub fn nano(classes: usize) -> Self {
        VggConfig {
            input_hw: 16,
            in_channels: 3,
            classes,
            width: 8,
            batch_norm: true,
        }
    }

    /// The paper's configuration: 32×32 inputs, width 64 (VGG11 proper).
    /// Buildable and unit-tested, but far too slow to *train* on CPU.
    pub fn full(classes: usize) -> Self {
        VggConfig {
            input_hw: 32,
            in_channels: 3,
            classes,
            width: 64,
            batch_norm: true,
        }
    }

    /// Walks the layer plan at this configuration: calls `conv` with each
    /// convolution's `(in_channels, out_channels, hw, pool)`, where `hw` is
    /// the side of the square feature map it runs on and `pool` says
    /// whether a 2×2 max pool follows it, then returns the classifier's
    /// `(features, hidden)` widths. Pools that would shrink a map below
    /// 1×1 are skipped, so small-input variants stay valid.
    fn plan(&self, mut conv: impl FnMut(usize, usize, usize, bool)) -> (usize, usize) {
        let (mut channels, mut hw) = (self.in_channels, self.input_hw);
        for (multiple, pool) in PLAN {
            let out = multiple * self.width;
            let pool = pool && hw >= 2;
            conv(channels, out, hw, pool);
            channels = out;
            if pool {
                hw /= 2;
            }
        }
        // The hidden width scales like VGG's 4096 head at w = 256.
        (channels * hw * hw, 16 * self.width)
    }

    /// The `(m, k, n)` GEMM shapes one forward pass over `batch` inputs
    /// executes, in layer order: each convolution's im2col GEMM
    /// (`m = batch · hw²`, `k = in_channels · 3 · 3`), then the two
    /// classifier layers. Each `(k, n)` is the `(in, out)` of that layer's
    /// weight matrix.
    pub fn gemm_shapes(&self, batch: usize) -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::with_capacity(PLAN.len() + 2);
        let (features, hidden) = self.plan(|c, out, hw, _| {
            shapes.push((batch * hw * hw, c * KERNEL * KERNEL, out));
        });
        shapes.push((batch, features, hidden));
        shapes.push((batch, hidden, self.classes));
        shapes
    }
}

/// Builds a VGG11-style network.
///
/// The canonical VGG11 feature extractor is, with `w` the base width:
/// `[conv(w), M, conv(2w), M, conv(4w), conv(4w), M, conv(8w), conv(8w), M,
/// conv(8w), conv(8w), M]`, all 3×3/stride-1/pad-1 convolutions with 2×2
/// max pools. Pools that would shrink a spatial dimension below 1 are
/// skipped so small-input variants stay valid.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for zero width/classes/input size.
///
/// # Examples
///
/// ```
/// use reduce_nn::models::{vgg11, VggConfig};
///
/// # fn main() -> Result<(), reduce_nn::NnError> {
/// let model = vgg11(&VggConfig::nano(10), 42)?;
/// assert!(model.num_params() > 10_000);
/// # Ok(())
/// # }
/// ```
pub fn vgg11(config: &VggConfig, seed: u64) -> Result<Sequential> {
    vgg11_with_init(config, seed, Init::KaimingNormal)
}

/// [`vgg11`] with an explicit initialisation for the convolution and
/// classifier weights. [`Init::Zeros`] builds the architecture without
/// drawing a single random number — the skeleton a state dict is loaded
/// into; every other layer comes out exactly as [`vgg11`] builds it.
///
/// # Errors
///
/// Same conditions as [`vgg11`].
pub fn vgg11_with_init(config: &VggConfig, seed: u64, init: Init) -> Result<Sequential> {
    if config.width == 0 || config.classes == 0 || config.input_hw == 0 || config.in_channels == 0 {
        return Err(NnError::InvalidConfig {
            what: format!("vgg11 config has a zero field: {config:?}"),
        });
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = Sequential::new();
    let (features, hidden) = config.plan(|in_ch, out_ch, _, pool| {
        model.add(Conv2d::with_init(
            in_ch, out_ch, KERNEL, 1, 1, init, &mut rng,
        ));
        if config.batch_norm {
            model.add(BatchNorm2d::new(out_ch));
        }
        model.add(Relu::new());
        if pool {
            model.add(MaxPool2d::new(2, 2));
        }
    });
    model.add(Flatten::new());
    model.add(Linear::with_init(features, hidden, init, &mut rng));
    model.add(Relu::new());
    model.add(Linear::with_init(hidden, config.classes, init, &mut rng));
    Ok(model)
}

/// Builds a multilayer perceptron with ReLU activations between layers.
///
/// `dims` lists the layer widths including input and output, e.g.
/// `[16, 64, 64, 4]`.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] if fewer than two dims are given or
/// any dim is zero.
pub fn mlp(dims: &[usize], seed: u64) -> Result<Sequential> {
    mlp_with_init(dims, seed, Init::KaimingNormal)
}

/// [`mlp`] with an explicit weight initialisation; see
/// [`vgg11_with_init`].
///
/// # Errors
///
/// Same conditions as [`mlp`].
pub fn mlp_with_init(dims: &[usize], seed: u64, init: Init) -> Result<Sequential> {
    if dims.len() < 2 || dims.contains(&0) {
        return Err(NnError::InvalidConfig {
            what: format!("mlp needs >= 2 nonzero dims, got {dims:?}"),
        });
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = Sequential::new();
    for i in 0..dims.len() - 1 {
        model.add(Linear::with_init(dims[i], dims[i + 1], init, &mut rng));
        if i + 2 < dims.len() {
            model.add(Relu::new());
        }
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Mode;
    use reduce_tensor::Tensor;

    #[test]
    fn vgg_nano_forward_shape() {
        let mut m = vgg11(&VggConfig::nano(10), 0).expect("valid config");
        let y = m
            .forward(&Tensor::zeros([2, 3, 16, 16]), Mode::Eval)
            .expect("valid input");
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn vgg_nano_has_eight_convs() {
        let m = vgg11(&VggConfig::nano(10), 0).expect("valid config");
        let convs = m
            .layers()
            .iter()
            .filter(|l| l.name().starts_with("conv2d"))
            .count();
        assert_eq!(convs, 8, "VGG11 topology has 8 convolutions");
        // 8 conv weights + 2 classifier weights are the maskable GEMMs.
        assert_eq!(m.weight_params().len(), 10);
    }

    #[test]
    fn vgg_full_builds_with_paper_dims() {
        let m = vgg11(&VggConfig::full(10), 0).expect("valid config");
        // VGG11 at width 64 has ~9.2M conv+classifier params at 32x32.
        assert!(m.num_params() > 5_000_000, "got {}", m.num_params());
    }

    #[test]
    fn vgg_small_input_skips_pools() {
        let cfg = VggConfig {
            input_hw: 8,
            ..VggConfig::nano(4)
        };
        let mut m = vgg11(&cfg, 0).expect("valid config");
        let y = m
            .forward(&Tensor::zeros([1, 3, 8, 8]), Mode::Eval)
            .expect("valid input");
        assert_eq!(y.dims(), &[1, 4]);
    }

    #[test]
    fn vgg_rejects_zero_fields() {
        let mut cfg = VggConfig::nano(10);
        cfg.width = 0;
        assert!(vgg11(&cfg, 0).is_err());
    }

    #[test]
    fn mlp_shapes_and_validation() {
        let mut m = mlp(&[4, 16, 3], 1).expect("valid dims");
        let y = m
            .forward(&Tensor::zeros([2, 4]), Mode::Eval)
            .expect("valid input");
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(m.num_params(), 4 * 16 + 16 + 16 * 3 + 3);
        assert!(mlp(&[4], 1).is_err());
        assert!(mlp(&[4, 0, 2], 1).is_err());
    }

    #[test]
    fn builders_are_deterministic() {
        let a = vgg11(&VggConfig::nano(10), 7)
            .expect("valid config")
            .state_dict();
        let b = vgg11(&VggConfig::nano(10), 7)
            .expect("valid config")
            .state_dict();
        for ((_, t1), (_, t2)) in a.iter().zip(&b) {
            assert_eq!(t1, t2);
        }
    }
}
