//! 2-D convolution layer (im2col + GEMM).

use crate::error::{NnError, Result};
use crate::init::Init;
use crate::layers::{Layer, Mode};
use crate::param::Parameter;
use crate::workspace::Workspace;
use rand::Rng;
use reduce_tensor::ops::{self, Conv2dGeometry};
use reduce_tensor::Tensor;

/// A 2-D convolution over NCHW tensors.
///
/// The filter bank is stored as a `(out_channels, in_channels·kh·kw)` matrix
/// — the flattened-GEMM orientation that both the im2col forward pass and
/// the systolic-array weight mapper consume directly, so fault masks derived
/// from a chip's fault map apply to this parameter without reshaping.
#[derive(Debug)]
pub struct Conv2d {
    weight: Parameter,
    bias: Parameter,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached: Option<CachedForward>,
}

#[derive(Debug)]
struct CachedForward {
    cols: Tensor,
    geom: Conv2dGeometry,
    batch: usize,
}

impl Conv2d {
    /// Creates a square-kernel convolution with Kaiming-normal weights.
    pub fn new<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        Self::with_init(
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            Init::KaimingNormal,
            rng,
        )
    }

    /// Creates a square-kernel convolution with an explicit weight
    /// initialisation scheme.
    pub fn with_init<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        init: Init,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let w = init.tensor(&[out_channels, fan_in], fan_in, rng);
        Conv2d {
            weight: Parameter::new("conv2d.weight", w),
            bias: Parameter::new("conv2d.bias", Tensor::zeros([out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached: None,
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Square kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// The flattened `(out_channels, in·kh·kw)` filter parameter.
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// Mutable filter parameter, e.g. for installing fault masks.
    pub fn weight_mut(&mut self) -> &mut Parameter {
        &mut self.weight
    }

    /// Accumulates the weight and bias gradients of the output gradient
    /// `grad` and returns `grad` as `(N·OH·OW, OC)` rows, from which
    /// [`Layer::backward_ws`] goes on to the input gradient.
    fn backward_param_grads(&mut self, grad: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let cached = self
            .cached
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardState { layer: self.name() })?;
        let gd = grad.dims();
        if gd.len() != 4
            || gd[0] != cached.batch
            || gd[1] != self.out_channels
            || gd[2] != cached.geom.out_h
            || gd[3] != cached.geom.out_w
        {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!("gradient shape {gd:?} does not match forward output"),
            });
        }
        let positions = cached.batch * cached.geom.out_h * cached.geom.out_w;
        let patch = self.in_channels * self.kernel * self.kernel;
        let mut grows = ws.take_unzeroed([positions, self.out_channels]);
        ops::nchw_to_rows_into(grad, &mut grows)?;
        // dW = growsᵀ · cols — (OC, N·OH·OW)·(N·OH·OW, C·K·K)
        let mut dw = ws.take_unzeroed([self.out_channels, patch]);
        ops::matmul_tn_into(&grows, &cached.cols, &mut dw)?;
        self.weight.grad_mut().axpy(1.0, &dw)?;
        ws.give(dw);
        let mut db = ws.take_unzeroed([self.out_channels]);
        grows.sum_rows_into(&mut db)?;
        self.bias.grad_mut().axpy(1.0, &db)?;
        ws.give(db);
        Ok(grows)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv2d({}→{}, {}x{}, s{}, p{})",
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.kernel,
            self.stride,
            self.padding
        )
    }

    fn forward_ws(&mut self, x: &Tensor, _mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let d = x.dims();
        if d.len() != 4 || d[1] != self.in_channels {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!(
                    "expected NCHW input with {} channels, got {:?}",
                    self.in_channels, d
                ),
            });
        }
        if let Some(stale) = self.cached.take() {
            ws.give(stale.cols);
        }
        let (n, h, w) = (d[0], d[2], d[3]);
        let geom = Conv2dGeometry::new(h, w, self.kernel, self.kernel, self.stride, self.padding)?;
        let positions = n * geom.out_h * geom.out_w;
        let patch = self.in_channels * self.kernel * self.kernel;
        // Every buffer below is fully written by the kernel it feeds.
        let mut cols = ws.take_unzeroed([positions, patch]);
        ops::im2col_into(x, &geom, &mut cols)?;
        let mut rows = ws.take_unzeroed([positions, self.out_channels]);
        ops::matmul_nt_into(&cols, self.weight.value(), &mut rows)?;
        ops::add_bias_rows_in_place(&mut rows, self.bias.value())?;
        let mut y = ws.take_unzeroed([n, self.out_channels, geom.out_h, geom.out_w]);
        ops::rows_to_nchw_into(&rows, n, self.out_channels, geom.out_h, geom.out_w, &mut y)?;
        ws.give(rows);
        self.cached = Some(CachedForward {
            cols,
            geom,
            batch: n,
        });
        Ok(y)
    }

    fn backward_ws(&mut self, grad: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let grows = self.backward_param_grads(grad, ws)?;
        let cached = self
            .cached
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardState { layer: self.name() })?;
        let positions = cached.batch * cached.geom.out_h * cached.geom.out_w;
        let patch = self.in_channels * self.kernel * self.kernel;
        // dcols = grows · W — (N·OH·OW, OC)·(OC, C·K·K)
        let mut dcols = ws.take_unzeroed([positions, patch]);
        ops::matmul_into(&grows, self.weight.value(), &mut dcols)?;
        ws.give(grows);
        let mut gx = ws.take_unzeroed([
            cached.batch,
            self.in_channels,
            cached.geom.in_h,
            cached.geom.in_w,
        ]);
        ops::col2im_into(
            &dcols,
            cached.batch,
            self.in_channels,
            &cached.geom,
            &mut gx,
        )?;
        ws.give(dcols);
        Ok(gx)
    }

    fn backward_params_ws(&mut self, grad: &Tensor, ws: &mut Workspace) -> Result<()> {
        let grows = self.backward_param_grads(grad, ws)?;
        ws.give(grows);
        Ok(())
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(13)
    }

    #[test]
    fn forward_shapes_same_padding() {
        let mut c = Conv2d::new(3, 8, 3, 1, 1, &mut rng());
        let y = c
            .forward(&Tensor::zeros([2, 3, 8, 8]), Mode::Eval)
            .expect("valid input");
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn forward_shapes_strided() {
        let mut c = Conv2d::new(1, 4, 2, 2, 0, &mut rng());
        let y = c
            .forward(&Tensor::zeros([1, 1, 8, 8]), Mode::Eval)
            .expect("valid input");
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn rejects_wrong_channels_or_rank() {
        let mut c = Conv2d::new(3, 8, 3, 1, 1, &mut rng());
        assert!(c.forward(&Tensor::zeros([2, 4, 8, 8]), Mode::Eval).is_err());
        assert!(c.forward(&Tensor::zeros([2, 3, 8]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_before_forward_is_error() {
        let mut c = Conv2d::new(1, 1, 3, 1, 1, &mut rng());
        assert!(c.backward(&Tensor::zeros([1, 1, 4, 4])).is_err());
    }

    #[test]
    fn backward_rejects_wrong_grad_shape() {
        let mut c = Conv2d::new(1, 2, 3, 1, 1, &mut rng());
        let _ = c
            .forward(&Tensor::zeros([1, 1, 4, 4]), Mode::Train)
            .expect("valid input");
        assert!(c.backward(&Tensor::zeros([1, 2, 5, 5])).is_err());
    }

    #[test]
    fn gradcheck_input() {
        let mut c = Conv2d::new(2, 3, 3, 1, 1, &mut rng());
        let x = Tensor::rand_uniform([1, 2, 5, 5], -1.0, 1.0, 21);
        gradcheck::check_input_grad(&mut c, &x, 2e-2);
    }

    #[test]
    fn gradcheck_weight_and_bias() {
        let mut c = Conv2d::new(2, 3, 3, 1, 1, &mut rng());
        let x = Tensor::rand_uniform([2, 2, 4, 4], -1.0, 1.0, 22);
        gradcheck::check_param_grad(&mut c, &x, 0, 2e-2);
        gradcheck::check_param_grad(&mut c, &x, 1, 2e-2);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // A single 1x1 filter with weight 1 must copy the channel through.
        let mut c = Conv2d::new(1, 1, 1, 1, 0, &mut rng());
        c.weight_mut().value_mut().fill(1.0);
        let x = Tensor::rand_uniform([1, 1, 4, 4], -1.0, 1.0, 23);
        let y = c.forward(&x, Mode::Eval).expect("valid input");
        assert!(y.approx_eq(&x, 1e-6));
    }

    #[test]
    fn masked_filter_produces_zero_channel() {
        let mut c = Conv2d::new(1, 2, 3, 1, 1, &mut rng());
        // Mask out all weights of output channel 0.
        let mut mask = Tensor::ones([2, 9]);
        for j in 0..9 {
            mask.data_mut()[j] = 0.0;
        }
        c.weight_mut().set_mask(Some(mask)).expect("valid mask");
        let y = c
            .forward(
                &Tensor::rand_uniform([1, 1, 5, 5], -1.0, 1.0, 24),
                Mode::Eval,
            )
            .expect("valid input");
        let ch0: f32 = y.data()[..25].iter().map(|v| v.abs()).sum();
        assert_eq!(ch0, 0.0);
    }
}
