//! Batch normalisation over NCHW channels.

use crate::error::{NnError, Result};
use crate::layers::{Layer, Mode};
use crate::param::Parameter;
use crate::workspace::Workspace;
use reduce_tensor::Tensor;

const DEFAULT_EPS: f32 = 1e-5;
const DEFAULT_MOMENTUM: f32 = 0.1;

/// Batch-norm parameters, running statistics and backward cache.
#[derive(Debug)]
struct BatchNormState {
    gamma: Parameter,
    beta: Parameter,
    running_mean: Tensor,
    running_var: Tensor,
    eps: f32,
    momentum: f32,
    features: usize,
    /// Cached normalised activations and per-feature inverse std from the
    /// last train-mode forward.
    cached: Option<(Tensor, Vec<f32>)>,
    /// Reusable per-feature scratch (mean/var in forward, grad sums in
    /// backward) so steady-state iterations allocate nothing.
    scratch_a: Vec<f32>,
    scratch_b: Vec<f32>,
}

impl BatchNormState {
    fn new(features: usize) -> Self {
        BatchNormState {
            gamma: Parameter::new("bn.gamma", Tensor::ones([features])),
            beta: Parameter::new("bn.beta", Tensor::zeros([features])),
            running_mean: Tensor::zeros([features]),
            running_var: Tensor::ones([features]),
            eps: DEFAULT_EPS,
            momentum: DEFAULT_MOMENTUM,
            features,
            cached: None,
            scratch_a: Vec::new(),
            scratch_b: Vec::new(),
        }
    }

    /// Normalises `x` where element `i` belongs to feature `feat(i)`.
    ///
    /// `group_size` is the number of elements per feature (N·H·W).
    fn forward_grouped<F: Fn(usize) -> usize>(
        &mut self,
        x: &Tensor,
        feat: F,
        group_size: usize,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Tensor> {
        let c = self.features;
        if mode == Mode::Train && group_size == 0 {
            return Err(NnError::BadInput {
                layer: "batch_norm".to_string(),
                reason: "empty batch".to_string(),
            });
        }
        // Recycle last iteration's cached xhat tensor and inv_std allocation.
        let mut inv_std = match self.cached.take() {
            Some((stale, v)) => {
                ws.give(stale);
                v
            }
            // xtask:allow(hot-path-alloc): empty Vec::new is allocation-free; filled once at warm-up
            None => Vec::new(),
        };
        match mode {
            Mode::Train => {
                let mut mean = std::mem::take(&mut self.scratch_a);
                mean.clear();
                mean.resize(c, 0.0);
                let mut var = std::mem::take(&mut self.scratch_b);
                var.clear();
                var.resize(c, 0.0);
                for (i, &v) in x.data().iter().enumerate() {
                    mean[feat(i)] += v;
                }
                for m in &mut mean {
                    *m /= group_size as f32;
                }
                for (i, &v) in x.data().iter().enumerate() {
                    let d = v - mean[feat(i)];
                    var[feat(i)] += d * d;
                }
                for v in &mut var {
                    *v /= group_size as f32;
                }
                inv_std.clear();
                let eps = self.eps;
                inv_std.extend(var.iter().map(|&v| 1.0 / (v + eps).sqrt()));
                let mut xhat = ws.take(x.dims().to_vec());
                for (i, (h, &v)) in xhat.data_mut().iter_mut().zip(x.data()).enumerate() {
                    let f = feat(i);
                    *h = (v - mean[f]) * inv_std[f];
                }
                let mut y = ws.take(x.dims().to_vec());
                let (gd, bd) = (self.gamma.value().data(), self.beta.value().data());
                for (i, (o, &h)) in y.data_mut().iter_mut().zip(xhat.data()).enumerate() {
                    let f = feat(i);
                    *o = gd[f] * h + bd[f];
                }
                // Exponential running statistics for eval mode.
                let m = self.momentum;
                for f in 0..c {
                    let rm = &mut self.running_mean.data_mut()[f];
                    *rm = (1.0 - m) * *rm + m * mean[f];
                    let rv = &mut self.running_var.data_mut()[f];
                    *rv = (1.0 - m) * *rv + m * var[f];
                }
                self.scratch_a = mean;
                self.scratch_b = var;
                self.cached = Some((xhat, inv_std));
                Ok(y)
            }
            Mode::Eval => {
                let mut y = ws.take(x.dims().to_vec());
                let (gd, bd) = (self.gamma.value().data(), self.beta.value().data());
                let (rm, rv) = (self.running_mean.data(), self.running_var.data());
                let eps = self.eps;
                for (i, (o, &v)) in y.data_mut().iter_mut().zip(x.data()).enumerate() {
                    let f = feat(i);
                    let inv = 1.0 / (rv[f] + eps).sqrt();
                    *o = gd[f] * (v - rm[f]) * inv + bd[f];
                }
                // cached was drained above, matching the old `cached = None`.
                Ok(y)
            }
        }
    }

    fn backward_grouped<F: Fn(usize) -> usize>(
        &mut self,
        grad: &Tensor,
        feat: F,
        group_size: usize,
        layer_name: &str,
        ws: &mut Workspace,
    ) -> Result<Tensor> {
        let (xhat, inv_std) = self
            .cached
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardState {
                layer: layer_name.to_string(),
            })?;
        let c = self.features;
        let n = group_size as f32;
        let mut sum_dy = std::mem::take(&mut self.scratch_a);
        sum_dy.clear();
        sum_dy.resize(c, 0.0);
        let mut sum_dy_xhat = std::mem::take(&mut self.scratch_b);
        sum_dy_xhat.clear();
        sum_dy_xhat.resize(c, 0.0);
        for (i, &g) in grad.data().iter().enumerate() {
            let f = feat(i);
            sum_dy[f] += g;
            sum_dy_xhat[f] += g * xhat.data()[i];
        }
        // Parameter gradients.
        for f in 0..c {
            self.gamma.grad_mut().data_mut()[f] += sum_dy_xhat[f];
            self.beta.grad_mut().data_mut()[f] += sum_dy[f];
        }
        // Input gradient:
        // dx = gamma*inv_std/N * (N*dy - sum_dy - xhat * sum_dy_xhat)
        let gd = self.gamma.value().data();
        let mut gx = ws.take(grad.dims().to_vec());
        for (i, (o, &g)) in gx.data_mut().iter_mut().zip(grad.data()).enumerate() {
            let f = feat(i);
            *o = gd[f] * inv_std[f] / n * (n * g - sum_dy[f] - xhat.data()[i] * sum_dy_xhat[f]);
        }
        self.scratch_a = sum_dy;
        self.scratch_b = sum_dy_xhat;
        Ok(gx)
    }
}

/// Batch normalisation over the channel axis of an NCHW tensor.
#[derive(Debug)]
pub struct BatchNorm2d {
    state: BatchNormState,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            state: BatchNormState::new(channels),
        }
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> String {
        format!("batch_norm2d({})", self.state.features)
    }

    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let d = x.dims();
        if d.len() != 4 || d[1] != self.state.features {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!(
                    "expected NCHW input with {} channels, got {:?}",
                    self.state.features, d
                ),
            });
        }
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let hw = h * w;
        self.state
            .forward_grouped(x, move |i| (i / hw) % c, n * hw, mode, ws)
    }

    fn backward_ws(&mut self, grad: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let d = grad.dims().to_vec();
        if d.len() != 4 {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!("expected NCHW gradient, got {:?}", d),
            });
        }
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let hw = h * w;
        let name = self.name();
        self.state
            .backward_grouped(grad, move |i| (i / hw) % c, n * hw, &name, ws)
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.state.gamma, &self.state.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.state.gamma, &mut self.state.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    #[test]
    fn normalises_channel_statistics_2d() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::rand_uniform([4, 2, 5, 5], -3.0, 3.0, 2);
        let y = bn.forward(&x, Mode::Train).expect("valid input");
        let hw = 25;
        for c in 0..2 {
            let vals: Vec<f32> = (0..4)
                .flat_map(|n| {
                    let base = (n * 2 + c) * hw;
                    y.data()[base..base + hw].to_vec()
                })
                .collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(2);
        // Warm the running statistics with several train batches of 64
        // values per channel.
        for seed in 0..60 {
            let x = Tensor::rand_normal([16, 2, 2, 2], 4.0, 2.0, seed);
            bn.forward(&x, Mode::Train).expect("valid input");
        }
        let x = Tensor::rand_normal([64, 2, 2, 2], 4.0, 2.0, 999);
        let y = bn.forward(&x, Mode::Eval).expect("valid input");
        // Eval normalisation with converged stats should roughly whiten.
        assert!(y.mean().abs() < 0.3, "mean {}", y.mean());
    }

    #[test]
    fn gradcheck_params_2d() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::rand_uniform([2, 2, 3, 3], -1.0, 1.0, 4);
        gradcheck::check_param_grad(&mut bn, &x, 0, 5e-2);
        gradcheck::check_param_grad(&mut bn, &x, 1, 5e-2);
    }

    #[test]
    fn gradcheck_input_2d() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::rand_uniform([2, 2, 3, 3], -1.0, 1.0, 5);
        gradcheck::check_input_grad(&mut bn, &x, 5e-2);
    }

    #[test]
    fn shape_validation() {
        let mut bn2 = BatchNorm2d::new(3);
        assert!(bn2
            .forward(&Tensor::zeros([4, 2, 2, 2]), Mode::Train)
            .is_err());
        assert!(bn2.forward(&Tensor::zeros([4, 3]), Mode::Train).is_err());
    }

    #[test]
    fn backward_before_forward_is_error() {
        assert!(BatchNorm2d::new(2)
            .backward(&Tensor::zeros([1, 2, 2, 2]))
            .is_err());
    }
}
