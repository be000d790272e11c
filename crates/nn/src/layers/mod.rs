//! Neural-network layers with manual forward/backward passes.

mod activations;
mod batchnorm;
mod conv2d;
mod flatten;
mod linear;
mod pool;

pub use activations::Relu;
pub use batchnorm::BatchNorm2d;
pub use conv2d::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::MaxPool2d;

use crate::error::Result;
use crate::param::Parameter;
use crate::workspace::Workspace;
use reduce_tensor::Tensor;
use std::fmt;

/// Whether a forward pass is part of training or evaluation.
///
/// Only batch normalisation tells the two apart: train mode normalises
/// with batch statistics and accumulates them, eval mode uses the running
/// statistics. Every other layer computes the same function in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Training: batch statistics used and accumulated.
    Train,
    /// Inference: running statistics used.
    #[default]
    Eval,
}

/// A differentiable layer.
///
/// Layers cache whatever forward state their backward pass needs; calling
/// [`Layer::backward`] before [`Layer::forward`] is an error, not a panic.
/// The trait is object-safe — models store `Box<dyn Layer>`.
///
/// The workspace-threaded entry points [`Layer::forward_ws`] and
/// [`Layer::backward_ws`] are the required implementations: layers draw
/// every intermediate tensor from the caller's [`Workspace`] and return
/// stale cached state to it, so a training loop that reuses one workspace
/// (as [`crate::Sequential`] does) runs allocation-free once warm. The
/// plain [`Layer::forward`]/[`Layer::backward`] conveniences run the same
/// code against an ephemeral workspace and produce bit-identical results —
/// [`Workspace::take`] always hands out zeroed buffers, and a layer takes
/// a buffer without the zero-fill only for a kernel that zeroes or
/// overwrites it, so recycling never changes numerics.
///
/// A model's first layer is the one whose input gradient nobody reads: a
/// training step backpropagates it through [`Layer::backward_params_ws`],
/// which layers with an expensive input gradient override to skip it.
pub trait Layer: fmt::Debug + Send {
    /// Diagnostic name, e.g. `"conv2d(16→32, 3x3)"`.
    fn name(&self) -> String;

    /// Computes the layer output for `x`, caching state for backward.
    /// Intermediates are drawn from `ws`; stale caches are returned to it.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BadInput`] if `x` has the wrong shape.
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor>;

    /// Propagates the output gradient back to the input, accumulating
    /// parameter gradients along the way. Intermediates are drawn from
    /// `ws`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::MissingForwardState`] if no forward pass
    /// preceded this call.
    fn backward_ws(&mut self, grad: &Tensor, ws: &mut Workspace) -> Result<Tensor>;

    /// The backward pass of a model's first layer, whose input gradient no
    /// caller reads: accumulates exactly the parameter gradients
    /// [`Layer::backward_ws`] would, bit for bit, but may skip computing
    /// the input gradient. The default runs the full backward pass and
    /// returns the input gradient to `ws`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward_ws`].
    fn backward_params_ws(&mut self, grad: &Tensor, ws: &mut Workspace) -> Result<()> {
        let gx = self.backward_ws(grad, ws)?;
        ws.give(gx);
        Ok(())
    }

    /// Convenience forward pass using an ephemeral workspace. Bit-identical
    /// to [`Layer::forward_ws`]; allocates per call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::forward_ws`].
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut ws = Workspace::new();
        self.forward_ws(x, mode, &mut ws)
    }

    /// Convenience backward pass using an ephemeral workspace. Bit-identical
    /// to [`Layer::backward_ws`]; allocates per call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward_ws`].
    fn backward(&mut self, grad: &Tensor) -> Result<Tensor> {
        let mut ws = Workspace::new();
        self.backward_ws(grad, &mut ws)
    }

    /// Immutable views of the layer's trainable parameters.
    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    /// Mutable views of the layer's trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by layer tests.

    use super::*;

    /// Checks `layer`'s input gradient against central finite differences on
    /// the scalar loss `L = sum(forward(x))`.
    pub fn check_input_grad<L: Layer>(layer: &mut L, x: &Tensor, tol: f32) {
        let y = layer.forward(x, Mode::Train).expect("forward succeeds");
        let gy = Tensor::ones(y.dims().to_vec());
        let gx = layer.backward(&gy).expect("backward succeeds");
        assert_eq!(gx.dims(), x.dims(), "input gradient shape");
        let eps = 1e-2;
        let probes: Vec<usize> = (0..x.len()).step_by((x.len() / 7).max(1)).take(8).collect();
        for &i in &probes {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let lp = layer
                .forward(&xp, Mode::Train)
                .expect("forward succeeds")
                .sum();
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lm = layer
                .forward(&xm, Mode::Train)
                .expect("forward succeeds")
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            let an = gx.data()[i];
            assert!(
                (fd - an).abs() <= tol * (1.0 + fd.abs().max(an.abs())),
                "input grad mismatch at {i}: finite-diff {fd} vs analytic {an}"
            );
        }
    }

    /// Checks the gradient of parameter `pidx` against finite differences.
    pub fn check_param_grad<L: Layer>(layer: &mut L, x: &Tensor, pidx: usize, tol: f32) {
        let y = layer.forward(x, Mode::Train).expect("forward succeeds");
        let gy = Tensor::ones(y.dims().to_vec());
        layer.zero_grad();
        layer.backward(&gy).expect("backward succeeds");
        let analytic = layer.params()[pidx].grad().clone();
        let eps = 1e-2;
        let n = analytic.len();
        let probes: Vec<usize> = (0..n).step_by((n / 7).max(1)).take(8).collect();
        for &i in &probes {
            let orig = layer.params()[pidx].value().data()[i];
            layer.params_mut()[pidx].value_mut().data_mut()[i] = orig + eps;
            let lp = layer
                .forward(x, Mode::Train)
                .expect("forward succeeds")
                .sum();
            layer.params_mut()[pidx].value_mut().data_mut()[i] = orig - eps;
            let lm = layer
                .forward(x, Mode::Train)
                .expect("forward succeeds")
                .sum();
            layer.params_mut()[pidx].value_mut().data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = analytic.data()[i];
            assert!(
                (fd - an).abs() <= tol * (1.0 + fd.abs().max(an.abs())),
                "param {pidx} grad mismatch at {i}: finite-diff {fd} vs analytic {an}"
            );
        }
    }
}
