//! The elementwise activation layer: ReLU.

use crate::error::{NnError, Result};
use crate::layers::{Layer, Mode};
use crate::workspace::Workspace;
use reduce_tensor::{Tensor, TensorError};

/// Elementwise `out[i] = f(x[i])` into a workspace tensor; bit-identical to
/// `x.map(f)` but allocation-free once the workspace is warm.
fn map_into_ws<F: Fn(f32) -> f32>(x: &Tensor, ws: &mut Workspace, f: F) -> Tensor {
    let mut out = ws.take(x.dims().to_vec());
    for (o, &v) in out.data_mut().iter_mut().zip(x.data()) {
        *o = f(v);
    }
    out
}

/// Elementwise `out[i] = f(a[i], b[i])` into a workspace tensor;
/// bit-identical to `a.zip_map(b, f)`.
fn zip_map_into_ws<F: Fn(f32, f32) -> f32>(
    a: &Tensor,
    b: &Tensor,
    ws: &mut Workspace,
    f: F,
) -> Result<Tensor> {
    if a.dims() != b.dims() {
        return Err(TensorError::ShapeMismatch {
            op: "zip_map",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        }
        .into());
    }
    let mut out = ws.take(a.dims().to_vec());
    for ((o, &av), &bv) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
        *o = f(av, bv);
    }
    Ok(out)
}

/// Rectified linear unit: `max(0, x)`.
///
/// The derivative at exactly 0 is taken as 0 (the subgradient convention
/// PyTorch uses).
#[derive(Debug, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates the activation layer.
    pub fn new() -> Self {
        Self { cached_input: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> String {
        "relu".to_string()
    }

    fn forward_ws(&mut self, x: &Tensor, _mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        if let Some(stale) = self.cached_input.take() {
            ws.give(stale);
        }
        // xtask:allow(hot-path-alloc): O(1) copy-on-write handle clone for the backward cache
        self.cached_input = Some(x.clone());
        Ok(map_into_ws(x, ws, |v| v.max(0.0)))
    }

    fn backward_ws(&mut self, grad: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardState { layer: self.name() })?;
        zip_map_into_ws(grad, x, ws, |g, xv| g * if xv > 0.0 { 1.0 } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let y = r
            .forward(
                &Tensor::from_vec(vec![-1.0, 0.0, 2.0], [3]).expect("ok"),
                Mode::Eval,
            )
            .expect("any shape ok");
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_gates_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], [2]).expect("ok");
        let _ = r.forward(&x, Mode::Train).expect("any shape ok");
        let gx = r
            .backward(&Tensor::ones([2]))
            .expect("forward state present");
        assert_eq!(gx.data(), &[0.0, 1.0]);
    }

    #[test]
    fn gradcheck_relu() {
        // Avoid the ReLU kink: keep probes away from 0.
        let x =
            Tensor::from_vec(vec![-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, -3.0], [2, 4]).expect("ok");
        gradcheck::check_input_grad(&mut Relu::new(), &x, 1e-2);
    }

    #[test]
    fn backward_without_forward_errors() {
        assert!(Relu::new().backward(&Tensor::ones([1])).is_err());
    }

    #[test]
    fn activations_have_no_params() {
        assert!(Relu::new().params().is_empty());
    }
}
