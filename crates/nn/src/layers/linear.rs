//! Fully connected layer.

use crate::error::{NnError, Result};
use crate::init::Init;
use crate::layers::{Layer, Mode};
use crate::param::Parameter;
use crate::workspace::Workspace;
use rand::Rng;
use reduce_tensor::{ops, Tensor};

/// A fully connected layer: `y = x · Wᵀ + b`.
///
/// The weight is stored as a row-major `(out_features, in_features)` matrix
/// — the same orientation the systolic-array mapper in `reduce-systolic`
/// tiles onto the PE grid, so fault masks apply to it directly.
///
/// # Examples
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use reduce_nn::layers::{Layer, Linear, Mode};
/// use reduce_tensor::Tensor;
///
/// # fn main() -> Result<(), reduce_nn::NnError> {
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut fc = Linear::new(3, 2, &mut rng);
/// let y = fc.forward(&Tensor::zeros([4, 3]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Linear {
    weight: Parameter,
    bias: Parameter,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Kaiming-normal weights and zero bias.
    pub fn new<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Self::with_init(in_features, out_features, Init::KaimingNormal, rng)
    }

    /// Creates a layer with an explicit weight initialisation scheme.
    pub fn with_init<R: Rng>(
        in_features: usize,
        out_features: usize,
        init: Init,
        rng: &mut R,
    ) -> Self {
        let w = init.tensor(&[out_features, in_features], in_features, out_features, rng);
        Linear {
            weight: Parameter::new("linear.weight", w),
            bias: Parameter::new("linear.bias", Tensor::zeros([out_features])),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight parameter (shape `(out, in)`).
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// Mutable weight parameter, e.g. for installing fault masks.
    pub fn weight_mut(&mut self) -> &mut Parameter {
        &mut self.weight
    }

    /// Accumulates the weight and bias gradients of the output gradient
    /// `grad` (shape `(N, out)`).
    fn backward_param_grads(&mut self, grad: &Tensor, ws: &mut Workspace) -> Result<()> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardState { layer: self.name() })?;
        // dW = gradᵀ · x   — (out, N)·(N, in) = (out, in)
        let mut dw = ws.take_unzeroed([self.out_features, self.in_features]);
        ops::matmul_tn_into(grad, x, &mut dw)?;
        self.weight.grad_mut().axpy(1.0, &dw)?;
        ws.give(dw);
        // db = column sums of grad
        let mut db = ws.take_unzeroed([self.out_features]);
        grad.sum_rows_into(&mut db)?;
        self.bias.grad_mut().axpy(1.0, &db)?;
        ws.give(db);
        Ok(())
    }
}

impl Layer for Linear {
    fn name(&self) -> String {
        format!("linear({}→{})", self.in_features, self.out_features)
    }

    fn forward_ws(&mut self, x: &Tensor, _mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let (n, c) = x.shape().as_matrix().map_err(|_| NnError::BadInput {
            layer: self.name(),
            reason: format!("expected rank-2 input, got {:?}", x.dims()),
        })?;
        if c != self.in_features {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!("expected {} input features, got {c}", self.in_features),
            });
        }
        if let Some(stale) = self.cached_input.take() {
            ws.give(stale);
        }
        // xtask:allow(hot-path-alloc): O(1) copy-on-write handle clone for the backward cache
        self.cached_input = Some(x.clone());
        let mut y = ws.take_unzeroed([n, self.out_features]);
        ops::matmul_nt_into(x, self.weight.value(), &mut y)?;
        ops::add_bias_rows_in_place(&mut y, self.bias.value())?;
        Ok(y)
    }

    fn backward_ws(&mut self, grad: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        self.backward_param_grads(grad, ws)?;
        // dx = grad · W   — (N, out)·(out, in) = (N, in); the weight
        // gradient above already checked grad's rows against the input's.
        let n = grad.dims().first().copied().unwrap_or(0);
        let mut gx = ws.take_unzeroed([n, self.in_features]);
        ops::matmul_into(grad, self.weight.value(), &mut gx)?;
        Ok(gx)
    }

    fn backward_params_ws(&mut self, grad: &Tensor, ws: &mut Workspace) -> Result<()> {
        self.backward_param_grads(grad, ws)
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
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut l = Linear::with_init(3, 2, Init::Zeros, &mut rng());
        l.params_mut()[1].value_mut().fill(1.5);
        let y = l
            .forward(&Tensor::ones([4, 3]), Mode::Eval)
            .expect("valid input");
        assert_eq!(y.dims(), &[4, 2]);
        assert!(y.data().iter().all(|&v| v == 1.5));
    }

    #[test]
    fn forward_rejects_bad_shapes() {
        let mut l = Linear::new(3, 2, &mut rng());
        assert!(l.forward(&Tensor::ones([4, 5]), Mode::Eval).is_err());
        assert!(l.forward(&Tensor::ones([3]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_before_forward_is_error() {
        let mut l = Linear::new(3, 2, &mut rng());
        assert!(matches!(
            l.backward(&Tensor::ones([1, 2])),
            Err(NnError::MissingForwardState { .. })
        ));
    }

    #[test]
    fn gradcheck_input() {
        let mut l = Linear::new(5, 4, &mut rng());
        let x = Tensor::rand_uniform([3, 5], -1.0, 1.0, 11);
        gradcheck::check_input_grad(&mut l, &x, 1e-2);
    }

    #[test]
    fn gradcheck_weight_and_bias() {
        let mut l = Linear::new(5, 4, &mut rng());
        let x = Tensor::rand_uniform([3, 5], -1.0, 1.0, 12);
        gradcheck::check_param_grad(&mut l, &x, 0, 1e-2);
        gradcheck::check_param_grad(&mut l, &x, 1, 1e-2);
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut l = Linear::new(2, 2, &mut rng());
        let x = Tensor::ones([1, 2]);
        let _ = l.forward(&x, Mode::Train).expect("valid input");
        l.backward(&Tensor::ones([1, 2]))
            .expect("forward state present");
        let g1 = l.params()[0].grad().clone();
        let _ = l.forward(&x, Mode::Train).expect("valid input");
        l.backward(&Tensor::ones([1, 2]))
            .expect("forward state present");
        let g2 = l.params()[0].grad().clone();
        assert!(g2.approx_eq(&(&g1 * 2.0), 1e-6));
        l.zero_grad();
        assert_eq!(l.params()[0].grad().sum(), 0.0);
    }

    #[test]
    fn masked_weight_blocks_signal() {
        let mut l = Linear::with_init(2, 1, Init::Constant(1.0), &mut rng());
        l.weight_mut()
            .set_mask(Some(Tensor::from_vec(vec![0.0, 1.0], [1, 2]).expect("ok")))
            .expect("valid mask");
        let y = l
            .forward(
                &Tensor::from_vec(vec![10.0, 1.0], [1, 2]).expect("ok"),
                Mode::Eval,
            )
            .expect("valid input");
        // The first input (weight masked to 0) must not contribute.
        assert_eq!(y.data(), &[1.0]);
    }
}
