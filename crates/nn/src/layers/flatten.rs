//! Flatten layer: NCHW → (N, C·H·W).

use crate::error::{NnError, Result};
use crate::layers::{Layer, Mode};
use crate::workspace::Workspace;
use reduce_tensor::Tensor;

/// Flattens all non-batch dimensions: `(N, d1, d2, …)` → `(N, d1·d2·…)`.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten {
            cached_input_dims: None,
        }
    }
}

impl Layer for Flatten {
    fn name(&self) -> String {
        "flatten".to_string()
    }

    fn forward_ws(&mut self, x: &Tensor, _mode: Mode, _ws: &mut Workspace) -> Result<Tensor> {
        let d = x.dims();
        if d.is_empty() {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: "cannot flatten a scalar".to_string(),
            });
        }
        let n = d[0];
        let rest: usize = d[1..].iter().product();
        // Reuse the cached dims vector across iterations.
        // xtask:allow(hot-path-alloc): empty Vec::new initialises the cache once; reused after
        let dims = self.cached_input_dims.get_or_insert_with(Vec::new);
        dims.clear();
        dims.extend_from_slice(d);
        // Reshape is an O(1) storage-sharing view; nothing to pool.
        Ok(x.reshape([n, rest])?)
    }

    fn backward_ws(&mut self, grad: &Tensor, _ws: &mut Workspace) -> Result<Tensor> {
        let dims = self
            .cached_input_dims
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardState { layer: self.name() })?;
        // xtask:allow(hot-path-alloc): clones a handful of usize shape entries, not a buffer
        Ok(grad.reshape(dims.clone())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reduce_tensor::Shape;

    #[test]
    fn flatten_and_restore() {
        let mut f = Flatten::new();
        let x = Tensor::rand_uniform([2, 3, 4, 5], -1.0, 1.0, 1);
        let y = f.forward(&x, Mode::Eval).expect("rank > 0");
        assert_eq!(y.dims(), &[2, 60]);
        let gx = f.backward(&y).expect("forward state present");
        assert_eq!(gx.dims(), x.dims());
        assert_eq!(gx.data(), x.data());
    }

    #[test]
    fn rank1_flattens_to_column() {
        let mut f = Flatten::new();
        let y = f
            .forward(&Tensor::zeros([5]), Mode::Eval)
            .expect("rank > 0");
        assert_eq!(y.dims(), &[5, 1]);
    }

    #[test]
    fn scalar_is_rejected() {
        let mut f = Flatten::new();
        assert!(f
            .forward(&Tensor::zeros(Shape::scalar()), Mode::Eval)
            .is_err());
    }

    #[test]
    fn backward_before_forward_is_error() {
        assert!(Flatten::new().backward(&Tensor::zeros([2, 2])).is_err());
    }
}
