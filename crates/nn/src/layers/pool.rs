//! Pooling layers.

use crate::error::{NnError, Result};
use crate::layers::{Layer, Mode};
use crate::workspace::Workspace;
use reduce_tensor::{ops, Tensor};

/// Output dims for a square pooling window over an NCHW input, or a
/// deliberately bogus shape for non-rank-4 inputs so the `_into` kernel can
/// surface its own (correct) error.
fn pool_out_dims(x: &Tensor, window: usize, stride: usize) -> Result<Vec<usize>> {
    let d = x.dims();
    if d.len() != 4 {
        return Ok(vec![0, 0, 0, 0]);
    }
    // xtask:allow(index): rank-4 guaranteed by the early return above
    let g = ops::Conv2dGeometry::new(d[2], d[3], window, window, stride, 0)?;
    // xtask:allow(index): rank-4 guaranteed by the early return above
    Ok(vec![d[0], d[1], g.out_h, g.out_w])
}

/// 2-D max pooling over NCHW tensors (no padding).
#[derive(Debug)]
pub struct MaxPool2d {
    window: usize,
    stride: usize,
    cached: Option<(Vec<usize>, Vec<usize>)>, // (argmax, input dims)
}

impl MaxPool2d {
    /// Creates a max-pool layer with a square window.
    pub fn new(window: usize, stride: usize) -> Self {
        MaxPool2d {
            window,
            stride,
            cached: None,
        }
    }

    /// The pooling window size.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        format!(
            "max_pool2d({}x{}, s{})",
            self.window, self.window, self.stride
        )
    }

    fn forward_ws(&mut self, x: &Tensor, _mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        // Reuse the cached argmax / dims allocations across iterations.
        let (mut argmax, mut dims) = self.cached.take().unwrap_or_default();
        let mut out = ws.take(pool_out_dims(x, self.window, self.stride)?);
        ops::max_pool2d_into(x, self.window, self.stride, &mut out, &mut argmax)?;
        dims.clear();
        dims.extend_from_slice(x.dims());
        self.cached = Some((argmax, dims));
        Ok(out)
    }

    fn backward_ws(&mut self, grad: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let (argmax, dims) = self
            .cached
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardState { layer: self.name() })?;
        // xtask:allow(hot-path-alloc): clones a handful of usize shape entries, not a buffer
        let mut gx = ws.take(dims.clone());
        ops::max_pool2d_backward_into(grad, argmax, &mut gx)?;
        Ok(gx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_halves_spatial_dims() {
        let mut p = MaxPool2d::new(2, 2);
        let y = p
            .forward(&Tensor::zeros([1, 2, 8, 8]), Mode::Eval)
            .expect("valid input");
        assert_eq!(y.dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn max_pool_gradient_is_sparse() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::rand_uniform([1, 1, 4, 4], 0.0, 1.0, 3);
        let y = p.forward(&x, Mode::Train).expect("valid input");
        let gx = p
            .backward(&Tensor::ones(y.dims().to_vec()))
            .expect("forward state present");
        let nonzero = gx.data().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nonzero, 4); // one winner per window
    }

    #[test]
    fn backward_before_forward_is_error() {
        assert!(MaxPool2d::new(2, 2)
            .backward(&Tensor::zeros([1, 1, 2, 2]))
            .is_err());
    }

    #[test]
    fn rejects_non_nchw() {
        assert!(MaxPool2d::new(2, 2)
            .forward(&Tensor::zeros([4, 4]), Mode::Eval)
            .is_err());
    }
}
