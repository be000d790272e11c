//! Convolution and pooling kernels for NCHW tensors.
//!
//! Convolution is implemented by the classic im2col lowering: the input
//! patches are unrolled into a `(N·OH·OW, C·KH·KW)` matrix so the
//! convolution becomes one GEMM against the `(OC, C·KH·KW)` filter matrix —
//! exactly the reshaping the systolic-array mapper in `reduce-systolic`
//! assumes when it lays filter weights onto the PE grid.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;
use std::cell::RefCell;

/// Spatial geometry of a 2-D convolution or pooling window.
///
/// # Examples
///
/// ```
/// use reduce_tensor::ops::Conv2dGeometry;
///
/// # fn main() -> Result<(), reduce_tensor::TensorError> {
/// let g = Conv2dGeometry::new(32, 32, 3, 3, 1, 1)?;
/// assert_eq!(g.out_h, 32); // "same" padding with 3x3/stride 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes output geometry for the given window parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the stride is zero, the
    /// kernel is empty, or the padded input is smaller than the kernel.
    pub fn new(
        in_h: usize,
        in_w: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if stride == 0 {
            return Err(TensorError::InvalidArgument {
                op: "Conv2dGeometry",
                reason: "stride must be nonzero".to_string(),
            });
        }
        if kernel_h == 0 || kernel_w == 0 {
            return Err(TensorError::InvalidArgument {
                op: "Conv2dGeometry",
                reason: "kernel must be non-empty".to_string(),
            });
        }
        let padded_h = in_h + 2 * padding;
        let padded_w = in_w + 2 * padding;
        if padded_h < kernel_h || padded_w < kernel_w {
            return Err(TensorError::InvalidArgument {
                op: "Conv2dGeometry",
                reason: format!(
                    "kernel {kernel_h}x{kernel_w} larger than padded input {padded_h}x{padded_w}"
                ),
            });
        }
        Ok(Conv2dGeometry {
            in_h,
            in_w,
            kernel_h,
            kernel_w,
            stride,
            padding,
            out_h: (padded_h - kernel_h) / stride + 1,
            out_w: (padded_w - kernel_w) / stride + 1,
        })
    }

    /// Number of output positions per image (`out_h * out_w`).
    pub fn out_positions(&self) -> usize {
        self.out_h * self.out_w
    }
}

fn check_nchw(op: &'static str, x: &Tensor) -> Result<(usize, usize, usize, usize)> {
    let d = x.dims();
    if d.len() != 4 {
        return Err(TensorError::InvalidArgument {
            op,
            reason: format!("expected NCHW rank-4 tensor, got shape {:?}", d),
        });
    }
    Ok((d[0], d[1], d[2], d[3]))
}

/// Unrolls input patches: `(N, C, H, W)` → `(N·OH·OW, C·KH·KW)`.
///
/// Row `n·OH·OW + oy·OW + ox` holds the flattened receptive field of output
/// position `(oy, ox)` of image `n`; out-of-bounds (padding) taps are zero.
///
/// # Errors
///
/// Returns an error if `x` is not rank-4 or the geometry does not match its
/// spatial dims.
pub fn im2col(x: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let (n, c, _, _) = check_nchw("im2col", x)?;
    let mut out = Tensor::zeros([
        n * geom.out_h * geom.out_w,
        c * geom.kernel_h * geom.kernel_w,
    ]);
    im2col_into(x, geom, &mut out)?;
    Ok(out)
}

/// Like [`im2col`] but writing into a caller-provided scratch tensor of
/// shape `(N·OH·OW, C·KH·KW)`. Every element of `out` is overwritten, so
/// its prior contents do not matter; results are bit-identical to
/// [`im2col`] and to the scatter-loop oracle
/// [`super::conv_reference::im2col_into`].
///
/// Each image is first copied into a per-thread zero-padded scratch
/// buffer; every patch row is then filled with `KH` window copies of `KW`
/// elements per channel, with no per-element bounds test.
///
/// # Errors
///
/// Same conditions as [`im2col`], plus a shape check on `out`.
pub fn im2col_into(x: &Tensor, geom: &Conv2dGeometry, out: &mut Tensor) -> Result<()> {
    let (n, c, h, w) = check_nchw("im2col", x)?;
    if h != geom.in_h || w != geom.in_w {
        return Err(TensorError::ShapeMismatch {
            op: "im2col",
            lhs: vec![geom.in_h, geom.in_w],
            rhs: vec![h, w],
        });
    }
    let rows = n * geom.out_h * geom.out_w;
    let row_len = c * geom.kernel_h * geom.kernel_w;
    if out.dims() != [rows, row_len] {
        return Err(TensorError::ShapeMismatch {
            op: "im2col_into",
            lhs: vec![rows, row_len],
            rhs: out.dims().to_vec(),
        });
    }
    let od = out.data_mut();
    if od.is_empty() {
        return Ok(());
    }
    if h * w == 0 {
        // Every tap of an empty image is padding.
        od.fill(0.0);
        return Ok(());
    }
    PADDED.with_borrow_mut(|pad| match geom.kernel_w {
        3 => im2col_windows::<3>(x.data(), c, geom, pad, od),
        _ => im2col_windows::<0>(x.data(), c, geom, pad, od),
    });
    Ok(())
}

thread_local! {
    /// Per-thread scratch holding one zero-padded image,
    /// `C × (H + 2P) × (W + 2P)`, for [`im2col_into`] and [`col2im_into`].
    /// It grows to the largest padded image the thread has seen and is
    /// then reused, so neither kernel allocates once warm. Each call
    /// re-zeroes it before use, so results never depend on what it held.
    /// A scratch-free version that clips each window row to the image
    /// was measured slower (DESIGN.md §12, "Convolution lowering").
    static PADDED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Zeroes `pad` for one padded image of `c` channels.
fn reset_padded(pad: &mut Vec<f32>, c: usize, geom: &Conv2dGeometry) {
    let p = geom.padding;
    pad.clear();
    pad.resize(c * (geom.in_h + 2 * p) * (geom.in_w + 2 * p), 0.0);
}

/// Copies the `K`-wide window (`K = 0`: as wide as `dst`) at the start
/// of `src` into `dst`. Only width 3, the width of every VGG kernel, is
/// fixed at compile time: it measured faster than the generic body
/// (DESIGN.md §12, "Convolution lowering").
#[inline(always)]
fn copy_window<const K: usize>(dst: &mut [f32], src: &[f32]) {
    let k = if K == 0 { dst.len() } else { K };
    // xtask:allow(index): callers pass windows of exactly `kernel_w` elements inside the padded plane
    dst[..k].copy_from_slice(&src[..k]);
}

/// Adds the `K`-wide window `src` (`K = 0`: as wide as `src`)
/// elementwise into the start of `dst`.
#[inline(always)]
fn add_window<const K: usize>(dst: &mut [f32], src: &[f32]) {
    let k = if K == 0 { src.len() } else { K };
    // xtask:allow(index): callers pass windows of exactly `kernel_w` elements inside the padded plane
    for (d, &v) in dst[..k].iter_mut().zip(&src[..k]) {
        *d += v;
    }
}

/// The [`im2col_into`] body for a non-empty `out` and image; `K` is the
/// kernel width when it is a compile-time constant, else 0.
fn im2col_windows<const K: usize>(
    xd: &[f32],
    c: usize,
    geom: &Conv2dGeometry,
    pad: &mut Vec<f32>,
    od: &mut [f32],
) {
    let (h, w, kh, kw) = (geom.in_h, geom.in_w, geom.kernel_h, geom.kernel_w);
    let (s, p, ow) = (geom.stride, geom.padding, geom.out_w);
    let (plane, pw) = (h * w, w + 2 * p);
    let padded_plane = (h + 2 * p) * pw;
    let row_len = c * kh * kw;
    reset_padded(pad, c, geom);
    let image_rows = geom.out_positions() * row_len;
    for (image, cols) in xd
        .chunks_exact(c * plane)
        .zip(od.chunks_exact_mut(image_rows))
    {
        // Only the interior is written, so the border stays zero.
        for (src, dst) in image
            .chunks_exact(plane)
            .zip(pad.chunks_exact_mut(padded_plane))
        {
            for (src_row, dst_row) in src.chunks_exact(w).zip(dst.chunks_exact_mut(pw).skip(p)) {
                // xtask:allow(index): the interior p..p + w of a (w + 2p)-wide padded row
                dst_row[p..p + w].copy_from_slice(src_row);
            }
        }
        for (pos, patch) in cols.chunks_exact_mut(row_len).enumerate() {
            let corner = (pos / ow) * s * pw + (pos % ow) * s;
            for (padded, taps) in pad
                .chunks_exact(padded_plane)
                .zip(patch.chunks_exact_mut(kh * kw))
            {
                for (ky, dst) in taps.chunks_exact_mut(kw).enumerate() {
                    // xtask:allow(index): the window's padded rows and columns lie inside the plane by the geometry
                    copy_window::<K>(dst, &padded[corner + ky * pw..]);
                }
            }
        }
    }
}

/// Scatters column gradients back: the adjoint of [`im2col`].
///
/// `cols` has shape `(N·OH·OW, C·KH·KW)`; the result has shape
/// `(N, C, H, W)` with overlapping taps accumulated.
///
/// # Errors
///
/// Returns an error if `cols` does not match the geometry.
pub fn col2im(cols: &Tensor, n: usize, c: usize, geom: &Conv2dGeometry) -> Result<Tensor> {
    let mut out = Tensor::zeros([n, c, geom.in_h, geom.in_w]);
    col2im_into(cols, n, c, geom, &mut out)?;
    Ok(out)
}

/// Like [`col2im`] but writing into a caller-provided tensor of shape
/// `(N, C, H, W)`. Every element of `out` is overwritten, so its prior
/// contents do not matter; results are bit-identical to [`col2im`] and to
/// the scatter-loop oracle [`super::conv_reference::col2im_into`].
///
/// Each image's taps are added into a per-thread zero-padded scratch
/// buffer one `KW`-wide window at a time, in ascending row order, and the
/// interior is then copied out: every input pixel still sums its taps
/// from `+0.0` in ascending output-row order, as the oracle does.
///
/// # Errors
///
/// Same conditions as [`col2im`], plus a shape check on `out`.
pub fn col2im_into(
    cols: &Tensor,
    n: usize,
    c: usize,
    geom: &Conv2dGeometry,
    out: &mut Tensor,
) -> Result<()> {
    let (rows, row_len) = cols.shape().as_matrix()?;
    let (kh, kw) = (geom.kernel_h, geom.kernel_w);
    let (oh, ow, h, w) = (geom.out_h, geom.out_w, geom.in_h, geom.in_w);
    if rows != n * oh * ow || row_len != c * kh * kw {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: vec![n * oh * ow, c * kh * kw],
            rhs: vec![rows, row_len],
        });
    }
    if out.dims() != [n, c, h, w] {
        return Err(TensorError::ShapeMismatch {
            op: "col2im_into",
            lhs: vec![n, c, h, w],
            rhs: out.dims().to_vec(),
        });
    }
    let od = out.data_mut();
    if od.is_empty() {
        return Ok(());
    }
    PADDED.with_borrow_mut(|pad| match kw {
        3 => col2im_windows::<3>(cols.data(), c, geom, pad, od),
        _ => col2im_windows::<0>(cols.data(), c, geom, pad, od),
    });
    Ok(())
}

/// The [`col2im_into`] body for a non-empty `out`; `K` as in
/// [`im2col_windows`].
fn col2im_windows<const K: usize>(
    cd: &[f32],
    c: usize,
    geom: &Conv2dGeometry,
    pad: &mut Vec<f32>,
    od: &mut [f32],
) {
    let (h, w, kh, kw) = (geom.in_h, geom.in_w, geom.kernel_h, geom.kernel_w);
    let (s, p, ow) = (geom.stride, geom.padding, geom.out_w);
    let (plane, pw) = (h * w, w + 2 * p);
    let padded_plane = (h + 2 * p) * pw;
    let row_len = c * kh * kw;
    let image_rows = geom.out_positions() * row_len;
    for (cols, image) in cd
        .chunks_exact(image_rows)
        .zip(od.chunks_exact_mut(c * plane))
    {
        reset_padded(pad, c, geom);
        for (pos, patch) in cols.chunks_exact(row_len).enumerate() {
            let corner = (pos / ow) * s * pw + (pos % ow) * s;
            for (padded, taps) in pad
                .chunks_exact_mut(padded_plane)
                .zip(patch.chunks_exact(kh * kw))
            {
                for (ky, src) in taps.chunks_exact(kw).enumerate() {
                    // xtask:allow(index): the window's padded rows and columns lie inside the plane by the geometry
                    add_window::<K>(&mut padded[corner + ky * pw..], src);
                }
            }
        }
        // Taps that landed on the border belong to padding and are dropped.
        for (src, dst) in pad
            .chunks_exact(padded_plane)
            .zip(image.chunks_exact_mut(plane))
        {
            for (src_row, dst_row) in src.chunks_exact(pw).skip(p).zip(dst.chunks_exact_mut(w)) {
                // xtask:allow(index): the interior p..p + w of a (w + 2p)-wide padded row
                dst_row.copy_from_slice(&src_row[p..p + w]);
            }
        }
    }
}

/// Reorders a `(N·OH·OW, OC)` GEMM output into NCHW `(N, OC, OH, OW)`.
///
/// # Errors
///
/// Returns an error on inconsistent dimensions.
pub fn rows_to_nchw(rows: &Tensor, n: usize, oc: usize, oh: usize, ow: usize) -> Result<Tensor> {
    let mut out = Tensor::zeros([n, oc, oh, ow]);
    rows_to_nchw_into(rows, n, oc, oh, ow, &mut out)?;
    Ok(out)
}

/// Like [`rows_to_nchw`] but writing into a caller-provided tensor of shape
/// `(N, OC, OH, OW)`. Every element is overwritten.
///
/// # Errors
///
/// Same conditions as [`rows_to_nchw`], plus a shape check on `out`.
pub fn rows_to_nchw_into(
    rows: &Tensor,
    n: usize,
    oc: usize,
    oh: usize,
    ow: usize,
    out: &mut Tensor,
) -> Result<()> {
    let (r, c) = rows.shape().as_matrix()?;
    if r != n * oh * ow || c != oc {
        return Err(TensorError::ShapeMismatch {
            op: "rows_to_nchw",
            lhs: vec![n * oh * ow, oc],
            rhs: vec![r, c],
        });
    }
    if out.dims() != [n, oc, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "rows_to_nchw_into",
            lhs: vec![n, oc, oh, ow],
            rhs: out.dims().to_vec(),
        });
    }
    let rd = rows.data();
    let od = out.data_mut();
    for img in 0..n {
        for y in 0..oh {
            for x in 0..ow {
                let row = (img * oh + y) * ow + x;
                for ch in 0..oc {
                    od[((img * oc + ch) * oh + y) * ow + x] = rd[row * oc + ch];
                }
            }
        }
    }
    Ok(())
}

/// Inverse of [`rows_to_nchw`]: NCHW `(N, OC, OH, OW)` → `(N·OH·OW, OC)`.
///
/// # Errors
///
/// Returns an error if `x` is not rank-4.
pub fn nchw_to_rows(x: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw("nchw_to_rows", x)?;
    let mut out = Tensor::zeros([n * h * w, c]);
    nchw_to_rows_into(x, &mut out)?;
    Ok(out)
}

/// Like [`nchw_to_rows`] but writing into a caller-provided tensor of shape
/// `(N·H·W, C)`. Every element is overwritten.
///
/// # Errors
///
/// Same conditions as [`nchw_to_rows`], plus a shape check on `out`.
pub fn nchw_to_rows_into(x: &Tensor, out: &mut Tensor) -> Result<()> {
    let (n, c, h, w) = check_nchw("nchw_to_rows", x)?;
    if out.dims() != [n * h * w, c] {
        return Err(TensorError::ShapeMismatch {
            op: "nchw_to_rows_into",
            lhs: vec![n * h * w, c],
            rhs: out.dims().to_vec(),
        });
    }
    let xd = x.data();
    let od = out.data_mut();
    for img in 0..n {
        for ch in 0..c {
            for y in 0..h {
                for xcol in 0..w {
                    let row = (img * h + y) * w + xcol;
                    od[row * c + ch] = xd[((img * c + ch) * h + y) * w + xcol];
                }
            }
        }
    }
    Ok(())
}

/// Output of [`max_pool2d`]: pooled values plus flat argmax indices used by
/// the backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxPoolOutput {
    /// Pooled tensor `(N, C, OH, OW)`.
    pub output: Tensor,
    /// For each output element, the flat index into the input tensor of the
    /// element that produced it.
    pub argmax: Vec<usize>,
}

/// 2-D max pooling over an NCHW tensor (no padding).
///
/// # Errors
///
/// Returns an error for non-rank-4 input, a zero window/stride, or a window
/// larger than the input.
pub fn max_pool2d(x: &Tensor, window: usize, stride: usize) -> Result<MaxPoolOutput> {
    let (n, c, h, w) = check_nchw("max_pool2d", x)?;
    let geom = Conv2dGeometry::new(h, w, window, window, stride, 0)?;
    let mut output = Tensor::zeros([n, c, geom.out_h, geom.out_w]);
    let mut argmax = Vec::new();
    max_pool2d_into(x, window, stride, &mut output, &mut argmax)?;
    Ok(MaxPoolOutput { output, argmax })
}

/// Like [`max_pool2d`] but writing pooled values into `out` (shape
/// `(N, C, OH, OW)`) and argmax indices into a caller-owned `argmax`
/// buffer, which is cleared and refilled (its allocation is reused once it
/// has grown to size). Results are bit-identical to [`max_pool2d`].
///
/// # Errors
///
/// Same conditions as [`max_pool2d`], plus a shape check on `out`.
pub fn max_pool2d_into(
    x: &Tensor,
    window: usize,
    stride: usize,
    out: &mut Tensor,
    argmax: &mut Vec<usize>,
) -> Result<()> {
    let (n, c, h, w) = check_nchw("max_pool2d", x)?;
    let geom = Conv2dGeometry::new(h, w, window, window, stride, 0)?;
    let (oh, ow) = (geom.out_h, geom.out_w);
    if out.dims() != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "max_pool2d_into",
            lhs: vec![n, c, oh, ow],
            rhs: out.dims().to_vec(),
        });
    }
    argmax.clear();
    argmax.resize(n * c * oh * ow, 0);
    let output = out;
    let xd = x.data();
    let od = output.data_mut();
    for img in 0..n {
        for ch in 0..c {
            let chan_base = (img * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = chan_base + (oy * stride) * w + ox * stride;
                    for ky in 0..window {
                        for kx in 0..window {
                            let idx = chan_base + (oy * stride + ky) * w + (ox * stride + kx);
                            if xd[idx] > best {
                                best = xd[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let out_idx = ((img * c + ch) * oh + oy) * ow + ox;
                    od[out_idx] = best;
                    argmax[out_idx] = best_idx;
                }
            }
        }
    }
    Ok(())
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the input
/// element that won the max.
///
/// # Errors
///
/// Returns an error if `grad` and `argmax` lengths differ.
pub fn max_pool2d_backward(
    grad: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
) -> Result<Tensor> {
    let mut out = Tensor::zeros(input_dims.to_vec());
    max_pool2d_backward_into(grad, argmax, &mut out)?;
    Ok(out)
}

/// Like [`max_pool2d_backward`] but accumulating into a caller-provided
/// tensor already shaped like the pooling input. `out` is zeroed first;
/// results are bit-identical to [`max_pool2d_backward`].
///
/// # Errors
///
/// Returns an error if `grad` and `argmax` lengths differ.
pub fn max_pool2d_backward_into(grad: &Tensor, argmax: &[usize], out: &mut Tensor) -> Result<()> {
    if grad.len() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            expected: argmax.len(),
            actual: grad.len(),
        });
    }
    out.fill_zero();
    let od = out.data_mut();
    for (g, &idx) in grad.data().iter().zip(argmax) {
        od[idx] += g;
    }
    Ok(())
}

/// 2-D average pooling over an NCHW tensor (no padding).
///
/// # Errors
///
/// Same conditions as [`max_pool2d`].
pub fn avg_pool2d(x: &Tensor, window: usize, stride: usize) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw("avg_pool2d", x)?;
    let geom = Conv2dGeometry::new(h, w, window, window, stride, 0)?;
    let mut output = Tensor::zeros([n, c, geom.out_h, geom.out_w]);
    avg_pool2d_into(x, window, stride, &mut output)?;
    Ok(output)
}

/// Like [`avg_pool2d`] but writing into `out` (shape `(N, C, OH, OW)`).
/// Every element is overwritten; results are bit-identical to
/// [`avg_pool2d`].
///
/// # Errors
///
/// Same conditions as [`avg_pool2d`], plus a shape check on `out`.
pub fn avg_pool2d_into(x: &Tensor, window: usize, stride: usize, out: &mut Tensor) -> Result<()> {
    let (n, c, h, w) = check_nchw("avg_pool2d", x)?;
    let geom = Conv2dGeometry::new(h, w, window, window, stride, 0)?;
    let (oh, ow) = (geom.out_h, geom.out_w);
    if out.dims() != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "avg_pool2d_into",
            lhs: vec![n, c, oh, ow],
            rhs: out.dims().to_vec(),
        });
    }
    let inv = 1.0 / (window * window) as f32;
    let output = out;
    let xd = x.data();
    let od = output.data_mut();
    for img in 0..n {
        for ch in 0..c {
            let chan_base = (img * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ky in 0..window {
                        for kx in 0..window {
                            acc += xd[chan_base + (oy * stride + ky) * w + (ox * stride + kx)];
                        }
                    }
                    od[((img * c + ch) * oh + oy) * ow + ox] = acc * inv;
                }
            }
        }
    }
    Ok(())
}

/// Backward pass of [`avg_pool2d`]: spreads each output gradient uniformly
/// over its window.
///
/// # Errors
///
/// Returns an error if dims are inconsistent with the window geometry.
pub fn avg_pool2d_backward(
    grad: &Tensor,
    input_dims: &[usize],
    window: usize,
    stride: usize,
) -> Result<Tensor> {
    if grad.rank() != 4 || input_dims.len() != 4 {
        return Err(TensorError::InvalidArgument {
            op: "avg_pool2d_backward",
            reason: "expected rank-4 grad and input dims".to_string(),
        });
    }
    let mut out = Tensor::zeros(input_dims.to_vec());
    avg_pool2d_backward_into(grad, window, stride, &mut out)?;
    Ok(out)
}

/// Like [`avg_pool2d_backward`] but accumulating into a caller-provided
/// tensor already shaped like the pooling input. `out` is zeroed first;
/// results are bit-identical to [`avg_pool2d_backward`].
///
/// # Errors
///
/// Returns an error if `grad` or `out` is not rank-4.
pub fn avg_pool2d_backward_into(
    grad: &Tensor,
    window: usize,
    stride: usize,
    out: &mut Tensor,
) -> Result<()> {
    let d = grad.dims().to_vec();
    if d.len() != 4 || out.rank() != 4 {
        return Err(TensorError::InvalidArgument {
            op: "avg_pool2d_backward",
            reason: "expected rank-4 grad and input dims".to_string(),
        });
    }
    let (n, c, oh, ow) = (d[0], d[1], d[2], d[3]);
    let (h, w) = (out.dims()[2], out.dims()[3]);
    let inv = 1.0 / (window * window) as f32;
    out.fill_zero();
    let gd = grad.data();
    let od = out.data_mut();
    for img in 0..n {
        for ch in 0..c {
            let chan_base = (img * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = gd[((img * c + ch) * oh + oy) * ow + ox] * inv;
                    for ky in 0..window {
                        for kx in 0..window {
                            od[chan_base + (oy * stride + ky) * w + (ox * stride + kx)] += g;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::matmul_nt;

    /// Direct (definition-level) convolution used as an oracle.
    fn naive_conv(x: &Tensor, w: &Tensor, geom: &Conv2dGeometry) -> Tensor {
        let xd = x.dims().to_vec();
        let (n, c, h, wd) = (xd[0], xd[1], xd[2], xd[3]);
        let wdims = w.dims().to_vec();
        let oc = wdims[0];
        let (kh, kw, s, p) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
        let (oh, ow) = (geom.out_h, geom.out_w);
        Tensor::from_fn([n, oc, oh, ow], |flat| {
            let ox = flat % ow;
            let oy = (flat / ow) % oh;
            let f = (flat / (ow * oh)) % oc;
            let img = flat / (ow * oh * oc);
            let mut acc = 0.0f32;
            for ch in 0..c {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let iy = (oy * s + ky) as isize - p as isize;
                        let ix = (ox * s + kx) as isize - p as isize;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= wd as isize {
                            continue;
                        }
                        let xval = x.data()[((img * c + ch) * h + iy as usize) * wd + ix as usize];
                        let wval = w.data()[((f * c + ch) * kh + ky) * kw + kx];
                        acc += xval * wval;
                    }
                }
            }
            acc
        })
    }

    #[test]
    fn geometry_same_padding() {
        let g = Conv2dGeometry::new(8, 8, 3, 3, 1, 1).expect("valid");
        assert_eq!((g.out_h, g.out_w), (8, 8));
        assert_eq!(g.out_positions(), 64);
    }

    #[test]
    fn geometry_strided() {
        let g = Conv2dGeometry::new(8, 8, 2, 2, 2, 0).expect("valid");
        assert_eq!((g.out_h, g.out_w), (4, 4));
    }

    #[test]
    fn geometry_rejects_bad_args() {
        assert!(Conv2dGeometry::new(8, 8, 3, 3, 0, 0).is_err());
        assert!(Conv2dGeometry::new(8, 8, 0, 3, 1, 0).is_err());
        assert!(Conv2dGeometry::new(2, 2, 5, 5, 1, 0).is_err());
    }

    #[test]
    fn im2col_gemm_matches_naive_conv() {
        let geom = Conv2dGeometry::new(6, 5, 3, 3, 1, 1).expect("valid");
        let x = Tensor::rand_uniform([2, 3, 6, 5], -1.0, 1.0, 11);
        let w = Tensor::rand_uniform([4, 3 * 3 * 3], -1.0, 1.0, 12);
        let cols = im2col(&x, &geom).expect("geometry matches");
        let rows = matmul_nt(&cols, &w).expect("conformable");
        let got = rows_to_nchw(&rows, 2, 4, geom.out_h, geom.out_w).expect("consistent");
        let w4 = w.reshape([4, 3, 3, 3]).expect("same volume");
        let want = naive_conv(&x, &w4, &geom);
        assert!(got.approx_eq(&want, 1e-4));
    }

    #[test]
    fn im2col_strided_no_padding() {
        let geom = Conv2dGeometry::new(4, 4, 2, 2, 2, 0).expect("valid");
        let x = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
        let cols = im2col(&x, &geom).expect("geometry matches");
        assert_eq!(cols.dims(), &[4, 4]);
        // First patch is the top-left 2x2 block.
        assert_eq!(cols.row(0).expect("in range").data(), &[0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn im2col_rejects_wrong_spatial_dims() {
        let geom = Conv2dGeometry::new(6, 6, 3, 3, 1, 1).expect("valid");
        let x = Tensor::zeros([1, 1, 5, 5]);
        assert!(im2col(&x, &geom).is_err());
        assert!(im2col(&Tensor::zeros([5, 5]), &geom).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which is exactly what backprop needs.
        let geom = Conv2dGeometry::new(5, 5, 3, 3, 1, 1).expect("valid");
        let x = Tensor::rand_uniform([1, 2, 5, 5], -1.0, 1.0, 21);
        let cols = im2col(&x, &geom).expect("geometry matches");
        let y = Tensor::rand_uniform(cols.dims().to_vec(), -1.0, 1.0, 22);
        let xback = col2im(&y, 1, 2, &geom).expect("consistent");
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(xback.data())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn rows_nchw_round_trip() {
        let x = Tensor::rand_uniform([2, 3, 4, 5], -1.0, 1.0, 31);
        let rows = nchw_to_rows(&x).expect("rank 4");
        let back = rows_to_nchw(&rows, 2, 3, 4, 5).expect("consistent");
        assert_eq!(back, x);
    }

    #[test]
    fn max_pool_forward() {
        let x = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
        let p = max_pool2d(&x, 2, 2).expect("valid window");
        assert_eq!(p.output.dims(), &[1, 1, 2, 2]);
        assert_eq!(p.output.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
        let p = max_pool2d(&x, 2, 2).expect("valid window");
        let g = Tensor::ones(p.output.dims().to_vec());
        let gx = max_pool2d_backward(&g, &p.argmax, x.dims()).expect("consistent");
        assert_eq!(gx.sum(), 4.0);
        assert_eq!(gx.at(&[0, 0, 1, 1]).expect("valid"), 1.0); // element 5
        assert_eq!(gx.at(&[0, 0, 0, 0]).expect("valid"), 0.0);
    }

    #[test]
    fn avg_pool_forward_backward() {
        let x = Tensor::from_fn([1, 1, 2, 2], |i| i as f32);
        let y = avg_pool2d(&x, 2, 2).expect("valid window");
        assert_eq!(y.data(), &[1.5]);
        let gx = avg_pool2d_backward(&y, x.dims(), 2, 2).expect("consistent");
        assert!(gx.data().iter().all(|&v| (v - 0.375).abs() < 1e-6));
    }

    #[test]
    fn pool_gradcheck_against_finite_difference() {
        let x = Tensor::rand_uniform([1, 2, 4, 4], -1.0, 1.0, 41);
        let p = max_pool2d(&x, 2, 2).expect("valid window");
        // Loss = sum of pooled outputs; analytic gradient routes ones.
        let g = Tensor::ones(p.output.dims().to_vec());
        let gx = max_pool2d_backward(&g, &p.argmax, x.dims()).expect("consistent");
        let eps = 1e-3;
        for probe in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let lp = max_pool2d(&xp, 2, 2).expect("valid window").output.sum();
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let lm = max_pool2d(&xm, 2, 2).expect("valid window").output.sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gx.data()[probe]).abs() < 1e-2,
                "probe {probe}: fd {fd} vs analytic {}",
                gx.data()[probe]
            );
        }
    }
}
