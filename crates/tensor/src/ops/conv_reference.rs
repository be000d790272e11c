//! Reference convolution lowering: the correctness oracles for
//! [`super::im2col_into`] and [`super::col2im_into`].
//!
//! These are the original scatter loops — one bounds test per tap, no
//! scratch, no window copies — kept so the property tests can check the
//! production kernels against them bit for bit. Like
//! [`super::gemm::reference::naive_into`] they are never used in
//! production and deliberately have no cleverness to get wrong.

use super::Conv2dGeometry;
use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// Unrolls input patches `(N, C, H, W)` → `(N·OH·OW, C·KH·KW)` into `out`,
/// one element at a time; padding taps read zero.
///
/// # Errors
///
/// Returns an error if `x` is not rank-4 or its spatial dims or `out`'s
/// shape disagree with `geom`.
pub fn im2col_into(x: &Tensor, geom: &Conv2dGeometry, out: &mut Tensor) -> Result<()> {
    let (n, c, h, w) = match x.dims() {
        &[n, c, h, w] if h == geom.in_h && w == geom.in_w => (n, c, h, w),
        other => {
            return Err(TensorError::ShapeMismatch {
                op: "im2col_reference",
                lhs: vec![geom.in_h, geom.in_w],
                rhs: other.to_vec(),
            })
        }
    };
    let (kh, kw, s, p) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    let (oh, ow) = (geom.out_h, geom.out_w);
    let row_len = c * kh * kw;
    if out.dims() != [n * oh * ow, row_len] {
        return Err(TensorError::ShapeMismatch {
            op: "im2col_reference",
            lhs: vec![n * oh * ow, row_len],
            rhs: out.dims().to_vec(),
        });
    }
    out.fill_zero();
    let xd = x.data();
    let od = out.data_mut();
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let base = ((img * oh + oy) * ow + ox) * row_len;
                for ch in 0..c {
                    let chan_base = (img * c + ch) * h * w;
                    for ky in 0..kh {
                        let iy = (oy * s + ky) as isize - p as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * s + kx) as isize - p as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            // xtask:allow(index): iy, ix lie inside the h x w plane by the tests above
                            let v = xd[chan_base + iy as usize * w + ix as usize];
                            // xtask:allow(index): the tap lies inside the validated row
                            od[base + (ch * kh + ky) * kw + kx] = v;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Scatters column gradients `(N·OH·OW, C·KH·KW)` back to `(N, C, H, W)`
/// in `out`, one element at a time: the adjoint of [`im2col_into`]. Every
/// input pixel sums its taps starting from `+0.0` in ascending row order.
///
/// # Errors
///
/// Returns an error if `cols` or `out` disagree with `geom`.
pub fn col2im_into(
    cols: &Tensor,
    n: usize,
    c: usize,
    geom: &Conv2dGeometry,
    out: &mut Tensor,
) -> Result<()> {
    let (kh, kw, s, p) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    let (oh, ow, h, w) = (geom.out_h, geom.out_w, geom.in_h, geom.in_w);
    let row_len = c * kh * kw;
    if cols.dims() != [n * oh * ow, row_len] || out.dims() != [n, c, h, w] {
        return Err(TensorError::ShapeMismatch {
            op: "col2im_reference",
            lhs: cols.dims().to_vec(),
            rhs: out.dims().to_vec(),
        });
    }
    out.fill_zero();
    let cd = cols.data();
    let od = out.data_mut();
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let base = ((img * oh + oy) * ow + ox) * row_len;
                for ch in 0..c {
                    let chan_base = (img * c + ch) * h * w;
                    for ky in 0..kh {
                        let iy = (oy * s + ky) as isize - p as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * s + kx) as isize - p as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            // xtask:allow(index): the tap lies inside the validated row
                            let v = cd[base + (ch * kh + ky) * kw + kx];
                            // xtask:allow(index): iy, ix lie inside the h x w plane by the tests above
                            od[chan_base + iy as usize * w + ix as usize] += v;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}
