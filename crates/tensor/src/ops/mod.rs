//! Numeric kernels: GEMM variants, convolution lowering, pooling, softmax.
//!
//! Most kernels come in two flavours: an allocating form (`matmul`,
//! `im2col`, …) and an `_into` form that writes into a caller-provided
//! buffer for workspace reuse on hot paths. The `_into` forms run the same
//! loop order as their allocating counterparts, so both produce
//! bit-identical results.

mod conv;
pub mod conv_reference;
pub mod gemm;
mod matmul;
mod softmax;

pub use conv::{
    col2im, col2im_into, im2col, im2col_into, max_pool2d, max_pool2d_backward,
    max_pool2d_backward_into, max_pool2d_into, nchw_to_rows, nchw_to_rows_into, rows_to_nchw,
    rows_to_nchw_into, Conv2dGeometry, MaxPoolOutput,
};
pub use matmul::{
    add_bias_rows, add_bias_rows_in_place, dot, matmul, matmul_into, matmul_nt, matmul_nt_into,
    matmul_tn, matmul_tn_into,
};
pub use softmax::{log_softmax_rows, one_hot, softmax_rows};
