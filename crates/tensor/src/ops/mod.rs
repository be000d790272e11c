//! Numeric kernels: GEMM variants, convolution lowering, pooling, softmax.
//!
//! Convolution, pooling and bias kernels write into caller-provided
//! buffers (`_into`/`_in_place`), so hot paths reuse workspace memory. Only
//! the matmul family also keeps an allocating form (`matmul`, …) next to
//! its `_into` form; both run the same loop order and produce
//! bit-identical results.

mod conv;
pub mod conv_reference;
pub mod gemm;
mod matmul;
mod softmax;

pub use conv::{
    col2im_into, im2col_into, max_pool2d_backward_into, max_pool2d_into, nchw_to_rows_into,
    rows_to_nchw_into, Conv2dGeometry,
};
pub use matmul::{
    add_bias_rows_in_place, dot, matmul, matmul_into, matmul_nt, matmul_nt_into, matmul_tn,
    matmul_tn_into,
};
pub use softmax::{log_softmax_rows, softmax_rows};
