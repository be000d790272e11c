//! Matrix multiplication entry points.
//!
//! Three GEMM variants cover everything the NN framework needs without
//! ever materialising transposes on the hot path:
//!
//! * [`matmul`] / [`matmul_into`]       — `C = A · B`
//! * [`matmul_tn`] / [`matmul_tn_into`] — `C = Aᵀ · B` (weight gradients)
//! * [`matmul_nt`] / [`matmul_nt_into`] — `C = A · Bᵀ` (input gradients)
//!
//! The `_into` variants write into a caller-provided output tensor so hot
//! loops (training epochs, fleet retraining) can reuse workspace buffers
//! instead of allocating per call. Each allocating form zeroes a fresh
//! output and calls its `_into` twin, so results are bit-identical either
//! way — and every error names the exact entry point it came from, so a
//! shape bug deep in a backward pass is diagnosable from the message.
//!
//! The compute itself lives in [`super::gemm`]: large shapes take the
//! packed, cache-tiled, register-blocked path; small and degenerate
//! shapes stay on the blocked reference loops. Dispatch is a pure
//! function of the shape, so a given call site always runs the same
//! kernel and results are fully deterministic (see the determinism and
//! accuracy notes in [`super::gemm`]).

use super::gemm::{self, GemmVariant};
use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// Computes `C = A · B` for rank-2 tensors `A: (m, k)` and `B: (k, n)`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for non-matrix inputs and
/// [`TensorError::ShapeMismatch`] if the inner dimensions differ.
///
/// # Examples
///
/// ```
/// use reduce_tensor::{ops::matmul, Tensor};
///
/// # fn main() -> Result<(), reduce_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// let id = Tensor::eye(2);
/// assert_eq!(matmul(&a, &id)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, _, n) = GemmVariant::NN.problem_size("matmul", a, b)?;
    let mut c = Tensor::zeros([m, n]);
    matmul_into(a, b, &mut c)?;
    Ok(c)
}

/// Like [`matmul`] but writing into `out`, which must already have shape
/// `(m, n)`. `out` is zeroed first; results are bit-identical to
/// [`matmul`].
///
/// # Errors
///
/// Same conditions as [`matmul`], plus [`TensorError::ShapeMismatch`] for
/// a misshapen `out` — all naming `matmul_into`.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    gemm_entry("matmul_into", GemmVariant::NN, a, b, out)
}

/// Computes `C = Aᵀ · B` for `A: (k, m)` and `B: (k, n)` without copying.
///
/// This is the kernel for weight gradients: `dW = Xᵀ · dY`.
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, _, n) = GemmVariant::TN.problem_size("matmul_tn", a, b)?;
    let mut c = Tensor::zeros([m, n]);
    matmul_tn_into(a, b, &mut c)?;
    Ok(c)
}

/// Like [`matmul_tn`] but writing into `out` (shape `(m, n)`). `out` is
/// zeroed first; results are bit-identical to [`matmul_tn`].
///
/// # Errors
///
/// Same conditions as [`matmul_tn`], plus a shape check on `out` — all
/// naming `matmul_tn_into`.
pub fn matmul_tn_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    gemm_entry("matmul_tn_into", GemmVariant::TN, a, b, out)
}

/// Computes `C = A · Bᵀ` for `A: (m, k)` and `B: (n, k)` without copying.
///
/// This is the kernel for input gradients: `dX = dY · W` with `W: (out, in)`
/// stored row-major, i.e. `dX = dY · (Wᵀ)ᵀ`.
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, _, n) = GemmVariant::NT.problem_size("matmul_nt", a, b)?;
    let mut c = Tensor::zeros([m, n]);
    matmul_nt_into(a, b, &mut c)?;
    Ok(c)
}

/// Like [`matmul_nt`] but writing into `out` (shape `(m, n)`). `out` is
/// zeroed first; results are bit-identical to [`matmul_nt`].
///
/// # Errors
///
/// Same conditions as [`matmul_nt`], plus a shape check on `out` — all
/// naming `matmul_nt_into`.
pub fn matmul_nt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    gemm_entry("matmul_nt_into", GemmVariant::NT, a, b, out)
}

/// Shared `_into` body: validate (rank-2 first, then the shared
/// dimension, then `out` — every error naming `op`), zero the output,
/// and hand the slices to the shape-dispatched kernel.
fn gemm_entry(
    op: &'static str,
    variant: GemmVariant,
    a: &Tensor,
    b: &Tensor,
    out: &mut Tensor,
) -> Result<()> {
    let (m, k, n) = variant.problem_size(op, a, b)?;
    gemm::check_out(op, out, m, n)?;
    out.fill_zero();
    gemm::dispatch_into(variant, m, k, n, a.data(), b.data(), out.data_mut());
    Ok(())
}

/// Dot product of two rank-1 tensors.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if lengths differ or inputs are
/// not rank-1.
pub fn dot(a: &Tensor, b: &Tensor) -> Result<f32> {
    if a.rank() != 1 || b.rank() != 1 || a.len() != b.len() {
        return Err(TensorError::ShapeMismatch {
            op: "dot",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    Ok(a.data().iter().zip(b.data()).map(|(&x, &y)| x * y).sum())
}

/// Adds a rank-1 `bias` of length `n` to every row of a `(m, n)` matrix,
/// in place.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the bias length differs from
/// the column count.
pub fn add_bias_rows_in_place(x: &mut Tensor, bias: &Tensor) -> Result<()> {
    let (m, n) = x.shape().as_matrix()?;
    if bias.rank() != 1 || bias.len() != n {
        return Err(TensorError::ShapeMismatch {
            op: "add_bias_rows_in_place",
            lhs: x.dims().to_vec(),
            rhs: bias.dims().to_vec(),
        });
    }
    let bd = bias.data();
    let xd = x.data_mut();
    for i in 0..m {
        // xtask:allow(index): i < m over an m*n buffer
        let row = &mut xd[i * n..(i + 1) * n];
        for (r, &b) in row.iter_mut().zip(bd) {
            *r += b;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gemm::reference;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, _) = a.shape().as_matrix().expect("matrix");
        let (_, n) = b.shape().as_matrix().expect("matrix");
        let mut out = Tensor::zeros([m, n]);
        reference::naive_into(GemmVariant::NN, a, b, &mut out).expect("conformable");
        out
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::rand_uniform([4, 4], -1.0, 1.0, 1);
        let c = matmul(&a, &Tensor::eye(4)).expect("conformable");
        assert!(c.approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Tensor::rand_uniform([7, 13], -1.0, 1.0, 2);
        let b = Tensor::rand_uniform([13, 5], -1.0, 1.0, 3);
        let c = matmul(&a, &b).expect("conformable");
        assert_eq!(c, naive_matmul(&a, &b), "small shapes are bit-exact");
    }

    #[test]
    fn matmul_blocked_large_k() {
        // k > BLOCK_K so several blocks are exercised.
        let a = Tensor::rand_uniform([3, 200], -1.0, 1.0, 4);
        let b = Tensor::rand_uniform([200, 2], -1.0, 1.0, 5);
        let c = matmul(&a, &b).expect("conformable");
        assert_eq!(c, naive_matmul(&a, &b));
    }

    #[test]
    fn matmul_packed_large_shapes() {
        // Big enough for the packed path, with edge tiles on every axis.
        let a = Tensor::rand_uniform([67, 129], -1.0, 1.0, 6);
        let b = Tensor::rand_uniform([129, 43], -1.0, 1.0, 7);
        let c = matmul(&a, &b).expect("conformable");
        assert!(
            c.approx_eq(&naive_matmul(&a, &b), 1e-3),
            "packed path agrees with the oracle"
        );
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros([3])).is_err());
    }

    #[test]
    fn errors_name_the_entry_point() {
        let rank1 = Tensor::zeros([3]);
        let mat = Tensor::zeros([3, 2]);
        let mut out = Tensor::zeros([2, 2]);
        let err = matmul_tn_into(&rank1, &mat, &mut out).expect_err("rank-1 lhs");
        assert!(err.to_string().contains("matmul_tn_into"), "{err}");
        let err = matmul_nt_into(&mat, &rank1, &mut out).expect_err("rank-1 rhs");
        assert!(err.to_string().contains("matmul_nt_into"), "{err}");
        let err = matmul(&rank1, &mat).expect_err("rank-1 lhs");
        assert!(err.to_string().contains("to matmul:"), "{err}");
        // A misshapen out names the _into entry too.
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([3, 2]);
        let mut bad = Tensor::zeros([3, 2]);
        let err = matmul_into(&a, &b, &mut bad).expect_err("bad out");
        assert!(err.to_string().contains("matmul_into"), "{err}");
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::rand_uniform([9, 4], -1.0, 1.0, 6);
        let b = Tensor::rand_uniform([9, 6], -1.0, 1.0, 7);
        let via_kernel = matmul_tn(&a, &b).expect("conformable");
        let via_copy = matmul(&a.transpose().expect("matrix"), &b).expect("conformable");
        assert!(via_kernel.approx_eq(&via_copy, 1e-4));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Tensor::rand_uniform([5, 8], -1.0, 1.0, 8);
        let b = Tensor::rand_uniform([3, 8], -1.0, 1.0, 9);
        let via_kernel = matmul_nt(&a, &b).expect("conformable");
        let via_copy = matmul(&a, &b.transpose().expect("matrix")).expect("conformable");
        assert!(via_kernel.approx_eq(&via_copy, 1e-4));
    }

    #[test]
    fn into_variants_bit_identical_and_reject_bad_out() {
        let a = Tensor::rand_uniform([6, 70], -1.0, 1.0, 10);
        let b = Tensor::rand_uniform([70, 5], -1.0, 1.0, 11);
        // Dirty, reused output buffer: results must still match exactly.
        let mut out = Tensor::full([6, 5], f32::NAN);
        matmul_into(&a, &b, &mut out).expect("conformable");
        assert_eq!(out, matmul(&a, &b).expect("conformable"));

        let at = Tensor::rand_uniform([70, 6], -1.0, 1.0, 12);
        let mut out_tn = Tensor::full([6, 5], 3.0);
        matmul_tn_into(&at, &b, &mut out_tn).expect("conformable");
        assert_eq!(out_tn, matmul_tn(&at, &b).expect("conformable"));

        let bt = Tensor::rand_uniform([5, 70], -1.0, 1.0, 13);
        let mut out_nt = Tensor::full([6, 5], -7.0);
        matmul_nt_into(&a, &bt, &mut out_nt).expect("conformable");
        assert_eq!(out_nt, matmul_nt(&a, &bt).expect("conformable"));

        let mut bad = Tensor::zeros([5, 6]);
        assert!(matmul_into(&a, &b, &mut bad).is_err());
        assert!(matmul_tn_into(&at, &b, &mut bad).is_err());
        assert!(matmul_nt_into(&a, &bt, &mut bad).is_err());
    }

    #[test]
    fn dot_basic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).expect("ok");
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], [3]).expect("ok");
        assert_eq!(dot(&a, &b).expect("same length"), 32.0);
        assert!(dot(&a, &Tensor::zeros([2])).is_err());
    }

    #[test]
    fn add_bias_broadcasts_over_rows() {
        let mut y = Tensor::zeros([2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).expect("ok");
        add_bias_rows_in_place(&mut y, &b).expect("conformable");
        assert_eq!(y.row(0).expect("in range").data(), &[1.0, 2.0, 3.0]);
        assert_eq!(y.row(1).expect("in range").data(), &[1.0, 2.0, 3.0]);
        assert!(add_bias_rows_in_place(&mut y, &Tensor::zeros([2])).is_err());
    }

    #[test]
    fn zero_sized_matmul() {
        let a = Tensor::zeros([0, 3]);
        let b = Tensor::zeros([3, 2]);
        let c = matmul(&a, &b).expect("conformable");
        assert_eq!(c.dims(), &[0, 2]);
    }
}
