//! Reference GEMM kernels: the correctness oracle and the small-shape
//! fallback.
//!
//! * [`naive_into`] — the textbook triple loop, one dot product per
//!   output element. Never used in production; it is the oracle every
//!   other kernel is checked against (by the `reduce-bench` harness and
//!   the property tests) and deliberately has no blocking or skipping
//!   cleverness to get wrong.
//! * [`blocked_into`] — the production kernels for shapes too small to
//!   amortise packing, which [`super::dispatch_into`] runs: `NN`/`TN`
//!   cache-blocked over the reduction dimension with an `ikj` loop order
//!   (plus the exact-zero skip that makes FAP-masked operands cheap),
//!   `NT` register-tiled over a stack-resident `B` panel. They are also
//!   the baseline the kernel-comparison harness measures speedups
//!   against.
//!
//! Both accumulate every output element in ascending reduction order
//! with separate multiply-then-add, so their results are bit-identical
//! to each other; the packed kernel fuses its multiply-adds and agrees
//! within tolerance instead (see the determinism and accuracy notes in
//! [`super`]).

use super::{check_out, GemmVariant};
use crate::error::Result;
use crate::tensor::Tensor;

/// Reduction-dimension block size of the blocked kernels; sized so one
/// `A`-row block plus the output row fit comfortably in L1.
pub(crate) const BLOCK_K: usize = 64;

/// The textbook triple loop for `variant`, writing into a pre-zeroed
/// `out`. The correctness oracle for the harness and property tests.
///
/// # Errors
///
/// Returns the usual rank/shape errors, naming `gemm_naive_into`.
pub fn naive_into(variant: GemmVariant, a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let (m, k, n) = variant.problem_size("gemm_naive_into", a, b)?;
    check_out("gemm_naive_into", out, m, n)?;
    out.fill_zero();
    naive_slices(variant, m, k, n, a.data(), b.data(), out.data_mut());
    Ok(())
}

/// The pre-packing blocked kernels for `variant`, writing into a
/// pre-zeroed `out`. The harness baseline and small-shape fallback.
///
/// # Errors
///
/// Returns the usual rank/shape errors, naming `gemm_blocked_into`.
pub fn blocked_into(variant: GemmVariant, a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let (m, k, n) = variant.problem_size("gemm_blocked_into", a, b)?;
    check_out("gemm_blocked_into", out, m, n)?;
    out.fill_zero();
    blocked_slices(variant, m, k, n, a.data(), b.data(), out.data_mut());
    Ok(())
}

/// Slice-level naive kernel over the logical `(m, k, n)` problem; `cd`
/// must be pre-zeroed.
pub(crate) fn naive_slices(
    variant: GemmVariant,
    m: usize,
    k: usize,
    n: usize,
    ad: &[f32],
    bd: &[f32],
    cd: &mut [f32],
) {
    let ((rsa, csa), (rsb, csb)) = variant.strides(m, k, n);
    for (i, crow) in cd.chunks_exact_mut(n.max(1)).enumerate().take(m) {
        for (j, c) in crow.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for p in 0..k {
                let av = ad.get(i * rsa + p * csa).copied().unwrap_or(0.0);
                let bv = bd.get(p * rsb + j * csb).copied().unwrap_or(0.0);
                acc += av * bv;
            }
            *c = acc;
        }
    }
}

/// Slice-level blocked kernels; `cd` must be pre-zeroed. `NN` and `TN`
/// are the original `matmul*_into` loop bodies, moved here verbatim when
/// the packed path became the large-shape default; `NT` is
/// [`blocked_nt`].
pub(crate) fn blocked_slices(
    variant: GemmVariant,
    m: usize,
    k: usize,
    n: usize,
    ad: &[f32],
    bd: &[f32],
    cd: &mut [f32],
) {
    match variant {
        GemmVariant::NN => blocked_nn(m, k, n, ad, bd, cd),
        GemmVariant::TN => blocked_tn(m, k, n, ad, bd, cd),
        GemmVariant::NT => blocked_nt(m, k, n, ad, bd, cd),
    }
}

/// `C += A · B`, cache-blocked over `k`, `ikj` order: the innermost loop
/// is a contiguous axpy over the output row, which LLVM vectorises.
fn blocked_nn(m: usize, k: usize, n: usize, ad: &[f32], bd: &[f32], cd: &mut [f32]) {
    for k0 in (0..k).step_by(BLOCK_K) {
        let k1 = (k0 + BLOCK_K).min(k);
        for i in 0..m {
            // xtask:allow(index): i < m and p < k index m*k / k*n / m*n buffers validated by the entry points
            let crow = &mut cd[i * n..(i + 1) * n];
            for p in k0..k1 {
                // xtask:allow(index): same bounds as the row slices above
                let aip = ad[i * k + p];
                // xtask:allow(float-eq): exact-zero skip; FAP masks write literal 0.0
                if aip == 0.0 {
                    continue;
                }
                // xtask:allow(index): p < k over a k*n buffer
                let brow = &bd[p * n..(p + 1) * n];
                for (cx, &bx) in crow.iter_mut().zip(brow) {
                    *cx += aip * bx;
                }
            }
        }
    }
}

/// `C += Aᵀ · B` as a sequence of rank-1 updates: for each shared row
/// `p`, `C += a_p ⊗ b_p`.
fn blocked_tn(m: usize, k: usize, n: usize, ad: &[f32], bd: &[f32], cd: &mut [f32]) {
    for p in 0..k {
        // xtask:allow(index): p < k over k*m / k*n buffers validated by the entry points
        let arow = &ad[p * m..(p + 1) * m];
        // xtask:allow(index): same bound as arow
        let brow = &bd[p * n..(p + 1) * n];
        for (i, &ax) in arow.iter().enumerate() {
            // xtask:allow(float-eq): exact-zero skip; FAP masks write literal 0.0
            if ax == 0.0 {
                continue;
            }
            // xtask:allow(index): i < m over an m*n buffer
            let crow = &mut cd[i * n..(i + 1) * n];
            for (cx, &bx) in crow.iter_mut().zip(brow) {
                *cx += ax * bx;
            }
        }
    }
}

/// Rows of `C` per register tile of [`blocked_nt`].
const NT_MR: usize = 8;

/// Columns of `C` per register tile of [`blocked_nt`]: one f32x8 vector.
const NT_NR: usize = 8;

/// Reduction steps per stack-resident `B` panel of [`blocked_nt`].
const NT_KC: usize = 256;

/// `C = A · Bᵀ`, register-tiled for the small shapes [`super::use_packed`]
/// leaves here (few output columns, such as a first convolution or a
/// classifier, or few multiply-adds).
///
/// `NT_NR` rows of `B` are transposed into a stack panel `NT_KC` reduction
/// steps at a time, and [`NtPanel::update_rows`] carries `NT_MR` rows of
/// `C` at a time (single rows for the last `m % NT_MR`) across each panel
/// in registers. A ragged last column block repeats the last row of `B`
/// in its unused lanes, which are never stored. `C` is overwritten, not
/// accumulated into.
fn blocked_nt(m: usize, k: usize, n: usize, ad: &[f32], bd: &[f32], cd: &mut [f32]) {
    let mut panel = [0.0f32; NT_KC * NT_NR];
    let tiled_rows = m - m % NT_MR;
    for j0 in (0..n).step_by(NT_NR) {
        // k == 0 still runs one empty panel, which stores the zeros.
        for k0 in (0..k.max(1)).step_by(NT_KC) {
            let kc = NT_KC.min(k - k0);
            for c in 0..NT_NR {
                let j = (j0 + c).min(n - 1);
                // xtask:allow(index): j < n and k0 + kc <= k over an n*k buffer validated by the entry points
                let brow = &bd[j * k + k0..j * k + k0 + kc];
                for (dst, &b) in panel.iter_mut().skip(c).step_by(NT_NR).zip(brow) {
                    *dst = b;
                }
            }
            let block = NtPanel {
                // xtask:allow(index): kc <= NT_KC steps of NT_NR values were packed above
                values: &panel[..kc * NT_NR],
                k,
                k0,
                n,
                j0,
                nr: NT_NR.min(n - j0),
            };
            for i0 in (0..tiled_rows).step_by(NT_MR) {
                block.update_rows::<NT_MR>(ad, cd, i0);
            }
            for i0 in tiled_rows..m {
                block.update_rows::<1>(ad, cd, i0);
            }
        }
    }
}

/// One packed `B` panel of [`blocked_nt`]: reduction steps
/// `k0..k0 + kc` of output columns `j0..j0 + nr`, step-major.
struct NtPanel<'a> {
    values: &'a [f32],
    k: usize,
    k0: usize,
    n: usize,
    j0: usize,
    nr: usize,
}

impl NtPanel<'_> {
    /// Carries rows `i0..i0 + R` of `C` across this panel. Each element's
    /// chain resumes from `C` (from `+0.0` on the first panel), adds one
    /// product per step in ascending `k` — a separate multiply, then an
    /// add, exactly as [`naive_slices`] does, so the two are
    /// bit-identical — and is stored back; a store and reload between
    /// panels rounds nothing.
    #[inline(always)]
    fn update_rows<const R: usize>(&self, ad: &[f32], cd: &mut [f32], i0: usize) {
        let Self {
            k, k0, n, j0, nr, ..
        } = *self;
        let kc = self.values.len() / NT_NR;
        let arows: [&[f32]; R] = std::array::from_fn(|r| {
            let at = (i0 + r) * k + k0;
            // xtask:allow(index): row i0 + r < m and k0 + kc <= k over an m*k buffer validated by the entry points
            &ad[at..at + kc]
        });
        let mut acc = [[0.0f32; NT_NR]; R];
        if k0 > 0 {
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let at = (i0 + r) * n + j0;
                // xtask:allow(index): row i0 + r < m, columns j0..j0 + nr <= n of an m*n buffer
                acc_row[..nr].copy_from_slice(&cd[at..at + nr]);
            }
        }
        for (p, bv) in self.values.chunks_exact(NT_NR).enumerate() {
            for (acc_row, arow) in acc.iter_mut().zip(&arows) {
                // xtask:allow(index): p < kc, the length of every row slice
                let a = arow[p];
                for (c, &b) in acc_row.iter_mut().zip(bv) {
                    *c += a * b;
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let at = (i0 + r) * n + j0;
            // xtask:allow(index): row i0 + r < m, columns j0..j0 + nr <= n of an m*n buffer
            cd[at..at + nr].copy_from_slice(&acc_row[..nr]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_matches_naive_bitwise() {
        // Every ragged edge of the register-tiled NT kernel (n up to two
        // column blocks plus one; m below, off and past the row tile), a
        // one-step reduction, a conv0-like 27 and reductions past a panel.
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for m in [1usize, 7, 13, 19] {
            for n in 1usize..=17 {
                for k in [1usize, 27, 130, NT_KC + 44] {
                    for (variant, adim, bdim) in [
                        (GemmVariant::NN, [m, k], [k, n]),
                        (GemmVariant::TN, [k, m], [k, n]),
                        (GemmVariant::NT, [m, k], [n, k]),
                    ] {
                        let a = Tensor::rand_uniform(adim, -1.0, 1.0, 3);
                        let b = Tensor::rand_uniform(bdim, -1.0, 1.0, 4);
                        let mut blocked = Tensor::full([m, n], f32::NAN);
                        blocked_into(variant, &a, &b, &mut blocked).expect("conformable");
                        let mut naive = Tensor::full([m, n], f32::NAN);
                        naive_into(variant, &a, &b, &mut naive).expect("conformable");
                        assert_eq!(
                            bits(&blocked),
                            bits(&naive),
                            "variant {} shape {m}x{k}x{n}",
                            variant.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_skip_is_bitwise_neutral() {
        // A sparse (FAP-masked) left operand: the skip must not change a
        // single bit relative to the oracle that never skips.
        let mut a = Tensor::rand_uniform([9, 70], -1.0, 1.0, 5);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        let b = Tensor::rand_uniform([70, 6], -1.0, 1.0, 6);
        let mut blocked = Tensor::zeros([9, 6]);
        blocked_into(GemmVariant::NN, &a, &b, &mut blocked).expect("conformable");
        let mut naive = Tensor::zeros([9, 6]);
        naive_into(GemmVariant::NN, &a, &b, &mut naive).expect("conformable");
        assert_eq!(blocked, naive);
    }

    #[test]
    fn entry_points_name_themselves() {
        let a = Tensor::zeros([3]);
        let b = Tensor::zeros([3, 2]);
        let mut out = Tensor::zeros([1, 2]);
        let err = naive_into(GemmVariant::NN, &a, &b, &mut out).expect_err("rank-1");
        assert!(err.to_string().contains("gemm_naive_into"));
        let err = blocked_into(GemmVariant::NN, &a, &b, &mut out).expect_err("rank-1");
        assert!(err.to_string().contains("gemm_blocked_into"));
    }
}
