//! Packed, cache-tiled, register-blocked GEMM.
//!
//! This module is the compute core behind [`crate::ops::matmul_into`] and
//! friends. It is organised BLIS-style in three layers:
//!
//! * [`pack`] — copies cache-block-sized pieces of `A` and `B` into
//!   contiguous *panels* (`MR`-row panels of `A`, `NR`-column panels of
//!   `B`) so the innermost loops only ever touch unit-stride memory,
//!   regardless of the GEMM variant's logical transposes;
//! * [`microkernel`] — the register-blocked `MR × NR` tile kernel: a
//!   fixed-size `f32` accumulator array that LLVM keeps in vector
//!   registers (f32x8 lanes without any `unsafe`), fed one packed
//!   `A`-panel and one packed `B`-panel;
//! * the driver in this file — loops over `NC` column, `KC` reduction
//!   and `MC` row blocks, packs, and dispatches tiles to the microkernel.
//!
//! All three GEMM variants (`NN`, `TN`, `NT`) share this single driver:
//! a variant is nothing but a storage [`pack::Layout`] per operand (see
//! [`GemmVariant::layouts`]), and only the packing routines ever see
//! storage. Shapes that are not multiples of the tile sizes are handled
//! by zero-padding the panels — the microkernel always computes a full
//! `MR × NR` tile and the store-back clips to the valid region.
//!
//! # Determinism and accuracy
//!
//! Every kernel in this module accumulates each output element in
//! strictly ascending reduction order, so every kernel is fully
//! deterministic: same operands, same bits out, on every run.
//!
//! [`reference::naive_into`] and [`reference::blocked_into`] both use
//! separate f32 multiply-then-add (Rust never fuses into FMA
//! implicitly) and are **bit-identical** to each other — the
//! kernel-comparison harness in `reduce-bench` gates them on exact
//! equality. [`packed_into`] instead fuses each multiply-add with
//! [`f32::mul_add`] (one rounding per MAC instead of two), which makes
//! it slightly *more* accurate than the references but not bit-identical
//! to them; the harness and the property tests gate it against the naive
//! oracle with a reduction-length-scaled tolerance.
//!
//! The packed kernel's result is also a fixed function of the operands
//! alone, whatever the block sizes: every output element is one FMA
//! chain that starts from `+0.0`, applies `b.mul_add(a, acc)` for
//! `p = 0, 1, …, k - 1`, and is stored as `+0.0 + acc` into the zeroed
//! output. The reduction dimension is cut into [`KC`]-step panels, and a
//! tile's accumulator is carried across them through `C`: its raw
//! partial sum is stored at the end of one panel and reloaded at the
//! start of the next. A store and a reload round nothing, so the chain
//! is the one a single full-`k` panel would run, with no block subtotals
//! added. The property tests hold the packed kernel to that FMA-chain
//! oracle bit for bit at `k` on both sides of `KC`.
//!
//! # Dispatch
//!
//! [`dispatch_into`] picks the packed path when a problem is big enough
//! to amortise packing (see [`use_packed`]) and falls back to the simpler
//! cache-blocked loops from [`reference`] for small or degenerate shapes
//! (GEMV-like `m = 1` products, tiny layers). The choice is a pure
//! function of the shape, so a given call site always takes the same
//! path and results never depend on anything but the operands.

pub(crate) mod microkernel;
pub(crate) mod pack;
pub mod reference;

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;
use microkernel::{MR, NR};
use pack::Layout;
use std::cell::RefCell;

/// Row cache block: one packed `A` block is at most `MC × KC` floats,
/// and each of its `KC × MR` micro-panels stays L1-resident while every
/// `B` panel of the block streams past it.
pub(crate) const MC: usize = 128;

/// Reduction block: panels span at most `KC` steps. Each output tile's
/// accumulator is carried across the panels through `C` (module docs),
/// so the value only sizes the pack buffers and never moves a bit.
pub const KC: usize = 512;

/// Column cache block: one packed `B` block is at most `KC × NC` floats,
/// streamed through the microkernel once per `MC` rows.
pub(crate) const NC: usize = 1024;

/// Below this many multiply-adds the packing overhead is not worth it
/// and [`dispatch_into`] uses the blocked reference loops instead.
pub(crate) const PACKED_MIN_MACS: usize = 16_384;

/// The three GEMM orientations the NN framework needs. The letters name
/// the storage of `A` and `B` respectively: `N` as-is, `T` transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmVariant {
    /// `C = A · B` with `A: (m, k)`, `B: (k, n)`.
    NN,
    /// `C = Aᵀ · B` with `A: (k, m)`, `B: (k, n)` — weight gradients.
    TN,
    /// `C = A · Bᵀ` with `A: (m, k)`, `B: (n, k)` — input gradients.
    NT,
}

impl GemmVariant {
    /// Short lowercase name (`nn`/`tn`/`nt`), used by the bench harness.
    pub fn name(self) -> &'static str {
        match self {
            GemmVariant::NN => "nn",
            GemmVariant::TN => "tn",
            GemmVariant::NT => "nt",
        }
    }

    /// The storage layout of the logical `(m, k)` left operand and the
    /// logical `(k, n)` right operand, in the packers' terms: the lanes
    /// of `A` are its rows `i`, the lanes of `B` its columns `j`, and
    /// both share the reduction steps `p`. Transposition is nothing but
    /// a change of layout, which is why one packed driver serves all
    /// three variants.
    pub(crate) fn layouts(self, m: usize, k: usize, n: usize) -> (Layout, Layout) {
        match self {
            GemmVariant::NN => (Layout::Reduction(k), Layout::Step(n)),
            GemmVariant::TN => (Layout::Step(m), Layout::Step(n)),
            GemmVariant::NT => (Layout::Reduction(k), Layout::Reduction(k)),
        }
    }

    /// The logical `(m, k, n)` problem size given the stored operand
    /// shapes, after validating ranks and the shared dimension.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] naming `op` for a
    /// non-rank-2 operand (checked *before* any dimension is read, so a
    /// rank-1 gradient reaching a backward-pass GEMM reports the actual
    /// entry point instead of a generic shape error), and
    /// [`TensorError::ShapeMismatch`] naming `op` if the shared
    /// dimensions differ.
    pub(crate) fn problem_size(
        self,
        op: &'static str,
        a: &Tensor,
        b: &Tensor,
    ) -> Result<(usize, usize, usize)> {
        let (ar, ac) = check_rank2(op, a)?;
        let (br, bc) = check_rank2(op, b)?;
        let ((m, ka), (kb, n)) = match self {
            GemmVariant::NN => ((ar, ac), (br, bc)),
            GemmVariant::TN => ((ac, ar), (br, bc)),
            GemmVariant::NT => ((ar, ac), (bc, br)),
        };
        if ka != kb {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: a.dims().to_vec(),
                rhs: b.dims().to_vec(),
            });
        }
        Ok((m, ka, n))
    }
}

/// Validates that `t` is rank-2 and returns its `(rows, cols)`, with the
/// error naming the calling kernel entry point.
pub(crate) fn check_rank2(op: &'static str, t: &Tensor) -> Result<(usize, usize)> {
    match t.dims() {
        &[r, c] => Ok((r, c)),
        other => Err(TensorError::InvalidArgument {
            op,
            reason: format!("expected a rank-2 operand, got shape {other:?}"),
        }),
    }
}

/// Validates the output buffer shape for an `_into` kernel, with the
/// error naming the exact entry point (`matmul_tn_into`, …) so a shape
/// bug in a backward pass is diagnosable from the message alone.
pub(crate) fn check_out(op: &'static str, out: &Tensor, m: usize, n: usize) -> Result<()> {
    if out.dims() != [m, n] {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: vec![m, n],
            rhs: out.dims().to_vec(),
        });
    }
    Ok(())
}

/// Whether a problem is large enough for the packed path: at least one
/// full tile in each output direction and enough multiply-adds to
/// amortise packing. A pure function of the shape — never of the data —
/// so dispatch is deterministic.
pub(crate) fn use_packed(m: usize, k: usize, n: usize) -> bool {
    m >= MR && n >= NR && k >= 2 && m * k * n >= PACKED_MIN_MACS
}

/// Computes `C = op(A) · op(B)` into `cd`, which callers zero first,
/// choosing between the packed and blocked kernels by shape. This is
/// the single compute entry behind every `matmul*` public function.
pub(crate) fn dispatch_into(
    variant: GemmVariant,
    m: usize,
    k: usize,
    n: usize,
    ad: &[f32],
    bd: &[f32],
    cd: &mut [f32],
) {
    if use_packed(m, k, n) {
        let (a, b) = variant.layouts(m, k, n);
        gemm_packed(m, k, n, ad, a, bd, b, cd);
    } else {
        reference::blocked_slices(variant, m, k, n, ad, bd, cd);
    }
}

thread_local! {
    /// Per-thread pack buffer of [`gemm_packed`]: one packed `A` block
    /// (at most `MC × KC` floats) followed by one packed `B` block (at
    /// most `KC × NC`). It grows to the largest pair of blocks the
    /// thread has packed and is then reused, so the packed path does not
    /// allocate once warm. It is never cleared: the packers write every
    /// float of a panel, padding included, before the microkernel reads
    /// it, so results never depend on what it held.
    static PACKS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The packed, cache-tiled, register-blocked driver. `cd` must hold
/// `m * n` elements, zeroed by the caller: each is overwritten, except
/// when `k == 0`, which leaves the zeros.
///
/// Loop structure, outermost first: `NC` column blocks, `KC` reduction
/// panels (the `B` block of each is packed once), `MC` row blocks (the
/// `A` block of each is packed once), then `MR × NR` register tiles.
/// The packed `A` micro-panel is the hot operand: it stays in L1 while
/// every `B` panel of the block streams past it. A tile's accumulator
/// starts from `+0.0` on the first panel, is reloaded from `C` on every
/// later one, and is stored raw to `C` between panels, so each output
/// element is one ascending-`k` FMA chain — the bit-exactness invariant
/// of the module docs.
// BLAS-style kernel signature: problem size + two operands + out.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_packed(
    m: usize,
    k: usize,
    n: usize,
    ad: &[f32],
    a: Layout,
    bd: &[f32],
    b: Layout,
    cd: &mut [f32],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let a_len = m.min(MC).div_ceil(MR) * MR * k.min(KC);
    let b_len = n.min(NC).div_ceil(NR) * NR * k.min(KC);
    PACKS.with_borrow_mut(|packs| {
        if packs.len() < a_len + b_len {
            packs.resize(a_len + b_len, 0.0);
        }
        let (apack, bpack) = packs.split_at_mut(a_len);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let (first, last) = (pc == 0, pc + kc == k);
                pack::pack::<NR>(bd, b, jc, nc, pc, kc, bpack);
                // xtask:allow(index): b_len covers ceil(nc / NR) panels of kc × NR floats
                let bpanels = &bpack[..nc.div_ceil(NR) * kc * NR];
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack::pack::<MR>(ad, a, ic, mc, pc, kc, apack);
                    // xtask:allow(index): a_len covers ceil(mc / MR) panels of kc × MR floats
                    let apanels = &apack[..mc.div_ceil(MR) * kc * MR];
                    for (qa, ap) in apanels.chunks_exact(kc * MR).enumerate() {
                        let i0 = ic + qa * MR;
                        let mr_v = MR.min(mc - qa * MR);
                        for (qb, bp) in bpanels.chunks_exact(kc * NR).enumerate() {
                            let tile = microkernel::Tile {
                                i0,
                                j0: jc + qb * NR,
                                rows: mr_v,
                                cols: NR.min(nc - qb * NR),
                            };
                            let acc = if first {
                                [[0.0; NR]; MR]
                            } else {
                                tile.load(cd, n)
                            };
                            let acc = microkernel::microtile(acc, ap, bp);
                            if last {
                                tile.store_finished(&acc, cd, n);
                            } else {
                                tile.store_partial(&acc, cd, n);
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Runs the packed kernel for `variant` into `out` regardless of shape
/// (no size dispatch): the kernel-comparison harness and the property
/// tests use this to exercise the packed path on degenerate shapes
/// (`m = 1`, `n = 1`, `k = 1`) that production dispatch would route to
/// the blocked loops.
///
/// `out` is zeroed first. Results agree with [`reference::naive_into`]
/// within a reduction-length-scaled tolerance and are deterministic (see
/// the module docs on determinism and accuracy).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for non-rank-2 operands and
/// [`TensorError::ShapeMismatch`] for non-conforming shapes, naming
/// `gemm_packed_into`.
pub fn packed_into(variant: GemmVariant, a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let (m, k, n) = variant.problem_size("gemm_packed_into", a, b)?;
    check_out("gemm_packed_into", out, m, n)?;
    out.fill_zero();
    let (la, lb) = variant.layouts(m, k, n);
    gemm_packed(m, k, n, a.data(), la, b.data(), lb, out.data_mut());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand(dims: [usize; 2], seed: u64) -> Tensor {
        Tensor::rand_uniform(dims, -1.0, 1.0, seed)
    }

    /// Tolerance for FMA-vs-separate-rounding drift over a length-`k`
    /// reduction of roughly unit-magnitude values. A real kernel bug
    /// (wrong element, missed tile, bad stride) shows up as O(1) error,
    /// orders of magnitude past this.
    pub(crate) fn fma_tol(k: usize) -> f32 {
        1e-4f32.max(k as f32 * 1e-5)
    }

    #[test]
    fn layouts_address_the_logical_operands() {
        // NN: a(i, p) at i*k + p; TN reads the transpose in place.
        assert_eq!(
            GemmVariant::NN.layouts(3, 5, 2),
            (Layout::Reduction(5), Layout::Step(2))
        );
        let (a, b) = GemmVariant::TN.layouts(3, 5, 2);
        assert_eq!((a.strides(), b.strides()), ((1, 3), (1, 2)));
        let (a, b) = GemmVariant::NT.layouts(3, 5, 2);
        assert_eq!((a.strides(), b.strides()), ((5, 1), (5, 1)));
    }

    #[test]
    fn problem_size_validates_rank_first() {
        let a = Tensor::zeros([6]);
        let b = Tensor::zeros([3, 2]);
        let err = GemmVariant::NN
            .problem_size("matmul_tn_into", &a, &b)
            .expect_err("rank-1 lhs");
        let msg = err.to_string();
        assert!(msg.contains("matmul_tn_into"), "names the entry: {msg}");
        assert!(msg.contains("rank-2"), "explains the rank: {msg}");
    }

    #[test]
    fn problem_size_checks_the_shared_dim() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(GemmVariant::NN.problem_size("matmul", &a, &b).is_err());
        // TN shares the *row* count of both operands.
        let at = Tensor::zeros([4, 2]);
        assert!(GemmVariant::TN.problem_size("matmul_tn", &at, &b).is_ok());
    }

    #[test]
    fn packed_matches_naive_on_tile_edges() {
        // Shapes straddling every tile boundary: below, at, and just past
        // MR/NR/KC multiples.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (MR - 1, 3, NR - 1),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (2 * MR + 3, 2 * KC + 37, 2 * NR + 7),
            (MC + MR + 1, 259, NR + 3),
        ] {
            for (variant, adim, bdim) in [
                (GemmVariant::NN, [m, k], [k, n]),
                (GemmVariant::TN, [k, m], [k, n]),
                (GemmVariant::NT, [m, k], [n, k]),
            ] {
                let a = rand(adim, 11);
                let b = rand(bdim, 23);
                let mut packed = Tensor::full([m, n], f32::NAN);
                packed_into(variant, &a, &b, &mut packed).expect("conformable");
                let mut naive = Tensor::zeros([m, n]);
                reference::naive_into(variant, &a, &b, &mut naive).expect("conformable");
                assert!(
                    packed.approx_eq(&naive, fma_tol(k)),
                    "variant {} shape {m}x{k}x{n}",
                    variant.name()
                );
            }
        }
    }

    fn packed_bits(variant: GemmVariant, (m, k, n): (usize, usize, usize)) -> Vec<u32> {
        let (adim, bdim) = match variant {
            GemmVariant::NN => ([m, k], [k, n]),
            GemmVariant::TN => ([k, m], [k, n]),
            GemmVariant::NT => ([m, k], [n, k]),
        };
        let mut out = Tensor::full([m, n], f32::NAN);
        packed_into(variant, &rand(adim, 5), &rand(bdim, 6), &mut out).expect("conformable");
        out.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dirty_pack_buffers_never_reach_a_result() {
        // A large product fills this thread's pack buffer with its
        // panels; a smaller, ragged one run after it must match the same
        // product on a fresh thread, whose buffer starts empty.
        for variant in [GemmVariant::NN, GemmVariant::TN, GemmVariant::NT] {
            packed_bits(variant, (MC + 9, 2 * KC + 37, 5 * NR + 3));
            let small = (MR + 3, KC + 1, NR + 5);
            let dirty = packed_bits(variant, small);
            let fresh = std::thread::scope(|s| {
                s.spawn(|| packed_bits(variant, small))
                    .join()
                    .expect("the fresh thread runs")
            });
            assert_eq!(dirty, fresh, "variant {}", variant.name());
        }
    }

    #[test]
    fn chains_carried_across_panels_keep_their_signed_zero() {
        // Every product underflows to -0.0, so each chain is -0.0 from
        // its first step on, across the KC boundary; the finished store
        // adds it to +0.0 as the zeroed output does, giving +0.0.
        let (m, k, n) = (MR, KC + 3, NR);
        let a = Tensor::full([m, k], 1e-30);
        let b = Tensor::full([k, n], -1e-30);
        let mut out = Tensor::full([m, n], f32::NAN);
        packed_into(GemmVariant::NN, &a, &b, &mut out).expect("conformable");
        assert!(out.data().iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
    }

    #[test]
    fn dispatch_is_a_pure_shape_function() {
        assert!(!use_packed(1, 512, 512), "GEMV stays on the blocked path");
        assert!(!use_packed(512, 512, 1), "GEMV stays on the blocked path");
        assert!(!use_packed(8, 8, 8), "tiny products stay blocked");
        assert!(use_packed(64, 96, 48), "layer-sized GEMMs pack");
        assert!(use_packed(256, 256, 256));
    }

    #[test]
    fn zero_sized_problems_are_no_ops() {
        for variant in [GemmVariant::NN, GemmVariant::TN, GemmVariant::NT] {
            let (adim, bdim) = match variant {
                GemmVariant::NN => ([0, 3], [3, 2]),
                GemmVariant::TN => ([3, 0], [3, 2]),
                GemmVariant::NT => ([0, 3], [2, 3]),
            };
            let a = Tensor::zeros(adim);
            let b = Tensor::zeros(bdim);
            let mut out = Tensor::zeros([0, 2]);
            packed_into(variant, &a, &b, &mut out).expect("conformable");
            assert_eq!(out.dims(), &[0, 2]);
        }
        // k == 0: the output is all zeros.
        let a = Tensor::zeros([2, 0]);
        let b = Tensor::zeros([0, 3]);
        let mut out = Tensor::full([2, 3], 7.0);
        packed_into(GemmVariant::NN, &a, &b, &mut out).expect("conformable");
        assert_eq!(out, Tensor::zeros([2, 3]));
    }
}
