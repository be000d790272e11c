//! Panel packing: one cache block of an operand → contiguous panels.
//!
//! The packers are the only code in the GEMM that sees an operand's
//! storage. Both operands are packed the same way, in terms of *lanes*
//! (the rows of `A` or the columns of `B`: the values one register-tile
//! row or column holds) and reduction *steps*. A [`Layout`] names which
//! of the two is contiguous in memory, and each layout has one packer
//! body that reads it at copy speed:
//!
//! * [`Layout::Step`] (TN's `A`, NN's and TN's `B`): the lanes of one
//!   step are adjacent, so each step of a panel is one `W`-float run,
//!   copied with `copy_from_slice`;
//! * [`Layout::Reduction`] (NN's and NT's `A`, NT's `B`): the steps of
//!   one lane are adjacent, so a panel interleaves `W` whole rows.
//!
//! Either way a panel is `kc` steps of `W` values, step-major, which is
//! the access order of the microkernel's register tile. Only the lanes
//! past the edge of a ragged last panel are zero-filled; they flow
//! through the microkernel as exact `+0.0` contributions and are clipped
//! on store, which is how non-tile-multiple shapes stay on the fast path.
//!
//! Packing is O(block area) against the O(block volume) of the compute
//! it feeds; [`super::use_packed`] keeps shapes too small to amortise it
//! on the blocked loops.

use super::KC;

/// How the values of one operand are laid out in its storage slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// Step-contiguous: lane `x` of step `p` is at `p * ld + x`.
    Step(usize),
    /// Reduction-contiguous: lane `x` of step `p` is at `x * ld + p`.
    Reduction(usize),
}

impl Layout {
    /// `(lane stride, step stride)`: lane `x` of step `p` is at
    /// `x * lane + p * step`. For strided readers (the naive oracle).
    pub(crate) fn strides(self) -> (usize, usize) {
        match self {
            Layout::Step(ld) => (1, ld),
            Layout::Reduction(ld) => (ld, 1),
        }
    }
}

/// Packs lanes `x0..x0 + lanes` at steps `p0..p0 + kc` of `src` into the
/// front of `out` as `ceil(lanes / W)` panels of `kc × W` floats: the
/// `p`-th `W`-float group of panel `q` holds lanes `x0 + q·W ..` at step
/// `p0 + p`. In a ragged last panel the lanes past `lanes` are zeroed;
/// every other float written is copied from `src`, and `out` past the
/// panels is left as it was.
pub(crate) fn pack<const W: usize>(
    src: &[f32],
    layout: Layout,
    x0: usize,
    lanes: usize,
    p0: usize,
    kc: usize,
    out: &mut [f32],
) {
    // xtask:allow(index): callers size `out` for ceil(lanes / W) panels of kc × W floats
    let panels = out[..lanes.div_ceil(W) * kc * W].chunks_exact_mut(kc * W);
    for (q, panel) in panels.enumerate() {
        let (x, w) = (x0 + q * W, W.min(lanes - q * W));
        match layout {
            Layout::Step(ld) => pack_steps::<W>(src, ld, p0 * ld + x, w, panel),
            Layout::Reduction(ld) => pack_rows::<W>(src, ld, x * ld + p0, w, panel),
        }
    }
}

/// One step-contiguous panel: step `p` copies the `w` floats at
/// `at + p * ld` and zeroes the `W - w` padding lanes after them.
fn pack_steps<const W: usize>(src: &[f32], ld: usize, at: usize, w: usize, panel: &mut [f32]) {
    for (p, step) in panel.chunks_exact_mut(W).enumerate() {
        // xtask:allow(index): the block's steps and lanes lie inside the operand validated by the entry points
        let run = &src[at + p * ld..at + p * ld + w];
        if w == W {
            step.copy_from_slice(run);
        } else {
            // A fixed-width loop: a `copy_from_slice` of a runtime
            // length is a `memcpy` call per step, measured 3.5x slower
            // on a 2-lane run.
            for (r, slot) in step.iter_mut().enumerate() {
                *slot = run.get(r).copied().unwrap_or(0.0);
            }
        }
    }
}

/// One reduction-contiguous panel: interleaves the `w` rows of
/// `panel.len() / W` steps at `at + r * ld` into lanes `0..w`, and rows
/// of [`ZEROS`] into the padding lanes `w..W`.
fn pack_rows<const W: usize>(src: &[f32], ld: usize, at: usize, w: usize, panel: &mut [f32]) {
    let kc = panel.len() / W;
    let rows: [&[f32]; W] = std::array::from_fn(|r| {
        if r < w {
            // xtask:allow(index): the block's lanes and steps lie inside the operand validated by the entry points
            &src[at + r * ld..at + r * ld + kc]
        } else {
            // xtask:allow(index): the driver packs at most KC steps
            &ZEROS[..kc]
        }
    });
    for (p, step) in panel.chunks_exact_mut(W).enumerate() {
        for (slot, row) in step.iter_mut().zip(&rows) {
            // xtask:allow(index): p < kc, the length of every row
            *slot = row[p];
        }
    }
}

/// The padding lanes' source row in [`pack_rows`].
static ZEROS: [f32; KC] = [0.0; KC];

#[cfg(test)]
mod tests {
    use super::super::microkernel::{MR, NR};
    use super::super::GemmVariant;
    use super::*;

    /// The gather oracle: element by element through the layout's
    /// strides, zero past the edge of the block.
    fn gather<const W: usize>(
        src: &[f32],
        layout: Layout,
        x0: usize,
        lanes: usize,
        p0: usize,
        kc: usize,
    ) -> Vec<f32> {
        let (lane_stride, step_stride) = layout.strides();
        let mut out = vec![0.0; lanes.div_ceil(W) * kc * W];
        for (q, panel) in out.chunks_exact_mut(kc * W).enumerate() {
            for (p, step) in panel.chunks_exact_mut(W).enumerate() {
                for (r, slot) in step.iter_mut().enumerate().take(lanes - q * W) {
                    let x = x0 + q * W + r;
                    *slot = src[x * lane_stride + (p0 + p) * step_stride];
                }
            }
        }
        out
    }

    /// `pack::<W>` into a NaN-poisoned buffer one float longer than the
    /// panels: every panel float is written, the float after is not.
    fn packed<const W: usize>(
        src: &[f32],
        layout: Layout,
        x0: usize,
        lanes: usize,
        p0: usize,
        kc: usize,
    ) -> Vec<f32> {
        let len = lanes.div_ceil(W) * kc * W;
        let mut out = vec![f32::NAN; len + 1];
        pack::<W>(src, layout, x0, lanes, p0, kc, &mut out);
        assert!(out[len].is_nan(), "wrote past the panels");
        out.truncate(len);
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packers_match_the_gather_oracle_at_block_offsets() {
        // Full and ragged panels of every variant's two operands, at
        // nonzero lane and step offsets into the stored matrix.
        let (m, k, n) = (2 * MR + 3, 41, 2 * NR + 5);
        for variant in [GemmVariant::NN, GemmVariant::TN, GemmVariant::NT] {
            let (la, lb) = variant.layouts(m, k, n);
            let ad: Vec<f32> = (0..m * k).map(|v| v as f32 + 0.5).collect();
            let bd: Vec<f32> = (0..k * n).map(|v| -(v as f32) - 0.25).collect();
            for (x0, p0, kc) in [(0, 0, k), (1, 3, 17), (MR + 1, 20, 21), (3, 40, 1)] {
                for lanes in [1, MR - 1, MR, MR + 2, m - x0] {
                    assert_eq!(
                        bits(&packed::<MR>(&ad, la, x0, lanes, p0, kc)),
                        bits(&gather::<MR>(&ad, la, x0, lanes, p0, kc)),
                        "A of {} at lanes {x0}+{lanes}, steps {p0}+{kc}",
                        variant.name()
                    );
                }
                for lanes in [1, NR - 1, NR, NR + 2, n - x0] {
                    assert_eq!(
                        bits(&packed::<NR>(&bd, lb, x0, lanes, p0, kc)),
                        bits(&gather::<NR>(&bd, lb, x0, lanes, p0, kc)),
                        "B of {} at lanes {x0}+{lanes}, steps {p0}+{kc}",
                        variant.name()
                    );
                }
            }
        }
    }

    #[test]
    fn reduction_layout_interleaves_rows_per_step() {
        // A = [[1, 2], [3, 4]] stored row-major: lanes are rows.
        let ad = [1.0f32, 2.0, 3.0, 4.0];
        let out = packed::<MR>(&ad, Layout::Reduction(2), 0, 2, 0, 2);
        assert_eq!(out.len(), 2 * MR, "one padded panel, two steps");
        // Step p=0 holds column 0 of A: [1, 3, pad, pad].
        assert_eq!(&out[..MR], &[1.0, 3.0, 0.0, 0.0]);
        // Step p=1 holds column 1 of A: [2, 4, pad, pad].
        assert_eq!(&out[MR..2 * MR], &[2.0, 4.0, 0.0, 0.0]);
        // The same logical A stored transposed packs to the same panel.
        let ad_t = [1.0f32, 3.0, 2.0, 4.0];
        assert_eq!(packed::<MR>(&ad_t, Layout::Step(2), 0, 2, 0, 2), out);
    }

    #[test]
    fn step_layout_copies_runs_and_pads_to_the_panel_width() {
        // B = [[1, 2, 3], [4, 5, 6]] (k=2, n=3): lanes are columns.
        let bd = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let out = packed::<NR>(&bd, Layout::Step(3), 0, 3, 0, 2);
        assert_eq!(out.len(), 2 * NR);
        assert_eq!(&out[..3], &[1.0, 2.0, 3.0]);
        assert_eq!(&out[3..NR], &[0.0; NR - 3], "columns padded to NR");
        assert_eq!(&out[NR..NR + 3], &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn multi_panel_packing_splits_lanes() {
        // MR + 1 lanes → two panels, the second mostly padding.
        let rows = MR + 1;
        let ad: Vec<f32> = (0..rows).map(|i| (i + 1) as f32).collect();
        let out = packed::<MR>(&ad, Layout::Reduction(1), 0, rows, 0, 1);
        assert_eq!(out.len(), 2 * MR);
        assert_eq!(&out[..MR], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&out[MR..], &[5.0, 0.0, 0.0, 0.0]);
    }
}
