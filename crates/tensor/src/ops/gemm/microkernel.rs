//! The register-blocked `MR × NR` tile kernel.
//!
//! [`microtile`] is the only loop in the GEMM that touches every
//! multiply-add: a `4 × 16` f32 accumulator array that LLVM keeps
//! entirely in vector registers (eight f32x8 lanes — enough independent
//! accumulation chains to hide FMA latency on two issue ports) for one
//! whole reduction panel. Everything is safe Rust: the accumulator is a
//! fixed-size array, the panels are walked with `chunks_exact`, and the
//! fixed-bound inner loops are fully unrolled and vectorised without a
//! single bounds check surviving.
//!
//! Each multiply-add is an explicit [`f32::mul_add`], compiled to one
//! fused `vfmadd` on any target with FMA (the workspace builds with
//! `target-cpu=native`, see `.cargo/config.toml`). Fusion halves the
//! arithmetic ops per MAC versus separate mul-then-add and rounds each
//! partial product once instead of twice — which is why this kernel is
//! *more* accurate than, but not bit-identical to, the reference loops
//! (see the determinism notes in [`super`]). The reduction order is
//! still strictly ascending `p` for every element, so results are fully
//! deterministic for a given build.
//!
//! A [`Tile`] carries the accumulator between reduction panels: the
//! driver stores a panel's raw partial sums into the output with
//! [`Tile::store_partial`], reloads them with [`Tile::load`] to continue
//! the same chains over the next panel, and ends with
//! [`Tile::store_finished`]. The split never changes a bit.
//!
//! Tile-size notes from the machines this was tuned on: `4 × 8` without
//! FMA saturates the two vector ALU ports but FMA then stalls on four
//! accumulator chains; `8 × 16` and larger spill the accumulator to the
//! stack and run several times slower. `4 × 16` is the sweet spot — and
//! the kernel-comparison harness in `reduce-bench` is the tool for
//! re-measuring any retune.

/// Rows per register tile (`A` panel width).
pub(crate) const MR: usize = 4;

/// Columns per register tile (`B` panel width).
pub(crate) const NR: usize = 16;

/// Continues one `MR × NR` register tile's accumulation chains over a
/// packed `A` micro-panel (`kc × MR`, from [`super::pack::pack`]) and a
/// packed `B` micro-panel (`kc × NR`), starting from `acc`: zeros on the
/// first reduction panel, the partial sums [`Tile::load`] reads back on
/// every later one.
///
/// Both panels interleave their tile's values per reduction step, so the
/// `p`-th `chunks_exact` window holds exactly the `MR` (resp. `NR`)
/// values needed for that step and the zip pairs them up; zero padding
/// in either panel contributes exact zeros to the accumulators.
///
/// The accumulator is a local fixed-size array taken and returned by
/// value: built this way LLVM promotes all `MR × NR` lanes to vector
/// registers for the whole reduction loop (passing `&mut acc` in defeats
/// that promotion and made the kernel run scalar from memory). The
/// `try_into` conversions to array references are how the slice bounds
/// checks disappear from the inner loop.
#[inline]
#[allow(clippy::expect_used)] // chunks_exact guarantees the window lengths
pub(crate) fn microtile(mut acc: [[f32; NR]; MR], ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        // xtask:allow(expect): chunks_exact(MR) yields exactly-MR windows, so the array conversion is statically infallible
        let arow: &[f32; MR] = arow.try_into().expect("chunks_exact yields MR");
        // xtask:allow(expect): chunks_exact(NR) yields exactly-NR windows, so the array conversion is statically infallible
        let brow: &[f32; NR] = brow.try_into().expect("chunks_exact yields NR");
        for (acc_row, &a) in acc.iter_mut().zip(arow) {
            for (c, &b) in acc_row.iter_mut().zip(brow) {
                *c = b.mul_add(a, *c);
            }
        }
    }
    acc
}

/// Where one register tile lands in the row-major output: its valid
/// `rows × cols` region at `(i0, j0)`. Tile rows and columns past that
/// region hold contributions of the zero padding and are never stored.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tile {
    pub(crate) i0: usize,
    pub(crate) j0: usize,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

impl Tile {
    /// The raw partial sums an earlier panel stored with
    /// [`Tile::store_partial`], zero outside the valid region.
    #[inline]
    pub(crate) fn load(&self, cd: &[f32], n: usize) -> [[f32; NR]; MR] {
        let mut acc = [[0.0f32; NR]; MR];
        for (di, acc_row) in acc.iter_mut().enumerate().take(self.rows) {
            let start = (self.i0 + di) * n + self.j0;
            if let Some(crow) = cd.get(start..start + self.cols) {
                for (a, &c) in acc_row.iter_mut().zip(crow) {
                    *a = c;
                }
            }
        }
        acc
    }

    /// Stores chains the next reduction panel continues, raw: a store
    /// and a [`Tile::load`] round nothing.
    #[inline]
    pub(crate) fn store_partial(&self, acc: &[[f32; NR]; MR], cd: &mut [f32], n: usize) {
        self.store(acc, cd, n, |v| v);
    }

    /// Stores finished chains as `+0.0 + acc`, the value adding them into
    /// the zeroed output gives: a `-0.0` sum lands as `+0.0`.
    #[inline]
    pub(crate) fn store_finished(&self, acc: &[[f32; NR]; MR], cd: &mut [f32], n: usize) {
        self.store(acc, cd, n, |v| 0.0 + v);
    }

    #[inline(always)]
    fn store(&self, acc: &[[f32; NR]; MR], cd: &mut [f32], n: usize, f: impl Fn(f32) -> f32) {
        for (di, acc_row) in acc.iter().enumerate().take(self.rows) {
            let start = (self.i0 + di) * n + self.j0;
            if let Some(crow) = cd.get_mut(start..start + self.cols) {
                for (c, &v) in crow.iter_mut().zip(acc_row) {
                    *c = f(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::pack::{self, Layout};
    use super::*;

    const ZERO: [[f32; NR]; MR] = [[0.0; NR]; MR];

    #[test]
    fn tile_accumulates_outer_products() {
        // kc = 2: step 0 contributes a=1 on row 0, step 1 contributes
        // a=2 on row 1; B rows are ramps.
        let kc = 2;
        let mut ap = vec![0.0f32; kc * MR];
        ap[0] = 1.0; // step 0, row 0
        ap[MR + 1] = 2.0; // step 1, row 1
        let bp: Vec<f32> = (0..kc * NR).map(|i| i as f32).collect();
        let acc = microtile(ZERO, &ap, &bp);
        assert_eq!(acc[0][3], 3.0, "row 0 = 1 * B[0][j]");
        assert_eq!(acc[1][3], 2.0 * (NR + 3) as f32, "row 1 = 2 * B[1][j]");
        assert_eq!(acc[2], [0.0; NR]);
        // Split after step 0 and carried through C: the same bits.
        let tile = Tile {
            i0: 0,
            j0: 0,
            rows: MR,
            cols: NR,
        };
        let mut cd = vec![f32::NAN; MR * NR];
        tile.store_partial(&microtile(ZERO, &ap[..MR], &bp[..NR]), &mut cd, NR);
        let carried = microtile(tile.load(&cd, NR), &ap[MR..], &bp[NR..]);
        assert_eq!(carried, acc);
    }

    #[test]
    fn store_clips_to_the_valid_region() {
        let mut acc = [[0.0f32; NR]; MR];
        for (i, row) in acc.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i * NR + j) as f32 + 1.0;
            }
        }
        // 3x5 output, tile placed at (1, 2): only 2 rows x 3 cols fit.
        let n = 5;
        let tile = Tile {
            i0: 1,
            j0: 2,
            rows: 2,
            cols: 3,
        };
        let mut cd = vec![0.0f32; 3 * n];
        tile.store_finished(&acc, &mut cd, n);
        assert_eq!(cd[n + 2..n + 5], [1.0, 2.0, 3.0]);
        let r1 = (NR + 1) as f32;
        assert_eq!(cd[2 * n + 2..2 * n + 5], [r1, r1 + 1.0, r1 + 2.0]);
        assert_eq!(cd[..n], [0.0; 5], "row above the tile untouched");
        assert_eq!(cd[n], 0.0, "columns left of the tile untouched");
        // A reload sees the valid region and zeros elsewhere.
        let back = tile.load(&cd, n);
        assert_eq!(back[1][..4], [r1, r1 + 1.0, r1 + 2.0, 0.0]);
        assert_eq!(back[2], [0.0; NR]);
    }

    #[test]
    fn only_the_finished_store_turns_negative_zero_positive() {
        let tile = Tile {
            i0: 0,
            j0: 0,
            rows: 1,
            cols: 1,
        };
        let mut acc = ZERO;
        acc[0][0] = -0.0;
        let mut cd = [0.0f32];
        tile.store_partial(&acc, &mut cd, 1);
        assert_eq!(cd[0].to_bits(), (-0.0f32).to_bits(), "partials are raw");
        tile.store_finished(&acc, &mut cd, 1);
        assert_eq!(cd[0].to_bits(), 0.0f32.to_bits(), "+0.0 + -0.0 = +0.0");
    }

    #[test]
    fn panel_sizes_line_up_with_the_packers() {
        // One MR-wide and one NR-wide panel for a 1x3 step count.
        let ad = [1.0f32, 2.0, 3.0];
        let mut ap = vec![f32::NAN; 3 * MR];
        pack::pack::<MR>(&ad, Layout::Reduction(3), 0, 1, 0, 3, &mut ap);
        let mut bp = vec![f32::NAN; 3 * NR];
        pack::pack::<NR>(&ad, Layout::Step(1), 0, 1, 0, 3, &mut bp);
        let acc = microtile(ZERO, &ap, &bp);
        // dot([1,2,3], [1,2,3]) lands in acc[0][0].
        assert_eq!(acc[0][0], 14.0);
        assert_eq!(acc[1][0], 0.0, "padded A rows contribute zero");
        assert_eq!(acc[0][1], 0.0, "padded B cols contribute zero");
    }
}
