//! Shape-keyed scratch-buffer arena for allocation-free hot loops.
//!
//! Training re-enters the same forward/backward graph every batch, so the
//! set of intermediate tensor sizes is fixed after the first iteration. A
//! [`Workspace`] exploits that: [`Workspace::take`] hands out a zeroed
//! tensor, recycling a previously returned buffer of the same element count
//! when one is available, and [`Workspace::give`] returns buffers to the
//! pool. After warm-up, steady-state epochs run without heap allocation in
//! the layer paths — observable via [`WorkspaceStats`].
//!
//! Recycling never breaks aliasing: [`Workspace::give`] only pools a buffer
//! when the tensor is its storage's sole owner (see
//! [`Tensor::into_unique_vec`]); tensors still shared with a snapshot or a
//! layer cache are simply dropped and their storage stays alive wherever it
//! is referenced.

use reduce_tensor::{Shape, Tensor};
use std::collections::BTreeMap;

/// Allocation counters for a [`Workspace`].
///
/// `misses` and `bytes_allocated` stop growing once a training loop reaches
/// steady state — that is the zero-allocation property the telemetry layer
/// reports per FAT run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceStats {
    /// `take` calls served by recycling a pooled buffer.
    pub hits: u64,
    /// `take` calls that had to allocate a fresh buffer.
    pub misses: u64,
    /// Total bytes allocated by misses.
    pub bytes_allocated: u64,
}

impl WorkspaceStats {
    /// Accumulates `other` into `self` (used to aggregate across runs).
    pub fn merge(&mut self, other: &WorkspaceStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bytes_allocated += other.bytes_allocated;
    }

    /// Total `take` calls.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A pool of reusable `f32` buffers keyed by element count.
///
/// # Examples
///
/// ```
/// use reduce_nn::Workspace;
///
/// let mut ws = Workspace::new();
/// let t = ws.take([2, 3]);
/// assert_eq!(t.data(), &[0.0; 6]);
/// ws.give(t);
/// let u = ws.take([6]); // same element count: recycled, not allocated
/// assert_eq!(ws.stats().hits, 1);
/// assert_eq!(ws.stats().misses, 1);
/// # drop(u);
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    pools: BTreeMap<usize, Vec<Vec<f32>>>,
    stats: WorkspaceStats,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Returns a zeroed tensor of the requested shape, reusing a pooled
    /// buffer of the same element count when available.
    ///
    /// The returned tensor is always all-zero regardless of what the
    /// recycled buffer last held, so `take` is a drop-in replacement for
    /// `Tensor::zeros` — results cannot depend on recycling history.
    pub fn take<S: Into<Shape>>(&mut self, shape: S) -> Tensor {
        self.take_buffer(shape.into(), true)
    }

    /// Like [`Workspace::take`] but skips the zero-fill: a recycled
    /// buffer keeps whatever it last held. Only for a buffer passed
    /// straight to a kernel that zeroes it itself or overwrites every
    /// element (the GEMM `_into` entry points, `im2col_into`,
    /// `col2im_into`, `rows_to_nchw_into`, `nchw_to_rows_into`,
    /// `sum_rows_into`, a full batch copy), so results still cannot
    /// depend on recycling history. Counts hits and misses like `take`.
    pub(crate) fn take_unzeroed<S: Into<Shape>>(&mut self, shape: S) -> Tensor {
        self.take_buffer(shape.into(), false)
    }

    /// A pooled buffer of `shape`'s volume (zeroed if `zero`), or a fresh
    /// zeroed one.
    fn take_buffer(&mut self, shape: Shape, zero: bool) -> Tensor {
        let n = shape.volume();
        if let Some(mut buf) = self.pools.get_mut(&n).and_then(Vec::pop) {
            self.stats.hits += 1;
            if zero {
                buf.fill(0.0);
            }
            // Volume matches by construction, so from_vec cannot fail; the
            // fallback allocation keeps this panic-free regardless.
            match Tensor::from_vec(buf, shape.clone()) {
                Ok(t) => t,
                Err(_) => Tensor::zeros(shape),
            }
        } else {
            self.stats.misses += 1;
            self.stats.bytes_allocated += (n as u64) * (std::mem::size_of::<f32>() as u64);
            Tensor::zeros(shape)
        }
    }

    /// Returns a buffer to the pool for later reuse.
    ///
    /// Only tensors that are the sole owner of their storage are pooled;
    /// shared tensors (snapshots, layer caches) are dropped, leaving the
    /// storage alive at its other owners.
    pub fn give(&mut self, t: Tensor) {
        let n = t.len();
        if n == 0 {
            return;
        }
        if let Some(buf) = t.into_unique_vec() {
            self.pools.entry(n).or_default().push(buf);
        }
    }

    /// Current allocation counters.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Number of buffers currently pooled.
    pub fn pooled_buffers(&self) -> usize {
        self.pools.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_even_after_dirty_give() {
        let mut ws = Workspace::new();
        let mut t = ws.take([4]);
        t.fill(7.0);
        ws.give(t);
        let u = ws.take([2, 2]);
        assert_eq!(u.data(), &[0.0; 4]);
        assert_eq!(ws.stats().hits, 1);
        assert_eq!(ws.stats().misses, 1);
    }

    #[test]
    fn take_unzeroed_recycles_as_is_and_counts_like_take() {
        let mut ws = Workspace::new();
        let mut t = ws.take_unzeroed([3]);
        assert_eq!(t.data(), &[0.0; 3], "a fresh buffer is still zeroed");
        t.fill(7.0);
        ws.give(t);
        let u = ws.take_unzeroed([3]);
        assert_eq!(u.data(), &[7.0; 3], "a recycled buffer keeps its contents");
        assert_eq!((ws.stats().hits, ws.stats().misses), (1, 1));
    }

    #[test]
    fn miss_counts_bytes() {
        let mut ws = Workspace::new();
        let _t = ws.take([8]);
        assert_eq!(ws.stats().bytes_allocated, 32);
        assert_eq!(ws.stats().requests(), 1);
    }

    #[test]
    fn shared_tensors_are_not_pooled() {
        let mut ws = Workspace::new();
        let t = ws.take([4]);
        let alias = t.clone();
        ws.give(t); // shared: dropped, not pooled
        assert_eq!(ws.pooled_buffers(), 0);
        assert_eq!(alias.data(), &[0.0; 4]);
        ws.give(alias); // now unique: pooled
        assert_eq!(ws.pooled_buffers(), 1);
    }

    #[test]
    fn steady_state_has_no_new_misses() {
        let mut ws = Workspace::new();
        for _ in 0..3 {
            let a = ws.take([16]);
            let b = ws.take([16]);
            ws.give(a);
            ws.give(b);
        }
        let s = ws.stats();
        assert_eq!(s.misses, 2, "only the first round allocates");
        assert_eq!(s.hits, 4);
    }

    #[test]
    fn empty_tensors_are_ignored() {
        let mut ws = Workspace::new();
        ws.give(Tensor::zeros([0]));
        assert_eq!(ws.pooled_buffers(), 0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = WorkspaceStats {
            hits: 1,
            misses: 2,
            bytes_allocated: 8,
        };
        a.merge(&WorkspaceStats {
            hits: 3,
            misses: 4,
            bytes_allocated: 16,
        });
        assert_eq!(a.hits, 4);
        assert_eq!(a.misses, 6);
        assert_eq!(a.bytes_allocated, 24);
    }
}
