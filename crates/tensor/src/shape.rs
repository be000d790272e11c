//! Shapes and row-major index arithmetic.

use crate::error::{Result, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape of a dense, row-major tensor.
///
/// A shape is an ordered list of dimension extents. The empty shape `[]`
/// denotes a scalar (volume 1).
///
/// # Examples
///
/// ```
/// use reduce_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// The scalar shape `[]`.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dims; 1 for a scalar).
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// The dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Extent of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.0.get(axis).copied().ok_or(TensorError::OutOfBounds {
            what: "axis",
            index: axis,
            bound: self.0.len(),
        })
    }

    /// Row-major strides (in elements) for this shape.
    ///
    /// The last dimension is contiguous; a scalar has no strides.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0usize; self.0.len()];
        let mut acc = 1usize;
        for (i, &d) in self.0.iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d;
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `idx.len() != rank`, and
    /// [`TensorError::OutOfBounds`] if any coordinate exceeds its extent.
    pub fn offset(&self, idx: &[usize]) -> Result<usize> {
        if idx.len() != self.0.len() {
            return Err(TensorError::ShapeMismatch {
                op: "offset",
                lhs: self.0.clone(),
                rhs: idx.to_vec(),
            });
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for i in (0..self.0.len()).rev() {
            if idx[i] >= self.0[i] {
                return Err(TensorError::OutOfBounds {
                    what: "coordinate",
                    index: idx[i],
                    bound: self.0[i],
                });
            }
            off += idx[i] * stride;
            stride *= self.0[i];
        }
        Ok(off)
    }

    /// Splits a rank-2 shape into `(rows, cols)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for non-matrix shapes.
    pub fn as_matrix(&self) -> Result<(usize, usize)> {
        if self.rank() != 2 {
            return Err(TensorError::InvalidArgument {
                op: "as_matrix",
                reason: format!("expected rank-2 shape, got {:?}", self.0),
            });
        }
        Ok((self.0[0], self.0[1]))
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_of_scalar_is_one() {
        assert_eq!(Shape::scalar().volume(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn volume_and_rank() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn volume_with_zero_dim() {
        assert_eq!(Shape::from([4, 0, 2]).volume(), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::from([2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::from([5]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::from([2, 3, 4]);
        let mut seen = [false; 24];
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]).expect("valid index");
                    assert!(!seen[off], "offset collision");
                    seen[off] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn offset_rejects_wrong_rank() {
        let s = Shape::from([2, 3]);
        assert!(matches!(
            s.offset(&[1]),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let s = Shape::from([2, 3]);
        assert!(matches!(
            s.offset(&[2, 0]),
            Err(TensorError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn dim_accessor() {
        let s = Shape::from([2, 3]);
        assert_eq!(s.dim(1).expect("in range"), 3);
        assert!(s.dim(2).is_err());
    }

    #[test]
    fn as_matrix_checks_rank() {
        assert_eq!(Shape::from([4, 7]).as_matrix().expect("matrix"), (4, 7));
        assert!(Shape::from([4]).as_matrix().is_err());
        assert!(Shape::from([4, 7, 2]).as_matrix().is_err());
    }

    #[test]
    fn conversions() {
        let a: Shape = vec![1, 2].into();
        let b: Shape = [1usize, 2].into();
        assert_eq!(a, b);
        assert_eq!(a.as_ref(), &[1, 2]);
    }

    #[test]
    fn display_matches_debug_dims() {
        assert_eq!(Shape::from([2, 3]).to_string(), "[2, 3]");
    }
}
