//! The dense, row-major `f32` tensor type on shared copy-on-write storage.

use crate::error::{Result, TensorError};
use crate::shape::Shape;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::Arc;

/// The shared, copy-on-write element buffer behind a [`Tensor`].
///
/// Cloning a `Storage` bumps a reference count; the buffer is only copied
/// when a writer calls [`Tensor::data_mut`] while the storage is shared
/// (`Arc::make_mut` semantics). This is what makes model snapshots O(1)
/// and lets every executor thread of a fleet evaluation read one
/// pretrained weight set without copying it.
#[derive(Clone, Default)]
struct Storage(Arc<Vec<f32>>);

impl Storage {
    fn new(data: Vec<f32>) -> Self {
        Storage(Arc::new(data))
    }
}

impl PartialEq for Storage {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality is a pure fast path: aliased buffers hold the
        // same bytes by construction.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

/// A dense, row-major tensor of `f32` values.
///
/// This is the single numeric container used throughout the Reduce
/// reproduction: activations, weights, gradients and fault masks are all
/// `Tensor`s. Data is always contiguous and lives in a shared
/// copy-on-write [`Storage`]: `clone()` and [`Tensor::reshape`] are O(1)
/// aliases, and the first write through [`Tensor::data_mut`] un-shares the
/// buffer. Transposes copy.
///
/// # Examples
///
/// ```
/// use reduce_tensor::Tensor;
///
/// # fn main() -> Result<(), reduce_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// let b = Tensor::full([2, 2], 10.0);
/// let c = (&a + &b)?;
/// assert_eq!(c.data(), &[11.0, 12.0, 13.0, 14.0]);
///
/// // Clones share storage until one side writes.
/// let snapshot = a.clone();
/// assert!(snapshot.shares_storage(&a));
/// let mut edited = a.clone();
/// edited.data_mut()[0] = 9.0; // copy-on-write happens here
/// assert!(!edited.shares_storage(&a));
/// assert_eq!(snapshot.data()[0], 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Storage,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor filled with zeros.
    pub fn zeros<S: Into<Shape>>(shape: S) -> Self {
        let shape = shape.into();
        let n = shape.volume();
        Tensor {
            shape,
            data: Storage::new(vec![0.0; n]),
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones<S: Into<Shape>>(shape: S) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full<S: Into<Shape>>(shape: S, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.volume();
        Tensor {
            shape,
            data: Storage::new(vec![value; n]),
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape volume.
    pub fn from_vec<S: Into<Shape>>(data: Vec<f32>, shape: S) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: Storage::new(data),
        })
    }

    /// Creates a tensor by evaluating `f` at every flat (row-major) index.
    pub fn from_fn<S: Into<Shape>, F: FnMut(usize) -> f32>(shape: S, f: F) -> Self {
        let shape = shape.into();
        let n = shape.volume();
        let data = (0..n).map(f).collect();
        Tensor {
            shape,
            data: Storage::new(data),
        }
    }

    /// Creates a tensor with i.i.d. uniform values in `[lo, hi)`, seeded.
    pub fn rand_uniform<S: Into<Shape>>(shape: S, lo: f32, hi: f32, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shape = shape.into();
        let n = shape.volume();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor {
            shape,
            data: Storage::new(data),
        }
    }

    /// Creates a tensor with i.i.d. normal values `N(mean, std^2)`, seeded.
    pub fn rand_normal<S: Into<Shape>>(shape: S, mean: f32, std: f32, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        Self::rand_normal_with(shape, mean, std, &mut rng)
    }

    /// Like [`Tensor::rand_normal`] but drawing from a caller-owned RNG.
    ///
    /// Uses the Box–Muller transform so only `rand`'s uniform source is
    /// needed.
    pub fn rand_normal_with<S: Into<Shape>, R: Rng>(
        shape: S,
        mean: f32,
        std: f32,
        rng: &mut R,
    ) -> Self {
        let shape = shape.into();
        let n = shape.volume();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor {
            shape,
            data: Storage::new(data),
        }
    }

    // ------------------------------------------------------------------
    // Storage & aliasing
    // ------------------------------------------------------------------

    /// Whether `self` and `other` alias the same underlying buffer.
    ///
    /// True after a `clone()` or [`Tensor::reshape`] until either side
    /// writes (which un-shares via copy-on-write).
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data.0, &other.data.0)
    }

    /// Whether this tensor is the sole owner of its buffer (writes through
    /// [`Tensor::data_mut`] will not copy).
    pub fn storage_is_unique(&self) -> bool {
        Arc::strong_count(&self.data.0) == 1
    }

    /// Consumes the tensor; returns its buffer only if no other tensor
    /// shares it. Used by workspace arenas to recycle buffers without ever
    /// detaching one that is still visible elsewhere.
    pub fn into_unique_vec(self) -> Option<Vec<f32>> {
        Arc::try_unwrap(self.data.0).ok()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents as a slice (shortcut for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.0.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.0.is_empty()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data.0
    }

    /// Mutable view of the underlying row-major data.
    ///
    /// This is the copy-on-write point: if the storage is shared (a
    /// snapshot, a mask application on a restored model, …) the buffer is
    /// copied once here and `self` becomes the sole owner.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data.0).as_mut_slice()
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index errors from [`Shape::offset`].
    pub fn at(&self, idx: &[usize]) -> Result<f32> {
        // xtask:allow(index): Shape::offset bounds-checks every coordinate
        Ok(self.data()[self.shape.offset(idx)?])
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// O(1): the result aliases this tensor's storage; a later write to
    /// either side un-shares via copy-on-write.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if volumes differ.
    pub fn reshape<S: Into<Shape>>(&self, shape: S) -> Result<Tensor> {
        let shape = shape.into();
        if shape.volume() != self.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Transpose of a rank-2 tensor (copies).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for non-matrix tensors.
    pub fn transpose(&self) -> Result<Tensor> {
        let (r, c) = self.shape.as_matrix()?;
        let mut out = Tensor::zeros([c, r]);
        let src = self.data();
        let dst = out.data_mut();
        for i in 0..r {
            for j in 0..c {
                // xtask:allow(index): i < r and j < c over r * c buffers
                dst[j * r + i] = src[i * c + j];
            }
        }
        Ok(out)
    }

    /// Copies row `i` of a rank-2 tensor into a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrix tensors or out-of-range rows.
    pub fn row(&self, i: usize) -> Result<Tensor> {
        let (r, c) = self.shape.as_matrix()?;
        if i >= r {
            return Err(TensorError::OutOfBounds {
                what: "row",
                index: i,
                bound: r,
            });
        }
        Ok(Tensor {
            shape: Shape::from([c]),
            // xtask:allow(index): the row bound i < r is checked above
            data: Storage::new(self.data()[i * c..(i + 1) * c].to_vec()),
        })
    }

    /// Borrow of row `i` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrix tensors or out-of-range rows.
    pub fn row_slice(&self, i: usize) -> Result<&[f32]> {
        let (r, c) = self.shape.as_matrix()?;
        if i >= r {
            return Err(TensorError::OutOfBounds {
                what: "row",
                index: i,
                bound: r,
            });
        }
        // xtask:allow(index): the row bound i < r is checked above
        Ok(&self.data()[i * c..(i + 1) * c])
    }

    // ------------------------------------------------------------------
    // Elementwise maps
    // ------------------------------------------------------------------

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: Storage::new(self.data().iter().map(|&x| f(x)).collect()),
        }
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data: Storage::new(data),
        })
    }

    /// In-place `self[i] = f(self[i], other[i])`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip_map_in_place<F: Fn(f32, f32) -> f32>(&mut self, other: &Tensor, f: F) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map_in_place",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        for (a, &b) in self.data_mut().iter_mut().zip(other.data.0.iter()) {
            *a = f(*a, b);
        }
        Ok(())
    }

    /// `self += alpha * other` (BLAS `axpy`), shapes must match.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.zip_map_in_place(other, |a, b| a + alpha * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for x in self.data_mut() {
            *x *= s;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data_mut().iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data_mut().iter_mut().for_each(|x| *x = value);
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element (`-inf` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`+inf` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the largest element (first on ties).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty tensor.
    pub fn argmax(&self) -> Result<usize> {
        if self.is_empty() {
            return Err(TensorError::InvalidArgument {
                op: "argmax",
                reason: "empty tensor".to_string(),
            });
        }
        let data = self.data();
        let mut best = 0usize;
        for (i, &x) in data.iter().enumerate() {
            // xtask:allow(index): best always holds an already-visited index
            if x > data[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Per-row argmax of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for non-matrix tensors or
    /// zero columns.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        let (r, c) = self.shape.as_matrix()?;
        if c == 0 {
            return Err(TensorError::InvalidArgument {
                op: "argmax_rows",
                reason: "zero columns".to_string(),
            });
        }
        let mut out = Vec::with_capacity(r);
        for i in 0..r {
            // xtask:allow(index): i < r over an r * c buffer
            let row = &self.data()[i * c..(i + 1) * c];
            let mut best = 0usize;
            for (j, &x) in row.iter().enumerate() {
                // xtask:allow(index): best always holds an already-visited index
                if x > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Sum over rows of a rank-2 tensor into `out`, which must have shape
    /// `[cols]`: the column sums, the reduction used for bias gradients.
    /// `out` is zeroed first, and rows are added in ascending order.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrix tensors or a misshapen `out`.
    pub fn sum_rows_into(&self, out: &mut Tensor) -> Result<()> {
        let (r, c) = self.shape.as_matrix()?;
        if out.dims() != [c] {
            return Err(TensorError::ShapeMismatch {
                op: "sum_rows_into",
                lhs: vec![c],
                rhs: out.dims().to_vec(),
            });
        }
        out.fill_zero();
        let dst = out.data_mut();
        for i in 0..r {
            // xtask:allow(index): i < r over an r * c buffer
            for (o, &v) in dst.iter_mut().zip(&self.data()[i * c..(i + 1) * c]) {
                *o += v;
            }
        }
        Ok(())
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data().iter().map(|&x| x * x).sum()
    }

    /// Fraction of elements that are exactly zero.
    pub fn sparsity(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        // xtask:allow(float-eq): sparsity counts exact-zero entries by definition
        let zeros = self.data().iter().filter(|&&x| x == 0.0).count();
        zeros as f32 / self.len() as f32
    }

    /// Returns `true` if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data().iter().all(|x| x.is_finite())
    }

    /// Elementwise approximate equality within `tol` (absolute).
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data()
                .iter()
                .zip(other.data())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{}[", self.shape)?;
        let n = self.len().min(8);
        // xtask:allow(index): n is clamped to self.len() by the min above
        for (i, x) in self.data()[..n].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.4}")?;
        }
        if self.len() > n {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op_name:literal, $f:expr) => {
        impl $trait for &Tensor {
            type Output = Result<Tensor>;
            fn $method(self, rhs: &Tensor) -> Result<Tensor> {
                if self.shape != rhs.shape {
                    return Err(TensorError::ShapeMismatch {
                        op: $op_name,
                        lhs: self.dims().to_vec(),
                        rhs: rhs.dims().to_vec(),
                    });
                }
                self.zip_map(rhs, $f)
            }
        }
    };
}

impl_binop!(Add, add, "add", |a, b| a + b);
impl_binop!(Sub, sub, "sub", |a, b| a - b);
impl_binop!(Mul, mul, "mul", |a, b| a * b);
impl_binop!(Div, div, "div", |a, b| a / b);

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.map(|x| x * rhs)
    }
}

impl Add<f32> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: f32) -> Tensor {
        self.map(|x| x + rhs)
    }
}

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones([2, 3]);
        assert!(o.data().iter().all(|&x| x == 1.0));
        let f = Tensor::full([2], 4.5);
        assert_eq!(f.data(), &[4.5, 4.5]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], [3]).is_err());
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).expect("lengths match");
        assert_eq!(t.dims(), &[3]);
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let t = Tensor::from_fn([2, 2], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(t.at(&[1, 0]).expect("valid"), 2.0);
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let a = Tensor::rand_uniform([16], -1.0, 1.0, 42);
        let b = Tensor::rand_uniform([16], -1.0, 1.0, 42);
        let c = Tensor::rand_uniform([16], -1.0, 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.data().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn rand_normal_moments() {
        let t = Tensor::rand_normal([10_000], 2.0, 0.5, 7);
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 0.25).abs() < 0.03, "var {var}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn([2, 3], |i| i as f32);
        let r = t.reshape([3, 2]).expect("same volume");
        assert_eq!(r.data(), t.data());
        assert!(t.reshape([4]).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_fn([2, 3], |i| i as f32);
        let tt = t.transpose().expect("matrix");
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(
            tt.at(&[2, 1]).expect("valid"),
            t.at(&[1, 2]).expect("valid")
        );
        assert_eq!(tt.transpose().expect("matrix"), t);
    }

    #[test]
    fn row_is_bounds_checked() {
        let t = Tensor::from_fn([3, 2], |i| i as f32);
        assert_eq!(t.row(1).expect("in range").data(), &[2.0, 3.0]);
        assert!(t.row(3).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]).expect("ok");
        let b = Tensor::from_vec(vec![3.0, 5.0], [2]).expect("ok");
        assert_eq!((&a + &b).expect("same shape").data(), &[4.0, 7.0]);
        assert_eq!((&b - &a).expect("same shape").data(), &[2.0, 3.0]);
        assert_eq!((&a * &b).expect("same shape").data(), &[3.0, 10.0]);
        assert_eq!((&b / &a).expect("same shape").data(), &[3.0, 2.5]);
        assert_eq!((&a * 2.0).data(), &[2.0, 4.0]);
        assert_eq!((&a + 1.0).data(), &[2.0, 3.0]);
        assert_eq!((-&a).data(), &[-1.0, -2.0]);
    }

    #[test]
    fn elementwise_shape_mismatch_is_error() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        assert!((&a + &b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones([3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).expect("ok");
        a.axpy(0.5, &b).expect("same shape");
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.0], [4]).expect("ok");
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax().expect("non-empty"), 2);
        assert_eq!(t.norm_sq(), 14.0);
        assert!((t.sparsity() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_picks_first_on_tie() {
        let t = Tensor::from_vec(vec![1.0, 1.0, 0.0, 2.0], [2, 2]).expect("ok");
        assert_eq!(t.argmax_rows().expect("matrix"), vec![0, 1]);
    }

    #[test]
    fn sum_rows_gives_column_sums() {
        let t = Tensor::from_fn([2, 3], |i| i as f32);
        let mut out = Tensor::full([3], f32::NAN);
        t.sum_rows_into(&mut out).expect("matrix");
        assert_eq!(out.data(), &[3.0, 5.0, 7.0]);
        let mut bad = Tensor::zeros([2]);
        assert!(t.sum_rows_into(&mut bad).is_err());
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::ones([2]);
        assert!(t.all_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Tensor::ones([2]);
        let b = &a + 1e-6;
        assert!(a.approx_eq(&b, 1e-5));
        assert!(!a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&Tensor::ones([3]), 1.0));
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros([100]);
        let s = t.to_string();
        assert!(s.contains('…'));
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }

    // ------------------------------------------------------------------
    // Copy-on-write semantics
    // ------------------------------------------------------------------

    #[test]
    fn clone_shares_storage_until_write() {
        let a = Tensor::from_fn([8], |i| i as f32);
        let b = a.clone();
        assert!(a.shares_storage(&b));
        assert!(!a.storage_is_unique());
        let mut c = a.clone();
        c.data_mut()[0] = 99.0;
        assert!(!c.shares_storage(&a), "write un-shares");
        assert_eq!(a.data()[0], 0.0, "original untouched by CoW write");
        assert_eq!(b.data()[0], 0.0);
        assert_eq!(c.data()[0], 99.0);
    }

    #[test]
    fn reshape_is_a_view_until_write() {
        let a = Tensor::from_fn([2, 3], |i| i as f32);
        let v = a.reshape([3, 2]).expect("same volume");
        assert!(v.shares_storage(&a));
        let mut w = a.reshape([6]).expect("same volume");
        w.data_mut()[0] = -1.0;
        assert!(!w.shares_storage(&a));
        assert_eq!(a.data()[0], 0.0);
    }

    #[test]
    fn into_unique_vec_respects_sharing() {
        let a = Tensor::from_fn([4], |i| i as f32);
        let b = a.clone();
        assert!(
            b.into_unique_vec().is_none(),
            "shared buffer not detachable"
        );
        assert!(
            a.storage_is_unique(),
            "dropping the clone restores uniqueness"
        );
        let v = a.into_unique_vec().expect("sole owner detaches");
        assert_eq!(v, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn equality_ignores_aliasing() {
        let a = Tensor::from_fn([4], |i| i as f32);
        let b = a.clone();
        let c = Tensor::from_fn([4], |i| i as f32);
        assert_eq!(a, b, "aliased tensors are equal (fast path)");
        assert_eq!(a, c, "equal contents, distinct buffers");
    }
}
