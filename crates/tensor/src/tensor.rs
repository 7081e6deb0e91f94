use crate::{Result, TensorError};
use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` tensor.
///
/// Most operators in this crate expect rank-4 tensors in **NCHW** layout
/// (batch, channels, height, width); dense layers use rank-2 `(batch,
/// features)`. The type itself is rank-agnostic.
///
/// ```
/// use hidp_tensor::Tensor;
///
/// # fn main() -> Result<(), hidp_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2])?;
/// assert_eq!(t.get(&[0, 0, 1, 1])?, 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when `data.len()` is not the
    /// product of `shape`, and [`TensorError::EmptyDimension`] when `shape`
    /// contains a zero.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        Self::validate_shape(shape)?;
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a tensor filled with zeros.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] when `shape` contains a zero.
    pub fn zeros(shape: &[usize]) -> Result<Self> {
        Self::filled(shape, 0.0)
    }

    /// Creates a tensor where every element is `value`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] when `shape` contains a zero.
    pub fn filled(shape: &[usize], value: f32) -> Result<Self> {
        Self::validate_shape(shape)?;
        let n: usize = shape.iter().product();
        Ok(Self {
            shape: shape.to_vec(),
            data: vec![value; n],
        })
    }

    /// Creates a tensor by evaluating `f` at every flat index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] when `shape` contains a zero.
    pub fn from_fn<F: FnMut(usize) -> f32>(shape: &[usize], f: F) -> Result<Self> {
        Self::validate_shape(shape)?;
        let n: usize = shape.iter().product();
        Ok(Self {
            shape: shape.to_vec(),
            data: (0..n).map(f).collect(),
        })
    }

    /// Creates a tensor with elements drawn uniformly from `[-scale, scale]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] when `shape` contains a zero,
    /// or [`TensorError::InvalidArgument`] when `scale` is not finite and
    /// strictly positive.
    pub fn random<R: Rng + ?Sized>(shape: &[usize], scale: f32, rng: &mut R) -> Result<Self> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(TensorError::InvalidArgument {
                what: format!("random scale must be finite and positive, got {scale}"),
            });
        }
        Self::validate_shape(shape)?;
        let dist = Uniform::new_inclusive(-scale, scale);
        let n: usize = shape.iter().product();
        Ok(Self {
            shape: shape.to_vec(),
            data: (0..n).map(|_| dist.sample(rng)).collect(),
        })
    }

    fn validate_shape(shape: &[usize]) -> Result<()> {
        if shape.is_empty() || shape.contains(&0) {
            return Err(TensorError::EmptyDimension {
                shape: shape.to_vec(),
            });
        }
        Ok(())
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (never true for valid tensors).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Converts a multi-dimensional index to a flat offset.
    fn flat_index(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.shape.len() {
            return Err(TensorError::InvalidRank {
                expected: self.shape.len(),
                actual: index.len(),
            });
        }
        let mut offset = 0usize;
        for (i, (&idx, &dim)) in index.iter().zip(self.shape.iter()).enumerate() {
            if idx >= dim {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    shape: self.shape.clone(),
                });
            }
            let stride: usize = self.shape[i + 1..].iter().product();
            offset += idx * stride;
        }
        Ok(offset)
    }

    /// Reads a single element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] or [`TensorError::InvalidRank`]
    /// for invalid indices.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        let i = self.flat_index(index)?;
        Ok(self.data[i])
    }

    /// Writes a single element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] or [`TensorError::InvalidRank`]
    /// for invalid indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let i = self.flat_index(index)?;
        self.data[i] = value;
        Ok(())
    }

    /// Fast unchecked NCHW accessor used by the operator kernels.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the tensor is not rank-4 or the index is
    /// out of bounds.
    #[inline]
    pub(crate) fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (cc, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// Fast unchecked NCHW mutator used by the operator kernels.
    #[inline]
    pub(crate) fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        debug_assert_eq!(self.shape.len(), 4);
        let (cc, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cc + c) * hh + h) * ww + w] = v;
    }

    /// Returns a copy reshaped to `shape` without changing element order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when the element counts
    /// differ, or [`TensorError::EmptyDimension`] for invalid shapes.
    pub fn reshaped(&self, shape: &[usize]) -> Result<Self> {
        Self::validate_shape(shape)?;
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: self.data.len(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Flattens a rank-4 tensor to rank-2 `(batch, features)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidRank`] when the tensor is not rank-4.
    pub fn flattened(&self) -> Result<Self> {
        if self.rank() != 4 {
            return Err(TensorError::InvalidRank {
                expected: 4,
                actual: self.rank(),
            });
        }
        let n = self.shape[0];
        let features = self.shape[1] * self.shape[2] * self.shape[3];
        self.reshaped(&[n, features])
    }

    /// Maximum absolute difference between two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] when the shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::DimensionMismatch {
                what: format!(
                    "max_abs_diff requires equal shapes, got {:?} and {:?}",
                    self.shape, other.shape
                ),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Whether two tensors are equal within `tolerance` per element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] when the shapes differ.
    pub fn approx_eq(&self, other: &Self, tolerance: f32) -> Result<bool> {
        Ok(self.max_abs_diff(other)? <= tolerance)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Index of the largest element along the last axis of a rank-2 tensor,
    /// for each row. Useful for classification argmax.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidRank`] when the tensor is not rank-2.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.rank() != 2 {
            return Err(TensorError::InvalidRank {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out.push(best);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn from_vec_round_trips() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.get(&[1, 2]).unwrap(), 6.0);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeDataMismatch {
                expected: 6,
                actual: 5
            }
        );
    }

    #[test]
    fn zero_dimension_is_rejected() {
        assert!(matches!(
            Tensor::zeros(&[1, 0, 3]),
            Err(TensorError::EmptyDimension { .. })
        ));
        assert!(matches!(
            Tensor::zeros(&[]),
            Err(TensorError::EmptyDimension { .. })
        ));
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 2, 2, 2]).unwrap();
        t.set(&[1, 0, 1, 0], 7.5).unwrap();
        assert_eq!(t.get(&[1, 0, 1, 0]).unwrap(), 7.5);
        assert_eq!(t.at4(1, 0, 1, 0), 7.5);
    }

    #[test]
    fn out_of_bounds_index_is_reported() {
        let t = Tensor::zeros(&[2, 2]).unwrap();
        assert!(matches!(
            t.get(&[2, 0]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            t.get(&[0, 0, 0]),
            Err(TensorError::InvalidRank { .. })
        ));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        let r = t.reshaped(&[4, 6]).unwrap();
        assert_eq!(r.shape(), &[4, 6]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshaped(&[5, 5]).is_err());
    }

    #[test]
    fn flatten_requires_rank4() {
        let t = Tensor::zeros(&[2, 3, 4, 5]).unwrap();
        assert_eq!(t.flattened().unwrap().shape(), &[2, 60]);
        let t2 = Tensor::zeros(&[2, 3]).unwrap();
        assert!(t2.flattened().is_err());
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut r1 = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let mut r2 = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let a = Tensor::random(&[3, 3], 0.5, &mut r1).unwrap();
        let b = Tensor::random(&[3, 3], 0.5, &mut r2).unwrap();
        assert_eq!(a, b);
        assert!(a.data().iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn random_rejects_bad_scale() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        assert!(Tensor::random(&[2], 0.0, &mut rng).is_err());
        assert!(Tensor::random(&[2], f32::NAN, &mut rng).is_err());
    }

    #[test]
    fn max_abs_diff_and_approx_eq() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.5], &[2]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        assert!(a.approx_eq(&b, 0.6).unwrap());
        assert!(!a.approx_eq(&b, 0.4).unwrap());
        let c = Tensor::zeros(&[3]).unwrap();
        assert!(a.max_abs_diff(&c).is_err());
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.3, 0.3, 0.2], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn from_fn_uses_flat_index() {
        let t = Tensor::from_fn(&[2, 2], |i| i as f32).unwrap();
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }
}
