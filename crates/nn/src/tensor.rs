//! A minimal dense tensor for CPU training.
//!
//! Data is `f32`, row-major, with an explicit shape vector.
//! Convolutional layers interpret 4-D tensors as NCHW.

use rand::Rng;

/// A dense row-major tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// An all-zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![0.0; shape.iter().product()] }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` does not match the shape volume, or
    /// the volume overflows `usize`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            Some(data.len()),
            shape.iter().try_fold(1usize, |v, &d| v.checked_mul(d)),
            "data length must match shape volume"
        );
        Tensor { shape: shape.to_vec(), data }
    }

    /// Kaiming-uniform initialization with `fan_in` inputs.
    pub fn kaiming<R: Rng + ?Sized>(shape: &[usize], fan_in: usize, rng: &mut R) -> Self {
        let bound = (6.0f32 / fan_in.max(1) as f32).sqrt();
        let data =
            (0..shape.iter().product::<usize>()).map(|_| rng.gen_range(-bound..bound)).collect();
        Tensor { shape: shape.to_vec(), data }
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable raw data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of equal volume.
    ///
    /// # Panics
    ///
    /// Panics when volumes differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(
            self.data.len(),
            shape.iter().product::<usize>(),
            "reshape must preserve volume"
        );
        self.shape = shape.to_vec();
        self
    }

    /// Move-based reshape: consumes the tensor and returns it with a
    /// new shape of equal volume, without touching the data buffer.
    /// The explicit name marks call sites that avoid the
    /// clone-then-reshape pattern on the hot path.
    ///
    /// # Panics
    ///
    /// Panics when volumes differ.
    pub fn into_reshaped(self, shape: &[usize]) -> Self {
        self.reshape(shape)
    }

    /// Element at a 4-D NCHW index (unchecked arithmetic, checked
    /// bounds through the slice index).
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        let (_, cc, hh, ww) = self.dims4();
        self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// Mutable element at a 4-D NCHW index.
    #[inline]
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let (_, cc, hh, ww) = self.dims4();
        &mut self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// The four NCHW dimensions.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 4-D.
    pub fn dims4(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.shape.len(), 4, "expected a 4-D tensor, got {:?}", self.shape);
        (self.shape[0], self.shape[1], self.shape[2], self.shape[3])
    }

    /// The two dimensions of a matrix-shaped tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D.
    pub fn dims2(&self) -> (usize, usize) {
        assert_eq!(self.shape.len(), 2, "expected a 2-D tensor, got {:?}", self.shape);
        (self.shape[0], self.shape[1])
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, k: f32) {
        for a in &mut self.data {
            *a *= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn indexing_is_row_major() {
        let t = Tensor::from_vec(&[1, 2, 2, 3], (0..12).map(|i| i as f32).collect());
        assert_eq!(t.at4(0, 0, 0, 0), 0.0);
        assert_eq!(t.at4(0, 0, 1, 2), 5.0);
        assert_eq!(t.at4(0, 1, 0, 0), 6.0);
        assert_eq!(t.at4(0, 1, 1, 2), 11.0);
    }

    #[test]
    fn kaiming_bounds_follow_fan_in() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::kaiming(&[64, 16], 16, &mut rng);
        let bound = (6.0f32 / 16.0).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= bound));
        assert!(t.data().iter().any(|v| v.abs() > bound * 0.3));
    }

    #[test]
    #[should_panic(expected = "reshape must preserve volume")]
    fn reshape_checks_volume() {
        let _ = Tensor::zeros(&[2, 3]).reshape(&[7]);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(&[3], vec![10.0, 20.0, 30.0]);
        a.add_assign(&b);
        a.scale(0.5);
        assert_eq!(a.data(), &[5.5, 11.0, 16.5]);
    }
}
