//! Dense CHW tensors.
//!
//! The inference substrate works on single images (the paper evaluates at
//! batch size 1), so tensors are rank-3 `(channels, height, width)` for
//! feature maps, rank-1 for fully-connected activations, and rank-4
//! `(kernels, channels, kh, kw)` for convolution weights. One generic
//! container covers all of them with explicit dimension accessors.

use std::fmt;

/// A dense row-major tensor over element type `T`.
#[derive(Clone, PartialEq)]
pub struct Tensor<T> {
    dims: Vec<usize>,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor<T> {
    /// Creates a tensor of the given shape filled with `T::default()`.
    ///
    /// # Panics
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(dims: &[usize]) -> Self {
        let len = checked_len(dims);
        Self {
            dims: dims.to_vec(),
            data: vec![T::default(); len],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if the buffer length does not match the shape.
    pub fn from_vec(dims: &[usize], data: Vec<T>) -> Self {
        let len = checked_len(dims);
        assert_eq!(
            data.len(),
            len,
            "buffer length {} does not match shape {:?}",
            data.len(),
            dims
        );
        Self {
            dims: dims.to_vec(),
            data,
        }
    }

    /// Consumes the tensor, returning its flat row-major buffer (the
    /// recycling hook of [`crate::arena::BatchArena`]).
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Creates a tensor by evaluating `f` at every flat index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> T) -> Self {
        let len = checked_len(dims);
        Self {
            dims: dims.to_vec(),
            data: (0..len).map(&mut f).collect(),
        }
    }

    /// Shape of the tensor.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements (never true for validly
    /// constructed tensors).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat immutable view.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Flat mutable view.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element at `(c, h, w)` of a rank-3 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank-3 or the index is out of bounds.
    #[inline]
    pub fn at3(&self, c: usize, h: usize, w: usize) -> T {
        debug_assert_eq!(self.dims.len(), 3, "at3 on rank-{} tensor", self.dims.len());
        let (ch, hh, ww) = (self.dims[0], self.dims[1], self.dims[2]);
        assert!(
            c < ch && h < hh && w < ww,
            "index ({c},{h},{w}) out of {:?}",
            self.dims
        );
        self.data[(c * hh + h) * ww + w]
    }

    /// Sets element `(c, h, w)` of a rank-3 tensor.
    #[inline]
    pub fn set3(&mut self, c: usize, h: usize, w: usize, v: T) {
        debug_assert_eq!(self.dims.len(), 3);
        let (ch, hh, ww) = (self.dims[0], self.dims[1], self.dims[2]);
        assert!(
            c < ch && h < hh && w < ww,
            "index ({c},{h},{w}) out of {:?}",
            self.dims
        );
        self.data[(c * hh + h) * ww + w] = v;
    }

    /// Applies `f` element-wise, producing a new tensor of type `U`.
    pub fn map<U: Copy + Default>(&self, f: impl Fn(T) -> U) -> Tensor<U> {
        Tensor {
            dims: self.dims.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

impl Tensor<f32> {
    /// Maximum absolute value (0 for the degenerate all-zero tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

fn checked_len(dims: &[usize]) -> usize {
    assert!(!dims.is_empty(), "tensor rank must be at least 1");
    dims.iter()
        .map(|&d| {
            assert!(d > 0, "zero-sized dimension in {dims:?}");
            d
        })
        .product()
}

impl<T: Copy + Default + fmt::Debug> fmt::Debug for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}[", self.dims)?;
        let shown = self.data.len().min(8);
        for (i, v) in self.data[..shown].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        if self.data.len() > shown {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_len() {
        let t = Tensor::<f32>::zeros(&[3, 4, 5]);
        assert_eq!(t.dims(), &[3, 4, 5]);
        assert_eq!(t.len(), 60);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rank3_indexing_roundtrip() {
        let mut t = Tensor::<i32>::zeros(&[2, 3, 4]);
        t.set3(1, 2, 3, 42);
        t.set3(0, 0, 0, -7);
        assert_eq!(t.at3(1, 2, 3), 42);
        assert_eq!(t.at3(0, 0, 0), -7);
        assert_eq!(t.at3(1, 2, 2), 0);
    }

    #[test]
    fn from_fn_fills_in_flat_order() {
        let t = Tensor::<usize>::from_fn(&[2, 2], |i| i * 10);
        assert_eq!(t.as_slice(), &[0, 10, 20, 30]);
    }

    #[test]
    fn map_changes_type() {
        let t = Tensor::<u8>::from_vec(&[4], vec![1, 2, 3, 4]);
        let f = t.map(|v| v as f32 * 0.5);
        assert_eq!(f.as_slice(), &[0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn max_abs_handles_negatives() {
        let t = Tensor::<f32>::from_vec(&[3], vec![-2.5, 1.0, 2.0]);
        assert_eq!(t.max_abs(), 2.5);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::<u8>::from_vec(&[2, 2], vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "zero-sized dimension")]
    fn zero_dim_panics() {
        let _ = Tensor::<u8>::zeros(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_bounds_panics() {
        let t = Tensor::<u8>::zeros(&[2, 2, 2]);
        let _ = t.at3(2, 0, 0);
    }
}
