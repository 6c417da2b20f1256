//! Flat buffers backing grids and scratchpads: `f64`, or `f32` for the
//! mixed-precision smoother chain's scratch.
//!
//! A [`Buffer`] is deliberately minimal: a length and a `Vec<T>`. The
//! pooled allocator in `gmg-runtime` hands these out and recycles them; the
//! views in [`crate::view2`]/[`crate::view3`] interpret them with strides.

use crate::Extents;

/// A flat, heap-allocated buffer of `T` (`f64` unless named).
///
/// Buffers are zero-initialised on creation (matching `calloc` semantics of
/// the generated C code in the paper, and giving deterministic ghost zones):
/// every element starts as `T::default()`, which is `0.0` for the float types.
#[derive(Clone, Debug, PartialEq)]
pub struct Buffer<T = f64> {
    data: Vec<T>,
}

impl<T: Copy + Default> Buffer<T> {
    /// Allocate a zeroed buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        Buffer {
            data: vec![T::default(); len],
        }
    }

    /// Allocate a zeroed buffer sized for `extents`.
    pub fn for_extents(extents: &Extents) -> Self {
        Self::zeroed(extents.len())
    }

    /// Length in elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes (for memory accounting in the pool / figures).
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Immutable element slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable element slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Reset every element to zero (used when the pool recycles a buffer for
    /// a function whose domain does not fully overwrite it, e.g. ghost rings).
    pub fn zero_fill(&mut self) {
        self.data.fill(T::default());
    }

    /// Grow (never shrink) to at least `len` elements, zeroing new space.
    ///
    /// The pooled allocator uses this when a storage class's size estimate
    /// was refined upward between cycles.
    pub fn ensure_len(&mut self, len: usize) {
        if self.data.len() < len {
            self.data.resize(len, T::default());
        }
    }
}

impl<T> std::ops::Index<usize> for Buffer<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T> std::ops::IndexMut<usize> for Buffer<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero() {
        let b: Buffer = Buffer::zeroed(16);
        assert_eq!(b.len(), 16);
        assert!(b.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(b.byte_len(), 16 * 8);
        assert_eq!(Buffer::<f32>::zeroed(16).byte_len(), 16 * 4);
    }

    #[test]
    fn for_extents_matches_len() {
        let e = Extents::new(&[3, 4, 5]);
        let b: Buffer = Buffer::for_extents(&e);
        assert_eq!(b.len(), 60);
    }

    #[test]
    fn index_and_fill() {
        let mut b = Buffer::zeroed(4);
        b[2] = 7.5;
        assert_eq!(b[2], 7.5);
        b.zero_fill();
        assert_eq!(b[2], 0.0);
    }

    #[test]
    fn ensure_len_grows_only() {
        let mut b = Buffer::zeroed(4);
        b[3] = 1.0;
        b.ensure_len(2);
        assert_eq!(b.len(), 4);
        b.ensure_len(8);
        assert_eq!(b.len(), 8);
        assert_eq!(b[3], 1.0);
        assert_eq!(b[7], 0.0);
    }

    #[test]
    fn empty_buffer() {
        let b: Buffer = Buffer::zeroed(0);
        assert!(b.is_empty());
    }
}
