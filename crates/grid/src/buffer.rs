//! Flat buffers backing grids and scratchpads: `f64`, or `f32` for the
//! mixed-precision smoother chain's scratch.
//!
//! A [`Buffer`] is deliberately minimal: a zero-initialised `Vec<T>` that
//! knows its byte size. The pooled allocator in `gmg-runtime` hands these out
//! and recycles them as they are (it never grows or re-zeroes one).

/// A flat, heap-allocated buffer of `T` (`f64` unless named).
///
/// Buffers are zero-initialised on creation (matching `calloc` semantics of
/// the generated C code in the paper, and giving deterministic ghost zones):
/// every element starts as `T::default()`, which is `0.0` for the float types.
#[derive(Debug)]
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
    fn index_and_fill() {
        let mut b = Buffer::zeroed(4);
        b.as_mut_slice()[2] = 7.5;
        assert_eq!(b.as_slice(), [0.0, 0.0, 7.5, 0.0]);
    }

    #[test]
    fn empty_buffer() {
        let b: Buffer = Buffer::zeroed(0);
        assert!(b.is_empty());
    }
}
