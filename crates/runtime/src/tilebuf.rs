//! Raw-pointer plumbing for tile-parallel writes into shared output arrays.
//!
//! Tiles write disjoint boxes of the same array; slices cannot express that,
//! so writers go through [`SharedOut`], which derives `&mut [T]` segments
//! from a raw pointer, or hands the pointer itself to a writer that checked
//! its whole box against [`SharedOut::len`] first (a kernel sweep, the
//! overlapped copy-out). Soundness rests on the planner's owned-region
//! partition (each output point belongs to exactly one tile — property
//! tested in `gmg-poly::tiling` and re-asserted by the integration suite)
//! and, for diamond execution, on the band-height clamp of
//! `gmg_poly::diamond` that keeps concurrent trapezoids on disjoint rows of
//! each parity buffer.

/// A shared, tile-writable view of one full array of a kernel element type
/// (`f64` unless named; [`crate::kernel::KernelOut`] is generic over it).
#[derive(Clone, Copy)]
pub struct SharedOut<T = f64> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: `ptr` and `len` describe a slice its creator borrowed exclusively;
// other threads only reach the elements through the `unsafe` segment
// methods, whose callers guarantee disjoint concurrent segments. Writing or
// dropping `T` there needs `T: Send`; sharing reads needs `T: Sync`.
unsafe impl<T: Send> Send for SharedOut<T> {}
unsafe impl<T: Send + Sync> Sync for SharedOut<T> {}

impl<T> SharedOut<T> {
    /// Wrap an exclusive slice. The caller promises that concurrent
    /// writers touch disjoint index ranges.
    pub fn new(data: &mut [T]) -> Self {
        SharedOut {
            ptr: data.as_mut_ptr(),
            len: data.len(),
        }
    }

    /// Length of the underlying array.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The array's first element. Writing through it has the contract of
    /// [`Self::segment`], and the writer checks the bounds itself.
    pub fn as_ptr(&self) -> *mut T {
        self.ptr
    }

    /// A mutable row segment `[off, off+w)`; panics, in release builds
    /// too, unless it lies inside the array.
    ///
    /// # Safety
    /// No other live reference (read or write) may overlap the segment,
    /// and the returned borrow must not outlive the array the
    /// `SharedOut` was built from (the lifetime is unconstrained by
    /// construction from a raw pointer).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn segment<'s>(&self, off: usize, w: usize) -> &'s mut [T] {
        assert!(off + w <= self.len, "segment leaves the shared array");
        std::slice::from_raw_parts_mut(self.ptr.add(off), w)
    }

    /// A shared segment `[off, off+w)`; panics, in release builds too,
    /// unless it lies inside the array.
    ///
    /// # Safety
    /// No concurrent writer may overlap the segment; same lifetime
    /// caveat as [`Self::segment`].
    pub unsafe fn read_segment<'s>(&self, off: usize, w: usize) -> &'s [T] {
        assert!(off + w <= self.len, "segment leaves the shared array");
        std::slice::from_raw_parts(self.ptr.add(off), w)
    }
}
