//! Box domains — products of integer intervals — and the fixed-rank axis
//! storage they share with dependence footprints.
//!
//! A stage's iteration domain is always a box: the interior points of its
//! grid, `[1, N_l]` per dimension for level-`l` problem size `N_l`. Tile
//! regions, scratchpad extents and owned regions are boxes too.
//!
//! No rank exceeds 3, so a [`BoxDomain`] keeps its intervals in [`Axes`]:
//! three slots, right-aligned (a 2-D box occupies slots `1..3`), each unused
//! leading slot holding the single point `[0, 0]`. A box is `Copy`; no
//! constructor or set operation allocates. Region propagation, the tile
//! walk, the compiler's tile plans and the runtime all work on this one form,
//! and read the padded slots ([`Axes::slots`]) where a loop wants all three.

use crate::interval::Interval;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// A per-axis value with a neutral filler for the unused leading slots of
/// an [`Axes`].
pub trait Pad: Copy {
    const PAD: Self;
}

impl Pad for Interval {
    /// The single point `[0, 0]`: it leaves point counts, emptiness, hulls
    /// and intersections of a box unchanged.
    const PAD: Interval = Interval { lo: 0, hi: 0 };
}

/// One value per axis of a rank-1..=3 object, outermost first, stored
/// right-aligned in three slots: axis `d` in slot `3 - rank + d`, every
/// leading slot [`Pad::PAD`].
///
/// It dereferences to the rank's axes (so `len()` is the rank); equality,
/// hashing and `Debug` are those of the axes, exactly as for a `Vec` of them.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Axes<T> {
    rank: usize,
    slots: [T; 3],
}

impl<T: Pad> Axes<T> {
    /// Axis `d` is `f(d)`, for `d` in `0..rank`, outermost first.
    ///
    /// # Panics
    /// Panics unless `1 <= rank <= 3`.
    pub fn from_fn(rank: usize, mut f: impl FnMut(usize) -> T) -> Self {
        assert!((1..=3).contains(&rank), "rank {rank} outside 1..=3");
        let lead = 3 - rank;
        Axes {
            rank,
            slots: std::array::from_fn(|s| if s < lead { T::PAD } else { f(s - lead) }),
        }
    }

    /// `f` of the two values in each of the three slots, paddings included
    /// — for an `f` that maps two paddings to a padding (intersections,
    /// hulls, footprints), the hot paths of region propagation, with no
    /// per-slot rank test.
    ///
    /// # Panics
    /// Panics when the ranks differ.
    #[inline]
    pub(crate) fn zip_slots<U: Pad, V: Pad>(
        &self,
        other: &Axes<U>,
        f: impl Fn(T, U) -> V,
    ) -> Axes<V> {
        assert!(self.rank == other.rank, "rank mismatch");
        let ([a0, a1, a2], [b0, b1, b2]) = (self.slots, other.slots);
        Axes {
            rank: self.rank,
            slots: [f(a0, b0), f(a1, b1), f(a2, b2)],
        }
    }
}

impl<T> Axes<T> {
    /// All three slots, the unused leading ones holding [`Pad::PAD`].
    #[inline]
    pub fn slots(&self) -> &[T; 3] {
        &self.slots
    }

    /// All three slots, mutably: the caller keeps [`Pad::PAD`] in the
    /// unused leading ones.
    #[inline]
    pub(crate) fn slots_mut(&mut self) -> &mut [T; 3] {
        &mut self.slots
    }
}

impl<T> Deref for Axes<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        &self.slots[3 - self.rank..]
    }
}

impl<T> DerefMut for Axes<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.slots[3 - self.rank..]
    }
}

impl<'a, T> IntoIterator for &'a Axes<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Hash> Hash for Axes<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl<T: fmt::Debug> fmt::Debug for Axes<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A rectangular integer domain of rank 1..=3, outermost dimension first.
///
/// Its `Debug` text lists the rank's intervals only
/// (`BoxDomain([Interval { lo: 1, hi: 8 }, …])`): pipeline fingerprints
/// hash it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BoxDomain(pub Axes<Interval>);

impl BoxDomain {
    /// Build from per-dimension intervals (outermost first), taking the
    /// caller's `Vec`; [`Axes::from_fn`] builds a box without one.
    pub fn new(dims: Vec<Interval>) -> Self {
        BoxDomain(Axes::from_fn(dims.len(), |d| dims[d]))
    }

    /// The interior domain `[1, n]^ndims` of a grid with 1-deep ghost ring.
    pub fn interior(ndims: usize, n: i64) -> Self {
        BoxDomain(Axes::from_fn(ndims, |_| Interval::new(1, n)))
    }

    /// An empty domain of the given rank.
    pub fn empty(ndims: usize) -> Self {
        BoxDomain(Axes::from_fn(ndims, |_| Interval::empty()))
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.0.rank
    }

    /// True when any dimension is empty (a padding slot never is).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.slots().iter().any(Interval::is_empty)
    }

    /// Number of integer points (a padding slot counts one).
    #[inline]
    pub fn len(&self) -> i64 {
        if self.is_empty() {
            0
        } else {
            self.0.slots().iter().map(Interval::len).product()
        }
    }

    /// Per-dimension intersection.
    #[inline]
    pub fn intersect(&self, other: &BoxDomain) -> BoxDomain {
        BoxDomain(self.0.zip_slots(&other.0, |a, b| a.intersect(&b)))
    }

    /// Per-dimension convex hull.
    #[inline]
    pub fn hull(&self, other: &BoxDomain) -> BoxDomain {
        assert!(self.ndims() == other.ndims(), "rank mismatch");
        if self.is_empty() {
            *other
        } else if other.is_empty() {
            *self
        } else {
            BoxDomain(self.0.zip_slots(&other.0, |a, b| a.hull(&b)))
        }
    }

    /// Grow every dimension by `r` on both sides.
    pub fn dilate(&self, r: i64) -> BoxDomain {
        BoxDomain(Axes::from_fn(self.ndims(), |d| self.0[d].dilate(r)))
    }

    /// True when `other` lies entirely inside `self`.
    pub fn contains(&self, other: &BoxDomain) -> bool {
        assert_eq!(self.ndims(), other.ndims(), "rank mismatch");
        other.is_empty()
            || self
                .0
                .iter()
                .zip(&other.0)
                .all(|(a, b)| a.contains_interval(b))
    }

    /// Point membership (point given outermost-first).
    pub fn contains_point(&self, p: &[i64]) -> bool {
        assert_eq!(self.ndims(), p.len(), "rank mismatch");
        self.0.iter().zip(p).all(|(i, &x)| i.contains(x))
    }

    /// True when the boxes share at least one point.
    pub fn overlaps(&self, other: &BoxDomain) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Per-dimension extents (0 for empty dims), outermost first.
    pub fn extents(&self) -> impl Iterator<Item = i64> + '_ {
        self.0.iter().map(Interval::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_domain() {
        let d = BoxDomain::interior(2, 8);
        assert_eq!(d.ndims(), 2);
        assert_eq!(d.len(), 64);
        assert!(d.contains_point(&[1, 8]));
        assert!(!d.contains_point(&[0, 8]));
        assert!(!d.contains_point(&[1, 9]));
    }

    #[test]
    fn set_ops() {
        let a = BoxDomain::new(vec![Interval::new(0, 5), Interval::new(0, 5)]);
        let b = BoxDomain::new(vec![Interval::new(3, 8), Interval::new(2, 4)]);
        let i = a.intersect(&b);
        assert_eq!(i.0[0], Interval::new(3, 5));
        assert_eq!(i.0[1], Interval::new(2, 4));
        let h = a.hull(&b);
        assert_eq!(h.0[0], Interval::new(0, 8));
        assert!(a.overlaps(&b));
        assert!(a.contains(&i));
        assert!(!b.contains(&a));
    }

    #[test]
    fn empty_behaviour() {
        let e = BoxDomain::empty(3);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let d = BoxDomain::interior(3, 4);
        assert!(d.contains(&e));
        assert_eq!(d.hull(&e), d);
        assert!(!d.overlaps(&e));
        // one empty dim makes the whole box empty
        let partial = BoxDomain::new(vec![Interval::new(1, 3), Interval::empty()]);
        assert!(partial.is_empty());
        assert_eq!(partial.len(), 0);
    }

    #[test]
    fn dilate_grows() {
        let d = BoxDomain::interior(2, 4).dilate(1);
        assert_eq!(d.0[0], Interval::new(0, 5));
        assert_eq!(d.len(), 36);
    }

    #[test]
    fn extents() {
        let d = BoxDomain::new(vec![Interval::new(1, 4), Interval::new(0, 9)]);
        assert_eq!(d.extents().collect::<Vec<_>>(), vec![4, 10]);
    }

    #[test]
    fn axes_are_right_aligned_and_padded() {
        let d = BoxDomain::new(vec![Interval::new(2, 5), Interval::new(-1, 3)]);
        assert_eq!(
            d.0.slots(),
            &[
                Interval::new(0, 0),
                Interval::new(2, 5),
                Interval::new(-1, 3)
            ]
        );
        assert_eq!(d.0[0], Interval::new(2, 5));
        assert_eq!(d.dilate(1).0.slots()[0], Interval::new(0, 0));
        assert_eq!(d.intersect(&BoxDomain::empty(2)), BoxDomain::empty(2));
    }

    /// `Debug` (which pipeline fingerprints hash) and `Hash` are those of
    /// the `Vec`-backed box this one replaced.
    #[test]
    fn debug_and_hash_are_the_vec_boxes() {
        use std::collections::hash_map::DefaultHasher;
        mod vec_backed {
            #[derive(Debug, Hash)]
            pub struct BoxDomain(pub Vec<crate::interval::Interval>);
        }
        fn hash(h: impl Hash) -> u64 {
            let mut s = DefaultHasher::new();
            h.hash(&mut s);
            s.finish()
        }
        for dims in [
            vec![Interval::new(1, 8)],
            vec![Interval::new(1, 8), Interval::empty()],
            vec![
                Interval::new(-1, 3),
                Interval::new(2, 5),
                Interval::new(0, 0),
            ],
        ] {
            let (d, v) = (BoxDomain::new(dims.clone()), vec_backed::BoxDomain(dims));
            assert_eq!(format!("{d:?}"), format!("{v:?}"));
            assert_eq!(format!("{d:#?}"), format!("{v:#?}"));
            assert_eq!(hash(d), hash(v));
        }
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn rank_mismatch_panics() {
        let a = BoxDomain::interior(2, 4);
        let b = BoxDomain::interior(3, 4);
        let _ = a.intersect(&b);
    }
}
