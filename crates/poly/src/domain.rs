//! Box domains — products of integer intervals.
//!
//! A stage's iteration domain is always a box: the interior points of its
//! grid, `[1, N_l]` per dimension for level-`l` problem size `N_l`. Tile
//! regions, scratchpad extents and owned regions are boxes too.
//!
//! [`BoxDomain`] is the rank-generic form the public APIs take. [`Box3`] is
//! the fixed-array form the region-propagation core and the compiler's tile
//! plans work on: no allocation per box, and its set operations below are
//! [`BoxDomain`]'s, axis for axis.

use crate::interval::Interval;

/// A box of rank ≤ 3 as a fixed array, right-aligned: a 2-D box occupies
/// axes `1..3`. Every unused leading axis holds the single point `[0, 0]`,
/// which leaves point counts, emptiness, hulls and intersections unchanged.
pub type Box3 = [Interval; 3];

/// The unused leading axes of a [`Box3`].
const PAD: Interval = Interval { lo: 0, hi: 0 };

/// A rectangular integer domain, outermost dimension first.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BoxDomain(pub Vec<Interval>);

impl BoxDomain {
    /// Build from per-dimension intervals (outermost first).
    pub fn new(dims: Vec<Interval>) -> Self {
        BoxDomain(dims)
    }

    /// The interior domain `[1, n]^ndims` of a grid with 1-deep ghost ring.
    pub fn interior(ndims: usize, n: i64) -> Self {
        BoxDomain(vec![Interval::new(1, n); ndims])
    }

    /// An empty domain of the given rank.
    pub fn empty(ndims: usize) -> Self {
        BoxDomain(vec![Interval::empty(); ndims])
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.0.len()
    }

    /// True when any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.0.iter().any(Interval::is_empty)
    }

    /// Number of integer points.
    pub fn len(&self) -> i64 {
        if self.is_empty() {
            0
        } else {
            self.0.iter().map(Interval::len).product()
        }
    }

    /// Per-dimension intersection.
    pub fn intersect(&self, other: &BoxDomain) -> BoxDomain {
        assert_eq!(self.ndims(), other.ndims(), "rank mismatch");
        BoxDomain(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| a.intersect(b))
                .collect(),
        )
    }

    /// Per-dimension convex hull.
    pub fn hull(&self, other: &BoxDomain) -> BoxDomain {
        assert_eq!(self.ndims(), other.ndims(), "rank mismatch");
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        BoxDomain(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| a.hull(b))
                .collect(),
        )
    }

    /// Grow every dimension by `r` on both sides.
    pub fn dilate(&self, r: i64) -> BoxDomain {
        BoxDomain(self.0.iter().map(|i| i.dilate(r)).collect())
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

    /// Per-dimension extents (0 for empty dims).
    pub fn extents(&self) -> Vec<i64> {
        self.0.iter().map(Interval::len).collect()
    }

    /// This box as a right-aligned [`Box3`].
    ///
    /// # Panics
    /// Panics when the rank exceeds 3.
    pub fn to_box3(&self) -> Box3 {
        assert!(self.ndims() <= 3, "rank {} exceeds 3", self.ndims());
        let mut out = [PAD; 3];
        out[3 - self.ndims()..].copy_from_slice(&self.0);
        out
    }

    /// The rank-`ndims` box held by the trailing axes of `b`.
    pub fn from_box3(b: &Box3, ndims: usize) -> BoxDomain {
        BoxDomain(b[3 - ndims..].to_vec())
    }
}

/// [`BoxDomain::is_empty`] of a [`Box3`].
pub(crate) fn box3_is_empty(b: &Box3) -> bool {
    b.iter().any(Interval::is_empty)
}

/// [`BoxDomain::len`] of a [`Box3`].
pub(crate) fn box3_len(b: &Box3) -> i64 {
    if box3_is_empty(b) {
        0
    } else {
        b.iter().map(Interval::len).product()
    }
}

/// [`BoxDomain::intersect`] of two [`Box3`]s.
pub(crate) fn box3_intersect(a: &Box3, b: &Box3) -> Box3 {
    std::array::from_fn(|d| a[d].intersect(&b[d]))
}

/// [`BoxDomain::hull`] of two [`Box3`]s.
pub(crate) fn box3_hull(a: &Box3, b: &Box3) -> Box3 {
    if box3_is_empty(a) {
        *b
    } else if box3_is_empty(b) {
        *a
    } else {
        std::array::from_fn(|d| a[d].hull(&b[d]))
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
        assert_eq!(d.extents(), vec![4, 10]);
    }

    #[test]
    fn box3_round_trip_and_padding() {
        let d = BoxDomain::new(vec![Interval::new(2, 5), Interval::new(-1, 3)]);
        let b = d.to_box3();
        assert_eq!(b[0], Interval::new(0, 0));
        assert_eq!(BoxDomain::from_box3(&b, 2), d);
        assert_eq!(box3_len(&b), d.len());
        let e = BoxDomain::empty(2).to_box3();
        assert!(box3_is_empty(&e));
        assert_eq!(box3_len(&e), 0);
        assert_eq!(box3_hull(&e, &b), b);
        assert_eq!(
            BoxDomain::from_box3(&box3_intersect(&b, &e), 2),
            d.intersect(&BoxDomain::empty(2))
        );
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn rank_mismatch_panics() {
        let a = BoxDomain::interior(2, 4);
        let b = BoxDomain::interior(3, 4);
        let _ = a.intersect(&b);
    }
}
