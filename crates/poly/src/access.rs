//! Affine access maps and dependence footprints.
//!
//! Every read a multigrid stage performs has the per-dimension form
//! `in_idx = (num · out_idx + off) / den` with `num, den ∈ {1, 2}`:
//!
//! * plain stencils / pointwise ops: `num = den = 1`, `off` the tap offset,
//! * `Restrict` (downsampling): `num = 2, den = 1`,
//! * `Interp` (upsampling): `num = 1, den = 2`, with the offset chosen per
//!   output-parity case so the division is exact.
//!
//! For region propagation only the *hull* of the taps matters, so a
//! producer↔consumer edge is summarised by an [`AxisFootprint`] per
//! dimension: the scaling plus the minimum/maximum tap offset.

use crate::domain::{Axes, BoxDomain, Pad};
use crate::interval::Interval;
use crate::ratio::Ratio;
use crate::{div_ceil, div_floor};

/// Per-dimension summary of all accesses a consumer makes into a producer:
/// `in ∈ [(num·out + off_min)/den , (num·out + off_max)/den]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AxisFootprint {
    /// Numerator of the index scaling (1 for stencils, 2 for `Restrict`).
    pub num: i64,
    /// Denominator of the index scaling (1 for stencils, 2 for `Interp`).
    pub den: i64,
    /// Minimum tap offset (applied before the division).
    pub off_min: i64,
    /// Maximum tap offset (applied before the division).
    pub off_max: i64,
}

impl AxisFootprint {
    /// Footprint with scaling `num/den` and offsets in `[off_min, off_max]`.
    pub fn new(num: i64, den: i64, off_min: i64, off_max: i64) -> Self {
        assert!(num > 0 && den > 0, "scaling must be positive");
        assert!(off_min <= off_max, "offset range inverted");
        AxisFootprint {
            num,
            den,
            off_min,
            off_max,
        }
    }

    /// Identity access of a single tap at distance 0 (pointwise read).
    pub fn pointwise() -> Self {
        Self::new(1, 1, 0, 0)
    }

    /// Plain stencil access with taps spanning `[-r, r]`.
    pub fn stencil(r: i64) -> Self {
        Self::new(1, 1, -r, r)
    }

    /// The scale factor producer-space / consumer-space as a [`Ratio`].
    ///
    /// A consumer index `x` touches producer indices around `x·num/den`, so
    /// the producer's index space is `num/den` times the consumer's.
    pub fn scale(&self) -> Ratio {
        Ratio::new(self.num, self.den)
    }

    /// The producer interval needed to compute the consumer interval `out`.
    ///
    /// This is the hull of `{ floor((num·x + off)/den) : x ∈ out, off ∈
    /// [off_min, off_max] }`; since the map is monotone in both `x` and
    /// `off`, the endpoints suffice. The result may extend beyond the
    /// producer's domain — the caller clamps against it and treats the excess
    /// as ghost/boundary reads.
    pub fn input_needed(&self, out: &Interval) -> Interval {
        if out.is_empty() {
            return Interval::empty();
        }
        Interval::new(
            div_floor(self.num * out.lo + self.off_min, self.den),
            div_floor(self.num * out.hi + self.off_max, self.den),
        )
    }

    /// The consumer interval whose computation touches producer point `p`
    /// (the transpose of [`Self::input_needed`] for a single point) —
    /// used by dependence-validation tests.
    pub fn consumers_of(&self, p: i64) -> Interval {
        // num·x + off ∈ [den·p, den·p + den - 1] for some off in range
        // ⇒ x ∈ [ceil((den·p - off_max)/num), floor((den·p + den - 1 - off_min)/num)]
        Interval::new(
            div_ceil(self.den * p - self.off_max, self.num),
            div_floor(self.den * p + self.den - 1 - self.off_min, self.num),
        )
    }

    /// Merge with another footprint on the same edge (hull of offsets).
    ///
    /// # Panics
    /// Panics if the scalings differ — a single producer/consumer edge in a
    /// multigrid pipeline always has a single scaling.
    pub fn merge(&self, other: &AxisFootprint) -> AxisFootprint {
        assert!(
            self.num == other.num && self.den == other.den,
            "cannot merge footprints with different scalings"
        );
        AxisFootprint {
            num: self.num,
            den: self.den,
            off_min: self.off_min.min(other.off_min),
            off_max: self.off_max.max(other.off_max),
        }
    }
}

impl Pad for AxisFootprint {
    /// The pointwise read: it maps a padding slot `[0, 0]` to itself.
    const PAD: AxisFootprint = AxisFootprint {
        num: 1,
        den: 1,
        off_min: 0,
        off_max: 0,
    };
}

/// A full multi-dimensional footprint: one [`AxisFootprint`] per dimension,
/// outermost first, in the same fixed-rank [`Axes`] as a [`BoxDomain`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Footprint(pub Axes<AxisFootprint>);

impl Footprint {
    /// Uniform footprint across `ndims` dimensions.
    pub fn uniform(ndims: usize, axis: AxisFootprint) -> Self {
        Footprint(Axes::from_fn(ndims, |_| axis))
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.0.len()
    }

    /// The producer box needed to compute the consumer box `out`
    /// ([`AxisFootprint::input_needed`] per dimension).
    #[inline]
    pub fn input_needed(&self, out: &BoxDomain) -> BoxDomain {
        BoxDomain(self.0.zip_slots(&out.0, |fp, iv| fp.input_needed(&iv)))
    }

    /// Merge two footprints on the same edge.
    pub fn merge(&self, other: &Footprint) -> Footprint {
        Footprint(self.0.zip_slots(&other.0, |a, b| a.merge(&b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_footprint() {
        let f = AxisFootprint::stencil(1);
        assert_eq!(f.input_needed(&Interval::new(1, 10)), Interval::new(0, 11));
        assert_eq!(f.consumers_of(5), Interval::new(4, 6));
    }

    #[test]
    fn pointwise_footprint() {
        let f = AxisFootprint::pointwise();
        assert_eq!(f.input_needed(&Interval::new(3, 7)), Interval::new(3, 7));
        assert_eq!(f.consumers_of(5), Interval::new(5, 5));
    }

    #[test]
    fn restrict_footprint() {
        // restrict reads in(2y + {-1,0,1})
        let f = AxisFootprint::new(2, 1, -1, 1);
        assert_eq!(f.input_needed(&Interval::new(1, 4)), Interval::new(1, 9));
        // producer point 5 is read by outputs y with 2y+off = 5, off∈[-1,1] → y∈{2,3}
        assert_eq!(f.consumers_of(5), Interval::new(2, 3));
        assert_eq!(f.scale(), Ratio::new(2, 1));
    }

    #[test]
    fn interp_footprint() {
        // interp reads in((x + {0,1}) / 2)
        let f = AxisFootprint::new(1, 2, 0, 1);
        assert_eq!(f.input_needed(&Interval::new(2, 9)), Interval::new(1, 5));
        // producer point 3 feeds consumers x with floor((x+off)/2) = 3 for
        // some off ∈ {0,1} → x ∈ [5, 7]
        assert_eq!(f.consumers_of(3), Interval::new(5, 7));
        assert_eq!(f.scale(), Ratio::new(1, 2));
    }

    #[test]
    fn empty_in_empty_out() {
        let f = AxisFootprint::stencil(2);
        assert!(f.input_needed(&Interval::empty()).is_empty());
    }

    #[test]
    fn consumers_inverse_of_needed() {
        // For a variety of footprints, p ∈ input_needed([x,x]) ⇔ x ∈ consumers_of(p).
        let cases = [
            AxisFootprint::stencil(1),
            AxisFootprint::new(2, 1, -1, 1),
            AxisFootprint::new(1, 2, 0, 1),
            AxisFootprint::new(1, 1, -2, 3),
        ];
        for f in cases {
            for x in -8i64..8 {
                let needed = f.input_needed(&Interval::new(x, x));
                for p in -20i64..20 {
                    let forward = needed.contains(p);
                    let backward = f.consumers_of(p).contains(x);
                    assert_eq!(
                        forward, backward,
                        "adjoint mismatch for {f:?} at x={x}, p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_footprints() {
        let a = AxisFootprint::new(1, 1, -1, 0);
        let b = AxisFootprint::new(1, 1, 0, 2);
        let m = a.merge(&b);
        assert_eq!((m.off_min, m.off_max), (-1, 2));
        let fa = Footprint::uniform(2, a);
        let fb = Footprint::uniform(2, b);
        assert_eq!(fa.merge(&fb).0[1], m);
    }

    #[test]
    #[should_panic(expected = "different scalings")]
    fn merge_rejects_scale_mismatch() {
        let a = AxisFootprint::new(2, 1, 0, 0);
        let b = AxisFootprint::new(1, 1, 0, 0);
        let _ = a.merge(&b);
    }
}
