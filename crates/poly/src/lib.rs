//! # gmg-poly — polyhedral-lite engine
//!
//! The SC'17 paper builds PolyMG on top of ISL [Verdoolaege 2010] for
//! representing iteration domains, dependences and schedules, and for
//! generating loop ASTs. Rust bindings for ISL are thin and the full
//! Presburger machinery is not actually exercised by multigrid pipelines:
//! every domain is a (possibly parametric) rectangular box, every dependence
//! is a constant-distance stencil access optionally composed with a scaling
//! by two (`Restrict`/`Interp`), and every tile is a box in the reference
//! space. This crate therefore implements exactly that fragment from scratch:
//!
//! * [`interval`] — inclusive integer intervals with floor/ceil division,
//! * [`ratio`] — reduced rationals used for inter-level scale relations,
//! * [`access`] — per-dimension affine access maps `x ↦ (num·x + off) / den`
//!   and dependence footprints (offset ranges),
//! * [`domain`] — box domains (products of intervals) of rank 1–3, stored
//!   right-aligned in three padded axes ([`Axes`]) and `Copy`,
//! * [`region`] — backward region propagation through a group's DAG, which
//!   yields the hyper-trapezoidal overlapped tile shapes of Section 3.1; one
//!   core that reuses its buffers from tile to tile,
//! * [`tiling`] — tile partitions of a reference domain, owned-region
//!   scaling across levels, the one tile walk that derives every tile's
//!   per-stage regions (read by the compiler's tile plans), and the
//!   redundant-computation statistics the grouping heuristic takes from it,
//! * [`diamond`] — concurrent-start split/diamond schedules for
//!   time-iterated stencils (the libPluto substitute used by
//!   `polymg-dtile-opt+` and `handopt+pluto`).
//!
//! Everything in this crate is pure integer math with no allocation in hot
//! paths; the runtime consumes the structures produced here.

pub mod access;
pub mod diamond;
pub mod domain;
pub mod interval;
pub mod ratio;
pub mod region;
pub mod tiling;

pub use access::{AxisFootprint, Footprint};
pub use domain::{Axes, BoxDomain, Pad};
pub use interval::Interval;
pub use ratio::Ratio;

/// Floor division on i64 (rounds toward negative infinity). A power-of-two
/// divisor, as every scale and footprint of a multigrid pipeline has, is an
/// arithmetic shift instead of a division.
#[inline]
pub fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0, "div_floor requires positive divisor");
    if b > 0 && b & (b - 1) == 0 {
        return a >> b.trailing_zeros();
    }
    let q = a / b;
    if a % b < 0 {
        q - 1
    } else {
        q
    }
}

/// Ceiling division on i64 (rounds toward positive infinity), a shift for a
/// power-of-two divisor as in [`div_floor`].
#[inline]
pub fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0, "div_ceil requires positive divisor");
    if b > 0 && b & (b - 1) == 0 {
        return (a >> b.trailing_zeros()) + (a & (b - 1) != 0) as i64;
    }
    let q = a / b;
    if a % b > 0 {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_ceil_div() {
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_floor(-8, 2), -4);
        assert_eq!(div_ceil(7, 2), 4);
        assert_eq!(div_ceil(-7, 2), -3);
        assert_eq!(div_ceil(8, 2), 4);
        assert_eq!(div_floor(0, 5), 0);
        assert_eq!(div_ceil(0, 5), 0);
    }
}
