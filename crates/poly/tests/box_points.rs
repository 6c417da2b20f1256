//! Point-set oracle for [`BoxDomain`]: on small random boxes of ranks 1–3,
//! empty ones among them, every set operation equals the same operation on
//! the boxes' enumerated point sets.

use gmg_poly::{BoxDomain, Interval};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Every box below, dilated by at most [`MAX_DILATE`], lies in
/// `[WINDOW_LO, WINDOW_HI]` on each axis.
const WINDOW_LO: i64 = -6;
const WINDOW_HI: i64 = 9;
const MAX_DILATE: i64 = 2;

type Points = BTreeSet<Vec<i64>>;

/// splitmix64 step.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random box of rank `ndims`: per axis `lo ∈ [-2, 2]` and one to five
/// points, or (two axes in seven) empty, canonically or as `hi = lo - 1`.
fn random_box(ndims: usize, st: &mut u64) -> BoxDomain {
    let axes = (0..ndims)
        .map(|_| {
            let lo = (mix(st) % 5) as i64 - 2;
            match mix(st) % 7 {
                0 => Interval::empty(),
                k => Interval::new(lo, lo + k as i64 - 2),
            }
        })
        .collect();
    BoxDomain::new(axes)
}

/// Every point of the window of rank `ndims`, outermost axis first.
fn window(ndims: usize) -> Vec<Vec<i64>> {
    let mut points = vec![vec![]];
    for _ in 0..ndims {
        points = points
            .into_iter()
            .flat_map(|p| {
                (WINDOW_LO..=WINDOW_HI).map(move |x| {
                    let mut q = p.clone();
                    q.push(x);
                    q
                })
            })
            .collect();
    }
    points
}

/// The points of `b`, by brute-force membership over the window.
fn points(b: &BoxDomain) -> Points {
    window(b.ndims())
        .into_iter()
        .filter(|p| {
            (0..b.ndims()).all(|d| {
                let iv = b.0[d];
                iv.lo <= p[d] && p[d] <= iv.hi
            })
        })
        .collect()
}

/// The points within Chebyshev distance `r` of some point of `set`.
fn dilated(set: &Points, r: i64) -> Points {
    let mut out = Points::new();
    for p in set {
        let mut near = vec![vec![]];
        for &x in p {
            near = near
                .into_iter()
                .flat_map(|q: Vec<i64>| {
                    (x - r..=x + r).map(move |y| {
                        let mut q = q.clone();
                        q.push(y);
                        q
                    })
                })
                .collect();
        }
        out.extend(near);
    }
    out
}

/// The points of the smallest box holding every point of `set`.
fn bounding_box(set: &Points, ndims: usize) -> Points {
    if set.is_empty() {
        return Points::new();
    }
    let lo: Vec<i64> = (0..ndims)
        .map(|d| set.iter().map(|p| p[d]).min().unwrap())
        .collect();
    let hi: Vec<i64> = (0..ndims)
        .map(|d| set.iter().map(|p| p[d]).max().unwrap())
        .collect();
    window(ndims)
        .into_iter()
        .filter(|p| (0..ndims).all(|d| lo[d] <= p[d] && p[d] <= hi[d]))
        .collect()
}

/// Premise of `box_ops_match_point_sets`: the random boxes include empty
/// ones and disjoint, overlapping and nested pairs in every rank.
#[test]
fn random_boxes_reach_every_relation() {
    for ndims in 1..=3 {
        let (mut empty, mut disjoint, mut overlapping, mut nested) = (0, 0, 0, 0);
        for seed in 0..512u64 {
            let mut st = seed;
            let (a, b) = (random_box(ndims, &mut st), random_box(ndims, &mut st));
            let (pa, pb) = (points(&a), points(&b));
            empty += pa.is_empty() as usize;
            if !pa.is_empty() && !pb.is_empty() {
                let shared = pa.intersection(&pb).count();
                disjoint += (shared == 0) as usize;
                overlapping += (shared > 0) as usize;
                nested += (shared == pb.len()) as usize;
            }
        }
        assert!(
            empty > 0 && disjoint > 0 && overlapping > 0 && nested > 0,
            "{ndims}-D: empty {empty}, disjoint {disjoint}, overlapping {overlapping}, nested {nested}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `len`, `is_empty`, `intersect`, `hull`, `contains`,
    /// `contains_point`, `overlaps` and `dilate` equal their point-set
    /// definitions; `hull` is the smallest box holding both inputs.
    #[test]
    fn box_ops_match_point_sets(ndims in 1usize..4, seed in 0u64..u64::MAX, r in 0i64..MAX_DILATE + 1) {
        let mut st = seed;
        let (a, b) = (random_box(ndims, &mut st), random_box(ndims, &mut st));
        let (pa, pb) = (points(&a), points(&b));
        prop_assert_eq!(a.ndims(), ndims);
        prop_assert_eq!(a.len(), pa.len() as i64);
        prop_assert_eq!(a.is_empty(), pa.is_empty());

        let meet = a.intersect(&b);
        let both: Points = pa.intersection(&pb).cloned().collect();
        prop_assert_eq!(meet.ndims(), ndims);
        prop_assert!(points(&meet) == both, "intersect of {:?} and {:?}", a, b);
        prop_assert_eq!(meet.len(), both.len() as i64);
        prop_assert_eq!(a.overlaps(&b), !both.is_empty());

        let hull = a.hull(&b);
        let either: Points = pa.union(&pb).cloned().collect();
        prop_assert_eq!(hull.ndims(), ndims);
        prop_assert!(
            points(&hull) == bounding_box(&either, ndims),
            "hull of {:?} and {:?} is {:?}", a, b, hull
        );

        prop_assert_eq!(a.contains(&b), pb.is_subset(&pa));
        prop_assert_eq!(b.contains(&a), pa.is_subset(&pb));
        for p in window(ndims).iter().step_by(7) {
            prop_assert_eq!(a.contains_point(p), pa.contains(p));
        }

        let grown = a.dilate(r);
        prop_assert_eq!(grown.ndims(), ndims);
        prop_assert!(points(&grown) == dilated(&pa, r), "{:?} dilated by {}", a, r);
    }
}
