//! Fast-math tier differential fuzzing: the reassociating SIMD kernels
//! (`KernelTier::FastMath`) trade the generic accumulation order for two
//! partial sums over tap pairs (plus FMA contraction where the host has
//! it), so bitwise equality is off the table *by design*. What still holds
//! is a classical rounding-error bound: for a sum of `n` terms, any
//! accumulation order lands within `O(n·ε)·Σ|termⱼ|` of any other, where
//! the magnitude Σ|cⱼ·rⱼ| + |bias| is the condition-number scale of the
//! dot product. A plain ULP-of-the-result bound would be wrong here —
//! cancellation can make the result arbitrarily smaller than the terms
//! that produced it — so the tolerance is scaled per point by that
//! magnitude, computed through the same kernel machinery with every
//! coefficient, input, and boundary replaced by its absolute value.
//!
//! Each case runs the scalar-specialized tier and the fast-math tier
//! (unblocked and with a deliberately tiny cache block so the blocked
//! nests fire at test extents) over randomized shapes and asserts the
//! per-point difference stays under the magnitude-scaled bound.

use gmg_ir::expr::Access;
use gmg_ir::{LinearForm, ParityPattern, Tap};
use gmg_poly::{BoxDomain, Interval};
use gmg_runtime::kernel::{execute_stage_sel, KernelInput, Space, SpaceMut};
use polymg::specialize::classify;
use polymg::{KernelBody, KernelCase, KernelImpl, KernelSel, KernelTier, StageKernel};
use proptest::prelude::*;

/// The kernel with every coefficient and bias replaced by its absolute
/// value: run on |input| with |boundary| it computes Σ|cⱼ·rⱼ| + |bias| per
/// point — the magnitude scale of the tolerance.
fn abs_twin(k: &StageKernel) -> StageKernel {
    StageKernel {
        cases: k
            .cases
            .iter()
            .map(|case| {
                let form = match &case.body {
                    KernelBody::Linear(f) => f,
                    KernelBody::Interpreted(_) => panic!("abs twin of an interpreted case"),
                };
                KernelCase {
                    pattern: case.pattern.clone(),
                    body: KernelBody::Linear(LinearForm {
                        bias: form.bias.abs(),
                        taps: form
                            .taps
                            .iter()
                            .map(|t| Tap {
                                slot: t.slot,
                                access: t.access.clone(),
                                coeff: t.coeff.abs(),
                                cfactor: None,
                            })
                            .collect(),
                    }),
                }
            })
            .collect(),
    }
}

/// Deterministic pseudo-random fill (same generator as the bitwise suite).
fn fill(seed: u64, data: &mut [f64]) {
    for (i, v) in data.iter_mut().enumerate() {
        let h = polymg::splitmix64(seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15));
        *v = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
}

/// Run one `(tier, xblock)` selection of `kernel` over `region` into a
/// fresh buffer.
#[allow(clippy::too_many_arguments)]
fn run_sel(
    sel: KernelSel,
    kernel: &StageKernel,
    region: &BoxDomain,
    input: &[f64],
    in_origin: &[i64],
    in_extents: &[i64],
    out_origin: &[i64],
    out_extents: &[i64],
    boundary: f64,
) -> Vec<f64> {
    let out_len = out_extents.iter().product::<i64>() as usize;
    let mut buf = vec![0.0; out_len];
    let mut out = SpaceMut {
        data: &mut buf,
        origin: out_origin,
        extents: out_extents,
    };
    let ins = [KernelInput::Grid(Space {
        data: input,
        origin: in_origin,
        extents: in_extents,
    })];
    execute_stage_sel(sel, kernel, region, &mut out, &ins, &[boundary]);
    buf
}

/// Run the scalar tier and the fast-math tier (xblock ∈ {0, tiny}) and
/// assert every point differs by at most `(2n+6)·ε` of the per-point term
/// magnitude — the reassociation slack of an `n`-term dot product, with
/// headroom for the magnitude pass's own rounding.
#[allow(clippy::too_many_arguments)]
fn assert_fastmath_within_bound(
    kernel: &StageKernel,
    expect: KernelImpl,
    ndims: usize,
    region: &BoxDomain,
    in_origin: &[i64],
    in_extents: &[i64],
    out_origin: &[i64],
    out_extents: &[i64],
    boundary: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let tag = classify(kernel, ndims);
    prop_assert_eq!(tag, expect, "classifier missed the shape");

    let in_len = in_extents.iter().product::<i64>() as usize;
    let mut input = vec![0.0; in_len];
    fill(seed, &mut input);
    let abs_input: Vec<f64> = input.iter().map(|x| x.abs()).collect();

    let run = |sel: KernelSel, k: &StageKernel, inp: &[f64], bnd: f64| {
        run_sel(
            sel, k, region, inp, in_origin, in_extents, out_origin, out_extents, bnd,
        )
    };

    let scalar = run(KernelSel::scalar(tag), kernel, &input, boundary);
    let mag = run(
        KernelSel::scalar(tag),
        &abs_twin(kernel),
        &abs_input,
        boundary.abs(),
    );

    let ntaps = kernel
        .cases
        .iter()
        .map(|c| match &c.body {
            KernelBody::Linear(f) => f.taps.len(),
            KernelBody::Interpreted(_) => 0,
        })
        .max()
        .unwrap_or(0) as f64;
    let tol_scale = (2.0 * ntaps + 6.0) * f64::EPSILON;

    for xblock in [0usize, 4] {
        let sel = KernelSel {
            impl_tag: tag,
            tier: KernelTier::FastMath,
            xblock,
        };
        let fast = run(sel, kernel, &input, boundary);
        for (i, ((a, b), m)) in fast.iter().zip(&scalar).zip(&mag).enumerate() {
            let tol = tol_scale * m;
            prop_assert!(
                (a - b).abs() <= tol,
                "{:?} fast-math (xblock {}) drifted past the reassociation bound at flat \
                 index {}: |{} - {}| = {:e} > {:e} (magnitude {:e})",
                tag,
                xblock,
                i,
                a,
                b,
                (a - b).abs(),
                tol,
                m
            );
        }
    }
    Ok(())
}

fn unit_tap(offs: &[i64], coeff: f64) -> Tap {
    Tap {
        slot: 0,
        access: Access::offsets(offs),
        coeff,
        cfactor: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 2-D unit-stride stencils: cross (≤5-point) and box (≤9-point).
    #[test]
    fn fastmath_2d_within_ulp_bound(
        e in 6i64..14,
        g in 1i64..3,
        boxy in proptest::bool::ANY,
        coeffs in proptest::collection::vec(-1.0f64..1.0, 9),
        bias in -1.0f64..1.0,
        boundary in -1.0f64..1.0,
        margin in 0i64..2,
        seed in 0u64..1_000_000,
    ) {
        let offsets: &[[i64; 2]] = if boxy {
            &[[0, 0], [0, 1], [0, -1], [1, 0], [-1, 0], [1, 1], [1, -1], [-1, 1], [-1, -1]]
        } else {
            &[[0, 0], [0, 1], [0, -1], [1, 0], [-1, 0]]
        };
        let taps: Vec<Tap> = offsets
            .iter()
            .zip(&coeffs)
            .map(|(o, &c)| unit_tap(o, c))
            .collect();
        let kernel = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(2),
                body: KernelBody::Linear(LinearForm { bias, taps }),
            }],
        };
        let region = BoxDomain::new(vec![
            Interval::new(g, e - 1 - g),
            Interval::new(g, e - 1 - g),
        ]);
        let oo = [g - margin.min(g), g - margin.min(g)];
        let oext = [e - 1 - g - oo[0] + 1, e - 1 - g - oo[1] + 1];
        let expect = if boxy { KernelImpl::Stencil2D9 } else { KernelImpl::Stencil2D5 };
        assert_fastmath_within_bound(
            &kernel, expect, 2, &region,
            &[0, 0], &[e, e], &oo, &oext, boundary, seed,
        )?;
    }

    /// 3-D unit-stride stencils: cross (≤7-point) and box (27-point) — the
    /// 27-term sum is where reassociation slack is widest.
    #[test]
    fn fastmath_3d_within_ulp_bound(
        e in 5i64..9,
        boxy in proptest::bool::ANY,
        coeffs in proptest::collection::vec(-1.0f64..1.0, 27),
        bias in -1.0f64..1.0,
        boundary in -1.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let mut offsets: Vec<[i64; 3]> = Vec::new();
        if boxy {
            for z in -1i64..=1 {
                for y in -1i64..=1 {
                    for x in -1i64..=1 {
                        offsets.push([z, y, x]);
                    }
                }
            }
        } else {
            offsets.extend([
                [0, 0, 0], [0, 0, 1], [0, 0, -1], [0, 1, 0], [0, -1, 0], [1, 0, 0], [-1, 0, 0],
            ]);
        }
        let taps: Vec<Tap> = offsets
            .iter()
            .zip(&coeffs)
            .map(|(o, &c)| unit_tap(o, c))
            .collect();
        let kernel = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(3),
                body: KernelBody::Linear(LinearForm { bias, taps }),
            }],
        };
        let region = BoxDomain::interior(3, e - 2);
        let expect = if boxy { KernelImpl::Stencil3D27 } else { KernelImpl::Stencil3D7 };
        assert_fastmath_within_bound(
            &kernel, expect, 3, &region,
            &[0, 0, 0], &[e, e, e], &[0, 0, 0], &[e, e, e], boundary, seed,
        )?;
    }

    /// Adversarially cancelling 2-D stencils: paired ±c coefficients make
    /// the true result near zero while the term magnitude stays O(1) —
    /// exactly the case where a result-relative ULP bound would be
    /// vacuous-or-wrong and the magnitude-scaled bound must still hold.
    #[test]
    fn fastmath_cancellation_within_ulp_bound(
        e in 6i64..12,
        c in 0.5f64..1.0,
        boundary in -1.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let offsets: [[i64; 2]; 9] = [
            [0, 0], [0, 1], [0, -1], [1, 0], [-1, 0], [1, 1], [1, -1], [-1, 1], [-1, -1],
        ];
        // center 0, four +c, four -c: smooth inputs cancel almost exactly
        let coeffs = [0.0, c, -c, c, -c, c, -c, c, -c];
        let taps: Vec<Tap> = offsets
            .iter()
            .zip(coeffs)
            .map(|(o, c)| unit_tap(o, c))
            .collect();
        let kernel = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(2),
                body: KernelBody::Linear(LinearForm { bias: 0.0, taps }),
            }],
        };
        let region = BoxDomain::interior(2, e - 2);
        assert_fastmath_within_bound(
            &kernel, KernelImpl::Stencil2D9, 2, &region,
            &[0, 0], &[e, e], &[0, 0], &[e, e], boundary, seed,
        )?;
    }
}
