//! Specialized-kernel equivalence fuzzing: every [`KernelImpl`] family must
//! produce *bitwise identical* results to the expression interpreter over
//! randomized extents, origins, ghost widths, boundaries, and coefficients.
//! (The specialized row kernels and the generic tap loop accumulate in the
//! same order, and the interpreter twin is built term-by-term in that same
//! order, so exact equality is the contract — no tolerance.)
//!
//! The lane-safe SIMD tier (PR 8) is held to the same contract: it
//! vectorizes *across* output points, so each lane still accumulates its
//! own point in generic tap order, and cache blocking of the unit-stride
//! dimension only re-orders which points are visited when — never the
//! arithmetic within one. Every case below therefore also runs
//! `KernelTier::LaneSafe` (unblocked and with a deliberately tiny block so
//! the blocked nests actually fire at test extents) and asserts exact
//! equality against the same interpreter twin. Strided kernels —
//! restriction, interpolation and red-black sweeps — run the packed lanes
//! under the exact rule at both lane tiers, so they also run
//! `KernelTier::FastMath` against the same twin; their rows reach past 16
//! points, so the pair lane's eight-point passes run, not only the
//! remainders.

use gmg_ir::expr::{Access, AxisAccess, Expr, Operand};
use gmg_ir::{CoeffRead, LinearForm, Parity, ParityPattern, Tap};
use gmg_poly::{BoxDomain, Interval};
use gmg_runtime::kernel::{execute_stage_sel, Elem, KernelInput, Space, SpaceMut};
use polymg::specialize::classify;
use polymg::{KernelBody, KernelCase, KernelImpl, KernelSel, KernelTier, StageKernel};
use proptest::prelude::*;

/// The interpreter twin of a linear kernel: the same cases, each rebuilt as
/// `bias + c₀·read₀ + c₁·read₁ + …` so `Expr::eval_at`'s left-associated
/// additions replay the tap loop's accumulation order exactly. A coefficient
/// tap becomes `(cⱼ·aⱼ)·readⱼ` — weight product first, like the row body.
fn interpreter_twin(k: &StageKernel) -> StageKernel {
    StageKernel {
        cases: k
            .cases
            .iter()
            .map(|case| {
                let form = match &case.body {
                    KernelBody::Linear(f) => f,
                    KernelBody::Interpreted(_) => panic!("twin of an interpreted case"),
                };
                let mut expr = Expr::Const(form.bias);
                for tap in &form.taps {
                    let mut weight = Expr::Const(tap.coeff);
                    if let Some(c) = &tap.cfactor {
                        weight = weight * Operand::Slot(c.slot).read(c.access.clone());
                    }
                    expr = expr + weight * Operand::Slot(tap.slot).read(tap.access.clone());
                }
                KernelCase {
                    pattern: case.pattern.clone(),
                    body: KernelBody::Interpreted(expr),
                }
            })
            .collect(),
    }
}

/// Deterministic pseudo-random fill.
fn fill(seed: u64, data: &mut [f64]) {
    for (i, v) in data.iter_mut().enumerate() {
        let h = polymg::splitmix64(seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15));
        *v = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
}

/// Run `kernel` (specialized, tag from the classifier) and its interpreter
/// twin over `region`, both reading one input space, and assert bitwise
/// equality of the two output buffers — at the fast-math tier too when the
/// kernel is `strided`.
#[allow(clippy::too_many_arguments)]
fn assert_twin_bitwise(
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
    strided: bool,
) -> Result<(), TestCaseError> {
    let tag = classify(kernel, ndims);
    prop_assert_eq!(tag, expect, "classifier missed the shape");

    let in_len = in_extents.iter().product::<i64>() as usize;
    let out_len = out_extents.iter().product::<i64>() as usize;
    let mut input = vec![0.0; in_len];
    fill(seed, &mut input);

    let mut spec_buf = vec![0.0; out_len];
    {
        let mut out = SpaceMut {
            data: &mut spec_buf,
            origin: out_origin,
            extents: out_extents,
        };
        let ins = [KernelInput::Grid(Space {
            data: &input,
            origin: in_origin,
            extents: in_extents,
        })];
        execute_stage_sel(
            KernelSel::scalar(tag),
            kernel,
            region,
            &mut out,
            &ins,
            &[boundary],
        );
    }

    let twin = interpreter_twin(kernel);
    let mut interp_buf = vec![0.0; out_len];
    {
        let mut out = SpaceMut {
            data: &mut interp_buf,
            origin: out_origin,
            extents: out_extents,
        };
        let ins = [KernelInput::Grid(Space {
            data: &input,
            origin: in_origin,
            extents: in_extents,
        })];
        execute_stage_sel(
            KernelSel::generic(),
            &twin,
            region,
            &mut out,
            &ins,
            &[boundary],
        );
    }

    for (i, (a, b)) in spec_buf.iter().zip(&interp_buf).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{:?} diverged from the interpreter at flat index {} ({} vs {})",
            tag,
            i,
            a,
            b
        );
    }

    // lane-safe SIMD tier: same exact-equality contract, unblocked and with
    // a tiny cache block (test extents are far below the production
    // UNIT_BLOCK_MIN, so only a tiny block exercises the blocked nests);
    // strided rows keep it under fast-math too
    let tiers: &[KernelTier] = match strided {
        true => &[KernelTier::LaneSafe, KernelTier::FastMath],
        false => &[KernelTier::LaneSafe],
    };
    for (&tier, xblock) in tiers.iter().flat_map(|t| [(t, 0usize), (t, 4)]) {
        let mut lane_buf = vec![0.0; out_len];
        {
            let mut out = SpaceMut {
                data: &mut lane_buf,
                origin: out_origin,
                extents: out_extents,
            };
            let ins = [KernelInput::Grid(Space {
                data: &input,
                origin: in_origin,
                extents: in_extents,
            })];
            let sel = KernelSel {
                impl_tag: tag,
                tier,
                xblock,
            };
            execute_stage_sel(sel, kernel, region, &mut out, &ins, &[boundary]);
        }
        for (i, (a, b)) in lane_buf.iter().zip(&interp_buf).enumerate() {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{:?} {:?} (xblock {}) diverged from the interpreter at flat index {} \
                 ({} vs {})",
                tag,
                tier,
                xblock,
                i,
                a,
                b
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
    fn stencil_2d_matches_interpreter(
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
        // output into a tight window whose origin is offset from the array's
        let oo = [g - margin.min(g), g - margin.min(g)];
        let oext = [e - 1 - g - oo[0] + 1, e - 1 - g - oo[1] + 1];
        let expect = if boxy { KernelImpl::Stencil2D9 } else { KernelImpl::Stencil2D5 };
        assert_twin_bitwise(
            &kernel, expect, 2, &region,
            &[0, 0], &[e, e], &oo, &oext, boundary, seed, false,
        )?;
    }

    /// 3-D unit-stride stencils: cross (≤7-point) and box (27-point).
    #[test]
    fn stencil_3d_matches_interpreter(
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
        assert_twin_bitwise(
            &kernel, expect, 3, &region,
            &[0, 0, 0], &[e, e, e], &[0, 0, 0], &[e, e, e], boundary, seed, false,
        )?;
    }

    /// Stride-2 restriction reads (`in = 2·out + off`, |off| ≤ 2), rows of
    /// up to 21 points.
    #[test]
    fn restrict_matches_interpreter(
        n in 5i64..24,
        offs in proptest::collection::vec((-2i64..3, -2i64..3), 1..7),
        coeffs in proptest::collection::vec(-1.0f64..1.0, 7),
        bias in -1.0f64..1.0,
        boundary in -1.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let taps: Vec<Tap> = offs
            .iter()
            .zip(&coeffs)
            .map(|(&(dy, dx), &c)| Tap {
                slot: 0,
                access: Access(vec![AxisAccess::down(dy), AxisAccess::down(dx)]),
                coeff: c,
                cfactor: None,
            })
            .collect();
        let kernel = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(2),
                body: KernelBody::Linear(LinearForm { bias, taps }),
            }],
        };
        // coarse region [1, n-2] reads fine coords 2·[1, n-2] ± 2 ⊆ [0, 2n-2]
        let region = BoxDomain::interior(2, n - 2);
        let fine = 2 * n;
        assert_twin_bitwise(
            &kernel, KernelImpl::Restrict, 2, &region,
            &[0, 0], &[fine, fine], &[0, 0], &[n, n], boundary, seed, true,
        )?;
    }

    /// Half-index interpolation reads (`in = (out + off) / 2`), executed as
    /// per-parity cases like the lowering emits them, rows of up to 21
    /// points.
    #[test]
    fn interp_matches_interpreter(
        e in 8i64..44,
        coeffs in proptest::collection::vec(-1.0f64..1.0, 12),
        bias in -1.0f64..1.0,
        boundary in -1.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        // four parity cases (EE/EO/OE/OO), each up-sampling with the taps a
        // bilinear interpolation would use for that parity
        let par = [Parity::Even, Parity::Odd];
        let mut cases = Vec::new();
        let mut ci = 0usize;
        for &py in &par {
            for &px in &par {
                let dys: &[i64] = if py == Parity::Even { &[0] } else { &[-1, 1] };
                let dxs: &[i64] = if px == Parity::Even { &[0] } else { &[-1, 1] };
                let mut taps = Vec::new();
                for &dy in dys {
                    for &dx in dxs {
                        taps.push(Tap {
                            slot: 0,
                            access: Access(vec![AxisAccess::up(dy), AxisAccess::up(dx)]),
                            coeff: coeffs[ci % coeffs.len()],
                            cfactor: None,
                        });
                        ci += 1;
                    }
                }
                cases.push(KernelCase {
                    pattern: ParityPattern(vec![py, px]),
                    body: KernelBody::Linear(LinearForm { bias, taps }),
                });
            }
        }
        let kernel = StageKernel { cases };
        // fine region [1, e-2] reads coarse coords ((x ± 1) / 2) ⊆ [0, (e-1)/2]
        let region = BoxDomain::interior(2, e - 2);
        let coarse = e / 2 + 2;
        assert_twin_bitwise(
            &kernel, KernelImpl::Interp, 2, &region,
            &[0, 0], &[coarse, coarse], &[0, 0], &[e, e], boundary, seed, true,
        )?;
    }

    /// 3-D full-weighting restriction: all 27 stride-2 taps, over a few
    /// rows and planes of up to 21 points.
    #[test]
    fn restrict_3d_matches_interpreter(
        nx in 1i64..22,
        m in 1i64..3,
        coeffs in proptest::collection::vec(-1.0f64..1.0, 27),
        bias in -1.0f64..1.0,
        boundary in -1.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let mut taps = Vec::new();
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let axes = [dz, dy, dx].map(AxisAccess::down);
                    taps.push(Tap {
                        slot: 0,
                        access: Access(axes.to_vec()),
                        coeff: coeffs[taps.len()],
                        cfactor: None,
                    });
                }
            }
        }
        let kernel = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(3),
                body: KernelBody::Linear(LinearForm { bias, taps }),
            }],
        };
        // coarse [1, m]² × [1, nx] reads fine coords 2·c ± 1 ⊆ [1, 2·hi + 1]
        let region = BoxDomain::new(vec![
            Interval::new(1, m),
            Interval::new(1, m),
            Interval::new(1, nx),
        ]);
        let (fine_yz, fine_x) = (2 * m + 2, 2 * nx + 2);
        assert_twin_bitwise(
            &kernel, KernelImpl::Restrict, 3, &region,
            &[0, 0, 0], &[fine_yz, fine_yz, fine_x], &[0, 0, 0], &[m + 2, m + 2, nx + 2],
            boundary, seed, true,
        )?;
    }

    /// 3-D trilinear interpolation: eight parity cases (one per octant
    /// parity), each with the 1–8 half-index taps of its parity, over a few
    /// rows and planes of up to 21 points each.
    #[test]
    fn interp_3d_matches_interpreter(
        ex in 4i64..44,
        m in 2i64..5,
        coeffs in proptest::collection::vec(-1.0f64..1.0, 27),
        bias in -1.0f64..1.0,
        boundary in -1.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let par = [Parity::Even, Parity::Odd];
        let offs = |p: Parity| -> &'static [i64] {
            if p == Parity::Even { &[0] } else { &[-1, 1] }
        };
        let mut cases = Vec::new();
        let mut ci = 0usize;
        for &pz in &par {
            for &py in &par {
                for &px in &par {
                    let mut taps = Vec::new();
                    for &dz in offs(pz) {
                        for &dy in offs(py) {
                            for &dx in offs(px) {
                                let axes = [dz, dy, dx].map(AxisAccess::up);
                                taps.push(Tap {
                                    slot: 0,
                                    access: Access(axes.to_vec()),
                                    coeff: coeffs[ci % coeffs.len()],
                                    cfactor: None,
                                });
                                ci += 1;
                            }
                        }
                    }
                    cases.push(KernelCase {
                        pattern: ParityPattern(vec![pz, py, px]),
                        body: KernelBody::Linear(LinearForm { bias, taps }),
                    });
                }
            }
        }
        let kernel = StageKernel { cases };
        // fine [1, m]² × [1, ex] reads coarse coords ((x ± 1) / 2) ⊆ [0, (hi + 1) / 2]
        let region = BoxDomain::new(vec![
            Interval::new(1, m),
            Interval::new(1, m),
            Interval::new(1, ex),
        ]);
        let (coarse_yz, coarse_x) = (m / 2 + 2, ex / 2 + 2);
        assert_twin_bitwise(
            &kernel, KernelImpl::Interp, 3, &region,
            &[0, 0, 0], &[coarse_yz, coarse_yz, coarse_x], &[0, 0, 0], &[m + 2, m + 2, ex + 2],
            boundary, seed, true,
        )?;
    }

    /// Red-black sweeps, 2-D and 3-D: one case per parity combination of
    /// every axis, like the lowering emits a Gauss–Seidel half-sweep — the
    /// active colour a centre-plus-neighbours cross (stride-2 reads and
    /// writes), the other colour a one-tap copy. Rows of up to 21 points.
    #[test]
    fn red_black_matches_interpreter(
        three_d in proptest::bool::ANY,
        red in proptest::bool::ANY,
        ex in 4i64..44,
        m in 1i64..4,
        coeffs in proptest::collection::vec(-1.0f64..1.0, 7),
        bias in -1.0f64..1.0,
        boundary in -1.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let nd = if three_d { 3 } else { 2 };
        let par = [Parity::Even, Parity::Odd];
        let mut cases = Vec::new();
        for combo in 0..1usize << nd {
            let pattern: Vec<Parity> = (0..nd).map(|d| par[combo >> d & 1]).collect();
            let odd = pattern.iter().filter(|p| **p == Parity::Odd).count();
            let form = if (odd % 2 == 0) == red {
                let mut offsets = vec![vec![0i64; nd]];
                for d in 0..nd {
                    for s in [-1i64, 1] {
                        let mut o = vec![0i64; nd];
                        o[d] = s;
                        offsets.push(o);
                    }
                }
                let taps = offsets.iter().zip(&coeffs).map(|(o, &c)| unit_tap(o, c)).collect();
                LinearForm { bias, taps }
            } else {
                LinearForm { bias: 0.0, taps: vec![unit_tap(&vec![0; nd], 1.0)] }
            };
            cases.push(KernelCase {
                pattern: ParityPattern(pattern),
                body: KernelBody::Linear(form),
            });
        }
        let kernel = StageKernel { cases };
        // interior [1, m]^(nd−1) × [1, ex] of an array with a one-cell ghost ring
        let mut intervals = vec![Interval::new(1, m); nd - 1];
        intervals.push(Interval::new(1, ex));
        let mut extents = vec![m + 2; nd - 1];
        extents.push(ex + 2);
        let (expect, origin) = match nd {
            2 => (KernelImpl::Stencil2D5, vec![0, 0]),
            _ => (KernelImpl::Stencil3D7, vec![0, 0, 0]),
        };
        assert_twin_bitwise(
            &kernel, expect, nd, &BoxDomain::new(intervals),
            &origin, &extents, &origin, &extents, boundary, seed, true,
        )?;
    }
    /// Unit-stride 2-D forms wider than the row-kernel table (29–64 taps
    /// over an 8×8 window), sorted by coefficient the way the lowering
    /// leaves them, in runs of 2–6 equal coefficients. The classifier tags
    /// them generic, and the generic and lane-tier selections both sum each
    /// point tap by tap, equal to the interpreter bit for bit.
    #[test]
    fn wide_sorted_stencil_matches_interpreter(
        e in 12i64..20,
        arity in 29usize..=64,
        runs in proptest::collection::vec(2usize..=6, 32),
        coeffs in proptest::collection::vec(-1.0f64..1.0, 32),
        bias in -1.0f64..1.0,
        boundary in -1.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let mut coeffs = coeffs;
        coeffs.sort_by(f64::total_cmp);
        let mut taps = Vec::new();
        for (&run, &c) in runs.iter().zip(&coeffs) {
            // every run 2–6 long, the last one taking what is left
            let left = arity - taps.len();
            let len = if left <= 6 { left } else { run.min(left - 2) };
            for _ in 0..len {
                let j = taps.len() as i64;
                taps.push(unit_tap(&[j / 8 - 4, j % 8 - 4], c));
            }
            if taps.len() == arity {
                break;
            }
        }
        prop_assert_eq!(taps.len(), arity);
        let kernel = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(2),
                body: KernelBody::Linear(LinearForm { bias, taps }),
            }],
        };
        let region = BoxDomain::new(vec![Interval::new(4, e - 4); 2]);
        assert_twin_bitwise(
            &kernel, KernelImpl::Generic, 2, &region,
            &[0, 0], &[e, e], &[0, 0], &[e, e], boundary, seed, false,
        )?;
    }

    /// Coefficient taps (`Tap::cfactor`, weight `coeff · a[i]`): plain and
    /// coefficient taps mixed in random order over two coefficient grids, so
    /// `CoeffRead`s come shared, distinct and off-centre, with every grid on
    /// its own origin and ghost width and coefficients well away from 1.
    /// Arities 1..=9 take the const-arity row body; arity 29 and every
    /// stride-2 case take the dynamic fallback. All equal the interpreter
    /// bit for bit.
    #[test]
    fn coeff_taps_match_interpreter(
        three_d in proptest::bool::ANY,
        stride2 in proptest::bool::ANY,
        n in 3i64..8,
        lo in -4i64..5,
        ghosts in (1i64..4, 1i64..4, 1i64..4),
        margin in 0i64..2,
        pick in 0usize..10,
        shape in proptest::collection::vec(
            (0u8..4, -1i64..2, -1i64..2, -1i64..2, -1.0f64..1.0),
            29,
        ),
        bias in -1.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let nd = if three_d { 3 } else { 2 };
        let arity = if pick == 0 { 29 } else { pick };
        let axis = |off: i64| if stride2 { AxisAccess::down(off) } else { AxisAccess::offset(off) };
        let access = |offs: &[i64]| Access(offs[3 - nd..].iter().map(|&o| axis(o)).collect());
        let taps: Vec<Tap> = shape[..arity]
            .iter()
            .map(|&(kind, dz, dy, dx, coeff)| Tap {
                slot: 0,
                access: access(&[dz, dy, dx]),
                coeff,
                cfactor: match kind {
                    0 => None,
                    1 => Some(CoeffRead { slot: 1, access: access(&[0, 0, 0]) }),
                    2 => Some(CoeffRead { slot: 1, access: access(&[0, -1, 1]) }),
                    _ => Some(CoeffRead { slot: 2, access: access(&[0, 0, 0]) }),
                },
            })
            .collect();
        let kernel = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(nd),
                body: KernelBody::Linear(LinearForm { bias, taps }),
            }],
        };
        let region = BoxDomain::new(vec![Interval::new(lo, lo + n - 1); nd]);

        // slot k's grid: everything `m·[lo, lo+n-1] ± 1` reads, plus its own
        // ghost width, filled with values (slot 0) or coefficients in
        // [0.5, 1.5) (slots 1 and 2)
        let m = if stride2 { 2 } else { 1 };
        let grids: Vec<(Vec<i64>, Vec<i64>, Vec<f64>)> = [ghosts.0, ghosts.1, ghosts.2]
            .iter()
            .enumerate()
            .map(|(k, &g)| {
                let origin = vec![m * lo - g; nd];
                let extents = vec![m * (n - 1) + 2 * g + 1; nd];
                let mut data = vec![0.0; extents.iter().product::<i64>() as usize];
                fill(seed + k as u64, &mut data);
                if k > 0 {
                    data.iter_mut().for_each(|v| *v += 1.0);
                }
                (origin, extents, data)
            })
            .collect();
        let ins: Vec<KernelInput<'_>> = grids
            .iter()
            .map(|(origin, extents, data)| KernelInput::Grid(Space { data, origin, extents }))
            .collect();

        let out_origin = vec![lo - margin; nd];
        let out_extents = vec![n + margin; nd];
        let run = |k: &StageKernel| {
            let mut buf = vec![0.0; out_extents.iter().product::<i64>() as usize];
            let mut out = SpaceMut { data: &mut buf, origin: &out_origin, extents: &out_extents };
            execute_stage_sel(KernelSel::generic(), k, &region, &mut out, &ins, &[0.0; 3]);
            buf
        };
        let (got, want) = (run(&kernel), run(&interpreter_twin(&kernel)));
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "coefficient row diverged from the interpreter at flat index {} ({} vs {})",
                i,
                a,
                b
            );
        }
    }
}

/// The short-row oracle's kernels, one per row shape `shape` of rank `nd`:
/// 0 a unit cross stencil; 1 a stride-2 restriction over all `3^nd`
/// offsets; 2 interpolation, one case per parity combination with the
/// half-index taps of its parity; 3 a red-black half-sweep (stride-2 reads
/// and writes); 4 a unit cross whose taps are scaled, one in three by
/// coefficient slot 1 and one in three by slot 2 read one cell off-centre.
fn short_row_kernel(shape: usize, nd: usize, coeffs: &[f64], bias: f64) -> StageKernel {
    let mut cross = vec![vec![0i64; nd]];
    for d in 0..nd {
        for s in [-1i64, 1] {
            let mut o = vec![0i64; nd];
            o[d] = s;
            cross.push(o);
        }
    }
    let tap = |access: Access, j: usize| Tap {
        slot: 0,
        access,
        coeff: coeffs[j % coeffs.len()],
        cfactor: None,
    };
    let linear = |pattern: Vec<Parity>, bias: f64, taps: Vec<Tap>| KernelCase {
        pattern: ParityPattern(pattern),
        body: KernelBody::Linear(LinearForm { bias, taps }),
    };
    // every parity combination of the `nd` axes, outermost first
    let combos = (0..1usize << nd).map(|c| {
        (0..nd)
            .map(|d| [Parity::Even, Parity::Odd][c >> d & 1])
            .collect::<Vec<_>>()
    });
    let cases = match shape {
        0 | 4 => {
            let taps = cross
                .iter()
                .enumerate()
                .map(|(j, o)| {
                    let mut t = tap(Access::offsets(o), j);
                    let mut shifted = vec![0i64; nd];
                    shifted[nd - 1] = 1;
                    t.cfactor = match (shape, j % 3) {
                        (0, _) | (_, 0) => None,
                        (_, 1) => Some(CoeffRead {
                            slot: 1,
                            access: Access::offsets(&vec![0; nd]),
                        }),
                        _ => Some(CoeffRead {
                            slot: 2,
                            access: Access::offsets(&shifted),
                        }),
                    };
                    t
                })
                .collect();
            vec![linear(vec![Parity::Any; nd], bias, taps)]
        }
        1 => {
            let taps = (0..3usize.pow(nd as u32))
                .map(|j| {
                    let axes = (0..nd)
                        .map(|d| AxisAccess::down((j / 3usize.pow(d as u32) % 3) as i64 - 1));
                    tap(Access(axes.collect()), j)
                })
                .collect();
            vec![linear(vec![Parity::Any; nd], bias, taps)]
        }
        2 => combos
            .map(|pattern| {
                let offs = |p: &Parity| -> &'static [i64] {
                    if *p == Parity::Even {
                        &[0]
                    } else {
                        &[-1, 1]
                    }
                };
                let mut points = vec![vec![]];
                for p in &pattern {
                    points = points
                        .iter()
                        .flat_map(|pre: &Vec<i64>| {
                            offs(p)
                                .iter()
                                .map(move |&o| [pre.clone(), vec![o]].concat())
                        })
                        .collect();
                }
                let taps = points
                    .iter()
                    .enumerate()
                    .map(|(j, o)| tap(Access(o.iter().map(|&o| AxisAccess::up(o)).collect()), j))
                    .collect();
                linear(pattern, bias, taps)
            })
            .collect(),
        _ => combos
            .map(|pattern| {
                let odd = pattern.iter().filter(|p| **p == Parity::Odd).count();
                if odd % 2 == 0 {
                    let taps = cross
                        .iter()
                        .enumerate()
                        .map(|(j, o)| tap(Access::offsets(o), j))
                        .collect();
                    linear(pattern, bias, taps)
                } else {
                    linear(pattern, 0.0, vec![unit_tap(&vec![0; nd], 1.0)])
                }
            })
            .collect(),
    };
    StageKernel { cases }
}

/// `kernel` over `region` at element type `T` through the public entry,
/// reading slot `k` from `grids[k]` (all on one `origin` / `extents` box),
/// into a fresh window of `out_extents` cells from `out_origin`.
fn run_elem<T: Elem>(
    sel: KernelSel,
    kernel: &StageKernel,
    region: &BoxDomain,
    grids: &[Vec<T>],
    (origin, extents): (&[i64], &[i64]),
    (out_origin, out_extents): (&[i64], &[i64]),
) -> Vec<T> {
    let mut buf = vec![T::default(); out_extents.iter().product::<i64>() as usize];
    let mut out = SpaceMut {
        data: &mut buf,
        origin: out_origin,
        extents: out_extents,
    };
    let ins: Vec<KernelInput<'_, T>> = grids
        .iter()
        .map(|data| {
            KernelInput::Grid(Space {
                data,
                origin,
                extents,
            })
        })
        .collect();
    execute_stage_sel(sel, kernel, region, &mut out, &ins, &[0.0; 3]);
    buf
}

/// The `f32` smoother chain's sum, point by point: `acc = bias`, then
/// `acc += (c·a)·v` (or `c·v`) per tap in lowered order, every operand
/// rounded to `f32` first — what every `f32` row must produce.
fn f32_reference(
    kernel: &StageKernel,
    region: &BoxDomain,
    grids: &[Vec<f32>],
    (origin, extents): (&[i64], &[i64]),
    (out_origin, out_extents): (&[i64], &[i64]),
) -> Vec<f32> {
    let nd = region.ndims();
    let len = |e: &[i64]| e.iter().product::<i64>() as usize;
    let mut out = vec![0.0f32; len(out_extents)];
    let at = |slot: usize, access: &Access, p: &[i64]| {
        let space = Space {
            data: &grids[slot][..],
            origin,
            extents,
        };
        grids[slot][space
            .index(&access.eval(p))
            .expect("read inside the input box")]
    };
    for (flat, cell) in out.iter_mut().enumerate() {
        let mut rest = flat as i64;
        let mut p = vec![0i64; nd];
        for d in (0..nd).rev() {
            p[d] = out_origin[d] + rest % out_extents[d];
            rest /= out_extents[d];
        }
        if !region.contains_point(&p) {
            continue;
        }
        for case in kernel.cases.iter().filter(|c| c.pattern.matches(&p)) {
            let KernelBody::Linear(form) = &case.body else {
                unreachable!()
            };
            let mut acc = form.bias as f32;
            for t in &form.taps {
                let mut w = t.coeff as f32;
                if let Some(c) = &t.cfactor {
                    w *= at(c.slot, &c.access, &p);
                }
                acc += w * at(t.slot, &t.access, &p);
            }
            *cell = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Short rows and whole planes at every tier: rows of 1–13 points (every
    /// remainder after the packed lanes' eight- and four-point passes),
    /// 3-D regions of at least three planes, and every input and output box
    /// cut tight to what the sweep touches, so the last row of the last
    /// plane ends at the last element of its buffer. Unit, strided and
    /// coefficient rows run the scalar tier, the lane-safe tier and the
    /// fast-math tier, unblocked and with four-point slabs. Every exact
    /// selection equals the interpreter twin bit for bit; fast-math on plain
    /// unit rows stays inside the reassociation bound of
    /// `tests/proptest_fastmath_ulp.rs`. The same kernel at `f32`, through
    /// the same generic entry, equals the chain's own `f32` sum.
    #[test]
    fn short_rows_and_planes_match_interpreter(
        shape in 0usize..5,
        three_d in proptest::bool::ANY,
        nx in 1i64..14,
        ny in 1i64..4,
        nz in 3i64..5,
        lo in (1i64..3, 1i64..3, 1i64..3),
        coeffs in proptest::collection::vec(-1.0f64..1.0, 27),
        bias in -1.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let nd = if three_d { 3 } else { 2 };
        let kernel = short_row_kernel(shape, nd, &coeffs, bias);
        let (lo, len) = ([lo.0, lo.1, lo.2], [nz, ny, nx]);
        let region = BoxDomain::new(
            (3 - nd..3).map(|d| Interval::new(lo[d], lo[d] + len[d] - 1)).collect(),
        );
        // the input box: exactly the cells the taps read
        let reads = |iv: &Interval| match shape {
            1 => (2 * iv.lo - 1, 2 * iv.hi + 1),
            2 => (gmg_poly::div_floor(iv.lo - 1, 2), gmg_poly::div_floor(iv.hi + 1, 2)),
            _ => (iv.lo - 1, iv.hi + 1),
        };
        let origin: Vec<i64> = region.0.iter().map(|iv| reads(iv).0).collect();
        let extents: Vec<i64> = region.0.iter().map(|iv| reads(iv).1 - reads(iv).0 + 1).collect();
        let out_origin: Vec<i64> = region.0.iter().map(|iv| iv.lo).collect();
        let out_extents: Vec<i64> = region.0.iter().map(Interval::len).collect();
        let boxes = ((&origin[..], &extents[..]), (&out_origin[..], &out_extents[..]));

        // slot 0 values, slots 1 and 2 coefficients in [0.5, 1.5)
        let grids: Vec<Vec<f64>> = (0..3u64)
            .map(|k| {
                let mut g = vec![0.0; extents.iter().product::<i64>() as usize];
                fill(seed + k, &mut g);
                g.iter().map(|v| v + (k > 0) as u8 as f64).collect()
            })
            .collect();
        let tag = classify(&kernel, nd);
        let twin = interpreter_twin(&kernel);
        let want = run_elem(KernelSel::generic(), &twin, &region, &grids, boxes.0, boxes.1);
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // the fast-math bound's per-point magnitude `|bias| + Σ|cⱼ·vⱼ|`
        let ntaps = (2 * nd + 1) as f64;
        let magnitude = {
            let mut abs = kernel.clone();
            for case in &mut abs.cases {
                if let KernelBody::Linear(f) = &mut case.body {
                    f.bias = f.bias.abs();
                    f.taps.iter_mut().for_each(|t| t.coeff = t.coeff.abs());
                }
            }
            let abs_grids: Vec<Vec<f64>> =
                grids.iter().map(|g| g.iter().map(|v| v.abs()).collect()).collect();
            run_elem(KernelSel::generic(), &abs, &region, &abs_grids, boxes.0, boxes.1)
        };

        let mut sels = vec![KernelSel::scalar(tag)];
        for tier in [KernelTier::LaneSafe, KernelTier::FastMath] {
            for xblock in [0usize, 4] {
                sels.push(KernelSel { impl_tag: tag, tier, xblock });
            }
        }
        for sel in sels {
            let got = run_elem(sel, &kernel, &region, &grids, boxes.0, boxes.1);
            if sel.tier == KernelTier::FastMath && shape == 0 {
                for (i, ((g, w), m)) in got.iter().zip(&want).zip(&magnitude).enumerate() {
                    let tol = (2.0 * ntaps + 6.0) * f64::EPSILON * m;
                    prop_assert!(
                        (g - w).abs() <= tol,
                        "shape {} {:?} fast-math (xblock {}) at {}: |{} - {}| > {:e}",
                        shape, tag, sel.xblock, i, g, w, tol
                    );
                }
            } else {
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "shape {} {:?} {:?} (xblock {}) diverged from the interpreter",
                    shape, tag, sel.tier, sel.xblock
                );
            }
        }

        let narrow: Vec<Vec<f32>> =
            grids.iter().map(|g| g.iter().map(|&v| v as f32).collect()).collect();
        let want32 = f32_reference(&kernel, &region, &narrow, boxes.0, boxes.1);
        for tier in [KernelTier::Scalar, KernelTier::LaneSafe, KernelTier::FastMath] {
            let sel = KernelSel { impl_tag: tag, tier, xblock: 4 };
            let got = run_elem(sel, &kernel, &region, &narrow, boxes.0, boxes.1);
            let bits32 = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits32(&got),
                bits32(&want32),
                "shape {} {:?} {:?} f32 diverged from the chain's own sum",
                shape, tag, tier
            );
        }
    }
}
