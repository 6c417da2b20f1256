//! Lowering-time kernel specialization.
//!
//! The operators that dominate a multigrid cycle — Jacobi relaxation,
//! residual, full-weighting restriction, bilinear/trilinear interpolation —
//! are constant-coefficient linear stencils of a handful of fixed shapes.
//! [`classify`] recognises those shapes on the lowered [`StageKernel`] and
//! tags the scheduled stage with a [`KernelImpl`]. The tag decides only
//! the stage's *tier* ([`KernelTier::select`]): whatever its tag, every
//! linear case runs the runtime's one row body, `row_body`, with its arity
//! a compile-time constant up to [`MAX_SPEC_TAPS`], inside a sweep bound
//! once per stage. Anything unrecognised — non-linear cases, mixed up/down
//! sampling, wide shapes, high arity — keeps [`KernelImpl::Generic`]: its
//! plain rows stay at the scalar tier, and its non-linear cases run the
//! expression interpreter.
//!
//! Stages whose taps carry a coefficient-grid factor (`Tap::cfactor`, the
//! variable-coefficient operators) also keep the family tag `Generic`:
//! no family describes a run-time weight, and the tag is what the
//! benchmark's kernel probe keys on. Below the tag they are not
//! second-class — [`KernelTier::select`] gives them the tier a specialized
//! stage gets ([`has_coeff_taps`]), and the runtime runs their unit-stride
//! rows on that tier's lanes, packed lanes included, with the weight read
//! per point and always under the exact rule.
//!
//! Every tier but [`KernelTier::FastMath`] accumulates a point's taps in
//! exactly the generic order, so specialization alone never changes
//! results (bitwise).

use crate::plan::{KernelBody, StageKernel};
use gmg_ir::expr::AxisAccess;

/// The row-kernel table's last arity; wider cases run the runtime's
/// per-tap loop `dyn_row`, so the classifier tags them generic.
pub const MAX_SPEC_TAPS: usize = 28;

/// The specialized kernel family of a scheduled stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum KernelImpl {
    /// Generic tap loop / expression interpreter (always correct).
    #[default]
    Generic,
    /// 2-D unit-stride stencil, cross shape (≤5 points: |dy|+|dx| ≤ 1).
    Stencil2D5,
    /// 2-D unit-stride stencil, box shape (≤9 points: |dy|,|dx| ≤ 1).
    Stencil2D9,
    /// 3-D unit-stride stencil, cross shape (≤7 points).
    Stencil3D7,
    /// 3-D unit-stride stencil, box shape (≤27 points).
    Stencil3D27,
    /// Stride-2 reading stencil (`in = 2·out + off`): full-weighting
    /// restriction.
    Restrict,
    /// Half-index reading stencil (`in = (out + off) / 2`): linear
    /// interpolation, executed per parity case.
    Interp,
}

/// The implementation tier a specialized stage executes at, selected at
/// lowering time *underneath* the [`KernelImpl`] family classification:
/// the family says *whether* a stage may leave the scalar tier, the tier
/// says on which lane and under which accumulation rule the one row body
/// runs its rows.
///
/// - [`Scalar`](KernelTier::Scalar): the row body on the element type's
///   scalar lane, one point per pass (and the expression interpreter —
///   `Generic` stages without coefficient taps are always scalar).
/// - [`LaneSafe`](KernelTier::LaneSafe): the row body on the packed f64
///   lanes (AVX2 vectors, where the host has AVX2+FMA) plus cache blocking
///   of the unit-stride dimension. Each output point still accumulates its
///   taps in exactly the generic order (lanes are *output points*, not
///   taps), so this tier is bitwise-identical to `Scalar` and is the default
///   wherever specialization fires.
/// - [`FastMath`](KernelTier::FastMath): the lane tier with the per-point
///   tap chain of unit-stride plain rows reassociated into independent
///   partial sums (and fused multiply-add where the host supports it);
///   coefficient and strided rows keep the exact rule. Results differ from the
///   generic path at round-off level — gated behind
///   `PipelineOptions::fast_math` and verified by a ULP-bounded
///   differential suite instead of bitwise equality.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum KernelTier {
    /// The row body on the scalar lane (bitwise-identical to generic).
    #[default]
    Scalar,
    /// The row body on the packed f64 lanes, generic accumulation order per
    /// point (bitwise-identical to generic).
    LaneSafe,
    /// The packed lanes with reassociated partial-sum accumulation on
    /// unit-stride plain rows (round-off level differences; ULP-verified).
    FastMath,
}

impl KernelTier {
    /// All tiers, indexable by [`KernelTier::index`].
    pub const ALL: [KernelTier; 3] = [
        KernelTier::Scalar,
        KernelTier::LaneSafe,
        KernelTier::FastMath,
    ];

    /// Dense index (trace histogram bucket).
    pub fn index(self) -> usize {
        match self {
            KernelTier::Scalar => 0,
            KernelTier::LaneSafe => 1,
            KernelTier::FastMath => 2,
        }
    }

    /// Short lowercase label (dumps, trace reports).
    pub fn label(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::LaneSafe => "lane_safe",
            KernelTier::FastMath => "fast_math",
        }
    }

    /// The tier a stage executes at, given its family classification,
    /// whether it has coefficient taps ([`has_coeff_taps`]) and the `simd`
    /// / `fast_math` knobs: `Generic` stages without coefficient taps and
    /// `simd = false` pipelines stay scalar; specialized and coefficient
    /// stages run lane-safe by default and `FastMath` when `fast_math` is
    /// set (which a coefficient row runs under the exact rule all the
    /// same: its results never move with the tier).
    pub fn select(
        impl_tag: KernelImpl,
        coeff_taps: bool,
        simd: bool,
        fast_math: bool,
    ) -> KernelTier {
        if (impl_tag == KernelImpl::Generic && !coeff_taps) || !simd {
            KernelTier::Scalar
        } else if fast_math {
            KernelTier::FastMath
        } else {
            KernelTier::LaneSafe
        }
    }
}

/// Full runtime kernel selection of one scheduled stage: the family, the
/// tier, and the unit-stride cache-block length (output points per block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelSel {
    pub impl_tag: KernelImpl,
    pub tier: KernelTier,
    /// Cache-block length of the innermost (unit-stride) dimension for the
    /// lane tiers, derived from the pipeline's tile geometry at lowering
    /// ([`unit_block`]). Ignored by the scalar tier.
    pub xblock: usize,
}

impl KernelSel {
    /// The always-correct generic selection.
    pub fn generic() -> KernelSel {
        KernelSel::scalar(KernelImpl::Generic)
    }

    /// A scalar-tier selection of a family.
    pub fn scalar(impl_tag: KernelImpl) -> KernelSel {
        KernelSel {
            impl_tag,
            tier: KernelTier::Scalar,
            xblock: 0,
        }
    }
}

/// Smallest unit-stride cache block the lane tiers will use. Blocks are
/// multiples of the widest lane count (8) so whole blocks vectorize without
/// a remainder loop. The floor is deliberately high: blocking only fires
/// when a row is *longer* than the block, and rows below ~1 K points fit
/// the streamed slab in L1/L2 anyway, so splitting them just pays the
/// per-block dispatch again (measured as a pure loss down to ≲128-point
/// blocks). 1024 points = one 8 KiB slab per input row.
pub const UNIT_BLOCK_MIN: usize = 1024;

/// Largest unit-stride cache block: 4096 points keeps a block's row slab at
/// 32 KiB — within L1 for a single row, within L2 for the ≲9 rows a 2-D box
/// stencil streams — while long enough to amortize loop overhead.
pub const UNIT_BLOCK_MAX: usize = 4096;

/// The unit-stride cache-block length for the lane tiers, derived from the
/// innermost tile extent the planner already chose (the paper's tile
/// geometry is cache-driven, so it is the right size signal): rounded up to
/// a multiple of 8 lanes and clamped to
/// [`UNIT_BLOCK_MIN`]..=[`UNIT_BLOCK_MAX`].
pub fn unit_block(inner_tile: i64) -> usize {
    let t = inner_tile.max(0) as usize;
    let rounded = t.div_ceil(8) * 8;
    rounded.clamp(UNIT_BLOCK_MIN, UNIT_BLOCK_MAX)
}

impl KernelImpl {
    /// All implementations, indexable by [`KernelImpl::index`].
    pub const ALL: [KernelImpl; 7] = [
        KernelImpl::Generic,
        KernelImpl::Stencil2D5,
        KernelImpl::Stencil2D9,
        KernelImpl::Stencil3D7,
        KernelImpl::Stencil3D27,
        KernelImpl::Restrict,
        KernelImpl::Interp,
    ];

    /// Dense index (trace histogram bucket).
    pub fn index(self) -> usize {
        match self {
            KernelImpl::Generic => 0,
            KernelImpl::Stencil2D5 => 1,
            KernelImpl::Stencil2D9 => 2,
            KernelImpl::Stencil3D7 => 3,
            KernelImpl::Stencil3D27 => 4,
            KernelImpl::Restrict => 5,
            KernelImpl::Interp => 6,
        }
    }

    /// Short lowercase label (dumps, trace reports).
    pub fn label(self) -> &'static str {
        match self {
            KernelImpl::Generic => "generic",
            KernelImpl::Stencil2D5 => "stencil2d5",
            KernelImpl::Stencil2D9 => "stencil2d9",
            KernelImpl::Stencil3D7 => "stencil3d7",
            KernelImpl::Stencil3D27 => "stencil3d27",
            KernelImpl::Restrict => "restrict",
            KernelImpl::Interp => "interp",
        }
    }
}

/// Per-axis sampling class of one access.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AxisClass {
    /// `in = out + off` — plain stencil.
    Id,
    /// `in = 2·out + off` — restriction read.
    Down,
    /// `in = (out + off) / 2` — interpolation read.
    Up,
}

fn axis_class(a: &AxisAccess) -> Option<AxisClass> {
    match (a.num, a.den) {
        (1, 1) => Some(AxisClass::Id),
        (2, 1) => Some(AxisClass::Down),
        (1, 2) => Some(AxisClass::Up),
        _ => None,
    }
}

/// Whether a linear case of `kernel` has a tap scaled by a coefficient grid
/// (`Tap::cfactor`): a variable-coefficient stage.
pub fn has_coeff_taps(kernel: &StageKernel) -> bool {
    kernel.cases.iter().any(|case| match &case.body {
        KernelBody::Linear(form) => form.taps.iter().any(|t| t.cfactor.is_some()),
        KernelBody::Interpreted(_) => false,
    })
}

/// Classify a lowered kernel into its specialized family (decision table in
/// DESIGN §11). `ndims` is the rank of the stage's iteration domain.
pub fn classify(kernel: &StageKernel, ndims: usize) -> KernelImpl {
    let mut saw_down = false;
    let mut saw_up = false;
    // Widest |offset| over unit-stride axes; shape discrimination below.
    let mut cross = true; // Σ|off| ≤ 1 per access (5/7-point shapes)
    for case in &kernel.cases {
        let form = match &case.body {
            KernelBody::Linear(f) => f,
            KernelBody::Interpreted(_) => return KernelImpl::Generic,
        };
        if form.taps.len() > MAX_SPEC_TAPS {
            return KernelImpl::Generic;
        }
        for tap in &form.taps {
            // variable-coefficient taps keep the generic tag (see the
            // module doc): no specialized family describes a run-time factor.
            if tap.cfactor.is_some() {
                return KernelImpl::Generic;
            }
            if tap.access.ndims() != ndims {
                return KernelImpl::Generic;
            }
            let mut abs_sum = 0i64;
            for axis in &tap.access.0 {
                match axis_class(axis) {
                    Some(AxisClass::Id) => {}
                    Some(AxisClass::Down) => saw_down = true,
                    Some(AxisClass::Up) => saw_up = true,
                    None => return KernelImpl::Generic,
                }
                if axis.off.abs() > 2 {
                    return KernelImpl::Generic;
                }
                abs_sum += axis.off.abs();
            }
            if abs_sum > 1 {
                cross = false;
            }
        }
    }
    match (saw_down, saw_up) {
        (true, true) => KernelImpl::Generic,
        (true, false) => KernelImpl::Restrict,
        (false, true) => KernelImpl::Interp,
        (false, false) => match (ndims, cross) {
            (2, true) => KernelImpl::Stencil2D5,
            (2, false) => KernelImpl::Stencil2D9,
            (3, true) => KernelImpl::Stencil3D7,
            (3, false) => KernelImpl::Stencil3D27,
            _ => KernelImpl::Generic,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::KernelCase;
    use gmg_ir::expr::{Access, Expr};
    use gmg_ir::linear::{LinearForm, Tap};
    use gmg_ir::ParityPattern;

    fn linear_kernel(taps: Vec<Tap>) -> StageKernel {
        StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(2),
                body: KernelBody::Linear(LinearForm { bias: 0.0, taps }),
            }],
        }
    }

    fn tap(offs: &[i64], coeff: f64) -> Tap {
        Tap {
            slot: 0,
            access: Access::offsets(offs),
            coeff,
            cfactor: None,
        }
    }

    #[test]
    fn five_point_cross_is_2d5() {
        let k = linear_kernel(vec![
            tap(&[0, 0], 4.0),
            tap(&[0, 1], -1.0),
            tap(&[0, -1], -1.0),
            tap(&[1, 0], -1.0),
            tap(&[-1, 0], -1.0),
        ]);
        assert_eq!(classify(&k, 2), KernelImpl::Stencil2D5);
    }

    #[test]
    fn diagonal_makes_2d9() {
        let k = linear_kernel(vec![tap(&[0, 0], 1.0), tap(&[1, 1], 0.5)]);
        assert_eq!(classify(&k, 2), KernelImpl::Stencil2D9);
    }

    #[test]
    fn rank3_shapes() {
        let cross = linear_kernel(vec![
            tap(&[0, 0, 0], 6.0),
            tap(&[1, 0, 0], -1.0),
            tap(&[0, 0, 1], -1.0),
        ]);
        assert_eq!(classify(&cross, 3), KernelImpl::Stencil3D7);
        let boxy = linear_kernel(vec![tap(&[0, 0, 0], 1.0), tap(&[1, 1, 1], 0.125)]);
        assert_eq!(classify(&boxy, 3), KernelImpl::Stencil3D27);
    }

    #[test]
    fn down_access_is_restrict_and_up_is_interp() {
        let down = linear_kernel(vec![Tap {
            slot: 0,
            access: Access(vec![AxisAccess::down(0), AxisAccess::down(1)]),
            coeff: 0.25,
            cfactor: None,
        }]);
        assert_eq!(classify(&down, 2), KernelImpl::Restrict);
        let up = linear_kernel(vec![Tap {
            slot: 0,
            access: Access(vec![AxisAccess::up(0), AxisAccess::up(1)]),
            coeff: 1.0,
            cfactor: None,
        }]);
        assert_eq!(classify(&up, 2), KernelImpl::Interp);
        let mixed = linear_kernel(vec![Tap {
            slot: 0,
            access: Access(vec![AxisAccess::down(0), AxisAccess::up(0)]),
            coeff: 1.0,
            cfactor: None,
        }]);
        assert_eq!(classify(&mixed, 2), KernelImpl::Generic);
    }

    #[test]
    fn generic_fallbacks() {
        // interpreted case
        let interp = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(2),
                body: KernelBody::Interpreted(Expr::Const(0.0)),
            }],
        };
        assert_eq!(classify(&interp, 2), KernelImpl::Generic);
        // wide offset
        let wide = linear_kernel(vec![tap(&[0, 3], 1.0)]);
        assert_eq!(classify(&wide, 2), KernelImpl::Generic);
        // arity above the row-kernel table
        let many = linear_kernel(
            (0..(MAX_SPEC_TAPS as i64 + 1))
                .map(|_| tap(&[0, 0], 1.0))
                .collect(),
        );
        assert_eq!(classify(&many, 2), KernelImpl::Generic);
        // unusual stride ratio
        let odd = linear_kernel(vec![Tap {
            slot: 0,
            access: Access(vec![
                AxisAccess {
                    num: 3,
                    den: 1,
                    off: 0,
                },
                AxisAccess::offset(0),
            ]),
            coeff: 1.0,
            cfactor: None,
        }]);
        assert_eq!(classify(&odd, 2), KernelImpl::Generic);
        // rank 1 has no specialized family
        let r1 = linear_kernel(vec![tap(&[0], 1.0)]);
        assert_eq!(classify(&r1, 1), KernelImpl::Generic);
    }

    #[test]
    fn coeff_factor_tap_refuses_specialization() {
        use gmg_ir::linear::CoeffRead;
        // an otherwise-perfect 5-point cross, but one tap carries a
        // run-time coefficient factor: must stay Generic so no future
        // kernel family silently misclassifies variable-coefficient stages
        let mut taps = vec![
            tap(&[0, 0], 4.0),
            tap(&[0, 1], -1.0),
            tap(&[0, -1], -1.0),
            tap(&[1, 0], -1.0),
            tap(&[-1, 0], -1.0),
        ];
        taps[1].cfactor = Some(CoeffRead {
            slot: 1,
            access: Access::offsets(&[0, 0]),
        });
        let k = linear_kernel(taps);
        assert_eq!(classify(&k, 2), KernelImpl::Generic);
    }

    #[test]
    fn impl_index_is_dense() {
        for (i, k) in KernelImpl::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(KernelImpl::default(), KernelImpl::Generic);
    }
}
