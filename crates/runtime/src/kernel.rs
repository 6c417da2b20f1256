//! Specialised execution of lowered stage kernels over box regions.
//!
//! A kernel executes in a *space*: a flat buffer plus the global coordinate
//! of its first element (`origin`) and its view extents — the same type
//! serves full arrays (origin `[0, …]`, extents `n+2`) and tile scratchpads
//! (origin = the tile's alloc box corner). All coordinates are global grid
//! indices, so tap addressing is uniform regardless of where values live.
//!
//! The element type is a parameter ([`Elem`]): `f64` everywhere, and `f32`
//! for the mixed-precision smoother chain, whose steps run through the same
//! sweep and row body as every `f64` stage.
//!
//! **Bound once, swept whole.** A stage kernel is *bound* (`Bound`) once
//! per stage and engine, at the engine's first run: everything a case
//! execution could re-derive is decided there — each linear case's sweep
//! instance (for the tier, the arity, the stride shape and whether it has
//! coefficient rows), each cursor's read in every axis and its advance per
//! point, row and plane, the coefficient-row dedupe, and the
//! `gmg_trace::dispatch` class, family and tier the case counts as. A case execution then works out only
//! what depends on the view: the first point matching the case's parity,
//! the point, row and plane counts, and each cursor's base offset — integer
//! multiply-adds — and makes *one* call, into the sweep instance, which
//! runs every row of every plane (of every x-slab) itself. Between rows
//! only the row pointers move.
//!
//! **One check per sweep.** The sweep reads and writes through raw
//! pointers. Its soundness rests on one check per cursor and one for the
//! output, made before the first point in release builds too
//! (`footprint`): the first and the last element the sweep touches
//! through it — first point of the first row of the first plane, last point
//! of the last row of the last plane — lie in that buffer. Every advance is
//! non-negative (binding rejects any other access), so every element in
//! between does too.
//!
//! Every row of every tier is one body, `row_body`: its tap arity is a
//! compile-time constant, and it is generic over a *lane* (how many
//! consecutive points of which element type one pass computes), an
//! *accumulation rule* (how a point's terms are summed) and the source of
//! each tap's weight and value — a literal coefficient, or `coeff · a[i]`
//! read from a coefficient row (variable-coefficient operators):
//!
//! | element, tier | unit-stride plain rows | unit-stride coefficient rows | strided plain rows |
//! |---|---|---|---|
//! | `f64`, `Scalar` | lane `f64`, rule `EXACT` | lane `f64`, `EXACT` | lane `f64`, `EXACT` |
//! | `f64`, `LaneSafe` | lanes `[Avx2; 2]` → `Avx2` → `f64`, `EXACT` | the same lanes, `EXACT` | the same lanes, `EXACT` |
//! | `f64`, `FastMath` | lanes `[Avx2; 2]` → `Avx2` → `f64`, `FUSED` | the same lanes, `EXACT` | the same lanes, `EXACT` |
//! | `f32`, any tier | lane `f32`, `EXACT` | lane `f32`, `EXACT` | lane `f32`, `EXACT` |
//!
//! (the `Generic` tag runs its plain rows at tier `Scalar` and its
//! coefficient rows at its stage's tier; a host without AVX2+FMA runs the
//! `f64` lane tiers at lane `f64`, `FastMath` under `UNFUSED` — the host is
//! asked once, at binding; rows whose taps differ in stride, and strided
//! coefficient rows, run lane `f64` with each cursor's own stride; an `f32`
//! case runs and counts as tier `Scalar` whatever its stage's tier).
//! Arities outside the 0..=28 table run `dyn_sweep`, the same chain with a
//! run-time arity; the tests hold every instance to the checked reference
//! loop `dyn_row`. Non-linear cases are evaluated by the expression
//! interpreter.
//!
//! A strided row has one of three (output stride, input stride) shapes:
//! (1, 2) restriction, (2, 1) interpolation, (2, 2) a red-black sweep.

// Index-based loops here mirror the math (multi-slice stencil updates); clippy prefers iterators but the indices are the clearer notation.
#![allow(clippy::needless_range_loop)]

use gmg_ir::{Access, Expr, LinearForm, Operand, Parity, ParityPattern};
use gmg_poly::{Axes, BoxDomain, Interval};
use gmg_trace::dispatch::{Kind, Tally};
use polymg::{KernelBody, KernelImpl, KernelSel, KernelTier, StageKernel};
use sealed::{Linear, Sealed, SweepFn, Walk};
use std::ops::{Add, AddAssign, Mul};

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64 as x86;

/// The element type of a kernel: `f64`, or `f32` for the mixed-precision
/// smoother chain. Lowered biases and coefficients are `f64`; binding
/// rounds them to the element type once, and the expression interpreter
/// evaluates in `f64` and rounds each result. Sealed: these two are all.
pub trait Elem:
    Copy
    + Default
    + PartialEq
    + Send
    + Sync
    + Add<Output = Self>
    + Mul<Output = Self>
    + AddAssign
    + Sealed
{
}

impl Elem for f64 {}
impl Elem for f32 {}

mod sealed {
    use super::{BoundTap, KernelInput, Reach};
    use gmg_ir::Parity;
    use gmg_trace::dispatch::Kind;

    /// What the kernels need of an element type beyond arithmetic, kept off
    /// `Elem`'s public surface and closed to impls elsewhere.
    pub trait Sealed: Sized {
        /// Whether a linear case of this type runs its stage's tier.
        /// `false` (`f32`): every row runs lane `f32` under `EXACT` — the
        /// smoother chain's `acc = bias; acc += c·v` per tap in lowered
        /// order — and never the packed lanes.
        const TIERED: bool;
        /// `x` rounded to this type.
        fn of(x: f64) -> Self;
        /// The value as `f64` (exact).
        fn wide(self) -> f64;
        /// `self · b + c`, rounded once.
        fn mul_add(self, b: Self, c: Self) -> Self;
        /// The sweep instance on the widest packed lane the host runs, for
        /// `K` taps, `N` = 0 (plain) or `K` (coefficient) weights, output
        /// stride `O` and input stride `S` (each 1 or 2) under `RULE`;
        /// `None` where there is none (for `f32`, anywhere). Asked once per
        /// case, at binding.
        fn packed<
            const K: usize,
            const N: usize,
            const O: usize,
            const S: usize,
            const RULE: u8,
        >() -> Option<SweepFn<Self>> {
            None
        }
    }

    /// A sweep instance: every point of every row of every plane of one
    /// linear case execution, x-slab by x-slab.
    ///
    /// # Safety
    ///
    /// The walk's output pointer is valid for every output the sweep
    /// writes (`Linear::run` checks that once), and the host runs the
    /// instance's lane (binding picked it so).
    pub type SweepFn<T> = unsafe fn(&Linear<T>, &Walk<'_, T>);

    /// A linear case bound for element type `T`: all of its execution that
    /// does not depend on the view. Public only so that `packed` can name
    /// it.
    pub struct Linear<T> {
        /// The case's rank (2 or 3), and per axis, outermost of three first
        /// (a 2-D case is a 3-D case of one plane), the parity its points
        /// match and the step between them: 1, or 2 for a pinned parity.
        pub(super) rank: usize,
        pub(super) parity: [Parity; 3],
        pub(super) steps: [i64; 3],
        pub(super) bias: T,
        /// The taps in lowered order, then one cursor per *distinct*
        /// coefficient read, which the taps' `cf` index.
        pub(super) taps: Box<[BoundTap<T>]>,
        pub(super) crows: Box<[Reach]>,
        pub(super) sweep: SweepFn<T>,
        /// What a non-empty execution counts as: its dispatch class, and
        /// the family and tier buckets (0 and 0 when the selection's tier
        /// did not apply).
        pub(super) counts_as: (Kind, usize, usize),
        /// Points per x-slab (`usize::MAX`: the rows are not cut).
        pub(super) xblock: usize,
    }

    /// What one case execution adds to its [`Linear`]: the view.
    pub struct Walk<'a, T> {
        pub(super) ins: &'a [KernelInput<'a, T>],
        /// The sweep's first point and its plane, row and point counts,
        /// outermost of three first.
        pub(super) start: [i64; 3],
        pub(super) counts: [usize; 3],
        /// Points per x-slab (the row length when unblocked).
        pub(super) slab: usize,
        /// The output at the first point, and its advance per row and at
        /// the end of a plane.
        pub(super) out: *mut T,
        pub(super) out_dy: isize,
        pub(super) out_wrap: isize,
    }
}

impl Sealed for f64 {
    const TIERED: bool = true;
    fn of(x: f64) -> f64 {
        x
    }
    fn wide(self) -> f64 {
        self
    }
    /// One instruction only when inlined into an `fma`-enabled function
    /// ([`packed_sweep`]'s remainder); anywhere else a libm call per tap,
    /// which is why hosts without FMA run [`UNFUSED`] instead.
    #[inline(always)]
    fn mul_add(self, b: f64, c: f64) -> f64 {
        f64::mul_add(self, b, c)
    }
    fn packed<const K: usize, const N: usize, const O: usize, const S: usize, const RULE: u8>(
    ) -> Option<SweepFn<f64>> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Some(packed_sweep::<K, N, O, S, RULE>);
        }
        None
    }
}

impl Sealed for f32 {
    const TIERED: bool = false;
    fn of(x: f64) -> f32 {
        x as f32
    }
    fn wide(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn mul_add(self, b: f32, c: f32) -> f32 {
        f32::mul_add(self, b, c)
    }
}

/// A read-only execution space.
#[derive(Clone, Copy)]
pub struct Space<'a, T = f64> {
    pub data: &'a [T],
    /// Global coordinate of `data[0]`, outermost first.
    pub origin: &'a [i64],
    /// View extents, outermost first (row-major, densely packed).
    pub extents: &'a [i64],
}

impl<T: Copy> Space<'_, T> {
    /// Flat index of a global coordinate; `None` when outside the view.
    pub fn index(&self, p: &[i64]) -> Option<usize> {
        let mut idx = 0usize;
        for (d, &x) in p.iter().enumerate() {
            let rel = x - self.origin[d];
            if rel < 0 || rel >= self.extents[d] {
                return None;
            }
            idx = idx * self.extents[d] as usize + rel as usize;
        }
        Some(idx)
    }

    /// Value at a global coordinate, or `boundary` outside the view.
    pub fn at_or(&self, p: &[i64], boundary: T) -> T {
        self.index(p).map_or(boundary, |i| self.data[i])
    }
}

/// A mutable execution space.
pub struct SpaceMut<'a, T = f64> {
    pub data: &'a mut [T],
    pub origin: &'a [i64],
    pub extents: &'a [i64],
}

/// One input slot of a stage at execution time.
#[derive(Clone, Copy)]
pub enum KernelInput<'a, T = f64> {
    Grid(Space<'a, T>),
    /// The implicit zero grid (reads yield the boundary value 0).
    Zero,
}

/// The first point of `region` matching `parity` on every axis, the step
/// between matching points and how many match, over the box's three slots
/// (a 2-D region is one plane; `parity` is padded like the slots, with
/// [`Parity::Any`]); `None` when no point does.
fn sweep_axes(
    region: &BoxDomain,
    parity: &[Parity; 3],
) -> Option<([i64; 3], [i64; 3], [usize; 3])> {
    let (mut start, mut steps, mut counts) = ([0; 3], [1; 3], [1; 3]);
    for (d, (iv, &p)) in region.0.slots().iter().zip(parity).enumerate() {
        let (s, step) = match p {
            Parity::Any => (iv.lo, 1),
            Parity::Even => (iv.lo + iv.lo.rem_euclid(2), 2),
            Parity::Odd => (iv.lo + 1 - iv.lo.rem_euclid(2), 2),
        };
        if s > iv.hi {
            return None;
        }
        (start[d], steps[d], counts[d]) = (s, step, ((iv.hi - s) / step + 1) as usize);
    }
    Some((start, steps, counts))
}

/// Where a kernel writes.
///
/// `Dense` is an exclusive window (scratchpads, untiled sweeps). `Shared`
/// writes straight into a full array that other tiles are writing
/// concurrently — through its raw pointer, within the sweep's checked
/// footprint, and soundness rests on the planner's owned-region partition
/// (disjoint boxes per tile).
pub enum KernelOut<'a, T = f64> {
    Dense(SpaceMut<'a, T>),
    Shared {
        out: crate::tilebuf::SharedOut<T>,
        /// Dense array extents; the origin is the global zero.
        extents: &'a [i64],
    },
}

impl<T> KernelOut<'_, T> {
    /// The view as three axes, outermost first (a 2-D view is one plane):
    /// origin, extents, the buffer's length and its first element.
    fn view(&mut self) -> ([i64; 3], [i64; 3], usize, *mut T) {
        let (origin, extents, len, data) = match self {
            KernelOut::Dense(s) => (s.origin, s.extents, s.data.len(), s.data.as_mut_ptr()),
            KernelOut::Shared { out, extents } => (&[][..], *extents, out.len(), out.as_ptr()),
        };
        (pad(origin, 0), pad(extents, 1), len, data)
    }
}

/// `v` (at most three axes, outermost first) right-aligned in three, the
/// missing outer axes `fill`.
fn pad(v: &[i64], fill: i64) -> [i64; 3] {
    let mut p = [fill; 3];
    p[3 - v.len()..].copy_from_slice(v);
    p
}

/// A parity pattern right-aligned in three like a box's slots, the missing
/// outer axes [`Parity::Any`].
fn pad_parity(pattern: &ParityPattern) -> [Parity; 3] {
    let mut p = [Parity::Any; 3];
    p[3 - pattern.0.len()..].copy_from_slice(&pattern.0);
    p
}

/// Execute every case of `kernel` over `region` into a dense window, under
/// a kernel selection (family + tier + block; [`KernelSel::generic`] is the
/// always-correct default). The kernel is bound for this one call; the
/// engine binds each stage once (`Bound`).
///
/// `slot_boundary[k]` is the ghost/boundary value of slot `k`'s producer
/// (reads outside a producer's view resolve to it — only the interpreter
/// path can take that branch; linear taps are in-view by construction).
pub fn execute_stage_sel<T: Elem>(
    sel: KernelSel,
    kernel: &StageKernel,
    region: &BoxDomain,
    out: &mut SpaceMut<'_, T>,
    ins: &[KernelInput<'_, T>],
    slot_boundary: &[f64],
) {
    let dense = KernelOut::Dense(SpaceMut {
        data: &mut *out.data,
        ..*out
    });
    let mut tally = Tally::default();
    Bound::new(sel, kernel).run(region, dense, ins, slot_boundary, &mut tally);
    tally.publish();
}

/// A stage kernel bound for element type `T` under a selection: one entry
/// per case, in order.
///
/// A non-[`Generic`](KernelImpl::Generic) family runs the selection's tier,
/// provided the case's arity has an instance in the table; anything else
/// (interpreted cases, arities above the table) runs the generic selection
/// and is counted in the histograms' `generic`/`scalar` buckets. Stages
/// with coefficient taps are tagged `Generic` and run their tier on
/// unit-stride rows. Only the fast-math tier's results differ from the
/// generic path's, and only on unit-stride plain rows.
pub(crate) struct Bound<T>(Box<[Case<T>]>);

enum Case<T> {
    Linear(Linear<T>),
    /// The expression, and its parity padded to three axes.
    Interpreted(Expr, [Parity; 3]),
}

impl<T: Elem> Bound<T> {
    /// Bind every case of `kernel` under `sel`. An element type without
    /// tiers (`f32`) runs, and counts as, the selection's family at
    /// [`KernelTier::Scalar`].
    pub(crate) fn new(sel: KernelSel, kernel: &StageKernel) -> Bound<T> {
        let tier = if T::TIERED {
            sel.tier
        } else {
            KernelTier::Scalar
        };
        let sel = KernelSel { tier, ..sel };
        let cases = kernel.cases.iter().map(|case| match &case.body {
            KernelBody::Linear(form) => Case::Linear(Linear::new(sel, form, &case.pattern)),
            KernelBody::Interpreted(expr) => {
                Case::Interpreted(expr.clone(), pad_parity(&case.pattern))
            }
        });
        Bound(cases.collect())
    }

    /// Execute every case over `region` (global coordinates, outermost
    /// first) into `out`, counting each execution in `tally`.
    pub(crate) fn run(
        &self,
        region: &BoxDomain,
        mut out: KernelOut<'_, T>,
        ins: &[KernelInput<'_, T>],
        slot_boundary: &[f64],
        tally: &mut Tally,
    ) {
        if region.is_empty() {
            return;
        }
        for case in self.0.iter() {
            match case {
                Case::Linear(form) => form.run(region, &mut out, ins, tally),
                Case::Interpreted(expr, parity) => {
                    tally.note(Kind::Interpreter, 0, 0);
                    interpret_case(expr, parity, region, &mut out, ins, slot_boundary)
                }
            }
        }
    }
}

/// How a cursor reads its input, fixed at binding: the slot, and per axis
/// (outermost of three first) the read `(num·x + off) >> shift` of the
/// output coordinate `x` (`shift` 1 for a `/2` access: the floor of the
/// half) and how far that read moves per step of the sweep along the axis.
/// The last axis's move is the cursor's stride within a row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Reach {
    slot: usize,
    axes: [(i64, i64, u32); 3],
    moves: [i64; 3],
}

/// A bound tap: its read, its coefficient in the element type, and the
/// index of the coefficient row that scales it, if any.
pub(crate) struct BoundTap<T> {
    reach: Reach,
    coeff: T,
    cf: Option<usize>,
}

/// A cursor as a sweep instance holds it: the value at point `k` of the
/// current row is `*at.add(k·slope)`; `at` moves by `dy` per row and by
/// `wrap` more at the end of a plane (one possibly negative step back to
/// the next plane's first row). The moves may leave the buffer after its
/// last row, so they are wrapping; no element outside it is read.
#[derive(Clone, Copy)]
pub(crate) struct Cursor<T> {
    at: *const T,
    slope: usize,
    dy: isize,
    wrap: isize,
}

impl<T> Cursor<T> {
    /// On to the next row: `dy`, and `wrap` more at the end of a plane.
    #[inline(always)]
    fn next_row(&mut self, plane_ends: bool) {
        self.at = self
            .at
            .wrapping_offset(self.dy + plane_ends as isize * self.wrap);
    }
}

/// The flat index, in a dense view of `extents`, of view coordinate `at`
/// (outermost of three first), and for the coordinate moves `moves` the
/// flat advances a sweep of `counts` makes: at the end of a plane (after its
/// rows' advances), per row and per point. Panics — in release builds too:
/// this is what the sweeps' unchecked accesses rest on — unless the first
/// and the last element a sweep of `counts` planes × rows × points visits
/// lie in `[0, len)`; with every move non-negative, so does every element
/// between them.
fn footprint(
    at: [i64; 3],
    moves: [i64; 3],
    extents: [i64; 3],
    counts: [usize; 3],
    len: usize,
) -> (usize, [isize; 3]) {
    debug_assert!(
        (0..3).all(|d| at[d] >= 0 && at[d] + (counts[d] as i64 - 1) * moves[d] < extents[d]),
        "sweep leaves its view: from {at:?} by {moves:?} × {counts:?} in {extents:?}"
    );
    let strides = [extents[1] * extents[2], extents[2], 1];
    let steps: [i64; 3] = std::array::from_fn(|d| moves[d] * strides[d]);
    let first: i64 = (0..3).map(|d| at[d] * strides[d]).sum();
    let span: i64 = (0..3).map(|d| (counts[d] as i64 - 1) * steps[d]).sum();
    let last = first + span;
    assert!(
        first >= 0 && last < len as i64,
        "sweep footprint [{first}, {last}] leaves its buffer of {len}"
    );
    let wrap = steps[0] - counts[1] as i64 * steps[1];
    (
        first as usize,
        [wrap, steps[1], steps[2]].map(|s| s as isize),
    )
}

impl<T> Walk<'_, T> {
    /// The cursor at `r`'s first read, its whole footprint checked
    /// ([`footprint`]). Not inlined: every sweep instance calls it once per
    /// cursor, and its checks are the same for all.
    #[inline(never)]
    fn cursor(&self, r: &Reach) -> Cursor<T> {
        let KernelInput::Grid(s) = &self.ins[r.slot] else {
            panic!("linear tap reads the zero grid (lowering bug)")
        };
        let (origin, extents) = (pad(s.origin, 0), pad(s.extents, 1));
        let at = std::array::from_fn(|d| {
            let (num, off, shift) = r.axes[d];
            ((num * self.start[d] + off) >> shift) - origin[d]
        });
        let (first, [wrap, dy, slope]) = footprint(at, r.moves, extents, self.counts, s.data.len());
        Cursor {
            // `first < s.data.len()`: `footprint` checked it
            at: s.data[first..].as_ptr(),
            slope: slope as usize,
            dy,
            wrap,
        }
    }
}

impl<T: Elem> Linear<T> {
    /// Bind one linear case: its cursors, its sweep instance, its counts.
    fn new(sel: KernelSel, form: &LinearForm, pattern: &ParityPattern) -> Linear<T> {
        let rank = pattern.0.len();
        assert!(rank == 2 || rank == 3, "unsupported rank {rank}");
        let parity = pad_parity(pattern);
        let steps = parity.map(|p| 1 + (p != Parity::Any) as i64);
        let reach = |slot: usize, access: &Access| {
            assert_eq!(access.0.len(), rank, "access rank");
            let (mut axes, mut moves) = ([(0, 0, 0); 3], [0; 3]);
            for (d, a) in (3 - rank..3).zip(&access.0) {
                // a `/2` read moves one cell per two points, so its axis
                // steps by 2; every read moves forward
                let half = a.den == 2 && a.num == 1 && steps[d] == 2;
                assert!(
                    a.num >= 0 && (a.den == 1 || half),
                    "access {a:?} does not advance evenly along its sweep"
                );
                axes[d] = (a.num, a.off, half as u32);
                moves[d] = if half { 1 } else { a.num * steps[d] };
            }
            Reach { slot, axes, moves }
        };
        let mut reads = Vec::new();
        let taps: Box<[BoundTap<T>]> = form
            .taps
            .iter()
            .map(|t| BoundTap {
                reach: reach(t.slot, &t.access),
                coeff: T::of(t.coeff),
                cf: t.cfactor.as_ref().map(|c| {
                    reads.iter().position(|r| r == &c).unwrap_or_else(|| {
                        reads.push(c);
                        reads.len() - 1
                    })
                }),
            })
            .collect();
        let crows: Box<[Reach]> = reads.iter().map(|c| reach(c.slot, &c.access)).collect();

        // the stride shape: output stride, and the one input stride every
        // cursor shares (0 when they differ)
        let out_slope = steps[2] as usize;
        let mut slopes = taps
            .iter()
            .map(|t| &t.reach)
            .chain(&crows[..])
            .map(|r| r.moves[2]);
        let first = slopes.next().unwrap_or(1);
        let stride = first as usize * slopes.all(|s| s == first) as usize;
        let unit = out_slope == 1 && stride == 1;
        let (arity, scaled) = (taps.len(), !crows.is_empty());

        // the one dispatch decision: the generic tag keeps its plain rows and
        // its strided rows at the scalar tier; arities above the table run
        // the run-time loop
        let in_table = arity <= polymg::specialize::MAX_SPEC_TAPS;
        let tiered = in_table && !(sel.impl_tag == KernelImpl::Generic && (!unit || !scaled));
        let kind = match (scaled, unit, in_table) {
            (true, ..) => Kind::VarCoef,
            (_, false, _) => Kind::Strided,
            (_, _, true) => Kind::UnitUnrolled,
            _ => Kind::UnitFallback,
        };
        let (tier, counts_as) = match tiered {
            true => (sel.tier, (kind, sel.impl_tag.index(), sel.tier.index())),
            false => (KernelTier::Scalar, (kind, 0, 0)),
        };
        // Cache blocking, for unit-stride rows of the lane tiers: each row is
        // cut into `xblock`-point slabs, and all rows and planes of one slab
        // are swept before the next, so a slab's input rows stay
        // cache-resident across the y loop. Per-point arithmetic is untouched
        // (each point sees the same taps in the same order), so blocking is
        // bitwise-transparent.
        let xblock = match sel.xblock {
            b if b > 0 && tier != KernelTier::Scalar && unit => b,
            _ => usize::MAX,
        };
        Linear {
            rank,
            parity,
            steps,
            bias: T::of(form.bias),
            sweep: sweep_fn::<T>(tier, arity, out_slope, stride, scaled),
            taps,
            crows,
            counts_as,
            xblock,
        }
    }

    /// One execution over `region`: the sweep's first point and counts, the
    /// output's footprint checked, then one call into the instance. A case
    /// no point of `region` matches neither runs nor counts.
    fn run(
        &self,
        region: &BoxDomain,
        out: &mut KernelOut<'_, T>,
        ins: &[KernelInput<'_, T>],
        tally: &mut Tally,
    ) {
        assert_eq!(region.ndims(), self.rank, "region rank");
        let Some((start, _, counts)) = sweep_axes(region, &self.parity) else {
            return;
        };
        let (origin, extents, len, data) = out.view();
        let at = std::array::from_fn(|d| start[d] - origin[d]);
        let (first, [out_wrap, out_dy, _]) = footprint(at, self.steps, extents, counts, len);
        tally.note(self.counts_as.0, self.counts_as.1, self.counts_as.2);
        let walk = Walk {
            ins,
            start,
            counts,
            slab: self.xblock.min(counts[2]),
            out: data.wrapping_add(first),
            out_dy,
            out_wrap,
        };
        // SAFETY: `footprint` checked every output the sweep writes; binding
        // picked an instance the host runs, and the instance checks its own
        // cursors.
        unsafe { (self.sweep)(self, &walk) }
    }
}

// ---------------------------------------------------------------------------
// The row body: one loop, generic over arity, lane and accumulation rule
// ---------------------------------------------------------------------------

/// `W` points of a row of element type `E`, computed at once. The impls
/// below are the only per-target code: everything above them is written
/// once against these eight operations.
///
/// # Safety
///
/// Every method requires a host that executes the lane's instructions
/// (an [`Elem`]: any; [`Avx2`]: AVX2 and FMA, which binding detects before
/// it picks [`packed_sweep`]); `load` and `store` also require `p` to be
/// valid for `W` values, `load2` and `store2` for `2·W − 1`.
trait Lane: Copy {
    type E: Elem;
    const W: usize;
    unsafe fn splat(x: Self::E) -> Self;
    unsafe fn load(p: *const Self::E) -> Self;
    unsafe fn store(self, p: *mut Self::E);
    /// The points `p[0], p[2], …, p[2(W − 1)]`, reading nothing past the last.
    unsafe fn load2(p: *const Self::E) -> Self;
    /// Store to `p[0], p[2], …, p[2(W − 1)]`, writing nothing between.
    unsafe fn store2(self, p: *mut Self::E);
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    /// `self · b + c`, rounded once.
    unsafe fn fma(self, b: Self, c: Self) -> Self;
}

/// The scalar lanes, `f64` and `f32`: one point per pass.
impl<T: Elem> Lane for T {
    type E = T;
    const W: usize = 1;
    #[inline(always)]
    unsafe fn splat(x: T) -> T {
        x
    }
    #[inline(always)]
    unsafe fn load(p: *const T) -> T {
        *p
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut T) {
        *p = self
    }
    #[inline(always)]
    unsafe fn load2(p: *const T) -> T {
        *p
    }
    #[inline(always)]
    unsafe fn store2(self, p: *mut T) {
        *p = self
    }
    #[inline(always)]
    unsafe fn add(self, o: T) -> T {
        self + o
    }
    #[inline(always)]
    unsafe fn mul(self, o: T) -> T {
        self * o
    }
    #[inline(always)]
    unsafe fn fma(self, b: T, c: T) -> T {
        Sealed::mul_add(self, b, c)
    }
}

/// The packed lane: four points in one 256-bit register. It is the only
/// packed width, also where AVX-512 is available: on Skylake-SP 512-bit ops
/// trigger licence-based downclocking that penalises the scalar dispatch
/// code between row calls, and on the reference host (an AVX-512 Xeon)
/// 512-bit rows measured the same as 256-bit ones on `smoother2d_dense`
/// (11.0 vs 11.3 ns/point, four alternating pairs).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx2(x86::__m256d);

#[cfg(target_arch = "x86_64")]
impl Lane for Avx2 {
    type E = f64;
    const W: usize = 4;
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        Avx2(x86::_mm256_set1_pd(x))
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Avx2(x86::_mm256_loadu_pd(p))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        x86::_mm256_storeu_pd(p, self.0)
    }
    /// `p[0..4]` and `p[3..7]` interleaved to `(p0, p4, p2, p6)`, then put
    /// in order: `p[0..=6]` is all it reads.
    #[inline(always)]
    unsafe fn load2(p: *const f64) -> Self {
        let (lo, hi) = (x86::_mm256_loadu_pd(p), x86::_mm256_loadu_pd(p.add(3)));
        let mixed = x86::_mm256_shuffle_pd::<0b1010>(lo, hi);
        Avx2(x86::_mm256_permute4x64_pd::<0b11_01_10_00>(mixed))
    }
    #[inline(always)]
    unsafe fn store2(self, p: *mut f64) {
        let lo = x86::_mm256_castpd256_pd128(self.0);
        let hi = x86::_mm256_extractf128_pd::<1>(self.0);
        x86::_mm_storel_pd(p, lo);
        x86::_mm_storeh_pd(p.add(2), lo);
        x86::_mm_storel_pd(p.add(4), hi);
        x86::_mm_storeh_pd(p.add(6), hi)
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        Avx2(x86::_mm256_add_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        Avx2(x86::_mm256_mul_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn fma(self, b: Self, c: Self) -> Self {
        Avx2(x86::_mm256_fmadd_pd(self.0, b.0, c.0))
    }
}

/// Two lanes side by side: `2·W` points whose operations are issued in
/// pairs. A point's chain is serial under the exact rule (that is the
/// bitwise contract) and only two deep under the fused one, but chains of
/// different points are independent — interleaving two vectors hides the
/// add / FMA latency without reassociating anything.
impl<L: Lane> Lane for [L; 2] {
    type E = L::E;
    const W: usize = 2 * L::W;
    #[inline(always)]
    unsafe fn splat(x: L::E) -> Self {
        [L::splat(x); 2]
    }
    #[inline(always)]
    unsafe fn load(p: *const L::E) -> Self {
        [L::load(p), L::load(p.add(L::W))]
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut L::E) {
        self[0].store(p);
        self[1].store(p.add(L::W))
    }
    #[inline(always)]
    unsafe fn load2(p: *const L::E) -> Self {
        [L::load2(p), L::load2(p.add(2 * L::W))]
    }
    #[inline(always)]
    unsafe fn store2(self, p: *mut L::E) {
        self[0].store2(p);
        self[1].store2(p.add(2 * L::W))
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        [self[0].add(o[0]), self[1].add(o[1])]
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        [self[0].mul(o[0]), self[1].mul(o[1])]
    }
    #[inline(always)]
    unsafe fn fma(self, b: Self, c: Self) -> Self {
        [self[0].fma(b[0], c[0]), self[1].fma(b[1], c[1])]
    }
}

/// Accumulation rule *exact*: `acc = bias`, then `acc += weight · value`
/// per tap in lowered order — multiply, then add, never fused. The bitwise
/// contract: every element is `to_bits()`-equal to `dyn_row`'s.
const EXACT: u8 = 0;
/// Accumulation rule *fused*: two partial sums from zero, even taps into
/// the first and odd taps into the second (so an odd arity's leftover lands
/// in the first), each step one FMA, folded `bias + (a0 + a1)`. The
/// fast-math contract: within the reassociation bound of
/// `tests/proptest_fastmath_ulp.rs`, not bitwise.
const FUSED: u8 = 1;
/// [`FUSED`]'s association with each step a multiply then an add: what the
/// fast-math tier runs on a host without FMA.
const UNFUSED: u8 = 2;

/// The row body — the only per-tap accumulate loop besides the run-time
/// reference `dyn_row`. Points `from, from + W, …`
/// while a whole lane fits below `count` are computed and stored
/// `out_slope` apart from `out` (a lane wider than one point stores with
/// `store2` when that is 2); the first point not computed is returned, so a
/// narrower lane can finish the row with the same body. The arity `K` is a
/// compile-time constant (the tap loop unrolls; row pointers and
/// coefficients stay in registers), the lane `L` sets how many points one
/// pass of it covers, `RULE` ([`EXACT`], [`FUSED`], [`UNFUSED`]) how a
/// point's terms are summed, and the closures where tap `j`'s weight and
/// value at point `i` come from: the weight is `coeff`, or `coeff · a[i]`
/// for a coefficient tap, formed first and then multiplied by the value —
/// never `a[i] · Σ`. Plain, coefficient and strided rows of every tier are
/// this one chain, so specialization, lane width and coefficient grids are
/// bitwise-transparent under [`EXACT`] (with `a ≡ 1`, `coeff · 1.0 == coeff`).
///
/// # Safety
///
/// [`Lane`]'s contract for `L`; `out_row` holds the `count` points
/// `out_slope` apart, and `weight`/`value` are readable at every point
/// below `count`. Lanes wider than one point need `out_slope` 1 or 2.
#[inline(always)]
unsafe fn row_body<const K: usize, L: Lane, const RULE: u8>(
    out_row: &mut [L::E],
    out_slope: usize,
    from: usize,
    count: usize,
    bias: L::E,
    weight: impl Fn(usize, usize) -> L,
    value: impl Fn(usize, usize) -> L,
) -> usize {
    debug_assert!(L::W == 1 || out_slope <= 2);
    debug_assert!(count == 0 || (count - 1) * out_slope < out_row.len());
    // a `&mut` row, not a raw pointer: LLVM may then vectorize lane `f64`
    // across points without checking it against every source at run time
    let out = out_row.as_mut_ptr();
    let (b, zero) = (L::splat(bias), L::splat(L::E::of(0.0)));
    // a counted loop: LLVM must see `i < count` to vectorize lane `f64`
    // across points
    let passes = (count - from) / L::W;
    for n in 0..passes {
        let i = from + n * L::W;
        let acc = if RULE == EXACT {
            let mut acc = b;
            for j in 0..K {
                acc = acc.add(weight(j, i).mul(value(j, i)));
            }
            acc
        } else {
            let step = |j: usize, part: L| {
                let (w, v) = (weight(j, i), value(j, i));
                if RULE == FUSED {
                    w.fma(v, part)
                } else {
                    part.add(w.mul(v))
                }
            };
            let (mut a0, mut a1) = (zero, zero);
            let mut j = 0;
            while j + 1 < K {
                a0 = step(j, a0);
                a1 = step(j + 1, a1);
                j += 2;
            }
            if j < K {
                a0 = step(j, a0);
            }
            b.add(a0.add(a1))
        };
        let at = out.add(i * out_slope);
        match out_slope {
            1 => acc.store(at),
            _ => acc.store2(at),
        }
    }
    from + passes * L::W
}

/// The taps of one linear case as a sweep instance holds them: `count`
/// points of the current row stored `O` apart, tap `j`'s value at point `i`
/// read from its cursor at `i·S` (one input stride for every tap; `S = 0`:
/// each cursor's own stride, at a scalar lane only), and its weight
/// `coeff[j]` — or, for a tap `scaled[j]` marks, `coeff[j] · a[j][i]`,
/// formed before it multiplies the value (the association of `dyn_row`).
/// A plain source has neither `a` nor `scaled` (`N = 0`), a scaled one an
/// entry per tap (`N = K`). Only [`UnitTaps::bind`] builds one, from
/// cursors whose whole footprint it checked.
struct UnitTaps<E, const K: usize, const N: usize, const O: usize, const S: usize> {
    count: usize,
    taps: [Cursor<E>; K],
    coeff: [E; K],
    a: [Cursor<E>; N],
    scaled: [bool; N],
}

impl<E: Elem, const K: usize, const N: usize, const O: usize, const S: usize>
    UnitTaps<E, K, N, O, S>
{
    /// The taps of `case` at the walk's first point: one cursor per tap,
    /// and per scaled tap the cursor of the coefficient row its `cf` names
    /// (each distinct row placed once). A tap that is not scaled has its own
    /// value row as `a`: loaded, never selected, so the weight is
    /// branch-free.
    #[inline(always)]
    fn bind(case: &Linear<E>, w: &Walk<'_, E>) -> Self {
        debug_assert!(case.taps.len() == K && (N == K || case.crows.is_empty()));
        let taps: [Cursor<E>; K] = std::array::from_fn(|j| w.cursor(&case.taps[j].reach));
        let crows: [Option<Cursor<E>>; N] =
            std::array::from_fn(|c| case.crows.get(c).map(|r| w.cursor(r)));
        UnitTaps {
            count: 0,
            coeff: std::array::from_fn(|j| case.taps[j].coeff),
            a: std::array::from_fn(|j| case.taps[j].cf.and_then(|c| crows[c]).unwrap_or(taps[j])),
            scaled: std::array::from_fn(|j| case.taps[j].cf.is_some()),
            taps,
        }
    }

    /// Tap `j`'s weight at points `i..i + L::W`.
    ///
    /// # Safety
    ///
    /// [`Lane`]'s contract for `L`; `i + L::W <= count`.
    #[inline(always)]
    unsafe fn weight<L: Lane<E = E>>(&self, j: usize, i: usize) -> L {
        let c = L::splat(self.coeff[j]);
        if N == 0 {
            return c;
        }
        let a = &self.a[j];
        let w = c.mul(L::load(a.at.add(i * if S == 0 { a.slope } else { 1 })));
        if self.scaled[j] {
            w
        } else {
            c
        }
    }

    /// Tap `j`'s values at points `i..i + L::W`, `S` apart in its row.
    ///
    /// # Safety
    ///
    /// [`Lane`]'s contract for `L`; `i + L::W <= count`.
    #[inline(always)]
    unsafe fn value<L: Lane<E = E>>(&self, j: usize, i: usize) -> L {
        let t = &self.taps[j];
        match S {
            0 => L::load(t.at.add(i * t.slope)),
            1 => L::load(t.at.add(i)),
            _ => L::load2(t.at.add(i * S)),
        }
    }

    /// [`row_body`] over these taps at lane `L`, storing its outputs `O`
    /// apart from `out`. Covers the row from point `from` and returns the
    /// first point left over.
    ///
    /// # Safety
    ///
    /// [`Lane`]'s contract for `L`; `out` and the taps' cursors hold the
    /// current row of a checked sweep; `O` and `S` are 1 or 2 (`S` also 0
    /// at a scalar lane).
    #[inline(always)]
    unsafe fn at_lane<L: Lane<E = E>, const RULE: u8>(
        &self,
        out: &mut [E],
        from: usize,
        bias: E,
    ) -> usize {
        debug_assert!(S != 0 || L::W == 1);
        let (weight, value) = (|j, i| self.weight::<L>(j, i), |j, i| self.value::<L>(j, i));
        row_body::<K, L, RULE>(out, O, from, self.count, bias, weight, value)
    }

    /// The sweep's loop: x-slab by x-slab, plane by plane, row by row,
    /// `row` run on each row with its output; between rows only the
    /// cursors and the output move.
    ///
    /// # Safety
    ///
    /// `w.out` is valid for the sweep's outputs, and the cursors are the
    /// ones [`Self::bind`] placed for this walk.
    #[inline(always)]
    unsafe fn each_row(mut self, w: &Walk<'_, E>, mut row: impl FnMut(&Self, &mut [E])) {
        let [planes, rows, count] = w.counts;
        let (taps, a) = (self.taps, self.a);
        let mut start = 0;
        while start < count {
            self.count = (count - start).min(w.slab);
            // a slab starts `start` points into every row
            let skip = |c: Cursor<E>| Cursor {
                at: c.at.wrapping_add(start * c.slope),
                ..c
            };
            (self.taps, self.a) = (taps.map(skip), a.map(skip));
            let mut out = w.out.wrapping_add(start * O);
            for _ in 0..planes {
                for r in 1..=rows {
                    // the row's window: inside the walk's checked output
                    row(
                        &self,
                        std::slice::from_raw_parts_mut(out, (self.count - 1) * O + 1),
                    );
                    let cursors = self.taps.iter_mut().chain(&mut self.a);
                    cursors.for_each(|c| c.next_row(r == rows));
                    out = out.wrapping_offset(w.out_dy + (r == rows) as isize * w.out_wrap);
                }
            }
            start += self.count;
        }
    }
}

/// A sweep instance on the element type's scalar lane under `RULE`: the
/// scalar tier, `f32`, the lane tiers on a host without AVX2+FMA, and the
/// rows the packed lanes do not take (`S = 0`).
///
/// # Safety
///
/// [`SweepFn`]'s contract.
unsafe fn lane_sweep<
    const K: usize,
    const N: usize,
    const O: usize,
    const S: usize,
    const RULE: u8,
    T: Elem,
>(
    case: &Linear<T>,
    w: &Walk<'_, T>,
) {
    let bias = case.bias;
    UnitTaps::<T, K, N, O, S>::bind(case, w).each_row(w, |t, out| {
        t.at_lane::<T, RULE>(out, 0, bias);
    });
}

/// A sweep instance on the packed lane, compiled under `avx2,fma` whole —
/// binding, slab, plane and row loops, and each row's pairs of vectors
/// (see the `[L; 2]` lane) while they fit, one more vector if it fits,
/// then the same body at lane `f64` for the last `count % 4` points, so a
/// fused remainder is still one hardware instruction per tap.
///
/// # Safety
///
/// [`SweepFn`]'s contract: the host has AVX2 and FMA ([`Sealed::packed`]
/// detected them); `O` and `S` are 1 or 2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn packed_sweep<
    const K: usize,
    const N: usize,
    const O: usize,
    const S: usize,
    const RULE: u8,
>(
    case: &Linear<f64>,
    w: &Walk<'_, f64>,
) {
    let bias = case.bias;
    UnitTaps::<f64, K, N, O, S>::bind(case, w).each_row(w, |t, out| {
        let i = t.at_lane::<[Avx2; 2], RULE>(out, 0, bias);
        let i = t.at_lane::<Avx2, RULE>(out, i, bias);
        t.at_lane::<f64, RULE>(out, i, bias);
    });
}

/// The instance of one table arity `K` for a tier, an (output, input)
/// stride shape (input stride 0: the cursors differ) and whether the rows
/// carry coefficient weights. The lane tiers take the packed lane for
/// unit-stride plain rows under their rule, and for coefficient rows and
/// the three strided shapes under [`EXACT`] — fast-math reassociates
/// neither, so both stay bitwise-identical to `dyn_row`; everything else,
/// and every row on a host without a packed lane, runs the scalar lane
/// under [`EXACT`] (fast-math's unit-stride plain rows under [`UNFUSED`]).
fn instance<const K: usize, T: Elem>(
    tier: KernelTier,
    o: usize,
    s: usize,
    scaled: bool,
) -> SweepFn<T> {
    use KernelTier::{FastMath, LaneSafe, Scalar};
    let packed = match (tier, o, s, scaled) {
        (Scalar, ..) => None,
        (LaneSafe, 1, 1, false) => T::packed::<K, 0, 1, 1, EXACT>(),
        (FastMath, 1, 1, false) => T::packed::<K, 0, 1, 1, FUSED>(),
        (_, 1, 1, true) => T::packed::<K, K, 1, 1, EXACT>(),
        (_, 1, 2, false) => T::packed::<K, 0, 1, 2, EXACT>(),
        (_, 2, 1, false) => T::packed::<K, 0, 2, 1, EXACT>(),
        (_, 2, 2, false) => T::packed::<K, 0, 2, 2, EXACT>(),
        _ => None,
    };
    packed.unwrap_or(match (tier, o, s, scaled) {
        (FastMath, 1, 1, false) if T::TIERED => lane_sweep::<K, 0, 1, 1, UNFUSED, T>,
        (_, 1, 1, false) => lane_sweep::<K, 0, 1, 1, EXACT, T>,
        (_, 1, 1, true) => lane_sweep::<K, K, 1, 1, EXACT, T>,
        (_, 1, _, false) => lane_sweep::<K, 0, 1, 0, EXACT, T>,
        (_, _, _, false) => lane_sweep::<K, 0, 2, 0, EXACT, T>,
        (_, 1, _, true) => lane_sweep::<K, K, 1, 0, EXACT, T>,
        _ => lane_sweep::<K, K, 2, 0, EXACT, T>,
    })
}

/// The sweep instance of a case: the table's for arities up to
/// `polymg::specialize::MAX_SPEC_TAPS` (= 28), whose classifier tags wider
/// kernels generic, and the run-time loop [`dyn_sweep`] beyond.
fn sweep_fn<T: Elem>(
    tier: KernelTier,
    arity: usize,
    o: usize,
    s: usize,
    scaled: bool,
) -> SweepFn<T> {
    macro_rules! table {
        ($($k:literal)*) => {
            match arity {
                $($k => instance::<$k, T>(tier, o, s, scaled),)*
                _ => dyn_sweep::<T>,
            }
        };
    }
    table!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28)
}

/// The sweep of arities outside the table: the row body's chain under
/// [`EXACT`], with run-time arity and strides, one point at a time.
///
/// # Safety
///
/// [`SweepFn`]'s contract.
unsafe fn dyn_sweep<T: Elem>(case: &Linear<T>, w: &Walk<'_, T>) {
    let [planes, rows, count] = w.counts;
    let crows: Vec<Cursor<T>> = case.crows.iter().map(|r| w.cursor(r)).collect();
    // per tap, its cursor and its weight row's (its own when not scaled)
    let place = |t: &BoundTap<T>| (w.cursor(&t.reach), t.cf.map(|f| crows[f]));
    let mut cursors: Vec<_> = case.taps.iter().map(place).collect();
    let read = |c: &Cursor<T>, k: usize| *c.at.add(k * c.slope);
    let mut out = w.out;
    for _ in 0..planes {
        for r in 1..=rows {
            for k in 0..count {
                let mut acc = case.bias;
                for (t, (v, a)) in case.taps.iter().zip(&cursors) {
                    let weight = a.as_ref().map_or(t.coeff, |a| t.coeff * read(a, k));
                    acc += weight * read(v, k);
                }
                *out.add(k * case.steps[2] as usize) = acc;
            }
            for (v, a) in &mut cursors {
                v.next_row(r == rows);
                a.iter_mut().for_each(|a| a.next_row(r == rows));
            }
            out = out.wrapping_offset(w.out_dy + (r == rows) as isize * w.out_wrap);
        }
    }
}

/// `len` copies of `fill` as a slice that lives on the stack while
/// `len <= N` and on the heap beyond: what a tile loop uses where a `Vec`
/// per stage would be an allocation per tile.
pub(crate) struct Inline<T, const N: usize> {
    stack: [T; N],
    heap: Vec<T>,
    len: usize,
}

impl<T: Copy, const N: usize> Inline<T, N> {
    pub(crate) fn new(len: usize, fill: T) -> Self {
        Inline {
            stack: [fill; N],
            heap: if len > N { vec![fill; len] } else { Vec::new() },
            len,
        }
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        if self.len > N {
            &mut self.heap
        } else {
            &mut self.stack[..self.len]
        }
    }
}

/// Interpreter fallback: evaluate the expression per point, in `f64`.
fn interpret_case<T: Elem>(
    expr: &Expr,
    parity: &[Parity; 3],
    region: &BoxDomain,
    out: &mut KernelOut<'_, T>,
    ins: &[KernelInput<'_, T>],
    slot_boundary: &[f64],
) {
    let nd = region.ndims();
    let (origin, extents, len, data) = out.view();
    let Some((start, steps, counts)) = sweep_axes(region, parity) else {
        return;
    };
    for k in 0..counts.iter().product() {
        let at = [
            k / (counts[1] * counts[2]),
            k / counts[2] % counts[1],
            k % counts[2],
        ];
        let p: [i64; 3] = std::array::from_fn(|d| start[d] + at[d] as i64 * steps[d]);
        let v = expr.eval_at(&p[3 - nd..], &mut |op, idx| {
            let Operand::Slot(k) = op else {
                panic!("unresolved operand at execution time")
            };
            match &ins[*k] {
                KernelInput::Grid(s) => s.at_or(idx, T::of(slot_boundary[*k])).wide(),
                KernelInput::Zero => slot_boundary[*k],
            }
        });
        let flat =
            ((p[0] - origin[0]) * extents[1] + p[1] - origin[1]) * extents[2] + p[2] - origin[2];
        assert!(
            0 <= flat && flat < len as i64,
            "point {p:?} outside the output"
        );
        // SAFETY: checked just above; a shared output's concurrent writers
        // cover disjoint owned boxes
        unsafe { *data.add(flat as usize) = T::of(v) };
    }
}

/// Fill every cell of a dense box *outside* `inner` (global coordinates)
/// with `value` — a scratchpad's halo (the ghost/boundary ring of a tile's
/// alloc box) or a full array's ghost ring, of any element type. The box
/// holds `extents` cells from global coordinate `origin`, outermost first,
/// one per axis of `inner`.
///
/// Only the rim `box ∖ inner` is written: whole planes and rows outside
/// `inner`'s outer ranges, the two x-margins of the rows inside them, and
/// nothing when `inner` covers the box. A 2-D box is a 3-D box with one
/// plane.
pub fn fill_rim<T: Copy>(
    data: &mut [T],
    origin: &[i64],
    extents: &[i64],
    inner: &BoxDomain,
    value: T,
) {
    assert_eq!(origin.len(), inner.ndims(), "rank mismatch");
    let (origin, extents) = (pad(origin, 0), pad(extents, 1));
    // `inner` per axis as a half-open range of box-relative indices,
    // clamped to the box; `None` when no cell of the box is inside
    let within = |d: usize| -> Option<(usize, usize)> {
        let iv = inner.0.slots()[d];
        let lo = (iv.lo - origin[d]).max(0);
        let hi = (iv.hi - origin[d] + 1).min(extents[d]);
        (lo < hi).then_some((lo as usize, hi as usize))
    };
    let [ez, ey, ex] = extents.map(|e| e as usize);
    let plane = ey * ex;
    let data = &mut data[..ez * plane];
    let (Some((z0, z1)), Some((y0, y1)), Some((x0, x1))) = (within(0), within(1), within(2)) else {
        return data.fill(value);
    };
    data[..z0 * plane].fill(value);
    data[z1 * plane..].fill(value);
    for p in data[z0 * plane..z1 * plane].chunks_exact_mut(plane) {
        p[..y0 * ex].fill(value);
        p[y1 * ex..].fill(value);
        if x0 > 0 || x1 < ex {
            for row in p[y0 * ex..y1 * ex].chunks_exact_mut(ex) {
                row[..x0].fill(value);
                row[x1..].fill(value);
            }
        }
    }
}

/// Fill the ghost ring (every cell outside the interior box `[1, e-2]`) of
/// a dense origin-0 array.
pub fn fill_ghost<T: Copy>(data: &mut [T], extents: &[i64], value: T) {
    let nd = extents.len();
    let interior = BoxDomain(Axes::from_fn(nd, |d| Interval::new(1, extents[d] - 2)));
    fill_rim(data, &[0; 3][..nd], extents, &interior, value);
}

/// Walk the rows of `region` (global coordinates) in two dense views of its
/// rank, each given as `(origin, extents)`, outermost first: `row(s, d, w)`
/// for each row, which starts at flat index `s` of `src` and `d` of `dst` and
/// is `w` cells wide. A 2-D box is a 3-D box with one plane.
pub(crate) fn box_rows(
    src: (&[i64], &[i64]),
    dst: (&[i64], &[i64]),
    region: &BoxDomain,
    mut row: impl FnMut(usize, usize, usize),
) {
    if region.is_empty() {
        return;
    }
    let [planes, rows, x] = *region.0.slots();
    let view = |(origin, extents): (&[i64], &[i64])| (pad(origin, 0), pad(extents, 1));
    let (src, dst) = (view(src), view(dst));
    // flat index of `(z, y, x.lo)` in a view
    let at = |(o, e): ([i64; 3], [i64; 3]), z: i64, y: i64| {
        (((z - o[0]) * e[1] + y - o[1]) * e[2] + x.lo - o[2]) as usize
    };
    let w = x.len() as usize;
    for z in planes.lo..=planes.hi {
        for y in rows.lo..=rows.hi {
            row(at(src, z, y), at(dst, z, y), w);
        }
    }
}

/// Copy `region` (global coordinates) from `src` to `dst`, converting each
/// value to the destination's element type (`f32` → `f64` widens exactly).
/// A 2-D box is a 3-D box with one plane.
pub fn copy_box<S: Elem, D: Elem>(
    src: &Space<'_, S>,
    dst: &mut SpaceMut<'_, D>,
    region: &BoxDomain,
) {
    box_rows(
        (src.origin, src.extents),
        (dst.origin, dst.extents),
        region,
        |sb, db, w| {
            for (d, s) in dst.data[db..db + w].iter_mut().zip(&src.data[sb..sb + w]) {
                *d = D::of(s.wide());
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_ir::{AxisAccess, Tap};
    use gmg_poly::Interval;
    use polymg::{KernelCase, StageKernel};

    fn space<'a>(data: &'a [f64], origin: &'a [i64], extents: &'a [i64]) -> Space<'a> {
        Space {
            data,
            origin,
            extents,
        }
    }

    #[test]
    fn space_indexing() {
        let data: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let s = space(&data, &[2, 3], &[4, 5]);
        assert_eq!(s.index(&[2, 3]), Some(0));
        assert_eq!(s.index(&[3, 4]), Some(6));
        assert_eq!(s.index(&[1, 3]), None);
        assert_eq!(s.index(&[2, 8]), None);
        assert_eq!(s.at_or(&[3, 4], -1.0), 6.0);
        assert_eq!(s.at_or(&[0, 0], -1.0), -1.0);
    }

    fn stencil_kernel_2d() -> StageKernel {
        // out = 0.25 * (in(y,x-1) + in(y,x+1) + in(y-1,x) + in(y+1,x))
        let tap = |oy: i64, ox: i64| Tap {
            slot: 0,
            access: Access::offsets(&[oy, ox]),
            coeff: 0.25,
            cfactor: None,
        };
        StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(2),
                body: KernelBody::Linear(LinearForm {
                    bias: 0.0,
                    taps: vec![tap(0, -1), tap(0, 1), tap(-1, 0), tap(1, 0)],
                }),
            }],
        }
    }

    #[test]
    fn unit_stride_stencil_2d() {
        // 6x6 input (origin 0), linear field f(y,x) = 10y + x: the 4-point
        // average equals the centre value.
        let n = 4i64;
        let input: Vec<f64> = (0..36).map(|i| (10 * (i / 6) + i % 6) as f64).collect();
        let mut outbuf = vec![0.0; 36];
        let origin = [0i64, 0];
        let ext = [6i64, 6];
        let region = BoxDomain::interior(2, n);
        let k = stencil_kernel_2d();
        {
            let mut out = SpaceMut {
                data: &mut outbuf,
                origin: &origin,
                extents: &ext,
            };
            let ins = [KernelInput::Grid(space(&input, &origin, &ext))];
            execute_stage_sel(KernelSel::generic(), &k, &region, &mut out, &ins, &[0.0]);
        }
        for y in 1..=n {
            for x in 1..=n {
                let got = outbuf[(y * 6 + x) as usize];
                assert!(
                    (got - (10 * y + x) as f64).abs() < 1e-12,
                    "at ({y},{x}): {got}"
                );
            }
        }
        // ghost untouched
        assert_eq!(outbuf[0], 0.0);
    }

    #[test]
    fn scratch_offset_output() {
        // Output into a small window with non-zero origin.
        let input: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let iorigin = [0i64, 0];
        let iext = [8i64, 8];
        let mut scratch = vec![-1.0; 3 * 4];
        let sorigin = [2i64, 3];
        let sext = [3i64, 4];
        let region = BoxDomain::new(vec![Interval::new(2, 4), Interval::new(3, 6)]);
        let k = stencil_kernel_2d();
        {
            let mut out = SpaceMut {
                data: &mut scratch,
                origin: &sorigin,
                extents: &sext,
            };
            let ins = [KernelInput::Grid(space(&input, &iorigin, &iext))];
            execute_stage_sel(KernelSel::generic(), &k, &region, &mut out, &ins, &[0.0]);
        }
        // f(y,x) = 8y + x is linear → average = centre
        for y in 2..=4i64 {
            for x in 3..=6i64 {
                let got = scratch[((y - 2) * 4 + (x - 3)) as usize];
                assert!((got - (8 * y + x) as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn restrict_strided_reads() {
        // out(y,x) = in(2y, 2x): stride-2 taps.
        let input: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let iorigin = [0i64, 0];
        let iext = [10i64, 10];
        let mut outbuf = vec![0.0; 36];
        let oorigin = [0i64, 0];
        let oext = [6i64, 6];
        let k = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(2),
                body: KernelBody::Linear(LinearForm {
                    bias: 0.0,
                    taps: vec![Tap {
                        slot: 0,
                        access: Access(vec![AxisAccess::down(0), AxisAccess::down(0)]),
                        coeff: 1.0,
                        cfactor: None,
                    }],
                }),
            }],
        };
        let region = BoxDomain::interior(2, 4);
        {
            let mut out = SpaceMut {
                data: &mut outbuf,
                origin: &oorigin,
                extents: &oext,
            };
            let ins = [KernelInput::Grid(space(&input, &iorigin, &iext))];
            execute_stage_sel(KernelSel::generic(), &k, &region, &mut out, &ins, &[0.0]);
        }
        for y in 1..=4i64 {
            for x in 1..=4i64 {
                assert_eq!(outbuf[(y * 6 + x) as usize], (2 * y * 10 + 2 * x) as f64);
            }
        }
    }

    #[test]
    fn parity_case_interp_1d_like() {
        // 2-D interp in x only: even x copies in(y, x/2), odd x averages.
        let input: Vec<f64> = (0..36).map(|i| (i % 6) as f64).collect(); // f = x
        let iorigin = [0i64, 0];
        let iext = [6i64, 6];
        let mut outbuf = vec![0.0; 12 * 12];
        let oorigin = [0i64, 0];
        let oext = [12i64, 12];
        let even = KernelCase {
            pattern: ParityPattern(vec![Parity::Any, Parity::Even]),
            body: KernelBody::Linear(LinearForm {
                bias: 0.0,
                taps: vec![Tap {
                    slot: 0,
                    access: Access(vec![AxisAccess::offset(0), AxisAccess::up(0)]),
                    coeff: 1.0,
                    cfactor: None,
                }],
            }),
        };
        let odd = KernelCase {
            pattern: ParityPattern(vec![Parity::Any, Parity::Odd]),
            body: KernelBody::Linear(LinearForm {
                bias: 0.0,
                taps: vec![
                    Tap {
                        slot: 0,
                        access: Access(vec![AxisAccess::offset(0), AxisAccess::up(-1)]),
                        coeff: 0.5,
                        cfactor: None,
                    },
                    Tap {
                        slot: 0,
                        access: Access(vec![AxisAccess::offset(0), AxisAccess::up(1)]),
                        coeff: 0.5,
                        cfactor: None,
                    },
                ],
            }),
        };
        let k = StageKernel {
            cases: vec![even, odd],
        };
        // region rows map back into input rows directly (offset 0 access):
        // keep y within the input's rows.
        let region = BoxDomain::new(vec![Interval::new(1, 5), Interval::new(2, 9)]);
        {
            let mut out = SpaceMut {
                data: &mut outbuf,
                origin: &oorigin,
                extents: &oext,
            };
            let ins = [KernelInput::Grid(space(&input, &iorigin, &iext))];
            execute_stage_sel(KernelSel::generic(), &k, &region, &mut out, &ins, &[0.0]);
        }
        for y in 1..=5i64 {
            for x in 2..=9i64 {
                let got = outbuf[(y * 12 + x) as usize];
                let want = x as f64 / 2.0;
                assert!((got - want).abs() < 1e-12, "({y},{x}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn interpreter_matches_linear() {
        // the same 4-point average via the interpreter
        let input: Vec<f64> = (0..36).map(|i| ((i * 7) % 11) as f64).collect();
        let origin = [0i64, 0];
        let ext = [6i64, 6];
        let region = BoxDomain::interior(2, 4);
        let lin = stencil_kernel_2d();
        let op = Operand::Slot(0);
        let expr = 0.25 * (op.at(&[0, -1]) + op.at(&[0, 1]) + op.at(&[-1, 0]) + op.at(&[1, 0]));
        let itp = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(2),
                body: KernelBody::Interpreted(expr),
            }],
        };
        let mut a = vec![0.0; 36];
        let mut b = vec![0.0; 36];
        for (k, buf) in [(&lin, &mut a), (&itp, &mut b)] {
            let mut out = SpaceMut {
                data: buf,
                origin: &origin,
                extents: &ext,
            };
            let ins = [KernelInput::Grid(space(&input, &origin, &ext))];
            execute_stage_sel(KernelSel::generic(), k, &region, &mut out, &ins, &[0.0]);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn linear_3d_seven_point() {
        let n = 3i64;
        let e = n + 2;
        let input: Vec<f64> = (0..e * e * e)
            .map(|i| {
                let z = i / (e * e);
                let y = (i / e) % e;
                let x = i % e;
                (100 * z + 10 * y + x) as f64
            })
            .collect();
        let mut outbuf = vec![0.0; (e * e * e) as usize];
        let origin = [0i64, 0, 0];
        let ext = [e, e, e];
        let tap = |o: [i64; 3], c: f64| Tap {
            slot: 0,
            access: Access::offsets(&o),
            coeff: c,
            cfactor: None,
        };
        let k = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(3),
                body: KernelBody::Linear(LinearForm {
                    bias: 0.0,
                    taps: vec![
                        tap([0, 0, -1], 1.0 / 6.0),
                        tap([0, 0, 1], 1.0 / 6.0),
                        tap([0, -1, 0], 1.0 / 6.0),
                        tap([0, 1, 0], 1.0 / 6.0),
                        tap([-1, 0, 0], 1.0 / 6.0),
                        tap([1, 0, 0], 1.0 / 6.0),
                    ],
                }),
            }],
        };
        let region = BoxDomain::interior(3, n);
        {
            let mut out = SpaceMut {
                data: &mut outbuf,
                origin: &origin,
                extents: &ext,
            };
            let ins = [KernelInput::Grid(space(&input, &origin, &ext))];
            execute_stage_sel(KernelSel::generic(), &k, &region, &mut out, &ins, &[0.0]);
        }
        for z in 1..=n {
            for y in 1..=n {
                for x in 1..=n {
                    let got = outbuf[((z * e + y) * e + x) as usize];
                    let want = (100 * z + 10 * y + x) as f64;
                    assert!((got - want).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn fill_outside_2d() {
        let mut buf = vec![1.0; 25];
        let origin = [0i64, 0];
        let ext = [5i64, 5];
        let inner = BoxDomain::new(vec![Interval::new(1, 3), Interval::new(2, 3)]);
        fill_rim(&mut buf, &origin, &ext, &inner, 9.0);
        for y in 0..5i64 {
            for x in 0..5i64 {
                let v = buf[(y * 5 + x) as usize];
                if inner.contains_point(&[y, x]) {
                    assert_eq!(v, 1.0);
                } else {
                    assert_eq!(v, 9.0);
                }
            }
        }
    }

    #[test]
    fn fill_outside_3d_and_copy_box() {
        let mut buf = vec![1.0; 27];
        let origin = [0i64, 0, 0];
        let ext = [3i64, 3, 3];
        let inner = BoxDomain::new(vec![
            Interval::new(1, 1),
            Interval::new(1, 1),
            Interval::new(1, 1),
        ]);
        fill_rim(&mut buf, &origin, &ext, &inner, 0.0);
        assert_eq!(buf.iter().filter(|&&v| v == 1.0).count(), 1);
        assert_eq!(buf[13], 1.0);

        // copy the centre into another 3D space
        let mut dst = vec![0.0; 27];
        {
            let s = space(&buf, &origin, &ext);
            let mut d = SpaceMut {
                data: &mut dst,
                origin: &origin,
                extents: &ext,
            };
            copy_box(&s, &mut d, &inner);
        }
        assert_eq!(dst[13], 1.0);
        assert_eq!(dst.iter().sum::<f64>(), 1.0);
    }

    /// `fill_rim` by its definition, one question per cell — the loop the
    /// rim fill replaced.
    fn fill_rim_per_cell(
        data: &mut [f64],
        origin: &[i64],
        extents: &[i64],
        inner: &[Interval],
        value: f64,
    ) {
        let inner = BoxDomain::new(inner.to_vec());
        let cells: i64 = extents.iter().product();
        for (i, v) in data[..cells as usize].iter_mut().enumerate() {
            let mut rest = i as i64;
            let mut point = vec![0i64; origin.len()];
            for d in (0..origin.len()).rev() {
                point[d] = origin[d] + rest % extents[d];
                rest /= extents[d];
            }
            if !inner.contains_point(&point) {
                *v = value;
            }
        }
    }

    #[test]
    fn ghost_fill_touches_only_the_ring() {
        let ext = [4i64, 5];
        let mut a = vec![1.0f32; 20];
        fill_ghost(&mut a, &ext, 9.0);
        for y in 0..4i64 {
            for x in 0..5i64 {
                let ghost = y == 0 || y == 3 || x == 0 || x == 4;
                let v = a[(y * 5 + x) as usize];
                assert_eq!(v, if ghost { 9.0 } else { 1.0 }, "({y},{x})");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// Random boxes of both ranks against every kind of `inner`: empty,
        /// equal to the box, touching one face, one cell, and boxes that
        /// stick out past any side (or miss the box altogether). Cells
        /// outside `inner` take the value, cells inside keep the sentinel's
        /// bits.
        #[test]
        fn fill_outside_matches_its_definition(
            nd in 2usize..4,
            extents in proptest::collection::vec(1i64..7, 3),
            origin in proptest::collection::vec(-3i64..4, 3),
            shape in 0usize..6,
            face in 0usize..6,
            at in proptest::collection::vec(-3i64..9, 3),
            len in proptest::collection::vec(0i64..10, 3),
        ) {
            let (extents, origin) = (&extents[..nd], &origin[..nd]);
            let whole = |d: usize| Interval::new(origin[d], origin[d] + extents[d] - 1);
            let inner = BoxDomain::new(
                (0..nd)
                    .map(|d| match shape {
                        0 => Interval::empty(),
                        1 => whole(d),
                        // one cell in from every face but `face`
                        2 => {
                            let w = whole(d);
                            let (lo, hi) = (face == 2 * d, face == 2 * d + 1);
                            Interval::new(w.lo + !lo as i64, w.hi - !hi as i64)
                        }
                        3 => {
                            let x = origin[d] + at[d].rem_euclid(extents[d]);
                            Interval::new(x, x)
                        }
                        _ => Interval::new(origin[d] + at[d], origin[d] + at[d] + len[d] - 1),
                    })
                    .collect(),
            );
            let sentinel = f64::from_bits(0x7ff8_0000_0bad_cafe);
            let cells = extents.iter().product::<i64>() as usize;
            let (mut got, mut want) = (vec![sentinel; cells], vec![sentinel; cells]);
            fill_rim(&mut got, origin, extents, &inner, -2.5);
            fill_rim_per_cell(&mut want, origin, extents, &inner.0, -2.5);
            let bits = |b: &[f64]| b.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(
                bits(&got),
                bits(&want),
                "origin {:?} extents {:?} inner {:?}",
                origin,
                extents,
                inner
            );
        }
    }

    #[test]
    fn copy_box_2d_offset_spaces() {
        let src_data: Vec<f64> = (0..36).map(|i| i as f64).collect();
        let sorigin = [0i64, 0];
        let sext = [6i64, 6];
        let mut dd = vec![0.0; 9];
        let dorigin = [2i64, 2];
        let dext = [3i64, 3];
        let region = BoxDomain::new(vec![Interval::new(2, 4), Interval::new(2, 4)]);
        {
            let s = space(&src_data, &sorigin, &sext);
            let mut d = SpaceMut {
                data: &mut dd,
                origin: &dorigin,
                extents: &dext,
            };
            copy_box(&s, &mut d, &region);
        }
        assert_eq!(dd[0], 14.0); // (2,2)
        assert_eq!(dd[8], 28.0); // (4,4)
    }

    #[test]
    fn empty_region_is_noop() {
        let input = vec![0.0; 16];
        let mut outbuf = vec![5.0; 16];
        let origin = [0i64, 0];
        let ext = [4i64, 4];
        let k = stencil_kernel_2d();
        let mut out = SpaceMut {
            data: &mut outbuf,
            origin: &origin,
            extents: &ext,
        };
        let ins = [KernelInput::Grid(space(&input, &origin, &ext))];
        execute_stage_sel(
            KernelSel::generic(),
            &k,
            &BoxDomain::empty(2),
            &mut out,
            &ins,
            &[0.0],
        );
        assert!(outbuf.iter().all(|&v| v == 5.0));
    }

    #[test]
    fn specialized_impl_matches_generic_bitwise() {
        // unit-stride stencil and a strided restrict, each run once through
        // the generic path and once with a specialized tag: bitwise equal
        let input: Vec<f64> = (0..100).map(|i| ((i * 31) % 17) as f64 * 0.37).collect();
        let origin = [0i64, 0];
        let ext = [10i64, 10];
        let region = BoxDomain::interior(2, 8);
        let stencil = stencil_kernel_2d();
        let restrict = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(2),
                body: KernelBody::Linear(LinearForm {
                    bias: 0.0,
                    taps: vec![
                        Tap {
                            slot: 0,
                            access: Access(vec![AxisAccess::down(0), AxisAccess::down(0)]),
                            coeff: 0.5,
                            cfactor: None,
                        },
                        Tap {
                            slot: 0,
                            access: Access(vec![AxisAccess::down(0), AxisAccess::down(1)]),
                            coeff: 0.5,
                            cfactor: None,
                        },
                    ],
                }),
            }],
        };
        let restrict_region = BoxDomain::interior(2, 4);
        for (k, tag, reg) in [
            (&stencil, KernelImpl::Stencil2D5, &region),
            (&restrict, KernelImpl::Restrict, &restrict_region),
        ] {
            let mut generic = vec![0.0; 100];
            let mut spec = vec![0.0; 100];
            for (tag, buf) in [(KernelImpl::Generic, &mut generic), (tag, &mut spec)] {
                let mut out = SpaceMut {
                    data: buf,
                    origin: &origin,
                    extents: &ext,
                };
                let ins = [KernelInput::Grid(space(&input, &origin, &ext))];
                execute_stage_sel(KernelSel::scalar(tag), k, reg, &mut out, &ins, &[0.0]);
            }
            assert_eq!(generic, spec, "{tag:?} diverged from the generic path");
        }
    }

    #[test]
    fn bias_only_kernel() {
        let mut outbuf = vec![0.0; 16];
        let origin = [0i64, 0];
        let ext = [4i64, 4];
        let k = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(2),
                body: KernelBody::Linear(LinearForm {
                    bias: 3.5,
                    taps: vec![],
                }),
            }],
        };
        let region = BoxDomain::interior(2, 2);
        let mut out = SpaceMut {
            data: &mut outbuf,
            origin: &origin,
            extents: &ext,
        };
        execute_stage_sel(KernelSel::generic(), &k, &region, &mut out, &[], &[]);
        assert_eq!(outbuf[5], 3.5);
        assert_eq!(outbuf[0], 0.0);
    }

    /// A row cursor over a checked slice: the value at inner-loop index `k` is
    /// `data[base + k·slope]`. A tap's weight is `coeff`, or `coeff · a[k]`
    /// when `cf` names the coefficient row `a` it is scaled by (`coeff` and
    /// `cf` are unused on the coefficient rows themselves).
    #[derive(Clone, Copy)]
    struct RtTap<'a, T> {
        data: &'a [T],
        base: usize,
        slope: usize,
        coeff: T,
        /// Index into the case's coefficient rows.
        cf: Option<usize>,
    }

    impl<T: Copy> RtTap<'_, T> {
        #[inline(always)]
        fn at(&self, k: usize) -> T {
            self.data[self.base + k * self.slope]
        }
    }

    /// The in-file reference for [`row_body`] under [`EXACT`]: the same
    /// per-point chain with run-time arity and strides, every access checked.
    fn dyn_row<T: Elem>(
        out_row: &mut [T],
        out_slope: usize,
        count: usize,
        bias: T,
        taps: &[RtTap<'_, T>],
        crows: &[RtTap<'_, T>],
    ) {
        for k in 0..count {
            let mut acc = bias;
            for t in taps {
                let weight = match t.cf {
                    Some(c) => t.coeff * crows[c].at(k),
                    None => t.coeff,
                };
                acc += weight * t.at(k);
            }
            out_row[k * out_slope] = acc;
        }
    }

    /// The taps as a sweep instance holds them at its first row: each
    /// cursor at its tap's `base`, scaled taps weighted by the coefficient
    /// row their `cf` names.
    fn taps_at<E: Elem, const K: usize, const N: usize, const O: usize, const S: usize>(
        taps: &[RtTap<'_, E>],
        crows: &[RtTap<'_, E>],
        count: usize,
    ) -> UnitTaps<E, K, N, O, S> {
        let cursor = |t: &RtTap<'_, E>| Cursor {
            at: t.data[t.base..].as_ptr(),
            slope: t.slope,
            dy: 0,
            wrap: 0,
        };
        UnitTaps {
            count,
            taps: std::array::from_fn(|j| cursor(&taps[j])),
            coeff: std::array::from_fn(|j| taps[j].coeff),
            a: std::array::from_fn(|j| taps[j].cf.map_or(cursor(&taps[j]), |c| cursor(&crows[c]))),
            scaled: std::array::from_fn(|j| taps[j].cf.is_some()),
        }
    }

    /// One row of `count` points stored `o` apart, swept by the instance a
    /// stage of `tier` binds for these taps: every tap (and coefficient row)
    /// on its own one-row input, read from its `base` at its `slope`, the
    /// case run through `Linear::run` with its footprint checks. `out`
    /// holds the row's window.
    fn sweep_row<T: Elem>(
        tier: KernelTier,
        o: usize,
        bias: T,
        taps: &[RtTap<'_, T>],
        crows: &[RtTap<'_, T>],
        out: &mut [T],
    ) {
        let count = match out.len() {
            0 => 0,
            w => (w - 1) / o + 1,
        };
        let reach = |slot: usize, t: &RtTap<'_, T>| Reach {
            slot,
            axes: [(0, 0, 0), (0, 0, 0), (0, t.base as i64, 0)],
            moves: [0, 0, t.slope as i64],
        };
        let mut slopes = taps.iter().chain(crows).map(|t| t.slope);
        let first = slopes.next().unwrap_or(1);
        let stride = if slopes.all(|s| s == first) { first } else { 0 };
        let case = Linear {
            rank: 2,
            parity: [Parity::Any, Parity::Any, [Parity::Any, Parity::Even][o - 1]],
            steps: [1, 1, o as i64],
            bias,
            taps: taps
                .iter()
                .enumerate()
                .map(|(j, t)| BoundTap {
                    reach: reach(j, t),
                    coeff: t.coeff,
                    cf: t.cf,
                })
                .collect(),
            crows: (0..crows.len())
                .map(|c| reach(taps.len() + c, &crows[c]))
                .collect(),
            sweep: sweep_fn::<T>(tier, taps.len(), o, stride, !crows.is_empty()),
            counts_as: (Kind::UnitUnrolled, 0, 0),
            xblock: usize::MAX,
        };
        let extents: Vec<[i64; 2]> = taps
            .iter()
            .chain(crows)
            .map(|t| [1, t.data.len() as i64])
            .collect();
        let ins: Vec<KernelInput<'_, T>> = taps
            .iter()
            .chain(crows)
            .zip(&extents)
            .map(|(t, e)| {
                KernelInput::Grid(Space {
                    data: t.data,
                    origin: &[0, 0],
                    extents: e,
                })
            })
            .collect();
        let out_extents = [1, out.len() as i64];
        let region = BoxDomain::new(vec![
            Interval::new(0, 0),
            Interval::new(0, o as i64 * count as i64 - 1),
        ]);
        let out = KernelOut::Dense(SpaceMut {
            data: out,
            origin: &[0, 0],
            extents: &out_extents,
        });
        Bound(Box::new([Case::Linear(case)])).run(&region, out, &ins, &[], &mut Tally::default());
    }

    #[test]
    fn coeff_row_body_matches_dyn_row_bitwise() {
        // the varcoef defect row `f − a·(A v)`: one plain tap, then five
        // taps scaled by one shared coefficient row
        let n = 37usize;
        let field = |seed: usize, lo: f64| -> Vec<f64> {
            (0..3 * (n + 2))
                .map(|i| lo + ((i * 31 + seed * 17) % 23) as f64 * 0.043)
                .collect()
        };
        let (v, f, a) = (field(1, -0.5), field(2, -0.5), field(3, 0.6));
        let tap = |data, base, coeff, cf| RtTap {
            data,
            base,
            slope: 1,
            coeff,
            cf,
        };
        let mid = n + 3; // row 1, x = 1
        let taps = [
            tap(&f, mid, 1.0, None),
            tap(&v, mid, -4.0, Some(0)),
            tap(&v, mid - 1, 1.0, Some(0)),
            tap(&v, mid + 1, 1.0, Some(0)),
            tap(&v, mid - (n + 2), 1.0, Some(0)),
            tap(&v, mid + (n + 2), 1.0, Some(0)),
        ];
        let crows = [tap(&a, mid, 1.0, None)];
        let (mut fast, mut reference) = (vec![0.0; n], vec![0.0; n]);
        sweep_row(KernelTier::Scalar, 1, 0.25, &taps, &crows, &mut fast);
        dyn_row(&mut reference, 1, n, 0.25, &taps, &crows);
        assert!(reference.iter().all(|x| *x != 0.25), "taps contribute");
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&reference));
    }

    /// A 2-D (or 3-D) box-stencil case, all `3^nd` unit taps, over the
    /// whole interior `[1, e − 2]` of an `e`-wide array.
    fn box_stencil(nd: usize) -> StageKernel {
        let taps = (0..3usize.pow(nd as u32))
            .map(|j| Tap {
                slot: 0,
                access: Access::offsets(
                    &(0..nd)
                        .map(|d| (j / 3usize.pow(d as u32) % 3) as i64 - 1)
                        .collect::<Vec<_>>(),
                ),
                coeff: 0.5,
                cfactor: None,
            })
            .collect();
        StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(nd),
                body: KernelBody::Linear(LinearForm { bias: 0.0, taps }),
            }],
        }
    }

    /// The box stencil at the lane-safe tier over an input whose buffer
    /// ends one element before the last one its last row of its last plane
    /// reads (its view still claims the whole array).
    fn read_past_the_input(nd: usize, impl_tag: KernelImpl) {
        let e = 7i64;
        let extents = vec![e; nd];
        let data = vec![1.0; (e as usize).pow(nd as u32) - 1];
        let mut out = vec![0.0; data.len() + 1];
        let origin = vec![0i64; nd];
        let mut window = SpaceMut {
            data: &mut out,
            origin: &origin,
            extents: &extents,
        };
        let ins = [KernelInput::Grid(space(&data, &origin, &extents))];
        let sel = KernelSel {
            impl_tag,
            tier: KernelTier::LaneSafe,
            xblock: 0,
        };
        let region = BoxDomain::interior(nd, e - 2);
        execute_stage_sel(sel, &box_stencil(nd), &region, &mut window, &ins, &[0.0]);
    }

    #[test]
    #[should_panic(expected = "leaves its")]
    fn a_tap_past_its_input_at_the_last_row_panics() {
        read_past_the_input(2, KernelImpl::Stencil2D9);
    }

    #[test]
    #[should_panic(expected = "leaves its")]
    fn a_tap_past_its_input_at_the_last_plane_panics() {
        read_past_the_input(3, KernelImpl::Stencil3D27);
    }

    /// A sweep into a shared array one element shorter than the region's
    /// last point needs panics before it writes.
    #[test]
    #[should_panic(expected = "leaves its buffer")]
    fn a_shared_sweep_past_the_array_panics() {
        let e = 6i64;
        let input = vec![1.0; (e * e) as usize];
        let mut array = vec![0.0; (e * e) as usize - 1];
        let (origin, extents) = ([0i64, 0], [e, e]);
        let ins = [KernelInput::Grid(space(&input, &origin, &extents))];
        let out = KernelOut::Shared {
            out: crate::tilebuf::SharedOut::new(&mut array),
            extents: &extents,
        };
        let kernel = stencil_kernel_2d();
        let region = BoxDomain::new(vec![Interval::new(1, e - 1), Interval::new(1, e - 1)]);
        Bound::new(KernelSel::scalar(KernelImpl::Stencil2D5), &kernel).run(
            &region,
            out,
            &ins,
            &[0.0],
            &mut Tally::default(),
        );
    }

    /// One cell of the lane matrix: a `count`-point row of `K` seeded taps
    /// at bases no vector width divides, computed by the body at lane `L`
    /// and finished at the scalar lane of its element type, against
    /// `dyn_row` in that type. Exact cells must match bit for bit; the
    /// reassociating rules must stay inside the bound
    /// `tests/proptest_fastmath_ulp.rs` defines — `(2K + 6)·ε` of the
    /// point's term magnitude `|bias| + Σ|cⱼ·rⱼ|`, with the element type's ε.
    fn lane_cell<const K: usize, L: Lane, const RULE: u8>(count: usize) {
        let of = L::E::of;
        let seeded = |i: usize| ((i * 37 + K * 11) % 101) as f64 * 0.0173 - 0.86;
        let data: Vec<L::E> = (0..count + 3 * K + 1).map(|i| of(seeded(i))).collect();
        let magnitudes: Vec<L::E> = data.iter().map(|x| of(x.wide().abs())).collect();
        let taps_over = |data| -> Vec<RtTap<'_, L::E>> {
            (0..K)
                .map(|j| RtTap {
                    data,
                    base: 1 + 3 * j,
                    slope: 1,
                    coeff: of(seeded(1000 + j)),
                    cf: None,
                })
                .collect()
        };
        let (taps, mut abs_taps) = (taps_over(&data), taps_over(&magnitudes));
        abs_taps
            .iter_mut()
            .for_each(|t| t.coeff = of(t.coeff.wide().abs()));
        let bias = of(0.3);
        let (mut want, mut scale) = (vec![of(0.0); count], vec![of(0.0); count]);
        dyn_row(&mut want, 1, count, bias, &taps, &[]);
        dyn_row(&mut scale, 1, count, bias, &abs_taps, &[]);

        let mut buf = vec![of(f64::NAN); count + 1];
        let got = &mut buf[1..];
        let source = taps_at::<_, K, 0, 1, 1>(&taps, &[], count);
        // SAFETY: callers name only lanes the host runs; strides are 1, and
        // every tap row and the output hold `count` points.
        unsafe {
            let i = source.at_lane::<L, RULE>(got, 0, bias);
            assert!(count - i < L::W, "lane {} left {} points", L::W, count - i);
            source.at_lane::<L::E, RULE>(got, i, bias);
        }
        let eps = match std::mem::size_of::<L::E>() {
            4 => f64::from(f32::EPSILON),
            _ => f64::EPSILON,
        };
        for (i, ((g, w), m)) in got.iter().zip(&want).zip(&scale).enumerate() {
            let (g, w, m) = (g.wide(), w.wide(), m.wide());
            let cell = format!(
                "{} K {K} W {} rule {RULE} count {count} point {i}",
                std::any::type_name::<L::E>(),
                L::W
            );
            if RULE == EXACT {
                assert_eq!(g.to_bits(), w.to_bits(), "{cell}: {g} vs {w}");
            } else {
                let tol = (2.0 * K as f64 + 6.0) * eps * m;
                assert!((g - w).abs() <= tol, "{cell}: |{g} - {w}| > {tol:e}");
            }
        }
    }

    /// Every arity × rule × row length (each remainder, rows shorter than
    /// one lane included) of one lane.
    fn lane_column<L: Lane>() {
        macro_rules! arities {
            ($($k:literal)*) => {$(
                for count in 0..=2 * L::W + 3 {
                    lane_cell::<$k, L, EXACT>(count);
                    lane_cell::<$k, L, FUSED>(count);
                    lane_cell::<$k, L, UNFUSED>(count);
                }
            )*};
        }
        arities!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28);
    }

    /// One coefficient cell of the lane matrix: a `count`-point row of `K`
    /// seeded taps, of which those `scaled` picks are scaled by one of
    /// `ncrows` coefficient rows (tap `j` by row `⌊j/2⌋ mod ncrows`, so that
    /// from `K = 3` on the masks scaling several taps reach both of two
    /// rows), every row at a base no vector width divides. The body at lane `L` under [`EXACT`],
    /// finished at lane `f64`, and the sweeps both lane tiers bind for the
    /// row (fast-math never reassociates a coefficient row) must match
    /// `dyn_row` bit for bit. A case binds only the coefficient rows its
    /// taps name, so a row with no tap scaled is plain.
    fn coeff_cell<const K: usize, L: Lane<E = f64>>(
        count: usize,
        scaled: fn(usize) -> bool,
        ncrows: usize,
    ) {
        let seeded = |i: usize| ((i * 37 + K * 11) % 101) as f64 * 0.0173 - 0.86;
        let len = count + 3 * K + 5 * ncrows + 2;
        let data: Vec<f64> = (0..len).map(seeded).collect();
        let fields: Vec<f64> = (0..len).map(|i| 0.6 + seeded(i + 500).abs()).collect();
        let taps: Vec<RtTap<'_, f64>> = (0..K)
            .map(|j| RtTap {
                data: &data,
                base: 1 + 3 * j,
                slope: 1,
                coeff: seeded(1000 + j),
                cf: scaled(j).then_some(j / 2 % ncrows),
            })
            .collect();
        // only the rows some tap names: a bound case carries no other
        let named: Vec<usize> = (0..ncrows)
            .filter(|c| taps.iter().any(|t| t.cf == Some(*c)))
            .collect();
        let crows: Vec<RtTap<'_, f64>> = named
            .iter()
            .map(|&c| RtTap {
                data: &fields,
                base: 2 + 5 * c,
                slope: 1,
                coeff: 0.0,
                cf: None,
            })
            .collect();
        let taps: Vec<RtTap<'_, f64>> = taps
            .into_iter()
            .map(|t| RtTap {
                cf: t.cf.map(|c| named.iter().position(|&n| n == c).unwrap()),
                ..t
            })
            .collect();
        let bias = 0.3;
        let mut want = vec![0.0; count];
        dyn_row(&mut want, 1, count, bias, &taps, &crows);

        let source = taps_at::<_, K, K, 1, 1>(&taps, &crows, count);
        let mut lane = vec![f64::NAN; count];
        // SAFETY: callers name only lanes the host runs; strides are 1, and
        // every row and the output hold `count` points.
        unsafe {
            let i = source.at_lane::<L, EXACT>(&mut lane, 0, bias);
            assert!(count - i < L::W, "lane {} left {} points", L::W, count - i);
            source.at_lane::<f64, EXACT>(&mut lane, i, bias);
        }
        let (mut safe, mut fast) = (vec![f64::NAN; count], vec![f64::NAN; count]);
        sweep_row(KernelTier::LaneSafe, 1, bias, &taps, &crows, &mut safe);
        sweep_row(KernelTier::FastMath, 1, bias, &taps, &crows, &mut fast);
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cell = format!("K {K} W {} crows {ncrows} count {count}", L::W);
        let marks: Vec<bool> = (0..K).map(scaled).collect();
        assert_eq!(bits(&lane), bits(&want), "{cell} lane, scaled {marks:?}");
        assert_eq!(
            bits(&safe),
            bits(&want),
            "{cell} lane_safe, scaled {marks:?}"
        );
        // with no tap scaled the row is plain, and fast-math reassociates
        // it (the lane cells hold that to its bound)
        if !crows.is_empty() {
            assert_eq!(
                bits(&fast),
                bits(&want),
                "{cell} fast_math, scaled {marks:?}"
            );
        }
    }

    /// Every arity × scaled mask (none, all, the first only, alternating) ×
    /// one or two coefficient rows × row length of one lane.
    fn coeff_column<L: Lane<E = f64>>() {
        let masks: [fn(usize) -> bool; 4] = [|_| false, |_| true, |j| j == 0, |j| j % 2 == 0];
        macro_rules! arities {
            ($($k:literal)*) => {$(
                for count in 0..=2 * L::W + 3 {
                    for scaled in masks {
                        coeff_cell::<$k, L>(count, scaled, 1);
                        coeff_cell::<$k, L>(count, scaled, 2);
                    }
                }
            )*};
        }
        arities!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28);
    }

    /// One strided cell of the lane matrix: a `count`-point row of `K`
    /// seeded taps of shape (output stride `O`, input stride `S`), each
    /// tap's slice ending exactly at the last value the row reads, into an
    /// output window whose skipped slots hold a NaN sentinel. The body at
    /// lane `L` under [`EXACT`], finished at lane `f64`, and the sweeps both
    /// lane tiers bind for the row (fast-math keeps strided rows exact) must
    /// match `dyn_row` bit for bit and leave every sentinel as it was.
    fn stride_cell<const K: usize, L: Lane<E = f64>, const O: usize, const S: usize>(count: usize) {
        let seeded = |i: usize| ((i * 37 + K * 11) % 101) as f64 * 0.0173 - 0.86;
        let span = |stride: usize| count.saturating_sub(1) * stride + usize::from(count > 0);
        let (reads, window) = (span(S), span(O));
        let data: Vec<f64> = (0..reads + 3 * K + 1).map(seeded).collect();
        let taps: Vec<RtTap<'_, f64>> = (0..K)
            .map(|j| RtTap {
                data: &data[..1 + 3 * j + reads],
                base: 1 + 3 * j,
                slope: S,
                coeff: seeded(1000 + j),
                cf: None,
            })
            .collect();
        let bias = 0.3;
        let sentinel = f64::from_bits(0x7ff8_0000_0bad_cafe);
        let mut want = vec![sentinel; window];
        dyn_row(&mut want, O, count, bias, &taps, &[]);

        let source = taps_at::<_, K, 0, O, S>(&taps, &[], count);
        let mut lane = vec![sentinel; window];
        // SAFETY: callers name only lanes the host runs; strides are 1 or
        // 2, and every tap row and the window hold `count` points.
        unsafe {
            let i = source.at_lane::<L, EXACT>(&mut lane, 0, bias);
            assert!(count - i < L::W, "lane {} left {} points", L::W, count - i);
            source.at_lane::<f64, EXACT>(&mut lane, i, bias);
        }
        let (mut safe, mut fast) = (vec![sentinel; window], vec![sentinel; window]);
        sweep_row(KernelTier::LaneSafe, O, bias, &taps, &[], &mut safe);
        sweep_row(KernelTier::FastMath, O, bias, &taps, &[], &mut fast);
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut skipped = want.iter().enumerate().filter(|(k, _)| k % O != 0);
        assert!(skipped.all(|(_, x)| x.to_bits() == sentinel.to_bits()));
        for (tier, got) in [("lane", &lane), ("lane_safe", &safe), ("fast_math", &fast)] {
            let cell = format!("K {K} W {} strides ({O}, {S}) count {count} {tier}", L::W);
            assert_eq!(bits(got), bits(&want), "{cell}");
        }
    }

    /// Every arity × strided shape × row length of one lane.
    fn stride_column<L: Lane<E = f64>>() {
        macro_rules! arities {
            ($($k:literal)*) => {$(
                for count in 0..=2 * L::W + 3 {
                    stride_cell::<$k, L, 1, 2>(count);
                    stride_cell::<$k, L, 2, 1>(count);
                    stride_cell::<$k, L, 2, 2>(count);
                }
            )*};
        }
        arities!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28);
    }

    /// Every lane of both element types, and the coefficient and stride
    /// axes on every `f64` lane. The `f32` column is the lane every `f32`
    /// row runs; its `EXACT` cells are the smoother chain's own sum.
    #[test]
    fn lane_rule_arity_remainder_matrix() {
        lane_column::<f32>();
        lane_column::<f64>();
        lane_column::<[f64; 2]>();
        coeff_column::<f64>();
        coeff_column::<[f64; 2]>();
        stride_column::<f64>();
        stride_column::<[f64; 2]>();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            lane_column::<Avx2>();
            lane_column::<[Avx2; 2]>();
            coeff_column::<Avx2>();
            coeff_column::<[Avx2; 2]>();
            stride_column::<Avx2>();
            stride_column::<[Avx2; 2]>();
        }
    }
}
