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
//! Linear cases run row by row, and every row of every tier is one body,
//! `row_body`: its tap arity is a compile-time constant, and it is generic
//! over a *lane* (how many consecutive points of which element type one
//! pass computes), an *accumulation rule* (how a point's terms are summed)
//! and the source of each tap's weight and value — a literal coefficient,
//! or `coeff · a[i]` read from a coefficient row (variable-coefficient
//! operators):
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
//! `f64` lane tiers at lane `f64`, `FastMath` under `UNFUSED`; rows whose
//! taps differ in stride, and strided coefficient rows, run lane `f64`;
//! an `f32` case runs and counts as tier `Scalar` whatever its stage's
//! tier). Each linear case makes one dispatch decision (`select_row`) and
//! runs one sweep (`linear_sweep`) shared by both ranks. A run-time loop
//! (`dyn_row`) remains as the reference the body is tested against, for
//! arities outside the 0..=28 table and for strided rows under the generic
//! tag. Non-linear cases are evaluated by the expression interpreter.
//!
//! A strided row has one of three (output stride, input stride) shapes:
//! (1, 2) restriction, (2, 1) interpolation, (2, 2) a red-black sweep.

// Index-based loops here mirror the math (multi-slice stencil updates); clippy prefers iterators but the indices are the clearer notation.
#![allow(clippy::needless_range_loop)]

use gmg_ir::{Access, CoeffRead, Expr, LinearForm, Operand, Parity, ParityPattern};
use gmg_poly::{div_floor, BoxDomain, Interval};
use polymg::{KernelBody, KernelImpl, KernelSel, KernelTier, StageKernel};
use sealed::{Sealed, UnitTaps};
use std::ops::{Add, AddAssign, Mul};

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64 as x86;

/// The element type of a kernel: `f64`, or `f32` for the mixed-precision
/// smoother chain. Lowered biases and coefficients are `f64`; a linear case
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
        /// The whole row of `taps` on the widest packed lane the host runs;
        /// `false`, with nothing written, where there is none (for `f32`,
        /// anywhere).
        ///
        /// # Safety
        ///
        /// `O` and `S` are 1 or 2.
        unsafe fn packed<
            const K: usize,
            const RULE: u8,
            const N: usize,
            const O: usize,
            const S: usize,
        >(
            _out_row: &mut [Self],
            _bias: Self,
            _taps: &UnitTaps<'_, Self, K, N, O, S>,
        ) -> bool {
            false
        }
    }

    /// The taps of one row as [`row_body`](super::row_body) reads them at
    /// any lane: `count` points stored `O` apart, tap `j`'s value at point
    /// `i` loaded from `rows[j]` at `i·S` (one input stride for every tap),
    /// and its weight `coeff[j]` — or, for a tap `scaled[j]` marks,
    /// `coeff[j] · a[j][i]`, formed before it multiplies the value (the
    /// association of `dyn_row`). A plain source has neither `a` nor
    /// `scaled` (`N = 0`), a scaled one (unit strides only) an entry per tap
    /// (`N = K`). Only its constructors build one, so every row holds the
    /// values its points read. Public only so that `packed` can name it.
    pub struct UnitTaps<'a, E, const K: usize, const N: usize, const O: usize, const S: usize> {
        pub(super) count: usize,
        pub(super) rows: [&'a [E]; K],
        pub(super) coeff: [E; K],
        pub(super) a: [&'a [E]; N],
        pub(super) scaled: [bool; N],
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
    /// ([`packed_unit`]'s remainder); anywhere else a libm call per tap,
    /// which is why hosts without FMA run [`UNFUSED`] instead.
    #[inline(always)]
    fn mul_add(self, b: f64, c: f64) -> f64 {
        f64::mul_add(self, b, c)
    }
    #[inline(always)]
    unsafe fn packed<
        const K: usize,
        const RULE: u8,
        const N: usize,
        const O: usize,
        const S: usize,
    >(
        out_row: &mut [f64],
        bias: f64,
        taps: &UnitTaps<'_, f64, K, N, O, S>,
    ) -> bool {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: both features were just detected; the caller
            // guarantees the strides.
            taps.packed_unit::<RULE>(out_row, bias);
            return true;
        }
        false
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

/// First in-region coordinate matching a parity, and the step (1 or 2).
/// Returns `None` when no point in `[lo, hi]` matches.
fn parity_start(lo: i64, hi: i64, p: Parity) -> Option<(i64, i64)> {
    let (start, step) = match p {
        Parity::Any => (lo, 1),
        Parity::Even => (if lo.rem_euclid(2) == 0 { lo } else { lo + 1 }, 2),
        Parity::Odd => (if lo.rem_euclid(2) == 1 { lo } else { lo + 1 }, 2),
    };
    if start > hi {
        None
    } else {
        Some((start, step))
    }
}

/// Where a kernel writes.
///
/// `Dense` is an exclusive window (scratchpads, untiled sweeps). `Shared`
/// writes straight into a full array that other tiles are writing
/// concurrently — per-row segments are derived from the raw pointer, and
/// soundness rests on the planner's owned-region partition (disjoint row
/// segments per tile).
pub enum KernelOut<'a, T = f64> {
    Dense(SpaceMut<'a, T>),
    Shared {
        out: crate::tilebuf::SharedOut<T>,
        /// Dense array extents; the origin is the global zero.
        extents: &'a [i64],
    },
}

impl<T> KernelOut<'_, T> {
    #[inline]
    fn origin(&self, d: usize) -> i64 {
        match self {
            KernelOut::Dense(s) => s.origin[d],
            KernelOut::Shared { .. } => 0,
        }
    }

    #[inline]
    fn extent(&self, d: usize) -> i64 {
        match self {
            KernelOut::Dense(s) => s.extents[d],
            KernelOut::Shared { extents, .. } => extents[d],
        }
    }

    /// The row segment `[off, off+len)`.
    #[inline]
    fn row_mut(&mut self, off: usize, len: usize) -> &mut [T] {
        match self {
            KernelOut::Dense(s) => &mut s.data[off..off + len],
            // SAFETY: concurrent writers cover disjoint owned boxes (see
            // type-level docs); segments of one kernel execution are used
            // strictly sequentially.
            KernelOut::Shared { out, .. } => unsafe { out.segment(off, len) },
        }
    }
}

/// Execute every case of `kernel` over `region` into a dense window, under
/// a kernel selection (family + tier + block; [`KernelSel::generic`] is the
/// always-correct default).
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
        origin: out.origin,
        extents: out.extents,
    });
    execute_stage_region(sel, kernel, &region.0, dense, ins, slot_boundary);
}

/// [`execute_stage_sel`] into any [`KernelOut`], over a region given as its
/// intervals, outermost first (the tile executor keeps its boxes in fixed
/// arrays, not in a [`BoxDomain`]).
///
/// Each linear case makes one dispatch decision (`select_row`) and runs
/// one sweep (`linear_sweep`). A non-[`Generic`](KernelImpl::Generic)
/// family runs the selection's tier, provided the case's arity has an
/// instance in the table; anything else (interpreted cases, arities above
/// the table) runs the generic selection and is counted in the histograms'
/// `generic`/`scalar` buckets. Stages with coefficient taps are tagged
/// `Generic` and run their tier on unit-stride rows. Only the fast-math
/// tier's results differ from the generic path's, and only on unit-stride
/// plain rows.
pub(crate) fn execute_stage_region<T: Elem>(
    sel: KernelSel,
    kernel: &StageKernel,
    region: &[Interval],
    mut out: KernelOut<'_, T>,
    ins: &[KernelInput<'_, T>],
    slot_boundary: &[f64],
) {
    if region.iter().any(Interval::is_empty) {
        return;
    }
    for case in &kernel.cases {
        match &case.body {
            KernelBody::Linear(form) => {
                linear_sweep(sel, form, &case.pattern, region, &mut out, ins)
            }
            KernelBody::Interpreted(expr) => {
                gmg_trace::dispatch::record_impl(0, 1);
                gmg_trace::dispatch::record_tier(0, 1);
                interpret_case(expr, &case.pattern, region, &mut out, ins, slot_boundary)
            }
        }
    }
}

/// A row cursor: the value at inner-loop index `k` is `data[base + k·slope]`.
/// A linear case carries one per tap, in lowered order, followed by one per
/// distinct coefficient row (see [`linear_sweep`]); the sweep advances them
/// all alike. A tap's weight is `coeff`, or `coeff · a[k]` when `cf` names
/// the coefficient row `a` it is scaled by (`coeff` and `cf` are unused on
/// the coefficient rows themselves).
#[derive(Clone, Copy)]
struct RtTap<'a, T> {
    data: &'a [T],
    base: usize,
    slope: usize,
    coeff: T,
    /// Index into the case's coefficient rows.
    cf: Option<usize>,
}

impl<'a, T: Copy> RtTap<'a, T> {
    #[inline(always)]
    fn at(&self, k: usize) -> T {
        self.data[self.base + k * self.slope]
    }

    /// The `len` values from the base: all that `count` points `S` apart
    /// read, for `len = (count − 1)·S + 1`.
    #[inline(always)]
    fn span(&self, len: usize) -> &'a [T] {
        &self.data[self.base..self.base + len]
    }
}

/// Row base index (everything except the innermost dim) of an access into
/// `input` for outer coordinates `outer` (length = rank-1).
fn tap_row_base<T>(access: &Access, input: &Space<'_, T>, outer: &[i64]) -> usize {
    let nd = input.origin.len();
    debug_assert_eq!(outer.len(), nd - 1);
    let mut idx: i64 = 0;
    for d in 0..nd - 1 {
        let a = access.0[d];
        let coord = div_floor(a.num * outer[d] + a.off, a.den);
        let rel = coord - input.origin[d];
        debug_assert!(rel >= 0 && rel < input.extents[d], "tap row out of view");
        idx = idx * input.extents[d] + rel;
    }
    // innermost handled by base/slope; here add the row start
    (idx * input.extents[nd - 1]) as usize
}

/// How far a tap's input coordinate moves (in that dimension's units) when
/// the output coordinate advances by `step`: `num·step` for `/1` accesses,
/// `step/2` for parity-pinned `/2` accesses.
#[inline]
fn axis_coord_delta(a: &gmg_ir::expr::AxisAccess, step: i64) -> i64 {
    if a.den == 2 {
        debug_assert_eq!(step % 2, 0, "/2 access requires an even step");
        step / 2
    } else {
        a.num * step
    }
}

/// Innermost-dim base and slope for an access given the x start and step.
fn tap_x_base_slope<T>(access: &Access, input: &Space<'_, T>, x0: i64, sx: i64) -> (usize, usize) {
    let nd = input.origin.len();
    let a = access.0[nd - 1];
    let first = div_floor(a.num * x0 + a.off, a.den) - input.origin[nd - 1];
    debug_assert!(first >= 0, "tap x base out of view");
    let slope = if a.den == 2 {
        debug_assert_eq!(sx, 2, "/2 access requires parity-stepped loop");
        1
    } else {
        (a.num * sx) as usize
    };
    (first as usize, slope)
}

/// The row-kernel signature: write `count` outputs spaced `out_slope` apart
/// from `bias` plus the sums over `taps`, whose `cf` indices refer to the
/// coefficient rows `crows`.
type RowFn<T> =
    for<'a, 'b, 'c> fn(&'a mut [T], usize, usize, T, &'b [RtTap<'c, T>], &'b [RtTap<'c, T>]);

/// The one dispatch decision of a linear case, made once per case execution
/// (not per row): the row kernel its rows run, the `gmg_trace::dispatch`
/// class that kernel counts as, and whether the selection's tier applied
/// (`false`: the case ran, and counts as, generic/scalar). `unit` says that
/// the output row and every tap and coefficient row have stride 1.
///
/// A specialized family runs its tier's instance of [`row_body`] on unit
/// and strided rows alike, and so does the generic tag on unit-stride rows
/// with coefficient taps (a variable-coefficient stage gets the tier a
/// family would). The generic tag runs the scalar instance on other
/// unit-stride rows and the run-time loop [`dyn_row`] on strided ones.
/// Arities above the table run `dyn_row`.
fn select_row<T: Elem>(
    sel: KernelSel,
    unit: bool,
    taps: &[RtTap<'_, T>],
    crows: &[RtTap<'_, T>],
) -> (gmg_trace::dispatch::Kind, RowFn<T>, bool) {
    use gmg_trace::dispatch::Kind;
    let tiered = match sel.impl_tag {
        KernelImpl::Generic if !unit || crows.is_empty() => None,
        _ => row_fn(sel.tier, taps.len()),
    };
    let instance = match tiered {
        None if unit => row_fn(KernelTier::Scalar, taps.len()),
        tiered => tiered,
    };
    let kind = if !crows.is_empty() {
        Kind::VarCoef
    } else if !unit {
        Kind::Strided
    } else if instance.is_some() {
        Kind::UnitUnrolled
    } else {
        Kind::UnitFallback
    };
    (kind, instance.unwrap_or(dyn_row), tiered.is_some())
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
/// (an [`Elem`]: any; [`Avx2`]: AVX2 and FMA, which [`packed_row`]
/// detects); `load` and `store` also require `p` to be valid for `W`
/// values, `load2` and `store2` for `2·W − 1`.
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
/// contract: every element is `to_bits()`-equal to [`dyn_row`]'s.
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
/// reference [`dyn_row`]. Points `from, from + W, …`
/// while a whole lane fits below `count` are computed and stored
/// `out_slope` apart (a lane wider than one point stores with `store2` when
/// that is 2); the first point not computed is returned, so a
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
/// [`Lane`]'s contract for `L`, and `weight`/`value` must be readable at
/// every point below `count`. Lanes wider than one point need `out_slope`
/// 1 or 2.
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
    // the one bounds check of the row: every store below lands inside it
    assert!(from <= count && (count == 0 || (count - 1) * out_slope < out_row.len()));
    let out = out_row.as_mut_ptr();
    let (b, zero) = (L::splat(bias), L::splat(L::E::of(0.0)));
    // a counted loop: LLVM must see `i < count` to drop the sources' own
    // bounds checks and vectorize lane `f64` across points
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

impl<'a, E: Elem, const K: usize, const O: usize, const S: usize> UnitTaps<'a, E, K, 0, O, S> {
    /// The first `count` points of `taps`, whose reads are all `S` apart,
    /// plain: each tap row is cut once, here, to the `(count − 1)·S + 1`
    /// values the row reads.
    #[inline(always)]
    fn new(taps: &[RtTap<'a, E>], count: usize) -> Self {
        debug_assert!(taps.iter().all(|t| t.slope == S));
        let len = count.saturating_sub(1) * S + usize::from(count > 0);
        UnitTaps {
            count,
            rows: std::array::from_fn(|j| taps[j].span(len)),
            coeff: std::array::from_fn(|j| taps[j].coeff),
            a: [],
            scaled: [],
        }
    }
}

impl<'a, E: Elem, const K: usize> UnitTaps<'a, E, K, 0, 1, 1> {
    /// The same unit-stride taps, each scaled by the coefficient row its
    /// `cf` names in `crows`. A tap that is not scaled has its own value
    /// row as `a`: loaded, never selected, so the weight is branch-free.
    #[inline(always)]
    fn scaled_by(
        self,
        taps: &[RtTap<'a, E>],
        crows: &[RtTap<'a, E>],
    ) -> UnitTaps<'a, E, K, K, 1, 1> {
        let count = self.count;
        UnitTaps {
            a: std::array::from_fn(|j| taps[j].cf.map_or(self.rows[j], |c| crows[c].span(count))),
            scaled: std::array::from_fn(|j| taps[j].cf.is_some()),
            count,
            rows: self.rows,
            coeff: self.coeff,
        }
    }
}

impl<E: Elem, const K: usize, const N: usize, const O: usize, const S: usize>
    UnitTaps<'_, E, K, N, O, S>
{
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
        let w = c.mul(L::load(self.a[j].as_ptr().add(i)));
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
        debug_assert!((i + L::W - 1) * S < self.rows[j].len());
        let p = self.rows[j].as_ptr().add(i * S);
        match S {
            1 => L::load(p),
            _ => L::load2(p),
        }
    }

    /// [`row_body`] over these taps at lane `L`, storing its outputs `O`
    /// apart from `out[0]`. Covers the row from point `from` and
    /// returns the first point left over.
    ///
    /// # Safety
    ///
    /// [`Lane`]'s contract for `L`; `O` and `S` are 1 or 2.
    #[inline(always)]
    unsafe fn at_lane<L: Lane<E = E>, const RULE: u8>(
        &self,
        out: &mut [E],
        from: usize,
        bias: E,
    ) -> usize {
        let (weight, value) = (|j, i| self.weight::<L>(j, i), |j, i| self.value::<L>(j, i));
        row_body::<K, L, RULE>(out, O, from, self.count, bias, weight, value)
    }

    /// The row on the element type's packed lane, or, on a host without
    /// one, under the same rule at its scalar lane, with the fused steps
    /// spelled as multiply then add.
    ///
    /// # Safety
    ///
    /// `O` and `S` are 1 or 2.
    #[inline(always)]
    unsafe fn run<const RULE: u8>(&self, out: &mut [E], bias: E) {
        if E::packed::<K, RULE, N, O, S>(out, bias, self) {
            return;
        }
        match RULE {
            EXACT => self.at_lane::<E, EXACT>(out, 0, bias),
            _ => self.at_lane::<E, UNFUSED>(out, 0, bias),
        };
    }
}

/// The scalar row kernel ([`KernelTier::Scalar`], the lane tiers' rows
/// whose taps differ in stride or that are strided with coefficient taps,
/// and every `f32` row): [`row_body`] at the scalar lane `T` under
/// [`EXACT`], over unit-stride plain rows, unit-stride rows with
/// coefficient taps, and strided plain rows of any strides, read through
/// each tap's own cursor.
fn spec_row<const K: usize, T: Elem>(
    out_row: &mut [T],
    out_slope: usize,
    count: usize,
    bias: T,
    taps: &[RtTap<'_, T>],
    crows: &[RtTap<'_, T>],
) {
    debug_assert_eq!(taps.len(), K);
    if out_slope != 1 || taps.iter().any(|t| t.slope != 1) {
        // no family with strided reads carries coefficient taps, and
        // `select_row` keeps strided coefficient rows on `dyn_row`
        debug_assert!(crows.is_empty());
        let (weight, value) = (|j: usize, _| taps[j].coeff, |j: usize, k| taps[j].at(k));
        // SAFETY: a scalar lane runs anywhere; both sources are checked reads.
        unsafe { row_body::<K, T, EXACT>(out_row, out_slope, 0, count, bias, weight, value) };
        return;
    }
    debug_assert!(crows.iter().all(|c| c.slope == 1));
    let plain = UnitTaps::<T, K, 0, 1, 1>::new(taps, count);
    // SAFETY: a scalar lane runs anywhere, at unit strides.
    unsafe {
        match crows.is_empty() {
            true => plain.at_lane::<T, EXACT>(out_row, 0, bias),
            false => UnitTaps::scaled_by(plain, taps, crows).at_lane::<T, EXACT>(out_row, 0, bias),
        }
    };
}

/// The lane tiers' row kernel: [`KernelTier::LaneSafe`] is `RULE` =
/// [`EXACT`], [`KernelTier::FastMath`] is [`FUSED`]. A row whose taps share
/// one stride runs the element type's packed lane: unit-stride plain rows
/// under `RULE`; coefficient rows and the three strided shapes (module
/// docs) under [`EXACT`] at either tier — fast-math reassociates neither,
/// so both stay bitwise-identical to [`dyn_row`]. Other rows (taps of
/// mixed strides, strided coefficient rows) run [`spec_row`].
fn packed_row<const K: usize, const RULE: u8, T: Elem>(
    out: &mut [T],
    out_slope: usize,
    count: usize,
    bias: T,
    taps: &[RtTap<'_, T>],
    crows: &[RtTap<'_, T>],
) {
    debug_assert_eq!(taps.len(), K);
    // one stride shared by every tap, or 0
    let shared = |a, b| if a == b { a } else { 0 };
    let stride = taps.iter().map(|t| t.slope).reduce(shared).unwrap_or(1);
    let unit = || UnitTaps::<T, K, 0, 1, 1>::new(taps, count);
    let scaled = || unit().scaled_by(taps, crows);
    // SAFETY: each arm's source has the strides 1 or 2 it names.
    unsafe {
        match (out_slope, stride, crows.is_empty()) {
            (1, 1, true) => unit().run::<RULE>(out, bias),
            (1, 1, false) => scaled().run::<EXACT>(out, bias),
            (1, 2, true) => UnitTaps::<T, K, 0, 1, 2>::new(taps, count).run::<EXACT>(out, bias),
            (2, 1, true) => UnitTaps::<T, K, 0, 2, 1>::new(taps, count).run::<EXACT>(out, bias),
            (2, 2, true) => UnitTaps::<T, K, 0, 2, 2>::new(taps, count).run::<EXACT>(out, bias),
            _ => spec_row::<K, T>(out, out_slope, count, bias, taps, crows),
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl<const K: usize, const N: usize, const O: usize, const S: usize> UnitTaps<'_, f64, K, N, O, S> {
    /// The row on the packed lane: pairs of vectors (see the `[L; 2]` lane)
    /// while they fit, one more vector if it fits, then the same body at
    /// lane `f64` for the last `count % 4` points — compiled here, under
    /// `fma`, so a fused remainder is still one hardware instruction per
    /// tap.
    ///
    /// # Safety
    ///
    /// The host has AVX2 and FMA; `O` and `S` are 1 or 2.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn packed_unit<const RULE: u8>(&self, out: &mut [f64], bias: f64) {
        let i = self.at_lane::<[Avx2; 2], RULE>(out, 0, bias);
        let i = self.at_lane::<Avx2, RULE>(out, i, bias);
        self.at_lane::<f64, RULE>(out, i, bias);
    }
}

/// The instance of [`row_body`] for an element type, a tier and a tap
/// arity, if there is one. The table stops at
/// `polymg::specialize::MAX_SPEC_TAPS` (= 28); wider rows run [`dyn_row`],
/// and the classifier tags such kernels generic.
fn row_fn<T: Elem>(tier: KernelTier, arity: usize) -> Option<RowFn<T>> {
    macro_rules! table {
        ($($k:literal)*) => {
            match (arity, tier) {
                $(
                    ($k, KernelTier::Scalar) => Some(spec_row::<$k, T> as RowFn<T>),
                    ($k, KernelTier::LaneSafe) => Some(packed_row::<$k, EXACT, T> as RowFn<T>),
                    ($k, KernelTier::FastMath) => Some(packed_row::<$k, FUSED, T> as RowFn<T>),
                )*
                _ => None,
            }
        };
    }
    table!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28)
}

/// The dynamic fallback, and the in-file reference for [`row_body`] under
/// [`EXACT`]: the same per-point chain with run-time arity and strides.
/// Taken by arities outside the table and by strided rows under the generic
/// tag (restrict / interp shapes, with or without coefficient taps).
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

/// The grid behind a linear tap's (or coefficient read's) input slot.
fn grid<'a, 'b, T>(ins: &'b [KernelInput<'a, T>], slot: usize) -> &'b Space<'a, T> {
    match &ins[slot] {
        KernelInput::Grid(s) => s,
        KernelInput::Zero => panic!("linear tap reads the zero grid (lowering bug)"),
    }
}

/// `len` copies of `fill` as a slice that lives on the stack while
/// `len <= N` and on the heap beyond: what a tile loop uses where a `Vec`
/// per stage or per case would be an allocation per tile.
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

/// Cursors a linear case keeps on the stack: the widest arity of the
/// [`row_fn`] table and four coefficient rows.
const INLINE_CURSORS: usize = 32;

/// One axis of a sweep: the first coordinate of `region` matching the
/// pattern's parity, the step, and how many coordinates match.
fn sweep_axis(region: &[Interval], pattern: &ParityPattern, d: usize) -> Option<(i64, i64, usize)> {
    let (lo, hi) = (region[d].lo, region[d].hi);
    let (start, step) = parity_start(lo, hi, pattern.0[d])?;
    Some((start, step, ((hi - start) / step + 1) as usize))
}

/// The sweep's side of one cursor (the row kernels see its [`RtTap`]): how
/// its base moves — from `home` (the base at the sweep's first point) by
/// `dy` per row, and by `wrap` at the end of a plane — and, for a
/// coefficient row, the read it stands for.
#[derive(Clone, Copy)]
struct Advance<'f> {
    home: usize,
    dy: usize,
    wrap: i64,
    read: Option<&'f CoeffRead>,
}

/// The sweep of one linear case over `region`, both ranks: planes, rows
/// within a plane, and x-slabs around both. A 2-D region is a 3-D region
/// with one plane; an unblocked row is the blocked nest with one slab.
///
/// The case's cursors are its taps in lowered order, then one per
/// *distinct* [`CoeffRead`] — the five taps of `a·(A v)` share one `A(0,0)`
/// row — with each coefficient tap's `cf` indexing into that tail.
///
/// An element type without tiers (`f32`) runs, and counts as, the
/// selection's family at [`KernelTier::Scalar`].
fn linear_sweep<T: Elem>(
    sel: KernelSel,
    form: &LinearForm,
    pattern: &ParityPattern,
    region: &[Interval],
    out: &mut KernelOut<'_, T>,
    ins: &[KernelInput<'_, T>],
) {
    let sel = if T::TIERED {
        sel
    } else {
        KernelSel {
            tier: KernelTier::Scalar,
            ..sel
        }
    };
    let nd = region.len();
    assert!(nd == 2 || nd == 3, "unsupported rank {nd}");
    let (yd, xd) = (nd - 2, nd - 1);
    let Some((x0, sx, count)) = sweep_axis(region, pattern, xd) else {
        return;
    };
    let Some((y0, sy, ny)) = sweep_axis(region, pattern, yd) else {
        return;
    };
    let (z0, sz, nz) = match nd {
        3 => match sweep_axis(region, pattern, 0) {
            Some(z) => z,
            None => return,
        },
        _ => (0, 1, 1),
    };
    let outer = [z0, y0];
    let outer = &outer[3 - nd..];
    let out_slope = sx as usize;

    let out_rs = out.extent(xd) as usize;
    let out_ps = out.extent(yd) as usize * out_rs;
    let mut ob0 = (y0 - out.origin(yd)) as usize * out_rs + (x0 - out.origin(xd)) as usize;
    if nd == 3 {
        ob0 += (z0 - out.origin(0)) as usize * out_ps;
    }
    let (out_dy, out_dz) = (sy as usize * out_rs, sz as usize * out_ps);

    // Cursor bases are affine in the row and plane index: compute them once
    // per case, then advance by constants (no allocation, and no per-row
    // division, in steady state).
    let arity = form.taps.len();
    let scaled = form.taps.iter().filter(|t| t.cfactor.is_some()).count();
    let idle_tap = RtTap {
        data: &[],
        base: 0,
        slope: 1,
        coeff: T::of(0.0),
        cf: None,
    };
    let idle_move = Advance {
        home: 0,
        dy: 0,
        wrap: 0,
        read: None,
    };
    let mut taps = Inline::<_, INLINE_CURSORS>::new(arity + scaled, idle_tap);
    let mut moves = Inline::<_, INLINE_CURSORS>::new(arity + scaled, idle_move);
    let (taps, moves) = (taps.as_mut_slice(), moves.as_mut_slice());
    let cursor = |slot: usize, access: &Access, coeff: f64, cf: Option<usize>, read| {
        let s = grid(ins, slot);
        let (xb, slope) = tap_x_base_slope(access, s, x0, sx);
        let base = tap_row_base(access, s, outer) + xb;
        let dy = axis_coord_delta(&access.0[yd], sy) * s.extents[xd];
        let dz = match nd {
            3 => axis_coord_delta(&access.0[0], sz) * s.extents[yd] * s.extents[xd],
            _ => 0,
        };
        let tap = RtTap {
            data: s.data,
            base,
            slope,
            coeff: T::of(coeff),
            cf,
        };
        let advance = Advance {
            home: base,
            dy: dy as usize,
            // after `ny` row advances a base sits `ny·dy` past its plane's
            // first row; step to the next plane's with one (possibly
            // negative) correction
            wrap: dz - ny as i64 * dy,
            read,
        };
        (tap, advance)
    };
    let mut crows = 0;
    for (j, t) in form.taps.iter().enumerate() {
        let cf = t.cfactor.as_ref().map(|c| {
            let tail = &moves[arity..arity + crows];
            tail.iter()
                .position(|m| m.read == Some(c))
                .unwrap_or_else(|| {
                    (taps[arity + crows], moves[arity + crows]) =
                        cursor(c.slot, &c.access, 1.0, None, Some(c));
                    crows += 1;
                    crows - 1
                })
        });
        (taps[j], moves[j]) = cursor(t.slot, &t.access, t.coeff, cf, None);
    }
    let (taps, moves) = (&mut taps[..arity + crows], &moves[..arity + crows]);

    let unit = out_slope == 1 && taps.iter().all(|t| t.slope == 1);
    let (kind, row, specialized) = select_row(sel, unit, &taps[..arity], &taps[arity..]);
    let (bucket, tier) = if specialized {
        (sel.impl_tag.index(), sel.tier.index())
    } else {
        (0, 0)
    };
    gmg_trace::dispatch::record(kind, 1);
    gmg_trace::dispatch::record_impl(bucket, 1);
    gmg_trace::dispatch::record_tier(tier, 1);

    // Cache blocking, for unit-stride rows of the lane tiers longer than
    // `xblock`: split the row into `xblock`-point slabs and sweep all rows
    // and planes of one slab before moving on, so a slab's input rows stay
    // cache-resident across the y loop. Per-point arithmetic is untouched
    // (each point sees the same taps in the same order), so blocking is
    // bitwise-transparent.
    let lane_tier = specialized && sel.tier != KernelTier::Scalar;
    let bias = T::of(form.bias);
    let slab = if lane_tier && unit && sel.xblock > 0 && count > sel.xblock {
        sel.xblock
    } else {
        count
    };
    let mut start = 0;
    while start < count {
        let len = (count - start).min(slab);
        // strided rows span `(len − 1)·sx + 1` outputs
        let window = (len - 1) * out_slope + 1;
        for (t, m) in taps.iter_mut().zip(moves) {
            t.base = m.home + start;
        }
        let mut ob_z = ob0 + start;
        for _ in 0..nz {
            let mut ob = ob_z;
            for _ in 0..ny {
                row(
                    out.row_mut(ob, window),
                    out_slope,
                    len,
                    bias,
                    &taps[..arity],
                    &taps[arity..],
                );
                for (t, m) in taps.iter_mut().zip(moves) {
                    t.base += m.dy;
                }
                ob += out_dy;
            }
            for (t, m) in taps.iter_mut().zip(moves) {
                t.base = (t.base as i64 + m.wrap) as usize;
            }
            ob_z += out_dz;
        }
        start += len;
    }
}

/// Interpreter fallback: evaluate the expression per point, in `f64`.
fn interpret_case<T: Elem>(
    expr: &Expr,
    pattern: &ParityPattern,
    region: &[Interval],
    out: &mut KernelOut<'_, T>,
    ins: &[KernelInput<'_, T>],
    slot_boundary: &[f64],
) {
    gmg_trace::dispatch::record(gmg_trace::dispatch::Kind::Interpreter, 1);
    let nd = region.len();
    let mut point = vec![0i64; nd];
    iterate_parity(region, pattern, nd, &mut point, 0, &mut |p| {
        let v = expr.eval_at(p, &mut |op, idx| {
            let Operand::Slot(k) = op else {
                panic!("unresolved operand at execution time")
            };
            match &ins[*k] {
                KernelInput::Grid(s) => s.at_or(idx, T::of(slot_boundary[*k])).wide(),
                KernelInput::Zero => slot_boundary[*k],
            }
        });
        let mut idx = 0usize;
        for d in 0..nd {
            idx = idx * out.extent(d) as usize + (p[d] - out.origin(d)) as usize;
        }
        out.row_mut(idx, 1)[0] = T::of(v);
    });
}

fn iterate_parity(
    region: &[Interval],
    pattern: &ParityPattern,
    nd: usize,
    point: &mut Vec<i64>,
    d: usize,
    f: &mut impl FnMut(&[i64]),
) {
    if d == nd {
        f(point);
        return;
    }
    let Some((start, step)) = parity_start(region[d].lo, region[d].hi, pattern.0[d]) else {
        return;
    };
    let mut v = start;
    while v <= region[d].hi {
        point[d] = v;
        iterate_parity(region, pattern, nd, point, d + 1, f);
        v += step;
    }
}

/// Fill every cell of a dense box *outside* `inner` (global coordinates,
/// outermost first) with `value` — a scratchpad's halo (the ghost/boundary
/// ring of a tile's alloc box) or a full array's ghost ring, of any element
/// type. The box holds `extents` cells from global coordinate `origin`.
///
/// Only the rim `box ∖ inner` is written: whole planes and rows outside
/// `inner`'s outer ranges, the two x-margins of the rows inside them, and
/// nothing when `inner` covers the box. A 2-D box is a 3-D box with one
/// plane.
pub fn fill_rim<T: Copy>(
    data: &mut [T],
    origin: &[i64],
    extents: &[i64],
    inner: &[Interval],
    value: T,
) {
    let nd = origin.len();
    assert!(nd == 2 || nd == 3, "unsupported rank {nd}");
    // `inner` per axis as a half-open range of box-relative indices,
    // clamped to the box; `None` when no cell of the box is inside
    let within = |d: usize| -> Option<(usize, usize)> {
        let lo = (inner[d].lo - origin[d]).max(0);
        let hi = (inner[d].hi - origin[d] + 1).min(extents[d]);
        (lo < hi).then_some((lo as usize, hi as usize))
    };
    let (ey, ex) = (extents[nd - 2] as usize, extents[nd - 1] as usize);
    let (ez, zs) = match nd {
        3 => (extents[0] as usize, within(0)),
        _ => (1, Some((0, 1))),
    };
    let plane = ey * ex;
    let data = &mut data[..ez * plane];
    let (Some((z0, z1)), Some((y0, y1)), Some((x0, x1))) = (zs, within(nd - 2), within(nd - 1))
    else {
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
    let origin = vec![0i64; extents.len()];
    let interior: Vec<Interval> = extents.iter().map(|&e| Interval::new(1, e - 2)).collect();
    fill_rim(data, &origin, extents, &interior, value);
}

/// Walk the rows of `region` (global coordinates, outermost first) in two
/// dense views of one rank, each given as `(origin, extents)`: `row(s, d, w)`
/// for each row, which starts at flat index `s` of `src` and `d` of `dst` and
/// is `w` cells wide. A 2-D box is a 3-D box with one plane.
pub(crate) fn box_rows(
    src: (&[i64], &[i64]),
    dst: (&[i64], &[i64]),
    region: &[Interval],
    mut row: impl FnMut(usize, usize, usize),
) {
    let nd = region.len();
    assert!(nd == 2 || nd == 3, "unsupported rank {nd}");
    if region.iter().any(Interval::is_empty) {
        return;
    }
    let (planes, rows, x) = match nd {
        3 => (region[0], region[1], region[2]),
        _ => (Interval::new(0, 0), region[0], region[1]),
    };
    // flat index of `(z, y, x.lo)` in a view (`z` is 0 in 2-D)
    let at = |(origin, extents): (&[i64], &[i64]), z: i64, y: i64| {
        let plane = if nd == 3 {
            (z - origin[0]) * extents[1]
        } else {
            0
        };
        ((plane + y - origin[nd - 2]) * extents[nd - 1] + x.lo - origin[nd - 1]) as usize
    };
    let w = x.len() as usize;
    for z in planes.lo..=planes.hi {
        for y in rows.lo..=rows.hi {
            row(at(src, z, y), at(dst, z, y), w);
        }
    }
}

/// Copy `region` (global coordinates, outermost first) from `src` to `dst`,
/// converting each value to the destination's element type (`f32` → `f64`
/// widens exactly). A 2-D box is a 3-D box with one plane.
pub fn copy_box<S: Elem, D: Elem>(
    src: &Space<'_, S>,
    dst: &mut SpaceMut<'_, D>,
    region: &[Interval],
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
        fill_rim(&mut buf, &origin, &ext, &inner.0, 9.0);
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
        fill_rim(&mut buf, &origin, &ext, &inner.0, 0.0);
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
            copy_box(&s, &mut d, &inner.0);
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
            for (buf, fill) in [
                (&mut got, fill_rim as fn(&mut [f64], &[i64], &[i64], &[Interval], f64)),
                (&mut want, fill_rim_per_cell),
            ] {
                fill(buf, origin, extents, &inner.0, -2.5);
            }
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
            copy_box(&s, &mut d, &region.0);
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
        spec_row::<6, f64>(&mut fast, 1, n, 0.25, &taps, &crows);
        dyn_row(&mut reference, 1, n, 0.25, &taps, &crows);
        assert!(reference.iter().all(|x| *x != 0.25), "taps contribute");
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&reference));
    }

    /// One cell of the lane matrix: a `count`-point row of `K` seeded taps
    /// at bases no vector width divides, computed by the body at lane `L`
    /// and finished at the scalar lane of its element type, against
    /// [`dyn_row`] in that type. Exact cells must match bit for bit; the
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
        let source = UnitTaps::<_, K, 0, 1, 1>::new(&taps, count);
        // SAFETY: callers name only lanes the host runs; strides are 1.
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
    /// finished at lane `f64`, and both lane-tier instances of the row
    /// kernel (fast-math never reassociates a coefficient row) must match
    /// [`dyn_row`] bit for bit.
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
        let crows: Vec<RtTap<'_, f64>> = (0..ncrows)
            .map(|c| RtTap {
                data: &fields,
                base: 2 + 5 * c,
                slope: 1,
                coeff: 0.0,
                cf: None,
            })
            .collect();
        let bias = 0.3;
        let mut want = vec![0.0; count];
        dyn_row(&mut want, 1, count, bias, &taps, &crows);

        let source = UnitTaps::<_, K, 0, 1, 1>::new(&taps, count).scaled_by(&taps, &crows);
        let mut lane = vec![f64::NAN; count];
        // SAFETY: callers name only lanes the host runs; strides are 1.
        unsafe {
            let i = source.at_lane::<L, EXACT>(&mut lane, 0, bias);
            assert!(count - i < L::W, "lane {} left {} points", L::W, count - i);
            source.at_lane::<f64, EXACT>(&mut lane, i, bias);
        }
        let (mut safe, mut fast) = (vec![f64::NAN; count], vec![f64::NAN; count]);
        packed_row::<K, EXACT, f64>(&mut safe, 1, count, bias, &taps, &crows);
        packed_row::<K, FUSED, f64>(&mut fast, 1, count, bias, &taps, &crows);
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cell = format!("K {K} W {} crows {ncrows} count {count}", L::W);
        let marks: Vec<bool> = (0..K).map(scaled).collect();
        assert_eq!(bits(&lane), bits(&want), "{cell} lane, scaled {marks:?}");
        assert_eq!(
            bits(&safe),
            bits(&want),
            "{cell} lane_safe, scaled {marks:?}"
        );
        assert_eq!(
            bits(&fast),
            bits(&want),
            "{cell} fast_math, scaled {marks:?}"
        );
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
    /// lane `L` under [`EXACT`], finished at lane `f64`, and both lane-tier
    /// instances of the row kernel (fast-math keeps strided rows exact)
    /// must match [`dyn_row`] bit for bit and leave every sentinel as it
    /// was.
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

        let source = UnitTaps::<_, K, 0, O, S>::new(&taps, count);
        for (row, tap) in source.rows.iter().zip(&taps) {
            assert_eq!(row.as_ptr_range().end, tap.data.as_ptr_range().end);
        }
        let mut lane = vec![sentinel; window];
        // SAFETY: callers name only lanes the host runs; strides are 1 or 2.
        unsafe {
            let i = source.at_lane::<L, EXACT>(&mut lane, 0, bias);
            assert!(count - i < L::W, "lane {} left {} points", L::W, count - i);
            source.at_lane::<f64, EXACT>(&mut lane, i, bias);
        }
        let (mut safe, mut fast) = (vec![sentinel; window], vec![sentinel; window]);
        packed_row::<K, EXACT, f64>(&mut safe, O, count, bias, &taps, &[]);
        packed_row::<K, FUSED, f64>(&mut fast, O, count, bias, &taps, &[]);
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
