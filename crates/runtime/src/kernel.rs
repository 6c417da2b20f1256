//! Specialised execution of lowered stage kernels over box regions.
//!
//! A kernel executes in a *space*: a flat buffer plus the global coordinate
//! of its first element (`origin`) and its view extents — the same type
//! serves full arrays (origin `[0, …]`, extents `n+2`) and tile scratchpads
//! (origin = the tile's alloc box corner). All coordinates are global grid
//! indices, so tap addressing is uniform regardless of where values live.
//!
//! Linear cases run row by row. Every scalar row is one body (`row_body`)
//! whose tap arity is a compile-time constant and whose tap weights are
//! either literal coefficients or `coeff · a[i]` read from a coefficient
//! row (variable-coefficient operators) — so plain and coefficient stages,
//! specialized or not, share the code that gets optimised. A run-time loop
//! (`dyn_row`) remains for arities outside the 1..=28 table and for
//! strided rows under the generic tag (restriction's stride-2 reads,
//! interpolation's half-index reads). Non-linear cases are evaluated by the
//! expression interpreter.

// Index-based loops here mirror the math (multi-slice stencil updates); clippy prefers iterators but the indices are the clearer notation.
#![allow(clippy::needless_range_loop)]

use gmg_ir::{Access, CoeffRead, Expr, LinearForm, Operand, Parity, ParityPattern};
use gmg_poly::{div_floor, BoxDomain};
use polymg::{KernelBody, KernelImpl, KernelSel, KernelTier, StageKernel};

/// A read-only execution space.
#[derive(Clone, Copy)]
pub struct Space<'a> {
    pub data: &'a [f64],
    /// Global coordinate of `data[0]`, outermost first.
    pub origin: &'a [i64],
    /// View extents, outermost first (row-major, densely packed).
    pub extents: &'a [i64],
}

impl<'a> Space<'a> {
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
    pub fn at_or(&self, p: &[i64], boundary: f64) -> f64 {
        self.index(p).map_or(boundary, |i| self.data[i])
    }
}

/// A mutable execution space.
pub struct SpaceMut<'a> {
    pub data: &'a mut [f64],
    pub origin: &'a [i64],
    pub extents: &'a [i64],
}

impl<'a> SpaceMut<'a> {
    /// Reborrow read-only.
    pub fn as_space(&self) -> Space<'_> {
        Space {
            data: self.data,
            origin: self.origin,
            extents: self.extents,
        }
    }
}

/// One input slot of a stage at execution time.
#[derive(Clone, Copy)]
pub enum KernelInput<'a> {
    Grid(Space<'a>),
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
pub enum KernelOut<'a> {
    Dense(SpaceMut<'a>),
    Shared {
        out: crate::tilebuf::SharedOut,
        /// Dense array extents; the origin is the global zero.
        extents: &'a [i64],
    },
}

impl<'a> KernelOut<'a> {
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
    fn row_mut(&mut self, off: usize, len: usize) -> &mut [f64] {
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
pub fn execute_stage_sel(
    sel: KernelSel,
    kernel: &StageKernel,
    region: &BoxDomain,
    out: &mut SpaceMut<'_>,
    ins: &[KernelInput<'_>],
    slot_boundary: &[f64],
) {
    let dense = KernelOut::Dense(SpaceMut {
        data: &mut *out.data,
        origin: out.origin,
        extents: out.extents,
    });
    execute_stage_out_sel(sel, kernel, region, dense, ins, slot_boundary);
}

/// [`execute_stage_sel`] into any [`KernelOut`].
///
/// A non-[`Generic`](KernelImpl::Generic) family routes each linear case to
/// a dedicated row kernel whose tap arity is a compile-time constant —
/// scalar-unrolled ([`spec_row`]), lane-safe SIMD ([`lane_row`]) or
/// reassociating SIMD ([`fast_row`]) depending on the selection's tier —
/// provided the case's arity has a specialized instance; anything else
/// (interpreted cases, arities above the tables) falls back to the generic
/// [`run_row`] and is counted in the histograms' `generic`/`scalar`
/// buckets. Stages with coefficient taps are tagged `Generic` and reach the
/// same const-arity body through `run_row`.
/// The scalar and lane-safe tiers accumulate each output point's
/// taps in the generic order, so their results are bitwise identical to the
/// generic path; only the fast-math tier reassociates.
pub fn execute_stage_out_sel(
    sel: KernelSel,
    kernel: &StageKernel,
    region: &BoxDomain,
    mut out: KernelOut<'_>,
    ins: &[KernelInput<'_>],
    slot_boundary: &[f64],
) {
    if region.is_empty() {
        return;
    }
    for case in &kernel.cases {
        match &case.body {
            KernelBody::Linear(form) => {
                let arity = form.taps.len();
                let row = if sel.impl_tag != KernelImpl::Generic {
                    match sel.tier {
                        KernelTier::Scalar => spec_row_fn(arity),
                        KernelTier::LaneSafe => lane_row_fn(arity),
                        KernelTier::FastMath => fast_row_fn(arity),
                    }
                } else {
                    None
                };
                let bucket = if row.is_some() {
                    sel.impl_tag.index()
                } else {
                    0
                };
                let tier = if row.is_some() { sel.tier.index() } else { 0 };
                gmg_trace::dispatch::record_impl(bucket, 1);
                gmg_trace::dispatch::record_tier(tier, 1);
                // Cache blocking only pays off (and is only wired up) for
                // the lane tiers; the scalar/generic paths keep flat rows.
                let xblock = if row.is_some() && sel.tier != KernelTier::Scalar {
                    sel.xblock
                } else {
                    0
                };
                match region.ndims() {
                    2 => linear_2d(form, &case.pattern, region, &mut out, ins, row, xblock),
                    3 => linear_3d(form, &case.pattern, region, &mut out, ins, row, xblock),
                    d => panic!("unsupported rank {d}"),
                }
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
/// distinct coefficient row ([`case_cursors`]); the sweep loops advance them
/// all alike. A tap's weight is `coeff`, or `coeff · a[k]` when `cf` names
/// the coefficient row `a` it is scaled by (`coeff` and `cf` are unused on
/// the coefficient rows themselves).
struct RtTap<'a> {
    data: &'a [f64],
    base: usize,
    slope: usize,
    coeff: f64,
    /// Index into the case's coefficient rows.
    cf: Option<usize>,
}

impl<'a> RtTap<'a> {
    #[inline(always)]
    fn at(&self, k: usize) -> f64 {
        self.data[self.base + k * self.slope]
    }

    /// The first `count` values of a unit-stride row.
    #[inline(always)]
    fn unit(&self, count: usize) -> &'a [f64] {
        &self.data[self.base..self.base + count]
    }
}

/// Row base index (everything except the innermost dim) of an access into
/// `input` for outer coordinates `outer` (length = rank-1).
fn tap_row_base(access: &Access, input: &Space<'_>, outer: &[i64]) -> usize {
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
fn tap_x_base_slope(access: &Access, input: &Space<'_>, x0: i64, sx: i64) -> (usize, usize) {
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

/// Runs of adjacent equal-coefficient taps, as `(coeff, from, to)`.
fn coeff_spans(taps: &[RtTap<'_>]) -> Vec<(f64, usize, usize)> {
    let mut spans = Vec::new();
    let mut j = 0;
    while j < taps.len() {
        let c = taps[j].coeff;
        let mut k = j + 1;
        while k < taps.len() && taps[k].coeff == c {
            k += 1;
        }
        spans.push((c, j, k));
        j = k;
    }
    spans
}

/// Which [`run_row`] code path a kernel case with these taps will take.
/// Mirrors the dispatch conditions in `run_row`; evaluated once per case
/// execution (not per row) to feed the `gmg_trace::dispatch` histogram.
fn dispatch_kind(
    out_slope: usize,
    taps: &[RtTap<'_>],
    crows: &[RtTap<'_>],
) -> gmg_trace::dispatch::Kind {
    use gmg_trace::dispatch::Kind;
    if !crows.is_empty() {
        Kind::VarCoef
    } else if out_slope != 1 || taps.iter().any(|t| t.slope != 1) {
        Kind::Strided
    } else if taps.len() <= 28 {
        Kind::UnitUnrolled
    } else if coeff_spans(taps).len() * 2 <= taps.len() {
        Kind::UnitFactored
    } else {
        Kind::UnitFallback
    }
}

/// The row-kernel signature shared by the generic [`run_row`] and the
/// const-arity instances: write `count` outputs spaced `out_slope` apart
/// from `bias` plus the sums over `taps`, whose `cf` indices refer to the
/// coefficient rows `crows`.
type RowFn = for<'a, 'b, 'c> fn(&'a mut [f64], usize, usize, f64, &'b [RtTap<'c>], &'b [RtTap<'c>]);

/// The scalar row body, with the tap arity `K` fixed at compile time and
/// generic over where each tap's weight and value come from. Per output
/// point: `acc = bias`, then for each tap in lowered order
/// `acc += weight · value` — the weight (`coeff`, or `coeff · a[i]` for a
/// coefficient tap) is formed first, then multiplied by the value, then
/// added; never `a[i] · Σ`, never an FMA. Every scalar row is this chain,
/// so specialization and coefficient grids are bitwise-transparent (with
/// `a ≡ 1`, `coeff · 1.0 == coeff`); the constant arity lets LLVM keep row
/// pointers and coefficients in registers and vectorize across points.
#[inline(always)]
fn row_body<const K: usize>(
    out_row: &mut [f64],
    out_slope: usize,
    count: usize,
    bias: f64,
    weight: impl Fn(usize, usize) -> f64,
    value: impl Fn(usize, usize) -> f64,
) {
    for i in 0..count {
        let mut acc = bias;
        for j in 0..K {
            acc += weight(j, i) * value(j, i);
        }
        out_row[i * out_slope] = acc;
    }
}

/// The const-arity scalar row kernel: [`row_body`] over unit-stride plain
/// rows, unit-stride rows with coefficient taps, and strided plain rows
/// (restrict / interp reads).
fn spec_row<const K: usize>(
    out_row: &mut [f64],
    out_slope: usize,
    count: usize,
    bias: f64,
    taps: &[RtTap<'_>],
    crows: &[RtTap<'_>],
) {
    debug_assert_eq!(taps.len(), K);
    if out_slope != 1 || taps.iter().any(|t| t.slope != 1) {
        // no family with strided reads carries coefficient taps, and
        // `run_row` keeps strided coefficient rows on `dyn_row`
        debug_assert!(crows.is_empty());
        let weight = |j: usize, _| taps[j].coeff;
        return row_body::<K>(out_row, out_slope, count, bias, weight, |j, k| {
            taps[j].at(k)
        });
    }
    debug_assert!(crows.iter().all(|c| c.slope == 1));
    let out_row = &mut out_row[..count];
    let rows: [&[f64]; K] = std::array::from_fn(|j| taps[j].unit(count));
    let coeff: [f64; K] = std::array::from_fn(|j| taps[j].coeff);
    let value = |j: usize, i: usize| rows[j][i];
    if crows.is_empty() {
        return row_body::<K>(out_row, 1, count, bias, |j, _| coeff[j], value);
    }
    // The weight is selected per tap inside the unrolled loop, so plain and
    // coefficient taps keep their lowered order. A plain tap's `a` row is
    // its own value row: loaded, never selected.
    let scaled: [bool; K] = std::array::from_fn(|j| taps[j].cf.is_some());
    let a: [&[f64]; K] =
        std::array::from_fn(|j| taps[j].cf.map_or(rows[j], |c| crows[c].unit(count)));
    let weight = |j: usize, i: usize| {
        let w = coeff[j] * a[j][i];
        if scaled[j] {
            w
        } else {
            coeff[j]
        }
    };
    row_body::<K>(out_row, 1, count, bias, weight, value);
}

/// The const-arity row kernel for a tap arity, if one is instantiated.
/// The table stops at `polymg::specialize::MAX_SPEC_TAPS` (= 28) — beyond
/// that the generic path may choose coefficient factoring, which sums in a
/// different order, so the classifier never tags such kernels anyway.
fn spec_row_fn(arity: usize) -> Option<RowFn> {
    macro_rules! table {
        ($($k:literal)*) => {
            match arity {
                $($k => Some(spec_row::<$k> as RowFn),)*
                _ => None,
            }
        };
    }
    table!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28)
}

// ---------------------------------------------------------------------------
// Lane tiers: explicit-width SIMD row kernels
// ---------------------------------------------------------------------------

/// f64 lanes per inner-loop step of the lane tiers. Eight lanes is one
/// AVX-512 register / two AVX2 registers; the fixed-width array accumulators
/// below lower to full-width vector ops under either ISA.
pub const LANES: usize = 8;

/// Host vector ISA, detected once. The lane bodies are compiled three ways
/// (baseline / AVX2 / AVX-512) via `#[target_feature]` multiversioning —
/// without this the workspace's baseline `x86-64` target would pin every
/// lane loop to 2-wide SSE2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

fn isa() -> Isa {
    use std::sync::OnceLock;
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        // `GMG_SIMD_ISA=baseline|avx2|avx512` pins the lane codepath —
        // for differential debugging and for overriding the default width
        // choice. A pin is honored only if the host has the features.
        //
        // AVX2 is preferred even where AVX-512 is available: on the
        // Skylake-SP generation, 512-bit ops trigger license-based
        // frequency downclocking that penalizes the scalar/dispatch code
        // between row calls, and measured chain throughput was
        // consistently better at 256-bit. `GMG_SIMD_ISA=avx512` opts into
        // zmm for hosts (Ice Lake+) where the license penalty is gone.
        let pin = std::env::var("GMG_SIMD_ISA").ok();
        let pin = pin.as_deref();
        if pin == Some("baseline") {
            return Isa::Baseline;
        }
        #[cfg(target_arch = "x86_64")]
        {
            let has512 = std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("fma");
            // fma alongside avx2: the fast-math variants use `mul_add`,
            // which must never fall back to the (slow) software fma.
            let has2 = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            if has512 && pin == Some("avx512") {
                return Isa::Avx512;
            }
            if has2 {
                return Isa::Avx2;
            }
            if has512 {
                return Isa::Avx512;
            }
        }
        Isa::Baseline
    })
}

/// Lane-safe unit-stride body: vectorizes ACROSS output points. Each lane
/// computes its own point's full tap sum in exactly the generic order
/// (`bias + c₀·r₀[i] + c₁·r₁[i] + …`), and the scalar remainder loop is
/// that same order — so this body is bitwise-identical to [`run_row`]'s
/// unit path for every element. (Rust never contracts `a*b + c` into an
/// fma, so enabling wider ISAs cannot change the rounding.)
#[inline(always)]
fn lane_safe_body<const K: usize>(
    out_row: &mut [f64],
    count: usize,
    bias: f64,
    rows: &[&[f64]; K],
    coeff: &[f64; K],
) {
    let mut i = 0;
    while i + LANES <= count {
        let mut acc = [bias; LANES];
        for j in 0..K {
            let c = coeff[j];
            let r = &rows[j][i..i + LANES];
            for l in 0..LANES {
                acc[l] += c * r[l];
            }
        }
        out_row[i..i + LANES].copy_from_slice(&acc);
        i += LANES;
    }
    while i < count {
        let mut acc = bias;
        for j in 0..K {
            acc += coeff[j] * rows[j][i];
        }
        out_row[i] = acc;
        i += 1;
    }
}

/// Reassociating unit-stride body: the per-point tap chain is split into
/// two independent partial sums (breaking the serial add dependence the
/// lane-safe body carries), folded as `bias + (even + odd)` at the end, and
/// fused multiply-adds are used when `FMA` (only instantiated inside
/// `target_feature(fma)` variants — software fma would be a libm call per
/// tap). Results differ from the generic path at round-off level; the ULP
/// differential suite bounds the divergence.
#[inline(always)]
fn fast_math_body<const K: usize, const FMA: bool>(
    out_row: &mut [f64],
    count: usize,
    bias: f64,
    rows: &[&[f64]; K],
    coeff: &[f64; K],
) {
    let mut i = 0;
    while i + LANES <= count {
        let mut acc0 = [0.0f64; LANES];
        let mut acc1 = [0.0f64; LANES];
        let mut j = 0;
        while j + 1 < K {
            let (c0, c1) = (coeff[j], coeff[j + 1]);
            let r0 = &rows[j][i..i + LANES];
            let r1 = &rows[j + 1][i..i + LANES];
            for l in 0..LANES {
                if FMA {
                    acc0[l] = c0.mul_add(r0[l], acc0[l]);
                    acc1[l] = c1.mul_add(r1[l], acc1[l]);
                } else {
                    acc0[l] += c0 * r0[l];
                    acc1[l] += c1 * r1[l];
                }
            }
            j += 2;
        }
        if j < K {
            let c = coeff[j];
            let r = &rows[j][i..i + LANES];
            for l in 0..LANES {
                if FMA {
                    acc0[l] = c.mul_add(r[l], acc0[l]);
                } else {
                    acc0[l] += c * r[l];
                }
            }
        }
        for l in 0..LANES {
            out_row[i + l] = bias + (acc0[l] + acc1[l]);
        }
        i += LANES;
    }
    while i < count {
        let (mut acc0, mut acc1) = (0.0f64, 0.0f64);
        let mut j = 0;
        while j + 1 < K {
            if FMA {
                acc0 = coeff[j].mul_add(rows[j][i], acc0);
                acc1 = coeff[j + 1].mul_add(rows[j + 1][i], acc1);
            } else {
                acc0 += coeff[j] * rows[j][i];
                acc1 += coeff[j + 1] * rows[j + 1][i];
            }
            j += 2;
        }
        if j < K {
            if FMA {
                acc0 = coeff[j].mul_add(rows[j][i], acc0);
            } else {
                acc0 += coeff[j] * rows[j][i];
            }
        }
        out_row[i] = bias + (acc0 + acc1);
        i += 1;
    }
}

// ISA-multiversioned variants: same `#[inline(always)]` body recompiled
// under wider target features, selected once per row through [`isa`].
// SAFETY (all four): only called after `is_x86_feature_detected!` confirmed
// the enabled features at [`isa`] init.

// The lane-safe wide variants are also explicit-intrinsic: each vector
// lane performs `((bias + c₀·r₀) + c₁·r₁) + …` — the exact scalar
// association, separate mul then add, never fma — so every lane is
// bitwise-equal to the generic per-point chain. Hand-written packed ops
// sidestep the autovectorizer's shuffle-heavy lowering of the portable
// lane-array body.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_safe_avx2<const K: usize>(
    out_row: &mut [f64],
    count: usize,
    bias: f64,
    rows: &[&[f64]; K],
    coeff: &[f64; K],
) {
    use core::arch::x86_64::*;
    let b = _mm256_set1_pd(bias);
    let mut i = 0;
    // Two vectors per iteration: each point's add chain is serial (the
    // bitwise contract), but chains of different points are independent —
    // interleaving two hides the add latency without reassociating.
    while i + 8 <= count {
        let mut acc0 = b;
        let mut acc1 = b;
        for j in 0..K {
            let c = _mm256_set1_pd(coeff[j]);
            let p = rows[j].as_ptr().add(i);
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(c, _mm256_loadu_pd(p)));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(c, _mm256_loadu_pd(p.add(4))));
        }
        _mm256_storeu_pd(out_row.as_mut_ptr().add(i), acc0);
        _mm256_storeu_pd(out_row.as_mut_ptr().add(i + 4), acc1);
        i += 8;
    }
    while i + 4 <= count {
        let mut acc = b;
        for j in 0..K {
            acc = _mm256_add_pd(
                acc,
                _mm256_mul_pd(
                    _mm256_set1_pd(coeff[j]),
                    _mm256_loadu_pd(rows[j].as_ptr().add(i)),
                ),
            );
        }
        _mm256_storeu_pd(out_row.as_mut_ptr().add(i), acc);
        i += 4;
    }
    lane_safe_tail::<K>(out_row, i, count, bias, rows, coeff);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lane_safe_avx512<const K: usize>(
    out_row: &mut [f64],
    count: usize,
    bias: f64,
    rows: &[&[f64]; K],
    coeff: &[f64; K],
) {
    use core::arch::x86_64::*;
    let b = _mm512_set1_pd(bias);
    let mut i = 0;
    // Same two-chain interleave as the AVX2 body (see comment there).
    while i + 16 <= count {
        let mut acc0 = b;
        let mut acc1 = b;
        for j in 0..K {
            let c = _mm512_set1_pd(coeff[j]);
            let p = rows[j].as_ptr().add(i);
            acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(c, _mm512_loadu_pd(p)));
            acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(c, _mm512_loadu_pd(p.add(8))));
        }
        _mm512_storeu_pd(out_row.as_mut_ptr().add(i), acc0);
        _mm512_storeu_pd(out_row.as_mut_ptr().add(i + 8), acc1);
        i += 16;
    }
    while i + 8 <= count {
        let mut acc = b;
        for j in 0..K {
            acc = _mm512_add_pd(
                acc,
                _mm512_mul_pd(
                    _mm512_set1_pd(coeff[j]),
                    _mm512_loadu_pd(rows[j].as_ptr().add(i)),
                ),
            );
        }
        _mm512_storeu_pd(out_row.as_mut_ptr().add(i), acc);
        i += 8;
    }
    lane_safe_tail::<K>(out_row, i, count, bias, rows, coeff);
}

/// Scalar remainder of the wide lane-safe kernels — the generic tap chain
/// verbatim, so the tail is bitwise-identical too.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn lane_safe_tail<const K: usize>(
    out_row: &mut [f64],
    from: usize,
    count: usize,
    bias: f64,
    rows: &[&[f64]; K],
    coeff: &[f64; K],
) {
    for i in from..count {
        let mut acc = bias;
        for j in 0..K {
            acc += coeff[j] * rows[j][i];
        }
        out_row[i] = acc;
    }
}

// The fast-math wide variants are written with explicit (stable) packed
// intrinsics rather than through `fast_math_body`: LLVM's SLP pass does
// not re-vectorize the `mul_add` lane arrays and would otherwise emit a
// fully scalar-fma unroll — measured ~3× slower than the lane-safe tier
// instead of faster.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fast_math_avx2<const K: usize>(
    out_row: &mut [f64],
    count: usize,
    bias: f64,
    rows: &[&[f64]; K],
    coeff: &[f64; K],
) {
    use core::arch::x86_64::*;
    let b = _mm256_set1_pd(bias);
    let mut i = 0;
    while i + 4 <= count {
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut j = 0;
        while j + 1 < K {
            acc0 = _mm256_fmadd_pd(
                _mm256_set1_pd(coeff[j]),
                _mm256_loadu_pd(rows[j].as_ptr().add(i)),
                acc0,
            );
            acc1 = _mm256_fmadd_pd(
                _mm256_set1_pd(coeff[j + 1]),
                _mm256_loadu_pd(rows[j + 1].as_ptr().add(i)),
                acc1,
            );
            j += 2;
        }
        if j < K {
            acc0 = _mm256_fmadd_pd(
                _mm256_set1_pd(coeff[j]),
                _mm256_loadu_pd(rows[j].as_ptr().add(i)),
                acc0,
            );
        }
        _mm256_storeu_pd(
            out_row.as_mut_ptr().add(i),
            _mm256_add_pd(b, _mm256_add_pd(acc0, acc1)),
        );
        i += 4;
    }
    fast_math_tail::<K>(out_row, i, count, bias, rows, coeff);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn fast_math_avx512<const K: usize>(
    out_row: &mut [f64],
    count: usize,
    bias: f64,
    rows: &[&[f64]; K],
    coeff: &[f64; K],
) {
    use core::arch::x86_64::*;
    let b = _mm512_set1_pd(bias);
    let mut i = 0;
    while i + 8 <= count {
        let mut acc0 = _mm512_setzero_pd();
        let mut acc1 = _mm512_setzero_pd();
        let mut j = 0;
        while j + 1 < K {
            acc0 = _mm512_fmadd_pd(
                _mm512_set1_pd(coeff[j]),
                _mm512_loadu_pd(rows[j].as_ptr().add(i)),
                acc0,
            );
            acc1 = _mm512_fmadd_pd(
                _mm512_set1_pd(coeff[j + 1]),
                _mm512_loadu_pd(rows[j + 1].as_ptr().add(i)),
                acc1,
            );
            j += 2;
        }
        if j < K {
            acc0 = _mm512_fmadd_pd(
                _mm512_set1_pd(coeff[j]),
                _mm512_loadu_pd(rows[j].as_ptr().add(i)),
                acc0,
            );
        }
        _mm512_storeu_pd(
            out_row.as_mut_ptr().add(i),
            _mm512_add_pd(b, _mm512_add_pd(acc0, acc1)),
        );
        i += 8;
    }
    fast_math_tail::<K>(out_row, i, count, bias, rows, coeff);
}

/// Scalar remainder of the wide fast-math kernels: same two-partial-sum
/// association and fma contraction as the vector loop, so the tail stays
/// inside the same rounding model (`#[inline(always)]` into the
/// fma-enabled callers keeps `mul_add` a hardware instruction).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn fast_math_tail<const K: usize>(
    out_row: &mut [f64],
    from: usize,
    count: usize,
    bias: f64,
    rows: &[&[f64]; K],
    coeff: &[f64; K],
) {
    for i in from..count {
        let (mut acc0, mut acc1) = (0.0f64, 0.0f64);
        let mut j = 0;
        while j + 1 < K {
            acc0 = coeff[j].mul_add(rows[j][i], acc0);
            acc1 = coeff[j + 1].mul_add(rows[j + 1][i], acc1);
            j += 2;
        }
        if j < K {
            acc0 = coeff[j].mul_add(rows[j][i], acc0);
        }
        out_row[i] = bias + (acc0 + acc1);
    }
}

/// Lane-safe SIMD row kernel (the [`KernelTier::LaneSafe`] dispatch
/// target). The unit path runs the multiversioned [`lane_safe_body`];
/// strided accesses (restrict / interp reads) keep the unrolled scalar
/// loop — their gathers don't vectorize profitably.
fn lane_row<const K: usize>(
    out_row: &mut [f64],
    out_slope: usize,
    count: usize,
    bias: f64,
    taps: &[RtTap<'_>],
    crows: &[RtTap<'_>],
) {
    debug_assert_eq!(taps.len(), K);
    if out_slope == 1 && taps.iter().all(|t| t.slope == 1) {
        let out_row = &mut out_row[..count];
        let mut rows: [&[f64]; K] = [&[]; K];
        let mut coeff = [0.0f64; K];
        for (j, t) in taps.iter().enumerate() {
            rows[j] = t.unit(count);
            coeff[j] = t.coeff;
        }
        match isa() {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { lane_safe_avx512::<K>(out_row, count, bias, &rows, &coeff) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { lane_safe_avx2::<K>(out_row, count, bias, &rows, &coeff) },
            Isa::Baseline => lane_safe_body::<K>(out_row, count, bias, &rows, &coeff),
        }
        return;
    }
    spec_row::<K>(out_row, out_slope, count, bias, taps, crows)
}

/// Reassociating SIMD row kernel (the [`KernelTier::FastMath`] dispatch
/// target). Strided accesses fall back to the unrolled scalar loop exactly
/// like [`lane_row`] — so strided cases stay bitwise-identical even under
/// fast-math.
fn fast_row<const K: usize>(
    out_row: &mut [f64],
    out_slope: usize,
    count: usize,
    bias: f64,
    taps: &[RtTap<'_>],
    crows: &[RtTap<'_>],
) {
    debug_assert_eq!(taps.len(), K);
    if out_slope == 1 && taps.iter().all(|t| t.slope == 1) {
        let out_row = &mut out_row[..count];
        let mut rows: [&[f64]; K] = [&[]; K];
        let mut coeff = [0.0f64; K];
        for (j, t) in taps.iter().enumerate() {
            rows[j] = t.unit(count);
            coeff[j] = t.coeff;
        }
        match isa() {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { fast_math_avx512::<K>(out_row, count, bias, &rows, &coeff) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { fast_math_avx2::<K>(out_row, count, bias, &rows, &coeff) },
            Isa::Baseline => fast_math_body::<K, false>(out_row, count, bias, &rows, &coeff),
        }
        return;
    }
    spec_row::<K>(out_row, out_slope, count, bias, taps, crows)
}

/// The lane-safe row kernel for a tap arity, if one is instantiated (same
/// 1..=28 table as [`spec_row_fn`]).
fn lane_row_fn(arity: usize) -> Option<RowFn> {
    macro_rules! table {
        ($($k:literal)*) => {
            match arity {
                $($k => Some(lane_row::<$k> as RowFn),)*
                _ => None,
            }
        };
    }
    table!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28)
}

/// The reassociating row kernel for a tap arity, if one is instantiated.
fn fast_row_fn(arity: usize) -> Option<RowFn> {
    macro_rules! table {
        ($($k:literal)*) => {
            match arity {
                $($k => Some(fast_row::<$k> as RowFn),)*
                _ => None,
            }
        };
    }
    table!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28)
}

/// The generic row: `out[k·out_slope] = bias + Σ weight·data[base+k·slope]`
/// for `k` in `0..count`. Unit-stride rows take the const-arity kernel of
/// their arity, plain or coefficient-scaled alike.
fn run_row(
    out_row: &mut [f64],
    out_slope: usize,
    count: usize,
    bias: f64,
    taps: &[RtTap<'_>],
    crows: &[RtTap<'_>],
) {
    if out_slope == 1 && taps.iter().chain(crows).all(|t| t.slope == 1) {
        if let Some(row) = spec_row_fn(taps.len()) {
            return row(out_row, 1, count, bias, taps, crows);
        }
        // Coefficient-factored path: when the lowering sorted taps by
        // coefficient (see `polymg::lowering`), adjacent equal-coefficient
        // runs are summed before the single multiply. Measured on this
        // host, the const-arity kernels beat this for ≤28 taps (LLVM keeps
        // everything in registers), so it only engages for stencils wider
        // than the table, where the alternative is the per-tap fallback.
        let spans = crows.is_empty().then(|| coeff_spans(taps));
        if let Some(spans) = spans.filter(|s| s.len() * 2 <= taps.len()) {
            let rows: Vec<&[f64]> = taps.iter().map(|t| t.unit(count)).collect();
            for (i, out) in out_row[..count].iter_mut().enumerate() {
                let mut acc = bias;
                for &(c, a, b) in &spans {
                    let mut s = 0.0;
                    for r in &rows[a..b] {
                        s += r[i];
                    }
                    acc += c * s;
                }
                *out = acc;
            }
            return;
        }
    }
    dyn_row(out_row, out_slope, count, bias, taps, crows)
}

/// The dynamic fallback, and the in-file reference for [`row_body`]: the
/// same per-point chain with run-time arity and strides. Taken by arities
/// outside the 1..=28 table and by strided rows (restrict / interp shapes,
/// with or without coefficient taps).
fn dyn_row(
    out_row: &mut [f64],
    out_slope: usize,
    count: usize,
    bias: f64,
    taps: &[RtTap<'_>],
    crows: &[RtTap<'_>],
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
fn grid<'a, 'b>(ins: &'b [KernelInput<'a>], slot: usize) -> &'b Space<'a> {
    match &ins[slot] {
        KernelInput::Grid(s) => s,
        KernelInput::Zero => panic!("linear tap reads the zero grid (lowering bug)"),
    }
}

/// The cursors a linear case needs, as `(slot, access, coeff, cf)`: its
/// taps in lowered order, then one per *distinct* [`CoeffRead`] — the five
/// taps of `a·(A v)` share one `A(0,0)` row — with each coefficient tap's
/// `cf` indexing into that tail.
fn case_cursors(form: &LinearForm) -> Vec<(usize, &Access, f64, Option<usize>)> {
    let mut crows: Vec<&CoeffRead> = Vec::new();
    let mut cursors: Vec<_> = form
        .taps
        .iter()
        .map(|t| {
            let cf = t.cfactor.as_ref().map(|c| {
                crows.iter().position(|r| *r == c).unwrap_or_else(|| {
                    crows.push(c);
                    crows.len() - 1
                })
            });
            (t.slot, &t.access, t.coeff, cf)
        })
        .collect();
    cursors.extend(crows.iter().map(|c| (c.slot, &c.access, 1.0, None)));
    cursors
}

fn linear_2d(
    form: &LinearForm,
    pattern: &ParityPattern,
    region: &BoxDomain,
    out: &mut KernelOut<'_>,
    ins: &[KernelInput<'_>],
    spec: Option<RowFn>,
    xblock: usize,
) {
    let row_fn: RowFn = spec.unwrap_or(run_row as RowFn);
    let Some((y0, sy)) = parity_start(region.0[0].lo, region.0[0].hi, pattern.0[0]) else {
        return;
    };
    let Some((x0, sx)) = parity_start(region.0[1].lo, region.0[1].hi, pattern.0[1]) else {
        return;
    };
    let count = ((region.0[1].hi - x0) / sx + 1) as usize;
    let out_rs = out.extent(1) as usize;
    let (oy, ox) = (out.origin(0), out.origin(1));

    // cursor bases are affine in the row index: compute once, advance by a
    // constant per row (no per-row allocation or division in steady state)
    let arity = form.taps.len();
    let cursors = case_cursors(form);
    let mut taps: Vec<RtTap<'_>> = Vec::with_capacity(cursors.len());
    let mut deltas: Vec<usize> = Vec::with_capacity(cursors.len());
    for &(slot, access, coeff, cf) in &cursors {
        let s = grid(ins, slot);
        let row = tap_row_base(access, s, &[y0]);
        let (xb, slope) = tap_x_base_slope(access, s, x0, sx);
        deltas.push((axis_coord_delta(&access.0[0], sy) * s.extents[1]) as usize);
        taps.push(RtTap {
            data: s.data,
            base: row + xb,
            slope,
            coeff,
            cf,
        });
    }

    let kind = dispatch_kind(sx as usize, &taps[..arity], &taps[arity..]);
    gmg_trace::dispatch::record(kind, 1);

    let ob0 = (y0 - oy) as usize * out_rs + (x0 - ox) as usize;
    let out_delta = sy as usize * out_rs;

    // Cache-blocked nest for the lane tiers: split the unit-stride
    // dimension into `xblock`-point slabs and sweep all rows of one slab
    // before moving on, so a slab's input rows stay cache-resident across
    // the y loop. Per-point arithmetic is untouched (each point sees the
    // same taps in the same order), so blocking is bitwise-transparent.
    if xblock > 0 && sx == 1 && count > xblock && taps.iter().all(|t| t.slope == 1) {
        let mut start = 0usize;
        while start < count {
            let len = (count - start).min(xblock);
            let mut btaps: Vec<RtTap<'_>> = taps
                .iter()
                .map(|t| RtTap {
                    base: t.base + start,
                    ..*t
                })
                .collect();
            let mut y = y0;
            let mut ob = ob0 + start;
            while y <= region.0[0].hi {
                row_fn(
                    out.row_mut(ob, len),
                    1,
                    len,
                    form.bias,
                    &btaps[..arity],
                    &btaps[arity..],
                );
                for (t, d) in btaps.iter_mut().zip(&deltas) {
                    t.base += d;
                }
                ob += out_delta;
                y += sy;
            }
            start += len;
        }
        return;
    }

    let mut y = y0;
    let mut ob = ob0;
    let needed = if count == 0 {
        0
    } else {
        (count - 1) * sx as usize + 1
    };
    while y <= region.0[0].hi {
        row_fn(
            out.row_mut(ob, needed),
            sx as usize,
            count,
            form.bias,
            &taps[..arity],
            &taps[arity..],
        );
        for (t, d) in taps.iter_mut().zip(&deltas) {
            t.base += d;
        }
        ob += out_delta;
        y += sy;
    }
}

fn linear_3d(
    form: &LinearForm,
    pattern: &ParityPattern,
    region: &BoxDomain,
    out: &mut KernelOut<'_>,
    ins: &[KernelInput<'_>],
    spec: Option<RowFn>,
    xblock: usize,
) {
    let row_fn: RowFn = spec.unwrap_or(run_row as RowFn);
    let Some((z0, sz)) = parity_start(region.0[0].lo, region.0[0].hi, pattern.0[0]) else {
        return;
    };
    let Some((y0, sy)) = parity_start(region.0[1].lo, region.0[1].hi, pattern.0[1]) else {
        return;
    };
    let Some((x0, sx)) = parity_start(region.0[2].lo, region.0[2].hi, pattern.0[2]) else {
        return;
    };
    let count = ((region.0[2].hi - x0) / sx + 1) as usize;
    let out_rs = out.extent(2) as usize;
    let out_ps = (out.extent(1) * out.extent(2)) as usize;
    let (oz, oy, ox) = (out.origin(0), out.origin(1), out.origin(2));

    // per cursor: base at (z0, y0), Δy increment, Δz increment (affine in both)
    let arity = form.taps.len();
    let cursors = case_cursors(form);
    let mut taps: Vec<RtTap<'_>> = Vec::with_capacity(cursors.len());
    let mut dy: Vec<usize> = Vec::with_capacity(cursors.len());
    let mut dz_wrap: Vec<i64> = Vec::with_capacity(cursors.len());
    let ny_rows = {
        let mut c = 0i64;
        let mut y = y0;
        while y <= region.0[1].hi {
            c += 1;
            y += sy;
        }
        c
    };
    for &(slot, access, coeff, cf) in &cursors {
        let s = grid(ins, slot);
        let base = tap_row_base(access, s, &[z0, y0]);
        let (xb, slope) = tap_x_base_slope(access, s, x0, sx);
        let row_stride = s.extents[2];
        let plane_stride = s.extents[1] * s.extents[2];
        let delta_y = axis_coord_delta(&access.0[1], sy) * row_stride;
        let delta_z = axis_coord_delta(&access.0[0], sz) * plane_stride;
        dy.push(delta_y as usize);
        // after ny_rows y-advances the base sits at base + ny_rows·Δy; wrap
        // to the next z-plane start with a (possibly negative) correction
        dz_wrap.push(delta_z - ny_rows * delta_y);
        taps.push(RtTap {
            data: s.data,
            base: base + xb,
            slope,
            coeff,
            cf,
        });
    }

    let kind = dispatch_kind(sx as usize, &taps[..arity], &taps[arity..]);
    gmg_trace::dispatch::record(kind, 1);

    let ob0 = (z0 - oz) as usize * out_ps + (y0 - oy) as usize * out_rs + (x0 - ox) as usize;

    // Cache-blocked nest for the lane tiers: x-slabs outer, z/y rows inner
    // (see `linear_2d` — same bitwise-transparency argument).
    if xblock > 0 && sx == 1 && count > xblock && taps.iter().all(|t| t.slope == 1) {
        let mut start = 0usize;
        while start < count {
            let len = (count - start).min(xblock);
            let mut btaps: Vec<RtTap<'_>> = taps
                .iter()
                .map(|t| RtTap {
                    base: t.base + start,
                    ..*t
                })
                .collect();
            let mut z = z0;
            let mut ob_z = ob0 + start;
            while z <= region.0[0].hi {
                let mut y = y0;
                let mut ob = ob_z;
                while y <= region.0[1].hi {
                    row_fn(
                        out.row_mut(ob, len),
                        1,
                        len,
                        form.bias,
                        &btaps[..arity],
                        &btaps[arity..],
                    );
                    for (t, d) in btaps.iter_mut().zip(&dy) {
                        t.base += d;
                    }
                    ob += sy as usize * out_rs;
                    y += sy;
                }
                for (t, w) in btaps.iter_mut().zip(&dz_wrap) {
                    t.base = (t.base as i64 + w) as usize;
                }
                ob_z += sz as usize * out_ps;
                z += sz;
            }
            start += len;
        }
        return;
    }

    let needed = if count == 0 {
        0
    } else {
        (count - 1) * sx as usize + 1
    };
    let mut z = z0;
    let mut ob_z = ob0;
    while z <= region.0[0].hi {
        let mut y = y0;
        let mut ob = ob_z;
        while y <= region.0[1].hi {
            row_fn(
                out.row_mut(ob, needed),
                sx as usize,
                count,
                form.bias,
                &taps[..arity],
                &taps[arity..],
            );
            for (t, d) in taps.iter_mut().zip(&dy) {
                t.base += d;
            }
            ob += sy as usize * out_rs;
            y += sy;
        }
        for (t, w) in taps.iter_mut().zip(&dz_wrap) {
            t.base = (t.base as i64 + w) as usize;
        }
        ob_z += sz as usize * out_ps;
        z += sz;
    }
}

/// Interpreter fallback: evaluate the expression per point.
fn interpret_case(
    expr: &Expr,
    pattern: &ParityPattern,
    region: &BoxDomain,
    out: &mut KernelOut<'_>,
    ins: &[KernelInput<'_>],
    slot_boundary: &[f64],
) {
    gmg_trace::dispatch::record(gmg_trace::dispatch::Kind::Interpreter, 1);
    let nd = region.ndims();
    let mut point = vec![0i64; nd];
    iterate_parity(region, pattern, nd, &mut point, 0, &mut |p| {
        let v = expr.eval_at(p, &mut |op, idx| {
            let Operand::Slot(k) = op else {
                panic!("unresolved operand at execution time")
            };
            match &ins[*k] {
                KernelInput::Grid(s) => s.at_or(idx, slot_boundary[*k]),
                KernelInput::Zero => slot_boundary[*k],
            }
        });
        let mut idx = 0usize;
        for d in 0..nd {
            idx = idx * out.extent(d) as usize + (p[d] - out.origin(d)) as usize;
        }
        out.row_mut(idx, 1)[0] = v;
    });
}

fn iterate_parity(
    region: &BoxDomain,
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
    let Some((start, step)) = parity_start(region.0[d].lo, region.0[d].hi, pattern.0[d]) else {
        return;
    };
    let mut v = start;
    while v <= region.0[d].hi {
        point[d] = v;
        iterate_parity(region, pattern, nd, point, d + 1, f);
        v += step;
    }
}

/// Fill every cell of `out` *outside* `inner` with `value` — the scratchpad
/// halo initialisation (ghost/boundary ring of a tile's alloc box).
pub fn fill_outside(out: &mut SpaceMut<'_>, inner: &BoxDomain, value: f64) {
    let nd = out.origin.len();
    match nd {
        2 => {
            let (ey, ex) = (out.extents[0], out.extents[1]);
            let iy = inner.0[0].shift(-out.origin[0]);
            let ix = inner.0[1].shift(-out.origin[1]);
            for y in 0..ey {
                let row = &mut out.data[(y * ex) as usize..((y + 1) * ex) as usize];
                if inner.is_empty() || !iy.contains(y) {
                    row.fill(value);
                } else {
                    for (x, v) in row.iter_mut().enumerate() {
                        if !ix.contains(x as i64) {
                            *v = value;
                        }
                    }
                }
            }
        }
        3 => {
            let (ez, ey, ex) = (out.extents[0], out.extents[1], out.extents[2]);
            let iz = inner.0[0].shift(-out.origin[0]);
            let iy = inner.0[1].shift(-out.origin[1]);
            let ix = inner.0[2].shift(-out.origin[2]);
            for z in 0..ez {
                for y in 0..ey {
                    let base = ((z * ey + y) * ex) as usize;
                    let row = &mut out.data[base..base + ex as usize];
                    if inner.is_empty() || !iz.contains(z) || !iy.contains(y) {
                        row.fill(value);
                    } else {
                        for (x, v) in row.iter_mut().enumerate() {
                            if !ix.contains(x as i64) {
                                *v = value;
                            }
                        }
                    }
                }
            }
        }
        d => panic!("unsupported rank {d}"),
    }
}

/// Copy `region` (global coordinates) from `src` to `dst`.
pub fn copy_box(src: &Space<'_>, dst: &mut SpaceMut<'_>, region: &BoxDomain) {
    if region.is_empty() {
        return;
    }
    let nd = region.ndims();
    match nd {
        2 => {
            let (xl, xh) = (region.0[1].lo, region.0[1].hi);
            let w = (xh - xl + 1) as usize;
            for y in region.0[0].lo..=region.0[0].hi {
                let sb = ((y - src.origin[0]) * src.extents[1] + (xl - src.origin[1])) as usize;
                let db = ((y - dst.origin[0]) * dst.extents[1] + (xl - dst.origin[1])) as usize;
                dst.data[db..db + w].copy_from_slice(&src.data[sb..sb + w]);
            }
        }
        3 => {
            let (xl, xh) = (region.0[2].lo, region.0[2].hi);
            let w = (xh - xl + 1) as usize;
            let sps = src.extents[1] * src.extents[2];
            let dps = dst.extents[1] * dst.extents[2];
            for z in region.0[0].lo..=region.0[0].hi {
                for y in region.0[1].lo..=region.0[1].hi {
                    let sb = ((z - src.origin[0]) * sps
                        + (y - src.origin[1]) * src.extents[2]
                        + (xl - src.origin[2])) as usize;
                    let db = ((z - dst.origin[0]) * dps
                        + (y - dst.origin[1]) * dst.extents[2]
                        + (xl - dst.origin[2])) as usize;
                    dst.data[db..db + w].copy_from_slice(&src.data[sb..sb + w]);
                }
            }
        }
        d => panic!("unsupported rank {d}"),
    }
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
        {
            let mut out = SpaceMut {
                data: &mut buf,
                origin: &origin,
                extents: &ext,
            };
            fill_outside(&mut out, &inner, 9.0);
        }
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
        {
            let mut out = SpaceMut {
                data: &mut buf,
                origin: &origin,
                extents: &ext,
            };
            fill_outside(&mut out, &inner, 0.0);
        }
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
        spec_row::<6>(&mut fast, 1, n, 0.25, &taps, &crows);
        dyn_row(&mut reference, 1, n, 0.25, &taps, &crows);
        assert!(reference.iter().all(|x| *x != 0.25), "taps contribute");
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&reference));
    }
}
