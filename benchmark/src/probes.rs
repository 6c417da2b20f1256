//! Layer probes: single layers measured from outside at fixed reference
//! shapes, run once per traced run. Row kernels, the buffer pool, the
//! batched engine pass and the residual norm are only reachable this way;
//! `server.*` is also probed here, for the workloads that have no server.

use crate::catalog::{kernel_tiers, KERNEL_FAMILIES};
use crate::host::{copy_probe, Fingerprint};
use crate::inputs;
use crate::plans::{build_cold, PlanSpec, Session};
use crate::result::{Layers, Origin, RunCtx};
use crate::serve;
use crate::spans::Recorder;
use crate::speed::Speed;
use crate::stats::Row;
use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::scenario::residual_norm_varcoef;
use gmg_runtime::kernel::{execute_stage_sel, KernelInput, Space, SpaceMut};
use gmg_runtime::BufferPool;
use polymg::schedule::{ExecOp, ExecProgram, OpInput, StageExec};
use polymg::{KernelBody, KernelImpl, KernelSel, KernelTier, Scenario, Variant};
use std::time::Instant;

fn put(layers: &mut Layers, name: &str, row: Row) {
    layers.insert(name.to_string(), (row, Origin::Probe));
}

/// Time `f` until both `min_reps` calls and `min_secs` have passed;
/// speed-normalised nanoseconds per call.
fn time_reps(speed: &mut Speed, min_reps: usize, min_secs: f64, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < min_reps || start.elapsed().as_secs_f64() < min_secs {
        let t0 = Instant::now();
        f();
        ns.push(t0.elapsed().as_nanos() as f64 / speed.factor());
    }
    ns
}

/// Where each kernel family is taken from: a plan compiled under
/// `Variant::Naive` (every stage an untiled full-grid sweep), at the size
/// the ISSUE fixes (2-D n 1023 / 3-D n 127).
fn family_source(family: &str) -> (PlanSpec, KernelImpl) {
    let star2 = MgConfig::new(2, 1023, CycleType::V, SmoothSteps::s444());
    let star3 = MgConfig::new(3, 127, CycleType::V, SmoothSteps::s444());
    let (cfg, scenario, tag) = match family {
        "stencil2d5" => (star2, Scenario::Constant, KernelImpl::Stencil2D5),
        "stencil2d9" => (
            star2.with_dense_operator(),
            Scenario::Constant,
            KernelImpl::Stencil2D9,
        ),
        "stencil3d7" => (star3, Scenario::Constant, KernelImpl::Stencil3D7),
        "stencil3d27" => (
            star3.with_dense_operator(),
            Scenario::Constant,
            KernelImpl::Stencil3D27,
        ),
        "restrict" => (star2, Scenario::Constant, KernelImpl::Restrict),
        "interp" => (star2, Scenario::Constant, KernelImpl::Interp),
        "generic_coeff" => (star2, Scenario::VarCoef, KernelImpl::Generic),
        other => panic!("unknown kernel family {other}"),
    };
    (PlanSpec::new(family, cfg, scenario, Variant::Naive), tag)
}

fn has_coeff_tap(program: &ExecProgram, stage: &StageExec) -> bool {
    program.kernels[stage.kernel]
        .cases
        .iter()
        .any(|c| match &c.body {
            KernelBody::Linear(form) => form.taps.iter().any(|t| t.cfactor.is_some()),
            KernelBody::Interpreted(_) => false,
        })
}

fn taps(program: &ExecProgram, stage: &StageExec) -> usize {
    program.kernels[stage.kernel]
        .cases
        .iter()
        .map(|c| match &c.body {
            KernelBody::Linear(form) => form.taps.len(),
            KernelBody::Interpreted(_) => 0,
        })
        .max()
        .unwrap_or(0)
}

/// The untiled stage of `family` with the most taps (the operator, not a
/// one-tap copy that classifies into the same family), on the largest
/// domain; `None` if the plan has none.
fn find_stage<'p>(
    program: &'p ExecProgram,
    family: &str,
    tag: KernelImpl,
) -> Option<&'p StageExec> {
    program
        .ops
        .iter()
        .filter_map(|op| match op {
            ExecOp::RunUntiledStage { stage } => Some(stage),
            _ => None,
        })
        .filter(|s| s.impl_tag == tag && (family != "generic_coeff" || has_coeff_tap(program, s)))
        .max_by_key(|s| (taps(program, s), s.domain.len()))
}

/// `kernel::execute_stage_sel` over the stage's whole domain, per tier.
fn kernel_probes(ctx: &RunCtx, speed: &mut Speed, layers: &mut Layers) {
    for family in KERNEL_FAMILIES {
        let (spec, tag) = family_source(family);
        let built = build_cold(&spec, &mut Recorder::off(), 0);
        let program = built.engine.program();
        let stage = find_stage(program, family, tag)
            .unwrap_or_else(|| panic!("no untiled {family} stage in the {} plan", spec.label));
        put(
            layers,
            &format!("kernel.{family}.taps"),
            Row::exact(taps(program, stage) as f64),
        );

        let out_spec = &program.slots[stage.slot.expect("untiled stage has an output slot")];
        let mut out = vec![0.0f64; out_spec.len()];
        // one seeded dense array per input slot; coefficient grids must be
        // positive, values in [0.5, 1.5) serve every input
        let arrays: Vec<Option<Vec<f64>>> = stage
            .ins
            .iter()
            .enumerate()
            .map(|(k, i)| match i {
                OpInput::Slot { slot, .. } => Some(inputs::dense(
                    program.slots[*slot].len(),
                    inputs::stream(ctx.seed, 0x6b00 + k as u64),
                    0.5,
                    1.5,
                )),
                _ => None,
            })
            .collect();
        let ins: Vec<KernelInput<'_>> = stage
            .ins
            .iter()
            .zip(&arrays)
            .map(|(i, a)| match (i, a) {
                (OpInput::Slot { slot, .. }, Some(data)) => KernelInput::Grid(Space {
                    data,
                    origin: &program.slots[*slot].origin,
                    extents: &program.slots[*slot].extents,
                }),
                _ => KernelInput::Zero,
            })
            .collect();
        let bnd: Vec<f64> = stage
            .ins
            .iter()
            .map(|i| match i {
                OpInput::Slot { boundary, .. } | OpInput::Local { boundary, .. } => *boundary,
                OpInput::Zero => 0.0,
            })
            .collect();
        let kernel = &program.kernels[stage.kernel];
        let points = stage.domain.len() as f64;
        for tier in kernel_tiers(family) {
            let sel = KernelSel {
                impl_tag: tag,
                tier: *KernelTier::ALL
                    .iter()
                    .find(|t| t.label() == *tier)
                    .expect("tier label"),
                xblock: stage.xblock,
            };
            let ns = time_reps(speed, 3, 0.03, || {
                let mut space = SpaceMut {
                    data: &mut out,
                    origin: &out_spec.origin,
                    extents: &out_spec.extents,
                };
                execute_stage_sel(sel, kernel, &stage.domain, &mut space, &ins, &bnd);
            });
            std::hint::black_box(&out);
            put(
                layers,
                &format!("kernel.{family}.{tier}.ns_per_point"),
                Row::of_samples(&ns).scaled(1.0 / points),
            );
        }
    }
}

const POOL_PAIR_ELEMS: usize = 64 * 64;
const POOL_PAIR_BATCH: usize = 1000;

/// Warm `BufferPool::allocate` + `deallocate` of one small grid.
fn pool_probe(speed: &mut Speed, layers: &mut Layers) {
    let mut pool = BufferPool::new();
    let b = pool.allocate(POOL_PAIR_ELEMS);
    pool.deallocate(b);
    let ns = time_reps(speed, 50, 0.01, || {
        for _ in 0..POOL_PAIR_BATCH {
            let b = pool.allocate(std::hint::black_box(POOL_PAIR_ELEMS));
            pool.deallocate(std::hint::black_box(b));
        }
    });
    put(
        layers,
        "runtime.pool_pair_ns",
        Row::of_samples(&ns).scaled(1.0 / POOL_PAIR_BATCH as f64),
    );
}

const BATCH_RHS: usize = 8;

/// `Engine::run_batch` over eight right-hand sides of the `serve_batch`
/// shape (2-D n 31 V opt+), per right-hand side.
fn run_batch_probe(ctx: &RunCtx, speed: &mut Speed, layers: &mut Layers) {
    let cfg = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
    let spec = PlanSpec::new(
        "run_batch probe",
        cfg.clone(),
        Scenario::Constant,
        Variant::OptPlus,
    );
    let mut session = Session::cold(&spec, &mut Recorder::off(), 0);
    let fs: Vec<Vec<f64>> = (0..BATCH_RHS)
        .map(|k| inputs::rhs(&cfg, inputs::stream(ctx.seed, 0xba00 + k as u64)))
        .collect();
    let fs: Vec<&[f64]> = fs.iter().map(Vec::as_slice).collect();
    let mut vs = vec![inputs::zero_guess(&cfg); BATCH_RHS];
    let ns = time_reps(speed, 50, 0.05, || {
        session
            .runner
            .cycle_batch_with_stats(&mut vs, &fs)
            .expect("batched cycle");
    });
    put(
        layers,
        "runtime.run_batch_us_per_rhs",
        Row::of_samples(&ns).scaled(1e-3 / BATCH_RHS as f64),
    );
}

/// The `varcoef2d_solve` plan against its constant-coefficient twin: ratio
/// of median cycle times (base = constant), and the residual norm the solve
/// loop calls between cycles.
fn varcoef_probe(ctx: &RunCtx, speed: &mut Speed, layers: &mut Layers) {
    let varcoef = crate::compute::spec("varcoef2d_solve")
        .expect("workload exists")
        .plan;
    let constant = PlanSpec {
        label: "constant twin".into(),
        scenario: Scenario::Constant,
        ..varcoef.clone()
    };
    let cfg = &varcoef.cfg;
    let f = inputs::rhs(cfg, inputs::stream(ctx.seed, 0));
    let secs = ctx.seconds / 24.0;
    let mut medians = Vec::new();
    for spec in [&varcoef, &constant] {
        let mut session = Session::cold(spec, &mut Recorder::off(), 0);
        let mut v = inputs::zero_guess(cfg);
        session.cycle(&mut v, &f, &mut Recorder::off(), 0);
        let ns = time_reps(speed, 5, secs, || {
            session.cycle(&mut v, &f, &mut Recorder::off(), 0);
        });
        medians.push(Row::of_samples(&ns));
    }
    let (var, con) = (&medians[0], &medians[1]);
    put(
        layers,
        "mg.varcoef_vs_constant_ratio",
        Row {
            value: var.value / con.value,
            samples: var.samples + con.samples,
            q1: var.q1 / con.q3,
            q3: var.q3 / con.q1,
            lo: var.lo / con.hi,
            hi: var.hi / con.lo,
            tail: None,
        },
    );
    let a = varcoef
        .coeff()
        .expect("varcoef plan has a coefficient grid");
    let v = inputs::rhs(cfg, inputs::stream(ctx.seed, 1));
    let h = cfg.h_at(cfg.levels - 1);
    let ns = time_reps(speed, 20, 0.02, || {
        std::hint::black_box(residual_norm_varcoef(cfg.ndims, cfg.n, h, &v, &f, &a));
    });
    put(
        layers,
        "mg.residual_norm_us",
        Row::of_samples(&ns).scaled(1e-3),
    );
}

fn host_probe(fp: &Fingerprint, layers: &mut Layers) {
    let copy = copy_probe(fp);
    put(layers, "host.cores", Row::exact(fp.cores as f64));
    put(layers, "host.l2_bytes", Row::exact(fp.l2_bytes as f64));
    put(layers, "host.llc_bytes", Row::exact(fp.llc_bytes as f64));
    put(
        layers,
        "host.copy_array_bytes",
        Row::exact(copy.array_bytes as f64),
    );
    // omitted (with every ratio to it) when the arrays would not fit
    if let Some(gbps) = copy.gbps {
        put(layers, "host.copy_gbps", Row::exact(gbps));
    }
}

/// Every probe. `with_server` adds the `server.*` numbers of the
/// single-shape serve probe (workloads with a server measure their own).
pub fn run(ctx: &RunCtx, fp: &Fingerprint, with_server: bool) -> Layers {
    let mut layers = Layers::new();
    let mut last = Instant::now();
    let mut lap = |what: &str| {
        eprintln!("probe {what}: {:.2} s", last.elapsed().as_secs_f64());
        last = Instant::now();
    };
    let mut speed = Speed::new();
    kernel_probes(ctx, &mut speed, &mut layers);
    lap("kernels");
    pool_probe(&mut speed, &mut layers);
    run_batch_probe(ctx, &mut speed, &mut layers);
    lap("pool, run_batch");
    varcoef_probe(ctx, &mut speed, &mut layers);
    lap("varcoef vs constant, residual norm");
    host_probe(fp, &mut layers);
    lap("host copy bandwidth");
    if with_server {
        let probe_ctx = RunCtx {
            seconds: ctx.seconds / 12.0,
            quick: true,
            corrupt: false,
            ..*ctx
        };
        let r = serve::run(&serve::probe_spec(), &probe_ctx);
        assert!(r.correct(), "serve probe failed verification");
        for (name, (row, _)) in r.per_layer {
            if name.starts_with("server.") {
                put(&mut layers, &name, row);
            }
        }
        lap("server");
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_is_found_in_its_source_plan() {
        for family in KERNEL_FAMILIES {
            let (spec, tag) = family_source(family);
            // shrink the grid: classification does not depend on n
            let mut small = spec.clone();
            small.cfg.n = if small.cfg.ndims == 2 { 63 } else { 15 };
            small.cfg.levels = 3;
            let built = build_cold(&small, &mut Recorder::off(), 0);
            let program = built.engine.program();
            let stage =
                find_stage(program, family, tag).unwrap_or_else(|| panic!("no {family} stage"));
            assert!(taps(program, stage) >= 2, "{family}");
            assert_eq!(family == "generic_coeff", has_coeff_tap(program, stage));
        }
    }
}
