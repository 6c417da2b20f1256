//! Extensions demo: Full Multigrid (FMG) driving any cycle implementation,
//! red-black Gauss–Seidel smoothing, and Chebyshev polynomial smoothing —
//! the algorithmic directions the paper's related-work section points at
//! (HPGMG integration, GSRB as two parity grids, polynomial smoothers).
//!
//! ```sh
//! cargo run --release --example fmg_chebyshev
//! ```

use polymg_repro::compiler::{compile, PipelineOptions, Variant};
use polymg_repro::ir::{ParamBindings, StageGraph};
use polymg_repro::mg::config::{CycleType, MgConfig, SmoothSteps};
use polymg_repro::mg::cycles::build_cycle_pipeline;
use polymg_repro::mg::fmg::fmg_solve;
use polymg_repro::mg::handopt::HandOpt;
use polymg_repro::mg::solver::DslRunner;

fn main() {
    // ---- 1. FMG: solve to discretisation accuracy in one sweep ---------
    let mut finest = MgConfig::new(
        2,
        511,
        CycleType::V,
        SmoothSteps {
            pre: 3,
            coarse: 60,
            post: 3,
        },
    );
    finest.levels = 7;

    println!("FMG (one V-cycle per level), 7² → 511², Jacobi smoothing:");
    let t0 = std::time::Instant::now();
    let r = fmg_solve(&finest, 7, 1, |c| Box::new(HandOpt::new(c.clone(), 0)));
    println!(
        "  handopt      : {:?}, residual {:.2e} → {:.2e}, max error {:.2e} (h² = {:.2e})",
        t0.elapsed(),
        r.initial_residual,
        r.final_residual,
        r.max_error,
        (1.0f64 / 512.0).powi(2)
    );

    let t0 = std::time::Instant::now();
    let r = fmg_solve(&finest, 7, 1, |c| {
        let opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
        Box::new(DslRunner::new(c, opts, "polymg-opt+").expect("compile"))
    });
    println!(
        "  polymg-opt+  : {:?}, max error {:.2e}",
        t0.elapsed(),
        r.max_error
    );

    // ---- 2. GSRB through the DSL's parity cases ------------------------
    let gs = finest.clone().with_gsrb();
    let t0 = std::time::Instant::now();
    let r = fmg_solve(&gs, 7, 1, |c| {
        let opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
        Box::new(DslRunner::new(c, opts, "polymg-opt+/gsrb").expect("compile"))
    });
    println!(
        "  opt+ / GSRB  : {:?}, max error {:.2e}",
        t0.elapsed(),
        r.max_error
    );

    // ---- 3. Chebyshev smoothing chains, compiled & fused --------------
    let cfg = MgConfig::new(2, 255, CycleType::V, SmoothSteps::s444()).with_chebyshev();
    let p = build_cycle_pipeline(&cfg);
    let graph = StageGraph::build(&p, &ParamBindings::new());
    let plan = compile(
        &p,
        &ParamBindings::new(),
        PipelineOptions::for_variant(Variant::OptPlus, 2),
    )
    .expect("compile");
    println!(
        "\nV-cycle with Chebyshev(4) smoothing chains on 255²: {} stages fused into {} group(s), \
         {} scratchpads after reuse",
        graph.num_compute_stages(),
        plan.groups.len(),
        plan.total_scratch_buffers()
    );
}
