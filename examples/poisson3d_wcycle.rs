//! 3-D Poisson with a W-cycle: compare every evaluated implementation on
//! the same problem — the Figure 10 workload at example scale.
//!
//! ```sh
//! cargo run --release --example poisson3d_wcycle
//! ```

use polymg_repro::compiler::{PipelineOptions, Variant};
use polymg_repro::mg::config::{CycleType, MgConfig, SmoothSteps};
use polymg_repro::mg::handopt::HandOpt;
use polymg_repro::mg::pluto::handopt_pluto_default;
use polymg_repro::mg::solver::{max_abs_diff, run_cycles, setup_poisson, CycleRunner, DslRunner};
use std::time::Instant;

fn main() {
    let cfg = MgConfig::new(3, 63, CycleType::W, SmoothSteps::s444());
    println!("benchmark: {} on {}³ interior", cfg.tag(), cfg.n);

    let mut runners: Vec<Box<dyn CycleRunner>> = vec![
        Box::new(HandOpt::new(cfg.clone(), 0)),
        Box::new(handopt_pluto_default(cfg.clone(), 0)),
    ];
    for variant in [
        Variant::Naive,
        Variant::Opt,
        Variant::OptPlus,
        Variant::DtileOptPlus,
    ] {
        let opts = PipelineOptions::for_variant(variant, 3);
        runners.push(Box::new(
            DslRunner::new(&cfg, opts, variant.label()).expect("compile failed"),
        ));
    }

    let (v0, f, _) = setup_poisson(&cfg);
    let mut reference: Option<Vec<f64>> = None;
    for runner in &mut runners {
        let mut v = v0.clone();
        let t0 = Instant::now();
        let result = run_cycles(&mut **runner, &cfg, &mut v, &f, 4);
        let secs = t0.elapsed().as_secs_f64();
        // all implementations compute the same math — verify
        match &reference {
            None => reference = Some(v),
            Some(r) => {
                let max = max_abs_diff(&v, r);
                assert!(max < 1e-10, "{} deviates by {max}", runner.label());
            }
        }
        println!(
            "  {:<20} {secs:>7.3}s   residual {:.3e} → {:.3e} (factor {:.3}/cycle)",
            runner.label(),
            result.res0,
            result.res_final(),
            result.conv_factor()
        );
    }
    println!("all six implementations agree to < 1e-10 ✓");
}
