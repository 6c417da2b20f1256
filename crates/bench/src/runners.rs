//! Construction of the six evaluated configurations for any benchmark.

use gmg_multigrid::config::MgConfig;
use gmg_multigrid::handopt::HandOpt;
use gmg_multigrid::pluto::handopt_pluto_default;
use gmg_multigrid::solver::{CycleRunner, DslRunner};
use polymg::{PipelineOptions, Variant};

/// The six implementations compared in Figures 9/10.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImplKind {
    PolymgNaive,
    PolymgOpt,
    PolymgOptPlus,
    PolymgDtileOptPlus,
    HandOpt,
    HandOptPluto,
}

impl ImplKind {
    /// All six, in the paper's plotting order.
    pub fn all() -> [ImplKind; 6] {
        [
            ImplKind::HandOpt,
            ImplKind::HandOptPluto,
            ImplKind::PolymgNaive,
            ImplKind::PolymgOpt,
            ImplKind::PolymgOptPlus,
            ImplKind::PolymgDtileOptPlus,
        ]
    }

    /// The PolyMG-compiled subset.
    pub fn polymg() -> [ImplKind; 4] {
        [
            ImplKind::PolymgNaive,
            ImplKind::PolymgOpt,
            ImplKind::PolymgOptPlus,
            ImplKind::PolymgDtileOptPlus,
        ]
    }

    /// Display label (paper naming).
    pub fn label(&self) -> &'static str {
        match self {
            ImplKind::PolymgNaive => "polymg-naive",
            ImplKind::PolymgOpt => "polymg-opt",
            ImplKind::PolymgOptPlus => "polymg-opt+",
            ImplKind::PolymgDtileOptPlus => "polymg-dtile-opt+",
            ImplKind::HandOpt => "handopt",
            ImplKind::HandOptPluto => "handopt+pluto",
        }
    }

    /// The compiler variant for PolyMG kinds.
    pub fn variant(&self) -> Option<Variant> {
        match self {
            ImplKind::PolymgNaive => Some(Variant::Naive),
            ImplKind::PolymgOpt => Some(Variant::Opt),
            ImplKind::PolymgOptPlus => Some(Variant::OptPlus),
            ImplKind::PolymgDtileOptPlus => Some(Variant::DtileOptPlus),
            _ => None,
        }
    }
}

/// Default tile sizes per rank used by the harness (a good middle of the
/// §3.2.4 space for the scaled classes on this host).
pub fn harness_tiles(ndims: usize) -> Vec<i64> {
    match ndims {
        2 => vec![32, 256],
        3 => vec![16, 32, 128],
        _ => panic!("unsupported rank"),
    }
}

/// Build a runner for `cfg` under `kind`, with `threads` workers (0 = the
/// host's parallelism); the baselines run on as many as the polymg variants.
pub fn make_runner(cfg: &MgConfig, kind: ImplKind, threads: usize) -> Box<dyn CycleRunner> {
    match kind {
        ImplKind::HandOpt => Box::new(HandOpt::new(cfg.clone(), threads)),
        ImplKind::HandOptPluto => Box::new(handopt_pluto_default(cfg.clone(), threads)),
        _ => {
            let mut opts = PipelineOptions::for_variant(kind.variant().unwrap(), cfg.ndims);
            opts.tile_sizes = harness_tiles(cfg.ndims);
            opts.threads = threads;
            Box::new(
                DslRunner::new(cfg, opts, kind.label())
                    .unwrap_or_else(|e| panic!("{}: {e:?}", kind.label())),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_multigrid::config::{CycleType, SmoothSteps};
    use gmg_multigrid::solver::{run_cycles, setup_poisson};

    #[test]
    fn all_six_run_and_agree() {
        let cfg = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
        let (v0, f, _) = setup_poisson(&cfg);
        let mut results: Vec<(String, Vec<f64>)> = Vec::new();
        for kind in ImplKind::all() {
            let mut r = make_runner(&cfg, kind, 1);
            let mut v = v0.clone();
            let sol = run_cycles(&mut *r, &cfg, &mut v, &f, 2);
            assert!(sol.res_final() < sol.res0, "{} diverged", kind.label());
            results.push((kind.label().to_string(), v));
        }
        let base = &results[0].1;
        for (label, v) in &results[1..] {
            let mut max = 0.0f64;
            for (a, b) in v.iter().zip(base) {
                max = max.max((a - b).abs());
            }
            assert!(max < 1e-10, "{label} deviates from handopt by {max}");
        }
    }

    #[test]
    fn labels_and_sets() {
        assert_eq!(ImplKind::all().len(), 6);
        assert_eq!(ImplKind::polymg().len(), 4);
        assert_eq!(ImplKind::PolymgOptPlus.label(), "polymg-opt+");
        assert!(ImplKind::HandOpt.variant().is_none());
        assert_eq!(
            ImplKind::PolymgDtileOptPlus.variant(),
            Some(Variant::DtileOptPlus)
        );
    }
}
