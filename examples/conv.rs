use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::handopt::HandOpt;
use gmg_multigrid::solver::{run_cycles, setup_poisson};

fn main() {
    for (coarse, levels) in [(4usize, 4u32), (50, 4), (4, 2), (50, 2), (200, 4)] {
        let mut cfg = MgConfig::new(
            2,
            63,
            CycleType::V,
            SmoothSteps {
                pre: 4,
                coarse,
                post: 4,
            },
        );
        cfg.levels = levels;
        let mut r = HandOpt::new(cfg.clone(), 0);
        let (mut v, f, _) = setup_poisson(&cfg);
        let res = run_cycles(&mut r, &cfg, &mut v, &f, 6);
        println!(
            "coarse={coarse} levels={levels} factor={:.4} res0={:.3e} final={:.3e}",
            res.conv_factor(),
            res.res0,
            res.res_final()
        );
    }
}
