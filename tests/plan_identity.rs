//! Plan identity: every plan below compiles to exactly the plan recorded
//! here. One FNV-1a digest per plan covers the lowered program's dump, the
//! group partition, and every overlapped group's tile plan (each tile ×
//! stage entry) with its scratch-buffer extents. A compiler change that
//! claims to keep plans unchanged must pass this suite untouched; a digest
//! that moves is a plan that moved.

use gmg_server::loadgen::{default_mix, scenario_mix};
use polymg_repro::compiler::{
    schedule, CompiledPipeline, GroupTiling, PipelineOptions, Scenario, Variant,
};
use polymg_repro::ir::ParamBindings;
use polymg_repro::mg::config::{CycleType, MgConfig, SmoothSteps};
use polymg_repro::mg::scenario::build_scenario_pipeline;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn int(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(plan: &CompiledPipeline) -> u64 {
    let mut h = Fnv::new();
    h.bytes(schedule::lower(plan).dump().as_bytes());
    for g in &plan.groups {
        h.int(g.stages.len() as i64);
        for s in &g.stages {
            h.int(s.0 as i64);
        }
    }
    for g in &plan.groups {
        let GroupTiling::Overlapped { tile_plan, .. } = &g.tiling else {
            continue;
        };
        h.int(tile_plan.tiles() as i64);
        h.int(tile_plan.stages() as i64);
        for t in 0..tile_plan.tiles() {
            for s in 0..tile_plan.stages() {
                let e = tile_plan.entry(t, s);
                for iv in e.compute.0.slots().iter().chain(e.owned.0.slots()) {
                    h.int(iv.lo);
                    h.int(iv.hi);
                }
                for v in e.origin.iter().chain(&e.extents) {
                    h.int(*v);
                }
            }
        }
        for b in &g.scratch_buffers {
            h.int(b.extents.len() as i64);
            for e in &b.extents {
                h.int(*e);
            }
        }
    }
    h.0
}

struct Case {
    label: String,
    cfg: MgConfig,
    scenario: Scenario,
    opts: PipelineOptions,
}

impl Case {
    fn new(label: String, cfg: MgConfig, scenario: Scenario, variant: Variant) -> Case {
        let mut opts = PipelineOptions::for_variant(variant, cfg.ndims);
        opts.threads = 1;
        Case {
            label,
            cfg,
            scenario,
            opts,
        }
    }

    fn digest(&self) -> u64 {
        let pipeline = build_scenario_pipeline(&self.cfg, self.scenario);
        let plan =
            polymg_repro::compiler::compile(&pipeline, &ParamBindings::new(), self.opts.clone())
                .unwrap_or_else(|e| panic!("{}: compile failed: {e:?}", self.label));
        digest(&plan)
    }
}

fn cases() -> Vec<Case> {
    let mut v = Vec::new();
    // the sixteen cold-compile plans: {2-D n 1023, 3-D n 127} × {V, W} ×
    // {opt, opt+, dtile-opt+}, then the four non-constant scenarios
    for (ndims, n) in [(2usize, 1023i64), (3, 127)] {
        for cycle in [CycleType::V, CycleType::W] {
            for variant in [Variant::Opt, Variant::OptPlus, Variant::DtileOptPlus] {
                let cfg = MgConfig::new(ndims, n, cycle, SmoothSteps::s444());
                let label = format!("cold {} n={n} {}", cfg.tag(), variant.label());
                v.push(Case::new(label, cfg, Scenario::Constant, variant));
            }
        }
    }
    for scenario in [
        Scenario::VarCoef,
        Scenario::Fmg,
        Scenario::Rbgs,
        Scenario::Chebyshev,
    ] {
        let cfg = MgConfig::new(2, 255, CycleType::V, SmoothSteps::s444());
        let label = format!("cold {} n=255", scenario.label());
        v.push(Case::new(label, cfg, scenario, Variant::OptPlus));
    }

    // the compute workloads' plans
    let cfg = MgConfig::new(2, 1023, CycleType::V, SmoothSteps::s444());
    let mut c = Case::new("vcycle2d".into(), cfg, Scenario::Constant, Variant::OptPlus);
    c.opts.tile_sizes = vec![32, 256];
    v.push(c);
    let cfg = MgConfig::new(3, 127, CycleType::V, SmoothSteps::s444());
    let mut c = Case::new("vcycle3d".into(), cfg, Scenario::Constant, Variant::OptPlus);
    c.opts.tile_sizes = vec![16, 32, 128];
    v.push(c);
    let mut cfg = MgConfig::new(2, 1023, CycleType::V, SmoothSteps::s1000()).with_dense_operator();
    cfg.levels = 2;
    let mut c = Case::new(
        "smoother2d_dense".into(),
        cfg,
        Scenario::Constant,
        Variant::Naive,
    );
    c.opts.pooled_allocation = true;
    c.opts.inter_group_reuse = true;
    v.push(c);
    let steps = SmoothSteps {
        pre: 8,
        coarse: 8,
        post: 8,
    };
    let mut cfg = MgConfig::new(2, 255, CycleType::V, steps);
    cfg.levels = 5;
    v.push(Case::new(
        "varcoef2d_solve".into(),
        cfg,
        Scenario::VarCoef,
        Variant::OptPlus,
    ));

    // the serving mixes, as a server compiles them
    let serving = default_mix().into_iter().map(|m| ("mix", m)).chain(
        scenario_mix(&Scenario::ALL, true)
            .into_iter()
            .map(|m| ("scenario mix", m)),
    );
    for (mix, item) in serving {
        let label = format!(
            "{mix} {} n={} {} {}{}",
            item.cfg.tag(),
            item.cfg.n,
            item.variant.label(),
            item.scenario.label(),
            if item.mixed { " mixed" } else { "" }
        );
        let mut c = Case::new(label, item.cfg, item.scenario, item.variant);
        c.opts.mixed_precision = item.mixed;
        v.push(c);
    }

    // odd tilings: tile sizes that divide nothing, and both group limits
    let cfg = MgConfig::new(2, 63, CycleType::V, SmoothSteps::s444());
    for variant in [Variant::Opt, Variant::OptPlus] {
        let label = format!("2-D n=63 tiles 7x13 {}", variant.label());
        let mut c = Case::new(label, cfg.clone(), Scenario::Constant, variant);
        c.opts.tile_sizes = vec![7, 13];
        v.push(c);
    }
    let cfg = MgConfig::new(3, 31, CycleType::V, SmoothSteps::s444());
    for variant in [Variant::Opt, Variant::OptPlus] {
        let label = format!("3-D n=31 tiles 5x6x7 {}", variant.label());
        let mut c = Case::new(label, cfg.clone(), Scenario::Constant, variant);
        c.opts.tile_sizes = vec![5, 6, 7];
        v.push(c);
    }
    let limits = [
        (2, CycleType::V, 2usize),
        (2, CycleType::W, 2),
        (3, CycleType::V, 2),
        (2, CycleType::W, 6),
        (3, CycleType::W, 6),
    ];
    for (ndims, cycle, limit) in limits {
        let (n, tiles) = if ndims == 2 {
            (63, vec![7, 13])
        } else {
            (31, vec![5, 6, 7])
        };
        let cfg = MgConfig::new(ndims, n, cycle, SmoothSteps::s444());
        let label = format!("{} n={n} group_limit {limit}", cfg.tag());
        let mut c = Case::new(label, cfg, Scenario::Constant, Variant::OptPlus);
        c.opts.group_limit = limit;
        c.opts.tile_sizes = tiles;
        v.push(c);
    }
    v
}

/// Digests recorded from the compiler before its grouping and tile walk
/// moved onto fixed-rank boxes.
const RECORDED: &[(&str, u64)] = &[
    ("cold V-2D-4-4-4 n=1023 polymg-opt", 0xc25559fac48d2bfb),
    ("cold V-2D-4-4-4 n=1023 polymg-opt+", 0xe74512c21ed7b1db),
    (
        "cold V-2D-4-4-4 n=1023 polymg-dtile-opt+",
        0x44a1eb86ffbab877,
    ),
    ("cold W-2D-4-4-4 n=1023 polymg-opt", 0x36e7c435203f218f),
    ("cold W-2D-4-4-4 n=1023 polymg-opt+", 0x062729eaa3455e00),
    (
        "cold W-2D-4-4-4 n=1023 polymg-dtile-opt+",
        0xd314d22c46823853,
    ),
    ("cold V-3D-4-4-4 n=127 polymg-opt", 0x993474349fed2979),
    ("cold V-3D-4-4-4 n=127 polymg-opt+", 0x0fd4aea6500c48ec),
    (
        "cold V-3D-4-4-4 n=127 polymg-dtile-opt+",
        0x8d37c2562b0e65f9,
    ),
    ("cold W-3D-4-4-4 n=127 polymg-opt", 0xd866a032ef784461),
    ("cold W-3D-4-4-4 n=127 polymg-opt+", 0x9a8c7b0549920e63),
    (
        "cold W-3D-4-4-4 n=127 polymg-dtile-opt+",
        0x8dba39dba4b80ee3,
    ),
    ("cold varcoef n=255", 0xfa9f02a4019a1118),
    ("cold fmg n=255", 0x4792462b74b155c3),
    ("cold rbgs n=255", 0x7cb146a4e1335e60),
    ("cold chebyshev n=255", 0x912344bf4e272137),
    ("vcycle2d", 0x219832587f6d2263),
    ("vcycle3d", 0x2131b42a5993bdb3),
    ("smoother2d_dense", 0x614eddba9f7d9250),
    ("varcoef2d_solve", 0x9b32df41ef7fd643),
    (
        "mix V-2D-4-4-4 n=63 polymg-opt+ constant",
        0xc98af65651799a86,
    ),
    (
        "mix W-2D-4-4-4 n=31 polymg-opt constant",
        0x985754ae0a78db76,
    ),
    (
        "mix V-3D-4-4-4 n=15 polymg-opt+ constant",
        0x5b4039d113970b7b,
    ),
    (
        "mix W-3D-10-0-0 n=15 polymg-opt+ constant",
        0xae8f05d5e7c7af69,
    ),
    (
        "scenario mix V-2D-4-4-4 n=31 polymg-opt+ constant",
        0xfafa7533a77af35a,
    ),
    (
        "scenario mix V-2D-4-4-4 n=31 polymg-opt+ varcoef",
        0x6edb2b09d9b2b8dc,
    ),
    (
        "scenario mix V-2D-4-4-4 n=31 polymg-opt+ fmg",
        0xfafa7533a77af35a,
    ),
    (
        "scenario mix V-2D-4-4-4 n=31 polymg-opt+ rbgs",
        0x1c69536aa3ee6754,
    ),
    (
        "scenario mix V-2D-4-4-4 n=31 polymg-opt+ chebyshev",
        0xdd67d36a8bbab1d2,
    ),
    (
        "scenario mix V-2D-4-4-4 n=31 polymg-opt+ constant mixed",
        0x54d3290e496adfdd,
    ),
    ("2-D n=63 tiles 7x13 polymg-opt", 0x9411718d6e33fb9f),
    ("2-D n=63 tiles 7x13 polymg-opt+", 0x64a9e1b2694e3543),
    ("3-D n=31 tiles 5x6x7 polymg-opt", 0x369cd0464a345e47),
    ("3-D n=31 tiles 5x6x7 polymg-opt+", 0xef902a83192ebb49),
    ("V-2D-4-4-4 n=63 group_limit 2", 0x33d26e773874dacd),
    ("W-2D-4-4-4 n=63 group_limit 2", 0x317a446c00870f71),
    ("V-3D-4-4-4 n=31 group_limit 2", 0xbfae8c0a1b0a7fb6),
    ("W-2D-4-4-4 n=63 group_limit 6", 0x8d29f941c34e41c2),
    ("W-3D-4-4-4 n=31 group_limit 6", 0x38d612ca3606c23b),
];

#[test]
fn every_plan_matches_its_recorded_digest() {
    let cases = cases();
    let got: Vec<(String, u64)> = cases
        .iter()
        .map(|c| (c.label.clone(), c.digest()))
        .collect();
    let table: String = got
        .iter()
        .map(|(l, d)| format!("    ({l:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        RECORDED.len(),
        "plan count differs from the recorded table; current digests:\n{table}"
    );
    let moved: Vec<String> = got
        .iter()
        .zip(RECORDED)
        .filter(|((l, d), (rl, rd))| l != rl || d != rd)
        .map(|((l, d), (_, rd))| format!("{l}: {d:#018x}, recorded {rd:#018x}"))
        .collect();
    assert!(moved.is_empty(), "plans moved:\n{}", moved.join("\n"));
}
