//! Fingerprint stability: the plan-cache key (`cache::fingerprint`) and the
//! tuned-store key (`cache::pipeline_fingerprint`) of every serving-mix
//! pipeline are the values recorded here. `pipeline_fingerprint` hashes the
//! pipeline's `Debug` text, every function's `BoxDomain` included, so a
//! change to how a box prints silently orphans every persisted `--tuned`
//! store; this suite turns that into a failing test.

use gmg_server::loadgen::{default_mix, scenario_mix};
use polymg_repro::compiler::cache::{fingerprint, pipeline_fingerprint};
use polymg_repro::compiler::{PipelineOptions, Scenario};
use polymg_repro::ir::ParamBindings;
use polymg_repro::mg::scenario::build_scenario_pipeline;

/// `(label, pipeline_fingerprint, fingerprint)` per mix item, in
/// `default_mix()` then `scenario_mix(&Scenario::ALL, true)` order,
/// recorded while `BoxDomain` still held a `Vec` of intervals.
const RECORDED: &[(&str, u64, u64)] = &[
    (
        "V-2D-4-4-4 n=63 polymg-opt+ constant",
        0x0f124bc1485f4795,
        0x152c3d6817ad326b,
    ),
    (
        "W-2D-4-4-4 n=31 polymg-opt constant",
        0xb4a82c28efd7f2f9,
        0x4e81782a5524ea88,
    ),
    (
        "V-3D-4-4-4 n=15 polymg-opt+ constant",
        0x4f3c5ae669928685,
        0x66eccf5c2f249c64,
    ),
    (
        "W-3D-10-0-0 n=15 polymg-opt+ constant",
        0x613651dbe322249c,
        0xebfc53c397a3fa85,
    ),
    (
        "V-2D-4-4-4 n=31 polymg-opt+ constant",
        0x4baee4e7c333d866,
        0xc0604f057913de30,
    ),
    (
        "V-2D-4-4-4 n=31 polymg-opt+ varcoef",
        0x2627250d7b6ed7a6,
        0xb04ac40c1934b170,
    ),
    (
        "V-2D-4-4-4 n=31 polymg-opt+ fmg",
        0x4baee4e7c333d866,
        0xc0604f057913de30,
    ),
    (
        "V-2D-4-4-4 n=31 polymg-opt+ rbgs",
        0x8bea9a03fc8483a2,
        0xbb45f562619712c4,
    ),
    (
        "V-2D-4-4-4 n=31 polymg-opt+ chebyshev",
        0xe8d1bb36d9d7b8f8,
        0x60c4af7a86205b9a,
    ),
    (
        "V-2D-4-4-4 n=31 polymg-opt+ constant mixed",
        0x4baee4e7c333d866,
        0xc06050057913dfe3,
    ),
];

/// Every mix item's label and its two fingerprints, the options being the
/// variant's defaults with the item's mixed-precision opt-in.
fn computed() -> Vec<(String, u64, u64)> {
    let items = default_mix()
        .into_iter()
        .chain(scenario_mix(&Scenario::ALL, true));
    items
        .map(|item| {
            let label = format!(
                "{} n={} {} {}{}",
                item.cfg.tag(),
                item.cfg.n,
                item.variant.label(),
                item.scenario.label(),
                if item.mixed { " mixed" } else { "" }
            );
            let pipeline = build_scenario_pipeline(&item.cfg, item.scenario);
            let bindings = ParamBindings::new();
            let mut opts = PipelineOptions::for_variant(item.variant, item.cfg.ndims);
            opts.mixed_precision = item.mixed;
            (
                label,
                pipeline_fingerprint(&pipeline, &bindings),
                fingerprint(&pipeline, &bindings, &opts),
            )
        })
        .collect()
}

#[test]
fn serving_mix_fingerprints_are_the_recorded_ones() {
    let got = computed();
    let table: Vec<String> = got
        .iter()
        .map(|(l, p, f)| format!("    (\"{l}\", {p:#018x}, {f:#018x}),"))
        .collect();
    assert_eq!(
        got.len(),
        RECORDED.len(),
        "mix size changed; computed:\n{}",
        table.join("\n")
    );
    for ((label, plan_fp, key), (want_label, want_plan_fp, want_key)) in got.iter().zip(RECORDED) {
        assert_eq!(label, want_label, "mix order changed");
        assert_eq!(
            (plan_fp, key),
            (want_plan_fp, want_key),
            "{label}: fingerprints moved; computed:\n{}",
            table.join("\n")
        );
    }
}
