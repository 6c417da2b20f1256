//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is generated from these tables (`gmg-benchmark list --json`) and a
//! test keeps the two equal.

pub const RUN_SECONDS: u64 = 12;
pub const DEFAULT_SEED: u64 = 11;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "vcycle2d",
        why: "Paper Fig. 9: V-2D-4-4-4 n=1023 opt+ tiles 32x256; ~95% of the time is in the overlapped-tile executor, kernels are diluted",
    },
    Workload {
        name: "vcycle3d",
        why: "Paper Fig. 10: V-3D-4-4-4 n=127 opt+ tiles 16x32x128; 3-D tiles recompute ~2x halo cells and restrict/interp are strided, so tiling changes move it unlike vcycle2d",
    },
    Workload {
        name: "smoother2d_dense",
        why: "Kernel-dominated: dense 9-point 10-0-0 chain n=1023 in untiled full-grid sweeps, tile executor bypassed; a row-kernel change shows here, a tiling change must not",
    },
    Workload {
        name: "varcoef2d_solve",
        why: "Variable-coefficient 8-8-8 n=255 5 levels solved to 1e-3: coefficient taps run the generic executor, and trading iterations for cycle speed shows in solve_s",
    },
    Workload {
        name: "compile_cold",
        why: "Compiler only: 16 fixed plans built IR->compile->lower->engine with no plan cache; what a cold session and every set-up pay, the runtime does no work",
    },
    Workload {
        name: "serve_mixed",
        why: "Closed loop, 2 connections x 2 tenants, single frames over six small cache-resident shapes: per-request wire/queue/session cost is a large share of the round trip",
    },
    Workload {
        name: "serve_batch",
        why: "Closed loop, 2 connections, SOLVE_BATCH frames of 8 same-shape grids: batch QoS class and run_batch pool amortisation; moves opposite to serve_mixed on framing trade-offs",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every metric; README.md has the table of what
/// each one measures on each workload class.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cycle_ns_per_point",
        unit: "ns",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "solve_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "cycles_to_target",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "storage_bytes_per_point",
        unit: "B",
        better: Better::Lower,
        bound: 0.001,
    },
    EndToEnd {
        name: "compile_ms_per_plan",
        unit: "ms",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "grids_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "verified_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Where a per-layer number comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Src {
    /// A benchmark-owned timer around a public call.
    Span,
    /// An exact count read from a public struct, or computed from counts.
    Count,
    /// A sum copied from the program's own `gmg_trace::Report`.
    Report,
    /// Host fingerprint.
    Probe,
}

impl Src {
    pub fn label(self) -> &'static str {
        match self {
            Src::Span => "span",
            Src::Count => "count",
            Src::Report => "report",
            Src::Probe => "probe",
        }
    }
}

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    pub src: Src,
}

pub const KERNEL_FAMILIES: [&str; 7] = [
    "stencil2d5",
    "stencil2d9",
    "stencil3d7",
    "stencil3d27",
    "restrict",
    "interp",
    "generic_coeff",
];

/// Tiers probed per family. `generic_coeff` stages are `KernelImpl::Generic`,
/// which has no lane tiers: it is probed at the scalar tier only.
pub fn kernel_tiers(family: &str) -> &'static [&'static str] {
    if family == "generic_coeff" {
        &["scalar"]
    } else {
        &["scalar", "lane_safe", "fast_math"]
    }
}

pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    use Src::{Count, Probe, Report, Span};
    let fixed: &[(&str, &str, Better, &str, Src)] = &[
        ("ir.build_us", "us", Lower, "gmg-ir", Span),
        ("ir.stages", "count", Lower, "gmg-ir", Count),
        ("core.compile_us", "us", Lower, "polymg", Span),
        ("core.lower_us", "us", Lower, "polymg", Span),
        ("core.fingerprint_us", "us", Lower, "polymg", Span),
        ("core.cache_hit_us", "us", Lower, "polymg", Span),
        ("core.groups", "count", Lower, "polymg", Count),
        ("core.overlapped_groups", "count", Lower, "polymg", Count),
        ("core.diamond_groups", "count", Lower, "polymg", Count),
        ("core.ops", "count", Lower, "polymg", Count),
        ("core.full_arrays", "count", Lower, "polymg", Count),
        ("core.intermediate_bytes", "B", Lower, "polymg", Count),
        ("core.peak_scratch_bytes", "B", Lower, "polymg", Count),
        (
            "core.traffic_bytes_per_point_computed",
            "B",
            Lower,
            "polymg",
            Count,
        ),
        ("runtime.engine_new_us", "us", Lower, "gmg-runtime", Span),
        ("runtime.run_us", "us", Lower, "gmg-runtime", Span),
        (
            "runtime.run_batch_us_per_rhs",
            "us",
            Lower,
            "gmg-runtime",
            Span,
        ),
        ("runtime.pool_pair_ns", "ns", Lower, "gmg-runtime", Span),
        (
            "runtime.op.overlapped_share",
            "ratio",
            Lower,
            "gmg-runtime",
            Report,
        ),
        (
            "runtime.op.untiled_share",
            "ratio",
            Lower,
            "gmg-runtime",
            Report,
        ),
        (
            "runtime.op.diamond_share",
            "ratio",
            Lower,
            "gmg-runtime",
            Report,
        ),
        (
            "runtime.op.fill_ghost_share",
            "ratio",
            Lower,
            "gmg-runtime",
            Report,
        ),
        (
            "runtime.op.copy_live_out_share",
            "ratio",
            Lower,
            "gmg-runtime",
            Report,
        ),
        (
            "runtime.op.pool_share",
            "ratio",
            Lower,
            "gmg-runtime",
            Report,
        ),
        (
            "runtime.redundant_cell_ratio",
            "ratio",
            Lower,
            "gmg-runtime",
            Report,
        ),
        (
            "runtime.pool_hit_rate",
            "ratio",
            Higher,
            "gmg-runtime",
            Count,
        ),
        (
            "runtime.pool_peak_live_bytes",
            "B",
            Lower,
            "gmg-runtime",
            Count,
        ),
        (
            "runtime.fresh_bytes_per_cycle",
            "B",
            Lower,
            "gmg-runtime",
            Count,
        ),
        (
            "runtime.achieved_gbps_computed",
            "GB/s",
            Higher,
            "gmg-runtime",
            Count,
        ),
        ("mg.cycle_us", "us", Lower, "gmg-multigrid", Span),
        (
            "mg.driver_overhead_share",
            "ratio",
            Lower,
            "gmg-multigrid",
            Span,
        ),
        ("mg.residual_norm_us", "us", Lower, "gmg-multigrid", Span),
        (
            "mg.varcoef_vs_constant_ratio",
            "ratio",
            Lower,
            "gmg-multigrid",
            Span,
        ),
        ("server.encode_request_us", "us", Lower, "gmg-server", Span),
        ("server.decode_request_us", "us", Lower, "gmg-server", Span),
        ("server.encode_response_us", "us", Lower, "gmg-server", Span),
        ("server.decode_response_us", "us", Lower, "gmg-server", Span),
        ("server.frame_boundary_ns", "ns", Lower, "gmg-server", Span),
        (
            "server.session_acquire_warm_us",
            "us",
            Lower,
            "gmg-server",
            Span,
        ),
        (
            "server.session_acquire_cold_us",
            "us",
            Lower,
            "gmg-server",
            Span,
        ),
        ("server.start_ms", "ms", Lower, "gmg-server", Span),
        ("server.roundtrip_us", "us", Lower, "gmg-server", Span),
        ("server.inproc_solve_us", "us", Lower, "gmg-server", Span),
        ("server.overhead_us", "us", Lower, "gmg-server", Span),
        ("server.overhead_share", "ratio", Lower, "gmg-server", Span),
        ("server.latency_p99_ms", "ms", Lower, "gmg-server", Span),
        ("server.queue_wait_us", "us", Lower, "gmg-server", Report),
        ("server.service_us", "us", Lower, "gmg-server", Report),
        (
            "server.session_hit_rate",
            "ratio",
            Higher,
            "gmg-server",
            Count,
        ),
        (
            "server.queue_max_depth",
            "count",
            Lower,
            "gmg-server",
            Count,
        ),
        ("server.batches", "count", Higher, "gmg-server", Count),
        ("server.rejected", "count", Lower, "gmg-server", Count),
        (
            "server.protocol_errors",
            "count",
            Lower,
            "gmg-server",
            Count,
        ),
        (
            "server.wire_bytes_per_grid",
            "B",
            Lower,
            "gmg-server",
            Count,
        ),
        ("trace.overhead_share", "ratio", Lower, "gmg-trace", Span),
        ("host.cores", "count", Higher, "host", Probe),
        ("host.l2_bytes", "B", Higher, "host", Probe),
        ("host.llc_bytes", "B", Higher, "host", Probe),
        ("host.copy_gbps", "GB/s", Higher, "host", Probe),
        ("host.copy_array_bytes", "B", Higher, "host", Probe),
        ("host.tick_best_us", "us", Lower, "host", Probe),
        ("host.speed_factor_p50", "ratio", Lower, "host", Probe),
    ];
    let mut all: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit, better, layer, src)| PerLayer {
            name: name.to_string(),
            unit,
            better,
            layer,
            src,
        })
        .collect();
    for family in KERNEL_FAMILIES {
        for tier in kernel_tiers(family) {
            all.push(PerLayer {
                name: format!("kernel.{family}.{tier}.ns_per_point"),
                unit: "ns",
                better: Lower,
                layer: "gmg-runtime kernels",
                src: Span,
            });
        }
        all.push(PerLayer {
            name: format!("kernel.{family}.taps"),
            unit: "count",
            better: Lower,
            layer: "gmg-runtime kernels",
            src: Count,
        });
    }
    all
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": {}}}{}\n",
            w.name,
            polymg::jsonio::escape(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}\n",
            m.name,
            m.unit,
            m.better.label(),
            if i + 1 < layers.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `gmg-benchmark list --json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(layers.iter().map(|m| m.name.clone()));
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(seen.insert(n.clone()), "duplicate name {n}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = end_to_end("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(polymg::jsonio::parse(&benchmark_json()).is_ok());
    }
}
