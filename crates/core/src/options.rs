//! Compilation options and the paper's variant presets.

use crate::chaos::ChaosOptions;

/// The evaluated configurations of Section 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Straightforward parallel code generation: no fusion, no tiling, no
    /// storage optimization.
    Naive,
    /// Stock-PolyMage optimizations: grouping + overlapped tiling +
    /// scratchpads, one buffer per function, no pooled allocation.
    Opt,
    /// `Opt` plus the paper's contributions: intra-group scratchpad reuse,
    /// inter-group full-array reuse, pooled allocation.
    OptPlus,
    /// `OptPlus` with diamond/split time tiling applied to the
    /// pre-/post-smoothing `TStencil` chains instead of overlapped tiling.
    DtileOptPlus,
}

impl Variant {
    /// Display name matching the paper's plots.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Naive => "polymg-naive",
            Variant::Opt => "polymg-opt",
            Variant::OptPlus => "polymg-opt+",
            Variant::DtileOptPlus => "polymg-dtile-opt+",
        }
    }

    /// All variants in the order the paper plots them.
    pub fn all() -> [Variant; 4] {
        [
            Variant::Naive,
            Variant::Opt,
            Variant::OptPlus,
            Variant::DtileOptPlus,
        ]
    }
}

/// Full knob set for one compilation.
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// Upper bound on the number of stages merged into one group (the
    /// "grouping limit" swept by the auto-tuner, §3.2.4). `1` is no fusion
    /// and therefore no tiling: every stage sweeps its full domain (still
    /// parallel over the outermost dimension) — `polymg-naive`. Above it,
    /// fused groups run overlapped (hyper-trapezoidal) tiles with
    /// scratchpads — the PolyMage strategy (§3.1).
    pub group_limit: usize,
    /// Tile sizes, outermost dimension first. Interpreted for the pipeline's
    /// rank (first 2 entries for 2-D, first 3 for 3-D).
    pub tile_sizes: Vec<i64>,
    /// Intra-group scratchpad reuse (§3.2.1).
    pub intra_group_reuse: bool,
    /// Inter-group full-array reuse (§3.2.2).
    pub inter_group_reuse: bool,
    /// Pooled memory allocation across cycle invocations (§3.2.3).
    pub pooled_allocation: bool,
    /// Apply diamond/split time tiling to pure `TStencil` smoother chains.
    pub dtile_smoother: bool,
    /// Time-band height for diamond/split tiling.
    pub dtile_band: usize,
    /// Worker threads for the runtime.
    pub threads: usize,
    /// Tag recognised constant-coefficient stencil shapes with a kernel
    /// family (see `specialize::classify`), which lets them — and stages
    /// with coefficient taps — take the lane tiers below. The tag decides
    /// only the tier: every row runs the same row body, so specialization
    /// alone is bitwise-identical to the generic path; this knob exists for
    /// A/B benchmarking (`--no-specialize`), and with it off every stage
    /// runs the scalar rows — the bitwise reference.
    pub specialize: bool,
    /// Lower specialized kernels and the unit-stride rows of coefficient
    /// stages (`Tap::cfactor`, tagged `Generic`) to the explicit f64-lane
    /// (SIMD) tier with cache blocking of the unit-stride dimension. The
    /// default lane-safe tier preserves the generic accumulation order per
    /// output point, so it stays bitwise-identical to the generic path;
    /// this knob exists for A/B benchmarking (`--no-simd`). Ignored when
    /// `specialize` is off.
    pub simd: bool,
    /// Select the reassociating lane tier: per-point tap chains of
    /// specialized kernels are split into independent partial sums (and
    /// fused where the host supports FMA). Results differ from the generic
    /// path at round-off level, so this is opt-in (`--fast-math`), part of
    /// the plan-cache fingerprint, and verified by a ULP-bounded
    /// differential suite rather than bitwise equality. Coefficient stages
    /// take the tier too, but their coefficient rows keep the exact rule,
    /// so their results do not change. Implies nothing unless `specialize`
    /// and `simd` are on.
    pub fast_math: bool,
    /// Run pure smoother chains in single precision: the chain's state is
    /// converted f64→f32 once, the smoothing sweeps execute on f32 buffers
    /// (halving their memory traffic), and the result converts back before
    /// the f64 residual/correction stages. Opt-in (`--mixed-precision`),
    /// part of the plan-cache fingerprint, and validated by convergence
    /// tests rather than bitwise equality.
    pub mixed_precision: bool,
    /// Deterministic fault injection for chaos testing. A *runtime*
    /// property, not a plan property: excluded from the plan-cache
    /// fingerprint and normalized to `None` in compiled plans — runners
    /// arm the engine's `FaultPlan` from this field at construction.
    pub chaos: Option<ChaosOptions>,
}

impl PipelineOptions {
    /// Preset for a paper variant with default tile sizes for `ndims`.
    pub fn for_variant(v: Variant, ndims: usize) -> Self {
        let base = PipelineOptions {
            group_limit: 6,
            tile_sizes: default_tiles(ndims),
            intra_group_reuse: false,
            inter_group_reuse: false,
            pooled_allocation: false,
            dtile_smoother: false,
            dtile_band: 4,
            threads: 0, // 0 = runtime default
            specialize: true,
            simd: true,
            fast_math: false,
            mixed_precision: false,
            chaos: None,
        };
        match v {
            Variant::Naive => PipelineOptions {
                group_limit: 1,
                ..base
            },
            Variant::Opt => base,
            Variant::OptPlus => PipelineOptions {
                intra_group_reuse: true,
                inter_group_reuse: true,
                pooled_allocation: true,
                ..base
            },
            Variant::DtileOptPlus => PipelineOptions {
                intra_group_reuse: true,
                inter_group_reuse: true,
                pooled_allocation: true,
                dtile_smoother: true,
                ..base
            },
        }
    }

    /// Compact human-readable rendering of the knob set, used in runner
    /// labels and trace metadata (e.g. `tiled32x512,g6,intra,inter,pool`).
    pub fn summary(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        parts.push(if self.group_limit == 1 {
            "untiled".to_string()
        } else {
            format!(
                "tiled{}",
                self.tile_sizes
                    .iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join("x")
            )
        });
        parts.push(format!("g{}", self.group_limit));
        if self.intra_group_reuse {
            parts.push("intra".to_string());
        }
        if self.inter_group_reuse {
            parts.push("inter".to_string());
        }
        if self.pooled_allocation {
            parts.push("pool".to_string());
        }
        if self.dtile_smoother {
            parts.push(format!("dtile{}", self.dtile_band));
        }
        if self.threads > 0 {
            parts.push(format!("th{}", self.threads));
        }
        if !self.specialize {
            parts.push("nospec".to_string());
        }
        if !self.simd {
            parts.push("nosimd".to_string());
        }
        if self.fast_math {
            parts.push("fm".to_string());
        }
        if self.mixed_precision {
            parts.push("mp".to_string());
        }
        parts.join(",")
    }

    /// The effective tile sizes for a rank (panics if too few are set).
    pub fn tiles_for_rank(&self, ndims: usize) -> Vec<i64> {
        assert!(
            self.tile_sizes.len() >= ndims,
            "options carry {} tile sizes but the pipeline is {ndims}-D",
            self.tile_sizes.len()
        );
        self.tile_sizes[..ndims].to_vec()
    }
}

/// Paper §3.2.4 default-ish tile sizes: outer dimensions small, innermost
/// large (2-D: 32×512; 3-D: 16×16×128).
pub fn default_tiles(ndims: usize) -> Vec<i64> {
    match ndims {
        2 => vec![32, 512],
        3 => vec![16, 16, 128],
        _ => panic!("unsupported rank {ndims}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_matrix() {
        let naive = PipelineOptions::for_variant(Variant::Naive, 2);
        assert_eq!(naive.group_limit, 1);
        assert!(!naive.intra_group_reuse && !naive.pooled_allocation);

        let opt = PipelineOptions::for_variant(Variant::Opt, 2);
        assert!(opt.group_limit > 1);
        assert!(!opt.intra_group_reuse && !opt.inter_group_reuse);

        let optp = PipelineOptions::for_variant(Variant::OptPlus, 3);
        assert!(optp.intra_group_reuse && optp.inter_group_reuse && optp.pooled_allocation);
        assert!(!optp.dtile_smoother);

        let dt = PipelineOptions::for_variant(Variant::DtileOptPlus, 3);
        assert!(dt.dtile_smoother && dt.pooled_allocation);
    }

    #[test]
    fn tiles_for_rank() {
        let o = PipelineOptions::for_variant(Variant::Opt, 3);
        assert_eq!(o.tiles_for_rank(3).len(), 3);
        assert_eq!(o.tiles_for_rank(2).len(), 2);
    }

    #[test]
    fn labels() {
        assert_eq!(Variant::Naive.label(), "polymg-naive");
        assert_eq!(Variant::all().len(), 4);
    }

    #[test]
    #[should_panic(expected = "unsupported rank")]
    fn bad_rank_tiles() {
        let _ = default_tiles(4);
    }
}
