//! Multigrid problem and cycle configuration.

/// Cycle shape (Figure 2 of the paper; F is the miniGMG/HPGMG shape the
/// paper mentions as "in between V- and W-cycles in complexity").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CycleType {
    V,
    W,
    F,
}

impl CycleType {
    /// Short display tag ("V", "W", "F").
    pub fn tag(&self) -> &'static str {
        match self {
            CycleType::V => "V",
            CycleType::W => "W",
            CycleType::F => "F",
        }
    }
}

/// Smoothing-step configuration `pre-coarse-post` (the paper's 4-4-4 and
/// 10-0-0).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SmoothSteps {
    pub pre: usize,
    pub coarse: usize,
    pub post: usize,
}

impl SmoothSteps {
    /// The paper's `4-4-4`.
    pub fn s444() -> Self {
        SmoothSteps {
            pre: 4,
            coarse: 4,
            post: 4,
        }
    }

    /// The paper's `10-0-0`.
    pub fn s1000() -> Self {
        SmoothSteps {
            pre: 10,
            coarse: 0,
            post: 0,
        }
    }

    /// `"4-4-4"` style tag.
    pub fn tag(&self) -> String {
        format!("{}-{}-{}", self.pre, self.coarse, self.post)
    }
}

/// Smoothing operator. The paper evaluates weighted Jacobi; GSRB is the
/// extension it sketches ("all optimization presented in this paper apply
/// to it if the red and black points are abstracted as two grids") —
/// expressed here through parity `Case` definitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SmootherKind {
    /// Weighted (damped) Jacobi.
    Jacobi,
    /// Gauss–Seidel with red-black ordering (two half-sweeps per step).
    GaussSeidelRB,
    /// Chebyshev polynomial chain; the configured step count is the
    /// polynomial degree (each step carries its own recurrence
    /// coefficients, so the chain is a sequence of distinct `Function`
    /// stages rather than a `TStencil`).
    Chebyshev,
}

/// Discretization of `A = −∇²` on the finest grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Star stencil: the paper's 5-point (2-D) / 7-point (3-D) Laplacian.
    Star,
    /// Dense compact neighborhood: the Mehrstellen 9-point (2-D) /
    /// 27-point (3-D) Laplacian — the footprint Galerkin coarsening
    /// produces, and ~4× the arithmetic intensity of the star operator.
    Dense,
}

/// Full multigrid configuration for one benchmark.
#[derive(Clone, Debug)]
pub struct MgConfig {
    /// 2 or 3 spatial dimensions.
    pub ndims: usize,
    /// Finest interior size per dimension; must be `2^k − 1`.
    pub n: i64,
    /// Number of levels (≥ 1); level `levels−1` is the finest.
    pub levels: u32,
    pub steps: SmoothSteps,
    pub cycle: CycleType,
    /// Weighted-Jacobi damping factor (ignored for GSRB).
    pub omega: f64,
    /// Smoothing operator.
    pub smoother: SmootherKind,
    /// Discretization of `A` used by the Jacobi smoother and the defect
    /// (GSRB and Chebyshev always use the star operator).
    pub operator: OperatorKind,
}

/// Why a configuration cannot be solved: the typed reason
/// [`MgConfig::validate`] returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// Only 2-D and 3-D are supported.
    Rank(usize),
    /// The finest interior size is not `2^k − 1` with `k ≥ 2`.
    Size(i64),
    /// The level count is zero, or so deep the coarsest level has no
    /// interior point left.
    Levels { levels: u32, n: i64 },
    /// Pre-, coarse- and post-smoothing steps are all zero: the cycle does
    /// nothing.
    NoSmoothing,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Rank(d) => write!(f, "2-D/3-D only, got {d}-D"),
            ConfigError::Size(n) => write!(f, "interior size must be 2^k - 1 >= 3, got {n}"),
            ConfigError::Levels { levels, n } => {
                write!(f, "{levels} levels is too deep for n = {n}")
            }
            ConfigError::NoSmoothing => write!(f, "at least one smoothing step is required"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl MgConfig {
    /// A default configuration matching the paper's setup (4 levels, ω
    /// chosen per rank: 4/5 in 2-D, 6/7 in 3-D — the optimal damped-Jacobi
    /// factors for the 5-/7-point Laplacians). Panics on a rank or size
    /// [`MgConfig::validate`] rejects; the level count and the steps are the
    /// caller's to adjust afterwards.
    pub fn new(ndims: usize, n: i64, cycle: CycleType, steps: SmoothSteps) -> Self {
        let cfg = MgConfig::unchecked(ndims, n, 4, cycle, steps);
        if let Err(e @ (ConfigError::Rank(_) | ConfigError::Size(_))) = cfg.validate() {
            panic!("{e}");
        }
        cfg
    }

    /// [`MgConfig::new`] with an explicit level count, for configurations
    /// that arrive from outside (the wire, the command line): every
    /// [`MgConfig::validate`] failure is returned, none panics.
    pub fn checked(
        ndims: usize,
        n: i64,
        levels: u32,
        cycle: CycleType,
        steps: SmoothSteps,
    ) -> Result<Self, ConfigError> {
        let cfg = MgConfig::unchecked(ndims, n, levels, cycle, steps);
        cfg.validate().map(|()| cfg)
    }

    fn unchecked(ndims: usize, n: i64, levels: u32, cycle: CycleType, steps: SmoothSteps) -> Self {
        MgConfig {
            ndims,
            n,
            levels,
            steps,
            cycle,
            omega: if ndims == 2 { 4.0 / 5.0 } else { 6.0 / 7.0 },
            smoother: SmootherKind::Jacobi,
            operator: OperatorKind::Star,
        }
    }

    /// Can this configuration be built and solved? Checks, in order: the
    /// rank, the `2^k − 1` finest size, a level count whose coarsest level
    /// keeps an interior point (what [`MgConfig::n_at`] asserts), and at
    /// least one smoothing step.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ndims != 2 && self.ndims != 3 {
            return Err(ConfigError::Rank(self.ndims));
        }
        // n ≥ 3 first: then `n + 1` cannot overflow as a u64
        if self.n < 3 || !(self.n as u64 + 1).is_power_of_two() {
            return Err(ConfigError::Size(self.n));
        }
        let size = self.n as u64 + 1;
        let coarsest = self.levels.checked_sub(1).and_then(|s| size.checked_shr(s));
        if coarsest.unwrap_or(0) < 2 {
            return Err(ConfigError::Levels {
                levels: self.levels,
                n: self.n,
            });
        }
        if self.steps == (SmoothSteps { pre: 0, coarse: 0, post: 0 }) {
            return Err(ConfigError::NoSmoothing);
        }
        Ok(())
    }

    /// Switch the smoother to red-black Gauss–Seidel.
    pub fn with_gsrb(mut self) -> Self {
        self.smoother = SmootherKind::GaussSeidelRB;
        self
    }

    /// Switch the smoother to Chebyshev polynomial chains.
    pub fn with_chebyshev(mut self) -> Self {
        self.smoother = SmootherKind::Chebyshev;
        self
    }

    /// Switch the operator to the dense compact (Mehrstellen) Laplacian.
    pub fn with_dense_operator(mut self) -> Self {
        self.operator = OperatorKind::Dense;
        self
    }

    /// Interior size at `level` (0 = coarsest).
    pub fn n_at(&self, level: u32) -> i64 {
        assert!(level < self.levels);
        let shift = self.levels - 1 - level;
        let size = (self.n + 1) >> shift;
        assert!(size >= 2, "too many levels for n = {}", self.n);
        size - 1
    }

    /// Mesh spacing at `level` for the unit domain.
    pub fn h_at(&self, level: u32) -> f64 {
        1.0 / (self.n_at(level) + 1) as f64
    }

    /// Benchmark tag, e.g. `V-2D-4-4-4`.
    pub fn tag(&self) -> String {
        format!("{}-{}D-{}", self.cycle.tag(), self.ndims, self.steps.tag())
    }

    /// Total allocation length per grid at `level` (ghost included).
    pub fn alloc_len(&self, level: u32) -> usize {
        let e = (self.n_at(level) + 2) as usize;
        e.pow(self.ndims as u32)
    }
}

/// Scaled problem-size classes (Table 2 of the paper, shrunk for a
/// single-core container — see DESIGN.md's substitution table). `paper`
/// selects the original sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// Scaled class B: 1023² / 63³.
    B,
    /// Scaled class C: 2047² / 127³.
    C,
    /// Tiny smoke-test size: 255² / 31³.
    Smoke,
    /// The paper's real class B: 8191² / 255³.
    PaperB,
    /// The paper's real class C: 16383² / 511³.
    PaperC,
}

impl SizeClass {
    /// Finest interior size for the class at the given rank.
    pub fn n(&self, ndims: usize) -> i64 {
        match (self, ndims) {
            (SizeClass::Smoke, 2) => 255,
            (SizeClass::Smoke, 3) => 31,
            (SizeClass::B, 2) => 1023,
            (SizeClass::B, 3) => 63,
            (SizeClass::C, 2) => 2047,
            (SizeClass::C, 3) => 127,
            (SizeClass::PaperB, 2) => 8191,
            (SizeClass::PaperB, 3) => 255,
            (SizeClass::PaperC, 2) => 16383,
            (SizeClass::PaperC, 3) => 511,
            _ => panic!("unsupported rank"),
        }
    }

    /// Cycle iteration counts per Table 2 (scaled classes reuse the paper's
    /// counts).
    pub fn cycle_iters(&self, ndims: usize) -> usize {
        match (self, ndims) {
            (SizeClass::Smoke, _) => 5,
            (SizeClass::B, 2) | (SizeClass::PaperB, 2) => 10,
            (SizeClass::C, 2) | (SizeClass::PaperC, 2) => 10,
            (SizeClass::B, 3) | (SizeClass::PaperB, 3) => 25,
            (SizeClass::C, 3) | (SizeClass::PaperC, 3) => 10,
            _ => panic!("unsupported rank"),
        }
    }

    /// Display tag.
    pub fn tag(&self) -> &'static str {
        match self {
            SizeClass::B => "B",
            SizeClass::C => "C",
            SizeClass::Smoke => "smoke",
            SizeClass::PaperB => "paperB",
            SizeClass::PaperC => "paperC",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_sizes_halve() {
        let c = MgConfig::new(2, 255, CycleType::V, SmoothSteps::s444());
        assert_eq!(c.n_at(3), 255);
        assert_eq!(c.n_at(2), 127);
        assert_eq!(c.n_at(1), 63);
        assert_eq!(c.n_at(0), 31);
        assert!((c.h_at(3) - 1.0 / 256.0).abs() < 1e-15);
        assert!((c.h_at(0) - 1.0 / 32.0).abs() < 1e-15);
    }

    #[test]
    fn tags() {
        let c = MgConfig::new(3, 63, CycleType::W, SmoothSteps::s1000());
        assert_eq!(c.tag(), "W-3D-10-0-0");
        assert_eq!(SmoothSteps::s444().tag(), "4-4-4");
        assert_eq!(CycleType::F.tag(), "F");
    }

    #[test]
    #[should_panic(expected = "2^k - 1")]
    fn rejects_bad_sizes() {
        let _ = MgConfig::new(2, 100, CycleType::V, SmoothSteps::s444());
    }

    #[test]
    fn validate_names_the_first_failure() {
        let s = SmoothSteps::s444();
        let checked = |d, n, l, s| MgConfig::checked(d, n, l, CycleType::V, s).map(|_| ());
        assert_eq!(checked(4, 7, 2, s), Err(ConfigError::Rank(4)));
        for n in [0, 2, 8, -1, i64::MIN] {
            assert_eq!(checked(2, n, 2, s), Err(ConfigError::Size(n)));
        }
        for levels in [0, 4, 20, u32::MAX] {
            assert_eq!(
                checked(2, 7, levels, s),
                Err(ConfigError::Levels { levels, n: 7 })
            );
        }
        let none = SmoothSteps {
            pre: 0,
            coarse: 0,
            post: 0,
        };
        assert_eq!(checked(3, 7, 3, none), Err(ConfigError::NoSmoothing));
        assert!(checked(3, 7, 3, SmoothSteps::s1000()).is_ok());
        assert!(ConfigError::Levels { levels: 5, n: 7 }
            .to_string()
            .contains("too deep"));
    }

    #[test]
    fn alloc_len() {
        let c = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
        assert_eq!(c.alloc_len(c.levels - 1), 33 * 33);
    }

    #[test]
    fn size_classes() {
        assert_eq!(SizeClass::B.n(2), 1023);
        assert_eq!(SizeClass::C.n(3), 127);
        assert_eq!(SizeClass::PaperC.n(2), 16383);
        assert_eq!(SizeClass::B.cycle_iters(3), 25);
        assert!(((SizeClass::B.n(2) + 1) as u64).is_power_of_two());
    }
}
