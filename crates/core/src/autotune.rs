//! Auto-tuning (§3.2.4): enumerate tile-size × grouping-limit
//! configurations and pick the fastest, using a caller-supplied evaluator
//! (the runtime executes each configuration; this module only owns the
//! search space and bookkeeping).
//!
//! The paper's space: 2-D outer tile 8:64, inner 64:512, powers of two;
//! 3-D outer two dims 8:32, inner 64:256; five grouping limits. That yields
//! 80 configurations for 2-D and 135 for 3-D — reproduced exactly by
//! [`search_space`].
//!
//! [`search`] replaces the exhaustive sweep with a coordinate scan over the
//! same space *extended* with the smoother time-band height and the kernel
//! tier — see that module for the proposal order and the stop rule.

use crate::jsonio::{self, JsonValue};
use crate::options::PipelineOptions;
use crate::specialize::KernelTier;

pub mod search;

/// Typed failure of the tuning space / sweep entry points. A serving
/// process drives these from request parameters, so an unsupported rank
/// must be a value, not a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TuneError {
    /// Only 2-D and 3-D pipelines have a defined search space.
    UnsupportedRank(usize),
    /// `tune` was called with a stride of zero.
    ZeroStride,
    /// The (strided) space produced no samples to pick a winner from.
    EmptySpace,
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::UnsupportedRank(n) => write!(f, "unsupported rank {n} (need 2 or 3)"),
            TuneError::ZeroStride => write!(f, "tuning stride must be >= 1"),
            TuneError::EmptySpace => write!(f, "tuning space is empty"),
        }
    }
}

impl std::error::Error for TuneError {}

/// One auto-tuning configuration.
///
/// `tile_sizes`, `group_limit` and `smooth_band` are *schedule-only* knobs:
/// they change execution order and storage, never the computed values, so a
/// tuned plan stays bitwise-identical to the default one. `tier` selects
/// the specialized-kernel lowering; [`KernelTier::Scalar`] and
/// [`KernelTier::LaneSafe`] are bitwise with the generic interpreter, while
/// [`KernelTier::FastMath`] reassociates and is only legal where the caller
/// already opted into fast-math numerics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TuneConfig {
    pub tile_sizes: Vec<i64>,
    pub group_limit: usize,
    /// Smoother steps fused per diamond/split time band
    /// ([`PipelineOptions::dtile_band`]) — the Schmitt-et-al.-style
    /// "smoother steps" axis, expressed as the schedule-only band height.
    pub smooth_band: usize,
    /// Specialized-kernel tier the configuration was tuned at.
    pub tier: KernelTier,
}

impl TuneConfig {
    /// A configuration with the pre-search defaults for the new axes
    /// (band 4, lane-safe tier — exactly what [`PipelineOptions`] presets
    /// carry), matching the paper's original two-axis sweep entries.
    pub fn new(tile_sizes: Vec<i64>, group_limit: usize) -> TuneConfig {
        TuneConfig {
            tile_sizes,
            group_limit,
            smooth_band: 4,
            tier: KernelTier::LaneSafe,
        }
    }

    /// Apply this configuration onto a base option set.
    pub fn apply(&self, base: &PipelineOptions) -> PipelineOptions {
        let mut o = base.clone();
        o.tile_sizes = self.tile_sizes.clone();
        o.group_limit = self.group_limit;
        o.dtile_band = self.smooth_band;
        o.tier = self.tier;
        o
    }
}

/// The grouping limits swept ("five different values of grouping limit").
pub const GROUP_LIMITS: [usize; 5] = [2, 4, 6, 8, 11];

/// The paper's §3.2.4 search space for the given rank (band and tier held
/// at their defaults; [`search`] explores those axes).
pub fn search_space(ndims: usize) -> Result<Vec<TuneConfig>, TuneError> {
    let mut out = Vec::new();
    match ndims {
        2 => {
            for &gl in &GROUP_LIMITS {
                let mut outer = 8i64;
                while outer <= 64 {
                    let mut inner = 64i64;
                    while inner <= 512 {
                        out.push(TuneConfig::new(vec![outer, inner], gl));
                        inner *= 2;
                    }
                    outer *= 2;
                }
            }
        }
        3 => {
            for &gl in &GROUP_LIMITS {
                let mut o1 = 8i64;
                while o1 <= 32 {
                    let mut o2 = 8i64;
                    while o2 <= 32 {
                        let mut inner = 64i64;
                        while inner <= 256 {
                            out.push(TuneConfig::new(vec![o1, o2, inner], gl));
                            inner *= 2;
                        }
                        o2 *= 2;
                    }
                    o1 *= 2;
                }
            }
        }
        other => return Err(TuneError::UnsupportedRank(other)),
    }
    Ok(out)
}

/// Result of one evaluated configuration.
#[derive(Clone, Debug)]
pub struct TuneSample {
    pub config: TuneConfig,
    /// Execution time in seconds (or whatever metric the evaluator reports;
    /// lower is better).
    pub metric: f64,
}

/// Run the exhaustive tuner: evaluate every configuration (optionally
/// subsampled by `stride` for quick runs) and return all samples plus the
/// index of the best *sample* (an index into the returned vector, not into
/// the unstrided space).
pub fn tune(
    ndims: usize,
    stride: usize,
    mut eval: impl FnMut(&TuneConfig) -> f64,
) -> Result<(Vec<TuneSample>, usize), TuneError> {
    if stride == 0 {
        return Err(TuneError::ZeroStride);
    }
    let space = search_space(ndims)?;
    let mut samples = Vec::new();
    for cfg in space.into_iter().step_by(stride) {
        let metric = eval(&cfg);
        samples.push(TuneSample {
            config: cfg,
            metric,
        });
    }
    let best = samples
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.metric.total_cmp(&b.1.metric))
        .map(|(i, _)| i)
        .ok_or(TuneError::EmptySpace)?;
    Ok((samples, best))
}

/// How a stored winner was found (provenance; see `DESIGN.md` §17).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneSource {
    /// The §3.2.4 exhaustive grid sweep.
    Sweep,
    /// The offline coordinate-scan [`search`].
    Search,
    /// The server's online tuner (idle-capacity background trials).
    Online,
}

impl TuneSource {
    pub fn label(self) -> &'static str {
        match self {
            TuneSource::Sweep => "sweep",
            TuneSource::Search => "search",
            TuneSource::Online => "online",
        }
    }

    fn parse(s: &str) -> Option<TuneSource> {
        match s {
            "sweep" => Some(TuneSource::Sweep),
            "search" => Some(TuneSource::Search),
            "online" => Some(TuneSource::Online),
            _ => None,
        }
    }
}

/// One persisted tuning result: the winning [`TuneConfig`] for a pipeline
/// structure (keyed by [`crate::cache::pipeline_fingerprint`] + rank), the
/// metric it achieved, and where it came from.
#[derive(Clone, Debug, PartialEq)]
pub struct TunedEntry {
    /// Structural fingerprint of the pipeline + bindings the sweep ran on.
    pub fingerprint: u64,
    /// Spatial rank (2 or 3) — fingerprints are rank-specific already, but
    /// keeping it explicit makes the stored file self-describing.
    pub ndims: usize,
    pub config: TuneConfig,
    /// The metric the winning configuration achieved (seconds; informative
    /// only, not used by lookups).
    pub metric: f64,
    /// Provenance: sweep, offline search, or the server's online tuner.
    pub source: TuneSource,
    /// Configurations evaluated before this winner was picked (0 for
    /// legacy sweep entries that predate provenance).
    pub evals: u64,
}

impl TunedEntry {
    /// Whether the stored metric was achieved at the reassociating
    /// fast-math tier (which changes numerics — a server only honors it for
    /// sessions that already opted in).
    pub fn fast_math(&self) -> bool {
        self.config.tier == KernelTier::FastMath
    }
}

/// JSON-persisted store of autotuning winners, so a solve server can
/// warm-start sessions with tuned tile sizes instead of the §3.2.4
/// defaults. One entry per `(fingerprint, ndims)` key; re-recording a key
/// replaces it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TunedStore {
    entries: Vec<TunedEntry>,
}

impl TunedStore {
    pub fn new() -> TunedStore {
        TunedStore::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[TunedEntry] {
        &self.entries
    }

    /// Insert or replace the tuned configuration for one pipeline key, at
    /// the configuration's own tier.
    pub fn record(&mut self, fingerprint: u64, ndims: usize, config: TuneConfig, metric: f64) {
        self.record_entry(TunedEntry {
            fingerprint,
            ndims,
            config,
            metric,
            source: TuneSource::Sweep,
            evals: 0,
        });
    }

    /// Insert or replace a winner with full provenance (the search and the
    /// server's online tuner record through this).
    pub fn record_entry(&mut self, entry: TunedEntry) {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == entry.fingerprint && e.ndims == entry.ndims)
        {
            *e = entry;
        } else {
            self.entries.push(entry);
        }
    }

    /// The stored winner for a pipeline key, if any.
    pub fn lookup(&self, fingerprint: u64, ndims: usize) -> Option<&TunedEntry> {
        self.entries
            .iter()
            .find(|e| e.fingerprint == fingerprint && e.ndims == ndims)
    }

    /// Render as JSON. Fingerprints are hex strings: a u64 does not survive
    /// a round-trip through an f64 JSON number.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"tuned\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let tiles = e
                .config
                .tile_sizes
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            s.push_str(&format!(
                "\n    {{\"fingerprint\": \"{:016x}\", \"ndims\": {}, \"tile_sizes\": [{}], \
                 \"group_limit\": {}, \"smooth_band\": {}, \"tier\": \"{}\", \"metric\": {}, \
                 \"fast_math\": {}, \"source\": \"{}\", \"evals\": {}}}",
                e.fingerprint,
                e.ndims,
                tiles,
                e.config.group_limit,
                e.config.smooth_band,
                e.config.tier.label(),
                if e.metric.is_finite() {
                    format!("{}", e.metric)
                } else {
                    "null".to_string()
                },
                e.fast_math(),
                e.source.label(),
                e.evals,
            ));
        }
        if !self.entries.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Parse a store previously written by [`TunedStore::to_json`] (or by an
    /// earlier release: absent keys take legacy defaults, and the `seed` key
    /// the evolutionary search used to write is ignored).
    pub fn from_json(text: &str) -> Result<TunedStore, String> {
        let doc = jsonio::parse(text)?;
        let list = doc
            .get("tuned")
            .and_then(JsonValue::as_arr)
            .ok_or("missing 'tuned' array")?;
        let mut store = TunedStore::new();
        for (i, item) in list.iter().enumerate() {
            let fail = |what: &str| format!("tuned[{i}]: {what}");
            let fp_text = item
                .get("fingerprint")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| fail("missing fingerprint"))?;
            let fingerprint = u64::from_str_radix(fp_text, 16)
                .map_err(|_| fail("fingerprint is not a hex u64"))?;
            let ndims = item
                .get("ndims")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| fail("missing ndims"))? as usize;
            if ndims != 2 && ndims != 3 {
                return Err(fail("ndims must be 2 or 3"));
            }
            let tile_sizes: Vec<i64> = item
                .get("tile_sizes")
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| fail("missing tile_sizes"))?
                .iter()
                .map(|t| t.as_i64().filter(|&v| v > 0))
                .collect::<Option<_>>()
                .ok_or_else(|| fail("tile_sizes must be positive integers"))?;
            if tile_sizes.len() < ndims {
                return Err(fail("fewer tile sizes than dimensions"));
            }
            let group_limit =
                item.get("group_limit")
                    .and_then(JsonValue::as_u64)
                    .filter(|&g| g >= 1)
                    .ok_or_else(|| fail("missing or zero group_limit"))? as usize;
            // absent before the search-axis extension: defaults to the
            // PipelineOptions preset band
            let smooth_band = match item.get("smooth_band") {
                None => 4,
                Some(v) => v
                    .as_u64()
                    .filter(|&b| b >= 1)
                    .ok_or_else(|| fail("smooth_band must be a positive integer"))?
                    as usize,
            };
            let metric = item
                .get("metric")
                .and_then(JsonValue::as_f64)
                .unwrap_or(f64::NAN);
            // absent in store files written before the tier split
            let fast_math = item
                .get("fast_math")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false);
            let tier = match item.get("tier") {
                None => {
                    if fast_math {
                        KernelTier::FastMath
                    } else {
                        KernelTier::LaneSafe
                    }
                }
                Some(v) => {
                    let label = v.as_str().ok_or_else(|| fail("tier must be a string"))?;
                    KernelTier::ALL
                        .into_iter()
                        .find(|t| t.label() == label)
                        .ok_or_else(|| fail("unknown kernel tier"))?
                }
            };
            let source = match item.get("source") {
                None => TuneSource::Sweep,
                Some(v) => v
                    .as_str()
                    .and_then(TuneSource::parse)
                    .ok_or_else(|| fail("unknown tuning source"))?,
            };
            let evals = item.get("evals").and_then(JsonValue::as_u64).unwrap_or(0);
            store.record_entry(TunedEntry {
                fingerprint,
                ndims,
                config: TuneConfig {
                    tile_sizes,
                    group_limit,
                    smooth_band,
                    tier,
                },
                metric,
                source,
                evals,
            });
        }
        Ok(store)
    }

    /// Write the store to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Read a store from a file (missing file or bad JSON are both errors).
    pub fn load(path: &std::path::Path) -> Result<TunedStore, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        TunedStore::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{PipelineOptions, Variant};

    #[test]
    fn space_sizes_match_paper() {
        // 2-D: outer {8,16,32,64} × inner {64..512} (4) × 5 limits = 80
        assert_eq!(search_space(2).unwrap().len(), 80);
        // 3-D: {8,16,32}² × inner {64,128,256} × 5 = 135
        assert_eq!(search_space(3).unwrap().len(), 135);
    }

    #[test]
    fn unsupported_rank_is_a_typed_error_not_a_panic() {
        for bad in [0usize, 1, 4, 7] {
            assert_eq!(search_space(bad), Err(TuneError::UnsupportedRank(bad)));
            assert_eq!(
                tune(bad, 1, |_| 1.0).unwrap_err(),
                TuneError::UnsupportedRank(bad)
            );
        }
        assert_eq!(tune(2, 0, |_| 1.0).unwrap_err(), TuneError::ZeroStride);
        // errors render (a server embeds them in error frames)
        assert!(TuneError::UnsupportedRank(4).to_string().contains("rank 4"));
    }

    #[test]
    fn apply_overrides_options() {
        let base = PipelineOptions::for_variant(Variant::OptPlus, 2);
        let cfg = TuneConfig {
            tile_sizes: vec![16, 128],
            group_limit: 4,
            smooth_band: 2,
            tier: KernelTier::Scalar,
        };
        let o = cfg.apply(&base);
        assert_eq!(o.tile_sizes, vec![16, 128]);
        assert_eq!(o.group_limit, 4);
        assert_eq!(o.dtile_band, 2);
        assert_eq!(o.tier, KernelTier::Scalar);
        assert!(o.intra_group_reuse); // rest preserved

        // tier mapping covers all three levels
        let fm = TuneConfig {
            tier: KernelTier::FastMath,
            ..cfg.clone()
        }
        .apply(&base);
        assert_eq!(fm.tier, KernelTier::FastMath);
        let ls = TuneConfig::new(vec![16, 128], 4).apply(&base);
        assert_eq!(ls.tier, KernelTier::LaneSafe);
        assert_eq!(ls.dtile_band, 4, "TuneConfig::new keeps the preset band");
    }

    #[test]
    fn tune_finds_minimum() {
        // metric: distance of the tile area from 32*128
        let (samples, best) = tune(2, 1, |c| {
            ((c.tile_sizes[0] * c.tile_sizes[1]) as f64 - (32.0 * 128.0)).abs()
        })
        .unwrap();
        assert_eq!(samples.len(), 80);
        let b = &samples[best];
        assert_eq!(b.config.tile_sizes[0] * b.config.tile_sizes[1], 32 * 128);
    }

    #[test]
    fn stride_subsamples() {
        let (samples, _) = tune(3, 10, |_| 1.0).unwrap();
        assert_eq!(samples.len(), 14);
    }

    #[test]
    fn stride_best_indexes_the_samples_not_the_space() {
        // stride 7 over the 80-point 2-D space → samples at space indices
        // 0, 7, …, 77 (12 samples). Make the 9th *sample* the minimum and
        // check the returned index is 9 (the position in the strided sample
        // vector), carrying the config from space index 63.
        let mut k = 0u32;
        let (samples, best) = tune(2, 7, |_| {
            let m = (f64::from(k) - 9.0).abs();
            k += 1;
            m
        })
        .unwrap();
        assert_eq!(samples.len(), 12);
        assert_eq!(best, 9);
        let space = search_space(2).unwrap();
        assert_eq!(samples[best].config, space[63]);
        // and the winner really is the minimum over what was sampled
        assert!(samples
            .iter()
            .all(|s| samples[best].metric <= s.metric));
    }

    #[test]
    fn tuned_store_round_trips() {
        let mut store = TunedStore::new();
        store.record(
            0xdead_beef_0123_4567,
            2,
            TuneConfig::new(vec![16, 256], 4),
            0.0125,
        );
        store.record(
            u64::MAX, // extremes must survive the hex round-trip
            3,
            TuneConfig {
                tier: KernelTier::FastMath,
                ..TuneConfig::new(vec![8, 16, 128], 11)
            },
            3.5e-3,
        );
        // replacement: re-recording a key overwrites, not duplicates
        store.record(
            0xdead_beef_0123_4567,
            2,
            TuneConfig::new(vec![32, 512], 6),
            0.011,
        );
        // full-provenance entry with non-default band/tier
        store.record_entry(TunedEntry {
            fingerprint: 7,
            ndims: 2,
            config: TuneConfig {
                tile_sizes: vec![8, 64],
                group_limit: 2,
                smooth_band: 8,
                tier: KernelTier::Scalar,
            },
            metric: 0.5,
            source: TuneSource::Online,
            evals: 17,
        });
        assert_eq!(store.len(), 3);

        let back = TunedStore::from_json(&store.to_json()).unwrap();
        assert_eq!(back, store);
        let e = back.lookup(0xdead_beef_0123_4567, 2).unwrap();
        assert_eq!(e.config.tile_sizes, vec![32, 512]);
        assert_eq!(e.config.group_limit, 6);
        assert!(!e.fast_math());
        assert_eq!(e.source, TuneSource::Sweep);
        assert!(back.lookup(u64::MAX, 3).unwrap().fast_math());
        assert!(back.lookup(0xdead_beef_0123_4567, 3).is_none());
        assert!(back.lookup(1, 2).is_none());
        let online = back.lookup(7, 2).unwrap();
        assert_eq!(
            (online.source, online.evals),
            (TuneSource::Online, 17)
        );
        assert_eq!(online.config.smooth_band, 8);
        assert_eq!(online.config.tier, KernelTier::Scalar);

        // pre-provenance store files carry none of the new keys: band,
        // tier, source and evals all take their legacy defaults
        let legacy = "{\"tuned\": [{\"fingerprint\": \"2a\", \"ndims\": 2, \
                      \"tile_sizes\": [8, 64], \"group_limit\": 2, \"metric\": 1.0}]}";
        let old = TunedStore::from_json(legacy).unwrap();
        let e = old.lookup(0x2a, 2).unwrap();
        assert!(!e.fast_math());
        assert_eq!(e.config.smooth_band, 4);
        assert_eq!(e.config.tier, KernelTier::LaneSafe);
        assert_eq!((e.source, e.evals), (TuneSource::Sweep, 0));
        // legacy fast_math flag still selects the fast-math tier
        let legacy_fm = "{\"tuned\": [{\"fingerprint\": \"2a\", \"ndims\": 2, \
                         \"tile_sizes\": [8, 64], \"group_limit\": 2, \"metric\": 1.0, \
                         \"fast_math\": true}]}";
        assert!(TunedStore::from_json(legacy_fm)
            .unwrap()
            .lookup(0x2a, 2)
            .unwrap()
            .fast_math());
    }

    #[test]
    fn tuned_store_rejects_malformed_input() {
        for bad in [
            "",
            "{}",
            "{\"tuned\": [{}]}",
            "{\"tuned\": [{\"fingerprint\": \"xyz\", \"ndims\": 2, \"tile_sizes\": [8, 64], \"group_limit\": 2}]}",
            "{\"tuned\": [{\"fingerprint\": \"ff\", \"ndims\": 4, \"tile_sizes\": [8, 64, 64, 64], \"group_limit\": 2}]}",
            "{\"tuned\": [{\"fingerprint\": \"ff\", \"ndims\": 3, \"tile_sizes\": [8, 64], \"group_limit\": 2}]}",
            "{\"tuned\": [{\"fingerprint\": \"ff\", \"ndims\": 2, \"tile_sizes\": [8, -64], \"group_limit\": 2}]}",
            "{\"tuned\": [{\"fingerprint\": \"ff\", \"ndims\": 2, \"tile_sizes\": [8, 64], \"group_limit\": 0}]}",
            "{\"tuned\": [{\"fingerprint\": \"ff\", \"ndims\": 2, \"tile_sizes\": [8, 64], \"group_limit\": 2, \"smooth_band\": 0}]}",
            "{\"tuned\": [{\"fingerprint\": \"ff\", \"ndims\": 2, \"tile_sizes\": [8, 64], \"group_limit\": 2, \"tier\": \"warp\"}]}",
            "{\"tuned\": [{\"fingerprint\": \"ff\", \"ndims\": 2, \"tile_sizes\": [8, 64], \"group_limit\": 2, \"source\": \"oracle\"}]}",
        ] {
            assert!(TunedStore::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn tuned_store_file_round_trip() {
        let mut store = TunedStore::new();
        store.record(42, 2, TuneConfig::new(vec![8, 128], 2), 1.0);
        let path = std::env::temp_dir().join("gmg_tuned_store_test.json");
        store.save(&path).unwrap();
        let back = TunedStore::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, store);
        assert!(TunedStore::load(std::path::Path::new("/nonexistent/tuned.json")).is_err());
    }
}
