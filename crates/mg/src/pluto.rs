//! `handopt+pluto` — re-export of the hand-optimized baseline with its
//! smoothers executed through the concurrent-start split/diamond schedule
//! (the libPluto-substitute of this reproduction; see `gmg-poly::diamond`).
//!
//! The implementation lives in [`crate::handopt`] (the two variants share
//! every operator except the smoother loop); this module provides the
//! paper-facing constructor and tuning knobs.

use crate::config::MgConfig;
use crate::handopt::HandOpt;

/// Construct the `handopt+pluto` configuration with tuned tile parameters
/// ("tile sizes were tuned empirically around optimized ones that shipped
/// with its release" — we default to a width that keeps full bands legal
/// for 10 smoothing steps), on `threads` workers (0 = the host's
/// parallelism).
pub fn handopt_pluto(cfg: MgConfig, tile_w: i64, band_h: usize, threads: usize) -> HandOpt {
    let mut h = HandOpt::new_pluto(cfg, threads);
    h.dtile_w = tile_w;
    h.dtile_h = band_h;
    h
}

/// Default-tuned `handopt+pluto` on `threads` workers.
pub fn handopt_pluto_default(cfg: MgConfig, threads: usize) -> HandOpt {
    let (w, h) = if cfg.ndims == 2 { (128, 5) } else { (32, 3) };
    handopt_pluto(cfg, w, h, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CycleType, SmoothSteps};

    #[test]
    fn constructor_sets_label_and_knobs() {
        let cfg = MgConfig::new(2, 63, CycleType::V, SmoothSteps::s444());
        let h = handopt_pluto(cfg.clone(), 64, 4, 0);
        assert_eq!(h.label(), "handopt+pluto");
        assert_eq!(h.dtile_w, 64);
        let d = handopt_pluto_default(cfg, 0);
        assert_eq!(d.dtile_w, 128);
    }
}
