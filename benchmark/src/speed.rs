//! Host speed factor. The reference host runs in (at least) two speed
//! states that alternate every 1–40 s — the same in-cache loop takes 86 µs
//! or 110 µs, no steal time is reported, every kind of code slows by
//! 1.24–1.30× — so the wall time of one 12 s run lands in either state and
//! medians of repeated runs spread by 25–30 %. To make a run say something
//! about the program and not about the state it happened to run in, every
//! timing sample is divided by the speed factor σ measured right next to
//! it: σ = (time of a fixed benchmark-owned kernel, the *tick*) ÷
//! `REFERENCE_TICK_NS`. On an undisturbed reference host σ = 1 and the
//! reported times are plain wall times; elsewhere they are times *at the
//! reference host's undisturbed speed*. With it, ten 12 s runs of `vcycle2d`
//! that spread 33 % raw (23.9–33.4 ms per cycle) spread 3 % (23.9–24.7 ms).

use std::time::{Duration, Instant};

/// The tick on the undisturbed reference host (2-core Xeon @ 2.1 GHz,
/// AVX-512, rustc 1.95): the fastest mode of 4 M ticks over 400 s was
/// 85.6–86.2 µs. Re-measure with `gmg-benchmark calibrate` when the host or
/// the toolchain changes; every reported time scales with it.
pub const REFERENCE_TICK_NS: f64 = 86_000.0;

/// The tick is repeated when the last one is older than this while
/// operations are being timed (speed states last ≥ 50 ms).
const TICK_EVERY: Duration = Duration::from_millis(10);

const TICK_ELEMS: usize = 4096;
const TICK_SWEEPS: usize = 200;

/// One thread's view of the host speed: the tick history and a clock that
/// advances in normalised time.
pub struct Speed {
    buf: Vec<f64>,
    /// The two latest tick times, nanoseconds.
    latest: [f64; 2],
    last_tick: Instant,
    last_stamp: Instant,
    clock_ns: f64,
    /// Every tick of this thread, nanoseconds.
    pub ticks: Vec<f64>,
    /// When the ticks since the last `take_tick_spans` ran.
    tick_spans: Vec<(Instant, Instant)>,
}

impl Default for Speed {
    fn default() -> Self {
        Speed::new()
    }
}

impl Speed {
    pub fn new() -> Speed {
        let now = Instant::now();
        let mut s = Speed {
            buf: vec![1.0; TICK_ELEMS],
            latest: [REFERENCE_TICK_NS; 2],
            last_tick: now,
            last_stamp: now,
            clock_ns: 0.0,
            ticks: Vec::new(),
            tick_spans: Vec::new(),
        };
        // the first tick warms the buffer; the next two fill `latest`
        for _ in 0..3 {
            s.tick();
        }
        s.ticks.clear();
        s.tick_spans.clear();
        s.last_stamp = Instant::now();
        s
    }

    /// 200 multiply-add sweeps over 32 KiB: cache-resident, no allocation,
    /// no system call — it slows down only when the core does.
    fn tick(&mut self) {
        let t0 = Instant::now();
        for _ in 0..TICK_SWEEPS {
            for x in self.buf.iter_mut() {
                *x = *x * 1.000_000_1 + 1e-9;
            }
            std::hint::black_box(&mut self.buf);
        }
        // keep the values bounded over hours of ticking
        if self.buf[0] > 1e6 {
            self.buf.fill(1.0);
        }
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as f64;
        self.latest = [self.latest[1], ns];
        self.last_tick = t1;
        self.ticks.push(ns);
        self.tick_spans.push((t0, t1));
    }

    /// The intervals the ticks since the last call occupied: a traced
    /// section records them as `bench.tick` spans, so the time they take is
    /// accounted for like every other call.
    pub fn take_tick_spans(&mut self) -> Vec<(Instant, Instant)> {
        std::mem::take(&mut self.tick_spans)
    }

    /// Restart the normalised clock (at the start of a timed section).
    pub fn restart(&mut self) {
        self.clock_ns = 0.0;
        self.last_stamp = Instant::now();
    }

    /// Call right after an operation ends. Ticks if the last tick is stale,
    /// so the two latest ticks bracket (or closely precede) the operation;
    /// returns σ for it and the normalised clock, which advanced by the wall
    /// time since the previous stamp ÷ σ (ticks themselves excluded).
    pub fn stamp(&mut self) -> (f64, u64) {
        let now = Instant::now();
        if now.duration_since(self.last_tick) >= TICK_EVERY {
            self.tick();
        }
        let sigma = 0.5 * (self.latest[0] + self.latest[1]) / REFERENCE_TICK_NS;
        self.clock_ns += now.duration_since(self.last_stamp).as_nanos() as f64 / sigma;
        self.last_stamp = Instant::now();
        (sigma, self.clock_ns as u64)
    }

    /// σ only, for samples that need no clock.
    pub fn factor(&mut self) -> f64 {
        self.stamp().0
    }
}

/// `(best tick µs, median σ)` of a run's ticks: the host context printed
/// with every traced run. The best tick is the 2nd percentile (a handful of
/// ticks always land between two interrupts and read low).
pub fn summary(ticks: &[f64]) -> Option<(f64, f64)> {
    if ticks.is_empty() {
        return None;
    }
    let s = crate::stats::sorted(ticks);
    let best = crate::stats::quantile_sorted(&s, 0.02);
    let median = crate::stats::quantile_sorted(&s, 0.5);
    Some((best * 1e-3, median / REFERENCE_TICK_NS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_in_normalised_time_and_skips_ticks() {
        let mut s = Speed::new();
        s.restart();
        let t0 = Instant::now();
        let mut last = 0;
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(2));
            let (sigma, at) = s.stamp();
            // an unoptimised build ticks ~50× slower
            assert!(sigma > 0.2 && sigma < 500.0, "sigma {sigma}");
            assert!(at > last);
            last = at;
        }
        let wall = t0.elapsed().as_nanos() as f64;
        // 40 ms of sleeping: ticks happened (every ≥ 10 ms) and the clock is
        // the slept wall time scaled by some plausible σ
        assert!(s.ticks.len() >= 2, "{} ticks", s.ticks.len());
        assert_eq!(s.take_tick_spans().len(), s.ticks.len());
        assert!((last as f64) < wall * 5.0 && (last as f64) > wall / 500.0);
        let (best_us, median_sigma) = summary(&s.ticks).unwrap();
        assert!(best_us > 1.0 && median_sigma > 0.2);
        assert_eq!(summary(&[]), None);
    }
}
