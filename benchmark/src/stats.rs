//! Order statistics for timing samples, and the result row built from them.

/// Linear-interpolated quantile of an ascending-sorted slice (the
/// "inclusive" method: q = 0 is the minimum, q = 1 the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// Nearest-rank percentile (`pct` in 0..=100) of an ascending-sorted slice:
/// the smallest sample with at least `pct` percent of the samples at or
/// below it.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct` percentile among `n` samples. The
/// epsilon keeps `99.9 % of 10 000` at rank 9990 although the product is
/// 9990.000000000002 in binary floating point.
fn rank(n: usize, pct: f64) -> usize {
    let r = (pct * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `pct` percentile.
fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` when even p50 does not (n < 21).
pub fn tail_percentile(n: usize) -> Option<f64> {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    LADDER.into_iter().find(|&p| n > 0 && beyond(n, p) >= 10)
}

/// One reported number with the context a reader needs to judge it.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub value: f64,
    /// Raw samples behind `value` (0 for computed and counted values).
    pub samples: usize,
    /// Quartiles of the raw samples (of the per-chunk rates, for a rate).
    pub q1: f64,
    pub q3: f64,
    /// 50 % confidence band of `value` itself: where the number would land
    /// in half of all repetitions of this run, as far as one run can tell.
    /// `check` compares its width with the bound.
    pub lo: f64,
    pub hi: f64,
    /// `(percentile, value)`: the highest percentile with ≥ 10 samples
    /// beyond it.
    pub tail: Option<(f64, f64)>,
}

/// 50 % confidence band of the median of `n` sorted independent samples,
/// from the order statistics: ranks `(n−1)/2 ± 0.6745·√n/2`.
fn median_band(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let half = 0.6745 * n.sqrt() / 2.0 / (n - 1.0).max(1.0);
    (
        quantile_sorted(sorted, 0.5 - half),
        quantile_sorted(sorted, 0.5 + half),
    )
}

/// Band of a statistic of the whole run from its values on `k` consecutive
/// chunks: half their inter-quartile range, shrunk by √k (the whole run
/// holds k times a chunk's samples).
fn chunk_band(value: f64, per_chunk_sorted: &[f64]) -> (f64, f64) {
    let iqr = quantile_sorted(per_chunk_sorted, 0.75) - quantile_sorted(per_chunk_sorted, 0.25);
    let half = 0.5 * iqr / (per_chunk_sorted.len() as f64).sqrt();
    (value - half, value + half)
}

impl Row {
    /// A value that is computed or counted exactly: no spread.
    pub fn exact(value: f64) -> Row {
        Row {
            value,
            samples: 0,
            q1: value,
            q3: value,
            lo: value,
            hi: value,
            tail: None,
        }
    }

    /// A value derived from medians that rest on `samples` raw samples.
    pub fn derived(value: f64, samples: usize) -> Row {
        Row {
            samples,
            ..Row::exact(value)
        }
    }

    /// Median of independent samples (set-ups, probe repetitions).
    pub fn of_samples(xs: &[f64]) -> Row {
        let s = sorted(xs);
        let (lo, hi) = median_band(&s);
        Row {
            value: quantile_sorted(&s, 0.5),
            samples: s.len(),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
            lo,
            hi,
            tail: tail_percentile(s.len()).map(|p| (p, percentile_sorted(&s, p))),
        }
    }

    /// `f` applied to every number of the row; `f` must be monotone (a
    /// decreasing `f`, like x ↦ 1/x, swaps the ends of each interval).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Row {
        let pair = |a: f64, b: f64| {
            let (a, b) = (f(a), f(b));
            (a.min(b), a.max(b))
        };
        let (q1, q3) = pair(self.q1, self.q3);
        let (lo, hi) = pair(self.lo, self.hi);
        Row {
            value: f(self.value),
            samples: self.samples,
            q1,
            q3,
            lo,
            hi,
            tail: self.tail.map(|(p, v)| (p, f(v))),
        }
    }

    pub fn scaled(&self, k: f64) -> Row {
        self.map(|x| x * k)
    }
}

/// Timed samples of one section: `at_ns[i]` is when sample `i` completed on
/// the section's (normalised) clock. Statistics are taken over all samples;
/// their band comes from up to ten consecutive chunks of equal sample count,
/// so drift inside a run widens it.
#[derive(Clone, Copy)]
pub struct Windowed<'a> {
    pub at_ns: &'a [u64],
    pub values: &'a [f64],
}

impl Windowed<'_> {
    /// Sample indices in completion order, cut into chunks of ≥ 5 samples.
    fn chunks(&self) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..self.values.len()).collect();
        order.sort_by_key(|&i| self.at_ns[i]);
        let nchunks = (order.len() / 5).clamp(1, 10);
        (0..nchunks)
            .map(|c| order[c * order.len() / nchunks..(c + 1) * order.len() / nchunks].to_vec())
            .collect()
    }

    /// `stat` over all samples; band from `stat` per chunk (with fewer than
    /// four chunks: the median's own order-statistic band).
    pub fn row(&self, stat: impl Fn(&[f64]) -> f64) -> Row {
        let all = sorted(self.values);
        let per_chunk: Vec<f64> = self
            .chunks()
            .iter()
            .map(|c| {
                stat(&sorted(
                    &c.iter().map(|&i| self.values[i]).collect::<Vec<_>>(),
                ))
            })
            .collect();
        let value = stat(&all);
        let (lo, hi) = if per_chunk.len() >= 4 {
            chunk_band(value, &sorted(&per_chunk))
        } else {
            median_band(&all)
        };
        Row {
            value,
            samples: all.len(),
            q1: quantile_sorted(&all, 0.25),
            q3: quantile_sorted(&all, 0.75),
            lo,
            hi,
            tail: tail_percentile(all.len()).map(|p| (p, percentile_sorted(&all, p))),
        }
    }

    pub fn median_row(&self) -> Row {
        self.row(|s| quantile_sorted(s, 0.5))
    }

    pub fn percentile_row(&self, pct: f64) -> Row {
        self.row(|s| percentile_sorted(s, pct))
    }

    /// Σ values per second, per chunk (a chunk lasts from the completion of
    /// the previous chunk's last sample to that of its own); the value is
    /// the median over chunks, so one stalled stretch does not move it.
    pub fn rate_row(&self) -> Row {
        let mut prev_end = 0u64;
        let rates: Vec<f64> = self
            .chunks()
            .iter()
            .map(|c| {
                let end = self.at_ns[*c.last().expect("chunks are non-empty")];
                let sum: f64 = c.iter().map(|&i| self.values[i]).sum();
                let secs = (end - prev_end).max(1) as f64 * 1e-9;
                prev_end = end;
                sum / secs
            })
            .collect();
        let r = sorted(&rates);
        let value = quantile_sorted(&r, 0.5);
        let (lo, hi) = chunk_band(value, &r);
        Row {
            value,
            samples: self.values.len(),
            q1: quantile_sorted(&r, 0.25),
            q3: quantile_sorted(&r, 0.75),
            lo,
            hi,
            tail: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond; 999 leaves 9
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // p95: rank = ceil(0.95 n); n = 200 leaves 10, n = 199 leaves 9
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 1..2000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= 10, "n = {n}, p = {p}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 95.0), 95.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn median_band_narrows_with_more_samples() {
        let few = Row::of_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((few.value, few.q1, few.q3), (3.0, 2.0, 4.0));
        // ranks 2 ± 0.754: narrower than the quartiles, wider than nothing
        assert!(few.lo > 2.0 && few.lo < 3.0 && few.hi > 3.0 && few.hi < 4.0);
        let many: Vec<f64> = (1..=500).map(|x| x as f64).collect();
        let many = Row::of_samples(&many);
        assert!((many.hi - many.lo) / many.value < 0.08);
        assert!((many.q3 - many.q1) / many.value > 0.9);
        let inv = few.map(|x| 1.0 / x);
        assert!(inv.lo < inv.value && inv.value < inv.hi && inv.q1 == 0.25 && inv.q3 == 0.5);
    }

    #[test]
    fn quartiles_match_python_inclusive() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&s, 0.25), 2.0);
        assert_eq!(quantile_sorted(&s, 0.75), 4.0);
    }

    #[test]
    fn chunks_expose_drift() {
        // first half fast, second half slow: the median sits between, the
        // chunk quartiles straddle it
        let n = 100usize;
        let mut t = 0u64;
        let vals: Vec<f64> = (0..n).map(|i| if i < 50 { 1.0 } else { 2.0 }).collect();
        let at: Vec<u64> = vals
            .iter()
            .map(|v| {
                t += *v as u64 * 10;
                t
            })
            .collect();
        let w = Windowed {
            at_ns: &at,
            values: &vals,
        };
        let row = w.median_row();
        assert_eq!(row.samples, 100);
        assert_eq!((row.q1, row.q3), (1.0, 2.0));
        // chunk medians are five 1s and five 2s: IQR 1, ten chunks
        let half = 0.5 / 10f64.sqrt();
        assert!(
            (row.lo - (row.value - half)).abs() < 1e-12
                && (row.hi - (row.value + half)).abs() < 1e-12
        );
        // ten chunks of ten samples: 10 per 100 ns, then 20 per 200 ns … of
        // value; as a rate of Σ values both halves run at 1e8 per second
        let ones = vec![1.0; n];
        let rate = Windowed {
            at_ns: &at,
            values: &ones,
        }
        .rate_row();
        assert!((rate.q1 - 10.0 / 200e-9).abs() < 1.0 && (rate.q3 - 10.0 / 100e-9).abs() < 1.0);
    }
}
