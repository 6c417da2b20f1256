//! `gmg-benchmark check A.json B.json`: is B the same as, worse or better
//! than A, per end-to-end metric and workload, judged with the bounds of
//! the catalog and the spread each file recorded.

use crate::catalog::{end_to_end, Better};
use crate::output::{FileRow, ResultFile};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread is wider than the difference to be judged:
    /// neither "same" nor a change can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Width of the row's 50 % confidence band as a share of its value.
fn spread(r: &FileRow) -> f64 {
    if r.value == 0.0 {
        0.0
    } else {
        (r.hi - r.lo).abs() / r.value.abs()
    }
}

/// `worse_by`: how much worse B's value is than A's, as a share of A's
/// (negative when B is better).
pub fn verdict(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    let beyond_noise = worse_by.abs() > spread;
    if worse_by > bound && beyond_noise {
        Verdict::Worse
    } else if worse_by < -bound && beyond_noise {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

pub struct Line {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Why two files must not be compared (unless forced).
pub fn refusal(a: &ResultFile, b: &ResultFile) -> Option<String> {
    if a.host_key != b.host_key {
        return Some(format!(
            "different hosts: [{}] vs [{}]",
            a.host_key, b.host_key
        ));
    }
    if a.seed != b.seed {
        return Some(format!("different seeds: {} vs {}", a.seed, b.seed));
    }
    if a.traced || b.traced {
        return Some("a traced run carries no end-to-end metrics".to_string());
    }
    None
}

pub fn compare(a: &ResultFile, b: &ResultFile) -> Vec<Line> {
    let mut lines = Vec::new();
    for ra in &a.end_to_end {
        let Some(rb) = b
            .end_to_end
            .iter()
            .find(|r| r.workload == ra.workload && r.metric == ra.metric)
        else {
            continue;
        };
        let Some(m) = end_to_end(&ra.metric) else {
            continue;
        };
        let delta = (rb.value - ra.value) / ra.value.abs();
        let worse_by = match m.better {
            Better::Lower => delta,
            Better::Higher => -delta,
        };
        let spread = spread(ra).max(spread(rb));
        lines.push(Line {
            workload: ra.workload.clone(),
            metric: ra.metric.clone(),
            a: ra.value,
            b: rb.value,
            worse_by,
            spread,
            bound: m.bound,
            verdict: verdict(worse_by, spread, m.bound),
        });
    }
    lines
}

pub fn render(lines: &[Line]) -> String {
    let mut s = format!(
        "{:<18} {:<26} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    for l in lines {
        s.push_str(&format!(
            "{:<18} {:<26} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>6.1}%  {}\n",
            l.workload,
            l.metric,
            l.a,
            l.b,
            l.worse_by * 100.0,
            l.spread * 100.0,
            l.bound * 100.0,
            l.verdict.label()
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        // within the bound, quiet runs
        assert_eq!(verdict(0.01, 0.005, 0.04), Verdict::Same);
        assert_eq!(verdict(-0.03, 0.005, 0.04), Verdict::Same);
        // beyond the bound and beyond the noise
        assert_eq!(verdict(0.08, 0.01, 0.04), Verdict::Worse);
        assert_eq!(verdict(-0.08, 0.01, 0.04), Verdict::Better);
        // a spread wider than the bound never reads "same"
        assert_eq!(verdict(0.01, 0.06, 0.04), Verdict::Unresolved);
        assert_eq!(verdict(0.05, 0.06, 0.04), Verdict::Unresolved);
        // … but a change larger than the spread is still a change
        assert_eq!(verdict(0.30, 0.06, 0.04), Verdict::Worse);
        // exact metrics: any difference counts
        assert_eq!(verdict(0.0, 0.0, 0.001), Verdict::Same);
        assert_eq!(verdict(0.05, 0.0, 0.001), Verdict::Worse);
    }

    fn file(seed: u64, host: &str, value: f64) -> ResultFile {
        ResultFile {
            quick: false,
            traced: false,
            seed,
            host_key: host.to_string(),
            end_to_end: vec![
                FileRow {
                    workload: "serve_mixed".into(),
                    metric: "grids_per_s".into(),
                    value,
                    lo: value * 0.99,
                    hi: value * 1.01,
                },
                FileRow {
                    workload: "serve_mixed".into(),
                    metric: "latency_p50_ms".into(),
                    value: 1.0,
                    lo: 1.0,
                    hi: 1.0,
                },
            ],
            attempted: 1,
            failed: vec![("serve_mixed".into(), 0)],
        }
    }

    #[test]
    fn higher_is_better_is_respected_and_mismatched_files_are_refused() {
        let (a, b) = (file(11, "h", 1000.0), file(11, "h", 700.0));
        let lines = compare(&a, &b);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].verdict, Verdict::Worse);
        assert!((lines[0].worse_by - 0.3).abs() < 1e-12);
        assert_eq!(lines[1].verdict, Verdict::Same);
        assert_eq!(compare(&b, &a)[0].verdict, Verdict::Better);
        assert!(refusal(&a, &b).is_none());
        assert!(refusal(&a, &file(12, "h", 1000.0))
            .unwrap()
            .contains("seeds"));
        assert!(refusal(&a, &file(11, "other", 1000.0))
            .unwrap()
            .contains("hosts"));
        assert!(render(&lines).contains("worse"));
    }
}
