//! The benchmark's own span recorder: one span around every public call
//! into a layer, kept in memory and written as Chrome trace-event JSON when
//! the run ends. Recording is off in the untraced run (the calls are still
//! timed by their callers; nothing is stored).

use std::time::Instant;

pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// 1-based; 0 means "no span".
    pub id: SpanId,
    /// The span that caused this one (0 for a root).
    pub parent: SpanId,
    /// Spans of one operation (cycle, solve, plan, frame) share this.
    pub request_id: u64,
    pub name: &'static str,
    /// One track per thread of the benchmark.
    pub track: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread recorder. All times are nanoseconds since `epoch`, which
/// every recorder of a run shares.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    track: u32,
    pub spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, track: u32) -> Recorder {
        Recorder {
            enabled,
            epoch,
            track,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Recorder {
        Recorder::new(false, Instant::now(), 0)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, request_id: u64, start_ns: u64, end_ns: u64) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            request_id,
            name,
            track: self.track,
            start_ns,
            end_ns,
        });
        id
    }

    /// Open a span that encloses everything recorded until `close`.
    pub fn open(&mut self, name: &'static str, request_id: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.ns(Instant::now());
        let id = self.push(name, request_id, now, now);
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans must close in LIFO order");
        self.spans[id as usize - 1].end_ns = self.ns(Instant::now());
    }

    /// Record a finished call timed by the caller, as a child of the
    /// innermost open span.
    pub fn leaf(&mut self, name: &'static str, request_id: u64, start: Instant, end: Instant) {
        if self.enabled {
            let (s, e) = (self.ns(start), self.ns(end));
            self.push(name, request_id, s, e);
        }
    }

    /// The speed ticks of a section, as `bench.tick` leaves.
    pub fn ticks(&mut self, spans: Vec<(Instant, Instant)>) {
        for (start, end) in spans {
            self.leaf("bench.tick", 0, start, end);
        }
    }

    /// Like `leaf`, and keep it open as the parent of `inner`: a duration
    /// the callee published (`RunStats::elapsed`, a reply's service time)
    /// recorded as a child that starts with its parent.
    pub fn leaf_with_inner(
        &mut self,
        name: &'static str,
        inner: &'static str,
        request_id: u64,
        start: Instant,
        end: Instant,
        inner_ns: u64,
    ) {
        if self.enabled {
            let (s, e) = (self.ns(start), self.ns(end));
            let id = self.push(name, request_id, s, e);
            self.open.push(id);
            self.push(inner, request_id, s, (s + inner_ns).min(e));
            self.open.pop();
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are not counted twice).
/// Returned in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                children[s.parent as usize - 1].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Outcome of reconciling the spans under one `section` span with its wall
/// time.
#[derive(Clone, Debug, PartialEq)]
pub struct Reconciled {
    pub wall_ns: u64,
    /// Sum of the self times of the section's descendants.
    pub accounted_ns: u64,
}

impl Reconciled {
    /// Share of the section's wall no span accounts for.
    pub fn gap_share(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.wall_ns as f64 - self.accounted_ns as f64).abs() / self.wall_ns as f64
    }
}

/// For every span named `section`: do the self times of the spans below it
/// add up to its wall time? (They do by construction when every moment of
/// the section lies inside some child; the gap is time the benchmark spent
/// outside any recorded call.)
pub fn reconcile(spans: &[Span], section: &str) -> Vec<Reconciled> {
    let selfs = self_times(spans);
    // root section of every span (0 = none), found by walking parents;
    // parents always precede children in `spans`
    let mut under: Vec<SpanId> = vec![0; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        under[i] = if s.name == section {
            s.id
        } else if s.parent != 0 {
            under[s.parent as usize - 1]
        } else {
            0
        };
    }
    spans
        .iter()
        .filter(|s| s.name == section)
        .map(|sec| Reconciled {
            wall_ns: sec.duration(),
            accounted_ns: spans
                .iter()
                .enumerate()
                .filter(|(i, s)| under[*i] == sec.id && s.id != sec.id)
                .map(|(i, _)| selfs[i])
                .sum(),
        })
        .collect()
}

/// Merge per-thread recorders into one span list with unique ids.
pub fn merge(recorders: Vec<Recorder>) -> Vec<Span> {
    let mut all = Vec::new();
    for r in recorders {
        let base = all.len() as SpanId;
        all.extend(r.spans.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete events,
/// microsecond timestamps, one `tid` per track.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
             \"args\": {{\"id\": {}, \"parent\": {}, \"request_id\": {}, \"start_ns\": {}, \"end_ns\": {}}}}}{}\n",
            s.name,
            s.track,
            s.start_ns as f64 / 1e3,
            s.duration() as f64 / 1e3,
            s.id,
            s.parent,
            s.request_id,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request_id: 0,
            name,
            track: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        // timed [0,100]
        //   cycle [10,50]
        //     run [10,40]
        //     copy [35,48]   (overlaps run by 5)
        //   cycle [60,90]
        let spans = vec![
            span(1, 0, "timed", 0, 100),
            span(2, 1, "cycle", 10, 50),
            span(3, 2, "run", 10, 40),
            span(4, 2, "copy", 35, 48),
            span(5, 1, "cycle", 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 2, 30, 13, 30]);
        let r = reconcile(&spans, "timed");
        assert_eq!(
            r,
            vec![Reconciled {
                wall_ns: 100,
                accounted_ns: 75
            }]
        );
        assert!((r[0].gap_share() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn child_reaching_outside_its_parent_is_clipped() {
        let spans = vec![span(1, 0, "a", 10, 20), span(2, 1, "b", 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let epoch = Instant::now();
        let mut a = Recorder::new(true, epoch, 0);
        let sec = a.open("timed", 0);
        let t0 = Instant::now();
        a.leaf_with_inner("cycle", "run", 7, t0, Instant::now(), 1);
        a.close(sec);
        let mut b = Recorder::new(true, epoch, 1);
        b.leaf("frame", 1, t0, Instant::now());
        let all = merge(vec![a, b]);
        assert_eq!(all.len(), 4);
        assert_eq!(all[1].parent, 1);
        assert_eq!(all[2].parent, 2);
        assert_eq!((all[3].id, all[3].parent, all[3].track), (4, 0, 1));
        let json = chrome_trace(&all);
        assert!(polymg::jsonio::parse(&json).is_ok());
        // a disabled recorder stores nothing
        let mut off = Recorder::off();
        let id = off.open("x", 0);
        off.leaf("y", 0, t0, Instant::now());
        off.close(id);
        assert!(off.spans.is_empty());
    }
}
