//! Result files (`gmg-benchmark/v1`), the metric table printed for people,
//! and the one-line result the benchmark contract asks for.

use crate::catalog::{self, END_TO_END};
use crate::host::Fingerprint;
use crate::result::{RunCtx, WorkloadResult};
use crate::stats::Row;
use polymg::jsonio::{escape, JsonValue};

pub const SCHEMA: &str = "gmg-benchmark/v1";

/// A number as JSON, with all its digits. Non-finite values (a ratio whose
/// base was not measured) have no JSON form and are written as null.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn row_json(row: &Row, unit: &str, extra: &str) -> String {
    let tail = match row.tail {
        Some((p, v)) => format!(
            ", \"tail\": {{\"percentile\": {}, \"value\": {}}}",
            num(p),
            num(v)
        ),
        None => String::new(),
    };
    format!(
        "{{\"value\": {}, \"unit\": \"{unit}\", \"samples\": {}, \"q1\": {}, \"q3\": {}, \
         \"lo\": {}, \"hi\": {}{tail}{extra}}}",
        num(row.value),
        row.samples,
        num(row.q1),
        num(row.q3),
        num(row.lo),
        num(row.hi),
    )
}

pub fn workload_json(r: &WorkloadResult) -> String {
    let mut s = format!(
        "    {{\"name\": \"{}\", \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \"correct\": {},\n",
        r.name,
        r.attempted,
        r.failed,
        num(r.failed_share()),
        r.correct()
    );
    s.push_str("      \"reconciled\": [");
    let rec: Vec<String> = r
        .reconciled
        .iter()
        .map(|x| {
            format!(
                "{{\"wall_ns\": {}, \"accounted_ns\": {}, \"gap_share\": {}}}",
                x.wall_ns,
                x.accounted_ns,
                num(x.gap_share())
            )
        })
        .collect();
    s.push_str(&rec.join(", "));
    s.push_str("],\n      \"end_to_end\": {");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .filter_map(|m| r.end_to_end.get(m.name).map(|row| (m, row)))
        .map(|(m, row)| format!("\n        \"{}\": {}", m.name, row_json(row, m.unit, "")))
        .collect();
    s.push_str(&e2e.join(","));
    s.push_str("},\n      \"per_layer\": {");
    let layers: Vec<String> = catalog::per_layer()
        .iter()
        .filter_map(|m| r.per_layer.get(&m.name).map(|v| (m, v)))
        .map(|(m, (row, origin))| {
            let extra = format!(
                ", \"layer\": \"{}\", \"src\": \"{}\", \"measured_on\": \"{}\"",
                m.layer,
                m.src.label(),
                origin.label()
            );
            format!(
                "\n        \"{}\": {}",
                m.name,
                row_json(row, m.unit, &extra)
            )
        })
        .collect();
    s.push_str(&layers.join(","));
    s.push_str("}}");
    s
}

const WORKLOADS_OPEN: &str = "  \"workloads\": [\n";
const WORKLOADS_CLOSE: &str = "\n  ]\n}\n";

/// A result file around workload objects as `workload_json` writes them.
pub fn result_file(ctx: &RunCtx, fp: &Fingerprint, workloads: &[String]) -> String {
    let mut s = format!("{{\n  \"schema\": \"{SCHEMA}\",\n");
    s.push_str(&format!(
        "  \"quick\": {}, \"traced\": {}, \"seed\": {}, \"seconds\": {},\n",
        ctx.quick,
        ctx.traced,
        ctx.seed,
        num(ctx.seconds)
    ));
    s.push_str(&format!(
        "  \"host\": {{\"cores\": {}, \"isa\": {}, \"l2_bytes\": {}, \"llc_bytes\": {}, \
         \"ram_bytes\": {}, \"git_rev\": {}, \"rustc\": {}}},\n",
        fp.cores,
        escape(&fp.isa),
        fp.l2_bytes,
        fp.llc_bytes,
        fp.ram_bytes,
        escape(&fp.git_rev),
        escape(&fp.rustc)
    ));
    s.push_str(WORKLOADS_OPEN);
    s.push_str(&workloads.join(",\n"));
    s.push_str(WORKLOADS_CLOSE);
    s
}

/// The workload objects of a result file written by `result_file`, as text
/// (to merge the files of one-workload runs into one).
pub fn workloads_text(file: &str) -> Option<&str> {
    let start = file.find(WORKLOADS_OPEN)? + WORKLOADS_OPEN.len();
    file[start..].strip_suffix(WORKLOADS_CLOSE)
}

/// Every metric by name with its unit, for people.
pub fn table(r: &WorkloadResult) -> String {
    let mut s = format!(
        "== {} — attempted {}, failed {}, failed_share {}\n",
        r.name,
        r.attempted,
        r.failed,
        r.failed_share()
    );
    let line = |name: &str, row: &Row, unit: &str, note: &str| {
        let tail = row
            .tail
            .map(|(p, v)| format!("  p{p} {v:.6}"))
            .unwrap_or_default();
        format!(
            "  {name:<44} {:>16.6} {unit:<6} n={:<6} band {:.6}..{:.6}  q1 {:.6} q3 {:.6}{tail}{note}\n",
            row.value, row.samples, row.lo, row.hi, row.q1, row.q3
        )
    };
    for m in &END_TO_END {
        if let Some(row) = r.end_to_end.get(m.name) {
            s.push_str(&line(m.name, row, m.unit, ""));
        }
    }
    for m in catalog::per_layer() {
        if let Some((row, origin)) = r.per_layer.get(&m.name) {
            let note = format!("  [{} / {}]", m.src.label(), origin.label());
            s.push_str(&line(&m.name, row, m.unit, &note));
        }
    }
    for x in &r.reconciled {
        s.push_str(&format!(
            "  timed section: wall {} ns, spans account for {} ns (gap {:.3} %)\n",
            x.wall_ns,
            x.accounted_ns,
            x.gap_share() * 100.0
        ));
    }
    s
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`; the metrics are every end-to-end metric of an
/// untraced run, every per-layer metric of a traced one.
pub fn contract_line(r: &WorkloadResult, traced: bool) -> Result<String, String> {
    let entry = |name: &str, unit: &str, row: Option<&Row>, kind: &str| {
        let row =
            row.ok_or_else(|| format!("{}: {kind} metric {name} was not measured", r.name))?;
        Ok(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(row.value)
        ))
    };
    let metrics: Vec<String> = if traced {
        catalog::per_layer()
            .iter()
            .map(|m| {
                let row = r.per_layer.get(&m.name).map(|(row, _)| row);
                entry(&m.name, m.unit, row, "per-layer")
            })
            .collect::<Result<_, String>>()?
    } else {
        END_TO_END
            .iter()
            .map(|m| entry(m.name, m.unit, r.end_to_end.get(m.name), "end-to-end"))
            .collect::<Result<_, String>>()?
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    ))
}

/// One (workload, metric) row read back from a result file.
#[derive(Clone, Debug, PartialEq)]
pub struct FileRow {
    pub workload: String,
    pub metric: String,
    pub value: f64,
    /// 50 % confidence band of `value`.
    pub lo: f64,
    pub hi: f64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct ResultFile {
    pub quick: bool,
    pub traced: bool,
    pub seed: u64,
    /// `cores`, `isa`, cache sizes: what must match for two files to be
    /// comparable. The measured bandwidth and the revision are not part.
    pub host_key: String,
    pub end_to_end: Vec<FileRow>,
    /// Σ over the workloads of the outputs checked.
    pub attempted: u64,
    pub failed: Vec<(String, u64)>,
}

pub fn parse_result_file(text: &str) -> Result<ResultFile, String> {
    let v = polymg::jsonio::parse(text)?;
    let field =
        |obj: &JsonValue, key: &str| obj.get(key).cloned().ok_or(format!("missing \"{key}\""));
    if field(&v, "schema")?.as_str() != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} file"));
    }
    let host = field(&v, "host")?;
    let host_key = format!(
        "{} cores, {}, L2 {} B, LLC {} B",
        field(&host, "cores")?.as_u64().ok_or("host.cores")?,
        field(&host, "isa")?.as_str().ok_or("host.isa")?,
        field(&host, "l2_bytes")?.as_u64().ok_or("host.l2_bytes")?,
        field(&host, "llc_bytes")?
            .as_u64()
            .ok_or("host.llc_bytes")?,
    );
    let mut out = ResultFile {
        quick: field(&v, "quick")?.as_bool().ok_or("quick")?,
        traced: field(&v, "traced")?.as_bool().ok_or("traced")?,
        seed: field(&v, "seed")?.as_u64().ok_or("seed")?,
        host_key,
        end_to_end: Vec::new(),
        attempted: 0,
        failed: Vec::new(),
    };
    for w in field(&v, "workloads")?.as_arr().ok_or("workloads")? {
        let name = field(w, "name")?
            .as_str()
            .ok_or("workload name")?
            .to_string();
        out.attempted += field(w, "attempted")?.as_u64().ok_or("attempted")?;
        out.failed
            .push((name.clone(), field(w, "failed")?.as_u64().ok_or("failed")?));
        if let JsonValue::Obj(pairs) = field(w, "end_to_end")? {
            for (metric, row) in pairs {
                let f = |k: &str| {
                    field(&row, k)?
                        .as_f64()
                        .ok_or(format!("{name}.{metric}.{k}"))
                };
                out.end_to_end.push(FileRow {
                    workload: name.clone(),
                    metric: metric.clone(),
                    value: f("value")?,
                    lo: f("lo")?,
                    hi: f("hi")?,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Origin;

    fn sample() -> (RunCtx, Fingerprint, WorkloadResult) {
        let ctx = RunCtx {
            seed: 11,
            seconds: 12.0,
            traced: false,
            quick: false,
            corrupt: false,
        };
        let fp = Fingerprint {
            cores: 2,
            isa: "x86_64+avx2".into(),
            l2_bytes: 1,
            llc_bytes: 2,
            ram_bytes: 3,
            git_rev: "abc".into(),
            rustc: "rustc 1".into(),
        };
        let mut r = WorkloadResult {
            name: "vcycle2d".into(),
            attempted: 3,
            ..Default::default()
        };
        for m in &END_TO_END {
            r.end_to_end
                .insert(m.name.into(), Row::of_samples(&[1.0, 2.0, 4.0]));
        }
        (ctx, fp, r)
    }

    #[test]
    fn result_file_round_trips() {
        let (ctx, fp, r) = sample();
        let one = result_file(&ctx, &fp, &[workload_json(&r)]);
        // two one-workload files merge into a file with both
        let part = workloads_text(&one).unwrap().to_string();
        let text = result_file(&ctx, &fp, &[part.clone(), part]);
        let back = parse_result_file(&text).unwrap();
        assert_eq!((back.failed.len(), back.attempted), (2, 6));
        let back = parse_result_file(&one).unwrap();
        assert_eq!((back.quick, back.traced, back.seed), (false, false, 11));
        assert_eq!(back.end_to_end.len(), END_TO_END.len());
        assert_eq!(back.end_to_end[0].workload, "vcycle2d");
        assert_eq!(back.end_to_end[0].value, 2.0);
        assert!(back.end_to_end[0].lo > 1.0 && back.end_to_end[0].hi < 4.0);
        assert!(back.host_key.contains("2 cores"));
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let (_, _, mut r) = sample();
        let line = contract_line(&r, false).unwrap();
        let v = polymg::jsonio::parse(&line).unwrap();
        let JsonValue::Obj(pairs) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let JsonValue::Obj(metrics) = v.get("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        // a traced line needs every per-layer metric
        assert!(contract_line(&r, true).is_err());
        for m in catalog::per_layer() {
            r.per_layer.insert(m.name, (Row::exact(1.0), Origin::Probe));
        }
        let line = contract_line(&r, true).unwrap();
        let v = polymg::jsonio::parse(&line).unwrap();
        let JsonValue::Obj(metrics) = v.get("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(metrics.len(), catalog::per_layer().len());
    }
}
