//! Hand-rolled JSON rendering for [`Report`] (no serde in the offline
//! build). Output is deliberately flat and stable so downstream scripts can
//! diff two profiles textually.

use crate::{dispatch, Report};

fn esc(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn f64_json(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `"key": value` members of one JSON object, comma-separated.
fn members(fields: &[(&str, u64)]) -> String {
    fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

pub(crate) fn report_to_json(r: &Report) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\n  \"meta\": {");
    for (i, (k, v)) in r.meta.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    ");
        esc(&mut s, k);
        s.push_str(": ");
        esc(&mut s, v);
    }
    if !r.meta.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("},\n  \"stages\": [");
    for (i, st) in r.stages.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"name\": ");
        esc(&mut s, &st.name);
        s.push_str(", \"kind\": ");
        esc(&mut s, &st.kind);
        s.push_str(&format!(
            ", \"seconds\": {}, \"invocations\": {}, \"tiles\": {}, \"cells\": {}}}",
            f64_json(st.ns as f64 * 1e-9),
            st.invocations,
            st.tiles,
            st.cells
        ));
    }
    if !r.stages.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"ops\": [");
    for (i, op) in r.ops.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n    {{\"index\": {}, \"mnemonic\": ", op.index));
        esc(&mut s, &op.mnemonic);
        s.push_str(&format!(
            ", \"seconds\": {}, \"invocations\": {}}}",
            f64_json(op.ns as f64 * 1e-9),
            op.invocations
        ));
    }
    if !r.ops.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str(&format!(
        "],\n  \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}},\n",
        r.plan_cache.hits, r.plan_cache.misses, r.plan_cache.evictions
    ));
    if !r.server.is_empty() {
        let hist = r
            .server
            .batch_hist
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let scenario: Vec<(&str, u64)> = crate::SCENARIO_LABELS
            .into_iter()
            .zip(r.server.scenario_solves)
            .collect();
        let fields = r.server.fields();
        let (mixed, counters) = fields.split_last().expect("server fields");
        s.push_str(&format!(
            "  \"server\": {{{}, \"batch_hist\": [{hist}], \"scenario\": {{{}}}, {}}},\n",
            members(counters),
            members(&scenario),
            members(&[*mixed])
        ));
    }
    if !r.shards.is_empty() {
        let shards: Vec<String> = r
            .shards
            .iter()
            .map(|sh| format!("{{{}}}", members(&sh.fields())))
            .collect();
        s.push_str(&format!("  \"shards\": [{}],\n", shards.join(", ")));
    }
    if !r.tuner.is_empty() {
        s.push_str(&format!(
            "  \"tuner\": {{{}}},\n",
            members(&r.tuner.fields())
        ));
    }
    s.push_str("  \"dispatch\": {");
    for (i, (label, count)) in dispatch::LABELS.iter().zip(r.dispatch.iter()).enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{label}\": {count}"));
    }
    s.push_str("},\n  \"kernel_impls\": {");
    for (i, (label, count)) in dispatch::IMPL_LABELS
        .iter()
        .zip(r.kernel_impls.iter())
        .enumerate()
    {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{label}\": {count}"));
    }
    s.push_str("},\n  \"kernel_tiers\": {");
    for (i, (label, count)) in dispatch::TIER_LABELS
        .iter()
        .zip(r.kernel_tiers.iter())
        .enumerate()
    {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{label}\": {count}"));
    }
    s.push_str(&format!(
        "}},\n  \"threads\": {{\"workers\": {}, \"regions\": {}, \"items\": {}, \"steals\": {}, \"parks\": {}}},\n",
        r.threads.workers, r.threads.regions, r.threads.items, r.threads.steals, r.threads.parks
    ));
    s.push_str(&format!(
        "  \"pool\": {{\"hits\": {}, \"misses\": {}, \"allocated_bytes\": {}, \"peak_live_bytes\": {}}},\n",
        r.pool.hits, r.pool.misses, r.pool.allocated_bytes, r.pool.peak_live_bytes
    ));
    s.push_str(&format!(
        "  \"arena\": {{\"created\": {}, \"recycled\": {}, \"workers\": [",
        r.arena_created, r.arena_recycled
    ));
    for (i, (created, recycled)) in r.arena_workers.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"created\": {created}, \"recycled\": {recycled}}}"
        ));
    }
    s.push_str("]},\n");
    let tp = &r.tile_plan;
    s.push_str(&format!(
        "  \"tile_plan\": {{\"builds\": {}, \"tiles\": {}, \"stage_tiles\": {}, \"plan_bytes\": {}, \"scratch_bytes\": {}}},\n",
        tp.builds, tp.tiles, tp.stage_tiles, tp.plan_bytes, tp.scratch_bytes
    ));
    s.push_str(&format!(
        "  \"chaos\": {{\"armed\": {}, \"fired\": {}, \"recovered\": {}, \"sites\": [",
        r.chaos.total_armed(),
        r.chaos.total_fired(),
        r.chaos.total_recovered()
    ));
    for (i, site) in r.chaos.sites.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"site\": ");
        esc(&mut s, &site.site);
        s.push_str(&format!(
            ", \"armed\": {}, \"fired\": {}, \"recovered\": {}}}",
            site.armed, site.fired, site.recovered
        ));
    }
    if !r.chaos.sites.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]},\n");
    s.push_str("  \"cycles\": [");
    for (i, c) in r.cycles.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"index\": {}, \"seconds\": {}, \"residual\": {}}}",
            c.index,
            f64_json(c.ns as f64 * 1e-9),
            f64_json(c.residual)
        ));
    }
    if !r.cycles.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}");
    s
}
