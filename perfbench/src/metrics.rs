//! The metric catalogue (names and units, as listed in `BENCHMARK.json`),
//! the reduction of per-commit records to metrics, and the result line.

use crate::common::{mean, median, ms, quantile, set, CommitRec, Kind, Metrics, Tally};
use crate::trace::Span;
use ojv_exec::parallel::OpStatsSnapshot;

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rows_per_s", "1/s"),
    ("insert_ms_p50", "ms"),
    ("delete_ms_p50", "ms"),
    ("commit_ms_p90", "ms"),
    ("read_ms_p50", "ms"),
    ("read_ms_p90", "ms"),
    ("mem_mib", "MiB"),
];

const EXEC_OPS: [&str; 6] = [
    "filter",
    "join_build",
    "join_probe",
    "index_join",
    "dedup",
    "subsume",
];

/// Per-layer metrics, printed by traced runs. A layer a workload does not
/// exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("storage.apply_ms".into(), "ms"),
        ("storage.heap_mib".into(), "MiB"),
    ];
    for op in EXEC_OPS {
        v.push((format!("exec.{op}.ms"), "ms"));
        v.push((format!("exec.{op}.rows_in"), "count"));
        v.push((format!("exec.{op}.rows_out"), "count"));
        v.push((format!("exec.{op}.allocs"), "count"));
    }
    for (name, unit) in [
        ("core.primary_compute_ms", "ms"),
        ("core.primary_apply_ms", "ms"),
        ("core.secondary_ms", "ms"),
        ("core.primary_rows", "count"),
        ("core.secondary_rows", "count"),
        ("core.plan_compiles", "count"),
        ("core.unattributed_ms", "ms"),
        ("snapshot.pin_ms", "ms"),
        ("snapshot.lookup_us", "us"),
        ("snapshot.retained_ops_max", "count"),
        ("snapshot.retained_versions_max", "count"),
        ("reader.late_ms", "ms"),
        ("shard.busy_ratio", "ratio"),
        ("shard.rows_max_over_mean", "ratio"),
        ("wal.append_ms", "ms"),
        ("wal.sync_ms", "ms"),
        ("wal.syncs_per_commit", "count"),
        ("wal.bytes_per_row", "B/row"),
        ("checkpoint.ms", "ms"),
        ("checkpoint.bytes", "B"),
        ("recover.read_bytes", "B"),
        ("feed.fanout_ms", "ms"),
        ("feed.drain_ms", "ms"),
        ("feed.delivered_rows", "count"),
        ("feed.shared_evals", "count"),
        ("mem.base_mib", "MiB"),
        ("mem.view_mib", "MiB"),
        ("mem.feed_mib", "MiB"),
        ("mem.peak_mib", "MiB"),
        ("update_ms_p50", "ms"),
        ("feed_lag_ms_p50", "ms"),
        ("feed_lag_ms_p90", "ms"),
        ("recover_s", "s"),
    ] {
        v.push((name.into(), unit));
    }
    for layer in SELF_LAYERS {
        v.push((format!("self.{layer}_ms"), "ms"));
    }
    v.push(("trace.overhead_pct".into(), "%"));
    v.push(("trace.spans".into(), "count"));
    v
}

/// Span layers whose self time is reported, per commit (writer layers) or
/// per query (`reader`, `snapshot`).
const SELF_LAYERS: [&str; 8] = [
    "commit",
    "storage",
    "core",
    "engine",
    "durability",
    "feed",
    "reader",
    "snapshot",
];
const READER_LAYERS: [&str; 2] = ["reader", "snapshot"];

fn walls(recs: &[&CommitRec], kind: Option<Kind>) -> Vec<f64> {
    recs.iter()
        .filter(|r| kind.is_none_or(|k| r.kind == k))
        .map(|r| ms(r.wall_ns))
        .collect()
}

fn per_commit(recs: &[&CommitRec], f: impl Fn(&CommitRec) -> f64) -> f64 {
    mean(&recs.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Reduce the timed loop's commit records. End-to-end figures use every
/// untraced commit; per-layer figures use the traced ones (in an untraced
/// run there are none and those stay unset).
pub fn summarize(recs: &[CommitRec], loop_secs: f64, m: &mut Metrics) {
    let untraced: Vec<&CommitRec> = recs.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&CommitRec> = recs.iter().filter(|r| r.traced).collect();
    let rows: u64 = recs.iter().map(|r| r.rows).sum();
    set(m, "rows_per_s", rows as f64 / loop_secs);
    set(
        m,
        "insert_ms_p50",
        median(&walls(&untraced, Some(Kind::Insert))),
    );
    set(
        m,
        "delete_ms_p50",
        median(&walls(&untraced, Some(Kind::Delete))),
    );
    set(m, "commit_ms_p90", quantile(&walls(&untraced, None), 0.9));
    if traced.is_empty() {
        return;
    }
    let t = &traced;
    set(m, "update_ms_p50", median(&walls(t, Some(Kind::Update))));
    let lags: Vec<f64> = t
        .iter()
        .filter(|r| r.lag_ns > 0)
        .map(|r| ms(r.lag_ns))
        .collect();
    set(m, "feed_lag_ms_p50", median(&lags));
    set(m, "feed_lag_ms_p90", quantile(&lags, 0.9));
    let applies: Vec<f64> = t
        .iter()
        .filter(|r| r.apply_ns > 0)
        .map(|r| ms(r.apply_ns))
        .collect();
    set(m, "storage.apply_ms", median(&applies));
    for (i, op) in EXEC_OPS.iter().enumerate() {
        let pick = |r: &CommitRec| {
            let e = &r.exec;
            *[
                &e.filter,
                &e.join_build,
                &e.join_probe,
                &e.index_join,
                &e.dedup,
                &e.subsume,
            ][i]
        };
        let ops = |f: fn(&OpStatsSnapshot) -> f64| per_commit(t, |r| f(&pick(r)));
        set(m, &format!("exec.{op}.ms"), ops(|s| ms(s.time_ns)));
        set(m, &format!("exec.{op}.rows_in"), ops(|s| s.rows_in as f64));
        set(
            m,
            &format!("exec.{op}.rows_out"),
            ops(|s| s.rows_out as f64),
        );
        set(m, &format!("exec.{op}.allocs"), ops(|s| s.allocs as f64));
    }
    set(
        m,
        "core.primary_compute_ms",
        per_commit(t, |r| ms(r.primary_compute_ns)),
    );
    set(
        m,
        "core.primary_apply_ms",
        per_commit(t, |r| ms(r.primary_apply_ns)),
    );
    set(
        m,
        "core.secondary_ms",
        per_commit(t, |r| ms(r.secondary_ns)),
    );
    set(
        m,
        "core.primary_rows",
        per_commit(t, |r| r.primary_rows as f64),
    );
    set(
        m,
        "core.secondary_rows",
        per_commit(t, |r| r.secondary_rows as f64),
    );
    set(
        m,
        "core.unattributed_ms",
        per_commit(t, |r| {
            ms(r.wall_ns) - ms(r.apply_ns) - ms(r.report_ns()) - r.io.total_ms() - ms(r.fanout_ns)
        }),
    );
    set(
        m,
        "shard.busy_ratio",
        per_commit(t, |r| {
            ms(r.shard_busy_ns.iter().copied().max().unwrap_or(0)) / ms(r.wall_ns).max(1e-9)
        }),
    );
    set(
        m,
        "shard.rows_max_over_mean",
        per_commit(t, |r| {
            let v: Vec<f64> = r.shard_rows.iter().map(|&x| x as f64).collect();
            let avg = mean(&v);
            if avg > 0.0 {
                v.iter().copied().fold(0.0, f64::max) / avg
            } else {
                0.0
            }
        }),
    );
    set(m, "wal.append_ms", per_commit(t, |r| r.io.wal_append.ms()));
    set(m, "wal.sync_ms", per_commit(t, |r| r.io.wal_sync.ms()));
    set(
        m,
        "wal.syncs_per_commit",
        per_commit(t, |r| r.io.wal_sync.calls as f64),
    );
    let trows: u64 = t.iter().map(|r| r.rows).sum();
    let wal_bytes: u64 = t.iter().map(|r| r.io.wal_append.bytes).sum();
    set(
        m,
        "wal.bytes_per_row",
        wal_bytes as f64 / trows.max(1) as f64,
    );
    set(m, "feed.fanout_ms", per_commit(t, |r| ms(r.fanout_ns)));
    set(m, "feed.drain_ms", per_commit(t, |r| ms(r.drain_ns)));
    set(
        m,
        "feed.delivered_rows",
        per_commit(t, |r| r.delivered_rows as f64),
    );
    let base = median(&walls(&untraced, None));
    let with = median(&walls(t, None));
    if base > 0.0 {
        set(m, "trace.overhead_pct", (with - base) / base * 100.0);
    }
}

/// Self time per layer from the recorded spans: writer layers per traced
/// commit, reader layers per query.
pub fn self_times(
    writer: &[Span],
    reader: &[Span],
    commits: usize,
    queries: usize,
    m: &mut Metrics,
) {
    let w = crate::trace::self_ns_by_layer(writer);
    let r = crate::trace::self_ns_by_layer(reader);
    for layer in SELF_LAYERS {
        let (map, n) = if READER_LAYERS.contains(&layer) {
            (&r, queries)
        } else {
            (&w, commits)
        };
        let key = format!("self.{layer}_ms");
        let total = map.get(layer).copied().unwrap_or(0);
        set(m, &key, if n == 0 { 0.0 } else { ms(total) / n as f64 });
    }
    set(m, "trace.spans", (writer.len() + reader.len()) as f64);
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// The result line: every metric of the run's mode, with its unit.
pub fn result_line(trace: bool, tally: &Tally, m: &Metrics) -> Result<String, String> {
    let list: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut parts = Vec::with_capacity(list.len());
    for (name, unit) in &list {
        let v = match m.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        parts.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        parts.join(", ")
    ))
}
