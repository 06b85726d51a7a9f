//! `paper_v3`: the paper's Figure 5 refresh stream on an in-memory
//! `Database` holding view V3. Each cycle commits four lineitem batches —
//! insert new rows, delete them, delete existing rows, re-insert those —
//! so every cycle ends in the post-setup state. No WAL, no feed, and no
//! pin is held across a commit: the bypass case for those layers.

use std::collections::HashSet;
use std::time::Instant;

use ojv_bench::views::v3_def;
use ojv_core::database::Database;
use ojv_core::maintain::verify_against_recompute;
use ojv_rel::{Datum, Row};

use super::{
    generate, line_key, lineitem_keys, lineitem_rows, query_between_commits, stable_rows,
    table_digest, views_digest, Reads, MIN_COMMITS, READ_KEYS, SETUPS,
};
use crate::alloc;
use crate::common::{
    corrupt, median, phase, set, CommitRec, Kind, Loop, Metrics, Opts, StateDigest, Tally,
};
use crate::metrics;
use crate::trace;

/// TPC-H scale factor.
pub const SF: f64 = 0.1;
/// Lineitem rows per commit.
pub const BATCH: usize = 10_000;
const VIEW: &str = "v3";

enum Step {
    Insert(Vec<Row>),
    Delete(Vec<Vec<Datum>>),
}

/// One commit through `apply_*` then `maintain_update`, timed apart.
fn commit(
    db: &mut Database,
    kind: Kind,
    step: &Step,
    traced: bool,
    tally: &mut Tally,
) -> Option<CommitRec> {
    let input = match step {
        Step::Insert(rows) => Step::Insert(rows.clone()),
        Step::Delete(keys) => Step::Delete(keys.clone()),
    };
    let mut rec = CommitRec::new(kind, traced, BATCH);
    let t0 = Instant::now();
    let root = trace::span(match kind {
        Kind::Insert => "commit.insert",
        _ => "commit.delete",
    });
    let applied = {
        let _s = trace::span("storage.apply");
        match input {
            Step::Insert(rows) => db.apply_insert("lineitem", rows),
            Step::Delete(keys) => db.apply_delete("lineitem", &keys),
        }
    };
    rec.apply_ns = t0.elapsed().as_nanos() as u64;
    let update = tally.op("apply", applied)?;
    let maintained = {
        let _s = trace::span("core.maintain_update");
        db.maintain_update(&update)
    };
    drop(root);
    rec.wall_ns = t0.elapsed().as_nanos() as u64;
    rec.add_reports(&tally.op("maintain_update", maintained)?, |_| 0);
    Some(rec)
}

pub fn run(o: &Opts, tally: &mut Tally, m: &mut Metrics) -> Option<()> {
    let (gen, catalog) = generate(SF, o.seed);
    phase("generated");
    let fresh = gen.lineitem_insert_batch(BATCH, 0);
    let fresh_keys = lineitem_keys(&catalog, &fresh);
    let old_keys = gen.lineitem_delete_keys(BATCH, 1);
    let old_rows = lineitem_rows(&catalog, &old_keys);
    let cycle = [
        (Kind::Insert, Step::Insert(fresh)),
        (Kind::Delete, Step::Delete(fresh_keys.clone())),
        (Kind::Delete, Step::Delete(old_keys.clone())),
        (Kind::Insert, Step::Insert(old_rows)),
    ];
    let touched: HashSet<(i64, i64)> = fresh_keys
        .iter()
        .chain(&old_keys)
        .map(|k| line_key(k))
        .collect();

    // Setup: catalog copy into the engine, then V3 materialized. The last
    // setup's engine runs the timed loop.
    let baseline = alloc::live();
    let mut times = Vec::with_capacity(SETUPS);
    let mut db = None;
    let (mut base_b, mut view_b) = (0, 0);
    for _ in 0..SETUPS {
        drop(db.take());
        let l0 = alloc::live();
        let t0 = Instant::now();
        let mut d = Database::new(catalog.clone());
        let l1 = alloc::live();
        let created = tally.op("create_view v3", d.create_view(v3_def()).map(|_| ()));
        times.push(t0.elapsed().as_secs_f64());
        (base_b, view_b) = (l1 - l0, alloc::live() - l1);
        created?;
        db = Some(d);
    }
    let mut db = db.expect("at least one setup");
    set(m, "setup_s", median(&times));
    set(m, "mem.base_mib", alloc::mib(base_b));
    set(m, "mem.view_mib", alloc::mib(view_b));
    set(
        m,
        "storage.heap_mib",
        alloc::mib(
            db.catalog()
                .tables()
                .map(|t| t.heap().approx_bytes() as i64)
                .sum(),
        ),
    );

    let mut expected = StateDigest::new();
    {
        let snap = db.snapshots().pin().expect("pin after setup");
        views_digest(&[&snap], &mut expected);
    }
    table_digest(&[db.catalog()], "lineitem", &mut expected);
    if o.inject_failure {
        corrupt(&mut expected);
    }
    let read_keys = {
        let snap = db.snapshots().pin().expect("pin after setup");
        stable_rows(
            snap.view(VIEW).expect("v3 registered"),
            &touched,
            READ_KEYS,
            o.seed,
        )
    };

    phase("set up");
    // One untimed warm-up cycle, then the timed loop.
    for (kind, step) in &cycle {
        commit(&mut db, *kind, step, false, tally)?;
    }
    let mut recs: Vec<CommitRec> = Vec::new();
    let mut reads = Reads::default();
    let lp = Loop::new(o.seconds, MIN_COMMITS);
    while !lp.done(recs.len()) {
        let traced = lp.tracing_due(o.trace);
        trace::set_enabled(traced);
        for (kind, step) in &cycle {
            trace::set_commit(recs.len() as u64 + 1);
            recs.push(commit(&mut db, *kind, step, traced, tally)?);
            query_between_commits(db.snapshots(), VIEW, &read_keys, traced, tally, &mut reads)?;
        }
    }
    trace::set_enabled(false);
    phase("timed loop done");
    set(m, "core.plan_compiles", lp.plan_compiles() as f64);
    set(m, "mem_mib", alloc::mib(alloc::live() - baseline));
    set(m, "mem.peak_mib", alloc::mib(alloc::peak() - baseline));
    reads.report(m);
    metrics::summarize(&recs, lp.elapsed(), m);
    let spans = trace::take();
    let traced_commits = recs.iter().filter(|r| r.traced).count();
    metrics::self_times(&spans, &spans, traced_commits, reads.traced_queries, m);
    if o.trace {
        crate::write_spans(o, &[("writer", &spans)]);
    }

    // End state equals the post-setup state, and V3 equals its recompute.
    let mut end = StateDigest::new();
    {
        let snap = db.snapshots().pin().expect("pin at end");
        views_digest(&[&snap], &mut end);
    }
    table_digest(&[db.catalog()], "lineitem", &mut end);
    tally.check("end state equals post-setup state", end == expected);
    let view = db.view(VIEW).expect("v3 registered");
    tally.check(
        "v3 equals its recompute",
        verify_against_recompute(view, db.catalog()),
    );
    phase("checks done");
    Some(())
}
