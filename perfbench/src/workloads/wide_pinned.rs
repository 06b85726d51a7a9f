//! `wide_pinned`: `orders ⟕ lineitem` (one view row per lineitem) on a
//! 2-shard `ShardedDurableDatabase` over disk with fsync=Always. The writer
//! commits lineitem insert/delete pairs while one open-loop reader runs
//! point-lookup queries against pinned snapshots of every shard, holding
//! its pins until its next query. A delta as large as the batch lands on
//! a large view while pins are held.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ojv_bench::shardbench::{ol_shard_def, tpch_routing};
use ojv_core::policy::MaintenancePolicy;
use ojv_core::shard_durable::ShardedDurableDatabase;
use ojv_core::snapshot::{Snapshot, SnapshotRegistry};
use ojv_durability::FsyncPolicy;
use ojv_rel::{Datum, Row};

use super::{
    generate, line_key, lineitem_keys, lookups, stable_rows, table_digest, views_digest, Reads,
    MIN_COMMITS, READ_KEYS, SETUPS,
};
use crate::alloc;
use crate::common::{
    corrupt, median, phase, set, CommitRec, Kind, Loop, Metrics, Opts, StateDigest, Tally, TempDir,
};
use crate::metrics;
use crate::trace;
use crate::vfs::{CountingVfs, IoStats};

pub const SF: f64 = 0.01;
pub const SHARDS: usize = 2;
/// Lineitem rows per commit.
pub const BATCH: usize = 2_500;
/// Reader queries per second (open loop).
pub const READ_RATE: f64 = 200.0;
const VIEW: &str = "ol_shard";

type Db = ShardedDurableDatabase<CountingVfs>;

pub fn policy() -> MaintenancePolicy {
    MaintenancePolicy {
        fsync: FsyncPolicy::Always,
        ..MaintenancePolicy::default()
    }
}

fn open_dirs(
    dir: &TempDir,
    stats: &Arc<IoStats>,
) -> std::io::Result<(Vec<CountingVfs>, CountingVfs)> {
    let io = |e: ojv_durability::DurabilityError| std::io::Error::other(format!("{e:?}"));
    let shards = (0..SHARDS)
        .map(|s| CountingVfs::open(&dir.sub(&format!("shard{s}")), Arc::clone(stats)).map_err(io))
        .collect::<std::io::Result<Vec<_>>>()?;
    let coord = CountingVfs::open(&dir.sub("coord"), Arc::clone(stats)).map_err(io)?;
    Ok((shards, coord))
}

/// What the reader thread measured.
#[derive(Default)]
struct ReaderOut {
    /// Latency is measured from each query's due time.
    reads: Reads,
    late_ms: Vec<f64>,
    tally: Tally,
    spans: Vec<trace::Span>,
}

/// Open-loop reader: query `i` is due at `start + i / READ_RATE`. Each
/// query pins the newest snapshot of every shard, drops the previous
/// query's pins, and looks up its keys.
fn reader(
    registries: Vec<SnapshotRegistry>,
    keys: Vec<Vec<(Vec<Datum>, Row)>>,
    stop: &AtomicBool,
    trace_after: Option<Duration>,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / READ_RATE);
    let mut held: Vec<Snapshot> = Vec::new();
    for i in 0u32.. {
        let due = start + period * i;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let traced = trace_after.is_some_and(|t| due - start >= t);
        trace::set_enabled(traced);
        out.late_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let _q = trace::span("reader.query");
        let p0 = Instant::now();
        let pins: Result<Vec<Snapshot>, _> = registries
            .iter()
            .map(|r| {
                let _s = trace::span("snapshot.pin");
                r.pin()
            })
            .collect();
        let pin_ms = p0.elapsed().as_secs_f64() * 1e3;
        let Some(pins) = out.tally.op("pin", pins) else {
            continue;
        };
        held = pins;
        let mut ns = 0;
        for (snap, keys) in held.iter().zip(&keys) {
            ns += lookups(snap.view(VIEW).expect("view pinned"), keys, &mut out.tally);
        }
        let latency_ms = Instant::now().duration_since(due).as_secs_f64() * 1e3;
        out.reads.record(traced, latency_ms, pin_ms, ns);
    }
    drop(held);
    trace::set_enabled(false);
    out.spans = trace::take();
    out
}

/// Each cycle inserts a batch of new lineitems and deletes it again.
const CYCLE: [Kind; 2] = [Kind::Insert, Kind::Delete];

struct Work {
    fresh: Vec<Row>,
    keys: Vec<Vec<Datum>>,
    /// Shared by every shard's and the coordinator's file system.
    stats: Arc<IoStats>,
}

fn commit(db: &mut Db, w: &Work, kind: Kind, traced: bool, tally: &mut Tally) -> Option<CommitRec> {
    let rows = (kind == Kind::Insert).then(|| w.fresh.clone());
    let mut rec = CommitRec::new(kind, traced, BATCH);
    let io0 = w.stats.snapshot();
    let t0 = Instant::now();
    let result = match rows {
        Some(rows) => {
            let _s = trace::span("engine.insert");
            db.insert("lineitem", rows)
        }
        None => {
            let _s = trace::span("engine.delete");
            db.delete("lineitem", &w.keys)
        }
    };
    rec.wall_ns = t0.elapsed().as_nanos() as u64;
    rec.io = w.stats.snapshot().since(io0);
    // One view: one report per touched shard, in shard order.
    rec.add_reports(&tally.op("commit", result)?, |i| i);
    Some(rec)
}

pub fn run(o: &Opts, tally: &mut Tally, m: &mut Metrics) -> Option<()> {
    let (gen, catalog) = generate(SF, o.seed);
    phase("generated");
    let fresh = gen.lineitem_insert_batch(BATCH, 0);
    let keys = lineitem_keys(&catalog, &fresh);
    let touched: HashSet<(i64, i64)> = keys.iter().map(|k| line_key(k)).collect();
    let stats = Arc::new(IoStats::default());
    let w = Work {
        fresh,
        keys,
        stats: Arc::clone(&stats),
    };

    let baseline = alloc::live();
    let mut times = Vec::with_capacity(SETUPS);
    let mut db: Option<(Db, TempDir)> = None;
    let (mut base_b, mut view_b) = (0, 0);
    for _ in 0..SETUPS {
        drop(db.take());
        let dir = TempDir::new("wide").expect("scratch directory");
        let (shards, coord) = open_dirs(&dir, &stats).expect("open shard directories");
        let l0 = alloc::live();
        let t0 = Instant::now();
        let created = Db::create(shards, coord, &catalog, tpch_routing(), policy());
        let l1 = alloc::live();
        let mut d = tally.op("create", created)?;
        let viewed = tally.op("create_view", d.create_view(ol_shard_def()));
        times.push(t0.elapsed().as_secs_f64());
        (base_b, view_b) = (l1 - l0, alloc::live() - l1);
        viewed?;
        db = Some((d, dir));
    }
    let (mut db, _dir) = db.expect("at least one setup");
    set(m, "setup_s", median(&times));
    set(m, "mem.base_mib", alloc::mib(base_b));
    set(m, "mem.view_mib", alloc::mib(view_b));
    let heap: usize = db
        .database()
        .shards()
        .flat_map(|s| s.catalog().tables().map(|t| t.heap().approx_bytes()))
        .sum();
    set(m, "storage.heap_mib", alloc::mib(heap as i64));

    let digest = |db: &Db| {
        let mut d = StateDigest::new();
        let snap = db.snapshot().expect("sharded pin");
        views_digest(&snap.parts().iter().collect::<Vec<_>>(), &mut d);
        let cats: Vec<_> = db.database().shards().map(|s| s.catalog()).collect();
        table_digest(&cats, "lineitem", &mut d);
        d
    };
    let mut expected = digest(&db);
    if o.inject_failure {
        corrupt(&mut expected);
    }
    let registries: Vec<SnapshotRegistry> = db
        .database()
        .shards()
        .map(|s| s.snapshots().clone())
        .collect();
    let read_keys: Vec<Vec<(Vec<Datum>, Row)>> = registries
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let snap = r.pin().expect("pin after setup");
            let view = snap.view(VIEW).expect("view registered");
            stable_rows(view, &touched, READ_KEYS / SHARDS, o.seed ^ i as u64)
        })
        .collect();

    phase("set up");
    // One untimed warm-up cycle, then the timed loop with the reader
    // running alongside.
    for kind in CYCLE {
        commit(&mut db, &w, kind, false, tally)?;
    }
    let stop = AtomicBool::new(false);
    let trace_after = o.trace.then(|| Duration::from_secs_f64(o.seconds / 2.0));
    let mut recs: Vec<CommitRec> = Vec::new();
    let (mut ops_max, mut versions_max) = (0usize, 0usize);
    let (lp, reader_out) = std::thread::scope(|s| {
        let handle = s.spawn(|| reader(registries.clone(), read_keys.clone(), &stop, trace_after));
        let lp = Loop::new(o.seconds, MIN_COMMITS);
        'timed: while !lp.done(recs.len()) {
            let traced = lp.tracing_due(o.trace);
            trace::set_enabled(traced);
            for kind in CYCLE {
                trace::set_commit(recs.len() as u64 + 1);
                let Some(rec) = commit(&mut db, &w, kind, traced, tally) else {
                    break 'timed;
                };
                recs.push(rec);
                let (mut ops, mut versions) = (0, 0);
                for r in &registries {
                    let st = r.stats();
                    ops += st.retained_ops;
                    versions += st.retained_versions;
                }
                ops_max = ops_max.max(ops);
                versions_max = versions_max.max(versions);
            }
        }
        trace::set_enabled(false);
        stop.store(true, Ordering::SeqCst);
        (lp, handle.join().expect("reader thread"))
    });
    phase("timed loop done");
    set(m, "core.plan_compiles", lp.plan_compiles() as f64);
    set(m, "mem_mib", alloc::mib(alloc::live() - baseline));
    set(m, "mem.peak_mib", alloc::mib(alloc::peak() - baseline));
    let ReaderOut {
        reads,
        late_ms,
        tally: reader_tally,
        spans: reader_spans,
    } = reader_out;
    reads.report(m);
    set(m, "reader.late_ms", median(&late_ms));
    set(m, "snapshot.retained_ops_max", ops_max as f64);
    set(m, "snapshot.retained_versions_max", versions_max as f64);
    tally.merge(reader_tally);
    metrics::summarize(&recs, lp.elapsed(), m);
    let spans = trace::take();
    let traced_commits = recs.iter().filter(|r| r.traced).count();
    metrics::self_times(
        &spans,
        &reader_spans,
        traced_commits,
        reads.traced_queries,
        m,
    );
    if o.trace {
        crate::write_spans(o, &[("writer", &spans), ("reader", &reader_spans)]);
    }

    tally.check("end state equals post-setup state", digest(&db) == expected);
    phase("checks done");
    Some(())
}
