//! `durable_feed`: a `DurableDatabase` on disk with fsync=Always, four
//! V3-family views sharing plan prefixes, and a `FeedHub` with 10k
//! subscribers over 250 specs. Each cycle commits 500 lineitem rows three
//! times — insert, update of the price column, delete — and drains every
//! subscriber after each commit. Each cycle of a checkpoint epoch takes its
//! own generated batch, so a run's figures rest on 15k distinct rows rather
//! than on how many view rows one 500-row sample happens to reach. Small
//! commits expose the fixed per-commit costs: WAL append and fsync, fan-out
//! and drain. A checkpoint runs every fixed number of commits, and the run
//! ends with a reopen.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use ojv_bench::views::v3_family_def;
use ojv_core::durable::DurableDatabase;
use ojv_core::policy::MaintenancePolicy;
use ojv_core::prelude::CmpOp;
use ojv_durability::FsyncPolicy;
use ojv_feed::{
    scan_state_bytes, Drained, FeedFilter, FeedHub, Resumed, SubscriberState, Subscription,
    SubscriptionSpec,
};
use ojv_rel::{Datum, Row};

use super::{
    generate, line_key, lineitem_keys, query_between_commits, stable_rows, table_digest,
    views_digest, Reads, MIN_COMMITS, READ_KEYS, SETUPS,
};
use crate::alloc;
use crate::common::{
    corrupt, median, phase, set, CommitRec, Kind, Loop, Metrics, Opts, StateDigest, Tally, TempDir,
};
use crate::metrics;
use crate::trace;
use crate::vfs::{CountingVfs, IoStats};

pub const SF: f64 = 0.02;
/// Lineitem rows per commit.
pub const BATCH: usize = 500;
pub const SUBSCRIBERS: usize = 10_000;
pub const SPECS: usize = 250;
/// Subscribers whose applied stream is checked against a fresh scan.
pub const SAMPLED: usize = 8;
/// Cycles (of three commits) between checkpoints in the timed loop.
pub const CYCLES_PER_CHECKPOINT: usize = 30;
/// Price cutoffs of the four V3-family views.
const CUTOFFS: [f64; 4] = [1200.0, 1500.0, 1800.0, 2000.0];
const PRICE_COL: usize = 5;

type Db = DurableDatabase<CountingVfs>;

pub fn policy() -> MaintenancePolicy {
    MaintenancePolicy {
        fsync: FsyncPolicy::Always,
        ..MaintenancePolicy::default()
    }
}

fn view_name(i: usize) -> String {
    format!("vf{i}")
}

/// `SPECS` specs spread over the four views: price thresholds across the
/// observed `l_extendedprice` range, each once with the full projection
/// and once projecting only the price column.
fn build_specs(db: &Db, lo: f64, hi: f64) -> Vec<SubscriptionSpec> {
    let snap = db.snapshots().pin().expect("pin for specs");
    let per_view = SPECS / CUTOFFS.len() / 2;
    let mut specs = Vec::with_capacity(SPECS);
    for i in 0..CUTOFFS.len() {
        let name = view_name(i);
        let view = snap.view(&name).expect("family view");
        let price = view
            .schema()
            .index_of("lineitem", "l_extendedprice")
            .expect("price column in view output");
        // The last view takes the remainder so the total is exactly SPECS.
        let filters = if i + 1 == CUTOFFS.len() {
            (SPECS - specs.len()).div_ceil(2)
        } else {
            per_view
        };
        for f in 0..filters {
            let t = lo + (hi - lo) * (f as f64 + 1.0) / (filters as f64 + 1.0);
            let filter = FeedFilter::cmp(price, CmpOp::Gt, Datum::Float(t));
            specs.push(SubscriptionSpec::on(&name).with_filter(filter.clone()));
            if specs.len() < SPECS {
                specs.push(
                    SubscriptionSpec::on(&name)
                        .with_filter(filter)
                        .with_projection(vec![price]),
                );
            }
        }
    }
    specs
}

struct Engine {
    db: Db,
    hub: FeedHub,
    subs: Vec<Subscription>,
    /// Sampled subscribers: handle, spec, and the state its stream built.
    sampled: Vec<(Subscription, SubscriptionSpec, SubscriberState)>,
    stats: Arc<IoStats>,
    dir: TempDir,
}

fn setup(
    catalog: &ojv_storage::Catalog,
    price_range: (f64, f64),
    stats: &Arc<IoStats>,
    tally: &mut Tally,
    mem: &mut [i64; 3],
) -> Option<Engine> {
    let dir = TempDir::new("feed").expect("scratch directory");
    let vfs = CountingVfs::open(dir.path(), Arc::clone(stats)).expect("open directory");
    let l0 = alloc::live();
    let mut db = tally.op("create", Db::create(vfs, catalog.clone(), policy()))?;
    let l1 = alloc::live();
    for (i, cutoff) in CUTOFFS.iter().enumerate() {
        tally.op(
            "create_view",
            db.create_view(v3_family_def(&view_name(i), *cutoff)),
        )?;
    }
    let l2 = alloc::live();
    let hub = FeedHub::new();
    hub.attach_durable(&mut db);
    let specs = build_specs(&db, price_range.0, price_range.1);
    let tip = db.database().commit_lsn();
    let mut subs = Vec::with_capacity(SUBSCRIBERS);
    for i in 0..SUBSCRIBERS - SAMPLED {
        let (sub, resumed) = tally.op("resume", hub.resume(&specs[i % specs.len()], tip))?;
        tally.check(
            "resume at the tip streams",
            matches!(resumed, Resumed::Stream),
        );
        subs.push(sub);
    }
    let mut sampled = Vec::with_capacity(SAMPLED);
    for k in 0..SAMPLED {
        let spec = specs[(k * 37) % specs.len()].clone();
        let (sub, image) = tally.op("subscribe", hub.subscribe(&spec))?;
        sampled.push((sub, spec, SubscriberState::new(&image)));
    }
    *mem = [l1 - l0, l2 - l1, alloc::live() - l2];
    Some(Engine {
        db,
        hub,
        subs,
        sampled,
        stats: Arc::clone(stats),
        dir,
    })
}

/// Drain one subscriber, applying what it receives to `state` if it is a
/// sampled one; returns the net rows delivered.
fn drain_one(sub: &Subscription, state: Option<&mut SubscriberState>, tally: &mut Tally) -> u64 {
    match tally.op("drain", sub.drain()) {
        Some(Drained::Updates(sets)) => {
            let mut rows = 0;
            let mut state = state;
            for set in sets {
                let (ins, del) = set.counts();
                rows += (ins + del) as u64;
                if let Some(st) = state.as_deref_mut() {
                    st.apply(&set);
                }
            }
            rows
        }
        Some(Drained::Rebase(image)) => {
            if let Some(st) = state {
                st.rebase(&image);
            }
            image.rows.len() as u64
        }
        None => 0,
    }
}

/// Drain every subscriber once; returns net rows delivered.
fn drain_all(e: &mut Engine, tally: &mut Tally) -> u64 {
    let _s = trace::span("feed.drain_all");
    let mut delivered = 0;
    for sub in &e.subs {
        delivered += drain_one(sub, None, tally);
    }
    for (sub, _, state) in &mut e.sampled {
        delivered += drain_one(sub, Some(state), tally);
    }
    delivered
}

/// The cycle's commits, in order; each ends with every subscriber drained.
const CYCLE: [Kind; 3] = [Kind::Insert, Kind::Update, Kind::Delete];

/// One cycle's fixed inputs.
struct Work {
    fresh: Vec<Row>,
    repriced: Vec<Row>,
    keys: Vec<Vec<Datum>>,
}

impl Work {
    /// Refresh batch `batch`: new lineitems, the same rows repriced, and
    /// their keys.
    fn generate(gen: &ojv_tpch::TpchGen, catalog: &ojv_storage::Catalog, batch: u64) -> Self {
        let fresh = gen.lineitem_insert_batch(BATCH, batch);
        let keys = lineitem_keys(catalog, &fresh);
        let repriced = fresh
            .iter()
            .map(|r| {
                let mut r = r.clone();
                if let Datum::Float(p) = r[PRICE_COL] {
                    r[PRICE_COL] = Datum::Float(p + 100.0);
                }
                r
            })
            .collect();
        Work {
            fresh,
            repriced,
            keys,
        }
    }
}

/// One commit, then a drain of every subscriber.
fn commit(
    e: &mut Engine,
    w: &Work,
    kind: Kind,
    traced: bool,
    tally: &mut Tally,
) -> Option<CommitRec> {
    let rows = match kind {
        Kind::Insert => w.fresh.clone(),
        Kind::Update => w.repriced.clone(),
        Kind::Delete => Vec::new(),
    };
    let mut rec = CommitRec::new(kind, traced, BATCH);
    let io0 = e.stats.snapshot();
    let fan0 = e.hub.stats().total_fanout_nanos;
    let t0 = Instant::now();
    let result = match kind {
        Kind::Insert => {
            let _s = trace::span("engine.insert");
            e.db.insert("lineitem", rows)
        }
        Kind::Update => {
            let _s = trace::span("engine.update");
            e.db.update("lineitem", &w.keys, rows)
        }
        Kind::Delete => {
            let _s = trace::span("engine.delete");
            e.db.delete("lineitem", &w.keys)
        }
    };
    rec.wall_ns = t0.elapsed().as_nanos() as u64;
    rec.io = e.stats.snapshot().since(io0);
    rec.fanout_ns = e.hub.stats().total_fanout_nanos - fan0;
    rec.add_reports(&tally.op("commit", result)?, |_| 0);
    let d0 = Instant::now();
    rec.delivered_rows = drain_all(e, tally);
    rec.drain_ns = d0.elapsed().as_nanos() as u64;
    rec.lag_ns = t0.elapsed().as_nanos() as u64;
    Some(rec)
}

fn digest(db: &Db) -> StateDigest {
    let mut d = StateDigest::new();
    let snap = db.snapshots().pin().expect("pin for digest");
    views_digest(&[&snap], &mut d);
    table_digest(&[db.database().catalog()], "lineitem", &mut d);
    d
}

pub fn run(o: &Opts, tally: &mut Tally, m: &mut Metrics) -> Option<()> {
    let (gen, catalog) = generate(SF, o.seed);
    phase("generated");
    // One batch per cycle of a checkpoint epoch.
    let work: Vec<Work> = (0..CYCLES_PER_CHECKPOINT as u64)
        .map(|b| Work::generate(&gen, &catalog, b))
        .collect();
    let touched: HashSet<(i64, i64)> = work
        .iter()
        .flat_map(|w| w.keys.iter().map(|k| line_key(k)))
        .collect();
    let prices: Vec<f64> = catalog
        .table("lineitem")
        .expect("lineitem")
        .iter_rows()
        .filter_map(|r| match r[PRICE_COL] {
            Datum::Float(p) => Some(p),
            _ => None,
        })
        .collect();
    let price_range = (
        prices.iter().copied().fold(f64::MAX, f64::min),
        prices.iter().copied().fold(f64::MIN, f64::max),
    );
    drop(prices);

    let stats = Arc::new(IoStats::default());
    let baseline = alloc::live();
    let mut times = Vec::with_capacity(SETUPS);
    let mut engine = None;
    let mut mem = [0i64; 3];
    for _ in 0..SETUPS {
        drop(engine.take());
        let t0 = Instant::now();
        let e = setup(&catalog, price_range, &stats, tally, &mut mem)?;
        times.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut e = engine.expect("at least one setup");
    set(m, "setup_s", median(&times));
    set(m, "mem.base_mib", alloc::mib(mem[0]));
    set(m, "mem.view_mib", alloc::mib(mem[1]));
    set(m, "mem.feed_mib", alloc::mib(mem[2]));
    set(
        m,
        "storage.heap_mib",
        alloc::mib(
            e.db.database()
                .catalog()
                .tables()
                .map(|t| t.heap().approx_bytes() as i64)
                .sum(),
        ),
    );
    set(m, "feed.shared_evals", e.hub.stats().shared_evals as f64);
    let mut expected = digest(&e.db);
    if o.inject_failure {
        corrupt(&mut expected);
    }
    let read_keys = {
        let snap = e.db.snapshots().pin().expect("pin after setup");
        stable_rows(
            snap.view(&view_name(0)).expect("view"),
            &touched,
            READ_KEYS,
            o.seed,
        )
    };

    phase("set up");
    // One untimed warm-up cycle (the first UPDATE compiles its plans),
    // then the timed loop: whole checkpoint epochs.
    for kind in CYCLE {
        commit(&mut e, &work[0], kind, false, tally)?;
    }
    let mut recs: Vec<CommitRec> = Vec::new();
    let mut reads = Reads::default();
    let (mut ckpt_ms, mut ckpt_bytes) = (Vec::new(), Vec::new());
    let lp = Loop::new(o.seconds, MIN_COMMITS);
    while !lp.done(recs.len()) {
        let traced = lp.tracing_due(o.trace);
        trace::set_enabled(traced);
        for w in &work {
            for kind in CYCLE {
                trace::set_commit(recs.len() as u64 + 1);
                recs.push(commit(&mut e, w, kind, traced, tally)?);
                let reg = e.db.snapshots();
                query_between_commits(reg, &view_name(0), &read_keys, traced, tally, &mut reads)?;
            }
        }
        let _s = trace::span("engine.checkpoint");
        let c0 = stats.snapshot();
        let t = Instant::now();
        tally.op("checkpoint", e.db.checkpoint())?;
        if traced {
            ckpt_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ckpt_bytes.push(stats.snapshot().since(c0).ckpt_append.bytes as f64);
        }
    }
    trace::set_enabled(false);
    phase("timed loop done");
    set(m, "core.plan_compiles", lp.plan_compiles() as f64);
    set(m, "mem_mib", alloc::mib(alloc::live() - baseline));
    set(m, "mem.peak_mib", alloc::mib(alloc::peak() - baseline));
    reads.report(m);
    set(m, "checkpoint.ms", median(&ckpt_ms));
    set(m, "checkpoint.bytes", median(&ckpt_bytes));
    metrics::summarize(&recs, lp.elapsed(), m);
    let spans = trace::take();
    let traced_commits = recs.iter().filter(|r| r.traced).count();
    metrics::self_times(&spans, &spans, traced_commits, reads.traced_queries, m);
    if o.trace {
        crate::write_spans(o, &[("writer", &spans)]);
    }

    // Checks on the live engine.
    tally.check("no fan-out job failed", e.hub.take_error().is_none());
    {
        let snap = e.db.snapshots().pin().expect("pin at end");
        for (_, spec, state) in &e.sampled {
            let view = snap.view(&spec.view).expect("view");
            let fresh_scan = tally.op("scan_state_bytes", scan_state_bytes(view, spec));
            tally.check(
                "sampled subscriber's applied stream equals a fresh scan",
                fresh_scan.as_deref() == Some(state.state_bytes().as_slice()),
            );
        }
    }
    tally.check(
        "end state equals post-setup state",
        digest(&e.db) == expected,
    );

    // Recovery: the loop ended with a checkpoint; one more cycle leaves a
    // fixed WAL tail to replay. Reopen and compare with the live state.
    for kind in CYCLE {
        commit(&mut e, &work[0], kind, false, tally)?;
    }
    let live = tally.op("state_bytes", e.db.state_bytes())?;
    let Engine {
        db,
        hub,
        subs,
        sampled,
        dir,
        ..
    } = e;
    drop((db, hub, subs, sampled));
    let vfs = CountingVfs::open(dir.path(), Arc::clone(&stats)).expect("reopen directory");
    let r0 = stats.snapshot();
    let t0 = Instant::now();
    let opened = Db::open(vfs, policy());
    set(m, "recover_s", t0.elapsed().as_secs_f64());
    set(
        m,
        "recover.read_bytes",
        stats.snapshot().since(r0).read.bytes as f64,
    );
    let (reopened, _report) = tally.op("open", opened)?;
    let bytes = tally.op("state_bytes", reopened.state_bytes());
    tally.check(
        "reopened state equals the live state",
        bytes.as_deref() == Some(live.as_slice()),
    );
    phase("checks done");
    Some(())
}
