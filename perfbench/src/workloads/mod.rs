//! The three workloads and the helpers they share.

pub mod durable_feed;
pub mod paper_v3;
pub mod wide_pinned;

use std::collections::HashSet;
use std::time::Instant;

use ojv_core::snapshot::{Snapshot, SnapshotRegistry, SnapshotView};
use ojv_rel::{key_of, Datum, Row};
use ojv_storage::Catalog;
use ojv_testkit::Rng;
use ojv_tpch::{create_tpch_catalog, TpchGen};

use crate::common::{median, ms, quantile, set, Digest, Metrics, StateDigest, Tally};
use crate::trace;

/// Point lookups per read query.
pub const READ_KEYS: usize = 100;
/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Commits a run makes at least, so `commit_ms_p90` has ten samples above it.
pub const MIN_COMMITS: usize = 100;

/// The generated base data: the benchmark's own catalog, never handed to
/// the engine (each setup clones it).
pub fn generate(sf: f64, seed: u64) -> (TpchGen, Catalog) {
    let gen = TpchGen::new(sf, seed);
    let mut catalog = create_tpch_catalog().expect("TPC-H schema builds");
    gen.populate(&mut catalog).expect("TPC-H data loads");
    (gen, catalog)
}

/// `(l_orderkey, l_linenumber)` of a lineitem row or key.
pub fn line_key(key: &[Datum]) -> (i64, i64) {
    match (&key[0], &key[1]) {
        (Datum::Int(o), Datum::Int(l)) => (*o, *l),
        other => panic!("lineitem key is two ints, got {other:?}"),
    }
}

/// Keys of a lineitem row batch.
pub fn lineitem_keys(catalog: &Catalog, rows: &[Row]) -> Vec<Vec<Datum>> {
    let cols = catalog
        .table("lineitem")
        .expect("lineitem")
        .key_cols()
        .to_vec();
    rows.iter().map(|r| key_of(r, &cols)).collect()
}

/// The stored lineitem rows for `keys` (to re-insert after deleting them).
pub fn lineitem_rows(catalog: &Catalog, keys: &[Vec<Datum>]) -> Vec<Row> {
    let t = catalog.table("lineitem").expect("lineitem");
    keys.iter()
        .map(|k| t.get(k).expect("delete key exists").to_row())
        .collect()
}

/// `n` view rows, drawn with `seed`, whose lineitem is present and never
/// touched by the workload (not in `touched`): every snapshot pinned during
/// the run must hold each of them unchanged. Returns `(view key, row)`.
pub fn stable_rows(
    view: &SnapshotView,
    touched: &HashSet<(i64, i64)>,
    n: usize,
    seed: u64,
) -> Vec<(Vec<Datum>, Row)> {
    let wide = |col: &str| {
        let out = view
            .schema()
            .index_of("lineitem", col)
            .expect("lineitem column in view output");
        view.projection()[out]
    };
    let (ok, ln) = (wide("l_orderkey"), wide("l_linenumber"));
    let eligible: Vec<&Row> = view
        .wide_rows()
        .iter()
        .filter(|r| match (&r[ok], &r[ln]) {
            (Datum::Int(o), Datum::Int(l)) => !touched.contains(&(*o, *l)),
            _ => false,
        })
        .collect();
    assert!(eligible.len() >= n, "view has too few stable rows");
    let mut rng = Rng::seed_from_u64(seed ^ 0x005e_ed0f_4ead);
    (0..n)
        .map(|_| {
            let r = eligible[rng.gen_range(0..eligible.len())];
            (key_of(r, view.key_cols()), r.clone())
        })
        .collect()
}

/// One read query: look every key up in its pinned view; each must hit
/// with the expected row. Returns the lookup time in nanoseconds.
pub fn lookups(view: &SnapshotView, keys: &[(Vec<Datum>, Row)], tally: &mut Tally) -> u64 {
    let mut ns = 0;
    let mut all_hit = true;
    for (key, want) in keys {
        let _s = trace::span("snapshot.lookup");
        let t = Instant::now();
        let got = view.get_by_key(key);
        ns += t.elapsed().as_nanos() as u64;
        all_hit &= got == Some(want);
    }
    tally.check("every lookup of a stable key hits with its row", all_hit);
    ns
}

/// Digest of every view of a pinned snapshot, keyed by view name.
pub fn views_digest(snaps: &[&Snapshot], out: &mut StateDigest) {
    for snap in snaps {
        for v in snap.views() {
            out.entry(format!("view:{}", v.name()))
                .or_default()
                .merge(Digest::of_rows(v.wide_rows()));
        }
    }
}

/// Digest of a base table's rows, keyed by table name.
pub fn table_digest(catalogs: &[&Catalog], table: &str, out: &mut StateDigest) {
    let d = out.entry(format!("table:{table}")).or_default();
    for c in catalogs {
        for row in c.table(table).expect("table exists").iter_rows() {
            d.add_row(&row);
        }
    }
}

/// Read-query measurements. Latency counts untraced queries only, so the
/// traced half of a traced run does not skew it; the per-layer parts
/// count traced queries only.
#[derive(Debug, Default)]
pub struct Reads {
    pub latency_ms: Vec<f64>,
    pub pin_ms: Vec<f64>,
    pub lookup_ns: u64,
    pub traced_queries: usize,
}

impl Reads {
    pub fn record(&mut self, traced: bool, latency_ms: f64, pin_ms: f64, lookup_ns: u64) {
        if traced {
            self.pin_ms.push(pin_ms);
            self.lookup_ns += lookup_ns;
            self.traced_queries += 1;
        } else {
            self.latency_ms.push(latency_ms);
        }
    }

    pub fn report(&self, m: &mut Metrics) {
        set(m, "read_ms_p50", median(&self.latency_ms));
        set(m, "read_ms_p90", quantile(&self.latency_ms, 0.9));
        set(m, "snapshot.pin_ms", median(&self.pin_ms));
        let lookups = (self.traced_queries * READ_KEYS).max(1) as f64;
        set(m, "snapshot.lookup_us", ms(self.lookup_ns) * 1e3 / lookups);
    }
}

/// One read query from the writer thread between commits: pin the newest
/// snapshot, look the keys up, release the pin before the next commit.
pub fn query_between_commits(
    registry: &SnapshotRegistry,
    view: &str,
    keys: &[(Vec<Datum>, Row)],
    traced: bool,
    tally: &mut Tally,
    reads: &mut Reads,
) -> Option<()> {
    let _q = trace::span("reader.query");
    let q0 = Instant::now();
    let snap = {
        let _s = trace::span("snapshot.pin");
        registry.pin()
    };
    let pin_ms = q0.elapsed().as_secs_f64() * 1e3;
    let snap = tally.op("pin", snap)?;
    let ns = lookups(snap.view(view).expect("view registered"), keys, tally);
    drop(snap);
    reads.record(traced, q0.elapsed().as_secs_f64() * 1e3, pin_ms, ns);
    Some(())
}
