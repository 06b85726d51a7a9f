//! Durable maintenance: a [`ShardedDatabase`] fronted by write-ahead logs
//! and periodic checkpoints, with crash recovery replayed through the
//! *incremental* maintenance engine. One protocol serves every shard count
//! N ≥ 1; [`DurableDatabase`] is its single-shard handle and
//! [`ShardedDurableDatabase`] its routed one. Every difference between the
//! two cases below is decided from N alone.
//!
//! # Log topology
//!
//! Every shard owns a WAL and checkpoints in its own [`Vfs`] directory.
//! The WAL holds the shard's applied delta batches as [`REC_UPDATE`]
//! records.
//!
//! * **N = 1** — there is no coordinator. The shard WAL is flushed per
//!   [`ojv_durability::FsyncPolicy`] and its LSN is the commit LSN: one
//!   fsync per commit under `FsyncPolicy::Always`.
//! * **N > 1** — shard appends never fsync themselves. A separate
//!   **coordinator** stream holds one [`REC_GROUP`] record per logical
//!   commit: the vector of per-shard last-LSNs as of that commit. The
//!   coordinator record's own LSN *is* the global commit LSN.
//!
//! Either way the commit LSN is the LSN every shard's snapshot registry
//! publishes at, so durable LSNs and snapshot LSNs are one clock.
//!
//! # Commit
//!
//! Every base-table change flows through `insert` / `delete` / `update`:
//!
//! 1. the batch is validated, routed and applied to the owner shards'
//!    in-memory catalogs (constraints enforced, per-shard deltas computed),
//! 2. each touched shard's delta is appended to its WAL;
//! 3. at N > 1, **one fsync per touched shard** (the cross-shard barrier),
//!    then one coordinator append + fsync of the group record — the commit
//!    point. A commit touching K shards costs K+1 fsyncs, however many rows
//!    it carries;
//! 4. views are maintained incrementally and every shard publishes at the
//!    commit LSN; deferred views enqueue the delta.
//!
//! A crash after the commit point loses nothing: recovery replays the
//! logged deltas through the same maintenance path the live system uses,
//! so the recovered stores are *byte-identical* to an uncrashed twin — not
//! merely set-equal. A crash before it loses only RAM state that was never
//! acknowledged as durable. If a log write *fails* (I/O error, framing
//! limit), RAM is ahead of the log and recovery could never reproduce it:
//! the database **poisons** itself — every later durable operation,
//! including `checkpoint`, returns [`CoreError::Poisoned`] — so the
//! diverged image can neither grow nor be snapshotted; reopening from the
//! logs lands on the last consistent state.
//!
//! # Checkpoints and recovery
//!
//! A checkpoint serializes each shard's catalog and view stores (rows in
//! heap order plus the canonical count-index snapshot) stamped with the
//! shard's WAL head, then prunes WAL segments and older checkpoints; at
//! N > 1 the coordinator checkpoint pins the matching floor vector and the
//! routing spec. DDL (`create_view`, `create_deferred_view`) checkpoints
//! immediately — view definitions live in snapshots, not the log.
//!
//! Recovery restores each shard from its checkpoint and replays its WAL
//! tail. At N > 1 it converges on the **group-commit floor**: the newest
//! durable group record (global LSN `G`, floor vector `F`) bounds each
//! shard's replay at `F[s]`. Shard records above the floor (fsynced when
//! the crash hit before the group record was) are discarded, and a fresh
//! shard checkpoint is written over them so they can never resurface. A
//! shard log ending *below* its floor is real corruption (the group record
//! vouched for it) and fails recovery. All N shards land on exactly the
//! commits `≤ G`.
//!
//! Recovery also guards against a log cut *below* its checkpoint's LSN (a
//! corrupt record in a segment that survived pruning): the WAL then resumes
//! at `checkpoint_lsn + 1` via [`Wal::begin_after`] instead of re-issuing
//! LSNs the replay filter would silently skip.
//!
//! # Deferred views
//!
//! Deferred views live on the single-shard path. A deferred view's
//! *pending queue* is never checkpointed. Its snapshot carries a **refresh
//! watermark**: the LSN of the last update reflected in the view's store.
//! Recovery re-enqueues every logged update with `lsn > watermark`, and
//! replays [`REC_REFRESH`] markers by re-running the deterministic
//! [`DeferredView::refresh`] — so a refresh that was durable before the
//! crash is durable after it, and one that was not is simply re-done from
//! the queue. Replaying the same WAL tail twice (the idempotence the
//! watermark buys) cannot double-apply a batch.

use ojv_durability::{
    is_checkpoint_file, is_segment_file, prune_checkpoints, read_latest_checkpoint,
    write_checkpoint, DurabilityError, FsyncPolicy, Lsn, Vfs, Wal, WalOptions, WalRecord, WalScan,
};
use ojv_rel::{key_of, put_row, put_str, put_u32, put_u64, ByteReader, Datum, RelError, Row};
use ojv_storage::{
    decode_catalog, decode_update, encode_catalog, encode_update, Catalog, Update, UpdateOp,
};

use crate::database::Database;
use crate::deferred::DeferredView;
use crate::error::{CoreError, Result};
use crate::maintain::MaintenanceReport;
use crate::materialize::MaterializedView;
use crate::policy::MaintenancePolicy;
use crate::shard::{RoutingSpec, ShardedDatabase, ShardedSnapshot};
use crate::view_def::{NamedAtom, ViewDef, ViewExpr};
use ojv_algebra::{CmpOp, JoinKind};

/// WAL record kind: one applied base-table update batch.
/// Payload: `[u8 flags][encoded Update]` (see [`ojv_storage::encode_update`]).
pub const REC_UPDATE: u8 = 1;

/// WAL record kind: a deferred view completed a refresh.
/// Payload: `[str view name][u64 up_to_lsn]`.
pub const REC_REFRESH: u8 = 2;

/// Coordinator WAL record kind: one group commit.
/// Payload: `[u32 shard_count][u64 local last-LSN per shard]`.
pub const REC_GROUP: u8 = 3;

/// `REC_UPDATE` flag bit: this batch is half of an SQL `UPDATE`
/// decomposition, so replay must disable the §6 FK fast paths exactly as
/// the original run did.
const FLAG_UPDATE_DECOMPOSITION: u8 = 1;

fn codec_err(detail: impl Into<String>) -> CoreError {
    CoreError::Rel(RelError::Codec {
        detail: detail.into(),
    })
}

fn corrupt(file: impl Into<String>, detail: impl Into<String>) -> CoreError {
    CoreError::Durability(DurabilityError::Corrupt {
        file: file.into(),
        detail: detail.into(),
    })
}

fn fit_u32(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| codec_err(format!("{what} of {n} exceeds u32 framing")))
}

// ---------------------------------------------------------------------------
// View definition codec
// ---------------------------------------------------------------------------

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_from_tag(tag: u8) -> Result<CmpOp> {
    Ok(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        other => return Err(codec_err(format!("unknown comparison tag {other}"))),
    })
}

fn join_tag(kind: JoinKind) -> u8 {
    match kind {
        JoinKind::Inner => 0,
        JoinKind::LeftOuter => 1,
        JoinKind::RightOuter => 2,
        JoinKind::FullOuter => 3,
        JoinKind::LeftSemi => 4,
        JoinKind::LeftAnti => 5,
    }
}

fn join_from_tag(tag: u8) -> Result<JoinKind> {
    Ok(match tag {
        0 => JoinKind::Inner,
        1 => JoinKind::LeftOuter,
        2 => JoinKind::RightOuter,
        3 => JoinKind::FullOuter,
        4 => JoinKind::LeftSemi,
        5 => JoinKind::LeftAnti,
        other => return Err(codec_err(format!("unknown join-kind tag {other}"))),
    })
}

fn put_atom(buf: &mut Vec<u8>, atom: &NamedAtom) -> Result<()> {
    match atom {
        NamedAtom::Cols { left, op, right } => {
            buf.push(0);
            put_str(buf, &left.0)?;
            put_str(buf, &left.1)?;
            buf.push(cmp_tag(*op));
            put_str(buf, &right.0)?;
            put_str(buf, &right.1)?;
        }
        NamedAtom::Const { col, op, value } => {
            buf.push(1);
            put_str(buf, &col.0)?;
            put_str(buf, &col.1)?;
            buf.push(cmp_tag(*op));
            ojv_rel::put_datum(buf, value)?;
        }
        NamedAtom::Between { col, lo, hi } => {
            buf.push(2);
            put_str(buf, &col.0)?;
            put_str(buf, &col.1)?;
            ojv_rel::put_datum(buf, lo)?;
            ojv_rel::put_datum(buf, hi)?;
        }
    }
    Ok(())
}

fn read_atom(r: &mut ByteReader<'_>) -> Result<NamedAtom> {
    let tag = r.u8("atom tag")?;
    Ok(match tag {
        0 => {
            let lt = r.str("atom left table")?.to_string();
            let lc = r.str("atom left column")?.to_string();
            let op = cmp_from_tag(r.u8("atom cmp")?)?;
            let rt = r.str("atom right table")?.to_string();
            let rc = r.str("atom right column")?.to_string();
            NamedAtom::Cols {
                left: (lt, lc),
                op,
                right: (rt, rc),
            }
        }
        1 => {
            let t = r.str("atom table")?.to_string();
            let c = r.str("atom column")?.to_string();
            let op = cmp_from_tag(r.u8("atom cmp")?)?;
            let value = r.datum()?;
            NamedAtom::Const {
                col: (t, c),
                op,
                value,
            }
        }
        2 => {
            let t = r.str("atom table")?.to_string();
            let c = r.str("atom column")?.to_string();
            let lo = r.datum()?;
            let hi = r.datum()?;
            NamedAtom::Between {
                col: (t, c),
                lo,
                hi,
            }
        }
        other => return Err(codec_err(format!("unknown atom tag {other}"))),
    })
}

fn put_atoms(buf: &mut Vec<u8>, atoms: &[NamedAtom]) -> Result<()> {
    put_u32(buf, fit_u32(atoms.len(), "atom count")?);
    for a in atoms {
        put_atom(buf, a)?;
    }
    Ok(())
}

fn read_atoms(r: &mut ByteReader<'_>) -> Result<Vec<NamedAtom>> {
    let n = r.u32("atom count")? as usize; // lint:allow(cast) — u32 widens into usize
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(read_atom(r)?);
    }
    Ok(out)
}

fn put_expr(buf: &mut Vec<u8>, expr: &ViewExpr) -> Result<()> {
    match expr {
        ViewExpr::Table(name) => {
            buf.push(0);
            put_str(buf, name)?;
        }
        ViewExpr::Select(atoms, input) => {
            buf.push(1);
            put_atoms(buf, atoms)?;
            put_expr(buf, input)?;
        }
        ViewExpr::Join(kind, on, left, right) => {
            buf.push(2);
            buf.push(join_tag(*kind));
            put_atoms(buf, on)?;
            put_expr(buf, left)?;
            put_expr(buf, right)?;
        }
    }
    Ok(())
}

fn read_expr(r: &mut ByteReader<'_>) -> Result<ViewExpr> {
    let tag = r.u8("expr tag")?;
    Ok(match tag {
        0 => ViewExpr::Table(r.str("table name")?.to_string()),
        1 => {
            let atoms = read_atoms(r)?;
            let input = read_expr(r)?;
            ViewExpr::Select(atoms, Box::new(input))
        }
        2 => {
            let kind = join_from_tag(r.u8("join kind")?)?;
            let on = read_atoms(r)?;
            let left = read_expr(r)?;
            let right = read_expr(r)?;
            ViewExpr::Join(kind, on, Box::new(left), Box::new(right))
        }
        other => return Err(codec_err(format!("unknown expr tag {other}"))),
    })
}

/// Encode a view definition (name, SPOJ tree, optional projection).
pub fn encode_view_def(def: &ViewDef) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    put_str(&mut buf, def.name())?;
    put_expr(&mut buf, def.expr())?;
    match def.projection() {
        None => buf.push(0),
        Some(cols) => {
            buf.push(1);
            put_u32(&mut buf, fit_u32(cols.len(), "projection count")?);
            for (t, c) in cols {
                put_str(&mut buf, t)?;
                put_str(&mut buf, c)?;
            }
        }
    }
    Ok(buf)
}

/// Decode a view definition, requiring the buffer be fully consumed.
pub fn decode_view_def(data: &[u8]) -> Result<ViewDef> {
    let mut r = ByteReader::new(data);
    let name = r.str("view name")?.to_string();
    let expr = read_expr(&mut r)?;
    let mut def = ViewDef::new(&name, expr);
    if r.u8("projection flag")? != 0 {
        let n = r.u32("projection count")? as usize; // lint:allow(cast) — u32 widens into usize
        let mut cols = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let t = r.str("projection table")?.to_string();
            let c = r.str("projection column")?.to_string();
            cols.push((t, c));
        }
        def = def.with_projection(cols.iter().map(|(t, c)| (t.as_str(), c.as_str())).collect());
    }
    if !r.is_empty() {
        return Err(codec_err(format!(
            "{} trailing bytes after view definition",
            r.remaining()
        )));
    }
    Ok(def)
}

// ---------------------------------------------------------------------------
// State snapshot codec (checkpoint payload)
// ---------------------------------------------------------------------------

type IndexSnapshot = Vec<(Vec<usize>, Vec<(Vec<Datum>, usize)>)>;

struct ViewSection {
    def: ViewDef,
    rows: Vec<Row>,
    indexes: IndexSnapshot,
}

fn put_view_section(buf: &mut Vec<u8>, view: &MaterializedView) -> Result<()> {
    let def_bytes = encode_view_def(view.def())?;
    put_u32(buf, fit_u32(def_bytes.len(), "view def length")?);
    buf.extend_from_slice(&def_bytes);
    let rows = view.wide_rows();
    put_u32(buf, fit_u32(rows.len(), "view row count")?);
    for row in rows {
        put_row(buf, row)?;
    }
    // The count indexes are *derivable* from the rows, but they are part of
    // the state the acceptance tests compare byte-for-byte, so they are in
    // the snapshot — restore rebuilds them and cross-checks (below).
    let indexes = view.store().count_index_snapshot();
    put_u32(buf, fit_u32(indexes.len(), "index count")?);
    for (cols, entries) in &indexes {
        put_u32(buf, fit_u32(cols.len(), "index column count")?);
        for &c in cols {
            put_u32(buf, fit_u32(c, "index column")?);
        }
        put_u32(buf, fit_u32(entries.len(), "index entry count")?);
        for (key, count) in entries {
            put_row(buf, key)?;
            let count = u64::try_from(*count).map_err(|_| codec_err("count exceeds u64"))?;
            put_u64(buf, count);
        }
    }
    Ok(())
}

fn read_view_section(r: &mut ByteReader<'_>) -> Result<ViewSection> {
    let def_len = r.u32("view def length")? as usize; // lint:allow(cast) — u32 widens into usize
    let def = decode_view_def(r.bytes(def_len, "view def")?)?;
    let n_rows = r.u32("view row count")? as usize; // lint:allow(cast) — u32 widens into usize
    let mut rows = Vec::with_capacity(n_rows.min(r.remaining()));
    for _ in 0..n_rows {
        rows.push(r.row()?);
    }
    let n_idx = r.u32("index count")? as usize; // lint:allow(cast) — u32 widens into usize
    let mut indexes = Vec::with_capacity(n_idx.min(r.remaining()));
    for _ in 0..n_idx {
        let n_cols = r.u32("index column count")? as usize; // lint:allow(cast) — u32 widens into usize
        let mut cols = Vec::with_capacity(n_cols.min(r.remaining()));
        for _ in 0..n_cols {
            cols.push(r.u32("index column")? as usize); // lint:allow(cast) — u32 widens into usize
        }
        let n_entries = r.u32("index entry count")? as usize; // lint:allow(cast) — u32 widens into usize
        let mut entries = Vec::with_capacity(n_entries.min(r.remaining()));
        for _ in 0..n_entries {
            let key = r.row()?;
            let count = usize::try_from(r.u64("index count value")?)
                .map_err(|_| codec_err("index count exceeds usize"))?;
            entries.push((key, count));
        }
        indexes.push((cols, entries));
    }
    Ok(ViewSection { def, rows, indexes })
}

struct DecodedState {
    catalog: Catalog,
    views: Vec<ViewSection>,
    deferred: Vec<(ViewSection, Lsn)>,
}

fn encode_state(db: &Database, deferred: &[DurableDeferred]) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    let cat = encode_catalog(db.catalog())?;
    put_u32(&mut buf, fit_u32(cat.len(), "catalog length")?);
    buf.extend_from_slice(&cat);
    let views: Vec<&MaterializedView> = db.views().collect();
    put_u32(&mut buf, fit_u32(views.len(), "view count")?);
    for v in views {
        put_view_section(&mut buf, v)?;
    }
    put_u32(&mut buf, fit_u32(deferred.len(), "deferred view count")?);
    for d in deferred {
        put_view_section(&mut buf, d.dv.view())?;
        put_u64(&mut buf, d.watermark);
    }
    Ok(buf)
}

fn decode_state(data: &[u8]) -> Result<DecodedState> {
    let mut r = ByteReader::new(data);
    let cat_len = r.u32("catalog length")? as usize; // lint:allow(cast) — u32 widens into usize
    let catalog = decode_catalog(r.bytes(cat_len, "catalog")?)?;
    let n_views = r.u32("view count")? as usize; // lint:allow(cast) — u32 widens into usize
    let mut views = Vec::with_capacity(n_views.min(r.remaining()));
    for _ in 0..n_views {
        views.push(read_view_section(&mut r)?);
    }
    let n_def = r.u32("deferred view count")? as usize; // lint:allow(cast) — u32 widens into usize
    let mut deferred = Vec::with_capacity(n_def.min(r.remaining()));
    for _ in 0..n_def {
        let section = read_view_section(&mut r)?;
        let watermark = r.u64("refresh watermark")?;
        deferred.push((section, watermark));
    }
    if !r.is_empty() {
        return Err(codec_err(format!(
            "{} trailing bytes after state snapshot",
            r.remaining()
        )));
    }
    Ok(DecodedState {
        catalog,
        views,
        deferred,
    })
}

/// Rebuild a view from a snapshot section and cross-check the rebuilt count
/// indexes against the checkpointed ones (a cheap end-to-end integrity
/// check: rows and indexes were serialized independently).
fn restore_view(catalog: &Catalog, section: ViewSection) -> Result<MaterializedView> {
    let view = MaterializedView::restore(catalog, section.def, section.rows)?;
    if view.store().count_index_snapshot() != section.indexes {
        return Err(corrupt(
            "checkpoint",
            format!(
                "count indexes of view {} do not match its checkpointed rows",
                view.name()
            ),
        ));
    }
    Ok(view)
}

// ---------------------------------------------------------------------------
// Coordinator codecs (N > 1)
// ---------------------------------------------------------------------------

fn encode_group(floors: &[Lsn]) -> Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(4 + 8 * floors.len());
    put_u32(&mut buf, fit_u32(floors.len(), "shard count")?);
    for &f in floors {
        put_u64(&mut buf, f);
    }
    Ok(buf)
}

fn decode_group(rec: &WalRecord, shards: usize) -> Result<Vec<Lsn>> {
    let mut r = ByteReader::new(&rec.payload);
    let n = r.u32("group shard count").map_err(CoreError::Rel)? as usize; // lint:allow(cast) — u32 widens into usize
    if n != shards {
        return Err(corrupt(
            "coordinator wal",
            format!(
                "group record at lsn {} names {n} shards, directory has {shards}",
                rec.lsn
            ),
        ));
    }
    let mut floors = Vec::with_capacity(n);
    for _ in 0..n {
        floors.push(r.u64("group shard floor").map_err(CoreError::Rel)?);
    }
    Ok(floors)
}

/// Coordinator checkpoint payload: the constraint flag, the floor vector as
/// of the checkpoint, and the routing spec (the one piece of façade state
/// that lives in no shard).
fn encode_coord_state(enforce: bool, floors: &[Lsn], routing: &RoutingSpec) -> Result<Vec<u8>> {
    let mut buf = vec![u8::from(enforce)];
    buf.extend_from_slice(&encode_group(floors)?);
    let entries: Vec<(&str, &[String])> = routing.entries().collect();
    put_u32(&mut buf, fit_u32(entries.len(), "table count")?);
    for (table, cols) in entries {
        put_str(&mut buf, table)?;
        put_u32(&mut buf, fit_u32(cols.len(), "column count")?);
        for c in cols {
            put_str(&mut buf, c)?;
        }
    }
    Ok(buf)
}

fn decode_coord_state(data: &[u8]) -> Result<(bool, Vec<Lsn>, RoutingSpec)> {
    let mut r = ByteReader::new(data);
    let enforce = r.u8("enforce flag").map_err(CoreError::Rel)? != 0;
    let n = r.u32("shard count").map_err(CoreError::Rel)? as usize; // lint:allow(cast) — u32 widens into usize
    let mut floors = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        floors.push(r.u64("shard floor").map_err(CoreError::Rel)?);
    }
    let n_tables = r.u32("table count").map_err(CoreError::Rel)? as usize; // lint:allow(cast) — u32 widens into usize
    let mut routing = RoutingSpec::new();
    for _ in 0..n_tables {
        let table = r.str("routing table").map_err(CoreError::Rel)?.to_string();
        let n_cols = r.u32("routing column count").map_err(CoreError::Rel)? as usize; // lint:allow(cast) — u32 widens into usize
        let mut cols = Vec::with_capacity(n_cols.min(r.remaining()));
        for _ in 0..n_cols {
            cols.push(r.str("routing column").map_err(CoreError::Rel)?);
        }
        routing = routing.table(&table, &cols);
    }
    if !r.is_empty() {
        return Err(codec_err(format!(
            "{} trailing bytes after coordinator state",
            r.remaining()
        )));
    }
    Ok((enforce, floors, routing))
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

struct DurableDeferred {
    dv: DeferredView,
    /// LSN of the newest WAL record reflected in the view's store (set by
    /// refresh / view creation). Pending entries are exactly the logged
    /// updates with a greater LSN.
    watermark: Lsn,
}

/// What recovery found and did in one shard's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// High-water LSN of the checkpoint the state was loaded from.
    pub checkpoint_lsn: Lsn,
    /// `REC_UPDATE` records re-applied to the catalog and eager views.
    pub replayed_updates: usize,
    /// Update batches re-enqueued onto deferred views' pending queues.
    pub reenqueued: usize,
    /// `REC_REFRESH` markers replayed through [`DeferredView::refresh`].
    pub replayed_refreshes: usize,
    /// Newest LSN in the recovered log (0 if the log was empty).
    pub last_lsn: Lsn,
    /// Why the WAL tail was cut, when a torn/corrupt record was found.
    pub wal_truncated: Option<String>,
}

/// What recovery found and did across all shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedRecoveryReport {
    /// The commit LSN all shards converged on: at N > 1 the global LSN of
    /// the newest durable group record, at N = 1 the shard's last replayed
    /// commit.
    pub group_lsn: Lsn,
    /// High-water LSN of the coordinator checkpoint (N = 1: the shard's).
    pub checkpoint_lsn: Lsn,
    /// Shard WAL records re-applied (across all shards).
    pub replayed_updates: usize,
    /// Shard WAL records above the group floor, discarded: their shard WAL
    /// was fsynced but the crash hit before the group record was.
    pub discarded_records: usize,
    /// Per-stream torn/corrupt-tail reasons (index N = coordinator, when
    /// N > 1).
    pub truncated: Vec<Option<String>>,
}

/// Rebuild one shard from its checkpoint payload. The snapshot-LSN clock is
/// anchored at `anchor` before views are installed, so restored chains
/// register there and replayed batches land on the LSNs the original run
/// produced.
fn restore_state(
    data: &[u8],
    policy: MaintenancePolicy,
    anchor: Lsn,
) -> Result<(Database, Vec<DurableDeferred>)> {
    let state = decode_state(data)?;
    let mut db = Database::new(state.catalog);
    db.policy = policy;
    db.set_commit_lsn(anchor);
    for section in state.views {
        let view = restore_view(db.catalog(), section)?;
        db.install_view(view)?;
    }
    let mut deferred = Vec::with_capacity(state.deferred.len());
    for (section, watermark) in state.deferred {
        let view = restore_view(db.catalog(), section)?;
        deferred.push(DurableDeferred {
            dv: DeferredView::new(view),
            watermark,
        });
    }
    Ok((db, deferred))
}

/// Replay one shard WAL record. `publish` is set when the shard log is the
/// commit clock (N = 1): each replayed batch publishes at its own LSN,
/// exactly as the live commit did. At N > 1 the shards publish once, at the
/// group LSN, after replay.
fn replay_record(
    db: &mut Database,
    deferred: &mut [DurableDeferred],
    ckpt_lsn: Lsn,
    rec: &WalRecord,
    publish: bool,
    report: &mut RecoveryReport,
) -> Result<()> {
    match rec.kind {
        REC_UPDATE => {
            // Batches newer than a deferred view's refresh watermark belong
            // on its queue even below the checkpoint (queues are rebuilt
            // from the log, never checkpointed); nothing else needs them.
            if rec.lsn <= ckpt_lsn && deferred.iter().all(|d| rec.lsn <= d.watermark) {
                return Ok(());
            }
            let mut r = ByteReader::new(&rec.payload);
            let flags = r.u8("update flags").map_err(CoreError::Rel)?;
            let update = decode_update(rec.payload.get(1..).unwrap_or(&[]), db.catalog())?;
            if rec.lsn > ckpt_lsn {
                // Not reflected in the checkpoint: re-apply to the catalog
                // and re-run eager maintenance, exactly as the original call
                // did.
                match update.op {
                    UpdateOp::Insert => {
                        db.catalog_mut()
                            .insert(&update.table, update.rows.rows().to_vec())?;
                    }
                    UpdateOp::Delete => {
                        let key_cols = db.catalog().table(&update.table)?.key_cols().to_vec();
                        let keys: Vec<Vec<Datum>> = update
                            .rows
                            .rows()
                            .iter()
                            .map(|row| key_of(row, &key_cols))
                            .collect();
                        db.catalog_mut().delete(&update.table, &keys)?;
                    }
                }
                let saved = db.policy;
                if flags & FLAG_UPDATE_DECOMPOSITION != 0 {
                    db.policy.update_decomposition = true;
                }
                let maintained = if publish {
                    db.maintain_update_at(&update, rec.lsn)
                } else {
                    db.maintain_views_only(&update)
                };
                db.policy = saved;
                maintained?;
                report.replayed_updates += 1;
            }
            for d in deferred.iter_mut() {
                if rec.lsn > d.watermark {
                    let before = d.dv.pending_len();
                    d.dv.enqueue(&update);
                    report.reenqueued += d.dv.pending_len() - before;
                }
            }
        }
        REC_REFRESH => {
            let mut r = ByteReader::new(&rec.payload);
            let name = r
                .str("refresh view name")
                .map_err(CoreError::Rel)?
                .to_string();
            let up_to = r.u64("refresh up-to lsn").map_err(CoreError::Rel)?;
            if rec.lsn > ckpt_lsn {
                let policy = db.policy;
                let d = deferred
                    .iter_mut()
                    .find(|d| d.dv.view().name() == name)
                    .ok_or(CoreError::UnknownView { view: name })?;
                // Deterministic re-run: the queue holds exactly the batches
                // the original refresh consumed, and the catalog is in the
                // state it was in at the marker's position.
                d.dv.refresh(db.catalog(), &policy)?;
                d.watermark = up_to;
                report.replayed_refreshes += 1;
            }
        }
        other => {
            return Err(corrupt(
                "wal",
                format!("unknown WAL record kind {other} at lsn {}", rec.lsn),
            ))
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The protocol
// ---------------------------------------------------------------------------

/// One WAL stream and the directory it lives in.
struct Log<V: Vfs> {
    vfs: V,
    wal: Wal,
}

fn wal_options(fsync: FsyncPolicy) -> WalOptions {
    WalOptions {
        policy: fsync,
        ..WalOptions::default()
    }
}

/// Fail if `vfs` already holds WAL segments or checkpoints: writing a fresh
/// log over them would leave a mixed-generation directory a later `open`
/// could misread.
fn refuse_used_directory<V: Vfs>(vfs: &V, detail: &str) -> Result<()> {
    match vfs
        .list()?
        .into_iter()
        .find(|n| is_segment_file(n) || is_checkpoint_file(n))
    {
        Some(name) => Err(corrupt(name, detail)),
        None => Ok(()),
    }
}

impl<V: Vfs> Log<V> {
    fn create(mut vfs: V, fsync: FsyncPolicy) -> Result<Self> {
        let wal = Wal::create(&mut vfs, wal_options(fsync), 1)?;
        Ok(Log { vfs, wal })
    }

    /// Open the log behind a checkpoint at `ckpt_lsn` and scan its tail.
    fn open(mut vfs: V, fsync: FsyncPolicy, ckpt_lsn: Lsn) -> Result<(Self, WalScan)> {
        let (mut wal, scan) = Wal::open(&mut vfs, wal_options(fsync), ckpt_lsn + 1)?;
        if wal.next_lsn() <= ckpt_lsn {
            // A corrupt record *below* the checkpoint LSN cut the scan short
            // (its segment survives pruning while any deferred watermark is
            // older). Appending at an already-checkpointed LSN would create
            // records the `lsn > ckpt_lsn` replay filter silently skips on
            // the next open — acknowledged data lost. The checkpoint vouches
            // for every LSN at or below its own, so resume the log past it;
            // surviving earlier records stay on disk for deferred-queue
            // rebuilds.
            wal.begin_after(&mut vfs, ckpt_lsn + 1)?;
        }
        Ok((Log { vfs, wal }, scan))
    }

    /// Append an applied update batch as a [`REC_UPDATE`] record.
    fn append_update(&mut self, update: &Update, flags: u8) -> Result<Lsn> {
        let body = encode_update(update)?;
        let mut payload = Vec::with_capacity(1 + body.len());
        payload.push(flags);
        payload.extend_from_slice(&body);
        Ok(self.wal.append(&mut self.vfs, REC_UPDATE, &payload)?)
    }

    /// Make the log durable, write `payload` as a checkpoint stamped with
    /// the log head, then prune what no recovery can need: segments whose
    /// records all sit at or below both the head and `retain_above` (the
    /// oldest deferred watermark), and older checkpoints. Returns the head.
    fn checkpoint(&mut self, payload: &[u8], retain_above: Lsn) -> Result<Lsn> {
        self.wal.sync(&mut self.vfs)?;
        let head = self.wal.last_lsn();
        write_checkpoint(&mut self.vfs, head, payload)?;
        self.wal
            .prune_below(&mut self.vfs, head.min(retain_above) + 1)?;
        prune_checkpoints(&mut self.vfs, head)?;
        Ok(head)
    }
}

/// The newest durable group record, as the coordinator log recovered it.
struct GroupFloor {
    lsn: Lsn,
    checkpoint_lsn: Lsn,
    /// Per-shard local last-LSN as of `lsn`: each shard's replay ceiling.
    floors: Vec<Lsn>,
    enforce: bool,
    routing: RoutingSpec,
    truncated: Option<String>,
}

fn open_coordinator<V: Vfs>(
    mut vfs: V,
    fsync: FsyncPolicy,
    shards: usize,
) -> Result<(Log<V>, GroupFloor)> {
    let ckpt = read_latest_checkpoint(&mut vfs)?.ok_or_else(|| {
        corrupt(
            "coordinator checkpoint",
            "no valid coordinator checkpoint found (directory never initialized?)",
        )
    })?;
    let (enforce, mut floors, routing) = decode_coord_state(&ckpt.payload)?;
    if floors.len() != shards {
        return Err(corrupt(
            "coordinator checkpoint",
            format!(
                "checkpoint names {} shards, caller supplied {shards} directories",
                floors.len()
            ),
        ));
    }
    let (log, scan) = Log::open(vfs, fsync, ckpt.lsn)?;
    // Fold the group records into the final floor: the newest durable group
    // record defines both the global commit LSN and each shard's replay
    // ceiling.
    let mut lsn = ckpt.lsn;
    for rec in &scan.records {
        if rec.kind != REC_GROUP {
            return Err(corrupt(
                "coordinator wal",
                format!("unknown record kind {} at lsn {}", rec.kind, rec.lsn),
            ));
        }
        if rec.lsn > ckpt.lsn {
            floors = decode_group(rec, shards)?;
            lsn = rec.lsn;
        }
    }
    let floor = GroupFloor {
        lsn,
        checkpoint_lsn: ckpt.lsn,
        floors,
        enforce,
        routing,
        truncated: scan.truncated.map(|t| t.reason),
    };
    Ok((log, floor))
}

/// Record that a durable write failed after an in-memory mutation. The live
/// state can no longer be reproduced by recovery (and later logged deltas
/// would be computed against a catalog replay never sees), so every
/// subsequent durable operation — including `checkpoint`, which would
/// persist the diverged state — is rejected from here on.
fn poison(slot: &mut Option<String>, during: &str, err: CoreError) -> CoreError {
    if slot.is_none() {
        *slot = Some(format!("{during} failed: {err}"));
    }
    err
}

/// Shard 0 — the whole database on the single-shard path.
fn first_shard(db: &ShardedDatabase) -> &Database {
    db.shards().next().expect("a façade has at least one shard")
}

/// The durability protocol for N ≥ 1 shards (see the module docs). Both
/// public handles wrap one of these.
struct Durable<V: Vfs> {
    db: ShardedDatabase,
    /// One log per shard, in shard order.
    logs: Vec<Log<V>>,
    /// The group-commit stream; `Some` exactly when N > 1.
    coord: Option<Log<V>>,
    /// A 1-shard routed handle's coordinator directory, held untouched.
    idle_coord: Option<V>,
    /// Deferred views (single-shard path only).
    deferred: Vec<DurableDeferred>,
    policy: MaintenancePolicy,
    checkpoint_lsn: Lsn,
    /// Set when a durable write failed after an in-memory mutation: RAM is
    /// ahead of the log, so further durable operations are refused (see
    /// [`CoreError::Poisoned`]).
    poisoned: Option<String>,
}

impl<V: Vfs> Durable<V> {
    /// Initialize fresh directories for `db` (one per shard, plus the
    /// coordinator's) and write the genesis checkpoints.
    fn create(
        mut db: ShardedDatabase,
        dirs: Vec<V>,
        coord: Option<V>,
        policy: MaintenancePolicy,
    ) -> Result<Self> {
        for vfs in dirs.iter().chain(&coord) {
            refuse_used_directory(
                vfs,
                "directory already holds a durable database; open() it instead of \
                 create()-ing over it",
            )?;
        }
        let multi = dirs.len() > 1;
        // Shard appends fsync themselves only when there is no group record
        // to make them durable.
        let fsync = if multi {
            FsyncPolicy::Never
        } else {
            policy.fsync
        };
        let logs = dirs
            .into_iter()
            .map(|vfs| Log::create(vfs, fsync))
            .collect::<Result<Vec<_>>>()?;
        let (coord, idle_coord) = match coord {
            Some(vfs) if multi => (Some(Log::create(vfs, policy.fsync)?), None),
            idle => (None, idle),
        };
        db.set_policy(policy);
        let mut this = Durable {
            db,
            logs,
            coord,
            idle_coord,
            deferred: Vec::new(),
            policy,
            checkpoint_lsn: 0,
            poisoned: None,
        };
        this.checkpoint()?;
        Ok(this)
    }

    /// Open existing directories: restore every shard from its checkpoint
    /// and replay its WAL tail, converging on the group floor when N > 1.
    /// Returns the overall report and one report per shard.
    fn open(
        dirs: Vec<V>,
        coord: Option<V>,
        policy: MaintenancePolicy,
    ) -> Result<(Self, ShardedRecoveryReport, Vec<RecoveryReport>)> {
        let n = dirs.len();
        let (coord, idle_coord, group) = match coord {
            Some(vfs) if n > 1 => {
                let (log, group) = open_coordinator(vfs, policy.fsync, n)?;
                (Some(log), None, Some(group))
            }
            idle => {
                if let Some(vfs) = &idle {
                    refuse_used_directory(
                        vfs,
                        "coordinator directory holds a multi-shard log; open it with all \
                         of its shard directories",
                    )?;
                }
                (None, idle, None)
            }
        };
        let fsync = if group.is_some() {
            FsyncPolicy::Never
        } else {
            policy.fsync
        };
        let mut shard_dbs = Vec::with_capacity(n);
        let mut logs = Vec::with_capacity(n);
        let mut reports = Vec::with_capacity(n);
        let mut deferred = Vec::new();
        let mut discarded_records = 0;
        for (s, mut vfs) in dirs.into_iter().enumerate() {
            let ckpt = read_latest_checkpoint(&mut vfs)?.ok_or_else(|| {
                corrupt(
                    "checkpoint",
                    format!("shard {s}: no valid checkpoint found (directory never initialized?)"),
                )
            })?;
            // At N > 1 the checkpoint is stamped with a *local* WAL LSN but
            // the registry runs on the *global* clock: anchor the restored
            // chains at 0 and publish once at the group floor below; pins
            // below the floor die with the crash anyway.
            let anchor = if group.is_some() { 0 } else { ckpt.lsn };
            let (mut db, mut dfr) = restore_state(&ckpt.payload, policy, anchor)?;
            if n > 1 && !dfr.is_empty() {
                return Err(corrupt(
                    "checkpoint",
                    "shard checkpoints cannot carry deferred views",
                ));
            }
            let (mut log, scan) = Log::open(vfs, fsync, ckpt.lsn)?;
            let mut report = RecoveryReport {
                checkpoint_lsn: ckpt.lsn,
                replayed_updates: 0,
                reenqueued: 0,
                replayed_refreshes: 0,
                last_lsn: log.wal.last_lsn(),
                wal_truncated: scan.truncated.map(|t| t.reason),
            };
            // Replay the committed tail. Records above both the checkpoint
            // and the shard's group floor were never group committed.
            let floor = group.as_ref().map_or(Lsn::MAX, |g| g.floors[s]);
            let mut discarded = 0;
            for rec in &scan.records {
                if rec.lsn > floor && rec.lsn > ckpt.lsn {
                    discarded += 1;
                    continue;
                }
                replay_record(
                    &mut db,
                    &mut dfr,
                    ckpt.lsn,
                    rec,
                    group.is_none(),
                    &mut report,
                )?;
            }
            if let Some(g) = &group {
                // WAL scans are LSN-contiguous, so a log ending below its
                // floor lost a record the durable group record vouched for.
                if report.last_lsn < floor {
                    return Err(corrupt(
                        format!("shard{s} wal"),
                        format!(
                            "log ends at lsn {} but the durable group record vouches for {floor}",
                            report.last_lsn
                        ),
                    ));
                }
                // Converge the shard's registry on the global commit LSN so
                // cross-shard snapshots pin cleanly at the group LSN.
                if g.lsn > 0 {
                    db.publish_commit(g.lsn)?;
                }
                db.set_commit_lsn(g.lsn);
                if discarded > 0 {
                    // Bury the uncommitted records: a fresh checkpoint at the
                    // log head covers their LSNs with the *committed* state,
                    // so no later recovery can replay them.
                    log.checkpoint(&encode_state(&db, &[])?, Lsn::MAX)?;
                }
            }
            discarded_records += discarded;
            deferred = dfr;
            shard_dbs.push(db);
            logs.push(log);
            reports.push(report);
        }
        let mut truncated: Vec<Option<String>> =
            reports.iter().map(|r| r.wal_truncated.clone()).collect();
        let (db, checkpoint_lsn) = match group {
            Some(g) => {
                truncated.push(g.truncated);
                (
                    ShardedDatabase::from_recovered(shard_dbs, &g.routing, g.enforce)?,
                    g.checkpoint_lsn,
                )
            }
            None => (
                ShardedDatabase::from_recovered(shard_dbs, &RoutingSpec::new(), false)?,
                reports[0].checkpoint_lsn,
            ),
        };
        let report = ShardedRecoveryReport {
            group_lsn: db.commit_lsn(),
            checkpoint_lsn,
            replayed_updates: reports.iter().map(|r| r.replayed_updates).sum(),
            discarded_records,
            truncated,
        };
        let this = Durable {
            db,
            logs,
            coord,
            idle_coord,
            deferred,
            policy,
            checkpoint_lsn,
            poisoned: None,
        };
        Ok((this, report, reports))
    }

    /// Refuse the operation if an earlier durable-write failure left RAM
    /// ahead of the log.
    fn check_usable(&self) -> Result<()> {
        match &self.poisoned {
            Some(detail) => Err(CoreError::Poisoned {
                detail: detail.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Log the routed per-shard deltas (already applied to the catalogs),
    /// make them durable — at N > 1 through the group-commit barrier — then
    /// maintain and publish every shard at the commit LSN.
    fn commit(&mut self, updates: &[Option<Update>], flags: u8) -> Result<Vec<MaintenanceReport>> {
        // The catalog mutation has already happened: a failure to log it
        // poisons.
        let appended = (|| -> Result<Lsn> {
            let mut lsn = 0;
            for (log, up) in self.logs.iter_mut().zip(updates) {
                if let Some(up) = up {
                    lsn = log.append_update(up, flags)?;
                }
            }
            Ok(lsn)
        })();
        let mut lsn = appended
            .map_err(|e| poison(&mut self.poisoned, "WAL append of an applied update", e))?;
        if let Some(coord) = &mut self.coord {
            // The cross-shard fsync barrier, then the commit point. The group
            // record names every shard's log head (touched or not).
            let logs = &mut self.logs;
            let committed = (|| -> Result<Lsn> {
                for (log, up) in logs.iter_mut().zip(updates) {
                    if up.is_some() {
                        log.wal.sync(&mut log.vfs)?;
                    }
                }
                let floors: Vec<Lsn> = logs.iter().map(|l| l.wal.last_lsn()).collect();
                Ok(coord
                    .wal
                    .append(&mut coord.vfs, REC_GROUP, &encode_group(&floors)?)?)
            })();
            lsn = committed.map_err(|e| poison(&mut self.poisoned, "group-commit barrier", e))?;
        }
        // Maintenance failures do not poison: the deltas are durable, and
        // recovery replays maintenance from them.
        let reports = self.db.maintain_and_publish_at(updates, lsn)?;
        for d in &mut self.deferred {
            for up in updates.iter().flatten() {
                d.dv.enqueue(up);
            }
        }
        Ok(reports)
    }

    fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.check_usable()?;
        let updates = self.db.apply_insert_routed(table, rows)?;
        self.commit(&updates, 0)
    }

    fn delete(&mut self, table: &str, keys: &[Vec<Datum>]) -> Result<Vec<MaintenanceReport>> {
        self.check_usable()?;
        let updates = self.db.apply_delete_routed(table, keys)?;
        self.commit(&updates, 0)
    }

    /// SQL-style `UPDATE`: delete + insert, two commits, both logged with
    /// the decomposition flag so replay disables the §6 fast paths exactly
    /// as the original run did.
    fn update(
        &mut self,
        table: &str,
        keys: &[Vec<Datum>],
        new_rows: Vec<Row>,
    ) -> Result<Vec<MaintenanceReport>> {
        self.check_usable()?;
        let mut decomposed = self.policy;
        decomposed.update_decomposition = true;
        self.db.set_policy(decomposed);
        let result = (|| {
            let del = self.db.apply_delete_routed(table, keys)?;
            let mut reports = self.commit(&del, FLAG_UPDATE_DECOMPOSITION)?;
            let ins = self.db.apply_insert_routed(table, new_rows)?;
            reports.extend(self.commit(&ins, FLAG_UPDATE_DECOMPOSITION)?);
            Ok(reports)
        })();
        self.db.set_policy(self.policy);
        result
    }

    fn create_view(&mut self, def: ViewDef) -> Result<()> {
        self.check_usable()?;
        self.db.create_view(def)?;
        self.checkpoint()
            .map_err(|e| poison(&mut self.poisoned, "checkpoint after view creation", e))?;
        Ok(())
    }

    fn deferred(&self, name: &str) -> Option<&DurableDeferred> {
        self.deferred.iter().find(|d| d.dv.view().name() == name)
    }

    fn create_deferred_view(&mut self, def: ViewDef) -> Result<()> {
        self.check_usable()?;
        let db = first_shard(&self.db);
        if db.view(def.name()).is_some() || self.deferred(def.name()).is_some() {
            return Err(CoreError::DuplicateView {
                view: def.name().to_string(),
            });
        }
        let view = MaterializedView::create(db.catalog(), def)?;
        self.deferred.push(DurableDeferred {
            dv: DeferredView::new(view),
            watermark: self.logs[0].wal.last_lsn(),
        });
        self.checkpoint()
            .map_err(|e| poison(&mut self.poisoned, "checkpoint after view creation", e))?;
        Ok(())
    }

    fn refresh(&mut self, view: &str) -> Result<Vec<MaintenanceReport>> {
        self.check_usable()?;
        let catalog = first_shard(&self.db).catalog();
        let d = self
            .deferred
            .iter_mut()
            .find(|d| d.dv.view().name() == view)
            .ok_or_else(|| CoreError::UnknownView {
                view: view.to_string(),
            })?;
        let reports = d.dv.refresh(catalog, &self.policy)?;
        let log = &mut self.logs[0];
        let up_to = log.wal.last_lsn();
        let mut payload = Vec::new();
        put_str(&mut payload, view)?;
        put_u64(&mut payload, up_to);
        // The refresh above already consumed the pending queue and mutated
        // the store; if the completion marker cannot be logged, the stale
        // watermark must never reach a checkpoint (recovery would re-apply
        // the consumed batches on top of the refreshed rows) — poison.
        log.wal
            .append(&mut log.vfs, REC_REFRESH, &payload)
            .map_err(|e| {
                poison(
                    &mut self.poisoned,
                    "WAL append of a refresh marker",
                    CoreError::Durability(e),
                )
            })?;
        d.watermark = up_to;
        Ok(reports)
    }

    /// Checkpoint every shard at its log head, then (N > 1) the coordinator
    /// with the matching floor vector. Returns the checkpoint's commit LSN.
    fn checkpoint(&mut self) -> Result<Lsn> {
        self.check_usable()?;
        let retain_above = self
            .deferred
            .iter()
            .map(|d| d.watermark)
            .min()
            .unwrap_or(Lsn::MAX);
        let mut floors = Vec::with_capacity(self.logs.len());
        for (log, db) in self.logs.iter_mut().zip(self.db.shards()) {
            floors.push(log.checkpoint(&encode_state(db, &self.deferred)?, retain_above)?);
        }
        let lsn = match &mut self.coord {
            None => floors[0],
            Some(coord) => {
                let payload = encode_coord_state(
                    self.db.enforce_constraints,
                    &floors,
                    &self.db.routing_spec(),
                )?;
                coord.checkpoint(&payload, Lsn::MAX)?
            }
        };
        self.checkpoint_lsn = lsn;
        Ok(lsn)
    }

    /// Flush every stream to stable storage.
    fn sync(&mut self) -> Result<()> {
        for log in self.logs.iter_mut().chain(&mut self.coord) {
            log.wal.sync(&mut log.vfs)?;
        }
        Ok(())
    }

    fn into_vfs(self) -> (Vec<V>, Option<V>) {
        let coord = self.coord.map(|l| l.vfs).or(self.idle_coord);
        (self.logs.into_iter().map(|l| l.vfs).collect(), coord)
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A [`Database`] whose updates survive crashes: the single-shard handle of
/// the durable protocol (one WAL, no coordinator, one fsync per commit
/// under `FsyncPolicy::Always`), with deferred views and a commit observer.
///
/// Generic over the [`Vfs`] so tests drive it against
/// [`ojv_durability::MemVfs`] (and the testkit's fault injector) while
/// production uses [`ojv_durability::DiskVfs`].
pub struct DurableDatabase<V: Vfs> {
    inner: Durable<V>,
}

impl<V: Vfs> DurableDatabase<V> {
    /// Initialize a fresh durable database in an empty directory: writes the
    /// first WAL segment and a checkpoint of the starting catalog.
    ///
    /// Fails if the directory already holds WAL segments or checkpoints —
    /// overwriting the first segment of an existing database while leaving
    /// its later segments and snapshots in place would create a
    /// mixed-generation directory a later [`DurableDatabase::open`] could
    /// misread. Use `open` for existing directories.
    pub fn create(vfs: V, catalog: Catalog, policy: MaintenancePolicy) -> Result<Self> {
        let db = ShardedDatabase::single(Database::new(catalog));
        let inner = Durable::create(db, vec![vfs], None, policy)?;
        Ok(DurableDatabase { inner })
    }

    /// Open an existing durable database: load the latest valid checkpoint,
    /// scan the WAL tail (stopping at the first torn or corrupt record),
    /// and replay the tail through the incremental maintenance engine.
    ///
    /// `policy` must match the one the log was written under for the replay
    /// to reproduce the original plans (the results are identical under any
    /// policy; the *reports* and costs differ).
    pub fn open(vfs: V, policy: MaintenancePolicy) -> Result<(Self, RecoveryReport)> {
        let (inner, _, mut reports) = Durable::open(vec![vfs], None, policy)?;
        let report = reports.pop().expect("one shard, one report");
        Ok((DurableDatabase { inner }, report))
    }

    /// Durable insert: apply to the catalog, log, maintain eager views,
    /// enqueue on deferred views.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.inner.insert(table, rows)
    }

    /// Durable delete by unique key (see [`DurableDatabase::insert`]).
    pub fn delete(&mut self, table: &str, keys: &[Vec<Datum>]) -> Result<Vec<MaintenanceReport>> {
        self.inner.delete(table, keys)
    }

    /// Durable SQL-style `UPDATE` (delete + insert, logged with the
    /// decomposition flag so replay also disables the §6 fast paths).
    pub fn update(
        &mut self,
        table: &str,
        keys: &[Vec<Datum>],
        new_rows: Vec<Row>,
    ) -> Result<Vec<MaintenanceReport>> {
        self.inner.update(table, keys, new_rows)
    }

    /// Create an eagerly-maintained view and checkpoint (definitions live
    /// in snapshots, not the log).
    pub fn create_view(&mut self, def: ViewDef) -> Result<()> {
        self.inner.create_view(def)
    }

    /// Create a deferred view, watermarked at the current log position, and
    /// checkpoint.
    pub fn create_deferred_view(&mut self, def: ViewDef) -> Result<()> {
        self.inner.create_deferred_view(def)
    }

    /// Refresh a deferred view and log the completion marker: after this
    /// returns, a crash-and-recover re-runs the refresh from the same queue
    /// instead of losing it, and a *second* recovery cannot apply the
    /// consumed batches again (watermark idempotence).
    pub fn refresh(&mut self, view: &str) -> Result<Vec<MaintenanceReport>> {
        self.inner.refresh(view)
    }

    /// Write a checkpoint of the full in-memory state, then prune WAL
    /// segments and checkpoints that no recovery can need: records at or
    /// below both the checkpoint LSN and every deferred watermark.
    pub fn checkpoint(&mut self) -> Result<Lsn> {
        self.inner.checkpoint()
    }

    /// Flush every outstanding WAL record to stable storage (useful under
    /// [`FsyncPolicy::EveryN`] before an intentional stop).
    pub fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }

    /// Encoding of the full in-memory state (catalog, eager view stores and
    /// count indexes, deferred stores and watermarks) — exactly the
    /// checkpoint payload. Two databases with byte-equal `state_bytes` hold
    /// identical state — the crash tests compare a recovered database
    /// against its uncrashed twin with exactly this.
    pub fn state_bytes(&self) -> Result<Vec<u8>> {
        encode_state(self.database(), &self.inner.deferred)
    }

    /// The wrapped in-memory database (catalog and eager views).
    pub fn database(&self) -> &Database {
        first_shard(&self.inner.db)
    }

    /// Attach a commit observer to the wrapped database (see
    /// [`Database::attach_commit_observer`]). Under the durable layer the
    /// observer sees *WAL* LSNs, so a change-feed cursor is a durable
    /// position: after a crash and recovery, re-subscribing from the last
    /// drained LSN resumes exactly where the feed left off.
    pub fn attach_commit_observer(
        &mut self,
        obs: std::sync::Arc<dyn crate::snapshot::CommitObserver>,
    ) {
        self.inner.db.shards_mut()[0].attach_commit_observer(obs);
    }

    /// Detach the commit observer, if any.
    pub fn detach_commit_observer(&mut self) {
        self.inner.db.shards_mut()[0].detach_commit_observer();
    }

    /// The shared snapshot registry of the wrapped database. Snapshot LSNs
    /// are WAL LSNs here: a pin at LSN `n` is the view state as of durable
    /// LSN `n`.
    pub fn snapshots(&self) -> &crate::snapshot::SnapshotRegistry {
        self.database().snapshots()
    }

    /// Pin a consistent snapshot of every eager view at the newest durable
    /// LSN.
    pub fn snapshot(&self) -> Result<crate::snapshot::Snapshot> {
        self.database().snapshot()
    }

    /// Pin a consistent snapshot as of durable LSN `lsn`.
    pub fn snapshot_at(&self, lsn: Lsn) -> Result<crate::snapshot::Snapshot> {
        self.database().snapshot_at(lsn)
    }

    /// An eager view by name.
    pub fn view(&self, name: &str) -> Option<&MaterializedView> {
        self.database().view(name)
    }

    /// A deferred view by name (possibly stale; see
    /// [`DurableDatabase::refresh`]).
    pub fn deferred_view(&self, name: &str) -> Option<&DeferredView> {
        self.inner.deferred(name).map(|d| &d.dv)
    }

    /// Refresh watermark of a deferred view.
    pub fn watermark(&self, name: &str) -> Option<Lsn> {
        self.inner.deferred(name).map(|d| d.watermark)
    }

    /// Newest LSN in the log.
    pub fn last_lsn(&self) -> Lsn {
        self.inner.logs[0].wal.last_lsn()
    }

    /// High-water LSN of the newest checkpoint.
    pub fn checkpoint_lsn(&self) -> Lsn {
        self.inner.checkpoint_lsn
    }

    /// Why the database refuses durable operations, if a durable write
    /// failed after an in-memory mutation (see [`CoreError::Poisoned`]).
    pub fn poison_reason(&self) -> Option<&str> {
        self.inner.poisoned.as_deref()
    }

    /// The underlying virtual filesystem (tests inspect files directly).
    pub fn vfs(&self) -> &V {
        &self.inner.logs[0].vfs
    }

    /// Consume the database, returning the filesystem — the fault-injection
    /// tests "crash" by dropping the database and keeping only the bytes.
    pub fn into_vfs(self) -> V {
        let (mut dirs, _) = self.inner.into_vfs();
        dirs.pop().expect("one shard, one directory")
    }
}

/// A [`ShardedDatabase`] whose commits survive crashes: the routed handle
/// of the durable protocol. With N > 1 shard directories it runs per-shard
/// WALs under a group-commit coordinator; with one it takes the
/// coordinator-free single-shard path and leaves the coordinator directory
/// untouched (see the module docs).
pub struct ShardedDurableDatabase<V: Vfs> {
    inner: Durable<V>,
}

impl<V: Vfs> ShardedDurableDatabase<V> {
    /// Initialize a fresh sharded durable database: one directory per shard
    /// plus the coordinator's. Shard count = `shard_vfs.len()`; the
    /// template's rows are routed to their owner shards and every directory
    /// gets its genesis checkpoint. Fails if any directory already holds
    /// WAL segments or checkpoints.
    pub fn create(
        shard_vfs: Vec<V>,
        coord_vfs: V,
        template: &Catalog,
        routing: RoutingSpec,
        policy: MaintenancePolicy,
    ) -> Result<Self> {
        let db = ShardedDatabase::new(template, shard_vfs.len(), routing)?;
        let inner = Durable::create(db, shard_vfs, Some(coord_vfs), policy)?;
        Ok(ShardedDurableDatabase { inner })
    }

    /// Open an existing sharded durable database, converging every shard on
    /// the group-commit LSN floor (see module docs).
    pub fn open(
        shard_vfs: Vec<V>,
        coord_vfs: V,
        policy: MaintenancePolicy,
    ) -> Result<(Self, ShardedRecoveryReport)> {
        let (inner, report, _) = Durable::open(shard_vfs, Some(coord_vfs), policy)?;
        Ok((ShardedDurableDatabase { inner }, report))
    }

    /// Durable insert: route + apply, commit, maintain (see
    /// [`ShardedDatabase::insert`] for the constraint semantics).
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.inner.insert(table, rows)
    }

    /// Durable delete by unique key.
    pub fn delete(&mut self, table: &str, keys: &[Vec<Datum>]) -> Result<Vec<MaintenanceReport>> {
        self.inner.delete(table, keys)
    }

    /// Durable SQL-style `UPDATE` (delete + insert, two commits, both
    /// logged with the decomposition flag).
    pub fn update(
        &mut self,
        table: &str,
        keys: &[Vec<Datum>],
        new_rows: Vec<Row>,
    ) -> Result<Vec<MaintenanceReport>> {
        self.inner.update(table, keys, new_rows)
    }

    /// Create a view on every shard (routing-aligned when N > 1) and
    /// checkpoint immediately — view definitions live in shard checkpoints,
    /// not logs.
    pub fn create_view(&mut self, def: ViewDef) -> Result<()> {
        self.inner.create_view(def)
    }

    /// Checkpoint every shard and (N > 1) the coordinator, then prune the
    /// logs.
    pub fn checkpoint(&mut self) -> Result<Lsn> {
        self.inner.checkpoint()
    }

    /// Flush every stream to stable storage (useful under
    /// [`FsyncPolicy::EveryN`] before an intentional stop).
    pub fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }

    /// The wrapped in-memory façade.
    pub fn database(&self) -> &ShardedDatabase {
        &self.inner.db
    }

    /// Canonical cross-shard state encoding (see
    /// [`ShardedDatabase::state_bytes`]) — recovery compares against an
    /// uncrashed twin with exactly this.
    pub fn state_bytes(&self) -> Result<Vec<u8>> {
        self.inner.db.state_bytes()
    }

    /// Pin a consistent cross-shard snapshot at the newest commit.
    pub fn snapshot(&self) -> Result<ShardedSnapshot> {
        self.inner.db.snapshot()
    }

    /// Global commit LSN (N > 1: the coordinator WAL LSN of the newest
    /// group record; N = 1: the shard WAL LSN of the newest commit).
    pub fn commit_lsn(&self) -> Lsn {
        self.inner.db.commit_lsn()
    }

    /// Why durable operations are refused, if a durable write failed after
    /// an in-memory mutation.
    pub fn poison_reason(&self) -> Option<&str> {
        self.inner.poisoned.as_deref()
    }

    /// Tear the database apart into its filesystems (`N` shard directories
    /// + coordinator) — crash tests keep only the bytes.
    pub fn into_vfs(self) -> (Vec<V>, V) {
        let (dirs, coord) = self.inner.into_vfs();
        (
            dirs,
            coord.expect("a routed handle holds its coordinator directory"),
        )
    }

    /// Per-shard VFS access for fault inspection.
    pub fn shard_vfs(&self, shard: usize) -> &V {
        &self.inner.logs[shard].vfs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::*;
    use ojv_durability::{FsyncPolicy, MemVfs};

    fn policy() -> MaintenancePolicy {
        MaintenancePolicy::default()
    }

    fn seeded() -> Catalog {
        let mut c = example1_catalog();
        populate_example1(&mut c, 6, 9);
        c
    }

    #[test]
    fn view_def_codec_round_trip() {
        let defs = [
            oj_view_def(),
            oj_view_def().with_projection(vec![("part", "p_partkey"), ("orders", "o_orderkey")]),
            ViewDef::new(
                "sel",
                ViewExpr::select(
                    vec![
                        crate::view_def::col_cmp("part", "p_partkey", CmpOp::Lt, 100i64),
                        crate::view_def::col_between("part", "p_retailprice", 1.0, 9.0),
                    ],
                    ViewExpr::table("part"),
                ),
            ),
        ];
        for def in defs {
            let bytes = encode_view_def(&def).unwrap();
            assert_eq!(decode_view_def(&bytes).unwrap(), def);
        }
        assert!(decode_view_def(&[]).is_err());
    }

    #[test]
    fn create_insert_reopen_is_byte_identical() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        d.delete("lineitem", &[vec![Datum::Int(3), Datum::Int(1)]])
            .unwrap();
        let expected = d.state_bytes().unwrap();
        let vfs = d.into_vfs(); // crash: keep only the (synced) bytes

        let (r, report) = DurableDatabase::open(vfs, policy()).unwrap();
        assert_eq!(r.state_bytes().unwrap(), expected);
        assert_eq!(report.replayed_updates, 2);
        assert!(report.wal_truncated.is_none());
    }

    #[test]
    fn checkpoint_bounds_replay() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        d.checkpoint().unwrap();
        d.insert("lineitem", vec![lineitem_row(6, 9, 5, 1, 2.0)])
            .unwrap();
        let expected = d.state_bytes().unwrap();
        let (r, report) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        assert_eq!(report.replayed_updates, 1, "only the post-checkpoint batch");
        assert_eq!(r.state_bytes().unwrap(), expected);
    }

    #[test]
    fn update_decomposition_flag_survives_replay() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_view(oj_view_def()).unwrap();
        d.update(
            "lineitem",
            &[vec![Datum::Int(2), Datum::Int(1)]],
            vec![lineitem_row(2, 1, 3, 99, 1.0)],
        )
        .unwrap();
        let expected = d.state_bytes().unwrap();
        let (r, report) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        assert_eq!(report.replayed_updates, 2);
        assert_eq!(r.state_bytes().unwrap(), expected);
        assert!(crate::maintain::verify_against_recompute(
            r.view("oj_view").unwrap(),
            r.database().catalog()
        ));
    }

    /// The first SQL `UPDATE` compiles nothing, both after `create_view`
    /// and after recovery installs the view from a checkpoint.
    #[test]
    fn first_update_compiles_nothing() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_view(oj_view_def()).unwrap();
        d.checkpoint().unwrap();
        let before = crate::compile::compile_count();
        d.update(
            "lineitem",
            &[vec![Datum::Int(2), Datum::Int(1)]],
            vec![lineitem_row(2, 1, 3, 99, 1.0)],
        )
        .unwrap();
        assert_eq!(crate::compile::compile_count(), before, "after create");
        let (mut r, _) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        let before = crate::compile::compile_count();
        r.update(
            "lineitem",
            &[vec![Datum::Int(2), Datum::Int(1)]],
            vec![lineitem_row(2, 1, 3, 7, 2.0)],
        )
        .unwrap();
        assert_eq!(crate::compile::compile_count(), before, "after recovery");
    }

    #[test]
    fn deferred_queue_rebuilds_from_wal() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_deferred_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        d.insert("lineitem", vec![lineitem_row(6, 9, 5, 1, 2.0)])
            .unwrap();
        assert_eq!(d.deferred_view("oj_view").unwrap().pending_len(), 2);
        let expected = d.state_bytes().unwrap();

        let (r, report) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        // Pending queues are not checkpointed: both batches re-enqueue.
        assert_eq!(report.reenqueued, 2);
        assert_eq!(r.deferred_view("oj_view").unwrap().pending_len(), 2);
        assert_eq!(r.state_bytes().unwrap(), expected);
    }

    #[test]
    fn refresh_watermark_is_idempotent_across_recoveries() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_deferred_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        d.refresh("oj_view").unwrap();
        let expected = d.state_bytes().unwrap();

        // First recovery: the refresh marker replays the (re-enqueued)
        // batch; the result matches the pre-crash state.
        let (r1, rep1) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        assert_eq!(rep1.replayed_refreshes, 1);
        assert!(r1.deferred_view("oj_view").unwrap().is_fresh());
        assert_eq!(r1.state_bytes().unwrap(), expected);

        // Second recovery over the *same* log: the watermark prevents the
        // consumed batch from being applied twice.
        let (r2, rep2) = DurableDatabase::open(r1.into_vfs(), policy()).unwrap();
        assert_eq!(rep2.replayed_refreshes, 1);
        assert_eq!(r2.state_bytes().unwrap(), expected);
        assert!(crate::maintain::verify_against_recompute(
            r2.deferred_view("oj_view").unwrap().view(),
            r2.database().catalog()
        ));
    }

    #[test]
    fn checkpoint_after_refresh_skips_marker_replay() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_deferred_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        d.refresh("oj_view").unwrap();
        d.checkpoint().unwrap();
        let expected = d.state_bytes().unwrap();
        let (r, report) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        assert_eq!(report.replayed_refreshes, 0, "marker is pre-checkpoint");
        assert_eq!(report.reenqueued, 0, "batch is below the watermark");
        assert_eq!(r.state_bytes().unwrap(), expected);
    }

    /// Flip one bit in the payload of the last record of the newest WAL
    /// segment (rewriting the file durably, as media corruption would).
    fn corrupt_newest_segment_tail(vfs: &mut MemVfs) {
        let segment = vfs
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| ojv_durability::is_segment_file(n))
            .max()
            .expect("a live WAL segment");
        let mut data = vfs.read(&segment).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x40;
        vfs.create(&segment).unwrap();
        vfs.append(&segment, &data).unwrap();
        vfs.sync(&segment).unwrap();
    }

    #[test]
    fn wal_truncated_below_checkpoint_resumes_past_it() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        d.checkpoint().unwrap();
        let expected = d.state_bytes().unwrap();
        let ckpt_lsn = d.checkpoint_lsn();
        assert_eq!(d.last_lsn(), ckpt_lsn, "log tail is below the checkpoint");
        let mut vfs = d.into_vfs();
        // Corrupt the record at the checkpoint LSN itself: the scan cuts the
        // log to *below* the checkpoint.
        corrupt_newest_segment_tail(&mut vfs);

        let (mut r, report) = DurableDatabase::open(vfs, policy()).unwrap();
        assert!(report.wal_truncated.is_some());
        assert_eq!(report.replayed_updates, 0);
        // The checkpoint vouches for the lost record; state is intact and
        // the log resumed past the checkpoint, not inside it.
        assert_eq!(r.state_bytes().unwrap(), expected);
        assert_eq!(r.last_lsn(), ckpt_lsn);

        // The regression: a post-recovery write must get an LSN above the
        // checkpoint, so the *next* recovery replays it instead of silently
        // skipping it.
        r.insert("lineitem", vec![lineitem_row(6, 9, 5, 1, 2.0)])
            .unwrap();
        assert!(r.last_lsn() > ckpt_lsn);
        let expected2 = r.state_bytes().unwrap();
        let (r2, rep2) = DurableDatabase::open(r.into_vfs(), policy()).unwrap();
        assert_eq!(rep2.replayed_updates, 1, "post-recovery write must replay");
        assert_eq!(r2.state_bytes().unwrap(), expected2);
    }

    #[test]
    fn create_refuses_existing_database_directory() {
        let d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        let vfs = d.into_vfs();
        assert!(matches!(
            DurableDatabase::create(vfs, seeded(), policy()),
            Err(CoreError::Durability(DurabilityError::Corrupt { .. }))
        ));
    }

    /// [`MemVfs`] wrapper whose `append` fails while the shared switch is
    /// on — the injection point for write-path poisoning tests.
    struct FlakyVfs {
        inner: MemVfs,
        fail_appends: std::rc::Rc<std::cell::Cell<bool>>,
    }

    impl FlakyVfs {
        fn new() -> (Self, std::rc::Rc<std::cell::Cell<bool>>) {
            let fail = std::rc::Rc::new(std::cell::Cell::new(false));
            (
                FlakyVfs {
                    inner: MemVfs::new(),
                    fail_appends: fail.clone(),
                },
                fail,
            )
        }
    }

    type VfsResult<T> = std::result::Result<T, DurabilityError>;

    impl Vfs for FlakyVfs {
        fn list(&self) -> VfsResult<Vec<String>> {
            self.inner.list()
        }
        fn len(&self, name: &str) -> VfsResult<u64> {
            self.inner.len(name)
        }
        fn read(&self, name: &str) -> VfsResult<Vec<u8>> {
            self.inner.read(name)
        }
        fn create(&mut self, name: &str) -> VfsResult<()> {
            self.inner.create(name)
        }
        fn append(&mut self, name: &str, data: &[u8]) -> VfsResult<()> {
            if self.fail_appends.get() {
                return Err(DurabilityError::io("append", name, "injected failure"));
            }
            self.inner.append(name, data)
        }
        fn sync(&mut self, name: &str) -> VfsResult<()> {
            self.inner.sync(name)
        }
        fn truncate(&mut self, name: &str, len: u64) -> VfsResult<()> {
            self.inner.truncate(name, len)
        }
        fn delete(&mut self, name: &str) -> VfsResult<()> {
            self.inner.delete(name)
        }
        fn rename(&mut self, from: &str, to: &str) -> VfsResult<()> {
            self.inner.rename(from, to)
        }
    }

    #[test]
    fn failed_update_append_poisons_the_database() {
        let (vfs, fail) = FlakyVfs::new();
        let mut d = DurableDatabase::create(vfs, seeded(), policy()).unwrap();
        d.create_view(oj_view_def()).unwrap();
        let pre_failure = d.state_bytes().unwrap();

        fail.set(true);
        let err = d
            .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap_err();
        assert!(matches!(err, CoreError::Durability(_)), "{err}");
        assert!(d.poison_reason().is_some());

        // Even with I/O healthy again, the in-memory image is ahead of the
        // log: every durable operation — above all `checkpoint`, which
        // would persist the divergence — must be refused.
        fail.set(false);
        assert!(matches!(
            d.insert("lineitem", vec![lineitem_row(6, 9, 5, 1, 2.0)]),
            Err(CoreError::Poisoned { .. })
        ));
        assert!(matches!(
            d.delete("lineitem", &[vec![Datum::Int(2), Datum::Int(1)]]),
            Err(CoreError::Poisoned { .. })
        ));
        assert!(matches!(d.checkpoint(), Err(CoreError::Poisoned { .. })));
        assert!(matches!(
            d.refresh("anything"),
            Err(CoreError::Poisoned { .. })
        ));

        // Reopening from the log lands on the last consistent state: the
        // half-applied insert never happened.
        let (r, _) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        assert_eq!(r.state_bytes().unwrap(), pre_failure);
    }

    #[test]
    fn failed_refresh_marker_append_poisons_the_database() {
        let (vfs, fail) = FlakyVfs::new();
        let mut d = DurableDatabase::create(vfs, seeded(), policy()).unwrap();
        d.create_deferred_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        let pre_refresh = d.state_bytes().unwrap();

        fail.set(true);
        assert!(d.refresh("oj_view").is_err());
        fail.set(false);
        // The store was refreshed but the watermark marker never made the
        // log: checkpointing now would make recovery double-apply the
        // consumed batch, so the database must refuse.
        assert!(matches!(d.checkpoint(), Err(CoreError::Poisoned { .. })));

        // Recovery rewinds to the pre-refresh state, batch still pending.
        let (r, _) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        assert_eq!(r.state_bytes().unwrap(), pre_refresh);
        assert_eq!(r.deferred_view("oj_view").unwrap().pending_len(), 1);
    }

    #[test]
    fn open_without_checkpoint_is_an_error() {
        assert!(matches!(
            DurableDatabase::open(MemVfs::new(), policy()),
            Err(CoreError::Durability(DurabilityError::Corrupt { .. }))
        ));
    }

    #[test]
    fn fsync_never_relies_on_explicit_sync() {
        let mut p = policy();
        p.fsync = FsyncPolicy::Never;
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), p).unwrap();
        d.create_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        let expected = d.state_bytes().unwrap();
        d.sync().unwrap();
        let (r, _) = DurableDatabase::open(d.into_vfs(), p).unwrap();
        assert_eq!(r.state_bytes().unwrap(), expected);
    }
}

#[cfg(test)]
mod shard_tests {
    use super::*;
    use crate::fixtures::*;
    use crate::view_def::col_eq;
    use ojv_durability::MemVfs;

    fn routing() -> RoutingSpec {
        RoutingSpec::new()
            .table("part", &["p_partkey"])
            .table("orders", &["o_orderkey"])
            .table("lineitem", &["l_orderkey"])
    }

    fn ol_view() -> ViewDef {
        ViewDef::new(
            "ol_view",
            ViewExpr::left_outer(
                vec![col_eq("orders", "o_orderkey", "lineitem", "l_orderkey")],
                ViewExpr::table("orders"),
                ViewExpr::table("lineitem"),
            ),
        )
    }

    fn fresh(n: usize) -> ShardedDurableDatabase<MemVfs> {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let vfs: Vec<MemVfs> = (0..n).map(|_| MemVfs::new()).collect();
        let mut d = ShardedDurableDatabase::create(
            vfs,
            MemVfs::new(),
            &c,
            routing(),
            MaintenancePolicy::default(),
        )
        .unwrap();
        d.create_view(ol_view()).unwrap();
        d
    }

    /// "Crash": keep only each stream's durable (synced) bytes.
    fn crash(d: ShardedDurableDatabase<MemVfs>) -> (Vec<MemVfs>, MemVfs) {
        let (shards, coord) = d.into_vfs();
        (shards.iter().map(MemVfs::crash).collect(), coord.crash())
    }

    #[test]
    fn create_refuses_existing_sharded_directories() {
        let mut d = fresh(2);
        d.insert("lineitem", vec![lineitem_row(3, 7, 2, 4, 42.0)])
            .unwrap();
        let (shards, coord) = d.into_vfs();
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        assert!(matches!(
            ShardedDurableDatabase::create(
                shards,
                coord,
                &c,
                routing(),
                MaintenancePolicy::default()
            ),
            Err(CoreError::Durability(DurabilityError::Corrupt { .. }))
        ));
    }

    #[test]
    fn one_shard_runs_without_a_coordinator() {
        let mut d = fresh(1);
        // Every join is local on one shard: a view misaligned under the
        // routing is accepted.
        d.create_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 7, 2, 4, 42.0)])
            .unwrap();
        assert_eq!(d.commit_lsn(), 1, "the shard WAL LSN is the commit LSN");
        let expected = d.state_bytes().unwrap();
        let (shards, coord) = crash(d);
        assert!(coord.list().unwrap().is_empty(), "no coordinator files");
        let (r, report) =
            ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
        assert_eq!(report.group_lsn, 1);
        assert_eq!(report.truncated.len(), 1, "one stream, no coordinator");
        assert_eq!(r.state_bytes().unwrap(), expected);

        // A multi-shard coordinator next to a single shard directory is a
        // partial database, not a 1-shard one.
        let (shards, coord) = crash(fresh(2));
        let one_shard = shards.into_iter().take(1).collect();
        assert!(matches!(
            ShardedDurableDatabase::open(one_shard, coord, MaintenancePolicy::default()),
            Err(CoreError::Durability(DurabilityError::Corrupt { .. }))
        ));
    }

    #[test]
    fn commit_crash_reopen_is_byte_identical() {
        for n in [1usize, 2, 4] {
            let mut d = fresh(n);
            d.insert("lineitem", vec![lineitem_row(3, 7, 2, 4, 42.0)])
                .unwrap();
            d.insert("lineitem", vec![lineitem_row(5, 8, 1, 1, 7.0)])
                .unwrap();
            d.delete("lineitem", &[vec![Datum::Int(3), Datum::Int(7)]])
                .unwrap();
            let expected = d.state_bytes().unwrap();
            let lsn = d.commit_lsn();
            let (shards, coord) = crash(d);
            let (r, report) =
                ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
            assert_eq!(report.group_lsn, lsn, "{n} shards");
            assert_eq!(r.state_bytes().unwrap(), expected, "{n} shards");
            assert_eq!(r.commit_lsn(), lsn);
        }
    }

    #[test]
    fn unsynced_shard_tail_rolls_back_to_group_floor() {
        let mut d = fresh(3);
        d.insert("lineitem", vec![lineitem_row(3, 7, 2, 4, 42.0)])
            .unwrap();
        let committed = d.state_bytes().unwrap();
        let floor = d.commit_lsn();

        // A half-finished commit: the owner shard's WAL gets the record and
        // even an fsync, but the coordinator record never lands (crash
        // between barrier steps 2 and 3).
        let row = lineitem_row(5, 8, 1, 1, 7.0);
        let ups = d
            .inner
            .db
            .apply_insert_routed("lineitem", vec![row])
            .unwrap();
        for (log, up) in d.inner.logs.iter_mut().zip(&ups) {
            let Some(up) = up else { continue };
            log.append_update(up, 0).unwrap();
            log.wal.sync(&mut log.vfs).unwrap();
        }
        let (shards, coord) = crash(d);

        let (r, report) =
            ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
        assert_eq!(report.group_lsn, floor);
        assert_eq!(report.discarded_records, 1, "the orphaned shard record");
        assert_eq!(r.state_bytes().unwrap(), committed);

        // And the discarded record must stay dead across ANOTHER cycle.
        let (shards, coord) = crash(r);
        let (r2, rep2) =
            ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
        assert_eq!(rep2.discarded_records, 0);
        assert_eq!(r2.state_bytes().unwrap(), committed);
    }

    #[test]
    fn checkpoint_bounds_replay() {
        let mut d = fresh(2);
        d.insert("lineitem", vec![lineitem_row(3, 7, 2, 4, 42.0)])
            .unwrap();
        d.checkpoint().unwrap();
        d.insert("lineitem", vec![lineitem_row(5, 8, 1, 1, 7.0)])
            .unwrap();
        let expected = d.state_bytes().unwrap();
        let (shards, coord) = crash(d);
        let (r, report) =
            ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
        assert_eq!(report.replayed_updates, 1, "only the post-checkpoint batch");
        assert_eq!(r.state_bytes().unwrap(), expected);
    }

    #[test]
    fn update_decomposition_survives_replay() {
        let mut d = fresh(4);
        d.update(
            "lineitem",
            &[vec![Datum::Int(2), Datum::Int(1)]],
            vec![lineitem_row(2, 1, 3, 99, 1.0)],
        )
        .unwrap();
        let expected = d.state_bytes().unwrap();
        let (shards, coord) = crash(d);
        let (r, _) =
            ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
        assert_eq!(r.state_bytes().unwrap(), expected);
        for s in r.database().shards() {
            assert!(crate::maintain::verify_against_recompute(
                s.view("ol_view").unwrap(),
                s.catalog()
            ));
        }
    }

    #[test]
    fn recovered_database_keeps_committing() {
        let mut d = fresh(2);
        d.insert("lineitem", vec![lineitem_row(3, 7, 2, 4, 42.0)])
            .unwrap();
        let (shards, coord) = crash(d);
        let (mut r, _) =
            ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
        r.insert("lineitem", vec![lineitem_row(5, 8, 1, 1, 7.0)])
            .unwrap();
        let expected = r.state_bytes().unwrap();
        let (shards, coord) = crash(r);
        let (r2, _) =
            ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
        assert_eq!(r2.state_bytes().unwrap(), expected);
    }
}
