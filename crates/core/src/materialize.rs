//! Materialized view storage and initial materialization.

use std::sync::Arc;

use ojv_rel::{key_of, Datum, FxHashMap, Relation, Row};
use ojv_storage::Catalog;

use crate::analyze::{analyze, ViewAnalysis};
use crate::compile::{CompiledMaintenancePlan, PlanCache, PlanConfig};
use crate::error::{CoreError, Result};
use crate::policy::MaintenancePolicy;
use crate::snapshot::ViewOp;
use crate::view_def::ViewDef;

/// One count index in canonical form: `(cols, entries sorted by key)`.
pub type CountIndexSnapshot = (Vec<usize>, Vec<(Vec<Datum>, usize)>);

/// A non-unique count index over a subset of the view's key columns.
///
/// The secondary-delta anti-joins (§5.2) only need *existence* of a view row
/// with a given term key, so the index stores multiplicities rather than row
/// positions — the analogue of the paper's secondary index `V4_idx` on the
/// view. Rows with a null in the indexed columns are not indexed (the
/// equijoin `eq(T_i)` is null-rejecting).
#[derive(Debug, Clone)]
struct KeyCountIndex {
    cols: Vec<usize>,
    counts: FxHashMap<Vec<Datum>, usize>,
}

impl KeyCountIndex {
    fn key_of(&self, row: &[Datum]) -> Option<Vec<Datum>> {
        let key = key_of(row, &self.cols);
        if key.iter().any(Datum::is_null) {
            None
        } else {
            Some(key)
        }
    }

    fn add(&mut self, row: &[Datum]) {
        if let Some(key) = self.key_of(row) {
            *self.counts.entry(key).or_insert(0) += 1;
        }
    }

    fn remove(&mut self, row: &[Datum]) {
        if let Some(key) = self.key_of(row) {
            match self.counts.get_mut(&key) {
                Some(1) => {
                    self.counts.remove(&key);
                }
                Some(n) => *n -= 1,
                None => debug_assert!(false, "count index out of sync"),
            }
        }
    }
}

/// Row storage for a materialized view: wide rows indexed by the view's
/// unique key (the concatenated, null-padded keys of all referenced tables —
/// the same shape as the paper's clustered index on V3), plus optional
/// term-key count indexes (the paper's `V4_idx`).
///
/// Unlike base tables, the view key *contains nulls* (a `{part}`-term row is
/// null on every other table's key), so this store treats null as an
/// ordinary key value.
#[derive(Debug, Clone)]
pub struct ViewStore {
    key_cols: Vec<usize>,
    rows: Vec<Row>,
    /// view key -> position in `rows`. Probes borrow (`&[Datum]`) over the
    /// deterministic fx hasher — no owned key is built on the lookup path.
    index: FxHashMap<Vec<Datum>, usize>,
    secondary: Vec<KeyCountIndex>,
    /// When enabled, every successful `insert`/`delete` is recorded as a
    /// [`ViewOp`] for the snapshot registry's redo chains. `None` (the
    /// default) costs nothing on the maintenance hot path.
    journal: Option<Vec<ViewOp>>,
}

impl ViewStore {
    pub fn new(key_cols: Vec<usize>) -> Self {
        ViewStore {
            key_cols,
            rows: Vec::new(),
            index: FxHashMap::default(),
            secondary: Vec::new(),
            journal: None,
        }
    }

    /// Start journaling mutations (idempotent; keeps pending ops).
    pub(crate) fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Drain the pending journaled ops. Empty when journaling is disabled.
    pub(crate) fn take_journal(&mut self) -> Vec<ViewOp> {
        match &mut self.journal {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    /// A deep copy with journaling disabled — the image the snapshot
    /// registry replays redo ops onto (replays must not re-journal).
    pub(crate) fn unjournaled_clone(&self) -> ViewStore {
        let mut clone = self.clone();
        clone.journal = None;
        clone
    }

    /// Re-execute a journaled op. Replay goes through the same
    /// `insert`/`delete` (swap-remove) code that produced the op, so a
    /// replayed store is byte-identical to the original — heap order and
    /// index contents included.
    pub(crate) fn apply_op(&mut self, op: &ViewOp, view: &str) -> Result<()> {
        match op {
            ViewOp::Insert(row) => self.insert(row.clone(), view),
            ViewOp::Delete(row) => self.delete(&key_of(row, &self.key_cols), view),
        }
    }

    /// Add a count index over `cols` (deduplicated; adding the view key
    /// itself or an existing column set is a no-op). Existing rows are
    /// indexed immediately.
    pub fn add_count_index(&mut self, cols: Vec<usize>) {
        if cols == self.key_cols || self.secondary.iter().any(|i| i.cols == cols) {
            return;
        }
        let mut idx = KeyCountIndex {
            cols,
            counts: FxHashMap::default(),
        };
        for row in &self.rows {
            idx.add(row);
        }
        self.secondary.push(idx);
    }

    /// Number of stored rows whose (non-null) projection onto `cols` equals
    /// `key`, using a count index if one exists. Returns `None` when no
    /// index covers `cols` (callers fall back to a scan).
    pub fn count_by_key(&self, cols: &[usize], key: &[Datum]) -> Option<usize> {
        if cols == self.key_cols.as_slice() {
            return Some(usize::from(self.index.contains_key(key)));
        }
        self.secondary
            .iter()
            .find(|i| i.cols == cols)
            .map(|i| i.counts.get(key).copied().unwrap_or(0))
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Wide-row column indexes forming the view's unique key.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    pub fn key_of_row(&self, row: &[Datum]) -> Vec<Datum> {
        key_of(row, &self.key_cols)
    }

    pub fn contains(&self, key: &[Datum]) -> bool {
        self.index.contains_key(key)
    }

    /// Look up a stored row by view key without building an owned key.
    pub fn get_by_key(&self, key: &[Datum]) -> Option<&Row> {
        self.index.get(key).map(|&pos| &self.rows[pos])
    }

    /// Insert a wide row. A duplicate view key indicates a maintenance bug
    /// and is reported as an error.
    pub fn insert(&mut self, row: Row, view: &str) -> Result<()> {
        let key = key_of(&row, &self.key_cols);
        if self.index.contains_key(&key) {
            return Err(CoreError::InvalidView {
                view: view.to_string(),
                detail: format!(
                    "maintenance produced duplicate view key {}",
                    ojv_rel::row_display(&key)
                ),
            });
        }
        for idx in &mut self.secondary {
            idx.add(&row);
        }
        if let Some(journal) = &mut self.journal {
            journal.push(ViewOp::Insert(row.clone()));
        }
        self.index.insert(key, self.rows.len());
        self.rows.push(row);
        Ok(())
    }

    /// Canonical snapshot of every count index: `(cols, entries)` with the
    /// entries sorted by key. The fx hash map's iteration order is
    /// seed-stable but insertion-order dependent, so sorting is what makes
    /// the encoding — and the byte-level differential tests built on it —
    /// independent of the path that produced the index.
    pub fn count_index_snapshot(&self) -> Vec<CountIndexSnapshot> {
        self.secondary
            .iter()
            .map(|idx| {
                let mut entries: Vec<(Vec<Datum>, usize)> =
                    idx.counts.iter().map(|(k, &c)| (k.clone(), c)).collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                (idx.cols.clone(), entries)
            })
            .collect()
    }

    /// Delete by view key. The removed row moves into the journal (the
    /// commit delta's pre-image) or is dropped. Missing keys indicate a
    /// maintenance bug.
    pub fn delete(&mut self, key: &[Datum], view: &str) -> Result<()> {
        let pos = self
            .index
            .remove(key)
            .ok_or_else(|| CoreError::InvalidView {
                view: view.to_string(),
                detail: format!(
                    "maintenance tried to delete missing view key {}",
                    ojv_rel::row_display(key)
                ),
            })?;
        let row = self.rows.swap_remove(pos);
        for idx in &mut self.secondary {
            idx.remove(&row);
        }
        if pos < self.rows.len() {
            let moved_key = key_of(&self.rows[pos], &self.key_cols);
            self.index.insert(moved_key, pos);
        }
        if let Some(journal) = &mut self.journal {
            journal.push(ViewOp::Delete(row));
        }
        Ok(())
    }
}

/// A materialized outer-join view: definition, analysis, stored rows, and
/// the cache of compiled maintenance plans.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    def: ViewDef,
    pub analysis: ViewAnalysis,
    store: ViewStore,
    plans: PlanCache,
}

impl MaterializedView {
    /// Analyze the definition and materialize the initial contents by
    /// directly evaluating the view's operator tree.
    pub fn create(catalog: &Catalog, def: ViewDef) -> Result<Self> {
        let analysis = analyze(catalog, &def)?;
        let ctx = ojv_exec::ExecCtx::new(catalog, &analysis.layout);
        let rows = ojv_exec::eval_expr(&ctx, &analysis.expr)?;
        Self::from_rows(def, analysis, rows)
    }

    /// Rebuild a view from checkpointed wide rows instead of re-evaluating
    /// the definition. Rows must be in store (heap) order — inserting them
    /// in that order reproduces the exact store state, so a recovered view
    /// is byte-identical to the one that was checkpointed.
    pub fn restore(catalog: &Catalog, def: ViewDef, rows: Vec<Row>) -> Result<Self> {
        let analysis = analyze(catalog, &def)?;
        Self::from_rows(def, analysis, rows)
    }

    fn from_rows(def: ViewDef, analysis: ViewAnalysis, rows: Vec<Row>) -> Result<Self> {
        let mut store = ViewStore::new(analysis.view_key.clone());
        // One count index per term that can ever be indirectly affected
        // (i.e. has a parent in the subsumption graph) — the §5.2 anti-joins
        // probe these instead of scanning the view (the paper's `V4_idx`).
        for (i, term) in analysis.terms.iter().enumerate() {
            if !analysis.graph.parents(i).is_empty() {
                store.add_count_index(analysis.layout.term_key_cols(term.tables));
            }
        }
        for row in rows {
            store.insert(row, def.name())?;
        }
        Ok(MaterializedView {
            def,
            analysis,
            store,
            plans: PlanCache::default(),
        })
    }

    /// The compiled maintenance plan for updates of `t` under the policy
    /// configuration `cfg`, compiling on first use (or after DDL / a policy
    /// flip invalidated the cached entry).
    pub fn compiled_plan(
        &mut self,
        catalog: &Catalog,
        t: ojv_algebra::TableId,
        cfg: PlanConfig,
    ) -> Result<Arc<CompiledMaintenancePlan>> {
        self.plans.get_or_compile(&self.analysis, catalog, t, cfg)
    }

    /// Eagerly compile every maintenance plan `policy` can need (see
    /// [`PlanCache::warm`]), so maintenance never compiles (the compile
    /// counter stays flat).
    pub fn warm_plans(&mut self, catalog: &Catalog, policy: &MaintenancePolicy) -> Result<()> {
        self.plans.warm(&self.analysis, catalog, policy)
    }

    /// Number of cached compiled plans (for tests).
    pub fn cached_plan_count(&self) -> usize {
        self.plans.len()
    }

    pub fn name(&self) -> &str {
        self.def.name()
    }

    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    pub fn len(&self) -> usize {
        self.store.len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The stored wide rows (internal representation).
    pub fn wide_rows(&self) -> &[Row] {
        self.store.rows()
    }

    pub(crate) fn store_mut(&mut self) -> &mut ViewStore {
        &mut self.store
    }

    pub(crate) fn store(&self) -> &ViewStore {
        &self.store
    }

    /// Start journaling this view's mutations for the snapshot registry.
    pub(crate) fn enable_journal(&mut self) {
        self.store.enable_journal();
    }

    /// Drain the ops journaled since the last drain.
    pub(crate) fn take_journal(&mut self) -> Vec<ViewOp> {
        self.store.take_journal()
    }

    /// The view's *output*: the projected relation a reader sees.
    ///
    /// Errors if the projected columns do not form a valid schema (e.g. a
    /// duplicate-name collision), instead of panicking.
    pub fn output(&self) -> crate::error::Result<Relation> {
        let cols: Vec<ojv_rel::Column> = self
            .analysis
            .projection
            .iter()
            .map(|&g| self.analysis.layout.wide_schema().column(g).clone())
            .collect();
        let schema = ojv_rel::Schema::shared(cols)?;
        let rows = self
            .store
            .rows()
            .iter()
            .map(|r| key_of(r, &self.analysis.projection))
            .collect();
        Ok(Relation::new(schema, rows))
    }

    /// Count stored rows per term (source-set pattern) — the paper's
    /// Table 1 "Cardinality" column.
    pub fn term_cardinalities(&self) -> Vec<(ojv_algebra::TableSet, usize)> {
        // Count by source-set first — O(rows), not O(rows × terms) — then
        // read the tally back out in term order.
        let mut by_set: FxHashMap<ojv_algebra::TableSet, usize> = FxHashMap::default();
        for row in self.store.rows() {
            *by_set
                .entry(self.analysis.layout.sources_of_row(row))
                .or_insert(0) += 1;
        }
        self.analysis
            .terms
            .iter()
            .map(|t| (t.tables, by_set.get(&t.tables).copied().unwrap_or(0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::*;
    use ojv_algebra::TableSet;

    #[test]
    fn materialize_example_1() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 6, 9);
        let view = MaterializedView::create(&c, oj_view_def()).unwrap();
        // Sanity: every lineitem appears exactly once in a full tuple.
        let full = view
            .term_cardinalities()
            .into_iter()
            .find(|(s, _)| s.len() == 3)
            .unwrap();
        assert_eq!(full.1, c.table("lineitem").unwrap().len());
        // Orphaned orders: multiples of 3 (9/3 = 3 of them).
        let orders_only = view
            .term_cardinalities()
            .into_iter()
            .find(|(s, _)| s.only() == view.analysis.layout.table_id("orders"))
            .unwrap();
        assert_eq!(orders_only.1, 3);
        assert_eq!(
            view.len(),
            view.term_cardinalities()
                .iter()
                .map(|(_, n)| n)
                .sum::<usize>()
        );
    }

    #[test]
    fn view_store_insert_delete_roundtrip() {
        let mut s = ViewStore::new(vec![0, 1]);
        s.enable_journal();
        s.insert(vec![Datum::Int(1), Datum::Null, Datum::Int(5)], "v")
            .unwrap();
        s.insert(vec![Datum::Int(1), Datum::Int(2), Datum::Int(6)], "v")
            .unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.contains(&[Datum::Int(1), Datum::Null]));
        let dup = s.insert(vec![Datum::Int(1), Datum::Null, Datum::Int(9)], "v");
        assert!(dup.is_err());
        s.take_journal();
        s.delete(&[Datum::Int(1), Datum::Null], "v").unwrap();
        // The journal carries the removed row, not just its key.
        assert_eq!(
            s.take_journal(),
            vec![ViewOp::Delete(vec![
                Datum::Int(1),
                Datum::Null,
                Datum::Int(5)
            ])]
        );
        assert!(!s.contains(&[Datum::Int(1), Datum::Null]));
        assert!(s.delete(&[Datum::Int(9), Datum::Null], "v").is_err());
        // The swap-removed survivor is still findable.
        assert!(s.contains(&[Datum::Int(1), Datum::Int(2)]));
    }

    #[test]
    fn output_projects_columns() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 4, 4);
        let def =
            oj_view_def().with_projection(vec![("part", "p_partkey"), ("orders", "o_orderkey")]);
        let view = MaterializedView::create(&c, def).unwrap();
        let out = view.output().unwrap();
        assert_eq!(out.schema().len(), 2);
        assert_eq!(out.len(), view.len());
    }

    #[test]
    fn empty_tables_give_empty_view() {
        let c = example1_catalog();
        let view = MaterializedView::create(&c, oj_view_def()).unwrap();
        assert!(view.is_empty());
        let _ = TableSet::EMPTY;
    }
}
