//! The In-Memory Scan Engine: one executor for row scans and aggregates.
//!
//! [`execute`] serves a query at a snapshot SCN by combining three sources
//! (paper §II.B): (1) valid rows straight from encoded units — hot IMCUs or
//! cold files — after min/max pruning, (2) stale and newly inserted rows
//! re-read from the row store via Consistent Read (SMU reconciliation), and
//! (3) row-store block scans for blocks no unit covers. An object no column
//! store holds is all uncovered blocks.
//!
//! Each unit is classified once: a cold placeholder reads its file, a unit
//! with no usable columnar data bypasses to the row store, and the rest run
//! hot. Predicates evaluate in *column space*: every conjunct runs through
//! its encoding's branchless kernel into a chunked selection bitmap (64
//! rows per word), and SMU validity ANDs in as a mask. Every unit that
//! served columnar data then runs the same reconcile tail. What becomes of
//! a selection is the sink's business: the rows sink maps each survivor to
//! its `RowLoc` and takes the row store's shared image at the snapshot,
//! re-checked against the predicate in case the SMU lags it; the aggregate
//! sink (`crate::aggregate`) answers a clean unit from its metadata and
//! otherwise folds the encoded column under the bitmap. Units are
//! independent tasks fanned across a query-scoped worker pool
//! ([`crate::parallel`]) and merged in unit order, so results are
//! bit-identical at every parallel degree. The old row-at-a-time engine
//! survives in [`crate::scalar`] as the parity oracle and bench baseline.

use std::sync::Arc;
use std::time::Instant;

use imadg_common::{Dba, ObjectId, QueryProfile, Result, Scn, UnitTiming};
use imadg_storage::{Row, RowLoc, Store, Value};

use crate::aggregate::{AggregateSink, Aggregates};
use crate::bitmap::SelBitmap;
use crate::coldstore::{ColdMeta, ColdUnit, ColdUnitFile};
use crate::expression::Expr;
use crate::imcs_store::{ImcsStore, ImcuHandle};
use crate::imcu::{ColAgg, Imcu};
use crate::parallel::run_indexed;
use crate::predicate::{CmpOp, Filter, Predicate};
use crate::smu::SmuReadGuard;
use crate::storage_index::StorageIndex;

/// Where each result row came from (experiment instrumentation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Rows served from encoded unit data.
    pub imcu_rows: usize,
    /// Rows served via row-store fallback (SMU-invalid, post-snapshot
    /// inserts, pending or coarse-invalidated units).
    pub fallback_rows: usize,
    /// Rows served from uncovered blocks.
    pub uncovered_rows: usize,
    /// Units skipped by min/max (any conjunct excluded).
    pub pruned_units: usize,
    /// Units whose columns were scanned.
    pub scanned_units: usize,
    /// Units bypassed entirely (pending / all-invalid).
    pub bypassed_units: usize,
    /// Units an aggregate answered O(1) from pre-computed metadata.
    pub pushdown_units: usize,
    /// Cold units answered from footer metadata alone (min/max prune or
    /// aggregate pushdown) — zero file I/O.
    pub cold_pruned_units: usize,
    /// Cold units whose file was opened and predicate-filtered on disk.
    pub cold_read_units: usize,
    /// Cold files that failed to open or decode; the unit degraded to the
    /// row-store bypass (torn write, truncated footer, bit rot).
    pub cold_read_errors: usize,
    /// Per-unit tasks issued to the worker pool. A function of the unit
    /// count only — identical at every parallel degree.
    pub parallel_tasks: usize,
}

impl ScanStats {
    /// Total result rows (matching rows, for an aggregate).
    pub fn total(&self) -> usize {
        self.imcu_rows + self.fallback_rows + self.uncovered_rows
    }

    /// Fold another unit's counters in (parallel per-unit reduce).
    pub fn absorb(&mut self, other: &ScanStats) {
        self.imcu_rows += other.imcu_rows;
        self.fallback_rows += other.fallback_rows;
        self.uncovered_rows += other.uncovered_rows;
        self.pruned_units += other.pruned_units;
        self.scanned_units += other.scanned_units;
        self.bypassed_units += other.bypassed_units;
        self.pushdown_units += other.pushdown_units;
        self.cold_pruned_units += other.cold_pruned_units;
        self.cold_read_units += other.cold_read_units;
        self.cold_read_errors += other.cold_read_errors;
        self.parallel_tasks += other.parallel_tasks;
    }
}

/// What a query returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// The matching row images.
    Rows,
    /// COUNT / SUM / MIN / MAX of the column at this ordinal over the
    /// matching rows.
    Aggregate(usize),
}

/// A completed execution.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Matching row images ([`Output::Rows`]).
    pub rows: Vec<Row>,
    /// The aggregates ([`Output::Aggregate`]).
    pub aggregates: Option<Aggregates>,
    /// Provenance counters.
    pub stats: ScanStats,
    /// Phase timings, when the execution asked for a profile.
    pub profile: Option<QueryProfile>,
}

/// Microseconds elapsed since `t` (profiler granularity).
fn micros(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

/// A predicate the executor evaluates both in column space (selection
/// bitmap per unit) and against row images (bypass, reconcile and
/// uncovered passes). [`Filter`] and [`ExprPredicate`] are the two shapes;
/// the trait is not reachable from outside the crate.
pub trait RowPredicate: Sync {
    /// Row-image evaluation.
    fn matches_row(&self, row: &Row) -> bool;

    /// Does the predicate select every row (no conjunct at all)?
    fn selects_all(&self) -> bool;

    /// Column-space evaluation over one unit. `None` means the unit's
    /// min/max storage index excludes it entirely (prune).
    fn unit_bitmap(&self, imcu: &Imcu) -> Option<SelBitmap>;

    /// Does the cold footer's min/max exclude every serialized row? A
    /// `true` answer costs zero file I/O — the whole decision runs off
    /// metadata held in memory since eviction.
    fn cold_prunes(&self, meta: &ColdMeta) -> bool;

    /// Column-space evaluation over an opened cold file, decoding only the
    /// columns the predicate touches. Unlike [`RowPredicate::unit_bitmap`],
    /// `None` here means *corruption* (a column entry failed its CRC) —
    /// pruning was already decided by [`RowPredicate::cold_prunes`].
    fn cold_bitmap(&self, file: &ColdUnitFile) -> Option<SelBitmap>;
}

impl RowPredicate for Filter {
    fn matches_row(&self, row: &Row) -> bool {
        self.eval_row(row)
    }

    fn selects_all(&self) -> bool {
        self.terms.is_empty()
    }

    fn unit_bitmap(&self, imcu: &Imcu) -> Option<SelBitmap> {
        imcu.filter_bitmap(self)
    }

    fn cold_prunes(&self, meta: &ColdMeta) -> bool {
        meta.prunes(self)
    }

    fn cold_bitmap(&self, file: &ColdUnitFile) -> Option<SelBitmap> {
        file.filter_bitmap(self)
    }
}

/// A unit's encoded rows as a sink reads them: a hot IMCU, or an opened
/// cold file with its decoded row-location page.
pub(crate) enum Encoded<'a> {
    Hot(&'a Imcu),
    Cold(&'a ColdUnitFile, &'a [RowLoc]),
}

/// What the executor does with what it selects. The unit walk, the
/// classification and the reconcile tail are the same for every sink.
pub(crate) trait Sink: Clone + Send + Sync {
    /// Answer a clean unit — no journal, a predicate that selects every
    /// row — from its row count, column aggregates and min/max alone.
    /// `false` when this sink needs the rows themselves.
    fn summary(&mut self, _rows: usize, _aggs: &[ColAgg], _index: &StorageIndex) -> bool {
        false
    }

    /// Take a unit's final selection while the SMU latch is held. `None`
    /// when a cold column fails to decode, with the sink untouched.
    fn select(&mut self, sel: &SelBitmap, unit: &Encoded<'_>) -> Option<()>;

    /// Finish the selection once the latch is released.
    fn fetch<P: RowPredicate>(&mut self, _store: &Store, _pred: &P, _snapshot: Scn) -> Result<()> {
        Ok(())
    }

    /// Take one row-store image that matched the predicate.
    fn row(&mut self, row: &Row);

    /// Rows taken so far.
    fn taken(&self) -> usize;

    /// Append this partial's output to `result`, in unit order.
    fn merge_into(self, result: &mut ScanResult);
}

/// The rows sink. Survivors wait in `pending` until the SMU latch is
/// released, then their images are fetched from the row store.
#[derive(Clone, Default)]
struct Rows {
    rows: Vec<Row>,
    pending: Vec<RowLoc>,
}

impl Sink for Rows {
    fn select(&mut self, sel: &SelBitmap, unit: &Encoded<'_>) -> Option<()> {
        self.pending.extend(sel.iter_ones().map(|rn| match unit {
            Encoded::Hot(imcu) => imcu.loc(rn),
            Encoded::Cold(_, locs) => locs[rn as usize],
        }));
        Some(())
    }

    /// Keep the survivors' shared row-store images (one refcount bump per
    /// row) that match `pred`. On a standby the re-check always passes: a
    /// survivor has no journal entry, and every commit at or below a
    /// published QuerySCN reaches the SMU first. Elsewhere the SMU can lag
    /// the snapshot — a primary query between a commit and its
    /// invalidation, a unit left stale by a standby restart — so the image
    /// is filtered again rather than trusted. Survivors come ascending
    /// within each block and are fetched one ascending run at a time, so
    /// unit row order survives the batched fetch.
    fn fetch<P: RowPredicate>(&mut self, store: &Store, pred: &P, snapshot: Scn) -> Result<()> {
        self.rows.reserve(self.pending.len());
        for run in self.pending.chunk_by_mut(|a, b| a < b) {
            store.fetch_rows_batched(run, snapshot, |_, row| {
                if pred.matches_row(row) {
                    self.rows.push(row.clone());
                }
            })?;
        }
        self.pending.clear();
        Ok(())
    }

    fn row(&mut self, row: &Row) {
        self.rows.push(row.clone());
    }

    fn taken(&self) -> usize {
        self.rows.len()
    }

    fn merge_into(self, result: &mut ScanResult) {
        result.rows.extend(self.rows);
    }
}

/// One unit's contribution, merged by the walk in unit order.
struct Partial<S> {
    sink: S,
    stats: ScanStats,
    covered: Vec<Dba>,
    timing: UnitTiming,
}

/// A row-store callback that hands every image matching `pred` to `sink`
/// and counts it in `n`.
fn feed<'a, P: RowPredicate, S: Sink>(
    pred: &'a P,
    sink: &'a mut S,
    n: &'a mut usize,
) -> impl FnMut(RowLoc, &Row) + 'a {
    move |_, row| {
        if pred.matches_row(row) {
            sink.row(row);
            *n += 1;
        }
    }
}

/// Run one unit: classify it, take its columnar selection, and reconcile
/// its journal — or bypass it to the row store.
///
/// Phase timings are always collected (an `Instant` read per phase is
/// noise next to the scan itself); the walk discards them unless the
/// query asked for a profile.
fn run_unit<P: RowPredicate, S: Sink>(
    handle: &ImcuHandle,
    store: &Store,
    pred: &P,
    empty: &S,
    snapshot: Scn,
    unit: usize,
) -> Result<Partial<S>> {
    let started = Instant::now();
    handle.note_scan();
    let (imcu, smu) = handle.pair();
    let mut p = Partial {
        sink: empty.clone(),
        stats: ScanStats::default(),
        covered: imcu.dbas.clone(),
        timing: UnitTiming { unit, ..Default::default() },
    };
    let view = smu.read();

    // Classify once. Columnar data is unusable when the unit is coarse-
    // invalid or frozen after the snapshot (the SMU records only
    // post-population changes). A pending unit with cold state is served
    // from its file; a torn file (or one from another population) counts
    // as a read error and bypasses — degraded, never wrong.
    let columnar = if view.all_invalid() || snapshot < imcu.snapshot {
        false
    } else if !imcu.is_pending() {
        hot(&mut p, &imcu, pred, &view);
        true
    } else if let Some(cold_unit) = handle.cold() {
        let ok = cold_unit.meta.snapshot == imcu.snapshot
            && cold(&mut p, &cold_unit, pred, &view).is_some();
        p.stats.cold_read_errors = usize::from(!ok);
        ok
    } else {
        false
    };

    if columnar {
        // SMU reconciliation: every stale or newly-inserted location is
        // re-read from the row store and re-filtered — its current value
        // may match although the frozen one did not. The SMU latch is
        // released before any row-store fetch; fetches are batched by
        // block, one latch per block.
        let t = Instant::now();
        let mut fallback: Vec<RowLoc> = Vec::with_capacity(view.fallback_count());
        view.collect_fallback(&mut fallback);
        drop(view);
        p.timing.merge_us += micros(t);
        let t = Instant::now();
        p.sink.fetch(store, pred, snapshot)?;
        p.stats.imcu_rows = p.sink.taken();
        p.timing.kernel_us += micros(t);
        let t = Instant::now();
        store.fetch_rows_batched(
            &mut fallback,
            snapshot,
            feed(pred, &mut p.sink, &mut p.stats.fallback_rows),
        )?;
        p.timing.fallback_us += micros(t);
    } else {
        drop(view);
        p.stats.bypassed_units = 1;
        p.timing.bypassed = true;
        let t = Instant::now();
        store.scan_blocks(
            &imcu.dbas,
            snapshot,
            feed(pred, &mut p.sink, &mut p.stats.fallback_rows),
        )?;
        p.timing.fallback_us = micros(t);
    }
    p.timing.total_us = micros(started);
    Ok(p)
}

/// Hot columnar step: the metadata answer when the sink can give one,
/// else the predicate's bitmap (or a prune) ANDed with the SMU validity
/// mask, handed to the sink.
fn hot<P: RowPredicate, S: Sink>(
    p: &mut Partial<S>,
    imcu: &Imcu,
    pred: &P,
    view: &SmuReadGuard<'_>,
) {
    let t = Instant::now();
    if pred.selects_all()
        && view.fallback_count() == 0
        && p.sink.summary(imcu.rows(), imcu.col_aggs(), &imcu.storage_index)
    {
        p.stats.pushdown_units = 1;
    } else if let Some(mut sel) = pred.unit_bitmap(imcu) {
        p.stats.scanned_units = 1;
        let m = Instant::now();
        if let Some(mask) = view.validity_mask(imcu.rows(), |l| imcu.rownum(l)) {
            sel.and_assign(&mask);
        }
        // Neither sink checks a kernel decision against the unit's encoded
        // row (rows re-check the snapshot image, aggregates nothing), so
        // debug builds check every one.
        debug_assert!(
            sel.iter_ones().all(|rn| pred.matches_row(&imcu.materialize(rn))),
            "kernel false positive in unit {}",
            p.timing.unit
        );
        p.timing.merge_us = micros(m);
        p.sink.select(&sel, &Encoded::Hot(imcu)).expect("a hot unit has nothing to decode");
    } else {
        p.stats.pruned_units = 1;
        p.timing.pruned = true;
    }
    p.timing.kernel_us = micros(t).saturating_sub(p.timing.merge_us);
}

/// Cold columnar step: the footer answers or prunes with zero file I/O;
/// otherwise the file is opened and only the predicate's columns, the
/// row-location page and the sink's own column are decoded. `None` on any
/// open or decode failure, with the sink untouched.
fn cold<P: RowPredicate, S: Sink>(
    p: &mut Partial<S>,
    cold: &ColdUnit,
    pred: &P,
    view: &SmuReadGuard<'_>,
) -> Option<()> {
    let t = Instant::now();
    let meta = &cold.meta;
    if pred.selects_all()
        && view.fallback_count() == 0
        && p.sink.summary(meta.rows, &meta.col_aggs, &meta.summaries)
    {
        p.stats.pushdown_units = 1;
        p.stats.cold_pruned_units = 1;
        p.timing.cold_pruned = true;
    } else if pred.cold_prunes(meta) {
        // Journaled rows may still match their current version; the
        // reconcile tail re-reads them.
        p.stats.pruned_units = 1;
        p.stats.cold_pruned_units = 1;
        p.timing.pruned = true;
        p.timing.cold_pruned = true;
    } else {
        let file = ColdUnitFile::open(&cold.path)?;
        let mut sel = pred.cold_bitmap(&file)?;
        // The placeholder holds no rownums: journaled rows are found
        // through the file's own row-location page.
        let locs = file.decode_locs()?;
        if view.fallback_count() > 0 {
            for (rn, &loc) in locs.iter().enumerate() {
                if view.is_invalid(loc) {
                    sel.clear(rn);
                }
            }
        }
        p.sink.select(&sel, &Encoded::Cold(&file, &locs))?;
        cold.note_read();
        p.stats.scanned_units = 1;
        p.stats.cold_read_units = 1;
        p.timing.cold_read = true;
    }
    p.timing.kernel_us = micros(t);
    Some(())
}

/// The unit walk: fan the per-unit tasks across `degree` workers, merge
/// partials in unit order (deterministic at any degree), then sweep the
/// blocks no unit covers.
#[allow(clippy::too_many_arguments)]
fn walk<P: RowPredicate, S: Sink>(
    stores: &[Arc<ImcsStore>],
    store: &Store,
    object: ObjectId,
    pred: &P,
    empty: S,
    snapshot: Scn,
    degree: usize,
    profile: bool,
) -> Result<ScanResult> {
    let handles: Vec<Arc<ImcuHandle>> =
        stores.iter().filter_map(|s| s.object(object)).flat_map(|e| e.handles()).collect();
    let partials = run_indexed(degree, handles.len(), |i| {
        run_unit(&handles[i], store, pred, &empty, snapshot, i)
    });

    let mut result =
        ScanResult { profile: profile.then(QueryProfile::default), ..Default::default() };
    let mut covered: Vec<Dba> = Vec::new();
    for partial in partials {
        let p = partial?;
        if let Some(prof) = result.profile.as_mut() {
            prof.absorb_task(p.timing);
        }
        result.stats.absorb(&p.stats);
        p.sink.merge_into(&mut result);
        covered.extend(p.covered);
    }
    result.stats.parallel_tasks = handles.len();

    // Blocks beyond any unit's coverage (fresh inserts past the edge
    // IMCU, or every block of an object no store holds). Sorted-vec
    // membership instead of a hash set: the DBA lists are tiny and
    // already nearly sorted.
    covered.sort_unstable();
    covered.dedup();
    let t = Instant::now();
    let uncovered: Vec<Dba> = store
        .block_dbas(object)?
        .into_iter()
        .filter(|d| covered.binary_search(d).is_err())
        .collect();
    let mut sink = empty;
    store.scan_blocks(
        &uncovered,
        snapshot,
        feed(pred, &mut sink, &mut result.stats.uncovered_rows),
    )?;
    if let Some(prof) = result.profile.as_mut() {
        prof.uncovered_us = micros(t);
        prof.parallel_degree = degree.max(1);
    }
    sink.merge_into(&mut result);
    Ok(result)
}

/// Execute a query over `object` at `snapshot` across every given column
/// store, with per-unit tasks on `degree` workers (`<= 1` = serial):
/// columnar where a unit is usable, row store where it is stale, bypassed
/// or missing. With `profile`, the result carries the pruning / kernel /
/// journal-merge / fallback / uncovered split and one [`UnitTiming`] per
/// unit.
#[allow(clippy::too_many_arguments)]
pub fn execute<P: RowPredicate>(
    stores: &[Arc<ImcsStore>],
    store: &Store,
    object: ObjectId,
    pred: &P,
    output: Output,
    snapshot: Scn,
    degree: usize,
    profile: bool,
) -> Result<ScanResult> {
    match output {
        Output::Rows => {
            walk(stores, store, object, pred, Rows::default(), snapshot, degree, profile)
        }
        Output::Aggregate(ordinal) => {
            let sink = AggregateSink::new(ordinal);
            walk(stores, store, object, pred, sink, snapshot, degree, profile)
        }
    }
}

/// A predicate over a registered in-memory expression (paper §V):
/// `<expr> <op> <literal>`, filtered through the precomputed virtual
/// column when a unit materialized it, or by evaluating the expression
/// over row images otherwise.
#[derive(Debug, Clone)]
pub struct ExprPredicate {
    /// The registered expression's name.
    pub name: String,
    /// The expression (for row-image fallback evaluation).
    pub expr: Arc<Expr>,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Value,
}

impl ExprPredicate {
    /// Evaluate against a row image.
    pub fn eval_row(&self, row: &Row) -> bool {
        match (&self.expr.eval(row), &self.value) {
            (Value::Int(a), Value::Int(b)) => self.op.matches(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => self.op.matches(a.as_ref().cmp(b.as_ref())),
            _ => false,
        }
    }

    /// The comparison as a filter over a unit's materialized virtual
    /// column, pruned and evaluated like any base-column filter.
    fn virtual_filter(&self, ordinal: usize) -> Filter {
        Filter::of(Predicate { ordinal, op: self.op, value: self.value.clone() })
    }

    /// Evaluate over every row of a unit that lacks the virtual column
    /// (correct, just not accelerated).
    fn eval_unit(&self, imcu: &Imcu) -> SelBitmap {
        let mut sel = SelBitmap::zeroes(imcu.rows());
        for rn in imcu.all_rows() {
            if self.eval_row(&imcu.materialize(rn)) {
                sel.set(rn as usize);
            }
        }
        sel
    }
}

impl RowPredicate for ExprPredicate {
    fn matches_row(&self, row: &Row) -> bool {
        self.eval_row(row)
    }

    fn selects_all(&self) -> bool {
        false
    }

    fn unit_bitmap(&self, imcu: &Imcu) -> Option<SelBitmap> {
        match imcu.virtual_ordinal(&self.name) {
            Some(vord) => imcu.filter_bitmap(&self.virtual_filter(vord)),
            None => Some(self.eval_unit(imcu)),
        }
    }

    fn cold_prunes(&self, meta: &ColdMeta) -> bool {
        // Without a materialized virtual column the footer's min/max says
        // nothing about the expression's value range.
        meta.virtual_ordinal(&self.name).is_some_and(|vord| meta.prunes(&self.virtual_filter(vord)))
    }

    fn cold_bitmap(&self, file: &ColdUnitFile) -> Option<SelBitmap> {
        match file.meta.virtual_ordinal(&self.name) {
            Some(vord) => file.filter_bitmap(&self.virtual_filter(vord)),
            // The file predates the expression registration: decode every
            // base column, as the hot path evaluates row images.
            None => Some(self.eval_unit(&file.into_imcu()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{PopulationEngine, SnapshotSource};
    use crate::predicate::Predicate;
    use imadg_common::{ImcsConfig, RedoThreadId, ScnService, TenantId};
    use imadg_redo::LogBuffer;
    use imadg_storage::{ColumnType, DbaAllocator, Schema, TableSpec, Value};
    use imadg_txn::{InMemoryRegistry, LockTable, TxnIdService, TxnManager};

    const OBJ: ObjectId = ObjectId(1);

    struct Fixture {
        txm: TxnManager,
        store: Arc<Store>,
        scns: Arc<ScnService>,
        engine: PopulationEngine,
    }

    fn fixture() -> Fixture {
        let store = Arc::new(Store::new());
        let scns = Arc::new(ScnService::new());
        let txm = TxnManager::new(
            store.clone(),
            scns.clone(),
            Arc::new(LogBuffer::new(RedoThreadId(1))),
            Arc::new(TxnIdService::new()),
            Arc::new(LockTable::new()),
            Arc::new(InMemoryRegistry::new()),
            Arc::new(DbaAllocator::default()),
        );
        txm.create_table(TableSpec {
            id: OBJ,
            name: "t".into(),
            tenant: TenantId::DEFAULT,
            schema: Schema::of(&[
                ("id", ColumnType::Int),
                ("n1", ColumnType::Int),
                ("c1", ColumnType::Varchar),
            ]),
            key_ordinal: 0,
            rows_per_block: 8,
        })
        .unwrap();
        let engine = PopulationEngine::new(
            store.clone(),
            Arc::new(ImcsStore::new()),
            SnapshotSource::Primary(scns.clone()),
            ImcsConfig { imcu_max_rows: 16, repopulate_min_scn_gap: 0, ..Default::default() },
        )
        .unwrap();
        engine.enable(OBJ);
        Fixture { txm, store, scns, engine }
    }

    fn seed(f: &Fixture, from: i64, to: i64) {
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        for k in from..to {
            f.txm
                .insert(
                    &mut tx,
                    OBJ,
                    vec![Value::Int(k), Value::Int(k % 10), Value::str(format!("c{}", k % 5))],
                )
                .unwrap();
        }
        f.txm.commit(tx);
    }

    fn schema(f: &Fixture) -> Schema {
        f.store.table(OBJ).unwrap().schema.read().clone()
    }

    fn run(f: &Fixture, filt: &Filter, output: Output, at: Scn, degree: usize) -> ScanResult {
        let stores = [f.engine.imcs().clone()];
        execute(&stores, &f.store, OBJ, filt, output, at, degree, false).unwrap()
    }

    fn scan(f: &Fixture, filt: &Filter, at: Scn) -> ScanResult {
        run(f, filt, Output::Rows, at, 1)
    }

    #[test]
    fn pure_imcu_scan() {
        let f = fixture();
        seed(&f, 0, 100);
        f.engine.run_once().unwrap();
        let filt = Filter::of(Predicate::eq(&schema(&f), "n1", Value::Int(3)).unwrap());
        let r = scan(&f, &filt, f.scns.current());
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.stats.imcu_rows, 10);
        assert_eq!(r.stats.fallback_rows, 0);
        assert_eq!(r.stats.uncovered_rows, 0);
        assert!(r.stats.parallel_tasks >= 1);
        for row in &r.rows {
            assert_eq!(row[1], Value::Int(3));
        }
    }

    #[test]
    fn unpopulated_object_is_all_uncovered_blocks() {
        let f = fixture();
        seed(&f, 0, 10);
        let r = scan(&f, &Filter::all(), f.scns.current());
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.stats.uncovered_rows, 10);
        assert_eq!(r.stats.parallel_tasks, 0);
    }

    #[test]
    fn invalid_rows_served_from_row_store() {
        let f = fixture();
        seed(&f, 0, 50);
        f.engine.run_once().unwrap();
        // Update key 7's n1 from 7 to 42 and flush the invalidation by hand.
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        let loc = f.txm.update_column_by_key(&mut tx, OBJ, 7, "n1", Value::Int(42)).unwrap();
        let cscn = f.txm.commit(tx);
        assert!(f.engine.imcs().invalidate(OBJ, loc, cscn));

        let sc = schema(&f);
        // The stale value no longer matches…
        let filt7 = Filter::of(Predicate::eq(&sc, "n1", Value::Int(7)).unwrap());
        let r = scan(&f, &filt7, f.scns.current());
        let keys: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert!(!keys.contains(&7), "updated row must not match its old value");
        assert_eq!(r.rows.len(), 4, "17, 27, 37, 47 still match");
        // …and the new value matches via fallback.
        let filt42 = Filter::of(Predicate::eq(&sc, "n1", Value::Int(42)).unwrap());
        let r = scan(&f, &filt42, f.scns.current());
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.stats.fallback_rows, 1);
        assert_eq!(r.rows[0][0], Value::Int(7));
    }

    #[test]
    fn survivor_whose_snapshot_image_fails_the_predicate_is_dropped() {
        let f = fixture();
        seed(&f, 0, 50);
        f.engine.run_once().unwrap();
        // Commit without invalidating: the SMU lags the scan snapshot, as
        // for a primary query that lands between a commit and its
        // invalidation. The unit still encodes key 7 with n1 = 7.
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        f.txm.update_column_by_key(&mut tx, OBJ, 7, "n1", Value::Int(42)).unwrap();
        f.txm.commit(tx);
        let filt7 = Filter::of(Predicate::eq(&schema(&f), "n1", Value::Int(7)).unwrap());
        let r = scan(&f, &filt7, f.scns.current());
        let keys: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert_eq!(keys, [17, 27, 37, 47], "every returned row satisfies the filter");
        assert_eq!(r.stats.imcu_rows, 4);
    }

    #[test]
    fn snapshot_respects_invalidated_rows_history() {
        let f = fixture();
        seed(&f, 0, 20);
        f.engine.run_once().unwrap();
        let before = f.scns.current();
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        let loc = f.txm.update_column_by_key(&mut tx, OBJ, 3, "n1", Value::Int(99)).unwrap();
        let cscn = f.txm.commit(tx);
        f.engine.imcs().invalidate(OBJ, loc, cscn);
        // Scanning at the *old* snapshot: fallback fetch resolves the old
        // version through CR, so key 3 still matches n1=3.
        let filt = Filter::of(Predicate::eq(&schema(&f), "n1", Value::Int(3)).unwrap());
        let r = scan(&f, &filt, before);
        let keys: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert!(keys.contains(&3), "CR at the old snapshot sees the old value");
    }

    #[test]
    fn uncovered_blocks_scanned_from_row_store() {
        let f = fixture();
        seed(&f, 0, 32);
        f.engine.run_once().unwrap();
        seed(&f, 100, 110); // new blocks, not yet populated
        let filt = Filter::all();
        let r = scan(&f, &filt, f.scns.current());
        assert_eq!(r.rows.len(), 42);
        assert!(r.stats.uncovered_rows > 0);
        // There can be edge overlap: the last covered block had free slots.
        assert_eq!(r.stats.total(), 42);
    }

    #[test]
    fn deleted_rows_disappear() {
        let f = fixture();
        seed(&f, 0, 10);
        f.engine.run_once().unwrap();
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        let loc = f.txm.delete_by_key(&mut tx, OBJ, 4).unwrap();
        let cscn = f.txm.commit(tx);
        f.engine.imcs().invalidate(OBJ, loc, cscn);
        let r = scan(&f, &Filter::all(), f.scns.current());
        assert_eq!(r.rows.len(), 9);
        assert!(r.rows.iter().all(|row| row[0] != Value::Int(4)));
    }

    #[test]
    fn storage_index_prunes_but_fallback_still_checked() {
        let f = fixture();
        seed(&f, 0, 64); // n1 ∈ [0,9]
        f.engine.run_once().unwrap();
        // Update key 5 to an out-of-range value and invalidate.
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        let loc = f.txm.update_column_by_key(&mut tx, OBJ, 5, "n1", Value::Int(1000)).unwrap();
        let cscn = f.txm.commit(tx);
        f.engine.imcs().invalidate(OBJ, loc, cscn);
        let filt = Filter::of(Predicate::eq(&schema(&f), "n1", Value::Int(1000)).unwrap());
        let r = scan(&f, &filt, f.scns.current());
        assert!(r.stats.pruned_units >= 1, "min/max excludes 1000 from frozen units");
        assert_eq!(r.rows.len(), 1, "fallback row found despite pruning");
        assert_eq!(r.rows[0][0], Value::Int(5));
    }

    #[test]
    fn coarse_invalidated_units_bypass_to_row_store() {
        let f = fixture();
        seed(&f, 0, 30);
        f.engine.run_once().unwrap();
        f.engine.imcs().mark_tenant_invalid(TenantId::DEFAULT);
        let r = scan(&f, &Filter::all(), f.scns.current());
        assert_eq!(r.rows.len(), 30);
        assert_eq!(r.stats.imcu_rows, 0);
        assert!(r.stats.bypassed_units > 0);
    }

    #[test]
    fn multi_term_filter() {
        let f = fixture();
        seed(&f, 0, 100);
        f.engine.run_once().unwrap();
        let sc = schema(&f);
        let filt = Filter {
            terms: vec![
                Predicate::eq(&sc, "n1", Value::Int(3)).unwrap(),
                Predicate::eq(&sc, "c1", Value::str("c3")).unwrap(),
            ],
        };
        let r = scan(&f, &filt, f.scns.current());
        // k % 10 == 3 and k % 5 == 3 → k ≡ 3 (mod 10) ∧ k ≡ 3 (mod 5) → k % 10 = 3.
        // c1 = c{k%5}; k%10==3 → k%5==3 → matches. So all 10 rows match.
        assert_eq!(r.rows.len(), 10);
    }

    /// The vectorized path must agree with the preserved scalar reference
    /// on a workload mixing valid IMCU rows, SMU fallbacks, and uncovered
    /// blocks.
    #[test]
    fn vectorized_matches_scalar_reference() {
        let f = fixture();
        seed(&f, 0, 120);
        f.engine.run_once().unwrap();
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        let locs: Vec<_> = [3, 13, 23]
            .iter()
            .map(|&k| f.txm.update_column_by_key(&mut tx, OBJ, k, "n1", Value::Int(3)).unwrap())
            .collect();
        let cscn = f.txm.commit(tx);
        for loc in locs {
            f.engine.imcs().invalidate(OBJ, loc, cscn);
        }
        seed(&f, 500, 520); // uncovered frontier
        let sc = schema(&f);
        let snapshot = f.scns.current();
        for filt in [
            Filter::all(),
            Filter::of(Predicate::eq(&sc, "n1", Value::Int(3)).unwrap()),
            Filter {
                terms: vec![
                    Predicate::new(&sc, "n1", CmpOp::Ge, Value::Int(2)).unwrap(),
                    Predicate::eq(&sc, "c1", Value::str("c2")).unwrap(),
                ],
            },
        ] {
            let v = scan(&f, &filt, snapshot);
            let s = crate::scalar::scan_scalar(f.engine.imcs(), &f.store, OBJ, &filt, snapshot)
                .unwrap()
                .unwrap();
            assert_eq!(v.rows, s.rows, "filter {filt:?}");
        }
    }

    /// Degree-N execution must return the same rows and stats as serial.
    #[test]
    fn parallel_degree_is_deterministic() {
        let f = fixture();
        seed(&f, 0, 200); // 16-row units → many per-unit tasks
        f.engine.run_once().unwrap();
        let filt = Filter::of(Predicate::eq(&schema(&f), "n1", Value::Int(4)).unwrap());
        let snapshot = f.scns.current();
        let serial = run(&f, &filt, Output::Rows, snapshot, 1);
        for degree in [2, 4, 8] {
            let par = run(&f, &filt, Output::Rows, snapshot, degree);
            assert_eq!(par.rows, serial.rows, "degree {degree}");
            assert_eq!(par.stats, serial.stats, "degree {degree}");
        }
        assert!(serial.stats.parallel_tasks > 1);
    }

    /// A row changed while its unit was still pending, then changed again
    /// after the unit was built at the pending snapshot and swapped in, is
    /// one stale location: every engine fetches it from the row store once.
    #[test]
    fn row_changed_across_pending_to_hot_swap_is_fetched_once() {
        let f = fixture();
        seed(&f, 0, 60);
        let sc = schema(&f);
        let dbas = f.store.block_dbas(OBJ).unwrap();
        let s = f.scns.current();
        let pending = Imcu::pending(OBJ, TenantId::DEFAULT, dbas.clone(), s, sc.version());
        let handle = Arc::new(ImcuHandle::new(pending));
        f.engine.imcs().ensure_object(OBJ, TenantId::DEFAULT).register(handle.clone());
        let update_key_5 = |n1: i64| {
            let mut tx = f.txm.begin(TenantId::DEFAULT);
            let loc = f.txm.update_column_by_key(&mut tx, OBJ, 5, "n1", Value::Int(n1)).unwrap();
            let cscn = f.txm.commit(tx);
            assert!(f.engine.imcs().invalidate(OBJ, loc, cscn));
        };
        update_key_5(100);
        handle.swap(Imcu::build(&f.store, OBJ, TenantId::DEFAULT, dbas, s, &sc).unwrap());
        update_key_5(200);

        let at = f.scns.current();
        let all = Filter::all();
        let v = scan(&f, &all, at);
        assert_eq!(v.rows.len(), 60, "scan");
        let r = crate::scalar::scan_scalar(f.engine.imcs(), &f.store, OBJ, &all, at).unwrap();
        assert_eq!(r.unwrap().rows.len(), 60, "scalar oracle");
        let aggs = run(&f, &all, Output::Aggregate(0), at, 1).aggregates.unwrap();
        assert_eq!((aggs.count, aggs.sum), (60, (0..60).sum::<i128>()), "COUNT, SUM(id)");
    }
}
