//! The In-Memory Scan Engine.
//!
//! Serves a filtered scan at a snapshot SCN by combining three sources
//! (paper §II.B): (1) valid rows straight from encoded IMCUs — after
//! storage-index pruning, (2) stale/new rows fetched from the row-store via
//! Consistent Read (SMU reconciliation), and (3) row-store block scans for
//! blocks no unit covers (the insert frontier beyond the edge IMCU).
//!
//! Predicates evaluate in *column space*: every conjunct runs through its
//! encoding's branchless kernel into a chunked selection bitmap (64 rows
//! per word), SMU validity converts to the same mask form, and the bitmaps
//! AND together. The kernels only decide *which* rows match: each final
//! survivor maps to its `RowLoc` and the row store hands back the shared
//! image it already holds at the snapshot, re-checked against the
//! predicate in case the SMU lags it — so no row is rebuilt column by
//! column, for hot and cold units alike. Units are
//! independent scan tasks, so the whole walk fans out across a query-scoped
//! worker pool ([`crate::parallel`]) and merges per-unit partials in unit
//! order: results are bit-identical at every parallel degree. The old
//! row-at-a-time engine survives in [`crate::scalar`] as the parity oracle
//! and bench baseline.

use std::sync::Arc;
use std::time::Instant;

use imadg_common::{Dba, ObjectId, QueryProfile, Result, Scn, UnitTiming};
use imadg_storage::{Row, RowLoc, Store};

use crate::bitmap::SelBitmap;
use crate::coldstore::{ColdMeta, ColdUnit, ColdUnitFile};
use crate::expression::Expr;
use crate::imcs_store::{ImcsStore, ImcuHandle, ObjectImcs};
use crate::imcu::Imcu;
use crate::parallel::run_indexed;
use crate::predicate::{CmpOp, Filter, Predicate};
use crate::smu::SmuReadGuard;

/// Where each result row came from (experiment instrumentation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Rows served from encoded IMCU data.
    pub imcu_rows: usize,
    /// Rows served via row-store fallback (SMU-invalid, post-snapshot
    /// inserts, pending or coarse-invalidated units).
    pub fallback_rows: usize,
    /// Rows served from uncovered blocks.
    pub uncovered_rows: usize,
    /// Units skipped by the min/max storage index (any conjunct excluded).
    pub pruned_units: usize,
    /// Units whose columns were scanned.
    pub scanned_units: usize,
    /// Units bypassed entirely (pending / all-invalid).
    pub bypassed_units: usize,
    /// Cold units excluded by footer min/max alone — zero file I/O.
    pub cold_pruned_units: usize,
    /// Cold units whose file was opened and predicate-filtered on disk.
    pub cold_read_units: usize,
    /// Cold files that failed to open or decode; the unit degraded to the
    /// row-store bypass (torn write, truncated footer, bit rot).
    pub cold_read_errors: usize,
    /// Per-unit scan tasks issued to the worker pool. A function of the
    /// unit count only — identical at every parallel degree.
    pub parallel_tasks: usize,
}

impl ScanStats {
    /// Total result rows.
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
        self.cold_pruned_units += other.cold_pruned_units;
        self.cold_read_units += other.cold_read_units;
        self.cold_read_errors += other.cold_read_errors;
        self.parallel_tasks += other.parallel_tasks;
    }
}

/// A completed scan.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Matching row images.
    pub rows: Vec<Row>,
    /// Provenance counters.
    pub stats: ScanStats,
    /// Phase timings, populated only on the `*_profiled` entry points.
    pub profile: Option<QueryProfile>,
}

/// Microseconds elapsed since `t` (profiler granularity).
fn micros(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

/// A predicate the unified unit-walk driver can evaluate both in column
/// space (selection bitmap per unit) and against row images (row-store
/// fallback). [`Filter`] and [`ExprPredicate`] are the two shapes.
trait RowPredicate: Sync {
    /// Row-image evaluation (fallback, bypass, and uncovered passes).
    fn matches_row(&self, row: &Row) -> bool;

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

/// One unit's contribution to a scan, merged by the driver in unit order.
struct UnitPartial {
    rows: Vec<Row>,
    stats: ScanStats,
    covered: Vec<Dba>,
    timing: UnitTiming,
}

/// Scan one unit: bypass to the row-store when the columnar data is
/// unusable, otherwise bitmap-evaluate the predicate, AND the SMU validity
/// mask, fetch the survivors' row images, and reconcile stale locations.
///
/// Phase timings are always collected (an `Instant` read per phase is
/// noise next to the scan itself); the driver discards them unless the
/// query asked for a profile.
fn scan_unit<P: RowPredicate>(
    handle: &ImcuHandle,
    store: &Store,
    pred: &P,
    snapshot: Scn,
    unit: usize,
) -> Result<UnitPartial> {
    let started = Instant::now();
    handle.note_scan();
    let (imcu, smu) = handle.pair();
    let mut partial = UnitPartial {
        rows: Vec::new(),
        stats: ScanStats::default(),
        covered: imcu.dbas.clone(),
        timing: UnitTiming { unit, ..Default::default() },
    };
    let view = smu.read();

    // Cold tier: the unit was evicted (pending placeholder + attached cold
    // state). Serve it from the columnar file — footer pruning first, then
    // predicate pushdown during the page read. Any failure (torn file,
    // CRC mismatch) falls through to the pending bypass below, which is
    // the plain row-store scan: degraded, never wrong.
    if imcu.is_pending() && !view.all_invalid() && snapshot >= imcu.snapshot {
        if let Some(cold) = handle.cold() {
            if cold.meta.snapshot == imcu.snapshot
                && scan_unit_cold(&cold, store, pred, snapshot, &view, &mut partial)?
            {
                drop(view);
                partial.timing.total_us = micros(started);
                return Ok(partial);
            }
            partial.stats.cold_read_errors += 1;
        }
    }

    if imcu.is_pending() || view.all_invalid() || snapshot < imcu.snapshot {
        // No usable columnar data (the unit may also be frozen at a
        // population SCN *after* the scan snapshot, and the SMU only
        // records post-population changes): serve the whole range from
        // the row-store at the scan snapshot.
        drop(view);
        partial.stats.bypassed_units = 1;
        partial.timing.bypassed = true;
        let t = Instant::now();
        store.scan_blocks(&imcu.dbas, snapshot, |_, row| {
            if pred.matches_row(row) {
                partial.rows.push(row.clone());
                partial.stats.fallback_rows += 1;
            }
        })?;
        partial.timing.fallback_us = micros(t);
        partial.timing.total_us = micros(started);
        return Ok(partial);
    }

    // Columnar path: evaluate every conjunct in column space, AND the
    // validity mask; the survivors' row images come from the row store.
    let t = Instant::now();
    let mut survivors: Vec<RowLoc> = Vec::new();
    match pred.unit_bitmap(&imcu) {
        None => {
            partial.stats.pruned_units = 1;
            partial.timing.pruned = true;
            partial.timing.kernel_us = micros(t);
        }
        Some(mut sel) => {
            partial.stats.scanned_units = 1;
            partial.timing.kernel_us = micros(t);
            let t = Instant::now();
            if let Some(mask) = view.validity_mask(imcu.rows(), |l| imcu.rownum(l)) {
                sel.and_assign(&mask);
            }
            // The fetch below re-checks the predicate on the snapshot image,
            // which would hide a kernel false positive: debug builds check
            // every kernel decision against the unit's own encoded row.
            debug_assert!(
                sel.iter_ones().all(|rn| pred.matches_row(&imcu.materialize(rn))),
                "kernel false positive in unit {unit}"
            );
            survivors.extend(sel.iter_ones().map(|rn| imcu.loc(rn)));
            partial.timing.merge_us = micros(t);
        }
    }

    // SMU reconciliation: every stale or newly-inserted location must be
    // re-read from the row-store and re-filtered — its current value may
    // match even though (or although) the frozen one did not. Batched by
    // block: one latch per block, not per row. The SMU latch is released
    // before the row-store fetches.
    let t = Instant::now();
    let mut fallback: Vec<RowLoc> = Vec::with_capacity(view.fallback_count());
    view.collect_fallback(&mut fallback);
    drop(view);
    partial.timing.merge_us += micros(t);
    let t = Instant::now();
    partial.stats.imcu_rows =
        fetch_survivors(store, pred, &mut survivors, snapshot, &mut partial.rows)?;
    partial.timing.kernel_us += micros(t);
    let t = Instant::now();
    fetch_fallback(store, pred, &mut fallback, snapshot, &mut partial)?;
    partial.timing.fallback_us += micros(t);
    partial.timing.total_us = micros(started);
    Ok(partial)
}

/// Append the row images of a unit's valid survivors that match `pred` to
/// `rows`, in `locs` order, sharing the row store's image: one refcount
/// bump per row, no per-column copy. On a standby a survivor has no SMU
/// journal entry and every commit at or below a published QuerySCN reaches
/// the SMU before publication, so the image at `snapshot` is the one the
/// unit encoded and the re-check always passes. Elsewhere the SMU can lag
/// the snapshot — a primary query may run between a commit and its
/// invalidation, and a unit left stale by a standby restart is not
/// journaled — so the image is filtered again rather than trusted. `locs`
/// come in unit row order — ascending within each block — and are fetched
/// one ascending run at a time, so that order survives the batched fetch.
/// Returns the number of rows appended.
fn fetch_survivors<P: RowPredicate>(
    store: &Store,
    pred: &P,
    locs: &mut [RowLoc],
    snapshot: Scn,
    rows: &mut Vec<Row>,
) -> Result<usize> {
    let before = rows.len();
    rows.reserve(locs.len());
    for run in locs.chunk_by_mut(|a, b| a < b) {
        store.fetch_rows_batched(run, snapshot, |_, row| {
            if pred.matches_row(row) {
                rows.push(row.clone());
            }
        })?;
    }
    Ok(rows.len() - before)
}

/// Re-read every journaled location at `snapshot` and keep the current
/// versions that match (SMU reconciliation, shared by hot and cold units).
fn fetch_fallback<P: RowPredicate>(
    store: &Store,
    pred: &P,
    locs: &mut [RowLoc],
    snapshot: Scn,
    partial: &mut UnitPartial,
) -> Result<()> {
    store.fetch_rows_batched(locs, snapshot, |_, row| {
        if pred.matches_row(row) {
            partial.rows.push(row.clone());
            partial.stats.fallback_rows += 1;
        }
    })
}

/// Scan one cold unit. Returns `Ok(false)` — with `partial` untouched — on
/// any open/decode failure so the caller degrades to the row-store bypass.
///
/// The pruning decision runs off the in-memory footer before any I/O; only
/// non-pruned units open the file, and only the predicate columns and the
/// row-location page are ever decoded — survivors' row images come from
/// the row store, exactly like the hot path. The SMU journal is honored the
/// same way too: serialized rows with journaled DML are dropped from the
/// file's survivors and re-read from the row store at the scan snapshot.
fn scan_unit_cold<P: RowPredicate>(
    cold: &ColdUnit,
    store: &Store,
    pred: &P,
    snapshot: Scn,
    view: &SmuReadGuard<'_>,
    partial: &mut UnitPartial,
) -> Result<bool> {
    let t = Instant::now();
    if pred.cold_prunes(&cold.meta) {
        // Footer min/max excludes every serialized row: zero file I/O.
        // Journaled rows may still match their *current* version — the
        // fallback pass below re-reads them from the row store.
        partial.stats.pruned_units = 1;
        partial.stats.cold_pruned_units = 1;
        partial.timing.pruned = true;
        partial.timing.cold_pruned = true;
        partial.timing.kernel_us = micros(t);
    } else {
        let Some(file) = ColdUnitFile::open(&cold.path) else { return Ok(false) };
        let Some(sel) = pred.cold_bitmap(&file) else { return Ok(false) };
        let Some(locs) = file.decode_locs() else { return Ok(false) };
        // The placeholder holds no rownums, so survivors map to locations
        // through the file's own row-location page; journaled ones drop.
        let mut survivors: Vec<RowLoc> = sel.iter_ones().map(|rn| locs[rn as usize]).collect();
        if view.fallback_count() > 0 {
            survivors.retain(|&l| !view.is_invalid(l));
        }
        cold.note_read();
        partial.stats.scanned_units = 1;
        partial.stats.cold_read_units = 1;
        partial.timing.cold_read = true;
        partial.stats.imcu_rows =
            fetch_survivors(store, pred, &mut survivors, snapshot, &mut partial.rows)?;
        partial.timing.kernel_us = micros(t);
    }

    // SMU reconciliation — identical to the hot path: every journaled
    // location re-reads from the row store at the scan snapshot.
    let t = Instant::now();
    let mut fallback: Vec<RowLoc> = Vec::with_capacity(view.fallback_count());
    view.collect_fallback(&mut fallback);
    partial.timing.merge_us += micros(t);
    let t = Instant::now();
    fetch_fallback(store, pred, &mut fallback, snapshot, partial)?;
    partial.timing.fallback_us += micros(t);
    Ok(true)
}

/// The unified unit-walk driver behind every scan entry point: fan the
/// per-unit tasks across `degree` workers, merge partials in unit order
/// (deterministic at any degree), then sweep the uncovered block frontier.
fn scan_units<P: RowPredicate>(
    entries: &[Arc<ObjectImcs>],
    store: &Store,
    object: ObjectId,
    pred: &P,
    snapshot: Scn,
    degree: usize,
    profile: bool,
) -> Result<ScanResult> {
    let handles: Vec<Arc<ImcuHandle>> = entries.iter().flat_map(|e| e.handles()).collect();
    let partials = run_indexed(degree, handles.len(), |i| {
        scan_unit(handles[i].as_ref(), store, pred, snapshot, i)
    });

    let mut result = ScanResult::default();
    let mut prof = profile.then(QueryProfile::default);
    let mut covered: Vec<Dba> = Vec::new();
    for partial in partials {
        let p = partial?;
        if let Some(prof) = prof.as_mut() {
            prof.absorb_task(p.timing);
        }
        result.stats.absorb(&p.stats);
        result.rows.extend(p.rows);
        covered.extend(p.covered);
    }
    result.stats.parallel_tasks = handles.len();

    // Blocks beyond any unit's coverage (fresh inserts past the edge
    // IMCU). Sorted-vec membership instead of a hash set: the DBA lists
    // are tiny and already nearly sorted, and `block_dbas` is a scan of
    // its own — binary search beats per-DBA hashing here.
    covered.sort_unstable();
    covered.dedup();
    let t = Instant::now();
    let uncovered: Vec<Dba> = store
        .block_dbas(object)?
        .into_iter()
        .filter(|d| covered.binary_search(d).is_err())
        .collect();
    if !uncovered.is_empty() {
        store.scan_blocks(&uncovered, snapshot, |_, row| {
            if pred.matches_row(row) {
                result.rows.push(row.clone());
                result.stats.uncovered_rows += 1;
            }
        })?;
    }
    if let Some(prof) = prof.as_mut() {
        prof.uncovered_us = micros(t);
        prof.parallel_degree = degree.max(1);
    }
    result.profile = prof;

    Ok(result)
}

/// Run a filtered scan of `object` at `snapshot` through the column store,
/// falling back to the row-store where the IMCS is stale or uncovered.
///
/// Returns `Ok(None)` when the object has no column-store presence at all
/// on this instance — the caller should run a plain row-store scan.
pub fn scan(
    imcs: &ImcsStore,
    store: &Store,
    object: ObjectId,
    filter: &Filter,
    snapshot: Scn,
) -> Result<Option<ScanResult>> {
    scan_parallel(imcs, store, object, filter, snapshot, 1)
}

/// [`scan`] with an explicit parallel degree (`<= 1` = serial).
pub fn scan_parallel(
    imcs: &ImcsStore,
    store: &Store,
    object: ObjectId,
    filter: &Filter,
    snapshot: Scn,
    degree: usize,
) -> Result<Option<ScanResult>> {
    match imcs.object(object) {
        Some(obj) => scan_units(&[obj], store, object, filter, snapshot, degree, false).map(Some),
        None => Ok(None),
    }
}

/// Cluster-wide scan over several instances' column stores (RAC standby:
/// IMCUs are distributed by home location, so a query fans out across every
/// instance's units — modelling Oracle's cross-instance parallel execution).
pub fn scan_cluster(
    stores: &[Arc<ImcsStore>],
    store: &Store,
    object: ObjectId,
    filter: &Filter,
    snapshot: Scn,
) -> Result<Option<ScanResult>> {
    scan_cluster_parallel(stores, store, object, filter, snapshot, 1)
}

/// [`scan_cluster`] with an explicit parallel degree (`<= 1` = serial).
pub fn scan_cluster_parallel(
    stores: &[Arc<ImcsStore>],
    store: &Store,
    object: ObjectId,
    filter: &Filter,
    snapshot: Scn,
    degree: usize,
) -> Result<Option<ScanResult>> {
    let entries: Vec<Arc<ObjectImcs>> = stores.iter().filter_map(|s| s.object(object)).collect();
    if entries.is_empty() {
        return Ok(None);
    }
    scan_units(&entries, store, object, filter, snapshot, degree, false).map(Some)
}

/// [`scan_cluster_parallel`] with per-phase timing: the result's
/// `profile` carries the pruning / kernel / journal-merge / fallback /
/// uncovered split and one [`UnitTiming`] per parallel task.
pub fn scan_cluster_profiled(
    stores: &[Arc<ImcsStore>],
    store: &Store,
    object: ObjectId,
    filter: &Filter,
    snapshot: Scn,
    degree: usize,
) -> Result<Option<ScanResult>> {
    let entries: Vec<Arc<ObjectImcs>> = stores.iter().filter_map(|s| s.object(object)).collect();
    if entries.is_empty() {
        return Ok(None);
    }
    scan_units(&entries, store, object, filter, snapshot, degree, true).map(Some)
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
    pub expr: std::sync::Arc<Expr>,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: imadg_storage::Value,
}

impl ExprPredicate {
    /// Evaluate against a row image.
    pub fn eval_row(&self, row: &Row) -> bool {
        let v = self.expr.eval(row);
        match (&v, &self.value) {
            (imadg_storage::Value::Int(a), imadg_storage::Value::Int(b)) => {
                self.op.matches(a.cmp(b))
            }
            (imadg_storage::Value::Str(a), imadg_storage::Value::Str(b)) => {
                self.op.matches(a.as_ref().cmp(b.as_ref()))
            }
            _ => false,
        }
    }
}

impl RowPredicate for ExprPredicate {
    fn matches_row(&self, row: &Row) -> bool {
        self.eval_row(row)
    }

    fn unit_bitmap(&self, imcu: &Imcu) -> Option<SelBitmap> {
        match imcu.virtual_ordinal(&self.name) {
            Some(vord) => {
                // Fast path: the expression was materialized at population —
                // filter the encoded virtual column like any base column.
                let vpred = Predicate { ordinal: vord, op: self.op, value: self.value.clone() };
                if !imcu.storage_index.may_match(&vpred) {
                    return None;
                }
                Some(imcu.pred_bitmap(&vpred))
            }
            None => {
                // Unit predates the expression registration: evaluate over
                // materialized rows (correct, just not accelerated).
                let mut sel = SelBitmap::zeroes(imcu.rows());
                for rn in imcu.all_rows() {
                    if self.eval_row(&imcu.materialize(rn)) {
                        sel.set(rn as usize);
                    }
                }
                Some(sel)
            }
        }
    }

    fn cold_prunes(&self, meta: &ColdMeta) -> bool {
        match meta.virtual_ordinal(&self.name) {
            Some(vord) => {
                let vpred = Predicate { ordinal: vord, op: self.op, value: self.value.clone() };
                !meta.summaries.may_match(&vpred)
            }
            // No materialized virtual column: footer min/max says nothing
            // about the expression's value range — cannot prune.
            None => false,
        }
    }

    fn cold_bitmap(&self, file: &ColdUnitFile) -> Option<SelBitmap> {
        match file.meta.virtual_ordinal(&self.name) {
            Some(vord) => {
                // The expression was materialized at population: decode
                // only its virtual column and filter it like a base column.
                let vpred = Predicate { ordinal: vord, op: self.op, value: self.value.clone() };
                let col = file.decode_column(vord)?;
                let mut sel = SelBitmap::zeroes(file.meta.rows);
                col.scan_bitmap(&vpred, &mut sel);
                Some(sel)
            }
            None => {
                // File predates the expression registration: decode every
                // base column and evaluate over row images (correct, just
                // not accelerated — mirrors the hot path's fallback).
                let imcu = file.into_imcu()?;
                let mut sel = SelBitmap::zeroes(imcu.rows());
                for rn in imcu.all_rows() {
                    if self.eval_row(&imcu.materialize(rn)) {
                        sel.set(rn as usize);
                    }
                }
                Some(sel)
            }
        }
    }
}

/// Scan `object` filtered by an in-memory expression predicate.
///
/// Units that materialized the expression's virtual column are filtered in
/// code space (with storage-index pruning on the virtual column); stale
/// rows, pre-registration units, and uncovered blocks evaluate the
/// expression per row image — correctness never depends on the virtual
/// column being present.
pub fn scan_expression(
    stores: &[Arc<ImcsStore>],
    store: &Store,
    object: ObjectId,
    pred: &ExprPredicate,
    snapshot: Scn,
) -> Result<Option<ScanResult>> {
    scan_expression_parallel(stores, store, object, pred, snapshot, 1)
}

/// [`scan_expression`] with an explicit parallel degree (`<= 1` = serial).
pub fn scan_expression_parallel(
    stores: &[Arc<ImcsStore>],
    store: &Store,
    object: ObjectId,
    pred: &ExprPredicate,
    snapshot: Scn,
    degree: usize,
) -> Result<Option<ScanResult>> {
    let entries: Vec<Arc<ObjectImcs>> = stores.iter().filter_map(|s| s.object(object)).collect();
    if entries.is_empty() {
        return Ok(None);
    }
    scan_units(&entries, store, object, pred, snapshot, degree, false).map(Some)
}

/// [`scan_expression_parallel`] with per-phase timing (see
/// [`scan_cluster_profiled`]).
pub fn scan_expression_profiled(
    stores: &[Arc<ImcsStore>],
    store: &Store,
    object: ObjectId,
    pred: &ExprPredicate,
    snapshot: Scn,
    degree: usize,
) -> Result<Option<ScanResult>> {
    let entries: Vec<Arc<ObjectImcs>> = stores.iter().filter_map(|s| s.object(object)).collect();
    if entries.is_empty() {
        return Ok(None);
    }
    scan_units(&entries, store, object, pred, snapshot, degree, true).map(Some)
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
    use std::sync::Arc;

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

    #[test]
    fn pure_imcu_scan() {
        let f = fixture();
        seed(&f, 0, 100);
        f.engine.run_once().unwrap();
        let filt = Filter::of(Predicate::eq(&schema(&f), "n1", Value::Int(3)).unwrap());
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt, f.scns.current()).unwrap().unwrap();
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
    fn unpopulated_object_returns_none() {
        let f = fixture();
        seed(&f, 0, 10);
        let r = scan(f.engine.imcs(), &f.store, OBJ, &Filter::all(), f.scns.current()).unwrap();
        assert!(r.is_none());
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
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt7, f.scns.current()).unwrap().unwrap();
        let keys: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert!(!keys.contains(&7), "updated row must not match its old value");
        assert_eq!(r.rows.len(), 4, "17, 27, 37, 47 still match");
        // …and the new value matches via fallback.
        let filt42 = Filter::of(Predicate::eq(&sc, "n1", Value::Int(42)).unwrap());
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt42, f.scns.current()).unwrap().unwrap();
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
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt7, f.scns.current()).unwrap().unwrap();
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
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt, before).unwrap().unwrap();
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
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt, f.scns.current()).unwrap().unwrap();
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
        let r = scan(f.engine.imcs(), &f.store, OBJ, &Filter::all(), f.scns.current())
            .unwrap()
            .unwrap();
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
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt, f.scns.current()).unwrap().unwrap();
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
        let r = scan(f.engine.imcs(), &f.store, OBJ, &Filter::all(), f.scns.current())
            .unwrap()
            .unwrap();
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
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt, f.scns.current()).unwrap().unwrap();
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
            let v = scan(f.engine.imcs(), &f.store, OBJ, &filt, snapshot).unwrap().unwrap();
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
        let serial =
            scan_parallel(f.engine.imcs(), &f.store, OBJ, &filt, snapshot, 1).unwrap().unwrap();
        for degree in [2, 4, 8] {
            let par = scan_parallel(f.engine.imcs(), &f.store, OBJ, &filt, snapshot, degree)
                .unwrap()
                .unwrap();
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
        let v = scan(f.engine.imcs(), &f.store, OBJ, &all, at).unwrap().unwrap();
        assert_eq!(v.rows.len(), 60, "scan");
        let r = crate::scalar::scan_scalar(f.engine.imcs(), &f.store, OBJ, &all, at).unwrap();
        assert_eq!(r.unwrap().rows.len(), 60, "scalar oracle");
        let stores = [f.engine.imcs().clone()];
        let agg = crate::aggregate::scan_aggregate(&stores, &f.store, OBJ, &all, 0, at).unwrap();
        let aggs = agg.unwrap().aggs;
        assert_eq!((aggs.count, aggs.sum), (60, (0..60).sum::<i128>()), "COUNT, SUM(id)");
    }
}
