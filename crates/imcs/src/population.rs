//! Population and repopulation of the IMCS.
//!
//! "A segment loader process chunks up an object into ranges of data blocks
//! and background population worker processes construct IMCUs for the DBA
//! ranges" (paper §III.A). On the standby, the snapshot SCN of every unit
//! *must* be a published QuerySCN, captured outside a quiesce period; on
//! the primary, any current SCN is a consistent snapshot.
//!
//! Protocol per chunk (standby):
//! 1. take the quiesce lock shared; read the published QuerySCN `S`;
//!    **register a pending handle** claiming the chunk's DBA range — from
//!    this instant, invalidation flushes for commits > `S` land in the
//!    handle's SMU; release the lock;
//! 2. build the IMCU at snapshot `S` (concurrent redo apply is invisible
//!    to the CR scan);
//! 3. swap the built unit into the handle; SMU entries ≤ `S` are absorbed,
//!    newer ones carry over.

use std::collections::HashSet;
use std::sync::Arc;

use imadg_common::metrics::PopulationMetrics;
use imadg_common::{
    Error, ImcsConfig, ObjectId, QueryScnCell, QuiesceLock, Result, Scn, ScnService,
};
use imadg_storage::Store;
use parking_lot::RwLock;

use crate::imcs_store::{ImcsStore, ImcuHandle};
use crate::imcu::Imcu;

/// Where population snapshots come from.
#[derive(Clone)]
pub enum SnapshotSource {
    /// Primary database: the current SCN is always a consistent snapshot.
    Primary(Arc<ScnService>),
    /// Standby database: only published QuerySCNs are consistency points,
    /// and capture synchronizes with the quiesce period (§III.A).
    Standby {
        /// The published QuerySCN.
        query_scn: Arc<QueryScnCell>,
        /// The quiesce lock shared with the recovery coordinator.
        quiesce: Arc<QuiesceLock>,
    },
}

impl SnapshotSource {
    /// The snapshot a capture would return right now, read without the
    /// quiesce lock — good enough to decide whether a capture is worth
    /// taking, never a consistency point itself.
    pub(crate) fn peek(&self) -> Option<Scn> {
        match self {
            SnapshotSource::Primary(scns) => Some(scns.current()).filter(|&s| s != Scn::ZERO),
            SnapshotSource::Standby { query_scn, .. } => query_scn.get(),
        }
    }

    /// Capture a population snapshot, registering `pending` at the same
    /// consistency point. Returns the snapshot, or `None` when the standby
    /// has not published a QuerySCN yet. Shared with the cold-tier engine,
    /// whose re-compaction rebuilds obey the same snapshot discipline.
    pub(crate) fn capture_and_register<F: FnOnce(Scn)>(&self, register: F) -> Option<Scn> {
        match self {
            SnapshotSource::Primary(scns) => {
                let s = scns.current();
                if s == Scn::ZERO {
                    return None;
                }
                register(s);
                Some(s)
            }
            SnapshotSource::Standby { query_scn, quiesce } => {
                let _guard = quiesce.capture();
                let s = query_scn.get()?;
                register(s);
                Some(s)
            }
        }
    }
}

/// Outcome of one population pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PopulationReport {
    /// New units populated.
    pub populated: usize,
    /// Stale units rebuilt.
    pub repopulated: usize,
}

impl PopulationReport {
    /// Did the pass do anything?
    pub fn any(&self) -> bool {
        self.populated + self.repopulated > 0
    }
}

/// The background population engine of one instance.
pub struct PopulationEngine {
    store: Arc<Store>,
    imcs: Arc<ImcsStore>,
    source: SnapshotSource,
    config: ImcsConfig,
    /// Objects enabled for population *on this instance* (placement).
    enabled: RwLock<HashSet<ObjectId>>,
    /// RAC distribution filter: `Some(f)` restricts this instance to the
    /// blocks `f` maps to it (the home-location hashing scheme, §III.F).
    home_filter: Option<Arc<dyn Fn(imadg_common::Dba) -> bool + Send + Sync>>,
    metrics: Arc<PopulationMetrics>,
}

impl PopulationEngine {
    /// Build an engine.
    pub fn new(
        store: Arc<Store>,
        imcs: Arc<ImcsStore>,
        source: SnapshotSource,
        config: ImcsConfig,
    ) -> Result<PopulationEngine> {
        config.validate()?;
        Ok(PopulationEngine {
            store,
            imcs,
            source,
            config,
            enabled: RwLock::new(HashSet::new()),
            home_filter: None,
            metrics: Arc::default(),
        })
    }

    /// Report population counts into a registry's population stage.
    pub fn set_metrics(&mut self, metrics: Arc<PopulationMetrics>) {
        self.metrics = metrics;
    }

    /// Restrict population to blocks the home-location map assigns to this
    /// instance (RAC distribution of IMCUs, §III.F).
    pub fn set_home_filter(
        &mut self,
        filter: Arc<dyn Fn(imadg_common::Dba) -> bool + Send + Sync>,
    ) {
        self.home_filter = Some(filter);
    }

    /// The column store this engine feeds.
    pub fn imcs(&self) -> &Arc<ImcsStore> {
        &self.imcs
    }

    /// Enable `object` for population on this instance.
    pub fn enable(&self, object: ObjectId) {
        self.enabled.write().insert(object);
    }

    /// Disable `object` and drop its units.
    pub fn disable(&self, object: ObjectId) {
        self.enabled.write().remove(&object);
        self.imcs.drop_object(object);
    }

    /// Is `object` enabled here?
    pub fn is_enabled(&self, object: ObjectId) -> bool {
        self.enabled.read().contains(&object)
    }

    /// One pass of the segment loader + population workers: populate
    /// uncovered block ranges and rebuild stale units.
    pub fn run_once(&self) -> Result<PopulationReport> {
        let mut report = PopulationReport::default();
        let enabled: Vec<ObjectId> = self.enabled.read().iter().copied().collect();
        for object in enabled {
            // An enabled object whose dictionary entry hasn't arrived yet
            // (standby: the CREATE TABLE marker is still in flight) is not
            // an error — there is simply nothing to populate yet.
            if self.store.table(object).is_err() {
                continue;
            }
            report.populated += self.populate_uncovered(object)?;
            report.repopulated += self.repopulate_stale(object)?;
        }
        self.metrics.passes.inc();
        self.metrics.imcus_built.add(report.populated as u64);
        self.metrics.imcus_repopulated.add(report.repopulated as u64);
        Ok(report)
    }

    /// Drive population to a fixed point: loop until a pass does nothing.
    pub fn run_until_idle(&self) -> Result<PopulationReport> {
        let mut total = PopulationReport::default();
        loop {
            let r = self.run_once()?;
            if !r.any() {
                return Ok(total);
            }
            total.populated += r.populated;
            total.repopulated += r.repopulated;
        }
    }

    fn blocks_per_unit(&self, rows_per_block: u16) -> usize {
        (self.config.imcu_max_rows / rows_per_block.max(1) as usize).max(1)
    }

    fn populate_uncovered(&self, object: ObjectId) -> Result<usize> {
        let meta = self.store.table(object)?;
        let obj_imcs = self.imcs.ensure_object(object, meta.tenant);
        let dbas = self.store.block_dbas(object)?;
        let uncovered: Vec<_> = dbas
            .into_iter()
            .filter(|d| !obj_imcs.covers(*d))
            .filter(|d| self.home_filter.as_ref().is_none_or(|f| f(*d)))
            .collect();
        if uncovered.is_empty() {
            return Ok(0);
        }
        let mut built = 0usize;
        for chunk in uncovered.chunks(self.blocks_per_unit(meta.rows_per_block)) {
            let chunk = chunk.to_vec();
            let schema = meta.schema.read().clone();
            // Step 1: capture + register the pending handle atomically with
            // respect to QuerySCN advancement.
            let mut handle: Option<Arc<ImcuHandle>> = None;
            let snapshot = self.source.capture_and_register(|s| {
                let h = Arc::new(ImcuHandle::new(Imcu::pending(
                    object,
                    meta.tenant,
                    chunk.clone(),
                    s,
                    schema.version(),
                )));
                obj_imcs.register(h.clone());
                handle = Some(h);
            });
            let (Some(snapshot), Some(handle)) = (snapshot, handle) else {
                return Ok(built); // no consistency point yet
            };
            // Steps 2-3: build online and swap in.
            let exprs = self.imcs.expressions(object);
            let imcu = Imcu::build_with_expressions(
                &self.store,
                object,
                meta.tenant,
                chunk,
                snapshot,
                &schema,
                &exprs,
            )?;
            handle.swap(imcu);
            built += 1;
            self.build_pause();
        }
        Ok(built)
    }

    fn repopulate_stale(&self, object: ObjectId) -> Result<usize> {
        let Some(obj_imcs) = self.imcs.object(object) else { return Ok(0) };
        let meta = self.store.table(object)?;
        let mut rebuilt = 0usize;
        for handle in obj_imcs.handles() {
            // Cold units hide behind pending placeholders; rebuilding them
            // here would defeat eviction (the pending-forced rebuild below
            // would recall every evicted unit on the next pass). Their
            // re-compaction is the cold-tier engine's job.
            if handle.is_cold() {
                continue;
            }
            let (imcu, smu) = handle.pair();
            let stale_enough =
                imcu.is_pending() || smu.staleness(imcu.rows()) >= self.config.repopulate_threshold;
            if !stale_enough {
                continue;
            }
            // Throttle on a lock-free read of the published snapshot before
            // taking the quiesce lock: don't rebuild for tiny snapshot
            // advances unless the unit is unusable (pending or
            // coarse-invalidated). Snapshots only move forward, so the
            // captured one passes whatever the peek passed.
            let Some(current) = self.source.peek() else { return Ok(rebuilt) };
            let forced = imcu.is_pending() || smu.read().all_invalid();
            if !forced
                && current.0.saturating_sub(imcu.snapshot.0) < self.config.repopulate_min_scn_gap
            {
                continue;
            }
            if current <= imcu.snapshot && !imcu.is_pending() {
                continue; // nothing newer to absorb
            }
            let Some(snapshot) = self.source.capture_and_register(|_| {}) else {
                return Ok(rebuilt);
            };
            let schema = meta.schema.read().clone();
            let exprs = self.imcs.expressions(object);
            let successor = imcu.rebuild(&self.store, snapshot, &schema, &exprs)?;
            let shared = successor.columns_shared_with(&imcu);
            self.metrics.columns_shared.add(shared as u64);
            self.metrics.columns_encoded.add((successor.column_count() - shared) as u64);
            handle.swap(successor);
            rebuilt += 1;
            self.build_pause();
        }
        Ok(rebuilt)
    }

    /// Yield between build quanta so background population does not starve
    /// queries or redo apply.
    fn build_pause(&self) {
        if self.config.build_pause_micros > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.config.build_pause_micros));
        }
    }
}

/// Convenience: which error marks "standby has no QuerySCN yet".
pub fn is_not_ready(err: &Error) -> bool {
    matches!(err, Error::NoQueryScn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_common::{RedoThreadId, TenantId};
    use imadg_redo::LogBuffer;
    use imadg_storage::{ColumnType, DbaAllocator, Schema, TableSpec, Value};
    use imadg_txn::{InMemoryRegistry, LockTable, TxnIdService, TxnManager};

    const OBJ: ObjectId = ObjectId(1);

    fn primary() -> (TxnManager, Arc<Store>, Arc<ScnService>) {
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
            schema: Schema::of(&[("id", ColumnType::Int), ("n", ColumnType::Int)]),
            key_ordinal: 0,
            rows_per_block: 16,
        })
        .unwrap();
        (txm, store, scns)
    }

    fn load(txm: &TxnManager, n: i64) {
        let mut tx = txm.begin(TenantId::DEFAULT);
        for k in 0..n {
            txm.insert(&mut tx, OBJ, vec![Value::Int(k), Value::Int(k * 2)]).unwrap();
        }
        txm.commit(tx);
    }

    fn engine(store: Arc<Store>, scns: Arc<ScnService>, cfg: ImcsConfig) -> PopulationEngine {
        let e = PopulationEngine::new(
            store,
            Arc::new(ImcsStore::new()),
            SnapshotSource::Primary(scns),
            cfg,
        )
        .unwrap();
        e.enable(OBJ);
        e
    }

    #[test]
    fn populates_in_chunks() {
        let (txm, store, scns) = primary();
        load(&txm, 100); // 16 rows/block → 7 blocks
        let cfg = ImcsConfig { imcu_max_rows: 32, ..Default::default() }; // 2 blocks/unit
        let e = engine(store, scns, cfg);
        let r = e.run_once().unwrap();
        assert_eq!(r.populated, 4, "7 blocks / 2 per unit → 4 units");
        let obj = e.imcs().object(OBJ).unwrap();
        assert_eq!(obj.populated_rows(), 100);
        // Second pass: nothing new.
        assert_eq!(e.run_once().unwrap().populated, 0);
    }

    #[test]
    fn new_blocks_extend_coverage() {
        let (txm, store, scns) = primary();
        load(&txm, 32); // 16 rows/block → 2 blocks
        let cfg = ImcsConfig {
            imcu_max_rows: 16,
            repopulate_min_scn_gap: 1_000_000,
            ..Default::default()
        };
        let e = engine(store, scns, cfg);
        assert_eq!(e.run_once().unwrap().populated, 2);
        // Append 64 more rows with fresh keys → 4 new blocks.
        let mut tx = txm.begin(TenantId::DEFAULT);
        for k in 1000..1064 {
            txm.insert(&mut tx, OBJ, vec![Value::Int(k), Value::Int(k)]).unwrap();
        }
        txm.commit(tx);
        let r = e.run_once().unwrap();
        assert_eq!(r.populated, 4, "new blocks get their own units");
        assert_eq!(e.imcs().object(OBJ).unwrap().populated_rows(), 96);
    }

    #[test]
    fn repopulates_when_stale() {
        let (txm, store, scns) = primary();
        load(&txm, 64);
        let cfg = ImcsConfig {
            repopulate_threshold: 0.1,
            repopulate_min_scn_gap: 0,
            ..Default::default()
        };
        let e = engine(store.clone(), scns, cfg);
        e.run_once().unwrap();
        let obj = e.imcs().object(OBJ).unwrap();
        let handle = &obj.handles()[0];
        let (imcu, smu) = handle.pair();
        let old_snapshot = imcu.snapshot;
        // Invalidate 20% of rows (as the flush component would).
        for rn in 0..(imcu.rows() / 5) as u32 {
            smu.invalidate_row(imcu.loc(rn), Scn(old_snapshot.0 + 1));
        }
        // Make new database time so there is something to absorb.
        let mut tx = txm.begin(TenantId::DEFAULT);
        txm.update_column_by_key(&mut tx, OBJ, 0, "n", Value::Int(999)).unwrap();
        txm.commit(tx);
        let r = e.run_once().unwrap();
        assert_eq!(r.repopulated, 1);
        let (imcu2, smu2) = handle.pair();
        assert!(imcu2.snapshot > old_snapshot);
        assert_eq!(smu2.read().fallback_count(), 0, "absorbed by rebuild");
        // The rebuilt unit holds the updated value.
        let rn = imcu2.rownum(imadg_storage::RowLoc { dba: imcu2.dbas[0], slot: 0 }).unwrap();
        assert_eq!(imcu2.value(rn, 1), Value::Int(999));
    }

    #[test]
    fn min_scn_gap_throttles_repopulation() {
        let (txm, store, scns) = primary();
        load(&txm, 32);
        let cfg = ImcsConfig {
            repopulate_threshold: 0.0,
            repopulate_min_scn_gap: 1_000_000,
            ..Default::default()
        };
        let e = engine(store, scns, cfg);
        e.run_once().unwrap();
        let r = e.run_once().unwrap();
        assert_eq!(r.repopulated, 0, "gap throttle holds");
        let _ = txm;
    }

    #[test]
    fn disable_drops_units() {
        let (txm, store, scns) = primary();
        load(&txm, 32);
        let e = engine(store, scns, ImcsConfig::default());
        e.run_once().unwrap();
        assert!(e.imcs().object(OBJ).is_some());
        e.disable(OBJ);
        assert!(e.imcs().object(OBJ).is_none());
        assert!(!e.is_enabled(OBJ));
        let _ = txm;
    }

    #[test]
    fn standby_source_requires_query_scn() {
        let (_txm, store, _scns) = primary();
        let query_scn = Arc::new(QueryScnCell::new());
        let e = PopulationEngine::new(
            store,
            Arc::new(ImcsStore::new()),
            SnapshotSource::Standby {
                query_scn: query_scn.clone(),
                quiesce: Arc::new(QuiesceLock::new()),
            },
            ImcsConfig::default(),
        )
        .unwrap();
        e.enable(OBJ);
        let r = e.run_once().unwrap();
        assert_eq!(r.populated, 0, "no consistency point published yet");
        query_scn.publish(Scn(1));
        // Now population can proceed (blocks exist? only if DML ran before —
        // here the table is empty, so still nothing to do).
        let r = e.run_once().unwrap();
        assert_eq!(r.populated, 0);
    }
}
