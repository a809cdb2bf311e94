//! The primary-side transaction manager.
//!
//! Every DML allocates an SCN, appends a redo record to the instance's log
//! buffer and applies the change vector locally through the same
//! [`Store::apply_cv`] path the standby's recovery workers use. Commit
//! emits a commit record, optionally annotated with the "modified an
//! in-memory object" flag (specialized redo generation, paper §III.E).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::lock_table::LockTable;
use imadg_common::{Error, ObjectId, Result, Scn, ScnService, TenantId, TxnId};
use imadg_redo::{CommitRecord, DdlKind, LogBuffer, RedoMarker, RedoPayload};
use imadg_storage::{ChangeOp, ChangeVector, DbaAllocator, Row, RowLoc, Store, TableSpec, Value};

/// Global transaction-id allocator (shared across primary RAC instances).
#[derive(Debug, Default)]
pub struct TxnIdService {
    next: AtomicU64,
}

impl TxnIdService {
    /// Service whose first id is 1.
    pub fn new() -> Self {
        TxnIdService { next: AtomicU64::new(1) }
    }

    /// Service whose first id is `first` (promotion: a new primary over a
    /// recovered store must never reuse a replayed transaction id — a
    /// collision would resurrect orphaned uncommitted versions).
    pub fn starting_at(first: u64) -> Self {
        TxnIdService { next: AtomicU64::new(first.max(1)) }
    }

    /// Allocate a transaction id.
    pub fn next(&self) -> TxnId {
        TxnId(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

/// The registry of objects enabled for population into *any* IMCS (primary
/// or standby). The transaction manager consults it to annotate commit
/// records; the database layer maintains it when in-memory policies change.
pub type InMemoryRegistry = imadg_common::ObjectSet;

/// Commit-time staleness sink: the primary's own column store (when one is
/// populated) learns which row locations each commit dirtied, so scans at
/// later SCNs reconcile those rows from the row store instead of serving
/// the frozen columnar image. The standby's equivalent is the DBIM-on-ADG
/// flush; the primary wires its [`ImcsStore`] in directly.
pub trait InvalidationSink: Send + Sync {
    /// Mark one row location stale as of `commit_scn`. Called inside the
    /// commit's redo latch, before the transaction table makes the commit
    /// visible, so it must not generate redo.
    fn invalidate(&self, object: ObjectId, loc: RowLoc, commit_scn: Scn);
}

/// An in-flight transaction handle.
#[derive(Debug)]
pub struct Transaction {
    /// This transaction's id.
    pub id: TxnId,
    /// Owning tenant.
    pub tenant: TenantId,
    locked: Vec<RowLoc>,
    writes: Vec<(ObjectId, RowLoc)>,
    touched_objects: HashSet<ObjectId>,
    touched_inmemory: bool,
    finished: bool,
}

impl Transaction {
    /// Objects this transaction has modified so far.
    pub fn touched(&self) -> &HashSet<ObjectId> {
        &self.touched_objects
    }
}

/// The transaction manager of one primary instance.
pub struct TxnManager {
    store: Arc<Store>,
    scns: Arc<ScnService>,
    log: Arc<LogBuffer>,
    txn_ids: Arc<TxnIdService>,
    locks: Arc<LockTable>,
    inmemory: Arc<InMemoryRegistry>,
    dbas: Arc<DbaAllocator>,
    invalidation: Option<Arc<dyn InvalidationSink>>,
    /// Whether commit records carry the in-memory annotation (§III.E).
    pub annotate_commits: bool,
}

impl TxnManager {
    /// Build a transaction manager over one instance's store and redo
    /// thread. `locks` and `txn_ids` are shared across RAC instances.
    pub fn new(
        store: Arc<Store>,
        scns: Arc<ScnService>,
        log: Arc<LogBuffer>,
        txn_ids: Arc<TxnIdService>,
        locks: Arc<LockTable>,
        inmemory: Arc<InMemoryRegistry>,
        dbas: Arc<DbaAllocator>,
    ) -> Self {
        TxnManager {
            store,
            scns,
            log,
            txn_ids,
            locks,
            inmemory,
            dbas,
            invalidation: None,
            annotate_commits: true,
        }
    }

    /// Route commit-time staleness to a local column store.
    pub fn set_invalidation_sink(&mut self, sink: Arc<dyn InvalidationSink>) {
        self.invalidation = Some(sink);
    }

    /// The instance's store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The SCN service.
    pub fn scns(&self) -> &Arc<ScnService> {
        &self.scns
    }

    /// Begin a transaction; emits the `Begin` control record.
    pub fn begin(&self, tenant: TenantId) -> Transaction {
        let id = self.txn_ids.next();
        self.store.txns().begin(id);
        self.log.log_with(&self.scns, |_| RedoPayload::Begin { txn: id, tenant });
        Transaction {
            id,
            tenant,
            locked: Vec::new(),
            writes: Vec::new(),
            touched_objects: HashSet::new(),
            touched_inmemory: false,
            finished: false,
        }
    }

    fn log_and_apply(&self, cv: ChangeVector) -> Result<Scn> {
        let scn = self.log.log_with(&self.scns, |_| RedoPayload::Change(vec![cv.clone()]));
        self.store.apply_cv(&cv, scn)?;
        Ok(scn)
    }

    fn note_touch(&self, tx: &mut Transaction, object: ObjectId) {
        tx.touched_objects.insert(object);
        if self.inmemory.is_enabled(object) {
            tx.touched_inmemory = true;
        }
    }

    /// Insert a full row; returns its location.
    pub fn insert(
        &self,
        tx: &mut Transaction,
        object: ObjectId,
        values: Vec<Value>,
    ) -> Result<RowLoc> {
        debug_assert!(!tx.finished);
        let meta = self.store.table(object)?;
        meta.schema.read().check_row(&values)?;
        let row = Row::new(values);

        // Unique identity check.
        if let Value::Int(key) = row.get(meta.key_ordinal) {
            if self.store.index(object)?.contains(*key) {
                return Err(Error::DuplicateKey(*key));
            }
        }

        // Claim a slot under the segment lock; allocate a fresh block first
        // if the tail is full (Format CV precedes the insert CV).
        let segment = self.store.segment(object)?;
        let loc = {
            let mut seg = segment.lock();
            if seg.needs_block() {
                let dba = self.dbas.allocate();
                let capacity = seg.rows_per_block;
                drop(seg);
                self.log_and_apply(ChangeVector {
                    dba,
                    object,
                    tenant: tx.tenant,
                    txn: tx.id,
                    op: ChangeOp::Format { capacity },
                })?;
                seg = segment.lock();
            }
            seg.claim_insert_slot()
        };

        self.locks.acquire(loc, tx.id)?;
        tx.locked.push(loc);
        tx.writes.push((object, loc));
        self.note_touch(tx, object);
        self.log_and_apply(ChangeVector {
            dba: loc.dba,
            object,
            tenant: tx.tenant,
            txn: tx.id,
            op: ChangeOp::Insert { slot: loc.slot, row },
        })?;
        Ok(loc)
    }

    /// Update the row at `loc` to a new full image.
    pub fn update(
        &self,
        tx: &mut Transaction,
        object: ObjectId,
        loc: RowLoc,
        values: Vec<Value>,
    ) -> Result<()> {
        debug_assert!(!tx.finished);
        let meta = self.store.table(object)?;
        meta.schema.read().check_row(&values)?;
        self.locks.acquire(loc, tx.id)?;
        tx.locked.push(loc);
        tx.writes.push((object, loc));
        self.note_touch(tx, object);
        self.log_and_apply(ChangeVector {
            dba: loc.dba,
            object,
            tenant: tx.tenant,
            txn: tx.id,
            op: ChangeOp::Update { slot: loc.slot, row: Row::new(values) },
        })?;
        Ok(())
    }

    /// Look up `key`, apply `patch` to the current row image, and write the
    /// result. The read sees the transaction's own writes.
    pub fn update_by_key<F>(
        &self,
        tx: &mut Transaction,
        object: ObjectId,
        key: i64,
        patch: F,
    ) -> Result<RowLoc>
    where
        F: FnOnce(&Row) -> Vec<Value>,
    {
        debug_assert!(!tx.finished);
        let snapshot = self.scns.current();
        let (loc, row) = self
            .store
            .fetch_by_key(object, key, snapshot, Some(tx.id))?
            .ok_or(Error::KeyNotFound(key))?;
        // Lock before building the new image so the read row is stable.
        self.locks.acquire(loc, tx.id)?;
        tx.locked.push(loc);
        tx.writes.push((object, loc));
        let values = patch(&row);
        self.store.table(object)?.schema.read().check_row(&values)?;
        self.note_touch(tx, object);
        self.log_and_apply(ChangeVector {
            dba: loc.dba,
            object,
            tenant: tx.tenant,
            txn: tx.id,
            op: ChangeOp::Update { slot: loc.slot, row: Row::new(values) },
        })?;
        Ok(loc)
    }

    /// Delete the row with identity `key`.
    pub fn delete_by_key(
        &self,
        tx: &mut Transaction,
        object: ObjectId,
        key: i64,
    ) -> Result<RowLoc> {
        debug_assert!(!tx.finished);
        let snapshot = self.scns.current();
        let (loc, _) = self
            .store
            .fetch_by_key(object, key, snapshot, Some(tx.id))?
            .ok_or(Error::KeyNotFound(key))?;
        self.locks.acquire(loc, tx.id)?;
        tx.locked.push(loc);
        tx.writes.push((object, loc));
        self.note_touch(tx, object);
        self.log_and_apply(ChangeVector {
            dba: loc.dba,
            object,
            tenant: tx.tenant,
            txn: tx.id,
            op: ChangeOp::Delete { slot: loc.slot },
        })?;
        Ok(loc)
    }

    /// Commit; returns the commit SCN.
    pub fn commit(&self, mut tx: Transaction) -> Scn {
        let modified_inmemory =
            if self.annotate_commits { Some(tx.touched_inmemory) } else { None };
        let txn = tx.id;
        let tenant = tx.tenant;
        let store = self.store.clone();
        let (sink, writes) = (self.invalidation.as_deref(), &tx.writes);
        let commit_scn = self.log.log_with(&self.scns, |scn| {
            // Invalidation never lags publication: every touched location
            // goes stale in the column store before the txn table makes
            // the commit visible, or a reader whose snapshot covers the
            // commit would read its rows from a cell still marked valid.
            if let Some(sink) = sink {
                for &(object, loc) in writes {
                    sink.invalidate(object, loc, scn);
                }
            }
            // The commit CV is "applied to a special block" at the commit
            // SCN: update the transaction table inside the latch window so
            // no reader can observe a commit record SCN before the table.
            store.txns().commit(txn, scn);
            RedoPayload::Commit(CommitRecord { txn, tenant, commit_scn: scn, modified_inmemory })
        });
        self.locks.release_all(&tx.locked, tx.id);
        tx.finished = true;
        commit_scn
    }

    /// Roll back.
    pub fn abort(&self, mut tx: Transaction) {
        let txn = tx.id;
        let tenant = tx.tenant;
        let store = self.store.clone();
        self.log.log_with(&self.scns, |_| {
            store.txns().abort(txn);
            RedoPayload::Abort { txn, tenant }
        });
        self.locks.release_all(&tx.locked, tx.id);
        tx.finished = true;
    }

    /// Execute DDL on the primary: apply to the local dictionary and emit a
    /// redo marker so the standby replays it (paper §III.G).
    pub fn execute_ddl(&self, object: ObjectId, tenant: TenantId, ddl: DdlKind) -> Result<()> {
        match &ddl {
            DdlKind::CreateTable(spec) => {
                self.store.create_table(spec.clone())?;
            }
            DdlKind::AddColumn { name, ctype } => {
                self.store.table(object)?.schema.write().add_column(name.clone(), *ctype)?;
            }
            DdlKind::DropColumn { name } => {
                self.store.table(object)?.schema.write().drop_column(name)?;
            }
            DdlKind::SetInMemory { enabled } => {
                if *enabled {
                    self.inmemory.enable(object);
                } else {
                    self.inmemory.disable(object);
                }
            }
        }
        self.log.log_with(&self.scns, |_| RedoPayload::Marker(RedoMarker { object, tenant, ddl }));
        Ok(())
    }

    /// Convenience: create a table via DDL marker (replicates to standby).
    pub fn create_table(&self, spec: TableSpec) -> Result<()> {
        let object = spec.id;
        let tenant = spec.tenant;
        self.execute_ddl(object, tenant, DdlKind::CreateTable(spec))
    }

    /// Convenience: patch one live column by name through `update_by_key`.
    pub fn update_column_by_key(
        &self,
        tx: &mut Transaction,
        object: ObjectId,
        key: i64,
        column: &str,
        value: Value,
    ) -> Result<RowLoc> {
        let meta = self.store.table(object)?;
        let ord = meta.schema.read().ordinal(column)?;
        if !value.matches_type(meta.schema.read().column(column)?.ctype) {
            return Err(Error::TypeMismatch { column: column.to_string() });
        }
        self.update_by_key(tx, object, key, |row| {
            let mut v: Vec<Value> = row.values().to_vec();
            if ord >= v.len() {
                v.resize(ord + 1, Value::Null);
            }
            v[ord] = value;
            v
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_common::RedoThreadId;
    use imadg_storage::{ColumnType, Schema};

    fn setup() -> (TxnManager, ObjectId) {
        let store = Arc::new(Store::new());
        let scns = Arc::new(ScnService::new());
        let log = Arc::new(LogBuffer::new(RedoThreadId(1)));
        let txm = TxnManager::new(
            store,
            scns,
            log,
            Arc::new(TxnIdService::new()),
            Arc::new(LockTable::new()),
            Arc::new(InMemoryRegistry::new()),
            Arc::new(DbaAllocator::default()),
        );
        let obj = ObjectId(1);
        txm.create_table(TableSpec {
            id: obj,
            name: "t".into(),
            tenant: TenantId::DEFAULT,
            schema: Schema::of(&[
                ("id", ColumnType::Int),
                ("n1", ColumnType::Int),
                ("c1", ColumnType::Varchar),
            ]),
            key_ordinal: 0,
            rows_per_block: 4,
        })
        .unwrap();
        (txm, obj)
    }

    fn row(k: i64, n: i64, c: &str) -> Vec<Value> {
        vec![Value::Int(k), Value::Int(n), Value::str(c)]
    }

    #[test]
    fn insert_commit_read() {
        let (txm, obj) = setup();
        let mut tx = txm.begin(TenantId::DEFAULT);
        txm.insert(&mut tx, obj, row(1, 10, "a")).unwrap();
        let cscn = txm.commit(tx);
        let got = txm.store().fetch_by_key(obj, 1, cscn, None).unwrap().unwrap().1;
        assert_eq!(got[1], Value::Int(10));
        // Invisible just before commit.
        assert!(txm.store().fetch_by_key(obj, 1, Scn(cscn.0 - 1), None).unwrap().is_none());
    }

    #[test]
    fn own_writes_visible_before_commit() {
        let (txm, obj) = setup();
        let mut tx = txm.begin(TenantId::DEFAULT);
        txm.insert(&mut tx, obj, row(1, 10, "a")).unwrap();
        let snapshot = txm.scns().current();
        let seen = txm.store().fetch_by_key(obj, 1, snapshot, Some(tx.id)).unwrap();
        assert!(seen.is_some());
        let other = txm.store().fetch_by_key(obj, 1, snapshot, None).unwrap();
        assert!(other.is_none());
        txm.commit(tx);
    }

    #[test]
    fn abort_leaves_no_trace_for_readers() {
        let (txm, obj) = setup();
        let mut tx = txm.begin(TenantId::DEFAULT);
        txm.insert(&mut tx, obj, row(1, 10, "a")).unwrap();
        txm.abort(tx);
        let snapshot = txm.scns().current();
        assert!(txm.store().fetch_by_key(obj, 1, snapshot, None).unwrap().is_none());
    }

    #[test]
    fn duplicate_key_rejected() {
        let (txm, obj) = setup();
        let mut tx = txm.begin(TenantId::DEFAULT);
        txm.insert(&mut tx, obj, row(1, 10, "a")).unwrap();
        txm.commit(tx);
        let mut tx2 = txm.begin(TenantId::DEFAULT);
        assert!(matches!(txm.insert(&mut tx2, obj, row(1, 99, "b")), Err(Error::DuplicateKey(1))));
        txm.abort(tx2);
    }

    #[test]
    fn write_conflict_between_active_txns() {
        let (txm, obj) = setup();
        let mut setupx = txm.begin(TenantId::DEFAULT);
        txm.insert(&mut setupx, obj, row(1, 10, "a")).unwrap();
        txm.commit(setupx);

        let mut t1 = txm.begin(TenantId::DEFAULT);
        let mut t2 = txm.begin(TenantId::DEFAULT);
        txm.update_column_by_key(&mut t1, obj, 1, "n1", Value::Int(11)).unwrap();
        assert!(matches!(
            txm.update_column_by_key(&mut t2, obj, 1, "n1", Value::Int(12)),
            Err(Error::WriteConflict { .. })
        ));
        txm.commit(t1);
        // After t1 commits the row is writable again.
        txm.update_column_by_key(&mut t2, obj, 1, "n1", Value::Int(12)).unwrap();
        let cscn = txm.commit(t2);
        let got = txm.store().fetch_by_key(obj, 1, cscn, None).unwrap().unwrap().1;
        assert_eq!(got[1], Value::Int(12));
    }

    #[test]
    fn update_by_key_reads_own_writes() {
        let (txm, obj) = setup();
        let mut tx = txm.begin(TenantId::DEFAULT);
        txm.insert(&mut tx, obj, row(1, 10, "a")).unwrap();
        txm.update_column_by_key(&mut tx, obj, 1, "n1", Value::Int(20)).unwrap();
        txm.update_by_key(&mut tx, obj, 1, |r| {
            assert_eq!(r[1], Value::Int(20), "sees prior write in same txn");
            let mut v = r.values().to_vec();
            v[1] = Value::Int(30);
            v
        })
        .unwrap();
        let cscn = txm.commit(tx);
        let got = txm.store().fetch_by_key(obj, 1, cscn, None).unwrap().unwrap().1;
        assert_eq!(got[1], Value::Int(30));
    }

    #[test]
    fn delete_by_key() {
        let (txm, obj) = setup();
        let mut tx = txm.begin(TenantId::DEFAULT);
        txm.insert(&mut tx, obj, row(1, 10, "a")).unwrap();
        let before = txm.commit(tx);
        let mut tx2 = txm.begin(TenantId::DEFAULT);
        txm.delete_by_key(&mut tx2, obj, 1).unwrap();
        let after = txm.commit(tx2);
        assert!(txm.store().fetch_by_key(obj, 1, after, None).unwrap().is_none());
        // Historical row-image reads still work through the version chain.
        let dbas = txm.store().block_dbas(obj).unwrap();
        let mut n = 0;
        txm.store().scan_blocks(&dbas, before, |_, _| n += 1).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn inserts_spill_to_new_blocks() {
        let (txm, obj) = setup();
        let mut tx = txm.begin(TenantId::DEFAULT);
        for k in 0..10 {
            txm.insert(&mut tx, obj, row(k, k, "x")).unwrap();
        }
        let cscn = txm.commit(tx);
        assert!(txm.store().block_dbas(obj).unwrap().len() >= 3, "4 rows/block → ≥3 blocks");
        let mut n = 0;
        txm.store().scan_object(obj, cscn, None, |_, _| n += 1).unwrap();
        assert_eq!(n, 10);
    }

    #[test]
    fn commit_annotation_tracks_inmemory_touch() {
        let (txm, obj) = setup();
        // Not enabled: flag false.
        let mut tx = txm.begin(TenantId::DEFAULT);
        txm.insert(&mut tx, obj, row(1, 1, "a")).unwrap();
        assert!(!tx.touched_inmemory);
        txm.commit(tx);
        // Enable and touch: flag true.
        txm.execute_ddl(obj, TenantId::DEFAULT, DdlKind::SetInMemory { enabled: true }).unwrap();
        let mut tx2 = txm.begin(TenantId::DEFAULT);
        txm.insert(&mut tx2, obj, row(2, 2, "b")).unwrap();
        assert!(tx2.touched_inmemory);
        txm.commit(tx2);
    }

    #[test]
    fn ddl_add_drop_column() {
        let (txm, obj) = setup();
        txm.execute_ddl(
            obj,
            TenantId::DEFAULT,
            DdlKind::AddColumn { name: "n2".into(), ctype: ColumnType::Int },
        )
        .unwrap();
        let mut tx = txm.begin(TenantId::DEFAULT);
        txm.insert(
            &mut tx,
            obj,
            vec![Value::Int(1), Value::Int(2), Value::str("a"), Value::Int(4)],
        )
        .unwrap();
        let cscn = txm.commit(tx);
        let meta = txm.store().table(obj).unwrap();
        let ord = meta.schema.read().ordinal("n2").unwrap();
        let r = txm.store().fetch_by_key(obj, 1, cscn, None).unwrap().unwrap().1;
        assert_eq!(r[ord], Value::Int(4));
        txm.execute_ddl(obj, TenantId::DEFAULT, DdlKind::DropColumn { name: "n1".into() }).unwrap();
        assert!(meta.schema.read().ordinal("n1").is_err());
    }
}
