//! Recovery worker processes.
//!
//! Each worker owns a FIFO queue of work items dispatched to it by DBA hash
//! (paper Fig. 3), applies them in SCN order, hands each one to the mining
//! component (§III.B), reports its progress, and periodically offers
//! cooperative-flush help (§III.D.2).

use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender, TryRecvError};
use imadg_common::metrics::{ApplyMetrics, Counter as CvCounter, StalenessTracker};
use imadg_common::{MetricsRegistry, Result, Scn, TenantId, TxnId, WorkerId};
use imadg_redo::{CommitRecord, RedoMarker};
use imadg_storage::{ChangeVector, Store};

use crate::adg::DbimAdg;

/// Items a worker applies between cooperative-flush visits.
const COOP_CHECK_EVERY: usize = 64;
/// Worklink nodes a worker flushes per cooperative visit before resuming
/// redo apply (paper §III.D.2).
const COOP_BUDGET: usize = 32;

/// One unit of work on a worker queue.
#[derive(Debug, Clone)]
pub enum WorkItem {
    /// Apply a change vector generated at `scn`.
    Change {
        /// Record SCN.
        scn: Scn,
        /// The change vector.
        cv: ChangeVector,
    },
    /// Apply a begin control record.
    Begin {
        /// Record SCN.
        scn: Scn,
        /// Starting transaction.
        txn: TxnId,
        /// Owning tenant.
        tenant: TenantId,
    },
    /// Apply a commit record ("commit CV to the special block").
    Commit {
        /// Record SCN (equals the commit SCN).
        scn: Scn,
        /// The commit record.
        record: CommitRecord,
    },
    /// Apply an abort record.
    Abort {
        /// Record SCN.
        scn: Scn,
        /// Aborting transaction.
        txn: TxnId,
    },
    /// Apply a DDL redo marker.
    Marker {
        /// Record SCN.
        scn: Scn,
        /// The marker.
        marker: Arc<RedoMarker>,
    },
    /// No-op carrying "everything at or below `0` is dispatched": advances
    /// the worker's progress past SCN gaps it received no work for.
    Watermark(Scn),
}

impl WorkItem {
    /// The SCN this item advances the worker to once applied.
    pub fn scn(&self) -> Scn {
        match self {
            WorkItem::Change { scn, .. }
            | WorkItem::Begin { scn, .. }
            | WorkItem::Commit { scn, .. }
            | WorkItem::Abort { scn, .. }
            | WorkItem::Marker { scn, .. }
            | WorkItem::Watermark(scn) => *scn,
        }
    }
}

/// A recovery worker: queue consumer + apply engine.
pub struct Worker {
    /// This worker's id.
    pub id: WorkerId,
    rx: Receiver<WorkItem>,
    store: Arc<Store>,
    /// The DBIM-on-ADG infrastructure this worker mines into and helps
    /// flush; `None` is recovery without it (the paper's baseline).
    adg: Option<Arc<DbimAdg>>,
    last_applied: Scn,
    applied_items: u64,
    /// Apply-stage metrics (shared item counter).
    metrics: Arc<ApplyMetrics>,
    /// This worker's CVs-applied counter from the registry.
    cv_counter: Arc<CvCounter>,
    /// Stamps the apply point of commit records.
    staleness: Arc<StalenessTracker>,
}

/// Create the queue for one worker.
pub fn work_queue() -> (Sender<WorkItem>, Receiver<WorkItem>) {
    crossbeam::channel::unbounded()
}

impl Worker {
    /// Build a worker over its queue, reporting into the apply stage and
    /// staleness tracker of `registry`.
    pub fn new(
        id: WorkerId,
        rx: Receiver<WorkItem>,
        store: Arc<Store>,
        adg: Option<Arc<DbimAdg>>,
        registry: &MetricsRegistry,
    ) -> Worker {
        Worker {
            id,
            rx,
            store,
            adg,
            last_applied: Scn::ZERO,
            applied_items: 0,
            metrics: registry.apply.clone(),
            cv_counter: registry.apply.worker_cvs.counter(id.0 as usize),
            staleness: registry.staleness.clone(),
        }
    }

    /// SCN this worker has applied through.
    pub fn applied_through(&self) -> Scn {
        self.last_applied
    }

    /// Total items applied (diagnostics).
    pub fn applied_items(&self) -> u64 {
        self.applied_items
    }

    /// Apply up to `max` queued items; returns how many were applied.
    /// Progress is reported through the returned high-SCN; the caller (the
    /// pipeline) forwards it to the shared [`crate::Progress`] tracker.
    pub fn run_batch(&mut self, max: usize) -> Result<usize> {
        let mut n = 0usize;
        while n < max {
            let item = match self.rx.try_recv() {
                Ok(i) => i,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break,
            };
            self.apply(item)?;
            n += 1;
            if n.is_multiple_of(COOP_CHECK_EVERY) {
                // Periodic cooperative-flush visit (paper §III.D.2).
                self.help_flush();
            }
        }
        // Offer help even when the queue is idle: a worklink may exist while
        // no new redo is flowing to this worker.
        self.help_flush();
        Ok(n)
    }

    fn help_flush(&self) {
        if let Some(adg) = &self.adg {
            adg.flush.help_flush(COOP_BUDGET);
        }
    }

    fn apply(&mut self, item: WorkItem) -> Result<()> {
        let scn = item.scn();
        debug_assert!(scn >= self.last_applied, "worker queue must be SCN-ordered");
        let mining = self.adg.as_ref().map(|a| &a.mining);
        match item {
            WorkItem::Change { scn, cv } => {
                self.store.apply_cv(&cv, scn)?;
                self.cv_counter.inc();
                if let Some(m) = mining {
                    m.on_change(self.id, &cv);
                }
            }
            WorkItem::Begin { txn, tenant, .. } => {
                self.store.txns().begin(txn);
                if let Some(m) = mining {
                    m.on_begin(txn, tenant);
                }
            }
            WorkItem::Commit { scn, record } => {
                self.store.txns().commit(record.txn, record.commit_scn);
                self.staleness.on_apply(scn.0);
                if let Some(m) = mining {
                    m.on_commit(&record);
                }
            }
            WorkItem::Abort { txn, .. } => {
                self.store.txns().abort(txn);
                if let Some(m) = mining {
                    m.on_abort(txn);
                }
            }
            WorkItem::Marker { scn, marker } => {
                // CREATE TABLE is a physical dictionary change: it must be
                // applied inline, before the table's first CV arrives at any
                // worker. Other DDLs are dictionary-only and take effect at
                // QuerySCN advancement via the DDL Information Table (§III.G).
                if let imadg_redo::DdlKind::CreateTable(spec) = &marker.ddl {
                    // Idempotent on replay after restart.
                    let _ = self.store.create_table(spec.clone());
                }
                if let Some(m) = mining {
                    m.on_marker(&marker, scn);
                }
            }
            WorkItem::Watermark(_) => {}
        }
        self.last_applied = self.last_applied.max(scn);
        self.applied_items += 1;
        self.metrics.items_applied.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit_table::CommitNode;
    use crate::flush::LocalFlushTarget;
    use crate::worklink::Worklink;
    use imadg_common::{Dba, ObjectId, ObjectSet};
    use imadg_imcs::ImcsStore;
    use imadg_storage::{ChangeOp, ColumnType, Row, Schema, TableSpec, Value};

    fn store() -> Arc<Store> {
        let s = Arc::new(Store::new());
        s.create_table(TableSpec {
            id: ObjectId(1),
            name: "t".into(),
            tenant: TenantId::DEFAULT,
            schema: Schema::of(&[("id", ColumnType::Int)]),
            key_ordinal: 0,
            rows_per_block: 8,
        })
        .unwrap();
        s
    }

    /// DBIM-on-ADG over `store` with object 1 enabled for population.
    fn adg(store: &Arc<Store>) -> Arc<DbimAdg> {
        let enabled = Arc::new(ObjectSet::new());
        enabled.enable(ObjectId(1));
        Arc::new(DbimAdg::new(
            1,
            enabled,
            store.clone(),
            Arc::new(LocalFlushTarget::new(Arc::new(ImcsStore::new()))),
            &MetricsRegistry::default(),
        ))
    }

    #[test]
    fn applies_changes_and_mines_them() {
        let s = store();
        let adg = adg(&s);
        let (tx, rx) = work_queue();
        let mut w =
            Worker::new(WorkerId(0), rx, s.clone(), Some(adg.clone()), &MetricsRegistry::default());

        let cv_fmt = ChangeVector {
            dba: Dba(1),
            object: ObjectId(1),
            tenant: TenantId::DEFAULT,
            txn: TxnId(1),
            op: ChangeOp::Format { capacity: 8 },
        };
        let cv_ins = ChangeVector {
            dba: Dba(1),
            object: ObjectId(1),
            tenant: TenantId::DEFAULT,
            txn: TxnId(1),
            op: ChangeOp::Insert { slot: 0, row: Row::new(vec![Value::Int(7)]) },
        };
        tx.send(WorkItem::Begin { scn: Scn(1), txn: TxnId(1), tenant: TenantId::DEFAULT }).unwrap();
        tx.send(WorkItem::Change { scn: Scn(2), cv: cv_fmt }).unwrap();
        tx.send(WorkItem::Change { scn: Scn(3), cv: cv_ins }).unwrap();
        tx.send(WorkItem::Commit {
            scn: Scn(4),
            record: CommitRecord {
                txn: TxnId(1),
                tenant: TenantId::DEFAULT,
                commit_scn: Scn(4),
                modified_inmemory: Some(false),
            },
        })
        .unwrap();
        tx.send(WorkItem::Watermark(Scn(9))).unwrap();

        let n = w.run_batch(usize::MAX).unwrap();
        assert_eq!(n, 5);
        assert_eq!(w.applied_through(), Scn(9));
        // Both CVs were sniffed; the Format CV carries no row, so the
        // journal holds the insert's one record, linked from the commit.
        assert_eq!(adg.mining.stats.sniffed.get(), 2);
        assert_eq!(adg.journal.total_records(), 1);
        assert_eq!(adg.commit_table.len(), 1);
        assert_eq!(
            s.fetch_by_key(ObjectId(1), 7, Scn(4), None).unwrap().unwrap().1[0],
            Value::Int(7)
        );
    }

    #[test]
    fn batch_limit_respected() {
        let s = store();
        let (tx, rx) = work_queue();
        let mut w = Worker::new(WorkerId(0), rx, s, None, &MetricsRegistry::default());
        for i in 1..=10u64 {
            tx.send(WorkItem::Watermark(Scn(i))).unwrap();
        }
        assert_eq!(w.run_batch(3).unwrap(), 3);
        assert_eq!(w.applied_through(), Scn(3));
        assert_eq!(w.run_batch(usize::MAX).unwrap(), 7);
        assert_eq!(w.applied_through(), Scn(10));
        assert_eq!(w.applied_items(), 10);
    }

    #[test]
    fn cooperative_help_offered() {
        let s = store();
        let adg = adg(&s);
        // A live worklink of 100 nodes, as the coordinator installs it
        // while an advancement is in flight.
        let nodes = (0..100)
            .map(|t| CommitNode {
                txn: TxnId(t),
                tenant: TenantId::DEFAULT,
                commit_scn: Scn(t + 1),
                modified_inmemory: Some(false),
                anchor: None,
            })
            .collect();
        *adg.flush.current.write() = Some(Arc::new(Worklink::new(nodes)));
        let (tx, rx) = work_queue();
        let mut w = Worker::new(WorkerId(0), rx, s, Some(adg.clone()), &MetricsRegistry::default());
        for i in 1..=COOP_CHECK_EVERY as u64 {
            tx.send(WorkItem::Watermark(Scn(i))).unwrap();
        }
        w.run_batch(usize::MAX).unwrap();
        // One visit after item 64 and one at the end of the batch.
        assert_eq!(adg.flush.stats.coop_flushed.get(), 2 * COOP_BUDGET as u64);
        assert_eq!(adg.flush.stats.flushed_txns.get(), 2 * COOP_BUDGET as u64);
    }
}
