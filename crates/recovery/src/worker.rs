//! Recovery worker processes.
//!
//! Each worker owns a FIFO queue of work items dispatched to it by DBA hash
//! (paper Fig. 3), applies them in SCN order, fires the mining observers,
//! reports its progress, and periodically offers cooperative-flush help
//! (§III.D.2).

use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender, TryRecvError};
use imadg_common::metrics::{ApplyMetrics, Counter as CvCounter};
use imadg_common::{CpuAccount, Result, Scn, TenantId, TxnId, WorkerId};
use imadg_redo::{CommitRecord, RedoMarker};
use imadg_storage::{ChangeVector, Store};

use crate::observer::{ApplyObserver, CoopHelper, NoopHelper};

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
        /// Owning tenant.
        tenant: TenantId,
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
    observers: Vec<Arc<dyn ApplyObserver>>,
    helper: Arc<dyn CoopHelper>,
    /// Busy-time account (redo-apply CPU, §IV.C).
    pub cpu: CpuAccount,
    /// How many items between cooperative-flush checks.
    coop_check_every: usize,
    /// Budget of worklink nodes flushed per cooperative visit.
    coop_budget: usize,
    last_applied: Scn,
    applied_items: u64,
    /// Apply-stage metrics (shared item counter).
    metrics: Option<Arc<ApplyMetrics>>,
    /// This worker's CVs-applied counter from the registry.
    cv_counter: Option<Arc<CvCounter>>,
    /// Stamps the apply point of commit records, when attached.
    staleness: Option<Arc<imadg_common::metrics::StalenessTracker>>,
}

/// Create the queue for one worker.
pub fn work_queue() -> (Sender<WorkItem>, Receiver<WorkItem>) {
    crossbeam::channel::unbounded()
}

impl Worker {
    /// Build a worker over its queue.
    pub fn new(
        id: WorkerId,
        rx: Receiver<WorkItem>,
        store: Arc<Store>,
        observers: Vec<Arc<dyn ApplyObserver>>,
    ) -> Worker {
        Worker {
            id,
            rx,
            store,
            observers,
            helper: Arc::new(NoopHelper),
            cpu: CpuAccount::new(),
            coop_check_every: 64,
            coop_budget: 32,
            last_applied: Scn::ZERO,
            applied_items: 0,
            metrics: None,
            cv_counter: None,
            staleness: None,
        }
    }

    /// Record commit-record apply stamps into `tracker`.
    pub fn set_staleness(&mut self, tracker: Arc<imadg_common::metrics::StalenessTracker>) {
        self.staleness = Some(tracker);
    }

    /// Install the cooperative-flush helper (the invalidation flush
    /// component) and its batching knobs.
    pub fn set_coop(&mut self, helper: Arc<dyn CoopHelper>, check_every: usize, budget: usize) {
        self.helper = helper;
        self.coop_check_every = check_every.max(1);
        self.coop_budget = budget.max(1);
    }

    /// Report applied items into a registry's apply stage, including this
    /// worker's per-worker CV counter.
    pub fn set_metrics(&mut self, metrics: Arc<ApplyMetrics>) {
        self.cv_counter = Some(metrics.worker_counter(self.id.0 as usize));
        self.metrics = Some(metrics);
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
        let cpu = self.cpu.clone();
        let _t = cpu.timer();
        let mut n = 0usize;
        while n < max {
            let item = match self.rx.try_recv() {
                Ok(i) => i,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break,
            };
            self.apply(item)?;
            n += 1;
            if n.is_multiple_of(self.coop_check_every) {
                // Periodic cooperative-flush visit (paper §III.D.2).
                self.helper.help_flush(self.coop_budget);
            }
        }
        // Offer help even when the queue is idle: a worklink may exist while
        // no new redo is flowing to this worker.
        self.helper.help_flush(self.coop_budget);
        Ok(n)
    }

    fn apply(&mut self, item: WorkItem) -> Result<()> {
        let scn = item.scn();
        debug_assert!(scn >= self.last_applied, "worker queue must be SCN-ordered");
        match item {
            WorkItem::Change { scn, cv } => {
                self.store.apply_cv(&cv, scn)?;
                if let Some(c) = &self.cv_counter {
                    c.inc();
                }
                for o in &self.observers {
                    o.on_change(self.id, &cv, scn);
                }
            }
            WorkItem::Begin { scn, txn, tenant } => {
                self.store.txns().begin(txn);
                for o in &self.observers {
                    o.on_begin(self.id, txn, tenant, scn);
                }
            }
            WorkItem::Commit { scn, record } => {
                self.store.txns().commit(record.txn, record.commit_scn);
                if let Some(t) = &self.staleness {
                    t.on_apply(scn.0);
                }
                for o in &self.observers {
                    o.on_commit(self.id, &record);
                }
            }
            WorkItem::Abort { txn, tenant, .. } => {
                self.store.txns().abort(txn);
                for o in &self.observers {
                    o.on_abort(self.id, txn, tenant);
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
                for o in &self.observers {
                    o.on_marker(self.id, &marker, scn);
                }
            }
            WorkItem::Watermark(_) => {}
        }
        self.last_applied = self.last_applied.max(scn);
        self.applied_items += 1;
        if let Some(m) = &self.metrics {
            m.items_applied.inc();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_common::{Dba, ObjectId};
    use imadg_storage::{ChangeOp, ColumnType, Row, Schema, TableSpec, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    struct Counter(AtomicUsize);
    impl ApplyObserver for Counter {
        fn on_change(&self, _: WorkerId, _: &ChangeVector, _: Scn) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn applies_changes_and_fires_observers() {
        let s = store();
        let (tx, rx) = work_queue();
        let counter = Arc::new(Counter(AtomicUsize::new(0)));
        let mut w = Worker::new(WorkerId(0), rx, s.clone(), vec![counter.clone()]);

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
        assert_eq!(counter.0.load(Ordering::Relaxed), 2);
        assert_eq!(
            s.fetch_by_key(ObjectId(1), 7, Scn(4), None).unwrap().unwrap().1[0],
            Value::Int(7)
        );
    }

    #[test]
    fn batch_limit_respected() {
        let s = store();
        let (tx, rx) = work_queue();
        let mut w = Worker::new(WorkerId(0), rx, s, vec![]);
        for i in 1..=10u64 {
            tx.send(WorkItem::Watermark(Scn(i))).unwrap();
        }
        assert_eq!(w.run_batch(3).unwrap(), 3);
        assert_eq!(w.applied_through(), Scn(3));
        assert_eq!(w.run_batch(usize::MAX).unwrap(), 7);
        assert_eq!(w.applied_through(), Scn(10));
        assert_eq!(w.applied_items(), 10);
    }

    struct HelpCounter(AtomicUsize);
    impl CoopHelper for HelpCounter {
        fn help_flush(&self, _b: usize) -> usize {
            self.0.fetch_add(1, Ordering::Relaxed);
            0
        }
    }

    #[test]
    fn cooperative_help_offered() {
        let s = store();
        let (tx, rx) = work_queue();
        let mut w = Worker::new(WorkerId(0), rx, s, vec![]);
        let h = Arc::new(HelpCounter(AtomicUsize::new(0)));
        w.set_coop(h.clone(), 2, 4);
        for i in 1..=5u64 {
            tx.send(WorkItem::Watermark(Scn(i))).unwrap();
        }
        w.run_batch(usize::MAX).unwrap();
        // Checks at items 2 and 4, plus the end-of-batch offer.
        assert_eq!(h.0.load(Ordering::Relaxed), 3);
    }
}
