//! The redo dispatcher: hash-partitions the SCN-ordered merge output
//! across recovery worker queues (paper §II.A, Fig. 3).
//!
//! Routing rules:
//! * change vectors go to `hash(DBA) % workers` — each block has exactly
//!   one owner, so per-block apply order equals SCN order;
//! * transaction control records go to `hash(txn) % workers` (the "special
//!   block" of the transaction's undo segment header);
//! * DDL markers go to worker 0 — but CREATE TABLE is applied to the
//!   dictionary *inline at dispatch*, because the new table's change
//!   vectors hash to arbitrary workers and may be consumed before worker
//!   0 reaches the marker;
//! * after each dispatched batch, a watermark item carrying the batch's
//!   highest SCN is sent to *every* worker, so workers that received no
//!   work still advance their progress.

use std::sync::Arc;

use crossbeam::channel::Sender;
use imadg_common::{Result, Scn};
use imadg_redo::{RedoPayload, RedoRecord};
use imadg_storage::Store;

use crate::worker::WorkItem;

/// Fan-out stage from merged redo to worker queues.
pub struct Dispatcher {
    queues: Vec<Sender<WorkItem>>,
    store: Arc<Store>,
    highest_dispatched: Scn,
}

impl Dispatcher {
    /// Dispatcher over the workers' queue senders.
    pub fn new(queues: Vec<Sender<WorkItem>>, store: Arc<Store>) -> Self {
        assert!(!queues.is_empty());
        Dispatcher { queues, store, highest_dispatched: Scn::ZERO }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Highest SCN dispatched so far.
    pub fn highest(&self) -> Scn {
        self.highest_dispatched
    }

    /// Dispatch a batch of SCN-ordered records; returns items enqueued
    /// (excluding watermarks).
    pub fn dispatch(&mut self, records: Vec<RedoRecord>) -> Result<usize> {
        if records.is_empty() {
            return Ok(0);
        }
        let n = self.queues.len();
        let mut items = 0usize;
        for record in records {
            debug_assert!(record.scn >= self.highest_dispatched, "merge output is ordered");
            self.highest_dispatched = self.highest_dispatched.max(record.scn);
            let scn = record.scn;
            match record.payload {
                RedoPayload::Change(cvs) => {
                    for cv in cvs {
                        let w = cv.dba.worker_hash(n);
                        self.send(w, WorkItem::Change { scn, cv })?;
                        items += 1;
                    }
                }
                RedoPayload::Begin { txn, tenant } => {
                    self.send(txn.bucket(n), WorkItem::Begin { scn, txn, tenant })?;
                    items += 1;
                }
                RedoPayload::Commit(rec) => {
                    self.send(rec.txn.bucket(n), WorkItem::Commit { scn, record: rec })?;
                    items += 1;
                }
                RedoPayload::Abort { txn, .. } => {
                    self.send(txn.bucket(n), WorkItem::Abort { scn, txn })?;
                    items += 1;
                }
                RedoPayload::Marker(m) => {
                    // Physical dictionary changes must exist before any of
                    // the table's CVs — which are already being enqueued to
                    // other workers in this same batch — get applied.
                    // Idempotent on replay after restart.
                    if let imadg_redo::DdlKind::CreateTable(spec) = &m.ddl {
                        let _ = self.store.create_table(spec.clone());
                    }
                    self.send(0, WorkItem::Marker { scn, marker: std::sync::Arc::new(m) })?;
                    items += 1;
                }
                RedoPayload::Heartbeat => {} // swallowed by the merger normally
            }
        }
        // Batch watermark: every worker may advance to the batch's end.
        let wm = self.highest_dispatched;
        for w in 0..n {
            self.send(w, WorkItem::Watermark(wm))?;
        }
        Ok(items)
    }

    fn send(&self, worker: usize, item: WorkItem) -> Result<()> {
        self.queues[worker].send(item).map_err(|_| imadg_common::Error::TransportClosed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::work_queue;
    use imadg_common::{Dba, ObjectId, RedoThreadId, TenantId, TxnId};
    use imadg_storage::{ChangeOp, ChangeVector};

    fn change_record(scn: u64, dbas: &[u64]) -> RedoRecord {
        RedoRecord {
            thread: RedoThreadId(1),
            scn: Scn(scn),
            born_us: 0,
            payload: RedoPayload::Change(
                dbas.iter()
                    .map(|&d| ChangeVector {
                        dba: Dba(d),
                        object: ObjectId(1),
                        tenant: TenantId::DEFAULT,
                        txn: TxnId(1),
                        op: ChangeOp::Format { capacity: 8 },
                    })
                    .collect(),
            ),
        }
    }

    #[test]
    fn same_dba_routes_to_same_worker() {
        let (t0, r0) = work_queue();
        let (t1, r1) = work_queue();
        let mut d = Dispatcher::new(vec![t0, t1], Arc::new(Store::new()));
        d.dispatch(vec![change_record(1, &[42]), change_record(2, &[42])]).unwrap();
        let q0: Vec<_> = r0.try_iter().collect();
        let q1: Vec<_> = r1.try_iter().collect();
        let changes_0 = q0.iter().filter(|i| matches!(i, WorkItem::Change { .. })).count();
        let changes_1 = q1.iter().filter(|i| matches!(i, WorkItem::Change { .. })).count();
        assert!(
            (changes_0 == 2 && changes_1 == 0) || (changes_0 == 0 && changes_1 == 2),
            "both CVs for DBA 42 must land on one worker"
        );
    }

    #[test]
    fn watermark_reaches_all_workers() {
        let (t0, r0) = work_queue();
        let (t1, r1) = work_queue();
        let mut d = Dispatcher::new(vec![t0, t1], Arc::new(Store::new()));
        d.dispatch(vec![change_record(7, &[1])]).unwrap();
        for r in [&r0, &r1] {
            let items: Vec<_> = r.try_iter().collect();
            assert!(items.iter().any(|i| matches!(i, WorkItem::Watermark(s) if *s == Scn(7))));
        }
        assert_eq!(d.highest(), Scn(7));
    }

    #[test]
    fn control_records_follow_txn_hash() {
        let (t0, r0) = work_queue();
        let (t1, r1) = work_queue();
        let mut d = Dispatcher::new(vec![t0, t1], Arc::new(Store::new()));
        let txn = TxnId(99);
        d.dispatch(vec![
            RedoRecord {
                thread: RedoThreadId(1),
                scn: Scn(1),
                born_us: 0,
                payload: RedoPayload::Begin { txn, tenant: TenantId::DEFAULT },
            },
            RedoRecord {
                thread: RedoThreadId(1),
                scn: Scn(2),
                born_us: 0,
                payload: RedoPayload::Abort { txn, tenant: TenantId::DEFAULT },
            },
        ])
        .unwrap();
        let count = |r: &crossbeam::channel::Receiver<WorkItem>| {
            r.try_iter()
                .filter(|i| matches!(i, WorkItem::Begin { .. } | WorkItem::Abort { .. }))
                .count()
        };
        let (c0, c1) = (count(&r0), count(&r1));
        assert!((c0 == 2 && c1 == 0) || (c0 == 0 && c1 == 2));
    }

    #[test]
    fn empty_batch_is_noop() {
        let (t0, r0) = work_queue();
        let mut d = Dispatcher::new(vec![t0], Arc::new(Store::new()));
        assert_eq!(d.dispatch(vec![]).unwrap(), 0);
        assert_eq!(r0.try_iter().count(), 0, "no watermark for empty batch");
    }
}
