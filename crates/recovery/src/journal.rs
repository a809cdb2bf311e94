//! The IM-ADG Journal (paper §III.C).
//!
//! An in-memory hash table mapping transaction ids to their buffered
//! invalidation records. Design points taken directly from the paper:
//!
//! * the table is **sized from the apply parallelism** to keep contention
//!   low; hash chains are protected by a *bucket latch*;
//! * each anchor node gives **every recovery worker its own area**, so the
//!   common case — several workers mining records for one transaction —
//!   needs no synchronization between them;
//! * the anchor also remembers whether the *transaction begin* control
//!   record was mined; a missing begin after an instance restart marks the
//!   transaction as partially mined (§III.E).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use imadg_common::metrics::JournalMetrics;
use imadg_common::{TenantId, TxnId, WorkerId};
use parking_lot::Mutex;

use crate::invalidation::InvalidationRecord;

/// Anchor node: the per-transaction hub of buffered invalidation records.
#[derive(Debug)]
pub struct AnchorNode {
    /// Owning transaction.
    pub txn: TxnId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Was the `Begin` control record mined? (false after a standby
    /// restart that lost the earlier part of the transaction)
    has_begin: AtomicBool,
    /// Per-recovery-worker record areas.
    areas: Vec<Mutex<Vec<InvalidationRecord>>>,
    record_count: AtomicUsize,
}

impl AnchorNode {
    fn new(txn: TxnId, tenant: TenantId, workers: usize) -> AnchorNode {
        AnchorNode {
            txn,
            tenant,
            has_begin: AtomicBool::new(false),
            areas: (0..workers.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            record_count: AtomicUsize::new(0),
        }
    }

    /// Mark that the begin control record was mined.
    pub fn mark_begin(&self) {
        self.has_begin.store(true, Ordering::Release);
    }

    /// Was the transaction mined from its beginning?
    pub fn has_begin(&self) -> bool {
        self.has_begin.load(Ordering::Acquire)
    }

    /// Buffer a record in `worker`'s private area.
    pub fn add_record(&self, worker: WorkerId, record: InvalidationRecord) {
        let area = &self.areas[(worker.0 as usize) % self.areas.len()];
        area.lock().push(record);
        self.record_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total buffered records.
    pub fn record_count(&self) -> usize {
        self.record_count.load(Ordering::Relaxed)
    }

    /// Drain all areas (flush time — the transaction is being retired).
    pub fn drain_records(&self) -> Vec<InvalidationRecord> {
        let mut out = Vec::with_capacity(self.record_count());
        for area in &self.areas {
            out.append(&mut area.lock());
        }
        self.record_count.store(0, Ordering::Relaxed);
        out
    }
}

/// The journal: bucketized transaction → anchor map.
#[derive(Debug)]
pub struct Journal {
    buckets: Vec<Mutex<HashMap<TxnId, Arc<AnchorNode>>>>,
    workers: usize,
    metrics: Arc<JournalMetrics>,
}

impl Journal {
    /// Journal with `buckets` hash buckets and per-anchor areas for
    /// `workers` recovery workers, reporting into `metrics`.
    pub fn new(buckets: usize, workers: usize, metrics: Arc<JournalMetrics>) -> Journal {
        Journal {
            buckets: (0..buckets.max(1)).map(|_| Mutex::new(HashMap::new())).collect(),
            workers: workers.max(1),
            metrics,
        }
    }

    #[inline]
    fn bucket(&self, txn: TxnId) -> &Mutex<HashMap<TxnId, Arc<AnchorNode>>> {
        &self.buckets[txn.bucket(self.buckets.len())]
    }

    /// Get the anchor for `txn`, creating it under the bucket latch if
    /// missing.
    pub fn anchor_or_create(&self, txn: TxnId, tenant: TenantId) -> Arc<AnchorNode> {
        let bucket = self.bucket(txn);
        // Opportunistic try first so blocked acquisitions show up as
        // bucket-latch contention in the journal metrics.
        let mut guard = match bucket.try_lock() {
            Some(g) => g,
            None => {
                self.metrics.bucket_contention.inc();
                bucket.lock()
            }
        };
        match guard.entry(txn) {
            Entry::Occupied(e) => e.get().clone(),
            Entry::Vacant(e) => {
                self.metrics.anchors_created.inc();
                e.insert(Arc::new(AnchorNode::new(txn, tenant, self.workers))).clone()
            }
        }
    }

    /// Look up an anchor without creating it.
    pub fn anchor(&self, txn: TxnId) -> Option<Arc<AnchorNode>> {
        self.bucket(txn).lock().get(&txn).cloned()
    }

    /// Remove and return the anchor (commit flush or abort discard).
    pub fn remove(&self, txn: TxnId) -> Option<Arc<AnchorNode>> {
        self.bucket(txn).lock().remove(&txn)
    }

    /// Number of anchored transactions.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.lock().len()).sum()
    }

    /// True when no transactions are anchored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total buffered records across all anchors (diagnostics).
    pub fn total_records(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| b.lock().values().map(|a| a.record_count()).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_common::{Dba, ObjectId};

    fn rec(dba: u64, slot: u16) -> InvalidationRecord {
        InvalidationRecord { object: ObjectId(1), dba: Dba(dba), slot, tenant: TenantId::DEFAULT }
    }

    #[test]
    fn anchor_lifecycle() {
        let j = Journal::new(16, 4, Arc::default());
        assert!(j.is_empty());
        let a = j.anchor_or_create(TxnId(1), TenantId::DEFAULT);
        assert!(!a.has_begin());
        a.mark_begin();
        assert!(a.has_begin());
        let again = j.anchor_or_create(TxnId(1), TenantId::DEFAULT);
        assert!(Arc::ptr_eq(&a, &again), "same anchor returned");
        assert_eq!(j.len(), 1);
        let removed = j.remove(TxnId(1)).unwrap();
        assert!(Arc::ptr_eq(&a, &removed));
        assert!(j.anchor(TxnId(1)).is_none());
    }

    #[test]
    fn per_worker_areas_merge_on_drain() {
        let j = Journal::new(16, 4, Arc::default());
        let a = j.anchor_or_create(TxnId(1), TenantId::DEFAULT);
        a.add_record(WorkerId(0), rec(10, 0));
        a.add_record(WorkerId(3), rec(30, 1));
        a.add_record(WorkerId(0), rec(11, 2));
        assert_eq!(a.record_count(), 3);
        assert_eq!(j.total_records(), 3);
        let drained = a.drain_records();
        assert_eq!(drained.len(), 3);
        assert_eq!(a.record_count(), 0);
        // Worker-0's records stay in mined order.
        let w0: Vec<u64> = drained.iter().filter(|r| r.dba.0 < 20).map(|r| r.dba.0).collect();
        assert_eq!(w0, vec![10, 11]);
    }

    #[test]
    fn worker_id_beyond_area_count_wraps() {
        let j = Journal::new(4, 2, Arc::default());
        let a = j.anchor_or_create(TxnId(1), TenantId::DEFAULT);
        a.add_record(WorkerId(7), rec(1, 0)); // 7 % 2 = area 1
        assert_eq!(a.record_count(), 1);
    }

    #[test]
    fn many_transactions_spread_across_buckets() {
        let j = Journal::new(8, 2, Arc::default());
        for t in 0..100 {
            j.anchor_or_create(TxnId(t), TenantId::DEFAULT);
        }
        assert_eq!(j.len(), 100);
    }

    #[test]
    fn concurrent_mining_from_multiple_workers() {
        let j = Arc::new(Journal::new(64, 8, Arc::default()));
        let mut handles = Vec::new();
        for w in 0..8u16 {
            let j = j.clone();
            handles.push(std::thread::spawn(move || {
                for t in 0..50u64 {
                    let a = j.anchor_or_create(TxnId(t), TenantId::DEFAULT);
                    a.add_record(WorkerId(w), rec(u64::from(w) * 1000 + t, 0));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(j.len(), 50);
        assert_eq!(j.total_records(), 400);
    }
}
