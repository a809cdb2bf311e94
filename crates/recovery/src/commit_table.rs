//! The IM-ADG Commit Table (paper §III.D.1).
//!
//! A commit-SCN-sorted structure mapping committed transactions to their
//! journal anchor nodes. When the recovery coordinator advances the
//! QuerySCN it *chops* the table: every node with commit SCN at or below
//! the new consistency point moves onto a worklink for flushing. "To
//! address the bottleneck of insertion into a single, sorted linked list,
//! the IM-ADG Commit Table can be partitioned" — partitioning is a
//! constructor parameter (and the subject of an ablation bench).

use std::collections::BTreeMap;
use std::sync::Arc;

use imadg_common::metrics::CommitTableMetrics;
use imadg_common::{Scn, TenantId, TxnId};
use parking_lot::Mutex;

use crate::journal::AnchorNode;

/// One committed transaction awaiting flush.
#[derive(Debug, Clone)]
pub struct CommitNode {
    /// The transaction.
    pub txn: TxnId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Its commit SCN.
    pub commit_scn: Scn,
    /// Specialized redo annotation from the commit record (§III.E).
    pub modified_inmemory: Option<bool>,
    /// Direct reference to the journal anchor holding the transaction's
    /// invalidation records ("one-step access", §III.D.1). `None` when no
    /// records were mined for the transaction.
    pub anchor: Option<Arc<AnchorNode>>,
}

/// Partitioned, commit-SCN-sorted table.
#[derive(Debug)]
pub struct CommitTable {
    partitions: Vec<Mutex<BTreeMap<(Scn, TxnId), CommitNode>>>,
    metrics: Arc<CommitTableMetrics>,
}

impl CommitTable {
    /// Table with `partitions` sorted lists, reporting into `metrics`.
    pub fn new(partitions: usize, metrics: Arc<CommitTableMetrics>) -> CommitTable {
        CommitTable {
            partitions: (0..partitions.max(1)).map(|_| Mutex::new(BTreeMap::new())).collect(),
            metrics,
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Insert a node (mining of a commit record).
    pub fn insert(&self, node: CommitNode) {
        let p = node.txn.bucket(self.partitions.len());
        self.partitions[p].lock().insert((node.commit_scn, node.txn), node);
        self.metrics.inserts.inc();
    }

    /// Chop: remove and return every node with commit SCN ≤ `upto`, in
    /// commit-SCN order per partition. This is the worklink input.
    pub fn chop(&self, upto: Scn) -> Vec<CommitNode> {
        let mut out = Vec::new();
        for p in &self.partitions {
            let mut map = p.lock();
            // split_off keeps the ≥-half in the original; we want the ≤-half.
            let keep = map.split_off(&(Scn(upto.0 + 1), TxnId(0)));
            out.extend(std::mem::replace(&mut *map, keep).into_values());
        }
        if !out.is_empty() {
            self.metrics.chops.inc();
            self.metrics.chopped_txns.add(out.len() as u64);
            self.metrics.chop_size.record_value(out.len() as u64);
        }
        out
    }

    /// Number of pending nodes.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.lock().len()).sum()
    }

    /// True when no nodes are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lowest pending commit SCN (diagnostics).
    pub fn min_pending(&self) -> Option<Scn> {
        self.partitions.iter().filter_map(|p| p.lock().keys().next().map(|(s, _)| *s)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(txn: u64, scn: u64) -> CommitNode {
        CommitNode {
            txn: TxnId(txn),
            tenant: TenantId::DEFAULT,
            commit_scn: Scn(scn),
            modified_inmemory: Some(true),
            anchor: None,
        }
    }

    #[test]
    fn chop_takes_exactly_up_to() {
        let t = CommitTable::new(1, Arc::default());
        for (txn, scn) in [(1, 10), (2, 20), (3, 30)] {
            t.insert(node(txn, scn));
        }
        let chopped = t.chop(Scn(20));
        assert_eq!(chopped.len(), 2);
        assert_eq!(chopped[0].commit_scn, Scn(10));
        assert_eq!(chopped[1].commit_scn, Scn(20), "inclusive boundary");
        assert_eq!(t.len(), 1);
        assert_eq!(t.min_pending(), Some(Scn(30)));
    }

    #[test]
    fn chop_empty_table() {
        let t = CommitTable::new(4, Arc::default());
        assert!(t.chop(Scn(100)).is_empty());
        assert!(t.is_empty());
        assert_eq!(t.min_pending(), None);
    }

    #[test]
    fn partitioned_chop_covers_all_partitions() {
        let t = CommitTable::new(4, Arc::default());
        for txn in 0..100u64 {
            t.insert(node(txn, txn + 1));
        }
        assert_eq!(t.len(), 100);
        let chopped = t.chop(Scn(50));
        assert_eq!(chopped.len(), 50);
        assert_eq!(t.len(), 50);
        // Within each partition, order is by commit SCN; overall multiset
        // is exactly SCNs 1..=50.
        let mut scns: Vec<u64> = chopped.iter().map(|n| n.commit_scn.0).collect();
        scns.sort_unstable();
        assert_eq!(scns, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn same_commit_scn_different_txns() {
        let t = CommitTable::new(1, Arc::default());
        t.insert(node(1, 10));
        t.insert(node(2, 10));
        assert_eq!(t.chop(Scn(10)).len(), 2);
    }

    #[test]
    fn concurrent_inserts() {
        let t = Arc::new(CommitTable::new(8, Arc::default()));
        let mut handles = Vec::new();
        for base in 0..4u64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    let id = base * 1000 + i;
                    t.insert(node(id, id + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 1000);
    }
}
