//! The Mining Component (paper §III.B).
//!
//! Piggybacks on the recovery workers: every worker calls it for each
//! record it applies. Every applied CV against an in-memory-enabled object
//! yields an invalidation record buffered in the IM-ADG Journal;
//! transaction control information maintains the journal anchors and the
//! IM-ADG Commit Table; DDL markers go to the DDL Information Table. The
//! work done per CV is a set-membership test plus one push into a
//! per-worker area — the "thin layer" the paper requires on the apply
//! critical path.

use std::sync::Arc;

use imadg_common::metrics::MiningMetrics;
use imadg_common::{ObjectSet, Scn, TenantId, TxnId, WorkerId};
use imadg_redo::{CommitRecord, RedoMarker};
use imadg_storage::{ChangeOp, ChangeVector};

use crate::commit_table::{CommitNode, CommitTable};
use crate::ddl_table::DdlTable;
use crate::invalidation::InvalidationRecord;
use crate::journal::Journal;

/// The mining component of one standby (master) instance.
pub struct MiningComponent {
    journal: Arc<Journal>,
    commit_table: Arc<CommitTable>,
    ddl_table: Arc<DdlTable>,
    /// Objects enabled for population into the standby's IMCS.
    enabled: Arc<ObjectSet>,
    /// Event counters (shared with the pipeline metrics registry).
    pub stats: Arc<MiningMetrics>,
}

impl MiningComponent {
    /// Wire the mining component over its tables, reporting into `stats`.
    pub fn new(
        journal: Arc<Journal>,
        commit_table: Arc<CommitTable>,
        ddl_table: Arc<DdlTable>,
        enabled: Arc<ObjectSet>,
        stats: Arc<MiningMetrics>,
    ) -> MiningComponent {
        MiningComponent { journal, commit_table, ddl_table, enabled, stats }
    }

    /// The journal this component feeds.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// The commit table this component feeds.
    pub fn commit_table(&self) -> &Arc<CommitTable> {
        &self.commit_table
    }

    /// `worker` applied a data change vector.
    pub fn on_change(&self, worker: WorkerId, cv: &ChangeVector) {
        self.stats.sniffed.inc();
        if !self.enabled.is_enabled(cv.object) {
            return;
        }
        let slot = match &cv.op {
            // Space-management CVs don't invalidate row data.
            ChangeOp::Format { .. } => return,
            op => op.slot().expect("row change has a slot"),
        };
        let anchor = self.journal.anchor_or_create(cv.txn, cv.tenant);
        anchor.add_record(
            worker,
            InvalidationRecord { object: cv.object, dba: cv.dba, slot, tenant: cv.tenant },
        );
        self.stats.mined.inc();
    }

    /// A transaction-begin control record was applied.
    pub fn on_begin(&self, txn: TxnId, tenant: TenantId) {
        self.journal.anchor_or_create(txn, tenant).mark_begin();
    }

    /// A commit record was applied.
    pub fn on_commit(&self, record: &CommitRecord) {
        let anchor = self.journal.anchor(record.txn);
        // Skip transactions that provably touched nothing in-memory: the
        // specialized annotation says false AND nothing was mined. This is
        // the fast path that keeps the commit table small under pure-OLTP
        // load against non-IMCS objects.
        if record.modified_inmemory == Some(false) && anchor.is_none() {
            return;
        }
        self.commit_table.insert(CommitNode {
            txn: record.txn,
            tenant: record.tenant,
            commit_scn: record.commit_scn,
            modified_inmemory: record.modified_inmemory,
            anchor,
        });
        self.stats.commits.inc();
    }

    /// An abort record was applied.
    pub fn on_abort(&self, txn: TxnId) {
        if let Some(anchor) = self.journal.remove(txn) {
            self.stats.aborts.inc();
            self.stats.abort_discarded_records.add(anchor.record_count() as u64);
        }
    }

    /// A DDL redo marker was applied at `scn`.
    pub fn on_marker(&self, marker: &RedoMarker, scn: Scn) {
        self.ddl_table.insert(scn, Arc::new(marker.clone()));
        self.stats.markers.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_common::{Dba, ObjectId};
    use imadg_redo::DdlKind;
    use imadg_storage::{Row, Value};

    fn component() -> MiningComponent {
        let enabled = Arc::new(ObjectSet::new());
        enabled.enable(ObjectId(1));
        MiningComponent::new(
            Arc::new(Journal::new(16, 4, Arc::default())),
            Arc::new(CommitTable::new(2, Arc::default())),
            Arc::new(DdlTable::new()),
            enabled,
            Arc::default(),
        )
    }

    fn cv(obj: u32, txn: u64, op: ChangeOp) -> ChangeVector {
        ChangeVector {
            dba: Dba(10),
            object: ObjectId(obj),
            tenant: TenantId::DEFAULT,
            txn: TxnId(txn),
            op,
        }
    }

    fn commit(txn: u64, scn: u64, flag: Option<bool>) -> CommitRecord {
        CommitRecord {
            txn: TxnId(txn),
            tenant: TenantId::DEFAULT,
            commit_scn: Scn(scn),
            modified_inmemory: flag,
        }
    }

    #[test]
    fn sniffs_only_enabled_objects() {
        let m = component();
        let row = Row::new(vec![Value::Int(1)]);
        m.on_change(WorkerId(0), &cv(1, 1, ChangeOp::Insert { slot: 0, row: row.clone() }));
        m.on_change(WorkerId(0), &cv(2, 1, ChangeOp::Insert { slot: 0, row }));
        assert_eq!(m.stats.sniffed.get(), 2);
        assert_eq!(m.stats.mined.get(), 1);
        assert_eq!(m.journal().total_records(), 1);
    }

    #[test]
    fn format_cvs_not_mined() {
        let m = component();
        m.on_change(WorkerId(0), &cv(1, 1, ChangeOp::Format { capacity: 8 }));
        assert_eq!(m.stats.mined.get(), 0);
    }

    #[test]
    fn begin_marks_anchor() {
        let m = component();
        m.on_begin(TxnId(1), TenantId::DEFAULT);
        assert!(m.journal().anchor(TxnId(1)).unwrap().has_begin());
    }

    #[test]
    fn commit_links_anchor_into_commit_table() {
        let m = component();
        m.on_begin(TxnId(1), TenantId::DEFAULT);
        let row = Row::new(vec![Value::Int(1)]);
        m.on_change(WorkerId(1), &cv(1, 1, ChangeOp::Update { slot: 0, row }));
        m.on_commit(&commit(1, 3, Some(true)));
        assert_eq!(m.commit_table().len(), 1);
        let nodes = m.commit_table().chop(Scn(3));
        let anchor = nodes[0].anchor.as_ref().expect("anchor linked");
        assert_eq!(anchor.record_count(), 1);
        assert!(anchor.has_begin());
    }

    #[test]
    fn flagged_clean_commits_skip_the_table() {
        let m = component();
        m.on_commit(&commit(1, 3, Some(false)));
        assert!(m.commit_table().is_empty(), "clean txn needs no flush work");
        // Without annotation the node must be kept (pessimistic).
        m.on_commit(&commit(2, 4, None));
        assert_eq!(m.commit_table().len(), 1);
    }

    #[test]
    fn abort_discards_journal_state() {
        let m = component();
        let row = Row::new(vec![Value::Int(1)]);
        m.on_change(WorkerId(0), &cv(1, 1, ChangeOp::Insert { slot: 0, row }));
        assert_eq!(m.journal().len(), 1);
        m.on_abort(TxnId(1));
        assert!(m.journal().is_empty());
        assert_eq!(m.stats.aborts.get(), 1);
    }

    #[test]
    fn markers_buffered_in_ddl_table() {
        let m = component();
        let marker = RedoMarker {
            object: ObjectId(1),
            tenant: TenantId::DEFAULT,
            ddl: DdlKind::DropColumn { name: "x".into() },
        };
        m.on_marker(&marker, Scn(9));
        assert_eq!(m.stats.markers.get(), 1);
    }
}
