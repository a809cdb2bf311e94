//! Assembly of the DBIM-on-ADG components for one standby deployment.
//!
//! [`DbimAdg`] bundles the journal, commit table, DDL table, mining
//! component and invalidation flush. Recovery workers hold it to call the
//! mining component and help the flush; the coordinator holds its flush
//! component to run before each QuerySCN publish.

use std::sync::Arc;

use imadg_common::{MetricsRegistry, ObjectSet};
use imadg_storage::Store;

use crate::commit_table::CommitTable;
use crate::ddl_table::DdlTable;
use crate::flush::{FlushTarget, InvalidationFlush};
use crate::journal::Journal;
use crate::mining::MiningComponent;

/// Hash buckets in the IM-ADG journal, sized from the apply parallelism to
/// keep bucket-latch contention low (paper §III.C).
const JOURNAL_BUCKETS: usize = 128;

/// Sorted partitions of the IM-ADG commit table (§III.D.1).
const COMMIT_TABLE_PARTITIONS: usize = 4;

/// The wired DBIM-on-ADG infrastructure of a standby (master) instance.
pub struct DbimAdg {
    /// The IM-ADG Journal.
    pub journal: Arc<Journal>,
    /// The IM-ADG Commit Table.
    pub commit_table: Arc<CommitTable>,
    /// The DDL Information Table.
    pub ddl_table: Arc<DdlTable>,
    /// The mining component (called by recovery workers).
    pub mining: Arc<MiningComponent>,
    /// The invalidation flush (called by the coordinator and workers).
    pub flush: Arc<InvalidationFlush>,
}

impl DbimAdg {
    /// Wire everything, reporting into the mining/journal/commit-table/flush
    /// stages of `registry`.
    ///
    /// * `workers` — recovery parallelism (sizes per-worker journal areas);
    /// * `enabled` — objects enabled for standby population (mining filter);
    /// * `store` — the standby's storage (dictionary replay);
    /// * `target` — local or RAC flush target.
    pub fn new(
        workers: usize,
        enabled: Arc<ObjectSet>,
        store: Arc<Store>,
        target: Arc<dyn FlushTarget>,
        registry: &MetricsRegistry,
    ) -> DbimAdg {
        let journal = Arc::new(Journal::new(JOURNAL_BUCKETS, workers, registry.journal.clone()));
        let commit_table =
            Arc::new(CommitTable::new(COMMIT_TABLE_PARTITIONS, registry.commit_table.clone()));
        let ddl_table = Arc::new(DdlTable::new());
        let mining = Arc::new(MiningComponent::new(
            journal.clone(),
            commit_table.clone(),
            ddl_table.clone(),
            enabled.clone(),
            registry.mining.clone(),
        ));
        let flush = Arc::new(InvalidationFlush::new(
            journal.clone(),
            commit_table.clone(),
            ddl_table.clone(),
            target,
            store,
            enabled,
            registry.flush.clone(),
        ));
        DbimAdg { journal, commit_table, ddl_table, mining, flush }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flush::LocalFlushTarget;
    use imadg_imcs::ImcsStore;

    fn adg() -> DbimAdg {
        DbimAdg::new(
            4,
            Arc::new(ObjectSet::new()),
            Arc::new(Store::new()),
            Arc::new(LocalFlushTarget::new(Arc::new(ImcsStore::new()))),
            &MetricsRegistry::default(),
        )
    }

    #[test]
    fn wiring_shares_tables() {
        let adg = adg();
        assert!(Arc::ptr_eq(adg.mining.journal(), &adg.journal));
        assert!(Arc::ptr_eq(adg.mining.commit_table(), &adg.commit_table));
    }
}
