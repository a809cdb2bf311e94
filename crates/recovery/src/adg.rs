//! Assembly of the DBIM-on-ADG components for one standby deployment.
//!
//! [`DbimAdg`] bundles the journal, commit table, DDL table, mining
//! component and invalidation flush. Recovery workers hold it to call the
//! mining component and help the flush; the coordinator holds its flush
//! component to run before each QuerySCN publish.

use std::sync::Arc;

use imadg_common::{ImcsConfig, MetricsRegistry, ObjectSet, Result};
use imadg_storage::Store;

use crate::commit_table::CommitTable;
use crate::ddl_table::DdlTable;
use crate::flush::{FlushTarget, InvalidationFlush};
use crate::journal::Journal;
use crate::mining::MiningComponent;

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
    /// * `config` — journal bucket count, commit table partitions;
    /// * `workers` — recovery parallelism (sizes per-worker journal areas);
    /// * `enabled` — objects enabled for standby population (mining filter);
    /// * `store` — the standby's storage (dictionary replay);
    /// * `target` — local or RAC flush target.
    pub fn new(
        config: &ImcsConfig,
        workers: usize,
        enabled: Arc<ObjectSet>,
        store: Arc<Store>,
        target: Arc<dyn FlushTarget>,
        registry: &MetricsRegistry,
    ) -> Result<DbimAdg> {
        config.validate()?;
        let journal =
            Arc::new(Journal::new(config.journal_buckets, workers, registry.journal.clone()));
        let commit_table = Arc::new(CommitTable::new(
            config.commit_table_partitions,
            registry.commit_table.clone(),
        ));
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
        Ok(DbimAdg { journal, commit_table, ddl_table, mining, flush })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flush::LocalFlushTarget;
    use imadg_imcs::ImcsStore;

    fn adg(config: &ImcsConfig) -> Result<DbimAdg> {
        DbimAdg::new(
            config,
            4,
            Arc::new(ObjectSet::new()),
            Arc::new(Store::new()),
            Arc::new(LocalFlushTarget::new(Arc::new(ImcsStore::new()))),
            &MetricsRegistry::default(),
        )
    }

    #[test]
    fn wiring_shares_tables() {
        let adg = adg(&ImcsConfig::default()).unwrap();
        assert!(Arc::ptr_eq(adg.mining.journal(), &adg.journal));
        assert!(Arc::ptr_eq(adg.mining.commit_table(), &adg.commit_table));
    }

    #[test]
    fn bad_config_rejected() {
        assert!(adg(&ImcsConfig { journal_buckets: 0, ..Default::default() }).is_err());
    }
}
