//! The recovery coordinator: QuerySCN advancement.
//!
//! The coordinator establishes consistency points: when all workers have
//! applied redo through SCN `S`, it (1) enters the quiesce period, (2) runs
//! the invalidation flush over every transaction with commit SCN ≤ `S`
//! (paper §III.D), (3) publishes `S` as
//! the new QuerySCN and leaves the quiesce period. QuerySCNs *leapfrog*:
//! consecutive published values can be far apart.

use std::sync::Arc;
use std::time::Instant;

use imadg_common::metrics::{FlushMetrics, StalenessTracker, TraceStage};
use imadg_common::{MetricsRegistry, PipelineTrace, QueryScnCell, QuiesceLock, Scn};

use crate::flush::InvalidationFlush;
use crate::progress::Progress;

/// The recovery coordinator.
pub struct Coordinator {
    progress: Arc<Progress>,
    query_scn: Arc<QueryScnCell>,
    quiesce: Arc<QuiesceLock>,
    /// The invalidation flush run before each publish; `None` without
    /// DBIM-on-ADG.
    flush: Option<Arc<InvalidationFlush>>,
    /// Flush-stage metrics: the advancement count and the quiesce duration
    /// (flush + publish) of each advancement.
    metrics: Arc<FlushMetrics>,
    /// Commit-to-queryable staleness: settles every in-flight commit at or
    /// below the published SCN.
    staleness: Arc<StalenessTracker>,
    /// Pipeline trace ring; every advancement records an event.
    trace: PipelineTrace,
}

impl Coordinator {
    /// Build a coordinator reporting into the flush stage, staleness
    /// tracker and trace ring of `registry`.
    pub fn new(
        progress: Arc<Progress>,
        query_scn: Arc<QueryScnCell>,
        quiesce: Arc<QuiesceLock>,
        flush: Option<Arc<InvalidationFlush>>,
        registry: &MetricsRegistry,
    ) -> Self {
        Coordinator {
            progress,
            query_scn,
            quiesce,
            flush,
            metrics: registry.flush.clone(),
            staleness: registry.staleness.clone(),
            trace: registry.trace.clone(),
        }
    }

    /// The published QuerySCN cell.
    pub fn query_scn(&self) -> &Arc<QueryScnCell> {
        &self.query_scn
    }

    /// The quiesce lock.
    pub fn quiesce(&self) -> &Arc<QuiesceLock> {
        &self.quiesce
    }

    /// Attempt one QuerySCN advancement. Returns the newly published SCN,
    /// or `None` when no progress was possible.
    pub fn try_advance(&self) -> Option<Scn> {
        let target = self.progress.min();
        if target == Scn::ZERO {
            return None;
        }
        if let Some(current) = self.query_scn.get() {
            if target <= current {
                return None;
            }
        }
        let started = Instant::now();
        let (flush_us, publish_us);
        {
            // Quiesce period: population may not capture snapshots while
            // invalidations for `target` are in flight (paper §III.A).
            let _quiesce = self.quiesce.begin_quiesce();
            if let Some(flush) = &self.flush {
                flush.flush_for_advance(target);
            }
            flush_us = self.staleness.now_micros();
            self.query_scn.publish(target);
            publish_us = self.staleness.now_micros();
        }
        self.staleness.on_advance(target.0, flush_us, publish_us);
        let elapsed = started.elapsed();
        self.metrics.advances.inc();
        self.metrics.quiesce_us.record(elapsed);
        self.trace.record(
            TraceStage::Advance,
            target.0,
            format!("QuerySCN published after {}µs quiesce", elapsed.as_micros()),
        );
        Some(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adg::DbimAdg;
    use crate::flush::FlushTarget;
    use crate::invalidation::InvalidationGroup;
    use imadg_common::{Dba, ObjectId, ObjectSet, TenantId, TxnId, WorkerId};
    use imadg_redo::CommitRecord;
    use imadg_storage::{ChangeOp, ChangeVector, Row, Store, Value};
    use parking_lot::Mutex;

    fn coord(progress: Arc<Progress>, flush: Option<Arc<InvalidationFlush>>) -> Coordinator {
        Coordinator::new(
            progress,
            Arc::new(QueryScnCell::new()),
            Arc::new(QuiesceLock::new()),
            flush,
            &MetricsRegistry::default(),
        )
    }

    #[test]
    fn no_advance_without_progress() {
        let p = Arc::new(Progress::new(2));
        let c = coord(p.clone(), None);
        assert_eq!(c.try_advance(), None);
        p.report(WorkerId(0), Scn(5));
        assert_eq!(c.try_advance(), None, "worker 1 still at zero");
    }

    #[test]
    fn advances_to_min_and_leapfrogs() {
        let p = Arc::new(Progress::new(2));
        let c = coord(p.clone(), None);
        p.report(WorkerId(0), Scn(10));
        p.report(WorkerId(1), Scn(7));
        assert_eq!(c.try_advance(), Some(Scn(7)));
        assert_eq!(c.query_scn().get(), Some(Scn(7)));
        assert_eq!(c.try_advance(), None, "no new progress");
        p.report(WorkerId(1), Scn(42));
        assert_eq!(c.try_advance(), Some(Scn(10)), "leapfrog to new min");
        assert_eq!(c.metrics.advances.get(), 2);
    }

    /// Records, for every invalidation group it receives, the group's
    /// commit SCN and the QuerySCN published at that moment.
    struct RecordingTarget {
        query_scn: Arc<QueryScnCell>,
        seen: Mutex<Vec<(Scn, Option<Scn>)>>,
    }

    impl FlushTarget for RecordingTarget {
        fn flush_group(&self, group: &InvalidationGroup) {
            self.seen.lock().push((group.commit_scn, self.query_scn.get()));
        }
        fn coarse_invalidate(&self, _tenant: TenantId) {}
        fn drop_object_units(&self, _object: ObjectId) {}
        fn synchronize(&self) {}
    }

    #[test]
    fn flush_lands_before_publish() {
        let query_scn = Arc::new(QueryScnCell::new());
        let target =
            Arc::new(RecordingTarget { query_scn: query_scn.clone(), seen: Mutex::default() });
        let enabled = Arc::new(ObjectSet::new());
        enabled.enable(ObjectId(1));
        let registry = MetricsRegistry::default();
        let adg = DbimAdg::new(1, enabled, Arc::new(Store::new()), target.clone(), &registry);
        // One single-row update per transaction, committed at `commit`.
        let mine = |txn: u64, commit: u64| {
            adg.mining.on_begin(TxnId(txn), TenantId::DEFAULT);
            adg.mining.on_change(
                WorkerId(0),
                &ChangeVector {
                    dba: Dba(10),
                    object: ObjectId(1),
                    tenant: TenantId::DEFAULT,
                    txn: TxnId(txn),
                    op: ChangeOp::Update { slot: 0, row: Row::new(vec![Value::Int(1)]) },
                },
            );
            adg.mining.on_commit(&CommitRecord {
                txn: TxnId(txn),
                tenant: TenantId::DEFAULT,
                commit_scn: Scn(commit),
                modified_inmemory: Some(true),
            });
        };
        mine(1, 5);
        mine(2, 12);
        let p = Arc::new(Progress::new(1));
        let c = Coordinator::new(
            p.clone(),
            query_scn.clone(),
            Arc::new(QuiesceLock::new()),
            Some(adg.flush.clone()),
            &registry,
        );
        p.report(WorkerId(0), Scn(9));
        assert_eq!(c.try_advance(), Some(Scn(9)));
        p.report(WorkerId(0), Scn(20));
        assert_eq!(c.try_advance(), Some(Scn(20)));
        // Each invalidation reached its target while the published QuerySCN
        // was still below its commit SCN: no query ever ran at a snapshot
        // the invalidation belongs to before the SMU had it.
        assert_eq!(*target.seen.lock(), vec![(Scn(5), None), (Scn(12), Some(Scn(9)))]);
        assert_eq!(query_scn.get(), Some(Scn(20)));
        assert_eq!(registry.flush.advances.get(), 2);
        assert_eq!(registry.flush.quiesce_us.count(), 2);
    }
}
