//! A primary database instance: transaction processing, redo shipping, and
//! (optionally) its own dual-format column store.

use std::sync::Arc;
use std::time::Duration;

use imadg_common::{
    InstanceId, MetricsRegistry, MetricsSnapshot, ObjectId, Result, Runtime, Scn, ScnService,
    Stage, StageId, StageOutcome, TenantId, WakeToken,
};
use imadg_imcs::{ImcsStore, PopulationEngine, SnapshotSource};
use imadg_net::FanoutSender;
use imadg_redo::LogBuffer;
use imadg_storage::{Row, RowLoc, Store};
use imadg_txn::{InvalidationSink, TxnManager};

use crate::cluster::ClusterConfig;
use crate::query::{execute_request, QueryOutput, QueryRequest};

/// Commit-time bridge from one instance's transaction manager into the
/// column store of *every* primary instance: committed row locations go
/// stale in the SMUs so scans at later SCNs reconcile them from the row
/// store (the primary-side analogue of the standby's flush component).
/// Each instance populates whole objects over the shared database, so a
/// commit on any instance leaves every instance's units stale.
struct ImcsInvalidation(Vec<Arc<ImcsStore>>);

impl InvalidationSink for ImcsInvalidation {
    fn invalidate(&self, object: ObjectId, loc: RowLoc, commit_scn: Scn) {
        for imcs in &self.0 {
            imcs.invalidate(object, loc, commit_scn);
        }
    }
}

/// One primary (RAC) instance.
pub struct PrimaryInstance {
    /// Instance id (equals its redo thread number).
    pub id: InstanceId,
    /// The shared physical database.
    pub store: Arc<Store>,
    /// This instance's transaction manager.
    pub txm: TxnManager,
    scns: Arc<ScnService>,
    log: Arc<LogBuffer>,
    sender: FanoutSender,
    /// This instance's column store (primary-side DBIM).
    pub imcs: Arc<ImcsStore>,
    /// This instance's population engine.
    pub population: Arc<PopulationEngine>,
    /// This instance's metrics registry (transport / population / scan).
    metrics: Arc<MetricsRegistry>,
}

impl PrimaryInstance {
    /// Assemble one primary instance around `txm`, whose store and SCN
    /// service it shares, shipping `log` through `sender`. `column_stores`
    /// holds every primary instance's column store, indexed by instance id:
    /// this instance scans its own and invalidates all of them on commit.
    ///
    /// Crate-internal: deployments are assembled through
    /// [`crate::NodeBuilder`] / [`crate::AdgCluster`].
    pub(crate) fn new(
        id: InstanceId,
        mut txm: TxnManager,
        log: Arc<LogBuffer>,
        sender: FanoutSender,
        config: &ClusterConfig,
        column_stores: &[Arc<ImcsStore>],
    ) -> Result<PrimaryInstance> {
        let (store, scns) = (txm.store().clone(), txm.scns().clone());
        let metrics = Arc::new(MetricsRegistry::default());
        // Ship-stage residency stamps read the deployment clock, so manual
        // clock runs trace deterministically.
        metrics.staleness.set_clock(config.clock.clone());
        // Sender-side link counters (shipped, frames sent, retransmits
        // served, pings), durability counters (wal appends/fsyncs,
        // archive retransmits) and ship staleness land in this instance's
        // registry.
        sender.bind_metrics(&metrics);
        let imcs = column_stores[id.0 as usize].clone();
        let mut population = PopulationEngine::new(
            store.clone(),
            imcs.clone(),
            SnapshotSource::Primary(scns.clone()),
            config.system.imcs.clone(),
        )?;
        population.set_metrics(metrics.population.clone());
        txm.set_invalidation_sink(Arc::new(ImcsInvalidation(column_stores.to_vec())));
        Ok(PrimaryInstance {
            id,
            store,
            txm,
            scns,
            log,
            sender,
            imcs,
            population: Arc::new(population),
            metrics,
        })
    }

    /// The current SCN (primary queries run at database-current time).
    pub fn current_scn(&self) -> Scn {
        self.scns.current()
    }

    /// This instance's redo log generation statistics (Fig. 11).
    pub fn log_stats(&self) -> imadg_redo::LogStats {
        self.log.stats()
    }

    /// Highest SCN this instance has written redo for.
    pub fn last_logged_scn(&self) -> Scn {
        self.log.last_scn()
    }

    /// Ship all buffered redo to the standby (step mode): run shipper
    /// quanta until one ships nothing — that last one heartbeats if
    /// database time moved past everything shipped. Returns the records
    /// shipped.
    pub fn ship_redo(&self) -> Result<usize> {
        let mut total = 0;
        loop {
            match self.sender.ship(&self.log, self.scns.current())? {
                (0, _) => return Ok(total),
                (shipped, _) => total += shipped,
            }
        }
    }

    /// Whether this instance's link still has frames in flight or unacked
    /// (quiesce must wait for them).
    pub fn transport_pending(&self) -> bool {
        self.sender.pending()
    }

    /// Execute a [`QueryRequest`] on this instance. Defaults to the
    /// current SCN when the request carries no explicit snapshot.
    pub fn query(&self, req: &QueryRequest) -> Result<QueryOutput> {
        execute_request(
            std::slice::from_ref(&self.imcs),
            &self.store,
            req,
            self.scns.current(),
            &self.metrics.scan,
            &self.metrics.tier,
            &self.metrics.trace,
        )
    }

    /// Snapshot this instance's metrics, refreshing the sampled gauges
    /// (log-buffer depth, populated rows) first.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.transport.queue_depth.set(self.log.pending() as u64);
        self.metrics.population.populated_rows.set(self.imcs.populated_rows() as u64);
        self.metrics.snapshot()
    }

    /// Index fetch by identity key at the current SCN.
    pub fn fetch_by_key(&self, object: ObjectId, key: i64) -> Result<Option<(RowLoc, Row)>> {
        self.store.fetch_by_key(object, key, self.scns.current(), None)
    }

    /// One auto-commit insert.
    pub fn insert_one(
        &self,
        object: ObjectId,
        tenant: TenantId,
        values: Vec<imadg_storage::Value>,
    ) -> Result<Scn> {
        let mut tx = self.txm.begin(tenant);
        match self.txm.insert(&mut tx, object, values) {
            Ok(_) => Ok(self.txm.commit(tx)),
            Err(e) => {
                self.txm.abort(tx);
                Err(e)
            }
        }
    }

    /// One auto-commit single-column update by key.
    pub fn update_one(
        &self,
        object: ObjectId,
        tenant: TenantId,
        key: i64,
        column: &str,
        value: imadg_storage::Value,
    ) -> Result<Scn> {
        let mut tx = self.txm.begin(tenant);
        match self.txm.update_column_by_key(&mut tx, object, key, column, value) {
            Ok(_) => Ok(self.txm.commit(tx)),
            Err(e) => {
                self.txm.abort(tx);
                Err(e)
            }
        }
    }

    /// Garbage-collect version chains up to `horizon` (an SCN the caller
    /// guarantees no primary reader or unpopulated snapshot predates).
    /// Returns versions removed.
    pub fn compact_versions(&self, horizon: Scn) -> Result<usize> {
        let mut removed = 0usize;
        for id in self.store.object_ids() {
            removed += self.store.compact_object(id, horizon)?;
        }
        Ok(removed)
    }

    /// Wake `token` whenever this instance ships a batch onto fan-out lane
    /// `lane` (wires the shipper to that standby's ingest stage).
    pub fn set_send_waker_for(&self, lane: usize, token: WakeToken) {
        self.sender.set_lane_waker(lane, token);
    }

    /// Register this instance's redo-shipper stage with `rt` (metrics id
    /// `transport`): DML appends wake it through the log buffer, and a
    /// transport error — previously a silent thread exit — now trips the
    /// pipeline health state. The park hint keeps idle-SCN heartbeats
    /// flowing so the standby's merge watermark advances.
    pub fn register_stages(self: &Arc<Self>, rt: &mut Runtime) -> StageId {
        let id = rt.register_with_health(
            Arc::new(ShipperStage(self.clone())),
            self.metrics.runtime.stage("transport"),
            self.metrics.runtime.health.clone(),
        );
        self.log.set_waker(rt.wake_token(id));
        id
    }
}

/// The redo-shipping process of one primary instance as a runtime stage.
struct ShipperStage(Arc<PrimaryInstance>);

impl Stage for ShipperStage {
    fn name(&self) -> &str {
        "transport"
    }

    fn run_once(&self) -> Result<StageOutcome> {
        let (shipped, serviced) = self.0.sender.ship(&self.0.log, self.0.scns.current())?;
        // Protocol work (a retransmit served, a ping sent) is progress too:
        // gap resolution must not stall behind an idle log buffer.
        Ok(if shipped > 0 || serviced { StageOutcome::Progress } else { StageOutcome::Idle })
    }

    fn park_hint(&self) -> Duration {
        // Heartbeat cadence: ship an idle-SCN heartbeat at least this often.
        Duration::from_micros(500)
    }

    fn input_pending(&self) -> Option<bool> {
        // Buffered redo the shipper keeps reporting Idle over = a stall.
        Some(self.0.log.pending() > 0)
    }
}
