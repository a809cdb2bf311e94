//! The standby cluster: shared physical database, master-instance media
//! recovery with the DBIM-on-ADG infrastructure, and per-instance column
//! stores with population engines.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use std::sync::atomic::{AtomicBool, Ordering};

use imadg_common::{
    Counter, Error, InstanceId, LogHistogramSnapshot, MetricsRegistry, MetricsSnapshot, ObjectId,
    ObjectSet, QueryScnCell, QuiesceLock, Result, Runtime, RuntimeHealth, Scn, ScnService, Stage,
    StageOutcome,
};
use imadg_imcs::{
    ColdTier, ImcsStore, PopulationEngine, PopulationReport, SnapshotSource, TierReport,
};
use imadg_net::ReliableReceiver;
use imadg_recovery::{
    DbimAdg, FlushTarget, HomeLocationMap, LocalFlushTarget, MediaRecovery, RacEndpoint,
    RacFlushTarget, RecoveryStageIds,
};
use imadg_storage::{Row, RowLoc, Store};

use crate::cluster::ClusterConfig;
use crate::query::{execute_request, QueryOutput, QueryRequest};

/// Invalidation records per RAC invalidation-group message from the
/// standby master to a non-master instance (paper §III.F).
const INVALIDATION_BATCH: usize = 64;

/// A point-in-time health snapshot of the standby (observability:
/// `V$`-view-style counters an operator would watch).
#[derive(Debug, Clone, PartialEq)]
pub struct StandbyStatus {
    /// This standby cluster's farm name.
    pub name: String,
    /// Published QuerySCN (None before the first consistency point).
    pub query_scn: Option<imadg_common::Scn>,
    /// SCN media recovery has applied through (≥ QuerySCN).
    pub applied_scn: imadg_common::Scn,
    /// SCN gap between the primary's current SCN and the published
    /// QuerySCN at sample time (0 when fully caught up).
    pub scn_gap: u64,
    /// Successful QuerySCN advancements so far.
    pub advances: u64,
    /// Open transactions buffered in the IM-ADG journal.
    pub journal_txns: usize,
    /// Buffered invalidation records awaiting flush.
    pub journal_records: usize,
    /// Committed transactions awaiting the next advancement.
    pub commit_table_pending: usize,
    /// Rows populated in the column stores, summed over instances.
    pub populated_rows: usize,
    /// Invalidation records flushed to SMUs since startup.
    pub flushed_records: u64,
    /// Coarse (per-tenant) invalidations since startup.
    pub coarse_invalidations: u64,
    /// Gap-fill batches served from archived redo logs (an operator signal
    /// that the standby fell behind the primary's retained window).
    pub archive_retransmits: u64,
    /// IMCUs currently held in the on-disk cold columnar tier.
    pub cold_units: u64,
    /// Bytes the cold tier holds on disk.
    pub tier_bytes_on_disk: u64,
    /// Pipeline health: `Failed` once any stage errored or panicked (the
    /// pipeline is then stopped — queries would otherwise serve data that
    /// silently stopped advancing).
    pub health: RuntimeHealth,
}

impl std::fmt::Display for StandbyStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] QuerySCN={} applied={} gap={} advances={} journal={}txn/{}rec pending_commits={}              populated_rows={} flushed={} coarse={} archive_retransmits={}",
            self.name,
            self.query_scn.map(|s| s.raw()).unwrap_or(0),
            self.applied_scn.raw(),
            self.scn_gap,
            self.advances,
            self.journal_txns,
            self.journal_records,
            self.commit_table_pending,
            self.populated_rows,
            self.flushed_records,
            self.coarse_invalidations,
            self.archive_retransmits,
        )?;
        write!(f, " cold_units={} tier_disk={}B", self.cold_units, self.tier_bytes_on_disk)?;
        write!(f, " health={}", self.health)
    }
}

/// One standby instance's query-facing state.
pub struct StandbyInstance {
    /// Instance id (0 = master / SIRA instance).
    pub id: InstanceId,
    /// This instance's column store.
    pub imcs: Arc<ImcsStore>,
    /// This instance's population engine.
    pub population: Arc<PopulationEngine>,
}

/// One named standby cluster of the reader farm.
pub struct StandbyCluster {
    /// Farm name (keys placement selectors, durable-log directories, and
    /// the `standby="<name>"` metrics label).
    name: String,
    /// This standby's lane index on the primary's fan-out link.
    lane: usize,
    /// Set when this standby was promoted to primary: it stays queryable
    /// at its frozen QuerySCN but no longer receives redo, and the router
    /// skips it.
    frozen: AtomicBool,
    /// The primary's SCN service, probed for the current-SCN gap.
    primary_scn: Arc<ScnService>,
    /// Queries the staleness-bounded router sent here (its load signal).
    routed: Counter,
    /// The shared physical standby database (datafiles — survives instance
    /// restarts, unlike the in-memory DBIM-on-ADG state).
    pub store: Arc<Store>,
    /// Media recovery on the master instance.
    pub recovery: Arc<MediaRecovery>,
    /// The DBIM-on-ADG infrastructure (None = feature disabled baseline).
    pub adg: Option<Arc<DbimAdg>>,
    /// The published QuerySCN.
    pub query_scn: Arc<QueryScnCell>,
    /// The quiesce lock.
    pub quiesce: Arc<QuiesceLock>,
    /// Objects enabled for standby population (the mining filter).
    pub enabled: Arc<ObjectSet>,
    instances: Vec<Arc<StandbyInstance>>,
    rac_endpoints: Vec<Arc<RacEndpoint>>,
    home: HomeLocationMap,
    /// The cluster-wide metrics registry every pipeline stage reports into.
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// One cold-tier engine per instance (empty without a durability dir).
    tiers: Vec<Arc<ColdTier>>,
}

impl StandbyCluster {
    /// Assemble a standby over `receivers` (one per primary redo thread),
    /// probing `primary_scn` for its lag and keeping cold columnar files
    /// under `cold_tier_dir` (one `inst-<N>` directory per instance; no
    /// tier without one).
    ///
    /// `config.dbim_on_adg` toggles the paper's feature; when false,
    /// recovery runs with no mining and no invalidation flush — the
    /// paper's "without DBIM-on-ADG" baseline.
    ///
    /// Crate-internal: deployments are assembled through
    /// [`crate::NodeBuilder`] / [`crate::AdgCluster`].
    pub(crate) fn new(
        config: &ClusterConfig,
        name: &str,
        lane: usize,
        store: Arc<Store>,
        receivers: Vec<ReliableReceiver>,
        primary_scn: Arc<ScnService>,
        cold_tier_dir: Option<PathBuf>,
    ) -> Result<Arc<StandbyCluster>> {
        let system = &config.system;
        let instances = config.standby_instances.max(1);
        let query_scn = Arc::new(QueryScnCell::new());
        let quiesce = Arc::new(QuiesceLock::new());
        let enabled = Arc::new(ObjectSet::new());
        let metrics = Arc::new(MetricsRegistry::default());
        // Staleness residency stamps (receive/merge/apply/publish) read the
        // deployment clock; a shared Manual clock makes them deterministic.
        metrics.staleness.set_clock(config.clock.clone());

        // Per-instance column stores; IMCUs distribute by home location.
        let ids: Vec<InstanceId> = (0..instances).map(|i| InstanceId(i as u8)).collect();
        // Stripe a few consecutive blocks per instance: population filters
        // each instance's chunks to its home blocks, so units distribute
        // evenly even for small tables.
        let home = HomeLocationMap::new(ids.clone(), 4);
        let mut stores: HashMap<InstanceId, Arc<ImcsStore>> = HashMap::new();
        for &id in &ids {
            stores.insert(id, Arc::new(ImcsStore::new()));
        }

        // Flush target: local for one instance, RAC distributor otherwise.
        let (target, rac_endpoints): (Arc<dyn FlushTarget>, Vec<Arc<RacEndpoint>>) =
            if instances == 1 {
                (Arc::new(LocalFlushTarget::new(stores[&InstanceId::MASTER].clone())), Vec::new())
            } else {
                let (t, eps) = RacFlushTarget::new(
                    home.clone(),
                    InstanceId::MASTER,
                    stores.clone(),
                    INVALIDATION_BATCH,
                );
                (Arc::new(t), eps)
            };

        let adg = if config.dbim_on_adg {
            Some(Arc::new(DbimAdg::new(
                system.recovery.workers,
                enabled.clone(),
                store.clone(),
                target,
                &metrics,
            )))
        } else {
            None
        };

        let recovery = MediaRecovery::new(
            &system.recovery,
            store.clone(),
            receivers,
            adg.clone(),
            query_scn.clone(),
            quiesce.clone(),
            &metrics,
        );

        // Instances with population engines.
        let mut insts = Vec::with_capacity(instances);
        for &id in &ids {
            let mut engine = PopulationEngine::new(
                store.clone(),
                stores[&id].clone(),
                SnapshotSource::Standby { query_scn: query_scn.clone(), quiesce: quiesce.clone() },
                system.imcs.clone(),
            )?;
            engine.set_metrics(metrics.population.clone());
            if home.is_clustered() {
                let home = home.clone();
                engine.set_home_filter(Arc::new(move |dba| home.instance_for(dba) == id));
            }
            insts.push(Arc::new(StandbyInstance {
                id,
                imcs: stores[&id].clone(),
                population: Arc::new(engine),
            }));
        }

        let tiers = match cold_tier_dir {
            Some(dir) => insts
                .iter()
                .map(|inst| {
                    Arc::new(ColdTier::new(
                        store.clone(),
                        inst.imcs.clone(),
                        SnapshotSource::Standby {
                            query_scn: query_scn.clone(),
                            quiesce: quiesce.clone(),
                        },
                        system.imcs.clone(),
                        dir.join(format!("inst-{}", inst.id.0)),
                        metrics.tier.clone(),
                    ))
                })
                .collect(),
            None => Vec::new(),
        };

        Ok(Arc::new(StandbyCluster {
            name: name.to_string(),
            lane,
            frozen: AtomicBool::new(false),
            primary_scn,
            routed: Counter::default(),
            store,
            recovery,
            adg,
            query_scn,
            quiesce,
            enabled,
            instances: insts,
            rac_endpoints,
            home,
            metrics,
            tiers,
        }))
    }

    /// Run one cold-tier pass (orphan sweep, re-compaction, recall,
    /// eviction) on every instance.
    pub fn tier_once(&self) -> Result<TierReport> {
        let mut total = TierReport::default();
        for t in &self.tiers {
            let r = t.run_once()?;
            total.evicted += r.evicted;
            total.recalled += r.recalled;
            total.recompacted += r.recompacted;
            total.orphans_cleared += r.orphans_cleared;
        }
        self.refresh_tier_gauges();
        Ok(total)
    }

    /// The shared gauges must sum over every instance's engine (each
    /// engine's own refresh only sees its own instance).
    fn refresh_tier_gauges(&self) {
        let (mut bytes, mut units) = (0u64, 0u64);
        for t in &self.tiers {
            let (b, u) = t.sample();
            bytes += b;
            units += u;
        }
        self.metrics.tier.tier_bytes_on_disk.set(bytes);
        self.metrics.tier.cold_units.set(units);
    }

    /// Drive the cold tier to a fixed point on every instance.
    pub fn tier_until_idle(&self) -> Result<TierReport> {
        let mut total = TierReport::default();
        loop {
            let r = self.tier_once()?;
            if !r.any() {
                return Ok(total);
            }
            total.evicted += r.evicted;
            total.recalled += r.recalled;
            total.recompacted += r.recompacted;
            total.orphans_cleared += r.orphans_cleared;
        }
    }

    /// Restore the cold columnar tier after a crash restart: register
    /// every cold file (footers only — instant) on its owning instance's
    /// column store. Restart re-mines the whole durable log, so each
    /// file's post-freeze commits rebuild its fresh SMU; per-unit
    /// absorption drops what the file already holds. Returns units
    /// restored.
    pub fn restore_cold_tier(&self) -> Result<usize> {
        let mut restored = 0usize;
        for t in &self.tiers {
            restored +=
                imadg_imcs::restore_cold_tier(t.imcs(), &self.store, t.dir(), &self.metrics.tier)?;
        }
        self.refresh_tier_gauges();
        Ok(restored)
    }

    /// Always `Ok(false)`: the standby keeps no checkpoint, because restart
    /// re-mines the whole durable log. Kept only because the benchmark
    /// harness still calls it.
    pub fn maybe_checkpoint(&self) -> Result<bool> {
        Ok(false)
    }

    /// This standby cluster's farm name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This standby's lane index on the primary's fan-out link.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Whether this standby was promoted away (frozen at its last
    /// QuerySCN, no longer receiving redo).
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    pub(crate) fn set_frozen(&self, frozen: bool) {
        self.frozen.store(frozen, Ordering::Release);
    }

    /// SCN gap between the primary's current SCN and the published
    /// QuerySCN. Before the first publish the whole primary history counts
    /// as the gap.
    pub fn scn_gap(&self) -> u64 {
        let current = self.primary_scn.current().raw();
        current.saturating_sub(self.query_scn.get().map(|s| s.raw()).unwrap_or(0))
    }

    /// The commit-to-queryable staleness histogram (PR-8 e2e tracing) —
    /// the router's freshness estimate when the SCN gap is non-zero.
    pub fn e2e_staleness(&self) -> LogHistogramSnapshot {
        self.metrics.staleness.e2e.snapshot()
    }

    /// Queries the router has sent here.
    pub fn routed_queries(&self) -> u64 {
        self.routed.get()
    }

    /// Count one router-dispatched query.
    pub(crate) fn note_routed(&self) {
        self.routed.inc();
    }

    /// The standby instances.
    pub fn instances(&self) -> &[Arc<StandbyInstance>] {
        &self.instances
    }

    /// One instance by id.
    pub fn instance(&self, id: InstanceId) -> Option<&Arc<StandbyInstance>> {
        self.instances.iter().find(|i| i.id == id)
    }

    /// The home-location map.
    pub fn home(&self) -> &HomeLocationMap {
        &self.home
    }

    /// The published QuerySCN, or an error before the first publish.
    pub fn current_query_scn(&self) -> Result<Scn> {
        self.query_scn.get().ok_or(Error::NoQueryScn)
    }

    /// Enable an object for standby population: feeds the mining filter and
    /// every instance's population engine.
    pub fn enable_inmemory(&self, object: ObjectId) {
        self.enabled.enable(object);
        for i in &self.instances {
            i.population.enable(object);
        }
    }

    /// Disable an object: stops population and drops its units everywhere.
    pub fn disable_inmemory(&self, object: ObjectId) {
        self.enabled.disable(object);
        for i in &self.instances {
            i.population.disable(object);
        }
    }

    /// One deterministic pass: apply available redo, advance the QuerySCN,
    /// process RAC endpoint queues. Returns whether anything moved.
    pub fn pump(&self) -> Result<bool> {
        let moved = self.recovery.pump()?;
        let mut rac_moved = false;
        for ep in &self.rac_endpoints {
            rac_moved |= ep.process_pending() > 0;
        }
        Ok(moved || rac_moved)
    }

    /// Pump until idle.
    pub fn pump_until_idle(&self) -> Result<()> {
        while self.pump()? {}
        Ok(())
    }

    /// Run one population pass on every instance.
    pub fn populate_once(&self) -> Result<PopulationReport> {
        let mut total = PopulationReport::default();
        for i in &self.instances {
            let r = i.population.run_once()?;
            total.populated += r.populated;
            total.repopulated += r.repopulated;
        }
        Ok(total)
    }

    /// Populate to a fixed point.
    pub fn populate_until_idle(&self) -> Result<PopulationReport> {
        let mut total = PopulationReport::default();
        loop {
            let r = self.populate_once()?;
            if !r.any() {
                return Ok(total);
            }
            total.populated += r.populated;
            total.repopulated += r.repopulated;
        }
    }

    /// Execute a [`QueryRequest`] at the published QuerySCN (or the
    /// request's explicit snapshot), fanning out across every instance's
    /// column store (cross-instance PX). An explicit snapshot above the
    /// QuerySCN is refused with [`Error::SnapshotAhead`]: redo past the
    /// QuerySCN may be only partly applied.
    pub fn query(&self, req: &QueryRequest) -> Result<QueryOutput> {
        let query_scn = self.current_query_scn()?;
        let snapshot = req.snapshot().unwrap_or(query_scn);
        if snapshot > query_scn {
            return Err(Error::SnapshotAhead { requested: snapshot, query_scn });
        }
        let stores: Vec<Arc<ImcsStore>> = self.instances.iter().map(|i| i.imcs.clone()).collect();
        execute_request(
            &stores,
            &self.store,
            req,
            snapshot,
            &self.metrics.scan,
            &self.metrics.tier,
            &self.metrics.trace,
        )
    }

    /// Register an in-memory expression on every instance's column store.
    pub fn register_expression(&self, object: ObjectId, expr: imadg_imcs::ImExpression) {
        for i in &self.instances {
            i.imcs.register_expression(object, expr.clone());
        }
    }

    /// Index fetch by identity key at the published QuerySCN.
    pub fn fetch_by_key(&self, object: ObjectId, key: i64) -> Result<Option<(RowLoc, Row)>> {
        let snapshot = self.current_query_scn()?;
        self.store.fetch_by_key(object, key, snapshot, None)
    }

    /// Garbage-collect row version chains no standby reader can need.
    ///
    /// The safe horizon is the minimum of the published QuerySCN and every
    /// populated unit's snapshot SCN: queries read at the QuerySCN, SMU
    /// fallbacks read at the QuerySCN, and repopulation carry-over never
    /// reaches behind a unit's snapshot. Returns versions removed.
    pub fn compact_versions(&self) -> Result<usize> {
        let Some(query_scn) = self.query_scn.get() else { return Ok(0) };
        let mut horizon = query_scn;
        for inst in &self.instances {
            for obj in inst.imcs.all_objects() {
                for h in obj.handles() {
                    horizon = horizon.min(h.imcu().snapshot);
                }
            }
        }
        if horizon == imadg_common::Scn::ZERO {
            return Ok(0);
        }
        let mut removed = 0usize;
        for id in self.store.object_ids() {
            removed += self.store.compact_object(id, horizon)?;
        }
        Ok(removed)
    }

    /// Snapshot every pipeline stage's metrics, refreshing the sampled
    /// gauges (merger depth, SCN positions, journal / commit-table /
    /// population occupancy) first.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.recovery.refresh_gauges();
        if let Some(adg) = &self.adg {
            self.metrics.journal.journal_txns.set(adg.journal.len() as u64);
            self.metrics.journal.journal_records.set(adg.journal.total_records() as u64);
            self.metrics.commit_table.commit_table_pending.set(adg.commit_table.len() as u64);
        }
        let rows: usize = self.instances.iter().map(|i| i.imcs.populated_rows()).sum();
        self.metrics.population.populated_rows.set(rows as u64);
        self.metrics
            .flush
            .published_query_scn
            .set(self.query_scn.get().map(|s| s.raw()).unwrap_or(0));
        self.metrics.flush.scn_gap.set(self.scn_gap());
        self.metrics.snapshot()
    }

    /// Snapshot the standby's health counters — a cheap projection of
    /// [`StandbyCluster::metrics`] keeping the `V$`-view field names.
    pub fn status(&self) -> StandbyStatus {
        let m = self.metrics();
        StandbyStatus {
            name: self.name.clone(),
            query_scn: self.query_scn.get(),
            applied_scn: Scn(m.apply.applied_scn),
            scn_gap: m.flush.scn_gap,
            advances: m.flush.advances,
            journal_txns: m.journal.journal_txns as usize,
            journal_records: m.journal.journal_records as usize,
            commit_table_pending: m.commit_table.commit_table_pending as usize,
            populated_rows: m.population.populated_rows as usize,
            flushed_records: m.flush.flushed_records,
            coarse_invalidations: m.flush.coarse_invalidations,
            archive_retransmits: m.durability.archive_retransmits,
            cold_units: m.tier.cold_units,
            tier_bytes_on_disk: m.tier.tier_bytes_on_disk,
            health: self.health(),
        }
    }

    /// Current pipeline health (`Failed` once any stage errors or panics).
    pub fn health(&self) -> RuntimeHealth {
        self.metrics.runtime.health.get()
    }

    /// Register every standby stage with `rt`: the recovery pipeline
    /// (ingest, apply workers, coordinator), one population stage per
    /// instance, and the RAC endpoint stages of a multi-instance cluster.
    /// Wake wiring: the coordinator (flush/advancement) wakes population —
    /// an advanced QuerySCN is what creates population work — and the
    /// master's flush target wakes the RAC endpoints on every send.
    /// Failures are recorded in this cluster's registry health cell.
    pub fn register_stages(self: &Arc<Self>, rt: &mut Runtime) -> RecoveryStageIds {
        let health = self.metrics.runtime.health.clone();
        let ids = self.recovery.register_stages(rt);
        for inst in &self.instances {
            let name = format!("population.{}", inst.id.0);
            let pop = rt.register_with_health(
                Arc::new(PopulationStage { name: name.clone(), engine: inst.population.clone() }),
                self.metrics.runtime.stage(&name),
                health.clone(),
            );
            rt.wire(ids.coordinator, pop);
        }
        for (i, tier) in self.tiers.iter().enumerate() {
            let name = format!("tier.{i}");
            let id = rt.register_with_health(
                Arc::new(TierStage {
                    name: name.clone(),
                    cluster: self.clone(),
                    tier: tier.clone(),
                }),
                self.metrics.runtime.stage(&name),
                health.clone(),
            );
            // Advancement creates both population and eviction pressure.
            rt.wire(ids.coordinator, id);
        }
        for ep in &self.rac_endpoints {
            let id = rt.register_with_health(
                ep.clone() as Arc<dyn Stage>,
                self.metrics.runtime.stage(ep.name()),
                health.clone(),
            );
            ep.set_waker(rt.wake_token(id));
        }
        ids
    }
}

/// One instance's IMCU population engine as a runtime stage (metrics id
/// `population.N`). Woken by QuerySCN advancement; throttled after each
/// build quantum so population — a background activity — does not starve
/// queries or redo apply (paper §II.B).
struct PopulationStage {
    name: String,
    engine: Arc<PopulationEngine>,
}

impl Stage for PopulationStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn run_once(&self) -> Result<StageOutcome> {
        Ok(if self.engine.run_once()?.any() { StageOutcome::Progress } else { StageOutcome::Idle })
    }

    fn park_hint(&self) -> Duration {
        Duration::from_millis(5)
    }

    fn throttle(&self) -> Option<Duration> {
        Some(Duration::from_millis(1))
    }
}

/// One instance's cold-tier engine as a runtime stage (metrics id
/// `tier.N`). Woken by QuerySCN advancement (new population is what
/// creates memory pressure); throttled like population so tier churn — a
/// background activity — never starves queries or redo apply.
struct TierStage {
    name: String,
    cluster: Arc<StandbyCluster>,
    tier: Arc<ColdTier>,
}

impl Stage for TierStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn run_once(&self) -> Result<StageOutcome> {
        let moved = self.tier.run_once()?.any();
        // The shared gauges sum over every instance's engine.
        self.cluster.refresh_tier_gauges();
        Ok(if moved { StageOutcome::Progress } else { StageOutcome::Idle })
    }

    fn park_hint(&self) -> Duration {
        Duration::from_millis(5)
    }

    fn throttle(&self) -> Option<Duration> {
        Some(Duration::from_millis(1))
    }
}
