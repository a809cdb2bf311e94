//! The full Active-Data-Guard deployment: a primary cluster fanning redo
//! out to a farm of named standby clusters (paper Fig. 1, scaled out), plus
//! the durability lifecycle — warm and hard standby restart, and standby
//! promotion after primary loss with survivor re-homing. Every path builds
//! its standbys through one assembly function and its primary instances
//! through another.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use imadg_common::{
    Clock, Error, FaultPlan, InstanceId, ObjectId, RedoThreadId, Result, Runtime, Scn, ScnService,
    StepScheduler, SystemConfig, ThreadedRuntime,
};
use imadg_imcs::ImcsStore;
use imadg_net::{build_fanout_link, FanoutLaneSpec, FanoutSender, ReliableReceiver};
use imadg_redo::{DurableLog, LogBuffer};
use imadg_storage::{DbaAllocator, Store, TableSpec};
use imadg_txn::{InMemoryRegistry, LockTable, TxnIdService, TxnManager};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};

use crate::placement::Placement;
use crate::primary::PrimaryInstance;
use crate::standby::StandbyCluster;

/// How long [`AdgCluster::sync`] waits while a link stays pending and
/// nothing ships, applies, populates or reaches a receiver, before it
/// reports the link stalled.
const SYNC_STALL_LIMIT: Duration = Duration::from_secs(5);

/// One named standby cluster in the reader farm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandbySpec {
    /// Cluster name — keys the durable-log directory, the placement
    /// selector, and the `standby="<name>"` metrics label.
    pub name: String,
    /// Per-standby fault override on this standby's redo lanes; `None`
    /// inherits the deployment-wide `TransportConfig::faults`.
    pub faults: Option<FaultPlan>,
}

impl StandbySpec {
    /// A spec with no fault override.
    pub fn named(name: impl Into<String>) -> StandbySpec {
        StandbySpec { name: name.into(), faults: None }
    }
}

/// Deployment shape (named-setter construction via [`crate::NodeBuilder`]).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Primary RAC instances (each gets its own redo thread).
    pub primary_instances: usize,
    /// RAC instances per standby cluster (instance 0 runs SIRA media
    /// recovery).
    pub standby_instances: usize,
    /// The reader farm: one named standby cluster per entry (default: one
    /// cluster named `sb0`).
    pub standby_clusters: Vec<StandbySpec>,
    /// Kernel configuration.
    pub system: SystemConfig,
    /// Enable the DBIM-on-ADG infrastructure on the standbys.
    pub dbim_on_adg: bool,
    /// Annotate commit records with the in-memory flag (§III.E).
    pub commit_annotation: bool,
    /// Deployment-wide clock: redo generation stamps, transport pacing and
    /// staleness histograms all read it. `Manual` makes latency tracing
    /// deterministic under the step scheduler.
    pub clock: Clock,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            primary_instances: 1,
            standby_instances: 1,
            standby_clusters: vec![StandbySpec::named("sb0")],
            system: SystemConfig::default(),
            dbim_on_adg: true,
            commit_annotation: true,
            clock: Clock::Real,
        }
    }
}

impl ClusterConfig {
    fn durability_dir(&self) -> Option<PathBuf> {
        self.system.durability.dir.as_ref().map(PathBuf::from)
    }
}

/// What every instance of one primary cluster shares: the physical store
/// and the SCN, transaction-id, row-lock and space allocators.
struct PrimaryShared {
    store: Arc<Store>,
    scns: Arc<ScnService>,
    txn_ids: Arc<TxnIdService>,
    locks: Arc<LockTable>,
    dbas: Arc<DbaAllocator>,
}

/// Outcome of [`AdgCluster::promote`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromotionReport {
    /// SCN the freshest standby had applied through at promotion (every
    /// committed transaction the lost primary shipped is at or below it).
    pub applied_scn: Scn,
    /// First SCN the promoted primary allocates.
    pub resume_scn: Scn,
    /// The QuerySCN the promoted-from standby stays frozen at (None if it
    /// never published one).
    pub frozen_query_scn: Option<Scn>,
    /// Name of the standby cluster that was promoted.
    pub promoted_from: String,
    /// Names of the surviving standbys re-homed to the new primary.
    pub rehomed: Vec<String>,
}

/// A primary + reader-farm deployment.
pub struct AdgCluster {
    /// The deployment shape.
    pub config: ClusterConfig,
    scns: RwLock<Arc<ScnService>>,
    primaries: RwLock<Vec<Arc<PrimaryInstance>>>,
    standbys: RwLock<Vec<Arc<StandbyCluster>>>,
    /// Objects enabled anywhere (commit-record annotation source).
    annotation: Arc<InMemoryRegistry>,
    placements: RwLock<HashMap<ObjectId, Placement>>,
}

impl AdgCluster {
    /// Provision a cluster.
    pub fn new(config: ClusterConfig) -> Result<Arc<AdgCluster>> {
        config.system.validate()?;
        if config.primary_instances == 0 {
            return Err(Error::Config("need at least one primary instance".into()));
        }
        let specs = config.standby_clusters.clone();
        if specs.is_empty() {
            return Err(Error::Config("need at least one standby cluster".into()));
        }
        let mut seen = HashSet::new();
        for s in &specs {
            if s.name.is_empty() {
                return Err(Error::Config("standby cluster names must be non-empty".into()));
            }
            if !seen.insert(s.name.clone()) {
                return Err(Error::Config(format!("duplicate standby cluster name {:?}", s.name)));
            }
        }
        let shared = PrimaryShared {
            store: Arc::new(Store::new()),
            scns: Arc::new(ScnService::new()),
            txn_ids: Arc::new(TxnIdService::new()),
            locks: Arc::new(LockTable::new()),
            dbas: Arc::new(DbaAllocator::default()),
        };
        let cluster = AdgCluster {
            config,
            scns: RwLock::new(shared.scns.clone()),
            primaries: RwLock::new(Vec::new()),
            standbys: RwLock::new(Vec::new()),
            annotation: Arc::new(InMemoryRegistry::new()),
            placements: RwLock::new(HashMap::new()),
        };
        let config = &cluster.config;
        let dur_dir = config.durability_dir();

        let mut primaries = Vec::with_capacity(config.primary_instances);
        // Every instance's column store exists up front: a commit on any
        // instance invalidates all of them.
        let column_stores: Vec<Arc<ImcsStore>> =
            (0..config.primary_instances).map(|_| Arc::new(ImcsStore::new())).collect();
        // receivers[j] collects standby j's lane, one per primary thread.
        let mut receivers: Vec<Vec<ReliableReceiver>> =
            specs.iter().map(|_| Vec::with_capacity(config.primary_instances)).collect();
        for i in 0..config.primary_instances {
            // One fan-out link per redo thread: a shared retained-redo
            // window on the primary side, one reliable lane per standby.
            let thread = RedoThreadId(i as u8 + 1);
            let primary_log = match &dur_dir {
                Some(dir) => Some(Self::open_log(dir.join("primary"), &config.system, thread)?),
                None => None,
            };
            let mut lanes = Vec::with_capacity(specs.len());
            for (j, spec) in specs.iter().enumerate() {
                let standby_log = match &dur_dir {
                    Some(dir) => Some(Self::open_log(
                        Self::standby_dir(dir, &spec.name),
                        &config.system,
                        thread,
                    )?),
                    None => None,
                };
                lanes.push(FanoutLaneSpec {
                    faults: spec.faults.clone(),
                    // Decorrelate per-lane chaos streams: lane 0 keeps the
                    // historical per-thread seed, later lanes mix in their
                    // index so multi-standby schedules stay deterministic
                    // but independent.
                    fault_seed: (i as u64) ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    standby_log,
                });
            }
            let (sender, lane_rx) = build_fanout_link(
                thread,
                &config.system.transport,
                config.clock.clone(),
                primary_log,
                lanes,
            )?;
            for (j, rx) in lane_rx.into_iter().enumerate() {
                receivers[j].push(rx);
            }
            primaries.push(cluster.assemble_primary(thread, &shared, sender, &column_stores)?);
        }
        *cluster.primaries.write() = primaries;

        // Over a pre-existing durability dir (cold start over surviving
        // redo files), each receiver replays its log from disk before
        // going live.
        let standbys = specs
            .iter()
            .zip(receivers)
            .enumerate()
            .map(|(j, (spec, rxs))| cluster.assemble_standby(&spec.name, j, None, rxs))
            .collect::<Result<Vec<_>>>()?;
        *cluster.standbys.write() = standbys;
        Ok(Arc::new(cluster))
    }

    /// Convenience: a default single-instance deployment.
    pub fn single() -> Result<Arc<AdgCluster>> {
        AdgCluster::new(ClusterConfig::default())
    }

    /// Open one side's per-thread wal/archive log under `side_dir`.
    fn open_log(
        side_dir: PathBuf,
        system: &SystemConfig,
        thread: RedoThreadId,
    ) -> Result<Arc<DurableLog>> {
        Ok(Arc::new(DurableLog::open(
            side_dir.join(format!("t{}", thread.0)),
            system.durability.segment_max_bytes,
        )?))
    }

    /// The named standby's durability directory.
    fn standby_dir(dir: &Path, name: &str) -> PathBuf {
        dir.join(format!("standby-{name}"))
    }

    /// Assemble the primary instance of redo thread `thread` over the
    /// primary cluster's `shared` services, shipping through `sender`.
    /// `column_stores` holds every instance's column store (see
    /// [`PrimaryInstance::new`]).
    fn assemble_primary(
        &self,
        thread: RedoThreadId,
        shared: &PrimaryShared,
        sender: FanoutSender,
        column_stores: &[Arc<ImcsStore>],
    ) -> Result<Arc<PrimaryInstance>> {
        let log = Arc::new(LogBuffer::with_clock(thread, self.config.clock.clone()));
        let mut txm = TxnManager::new(
            shared.store.clone(),
            shared.scns.clone(),
            log.clone(),
            shared.txn_ids.clone(),
            shared.locks.clone(),
            self.annotation.clone(),
            shared.dbas.clone(),
        );
        txm.annotate_commits = self.config.commit_annotation;
        let id = InstanceId(thread.0 - 1);
        Ok(Arc::new(PrimaryInstance::new(id, txm, log, sender, &self.config, column_stores)?))
    }

    /// Assemble farm member `name` on fan-out lane `lane` over `receivers`,
    /// probing the current primary's SCN service, with its cold tier in the
    /// durability dir and every recorded placement re-applied.
    ///
    /// `store` is the physical store a warm restart or re-homing keeps.
    /// `None` builds a fresh store from the durable redo instead: each
    /// receiver already holds a replay cursor over its disk history (see
    /// `ReliableReceiver`), and the surviving cold files are registered
    /// from their footers before the first drain replays any redo (the
    /// full replay re-mines each file's post-freeze commits into its fresh
    /// SMU; per-unit absorption discards the rest).
    fn assemble_standby(
        &self,
        name: &str,
        lane: usize,
        store: Option<Arc<Store>>,
        receivers: Vec<ReliableReceiver>,
    ) -> Result<Arc<StandbyCluster>> {
        let fresh = store.is_none();
        let standby = StandbyCluster::new(
            &self.config,
            name,
            lane,
            store.unwrap_or_else(|| Arc::new(Store::new())),
            receivers,
            self.scns(),
            self.config.durability_dir().map(|d| Self::standby_dir(&d, name).join("coldstore")),
        )?;
        for (&object, placement) in self.placements.read().iter() {
            if placement.on_standby_named(name) {
                standby.enable_inmemory(object);
            }
        }
        if fresh {
            standby.restore_cold_tier()?;
        }
        Ok(standby)
    }

    /// The primary instances (owned snapshot: promotion swaps the set).
    pub fn primaries(&self) -> Vec<Arc<PrimaryInstance>> {
        self.primaries.read().clone()
    }

    /// The first primary instance.
    pub fn primary(&self) -> Arc<PrimaryInstance> {
        self.primaries.read()[0].clone()
    }

    /// The reader farm (owned snapshot: restarts swap members).
    pub fn standbys(&self) -> Vec<Arc<StandbyCluster>> {
        self.standbys.read().clone()
    }

    /// The first standby cluster (the historical single-standby accessor).
    pub fn standby(&self) -> Arc<StandbyCluster> {
        self.standbys.read()[0].clone()
    }

    /// One standby cluster by farm index.
    pub fn standby_at(&self, idx: usize) -> Result<Arc<StandbyCluster>> {
        self.standbys
            .read()
            .get(idx)
            .cloned()
            .ok_or_else(|| Error::Config(format!("no standby cluster at index {idx}")))
    }

    /// One standby cluster by name.
    pub fn standby_named(&self, name: &str) -> Result<Arc<StandbyCluster>> {
        self.standbys
            .read()
            .iter()
            .find(|s| s.name() == name)
            .cloned()
            .ok_or_else(|| Error::Config(format!("no standby cluster named {name:?}")))
    }

    /// The global SCN service (replaced on promotion).
    pub fn scns(&self) -> Arc<ScnService> {
        self.scns.read().clone()
    }

    /// Create a table: applied on the primary dictionary and replicated to
    /// every standby through a DDL redo marker.
    pub fn create_table(&self, spec: TableSpec) -> Result<()> {
        self.primary().txm.create_table(spec)
    }

    /// Set an object's in-memory placement (services model, Fig. 2): the
    /// primary service plus the selected standby clusters populate it.
    pub fn set_placement(&self, object: ObjectId, placement: Placement) -> Result<()> {
        // Commit-record annotation covers objects enabled anywhere.
        if placement.enabled_anywhere() {
            self.annotation.enable(object);
        } else {
            self.annotation.disable(object);
        }
        for p in self.primaries.read().iter() {
            if placement.on_primary() {
                p.population.enable(object);
            } else {
                p.population.disable(object);
            }
        }
        for standby in self.standbys.read().iter() {
            if placement.on_standby_named(standby.name()) {
                standby.enable_inmemory(object);
            } else {
                standby.disable_inmemory(object);
            }
        }
        self.placements.write().insert(object, placement);
        Ok(())
    }

    /// The object's current placement.
    pub fn placement(&self, object: ObjectId) -> Placement {
        self.placements.read().get(&object).cloned().unwrap_or_default()
    }

    /// Ship all buffered redo from every primary instance.
    pub fn ship_redo(&self) -> Result<usize> {
        let mut total = 0;
        for p in self.primaries.read().iter() {
            total += p.ship_redo()?;
        }
        Ok(total)
    }

    /// Deterministic full synchronization (step mode): ship redo, apply it
    /// on every standby, advance the QuerySCNs, and run population to a
    /// fixed point.
    ///
    /// On a lossy or latent link, "shipped nothing and populated nothing"
    /// is not quiescence: frames may still be unacked on the primary side
    /// or sitting in a receiver gap awaiting retransmission. Each loop
    /// iteration runs a shipper service quantum (inside `ship_redo`) and a
    /// full pump on every standby, which is exactly the polling the
    /// NAK/ping protocol needs to converge. A link that stays pending with
    /// nothing moving for 5 s fails the call with [`Error::SyncStalled`]
    /// naming the pending sides.
    pub fn sync(&self) -> Result<()> {
        let standbys = self.standbys();
        // Frames that reached a standby's receiver (data or probes).
        let delivered = || -> u64 {
            let links = standbys.iter().map(|s| &s.metrics.transport);
            links.map(|t| t.frames_received.get() + t.link_pings.get()).sum()
        };
        let (mut last_delivered, mut last_progress) = (delivered(), Instant::now());
        loop {
            let shipped = self.ship_redo()?;
            let mut moved = shipped > 0;
            let mut populated_any = false;
            for standby in &standbys {
                while standby.pump()? {
                    moved = true;
                }
                populated_any |= standby.populate_until_idle()?.any();
            }
            let primary_pending = self.primaries.read().iter().any(|p| p.transport_pending());
            let pending: Vec<&Arc<StandbyCluster>> =
                standbys.iter().filter(|s| s.recovery.transport_pending()).collect();
            // Population may race new shipping in tests; loop until stable.
            if shipped == 0 && !populated_any {
                if !primary_pending && pending.is_empty() {
                    return Ok(());
                }
                // Real-time media (TCP, latent channels) needs wall-clock
                // progress, not just polling.
                std::thread::yield_now();
            }
            let now_delivered = delivered();
            if moved || populated_any || now_delivered != last_delivered {
                (last_delivered, last_progress) = (now_delivered, Instant::now());
            } else if last_progress.elapsed() >= SYNC_STALL_LIMIT {
                let sides = primary_pending
                    .then(|| "primary sender".to_string())
                    .into_iter()
                    .chain(pending.iter().map(|s| format!("standby `{}`", s.name())));
                return Err(Error::SyncStalled(sides.collect::<Vec<_>>().join(", ")));
            }
        }
    }

    /// Register an in-memory expression (paper §V) wherever the object is
    /// placed; the next population pass materializes it as a virtual
    /// column.
    pub fn register_expression(&self, object: ObjectId, expr: imadg_imcs::ImExpression) {
        let placement = self.placement(object);
        if placement.on_primary() {
            for p in self.primaries.read().iter() {
                p.imcs.register_expression(object, expr.clone());
            }
        }
        for standby in self.standbys.read().iter() {
            if placement.on_standby_named(standby.name()) {
                standby.register_expression(object, expr.clone());
            }
        }
    }

    /// Run primary-side population to a fixed point (dual-format DBIM on
    /// the primary, §II.B).
    pub fn populate_primary(&self) -> Result<()> {
        for p in self.primaries.read().iter() {
            p.population.run_until_idle()?;
        }
        Ok(())
    }

    /// Restart one standby cluster by farm index (paper §III.E): storage
    /// persists, every in-memory structure — journal, commit table, IMCS —
    /// is lost, and media recovery resumes on the same redo links. The
    /// rest of the farm keeps applying undisturbed. A promoted-from member
    /// stays frozen: both restarts refuse it with `Error::Config`.
    pub fn restart_standby(&self, idx: usize) -> Result<()> {
        self.restart(idx, false)
    }

    /// Hard-crash one standby cluster and restart it from disk: the
    /// physical store and every in-memory structure are lost. The
    /// replacement rebuilds by replaying and re-mining all of its own
    /// durable redo files, then converges the unsynced tail
    /// through the gap protocol — NAKs served from the primary's shared
    /// retained window and archived logs. The rest of the farm keeps
    /// applying undisturbed. Requires durability (a framed or TCP link).
    pub fn crash_restart_standby(&self, idx: usize) -> Result<()> {
        self.restart(idx, true)
    }

    fn restart(&self, idx: usize, crash: bool) -> Result<()> {
        let old = self.standby_at(idx)?;
        // A promoted-from member has no lane left and serves its frozen
        // QuerySCN; a rebuild would lose both.
        if old.is_frozen() {
            return Err(Error::Config(format!(
                "standby {} was promoted from and stays frozen; it cannot restart",
                old.name()
            )));
        }
        if crash && self.config.durability_dir().is_none() {
            return Err(Error::Config(
                "crash restart requires durability (NodeBuilder::durability)".into(),
            ));
        }
        let mut receivers = old.recovery.take_receivers();
        let store = if crash {
            for rx in receivers.iter_mut() {
                // The crash loses the unsynced tee buffer and all
                // reassembly state; the receiver replays its disk history,
                // and the link rewinds to the durable position and
                // announces it to the sender.
                rx.reset_for_restart()?;
            }
            None
        } else {
            Some(old.store.clone())
        };
        let new = self.assemble_standby(old.name(), old.lane(), store, receivers)?;
        self.standbys.write()[idx] = new;
        // The lost incarnation's memory is reclaimed the way a dead
        // process's is, off the restart path: freeing a loaded row store
        // and column store takes seconds, and the new member needs none of
        // it. If no thread can be spawned, it is freed here.
        let _ = std::thread::Builder::new().name("imadg-teardown".into()).spawn(move || drop(old));
        Ok(())
    }

    /// Promote the freshest standby to primary after primary loss (role
    /// transition, paper §I: the standby holds every committed transaction
    /// the lost primary shipped).
    ///
    /// Runs terminal catch-up first — remaining gaps on every lane resolve
    /// through NAK/retransmission, so the whole farm converges to the same
    /// applied position — then picks the standby with the highest applied
    /// SCN (ties break to the lowest farm index) and builds a new primary
    /// instance directly over its physical store: SCN allocation resumes
    /// past the applied SCN, the space and transaction-id allocators are
    /// seeded past everything recovery replayed, and in-flight
    /// (uncommitted) transactions from the old primary are implicitly
    /// rolled back — their versions carry no commit SCN and stay invisible
    /// forever. The promoted-from standby remains queryable at its frozen
    /// QuerySCN; every *other* standby re-homes to the new primary over a
    /// fresh fan-out link and keeps serving.
    pub fn promote(&self) -> Result<PromotionReport> {
        // Terminal catch-up: everything the lost primary got onto the wire
        // (or into its retained window / archive) lands on every standby.
        self.sync()?;
        let standbys = self.standbys();
        let best_idx = standbys
            .iter()
            .enumerate()
            .max_by_key(|(i, s)| (s.recovery.applied_scn(), std::cmp::Reverse(*i)))
            .map(|(i, _)| i)
            .ok_or_else(|| Error::Config("no standby cluster to promote".into()))?;
        let best = standbys[best_idx].clone();
        let applied = best.recovery.applied_scn();
        let frozen_query_scn = best.query_scn.get();

        // The old primary is gone; its instances and links go with it, and
        // every standby's old receivers are dropped: no more redo will
        // arrive on the old lanes.
        self.primaries.write().clear();
        for s in &standbys {
            drop(s.recovery.take_receivers());
        }
        best.set_frozen(true);

        let store = best.store.clone();
        // The replayed store has never inserted locally: rebuild every
        // segment's insert cursor from block occupancy before the first
        // local transaction, or new rows would shadow replayed slots.
        store.reset_insert_cursors()?;
        // Seed the space layer past every block recovery materialized.
        let mut max_dba = 0u64;
        for id in store.object_ids() {
            for dba in store.block_dbas(id)? {
                max_dba = max_dba.max(dba.0);
            }
        }
        let shared = PrimaryShared {
            scns: Arc::new(ScnService::starting_at(Scn(applied.raw() + 1))),
            // Never reuse a replayed transaction id: a collision would
            // resurrect orphaned uncommitted versions.
            txn_ids: Arc::new(TxnIdService::starting_at(store.txns().max_txn_id().0 + 1)),
            locks: Arc::new(LockTable::new()),
            dbas: Arc::new(DbaAllocator::new(max_dba + 1)),
            store,
        };
        let thread = RedoThreadId(1);

        // Survivors re-home: a fresh framed fan-out link from the promoted
        // primary, one clean zero-latency lane per surviving standby, with
        // no durable logs. Sequences restart at 1 — terminal catch-up
        // already landed every committed transaction ≤ applied on every
        // survivor, so only new redo (SCNs past the promotion point)
        // ships. With no survivors the link has zero lanes: the shipper
        // keeps running and nothing waits on an ACK.
        let survivors: Vec<usize> = (0..standbys.len()).filter(|&i| i != best_idx).collect();
        let mut rehome_cfg = self.config.system.transport.clone();
        rehome_cfg.mode = imadg_common::LinkMode::Framed;
        rehome_cfg.latency = std::time::Duration::ZERO;
        rehome_cfg.faults = None;
        let lanes: Vec<FanoutLaneSpec> = survivors
            .iter()
            .map(|_| FanoutLaneSpec { faults: None, fault_seed: 0, standby_log: None })
            .collect();
        let (sender, lane_rx) =
            build_fanout_link(thread, &rehome_cfg, self.config.clock.clone(), None, lanes)?;
        let promoted =
            self.assemble_primary(thread, &shared, sender, &[Arc::new(ImcsStore::new())])?;
        // The promoted side now populates its own column store for every
        // object that was in-memory anywhere.
        for (&object, placement) in self.placements.read().iter() {
            if placement.enabled_anywhere() {
                promoted.population.enable(object);
            }
        }
        promoted.population.run_until_idle()?;
        *self.scns.write() = shared.scns.clone();
        *self.primaries.write() = vec![promoted];

        // Rebuild each survivor over its existing store, attached to its
        // new lane (in-memory state restarts, like a standby restart; the
        // physical store persists).
        let mut rehomed = Vec::with_capacity(survivors.len());
        let mut new_farm = standbys.clone();
        for ((lane, &idx), rx) in survivors.iter().enumerate().zip(lane_rx) {
            let old = &standbys[idx];
            // Drop the old in-memory pipeline; keep the datafiles.
            new_farm[idx] =
                self.assemble_standby(old.name(), lane, Some(old.store.clone()), vec![rx])?;
            rehomed.push(old.name().to_string());
        }
        *self.standbys.write() = new_farm;
        Ok(PromotionReport {
            applied_scn: applied,
            resume_scn: Scn(applied.raw() + 1),
            frozen_query_scn,
            promoted_from: best.name().to_string(),
            rehomed,
        })
    }

    /// Build the deployment-wide stage runtime: every primary's redo
    /// shipper plus all standby stages, with the cross-side wake edges
    /// (each shipped batch wakes every standby's ingest stage through its
    /// own lane). Primary failures land in the owning instance's registry,
    /// standby failures in that standby's; the runtime's own cell sees all.
    pub fn build_runtime(&self) -> Runtime {
        let standbys = self.standbys();
        let mut rt = Runtime::new();
        let primaries = self.primaries();
        for p in &primaries {
            p.register_stages(&mut rt);
        }
        for standby in &standbys {
            let ids = standby.register_stages(&mut rt);
            if standby.is_frozen() {
                // A frozen (promoted-from) standby has no live lane.
                continue;
            }
            let ingest_token = rt.wake_token(ids.ingest);
            for p in &primaries {
                p.set_send_waker_for(standby.lane(), ingest_token.clone());
            }
        }
        rt
    }

    /// Spawn the full threaded deployment: redo shippers on every primary
    /// plus every standby's recovery, population and RAC stages.
    pub fn start(&self) -> ClusterThreads {
        self.build_runtime().start_threaded()
    }

    /// A deterministic single-thread scheduler over the full deployment:
    /// the seed chooses the stage interleaving (interleaving stress tests).
    pub fn step_scheduler(&self, seed: u64) -> StepScheduler {
        self.build_runtime().into_step(seed)
    }
}

/// Guard over the deployment's background threads; drains and stops them
/// on drop.
pub type ClusterThreads = ThreadedRuntime;

#[cfg(test)]
mod tests {
    use imadg_common::{MetricsRegistry, TenantId};
    use imadg_imcs::{CmpOp, Filter, Predicate};
    use imadg_storage::{ColumnType, Row, RowLoc, Schema, Value};
    use imadg_txn::InvalidationSink;
    use parking_lot::Mutex;

    use super::*;
    use crate::query::{execute_request, QueryRequest};
    use crate::NodeBuilder;

    /// Wraps the primary's invalidation: before each location goes stale, a
    /// primary IMCS query must agree with the row store at the same
    /// snapshot.
    struct CheckedSink {
        imcs: Arc<ImcsStore>,
        store: Arc<Store>,
        scns: Arc<ScnService>,
        req: QueryRequest,
        filter: Filter,
        mismatches: Mutex<Vec<String>>,
    }

    impl InvalidationSink for CheckedSink {
        fn invalidate(&self, object: ObjectId, loc: RowLoc, commit_scn: Scn) {
            let snapshot = self.scns.current();
            let m = MetricsRegistry::default();
            let imcs = [self.imcs.clone()];
            let out = execute_request(
                &imcs,
                &self.store,
                &self.req,
                snapshot,
                &m.scan,
                &m.tier,
                &m.trace,
            )
            .expect("primary query");
            let served: HashSet<Row> = out.rows.into_iter().collect();
            let mut rows = HashSet::new();
            self.store
                .scan_object(object, snapshot, None, |_, row| {
                    if self.filter.eval_row(row) {
                        rows.insert(row.clone());
                    }
                })
                .expect("row-store scan");
            if served != rows {
                self.mismatches.lock().push(format!(
                    "at SCN {} (commit {}): IMCS served {served:?}, row store has {rows:?}",
                    snapshot.raw(),
                    commit_scn.raw()
                ));
            }
            self.imcs.invalidate(object, loc, commit_scn);
        }
    }

    /// A primary query whose snapshot covers a commit must never read the
    /// commit's rows from a cell that is still marked valid: the column
    /// store learns of the commit before the txn table makes it visible.
    #[test]
    fn primary_commit_invalidates_before_it_becomes_visible() {
        let cluster = NodeBuilder::new().build().unwrap();
        let obj = ObjectId(1);
        let schema = Schema::of(&[("id", ColumnType::Int), ("v", ColumnType::Int)]);
        cluster
            .create_table(TableSpec {
                id: obj,
                name: "t".into(),
                tenant: TenantId::DEFAULT,
                schema: schema.clone(),
                key_ordinal: 0,
                rows_per_block: 64,
            })
            .unwrap();
        cluster.set_placement(obj, Placement::PrimaryOnly).unwrap();
        for i in 0..20 {
            cluster.primary().insert_one(obj, TenantId::DEFAULT, vec![Value::Int(i); 2]).unwrap();
        }
        cluster.populate_primary().unwrap();

        let filter = Filter::of(Predicate::new(&schema, "v", CmpOp::Ge, Value::Int(50)).unwrap());
        let req = QueryRequest::scan(obj).filter(filter.clone());
        let p = cluster.primary();
        assert!(p.imcs.populated_rows() > 0, "the unit is populated before the commit");
        let sink = Arc::new(CheckedSink {
            imcs: p.imcs.clone(),
            store: p.store.clone(),
            scns: p.txm.scns().clone(),
            req: req.clone(),
            filter,
            mismatches: Mutex::new(Vec::new()),
        });
        drop(p);
        {
            let mut primaries = cluster.primaries.write();
            let p = Arc::get_mut(&mut primaries[0]).expect("no other handle on the primary");
            p.txm.set_invalidation_sink(sink.clone());
        }

        // The new image starts to match the predicate.
        cluster.primary().update_one(obj, TenantId::DEFAULT, 3, "v", Value::Int(99)).unwrap();
        let mismatches = sink.mismatches.lock();
        assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
        assert_eq!(cluster.primary().query(&req).unwrap().rows.len(), 1);
    }
}
