//! Media-recovery pipeline assembly: receivers → log merger → dispatcher →
//! recovery workers → coordinator.
//!
//! The pipeline runs in two modes with identical logic:
//! * **step mode** — [`MediaRecovery::pump`] drains every stage on the
//!   caller's thread in a fixed order;
//! * **scheduled mode** — [`MediaRecovery::register_stages`] hands the same
//!   stages to a `Runtime`, which runs them on threads or under a seeded
//!   `StepScheduler` for randomized interleavings (tests): the ingest stage
//!   wakes the workers, the workers wake the coordinator, and an error or
//!   panic in any stage trips the pipeline health state instead of dying in
//!   a detached thread.

use std::sync::Arc;
use std::time::Duration;

use imadg_common::metrics::{ApplyMetrics, MergerMetrics, RuntimeMetrics, StalenessTracker};
use imadg_common::{
    MetricsRegistry, QueryScnCell, QuiesceLock, RecoveryConfig, Result, Runtime, RuntimeHealth,
    Scn, Stage, StageId, StageOutcome, WorkerId,
};
use imadg_net::ReliableReceiver;
use imadg_redo::{LogMerger, RedoPayload};
use imadg_storage::Store;
use parking_lot::Mutex;

use crate::adg::DbimAdg;
use crate::coordinator::Coordinator;
use crate::dispatch::Dispatcher;
use crate::progress::Progress;
use crate::worker::{work_queue, Worker};

/// The standby's media-recovery engine.
pub struct MediaRecovery {
    receivers: Mutex<Vec<ReliableReceiver>>,
    /// Latched when a drain performed link protocol work (ACK/NAK) even
    /// though no records came out; consumed by the ingest stage so gap
    /// resolution counts as progress under the step scheduler.
    protocol_activity: std::sync::atomic::AtomicBool,
    merger: Mutex<LogMerger>,
    dispatcher: Mutex<Dispatcher>,
    workers: Vec<Arc<Mutex<Worker>>>,
    progress: Arc<Progress>,
    coordinator: Arc<Coordinator>,
    merger_metrics: Arc<MergerMetrics>,
    apply_metrics: Arc<ApplyMetrics>,
    runtime_metrics: Arc<RuntimeMetrics>,
    staleness: Arc<StalenessTracker>,
}

impl MediaRecovery {
    /// Assemble the pipeline, reporting into the merger/apply/flush stages
    /// and trace ring of `registry`.
    ///
    /// * `receivers` — one [`ReliableReceiver`] per primary redo thread
    ///   (RAC streams): framed links over in-process pipes or TCP. Each
    ///   reports its link and durability counters into `registry` —
    ///   rebinding on a restart is deliberate: a fresh standby starts
    ///   fresh counters.
    /// * `adg` — the DBIM-on-ADG infrastructure every worker mines into and
    ///   helps flush, and whose invalidation flush the coordinator runs
    ///   before each QuerySCN publish; `None` for recovery without it.
    pub fn new(
        config: &RecoveryConfig,
        store: Arc<Store>,
        mut receivers: Vec<ReliableReceiver>,
        adg: Option<Arc<DbimAdg>>,
        query_scn: Arc<QueryScnCell>,
        quiesce: Arc<QuiesceLock>,
        registry: &MetricsRegistry,
    ) -> Arc<MediaRecovery> {
        for rx in receivers.iter_mut() {
            rx.bind_metrics(registry);
        }
        let streams = receivers.len().max(1);
        let progress = Arc::new(Progress::new(config.workers));
        let mut senders = Vec::with_capacity(config.workers);
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let (tx, rx) = work_queue();
            senders.push(tx);
            let w = Worker::new(WorkerId(i as u16), rx, store.clone(), adg.clone(), registry);
            workers.push(Arc::new(Mutex::new(w)));
        }
        let coordinator = Arc::new(Coordinator::new(
            progress.clone(),
            query_scn,
            quiesce,
            adg.as_ref().map(|a| a.flush.clone()),
            registry,
        ));
        Arc::new(MediaRecovery {
            receivers: Mutex::new(receivers),
            protocol_activity: std::sync::atomic::AtomicBool::new(false),
            merger: Mutex::new(LogMerger::new(streams)),
            dispatcher: Mutex::new(Dispatcher::new(senders, store.clone())),
            workers,
            progress,
            coordinator,
            merger_metrics: registry.merger.clone(),
            apply_metrics: registry.apply.clone(),
            runtime_metrics: registry.runtime.clone(),
            staleness: registry.staleness.clone(),
        })
    }

    /// The coordinator (QuerySCN access, advancement stats).
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coordinator
    }

    /// Shared apply-progress tracker.
    pub fn progress(&self) -> &Arc<Progress> {
        &self.progress
    }

    /// Ingest available redo from the transport into the merger and
    /// dispatch whatever became releasable. Returns items dispatched.
    /// Link protocol work performed while draining (ACKs, NAKs) is
    /// recorded and retrievable via [`MediaRecovery::take_protocol_activity`].
    pub fn ingest_once(&self) -> Result<usize> {
        let mut receivers = self.receivers.lock();
        let mut merger = self.merger.lock();
        for (i, rx) in receivers.iter_mut().enumerate() {
            let records = rx.drain_ready()?;
            if rx.take_protocol_activity() {
                self.protocol_activity.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            // Group commit of the standby redo tee: one fsync per ingest
            // quantum covers every batch this drain delivered, and sealed
            // segments move to the archive tier.
            if rx.durable_sync()? {
                self.protocol_activity.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            if !records.is_empty() {
                let heartbeats =
                    records.iter().filter(|r| matches!(r.payload, RedoPayload::Heartbeat)).count();
                self.merger_metrics.heartbeats_seen.add(heartbeats as u64);
                self.merger_metrics.merge_batches.inc();
                for r in &records {
                    if matches!(r.payload, RedoPayload::Commit(_)) {
                        self.staleness.on_receive(r.scn.0, r.born_us);
                    }
                }
                merger.push(i, records);
            }
        }
        let ready = merger.pop_ready();
        drop(merger);
        drop(receivers);
        if ready.is_empty() {
            return Ok(0);
        }
        for r in &ready {
            if matches!(r.payload, RedoPayload::Commit(_)) {
                self.staleness.on_merge(r.scn.0);
            }
        }
        // pop_ready only releases data records (heartbeats are swallowed),
        // so merger output == dispatcher input — the conservation identity.
        self.merger_metrics.records_merged.add(ready.len() as u64);
        self.apply_metrics.records_dispatched.add(ready.len() as u64);
        self.dispatcher.lock().dispatch(ready)
    }

    /// Run every worker's queue to exhaustion (step mode).
    pub fn drain_workers(&self) -> Result<usize> {
        let mut total = 0usize;
        for w in &self.workers {
            let mut guard = w.lock();
            let n = guard.run_batch(usize::MAX)?;
            self.progress.report(guard.id, guard.applied_through());
            total += n;
        }
        Ok(total)
    }

    /// One full synchronous pass: ingest → apply → advance. Returns true
    /// when any stage made progress.
    pub fn pump(&self) -> Result<bool> {
        let dispatched = self.ingest_once()?;
        let applied = self.drain_workers()?;
        let advanced = self.coordinator.try_advance().is_some();
        Ok(dispatched > 0 || applied > 0 || advanced)
    }

    /// Pump until the pipeline is fully drained (step mode).
    pub fn pump_until_idle(&self) -> Result<()> {
        while self.pump()? {}
        Ok(())
    }

    /// Register the pipeline's stages — ingest/merge/dispatch, one apply
    /// stage per worker, and the advancement coordinator — with `rt`,
    /// wiring the producer→consumer wake edges (ingest wakes workers,
    /// workers wake the coordinator). Failures are recorded in this
    /// pipeline's registry health cell.
    pub fn register_stages(self: &Arc<Self>, rt: &mut Runtime) -> RecoveryStageIds {
        let health = self.runtime_metrics.health.clone();
        let ingest = rt.register_with_health(
            Arc::new(IngestStage(self.clone())),
            self.runtime_metrics.stage("merger"),
            health.clone(),
        );
        let coordinator = rt.register_with_health(
            Arc::new(CoordinatorStage(self.clone())),
            self.runtime_metrics.stage("flush"),
            health.clone(),
        );
        let mut workers = Vec::with_capacity(self.workers.len());
        for (i, w) in self.workers.iter().enumerate() {
            let id = rt.register_with_health(
                Arc::new(WorkerStage {
                    name: format!("apply.{i}"),
                    worker: w.clone(),
                    progress: self.progress.clone(),
                }),
                self.runtime_metrics.stage(&format!("apply.{i}")),
                health.clone(),
            );
            rt.wire(ingest, id);
            rt.wire(id, coordinator);
            workers.push(id);
        }
        RecoveryStageIds { ingest, workers, coordinator }
    }

    /// Current pipeline health (`Failed` once any stage errors or panics).
    pub fn health(&self) -> RuntimeHealth {
        self.runtime_metrics.health.get()
    }

    /// Applied SCN (the coordinator's consistency-point candidate).
    pub fn applied_scn(&self) -> Scn {
        self.progress.min()
    }

    /// Refresh the sampled merger/apply gauges (held-back depth, watermark,
    /// stream skew, applied/shipped SCNs, apply lag, QuerySCN). Called by
    /// the owner just before a registry snapshot.
    pub fn refresh_gauges(&self) {
        let (held_back, watermark, max_seen, skew) = {
            let m = self.merger.lock();
            (m.held_back() as u64, m.watermark().0, m.max_seen().0, m.stream_skew())
        };
        self.merger_metrics.held_back.set(held_back);
        self.merger_metrics.watermark.set(watermark);
        self.merger_metrics.stream_skew.set(skew);
        let applied = self.progress.min().0;
        self.apply_metrics.applied_scn.set(applied);
        self.apply_metrics.shipped_scn.set(max_seen);
        self.apply_metrics.apply_lag.set(max_seen.saturating_sub(applied));
        let query_scn = self.coordinator.query_scn().get().map_or(0, |s| s.0);
        self.apply_metrics.query_scn.set(query_scn);
    }

    /// Detach the redo receivers from this (stopped) pipeline so a restarted
    /// standby instance can resume recovery on the same links. Models an
    /// ADG instance restart: storage persists, in-memory state is lost.
    pub fn take_receivers(&self) -> Vec<ReliableReceiver> {
        std::mem::take(&mut *self.receivers.lock())
    }

    /// Consume the "a drain did link protocol work" latch (ACKs/NAKs sent
    /// with no records released). Protocol work counts as stage progress:
    /// gap resolution must keep the step scheduler driving the pipeline.
    pub fn take_protocol_activity(&self) -> bool {
        self.protocol_activity.swap(false, std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether any receiver still holds undelivered transport state —
    /// a latent batch in flight, an open gap, or out-of-order frames
    /// buffered. Quiesce checks must not declare the standby caught up
    /// while this is true.
    pub fn transport_pending(&self) -> bool {
        self.receivers.lock().iter().any(|r| r.transport_pending())
    }

    /// The soonest delivery deadline across receivers holding a latent
    /// batch, if any. Drives the ingest stage's park hint so delayed redo
    /// is picked up right when it becomes due instead of on a poll tick.
    pub fn next_transport_deadline(&self) -> Option<Duration> {
        self.receivers.lock().iter().filter_map(|r| r.time_to_next()).min()
    }
}

/// Stage ids handed back by [`MediaRecovery::register_stages`], for wiring
/// additional wake edges (population, cross-side tokens).
pub struct RecoveryStageIds {
    /// The ingest/merge/dispatch stage.
    pub ingest: StageId,
    /// One apply stage per recovery worker.
    pub workers: Vec<StageId>,
    /// The QuerySCN-advancement coordinator stage.
    pub coordinator: StageId,
}

/// Ingest/merge/dispatch as a runtime stage (metrics id `merger`). Woken by
/// the transport sender when a shipped batch is deliverable *now*; for
/// batches still in flight on a latency link the park hint re-arms the
/// stage for the exact delivery deadline, so a latent send never wakes the
/// stage early (no spurious wakeups).
struct IngestStage(Arc<MediaRecovery>);

impl Stage for IngestStage {
    fn name(&self) -> &str {
        "merger"
    }

    fn run_once(&self) -> Result<StageOutcome> {
        let dispatched = self.0.ingest_once()?;
        Ok(if dispatched > 0 || self.0.take_protocol_activity() {
            StageOutcome::Progress
        } else {
            StageOutcome::Idle
        })
    }

    fn park_hint(&self) -> Duration {
        self.0.next_transport_deadline().unwrap_or(Duration::from_micros(500))
    }

    fn input_pending(&self) -> Option<bool> {
        Some(self.0.transport_pending())
    }
}

/// QuerySCN advancement as a runtime stage (metrics id `flush`). Woken by
/// worker progress.
struct CoordinatorStage(Arc<MediaRecovery>);

impl Stage for CoordinatorStage {
    fn name(&self) -> &str {
        "flush"
    }

    fn run_once(&self) -> Result<StageOutcome> {
        Ok(if self.0.coordinator.try_advance().is_some() {
            StageOutcome::Progress
        } else {
            StageOutcome::Idle
        })
    }
}

/// One recovery worker's apply loop as a runtime stage (metrics id
/// `apply.N`). Woken by the ingest stage on every dispatch.
struct WorkerStage {
    name: String,
    worker: Arc<Mutex<Worker>>,
    progress: Arc<Progress>,
}

impl Stage for WorkerStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn run_once(&self) -> Result<StageOutcome> {
        let mut guard = self.worker.lock();
        let n = guard.run_batch(1024)?;
        let (id, through) = (guard.id, guard.applied_through());
        drop(guard);
        self.progress.report(id, through);
        Ok(if n > 0 { StageOutcome::Progress } else { StageOutcome::Idle })
    }
}
