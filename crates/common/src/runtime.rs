//! The unified stage runtime: one scheduler for every pipeline loop.
//!
//! Every background activity in the system — redo shipping, standby
//! ingest/merge, per-worker redo apply, QuerySCN advancement, IMCU
//! population, RAC invalidation endpoints, even the workload driver's
//! client ticks — is a [`Stage`]: a struct with a synchronous
//! [`Stage::run_once`] returning [`StageOutcome`]. Stages register with a
//! [`Runtime`], which owns wake wiring, panic/error capture, and graceful
//! drain-then-stop shutdown, and can be driven by either of two
//! interchangeable schedulers:
//!
//! * [`ThreadedRuntime`] ([`Runtime::start_threaded`]) — one thread per
//!   stage. Idle stages park on a [`WakeToken`] condvar; producers wake
//!   their consumers (shipper → merger, dispatcher → workers, workers →
//!   coordinator, flush → population), replacing every fixed
//!   `sleep(500µs..5ms)` poll loop with event-driven wakeups. A park hint
//!   bounds the wait for stages with timer-like duties (heartbeats,
//!   pacing).
//! * [`StepScheduler`] ([`Runtime::into_step`]) — drives all registered
//!   stages on the caller's thread, choosing the interleaving from a
//!   seeded RNG. The same seed reproduces the same interleaving exactly,
//!   which is what makes seeded-interleaving stress testing of the
//!   pipeline invariants (P1/P2/P5) possible.
//!
//! A panic or `Err` in any stage no longer vanishes into a detached
//! thread: the runtime records it in a shared [`HealthState`], stops the
//! pipeline deterministically, and the failure surfaces through
//! `StandbyStatus`/`MetricsSnapshot`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};
use crate::metrics::{Record, Sink, StageRuntimeMetrics};

// ---------------------------------------------------------------------------
// Stage contract
// ---------------------------------------------------------------------------

/// What one run quantum of a stage accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutcome {
    /// Work was done; schedule the stage again immediately.
    Progress,
    /// Nothing to do; park until a producer wakes the stage (or its
    /// [`Stage::park_hint`] elapses).
    Idle,
    /// The stage has finished its lifetime (e.g. a workload client past
    /// its deadline); deschedule it.
    Shutdown,
}

/// One pipeline stage: a synchronous run quantum plus scheduling hints.
///
/// Implementations use interior mutability (the pipeline structs already
/// do); `run_once` must be bounded — drain a batch, not the world — so the
/// scheduler can interleave stages and honour shutdown promptly.
pub trait Stage: Send + Sync {
    /// Stage identity. Aligns with the [`crate::MetricsRegistry`] stage ids
    /// (`transport`, `merger`, `apply.N`, `flush`, `population.N`, …) so
    /// runtime observability lands next to the stage's own counters.
    fn name(&self) -> &str;

    /// Run one bounded quantum.
    fn run_once(&self) -> Result<StageOutcome>;

    /// Upper bound on how long the stage may stay parked when idle. Acts
    /// as the fallback for missed wakeups and as the timer for stages with
    /// periodic duties (shipper heartbeats, paced clients).
    fn park_hint(&self) -> Duration {
        Duration::from_millis(1)
    }

    /// Minimum pause after a `Progress` quantum (threaded scheduler only).
    /// Background stages that must not starve foreground work (IMCU
    /// population, paper §II.B) yield here; `None` reschedules immediately.
    fn throttle(&self) -> Option<Duration> {
        None
    }

    /// Whether upstream input is waiting for this stage right now. `None`
    /// (the default) opts out of stall detection; `Some(true)` while the
    /// stage keeps reporting [`StageOutcome::Idle`] for
    /// [`STALL_IDLE_QUANTA`] consecutive quanta raises a one-shot
    /// [`StallWarning`] in the health state — input exists but the stage
    /// isn't consuming it.
    fn input_pending(&self) -> Option<bool> {
        None
    }
}

/// Consecutive idle quanta with input pending before a stage is flagged as
/// stalled. High enough that bounded internal back-off (e.g. the reliable
/// transport's NAK retry polls) never trips it.
pub const STALL_IDLE_QUANTA: u64 = 64;

// ---------------------------------------------------------------------------
// Wake tokens
// ---------------------------------------------------------------------------

#[derive(Default)]
struct WakeInner {
    pending: Mutex<bool>,
    cv: Condvar,
}

/// A wake token: producers call [`WakeToken::wake`] to unpark the consumer
/// stage parked on it. Cloneable and cheap; a wake delivered while the
/// consumer is running is latched and consumed by the next park (no lost
/// wakeups).
#[derive(Clone, Default)]
pub struct WakeToken {
    inner: Arc<WakeInner>,
}

impl WakeToken {
    /// A fresh token with no pending wake.
    pub fn new() -> WakeToken {
        WakeToken::default()
    }

    /// Wake the stage parked on this token (or latch the wake for its next
    /// park).
    pub fn wake(&self) {
        let mut pending = self.inner.pending.lock().expect("wake token poisoned");
        *pending = true;
        drop(pending);
        self.inner.cv.notify_all();
    }

    /// Park until woken or `timeout` elapses. Returns `true` when the park
    /// ended because of an explicit wake.
    pub fn park(&self, timeout: Duration) -> bool {
        let mut pending = self.inner.pending.lock().expect("wake token poisoned");
        if !*pending {
            let (guard, _timed_out) =
                self.inner.cv.wait_timeout(pending, timeout).expect("wake token poisoned");
            pending = guard;
        }
        std::mem::take(&mut pending)
    }
}

impl std::fmt::Debug for WakeToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WakeToken")
    }
}

// ---------------------------------------------------------------------------
// Health
// ---------------------------------------------------------------------------

/// The first failure recorded by a pipeline stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageFailure {
    /// Name of the failing stage.
    pub stage: String,
    /// The error message or panic payload.
    pub reason: String,
}

impl Record for StageFailure {
    fn fields(&self, sink: &mut dyn Sink) {
        sink.text("stage", &self.stage);
        sink.text("reason", &self.reason);
    }
}

/// Pipeline health as surfaced by `StandbyStatus` and `MetricsSnapshot`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum RuntimeHealth {
    /// No stage has failed.
    #[default]
    Healthy,
    /// A stage returned `Err` or panicked; the pipeline was stopped.
    Failed(StageFailure),
}

impl RuntimeHealth {
    /// True when no failure has been recorded.
    pub fn is_healthy(&self) -> bool {
        matches!(self, RuntimeHealth::Healthy)
    }

    /// The failure, if any.
    pub fn failure(&self) -> Option<&StageFailure> {
        match self {
            RuntimeHealth::Healthy => None,
            RuntimeHealth::Failed(f) => Some(f),
        }
    }
}

impl std::fmt::Display for RuntimeHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeHealth::Healthy => f.write_str("ok"),
            RuntimeHealth::Failed(e) => write!(f, "FAILED[{}]: {}", e.stage, e.reason),
        }
    }
}

/// A stall warning: a stage sat idle for [`STALL_IDLE_QUANTA`] consecutive
/// quanta while its input queue reported pending work. Unlike a
/// [`StageFailure`] this does not stop the pipeline — it flags a wedged or
/// starved stage for the operator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallWarning {
    /// Name of the stalled stage.
    pub stage: String,
    /// Idle quanta observed when the warning fired.
    pub idle_quanta: u64,
}

impl Record for StallWarning {
    fn fields(&self, sink: &mut dyn Sink) {
        sink.text("stage", &self.stage);
        sink.number("idle_quanta", self.idle_quanta);
    }
}

/// Shared health cell written by the schedulers, read by status/metrics
/// projections. First failure wins; later ones are dropped.
#[derive(Debug, Default)]
pub struct HealthState {
    inner: parking_lot::Mutex<RuntimeHealth>,
    stalls: parking_lot::Mutex<Vec<StallWarning>>,
}

impl HealthState {
    /// A healthy cell.
    pub fn new() -> HealthState {
        HealthState::default()
    }

    /// The current health.
    pub fn get(&self) -> RuntimeHealth {
        self.inner.lock().clone()
    }

    /// True when no failure has been recorded.
    pub fn is_healthy(&self) -> bool {
        self.inner.lock().is_healthy()
    }

    /// Record a stage failure (first failure wins).
    pub fn record(&self, stage: &str, reason: impl Into<String>) {
        let mut h = self.inner.lock();
        if h.is_healthy() {
            *h = RuntimeHealth::Failed(StageFailure {
                stage: stage.to_string(),
                reason: reason.into(),
            });
        }
    }

    /// Record a stall warning for `stage` (one warning per stage; repeats
    /// are dropped). Does not change [`RuntimeHealth`].
    pub fn record_stall(&self, stage: &str, idle_quanta: u64) {
        let mut stalls = self.stalls.lock();
        if stalls.iter().all(|s| s.stage != stage) {
            stalls.push(StallWarning { stage: stage.to_string(), idle_quanta });
        }
    }

    /// Stall warnings recorded so far, in detection order.
    pub fn stalls(&self) -> Vec<StallWarning> {
        self.stalls.lock().clone()
    }

    /// Map a recorded failure to an [`Error`], for callers that need a
    /// `Result` out of a scheduler run.
    pub fn to_result(&self) -> Result<()> {
        match self.get() {
            RuntimeHealth::Healthy => Ok(()),
            RuntimeHealth::Failed(f) => {
                Err(Error::StageFailed { stage: f.stage, reason: f.reason })
            }
        }
    }
}

fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Runtime (registration + wiring)
// ---------------------------------------------------------------------------

/// Handle to a registered stage, used for wake wiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageId(usize);

struct StageEntry {
    stage: Arc<dyn Stage>,
    token: WakeToken,
    metrics: Arc<StageRuntimeMetrics>,
    health: Arc<HealthState>,
    /// The runtime-wide cell; failures are recorded in both (first wins in
    /// each), so a cluster-spanning runtime sees per-side and global health.
    global_health: Arc<HealthState>,
    /// Tokens woken whenever this stage reports `Progress`.
    downstream: Vec<WakeToken>,
    /// Cleared once the stage reports `Shutdown`.
    live: bool,
    /// Consecutive idle quanta with input pending (stall detection).
    idle_streak: u64,
}

impl StageEntry {
    /// Run one quantum of the stage — the body both schedulers share: time
    /// it, record an error or panic in both health cells, and flag a stall
    /// once the stage has idled [`STALL_IDLE_QUANTA`] quanta in a row with
    /// input pending.
    fn run_quantum(&mut self) -> StepOutcome {
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.stage.run_once()));
        self.metrics.runs.inc();
        self.metrics.run_quantum_us.record(t0.elapsed());
        let name = self.stage.name();
        let failure = match outcome {
            Err(payload) => panic_reason(payload),
            Ok(Err(e)) => e.to_string(),
            Ok(Ok(StageOutcome::Progress)) => {
                self.idle_streak = 0;
                return StepOutcome::Progress;
            }
            Ok(Ok(StageOutcome::Idle)) => {
                if self.stage.input_pending() == Some(true) {
                    self.idle_streak += 1;
                    if self.idle_streak == STALL_IDLE_QUANTA {
                        self.health.record_stall(name, self.idle_streak);
                        self.global_health.record_stall(name, self.idle_streak);
                    }
                } else {
                    self.idle_streak = 0;
                }
                return StepOutcome::Idle;
            }
            Ok(Ok(StageOutcome::Shutdown)) => {
                self.live = false;
                return StepOutcome::Shutdown;
            }
        };
        self.health.record(name, failure.clone());
        self.global_health.record(name, failure);
        StepOutcome::Failed
    }
}

/// The stage registry: owns registration, wake wiring and the default
/// health cell, and converts into either scheduler.
pub struct Runtime {
    entries: Vec<StageEntry>,
    health: Arc<HealthState>,
    stop: Arc<AtomicBool>,
}

impl Runtime {
    /// A runtime recording failures into a fresh health cell by default.
    /// Individual stages may override via [`Runtime::register_with_health`]
    /// — a cluster-wide runtime routes each side's failures to that side's
    /// registry.
    pub fn new() -> Runtime {
        Runtime {
            entries: Vec::new(),
            health: Arc::new(HealthState::new()),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The default health cell.
    pub fn health(&self) -> Arc<HealthState> {
        self.health.clone()
    }

    /// Register a stage reporting scheduler metrics into `metrics`.
    pub fn register(
        &mut self,
        stage: Arc<dyn Stage>,
        metrics: Arc<StageRuntimeMetrics>,
    ) -> StageId {
        let health = self.health.clone();
        self.register_with_health(stage, metrics, health)
    }

    /// Register a stage with an explicit failure sink.
    pub fn register_with_health(
        &mut self,
        stage: Arc<dyn Stage>,
        metrics: Arc<StageRuntimeMetrics>,
        health: Arc<HealthState>,
    ) -> StageId {
        self.entries.push(StageEntry {
            stage,
            token: WakeToken::new(),
            metrics,
            health,
            global_health: self.health.clone(),
            downstream: Vec::new(),
            live: true,
            idle_streak: 0,
        });
        StageId(self.entries.len() - 1)
    }

    /// The wake token of a registered stage — hand it to producers outside
    /// the runtime (a log buffer, a transport sender) so appends wake the
    /// consumer.
    pub fn wake_token(&self, id: StageId) -> WakeToken {
        self.entries[id.0].token.clone()
    }

    /// Wire a producer→consumer edge: every `Progress` quantum of `from`
    /// wakes `to`.
    pub fn wire(&mut self, from: StageId, to: StageId) {
        let token = self.entries[to.0].token.clone();
        self.wire_token(from, token);
    }

    /// Wire a producer to an arbitrary wake token (cross-runtime edges).
    pub fn wire_token(&mut self, from: StageId, token: WakeToken) {
        self.entries[from.0].downstream.push(token);
    }

    /// Spawn one scheduler thread per stage (threaded deployments).
    pub fn start_threaded(self) -> ThreadedRuntime {
        let stop = self.stop.clone();
        let all_tokens: Vec<WakeToken> = self.entries.iter().map(|e| e.token.clone()).collect();
        let health = self.health.clone();
        let mut handles = Vec::with_capacity(self.entries.len());
        for entry in self.entries {
            let stop = stop.clone();
            let tokens = all_tokens.clone();
            let name = entry.stage.name().to_string();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("imadg-{name}"))
                    .spawn(move || stage_loop(entry, stop, tokens))
                    .expect("spawn stage thread"),
            );
        }
        ThreadedRuntime { stop, tokens: all_tokens, handles, health }
    }

    /// Convert into a deterministic single-thread scheduler seeded with
    /// `seed` (step deployments, interleaving tests).
    pub fn into_step(self, seed: u64) -> StepScheduler {
        StepScheduler {
            entries: self.entries,
            rng: SplitMix64::new(seed),
            health: self.health,
            stopped: false,
        }
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new()
    }
}

// ---------------------------------------------------------------------------
// Threaded scheduler
// ---------------------------------------------------------------------------

/// Progress quanta allowed per stage between a stop signal and thread
/// exit — a backstop so a pathological always-progressing stage cannot
/// hang shutdown while still letting normal stages drain their queues.
const DRAIN_QUANTA: usize = 100_000;

fn stage_loop(mut entry: StageEntry, stop: Arc<AtomicBool>, all_tokens: Vec<WakeToken>) {
    let mut drain_budget = DRAIN_QUANTA;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        match entry.run_quantum() {
            StepOutcome::Failed => {
                stop_all(&stop, &all_tokens);
                break;
            }
            StepOutcome::Shutdown => break,
            StepOutcome::Progress => {
                for t in &entry.downstream {
                    t.wake();
                }
                if stopping {
                    drain_budget -= 1;
                    if drain_budget == 0 {
                        break;
                    }
                    continue;
                }
                if let Some(pause) = entry.stage.throttle() {
                    park(&entry, pause);
                }
            }
            StepOutcome::Idle => {
                if stopping {
                    // Drained: queue empty at stop time — graceful exit.
                    break;
                }
                park(&entry, entry.stage.park_hint());
            }
        }
    }
}

fn park(entry: &StageEntry, timeout: Duration) {
    let p0 = Instant::now();
    let woken = entry.token.park(timeout);
    entry.metrics.parks.inc();
    entry.metrics.park_us.record(p0.elapsed());
    if woken {
        entry.metrics.wakeups.inc();
    }
}

fn stop_all(stop: &AtomicBool, tokens: &[WakeToken]) {
    stop.store(true, Ordering::Release);
    for t in tokens {
        t.wake();
    }
}

/// Guard over a running threaded deployment. Dropping it performs the
/// drain-then-stop shutdown: every stage finishes its queue (first `Idle`
/// after the stop signal) before its thread exits.
pub struct ThreadedRuntime {
    stop: Arc<AtomicBool>,
    tokens: Vec<WakeToken>,
    handles: Vec<JoinHandle<()>>,
    health: Arc<HealthState>,
}

impl ThreadedRuntime {
    /// Current pipeline health.
    pub fn health(&self) -> RuntimeHealth {
        self.health.get()
    }

    /// Signal stop, drain every stage, join all threads, and return the
    /// final health.
    pub fn shutdown(mut self) -> RuntimeHealth {
        self.stop_and_join();
        self.health.get()
    }

    /// Wait for every stage to finish naturally (all stages reach
    /// [`StageOutcome::Shutdown`], or a failure stops the pipeline).
    /// Used by finite workloads whose stages carry their own deadline.
    pub fn join(mut self) -> RuntimeHealth {
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.health.get()
    }

    fn stop_and_join(&mut self) {
        stop_all(&self.stop, &self.tokens);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ThreadedRuntime {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// ---------------------------------------------------------------------------
// Step scheduler
// ---------------------------------------------------------------------------

/// Deterministic PRNG (splitmix64) choosing the step interleaving. Kept
/// dependency-free so `imadg-common` stays at the bottom of the graph.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// What one [`StepScheduler::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// The stage that ran.
    pub stage: String,
    /// Its outcome.
    pub outcome: StepOutcome,
}

/// Outcome of a scheduler step (adds `Failed` to [`StageOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The stage made progress.
    Progress,
    /// The stage had nothing to do.
    Idle,
    /// The stage finished its lifetime and was descheduled.
    Shutdown,
    /// The stage failed (error or panic); the pipeline is stopped and the
    /// failure is recorded in the health state.
    Failed,
}

/// Deterministic single-thread scheduler: each [`StepScheduler::step`]
/// picks one live stage from the seeded RNG and runs one quantum on the
/// caller's thread. The seed chooses the interleaving, so the same seed
/// replays the same schedule bit-for-bit. The fixed-order
/// `MediaRecovery::pump()` drivers remain beside it for `sync()` and for
/// tests that apply without populating.
pub struct StepScheduler {
    entries: Vec<StageEntry>,
    rng: SplitMix64,
    health: Arc<HealthState>,
    stopped: bool,
}

impl StepScheduler {
    /// Current pipeline health.
    pub fn health(&self) -> RuntimeHealth {
        self.health.get()
    }

    /// True once a failure stopped the pipeline or every stage shut down.
    pub fn is_stopped(&self) -> bool {
        self.stopped || self.entries.iter().all(|e| !e.live)
    }

    /// Run one quantum of one RNG-chosen live stage. `None` when the
    /// scheduler is stopped or no live stages remain.
    pub fn step(&mut self) -> Option<StepReport> {
        if self.stopped {
            return None;
        }
        let live: Vec<usize> = (0..self.entries.len()).filter(|&i| self.entries[i].live).collect();
        if live.is_empty() {
            return None;
        }
        let pick = live[(self.rng.next() % live.len() as u64) as usize];
        let outcome = self.run_entry(pick);
        Some(StepReport { stage: self.entries[pick].stage.name().to_string(), outcome })
    }

    /// Run `n` steps; returns how many made progress.
    pub fn step_n(&mut self, n: usize) -> usize {
        let mut progressed = 0;
        for _ in 0..n {
            match self.step() {
                Some(r) if r.outcome == StepOutcome::Progress => progressed += 1,
                Some(_) => {}
                None => break,
            }
        }
        progressed
    }

    /// Drive every stage to a fixed point (the `pump_until_idle`
    /// generalization): sweep stages in registration order, re-running each
    /// until idle, until a full sweep makes no progress. Fails fast on the
    /// first stage error/panic.
    pub fn drain(&mut self) -> Result<()> {
        loop {
            if self.stopped {
                return self.health.to_result();
            }
            let mut any = false;
            for i in 0..self.entries.len() {
                while self.entries[i].live {
                    match self.run_entry(i) {
                        StepOutcome::Progress => any = true,
                        StepOutcome::Idle | StepOutcome::Shutdown => break,
                        StepOutcome::Failed => return self.health.to_result(),
                    }
                }
            }
            if !any {
                return Ok(());
            }
        }
    }

    fn run_entry(&mut self, i: usize) -> StepOutcome {
        let outcome = self.entries[i].run_quantum();
        self.stopped |= outcome == StepOutcome::Failed;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StageRuntimeMetrics;
    use std::sync::atomic::AtomicUsize;

    /// A stage that moves items from an input budget to an output counter.
    struct Producer {
        budget: AtomicUsize,
        out: Arc<AtomicUsize>,
    }

    impl Stage for Producer {
        fn name(&self) -> &str {
            "producer"
        }

        fn run_once(&self) -> Result<StageOutcome> {
            let left = self.budget.load(Ordering::Relaxed);
            if left == 0 {
                return Ok(StageOutcome::Idle);
            }
            self.budget.store(left - 1, Ordering::Relaxed);
            self.out.fetch_add(1, Ordering::Relaxed);
            Ok(StageOutcome::Progress)
        }
    }

    /// A stage that consumes whatever the producer made.
    struct Consumer {
        input: Arc<AtomicUsize>,
        seen: Arc<AtomicUsize>,
    }

    impl Stage for Consumer {
        fn name(&self) -> &str {
            "consumer"
        }

        fn run_once(&self) -> Result<StageOutcome> {
            let avail = self.input.load(Ordering::Relaxed);
            let seen = self.seen.load(Ordering::Relaxed);
            if seen >= avail {
                return Ok(StageOutcome::Idle);
            }
            self.seen.store(seen + 1, Ordering::Relaxed);
            Ok(StageOutcome::Progress)
        }
    }

    struct FailingStage;
    impl Stage for FailingStage {
        fn name(&self) -> &str {
            "boom"
        }
        fn run_once(&self) -> Result<StageOutcome> {
            Err(Error::TransportClosed)
        }
    }

    struct PanickingStage;
    impl Stage for PanickingStage {
        fn name(&self) -> &str {
            "kaboom"
        }
        fn run_once(&self) -> Result<StageOutcome> {
            panic!("injected stage panic");
        }
    }

    fn wire_pair(n: usize) -> (Runtime, Arc<AtomicUsize>, Arc<AtomicUsize>) {
        let made = Arc::new(AtomicUsize::new(0));
        let seen = Arc::new(AtomicUsize::new(0));
        let mut rt = Runtime::new();
        let p = rt.register(
            Arc::new(Producer { budget: AtomicUsize::new(n), out: made.clone() }),
            Arc::new(StageRuntimeMetrics::default()),
        );
        let c = rt.register(
            Arc::new(Consumer { input: made.clone(), seen: seen.clone() }),
            Arc::new(StageRuntimeMetrics::default()),
        );
        rt.wire(p, c);
        (rt, made, seen)
    }

    #[test]
    fn threaded_producer_wakes_consumer_and_drains_on_shutdown() {
        let (rt, made, seen) = wire_pair(500);
        let threads = rt.start_threaded();
        let deadline = Instant::now() + Duration::from_secs(10);
        while seen.load(Ordering::Relaxed) < 500 {
            assert!(Instant::now() < deadline, "consumer never caught up");
            std::thread::yield_now();
        }
        let health = threads.shutdown();
        assert_eq!(health, RuntimeHealth::Healthy);
        assert_eq!(made.load(Ordering::Relaxed), 500);
        assert_eq!(seen.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn threaded_error_trips_health_and_stops() {
        let mut rt = Runtime::new();
        rt.register(Arc::new(FailingStage), Arc::new(StageRuntimeMetrics::default()));
        let threads = rt.start_threaded();
        let deadline = Instant::now() + Duration::from_secs(10);
        while threads.health().is_healthy() {
            assert!(Instant::now() < deadline, "failure never surfaced");
            std::thread::yield_now();
        }
        let health = threads.shutdown();
        let failure = health.failure().expect("failure recorded");
        assert_eq!(failure.stage, "boom");
        assert!(failure.reason.contains("transport closed"), "reason: {}", failure.reason);
    }

    #[test]
    fn threaded_panic_is_captured_not_detached() {
        let mut rt = Runtime::new();
        rt.register(Arc::new(PanickingStage), Arc::new(StageRuntimeMetrics::default()));
        let health = rt.start_threaded().shutdown();
        let failure = health.failure().expect("panic recorded");
        assert_eq!(failure.stage, "kaboom");
        assert!(failure.reason.contains("injected stage panic"));
    }

    #[test]
    fn step_scheduler_is_deterministic_per_seed() {
        let trace = |seed: u64| -> Vec<String> {
            let (rt, _, _) = wire_pair(20);
            let mut step = rt.into_step(seed);
            let mut names = Vec::new();
            for _ in 0..200 {
                match step.step() {
                    Some(r) => names.push(format!("{}:{:?}", r.stage, r.outcome)),
                    None => break,
                }
            }
            names
        };
        assert_eq!(trace(7), trace(7), "same seed, same interleaving");
        assert_ne!(trace(7), trace(8), "different seed, different interleaving");
    }

    #[test]
    fn step_drain_reaches_fixed_point() {
        let (rt, made, seen) = wire_pair(64);
        let mut step = rt.into_step(1);
        step.drain().unwrap();
        assert_eq!(made.load(Ordering::Relaxed), 64);
        assert_eq!(seen.load(Ordering::Relaxed), 64);
        assert!(step.health().is_healthy());
    }

    #[test]
    fn step_failure_stops_within_one_step() {
        let mut rt = Runtime::new();
        rt.register(Arc::new(FailingStage), Arc::new(StageRuntimeMetrics::default()));
        let mut step = rt.into_step(3);
        let r = step.step().unwrap();
        assert_eq!(r.outcome, StepOutcome::Failed);
        assert!(!step.health().is_healthy(), "failure visible after the step that hit it");
        assert_eq!(step.step(), None, "pipeline stopped deterministically");
        assert!(!step.health().is_healthy());
    }

    #[test]
    fn step_shutdown_deschedules_stage() {
        struct OneShot(AtomicUsize);
        impl Stage for OneShot {
            fn name(&self) -> &str {
                "oneshot"
            }
            fn run_once(&self) -> Result<StageOutcome> {
                Ok(if self.0.fetch_add(1, Ordering::Relaxed) == 0 {
                    StageOutcome::Progress
                } else {
                    StageOutcome::Shutdown
                })
            }
        }
        let mut rt = Runtime::new();
        rt.register(Arc::new(OneShot(AtomicUsize::new(0))), Arc::default());
        let mut step = rt.into_step(5);
        assert_eq!(step.step().unwrap().outcome, StepOutcome::Progress);
        assert_eq!(step.step().unwrap().outcome, StepOutcome::Shutdown);
        assert_eq!(step.step(), None, "no live stages remain");
        assert!(step.is_stopped());
    }

    /// A stage whose input queue always reports pending work it never
    /// consumes — the wedged-consumer shape stall detection exists for.
    struct WedgedStage;
    impl Stage for WedgedStage {
        fn name(&self) -> &str {
            "wedged"
        }
        fn run_once(&self) -> Result<StageOutcome> {
            Ok(StageOutcome::Idle)
        }
        fn input_pending(&self) -> Option<bool> {
            Some(true)
        }
    }

    #[test]
    fn stall_warning_fires_once_after_threshold() {
        let mut rt = Runtime::new();
        rt.register(Arc::new(WedgedStage), Arc::default());
        let health = rt.health();
        let mut step = rt.into_step(11);
        for _ in 0..STALL_IDLE_QUANTA - 1 {
            step.step();
        }
        assert!(health.stalls().is_empty(), "below threshold: no warning");
        step.step_n(3 * STALL_IDLE_QUANTA as usize);
        let stalls = health.stalls();
        assert_eq!(stalls.len(), 1, "one-shot per stage");
        assert_eq!(stalls[0].stage, "wedged");
        assert_eq!(stalls[0].idle_quanta, STALL_IDLE_QUANTA);
        assert!(health.is_healthy(), "a stall is a warning, not a failure");
    }

    #[test]
    fn idle_without_pending_input_never_stalls() {
        let (rt, _, _) = wire_pair(4);
        let health = rt.health();
        let mut step = rt.into_step(2);
        step.step_n(4 * STALL_IDLE_QUANTA as usize);
        assert!(health.stalls().is_empty(), "default input_pending opts out");
    }

    #[test]
    fn wake_token_latches_missed_wakes() {
        let t = WakeToken::new();
        t.wake();
        assert!(t.park(Duration::from_secs(5)), "latched wake consumed without blocking");
        assert!(!t.park(Duration::from_millis(1)), "no pending wake: timeout");
    }
}
