//! The deployment every workload runs on, and its timed set-up: one
//! primary, one standby, `LinkMode::Framed`, the 101-column wide table
//! placed `StandbyOnly`, DBIM-on-ADG on, the threaded runtime.

use std::path::PathBuf;
use std::sync::atomic::AtomicI64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use imadg_common::{LinkMode, ObjectId, Scn};
use imadg_db::{
    AdgCluster, ClusterThreads, NodeBuilder, Placement, PrimaryInstance, Schema, StandbyCluster,
};
use imadg_workload::{load_wide_table, wide_schema, wide_table_spec};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The wide table's object id.
pub const WIDE: ObjectId = ObjectId(101);
/// Thousands of rows per in-memory unit at the default `ImcsConfig`.
pub const KROWS_PER_UNIT: f64 = 2.048;
/// Rows per block, as in the repository's experiments (wide rows).
const ROWS_PER_BLOCK: u16 = 64;
/// No wait in the benchmark may outlast this (a run must exit within 180 s).
const WAIT_LIMIT: Duration = Duration::from_secs(100);

/// The frozen sizes. `full()` is what `BENCHMARK.json` measures; `smoke()`
/// only proves the harness end to end.
#[derive(Debug, Clone)]
pub struct Scale {
    pub rows: usize,
    /// Offered open-loop rate of `oltap_mixed`, ops/s over both clients.
    pub oltap_rate: f64,
    /// Rate of the single-client freshness probe, updates/s.
    pub probe_rate: f64,
    /// Length of the freshness and scan probes that follow a window, s.
    pub probe_secs: f64,
    /// `catchup` backlog per `--seconds`: single-column updates and inserts.
    pub backlog_updates_per_s: usize,
    pub backlog_inserts_per_s: usize,
    /// `restart`: updates synced before the crash, per `--seconds`.
    pub restart_updates_per_s: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            rows: 200_000,
            oltap_rate: 2_000.0,
            probe_rate: 2_000.0,
            probe_secs: 3.0,
            backlog_updates_per_s: 10_000,
            backlog_inserts_per_s: 1_000,
            restart_updates_per_s: 2_000,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            rows: 5_000,
            probe_secs: 0.3,
            backlog_updates_per_s: 4_000,
            backlog_inserts_per_s: 400,
            ..Scale::full()
        }
    }
}

/// Poll `done` until it holds. Polling sleeps, so the waiter costs the two
/// cores next to nothing.
pub fn wait_until(what: &str, mut done: impl FnMut() -> bool) -> Res<Duration> {
    let started = Instant::now();
    while !done() {
        if started.elapsed() > WAIT_LIMIT {
            return Err(format!("timed out after {WAIT_LIMIT:?} waiting for {what}").into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(started.elapsed())
}

pub struct Deployment {
    pub cluster: Arc<AdgCluster>,
    pub schema: Schema,
    /// Rows loaded in set-up: keys `0..rows`.
    pub rows: usize,
    /// Next identity key an insert takes.
    pub next_key: AtomicI64,
    pub setup_s: f64,
    /// Redo records of the load and the seconds the standby took to apply
    /// them once the runtime started.
    pub first_catchup: (u64, f64),
    threads: Option<ClusterThreads>,
    durable_dir: Option<PathBuf>,
}

impl Deployment {
    /// Build, load `rows` wide rows drawn from `seed`, ship, apply and
    /// populate: everything before a window. Timed as `setup_s`.
    pub fn set_up(rows: usize, seed: u64, durable: bool, dbim_on_adg: bool) -> Res<Deployment> {
        let started = Instant::now();
        let mut builder = NodeBuilder::new().dbim_on_adg(dbim_on_adg).link(LinkMode::Framed);
        let durable_dir =
            durable.then(|| out_dir().join(format!("durable-{}", std::process::id())));
        if let Some(dir) = &durable_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir)?;
            builder = builder.durability(dir.to_string_lossy());
        }
        let cluster = builder.build()?;
        cluster.create_table(wide_table_spec(WIDE, ROWS_PER_BLOCK))?;
        cluster.set_placement(WIDE, Placement::StandbyOnly)?;
        let mut dep = Deployment {
            cluster,
            schema: wide_schema(),
            rows,
            next_key: AtomicI64::new(rows as i64),
            setup_s: 0.0,
            first_catchup: (0, 0.0),
            threads: None,
            durable_dir,
        };
        // Loaded with the runtime stopped: the standby's first catch-up is
        // then the longest drain at saturation a run has, and it costs no
        // phase of its own.
        load_wide_table(&dep.cluster, WIDE, rows, seed)?;
        let loaded = started.elapsed();
        dep.start();
        dep.wait_caught_up()?;
        dep.first_catchup =
            (dep.primary().log_stats().records, (started.elapsed() - loaded).as_secs_f64());
        if dbim_on_adg {
            dep.wait_population_idle()?;
            if dep.populated_rows() < rows / 2 {
                return Err(
                    format!("only {} of {rows} rows populated", dep.populated_rows()).into()
                );
            }
        }
        dep.setup_s = started.elapsed().as_secs_f64();
        Ok(dep)
    }

    pub fn primary(&self) -> Arc<PrimaryInstance> {
        self.cluster.primary()
    }

    /// Fetched on every use: a crash restart replaces the standby.
    pub fn standby(&self) -> Arc<StandbyCluster> {
        self.cluster.standby()
    }

    /// Start the threaded runtime (shipper, recovery, population stages).
    pub fn start(&mut self) {
        if self.threads.is_none() {
            self.threads = Some(self.cluster.start());
        }
    }

    /// Drain and join the runtime's threads; fails if a stage had failed.
    pub fn stop(&mut self) -> Res<()> {
        if let Some(threads) = self.threads.take() {
            let health = threads.shutdown();
            if let Some(f) = health.failure() {
                return Err(format!("stage {} failed: {}", f.stage, f.reason).into());
            }
        }
        Ok(())
    }

    pub fn query_scn(&self) -> Scn {
        self.standby().current_query_scn().unwrap_or(Scn::ZERO)
    }

    /// Whether the standby publishes everything committed so far and no
    /// frame is in flight or unacknowledged.
    pub fn caught_up_to(&self, target: Scn) -> bool {
        self.query_scn() >= target
            && !self.primary().transport_pending()
            && !self.standby().recovery.transport_pending()
    }

    /// Wait (threaded runtime) until the standby has caught up with every
    /// commit made before the call.
    pub fn wait_caught_up(&self) -> Res<Duration> {
        let target = self.primary().current_scn();
        wait_until("the standby to catch up", || self.caught_up_to(target))
    }

    pub fn populated_rows(&self) -> usize {
        self.standby().instances().iter().map(|i| i.imcs.populated_rows()).sum()
    }

    /// Wait (threaded runtime) until population has nothing left to build.
    /// Call once the standby has caught up: every block then exists, so two
    /// further passes that build nothing mean every block is covered. (Row
    /// counts are no criterion: a unit built while its last block was still
    /// filling keeps the later rows in its SMU until the engine's own
    /// repopulation thresholds trip, which they may never do.)
    pub fn wait_population_idle(&self) -> Res<Duration> {
        let progress = || {
            let p = self.standby().metrics().population;
            (p.imcus_built + p.imcus_repopulated, p.passes)
        };
        let mut last = progress();
        wait_until("population to go idle", || {
            std::thread::sleep(Duration::from_millis(1));
            let now = progress();
            if now.0 != last.0 {
                last = now;
            }
            now.1 >= last.1 + 2
        })
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        // Join the threads before the directory under them goes away.
        self.threads.take();
        if let Some(dir) = &self.durable_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Where the benchmark writes: traces and the durable deployment's files,
/// inside its own directory in the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}
