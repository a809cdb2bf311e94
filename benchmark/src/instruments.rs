//! The three instruments every run is measured with, each around public
//! calls of the program only:
//!
//! * a closed-loop **scan loop** on the standby (Q1, Q2, Q1 at degree 2,
//!   pushed-down `SUM`),
//! * an **open loop** of primary DML and standby scans that times every
//!   operation from its due time and reads commit-to-queryable staleness
//!   from the program's own histogram,
//! * a **drain**: a backlog committed with the pipeline stopped, then
//!   applied at saturation (threaded, or stepped on one thread under spans).
//!
//! A workload gives one instrument its window; the others follow as short
//! probes so that every run reports every end-to-end metric.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

use imadg_common::metrics::StalenessSnapshot;
use imadg_common::{Error, Scn, TenantId};
use imadg_db::{AdgCluster, CmpOp, Filter, Predicate, QueryOutput, QueryRequest, Schema, Value};
use imadg_workload::oltap::{NUM_DOMAIN, STR_DOMAIN};
use imadg_workload::{generate_row, q1, q2, OpMix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::deploy::{wait_until, Deployment, Res, WIDE};
use crate::hist::{window, Window};
use crate::pacer::{run_paced, Sample, Schedule, Wall};
use crate::trace::{Span, Tracer};

// ---------------------------------------------------------------------------
// Scan loop
// ---------------------------------------------------------------------------

/// The fixed query list of the scan loop, in cycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    /// `n1 = :v` — FoR-packed integer kernel.
    Q1,
    /// `c1 = :v` — dictionary kernel.
    Q2,
    /// Q1 with `.parallel(2)`.
    Q1D2,
    /// `SUM(n2) WHERE n1 < :k` — aggregation push-down.
    Agg,
}

pub const SHAPES: [Shape; 4] = [Shape::Q1, Shape::Q2, Shape::Q1D2, Shape::Agg];
/// Binds per shape; the loop cycles through them.
pub const BINDS: usize = 8;

/// Bind values drawn from the run's seed.
#[derive(Debug, Clone)]
pub struct Binds {
    q1: Vec<i64>,
    q2: Vec<i64>,
    agg: Vec<i64>,
}

impl Binds {
    pub fn from_seed(seed: u64) -> Binds {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB1D5);
        Binds {
            q1: (0..BINDS).map(|_| rng.gen_range(0..NUM_DOMAIN)).collect(),
            q2: (0..BINDS).map(|_| rng.gen_range(0..STR_DOMAIN)).collect(),
            // Selectivity between 10 % and 90 % of the table.
            agg: (0..BINDS).map(|_| rng.gen_range(NUM_DOMAIN / 10..NUM_DOMAIN * 9 / 10)).collect(),
        }
    }

    pub fn request(&self, schema: &Schema, shape: Shape, bind: usize) -> Res<QueryRequest> {
        let scan = QueryRequest::scan(WIDE);
        Ok(match shape {
            Shape::Q1 => scan.filter(q1(schema, self.q1[bind])?),
            Shape::Q2 => scan.filter(q2(schema, self.q2[bind])?),
            Shape::Q1D2 => scan.filter(q1(schema, self.q1[bind])?).parallel(2),
            Shape::Agg => {
                let k = Value::Int(self.agg[bind]);
                scan.filter(Filter::of(Predicate::new(schema, "n1", CmpOp::Lt, k)?)).aggregate("n2")
            }
        })
    }
}

/// What a query answered, reduced to what two engines must agree on: the
/// row count and the sum of the identity column (or `COUNT`, `SUM`).
pub type Answer = (u64, i128);

pub fn answer(out: &QueryOutput) -> Answer {
    match &out.aggregate {
        Some(agg) => (agg.aggs.count, agg.aggs.sum),
        None => (
            out.rows.len() as u64,
            out.rows.iter().map(|r| i128::from(r.get(0).as_int().unwrap_or(0))).sum(),
        ),
    }
}

/// Sums over the profiled queries of a loop (`QueryRequest::profile()`).
#[derive(Debug, Default, Clone)]
pub struct ProfileSums {
    pub queries: u64,
    pub prune_us: u64,
    pub kernel_us: u64,
    pub merge_us: u64,
    pub fallback_us: u64,
    /// Wall and attributed phase time of the serial queries only: at
    /// degree 2 the phases of two tasks overlap and exceed the wall time.
    pub serial_queries: u64,
    pub serial_wall_us: f64,
    pub serial_attributed_us: u64,
    /// Task skew (slowest task over mean) of the degree-2 queries.
    pub skew_sum: f64,
    pub skew_queries: u64,
    pub pruned_units: u64,
    pub units: u64,
    pub fallback_rows: u64,
    pub result_rows: u64,
}

impl ProfileSums {
    pub fn absorb(&mut self, out: &QueryOutput, wall: Duration) {
        let Some(p) = &out.profile else { return };
        self.queries += 1;
        self.prune_us += p.pruning_us;
        self.kernel_us += p.kernel_us;
        self.merge_us += p.merge_us;
        self.fallback_us += p.fallback_us + p.uncovered_us;
        if p.parallel_degree > 1 {
            self.skew_sum += p.task_skew();
            self.skew_queries += 1;
        } else {
            self.serial_queries += 1;
            self.serial_wall_us += wall.as_secs_f64() * 1e6;
            self.serial_attributed_us += p.attributed_us();
        }
        self.units += p.tasks.len() as u64;
        self.pruned_units += p.tasks.iter().filter(|t| t.pruned || t.cold_pruned).count() as u64;
        if let Some(s) = &out.stats {
            self.fallback_rows += (s.fallback_rows + s.uncovered_rows) as u64;
            self.result_rows += s.total() as u64;
        }
    }

    pub fn merge(&mut self, o: &ProfileSums) {
        self.queries += o.queries;
        self.prune_us += o.prune_us;
        self.kernel_us += o.kernel_us;
        self.merge_us += o.merge_us;
        self.fallback_us += o.fallback_us;
        self.serial_queries += o.serial_queries;
        self.serial_wall_us += o.serial_wall_us;
        self.serial_attributed_us += o.serial_attributed_us;
        self.skew_sum += o.skew_sum;
        self.skew_queries += o.skew_queries;
        self.pruned_units += o.pruned_units;
        self.units += o.units;
        self.fallback_rows += o.fallback_rows;
        self.result_rows += o.result_rows;
    }
}

#[derive(Debug, Default)]
pub struct ScanOut {
    /// Latency samples per shape, ms, in [`SHAPES`] order.
    pub lat_ms: [Vec<f64>; 4],
    pub elapsed_s: f64,
    pub queries: u64,
    /// Errors, refusals, and answers not served by the column store.
    pub failed: u64,
    /// The answer each `(shape, bind)` gave; `inconsistent` counts repeats
    /// of one query that disagreed (there is no DML beside a scan loop).
    pub answers: BTreeMap<(Shape, usize), Answer>,
    pub inconsistent: u64,
    pub profile: ProfileSums,
}

/// Cycle the fixed query list on the standby, one query at a time, for at
/// least `secs` (whole cycles only, so every shape has the same sample
/// count). A tracing run profiles every query and records one span each.
pub fn scan_loop(dep: &Deployment, binds: &Binds, secs: f64, tracer: &mut Tracer) -> Res<ScanOut> {
    let standby = dep.standby();
    let mut out = ScanOut::default();
    let started = Instant::now();
    let mut cycle = 0usize;
    while started.elapsed().as_secs_f64() < secs {
        let bind = cycle % BINDS;
        for (slot, shape) in SHAPES.into_iter().enumerate() {
            let mut req = binds.request(&dep.schema, shape, bind)?;
            if tracer.enabled() {
                req = req.profile();
            }
            let t = Instant::now();
            let result = tracer.span("db.query", None, out.queries, |_, _| standby.query(&req));
            let wall = t.elapsed();
            out.queries += 1;
            match result {
                Ok(q) if q.used_imcs => {
                    out.lat_ms[slot].push(wall.as_secs_f64() * 1e3);
                    out.profile.absorb(&q, wall);
                    let got = answer(&q);
                    if *out.answers.entry((shape, bind)).or_insert(got) != got {
                        out.inconsistent += 1;
                    }
                }
                _ => out.failed += 1,
            }
        }
        cycle += 1;
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    Ok(out)
}

/// The row-store answers of the primary at `scn` (the table is placed
/// `StandbyOnly`, so the primary has no column store to answer from).
pub fn reference_answers(
    dep: &Deployment,
    binds: &Binds,
    scn: Scn,
) -> Res<BTreeMap<(Shape, usize), Answer>> {
    let primary = dep.primary();
    let mut reference = BTreeMap::new();
    for shape in [Shape::Q1, Shape::Q2, Shape::Agg] {
        for bind in 0..BINDS {
            let out = primary.query(&binds.request(&dep.schema, shape, bind)?.at(scn))?;
            if out.used_imcs {
                return Err("the reference must come from the row store".into());
            }
            reference.insert((shape, bind), answer(&out));
            if shape == Shape::Q1 {
                reference.insert((Shape::Q1D2, bind), answer(&out));
            }
        }
    }
    Ok(reference)
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Update,
    Insert,
    Fetch,
    Q1,
    Q2,
}

impl OpKind {
    pub fn is_scan(self) -> bool {
        matches!(self, OpKind::Q1 | OpKind::Q2)
    }

    fn span_name(self) -> &'static str {
        match self {
            OpKind::Update => "txn.update_one",
            OpKind::Insert => "txn.insert_one",
            OpKind::Fetch => "storage.fetch_by_key",
            OpKind::Q1 | OpKind::Q2 => "db.query",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: OpKind,
    /// `false`: a `WriteConflict`, a `NoQueryScn` refusal or any `Err`.
    pub ok: bool,
}

#[derive(Debug, Clone)]
pub struct OpenLoop {
    /// Offered rate over all clients, ops/s.
    pub rate: f64,
    pub clients: usize,
    /// Issued but not measured.
    pub warmup: Duration,
    pub window: Duration,
    pub mix: OpMix,
    pub seed: u64,
}

/// Commit-to-queryable staleness and the residency of commits in each
/// pipeline stage, over the window only.
#[derive(Debug, Default, Clone)]
pub struct StageWindows {
    pub ship: Window,
    pub receive: Window,
    pub merge: Window,
    pub apply: Window,
    pub flush: Window,
    pub publish: Window,
    pub e2e: Window,
}

impl StageWindows {
    fn between(
        primary: (&StalenessSnapshot, &StalenessSnapshot),
        standby: (&StalenessSnapshot, &StalenessSnapshot),
    ) -> StageWindows {
        StageWindows {
            // Generation → ship hand-off is stamped on the primary ...
            ship: window(&primary.0.ship, &primary.1.ship),
            // ... everything from receipt on, on the standby.
            receive: window(&standby.0.receive, &standby.1.receive),
            merge: window(&standby.0.merge, &standby.1.merge),
            apply: window(&standby.0.apply, &standby.1.apply),
            flush: window(&standby.0.flush, &standby.1.flush),
            publish: window(&standby.0.publish, &standby.1.publish),
            e2e: window(&standby.0.e2e, &standby.1.e2e),
        }
    }
}

#[derive(Debug, Default)]
pub struct OpenLoopOut {
    /// Every operation due inside the window, all clients.
    pub samples: Vec<Sample<Op>>,
    pub stages: StageWindows,
    pub conflicts: u64,
    pub scan_profile: ProfileSums,
    pub spans: Vec<Span>,
}

impl OpenLoopOut {
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.kind.ok).count() as u64
    }

    /// `time` of every successful update, insert and fetch, µs.
    pub fn dml_us(&self, time: impl Fn(&Sample<Op>) -> Duration) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind.ok && !s.kind.kind.is_scan())
            .map(|s| time(s).as_secs_f64() * 1e6)
            .collect()
    }
}

/// One client thread: what it needs of the deployment, and its own state.
struct Client<'a> {
    cluster: &'a AdgCluster,
    schema: &'a Schema,
    rows: usize,
    next_key: &'a AtomicI64,
    index: usize,
    clients: usize,
    mix: OpMix,
    rng: SmallRng,
    scan_flip: bool,
    tracer: Tracer,
    profile: ProfileSums,
    conflicts: u64,
}

impl Client<'_> {
    /// One operation of the mix. Clients update disjoint key sets (key mod
    /// clients), so no two ever contend for a row lock: a `WriteConflict`
    /// would be a failed operation, and the workload is built to have none.
    fn run(&mut self, op_id: u64) -> Op {
        use imadg_workload::OpKind as Mixed;
        let primary = self.cluster.primary();
        let rng = &mut self.rng;
        let kind = match self.mix.sample(rng) {
            Mixed::Update => OpKind::Update,
            Mixed::Insert => OpKind::Insert,
            Mixed::Fetch => OpKind::Fetch,
            Mixed::Scan => {
                self.scan_flip = !self.scan_flip;
                if self.scan_flip {
                    OpKind::Q1
                } else {
                    OpKind::Q2
                }
            }
        };
        let ok = match kind {
            OpKind::Update => {
                let own = rng.gen_range(0..self.rows / self.clients) * self.clients + self.index;
                let column = if rng.gen_range(0..2) == 0 { "n1" } else { "n2" };
                let value = Value::Int(rng.gen_range(0..NUM_DOMAIN));
                let r = self.tracer.span(kind.span_name(), None, op_id, |_, _| {
                    primary.update_one(WIDE, TenantId::DEFAULT, own as i64, column, value)
                });
                if matches!(r, Err(Error::WriteConflict { .. })) {
                    self.conflicts += 1;
                }
                r.is_ok()
            }
            OpKind::Insert => {
                let row = generate_row(self.next_key.fetch_add(1, Ordering::Relaxed), rng);
                self.tracer
                    .span(kind.span_name(), None, op_id, |_, _| {
                        primary.insert_one(WIDE, TenantId::DEFAULT, row)
                    })
                    .is_ok()
            }
            OpKind::Fetch => {
                let key = rng.gen_range(0..self.rows as i64);
                let r = self
                    .tracer
                    .span(kind.span_name(), None, op_id, |_, _| primary.fetch_by_key(WIDE, key));
                matches!(r, Ok(Some(_)))
            }
            OpKind::Q1 | OpKind::Q2 => {
                let filter = if kind == OpKind::Q1 {
                    q1(self.schema, rng.gen_range(0..NUM_DOMAIN))
                } else {
                    q2(self.schema, rng.gen_range(0..STR_DOMAIN))
                };
                let mut req = QueryRequest::scan(WIDE).filter(filter.expect("static column names"));
                if self.tracer.enabled() {
                    req = req.profile();
                }
                let standby = self.cluster.standby();
                let t = Instant::now();
                let r = self.tracer.span(kind.span_name(), None, op_id, |_, _| standby.query(&req));
                match r {
                    Ok(out) => {
                        self.profile.absorb(&out, t.elapsed());
                        true
                    }
                    Err(_) => false,
                }
            }
        };
        Op { kind, ok }
    }
}

/// Offer `cfg.rate` ops/s for warm-up plus window, then wait for the
/// standby to publish the last commit, so that the stage windows hold
/// exactly the window's commits.
pub fn open_loop(dep: &Deployment, cfg: &OpenLoop, trace: bool) -> Res<OpenLoopOut> {
    let epoch = Instant::now();
    let end = cfg.warmup + cfg.window;
    let interval = Duration::from_secs_f64(cfg.clients as f64 / cfg.rate);
    let mut out = OpenLoopOut::default();
    let snapshots =
        |dep: &Deployment| (dep.primary().metrics().staleness, dep.standby().metrics().staleness);

    let (before, clients) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|index| {
                let mut client = Client {
                    cluster: &dep.cluster,
                    schema: &dep.schema,
                    rows: dep.rows,
                    next_key: &dep.next_key,
                    index,
                    clients: cfg.clients,
                    mix: cfg.mix,
                    rng: SmallRng::seed_from_u64(cfg.seed.wrapping_add(index as u64 * 7919)),
                    scan_flip: index % 2 == 0,
                    tracer: Tracer::new(trace, epoch, (index as u64 + 1) << 40),
                    profile: ProfileSums::default(),
                    conflicts: 0,
                };
                // Clients interleave: client i is due i/rate after client 0.
                let schedule = Schedule {
                    first: interval.mul_f64(index as f64 / cfg.clients as f64),
                    interval,
                    end,
                };
                let stride = cfg.clients as u64;
                scope.spawn(move || {
                    let samples = run_paced(&Wall(epoch), schedule, |i| {
                        client.run(i * stride + index as u64)
                    });
                    (samples, client)
                })
            })
            .collect();
        // The window opens when the warm-up ends.
        std::thread::sleep(cfg.warmup.saturating_sub(epoch.elapsed()));
        let before = snapshots(dep);
        let clients: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (before, clients)
    });
    dep.wait_caught_up()?;
    let after = snapshots(dep);
    out.stages = StageWindows::between((&before.0, &after.0), (&before.1, &after.1));
    for (samples, client) in clients {
        out.samples.extend(samples.into_iter().filter(|s| s.due >= cfg.warmup));
        out.scan_profile.merge(&client.profile);
        out.conflicts += client.conflicts;
        out.spans.extend(client.tracer.into_spans());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Backlog and drain
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone, Copy)]
pub struct BacklogOut {
    pub ops: u64,
    pub failed: u64,
    /// Redo records the backlog generated on the primary.
    pub records: u64,
}

/// Commit `updates` single-column updates in 10-row transactions and
/// `inserts` inserts in 10-row transactions, interleaved, on the primary.
/// Call with the runtime stopped to build a backlog.
pub fn commit_backlog(
    dep: &Deployment,
    updates: usize,
    inserts: usize,
    rng: &mut SmallRng,
) -> Res<BacklogOut> {
    const PER_TXN: usize = 10;
    let primary = dep.primary();
    let before = primary.log_stats();
    let mut out = BacklogOut::default();
    let (mut updated, mut inserted) = (0usize, 0usize);
    while updated < updates || inserted < inserts {
        let mut tx = primary.txm.begin(TenantId::DEFAULT);
        // Keep the two kinds in proportion across the backlog.
        let insert_turn =
            inserted < inserts && (updated == updates || inserted * updates <= updated * inserts);
        for _ in 0..PER_TXN {
            let result = if insert_turn {
                if inserted == inserts {
                    break;
                }
                inserted += 1;
                let key = dep.next_key.fetch_add(1, Ordering::Relaxed);
                primary.txm.insert(&mut tx, WIDE, generate_row(key, rng)).map(|_| ())
            } else {
                if updated == updates {
                    break;
                }
                updated += 1;
                let key = rng.gen_range(0..dep.rows as i64);
                let column = if rng.gen_range(0..2) == 0 { "n1" } else { "n2" };
                let value = Value::Int(rng.gen_range(0..NUM_DOMAIN));
                primary.txm.update_column_by_key(&mut tx, WIDE, key, column, value).map(|_| ())
            };
            out.ops += 1;
            out.failed += u64::from(result.is_err());
        }
        primary.txm.commit(tx);
    }
    out.records = primary.log_stats().records - before.records;
    Ok(out)
}

/// Start the threaded runtime on a backlog and time until the standby
/// publishes the last commit with no frame pending. Seconds.
pub fn drain_threaded(dep: &mut Deployment) -> Res<f64> {
    let target = dep.primary().current_scn();
    let started = Instant::now();
    dep.start();
    wait_until("the backlog to drain", || dep.caught_up_to(target))?;
    Ok(started.elapsed().as_secs_f64())
}

/// Drive the pipeline on this thread, one public call per layer boundary
/// and one span per call, until `done`, which also learns whether the last
/// population pass built anything. Returns the driven wall time, µs.
pub fn step_until(
    dep: &Deployment,
    tracer: &mut Tracer,
    mut done: impl FnMut(&Deployment, bool) -> bool,
) -> Res<f64> {
    let started = Instant::now();
    let standby = dep.standby();
    let mut batch = 0u64;
    let mut populated = true;
    while !done(dep, populated) {
        if started.elapsed() > Duration::from_secs(150) {
            return Err("step-mode drive did not converge".into());
        }
        populated = tracer.span("bench.step", None, batch, |t, step| -> Res<bool> {
            t.span("redo.ship", step, batch, |_, _| dep.cluster.ship_redo())?;
            t.span("recovery.ingest", step, batch, |_, _| standby.recovery.ingest_once())?;
            t.span("recovery.apply", step, batch, |_, _| standby.recovery.drain_workers())?;
            t.span("recovery.advance", step, batch, |_, _| {
                standby.recovery.coordinator().try_advance()
            });
            t.span("redo.checkpoint", step, batch, |_, _| standby.maybe_checkpoint())?;
            Ok(t.span("imcs.populate", step, batch, |_, _| standby.populate_once())?.any())
        })?;
        batch += 1;
    }
    Ok(started.elapsed().as_secs_f64() * 1e6)
}
