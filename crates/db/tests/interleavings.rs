//! Interleaving stress: the seeded [`StepScheduler`] drives the full
//! primary→standby deployment one stage-quantum at a time, with scripted
//! DML interleaved between quanta, checking the paper's correctness
//! invariants at every observation point:
//!
//! * **P1** — a query at the published QuerySCN sees exactly the rows of
//!   transactions committed at or before that SCN, never a torn or
//!   future state;
//! * **P2** — the QuerySCN never publishes past an unflushed
//!   invalidation: the commit table holds nothing at or below the
//!   published SCN;
//! * **P5** — each apply worker's reported SCN never moves backwards.
//!
//! A pinned-seed test asserts the scheduler replays the same schedule
//! bit-for-bit: two fresh clusters driven by the same seed and script
//! produce identical pipeline counters. Failure-injection tests pin that
//! an apply error or stage panic stops the pipeline and surfaces in
//! [`StandbyStatus`].

use std::collections::BTreeMap;
use std::sync::Arc;

use imadg_common::{Clock, MetricsSnapshot, Scn, StepOutcome, WorkerId};
use imadg_db::{
    AdgCluster, ColumnType, Filter, NodeBuilder, ObjectId, Placement, QueryRequest, Schema,
    StandbyStatus, TableSpec, TenantId, Value,
};

const OBJ: ObjectId = ObjectId(7);

/// Seeds the pinned-seed stress sweeps (CI runs the same set).
const STRESS_SEEDS: u64 = 32;

fn table_spec(id: ObjectId) -> TableSpec {
    TableSpec {
        id,
        name: format!("t{}", id.0),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[("id", ColumnType::Int), ("n1", ColumnType::Int)]),
        key_ordinal: 0,
        rows_per_block: 16,
    }
}

fn cluster(builder: NodeBuilder) -> Arc<AdgCluster> {
    let c = builder.build().unwrap();
    c.create_table(table_spec(OBJ)).unwrap();
    c.set_placement(OBJ, Placement::StandbyOnly).unwrap();
    c
}

/// Test-local splitmix64: the op script must be independent of the
/// scheduler's own RNG stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One committed primary transaction, in commit order.
#[derive(Clone, Copy)]
enum Op {
    Put { key: i64, n1: i64 },
    Del { key: i64 },
}

/// The model table state after every commit at or below `scn`.
fn model_at(log: &[(Scn, Op)], scn: Scn) -> BTreeMap<i64, i64> {
    let mut m = BTreeMap::new();
    for &(_, op) in log.iter().take_while(|(s, _)| *s <= scn) {
        match op {
            Op::Put { key, n1 } => {
                m.insert(key, n1);
            }
            Op::Del { key } => {
                m.remove(&key);
            }
        }
    }
    m
}

/// P1: the standby scan at the published QuerySCN returns exactly the
/// model state at that SCN.
fn check_p1(c: &AdgCluster, log: &[(Scn, Op)]) {
    let s = c.standby();
    let Some(q) = s.query_scn.get() else { return };
    let out = s.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    let got: BTreeMap<i64, i64> =
        out.rows.iter().map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap())).collect();
    let want = model_at(log, q);
    assert_eq!(got, want, "P1 violated at QuerySCN {q:?}");
}

/// P2: nothing at or below the published QuerySCN awaits a flush.
fn check_p2(c: &AdgCluster) {
    let s = c.standby();
    let (Some(q), Some(adg)) = (s.query_scn.get(), s.adg.as_ref()) else { return };
    if let Some(min) = adg.commit_table.min_pending() {
        assert!(min > q, "P2 violated: commit {min:?} unflushed at published QuerySCN {q:?}");
    }
}

/// P5: every worker's reported apply SCN is monotone.
fn check_p5(c: &AdgCluster, last: &mut [Scn]) {
    let progress = c.standby().recovery.progress().clone();
    for (w, prev) in last.iter_mut().enumerate() {
        let now = progress.of(WorkerId(w as u16));
        assert!(now >= *prev, "P5 violated: worker {w} moved {prev:?} -> {now:?}");
        *prev = now;
    }
}

/// Drive one seeded schedule: scripted DML interleaved with RNG-chosen
/// stage quanta, invariants checked after every burst.
fn run_seed(seed: u64) {
    let c = cluster(
        NodeBuilder::new()
            .primary_instances(1 + (seed as usize % 2))
            .standby_instances(1 + ((seed as usize / 2) % 2)),
    );
    let mut step = c.step_scheduler(seed);
    let mut rng = Mix(seed ^ 0x5eed_cafe);
    let mut log: Vec<(Scn, Op)> = Vec::new();
    let mut live: Vec<i64> = Vec::new();
    let mut next_key = 0i64;
    let mut workers = vec![Scn::ZERO; c.standby().recovery.progress().workers()];

    for _round in 0..60 {
        for _ in 0..(1 + rng.below(4)) {
            let p = &c.primaries()[rng.below(c.primaries().len() as u64) as usize];
            match rng.below(10) {
                0..=4 => {
                    let key = next_key;
                    next_key += 1;
                    let n1 = rng.below(100) as i64;
                    let scn = p
                        .insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(n1)])
                        .unwrap();
                    log.push((scn, Op::Put { key, n1 }));
                    live.push(key);
                }
                5..=7 if !live.is_empty() => {
                    let key = live[rng.below(live.len() as u64) as usize];
                    let n1 = rng.below(100) as i64;
                    let scn =
                        p.update_one(OBJ, TenantId::DEFAULT, key, "n1", Value::Int(n1)).unwrap();
                    log.push((scn, Op::Put { key, n1 }));
                }
                8..=9 if !live.is_empty() => {
                    let key = live.swap_remove(rng.below(live.len() as u64) as usize);
                    let mut tx = p.txm.begin(TenantId::DEFAULT);
                    p.txm.delete_by_key(&mut tx, OBJ, key).unwrap();
                    let scn = p.txm.commit(tx);
                    log.push((scn, Op::Del { key }));
                }
                _ => {}
            }
        }
        step.step_n(1 + rng.below(40) as usize);
        assert!(step.health().is_healthy(), "pipeline failed: {}", step.health());
        check_p5(&c, &mut workers);
        check_p2(&c);
        check_p1(&c, &log);
    }

    // Drain to a fixed point: everything ships, applies, publishes and
    // populates; the final QuerySCN covers the last commit.
    step.drain().unwrap();
    check_p5(&c, &mut workers);
    check_p2(&c);
    check_p1(&c, &log);
    let q = c.standby().current_query_scn().unwrap();
    let last_commit = log.last().map(|&(s, _)| s).unwrap_or(Scn::ZERO);
    assert!(q >= last_commit, "drain converges: QuerySCN {q:?} < last commit {last_commit:?}");
}

#[test]
fn interleaving_stress_32_seeds() {
    for seed in 0..STRESS_SEEDS {
        run_seed(seed);
    }
}

/// Zero out the wall-clock-dependent parts of a snapshot (duration
/// histograms and the trace ring); everything left must replay
/// bit-identically for a fixed seed.
fn canonicalize(mut m: MetricsSnapshot) -> MetricsSnapshot {
    m.trace.clear();
    m.flush.quiesce_us = Default::default();
    m.scan.latency_us = Default::default();
    for s in &mut m.runtime.stages {
        s.park_us = Default::default();
        s.run_quantum_us = Default::default();
    }
    m
}

/// One fully scripted run: fixed DML script, fixed scheduler seed, and a
/// manual clock advanced from the script's own RNG — every timestamp in
/// the deployment (redo generation stamps, staleness residencies) is a
/// pure function of the seed.
fn scripted_run(seed: u64) -> (MetricsSnapshot, MetricsSnapshot) {
    let clock = Clock::manual();
    let c = cluster(NodeBuilder::new().clock(clock.clone()));
    let mut step = c.step_scheduler(seed);
    let mut rng = Mix(0xD0_0D);
    let p = c.primary();
    for key in 0..80i64 {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key % 9)]).unwrap();
        if key % 3 == 0 {
            p.update_one(OBJ, TenantId::DEFAULT, key, "n1", Value::Int(key % 5)).unwrap();
        }
        clock.advance(std::time::Duration::from_micros(1 + rng.below(400)));
        step.step_n(1 + rng.below(25) as usize);
    }
    step.drain().unwrap();
    (c.primary().metrics(), c.standby().metrics())
}

#[test]
fn fixed_seed_replays_identical_counters() {
    let (p1, s1) = scripted_run(0xAD6);
    let (p2, s2) = scripted_run(0xAD6);
    // The staleness histograms must replay bit-identically — including raw
    // bucket counts — and must have measured something.
    assert!(s1.staleness.e2e.count > 0, "scripted run produced e2e staleness samples");
    assert_eq!(s1.staleness, s2.staleness, "staleness histograms diverged across replays");
    assert_eq!(canonicalize(p1), canonicalize(p2), "primary counters diverged across replays");
    assert_eq!(canonicalize(s1), canonicalize(s2), "standby counters diverged across replays");
}

/// Ship redo for a table that was never replicated to the standby: its
/// change vectors are unappliable there, so an apply worker errors.
fn inject_bad_redo(c: &AdgCluster) {
    let rogue = ObjectId(999);
    // Creating the table directly on the primary's store bypasses the
    // CREATE TABLE redo marker the txn layer would have shipped.
    c.primary().store.create_table(table_spec(rogue)).unwrap();
    c.primary().insert_one(rogue, TenantId::DEFAULT, vec![Value::Int(1), Value::Int(1)]).unwrap();
}

#[test]
fn injected_apply_error_surfaces_in_status_and_stops_pipeline() {
    let c = cluster(NodeBuilder::new());
    inject_bad_redo(&c);
    let mut step = c.step_scheduler(3);
    let mut failed = false;
    for _ in 0..100_000 {
        match step.step() {
            Some(r) if r.outcome == StepOutcome::Failed => {
                failed = true;
                break;
            }
            Some(_) => {}
            None => break,
        }
    }
    assert!(failed, "the unappliable redo must fail an apply worker");
    // The very next step observes the stopped pipeline — no further
    // quanta run after a failure.
    assert!(step.step().is_none(), "pipeline keeps running after a stage failure");

    let status: StandbyStatus = c.standby().status();
    assert!(!status.health.is_healthy(), "failure must surface in StandbyStatus");
    let f = status.health.failure().unwrap();
    assert!(f.stage.starts_with("apply."), "failing stage is an apply worker: {}", f.stage);
    assert!(status.to_string().contains("FAILED"), "Display renders the failure");
    // The standby-side metrics snapshot carries the same failure.
    assert_eq!(c.standby().metrics().runtime.failure.as_ref(), Some(f));
}

#[test]
fn threaded_apply_error_stops_cluster_and_surfaces_in_status() {
    let c = cluster(NodeBuilder::new());
    let threads = c.start();
    inject_bad_redo(&c);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while threads.health().is_healthy() {
        assert!(std::time::Instant::now() < deadline, "failure never surfaced");
        std::thread::yield_now();
    }
    let health = threads.shutdown();
    let f = health.failure().unwrap();
    assert!(f.stage.starts_with("apply."), "failing stage is an apply worker: {}", f.stage);
    assert!(!c.standby().status().health.is_healthy());
}
