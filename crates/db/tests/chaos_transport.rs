//! Transport chaos: seeded fault injection (drop / duplicate / reorder /
//! partition) on the framed redo link under the deterministic step
//! scheduler, over mixed RAC topologies.
//!
//! Each pinned seed picks a topology and a fault plan, interleaves
//! scripted DML with scheduler quanta, and checks the paper's correctness
//! invariants at every observation point — exactly the checks the
//! lossless-link interleaving stress runs, now with the link actively
//! misbehaving underneath:
//!
//! * **P1** — a standby query at the published QuerySCN sees exactly the
//!   rows of transactions committed at or before that SCN;
//! * **P2** — the QuerySCN never publishes past an unflushed
//!   invalidation;
//! * **P5** — each apply worker's reported SCN never moves backwards.
//!
//! At quiesce, every detected sequence gap must have been resolved by a
//! NAK-driven retransmission (`gaps_detected == gaps_resolved`), and the
//! acceptance scenario (5% drop + 2% duplicate + reorder window 8) must
//! converge to the same final QuerySCN, populated-row count, and table
//! state as a fault-free run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use imadg_common::{FaultPlan, LinkMode, Scn, SystemConfig, WorkerId};
use imadg_db::{
    AdgCluster, ColumnType, Filter, NodeBuilder, ObjectId, Placement, QueryRequest, Schema,
    StandbyCluster, TableSpec, TenantId, Value,
};

const OBJ: ObjectId = ObjectId(7);

/// Pinned chaos seeds (CI runs the same set).
const CHAOS_SEEDS: u64 = 16;

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

/// Test-local splitmix64 (the op script must be independent of both the
/// scheduler's and the fault injector's RNG streams).
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
/// model state at that SCN — chaos must never surface as torn, stale, or
/// duplicated rows.
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

/// The per-seed fault plan: every seed drops frames; duplication, reorder
/// and hard partitions rotate in so the set covers every fault kind.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed: seed ^ 0xC4A0_5BAD,
        drop_per_mille: 30 + (seed % 4) as u32 * 20,
        duplicate_per_mille: (seed % 3) as u32 * 15,
        reorder_window: if seed.is_multiple_of(2) { 8 } else { 0 },
        partition_every: if seed % 4 == 3 { 64 } else { 0 },
        partition_ticks: if seed % 4 == 3 { 12 } else { 0 },
        ..FaultPlan::default()
    }
}

/// Topology + framed link + fault plan for one seed.
fn chaos_builder(seed: u64) -> NodeBuilder {
    NodeBuilder::new()
        .primary_instances(1 + (seed as usize % 2))
        .standby_instances(1 + ((seed as usize / 2) % 2))
        .link(LinkMode::Framed)
        .tune(|s| {
            s.transport.faults = Some(fault_plan(seed));
            tight_cadences(s);
        })
}

/// Tighter protocol cadences keep step-mode convergence short.
fn tight_cadences(s: &mut SystemConfig) {
    s.transport.nak_retry_polls = 4;
    s.transport.ping_idle_polls = 8;
}

/// Whether any link still holds undelivered state (unacked frames on a
/// primary, or gaps / out-of-order frames on the standby).
fn transport_pending(c: &AdgCluster) -> bool {
    c.primaries().iter().any(|p| p.transport_pending()) || c.standby().recovery.transport_pending()
}

/// Drive one seeded chaos schedule to convergence; returns the gaps the
/// standby detected (so the sweep can assert the faults actually bit).
fn run_chaos_seed(seed: u64) -> u64 {
    let c = cluster(chaos_builder(seed));
    let mut step = c.step_scheduler(seed);
    let mut rng = Mix(seed ^ 0x5eed_cafe);
    let mut log: Vec<(Scn, Op)> = Vec::new();
    let mut live: Vec<i64> = Vec::new();
    let mut next_key = 0i64;
    let mut workers = vec![Scn::ZERO; c.standby().recovery.progress().workers()];

    for _round in 0..40 {
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

    // Convergence: `drain` alone can exit while a NAK retry or liveness
    // ping is still pacing (those fire only after N polls), so keep
    // stepping until the QuerySCN covers the last commit and every link
    // has quiesced, then drain the quiet tail to a fixed point.
    let last_commit = log.last().map(|&(s, _)| s).unwrap_or(Scn::ZERO);
    let mut converged = false;
    for _ in 0..40_000 {
        let q = c.standby().query_scn.get().unwrap_or(Scn::ZERO);
        if q >= last_commit && !transport_pending(&c) {
            converged = true;
            break;
        }
        step.step_n(25);
        assert!(step.health().is_healthy(), "pipeline failed: {}", step.health());
    }
    assert!(converged, "seed {seed}: link never converged under chaos");
    step.drain().unwrap();
    check_p5(&c, &mut workers);
    check_p2(&c);
    check_p1(&c, &log);

    let t = c.standby().metrics().transport;
    assert_eq!(
        t.gaps_detected, t.gaps_resolved,
        "seed {seed}: open gaps at quiesce (detected {} vs resolved {})",
        t.gaps_detected, t.gaps_resolved
    );
    assert!(!transport_pending(&c), "seed {seed}: transport state left at quiesce");
    t.gaps_detected
}

#[test]
fn chaos_stress_16_seeds() {
    let mut total_gaps = 0;
    for seed in 0..CHAOS_SEEDS {
        total_gaps += run_chaos_seed(seed);
    }
    // Every seed drops frames: the sweep as a whole must have exercised
    // real gap resolution, not vacuously-equal zero counters.
    assert!(total_gaps > 0, "no seed produced a sequence gap — faults not biting");
}

/// Converge the link and apply side to a fixed point *before* running
/// population: populating mid-gap-resolution snapshots blocks at an early
/// QuerySCN, leaving later covered-block inserts to the SMU path — P1
/// still holds, but the populated-row parity check below wants both runs
/// to populate the same final state.
fn converge(c: &AdgCluster) {
    loop {
        let shipped = c.ship_redo().unwrap();
        c.standby().pump_until_idle().unwrap();
        if shipped == 0 && !transport_pending(c) {
            break;
        }
        std::thread::yield_now();
    }
    c.standby().populate_until_idle().unwrap();
    c.sync().unwrap();
}

/// A fixed insert/update script; shipping after every transaction
/// maximizes the frame count the fault plan can bite.
/// Returns (final QuerySCN, populated rows, table state).
fn scripted_outcome(builder: NodeBuilder) -> (Scn, usize, BTreeMap<i64, i64>) {
    let c = cluster(builder);
    let p = c.primary();
    for key in 0..120i64 {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key % 9)]).unwrap();
        if key % 4 == 0 {
            p.update_one(OBJ, TenantId::DEFAULT, key, "n1", Value::Int(key % 5)).unwrap();
        }
        c.ship_redo().unwrap();
    }
    converge(&c);
    let q = c.standby().current_query_scn().unwrap();
    let rows: BTreeMap<i64, i64> = c
        .standby()
        .query(&QueryRequest::scan(OBJ).filter(Filter::all()))
        .unwrap()
        .rows
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    (q, c.standby().status().populated_rows, rows)
}

/// The ISSUE's acceptance scenario: 5% drop + 2% duplicate + reorder
/// window 8 must reach the same final QuerySCN, populated-row count, and
/// table state as a fault-free run, with real gap traffic on the wire.
#[test]
fn acceptance_chaos_matches_clean_run() {
    let clean = NodeBuilder::new().link(LinkMode::Framed);
    let (clean_q, clean_rows, clean_state) = scripted_outcome(clean);

    let chaos = NodeBuilder::new().link(LinkMode::Framed).tune(|s| {
        s.transport.faults = Some(FaultPlan {
            seed: 0xADC0_FFEE,
            drop_per_mille: 50,
            duplicate_per_mille: 20,
            reorder_window: 8,
            ..FaultPlan::default()
        })
    });
    let c = cluster(chaos);
    let p = c.primary();
    for key in 0..120i64 {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key % 9)]).unwrap();
        if key % 4 == 0 {
            p.update_one(OBJ, TenantId::DEFAULT, key, "n1", Value::Int(key % 5)).unwrap();
        }
        c.ship_redo().unwrap();
    }
    converge(&c);

    assert_eq!(c.standby().current_query_scn().unwrap(), clean_q, "final QuerySCN diverged");
    assert_eq!(c.standby().status().populated_rows, clean_rows, "populated rows diverged");
    let got: BTreeMap<i64, i64> = c
        .standby()
        .query(&QueryRequest::scan(OBJ).filter(Filter::all()))
        .unwrap()
        .rows
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    assert_eq!(got, clean_state, "table state diverged");

    let t = c.standby().metrics().transport;
    assert!(t.gaps_detected > 0, "5% drop over ~240 frames must open gaps");
    assert_eq!(t.gaps_detected, t.gaps_resolved, "all gaps resolved at quiesce");
    assert!(t.retransmits > 0, "gap resolution implies retransmitted frames");
    assert!(t.naks_sent > 0, "gaps are resolved by NAKs");
    // Sender-side counters land on the primary: retransmits served there
    // must cover (dropped retransmits mean served >= received).
    let pt = c.primary().metrics().transport;
    assert!(pt.retransmits >= t.retransmits, "primary served every retransmit received");
}

/// Staleness accounting under the acceptance fault plan (5% drop +
/// reorder window 8): chaos may change *how long* commits take to become
/// queryable, but never how many are accounted for, and never break the
/// internal consistency of the per-stage residency decomposition.
///
/// * **Conservation** — every committed transaction settles into the
///   end-to-end histogram exactly once: `e2e.count` matches a fault-free
///   run of the same script (drops must not lose commits, duplicates and
///   reordering must not double-count them), and the flush/publish stages
///   settle in lockstep with it.
/// * **Monotone consistency** — at quiesce the end-to-end staleness
///   bounds every per-stage residency (`e2e.max >= stage.max`), and each
///   slowest-commit trace decomposes exactly: the stage components sum to
///   its `e2e_us`.
#[test]
fn chaos_staleness_conserved_and_consistent() {
    let script = |builder: NodeBuilder| -> (u64, imadg_common::StalenessSnapshot) {
        let c = cluster(builder);
        let p = c.primary();
        let mut commits = 0u64;
        for key in 0..120i64 {
            p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key % 9)])
                .unwrap();
            commits += 1;
            if key % 4 == 0 {
                p.update_one(OBJ, TenantId::DEFAULT, key, "n1", Value::Int(key % 5)).unwrap();
                commits += 1;
            }
            c.ship_redo().unwrap();
        }
        converge(&c);
        (commits, c.standby().metrics().staleness)
    };

    let (clean_commits, clean) = script(NodeBuilder::new().link(LinkMode::Framed));
    let (chaos_commits, chaos) = script(NodeBuilder::new().link(LinkMode::Framed).tune(|s| {
        s.transport.faults = Some(FaultPlan {
            seed: 0x57A1_E0E5,
            drop_per_mille: 50,
            reorder_window: 8,
            ..FaultPlan::default()
        })
    }));
    assert_eq!(clean_commits, chaos_commits, "same script, same commit count");

    for (tag, s) in [("clean", &clean), ("chaos", &chaos)] {
        // Conservation: each commit settles exactly once, and the
        // settle-time stages move in lockstep with the e2e histogram.
        assert_eq!(s.e2e.count, clean_commits, "{tag}: settled commits");
        assert_eq!(s.flush.count, s.e2e.count, "{tag}: flush settles with e2e");
        assert_eq!(s.publish.count, s.e2e.count, "{tag}: publish settles with e2e");
        // Duplicates may add receive samples; drops must never remove
        // settled commits.
        assert!(s.receive.count >= s.e2e.count, "{tag}: receive covers every settled commit");

        // Monotone consistency: the end-to-end residency bounds every
        // per-stage residency once everything has settled.
        for (stage, h) in [
            ("receive", &s.receive),
            ("merge", &s.merge),
            ("apply", &s.apply),
            ("flush", &s.flush),
            ("publish", &s.publish),
        ] {
            assert!(
                s.e2e.max >= h.max,
                "{tag}: e2e max {}us below {stage} residency {}us",
                s.e2e.max,
                h.max
            );
        }
        // Each slowest-commit trace decomposes exactly into its stages.
        assert!(!s.slowest.is_empty(), "{tag}: slowest ring populated");
        for t in &s.slowest {
            let sum = t.transit_us + t.merge_wait_us + t.apply_us + t.flush_us + t.publish_us;
            assert_eq!(sum, t.e2e_us, "{tag}: scn {} stages must sum to e2e", t.scn);
            assert!(t.e2e_us <= s.e2e.max, "{tag}: trace exceeds histogram max");
        }
    }
}

/// P1 on one named farm member: its scan at its own published QuerySCN
/// matches the model exactly — a lagging sibling must never bleed into a
/// fresh standby's snapshot.
fn check_p1_on(s: &StandbyCluster, log: &[(Scn, Op)]) {
    let Some(q) = s.query_scn.get() else { return };
    let out = s.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    let got: BTreeMap<i64, i64> =
        out.rows.iter().map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap())).collect();
    let want = model_at(log, q);
    assert_eq!(got, want, "P1 violated on {} at QuerySCN {q:?}", s.name());
}

/// One seeded multi-standby chaos schedule: a 2–3 member reader farm with
/// exactly one faulted fan-out lane. Returns (gaps the faulted member
/// detected, observation points where a clean member's QuerySCN was ahead
/// of the faulted member's).
fn run_farm_chaos_seed(seed: u64) -> (u64, u64) {
    let farm = 2 + (seed as usize % 2);
    let faulted = seed as usize % farm;
    let c = cluster(
        NodeBuilder::new()
            .reader_farm(farm)
            .standby_faults(faulted, fault_plan(seed))
            .link(LinkMode::Framed)
            .tune(tight_cadences),
    );
    let mut step = c.step_scheduler(seed);
    let mut rng = Mix(seed ^ 0xFA43_FA43);
    let mut log: Vec<(Scn, Op)> = Vec::new();
    let mut next_key = 0i64;
    let mut ahead = 0u64;

    for _round in 0..25 {
        for _ in 0..(1 + rng.below(3)) {
            let p = c.primary();
            let key = next_key;
            next_key += 1;
            let n1 = rng.below(100) as i64;
            let scn = p
                .insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(n1)])
                .unwrap();
            log.push((scn, Op::Put { key, n1 }));
            if key % 3 == 0 {
                let n1 = rng.below(100) as i64;
                let scn = p.update_one(OBJ, TenantId::DEFAULT, key, "n1", Value::Int(n1)).unwrap();
                log.push((scn, Op::Put { key, n1 }));
            }
        }
        step.step_n(1 + rng.below(40) as usize);
        assert!(step.health().is_healthy(), "pipeline failed: {}", step.health());
        let standbys = c.standbys();
        let faulted_q = standbys[faulted].query_scn.get().unwrap_or(Scn::ZERO);
        for (i, s) in standbys.iter().enumerate() {
            // Every member individually satisfies P1 at its own SCN — the
            // farm members advance independently.
            check_p1_on(s, &log);
            if i != faulted && s.query_scn.get().unwrap_or(Scn::ZERO) > faulted_q {
                ahead += 1;
            }
        }
    }

    // Convergence: every member reaches the last commit and every lane
    // quiesces (the laggard closes its gaps through NAK retransmission or
    // the archive backstop).
    let last_commit = log.last().map(|&(s, _)| s).unwrap_or(Scn::ZERO);
    let mut converged = false;
    for _ in 0..40_000 {
        let standbys = c.standbys();
        let all_caught_up =
            standbys.iter().all(|s| s.query_scn.get().unwrap_or(Scn::ZERO) >= last_commit);
        let pending = c.primaries().iter().any(|p| p.transport_pending())
            || standbys.iter().any(|s| s.recovery.transport_pending());
        if all_caught_up && !pending {
            converged = true;
            break;
        }
        step.step_n(25);
        assert!(step.health().is_healthy(), "pipeline failed: {}", step.health());
    }
    assert!(converged, "seed {seed}: farm never converged under chaos");
    step.drain().unwrap();

    let standbys = c.standbys();
    for (i, s) in standbys.iter().enumerate() {
        check_p1_on(s, &log);
        let t = s.metrics().transport;
        assert_eq!(
            t.gaps_detected,
            t.gaps_resolved,
            "seed {seed}: open gaps on {} at quiesce (detected {} vs resolved {})",
            s.name(),
            t.gaps_detected,
            t.gaps_resolved
        );
        if i != faulted {
            // Faults are lane-local: clean lanes must never see a gap.
            assert_eq!(
                t.gaps_detected,
                0,
                "seed {seed}: fault on lane {faulted} leaked a gap onto {}",
                s.name()
            );
        }
    }
    (standbys[faulted].metrics().transport.gaps_detected, ahead)
}

/// The PR-9 multi-standby matrix: 16 pinned seeds over 2–3 member farms
/// with one faulted lane each. Per-member gap accounting closes at
/// quiesce, faults stay lane-local, and across the sweep the clean
/// members' QuerySCNs repeatedly publish ahead of the faulted member's —
/// the laggard never holds the farm's freshness back.
#[test]
fn farm_chaos_16_seeds_one_faulted_lane() {
    let mut total_gaps = 0;
    let mut total_ahead = 0;
    for seed in 0..CHAOS_SEEDS {
        let (gaps, ahead) = run_farm_chaos_seed(seed);
        total_gaps += gaps;
        total_ahead += ahead;
    }
    assert!(total_gaps > 0, "no seed produced a gap on the faulted lane — faults not biting");
    assert!(
        total_ahead > 0,
        "clean members never published ahead of the laggard — fan-out is lockstep"
    );
}

/// Router determinism: the same seed, the same scripted DML/step schedule,
/// and the same staleness bounds must produce the identical sequence of
/// routing decisions — the router reads only step-deterministic state
/// (published QuerySCN, SCN gap, settled-commit counts, routed-load
/// counters), so two replays cannot diverge.
#[test]
fn router_decisions_deterministic_under_step_scheduler() {
    fn routed_trace(seed: u64) -> Vec<String> {
        let c = cluster(
            NodeBuilder::new()
                .reader_farm(3)
                .standby_faults(1, fault_plan(seed))
                .link(LinkMode::Framed)
                .tune(tight_cadences),
        );
        let mut step = c.step_scheduler(seed);
        let mut rng = Mix(seed ^ 0x2007_E5D1);
        let mut next_key = 0i64;
        let mut trace = Vec::new();
        for _round in 0..20 {
            for _ in 0..(1 + rng.below(3)) {
                c.primary()
                    .insert_one(
                        OBJ,
                        TenantId::DEFAULT,
                        vec![Value::Int(next_key), Value::Int(next_key % 9)],
                    )
                    .unwrap();
                next_key += 1;
            }
            step.step_n(1 + rng.below(35) as usize);
            for _ in 0..3 {
                let mut req = QueryRequest::scan(OBJ).filter(Filter::all());
                // Bounds whose eligibility depends only on deterministic
                // state: unbounded, or wide enough that any published
                // estimate passes.
                if rng.below(2) == 0 {
                    req = req.max_staleness(Duration::from_secs(30));
                }
                let (_out, decision) = c.route_query(&req).unwrap();
                trace.push(format!("{:?}", decision.target));
            }
        }
        step.drain().unwrap();
        trace
    }

    for seed in [3u64, 11] {
        let a = routed_trace(seed);
        let b = routed_trace(seed);
        assert_eq!(a, b, "seed {seed}: routing diverged between identical replays");
        let distinct: std::collections::BTreeSet<&String> = a.iter().collect();
        assert!(
            distinct.len() > 1,
            "seed {seed}: router pinned every query to one target — balancing dead"
        );
    }
}

/// Promotion under fan-out with a pinned-seed faulted lane: terminal
/// catch-up drives every member — laggard included — to the full commit
/// history, the freshest member becomes primary with zero committed
/// transactions lost, and the survivors re-home to the new primary and
/// keep converging.
#[test]
fn promotion_under_fanout_loses_no_committed_txns() {
    const ROWS: i64 = 150;
    let c = cluster(
        NodeBuilder::new()
            .reader_farm(3)
            .standby_faults(1, fault_plan(7))
            .link(LinkMode::Framed)
            .tune(tight_cadences),
    );
    let p = c.primary();
    for key in 0..ROWS {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key % 9)]).unwrap();
        // Ship without converging: the faulted lane falls behind while the
        // clean lanes keep up.
        c.ship_redo().unwrap();
    }

    let report = c.promote().unwrap();
    assert_eq!(report.rehomed.len(), 2, "two survivors re-home");
    assert!(!report.rehomed.contains(&report.promoted_from), "promoted member cannot also re-home");

    // Zero committed-transaction loss: the new primary serves the full
    // committed history.
    let new_primary = c.primary();
    let served = new_primary.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap().count();
    assert_eq!(served, ROWS as usize, "committed rows lost across promotion");

    // The farm keeps working: new DML on the promoted primary reaches
    // every re-homed survivor.
    for key in ROWS..ROWS + 50 {
        new_primary
            .insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key % 9)])
            .unwrap();
    }
    c.sync().unwrap();
    for s in c.standbys() {
        if s.is_frozen() {
            continue;
        }
        let n = s.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap().count();
        assert_eq!(n, (ROWS + 50) as usize, "{} diverged after re-homing", s.name());
    }
}

/// The same chaos converges under free-running threads: wall-clock pacing
/// replaces step counting, heartbeat cadence drives the protocol quanta.
#[test]
fn threaded_chaos_converges() {
    let c = cluster(NodeBuilder::new().link(LinkMode::Framed).tune(|s| {
        s.transport.faults = Some(FaultPlan {
            seed: 0x7E_ADED,
            drop_per_mille: 50,
            duplicate_per_mille: 20,
            reorder_window: 8,
            ..FaultPlan::default()
        })
    }));
    let threads = c.start();
    let p = c.primary();
    for key in 0..200i64 {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key % 10)]).unwrap();
    }
    let final_scn = p.current_scn();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while c.standby().query_scn.get().is_none_or(|q| q < final_scn) {
        assert!(std::time::Instant::now() < deadline, "standby failed to catch up under chaos");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let health = threads.shutdown();
    assert!(health.is_healthy(), "chaos must not fail the pipeline: {health}");
    let out = c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 200);
    let t = c.standby().metrics().transport;
    assert_eq!(t.gaps_detected, t.gaps_resolved, "open gaps after threaded quiesce");
}

/// Loopback-TCP parity: the same scripted workload over a real socket and
/// over the framed in-process pipe converges to the same QuerySCN, table
/// state, and apply-side counters. Frame-level counters (heartbeats, batches,
/// advances) legitimately differ — wall-clock pacing decides how many
/// heartbeats and service quanta run — so parity is asserted on the
/// deterministic apply totals. Skips with a visible notice when the
/// sandbox forbids sockets.
#[test]
fn tcp_loopback_matches_framed_link() {
    let tcp_cluster = match NodeBuilder::new().link(LinkMode::Tcp).build() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("NOTICE: loopback sockets unavailable ({e}); skipping TCP parity test");
            return;
        }
    };
    tcp_cluster.create_table(table_spec(OBJ)).unwrap();
    tcp_cluster.set_placement(OBJ, Placement::StandbyOnly).unwrap();

    let run = |c: &AdgCluster| -> (Scn, usize, BTreeMap<i64, i64>, u64, u64) {
        let p = c.primary();
        for key in 0..80i64 {
            p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key % 7)])
                .unwrap();
            if key % 3 == 0 {
                p.update_one(OBJ, TenantId::DEFAULT, key, "n1", Value::Int(key % 5)).unwrap();
            }
            if key % 5 == 0 {
                c.sync().unwrap();
            }
        }
        c.sync().unwrap();
        let m = c.standby().metrics();
        let rows: BTreeMap<i64, i64> = c
            .standby()
            .query(&QueryRequest::scan(OBJ).filter(Filter::all()))
            .unwrap()
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        (
            c.standby().current_query_scn().unwrap(),
            c.standby().status().populated_rows,
            rows,
            m.merger.records_merged,
            m.apply.records_dispatched,
        )
    };

    let over_tcp = run(&tcp_cluster);
    let framed = cluster(NodeBuilder::new().link(LinkMode::Framed));
    let baseline = run(&framed);
    assert_eq!(over_tcp, baseline, "TCP and framed links must converge identically");

    // The socket path really carried the redo.
    let t = tcp_cluster.standby().metrics().transport;
    assert!(t.frames_received > 0, "no frames crossed the TCP link");
}

/// One shipper quantum services the link exactly once: with only the
/// primary's stage running, a lane that never ACKs is pinged once every
/// `ping_idle_polls` quanta — 8 quanta at a cadence of 4 send 2 pings.
#[test]
fn shipper_quantum_services_the_link_once() {
    let c = cluster(NodeBuilder::new().tune(|s| s.transport.ping_idle_polls = 4));
    c.primary().insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(1), Value::Int(1)]).unwrap();
    let mut rt = imadg_common::Runtime::new();
    c.primary().register_stages(&mut rt);
    let mut step = rt.into_step(1);
    step.step_n(8);
    assert!(step.health().is_healthy(), "pipeline failed: {}", step.health());
    assert_eq!(c.primary().metrics().transport.link_pings, 2, "one service per quantum");
}
