//! Durability acceptance: the crash-point matrix and promotion under
//! chaos.
//!
//! **Crash matrix.** Each pinned seed drives a scripted committed workload
//! through the deterministic step scheduler over a durable framed link,
//! then kills the standby hard at a seed-dependent scheduler point — mid
//! mine, mid journal flush, mid population, wherever the step count
//! happens to land. The standby restarts from disk only (wal + archive
//! segments), re-mines the whole log, catches the tail up through the NAK
//! gap protocol, and must converge to results bit-identical to an
//! uncrashed twin running the same script: zero committed transactions
//! lost, none applied twice, and no stale row served by a predicate on
//! the updated column.
//!
//! **Promotion.** Sixteen seeds run committed transactions over a link
//! injecting the acceptance fault mix (5% drop, 2% duplicate, reorder
//! window 8), then lose the primary and promote the standby through the
//! node-role API. Every committed transaction must be queryable on the
//! new primary, and fresh DML must work on it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use imadg_common::{envelope, Error, FaultPlan, LinkMode};
use imadg_db::{
    AdgCluster, ColumnType, Filter, NodeBuilder, NodeRole, ObjectId, Placement, QueryRequest,
    RouteTarget, Schema, TableSpec, TenantId, Value,
};

const OBJ: ObjectId = ObjectId(7);

/// Pinned crash-matrix seeds (CI runs the same set).
const CRASH_SEEDS: u64 = 8;

/// Pinned promotion seeds, mirroring the transport chaos suite.
const PROMO_SEEDS: u64 = 16;

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

/// A fresh per-run durability directory (removed by `Tmp::drop`).
struct Tmp(PathBuf);

impl Tmp {
    fn new(tag: &str) -> Tmp {
        let dir = std::env::temp_dir().join(format!("imadg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Tmp(dir)
    }

    fn seeded(tag: &str, seed: u64) -> Tmp {
        let dir = std::env::temp_dir().join(format!("imadg-{tag}-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Tmp(dir)
    }
}

impl Drop for Tmp {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Durable framed deployment: small segments so the archiver really moves
/// data, tight protocol cadences for step mode.
fn durable_builder(dir: &Tmp) -> NodeBuilder {
    NodeBuilder::new().link(LinkMode::Framed).durability(dir.0.to_string_lossy()).tune(|s| {
        s.durability.segment_max_bytes = 2 * 1024;
        s.transport.nak_retry_polls = 4;
        s.transport.ping_idle_polls = 8;
    })
}

fn cluster(builder: NodeBuilder) -> Arc<AdgCluster> {
    let c = builder.build().unwrap();
    c.create_table(table_spec(OBJ)).unwrap();
    c.set_placement(OBJ, Placement::StandbyOnly).unwrap();
    c
}

/// Test-local splitmix64: the op script must be independent of the
/// scheduler's RNG stream so twin runs issue identical transactions.
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

/// One scripted committed transaction, mirrored into the model.
fn scripted_op(c: &AdgCluster, rng: &mut Mix, next_key: &mut i64, model: &mut BTreeMap<i64, i64>) {
    let p = c.primary();
    match rng.below(10) {
        0..=5 => {
            let key = *next_key;
            *next_key += 1;
            let n1 = rng.below(100) as i64;
            p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(n1)]).unwrap();
            model.insert(key, n1);
        }
        6..=8 if !model.is_empty() => {
            let idx = rng.below(model.len() as u64) as usize;
            let key = *model.keys().nth(idx).unwrap();
            let n1 = rng.below(100) as i64;
            p.update_one(OBJ, TenantId::DEFAULT, key, "n1", Value::Int(n1)).unwrap();
            model.insert(key, n1);
        }
        _ if !model.is_empty() => {
            let idx = rng.below(model.len() as u64) as usize;
            let key = *model.keys().nth(idx).unwrap();
            let mut tx = p.txm.begin(TenantId::DEFAULT);
            p.txm.delete_by_key(&mut tx, OBJ, key).unwrap();
            p.txm.commit(tx);
            model.remove(&key);
        }
        _ => {}
    }
}

/// The standby's table state as a key → n1 map.
fn standby_state(c: &AdgCluster) -> BTreeMap<i64, i64> {
    c.standby()
        .query(&QueryRequest::scan(OBJ).filter(Filter::all()))
        .unwrap()
        .rows
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect()
}

/// For every distinct `n1` in the model, the standby's `n1 = v` count must
/// match the model's. A `Filter::all()` scan re-reads survivors from the
/// row store, so only a predicate on the updated column sees a unit that
/// missed an invalidation.
fn assert_n1_counts(c: &AdgCluster, model: &BTreeMap<i64, i64>, ctx: &str) {
    let mut want: BTreeMap<i64, usize> = BTreeMap::new();
    for &n1 in model.values() {
        *want.entry(n1).or_default() += 1;
    }
    let schema = table_spec(OBJ).schema;
    for (&v, &n) in &want {
        let f = Filter::of(imadg_db::Predicate::eq(&schema, "n1", Value::Int(v)).unwrap());
        let got = c.standby().query(&QueryRequest::scan(OBJ).filter(f)).unwrap().count();
        assert_eq!(got, n, "{ctx}: n1 = {v}");
    }
}

/// One crash-matrix run: `crash_round` of `None` is the uncrashed twin.
/// Returns (final table state, records replayed from disk at the crash
/// point).
fn run_crash_schedule(
    seed: u64,
    dir: &Tmp,
    crash_round: Option<usize>,
) -> (BTreeMap<i64, i64>, u64) {
    let c = cluster(durable_builder(dir));
    let mut step = c.step_scheduler(seed);
    let mut rng = Mix(seed ^ 0xDEAD_5EED);
    let mut model = BTreeMap::new();
    let mut next_key = 0i64;
    let mut crashed = false;

    for round in 0..24 {
        for _ in 0..(1 + rng.below(3)) {
            scripted_op(&c, &mut rng, &mut next_key, &mut model);
        }
        // The seed decides how deep into the pipeline the redo gets before
        // the crash: fresh in the receiver, mid-mine, mid-flush, or
        // already populated.
        step.step_n(1 + rng.below(30) as usize);
        assert!(step.health().is_healthy(), "pipeline failed: {}", step.health());

        if crash_round == Some(round) {
            // Hard kill: the step scheduler (and with it every stage
            // handle onto the dying standby) is discarded, the standby is
            // rebuilt from disk, and a fresh scheduler drives the new
            // pipeline. Early crash points may legitimately replay zero
            // records (nothing durable yet); the matrix asserts replay
            // happened across the sweep as a whole.
            drop(step);
            c.crash_restart_standby(0).unwrap();
            step = c.step_scheduler(seed ^ 0xAF_7E12);
            crashed = true;
        }
    }

    c.sync().unwrap();
    let state = standby_state(&c);
    assert_eq!(state, model, "seed {seed}: standby diverged from committed model");
    assert_n1_counts(&c, &model, &format!("seed {seed}"));
    // Replay runs lazily over the pumps after restart, so the count is
    // only meaningful once the run has converged.
    let replayed = if crashed { c.standby().metrics().durability.replayed_records } else { 0 };
    (state, replayed)
}

/// The crash-point matrix: every seed crashes the standby at a different
/// scheduler point and must converge bit-identically to its uncrashed
/// twin — zero committed transactions lost, none applied twice.
#[test]
fn crash_matrix_matches_uncrashed_twin() {
    let mut total_replayed = 0;
    for seed in 0..CRASH_SEEDS {
        let twin_dir = Tmp::seeded("twin", seed);
        let (twin_state, _) = run_crash_schedule(seed, &twin_dir, None);

        let crash_dir = Tmp::seeded("crash", seed);
        let crash_round = 3 + (seed as usize * 5) % 18;
        let (state, replayed) = run_crash_schedule(seed, &crash_dir, Some(crash_round));

        // Bit-identical logical state; physical unit layout may differ
        // (population snapshots land at different SCNs around the crash).
        assert_eq!(state, twin_state, "seed {seed}: crashed run diverged from twin");
        total_replayed += replayed;
    }
    assert!(total_replayed > 0, "no crash point replayed durable redo — matrix not biting");
}

/// Restart replays the whole durable log and loses no committed row.
#[test]
fn restart_replays_whole_log() {
    let dir = Tmp::new("replay");
    let c = cluster(durable_builder(&dir));
    let p = c.primary();
    for key in 0..60i64 {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key % 9)]).unwrap();
        if key % 10 == 9 {
            c.sync().unwrap();
        }
    }
    c.sync().unwrap();

    c.crash_restart_standby(0).unwrap();
    c.sync().unwrap();
    let after = c.standby().metrics().durability;
    assert!(after.replayed_records > 0, "restart must replay from disk");
    let out = c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 60, "every committed row survives the crash");
}

/// A cluster built over a surviving durability directory replays the
/// standby's redo from disk before the live link: the standby answers
/// every row the dropped cluster committed.
#[test]
fn cold_start_over_surviving_redo_replays_it() {
    let dir = Tmp::new("coldstart");
    {
        let c = cluster(durable_builder(&dir));
        let p = c.primary();
        for key in 0..60i64 {
            p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key % 9)])
                .unwrap();
        }
        c.sync().unwrap();
    }
    let c = durable_builder(&dir).build().unwrap();
    c.set_placement(OBJ, Placement::StandbyOnly).unwrap();
    c.sync().unwrap();
    let replayed = c.standby().metrics().durability.replayed_records;
    assert!(replayed >= 60, "the surviving log replays ({replayed} records)");
    let out = c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 60, "every committed row comes back from disk");
}

/// A corrupt entry met in replay after a crash restart — its CRC resealed,
/// so only the record decode catches it — fails `sync` with `WireCorrupt`
/// instead of hanging, and the QuerySCN stays below the entry's SCN.
#[test]
fn corrupt_redo_met_in_replay_surfaces() {
    let dir = Tmp::new("corruptreplay");
    let c = cluster(durable_builder(&dir));
    let probe = ObjectId(8);
    let schema = Schema::of(&[("id", ColumnType::Int), ("s", ColumnType::Varchar)]);
    c.create_table(TableSpec { schema, ..table_spec(probe) }).unwrap();
    let p = c.primary();
    let mut probe_scn = None;
    for key in 0..110i64 {
        if key == 100 {
            let row = vec![Value::Int(1), Value::str("PROBE")];
            probe_scn = Some(p.insert_one(probe, TenantId::DEFAULT, row).unwrap());
        }
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(0)]).unwrap();
        c.sync().unwrap();
    }
    c.crash_restart_standby(0).unwrap();

    // Damage the probe string in the standby's own log, then reseal the
    // CRC of the entry holding it.
    let seg = ["wal", "archive"]
        .iter()
        .flat_map(|t| std::fs::read_dir(dir.0.join("standby-sb0/t1").join(t)).unwrap())
        .map(|e| e.unwrap().path())
        .find(|path| std::fs::read(path).unwrap().windows(5).any(|w| w == b"PROBE"))
        .unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    let at = bytes.windows(5).position(|w| w == b"PROBE").unwrap();
    bytes[at] = 0xFF;
    let mut entry = 8; // past the segment header
    loop {
        let len = u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap()) as usize;
        let end = entry + envelope::HEADER + len;
        if at < end {
            let crc = envelope::crc32(&bytes[entry + envelope::HEADER..end]);
            bytes[entry + 4..entry + envelope::HEADER].copy_from_slice(&crc.to_le_bytes());
            break;
        }
        entry = end;
    }
    std::fs::write(&seg, &bytes).unwrap();

    assert!(matches!(c.sync(), Err(Error::WireCorrupt(_))), "replay must surface the entry");
    let standby = c.standby();
    let replayed = standby.metrics().durability.replayed_batches;
    assert!(replayed > 64, "the entry lies past the first drain ({replayed} replayed)");
    let q = standby.current_query_scn().ok();
    assert!(q < probe_scn, "QuerySCN {q:?} must stay below the entry's SCN {probe_scn:?}");
}

/// Restart, then drive the replay one quantum per layer with population
/// running between quanta: units are built at QuerySCNs far below the end
/// of the replayed log, and every later change must still reach their
/// SMUs. 48 rows are inserted and ten keys updated over six rounds, each
/// transaction synced.
#[test]
fn restart_spanning_drains_serves_no_stale_rows() {
    for seed in 0..CRASH_SEEDS {
        let dir = Tmp::seeded("span", seed);
        let c = cluster(durable_builder(&dir));
        let p = c.primary();
        let mut model = BTreeMap::new();
        for key in 0..48i64 {
            p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(0)]).unwrap();
            model.insert(key, 0);
            c.sync().unwrap();
        }
        let mut rng = Mix(seed);
        let keys: Vec<i64> = (0..10).map(|i| i * 4 + rng.below(4) as i64).collect();
        for round in 1..=6i64 {
            for &key in &keys {
                p.update_one(OBJ, TenantId::DEFAULT, key, "n1", Value::Int(round)).unwrap();
                model.insert(key, round);
                c.sync().unwrap();
            }
        }

        c.crash_restart_standby(0).unwrap();
        let standby = c.standby();
        let target = c.scns().current();
        let mut populated = true;
        for pass in 0.. {
            if !populated && standby.current_query_scn().unwrap() >= target {
                break;
            }
            assert!(pass < 10_000, "seed {seed}: replay did not converge");
            c.ship_redo().unwrap();
            standby.recovery.ingest_once().unwrap();
            standby.recovery.drain_workers().unwrap();
            standby.recovery.coordinator().try_advance();
            populated = standby.populate_once().unwrap().any();
        }
        c.sync().unwrap();
        assert_eq!(standby_state(&c), model, "seed {seed}: SELECT *");
        assert_n1_counts(&c, &model, &format!("seed {seed}"));
    }
}

/// Repeated crashes at different depths of the same run: each restart
/// starts from strictly more durable state, and the final answer still
/// matches the model.
#[test]
fn double_crash_still_converges() {
    let dir = Tmp::new("double");
    let c = cluster(durable_builder(&dir));
    let p = c.primary();
    let mut model = BTreeMap::new();
    for key in 0..30i64 {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key)]).unwrap();
        model.insert(key, key);
    }
    c.sync().unwrap();
    c.crash_restart_standby(0).unwrap();
    for key in 30..60i64 {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key)]).unwrap();
        model.insert(key, key);
    }
    // Second crash with the tail not yet shipped: the restart protocol and
    // the archive tier must deliver it after the restart.
    c.crash_restart_standby(0).unwrap();
    c.sync().unwrap();
    assert_eq!(standby_state(&c), model, "double crash lost or duplicated commits");
}

/// Rows the cold-tier restart tests load, and rows per unit: three units.
const TIERED_ROWS: i64 = 80;
const TIERED_UNIT_ROWS: usize = 32;

/// A durable standby whose whole column store sits in the cold tier (a
/// 1-byte memory budget), loaded with [`TIERED_ROWS`] committed rows, and
/// the model of those rows.
fn cold_tiered_cluster(dir: &Tmp) -> (Arc<AdgCluster>, BTreeMap<i64, i64>) {
    let c = cluster(durable_builder(dir).tune(|s| {
        s.imcs.memory_budget_bytes = 1;
        s.imcs.imcu_max_rows = TIERED_UNIT_ROWS;
        s.imcs.repopulate_min_scn_gap = 0;
    }));
    let p = c.primary();
    let mut model = BTreeMap::new();
    for key in 0..TIERED_ROWS {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key % 9)]).unwrap();
        model.insert(key, key % 9);
        if key % 10 == 9 {
            c.sync().unwrap();
        }
    }
    c.sync().unwrap();

    // The 1-byte budget pushes every populated unit to the cold tier; the
    // standby keeps answering bit-identically from the files.
    let evicted = c.standby().tier_until_idle().unwrap().evicted;
    assert!(evicted >= 2, "expected multiple units evicted, got {evicted}");
    assert_eq!(standby_state(&c), model, "cold-tier scan diverged before the crash");
    (c, model)
}

/// Restart from the cold columnar tier (pinned seed): a memory-budgeted
/// standby evicts every unit to disk, crashes hard, and the restart
/// re-registers the surviving cold files from their footers *before* redo
/// replays — so the column store is queryable without re-scanning the row
/// store, bit-identical to the committed model, with footer pruning and
/// cold reads visible in the tier metrics.
#[test]
fn restart_repopulates_from_cold_tier() {
    let dir = Tmp::new("coldtier");
    let (c, model) = cold_tiered_cluster(&dir);
    c.crash_restart_standby(0).unwrap();
    // Instant re-population: the cold units are registered from footers at
    // restart time, before a single redo record replays.
    let restored = c.standby().metrics().tier.cold_units;
    assert!(restored > 0, "restart must restore cold units from the tier directory");

    c.sync().unwrap();
    assert_eq!(standby_state(&c), model, "restart from cold tier lost or duplicated commits");

    // A selective predicate is served with footer pruning + cold reads —
    // no population pass ever re-scanned those blocks from the row store.
    let f = Filter::of(
        imadg_db::Predicate::new(
            &table_spec(OBJ).schema,
            "id",
            imadg_db::CmpOp::Ge,
            Value::Int(64),
        )
        .unwrap(),
    );
    let out = c.standby().query(&QueryRequest::scan(OBJ).filter(f)).unwrap();
    assert_eq!(out.count(), 16);
    let stats = out.stats.expect("imcs must serve the scan");
    assert!(stats.cold_read_units > 0, "cold units must serve the matching range: {stats:?}");
    // Footer min-max pruning skips at least half the cold units the
    // selective predicate could have read.
    let cold = stats.cold_pruned_units + stats.cold_read_units;
    assert!(
        stats.cold_pruned_units * 2 >= cold,
        "footer min-max must prune at least half the cold units: {stats:?}"
    );
    let tier = c.standby().metrics().tier;
    assert!(tier.tier_cold_reads > 0 && tier.tier_pruned_units > 0, "tier counters: {tier:?}");
}

/// Restart from the cold tier re-registers every unit from its footer, so
/// the first full scan after it is answered without building a unit. The
/// same restart with the tier directory wiped must rebuild every unit
/// from the row store. Both answer the model's rows.
#[test]
fn cold_tier_restart_builds_no_units() {
    for wipe in [false, true] {
        let dir = Tmp::seeded("coldrestart", wipe as u64);
        let (c, model) = cold_tiered_cluster(&dir);
        if wipe {
            for entry in std::fs::read_dir(&dir.0).unwrap() {
                let coldstore = entry.unwrap().path().join("coldstore");
                if coldstore.is_dir() {
                    std::fs::remove_dir_all(coldstore).unwrap();
                }
            }
        }
        c.crash_restart_standby(0).unwrap();
        c.sync().unwrap();
        assert_eq!(standby_state(&c), model, "restart (tier wiped: {wipe}) lost commits");
        let built = c.standby().metrics().population.imcus_built;
        if wipe {
            let units = (TIERED_ROWS as usize).div_ceil(TIERED_UNIT_ROWS) as u64;
            assert!(built >= units, "a wiped tier must rebuild all {units} units, built {built}");
        } else {
            assert_eq!(built, 0, "restart from the cold tier built units");
        }
    }
}

/// The acceptance fault mix for promotion runs: 5% drop, 2% duplicate,
/// reorder window 8, seed-rotated.
fn promo_faults(seed: u64) -> FaultPlan {
    FaultPlan {
        seed: seed ^ 0x9D07_E5CA,
        drop_per_mille: 50,
        duplicate_per_mille: 20,
        reorder_window: 8,
        ..FaultPlan::default()
    }
}

/// Promotion under chaos: the primary is lost mid-stream on a faulty
/// link; promotion through the node-role API must drain the wire, surface
/// every committed transaction on the new primary, and accept new DML.
#[test]
fn promotion_under_chaos_loses_no_commits() {
    for seed in 0..PROMO_SEEDS {
        let dir = Tmp::seeded("promo", seed);
        let c =
            cluster(durable_builder(&dir).tune(|s| s.transport.faults = Some(promo_faults(seed))));
        let mut rng = Mix(seed ^ 0x9107_0CAF);
        let mut model = BTreeMap::new();
        let mut next_key = 0i64;
        for round in 0..25 {
            scripted_op(&c, &mut rng, &mut next_key, &mut model);
            // Ship eagerly so the fault plan bites mid-stream; pump only
            // sometimes, leaving real gaps open at the moment of loss.
            c.ship_redo().unwrap();
            if round % 5 == 0 {
                c.standby().pump().unwrap();
            }
        }

        let (new_primary, report) = c.node(NodeRole::Standby).promote().unwrap();
        assert_eq!(new_primary.role(), NodeRole::Primary);
        assert!(report.resume_scn > report.applied_scn);

        // Zero committed loss across the role transition.
        let got: BTreeMap<i64, i64> = new_primary
            .query(&QueryRequest::scan(OBJ).filter(Filter::all()))
            .unwrap()
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(got, model, "seed {seed}: promotion lost or duplicated commits");

        // The promoted primary is a real primary: new transactions commit
        // and are immediately queryable at the resumed SCN stream.
        let p = c.primary();
        let scn =
            p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(100_000), Value::Int(1)]).unwrap();
        assert!(scn >= report.resume_scn, "seed {seed}: SCN stream must resume past apply");
        let out = new_primary.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
        assert_eq!(out.count(), model.len() + 1, "seed {seed}: post-promotion DML missing");
    }
}

/// Promotion is terminal for the standby role in this deployment: the
/// detached receivers never deliver again, and a second promote on the
/// same cluster finds an empty primary set gone — the API must keep the
/// first report's invariants rather than panic.
#[test]
fn promoted_cluster_serves_both_roles_via_node() {
    let dir = Tmp::new("roles");
    let c = cluster(durable_builder(&dir));
    let p = c.primary();
    for key in 0..20i64 {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key)]).unwrap();
    }
    c.sync().unwrap();

    let standby_node = c.node(NodeRole::Standby);
    let (new_primary, report) = standby_node.promote().unwrap();
    // The old standby stays queryable at its frozen QuerySCN through the
    // same (still Standby-role) handle.
    assert_eq!(report.frozen_query_scn, c.standby().query_scn.get());
    let frozen = standby_node.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(frozen.count(), 20);
    let fresh = new_primary.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(fresh.count(), 20);
}

/// A single-standby promotion leaves no survivor, so the promoted primary
/// ships into a zero-lane link. `sync` must still return: a lane that no
/// standby ever ACKs would keep the sender pending, and `sync` would spin.
#[test]
fn sync_after_single_standby_promotion_returns() {
    let dir = Tmp::new("promo-sync");
    let c = cluster(durable_builder(&dir));
    let p = c.primary();
    for key in 0..10i64 {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key)]).unwrap();
    }
    c.sync().unwrap();
    let (new_primary, report) = c.node(NodeRole::Standby).promote().unwrap();
    assert!(report.rehomed.is_empty(), "a one-standby farm has no survivor to re-home");

    let p = c.primary();
    for key in 100..105i64 {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(1)]).unwrap();
    }
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let syncing = c.clone();
    std::thread::spawn(move || {
        let _ = done_tx.send(syncing.sync());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("sync() after a single-standby promotion never returned")
        .unwrap();
    let out = new_primary.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 15, "pre- and post-promotion rows on the new primary");
}

/// A promoted-from member stays frozen at its last QuerySCN. Neither
/// restart may rebuild it: that would drop the frozen flag and leave a
/// member with no lane and no QuerySCN. Both refuse, and the member keeps
/// answering its pre-promotion snapshot, out of the router's reach.
#[test]
fn restart_refuses_a_frozen_member() {
    let dir = Tmp::new("frozen");
    let c = cluster(durable_builder(&dir).reader_farm(2));
    let p = c.primary();
    for key in 0..20i64 {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(key)]).unwrap();
    }
    c.sync().unwrap();
    let report = c.promote().unwrap();
    let idx = c.standbys().iter().position(|s| s.name() == report.promoted_from).unwrap();
    let p = c.primary();
    for key in 100..105i64 {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(key), Value::Int(1)]).unwrap();
    }
    c.sync().unwrap();

    let warm = c.restart_standby(idx);
    let crash = c.crash_restart_standby(idx);
    assert!(matches!(warm, Err(Error::Config(_))), "warm restart of a frozen member: {warm:?}");
    assert!(matches!(crash, Err(Error::Config(_))), "crash restart of a frozen member: {crash:?}");

    let frozen = c.standby_at(idx).unwrap();
    assert!(frozen.is_frozen(), "a refused restart leaves the member frozen");
    assert_eq!(frozen.query_scn.get(), report.frozen_query_scn);
    let out = frozen.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 20, "the frozen member answers with its pre-promotion rows");
    let decision = c.route(&QueryRequest::scan(OBJ));
    assert!(!decision.estimates[idx].eligible, "{decision:?}");
    assert!(
        !matches!(decision.target, RouteTarget::Standby { index, .. } if index == idx),
        "the router sent a query to the frozen member: {decision:?}"
    );
}

/// A link that never delivers must not hang `sync()`: once nothing has
/// shipped, applied or reached a receiver for the stall limit, it fails
/// and names the side still holding redo in flight.
#[test]
fn sync_reports_a_stalled_link() {
    let never = FaultPlan { delay_ticks: u32::MAX, ..FaultPlan::default() };
    let c = cluster(
        NodeBuilder::new().link(LinkMode::Framed).tune(|s| s.transport.faults = Some(never)),
    );
    c.primary().insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(1), Value::Int(1)]).unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let syncing = c.clone();
    std::thread::spawn(move || {
        let _ = done_tx.send(syncing.sync());
    });
    let err = done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("sync() over a link that never delivers never returned")
        .unwrap_err();
    assert!(matches!(err, Error::SyncStalled(_)), "{err}");
    // The held frames never left the sender's side of the link.
    assert!(err.to_string().ends_with("pending on primary sender"), "{err}");
}
