//! `exp_recovery` — the durability trajectory behind `BENCH_recovery.json`.
//!
//! Times the two disasters the durable-redo layer exists for, end to end
//! on a real on-disk log:
//!
//! * `restart`   — standby hard crash; restart replays and re-mines the
//!   whole wal + archive.
//! * `promotion` — primary loss; the standby drains the tail and is
//!   rebuilt as the new primary.
//!
//! Each scenario reports wall-clock from disaster to a converged,
//! queryable node, plus the records replayed that explain the time.
//!
//! Scale knobs: `IMADG_BENCH_ROWS` (default 20 000 committed rows),
//! `IMADG_BENCH_OUT` (default `BENCH_recovery.json`). Validate emitted
//! documents with `bench_scan --validate <file>`.

use std::process::ExitCode;
use std::time::Instant;

use imadg_bench::bench_output::{
    write_json, BenchRecoveryDoc, BenchRecoveryRun, BENCH_SCHEMA_VERSION,
};
use imadg_common::{LinkMode, ObjectId, TenantId};
use imadg_db::{
    AdgCluster, ColumnType, Filter, NodeBuilder, NodeRole, Placement, QueryRequest, Schema,
    TableSpec, Value,
};

const OBJ: ObjectId = ObjectId(1);
const BATCH: usize = 512;

fn var<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// A durable framed deployment over a fresh log directory, loaded with
/// `rows` committed rows shipped, mined, and populated on the standby.
fn loaded_cluster(dir: &std::path::Path, rows: usize) -> std::sync::Arc<AdgCluster> {
    let _ = std::fs::remove_dir_all(dir);
    let c = NodeBuilder::new()
        .link(LinkMode::Framed)
        .durability(dir.to_string_lossy())
        .segment_bytes(64 * 1024)
        .build()
        .expect("build cluster");
    c.create_table(TableSpec {
        id: OBJ,
        name: "accounts".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[("id", ColumnType::Int), ("balance", ColumnType::Int)]),
        key_ordinal: 0,
        rows_per_block: 256,
    })
    .expect("create table");
    c.set_placement(OBJ, Placement::StandbyOnly).expect("placement");

    let p = c.primary();
    let mut k = 0i64;
    while (k as usize) < rows {
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        for _ in 0..BATCH.min(rows - k as usize) {
            p.txm.insert(&mut tx, OBJ, vec![Value::Int(k), Value::Int(100)]).expect("insert");
            k += 1;
        }
        p.txm.commit(tx);
        // Per-batch sync: sealed segments accumulate the way they would
        // under a steady commit stream.
        c.sync().expect("sync");
    }
    c
}

fn standby_count(c: &AdgCluster) -> u64 {
    c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).expect("query").count() as u64
}

/// Crash the standby, restart it from disk, and converge; returns the
/// measured run.
fn restart_scenario(dir: &std::path::Path, rows: usize) -> BenchRecoveryRun {
    let c = loaded_cluster(dir, rows);
    let persisted = c.standby().metrics().durability.records_persisted;

    let start = Instant::now();
    c.crash_restart_standby(0).expect("crash restart");
    c.sync().expect("recovery sync");
    let committed = standby_count(&c);
    let elapsed = start.elapsed();

    let d = c.standby().metrics().durability;
    assert_eq!(committed, rows as u64, "restart: committed rows lost in recovery");
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "restart: {committed} rows back in {:.1} ms ({} replayed)",
        secs * 1e3,
        d.replayed_records
    );
    let staleness = &c.standby().metrics().staleness.e2e;
    BenchRecoveryRun {
        name: "restart".into(),
        committed_rows: committed,
        records_persisted: persisted,
        replayed_records: d.replayed_records,
        recovery_ms: secs * 1e3,
        replayed_records_per_sec: d.replayed_records as f64 / secs,
        staleness_p50_us: staleness.p50() as f64,
        staleness_p99_us: staleness.p99() as f64,
    }
}

/// Lose the primary and promote the standby; returns the measured run.
fn promotion_scenario(dir: &std::path::Path, rows: usize) -> BenchRecoveryRun {
    let c = loaded_cluster(dir, rows);
    let persisted = c.standby().metrics().durability.records_persisted;

    let start = Instant::now();
    let (new_primary, _report) = c.node(NodeRole::Standby).promote().expect("promote");
    let committed =
        new_primary.query(&QueryRequest::scan(OBJ).filter(Filter::all())).expect("query").count()
            as u64;
    let elapsed = start.elapsed();

    assert_eq!(new_primary.role(), NodeRole::Primary);
    assert_eq!(committed, rows as u64, "promotion: committed rows lost");
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!("promotion: new primary serving {committed} rows in {:.1} ms", secs * 1e3);
    let staleness = &new_primary.metrics().staleness.e2e;
    BenchRecoveryRun {
        name: "promotion".into(),
        committed_rows: committed,
        records_persisted: persisted,
        replayed_records: 0,
        recovery_ms: secs * 1e3,
        replayed_records_per_sec: 0.0,
        staleness_p50_us: staleness.p50() as f64,
        staleness_p99_us: staleness.p99() as f64,
    }
}

fn main() -> ExitCode {
    let rows: usize = var("IMADG_BENCH_ROWS", 20_000usize);
    let out_path =
        std::env::var("IMADG_BENCH_OUT").unwrap_or_else(|_| "BENCH_recovery.json".into());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("exp_recovery: {rows} committed rows, {cores} core(s)");

    let base = std::env::temp_dir().join(format!("imadg-exp-recovery-{}", std::process::id()));
    let runs = vec![
        restart_scenario(&base.join("restart"), rows),
        promotion_scenario(&base.join("promo"), rows),
    ];
    let _ = std::fs::remove_dir_all(&base);

    let doc = BenchRecoveryDoc {
        schema_version: BENCH_SCHEMA_VERSION,
        bench: "recovery".into(),
        rows,
        cores,
        runs,
    };
    if let Err(e) = doc.validate() {
        eprintln!("exp_recovery: emitted document failed validation: {e}");
        return ExitCode::FAILURE;
    }
    write_json(&out_path, &doc).expect("write BENCH_recovery.json");
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
