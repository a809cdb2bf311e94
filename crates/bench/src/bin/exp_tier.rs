//! `exp_tier` — the capacity-tiering trajectory behind `BENCH_tier.json`.
//!
//! Two experiments over the cold columnar tier:
//!
//! * **Budget sweep.** The same table is tiered at memory budgets of
//!   100%, 50%, and 25% of its hot working set. Each point measures
//!   full-scan throughput (cold units stream back from disk), the
//!   selective-scan latency, and the footer min-max pruning ratio — how
//!   many cold units a selective predicate skipped without any file I/O.
//!   The acceptance floor ([`BenchTierDoc::MIN_PRUNING`]) requires at
//!   least half the cold units pruned.
//!
//! * **Restart race.** A durable standby evicts its whole column store to
//!   the cold tier, hard-crashes, and restarts twice: once re-registering
//!   cold files from their footers (instant re-population), once with the
//!   tier wiped so the column store must re-scan the row store. The
//!   document records both wall-clocks; validation requires the cold path
//!   to win.
//!
//! Scale knobs: `IMADG_BENCH_ROWS` (default 40 000), `IMADG_BENCH_ITERS`
//! (default 10), `IMADG_BENCH_OUT` (default `BENCH_tier.json`).
//! `exp_tier --smoke` shrinks to a seconds-long CI configuration.
//! Validate emitted documents with `bench_scan --validate`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use imadg_bench::bench_output::{
    percentile, write_json, BenchTierDoc, BenchTierRun, BENCH_SCHEMA_VERSION,
};
use imadg_common::metrics::TierMetrics;
use imadg_common::{ImcsConfig, LinkMode, ObjectId, ScnService, TenantId};
use imadg_db::{AdgCluster, NodeBuilder, Placement, QueryRequest};
use imadg_imcs::{
    execute, CmpOp, ColdTier, Filter, ImcsStore, Output, PopulationEngine, Predicate,
    SnapshotSource,
};
use imadg_redo::LogBuffer;
use imadg_storage::{ColumnType, DbaAllocator, Schema, Store, TableSpec, Value};
use imadg_txn::{InMemoryRegistry, LockTable, TxnIdService, TxnManager};

const OBJ: ObjectId = ObjectId(1);
/// Units the budget sweep splits the table into.
const UNITS: usize = 16;

fn var<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

struct Fixture {
    store: Arc<Store>,
    imcs: Arc<ImcsStore>,
    scns: Arc<ScnService>,
    schema: Schema,
}

/// A populated two-column table split into [`UNITS`] equal IMCUs.
fn fixture(rows: usize) -> Fixture {
    let store = Arc::new(Store::new());
    let scns = Arc::new(ScnService::new());
    let txm = TxnManager::new(
        store.clone(),
        scns.clone(),
        Arc::new(LogBuffer::new(imadg_common::RedoThreadId(1))),
        Arc::new(TxnIdService::new()),
        Arc::new(LockTable::new()),
        Arc::new(InMemoryRegistry::new()),
        Arc::new(DbaAllocator::default()),
    );
    let schema = Schema::of(&[("id", ColumnType::Int), ("n1", ColumnType::Int)]);
    txm.create_table(TableSpec {
        id: OBJ,
        name: "tiered".into(),
        tenant: TenantId::DEFAULT,
        schema: schema.clone(),
        key_ordinal: 0,
        rows_per_block: 256,
    })
    .expect("create table");
    let mut k = 0i64;
    while (k as usize) < rows {
        let mut tx = txm.begin(TenantId::DEFAULT);
        for _ in 0..1024.min(rows - k as usize) {
            txm.insert(&mut tx, OBJ, vec![Value::Int(k), Value::Int(k % 1000)]).expect("insert");
            k += 1;
        }
        txm.commit(tx);
    }
    let engine = PopulationEngine::new(
        store.clone(),
        Arc::new(ImcsStore::new()),
        SnapshotSource::Primary(scns.clone()),
        ImcsConfig {
            imcu_max_rows: rows.div_ceil(UNITS),
            build_pause_micros: 0,
            ..Default::default()
        },
    )
    .expect("population engine");
    engine.enable(OBJ);
    engine.run_until_idle().expect("populate");
    Fixture { store, imcs: engine.imcs().clone(), scns, schema }
}

/// Median latency (µs) and one representative result of `f` over `iters`
/// timed iterations (after one warm-up).
fn time_scan<R>(iters: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut out = f();
    let mut lat = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        out = f();
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (percentile(&lat, 50.0), out)
}

/// One budget point: tier the fixture at `pct` of its working set and
/// measure scans against the resulting hot/cold split.
fn budget_run(rows: usize, iters: usize, pct: u32, base: &std::path::Path) -> BenchTierRun {
    let f = fixture(rows);
    let working_set = f.imcs.hot_bytes() as u64;
    let budget_bytes = if pct >= 100 { 0 } else { working_set * pct as u64 / 100 };
    let dir = base.join(format!("budget-{pct}"));
    let metrics = Arc::new(TierMetrics::default());
    let tier = ColdTier::new(
        f.store.clone(),
        f.imcs.clone(),
        SnapshotSource::Primary(f.scns.clone()),
        ImcsConfig {
            imcu_max_rows: rows.div_ceil(UNITS),
            memory_budget_bytes: budget_bytes as usize,
            cold_tier_dir: Some(dir.to_string_lossy().into_owned()),
            repopulate_min_scn_gap: 0,
            ..Default::default()
        },
        dir,
        metrics,
    );
    tier.run_until_idle().expect("tier convergence");
    let (bytes_on_disk, cold_units) = tier.sample();
    let obj = f.imcs.object(OBJ).expect("object populated");
    let hot_units = obj.handles().iter().filter(|h| !h.is_cold()).count() as u64;

    let at = f.scns.current();
    let all = Filter::all();
    // The selective predicate hits exactly the first unit's id range, so
    // every *other* cold unit must fall to the footer min-max check.
    let cut = (rows / UNITS) as i64;
    let selective =
        Filter::of(Predicate::new(&f.schema, "id", CmpOp::Lt, Value::Int(cut)).expect("predicate"));

    let stores = [f.imcs.clone()];
    let scan = |filter: &Filter| {
        execute(&stores, &f.store, OBJ, filter, Output::Rows, at, 1, false).expect("scan")
    };
    let (full_p50_us, full) = time_scan(iters, || scan(&all));
    assert_eq!(full.rows.len(), rows, "budget {pct}%: full scan dropped rows");
    let (selective_p50_us, sel) = time_scan(iters, || scan(&selective));
    assert_eq!(sel.rows.len(), cut as usize, "budget {pct}%: selective scan wrong");

    let pruned = sel.stats.cold_pruned_units as u64;
    let read = sel.stats.cold_read_units as u64;
    let touched = pruned + read;
    let run = BenchTierRun {
        name: format!("budget_{pct}"),
        budget_pct: pct,
        budget_bytes,
        hot_units,
        cold_units,
        bytes_on_disk,
        rows_per_sec: rows as f64 / (full_p50_us / 1e6),
        full_p50_us,
        selective_p50_us,
        cold_read_units: read,
        cold_pruned_units: pruned,
        pruning_ratio: if touched > 0 { pruned as f64 / touched as f64 } else { 0.0 },
    };
    println!(
        "budget_{pct}: {hot_units} hot + {cold_units} cold units, {:.0} rows/s full, \
         {selective_p50_us:.1} µs selective, pruning {:.0}%",
        run.rows_per_sec,
        run.pruning_ratio * 100.0
    );
    run
}

/// A durable standby loaded with `rows` committed rows; `budget` of one
/// byte forces the whole column store cold after `tier_until_idle`.
fn durable_cluster(dir: &std::path::Path, rows: usize, budget: usize) -> Arc<AdgCluster> {
    let _ = std::fs::remove_dir_all(dir);
    let mut b = NodeBuilder::new()
        .link(LinkMode::Framed)
        .durability(dir.to_string_lossy())
        .segment_bytes(64 * 1024)
        .tune(|s| {
            s.imcs.imcu_max_rows = rows.div_ceil(UNITS);
            s.imcs.repopulate_min_scn_gap = 0;
        });
    if budget > 0 {
        b = b.memory_budget(budget);
    }
    let c = b.build().expect("build cluster");
    c.create_table(TableSpec {
        id: OBJ,
        name: "tiered".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[("id", ColumnType::Int), ("n1", ColumnType::Int)]),
        key_ordinal: 0,
        rows_per_block: 256,
    })
    .expect("create table");
    c.set_placement(OBJ, Placement::StandbyOnly).expect("placement");
    let p = c.primary();
    let mut k = 0i64;
    while (k as usize) < rows {
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        for _ in 0..512.min(rows - k as usize) {
            p.txm.insert(&mut tx, OBJ, vec![Value::Int(k), Value::Int(k % 1000)]).expect("insert");
            k += 1;
        }
        p.txm.commit(tx);
        c.sync().expect("sync");
    }
    c
}

/// Crash and restart one loaded standby; returns wall-clock to a
/// converged, fully-queryable node, milliseconds.
fn timed_restart(c: &AdgCluster, rows: usize, label: &str) -> f64 {
    let start = Instant::now();
    c.crash_restart_standby(0).expect("crash restart");
    c.sync().expect("recovery sync");
    let count = c
        .standby()
        .query(&QueryRequest::scan(OBJ).filter(imadg_db::Filter::all()))
        .expect("query")
        .count();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(count, rows, "{label}: rows lost across restart");
    println!("{label}: {count} rows queryable {ms:.1} ms after the crash");
    ms
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().skip(1).any(|a| a != "--smoke") {
        eprintln!("usage: exp_tier [--smoke]");
        return ExitCode::FAILURE;
    }
    let rows: usize = var("IMADG_BENCH_ROWS", if smoke { 8_000 } else { 40_000 });
    let iters: usize = var("IMADG_BENCH_ITERS", if smoke { 5 } else { 10 });
    let out_path = std::env::var("IMADG_BENCH_OUT").unwrap_or_else(|_| "BENCH_tier.json".into());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("exp_tier: {rows} rows, {UNITS} units, {iters} iters/scan, {cores} core(s)");

    let base = std::env::temp_dir().join(format!("imadg-exp-tier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let runs = vec![
        budget_run(rows, iters, 100, &base),
        budget_run(rows, iters, 50, &base),
        budget_run(rows, iters, 25, &base),
    ];

    // The restart race: footer re-registration vs. row-store re-scan.
    let cold = durable_cluster(&base.join("restart-cold"), rows, 1);
    let evicted = cold.standby().tier_until_idle().expect("tiering").evicted;
    assert!(evicted > 0, "restart race: nothing evicted before the crash");
    let restart_cold_ms = timed_restart(&cold, rows, "restart_cold_tier");
    drop(cold);
    let rescan = durable_cluster(&base.join("restart-rescan"), rows, 0);
    let restart_rescan_ms = timed_restart(&rescan, rows, "restart_row_store_rescan");
    drop(rescan);
    let _ = std::fs::remove_dir_all(&base);

    let doc = BenchTierDoc {
        schema_version: BENCH_SCHEMA_VERSION,
        bench: "tier".into(),
        rows,
        cores,
        query: format!("id < {}", rows / UNITS),
        runs,
        restart_cold_ms,
        restart_rescan_ms,
    };
    if let Err(e) = doc.validate() {
        eprintln!("exp_tier: emitted document failed validation: {e}");
        return ExitCode::FAILURE;
    }
    write_json(&out_path, &doc).expect("write BENCH_tier.json");
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
