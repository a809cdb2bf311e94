//! `bench_scan` — the machine-readable scan-engine benchmark behind
//! `BENCH_scan.json`.
//!
//! Measures one equality predicate over the same table through every
//! engine generation, so each datapoint carries its own baselines:
//!
//! * `row_store`      — buffer-cache scan walking version chains
//! * `scalar`         — the pre-vectorization scan engine
//!   ([`imadg_imcs::scalar`]), kept as the parity oracle
//! * `vectorized_d1`  — bitmap kernels, serial
//! * `vectorized_d2/4` — bitmap kernels fanned across a query-scoped
//!   worker pool (wall-clock gains require real cores; the `cores` field
//!   in the document records what the host had)
//! * `aggregate_d1`   — masked SUM push-down over the same predicate
//!
//! Scale knobs: `IMADG_BENCH_ROWS` (default 400 000), `IMADG_BENCH_ITERS`
//! (default 20 timed iterations), `IMADG_BENCH_OUT` (default
//! `BENCH_scan.json`).
//!
//! `bench_scan --validate <file>` re-parses an existing document against
//! the schema and exits non-zero when it is malformed — the CI bench-smoke
//! gate.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use imadg_bench::bench_output::{
    percentile, write_json, BenchEntry, BenchOltapDoc, BenchReaderFarmDoc, BenchRecoveryDoc,
    BenchScanDoc, BenchTierDoc, BENCH_SCHEMA_VERSION,
};
use imadg_common::{ImcsConfig, ObjectId, ScnService, TenantId};
use imadg_imcs::{execute, scalar, ImcsStore, Output, PopulationEngine, Predicate, SnapshotSource};
use imadg_redo::LogBuffer;
use imadg_storage::{ColumnType, DbaAllocator, Schema, Store, TableSpec, Value};
use imadg_txn::{InMemoryRegistry, LockTable, TxnIdService, TxnManager};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const OBJ: ObjectId = ObjectId(1);

struct Fixture {
    store: Arc<Store>,
    imcs: Arc<ImcsStore>,
    scns: Arc<ScnService>,
    schema: Schema,
}

/// Narrow three-column table (id, n1 int, c1 varchar) populated into
/// large IMCUs — same shape as the criterion micro-bench, sized by env.
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
    let schema = Schema::of(&[
        ("id", ColumnType::Int),
        ("n1", ColumnType::Int),
        ("c1", ColumnType::Varchar),
    ]);
    txm.create_table(TableSpec {
        id: OBJ,
        name: "bench".into(),
        tenant: TenantId::DEFAULT,
        schema: schema.clone(),
        key_ordinal: 0,
        rows_per_block: 256,
    })
    .expect("create table");
    let mut rng = SmallRng::seed_from_u64(1);
    let mut k = 0i64;
    while (k as usize) < rows {
        let mut tx = txm.begin(TenantId::DEFAULT);
        for _ in 0..1024.min(rows - k as usize) {
            txm.insert(
                &mut tx,
                OBJ,
                vec![
                    Value::Int(k),
                    Value::Int(rng.gen_range(0..1000)),
                    Value::str(format!("val_{:06}", rng.gen_range(0..1000))),
                ],
            )
            .expect("insert");
            k += 1;
        }
        txm.commit(tx);
    }
    let engine = PopulationEngine::new(
        store.clone(),
        Arc::new(ImcsStore::new()),
        SnapshotSource::Primary(scns.clone()),
        ImcsConfig { imcu_max_rows: 64 * 1024, build_pause_micros: 0, ..Default::default() },
    )
    .expect("population engine");
    engine.enable(OBJ);
    engine.run_until_idle().expect("populate");
    Fixture { store, imcs: engine.imcs().clone(), scns, schema }
}

struct Measured {
    name: &'static str,
    degree: usize,
    lat_us: Vec<f64>,
    matched: u64,
}

/// One benchmark config: (name, parallel degree, measured closure).
type Config<'a> = (&'static str, usize, Box<dyn FnMut() -> usize + 'a>);

/// Time every config for `iters` iterations, interleaved round-robin
/// (round = one iteration of each config, in order). Measuring each
/// config in its own block would let process-state drift — allocator and
/// cache pollution from the 40 ms buffer-cache scans, plus host-level
/// frequency/scheduling changes over the run — land unevenly on whichever
/// configs run last; interleaving exposes every config to the same mix.
/// Latencies come back sorted ascending per config.
fn measure_all(iters: usize, mut configs: Vec<Config<'_>>) -> Vec<Measured> {
    let mut matched = vec![0usize; configs.len()];
    for _ in 0..2 {
        for (i, (_, _, run)) in configs.iter_mut().enumerate() {
            matched[i] = run();
        }
    }
    let mut lat_us = vec![Vec::with_capacity(iters); configs.len()];
    for _ in 0..iters {
        for (i, (_, _, run)) in configs.iter_mut().enumerate() {
            let t = Instant::now();
            matched[i] = run();
            lat_us[i].push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    configs
        .iter()
        .zip(lat_us)
        .zip(matched)
        .map(|(((name, degree, _), mut lat), m)| {
            lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            Measured { name, degree: *degree, lat_us: lat, matched: m as u64 }
        })
        .collect()
}

impl Measured {
    fn mean_us(&self) -> f64 {
        self.lat_us.iter().sum::<f64>() / self.lat_us.len() as f64
    }
}

fn entry(m: &Measured, rows: usize, row_store_mean_us: f64, scalar_mean_us: f64) -> BenchEntry {
    let mean = m.mean_us();
    BenchEntry {
        name: m.name.into(),
        degree: m.degree,
        iterations: m.lat_us.len(),
        matched_rows: m.matched,
        rows_per_sec: rows as f64 / (mean / 1e6),
        p50_us: percentile(&m.lat_us, 50.0),
        p99_us: percentile(&m.lat_us, 99.0),
        speedup_vs_row_store: row_store_mean_us / mean,
        speedup_vs_scalar: scalar_mean_us / mean,
    }
}

fn run_bench() -> ExitCode {
    fn var<T: std::str::FromStr>(name: &str, default: T) -> T {
        std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    }
    let rows: usize = var("IMADG_BENCH_ROWS", 400_000usize);
    let iters: usize = var("IMADG_BENCH_ITERS", 20usize);
    let out_path = std::env::var("IMADG_BENCH_OUT").unwrap_or_else(|_| "BENCH_scan.json".into());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!("bench_scan: {rows} rows, {iters} iters/config, {cores} core(s)");
    let f = fixture(rows);
    let snapshot = f.scns.current();
    // IMADG_BENCH_TARGET overrides the literal (diagnostics: an
    // out-of-domain value isolates the driver floor via full pruning).
    let target: i64 = var("IMADG_BENCH_TARGET", 7i64);
    let q = imadg_imcs::Filter::of(
        Predicate::eq(&f.schema, "n1", Value::Int(target)).expect("predicate"),
    );

    // Masked aggregation COUNT equals the scan's matched rows, keeping the
    // document's sanity anchor intact across every entry.
    let ordinal = f.schema.ordinal("n1").expect("n1 ordinal");
    let stores = [f.imcs.clone()];
    let run = |output: Output, degree: usize| {
        execute(&stores, &f.store, OBJ, &q, output, snapshot, degree, false).expect("executor")
    };
    let vectorized = |degree: usize| move || run(Output::Rows, degree).rows.len();
    let configs: Vec<Config> = vec![
        (
            "row_store",
            1,
            Box::new(|| {
                let mut n = 0usize;
                f.store
                    .scan_object(OBJ, snapshot, None, |_, row| {
                        if q.eval_row(row) {
                            n += 1;
                        }
                    })
                    .expect("row-store scan");
                n
            }),
        ),
        (
            "scalar",
            1,
            Box::new(|| {
                scalar::scan_scalar(&f.imcs, &f.store, OBJ, &q, snapshot)
                    .expect("scalar scan")
                    .expect("object populated")
                    .rows
                    .len()
            }),
        ),
        ("vectorized_d1", 1, Box::new(vectorized(1))),
        ("vectorized_d2", 2, Box::new(vectorized(2))),
        ("vectorized_d4", 4, Box::new(vectorized(4))),
        (
            "aggregate_d1",
            1,
            Box::new(|| {
                let aggs = run(Output::Aggregate(ordinal), 1).aggregates.expect("aggregates");
                aggs.count as usize
            }),
        ),
    ];
    let measured = measure_all(iters, configs);

    let row_store_mean = measured[0].mean_us();
    let scalar_mean = measured[1].mean_us();
    let doc = BenchScanDoc {
        schema_version: BENCH_SCHEMA_VERSION,
        bench: "scan".into(),
        rows,
        cores,
        query: format!("n1 = {target}"),
        entries: measured.iter().map(|m| entry(m, rows, row_store_mean, scalar_mean)).collect(),
    };
    if let Err(e) = doc.validate() {
        eprintln!("bench_scan: produced malformed document: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "{:<16} {:>6} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "config", "degree", "rows/s", "p50_us", "p99_us", "vs_row", "vs_scalar"
    );
    for e in &doc.entries {
        println!(
            "{:<16} {:>6} {:>12.0} {:>12.1} {:>12.1} {:>7.1}x {:>7.2}x",
            e.name,
            e.degree,
            e.rows_per_sec,
            e.p50_us,
            e.p99_us,
            e.speedup_vs_row_store,
            e.speedup_vs_scalar
        );
    }
    if let Err(e) = write_json(&out_path, &doc) {
        eprintln!("bench_scan: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

/// The dispatch header every benchmark document carries; the `bench` tag
/// names the family, which selects the schema (extra fields are ignored
/// at this probing stage).
#[derive(serde::Deserialize)]
struct BenchProbe {
    schema_version: u32,
    bench: String,
}

/// Parse + validate an existing `BENCH_*.json` document; the `bench` tag
/// selects the schema, and an unknown family or schema version is an
/// error — new document kinds must be registered here before CI accepts
/// them.
fn validate_file(path: &str) -> Result<String, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let probe: BenchProbe =
        serde_json::from_str(&raw).map_err(|e| format!("no bench header: {e}"))?;
    if probe.schema_version != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "unknown schema_version {} (expected {BENCH_SCHEMA_VERSION})",
            probe.schema_version
        ));
    }
    fn check<T: serde::Deserialize>(
        raw: &str,
        validate: fn(&T) -> Result<(), String>,
    ) -> Result<(), String> {
        let doc: T = serde_json::from_str(raw).map_err(|e| e.to_string())?;
        validate(&doc)
    }
    match probe.bench.as_str() {
        "scan" => check(&raw, BenchScanDoc::validate),
        "oltap" => check(&raw, BenchOltapDoc::validate),
        "recovery" => check(&raw, BenchRecoveryDoc::validate),
        "readerfarm" => check(&raw, BenchReaderFarmDoc::validate),
        "tier" => check(&raw, BenchTierDoc::validate),
        other => Err(format!("unknown bench family {other:?}")),
    }?;
    Ok(probe.bench)
}

/// Validate the given documents, or — with no paths — discover and
/// validate every `BENCH_*.json` in the current directory. Any malformed,
/// unknown-family, or unknown-version document fails the run.
fn validate_all(paths: &[String]) -> ExitCode {
    let discovered: Vec<String> = if paths.is_empty() {
        let mut found: Vec<String> = std::fs::read_dir(".")
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                    .collect()
            })
            .unwrap_or_default();
        found.sort();
        found
    } else {
        paths.to_vec()
    };
    if discovered.is_empty() {
        eprintln!("bench_scan --validate: no BENCH_*.json documents found");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &discovered {
        match validate_file(path) {
            Ok(family) => println!("{path}: valid {family} document"),
            Err(e) => {
                eprintln!("bench_scan --validate: {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--validate") => validate_all(&args[2..]),
        Some(flag) => {
            eprintln!("bench_scan: unknown flag {flag}");
            eprintln!("usage: bench_scan [--validate [BENCH_*.json ...]]");
            ExitCode::FAILURE
        }
        None => run_bench(),
    }
}
