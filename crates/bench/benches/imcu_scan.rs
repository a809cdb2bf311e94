//! Micro-bench: raw In-Memory Scan Engine vs buffer-cache row scan.
//!
//! Quantifies the per-row engine gap that drives Figs. 9–10: an equality
//! predicate over a packed integer column / dictionary codes vs walking
//! version chains in the row store. Run with `cargo bench -p imadg-bench
//! --bench imcu_scan`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imadg_common::{ImcsConfig, ObjectId, ScnService, TenantId};
use imadg_imcs::{execute, Filter, ImcsStore, Output, PopulationEngine, Predicate, SnapshotSource};
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
        name: "t".into(),
        tenant: TenantId::DEFAULT,
        schema: schema.clone(),
        key_ordinal: 0,
        rows_per_block: 256,
    })
    .unwrap();
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
            .unwrap();
            k += 1;
        }
        txm.commit(tx);
    }
    // Populate with large units (amortizes per-unit overhead).
    let engine = PopulationEngine::new(
        store.clone(),
        Arc::new(ImcsStore::new()),
        SnapshotSource::Primary(scns.clone()),
        ImcsConfig { imcu_max_rows: 64 * 1024, build_pause_micros: 0, ..Default::default() },
    )
    .unwrap();
    engine.enable(OBJ);
    engine.run_until_idle().unwrap();
    Fixture { store, imcs: engine.imcs().clone(), scns, schema }
}

fn bench_scans(c: &mut Criterion) {
    for rows in [100_000usize, 400_000] {
        let f = fixture(rows);
        let snapshot = f.scns.current();
        let q1 = Filter::of(Predicate::eq(&f.schema, "n1", Value::Int(7)).unwrap());
        let q2 = Filter::of(Predicate::eq(&f.schema, "c1", Value::str("val_000007")).unwrap());
        let stores = [f.imcs.clone()];
        let scan = |q: &Filter| {
            execute(&stores, &f.store, OBJ, q, Output::Rows, snapshot, 1, false).unwrap().rows.len()
        };

        let mut g = c.benchmark_group("scan");
        g.throughput(Throughput::Elements(rows as u64));
        g.sample_size(20);

        g.bench_with_input(BenchmarkId::new("imcs_q1_int_eq", rows), &rows, |b, _| {
            b.iter(|| scan(&q1))
        });
        g.bench_with_input(BenchmarkId::new("imcs_q2_str_eq", rows), &rows, |b, _| {
            b.iter(|| scan(&q2))
        });
        g.bench_with_input(BenchmarkId::new("rowstore_q1_int_eq", rows), &rows, |b, _| {
            b.iter(|| {
                let mut n = 0usize;
                f.store
                    .scan_object(OBJ, snapshot, None, |_, row| {
                        if q1.eval_row(row) {
                            n += 1;
                        }
                    })
                    .unwrap();
                n
            })
        });
        // Storage-index pruned scan: out-of-domain literal skips every unit.
        let pruned = Filter::of(Predicate::eq(&f.schema, "n1", Value::Int(1_000_000)).unwrap());
        g.bench_with_input(BenchmarkId::new("imcs_pruned", rows), &rows, |b, _| {
            b.iter(|| scan(&pruned))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_scans);
criterion_main!(benches);
