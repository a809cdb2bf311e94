//! Phase decomposition of one vectorized scan — run with
//! `cargo run --release -p imadg-imcs --example scan_profile` to see
//! where a scan's time goes (kernel, validity, row-image fetch, driver) —
//! followed by the per-unit cost of repopulating a 101-column unit, full
//! build against shared-column rebuild.

use std::sync::Arc;
use std::time::Instant;

use imadg_common::{ImcsConfig, ObjectId, ScnService, TenantId};
use imadg_imcs::{
    execute, Filter, ImcsStore, Imcu, Output, PopulationEngine, Predicate, SnapshotSource,
};
use imadg_redo::LogBuffer;
use imadg_storage::{ColumnType, DbaAllocator, Row, RowLoc, Schema, Store, TableSpec, Value};
use imadg_txn::{InMemoryRegistry, LockTable, TxnIdService, TxnManager};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const OBJ: ObjectId = ObjectId(1);

fn main() {
    let rows: usize =
        std::env::var("IMADG_BENCH_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(400_000);
    let store = Arc::new(Store::new());
    let scns = Arc::new(ScnService::new());
    let txm = manager(&store, &scns);
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
    let engine = PopulationEngine::new(
        store.clone(),
        Arc::new(ImcsStore::new()),
        SnapshotSource::Primary(scns.clone()),
        ImcsConfig { imcu_max_rows: 64 * 1024, build_pause_micros: 0, ..Default::default() },
    )
    .unwrap();
    engine.enable(OBJ);
    engine.run_until_idle().unwrap();
    let imcs = engine.imcs().clone();
    let snapshot = scns.current();
    let q = Filter::of(Predicate::eq(&schema, "n1", Value::Int(7)).unwrap());
    let handles = imcs.object(OBJ).unwrap().handles();
    println!("{} units", handles.len());

    let iters = 50;
    let time = |label: &str, f: &mut dyn FnMut() -> usize| {
        let mut n = 0;
        for _ in 0..3 {
            n = f();
        }
        let t = Instant::now();
        for _ in 0..iters {
            n = f();
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / iters as f64;
        println!("{label:<28} {us:>10.1} us  ({n})");
    };

    time("filter_bitmap", &mut || {
        let mut total = 0usize;
        for h in &handles {
            let (imcu, _smu) = h.pair();
            if let Some(sel) = imcu.filter_bitmap(&q) {
                total += sel.count();
            }
        }
        total
    });
    // Survivors' row images come from the row store, one block latch per
    // block run, re-checked against the predicate — the scan engine's
    // materialization.
    let fetch = |imcu: &imadg_imcs::Imcu, sel: &imadg_imcs::SelBitmap, out: &mut Vec<Row>| {
        let mut locs: Vec<RowLoc> = sel.iter_ones().map(|rn| imcu.loc(rn)).collect();
        store
            .fetch_rows_batched(&mut locs, snapshot, |_, row| {
                if q.eval_row(row) {
                    out.push(row.clone());
                }
            })
            .unwrap();
    };
    time("filter_bitmap+fetch", &mut || {
        let mut rows_out = Vec::new();
        for h in &handles {
            let (imcu, _smu) = h.pair();
            if let Some(sel) = imcu.filter_bitmap(&q) {
                fetch(&imcu, &sel, &mut rows_out);
            }
        }
        rows_out.len()
    });
    // Decompose the fetch phase against precomputed bitmaps.
    let pre: Vec<_> = handles
        .iter()
        .filter_map(|h| {
            let (imcu, _smu) = h.pair();
            imcu.filter_bitmap(&q).map(|sel| (imcu, sel))
        })
        .collect();
    time("iter_ones only", &mut || pre.iter().map(|(_, sel)| sel.iter_ones().count()).sum());
    time("fetch only", &mut || {
        let mut rows_out = Vec::new();
        for (imcu, sel) in &pre {
            fetch(imcu, sel, &mut rows_out);
        }
        rows_out.len()
    });
    time("smu pair+validity", &mut || {
        let mut total = 0usize;
        for h in &handles {
            let (imcu, smu) = h.pair();
            let view = smu.read();
            if view.validity_mask(imcu.rows(), |l| imcu.rownum(l)).is_some() {
                total += 1;
            }
        }
        total
    });
    time("block_dbas", &mut || store.block_dbas(OBJ).unwrap().len());
    let stores = [imcs.clone()];
    let run =
        |output: Output| execute(&stores, &store, OBJ, &q, output, snapshot, 1, false).unwrap();
    time("full execute rows d1", &mut || run(Output::Rows).rows.len());
    time("full aggregate d1", &mut || run(Output::Aggregate(1)).aggregates.unwrap().count as usize);
    // Does a buffer-cache scan (the bench's first measured config) degrade
    // subsequent columnar scans in the same process?
    time("row_store once", &mut || {
        let mut n = 0usize;
        store
            .scan_object(OBJ, snapshot, None, |_, row| {
                if q.eval_row(row) {
                    n += 1;
                }
            })
            .unwrap();
        n
    });
    time("full execute rows d1 again", &mut || run(Output::Rows).rows.len());

    repopulation_profile();
}

fn manager(store: &Arc<Store>, scns: &Arc<ScnService>) -> TxnManager {
    TxnManager::new(
        store.clone(),
        scns.clone(),
        Arc::new(LogBuffer::new(imadg_common::RedoThreadId(1))),
        Arc::new(TxnIdService::new()),
        Arc::new(LockTable::new()),
        Arc::new(InMemoryRegistry::new()),
        Arc::new(DbaAllocator::default()),
    )
}

/// Per-unit repopulation cost on the paper's 101-column wide table
/// (id, n1..n50, c1..c50; 64 rows per block): a full 2 048-row build
/// against a rebuild after 0.5 % of the unit's rows had `n1` updated.
fn repopulation_profile() {
    const WIDE: ObjectId = ObjectId(2);
    const UNIT_ROWS: i64 = 2048;
    let store = Arc::new(Store::new());
    let scns = Arc::new(ScnService::new());
    let txm = manager(&store, &scns);
    let mut cols = vec![("id".to_string(), ColumnType::Int)];
    cols.extend((1..=50).map(|i| (format!("n{i}"), ColumnType::Int)));
    cols.extend((1..=50).map(|i| (format!("c{i}"), ColumnType::Varchar)));
    let named: Vec<(&str, ColumnType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::of(&named);
    txm.create_table(TableSpec {
        id: WIDE,
        name: "wide".into(),
        tenant: TenantId::DEFAULT,
        schema: schema.clone(),
        key_ordinal: 0,
        rows_per_block: 64,
    })
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(2);
    let mut tx = txm.begin(TenantId::DEFAULT);
    for k in 0..UNIT_ROWS {
        let mut row = vec![Value::Int(k)];
        row.extend((0..50).map(|_| Value::Int(rng.gen_range(0..1000))));
        row.extend((0..50).map(|_| Value::str(format!("val_{:06}", rng.gen_range(0..1000)))));
        txm.insert(&mut tx, WIDE, row).unwrap();
    }
    txm.commit(tx);
    let dbas = store.block_dbas(WIDE).unwrap();
    let build = |snapshot| {
        Imcu::build(&store, WIDE, TenantId::DEFAULT, dbas.clone(), snapshot, &schema).unwrap()
    };
    let unit = build(scns.current());

    let mut tx = txm.begin(TenantId::DEFAULT);
    let touched = UNIT_ROWS / 200; // 0.5 %
    for _ in 0..touched {
        let key = rng.gen_range(0..UNIT_ROWS);
        txm.update_column_by_key(&mut tx, WIDE, key, "n1", Value::Int(rng.gen_range(0..1000)))
            .unwrap();
    }
    txm.commit(tx);
    let snapshot = scns.current();

    let time = |label: &str, iters: u32, f: &mut dyn FnMut() -> Imcu| {
        let mut unit = f();
        let t = Instant::now();
        for _ in 0..iters {
            unit = f();
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / f64::from(iters);
        println!("{label:<28} {us:>10.1} us  ({} rows)", unit.rows());
    };
    println!("101-column unit, {UNIT_ROWS} rows, {touched} rows' n1 updated");
    time("full build", 10, &mut || build(snapshot));
    time("rebuild (shared columns)", 50, &mut || {
        unit.rebuild(&store, snapshot, &schema, &[]).unwrap()
    });
    let rebuilt = unit.rebuild(&store, snapshot, &schema, &[]).unwrap();
    println!("columns shared by the rebuild: {} of 101", rebuilt.columns_shared_with(&unit));
}
