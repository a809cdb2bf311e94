//! Micro-bench: redo apply throughput with and without the mining
//! component (the "thin layer" requirement of paper §III / §IV.C).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use imadg_common::{
    Dba, ImcsConfig, MetricsRegistry, ObjectId, ObjectSet, Scn, TenantId, TxnId, WorkerId,
};
use imadg_imcs::ImcsStore;
use imadg_recovery::{work_queue, DbimAdg, LocalFlushTarget, WorkItem, Worker};
use imadg_storage::{ChangeOp, ChangeVector, ColumnType, Row, Schema, Store, TableSpec, Value};

const ROWS_PER_BLOCK: u16 = 512;
const CHANGES: u64 = 20_000;

fn store() -> Arc<Store> {
    let s = Arc::new(Store::new());
    s.create_table(TableSpec {
        id: ObjectId(1),
        name: "t".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[("id", ColumnType::Int), ("v", ColumnType::Int)]),
        key_ordinal: 0,
        rows_per_block: ROWS_PER_BLOCK,
    })
    .unwrap();
    s
}

fn run_apply(with_mining: bool) -> u64 {
    let s = store();
    let registry = MetricsRegistry::default();
    let adg = with_mining.then(|| adg(&s, &registry));
    let (tx, rx) = work_queue();
    let mut w = Worker::new(WorkerId(0), rx, s, adg, &registry);
    let mut scn = 1u64;
    for b in 0..(CHANGES / u64::from(ROWS_PER_BLOCK) + 1) {
        tx.send(WorkItem::Change {
            scn: Scn(scn),
            cv: ChangeVector {
                dba: Dba(b + 1),
                object: ObjectId(1),
                tenant: TenantId::DEFAULT,
                txn: TxnId(1),
                op: ChangeOp::Format { capacity: ROWS_PER_BLOCK },
            },
        })
        .unwrap();
        scn += 1;
    }
    for i in 0..CHANGES {
        tx.send(WorkItem::Change {
            scn: Scn(scn),
            cv: ChangeVector {
                dba: Dba(i / u64::from(ROWS_PER_BLOCK) + 1),
                object: ObjectId(1),
                tenant: TenantId::DEFAULT,
                txn: TxnId(i % 32),
                op: ChangeOp::Insert {
                    slot: (i % u64::from(ROWS_PER_BLOCK)) as u16,
                    row: Row::new(vec![Value::Int(i as i64), Value::Int(1)]),
                },
            },
        })
        .unwrap();
        scn += 1;
    }
    w.run_batch(usize::MAX).unwrap() as u64
}

fn adg(store: &Arc<Store>, registry: &MetricsRegistry) -> Arc<DbimAdg> {
    let enabled = Arc::new(ObjectSet::new());
    enabled.enable(ObjectId(1));
    let target = Arc::new(LocalFlushTarget::new(Arc::new(ImcsStore::new())));
    Arc::new(
        DbimAdg::new(&ImcsConfig::default(), 1, enabled, store.clone(), target, registry).unwrap(),
    )
}

fn bench_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("apply");
    g.throughput(Throughput::Elements(CHANGES));
    g.sample_size(15);
    g.bench_function("without_mining", |b| b.iter(|| run_apply(false)));
    g.bench_function("with_mining", |b| b.iter(|| run_apply(true)));
    g.finish();
}

criterion_group!(benches, bench_apply);
criterion_main!(benches);
