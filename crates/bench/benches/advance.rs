//! Micro-bench: QuerySCN advancement latency — commit-table chop +
//! worklink flush to SMUs (paper §III.D) — as a function of the number of
//! pending committed transactions.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imadg_common::{
    Dba, ImcsConfig, MetricsRegistry, ObjectId, ObjectSet, Scn, TenantId, TxnId, WorkerId,
};
use imadg_imcs::{ImcsStore, Imcu, ImcuHandle};
use imadg_recovery::{CommitNode, DbimAdg, InvalidationRecord, LocalFlushTarget};
use imadg_storage::Store;

fn setup(pending_txns: u64, records_per_txn: u64) -> Arc<DbimAdg> {
    let imcs = Arc::new(ImcsStore::new());
    let obj = imcs.ensure_object(ObjectId(1), TenantId::DEFAULT);
    obj.register(Arc::new(ImcuHandle::new(Imcu::pending(
        ObjectId(1),
        TenantId::DEFAULT,
        (0..64).map(Dba).collect(),
        Scn(1),
        1,
    ))));
    let enabled = Arc::new(ObjectSet::new());
    enabled.enable(ObjectId(1));
    let adg = Arc::new(
        DbimAdg::new(
            &ImcsConfig::default(),
            4,
            enabled,
            Arc::new(Store::new()),
            Arc::new(LocalFlushTarget::new(imcs)),
            &MetricsRegistry::default(),
        )
        .unwrap(),
    );
    for t in 0..pending_txns {
        let anchor = adg.journal.anchor_or_create(TxnId(t), TenantId::DEFAULT);
        anchor.mark_begin();
        for r in 0..records_per_txn {
            anchor.add_record(
                WorkerId((r % 4) as u16),
                InvalidationRecord {
                    object: ObjectId(1),
                    dba: Dba(r % 64),
                    slot: (t % 512) as u16,
                    tenant: TenantId::DEFAULT,
                },
            );
        }
        adg.commit_table.insert(CommitNode {
            txn: TxnId(t),
            tenant: TenantId::DEFAULT,
            commit_scn: Scn(t + 1),
            modified_inmemory: Some(true),
            anchor: Some(anchor),
        });
    }
    adg
}

fn bench_advance(c: &mut Criterion) {
    let mut g = c.benchmark_group("advance");
    g.sample_size(15);
    for pending in [100u64, 1_000, 5_000] {
        g.throughput(Throughput::Elements(pending));
        g.bench_with_input(
            BenchmarkId::new("flush_for_advance", pending),
            &pending,
            |b, &pending| {
                b.iter_with_setup(
                    || setup(pending, 4),
                    |adg| adg.flush.flush_for_advance(Scn(pending + 1)),
                )
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_advance);
criterion_main!(benches);
