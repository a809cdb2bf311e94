//! Micro-bench: IM-ADG Journal mining throughput (paper §III.C) and the
//! IM-ADG Commit Table insert path (§III.D.1), single-threaded baseline
//! numbers for the multi-threaded ablation in `exp_ablation`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imadg_common::{Dba, ObjectId, Scn, TenantId, TxnId, WorkerId};
use imadg_recovery::{CommitNode, CommitTable, InvalidationRecord, Journal};

fn bench_journal(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal");
    g.throughput(Throughput::Elements(10_000));
    g.sample_size(20);
    for buckets in [16usize, 256] {
        g.bench_with_input(
            BenchmarkId::new("mine_10k_records", buckets),
            &buckets,
            |b, &buckets| {
                b.iter(|| {
                    let j = Journal::new(buckets, 4, Arc::default());
                    for i in 0..10_000u64 {
                        let anchor = j.anchor_or_create(TxnId(i % 128), TenantId::DEFAULT);
                        anchor.add_record(
                            WorkerId((i % 4) as u16),
                            InvalidationRecord {
                                object: ObjectId(1),
                                dba: Dba(i),
                                slot: 0,
                                tenant: TenantId::DEFAULT,
                            },
                        );
                    }
                    j.len()
                })
            },
        );
    }

    g.bench_function("drain_128_txns", |b| {
        b.iter_with_setup(
            || {
                let j = Arc::new(Journal::new(128, 4, Arc::default()));
                for i in 0..10_000u64 {
                    let anchor = j.anchor_or_create(TxnId(i % 128), TenantId::DEFAULT);
                    anchor.add_record(
                        WorkerId(0),
                        InvalidationRecord {
                            object: ObjectId(1),
                            dba: Dba(i),
                            slot: 0,
                            tenant: TenantId::DEFAULT,
                        },
                    );
                }
                j
            },
            |j| {
                let mut total = 0usize;
                for t in 0..128u64 {
                    if let Some(a) = j.remove(TxnId(t)) {
                        total += a.drain_records().len();
                    }
                }
                total
            },
        )
    });
    g.finish();

    let mut g = c.benchmark_group("commit_table");
    g.throughput(Throughput::Elements(10_000));
    g.sample_size(20);
    for partitions in [1usize, 8] {
        g.bench_with_input(
            BenchmarkId::new("insert_10k_then_chop", partitions),
            &partitions,
            |b, &partitions| {
                b.iter(|| {
                    let t = CommitTable::new(partitions, Arc::default());
                    for i in 0..10_000u64 {
                        t.insert(CommitNode {
                            txn: TxnId(i),
                            tenant: TenantId::DEFAULT,
                            commit_scn: Scn(i + 1),
                            modified_inmemory: Some(true),
                            anchor: None,
                        });
                    }
                    t.chop(Scn(5_000)).len()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_journal);
criterion_main!(benches);
