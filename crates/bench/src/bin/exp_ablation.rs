//! Ablations of the DBIM-on-ADG design choices called out in DESIGN.md.
//!
//! * `--coop`            cooperative flush vs coordinator-only (§III.D.2)
//! * `--commit-parts`    commit-table partitioning (§III.D.1)
//! * `--journal-buckets` journal hash sizing vs bucket-latch contention (§III.C)
//! * `--rac-batch`       batching/pipelining of RAC invalidation groups (§III.F)
//! * `--mining-overhead` mining as a "thin layer" on redo apply (§III.B)
//!
//! With no flag, all ablations run.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use imadg_common::{
    Dba, InstanceId, MetricsRegistry, ObjectId, ObjectSet, Scn, TenantId, TxnId, WorkerId,
};
use imadg_db::{TenantId as DbTenant, Value};
use imadg_imcs::ImcsStore;
use imadg_recovery::{
    work_queue, CommitNode, CommitTable, DbimAdg, FlushTarget, HomeLocationMap, InvalidationGroup,
    InvalidationRecord, Journal, LocalFlushTarget, RacFlushTarget, Worker,
};
use imadg_storage::{ChangeOp, ChangeVector, ColumnType, Row, RowLoc, Schema, Store, TableSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let has = |f: &str| all || args.iter().any(|a| a == f);

    if has("--coop") {
        coop_flush();
    }
    if has("--commit-parts") {
        commit_parts();
    }
    if has("--journal-buckets") {
        journal_buckets();
    }
    if has("--rac-batch") {
        rac_batch();
    }
    if has("--mining-overhead") {
        mining_overhead();
    }
}

/// §III.D.2 — cooperative flush: a burst of committed transactions builds
/// a large worklink; the QuerySCN publish latency is measured with the
/// coordinator draining alone vs with recovery-worker helpers pitching in.
/// (This is the catch-up scenario — e.g. right after a redo-apply gap —
/// where serial flushing visibly delays the consistency point.)
fn coop_flush() {
    println!("== ablation: cooperative flush (§III.D.2) ==");
    const PENDING_TXNS: u64 = 50_000;
    const HELPERS: usize = 3;

    for coop in [false, true] {
        // Build the pending state: PENDING_TXNS committed txns, 4 records
        // each, all at or below the target SCN.
        let imcs = Arc::new(ImcsStore::new());
        let obj = imcs.ensure_object(ObjectId(1), TenantId::DEFAULT);
        obj.register(Arc::new(imadg_imcs::ImcuHandle::new(imadg_imcs::Imcu::pending(
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
                &imadg_db::ImcsConfig::default(),
                4,
                enabled,
                Arc::new(Store::new()),
                Arc::new(LocalFlushTarget::new(imcs)),
                &MetricsRegistry::default(),
            )
            .unwrap(),
        );
        for t in 0..PENDING_TXNS {
            let anchor = adg.journal.anchor_or_create(TxnId(t), TenantId::DEFAULT);
            anchor.mark_begin();
            for r in 0..4u64 {
                anchor.add_record(
                    WorkerId((r % 4) as u16),
                    InvalidationRecord {
                        object: ObjectId(1),
                        dba: Dba(r % 64),
                        slot: (t % 4096) as u16,
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

        // Helpers emulate recovery workers periodically offering flush help.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let helpers: Vec<_> = if coop {
            (0..HELPERS)
                .map(|_| {
                    let adg = adg.clone();
                    let stop = stop.clone();
                    std::thread::spawn(move || {
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            if adg.flush.help_flush(32) == 0 {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect()
        } else {
            Vec::new()
        };

        let started = Instant::now();
        adg.flush.flush_for_advance(Scn(PENDING_TXNS + 1));
        let elapsed = started.elapsed();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in helpers {
            h.join().unwrap();
        }
        let coop_flushed = adg.flush.stats.coop_flushed.load(std::sync::atomic::Ordering::Relaxed);
        println!(
            "  cooperative={coop:<5} {PENDING_TXNS} pending txns flushed in {:.1} ms \
             (worker-flushed nodes: {coop_flushed})",
            elapsed.as_secs_f64() * 1e3
        );
    }
    println!(
        "  (note: on a single-core host the helpers timeshare with the \
         coordinator; the win scales with real cores)"
    );
}

/// §III.D.1 — partitioned commit table: concurrent insert throughput.
fn commit_parts() {
    println!("== ablation: commit-table partitioning (§III.D.1) ==");
    const TXNS: u64 = 400_000;
    const THREADS: u64 = 4;
    for partitions in [1usize, 4, 16] {
        let table = Arc::new(CommitTable::new(partitions, Arc::default()));
        let started = Instant::now();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let table = table.clone();
                std::thread::spawn(move || {
                    for i in 0..TXNS / THREADS {
                        let id = t * TXNS + i;
                        table.insert(CommitNode {
                            txn: TxnId(id),
                            tenant: TenantId::DEFAULT,
                            commit_scn: Scn(id + 1),
                            modified_inmemory: Some(true),
                            anchor: None,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = started.elapsed();
        println!(
            "  partitions={partitions:<3} {} inserts in {:.0} ms ({:.2} M/s)",
            TXNS,
            elapsed.as_secs_f64() * 1e3,
            TXNS as f64 / elapsed.as_secs_f64() / 1e6
        );
    }
}

/// §III.C — journal hash sizing: concurrent mining throughput.
fn journal_buckets() {
    println!("== ablation: journal bucket sizing (§III.C) ==");
    const RECORDS: u64 = 400_000;
    const WORKERS: u64 = 4;
    for buckets in [1usize, 16, 256] {
        let metrics = Arc::new(imadg_common::metrics::JournalMetrics::default());
        let journal = Arc::new(Journal::new(buckets, WORKERS as usize, metrics.clone()));
        let started = Instant::now();
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let journal = journal.clone();
                std::thread::spawn(move || {
                    for i in 0..RECORDS / WORKERS {
                        // Many concurrent transactions — the common case.
                        let txn = TxnId(i % 512);
                        let anchor = journal.anchor_or_create(txn, TenantId::DEFAULT);
                        anchor.add_record(
                            WorkerId(w as u16),
                            InvalidationRecord {
                                object: ObjectId(1),
                                dba: Dba(i),
                                slot: 0,
                                tenant: TenantId::DEFAULT,
                            },
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = started.elapsed();
        println!(
            "  buckets={buckets:<4} {} records in {:.0} ms ({:.2} M/s, \
             {} bucket-latch waits)",
            RECORDS,
            elapsed.as_secs_f64() * 1e3,
            RECORDS as f64 / elapsed.as_secs_f64() / 1e6,
            metrics.bucket_contention.get(),
        );
    }
}

/// §III.F — batching of RAC invalidation-group transmission.
fn rac_batch() {
    println!("== ablation: RAC invalidation batching (§III.F) ==");
    const GROUPS: u64 = 2_000;
    for batch in [1usize, 16, 64] {
        let mut stores = HashMap::new();
        for i in 0..2u8 {
            stores.insert(InstanceId(i), Arc::new(ImcsStore::new()));
        }
        let home = HomeLocationMap::new(vec![InstanceId(0), InstanceId(1)], 1);
        // 20 µs simulated per-message interconnect cost.
        let (target, _eps) =
            RacFlushTarget::new(home, InstanceId(0), stores, batch, Duration::from_micros(20));
        let started = Instant::now();
        for i in 0..GROUPS {
            target.flush_group(&InvalidationGroup {
                object: ObjectId(1),
                tenant: TenantId::DEFAULT,
                commit_scn: Scn(i + 1),
                // Odd DBA → remote instance under stripe 1.
                locs: vec![RowLoc { dba: Dba(2 * i + 1), slot: 0 }],
            });
        }
        target.synchronize();
        let elapsed = started.elapsed();
        println!(
            "  batch={batch:<3} {} remote groups → {} messages, sync in {:.1} ms",
            GROUPS,
            target.messages_sent.load(std::sync::atomic::Ordering::Relaxed),
            elapsed.as_secs_f64() * 1e3
        );
    }
}

/// §III.B / §IV.C — mining overhead on the apply path.
fn mining_overhead() {
    println!("== ablation: mining overhead on redo apply (§III.B) ==");
    const CHANGES: u64 = 200_000;

    let run = |with_mining: bool| -> f64 {
        let store = Arc::new(Store::new());
        store
            .create_table(TableSpec {
                id: ObjectId(1),
                name: "t".into(),
                tenant: TenantId::DEFAULT,
                schema: Schema::of(&[("id", ColumnType::Int), ("v", ColumnType::Int)]),
                key_ordinal: 0,
                rows_per_block: 512,
            })
            .unwrap();
        let registry = MetricsRegistry::default();
        let adg = with_mining.then(|| {
            let enabled = Arc::new(ObjectSet::new());
            enabled.enable(ObjectId(1));
            let target = Arc::new(LocalFlushTarget::new(Arc::new(ImcsStore::new())));
            let config = imadg_db::ImcsConfig::default();
            Arc::new(DbimAdg::new(&config, 1, enabled, store.clone(), target, &registry).unwrap())
        });
        let (tx, rx) = work_queue();
        let mut worker = Worker::new(WorkerId(0), rx, store, adg, &registry);
        let mut scn = 1u64;
        let blocks = CHANGES / 512 + 1;
        for b in 0..blocks {
            tx.send(imadg_recovery::WorkItem::Change {
                scn: Scn(scn),
                cv: ChangeVector {
                    dba: Dba(b + 1),
                    object: ObjectId(1),
                    tenant: TenantId::DEFAULT,
                    txn: TxnId(1),
                    op: ChangeOp::Format { capacity: 512 },
                },
            })
            .unwrap();
            scn += 1;
        }
        for i in 0..CHANGES {
            tx.send(imadg_recovery::WorkItem::Change {
                scn: Scn(scn),
                cv: ChangeVector {
                    dba: Dba(i / 512 + 1),
                    object: ObjectId(1),
                    tenant: TenantId::DEFAULT,
                    txn: TxnId(i % 64),
                    op: ChangeOp::Insert {
                        slot: (i % 512) as u16,
                        row: Row::new(vec![Value::Int(i as i64), Value::Int(7)]),
                    },
                },
            })
            .unwrap();
            scn += 1;
        }
        let started = Instant::now();
        worker.run_batch(usize::MAX).unwrap();
        CHANGES as f64 / started.elapsed().as_secs_f64()
    };

    let without = run(false);
    let with = run(true);
    println!(
        "  apply throughput: {:.2} M CVs/s without mining, {:.2} M CVs/s with \
         ({:.1}% overhead)",
        without / 1e6,
        with / 1e6,
        100.0 * (1.0 - with / without)
    );
    let _ = DbTenant::DEFAULT;
}
