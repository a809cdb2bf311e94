//! Crash recovery and failover on durable redo (paper §III.E).
//!
//! Two disasters, one deployment:
//!
//! 1. **Standby crash.** The standby process dies hard: journal, commit
//!    table, IMCS and every in-flight pipeline buffer are gone; only the
//!    on-disk redo (wal + archive segments) survives. Restart replays and
//!    re-mines the durable log, catches the tail up through the NAK gap
//!    protocol — and not one committed transaction is lost.
//! 2. **Primary loss.** The primary vanishes. The standby is promoted in
//!    place: it drains whatever redo reached the wire or the archive,
//!    then starts taking transactions itself as the new primary.
//!
//! ```sh
//! cargo run --release --example failover_restart
//! ```

use imadg::prelude::*;

const T: ObjectId = ObjectId(1);

fn main() -> Result<()> {
    let dir = std::env::temp_dir().join(format!("imadg-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Durability needs a real framed link: redo is teed to disk on both
    // ends, and segments seal small (4 KiB) so the archiver has work to do.
    let cluster = NodeBuilder::new()
        .link(LinkMode::Framed)
        .durability(dir.to_string_lossy())
        .tune(|s| s.durability.segment_max_bytes = 4 * 1024)
        .build()?;

    cluster.create_table(TableSpec {
        id: T,
        name: "accounts".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[("id", ColumnType::Int), ("balance", ColumnType::Int)]),
        key_ordinal: 0,
        rows_per_block: 32,
    })?;
    cluster.set_placement(T, Placement::StandbyOnly)?;

    let p = cluster.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    for k in 0..1_000i64 {
        p.txm.insert(&mut tx, T, vec![Value::Int(k), Value::Int(100)])?;
    }
    p.txm.commit(tx);
    cluster.sync()?;

    // A few more committed transactions so sealed segments accumulate
    // before the crash.
    for (key, balance) in [(1i64, 50i64), (2, 60), (3, 70)] {
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        p.txm.update_column_by_key(&mut tx, T, key, "balance", Value::Int(balance))?;
        p.txm.commit(tx);
        cluster.sync()?;
    }
    let before = cluster.standby().metrics().durability;
    println!(
        "before crash: QuerySCN {}, {} records persisted, {} wal segments archived",
        cluster.standby().current_query_scn()?,
        before.records_persisted,
        before.segments_archived,
    );

    // ── Disaster 1: the standby dies hard and restarts from disk. ──────
    cluster.crash_restart_standby(0)?;
    println!("standby crashed and restarted: in-memory state discarded, disk kept");

    cluster.sync()?;
    let after = cluster.standby().metrics().durability;
    println!("recovery replayed {} records from the durable log", after.replayed_records);
    assert!(after.replayed_records > 0, "restart must replay from disk");

    // Zero committed loss: every pre-crash commit is visible again.
    let standby = cluster.standby();
    let schema = p.store.table(T)?.schema.read().clone();
    for (key, want) in [(1i64, 50i64), (2, 60), (3, 70), (4, 100)] {
        let f = Filter::of(Predicate::eq(&schema, "id", Value::Int(key))?);
        let out = standby.query(&QueryRequest::scan(T).filter(f))?;
        assert_eq!(out.count(), 1);
        assert_eq!(out.rows[0][1], Value::Int(want), "key {key}");
    }
    let out = standby.query(&QueryRequest::scan(T).filter(Filter::all()))?;
    assert_eq!(out.count(), 1_000);
    println!("post-restart reads are consistent: all 1,000 rows, updates intact");

    // Redo written *after* the restart flows through the same link.
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm.update_column_by_key(&mut tx, T, 5, "balance", Value::Int(80))?;
    p.txm.commit(tx);
    cluster.sync()?;
    let f = Filter::of(Predicate::eq(&schema, "id", Value::Int(5))?);
    assert_eq!(standby.query(&QueryRequest::scan(T).filter(f))?.rows[0][1], Value::Int(80));
    println!("post-restart redo applies normally (key 5 → 80)");

    // ── Disaster 2: the primary is lost; promote the standby. ──────────
    let standby_node = cluster.node(NodeRole::Standby);
    let (new_primary, report) = standby_node.promote()?;
    println!(
        "promoted standby to primary: applied SCN {}, new primary resumes at SCN {}",
        report.applied_scn, report.resume_scn
    );
    assert_eq!(new_primary.role(), NodeRole::Primary);

    // The promoted primary owns the data and takes new transactions.
    let p2 = cluster.primary();
    let mut tx = p2.txm.begin(TenantId::DEFAULT);
    p2.txm.insert(&mut tx, T, vec![Value::Int(1_000), Value::Int(42)])?;
    p2.txm.commit(tx);
    let out = new_primary.query(&QueryRequest::scan(T).filter(Filter::all()))?;
    assert_eq!(out.count(), 1_001);
    println!("new primary serves {} rows, including post-promotion DML", out.count());

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
