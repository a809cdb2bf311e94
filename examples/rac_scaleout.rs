//! RAC scale-out (paper §III.F): two primary instances generate redo in
//! parallel; a two-instance standby distributes IMCUs by home location,
//! with the master instance running Single Instance Redo Apply and
//! shipping invalidation groups to its peer.
//!
//! ```sh
//! cargo run --release --example rac_scaleout
//! ```

use imadg::prelude::*;

const T: ObjectId = ObjectId(1);

fn main() -> Result<()> {
    let cluster = NodeBuilder::new().primary_instances(2).standby_instances(2).build()?;
    cluster.create_table(TableSpec {
        id: T,
        name: "orders".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[
            ("id", ColumnType::Int),
            ("status", ColumnType::Varchar),
            ("qty", ColumnType::Int),
        ]),
        key_ordinal: 0,
        rows_per_block: 32,
    })?;
    cluster.set_placement(T, Placement::StandbyOnly)?;

    // OLTP striped across both primary instances: two interleaved redo
    // streams that the standby's log merger orders by SCN.
    let statuses = ["open", "shipped", "closed"];
    for k in 0..5_000i64 {
        let p = &cluster.primaries()[(k % 2) as usize];
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        p.txm.insert(
            &mut tx,
            T,
            vec![Value::Int(k), Value::str(statuses[(k % 3) as usize]), Value::Int(k % 10)],
        )?;
        p.txm.commit(tx);
    }
    cluster.sync()?;

    let standby = cluster.standby();
    let rows0 = standby.instances()[0].imcs.populated_rows();
    let rows1 = standby.instances()[1].imcs.populated_rows();
    println!(
        "IMCU distribution by home location: instance 0 = {rows0} rows, instance 1 = {rows1} rows"
    );
    // A handful of freshly-inserted rows may still ride the SMU fallback
    // path instead of a populated unit; scans stay complete either way.
    assert!(rows0 + rows1 >= 4_990);
    assert!(rows0 > 0 && rows1 > 0);

    // A standby query fans out across both instances' column stores.
    let schema = cluster.primary().store.table(T)?.schema.read().clone();
    let f = Filter::of(Predicate::eq(&schema, "status", Value::str("open"))?);
    let out = standby.query(&QueryRequest::scan(T).filter(f))?;
    println!("cluster-wide standby scan: {} open orders, via IMCS: {}", out.count(), out.used_imcs);
    assert!(out.used_imcs);
    assert_eq!(out.count(), 5_000 / 3 + 1);

    // Updates from either primary invalidate the *owning* standby
    // instance's SMU: the master transmits invalidation groups over the
    // interconnect (batched + pipelined) and publishes the QuerySCN only
    // after the peer acknowledges.
    for key in [10i64, 11, 12, 13] {
        let p = &cluster.primaries()[(key % 2) as usize];
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        p.txm.update_column_by_key(&mut tx, T, key, "status", Value::str("cancelled"))?;
        p.txm.commit(tx);
    }
    cluster.sync()?;
    let f = Filter::of(Predicate::eq(&schema, "status", Value::str("cancelled"))?);
    let out = standby.query(&QueryRequest::scan(T).filter(f))?;
    assert_eq!(out.count(), 4);
    println!("after cross-instance updates: {} cancelled orders visible consistently", out.count());

    // The redo threads really were independent streams.
    for (i, p) in cluster.primaries().iter().enumerate() {
        let stats = p.log_stats();
        println!(
            "primary instance {i}: {} redo records, {} KB generated",
            stats.records,
            stats.bytes / 1024
        );
        assert!(stats.records > 0);
    }
    Ok(())
}
