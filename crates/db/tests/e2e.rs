//! End-to-end tests of the full DBIM-on-ADG deployment: OLTP on the
//! primary, redo-maintained column store on the standby, queries at the
//! QuerySCN.

use std::sync::Arc;

use imadg_common::Error;
use imadg_db::{
    AdgCluster, CmpOp, ColumnType, Filter, NodeBuilder, ObjectId, Placement, Predicate,
    QueryRequest, Schema, TableSpec, TenantId, Value,
};

const OBJ: ObjectId = ObjectId(100);

fn table_spec() -> TableSpec {
    TableSpec {
        id: OBJ,
        name: "sales".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[
            ("id", ColumnType::Int),
            ("n1", ColumnType::Int),
            ("c1", ColumnType::Varchar),
        ]),
        key_ordinal: 0,
        rows_per_block: 16,
    }
}

fn cluster(builder: NodeBuilder) -> Arc<AdgCluster> {
    let c = builder.build().unwrap();
    c.create_table(table_spec()).unwrap();
    c.set_placement(OBJ, Placement::StandbyOnly).unwrap();
    c
}

fn seed(c: &AdgCluster, from: i64, to: i64) {
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    for k in from..to {
        p.txm
            .insert(
                &mut tx,
                OBJ,
                vec![Value::Int(k), Value::Int(k % 10), Value::str(format!("c{}", k % 7))],
            )
            .unwrap();
    }
    p.txm.commit(tx);
}

fn filter(c: &AdgCluster, col: &str, v: Value) -> Filter {
    let schema = c.primary().store.table(OBJ).unwrap().schema.read().clone();
    Filter::of(Predicate::eq(&schema, col, v).unwrap())
}

#[test]
fn standby_scan_uses_imcs_and_matches_row_store() {
    let c = cluster(NodeBuilder::new());
    seed(&c, 0, 200);
    c.sync().unwrap();

    let f = filter(&c, "n1", Value::Int(4));
    let standby = c.standby();
    let out = standby.query(&QueryRequest::scan(OBJ).filter(f.clone())).unwrap();
    assert!(out.used_imcs, "standby must serve from the IMCS");
    assert_eq!(out.count(), 20);
    let stats = out.stats.unwrap();
    assert_eq!(stats.fallback_rows, 0, "no DML since population → pure columnar");

    // Primary (no IMCS placement) answers identically from the row store.
    let p_out = c.primary().query(&QueryRequest::scan(OBJ).filter(f.clone())).unwrap();
    assert!(!p_out.used_imcs);
    assert_eq!(p_out.count(), 20);
}

#[test]
fn updates_invalidate_and_standby_stays_consistent() {
    let c = cluster(NodeBuilder::new());
    seed(&c, 0, 100);
    c.sync().unwrap();

    // Update key 5's n1 from 5 → 77 on the primary.
    c.primary().update_one(OBJ, TenantId::DEFAULT, 5, "n1", Value::Int(77)).unwrap();
    c.sync().unwrap();

    let standby = c.standby();
    let out =
        standby.query(&QueryRequest::scan(OBJ).filter(filter(&c, "n1", Value::Int(77)))).unwrap();
    assert_eq!(out.count(), 1);
    assert_eq!(out.rows[0][0], Value::Int(5));

    let out_old =
        standby.query(&QueryRequest::scan(OBJ).filter(filter(&c, "n1", Value::Int(5)))).unwrap();
    let keys: Vec<i64> = out_old.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert!(!keys.contains(&5), "stale IMCU value must not be served");
    assert_eq!(out_old.count(), 9);
}

#[test]
fn inserts_reach_standby_scans() {
    let c = cluster(NodeBuilder::new());
    seed(&c, 0, 50);
    c.sync().unwrap();
    // New rows after population: covered-block inserts + fresh blocks.
    seed(&c, 1000, 1040);
    // Ship + apply + advance, but do NOT repopulate: rows must still appear
    // via SMU inserts and uncovered-block scans.
    c.ship_redo().unwrap();
    c.standby().pump_until_idle().unwrap();
    let out = c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 90);
    // After population catches up they move into the columnar path.
    c.sync().unwrap();
    let out = c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 90);
}

#[test]
fn deletes_disappear_from_standby() {
    let c = cluster(NodeBuilder::new());
    seed(&c, 0, 30);
    c.sync().unwrap();
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm.delete_by_key(&mut tx, OBJ, 7).unwrap();
    p.txm.commit(tx);
    c.sync().unwrap();
    let out = c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 29);
    assert!(out.rows.iter().all(|r| r[0] != Value::Int(7)));
    assert_eq!(c.standby().fetch_by_key(OBJ, 7).unwrap(), None);
}

#[test]
fn uncommitted_work_never_visible_on_standby() {
    let c = cluster(NodeBuilder::new());
    seed(&c, 0, 20);
    c.sync().unwrap();
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm.update_column_by_key(&mut tx, OBJ, 3, "n1", Value::Int(500)).unwrap();
    // Ship the in-flight change.
    c.ship_redo().unwrap();
    c.standby().pump_until_idle().unwrap();
    let out = c
        .standby()
        .query(&QueryRequest::scan(OBJ).filter(filter(&c, "n1", Value::Int(500))))
        .unwrap();
    assert_eq!(out.count(), 0, "uncommitted change invisible");
    p.txm.commit(tx);
    c.sync().unwrap();
    let out = c
        .standby()
        .query(&QueryRequest::scan(OBJ).filter(filter(&c, "n1", Value::Int(500))))
        .unwrap();
    assert_eq!(out.count(), 1);
}

#[test]
fn without_dbim_standby_scans_row_store() {
    let c = cluster(NodeBuilder::new().dbim_on_adg(false));
    seed(&c, 0, 50);
    c.ship_redo().unwrap();
    c.standby().pump_until_idle().unwrap();
    // Population can't proceed meaningfully without DBIM-on-ADG — the paper
    // baseline runs row-store scans. (Population on a no-DBIM standby would
    // go stale without invalidations; the engine is simply not driven.)
    let out = c
        .standby()
        .query(&QueryRequest::scan(OBJ).filter(filter(&c, "n1", Value::Int(4))))
        .unwrap();
    assert!(!out.used_imcs);
    assert_eq!(out.count(), 5);
}

#[test]
fn capacity_expansion_placement_split() {
    // Fig. 2: one object on the primary IMCS, another on the standby IMCS.
    let c = NodeBuilder::new().build().unwrap();
    let mut hot = table_spec();
    hot.id = ObjectId(1);
    hot.name = "sales_current".into();
    let mut cold = table_spec();
    cold.id = ObjectId(2);
    cold.name = "sales_history".into();
    c.create_table(hot).unwrap();
    c.create_table(cold).unwrap();
    c.set_placement(ObjectId(1), Placement::PrimaryOnly).unwrap();
    c.set_placement(ObjectId(2), Placement::StandbyOnly).unwrap();

    let p = c.primary();
    for obj in [ObjectId(1), ObjectId(2)] {
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        for k in 0..40 {
            p.txm
                .insert(&mut tx, obj, vec![Value::Int(k), Value::Int(k % 5), Value::str("x")])
                .unwrap();
        }
        p.txm.commit(tx);
    }
    c.sync().unwrap();
    c.populate_primary().unwrap();

    // Primary serves `hot` from its IMCS, `cold` from the row store.
    assert!(p.query(&QueryRequest::scan(ObjectId(1)).filter(Filter::all())).unwrap().used_imcs);
    assert!(!p.query(&QueryRequest::scan(ObjectId(2)).filter(Filter::all())).unwrap().used_imcs);
    // Standby: the reverse.
    let s = c.standby();
    assert!(!s.query(&QueryRequest::scan(ObjectId(1)).filter(Filter::all())).unwrap().used_imcs);
    assert!(s.query(&QueryRequest::scan(ObjectId(2)).filter(Filter::all())).unwrap().used_imcs);
    // Row counts agree everywhere.
    for obj in [ObjectId(1), ObjectId(2)] {
        assert_eq!(p.query(&QueryRequest::scan(obj).filter(Filter::all())).unwrap().count(), 40);
        assert_eq!(s.query(&QueryRequest::scan(obj).filter(Filter::all())).unwrap().count(), 40);
    }
}

#[test]
fn rac_primary_two_redo_streams() {
    let c = cluster(NodeBuilder::new().primary_instances(2));
    // Interleave transactions across the two primary instances.
    for k in 0..60i64 {
        let p = &c.primaries()[(k % 2) as usize];
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        p.txm
            .insert(&mut tx, OBJ, vec![Value::Int(k), Value::Int(k % 10), Value::str("r")])
            .unwrap();
        p.txm.commit(tx);
    }
    c.sync().unwrap();
    let out = c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 60);
    assert!(out.used_imcs);
}

/// With the column store on both RAC primary instances, a commit on one
/// instance goes stale in the other's units too: a filtered scan on
/// instance 0 after instance 1 moves rows across the predicate returns
/// exactly the row-store images at the scan's SCN.
#[test]
fn rac_primary_scan_sees_other_instance_updates() {
    let c = cluster(NodeBuilder::new().primary_instances(2));
    c.set_placement(OBJ, Placement::Both).unwrap();
    seed(&c, 0, 100);
    c.sync().unwrap();
    c.populate_primary().unwrap();
    let (p0, p1) = (&c.primaries()[0], &c.primaries()[1]);
    // Key 4 leaves n1 = 4 and key 7 enters it, both committed on instance 1.
    p1.update_one(OBJ, TenantId::DEFAULT, 4, "n1", Value::Int(70)).unwrap();
    p1.update_one(OBJ, TenantId::DEFAULT, 7, "n1", Value::Int(4)).unwrap();

    let by_id = |rows: &mut Vec<imadg_db::Row>| rows.sort_by_key(|r| r[0].as_int());
    for f in [filter(&c, "n1", Value::Int(4)), filter(&c, "n1", Value::Int(7)), Filter::all()] {
        let mut out = p0.query(&QueryRequest::scan(OBJ).filter(f.clone())).unwrap();
        assert!(out.used_imcs, "instance 0 must serve from its IMCS");
        let mut expect = Vec::new();
        p0.store
            .scan_object(OBJ, out.snapshot, None, |_, row| {
                if f.eval_row(row) {
                    expect.push(row.clone());
                }
            })
            .unwrap();
        by_id(&mut out.rows);
        by_id(&mut expect);
        assert_eq!(out.rows, expect, "filter {f:?}");
    }
}

#[test]
fn rac_standby_distributes_units_and_scans_cluster_wide() {
    let c = cluster(NodeBuilder::new().standby_instances(2));
    seed(&c, 0, 400);
    c.sync().unwrap();

    let s = c.standby();
    let rows0 = s.instances()[0].imcs.populated_rows();
    let rows1 = s.instances()[1].imcs.populated_rows();
    assert_eq!(rows0 + rows1, 400, "all rows populated across the cluster");
    assert!(rows0 > 0 && rows1 > 0, "home-location map splits units: {rows0}/{rows1}");

    let out = s.query(&QueryRequest::scan(OBJ).filter(filter(&c, "n1", Value::Int(3)))).unwrap();
    assert!(out.used_imcs);
    assert_eq!(out.count(), 40);

    // Invalidations route to the owning instance (RAC flush path).
    c.primary().update_one(OBJ, TenantId::DEFAULT, 3, "n1", Value::Int(99)).unwrap();
    c.ship_redo().unwrap();
    s.pump_until_idle().unwrap();
    let out = s.query(&QueryRequest::scan(OBJ).filter(filter(&c, "n1", Value::Int(99)))).unwrap();
    assert_eq!(out.count(), 1);
    let out = s.query(&QueryRequest::scan(OBJ).filter(filter(&c, "n1", Value::Int(3)))).unwrap();
    assert_eq!(out.count(), 39);
}

#[test]
fn ddl_drop_column_propagates_and_drops_units() {
    let c = cluster(NodeBuilder::new());
    seed(&c, 0, 50);
    c.sync().unwrap();
    assert!(c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap().used_imcs);

    c.primary()
        .txm
        .execute_ddl(OBJ, TenantId::DEFAULT, imadg_redo::DdlKind::DropColumn { name: "n1".into() })
        .unwrap();
    c.ship_redo().unwrap();
    c.standby().pump_until_idle().unwrap();

    // Standby dictionary updated; units dropped until repopulation.
    let s = c.standby();
    assert!(s.store.table(OBJ).unwrap().schema.read().ordinal("n1").is_err());
    let out = s.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert!(!out.used_imcs, "units dropped by the DDL marker");
    assert_eq!(out.count(), 50);
    // Repopulation restores columnar service with the new schema.
    s.populate_until_idle().unwrap();
    let out = s.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert!(out.used_imcs);
    assert_eq!(out.count(), 50);
}

/// A standby refuses an explicit snapshot above its published QuerySCN:
/// redo up to that snapshot is applied, but the column store has not had
/// its invalidations yet. The router treats the snapshot as a floor and
/// lets the primary answer.
#[test]
fn standby_refuses_a_snapshot_it_has_not_published() {
    let c = cluster(NodeBuilder::new());
    let p = c.primary();
    for k in 0..100 {
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(k), Value::Int(0), Value::str("c")])
            .unwrap();
    }
    c.sync().unwrap();
    for k in 0..100 {
        p.update_one(OBJ, TenantId::DEFAULT, k, "n1", Value::Int(1)).unwrap();
    }
    // Ship, ingest and apply every update, but publish no QuerySCN.
    c.ship_redo().unwrap();
    let standby = c.standby();
    while standby.recovery.ingest_once().unwrap() + standby.recovery.drain_workers().unwrap() > 0 {}
    let applied = standby.recovery.applied_scn();
    let query_scn = standby.current_query_scn().unwrap();
    assert!(applied > query_scn, "applied {applied:?} runs ahead of QuerySCN {query_scn:?}");

    let req = QueryRequest::scan(OBJ).filter(filter(&c, "n1", Value::Int(1))).at(applied);
    match standby.query(&req) {
        Err(e) => assert_eq!(e, Error::SnapshotAhead { requested: applied, query_scn }),
        Ok(out) => panic!("standby answered {} rows above its QuerySCN", out.count()),
    }
    assert_eq!(c.primary().query(&req).unwrap().count(), 100);
    let (out, decision) = c.route_query(&req).unwrap();
    assert!(!decision.offloaded(), "no member has published {applied:?}");
    assert_eq!(out.count(), 100);
    // At its own QuerySCN the standby still answers.
    assert_eq!(standby.query(&QueryRequest::scan(OBJ).at(query_scn)).unwrap().count(), 100);
}

#[test]
fn standby_restart_resumes_and_preserves_consistency() {
    let c = cluster(NodeBuilder::new());
    seed(&c, 0, 60);
    c.sync().unwrap();
    assert!(c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap().used_imcs);

    // Restart: IMCS and journal state lost; storage persists.
    c.restart_standby(0).unwrap();

    // More DML after the restart.
    c.primary().update_one(OBJ, TenantId::DEFAULT, 1, "n1", Value::Int(42)).unwrap();
    c.sync().unwrap();

    let s = c.standby();
    let out = s.query(&QueryRequest::scan(OBJ).filter(filter(&c, "n1", Value::Int(42)))).unwrap();
    assert_eq!(out.count(), 1);
    let out = s.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 60);
}

/// A warm restart by farm index rebuilds that member alone: its rows
/// survive and its in-memory state starts over, while the other member's
/// QuerySCN and apply counters do not move.
#[test]
fn warm_restart_rebuilds_only_the_indexed_member() {
    let c = cluster(NodeBuilder::new().reader_farm(2));
    seed(&c, 0, 60);
    c.sync().unwrap();
    let (sb0, sb1) = (c.standby_at(0).unwrap(), c.standby_at(1).unwrap());
    let sb0_before = (sb0.query_scn.get(), sb0.metrics().apply);
    assert!(sb1.metrics().apply.items_applied > 0);

    c.restart_standby(1).unwrap();

    assert!(Arc::ptr_eq(&c.standby_at(0).unwrap(), &sb0), "sb0 is not rebuilt");
    assert_eq!((sb0.query_scn.get(), sb0.metrics().apply), sb0_before, "sb0 did not move");
    let new1 = c.standby_at(1).unwrap();
    assert!(!Arc::ptr_eq(&new1, &sb1));
    assert_eq!((new1.name(), new1.lane()), ("sb1", 1));
    assert!(Arc::ptr_eq(&new1.store, &sb1.store), "storage persists");
    assert_eq!(new1.query_scn.get(), None, "the QuerySCN restarts");
    assert_eq!(new1.metrics().apply.items_applied, 0, "in-memory counters restart");

    // The rebuilt member resumes on its own lane and serves every row.
    c.primary().update_one(OBJ, TenantId::DEFAULT, 1, "n1", Value::Int(42)).unwrap();
    c.sync().unwrap();
    for idx in 0..2 {
        let s = c.standby_at(idx).unwrap();
        let out = s.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
        assert_eq!(out.count(), 60, "standby {idx}");
        let f = filter(&c, "n1", Value::Int(42));
        assert_eq!(s.query(&QueryRequest::scan(OBJ).filter(f)).unwrap().count(), 1);
    }
}

#[test]
fn restart_mid_transaction_triggers_coarse_invalidation() {
    let c = cluster(NodeBuilder::new());
    seed(&c, 0, 60);
    c.sync().unwrap();

    // Start a transaction, ship its DML, then restart the standby before
    // the commit arrives: its begin record is lost with the journal.
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm.update_column_by_key(&mut tx, OBJ, 2, "n1", Value::Int(888)).unwrap();
    c.ship_redo().unwrap();
    c.standby().pump_until_idle().unwrap();

    c.restart_standby(0).unwrap();
    // Populate the fresh IMCS *before* the commit is applied, so units
    // exist for coarse invalidation to hit.
    c.standby().pump_until_idle().unwrap();
    c.standby().populate_until_idle().unwrap();

    // Second half of the transaction arrives post-restart.
    p.txm.update_column_by_key(&mut tx, OBJ, 3, "n1", Value::Int(999)).unwrap();
    p.txm.commit(tx);
    c.ship_redo().unwrap();
    let s = c.standby();
    s.pump_until_idle().unwrap();

    // The flush found a partially-mined transaction → per-tenant coarse
    // invalidation.
    let adg = s.adg.as_ref().unwrap();
    assert!(
        adg.flush.stats.coarse_invalidations.get() >= 1,
        "missing begin must trigger coarse invalidation"
    );
    // Queries remain correct: rows come from the row store.
    let out = s.query(&QueryRequest::scan(OBJ).filter(filter(&c, "n1", Value::Int(888)))).unwrap();
    assert_eq!(out.count(), 1);
    let out = s.query(&QueryRequest::scan(OBJ).filter(filter(&c, "n1", Value::Int(999)))).unwrap();
    assert_eq!(out.count(), 1);
    // Repopulation restores columnar service.
    s.populate_until_idle().unwrap();
    let out = s.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert!(out.used_imcs);
    assert_eq!(out.count(), 60);
}

#[test]
fn parallel_degree_is_invisible_to_results() {
    // Several units → real fan-out.
    let c = cluster(NodeBuilder::new().tune(|s| s.imcs.imcu_max_rows = 32));
    seed(&c, 0, 300);
    c.sync().unwrap();
    // Post-population DML so some units answer through the SMU fallback.
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    for k in [7i64, 70, 140, 210] {
        p.txm.update_column_by_key(&mut tx, OBJ, k, "n1", Value::Int(4)).unwrap();
    }
    p.txm.commit(tx);
    c.sync().unwrap();

    let f = filter(&c, "n1", Value::Int(4));
    let standby = c.standby();
    let serial = standby.query(&QueryRequest::scan(OBJ).filter(f.clone()).parallel(1)).unwrap();
    assert!(serial.used_imcs);
    for degree in [2usize, 4, 8] {
        let par =
            standby.query(&QueryRequest::scan(OBJ).filter(f.clone()).parallel(degree)).unwrap();
        assert_eq!(par.parallel_degree, degree);
        assert_eq!(par.rows, serial.rows, "rows and order at degree {degree}");
        assert_eq!(par.stats, serial.stats, "provenance counters at degree {degree}");
    }
}

#[test]
fn range_predicates_on_standby() {
    // Several units → pruning observable.
    let c = cluster(NodeBuilder::new().tune(|s| s.imcs.imcu_max_rows = 32));
    seed(&c, 0, 100);
    c.sync().unwrap();
    let schema = c.primary().store.table(OBJ).unwrap().schema.read().clone();
    let f = Filter::of(Predicate::new(&schema, "id", CmpOp::Ge, Value::Int(90)).unwrap());
    let out = c.standby().query(&QueryRequest::scan(OBJ).filter(f.clone())).unwrap();
    assert_eq!(out.count(), 10);
    assert!(out.used_imcs);
    // Storage index prunes most units for a tight range.
    assert!(out.stats.unwrap().pruned_units > 0);
}

#[test]
fn threaded_cluster_converges_under_load() {
    let c = cluster(NodeBuilder::new());
    let threads = c.start();
    let p = c.primary();
    for k in 0..200i64 {
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        p.txm
            .insert(&mut tx, OBJ, vec![Value::Int(k), Value::Int(k % 10), Value::str("t")])
            .unwrap();
        p.txm.commit(tx);
    }
    let final_scn = p.current_scn();
    // Wait for the standby to catch up.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        if c.standby().query_scn.get().is_some_and(|q| q >= final_scn) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "standby failed to catch up");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let out = c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 200);
    drop(threads);
}

#[test]
fn ddl_add_column_propagates() {
    let c = cluster(NodeBuilder::new());
    seed(&c, 0, 20);
    c.sync().unwrap();
    c.primary()
        .txm
        .execute_ddl(
            OBJ,
            TenantId::DEFAULT,
            imadg_redo::DdlKind::AddColumn { name: "n2".into(), ctype: ColumnType::Int },
        )
        .unwrap();
    // Rows written after the DDL carry the new column.
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm
        .insert(&mut tx, OBJ, vec![Value::Int(99), Value::Int(1), Value::str("x"), Value::Int(42)])
        .unwrap();
    p.txm.commit(tx);
    c.sync().unwrap();

    let s = c.standby();
    let schema = s.store.table(OBJ).unwrap().schema.read().clone();
    let ord = schema.ordinal("n2").unwrap();
    let f = Filter::of(Predicate::eq(&schema, "n2", Value::Int(42)).unwrap());
    let out = s.query(&QueryRequest::scan(OBJ).filter(f.clone())).unwrap();
    assert_eq!(out.count(), 1);
    assert_eq!(out.rows[0][0], Value::Int(99));
    // Pre-DDL rows read NULL in the new column everywhere.
    let (_, old) = s.fetch_by_key(OBJ, 1).unwrap().unwrap();
    assert!(old.get(ord).is_null());
}

/// After dictionary-only DDL and repopulation, a column-store scan returns
/// exactly the row-store images at the same SCN — width included. Pre-DDL
/// rows keep their stored arity whether they come from a unit, the SMU
/// fallback or an uncovered block.
#[test]
fn ddl_scan_rows_match_row_store_images() {
    let c = cluster(NodeBuilder::new());
    seed(&c, 0, 40);
    c.sync().unwrap();
    let p = c.primary();
    p.txm
        .execute_ddl(
            OBJ,
            TenantId::DEFAULT,
            imadg_redo::DdlKind::AddColumn { name: "n2".into(), ctype: ColumnType::Int },
        )
        .unwrap();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm
        .insert(&mut tx, OBJ, vec![Value::Int(99), Value::Int(4), Value::str("x"), Value::Int(42)])
        .unwrap();
    p.txm.commit(tx);
    c.sync().unwrap();
    // One journaled pre-DDL row, served through the SMU fallback.
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm.update_column_by_key(&mut tx, OBJ, 3, "c1", Value::str("y")).unwrap();
    p.txm.commit(tx);
    c.sync().unwrap();

    let s = c.standby();
    let by_id = |rows: &mut Vec<imadg_db::Row>| rows.sort_by_key(|r| r[0].as_int());
    for f in [Filter::all(), filter(&c, "n1", Value::Int(4)), filter(&c, "n1", Value::Int(3))] {
        let mut out = s.query(&QueryRequest::scan(OBJ).filter(f.clone())).unwrap();
        assert!(out.used_imcs, "standby must serve from the IMCS");
        let mut expect = Vec::new();
        s.store
            .scan_object(OBJ, out.snapshot, None, |_, row| {
                if f.eval_row(row) {
                    expect.push(row.clone());
                }
            })
            .unwrap();
        by_id(&mut out.rows);
        by_id(&mut expect);
        assert_eq!(out.rows, expect, "filter {f:?}");
    }
    let out = s.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    let stats = out.stats.unwrap();
    assert!(stats.imcu_rows > 0 && stats.fallback_rows > 0, "{stats:?}");
}

/// On the paper's 101-column wide table, an update-only burst on `n1`
/// repopulates standby units by re-encoding `n1` alone: every rebuild
/// shares at least 99 of its 101 columns with the unit it replaces, and
/// the rebuilt units answer exactly what the row store holds.
#[test]
fn update_only_repopulation_shares_untouched_columns() {
    let mut cols = vec![("id".to_string(), ColumnType::Int)];
    cols.extend((1..=50).map(|i| (format!("n{i}"), ColumnType::Int)));
    cols.extend((1..=50).map(|i| (format!("c{i}"), ColumnType::Varchar)));
    let named: Vec<(&str, ColumnType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let c = NodeBuilder::new()
        .tune(|s| {
            s.imcs.imcu_max_rows = 256;
            s.imcs.repopulate_min_scn_gap = 0;
            s.imcs.build_pause_micros = 0;
        })
        .build()
        .unwrap();
    c.create_table(TableSpec {
        id: OBJ,
        name: "wide".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&named),
        key_ordinal: 0,
        rows_per_block: 64,
    })
    .unwrap();
    c.set_placement(OBJ, Placement::StandbyOnly).unwrap();
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    for k in 0..1024i64 {
        let mut row = vec![Value::Int(k)];
        row.extend((1..=50).map(|i| Value::Int((k * i) % 97)));
        row.extend((1..=50).map(|i| Value::str(format!("v{}", (k + i) % 31))));
        p.txm.insert(&mut tx, OBJ, row).unwrap();
    }
    p.txm.commit(tx);
    c.sync().unwrap();
    let before = c.standby().metrics().population;

    // 1 row in 16 of every unit: over the repopulation threshold.
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    for k in (0..1024i64).step_by(16) {
        p.txm.update_column_by_key(&mut tx, OBJ, k, "n1", Value::Int(1000 + k)).unwrap();
    }
    p.txm.commit(tx);
    c.sync().unwrap();

    let after = c.standby().metrics().population;
    let rebuilt = after.imcus_repopulated - before.imcus_repopulated;
    let shared = after.columns_shared - before.columns_shared;
    let encoded = after.columns_encoded - before.columns_encoded;
    assert!(rebuilt >= 4, "every unit repopulates: {after:?}");
    assert_eq!(shared + encoded, 101 * rebuilt);
    assert!(shared >= 99 * rebuilt, "shared {shared} of {} columns", 101 * rebuilt);

    let s = c.standby();
    let f = filter(&c, "n1", Value::Int(1016));
    let out = s.query(&QueryRequest::scan(OBJ).filter(f)).unwrap();
    assert!(out.used_imcs);
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0], Value::Int(16));
    let stats = out.stats.unwrap();
    assert_eq!(stats.fallback_rows, 0, "the rebuild absorbed the burst: {stats:?}");
}

#[test]
fn shipping_latency_delays_visibility() {
    let c = cluster(
        NodeBuilder::new().tune(|s| s.transport.latency = std::time::Duration::from_millis(60)),
    );
    seed(&c, 0, 10);
    c.ship_redo().unwrap();
    // Immediately after shipping, nothing is deliverable yet.
    c.standby().pump_until_idle().unwrap();
    assert!(c.standby().query_scn.get().is_none(), "redo still in flight");
    std::thread::sleep(std::time::Duration::from_millis(80));
    c.standby().pump_until_idle().unwrap();
    c.standby().populate_until_idle().unwrap();
    let out = c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 10);
}

/// A latent link must not wake the standby's ingest stage at send time —
/// the batch only becomes deliverable `latency` later, so an immediate
/// wake is spurious (the stage would poll, find nothing due, and park
/// again). The fix: the sender skips the wake for latent batches and the
/// ingest stage's park hint re-arms at the next delivery deadline.
#[test]
fn latent_link_never_spuriously_wakes_ingest() {
    let c = cluster(
        NodeBuilder::new().tune(|s| s.transport.latency = std::time::Duration::from_millis(10)),
    );
    let threads = c.start();
    seed(&c, 0, 50);
    let final_scn = c.primary().current_scn();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while c.standby().query_scn.get().is_none_or(|q| q < final_scn) {
        assert!(std::time::Instant::now() < deadline, "standby failed to catch up");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    // Snapshot before shutdown: stopping the runtime broadcasts one final
    // wake to every parked stage, which would count here.
    let m = c.standby().metrics();
    drop(threads);
    let ingest = m.runtime.stages.iter().find(|s| s.stage == "merger").unwrap();
    assert!(ingest.parks > 0, "ingest parked while batches were in flight");
    assert_eq!(
        ingest.wakeups, 0,
        "every send on a latent link woke ingest before its delivery deadline"
    );
}

#[test]
fn no_inmemory_marker_drops_standby_units() {
    let c = cluster(NodeBuilder::new());
    seed(&c, 0, 30);
    c.sync().unwrap();
    assert!(c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap().used_imcs);
    c.primary()
        .txm
        .execute_ddl(OBJ, TenantId::DEFAULT, imadg_redo::DdlKind::SetInMemory { enabled: false })
        .unwrap();
    c.ship_redo().unwrap();
    c.standby().pump_until_idle().unwrap();
    let out = c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert!(!out.used_imcs, "units dropped by NO INMEMORY");
    assert_eq!(out.count(), 30);
    // Mining filter is off: further changes don't pile up in the journal.
    c.primary().update_one(OBJ, TenantId::DEFAULT, 1, "n1", Value::Int(5)).unwrap();
    c.sync().unwrap();
    assert_eq!(c.standby().adg.as_ref().unwrap().journal.len(), 0);
}

#[test]
fn status_reflects_pipeline_state() {
    let c = cluster(NodeBuilder::new());
    let s0 = c.standby().status();
    assert_eq!(s0.query_scn, None);
    assert_eq!(s0.populated_rows, 0);

    seed(&c, 0, 40);
    // Ship an in-flight transaction too.
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm.update_column_by_key(&mut tx, OBJ, 1, "n1", Value::Int(1)).unwrap();
    c.ship_redo().unwrap();
    c.standby().pump_until_idle().unwrap();
    c.standby().populate_until_idle().unwrap();

    let s1 = c.standby().status();
    assert!(s1.query_scn.is_some());
    assert!(s1.applied_scn >= s1.query_scn.unwrap());
    assert!(s1.advances >= 1);
    assert_eq!(s1.journal_txns, 1, "open txn buffered");
    assert_eq!(s1.journal_records, 1);
    assert_eq!(s1.populated_rows, 40);
    assert!(s1.flushed_records >= 40);
    assert_eq!(s1.coarse_invalidations, 0);
    // Display renders every counter.
    let text = s1.to_string();
    assert!(text.contains("journal=1txn/1rec"));
    assert!(text.contains("populated_rows=40"));
    p.txm.commit(tx);
    c.sync().unwrap();
    assert_eq!(c.standby().status().journal_txns, 0);
}
