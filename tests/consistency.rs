//! Property-based end-to-end consistency: random interleaved transaction
//! histories run through the full pipeline (primary DML → redo shipping →
//! parallel apply → mining/journal/flush → QuerySCN), and the standby's
//! answer at every published QuerySCN must equal a serial model's.
//!
//! This is invariant **P1** of DESIGN.md: a query at QuerySCN `S` sees all
//! changes of every transaction with commit SCN ≤ `S` and none of any
//! other — whether rows are served from IMCU data or the CR fallback.

use std::collections::BTreeMap;
use std::sync::Arc;

use imadg_db::{
    AdgCluster, ColumnType, Filter, NodeBuilder, ObjectId, Placement, QueryRequest, Schema,
    TableSpec, TenantId, Value,
};
use proptest::prelude::*;

const OBJ: ObjectId = ObjectId(1);
const KEYS: i64 = 24;

/// One step of a generated history. Transactions are identified by a small
/// slot index (0..3); a slot can be reused after commit/abort.
#[derive(Debug, Clone)]
enum Step {
    Begin(u8),
    Insert(u8, i64, i64),
    Update(u8, i64, i64),
    Delete(u8, i64),
    Commit(u8),
    Abort(u8),
    /// Ship + apply + advance + populate, then check standby vs model.
    Sync,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let slot = 0..3u8;
    let key = 0..KEYS;
    let val = 0..1000i64;
    prop_oneof![
        2 => slot.clone().prop_map(Step::Begin),
        4 => (slot.clone(), key.clone(), val.clone()).prop_map(|(s, k, v)| Step::Insert(s, k, v)),
        4 => (slot.clone(), key.clone(), val).prop_map(|(s, k, v)| Step::Update(s, k, v)),
        2 => (slot.clone(), key).prop_map(|(s, k)| Step::Delete(s, k)),
        3 => slot.clone().prop_map(Step::Commit),
        1 => slot.prop_map(Step::Abort),
        2 => Just(Step::Sync),
    ]
}

#[derive(Debug, Clone, PartialEq)]
enum Write {
    Put(i64, i64),
    Del(i64),
}

fn schema() -> Schema {
    Schema::of(&[("id", ColumnType::Int), ("v", ColumnType::Int)])
}

fn run_history(steps: Vec<Step>, standby_instances: usize) {
    run_history_with(steps, standby_instances, false)
}

/// `churn` forces tiny units plus repopulation on every pass, maximizing
/// unit-swap / carry-over traffic during the history.
fn run_history_with(steps: Vec<Step>, standby_instances: usize, churn: bool) {
    let mut builder = NodeBuilder::new().standby_instances(standby_instances);
    if churn {
        builder = builder.tune(|s| {
            s.imcs.imcu_max_rows = 8;
            s.imcs.repopulate_threshold = 0.0;
            s.imcs.repopulate_min_scn_gap = 0;
            s.imcs.build_pause_micros = 0;
        });
    }
    let cluster = builder.build().unwrap();
    cluster
        .create_table(TableSpec {
            id: OBJ,
            name: "t".into(),
            tenant: TenantId::DEFAULT,
            schema: schema(),
            key_ordinal: 0,
            rows_per_block: 4,
        })
        .unwrap();
    cluster.set_placement(OBJ, Placement::StandbyOnly).unwrap();

    let p = cluster.primary().clone();
    // Live transactions per slot, with their staged (model) writes.
    let mut live: Vec<Option<(imadg_txn::Transaction, Vec<Write>)>> = vec![None, None, None];
    // The serial model of committed state.
    let mut model: BTreeMap<i64, i64> = BTreeMap::new();
    // Historical snapshots: (query_scn, model at that point).
    let mut history: Vec<(imadg_db::Scn, BTreeMap<i64, i64>)> = Vec::new();

    for step in steps {
        match step {
            Step::Begin(s) => {
                if live[s as usize].is_none() {
                    live[s as usize] = Some((p.txm.begin(TenantId::DEFAULT), Vec::new()));
                }
            }
            Step::Insert(s, k, v) => {
                if let Some((tx, writes)) = live[s as usize].as_mut() {
                    if p.txm.insert(tx, OBJ, vec![Value::Int(k), Value::Int(v)]).is_ok() {
                        writes.push(Write::Put(k, v));
                    }
                }
            }
            Step::Update(s, k, v) => {
                if let Some((tx, writes)) = live[s as usize].as_mut() {
                    if p.txm.update_column_by_key(tx, OBJ, k, "v", Value::Int(v)).is_ok() {
                        writes.push(Write::Put(k, v));
                    }
                }
            }
            Step::Delete(s, k) => {
                if let Some((tx, writes)) = live[s as usize].as_mut() {
                    if p.txm.delete_by_key(tx, OBJ, k).is_ok() {
                        writes.push(Write::Del(k));
                    }
                }
            }
            Step::Commit(s) => {
                if let Some((tx, writes)) = live[s as usize].take() {
                    p.txm.commit(tx);
                    for w in writes {
                        match w {
                            Write::Put(k, v) => {
                                model.insert(k, v);
                            }
                            Write::Del(k) => {
                                model.remove(&k);
                            }
                        }
                    }
                }
            }
            Step::Abort(s) => {
                if let Some((tx, _)) = live[s as usize].take() {
                    p.txm.abort(tx);
                }
            }
            Step::Sync => {
                cluster.sync().unwrap();
                let standby = cluster.standby();
                let q = standby.current_query_scn().unwrap();
                check_matches_model(&cluster, &model, "live sync");
                history.push((q, model.clone()));
            }
        }
    }
    // Final sync after finishing open transactions.
    for slot in live.iter_mut() {
        if let Some((tx, writes)) = slot.take() {
            p.txm.commit(tx);
            for w in writes {
                match w {
                    Write::Put(k, v) => {
                        model.insert(k, v);
                    }
                    Write::Del(k) => {
                        model.remove(&k);
                    }
                }
            }
        }
    }
    cluster.sync().unwrap();
    check_matches_model(&cluster, &model, "final sync");

    // Consistent Read into the past: each recorded QuerySCN still answers
    // with its historical state through version chains.
    let standby = cluster.standby();
    for (q, snapshot_model) in history {
        let mut got: BTreeMap<i64, i64> = BTreeMap::new();
        standby
            .store
            .scan_object(OBJ, q, None, |_, row| {
                got.insert(row[0].as_int().unwrap(), row[1].as_int().unwrap());
            })
            .unwrap();
        assert_eq!(got, snapshot_model, "CR at historical QuerySCN {q}");
    }
}

fn check_matches_model(cluster: &AdgCluster, model: &BTreeMap<i64, i64>, ctx: &str) {
    let standby = cluster.standby();
    let out = standby.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    let mut got: BTreeMap<i64, i64> = BTreeMap::new();
    for row in &out.rows {
        let prev = got.insert(row[0].as_int().unwrap(), row[1].as_int().unwrap());
        assert!(prev.is_none(), "{ctx}: duplicate key {:?} in scan result", row[0]);
    }
    assert_eq!(&got, model, "{ctx}: standby scan != serial model");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
    })]

    #[test]
    fn standby_matches_serial_model(steps in proptest::collection::vec(step_strategy(), 1..60)) {
        run_history(steps, 1);
    }

    #[test]
    fn rac_standby_matches_serial_model(steps in proptest::collection::vec(step_strategy(), 1..40)) {
        run_history(steps, 2);
    }

    /// Repopulation churn: every sync rebuilds every (tiny) unit, so the
    /// SMU carry-over and pending-register protocols are exercised on
    /// every step of the history.
    #[test]
    fn repopulation_churn_matches_serial_model(steps in proptest::collection::vec(step_strategy(), 1..40)) {
        run_history_with(steps, 1, true);
    }
}

#[test]
fn deterministic_smoke_history() {
    use Step::*;
    run_history(
        vec![
            Begin(0),
            Insert(0, 1, 10),
            Insert(0, 2, 20),
            Commit(0),
            Sync,
            Begin(0),
            Begin(1),
            Update(0, 1, 11),
            Delete(1, 2),
            Sync, // both still uncommitted here
            Commit(1),
            Sync,
            Abort(0),
            Sync,
        ],
        1,
    );
}

#[test]
fn arc_cluster_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Arc<AdgCluster>>();
}
