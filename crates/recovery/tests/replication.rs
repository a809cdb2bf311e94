//! End-to-end replication: primary transaction manager → redo shipping →
//! standby media recovery. Verifies that the standby's storage converges to
//! the primary's and that QuerySCN semantics hold.

use std::sync::Arc;
use std::time::Duration;

use imadg_common::{
    Clock, MetricsRegistry, ObjectId, QueryScnCell, QuiesceLock, RecoveryConfig, RedoThreadId,
    Runtime, Scn, ScnService, TenantId, TransportConfig,
};
use imadg_net::{build_fanout_link, FanoutLaneSpec, FanoutSender};
use imadg_recovery::MediaRecovery;
use imadg_redo::LogBuffer;
use imadg_storage::{ColumnType, DbaAllocator, Schema, Store, TableSpec, Value};
use imadg_txn::{InMemoryRegistry, LockTable, TxnIdService, TxnManager};

const OBJ: ObjectId = ObjectId(1);

/// Primary and standby joined by a clean one-lane framed link (no faults,
/// no latency). The framed protocol has its own suites; this one checks
/// apply.
struct Harness {
    txm: TxnManager,
    scns: Arc<ScnService>,
    log: Arc<LogBuffer>,
    sender: FanoutSender,
    standby_store: Arc<Store>,
    recovery: Arc<MediaRecovery>,
}

fn spec() -> TableSpec {
    TableSpec {
        id: OBJ,
        name: "t".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[
            ("id", ColumnType::Int),
            ("n1", ColumnType::Int),
            ("c1", ColumnType::Varchar),
        ]),
        key_ordinal: 0,
        rows_per_block: 8,
    }
}

fn harness(workers: usize) -> Harness {
    let primary_store = Arc::new(Store::new());
    primary_store.create_table(spec()).unwrap();
    let standby_store = Arc::new(Store::new());
    standby_store.create_table(spec()).unwrap();

    let scns = Arc::new(ScnService::new());
    let log = Arc::new(LogBuffer::new(RedoThreadId(1)));
    let txm = TxnManager::new(
        primary_store,
        scns.clone(),
        log.clone(),
        Arc::new(TxnIdService::new()),
        Arc::new(LockTable::new()),
        Arc::new(InMemoryRegistry::new()),
        Arc::new(DbaAllocator::default()),
    );

    let lane = FanoutLaneSpec { faults: None, fault_seed: 0, standby_log: None };
    let (sender, receivers) = build_fanout_link(
        RedoThreadId(1),
        &TransportConfig::default(),
        Clock::Real,
        None,
        vec![lane],
    )
    .unwrap();
    let recovery = MediaRecovery::new(
        &RecoveryConfig { workers },
        standby_store.clone(),
        receivers,
        None,
        Arc::new(QueryScnCell::new()),
        Arc::new(QuiesceLock::new()),
        &MetricsRegistry::default(),
    );

    Harness { txm, scns, log, sender, standby_store, recovery }
}

impl Harness {
    /// Ship every buffered record: shipper quanta until one ships nothing.
    fn ship(&self) {
        while self.sender.ship(&self.log, self.scns.current()).unwrap().0 > 0 {}
    }

    fn sync(&self) {
        self.ship();
        self.recovery.pump_until_idle().unwrap();
    }

    fn query_scn(&self) -> Scn {
        self.recovery.coordinator().query_scn().get().expect("published")
    }
}

fn row(k: i64, n: i64, c: &str) -> Vec<Value> {
    vec![Value::Int(k), Value::Int(n), Value::str(c)]
}

#[test]
fn standby_converges_after_commits() {
    let h = harness(4);
    let mut tx = h.txm.begin(TenantId::DEFAULT);
    for k in 0..50 {
        h.txm.insert(&mut tx, OBJ, row(k, k * 10, "v")).unwrap();
    }
    let cscn = h.txm.commit(tx);
    h.sync();

    assert!(h.query_scn() >= cscn, "QuerySCN reaches the commit");
    let mut n = 0;
    h.standby_store.scan_object(OBJ, h.query_scn(), None, |_, _| n += 1).unwrap();
    assert_eq!(n, 50);
    let got = h.standby_store.fetch_by_key(OBJ, 7, h.query_scn(), None).unwrap().unwrap().1;
    assert_eq!(got[1], Value::Int(70));
}

#[test]
fn uncommitted_changes_invisible_on_standby() {
    let h = harness(4);
    let mut tx = h.txm.begin(TenantId::DEFAULT);
    h.txm.insert(&mut tx, OBJ, row(1, 1, "a")).unwrap();
    // Ship the DML without the commit.
    h.sync();
    let q = h.query_scn();
    assert!(
        h.standby_store.fetch_by_key(OBJ, 1, q, None).unwrap().is_none(),
        "in-flight transaction invisible at the QuerySCN"
    );
    let cscn = h.txm.commit(tx);
    h.sync();
    assert!(h.query_scn() >= cscn);
    assert!(h.standby_store.fetch_by_key(OBJ, 1, h.query_scn(), None).unwrap().is_some());
}

#[test]
fn aborted_transactions_never_visible() {
    let h = harness(2);
    let mut tx = h.txm.begin(TenantId::DEFAULT);
    h.txm.insert(&mut tx, OBJ, row(1, 1, "a")).unwrap();
    h.txm.abort(tx);
    h.sync();
    assert!(h.standby_store.fetch_by_key(OBJ, 1, h.query_scn(), None).unwrap().is_none());
}

#[test]
fn updates_replicate_with_correct_versions() {
    let h = harness(4);
    let mut tx = h.txm.begin(TenantId::DEFAULT);
    h.txm.insert(&mut tx, OBJ, row(1, 10, "a")).unwrap();
    let scn_v1 = h.txm.commit(tx);
    let mut tx = h.txm.begin(TenantId::DEFAULT);
    h.txm.update_column_by_key(&mut tx, OBJ, 1, "n1", Value::Int(20)).unwrap();
    let scn_v2 = h.txm.commit(tx);
    h.sync();
    // Standby sees the latest at its QuerySCN…
    let q = h.query_scn();
    assert!(q >= scn_v2);
    let latest = h.standby_store.fetch_by_key(OBJ, 1, q, None).unwrap().unwrap().1;
    assert_eq!(latest[1], Value::Int(20));
    // …and the older version through CR at an older snapshot.
    let old = h.standby_store.fetch_by_key(OBJ, 1, scn_v1, None).unwrap().unwrap().1;
    assert_eq!(old[1], Value::Int(10));
}

#[test]
fn query_scn_only_moves_forward_and_leapfrogs() {
    let h = harness(8);
    let mut last = Scn::ZERO;
    for round in 0..10 {
        let mut tx = h.txm.begin(TenantId::DEFAULT);
        for k in 0..5 {
            h.txm.insert(&mut tx, OBJ, row(round * 5 + k, k, "x")).unwrap();
        }
        h.txm.commit(tx);
        h.sync();
        let q = h.query_scn();
        assert!(q > last, "QuerySCN strictly advanced after new redo");
        last = q;
    }
}

#[test]
fn threaded_recovery_converges() {
    let h = harness(4);
    let mut rt = Runtime::new();
    h.recovery.register_stages(&mut rt);
    let threads = rt.start_threaded();
    let mut expected = Vec::new();
    for round in 0..20i64 {
        let mut tx = h.txm.begin(TenantId::DEFAULT);
        h.txm.insert(&mut tx, OBJ, row(round, round * 2, "t")).unwrap();
        let cscn = h.txm.commit(tx);
        expected.push((round, round * 2));
        h.ship();
        if round == 19 {
            // Wait for the standby to reach the final commit.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                if h.recovery.coordinator().query_scn().get().is_some_and(|q| q >= cscn) {
                    break;
                }
                assert!(std::time::Instant::now() < deadline, "standby failed to catch up");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    threads.shutdown();
    let q = h.query_scn();
    for (k, n) in expected {
        let got = h.standby_store.fetch_by_key(OBJ, k, q, None).unwrap().unwrap().1;
        assert_eq!(got[1], Value::Int(n));
    }
}
