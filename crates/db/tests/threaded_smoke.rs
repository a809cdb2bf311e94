//! Threaded-scheduler smoke test: start the full deployment's background
//! threads, push a DML burst through, wait for the standby to converge,
//! shut down cleanly — and verify no thread leaked.
//!
//! Kept as a single test in its own binary so the process thread count is
//! not perturbed by concurrently running sibling tests.

use imadg_db::{
    ColumnType, Filter, NodeBuilder, ObjectId, Placement, QueryRequest, Schema, TableSpec,
    TenantId, Value,
};

const OBJ: ObjectId = ObjectId(11);

/// Current thread count of this process (Linux: /proc/self/status).
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs available");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line present")
}

#[test]
fn start_burst_drain_shutdown_leaks_no_threads() {
    let baseline = thread_count();

    let c = NodeBuilder::new().primary_instances(2).standby_instances(2).build().unwrap();
    c.create_table(TableSpec {
        id: OBJ,
        name: "smoke".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[("id", ColumnType::Int), ("n1", ColumnType::Int)]),
        key_ordinal: 0,
        rows_per_block: 16,
    })
    .unwrap();
    c.set_placement(OBJ, Placement::StandbyOnly).unwrap();

    let threads = c.start();
    assert!(thread_count() > baseline, "stage threads actually spawned");

    // Burst: transactions across both primary instances while the
    // pipeline ships, applies, advances and populates behind them.
    for k in 0..300i64 {
        let p = &c.primaries()[(k % 2) as usize];
        p.insert_one(OBJ, TenantId::DEFAULT, vec![Value::Int(k), Value::Int(k % 10)]).unwrap();
    }
    let final_scn = c.primary().current_scn();

    // Drain: the standby converges without any manual pumping.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while c.standby().query_scn.get().is_none_or(|q| q < final_scn) {
        assert!(threads.health().is_healthy(), "pipeline failed: {}", threads.health());
        assert!(std::time::Instant::now() < deadline, "standby failed to catch up");
        std::thread::yield_now();
    }
    let out = c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 300);

    // Clean shutdown: healthy, and every stage thread joined.
    assert!(threads.shutdown().is_healthy());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        if thread_count() <= baseline {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "leaked threads: {} stage thread(s) still alive after shutdown",
            thread_count() - baseline
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}
