//! Threaded runs of the paper's operation mixes (§IV.A.2), driven straight
//! against the public cluster API: client threads on the primary or the
//! router while the runtime ships, applies and advances the QuerySCN.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use imadg::prelude::*;
use imadg::workload::oltap::NUM_DOMAIN;
use imadg::workload::{build, generate_row, load_wide_table, wide_schema, wide_table_spec, OpKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const WIDE: ObjectId = ObjectId(101);
/// Length of each mix's run.
const WINDOW: Duration = Duration::from_millis(700);
/// Client threads per mix.
const CLIENTS: u64 = 2;
/// Pause between one client's operations.
const PACE: Duration = Duration::from_micros(2_500);

/// The update+insert mix runs from two paced clients on the primary while
/// the threaded runtime ships and applies; afterwards the standby holds
/// exactly the load plus every committed insert.
#[test]
fn insert_mix_grows_the_table_consistently() {
    const LOAD: usize = 1_000;
    let c = AdgCluster::single().unwrap();
    c.create_table(wide_table_spec(WIDE, 64)).unwrap();
    c.set_placement(WIDE, Placement::StandbyOnly).unwrap();
    load_wide_table(&c, WIDE, LOAD, 7).unwrap();
    c.sync().unwrap();

    let threads = c.start();
    let next_key = AtomicI64::new(LOAD as i64);
    let inserted = AtomicUsize::new(0);
    let deadline = Instant::now() + WINDOW;
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let (c, next_key, inserted) = (&c, &next_key, &inserted);
            s.spawn(move || {
                let p = c.primary();
                let mix = OpMix::update_insert();
                let mut rng = SmallRng::seed_from_u64(11 + t * 7919);
                while Instant::now() < deadline {
                    match mix.sample(&mut rng) {
                        OpKind::Update => {
                            let key = rng.gen_range(0..LOAD as i64);
                            let col = format!("n{}", rng.gen_range(1..=2));
                            let v = Value::Int(rng.gen_range(0..1_000));
                            match p.update_one(WIDE, TenantId::DEFAULT, key, &col, v) {
                                Ok(_) | Err(Error::WriteConflict { .. }) => {}
                                Err(e) => panic!("update: {e}"),
                            }
                        }
                        OpKind::Insert => {
                            let row =
                                generate_row(next_key.fetch_add(1, Ordering::Relaxed), &mut rng);
                            p.insert_one(WIDE, TenantId::DEFAULT, row).unwrap();
                            inserted.fetch_add(1, Ordering::Relaxed);
                        }
                        OpKind::Fetch => {
                            p.fetch_by_key(WIDE, rng.gen_range(0..LOAD as i64)).unwrap();
                        }
                        OpKind::Scan => {
                            c.standby().query(&QueryRequest::scan(WIDE)).unwrap();
                        }
                    }
                    std::thread::sleep(PACE);
                }
            });
        }
    });
    drop(threads);

    let inserted = inserted.into_inner();
    assert!(inserted > 0, "the mix committed no insert");
    c.sync().unwrap();
    let total = c.standby().query(&QueryRequest::scan(WIDE).filter(Filter::all())).unwrap().count();
    assert_eq!(total, LOAD + inserted, "standby rows = load + committed inserts");
}

/// The scan-only mix, routed: two clients send Q1/Q2 through the router of
/// a two-standby reader farm, some with a tight staleness bound. Every
/// routed scan runs on one side or the other, and the farm serves some.
#[test]
fn routed_scan_mix_offloads_to_farm() {
    let c = NodeBuilder::new().reader_farm(2).dbim_on_adg(true).build().unwrap();
    c.create_table(wide_table_spec(WIDE, 64)).unwrap();
    c.set_placement(WIDE, Placement::Both).unwrap();
    load_wide_table(&c, WIDE, 1_000, 7).unwrap();
    c.sync().unwrap();
    c.populate_primary().unwrap();

    let threads = c.start();
    let schema = wide_schema();
    let (total, standby, primary) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let deadline = Instant::now() + WINDOW;
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let (c, schema, total, standby, primary) = (&c, &schema, &total, &standby, &primary);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(11 + t * 7919);
                let mut i = 0u64;
                while Instant::now() < deadline {
                    let id = if i.is_multiple_of(2) { QueryId::Q1 } else { QueryId::Q2 };
                    let filter = build(id, schema, rng.gen_range(0..NUM_DOMAIN)).unwrap();
                    let mut req = QueryRequest::scan(WIDE).filter(filter);
                    if i.is_multiple_of(4) {
                        req = req.max_staleness(Duration::from_micros(500));
                    }
                    let (_, decision) = c.route_query(&req).unwrap();
                    total.fetch_add(1, Ordering::Relaxed);
                    let side = if decision.offloaded() { standby } else { primary };
                    side.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                    std::thread::sleep(PACE);
                }
            });
        }
    });
    drop(threads);

    let (total, standby, primary) =
        (total.into_inner(), standby.into_inner(), primary.into_inner());
    assert!(total > 0, "scans executed: {total}");
    assert_eq!(standby + primary, total, "every routed scan lands somewhere");
    assert!(standby > 0, "farm served at least one scan");
}
