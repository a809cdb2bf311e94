//! Reader-farm offload floor.
//!
//! The paper's pitch for In-Memory on Active Data Guard is offload:
//! analytics leave the primary and land on standby reader nodes. Each
//! standby here brings its own paced reader load (2 workers issuing routed
//! Q1/Q2 scans at 250/s each), so the offered load grows with the farm
//! while the load per standby stays constant, and a live insert stream
//! keeps every standby's apply pipeline busy. A healthy farm absorbs that
//! load; a farm whose fan-out shipping, apply or routing chokes falls off
//! the pace and misses the floor.
//!
//! This file is its own test binary so that the timed runs never share the
//! host with other tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use imadg_db::{NodeBuilder, ObjectId, Placement, QueryRequest, TenantId};
use imadg_workload::oltap::NUM_DOMAIN;
use imadg_workload::{build, generate_row, load_wide_table, wide_schema, wide_table_spec, QueryId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const WIDE: ObjectId = ObjectId(101);
const ROWS: usize = 2_000;
/// Length of the paced window per farm size.
const WINDOW: Duration = Duration::from_millis(1_500);
/// Client workers per standby (each farm member's modelled reader load).
const WORKERS_PER_STANDBY: usize = 2;
/// Paced scans per second per worker.
const WORKER_SCANS_PER_SEC: f64 = 250.0;
/// Offloaded scans/s at four standbys over those at one.
const MIN_SCALING: f64 = 1.7;

/// Where the routed scans of one farm run landed.
#[derive(Debug, Default)]
struct Tally {
    total: AtomicU64,
    standby: AtomicU64,
    primary: AtomicU64,
}

/// Build a farm of `standbys`, run the paced routed-scan pools beside an
/// insert stream for [`WINDOW`], and return the tally and the wall time.
fn run_farm(standbys: usize) -> (Tally, f64) {
    let cluster = NodeBuilder::new().reader_farm(standbys).dbim_on_adg(true).build().unwrap();
    cluster.create_table(wide_table_spec(WIDE, 64)).unwrap();
    // Both sides hold the column store, so a scan the router bounces to
    // the primary still runs in memory.
    cluster.set_placement(WIDE, Placement::Both).unwrap();
    load_wide_table(&cluster, WIDE, ROWS, 7).unwrap();
    cluster.sync().unwrap();
    cluster.populate_primary().unwrap();

    let threads = cluster.start();
    let schema = wide_schema();
    let tally = Tally::default();
    let started = Instant::now();
    let deadline = started + WINDOW;
    std::thread::scope(|s| {
        // Single-row committed inserts keep redo fanning out to every
        // standby.
        s.spawn(|| {
            let p = cluster.primary();
            let mut rng = SmallRng::seed_from_u64(9001);
            let mut key = ROWS as i64;
            while Instant::now() < deadline {
                p.insert_one(WIDE, TenantId::DEFAULT, generate_row(key, &mut rng)).unwrap();
                key += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        for w in 0..standbys * WORKERS_PER_STANDBY {
            let (cluster, schema, tally) = (&cluster, &schema, &tally);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(4242 + w as u64 * 7919);
                let period = Duration::from_secs_f64(1.0 / WORKER_SCANS_PER_SEC);
                let mut next = Instant::now();
                let mut i = 0u64;
                while Instant::now() < deadline {
                    let id = if i.is_multiple_of(2) { QueryId::Q1 } else { QueryId::Q2 };
                    let filter = build(id, schema, rng.gen_range(0..NUM_DOMAIN)).unwrap();
                    let mut req = QueryRequest::scan(WIDE).filter(filter);
                    // Mixed tolerances: 1/8 tight (may fall back to the
                    // primary under DML pressure), 3/8 relaxed, the rest
                    // unbounded.
                    match i % 8 {
                        0 => req = req.max_staleness(Duration::from_micros(500)),
                        1..=3 => req = req.max_staleness(Duration::from_millis(100)),
                        _ => {}
                    }
                    let (_, decision) = cluster.route_query(&req).unwrap();
                    tally.total.fetch_add(1, Ordering::Relaxed);
                    let side = if decision.offloaded() { &tally.standby } else { &tally.primary };
                    side.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                    next += period;
                    let now = Instant::now();
                    if next > now {
                        std::thread::sleep(next - now);
                    } else {
                        // Behind pace: do not bank a burst.
                        next = now;
                    }
                }
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    cluster.sync().unwrap();
    drop(threads);
    (tally, wall)
}

#[test]
fn farm_absorbs_offered_scan_load() {
    let mut offloaded_per_sec = Vec::new();
    for standbys in [1, 4] {
        let (tally, wall) = run_farm(standbys);
        let total = tally.total.load(Ordering::Relaxed);
        let standby = tally.standby.load(Ordering::Relaxed);
        let primary = tally.primary.load(Ordering::Relaxed);
        assert_eq!(standby + primary, total, "every routed scan lands somewhere: {tally:?}");
        assert!(standby > 0, "the farm of {standbys} served no scan: {tally:?}");
        let rate = standby as f64 / wall;
        println!("farm of {standbys}: {rate:.0} offloaded scans/s over {wall:.2} s, {tally:?}");
        offloaded_per_sec.push(rate);
    }
    let scaling = offloaded_per_sec[1] / offloaded_per_sec[0];
    assert!(
        scaling >= MIN_SCALING,
        "4 standbys offloaded {:.0} scans/s, 1 standby {:.0}: {scaling:.2}x < {MIN_SCALING}x",
        offloaded_per_sec[1],
        offloaded_per_sec[0]
    );
}
