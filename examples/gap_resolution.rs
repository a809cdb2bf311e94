//! Gap detection and NAK-driven resolution on a faulty redo link.
//!
//! The redo transport ships length-prefixed, checksummed, per-thread
//! sequence-numbered frames. This example injects a *hard network
//! partition* (plus background frame loss) between primary and standby:
//! frames vanish on the wire, the standby's receiver notices the sequence
//! gaps, NAKs the missing ranges, and the primary retransmits them from
//! its bounded retained-redo window — no redo is ever applied twice or
//! out of order.
//!
//! ```sh
//! cargo run --release --example gap_resolution
//! ```

use imadg::prelude::*;

const ORDERS: ObjectId = ObjectId(1);

fn main() -> Result<()> {
    // A framed link with a seeded fault plan: every 40th link tick opens
    // a 12-tick partition window (everything sent inside it is lost), and
    // 3% of the remaining frames drop anyway.
    let cluster = NodeBuilder::new()
        .link(LinkMode::Framed)
        .tune(|s| {
            s.transport.faults = Some(FaultPlan {
                seed: 0x0B_AD11,
                drop_per_mille: 30,
                partition_every: 40,
                partition_ticks: 12,
                ..FaultPlan::default()
            })
        })
        .build()?;

    cluster.create_table(TableSpec {
        id: ORDERS,
        name: "orders".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[("id", ColumnType::Int), ("amount", ColumnType::Int)]),
        key_ordinal: 0,
        rows_per_block: 64,
    })?;
    cluster.set_placement(ORDERS, Placement::StandbyOnly)?;

    // OLTP on the primary, shipping after every commit so the fault plan
    // gets plenty of frames to chew on. Some of these batches are eaten
    // by the partition windows.
    let p = cluster.primary();
    for k in 0..300i64 {
        p.insert_one(ORDERS, TenantId::DEFAULT, vec![Value::Int(k), Value::Int(k * 10)])?;
        cluster.ship_redo()?;
        cluster.standby().pump()?;
    }

    let mid = cluster.standby().metrics().transport;
    println!("mid-flight, partitions have bitten:");
    println!("  frames received .... {}", mid.frames_received);
    println!("  gaps detected ...... {}", mid.gaps_detected);
    println!("  gaps resolved ...... {}", mid.gaps_resolved);
    println!("  NAKs sent .......... {}", mid.naks_sent);
    println!();

    // Catch-up: keep shipping protocol quanta until every gap is NAKed,
    // retransmitted from the primary's retained window, and applied.
    cluster.sync()?;

    let t = cluster.standby().metrics().transport;
    let pt = cluster.primary().metrics().transport;
    println!("after NAK catch-up, standby transport snapshot:");
    println!("  records shipped .... {}", pt.records_shipped);
    println!("  bytes shipped ...... {}", pt.bytes_shipped);
    println!("  frames sent ........ {}", pt.frames_sent);
    println!("  frames received .... {}", t.frames_received);
    println!("  gaps detected ...... {}", t.gaps_detected);
    println!("  gaps resolved ...... {}", t.gaps_resolved);
    println!("  NAKs sent .......... {}", t.naks_sent);
    println!("  retransmits ........ {}", t.retransmits);
    println!("  duplicates dropped . {}", t.duplicates_dropped);
    println!();

    assert_eq!(t.gaps_detected, t.gaps_resolved, "every gap closed");
    let rows = cluster.standby().query(&QueryRequest::scan(ORDERS).filter(Filter::all()))?;
    println!(
        "standby QuerySCN {} — {} rows visible, exactly once, in order",
        cluster.standby().current_query_scn()?.raw(),
        rows.count()
    );
    assert_eq!(rows.count(), 300);
    Ok(())
}
