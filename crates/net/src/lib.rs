//! Networked redo transport for the primary → standby link.
//!
//! Every deployment ships redo over the framed link built here:
//!
//! * [`wire`] — length-prefixed, CRC-32-checksummed, sequence-numbered
//!   frame format for redo batches and the gap-resolution control frames;
//! * [`pipe`] — the frame-medium abstraction ([`pipe::FrameTx`] /
//!   [`pipe::FrameRx`]) with an in-process channel implementation;
//! * [`tcp`] — a non-blocking loopback-TCP medium with reconnect via
//!   exponential backoff + jitter (the paper's deployment shape, §I);
//! * [`fault`] — a composable, seeded [`fault::FaultInjector`] medium
//!   wrapper (drop / duplicate / reorder / delay / partition / carrier
//!   drop) that replays bit-for-bit under the step scheduler;
//! * [`fanout`] — the one primary-side sender, which is also the shipping
//!   process: one [`FanoutSender::ship`] quantum drains a batch of redo (or
//!   heartbeats) and services the link once — sequence numbers, a bounded
//!   retained-redo window shared by 0..N standby lanes, archive-served
//!   NAKs, and per-lane liveness pings;
//! * [`reliable`] — the standby-side receiver: gap detection, NAKs,
//!   cumulative ACKs and restart replay, delivering redo exactly once and
//!   in order no matter what the medium does.
//!
//! [`build_fanout_link`] assembles the stack per [`LinkMode`];
//! `imadg-db`'s cluster wiring picks the mode from `TransportConfig`.

pub mod fanout;
pub mod fault;
pub mod pipe;
pub mod reliable;
pub mod tcp;
pub mod wire;

use std::sync::Arc;
use std::time::Duration;

use imadg_common::config::{FaultPlan, LinkMode, TransportConfig};
use imadg_common::{Clock, RedoThreadId, Result};
use imadg_redo::DurableLog;

pub use fanout::{FanoutLane, FanoutSender};
pub use fault::FaultInjector;
pub use reliable::ReliableReceiver;
pub use tcp::TcpLink;

use crate::pipe::{channel_pipe, FrameRx, FrameTx};

/// One standby's parameters for a fan-out link: an optional per-lane
/// fault-plan override (a reader-farm chaos matrix faults one lane while
/// the others stay clean), a decorrelation term for the seeded fault
/// stream, and the lane's standby-side durable tee.
pub struct FanoutLaneSpec {
    /// Per-lane fault override; `None` inherits `TransportConfig::faults`.
    pub faults: Option<FaultPlan>,
    /// XORed into the fault-plan seed so each lane's chaos stream is
    /// independent yet schedule-deterministic.
    pub fault_seed: u64,
    /// This standby's durable tee (None when durability is off).
    pub standby_log: Option<Arc<DurableLog>>,
}

/// A built fan-out link: the primary-side sender plus one receiver per
/// lane, in lane order.
pub type FanoutEndpoints = (FanoutSender, Vec<ReliableReceiver>);

/// One lane's transport plumbing: data tx/rx plus the reverse control
/// channel (ACK/NAK/Hello) tx/rx.
type LanePipes = (Box<dyn FrameTx>, Box<dyn FrameRx>, Box<dyn FrameTx>, Box<dyn FrameRx>);

/// Build the link kind `cfg.mode` names, fanned out to `lanes` standbys: one
/// [`FanoutSender`] on the primary side, one [`ReliableReceiver`] per lane
/// in lane order. The data path of each lane is wrapped in its fault plan
/// (if any); control frames travel losslessly (NAK retries already cover
/// control loss, and a clean control path keeps step-mode convergence
/// bounded). TCP construction errors propagate so callers can skip with a
/// notice when sockets are unavailable.
pub fn build_fanout_link(
    thread: RedoThreadId,
    cfg: &TransportConfig,
    clock: Clock,
    primary_log: Option<Arc<DurableLog>>,
    lanes: Vec<FanoutLaneSpec>,
) -> Result<FanoutEndpoints> {
    let mut built = Vec::with_capacity(lanes.len());
    let mut receivers = Vec::with_capacity(lanes.len());
    for spec in lanes {
        let (data_tx, data_rx, ctrl_tx, ctrl_rx): LanePipes = match cfg.mode {
            LinkMode::Framed => {
                let (dtx, drx) = channel_pipe(cfg.latency, clock.clone());
                let (ctx, crx) = channel_pipe(Duration::ZERO, clock.clone());
                (Box::new(dtx), Box::new(drx), Box::new(ctx), Box::new(crx))
            }
            LinkMode::Tcp => {
                let link = TcpLink::loopback(spec.fault_seed)?;
                let (dtx, crx) = link.primary_halves();
                let (drx, ctx) = link.standby_halves();
                (Box::new(dtx), Box::new(drx), Box::new(ctx), Box::new(crx))
            }
        };
        let data_tx: Box<dyn FrameTx> = match spec.faults.as_ref().or(cfg.faults.as_ref()) {
            Some(plan) => {
                let mut plan = plan.clone();
                // Decorrelate the per-lane fault streams while keeping
                // the whole schedule seed-determined.
                plan.seed ^= spec.fault_seed;
                Box::new(FaultInjector::new(data_tx, plan))
            }
            None => data_tx,
        };
        let mut rx = ReliableReceiver::new(thread, data_rx, ctrl_tx, cfg);
        if let Some(log) = spec.standby_log {
            rx.set_durable_log(log);
        }
        receivers.push(rx);
        built.push(FanoutLane { data_tx, ctrl_rx });
    }
    let tx = FanoutSender::new(thread, built, cfg);
    if let Some(log) = primary_log {
        tx.set_durable_log(log);
    }
    Ok((tx, receivers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_common::config::FaultPlan;
    use imadg_common::{MetricsRegistry, Scn, ScnService};
    use imadg_redo::record::{RedoPayload, RedoRecord};
    use imadg_redo::LogBuffer;

    fn rec(scn: u64) -> RedoRecord {
        RedoRecord {
            thread: RedoThreadId(1),
            scn: Scn(scn),
            born_us: 0,
            payload: RedoPayload::Heartbeat,
        }
    }

    /// The acceptance-criteria plan: 5% drop + 2% duplicate + reorder 8.
    fn chaos_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_per_mille: 50,
            duplicate_per_mille: 20,
            reorder_window: 8,
            ..FaultPlan::default()
        }
    }

    /// A one-lane framed link: the shape of every single-standby
    /// deployment.
    fn one_lane(
        cfg: &TransportConfig,
        primary_log: Option<Arc<DurableLog>>,
        standby_log: Option<Arc<DurableLog>>,
    ) -> (FanoutSender, ReliableReceiver) {
        let lane = FanoutLaneSpec { faults: None, fault_seed: 0, standby_log };
        let (tx, mut rxs) =
            build_fanout_link(RedoThreadId(1), cfg, Clock::Real, primary_log, vec![lane]).unwrap();
        (tx, rxs.remove(0))
    }

    #[test]
    fn shipper_heartbeats_idle_buffer() {
        let scns = ScnService::new();
        scns.next(); // advance database time
        let buf = LogBuffer::new(RedoThreadId(1));
        let (tx, mut rx) = one_lane(&TransportConfig::default(), None, None);
        let (shipped, _) = tx.ship(&buf, scns.current()).unwrap();
        assert_eq!(shipped, 0);
        let got = rx.drain_ready().unwrap();
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0].payload, RedoPayload::Heartbeat));
        assert_eq!(got[0].scn, Scn(1));
    }

    #[test]
    fn shipper_dedups_heartbeats_at_same_scn() {
        let scns = ScnService::new();
        scns.next();
        let buf = LogBuffer::new(RedoThreadId(1));
        let (tx, mut rx) = one_lane(&TransportConfig::default(), None, None);
        for _ in 0..5 {
            tx.ship(&buf, scns.current()).unwrap();
        }
        assert_eq!(rx.drain_ready().unwrap().len(), 1, "one heartbeat per SCN advance");
        scns.next();
        tx.ship(&buf, scns.current()).unwrap();
        assert_eq!(rx.drain_ready().unwrap().len(), 1, "new SCN earns a fresh heartbeat");
    }

    #[test]
    fn shipper_drains_buffer() {
        let scns = ScnService::new();
        let buf = LogBuffer::new(RedoThreadId(1));
        for _ in 0..20 {
            buf.log_with(&scns, |_| RedoPayload::Heartbeat);
        }
        let (tx, mut rx) = one_lane(&TransportConfig::default(), None, None);
        let mut shipped = 0;
        loop {
            match tx.ship(&buf, scns.current()).unwrap() {
                (0, _) => break,
                (n, _) => shipped += n,
            }
        }
        assert_eq!(shipped, 20);
        assert_eq!(rx.drain_ready().unwrap().len(), 20);
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn faulty_framed_link_converges_to_exact_delivery() {
        for seed in 0..8u64 {
            let cfg = TransportConfig {
                mode: LinkMode::Framed,
                faults: Some(chaos_plan(seed)),
                nak_retry_polls: 4,
                ping_idle_polls: 8,
                ..TransportConfig::default()
            };
            let (tx, mut rx) = one_lane(&cfg, None, None);
            let registry = MetricsRegistry::default();
            rx.bind_metrics(&registry);
            let m = &registry.transport;

            let mut got = Vec::new();
            for scn in 1..=500u64 {
                tx.send(vec![rec(scn)]).unwrap();
                got.extend(rx.drain_ready().unwrap());
                tx.service().unwrap();
            }
            for _ in 0..50_000 {
                if got.len() == 500 && !tx.pending() && !rx.transport_pending() {
                    break;
                }
                got.extend(rx.drain_ready().unwrap());
                tx.service().unwrap();
            }
            assert_eq!(
                got.iter().map(|r| r.scn.0).collect::<Vec<_>>(),
                (1..=500).collect::<Vec<_>>(),
                "seed {seed}: exactly-once in-order delivery under chaos"
            );
            assert!(!tx.pending() && !rx.transport_pending(), "seed {seed}: link quiesced");
            assert_eq!(m.gaps_detected.get(), m.gaps_resolved.get(), "seed {seed}");
            assert!(m.gaps_detected.get() > 0, "seed {seed}: 5% drop over 500 frames gaps");
            assert!(m.retransmits.get() > 0, "seed {seed}: gaps imply retransmits");
        }
    }

    /// Standby crash with an unsynced tail: the receiver alone replays
    /// its durable prefix from disk — several segments, at most 64
    /// batches per drain, pending throughout — and only then takes the
    /// lost tail from the live link, NAK-served from the retained window
    /// plus the primary's archive (retained_window=4 keeps only the newest
    /// seqs in memory).
    #[test]
    fn durable_link_replays_and_catches_up_after_receiver_restart() {
        let base = std::env::temp_dir().join(format!("imadg-netdur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let p_log = Arc::new(DurableLog::open(base.join("p"), 1024).unwrap());
        let s_log = Arc::new(DurableLog::open(base.join("s"), 1024).unwrap());
        let cfg = TransportConfig {
            mode: LinkMode::Framed,
            retained_window: 4,
            nak_retry_polls: 4,
            ping_idle_polls: 4,
            ..TransportConfig::default()
        };
        let (tx, mut rx) = one_lane(&cfg, Some(p_log.clone()), Some(s_log.clone()));
        let registry = MetricsRegistry::default();
        rx.bind_metrics(&registry);
        let m = &registry.durability;

        let mut live = Vec::new();
        for scn in 1..=170u64 {
            tx.send(vec![rec(scn)]).unwrap();
            tx.service().unwrap();
            live.extend(rx.drain_ready().unwrap());
            if scn % 10 == 0 && scn <= 130 {
                rx.durable_sync().unwrap();
            }
        }
        assert_eq!(live.len(), 170);
        assert_eq!(s_log.durable_seq(), 130, "group commit persisted the drained prefix");
        let tiers = ["wal", "archive"].map(|t| std::fs::read_dir(base.join("s").join(t)));
        assert!(tiers.into_iter().map(|d| d.unwrap().count()).sum::<usize>() >= 3);

        // Crash: the unsynced standby tail (131..=170) is gone; reassembly
        // state rewinds to the durable position. The receiver alone must
        // deliver everything again, exactly once and in order.
        rx.reset_for_restart().unwrap();
        let (mut caught, mut replay_drains) = (Vec::new(), Vec::new());
        for _ in 0..50_000 {
            let replaying = caught.len() < 130;
            if replaying {
                assert!(rx.transport_pending(), "pending until the last disk batch");
                assert_eq!(rx.time_to_next(), Some(Duration::ZERO));
            }
            tx.service().unwrap();
            let got = rx.drain_ready().unwrap();
            if replaying {
                replay_drains.push(got.len());
            }
            caught.extend(got);
            if caught.len() >= 170 && !rx.transport_pending() {
                break;
            }
        }
        assert_eq!(replay_drains, vec![64, 64, 2], "disk batches replay 64 per drain");
        assert_eq!(m.replayed_batches.get(), 130);
        let scns: Vec<u64> = caught.iter().map(|r| r.scn.0).collect();
        assert_eq!(scns, (1..=170).collect::<Vec<_>>(), "disk replay + NAK catch-up is lossless");
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A 3-lane framed fan-out with chaos on exactly one lane: every lane
    /// converges to exact in-order delivery, the clean lanes never see a
    /// gap, and the faulted lane's gaps all resolve.
    #[test]
    fn fanout_one_faulted_lane_converges_everywhere() {
        for seed in 0..4u64 {
            let cfg = TransportConfig {
                mode: LinkMode::Framed,
                nak_retry_polls: 4,
                ping_idle_polls: 8,
                ..TransportConfig::default()
            };
            let lanes = (0..3)
                .map(|i| FanoutLaneSpec {
                    faults: (i == 1).then(|| chaos_plan(seed)),
                    fault_seed: i as u64,
                    standby_log: None,
                })
                .collect();
            let (tx, mut rxs) =
                build_fanout_link(RedoThreadId(1), &cfg, Clock::Real, None, lanes).unwrap();
            let registries: Vec<MetricsRegistry> = (0..3).map(|_| Default::default()).collect();
            for (rx, r) in rxs.iter_mut().zip(&registries) {
                rx.bind_metrics(r);
            }
            let metrics: Vec<_> = registries.iter().map(|r| &r.transport).collect();
            let mut got = [Vec::new(), Vec::new(), Vec::new()];
            for scn in 1..=300u64 {
                tx.send(vec![rec(scn)]).unwrap();
                for (i, rx) in rxs.iter_mut().enumerate() {
                    got[i].extend(rx.drain_ready().unwrap());
                }
                tx.service().unwrap();
            }
            for _ in 0..50_000 {
                if got.iter().all(|g| g.len() == 300)
                    && !tx.pending()
                    && rxs.iter().all(|r| !r.transport_pending())
                {
                    break;
                }
                for (i, rx) in rxs.iter_mut().enumerate() {
                    got[i].extend(rx.drain_ready().unwrap());
                }
                tx.service().unwrap();
            }
            for (i, g) in got.iter().enumerate() {
                assert_eq!(
                    g.iter().map(|r| r.scn.0).collect::<Vec<_>>(),
                    (1..=300).collect::<Vec<_>>(),
                    "seed {seed} lane {i}: exactly-once in-order delivery"
                );
            }
            assert!(!tx.pending(), "seed {seed}: all lanes acked");
            for (i, m) in metrics.iter().enumerate() {
                assert_eq!(m.gaps_detected.get(), m.gaps_resolved.get(), "seed {seed} lane {i}");
                if i != 1 {
                    assert_eq!(m.gaps_detected.get(), 0, "seed {seed}: clean lane {i} saw no gap");
                }
            }
            assert!(metrics[1].gaps_detected.get() > 0, "seed {seed}: faulted lane gapped");
        }
    }

    #[test]
    fn fanout_link_constructs_every_mode() {
        let lane = || vec![FanoutLaneSpec { faults: None, fault_seed: 0, standby_log: None }];
        let framed = TransportConfig::default();
        let built = build_fanout_link(RedoThreadId(1), &framed, Clock::Real, None, lane());
        assert_eq!(built.unwrap().1.len(), 1);
        let tcp = TransportConfig { mode: LinkMode::Tcp, ..TransportConfig::default() };
        match build_fanout_link(RedoThreadId(1), &tcp, Clock::Real, None, lane()) {
            Ok((_, rxs)) => assert_eq!(rxs.len(), 1),
            Err(_) => eprintln!("NOTICE: loopback sockets unavailable; TCP mode untested here"),
        }
    }

    /// A promoted primary with no surviving standby ships into zero lanes:
    /// sends succeed, retain nothing, and the sender never reports pending
    /// work (a pending sender would stall every `sync`).
    #[test]
    fn zero_lane_link_is_never_pending() {
        let cfg = TransportConfig::default();
        let (tx, rxs) =
            build_fanout_link(RedoThreadId(1), &cfg, Clock::Real, None, vec![]).unwrap();
        assert!(rxs.is_empty());
        for scn in 1..=10u64 {
            tx.send(vec![rec(scn)]).unwrap();
            tx.service().unwrap();
        }
        assert!(!tx.pending());
    }
}
