//! The reliable sender: one primary redo thread → 0..N standby lanes over
//! **one shared retained-redo window**. A single standby is a one-lane
//! fan-out; a promoted primary with no surviving standby has zero lanes.
//!
//! Each lane is a private data/control pipe pair to one standby's
//! [`crate::reliable::ReliableReceiver`], so every standby keeps fully
//! independent ack/gap/NAK state. The sender numbers every data frame
//! with a per-thread sequence shared across lanes and retains sent
//! batches for serving NAKs (modelling ADG gap resolution from
//! online/archived redo logs). A frame becomes evictable once **every**
//! lane's cumulative ACK passes it, and the window stays bounded by
//! `retained_window` regardless: the durable wal/archive tiers backstop
//! any lane that falls behind the eviction horizon.
//!
//! Per-lane protocol state (ACK position, ping pacing) is tracked
//! independently, so a partitioned lane keeps being pinged and NAK-served
//! while fresh lanes ack and advance without waiting for it.
//!
//! The sender is also the primary's shipping process (paper §II.A):
//! [`FanoutSender::ship`] is one quantum of it — drain one batch from the
//! log buffer (or, idle, heartbeat the current SCN so the standby's merge
//! watermark keeps advancing), then service the link once.

use std::collections::VecDeque;
use std::sync::Arc;

use imadg_common::config::TransportConfig;
use imadg_common::metrics::{DurabilityMetrics, StalenessTracker, TransportMetrics};
use imadg_common::{MetricsRegistry, RedoThreadId, Result, Scn, WakeToken};
use imadg_redo::record::{RedoPayload, RedoRecord};
use imadg_redo::{DurableLog, LogBuffer};
use parking_lot::Mutex;

use crate::pipe::{FrameRx, FrameTx};
use crate::wire::{self, Frame};

/// Max redo records per shipped batch.
const SHIP_BATCH: usize = 512;

/// One standby's endpoint bundle inside the fan-out sender.
pub struct FanoutLane {
    /// Outbound data pipe (possibly fault-injected).
    pub data_tx: Box<dyn FrameTx>,
    /// Inbound control pipe (ACK/NAK/Hello from this standby).
    pub ctrl_rx: Box<dyn FrameRx>,
}

struct LaneState {
    data_tx: Box<dyn FrameTx>,
    ctrl_rx: Box<dyn FrameRx>,
    /// Highest sequence cumulatively acknowledged by this lane's receiver.
    acked_through: u64,
    /// Service calls since this lane's last control frame while unacked.
    idle_polls: u32,
}

struct FanoutState {
    /// Highest SCN already signalled down the link (data or heartbeat). A
    /// heartbeat is sent only when database time has advanced past it —
    /// re-sending the same SCN adds no watermark information and would
    /// keep generating frames (and ACK round-trips) forever, so an idle
    /// pipeline could never quiesce.
    signalled_scn: u64,
    /// Next unsent sequence number (shared across lanes; sequences start
    /// at 1 and every lane sees the same numbering).
    next_seq: u64,
    /// Retained `(seq, records)` batches, oldest first — the one shared
    /// window all lanes' NAKs are served from.
    retained: VecDeque<(u64, Vec<RedoRecord>)>,
    lanes: Vec<LaneState>,
    metrics: Arc<TransportMetrics>,
    /// Records commit-record generation→ship residency.
    staleness: Arc<StalenessTracker>,
    /// Primary-side durable tee shared by every lane: group-committed in
    /// `service`, serving NAKs evicted from the shared window.
    durable: Option<Arc<DurableLog>>,
    durability_metrics: Arc<DurabilityMetrics>,
}

impl FanoutState {
    /// Trim the shared window: only batches every lane has acked age out
    /// (all of them with no lane attached); the hard cap in `send` bounds
    /// it against silent laggards.
    fn trim_to_min_ack(&mut self) {
        let min_ack = self.lanes.iter().map(|l| l.acked_through).min().unwrap_or(u64::MAX);
        while self.retained.front().is_some_and(|&(seq, _)| seq <= min_ack) {
            self.retained.pop_front();
        }
    }
}

/// Primary-side fan-out endpoint over N reliable lanes.
pub struct FanoutSender {
    thread: RedoThreadId,
    retained_window: usize,
    ping_idle_polls: u32,
    state: Mutex<FanoutState>,
}

impl FanoutSender {
    /// Build the sender over `lanes` (one per standby cluster, in standby
    /// order; possibly none).
    pub fn new(
        thread: RedoThreadId,
        lanes: Vec<FanoutLane>,
        cfg: &TransportConfig,
    ) -> FanoutSender {
        FanoutSender {
            thread,
            retained_window: cfg.retained_window.max(1),
            ping_idle_polls: cfg.ping_idle_polls.max(1),
            state: Mutex::new(FanoutState {
                signalled_scn: 0,
                next_seq: 1,
                retained: VecDeque::new(),
                lanes: lanes
                    .into_iter()
                    .map(|l| LaneState {
                        data_tx: l.data_tx,
                        ctrl_rx: l.ctrl_rx,
                        acked_through: 0,
                        idle_polls: 0,
                    })
                    .collect(),
                metrics: Arc::default(),
                staleness: Arc::default(),
                durable: None,
                durability_metrics: Arc::default(),
            }),
        }
    }

    /// Attach the shared primary-side durable log: sent batches are teed
    /// to it and NAKs beyond the retained window are answered from its
    /// wal/archive tiers. Numbering resumes just past the log's durable
    /// position, so a restarted primary never reuses a sequence, and each
    /// lane's receiver Hello-rewinds to its own resume point.
    pub fn set_durable_log(&self, log: Arc<DurableLog>) {
        let mut s = self.state.lock();
        let durable = log.durable_seq();
        if durable + 1 > s.next_seq {
            s.next_seq = durable + 1;
            for lane in &mut s.lanes {
                lane.acked_through = durable;
            }
        }
        s.durable = Some(log);
    }

    /// Report into `registry`: the transport stage (frames, retransmits
    /// served, pings, shipped counts), the durability stage (wal appends,
    /// fsyncs, archive retransmits) and ship-stage staleness.
    pub fn bind_metrics(&self, registry: &MetricsRegistry) {
        let mut s = self.state.lock();
        s.metrics = registry.transport.clone();
        s.staleness = registry.staleness.clone();
        s.durability_metrics = registry.durability.clone();
        if let Some(log) = &s.durable {
            log.set_metrics(registry.durability.clone());
        }
    }

    /// One shipper quantum: ship at most one batch drained from `log` —
    /// or, with the buffer idle, a heartbeat at `current_scn` if database
    /// time moved past everything already signalled — then service the
    /// link once. Returns the data records shipped and whether the service
    /// did protocol work.
    pub fn ship(&self, log: &LogBuffer, current_scn: Scn) -> Result<(usize, bool)> {
        let records = log.drain(SHIP_BATCH);
        let shipped = records.len();
        let mut s = self.state.lock();
        if let Some(max) = records.iter().map(|r| r.scn.0).max() {
            s.signalled_scn = s.signalled_scn.max(max);
            s.metrics.records_shipped.add(shipped as u64);
            s.metrics.bytes_shipped.add(records.iter().map(|r| r.approx_bytes() as u64).sum());
            s.metrics.batches_shipped.inc();
            for r in &records {
                if matches!(r.payload, RedoPayload::Commit(_)) {
                    s.staleness.on_ship(r.scn.0, r.born_us);
                }
            }
            self.send_locked(&mut s, records)?;
        } else if current_scn.0 > s.signalled_scn {
            s.signalled_scn = current_scn.0;
            s.metrics.heartbeats.inc();
            s.metrics.batches_shipped.inc();
            let heartbeat = RedoRecord {
                thread: self.thread,
                scn: current_scn,
                born_us: 0,
                payload: RedoPayload::Heartbeat,
            };
            self.send_locked(&mut s, vec![heartbeat])?;
        }
        drop(s);
        Ok((shipped, self.service()?))
    }

    /// Serve `[from, to]` to lane `lane` from the shared retained window,
    /// falling back to the durable wal/archive tiers for sequences the
    /// window has already evicted (the archiver backstopping a laggard).
    fn serve_nak_to_lane(
        thread: RedoThreadId,
        s: &mut FanoutState,
        lane: usize,
        from: u64,
        to: u64,
    ) -> Result<()> {
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut window_low = u64::MAX;
        for &(seq, ref records) in s.retained.iter() {
            window_low = window_low.min(seq);
            if seq >= from && seq <= to {
                frames.push(wire::encode(&Frame::Data {
                    thread,
                    seq,
                    retransmit: true,
                    records: records.clone(),
                }));
            }
            // The window is sorted; past `to` nothing more can match.
            if seq > to {
                break;
            }
        }
        // Sequences below the retained window have aged out of memory —
        // gap resolution falls back to the archived/wal tiers on disk.
        let mut archive_served = 0u64;
        if from < window_low {
            if let Some(log) = s.durable.clone() {
                log.sync_if_pending()?;
                for (seq, records) in log.read_range(from, to.min(window_low.saturating_sub(1)))? {
                    frames.push(wire::encode(&Frame::Data {
                        thread,
                        seq,
                        retransmit: true,
                        records,
                    }));
                    archive_served += 1;
                }
            }
        }
        for f in frames {
            s.lanes[lane].data_tx.send(f)?;
            s.metrics.retransmits.inc();
            s.metrics.frames_sent.inc();
        }
        s.durability_metrics.archive_retransmits.add(archive_served);
        Ok(())
    }

    /// Send one raw batch outside a shipper quantum (protocol tests).
    #[cfg(test)]
    pub(crate) fn send(&self, records: Vec<RedoRecord>) -> Result<()> {
        self.send_locked(&mut self.state.lock(), records)
    }

    /// Send one batch down every lane, retaining it for NAKs and teeing
    /// it to the durable log.
    fn send_locked(&self, s: &mut FanoutState, records: Vec<RedoRecord>) -> Result<()> {
        let seq = s.next_seq;
        s.next_seq += 1;
        s.retained.push_back((seq, records.clone()));
        // The shared window trims on the *minimum* cumulative ACK over all
        // lanes, but stays hard-bounded: a silent laggard must not pin
        // unbounded memory — its gap fills come from the archive instead.
        s.trim_to_min_ack();
        while s.retained.len() > self.retained_window {
            s.retained.pop_front();
        }
        if let Some(log) = &s.durable {
            // One tee regardless of lane count; group commit rides the
            // next `service` quantum.
            log.append_batch(seq, &records)?;
        }
        let Some(last) = s.lanes.len().checked_sub(1) else { return Ok(()) };
        let frame =
            wire::encode(&Frame::Data { thread: self.thread, seq, retransmit: false, records });
        for i in 0..last {
            s.metrics.frames_sent.inc();
            s.lanes[i].data_tx.send(frame.clone())?;
        }
        // The last lane takes the encoded frame itself: a one-lane send
        // copies nothing.
        s.metrics.frames_sent.inc();
        s.lanes[last].data_tx.send(frame)
    }

    /// Run one quantum of link protocol work — serve NAKs from the
    /// retained window and archive, trim on ACKs, answer Hellos, emit
    /// liveness pings, group-commit the durable tee. Returns whether
    /// anything was done.
    pub(crate) fn service(&self) -> Result<bool> {
        let mut progressed = false;
        let mut s = self.state.lock();
        let thread = self.thread;
        for i in 0..s.lanes.len() {
            if s.lanes[i].data_tx.take_reconnected() {
                // This lane's medium re-established: announce ourselves so
                // its receiver re-ACKs and gap state resyncs.
                let next_seq = s.next_seq;
                s.lanes[i].data_tx.send(wire::encode(&Frame::Hello { thread, next_seq }))?;
                progressed = true;
            }
            let frames = s.lanes[i].ctrl_rx.recv_ready()?;
            for f in &frames {
                match wire::decode(f)? {
                    Frame::Ack { through, .. } => {
                        if through > s.lanes[i].acked_through {
                            s.lanes[i].acked_through = through;
                            s.trim_to_min_ack();
                        }
                        s.lanes[i].idle_polls = 0;
                        progressed = true;
                    }
                    Frame::Nak { from, to, .. } => {
                        Self::serve_nak_to_lane(thread, &mut s, i, from, to)?;
                        s.lanes[i].idle_polls = 0;
                        progressed = true;
                    }
                    Frame::Hello { next_seq: resume, .. } => {
                        // A restarted lane receiver announces its resume
                        // position (just past its durable log): rewind only
                        // its own cumulative ACK — its earlier ACKs no
                        // longer stand — and re-serve the tail from the
                        // window and archive. Fresh lanes are untouched.
                        if resume > 0 && resume <= s.lanes[i].acked_through {
                            s.lanes[i].acked_through = resume - 1;
                        }
                        let last_sent = s.next_seq - 1;
                        if resume <= last_sent {
                            Self::serve_nak_to_lane(thread, &mut s, i, resume, last_sent)?;
                        }
                        s.lanes[i].idle_polls = 0;
                        progressed = true;
                    }
                    // Data/Ping never travel on the control pipe.
                    _ => {}
                }
            }
            let unacked = s.next_seq - 1 > s.lanes[i].acked_through;
            if unacked && frames.is_empty() {
                s.lanes[i].idle_polls += 1;
                if s.lanes[i].idle_polls >= self.ping_idle_polls {
                    // This lane's control path went quiet with frames in
                    // flight: probe it (per-lane tail-loss detection).
                    s.lanes[i].idle_polls = 0;
                    let next_seq = s.next_seq;
                    s.lanes[i].data_tx.send(wire::encode(&Frame::Ping { thread, next_seq }))?;
                    s.metrics.link_pings.inc();
                    progressed = true;
                }
            }
        }
        let durable = s.durable.clone();
        let mut medium_moved = false;
        for i in 0..s.lanes.len() {
            medium_moved |= s.lanes[i].data_tx.service()?;
        }
        drop(s);
        if let Some(log) = durable {
            // Group commit: one fsync covers every batch sent since the
            // last service quantum, and sealed segments move to the
            // archive tier.
            progressed |= log.group_commit()?;
        }
        Ok(medium_moved || progressed)
    }

    /// Whether any lane still has frames unacknowledged or in flight
    /// (quiesce must wait for them).
    pub fn pending(&self) -> bool {
        let s = self.state.lock();
        s.lanes.iter().any(|l| s.next_seq - 1 > l.acked_through || l.data_tx.in_flight())
    }

    /// Wake `token` whenever redo shipped onto lane `lane` (one lane per
    /// standby) becomes deliverable *now*, so that standby's ingest stage
    /// parks instead of polling. Latent lanes do not wake on send — the
    /// receiver re-arms for the deadline via
    /// [`crate::ReliableReceiver::time_to_next`].
    pub fn set_lane_waker(&self, lane: usize, token: WakeToken) {
        let s = self.state.lock();
        if let Some(l) = s.lanes.get(lane) {
            l.data_tx.set_waker(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipe::channel_pipe;
    use crate::reliable::ReliableReceiver;
    use imadg_common::{Clock, Scn};
    use std::time::Duration;

    fn rec(scn: u64) -> RedoRecord {
        RedoRecord {
            thread: RedoThreadId(1),
            scn: Scn(scn),
            born_us: 0,
            payload: RedoPayload::Heartbeat,
        }
    }

    fn farm(n: usize, cfg: &TransportConfig) -> (FanoutSender, Vec<ReliableReceiver>) {
        let mut lanes = Vec::new();
        let mut receivers = Vec::new();
        for _ in 0..n {
            let (dtx, drx) = channel_pipe(Duration::ZERO, Clock::Real);
            let (ctx, crx) = channel_pipe(Duration::ZERO, Clock::Real);
            lanes.push(FanoutLane { data_tx: Box::new(dtx), ctrl_rx: Box::new(crx) });
            receivers.push(ReliableReceiver::new(
                RedoThreadId(1),
                Box::new(drx),
                Box::new(ctx),
                cfg,
            ));
        }
        (FanoutSender::new(RedoThreadId(1), lanes, cfg), receivers)
    }

    #[test]
    fn every_lane_gets_every_batch_in_order() {
        let cfg = TransportConfig::default();
        let (tx, mut rxs) = farm(3, &cfg);
        for scn in 1..=20u64 {
            tx.send(vec![rec(scn)]).unwrap();
        }
        for rx in &mut rxs {
            let got = rx.drain_ready().unwrap();
            assert_eq!(
                got.iter().map(|r| r.scn.0).collect::<Vec<_>>(),
                (1..=20).collect::<Vec<_>>()
            );
        }
        tx.service().unwrap();
        assert!(!tx.pending(), "all lanes acked");
    }

    #[test]
    fn shared_window_trims_on_min_ack_only() {
        let cfg = TransportConfig { retained_window: 64, ..TransportConfig::default() };
        let (tx, mut rxs) = farm(2, &cfg);
        for scn in 1..=10u64 {
            tx.send(vec![rec(scn)]).unwrap();
        }
        // Only lane 0 drains and acks; lane 1 stays silent.
        assert_eq!(rxs[0].drain_ready().unwrap().len(), 10);
        tx.service().unwrap();
        assert_eq!(tx.state.lock().retained.len(), 10, "laggard lane pins the shared window");
        assert!(tx.pending(), "lane 1 still unacked");
        // Lane 1 catches up: the window trims to empty.
        assert_eq!(rxs[1].drain_ready().unwrap().len(), 10);
        tx.service().unwrap();
        assert_eq!(tx.state.lock().retained.len(), 0, "min ack passed every batch");
        assert!(!tx.pending());
    }

    #[test]
    fn laggard_capped_window_is_bounded() {
        let cfg = TransportConfig { retained_window: 4, ..TransportConfig::default() };
        let (tx, mut rxs) = farm(2, &cfg);
        for scn in 1..=20u64 {
            tx.send(vec![rec(scn)]).unwrap();
        }
        assert_eq!(
            tx.state.lock().retained.len(),
            4,
            "hard cap holds even with a fully silent lane"
        );
        // The fresh lane is unaffected by the laggard.
        assert_eq!(rxs[0].drain_ready().unwrap().len(), 20);
    }

    #[test]
    fn retained_window_eviction_is_bounded() {
        let cfg = TransportConfig { retained_window: 4, ..TransportConfig::default() };
        let (tx, _rxs) = farm(1, &cfg);
        for scn in 1..=10u64 {
            tx.send(vec![rec(scn)]).unwrap();
        }
        assert_eq!(tx.state.lock().retained.len(), 4, "window stays bounded without ACKs");
    }

    /// Lane 1 restarts with an unsynced tail. Its Hello rewinds and
    /// re-serves lane 1 alone — from the primary's archive, since both
    /// lanes' ACKs already emptied the window — while lane 0's ACK stands.
    #[test]
    fn per_lane_nak_is_served_independently() {
        let base = std::env::temp_dir().join(format!("imadg-fanout-nak-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let open = |name: &str| Arc::new(DurableLog::open(base.join(name), 4 * 1024).unwrap());
        let cfg = TransportConfig { ping_idle_polls: 2, ..TransportConfig::default() };
        let (tx, mut rxs) = farm(2, &cfg);
        tx.set_durable_log(open("p"));
        let standby_logs = [open("s0"), open("s1")];
        for (rx, log) in rxs.iter_mut().zip(&standby_logs) {
            rx.set_durable_log(log.clone());
        }
        let seqs = |got: Vec<RedoRecord>| got.iter().map(|r| r.scn.0).collect::<Vec<_>>();

        for scn in 1..=5u64 {
            tx.send(vec![rec(scn)]).unwrap();
        }
        for rx in &mut rxs {
            assert_eq!(seqs(rx.drain_ready().unwrap()), (1..=5).collect::<Vec<_>>());
            rx.durable_sync().unwrap();
        }
        tx.service().unwrap();
        for scn in 6..=8u64 {
            tx.send(vec![rec(scn)]).unwrap();
        }
        for rx in &mut rxs {
            assert_eq!(seqs(rx.drain_ready().unwrap()), vec![6, 7, 8]);
        }
        tx.service().unwrap();
        assert!(!tx.pending(), "both lanes acked through 8");
        assert_eq!(standby_logs[1].durable_seq(), 5, "lane 1 synced only 1..=5");

        // Lane 1 crashes: its unsynced 6..=8 are gone, and it announces
        // resume at 6. It first replays its own durable 1..=5 from disk.
        rxs[1].reset_for_restart().unwrap();
        tx.service().unwrap();
        assert_eq!(tx.state.lock().lanes[0].acked_through, 8, "lane 0's ACK stands");
        assert_eq!(seqs(rxs[1].drain_ready().unwrap()), (1..=5).collect::<Vec<_>>());
        assert_eq!(
            seqs(rxs[1].drain_ready().unwrap()),
            vec![6, 7, 8],
            "lane 1 re-receives exactly what lies past its durable position"
        );
        assert!(rxs[0].drain_ready().unwrap().is_empty(), "lane 0 receives nothing");
        tx.service().unwrap();
        assert!(!tx.pending(), "lane 1's fresh ACK settles the sender");
        let _ = std::fs::remove_dir_all(&base);
    }
}
