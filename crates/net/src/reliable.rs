//! The reliable layer: exactly-once in-order redo over a lossy pipe.
//!
//! The sender ([`crate::fanout::FanoutSender`]) numbers every data frame
//! with a per-thread sequence and retains sent batches in a bounded window
//! (modelling ADG gap resolution from online/archived redo logs).
//! [`ReliableReceiver`] detects sequence gaps, NAKs them over the control
//! pipe, buffers out-of-order frames, and releases records strictly in
//! sequence order — so the log merger downstream can keep asserting
//! per-thread SCN monotonicity no matter what the
//! [`crate::fault::FaultInjector`] does underneath.
//!
//! Protocol summary (all frames defined in [`crate::wire`]):
//!
//! * `Data{seq}` — primary → standby; `retransmit` marks NAK-served copies.
//! * `Ack{through}` — standby → primary, cumulative; trims the retained
//!   window. Sent after every poll that delivered a frame, and in answer
//!   to `Ping`/`Hello`.
//! * `Nak{from,to}` — standby → primary on gap detection, re-sent every
//!   `nak_retry_polls` polls while the gap stays open (NAKs and
//!   retransmits can themselves be lost).
//! * `Ping` — primary → standby when frames stay unacknowledged with a
//!   silent control path; recovers from lost ACKs.
//!
//! A receiver whose durable log already holds history — a cold start over
//! a surviving directory, or [`ReliableReceiver::reset_for_restart`] after a
//! crash — first replays that history from disk through a cursor, one
//! decoded segment at a time, and only then drains the live link.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use imadg_common::config::TransportConfig;
use imadg_common::metrics::TransportMetrics;
use imadg_common::{Error, MetricsRegistry, RedoThreadId, Result};
use imadg_redo::record::RedoRecord;
use imadg_redo::{DiskBatch, DurableLog};

use crate::pipe::{FrameRx, FrameTx};
use crate::wire::{self, Frame};

/// Batches replayed per `drain_ready` call, so the recovery pipeline
/// breathes (merge / dispatch / apply) between replay quanta instead of
/// swallowing the whole log as one batch.
const REPLAY_BATCHES_PER_DRAIN: usize = 64;

/// Restart replay's position in the durable log: the batches
/// `next..=end` still to deliver before the live link.
struct Replay {
    log: Arc<DurableLog>,
    next: u64,
    end: u64,
    /// The decoded batches of the segment holding `next`, from `next` on.
    segment: VecDeque<DiskBatch>,
}

/// Standby-side endpoint of a reliable framed link.
pub struct ReliableReceiver {
    thread: RedoThreadId,
    data_rx: Box<dyn FrameRx>,
    ctrl_tx: Box<dyn FrameTx>,
    nak_retry_polls: u32,
    /// Next sequence number to deliver.
    expected: u64,
    /// Out-of-order batches buffered until their gap fills.
    ooo: BTreeMap<u64, Vec<RedoRecord>>,
    /// Open gaps: sequences known missing (NAKed, not yet arrived).
    missing: BTreeSet<u64>,
    /// Polls since the open gaps were last NAKed.
    polls_since_nak: u32,
    /// The last drain did protocol work (ACK/NAK) even if it delivered no
    /// records.
    protocol_activity: bool,
    metrics: Arc<TransportMetrics>,
    /// Standby-side durable tee: every batch delivered in order is
    /// appended here (keyed by link sequence) and group-committed by the
    /// recovery pipeline's `durable_sync` quantum.
    durable: Option<Arc<DurableLog>>,
    /// Open while durable history is still replaying from disk.
    replay: Option<Replay>,
}

impl ReliableReceiver {
    /// Build the receiver half over a data pipe (inbound) and a control
    /// pipe (outbound ACK/NAK).
    pub fn new(
        thread: RedoThreadId,
        data_rx: Box<dyn FrameRx>,
        ctrl_tx: Box<dyn FrameTx>,
        cfg: &TransportConfig,
    ) -> ReliableReceiver {
        ReliableReceiver {
            thread,
            data_rx,
            ctrl_tx,
            nak_retry_polls: cfg.nak_retry_polls.max(1),
            expected: 1,
            ooo: BTreeMap::new(),
            missing: BTreeSet::new(),
            polls_since_nak: 0,
            protocol_activity: false,
            metrics: Arc::default(),
            durable: None,
            replay: None,
        }
    }

    /// Attach a durable log teeing in-order deliveries. When the log
    /// already holds history (reopened after a crash), delivery resumes
    /// just past its durable position — everything earlier replays from
    /// disk, everything later is NAK-resolved from the primary.
    pub fn set_durable_log(&mut self, log: Arc<DurableLog>) {
        let durable = log.durable_seq();
        if durable + 1 > self.expected {
            self.expected = durable + 1;
        }
        self.replay = Self::replay_through(&log, durable);
        self.durable = Some(log);
    }

    /// A replay cursor over `log`'s `1..=durable`, if there is any history.
    fn replay_through(log: &Arc<DurableLog>, durable: u64) -> Option<Replay> {
        (durable > 0).then(|| Replay {
            log: log.clone(),
            next: 1,
            end: durable,
            segment: VecDeque::new(),
        })
    }

    /// Deliver up to [`REPLAY_BATCHES_PER_DRAIN`] disk batches, decoding
    /// the next segment when the current one runs out. The drain after
    /// the last disk batch is the first live one.
    fn drain_replay(&mut self) -> Result<Vec<RedoRecord>> {
        let Some(replay) = &mut self.replay else { return Ok(Vec::new()) };
        let metrics = replay.log.metrics();
        let mut out = Vec::new();
        for _ in 0..REPLAY_BATCHES_PER_DRAIN {
            if replay.segment.is_empty() {
                replay.segment = replay.log.read_segment_from(replay.next)?.into();
            }
            match replay.segment.pop_front() {
                Some((seq, records)) if seq == replay.next => {
                    metrics.replayed_batches.inc();
                    metrics.replayed_records.add(records.len() as u64);
                    out.extend(records);
                }
                _ => {
                    return Err(Error::Io(format!("durable log has no batch {}", replay.next)));
                }
            }
            replay.next += 1;
            if replay.next > replay.end {
                self.replay = None;
                break;
            }
        }
        Ok(out)
    }

    fn send_ack(&mut self) -> Result<()> {
        self.ctrl_tx
            .send(wire::encode(&Frame::Ack { thread: self.thread, through: self.expected - 1 }))?;
        self.protocol_activity = true;
        Ok(())
    }

    /// NAK every open gap, coalesced into contiguous ranges.
    fn send_naks(&mut self) -> Result<()> {
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for &seq in &self.missing {
            match ranges.last_mut() {
                Some((_, to)) if *to + 1 == seq => *to = seq,
                _ => ranges.push((seq, seq)),
            }
        }
        for (from, to) in ranges {
            self.ctrl_tx.send(wire::encode(&Frame::Nak { thread: self.thread, from, to }))?;
            self.metrics.naks_sent.inc();
        }
        self.protocol_activity = true;
        Ok(())
    }

    /// Open gaps for every sequence below `upto` that is neither
    /// delivered, buffered, nor already known missing.
    fn open_gaps_below(&mut self, upto: u64) -> bool {
        let mut new_gap = false;
        for s in self.expected..upto {
            if !self.ooo.contains_key(&s) && self.missing.insert(s) {
                self.metrics.gaps_detected.inc();
                new_gap = true;
            }
        }
        new_gap
    }

    /// Record `seq`'s arrival: resolve it if it was an open gap, and open
    /// gaps for everything newly discovered missing below it.
    fn note_arrival(&mut self, seq: u64) -> bool {
        if self.missing.remove(&seq) {
            self.metrics.gaps_resolved.inc();
        }
        self.open_gaps_below(seq)
    }

    fn accept(
        &mut self,
        out: &mut Vec<RedoRecord>,
        seq: u64,
        records: Vec<RedoRecord>,
    ) -> Result<()> {
        if seq < self.expected || self.ooo.contains_key(&seq) {
            self.metrics.duplicates_dropped.inc();
            return Ok(());
        }
        let new_gap = self.note_arrival(seq);
        if seq == self.expected {
            // Tee strictly in delivery order so the on-disk log is gapless
            // — out-of-order batches are teed when their gap fills.
            if let Some(log) = &self.durable {
                log.append_batch(seq, &records)?;
            }
            out.extend(records);
            self.expected += 1;
            // Release the run of buffered successors this arrival unblocks.
            while let Some(buffered) = self.ooo.remove(&self.expected) {
                if let Some(log) = &self.durable {
                    log.append_batch(self.expected, &buffered)?;
                }
                out.extend(buffered);
                self.expected += 1;
            }
        } else {
            self.ooo.insert(seq, records);
        }
        if new_gap {
            // First sighting of a gap: NAK immediately; retries are
            // paced by `nak_retry_polls`.
            self.send_naks()?;
            self.polls_since_nak = 0;
        }
        Ok(())
    }

    /// Drain everything currently deliverable, exactly once and in
    /// sequence order — the log merger downstream asserts per-thread SCN
    /// monotonicity. While a restart replay is open, up to
    /// `REPLAY_BATCHES_PER_DRAIN` disk batches come out instead.
    pub fn drain_ready(&mut self) -> Result<Vec<RedoRecord>> {
        if self.replay.is_some() {
            return self.drain_replay();
        }
        let frames = self.data_rx.recv_ready()?;
        let mut out = Vec::new();
        let mut answer_ack = false;
        for f in &frames {
            match wire::decode(f)? {
                Frame::Data { seq, retransmit, records, .. } => {
                    self.metrics.frames_received.inc();
                    if retransmit {
                        self.metrics.retransmits.inc();
                    }
                    self.accept(&mut out, seq, records)?;
                    answer_ack = true;
                }
                Frame::Ping { next_seq, .. } | Frame::Hello { next_seq, .. } => {
                    self.metrics.link_pings.inc();
                    // Tail loss: the probe tells us how far the sender got,
                    // exposing gaps no later data frame would reveal.
                    if self.open_gaps_below(next_seq) {
                        self.send_naks()?;
                        self.polls_since_nak = 0;
                    }
                    answer_ack = true;
                }
                // Ack/Nak never travel on the data pipe.
                _ => {}
            }
        }
        if answer_ack {
            self.send_ack()?;
        }
        if self.missing.is_empty() {
            self.polls_since_nak = 0;
        } else {
            self.polls_since_nak += 1;
            if self.polls_since_nak >= self.nak_retry_polls {
                // The NAK or its retransmit may itself have been lost:
                // keep asking until the gap closes.
                self.send_naks()?;
                self.polls_since_nak = 0;
            }
        }
        Ok(out)
    }

    /// Whether the link still holds undelivered or unresolved state — a
    /// replay in progress, a latent batch in flight, an open gap, or
    /// out-of-order frames buffered.
    pub fn transport_pending(&self) -> bool {
        self.replay.is_some()
            || !self.ooo.is_empty()
            || !self.missing.is_empty()
            || self.data_rx.pending()
    }

    /// Whether a drain since the last call did protocol work (sent a NAK
    /// or ACK) even if no records came out. Protocol activity counts as
    /// stage progress so the step scheduler keeps driving gap resolution.
    pub fn take_protocol_activity(&mut self) -> bool {
        std::mem::take(&mut self.protocol_activity)
    }

    /// Time until the next held batch becomes deliverable: zero while
    /// replaying, the medium's latency deadline otherwise. Drives the
    /// ingest stage's park hint so delayed redo is picked up on time.
    pub fn time_to_next(&self) -> Option<Duration> {
        match self.replay {
            Some(_) => Some(Duration::ZERO),
            None => self.data_rx.time_to_next(),
        }
    }

    /// Report into `registry`: the transport stage (gaps, NAKs,
    /// duplicates) and the durability stage (tee appends, fsyncs, restart
    /// replay).
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = registry.transport.clone();
        if let Some(log) = &self.durable {
            log.set_metrics(registry.durability.clone());
        }
    }

    /// One group-commit quantum of the durable tee: one fsync covering
    /// every batch accepted since the last call, then archival of sealed
    /// segments. Returns whether either did work.
    pub fn durable_sync(&mut self) -> Result<bool> {
        match &self.durable {
            Some(log) => log.group_commit(),
            None => Ok(false),
        }
    }

    /// Model a hard process restart over a surviving medium: discard the
    /// unsynced tee buffer and all in-memory reassembly state, replay the
    /// durable history from disk, and resume live delivery just past the
    /// durable sequence — later gaps are NAK-resolved from the primary's
    /// retained window or archive. Without a durable log, nothing happens.
    pub fn reset_for_restart(&mut self) -> Result<()> {
        let Some(log) = &self.durable else {
            return Ok(());
        };
        // The process died: the unsynced tee buffer and all in-memory
        // reassembly state are gone. The durable history replays from
        // disk (from the start: the rebuilt standby has nothing), then
        // live delivery resumes at the durable position; anything the old
        // incarnation had ACKed past it will arrive again (dup-dropped by
        // sequence) or be re-NAKed from the primary's retained window and
        // archive.
        log.drop_unsynced();
        let durable = log.durable_seq();
        self.expected = durable + 1;
        self.replay = Self::replay_through(log, durable);
        self.ooo.clear();
        self.missing.clear();
        self.polls_since_nak = 0;
        self.protocol_activity = false;
        // Announce the resume position: the sender rewinds its cumulative
        // ACK (our pre-crash ACKs no longer stand) and re-serves the tail.
        self.ctrl_tx
            .send(wire::encode(&Frame::Hello { thread: self.thread, next_seq: self.expected }))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::{FanoutLane, FanoutSender};
    use crate::fault::FaultInjector;
    use crate::pipe::channel_pipe;
    use imadg_common::config::FaultPlan;
    use imadg_common::{Clock, Scn};
    use imadg_redo::record::RedoPayload;

    fn cfg() -> TransportConfig {
        TransportConfig { nak_retry_polls: 2, ping_idle_polls: 3, ..TransportConfig::default() }
    }

    fn rec(scn: u64) -> RedoRecord {
        RedoRecord {
            thread: RedoThreadId(1),
            scn: Scn(scn),
            born_us: 0,
            payload: RedoPayload::Heartbeat,
        }
    }

    /// A one-lane sender over the given data pipe and control receiver.
    fn sender(data_tx: Box<dyn FrameTx>, ctrl_rx: Box<dyn FrameRx>) -> FanoutSender {
        FanoutSender::new(RedoThreadId(1), vec![FanoutLane { data_tx, ctrl_rx }], &cfg())
    }

    /// A clean one-lane framed link over raw channel pipes.
    fn link() -> (FanoutSender, ReliableReceiver) {
        let (dtx, drx) = channel_pipe(Duration::ZERO, Clock::Real);
        let (ctx, crx) = channel_pipe(Duration::ZERO, Clock::Real);
        (
            sender(Box::new(dtx), Box::new(crx)),
            ReliableReceiver::new(RedoThreadId(1), Box::new(drx), Box::new(ctx), &cfg()),
        )
    }

    #[test]
    fn clean_link_delivers_in_order_and_quiesces() {
        let (tx, mut rx) = link();
        tx.send(vec![rec(1)]).unwrap();
        tx.send(vec![rec(2), rec(3)]).unwrap();
        let got = rx.drain_ready().unwrap();
        assert_eq!(got.iter().map(|r| r.scn.0).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(tx.pending(), "unacked until the ACK flows back");
        tx.service().unwrap();
        assert!(!tx.pending(), "ACK trims the retained window");
        assert!(!rx.transport_pending());
    }

    #[test]
    fn explicit_gap_is_detected_naked_and_resolved() {
        // Feed the receiver raw frames with seq 2 withheld, then deliver
        // it late: one gap detected, one NAK sent, one gap resolved, and
        // records come out strictly in sequence order.
        let cfg = cfg();
        let (dtx, drx) = channel_pipe(Duration::ZERO, Clock::Real);
        let (ctx, _crx) = channel_pipe(Duration::ZERO, Clock::Real);
        let mut rx = ReliableReceiver::new(RedoThreadId(1), Box::new(drx), Box::new(ctx), &cfg);
        let registry = MetricsRegistry::default();
        rx.bind_metrics(&registry);
        let m = &registry.transport;

        let frame = |seq: u64| {
            wire::encode(&Frame::Data {
                thread: RedoThreadId(1),
                seq,
                retransmit: seq == 2,
                records: vec![rec(seq)],
            })
        };
        dtx.send(frame(1)).unwrap();
        dtx.send(frame(3)).unwrap();
        let got = rx.drain_ready().unwrap();
        assert_eq!(got.iter().map(|r| r.scn.0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(m.gaps_detected.get(), 1);
        assert_eq!(m.naks_sent.get(), 1);
        assert!(rx.transport_pending(), "seq 3 buffered, gap 2 open");

        dtx.send(frame(2)).unwrap();
        let got = rx.drain_ready().unwrap();
        assert_eq!(got.iter().map(|r| r.scn.0).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(m.gaps_resolved.get(), 1);
        assert_eq!(m.retransmits.get(), 1, "flagged frame counted");
        assert!(!rx.transport_pending());

        // A duplicate of an already-delivered frame is dropped.
        dtx.send(frame(2)).unwrap();
        assert!(rx.drain_ready().unwrap().is_empty());
        assert_eq!(m.duplicates_dropped.get(), 1);
    }

    #[test]
    fn lost_frame_recovers_via_nak_retransmit() {
        // Wrap the data path in an injector that drops ~50% of frames:
        // across 64 seeds, every schedule of losses must recover.
        let cfg = cfg();
        for seed in 0..64 {
            let (dtx, drx) = channel_pipe(Duration::ZERO, Clock::Real);
            let (ctx, crx) = channel_pipe(Duration::ZERO, Clock::Real);
            let inj = FaultInjector::new(
                Box::new(dtx),
                FaultPlan { seed, drop_per_mille: 500, ..FaultPlan::default() },
            );
            let tx = sender(Box::new(inj), Box::new(crx));
            let mut rx = ReliableReceiver::new(RedoThreadId(1), Box::new(drx), Box::new(ctx), &cfg);
            let registry = MetricsRegistry::default();
            rx.bind_metrics(&registry);
            let m = &registry.transport;

            let mut got = Vec::new();
            for scn in 1..=10u64 {
                tx.send(vec![rec(scn)]).unwrap();
            }
            for _ in 0..200 {
                got.extend(rx.drain_ready().unwrap());
                tx.service().unwrap();
                if got.len() == 10 && !tx.pending() && !rx.transport_pending() {
                    break;
                }
            }
            assert_eq!(
                got.iter().map(|r| r.scn.0).collect::<Vec<_>>(),
                (1..=10).collect::<Vec<_>>(),
                "seed {seed}: exactly-once in-order delivery"
            );
            assert!(!tx.pending(), "seed {seed}: sender quiesced");
            assert!(!rx.transport_pending(), "seed {seed}: receiver quiesced");
            assert_eq!(
                m.gaps_detected.get(),
                m.gaps_resolved.get(),
                "seed {seed}: every gap resolved"
            );
            if m.gaps_detected.get() > 0 {
                assert!(m.retransmits.get() > 0, "seed {seed}: gaps imply retransmits");
            }
        }
    }

    #[test]
    fn lost_ack_recovered_by_ping() {
        // A clean link, but the receiver's first ACK is consumed before
        // the sender sees it: the sender services against a starved
        // control pipe while the real ACK sits in a probe pipe. The
        // sender's ping cadence must eventually re-elicit an ACK.
        let cfg = cfg();
        let (dtx, drx) = channel_pipe(Duration::ZERO, Clock::Real);
        let (ctx, mut crx_probe) = channel_pipe(Duration::ZERO, Clock::Real);
        let (_ctx2, crx_starved) = channel_pipe(Duration::ZERO, Clock::Real);
        let tx = sender(Box::new(dtx), Box::new(crx_starved));
        let mut rx = ReliableReceiver::new(RedoThreadId(1), Box::new(drx), Box::new(ctx), &cfg);
        let registry = MetricsRegistry::default();
        tx.bind_metrics(&registry);
        let m = &registry.transport;

        tx.send(vec![rec(1)]).unwrap();
        assert_eq!(rx.drain_ready().unwrap().len(), 1);
        // Lose the ACK.
        assert_eq!(crx_probe.recv_ready().unwrap().len(), 1);
        // Sender never hears back; after ping_idle_polls services it pings.
        for _ in 0..cfg.ping_idle_polls {
            tx.service().unwrap();
        }
        assert_eq!(m.link_pings.get(), 1, "silent control path elicits a ping");
        // The ping reaches the receiver, which re-ACKs.
        rx.drain_ready().unwrap();
        assert_eq!(crx_probe.recv_ready().unwrap().len(), 1, "ping re-elicited the ACK");
    }
}
