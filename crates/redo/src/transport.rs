//! Redo shipping: the link between primary and standby.
//!
//! The paper's primary ships redo over TCP/IP to a typically remote standby
//! (§I). The link is abstracted behind [`RedoSink`] / [`RedoSource`] so the
//! shipping and ingest stages are agnostic to how redo travels. `imadg-net`
//! implements both halves: a framed link (in-process pipe or loopback TCP)
//! with gap detection, NAK/retransmission, seeded fault injection, and —
//! on the receiver — restart replay of the standby's own durable redo
//! before the live link resumes. This module keeps the traits and the
//! [`Shipper`] that drains a log buffer into a sink.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use imadg_common::metrics::{DurabilityMetrics, StalenessTracker, TransportMetrics};
use imadg_common::{Result, Scn, WakeToken};

use crate::log_buffer::LogBuffer;
use crate::record::{RedoPayload, RedoRecord};

/// Primary-side half of a redo link: accepts record batches and performs
/// whatever protocol work the link needs (retransmits, liveness pings).
pub trait RedoSink: Send + Sync {
    /// Ship a batch of records.
    fn send(&self, records: Vec<RedoRecord>) -> Result<()>;

    /// Run one quantum of link protocol work — serve NAKs from the
    /// retained window, trim on ACKs, emit liveness pings. Returns whether
    /// anything was done.
    fn service(&self) -> Result<bool> {
        Ok(false)
    }

    /// Whether the link still holds state that needs servicing before the
    /// pipeline can quiesce (unacknowledged frames in flight).
    fn pending(&self) -> bool {
        false
    }

    /// Wake `token` whenever redo shipped onto lane `lane` (one lane per
    /// standby) becomes deliverable *now*, so that standby's ingest stage
    /// parks instead of polling. Latent links must not wake on send — the
    /// receiver re-arms for the deadline via [`RedoSource::time_to_next`].
    fn set_lane_waker(&self, lane: usize, token: WakeToken);

    /// Attach the primary-side transport metrics (retransmits served,
    /// reconnects, pings). Links are built before the owning registry, so
    /// binding happens late.
    fn bind_metrics(&self, metrics: Arc<TransportMetrics>) {
        let _ = metrics;
    }

    /// Attach the primary-side durability metrics (wal appends, fsyncs,
    /// archive retransmits). No-op on links without a durable log.
    fn bind_durability_metrics(&self, metrics: Arc<DurabilityMetrics>) {
        let _ = metrics;
    }
}

/// Standby-side half of a redo link: yields records in ship order and
/// reports how much transport state is still outstanding.
pub trait RedoSource: Send {
    /// Drain everything currently deliverable, in order. A reliable source
    /// must deliver exactly-once in-order — the log merger downstream
    /// asserts per-thread SCN monotonicity.
    fn drain_ready(&mut self) -> Result<Vec<RedoRecord>>;

    /// Whether the link still holds undelivered or unresolved state — a
    /// latent batch in flight, an open gap, out-of-order frames buffered.
    fn transport_pending(&self) -> bool;

    /// Whether the last drain performed protocol work (sent a NAK or ACK)
    /// even if no records came out. Protocol activity counts as stage
    /// progress so the step scheduler keeps driving gap resolution.
    fn take_protocol_activity(&mut self) -> bool {
        false
    }

    /// Time until the next held batch becomes deliverable, if the link is
    /// holding one for a latency deadline. Drives the ingest stage's park
    /// hint so delayed redo is picked up exactly on time.
    fn time_to_next(&self) -> Option<Duration>;

    /// Attach the standby-side transport metrics (gaps, NAKs, duplicates).
    fn bind_metrics(&mut self, metrics: Arc<TransportMetrics>) {
        let _ = metrics;
    }

    /// Attach the standby-side durability metrics (tee appends, fsyncs,
    /// restart replay). No-op on links without a durable log.
    fn bind_durability_metrics(&mut self, metrics: Arc<DurabilityMetrics>) {
        let _ = metrics;
    }

    /// One group-commit quantum of the standby-side durable tee: one fsync
    /// covering every batch accepted since the last call, then archival of
    /// sealed segments. Returns whether either did work. Sources without a
    /// durable log do nothing.
    fn durable_sync(&mut self) -> Result<bool> {
        Ok(false)
    }

    /// Model a hard process restart over a surviving medium: discard the
    /// unsynced tee buffer and all in-memory reassembly state, replay the
    /// durable history from disk, and resume live delivery just past the
    /// durable sequence — subsequent gaps are NAK-resolved from the
    /// primary's retained window or archive.
    fn reset_for_restart(&mut self) -> Result<()> {
        Ok(())
    }
}

/// The shipping process of one redo thread: drains the log buffer into the
/// link, emitting an SCN heartbeat when the buffer is idle so the standby's
/// merge watermark keeps advancing.
pub struct Shipper {
    batch: usize,
    metrics: Arc<TransportMetrics>,
    /// Records commit-record generation→ship residency, when attached.
    staleness: Option<Arc<StalenessTracker>>,
    /// Highest SCN already signalled down the link (data or heartbeat). A
    /// heartbeat is sent only when database time has advanced past it —
    /// re-sending the same SCN adds no watermark information and, on a
    /// reliable link, would keep generating frames (and ACK round-trips)
    /// forever, so an idle pipeline could never quiesce.
    signalled_scn: AtomicU64,
}

impl Shipper {
    /// Shipper draining up to `batch` records per call.
    pub fn new(batch: usize) -> Self {
        Self::with_metrics(batch, Arc::default())
    }

    /// Shipper reporting into a registry's transport stage.
    pub fn with_metrics(batch: usize, metrics: Arc<TransportMetrics>) -> Self {
        Shipper { batch: batch.max(1), metrics, staleness: None, signalled_scn: AtomicU64::new(0) }
    }

    /// Record generation→ship residency of commit records into `tracker`.
    pub fn with_staleness(mut self, tracker: Arc<StalenessTracker>) -> Self {
        self.staleness = Some(tracker);
        self
    }

    fn send_heartbeat(&self, buffer: &LogBuffer, sink: &dyn RedoSink, scn: Scn) -> Result<()> {
        sink.send(vec![RedoRecord {
            thread: buffer.thread(),
            scn,
            born_us: 0,
            payload: RedoPayload::Heartbeat,
        }])?;
        self.metrics.heartbeats.inc();
        self.metrics.batches_shipped.inc();
        Ok(())
    }

    /// Heartbeat only when database time moved past everything already
    /// signalled down the link.
    fn maybe_heartbeat(&self, buffer: &LogBuffer, sink: &dyn RedoSink, scn: Scn) -> Result<()> {
        if scn > Scn::ZERO && scn.0 > self.signalled_scn.load(Ordering::Acquire) {
            self.signalled_scn.store(scn.0, Ordering::Release);
            self.send_heartbeat(buffer, sink, scn)?;
        }
        Ok(())
    }

    fn send_data(&self, sink: &dyn RedoSink, records: Vec<RedoRecord>) -> Result<()> {
        self.metrics.records_shipped.add(records.len() as u64);
        self.metrics.bytes_shipped.add(records.iter().map(|r| r.approx_bytes() as u64).sum());
        self.metrics.batches_shipped.inc();
        if let Some(max) = records.iter().map(|r| r.scn.0).max() {
            self.signalled_scn.fetch_max(max, Ordering::AcqRel);
        }
        if let Some(t) = &self.staleness {
            for r in &records {
                if matches!(r.payload, RedoPayload::Commit(_)) {
                    t.on_ship(r.scn.0, r.born_us);
                }
            }
        }
        sink.send(records)
    }

    /// Ship one batch and run one quantum of link protocol work.
    /// `current_scn` stamps the heartbeat when the buffer is empty.
    /// Returns the number of data records shipped.
    pub fn ship_once(
        &self,
        buffer: &LogBuffer,
        sink: &dyn RedoSink,
        current_scn: Scn,
    ) -> Result<usize> {
        let records = buffer.drain(self.batch);
        let n = records.len();
        if records.is_empty() {
            self.maybe_heartbeat(buffer, sink, current_scn)?;
        } else {
            self.send_data(sink, records)?;
        }
        sink.service()?;
        Ok(n)
    }

    /// Ship until the buffer is drained (step-mode pump).
    pub fn ship_all(
        &self,
        buffer: &LogBuffer,
        sink: &dyn RedoSink,
        current_scn: Scn,
    ) -> Result<usize> {
        let mut total = 0;
        loop {
            let records = buffer.drain(self.batch);
            if records.is_empty() {
                break;
            }
            total += records.len();
            self.send_data(sink, records)?;
        }
        if total == 0 {
            self.maybe_heartbeat(buffer, sink, current_scn)?;
        }
        sink.service()?;
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_common::{RedoThreadId, ScnService};
    use parking_lot::Mutex;
    use std::collections::VecDeque;

    /// A perfect link for unit tests: one shared queue of shipped batches,
    /// sink and source at once.
    #[derive(Clone, Default)]
    struct VecLink(Arc<Mutex<VecDeque<Vec<RedoRecord>>>>);

    impl RedoSink for VecLink {
        fn send(&self, records: Vec<RedoRecord>) -> Result<()> {
            self.0.lock().push_back(records);
            Ok(())
        }

        fn set_lane_waker(&self, _lane: usize, _token: WakeToken) {}
    }

    impl RedoSource for VecLink {
        fn drain_ready(&mut self) -> Result<Vec<RedoRecord>> {
            Ok(self.0.lock().drain(..).flatten().collect())
        }

        fn transport_pending(&self) -> bool {
            !self.0.lock().is_empty()
        }

        fn time_to_next(&self) -> Option<Duration> {
            None
        }
    }

    #[test]
    fn shipper_heartbeats_idle_buffer() {
        let scns = ScnService::new();
        scns.next(); // advance database time
        let buf = LogBuffer::new(RedoThreadId(1));
        let mut link = VecLink::default();
        let shipper = Shipper::new(8);
        let shipped = shipper.ship_once(&buf, &link, scns.current()).unwrap();
        assert_eq!(shipped, 0);
        let got = link.drain_ready().unwrap();
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0].payload, RedoPayload::Heartbeat));
        assert_eq!(got[0].scn, Scn(1));
    }

    #[test]
    fn shipper_dedups_heartbeats_at_same_scn() {
        let scns = ScnService::new();
        scns.next();
        let buf = LogBuffer::new(RedoThreadId(1));
        let mut link = VecLink::default();
        let shipper = Shipper::new(8);
        for _ in 0..5 {
            shipper.ship_once(&buf, &link, scns.current()).unwrap();
        }
        assert_eq!(link.drain_ready().unwrap().len(), 1, "one heartbeat per SCN advance");
        scns.next();
        shipper.ship_all(&buf, &link, scns.current()).unwrap();
        assert_eq!(link.drain_ready().unwrap().len(), 1, "new SCN earns a fresh heartbeat");
    }

    #[test]
    fn shipper_drains_buffer() {
        let scns = ScnService::new();
        let buf = LogBuffer::new(RedoThreadId(1));
        for _ in 0..20 {
            buf.log_with(&scns, |_| RedoPayload::Heartbeat);
        }
        let mut link = VecLink::default();
        let shipped = Shipper::new(8).ship_all(&buf, &link, scns.current()).unwrap();
        assert_eq!(shipped, 20);
        assert_eq!(link.drain_ready().unwrap().len(), 20);
        assert_eq!(buf.pending(), 0);
    }
}
