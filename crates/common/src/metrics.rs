//! Pipeline-wide metrics and tracing.
//!
//! One [`MetricsRegistry`] instance accompanies each deployment side (a
//! primary instance, a standby cluster). Every pipeline stage — redo
//! transport, log merger, recovery apply, mining, journal, commit table,
//! invalidation flush, population, scan engine — holds an `Arc` to its
//! stage-metrics struct and updates lock-light primitives on the hot path:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64`. Its API mirrors
//!   `AtomicU64` (`fetch_add`, `load` taking an [`Ordering`]) so existing
//!   call sites keep compiling when a plain atomic field migrates here.
//! * [`Gauge`] — a last-value cell, refreshed by sampling (queue depths,
//!   SCNs, table sizes) just before a snapshot is taken.
//! * [`Histogram`] — fixed power-of-two buckets with count/sum/max. Used
//!   for durations (recorded in microseconds) and for size distributions
//!   (commit-table chop sizes).
//!
//! [`MetricsRegistry::snapshot`] projects everything into the plain-data,
//! serde-serializable [`MetricsSnapshot`] — the single schema shared by
//! `StandbyStatus`, the exporters in [`crate::export`] and `benchmark/`.
//!
//! [`PipelineTrace`] is a bounded ring of [`TraceEvent`]s recording QuerySCN
//! advancement (and other coarse stage transitions) for post-mortem
//! inspection without unbounded memory growth.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::clock::Clock;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// A monotonically increasing event counter.
///
/// Deliberately `AtomicU64`-shaped: stats structs that used to hold raw
/// atomics (mining, flush) migrated their fields to `Counter` without any
/// call-site churn — `stats.mined.fetch_add(1, Ordering::Relaxed)` and
/// `stats.mined.load(Ordering::Relaxed)` still compile.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n`, returning the previous value (AtomicU64-compatible).
    pub fn fetch_add(&self, n: u64, order: Ordering) -> u64 {
        self.0.fetch_add(n, order)
    }

    /// Read the counter (AtomicU64-compatible).
    pub fn load(&self, order: Ordering) -> u64 {
        self.0.load(order)
    }

    /// Add `n` (relaxed).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one (relaxed).
    pub fn inc(&self) {
        self.add(1);
    }

    /// Read the counter (relaxed).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A sampled last-value cell (queue depth, SCN, table size).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Read the value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Keep the maximum of the current value and `v`.
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }
}

/// Number of power-of-two histogram buckets. Bucket `i` counts values `v`
/// with `v < 2^i` not already counted by a lower bucket; the last bucket
/// absorbs everything beyond.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A lock-free bucketed histogram over `u64` values.
///
/// Durations are recorded in microseconds; size distributions record the
/// raw value. Buckets are upper-bounded at powers of two: value `v` lands
/// in bucket `ceil(log2(v + 1))`, clamped to the last bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for `v`.
    fn bucket_index(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Record one value.
    pub fn record_value(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration, in microseconds.
    pub fn record(&self, d: Duration) {
        self.record_value(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Project to plain data.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// Plain-data projection of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Maximum recorded value.
    pub max: u64,
    /// Per-bucket counts; bucket `i` holds values in `[2^(i-1), 2^i)`
    /// (bucket 0 holds zero, the last bucket absorbs overflow).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of recorded values, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the overflow
    /// bucket).
    pub fn bucket_bound(i: usize) -> u64 {
        if i + 1 >= HISTOGRAM_BUCKETS {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Approximate quantile `q` in `[0, 1]` from the bucket upper bounds.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }
}

/// Sub-bucket resolution of [`LogHistogram`]: every power-of-two range is
/// split into `2^LOG_HISTOGRAM_SUB_BITS` linear sub-buckets, bounding the
/// relative quantile error at `2^-LOG_HISTOGRAM_SUB_BITS` (12.5%).
pub const LOG_HISTOGRAM_SUB_BITS: u32 = 3;

const LOG_SUBS: usize = 1 << LOG_HISTOGRAM_SUB_BITS;

/// Number of log-linear buckets in a [`LogHistogram`]: the identity range
/// `0..2^SUB_BITS` plus `LOG_SUBS` sub-buckets per remaining octave.
pub const LOG_HISTOGRAM_BUCKETS: usize = (64 - LOG_HISTOGRAM_SUB_BITS as usize + 1) * LOG_SUBS;

/// A lock-light log-linear (HDR-style) histogram over `u64` values.
///
/// Where [`Histogram`]'s pure power-of-two buckets bound quantiles only to
/// within 2×, this type keeps 8 linear sub-buckets per octave — accurate
/// enough to report p50/p90/p99 latencies — while still recording with a
/// single relaxed atomic increment and no allocation. Snapshots are sparse
/// (only occupied buckets), serde-able, and mergeable across instances or
/// runs.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; LOG_HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for `v`: identity below `2^SUB_BITS`, then
    /// `(exp - SUB_BITS + 1) * LOG_SUBS + sub` where `exp = floor(log2 v)`
    /// and `sub` is the next `SUB_BITS` bits below the leading one.
    pub fn bucket_index(v: u64) -> usize {
        if v < LOG_SUBS as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - LOG_HISTOGRAM_SUB_BITS)) as usize & (LOG_SUBS - 1);
        (exp - LOG_HISTOGRAM_SUB_BITS + 1) as usize * LOG_SUBS + sub
    }

    /// Inclusive lower bound of bucket `i`.
    fn bucket_lower(i: usize) -> u64 {
        if i < LOG_SUBS {
            return i as u64;
        }
        let exp = (i / LOG_SUBS) as u32 + LOG_HISTOGRAM_SUB_BITS - 1;
        (1u64 << exp) + (((i % LOG_SUBS) as u64) << (exp - LOG_HISTOGRAM_SUB_BITS))
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn bucket_bound(i: usize) -> u64 {
        if i + 1 >= LOG_HISTOGRAM_BUCKETS {
            u64::MAX
        } else {
            Self::bucket_lower(i + 1) - 1
        }
    }

    /// Record one value.
    pub fn record_value(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration, in microseconds.
    pub fn record(&self, d: Duration) {
        self.record_value(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Project to sparse plain data (occupied buckets only).
    pub fn snapshot(&self) -> LogHistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push(LogBucket { index: i as u32, count: c });
            }
        }
        LogHistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One occupied bucket of a [`LogHistogramSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogBucket {
    /// Bucket index (see [`LogHistogram`] bucket layout).
    pub index: u32,
    /// Samples in the bucket.
    pub count: u64,
}

/// Sparse plain-data projection of a [`LogHistogram`]. Mergeable: summing
/// two snapshots bucket-by-bucket equals recording both sample streams
/// into one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Maximum recorded value.
    pub max: u64,
    /// Occupied buckets, in index order.
    pub buckets: Vec<LogBucket>,
}

impl LogHistogramSnapshot {
    /// Arithmetic mean of recorded values, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another snapshot into this one (bucket-wise sum, max of maxes).
    pub fn merge(&mut self, other: &LogHistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for b in &other.buckets {
            match self.buckets.binary_search_by_key(&b.index, |x| x.index) {
                Ok(i) => self.buckets[i].count += b.count,
                Err(i) => self.buckets.insert(i, *b),
            }
        }
    }

    /// Approximate quantile `q` in `[0, 1]` from the bucket upper bounds
    /// (within 12.5% of the true value, capped at the recorded max).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return LogHistogram::bucket_bound(b.index as usize).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

// ---------------------------------------------------------------------------
// Stage metrics
// ---------------------------------------------------------------------------

/// Redo transport. The primary side updates the shipping counters; on a
/// framed/TCP link the standby side updates the gap-resolution counters
/// (gaps, retransmits received, NAKs, duplicates) and the primary side the
/// link-maintenance ones (retransmits served, reconnects, pings).
#[derive(Debug, Default)]
pub struct TransportMetrics {
    /// Data records shipped to the standby (heartbeats excluded).
    pub records_shipped: Counter,
    /// Approximate wire bytes shipped (data records).
    pub bytes_shipped: Counter,
    /// SCN heartbeats shipped on idle redo threads.
    pub heartbeats: Counter,
    /// Batches handed to the link.
    pub batches_shipped: Counter,
    /// Records still buffered in the log buffer (sampled).
    pub queue_depth: Gauge,
    /// Wire frames sent on a framed link (data + control).
    pub frames_sent: Counter,
    /// Wire frames received on a framed link (data + control).
    pub frames_received: Counter,
    /// Sequence gaps detected by the receiver (one per missing frame).
    pub gaps_detected: Counter,
    /// Gaps closed by a retransmitted frame arriving.
    pub gaps_resolved: Counter,
    /// Retransmitted data frames (served on the primary, received on the
    /// standby — both sides count into their own registry).
    pub retransmits: Counter,
    /// NAK frames sent by the receiver to request retransmission.
    pub naks_sent: Counter,
    /// Duplicate data frames dropped by the receiver (exactly-once).
    pub duplicates_dropped: Counter,
    /// Link reconnects (TCP backoff cycles, injected disconnects).
    pub reconnects: Counter,
    /// Link-level liveness pings sent while the sender awaits ACKs.
    pub link_pings: Counter,
}

impl TransportMetrics {
    /// Project to plain data.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            records_shipped: self.records_shipped.get(),
            bytes_shipped: self.bytes_shipped.get(),
            heartbeats: self.heartbeats.get(),
            batches_shipped: self.batches_shipped.get(),
            queue_depth: self.queue_depth.get(),
            frames_sent: self.frames_sent.get(),
            frames_received: self.frames_received.get(),
            gaps_detected: self.gaps_detected.get(),
            gaps_resolved: self.gaps_resolved.get(),
            retransmits: self.retransmits.get(),
            naks_sent: self.naks_sent.get(),
            duplicates_dropped: self.duplicates_dropped.get(),
            reconnects: self.reconnects.get(),
            link_pings: self.link_pings.get(),
        }
    }
}

/// Plain-data projection of [`TransportMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportSnapshot {
    /// Data records shipped.
    pub records_shipped: u64,
    /// Approximate wire bytes shipped.
    pub bytes_shipped: u64,
    /// Heartbeats shipped.
    pub heartbeats: u64,
    /// Batches shipped.
    pub batches_shipped: u64,
    /// Sampled log-buffer depth.
    pub queue_depth: u64,
    /// Wire frames sent (framed links).
    pub frames_sent: u64,
    /// Wire frames received (framed links).
    pub frames_received: u64,
    /// Sequence gaps detected.
    pub gaps_detected: u64,
    /// Gaps resolved by retransmission.
    pub gaps_resolved: u64,
    /// Retransmitted frames (served or received, per side).
    pub retransmits: u64,
    /// NAK frames sent.
    pub naks_sent: u64,
    /// Duplicate frames dropped.
    pub duplicates_dropped: u64,
    /// Link reconnects.
    pub reconnects: u64,
    /// Liveness pings sent.
    pub link_pings: u64,
}

/// Standby log merger.
#[derive(Debug, Default)]
pub struct MergerMetrics {
    /// Batches pushed into the merger.
    pub merge_batches: Counter,
    /// Data records released in global SCN order.
    pub records_merged: Counter,
    /// Heartbeats swallowed (watermark advancement only).
    pub heartbeats_seen: Counter,
    /// Records buffered awaiting the watermark (sampled).
    pub held_back: Gauge,
    /// The merge watermark SCN (sampled).
    pub watermark: Gauge,
    /// Max spread between stream last-seen SCNs (sampled) — RAC stream
    /// skew the watermark must wait out.
    pub stream_skew: Gauge,
}

impl MergerMetrics {
    /// Project to plain data.
    pub fn snapshot(&self) -> MergerSnapshot {
        MergerSnapshot {
            merge_batches: self.merge_batches.get(),
            records_merged: self.records_merged.get(),
            heartbeats_seen: self.heartbeats_seen.get(),
            held_back: self.held_back.get(),
            watermark: self.watermark.get(),
            stream_skew: self.stream_skew.get(),
        }
    }
}

/// Plain-data projection of [`MergerMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergerSnapshot {
    /// Batches pushed into the merger.
    pub merge_batches: u64,
    /// Data records released in SCN order.
    pub records_merged: u64,
    /// Heartbeats swallowed.
    pub heartbeats_seen: u64,
    /// Sampled held-back record count.
    pub held_back: u64,
    /// Sampled merge watermark.
    pub watermark: u64,
    /// Sampled stream skew in SCNs.
    pub stream_skew: u64,
}

/// Recovery apply (dispatcher + workers + coordinator progress).
#[derive(Debug, Default)]
pub struct ApplyMetrics {
    /// Data records handed to the dispatcher (equals records merged —
    /// the conservation identity the e2e test checks).
    pub records_dispatched: Counter,
    /// Work items applied by workers (CVs fan out per record).
    pub items_applied: Counter,
    /// CVs applied, per worker (the Fig. 3 parallelism split).
    worker_cvs: Mutex<Vec<Arc<Counter>>>,
    /// SCN applied through by every worker (sampled).
    pub applied_scn: Gauge,
    /// Highest SCN seen from any redo stream (sampled).
    pub shipped_scn: Gauge,
    /// Apply lag: shipped SCN minus applied SCN (sampled).
    pub apply_lag: Gauge,
    /// The published QuerySCN (sampled; 0 before the first publish).
    pub query_scn: Gauge,
}

impl ApplyMetrics {
    /// The CVs-applied counter of worker `i`, growing the roster on first
    /// use.
    pub fn worker_counter(&self, i: usize) -> Arc<Counter> {
        let mut v = self.worker_cvs.lock();
        while v.len() <= i {
            v.push(Arc::new(Counter::new()));
        }
        v[i].clone()
    }

    /// Project to plain data.
    pub fn snapshot(&self) -> ApplySnapshot {
        ApplySnapshot {
            records_dispatched: self.records_dispatched.get(),
            items_applied: self.items_applied.get(),
            worker_cvs: self.worker_cvs.lock().iter().map(|c| c.get()).collect(),
            applied_scn: self.applied_scn.get(),
            shipped_scn: self.shipped_scn.get(),
            apply_lag: self.apply_lag.get(),
            query_scn: self.query_scn.get(),
        }
    }
}

/// Plain-data projection of [`ApplyMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApplySnapshot {
    /// Data records handed to the dispatcher.
    pub records_dispatched: u64,
    /// Work items applied by workers.
    pub items_applied: u64,
    /// CVs applied per worker.
    pub worker_cvs: Vec<u64>,
    /// Sampled applied-through SCN.
    pub applied_scn: u64,
    /// Sampled highest shipped SCN.
    pub shipped_scn: u64,
    /// Sampled apply lag in SCNs.
    pub apply_lag: u64,
    /// Sampled published QuerySCN (0 = none yet).
    pub query_scn: u64,
}

/// Mining component (paper §III.B).
#[derive(Debug, Default)]
pub struct MiningMetrics {
    /// CVs inspected.
    pub sniffed: Counter,
    /// Invalidation records buffered.
    pub mined: Counter,
    /// Commit-table nodes created.
    pub commits: Counter,
    /// Aborted transactions discarded from the journal.
    pub aborts: Counter,
    /// DDL markers buffered.
    pub markers: Counter,
    /// Invalidation records discarded by aborts (closes the mined ==
    /// flushed + discarded + pending conservation identity).
    pub abort_discarded_records: Counter,
}

impl MiningMetrics {
    /// Project to plain data.
    pub fn snapshot(&self) -> MiningSnapshot {
        MiningSnapshot {
            sniffed: self.sniffed.get(),
            mined: self.mined.get(),
            commits: self.commits.get(),
            aborts: self.aborts.get(),
            markers: self.markers.get(),
            abort_discarded_records: self.abort_discarded_records.get(),
        }
    }
}

/// Plain-data projection of [`MiningMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiningSnapshot {
    /// CVs inspected.
    pub sniffed: u64,
    /// Invalidation records buffered.
    pub mined: u64,
    /// Commit-table nodes created.
    pub commits: u64,
    /// Aborted transactions discarded.
    pub aborts: u64,
    /// DDL markers buffered.
    pub markers: u64,
    /// Records discarded by aborts.
    pub abort_discarded_records: u64,
}

/// IM-ADG Journal (paper §III.C).
#[derive(Debug, Default)]
pub struct JournalMetrics {
    /// Anchor nodes created.
    pub anchors_created: Counter,
    /// Bucket-latch contention: lock acquisitions that had to wait.
    pub bucket_contention: Counter,
    /// Open transactions anchored (sampled).
    pub journal_txns: Gauge,
    /// Buffered invalidation records (sampled).
    pub journal_records: Gauge,
}

impl JournalMetrics {
    /// Project to plain data.
    pub fn snapshot(&self) -> JournalSnapshot {
        JournalSnapshot {
            anchors_created: self.anchors_created.get(),
            bucket_contention: self.bucket_contention.get(),
            journal_txns: self.journal_txns.get(),
            journal_records: self.journal_records.get(),
        }
    }
}

/// Plain-data projection of [`JournalMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalSnapshot {
    /// Anchor nodes created.
    pub anchors_created: u64,
    /// Bucket-latch contention events.
    pub bucket_contention: u64,
    /// Sampled anchored transactions.
    pub journal_txns: u64,
    /// Sampled buffered records.
    pub journal_records: u64,
}

/// IM-ADG Commit Table (paper §III.D.1).
#[derive(Debug, Default)]
pub struct CommitTableMetrics {
    /// Nodes inserted.
    pub inserts: Counter,
    /// Chop operations (one per QuerySCN advancement with pending work).
    pub chops: Counter,
    /// Nodes moved onto worklinks by chops.
    pub chopped_txns: Counter,
    /// Distribution of chop sizes (nodes per chop).
    pub chop_size: Histogram,
    /// Nodes awaiting the next advancement (sampled).
    pub commit_table_pending: Gauge,
}

impl CommitTableMetrics {
    /// Project to plain data.
    pub fn snapshot(&self) -> CommitTableSnapshot {
        CommitTableSnapshot {
            inserts: self.inserts.get(),
            chops: self.chops.get(),
            chopped_txns: self.chopped_txns.get(),
            chop_size: self.chop_size.snapshot(),
            commit_table_pending: self.commit_table_pending.get(),
        }
    }
}

/// Plain-data projection of [`CommitTableMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitTableSnapshot {
    /// Nodes inserted.
    pub inserts: u64,
    /// Chop operations.
    pub chops: u64,
    /// Nodes chopped onto worklinks.
    pub chopped_txns: u64,
    /// Chop-size distribution.
    pub chop_size: HistogramSnapshot,
    /// Sampled pending nodes.
    pub commit_table_pending: u64,
}

/// Invalidation flush + QuerySCN advancement (paper §III.D).
#[derive(Debug, Default)]
pub struct FlushMetrics {
    /// Transactions flushed off worklinks.
    pub flushed_txns: Counter,
    /// Invalidation records flushed to SMUs.
    pub flushed_records: Counter,
    /// Coarse (per-tenant) invalidations triggered.
    pub coarse_invalidations: Counter,
    /// DDL markers processed at advancement.
    pub ddl_applied: Counter,
    /// Worklink nodes flushed by cooperating recovery workers (vs the
    /// coordinator) — the §III.D.2 ablation metric.
    pub coop_flushed: Counter,
    /// Per-object invalidation groups delivered to the flush target.
    pub flush_groups: Counter,
    /// Successful QuerySCN advancements.
    pub advances: Counter,
    /// Quiesce-period duration per advancement, in microseconds.
    pub quiesce_us: Histogram,
    /// The currently published QuerySCN on this standby (sampled).
    pub published_query_scn: Gauge,
    /// SCN gap between the primary's current SCN and this standby's
    /// published QuerySCN (sampled) — the reader farm's lag signal.
    pub scn_gap: Gauge,
}

impl FlushMetrics {
    /// Project to plain data.
    pub fn snapshot(&self) -> FlushSnapshot {
        let flushed_txns = self.flushed_txns.get();
        let coop = self.coop_flushed.get();
        FlushSnapshot {
            flushed_txns,
            flushed_records: self.flushed_records.get(),
            coarse_invalidations: self.coarse_invalidations.get(),
            ddl_applied: self.ddl_applied.get(),
            coop_flushed: coop,
            coordinator_flushed: flushed_txns.saturating_sub(coop),
            flush_groups: self.flush_groups.get(),
            advances: self.advances.get(),
            quiesce_us: self.quiesce_us.snapshot(),
            published_query_scn: self.published_query_scn.get(),
            scn_gap: self.scn_gap.get(),
        }
    }
}

/// Plain-data projection of [`FlushMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlushSnapshot {
    /// Transactions flushed.
    pub flushed_txns: u64,
    /// Invalidation records flushed.
    pub flushed_records: u64,
    /// Coarse invalidations.
    pub coarse_invalidations: u64,
    /// DDL markers applied.
    pub ddl_applied: u64,
    /// Nodes flushed cooperatively by recovery workers.
    pub coop_flushed: u64,
    /// Nodes flushed by the coordinator itself.
    pub coordinator_flushed: u64,
    /// Invalidation groups delivered.
    pub flush_groups: u64,
    /// QuerySCN advancements.
    pub advances: u64,
    /// Quiesce-duration distribution (µs).
    pub quiesce_us: HistogramSnapshot,
    /// The currently published QuerySCN (0 when none yet).
    pub published_query_scn: u64,
    /// Primary-SCN minus published QuerySCN at sample time.
    pub scn_gap: u64,
}

/// Redo durability: the on-disk segmented log (group commit + archiver)
/// and restart replay. Each side updates its own registry — the primary
/// counts wal appends/fsyncs/archive retransmits, the standby additionally
/// counts replay.
#[derive(Debug, Default)]
pub struct DurabilityMetrics {
    /// Batches appended to the durable log (buffered for group commit).
    pub appends: Counter,
    /// Records written and fsynced to segments.
    pub records_persisted: Counter,
    /// Bytes written and fsynced to segments.
    pub bytes_persisted: Counter,
    /// fsync calls — one per group commit, batching every append of the
    /// stage quantum.
    pub fsyncs: Counter,
    /// Active segments sealed after exceeding the size bound.
    pub segments_sealed: Counter,
    /// Sealed segments moved to the archive tier by the archiver.
    pub segments_archived: Counter,
    /// NAK gap-resolutions served from the durable log because the
    /// requested sequence had left the in-memory retained window.
    pub archive_retransmits: Counter,
    /// Batches replayed from disk during a hard restart.
    pub replayed_batches: Counter,
    /// Records replayed from disk during a hard restart.
    pub replayed_records: Counter,
    /// Highest sequence fsynced to disk (sampled).
    pub durable_seq: Gauge,
    /// Segment files in the wal tier (sampled).
    pub wal_segments: Gauge,
    /// Segment files in the archive tier (sampled).
    pub archived_segments: Gauge,
}

impl DurabilityMetrics {
    /// Project to plain data.
    pub fn snapshot(&self) -> DurabilitySnapshot {
        DurabilitySnapshot {
            appends: self.appends.get(),
            records_persisted: self.records_persisted.get(),
            bytes_persisted: self.bytes_persisted.get(),
            fsyncs: self.fsyncs.get(),
            segments_sealed: self.segments_sealed.get(),
            segments_archived: self.segments_archived.get(),
            archive_retransmits: self.archive_retransmits.get(),
            replayed_batches: self.replayed_batches.get(),
            replayed_records: self.replayed_records.get(),
            mining_skipped: 0,
            durable_seq: self.durable_seq.get(),
            wal_segments: self.wal_segments.get(),
            archived_segments: self.archived_segments.get(),
        }
    }
}

/// Plain-data projection of [`DurabilityMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilitySnapshot {
    /// Batches appended.
    pub appends: u64,
    /// Records fsynced.
    pub records_persisted: u64,
    /// Bytes fsynced.
    pub bytes_persisted: u64,
    /// Group-commit fsyncs.
    pub fsyncs: u64,
    /// Segments sealed.
    pub segments_sealed: u64,
    /// Segments archived.
    pub segments_archived: u64,
    /// Retransmits served from the durable log.
    pub archive_retransmits: u64,
    /// Batches replayed on restart.
    pub replayed_batches: u64,
    /// Records replayed on restart.
    pub replayed_records: u64,
    /// Always 0: restart re-mines the whole log, so no observer call is
    /// skipped. Kept only because the benchmark harness still reads it.
    pub mining_skipped: u64,
    /// Sampled durable sequence.
    pub durable_seq: u64,
    /// Sampled wal-tier segment count.
    pub wal_segments: u64,
    /// Sampled archive-tier segment count.
    pub archived_segments: u64,
}

/// Population engine (paper §III.A).
#[derive(Debug, Default)]
pub struct PopulationMetrics {
    /// New IMCUs built.
    pub imcus_built: Counter,
    /// Stale IMCUs rebuilt.
    pub imcus_repopulated: Counter,
    /// Encoded columns a repopulation shared with the unit it replaced.
    pub columns_shared: Counter,
    /// Encoded columns a repopulation re-encoded.
    pub columns_encoded: Counter,
    /// Population passes run.
    pub passes: Counter,
    /// Rows populated across column stores (sampled).
    pub populated_rows: Gauge,
}

impl PopulationMetrics {
    /// Project to plain data.
    pub fn snapshot(&self) -> PopulationSnapshot {
        PopulationSnapshot {
            imcus_built: self.imcus_built.get(),
            imcus_repopulated: self.imcus_repopulated.get(),
            columns_shared: self.columns_shared.get(),
            columns_encoded: self.columns_encoded.get(),
            passes: self.passes.get(),
            populated_rows: self.populated_rows.get(),
        }
    }
}

/// Plain-data projection of [`PopulationMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PopulationSnapshot {
    /// New IMCUs built.
    pub imcus_built: u64,
    /// Stale IMCUs rebuilt.
    pub imcus_repopulated: u64,
    /// Encoded columns repopulations shared with the units they replaced.
    pub columns_shared: u64,
    /// Encoded columns repopulations re-encoded.
    pub columns_encoded: u64,
    /// Population passes.
    pub passes: u64,
    /// Sampled populated rows.
    pub populated_rows: u64,
}

/// Cold columnar tier: eviction, recall, re-compaction, and cold-unit
/// scan activity (ROADMAP item 4).
#[derive(Debug, Default)]
pub struct TierMetrics {
    /// Hot IMCUs evicted to the on-disk columnar tier.
    pub tier_evictions: Counter,
    /// Cold units recalled back into DRAM.
    pub tier_recalls: Counter,
    /// Cold units re-compacted (journal rows merged into a fresh file).
    pub tier_recompactions: Counter,
    /// Cold units excluded by footer min/max without any file I/O.
    pub tier_pruned_units: Counter,
    /// Cold units served by decoding their columnar file.
    pub tier_cold_reads: Counter,
    /// Cold files that failed CRC/decode and degraded to row-store scans.
    pub tier_read_errors: Counter,
    /// Bytes held by the cold tier on disk (sampled).
    pub tier_bytes_on_disk: Gauge,
    /// Cold unit count (sampled).
    pub cold_units: Gauge,
}

impl TierMetrics {
    /// Project to plain data.
    pub fn snapshot(&self) -> TierSnapshot {
        TierSnapshot {
            tier_evictions: self.tier_evictions.get(),
            tier_recalls: self.tier_recalls.get(),
            tier_recompactions: self.tier_recompactions.get(),
            tier_pruned_units: self.tier_pruned_units.get(),
            tier_cold_reads: self.tier_cold_reads.get(),
            tier_read_errors: self.tier_read_errors.get(),
            tier_bytes_on_disk: self.tier_bytes_on_disk.get(),
            cold_units: self.cold_units.get(),
        }
    }
}

/// Plain-data projection of [`TierMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierSnapshot {
    /// IMCUs evicted to disk.
    pub tier_evictions: u64,
    /// Cold units recalled to DRAM.
    pub tier_recalls: u64,
    /// Cold units re-compacted.
    pub tier_recompactions: u64,
    /// Cold units pruned by footer min/max (zero I/O).
    pub tier_pruned_units: u64,
    /// Cold units served from disk.
    pub tier_cold_reads: u64,
    /// Cold read failures degraded to the row store.
    pub tier_read_errors: u64,
    /// Sampled cold-tier bytes on disk.
    pub tier_bytes_on_disk: u64,
    /// Sampled cold unit count.
    pub cold_units: u64,
}

/// The In-Memory Scan Engine as seen by the query API.
#[derive(Debug, Default)]
pub struct ScanEngineMetrics {
    /// Queries executed through the unified query API.
    pub queries: Counter,
    /// Queries served by the IMCS.
    pub imcs_served: Counter,
    /// Queries that fell back to a pure row-store scan.
    pub row_store_fallback: Counter,
    /// Result rows served from encoded IMCU data.
    pub imcu_rows: Counter,
    /// Result rows served via SMU fallback.
    pub fallback_rows: Counter,
    /// Result rows served from uncovered blocks.
    pub uncovered_rows: Counter,
    /// Units skipped by the min/max storage index.
    pub pruned_units: Counter,
    /// Units whose columns were scanned.
    pub scanned_units: Counter,
    /// Per-unit scan tasks issued to the query-scoped worker pool.
    pub parallel_tasks: Counter,
    /// Queries executed with a parallel degree > 1.
    pub parallel_queries: Counter,
    /// Query latency distribution (µs).
    pub latency_us: Histogram,
}

impl ScanEngineMetrics {
    /// Project to plain data.
    pub fn snapshot(&self) -> ScanEngineSnapshot {
        ScanEngineSnapshot {
            queries: self.queries.get(),
            imcs_served: self.imcs_served.get(),
            row_store_fallback: self.row_store_fallback.get(),
            imcu_rows: self.imcu_rows.get(),
            fallback_rows: self.fallback_rows.get(),
            uncovered_rows: self.uncovered_rows.get(),
            pruned_units: self.pruned_units.get(),
            scanned_units: self.scanned_units.get(),
            parallel_tasks: self.parallel_tasks.get(),
            parallel_queries: self.parallel_queries.get(),
            latency_us: self.latency_us.snapshot(),
        }
    }
}

/// Plain-data projection of [`ScanEngineMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanEngineSnapshot {
    /// Queries executed.
    pub queries: u64,
    /// Queries served by the IMCS.
    pub imcs_served: u64,
    /// Queries served by the row store only.
    pub row_store_fallback: u64,
    /// Rows from encoded IMCU data.
    pub imcu_rows: u64,
    /// Rows via SMU fallback.
    pub fallback_rows: u64,
    /// Rows from uncovered blocks.
    pub uncovered_rows: u64,
    /// Units pruned by storage indexes.
    pub pruned_units: u64,
    /// Units scanned.
    pub scanned_units: u64,
    /// Per-unit scan tasks issued to the worker pool.
    pub parallel_tasks: u64,
    /// Queries executed with a parallel degree > 1.
    pub parallel_queries: u64,
    /// Latency distribution (µs).
    pub latency_us: HistogramSnapshot,
}

// ---------------------------------------------------------------------------
// Runtime (scheduler) observability
// ---------------------------------------------------------------------------

/// Scheduler-side metrics for one registered stage: how often it ran, how
/// long each run quantum took, and how it parked/woke. Stage identities
/// align with the registry's stage ids (`transport`, `merger`, `apply.N`,
/// `flush`, `population.N`, …), so these land next to the stage's own
/// counters in the snapshot.
#[derive(Debug, Default)]
pub struct StageRuntimeMetrics {
    /// Run quanta executed.
    pub runs: Counter,
    /// Explicit wakeups received while parked (vs park-hint timeouts).
    pub wakeups: Counter,
    /// Times the stage parked idle.
    pub parks: Counter,
    /// Time spent parked, per park (µs).
    pub park_us: Histogram,
    /// Run-quantum duration (µs).
    pub run_quantum_us: Histogram,
}

impl StageRuntimeMetrics {
    /// Project to plain data.
    pub fn snapshot(&self, stage: &str) -> StageRuntimeSnapshot {
        StageRuntimeSnapshot {
            stage: stage.to_string(),
            runs: self.runs.get(),
            wakeups: self.wakeups.get(),
            parks: self.parks.get(),
            park_us: self.park_us.snapshot(),
            run_quantum_us: self.run_quantum_us.snapshot(),
        }
    }
}

/// Plain-data projection of [`StageRuntimeMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageRuntimeSnapshot {
    /// Stage id.
    pub stage: String,
    /// Run quanta executed.
    pub runs: u64,
    /// Explicit wakeups received.
    pub wakeups: u64,
    /// Parks taken.
    pub parks: u64,
    /// Park-time distribution (µs).
    pub park_us: HistogramSnapshot,
    /// Run-quantum distribution (µs).
    pub run_quantum_us: HistogramSnapshot,
}

/// Runtime-wide observability for one deployment side: the per-stage
/// scheduler metrics roster plus the pipeline health cell the schedulers
/// write failures into.
#[derive(Debug, Default)]
pub struct RuntimeMetrics {
    stages: Mutex<Vec<(String, Arc<StageRuntimeMetrics>)>>,
    /// Pipeline health; `Failed` once any stage errors or panics.
    pub health: Arc<crate::runtime::HealthState>,
}

impl RuntimeMetrics {
    /// The scheduler-metrics handle for stage `name`, creating it on first
    /// use. Re-registering a stage (runtime rebuilt between runs) returns
    /// the same handle so counters accumulate per side, not per run.
    pub fn stage(&self, name: &str) -> Arc<StageRuntimeMetrics> {
        let mut v = self.stages.lock();
        if let Some((_, m)) = v.iter().find(|(n, _)| n == name) {
            return m.clone();
        }
        let m = Arc::new(StageRuntimeMetrics::default());
        v.push((name.to_string(), m.clone()));
        m
    }

    /// Project to plain data.
    pub fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            failure: self.health.get().failure().cloned(),
            stalls: self.health.stalls(),
            stages: self.stages.lock().iter().map(|(n, m)| m.snapshot(n)).collect(),
        }
    }
}

/// Plain-data projection of [`RuntimeMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeSnapshot {
    /// The first stage failure, if any (`None` = healthy).
    pub failure: Option<crate::runtime::StageFailure>,
    /// Stall warnings: stages that sat idle with input pending beyond the
    /// [`crate::runtime::STALL_IDLE_QUANTA`] threshold. Warnings, not
    /// failures — the pipeline keeps running.
    pub stalls: Vec<crate::runtime::StallWarning>,
    /// Per-stage scheduler metrics, in registration order.
    pub stages: Vec<StageRuntimeSnapshot>,
}

impl RuntimeSnapshot {
    /// True when no stage failure has been recorded.
    pub fn is_healthy(&self) -> bool {
        self.failure.is_none()
    }
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Which pipeline stage emitted a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceStage {
    /// Redo shipping (primary).
    Ship,
    /// Log merge (standby ingest).
    Merge,
    /// Worker apply.
    Apply,
    /// QuerySCN advancement.
    Advance,
    /// Invalidation flush.
    Flush,
    /// IMCU population.
    Populate,
    /// Query execution.
    Query,
}

/// One traced stage transition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Monotonic sequence number within the ring's lifetime.
    pub seq: u64,
    /// Emitting stage.
    pub stage: TraceStage,
    /// The SCN the event concerns (0 when not SCN-related).
    pub scn: u64,
    /// Free-form detail.
    pub detail: String,
}

#[derive(Debug, Default)]
struct TraceRing {
    events: std::collections::VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded ring of pipeline trace events. Cheap to clone (shared ring);
/// when full, the oldest event is dropped and accounted.
#[derive(Debug, Clone)]
pub struct PipelineTrace {
    inner: Arc<Mutex<TraceRing>>,
    capacity: usize,
}

impl Default for PipelineTrace {
    fn default() -> Self {
        PipelineTrace::new(256)
    }
}

impl PipelineTrace {
    /// Ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        PipelineTrace {
            inner: Arc::new(Mutex::new(TraceRing::default())),
            capacity: capacity.max(1),
        }
    }

    /// Record one event.
    pub fn record(&self, stage: TraceStage, scn: u64, detail: impl Into<String>) {
        let mut ring = self.inner.lock();
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.events.push_back(TraceEvent { seq, stage, scn, detail: detail.into() });
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Events evicted by the capacity bound so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.inner.lock().next_seq
    }
}

// ---------------------------------------------------------------------------
// Commit-to-queryable staleness
// ---------------------------------------------------------------------------

/// In-flight per-commit stamps (µs on the tracker's clock; 0 = not reached).
#[derive(Debug, Clone, Copy, Default)]
struct CommitStamps {
    born: u64,
    recv: u64,
    merge: u64,
    apply: u64,
}

/// Stage-by-stage residency of one traced commit, µs. Produced for the
/// slowest commits so a laggard can be explained stage by stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScnTrace {
    /// Commit SCN.
    pub scn: u64,
    /// Generation → standby receipt (ship + wire + gap resolution).
    pub transit_us: u64,
    /// Receipt → merged out of the per-thread streams.
    pub merge_wait_us: u64,
    /// Merge → applied by a recovery worker.
    pub apply_us: u64,
    /// Apply → journal visibility (flush_for_advance done).
    pub flush_us: u64,
    /// Journal visibility → QuerySCN published.
    pub publish_us: u64,
    /// Generation → queryable (the paper's Fig. 5 staleness).
    pub e2e_us: u64,
}

/// Bound on tracked in-flight commits; beyond it the oldest is evicted so
/// a stalled standby cannot grow the map without limit.
const STALENESS_INFLIGHT_CAP: usize = 65_536;

/// How many slowest-commit traces the ring retains.
pub const STALENESS_SLOWEST_CAP: usize = 16;

/// Tracks commit-record latency through the pipeline: per-stage residency
/// histograms plus the end-to-end commit-to-queryable staleness histogram
/// (the paper's Fig. 5 analogue), and a ring of the slowest commits traced
/// stage by stage.
///
/// All stamps come from the tracker's injectable [`Clock`], so deterministic
/// `Manual`-clock runs under the `StepScheduler` reproduce bit-identical
/// bucket counts. Stamping happens only for commit records (not every redo
/// change), keeping the hot path to one clock read and one map touch.
#[derive(Debug, Default)]
pub struct StalenessTracker {
    clock: Mutex<Clock>,
    /// Generation → ship handoff (primary side).
    pub ship: LogHistogram,
    /// Generation → standby receipt (includes wire + gap resolution).
    pub receive: LogHistogram,
    /// Receipt → merged.
    pub merge: LogHistogram,
    /// Merged → applied.
    pub apply: LogHistogram,
    /// Applied → journal-visible (flush_for_advance).
    pub flush: LogHistogram,
    /// Journal-visible → QuerySCN published.
    pub publish: LogHistogram,
    /// Generation → queryable: the commit-to-queryable staleness.
    pub e2e: LogHistogram,
    inflight: Mutex<std::collections::BTreeMap<u64, CommitStamps>>,
    slowest: Mutex<Vec<ScnTrace>>,
}

impl StalenessTracker {
    /// Install the deployment's clock (defaults to [`Clock::Real`]). Clones
    /// share time, so handing the cluster's manual clock here keeps stamps
    /// deterministic.
    pub fn set_clock(&self, clock: Clock) {
        *self.clock.lock() = clock;
    }

    /// Current time on the tracker's clock, µs.
    pub fn now_micros(&self) -> u64 {
        self.clock.lock().now_micros()
    }

    /// Primary side: a commit record with generation stamp `born_us` was
    /// handed to the redo link.
    pub fn on_ship(&self, _scn: u64, born_us: u64) {
        let now = self.now_micros();
        self.ship.record_value(now.saturating_sub(born_us));
    }

    /// Standby side: a commit record arrived from the link (post gap
    /// resolution). Starts tracking the commit in-flight.
    pub fn on_receive(&self, scn: u64, born_us: u64) {
        let now = self.now_micros();
        self.receive.record_value(now.saturating_sub(born_us));
        let mut inflight = self.inflight.lock();
        if inflight.len() >= STALENESS_INFLIGHT_CAP {
            let oldest = *inflight.keys().next().expect("non-empty at cap");
            inflight.remove(&oldest);
        }
        // or_insert: a duplicate delivery must not restart the commit's
        // residency measurement.
        inflight.entry(scn).or_insert(CommitStamps {
            born: born_us,
            recv: now,
            ..Default::default()
        });
    }

    /// Standby side: the merger emitted the commit in SCN order.
    pub fn on_merge(&self, scn: u64) {
        let now = self.now_micros();
        let mut inflight = self.inflight.lock();
        if let Some(s) = inflight.get_mut(&scn) {
            if s.merge == 0 {
                s.merge = now;
                self.merge.record_value(now.saturating_sub(s.recv));
            }
        }
    }

    /// Standby side: a recovery worker applied the commit.
    pub fn on_apply(&self, scn: u64) {
        let now = self.now_micros();
        let mut inflight = self.inflight.lock();
        if let Some(s) = inflight.get_mut(&scn) {
            if s.apply == 0 {
                s.apply = now;
                self.apply.record_value(now.saturating_sub(s.merge.max(s.recv)));
            }
        }
    }

    /// Standby side: the QuerySCN advanced to `target`. `flush_us` is the
    /// clock reading after `flush_for_advance` returned (journal
    /// visibility), `publish_us` after the QuerySCN publish. Settles every
    /// in-flight commit at or below `target`: records flush/publish/e2e
    /// residencies and retires the slowest into the trace ring.
    pub fn on_advance(&self, target: u64, flush_us: u64, publish_us: u64) {
        let mut inflight = self.inflight.lock();
        let mut remaining = inflight.split_off(&(target + 1));
        std::mem::swap(&mut *inflight, &mut remaining);
        let settled = remaining;
        drop(inflight);
        if settled.is_empty() {
            return;
        }
        let mut slowest = self.slowest.lock();
        for (scn, s) in settled {
            let applied = s.apply.max(s.merge).max(s.recv);
            let flushed = flush_us.max(applied);
            let published = publish_us.max(flushed);
            self.flush.record_value(flushed - applied);
            self.publish.record_value(published - flushed);
            let e2e = published.saturating_sub(s.born);
            self.e2e.record_value(e2e);
            let trace = ScnTrace {
                scn,
                transit_us: s.recv.saturating_sub(s.born),
                merge_wait_us: s.merge.max(s.recv) - s.recv,
                apply_us: applied - s.merge.max(s.recv),
                flush_us: flushed - applied,
                publish_us: published - flushed,
                e2e_us: e2e,
            };
            let pos =
                slowest.binary_search_by(|t: &ScnTrace| e2e.cmp(&t.e2e_us)).unwrap_or_else(|p| p);
            if pos < STALENESS_SLOWEST_CAP {
                slowest.insert(pos, trace);
                slowest.truncate(STALENESS_SLOWEST_CAP);
            }
        }
    }

    /// Commits currently tracked between receipt and QuerySCN publish.
    pub fn inflight(&self) -> usize {
        self.inflight.lock().len()
    }

    /// Project to plain data.
    pub fn snapshot(&self) -> StalenessSnapshot {
        StalenessSnapshot {
            ship: self.ship.snapshot(),
            receive: self.receive.snapshot(),
            merge: self.merge.snapshot(),
            apply: self.apply.snapshot(),
            flush: self.flush.snapshot(),
            publish: self.publish.snapshot(),
            e2e: self.e2e.snapshot(),
            slowest: self.slowest.lock().clone(),
        }
    }
}

/// Plain-data projection of [`StalenessTracker`]. All histograms are in µs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StalenessSnapshot {
    /// Generation → ship handoff (primary side).
    pub ship: LogHistogramSnapshot,
    /// Generation → standby receipt.
    pub receive: LogHistogramSnapshot,
    /// Receipt → merged.
    pub merge: LogHistogramSnapshot,
    /// Merged → applied.
    pub apply: LogHistogramSnapshot,
    /// Applied → journal-visible.
    pub flush: LogHistogramSnapshot,
    /// Journal-visible → QuerySCN published.
    pub publish: LogHistogramSnapshot,
    /// Generation → queryable (commit-to-queryable staleness).
    pub e2e: LogHistogramSnapshot,
    /// The slowest traced commits, worst first.
    pub slowest: Vec<ScnTrace>,
}

// ---------------------------------------------------------------------------
// Registry + snapshot
// ---------------------------------------------------------------------------

/// The per-deployment-side metrics registry: one `Arc`'d stage-metrics
/// struct per pipeline stage, plus the trace ring. Components receive their
/// stage handle at construction and update it lock-light; gauges are
/// refreshed by the owner just before [`MetricsRegistry::snapshot`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Redo transport.
    pub transport: Arc<TransportMetrics>,
    /// Log merger.
    pub merger: Arc<MergerMetrics>,
    /// Recovery apply.
    pub apply: Arc<ApplyMetrics>,
    /// Mining component.
    pub mining: Arc<MiningMetrics>,
    /// IM-ADG Journal.
    pub journal: Arc<JournalMetrics>,
    /// IM-ADG Commit Table.
    pub commit_table: Arc<CommitTableMetrics>,
    /// Invalidation flush + advancement.
    pub flush: Arc<FlushMetrics>,
    /// Redo durability (on-disk log, restart replay).
    pub durability: Arc<DurabilityMetrics>,
    /// Population engine.
    pub population: Arc<PopulationMetrics>,
    /// Cold columnar tier.
    pub tier: Arc<TierMetrics>,
    /// Scan engine / query API.
    pub scan: Arc<ScanEngineMetrics>,
    /// Scheduler observability + pipeline health.
    pub runtime: Arc<RuntimeMetrics>,
    /// Commit-to-queryable staleness tracking.
    pub staleness: Arc<StalenessTracker>,
    /// Trace ring.
    pub trace: PipelineTrace,
}

impl MetricsRegistry {
    /// A fresh registry with the given trace capacity.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        MetricsRegistry { trace: PipelineTrace::new(capacity), ..Default::default() }
    }

    /// Project every stage into one serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            transport: self.transport.snapshot(),
            merger: self.merger.snapshot(),
            apply: self.apply.snapshot(),
            mining: self.mining.snapshot(),
            journal: self.journal.snapshot(),
            commit_table: self.commit_table.snapshot(),
            flush: self.flush.snapshot(),
            durability: self.durability.snapshot(),
            population: self.population.snapshot(),
            tier: self.tier.snapshot(),
            scan: self.scan.snapshot(),
            runtime: self.runtime.snapshot(),
            staleness: self.staleness.snapshot(),
            trace: self.trace.events(),
        }
    }
}

/// Point-in-time, serde-serializable projection of every pipeline stage.
/// This is the one schema shared by `StandbyStatus`, the exporters and
/// `benchmark/`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Redo transport.
    pub transport: TransportSnapshot,
    /// Log merger.
    pub merger: MergerSnapshot,
    /// Recovery apply.
    pub apply: ApplySnapshot,
    /// Mining component.
    pub mining: MiningSnapshot,
    /// IM-ADG Journal.
    pub journal: JournalSnapshot,
    /// IM-ADG Commit Table.
    pub commit_table: CommitTableSnapshot,
    /// Invalidation flush + advancement.
    pub flush: FlushSnapshot,
    /// Redo durability (on-disk log, restart replay).
    pub durability: DurabilitySnapshot,
    /// Population engine.
    pub population: PopulationSnapshot,
    /// Cold columnar tier.
    pub tier: TierSnapshot,
    /// Scan engine / query API.
    pub scan: ScanEngineSnapshot,
    /// Scheduler observability + pipeline health.
    pub runtime: RuntimeSnapshot,
    /// Commit-to-queryable staleness histograms + slowest-commit traces.
    pub staleness: StalenessSnapshot,
    /// Recent trace events (bounded).
    pub trace: Vec<TraceEvent>,
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "transport: records_shipped={} bytes_shipped={} heartbeats={} queue_depth={} \
             gaps_detected={} gaps_resolved={} retransmits={} naks_sent={} dups_dropped={} \
             reconnects={}",
            self.transport.records_shipped,
            self.transport.bytes_shipped,
            self.transport.heartbeats,
            self.transport.queue_depth,
            self.transport.gaps_detected,
            self.transport.gaps_resolved,
            self.transport.retransmits,
            self.transport.naks_sent,
            self.transport.duplicates_dropped,
            self.transport.reconnects,
        )?;
        writeln!(
            f,
            "merger: records_merged={} held_back={} watermark={} stream_skew={}",
            self.merger.records_merged,
            self.merger.held_back,
            self.merger.watermark,
            self.merger.stream_skew,
        )?;
        writeln!(
            f,
            "apply: query_scn={} applied_scn={} apply_lag={} items_applied={} worker_cvs={:?}",
            self.apply.query_scn,
            self.apply.applied_scn,
            self.apply.apply_lag,
            self.apply.items_applied,
            self.apply.worker_cvs,
        )?;
        writeln!(
            f,
            "mining: sniffed={} mined={} commits={} aborts={}",
            self.mining.sniffed, self.mining.mined, self.mining.commits, self.mining.aborts,
        )?;
        writeln!(
            f,
            "journal: journal_txns={} journal_records={} bucket_contention={}",
            self.journal.journal_txns, self.journal.journal_records, self.journal.bucket_contention,
        )?;
        writeln!(
            f,
            "commit_table: commit_table_pending={} inserts={} chops={} mean_chop={:.1}",
            self.commit_table.commit_table_pending,
            self.commit_table.inserts,
            self.commit_table.chops,
            self.commit_table.chop_size.mean(),
        )?;
        writeln!(
            f,
            "flush: advances={} flushed_records={} coarse_invalidations={} coop_flushed={} \
             coordinator_flushed={} quiesce_p95_us={}",
            self.flush.advances,
            self.flush.flushed_records,
            self.flush.coarse_invalidations,
            self.flush.coop_flushed,
            self.flush.coordinator_flushed,
            self.flush.quiesce_us.quantile(0.95),
        )?;
        writeln!(
            f,
            "durability: fsyncs={} records_persisted={} durable_seq={} segments_archived={} \
             archive_retransmits={} replayed_records={}",
            self.durability.fsyncs,
            self.durability.records_persisted,
            self.durability.durable_seq,
            self.durability.segments_archived,
            self.durability.archive_retransmits,
            self.durability.replayed_records,
        )?;
        writeln!(
            f,
            "population: populated_rows={} imcus_built={} imcus_repopulated={} \
             columns_shared={} columns_encoded={}",
            self.population.populated_rows,
            self.population.imcus_built,
            self.population.imcus_repopulated,
            self.population.columns_shared,
            self.population.columns_encoded,
        )?;
        writeln!(
            f,
            "tier: evictions={} recalls={} recompactions={} pruned_units={} cold_reads={} \
             bytes_on_disk={} cold_units={}",
            self.tier.tier_evictions,
            self.tier.tier_recalls,
            self.tier.tier_recompactions,
            self.tier.tier_pruned_units,
            self.tier.tier_cold_reads,
            self.tier.tier_bytes_on_disk,
            self.tier.cold_units,
        )?;
        writeln!(
            f,
            "scan: queries={} imcs_served={} row_store_fallback={} pruned_units={} \
             latency_p95_us={}",
            self.scan.queries,
            self.scan.imcs_served,
            self.scan.row_store_fallback,
            self.scan.pruned_units,
            self.scan.latency_us.quantile(0.95),
        )?;
        writeln!(
            f,
            "staleness: e2e_count={} e2e_p50_us={} e2e_p99_us={} e2e_max_us={} inflight_traces={}",
            self.staleness.e2e.count,
            self.staleness.e2e.p50(),
            self.staleness.e2e.p99(),
            self.staleness.e2e.max,
            self.staleness.slowest.len(),
        )?;
        let health = match &self.runtime.failure {
            None => "ok".to_string(),
            Some(fail) => format!("FAILED[{}]: {}", fail.stage, fail.reason),
        };
        write!(f, "runtime: health={health} stalls={}", self.runtime.stalls.len())?;
        for w in &self.runtime.stalls {
            write!(
                f,
                "\n  STALLED[{}]: idle for {} quanta with input pending",
                w.stage, w.idle_quanta
            )?;
        }
        for s in &self.runtime.stages {
            write!(
                f,
                "\n  stage {}: runs={} wakeups={} parks={} park_p95_us={} quantum_p95_us={}",
                s.stage,
                s.runs,
                s.wakeups,
                s.parks,
                s.park_us.quantile(0.95),
                s.run_quantum_us.quantile(0.95),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_atomicu64_compatible() {
        let c = Counter::new();
        // The exact call shapes mining/flush call sites use.
        c.fetch_add(1, Ordering::Relaxed);
        c.fetch_add(4, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 5);
        c.inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn gauge_set_and_max() {
        let g = Gauge::new();
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_buckets_values() {
        let h = Histogram::new();
        h.record_value(0); // bucket 0
        h.record_value(1); // bucket 1
        h.record_value(2); // bucket 2
        h.record_value(3); // bucket 2
        h.record_value(1000); // bucket 10
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[10], 1);
        assert!((s.mean() - 201.2).abs() < 1e-9);
        assert_eq!(s.quantile(1.0), 1000, "max caps the overflowy bound");
        assert_eq!(s.quantile(0.2), 0);
    }

    #[test]
    fn histogram_records_durations_as_micros() {
        let h = Histogram::new();
        h.record(Duration::from_millis(3));
        assert_eq!(h.snapshot().sum, 3000);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let t = PipelineTrace::new(3);
        for i in 0..5u64 {
            t.record(TraceStage::Advance, i, format!("advance {i}"));
        }
        let events = t.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2, "oldest two dropped");
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.recorded(), 5);
    }

    #[test]
    fn per_worker_counters_grow() {
        let a = ApplyMetrics::default();
        a.worker_counter(2).add(7);
        a.worker_counter(0).add(1);
        assert_eq!(a.snapshot().worker_cvs, vec![1, 0, 7]);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = MetricsRegistry::default();
        reg.transport.records_shipped.add(10);
        reg.transport.bytes_shipped.add(4096);
        reg.transport.gaps_detected.add(3);
        reg.transport.gaps_resolved.add(3);
        reg.transport.retransmits.add(2);
        reg.merger.records_merged.add(10);
        reg.apply.records_dispatched.add(10);
        reg.apply.worker_counter(1).add(6);
        reg.mining.mined.add(4);
        reg.journal.journal_txns.set(2);
        reg.commit_table.chop_size.record_value(8);
        reg.flush.quiesce_us.record(Duration::from_micros(120));
        reg.durability.fsyncs.add(2);
        reg.durability.durable_seq.set(9);
        reg.population.imcus_built.add(3);
        reg.scan.latency_us.record(Duration::from_micros(50));
        reg.trace.record(TraceStage::Advance, 42, "publish");
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.transport.records_shipped, 10);
        assert_eq!(back.transport.gaps_detected, 3);
        assert_eq!(back.transport.retransmits, 2);
        assert!(snap.to_string().contains("gaps_detected=3"));
        assert_eq!(back.apply.worker_cvs, vec![0, 6]);
        assert_eq!(back.trace[0].stage, TraceStage::Advance);
        // Display covers every stage line.
        let text = snap.to_string();
        for needle in [
            "transport:",
            "merger:",
            "apply:",
            "mining:",
            "journal:",
            "commit_table:",
            "flush:",
            "durability:",
            "population:",
            "scan:",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn flush_snapshot_splits_coop_vs_coordinator() {
        let m = FlushMetrics::default();
        m.flushed_txns.add(10);
        m.coop_flushed.add(4);
        let s = m.snapshot();
        assert_eq!(s.coop_flushed, 4);
        assert_eq!(s.coordinator_flushed, 6);
    }

    #[test]
    fn log_histogram_bucket_layout() {
        // Identity below 2^SUB_BITS.
        for v in 0..8u64 {
            assert_eq!(LogHistogram::bucket_index(v), v as usize);
        }
        assert_eq!(LogHistogram::bucket_index(8), 8);
        assert_eq!(LogHistogram::bucket_index(15), 15);
        assert_eq!(LogHistogram::bucket_index(16), 16);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), LOG_HISTOGRAM_BUCKETS - 1);
        // Every bucket's bounds invert the index function.
        for i in 0..LOG_HISTOGRAM_BUCKETS {
            let lo = LogHistogram::bucket_lower(i);
            assert_eq!(LogHistogram::bucket_index(lo), i, "lower bound of {i}");
            let hi = LogHistogram::bucket_bound(i);
            assert_eq!(LogHistogram::bucket_index(hi), i, "upper bound of {i}");
        }
        // Sub-buckets bound relative error at 2^-SUB_BITS.
        for v in [100u64, 1_000, 65_537, 1 << 40] {
            let i = LogHistogram::bucket_index(v);
            let width = LogHistogram::bucket_bound(i) - LogHistogram::bucket_lower(i) + 1;
            assert!(width as f64 / v as f64 <= 0.125 + 1e-9, "v={v} width={width}");
        }
    }

    #[test]
    fn log_histogram_quantiles_and_merge() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record_value(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.p50();
        assert!((450..=562).contains(&p50), "p50={p50} should be within 12.5% of 500");
        let p99 = s.p99();
        assert!((980..=1000).contains(&p99), "p99={p99}");
        assert_eq!(s.quantile(1.0), 1000, "max caps the last bucket bound");

        // Merging two snapshots equals recording both streams into one.
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let both = LogHistogram::new();
        for v in [3u64, 17, 900, 70_000] {
            a.record_value(v);
            both.record_value(v);
        }
        for v in [5u64, 17, 1 << 30] {
            b.record_value(v);
            both.record_value(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn log_histogram_snapshot_round_trips_sparse() {
        let h = LogHistogram::new();
        h.record_value(7);
        h.record_value(12_345);
        let s = h.snapshot();
        assert_eq!(s.buckets.len(), 2, "sparse: only occupied buckets serialize");
        let json = serde_json::to_string(&s).unwrap();
        let back: LogHistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn staleness_tracker_settles_stage_residencies() {
        use std::sync::atomic::AtomicU64;
        let ticks = Arc::new(AtomicU64::new(0));
        let clock = Clock::Manual(ticks.clone());
        let t = StalenessTracker::default();
        t.set_clock(clock);

        // SCN 5 born at t=0, received t=10, merged t=13, applied t=20,
        // flush done t=30, published t=32.
        ticks.store(10, Ordering::SeqCst);
        t.on_receive(5, 0);
        ticks.store(13, Ordering::SeqCst);
        t.on_merge(5);
        ticks.store(20, Ordering::SeqCst);
        t.on_apply(5);
        assert_eq!(t.inflight(), 1);
        t.on_advance(5, 30, 32);
        assert_eq!(t.inflight(), 0);

        let s = t.snapshot();
        assert_eq!(s.receive.count, 1);
        assert_eq!(s.receive.max, 10);
        assert_eq!(s.merge.max, 3);
        assert_eq!(s.apply.max, 7);
        assert_eq!(s.flush.max, 10);
        assert_eq!(s.publish.max, 2);
        assert_eq!(s.e2e.count, 1);
        assert_eq!(s.e2e.max, 32);
        assert_eq!(s.slowest.len(), 1);
        let tr = s.slowest[0];
        assert_eq!(tr.scn, 5);
        assert_eq!(
            tr.transit_us + tr.merge_wait_us + tr.apply_us + tr.flush_us + tr.publish_us,
            tr.e2e_us,
            "stage residencies partition the end-to-end staleness"
        );
    }

    #[test]
    fn staleness_duplicates_and_slowest_ring() {
        use std::sync::atomic::AtomicU64;
        let ticks = Arc::new(AtomicU64::new(0));
        let t = StalenessTracker::default();
        t.set_clock(Clock::Manual(ticks.clone()));
        // Duplicate delivery keeps the first stamps.
        ticks.store(10, Ordering::SeqCst);
        t.on_receive(1, 0);
        ticks.store(50, Ordering::SeqCst);
        t.on_receive(1, 0);
        t.on_merge(1);
        t.on_apply(1);
        t.on_advance(1, 50, 50);
        let s = t.snapshot();
        assert_eq!(s.receive.count, 2, "both deliveries observed in receive");
        assert_eq!(s.e2e.count, 1, "but the commit settles once");
        assert_eq!(s.slowest[0].transit_us, 10, "first delivery's stamp wins");

        // Slowest ring keeps the worst STALENESS_SLOWEST_CAP, sorted desc.
        let t2 = StalenessTracker::default();
        let ticks2 = Arc::new(AtomicU64::new(0));
        t2.set_clock(Clock::Manual(ticks2.clone()));
        for scn in 1..=40u64 {
            ticks2.store(scn * 100, Ordering::SeqCst);
            t2.on_receive(scn, scn * 100 - scn); // e2e grows with scn
            t2.on_merge(scn);
            t2.on_apply(scn);
            t2.on_advance(scn, scn * 100, scn * 100);
        }
        let s2 = t2.snapshot();
        assert_eq!(s2.e2e.count, 40);
        assert_eq!(s2.slowest.len(), STALENESS_SLOWEST_CAP);
        assert_eq!(s2.slowest[0].scn, 40, "worst commit first");
        assert!(s2.slowest.windows(2).all(|w| w[0].e2e_us >= w[1].e2e_us));
    }

    #[test]
    fn staleness_advance_settles_all_at_or_below_target() {
        use std::sync::atomic::AtomicU64;
        let ticks = Arc::new(AtomicU64::new(0));
        let t = StalenessTracker::default();
        t.set_clock(Clock::Manual(ticks.clone()));
        for scn in [3u64, 5, 9] {
            ticks.store(scn, Ordering::SeqCst);
            t.on_receive(scn, 0);
            t.on_merge(scn);
            t.on_apply(scn);
        }
        t.on_advance(5, 10, 11);
        assert_eq!(t.inflight(), 1, "scn 9 still in flight");
        let s = t.snapshot();
        assert_eq!(s.e2e.count, 2);
        t.on_advance(9, 12, 13);
        assert_eq!(t.inflight(), 0);
        assert_eq!(t.snapshot().e2e.count, 3);
    }
}
