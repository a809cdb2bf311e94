//! Pipeline-wide metrics and tracing.
//!
//! One [`MetricsRegistry`] instance accompanies each deployment side (a
//! primary instance, a standby cluster). Every pipeline stage — redo
//! transport, log merger, recovery apply, mining, journal, commit table,
//! invalidation flush, durability, population, cold tier, scan engine —
//! holds an `Arc` to its stage-metrics struct and updates lock-light
//! primitives on the hot path:
//!
//! * [`Counter`] — a monotonically increasing count (`add`, `inc`, `get`).
//! * [`Gauge`] — a last-value cell, refreshed by sampling (queue depths,
//!   SCNs, table sizes) just before a snapshot is taken.
//! * [`LogHistogram`] — the one distribution type: log-linear buckets with
//!   count/sum/max, for durations (recorded in microseconds) and sizes.
//!
//! Every stage is declared once, in the `stage_metrics!` block below: one
//! line per field names it, gives its [`Metric`] kind and its doc. The
//! macro emits the live struct, its plain-data snapshot (same fields, same
//! order), the `snapshot()` projection, the stage's display line and its
//! [`Record`] walk. The registry itself is declared the same way, so
//! [`MetricsRegistry::snapshot`] yields the [`MetricsSnapshot`] — the
//! single schema shared by `StandbyStatus`, the exporters in
//! [`crate::export`] and `benchmark/`.
//!
//! Export is a walk by declared kind: [`Metric::export`] hands each field
//! to a [`Sink`] as a number, a histogram, a roster, a text label, a group
//! of fields, or an event log. The Prometheus and JSONL writers are the two
//! sinks, so neither infers a kind from a value's shape.
//!
//! [`PipelineTrace`] is a bounded ring of [`TraceEvent`]s recording QuerySCN
//! advancement (and other coarse stage transitions) for post-mortem
//! inspection without unbounded memory growth.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::clock::Clock;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// What a stage field records into, and the plain data it projects to in a
/// snapshot.
pub trait Metric {
    /// The plain-data projection.
    type Snapshot: fmt::Debug;

    /// Project to plain data.
    fn snapshot(&self) -> Self::Snapshot;

    /// Write `s` into a display line: one ` name=value` item for a leaf, a
    /// whole `name: ...` line for a stage.
    fn show(s: &Self::Snapshot, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, " {name}={s:?}")
    }

    /// Hand `s` to `sink` as field `name`, by this metric's kind.
    fn export(s: &Self::Snapshot, name: &str, sink: &mut dyn Sink);
}

/// A writer the snapshot walk feeds, one call per field. The Prometheus
/// sink turns numbers and histograms into series and skips the rest; the
/// JSON sink keeps every field.
pub trait Sink {
    /// A counter, gauge or derived value.
    fn number(&mut self, name: &str, v: u64);
    /// A distribution.
    fn histogram(&mut self, name: &str, h: &LogHistogramSnapshot);
    /// A per-worker roster of counts (not a series).
    fn roster(&mut self, name: &str, v: &[u64]);
    /// A text label (not a series).
    fn text(&mut self, name: &str, v: &str);
    /// A stage: `fields` nested under `name`.
    fn group(&mut self, name: &str, fields: &dyn Record);
    /// One group per `(value, fields)` item under the one `name`, each
    /// told apart by `label="value"`.
    fn groups(&mut self, name: &str, label: &str, items: &[(&str, &dyn Record)]);
    /// An optional event (not a series): `None` is `null`.
    fn event(&mut self, name: &str, event: Option<&dyn Record>);
    /// An event log (not a series).
    fn events(&mut self, name: &str, events: &[&dyn Record]);
}

/// A plain value the exporters write as one object: its fields, in order.
pub trait Record {
    /// Hand each field to `sink`.
    fn fields(&self, sink: &mut dyn Sink);
}

/// `items` as the records an event log takes.
fn records<T: Record>(items: &[T]) -> Vec<&dyn Record> {
    items.iter().map(|r| r as &dyn Record).collect()
}

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
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

impl Metric for Counter {
    type Snapshot = u64;
    fn snapshot(&self) -> u64 {
        self.get()
    }
    fn export(s: &u64, name: &str, sink: &mut dyn Sink) {
        sink.number(name, *s)
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
}

impl Metric for Gauge {
    type Snapshot = u64;
    fn snapshot(&self) -> u64 {
        self.get()
    }
    fn export(s: &u64, name: &str, sink: &mut dyn Sink) {
        sink.number(name, *s)
    }
}

/// A roster of counters indexed by worker, grown on first use.
#[derive(Debug, Default)]
pub struct CounterRoster(Mutex<Vec<Arc<Counter>>>);

impl CounterRoster {
    /// Counter `i`, growing the roster to hold it.
    pub fn counter(&self, i: usize) -> Arc<Counter> {
        let mut v = self.0.lock();
        while v.len() <= i {
            v.push(Arc::new(Counter::new()));
        }
        v[i].clone()
    }
}

impl Metric for CounterRoster {
    type Snapshot = Vec<u64>;
    fn snapshot(&self) -> Vec<u64> {
        self.0.lock().iter().map(|c| c.get()).collect()
    }
    fn export(s: &Vec<u64>, name: &str, sink: &mut dyn Sink) {
        sink.roster(name, s)
    }
}

/// A snapshot-only field: the live struct stores nothing, and the snapshot
/// reads 0 unless the field's declaration derives it from other leaves.
#[derive(Debug, Default)]
pub struct Derived;

impl Metric for Derived {
    type Snapshot = u64;
    fn snapshot(&self) -> u64 {
        0
    }
    fn export(s: &u64, name: &str, sink: &mut dyn Sink) {
        sink.number(name, *s)
    }
}

/// A fixed label (a stage's name), set when the struct is built.
impl Metric for String {
    type Snapshot = String;
    fn snapshot(&self) -> String {
        self.clone()
    }
    fn export(s: &String, name: &str, sink: &mut dyn Sink) {
        sink.text(name, s)
    }
}

/// A shared stage projects and shows as the stage itself.
impl<T: Metric> Metric for Arc<T> {
    type Snapshot = T::Snapshot;
    fn snapshot(&self) -> T::Snapshot {
        (**self).snapshot()
    }
    fn show(s: &T::Snapshot, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        T::show(s, name, f)
    }
    fn export(s: &T::Snapshot, name: &str, sink: &mut dyn Sink) {
        T::export(s, name, sink)
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
/// Pure power-of-two buckets would bound quantiles only to within 2×; this
/// type keeps 8 linear sub-buckets per octave — accurate enough to report
/// p50/p90/p99 latencies — while still recording with a single relaxed
/// atomic increment and no allocation. Snapshots are sparse (only occupied
/// buckets) and mergeable across instances or sessions.
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogBucket {
    /// Bucket index (see [`LogHistogram`] bucket layout).
    pub index: u32,
    /// Samples in the bucket.
    pub count: u64,
}

/// Sparse plain-data projection of a [`LogHistogram`]. Mergeable: summing
/// two snapshots bucket-by-bucket equals recording both sample streams
/// into one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

impl Metric for LogHistogram {
    type Snapshot = LogHistogramSnapshot;
    fn snapshot(&self) -> LogHistogramSnapshot {
        LogHistogram::snapshot(self)
    }
    fn show(s: &LogHistogramSnapshot, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, " {name}_p95={}", s.quantile(0.95))
    }
    fn export(s: &LogHistogramSnapshot, name: &str, sink: &mut dyn Sink) {
        sink.histogram(name, s)
    }
}

// ---------------------------------------------------------------------------
// Stage metrics
// ---------------------------------------------------------------------------

/// One snapshot field: a derived field's value computed from the live
/// struct `m`, or else the projection of the field's own [`Metric`].
macro_rules! leaf {
    ($this:expr, $field:ident) => {
        Metric::snapshot(&$this.$field)
    };
    ($this:expr, $field:ident, |$m:ident| $derive:expr) => {{
        let $m = $this;
        $derive
    }};
}

/// Declares each stage once. A field line gives its name, its [`Metric`]
/// kind and its doc; a [`Derived`] field may append `=> |m| expr` to
/// compute its value from the live struct `m`. For every stage this emits
/// the live struct, the plain-data snapshot struct (same fields, same
/// order), the `snapshot()` projection, a [`Metric`] impl that shows the
/// stage as one `name: field=value ...` line and exports it as a group,
/// and the snapshot's [`Record`] walk over its fields in declaration order.
macro_rules! stage_metrics {
    ($(
        $(#[$meta:meta])*
        $metrics:ident => $snapshot:ident {
            $($field:ident: $kind:ty = $doc:literal $(=> |$m:ident| $derive:expr)?,)*
        }
    )*) => {$(
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $metrics {
            $(#[doc = $doc] pub $field: $kind,)*
        }

        #[doc = concat!("Plain-data projection of [`", stringify!($metrics), "`].")]
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $snapshot {
            $(#[doc = $doc] pub $field: <$kind as Metric>::Snapshot,)*
        }

        impl $metrics {
            /// Project to plain data.
            pub fn snapshot(&self) -> $snapshot {
                $snapshot { $($field: leaf!(self, $field $(, |$m| $derive)?),)* }
            }
        }

        impl Metric for $metrics {
            type Snapshot = $snapshot;
            fn snapshot(&self) -> $snapshot {
                $metrics::snapshot(self)
            }
            fn show(s: &$snapshot, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                writeln!(f, "{name}:{s}")
            }
            fn export(s: &$snapshot, name: &str, sink: &mut dyn Sink) {
                sink.group(name, s)
            }
        }

        impl Record for $snapshot {
            fn fields(&self, sink: &mut dyn Sink) {
                $(<$kind as Metric>::export(&self.$field, stringify!($field), sink);)*
            }
        }

        impl fmt::Display for $snapshot {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                $(<$kind as Metric>::show(&self.$field, stringify!($field), f)?;)*
                Ok(())
            }
        }
    )*};
}

stage_metrics! {
    /// Redo transport. The primary side updates the shipping counters; on a
    /// framed/TCP link the standby side updates the gap-resolution ones and
    /// the primary side those of link maintenance. Each side counts into its
    /// own registry.
    TransportMetrics => TransportSnapshot {
        records_shipped: Counter = "Data records shipped to the standby (idle SCN pings excluded).",
        bytes_shipped: Counter = "Approximate wire bytes shipped (data records).",
        heartbeats: Counter = "SCN heartbeats shipped on idle redo threads.",
        batches_shipped: Counter = "Batches handed to the link.",
        queue_depth: Gauge = "Records still buffered in the log buffer (sampled).",
        frames_sent: Counter = "Wire frames sent on a framed link (data + control).",
        frames_received: Counter = "Wire frames received on a framed link (data + control).",
        gaps_detected: Counter = "Sequence gaps detected by the receiver (one per missing frame).",
        gaps_resolved: Counter = "Gaps closed by a retransmitted frame arriving.",
        retransmits: Counter = "Data frames retransmitted (served or received, per side).",
        naks_sent: Counter = "NAK frames sent by the receiver to request retransmission.",
        duplicates_dropped: Counter = "Duplicate data frames the receiver dropped (exactly-once).",
        reconnects: Counter = "Link reconnects (TCP backoff cycles, injected disconnects).",
        link_pings: Counter = "Link-level liveness pings sent while the sender awaits ACKs.",
    }

    /// Standby log merger.
    MergerMetrics => MergerSnapshot {
        merge_batches: Counter = "Batches pushed into the merger.",
        records_merged: Counter = "Data records released in global SCN order.",
        heartbeats_seen: Counter = "Heartbeats swallowed (they only advance the merge point).",
        held_back: Gauge = "Records buffered awaiting the merge point (sampled).",
        watermark: Gauge = "The merge watermark SCN (sampled).",
        stream_skew: Gauge = "Max spread between stream last-seen SCNs (sampled): RAC skew.",
    }

    /// Recovery apply (dispatcher + workers + coordinator progress).
    ApplyMetrics => ApplySnapshot {
        records_dispatched: Counter = "Data records handed to the dispatcher (= records merged).",
        items_applied: Counter = "Work items applied by workers (CVs fan out per record).",
        worker_cvs: CounterRoster = "CVs applied, per worker (the Fig. 3 parallelism split).",
        applied_scn: Gauge = "SCN applied through by every worker (sampled).",
        shipped_scn: Gauge = "Highest SCN seen from any redo stream (sampled).",
        apply_lag: Gauge = "Apply lag: shipped SCN minus applied SCN (sampled).",
        query_scn: Gauge = "The published QuerySCN (sampled; 0 before the first publish).",
    }

    /// Mining component (paper §III.B).
    MiningMetrics => MiningSnapshot {
        sniffed: Counter = "CVs inspected.",
        mined: Counter = "Invalidation records buffered.",
        commits: Counter = "Commit-table nodes created.",
        aborts: Counter = "Aborted transactions discarded from the journal.",
        markers: Counter = "DDL markers buffered.",
        abort_discarded_records: Counter = "Invalidation records dropped with aborted txns.",
    }

    /// IM-ADG Journal (paper §III.C).
    JournalMetrics => JournalSnapshot {
        anchors_created: Counter = "Anchor nodes created.",
        bucket_contention: Counter = "Bucket-latch lock acquisitions that had to wait.",
        journal_txns: Gauge = "Open transactions anchored (sampled).",
        journal_records: Gauge = "Buffered invalidation records (sampled).",
    }

    /// IM-ADG Commit Table (paper §III.D.1).
    CommitTableMetrics => CommitTableSnapshot {
        inserts: Counter = "Nodes inserted.",
        chops: Counter = "Chop operations (one per QuerySCN advancement with pending work).",
        chopped_txns: Counter = "Nodes moved onto worklinks by chop operations.",
        chop_size: LogHistogram = "Distribution of chop sizes (nodes per chop).",
        commit_table_pending: Gauge = "Nodes awaiting the next advancement (sampled).",
    }

    /// Invalidation flush + QuerySCN advancement (paper §III.D).
    FlushMetrics => FlushSnapshot {
        flushed_txns: Counter = "Transactions flushed off worklinks.",
        flushed_records: Counter = "Invalidation records flushed to SMUs.",
        coarse_invalidations: Counter = "Coarse (per-tenant) invalidations triggered.",
        ddl_applied: Counter = "DDL redo records processed at advancement.",
        coop_flushed: Counter = "Worklink nodes flushed by cooperating recovery workers.",
        coordinator_flushed: Derived = "Worklink nodes flushed by the coordinator itself."
            => |m| m.flushed_txns.get().saturating_sub(m.coop_flushed.get()),
        flush_groups: Counter = "Per-object invalidation groups delivered to the flush target.",
        advances: Counter = "Successful QuerySCN advancements.",
        quiesce_us: LogHistogram = "Quiesce-period duration per advancement (µs).",
        published_query_scn: Gauge = "The published QuerySCN (sampled; 0 when none yet).",
        scn_gap: Gauge = "Primary SCN minus the published QuerySCN (sampled): the lag signal.",
    }

    /// Redo durability: the on-disk segmented log (group commit + archiver)
    /// and restart replay. The primary counts its log writes, syncs and
    /// archive-served retransmissions; the standby also counts replay.
    DurabilityMetrics => DurabilitySnapshot {
        appends: Counter = "Batches appended to the durable log (buffered for group commit).",
        records_persisted: Counter = "Records written and fsynced to segments.",
        bytes_persisted: Counter = "Bytes written and fsynced to segments.",
        fsyncs: Counter = "fsync calls: one per group commit of a stage quantum.",
        segments_sealed: Counter = "Active segments sealed after exceeding the size bound.",
        segments_archived: Counter = "Sealed segments moved to the archive tier by the archiver.",
        archive_retransmits: Counter = "NAKs served from disk (sequence past the retained window).",
        replayed_batches: Counter = "Batches replayed from disk during a hard restart.",
        replayed_records: Counter = "Records replayed from disk during a hard restart.",
        mining_skipped: Derived = "Always 0: restart re-mines the log. The benchmark reads it.",
        durable_seq: Gauge = "Highest sequence fsynced to disk (sampled).",
        wal_segments: Gauge = "Segment files in the wal tier (sampled).",
        archived_segments: Gauge = "Segment files in the archive tier (sampled).",
    }

    /// Population engine (paper §III.A).
    PopulationMetrics => PopulationSnapshot {
        imcus_built: Counter = "New IMCUs built.",
        imcus_repopulated: Counter = "Stale IMCUs rebuilt.",
        columns_shared: Counter = "Encoded columns a repopulation kept from the unit it replaced.",
        columns_encoded: Counter = "Encoded columns a repopulation re-encoded.",
        passes: Counter = "Population passes run.",
        populated_rows: Gauge = "Rows populated across column stores (sampled).",
    }

    /// Cold columnar tier: eviction, recall, re-compaction, and cold-unit
    /// scan activity.
    TierMetrics => TierSnapshot {
        tier_evictions: Counter = "Hot IMCUs evicted to the on-disk columnar tier.",
        tier_recalls: Counter = "Cold units recalled back into DRAM.",
        tier_recompactions: Counter = "Cold units re-compacted (journal rows merged into a file).",
        tier_pruned_units: Counter = "Cold units excluded by footer min/max without any file I/O.",
        tier_cold_reads: Counter = "Cold units served by decoding their columnar file.",
        tier_read_errors: Counter = "Cold files that failed CRC/decode and fell back to the rows.",
        tier_bytes_on_disk: Gauge = "Bytes held by the cold tier on disk (sampled).",
        cold_units: Gauge = "Cold unit count (sampled).",
    }

    /// The In-Memory Scan Engine as seen by the query API.
    ScanEngineMetrics => ScanEngineSnapshot {
        queries: Counter = "Queries executed through the unified query API.",
        imcs_served: Counter = "Queries served by the IMCS.",
        row_store_fallback: Counter = "Queries that fell back to a pure row-store scan.",
        imcu_rows: Counter = "Result rows served from encoded IMCU data.",
        fallback_rows: Counter = "Result rows served via SMU fallback.",
        uncovered_rows: Counter = "Result rows served from uncovered blocks.",
        pruned_units: Counter = "Units skipped by the min/max storage index.",
        scanned_units: Counter = "Units whose columns were scanned.",
        parallel_tasks: Counter = "Per-unit scan tasks issued to the query-scoped worker pool.",
        parallel_queries: Counter = "Queries executed with a parallel degree > 1.",
        latency_us: LogHistogram = "Query latency distribution (µs).",
    }

    /// Scheduler-side metrics for one registered stage: how often it ran, how
    /// long each run quantum took, and how it parked/woke. Stage names align
    /// with the registry's stages (`transport`, `merger`, `apply.N`, `flush`,
    /// `population.N`, …), so these land next to the stage's own counters.
    StageRuntimeMetrics => StageRuntimeSnapshot {
        stage: String = "Stage name.",
        runs: Counter = "Run quanta executed.",
        wakeups: Counter = "Explicit wakeups received while parked (vs park-hint timeouts).",
        parks: Counter = "Times the stage parked idle.",
        park_us: LogHistogram = "Time spent parked, per park (µs).",
        run_quantum_us: LogHistogram = "Run-quantum duration (µs).",
    }

    /// The per-deployment-side metrics registry: one `Arc`'d stage-metrics
    /// struct per pipeline stage, plus the trace ring. Components receive
    /// their stage handle at construction and update it lock-light; gauges
    /// are refreshed by the owner just before [`MetricsRegistry::snapshot`],
    /// whose [`MetricsSnapshot`] is the one schema shared by
    /// `StandbyStatus`, the exporters and `benchmark/`.
    MetricsRegistry => MetricsSnapshot {
        transport: Arc<TransportMetrics> = "Redo transport.",
        merger: Arc<MergerMetrics> = "Log merger.",
        apply: Arc<ApplyMetrics> = "Recovery apply.",
        mining: Arc<MiningMetrics> = "Mining component.",
        journal: Arc<JournalMetrics> = "IM-ADG Journal.",
        commit_table: Arc<CommitTableMetrics> = "IM-ADG Commit Table.",
        flush: Arc<FlushMetrics> = "Invalidation flush + advancement.",
        durability: Arc<DurabilityMetrics> = "Redo durability (on-disk log, restart replay).",
        population: Arc<PopulationMetrics> = "Population engine.",
        tier: Arc<TierMetrics> = "Cold columnar tier.",
        scan: Arc<ScanEngineMetrics> = "Scan engine / query API.",
        runtime: Arc<RuntimeMetrics> = "Scheduler observability + pipeline health.",
        staleness: Arc<StalenessTracker> = "Commit-to-queryable staleness tracking.",
        trace: PipelineTrace = "Recent trace events (bounded ring).",
    }
}

impl MetricsRegistry {
    /// A fresh registry with the given trace capacity.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        MetricsRegistry { trace: PipelineTrace::new(capacity), ..Default::default() }
    }
}

// ---------------------------------------------------------------------------
// Runtime (scheduler) observability
// ---------------------------------------------------------------------------

/// Runtime-wide observability for one deployment side: the per-stage
/// scheduler metrics roster plus the pipeline health cell the schedulers
/// write failures into.
#[derive(Debug, Default)]
pub struct RuntimeMetrics {
    stages: Mutex<Vec<Arc<StageRuntimeMetrics>>>,
    /// Pipeline health; `Failed` once any stage errors or panics.
    pub health: Arc<crate::runtime::HealthState>,
}

impl RuntimeMetrics {
    /// The scheduler-metrics handle for stage `name`, creating it on first
    /// use. Re-registering a stage (runtime rebuilt between sessions) returns
    /// the same handle so counters accumulate per side, not per run.
    pub fn stage(&self, name: &str) -> Arc<StageRuntimeMetrics> {
        let mut v = self.stages.lock();
        if let Some(m) = v.iter().find(|m| m.stage == name) {
            return m.clone();
        }
        let m = Arc::new(StageRuntimeMetrics { stage: name.to_string(), ..Default::default() });
        v.push(m.clone());
        m
    }

    /// Project to plain data.
    pub fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            failure: self.health.get().failure().cloned(),
            stalls: self.health.stalls(),
            stages: self.stages.lock().iter().map(|m| m.snapshot()).collect(),
        }
    }
}

impl Metric for RuntimeMetrics {
    type Snapshot = RuntimeSnapshot;
    fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeMetrics::snapshot(self)
    }
    fn show(s: &RuntimeSnapshot, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let health = match &s.failure {
            None => "ok".to_string(),
            Some(fail) => format!("FAILED[{}]: {}", fail.stage, fail.reason),
        };
        writeln!(f, "{name}: health={health} stalls={}", s.stalls.len())?;
        for w in &s.stalls {
            writeln!(
                f,
                "  STALLED[{}]: idle for {} quanta with input pending",
                w.stage, w.idle_quanta
            )?;
        }
        for stage in &s.stages {
            writeln!(f, " {stage}")?;
        }
        Ok(())
    }
    fn export(s: &RuntimeSnapshot, name: &str, sink: &mut dyn Sink) {
        sink.group(name, s)
    }
}

/// Plain-data projection of [`RuntimeMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// The failure and stalls are events; each scheduler stage is one group,
/// labelled `stage="<name>"`.
impl Record for RuntimeSnapshot {
    fn fields(&self, sink: &mut dyn Sink) {
        sink.event("failure", self.failure.as_ref().map(|f| f as &dyn Record));
        sink.events("stalls", &records(&self.stalls));
        let stages: Vec<(&str, &dyn Record)> =
            self.stages.iter().map(|s| (s.stage.as_str(), s as &dyn Record)).collect();
        sink.groups("stages", "stage", &stages);
    }
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Which pipeline stage emitted a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl Record for TraceEvent {
    fn fields(&self, sink: &mut dyn Sink) {
        sink.number("seq", self.seq);
        // A unit variant's `Debug` is its name.
        sink.text("stage", &format!("{:?}", self.stage));
        sink.number("scn", self.scn);
        sink.text("detail", &self.detail);
    }
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

impl Metric for PipelineTrace {
    type Snapshot = Vec<TraceEvent>;
    fn snapshot(&self) -> Vec<TraceEvent> {
        self.events()
    }
    /// Trace events are a log: they stay out of the display lines.
    fn show(_: &Vec<TraceEvent>, _: &str, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        Ok(())
    }
    fn export(s: &Vec<TraceEvent>, name: &str, sink: &mut dyn Sink) {
        sink.events(name, &records(s))
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
/// slowest commit records so a laggard can be explained stage by stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

impl Record for ScnTrace {
    fn fields(&self, sink: &mut dyn Sink) {
        sink.number("scn", self.scn);
        sink.number("transit_us", self.transit_us);
        sink.number("merge_wait_us", self.merge_wait_us);
        sink.number("apply_us", self.apply_us);
        sink.number("flush_us", self.flush_us);
        sink.number("publish_us", self.publish_us);
        sink.number("e2e_us", self.e2e_us);
    }
}

/// Bound on tracked in-flight commit records; beyond it the oldest is evicted so
/// a stalled standby cannot grow the map without limit.
const STALENESS_INFLIGHT_CAP: usize = 65_536;

/// How many slowest-commit traces the ring retains.
pub const STALENESS_SLOWEST_CAP: usize = 16;

/// Tracks commit-record latency through the pipeline: per-stage residency
/// histograms plus the end-to-end commit-to-queryable staleness histogram
/// (the paper's Fig. 5 analogue), and a ring of the slowest commit records traced
/// stage by stage.
///
/// All stamps come from the tracker's injectable [`Clock`], so deterministic
/// `Manual`-clock sessions under the `StepScheduler` reproduce bit-identical
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// The slowest traced commit records, worst first.
    pub slowest: Vec<ScnTrace>,
}

impl Record for StalenessSnapshot {
    fn fields(&self, sink: &mut dyn Sink) {
        sink.histogram("ship", &self.ship);
        sink.histogram("receive", &self.receive);
        sink.histogram("merge", &self.merge);
        sink.histogram("apply", &self.apply);
        sink.histogram("flush", &self.flush);
        sink.histogram("publish", &self.publish);
        sink.histogram("e2e", &self.e2e);
        sink.events("slowest", &records(&self.slowest));
    }
}

impl Metric for StalenessTracker {
    type Snapshot = StalenessSnapshot;
    fn snapshot(&self) -> StalenessSnapshot {
        StalenessTracker::snapshot(self)
    }
    fn show(s: &StalenessSnapshot, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e2e = &s.e2e;
        writeln!(
            f,
            "{name}: e2e_count={} e2e_p50_us={} e2e_p99_us={} e2e_max_us={} slowest={}",
            e2e.count,
            e2e.p50(),
            e2e.p99(),
            e2e.max,
            s.slowest.len(),
        )
    }
    fn export(s: &StalenessSnapshot, name: &str, sink: &mut dyn Sink) {
        sink.group(name, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_atomicu64_compatible() {
        // A counter is one relaxed AtomicU64: adds from many threads are
        // never lost.
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                    c.add(4);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4 * 1004);
        assert_eq!(c.snapshot(), c.get());
    }

    #[test]
    fn gauge_set_and_max() {
        // A gauge keeps the last value; the running max of a sampled
        // quantity is a LogHistogram's `max`.
        let g = Gauge::new();
        let h = LogHistogram::new();
        for v in [7u64, 3, 11, 5] {
            g.set(v);
            h.record_value(v);
        }
        assert_eq!(g.get(), 5, "a gauge keeps the last value, not the max");
        assert_eq!(g.snapshot(), 5);
        assert_eq!(h.snapshot().max, 11);
    }

    #[test]
    fn histogram_buckets_values() {
        let h = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 1000] {
            h.record_value(v);
        }
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.max), (5, 1006, 1000));
        // Identity buckets below 2^SUB_BITS; a recorded 0 lands in bucket 0.
        for v in 0..4usize {
            assert_eq!(s.buckets[v], LogBucket { index: v as u32, count: 1 });
        }
        assert_eq!(s.buckets[4].index as usize, LogHistogram::bucket_index(1000));
        assert!((s.mean() - 201.2).abs() < 1e-9);
        assert_eq!(s.quantile(1.0), 1000, "max caps the last bucket bound");
        assert_eq!(s.quantile(0.2), 0);
    }

    #[test]
    fn histogram_records_durations_as_micros() {
        let h = LogHistogram::new();
        h.record(Duration::from_millis(3));
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.max), (1, 3000, 3000));
        assert_eq!(s.quantile(1.0), 3000);
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
        a.worker_cvs.counter(2).add(7);
        a.worker_cvs.counter(0).add(1);
        assert_eq!(a.snapshot().worker_cvs, vec![1, 0, 7]);
    }

    #[test]
    fn snapshot_and_display_cover_every_stage() {
        let reg = MetricsRegistry::default();
        reg.transport.records_shipped.add(10);
        reg.transport.bytes_shipped.add(4096);
        reg.transport.gaps_detected.add(3);
        reg.transport.gaps_resolved.add(3);
        reg.transport.retransmits.add(2);
        reg.merger.records_merged.add(10);
        reg.apply.records_dispatched.add(10);
        reg.apply.worker_cvs.counter(1).add(6);
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
        assert_eq!(snap.transport.records_shipped, 10);
        assert_eq!(snap.transport.gaps_detected, 3);
        assert_eq!(snap.transport.retransmits, 2);
        assert!(snap.to_string().contains("gaps_detected=3"));
        assert_eq!(snap.apply.worker_cvs, vec![0, 6]);
        assert_eq!(snap.trace[0].stage, TraceStage::Advance);
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
            "tier:",
            "scan:",
            "runtime:",
            "staleness:",
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
    fn log_histogram_snapshot_is_sparse() {
        let h = LogHistogram::new();
        h.record_value(7);
        h.record_value(12_345);
        let s = h.snapshot();
        assert_eq!(s.buckets.len(), 2, "sparse: only occupied buckets are kept");
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
