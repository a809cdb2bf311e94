//! Machine-readable metrics exposition.
//!
//! Two formats over the same [`MetricsSnapshot`], each a [`Sink`] that the
//! snapshot's declared walk ([`Record::fields`]) feeds field by field:
//!
//! * **Prometheus text format** ([`prometheus_text`]) — every counter,
//!   gauge and derived value becomes a gauge named by its field path
//!   (`imadg_transport_records_shipped`), and every histogram becomes a
//!   summary with `p50`/`p90`/`p99` quantile series plus
//!   `_count`/`_sum`/`_max`. The runtime's scheduler stages share one
//!   series per field, told apart by a `stage` label. Caller-supplied
//!   labels (typically `role="standby"`) ride on every series. Text
//!   labels, the per-worker roster and event logs are not series and stay
//!   out.
//! * **JSONL** ([`jsonl_line`]) — one self-contained JSON object per line
//!   (`{"role": ..., "metrics": {...}}`) carrying every field in
//!   declaration order, append-friendly for trajectory files and diffable
//!   line by line.
//!
//! A field added to a `stage_metrics!` declaration appears in both formats
//! without touching this module.

use std::collections::BTreeSet;
use std::fmt::Write;

use serde::Content;

use crate::metrics::{LogHistogramSnapshot, MetricsSnapshot, Record, Sink};

/// Quantiles emitted for every histogram summary.
const QUANTILES: [(f64, &str); 3] = [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")];

/// Render `snapshot` in the Prometheus text exposition format. `labels`
/// (name/value pairs, already sane — no quotes or newlines) are attached
/// to every series.
pub fn prometheus_text(snapshot: &MetricsSnapshot, labels: &[(&str, &str)]) -> String {
    let mut p = Prometheus {
        prefix: "imadg".into(),
        labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        out: String::new(),
        typed: BTreeSet::new(),
    };
    snapshot.fields(&mut p);
    p.out
}

/// One JSONL record: `{"role": <role>, "metrics": <snapshot>}`, no
/// embedded newlines.
pub fn jsonl_line(role: &str, snapshot: &MetricsSnapshot) -> String {
    let envelope = Content::Map(vec![
        ("role".to_string(), Content::Str(role.to_string())),
        ("metrics".to_string(), object(snapshot)),
    ]);
    serde_json::to_string(&envelope).expect("metrics snapshot serializes")
}

struct Prometheus {
    /// The series name so far: `imadg`, then `_<field>` per enclosing group.
    prefix: String,
    /// Caller labels, then the enclosing group's `stage` label, if any.
    labels: Vec<(String, String)>,
    out: String,
    /// Metric names that already got their `# TYPE` header (label-split
    /// series share one).
    typed: BTreeSet<String>,
}

impl Prometheus {
    fn type_line(&mut self, name: &str, kind: &str) {
        if self.typed.insert(name.to_string()) {
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
        }
    }

    /// One sample line: `name{labels[,quantile="q"]} value`.
    fn sample(&mut self, name: &str, quantile: Option<&str>, value: f64) {
        self.out.push_str(name);
        let quantile = quantile.map(|q| ("quantile", q));
        let mut sep = '{';
        for (k, v) in self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).chain(quantile) {
            let _ = write!(self.out, "{sep}{k}=\"{v}\"");
            sep = ',';
        }
        if sep == ',' {
            self.out.push('}');
        }
        // u64 counters round-trip exactly through f64 well past any
        // realistic count; format integral values without a fraction.
        if value.fract() == 0.0 && value.abs() < 9.0e15 {
            let _ = writeln!(self.out, " {}", value as i64);
        } else {
            let _ = writeln!(self.out, " {value}");
        }
    }
}

impl Sink for Prometheus {
    fn number(&mut self, name: &str, v: u64) {
        let name = format!("{}_{name}", self.prefix);
        self.type_line(&name, "gauge");
        self.sample(&name, None, v as f64);
    }

    fn histogram(&mut self, name: &str, h: &LogHistogramSnapshot) {
        let name = format!("{}_{name}", self.prefix);
        self.type_line(&name, "summary");
        for (q, tag) in QUANTILES {
            self.sample(&name, Some(tag), h.quantile(q) as f64);
        }
        self.sample(&format!("{name}_count"), None, h.count as f64);
        self.sample(&format!("{name}_sum"), None, h.sum as f64);
        self.sample(&format!("{name}_max"), None, h.max as f64);
    }

    /// Walk `fields` with `_<name>` appended to the series prefix.
    fn group(&mut self, name: &str, fields: &dyn Record) {
        let len = self.prefix.len();
        self.prefix.push('_');
        self.prefix.push_str(name);
        fields.fields(self);
        self.prefix.truncate(len);
    }

    fn groups(&mut self, name: &str, label: &str, items: &[(&str, &dyn Record)]) {
        for (value, fields) in items {
            self.labels.push((label.to_string(), value.to_string()));
            self.group(name, *fields);
            self.labels.pop();
        }
    }

    // Not series: they stay in JSONL only.
    fn roster(&mut self, _: &str, _: &[u64]) {}
    fn text(&mut self, _: &str, _: &str) {}
    fn event(&mut self, _: &str, _: Option<&dyn Record>) {}
    fn events(&mut self, _: &str, _: &[&dyn Record]) {}
}

/// The JSON object of `fields`: the [`Content`] that `serde_json` writes.
fn object(fields: &dyn Record) -> Content {
    let mut json = Json(Vec::new());
    fields.fields(&mut json);
    Content::Map(json.0)
}

/// Collects one object's fields in walk order.
struct Json(Vec<(String, Content)>);

impl Json {
    fn put(&mut self, name: &str, v: Content) {
        self.0.push((name.to_string(), v));
    }
}

impl Sink for Json {
    fn number(&mut self, name: &str, v: u64) {
        self.put(name, Content::U64(v));
    }

    fn histogram(&mut self, name: &str, h: &LogHistogramSnapshot) {
        let field = |k: &str, v: u64| (k.to_string(), Content::U64(v));
        let buckets = h
            .buckets
            .iter()
            .map(|b| Content::Map(vec![field("index", b.index.into()), field("count", b.count)]))
            .collect();
        let summary = vec![
            field("count", h.count),
            field("sum", h.sum),
            field("max", h.max),
            ("buckets".to_string(), Content::Seq(buckets)),
        ];
        self.put(name, Content::Map(summary));
    }

    fn roster(&mut self, name: &str, v: &[u64]) {
        self.put(name, Content::Seq(v.iter().map(|&c| Content::U64(c)).collect()));
    }

    fn text(&mut self, name: &str, v: &str) {
        self.put(name, Content::Str(v.to_string()));
    }

    fn group(&mut self, name: &str, fields: &dyn Record) {
        self.put(name, object(fields));
    }

    fn groups(&mut self, name: &str, _: &str, items: &[(&str, &dyn Record)]) {
        self.put(name, Content::Seq(items.iter().map(|(_, fields)| object(*fields)).collect()));
    }

    fn event(&mut self, name: &str, event: Option<&dyn Record>) {
        self.put(name, event.map_or(Content::Null, object));
    }

    fn events(&mut self, name: &str, events: &[&dyn Record]) {
        self.put(name, Content::Seq(events.iter().map(|e| object(*e)).collect()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use std::time::Duration;

    fn snapshot_with_data() -> MetricsSnapshot {
        let r = MetricsRegistry::default();
        r.transport.records_shipped.add(42);
        r.tier.tier_evictions.add(7);
        r.tier.tier_bytes_on_disk.set(4096);
        r.scan.latency_us.record(Duration::from_micros(250));
        r.staleness.set_clock(crate::Clock::manual());
        r.staleness.on_ship(1, 0);
        r.staleness.on_receive(1, 0);
        r.staleness.on_merge(1);
        r.staleness.on_apply(1);
        r.staleness.on_advance(1, 0, 0);
        r.snapshot()
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let text = prometheus_text(&snapshot_with_data(), &[("role", "standby")]);
        assert!(text.contains("# TYPE imadg_transport_records_shipped gauge"));
        assert!(text.contains("imadg_transport_records_shipped{role=\"standby\"} 42"));
        // Cold-tier counters ride the same generic walk.
        assert!(text.contains("imadg_tier_tier_evictions{role=\"standby\"} 7"));
        assert!(text.contains("imadg_tier_tier_bytes_on_disk{role=\"standby\"} 4096"));
        // Histograms become summaries with quantile series.
        assert!(text.contains("# TYPE imadg_staleness_e2e summary"));
        assert!(text.contains("imadg_staleness_e2e{role=\"standby\",quantile=\"0.99\"}"));
        assert!(text.contains("imadg_staleness_e2e_count{role=\"standby\"} 1"));
        // Every sample line parses: name[{labels}] float.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name {name:?}"
            );
            let v: f64 = value.parse().expect("numeric value");
            assert!(v.is_finite() && v >= 0.0, "{line}");
        }
    }

    #[test]
    fn stage_series_split_by_label() {
        let r = MetricsRegistry::default();
        r.runtime.stage("transport").runs.inc();
        r.runtime.stage("merge").runs.inc();
        let text = prometheus_text(&r.snapshot(), &[]);
        assert!(text.contains("imadg_runtime_stages_runs{stage=\"transport\"} 1"));
        assert!(text.contains("imadg_runtime_stages_runs{stage=\"merge\"} 1"));
    }

    #[test]
    fn trace_ring_stays_out_of_exposition() {
        let r = MetricsRegistry::default();
        r.trace.record(crate::metrics::TraceStage::Advance, 1, "publish");
        r.trace.record(crate::metrics::TraceStage::Advance, 2, "publish");
        let text = prometheus_text(&r.snapshot(), &[("role", "standby")]);
        assert!(!text.contains("imadg_trace_"), "{text}");
        let mut series = BTreeSet::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series_name, _) = line.rsplit_once(' ').expect("sample has a value");
            assert!(series.insert(series_name), "series emitted twice: {series_name}");
        }
    }

    /// The JSONL record of `golden_snapshot()`: field order, escaping, `null`
    /// and variant names, byte for byte.
    const GOLDEN_JSONL: &str = "\
        {\"role\":\"standby\",\"metrics\":{\"transport\":{\"records_shipped\":1,\
        \"bytes_shipped\":1,\"heartbeats\":1,\"batches_shipped\":1,\"queue_depth\":1,\
        \"frames_sent\":1,\"frames_received\":1,\"gaps_detected\":1,\"gaps_resolved\":1,\
        \"retransmits\":1,\"naks_sent\":1,\"duplicates_dropped\":1,\"reconnects\":1,\
        \"link_pings\":1},\"merger\":{\"merge_batches\":1,\"records_merged\":1,\
        \"heartbeats_seen\":1,\"held_back\":1,\"watermark\":1,\"stream_skew\":1},\
        \"apply\":{\"records_dispatched\":1,\"items_applied\":1,\"worker_cvs\":[1,3],\
        \"applied_scn\":1,\"shipped_scn\":1,\"apply_lag\":1,\"query_scn\":1},\
        \"mining\":{\"sniffed\":1,\"mined\":1,\"commits\":1,\"aborts\":1,\"markers\":1,\
        \"abort_discarded_records\":1},\"journal\":{\"anchors_created\":1,\
        \"bucket_contention\":1,\"journal_txns\":1,\"journal_records\":1},\
        \"commit_table\":{\"inserts\":1,\"chops\":1,\"chopped_txns\":1,\
        \"chop_size\":{\"count\":1,\"sum\":1,\"max\":1,\"buckets\":[{\"index\":1,\"count\":1}]},\
        \"commit_table_pending\":1},\"flush\":{\"flushed_txns\":1,\"flushed_records\":1,\
        \"coarse_invalidations\":1,\"ddl_applied\":1,\"coop_flushed\":1,\
        \"coordinator_flushed\":0,\"flush_groups\":1,\"advances\":1,\"quiesce_us\":{\"count\":1,\
        \"sum\":1,\"max\":1,\"buckets\":[{\"index\":1,\"count\":1}]},\"published_query_scn\":1,\
        \"scn_gap\":1},\"durability\":{\"appends\":1,\"records_persisted\":1,\
        \"bytes_persisted\":1,\"fsyncs\":1,\"segments_sealed\":1,\"segments_archived\":1,\
        \"archive_retransmits\":1,\"replayed_batches\":1,\"replayed_records\":1,\
        \"mining_skipped\":0,\"durable_seq\":1,\"wal_segments\":1,\"archived_segments\":1},\
        \"population\":{\"imcus_built\":1,\"imcus_repopulated\":1,\"columns_shared\":1,\
        \"columns_encoded\":1,\"passes\":1,\"populated_rows\":1},\"tier\":{\"tier_evictions\":1,\
        \"tier_recalls\":1,\"tier_recompactions\":1,\"tier_pruned_units\":1,\
        \"tier_cold_reads\":1,\"tier_read_errors\":1,\"tier_bytes_on_disk\":1,\"cold_units\":1},\
        \"scan\":{\"queries\":1,\"imcs_served\":1,\"row_store_fallback\":1,\"imcu_rows\":1,\
        \"fallback_rows\":1,\"uncovered_rows\":1,\"pruned_units\":1,\"scanned_units\":1,\
        \"parallel_tasks\":1,\"parallel_queries\":1,\"latency_us\":{\"count\":1,\"sum\":1,\
        \"max\":1,\"buckets\":[{\"index\":1,\"count\":1}]}},\
        \"runtime\":{\"failure\":{\"stage\":\"apply.0\",\
        \"reason\":\"bad \\\"redo\\\" at C:\\\\wal\\nline 2\"},\"stalls\":[{\"stage\":\"merge\",\
        \"idle_quanta\":64}],\"stages\":[{\"stage\":\"transport\",\"runs\":1,\"wakeups\":1,\
        \"parks\":1,\"park_us\":{\"count\":1,\"sum\":1,\"max\":1,\"buckets\":[{\"index\":1,\
        \"count\":1}]},\"run_quantum_us\":{\"count\":1,\"sum\":1,\"max\":1,\
        \"buckets\":[{\"index\":1,\"count\":1}]}}]},\"staleness\":{\"ship\":{\"count\":1,\
        \"sum\":0,\"max\":0,\"buckets\":[{\"index\":0,\"count\":1}]},\"receive\":{\"count\":1,\
        \"sum\":0,\"max\":0,\"buckets\":[{\"index\":0,\"count\":1}]},\"merge\":{\"count\":1,\
        \"sum\":0,\"max\":0,\"buckets\":[{\"index\":0,\"count\":1}]},\"apply\":{\"count\":1,\
        \"sum\":0,\"max\":0,\"buckets\":[{\"index\":0,\"count\":1}]},\"flush\":{\"count\":1,\
        \"sum\":0,\"max\":0,\"buckets\":[{\"index\":0,\"count\":1}]},\"publish\":{\"count\":1,\
        \"sum\":0,\"max\":0,\"buckets\":[{\"index\":0,\"count\":1}]},\"e2e\":{\"count\":1,\
        \"sum\":0,\"max\":0,\"buckets\":[{\"index\":0,\"count\":1}]},\"slowest\":[{\"scn\":1,\
        \"transit_us\":0,\"merge_wait_us\":0,\"apply_us\":0,\"flush_us\":0,\"publish_us\":0,\
        \"e2e_us\":0}]},\"trace\":[{\"seq\":0,\"stage\":\"Advance\",\"scn\":1,\
        \"detail\":\"publish\"},{\"seq\":1,\"stage\":\"Query\",\"scn\":2,\"detail\":\"scan\"}]}}";

    /// Every `# TYPE` line of a fully touched registry, sorted.
    const SCHEMA: &str = "\
imadg_apply_applied_scn gauge
imadg_apply_apply_lag gauge
imadg_apply_items_applied gauge
imadg_apply_query_scn gauge
imadg_apply_records_dispatched gauge
imadg_apply_shipped_scn gauge
imadg_commit_table_chop_size summary
imadg_commit_table_chopped_txns gauge
imadg_commit_table_chops gauge
imadg_commit_table_commit_table_pending gauge
imadg_commit_table_inserts gauge
imadg_durability_appends gauge
imadg_durability_archive_retransmits gauge
imadg_durability_archived_segments gauge
imadg_durability_bytes_persisted gauge
imadg_durability_durable_seq gauge
imadg_durability_fsyncs gauge
imadg_durability_mining_skipped gauge
imadg_durability_records_persisted gauge
imadg_durability_replayed_batches gauge
imadg_durability_replayed_records gauge
imadg_durability_segments_archived gauge
imadg_durability_segments_sealed gauge
imadg_durability_wal_segments gauge
imadg_flush_advances gauge
imadg_flush_coarse_invalidations gauge
imadg_flush_coop_flushed gauge
imadg_flush_coordinator_flushed gauge
imadg_flush_ddl_applied gauge
imadg_flush_flush_groups gauge
imadg_flush_flushed_records gauge
imadg_flush_flushed_txns gauge
imadg_flush_published_query_scn gauge
imadg_flush_quiesce_us summary
imadg_flush_scn_gap gauge
imadg_journal_anchors_created gauge
imadg_journal_bucket_contention gauge
imadg_journal_journal_records gauge
imadg_journal_journal_txns gauge
imadg_merger_heartbeats_seen gauge
imadg_merger_held_back gauge
imadg_merger_merge_batches gauge
imadg_merger_records_merged gauge
imadg_merger_stream_skew gauge
imadg_merger_watermark gauge
imadg_mining_abort_discarded_records gauge
imadg_mining_aborts gauge
imadg_mining_commits gauge
imadg_mining_markers gauge
imadg_mining_mined gauge
imadg_mining_sniffed gauge
imadg_population_columns_encoded gauge
imadg_population_columns_shared gauge
imadg_population_imcus_built gauge
imadg_population_imcus_repopulated gauge
imadg_population_passes gauge
imadg_population_populated_rows gauge
imadg_runtime_stages_park_us summary
imadg_runtime_stages_parks gauge
imadg_runtime_stages_run_quantum_us summary
imadg_runtime_stages_runs gauge
imadg_runtime_stages_wakeups gauge
imadg_scan_fallback_rows gauge
imadg_scan_imcs_served gauge
imadg_scan_imcu_rows gauge
imadg_scan_latency_us summary
imadg_scan_parallel_queries gauge
imadg_scan_parallel_tasks gauge
imadg_scan_pruned_units gauge
imadg_scan_queries gauge
imadg_scan_row_store_fallback gauge
imadg_scan_scanned_units gauge
imadg_scan_uncovered_rows gauge
imadg_staleness_apply summary
imadg_staleness_e2e summary
imadg_staleness_flush summary
imadg_staleness_merge summary
imadg_staleness_publish summary
imadg_staleness_receive summary
imadg_staleness_ship summary
imadg_tier_cold_units gauge
imadg_tier_tier_bytes_on_disk gauge
imadg_tier_tier_cold_reads gauge
imadg_tier_tier_evictions gauge
imadg_tier_tier_pruned_units gauge
imadg_tier_tier_read_errors gauge
imadg_tier_tier_recalls gauge
imadg_tier_tier_recompactions gauge
imadg_transport_batches_shipped gauge
imadg_transport_bytes_shipped gauge
imadg_transport_duplicates_dropped gauge
imadg_transport_frames_received gauge
imadg_transport_frames_sent gauge
imadg_transport_gaps_detected gauge
imadg_transport_gaps_resolved gauge
imadg_transport_heartbeats gauge
imadg_transport_link_pings gauge
imadg_transport_naks_sent gauge
imadg_transport_queue_depth gauge
imadg_transport_reconnects gauge
imadg_transport_records_shipped gauge
imadg_transport_retransmits gauge";

    /// Touch every stage leaf of a fresh registry, plus one runtime stage
    /// and one settled staleness commit.
    fn fully_touched() -> MetricsSnapshot {
        touched_registry().snapshot()
    }

    /// `fully_touched()` plus every JSON-only shape: a stage failure whose
    /// reason needs escaping, a stall, a second trace event and a
    /// two-worker roster.
    fn golden_snapshot() -> MetricsSnapshot {
        let r = touched_registry();
        r.runtime.health.record("apply.0", "bad \"redo\" at C:\\wal\nline 2");
        r.runtime.health.record_stall("merge", 64);
        r.trace.record(crate::metrics::TraceStage::Query, 2, "scan");
        r.apply.worker_cvs.counter(1).add(3);
        r.snapshot()
    }

    fn touched_registry() -> MetricsRegistry {
        let r = MetricsRegistry::default();
        let (t, m, a, j) = (&r.transport, &r.merger, &r.apply, &r.journal);
        for c in [&t.records_shipped, &t.bytes_shipped, &t.heartbeats, &t.batches_shipped]
            .into_iter()
            .chain([&t.frames_sent, &t.frames_received, &t.gaps_detected, &t.gaps_resolved])
            .chain([&t.retransmits, &t.naks_sent, &t.duplicates_dropped, &t.reconnects])
            .chain([&t.link_pings, &m.merge_batches, &m.records_merged, &m.heartbeats_seen])
            .chain([&a.records_dispatched, &a.items_applied])
            .chain([&j.anchors_created, &j.bucket_contention])
        {
            c.inc();
        }
        for g in [&t.queue_depth, &m.held_back, &m.watermark, &m.stream_skew, &a.applied_scn]
            .into_iter()
            .chain([&a.shipped_scn, &a.apply_lag, &a.query_scn, &j.journal_txns])
            .chain([&j.journal_records])
        {
            g.set(1);
        }
        a.worker_cvs.counter(0).inc();
        let (mi, ct, fl, du) = (&r.mining, &r.commit_table, &r.flush, &r.durability);
        for c in [&mi.sniffed, &mi.mined, &mi.commits, &mi.aborts, &mi.markers]
            .into_iter()
            .chain([&mi.abort_discarded_records, &ct.inserts, &ct.chops, &ct.chopped_txns])
            .chain([&fl.flushed_txns, &fl.flushed_records, &fl.coarse_invalidations])
            .chain([&fl.ddl_applied, &fl.coop_flushed, &fl.flush_groups, &fl.advances])
            .chain([&du.appends, &du.records_persisted, &du.bytes_persisted, &du.fsyncs])
            .chain([&du.segments_sealed, &du.segments_archived, &du.archive_retransmits])
            .chain([&du.replayed_batches, &du.replayed_records])
        {
            c.inc();
        }
        for g in [&ct.commit_table_pending, &fl.published_query_scn, &fl.scn_gap]
            .into_iter()
            .chain([&du.durable_seq, &du.wal_segments, &du.archived_segments])
        {
            g.set(1);
        }
        ct.chop_size.record_value(1);
        fl.quiesce_us.record_value(1);
        let (po, ti, sc) = (&r.population, &r.tier, &r.scan);
        for c in [&po.imcus_built, &po.imcus_repopulated, &po.columns_shared]
            .into_iter()
            .chain([&po.columns_encoded, &po.passes, &ti.tier_evictions, &ti.tier_recalls])
            .chain([&ti.tier_recompactions, &ti.tier_pruned_units, &ti.tier_cold_reads])
            .chain([&ti.tier_read_errors, &sc.queries, &sc.imcs_served, &sc.row_store_fallback])
            .chain([&sc.imcu_rows, &sc.fallback_rows, &sc.uncovered_rows, &sc.pruned_units])
            .chain([&sc.scanned_units, &sc.parallel_tasks, &sc.parallel_queries])
        {
            c.inc();
        }
        for g in [&po.populated_rows, &ti.tier_bytes_on_disk, &ti.cold_units] {
            g.set(1);
        }
        sc.latency_us.record_value(1);
        let st = r.runtime.stage("transport");
        for c in [&st.runs, &st.wakeups, &st.parks] {
            c.inc();
        }
        st.park_us.record_value(1);
        st.run_quantum_us.record_value(1);
        r.staleness.set_clock(crate::Clock::manual());
        r.staleness.on_ship(1, 0);
        r.staleness.on_receive(1, 0);
        r.staleness.on_merge(1);
        r.staleness.on_apply(1);
        r.staleness.on_advance(1, 0, 0);
        r.trace.record(crate::metrics::TraceStage::Advance, 1, "publish");
        r
    }

    #[test]
    fn jsonl_golden() {
        assert_eq!(jsonl_line("standby", &golden_snapshot()), GOLDEN_JSONL);
    }

    #[test]
    fn exposition_schema_is_stable() {
        let snap = fully_touched();
        let text = prometheus_text(&snap, &[("role", "standby")]);
        let mut typed: Vec<&str> = text.lines().filter_map(|l| l.strip_prefix("# TYPE ")).collect();
        typed.sort_unstable();
        assert_eq!(typed.join("\n"), SCHEMA, "exposition series names or kinds changed");

        // The JSONL record carries every series' leaf under its stage
        // object, plus the two non-series leaves (the per-worker roster and
        // the runtime stage's name).
        let line: Content = serde_json::from_str(&jsonl_line("standby", &snap)).unwrap();
        let metrics = line.field("metrics").unwrap();
        let keys = |c: &Content| -> BTreeSet<String> {
            c.as_map().unwrap().iter().map(|(k, _)| k.clone()).collect()
        };
        let stages = [
            "transport",
            "merger",
            "apply",
            "mining",
            "journal",
            "commit_table",
            "flush",
            "durability",
            "population",
            "tier",
            "scan",
        ];
        assert_eq!(keys(metrics), {
            let mut all: BTreeSet<String> = stages.iter().map(|s| s.to_string()).collect();
            all.extend(["runtime", "staleness", "trace"].map(String::from));
            all
        });
        let series_of = |prefix: &str| -> BTreeSet<String> {
            SCHEMA
                .lines()
                .filter_map(|l| l.split(' ').next()?.strip_prefix(prefix))
                .map(String::from)
                .collect()
        };
        for stage in stages {
            let mut want = series_of(&format!("imadg_{stage}_"));
            if stage == "apply" {
                want.insert("worker_cvs".into());
            }
            assert_eq!(keys(metrics.field(stage).unwrap()), want, "keys of `{stage}`");
        }
        let runtime_stage =
            &metrics.field("runtime").unwrap().field("stages").unwrap().as_seq().unwrap()[0];
        let mut want = series_of("imadg_runtime_stages_");
        want.insert("stage".into());
        assert_eq!(keys(runtime_stage), want, "keys of a runtime stage");
    }

    #[test]
    fn jsonl_is_one_parseable_line() {
        let line = jsonl_line("primary", &snapshot_with_data());
        assert!(!line.contains('\n'));
        let parsed: Content = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed.field("role"), Some(&Content::Str("primary".into())));
        let metrics = parsed.field("metrics").unwrap();
        let leaf = |path: &[&str]| {
            path.iter().try_fold(metrics, |c, k| c.field(k)).and_then(Content::as_u64)
        };
        assert_eq!(leaf(&["transport", "records_shipped"]), Some(42));
        assert_eq!(leaf(&["staleness", "e2e", "count"]), Some(1));
    }
}
