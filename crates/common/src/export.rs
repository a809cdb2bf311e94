//! Machine-readable metrics exposition.
//!
//! Two formats over the same [`MetricsSnapshot`]:
//!
//! * **Prometheus text format** ([`prometheus_text`]) — every numeric leaf
//!   of the snapshot becomes a gauge named by its field path
//!   (`imadg_transport_records_shipped`), and every duration histogram
//!   becomes a summary with `p50`/`p90`/`p99` quantile series plus
//!   `_count`/`_sum`/`_max`. Caller-supplied labels (typically
//!   `role="standby"`) ride on every series.
//! * **JSONL** ([`jsonl_line`]) — one self-contained JSON object per line
//!   (`{"role": ..., "metrics": {...}}`), append-friendly for trajectory
//!   files and diffable line by line.
//!
//! The walker is driven by the snapshot's own serde shape (its
//! [`Content`] tree), so new counters added to any stage appear in both
//! formats without touching this module.

use std::collections::BTreeSet;

use serde::{Content, Serialize};

use crate::metrics::{LogBucket, LogHistogramSnapshot, MetricsSnapshot};

/// Quantiles emitted for every histogram summary.
const QUANTILES: [(f64, &str); 3] = [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")];

/// Render `snapshot` in the Prometheus text exposition format. `labels`
/// (name/value pairs, already sane — no quotes or newlines) are attached
/// to every series.
pub fn prometheus_text(snapshot: &MetricsSnapshot, labels: &[(&str, &str)]) -> String {
    let content = snapshot.to_content();
    let base: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    let mut w = Writer { out: String::new(), typed: BTreeSet::new() };
    emit("imadg", &content, &base, &mut w);
    w.out
}

/// One JSONL record: `{"role": <role>, "metrics": <snapshot>}`, no
/// embedded newlines.
pub fn jsonl_line(role: &str, snapshot: &MetricsSnapshot) -> String {
    let envelope = Content::Map(vec![
        ("role".to_string(), Content::Str(role.to_string())),
        ("metrics".to_string(), snapshot.to_content()),
    ]);
    serde_json::to_string(&envelope).expect("metrics snapshot serializes")
}

struct Writer {
    out: String,
    /// Metric names that already got their `# TYPE` header (label-split
    /// series share one).
    typed: BTreeSet<String>,
}

impl Writer {
    fn type_line(&mut self, name: &str, kind: &str) {
        if self.typed.insert(name.to_string()) {
            self.out.push_str(&format!("# TYPE {name} {kind}\n"));
        }
    }

    fn sample(&mut self, name: &str, labels: &[(String, String)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(&format!("{k}=\"{v}\""));
            }
            self.out.push('}');
        }
        // u64 counters round-trip exactly through f64 well past any
        // realistic count; format integral values without a fraction.
        if value.fract() == 0.0 && value.abs() < 9.0e15 {
            self.out.push_str(&format!(" {}\n", value as i64));
        } else {
            self.out.push_str(&format!(" {value}\n"));
        }
    }
}

/// The one sequence that is a time series: the runtime's per-stage roster,
/// split into one labelled series per stage.
const STAGE_ROSTER: &str = "imadg_runtime_stages";

/// Recursive emission: maps extend the metric path, numeric leaves become
/// gauges, histogram-shaped maps become summaries, and the runtime's stage
/// roster becomes label-split series. Every other sequence (the trace
/// ring, stall warnings) is an event log, not a time series — it stays in
/// the JSONL format only.
fn emit(prefix: &str, value: &Content, labels: &[(String, String)], w: &mut Writer) {
    match value {
        Content::Map(fields) => {
            if let Some(h) = histogram_of(fields) {
                emit_summary(prefix, &h, labels, w);
                return;
            }
            for (key, v) in fields {
                emit(&format!("{prefix}_{key}"), v, labels, w);
            }
        }
        Content::U64(v) => {
            w.type_line(prefix, "gauge");
            w.sample(prefix, labels, *v as f64);
        }
        Content::I64(v) => {
            w.type_line(prefix, "gauge");
            w.sample(prefix, labels, *v as f64);
        }
        Content::F64(v) => {
            w.type_line(prefix, "gauge");
            w.sample(prefix, labels, *v);
        }
        Content::Bool(b) => {
            w.type_line(prefix, "gauge");
            w.sample(prefix, labels, if *b { 1.0 } else { 0.0 });
        }
        Content::Seq(items) if prefix == STAGE_ROSTER => {
            for item in items {
                if let Some(Content::Str(stage)) = item.field("stage") {
                    let mut ls = labels.to_vec();
                    ls.push(("stage".into(), stage.clone()));
                    emit(prefix, item, &ls, w);
                }
            }
        }
        // Strings (stage names, failure messages), nulls and event logs are
        // not series.
        Content::Seq(_) | Content::Str(_) | Content::Null => {}
    }
}

/// Recognize a serialized [`LogHistogramSnapshot`]: `{count, sum, max,
/// buckets}` with sparse `{index, count}` buckets.
fn histogram_of(fields: &[(String, Content)]) -> Option<LogHistogramSnapshot> {
    if fields.len() != 4 {
        return None;
    }
    let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let count = field("count")?.as_u64()?;
    let sum = field("sum")?.as_u64()?;
    let max = field("max")?.as_u64()?;
    let buckets = field("buckets")?
        .as_seq()?
        .iter()
        .map(|b| {
            let index = u32::try_from(b.field("index")?.as_u64()?).ok()?;
            Some(LogBucket { index, count: b.field("count")?.as_u64()? })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(LogHistogramSnapshot { count, sum, max, buckets })
}

fn emit_summary(name: &str, h: &LogHistogramSnapshot, labels: &[(String, String)], w: &mut Writer) {
    w.type_line(name, "summary");
    for (q, tag) in QUANTILES {
        let mut ls = labels.to_vec();
        ls.push(("quantile".into(), tag.to_string()));
        w.sample(name, &ls, h.quantile(q) as f64);
    }
    w.sample(&format!("{name}_count"), labels, h.count as f64);
    w.sample(&format!("{name}_sum"), labels, h.sum as f64);
    w.sample(&format!("{name}_max"), labels, h.max as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use serde::Deserialize;
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
        r.snapshot()
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
        #[derive(Deserialize)]
        struct Line {
            role: String,
            metrics: MetricsSnapshot,
        }
        let line = jsonl_line("primary", &snapshot_with_data());
        assert!(!line.contains('\n'));
        let parsed: Line = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed.role, "primary");
        assert_eq!(parsed.metrics.transport.records_shipped, 42);
        assert_eq!(parsed.metrics.staleness.e2e.count, 1);
    }
}
