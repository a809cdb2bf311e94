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

use crate::metrics::{
    HistogramSnapshot, LogBucket, LogHistogram, LogHistogramSnapshot, MetricsSnapshot,
};

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

/// Recursive emission: maps extend the metric path, numeric leaves become
/// gauges, histogram-shaped maps become summaries, sequences of named
/// maps (per-stage metrics) become label-split series. Sequences of
/// anything else (trace rings, slowest-commit traces) are event logs, not
/// time series — they stay in the JSONL format only.
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
        Content::Seq(items) => {
            for item in items {
                // Per-stage metrics: split by a `name`/`stage` label.
                let tag = item.as_map().and_then(|fields| {
                    fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                        ("name" | "stage", Content::Str(s)) => Some(s.clone()),
                        _ => None,
                    })
                });
                if let Some(tag) = tag {
                    let mut ls = labels.to_vec();
                    ls.push(("stage".into(), tag));
                    emit(prefix, item, &ls, w);
                }
            }
        }
        // Strings (stage names, failure messages) and nulls are not series.
        Content::Str(_) | Content::Null => {}
    }
}

/// Recognize a serialized duration histogram. Both histogram flavors
/// share the `{count, sum, max, buckets}` shape; reconstruct whichever
/// matches so quantiles come from the real bucket layout.
fn histogram_of(fields: &[(String, Content)]) -> Option<LogHistogramSnapshot> {
    if fields.len() != 4 {
        return None;
    }
    let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let count = field("count")?.as_u64()?;
    let sum = field("sum")?.as_u64()?;
    let max = field("max")?.as_u64()?;
    let items = field("buckets")?.as_seq()?;

    let mut buckets = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match item {
            // Sparse log-histogram bucket: `{index, count}`.
            Content::Map(_) => {
                let index = item.field("index")?.as_u64()?;
                let count = item.field("count")?.as_u64()?;
                buckets.push(LogBucket { index: u32::try_from(index).ok()?, count });
            }
            // Dense power-of-two bucket array: the two layouts use
            // different index encodings (pure octaves vs. sub-bucketed
            // octaves), so project each occupied bucket through its
            // upper-bound *value* into the log-linear index space. The
            // mapped indices stay strictly increasing, so the sparse
            // bucket list remains sorted.
            _ => {
                let count = item.as_u64()?;
                if count > 0 {
                    let bound = HistogramSnapshot::bucket_bound(i);
                    let index = LogHistogram::bucket_index(bound) as u32;
                    buckets.push(LogBucket { index, count });
                }
            }
        }
    }
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

#[cfg(test)]
mod review_check {
    use super::*;
    use crate::metrics::Histogram;

    /// The dense power-of-two histogram and the log-linear histogram
    /// use different index encodings; the export shim must project
    /// dense buckets through their bound values, not copy raw indices.
    #[test]
    fn dense_histogram_projection_quantile() {
        let h = Histogram::new();
        for v in [0u64, 3, 250, 250, 250, 70_000] {
            h.record_value(v);
        }
        let snap = h.snapshot();
        let content = snap.to_content();
        let fields = content.as_map().unwrap();
        let projected = histogram_of(fields).expect("recognized as histogram");
        assert_eq!(projected.count, snap.count);
        assert_eq!(projected.sum, snap.sum);
        assert_eq!(projected.max, snap.max);
        for (q, _) in QUANTILES {
            assert_eq!(
                projected.quantile(q),
                snap.quantile(q),
                "quantile {q} must survive the dense->log projection"
            );
        }
    }
}
