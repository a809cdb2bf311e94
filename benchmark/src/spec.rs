//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is this module printed (`--spec`); the
//! `benchmark_json_is_the_spec` test keeps the two from drifting.

use std::collections::BTreeMap;

use serde::Content;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "oltap_mixed",
        why: "open-loop paper Fig. 10 mix; the only workload where every layer runs at once and contends for the two cores",
    },
    Workload {
        name: "scan_quiet",
        why: "closed-loop scans on clean units, no DML in the window; redo/net/recovery/core idle, so a link or apply change shows no change",
    },
    Workload {
        name: "catchup",
        why: "backlog drained over the framed link at saturation, no scans in the window; redo/net/recovery/core do all the work",
    },
];

/// Runs like the others (`--workload restart`, `--smoke`, `--repeat` by
/// name) but is not in `BENCHMARK.json`: its numbers follow the disk, and on
/// the calibration host they did not repeat within any bound (README.md).
pub const UNGATED: &[Workload] = &[Workload {
    name: "restart",
    why: "durable deployment crash-restarted; the same apply code fed from disk, plus redo::durable and imcs::population",
}];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// Every workload reports every one of these (the driver's contract): a
/// metric comes from the workload's own window when the window measures it,
/// otherwise from the short probe that follows the window (see README.md).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("q1_p50_ms", "ms", Better::Lower, 0.25),
    e2e("q2_p50_ms", "ms", Better::Lower, 0.25),
    e2e("q1_d2_p50_ms", "ms", Better::Lower, 0.25),
    e2e("agg_p50_ms", "ms", Better::Lower, 0.25),
    e2e("scan_rows_per_s", "rows/s", Better::Higher, 0.25),
    e2e("staleness_p50_us", "us", Better::Lower, 0.25),
    e2e("dml_p50_us", "us", Better::Lower, 0.25),
    e2e("achieved_ops_per_s", "ops/s", Better::Higher, 0.10),
    e2e("apply_records_per_s", "records/s", Better::Higher, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Layer = crate. Reported by every workload under `--trace 1`; a layer the
/// workload bypasses reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // txn / storage: service time of the primary's public DML calls.
    layer("txn.update_us", "us", Lower),
    layer("txn.insert_us", "us", Lower),
    layer("storage.fetch_us", "us", Lower),
    layer("txn.conflicts", "count", Lower),
    // redo
    layer("redo.records", "count", Lower),
    layer("redo.bytes_per_commit", "B", Lower),
    layer("redo.ship_us_per_record", "us", Lower),
    layer("redo.fsyncs", "count", Lower),
    layer("redo.persisted_bytes_per_redo_byte", "ratio", Lower),
    // net
    layer("net.frames", "count", Lower),
    layer("net.wire_bytes_per_redo_byte", "ratio", Lower),
    layer("net.retransmits", "count", Lower),
    // recovery
    layer("recovery.ingest_us_per_record", "us", Lower),
    layer("recovery.apply_us_per_record", "us", Lower),
    layer("recovery.advance_us_per_publish", "us", Lower),
    layer("recovery.publishes", "count", Higher),
    layer("recovery.worker_skew", "ratio", Lower),
    layer("recovery.replay_us_per_record", "us", Lower),
    layer("recovery.mining_skipped", "count", Higher),
    // core (DBIM-on-ADG: mining, journal, flush)
    layer("core.mined", "count", Lower),
    layer("core.flushed_records", "count", Lower),
    layer("core.coop_flush_share", "ratio", Higher),
    layer("core.journal_contention", "count", Lower),
    layer("core.apply_cost_ratio", "ratio", Lower),
    // time commits waited in each pipeline stage (window-diffed means)
    layer("wait.ship_us", "us", Lower),
    layer("wait.receive_us", "us", Lower),
    layer("wait.merge_us", "us", Lower),
    layer("wait.apply_us", "us", Lower),
    layer("wait.flush_us", "us", Lower),
    layer("wait.publish_us", "us", Lower),
    layer("wait.sum_over_e2e", "ratio", Lower),
    // imcs
    layer("imcs.populate_us_per_krow", "us", Lower),
    layer("imcs.repopulations", "count", Lower),
    layer("imcs.prune_us", "us", Lower),
    layer("imcs.kernel_us", "us", Lower),
    layer("imcs.merge_us", "us", Lower),
    layer("imcs.fallback_us", "us", Lower),
    layer("imcs.task_skew", "ratio", Lower),
    layer("imcs.pruned_unit_share", "ratio", Higher),
    layer("imcs.fallback_row_share", "ratio", Lower),
    // db
    layer("db.query_overhead_us", "us", Lower),
    // the benchmark's own validity
    layer("bench.gen_late_p95_us", "us", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.step_self_time_share", "ratio", Higher),
    // tails that did not repeat within any bound, and the event times only
    // `restart` has: kept visible here, without a bound (see README.md)
    layer("tail.q1_p95_ms", "ms", Lower),
    layer("tail.q2_p95_ms", "ms", Lower),
    layer("tail.staleness_p99_us", "us", Lower),
    layer("tail.dml_p95_us", "us", Lower),
    layer("restart.to_queryable_s", "s", Lower),
    layer("restart.to_columnar_s", "s", Lower),
];

/// Run length of one measurement, s (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The command the driver runs from the root of a checkout.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, as a document.
pub fn document() -> Content {
    let text = |s: &str| Content::Str(s.to_string());
    let object = |fields: Vec<(&str, Content)>| {
        Content::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    object(vec![
        ("command", Content::Seq(COMMAND.iter().map(|s| text(s)).collect())),
        ("paths", Content::Seq(vec![text("benchmark")])),
        ("run_seconds", Content::U64(RUN_SECONDS)),
        (
            "workloads",
            Content::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Content::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Content::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Content::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The unit of a metric of either list.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Named measurements of one run. Setting a name the spec does not list is
/// a bug in the benchmark, caught on the spot.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric {name} is not in the spec"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file: Content = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(file, document(), "regenerate BENCHMARK.json with --spec");
    }

    #[test]
    fn the_spec_is_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} used twice");
            assert!(
                name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()) && WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(
            END_TO_END.len() <= 16 && END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25)
        );
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
