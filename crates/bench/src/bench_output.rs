//! Machine-readable benchmark documents: the `BENCH_*.json` trajectory.
//!
//! Every perf-relevant PR appends datapoints produced by these schemas so
//! the scan engine's trajectory is diffable across revisions. The schema
//! is versioned and validated — `bench_scan --validate <file>` is a CI
//! gate, so a malformed document fails the build instead of silently
//! rotting in the repo.

use serde::{Deserialize, Serialize};

/// Version stamp for `BENCH_*.json` documents. Bump when a field changes
/// meaning; readers reject versions they do not know.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// One measured configuration of the scan benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Configuration name (`row_store`, `scalar`, `vectorized_d1`, …).
    pub name: String,
    /// Parallel degree the configuration ran at (1 = serial).
    pub degree: usize,
    /// Timed iterations.
    pub iterations: usize,
    /// Rows matching the benchmark predicate (sanity anchor: every
    /// configuration must agree).
    pub matched_rows: u64,
    /// Table rows scanned per second (table rows / mean latency).
    pub rows_per_sec: f64,
    /// Median per-iteration latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-iteration latency, microseconds.
    pub p99_us: f64,
    /// Mean-latency speedup over the `row_store` configuration.
    pub speedup_vs_row_store: f64,
    /// Mean-latency speedup over the `scalar` (PR-5 engine) configuration.
    pub speedup_vs_scalar: f64,
}

/// The scan benchmark document (`BENCH_scan.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchScanDoc {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark family; always `"scan"`.
    pub bench: String,
    /// Table rows scanned per iteration.
    pub rows: usize,
    /// Available CPU cores on the measuring host (contextualizes the
    /// per-degree numbers: on a 1-core host degree > 1 cannot speed up
    /// wall-clock).
    pub cores: usize,
    /// The benchmark predicate, human-readable.
    pub query: String,
    /// Measured configurations.
    pub entries: Vec<BenchEntry>,
}

impl BenchScanDoc {
    /// Structural validation: schema version, family tag, coherent
    /// per-entry numbers. Returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unknown schema_version {} (expected {BENCH_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.bench != "scan" {
            return Err(format!("bench family {:?} is not \"scan\"", self.bench));
        }
        if self.rows == 0 {
            return Err("rows must be > 0".into());
        }
        if self.cores == 0 {
            return Err("cores must be > 0".into());
        }
        if self.entries.is_empty() {
            return Err("no entries".into());
        }
        let matched = self.entries[0].matched_rows;
        for e in &self.entries {
            if e.name.is_empty() {
                return Err("entry with empty name".into());
            }
            if e.degree == 0 || e.iterations == 0 {
                return Err(format!("{}: degree and iterations must be > 0", e.name));
            }
            if !(e.rows_per_sec.is_finite() && e.rows_per_sec > 0.0) {
                return Err(format!("{}: rows_per_sec must be finite and > 0", e.name));
            }
            if !(e.p50_us.is_finite() && e.p99_us.is_finite() && e.p50_us > 0.0) {
                return Err(format!("{}: percentiles must be finite and > 0", e.name));
            }
            if e.p99_us < e.p50_us {
                return Err(format!("{}: p99 < p50", e.name));
            }
            if !(e.speedup_vs_row_store.is_finite() && e.speedup_vs_scalar.is_finite()) {
                return Err(format!("{}: speedups must be finite", e.name));
            }
            if e.matched_rows != matched {
                return Err(format!(
                    "{}: matched_rows {} disagrees with {} — configurations scanned \
                     different data",
                    e.name, e.matched_rows, matched
                ));
            }
        }
        Ok(())
    }
}

/// One workload run inside the OLTAP benchmark document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchOltapRun {
    /// Run name (`without_dbim`, `with_dbim`).
    pub name: String,
    /// Achieved operation throughput.
    pub achieved_ops_per_sec: f64,
    /// Ad-hoc scans issued.
    pub scans_total: u64,
    /// Q1 (`n1 = :1`) median latency, seconds.
    pub q1_median_s: f64,
    /// Q1 95th-percentile latency, seconds.
    pub q1_p95_s: f64,
    /// Q2 (`c1 = :2`) median latency, seconds.
    pub q2_median_s: f64,
    /// Q2 95th-percentile latency, seconds.
    pub q2_p95_s: f64,
    /// Median commit-to-queryable staleness observed on the standby, µs.
    pub staleness_p50_us: f64,
    /// 99th-percentile commit-to-queryable staleness on the standby, µs.
    pub staleness_p99_us: f64,
}

/// The OLTAP benchmark document (`BENCH_oltap.json`), emitted by the
/// Fig. 9 experiment binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchOltapDoc {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark family; always `"oltap"`.
    pub bench: String,
    /// Initial wide-table rows.
    pub rows: usize,
    /// Simulated host cores for CPU%.
    pub cores: usize,
    /// The measured runs.
    pub runs: Vec<BenchOltapRun>,
}

impl BenchOltapDoc {
    /// Structural validation; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unknown schema_version {} (expected {BENCH_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.bench != "oltap" {
            return Err(format!("bench family {:?} is not \"oltap\"", self.bench));
        }
        if self.rows == 0 || self.cores == 0 {
            return Err("rows and cores must be > 0".into());
        }
        if self.runs.is_empty() {
            return Err("no runs".into());
        }
        for r in &self.runs {
            if r.name.is_empty() {
                return Err("run with empty name".into());
            }
            if !(r.achieved_ops_per_sec.is_finite() && r.achieved_ops_per_sec >= 0.0) {
                return Err(format!("{}: achieved_ops_per_sec must be finite", r.name));
            }
            for (label, v) in [
                ("q1_median_s", r.q1_median_s),
                ("q1_p95_s", r.q1_p95_s),
                ("q2_median_s", r.q2_median_s),
                ("q2_p95_s", r.q2_p95_s),
                ("staleness_p50_us", r.staleness_p50_us),
                ("staleness_p99_us", r.staleness_p99_us),
            ] {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!("{}: {label} must be finite and >= 0", r.name));
                }
            }
            if r.staleness_p99_us < r.staleness_p50_us {
                return Err(format!("{}: staleness p99 below p50", r.name));
            }
        }
        Ok(())
    }
}

/// One measured recovery scenario inside the recovery benchmark document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecoveryRun {
    /// Scenario name (`restart`, `promotion`).
    pub name: String,
    /// Committed rows on the standby when disaster struck.
    pub committed_rows: u64,
    /// Redo records persisted to the standby's durable log pre-crash.
    pub records_persisted: u64,
    /// Records replayed from wal + archive during recovery (0 for
    /// promotion-only runs).
    pub replayed_records: u64,
    /// Wall-clock from disaster to a converged, queryable node, ms.
    pub recovery_ms: f64,
    /// Replay throughput (`replayed_records / recovery time`); 0 when
    /// nothing was replayed.
    pub replayed_records_per_sec: f64,
    /// Median commit-to-queryable staleness on the recovered node, µs
    /// (covers redo applied after the restart/promotion).
    pub staleness_p50_us: f64,
    /// 99th-percentile commit-to-queryable staleness on the recovered
    /// node, µs.
    pub staleness_p99_us: f64,
}

/// The recovery benchmark document (`BENCH_recovery.json`), emitted by
/// the `exp_recovery` binary: standby crash-restart and standby→primary
/// promotion, timed end to end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecoveryDoc {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark family; always `"recovery"`.
    pub bench: String,
    /// Committed table rows per scenario.
    pub rows: usize,
    /// Available CPU cores on the measuring host.
    pub cores: usize,
    /// The measured scenarios.
    pub runs: Vec<BenchRecoveryRun>,
}

impl BenchRecoveryDoc {
    /// Structural validation; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unknown schema_version {} (expected {BENCH_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.bench != "recovery" {
            return Err(format!("bench family {:?} is not \"recovery\"", self.bench));
        }
        if self.rows == 0 || self.cores == 0 {
            return Err("rows and cores must be > 0".into());
        }
        if self.runs.is_empty() {
            return Err("no runs".into());
        }
        for r in &self.runs {
            if r.name.is_empty() {
                return Err("run with empty name".into());
            }
            if r.committed_rows == 0 {
                return Err(format!("{}: committed_rows must be > 0", r.name));
            }
            if !(r.recovery_ms.is_finite() && r.recovery_ms > 0.0) {
                return Err(format!("{}: recovery_ms must be finite and > 0", r.name));
            }
            if !(r.replayed_records_per_sec.is_finite() && r.replayed_records_per_sec >= 0.0) {
                return Err(format!(
                    "{}: replayed_records_per_sec must be finite and >= 0",
                    r.name
                ));
            }
            for (label, v) in
                [("staleness_p50_us", r.staleness_p50_us), ("staleness_p99_us", r.staleness_p99_us)]
            {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!("{}: {label} must be finite and >= 0", r.name));
                }
            }
            if r.staleness_p99_us < r.staleness_p50_us {
                return Err(format!("{}: staleness p99 below p50", r.name));
            }
            if r.replayed_records > 0 && r.replayed_records_per_sec == 0.0 {
                return Err(format!("{}: replayed records but zero replay throughput", r.name));
            }
        }
        Ok(())
    }
}

/// One standby's view inside a reader-farm configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchFarmStandby {
    /// Standby name (`sb0`, `sb1`, …).
    pub name: String,
    /// Routed scans this standby served.
    pub routed_queries: u64,
    /// Median commit-to-queryable staleness on this standby, µs.
    pub staleness_p50_us: f64,
    /// 99th-percentile commit-to-queryable staleness, µs.
    pub staleness_p99_us: f64,
    /// Applied SCN at the end of the run.
    pub applied_scn: u64,
    /// Published QuerySCN at the end of the run.
    pub published_query_scn: u64,
    /// SCN gap to the primary at the end of the run.
    pub scn_gap: u64,
}

/// One farm size (standby count) measured by `exp_readerfarm`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchFarmRun {
    /// Run name (`farm_1`, `farm_2`, `farm_4`).
    pub name: String,
    /// Standbys in the farm.
    pub standby_count: usize,
    /// Aggregate routed scans completed across all standbys.
    pub scans_total: u64,
    /// Scans the router offloaded to a standby.
    pub scans_offloaded: u64,
    /// Scans that fell back to the primary.
    pub scans_primary: u64,
    /// Aggregate standby-offloaded scan throughput, scans/s.
    pub offloaded_scans_per_sec: f64,
    /// Per-standby breakdown.
    pub standbys: Vec<BenchFarmStandby>,
}

/// The reader-farm benchmark document (`BENCH_readerfarm.json`): aggregate
/// standby-offloaded scan throughput vs. farm size, plus per-standby
/// staleness percentiles, emitted by the `exp_readerfarm` binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReaderFarmDoc {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark family; always `"readerfarm"`.
    pub bench: String,
    /// Wide-table rows per run.
    pub rows: usize,
    /// Available CPU cores on the measuring host.
    pub cores: usize,
    /// The measured farm sizes, ascending standby count.
    pub runs: Vec<BenchFarmRun>,
}

impl BenchReaderFarmDoc {
    /// Minimum aggregate offloaded-throughput scaling required between the
    /// smallest and largest farm (the PR-9 acceptance floor).
    pub const MIN_SCALING: f64 = 1.7;

    /// Structural validation; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unknown schema_version {} (expected {BENCH_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.bench != "readerfarm" {
            return Err(format!("bench family {:?} is not \"readerfarm\"", self.bench));
        }
        if self.rows == 0 || self.cores == 0 {
            return Err("rows and cores must be > 0".into());
        }
        if self.runs.len() < 2 {
            return Err("need at least two farm sizes to measure scaling".into());
        }
        let mut prev_count = 0usize;
        for r in &self.runs {
            if r.name.is_empty() {
                return Err("run with empty name".into());
            }
            if r.standby_count == 0 {
                return Err(format!("{}: standby_count must be > 0", r.name));
            }
            if r.standby_count <= prev_count {
                return Err(format!("{}: farm sizes must be ascending", r.name));
            }
            prev_count = r.standby_count;
            if r.standbys.len() != r.standby_count {
                return Err(format!(
                    "{}: {} standby records for a {}-standby farm",
                    r.name,
                    r.standbys.len(),
                    r.standby_count
                ));
            }
            if !(r.offloaded_scans_per_sec.is_finite() && r.offloaded_scans_per_sec > 0.0) {
                return Err(format!("{}: offloaded_scans_per_sec must be finite and > 0", r.name));
            }
            if r.scans_offloaded + r.scans_primary != r.scans_total {
                return Err(format!("{}: offloaded + primary != total scans", r.name));
            }
            let routed_sum: u64 = r.standbys.iter().map(|s| s.routed_queries).sum();
            if routed_sum != r.scans_offloaded {
                return Err(format!(
                    "{}: per-standby routed_queries sum {} disagrees with scans_offloaded {}",
                    r.name, routed_sum, r.scans_offloaded
                ));
            }
            for s in &r.standbys {
                if s.name.is_empty() {
                    return Err(format!("{}: standby with empty name", r.name));
                }
                for (label, v) in [
                    ("staleness_p50_us", s.staleness_p50_us),
                    ("staleness_p99_us", s.staleness_p99_us),
                ] {
                    if !(v.is_finite() && v >= 0.0) {
                        return Err(format!(
                            "{}/{}: {label} must be finite and >= 0",
                            r.name, s.name
                        ));
                    }
                }
                if s.staleness_p99_us < s.staleness_p50_us {
                    return Err(format!("{}/{}: staleness p99 below p50", r.name, s.name));
                }
                if s.published_query_scn > s.applied_scn {
                    return Err(format!(
                        "{}/{}: published QuerySCN {} ahead of applied SCN {}",
                        r.name, s.name, s.published_query_scn, s.applied_scn
                    ));
                }
            }
        }
        // The acceptance floor: largest farm must out-offload the smallest
        // by MIN_SCALING in aggregate standby throughput.
        let first = &self.runs[0];
        let last = &self.runs[self.runs.len() - 1];
        let scaling = last.offloaded_scans_per_sec / first.offloaded_scans_per_sec;
        if !(scaling.is_finite() && scaling >= Self::MIN_SCALING) {
            return Err(format!(
                "aggregate offloaded throughput scaled only {scaling:.2}x from {} to {} \
                 standbys (floor {:.1}x)",
                first.standby_count,
                last.standby_count,
                Self::MIN_SCALING
            ));
        }
        Ok(())
    }
}

/// One memory-budget point measured by `exp_tier`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchTierRun {
    /// Run name (`budget_100`, `budget_50`, `budget_25`).
    pub name: String,
    /// Memory budget as a percentage of the hot working set.
    pub budget_pct: u32,
    /// The budget in bytes (0 = unlimited).
    pub budget_bytes: u64,
    /// Units held hot after the tier engine converged.
    pub hot_units: u64,
    /// Units evicted to the cold columnar tier.
    pub cold_units: u64,
    /// Cold bytes on disk after convergence.
    pub bytes_on_disk: u64,
    /// Full-scan throughput at this budget, table rows per second.
    pub rows_per_sec: f64,
    /// Median full-scan latency, microseconds.
    pub full_p50_us: f64,
    /// Median selective-scan latency, microseconds.
    pub selective_p50_us: f64,
    /// Cold units whose pages were read for the selective predicate.
    pub cold_read_units: u64,
    /// Cold units skipped by footer min-max for the selective predicate.
    pub cold_pruned_units: u64,
    /// `cold_pruned_units / (cold_pruned_units + cold_read_units)`; 0 when
    /// no units are cold.
    pub pruning_ratio: f64,
}

/// The tiered-column-store benchmark document (`BENCH_tier.json`), emitted
/// by the `exp_tier` binary: scan throughput and footer-pruning ratios at
/// descending memory budgets, plus the restart race — instant cold-tier
/// re-registration vs. a full row-store re-scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchTierDoc {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark family; always `"tier"`.
    pub bench: String,
    /// Table rows per run.
    pub rows: usize,
    /// Available CPU cores on the measuring host.
    pub cores: usize,
    /// The selective predicate used for the pruning measurement.
    pub query: String,
    /// The measured budgets, descending percentage.
    pub runs: Vec<BenchTierRun>,
    /// Time to a queryable column store after a crash restart via the cold
    /// tier (footer re-registration), milliseconds.
    pub restart_cold_ms: f64,
    /// Time to a queryable column store after a crash restart via row-store
    /// re-population (the cold tier disabled), milliseconds.
    pub restart_rescan_ms: f64,
}

impl BenchTierDoc {
    /// Minimum fraction of cold units the footer min-max check must skip on
    /// the selective predicate (the PR-10 acceptance floor).
    pub const MIN_PRUNING: f64 = 0.5;

    /// Structural validation; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unknown schema_version {} (expected {BENCH_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.bench != "tier" {
            return Err(format!("bench family {:?} is not \"tier\"", self.bench));
        }
        if self.rows == 0 || self.cores == 0 {
            return Err("rows and cores must be > 0".into());
        }
        if self.runs.is_empty() {
            return Err("no runs".into());
        }
        let mut prev_pct = u32::MAX;
        for r in &self.runs {
            if r.name.is_empty() {
                return Err("run with empty name".into());
            }
            if r.budget_pct == 0 || r.budget_pct >= prev_pct {
                return Err(format!("{}: budgets must be positive and descending", r.name));
            }
            prev_pct = r.budget_pct;
            if r.hot_units + r.cold_units == 0 {
                return Err(format!("{}: no units at all", r.name));
            }
            if r.budget_pct < 100 && r.cold_units == 0 {
                return Err(format!("{}: constrained budget evicted nothing", r.name));
            }
            if r.cold_units > 0 && r.bytes_on_disk == 0 {
                return Err(format!("{}: cold units but zero bytes on disk", r.name));
            }
            if !(r.rows_per_sec.is_finite() && r.rows_per_sec > 0.0) {
                return Err(format!("{}: rows_per_sec must be finite and > 0", r.name));
            }
            for (label, v) in
                [("full_p50_us", r.full_p50_us), ("selective_p50_us", r.selective_p50_us)]
            {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("{}: {label} must be finite and > 0", r.name));
                }
            }
            if !(0.0..=1.0).contains(&r.pruning_ratio) {
                return Err(format!("{}: pruning_ratio outside [0, 1]", r.name));
            }
            let cold_touched = r.cold_pruned_units + r.cold_read_units;
            if cold_touched > 0 {
                let ratio = r.cold_pruned_units as f64 / cold_touched as f64;
                if (ratio - r.pruning_ratio).abs() > 1e-9 {
                    return Err(format!(
                        "{}: pruning_ratio {} disagrees with pruned/(pruned+read) = {ratio}",
                        r.name, r.pruning_ratio
                    ));
                }
                // The acceptance floor: the footer min-max check must skip
                // at least half the cold units on the selective predicate.
                if ratio < Self::MIN_PRUNING {
                    return Err(format!(
                        "{}: footer pruning skipped only {:.0}% of cold units (floor {:.0}%)",
                        r.name,
                        ratio * 100.0,
                        Self::MIN_PRUNING * 100.0
                    ));
                }
            }
        }
        for (label, v) in [
            ("restart_cold_ms", self.restart_cold_ms),
            ("restart_rescan_ms", self.restart_rescan_ms),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{label} must be finite and > 0"));
            }
        }
        // The other acceptance floor: restart via footer re-registration
        // must beat re-scanning the row store into fresh IMCUs.
        if self.restart_cold_ms >= self.restart_rescan_ms {
            return Err(format!(
                "cold-tier restart ({:.2} ms) is not faster than row-store re-scan ({:.2} ms)",
                self.restart_cold_ms, self.restart_rescan_ms
            ));
        }
        Ok(())
    }
}

/// Percentile over already-sorted samples (nearest-rank; `p` in [0,100]).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Serialize `doc` to `path` as JSON.
pub fn write_json<T: Serialize>(path: &str, doc: &T) -> std::io::Result<()> {
    std::fs::write(path, serde_json::to_string(doc).expect("bench doc serialize"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str) -> BenchEntry {
        BenchEntry {
            name: name.into(),
            degree: 1,
            iterations: 5,
            matched_rows: 42,
            rows_per_sec: 1e6,
            p50_us: 100.0,
            p99_us: 150.0,
            speedup_vs_row_store: 10.0,
            speedup_vs_scalar: 2.0,
        }
    }

    fn doc() -> BenchScanDoc {
        BenchScanDoc {
            schema_version: BENCH_SCHEMA_VERSION,
            bench: "scan".into(),
            rows: 1000,
            cores: 1,
            query: "n1 = 7".into(),
            entries: vec![entry("row_store"), entry("vectorized_d1")],
        }
    }

    #[test]
    fn valid_doc_roundtrips() {
        let d = doc();
        d.validate().unwrap();
        let s = serde_json::to_string(&d).unwrap();
        let back: BenchScanDoc = serde_json::from_str(&s).unwrap();
        assert_eq!(back, d);
        back.validate().unwrap();
    }

    #[test]
    fn malformed_docs_rejected() {
        let mut d = doc();
        d.schema_version = 99;
        assert!(d.validate().is_err(), "wrong version");
        let mut d = doc();
        d.bench = "oltap".into();
        assert!(d.validate().is_err(), "wrong family");
        let mut d = doc();
        d.entries.clear();
        assert!(d.validate().is_err(), "no entries");
        let mut d = doc();
        d.entries[1].p99_us = 1.0;
        assert!(d.validate().is_err(), "p99 < p50");
        let mut d = doc();
        d.entries[1].rows_per_sec = f64::NAN;
        assert!(d.validate().is_err(), "NaN throughput");
        let mut d = doc();
        d.entries[1].matched_rows = 7;
        assert!(d.validate().is_err(), "result-count disagreement");
    }

    #[test]
    fn oltap_doc_validates() {
        let d = BenchOltapDoc {
            schema_version: BENCH_SCHEMA_VERSION,
            bench: "oltap".into(),
            rows: 100,
            cores: 16,
            runs: vec![BenchOltapRun {
                name: "with_dbim".into(),
                achieved_ops_per_sec: 4000.0,
                scans_total: 10,
                q1_median_s: 0.001,
                q1_p95_s: 0.002,
                q2_median_s: 0.001,
                q2_p95_s: 0.002,
                staleness_p50_us: 350.0,
                staleness_p99_us: 1200.0,
            }],
        };
        d.validate().unwrap();
        let mut bad = d.clone();
        bad.runs[0].q1_p95_s = f64::INFINITY;
        assert!(bad.validate().is_err());
        let mut bad = d.clone();
        bad.runs[0].staleness_p99_us = 100.0;
        assert!(bad.validate().is_err(), "staleness p99 < p50");
    }

    #[test]
    fn recovery_doc_validates() {
        let d = BenchRecoveryDoc {
            schema_version: BENCH_SCHEMA_VERSION,
            bench: "recovery".into(),
            rows: 1000,
            cores: 4,
            runs: vec![BenchRecoveryRun {
                name: "restart".into(),
                committed_rows: 1000,
                records_persisted: 1003,
                replayed_records: 1003,
                recovery_ms: 12.5,
                replayed_records_per_sec: 80_240.0,
                staleness_p50_us: 420.0,
                staleness_p99_us: 2100.0,
            }],
        };
        d.validate().unwrap();
        let mut bad = d.clone();
        bad.bench = "scan".into();
        assert!(bad.validate().is_err(), "wrong family");
        let mut bad = d.clone();
        bad.runs[0].recovery_ms = 0.0;
        assert!(bad.validate().is_err(), "zero recovery time");
        let mut bad = d.clone();
        bad.runs[0].replayed_records_per_sec = 0.0;
        assert!(bad.validate().is_err(), "replayed records need throughput");
    }

    fn farm_standby(name: &str, routed: u64) -> BenchFarmStandby {
        BenchFarmStandby {
            name: name.into(),
            routed_queries: routed,
            staleness_p50_us: 200.0,
            staleness_p99_us: 900.0,
            applied_scn: 5000,
            published_query_scn: 5000,
            scn_gap: 0,
        }
    }

    fn farm_run(name: &str, count: usize, per_standby: u64, rate: f64) -> BenchFarmRun {
        BenchFarmRun {
            name: name.into(),
            standby_count: count,
            scans_total: per_standby * count as u64 + 3,
            scans_offloaded: per_standby * count as u64,
            scans_primary: 3,
            offloaded_scans_per_sec: rate,
            standbys: (0..count).map(|i| farm_standby(&format!("sb{i}"), per_standby)).collect(),
        }
    }

    #[test]
    fn readerfarm_doc_validates() {
        let d = BenchReaderFarmDoc {
            schema_version: BENCH_SCHEMA_VERSION,
            bench: "readerfarm".into(),
            rows: 1000,
            cores: 16,
            runs: vec![
                farm_run("farm_1", 1, 100, 1000.0),
                farm_run("farm_2", 2, 100, 1800.0),
                farm_run("farm_4", 4, 100, 3400.0),
            ],
        };
        d.validate().unwrap();
        let s = serde_json::to_string(&d).unwrap();
        let back: BenchReaderFarmDoc = serde_json::from_str(&s).unwrap();
        assert_eq!(back, d);

        let mut bad = d.clone();
        bad.runs[2].offloaded_scans_per_sec = 1500.0;
        assert!(bad.validate().is_err(), "sub-floor scaling must fail");
        let mut bad = d.clone();
        bad.runs[1].standbys.pop();
        assert!(bad.validate().is_err(), "standby record count mismatch");
        let mut bad = d.clone();
        bad.runs[1].scans_offloaded += 1;
        assert!(bad.validate().is_err(), "offloaded/total mismatch");
        let mut bad = d.clone();
        bad.runs[0].standbys[0].published_query_scn = 9999;
        assert!(bad.validate().is_err(), "QuerySCN ahead of applied SCN");
        let mut bad = d.clone();
        bad.runs.truncate(1);
        assert!(bad.validate().is_err(), "one farm size cannot show scaling");
        let mut bad = d;
        bad.runs.swap(0, 2);
        assert!(bad.validate().is_err(), "farm sizes must ascend");
    }

    fn tier_run(name: &str, pct: u32, cold: u64, pruned: u64, read: u64) -> BenchTierRun {
        let touched = pruned + read;
        BenchTierRun {
            name: name.into(),
            budget_pct: pct,
            budget_bytes: if pct == 100 { 0 } else { 1000 * pct as u64 },
            hot_units: 8 - cold,
            cold_units: cold,
            bytes_on_disk: cold * 512,
            rows_per_sec: 1e6,
            full_p50_us: 500.0,
            selective_p50_us: 120.0,
            cold_read_units: read,
            cold_pruned_units: pruned,
            pruning_ratio: if touched > 0 { pruned as f64 / touched as f64 } else { 0.0 },
        }
    }

    #[test]
    fn tier_doc_validates() {
        let d = BenchTierDoc {
            schema_version: BENCH_SCHEMA_VERSION,
            bench: "tier".into(),
            rows: 10_000,
            cores: 4,
            query: "id >= 9000".into(),
            runs: vec![
                tier_run("budget_100", 100, 0, 0, 0),
                tier_run("budget_50", 50, 4, 3, 1),
                tier_run("budget_25", 25, 6, 5, 1),
            ],
            restart_cold_ms: 0.4,
            restart_rescan_ms: 6.5,
        };
        d.validate().unwrap();
        let s = serde_json::to_string(&d).unwrap();
        let back: BenchTierDoc = serde_json::from_str(&s).unwrap();
        assert_eq!(back, d);

        let mut bad = d.clone();
        bad.schema_version = 99;
        assert!(bad.validate().is_err(), "unknown version");
        let mut bad = d.clone();
        bad.runs[2].cold_units = 0;
        assert!(bad.validate().is_err(), "constrained budget must evict");
        let mut bad = d.clone();
        bad.runs[1].cold_pruned_units = 0;
        bad.runs[1].cold_read_units = 4;
        bad.runs[1].pruning_ratio = 0.0;
        assert!(bad.validate().is_err(), "sub-floor pruning must fail");
        let mut bad = d.clone();
        bad.runs.swap(1, 2);
        assert!(bad.validate().is_err(), "budgets must descend");
        let mut bad = d;
        bad.restart_cold_ms = 10.0;
        assert!(bad.validate().is_err(), "cold restart must beat re-scan");
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 51.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
