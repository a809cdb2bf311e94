//! Per-layer metrics read from outside: differences of the program's own
//! counters (`metrics()`, `log_stats()`) over a measured phase. Layer =
//! crate. Busy time in a threaded phase is the scheduler's run-quantum sum
//! for the layer's stage; in a stepped phase it comes from the spans.

use imadg_db::MetricsSnapshot;

use crate::deploy::{Deployment, KROWS_PER_UNIT};
use crate::instruments::{ProfileSums, StageWindows};
use crate::spec::Metrics;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run-quantum time (µs) the scheduler spent in stages named `stage` or
/// `stage.N`.
fn busy_us(snapshot: &MetricsSnapshot, stage: &str) -> f64 {
    snapshot
        .runtime
        .stages
        .iter()
        .filter(|s| {
            s.stage == stage || s.stage.strip_prefix(stage).is_some_and(|r| r.starts_with('.'))
        })
        .map(|s| s.run_quantum_us.sum as f64)
        .sum()
}

/// Counter snapshots at the start of a measured phase.
pub struct LayerProbe {
    primary: MetricsSnapshot,
    standby: MetricsSnapshot,
    log_records: u64,
    log_bytes: u64,
}

impl LayerProbe {
    pub fn begin(dep: &Deployment) -> LayerProbe {
        let log = dep.primary().log_stats();
        LayerProbe {
            primary: dep.primary().metrics(),
            standby: dep.standby().metrics(),
            log_records: log.records,
            log_bytes: log.bytes,
        }
    }

    /// Counter-derived layer metrics of the phase. With `threaded`, also
    /// the per-record busy times of the pipeline stages (a stepped phase
    /// takes those from its spans instead).
    pub fn end(self, dep: &Deployment, threaded: bool, m: &mut Metrics) {
        let (p0, s0) = (&self.primary, &self.standby);
        let (p1, s1) = (dep.primary().metrics(), dep.standby().metrics());
        let log = dep.primary().log_stats();
        let d = |after: u64, before: u64| after.saturating_sub(before) as f64;

        let redo_records = d(log.records, self.log_records);
        let redo_bytes = d(log.bytes, self.log_bytes);
        let commits = d(p1.staleness.ship.count, p0.staleness.ship.count);
        m.set("redo.records", redo_records);
        m.set("redo.bytes_per_commit", ratio(redo_bytes, commits));
        let fsyncs = d(p1.durability.fsyncs, p0.durability.fsyncs)
            + d(s1.durability.fsyncs, s0.durability.fsyncs);
        let persisted = d(p1.durability.bytes_persisted, p0.durability.bytes_persisted)
            + d(s1.durability.bytes_persisted, s0.durability.bytes_persisted);
        m.set("redo.fsyncs", fsyncs);
        m.set("redo.persisted_bytes_per_redo_byte", ratio(persisted, redo_bytes));

        m.set("net.frames", d(p1.transport.frames_sent, p0.transport.frames_sent));
        m.set(
            "net.wire_bytes_per_redo_byte",
            ratio(d(p1.transport.bytes_shipped, p0.transport.bytes_shipped), redo_bytes),
        );
        m.set(
            "net.retransmits",
            d(p1.transport.retransmits, p0.transport.retransmits)
                + d(s1.transport.retransmits, s0.transport.retransmits),
        );

        let publishes = d(s1.flush.advances, s0.flush.advances);
        m.set("recovery.publishes", publishes);
        let per_worker: Vec<f64> = s1
            .apply
            .worker_cvs
            .iter()
            .enumerate()
            .map(|(i, &c)| d(c, s0.apply.worker_cvs.get(i).copied().unwrap_or(0)))
            .collect();
        let mean = ratio(per_worker.iter().sum(), per_worker.len() as f64);
        m.set("recovery.worker_skew", ratio(per_worker.iter().copied().fold(0.0, f64::max), mean));
        m.set(
            "recovery.mining_skipped",
            d(s1.durability.mining_skipped, s0.durability.mining_skipped),
        );

        m.set("core.mined", d(s1.mining.mined, s0.mining.mined));
        m.set("core.flushed_records", d(s1.flush.flushed_records, s0.flush.flushed_records));
        let coop = d(s1.flush.coop_flushed, s0.flush.coop_flushed);
        let coordinator = d(s1.flush.coordinator_flushed, s0.flush.coordinator_flushed);
        m.set("core.coop_flush_share", ratio(coop, coop + coordinator));
        m.set(
            "core.journal_contention",
            d(s1.journal.bucket_contention, s0.journal.bucket_contention),
        );

        let built = d(s1.population.imcus_built, s0.population.imcus_built);
        let rebuilt = d(s1.population.imcus_repopulated, s0.population.imcus_repopulated);
        m.set("imcs.repopulations", rebuilt);

        if threaded {
            let busy = |after: &MetricsSnapshot, before: &MetricsSnapshot, stage: &str| {
                busy_us(after, stage) - busy_us(before, stage)
            };
            m.set(
                "redo.ship_us_per_record",
                ratio(
                    busy(&p1, p0, "transport"),
                    d(p1.transport.records_shipped, p0.transport.records_shipped),
                ),
            );
            let merged = d(s1.merger.records_merged, s0.merger.records_merged);
            m.set("recovery.ingest_us_per_record", ratio(busy(&s1, s0, "merger"), merged));
            m.set("recovery.apply_us_per_record", ratio(busy(&s1, s0, "apply"), merged));
            m.set("recovery.advance_us_per_publish", ratio(busy(&s1, s0, "flush"), publishes));
            m.set(
                "imcs.populate_us_per_krow",
                ratio(busy(&s1, s0, "population"), (built + rebuilt) * KROWS_PER_UNIT),
            );
        }
    }
}

/// Mean time a commit waited in each pipeline stage over the window. The
/// program stamps `receive` from generation, so the link's own share is
/// `receive - ship`; with that the six add up to the end-to-end mean.
pub fn set_waits(stages: &StageWindows, m: &mut Metrics) {
    let parts = [
        ("wait.ship_us", stages.ship.mean()),
        ("wait.receive_us", (stages.receive.mean() - stages.ship.mean()).max(0.0)),
        ("wait.merge_us", stages.merge.mean()),
        ("wait.apply_us", stages.apply.mean()),
        ("wait.flush_us", stages.flush.mean()),
        ("wait.publish_us", stages.publish.mean()),
    ];
    for (name, value) in parts {
        m.set(name, value);
    }
    m.set("wait.sum_over_e2e", ratio(parts.iter().map(|p| p.1).sum(), stages.e2e.mean()));
}

/// Mean per-query phase times and useful-versus-wasted work of the
/// profiled scans.
pub fn set_scan_profile(p: &ProfileSums, m: &mut Metrics) {
    let n = p.queries as f64;
    m.set("imcs.prune_us", ratio(p.prune_us as f64, n));
    m.set("imcs.kernel_us", ratio(p.kernel_us as f64, n));
    m.set("imcs.merge_us", ratio(p.merge_us as f64, n));
    m.set("imcs.fallback_us", ratio(p.fallback_us as f64, n));
    m.set("imcs.task_skew", ratio(p.skew_sum, p.skew_queries as f64));
    m.set("imcs.pruned_unit_share", ratio(p.pruned_units as f64, p.units as f64));
    m.set("imcs.fallback_row_share", ratio(p.fallback_rows as f64, p.result_rows as f64));
    m.set(
        "db.query_overhead_us",
        ratio(p.serial_wall_us - p.serial_attributed_us as f64, p.serial_queries as f64),
    );
}
