//! Per-query phase profiling (`QueryRequest::profile()`).
//!
//! A profiled query returns a [`QueryProfile`]: wall-clock time split
//! across the scan engine's phases — storage-index pruning, columnar
//! kernels, SMU journal merge, row-store fallback, the uncovered-block
//! frontier sweep — plus one [`UnitTiming`] per parallel per-unit task so
//! skew across the worker pool is observable.

/// Timing breakdown of one per-unit scan task (one slot of the parallel
/// driver's task array, in unit order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitTiming {
    /// Task index in unit order (stable across parallel degrees).
    pub unit: usize,
    /// Whole task wall time in microseconds — the skew basis.
    pub total_us: u64,
    /// Columnar kernel time: predicate bitmap evaluation plus the
    /// survivors' row-image fetch from the row store (or masked
    /// aggregation). For a pruned unit this is the storage-index evaluation
    /// that excluded it.
    pub kernel_us: u64,
    /// SMU journal merge: validity-mask construction/AND and stale-location
    /// collection.
    pub merge_us: u64,
    /// Row-store fallback: Consistent-Read fetches for stale rows, or the
    /// whole-range block scan of a bypassed unit.
    pub fallback_us: u64,
    /// Whether the unit's min/max storage index excluded it entirely.
    pub pruned: bool,
    /// Whether the unit bypassed to the row store (pending / all-invalid /
    /// snapshot predates population).
    pub bypassed: bool,
    /// Whether a cold (evicted) unit was excluded by its on-disk footer
    /// min/max before any file I/O.
    pub cold_pruned: bool,
    /// Whether the unit was served by decoding its cold columnar file.
    pub cold_read: bool,
}

/// A per-query phase breakdown, returned when the request set
/// `QueryRequest::profile()`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// Storage-index evaluation time over units the index pruned.
    pub pruning_us: u64,
    /// Columnar kernel time across all scanned units.
    pub kernel_us: u64,
    /// SMU journal-merge time across all units.
    pub merge_us: u64,
    /// Row-store fallback time across all units (stale rows + bypasses).
    pub fallback_us: u64,
    /// Uncovered-block frontier sweep (serial tail after the unit walk).
    pub uncovered_us: u64,
    /// Per-task timings in unit order — one entry per parallel task.
    pub tasks: Vec<UnitTiming>,
    /// The resolved parallel degree the query executed with.
    pub parallel_degree: usize,
}

impl QueryProfile {
    /// Fold one task's timing in, routing its kernel time to `pruning_us`
    /// when the storage index excluded the unit.
    pub fn absorb_task(&mut self, t: UnitTiming) {
        if t.pruned {
            self.pruning_us += t.kernel_us;
        } else {
            self.kernel_us += t.kernel_us;
        }
        self.merge_us += t.merge_us;
        self.fallback_us += t.fallback_us;
        self.tasks.push(t);
    }

    /// Parallel task skew: slowest task over mean task time (`1.0` =
    /// perfectly balanced; large = one straggler dominated the query).
    pub fn task_skew(&self) -> f64 {
        if self.tasks.is_empty() {
            return 1.0;
        }
        let max = self.tasks.iter().map(|t| t.total_us).max().unwrap_or(0);
        let sum: u64 = self.tasks.iter().map(|t| t.total_us).sum();
        let mean = sum as f64 / self.tasks.len() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max as f64 / mean
        }
    }

    /// The slowest per-unit task, when any ran.
    pub fn slowest_task(&self) -> Option<&UnitTiming> {
        self.tasks.iter().max_by_key(|t| t.total_us)
    }

    /// Total attributed phase time (µs) across all phases.
    pub fn attributed_us(&self) -> u64 {
        self.pruning_us + self.kernel_us + self.merge_us + self.fallback_us + self.uncovered_us
    }
}

impl std::fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "profile: pruning={}us kernel={}us merge={}us fallback={}us uncovered={}us \
             tasks={} degree={} skew={:.2}",
            self.pruning_us,
            self.kernel_us,
            self.merge_us,
            self.fallback_us,
            self.uncovered_us,
            self.tasks.len(),
            self.parallel_degree,
            self.task_skew(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(unit: usize, total: u64, kernel: u64, pruned: bool) -> UnitTiming {
        UnitTiming { unit, total_us: total, kernel_us: kernel, pruned, ..Default::default() }
    }

    #[test]
    fn pruned_kernel_time_routes_to_pruning() {
        let mut p = QueryProfile::default();
        p.absorb_task(task(0, 10, 7, false));
        p.absorb_task(task(1, 4, 3, true));
        assert_eq!(p.kernel_us, 7);
        assert_eq!(p.pruning_us, 3);
        assert_eq!(p.tasks.len(), 2);
    }

    #[test]
    fn skew_is_max_over_mean() {
        let mut p = QueryProfile::default();
        p.absorb_task(task(0, 10, 0, false));
        p.absorb_task(task(1, 30, 0, false));
        assert!((p.task_skew() - 1.5).abs() < 1e-9);
        assert_eq!(p.slowest_task().unwrap().unit, 1);
    }

    #[test]
    fn empty_profile_skew_is_one() {
        let p = QueryProfile::default();
        assert_eq!(p.task_skew(), 1.0);
        assert!(p.slowest_task().is_none());
    }
}
