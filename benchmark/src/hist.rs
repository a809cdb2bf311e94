//! Window maths over the program's `LogHistogram` snapshots, and exact
//! percentiles over the benchmark's own samples.
//!
//! The staleness histograms live inside the program and accumulate from
//! start-up, so the load-phase commits (all seconds old when they publish)
//! would otherwise be the p99 of every run. A window is the bucket-wise
//! difference of two snapshots; quantiles interpolate linearly inside the
//! bucket instead of stepping to its upper bound (12.5 % apart).

use imadg_common::metrics::{LogHistogram, LogHistogramSnapshot};

/// What a histogram recorded between two snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    pub count: u64,
    pub sum: u64,
    /// `(bucket index, samples)`, occupied buckets only, in index order.
    buckets: Vec<(usize, u64)>,
}

/// `end - start`, bucket by bucket. Both snapshots must come from the same
/// histogram, `start` taken first.
pub fn window(start: &LogHistogramSnapshot, end: &LogHistogramSnapshot) -> Window {
    let mut buckets = Vec::new();
    for b in &end.buckets {
        let before = start
            .buckets
            .binary_search_by_key(&b.index, |x| x.index)
            .map(|i| start.buckets[i].count)
            .unwrap_or(0);
        if b.count > before {
            buckets.push((b.index as usize, b.count - before));
        }
    }
    Window {
        count: end.count.saturating_sub(start.count),
        sum: end.sum.saturating_sub(start.sum),
        buckets,
    }
}

impl Window {
    /// Exact mean: `sum` and `count` are plain counters.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile `q` in `[0, 1]`, interpolated linearly inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut seen = 0u64;
        for &(index, count) in &self.buckets {
            if (seen + count) as f64 >= rank {
                let lower = if index == 0 { 0 } else { LogHistogram::bucket_bound(index - 1) + 1 };
                let width = (LogHistogram::bucket_bound(index) - lower + 1) as f64;
                let into = (rank - seen as f64) / count as f64;
                return lower as f64 + into * width;
            }
            seen += count;
        }
        unreachable!("rank {rank} lies within the {total} samples")
    }
}

/// Percentile `q` in `[0, 1]` of `samples` (sorted in place), interpolating
/// between the two nearest order statistics.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), which is what the driver computes spreads from.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difference_of_identical_snapshots_is_empty() {
        let h = LogHistogram::new();
        for v in [3, 90, 1_500, 2_000_000] {
            h.record_value(v);
        }
        let snap = h.snapshot();
        let w = window(&snap, &snap);
        assert_eq!(w, Window::default());
        assert_eq!(w.quantile(0.5), 0.0);
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn window_drops_what_was_recorded_before_it() {
        let h = LogHistogram::new();
        // Load-phase commits: seconds old.
        for _ in 0..20 {
            h.record_value(3_000_000);
        }
        let start = h.snapshot();
        for v in 100..1_100u64 {
            h.record_value(v);
        }
        let w = window(&start, &h.snapshot());
        assert_eq!(w.count, 1_000);
        assert_eq!(w.sum, (100..1_100u64).sum::<u64>());
        assert!(w.quantile(0.99) < 1_200.0, "the load phase must not be the p99");
        // The whole-run snapshot, by contrast, has the load phase beyond p98.
        assert!(h.snapshot().quantile(0.99) >= 2_000_000);
    }

    #[test]
    fn interpolated_p50_is_within_one_sub_bucket_of_the_exact_value() {
        let h = LogHistogram::new();
        let mut samples: Vec<f64> = Vec::new();
        // A skewed but known set: 1..=5000 µs, denser at the low end.
        for i in 1..=5_000u64 {
            let v = 50 + (i * i) / 5_000;
            h.record_value(v);
            samples.push(v as f64);
        }
        let w = window(&LogHistogramSnapshot::default(), &h.snapshot());
        for q in [0.5, 0.9, 0.99] {
            let exact = percentile(&mut samples, q);
            let got = w.quantile(q);
            // One sub-bucket is 1/8 of an octave: at most 12.5 % of the value.
            assert!((got - exact).abs() <= exact * 0.125, "q={q}: {got} vs exact {exact}");
        }
        // Interpolation beats the built-in step (bucket upper bound) at p50.
        let exact = percentile(&mut samples, 0.5);
        let stepped = h.snapshot().p50() as f64;
        assert!((w.quantile(0.5) - exact).abs() <= (stepped - exact).abs());
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut v, 0.5), 2.5);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 4.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
