//! Aggregation push-down (paper §V: "novel formats and techniques used by
//! DBIM like in-memory storage indexes, aggregation push-down are extended
//! seamlessly to ADG").
//!
//! The executor's aggregate sink computes COUNT / SUM / MIN / MAX of one
//! column over the matching rows without materializing row images:
//!
//! * a clean unit (no journal) under a predicate that selects every row is
//!   answered **O(1)** from its pre-computed column aggregates and min/max
//!   — the footer's, for a cold unit;
//! * any other unit folds the aggregated column under the final selection
//!   bitmap, straight off the encoding;
//! * stale rows, bypassed units and uncovered blocks fold the row images
//!   the executor re-reads via Consistent Read — the same reconciliation
//!   as row scans, because it is the same executor.

use imadg_storage::{Row, Value};

use crate::bitmap::SelBitmap;
use crate::column::MinMax;
use crate::imcu::ColAgg;
use crate::scan::{Encoded, ScanResult, ScanStats, Sink};
use crate::storage_index::StorageIndex;

/// Running aggregates over one column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregates {
    /// Rows matching the filter (COUNT(*)).
    pub count: u64,
    /// Non-null values of the aggregated column among matching rows.
    pub non_null: u64,
    /// SUM over non-null integer values.
    pub sum: i128,
    /// MIN over non-null values.
    pub min: Option<Value>,
    /// MAX over non-null values.
    pub max: Option<Value>,
}

impl Aggregates {
    /// Fold one column value from a matching row.
    pub fn add(&mut self, v: &Value) {
        self.count += 1;
        match v {
            Value::Null => return,
            Value::Int(x) => self.sum += i128::from(*x),
            Value::Str(_) => {}
        }
        self.non_null += 1;
        self.merge_min(v);
        self.merge_max(v);
    }

    /// Lower `min` to `v` if smaller (masked-kernel and merge entry point).
    pub fn merge_min(&mut self, v: &Value) {
        if self.min.as_ref().is_none_or(|m| value_lt(v, m)) {
            self.min = Some(v.clone());
        }
    }

    /// Raise `max` to `v` if larger (masked-kernel and merge entry point).
    pub fn merge_max(&mut self, v: &Value) {
        if self.max.as_ref().is_none_or(|m| value_lt(m, v)) {
            self.max = Some(v.clone());
        }
    }

    /// Fold another partial aggregate in (parallel per-unit reduce).
    pub fn merge(&mut self, other: &Aggregates) {
        self.count += other.count;
        self.non_null += other.non_null;
        self.sum += other.sum;
        if let Some(m) = &other.min {
            self.merge_min(m);
        }
        if let Some(m) = &other.max {
            self.merge_max(m);
        }
    }

    /// AVG over non-null values.
    pub fn average(&self) -> Option<f64> {
        if self.non_null == 0 {
            None
        } else {
            Some(self.sum as f64 / self.non_null as f64)
        }
    }
}

fn value_lt(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x < y,
        (Value::Str(x), Value::Str(y)) => x.as_ref() < y.as_ref(),
        _ => false,
    }
}

/// A completed aggregate query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregateResult {
    /// The aggregates.
    pub aggs: Aggregates,
    /// Provenance counters.
    pub stats: ScanStats,
}

/// The aggregate sink: one column's running fold.
#[derive(Clone)]
pub(crate) struct AggregateSink {
    ordinal: usize,
    aggs: Aggregates,
}

impl AggregateSink {
    pub(crate) fn new(ordinal: usize) -> AggregateSink {
        AggregateSink { ordinal, aggs: Aggregates::default() }
    }
}

impl Sink for AggregateSink {
    fn summary(&mut self, rows: usize, aggs: &[ColAgg], index: &StorageIndex) -> bool {
        let Some(agg) = aggs.get(self.ordinal) else { return false };
        self.aggs.count += rows as u64;
        self.aggs.non_null += agg.non_null;
        self.aggs.sum += agg.sum;
        if agg.non_null > 0 {
            match index.summary(self.ordinal) {
                Some(MinMax::Int(lo, hi)) => {
                    self.aggs.merge_min(&Value::Int(*lo));
                    self.aggs.merge_max(&Value::Int(*hi));
                }
                Some(MinMax::Str(lo, hi)) => {
                    self.aggs.merge_min(&Value::Str(lo.clone()));
                    self.aggs.merge_max(&Value::Str(hi.clone()));
                }
                _ => {}
            }
        }
        true
    }

    /// The aggregated column is the only data decoded beyond the
    /// predicate's columns; a column the unit does not hold (added by DDL)
    /// aggregates as all-NULL.
    fn select(&mut self, sel: &SelBitmap, unit: &Encoded<'_>) -> Option<()> {
        match unit {
            Encoded::Hot(imcu) => imcu.aggregate_masked(self.ordinal, sel, &mut self.aggs),
            Encoded::Cold(file, _) if self.ordinal < file.meta.column_count() => {
                file.decode_column(self.ordinal)?.aggregate_masked(sel, &mut self.aggs)
            }
            Encoded::Cold(..) => self.aggs.count += sel.count() as u64,
        }
        Some(())
    }

    fn row(&mut self, row: &Row) {
        self.aggs.add(row.get(self.ordinal));
    }

    fn taken(&self) -> usize {
        self.aggs.count as usize
    }

    fn merge_into(self, result: &mut ScanResult) {
        result.aggregates.get_or_insert_default().merge(&self.aggs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_semantics() {
        let mut a = Aggregates::default();
        a.add(&Value::Int(5));
        a.add(&Value::Null);
        a.add(&Value::Int(-2));
        assert_eq!(a.count, 3, "COUNT(*) counts null rows");
        assert_eq!(a.non_null, 2);
        assert_eq!(a.sum, 3);
        assert_eq!(a.min, Some(Value::Int(-2)));
        assert_eq!(a.max, Some(Value::Int(5)));
        assert_eq!(a.average(), Some(1.5));
    }

    #[test]
    fn string_min_max() {
        let mut a = Aggregates::default();
        a.add(&Value::str("m"));
        a.add(&Value::str("a"));
        a.add(&Value::str("z"));
        assert_eq!(a.min, Some(Value::str("a")));
        assert_eq!(a.max, Some(Value::str("z")));
        assert_eq!(a.sum, 0);
    }

    #[test]
    fn empty_average_is_none() {
        let a = Aggregates::default();
        assert_eq!(a.average(), None);
    }
}
