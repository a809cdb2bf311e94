//! In-memory storage indexes: per-IMCU, per-column min/max summaries that
//! let the scan engine skip entire IMCUs whose value range cannot satisfy
//! the predicate (paper §II.B, "in-memory storage indexes").

use std::sync::Arc;

use imadg_storage::Value;

use crate::column::{ColumnCu, MinMax};
use crate::predicate::{CmpOp, Predicate};

/// Min/max summaries for every column of one IMCU.
#[derive(Debug, Clone, Default)]
pub struct StorageIndex {
    summaries: Vec<MinMax>,
}

impl StorageIndex {
    /// Build from per-column summaries (ordinal-indexed).
    pub fn new(summaries: Vec<MinMax>) -> StorageIndex {
        StorageIndex { summaries }
    }

    /// Summarize every encoded column of a unit (ordinal-indexed).
    pub(crate) fn of_columns(columns: &[Arc<ColumnCu>]) -> StorageIndex {
        StorageIndex::new(columns.iter().map(|c| c.min_max()).collect())
    }

    /// The summary for `ordinal`, if stored.
    pub fn summary(&self, ordinal: usize) -> Option<&MinMax> {
        self.summaries.get(ordinal)
    }

    /// All per-column summaries, ordinal-indexed (cold footer input).
    pub fn summaries(&self) -> &[MinMax] {
        &self.summaries
    }

    /// Can any row in the unit satisfy `pred`? `true` means the unit must
    /// be scanned; `false` proves it can be skipped.
    pub fn may_match(&self, pred: &Predicate) -> bool {
        let Some(mm) = self.summaries.get(pred.ordinal) else {
            return true; // unknown column (added by DDL): cannot prune
        };
        match (mm, &pred.value) {
            (MinMax::AllNull, _) => false, // NULL matches nothing
            (MinMax::Int(lo, hi), Value::Int(x)) => range_may_match(pred.op, *lo, *hi, *x),
            (MinMax::Str(lo, hi), Value::Str(x)) => {
                range_may_match_ord(pred.op, lo.as_ref(), hi.as_ref(), x.as_ref())
            }
            _ => true, // type mismatch: be conservative
        }
    }
}

fn range_may_match(op: CmpOp, lo: i64, hi: i64, x: i64) -> bool {
    match op {
        CmpOp::Eq => lo <= x && x <= hi,
        CmpOp::Ne => !(lo == x && hi == x),
        CmpOp::Lt => lo < x,
        CmpOp::Le => lo <= x,
        CmpOp::Gt => hi > x,
        CmpOp::Ge => hi >= x,
    }
}

fn range_may_match_ord(op: CmpOp, lo: &str, hi: &str, x: &str) -> bool {
    match op {
        CmpOp::Eq => lo <= x && x <= hi,
        CmpOp::Ne => !(lo == x && hi == x),
        CmpOp::Lt => lo < x,
        CmpOp::Le => lo <= x,
        CmpOp::Gt => hi > x,
        CmpOp::Ge => hi >= x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_storage::{ColumnType, Schema};

    fn idx() -> StorageIndex {
        StorageIndex::new(vec![
            MinMax::Int(10, 20),
            MinMax::Str("b".into(), "d".into()),
            MinMax::AllNull,
        ])
    }

    fn p(op: CmpOp, v: Value, ord: usize) -> Predicate {
        let s = Schema::of(&[
            ("n", ColumnType::Int),
            ("c", ColumnType::Varchar),
            ("z", ColumnType::Int),
        ]);
        let name = ["n", "c", "z"][ord];
        Predicate::new(&s, name, op, v).unwrap()
    }

    #[test]
    fn int_pruning() {
        let i = idx();
        assert!(i.may_match(&p(CmpOp::Eq, Value::Int(15), 0)));
        assert!(!i.may_match(&p(CmpOp::Eq, Value::Int(25), 0)));
        assert!(!i.may_match(&p(CmpOp::Lt, Value::Int(10), 0)));
        assert!(i.may_match(&p(CmpOp::Le, Value::Int(10), 0)));
        assert!(!i.may_match(&p(CmpOp::Gt, Value::Int(20), 0)));
        assert!(i.may_match(&p(CmpOp::Ge, Value::Int(20), 0)));
    }

    #[test]
    fn ne_pruning_only_when_constant() {
        let single = StorageIndex::new(vec![MinMax::Int(7, 7)]);
        let s = Schema::of(&[("n", ColumnType::Int)]);
        let ne7 = Predicate::new(&s, "n", CmpOp::Ne, Value::Int(7)).unwrap();
        let ne8 = Predicate::new(&s, "n", CmpOp::Ne, Value::Int(8)).unwrap();
        assert!(!single.may_match(&ne7));
        assert!(single.may_match(&ne8));
    }

    #[test]
    fn string_pruning() {
        let i = idx();
        assert!(i.may_match(&p(CmpOp::Eq, Value::str("c"), 1)));
        assert!(!i.may_match(&p(CmpOp::Eq, Value::str("x"), 1)));
        assert!(!i.may_match(&p(CmpOp::Gt, Value::str("d"), 1)));
    }

    #[test]
    fn all_null_prunes_everything() {
        let i = idx();
        assert!(!i.may_match(&p(CmpOp::Ne, Value::Int(0), 2)));
    }

    #[test]
    fn unknown_column_never_prunes() {
        let i = StorageIndex::new(vec![]);
        assert!(i.may_match(&p(CmpOp::Eq, Value::Int(1), 0)));
    }
}
