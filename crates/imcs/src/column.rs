//! Column units: the encoded per-column payload of an IMCU, with the
//! encoding selector.

use std::sync::Arc;

use imadg_storage::{ColumnType, Value};

use crate::aggregate::Aggregates;
use crate::bitmap::SelBitmap;
use crate::encoding::dict::DictStrCu;
use crate::encoding::plain::PlainIntCu;
use crate::encoding::rle::RleIntCu;
use crate::predicate::Predicate;

/// Column-level min/max summary (the in-memory storage index input).
#[derive(Debug, Clone, PartialEq)]
pub enum MinMax {
    /// Integer bounds.
    Int(i64, i64),
    /// Lexicographic string bounds.
    Str(Arc<str>, Arc<str>),
    /// Column is entirely NULL in this unit.
    AllNull,
}

/// One encoded column of an IMCU.
#[derive(Debug, Clone)]
pub enum ColumnCu {
    /// Packed integers.
    Plain(PlainIntCu),
    /// Run-length-encoded integers.
    Rle(RleIntCu),
    /// Dictionary-encoded strings.
    Dict(DictStrCu),
}

impl ColumnCu {
    /// Encode `values` for a column of `ctype`, picking the encoding:
    /// strings dictionary-encode; integers RLE when runs dominate, plain
    /// otherwise.
    pub fn build(ctype: ColumnType, values: &[Value]) -> ColumnCu {
        match ctype {
            ColumnType::Varchar => ColumnCu::Dict(DictStrCu::build(values)),
            ColumnType::Int => {
                if RleIntCu::worthwhile(values) {
                    ColumnCu::Rle(RleIntCu::build(values))
                } else {
                    ColumnCu::Plain(PlainIntCu::build(values))
                }
            }
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnCu::Plain(c) => c.len(),
            ColumnCu::Rle(c) => c.len(),
            ColumnCu::Dict(c) => c.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at `row`.
    pub fn get(&self, row: usize) -> Value {
        match self {
            ColumnCu::Plain(c) => c.get(row),
            ColumnCu::Rle(c) => c.get(row),
            ColumnCu::Dict(c) => c.get(row),
        }
    }

    /// Min/max summary for the storage index.
    pub fn min_max(&self) -> MinMax {
        match self {
            ColumnCu::Plain(c) => c.min_max().map(|(a, b)| MinMax::Int(a, b)),
            ColumnCu::Rle(c) => c.min_max().map(|(a, b)| MinMax::Int(a, b)),
            ColumnCu::Dict(c) => c.min_max().map(|(a, b)| MinMax::Str(a, b)),
        }
        .unwrap_or(MinMax::AllNull)
    }

    /// Append matching row ids to `out` (scalar reference path).
    pub fn scan(&self, pred: &Predicate, out: &mut Vec<u32>) {
        match self {
            ColumnCu::Plain(c) => c.scan(pred, out),
            ColumnCu::Rle(c) => c.scan(pred, out),
            ColumnCu::Dict(c) => c.scan(pred, out),
        }
    }

    /// Write one match bit per row into `sel` (zeroed, sized to `len()`)
    /// through the encoding's branchless kernel.
    pub fn scan_bitmap(&self, pred: &Predicate, sel: &mut SelBitmap) {
        match self {
            ColumnCu::Plain(c) => c.scan_bitmap(pred, sel),
            ColumnCu::Rle(c) => c.scan_bitmap(pred, sel),
            ColumnCu::Dict(c) => c.scan_bitmap(pred, sel),
        }
    }

    /// Fold the selected rows into `aggs` without materializing row
    /// images (aggregation push-down over a selection bitmap).
    pub fn aggregate_masked(&self, sel: &SelBitmap, aggs: &mut Aggregates) {
        match self {
            ColumnCu::Plain(c) => c.aggregate_masked(sel, aggs),
            ColumnCu::Rle(c) => c.aggregate_masked(sel, aggs),
            ColumnCu::Dict(c) => c.aggregate_masked(sel, aggs),
        }
    }

    /// Approximate DRAM footprint of the encoded column (budget input for
    /// the cold tier's eviction policy).
    pub(crate) fn approx_bytes(&self) -> usize {
        match self {
            ColumnCu::Plain(c) => c.approx_bytes(),
            ColumnCu::Rle(c) => c.approx_bytes(),
            ColumnCu::Dict(c) => c.approx_bytes(),
        }
    }

    /// Serialize into `buf`: a one-byte encoding tag, then the encoding's
    /// own payload (the cold columnar page body). Two columns with equal
    /// bytes are the same encoding of the same cells.
    pub fn to_bytes(&self, buf: &mut Vec<u8>) {
        use crate::coldstore::codec::put_u8;
        match self {
            ColumnCu::Plain(c) => {
                put_u8(buf, 0);
                c.to_bytes(buf);
            }
            ColumnCu::Rle(c) => {
                put_u8(buf, 1);
                c.to_bytes(buf);
            }
            ColumnCu::Dict(c) => {
                put_u8(buf, 2);
                c.to_bytes(buf);
            }
        }
    }

    /// Decode a [`ColumnCu::to_bytes`] payload. `None` = corrupt.
    pub(crate) fn from_bytes(r: &mut crate::coldstore::codec::Reader<'_>) -> Option<ColumnCu> {
        match r.u8()? {
            0 => Some(ColumnCu::Plain(crate::encoding::plain::PlainIntCu::from_bytes(r)?)),
            1 => Some(ColumnCu::Rle(crate::encoding::rle::RleIntCu::from_bytes(r)?)),
            2 => Some(ColumnCu::Dict(crate::encoding::dict::DictStrCu::from_bytes(r)?)),
            _ => None,
        }
    }
}

impl MinMax {
    /// Serialize into `buf` (cold footer summary entry). `MinMax` is not
    /// serde-serializable (it holds `Arc<str>`), so the footer uses the
    /// same tag-byte codec as the column pages.
    pub(crate) fn to_bytes(&self, buf: &mut Vec<u8>) {
        use crate::coldstore::codec::*;
        match self {
            MinMax::Int(lo, hi) => {
                put_u8(buf, 0);
                put_i64(buf, *lo);
                put_i64(buf, *hi);
            }
            MinMax::Str(lo, hi) => {
                put_u8(buf, 1);
                put_str(buf, lo);
                put_str(buf, hi);
            }
            MinMax::AllNull => put_u8(buf, 2),
        }
    }

    /// Decode a [`MinMax::to_bytes`] payload. `None` = corrupt.
    pub(crate) fn from_bytes(r: &mut crate::coldstore::codec::Reader<'_>) -> Option<MinMax> {
        match r.u8()? {
            0 => Some(MinMax::Int(r.i64()?, r.i64()?)),
            1 => Some(MinMax::Str(Arc::from(r.str()?), Arc::from(r.str()?))),
            2 => Some(MinMax::AllNull),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use imadg_storage::Schema;

    #[test]
    fn selector_picks_encodings() {
        let runs: Vec<Value> = (0..256).map(|i| Value::Int(i / 64)).collect();
        assert!(matches!(ColumnCu::build(ColumnType::Int, &runs), ColumnCu::Rle(_)));
        let distinct: Vec<Value> = (0..256).map(Value::Int).collect();
        assert!(matches!(ColumnCu::build(ColumnType::Int, &distinct), ColumnCu::Plain(_)));
        let strs = vec![Value::str("a"), Value::str("b")];
        assert!(matches!(ColumnCu::build(ColumnType::Varchar, &strs), ColumnCu::Dict(_)));
    }

    #[test]
    fn uniform_access_across_encodings() {
        let vals: Vec<Value> = (0..100).map(|i| Value::Int(i % 3)).collect();
        for cu in [ColumnCu::Plain(PlainIntCu::build(&vals)), ColumnCu::Rle(RleIntCu::build(&vals))]
        {
            assert_eq!(cu.len(), 100);
            assert_eq!(cu.get(4), Value::Int(1));
            assert_eq!(cu.min_max(), MinMax::Int(0, 2));
            let s = Schema::of(&[("n", ColumnType::Int)]);
            let p = Predicate::new(&s, "n", CmpOp::Eq, Value::Int(2)).unwrap();
            let mut out = Vec::new();
            cu.scan(&p, &mut out);
            assert_eq!(out.len(), 33);
        }
    }

    #[test]
    fn all_null_summary() {
        let cu = ColumnCu::build(ColumnType::Int, &[Value::Null, Value::Null]);
        assert_eq!(cu.min_max(), MinMax::AllNull);
    }
}
