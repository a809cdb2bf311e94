//! Dictionary-encoded string column unit.
//!
//! The dominant IMCU encoding for varchar columns: distinct values live in
//! a sorted dictionary, rows store fixed-width codes. Equality predicates
//! reduce to one dictionary binary-search plus an integer-code scan; range
//! predicates map to code-range scans because the dictionary is sorted.

use std::sync::Arc;

use imadg_storage::Value;

use crate::bitmap::SelBitmap;
use crate::predicate::{CmpOp, Predicate};

/// Code reserved for NULL.
const NULL_CODE: u32 = u32::MAX;

/// Dictionary-encoded string column unit.
#[derive(Debug, Clone)]
pub struct DictStrCu {
    /// Sorted distinct values.
    dict: Vec<Arc<str>>,
    /// Per-row dictionary codes (`NULL_CODE` = NULL).
    codes: Vec<u32>,
}

impl DictStrCu {
    /// Encode a slice of values (`Str` or `Null`).
    ///
    /// Hash-interns the distinct values first (O(n)), sorts only the
    /// distinct set, then remaps codes — population builds whole IMCUs, so
    /// this path must stay cheap (rebuild cost is the edge-IMCU churn cost
    /// of the paper's Fig. 10).
    pub fn build(values: &[Value]) -> DictStrCu {
        let mut interner: imadg_common::FxHashMap<Arc<str>, u32> =
            imadg_common::FxHashMap::default();
        let mut provisional: Vec<u32> = Vec::with_capacity(values.len());
        for v in values {
            match v {
                Value::Str(s) => {
                    let next = interner.len() as u32;
                    let id = *interner.entry(s.clone()).or_insert(next);
                    provisional.push(id);
                }
                _ => provisional.push(NULL_CODE),
            }
        }
        let mut entries: Vec<(Arc<str>, u32)> = interner.into_iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut remap = vec![0u32; entries.len()];
        for (sorted_idx, (_, prov)) in entries.iter().enumerate() {
            remap[*prov as usize] = sorted_idx as u32;
        }
        let codes = provisional
            .into_iter()
            .map(|p| if p == NULL_CODE { NULL_CODE } else { remap[p as usize] })
            .collect();
        let dict = entries.into_iter().map(|(s, _)| s).collect();
        DictStrCu { dict, codes }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Distinct-value count.
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// Value at `row`.
    #[inline]
    pub fn get(&self, row: usize) -> Value {
        match self.codes[row] {
            NULL_CODE => Value::Null,
            c => Value::Str(self.dict[c as usize].clone()),
        }
    }

    /// Lexicographic min/max over non-null values.
    pub fn min_max(&self) -> Option<(Arc<str>, Arc<str>)> {
        // Sorted dictionary: endpoints are the extremes — but only if some
        // row references them; every dict entry came from a row, so yes.
        Some((self.dict.first()?.clone(), self.dict.last()?.clone()))
    }

    /// Translate `pred` into an inclusive code range `[lo, hi]` plus an
    /// excluded exact code (for `Ne`; [`NULL_CODE`] when nothing is
    /// excluded — NULL never matches anyway). `None` means no row can
    /// match. The empty-dictionary guard sits *above* the bound
    /// computation so the `wrapping_sub`-based bounds are never formed for
    /// an empty dict.
    fn code_bounds(&self, pred: &Predicate) -> Option<(u32, u32, u32)> {
        if self.dict.is_empty() {
            return None;
        }
        let target = match &pred.value {
            Value::Str(s) => s.as_ref(),
            _ => return None,
        };
        let last = (self.dict.len() - 1) as u32;
        // Position of the literal in code space.
        let pos = self.dict.binary_search_by(|d| d.as_ref().cmp(target));
        match (pred.op, pos) {
            (CmpOp::Eq, Ok(c)) => Some((c as u32, c as u32, NULL_CODE)),
            (CmpOp::Eq, Err(_)) => None,
            (CmpOp::Ne, Ok(c)) => Some((0, last, c as u32)),
            (CmpOp::Ne, Err(_)) => Some((0, last, NULL_CODE)),
            (CmpOp::Lt, Ok(c) | Err(c)) | (CmpOp::Le, Err(c)) => {
                if c == 0 {
                    None
                } else {
                    Some((0, (c - 1) as u32, NULL_CODE))
                }
            }
            (CmpOp::Le, Ok(c)) => Some((0, c as u32, NULL_CODE)),
            (CmpOp::Gt, Ok(c)) => {
                if c as u32 >= last {
                    None
                } else {
                    Some((c as u32 + 1, last, NULL_CODE))
                }
            }
            (CmpOp::Gt, Err(c)) | (CmpOp::Ge, Err(c)) => {
                if c >= self.dict.len() {
                    None
                } else {
                    Some((c as u32, last, NULL_CODE))
                }
            }
            (CmpOp::Ge, Ok(c)) => Some((c as u32, last, NULL_CODE)),
        }
    }

    /// Write one match bit per row into `sel` (zeroed, sized to `len()`):
    /// one dictionary binary-search turns the literal into code bounds,
    /// then the row loop is branchless u32 compares over the packed codes.
    /// `NULL_CODE` rows never match (they exceed every valid `hi`).
    pub fn scan_bitmap(&self, pred: &Predicate, sel: &mut SelBitmap) {
        debug_assert_eq!(sel.rows(), self.len());
        let Some((lo, hi, exclude)) = self.code_bounds(pred) else {
            return;
        };
        let words = sel.words_mut();
        for (w, chunk) in self.codes.chunks(64).enumerate() {
            let mut m = 0u64;
            for (b, &c) in chunk.iter().enumerate() {
                m |= (((c >= lo) & (c <= hi) & (c != exclude)) as u64) << b;
            }
            words[w] = m;
        }
        sel.mask_tail();
    }

    /// Fold the selected rows into `aggs` in code space: null detection
    /// and min/max tracking happen on codes, and only the final extremes
    /// touch the dictionary.
    pub fn aggregate_masked(&self, sel: &SelBitmap, aggs: &mut crate::aggregate::Aggregates) {
        let mut min_max: Option<(u32, u32)> = None;
        for rn in sel.iter_ones() {
            let c = self.codes[rn as usize];
            aggs.count += 1;
            if c == NULL_CODE {
                continue;
            }
            aggs.non_null += 1;
            min_max = match min_max {
                None => Some((c, c)),
                Some((lo, hi)) => Some((lo.min(c), hi.max(c))),
            };
        }
        if let Some((lo, hi)) = min_max {
            aggs.merge_min(&Value::Str(self.dict[lo as usize].clone()));
            aggs.merge_max(&Value::Str(self.dict[hi as usize].clone()));
        }
    }

    /// Approximate DRAM footprint of the encoded unit.
    pub(crate) fn approx_bytes(&self) -> usize {
        let dict: usize = self.dict.iter().map(|s| s.len() + 16).sum();
        dict + self.codes.len() * 4 + 16
    }

    /// Serialize into `buf` (cold columnar page payload).
    pub(crate) fn to_bytes(&self, buf: &mut Vec<u8>) {
        use crate::coldstore::codec::*;
        put_u32(buf, self.dict.len() as u32);
        for s in &self.dict {
            put_str(buf, s);
        }
        put_u64(buf, self.codes.len() as u64);
        for &c in &self.codes {
            put_u32(buf, c);
        }
    }

    /// Decode a [`DictStrCu::to_bytes`] payload. `None` = corrupt.
    pub(crate) fn from_bytes(r: &mut crate::coldstore::codec::Reader<'_>) -> Option<DictStrCu> {
        let dict_len = r.len_u32()?;
        let mut dict: Vec<Arc<str>> = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            dict.push(Arc::from(r.str()?));
        }
        // The dictionary must be sorted — code_bounds binary-searches it.
        if dict.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let rows = r.len_u64()?;
        let mut codes = Vec::with_capacity(rows);
        for _ in 0..rows {
            let c = r.u32()?;
            if c != NULL_CODE && c as usize >= dict_len {
                return None;
            }
            codes.push(c);
        }
        Some(DictStrCu { dict, codes })
    }

    /// Append rows matching `pred` to `out` — the scalar reference path
    /// (kept as the parity baseline for the bitmap kernel).
    pub fn scan(&self, pred: &Predicate, out: &mut Vec<u32>) {
        let Some((lo, hi, exclude)) = self.code_bounds(pred) else {
            return;
        };
        for (i, &c) in self.codes.iter().enumerate() {
            if c != NULL_CODE && c >= lo && c <= hi && c != exclude {
                out.push(i as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_storage::{ColumnType, Schema};

    fn pred(op: CmpOp, s: &str) -> Predicate {
        let sc = Schema::of(&[("c", ColumnType::Varchar)]);
        Predicate::new(&sc, "c", op, Value::str(s)).unwrap()
    }

    fn cu(vals: &[&str]) -> DictStrCu {
        let v: Vec<Value> = vals.iter().map(|s| Value::str(*s)).collect();
        DictStrCu::build(&v)
    }

    #[test]
    fn roundtrip() {
        let c = cu(&["b", "a", "b", "c"]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.cardinality(), 3);
        assert_eq!(c.get(0), Value::str("b"));
        assert_eq!(c.get(1), Value::str("a"));
        assert_eq!(c.get(3), Value::str("c"));
        let (lo, hi) = c.min_max().unwrap();
        assert_eq!((lo.as_ref(), hi.as_ref()), ("a", "c"));
    }

    #[test]
    fn nulls_roundtrip_and_never_match() {
        let c = DictStrCu::build(&[Value::str("a"), Value::Null]);
        assert_eq!(c.get(1), Value::Null);
        let mut out = Vec::new();
        c.scan(&pred(CmpOp::Ne, "zzz"), &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn eq_scan() {
        let c = cu(&["x", "y", "x", "z"]);
        let mut out = Vec::new();
        c.scan(&pred(CmpOp::Eq, "x"), &mut out);
        assert_eq!(out, vec![0, 2]);
        out.clear();
        c.scan(&pred(CmpOp::Eq, "absent"), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn range_scans_via_sorted_codes() {
        let c = cu(&["b", "d", "a", "c"]);
        let collect = |op, s: &str| {
            let mut out = Vec::new();
            c.scan(&pred(op, s), &mut out);
            out
        };
        assert_eq!(collect(CmpOp::Lt, "c"), vec![0, 2]); // b, a
        assert_eq!(collect(CmpOp::Le, "c"), vec![0, 2, 3]);
        assert_eq!(collect(CmpOp::Gt, "b"), vec![1, 3]); // d, c
        assert_eq!(collect(CmpOp::Ge, "b"), vec![0, 1, 3]);
        assert_eq!(collect(CmpOp::Ne, "b"), vec![1, 2, 3]);
        // Literal between dictionary entries.
        assert_eq!(collect(CmpOp::Lt, "bb"), vec![0, 2]);
        assert_eq!(collect(CmpOp::Ge, "bb"), vec![1, 3]);
        // Out-of-range literals.
        assert!(collect(CmpOp::Lt, "a").is_empty());
        assert!(collect(CmpOp::Gt, "d").is_empty());
        assert_eq!(collect(CmpOp::Ne, "nope").len(), 4);
    }

    #[test]
    fn empty_dict_scans_nothing() {
        let c = DictStrCu::build(&[Value::Null, Value::Null]);
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let mut out = Vec::new();
            c.scan(&pred(op, "x"), &mut out);
            assert!(out.is_empty(), "{op:?}");
            let mut sel = SelBitmap::zeroes(c.len());
            c.scan_bitmap(&pred(op, "x"), &mut sel);
            assert!(sel.is_empty(), "{op:?}");
        }
    }

    #[test]
    fn bitmap_kernel_matches_scalar() {
        let vals: Vec<Value> = (0..150)
            .map(|i| if i % 11 == 0 { Value::Null } else { Value::str(format!("s{}", i % 9)) })
            .collect();
        let c = DictStrCu::build(&vals);
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for lit in ["s0", "s4", "s8", "absent", ""] {
                let p = pred(op, lit);
                let mut scalar = Vec::new();
                c.scan(&p, &mut scalar);
                let mut sel = SelBitmap::zeroes(c.len());
                c.scan_bitmap(&p, &mut sel);
                assert_eq!(sel.iter_ones().collect::<Vec<_>>(), scalar, "{op:?} {lit:?}");
            }
        }
    }

    #[test]
    fn masked_aggregate_in_code_space() {
        let c = DictStrCu::build(&[Value::str("m"), Value::Null, Value::str("a"), Value::str("z")]);
        let mut sel = SelBitmap::ones(4);
        sel.clear(3); // drop the "z"
        let mut aggs = crate::aggregate::Aggregates::default();
        c.aggregate_masked(&sel, &mut aggs);
        assert_eq!(aggs.count, 3);
        assert_eq!(aggs.non_null, 2);
        assert_eq!(aggs.min, Some(Value::str("a")));
        assert_eq!(aggs.max, Some(Value::str("m")));
    }
}
