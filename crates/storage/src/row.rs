//! Shared, immutable row images.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::value::Value;

/// An immutable row image.
///
/// Rows are reference-counted: the same image is held by the block version
/// chain, travels inside a change vector to the standby, and may be read by
//  the column-store population path — all without copying 101 values.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Row(Arc<[Value]>);

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row(values.into())
    }

    /// Build a row of `len` values pulled from `next`, in one allocation
    /// (no intermediate `Vec`); the first error `next` returns aborts it.
    pub fn try_build<E>(len: usize, mut next: impl FnMut() -> Result<Value, E>) -> Result<Row, E> {
        let mut values: Arc<[Value]> = std::iter::repeat_n(Value::Null, len).collect();
        let slots = Arc::get_mut(&mut values).expect("a freshly built Arc is unique");
        for slot in slots {
            *slot = next()?;
        }
        Ok(Row(values))
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the row stores no values.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Value at `ordinal`, or NULL for ordinals beyond the stored arity
    /// (columns added by dictionary-only DDL after this row was written).
    #[inline]
    pub fn get(&self, ordinal: usize) -> &Value {
        self.0.get(ordinal).unwrap_or(&Value::Null)
    }

    /// Do `a` and `b` share one image allocation? Images are immutable, so
    /// `true` proves equal contents; `false` proves nothing (equal values
    /// may live in two allocations). While a holder keeps `a` alive its
    /// address cannot be reused, so a later image never aliases it.
    #[inline]
    pub fn ptr_eq(a: &Row, b: &Row) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Produce a new row with `ordinal` replaced by `value`, widening with
    /// NULLs if the ordinal lies beyond the current arity.
    pub fn with(&self, ordinal: usize, value: Value) -> Row {
        let mut v: Vec<Value> = self.0.to_vec();
        if ordinal >= v.len() {
            v.resize(ordinal + 1, Value::Null);
        }
        v[ordinal] = value;
        Row::new(v)
    }
}

impl Index<usize> for Row {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.get(i)
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter()).finish()
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Row {
        Row::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let r = Row::new(vec![Value::Int(1), Value::str("a")]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r[0], Value::Int(1));
        assert_eq!(r.get(1).as_str(), Some("a"));
    }

    #[test]
    fn out_of_range_reads_null() {
        let r = Row::new(vec![Value::Int(1)]);
        assert!(r.get(5).is_null());
    }

    #[test]
    fn with_replaces_and_widens() {
        let r = Row::new(vec![Value::Int(1)]);
        let r2 = r.with(0, Value::Int(9));
        assert_eq!(r2[0], Value::Int(9));
        assert_eq!(r[0], Value::Int(1), "original untouched");
        let r3 = r.with(3, Value::str("x"));
        assert_eq!(r3.len(), 4);
        assert!(r3[1].is_null() && r3[2].is_null());
        assert_eq!(r3[3].as_str(), Some("x"));
    }

    #[test]
    fn clone_shares_storage() {
        let r = Row::new(vec![Value::Int(1)]);
        let c = r.clone();
        assert!(Arc::ptr_eq(&r.0, &c.0));
    }

    #[test]
    fn ptr_eq_is_identity_not_equality() {
        let r = Row::new(vec![Value::Int(1)]);
        assert!(Row::ptr_eq(&r, &r.clone()));
        let twin = Row::new(vec![Value::Int(1)]);
        assert_eq!(r, twin);
        assert!(!Row::ptr_eq(&r, &twin), "equal contents, distinct images");
    }
}
