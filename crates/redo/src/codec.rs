//! The binary redo-record codec shared by the wire format (`imadg-net`)
//! and the on-disk segment format ([`crate::durable`]).
//!
//! Records are encoded field-by-field with a hand-rolled layout (the
//! workspace's serde shim is deliberately minimal, and both a wire format
//! and a log-file format want explicit, versionable layout anyway).
//! Keeping one codec for both means a segment replayed from disk is
//! bit-identical to the batch that travelled the link — the recovery
//! pipeline cannot tell the difference, which is exactly the point.
//!
//! The persisted format is pluggable in the Adaptive-Logging sense: the
//! segment layer stores opaque encoded entries, so an alternative codec
//! (command logging, dictionary-compressed values) only has to provide
//! this module's `put_record`/`get_record` pair.

use imadg_common::{Dba, Error, ObjectId, RedoThreadId, Result, Scn, TenantId, TxnId};
use imadg_storage::{ChangeOp, ChangeVector, ColumnDef, ColumnType, Row, Schema, TableSpec, Value};

use crate::marker::{DdlKind, RedoMarker};
use crate::record::{CommitRecord, RedoPayload, RedoRecord};

// ---- primitive writers ---------------------------------------------------

/// Append one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian u16.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian u32.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian u64.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over an encoded payload; every read is bounds-checked so a
/// corrupt-but-checksum-colliding buffer still fails cleanly.
pub struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Error::WireCorrupt("frame truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the buffer so
    /// the caller allocates it once, in the type it keeps.
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| Error::WireCorrupt("invalid utf-8 string".into()))
    }

    /// Read a 0/1 boolean.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(Error::WireCorrupt(format!("bad bool tag {t}"))),
        }
    }

    /// Assert the buffer is fully consumed.
    pub fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::WireCorrupt("trailing bytes after frame".into()))
        }
    }
}

// ---- record codec --------------------------------------------------------

/// Encode one value.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Int(i) => {
            put_u8(out, 1);
            put_u64(out, *i as u64);
        }
        Value::Str(s) => {
            put_u8(out, 2);
            put_str(out, s);
        }
    }
}

/// Decode one value.
pub fn get_value(c: &mut Cur<'_>) -> Result<Value> {
    match c.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(c.i64()?)),
        2 => Ok(Value::str(c.str()?)),
        t => Err(Error::WireCorrupt(format!("bad value tag {t}"))),
    }
}

/// Encode one row image.
pub fn put_row(out: &mut Vec<u8>, row: &Row) {
    let vals = row.values();
    put_u16(out, vals.len() as u16);
    for v in vals {
        put_value(out, v);
    }
}

/// Decode one row image.
pub fn get_row(c: &mut Cur<'_>) -> Result<Row> {
    let n = c.u16()? as usize;
    Row::try_build(n, || get_value(c))
}

/// Encode one change operation.
pub fn put_op(out: &mut Vec<u8>, op: &ChangeOp) {
    match op {
        ChangeOp::Format { capacity } => {
            put_u8(out, 0);
            put_u16(out, *capacity);
        }
        ChangeOp::Insert { slot, row } => {
            put_u8(out, 1);
            put_u16(out, *slot);
            put_row(out, row);
        }
        ChangeOp::Update { slot, row } => {
            put_u8(out, 2);
            put_u16(out, *slot);
            put_row(out, row);
        }
        ChangeOp::Delete { slot } => {
            put_u8(out, 3);
            put_u16(out, *slot);
        }
    }
}

/// Decode one change operation.
pub fn get_op(c: &mut Cur<'_>) -> Result<ChangeOp> {
    match c.u8()? {
        0 => Ok(ChangeOp::Format { capacity: c.u16()? }),
        1 => Ok(ChangeOp::Insert { slot: c.u16()?, row: get_row(c)? }),
        2 => Ok(ChangeOp::Update { slot: c.u16()?, row: get_row(c)? }),
        3 => Ok(ChangeOp::Delete { slot: c.u16()? }),
        t => Err(Error::WireCorrupt(format!("bad change-op tag {t}"))),
    }
}

/// Encode one change vector.
pub fn put_cv(out: &mut Vec<u8>, cv: &ChangeVector) {
    put_u64(out, cv.dba.0);
    put_u32(out, cv.object.0);
    put_u16(out, cv.tenant.0);
    put_u64(out, cv.txn.0);
    put_op(out, &cv.op);
}

/// Decode one change vector.
pub fn get_cv(c: &mut Cur<'_>) -> Result<ChangeVector> {
    Ok(ChangeVector {
        dba: Dba(c.u64()?),
        object: ObjectId(c.u32()?),
        tenant: TenantId(c.u16()?),
        txn: TxnId(c.u64()?),
        op: get_op(c)?,
    })
}

/// Encode one column type.
pub fn put_ctype(out: &mut Vec<u8>, t: ColumnType) {
    put_u8(
        out,
        match t {
            ColumnType::Int => 0,
            ColumnType::Varchar => 1,
        },
    );
}

/// Decode one column type.
pub fn get_ctype(c: &mut Cur<'_>) -> Result<ColumnType> {
    match c.u8()? {
        0 => Ok(ColumnType::Int),
        1 => Ok(ColumnType::Varchar),
        t => Err(Error::WireCorrupt(format!("bad column-type tag {t}"))),
    }
}

/// Encode one table spec (CREATE TABLE marker payload).
pub fn put_spec(out: &mut Vec<u8>, spec: &TableSpec) {
    put_u32(out, spec.id.0);
    put_str(out, &spec.name);
    put_u16(out, spec.tenant.0);
    let cols = spec.schema.all_columns();
    put_u16(out, cols.len() as u16);
    for col in cols {
        put_str(out, &col.name);
        put_ctype(out, col.ctype);
        put_u8(out, u8::from(col.dropped));
    }
    put_u32(out, spec.key_ordinal as u32);
    put_u16(out, spec.rows_per_block);
}

/// Decode one table spec.
pub fn get_spec(c: &mut Cur<'_>) -> Result<TableSpec> {
    let id = ObjectId(c.u32()?);
    let name = c.str()?.to_owned();
    let tenant = TenantId(c.u16()?);
    let ncols = c.u16()? as usize;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let cname = c.str()?.to_owned();
        let ctype = get_ctype(c)?;
        let dropped = c.bool()?;
        cols.push(ColumnDef { name: cname, ctype, dropped });
    }
    // CREATE TABLE markers always carry freshly-created (version 1)
    // schemas, so rebuilding through the validating constructor is exact.
    let schema = Schema::new(cols).map_err(|e| Error::WireCorrupt(e.to_string()))?;
    let key_ordinal = c.u32()? as usize;
    let rows_per_block = c.u16()?;
    Ok(TableSpec { id, name, tenant, schema, key_ordinal, rows_per_block })
}

/// Encode one DDL redo marker.
pub fn put_marker(out: &mut Vec<u8>, m: &RedoMarker) {
    put_u32(out, m.object.0);
    put_u16(out, m.tenant.0);
    match &m.ddl {
        DdlKind::CreateTable(spec) => {
            put_u8(out, 0);
            put_spec(out, spec);
        }
        DdlKind::AddColumn { name, ctype } => {
            put_u8(out, 1);
            put_str(out, name);
            put_ctype(out, *ctype);
        }
        DdlKind::DropColumn { name } => {
            put_u8(out, 2);
            put_str(out, name);
        }
        DdlKind::SetInMemory { enabled } => {
            put_u8(out, 3);
            put_u8(out, u8::from(*enabled));
        }
    }
}

/// Decode one DDL redo marker.
pub fn get_marker(c: &mut Cur<'_>) -> Result<RedoMarker> {
    let object = ObjectId(c.u32()?);
    let tenant = TenantId(c.u16()?);
    let ddl = match c.u8()? {
        0 => DdlKind::CreateTable(get_spec(c)?),
        1 => DdlKind::AddColumn { name: c.str()?.to_owned(), ctype: get_ctype(c)? },
        2 => DdlKind::DropColumn { name: c.str()?.to_owned() },
        3 => DdlKind::SetInMemory { enabled: c.bool()? },
        t => return Err(Error::WireCorrupt(format!("bad ddl tag {t}"))),
    };
    Ok(RedoMarker { object, tenant, ddl })
}

/// Encode one redo record.
pub fn put_record(out: &mut Vec<u8>, r: &RedoRecord) {
    put_u8(out, r.thread.0);
    put_u64(out, r.scn.0);
    put_u64(out, r.born_us);
    match &r.payload {
        RedoPayload::Begin { txn, tenant } => {
            put_u8(out, 0);
            put_u64(out, txn.0);
            put_u16(out, tenant.0);
        }
        RedoPayload::Change(cvs) => {
            put_u8(out, 1);
            put_u32(out, cvs.len() as u32);
            for cv in cvs {
                put_cv(out, cv);
            }
        }
        RedoPayload::Commit(cr) => {
            put_u8(out, 2);
            put_u64(out, cr.txn.0);
            put_u16(out, cr.tenant.0);
            put_u64(out, cr.commit_scn.0);
            put_u8(
                out,
                match cr.modified_inmemory {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                },
            );
        }
        RedoPayload::Abort { txn, tenant } => {
            put_u8(out, 3);
            put_u64(out, txn.0);
            put_u16(out, tenant.0);
        }
        RedoPayload::Marker(m) => {
            put_u8(out, 4);
            put_marker(out, m);
        }
        RedoPayload::Heartbeat => put_u8(out, 5),
    }
}

/// Decode one redo record.
pub fn get_record(c: &mut Cur<'_>) -> Result<RedoRecord> {
    let thread = RedoThreadId(c.u8()?);
    let scn = Scn(c.u64()?);
    let born_us = c.u64()?;
    let payload = match c.u8()? {
        0 => RedoPayload::Begin { txn: TxnId(c.u64()?), tenant: TenantId(c.u16()?) },
        1 => {
            let n = c.u32()? as usize;
            let mut cvs = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                cvs.push(get_cv(c)?);
            }
            RedoPayload::Change(cvs)
        }
        2 => {
            let txn = TxnId(c.u64()?);
            let tenant = TenantId(c.u16()?);
            let commit_scn = Scn(c.u64()?);
            let modified_inmemory = match c.u8()? {
                0 => None,
                1 => Some(false),
                2 => Some(true),
                t => return Err(Error::WireCorrupt(format!("bad commit-flag tag {t}"))),
            };
            RedoPayload::Commit(CommitRecord { txn, tenant, commit_scn, modified_inmemory })
        }
        3 => RedoPayload::Abort { txn: TxnId(c.u64()?), tenant: TenantId(c.u16()?) },
        4 => RedoPayload::Marker(get_marker(c)?),
        5 => RedoPayload::Heartbeat,
        t => return Err(Error::WireCorrupt(format!("bad payload tag {t}"))),
    };
    Ok(RedoRecord { thread, scn, born_us, payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_storage::Schema;

    fn sample_records() -> Vec<RedoRecord> {
        let spec = TableSpec {
            id: ObjectId(7),
            name: "orders".into(),
            tenant: TenantId::DEFAULT,
            schema: Schema::of(&[("id", ColumnType::Int), ("note", ColumnType::Varchar)]),
            key_ordinal: 0,
            rows_per_block: 16,
        };
        vec![
            RedoRecord {
                thread: RedoThreadId(1),
                scn: Scn(10),
                born_us: 0,
                payload: RedoPayload::Marker(RedoMarker {
                    object: ObjectId(7),
                    tenant: TenantId::DEFAULT,
                    ddl: DdlKind::CreateTable(spec),
                }),
            },
            RedoRecord {
                thread: RedoThreadId(1),
                scn: Scn(11),
                born_us: 7,
                payload: RedoPayload::Begin { txn: TxnId(3), tenant: TenantId::DEFAULT },
            },
            RedoRecord {
                thread: RedoThreadId(1),
                scn: Scn(11),
                born_us: 8,
                payload: RedoPayload::Change(vec![ChangeVector {
                    dba: Dba(42),
                    object: ObjectId(7),
                    tenant: TenantId::DEFAULT,
                    txn: TxnId(3),
                    op: ChangeOp::Insert {
                        slot: 0,
                        row: Row::new(vec![Value::Int(1), Value::str("hi"), Value::Null]),
                    },
                }]),
            },
            RedoRecord {
                thread: RedoThreadId(1),
                scn: Scn(12),
                born_us: 9,
                payload: RedoPayload::Commit(CommitRecord {
                    txn: TxnId(3),
                    tenant: TenantId::DEFAULT,
                    commit_scn: Scn(12),
                    modified_inmemory: Some(true),
                }),
            },
            RedoRecord {
                thread: RedoThreadId(1),
                scn: Scn(13),
                born_us: 10,
                payload: RedoPayload::Abort { txn: TxnId(4), tenant: TenantId::DEFAULT },
            },
            RedoRecord {
                thread: RedoThreadId(1),
                scn: Scn(14),
                born_us: 11,
                payload: RedoPayload::Heartbeat,
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        let records = sample_records();
        let mut buf = Vec::new();
        for r in &records {
            put_record(&mut buf, r);
        }
        let mut c = Cur::new(&buf);
        let mut got = Vec::new();
        for _ in 0..records.len() {
            got.push(get_record(&mut c).unwrap());
        }
        c.done().unwrap();
        assert_eq!(format!("{got:?}"), format!("{records:?}"));
    }

    #[test]
    fn truncated_record_fails_cleanly() {
        let mut buf = Vec::new();
        put_record(&mut buf, &sample_records()[2]);
        for cut in 0..buf.len() {
            let mut c = Cur::new(&buf[..cut]);
            assert!(get_record(&mut c).is_err(), "cut at {cut} must not decode");
        }
    }
}
