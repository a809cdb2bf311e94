//! The cold columnar unit file format.
//!
//! One file per evicted IMCU, laid out for two access patterns: *restart
//! registration* (read only the footer — no column decode) and *predicate
//! pushdown* (decode only the columns a scan actually touches):
//!
//! ```text
//! [magic u32][version u32]                         header
//! [len u32][crc32 u32][column 0 payload]           one CRC-framed entry
//! ...                                                per encoded column
//! [len u32][crc32 u32][row-location payload]
//! [len u32][crc32 u32][footer payload]
//! [footer_off u64][magic u32]                      fixed 12-byte trailer
//! ```
//!
//! Each entry is the shared [`imadg_common::envelope`] the durable redo
//! log and the wire use, so a torn cold file fails exactly like a torn wal
//! segment: the CRC rejects the entry and the caller degrades — here, to a
//! row-store scan of the unit's block range, never a panic and never a
//! wrong answer.
//! The footer carries everything the tier needs without touching column
//! data: per-column min/max + null counts + pre-computed aggregates, the
//! covered DBAs, the row count, and each column entry's file offset.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use imadg_common::{envelope, Dba, ObjectId, Scn, TenantId};
use imadg_storage::RowLoc;

use super::codec::{self, Reader};
use crate::column::{ColumnCu, MinMax};
use crate::imcu::{ColAgg, Imcu};
use crate::storage_index::StorageIndex;

/// File magic: `IMCF` (In-Memory Columnar File), little-endian.
const MAGIC: u32 = u32::from_le_bytes(*b"IMCF");
/// Format version. Bumped on any layout change; readers reject unknown
/// versions rather than guessing.
const VERSION: u32 = 1;
/// Header bytes: magic + version.
const HEADER: usize = 8;
/// Trailer bytes: footer offset + magic echo.
const TRAILER: usize = 12;

/// Footer metadata of one cold unit — everything the scan engine needs
/// for pruning and aggregate pushdown with zero file I/O.
#[derive(Debug, Clone)]
pub struct ColdMeta {
    /// Owning object.
    pub object: ObjectId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Blocks the unit covers.
    pub dbas: Vec<Dba>,
    /// Snapshot SCN the serialized data is consistent as of.
    pub snapshot: Scn,
    /// Schema version at population time.
    pub schema_version: u32,
    /// Row count.
    pub rows: usize,
    /// Number of base (schema) columns.
    pub base_arity: usize,
    /// Virtual (expression) column names, in storage order.
    pub virtual_names: Vec<String>,
    /// Per-column pre-computed aggregates (SUM / non-null counts).
    pub col_aggs: Vec<ColAgg>,
    /// Per-column NULL counts.
    pub null_counts: Vec<u64>,
    /// Per-column min/max, as a storage index for `may_match` pruning.
    pub summaries: StorageIndex,
    /// File offset of each column's CRC-framed entry.
    col_offsets: Vec<u64>,
    /// File offset of the row-location entry.
    locs_offset: u64,
}

impl ColdMeta {
    /// Storage ordinal of a virtual column, if the unit materialized it.
    pub fn virtual_ordinal(&self, name: &str) -> Option<usize> {
        self.virtual_names.iter().position(|n| n == name).map(|i| self.base_arity + i)
    }

    /// Number of encoded columns (base + virtual).
    pub fn column_count(&self) -> usize {
        self.col_offsets.len()
    }

    /// Does the footer min/max exclude every serialized row from `filter`?
    /// A `true` answer prunes the unit with zero file I/O.
    pub fn prunes(&self, filter: &crate::predicate::Filter) -> bool {
        filter.terms.iter().any(|p| !self.summaries.may_match(p))
    }
}

/// Cold-tier state attached to an [`crate::ImcuHandle`]: where the file
/// lives, its footer metadata, and read-recency for the recall policy.
#[derive(Debug)]
pub struct ColdUnit {
    /// The cold file.
    pub path: PathBuf,
    /// Footer metadata (pruning + pushdown without I/O).
    pub meta: ColdMeta,
    /// On-disk size in bytes.
    pub bytes: u64,
    /// Cold reads since the tier engine's last pass (recall-policy input).
    reads: AtomicU64,
}

impl ColdUnit {
    /// Wrap a written or re-opened cold file.
    pub fn new(path: PathBuf, meta: ColdMeta, bytes: u64) -> ColdUnit {
        ColdUnit { path, meta, bytes, reads: AtomicU64::new(0) }
    }

    /// Note one cold read (a scan had to open the file).
    pub fn note_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Drain the read counter (one tier pass = one decay epoch).
    pub fn take_reads(&self) -> u64 {
        self.reads.swap(0, Ordering::Relaxed)
    }
}

/// Serialize `imcu` into the cold file byte image plus its footer meta.
fn serialize(imcu: &Imcu) -> (Vec<u8>, ColdMeta) {
    let mut out = Vec::new();
    codec::put_u32(&mut out, MAGIC);
    codec::put_u32(&mut out, VERSION);

    let col_offsets: Vec<u64> = imcu
        .columns()
        .iter()
        .map(|col| envelope::write(&mut out, |out| col.to_bytes(out)) as u64)
        .collect();
    let locs_offset = envelope::write(&mut out, |out| {
        codec::put_u64(out, imcu.rows() as u64);
        for loc in imcu.locs() {
            codec::put_u64(out, loc.dba.0);
            codec::put_u32(out, u32::from(loc.slot));
        }
    }) as u64;

    let rows = imcu.rows() as u64;
    let null_counts: Vec<u64> =
        imcu.col_aggs().iter().map(|a| rows.saturating_sub(a.non_null)).collect();
    let meta = ColdMeta {
        object: imcu.object,
        tenant: imcu.tenant,
        dbas: imcu.dbas.clone(),
        snapshot: imcu.snapshot,
        schema_version: imcu.schema_version,
        rows: imcu.rows(),
        base_arity: imcu.base_arity(),
        virtual_names: imcu.virtual_names().to_vec(),
        col_aggs: imcu.col_aggs().to_vec(),
        null_counts,
        summaries: imcu.storage_index.clone(),
        col_offsets,
        locs_offset,
    };

    let footer_off = envelope::write(&mut out, |out| footer_bytes(&meta, out)) as u64;
    codec::put_u64(&mut out, footer_off);
    codec::put_u32(&mut out, MAGIC);
    (out, meta)
}

fn footer_bytes(meta: &ColdMeta, buf: &mut Vec<u8>) {
    use codec::*;
    put_u32(buf, meta.object.0);
    put_u32(buf, u32::from(meta.tenant.0));
    put_u64(buf, meta.snapshot.0);
    put_u32(buf, meta.schema_version);
    put_u64(buf, meta.rows as u64);
    put_u32(buf, meta.dbas.len() as u32);
    for dba in &meta.dbas {
        put_u64(buf, dba.0);
    }
    put_u32(buf, meta.base_arity as u32);
    put_u32(buf, meta.virtual_names.len() as u32);
    for name in &meta.virtual_names {
        put_str(buf, name);
    }
    put_u32(buf, meta.col_offsets.len() as u32);
    for ord in 0..meta.col_offsets.len() {
        put_u64(buf, meta.col_offsets[ord]);
        let agg = meta.col_aggs.get(ord).copied().unwrap_or_default();
        buf.extend_from_slice(&agg.sum.to_le_bytes());
        put_u64(buf, agg.non_null);
        put_u64(buf, meta.null_counts.get(ord).copied().unwrap_or(0));
        meta.summaries.summary(ord).unwrap_or(&MinMax::AllNull).to_bytes(buf);
    }
    put_u64(buf, meta.locs_offset);
}

fn footer_from_bytes(payload: &[u8]) -> Option<ColdMeta> {
    let mut r = Reader::new(payload);
    let object = ObjectId(r.u32()?);
    let tenant = TenantId(u16::try_from(r.u32()?).ok()?);
    let snapshot = Scn(r.u64()?);
    let schema_version = r.u32()?;
    let rows = r.len_u64()?;
    let n_dbas = r.len_u32()?;
    let dbas = (0..n_dbas).map(|_| r.u64().map(Dba)).collect::<Option<Vec<_>>>()?;
    let base_arity = r.len_u32()?;
    let n_virtual = r.len_u32()?;
    let virtual_names =
        (0..n_virtual).map(|_| r.str().map(str::to_owned)).collect::<Option<Vec<_>>>()?;
    let n_cols = r.len_u32()?;
    if n_cols != base_arity + n_virtual && n_cols != 0 {
        return None;
    }
    let mut col_offsets = Vec::with_capacity(n_cols);
    let mut col_aggs = Vec::with_capacity(n_cols);
    let mut null_counts = Vec::with_capacity(n_cols);
    let mut summaries = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        col_offsets.push(r.u64()?);
        let sum = i128::from_le_bytes(r.take(16)?.try_into().ok()?);
        let non_null = r.u64()?;
        col_aggs.push(ColAgg { sum, non_null });
        null_counts.push(r.u64()?);
        summaries.push(MinMax::from_bytes(&mut r)?);
    }
    let locs_offset = r.u64()?;
    r.is_done().then_some(ColdMeta {
        object,
        tenant,
        dbas,
        snapshot,
        schema_version,
        rows,
        base_arity,
        virtual_names,
        col_aggs,
        null_counts,
        summaries: StorageIndex::new(summaries),
        col_offsets,
        locs_offset,
    })
}

/// Write `imcu` as a cold file under `dir` (tmp + rename so a crash mid-
/// eviction leaves either no file or a complete one). Returns the final
/// path, the footer meta, and the file size.
pub fn write_cold_file(dir: &Path, imcu: &Imcu) -> std::io::Result<(PathBuf, ColdMeta, u64)> {
    std::fs::create_dir_all(dir)?;
    let (bytes, meta) = serialize(imcu);
    let first_dba = imcu.dbas.first().map_or(0, |d| d.0);
    let name = format!("obj{}-dba{}-scn{}.imcf", imcu.object.0, first_dba, imcu.snapshot.0);
    let path = dir.join(&name);
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok((path, meta, bytes.len() as u64))
}

/// An opened, footer-verified cold file. The whole file is read in one
/// I/O; individual columns stay *encoded* until a scan decodes exactly
/// the ones its predicate and projection touch.
pub struct ColdUnitFile {
    bytes: Vec<u8>,
    /// Footer metadata.
    pub meta: ColdMeta,
}

impl ColdUnitFile {
    /// Open and verify header, trailer, and footer CRC. `None` on any I/O
    /// error or corruption — the caller degrades to the row store.
    pub fn open(path: &Path) -> Option<ColdUnitFile> {
        let bytes = std::fs::read(path).ok()?;
        Self::from_bytes(bytes)
    }

    /// Verify a cold file image (the testable core of [`Self::open`]).
    pub fn from_bytes(bytes: Vec<u8>) -> Option<ColdUnitFile> {
        if bytes.len() < HEADER + TRAILER {
            return None;
        }
        let mut r = Reader::new(&bytes[..HEADER]);
        if r.u32()? != MAGIC || r.u32()? != VERSION {
            return None;
        }
        let mut t = Reader::new(&bytes[bytes.len() - TRAILER..]);
        let footer_off = t.u64()?;
        if t.u32()? != MAGIC {
            return None;
        }
        let footer = entry_at(&bytes, footer_off)?;
        let meta = footer_from_bytes(footer)?;
        Some(ColdUnitFile { bytes, meta })
    }

    /// Decode one encoded column (CRC-checked entry read + decode).
    pub fn decode_column(&self, ordinal: usize) -> Option<ColumnCu> {
        let off = *self.meta.col_offsets.get(ordinal)?;
        let payload = entry_at(&self.bytes, off)?;
        let mut r = Reader::new(payload);
        let col = ColumnCu::from_bytes(&mut r)?;
        (r.is_done() && col.len() == self.meta.rows).then_some(col)
    }

    /// Evaluate a conjunction in column space, decoding only the columns
    /// the filter touches. Unlike [`crate::Imcu::filter_bitmap`], `None`
    /// here means *corruption* (a column entry failed its CRC) — pruning
    /// is decided separately via [`ColdMeta::prunes`].
    pub fn filter_bitmap(
        &self,
        filter: &crate::predicate::Filter,
    ) -> Option<crate::bitmap::SelBitmap> {
        use crate::bitmap::SelBitmap;
        let rows = self.meta.rows;
        let mut acc: Option<SelBitmap> = None;
        for p in &filter.terms {
            // Same semantics as the hot path: a conjunct on a column the
            // unit does not hold (added by DDL) selects nothing.
            let mut sel = SelBitmap::zeroes(rows);
            if p.ordinal < self.meta.column_count() {
                let col = self.decode_column(p.ordinal)?;
                col.scan_bitmap(p, &mut sel);
            }
            match &mut acc {
                None => acc = Some(sel),
                Some(a) => {
                    a.and_assign(&sel);
                    if a.is_empty() {
                        break;
                    }
                }
            }
        }
        Some(acc.unwrap_or_else(|| SelBitmap::ones(rows)))
    }

    /// The file's loc → rownum map (SMU reconciliation on cold scans).
    pub fn loc_index(&self) -> Option<std::collections::HashMap<RowLoc, u32>> {
        let locs = self.decode_locs()?;
        Some(locs.iter().enumerate().map(|(i, &l)| (l, i as u32)).collect())
    }

    /// Decode the row-location entry.
    pub fn decode_locs(&self) -> Option<Vec<RowLoc>> {
        let payload = entry_at(&self.bytes, self.meta.locs_offset)?;
        let mut r = Reader::new(payload);
        let rows = r.len_u64()?;
        if rows != self.meta.rows {
            return None;
        }
        let mut locs = Vec::with_capacity(rows);
        for _ in 0..rows {
            let dba = Dba(r.u64()?);
            let slot = u16::try_from(r.u32()?).ok()?;
            locs.push(RowLoc { dba, slot });
        }
        r.is_done().then_some(locs)
    }

    /// Full decode back into a hot [`Imcu`] (recall / restart
    /// re-population). Bit-identical in behavior to the evicted unit.
    pub fn into_imcu(&self) -> Option<Imcu> {
        let locs = self.decode_locs()?;
        let columns = (0..self.meta.column_count())
            .map(|ord| self.decode_column(ord))
            .collect::<Option<Vec<_>>>()?;
        Some(Imcu::from_parts(
            self.meta.object,
            self.meta.tenant,
            self.meta.dbas.clone(),
            self.meta.snapshot,
            self.meta.schema_version,
            locs,
            columns,
            self.meta.virtual_names.clone(),
            self.meta.base_arity,
            self.meta.col_aggs.clone(),
        ))
    }
}

/// The CRC-framed entry at `offset`, verified. Entries live between the
/// header and the trailer; one running into the trailer is corrupt.
fn entry_at(bytes: &[u8], offset: u64) -> Option<&[u8]> {
    let offset = usize::try_from(offset).ok().filter(|&o| o >= HEADER)?;
    let entries = bytes.get(offset..bytes.len().checked_sub(TRAILER)?)?;
    envelope::read(entries).ok().map(|(payload, _)| payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_common::TxnId;
    use imadg_storage::{Block, ColumnType, Row, RowVersion, Schema, Store, TableSpec, Value};

    fn schema() -> Schema {
        Schema::of(&[("id", ColumnType::Int), ("c", ColumnType::Varchar)])
    }

    fn store_with_rows(n: i64) -> Store {
        let s = Store::new();
        s.create_table(TableSpec {
            id: ObjectId(1),
            name: "t".into(),
            tenant: TenantId::DEFAULT,
            schema: schema(),
            key_ordinal: 0,
            rows_per_block: 128,
        })
        .unwrap();
        s.cache().install(Block::format(Dba(1), ObjectId(1), 128));
        s.segment(ObjectId(1)).unwrap().lock().add_block(Dba(1));
        s.txns().commit(TxnId(1), Scn(5));
        let b = s.cache().get(Dba(1)).unwrap();
        for i in 0..n {
            b.write().chain_mut(i as u16).unwrap().push(RowVersion {
                txn: TxnId(1),
                scn: Scn(3),
                data: Some(Row::new(vec![
                    if i % 5 == 0 { Value::Null } else { Value::Int(i) },
                    Value::str(format!("s{}", i % 3)),
                ])),
            });
        }
        s
    }

    fn built_unit() -> Imcu {
        let s = store_with_rows(40);
        Imcu::build(&s, ObjectId(1), TenantId::DEFAULT, vec![Dba(1)], Scn(5), &schema()).unwrap()
    }

    #[test]
    fn roundtrip_through_bytes() {
        let imcu = built_unit();
        let (bytes, meta) = serialize(&imcu);
        assert_eq!(meta.rows, 40);
        assert_eq!(meta.base_arity, 2);
        assert_eq!(meta.null_counts[0], 8, "every 5th id is NULL");
        let file = ColdUnitFile::from_bytes(bytes).expect("verifies");
        let back = file.into_imcu().expect("decodes");
        assert_eq!(back.rows(), imcu.rows());
        assert_eq!(back.snapshot, imcu.snapshot);
        assert!(!back.is_pending());
        for rn in 0..imcu.rows() as u32 {
            assert_eq!(back.materialize(rn), imcu.materialize(rn));
            assert_eq!(back.loc(rn), imcu.loc(rn));
        }
        assert_eq!(back.column_agg(0), imcu.column_agg(0));
    }

    #[test]
    fn footer_survives_without_column_decode() {
        let (bytes, _) = serialize(&built_unit());
        let file = ColdUnitFile::from_bytes(bytes).unwrap();
        // Min/max pruning data is available before any decode_column call.
        assert!(file.meta.summaries.summary(0).is_some());
        assert_eq!(file.meta.col_aggs[1].non_null, 40);
    }

    #[test]
    fn torn_tail_and_truncated_footer_rejected() {
        let (bytes, _) = serialize(&built_unit());
        // Whole-file truncations at every suffix boundary must be rejected
        // or still verify (never panic).
        for cut in [0, 1, HEADER, HEADER + 3, bytes.len() - TRAILER, bytes.len() - 1] {
            assert!(
                ColdUnitFile::from_bytes(bytes[..cut].to_vec()).is_none(),
                "truncation at {cut} must not verify"
            );
        }
        // A flipped byte inside the footer payload fails its CRC.
        let mut corrupt = bytes.clone();
        let mid = bytes.len() - TRAILER - 4;
        corrupt[mid] ^= 0xFF;
        assert!(ColdUnitFile::from_bytes(corrupt).is_none());
    }

    #[test]
    fn corrupt_column_entry_fails_only_that_column() {
        let (bytes, meta) = serialize(&built_unit());
        let mut corrupt = bytes.clone();
        // Flip a byte inside column 0's payload (offset + frame header).
        let off = usize::try_from(meta.col_offsets[0]).unwrap() + 8 + 2;
        corrupt[off] ^= 0xFF;
        let file = ColdUnitFile::from_bytes(corrupt).expect("footer still verifies");
        assert!(file.decode_column(0).is_none(), "corrupt column rejected");
        assert!(file.decode_column(1).is_some(), "sibling column unaffected");
        assert!(file.into_imcu().is_none(), "full decode degrades");
    }

    #[test]
    fn write_and_open_file() {
        let dir = std::env::temp_dir().join(format!("imadg-coldfmt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let imcu = built_unit();
        let (path, meta, size) = write_cold_file(&dir, &imcu).unwrap();
        assert_eq!(size, std::fs::metadata(&path).unwrap().len());
        let file = ColdUnitFile::open(&path).expect("opens");
        assert_eq!(file.meta.rows, meta.rows);
        assert_eq!(file.into_imcu().unwrap().rows(), 40);
        assert!(ColdUnitFile::open(&dir.join("missing.imcf")).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
