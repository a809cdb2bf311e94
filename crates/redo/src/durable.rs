//! On-disk redo persistence: segmented write-ahead files with group
//! commit, a sealed-segment archive tier, and reads bounded by segment.
//!
//! Both link endpoints tee through a [`DurableLog`]: the primary persists
//! every shipped batch (so NAK gap-resolution can be served from archived
//! logs after the in-memory retained window evicts), and the standby
//! persists every in-order delivered batch (so a crashed standby replays
//! its own history from disk and re-joins the link at its durable
//! position — the receiver's replay cursor reads one segment at a time
//! through [`DurableLog::read_segment_from`]).
//!
//! ## Segment format
//!
//! A segment file is `[magic u32][version u32]` followed by entries in
//! the shared [`imadg_common::envelope`], `[len u32][crc32 u32][payload]`
//! — the envelope wire frames use too — where the CRC covers the payload:
//! `[seq u64][count u32][record…]` in the [`crate::codec`] encoding —
//! bit-identical to the records that travelled the link. Segments are
//! named by their first sequence number (`seg-{first_seq:020}.log`); when
//! the active segment exceeds `segment_max_bytes` it is sealed and becomes
//! eligible for archival (a rename from `wal/` to `archive/`). The log
//! keeps an index of its segments by first sequence, so a read decodes
//! only the segments whose range overlaps the sequences it asks for.
//!
//! ## Group commit
//!
//! [`DurableLog::append_batch`] only buffers; [`DurableLog::group_commit`]
//! writes and fsyncs everything buffered since the last call, then moves
//! sealed segments to the archive tier. The callers are stage `run_once`
//! quanta (the sender's `service`, the receiver's `durable_sync`), so one
//! fsync covers every batch of the quantum — fsync batching behind the
//! existing Stage runtime, no extra threads or timers.
//!
//! ## Torn tails
//!
//! A crash can leave a half-written entry at the end of the newest
//! segment. [`DurableLog::open`] detects it via the length/CRC envelope
//! and truncates the newest wal segment back to the last complete entry.
//! That is the only entry a scan may skip: anywhere else — a sealed or
//! archived segment, or any read after open — an entry that fails its
//! envelope is damage, and the read fails rather than come back short.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use imadg_common::metrics::DurabilityMetrics;
use imadg_common::{envelope, Error, Result};
use parking_lot::Mutex;

use crate::codec;
use crate::record::RedoRecord;

/// Segment file magic: `IMRL` ("in-memory redo log").
const SEGMENT_MAGIC: u32 = 0x4C52_4D49;
/// Segment format version; readers reject versions they do not know.
const SEGMENT_VERSION: u32 = 1;
/// Segment header size: `[magic u32][version u32]`.
const SEGMENT_HEADER: u64 = 8;

fn io_err(ctx: &str, e: std::io::Error) -> Error {
    Error::Io(format!("{ctx}: {e}"))
}

/// One `(seq, records)` batch read back from disk.
pub type DiskBatch = (u64, Vec<RedoRecord>);

fn segment_name(first_seq: u64) -> String {
    format!("seg-{first_seq:020}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(".log")?.parse().ok()
}

/// Sorted `(first_seq, path)` list of the segment files in `dir`.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err("list segments", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("list segments", e))?;
        let name = entry.file_name();
        if let Some(first) = name.to_str().and_then(parse_segment_name) {
            out.push((first, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Decode every entry in one segment file. Returns the batches and the
/// byte offset just past the last complete entry. An entry failing its
/// envelope (truncated or checksum-failing bytes) ends the scan; unless
/// `torn_tail_ok` — the newest wal segment at open, which a crash may
/// have torn — that fails the read.
fn read_segment(path: &Path, torn_tail_ok: bool) -> Result<(Vec<DiskBatch>, u64)> {
    let bytes = fs::read(path).map_err(|e| io_err("read segment", e))?;
    if bytes.len() < SEGMENT_HEADER as usize {
        return Ok((Vec::new(), SEGMENT_HEADER.min(bytes.len() as u64)));
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if magic != SEGMENT_MAGIC {
        return Err(Error::Io(format!("{}: bad segment magic {magic:#x}", path.display())));
    }
    if version != SEGMENT_VERSION {
        return Err(Error::Io(format!("{}: unknown segment version {version}", path.display())));
    }
    let mut batches = Vec::new();
    let mut rest = &bytes[SEGMENT_HEADER as usize..];
    while !rest.is_empty() {
        // A torn tail — a length running past the file, or an entry half
        // written when the crash hit — fails the envelope.
        let (payload, tail) = match envelope::read(rest) {
            Ok(entry) => entry,
            Err(_) if torn_tail_ok => break,
            Err(e) => {
                let at = bytes.len() - rest.len();
                return Err(Error::Io(format!("{}: entry at byte {at}: {e}", path.display())));
            }
        };
        let mut c = codec::Cur::new(payload);
        let seq = c.u64()?;
        let count = c.u32()? as usize;
        let mut records = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            records.push(codec::get_record(&mut c)?);
        }
        c.done()?;
        batches.push((seq, records));
        rest = tail;
    }
    Ok((batches, (bytes.len() - rest.len()) as u64))
}

struct ActiveSegment {
    file: File,
    first: u64,
    bytes: u64,
}

struct LogInner {
    wal_dir: PathBuf,
    archive_dir: PathBuf,
    segment_max_bytes: u64,
    active: Option<ActiveSegment>,
    /// Encoded entries appended since the last sync (lost on crash).
    buf: Vec<u8>,
    /// First sequence number buffered in `buf`.
    buf_first_seq: u64,
    buf_records: u64,
    /// Highest sequence appended (including unsynced).
    appended_seq: u64,
    /// Highest sequence fsynced to disk.
    durable_seq: u64,
    /// Every segment file by first sequence, at its current path in
    /// either tier — the index reads select segments from.
    segments: BTreeMap<u64, PathBuf>,
    /// How many of `segments` sit in the archive tier.
    archived: u64,
    /// First sequences of the sealed wal segments awaiting the archiver.
    sealed: Vec<u64>,
}

impl LogInner {
    /// Paths of the segments whose sequence range overlaps `from..=to`,
    /// in sequence order: the one holding `from`, then every segment
    /// starting in `from + 1..=to`.
    fn overlapping(&self, from: u64, to: u64) -> Vec<PathBuf> {
        if from > to {
            return Vec::new();
        }
        let start = self.segments.range(..=from).next_back().map_or(from, |(&first, _)| first);
        self.segments.range(start..=to).map(|(_, path)| path.clone()).collect()
    }
}

/// A segmented, group-committed on-disk redo log for one redo thread.
pub struct DurableLog {
    inner: Mutex<LogInner>,
    metrics: Mutex<Arc<DurabilityMetrics>>,
}

impl DurableLog {
    /// Open (or create) the log under `dir`, recovering the durable
    /// position from existing segments and truncating any torn tail.
    pub fn open(dir: impl AsRef<Path>, segment_max_bytes: u64) -> Result<DurableLog> {
        let dir = dir.as_ref();
        let wal_dir = dir.join("wal");
        let archive_dir = dir.join("archive");
        fs::create_dir_all(&wal_dir).map_err(|e| io_err("create wal dir", e))?;
        fs::create_dir_all(&archive_dir).map_err(|e| io_err("create archive dir", e))?;

        let mut durable_seq = 0u64;
        let mut segments = BTreeMap::new();
        for (first, path) in list_segments(&archive_dir)? {
            let (batches, _) = read_segment(&path, false)?;
            if let Some(&(seq, _)) = batches.last() {
                durable_seq = durable_seq.max(seq);
            }
            segments.insert(first, path);
        }
        let archived = segments.len() as u64;
        // Every existing wal segment is sealed from this process's point of
        // view (a restart performs a log switch); the newest may carry a
        // torn tail from the crash — truncate it back to the last complete
        // entry so later reads see only whole, checksummed batches.
        let wal = list_segments(&wal_dir)?;
        let mut sealed = Vec::new();
        for (i, (first, path)) in wal.iter().enumerate() {
            let newest = i == wal.len() - 1;
            let (batches, good_len) = read_segment(path, newest)?;
            if let Some(&(seq, _)) = batches.last() {
                durable_seq = durable_seq.max(seq);
            }
            if batches.is_empty() {
                // No complete entry survived (e.g. the crash tore the
                // segment's only entry): the file holds no data, and its
                // first-seq name would collide with the segment the
                // re-shipped batch opens after restart — remove it.
                fs::remove_file(path).map_err(|e| io_err("remove empty segment", e))?;
                continue;
            }
            if newest {
                let actual = fs::metadata(path).map_err(|e| io_err("stat segment", e))?.len();
                if actual > good_len {
                    let f = OpenOptions::new()
                        .write(true)
                        .open(path)
                        .map_err(|e| io_err("open for truncate", e))?;
                    f.set_len(good_len).map_err(|e| io_err("truncate torn tail", e))?;
                    f.sync_data().map_err(|e| io_err("sync truncated segment", e))?;
                }
            }
            sealed.push(*first);
            segments.insert(*first, path.clone());
        }
        Ok(DurableLog {
            inner: Mutex::new(LogInner {
                wal_dir,
                archive_dir,
                segment_max_bytes: segment_max_bytes.max(SEGMENT_HEADER + 64),
                active: None,
                buf: Vec::new(),
                buf_first_seq: 0,
                buf_records: 0,
                appended_seq: durable_seq,
                durable_seq,
                segments,
                archived,
                sealed,
            }),
            metrics: Mutex::new(Arc::default()),
        })
    }

    /// Report into a registry's durability stage.
    pub fn set_metrics(&self, metrics: Arc<DurabilityMetrics>) {
        *self.metrics.lock() = metrics;
    }

    /// The durability stage this log reports into.
    pub fn metrics(&self) -> Arc<DurabilityMetrics> {
        self.metrics.lock().clone()
    }

    /// Buffer one `(seq, records)` batch for the next group commit.
    pub fn append_batch(&self, seq: u64, records: &[RedoRecord]) -> Result<()> {
        let mut inner = self.inner.lock();
        if seq <= inner.appended_seq {
            // A retransmit of something already persisted (the sender tees
            // NAK-served frames through the same path).
            return Ok(());
        }
        if inner.buf.is_empty() {
            inner.buf_first_seq = seq;
        }
        envelope::write(&mut inner.buf, |out| {
            codec::put_u64(out, seq);
            codec::put_u32(out, records.len() as u32);
            for r in records {
                codec::put_record(out, r);
            }
        });
        inner.buf_records += records.len() as u64;
        inner.appended_seq = seq;
        let m = self.metrics();
        m.appends.inc();
        Ok(())
    }

    /// One group-commit quantum: fsync everything buffered, then move
    /// sealed segments to the archive tier. Returns whether either did
    /// work.
    pub fn group_commit(&self) -> Result<bool> {
        let synced = self.sync_if_pending()?;
        Ok(self.archive_sealed()? || synced)
    }

    /// Write and fsync everything buffered since the last call. One call
    /// per stage quantum batches every append of the quantum behind a
    /// single fsync. Returns whether anything was synced.
    pub fn sync_if_pending(&self) -> Result<bool> {
        let mut inner = self.inner.lock();
        if inner.buf.is_empty() {
            return Ok(false);
        }
        if inner.active.is_none() {
            let path = inner.wal_dir.join(segment_name(inner.buf_first_seq));
            let mut file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| io_err("open segment", e))?;
            let mut header = Vec::with_capacity(SEGMENT_HEADER as usize);
            codec::put_u32(&mut header, SEGMENT_MAGIC);
            codec::put_u32(&mut header, SEGMENT_VERSION);
            file.write_all(&header).map_err(|e| io_err("write segment header", e))?;
            let first = inner.buf_first_seq;
            inner.segments.insert(first, path.clone());
            inner.active = Some(ActiveSegment { file, first, bytes: SEGMENT_HEADER });
        }
        let buf = std::mem::take(&mut inner.buf);
        let records = std::mem::take(&mut inner.buf_records);
        let seq = inner.appended_seq;
        {
            let active = inner.active.as_mut().expect("active segment open");
            active.file.write_all(&buf).map_err(|e| io_err("write segment", e))?;
            active.file.sync_data().map_err(|e| io_err("fsync segment", e))?;
            active.bytes += buf.len() as u64;
        }
        inner.durable_seq = seq;
        let m = self.metrics();
        m.fsyncs.inc();
        m.bytes_persisted.add(buf.len() as u64);
        m.records_persisted.add(records);
        m.durable_seq.set(seq);
        if inner.active.as_ref().is_some_and(|a| a.bytes >= inner.segment_max_bytes) {
            let active = inner.active.take().expect("active segment open");
            inner.sealed.push(active.first);
            m.segments_sealed.inc();
        }
        m.wal_segments.set(inner.segments.len() as u64 - inner.archived);
        Ok(true)
    }

    /// Move sealed segments from the wal tier to the archive tier (the
    /// archiver's half of the group-commit quantum). Returns whether any
    /// segment moved.
    fn archive_sealed(&self) -> Result<bool> {
        let mut inner = self.inner.lock();
        let sealed = std::mem::take(&mut inner.sealed);
        if sealed.is_empty() {
            return Ok(false);
        }
        for &first in &sealed {
            let dst = inner.archive_dir.join(segment_name(first));
            fs::rename(&inner.segments[&first], &dst).map_err(|e| io_err("archive segment", e))?;
            inner.segments.insert(first, dst);
            inner.archived += 1;
        }
        let m = self.metrics();
        m.segments_archived.add(sealed.len() as u64);
        m.wal_segments.set(inner.segments.len() as u64 - inner.archived);
        m.archived_segments.set(inner.archived);
        Ok(true)
    }

    /// Highest sequence number fsynced to disk.
    pub fn durable_seq(&self) -> u64 {
        self.inner.lock().durable_seq
    }

    /// Highest sequence number appended (including unsynced buffer).
    pub fn appended_seq(&self) -> u64 {
        self.inner.lock().appended_seq
    }

    /// Simulate losing the group-commit buffer in a crash: everything
    /// appended but not yet synced is discarded.
    pub fn drop_unsynced(&self) {
        let mut inner = self.inner.lock();
        inner.buf.clear();
        inner.buf_records = 0;
        inner.appended_seq = inner.durable_seq;
    }

    /// Read the durable batches in `from..=to`, in sequence order,
    /// decoding only the segments whose range overlaps it (NAK
    /// gap-resolution beyond the in-memory retained window).
    pub fn read_range(&self, from: u64, to: u64) -> Result<Vec<DiskBatch>> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        for path in inner.overlapping(from, to) {
            let (batches, _) = read_segment(&path, false)?;
            out.extend(batches.into_iter().filter(|&(seq, _)| (from..=to).contains(&seq)));
        }
        Ok(out)
    }

    /// Read the durable batches from `seq` to the end of the one segment
    /// holding it — restart replay's unit of decoding.
    pub fn read_segment_from(&self, seq: u64) -> Result<Vec<DiskBatch>> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        for path in inner.overlapping(seq, seq) {
            let (batches, _) = read_segment(&path, false)?;
            out.extend(batches.into_iter().filter(|&(s, _)| s >= seq));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RedoPayload;
    use imadg_common::{RedoThreadId, Scn};

    fn rec(scn: u64) -> RedoRecord {
        RedoRecord {
            thread: RedoThreadId(1),
            scn: Scn(scn),
            born_us: 0,
            payload: RedoPayload::Heartbeat,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("imadg-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_sync_read_round_trips() {
        let dir = tmpdir("roundtrip");
        let log = DurableLog::open(&dir, 1 << 20).unwrap();
        assert_eq!(log.durable_seq(), 0);
        log.append_batch(1, &[rec(10), rec(11)]).unwrap();
        log.append_batch(2, &[rec(12)]).unwrap();
        assert_eq!(log.durable_seq(), 0, "append only buffers");
        assert!(log.sync_if_pending().unwrap());
        assert!(!log.sync_if_pending().unwrap(), "nothing pending after sync");
        assert_eq!(log.durable_seq(), 2);
        let got = log.read_range(1, u64::MAX).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 1);
        assert_eq!(got[0].1.len(), 2);
        assert_eq!(got[1].1[0].scn, Scn(12));
        assert_eq!(log.read_range(2, u64::MAX).unwrap().len(), 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn duplicate_appends_are_ignored() {
        let dir = tmpdir("dup");
        let log = DurableLog::open(&dir, 1 << 20).unwrap();
        log.append_batch(1, &[rec(1)]).unwrap();
        log.append_batch(1, &[rec(1)]).unwrap();
        log.sync_if_pending().unwrap();
        log.append_batch(1, &[rec(1)]).unwrap();
        assert!(!log.sync_if_pending().unwrap(), "retransmit of durable seq dropped");
        assert_eq!(log.read_range(1, u64::MAX).unwrap().len(), 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn reopen_recovers_durable_position() {
        let dir = tmpdir("reopen");
        {
            let log = DurableLog::open(&dir, 1 << 20).unwrap();
            for seq in 1..=5 {
                log.append_batch(seq, &[rec(seq * 10)]).unwrap();
            }
            log.sync_if_pending().unwrap();
            // Unsynced tail: lost in the crash.
            log.append_batch(6, &[rec(60)]).unwrap();
        }
        let log = DurableLog::open(&dir, 1 << 20).unwrap();
        assert_eq!(log.durable_seq(), 5);
        assert_eq!(log.read_range(1, u64::MAX).unwrap().len(), 5);
        // New appends after the log switch land in a fresh segment.
        log.append_batch(6, &[rec(60)]).unwrap();
        log.sync_if_pending().unwrap();
        assert_eq!(log.read_range(1, u64::MAX).unwrap().len(), 6);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        {
            let log = DurableLog::open(&dir, 1 << 20).unwrap();
            for seq in 1..=3 {
                log.append_batch(seq, &[rec(seq)]).unwrap();
            }
            log.sync_if_pending().unwrap();
        }
        // Corrupt the tail: append garbage bytes half-resembling an entry.
        let seg = list_segments(&dir.join("wal")).unwrap().pop().unwrap().1;
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0x55u8; 11]).unwrap();
        drop(f);
        let log = DurableLog::open(&dir, 1 << 20).unwrap();
        assert_eq!(log.durable_seq(), 3, "complete entries survive the torn tail");
        assert_eq!(log.read_range(1, u64::MAX).unwrap().len(), 3);
        let _ = fs::remove_dir_all(dir);
    }

    /// A string-carrying change record whose string bytes are easy to find.
    fn string_rec(scn: u64) -> RedoRecord {
        use imadg_common::{Dba, ObjectId, TenantId, TxnId};
        use imadg_storage::{ChangeOp, ChangeVector, Row, Value};
        RedoRecord {
            thread: RedoThreadId(1),
            scn: Scn(scn),
            born_us: 0,
            payload: RedoPayload::Change(vec![ChangeVector {
                dba: Dba(1),
                object: ObjectId(1),
                tenant: TenantId::DEFAULT,
                txn: TxnId(1),
                op: ChangeOp::Insert {
                    slot: 0,
                    row: Row::new(vec![Value::Int(1), Value::str("PROBE"), Value::Null]),
                },
            }]),
        }
    }

    #[test]
    fn crc_valid_entry_with_a_bad_string_fails_replay() {
        // Damage the string inside an entry, then re-seal the entry's CRC:
        // the envelope verifies, so only the borrowed-slice decode can
        // catch it — and it must fail the replay, never yield a row.
        type Damage = fn(&mut Vec<u8>, usize);
        let damages: [(&str, Damage); 2] = [
            ("invalid utf-8", |seg, at| seg[at] = 0xFF),
            ("length past the payload", |seg, at| {
                seg[at - 4..at].copy_from_slice(&0x00FF_FFFFu32.to_le_bytes())
            }),
        ];
        for (what, damage) in damages {
            let dir = tmpdir("badstr");
            let log = DurableLog::open(&dir, 1 << 20).unwrap();
            log.append_batch(1, &[rec(1), string_rec(2)]).unwrap();
            log.sync_if_pending().unwrap();
            let seg = list_segments(&dir.join("wal")).unwrap().pop().unwrap().1;
            let mut bytes = fs::read(&seg).unwrap();
            let at = bytes.windows(9).position(|w| w == b"\x05\0\0\0PROBE").unwrap() + 4;
            damage(&mut bytes, at);
            let entry = SEGMENT_HEADER as usize;
            let crc = envelope::crc32(&bytes[entry + envelope::HEADER..]);
            bytes[entry + 4..entry + envelope::HEADER].copy_from_slice(&crc.to_le_bytes());
            fs::write(&seg, &bytes).unwrap();

            assert!(
                matches!(log.read_range(1, u64::MAX), Err(Error::WireCorrupt(_))),
                "{what}: replay must surface the corrupt entry"
            );
            drop(log);
            assert!(
                matches!(DurableLog::open(&dir, 1 << 20), Err(Error::WireCorrupt(_))),
                "{what}: reopening must surface the corrupt entry"
            );
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn segments_seal_and_archive() {
        let dir = tmpdir("seal");
        // Tiny segments: every sync seals one.
        let log = DurableLog::open(&dir, SEGMENT_HEADER + 64).unwrap();
        for seq in 1..=4 {
            log.append_batch(seq, &[rec(seq), rec(seq + 100)]).unwrap();
            log.sync_if_pending().unwrap();
        }
        assert!(log.group_commit().unwrap(), "sealed segments move to the archive");
        assert!(!log.group_commit().unwrap(), "nothing left to sync or archive");
        let moved = list_segments(&dir.join("archive")).unwrap().len();
        assert!(moved >= 2, "tiny segments sealed as the bound is crossed (moved {moved})");
        // Reads span both tiers, in order.
        let got = log.read_range(1, u64::MAX).unwrap();
        assert_eq!(got.iter().map(|b| b.0).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(log.read_range(2, 3).unwrap().len(), 2);
        let _ = fs::remove_dir_all(dir);
    }

    /// A read decodes only the segments its range overlaps: a damaged
    /// segment outside the range goes unread, one inside it fails the read.
    #[test]
    fn range_read_opens_only_overlapping_segments() {
        let dir = tmpdir("range");
        // Eight records per batch outgrow the clamped minimum segment, so
        // every sync seals a one-batch segment.
        let log = DurableLog::open(&dir, SEGMENT_HEADER + 64).unwrap();
        for seq in 1..=6u64 {
            let batch: Vec<RedoRecord> = (0..8).map(|k| rec(seq * 10 + k)).collect();
            log.append_batch(seq, &batch).unwrap();
            log.group_commit().unwrap();
        }
        assert!(list_segments(&dir.join("archive")).unwrap().len() >= 4);
        let seg1 = dir.join("archive").join(segment_name(1));
        let mut bytes = fs::read(&seg1).unwrap();
        bytes[0..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        fs::write(&seg1, &bytes).unwrap();

        let seqs = |got: Vec<DiskBatch>| got.iter().map(|b| b.0).collect::<Vec<_>>();
        assert_eq!(seqs(log.read_range(2, 6).unwrap()), vec![2, 3, 4, 5, 6]);
        assert_eq!(log.read_range(3, 4).unwrap()[1].1[0].scn, Scn(40));
        assert_eq!(seqs(log.read_segment_from(4).unwrap()), vec![4]);
        for (from, to) in [(1, 1), (1, 3)] {
            let err = log.read_range(from, to).unwrap_err();
            assert!(err.to_string().contains("bad segment magic"), "{from}..={to}: {err}");
        }
        let _ = fs::remove_dir_all(dir);
    }

    /// A damaged entry inside a sealed archive segment fails the read
    /// instead of returning the rest of that segment missing: an
    /// archive-served NAK would otherwise re-serve fewer frames than asked.
    #[test]
    fn damaged_archive_entry_fails_range_read() {
        let dir = tmpdir("damaged");
        let log = DurableLog::open(&dir, 1024).unwrap();
        for seq in 1..=60u64 {
            log.append_batch(seq, &[rec(seq)]).unwrap();
            log.group_commit().unwrap();
        }
        let seg1 = dir.join("archive").join(segment_name(1));
        let mut bytes = fs::read(&seg1).unwrap();
        bytes[120] ^= 1;
        fs::write(&seg1, &bytes).unwrap();

        let got = log.read_range(1, 60);
        let seqs = got.as_ref().map(|b| b.iter().map(|b| b.0).collect::<Vec<_>>());
        assert!(seqs.is_err(), "a damaged entry must fail the read, got {seqs:?}");
        assert!(log.read_segment_from(1).is_err(), "replay must fail on it too");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn drop_unsynced_models_crash_loss() {
        let dir = tmpdir("crashloss");
        let log = DurableLog::open(&dir, 1 << 20).unwrap();
        log.append_batch(1, &[rec(1)]).unwrap();
        log.sync_if_pending().unwrap();
        log.append_batch(2, &[rec(2)]).unwrap();
        assert_eq!(log.appended_seq(), 2);
        log.drop_unsynced();
        assert_eq!(log.appended_seq(), 1);
        assert!(!log.sync_if_pending().unwrap());
        // The dropped batch can be re-appended (it will arrive again via
        // NAK once the link resumes at durable_seq + 1).
        log.append_batch(2, &[rec(2)]).unwrap();
        log.sync_if_pending().unwrap();
        assert_eq!(log.durable_seq(), 2);
        let _ = fs::remove_dir_all(dir);
    }
}

#[cfg(test)]
mod review_repro {
    use super::*;
    use crate::record::RedoPayload;
    use imadg_common::{RedoThreadId, Scn};

    fn rec(scn: u64) -> RedoRecord {
        RedoRecord {
            thread: RedoThreadId(1),
            scn: Scn(scn),
            born_us: 0,
            payload: RedoPayload::Heartbeat,
        }
    }

    /// A big-enough batch that one synced entry exceeds the clamped
    /// minimum segment size (`SEGMENT_HEADER + 64`), sealing per sync.
    fn batch(scn: u64) -> Vec<RedoRecord> {
        (0..4).map(|k| rec(scn + k)).collect()
    }

    #[test]
    fn reopen_after_header_only_torn_segment_collides() {
        let dir = std::env::temp_dir().join(format!("imadg-collide-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        {
            // Tiny segments: every sync seals the active segment.
            let log = DurableLog::open(&dir, SEGMENT_HEADER + 1).unwrap();
            log.append_batch(1, &batch(1)).unwrap();
            log.sync_if_pending().unwrap(); // seg-1 sealed
            log.append_batch(2, &batch(10)).unwrap();
            log.sync_if_pending().unwrap(); // seg-2 sealed
        }
        // Crash tore seg-2's only entry: open() will truncate it to header-only.
        let seg2 = list_segments(&dir.join("wal")).unwrap().pop().unwrap().1;
        let f = OpenOptions::new().write(true).open(&seg2).unwrap();
        f.set_len(SEGMENT_HEADER + 3).unwrap(); // partial entry header
        drop(f);
        {
            let log = DurableLog::open(&dir, 1 << 20).unwrap();
            assert_eq!(log.durable_seq(), 1);
            // Re-append the lost batch (arrives again via NAK), same seq 2:
            // the new active segment is also named seg-2 — open() must
            // have removed the entry-less torn file so this is fresh.
            log.append_batch(2, &batch(10)).unwrap();
            log.sync_if_pending().unwrap();
            assert_eq!(
                log.read_range(1, u64::MAX).unwrap().len(),
                2,
                "both batches readable pre-reopen"
            );
        }
        let log = DurableLog::open(&dir, 1 << 20).unwrap();
        assert_eq!(log.durable_seq(), 2, "seq 2 must survive the second reopen");
        assert_eq!(
            log.read_range(1, u64::MAX).unwrap().len(),
            2,
            "seq 2 must be readable after reopen"
        );
        let _ = fs::remove_dir_all(dir);
    }
}
