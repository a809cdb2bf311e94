//! Golden bytes of every persisted or shipped format.
//!
//! A wire frame, a durable WAL segment and a cold columnar file are each
//! built from fixed inputs and compared, byte for byte, with a pinned hex
//! image. The images were produced by the bitwise-CRC codec that preceded
//! the shared table-driven envelope; any drift — a CRC that differs, a
//! field written in another order, a header grown by a byte — strands
//! every segment and cold file already on disk, so it fails here first.
//!
//! The tests use only the formats' public entry points (`wire::encode`,
//! `DurableLog::append_batch` + `sync_if_pending`, `write_cold_file`), so
//! the same file checks any revision of the codec against the same bytes.

use std::path::PathBuf;

use imadg_common::{Dba, ObjectId, RedoThreadId, Scn, TenantId, TxnId};
use imadg_imcs::coldstore::write_cold_file;
use imadg_imcs::Imcu;
use imadg_net::wire::{self, Frame};
use imadg_redo::durable::DurableLog;
use imadg_redo::marker::{DdlKind, RedoMarker};
use imadg_redo::record::{CommitRecord, RedoPayload, RedoRecord};
use imadg_storage::{
    Block, ChangeOp, ChangeVector, ColumnType, Row, RowVersion, Schema, Store, TableSpec, Value,
};

/// A Data frame: CREATE TABLE marker, Begin, an update with a NULL and
/// strings (one of them multi-byte UTF-8), an insert, and the Commit.
const DATA_FRAME: &str = "
    2a01000093c6fab5010109000000000000000005000000016400000000000000
    0500000000000000040700000002000007000000060000006f72646572730200
    03000200000069640000040000006e6f74650100030000007174790000000000
    0040000165000000000000000600000000000000000300000000000000020001
    6500000000000000070000000000000001010000000100040000000000070000
    0002000300000000000000020500030001d6ffffffffffffff020600000068c3
    a96c6c6f00016600000000000000080000000000000001010000000100040000
    0000000700000002000300000000000000010600030001ffffffffffffff7f02
    0000000001090000000000000001670000000000000009000000000000000203
    000000000000000200670000000000000002
";

/// A WAL segment holding one entry: `[magic][version]` + one batch.
const WAL_SEGMENT: &str = "
    494d524c01000000db0000008eed6c9e01000000000000000400000001650000
    0000000000060000000000000000030000000000000002000165000000000000
    0007000000000000000101000000010004000000000007000000020003000000
    00000000020500030001d6ffffffffffffff020600000068c3a96c6c6f000166
    0000000000000008000000000000000101000000010004000000000007000000
    02000300000000000000010600030001ffffffffffffff7f0200000000010900
    0000000000000167000000000000000900000000000000020300000000000000
    0200670000000000000002
";

/// A cold file of a 5-row, 2-column unit (one NULL id, a dictionary
/// string column): header, two column pages, the row-location page, the
/// footer and the trailer.
const COLD_FILE: &str = "
    494d434601000000400000009c11a3df00010500000000000000000000000000
    0000000000000a000000000000001e0000002800000001040000000000000001
    000000000000000028000000000000002d000000639f997a0202000000020000
    00616202000000c3bc0500000000000000000000000100000000000000000000
    00010000004400000010447a4805000000000000000100000000000000000000
    0001000000000000000100000001000000000000000200000001000000000000
    0003000000010000000000000004000000aa000000ce8a551001000000010000
    0005000000000000000100000005000000000000000100000001000000000000
    0002000000000000000200000008000000000000005000000000000000000000
    0000000000040000000000000001000000000000000000000000000000002800
    0000000000005000000000000000000000000000000000000000000000000500
    00000000000000000000000000000102000000616202000000c3bc8500000000
    000000d100000000000000494d4346
";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Compare with a pinned image; on mismatch print the actual bytes so a
/// deliberate format change can be re-pinned in one step.
fn assert_golden(what: &str, bytes: &[u8], pinned: &str) {
    let got = hex(bytes);
    let want: String = pinned.split_whitespace().collect();
    assert!(got == want, "{what} drifted from its pinned bytes; got {} bytes:\n{got}", bytes.len());
}

/// A fresh per-test directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("imadg-golden-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cv(op: ChangeOp) -> ChangeVector {
    ChangeVector { dba: Dba(0x4_0001), object: ObjectId(7), tenant: TenantId(2), txn: TxnId(3), op }
}

fn record(scn: u64, born_us: u64, payload: RedoPayload) -> RedoRecord {
    RedoRecord { thread: RedoThreadId(1), scn: Scn(scn), born_us, payload }
}

fn golden_records() -> Vec<RedoRecord> {
    let spec = TableSpec {
        id: ObjectId(7),
        name: "orders".into(),
        tenant: TenantId(2),
        schema: Schema::of(&[
            ("id", ColumnType::Int),
            ("note", ColumnType::Varchar),
            ("qty", ColumnType::Int),
        ]),
        key_ordinal: 0,
        rows_per_block: 64,
    };
    let marker =
        RedoMarker { object: ObjectId(7), tenant: TenantId(2), ddl: DdlKind::CreateTable(spec) };
    vec![
        record(100, 5, RedoPayload::Marker(marker)),
        record(101, 6, RedoPayload::Begin { txn: TxnId(3), tenant: TenantId(2) }),
        record(
            101,
            7,
            RedoPayload::Change(vec![cv(ChangeOp::Update {
                slot: 5,
                row: Row::new(vec![Value::Int(-42), Value::str("héllo"), Value::Null]),
            })]),
        ),
        record(
            102,
            8,
            RedoPayload::Change(vec![cv(ChangeOp::Insert {
                slot: 6,
                row: Row::new(vec![Value::Int(i64::MAX), Value::str(""), Value::Int(9)]),
            })]),
        ),
        record(
            103,
            9,
            RedoPayload::Commit(CommitRecord {
                txn: TxnId(3),
                tenant: TenantId(2),
                commit_scn: Scn(103),
                modified_inmemory: Some(true),
            }),
        ),
    ]
}

#[test]
fn data_frame_bytes_are_pinned() {
    let frame = Frame::Data {
        thread: RedoThreadId(1),
        seq: 9,
        retransmit: false,
        records: golden_records(),
    };
    let bytes = wire::encode(&frame);
    assert_golden("Data frame", &bytes, DATA_FRAME);
    assert_eq!(format!("{:?}", wire::decode(&bytes).unwrap()), format!("{frame:?}"));
}

#[test]
fn wal_segment_bytes_are_pinned() {
    let dir = TempDir::new("wal");
    let log = DurableLog::open(&dir.0, 1 << 20).unwrap();
    let records = golden_records();
    log.append_batch(1, &records[1..]).unwrap();
    assert!(log.sync_if_pending().unwrap());
    let segment = dir.0.join("wal").join(format!("seg-{:020}.log", 1));
    let bytes = std::fs::read(&segment).unwrap();
    assert_golden("WAL segment", &bytes, WAL_SEGMENT);
    let back = log.read_range(1, 1).unwrap();
    assert_eq!(format!("{back:?}"), format!("{:?}", vec![(1u64, records[1..].to_vec())]));
}

#[test]
fn cold_file_bytes_are_pinned() {
    let schema = Schema::of(&[("id", ColumnType::Int), ("c", ColumnType::Varchar)]);
    let store = Store::new();
    store
        .create_table(TableSpec {
            id: ObjectId(1),
            name: "t".into(),
            tenant: TenantId::DEFAULT,
            schema: schema.clone(),
            key_ordinal: 0,
            rows_per_block: 8,
        })
        .unwrap();
    store.cache().install(Block::format(Dba(1), ObjectId(1), 8));
    store.segment(ObjectId(1)).unwrap().lock().add_block(Dba(1));
    store.txns().commit(TxnId(1), Scn(5));
    let block = store.cache().get(Dba(1)).unwrap();
    for i in 0..5i64 {
        let id = if i == 2 { Value::Null } else { Value::Int(i * 10) };
        block.write().chain_mut(i as u16).unwrap().push(RowVersion {
            txn: TxnId(1),
            scn: Scn(3),
            data: Some(Row::new(vec![id, Value::str(["ab", "ü", "ab"][i as usize % 3])])),
        });
    }
    let imcu =
        Imcu::build(&store, ObjectId(1), TenantId::DEFAULT, vec![Dba(1)], Scn(5), &schema).unwrap();

    let dir = TempDir::new("cold");
    let (path, _, size) = write_cold_file(&dir.0, &imcu).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len() as u64, size);
    assert_golden("cold file", &bytes, COLD_FILE);
}
