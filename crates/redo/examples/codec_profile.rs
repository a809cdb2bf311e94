//! Cost of the redo link's byte work — run with
//! `cargo run --release -p imadg-redo --example codec_profile` to see what
//! the sender (encode + CRC) and the receiver (CRC + decode) pay for one
//! 101-column update record, and for one 64-record frame in the shared
//! length/CRC envelope.

use std::hint::black_box;
use std::time::Instant;

use imadg_common::{envelope, Dba, ObjectId, RedoThreadId, Scn, TenantId, TxnId};
use imadg_redo::codec::{self, Cur};
use imadg_redo::record::{RedoPayload, RedoRecord};
use imadg_storage::{ChangeOp, ChangeVector, Row, Value};

/// Records per frame: the shipper's batch at saturation.
const FRAME_RECORDS: usize = 64;

/// One wide-table update: a full 101-column after image (identity, 50
/// numbers, 50 `val_NNNNNN` strings) in one change vector.
fn update_record(key: i64) -> RedoRecord {
    let mut x = key as u64 ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 1000) as i64
    };
    let mut vals = vec![Value::Int(key)];
    vals.extend((0..50).map(|_| Value::Int(next())));
    vals.extend((0..50).map(|_| Value::str(format!("val_{:06}", next()))));
    RedoRecord {
        thread: RedoThreadId(1),
        scn: Scn(1_000 + key as u64),
        born_us: 17,
        payload: RedoPayload::Change(vec![ChangeVector {
            dba: Dba(0x10_0000 + key as u64 / 64),
            object: ObjectId(1),
            tenant: TenantId::DEFAULT,
            txn: TxnId(key as u64),
            op: ChangeOp::Update { slot: (key % 64) as u16, row: Row::new(vals) },
        }]),
    }
}

/// Median µs per call of `f` over 15 batches sized to ~20 ms each.
fn time_us(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calibrate = 0u32;
    while start.elapsed().as_millis() < 20 {
        f();
        calibrate += 1;
    }
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calibrate {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / f64::from(calibrate)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn encode_frame(out: &mut Vec<u8>, seq: u64, records: &[RedoRecord]) {
    envelope::write(out, |out| {
        codec::put_u64(out, seq);
        codec::put_u32(out, records.len() as u32);
        for r in records {
            codec::put_record(out, r);
        }
    });
}

fn decode_frame(wire: &[u8]) -> Vec<RedoRecord> {
    let (payload, _) = envelope::read(wire).expect("intact frame");
    let mut c = Cur::new(payload);
    let _seq = c.u64().unwrap();
    let n = c.u32().unwrap() as usize;
    let records: Vec<_> = (0..n).map(|_| codec::get_record(&mut c).unwrap()).collect();
    c.done().unwrap();
    records
}

fn main() {
    let record = update_record(7);
    let mut bytes = Vec::new();
    codec::put_record(&mut bytes, &record);
    let mut out = Vec::with_capacity(bytes.len());
    let crc = time_us(|| {
        black_box(envelope::crc32(black_box(&bytes)));
    });
    let encode = time_us(|| {
        out.clear();
        codec::put_record(&mut out, black_box(&record));
        black_box(&out);
    });
    let decode = time_us(|| {
        black_box(codec::get_record(&mut Cur::new(black_box(&bytes))).unwrap());
    });
    println!(
        "update record ({} B, 101 columns): crc {crc:.2} us  encode {encode:.2} us  decode {decode:.2} us",
        bytes.len()
    );

    let records: Vec<RedoRecord> = (0..FRAME_RECORDS as i64).map(update_record).collect();
    let mut wire = Vec::new();
    encode_frame(&mut wire, 1, &records);
    let crc = time_us(|| {
        black_box(envelope::crc32(black_box(&wire[envelope::HEADER..])));
    });
    let encode = time_us(|| {
        let mut out = Vec::new();
        encode_frame(&mut out, 1, black_box(&records));
        black_box(out);
    });
    let decode = time_us(|| {
        black_box(decode_frame(black_box(&wire)));
    });
    println!(
        "frame ({FRAME_RECORDS} records, {} B): crc {crc:.2} us  encode+crc {encode:.2} us  crc+decode {decode:.2} us",
        wire.len()
    );
}
