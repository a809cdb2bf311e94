//! Wire format for framed redo links.
//!
//! Every frame travels in the shared [`imadg_common::envelope`],
//! `[len: u32 LE][crc32: u32 LE][payload]`, where `len` is the payload
//! length and the CRC-32 (IEEE) covers the payload only — the envelope
//! WAL segment entries and cold file pages use too. The payload is a
//! tag-prefixed binary encoding of [`Frame`]; the record-level encoding
//! lives in [`imadg_redo::codec`] and is shared with the on-disk segment
//! format, so a batch persisted by the durable log is bit-identical to the
//! one that travelled the link.
//!
//! Data frames carry a per-link sequence number assigned by the reliable
//! sender; the `retransmit` flag marks frames re-served from the retained
//! window in answer to a NAK, so the receiver can attribute them.

use imadg_common::{envelope, Error, RedoThreadId, Result};
use imadg_redo::codec::{self, Cur};
use imadg_redo::record::RedoRecord;

/// A protocol frame on a redo link.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Sent by the primary after (re)connecting: announces the next data
    /// sequence number so the receiver can re-ACK its cumulative position.
    Hello {
        /// Redo thread this link carries.
        thread: RedoThreadId,
        /// The sender's next unsent sequence number.
        next_seq: u64,
    },
    /// A sequence-numbered batch of redo records (primary → standby).
    Data {
        /// Redo thread this link carries.
        thread: RedoThreadId,
        /// Per-link sequence number, starting at 1.
        seq: u64,
        /// Re-served from the retained window in answer to a NAK.
        retransmit: bool,
        /// The records.
        records: Vec<RedoRecord>,
    },
    /// Negative acknowledgement: the receiver is missing `from..=to`
    /// (standby → primary).
    Nak {
        /// Redo thread this link carries.
        thread: RedoThreadId,
        /// First missing sequence number.
        from: u64,
        /// Last missing sequence number.
        to: u64,
    },
    /// Cumulative acknowledgement through `through` (standby → primary);
    /// lets the primary trim its retained window.
    Ack {
        /// Redo thread this link carries.
        thread: RedoThreadId,
        /// Highest sequence number delivered in order.
        through: u64,
    },
    /// Liveness probe sent while data is unacknowledged and the control
    /// path is silent; the receiver answers with its cumulative ACK.
    /// Carrying `next_seq` lets the receiver detect *tail* loss — a
    /// dropped final frame leaves no later sequence to expose the gap.
    Ping {
        /// Redo thread this link carries.
        thread: RedoThreadId,
        /// The sender's next unsent sequence number.
        next_seq: u64,
    },
}

const TAG_HELLO: u8 = 0;
const TAG_DATA: u8 = 1;
const TAG_NAK: u8 = 2;
const TAG_ACK: u8 = 3;
const TAG_PING: u8 = 4;

// ---- frame codec ---------------------------------------------------------

fn encode_payload(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Hello { thread, next_seq } => {
            codec::put_u8(out, TAG_HELLO);
            codec::put_u8(out, thread.0);
            codec::put_u64(out, *next_seq);
        }
        Frame::Data { thread, seq, retransmit, records } => {
            codec::put_u8(out, TAG_DATA);
            codec::put_u8(out, thread.0);
            codec::put_u64(out, *seq);
            codec::put_u8(out, u8::from(*retransmit));
            codec::put_u32(out, records.len() as u32);
            for r in records {
                codec::put_record(out, r);
            }
        }
        Frame::Nak { thread, from, to } => {
            codec::put_u8(out, TAG_NAK);
            codec::put_u8(out, thread.0);
            codec::put_u64(out, *from);
            codec::put_u64(out, *to);
        }
        Frame::Ack { thread, through } => {
            codec::put_u8(out, TAG_ACK);
            codec::put_u8(out, thread.0);
            codec::put_u64(out, *through);
        }
        Frame::Ping { thread, next_seq } => {
            codec::put_u8(out, TAG_PING);
            codec::put_u8(out, thread.0);
            codec::put_u64(out, *next_seq);
        }
    }
}

fn decode_payload(payload: &[u8]) -> Result<Frame> {
    let mut c = Cur::new(payload);
    let frame = match c.u8()? {
        TAG_HELLO => Frame::Hello { thread: RedoThreadId(c.u8()?), next_seq: c.u64()? },
        TAG_DATA => {
            let thread = RedoThreadId(c.u8()?);
            let seq = c.u64()?;
            let retransmit = c.bool()?;
            let n = c.u32()? as usize;
            let mut records = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                records.push(codec::get_record(&mut c)?);
            }
            Frame::Data { thread, seq, retransmit, records }
        }
        TAG_NAK => Frame::Nak { thread: RedoThreadId(c.u8()?), from: c.u64()?, to: c.u64()? },
        TAG_ACK => Frame::Ack { thread: RedoThreadId(c.u8()?), through: c.u64()? },
        TAG_PING => Frame::Ping { thread: RedoThreadId(c.u8()?), next_seq: c.u64()? },
        t => return Err(Error::WireCorrupt(format!("bad frame tag {t}"))),
    };
    c.done()?;
    Ok(frame)
}

/// Encode a frame into its full wire representation
/// (`[len][crc32][payload]`), the payload written in place behind the
/// reserved header.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(envelope::HEADER + 64);
    envelope::write(&mut out, |out| encode_payload(frame, out));
    out
}

/// Decode one complete wire frame (as produced by [`encode`]), verifying
/// length and checksum.
pub fn decode(wire: &[u8]) -> Result<Frame> {
    let (payload, rest) = envelope::read(wire)?;
    if !rest.is_empty() {
        return Err(Error::WireCorrupt(format!(
            "frame length mismatch: {} bytes past the payload",
            rest.len()
        )));
    }
    decode_payload(payload)
}

/// Reassembles complete wire frames from a byte stream (TCP path). Bytes
/// are fed in arbitrary chunks; complete frames pop out in order.
#[derive(Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
}

impl FrameAssembler {
    /// Maximum accepted payload size; a corrupted length prefix must not
    /// make the assembler buffer unboundedly.
    pub const MAX_FRAME: usize = 64 * 1024 * 1024;

    /// Feed raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete wire frame, if one is fully buffered.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let Some(len) = envelope::payload_len(&self.buf) else {
            return Ok(None);
        };
        if len > Self::MAX_FRAME {
            return Err(Error::WireCorrupt(format!("frame of {len} bytes exceeds limit")));
        }
        let total = envelope::HEADER + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let frame: Vec<u8> = self.buf.drain(..total).collect();
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_common::{Dba, ObjectId, Scn, TenantId, TxnId};
    use imadg_redo::marker::{DdlKind, RedoMarker};
    use imadg_redo::record::{CommitRecord, RedoPayload};
    use imadg_storage::{ChangeOp, ChangeVector, ColumnType, Row, Schema, TableSpec, Value};

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
                payload: RedoPayload::Change(vec![
                    ChangeVector {
                        dba: Dba(42),
                        object: ObjectId(7),
                        tenant: TenantId::DEFAULT,
                        txn: TxnId(3),
                        op: ChangeOp::Format { capacity: 16 },
                    },
                    ChangeVector {
                        dba: Dba(42),
                        object: ObjectId(7),
                        tenant: TenantId::DEFAULT,
                        txn: TxnId(3),
                        op: ChangeOp::Insert {
                            slot: 0,
                            row: Row::new(vec![Value::Int(1), Value::str("hi"), Value::Null]),
                        },
                    },
                    ChangeVector {
                        dba: Dba(42),
                        object: ObjectId(7),
                        tenant: TenantId::DEFAULT,
                        txn: TxnId(3),
                        op: ChangeOp::Delete { slot: 2 },
                    },
                ]),
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

    fn assert_records_eq(a: &[RedoRecord], b: &[RedoRecord]) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn data_frame_round_trips_every_payload_kind() {
        let records = sample_records();
        let wire = encode(&Frame::Data {
            thread: RedoThreadId(1),
            seq: 9,
            retransmit: true,
            records: records.clone(),
        });
        match decode(&wire).unwrap() {
            Frame::Data { thread, seq, retransmit, records: got } => {
                assert_eq!(thread, RedoThreadId(1));
                assert_eq!(seq, 9);
                assert!(retransmit);
                assert_records_eq(&got, &records);
            }
            f => panic!("wrong frame: {f:?}"),
        }
    }

    #[test]
    fn control_frames_round_trip() {
        for f in [
            Frame::Hello { thread: RedoThreadId(2), next_seq: 17 },
            Frame::Nak { thread: RedoThreadId(2), from: 3, to: 9 },
            Frame::Ack { thread: RedoThreadId(2), through: 12 },
            Frame::Ping { thread: RedoThreadId(2), next_seq: 17 },
        ] {
            let wire = encode(&f);
            let back = decode(&wire).unwrap();
            assert_eq!(format!("{back:?}"), format!("{f:?}"));
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut wire = encode(&Frame::Ack { thread: RedoThreadId(1), through: 5 });
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        assert!(matches!(decode(&wire), Err(Error::WireCorrupt(_))), "flipped payload bit");

        let wire = encode(&Frame::Ping { thread: RedoThreadId(1), next_seq: 1 });
        assert!(decode(&wire[..wire.len() - 1]).is_err(), "truncated frame");
        assert!(decode(&wire[..4]).is_err(), "short header");
    }

    #[test]
    fn crc_valid_frame_with_a_bad_string_is_corrupt() {
        // Damage the string inside a Data frame, then re-seal the CRC: the
        // envelope verifies, so only the borrowed-slice decode can catch
        // it — it must answer WireCorrupt, never a truncated row.
        type Damage = fn(&mut Vec<u8>, usize);
        let damages: [(&str, Damage); 2] = [
            ("invalid utf-8", |wire, at| wire[at] = 0xFF),
            ("length past the payload", |wire, at| {
                wire[at - 4..at].copy_from_slice(&0x00FF_FFFFu32.to_le_bytes())
            }),
        ];
        for (what, damage) in damages {
            let mut wire = encode(&Frame::Data {
                thread: RedoThreadId(1),
                seq: 1,
                retransmit: false,
                records: sample_records(),
            });
            let at = wire.windows(6).position(|w| w == b"\x02\0\0\0hi").unwrap() + 4;
            damage(&mut wire, at);
            let crc = envelope::crc32(&wire[envelope::HEADER..]);
            wire[4..envelope::HEADER].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(decode(&wire), Err(Error::WireCorrupt(_))), "{what}");
        }
    }

    #[test]
    fn assembler_reassembles_split_and_batched_frames() {
        let a = encode(&Frame::Ack { thread: RedoThreadId(1), through: 1 });
        let b = encode(&Frame::Nak { thread: RedoThreadId(1), from: 2, to: 4 });
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);

        // Feed one byte at a time: frames must pop out exactly at their
        // boundaries, bit-identical.
        let mut asm = FrameAssembler::default();
        let mut got = Vec::new();
        for &byte in &stream {
            asm.push(&[byte]);
            while let Some(f) = asm.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, vec![a, b]);
    }
}
