//! The one checksummed envelope every shipped or persisted byte stream
//! uses: wire frames (`imadg-net`), durable WAL segment entries
//! (`imadg-redo`) and cold columnar file pages (`imadg-imcs`).
//!
//! An envelope is `[len u32 LE][crc32 u32 LE][payload]`, where `len` is
//! the payload length and the CRC-32 (IEEE 802.3) covers the payload
//! only. [`write`] reserves the header, lets the caller encode the
//! payload in place and then patches `len` and `crc`, so a payload is
//! never built in a scratch buffer and copied. [`read`] verifies both
//! before handing out the payload as a borrowed slice.

use crate::error::{Error, Result};

/// Envelope header size: `[len u32][crc32 u32]`.
pub const HEADER: usize = 8;

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `TABLES[0]` is the classic byte-at-a-time table and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight input bytes fold into the state with eight lookups.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven,
/// eight bytes per step. Guards every envelope in the workspace.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Append one envelope to `out`, with `body` encoding the payload
/// directly after the reserved header. Returns the envelope's offset.
pub fn write(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER]);
    body(out);
    let payload = &out[start + HEADER..];
    let len = u32::try_from(payload.len()).expect("envelope payload exceeds 4 GiB");
    let crc = crc32(payload);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + HEADER].copy_from_slice(&crc.to_le_bytes());
    start
}

/// The payload length an envelope header announces, once `buf` holds its
/// first four bytes (stream reassembly sizes a frame before it arrives).
pub fn payload_len(buf: &[u8]) -> Option<usize> {
    buf.first_chunk::<4>().map(|len| u32::from_le_bytes(*len) as usize)
}

/// Verify the envelope at the start of `buf`; returns its payload and the
/// bytes after it. A short header, a length running past `buf` or a CRC
/// mismatch is [`Error::WireCorrupt`].
pub fn read(buf: &[u8]) -> Result<(&[u8], &[u8])> {
    let Some((&[l0, l1, l2, l3, c0, c1, c2, c3], rest)) = buf.split_first_chunk::<HEADER>() else {
        return Err(Error::WireCorrupt("short envelope header".into()));
    };
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if rest.len() < len {
        return Err(Error::WireCorrupt(format!(
            "envelope truncated: header says {len} bytes, {} follow",
            rest.len()
        )));
    }
    let (payload, rest) = rest.split_at(len);
    if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
        return Err(Error::WireCorrupt("checksum mismatch".into()));
    }
    Ok((payload, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bitwise definition the tables are derived from: the reference
    /// the table-driven [`crc32`] must match on every input.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic CRC-32/IEEE check value, and the empty input.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn table_crc_equals_bitwise(len in 0usize..4096, offset in 0usize..8, seed in 0u64..u64::MAX) {
            // Fill from a SplitMix-style stream; slice at an unaligned
            // offset so the eight-byte steps start anywhere in a word.
            let mut x = seed;
            let buf: Vec<u8> = (0..len + offset)
                .map(|_| {
                    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    (z ^ (z >> 27)) as u8
                })
                .collect();
            let bytes = &buf[offset..];
            prop_assert_eq!(crc32(bytes), crc32_bitwise(bytes));
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut out = vec![0xAA];
        let a = write(&mut out, |o| o.extend_from_slice(b"payload"));
        let b = write(&mut out, |_| {});
        assert_eq!((a, b), (1, 1 + HEADER + 7));
        let (payload, rest) = read(&out[a..]).unwrap();
        assert_eq!(payload, b"payload");
        let (empty, rest) = read(rest).unwrap();
        assert!(empty.is_empty() && rest.is_empty());
        assert_eq!(payload_len(&out[a..]), Some(7));
        assert_eq!(&out[a + 4..a + HEADER], &crc32(b"payload").to_le_bytes());
    }

    #[test]
    fn damaged_envelopes_are_rejected() {
        let mut out = Vec::new();
        write(&mut out, |o| o.extend_from_slice(b"abcdef"));
        assert!(matches!(read(&out[..HEADER - 1]), Err(Error::WireCorrupt(_))), "short header");
        assert!(matches!(read(&out[..out.len() - 1]), Err(Error::WireCorrupt(_))), "truncated");
        let mut flipped = out.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        assert!(matches!(read(&flipped), Err(Error::WireCorrupt(_))), "flipped payload bit");
        assert_eq!(payload_len(&out[..3]), None);
    }
}
