//! Little-endian byte codec for the cold columnar file format (pages are
//! framed and checksummed by the shared [`imadg_common::envelope`]).
//!
//! Deliberately tiny: fixed-width little-endian primitives written into a
//! `Vec<u8>` and read back through a bounds-checked [`Reader`]. Every
//! decode path returns `Option` — corruption is an expected input (torn
//! writes, truncated footers), and the scan path degrades to the row
//! store instead of panicking.

/// Upper bound on any length field read from disk. A corrupt length must
/// not translate into a multi-gigabyte allocation before the CRC check
/// has a chance to reject the payload.
pub(crate) const MAX_LEN: usize = 1 << 26;

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked cursor over a byte slice.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    pub(crate) fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A length field that must be a sane allocation size.
    pub(crate) fn len_u32(&mut self) -> Option<usize> {
        let n = self.u32()? as usize;
        (n <= MAX_LEN).then_some(n)
    }

    /// A row-count field (u64 on disk, bounded like any other length).
    pub(crate) fn len_u64(&mut self) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n <= MAX_LEN).then_some(n)
    }

    /// A length-prefixed UTF-8 string, borrowed from the page so the
    /// caller allocates it once, in the type it keeps.
    pub(crate) fn str(&mut self) -> Option<&'a str> {
        let n = self.len_u32()?;
        std::str::from_utf8(self.take(n)?).ok()
    }

    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_i64(&mut buf, i64::MIN);
        put_str(&mut buf, "colonne");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.i64(), Some(i64::MIN));
        assert_eq!(r.str(), Some("colonne"));
        assert!(r.is_done());
    }

    #[test]
    fn truncated_reads_return_none() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 9);
        let mut r = Reader::new(&buf[..2]);
        assert_eq!(r.u32(), None);
        // An over-long length field is rejected before allocating.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert_eq!(Reader::new(&buf).len_u32(), None);
    }
}
