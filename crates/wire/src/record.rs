//! The record entry format (paper §IV-A).
//!
//! > "Each record of a stream is represented by an entry header which has a
//! > checksum covering everything but this field; the record is defined by
//! > several keys (possibly none) and its value, similar to the
//! > multi-key-value data format used in RAMCloud. The record's entry
//! > header contains an attribute to optionally define a version and a
//! > timestamp field."
//!
//! On-wire layout (little-endian):
//!
//! ```text
//! +0   checksum   u32   CRC32C over bytes [4 .. entry_len)
//! +4   entry_len  u32   total entry length, header included
//! +8   flags      u8    bit0 = has version, bit1 = has timestamp
//! +9   num_keys   u8
//! +10  reserved   u16   must be zero
//! [version    u64]      present iff flags bit0
//! [timestamp  u64]      present iff flags bit1
//! [key_len    u16] × num_keys
//! [key bytes  ...] × num_keys
//! [value bytes ...]     entry_len - everything above
//! ```

use bytes::BufMut;
use kera_common::checksum::crc32c;
use kera_common::{KeraError, Result};

/// Fixed part of the entry header.
pub const RECORD_FIXED_HEADER: usize = 12;
const FLAG_VERSION: u8 = 0b01;
const FLAG_TIMESTAMP: u8 = 0b10;

/// Everything needed to serialize one record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Record<'a> {
    pub version: Option<u64>,
    pub timestamp: Option<u64>,
    pub keys: Vec<&'a [u8]>,
    pub value: &'a [u8],
}

impl<'a> Record<'a> {
    /// A plain non-keyed record — what the paper's evaluation workload uses
    /// (100-byte non-keyed records).
    pub fn value_only(value: &'a [u8]) -> Self {
        Self { version: None, timestamp: None, keys: Vec::new(), value }
    }

    /// Serialized size of this record.
    pub fn encoded_len(&self) -> usize {
        RECORD_FIXED_HEADER
            + self.version.map_or(0, |_| 8)
            + self.timestamp.map_or(0, |_| 8)
            + self.keys.len() * 2
            + self.keys.iter().map(|k| k.len()).sum::<usize>()
            + self.value.len()
    }

    /// Appends the serialized entry to `out`. Returns the entry length.
    ///
    /// Generic over the sink so the producer's chunk builder (a fresh
    /// `BytesMut` allocated per chunk, later frozen and shipped without
    /// copying) and plain `Vec<u8>` buffers share one encoder — the record
    /// is serialized exactly once, at this call.
    pub fn encode_into<B>(&self, out: &mut B) -> usize
    where
        B: BufMut + AsRef<[u8]> + AsMut<[u8]>,
    {
        let start = out.as_ref().len();
        let entry_len = self.encoded_len();
        out.put_slice(&[0u8; 4]); // checksum patched below
        out.put_u32_le(entry_len as u32);
        let mut flags = 0u8;
        if self.version.is_some() {
            flags |= FLAG_VERSION;
        }
        if self.timestamp.is_some() {
            flags |= FLAG_TIMESTAMP;
        }
        out.put_u8(flags);
        out.put_u8(self.keys.len() as u8);
        out.put_slice(&[0u8; 2]); // reserved
        if let Some(v) = self.version {
            out.put_u64_le(v);
        }
        if let Some(t) = self.timestamp {
            out.put_u64_le(t);
        }
        for k in &self.keys {
            out.put_u16_le(k.len() as u16);
        }
        for k in &self.keys {
            out.put_slice(k);
        }
        out.put_slice(self.value);
        debug_assert_eq!(out.as_ref().len() - start, entry_len);
        // Checksum covers everything but the checksum field itself
        // (paper: "a checksum covering everything but this field").
        let buf = out.as_mut();
        let crc = crc32c(&buf[start + 4..start + entry_len]);
        buf[start..start + 4].copy_from_slice(&crc.to_le_bytes());
        entry_len
    }
}

/// Zero-copy view over one serialized record.
#[derive(Clone, Copy, Debug)]
pub struct RecordView<'a> {
    buf: &'a [u8], // exactly one entry
    flags: u8,
    num_keys: u8,
}

impl<'a> RecordView<'a> {
    /// Parses the record starting at `buf[0]`. `buf` may extend beyond the
    /// entry; the returned view is trimmed to `entry_len`.
    pub fn parse(buf: &'a [u8]) -> Result<RecordView<'a>> {
        if buf.len() < RECORD_FIXED_HEADER {
            return Err(KeraError::Protocol("record shorter than fixed header".into()));
        }
        let entry_len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
        if entry_len < RECORD_FIXED_HEADER || entry_len > buf.len() {
            return Err(KeraError::Protocol(format!(
                "record entry_len {entry_len} out of bounds (buffer {})",
                buf.len()
            )));
        }
        let flags = buf[8];
        let num_keys = buf[9];
        let view = RecordView { buf: &buf[..entry_len], flags, num_keys };
        // Structural validation: variable sections must fit.
        if view.var_header_len() > entry_len {
            return Err(KeraError::Protocol("record variable header overflows entry".into()));
        }
        let keys_total: usize =
            (0..num_keys).map(|i| view.key_len(i as usize)).sum::<usize>();
        if view.var_header_len() + keys_total > entry_len {
            return Err(KeraError::Protocol("record keys overflow entry".into()));
        }
        Ok(view)
    }

    #[inline]
    pub fn entry_len(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    pub fn stored_checksum(&self) -> u32 {
        u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]])
    }

    /// Recomputes the checksum and compares against the stored one.
    pub fn verify(&self) -> Result<()> {
        let actual = crc32c(&self.buf[4..]);
        let expected = self.stored_checksum();
        if actual != expected {
            return Err(KeraError::Corruption { what: "record", expected, actual });
        }
        Ok(())
    }

    #[inline]
    fn has_version(&self) -> bool {
        self.flags & FLAG_VERSION != 0
    }

    #[inline]
    fn has_timestamp(&self) -> bool {
        self.flags & FLAG_TIMESTAMP != 0
    }

    /// Byte length of the fixed header plus optional fields and the key
    /// length table (i.e. offset of the first key byte).
    fn var_header_len(&self) -> usize {
        RECORD_FIXED_HEADER
            + if self.has_version() { 8 } else { 0 }
            + if self.has_timestamp() { 8 } else { 0 }
            + self.num_keys as usize * 2
    }

    pub fn version(&self) -> Option<u64> {
        if !self.has_version() {
            return None;
        }
        let off = RECORD_FIXED_HEADER;
        let bytes = self.buf.get(off..off + 8)?;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    pub fn timestamp(&self) -> Option<u64> {
        if !self.has_timestamp() {
            return None;
        }
        let off = RECORD_FIXED_HEADER + if self.has_version() { 8 } else { 0 };
        let bytes = self.buf.get(off..off + 8)?;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    #[inline]
    pub fn num_keys(&self) -> usize {
        self.num_keys as usize
    }

    fn key_len(&self, i: usize) -> usize {
        let table = RECORD_FIXED_HEADER
            + if self.has_version() { 8 } else { 0 }
            + if self.has_timestamp() { 8 } else { 0 };
        let off = table + i * 2;
        u16::from_le_bytes([self.buf[off], self.buf[off + 1]]) as usize
    }

    /// The `i`-th key.
    pub fn key(&self, i: usize) -> Option<&'a [u8]> {
        if i >= self.num_keys() {
            return None;
        }
        let mut start = self.var_header_len();
        for j in 0..i {
            start += self.key_len(j);
        }
        Some(&self.buf[start..start + self.key_len(i)])
    }

    /// The record value (everything after the keys).
    pub fn value(&self) -> &'a [u8] {
        let mut start = self.var_header_len();
        for i in 0..self.num_keys() {
            start += self.key_len(i);
        }
        &self.buf[start..]
    }
}

/// Iterates the records packed back-to-back in `buf` (a chunk payload).
pub struct RecordIter<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RecordIter<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
}

impl<'a> Iterator for RecordIter<'a> {
    type Item = Result<RecordView<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.buf.len() {
            return None;
        }
        match RecordView::parse(&self.buf[self.pos..]) {
            Ok(view) => {
                self.pos += view.entry_len();
                Some(Ok(view))
            }
            Err(e) => {
                self.pos = self.buf.len(); // stop iteration after an error
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: &Record<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        let n = rec.encode_into(&mut out);
        assert_eq!(n, out.len());
        assert_eq!(n, rec.encoded_len());
        out
    }

    #[test]
    fn value_only_roundtrip() {
        let rec = Record::value_only(b"payload-bytes");
        let buf = roundtrip(&rec);
        let view = RecordView::parse(&buf).unwrap();
        view.verify().unwrap();
        assert_eq!(view.value(), b"payload-bytes");
        assert_eq!(view.num_keys(), 0);
        assert_eq!(view.version(), None);
        assert_eq!(view.timestamp(), None);
    }

    #[test]
    fn full_featured_roundtrip() {
        let rec = Record {
            version: Some(7),
            timestamp: Some(1_625_000_000_000),
            keys: vec![b"user-42".as_slice(), b"region-eu".as_slice()],
            value: b"the-value",
        };
        let buf = roundtrip(&rec);
        let view = RecordView::parse(&buf).unwrap();
        view.verify().unwrap();
        assert_eq!(view.version(), Some(7));
        assert_eq!(view.timestamp(), Some(1_625_000_000_000));
        assert_eq!(view.num_keys(), 2);
        assert_eq!(view.key(0).unwrap(), b"user-42");
        assert_eq!(view.key(1).unwrap(), b"region-eu");
        assert_eq!(view.key(2), None);
        assert_eq!(view.value(), b"the-value");
    }

    #[test]
    fn empty_value_and_empty_key() {
        let rec = Record { version: None, timestamp: None, keys: vec![b"".as_slice()], value: b"" };
        let buf = roundtrip(&rec);
        let view = RecordView::parse(&buf).unwrap();
        view.verify().unwrap();
        assert_eq!(view.key(0).unwrap(), b"");
        assert_eq!(view.value(), b"");
    }

    #[test]
    fn corruption_detected_anywhere_past_checksum_field() {
        let rec = Record::value_only(b"sensitive");
        let buf = roundtrip(&rec);
        for i in 4..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            // A flip in entry_len (or other structural fields) may already
            // fail parsing; otherwise the checksum must catch it.
            let detected = match RecordView::parse(&bad) {
                Err(_) => true,
                Ok(view) => view.verify().is_err(),
            };
            assert!(detected, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn truncated_parse_fails() {
        let rec = Record::value_only(b"0123456789");
        let buf = roundtrip(&rec);
        assert!(RecordView::parse(&buf[..buf.len() - 1]).is_err());
        assert!(RecordView::parse(&buf[..4]).is_err());
    }

    #[test]
    fn iterator_walks_consecutive_records() {
        let mut buf = Vec::new();
        for i in 0..10u8 {
            Record::value_only(&[i; 5]).encode_into(&mut buf);
        }
        let recs: Vec<_> = RecordIter::new(&buf).collect::<Result<_>>().unwrap();
        assert_eq!(recs.len(), 10);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.value(), &[i as u8; 5]);
            r.verify().unwrap();
        }
    }

    #[test]
    fn iterator_surfaces_error_then_stops() {
        let mut buf = Vec::new();
        Record::value_only(b"ok").encode_into(&mut buf);
        buf.extend_from_slice(&[0xff; 3]); // garbage tail
        let mut it = RecordIter::new(&buf);
        assert!(it.next().unwrap().is_ok());
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none());
    }

    #[test]
    fn entry_len_zero_is_rejected_not_infinite_loop() {
        let mut buf = vec![0u8; RECORD_FIXED_HEADER];
        // entry_len = 0
        buf[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(RecordView::parse(&buf).is_err());
    }

    #[test]
    fn parse_trims_to_entry_len() {
        let mut buf = Vec::new();
        Record::value_only(b"first").encode_into(&mut buf);
        let first_len = buf.len();
        Record::value_only(b"second").encode_into(&mut buf);
        let view = RecordView::parse(&buf).unwrap();
        assert_eq!(view.entry_len(), first_len);
        assert_eq!(view.value(), b"first");
    }
}
