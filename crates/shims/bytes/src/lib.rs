//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to a crates.io mirror, so the
//! workspace vendors minimal, API-compatible implementations of the
//! handful of external crates it depends on. This one covers the subset
//! of `bytes` the workspace uses: cheaply clonable immutable [`Bytes`]
//! with zero-copy [`Bytes::slice`] windows, a growable [`BytesMut`]
//! builder whose [`BytesMut::freeze`]/[`BytesMut::split`] hand the
//! allocation over without copying the payload, and the [`BufMut`]
//! write methods.
//!
//! Representation: a `Bytes` is an `Arc<Vec<u8>>` plus an `(off, len)`
//! window, so slices taken from a decoded frame share the frame's
//! allocation — this is what makes the workspace's zero-copy data plane
//! possible (a chunk flowing producer → broker → backup is one
//! allocation with several windows onto it).

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable, immutable byte buffer: a shared allocation plus
/// an `(off, len)` view window.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes { data: Arc::new(Vec::new()), off: 0, len: 0 }
    }

    /// A buffer over a static slice (copied once; the real crate is
    /// zero-copy here, which callers cannot observe).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes { len: data.len(), data: Arc::new(data.to_vec()), off: 0 }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A zero-copy sub-window sharing this buffer's allocation.
    ///
    /// Panics when the range is out of bounds (same contract as the
    /// real crate) — decoders must bounds-check *before* slicing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds of {}",
            self.len
        );
        Bytes { data: Arc::clone(&self.data), off: self.off + start, len: end - start }
    }
}

impl From<Vec<u8>> for Bytes {
    /// Zero-copy: the vector's allocation is moved behind the `Arc`.
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { len: v.len(), data: Arc::new(v), off: 0 }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(v: [u8; N]) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when complete.
#[derive(Clone, Default, Debug)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut { data: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut { data: Vec::with_capacity(cap) }
    }

    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    pub fn clear(&mut self) {
        self.data.clear();
    }

    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }

    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.data.resize(new_len, value);
    }

    /// Takes the accumulated contents, leaving `self` empty (and ready
    /// to accumulate the next frame after a [`BytesMut::reserve`]).
    /// The real crate splits within one allocation; here the allocation
    /// moves out whole and the builder starts a fresh one — either way
    /// the payload bytes are never copied.
    pub fn split(&mut self) -> BytesMut {
        BytesMut { data: std::mem::take(&mut self.data) }
    }

    /// Converts into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes { len: self.data.len(), data: Arc::new(self.data), off: 0 }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Little-endian write methods, mirroring `bytes::BufMut`.
pub trait BufMut {
    fn put_u8(&mut self, v: u8);
    fn put_u16_le(&mut self, v: u16);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip() {
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.len(), 3);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(Bytes::new().is_empty());
        assert_eq!(&Bytes::from_static(b"hi")[..], b"hi");
        assert_eq!(&Bytes::copy_from_slice(&[9])[..], &[9]);
    }

    #[test]
    fn bytes_mut_builds_and_freezes() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(1);
        m.put_u16_le(0x0203);
        m.put_u32_le(0x04050607);
        m.put_u64_le(0x08090a0b0c0d0e0f);
        m.put_slice(&[0xff]);
        m.extend_from_slice(&[0xee]);
        let b = m.freeze();
        assert_eq!(
            &b[..],
            &[1, 3, 2, 7, 6, 5, 4, 0xf, 0xe, 0xd, 0xc, 0xb, 0xa, 9, 8, 0xff, 0xee]
        );
    }

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let s = b.slice(2..6);
        assert_eq!(&s[..], &[2, 3, 4, 5]);
        let ss = s.slice(1..=2);
        assert_eq!(&ss[..], &[3, 4]);
        assert_eq!(&s.slice(..)[..], &s[..]);
        assert_eq!(s.slice(4..4).len(), 0);
        // Same backing allocation: the Arc is shared, not copied.
        assert!(std::ptr::eq(b.as_ref().as_ptr(), s.as_ref().as_ptr().wrapping_sub(2)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice(1..5);
    }

    #[test]
    fn split_and_freeze_do_not_copy() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(b"abcdef");
        let ptr = m.as_ref().as_ptr();
        let frozen = m.split().freeze();
        assert_eq!(&frozen[..], b"abcdef");
        assert_eq!(frozen.as_ref().as_ptr(), ptr);
        assert!(m.is_empty());
        m.reserve(8);
        m.extend_from_slice(b"next");
        assert_eq!(&m[..], b"next");
    }

    #[test]
    fn from_vec_is_zero_copy() {
        let v = vec![9u8; 32];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ref().as_ptr(), ptr);
    }

    #[test]
    fn mutable_access_patches_in_place() {
        let mut m = BytesMut::new();
        m.extend_from_slice(&[0u8; 8]);
        m[4..8].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        assert_eq!(&m[4..8], &0xdead_beefu32.to_le_bytes());
        m.truncate(6);
        assert_eq!(m.len(), 6);
        m.resize(10, 0xaa);
        assert_eq!(&m[6..], &[0xaa; 4]);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn vec_bufmut_matches_bytesmut() {
        let mut v: Vec<u8> = Vec::new();
        let mut m = BytesMut::new();
        for out in [&mut v as &mut dyn BufMut, &mut m as &mut dyn BufMut] {
            out.put_u8(7);
            out.put_u16_le(513);
            out.put_u32_le(1);
            out.put_u64_le(2);
            out.put_slice(b"xy");
        }
        assert_eq!(&v[..], &m[..]);
    }
}
