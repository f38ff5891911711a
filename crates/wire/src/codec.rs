//! Where byte layouts are written down — and the only module that writes
//! them.
//!
//! A message body is declared once, as a field list, with [`wire_struct!`];
//! everything else is derived from it through the [`Wire`] trait, which is
//! implemented exactly once per field type in this file:
//!
//! - integers are little-endian; the id newtypes are their raw integer;
//! - `bool` is one byte, `0` or `1` — anything else is a `Protocol` error,
//!   so a flipped bit never decodes "successfully";
//! - `Vec<T>` is a `u32` count then the elements. This is the one place a
//!   count is written (through [`checked_len`]) and the one place it is
//!   read (through [`Reader::collection_len`] with `T::MIN_LEN`), so an
//!   untrusted count is bounded by the bytes that follow before anything
//!   is allocated from it;
//! - `String` and `Bytes` are a `u32` length then the bytes. A `Bytes` is
//!   decoded as a zero-copy `slice` of the buffer the reader was opened
//!   on (`Reader::from(&Bytes)`); the [`Rest`] field codec takes the rest
//!   of the buffer the same way (chunk trains);
//! - `Option<T>` is a presence `bool` then the value; [`Sentinel`] is the
//!   older `u32::MAX`-means-`None` form of `Option<NodeId>`;
//! - a struct declared `crc("name")` is framed `crc32c | body_len | body`.
//!
//! `MIN_LEN` — the fewest bytes an encoding can occupy — is the sum of the
//! fields' minimums, never a literal. Nothing here panics: truncation and
//! malformed input are [`KeraError::Protocol`], a failed checksum is
//! [`KeraError::Corruption`], a length past `u32` is
//! [`KeraError::EncodeOverflow`].
//!
//! The module is crate-private: no other crate can name a `Reader` or a
//! `Writer`, so a body without a declared type cannot be written.

use bytes::{BufMut, Bytes, BytesMut};
use kera_common::checksum::crc32c;
use kera_common::ids::{
    ConsumerId, NodeId, ProducerId, StreamId, StreamletId, VirtualLogId, VirtualSegmentId,
};
use kera_common::{KeraError, Result};

/// Checked `usize -> u32` conversion for length and count fields.
///
/// Every length on the wire is a `u32`; a buffer past 4 GiB must fail at
/// encode time with [`KeraError::EncodeOverflow`] rather than truncate
/// into a frame that *decodes* — with a silently wrong length.
#[inline]
pub fn checked_len(what: &'static str, len: usize) -> Result<u32> {
    u32::try_from(len).map_err(|_| KeraError::EncodeOverflow { what, len })
}

/// Sequential reader over a byte slice.
#[derive(Clone, Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The refcounted buffer `buf` views, when there is one: `Bytes`
    /// fields are sliced out of it instead of copied.
    shared: Option<&'a Bytes>,
}

impl<'a> From<&'a [u8]> for Reader<'a> {
    fn from(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, shared: None }
    }
}

/// A reader whose `Bytes` fields come back as windows of `buf`.
impl<'a> From<&'a Bytes> for Reader<'a> {
    fn from(buf: &'a Bytes) -> Self {
        Self { buf, pos: 0, shared: Some(buf) }
    }
}

impl<'a> Reader<'a> {
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(KeraError::Protocol(format!(
                "truncated message: needed {n} bytes at offset {}, had {}",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Reads `n` bytes as a `Bytes`: a window of the shared buffer when
    /// the reader was opened on one, else a copy.
    pub fn take(&mut self, n: usize) -> Result<Bytes> {
        let start = self.pos;
        let raw = self.bytes(n)?;
        Ok(match self.shared {
            Some(buf) => buf.slice(start..start + n),
            None => Bytes::copy_from_slice(raw),
        })
    }

    /// Reads a `u32` element count for a collection whose elements each
    /// occupy at least `min_elem_size` bytes, rejecting counts that could
    /// not possibly fit in the remaining buffer. This keeps
    /// `Vec::with_capacity` on untrusted input from aborting the process
    /// with a huge allocation.
    pub fn collection_len(&mut self, min_elem_size: usize) -> Result<u32> {
        let n: u32 = self.get()?;
        let needed = (n as usize).saturating_mul(min_elem_size.max(1));
        if needed > self.remaining() {
            return Err(KeraError::Protocol(format!(
                "collection of {n} elements (>= {min_elem_size} bytes each) cannot fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads one value of the type the caller expects.
    pub fn get<T: Wire>(&mut self) -> Result<T> {
        T::get(self)
    }
}

/// Sequential writer producing a `Bytes`.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: BytesMut,
}

impl Writer {
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: BytesMut::with_capacity(cap) }
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32_le(v);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64_le(v);
        self
    }

    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_slice(v);
        self
    }

    /// Writes a `u32` length prefix followed by the bytes. Errors (leaving
    /// the buffer untouched) if `v` is too large for the length field.
    fn len_prefixed(&mut self, v: &[u8]) -> Result<()> {
        let n = checked_len("length-prefixed field", v.len())?;
        self.u32(n).bytes(v);
        Ok(())
    }

    pub fn put<T: Wire>(&mut self, v: &T) -> Result<()> {
        v.put(self)
    }

    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// A value with one wire layout. Implemented once per field type below
/// and, through [`wire_struct!`] / [`wire_enum!`], once per declaration.
pub(crate) trait Wire: Sized {
    /// Fewest bytes an encoding of `Self` can occupy.
    const MIN_LEN: usize;
    fn put(&self, w: &mut Writer) -> Result<()>;
    fn get(r: &mut Reader<'_>) -> Result<Self>;
    /// Encoded size, so [`encode`] allocates once. Exact for every impl in
    /// this file and every macro-declared struct; a hand-written impl may
    /// leave the default, which only costs a regrow.
    fn wire_len(&self) -> usize {
        Self::MIN_LEN
    }
}

/// Encodes one value into a buffer of its own.
pub(crate) fn encode<T: Wire>(v: &T) -> Result<Bytes> {
    let mut w = Writer::with_capacity(v.wire_len());
    v.put(&mut w)?;
    Ok(w.finish())
}

/// What a declared `encode` returns: `Result<Bytes>` surfaces
/// [`KeraError::EncodeOverflow`]; plain `Bytes` is for bodies that are
/// fixed-width or whose vectors are bounded by the size of the cluster —
/// should a count ever not fit `u32`, the body comes out empty, which
/// every decoder refuses (`MIN_LEN > 0`), never a frame that decodes to a
/// different message.
pub(crate) trait Encoded {
    fn from_encoded(body: Result<Bytes>) -> Self;
}

impl Encoded for Result<Bytes> {
    fn from_encoded(body: Result<Bytes>) -> Self {
        body
    }
}

impl Encoded for Bytes {
    fn from_encoded(body: Result<Bytes>) -> Self {
        body.unwrap_or_default()
    }
}

macro_rules! wire_int {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            fn put(&self, w: &mut Writer) -> Result<()> {
                w.$t(*self);
                Ok(())
            }
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                Ok($t::from_le_bytes(r.array()?))
            }
        }
    )*};
}
wire_int!(u8, u32, u64);

macro_rules! wire_id {
    ($($id:ident: $raw:ident),*) => {$(
        impl Wire for $id {
            const MIN_LEN: usize = $raw::MIN_LEN;
            fn put(&self, w: &mut Writer) -> Result<()> {
                self.raw().put(w)
            }
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                Ok($id(r.get()?))
            }
        }
    )*};
}
wire_id!(
    NodeId: u32, StreamId: u32, StreamletId: u32, ProducerId: u32, ConsumerId: u32,
    VirtualLogId: u32, VirtualSegmentId: u64
);

impl Wire for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut Writer) -> Result<()> {
        w.u8(u8::from(*self));
        Ok(())
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(KeraError::Protocol(format!("bad bool byte {v}"))),
        }
    }
}

impl Wire for String {
    const MIN_LEN: usize = 4;
    fn put(&self, w: &mut Writer) -> Result<()> {
        w.len_prefixed(self.as_bytes())
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.get::<u32>()? as usize;
        String::from_utf8(r.bytes(n)?.to_vec())
            .map_err(|_| KeraError::Protocol("invalid utf-8 in string field".into()))
    }
    fn wire_len(&self) -> usize {
        4 + self.len()
    }
}

impl Wire for Bytes {
    const MIN_LEN: usize = 4;
    fn put(&self, w: &mut Writer) -> Result<()> {
        w.len_prefixed(self)
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.get::<u32>()? as usize;
        r.take(n)
    }
    fn wire_len(&self) -> usize {
        4 + self.len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, w: &mut Writer) -> Result<()> {
        w.u32(checked_len("element count", self.len())?);
        self.iter().try_for_each(|v| v.put(w))
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.collection_len(T::MIN_LEN)? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
    fn wire_len(&self) -> usize {
        4 + self.iter().map(Wire::wire_len).sum::<usize>()
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut Writer) -> Result<()> {
        self.is_some().put(w)?;
        self.iter().try_for_each(|v| v.put(w))
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(if bool::get(r)? { Some(T::get(r)?) } else { None })
    }
    fn wire_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::wire_len)
    }
}

/// Field codec (`pub chunks: Bytes [Rest]`): everything up to the end of
/// the buffer, no length prefix — the envelope's framing bounds it.
pub(crate) struct Rest;

impl Rest {
    pub const MIN_LEN: usize = 0;
    pub fn put(v: &Bytes, w: &mut Writer) -> Result<()> {
        w.bytes(v);
        Ok(())
    }
    pub fn get(r: &mut Reader<'_>) -> Result<Bytes> {
        r.take(r.remaining())
    }
    pub fn wire_len(v: &Bytes) -> usize {
        v.len()
    }
}

/// Field codec for an `Option<NodeId>` carried as a bare `u32` with
/// `u32::MAX` meaning "none" (leader hints).
pub(crate) struct Sentinel;

impl Sentinel {
    pub const MIN_LEN: usize = 4;
    pub fn put(v: &Option<NodeId>, w: &mut Writer) -> Result<()> {
        w.u32(v.map_or(u32::MAX, NodeId::raw));
        Ok(())
    }
    pub fn get(r: &mut Reader<'_>) -> Result<Option<NodeId>> {
        let raw = r.get()?;
        Ok((raw != u32::MAX).then_some(NodeId(raw)))
    }
    pub fn wire_len(_: &Option<NodeId>) -> usize {
        Self::MIN_LEN
    }
}

/// Bytes a `crc(..)` frame adds in front of its body (`None`: no frame).
pub(crate) const fn frame_len(crc: Option<&str>) -> usize {
    if crc.is_some() { 8 } else { 0 }
}

/// Writes `body`, framed `crc32c(body) u32 | body_len u32 | body` when
/// `crc` names the frame. The body is written in place and the two header
/// words patched in behind it.
pub(crate) fn put_framed(
    crc: Option<&'static str>,
    w: &mut Writer,
    body: impl FnOnce(&mut Writer) -> Result<()>,
) -> Result<()> {
    let Some(what) = crc else { return body(w) };
    let head = w.buf.len();
    w.u64(0);
    body(w)?;
    let body = &w.buf[head + 8..];
    let (sum, len) = (crc32c(body), checked_len(what, body.len())?);
    w.buf[head..head + 4].copy_from_slice(&sum.to_le_bytes());
    w.buf[head + 4..head + 8].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Reads what [`put_framed`] wrote. A framed body is verified against
/// its checksum before a field of it is read, and must be consumed
/// exactly.
pub(crate) fn get_framed<T>(
    crc: Option<&'static str>,
    r: &mut Reader<'_>,
    body: impl FnOnce(&mut Reader<'_>) -> Result<T>,
) -> Result<T> {
    let Some(what) = crc else { return body(r) };
    let expected = r.get()?;
    let len = r.get::<u32>()? as usize;
    let mut framed = Reader::from(r.bytes(len)?);
    let actual = crc32c(framed.buf);
    if actual != expected {
        return Err(KeraError::Corruption { what, expected, actual });
    }
    let v = body(&mut framed)?;
    if framed.remaining() != 0 {
        return Err(KeraError::Protocol(format!("trailing bytes in {what} body")));
    }
    Ok(v)
}

/// Declares a wire struct from its field list: the struct itself, its
/// [`Wire`] impl (fields in declaration order) and, when the signatures
/// after the braces ask for them, its inherent encoder and decoder.
///
/// ```text
/// wire_struct! {
///     crc("meta record")                 // optional: checksummed frame
///     /// docs and derives as usual
///     pub struct Name {
///         pub a: u32,
///         pub tail: Bytes [Rest],        // optional field codec
///     }
///     encode -> Bytes; decode(&[u8]);    // or -> Result<Bytes>; decode_bytes(&Bytes);
/// }
/// ```
///
/// A field codec is any type with the four items `Wire` has — `MIN_LEN`,
/// `put(&T, ..)`, `get(..) -> Result<T>`, `wire_len(&T)` — over the field's
/// type `T` ([`Rest`], [`Sentinel`], `messages::ChunkCount`); without one
/// the field's own `Wire` impl is used. The return type picks the
/// [`Encoded`] flavour. A decoder given the
/// receive buffer (`&Bytes`) returns `Bytes` fields as windows of it;
/// trailing bytes are ignored. A part that is only ever nested in other
/// bodies names neither.
macro_rules! wire_struct {
    (
        $(crc($what:literal))?
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $f:ident : $t:ty $([$c:ty])? ),* $(,)?
        }
        $(encode -> $ret:ty; $decode:ident($buf:ty);)?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $f: $t, )*
        }

        impl $crate::codec::Wire for $name {
            const MIN_LEN: usize = $crate::codec::frame_len(wire_struct!(@crc $($what)?))
                $( + <wire_struct!(@codec $t $(, $c)?)>::MIN_LEN )*;

            fn put(&self, w: &mut $crate::codec::Writer) -> kera_common::Result<()> {
                $crate::codec::put_framed(wire_struct!(@crc $($what)?), w, |w| {
                    $( <wire_struct!(@codec $t $(, $c)?)>::put(&self.$f, w)?; )*
                    Ok(())
                })
            }

            fn get(r: &mut $crate::codec::Reader<'_>) -> kera_common::Result<Self> {
                $crate::codec::get_framed(wire_struct!(@crc $($what)?), r, |r| {
                    Ok(Self { $( $f: <wire_struct!(@codec $t $(, $c)?)>::get(r)?, )* })
                })
            }

            fn wire_len(&self) -> usize {
                $crate::codec::frame_len(wire_struct!(@crc $($what)?))
                    $( + <wire_struct!(@codec $t $(, $c)?)>::wire_len(&self.$f) )*
            }
        }

        $(impl $name {
            pub fn encode(&self) -> $ret {
                $crate::codec::Encoded::from_encoded($crate::codec::encode(self))
            }

            pub fn $decode(buf: $buf) -> kera_common::Result<Self> {
                $crate::codec::Wire::get(&mut $crate::codec::Reader::from(buf))
            }
        })?
    };

    (@crc) => { None };
    (@crc $what:literal) => { Some($what) };
    (@codec $t:ty) => { $t };
    (@codec $t:ty, $c:ty) => { $c };
}

/// Declares a one-byte discriminant enum: the `#[repr(u8)]` enum, its
/// `from_u8` (unknown values are `Protocol("unknown <what> <v>")`) and its
/// [`Wire`] impl — each discriminant is stated once.
///
/// When every variant also names the bodies it carries —
/// `Produce = 3 (ProduceRequest => ProduceResponse)`, with `empty` and
/// `raw` for the two untyped shapes — the enum additionally gets
/// `TABLE: &[(Self, Body, Body)]`, which the fuzz and golden suites
/// iterate: a variant cannot be declared without its bodies.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident($what:literal) {
            $( $(#[$vmeta:meta])* $v:ident = $d:literal ($req:tt => $resp:tt) ),* $(,)?
        }
    ) => {
        wire_enum! {
            $(#[$meta])*
            pub enum $name($what) { $( $(#[$vmeta])* $v = $d ),* }
        }

        impl $name {
            /// Every variant with its request and response body.
            pub const TABLE: &'static [($name, $crate::frames::Body, $crate::frames::Body)] = &[
                $( ($name::$v, wire_enum!(@body $req), wire_enum!(@body $resp)) ),*
            ];
        }
    };
    (@body empty) => { $crate::frames::Body::EMPTY };
    (@body raw) => { $crate::frames::Body::RAW };
    (@body $t:ident) => { $crate::frames::Body::of::<$t>(stringify!($t)) };

    (
        $(#[$meta:meta])*
        pub enum $name:ident($what:literal) {
            $( $(#[$vmeta:meta])* $v:ident = $d:literal ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[repr(u8)]
        pub enum $name {
            $( $(#[$vmeta])* $v = $d, )*
        }

        impl $name {
            pub fn from_u8(v: u8) -> kera_common::Result<Self> {
                match v {
                    $( $d => Ok(Self::$v), )*
                    _ => Err(kera_common::KeraError::Protocol(format!(concat!("unknown ", $what, " {}"), v))),
                }
            }
        }

        impl $crate::codec::Wire for $name {
            const MIN_LEN: usize = 1;
            fn put(&self, w: &mut $crate::codec::Writer) -> kera_common::Result<()> {
                w.u8(*self as u8);
                Ok(())
            }
            fn get(r: &mut $crate::codec::Reader<'_>) -> kera_common::Result<Self> {
                Self::from_u8(r.get()?)
            }
        }
    };
}

pub(crate) use {wire_enum, wire_struct};

#[cfg(test)]
mod tests {
    use super::*;

    fn rd(buf: &[u8]) -> Reader<'_> {
        Reader::from(buf)
    }

    wire_struct! {
        #[derive(Debug, PartialEq)]
        pub struct Sample {
            pub flag: bool,
            pub id: NodeId,
            pub items: Vec<u64>,
            pub name: String,
            pub hint: Option<NodeId> [Sentinel],
            pub blob: Bytes,
            pub tail: Bytes [Rest],
        }
        encode -> Result<Bytes>; decode_bytes(&Bytes);
    }

    wire_struct! {
        crc("sample frame")
        #[derive(Debug, PartialEq)]
        pub struct Framed {
            pub index: u64,
            pub inner: Option<u32>,
        }
        encode -> Bytes; decode(&[u8]);
    }

    fn sample() -> Sample {
        Sample {
            flag: true,
            id: NodeId(7),
            items: vec![1, 2, 3],
            name: "héllo".into(),
            hint: None,
            blob: Bytes::from_static(b"blob"),
            tail: Bytes::from_static(b"rest of it"),
        }
    }

    #[test]
    fn struct_roundtrips_with_exact_len_and_summed_min_len() {
        assert_eq!(Sample::MIN_LEN, 1 + 4 + 4 + 4 + 4 + 4);
        let v = sample();
        let buf = v.encode().unwrap();
        assert_eq!(buf.len(), v.wire_len());
        assert_eq!(Sample::decode_bytes(&buf).unwrap(), v);
        for cut in 0..buf.len() - v.tail.len() {
            assert!(Sample::decode_bytes(&buf.slice(..cut)).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn bytes_fields_are_windows_of_the_shared_buffer() {
        let buf = sample().encode().unwrap();
        let back = Sample::decode_bytes(&buf).unwrap();
        let range = buf.as_ref().as_ptr_range();
        for view in [&back.blob, &back.tail] {
            assert!(range.contains(&view.as_ref().as_ptr()));
        }
        assert!(std::ptr::eq(back.tail.as_ref().as_ptr_range().end, range.end));
        // Opened on a plain slice there is nothing to share: a copy.
        let copied = Bytes::get(&mut rd(&[1, 0, 0, 0, 9])).unwrap();
        assert_eq!(&copied[..], &[9]);
    }

    #[test]
    fn bool_is_zero_or_one() {
        assert!(!bool::get(&mut rd(&[0])).unwrap());
        assert!(bool::get(&mut rd(&[1])).unwrap());
        for bad in [2u8, 7, 0x80, 0xff] {
            assert!(matches!(bool::get(&mut rd(&[bad])), Err(KeraError::Protocol(_))));
        }
        // The presence byte of an `Option` is a bool like any other.
        assert!(Option::<u32>::get(&mut rd(&[2, 0, 0, 0, 0])).is_err());
    }

    #[test]
    fn count_is_bounded_by_min_len_before_allocating() {
        // 3 × 8 bytes claimed, 16 present.
        let mut buf = vec![3, 0, 0, 0];
        buf.extend_from_slice(&[0; 16]);
        assert!(Vec::<u64>::get(&mut rd(&buf)).is_err());
        // A hostile count dies before `Vec::with_capacity` could see it.
        let hostile = [0xff, 0xff, 0xff, 0xff, 0, 0];
        assert!(matches!(Vec::<u8>::get(&mut rd(&hostile)), Err(KeraError::Protocol(_))));
        assert_eq!(Vec::<u8>::get(&mut rd(&[2, 0, 0, 0, 5, 6])).unwrap(), vec![5, 6]);
    }

    #[test]
    fn crc_frame_detects_flips_truncation_and_trailing_bytes() {
        assert_eq!(Framed::MIN_LEN, 8 + 8 + 1);
        let v = Framed { index: 9, inner: Some(4) };
        let buf = v.encode();
        assert_eq!(buf.len(), v.wire_len());
        assert_eq!(Framed::decode(&buf).unwrap(), v);
        for cut in 0..buf.len() {
            assert!(Framed::decode(&buf[..cut]).is_err());
        }
        for bit in 0..buf.len() * 8 {
            let mut mutant = buf.to_vec();
            mutant[bit / 8] ^= 1 << (bit % 8);
            assert!(Framed::decode(&mutant).is_err(), "undetected flip of bit {bit}");
        }
        // A body longer than its fields, checksum and all, is refused.
        let mut w = Writer::default();
        put_framed(Some("sample frame"), &mut w, |w| {
            v.index.put(w)?;
            v.inner.put(w)?;
            0u8.put(w)
        })
        .unwrap();
        assert!(matches!(Framed::decode(&w.finish()), Err(KeraError::Protocol(_))));
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let buf = [1u8, 2, 3, 4, 5];
        let mut r = rd(&buf);
        assert_eq!(r.get::<u32>().unwrap(), 0x0403_0201);
        assert!(r.get::<u32>().is_err());
        // The failed read must not consume anything.
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.get::<u8>().unwrap(), 5);
    }

    #[test]
    fn malformed_strings_are_errors() {
        assert!(String::get(&mut rd(&[2, 0, 0, 0, 0xff, 0xfe])).is_err());
        assert!(String::get(&mut rd(&[100, 0, 0, 0, b's'])).is_err());
    }

    /// Boundary test for the checked length conversion: exactly u32::MAX
    /// fits, one past it must surface `EncodeOverflow` (never a silent
    /// truncating `as` cast, which would produce a decodable-but-corrupt
    /// frame). Every length and count is written through it.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversized_length_is_a_structured_error() {
        assert_eq!(checked_len("x", u32::MAX as usize).unwrap(), u32::MAX);
        let err = checked_len("produce payload", u32::MAX as usize + 1).unwrap_err();
        match err {
            KeraError::EncodeOverflow { what, len } => {
                assert_eq!(what, "produce payload");
                assert_eq!(len, u32::MAX as usize + 1);
            }
            other => panic!("expected EncodeOverflow, got {other}"),
        }
    }
}
