//! Little-endian byte codec and CRC32 used by the WAL and snapshots, and
//! the frame the WAL and the shard wire share: built, split, checked
//! and read from a stream only here.
//!
//! Hand-rolled on purpose: the wire format must stay stable across
//! toolchain upgrades and must decode hostile bytes without panicking,
//! so every read returns a `Result` and nothing indexes a slice.

use super::PersistError;
use std::io::{self, Read};

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC32 (IEEE) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        let entry = CRC_TABLE.get(idx).copied().unwrap_or(0);
        crc = (crc >> 8) ^ entry;
    }
    !crc
}

/// Append-only little-endian writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the accumulated bytes.
    #[must_use]
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// f64 as raw IEEE-754 bits: bit-exact round-trip, NaN included.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// `Some` as 1 + payload (written by `f`), `None` as 0.
    pub fn put_opt<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            Some(inner) => {
                self.put_u8(1);
                f(self, inner);
            }
            None => self.put_u8(0),
        }
    }

    /// A `u32` item count, then every item (written by `f`). The count
    /// is the iterator's exact length, so it always matches the items.
    pub fn put_seq<I>(&mut self, items: I, mut f: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.put_u32(items.len() as u32);
        for item in items {
            f(self, item);
        }
    }
}

/// Bounds-checked little-endian reader over a borrowed slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// True when every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(PersistError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] on short input.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        let b = self.take(1)?;
        b.first().copied().ok_or(PersistError::Truncated)
    }

    /// Reads a `u16`, little-endian.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] on short input.
    pub fn u16(&mut self) -> Result<u16, PersistError> {
        let b = self.take(2)?;
        let arr: [u8; 2] = b.try_into().map_err(|_| PersistError::Truncated)?;
        Ok(u16::from_le_bytes(arr))
    }

    /// Reads a `u32`, little-endian.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] on short input.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        let arr: [u8; 4] = b.try_into().map_err(|_| PersistError::Truncated)?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a `u64`, little-endian.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] on short input.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| PersistError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads an `i64`, little-endian.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] on short input.
    pub fn i64(&mut self) -> Result<i64, PersistError> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| PersistError::Truncated)?;
        Ok(i64::from_le_bytes(arr))
    }

    /// Reads an `f64` from raw IEEE-754 bits.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] on short input.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte, rejecting anything but 0 or 1.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] on short input, [`PersistError::Corrupt`]
    /// on an invalid tag.
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Corrupt { what: "bool tag" }),
        }
    }

    /// Length-prefixed UTF-8 string; rejects over-long prefixes and
    /// invalid UTF-8 without panicking.
    pub fn string(&mut self) -> Result<String, PersistError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(PersistError::Truncated);
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::Corrupt { what: "utf-8" })
    }

    /// Reads an option tag byte, then `Some` payload via `f` on 1.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] on a tag byte other than 0 or 1;
    /// whatever `f` returns on the payload.
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, PersistError>,
    ) -> Result<Option<T>, PersistError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(PersistError::Corrupt { what: "option tag" }),
        }
    }

    /// Reads a [`ByteWriter::put_seq`] sequence, every item via `f`.
    ///
    /// A corrupted count must not trigger a huge allocation, so it is
    /// capped by the bytes actually remaining (each item takes >= 1
    /// byte).
    ///
    /// # Errors
    /// [`PersistError::Truncated`] when the count exceeds the remaining
    /// bytes; whatever `f` returns on an item.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, PersistError>,
    ) -> Result<Vec<T>, PersistError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(PersistError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

/// Bytes in a frame header: `[len: u32][crc: u32]`.
const FRAME_HEADER: usize = 8;

/// Bytes in the shortest frame payload: `[seq: u64][kind: u8]`.
const MIN_PAYLOAD: usize = 9;

/// One frame, `[len: u32][crc: u32][seq: u64][kind: u8][body]` with the
/// CRC over `seq|kind|body`: the layout of a WAL record and of every
/// shard wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Sequence number.
    pub seq: u64,
    /// Kind byte: a WAL op kind, or a shard protocol kind (200 and up).
    pub kind: u8,
    /// Everything after the kind byte.
    pub body: &'a [u8],
    /// Length of the whole frame, header included.
    pub len: usize,
}

/// Writes `[seq][kind][body]` after `header` zero bytes.
fn payload_after(header: usize, seq: u64, kind: u8, body: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter { buf: vec![0; header] };
    w.put_u64(seq);
    w.put_u8(kind);
    body(&mut w);
    w.buf
}

/// Builds one frame, `body` writing everything after the kind byte.
#[must_use]
pub fn encode_frame(seq: u64, kind: u8, body: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut frame = payload_after(FRAME_HEADER, seq, kind, body);
    let len = (frame.len() - FRAME_HEADER) as u32;
    let crc = crc32(frame.get(FRAME_HEADER..).unwrap_or_default());
    let header = len.to_le_bytes().into_iter().chain(crc.to_le_bytes());
    for (slot, b) in frame.iter_mut().zip(header) {
        *slot = b;
    }
    frame
}

/// A frame's payload without its header, `[seq: u64][kind: u8][body]`:
/// how the shard wire carries a WAL record inside its own frame.
#[must_use]
pub fn encode_frame_payload(seq: u64, kind: u8, body: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    payload_after(0, seq, kind, body)
}

/// Splits a frame payload into its sequence number, kind byte and body.
///
/// # Errors
/// [`PersistError::Truncated`] when the payload is too short to hold
/// the sequence number and kind byte.
pub fn split_frame_payload(payload: &[u8]) -> Result<(u64, u8, &[u8]), PersistError> {
    let mut r = ByteReader::new(payload);
    let (seq, kind) = (r.u64()?, r.u8()?);
    Ok((seq, kind, r.take(r.remaining())?))
}

/// Checks the frame at the start of `bytes`.
///
/// `Ok(None)` when the frame is torn: its header or payload is shorter
/// than the length prefix claims, or the CRC does not match.
///
/// # Errors
/// [`PersistError::Truncated`] when a CRC-valid payload is too short to
/// hold the sequence number and kind byte.
pub fn check_frame(bytes: &[u8]) -> Result<Option<Frame<'_>>, PersistError> {
    let mut r = ByteReader::new(bytes);
    let (Ok(len), Ok(crc)) = (r.u32(), r.u32()) else {
        return Ok(None);
    };
    let Ok(payload) = r.take(len as usize) else {
        return Ok(None);
    };
    if crc32(payload) != crc {
        return Ok(None);
    }
    let (seq, kind, body) = split_frame_payload(payload)?;
    Ok(Some(Frame { seq, kind, body, len: FRAME_HEADER + payload.len() }))
}

/// Reads the next frame from a byte stream and checks it, returning
/// its sequence number, kind byte and body. The length prefix is
/// bounded by `max_payload` before anything is allocated for it.
///
/// `Ok(None)` when the stream ends before a whole header.
///
/// # Errors
/// The stream's own error; [`io::ErrorKind::UnexpectedEof`] when it
/// ends inside a payload; [`io::ErrorKind::InvalidData`] when the
/// length prefix is too short for `seq|kind` or over `max_payload`, or
/// when the CRC does not match.
pub fn read_frame(
    input: &mut impl Read,
    max_payload: usize,
) -> io::Result<Option<(u64, u8, Vec<u8>)>> {
    let mut frame = vec![0u8; FRAME_HEADER];
    match input.read_exact(&mut frame) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let invalid = || io::Error::from(io::ErrorKind::InvalidData);
    let len = ByteReader::new(&frame).u32().map_err(|_| invalid())? as usize;
    if !(MIN_PAYLOAD..=max_payload).contains(&len) {
        return Err(invalid());
    }
    frame.resize(FRAME_HEADER + len, 0);
    input.read_exact(frame.get_mut(FRAME_HEADER..).unwrap_or_default())?;
    match check_frame(&frame) {
        Ok(Some(f)) => Ok(Some((f.seq, f.kind, f.body.to_vec()))),
        _ => Err(invalid()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_known_vector() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_scalars() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(-0.125);
        w.put_bool(true);
        w.put_str("ciao");
        w.put_opt(Some(&9u64), |w, v| w.put_u64(*v));
        w.put_opt::<u64>(None, |w, v| w.put_u64(*v));
        w.put_seq([3u64, 4], |w, v| w.put_u64(v));
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.bool().unwrap());
        assert_eq!(r.string().unwrap(), "ciao");
        assert_eq!(r.opt(ByteReader::u64).unwrap(), Some(9));
        assert_eq!(r.opt(ByteReader::u64).unwrap(), None);
        assert_eq!(r.seq(ByteReader::u64).unwrap(), vec![3, 4]);
        assert!(r.is_empty());
    }

    #[test]
    fn frames_check_back_and_tear_cleanly() {
        let frame = encode_frame(7, 3, |w| w.put_str("body"));
        let payload = encode_frame_payload(7, 3, |w| w.put_str("body"));
        assert_eq!(frame.get(FRAME_HEADER..), Some(&payload[..]));
        assert_eq!(split_frame_payload(&payload).unwrap(), (7, 3, &payload[MIN_PAYLOAD..]));
        let f = check_frame(&frame).unwrap().unwrap();
        assert_eq!((f.seq, f.kind, f.len), (7, 3, frame.len()));
        assert_eq!(ByteReader::new(f.body).string().unwrap(), "body");
        for cut in 0..frame.len() {
            assert_eq!(check_frame(&frame[..cut]), Ok(None), "cut at {cut}");
        }
        let mut flipped = frame.clone();
        flipped[FRAME_HEADER + 2] ^= 1;
        assert_eq!(check_frame(&flipped), Ok(None));
    }

    #[test]
    fn truncated_reads_error() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.u64(), Err(PersistError::Truncated));
        let mut r = ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert_eq!(r.string(), Err(PersistError::Truncated));
        let mut r = ByteReader::new(&[2, 0, 0, 0, 9]);
        assert_eq!(r.seq(ByteReader::u8), Err(PersistError::Truncated));
        let mut r = ByteReader::new(&[2]);
        assert_eq!(r.bool(), Err(PersistError::Corrupt { what: "bool tag" }));
    }
}
