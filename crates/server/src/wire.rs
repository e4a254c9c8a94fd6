//! The length-prefixed frame codec under the SegHDC wire protocol.
//!
//! The build environment has no serde, so the codec is hand-rolled and
//! deliberately rigid. Every frame on the wire is:
//!
//! ```text
//! ┌───────┬──────┬─────────┬──────────────┬──────────┐
//! │ magic │ kind │ len u32 │ payload      │ check u64│
//! │ SGHD  │ u8   │ LE      │ `len` bytes  │ FNV-1a LE│
//! └───────┴──────┴─────────┴──────────────┴──────────┘
//! ```
//!
//! * **magic** — the four bytes `SGHD`; anything else means the peer is
//!   not speaking this protocol and the connection is unrecoverable.
//! * **kind** — [`FRAME_REQUEST`], [`FRAME_RESPONSE`],
//!   [`FRAME_STATS_REQUEST`], [`FRAME_STATS_RESPONSE`] or
//!   [`FRAME_PROGRESS`].
//! * **len** — payload size. A receiver enforces its own cap *before*
//!   allocating ([`WireError::FrameTooLarge`]), so a hostile or corrupt
//!   length prefix cannot make it buffer gigabytes.
//! * **check** — FNV-1a 64 over kind, the length prefix and the payload.
//!   Loopback TCP will not corrupt frames, but the checksum turns every
//!   desynchronisation bug (a codec writing one byte short) into an
//!   immediate typed error instead of a garbage segmentation.
//!
//! Payload contents are written and read through [`PayloadWriter`] and
//! [`PayloadReader`] — little-endian fixed-width integers plus
//! `u16`-length-prefixed strings — by the typed layer in
//! [`crate::protocol`].

use std::fmt;
use std::io::{self, Read, Write};

/// The four magic bytes every frame starts with.
pub const MAGIC: [u8; 4] = *b"SGHD";

/// Frame kind: a segmentation request (client → server).
pub const FRAME_REQUEST: u8 = 1;

/// Frame kind: a segmentation response (server → client).
pub const FRAME_RESPONSE: u8 = 2;

/// Frame kind: a server-statistics request (client → server).
pub const FRAME_STATS_REQUEST: u8 = 3;

/// Frame kind: a server-statistics response (server → client).
pub const FRAME_STATS_RESPONSE: u8 = 4;

/// Frame kind: a streaming progress update for an in-flight segmentation
/// request (server → client). Zero or more precede the final
/// [`FRAME_RESPONSE`]; clients that never opt in never see one.
pub const FRAME_PROGRESS: u8 = 5;

/// Default cap on a single frame's payload (64 MiB — a 4096×4096 label
/// map response fits with room to spare).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// Errors produced while framing, checksumming or decoding wire payloads.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The frame did not start with [`MAGIC`].
    BadMagic {
        /// The four bytes actually read.
        found: [u8; 4],
    },
    /// The frame kind byte is not a known kind.
    UnknownFrameKind(u8),
    /// The length prefix exceeds the receiver's frame cap.
    FrameTooLarge {
        /// Length the prefix claimed.
        len: usize,
        /// The receiver's cap.
        max: usize,
    },
    /// The checksum trailer did not match the received bytes.
    ChecksumMismatch,
    /// A payload field extended past the end of the payload.
    Truncated {
        /// What was being decoded.
        field: &'static str,
    },
    /// Bytes were left over after the payload decoded completely.
    TrailingBytes(usize),
    /// The payload declared a protocol version this build does not speak.
    UnsupportedVersion(u16),
    /// A payload field held an out-of-domain value.
    InvalidField {
        /// Which field.
        field: &'static str,
        /// Why it was rejected.
        message: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(err) => write!(f, "wire i/o error: {err}"),
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:?} (expected {MAGIC:?})")
            }
            WireError::UnknownFrameKind(kind) => write!(f, "unknown frame kind {kind}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::Truncated { field } => {
                write!(f, "payload truncated while decoding {field}")
            }
            WireError::TrailingBytes(count) => {
                write!(f, "{count} trailing bytes after the payload")
            }
            WireError::UnsupportedVersion(version) => {
                write!(f, "unsupported protocol version {version}")
            }
            WireError::InvalidField { field, message } => {
                write!(f, "invalid field {field}: {message}")
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(err: io::Error) -> Self {
        WireError::Io(err)
    }
}

/// Result alias for wire operations.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// FNV-1a 64 over a sequence of byte slices (the frame checksum).
pub fn checksum(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &byte in *part {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Writes one complete frame (`magic · kind · len · payload · checksum`).
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] when the payload exceeds `max_bytes` (the
/// sender enforces the same cap the receiver will), otherwise any I/O
/// error from the stream.
pub fn write_frame(
    stream: &mut impl Write,
    kind: u8,
    payload: &[u8],
    max_bytes: usize,
) -> WireResult<()> {
    if payload.len() > max_bytes {
        return Err(WireError::FrameTooLarge {
            len: payload.len(),
            max: max_bytes,
        });
    }
    let len = u32::try_from(payload.len()).map_err(|_| WireError::FrameTooLarge {
        len: payload.len(),
        max: u32::MAX as usize,
    })?;
    let len_bytes = len.to_le_bytes();
    let check = checksum(&[&[kind], &len_bytes, payload]);
    stream.write_all(&MAGIC)?;
    stream.write_all(&[kind])?;
    stream.write_all(&len_bytes)?;
    stream.write_all(payload)?;
    stream.write_all(&check.to_le_bytes())?;
    stream.flush()?;
    Ok(())
}

/// Reads one complete frame, returning `Ok(None)` on a clean end of
/// stream (the peer closed between frames).
///
/// Allocates a fresh payload `Vec` per call; a connection loop reading
/// many frames should hold a buffer and use [`read_frame_into`] instead.
///
/// # Errors
///
/// Every decode failure is typed: [`WireError::BadMagic`] and
/// [`WireError::ChecksumMismatch`] mean the stream cannot be resynced;
/// [`WireError::FrameTooLarge`] is raised from the length prefix *before*
/// the payload is allocated or read.
pub fn read_frame(stream: &mut impl Read, max_bytes: usize) -> WireResult<Option<(u8, Vec<u8>)>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(stream, max_bytes, &mut payload)?.map(|kind| (kind, payload)))
}

/// Reads one complete frame into a caller-owned payload buffer, returning
/// the frame kind (or `Ok(None)` on a clean end of stream). The buffer is
/// cleared first and keeps its allocation across calls, so a persistent
/// connection pays for its largest frame once instead of allocating per
/// frame.
///
/// # Errors
///
/// Same typed failures as [`read_frame`]; the frame cap is still enforced
/// from the length prefix *before* the buffer is grown, and the buffer then
/// grows only as payload bytes arrive, so a hostile length cannot force a
/// huge allocation. A stream that ends inside the payload is
/// [`WireError::Truncated`].
pub fn read_frame_into(
    stream: &mut impl Read,
    max_bytes: usize,
    payload: &mut Vec<u8>,
) -> WireResult<Option<u8>> {
    payload.clear();
    let mut magic = [0u8; 4];
    match read_exact_or_eof(stream, &mut magic)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Filled => {}
    }
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let mut kind = [0u8; 1];
    stream.read_exact(&mut kind)?;
    let kind = kind[0];
    if !(FRAME_REQUEST..=FRAME_PROGRESS).contains(&kind) {
        return Err(WireError::UnknownFrameKind(kind));
    }
    let mut len_bytes = [0u8; 4];
    stream.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max_bytes {
        return Err(WireError::FrameTooLarge {
            len,
            max: max_bytes,
        });
    }
    // Grow with the bytes actually received, never from the prefix alone:
    // a client that sends only a header must not pin `len` bytes.
    let received = Read::take(&mut *stream, len as u64).read_to_end(payload)?;
    if received < len {
        return Err(WireError::Truncated {
            field: "frame payload",
        });
    }
    let mut check_bytes = [0u8; 8];
    stream.read_exact(&mut check_bytes)?;
    let expected = checksum(&[&[kind], &len_bytes, payload]);
    if u64::from_le_bytes(check_bytes) != expected {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(Some(kind))
}

enum ReadOutcome {
    Filled,
    CleanEof,
}

/// `read_exact`, except zero bytes before the first byte of `buf` is a
/// clean EOF rather than an error.
fn read_exact_or_eof(stream: &mut impl Read, buf: &mut [u8]) -> WireResult<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::CleanEof),
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(WireError::Io(err)),
        }
    }
    Ok(ReadOutcome::Filled)
}

/// Little-endian payload builder.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that reuses `buf`'s allocation (contents are cleared).
    /// Pairs with [`finish`](Self::finish) to encode into a pooled buffer.
    pub fn reuse(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, value: u16) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends raw bytes (the caller has already written their length).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u16`-length-prefixed UTF-8 string (truncated at the
    /// `u16` cap; wire strings are short identifiers and messages).
    pub fn put_str(&mut self, value: &str) {
        let bytes = value.as_bytes();
        let len = bytes.len().min(u16::MAX as usize);
        self.put_u16(len as u16);
        self.put_bytes(&bytes[..len]);
    }

    /// The finished payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian payload cursor; every read is bounds-checked into a
/// typed [`WireError::Truncated`].
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// A cursor over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, count: usize, field: &'static str) -> WireResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(count)
            .filter(|&end| end <= self.buf.len())
            .ok_or(WireError::Truncated { field })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] past the payload end.
    pub fn take_u8(&mut self, field: &'static str) -> WireResult<u8> {
        Ok(self.take(1, field)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] past the payload end.
    pub fn take_u16(&mut self, field: &'static str) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.take(2, field)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] past the payload end.
    pub fn take_u32(&mut self, field: &'static str) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take(4, field)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] past the payload end.
    pub fn take_u64(&mut self, field: &'static str) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8, field)?.try_into().unwrap()))
    }

    /// Reads `count` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] past the payload end.
    pub fn take_bytes(&mut self, count: usize, field: &'static str) -> WireResult<&'a [u8]> {
        self.take(count, field)
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] past the payload end, or
    /// [`WireError::InvalidField`] on non-UTF-8 bytes.
    pub fn take_str(&mut self, field: &'static str) -> WireResult<String> {
        let len = self.take_u16(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidField {
            field,
            message: "string is not valid UTF-8".to_string(),
        })
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] when bytes remain.
    pub fn expect_end(&self) -> WireResult<()> {
        let remaining = self.buf.len() - self.pos;
        if remaining != 0 {
            return Err(WireError::TrailingBytes(remaining));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let payload = vec![1u8, 2, 3, 250, 0, 7];
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_REQUEST, &payload, 1024).unwrap();
        let mut cursor = Cursor::new(buf);
        let (kind, decoded) = read_frame(&mut cursor, 1024).unwrap().unwrap();
        assert_eq!(kind, FRAME_REQUEST);
        assert_eq!(decoded, payload);
        // Clean EOF after the frame.
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());
    }

    #[test]
    fn a_reused_buffer_reads_many_frames_and_keeps_its_allocation() {
        let mut stream = Vec::new();
        write_frame(&mut stream, FRAME_REQUEST, &[7u8; 512], 1024).unwrap();
        write_frame(&mut stream, FRAME_RESPONSE, &[9u8; 16], 1024).unwrap();
        let mut cursor = Cursor::new(stream);
        let mut payload = Vec::new();
        assert_eq!(
            read_frame_into(&mut cursor, 1024, &mut payload).unwrap(),
            Some(FRAME_REQUEST)
        );
        assert_eq!(payload, vec![7u8; 512]);
        let capacity = payload.capacity();
        assert_eq!(
            read_frame_into(&mut cursor, 1024, &mut payload).unwrap(),
            Some(FRAME_RESPONSE)
        );
        assert_eq!(payload, vec![9u8; 16]);
        assert_eq!(payload.capacity(), capacity, "the big allocation is kept");
        assert!(read_frame_into(&mut cursor, 1024, &mut payload)
            .unwrap()
            .is_none());
    }

    #[test]
    fn read_frame_into_rejects_oversized_prefixes_before_growing_the_buffer() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&MAGIC);
        stream.push(FRAME_REQUEST);
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut payload = Vec::new();
        let err = read_frame_into(&mut Cursor::new(stream), 1024, &mut payload).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { max: 1024, .. }));
        assert_eq!(payload.capacity(), 0, "the cap must gate the allocation");
    }

    #[test]
    fn a_header_alone_does_not_allocate_the_claimed_payload() {
        // A within-cap header claiming 32 MiB, then 16 bytes and EOF.
        let claimed = 32usize << 20;
        let mut stream = Vec::new();
        stream.extend_from_slice(&MAGIC);
        stream.push(FRAME_REQUEST);
        stream.extend_from_slice(&(claimed as u32).to_le_bytes());
        stream.extend_from_slice(&[5u8; 16]);
        let mut payload = Vec::new();
        let err = read_frame_into(
            &mut Cursor::new(stream),
            DEFAULT_MAX_FRAME_BYTES,
            &mut payload,
        )
        .unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "got {err:?}");
        assert!(
            payload.capacity() < claimed / 1024,
            "16 received bytes grew the buffer to {} bytes",
            payload.capacity()
        );
    }

    #[test]
    fn a_reused_writer_clears_old_contents_but_keeps_the_allocation() {
        let mut writer = PayloadWriter::new();
        writer.put_u64(u64::MAX);
        let first = writer.finish();
        let capacity = first.capacity();
        let mut writer = PayloadWriter::reuse(first);
        writer.put_u8(5);
        let second = writer.finish();
        assert_eq!(second, vec![5]);
        assert_eq!(second.capacity(), capacity);
    }

    #[test]
    fn empty_stream_is_a_clean_eof() {
        let mut cursor = Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_RESPONSE, b"abc", 1024).unwrap();
        buf[0] = b'X';
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, WireError::BadMagic { .. }));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(FRAME_REQUEST);
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(
            err,
            WireError::FrameTooLarge {
                max: 1024,
                len
            } if len == u32::MAX as usize
        ));
    }

    #[test]
    fn writer_enforces_the_same_cap() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, FRAME_REQUEST, &[0u8; 100], 64).unwrap_err();
        assert!(matches!(
            err,
            WireError::FrameTooLarge { len: 100, max: 64 }
        ));
        assert!(buf.is_empty(), "nothing may hit the wire on rejection");
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_REQUEST, &[9u8; 32], 1024).unwrap();
        let flip_at = buf.len() - 12; // inside the payload
        buf[flip_at] ^= 0x40;
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, WireError::ChecksumMismatch));
    }

    #[test]
    fn truncated_frames_error_instead_of_blocking_forever() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_REQUEST, &[7u8; 16], 1024).unwrap();
        buf.truncate(buf.len() - 3); // lose part of the checksum
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, WireError::Io(_)));
    }

    #[test]
    fn unknown_kinds_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_REQUEST, b"x", 1024).unwrap();
        buf[4] = 77;
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, WireError::UnknownFrameKind(77)));
    }

    #[test]
    fn payload_reader_round_trips_every_field_type() {
        let mut writer = PayloadWriter::new();
        writer.put_u8(7);
        writer.put_u16(300);
        writer.put_u32(70_000);
        writer.put_u64(u64::MAX - 1);
        writer.put_str("avx512-vpopcnt");
        writer.put_bytes(&[1, 2, 3]);
        let payload = writer.finish();

        let mut reader = PayloadReader::new(&payload);
        assert_eq!(reader.take_u8("a").unwrap(), 7);
        assert_eq!(reader.take_u16("b").unwrap(), 300);
        assert_eq!(reader.take_u32("c").unwrap(), 70_000);
        assert_eq!(reader.take_u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(reader.take_str("e").unwrap(), "avx512-vpopcnt");
        assert_eq!(reader.take_bytes(3, "f").unwrap(), &[1, 2, 3]);
        reader.expect_end().unwrap();
    }

    #[test]
    fn reader_types_truncation_and_trailing_bytes() {
        let payload = vec![1u8, 2];
        let mut reader = PayloadReader::new(&payload);
        assert!(matches!(
            reader.take_u32("field"),
            Err(WireError::Truncated { field: "field" })
        ));
        assert_eq!(reader.take_u8("ok").unwrap(), 1);
        assert!(matches!(
            reader.expect_end(),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn checksum_is_order_and_boundary_sensitive() {
        assert_ne!(checksum(&[b"ab"]), checksum(&[b"ba"]));
        // Same bytes split differently hash identically (it is one stream).
        assert_eq!(checksum(&[b"ab", b"c"]), checksum(&[b"abc"]));
        assert_ne!(checksum(&[b"abc"]), checksum(&[b"abd"]));
    }
}
