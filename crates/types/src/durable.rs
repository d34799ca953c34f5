//! Crash-safe file primitives shared by every persistence surface.
//!
//! DEMON's database is long-lived: blocks arrive forever and the on-disk
//! log (plus spilled blocks) must survive a
//! process crash at any point between them. Two primitives make that
//! tractable:
//!
//! * [`atomic_write`] — write-to-temp, fsync, rename, fsync-parent. A
//!   crash leaves either the old file or the new file, never a torn mix;
//!   a stray `*.tmp` is the only possible residue and loaders ignore it.
//! * **Framed files** ([`write_framed`] / [`read_framed`]) — every binary
//!   payload is wrapped in a small header carrying a magic, a format
//!   version, a per-file-class tag, the payload length and a CRC32 of the
//!   payload. Any truncation or bit flip anywhere in the file is detected
//!   *before* the payload is decoded, so corruption surfaces as a typed
//!   [`DemonError`] naming the file instead of a panic deep in a decoder.
//!
//! ## Frame layout (format version 2)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "DMON"
//! 4       2     format version, u16 LE (currently 2)
//! 6       2     file class tag (e.g. "WL", "TE", "PB")
//! 8       8     payload length, u64 LE
//! 16      4     CRC32 (IEEE) of the payload, u32 LE
//! 20      …     payload
//! ```
//!
//! The checksum is the same CRC32 used by gzip/zip (polynomial
//! `0xEDB88320`), implemented here because the workspace's dependency
//! budget is fixed.
//!
//! ## Payload codec
//!
//! What goes *inside* a frame — a spilled block, a wire message, a WAL
//! record, a shelved model — is written with
//! the `put_*` functions and read back through one bounds-checked
//! cursor, [`Reader`]. Every read names the field it was after, so a
//! short or malformed payload is a [`DemonError::Serde`] naming field
//! and offset; every element count passes [`Reader::count`] before
//! anything is allocated for it; [`Reader::finish`] refuses trailing
//! bytes. Fixed-width numbers are little-endian, varints are LEB128.
//! Three layouts shared by several frame classes live here as well: the
//! block header ([`put_block_header`] / [`Reader::block_header`]), the
//! delta-varint TID-list ([`put_tid_list`] / [`Reader::tid_list`]) and
//! the `count | rows` section of a numeric block ([`put_rows`] /
//! [`Reader::rows`] over a per-record [`Row`] codec).

use crate::error::DemonError;
use crate::{BlockId, BlockInterval, Point, Result, Tid, Timestamp};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic bytes opening every framed DEMON file.
pub const FRAME_MAGIC: [u8; 4] = *b"DMON";

/// Current on-disk format version, embedded in every frame header.
pub const FRAME_VERSION: u16 = 2;

/// Size in bytes of the frame header preceding the payload.
pub const FRAME_HEADER_LEN: usize = 20;

/// A two-byte tag identifying what kind of payload a frame carries, so a
/// file cannot be mistaken for one of a different class (e.g. a point
/// block copied over a transaction block file).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameClass(pub [u8; 2]);

impl FrameClass {
    /// A spilled transaction-store entry (block + TID-lists).
    pub const TXENTRY: FrameClass = FrameClass(*b"TE");
    /// A spilled block of numeric points.
    pub const POINTS: FrameClass = FrameClass(*b"PB");
    /// A spilled block of labeled points.
    pub const LABELED: FrameClass = FrameClass(*b"LB");
    /// A `demon-serve` wire-protocol request.
    pub const REQUEST: FrameClass = FrameClass(*b"RQ");
    /// A `demon-serve` wire-protocol response.
    pub const RESPONSE: FrameClass = FrameClass(*b"RS");
    /// One write-ahead-log record (`wal-<gen>.log` holds a sequence of
    /// these frames back to back).
    pub const WAL: FrameClass = FrameClass(*b"WL");
    /// The WAL directory's `CURRENT` pointer naming the live generation.
    pub const WAL_CURRENT: FrameClass = FrameClass(*b"CG");
}

impl std::fmt::Display for FrameClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.0[0] as char, self.0[1] as char)
    }
}

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 (IEEE 802.3, the gzip/zip polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The sibling temp path used by [`atomic_write`]: `<file>.tmp`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `bytes` to `path` atomically: the data lands in `<path>.tmp`
/// first, is fsynced, and is renamed over `path`; the parent directory is
/// then fsynced so the rename itself survives a crash. Readers never see
/// a torn file — at worst a stray `*.tmp` is left behind.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        // Directory fsync is best-effort: some filesystems (and Windows)
        // refuse to open directories; the rename is still atomic.
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Wraps `payload` in a frame header; returns the full file contents and
/// the payload checksum (also recorded inside the header).
pub fn encode_frame(class: FrameClass, payload: &[u8]) -> (Vec<u8>, u32) {
    let crc = crc32(payload);
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    out.extend_from_slice(&class.0);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    (out, crc)
}

/// Validates the frame header of `bytes` and returns the payload together
/// with its checksum. Every defect — short header, wrong magic, wrong
/// version, wrong class, length disagreement, checksum mismatch — becomes
/// a typed error naming `file` and the offending offset.
pub fn decode_frame<'a>(class: FrameClass, bytes: &'a [u8], file: &str) -> Result<(&'a [u8], u32)> {
    let header = decode_frame_header(class, bytes, file)?;
    let payload = &bytes[FRAME_HEADER_LEN..];
    verify_frame_payload(&header, payload, file)?;
    Ok((payload, header.crc))
}

/// A parsed frame header, for streaming readers that receive the header
/// and the payload separately (a socket, a pipe) and therefore cannot
/// hand [`decode_frame`] the whole file at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// The file-class tag the frame was validated against.
    pub class: FrameClass,
    /// Payload length the header promises.
    pub payload_len: u64,
    /// CRC32 the payload must hash to.
    pub crc: u32,
}

/// Validates the fixed-size frame header opening `bytes` (magic, version,
/// class) and returns the payload length and checksum still to be
/// verified. `source` names the peer or file in error messages.
pub fn decode_frame_header(class: FrameClass, bytes: &[u8], source: &str) -> Result<FrameHeader> {
    let corrupt = |detail: String| DemonError::Corrupt {
        file: source.to_string(),
        detail,
    };
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(corrupt(format!(
            "truncated frame header ({} of {FRAME_HEADER_LEN} bytes)",
            bytes.len()
        )));
    }
    if bytes[0..4] != FRAME_MAGIC {
        return Err(corrupt(format!(
            "bad magic at offset 0: expected {FRAME_MAGIC:02x?}, found {:02x?}",
            &bytes[0..4]
        )));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FRAME_VERSION {
        return Err(corrupt(format!(
            "unsupported format version {version} at offset 4 (this build reads {FRAME_VERSION})"
        )));
    }
    if bytes[6..8] != class.0 {
        return Err(corrupt(format!(
            "wrong file class at offset 6: expected {:02x?} ({class}), found {:02x?}",
            class.0,
            &bytes[6..8]
        )));
    }
    let mut fields = Reader::new(&bytes[8..FRAME_HEADER_LEN]);
    let payload_len = fields.u64("frame payload length")?;
    let crc = fields.u32("frame checksum")?;
    Ok(FrameHeader {
        class,
        payload_len,
        crc,
    })
}

/// Verifies a streamed payload against its already-parsed header: the
/// length must match and the CRC32 must hash out. The counterpart of
/// [`decode_frame_header`] for the payload half of a streaming read.
pub fn verify_frame_payload(header: &FrameHeader, payload: &[u8], source: &str) -> Result<()> {
    if payload.len() as u64 != header.payload_len {
        return Err(DemonError::Corrupt {
            file: source.to_string(),
            detail: format!(
                "payload length mismatch at offset 8: header says {} bytes, {} follow",
                header.payload_len,
                payload.len()
            ),
        });
    }
    let actual = crc32(payload);
    if actual != header.crc {
        return Err(DemonError::ChecksumMismatch {
            file: source.to_string(),
            expected: header.crc,
            actual,
        });
    }
    Ok(())
}

/// Atomically writes `payload` to `path` as a framed file; returns the
/// payload checksum so callers can record it in a manifest.
pub fn write_framed(path: &Path, class: FrameClass, payload: &[u8]) -> Result<u32> {
    let (bytes, crc) = encode_frame(class, payload);
    atomic_write(path, &bytes)?;
    Ok(crc)
}

/// Reads and validates a framed file, returning the payload and its
/// checksum. A missing file surfaces as [`DemonError::Io`].
pub fn read_framed(path: &Path, class: FrameClass) -> Result<(Vec<u8>, u32)> {
    let bytes = std::fs::read(path)?;
    let name = path.display().to_string();
    let (payload, crc) = decode_frame(class, &bytes, &name)?;
    Ok((payload.to_vec(), crc))
}

/// Replaces directory `dir` all-or-nothing: `write` fills a fresh
/// sibling `<dir>.tmp`, which is renamed over `dir` only once `write`
/// returned `Ok`. A failure — or a crash — leaves the previous `dir`
/// untouched and at worst a `<dir>.tmp` / `<dir>.old` residue directory,
/// never a half-written `dir`.
pub fn replace_dir_atomic(dir: &Path, write: impl FnOnce(&Path) -> Result<()>) -> Result<()> {
    let tmp = tmp_path(dir);
    if tmp.exists() {
        std::fs::remove_dir_all(&tmp)?;
    }
    let written = std::fs::create_dir_all(&tmp)
        .map_err(DemonError::from)
        .and_then(|()| write(&tmp));
    if let Err(e) = written {
        // No partial residue: take the half-written temp dir with us.
        let _ = std::fs::remove_dir_all(&tmp);
        return Err(e);
    }
    if dir.exists() {
        // Swap via a second rename so the live directory is replaced in
        // one atomic step; the displaced copy is deleted best-effort.
        let old = dir.with_extension("old");
        let _ = std::fs::remove_dir_all(&old);
        std::fs::rename(dir, &old)?;
        std::fs::rename(&tmp, dir)?;
        let _ = std::fs::remove_dir_all(&old);
    } else {
        std::fs::rename(&tmp, dir)?;
    }
    if let Some(parent) = dir.parent() {
        // Same best-effort directory fsync as `atomic_write`.
        if let Ok(d) = File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Maximum encoded length of a `u64` LEB128 varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `v` as 4 little-endian bytes.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as 8 little-endian bytes.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as one LEB128 varint (1–10 bytes).
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v & 0x7F) as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends a string as `len u32 | UTF-8 bytes` (read by [`Reader::str`]).
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends the block header every block-carrying payload opens with:
/// `id | interval flag u8 (0/1) | start | end` (the last two only under
/// flag 1). `put` writes the three numbers — [`put_u64`] for the
/// fixed-width classes, [`put_varint`] for the transaction-store entry.
pub fn put_block_header(
    buf: &mut Vec<u8>,
    put: fn(&mut Vec<u8>, u64),
    id: BlockId,
    interval: Option<BlockInterval>,
) {
    put(buf, id.value());
    match interval {
        None => buf.push(0),
        Some(iv) => {
            buf.push(1);
            put(buf, iv.start.secs());
            put(buf, iv.end.secs());
        }
    }
}

/// Appends a strictly increasing TID-list as `len | gaps`, all varints:
/// each TID is stored as its distance from the previous one (from 0 for
/// the first), so the dense lists of popular items cost one byte per TID.
pub fn put_tid_list(buf: &mut Vec<u8>, list: &[Tid]) {
    put_varint(buf, list.len() as u64);
    let mut prev = 0u64;
    for t in list {
        put_varint(buf, t.0 - prev);
        prev = t.0;
    }
}

/// The per-record codec of a numeric block: a row is [`Row::HEAD_WORDS`]
/// leading `u64` words (a class label, say) followed by `dim` `f64` bit
/// patterns. The spill frame of such a block and its wire payload are
/// both written by [`put_rows`] and read by [`Reader::rows`].
pub trait Row: Sized {
    /// Frame class of a spilled block of these records.
    const FRAME: FrameClass;
    /// `u64` words each row carries ahead of its coordinates.
    const HEAD_WORDS: usize;
    /// The row's coordinates.
    fn coords(&self) -> &[f64];
    /// Appends the row's [`Row::HEAD_WORDS`] leading words.
    fn put_head(&self, buf: &mut Vec<u8>);
    /// Reads one row of `dim` coordinates.
    fn read(r: &mut Reader<'_>, dim: usize) -> Result<Self>;
}

impl Row for Point {
    const FRAME: FrameClass = FrameClass::POINTS;
    const HEAD_WORDS: usize = 0;

    fn coords(&self) -> &[f64] {
        Point::coords(self)
    }

    fn put_head(&self, _buf: &mut Vec<u8>) {}

    fn read(r: &mut Reader<'_>, dim: usize) -> Result<Self> {
        Ok(Point::new(r.coords(dim)?))
    }
}

/// The dimensionality a block of rows is encoded under: its first row's
/// (0 for an empty block).
pub fn rows_dim<R: Row>(rows: &[R]) -> usize {
    rows.first().map_or(0, |r| r.coords().len())
}

/// Appends the `count u64 | rows` section of block `id`. Every row must
/// have [`rows_dim`] coordinates — the layout has no per-row length.
pub fn put_rows<R: Row>(buf: &mut Vec<u8>, id: BlockId, rows: &[R]) -> Result<()> {
    let dim = rows_dim(rows);
    buf.reserve(8 + rows.len() * (R::HEAD_WORDS + dim) * 8);
    put_u64(buf, rows.len() as u64);
    for row in rows {
        if row.coords().len() != dim {
            return Err(DemonError::Serde(format!(
                "block {id}: mixed point dimensions {} and {dim}",
                row.coords().len()
            )));
        }
        row.put_head(buf);
        for &c in row.coords() {
            put_u64(buf, c.to_bits());
        }
    }
    Ok(())
}

/// A bounds-checked cursor over an untrusted payload — the one decoder
/// every frame class reads through. Each method takes the name of the
/// field it reads (`what`) for its error; nothing here panics or
/// allocates more than the input can justify.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Unread bytes left.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(DemonError::Serde(format!(
                "{what}: needs {n} bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Everything not yet read (the cursor ends up exhausted).
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let mut raw = [0u8; N];
        raw.copy_from_slice(self.bytes(N, what)?);
        Ok(raw)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// One LEB128 varint. Input ending mid-varint, an encoding longer
    /// than [`MAX_VARINT_LEN`] bytes and one overflowing a `u64` are all
    /// errors.
    #[inline]
    pub fn varint(&mut self, what: &str) -> Result<u64> {
        let at = self.pos;
        let mut v = 0u64;
        for (i, &b) in self.bytes[at..].iter().take(MAX_VARINT_LEN).enumerate() {
            let low = u64::from(b & 0x7F);
            if i == MAX_VARINT_LEN - 1 && low > 1 {
                return Err(DemonError::Serde(format!(
                    "{what}: overlong varint (overflows u64) at offset {at}"
                )));
            }
            v |= low << (7 * i);
            if b & 0x80 == 0 {
                self.pos = at + i + 1;
                return Ok(v);
            }
        }
        Err(DemonError::Serde(if self.bytes.len() - at >= MAX_VARINT_LEN {
            format!("{what}: overlong varint (more than {MAX_VARINT_LEN} bytes) at offset {at}")
        } else {
            format!("{what}: truncated varint at offset {at} (no terminator)")
        }))
    }

    /// Checks an element count just read against the bytes that remain:
    /// `n` elements of at least `min_bytes` bytes each must still fit, so
    /// a corrupt count can never size an allocation beyond the input.
    #[inline]
    pub fn count(&self, n: u64, min_bytes: usize, what: &str) -> Result<usize> {
        let need = n.saturating_mul(min_bytes.max(1) as u64);
        if need > self.remaining() as u64 {
            return Err(DemonError::Serde(format!(
                "{what} count {n} before offset {} needs {need} bytes, only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// A `len u32 | UTF-8 bytes` string (written by [`put_str`]).
    pub fn str(&mut self, what: &str) -> Result<&'a str> {
        let len = self.u32(what)? as usize;
        std::str::from_utf8(self.bytes(len, what)?)
            .map_err(|e| DemonError::Serde(format!("{what}: invalid UTF-8: {e}")))
    }

    /// A block header written by [`put_block_header`]; `int` reads the
    /// three numbers ([`Reader::u64`] or [`Reader::varint`]). An empty or
    /// inverted interval is refused here, where it enters.
    pub fn block_header(
        &mut self,
        int: fn(&mut Self, &str) -> Result<u64>,
    ) -> Result<(BlockId, Option<BlockInterval>)> {
        let id = BlockId(int(self, "block id")?);
        let interval = match self.u8("interval flag")? {
            0 => None,
            1 => {
                let start = Timestamp(int(self, "interval start")?);
                let end = Timestamp(int(self, "interval end")?);
                if start >= end {
                    return Err(DemonError::Serde(format!(
                        "block {id}: interval start {} not before end {}",
                        start.0, end.0
                    )));
                }
                Some(BlockInterval { start, end })
            }
            other => {
                return Err(DemonError::Serde(format!(
                    "interval flag must be 0 or 1, got {other}"
                )))
            }
        };
        Ok((id, interval))
    }

    /// A TID-list written by [`put_tid_list`]. A zero gap after the first
    /// TID (the list would not be strictly increasing) and a gap sum
    /// overflowing `u64` are errors.
    pub fn tid_list(&mut self, what: &str) -> Result<Vec<Tid>> {
        let len = self.varint(what)?;
        let len = self.count(len, 1, what)?;
        let mut list = Vec::with_capacity(len);
        let mut prev = 0u64;
        for k in 0..len {
            let at = self.pos;
            let gap = self.varint(what)?;
            prev = match prev.checked_add(gap) {
                Some(next) if k == 0 || gap > 0 => next,
                Some(_) => {
                    return Err(DemonError::Serde(format!(
                        "{what}: list not strictly increasing at offset {at}"
                    )))
                }
                None => {
                    return Err(DemonError::Serde(format!(
                        "{what}: TID delta overflow at offset {at}"
                    )))
                }
            };
            list.push(Tid(prev));
        }
        Ok(list)
    }

    /// `dim` coordinates (`f64` bit patterns).
    pub fn coords(&mut self, dim: usize) -> Result<Vec<f64>> {
        let raw = self.bytes(dim.saturating_mul(8), "point coordinates")?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap_or([0; 8]))))
            .collect())
    }

    /// A `count u64 | rows` section written by [`put_rows`], each row
    /// `dim` coordinates wide.
    pub fn rows<R: Row>(&mut self, dim: usize) -> Result<Vec<R>> {
        let row_bytes = dim.saturating_add(R::HEAD_WORDS).saturating_mul(8);
        let n = self.u64("record count")?;
        let n = self.count(n, row_bytes, "record")?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(R::read(self, dim)?);
        }
        Ok(rows)
    }

    /// Refuses trailing bytes: the payload must end where `what` did.
    pub fn finish(&self, what: &str) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DemonError::Serde(format!(
                "{n} trailing bytes after {what} (offset {})",
                self.pos
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"demon"), crc32(b"demon"));
        assert_ne!(crc32(b"demon"), crc32(b"demoN"));
    }

    #[test]
    fn frame_roundtrips() {
        let payload = b"the quick brown fox";
        let (bytes, crc) = encode_frame(FrameClass::TXENTRY, payload);
        assert_eq!(bytes.len(), FRAME_HEADER_LEN + payload.len());
        let (back, crc2) = decode_frame(FrameClass::TXENTRY, &bytes, "f").unwrap();
        assert_eq!(back, payload);
        assert_eq!(crc, crc2);
        // Empty payloads are legal frames.
        let (bytes, _) = encode_frame(FrameClass::POINTS, b"");
        let (back, _) = decode_frame(FrameClass::POINTS, &bytes, "f").unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn every_truncation_is_detected() {
        let (bytes, _) = encode_frame(FrameClass::TXENTRY, b"payload bytes");
        for cut in 0..bytes.len() {
            let err = decode_frame(FrameClass::TXENTRY, &bytes[..cut], "f").unwrap_err();
            assert!(
                matches!(
                    err,
                    DemonError::Corrupt { .. } | DemonError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected {err}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let (bytes, _) = encode_frame(FrameClass::TXENTRY, b"payload bytes");
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0xFF] {
                let mut bad = bytes.clone();
                bad[i] ^= mask;
                let err = decode_frame(FrameClass::TXENTRY, &bad, "f").unwrap_err();
                assert!(
                    matches!(
                        err,
                        DemonError::Corrupt { .. } | DemonError::ChecksumMismatch { .. }
                    ),
                    "flip at {i} (mask {mask:#x}): unexpected {err}"
                );
            }
        }
    }

    #[test]
    fn streaming_header_and_payload_roundtrip() {
        let payload = b"streamed payload";
        let (bytes, crc) = encode_frame(FrameClass::REQUEST, payload);
        let header =
            decode_frame_header(FrameClass::REQUEST, &bytes[..FRAME_HEADER_LEN], "peer").unwrap();
        assert_eq!(header.payload_len, payload.len() as u64);
        assert_eq!(header.crc, crc);
        verify_frame_payload(&header, payload, "peer").unwrap();
        // Short payload, long payload, flipped bit: all rejected.
        assert!(verify_frame_payload(&header, &payload[..3], "peer").is_err());
        let mut long = payload.to_vec();
        long.push(0);
        assert!(verify_frame_payload(&header, &long, "peer").is_err());
        let mut bad = payload.to_vec();
        bad[0] ^= 1;
        let err = verify_frame_payload(&header, &bad, "peer").unwrap_err();
        assert!(matches!(err, DemonError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn streaming_header_rejects_defects() {
        let (bytes, _) = encode_frame(FrameClass::RESPONSE, b"x");
        let header = &bytes[..FRAME_HEADER_LEN];
        assert!(decode_frame_header(FrameClass::RESPONSE, &header[..10], "peer").is_err());
        assert!(decode_frame_header(FrameClass::REQUEST, header, "peer")
            .unwrap_err()
            .to_string()
            .contains("file class"));
        let mut bad = header.to_vec();
        bad[0] ^= 0xFF; // magic
        assert!(decode_frame_header(FrameClass::RESPONSE, &bad, "peer").is_err());
        let mut bad = header.to_vec();
        bad[4] ^= 0xFF; // version
        assert!(decode_frame_header(FrameClass::RESPONSE, &bad, "peer").is_err());
    }

    #[test]
    fn wrong_class_is_rejected() {
        let (bytes, _) = encode_frame(FrameClass::TXENTRY, b"x");
        let err = decode_frame(FrameClass::POINTS, &bytes, "f").unwrap_err();
        assert!(err.to_string().contains("file class"), "{err}");
    }

    #[test]
    fn errors_name_the_file() {
        let err = decode_frame(FrameClass::POINTS, b"", "points/block_3.bin").unwrap_err();
        assert!(err.to_string().contains("block_3.bin"), "{err}");
    }

    #[test]
    fn atomic_write_replaces_and_cleans_tmp() {
        let dir = std::env::temp_dir().join(format!("demon-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!tmp_path(&path).exists(), "tmp file must not linger");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn framed_file_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join(format!("demon-durable-f-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("block.bin");
        let crc = write_framed(&path, FrameClass::LABELED, b"block state").unwrap();
        let (payload, crc2) = read_framed(&path, FrameClass::LABELED).unwrap();
        assert_eq!(payload, b"block state");
        assert_eq!(crc, crc2);
        // A missing file is an Io error, not corruption.
        let missing = read_framed(&dir.join("gone.bin"), FrameClass::LABELED).unwrap_err();
        assert!(matches!(missing, DemonError::Io(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replace_dir_atomic_swaps_whole_directories_or_nothing() {
        let base = std::env::temp_dir().join(format!("demon-durable-d-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let dir = base.join("snap");
        let fill = |name: &'static str| {
            move |tmp: &Path| -> Result<()> { Ok(std::fs::write(tmp.join(name), name)?) }
        };
        replace_dir_atomic(&dir, fill("first")).unwrap();
        assert!(dir.join("first").exists());
        // Replacing swaps the whole directory; no tmp or old copy lingers.
        replace_dir_atomic(&dir, fill("second")).unwrap();
        assert!(dir.join("second").exists() && !dir.join("first").exists());
        assert!(!tmp_path(&dir).exists() && !dir.with_extension("old").exists());
        // A failing writer leaves the live directory as it was.
        let err = replace_dir_atomic(&dir, |tmp| {
            std::fs::write(tmp.join("half"), b"x")?;
            Err(DemonError::Serde("writer gave up".into()))
        });
        assert!(matches!(err, Err(DemonError::Serde(_))));
        assert!(dir.join("second").exists() && !tmp_path(&dir).exists());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn fixed_width_fields_roundtrip_and_name_what_is_missing() {
        let mut buf = vec![7u8];
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "snap/dir");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8("tag").unwrap(), 7);
        assert_eq!(r.u32("meta").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("id").unwrap(), u64::MAX - 1);
        assert_eq!(r.str("dir").unwrap(), "snap/dir");
        r.finish("the message").unwrap();
        // Every truncation is an error naming the field it cut.
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let all = (|| {
                r.u8("tag")?;
                r.u32("meta")?;
                r.u64("id")?;
                r.str("dir").map(drop)
            })();
            let err = all.expect_err("truncated").to_string();
            assert!(["tag", "meta", "id", "dir"].iter().any(|f| err.contains(f)), "{err}");
        }
        let mut r = Reader::new(&buf);
        r.u8("tag").unwrap();
        assert!(r.finish("the tag").unwrap_err().to_string().contains("trailing bytes"));
        // A string length pointing past the payload, and invalid UTF-8.
        assert!(Reader::new(&[9, 0, 0, 0, b'a']).str("dir").is_err());
        assert!(Reader::new(&[1, 0, 0, 0, 0xFF]).str("dir").is_err());
    }

    #[test]
    fn varints_roundtrip_and_reject_truncated_overlong_and_overflowing() {
        for v in [0u64, 1, 127, 128, 300, 70_000, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint("v").unwrap(), v);
            r.finish("v").unwrap();
            // Cut anywhere: a typed truncation error, never a panic.
            for cut in 0..buf.len() {
                let err = Reader::new(&buf[..cut]).varint("v").unwrap_err();
                assert!(err.to_string().contains("truncated varint"), "{err}");
            }
        }
        // Eleven continuation bytes: too long for any u64.
        let err = Reader::new(&[0x80u8; 11]).varint("v").unwrap_err();
        assert!(err.to_string().contains("overlong"), "{err}");
        // Ten bytes whose top byte overflows 64 bits.
        let mut overflow = vec![0xFFu8; 9];
        overflow.push(0x7F);
        let err = Reader::new(&overflow).varint("v").unwrap_err();
        assert!(err.to_string().contains("overlong"), "{err}");
        // u64::MAX itself is exactly 9 × 0xFF then 0x01.
        let mut max = vec![0xFFu8; 9];
        max.push(0x01);
        assert_eq!(Reader::new(&max).varint("v").unwrap(), u64::MAX);
    }

    #[test]
    fn counts_are_checked_against_the_bytes_that_remain() {
        let r = Reader::new(&[0u8; 10]);
        assert_eq!(r.count(5, 2, "pair").unwrap(), 5);
        assert!(r.count(6, 2, "pair").is_err());
        assert!(r.count(u64::MAX, 8, "row").is_err());
        // A zero-width element is still charged one byte: nothing bounds
        // such a count but the input length.
        assert_eq!(r.count(10, 0, "empty row").unwrap(), 10);
        assert!(r.count(11, 0, "empty row").is_err());
    }

    #[test]
    fn block_headers_roundtrip_in_both_number_encodings() {
        let iv = Some(BlockInterval::new(Timestamp(100), Timestamp(70_000)));
        for interval in [None, iv] {
            let mut fixed = Vec::new();
            put_block_header(&mut fixed, put_u64, BlockId(300), interval);
            assert_eq!(fixed.len(), if interval.is_some() { 25 } else { 9 });
            assert_eq!(
                Reader::new(&fixed).block_header(Reader::u64).unwrap(),
                (BlockId(300), interval)
            );
            let mut packed = Vec::new();
            put_block_header(&mut packed, put_varint, BlockId(300), interval);
            assert_eq!(packed.len(), if interval.is_some() { 7 } else { 3 });
            assert_eq!(
                Reader::new(&packed).block_header(Reader::varint).unwrap(),
                (BlockId(300), interval)
            );
        }
        // An unknown flag and an inverted interval are typed errors (the
        // latter would trip `BlockInterval::new`'s assertion downstream).
        assert!(Reader::new(&[1, 2]).block_header(Reader::varint).is_err());
        assert!(Reader::new(&[1, 1, 9, 9]).block_header(Reader::varint).is_err());
    }

    #[test]
    fn tid_lists_roundtrip_densely_and_reject_bad_gaps() {
        let tids = |v: &[u64]| v.iter().copied().map(Tid).collect::<Vec<_>>();
        for list in [
            tids(&[]),
            tids(&[0]),
            tids(&[1, 2, 3]),
            tids(&[5, 100, 10_000, 10_001]),
            tids(&[u64::MAX - 1, u64::MAX]),
        ] {
            let mut buf = Vec::new();
            put_tid_list(&mut buf, &list);
            let mut r = Reader::new(&buf);
            assert_eq!(r.tid_list("list").unwrap(), list);
            r.finish("list").unwrap();
        }
        // Gap-1 lists cost one byte per TID (plus the length).
        let dense: Vec<Tid> = (1..=1000u64).map(Tid).collect();
        let mut buf = Vec::new();
        put_tid_list(&mut buf, &dense);
        assert_eq!(buf.len(), 2 + 1000);
        // A repeated TID, an overflowing gap sum, a count past the data.
        assert!(Reader::new(&[2, 5, 0]).tid_list("list").unwrap_err().to_string().contains("increasing"));
        let mut overflow = vec![2u8];
        put_varint(&mut overflow, u64::MAX);
        put_varint(&mut overflow, 1);
        assert!(Reader::new(&overflow).tid_list("list").unwrap_err().to_string().contains("overflow"));
        assert!(Reader::new(&[200, 1]).tid_list("list").is_err());
    }

    #[test]
    fn point_rows_roundtrip_and_must_fit_exactly() {
        let rows = vec![
            Point::new(vec![1.5, -2.25]),
            Point::new(vec![f64::MIN_POSITIVE, 1e300]),
        ];
        let mut buf = Vec::new();
        put_rows(&mut buf, BlockId(1), &rows).unwrap();
        assert_eq!(buf.len(), 8 + 2 * 16);
        let mut r = Reader::new(&buf);
        assert_eq!(r.rows::<Point>(2).unwrap(), rows);
        r.finish("rows").unwrap();
        // The wrong dimension either runs out of bytes or leaves a tail.
        assert!(Reader::new(&buf).rows::<Point>(3).is_err());
        let mut r = Reader::new(&buf);
        assert!(r.rows::<Point>(1).is_ok() && r.finish("rows").is_err());
        assert!(Reader::new(&buf[..buf.len() - 1]).rows::<Point>(2).is_err());
        // Mixed dimensions cannot be written.
        let mixed = vec![Point::new(vec![1.0]), Point::new(vec![1.0, 2.0])];
        assert!(put_rows(&mut Vec::new(), BlockId(1), &mixed).is_err());
    }
}
