//! The one codec of every on-disk format: pack shards, `.idx`, `MANIFEST`,
//! `PDLT` delta chunks, the `BASMSAFE` checkpoint envelope with its dense and
//! batch-norm payload, and the `BASMWAL1` serving WAL. Everything is
//! little-endian and length-prefixed, read through one strict [`Cursor`] and
//! written through one set of `put_*` functions; every decoder reports a
//! [`PackError`]. Short input is [`PackError::Truncated`], excess bytes are
//! [`PackError::TrailingBytes`], and a decoded count is checked against the
//! bytes left before anything is allocated from it.

use std::fmt;

/// Shard-file magic.
pub const PACK_MAGIC: &[u8; 8] = b"BASMPACK";
/// Index-file magic.
pub const IDX_MAGIC: &[u8; 8] = b"BASMPIDX";
/// Manifest-file magic.
pub const MANIFEST_MAGIC: &[u8; 8] = b"BASMPDIR";
/// Delta-chunk magic (one per flushed chunk, not per file).
pub const DELTA_CHUNK_MAGIC: &[u8; 4] = b"PDLT";
/// Format version shared by shard, index, and manifest files. v2 added the
/// crash-consistency epochs: a per-shard epoch and the index's delta epoch
/// (DESIGN.md §13) — multi-file rewrites land under a fresh epoch and commit
/// atomically through the index.
pub const PACK_VERSION: u32 = 2;

/// Fixed shard-header length (multiple of 8 so the f32 payload that follows
/// stays 4-byte aligned inside a page-aligned mapping).
pub const SHARD_HEADER_LEN: usize = 48;
/// Fan-out width: cumulative row counts per key byte, as in a git pack index.
pub const FANOUT: usize = 256;

/// Errors produced by every on-disk decoder and the pack store.
#[derive(Debug, PartialEq, Eq)]
pub enum PackError {
    /// Underlying filesystem error, tagged with the file involved.
    Io(String, std::io::ErrorKind),
    /// A file does not start with its expected magic.
    BadMagic(String),
    /// Unsupported format version.
    BadVersion(u32),
    /// A file ended before its declared contents.
    Truncated(String),
    /// Bytes past the last valid section: a concatenated, partially
    /// overwritten, or wrong-length file must never load as if clean.
    TrailingBytes(String),
    /// Stored CRC32 disagrees with the bytes read back.
    ChecksumMismatch {
        /// Which file (or chunk) failed.
        what: String,
        /// CRC32 recorded at write time.
        stored: u32,
        /// CRC32 of the bytes as read.
        actual: u32,
    },
    /// Geometry in a file disagrees with its index/manifest or the live
    /// table or model.
    ShapeMismatch(String),
    /// Something the live store or model names — a table, a dense
    /// parameter, a file of a checkpoint directory — is absent on disk.
    Missing(String),
    /// Internal inconsistency (e.g. a record's row id out of range).
    Corrupt(String),
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Io(what, kind) => write!(f, "io error on {what}: {kind}"),
            PackError::BadMagic(what) => write!(f, "{what}: bad magic"),
            PackError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            PackError::Truncated(what) => write!(f, "{what}: truncated"),
            PackError::TrailingBytes(what) => write!(f, "{what}: trailing bytes after valid content"),
            PackError::ChecksumMismatch { what, stored, actual } => {
                write!(f, "{what}: stored CRC32 {stored:#010x}, read {actual:#010x}")
            }
            PackError::ShapeMismatch(what) => write!(f, "shape mismatch: {what}"),
            PackError::Missing(name) => write!(f, "missing on disk: {name:?}"),
            PackError::Corrupt(what) => write!(f, "corrupt: {what}"),
        }
    }
}

impl std::error::Error for PackError {}

impl PackError {
    /// Tag an io error with the path it came from.
    pub fn io(path: &std::path::Path, e: &std::io::Error) -> Self {
        PackError::Io(path.display().to_string(), e.kind())
    }
}

/// CRC32 (IEEE 802.3, the zlib/PNG polynomial), bitwise implementation —
/// pack I/O is cold relative to serving, so simplicity beats a lookup table.
/// The classic check vector: `crc32(b"123456789") == 0xCBF4_3926`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Fail with [`PackError::ChecksumMismatch`] unless `crc32(body) == stored`.
pub(crate) fn check_crc(body: &[u8], stored: u32, what: &str) -> Result<(), PackError> {
    let actual = crc32(body);
    if stored != actual {
        return Err(PackError::ChecksumMismatch { what: what.into(), stored, actual });
    }
    Ok(())
}

/// Verify a "body ‖ crc32(body)" run and return the body: the trailer of
/// `.idx`, `MANIFEST`, a shard's payload, the checkpoint envelope's payload
/// and a WAL frame.
pub fn crc_trailed<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [u8], PackError> {
    let Some(split) = bytes.len().checked_sub(4) else {
        return Err(PackError::Truncated(what.into()));
    };
    let (body, trailer) = bytes.split_at(split);
    check_crc(body, u32::from_le_bytes(trailer.try_into().expect("4 bytes")), what)?;
    Ok(body)
}

/// FNV-1a over a table name: shard headers carry it so a shard file renamed
/// across tables (or a stale file from an older table) is caught at open.
pub fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// f32 slots per record: `dim` weights followed by `dim` Adagrad
/// accumulators.
pub fn record_f32s(dim: usize) -> usize {
    2 * dim
}

/// Bytes per record.
pub fn record_bytes(dim: usize) -> usize {
    record_f32s(dim) * 4
}

/// The fan-out key byte of a row: rows are dense `0..rows`, so the key space
/// is the row id scaled onto one byte (git uses the first byte of the object
/// id; a dense id's analogue is its position in the keyspace).
pub fn key_byte(row: u64, rows: u64) -> u8 {
    debug_assert!(rows > 0 && row < rows);
    ((row * FANOUT as u64) / rows) as u8
}

// ---- cursor and writers ------------------------------------------------------

/// A strict little-endian reader over a byte slice.
pub struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
    what: &'a str,
}

impl<'a> Cursor<'a> {
    /// Wrap `buf`; `what` names the file in errors.
    pub fn new(buf: &'a [u8], what: &'a str) -> Self {
        Self { buf, at: 0, what }
    }

    fn truncated(&self) -> PackError {
        PackError::Truncated(self.what.into())
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.at
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Take `n` raw bytes; on a short buffer nothing is consumed.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PackError> {
        let s = self
            .at
            .checked_add(n)
            .and_then(|end| self.buf.get(self.at..end))
            .ok_or_else(|| self.truncated())?;
        self.at += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], PackError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, PackError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, PackError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, PackError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, PackError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read `magic.len()` bytes: [`PackError::BadMagic`] unless they are
    /// `magic`.
    pub fn magic(&mut self, magic: &[u8]) -> Result<(), PackError> {
        if self.take(magic.len())? != magic {
            return Err(PackError::BadMagic(self.what.into()));
        }
        Ok(())
    }

    /// Read a `u32` format version: [`PackError::BadVersion`] unless it is
    /// `version`.
    pub fn version(&mut self, version: u32) -> Result<(), PackError> {
        match self.u32()? {
            v if v == version => Ok(()),
            v => Err(PackError::BadVersion(v)),
        }
    }

    /// Read a `u32` element count, each element at least `min_elem_bytes`
    /// long: [`PackError::Truncated`] unless that many bytes remain, so no
    /// caller allocates from a count the buffer cannot hold.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, PackError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(self.truncated());
        }
        Ok(n)
    }

    /// Read `n` f32s into a new vector (the bytes are taken first, so an
    /// unchecked `n` allocates nothing).
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, PackError> {
        let bytes = self.take(n.checked_mul(4).ok_or_else(|| self.truncated())?)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4"))).collect())
    }

    /// Read `dst.len()` f32s into `dst`.
    pub(crate) fn f32s_into(&mut self, dst: &mut [f32]) -> Result<(), PackError> {
        let bytes = self.take(dst.len() * 4)?;
        for (v, c) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
            *v = f32::from_le_bytes(c.try_into().expect("4 bytes"));
        }
        Ok(())
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, PackError> {
        let n = self.count(1)?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| PackError::Corrupt(format!("{}: non-utf8 name", self.what)))
    }

    /// Take one frame of an append-only file: a `header_len`-byte header
    /// from which `frame_len` derives the whole frame's length. An
    /// incomplete frame — the signature of a crash mid-append — is
    /// [`PackError::Truncated`] and consumes nothing; errors from
    /// `frame_len` (a bad magic) pass through.
    pub fn frame(
        &mut self,
        header_len: usize,
        frame_len: impl FnOnce(&[u8]) -> Result<usize, PackError>,
    ) -> Result<&'a [u8], PackError> {
        let header = self.buf[self.at..].get(..header_len).ok_or_else(|| self.truncated())?;
        let len = frame_len(header)?;
        self.take(len)
    }

    /// Fail with [`PackError::TrailingBytes`] unless fully consumed.
    pub fn finish(self) -> Result<(), PackError> {
        if self.at != self.buf.len() {
            return Err(PackError::TrailingBytes(self.what.into()));
        }
        Ok(())
    }
}

/// Append a `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a run of f32s (no length prefix).
pub fn put_f32s(buf: &mut Vec<u8>, v: &[f32]) {
    for x in v {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Append a `u32`-length-prefixed string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append the CRC32 of `buf[from..]`: the writer's half of [`crc_trailed`].
pub fn put_crc(buf: &mut Vec<u8>, from: usize) {
    let crc = crc32(&buf[from..]);
    put_u32(buf, crc);
}

// ---- shard header ----------------------------------------------------------

/// Decoded shard-file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// FNV-1a of the owning table's name.
    pub name_hash: u64,
    /// Position of this shard in the table's shard sequence.
    pub shard_idx: u32,
    /// First row held by this shard.
    pub start_row: u64,
    /// Rows held by this shard.
    pub n_rows: u64,
    /// Embedding dimension (records are `2 * dim` f32s).
    pub dim: u32,
}

impl ShardHeader {
    /// Encode to the fixed [`SHARD_HEADER_LEN`]-byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SHARD_HEADER_LEN);
        out.extend_from_slice(PACK_MAGIC);
        put_u32(&mut out, PACK_VERSION);
        put_u64(&mut out, self.name_hash);
        put_u32(&mut out, self.shard_idx);
        put_u64(&mut out, self.start_row);
        put_u64(&mut out, self.n_rows);
        put_u32(&mut out, self.dim);
        out.resize(SHARD_HEADER_LEN, 0);
        out
    }

    /// Decode and validate the fixed-size header at the front of `bytes`.
    pub fn decode(bytes: &[u8], what: &str) -> Result<Self, PackError> {
        if bytes.len() < SHARD_HEADER_LEN {
            return Err(PackError::Truncated(what.into()));
        }
        let mut c = Cursor::new(&bytes[..SHARD_HEADER_LEN], what);
        c.magic(PACK_MAGIC)?;
        c.version(PACK_VERSION)?;
        let name_hash = c.u64()?;
        let shard_idx = c.u32()?;
        let start_row = c.u64()?;
        let n_rows = c.u64()?;
        let dim = c.u32()?;
        Ok(Self { name_hash, shard_idx, start_row, n_rows, dim })
    }
}

// ---- index file ------------------------------------------------------------

/// Bytes of one [`ShardMeta`] in an index file.
const SHARD_META_LEN: usize = 28;

/// Per-shard entry in an index file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    /// First row of the shard.
    pub start_row: u64,
    /// Rows in the shard.
    pub n_rows: u64,
    /// Which epoch-named file holds the shard (`<name>.<s>.pack` for epoch
    /// 0, `<name>.<s>.e<E>.pack` beyond). Compaction rewrites dirty shards
    /// under a fresh epoch so the old file survives untouched until the new
    /// index commits — the fix for the old shard-then-index window that
    /// bricked `open` with a CRC mismatch.
    pub epoch: u64,
    /// CRC32 of the shard's payload (duplicated in the shard trailer; the
    /// index copy lets `verify` cross-check without trusting either file
    /// alone).
    pub payload_crc: u32,
}

/// Decoded index file: table geometry, the 256-way fan-out, per-shard metas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexFile {
    /// Total rows in the table.
    pub rows: u64,
    /// Embedding dimension.
    pub dim: u32,
    /// Epoch of the table's delta file (`<name>.delta` for 0,
    /// `<name>.d<E>.delta` beyond). Compaction and base rewrites advance it,
    /// so deltas flushed against the *old* base can never replay over the
    /// new one — a crash between the index commit and the old delta file's
    /// removal leaves a stale file the new index simply never reads.
    pub delta_epoch: u64,
    /// Cumulative row counts by key byte (`fanout[b]` = rows with key byte
    /// `<= b`); `fanout[255] == rows`.
    pub fanout: [u64; FANOUT],
    /// One entry per shard, ascending by `start_row`, contiguous, covering
    /// `0..rows`.
    pub shards: Vec<ShardMeta>,
}

impl IndexFile {
    /// Build the fan-out for a table of `rows` rows.
    pub fn build_fanout(rows: u64) -> [u64; FANOUT] {
        let mut fanout = [0u64; FANOUT];
        if rows == 0 {
            return fanout;
        }
        for (b, slot) in fanout.iter_mut().enumerate() {
            // Rows with key byte <= b: key_byte(r) <= b  ⇔  r*256/rows <= b
            // ⇔ r < (b+1)*rows/256 rounded up appropriately; count directly.
            *slot = ((b as u64 + 1) * rows).div_ceil(FANOUT as u64).min(rows);
        }
        fanout[FANOUT - 1] = rows;
        fanout
    }

    /// Encode the full index file (CRC trailer included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(IDX_MAGIC);
        put_u32(&mut out, PACK_VERSION);
        put_u64(&mut out, self.rows);
        put_u32(&mut out, self.dim);
        put_u64(&mut out, self.delta_epoch);
        put_u32(&mut out, self.shards.len() as u32);
        for f in self.fanout {
            put_u64(&mut out, f);
        }
        for s in &self.shards {
            put_u64(&mut out, s.start_row);
            put_u64(&mut out, s.n_rows);
            put_u64(&mut out, s.epoch);
            put_u32(&mut out, s.payload_crc);
        }
        put_crc(&mut out, 0);
        out
    }

    /// Strict decode of a full index file.
    pub fn decode(bytes: &[u8], what: &str) -> Result<Self, PackError> {
        let mut c = Cursor::new(crc_trailed(bytes, what)?, what);
        c.magic(IDX_MAGIC)?;
        c.version(PACK_VERSION)?;
        let rows = c.u64()?;
        let dim = c.u32()?;
        let delta_epoch = c.u64()?;
        let n_shards = c.count(SHARD_META_LEN)?;
        let mut fanout = [0u64; FANOUT];
        for slot in &mut fanout {
            *slot = c.u64()?;
        }
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let start_row = c.u64()?;
            let n_rows = c.u64()?;
            let epoch = c.u64()?;
            let payload_crc = c.u32()?;
            shards.push(ShardMeta { start_row, n_rows, epoch, payload_crc });
        }
        c.finish()?;
        // Geometry invariants: contiguous cover of 0..rows, fanout consistent.
        let mut next = 0u64;
        for (i, s) in shards.iter().enumerate() {
            if s.start_row != next || s.n_rows == 0 {
                return Err(PackError::Corrupt(format!("{what}: shard {i} range")));
            }
            next += s.n_rows;
        }
        if next != rows {
            return Err(PackError::Corrupt(format!("{what}: shards cover {next}/{rows} rows")));
        }
        if fanout != Self::build_fanout(rows) {
            return Err(PackError::Corrupt(format!("{what}: fan-out disagrees with row count")));
        }
        Ok(Self { rows, dim, delta_epoch, fanout, shards })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn shard_header_roundtrip() {
        let h = ShardHeader {
            name_hash: name_hash("user"),
            shard_idx: 3,
            start_row: 4096,
            n_rows: 1024,
            dim: 16,
        };
        let enc = h.encode();
        assert_eq!(enc.len(), SHARD_HEADER_LEN);
        assert_eq!(ShardHeader::decode(&enc, "t").unwrap(), h);
        assert!(matches!(
            ShardHeader::decode(&enc[..10], "t"),
            Err(PackError::Truncated(_))
        ));
        let mut bad = enc.clone();
        bad[0] ^= 1;
        assert!(matches!(ShardHeader::decode(&bad, "t"), Err(PackError::BadMagic(_))));
    }

    #[test]
    fn fanout_is_monotone_and_complete() {
        for rows in [1u64, 2, 255, 256, 257, 10_000] {
            let f = IndexFile::build_fanout(rows);
            assert_eq!(f[FANOUT - 1], rows);
            let mut prev = 0;
            for (b, &v) in f.iter().enumerate() {
                assert!(v >= prev, "rows={rows} b={b}");
                prev = v;
            }
            // Every row's key byte bucket contains it.
            for r in 0..rows.min(4096) {
                let b = key_byte(r, rows) as usize;
                let lo = if b == 0 { 0 } else { f[b - 1] };
                assert!(lo <= r && r < f[b], "row {r} rows {rows} bucket {b}");
            }
        }
    }

    #[test]
    fn index_roundtrip_and_rejections() {
        let rows = 1000u64;
        let idx = IndexFile {
            rows,
            dim: 8,
            delta_epoch: 3,
            fanout: IndexFile::build_fanout(rows),
            shards: vec![
                ShardMeta { start_row: 0, n_rows: 600, epoch: 0, payload_crc: 7 },
                ShardMeta { start_row: 600, n_rows: 400, epoch: 2, payload_crc: 9 },
            ],
        };
        let enc = idx.encode();
        assert_eq!(IndexFile::decode(&enc, "i").unwrap(), idx);

        // Truncation, bit flips, and trailing garbage all fail loud.
        assert!(IndexFile::decode(&enc[..enc.len() - 1], "i").is_err());
        let mut flipped = enc.clone();
        flipped[20] ^= 0x40;
        assert!(matches!(
            IndexFile::decode(&flipped, "i"),
            Err(PackError::ChecksumMismatch { .. })
        ));
        let mut padded = enc.clone();
        padded.extend_from_slice(b"junk");
        assert!(IndexFile::decode(&padded, "i").is_err());
    }

    #[test]
    fn index_geometry_is_validated() {
        let rows = 100u64;
        let mut idx = IndexFile {
            rows,
            dim: 4,
            delta_epoch: 0,
            fanout: IndexFile::build_fanout(rows),
            shards: vec![ShardMeta { start_row: 0, n_rows: 90, epoch: 0, payload_crc: 0 }],
        };
        let enc = idx.encode();
        assert!(matches!(IndexFile::decode(&enc, "i"), Err(PackError::Corrupt(_))));
        idx.shards[0].n_rows = 100;
        assert!(IndexFile::decode(&idx.encode(), "i").is_ok());
    }
}
