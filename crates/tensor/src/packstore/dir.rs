//! Pack directories and tables: the writer (shards + index + manifest), the
//! table ([`PackTable`]: a base of mmap'd or heap shards, under an in-place
//! overlay when the table has a directory), delta replay and flushing,
//! compaction, and full verification.

use super::format::{
    check_crc, crc32, crc_trailed, key_byte, name_hash, put_crc, put_f32s, put_str, put_u32,
    put_u64, record_bytes, record_f32s, Cursor, IndexFile, PackError, ShardHeader, ShardMeta,
    DELTA_CHUNK_MAGIC, FANOUT, MANIFEST_MAGIC, PACK_VERSION, SHARD_HEADER_LEN,
};
use super::mapping::ShardData;
use super::{atomic_write, crash, truncate_torn_tail};
use std::collections::BTreeSet;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Layout knob for writing/opening a pack table.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackOptions {
    /// Rows per shard; 0 selects the automatic policy (≤ [`FANOUT`] shards,
    /// at least 1024 rows each, so tiny tables stay single-file and an
    /// 81M-row table lands on exactly 256 shards).
    pub shard_rows: usize,
}

/// The automatic rows-per-shard policy for a table of `rows` rows.
pub fn auto_shard_rows(rows: usize) -> usize {
    rows.div_ceil(FANOUT).max(1024)
}

fn shard_path(dir: &Path, name: &str, idx: usize, epoch: u64) -> PathBuf {
    if epoch == 0 {
        dir.join(format!("{name}.{idx}.pack"))
    } else {
        dir.join(format!("{name}.{idx}.e{epoch}.pack"))
    }
}

fn idx_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.idx"))
}

fn delta_path(dir: &Path, name: &str, epoch: u64) -> PathBuf {
    if epoch == 0 {
        dir.join(format!("{name}.delta"))
    } else {
        dir.join(format!("{name}.d{epoch}.delta"))
    }
}

/// Whether `file_name` is a file this table owns: one of its shard, delta,
/// or atomic-write temp names (exact-prefix matched so `user` never claims
/// `user_wide`'s files; the index is excluded — it is the commit record).
fn owned_by_table(name: &str, file_name: &str) -> bool {
    if let Some(rest) = file_name.strip_prefix(&format!(".{name}.")) {
        return rest.contains(".tmp-");
    }
    let Some(rest) = file_name.strip_prefix(name).and_then(|r| r.strip_prefix('.')) else {
        return false;
    };
    if rest == "delta" {
        return true;
    }
    if let Some(e) = rest.strip_prefix('d').and_then(|r| r.strip_suffix(".delta")) {
        return !e.is_empty() && e.bytes().all(|b| b.is_ascii_digit());
    }
    let Some(body) = rest.strip_suffix(".pack") else { return false };
    let (idx, epoch) = match body.split_once('.') {
        None => (body, None),
        Some((i, e)) => (i, Some(e)),
    };
    if idx.is_empty() || !idx.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    match epoch {
        None => true,
        Some(e) => {
            let Some(num) = e.strip_prefix('e') else { return false };
            !num.is_empty() && num.bytes().all(|b| b.is_ascii_digit())
        }
    }
}

/// Sweep files the committed `index` no longer references: superseded-epoch
/// shards and deltas, plus torn atomic-write temps. Runs **after** a
/// successful index commit; best-effort (a crash mid-sweep just leaves
/// stale files the index never reads, retired by the next sweep).
fn clean_stale_files(dir: &Path, name: &str, index: &IndexFile) {
    let mut keep: Vec<String> = index
        .shards
        .iter()
        .enumerate()
        .filter_map(|(s, m)| {
            shard_path(dir, name, s, m.epoch).file_name()?.to_str().map(String::from)
        })
        .collect();
    if let Some(d) = delta_path(dir, name, index.delta_epoch).file_name().and_then(|f| f.to_str())
    {
        keep.push(d.to_string());
    }
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let fname = entry.file_name();
        let Some(fname) = fname.to_str() else { continue };
        if owned_by_table(name, fname) && !keep.iter().any(|k| k == fname) {
            let _ = crash::remove_file(&entry.path());
        }
    }
}

/// The epoch a fresh base write should land on: one past the committed
/// index's delta epoch, or 0 when no readable index exists (a fresh or dead
/// table — nothing valid to preserve).
fn next_epoch(dir: &Path, name: &str) -> u64 {
    let ipath = idx_path(dir, name);
    match std::fs::read(&ipath) {
        Ok(bytes) => match IndexFile::decode(&bytes, &ipath.display().to_string()) {
            Ok(idx) => idx.delta_epoch + 1,
            Err(_) => 0,
        },
        Err(_) => 0,
    }
}

/// Check shard `s` of table `name` against its index entry: the exact file
/// length first (`file_len`), then the header at the front of `header`.
fn check_shard(
    path: &Path,
    name: &str,
    s: usize,
    meta: &ShardMeta,
    dim: usize,
    file_len: u64,
    header: &[u8],
) -> Result<(), PackError> {
    let what = path.display().to_string();
    let want_len = SHARD_HEADER_LEN as u64 + meta.n_rows * record_bytes(dim) as u64 + 4;
    if file_len < want_len {
        return Err(PackError::Truncated(what));
    }
    if file_len > want_len {
        return Err(PackError::TrailingBytes(what));
    }
    let want = ShardHeader {
        name_hash: name_hash(name),
        shard_idx: s as u32,
        start_row: meta.start_row,
        n_rows: meta.n_rows,
        dim: dim as u32,
    };
    if ShardHeader::decode(header, &what)? != want {
        return Err(PackError::Corrupt(format!("{what}: header disagrees with index")));
    }
    Ok(())
}

// ---- writer ----------------------------------------------------------------

fn encode_shard(
    name: &str,
    shard_idx: usize,
    start_row: u64,
    n_rows: u64,
    dim: usize,
    payload: &[u8],
) -> (Vec<u8>, u32) {
    let header = ShardHeader {
        name_hash: name_hash(name),
        shard_idx: shard_idx as u32,
        start_row,
        n_rows,
        dim: dim as u32,
    };
    let crc = crc32(payload);
    let mut bytes = header.encode();
    bytes.extend_from_slice(payload);
    put_u32(&mut bytes, crc);
    (bytes, crc)
}

fn record_payload(weights: &[f32], accum: &[f32], dim: usize, rows: std::ops::Range<u64>) -> Vec<u8> {
    let mut payload = Vec::with_capacity((rows.end - rows.start) as usize * record_bytes(dim));
    for r in rows {
        let base = r as usize * dim;
        put_f32s(&mut payload, &weights[base..base + dim]);
        put_f32s(&mut payload, &accum[base..base + dim]);
    }
    payload
}

/// Write a table's base pack: shards + fan-out index. Over an *existing*
/// table the new shards land under the next epoch, so every old-epoch file
/// stays intact until the index — the single commit point — is atomically
/// replaced: a crash at any IO op leaves either the complete old table
/// (base + its deltas) or the complete new one. After the commit, stale
/// epochs, superseded deltas, and leftover layouts are swept best-effort.
pub fn write_table(
    dir: &Path,
    name: &str,
    rows: usize,
    dim: usize,
    weights: &[f32],
    accum: &[f32],
    opts: PackOptions,
) -> Result<Vec<ShardMeta>, PackError> {
    assert_eq!(weights.len(), rows * dim, "write_table: weights size");
    assert_eq!(accum.len(), rows * dim, "write_table: accum size");
    assert!(rows > 0 && dim > 0, "write_table: empty table");
    std::fs::create_dir_all(dir).map_err(|e| PackError::io(dir, &e))?;
    let epoch = next_epoch(dir, name);
    let shard_rows = if opts.shard_rows == 0 { auto_shard_rows(rows) } else { opts.shard_rows };
    let n_shards = rows.div_ceil(shard_rows);
    let mut metas = Vec::with_capacity(n_shards);
    for s in 0..n_shards {
        let start = (s * shard_rows) as u64;
        let end = (((s + 1) * shard_rows).min(rows)) as u64;
        let payload = record_payload(weights, accum, dim, start..end);
        let (bytes, crc) = encode_shard(name, s, start, end - start, dim, &payload);
        let path = shard_path(dir, name, s, epoch);
        atomic_write(&path, &bytes).map_err(|e| PackError::io(&path, &e))?;
        metas.push(ShardMeta { start_row: start, n_rows: end - start, epoch, payload_crc: crc });
    }
    let index = IndexFile {
        rows: rows as u64,
        dim: dim as u32,
        delta_epoch: epoch,
        fanout: IndexFile::build_fanout(rows as u64),
        shards: metas.clone(),
    };
    let ipath = idx_path(dir, name);
    atomic_write(&ipath, &index.encode()).map_err(|e| PackError::io(&ipath, &e))?;
    // Committed. Anything the new index does not reference — the previous
    // epoch's shards, its delta file, stale shards from a larger layout,
    // torn temps — must not linger.
    clean_stale_files(dir, name, &index);
    Ok(metas)
}

// ---- manifest ---------------------------------------------------------------

/// One table as listed in a pack directory's `MANIFEST`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Table name (matches the live store's table name).
    pub name: String,
    /// Vocabulary rows.
    pub rows: u64,
    /// Embedding dimension.
    pub dim: u32,
    /// Shards the base pack is split into.
    pub n_shards: u32,
}

/// Write the directory manifest atomically.
pub fn write_manifest(dir: &Path, entries: &[ManifestEntry]) -> Result<(), PackError> {
    std::fs::create_dir_all(dir).map_err(|e| PackError::io(dir, &e))?;
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    put_u32(&mut out, PACK_VERSION);
    put_u32(&mut out, entries.len() as u32);
    for e in entries {
        put_str(&mut out, &e.name);
        put_u64(&mut out, e.rows);
        put_u32(&mut out, e.dim);
        put_u32(&mut out, e.n_shards);
    }
    put_crc(&mut out, 0);
    let path = dir.join("MANIFEST");
    atomic_write(&path, &out).map_err(|e| PackError::io(&path, &e))
}

/// Read and strictly validate the directory manifest.
pub fn read_manifest(dir: &Path) -> Result<Vec<ManifestEntry>, PackError> {
    let path = dir.join("MANIFEST");
    let bytes = std::fs::read(&path).map_err(|e| PackError::io(&path, &e))?;
    let what = path.display().to_string();
    let mut c = Cursor::new(crc_trailed(&bytes, &what)?, &what);
    c.magic(MANIFEST_MAGIC)?;
    c.version(PACK_VERSION)?;
    // An entry is at least a name length, rows, dim and shard count.
    let n = c.count(20)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let name = c.str()?;
        let rows = c.u64()?;
        let dim = c.u32()?;
        let n_shards = c.u32()?;
        entries.push(ManifestEntry { name, rows, dim, n_shards });
    }
    c.finish()?;
    Ok(entries)
}

// ---- reader -----------------------------------------------------------------

struct LoadedShard {
    meta: ShardMeta,
    data: ShardData,
}

/// Rows patched over the base: one flat arena of records plus a dense
/// row → slot index, so a read is one indexed load and a write allocates
/// nothing once the row has a slot. The index is allocated on the first
/// write; until then a read sees an empty index and goes to the base.
#[derive(Default)]
struct Overlay {
    /// Slot of each row's record in `data`, or [`Overlay::ABSENT`].
    slots: Vec<u32>,
    /// Rows that have a slot.
    len: usize,
    data: Vec<f32>,
}

impl Overlay {
    const ABSENT: u32 = u32::MAX;

    fn get(&self, row: u32, nf: usize) -> Option<&[f32]> {
        match self.slots.get(row as usize) {
            Some(&s) if s != Self::ABSENT => Some(&self.data[s as usize * nf..][..nf]),
            _ => None,
        }
    }

    /// The record of `row` (of `rows` in the table), given a slot filled by
    /// `init` on first touch.
    fn slot_mut(
        &mut self,
        row: u32,
        rows: usize,
        nf: usize,
        init: impl FnOnce(&mut Vec<f32>),
    ) -> &mut [f32] {
        if self.slots.is_empty() {
            self.slots = vec![Self::ABSENT; rows];
        }
        let s = &mut self.slots[row as usize];
        if *s == Self::ABSENT {
            init(&mut self.data);
            *s = u32::try_from(self.len).expect("overlay slots fit in u32");
            self.len += 1;
        }
        debug_assert_eq!(self.data.len(), self.len * nf);
        &mut self.data[*s as usize * nf..][..nf]
    }

    /// Whether any row in `rows` has a slot.
    fn any_in(&self, rows: std::ops::Range<u64>) -> bool {
        self.len > 0
            && self.slots[rows.start as usize..rows.end as usize].iter().any(|&s| s != Self::ABSENT)
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
        self.data.clear();
    }
}

/// One embedding table's records. With a directory: mmap'd (or heap-decoded)
/// base shards, an overlay of rows written since open, and the set of overlay
/// rows not yet flushed to the delta file. Without one (`PackTable::owned`):
/// one heap run of records updated in place, and nothing else. See the
/// module docs for the read/write paths and the durability story.
pub struct PackTable {
    name: String,
    rows: usize,
    dim: usize,
    /// Where the pack files live; `None` for a table that owns its records.
    dir: Option<PathBuf>,
    /// Whether base shards are mapped (else heap-decoded) when opened.
    map: bool,
    index: IndexFile,
    shards: Vec<LoadedShard>,
    shard_starts: Vec<u64>,
    overlay: Overlay,
    /// Rows written since the last durable flush; their records are the
    /// overlay's. Ascending order is the delta chunk's record order.
    pending: BTreeSet<u32>,
    /// Bytes of the delta file known to hold complete, durable chunks (set
    /// by replay, advanced by successful flushes). A failed append leaves
    /// the file longer than this; the next flush truncates back before
    /// appending so garbage never ends up *mid*-file.
    delta_valid_len: u64,
}

impl PackTable {
    /// Open a table from its pack files, replaying any delta file into the
    /// overlay. `expect` geometry (rows, dim) is validated against the index.
    /// No record payload is read or checksummed here — that is the point of
    /// the warm start; use [`PackTable::verify`] for a full integrity pass.
    pub fn open(
        dir: &Path,
        name: &str,
        expect_rows: usize,
        expect_dim: usize,
    ) -> Result<Self, PackError> {
        Self::open_with(dir, name, expect_rows, expect_dim, true)
    }

    /// [`PackTable::open`], with `map = false` decoding every base shard onto
    /// the heap — the fallback a platform that refuses the mapping gets,
    /// forced here so its tests can run anywhere. Compaction keeps the
    /// choice.
    pub(crate) fn open_with(
        dir: &Path,
        name: &str,
        expect_rows: usize,
        expect_dim: usize,
        map: bool,
    ) -> Result<Self, PackError> {
        let ipath = idx_path(dir, name);
        let ibytes = std::fs::read(&ipath).map_err(|e| PackError::io(&ipath, &e))?;
        let index = IndexFile::decode(&ibytes, &ipath.display().to_string())?;
        if index.rows != expect_rows as u64 || index.dim != expect_dim as u32 {
            return Err(PackError::ShapeMismatch(format!(
                "table {name:?}: pack is {}x{}, live table is {expect_rows}x{expect_dim}",
                index.rows, index.dim
            )));
        }
        let mut shards = Vec::with_capacity(index.shards.len());
        let mut shard_starts = Vec::with_capacity(index.shards.len());
        for (s, meta) in index.shards.iter().enumerate() {
            let path = shard_path(dir, name, s, meta.epoch);
            let io = |e| PackError::io(&path, &e);
            let file = std::fs::File::open(&path).map_err(io)?;
            let file_len = file.metadata().map_err(io)?.len();
            let mut header = Vec::with_capacity(SHARD_HEADER_LEN);
            file.take(SHARD_HEADER_LEN as u64).read_to_end(&mut header).map_err(io)?;
            check_shard(&path, name, s, meta, expect_dim, file_len, &header)?;
            let payload_bytes = meta.n_rows as usize * record_bytes(expect_dim);
            let data = ShardData::open(&path, SHARD_HEADER_LEN, payload_bytes, map)?;
            shard_starts.push(meta.start_row);
            shards.push(LoadedShard { meta: *meta, data });
        }
        let mut table = Self {
            name: name.to_string(),
            rows: expect_rows,
            dim: expect_dim,
            dir: Some(dir.to_path_buf()),
            map,
            index,
            shards,
            shard_starts,
            overlay: Overlay::default(),
            pending: BTreeSet::new(),
            delta_valid_len: 0,
        };
        table.replay_deltas()?;
        Ok(table)
    }

    /// A table with no directory whose base is `records` (`rows` records of
    /// `dim` weights then `dim` Adagrad accumulators): one heap run, updated
    /// in place, with no overlay and no pending set — there is no file to
    /// keep consistent, so [`PackTable::flush_deltas`] and
    /// [`PackTable::compact`] do nothing.
    pub(crate) fn owned(name: &str, rows: usize, dim: usize, records: Vec<f32>) -> Self {
        assert!(rows > 0 && dim > 0, "PackTable::owned: empty table");
        assert_eq!(records.len(), rows * record_f32s(dim), "PackTable::owned: records size");
        let meta = ShardMeta { start_row: 0, n_rows: rows as u64, epoch: 0, payload_crc: 0 };
        Self {
            name: name.to_string(),
            rows,
            dim,
            dir: None,
            map: false,
            index: IndexFile {
                rows: rows as u64,
                dim: dim as u32,
                delta_epoch: 0,
                fanout: IndexFile::build_fanout(rows as u64),
                shards: vec![meta],
            },
            shards: vec![LoadedShard { meta, data: ShardData::Heap(records) }],
            shard_starts: vec![0],
            overlay: Overlay::default(),
            pending: BTreeSet::new(),
            delta_valid_len: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rows in the table.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The directory this table lives in (`None` for an owned table).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Whether every base shard is served from a live mapping (false for an
    /// owned table, and when the platform refused the mapping).
    pub fn is_fully_mapped(&self) -> bool {
        self.shards.iter().all(|s| s.data.is_mapped())
    }

    /// Rows currently patched over the base (written since open or replayed
    /// from the delta file).
    pub fn overlay_len(&self) -> usize {
        self.overlay.len
    }

    /// Updates not yet flushed to the delta file.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Shards the base pack is split into.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Heap bytes held for this table: the overlay records plus every heap
    /// base shard (a mapped base is the page cache's business; pending rows
    /// are overlay rows).
    pub fn resident_bytes(&self) -> usize {
        let nf = record_f32s(self.dim);
        let heap_base: usize = self
            .shards
            .iter()
            .filter(|s| !s.data.is_mapped())
            .map(|s| s.meta.n_rows as usize * nf)
            .sum();
        (self.overlay.data.len() + heap_base) * std::mem::size_of::<f32>()
    }

    /// The base record of `row` (rows are dense, shards contiguous — the
    /// fan-out pins the geometry on disk; in memory a partition point over
    /// the shard starts is the same lookup). A free function over the shard
    /// fields so a write can read the base while it fills an overlay slot.
    fn base_record<'a>(
        shards: &'a [LoadedShard],
        starts: &[u64],
        nf: usize,
        row: u32,
    ) -> &'a [f32] {
        let shard = &shards[starts.partition_point(|&s| s <= row as u64) - 1];
        let local = (row as u64 - shard.meta.start_row) as usize;
        shard.data.f32s(local * nf, nf)
    }

    /// Every record as one run, row-major, when one base shard holds them
    /// all and no overlay row shadows it — always so for an owned table. A
    /// gather hoists this once and then indexes it, skipping the per-row
    /// overlay and shard lookups of [`PackTable::record`].
    pub(crate) fn flat_records(&self) -> Option<&[f32]> {
        match self.shards.as_slice() {
            [only] if self.overlay.len == 0 => {
                Some(only.data.f32s(0, self.rows * record_f32s(self.dim)))
            }
            _ => None,
        }
    }

    /// The `2*dim` record of a row — overlay first, then the base. This is
    /// the whole read path: a gather copies straight out of it.
    pub fn record(&self, row: u32) -> &[f32] {
        debug_assert!((row as usize) < self.rows);
        let nf = record_f32s(self.dim);
        match self.overlay.get(row, nf) {
            Some(r) => r,
            None => Self::base_record(&self.shards, &self.shard_starts, nf, row),
        }
    }

    /// Update a row's record in place. An owned table writes its base
    /// record. A table with a directory never writes its base: `f` gets the
    /// row's overlay record (copied from the base on the row's first write)
    /// and the row joins the pending set the next
    /// [`PackTable::flush_deltas`] writes out. The overlay stays
    /// authoritative until compaction.
    pub fn update_record(&mut self, row: u32, f: impl FnOnce(&mut [f32])) {
        assert!((row as usize) < self.rows, "update_record: row {row} out of {}", self.rows);
        let nf = record_f32s(self.dim);
        if self.dir.is_none() {
            return f(self.shards[0].data.f32s_mut(row as usize * nf, nf));
        }
        let (shards, starts) = (&self.shards, &self.shard_starts);
        f(self.overlay.slot_mut(row, self.rows, nf, |data| {
            data.extend_from_slice(Self::base_record(shards, starts, nf, row))
        }));
        self.pending.insert(row);
    }

    /// Overwrite a row's record (an [`PackTable::update_record`] that
    /// ignores the old value).
    pub fn write_record(&mut self, row: u32, rec: &[f32]) {
        assert_eq!(rec.len(), record_f32s(self.dim), "write_record: record width");
        self.update_record(row, |r| r.copy_from_slice(rec));
    }

    // ---- deltas ------------------------------------------------------------

    /// Replay the current-epoch delta file into the overlay.
    ///
    /// **Torn-tail tolerance**: an append is sequential, so a crash mid-
    /// flush can only leave an *incomplete final chunk* — a header or body
    /// shorter than declared. That tail is a crash artifact, not
    /// corruption: it is dropped (counted under
    /// `packstore.delta_torn_tail`) and the file is truncated back to its
    /// last complete chunk so later appends continue from valid bytes. A
    /// **complete** chunk whose CRC disagrees, or a mid-file magic
    /// mismatch, can never result from a torn append and still fails loud.
    fn replay_deltas(&mut self) -> Result<(), PackError> {
        let path = self.delta_path().expect("only a table with a directory replays deltas");
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(PackError::io(&path, &e)),
        };
        let what = path.display().to_string();
        let rec_bytes = record_bytes(self.dim);
        let nf = record_f32s(self.dim);
        let mut c = Cursor::new(&bytes, &what);
        while c.remaining() > 0 {
            let chunk = c.frame(12, |header| {
                let mut h = Cursor::new(header, &what);
                h.magic(DELTA_CHUNK_MAGIC)?;
                Ok((h.u32()? as usize).saturating_mul(8 + rec_bytes).saturating_add(12))
            });
            let chunk = match chunk {
                Ok(chunk) => chunk,
                // Incomplete final chunk: torn tail.
                Err(PackError::Truncated(_)) => {
                    let torn = truncate_torn_tail(&path, c.position() as u64);
                    basm_obs::counter_add("packstore.delta_torn_tail", 1);
                    basm_obs::counter_add("packstore.delta_torn_bytes", torn);
                    break;
                }
                Err(e) => return Err(e),
            };
            let (header, body) = chunk.split_at(12);
            check_crc(body, u32::from_le_bytes(header[8..].try_into().expect("4 bytes")), &what)?;
            let mut records = Cursor::new(body, &what);
            while records.remaining() > 0 {
                let row = records.u64()?;
                if row >= self.rows as u64 {
                    return Err(PackError::Corrupt(format!(
                        "{what}: delta row {row} out of range"
                    )));
                }
                let slot = self
                    .overlay
                    .slot_mut(row as u32, self.rows, nf, |data| data.resize(data.len() + nf, 0.0));
                records.f32s_into(slot)?;
            }
        }
        self.delta_valid_len = c.position() as u64;
        Ok(())
    }

    /// Append the pending rows' overlay records to the delta file as one
    /// CRC'd chunk (rows ascending), fsynced before returning. Returns the
    /// number of records written (0 when nothing was pending). Once this
    /// returns `Ok`, a crash loses nothing — open replays the file. On error
    /// (including an injected kill) the pending set is **retained** for
    /// retry, never dropped; the at-most partially-appended chunk on disk is
    /// a torn tail the next open drops.
    pub fn flush_deltas(&mut self) -> std::io::Result<usize> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let rec_bytes = record_bytes(self.dim);
        let nf = record_f32s(self.dim);
        let mut body = Vec::with_capacity(self.pending.len() * (8 + rec_bytes));
        for &row in &self.pending {
            put_u64(&mut body, row as u64);
            put_f32s(
                &mut body,
                self.overlay.get(row, nf).expect("pending rows live in the overlay"),
            );
        }
        let mut chunk = Vec::with_capacity(12 + body.len());
        chunk.extend_from_slice(DELTA_CHUNK_MAGIC);
        put_u32(&mut chunk, self.pending.len() as u32);
        put_u32(&mut chunk, crc32(&body));
        chunk.extend_from_slice(&body);
        let path = self.delta_path().expect("only a table with a directory has pending rows");
        // A previously failed append (transient IO error, or a survived
        // injected kill in tests) leaves a torn tail; appending after it
        // would bury garbage mid-file where replay must reject it. Repair
        // first — idempotent, and a crash here just re-creates the torn
        // tail the next open drops.
        truncate_torn_tail(&path, self.delta_valid_len);
        crash::append_file(&path, &chunk)?;
        // Only a durable append clears the buffer.
        self.delta_valid_len += chunk.len() as u64;
        let flushed = self.pending.len();
        self.pending.clear();
        Ok(flushed)
    }

    /// The current epoch's delta file, for a table with a directory.
    fn delta_path(&self) -> Option<PathBuf> {
        Some(delta_path(self.dir.as_deref()?, &self.name, self.index.delta_epoch))
    }

    /// Whether the current epoch's delta file exists on disk.
    pub fn has_delta_file(&self) -> bool {
        self.delta_path().is_some_and(|p| p.exists())
    }

    // ---- compaction --------------------------------------------------------

    /// Fold the overlay (and therefore every flushed or pending delta) back
    /// into the base under the **next epoch**: dirty shards are rebuilt into
    /// new-epoch files, then the index — the single commit point — is
    /// atomically replaced with one naming the new shards and a new delta
    /// epoch, and only then are the superseded files swept. A crash at any
    /// IO op in the window leaves the old index pointing at untouched
    /// old-epoch shards + the old delta file: reopen sees the exact
    /// pre-compaction state. Clean shards keep their files and mappings.
    /// An owned table has no overlay and no delta file: nothing to fold.
    pub fn compact(&mut self) -> Result<(), PackError> {
        if self.overlay.len == 0 && !self.has_delta_file() {
            self.pending.clear();
            return Ok(());
        }
        let dir = self.dir.clone().expect("only a table with a directory has an overlay");
        let dim = self.dim;
        let nf = record_f32s(dim);
        let epoch = self.index.delta_epoch + 1;
        // Build the candidate state off to the side; `self` is not touched
        // until the index commit succeeds, so an error (or injected kill)
        // anywhere leaves this table — and the disk — on the old epoch.
        let mut new_index = self.index.clone();
        new_index.delta_epoch = epoch;
        let mut new_data: Vec<(usize, ShardData)> = Vec::new();
        for s in 0..self.shards.len() {
            let (start, n_rows) = {
                let m = &self.shards[s].meta;
                (m.start_row, m.n_rows)
            };
            if !self.overlay.any_in(start..start + n_rows) {
                continue;
            }
            let mut payload = Vec::with_capacity(n_rows as usize * record_bytes(dim));
            for r in start..start + n_rows {
                let rec = match self.overlay.get(r as u32, nf) {
                    Some(o) => o,
                    None => {
                        let local = (r - start) as usize;
                        self.shards[s].data.f32s(local * nf, nf)
                    }
                };
                put_f32s(&mut payload, rec);
            }
            let (bytes, crc) = encode_shard(&self.name, s, start, n_rows, dim, &payload);
            let path = shard_path(&dir, &self.name, s, epoch);
            atomic_write(&path, &bytes).map_err(|e| PackError::io(&path, &e))?;
            new_index.shards[s].payload_crc = crc;
            new_index.shards[s].epoch = epoch;
            let payload_bytes = n_rows as usize * record_bytes(dim);
            new_data.push((s, ShardData::open(&path, SHARD_HEADER_LEN, payload_bytes, self.map)?));
        }
        let ipath = idx_path(&dir, &self.name);
        atomic_write(&ipath, &new_index.encode()).map_err(|e| PackError::io(&ipath, &e))?;
        // Committed: adopt the new epoch in memory, then sweep what the new
        // index no longer references (old-epoch shards, the retired delta).
        for (s, data) in new_data {
            self.shards[s].meta = new_index.shards[s];
            self.shards[s].data = data;
        }
        self.index = new_index;
        self.overlay.clear();
        self.pending.clear();
        self.delta_valid_len = 0; // the new epoch has no delta file yet
        clean_stale_files(&dir, &self.name, &self.index);
        Ok(())
    }

    // ---- bulk reads & verification ----------------------------------------

    /// Flat copies of the current weights and accumulators (overlay applied).
    pub fn snapshot(&self) -> (Vec<f32>, Vec<f32>) {
        let dim = self.dim;
        let mut w = Vec::with_capacity(self.rows * dim);
        let mut a = Vec::with_capacity(self.rows * dim);
        for r in 0..self.rows as u32 {
            let rec = self.record(r);
            w.extend_from_slice(&rec[..dim]);
            a.extend_from_slice(&rec[dim..]);
        }
        (w, a)
    }

    /// Full integrity pass, reading every file back from disk: shard headers,
    /// payload CRCs (against both the shard trailer and the index copy),
    /// exact file lengths, and delta-chunk CRCs. This is the `fsck`; open
    /// deliberately skips it so warm starts stay O(1) in table size. An
    /// owned table has no files: there is nothing to check.
    pub fn verify(&self) -> Result<(), PackError> {
        let Some(dir) = self.dir.as_deref() else { return Ok(()) };
        for (s, shard) in self.shards.iter().enumerate() {
            let path = shard_path(dir, &self.name, s, shard.meta.epoch);
            let what = path.display().to_string();
            let bytes = std::fs::read(&path).map_err(|e| PackError::io(&path, &e))?;
            check_shard(&path, &self.name, s, &shard.meta, self.dim, bytes.len() as u64, &bytes)?;
            let payload = crc_trailed(&bytes[SHARD_HEADER_LEN..], &what)?;
            // The trailer checked out, so it is the payload's CRC32.
            let trailer = &bytes[SHARD_HEADER_LEN + payload.len()..];
            let actual = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
            if actual != shard.meta.payload_crc {
                return Err(PackError::ChecksumMismatch {
                    what: format!("{what} (index copy)"),
                    stored: shard.meta.payload_crc,
                    actual,
                });
            }
        }
        // Deltas re-validate via a scratch replay (CRC + row-range checks).
        let mut scratch = PackTable {
            name: self.name.clone(),
            rows: self.rows,
            dim: self.dim,
            dir: self.dir.clone(),
            map: self.map,
            index: self.index.clone(),
            shards: Vec::new(),
            shard_starts: Vec::new(),
            overlay: Overlay::default(),
            pending: BTreeSet::new(),
            delta_valid_len: 0,
        };
        scratch.replay_deltas()?;
        Ok(())
    }

    /// The fan-out bucket of a row (exposed for tests: pins the on-disk
    /// geometry to the git-style keyspace split).
    pub fn fanout_bucket(&self, row: u32) -> u8 {
        key_byte(row as u64, self.rows as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every file of `dir`, by name, with its bytes.
    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        out.sort();
        out
    }

    fn bits(t: &PackTable) -> Vec<u32> {
        (0..t.rows() as u32).flat_map(|r| t.record(r).iter().map(|v| v.to_bits())).collect()
    }

    /// The heap-decode fallback against the mapping: one table written to two
    /// byte-identical directories, opened mapped and heap-decoded, then driven
    /// through the same updates, flushes, compactions and reopens. Records
    /// must stay bitwise equal and the two directories byte-equal, shard and
    /// delta files included.
    #[test]
    fn heap_decoded_base_matches_mapped_base() {
        let (rows, dim) = (40usize, 3usize);
        let weights: Vec<f32> = (0..rows * dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let accum: Vec<f32> = (0..rows * dim).map(|i| i as f32 * 1e-3).collect();
        let dirs = [super::super::fresh_temp_dir(), super::super::fresh_temp_dir()];
        let open = |map: bool| {
            let dir = &dirs[usize::from(!map)];
            PackTable::open_with(dir, "t", rows, dim, map).unwrap()
        };
        for dir in &dirs {
            let opts = PackOptions { shard_rows: 16 };
            write_table(dir, "t", rows, dim, &weights, &accum, opts).unwrap();
        }
        let mut tables = [open(true), open(false)];
        assert_eq!(tables[0].is_fully_mapped(), cfg!(all(unix, target_endian = "little")));
        assert!(!tables[1].is_fully_mapped());
        assert_eq!(files(&dirs[0]), files(&dirs[1]));

        let mut step = 0u32;
        for round in 0..3 {
            for t in &mut tables {
                for k in 0..7u32 {
                    let row = (step + 11 * k) % rows as u32;
                    t.update_record(row, |rec| {
                        rec.iter_mut().for_each(|v| *v = *v * 0.5 + (row + k) as f32)
                    });
                }
                let pending = t.pending_len();
                assert!(pending >= 7);
                assert_eq!(t.flush_deltas().unwrap(), pending);
                // Left pending into the next round, or folded by compaction.
                t.update_record(step % rows as u32, |rec| rec[0] += 1.0);
                if round == 1 {
                    t.compact().unwrap();
                }
            }
            step += 5;
            assert_eq!(bits(&tables[0]), bits(&tables[1]), "round {round}");
            assert_eq!(files(&dirs[0]), files(&dirs[1]), "round {round}");
        }
        for t in &mut tables {
            t.flush_deltas().unwrap();
        }
        tables = [open(true), open(false)];
        assert!(tables[0].overlay_len() > 0, "the reopen replays deltas");
        assert_eq!(bits(&tables[0]), bits(&tables[1]), "after reopen");
        for t in &mut tables {
            t.compact().unwrap();
            t.verify().unwrap();
        }
        assert!(!tables[1].is_fully_mapped(), "compaction keeps the heap decode");
        assert_eq!(bits(&tables[0]), bits(&tables[1]), "after the last compaction");
        assert_eq!(files(&dirs[0]), files(&dirs[1]), "after the last compaction");
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// A table with no directory writes its one heap run in place: no
    /// overlay, nothing pending, and flush and compaction do nothing.
    #[test]
    fn owned_table_updates_in_place() {
        let (rows, dim) = (5usize, 2usize);
        let mut t = PackTable::owned("t", rows, dim, vec![0.5; rows * record_f32s(dim)]);
        t.write_record(3, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.record(3), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((t.overlay_len(), t.pending_len()), (0, 0));
        assert_eq!(t.flush_deltas().unwrap(), 0);
        t.compact().unwrap();
        t.verify().unwrap();
        assert!(t.dir().is_none() && !t.has_delta_file());
        assert_eq!(t.resident_bytes(), rows * record_f32s(dim) * 4);
    }
}
