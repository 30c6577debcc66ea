//! Mmap-backed pack-file embedding store — the one backend of every
//! embedding table.
//!
//! The embedding tables are the only model state that grows with users (the
//! paper serves 81M of them); re-deserializing the full `BASMSAFE` envelope
//! on every warm start stops scaling long before that. This module stores a
//! table the way git stores objects: fixed-width records grouped into CRC'd
//! **pack shards** with a 256-way fan-out **index**, opened zero-copy via
//! `mmap` so a warm start touches no row until it is served. Like git's
//! loose and packed objects, one record model covers both kinds of storage:
//! a [`PackTable`] either lives in a directory or owns its records outright
//! (an owned table: one heap run, no files).
//!
//! ## On-disk layout (one directory per store)
//!
//! ```text
//! <dir>/MANIFEST        directory of tables: name, rows, dim, shard count
//! <dir>/<table>.idx     fan-out index: 256-entry cumulative row counts,
//!                       per-shard (start_row, n_rows, epoch, payload CRC32),
//!                       and the delta epoch — the index IS the commit point
//! <dir>/<table>.<s>.pack        shard s at epoch 0: header + n_rows
//! <dir>/<table>.<s>.e<E>.pack   fixed-width records (dim f32 weights ++
//!                               dim f32 Adagrad accumulators, little-
//!                               endian) + CRC32 trailer over the payload
//! <dir>/<table>.delta           append-only CRC'd chunks of (row, record)
//! <dir>/<table>.d<E>.delta      updates at delta epoch 0 / E, written by
//!                               online training between compactions
//! ```
//!
//! Every file is length-checked on open: trailing bytes past the last valid
//! section are rejected with [`PackError::TrailingBytes`] (a concatenated or
//! partially-overwritten file must never load as if clean). All writes go
//! through [`atomic_write`]: temp file in the same directory, fsync, rename,
//! parent-dir fsync — a crash mid-write can never clobber a valid
//! predecessor. Rewrites that span files (compaction, a fresh base over an
//! existing table) write every new file under the **next epoch** and commit
//! by atomically replacing the index; a crash anywhere in the window leaves
//! the old index pointing at untouched old-epoch files (DESIGN.md §13), and
//! stale epochs are swept opportunistically after the next successful
//! commit. The [`crash`] module's kill-point shim enumerates exactly these
//! windows in the crash-sweep suite.
//!
//! ## Read path
//!
//! [`PackTable::record`] serves a row from the **overlay** of rows written
//! since open, else from the **base** shard bytes (mmap'd when possible,
//! decoded to the heap when the platform or the alignment refuses the
//! mapping). There is no cache tier: the mapping already serves rows
//! zero-copy, so a gather is one overlay-index load plus a row copy — only
//! the copy when one base shard holds every record and no overlay row
//! shadows it.
//!
//! ## Write path: one copy-on-write rule
//!
//! A table **without a directory** updates its base records in place; it
//! has no overlay, no pending set and no files, so flushing and compaction
//! do nothing for it. A table **with a directory** never writes its base,
//! mapped or heap-decoded: [`PackTable::update_record`] updates the row's
//! overlay record in place (the first write copies it from the base) and
//! marks the row dirty.
//! [`PackTable::flush_deltas`] appends the dirty rows' records, ascending, to
//! the current delta file as a CRC'd chunk and fsyncs before returning —
//! once a flush returns `Ok`, a crash loses nothing (and on error the dirty
//! set is retained for retry, not dropped). [`PackTable::compact`] folds overlay + deltas back
//! into rebuilt shards under a new epoch and retires the delta file. Opening
//! a table replays its delta file into the overlay; an incomplete final
//! chunk — the signature of a crash mid-append — is dropped as a torn tail,
//! while a checksum mismatch on a complete chunk still fails loud.
//!
//! ## Contract
//!
//! Records round-trip f32 bits exactly, so a table is **bitwise
//! indistinguishable** before and after it is exported and attached to a
//! directory: training trajectories, predictions and serving exposures match
//! to the last ULP (pinned by the embedding-store and serving equivalence
//! tests). Mapped and heap-decoded bases serve the same bits and leave
//! byte-identical files behind (pinned by this module's unit tests).
//!
//! ## Example: write, reopen, update, replay
//!
//! ```
//! use basm_tensor::packstore::{write_table, PackTable, PackOptions, fresh_temp_dir};
//!
//! let dir = fresh_temp_dir();
//! let (rows, dim) = (4usize, 2usize);
//! let weights: Vec<f32> = (0..rows * dim).map(|i| i as f32).collect();
//! let accum = vec![0.5f32; rows * dim];
//! write_table(&dir, "emb", rows, dim, &weights, &accum, PackOptions::default()).unwrap();
//!
//! // A warm open validates headers and the index CRC but reads no payload.
//! let mut t = PackTable::open(&dir, "emb", rows, dim).unwrap();
//! assert_eq!(&t.record(3)[..dim], &weights[3 * dim..]); // weights half of row 3
//!
//! // Online update -> durable delta chunk -> replayed on the next open.
//! t.write_record(3, &[9.0, 9.0, 1.0, 1.0]);
//! t.flush_deltas().unwrap();
//! let reopened = PackTable::open(&dir, "emb", rows, dim).unwrap();
//! assert_eq!(&reopened.record(3)[..dim], &[9.0, 9.0]);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod crash;
mod dir;
mod format;
mod mapping;

pub use crash::{set_crash_plan, CrashPlan};
pub use dir::{
    auto_shard_rows, read_manifest, write_manifest, write_table, ManifestEntry, PackOptions,
    PackTable,
};
pub use format::{
    crc32, IndexFile, PackError, ShardHeader, ShardMeta, DELTA_CHUNK_MAGIC, FANOUT, IDX_MAGIC,
    PACK_MAGIC, PACK_VERSION, SHARD_HEADER_LEN,
};

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A row-id hasher: one multiplicative (Fibonacci) step. Row ids are dense
/// small integers, not attacker-chosen keys, so SipHash's flood resistance
/// buys nothing on the per-id overlay and gradient-dedupe probes.
#[derive(Default)]
pub(crate) struct RowHasher(u64);

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(self.0 as u32 ^ b as u32));
    }

    fn write_u32(&mut self, row: u32) {
        let h = (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Fold the well-mixed high half down: the table indexes by low bits.
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by embedding row id under [`RowHasher`].
pub(crate) type RowMap<V> = HashMap<u32, V, BuildHasherDefault<RowHasher>>;

static TEMP_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-unique token for temp names. Pid alone is not enough: pids are
/// recycled, so a *distinct* process reusing the pid of a crashed writer
/// would collide with its leftover `basm-pack-<pid>-<n>` names. Mix the
/// boot-relative start time (nanoseconds since the epoch) into the token so
/// two processes can only collide if they share pid **and** start instant.
fn process_token() -> u64 {
    static TOKEN: OnceLock<u64> = OnceLock::new();
    *TOKEN.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // splitmix64 over pid ^ start-time: short, well-mixed, stable.
        let mut z = nanos ^ ((std::process::id() as u64) << 32);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// A fresh, unique path under the system temp dir (not yet created), for a
/// pack directory or a journal. The caller owns it.
/// Unique across threads (counter) and across processes even under pid reuse
/// (the name embeds a per-process boot token, not the bare pid).
pub fn fresh_temp_dir() -> std::path::PathBuf {
    let n = TEMP_DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("basm-pack-{:016x}-{n}", process_token()))
}

/// Write `bytes` to `path` atomically **and durably**: temp file in the same
/// directory, `sync_all`, rename over the target, then fsync the parent
/// directory (without which the rename itself may not survive power loss). A
/// crash mid-write leaves either the old file or the new one — never a
/// truncated hybrid. The temp name is seeded by a process token + global
/// counter so concurrent writers cannot collide even across processes
/// sharing a recycled pid.
///
/// All three IO steps run through the [`crash`] kill-point shim; the
/// crash-sweep suite enumerates a kill at each and proves old-or-new
/// recovery. Cleanup of a torn temp file is best-effort and never masks the
/// original error (and is suppressed entirely after an injected kill — a
/// dead process cleans nothing).
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let n = TEMP_DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp_name = format!(
        ".{}.tmp-{:016x}-{n}",
        path.file_name().and_then(|f| f.to_str()).unwrap_or("packstore"),
        process_token(),
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        crash::write_file(&tmp, bytes)?;
        crash::rename(&tmp, path)?;
        match dir {
            Some(d) => crash::sync_dir(d),
            None => crash::sync_dir(Path::new(".")),
        }
    })();
    if let Err(e) = result {
        // Best-effort cleanup; the remove's own error (if any) must not
        // shadow the failure that got us here.
        let _ = crash::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = fresh_temp_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("file.bin");
        atomic_write(&target, b"first").unwrap();
        atomic_write(&target, b"second").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second");
        let others: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "file.bin")
            .collect();
        assert!(others.is_empty(), "temp residue: {others:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
