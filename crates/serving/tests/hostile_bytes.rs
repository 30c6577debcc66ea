//! Hostile bytes on disk: every decoder of every on-disk format returns a
//! typed [`PackError`] or the exact original — never a panic, and never an
//! allocation sized by a length field the bytes cannot back.
//!
//! The named tests pin the length fields that once took the process down (an
//! abort on a multi-gigabyte `Vec::with_capacity`, or a multiply overflow);
//! the proptest mutation-fuzzes every format with bit flips, truncation,
//! appended bytes, and length fields overwritten with their CRC32 recomputed.

use basm_core::basm::{Basm, BasmConfig};
use basm_core::checkpoint::{load_model_dir, save_model_dir};
use basm_core::model::{predict, train_step, CtrModel};
use basm_data::{generate_dataset, Batch, BehaviorEvent, WorldConfig};
use basm_serving::{fresh_wal_path, Journal, WalRecord, WalSnapshot};
use basm_tensor::optim::AdagradDecay;
use basm_tensor::packstore::format::{crc32, put_crc, put_u32, put_u64, Cursor, PackError};
use basm_tensor::packstore::{fresh_temp_dir, read_manifest, IndexFile, FANOUT, IDX_MAGIC};
use basm_tensor::serialize::ParsedCheckpoint;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The typed decoder error an `io::Error` carries, if any.
fn typed(e: std::io::Error) -> Option<PackError> {
    if e.kind() != std::io::ErrorKind::InvalidData {
        return None;
    }
    e.into_inner()?.downcast::<PackError>().ok().map(|e| *e)
}

/// A WAL file holding one CRC-valid frame.
fn wal_with_frame(tag: u8, payload: &[u8]) -> PathBuf {
    let mut bytes = b"BASMWAL1".to_vec();
    bytes.push(tag);
    put_u32(&mut bytes, payload.len() as u32);
    bytes.extend_from_slice(payload);
    put_crc(&mut bytes, 8);
    let path = fresh_wal_path();
    std::fs::write(&path, bytes).unwrap();
    path
}

fn recover_error(path: &Path) -> PackError {
    let err = Journal::recover(path).err().expect("a hostile WAL must not recover");
    let _ = std::fs::remove_file(path);
    typed(err).expect("typed")
}

#[test]
fn wal_exposures_claiming_u32_max_lists_is_truncated() {
    let path = wal_with_frame(2, &u32::MAX.to_le_bytes());
    assert!(matches!(recover_error(&path), PackError::Truncated(_)));
}

#[test]
fn wal_snapshot_claiming_u32_max_users_is_truncated() {
    let mut payload = Vec::new();
    put_u32(&mut payload, u32::MAX);
    put_u32(&mut payload, 0);
    put_u64(&mut payload, 0);
    let path = wal_with_frame(4, &payload);
    assert!(matches!(recover_error(&path), PackError::Truncated(_)));
}

#[test]
fn dense_f32_count_past_usize_is_truncated() {
    let mut b = b"BASMCKPT".to_vec();
    for v in [3, 1, 1] {
        put_u32(&mut b, v); // version, one parameter, a 1-byte name
    }
    b.push(b'w');
    put_u32(&mut b, 1);
    put_u32(&mut b, 1);
    put_u64(&mut b, (1 << 62) + 1);
    b.extend_from_slice(&[0; 16]);
    let err = ParsedCheckpoint::parse(&mut Cursor::new(&b, "dense")).err();
    assert_eq!(err, Some(PackError::Truncated("dense".into())));
}

#[test]
fn idx_claiming_u32_max_shards_is_truncated() {
    let mut b = IDX_MAGIC.to_vec();
    put_u32(&mut b, 2);
    put_u64(&mut b, 0);
    put_u32(&mut b, 1);
    put_u64(&mut b, 0);
    put_u32(&mut b, u32::MAX);
    b.resize(b.len() + FANOUT * 8, 0);
    put_crc(&mut b, 0);
    assert_eq!(IndexFile::decode(&b, "i").err(), Some(PackError::Truncated("i".into())));
}

#[test]
fn manifest_claiming_u32_max_entries_is_truncated() {
    let mut b = b"BASMPDIR".to_vec();
    put_u32(&mut b, 2);
    put_u32(&mut b, u32::MAX);
    put_crc(&mut b, 0);
    let dir = fresh_temp_dir();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("MANIFEST"), b).unwrap();
    assert!(matches!(read_manifest(&dir), Err(PackError::Truncated(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- mutation fuzz ---------------------------------------------------------

/// One file under mutation: where it lives, its pristine bytes, its length
/// fields as (offset, width), and the CRC32s covering them as (body start,
/// body end, where the CRC is stored).
struct Target {
    path: PathBuf,
    bytes: Vec<u8>,
    lens: Vec<(usize, usize)>,
    crcs: Vec<(usize, usize, usize)>,
}

impl Target {
    fn new(path: PathBuf, lens: Vec<(usize, usize)>, crcs: Vec<(usize, usize, usize)>) -> Self {
        let bytes = std::fs::read(&path).unwrap();
        Self { path, bytes, lens, crcs }
    }

    /// A file whose last four bytes are the CRC32 of the `from..` before them.
    fn trailed(path: PathBuf, from: usize, lens: Vec<(usize, usize)>) -> Self {
        let end = std::fs::metadata(&path).unwrap().len() as usize - 4;
        Self::new(path, lens, vec![(from, end, end)])
    }

    /// The pristine bytes with one mutation applied: `kind` picks a bit
    /// flip, a truncation, appended bytes, or a length field overwritten
    /// (with every covering CRC32 recomputed); `a` and `b` place it. The
    /// flag says whether only the exact original may decode: a length field
    /// rewritten to a small value under a fresh CRC32 can spell another
    /// well-formed file, which may decode to whatever it says.
    fn mutate(&self, kind: u8, a: u64, b: u64) -> (Vec<u8>, bool) {
        let mut bytes = self.bytes.clone();
        let n = bytes.len();
        match kind {
            0 => bytes[a as usize % n] ^= 1 << (b % 8),
            1 => bytes.truncate(a as usize % n),
            2 => bytes.extend((0..1 + b % 40).map(|i| (a >> (i % 8 * 8)) as u8)),
            _ => {
                let (at, width) = self.lens[a as usize % self.lens.len()];
                let huge = if width == 8 { (1 << 62) + 1 } else { u32::MAX as u64 - b % 64 };
                let v = [b % 64, huge][(a >> 32) as usize % 2];
                bytes[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                for &(start, end, at) in &self.crcs {
                    let crc = crc32(&bytes[start..end]);
                    bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
                }
                return (bytes, v == huge);
            }
        }
        (bytes, true)
    }
}

/// Walks a file with the codec's cursor, noting where its length fields sit.
struct Walk<'a> {
    c: Cursor<'a>,
    lens: Vec<(usize, usize)>,
}

impl<'a> Walk<'a> {
    fn new(bytes: &'a [u8], skip: usize) -> Self {
        let mut c = Cursor::new(bytes, "walk");
        c.take(skip).unwrap();
        Self { c, lens: Vec::new() }
    }

    fn len(&mut self, width: usize) -> usize {
        self.lens.push((self.c.position(), width));
        if width == 4 {
            self.c.u32().unwrap() as usize
        } else {
            self.c.u64().unwrap() as usize
        }
    }

    fn skip(&mut self, n: usize) {
        self.c.take(n).unwrap();
    }
}

/// Every on-disk format: a checkpoint directory with one delta flush
/// (`dense.ckpt`, `MANIFEST`, and one table's `.idx`, shard and `PDLT`
/// file) and a WAL holding one record of every tag.
struct Fixture {
    dir: PathBuf,
    targets: [Target; 6],
    batch: Batch,
    /// What [`load_bits`] reads back, pristine and without the delta file.
    loaded: Vec<u32>,
    undelta: Vec<u32>,
    records: Vec<WalRecord>,
}

/// Load the checkpoint into a fresh model, verify every pack table, and
/// return the bits of every table record and of a batch's predictions.
fn load_bits(dir: &Path, batch: &Batch) -> Result<Vec<u32>, PackError> {
    let cfg = WorldConfig::tiny();
    let mut model = Basm::new(&cfg, BasmConfig { seed: 9, ..BasmConfig::default() });
    load_model_dir(&mut model, dir).map_err(|e| typed(e).expect("typed checkpoint error"))?;
    let mut bits = Vec::new();
    for e in model.embedders() {
        for t in e.emb.tables() {
            t.pack().verify()?;
            let (w, a) = t.snapshot();
            bits.extend(w.iter().chain(&a).map(|v| v.to_bits()));
        }
    }
    bits.extend(predict(&mut model, batch).iter().map(|p| p.to_bits()));
    Ok(bits)
}

fn checkpoint_targets(dir: &Path) -> [Target; 5] {
    let v1 = dir.join("v1");
    let bytes = std::fs::read(v1.join("dense.ckpt")).unwrap();
    // Envelope: payload length. Payload: parameter count; each parameter's
    // name length, rows, cols and f32 count; BN layer count and widths.
    let mut w = Walk::new(&bytes, 20 + 12);
    for _ in 0..w.len(4) {
        let name = w.len(4);
        w.skip(name);
        w.len(4);
        w.len(4);
        let n = w.len(8);
        w.skip(4 * n);
    }
    for _ in 0..w.len(4) {
        let dim = w.len(4);
        w.skip(8 * dim);
    }
    let dense_lens = [(12, 8)].into_iter().chain(w.lens).collect();
    let bytes = std::fs::read(v1.join("emb/MANIFEST")).unwrap();
    // Entry count; each entry's name length, rows, dim and shard count.
    let mut w = Walk::new(&bytes, 12);
    for _ in 0..w.len(4) {
        let name = w.len(4);
        w.skip(name);
        w.len(8);
        w.len(4);
        w.len(4);
    }
    let delta = v1.join("emb/city.delta");
    let delta_len = std::fs::metadata(&delta).unwrap().len() as usize;
    [
        Target::trailed(v1.join("dense.ckpt"), 20, dense_lens),
        Target::trailed(v1.join("emb/MANIFEST"), 0, w.lens),
        // Rows, dim, shard count and the one shard's row count.
        Target::trailed(
            v1.join("emb/city.idx"),
            0,
            vec![(12, 8), (20, 4), (32, 4), (44 + FANOUT * 8, 8)],
        ),
        // The header's row count and dim; no CRC32 covers the header.
        Target::new(v1.join("emb/city.0.pack"), vec![(32, 8), (40, 4)], vec![]),
        Target::new(delta, vec![(4, 4)], vec![(12, delta_len, 8)]),
    ]
}

fn wal_target(records: &[WalRecord]) -> Target {
    let path = fresh_wal_path();
    let j = Journal::create(&path).unwrap();
    records.iter().for_each(|r| j.append(r).unwrap());
    j.seal().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // Every frame's length, and the counts leading each payload: the
    // Exposures list count and first list's length, the Seed's event count,
    // and the Snapshot's user and item counts and first history's length.
    let (mut lens, mut crcs, mut at) = (Vec::new(), Vec::new(), 8);
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
        let counts: &[usize] = match bytes[at] {
            2 => &[0, 4],
            3 => &[4],
            4 => &[0, 4, 32],
            _ => &[],
        };
        lens.push((at + 1, 4));
        lens.extend(counts.iter().map(|c| (at + 5 + c, 4)));
        crcs.push((at, at + 5 + len, at + 5 + len));
        at += 9 + len;
    }
    Target::new(path, lens, crcs)
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let mut model = Basm::new(&cfg, BasmConfig::default());
        let dir = fresh_temp_dir();
        save_model_dir(&mut model, &dir).unwrap();
        load_model_dir(&mut model, &dir).unwrap();
        let mut opt = AdagradDecay::paper_default();
        train_step(
            &mut model,
            &data.dataset.batch(&(0..32).collect::<Vec<_>>()),
            &mut opt,
            0.05,
            None,
        );
        model.embedders().into_iter().for_each(|e| assert!(e.emb.flush_deltas().unwrap() > 0));
        drop(model);
        let ev =
            |item| BehaviorEvent { item, cat: 2, brand: 3, tp: 1, hour: 12, city: 4, gx: 5, gy: 6 };
        let records = vec![
            WalRecord::Click { uid: 7, ordered: true, event: ev(9) },
            WalRecord::Exposures { lists: vec![vec![1, 2, 3], vec![], vec![4]] },
            WalRecord::Seed { uid: 1, events: vec![ev(1), ev(2)] },
            WalRecord::Snapshot(Box::new(WalSnapshot {
                clicks_version: 5,
                history_version: vec![1, 0],
                history: vec![vec![ev(1)], vec![]],
                user_clicks: vec![1, 0],
                user_orders: vec![0, 0],
                item_clicks: vec![0, 1, 0],
                item_exposures: vec![2, 0, 0],
            })),
        ];
        let [dense, manifest, idx, shard, delta] = checkpoint_targets(&dir);
        let targets = [dense, manifest, idx, shard, delta, wal_target(&records)];
        let batch = data.dataset.batch(&(32..40).collect::<Vec<_>>());
        let loaded = load_bits(&dir, &batch).unwrap();
        std::fs::write(&targets[4].path, []).unwrap();
        let undelta = load_bits(&dir, &batch).unwrap();
        std::fs::write(&targets[4].path, &targets[4].bytes).unwrap();
        assert_ne!(loaded, undelta, "the delta file must change what loads");
        let fx = Fixture { dir, targets, batch, loaded, undelta, records };
        for t in 0..6 {
            assert_eq!(decode(&fx, t, &fx.targets[t].bytes), Ok(true), "pristine target {t}");
        }
        let (_, recs, stats) = Journal::recover(&fx.targets[5].path).unwrap();
        assert!(recs == fx.records && stats.sealed, "the pristine WAL recovers whole");
        fx
    })
}

/// Decode `bytes` as target `t` of the fixture: `Ok(true)` for the exact
/// original (for the append-only formats, or a prefix of it, as a torn tail
/// recovers), `Ok(false)` for anything else that decoded, `Err` for a typed
/// error. A panic fails the test on its own.
fn decode(fx: &Fixture, t: usize, bytes: &[u8]) -> Result<bool, PackError> {
    let target = &fx.targets[t];
    std::fs::write(&target.path, bytes).unwrap();
    let verdict = match t {
        0..=3 => load_bits(&fx.dir, &fx.batch).map(|bits| bits == fx.loaded),
        4 => load_bits(&fx.dir, &fx.batch).map(|bits| bits == fx.loaded || bits == fx.undelta),
        _ => match Journal::recover(&target.path) {
            Ok((_, recs, _)) => Ok(fx.records.starts_with(&recs)),
            Err(e) => Err(typed(e).expect("typed WAL error")),
        },
    };
    std::fs::write(&target.path, &target.bytes).unwrap();
    verdict
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(720))]

    #[test]
    fn mutated_files_decode_exactly_or_fail_typed(
        t in 0usize..6, kind in 0u8..4, a in 0u64..u64::MAX, b in 0u64..u64::MAX,
    ) {
        let fx = fixture();
        let (bytes, exact) = fx.targets[t].mutate(kind, a, b);
        let verdict = decode(fx, t, &bytes);
        prop_assert!(!exact || verdict != Ok(false), "target {t}, mutation {kind} ({a:#x}, {b:#x})");
    }
}
