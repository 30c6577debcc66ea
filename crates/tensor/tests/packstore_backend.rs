//! Integration tests for the pack-file embedding store: property-based
//! round-trips (random tables → pack → mmap read == source bits), corruption
//! and truncation rejection, delta-append → reopen → compaction equivalence,
//! the overlay write path against a plain-`Vec` Adagrad oracle (delta bytes
//! and crash retry included), and training equivalence between a store with
//! no directory and the same store attached to a pack directory, through
//! the full [`EmbeddingStore`] lookup/backward/apply cycle.

use basm_tensor::nn::embedding::{EmbeddingStore, EmbeddingTable, TableId};
use basm_tensor::packstore::{
    self, crc32, set_crash_plan, write_manifest, write_table, CrashPlan, ManifestEntry,
    PackError, PackOptions, PackTable, DELTA_CHUNK_MAGIC,
};
use basm_tensor::{Graph, Prng, Tensor};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Deterministic pseudo-random f32s (plain LCG; includes negatives and
/// denormal-ish magnitudes, which must round-trip bit-exactly).
fn lcg_f32s(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i32 as f32) * 1.19e-7
        })
        .collect()
}

fn scratch_dir() -> std::path::PathBuf {
    let dir = packstore::fresh_temp_dir();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any table geometry and any shard split: every record read back through
    /// the pack (mmap'd when the platform allows) equals the source bits.
    #[test]
    fn pack_roundtrip_is_bit_exact(
        rows in 1usize..50,
        dim in 1usize..8,
        shard_rows in 1usize..16,
        seed in 0u64..1_000_000,
    ) {
        let dir = scratch_dir();
        let w = lcg_f32s(seed, rows * dim);
        let a = lcg_f32s(seed ^ 0xA5A5, rows * dim);
        let opts = PackOptions { shard_rows };
        write_table(&dir, "t", rows, dim, &w, &a, opts).unwrap();
        let table = PackTable::open(&dir, "t", rows, dim).unwrap();
        prop_assert!(table.verify().is_ok());
        for r in 0..rows as u32 {
            let rec = table.record(r);
            let base = r as usize * dim;
            for j in 0..dim {
                prop_assert_eq!(rec[j].to_bits(), w[base + j].to_bits());
                prop_assert_eq!(rec[dim + j].to_bits(), a[base + j].to_bits());
            }
        }
        let (sw, sa) = table.snapshot();
        prop_assert_eq!(
            sw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            w.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            sa.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        drop(table);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupted_and_truncated_packs_are_rejected() {
    let dir = scratch_dir();
    let rows = 40;
    let dim = 4;
    let w = lcg_f32s(1, rows * dim);
    let a = lcg_f32s(2, rows * dim);
    let opts = PackOptions { shard_rows: 16 };
    write_table(&dir, "t", rows, dim, &w, &a, opts).unwrap();

    // A payload bit flip passes the (lazy) open but fails verify().
    let shard0 = dir.join("t.0.pack");
    let pristine = std::fs::read(&shard0).unwrap();
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x20;
    std::fs::write(&shard0, &flipped).unwrap();
    let table = PackTable::open(&dir, "t", rows, dim).unwrap();
    assert!(
        matches!(table.verify(), Err(PackError::ChecksumMismatch { .. })),
        "bit flip must fail verification"
    );
    drop(table);

    // Truncation is caught at open (exact length check, no payload read).
    std::fs::write(&shard0, &pristine[..pristine.len() - 3]).unwrap();
    assert!(matches!(
        PackTable::open(&dir, "t", rows, dim),
        Err(PackError::Truncated(_))
    ));

    // Trailing garbage likewise.
    let mut padded = pristine.clone();
    padded.extend_from_slice(b"xx");
    std::fs::write(&shard0, &padded).unwrap();
    assert!(matches!(
        PackTable::open(&dir, "t", rows, dim),
        Err(PackError::TrailingBytes(_))
    ));
    std::fs::write(&shard0, &pristine).unwrap();

    // A flipped index byte fails its CRC before any shard is looked at.
    let idx = dir.join("t.idx");
    let ipristine = std::fs::read(&idx).unwrap();
    let mut iflipped = ipristine.clone();
    iflipped[30] ^= 0x04;
    std::fs::write(&idx, &iflipped).unwrap();
    assert!(matches!(
        PackTable::open(&dir, "t", rows, dim),
        Err(PackError::ChecksumMismatch { .. })
    ));
    std::fs::write(&idx, &ipristine).unwrap();

    // And the repaired directory opens + verifies clean again.
    let table = PackTable::open(&dir, "t", rows, dim).unwrap();
    assert!(table.verify().is_ok());
    drop(table);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delta_flush_reopen_and_compaction_are_equivalent() {
    let dir = scratch_dir();
    let rows = 30;
    let dim = 3;
    let w = lcg_f32s(7, rows * dim);
    let a = lcg_f32s(8, rows * dim);
    let opts = PackOptions { shard_rows: 8 };
    write_table(&dir, "t", rows, dim, &w, &a, opts).unwrap();

    // Write two generations of updates to overlapping rows; flush each.
    let mut table = PackTable::open(&dir, "t", rows, dim).unwrap();
    let gen1 = lcg_f32s(100, 2 * dim);
    let gen2 = lcg_f32s(200, 2 * dim);
    table.write_record(5, &gen1);
    table.write_record(17, &gen1);
    assert_eq!(table.flush_deltas().unwrap(), 2);
    table.write_record(5, &gen2); // overrides gen1 for row 5
    table.write_record(29, &gen2);
    assert_eq!(table.flush_deltas().unwrap(), 2);
    let expect = table.snapshot();
    drop(table);

    // Reopen: replay must apply chunks in order (later generations win).
    let mut reopened = PackTable::open(&dir, "t", rows, dim).unwrap();
    assert!(reopened.has_delta_file());
    assert_eq!(reopened.overlay_len(), 3, "rows 5, 17, 29 patched");
    let replayed = reopened.snapshot();
    assert_eq!(
        replayed.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        expect.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );

    // Compaction folds the overlay into the base, removes the delta file,
    // and changes no row.
    reopened.compact().unwrap();
    assert!(!reopened.has_delta_file());
    assert_eq!(reopened.overlay_len(), 0);
    assert!(reopened.verify().is_ok());
    let compacted = reopened.snapshot();
    assert_eq!(
        compacted.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        expect.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    drop(reopened);

    // A fresh open of the compacted pack still serves the same bits.
    let fresh = PackTable::open(&dir, "t", rows, dim).unwrap();
    assert_eq!(fresh.overlay_len(), 0);
    let cold = fresh.snapshot();
    assert_eq!(
        cold.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        expect.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    drop(fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_delta_tail_is_dropped_and_truncated() {
    let dir = scratch_dir();
    let rows = 10;
    let dim = 2;
    let opts = PackOptions { shard_rows: 0 };
    write_table(&dir, "t", rows, dim, &lcg_f32s(3, rows * dim), &lcg_f32s(4, rows * dim), opts)
        .unwrap();
    let mut table = PackTable::open(&dir, "t", rows, dim).unwrap();
    let rec = lcg_f32s(5, 2 * dim);
    table.write_record(3, &rec);
    table.flush_deltas().unwrap();
    drop(table);

    // A writer that died mid-append leaves an incomplete final chunk. That
    // is a crash artifact, not corruption: replay keeps the complete chunks,
    // drops the tail, and truncates the file back to valid bytes.
    let delta = dir.join("t.delta");
    let bytes = std::fs::read(&delta).unwrap();
    let valid_len = bytes.len();
    let mut torn = bytes.clone();
    torn.extend_from_slice(&bytes[..7]);
    std::fs::write(&delta, &torn).unwrap();
    let reopened = PackTable::open(&dir, "t", rows, dim).unwrap();
    assert_eq!(reopened.overlay_len(), 1, "complete chunk still replays");
    let bits: Vec<u32> = reopened.record(3).iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, rec.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    drop(reopened);
    assert_eq!(
        std::fs::metadata(&delta).unwrap().len(),
        valid_len as u64,
        "torn tail truncated so later appends continue from valid bytes"
    );

    // A CRC mismatch on a *complete* chunk cannot come from a torn append:
    // still strict rejection.
    let mut corrupt = std::fs::read(&delta).unwrap();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xff;
    std::fs::write(&delta, &corrupt).unwrap();
    assert!(matches!(
        PackTable::open(&dir, "t", rows, dim),
        Err(PackError::ChecksumMismatch { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bytes of every delta file in `dir` (a table has at most one live
/// delta file; compaction retires it and the next flush starts a new epoch's).
fn delta_bytes(dir: &std::path::Path) -> Vec<u8> {
    let paths = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    let deltas = paths.filter(|p| p.extension().is_some_and(|x| x == "delta"));
    deltas.flat_map(|p| std::fs::read(p).unwrap()).collect()
}

/// The delta chunk a flush of `rows` must append: magic, count, CRC, then
/// each row id and its current record, rows ascending.
fn expected_chunk(table: &EmbeddingTable, rows: &BTreeSet<u32>) -> Vec<u8> {
    let mut body = Vec::new();
    for &r in rows {
        body.extend_from_slice(&(r as u64).to_le_bytes());
        for v in table.row(r).iter().chain(table.accum_row(r)) {
            body.extend_from_slice(&v.to_le_bytes());
        }
    }
    let mut chunk = DELTA_CHUNK_MAGIC.to_vec();
    chunk.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    chunk.extend_from_slice(&crc32(&body).to_le_bytes());
    chunk.extend_from_slice(&body);
    chunk
}

fn table_bits(t: &EmbeddingTable) -> Vec<u32> {
    let (w, a) = t.snapshot();
    w.iter().chain(&a).map(|v| v.to_bits()).collect()
}

/// The sparse Adagrad step written out on plain `Vec`s: sum each distinct
/// nonzero id's gradient rows in order from `0.0`, then per coordinate
/// `a += g²; w -= lr·g / (√a + eps)`.
struct VecAdagrad {
    dim: usize,
    weights: Vec<f32>,
    accum: Vec<f32>,
}

impl VecAdagrad {
    fn step(&mut self, ids: &[u32], grad: &Tensor, lr: f32, eps: f32) {
        let dim = self.dim;
        let mut order = Vec::new();
        let mut sums: HashMap<u32, Vec<f32>> = HashMap::new();
        for (&id, g) in ids.iter().zip(grad.data().chunks_exact(dim)) {
            if id == 0 {
                continue;
            }
            let sum = sums.entry(id).or_insert_with(|| {
                order.push(id);
                vec![0.0; dim]
            });
            sum.iter_mut().zip(g).for_each(|(s, &g)| *s += g);
        }
        for id in order {
            let at = id as usize * dim;
            for (j, &g) in sums[&id].iter().enumerate() {
                let a = &mut self.accum[at + j];
                *a += g * g;
                self.weights[at + j] -= lr * g / (a.sqrt() + eps);
            }
        }
    }

    fn bits(&self) -> Vec<u32> {
        self.weights.iter().chain(&self.accum).map(|v| v.to_bits()).collect()
    }
}

/// One sparse update through the store: look `ids` up and back-propagate
/// `sum(e ⊙ grad)`, so the leaf's gradient is exactly `grad`.
fn grad_step(store: &mut EmbeddingStore, t: TableId, ids: &[u32], grad: &Tensor) {
    let mut g = Graph::new();
    let e = store.lookup(&mut g, t, ids);
    let c = g.input(grad.clone());
    let p = g.mul(e, c);
    let loss = g.sum_all(p);
    g.backward(loss);
    store.apply_grads(&g, 0.05);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The overlay write path of a one-table store attached to a pack
    /// directory, against a plain-`Vec` Adagrad oracle, over a random
    /// sequence of sparse updates (duplicate ids and padding included),
    /// `flush_deltas` (some killed by the crash plan first), `compact_packs`
    /// and flush + reopen: after every op the table holds the oracle's bits,
    /// every flush appends exactly the chunk encoded from the dirty rows'
    /// overlay records in ascending order, and a killed flush keeps the
    /// dirty set for the retry.
    #[test]
    fn pack_write_path_matches_ram_twin(
        ops in prop::collection::vec(
            (0u32..6, prop::collection::vec(0u32..24, 1..9), 0u64..1_000_000),
            1..28,
        ),
    ) {
        let (rows, dim) = (24usize, 3usize);
        let mut pack = EmbeddingStore::new();
        let t = pack.add_table(&mut Prng::seeded(3), "t", rows, dim, 0.1);
        let (weights, accum) = pack.table(t).snapshot();
        let mut oracle = VecAdagrad { dim, weights, accum };
        // Three 8-row shards, so updates and flushes cross shard bounds.
        let dir = scratch_dir();
        let opts = PackOptions { shard_rows: 8 };
        let (w, a) = (&oracle.weights, &oracle.accum);
        let metas = write_table(&dir, "t", rows, dim, w, a, opts).unwrap();
        let entry = ManifestEntry {
            name: "t".into(),
            rows: rows as u64,
            dim: dim as u32,
            n_shards: metas.len() as u32,
        };
        write_manifest(&dir, &[entry]).unwrap();
        pack.attach_pack_dir(&dir).unwrap();
        let mut dirty = BTreeSet::new();
        for (kind, ids, seed) in ops {
            match kind {
                0..=2 => {
                    let grad = Tensor::from_vec(ids.len(), dim, lcg_f32s(seed, ids.len() * dim));
                    oracle.step(&ids, &grad, 0.05, pack.eps);
                    grad_step(&mut pack, t, &ids, &grad);
                    dirty.extend(ids.iter().copied().filter(|&id| id != 0));
                }
                3 | 4 => {
                    let before = delta_bytes(&dir);
                    // An empty flush does no IO, so there is nothing to kill.
                    if kind == 4 && !dirty.is_empty() {
                        let tear_bytes = seed as usize % 40;
                        set_crash_plan(Some(CrashPlan { kill_at_op: 0, tear_bytes }));
                        prop_assert!(pack.flush_deltas().is_err());
                        set_crash_plan(None);
                        prop_assert_eq!(pack.table(t).pack().pending_len(), dirty.len());
                    }
                    let chunk = expected_chunk(pack.table(t), &dirty);
                    let n = pack.flush_deltas().unwrap();
                    prop_assert_eq!(n, dirty.len());
                    let after = delta_bytes(&dir);
                    prop_assert_eq!(&after[..before.len()], &before[..]);
                    let appended = if dirty.is_empty() { Vec::new() } else { chunk };
                    prop_assert_eq!(&after[before.len()..], &appended[..]);
                    dirty.clear();
                }
                _ if seed % 2 == 0 => {
                    pack.compact_packs().unwrap();
                    prop_assert!(delta_bytes(&dir).is_empty());
                    dirty.clear();
                }
                _ => {
                    pack.flush_deltas().unwrap();
                    dirty.clear();
                    pack.attach_pack_dir(&dir).unwrap();
                }
            }
            prop_assert_eq!(pack.table(t).pack().pending_len(), dirty.len());
            prop_assert_eq!(table_bits(pack.table(t)), oracle.bits());
        }
        pack.table(t).pack().verify().unwrap();
        drop(pack);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Run a few lookup → backward → apply cycles through a full
/// [`EmbeddingStore`] — with no directory, or first exported to one and
/// attached — and return every table row's weight and accumulator bits.
fn train_store_and_dump(attached: bool) -> Vec<u32> {
    let mut rng = Prng::seeded(42);
    let mut store = EmbeddingStore::new();
    let user = store.add_table(&mut rng, "user", 60, 5, 0.05);
    let item = store.add_table(&mut rng, "item", 40, 3, 0.05);
    let dir = packstore::fresh_temp_dir();
    if attached {
        store.export_pack_dir(&dir).unwrap();
        store.attach_pack_dir(&dir).unwrap();
    }
    assert!(store.tables().all(|t| t.pack().dir().is_some() == attached));

    for step in 0..12u32 {
        let mut g = Graph::new();
        let ids_u: Vec<u32> = (0..6).map(|i| 1 + (step * 7 + i * 3) % 59).collect();
        let ids_i: Vec<u32> = (0..6).map(|i| 1 + (step * 5 + i) % 39).collect();
        let eu = store.lookup(&mut g, user, &ids_u);
        let ei = store.lookup(&mut g, item, &ids_i);
        let su = g.square(eu);
        let si = g.square(ei);
        let lu = g.mean_all(su);
        let li = g.mean_all(si);
        let loss = g.add(lu, li);
        g.backward(loss);
        store.apply_grads(&g, 0.1);
    }

    let mut bits = Vec::new();
    for (tid, rows) in [(user, 60u32), (item, 40)] {
        for r in 0..rows {
            bits.extend(store.table(tid).row(r).iter().map(|v| v.to_bits()));
            bits.extend(store.table(tid).accum_row(r).iter().map(|v| v.to_bits()));
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    bits
}

/// The headline contract: the same training run on a store with no
/// directory (updated in place) and on the same store attached to a pack
/// directory (updated through the overlay) ends in bit-identical weights
/// *and* Adagrad state.
#[test]
fn training_is_bitwise_identical_across_backends() {
    let owned = train_store_and_dump(false);
    let attached = train_store_and_dump(true);
    assert_eq!(owned, attached, "the attached store diverged from the owned one");
}

/// Store-level durability cycle: attach a pack directory, train, flush,
/// export elsewhere, attach from a second store, and confirm the attached
/// rows match.
#[test]
fn export_attach_after_training_round_trips() {
    let mut rng = Prng::seeded(11);
    let mut store = EmbeddingStore::new();
    let tid = store.add_table(&mut rng, "t", 25, 4, 0.05);
    let home = packstore::fresh_temp_dir();
    store.export_pack_dir(&home).unwrap();
    store.attach_pack_dir(&home).unwrap();

    let mut g = Graph::new();
    let e = store.lookup(&mut g, tid, &[2, 3, 5, 7]);
    let s = g.square(e);
    let loss = g.mean_all(s);
    g.backward(loss);
    store.apply_grads(&g, 0.5);
    assert!(store.flush_deltas().unwrap() > 0);

    let out = packstore::fresh_temp_dir();
    store.export_pack_dir(&out).unwrap();

    let mut rng2 = Prng::seeded(77);
    let mut other = EmbeddingStore::new();
    let tid2 = other.add_table(&mut rng2, "t", 25, 4, 0.05);
    other.attach_pack_dir(&out).unwrap();
    for r in 0..25u32 {
        assert_eq!(
            store.table(tid).row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            other.table(tid2).row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "row {r}"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
    let _ = std::fs::remove_dir_all(&home);
}
