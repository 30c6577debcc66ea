//! Sparse embedding tables with per-row Adagrad state.
//!
//! Industrial CTR systems keep embedding parameters out of the dense
//! optimizer: lookups touch a handful of rows per batch and updates are
//! scatter-applied with per-coordinate Adagrad. We mirror that split —
//! [`EmbeddingStore::lookup_concat`] copies several tables' rows side by side
//! into one gradient-requiring *leaf* on the autograd tape, already in its
//! consumer's shape, and records which rows landed in which columns; after
//! `backward`, [`EmbeddingStore::apply_grads`] drains those records and
//! applies sparse Adagrad updates, reading each part's gradient as a strided
//! column slice. The leaf is bitwise the `lookup → concat_cols → reshape`
//! composite it replaced (pinned by `tests/lookup_concat.rs`).
//!
//! Row 0 of every table is the padding/OOV row: it stays frozen at zero so
//! padded sequence positions contribute nothing even without masking.
//!
//! ## One backend
//!
//! Every table's records — `dim` weights then `dim` Adagrad accumulators per
//! row — live in a [`PackTable`] (see [`crate::packstore`]), under one
//! copy-on-write rule:
//!
//! * **A table with a directory** (attached with
//!   [`EmbeddingStore::attach_pack_dir`]) never writes its base, mapped or
//!   heap-decoded: an update rewrites the row's overlay record in place and
//!   marks it for the next [`EmbeddingStore::flush_deltas`].
//! * **A table without a directory** (fresh from [`EmbeddingTable::new`])
//!   owns one heap run of records and updates them in place; it has no
//!   overlay, no pending set, and flushing or compacting it does nothing.
//!
//! Records round-trip f32 bits exactly and both kinds run the same update
//! arithmetic in the same order, so whether a table has a directory is
//! invisible to results — training trajectories and predictions are bitwise
//! identical before and after `export_pack_dir` + `attach_pack_dir` (pinned
//! by `tests/packstore_backend.rs`, `tests/lookup_concat.rs` and the serving
//! equivalence suite).

use crate::graph::{Graph, Var};
use crate::packstore::{
    self, write_manifest, ManifestEntry, PackError, PackOptions, PackTable, RowMap,
};
use crate::rng::Prng;
use crate::tensor::Tensor;
use std::collections::HashMap;
use std::path::Path;

/// Identifier of a table inside an [`EmbeddingStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(usize);

/// A single embedding matrix `[rows, dim]` with Adagrad accumulators.
pub struct EmbeddingTable {
    pack: PackTable,
}

impl EmbeddingTable {
    /// Create a table with `N(0, init_std²)` entries; row 0 is zeroed
    /// (padding). The table has no directory. Weights are drawn row-major,
    /// accumulators start at zero.
    pub fn new(rng: &mut Prng, name: impl Into<String>, rows: usize, dim: usize, init_std: f32) -> Self {
        assert!(rows >= 1 && dim >= 1, "EmbeddingTable: empty shape");
        let mut records = vec![0.0; rows * 2 * dim];
        for rec in records.chunks_exact_mut(2 * dim) {
            rec[..dim].iter_mut().for_each(|w| *w = rng.normal() * init_std);
        }
        records[..dim].iter_mut().for_each(|w| *w = 0.0);
        Self { pack: PackTable::owned(&name.into(), rows, dim, records) }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        self.pack.name()
    }

    /// Vocabulary size (including the padding row).
    pub fn rows(&self) -> usize {
        self.pack.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.pack.dim()
    }

    /// The pack table holding this table's records.
    pub fn pack(&self) -> &PackTable {
        &self.pack
    }

    fn check_id(&self, id: u32) {
        assert!(
            (id as usize) < self.rows(),
            "embedding id {id} out of {} rows of {}",
            self.rows(),
            self.name()
        );
    }

    /// The embedding of a single id.
    pub fn row(&self, id: u32) -> &[f32] {
        self.check_id(id);
        &self.pack.record(id)[..self.dim()]
    }

    /// The Adagrad accumulator row of a single id.
    pub fn accum_row(&self, id: u32) -> &[f32] {
        self.check_id(id);
        &self.pack.record(id)[self.dim()..]
    }

    /// Gather `ids` into a dense `[ids.len(), dim]` tensor.
    pub fn gather(&self, ids: &[u32]) -> Tensor {
        // Every row is overwritten below, so pooled scratch needs no memset.
        let mut out = Tensor::scratch_pooled(ids.len(), self.dim());
        self.gather_into(ids, out.data_mut(), self.dim(), 0);
        out
    }

    /// Copy the row of `ids[r]` into `out[r*stride + col ..][..dim]` for
    /// every `r`: the gather behind every lookup.
    fn gather_into(&self, ids: &[u32], out: &mut [f32], stride: usize, col: usize) {
        let dim = self.dim();
        let dsts = out.chunks_exact_mut(stride).map(|r| &mut r[col..col + dim]);
        let flat = self.pack.flat_records();
        for (dst, &id) in dsts.zip(ids) {
            self.check_id(id);
            let rec = match flat {
                Some(records) => &records[id as usize * 2 * dim..],
                None => self.pack.record(id),
            };
            dst.copy_from_slice(&rec[..dim]);
        }
    }

    /// Scatter-apply Adagrad updates: `grad` is `[ids.len(), dim]`. Duplicate
    /// ids are accumulated before the update (one Adagrad step per distinct
    /// row per call). Row 0 is skipped (frozen padding).
    pub fn apply_grad(&mut self, ids: &[u32], grad: &Tensor, lr: f32, eps: f32) {
        assert_eq!(grad.shape(), (ids.len(), self.dim()), "apply_grad shape mismatch");
        self.apply_grad_cols(ids, grad.data(), self.dim(), 0, lr, eps);
    }

    /// [`EmbeddingTable::apply_grad`] with `ids[r]`'s gradient read from
    /// `grad[r*stride + col ..][..dim]` — a column slice of a fused leaf's
    /// gradient. Each id's rows are summed in ascending row order starting
    /// from `0.0`, ids in first-seen order.
    fn apply_grad_cols(
        &mut self,
        ids: &[u32],
        grad: &[f32],
        stride: usize,
        col: usize,
        lr: f32,
        eps: f32,
    ) {
        let dim = self.dim();
        assert_eq!(grad.len(), ids.len() * stride, "apply_grad shape mismatch");
        assert!(col + dim <= stride, "apply_grad: columns out of the gradient row");
        let mut slot_of: RowMap<usize> = RowMap::default();
        let mut order: Vec<u32> = Vec::new();
        let mut sums: Vec<f32> = Vec::new();
        for (&id, g) in ids.iter().zip(grad.chunks_exact(stride)) {
            if id == 0 {
                continue;
            }
            self.check_id(id);
            let s = *slot_of.entry(id).or_insert_with(|| {
                order.push(id);
                sums.resize(sums.len() + dim, 0.0);
                order.len() - 1
            });
            for (a, &g) in sums[s * dim..(s + 1) * dim].iter_mut().zip(&g[col..col + dim]) {
                *a += g;
            }
        }
        // Distinct rows update independent records, so the order cannot
        // change the final state.
        for (&id, g) in order.iter().zip(sums.chunks_exact(dim)) {
            self.pack.update_record(id, |rec| {
                let (w, a) = rec.split_at_mut(dim);
                adagrad(w, a, g, lr, eps);
            });
        }
    }

    /// Trainable scalars.
    pub fn num_params(&self) -> usize {
        self.rows() * self.dim()
    }

    /// Heap bytes held by weights + optimizer state. A mapped base counts
    /// nothing — its pages belong to the OS page cache.
    pub fn memory_bytes(&self) -> usize {
        self.pack.resident_bytes()
    }

    /// Flat copies of the weights and accumulators.
    pub fn snapshot(&self) -> (Vec<f32>, Vec<f32>) {
        self.pack.snapshot()
    }

    /// Swap this table's records for an existing pack directory (warm
    /// start): opens the shards zero-copy and replays deltas, discarding the
    /// current values without reading a single record.
    pub fn attach_pack(&mut self, dir: &Path) -> Result<(), PackError> {
        self.pack = PackTable::open(dir, self.name(), self.rows(), self.dim())?;
        Ok(())
    }
}

/// Per-coordinate sparse Adagrad on one row.
fn adagrad(w: &mut [f32], acc: &mut [f32], g: &[f32], lr: f32, eps: f32) {
    for ((w, a), &g) in w.iter_mut().zip(acc.iter_mut()).zip(g) {
        *a += g * g;
        *w -= lr * g / (a.sqrt() + eps);
    }
}

/// One table's part of a recorded lookup: its rows sit in columns
/// `col..col + dim` of each `stride`-wide id row of `var`'s value.
struct PendingLookup {
    table: TableId,
    ids: Vec<u32>,
    var: Var,
    col: usize,
    stride: usize,
}

/// A set of named embedding tables plus the lookup journal that connects them
/// to an autograd [`Graph`].
pub struct EmbeddingStore {
    tables: Vec<EmbeddingTable>,
    by_name: HashMap<String, TableId>,
    journal: Vec<PendingLookup>,
    /// Sparse-Adagrad epsilon shared by all tables.
    pub eps: f32,
}

impl Default for EmbeddingStore {
    fn default() -> Self {
        Self::new()
    }
}

impl EmbeddingStore {
    /// An empty store.
    pub fn new() -> Self {
        Self { tables: Vec::new(), by_name: HashMap::new(), journal: Vec::new(), eps: 1e-6 }
    }

    /// Register a table; names must be unique. The table has no directory
    /// until [`EmbeddingStore::attach_pack_dir`].
    pub fn add_table(
        &mut self,
        rng: &mut Prng,
        name: impl Into<String>,
        rows: usize,
        dim: usize,
        init_std: f32,
    ) -> TableId {
        let name = name.into();
        assert!(!self.by_name.contains_key(&name), "duplicate table {name:?}");
        let id = TableId(self.tables.len());
        self.by_name.insert(name.clone(), id);
        self.tables.push(EmbeddingTable::new(rng, name, rows, dim, init_std));
        id
    }

    /// The table behind an id.
    pub fn table(&self, id: TableId) -> &EmbeddingTable {
        &self.tables[id.0]
    }

    /// Find a table by name.
    pub fn id_of(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).copied()
    }

    /// Gather `ids` onto the tape as a gradient-requiring leaf `[ids.len(), dim]`
    /// and record the lookup for the later sparse update.
    pub fn lookup(&mut self, g: &mut Graph, table: TableId, ids: &[u32]) -> Var {
        self.lookup_concat(g, &[(table, ids)], ids.len())
    }

    /// Gather several tables' rows side by side into one gradient-requiring
    /// leaf and record each part for the later sparse update. Every part has
    /// the same `n` ids; id row `r` of the leaf is the concatenation of the
    /// parts' rows for their `r`-th id, and the leaf is that `[n, W]` buffer
    /// viewed as `[rows, n / rows · W]` (`rows = n` for one row per id,
    /// `rows = n / T` for a `[B, T·W]` sequence; no ids in `rows = 0` give
    /// an empty `[0, W]` leaf). Bitwise the `lookup → concat_cols → reshape`
    /// composite, forward and update.
    pub fn lookup_concat(
        &mut self,
        g: &mut Graph,
        parts: &[(TableId, &[u32])],
        rows: usize,
    ) -> Var {
        assert!(!parts.is_empty(), "lookup_concat: no parts");
        let n = parts[0].1.len();
        assert!(parts.iter().all(|(_, ids)| ids.len() == n), "lookup_concat: id count mismatch");
        // `0.is_multiple_of(0)` holds: no ids in no rows is the `[0, W]` leaf.
        assert!(n.is_multiple_of(rows), "lookup_concat: {n} ids in {rows} rows");
        let stride: usize = parts.iter().map(|&(t, _)| self.tables[t.0].dim()).sum();
        let cols = n.checked_div(rows).map_or(stride, |per_row| per_row * stride);
        // Every element is written by exactly one part: no memset needed.
        let mut out = Tensor::scratch_pooled(rows, cols);
        let mut col = 0;
        for &(t, ids) in parts {
            self.tables[t.0].gather_into(ids, out.data_mut(), stride, col);
            col += self.tables[t.0].dim();
        }
        let var = g.input_with_grad(out);
        let mut col = 0;
        for &(table, ids) in parts {
            self.journal.push(PendingLookup { table, ids: ids.to_vec(), var, col, stride });
            col += self.tables[table.0].dim();
        }
        var
    }

    /// Drain the journal, scatter-applying Adagrad updates from the tape's
    /// gradients, one part at a time in lookup order. Lookups whose leaf
    /// received no gradient are skipped.
    pub fn apply_grads(&mut self, g: &Graph, lr: f32) {
        let eps = self.eps;
        for p in self.journal.drain(..) {
            if let Some(grad) = g.grad(p.var) {
                let table = &mut self.tables[p.table.0];
                table.apply_grad_cols(&p.ids, grad.data(), p.stride, p.col, lr, eps);
            }
        }
    }

    /// Discard pending lookups without applying (inference passes).
    pub fn clear_journal(&mut self) {
        self.journal.clear();
    }

    /// Total trainable scalars across all tables.
    pub fn num_params(&self) -> usize {
        self.tables.iter().map(EmbeddingTable::num_params).sum()
    }

    /// Total heap bytes (weights + Adagrad state; a mapped base counts
    /// nothing).
    pub fn memory_bytes(&self) -> usize {
        self.tables.iter().map(EmbeddingTable::memory_bytes).sum()
    }

    /// Iterate over the registered tables.
    pub fn tables(&self) -> impl Iterator<Item = &EmbeddingTable> {
        self.tables.iter()
    }

    /// Append every table's buffered updates to its delta file (tables with
    /// no directory buffer none). Returns the total records flushed.
    pub fn flush_deltas(&mut self) -> std::io::Result<usize> {
        let mut n = 0;
        for t in &mut self.tables {
            n += t.pack.flush_deltas()?;
        }
        Ok(n)
    }

    /// Fold every table's overlay + deltas back into its base shards.
    pub fn compact_packs(&mut self) -> Result<(), PackError> {
        self.tables.iter_mut().try_for_each(|t| t.pack.compact())
    }

    /// Write every table into `dir` as a pack directory with a manifest.
    /// Tables already living in `dir` are compacted in place; everything
    /// else is snapshotted and packed fresh.
    pub fn export_pack_dir(&mut self, dir: &Path) -> Result<(), PackError> {
        std::fs::create_dir_all(dir).map_err(|e| PackError::io(dir, &e))?;
        let mut entries = Vec::with_capacity(self.tables.len());
        for t in &mut self.tables {
            let p = &mut t.pack;
            let n_shards = if p.dir() == Some(dir) {
                p.compact()?;
                p.n_shards()
            } else {
                let (weights, accum) = p.snapshot();
                let (rows, dim) = (p.rows(), p.dim());
                let opts = PackOptions::default();
                packstore::write_table(dir, p.name(), rows, dim, &weights, &accum, opts)?.len()
            };
            entries.push(ManifestEntry {
                name: p.name().to_string(),
                rows: p.rows() as u64,
                dim: p.dim() as u32,
                n_shards: n_shards as u32,
            });
        }
        write_manifest(dir, &entries)
    }

    /// Warm-start every registered table from a pack directory written by
    /// [`EmbeddingStore::export_pack_dir`]: geometry is validated against the
    /// manifest, shards are opened zero-copy, deltas replayed — **no record
    /// is deserialized**. Tables must be registered (names + shapes) first.
    pub fn attach_pack_dir(&mut self, dir: &Path) -> Result<(), PackError> {
        let manifest = packstore::read_manifest(dir)?;
        let by_name: HashMap<&str, &ManifestEntry> =
            manifest.iter().map(|e| (e.name.as_str(), e)).collect();
        for t in &self.tables {
            let e = by_name
                .get(t.name())
                .ok_or_else(|| PackError::Missing(t.name().to_string()))?;
            if e.rows != t.rows() as u64 || e.dim != t.dim() as u32 {
                return Err(PackError::ShapeMismatch(format!(
                    "table {:?}: manifest {}x{}, live {}x{}",
                    t.name(),
                    e.rows,
                    e.dim,
                    t.rows(),
                    t.dim()
                )));
            }
        }
        self.tables.iter_mut().try_for_each(|t| t.attach_pack(dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_row_is_zero_and_frozen() {
        let mut rng = Prng::seeded(1);
        let mut t = EmbeddingTable::new(&mut rng, "t", 10, 4, 0.1);
        assert_eq!(t.row(0), &[0.0; 4]);
        let grad = Tensor::ones(1, 4);
        t.apply_grad(&[0], &grad, 0.1, 1e-6);
        assert_eq!(t.row(0), &[0.0; 4]);
    }

    #[test]
    fn gather_matches_rows() {
        let mut rng = Prng::seeded(2);
        let t = EmbeddingTable::new(&mut rng, "t", 10, 3, 0.1);
        let got = t.gather(&[3, 7, 3]);
        assert_eq!(got.row(0), t.row(3));
        assert_eq!(got.row(1), t.row(7));
        assert_eq!(got.row(2), t.row(3));
    }

    #[test]
    fn duplicate_ids_accumulate_once() {
        let mut rng = Prng::seeded(3);
        let mut t = EmbeddingTable::new(&mut rng, "t", 4, 2, 0.0);
        // All weights zero; apply the same grad to id 1 via two duplicate rows.
        let grad = Tensor::from_vec(2, 2, vec![1.0, 0.0, 1.0, 0.0]);
        t.apply_grad(&[1, 1], &grad, 1.0, 0.0);
        // Accumulated g=2, acc=4, update = 2/sqrt(4) = 1.
        assert!((t.row(1)[0] + 1.0).abs() < 1e-6, "{:?}", t.row(1));
    }

    #[test]
    fn store_end_to_end_update() {
        let mut rng = Prng::seeded(4);
        let mut store = EmbeddingStore::new();
        let tid = store.add_table(&mut rng, "item", 100, 4, 0.05);
        let before = store.table(tid).row(5).to_vec();

        let mut g = Graph::new();
        let e = store.lookup(&mut g, tid, &[5, 6]);
        let s = g.square(e);
        let loss = g.mean_all(s);
        g.backward(loss);
        store.apply_grads(&g, 0.5);

        let after = store.table(tid).row(5);
        assert_ne!(before.as_slice(), after, "row 5 should move");
    }

    #[test]
    fn out_of_range_panics() {
        let mut rng = Prng::seeded(6);
        let t = EmbeddingTable::new(&mut rng, "t", 4, 2, 0.1);
        let r = std::panic::catch_unwind(|| t.gather(&[4]));
        assert!(r.is_err());
    }

    #[test]
    fn empty_lookup_is_an_empty_leaf() {
        let mut rng = Prng::seeded(9);
        let mut store = EmbeddingStore::new();
        let tid = store.add_table(&mut rng, "t", 5, 3, 0.1);
        let mut g = Graph::new();
        let e = store.lookup(&mut g, tid, &[]);
        assert_eq!(g.value(e).shape(), (0, 3));
    }

    #[test]
    fn pack_conversion_serves_identical_rows() {
        let mut owned = EmbeddingStore::new();
        let t = owned.add_table(&mut Prng::seeded(7), "conv", 50, 6, 0.1);
        let mut attached = EmbeddingStore::new();
        attached.add_table(&mut Prng::seeded(7), "conv", 50, 6, 0.1);
        let dir = packstore::fresh_temp_dir();
        attached.export_pack_dir(&dir).unwrap();
        attached.attach_pack_dir(&dir).unwrap();
        assert!(owned.table(t).pack().dir().is_none());
        assert_eq!(attached.table(t).pack().dir(), Some(dir.as_path()));
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for id in 0..50u32 {
            assert_eq!(bits(owned.table(t).row(id)), bits(attached.table(t).row(id)), "row {id}");
        }
        // The same update, in place and through the overlay, stays bitwise
        // identical.
        let grad = Tensor::from_vec(2, 6, (0..12).map(|i| 0.1 * i as f32).collect());
        owned.tables[t.0].apply_grad(&[3, 9], &grad, 0.05, 1e-6);
        attached.tables[t.0].apply_grad(&[3, 9], &grad, 0.05, 1e-6);
        assert_eq!(attached.table(t).pack().overlay_len(), 2);
        for id in [3u32, 9] {
            let (a, b) = (owned.table(t), attached.table(t));
            assert_eq!(bits(a.row(id)), bits(b.row(id)), "updated row {id}");
            assert_eq!(bits(a.accum_row(id)), bits(b.accum_row(id)), "accum row {id}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_then_attach_round_trips() {
        let mut rng = Prng::seeded(9);
        let mut store = EmbeddingStore::new();
        let a = store.add_table(&mut rng, "a", 20, 3, 0.1);
        let b = store.add_table(&mut rng, "b", 7, 2, 0.1);
        let dir = packstore::fresh_temp_dir();
        store.export_pack_dir(&dir).unwrap();

        // Second store, same names/shapes, different values — attach swaps in
        // the packed rows without a deserialize pass.
        let mut rng2 = Prng::seeded(99);
        let mut store2 = EmbeddingStore::new();
        let a2 = store2.add_table(&mut rng2, "a", 20, 3, 0.1);
        let b2 = store2.add_table(&mut rng2, "b", 7, 2, 0.1);
        store2.attach_pack_dir(&dir).unwrap();
        for id in 0..20u32 {
            assert_eq!(store.table(a).row(id), store2.table(a2).row(id));
        }
        for id in 0..7u32 {
            assert_eq!(store.table(b).row(id), store2.table(b2).row(id));
        }

        // Shape mismatch is rejected.
        let mut rng3 = Prng::seeded(5);
        let mut store3 = EmbeddingStore::new();
        store3.add_table(&mut rng3, "a", 21, 3, 0.1);
        store3.add_table(&mut rng3, "b", 7, 2, 0.1);
        assert!(matches!(store3.attach_pack_dir(&dir), Err(PackError::ShapeMismatch(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
