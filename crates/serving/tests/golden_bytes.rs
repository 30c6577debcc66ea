//! Golden bytes of every on-disk format: the length and CRC32 of what a
//! fixed-seed checkpoint save writes (`CURRENT`, `dense.ckpt`, `MANIFEST`,
//! `.idx` and shards), of one delta flush after a train step, and of a WAL
//! holding one record of every tag. A codec change that claims "same bytes"
//! must leave every pinned digest as it is.

use basm_core::basm::{Basm, BasmConfig};
use basm_core::checkpoint::{load_model_dir, save_model_dir};
use basm_core::model::{train_step, CtrModel};
use basm_data::{generate_dataset, BehaviorEvent, WorldConfig};
use basm_serving::{Journal, WalRecord, WalSnapshot};
use basm_tensor::optim::AdagradDecay;
use basm_tensor::packstore::{crc32, fresh_temp_dir};
use std::path::{Path, PathBuf};

/// The files under `root` whose path passes `keep`, each one's path and
/// bytes concatenated in path order: (file count, bytes, CRC32). The CRC32
/// runs over the concatenation in reverse byte order, because a file that
/// ends in the CRC32 of everything before it (`.idx`, `MANIFEST`) leaves the
/// forward CRC32 of any run holding it blind to its body (the CRC residue).
fn digest(root: &Path, keep: impl Fn(&str) -> bool) -> (usize, usize, u32) {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut paths = Vec::new();
    walk(root, &mut paths);
    paths.retain(|p| keep(p.strip_prefix(root).unwrap().to_str().unwrap()));
    paths.sort();
    let mut all = Vec::new();
    for p in &paths {
        all.extend_from_slice(p.strip_prefix(root).unwrap().to_str().unwrap().as_bytes());
        all.extend(std::fs::read(p).unwrap());
    }
    all.reverse();
    (paths.len(), all.len(), crc32(&all))
}

#[test]
fn checkpoint_and_delta_bytes_are_pinned() {
    let cfg = WorldConfig::tiny();
    let data = generate_dataset(&cfg);
    let batch = data.dataset.batch(&(0..32).collect::<Vec<_>>());
    let mut model = Basm::new(&cfg, BasmConfig::default());
    let mut opt = AdagradDecay::paper_default();
    train_step(&mut model, &batch, &mut opt, 0.05, None);
    let dir = fresh_temp_dir();
    save_model_dir(&mut model, &dir).unwrap();
    // CURRENT, dense.ckpt, MANIFEST, and ten tables' index and shard.
    assert_eq!(digest(&dir, |_| true), (23, 521109, 0x393c_a6bd), "checkpoint bytes changed");

    // Attach the checkpoint, take one step and flush its rows as deltas.
    let mut attached = Basm::new(&cfg, BasmConfig { seed: 3, ..BasmConfig::default() });
    load_model_dir(&mut attached, &dir).unwrap();
    let mut opt = AdagradDecay::paper_default();
    train_step(
        &mut attached,
        &data.dataset.batch(&(32..64).collect::<Vec<_>>()),
        &mut opt,
        0.05,
        None,
    );
    for e in attached.embedders() {
        assert!(e.emb.flush_deltas().unwrap() > 0);
    }
    let deltas = digest(&dir, |p| p.ends_with(".delta"));
    assert_eq!(deltas, (10, 11664, 0xe74b_4c23), "delta bytes changed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_bytes_are_pinned() {
    let ev = |item: u32| BehaviorEvent {
        item,
        cat: 2,
        brand: 3,
        tp: 1,
        hour: 12,
        city: 4,
        gx: 5,
        gy: 6,
    };
    let dir = fresh_temp_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let j = Journal::create(dir.join("wal")).unwrap();
    j.append(&WalRecord::Click { uid: 7, ordered: true, event: ev(9) }).unwrap();
    j.append(&WalRecord::Exposures { lists: vec![vec![1, 2, 3], vec![], vec![4]] }).unwrap();
    j.append(&WalRecord::Seed { uid: 1, events: vec![ev(1), ev(2)] }).unwrap();
    j.append(&WalRecord::Snapshot(Box::new(WalSnapshot {
        clicks_version: 5,
        history_version: vec![1, 0],
        history: vec![vec![ev(1)], vec![]],
        user_clicks: vec![1, 0],
        user_orders: vec![0, 0],
        item_clicks: vec![0, 1, 0],
        item_exposures: vec![2, 0, 0],
    })))
    .unwrap();
    j.seal().unwrap();
    assert_eq!(digest(&dir, |_| true), (1, 245, 0x2c7a_bfaf), "WAL bytes changed");
    let _ = std::fs::remove_dir_all(&dir);
}
