//! Model checkpointing: the AOP-training → RTP-serving handoff of Fig. 13.
//!
//! Captured state: dense parameters, the primary embedding store, and every
//! batch-norm layer's running statistics. Models holding *auxiliary*
//! embedding stores (Wide&Deep's wide tables) round-trip only their primary
//! store through these helpers.
//!
//! ## Integrity envelope
//!
//! The AOP → RTP handoff crosses machines and object stores, where truncated
//! uploads and bit flips are a when, not an if — and a silently corrupted
//! weight tensor serves *wrong scores*, not an error. [`save_model`]
//! therefore wraps the payload in an envelope — magic, format version,
//! payload length, then a CRC32 (IEEE) trailer over the payload — and
//! [`load_model`] refuses anything that fails those checks with a typed
//! [`CheckpointError`] before a single byte reaches the model.

use crate::model::CtrModel;
use basm_tensor::serialize::{
    append_embeddings, begin_checkpoint, CheckpointError, ParsedCheckpoint,
};

/// Envelope magic: distinguishes the integrity-wrapped format from the bare
/// section stream (`b"BASMCKPT"`) that preceded it.
const ENVELOPE_MAGIC: &[u8; 8] = b"BASMSAFE";
/// Envelope format version.
const ENVELOPE_VERSION: u32 = 1;

/// CRC32 (IEEE 802.3, the zlib/PNG polynomial), bitwise implementation —
/// checkpoint I/O is cold, so simplicity beats a lookup table.
fn crc32(bytes: &[u8]) -> u32 {
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

/// Wrap a payload in the integrity envelope.
fn seal(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(ENVELOPE_MAGIC);
    out.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let crc = crc32(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Verify the envelope and return the payload slice.
fn unseal(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    if bytes.len() < 20 {
        return Err(CheckpointError::Truncated);
    }
    if &bytes[..8] != ENVELOPE_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != ENVELOPE_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let payload =
        bytes.get(20..20 + len).ok_or(CheckpointError::Truncated)?;
    let trailer = bytes
        .get(20 + len..20 + len + 4)
        .ok_or(CheckpointError::Truncated)?;
    // Anything past the CRC trailer means the file is not what was sealed —
    // a concatenation, a partial overwrite by a longer predecessor, or
    // padding. Refuse it before trusting the CRC of the prefix.
    if bytes.len() != 20 + len + 4 {
        return Err(CheckpointError::TrailingBytes);
    }
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let actual = crc32(payload);
    if stored != actual {
        return Err(CheckpointError::ChecksumMismatch { stored, actual });
    }
    Ok(payload)
}

/// Serialize a model: dense parameters, embedding tables, and batch-norm
/// running statistics (without which inference-mode outputs would not
/// survive the round trip). Stores are borrowed one at a time. The result
/// carries the integrity envelope (module docs); only [`load_model`] reads
/// it back.
pub fn save_model(model: &mut dyn CtrModel) -> Vec<u8> {
    let mut buf = begin_checkpoint(model.params());
    append_embeddings(&mut buf, &model.embedder().emb);
    let mut payload = buf.freeze().to_vec();
    append_bn_section(&mut payload, model);
    seal(payload)
}

/// Append the BN section: count, then (mean, var) per layer in model order.
fn append_bn_section(payload: &mut Vec<u8>, model: &mut dyn CtrModel) {
    let bns = model.bn_layers();
    payload.extend_from_slice(&(bns.len() as u32).to_le_bytes());
    for bn in bns {
        payload.extend_from_slice(&(bn.dim() as u32).to_le_bytes());
        for &v in bn.running_mean() {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        for &v in bn.running_var() {
            payload.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Parse and apply the BN section, which must be the *last* section of the
/// payload: leftover bytes after it are rejected as
/// [`CheckpointError::TrailingBytes`].
fn load_bn_section(model: &mut dyn CtrModel, rest: &[u8]) -> Result<(), CheckpointError> {
    let take_u32 = |b: &[u8], at: usize| -> Result<u32, CheckpointError> {
        b.get(at..at + 4)
            .map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
            .ok_or(CheckpointError::Truncated)
    };
    let n = take_u32(rest, 0)? as usize;
    let bns = model.bn_layers();
    if n != bns.len() {
        return Err(CheckpointError::Missing(format!("{n} BN layers vs {}", bns.len())));
    }
    let mut at = 4usize;
    for bn in bns {
        let dim = take_u32(rest, at)? as usize;
        at += 4;
        if dim != bn.dim() {
            return Err(CheckpointError::ShapeMismatch("bn running stats".into()));
        }
        let need = dim * 8;
        let slice = rest.get(at..at + need).ok_or(CheckpointError::Truncated)?;
        let mut mean = Vec::with_capacity(dim);
        let mut var = Vec::with_capacity(dim);
        for j in 0..dim {
            mean.push(f32::from_le_bytes(slice[j * 4..j * 4 + 4].try_into().expect("4")));
        }
        for j in 0..dim {
            var.push(f32::from_le_bytes(
                slice[dim * 4 + j * 4..dim * 4 + j * 4 + 4].try_into().expect("4"),
            ));
        }
        bn.import_stats(&mean, &var);
        at += need;
    }
    if at != rest.len() {
        return Err(CheckpointError::TrailingBytes);
    }
    Ok(())
}

/// Restore a model from checkpoint bytes (same architecture required).
/// Verifies the integrity envelope first: truncated or bit-flipped
/// checkpoints are rejected with [`CheckpointError::Truncated`] /
/// [`CheckpointError::ChecksumMismatch`] before any state is touched.
pub fn load_model(model: &mut dyn CtrModel, bytes: &[u8]) -> Result<(), CheckpointError> {
    let bytes = unseal(bytes)?;
    let parsed = ParsedCheckpoint::parse(bytes)?;
    let consumed = parsed.consumed();
    parsed.apply_params(model.params())?;
    parsed.apply_embeddings(&mut model.embedder().emb)?;
    load_bn_section(model, &bytes[consumed..])
}

/// Write a checkpoint to disk **atomically**: the bytes land in a temp file
/// next to the target and are renamed over it, so a crash mid-save leaves the
/// previous checkpoint untouched — never a truncated hybrid that the loader
/// would (rightly) reject.
pub fn save_model_file(
    model: &mut dyn CtrModel,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    basm_tensor::packstore::atomic_write(path, &save_model(model))
}

/// Read a checkpoint from disk into a freshly-constructed model.
pub fn load_model_file(
    model: &mut dyn CtrModel,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    let bytes = std::fs::read(path)?;
    load_model(model, &bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Name of the dense/BN envelope inside a checkpoint directory.
const DENSE_FILE: &str = "dense.ckpt";
/// Name of the embedding pack directory inside a checkpoint directory.
const EMB_DIR: &str = "emb";
/// Pointer file naming the committed version subdirectory (`v<k>`).
const CURRENT_FILE: &str = "CURRENT";

/// The version subdirectory `CURRENT` points at, if the pointer exists and
/// is well-formed (`v<k>`). `None` means a legacy flat-layout checkpoint (or
/// an empty directory).
fn current_version(dir: &std::path::Path) -> Option<u64> {
    let text = std::fs::read_to_string(dir.join(CURRENT_FILE)).ok()?;
    text.trim().strip_prefix('v')?.parse().ok()
}

/// Save a model as a **checkpoint directory**: dense parameters + BN stats in
/// a sealed `dense.ckpt`, and every embedding table as a pack directory under
/// `emb/` (shards + fan-out index + manifest, all written atomically). Unlike
/// [`save_model_file`], the embedding rows are not funneled through one flat
/// buffer, and [`load_model_dir`] can reopen them zero-copy.
///
/// Crash consistency (DESIGN.md §13): each save lands in a fresh version
/// subdirectory `v<k>/` and commits by atomically rewriting the `CURRENT`
/// pointer file. The multi-file window (pack shards, manifest, dense
/// envelope) therefore only ever touches an uncommitted directory — a crash
/// at any IO op leaves `CURRENT` naming the previous complete checkpoint.
/// Superseded versions (and any pre-versioning flat layout) are swept
/// best-effort after the commit. A consequence of the always-fresh target:
/// `export_pack_dir` never takes its in-place compaction branch here, so a
/// store's attached directory is never the checkpoint.
pub fn save_model_dir(
    model: &mut dyn CtrModel,
    dir: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let version = current_version(dir).map_or(1, |v| v + 1);
    let vname = format!("v{version}");
    let vdir = dir.join(&vname);
    std::fs::create_dir_all(&vdir)?;
    model
        .embedder()
        .emb
        .export_pack_dir(&vdir.join(EMB_DIR))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::Other, e.to_string()))?;
    // Dense envelope with an embedding count of zero: tables live in emb/.
    let buf = begin_checkpoint(model.params());
    let mut payload = buf.freeze().to_vec();
    payload.extend_from_slice(&0u32.to_le_bytes());
    append_bn_section(&mut payload, model);
    basm_tensor::packstore::atomic_write(vdir.join(DENSE_FILE), &seal(payload))?;
    // Commit point: the pointer flip is the only write readers depend on.
    basm_tensor::packstore::atomic_write(dir.join(CURRENT_FILE), format!("{vname}\n").as_bytes())?;
    sweep_stale_versions(dir, version);
    Ok(())
}

/// Remove superseded version subdirectories and any legacy flat-layout
/// files after a successful commit. Best-effort through the crash shim: a
/// kill mid-sweep leaves stale directories `CURRENT` never reads, retired
/// by the next save.
fn sweep_stale_versions(dir: &std::path::Path, keep: u64) {
    use basm_tensor::packstore::crash;
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let fname = entry.file_name();
        let Some(fname) = fname.to_str() else { continue };
        if fname == DENSE_FILE {
            let _ = crash::remove_file(&entry.path());
        } else if fname == EMB_DIR {
            let _ = crash::remove_dir_all(&entry.path());
        } else if let Some(v) = fname.strip_prefix('v') {
            if v.parse::<u64>().is_ok_and(|v| v != keep) {
                let _ = crash::remove_dir_all(&entry.path());
            }
        }
    }
}

/// Warm-start a model from a checkpoint directory written by
/// [`save_model_dir`]: dense parameters and BN stats are restored from the
/// sealed envelope, and the embedding store attaches to the pack directory —
/// shards are opened via mmap and **no embedding record is deserialized**.
/// Every table has a directory afterwards.
///
/// Reads the version `CURRENT` points at; a directory without a `CURRENT`
/// pointer is treated as the pre-versioning flat layout (`dense.ckpt` +
/// `emb/` at the top level), so old checkpoints keep loading.
pub fn load_model_dir(
    model: &mut dyn CtrModel,
    dir: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    let dir = dir.as_ref();
    let dir = match current_version(dir) {
        Some(v) => dir.join(format!("v{v}")),
        None => dir.to_path_buf(),
    };
    let dir = dir.as_path();
    let to_io =
        |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let bytes = std::fs::read(dir.join(DENSE_FILE))?;
    (|| -> Result<(), CheckpointError> {
        let payload = unseal(&bytes)?;
        let parsed = ParsedCheckpoint::parse(payload)?;
        let consumed = parsed.consumed();
        parsed.apply_params(model.params())?;
        load_bn_section(model, &payload[consumed..])
    })()
    .map_err(|e| to_io(e.to_string()))?;
    model
        .embedder()
        .emb
        .attach_pack_dir(&dir.join(EMB_DIR))
        .map_err(|e| to_io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basm::{Basm, BasmConfig};
    use crate::model::{predict, train_step};
    use basm_data::{generate_dataset, WorldConfig};
    use basm_tensor::optim::AdagradDecay;

    #[test]
    fn checkpoint_roundtrip_preserves_predictions() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let batch = data.dataset.batch(&(0..16).collect::<Vec<_>>());

        // Train a few steps so weights differ from init.
        let mut trained = Basm::new(&cfg, BasmConfig::default());
        let mut opt = AdagradDecay::paper_default();
        for _ in 0..5 {
            train_step(&mut trained, &batch, &mut opt, 0.05, None);
        }
        let expected = predict(&mut trained, &batch);
        let bytes = save_model(&mut trained);

        // A freshly-built model with another seed predicts differently...
        let mut fresh = Basm::new(&cfg, BasmConfig { seed: 99, ..BasmConfig::default() });
        let before = predict(&mut fresh, &batch);
        assert_ne!(before, expected);
        // ...until the checkpoint is restored.
        load_model(&mut fresh, &bytes).unwrap();
        let after = predict(&mut fresh, &batch);
        assert_eq!(after, expected);
    }

    #[test]
    fn file_roundtrip() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let batch = data.dataset.batch(&[0, 1, 2]);
        let mut model = Basm::new(&cfg, BasmConfig::default());
        let expected = predict(&mut model, &batch);

        let path = std::env::temp_dir().join("basm_ckpt_test.bin");
        save_model_file(&mut model, &path).unwrap();
        let mut fresh = Basm::new(&cfg, BasmConfig { seed: 5, ..BasmConfig::default() });
        load_model_file(&mut fresh, &path).unwrap();
        assert_eq!(predict(&mut fresh, &batch), expected);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn dir_roundtrip_restores_predictions_without_deserialize() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let batch = data.dataset.batch(&(0..16).collect::<Vec<_>>());
        let mut trained = Basm::new(&cfg, BasmConfig::default());
        let mut opt = AdagradDecay::paper_default();
        for _ in 0..3 {
            train_step(&mut trained, &batch, &mut opt, 0.05, None);
        }
        let expected: Vec<u32> =
            predict(&mut trained, &batch).iter().map(|p| p.to_bits()).collect();

        let dir = std::env::temp_dir().join(format!("basm_ckpt_dir_{}", std::process::id()));
        save_model_dir(&mut trained, &dir).unwrap();

        let mut fresh = Basm::new(&cfg, BasmConfig { seed: 99, ..BasmConfig::default() });
        load_model_dir(&mut fresh, &dir).unwrap();
        // The attach opened the shards zero-copy: mapped, nothing resident.
        let emb = &fresh.embedder().emb;
        assert!(
            emb.tables().all(|t| t.pack().is_fully_mapped()),
            "warm start must attach, not deserialize"
        );
        assert_eq!(emb.memory_bytes(), 0, "no record should be resident after attach");
        let got: Vec<u32> = predict(&mut fresh, &batch).iter().map(|p| p.to_bits()).collect();
        assert_eq!(got, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn versioned_saves_rotate_and_sweep() {
        let cfg = WorldConfig::tiny();
        let mut model = Basm::new(&cfg, BasmConfig::default());
        let dir = std::env::temp_dir().join(format!("basm_ckpt_rot_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        save_model_dir(&mut model, &dir).unwrap();
        assert_eq!(current_version(&dir), Some(1));
        save_model_dir(&mut model, &dir).unwrap();
        assert_eq!(current_version(&dir), Some(2));
        assert!(!dir.join("v1").exists(), "superseded version must be swept");
        assert!(dir.join("v2").join(DENSE_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_flat_checkpoint_dir_still_loads() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let batch = data.dataset.batch(&[0, 1, 2, 3]);
        let mut model = Basm::new(&cfg, BasmConfig::default());
        let mut opt = AdagradDecay::paper_default();
        train_step(&mut model, &batch, &mut opt, 0.05, None);
        let expected: Vec<u32> = predict(&mut model, &batch).iter().map(|p| p.to_bits()).collect();

        // Rewrite a versioned checkpoint into the pre-versioning flat layout
        // (dense.ckpt + emb/ at the top level, no CURRENT pointer).
        let dir = std::env::temp_dir().join(format!("basm_ckpt_legacy_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        save_model_dir(&mut model, &dir).unwrap();
        std::fs::rename(dir.join("v1").join(DENSE_FILE), dir.join(DENSE_FILE)).unwrap();
        std::fs::rename(dir.join("v1").join(EMB_DIR), dir.join(EMB_DIR)).unwrap();
        std::fs::remove_file(dir.join(CURRENT_FILE)).unwrap();
        std::fs::remove_dir_all(dir.join("v1")).unwrap();

        let mut fresh = Basm::new(&cfg, BasmConfig { seed: 77, ..BasmConfig::default() });
        load_model_dir(&mut fresh, &dir).expect("flat layout must keep loading");
        let got: Vec<u32> = predict(&mut fresh, &batch).iter().map(|p| p.to_bits()).collect();
        assert_eq!(got, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_model_dir_crash_sweep_yields_old_or_new() {
        use basm_tensor::packstore::{crash, set_crash_plan, CrashPlan};
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let batch = data.dataset.batch(&(0..8).collect::<Vec<_>>());

        // "Old" = one training step, "new" = three: distinguishable bits.
        let mut old_model = Basm::new(&cfg, BasmConfig::default());
        let mut opt = AdagradDecay::paper_default();
        train_step(&mut old_model, &batch, &mut opt, 0.05, None);
        let mut new_model = Basm::new(&cfg, BasmConfig::default());
        let mut opt2 = AdagradDecay::paper_default();
        for _ in 0..3 {
            train_step(&mut new_model, &batch, &mut opt2, 0.05, None);
        }
        let preds_old: Vec<u32> =
            predict(&mut old_model, &batch).iter().map(|p| p.to_bits()).collect();
        let preds_new: Vec<u32> =
            predict(&mut new_model, &batch).iter().map(|p| p.to_bits()).collect();
        assert_ne!(preds_old, preds_new, "sweep needs distinguishable states");

        let loaded_preds = |dir: &std::path::Path| -> Vec<u32> {
            let mut m = Basm::new(&cfg, BasmConfig { seed: 5, ..BasmConfig::default() });
            load_model_dir(&mut m, dir).expect("load after simulated crash");
            predict(&mut m, &batch).iter().map(|p| p.to_bits()).collect()
        };

        // Dry run over an existing checkpoint measures the sweep domain.
        let base = std::env::temp_dir().join(format!("basm_ckpt_sweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dry = base.join("dry");
        save_model_dir(&mut old_model, &dry).unwrap();
        set_crash_plan(None);
        save_model_dir(&mut new_model, &dry).unwrap();
        let n_ops = crash::ops_executed();
        assert!(n_ops > 5, "save_model_dir should span many guarded IO ops");
        assert_eq!(loaded_preds(&dry), preds_new);

        for kill_at in 0..n_ops {
            let dir = base.join(format!("k{kill_at}"));
            save_model_dir(&mut old_model, &dir).unwrap();
            set_crash_plan(Some(CrashPlan { kill_at_op: kill_at, tear_bytes: 9 }));
            let res = save_model_dir(&mut new_model, &dir);
            assert!(crash::crash_fired(), "kill_at={kill_at} did not fire ({res:?})");
            set_crash_plan(None);
            let got = loaded_preds(&dir);
            assert!(
                got == preds_old || got == preds_new,
                "kill_at={kill_at}: checkpoint loaded to a third state"
            );
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn save_load_continue_matches_uninterrupted_training() {
        use basm_tensor::optim::Sgd;
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let warm = data.dataset.batch(&(0..16).collect::<Vec<_>>());
        let cont = data.dataset.batch(&(16..32).collect::<Vec<_>>());

        // Uninterrupted: warm-up steps, then continuation steps. The dense
        // optimizer is stateless SGD so the embedding Adagrad accumulators
        // are the only optimizer state crossing the checkpoint: if the save
        // path dropped them (the old `overwrite_table` zeroed them on load),
        // the continued trajectory would diverge from this one.
        let mut a = Basm::new(&cfg, BasmConfig::default());
        let mut opt_a = Sgd::new(0.0);
        for _ in 0..3 {
            train_step(&mut a, &warm, &mut opt_a, 0.05, None);
        }
        let bytes = save_model(&mut a);
        for _ in 0..3 {
            train_step(&mut a, &cont, &mut opt_a, 0.05, None);
        }
        let expected: Vec<u32> = predict(&mut a, &cont).iter().map(|p| p.to_bits()).collect();

        // Interrupted: restore the checkpoint into a fresh model, continue
        // with the identical steps — must land on identical bits.
        let mut b = Basm::new(&cfg, BasmConfig { seed: 1234, ..BasmConfig::default() });
        load_model(&mut b, &bytes).unwrap();
        let mut opt_b = Sgd::new(0.0);
        for _ in 0..3 {
            train_step(&mut b, &cont, &mut opt_b, 0.05, None);
        }
        let got: Vec<u32> = predict(&mut b, &cont).iter().map(|p| p.to_bits()).collect();
        assert_eq!(got, expected, "restored training must continue bitwise-identically");
    }

    #[test]
    fn partial_write_never_clobbers_previous_checkpoint() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let batch = data.dataset.batch(&[0, 1, 2]);
        let dir = std::env::temp_dir().join(format!("basm_ckpt_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");

        let mut model = Basm::new(&cfg, BasmConfig::default());
        save_model_file(&mut model, &path).unwrap();
        let expected: Vec<u32> = predict(&mut model, &batch).iter().map(|p| p.to_bits()).collect();

        // Simulate a writer that died mid-save: with write-temp + rename, the
        // torn bytes live under a temp name, never the real one. (The old
        // `std::fs::write(final_path)` would have left `path` itself torn.)
        let full = save_model(&mut model);
        std::fs::write(dir.join(".model.ckpt.tmp-dead-0"), &full[..full.len() / 2]).unwrap();

        let mut fresh = Basm::new(&cfg, BasmConfig { seed: 31, ..BasmConfig::default() });
        load_model_file(&mut fresh, &path).expect("previous checkpoint must survive a torn save");
        let got: Vec<u32> = predict(&mut fresh, &batch).iter().map(|p| p.to_bits()).collect();
        assert_eq!(got, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let cfg = WorldConfig::tiny();
        let mut model = Basm::new(&cfg, BasmConfig::default());
        let bytes = save_model(&mut model);
        let mut fresh = Basm::new(&cfg, BasmConfig { seed: 7, ..BasmConfig::default() });

        // Garbage after the envelope's CRC trailer (e.g. two checkpoints
        // concatenated, or a short rewrite over a longer predecessor).
        let mut padded = bytes.clone();
        padded.extend_from_slice(b"garbage");
        assert_eq!(load_model(&mut fresh, &padded), Err(CheckpointError::TrailingBytes));

        // Garbage *inside* the sealed payload, after the BN section: the CRC
        // is valid (it was sealed over the junk), so only the section-level
        // length check can catch it.
        let mut payload = unseal(&bytes).unwrap().to_vec();
        payload.extend_from_slice(b"junk");
        let resealed = seal(payload);
        assert_eq!(load_model(&mut fresh, &resealed), Err(CheckpointError::TrailingBytes));

        // The pristine bytes still load.
        load_model(&mut fresh, &bytes).unwrap();
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let cfg = WorldConfig::tiny();
        let mut model = Basm::new(&cfg, BasmConfig::default());
        let bytes = save_model(&mut model);

        let mut fresh = Basm::new(&cfg, BasmConfig { seed: 7, ..BasmConfig::default() });
        // Cut anywhere: mid-envelope-header, mid-payload, or just the CRC
        // trailer — all must fail loudly, never half-apply.
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 1] {
            let err = load_model(&mut fresh, &bytes[..cut])
                .expect_err("truncated checkpoint must not load");
            assert_eq!(err, CheckpointError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flipped_checkpoint_is_rejected() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let batch = data.dataset.batch(&[0, 1, 2]);
        let mut model = Basm::new(&cfg, BasmConfig::default());
        let bytes = save_model(&mut model);

        let mut fresh = Basm::new(&cfg, BasmConfig { seed: 7, ..BasmConfig::default() });
        let before = predict(&mut fresh, &batch);
        // Flip one bit in the payload (past the 20-byte envelope header):
        // without the CRC this would load fine and silently corrupt a weight.
        for at in [20, bytes.len() / 2, bytes.len() - 5] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x10;
            let err = load_model(&mut fresh, &corrupt)
                .expect_err("bit-flipped checkpoint must not load");
            assert!(
                matches!(err, CheckpointError::ChecksumMismatch { .. }),
                "flip at {at}: {err}"
            );
        }
        // A corrupt trailer bit reports as a mismatch too.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(matches!(
            load_model(&mut fresh, &corrupt),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        // The model was never touched by any failed load.
        assert_eq!(predict(&mut fresh, &batch), before);
        // And the pristine bytes still load.
        load_model(&mut fresh, &bytes).unwrap();
    }

    #[test]
    fn non_checkpoint_bytes_are_rejected() {
        let cfg = WorldConfig::tiny();
        let mut model = Basm::new(&cfg, BasmConfig::default());
        assert_eq!(
            load_model(&mut model, b"definitely not a checkpoint at all"),
            Err(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn wrong_architecture_fails_loud() {
        let cfg = WorldConfig::tiny();
        let mut a = Basm::new(&cfg, BasmConfig::default());
        let bytes = save_model(&mut a);
        let mut b = Basm::new(&cfg, BasmConfig { tower: vec![48, 16], ..BasmConfig::default() });
        assert!(load_model(&mut b, &bytes).is_err());
    }
}
