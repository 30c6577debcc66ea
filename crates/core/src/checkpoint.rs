//! Model checkpointing: the AOP-training → RTP-serving handoff of Fig. 13.
//!
//! A checkpoint is a directory, written by [`save_model_dir`] and read by
//! [`load_model_dir`]. Each save lands in a fresh version subdirectory
//! `v<k>/`, committed by rewriting the `CURRENT` pointer file, and holds:
//!
//! * `dense.ckpt` — dense parameters and every batch-norm layer's running
//!   statistics, in the integrity envelope below;
//! * one pack directory per embedding store ([`CtrModel::embedders`]):
//!   store 0 in `emb/`, store `i ≥ 1` in `emb.<i>/` (stores may reuse table
//!   names, so each needs its own directory). Rows and Adagrad
//!   accumulators live there, never in `dense.ckpt`.
//!
//! ## Integrity envelope
//!
//! The AOP → RTP handoff crosses machines and object stores, where truncated
//! uploads and bit flips are a when, not an if — and a silently corrupted
//! weight tensor serves *wrong scores*, not an error. `dense.ckpt` therefore
//! wraps its payload in an envelope — magic, format version, payload length,
//! then a CRC32 (IEEE) trailer over the payload — and [`load_model_dir`]
//! refuses anything that fails those checks, or the payload's own section
//! checks, with a typed [`PackError`] (the returned `io::Error`'s source)
//! before a single byte reaches the model. Both sides go through the pack
//! store's codec (`basm_tensor::packstore::format`).

use crate::model::CtrModel;
use basm_tensor::packstore::atomic_write;
use basm_tensor::packstore::format::{
    crc_trailed, put_crc, put_f32s, put_u32, put_u64, Cursor, PackError,
};
use basm_tensor::serialize::{begin_checkpoint, ParsedCheckpoint};
use std::io;
use std::path::Path;

/// Envelope magic: distinguishes the integrity-wrapped format from the bare
/// section stream (`b"BASMCKPT"`) inside it.
const ENVELOPE_MAGIC: &[u8; 8] = b"BASMSAFE";
/// Envelope format version.
const ENVELOPE_VERSION: u32 = 1;

/// Name of the dense/BN envelope inside a version directory.
const DENSE_FILE: &str = "dense.ckpt";
/// Pointer file naming the committed version subdirectory (`v<k>`).
const CURRENT_FILE: &str = "CURRENT";

/// Wrap a payload in the integrity envelope.
fn seal(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(ENVELOPE_MAGIC);
    put_u32(&mut out, ENVELOPE_VERSION);
    put_u64(&mut out, payload.len() as u64);
    let at = out.len();
    out.extend_from_slice(&payload);
    put_crc(&mut out, at);
    out
}

/// Verify the envelope and return the payload slice.
fn unseal<'a>(bytes: &'a [u8], what: &'a str) -> Result<&'a [u8], PackError> {
    let mut c = Cursor::new(bytes, what);
    c.magic(ENVELOPE_MAGIC)?;
    c.version(ENVELOPE_VERSION)?;
    let len = usize::try_from(c.u64()?).unwrap_or(usize::MAX);
    let sealed = c.take(len.saturating_add(4))?;
    // Anything past the CRC trailer means the file is not what was sealed —
    // a concatenation, a partial overwrite by a longer predecessor, or
    // padding. Refuse it before trusting the CRC of the prefix.
    c.finish()?;
    crc_trailed(sealed, what)
}

/// The `dense.ckpt` payload: dense parameters, then the BN section — count,
/// then (dim, mean, var) per layer in model order.
fn dense_payload(model: &mut dyn CtrModel) -> Vec<u8> {
    let mut payload = begin_checkpoint(model.params());
    let bns = model.bn_layers();
    put_u32(&mut payload, bns.len() as u32);
    for bn in bns {
        put_u32(&mut payload, bn.dim() as u32);
        put_f32s(&mut payload, bn.running_mean());
        put_f32s(&mut payload, bn.running_var());
    }
    payload
}

/// Each BN layer's (running mean, running var), in model order.
type BnStats = Vec<(Vec<f32>, Vec<f32>)>;

/// Parse the BN section, checked against the model's layers.
fn parse_bn_section(model: &mut dyn CtrModel, c: &mut Cursor) -> Result<BnStats, PackError> {
    let n = c.count(4)?;
    let bns = model.bn_layers();
    if n != bns.len() {
        return Err(PackError::Missing(format!("{n} BN layers vs {}", bns.len())));
    }
    let mut stats = Vec::with_capacity(n);
    for bn in bns {
        let dim = c.u32()? as usize;
        if dim != bn.dim() {
            return Err(PackError::ShapeMismatch("bn running stats".into()));
        }
        stats.push((c.f32s(dim)?, c.f32s(dim)?));
    }
    Ok(stats)
}

/// Verify a `dense.ckpt` file completely, then restore it into the model:
/// a rejected file leaves the model untouched. The BN section must be the
/// payload's *last* section: leftover bytes are
/// [`PackError::TrailingBytes`].
fn load_dense(model: &mut dyn CtrModel, bytes: &[u8], what: &str) -> Result<(), PackError> {
    let mut c = Cursor::new(unseal(bytes, what)?, what);
    let parsed = ParsedCheckpoint::parse(&mut c)?;
    let stats = parse_bn_section(model, &mut c)?;
    c.finish()?;
    parsed.apply_params(model.params())?;
    for (bn, (mean, var)) in model.bn_layers().into_iter().zip(stats) {
        bn.import_stats(&mean, &var);
    }
    Ok(())
}

/// Name of embedding store `i`'s pack directory inside a version directory.
fn emb_dir(i: usize) -> String {
    if i == 0 {
        "emb".to_string()
    } else {
        format!("emb.{i}")
    }
}

/// The version subdirectory `CURRENT` points at, if the pointer exists and
/// is well-formed (`v<k>`).
fn current_version(dir: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(dir.join(CURRENT_FILE)).ok()?;
    text.trim().strip_prefix('v')?.parse().ok()
}

/// Save a model as a **checkpoint directory** (module docs): dense
/// parameters + BN stats in a sealed `dense.ckpt`, and every embedding store
/// as a pack directory (shards + fan-out index + manifest, all written
/// atomically) that [`load_model_dir`] reopens zero-copy.
///
/// Crash consistency (DESIGN.md §13): each save lands in a fresh version
/// subdirectory `v<k>/` and commits by atomically rewriting the `CURRENT`
/// pointer file. The multi-file window (pack shards, manifest, dense
/// envelope) therefore only ever touches an uncommitted directory — a crash
/// at any IO op leaves `CURRENT` naming the previous complete checkpoint.
/// Superseded versions are swept best-effort after the commit. A
/// consequence of the always-fresh target: `export_pack_dir` never takes its
/// in-place compaction branch here, so a store's attached directory is
/// never the checkpoint.
pub fn save_model_dir(model: &mut dyn CtrModel, dir: impl AsRef<Path>) -> io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let version = current_version(dir).map_or(1, |v| v + 1);
    let vname = format!("v{version}");
    let vdir = dir.join(&vname);
    std::fs::create_dir_all(&vdir)?;
    for (i, e) in model.embedders().into_iter().enumerate() {
        e.emb.export_pack_dir(&vdir.join(emb_dir(i))).map_err(io::Error::other)?;
    }
    atomic_write(vdir.join(DENSE_FILE), &seal(dense_payload(model)))?;
    // Commit point: the pointer flip is the only write readers depend on.
    atomic_write(dir.join(CURRENT_FILE), format!("{vname}\n").as_bytes())?;
    sweep_stale_versions(dir, version);
    Ok(())
}

/// Remove superseded version subdirectories after a successful commit.
/// Best-effort through the crash shim: a kill mid-sweep leaves stale
/// directories `CURRENT` never reads, retired by the next save.
fn sweep_stale_versions(dir: &Path, keep: u64) {
    use basm_tensor::packstore::crash;
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let fname = entry.file_name();
        let Some(v) = fname.to_str().and_then(|f| f.strip_prefix('v')) else { continue };
        if v.parse::<u64>().is_ok_and(|v| v != keep) {
            let _ = crash::remove_dir_all(&entry.path());
        }
    }
}

/// Warm-start a model from a checkpoint directory written by
/// [`save_model_dir`], reading the version `CURRENT` points at: dense
/// parameters and BN stats are restored from the sealed envelope, and every
/// embedding store attaches to its pack directory — shards are opened via
/// mmap and **no embedding record is deserialized**. Every table has a
/// directory afterwards.
///
/// A directory without a `CURRENT` pointer, a `dense.ckpt` that fails any
/// check, and a pack directory that fails to attach are
/// [`io::ErrorKind::InvalidData`] errors whose source is the [`PackError`];
/// the `dense.ckpt` checks all run before the model is touched.
pub fn load_model_dir(model: &mut dyn CtrModel, dir: impl AsRef<Path>) -> io::Result<()> {
    let dir = dir.as_ref();
    let invalid = |e: PackError| io::Error::new(io::ErrorKind::InvalidData, e);
    let version =
        current_version(dir).ok_or_else(|| invalid(PackError::Missing(CURRENT_FILE.into())))?;
    let vdir = dir.join(format!("v{version}"));
    let dense = vdir.join(DENSE_FILE);
    let bytes = std::fs::read(&dense)?;
    load_dense(model, &bytes, &dense.display().to_string()).map_err(invalid)?;
    for (i, e) in model.embedders().into_iter().enumerate() {
        e.emb.attach_pack_dir(&vdir.join(emb_dir(i))).map_err(invalid)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basm::{Basm, BasmConfig};
    use crate::model::{predict, train_step};
    use basm_data::{generate_dataset, Batch, WorldConfig};
    use basm_tensor::optim::AdagradDecay;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("basm_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn pred_bits(model: &mut dyn CtrModel, batch: &Batch) -> Vec<u32> {
        predict(model, batch).iter().map(|p| p.to_bits()).collect()
    }

    /// Write `dense` as the committed version's `dense.ckpt`, load the
    /// directory into `model`, and return the typed rejection. The failed
    /// load must leave the model's predictions as they were.
    fn rejection(
        model: &mut dyn CtrModel,
        batch: &Batch,
        dir: &Path,
        dense: &[u8],
    ) -> PackError {
        std::fs::write(dir.join("v1").join(DENSE_FILE), dense).unwrap();
        let before = pred_bits(model, batch);
        let err = load_model_dir(model, dir).expect_err("corrupt checkpoint must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(pred_bits(model, batch), before, "a failed load touched the model");
        *err.into_inner().expect("error source").downcast::<PackError>().expect("typed")
    }

    /// A trained BASM saved to a fresh directory, its pristine `dense.ckpt`
    /// bytes, a differently seeded model to load into, and a batch.
    fn corruption_fixture(tag: &str) -> (PathBuf, Vec<u8>, Basm, Batch) {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let batch = data.dataset.batch(&[0, 1, 2]);
        let mut model = Basm::new(&cfg, BasmConfig::default());
        let mut opt = AdagradDecay::paper_default();
        train_step(&mut model, &batch, &mut opt, 0.05, None);
        let dir = temp_dir(tag);
        save_model_dir(&mut model, &dir).unwrap();
        let bytes = std::fs::read(dir.join("v1").join(DENSE_FILE)).unwrap();
        let fresh = Basm::new(&cfg, BasmConfig { seed: 7, ..BasmConfig::default() });
        (dir, bytes, fresh, batch)
    }

    /// The pristine bytes still load after every rejection.
    fn assert_pristine_loads(model: &mut dyn CtrModel, dir: &Path, bytes: &[u8]) {
        std::fs::write(dir.join("v1").join(DENSE_FILE), bytes).unwrap();
        load_model_dir(model, dir).unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

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
        let dir = temp_dir("roundtrip");
        save_model_dir(&mut trained, &dir).unwrap();

        // A freshly-built model with another seed predicts differently...
        let mut fresh = Basm::new(&cfg, BasmConfig { seed: 99, ..BasmConfig::default() });
        let before = predict(&mut fresh, &batch);
        assert_ne!(before, expected);
        // ...until the checkpoint is restored.
        load_model_dir(&mut fresh, &dir).unwrap();
        let after = predict(&mut fresh, &batch);
        assert_eq!(after, expected);
        let _ = std::fs::remove_dir_all(&dir);
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
        let expected = pred_bits(&mut trained, &batch);

        let dir = temp_dir("dir");
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
        assert_eq!(pred_bits(&mut fresh, &batch), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn versioned_saves_rotate_and_sweep() {
        let cfg = WorldConfig::tiny();
        let mut model = Basm::new(&cfg, BasmConfig::default());
        let dir = temp_dir("rot");
        save_model_dir(&mut model, &dir).unwrap();
        assert_eq!(current_version(&dir), Some(1));
        save_model_dir(&mut model, &dir).unwrap();
        assert_eq!(current_version(&dir), Some(2));
        assert!(!dir.join("v1").exists(), "superseded version must be swept");
        assert!(dir.join("v2").join(DENSE_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_without_current_is_rejected() {
        let (dir, bytes, mut fresh, batch) = corruption_fixture("nocurrent");
        let current = std::fs::read(dir.join(CURRENT_FILE)).unwrap();
        std::fs::remove_file(dir.join(CURRENT_FILE)).unwrap();
        assert_eq!(
            rejection(&mut fresh, &batch, &dir, &bytes),
            PackError::Missing(CURRENT_FILE.into())
        );
        std::fs::write(dir.join(CURRENT_FILE), current).unwrap();
        assert_pristine_loads(&mut fresh, &dir, &bytes);
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
        let preds_old = pred_bits(&mut old_model, &batch);
        let preds_new = pred_bits(&mut new_model, &batch);
        assert_ne!(preds_old, preds_new, "sweep needs distinguishable states");

        let loaded_preds = |dir: &Path| -> Vec<u32> {
            let mut m = Basm::new(&cfg, BasmConfig { seed: 5, ..BasmConfig::default() });
            load_model_dir(&mut m, dir).expect("load after simulated crash");
            pred_bits(&mut m, &batch)
        };

        // Dry run over an existing checkpoint measures the sweep domain.
        let base = temp_dir("sweep");
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
        // path dropped them, the continued trajectory would diverge from
        // this one.
        let mut a = Basm::new(&cfg, BasmConfig::default());
        let mut opt_a = Sgd::new(0.0);
        for _ in 0..3 {
            train_step(&mut a, &warm, &mut opt_a, 0.05, None);
        }
        let dir = temp_dir("continue");
        save_model_dir(&mut a, &dir).unwrap();
        for _ in 0..3 {
            train_step(&mut a, &cont, &mut opt_a, 0.05, None);
        }
        let expected = pred_bits(&mut a, &cont);

        // Interrupted: restore the checkpoint into a fresh model, continue
        // with the identical steps — must land on identical bits.
        let mut b = Basm::new(&cfg, BasmConfig { seed: 1234, ..BasmConfig::default() });
        load_model_dir(&mut b, &dir).unwrap();
        let mut opt_b = Sgd::new(0.0);
        for _ in 0..3 {
            train_step(&mut b, &cont, &mut opt_b, 0.05, None);
        }
        let got = pred_bits(&mut b, &cont);
        assert_eq!(got, expected, "restored training must continue bitwise-identically");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (dir, bytes, mut fresh, batch) = corruption_fixture("trailing");

        // Garbage after the envelope's CRC trailer (e.g. two checkpoints
        // concatenated, or a short rewrite over a longer predecessor).
        let mut padded = bytes.clone();
        padded.extend_from_slice(b"garbage");
        let err = rejection(&mut fresh, &batch, &dir, &padded);
        assert!(matches!(err, PackError::TrailingBytes(_)), "{err}");

        // Garbage *inside* the sealed payload, after the BN section: the CRC
        // is valid (it was sealed over the junk), so only the section-level
        // length check can catch it.
        let mut payload = unseal(&bytes, DENSE_FILE).unwrap().to_vec();
        payload.extend_from_slice(b"junk");
        let err = rejection(&mut fresh, &batch, &dir, &seal(payload));
        assert!(matches!(err, PackError::TrailingBytes(_)), "{err}");
        assert_pristine_loads(&mut fresh, &dir, &bytes);
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let (dir, bytes, mut fresh, batch) = corruption_fixture("truncated");
        // Cut anywhere: mid-envelope-header, mid-payload, or just the CRC
        // trailer — all must fail loudly, never half-apply.
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 1] {
            let err = rejection(&mut fresh, &batch, &dir, &bytes[..cut]);
            assert!(matches!(err, PackError::Truncated(_)), "cut at {cut}: {err}");
        }
        assert_pristine_loads(&mut fresh, &dir, &bytes);
    }

    #[test]
    fn bit_flipped_checkpoint_is_rejected() {
        let (dir, bytes, mut fresh, batch) = corruption_fixture("bitflip");
        let flipped = |at: usize, bit: u8| {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= bit;
            corrupt
        };
        // Envelope header: magic, version and length fields.
        let err = rejection(&mut fresh, &batch, &dir, &flipped(0, 0x10));
        assert!(matches!(err, PackError::BadMagic(_)), "{err}");
        assert_eq!(
            rejection(&mut fresh, &batch, &dir, &flipped(8, 0x10)),
            PackError::BadVersion(ENVELOPE_VERSION ^ 0x10)
        );
        let err = rejection(&mut fresh, &batch, &dir, &flipped(19, 0x10));
        assert!(matches!(err, PackError::Truncated(_)), "length field grown past the file: {err}");
        // Payload, from the sealed section header on: without the CRC these
        // would load fine and silently corrupt a weight.
        for at in [20, bytes.len() / 2, bytes.len() - 5] {
            let err = rejection(&mut fresh, &batch, &dir, &flipped(at, 0x10));
            assert!(matches!(err, PackError::ChecksumMismatch { .. }), "flip at {at}: {err}");
        }
        // A corrupt trailer bit reports as a mismatch too.
        let err = rejection(&mut fresh, &batch, &dir, &flipped(bytes.len() - 1, 0x01));
        assert!(matches!(err, PackError::ChecksumMismatch { .. }), "trailer: {err}");
        assert_pristine_loads(&mut fresh, &dir, &bytes);
    }

    #[test]
    fn non_checkpoint_bytes_are_rejected() {
        let (dir, bytes, mut fresh, batch) = corruption_fixture("magic");
        let junk = b"definitely not a checkpoint at all";
        let err = rejection(&mut fresh, &batch, &dir, junk);
        assert!(matches!(err, PackError::BadMagic(_)), "{err}");
        assert_pristine_loads(&mut fresh, &dir, &bytes);
    }

    #[test]
    fn old_payload_version_is_rejected() {
        // A v2 section stream (which carried an embedding-table section),
        // sealed in a valid envelope.
        let (dir, bytes, mut fresh, batch) = corruption_fixture("v2");
        let mut payload = unseal(&bytes, DENSE_FILE).unwrap().to_vec();
        payload[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(rejection(&mut fresh, &batch, &dir, &seal(payload)), PackError::BadVersion(2));
        assert_pristine_loads(&mut fresh, &dir, &bytes);
    }

    #[test]
    fn wrong_architecture_fails_loud() {
        let (dir, bytes, _, batch) = corruption_fixture("arch");
        let cfg = WorldConfig::tiny();
        let mut other = Basm::new(&cfg, BasmConfig { tower: vec![48, 16], ..BasmConfig::default() });
        // The tower's first BN layer is 48 wide instead of the saved one.
        let err = rejection(&mut other, &batch, &dir, &bytes);
        assert_eq!(err, PackError::ShapeMismatch("bn running stats".into()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
