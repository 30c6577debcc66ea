//! Binary encoding of dense parameters: the `dense.ckpt` payload of a model
//! checkpoint directory (`basm_core::checkpoint`).
//!
//! The paper's deployment flow (Fig. 13) trains offline (AOP) and ships the
//! model to a Real-Time Prediction service. This module encodes the
//! [`ParamStore`] half of that handoff as a versioned little-endian binary
//! section, restored **by name** so a checkpoint survives reordering of layer
//! construction (but not renaming). Embedding tables never pass through it:
//! they live in pack directories next to it (`basm_tensor::packstore`).

use crate::params::ParamStore;
use crate::tensor::Tensor;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;

const MAGIC: &[u8; 8] = b"BASMCKPT";
// v3 is dense parameters only. v2 followed them with an embedding-table
// section (written empty by checkpoint directories); it is rejected.
const VERSION: u32 = 3;

/// Errors produced when reading a checkpoint.
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Not a checkpoint file / wrong magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Buffer ended prematurely or lengths disagree.
    Truncated,
    /// A named entry in the store (or a file of the checkpoint directory)
    /// has no counterpart in the checkpoint.
    Missing(String),
    /// Shape in the checkpoint disagrees with the live store.
    ShapeMismatch(String),
    /// The stored CRC32 does not match the payload: the checkpoint was
    /// corrupted after writing (bit flip, partial overwrite).
    ChecksumMismatch {
        /// CRC32 recorded at save time.
        stored: u32,
        /// CRC32 of the payload as read.
        actual: u32,
    },
    /// Bytes past the last valid section: a concatenated, padded, or
    /// partially overwritten file must never load as if it were clean.
    TrailingBytes,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a BASM checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::Missing(n) => write!(f, "checkpoint missing entry {n:?}"),
            CheckpointError::ShapeMismatch(n) => write!(f, "shape mismatch for {n:?}"),
            CheckpointError::ChecksumMismatch { stored, actual } => {
                write!(f, "checkpoint corrupt: stored CRC32 {stored:#010x}, payload {actual:#010x}")
            }
            CheckpointError::TrailingBytes => {
                write!(f, "checkpoint has trailing bytes after valid content")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, CheckpointError> {
    if buf.remaining() < 4 {
        return Err(CheckpointError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(CheckpointError::Truncated);
    }
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| CheckpointError::Truncated)
}

fn put_f32s(buf: &mut BytesMut, data: &[f32]) {
    buf.put_u64_le(data.len() as u64);
    for &v in data {
        buf.put_f32_le(v);
    }
}

fn get_f32s(buf: &mut Bytes) -> Result<Vec<f32>, CheckpointError> {
    if buf.remaining() < 8 {
        return Err(CheckpointError::Truncated);
    }
    let len = buf.get_u64_le() as usize;
    if buf.remaining() < len * 4 {
        return Err(CheckpointError::Truncated);
    }
    Ok((0..len).map(|_| buf.get_f32_le()).collect())
}

/// Encode the header and the dense-parameter section. Callers append their
/// own sections after it (the model's batch-norm statistics).
pub fn begin_checkpoint(params: &ParamStore) -> BytesMut {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);

    buf.put_u32_le(params.len() as u32);
    for id in params.ids() {
        put_str(&mut buf, params.name(id));
        let t = params.value(id);
        buf.put_u32_le(t.rows() as u32);
        buf.put_u32_le(t.cols() as u32);
        put_f32s(&mut buf, t.data());
    }
    buf
}

/// A parsed dense-parameter section.
pub struct ParsedCheckpoint {
    dense: HashMap<String, ((usize, usize), Vec<f32>)>,
    consumed: usize,
}

impl ParsedCheckpoint {
    /// Parse and validate the header and the dense-parameter section.
    pub fn parse(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut buf = Bytes::copy_from_slice(bytes);
        if buf.remaining() < 12 {
            return Err(CheckpointError::Truncated);
        }
        let mut magic = [0u8; 8];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = buf.get_u32_le();
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }

        if buf.remaining() < 4 {
            return Err(CheckpointError::Truncated);
        }
        let n_params = buf.get_u32_le() as usize;
        let mut dense = HashMap::new();
        for _ in 0..n_params {
            let name = get_str(&mut buf)?;
            if buf.remaining() < 8 {
                return Err(CheckpointError::Truncated);
            }
            let rows = buf.get_u32_le() as usize;
            let cols = buf.get_u32_le() as usize;
            let data = get_f32s(&mut buf)?;
            if data.len() != rows * cols {
                return Err(CheckpointError::Truncated);
            }
            dense.insert(name, ((rows, cols), data));
        }
        let consumed = bytes.len() - buf.remaining();
        Ok(ParsedCheckpoint { dense, consumed })
    }

    /// Bytes consumed by the section — the caller's own sections (e.g.
    /// model-specific batch-norm statistics) start here.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Restore dense parameters (by name; shapes must match). Every entry is
    /// checked before any is written, so a mismatch leaves the store as it
    /// was.
    pub fn apply_params(&self, params: &mut ParamStore) -> Result<(), CheckpointError> {
        let ids: Vec<_> = params.ids().collect();
        for &id in &ids {
            let name = params.name(id);
            let ((rows, cols), _) =
                self.dense.get(name).ok_or_else(|| CheckpointError::Missing(name.to_string()))?;
            if params.value(id).shape() != (*rows, *cols) {
                return Err(CheckpointError::ShapeMismatch(name.to_string()));
            }
        }
        for id in ids {
            let ((rows, cols), data) = &self.dense[params.name(id)];
            *params.value_mut(id) = Tensor::from_vec(*rows, *cols, data.clone());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn setup() -> (ParamStore, Prng) {
        let mut rng = Prng::seeded(1);
        let mut p = ParamStore::new();
        p.add("a.w", rng.randn(3, 4, 1.0));
        p.add("a.b", rng.randn(1, 4, 1.0));
        (p, rng)
    }

    fn encode(p: &ParamStore) -> Vec<u8> {
        begin_checkpoint(p).to_vec()
    }

    fn load(bytes: &[u8], p: &mut ParamStore) -> Result<(), CheckpointError> {
        ParsedCheckpoint::parse(bytes)?.apply_params(p)
    }

    #[test]
    fn roundtrip_restores_exact_values() {
        let (p, mut rng) = setup();
        let bytes = encode(&p);

        // A fresh store with the same names but different values.
        let mut p2 = ParamStore::new();
        p2.add("a.w", rng.randn(3, 4, 9.0));
        p2.add("a.b", rng.randn(1, 4, 9.0));

        load(&bytes, &mut p2).unwrap();
        for name in ["a.w", "a.b"] {
            let (id, id2) = (p.id_of(name).unwrap(), p2.id_of(name).unwrap());
            assert_eq!(p.value(id).data(), p2.value(id2).data());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        // The section reports exactly its own length, so the caller sees
        // anything appended after it as unconsumed and rejects it.
        let (p, _) = setup();
        let clean = encode(&p);
        let mut bytes = clean.clone();
        bytes.extend_from_slice(b"junk");
        let parsed = ParsedCheckpoint::parse(&bytes).unwrap();
        assert_eq!(parsed.consumed(), clean.len());
        assert_ne!(parsed.consumed(), bytes.len());
    }

    #[test]
    fn wrong_magic_rejected() {
        let (mut p, _) = setup();
        assert_eq!(load(b"NOTACKPTxxxx", &mut p), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let (p, _) = setup();
        let bytes = encode(&p);
        let (mut p2, _) = setup();
        let err = load(&bytes[..bytes.len() - 7], &mut p2).unwrap_err();
        assert_eq!(err, CheckpointError::Truncated);
    }

    #[test]
    fn missing_entry_rejected() {
        let (p, mut rng) = setup();
        let bytes = encode(&p);
        let mut p2 = ParamStore::new();
        p2.add("other.w", rng.randn(3, 4, 1.0));
        let err = load(&bytes, &mut p2).unwrap_err();
        assert_eq!(err, CheckpointError::Missing("other.w".into()));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (p, mut rng) = setup();
        let bytes = encode(&p);
        let mut p2 = ParamStore::new();
        let before = rng.randn(1, 4, 1.0);
        p2.add("a.b", before.clone());
        p2.add("a.w", rng.randn(4, 3, 1.0)); // transposed shape
        let err = load(&bytes, &mut p2).unwrap_err();
        assert_eq!(err, CheckpointError::ShapeMismatch("a.w".into()));
        // Checked before written: the matching entry kept its value.
        assert_eq!(p2.value(p2.id_of("a.b").unwrap()).data(), before.data());
    }
}
