//! Binary encoding of dense parameters: the `dense.ckpt` payload of a model
//! checkpoint directory (`basm_core::checkpoint`).
//!
//! The paper's deployment flow (Fig. 13) trains offline (AOP) and ships the
//! model to a Real-Time Prediction service. This module encodes the
//! [`ParamStore`] half of that handoff as a versioned little-endian binary
//! section, restored **by name** so a checkpoint survives reordering of layer
//! construction (but not renaming). Embedding tables never pass through it:
//! they live in pack directories next to it (`basm_tensor::packstore`).

use crate::packstore::format::{put_f32s, put_str, put_u32, put_u64, Cursor, PackError};
use crate::params::ParamStore;
use crate::tensor::Tensor;
use std::collections::HashMap;

const MAGIC: &[u8; 8] = b"BASMCKPT";
// v3 is dense parameters only. v2 followed them with an embedding-table
// section (written empty by checkpoint directories); it is rejected.
const VERSION: u32 = 3;

/// Encode the header and the dense-parameter section. Callers append their
/// own sections after it (the model's batch-norm statistics).
pub fn begin_checkpoint(params: &ParamStore) -> Vec<u8> {
    let mut buf = MAGIC.to_vec();
    put_u32(&mut buf, VERSION);
    put_u32(&mut buf, params.len() as u32);
    for id in params.ids() {
        put_str(&mut buf, params.name(id));
        let t = params.value(id);
        put_u32(&mut buf, t.rows() as u32);
        put_u32(&mut buf, t.cols() as u32);
        put_u64(&mut buf, t.data().len() as u64);
        put_f32s(&mut buf, t.data());
    }
    buf
}

/// A parsed dense-parameter section.
pub struct ParsedCheckpoint {
    dense: HashMap<String, ((usize, usize), Vec<f32>)>,
}

impl ParsedCheckpoint {
    /// Parse and validate the header and the dense-parameter section,
    /// leaving `c` at the caller's own sections (e.g. model-specific
    /// batch-norm statistics).
    pub fn parse(c: &mut Cursor) -> Result<Self, PackError> {
        c.magic(MAGIC)?;
        c.version(VERSION)?;
        // An entry is at least a name length, rows, cols and an f32 count.
        let n_params = c.count(20)?;
        let mut dense = HashMap::new();
        for _ in 0..n_params {
            let name = c.str()?;
            let rows = c.u32()? as usize;
            let cols = c.u32()? as usize;
            let n = usize::try_from(c.u64()?).unwrap_or(usize::MAX);
            let data = c.f32s(n)?;
            if Some(n) != rows.checked_mul(cols) {
                return Err(PackError::ShapeMismatch(name));
            }
            dense.insert(name, ((rows, cols), data));
        }
        Ok(ParsedCheckpoint { dense })
    }

    /// Restore dense parameters (by name; shapes must match). Every entry is
    /// checked before any is written, so a mismatch leaves the store as it
    /// was.
    pub fn apply_params(&self, params: &mut ParamStore) -> Result<(), PackError> {
        let ids: Vec<_> = params.ids().collect();
        for &id in &ids {
            let name = params.name(id);
            let ((rows, cols), _) =
                self.dense.get(name).ok_or_else(|| PackError::Missing(name.to_string()))?;
            if params.value(id).shape() != (*rows, *cols) {
                return Err(PackError::ShapeMismatch(name.to_string()));
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
        begin_checkpoint(p)
    }

    fn load(bytes: &[u8], p: &mut ParamStore) -> Result<(), PackError> {
        ParsedCheckpoint::parse(&mut Cursor::new(bytes, "t"))?.apply_params(p)
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
        // The parse stops exactly at the section's end, so the caller sees
        // anything appended after it as unconsumed and rejects it.
        let (p, _) = setup();
        let clean = encode(&p);
        let mut bytes = clean.clone();
        bytes.extend_from_slice(b"junk");
        let mut c = Cursor::new(&bytes, "t");
        ParsedCheckpoint::parse(&mut c).unwrap();
        assert_eq!(c.position(), clean.len());
        assert_eq!(c.finish(), Err(PackError::TrailingBytes("t".into())));
    }

    #[test]
    fn wrong_magic_rejected() {
        let (mut p, _) = setup();
        assert_eq!(load(b"NOTACKPTxxxx", &mut p), Err(PackError::BadMagic("t".into())));
    }

    #[test]
    fn truncation_rejected() {
        let (p, _) = setup();
        let bytes = encode(&p);
        let (mut p2, _) = setup();
        let err = load(&bytes[..bytes.len() - 7], &mut p2).unwrap_err();
        assert_eq!(err, PackError::Truncated("t".into()));
    }

    #[test]
    fn missing_entry_rejected() {
        let (p, mut rng) = setup();
        let bytes = encode(&p);
        let mut p2 = ParamStore::new();
        p2.add("other.w", rng.randn(3, 4, 1.0));
        let err = load(&bytes, &mut p2).unwrap_err();
        assert_eq!(err, PackError::Missing("other.w".into()));
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
        assert_eq!(err, PackError::ShapeMismatch("a.w".into()));
        // Checked before written: the matching entry kept its value.
        assert_eq!(p2.value(p2.id_of("a.b").unwrap()).data(), before.data());
    }
}
