//! JSONL (one JSON object per line) emitters.
//!
//! Two layers:
//!
//! * [`JsonlWriter`] — an owned, buffered writer for code that manages its
//!   own file handle.
//! * **Named streams** — a process-global registry ([`open_stream`] /
//!   [`emit`] / [`close_stream`]) that lets instrumented library code (e.g.
//!   the trainer's per-step log) emit records *without* owning a file: if no
//!   binary opened the stream, or telemetry is disabled, [`emit`] is a no-op.
//!   This keeps unit tests from scattering log files while letting
//!   experiment binaries opt in with one call.
//!
//! Values are built from plain Rust scalars via `From` conversions:
//!
//! ```
//! use basm_obs::jsonl::{to_line, Value};
//!
//! let line = to_line(&[
//!     ("step", Value::from(3u64)),
//!     ("loss", Value::from(0.25f64)),
//!     ("model", Value::from("BASM")),
//! ]);
//! assert_eq!(line, r#"{"step": 3, "loss": 0.25, "model": "BASM"}"#);
//! ```

use crate::report::json_f64;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A JSON scalar value for one record field.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U(u64),
    /// Signed integer.
    I(i64),
    /// Float (serialized as `null` when non-finite).
    F(f64),
    /// String (escaped on write).
    S(String),
    /// Boolean.
    B(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F(v as f64)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::S(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::S(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::B(v)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render one record as a single JSON object line (no trailing newline).
pub fn to_line(fields: &[(&str, Value)]) -> String {
    let mut out = String::from("{");
    for (i, (name, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": ", escape(name)));
        match v {
            Value::U(x) => out.push_str(&x.to_string()),
            Value::I(x) => out.push_str(&x.to_string()),
            Value::F(x) => out.push_str(&json_f64(*x)),
            Value::S(x) => out.push_str(&format!("\"{}\"", escape(x))),
            Value::B(x) => out.push_str(if *x { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

/// Buffered line-per-record JSON writer.
pub struct JsonlWriter {
    w: BufWriter<File>,
    path: PathBuf,
}

impl JsonlWriter {
    /// Create (truncate) the file at `path`, creating parent directories.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(Self { w: BufWriter::new(File::create(&path)?), path })
    }

    /// Append one record. Errors are reported once to stderr and otherwise
    /// swallowed — telemetry must never abort the computation it observes.
    pub fn emit(&mut self, fields: &[(&str, Value)]) {
        let line = to_line(fields);
        if let Err(e) = writeln!(self.w, "{line}") {
            eprintln!("[basm-obs] write {}: {e}", self.path.display());
        }
    }

    /// Flush buffered records to disk.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// The destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for JsonlWriter {
    fn drop(&mut self) {
        let _ = self.w.flush();
    }
}

fn streams() -> MutexGuard<'static, HashMap<&'static str, JsonlWriter>> {
    static STREAMS: OnceLock<Mutex<HashMap<&'static str, JsonlWriter>>> = OnceLock::new();
    STREAMS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Open (or replace) the named stream, truncating `path`. Subsequent
/// [`emit`] calls with the same name append records there. No-op (returning
/// `Ok`) when telemetry is disabled.
pub fn open_stream(name: &'static str, path: impl AsRef<Path>) -> io::Result<()> {
    if !crate::enabled() {
        return Ok(());
    }
    let writer = JsonlWriter::create(path)?;
    streams().insert(name, writer);
    Ok(())
}

/// Whether [`emit`] to this stream would write anywhere. Callers computing
/// expensive record fields (e.g. a gradient norm) should check this first.
pub fn stream_open(name: &'static str) -> bool {
    crate::enabled() && streams().contains_key(name)
}

/// Append a record to the named stream; silently does nothing when the
/// stream was never opened or telemetry is disabled.
pub fn emit(name: &'static str, fields: &[(&str, Value)]) {
    if !crate::enabled() {
        return;
    }
    if let Some(w) = streams().get_mut(name) {
        w.emit(fields);
    }
}

/// Flush and close the named stream, returning its path if it was open.
pub fn close_stream(name: &'static str) -> Option<PathBuf> {
    streams().remove(name).map(|mut w| {
        let _ = w.flush();
        w.path().to_path_buf()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_render_all_value_kinds() {
        let line = to_line(&[
            ("u", Value::from(7usize)),
            ("i", Value::I(-3)),
            ("f", Value::from(1.5f32)),
            ("nan", Value::F(f64::NAN)),
            ("s", Value::from("a\"b")),
            ("b", Value::from(true)),
        ]);
        assert_eq!(
            line,
            r#"{"u": 7, "i": -3, "f": 1.5, "nan": null, "s": "a\"b", "b": true}"#
        );
    }

    #[test]
    fn writer_appends_one_line_per_record() {
        let dir = std::env::temp_dir().join("basm_obs_jsonl_test");
        let path = dir.join("records.jsonl");
        let mut w = JsonlWriter::create(&path).unwrap();
        w.emit(&[("step", Value::from(1u64))]);
        w.emit(&[("step", Value::from(2u64))]);
        w.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec![r#"{"step": 1}"#, r#"{"step": 2}"#]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unopened_stream_swallows_records() {
        // Never opened: must be a silent no-op whether telemetry is on or off.
        emit("never_opened", &[("x", Value::from(1u64))]);
        assert!(!stream_open("never_opened"));
        assert_eq!(close_stream("never_opened"), None);
    }
}
