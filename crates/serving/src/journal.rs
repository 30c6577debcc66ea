//! Write-ahead log for online serving state (DESIGN.md §13).
//!
//! The [`FeatureServer`](crate::FeatureServer)'s clicks, exposure counters
//! and behavior histories *are* model state under BASM's continuous
//! adaptation — a crash that forgets them is a correctness failure, not an
//! ops nuisance. This journal makes them recoverable: every state-changing
//! write appends one CRC'd record **before** the in-memory mutation, so a
//! process that dies at any instant can rebuild the exact feature-server
//! bytes by replaying the log into a fresh server.
//!
//! ## File format
//!
//! ```text
//! "BASMWAL1"                                magic, 8 bytes
//! frame*                                    append-only
//! frame := tag u8 | len u32 | payload | crc32(tag ‖ len ‖ payload)
//! ```
//!
//! Record payloads (all little-endian; events are the 14-byte
//! [`BehaviorEvent`] encoding):
//!
//! | tag | record      | payload |
//! |-----|-------------|---------|
//! | 1   | `Click`     | uid u32, ordered u8, event |
//! | 2   | `Exposures` | n_lists u32, (n u32, item u32 × n) × n_lists |
//! | 3   | `Seed`      | uid u32, n u32, event × n |
//! | 4   | `Snapshot`  | full feature-server state (baseline when a journal attaches mid-life) |
//! | 5   | `Seal`      | total record count (clean-shutdown marker) |
//!
//! One `Exposures` record carries **a whole microbatch** — that record is
//! the front-end's atomic commit unit, which is what makes supervised
//! restart exactly-once: either the batch's record is durable (replay
//! rebuilds its counters; the batch completed) or it is absent/torn (the
//! supervisor re-enqueues the batch; no half-counted exposures).
//!
//! ## Torn tails vs. corruption
//!
//! Appends are sequential, so a crash mid-append leaves an *incomplete
//! final frame* — recovery drops it, truncates the file back to the last
//! complete frame, and counts the bytes under `serving.wal_torn_bytes`
//! (same rule, and same soundness argument, as the pack store's delta
//! replay). A CRC mismatch on a *complete* frame, an unknown tag, or a bad
//! magic can never result from a torn append and fail loud.
//!
//! ## Crash coupling
//!
//! All file IO runs through the kill-point shim
//! (`basm_tensor::packstore::crash`), so [`CrashPlan`]
//! sweeps enumerate the journal's write ops exactly like the pack store's.
//! An *injected* append failure is turned into a panic by the feature
//! server — the supervised front-end's `catch_unwind` treats it as the
//! process death it simulates; a *real* append error is counted
//! (`serving.wal_append_errors`) and tolerated, trading durability of that
//! record for availability.
//!
//! [`CrashPlan`]: basm_tensor::packstore::CrashPlan

use basm_data::BehaviorEvent;
use basm_tensor::packstore::{crash, crc32};
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

/// File magic: `BASMWAL` + format version `1`.
pub const WAL_MAGIC: &[u8; 8] = b"BASMWAL1";

const TAG_CLICK: u8 = 1;
const TAG_EXPOSURES: u8 = 2;
const TAG_SEED: u8 = 3;
const TAG_SNAPSHOT: u8 = 4;
const TAG_SEAL: u8 = 5;

/// A full feature-server state baseline (tag 4): written when a journal
/// attaches to a server that already holds state, so replay never needs
/// history from before the journal existed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalSnapshot {
    /// Global click-write version.
    pub clicks_version: u64,
    /// Per-user write versions.
    pub history_version: Vec<u64>,
    /// Per-user behavior sequences (front = oldest, as stored).
    pub history: Vec<Vec<BehaviorEvent>>,
    /// Cumulative clicks per user.
    pub user_clicks: Vec<u32>,
    /// Cumulative orders per user.
    pub user_orders: Vec<u32>,
    /// Cumulative clicks per item.
    pub item_clicks: Vec<u32>,
    /// Cumulative exposures per item.
    pub item_exposures: Vec<u32>,
}

/// One journal record (see the module docs for the encoding).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A click ingested via `record_click`.
    Click {
        /// Clicking user.
        uid: u32,
        /// Whether the click converted to an order.
        ordered: bool,
        /// The behavior event appended to the user's history.
        event: BehaviorEvent,
    },
    /// Exposure write-back: one record per committed microbatch (the
    /// front-end's atomic unit), one inner list per request.
    Exposures {
        /// Exposed item ids, per request, in admission order.
        lists: Vec<Vec<u32>>,
    },
    /// A `seed_history` call (one version bump per record, like the live
    /// path).
    Seed {
        /// Seeded user.
        uid: u32,
        /// Events appended (pre-cap; replay re-applies the cap).
        events: Vec<BehaviorEvent>,
    },
    /// Full-state baseline (see [`WalSnapshot`]).
    Snapshot(Box<WalSnapshot>),
    /// Clean-shutdown marker carrying the record count before it.
    Seal {
        /// Records written before this seal.
        records: u64,
    },
}

/// What recovery found in a journal file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Complete records recovered.
    pub records: u64,
    /// Bytes of torn tail dropped (0 on a clean file).
    pub torn_bytes: u64,
    /// Whether the last record was a matching [`WalRecord::Seal`].
    pub sealed: bool,
}

struct Inner {
    path: PathBuf,
    /// Bytes known to hold complete, durable frames (magic included).
    valid_len: u64,
    /// Complete records in the file (recovered + appended).
    records: u64,
}

/// An append-only feature-state journal. Appends are serialized by an
/// internal mutex; recovery happens once, at open.
pub struct Journal {
    inner: Mutex<Inner>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// 14-byte event encoding (field order matches the struct).
fn put_event(out: &mut Vec<u8>, e: &BehaviorEvent) {
    put_u32(out, e.item);
    out.extend_from_slice(&e.cat.to_le_bytes());
    out.extend_from_slice(&e.brand.to_le_bytes());
    out.push(e.tp);
    out.push(e.hour);
    out.extend_from_slice(&e.city.to_le_bytes());
    out.push(e.gx);
    out.push(e.gy);
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let s = self
            .bytes
            .get(self.at..self.at + n)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "wal: short payload"))?;
        self.at += n;
        Ok(s)
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }
    fn event(&mut self) -> io::Result<BehaviorEvent> {
        Ok(BehaviorEvent {
            item: self.u32()?,
            cat: self.u16()?,
            brand: self.u16()?,
            tp: self.u8()?,
            hour: self.u8()?,
            city: self.u16()?,
            gx: self.u8()?,
            gy: self.u8()?,
        })
    }
    fn u32s(&mut self, n: usize) -> io::Result<Vec<u32>> {
        (0..n).map(|_| self.u32()).collect()
    }
    fn u64s(&mut self, n: usize) -> io::Result<Vec<u64>> {
        (0..n).map(|_| self.u64()).collect()
    }
    fn finish(self) -> io::Result<()> {
        if self.at != self.bytes.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "wal: trailing payload bytes"));
        }
        Ok(())
    }
}

impl WalRecord {
    fn tag(&self) -> u8 {
        match self {
            WalRecord::Click { .. } => TAG_CLICK,
            WalRecord::Exposures { .. } => TAG_EXPOSURES,
            WalRecord::Seed { .. } => TAG_SEED,
            WalRecord::Snapshot(_) => TAG_SNAPSHOT,
            WalRecord::Seal { .. } => TAG_SEAL,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Click { uid, ordered, event } => {
                put_u32(&mut out, *uid);
                out.push(u8::from(*ordered));
                put_event(&mut out, event);
            }
            WalRecord::Exposures { lists } => {
                put_u32(&mut out, lists.len() as u32);
                for l in lists {
                    put_u32(&mut out, l.len() as u32);
                    for &item in l {
                        put_u32(&mut out, item);
                    }
                }
            }
            WalRecord::Seed { uid, events } => {
                put_u32(&mut out, *uid);
                put_u32(&mut out, events.len() as u32);
                for e in events {
                    put_event(&mut out, e);
                }
            }
            WalRecord::Snapshot(s) => {
                put_u32(&mut out, s.history.len() as u32);
                put_u32(&mut out, s.item_clicks.len() as u32);
                put_u64(&mut out, s.clicks_version);
                for &v in &s.history_version {
                    put_u64(&mut out, v);
                }
                for h in &s.history {
                    put_u32(&mut out, h.len() as u32);
                    for e in h {
                        put_event(&mut out, e);
                    }
                }
                for &v in &s.user_clicks {
                    put_u32(&mut out, v);
                }
                for &v in &s.user_orders {
                    put_u32(&mut out, v);
                }
                for &v in &s.item_clicks {
                    put_u32(&mut out, v);
                }
                for &v in &s.item_exposures {
                    put_u32(&mut out, v);
                }
            }
            WalRecord::Seal { records } => put_u64(&mut out, *records),
        }
        out
    }

    fn decode(tag: u8, payload: &[u8]) -> io::Result<Self> {
        let mut r = Reader { bytes: payload, at: 0 };
        let rec = match tag {
            TAG_CLICK => {
                let uid = r.u32()?;
                let ordered = r.u8()? != 0;
                let event = r.event()?;
                WalRecord::Click { uid, ordered, event }
            }
            TAG_EXPOSURES => {
                let n = r.u32()? as usize;
                let mut lists = Vec::with_capacity(n);
                for _ in 0..n {
                    let m = r.u32()? as usize;
                    lists.push(r.u32s(m)?);
                }
                WalRecord::Exposures { lists }
            }
            TAG_SEED => {
                let uid = r.u32()?;
                let n = r.u32()? as usize;
                let events = (0..n).map(|_| r.event()).collect::<io::Result<_>>()?;
                WalRecord::Seed { uid, events }
            }
            TAG_SNAPSHOT => {
                let n_users = r.u32()? as usize;
                let n_items = r.u32()? as usize;
                let clicks_version = r.u64()?;
                let history_version = r.u64s(n_users)?;
                let mut history = Vec::with_capacity(n_users);
                for _ in 0..n_users {
                    let m = r.u32()? as usize;
                    history.push((0..m).map(|_| r.event()).collect::<io::Result<_>>()?);
                }
                let user_clicks = r.u32s(n_users)?;
                let user_orders = r.u32s(n_users)?;
                let item_clicks = r.u32s(n_items)?;
                let item_exposures = r.u32s(n_items)?;
                WalRecord::Snapshot(Box::new(WalSnapshot {
                    clicks_version,
                    history_version,
                    history,
                    user_clicks,
                    user_orders,
                    item_clicks,
                    item_exposures,
                }))
            }
            TAG_SEAL => WalRecord::Seal { records: r.u64()? },
            t => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("wal: unknown record tag {t}"),
                ))
            }
        };
        r.finish()?;
        Ok(rec)
    }

    fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut frame = Vec::with_capacity(9 + payload.len());
        frame.push(self.tag());
        put_u32(&mut frame, payload.len() as u32);
        frame.extend_from_slice(&payload);
        let crc = crc32(&frame);
        put_u32(&mut frame, crc);
        frame
    }
}

impl Journal {
    /// Create a fresh journal at `path`, truncating anything there (the
    /// magic header is written durably before this returns).
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        crash::write_file(&path, WAL_MAGIC)?;
        Ok(Self {
            inner: Mutex::new(Inner {
                path,
                valid_len: WAL_MAGIC.len() as u64,
                records: 0,
            }),
        })
    }

    /// Open a journal, replaying whatever it holds: returns the journal
    /// (positioned to append after the last complete frame), the recovered
    /// records in order, and recovery stats. A missing file — or a file
    /// whose magic itself is torn — starts fresh. A torn final frame is
    /// dropped and truncated; corruption of a *complete* frame fails loud.
    pub fn recover(path: impl Into<PathBuf>) -> io::Result<(Self, Vec<WalRecord>, WalStats)> {
        let path = path.into();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        if bytes.len() < WAL_MAGIC.len() {
            // Missing or torn-before-the-magic: nothing recoverable.
            let j = Self::create(path)?;
            return Ok((j, Vec::new(), WalStats::default()));
        }
        if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "wal: bad magic"));
        }
        let mut records = Vec::new();
        let mut stats = WalStats::default();
        let mut at = WAL_MAGIC.len();
        while at < bytes.len() {
            let Some(header) = bytes.get(at..at + 5) else { break };
            let len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes")) as usize;
            let Some(frame) = bytes.get(at..at + 5 + len + 4) else { break };
            let stored = u32::from_le_bytes(frame[5 + len..].try_into().expect("4 bytes"));
            let actual = crc32(&frame[..5 + len]);
            if stored != actual {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("wal: crc mismatch at byte {at} (stored {stored:#x}, actual {actual:#x})"),
                ));
            }
            let rec = WalRecord::decode(frame[0], &frame[5..5 + len])?;
            stats.sealed = matches!(rec, WalRecord::Seal { records: n } if n == stats.records);
            if !matches!(rec, WalRecord::Seal { .. }) {
                stats.records += 1;
                records.push(rec);
            }
            at += 5 + len + 4;
        }
        if at < bytes.len() {
            // Incomplete final frame: the signature of a crash mid-append.
            stats.torn_bytes = (bytes.len() - at) as u64;
            basm_obs::counter_add("serving.wal_torn_bytes", stats.torn_bytes);
            if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&path) {
                let _ = f.set_len(at as u64);
                let _ = f.sync_all();
            }
        }
        let journal = Self {
            inner: Mutex::new(Inner {
                path,
                valid_len: at as u64,
                records: stats.records,
            }),
        };
        Ok((journal, records, stats))
    }

    /// Append one record durably (fsync before returning). On error the
    /// file may carry a torn tail; the next append repairs it and the next
    /// recovery drops it — valid frames are never buried behind garbage.
    pub fn append(&self, rec: &WalRecord) -> io::Result<()> {
        let frame = rec.encode_frame();
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        // Repair a torn tail left by a previously failed append.
        if let Ok(md) = std::fs::metadata(&inner.path) {
            if md.len() != inner.valid_len {
                if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&inner.path) {
                    let _ = f.set_len(inner.valid_len);
                    let _ = f.sync_all();
                }
            }
        }
        crash::append_file(&inner.path, &frame)?;
        inner.valid_len += frame.len() as u64;
        inner.records += 1;
        Ok(())
    }

    /// Append a [`WalRecord::Seal`] carrying the current record count — the
    /// clean-shutdown marker `recover` reports via [`WalStats::sealed`].
    pub fn seal(&self) -> io::Result<()> {
        let records = self.inner.lock().unwrap_or_else(|p| p.into_inner()).records;
        self.append(&WalRecord::Seal { records })?;
        // A seal is a marker, not a record of state.
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).records = records;
        Ok(())
    }

    /// Complete records appended or recovered so far (seals excluded).
    pub fn records(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).records
    }

    /// The journal's file path.
    pub fn path(&self) -> PathBuf {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).path.clone()
    }
}

/// A unique temp-file path for a journal: unique across threads and across
/// processes even under pid reuse, via the pack store's process token.
pub fn fresh_wal_path() -> PathBuf {
    basm_tensor::packstore::fresh_temp_dir().with_extension("wal")
}

/// Turn a WAL-append failure into the right control flow: an **injected**
/// kill becomes a panic (the supervised front-end's `catch_unwind` treats
/// it as the process death it simulates); a **real** IO error is counted
/// and tolerated — the record is lost but serving keeps answering.
pub(crate) fn absorb_append_error(e: io::Error) {
    if crash::is_injected_crash(&e) {
        panic!("injected crash during WAL append: {e}");
    }
    basm_obs::counter_add("serving.wal_append_errors", 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(item: u32) -> BehaviorEvent {
        BehaviorEvent { item, cat: 2, brand: 3, tp: 1, hour: 12, city: 4, gx: 5, gy: 6 }
    }

    #[test]
    fn records_roundtrip_through_frames() {
        let records = vec![
            WalRecord::Click { uid: 7, ordered: true, event: ev(9) },
            WalRecord::Exposures { lists: vec![vec![1, 2, 3], vec![], vec![4]] },
            WalRecord::Seed { uid: 0, events: vec![ev(1), ev(2)] },
            WalRecord::Snapshot(Box::new(WalSnapshot {
                clicks_version: 5,
                history_version: vec![1, 0],
                history: vec![vec![ev(1)], vec![]],
                user_clicks: vec![1, 0],
                user_orders: vec![0, 0],
                item_clicks: vec![0, 1, 0],
                item_exposures: vec![2, 0, 0],
            })),
            WalRecord::Seal { records: 4 },
        ];
        for rec in &records {
            let frame = rec.encode_frame();
            let len = u32::from_le_bytes(frame[1..5].try_into().unwrap()) as usize;
            let decoded = WalRecord::decode(frame[0], &frame[5..5 + len]).unwrap();
            assert_eq!(&decoded, rec);
        }
    }

    #[test]
    fn append_recover_roundtrip_and_seal() {
        let path = fresh_wal_path();
        let j = Journal::create(&path).unwrap();
        j.append(&WalRecord::Click { uid: 1, ordered: false, event: ev(3) }).unwrap();
        j.append(&WalRecord::Exposures { lists: vec![vec![3, 4]] }).unwrap();
        j.seal().unwrap();
        assert_eq!(j.records(), 2);
        drop(j);

        let (j2, records, stats) = Journal::recover(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(stats, WalStats { records: 2, torn_bytes: 0, sealed: true });
        // Appending after recovery continues the same log.
        j2.append(&WalRecord::Click { uid: 2, ordered: true, event: ev(5) }).unwrap();
        drop(j2);
        let (_, records, stats) = Journal::recover(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert!(!stats.sealed, "a post-seal append unseals the log");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let path = fresh_wal_path();
        let j = Journal::create(&path).unwrap();
        j.append(&WalRecord::Click { uid: 1, ordered: false, event: ev(3) }).unwrap();
        drop(j);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: half of a valid frame.
        let frame = WalRecord::Exposures { lists: vec![vec![9, 9, 9]] }.encode_frame();
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&frame[..frame.len() / 2]).unwrap();
        }
        let (j2, records, stats) = Journal::recover(&path).unwrap();
        assert_eq!(records.len(), 1, "complete frames survive");
        assert_eq!(stats.torn_bytes, (frame.len() / 2) as u64);
        drop(j2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len, "tail truncated");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_complete_frame_fails_loud() {
        let path = fresh_wal_path();
        let j = Journal::create(&path).unwrap();
        j.append(&WalRecord::Click { uid: 1, ordered: false, event: ev(3) }).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = WAL_MAGIC.len() + 6;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(Journal::recover(&path).is_err(), "bit rot in a complete frame must not replay");
        let _ = std::fs::remove_file(&path);
    }
}
