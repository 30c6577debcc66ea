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
//! complete frame with [`truncate_torn_tail`], and counts the bytes under
//! `serving.wal_torn_bytes`. A CRC mismatch on a *complete* frame, an
//! unknown tag, a payload that disagrees with its own counts, or a bad
//! magic can never result from a torn append and fail loud, as an
//! [`io::ErrorKind::InvalidData`] error whose source is a [`PackError`].
//! Frames are read and written with the pack store's codec
//! (`basm_tensor::packstore::format`).
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
use basm_tensor::packstore::format::{
    crc_trailed, put_crc, put_u16, put_u32, put_u64, Cursor, PackError,
};
use basm_tensor::packstore::{crash, truncate_torn_tail};
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

/// Bytes of one [`BehaviorEvent`] (field order matches the struct).
const EVENT_LEN: usize = 14;

fn put_event(out: &mut Vec<u8>, e: &BehaviorEvent) {
    put_u32(out, e.item);
    put_u16(out, e.cat);
    put_u16(out, e.brand);
    out.extend_from_slice(&[e.tp, e.hour]);
    put_u16(out, e.city);
    out.extend_from_slice(&[e.gx, e.gy]);
}

fn event(c: &mut Cursor) -> Result<BehaviorEvent, PackError> {
    Ok(BehaviorEvent {
        item: c.u32()?,
        cat: c.u16()?,
        brand: c.u16()?,
        tp: c.u8()?,
        hour: c.u8()?,
        city: c.u16()?,
        gx: c.u8()?,
        gy: c.u8()?,
    })
}

/// `n` elements read by `read`.
fn many<'a, T>(
    c: &mut Cursor<'a>,
    n: usize,
    read: impl Fn(&mut Cursor<'a>) -> Result<T, PackError>,
) -> Result<Vec<T>, PackError> {
    (0..n).map(|_| read(c)).collect()
}

/// A `u32`-counted run of events.
fn put_events(out: &mut Vec<u8>, events: &[BehaviorEvent]) {
    put_u32(out, events.len() as u32);
    events.iter().for_each(|e| put_event(out, e));
}

/// Read a [`put_events`] run.
fn events(c: &mut Cursor) -> Result<Vec<BehaviorEvent>, PackError> {
    let n = c.count(EVENT_LEN)?;
    many(c, n, event)
}

fn invalid(e: PackError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
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
                    l.iter().for_each(|&item| put_u32(&mut out, item));
                }
            }
            WalRecord::Seed { uid, events } => {
                put_u32(&mut out, *uid);
                put_events(&mut out, events);
            }
            WalRecord::Snapshot(s) => {
                put_u32(&mut out, s.history.len() as u32);
                put_u32(&mut out, s.item_clicks.len() as u32);
                put_u64(&mut out, s.clicks_version);
                s.history_version.iter().for_each(|&v| put_u64(&mut out, v));
                s.history.iter().for_each(|h| put_events(&mut out, h));
                for run in [&s.user_clicks, &s.user_orders, &s.item_clicks, &s.item_exposures] {
                    run.iter().for_each(|&v| put_u32(&mut out, v));
                }
            }
            WalRecord::Seal { records } => put_u64(&mut out, *records),
        }
        out
    }

    fn decode(tag: u8, payload: &[u8], what: &str) -> Result<Self, PackError> {
        let mut c = Cursor::new(payload, what);
        let rec = match tag {
            TAG_CLICK => WalRecord::Click {
                uid: c.u32()?,
                ordered: c.u8()? != 0,
                event: event(&mut c)?,
            },
            TAG_EXPOSURES => {
                let n = c.count(4)?;
                let lists = many(&mut c, n, |c| {
                    let m = c.count(4)?;
                    many(c, m, Cursor::u32)
                })?;
                WalRecord::Exposures { lists }
            }
            TAG_SEED => WalRecord::Seed { uid: c.u32()?, events: events(&mut c)? },
            TAG_SNAPSHOT => {
                // Per user: a version, a history count, clicks and orders.
                let n_users = c.count(20)?;
                let n_items = c.count(8)?;
                let clicks_version = c.u64()?;
                let history_version = many(&mut c, n_users, Cursor::u64)?;
                let history = many(&mut c, n_users, events)?;
                WalRecord::Snapshot(Box::new(WalSnapshot {
                    clicks_version,
                    history_version,
                    history,
                    user_clicks: many(&mut c, n_users, Cursor::u32)?,
                    user_orders: many(&mut c, n_users, Cursor::u32)?,
                    item_clicks: many(&mut c, n_items, Cursor::u32)?,
                    item_exposures: many(&mut c, n_items, Cursor::u32)?,
                }))
            }
            TAG_SEAL => WalRecord::Seal { records: c.u64()? },
            t => return Err(PackError::Corrupt(format!("{what}: unknown record tag {t}"))),
        };
        c.finish()?;
        Ok(rec)
    }

    fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut frame = Vec::with_capacity(9 + payload.len());
        frame.push(self.tag());
        put_u32(&mut frame, payload.len() as u32);
        frame.extend_from_slice(&payload);
        put_crc(&mut frame, 0);
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
        let what = path.display().to_string();
        let mut c = Cursor::new(&bytes, &what);
        c.magic(WAL_MAGIC).map_err(invalid)?;
        let mut records = Vec::new();
        let mut stats = WalStats::default();
        while c.remaining() > 0 {
            let frame = c.frame(5, |header| {
                let mut h = Cursor::new(&header[1..], &what);
                Ok((h.u32()? as usize).saturating_add(9))
            });
            // An incomplete final frame: the signature of a crash mid-append.
            let Ok(frame) = frame else { break };
            let body = crc_trailed(frame, &what).map_err(invalid)?;
            let rec = WalRecord::decode(body[0], &body[5..], &what).map_err(invalid)?;
            stats.sealed = matches!(rec, WalRecord::Seal { records: n } if n == stats.records);
            if !matches!(rec, WalRecord::Seal { .. }) {
                stats.records += 1;
                records.push(rec);
            }
        }
        let at = c.position();
        stats.torn_bytes = truncate_torn_tail(&path, at as u64);
        if stats.torn_bytes > 0 {
            basm_obs::counter_add("serving.wal_torn_bytes", stats.torn_bytes);
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
        truncate_torn_tail(&inner.path, inner.valid_len);
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
            let decoded = WalRecord::decode(frame[0], &frame[5..5 + len], "t").unwrap();
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
