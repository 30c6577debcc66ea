//! ABFS-like feature server: the online store of user behavior sequences and
//! statistics counters (Fig. 13: "TPP obtains user-side features ... by
//! calling Alibaba Basic Feature Server").
//!
//! Wrapped in a [`std::sync::RwLock`] because a production feature server
//! is hit concurrently by scoring and by the click-event ingestion path.
//!
//! ## Poisoned-lock recovery
//!
//! A panic on a thread holding the write lock poisons it. A production
//! feature store must keep answering — behavior sequences and counters are
//! advisory signals, and serving them slightly torn beats taking the whole
//! ranking chain down. Every lock site therefore recovers the guard from a
//! poisoned lock ([`std::sync::PoisonError::into_inner`]) and serves the
//! last-known state, counting each recovery under the
//! `serving.lock_recovered` telemetry counter (DESIGN.md §8).

//!
//! ## Journaling (DESIGN.md §13)
//!
//! With a [`Journal`] attached, every state-changing write appends a WAL
//! record **under the write lock, before the in-memory mutation** —
//! write-ahead in the literal sense. Replaying the journal into a fresh
//! server of the same geometry therefore rebuilds this one bitwise
//! (pinned by `tests/crash_recovery.rs`). Journaling never changes the
//! state a write produces, only its durability.

use crate::journal::{Journal, WalRecord, WalSnapshot};
use basm_data::{BehaviorEvent, StatCounters};
use std::collections::VecDeque;
use std::io;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

struct State {
    history: Vec<VecDeque<BehaviorEvent>>,
    counters: StatCounters,
    /// Per-user write count: bumped by `record_click` and `seed_history`
    /// (never by exposures). Persisted in WAL snapshots.
    history_version: Vec<u64>,
    /// Global click-write count: bumped by every `record_click`. Persisted
    /// in WAL snapshots.
    clicks_version: u64,
}

/// Online user/item feature state.
pub struct FeatureServer {
    state: RwLock<State>,
    max_history: usize,
    /// Optional write-ahead log. Appends happen while the state write guard
    /// is held, so the journal's record order is exactly the state's write
    /// order without a second lock level.
    journal: Option<Journal>,
}

impl FeatureServer {
    /// Read access that survives poisoning: serve the last-known state.
    fn read_state(&self) -> RwLockReadGuard<'_, State> {
        self.state.read().unwrap_or_else(|poisoned| {
            basm_obs::counter_add("serving.lock_recovered", 1);
            poisoned.into_inner()
        })
    }

    /// Write access that survives poisoning: mutate the last-known state.
    fn write_state(&self) -> RwLockWriteGuard<'_, State> {
        self.state.write().unwrap_or_else(|poisoned| {
            basm_obs::counter_add("serving.lock_recovered", 1);
            poisoned.into_inner()
        })
    }

    /// Fresh server for `n_users`/`n_items`, retaining up to `max_history`
    /// behavior events per user.
    pub fn new(n_users: usize, n_items: usize, max_history: usize) -> Self {
        Self {
            state: RwLock::new(State {
                history: vec![VecDeque::new(); n_users],
                counters: StatCounters::new(n_users, n_items),
                history_version: vec![0; n_users],
                clicks_version: 0,
            }),
            max_history,
            journal: None,
        }
    }

    /// Append `rec` to the attached journal, if any. Called with the state
    /// write guard held, before the matching mutation. Injected crashes
    /// panic (simulated process death); real IO errors are counted and
    /// tolerated (see `journal::absorb_append_error`).
    fn journal_append(&self, rec: &WalRecord) {
        if let Some(j) = &self.journal {
            if let Err(e) = j.append(rec) {
                crate::journal::absorb_append_error(e);
            }
        }
    }

    /// Seed a user's history (e.g. from the offline log's warm state).
    pub fn seed_history(&self, uid: usize, events: impl IntoIterator<Item = BehaviorEvent>) {
        let events: Vec<BehaviorEvent> = events.into_iter().collect();
        let mut s = self.write_state();
        self.journal_append(&WalRecord::Seed { uid: uid as u32, events: events.clone() });
        Self::apply_seed(&mut s, self.max_history, uid, &events);
    }

    fn apply_seed(s: &mut State, max_history: usize, uid: usize, events: &[BehaviorEvent]) {
        s.history_version[uid] += 1;
        let h = &mut s.history[uid];
        for &ev in events {
            h.push_back(ev);
            while h.len() > max_history {
                h.pop_front();
            }
        }
    }

    /// A user's write count (see the `history_version` field). WAL replay
    /// must restore it; `tests/crash_recovery.rs` compares it.
    pub fn history_version(&self, uid: usize) -> u64 {
        self.read_state().history_version[uid]
    }

    /// The global click-write count (see the `clicks_version` field).
    pub fn clicks_version(&self) -> u64 {
        self.read_state().clicks_version
    }

    /// Snapshot a user's behavior sequence (most recent last, as stored).
    pub fn history_snapshot(&self, uid: usize) -> VecDeque<BehaviorEvent> {
        self.read_state().history[uid].clone()
    }

    /// Run `f` with read access to the counters.
    pub fn with_counters<R>(&self, f: impl FnOnce(&StatCounters) -> R) -> R {
        f(&self.read_state().counters)
    }

    /// Ingest an exposure event.
    pub fn record_exposure(&self, iid: u32) {
        let mut s = self.write_state();
        self.journal_append(&WalRecord::Exposures { lists: vec![vec![iid]] });
        s.counters.item_exposures[iid as usize] += 1;
    }

    /// Ingest a microbatch of exposure write-backs as **one atomic journal
    /// record** (one inner list per request, admission order). Counter-wise
    /// this is exactly `record_exposure` per item; the batching exists so a
    /// crash can never leave half a microbatch's exposures durable — the
    /// supervised front-end's exactly-once unit (DESIGN.md §13).
    pub fn record_exposures(&self, lists: &[Vec<u32>]) {
        let mut s = self.write_state();
        self.journal_append(&WalRecord::Exposures { lists: lists.to_vec() });
        Self::apply_exposures(&mut s, lists);
    }

    fn apply_exposures(s: &mut State, lists: &[Vec<u32>]) {
        for l in lists {
            for &iid in l {
                s.counters.item_exposures[iid as usize] += 1;
            }
        }
    }

    /// Ingest a click event: updates counters and the behavior sequence.
    pub fn record_click(&self, uid: usize, event: BehaviorEvent, ordered: bool) {
        let mut s = self.write_state();
        self.journal_append(&WalRecord::Click { uid: uid as u32, ordered, event });
        Self::apply_click(&mut s, self.max_history, uid, event, ordered);
    }

    fn apply_click(s: &mut State, max_history: usize, uid: usize, event: BehaviorEvent, ordered: bool) {
        s.history_version[uid] += 1;
        s.clicks_version += 1;
        s.counters.user_clicks[uid] += 1;
        s.counters.item_clicks[event.item as usize] += 1;
        if ordered {
            s.counters.user_orders[uid] += 1;
        }
        let h = &mut s.history[uid];
        h.push_back(event);
        while h.len() > max_history {
            h.pop_front();
        }
    }

    /// Snapshot the full state as a WAL record payload (one read guard, so
    /// the snapshot is internally consistent).
    fn snapshot_state(&self) -> WalSnapshot {
        let s = self.read_state();
        WalSnapshot {
            clicks_version: s.clicks_version,
            history_version: s.history_version.clone(),
            history: s.history.iter().map(|h| h.iter().copied().collect()).collect(),
            user_clicks: s.counters.user_clicks.clone(),
            user_orders: s.counters.user_orders.clone(),
            item_clicks: s.counters.item_clicks.clone(),
            item_exposures: s.counters.item_exposures.clone(),
        }
    }

    /// Whether any write has ever landed (exposures included — they mutate
    /// counters without bumping a version).
    fn has_state(&self) -> bool {
        let s = self.read_state();
        s.clicks_version != 0
            || s.history_version.iter().any(|&v| v != 0)
            || s.counters.item_exposures.iter().any(|&v| v != 0)
    }

    /// Attach a journal, making every subsequent write durable. If the
    /// server already holds state, a [`WalRecord::Snapshot`] baseline is
    /// written first so replay never needs history from before the journal
    /// existed. Requires `&mut self`: attachment is a lifecycle operation,
    /// not a serving-path one.
    pub fn attach_journal(&mut self, journal: Journal) -> io::Result<()> {
        if self.has_state() {
            journal.append(&WalRecord::Snapshot(Box::new(self.snapshot_state())))?;
        }
        self.journal = Some(journal);
        Ok(())
    }

    /// Attach a journal **without** writing a baseline snapshot — the
    /// recovery path, where the journal's content already equals the state.
    pub(crate) fn install_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// Detach and return the journal (e.g. to seal it at clean shutdown).
    pub fn detach_journal(&mut self) -> Option<Journal> {
        self.journal.take()
    }

    /// Whether a journal is currently attached.
    pub fn journaling(&self) -> bool {
        self.journal.is_some()
    }

    /// Apply recovered WAL records in order, **without** journaling them
    /// (they are already durable). Geometry mismatches — a journal from a
    /// different world — fail loud rather than corrupt state.
    pub fn replay_records(&self, records: &[WalRecord]) -> io::Result<()> {
        let mut s = self.write_state();
        let bad = |what: &str| io::Error::new(
            io::ErrorKind::InvalidData,
            format!("wal replay: {what} does not fit this server's geometry"),
        );
        for rec in records {
            match rec {
                WalRecord::Click { uid, ordered, event } => {
                    let uid = *uid as usize;
                    if uid >= s.history.len()
                        || event.item as usize >= s.counters.item_clicks.len()
                    {
                        return Err(bad("click record"));
                    }
                    Self::apply_click(&mut s, self.max_history, uid, *event, *ordered);
                }
                WalRecord::Exposures { lists } => {
                    if lists
                        .iter()
                        .flatten()
                        .any(|&iid| iid as usize >= s.counters.item_exposures.len())
                    {
                        return Err(bad("exposure record"));
                    }
                    Self::apply_exposures(&mut s, lists);
                }
                WalRecord::Seed { uid, events } => {
                    let uid = *uid as usize;
                    if uid >= s.history.len() {
                        return Err(bad("seed record"));
                    }
                    Self::apply_seed(&mut s, self.max_history, uid, events);
                }
                WalRecord::Snapshot(snap) => {
                    if snap.history.len() != s.history.len()
                        || snap.item_clicks.len() != s.counters.item_clicks.len()
                    {
                        return Err(bad("snapshot record"));
                    }
                    s.clicks_version = snap.clicks_version;
                    s.history_version = snap.history_version.clone();
                    s.history = snap.history.iter().map(|h| h.iter().copied().collect()).collect();
                    s.counters.user_clicks = snap.user_clicks.clone();
                    s.counters.user_orders = snap.user_orders.clone();
                    s.counters.item_clicks = snap.item_clicks.clone();
                    s.counters.item_exposures = snap.item_exposures.clone();
                }
                WalRecord::Seal { .. } => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(item: u32) -> BehaviorEvent {
        BehaviorEvent { item, cat: 1, brand: 1, tp: 1, hour: 12, city: 0, gx: 0, gy: 0 }
    }

    #[test]
    fn click_updates_history_and_counters() {
        let fs = FeatureServer::new(2, 10, 4);
        fs.record_click(1, ev(3), true);
        fs.record_click(1, ev(4), false);
        let h = fs.history_snapshot(1);
        assert_eq!(h.len(), 2);
        assert_eq!(h.back().unwrap().item, 4);
        fs.with_counters(|c| {
            assert_eq!(c.user_clicks[1], 2);
            assert_eq!(c.user_orders[1], 1);
            assert_eq!(c.item_clicks[3], 1);
        });
    }

    #[test]
    fn history_is_capped() {
        let fs = FeatureServer::new(1, 10, 3);
        for i in 0..6 {
            fs.record_click(0, ev(i), false);
        }
        let h = fs.history_snapshot(0);
        assert_eq!(h.len(), 3);
        assert_eq!(h.front().unwrap().item, 3);
    }

    #[test]
    fn seeding_respects_cap() {
        let fs = FeatureServer::new(1, 10, 2);
        fs.seed_history(0, (0..5).map(ev));
        assert_eq!(fs.history_snapshot(0).len(), 2);
    }

    #[test]
    fn exposure_counter() {
        let fs = FeatureServer::new(1, 10, 2);
        fs.record_exposure(7);
        fs.record_exposure(7);
        fs.with_counters(|c| assert_eq!(c.item_exposures[7], 2));
    }

    /// Write-count semantics (persisted in WAL snapshots and read by
    /// `has_state`): clicks and seeds bump, exposures don't, and the
    /// history count is per user.
    #[test]
    fn versions_track_writes_not_exposures() {
        let fs = FeatureServer::new(2, 10, 4);
        assert_eq!(fs.history_version(0), 0);
        assert_eq!(fs.clicks_version(), 0);

        fs.record_exposure(3);
        fs.record_exposure(4);
        assert_eq!(fs.history_version(0), 0, "exposures must not bump the write count");
        assert_eq!(fs.clicks_version(), 0);

        fs.record_click(0, ev(3), true);
        assert_eq!(fs.history_version(0), 1);
        assert_eq!(fs.history_version(1), 0, "versions are per-user");
        assert_eq!(fs.clicks_version(), 1);

        fs.seed_history(1, (0..2).map(ev));
        assert_eq!(fs.history_version(1), 1);
        assert_eq!(fs.clicks_version(), 1, "seeding touches no counters");
    }

    #[test]
    fn recovers_from_poisoned_lock() {
        let fs = FeatureServer::new(2, 10, 4);
        fs.record_click(0, ev(3), true);

        // Poison the lock: panic on a thread holding the write guard.
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = fs.write_state();
                panic!("injected panic while holding the write lock");
            })
            .join()
        });
        assert!(poisoner.is_err(), "the poisoning thread must have panicked");

        // Reads serve the last-known state instead of panicking...
        assert_eq!(fs.history_snapshot(0).len(), 1);
        fs.with_counters(|c| assert_eq!(c.user_clicks[0], 1));
        // ...and writes keep working on it.
        fs.record_click(0, ev(4), false);
        fs.record_exposure(5);
        fs.seed_history(1, (0..2).map(ev));
        assert_eq!(fs.history_snapshot(0).len(), 2);
        assert_eq!(fs.history_snapshot(1).len(), 2);
        fs.with_counters(|c| {
            assert_eq!(c.user_clicks[0], 2);
            assert_eq!(c.item_exposures[5], 1);
        });
    }
}
