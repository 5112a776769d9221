//! Multi-version concurrency control storage.
//!
//! Every cell keeps a chain of `(commit_timestamp, value-or-tombstone)`
//! versions. Reads at a timestamp return the newest version at or below that
//! timestamp and never block writers — this is what lets Firestore run
//! strongly consistent queries without read locks (paper §IV-D1: "the
//! serializability guarantee on timestamps allows Firestore to perform
//! lock-free consistent (timestamp-based) reads across a database without
//! blocking writes").

use crate::key::{Key, KeyRange};
use bytes::Bytes;
use simkit::Timestamp;
use std::collections::BTreeMap;
use std::ops::Bound;

/// One committed version of a cell: a value, or a tombstone for a delete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Version {
    /// Commit timestamp of the writing transaction.
    pub ts: Timestamp,
    /// `None` is a tombstone.
    pub value: Option<Bytes>,
}

/// The version chain of one cell, newest last.
#[derive(Clone, Debug, Default)]
pub struct VersionChain {
    versions: Vec<Version>,
}

impl VersionChain {
    /// Append a committed version. Timestamps must arrive in increasing
    /// order (guaranteed by the commit protocol's global timestamp order).
    pub fn push(&mut self, ts: Timestamp, value: Option<Bytes>) {
        debug_assert!(
            self.versions.last().is_none_or(|v| v.ts < ts),
            "versions must be appended in timestamp order"
        );
        self.versions.push(Version { ts, value });
    }

    /// The newest version at or below `ts` (`Timestamp::MAX`: the newest).
    pub fn read_at(&self, ts: Timestamp) -> Option<&Version> {
        // Version chains are short (GC keeps them trimmed); scan from the
        // newest end.
        self.versions.iter().rev().find(|v| v.ts <= ts)
    }

    /// Drop versions strictly older than the newest one at or below
    /// `before`; the newest such version must be retained so reads at
    /// `before` still succeed.
    pub fn gc(&mut self, before: Timestamp) {
        if self.versions.len() <= 1 {
            return;
        }
        // Index of the newest version with ts <= before.
        let keep_from = match self.versions.iter().rposition(|v| v.ts <= before) {
            Some(i) => i,
            None => return,
        };
        self.versions.drain(..keep_from);
    }

    /// Whether the chain is entirely tombstoned at its head and can be
    /// removed once GC has trimmed it to just that tombstone.
    pub fn is_dead(&self) -> bool {
        self.versions.len() == 1 && self.versions[0].value.is_none()
    }
}

/// An MVCC key-value store: the physical storage of one table.
#[derive(Debug, Default)]
pub struct MvccStore {
    cells: BTreeMap<Key, VersionChain>,
    /// Everything below this timestamp may have been garbage collected.
    gc_horizon: Timestamp,
}

impl MvccStore {
    /// Create an empty store.
    pub fn new() -> Self {
        MvccStore::default()
    }

    /// Apply a committed write.
    pub fn apply(&mut self, key: Key, ts: Timestamp, value: Option<Bytes>) {
        self.cells.entry(key).or_default().push(ts, value);
    }

    /// Read `key` as of `ts`: the value of the newest version at or below
    /// `ts` together with that version's commit timestamp. Tombstones and
    /// absent keys both return `Ok(None)`; reading below the GC horizon is
    /// an error. `Timestamp::MAX` reads the latest committed version.
    pub fn read(
        &self,
        key: &Key,
        ts: Timestamp,
    ) -> Result<Option<(Bytes, Timestamp)>, SnapshotTooOld> {
        if ts < self.gc_horizon {
            return Err(SnapshotTooOld);
        }
        Ok(self.cells.get(key).and_then(|chain| live_at(chain, ts)))
    }

    /// Scan live `(key, value, version timestamp)` triples in `range` as of
    /// `ts`, in key order (reverse key order when `reverse`), up to `limit`
    /// results. The version timestamp is the commit time of the version
    /// read — callers derive document `update_time` from it.
    pub fn scan(
        &self,
        range: &KeyRange,
        ts: Timestamp,
        limit: usize,
        reverse: bool,
    ) -> Result<Vec<(Key, Bytes, Timestamp)>, SnapshotTooOld> {
        if ts < self.gc_horizon {
            return Err(SnapshotTooOld);
        }
        if range.is_empty() {
            return Ok(Vec::new());
        }
        let cells = self.cells.range(bounds(range));
        let live = |(k, chain): (&Key, &VersionChain)| {
            live_at(chain, ts).map(|(value, version)| (k.clone(), value, version))
        };
        Ok(if reverse {
            cells.rev().filter_map(live).take(limit).collect()
        } else {
            cells.filter_map(live).take(limit).collect()
        })
    }

    /// Garbage-collect versions older than `before`, retaining the newest
    /// version at or below it, and dropping fully dead cells.
    pub fn gc(&mut self, before: Timestamp) {
        self.gc_horizon = self.gc_horizon.max(before);
        self.cells.retain(|_, chain| {
            chain.gc(before);
            !chain.is_dead()
        });
    }

    /// Total number of live keys (latest version is not a tombstone).
    pub fn live_keys(&self) -> usize {
        self.cells
            .values()
            .filter(|c| c.read_at(Timestamp::MAX).is_some_and(|v| v.value.is_some()))
            .count()
    }

    /// Approximate live byte size (keys + latest values).
    pub fn live_bytes(&self) -> usize {
        self.cells
            .iter()
            .filter_map(|(k, c)| Some(k.len() + c.read_at(Timestamp::MAX)?.value.as_ref()?.len()))
            .sum()
    }

    /// The median live key of `range`, used by load-based tablet splitting.
    pub fn median_key_in(&self, range: &KeyRange) -> Option<Key> {
        if range.is_empty() {
            return None;
        }
        let keys: Vec<&Key> = self.cells.range(bounds(range)).map(|(k, _)| k).collect();
        if keys.len() < 2 {
            return None;
        }
        Some(keys[keys.len() / 2].clone())
    }
}

/// The live value of `chain` as of `ts` and its version timestamp.
fn live_at(chain: &VersionChain, ts: Timestamp) -> Option<(Bytes, Timestamp)> {
    chain
        .read_at(ts)
        .and_then(|v| v.value.clone().map(|value| (value, v.ts)))
}

/// `range` as `BTreeMap` range bounds.
fn bounds(range: &KeyRange) -> (Bound<Key>, Bound<Key>) {
    let upper = match &range.end {
        Some(end) => Bound::Excluded(end.clone()),
        None => Bound::Unbounded,
    };
    (Bound::Included(range.start.clone()), upper)
}

/// Error: the requested snapshot predates the GC horizon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotTooOld;

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// The value of `key` at `at`, without its version timestamp.
    fn value(s: &MvccStore, key: &str, at: Timestamp) -> Result<Option<Bytes>, SnapshotTooOld> {
        s.read(&Key::from(key), at).map(|row| row.map(|(v, _)| v))
    }

    #[test]
    fn read_at_sees_version_at_or_below() {
        let mut s = MvccStore::new();
        s.apply(Key::from("k"), ts(10), Some(b("v1")));
        s.apply(Key::from("k"), ts(20), Some(b("v2")));
        assert_eq!(value(&s, "k", ts(5)).unwrap(), None);
        assert_eq!(value(&s, "k", ts(10)).unwrap(), Some(b("v1")));
        assert_eq!(
            s.read(&Key::from("k"), ts(15)).unwrap(),
            Some((b("v1"), ts(10)))
        );
        assert_eq!(value(&s, "k", ts(20)).unwrap(), Some(b("v2")));
        assert_eq!(
            s.read(&Key::from("k"), Timestamp::MAX).unwrap(),
            Some((b("v2"), ts(20)))
        );
    }

    #[test]
    fn tombstones_hide_values() {
        let mut s = MvccStore::new();
        s.apply(Key::from("k"), ts(10), Some(b("v1")));
        s.apply(Key::from("k"), ts(20), None);
        assert_eq!(value(&s, "k", ts(15)).unwrap(), Some(b("v1")));
        assert_eq!(value(&s, "k", ts(25)).unwrap(), None);
        assert_eq!(value(&s, "k", Timestamp::MAX).unwrap(), None);
    }

    #[test]
    fn snapshot_reads_are_repeatable_across_new_writes() {
        let mut s = MvccStore::new();
        s.apply(Key::from("k"), ts(10), Some(b("old")));
        let snapshot = ts(15);
        let before = s.read(&Key::from("k"), snapshot).unwrap();
        s.apply(Key::from("k"), ts(20), Some(b("new")));
        let after = s.read(&Key::from("k"), snapshot).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn scan_is_ordered_and_respects_range_and_limit() {
        let mut s = MvccStore::new();
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            s.apply(Key::from(*name), ts(10 + i as u64), Some(b(name)));
        }
        let r = KeyRange::new(Key::from("b"), Some(Key::from("d")));
        let got = s.scan(&r, ts(100), 10, false).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (Key::from("b"), b("b"), ts(11)));
        assert_eq!(got[1].0, Key::from("c"));
        let limited = s.scan(&KeyRange::all(), ts(100), 2, false).unwrap();
        assert_eq!(limited.len(), 2);
        // Reverse: the top of the range first, the same limit.
        let rev = s.scan(&KeyRange::all(), ts(100), 2, true).unwrap();
        assert_eq!(rev[0].0, Key::from("d"));
        assert_eq!(rev[1].0, Key::from("c"));
    }

    #[test]
    fn scan_at_old_timestamp_excludes_later_writes() {
        let mut s = MvccStore::new();
        s.apply(Key::from("a"), ts(10), Some(b("a")));
        s.apply(Key::from("b"), ts(30), Some(b("b")));
        let got = s.scan(&KeyRange::all(), ts(20), 10, false).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, Key::from("a"));
    }

    #[test]
    fn gc_retains_reads_at_horizon() {
        let mut s = MvccStore::new();
        s.apply(Key::from("k"), ts(10), Some(b("v1")));
        s.apply(Key::from("k"), ts(20), Some(b("v2")));
        s.apply(Key::from("k"), ts(30), Some(b("v3")));
        s.gc(ts(25));
        // Reads at the horizon still see v2.
        assert_eq!(value(&s, "k", ts(25)).unwrap(), Some(b("v2")));
        // Reads and scans below the horizon fail.
        assert_eq!(value(&s, "k", ts(15)), Err(SnapshotTooOld));
        assert_eq!(
            s.scan(&KeyRange::all(), ts(15), 1, true),
            Err(SnapshotTooOld)
        );
    }

    #[test]
    fn gc_drops_dead_cells() {
        let mut s = MvccStore::new();
        s.apply(Key::from("k"), ts(10), Some(b("v")));
        s.apply(Key::from("k"), ts(20), None);
        s.gc(ts(30));
        assert_eq!(s.live_keys(), 0);
        assert_eq!(value(&s, "k", ts(40)).unwrap(), None);
    }

    #[test]
    fn live_stats() {
        let mut s = MvccStore::new();
        s.apply(Key::from("a"), ts(1), Some(b("xx")));
        s.apply(Key::from("b"), ts(2), Some(b("yyy")));
        s.apply(Key::from("b"), ts(3), None);
        assert_eq!(s.live_keys(), 1);
        assert_eq!(s.live_bytes(), 1 + 2); // key "a" + "xx"
    }

    #[test]
    fn median_key() {
        let mut s = MvccStore::new();
        assert!(s.median_key_in(&KeyRange::all()).is_none());
        for name in ["a", "b", "c", "d", "e"] {
            s.apply(Key::from(name), ts(1), Some(b(name)));
        }
        let m = s.median_key_in(&KeyRange::all()).unwrap();
        assert_eq!(m, Key::from("c"));
    }

    #[test]
    fn version_chain_gc_keeps_latest_when_all_below() {
        let mut c = VersionChain::default();
        c.push(ts(1), Some(b("a")));
        c.push(ts(2), Some(b("b")));
        c.gc(ts(100));
        assert_eq!(c.read_at(ts(1)), None, "the older version is gone");
        assert_eq!(c.read_at(Timestamp::MAX).unwrap().value, Some(b("b")));
    }
}
