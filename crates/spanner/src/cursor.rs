//! Seekable, batched range cursors — the streaming read primitive.
//!
//! A [`RangeCursor`] walks a key range in bounded batches instead of
//! materializing the whole range: each refill reads at most `batch` rows
//! from storage, and [`RangeCursor::seek`] narrows the remaining range so
//! skipped rows are never fetched at all. This is the substrate for the
//! query engine's zig-zag joins with limit pushdown (paper §IV-D3: cost
//! scales with the *result* set, not the *data* set).
//!
//! The cursor is deliberately storage-agnostic: it does not hold a
//! reference to the database or a transaction. Every refill goes through a
//! caller-supplied [`ScanBackend`], so the same cursor logic serves
//! lock-free snapshot reads and lock-acquiring transactional reads.

use crate::error::SpannerResult;
use crate::key::{Key, KeyRange};
use crate::TableName;
use bytes::Bytes;
use simkit::Timestamp;
use std::collections::VecDeque;

/// The storage access a [`RangeCursor`] refills through. Implemented for
/// snapshot reads ([`SnapshotBackend`]) and, in the engine crate, for
/// transactional reads (which must thread a `&mut` transaction).
pub trait ScanBackend {
    /// Read up to `limit` rows of `range` from `table`, in key order
    /// (or reverse key order when `reverse`), each with the commit
    /// timestamp of the version read.
    fn scan(
        &mut self,
        table: TableName,
        range: &KeyRange,
        limit: usize,
        reverse: bool,
    ) -> SpannerResult<Vec<(Key, Bytes, Timestamp)>>;
}

/// Lock-free snapshot [`ScanBackend`] at a fixed timestamp.
pub struct SnapshotBackend<'a> {
    /// The database read from.
    pub db: &'a crate::SpannerDatabase,
    /// The read timestamp.
    pub ts: Timestamp,
}

impl ScanBackend for SnapshotBackend<'_> {
    fn scan(
        &mut self,
        table: TableName,
        range: &KeyRange,
        limit: usize,
        reverse: bool,
    ) -> SpannerResult<Vec<(Key, Bytes, Timestamp)>> {
        self.db
            .snapshot_scan_directed(table, range, self.ts, limit, reverse)
    }
}

/// A streaming cursor over one table's key range.
///
/// Rows are pulled in batches of `batch`; `rows_read` counts every row
/// fetched from storage (the quantity a limit-pushdown query is billed by).
#[derive(Debug)]
pub struct RangeCursor {
    table: TableName,
    /// The not-yet-fetched remainder of the scan range.
    remaining: KeyRange,
    reverse: bool,
    batch: usize,
    buf: VecDeque<(Key, Bytes, Timestamp)>,
    /// Set when storage returned fewer rows than requested: the remainder
    /// is exhausted.
    done: bool,
    /// Rows fetched from storage over the cursor's lifetime.
    pub rows_read: usize,
    /// Seeks that actually narrowed the remaining range (zig-zag jumps).
    pub seeks: usize,
}

impl RangeCursor {
    /// A cursor over `range` of `table`, reading `batch` rows per refill.
    pub fn new(table: TableName, range: KeyRange, reverse: bool, batch: usize) -> RangeCursor {
        RangeCursor {
            table,
            remaining: range,
            reverse,
            batch: batch.max(1),
            buf: VecDeque::new(),
            done: false,
            rows_read: 0,
            seeks: 0,
        }
    }

    fn refill(&mut self, backend: &mut impl ScanBackend) -> SpannerResult<()> {
        if self.done || self.remaining.is_empty() {
            self.done = true;
            return Ok(());
        }
        let rows = backend.scan(self.table, &self.remaining, self.batch, self.reverse)?;
        self.rows_read += rows.len();
        if rows.len() < self.batch {
            self.done = true;
        } else {
            // Advance the remainder past the fetched rows.
            let last = &rows[rows.len() - 1].0;
            if self.reverse {
                self.remaining.end = Some(last.clone());
            } else {
                self.remaining.start = last.successor();
            }
        }
        self.buf.extend(rows);
        Ok(())
    }

    /// The current head row, refilling from storage if needed.
    pub fn peek(
        &mut self,
        backend: &mut impl ScanBackend,
    ) -> SpannerResult<Option<&(Key, Bytes, Timestamp)>> {
        if self.buf.is_empty() && !self.done {
            self.refill(backend)?;
        }
        // (Borrow-checker friendly: re-borrow after the possible refill.)
        Ok(self.buf.front())
    }

    /// Pop the current head row.
    pub fn next(
        &mut self,
        backend: &mut impl ScanBackend,
    ) -> SpannerResult<Option<(Key, Bytes, Timestamp)>> {
        if self.buf.is_empty() && !self.done {
            self.refill(backend)?;
        }
        Ok(self.buf.pop_front())
    }

    /// Skip forward (in scan order) to the first row at or past `target`:
    /// `key >= target` on a forward scan, `key <= target` on a reverse one.
    /// Rows in between are dropped from the buffer or excluded from the
    /// remaining range without ever being fetched.
    pub fn seek(&mut self, target: &Key) {
        let mut skipped = false;
        while let Some((k, _, _)) = self.buf.front() {
            let behind = if self.reverse { k > target } else { k < target };
            if behind {
                self.buf.pop_front();
                skipped = true;
            } else {
                break;
            }
        }
        if self.buf.is_empty() && !self.done {
            // The target lies beyond everything fetched: narrow the
            // remaining range so the skipped span is never read.
            if self.reverse {
                let new_end = target.successor();
                if self
                    .remaining
                    .end
                    .as_ref()
                    .is_none_or(|end| new_end < *end)
                {
                    self.remaining.end = Some(new_end);
                    skipped = true;
                }
            } else if *target > self.remaining.start {
                self.remaining.start = target.clone();
                skipped = true;
            }
        }
        if skipped {
            self.seeks += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpannerDatabase;
    use simkit::{Duration, SimClock};

    const T: TableName = "Entities";

    fn setup(n: usize) -> (SpannerDatabase, Timestamp) {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let db = SpannerDatabase::new(clock);
        db.create_table(T);
        let mut txn = db.begin();
        for i in 0..n {
            db.txn_put(
                &mut txn,
                T,
                Key::from(format!("k{i:04}").as_str()),
                Bytes::from(format!("v{i}")),
            )
            .unwrap();
        }
        db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap();
        let ts = db.strong_read_ts();
        (db, ts)
    }

    #[test]
    fn streams_in_batches_without_reading_everything() {
        let (db, ts) = setup(100);
        let mut backend = SnapshotBackend { db: &db, ts };
        let mut cur = RangeCursor::new(T, KeyRange::all(), false, 8);
        for i in 0..10 {
            let (k, _, _) = cur.next(&mut backend).unwrap().unwrap();
            assert_eq!(k, Key::from(format!("k{i:04}").as_str()));
        }
        assert!(
            cur.rows_read <= 16,
            "10 rows consumed must not read all 100 (read {})",
            cur.rows_read
        );
    }

    #[test]
    fn reverse_streams_descending() {
        let (db, ts) = setup(50);
        let mut backend = SnapshotBackend { db: &db, ts };
        let mut cur = RangeCursor::new(T, KeyRange::all(), true, 4);
        let (k, _, _) = cur.next(&mut backend).unwrap().unwrap();
        assert_eq!(k, Key::from("k0049"));
        let (k, _, _) = cur.next(&mut backend).unwrap().unwrap();
        assert_eq!(k, Key::from("k0048"));
        assert!(cur.rows_read <= 8);
    }

    #[test]
    fn seek_skips_unfetched_rows() {
        let (db, ts) = setup(100);
        let mut backend = SnapshotBackend { db: &db, ts };
        let mut cur = RangeCursor::new(T, KeyRange::all(), false, 4);
        cur.next(&mut backend).unwrap(); // fetch one batch
        cur.seek(&Key::from("k0090"));
        let (k, _, _) = cur.next(&mut backend).unwrap().unwrap();
        assert_eq!(k, Key::from("k0090"));
        assert!(
            cur.rows_read <= 8,
            "seek must not fetch the skipped middle (read {})",
            cur.rows_read
        );
        assert!(cur.seeks >= 1);
    }

    #[test]
    fn reverse_seek_skips_down() {
        let (db, ts) = setup(100);
        let mut backend = SnapshotBackend { db: &db, ts };
        let mut cur = RangeCursor::new(T, KeyRange::all(), true, 4);
        cur.next(&mut backend).unwrap(); // k0099
        cur.seek(&Key::from("k0010"));
        let (k, _, _) = cur.next(&mut backend).unwrap().unwrap();
        assert_eq!(k, Key::from("k0010"));
        assert!(cur.rows_read <= 8, "read {}", cur.rows_read);
    }

    #[test]
    fn seek_to_missing_key_lands_on_successor() {
        let (db, ts) = setup(20);
        let mut backend = SnapshotBackend { db: &db, ts };
        let mut cur = RangeCursor::new(T, KeyRange::all(), false, 64);
        cur.seek(&Key::from("k0005x"));
        let (k, _, _) = cur.next(&mut backend).unwrap().unwrap();
        assert_eq!(k, Key::from("k0006"));
    }

    #[test]
    fn exhausts_cleanly() {
        let (db, ts) = setup(5);
        let mut backend = SnapshotBackend { db: &db, ts };
        let mut cur = RangeCursor::new(T, KeyRange::all(), false, 2);
        let mut n = 0;
        while cur.next(&mut backend).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert!(cur.peek(&mut backend).unwrap().is_none());
    }
}
