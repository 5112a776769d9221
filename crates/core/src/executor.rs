//! Query execution: streaming index scans, zig-zag joins, document fetch.
//!
//! "Firestore's query engine executes all queries using either a linear
//! scan over a range of a single secondary index in the Spanner
//! IndexEntries table, or a join of several such secondary indexes, followed
//! by lookup of the corresponding documents in the Entities table, with no
//! in-memory sorting, filtering, etc." (§IV-D3)
//!
//! Every `IndexEntries` row's *value* is the encoded document name, so an
//! entry key never needs to be parsed: the executor compares raw *suffix*
//! bytes (the part of the key after the scan's equality prefix — sort-order
//! values followed by the name) to zig-zag join multiple indexes in order.
//!
//! Execution is *streaming*: each scan is a lazy [`RangeCursor`] pulling
//! bounded batches from storage, the zig-zag join advances the lagging
//! cursor with a seek instead of materializing posting lists, and the whole
//! pipeline stops as soon as the plan's pushed-down window
//! (`offset + limit`) is satisfied. A `limit 10` query over a million-entry
//! index examines O(10) entries per joined index — "the cost of executing a
//! query is proportional to the size of the result set, not the size of the
//! data set".

use crate::document::Document;
use crate::error::{FirestoreError, FirestoreResult};
use crate::path::DocumentName;
use crate::planner::{IndexScan, Plan, PlanNode, ScanSpec, Window};
use crate::query::Query;
use bytes::Bytes;
use simkit::Timestamp;
use spanner::cursor::{RangeCursor, ScanBackend, SnapshotBackend};
use spanner::{Key, KeyRange, ReadWriteTransaction, SpannerDatabase, SpannerResult, TableName};
use std::cmp::Ordering;

/// The Entities table name.
pub const ENTITIES: &str = "Entities";
/// The IndexEntries table name.
pub const INDEX_ENTRIES: &str = "IndexEntries";

/// Smallest cursor refill batch: keeps tiny limits from degenerating into
/// one storage round-trip per row.
const MIN_BATCH: usize = 16;
/// Largest cursor refill batch (unbounded scans stream at this size).
const MAX_BATCH: usize = 256;
/// Documents fetched from `Entities` per batched lookup.
const FETCH_PAGE: usize = 100;

/// Work accounting for a query execution — the quantity the fair-share
/// scheduler charges (§IV-C: "an individual RPC is not a uniform work
/// unit ... one RPC can cost a million times another").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Index entries fetched from storage by the scan cursors. For a
    /// limit-k query this stays O(k · joined indexes) regardless of index
    /// size — the pushdown invariant the regression tests pin.
    pub entries_examined: usize,
    /// Entries that survived the merge (result candidates before the
    /// offset/limit window).
    pub entries_returned: usize,
    /// Zig-zag seek operations (cursor jumps that skipped entries).
    pub seeks: usize,
    /// Documents fetched from `Entities`.
    pub docs_fetched: usize,
    /// Total bytes of returned documents.
    pub bytes_returned: usize,
}

/// How a query reads: lock-free at a timestamp, or inside a read-write
/// transaction (acquiring read locks, §IV-D3).
pub enum ReadAccess<'a> {
    /// Lock-free consistent read at the given timestamp.
    Snapshot(Timestamp),
    /// Locking reads within a transaction.
    Transaction(&'a mut ReadWriteTransaction),
}

/// The result of a query execution.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Matching documents, in query order.
    pub documents: Vec<Document>,
    /// Work accounting.
    pub stats: QueryStats,
    /// Set when the execution stopped early at a per-RPC work limit
    /// (§IV-C: "Firestore APIs support returning partial results for a
    /// query as well as resuming a partially-executed query"): re-issue the
    /// query with `start_after(resume_after)` to continue.
    pub resume_after: Option<DocumentName>,
}

/// The [`ScanBackend`] behind an execution: snapshot scans are lock-free,
/// transactional scans shared-lock each returned row batch by batch.
enum Backend<'d, 't> {
    Snapshot(SnapshotBackend<'d>),
    Transaction {
        db: &'d SpannerDatabase,
        txn: &'t mut ReadWriteTransaction,
    },
}

impl ScanBackend for Backend<'_, '_> {
    fn scan(
        &mut self,
        table: TableName,
        range: &KeyRange,
        limit: usize,
        reverse: bool,
    ) -> SpannerResult<Vec<(Key, Bytes, Timestamp)>> {
        match self {
            Backend::Snapshot(s) => s.scan(table, range, limit, reverse),
            Backend::Transaction { db, txn } => db.txn_scan(txn, table, range, limit, reverse),
        }
    }
}

impl Backend<'_, '_> {
    /// Versioned point lookups of `keys` in `Entities`, one storage round
    /// trip per page under snapshot access.
    fn read_many_versioned(
        &mut self,
        keys: &[Key],
    ) -> FirestoreResult<Vec<Option<(Bytes, Timestamp)>>> {
        match self {
            Backend::Snapshot(s) => Ok(s.db.snapshot_read_many_versioned(ENTITIES, keys, s.ts)?),
            Backend::Transaction { db, txn } => keys
                .iter()
                .map(|k| Ok(db.txn_read_versioned(txn, ENTITIES, k)?))
                .collect(),
        }
    }
}

fn scan_range(spec: &ScanSpec) -> KeyRange {
    let prefix_key = Key::from(spec.prefix.clone());
    let mut start = spec.prefix.clone();
    let mut end: Option<Key> = prefix_key.prefix_end();
    if let Some(lower) = &spec.lower {
        let mut bounded = spec.prefix.clone();
        bounded.extend_from_slice(&lower.value_bytes);
        if lower.inclusive {
            start = bounded;
        } else {
            // Skip every entry whose suffix starts with the bound value.
            match Key::from(bounded).prefix_end() {
                Some(k) => start = k.as_slice().to_vec(),
                None => start = vec![0xFF; 64],
            }
        }
    }
    if let Some(upper) = &spec.upper {
        let mut bounded = spec.prefix.clone();
        bounded.extend_from_slice(&upper.value_bytes);
        end = if upper.inclusive {
            Key::from(bounded).prefix_end()
        } else {
            Some(Key::from(bounded))
        };
    }
    KeyRange::new(Key::from(start), end)
}

/// Scan-order comparison: byte order forward, reversed byte order backward.
fn scan_cmp(a: &[u8], b: &[u8], reverse: bool) -> Ordering {
    if reverse {
        b.cmp(a)
    } else {
        a.cmp(b)
    }
}

/// A lazy posting stream over one equality prefix of one index. A posting
/// is the encoded document name carried in the entry's row value (suffix
/// comparison happens before a posting is emitted, so only the name
/// survives the merge).
struct PostingCursor {
    cursor: RangeCursor,
    prefix: Vec<u8>,
}

impl PostingCursor {
    fn new(spec: &ScanSpec, reverse: bool, batch: usize) -> PostingCursor {
        PostingCursor {
            cursor: RangeCursor::new(INDEX_ENTRIES, scan_range(spec), reverse, batch),
            prefix: spec.prefix.clone(),
        }
    }

    fn peek_suffix(&mut self, backend: &mut Backend<'_, '_>) -> FirestoreResult<Option<Vec<u8>>> {
        Ok(self
            .cursor
            .peek(backend)?
            .map(|(k, _, _)| k.as_slice()[self.prefix.len()..].to_vec()))
    }

    fn next(&mut self, backend: &mut Backend<'_, '_>) -> FirestoreResult<Option<Bytes>> {
        Ok(self.cursor.next(backend)?.map(|(_, name, _)| name))
    }

    /// Jump (in scan order) to the first posting whose suffix is at or past
    /// `suffix` — the zig-zag advance. Unfetched skipped entries are never
    /// read.
    fn seek_suffix(&mut self, suffix: &[u8]) {
        let mut key = self.prefix.clone();
        key.extend_from_slice(suffix);
        self.cursor.seek(&Key::from(key));
    }

    fn add_stats(&self, stats: &mut QueryStats) {
        stats.entries_examined += self.cursor.rows_read;
        stats.seeks += self.cursor.seeks;
    }
}

/// A union of posting streams: one arm per `in` alternative, merged in
/// suffix scan order (arms have disjoint document sets, so the merge is the
/// sorted union).
struct UnionCursor {
    arms: Vec<PostingCursor>,
    reverse: bool,
}

impl UnionCursor {
    fn new(scan: &IndexScan, reverse: bool, batch: usize) -> UnionCursor {
        UnionCursor {
            arms: scan
                .arms
                .iter()
                .map(|spec| PostingCursor::new(spec, reverse, batch))
                .collect(),
            reverse,
        }
    }

    /// The arm whose head posting comes first in scan order.
    fn best_arm(&mut self, backend: &mut Backend<'_, '_>) -> FirestoreResult<Option<usize>> {
        let mut best: Option<(usize, Vec<u8>)> = None;
        for i in 0..self.arms.len() {
            let Some(suffix) = self.arms[i].peek_suffix(backend)? else {
                continue;
            };
            let better = match &best {
                None => true,
                Some((_, bs)) => scan_cmp(&suffix, bs, self.reverse).is_lt(),
            };
            if better {
                best = Some((i, suffix));
            }
        }
        Ok(best.map(|(i, _)| i))
    }

    fn peek_suffix(&mut self, backend: &mut Backend<'_, '_>) -> FirestoreResult<Option<Vec<u8>>> {
        match self.best_arm(backend)? {
            Some(i) => self.arms[i].peek_suffix(backend),
            None => Ok(None),
        }
    }

    fn next(&mut self, backend: &mut Backend<'_, '_>) -> FirestoreResult<Option<Bytes>> {
        match self.best_arm(backend)? {
            Some(i) => self.arms[i].next(backend),
            None => Ok(None),
        }
    }

    fn seek_suffix(&mut self, target: &[u8]) {
        for arm in &mut self.arms {
            arm.seek_suffix(target);
        }
    }

    fn add_stats(&self, stats: &mut QueryStats) {
        for arm in &self.arms {
            arm.add_stats(stats);
        }
    }
}

/// The n-way streaming zig-zag join: repeatedly take the scan-order maximum
/// of the cursor heads as the target, seek every lagging cursor to it, and
/// emit when all heads agree. Joined indexes share the suffix structure, so
/// raw byte comparison suffices.
struct ZigZagMerge {
    cursors: Vec<UnionCursor>,
    reverse: bool,
}

impl ZigZagMerge {
    fn new(scans: &[IndexScan], reverse: bool, batch: usize) -> ZigZagMerge {
        ZigZagMerge {
            cursors: scans
                .iter()
                .map(|s| UnionCursor::new(s, reverse, batch))
                .collect(),
            reverse,
        }
    }

    fn next(&mut self, backend: &mut Backend<'_, '_>) -> FirestoreResult<Option<Bytes>> {
        if self.cursors.is_empty() {
            return Ok(None);
        }
        loop {
            // Find the scan-order maximum of the current heads; any
            // exhausted cursor ends the intersection.
            let mut target: Option<Vec<u8>> = None;
            for c in self.cursors.iter_mut() {
                let Some(suffix) = c.peek_suffix(backend)? else {
                    return Ok(None);
                };
                target = Some(match target {
                    None => suffix,
                    Some(t) if scan_cmp(&suffix, &t, self.reverse).is_gt() => suffix,
                    Some(t) => t,
                });
            }
            let target = target.expect("non-empty cursor set");
            // Advance every lagging cursor to the target with a seek.
            let mut all_match = true;
            for c in self.cursors.iter_mut() {
                c.seek_suffix(&target);
                match c.peek_suffix(backend)? {
                    None => return Ok(None),
                    Some(s) if s == target => {}
                    Some(_) => all_match = false,
                }
            }
            if all_match {
                let hit = self.cursors[0].next(backend)?.expect("head just peeked");
                for c in self.cursors[1..].iter_mut() {
                    c.next(backend)?;
                }
                return Ok(Some(hit));
            }
            // Some cursor moved past the target: its (larger) head becomes
            // the next round's target, so progress is guaranteed.
        }
    }

    fn add_stats(&self, stats: &mut QueryStats) {
        for c in &self.cursors {
            c.add_stats(stats);
        }
    }
}

/// Streaming window consumer: applies the plan's start-after cursor, offset
/// and limit while results are produced, so the scans can stop as soon as
/// the window is full.
struct WindowState {
    /// Encoded name of the cursor document; results are dropped until (and
    /// including) it. If it never appears, the result is empty — matching
    /// the contract that a cursor from a deleted document resumes nowhere.
    pending_after: Option<Bytes>,
    to_skip: usize,
    needed: usize,
    /// Results accepted into the window.
    taken: usize,
    /// The accepted results' encoded names, kept only when the documents
    /// will be fetched (a COUNT keeps nothing per match).
    rows: Option<Vec<Bytes>>,
}

impl WindowState {
    fn new(window: &Window, work_limit: usize, keep_rows: bool) -> WindowState {
        let needed = window
            .limit
            .unwrap_or(usize::MAX)
            .min(work_limit.saturating_add(1));
        WindowState {
            pending_after: window
                .start_after
                .as_ref()
                .map(|n| Bytes::from(n.encode())),
            to_skip: window.offset,
            needed,
            taken: 0,
            rows: keep_rows.then(Vec::new),
        }
    }

    fn full(&self) -> bool {
        self.taken >= self.needed
    }

    /// Offer the next match by encoded name; `owned` yields the name to
    /// keep, and runs only when the window keeps it.
    fn offer(&mut self, name_bytes: &[u8], owned: impl FnOnce() -> Bytes) {
        if let Some(after) = &self.pending_after {
            if name_bytes == after.as_slice() {
                self.pending_after = None;
            }
            return;
        }
        if self.to_skip > 0 {
            self.to_skip -= 1;
            return;
        }
        if self.taken < self.needed {
            self.taken += 1;
            if let Some(rows) = &mut self.rows {
                rows.push(owned());
            }
        }
    }

    /// Close the window: truncate to the per-RPC work cap and report the
    /// resume point if anything was cut.
    fn finish(self, work_limit: usize) -> FirestoreResult<(Vec<Bytes>, Option<DocumentName>)> {
        let mut rows = self.rows.unwrap_or_default();
        let mut resume_after = None;
        if rows.len() > work_limit {
            rows.truncate(work_limit);
            let last = rows.last().expect("work_limit > 0 rows remain");
            resume_after = Some(
                DocumentName::decode(last)
                    .ok_or_else(|| FirestoreError::Internal("corrupt index entry".into()))?,
            );
        }
        Ok((rows, resume_after))
    }
}

/// Refill batch size for a windowed scan: just past the window for small
/// limits, capped for streaming unbounded scans.
fn pick_batch(window: &Window, work_limit: usize) -> usize {
    let goal = window
        .limit
        .map(|l| window.offset.saturating_add(l))
        .unwrap_or(usize::MAX)
        .min(work_limit.saturating_add(1));
    goal.saturating_add(1).clamp(MIN_BATCH, MAX_BATCH)
}

/// Execute `plan` for `query`, returning at most `work_limit` documents —
/// the per-RPC result cap that "protects the system against problematic
/// workloads" (§IV-C). A truncated result carries `resume_after`.
pub fn execute_limited(
    db: &SpannerDatabase,
    dir: spanner::database::DirectoryId,
    plan: &Plan,
    query: &Query,
    access: ReadAccess<'_>,
    work_limit: usize,
) -> FirestoreResult<QueryResult> {
    let mut backend = match access {
        ReadAccess::Snapshot(ts) => Backend::Snapshot(SnapshotBackend { db, ts }),
        ReadAccess::Transaction(txn) => Backend::Transaction { db, txn },
    };
    let (win, mut stats) = stream_window(&mut backend, dir, plan, query, work_limit, true)?;
    let (rows, resume_after) = win.finish(work_limit)?;

    // Fetch the documents, one batched Entities lookup per page.
    let mut documents = Vec::with_capacity(rows.len());
    for page in rows.chunks(FETCH_PAGE) {
        let keys: Vec<Key> = page.iter().map(|nb| dir.key(nb)).collect();
        let fetched = backend.read_many_versioned(&keys)?;
        stats.docs_fetched += page.len();
        for (nb, raw) in page.iter().zip(fetched) {
            let Some(name) = DocumentName::decode(nb) else {
                return Err(FirestoreError::Internal("corrupt index entry".into()));
            };
            // An entry without a document would indicate index corruption;
            // the write path keeps them strongly consistent, so treat it as
            // fatal.
            let Some(mut doc) = crate::write::decode_row(&name, raw)? else {
                return Err(FirestoreError::Internal(format!(
                    "dangling index entry for {name}"
                )));
            };
            if let Some(projection) = &query.projection {
                doc.fields.retain(|k, _| projection.iter().any(|p| p == k));
            }
            stats.bytes_returned += doc.approx_size();
            documents.push(doc);
        }
    }

    Ok(QueryResult {
        documents,
        stats,
        resume_after,
    })
}

/// Count the documents matching `query` without fetching them (the COUNT
/// aggregation of paper §VIII): index entries are streamed and intersected
/// exactly like a normal execution, but the `Entities` lookups are skipped
/// and the scan stops at the window's edge (`offset + limit`).
pub fn count(
    db: &SpannerDatabase,
    dir: spanner::database::DirectoryId,
    plan: &Plan,
    query: &Query,
    ts: Timestamp,
) -> FirestoreResult<(usize, QueryStats)> {
    let mut backend = Backend::Snapshot(SnapshotBackend { db, ts });
    let (win, stats) = stream_window(&mut backend, dir, plan, query, usize::MAX, false)?;
    Ok((win.taken, stats))
}

/// Stream the plan's matches through its window until the window is full or
/// the scans run dry — the one cursor / zig-zag / window loop behind both
/// executions and COUNTs.
fn stream_window(
    backend: &mut Backend<'_, '_>,
    dir: spanner::database::DirectoryId,
    plan: &Plan,
    query: &Query,
    work_limit: usize,
    keep_rows: bool,
) -> FirestoreResult<(WindowState, QueryStats)> {
    let mut stats = QueryStats::default();
    let mut win = WindowState::new(&plan.window, work_limit, keep_rows);
    let batch = pick_batch(&plan.window, work_limit);
    match &plan.node {
        PlanNode::PrimaryScan { reverse } => {
            let range = collection_range(dir, query);
            let want_segments = query.collection.segments().len() + 1;
            let mut cursor = RangeCursor::new(ENTITIES, range, *reverse, batch);
            while !win.full() {
                let Some((k, _, _)) = cursor.next(backend)? else {
                    break;
                };
                let name_bytes = &k.as_slice()[4..]; // strip directory prefix
                let Some(name) = DocumentName::decode(name_bytes) else {
                    return Err(FirestoreError::Internal("corrupt entity key".into()));
                };
                // The collection's key range also covers sub-collection
                // documents; keep only direct children.
                if name.segments().len() != want_segments {
                    continue;
                }
                stats.entries_returned += 1;
                win.offer(name_bytes, || Bytes::copy_from_slice(name_bytes));
            }
            stats.entries_examined += cursor.rows_read;
            stats.seeks += cursor.seeks;
        }
        PlanNode::IndexScans { scans, reverse } => {
            let mut merge = ZigZagMerge::new(scans, *reverse, batch);
            while !win.full() {
                let Some(name_bytes) = merge.next(backend)? else {
                    break;
                };
                stats.entries_returned += 1;
                win.offer(&name_bytes, || name_bytes.clone());
            }
            merge.add_stats(&mut stats);
        }
    }
    Ok((win, stats))
}

/// The Entities-table key range of a query's collection.
pub fn collection_range(dir: spanner::database::DirectoryId, query: &Query) -> KeyRange {
    let prefix = dir.key(&query.collection.encode_prefix());
    KeyRange::prefix(&prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner::SpannerOptions;

    #[test]
    fn scan_range_without_bounds_covers_prefix() {
        let spec = ScanSpec {
            index: crate::index::IndexId(3),
            prefix: vec![1, 2, 3],
            lower: None,
            upper: None,
        };
        let r = scan_range(&spec);
        assert!(r.contains(&Key::from(vec![1, 2, 3, 9, 9])));
        assert!(!r.contains(&Key::from(vec![1, 2, 4])));
    }

    #[test]
    fn scan_range_bounds() {
        use crate::planner::SuffixBound;
        let mk = |lower: Option<(u8, bool)>, upper: Option<(u8, bool)>| ScanSpec {
            index: crate::index::IndexId(0),
            prefix: vec![7],
            lower: lower.map(|(b, inclusive)| SuffixBound {
                value_bytes: vec![b],
                inclusive,
            }),
            upper: upper.map(|(b, inclusive)| SuffixBound {
                value_bytes: vec![b],
                inclusive,
            }),
        };
        // > 5 (exclusive lower): entries with value byte 5 excluded.
        let r = scan_range(&mk(Some((5, false)), None));
        assert!(!r.contains(&Key::from(vec![7, 5, 200])));
        assert!(r.contains(&Key::from(vec![7, 6, 0])));
        // >= 5: included.
        let r = scan_range(&mk(Some((5, true)), None));
        assert!(r.contains(&Key::from(vec![7, 5, 0])));
        // < 9: value 9 excluded.
        let r = scan_range(&mk(None, Some((9, false))));
        assert!(r.contains(&Key::from(vec![7, 8, 255])));
        assert!(!r.contains(&Key::from(vec![7, 9, 0])));
        // <= 9: value 9 included, 10 excluded.
        let r = scan_range(&mk(None, Some((9, true))));
        assert!(r.contains(&Key::from(vec![7, 9, 77])));
        assert!(!r.contains(&Key::from(vec![7, 10])));
    }

    /// A database seeded with raw IndexEntries rows: `(prefix, suffix)`
    /// keys whose value is the suffix itself (standing in for the encoded
    /// name).
    fn seeded(rows: &[(&[u8], &[u8])]) -> SpannerDatabase {
        let clock = simkit::SimClock::new();
        clock.advance(simkit::Duration::from_secs(1));
        let db = SpannerDatabase::with_options(clock, SpannerOptions::default());
        db.create_table(INDEX_ENTRIES);
        let mut txn = db.begin();
        for (prefix, suffix) in rows {
            let mut key = prefix.to_vec();
            key.extend_from_slice(suffix);
            db.txn_put(
                &mut txn,
                INDEX_ENTRIES,
                Key::from(key),
                Bytes::copy_from_slice(suffix),
            )
            .unwrap();
        }
        db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap();
        db
    }

    fn spec(prefix: &[u8]) -> ScanSpec {
        ScanSpec {
            index: crate::index::IndexId(0),
            prefix: prefix.to_vec(),
            lower: None,
            upper: None,
        }
    }

    fn drain(
        merge: &mut ZigZagMerge,
        backend: &mut Backend<'_, '_>,
        max: usize,
    ) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while out.len() < max {
            match merge.next(backend).unwrap() {
                Some(name_bytes) => out.push(name_bytes.to_vec()),
                None => break,
            }
        }
        out
    }

    #[test]
    fn zigzag_intersects_streams() {
        let db = seeded(&[
            (b"A", b"a"),
            (b"A", b"c"),
            (b"A", b"e"),
            (b"A", b"g"),
            (b"B", b"b"),
            (b"B", b"c"),
            (b"B", b"d"),
            (b"B", b"g"),
            (b"B", b"h"),
        ]);
        let ts = db.strong_read_ts();
        let mut backend = Backend::Snapshot(SnapshotBackend { db: &db, ts });
        let scans = vec![
            IndexScan {
                arms: vec![spec(b"A")],
            },
            IndexScan {
                arms: vec![spec(b"B")],
            },
        ];
        let mut merge = ZigZagMerge::new(&scans, false, 4);
        assert_eq!(
            drain(&mut merge, &mut backend, usize::MAX),
            vec![b"c".to_vec(), b"g".to_vec()]
        );
        let mut stats = QueryStats::default();
        merge.add_stats(&mut stats);
        assert!(stats.seeks > 0, "zig-zag must seek the lagging cursor");
    }

    #[test]
    fn zigzag_reverse_order() {
        let db = seeded(&[
            (b"A", b"a"),
            (b"A", b"c"),
            (b"A", b"e"),
            (b"A", b"g"),
            (b"B", b"c"),
            (b"B", b"d"),
            (b"B", b"g"),
            (b"B", b"h"),
        ]);
        let ts = db.strong_read_ts();
        let mut backend = Backend::Snapshot(SnapshotBackend { db: &db, ts });
        let scans = vec![
            IndexScan {
                arms: vec![spec(b"A")],
            },
            IndexScan {
                arms: vec![spec(b"B")],
            },
        ];
        let mut merge = ZigZagMerge::new(&scans, true, 4);
        assert_eq!(
            drain(&mut merge, &mut backend, usize::MAX),
            vec![b"g".to_vec(), b"c".to_vec()]
        );
    }

    #[test]
    fn union_arms_merge_in_order() {
        // Two `in` arms with interleaved suffixes stream as one sorted
        // union.
        let db = seeded(&[
            (b"A", b"b"),
            (b"A", b"d"),
            (b"A", b"f"),
            (b"B", b"a"),
            (b"B", b"c"),
            (b"B", b"e"),
        ]);
        let ts = db.strong_read_ts();
        let mut backend = Backend::Snapshot(SnapshotBackend { db: &db, ts });
        let scans = vec![IndexScan {
            arms: vec![spec(b"A"), spec(b"B")],
        }];
        let mut merge = ZigZagMerge::new(&scans, false, 4);
        let got = drain(&mut merge, &mut backend, usize::MAX);
        assert_eq!(
            got,
            vec![
                b"a".to_vec(),
                b"b".to_vec(),
                b"c".to_vec(),
                b"d".to_vec(),
                b"e".to_vec(),
                b"f".to_vec()
            ]
        );
        // Reverse union too.
        let mut merge = ZigZagMerge::new(&scans, true, 4);
        let mut rev = drain(&mut merge, &mut backend, usize::MAX);
        rev.reverse();
        assert_eq!(got, rev);
    }

    #[test]
    fn merge_stops_reading_at_consumer_limit() {
        // 400 entries per index; pulling 5 intersection results must not
        // stream either index to the end.
        let rows: Vec<(Vec<u8>, Vec<u8>)> = (0..400u32)
            .flat_map(|i| {
                let s = format!("s{i:04}").into_bytes();
                vec![(b"A".to_vec(), s.clone()), (b"B".to_vec(), s)]
            })
            .collect();
        let borrowed: Vec<(&[u8], &[u8])> = rows
            .iter()
            .map(|(p, s)| (p.as_slice(), s.as_slice()))
            .collect();
        let db = seeded(&borrowed);
        let ts = db.strong_read_ts();
        let mut backend = Backend::Snapshot(SnapshotBackend { db: &db, ts });
        let scans = vec![
            IndexScan {
                arms: vec![spec(b"A")],
            },
            IndexScan {
                arms: vec![spec(b"B")],
            },
        ];
        let mut merge = ZigZagMerge::new(&scans, false, 16);
        let got = drain(&mut merge, &mut backend, 5);
        assert_eq!(got.len(), 5);
        let mut stats = QueryStats::default();
        merge.add_stats(&mut stats);
        assert!(
            stats.entries_examined <= 64,
            "limit-5 join must stream O(limit), examined {}",
            stats.entries_examined
        );
    }

    #[test]
    fn empty_cursor_set_yields_nothing() {
        let db = seeded(&[(b"A", b"a")]);
        let ts = db.strong_read_ts();
        let mut backend = Backend::Snapshot(SnapshotBackend { db: &db, ts });
        let mut merge = ZigZagMerge::new(&[], false, 4);
        assert!(merge.next(&mut backend).unwrap().is_none());
        // One empty participant empties the intersection.
        let scans = vec![
            IndexScan {
                arms: vec![spec(b"A")],
            },
            IndexScan {
                arms: vec![spec(b"Z")],
            },
        ];
        let mut merge = ZigZagMerge::new(&scans, false, 4);
        assert!(merge.next(&mut backend).unwrap().is_none());
    }

    #[test]
    fn window_state_cursor_offset_limit() {
        let nb = |s: &str| Bytes::from(s.as_bytes().to_vec());
        // offset 1, limit 2 over a..e.
        let mut win = WindowState::new(
            &Window {
                offset: 1,
                limit: Some(2),
                start_after: None,
            },
            usize::MAX,
            true,
        );
        for s in ["a", "b", "c", "d", "e"] {
            if win.full() {
                break;
            }
            win.offer(s.as_bytes(), || nb(s));
        }
        let (rows, resume) = win.finish(usize::MAX).unwrap();
        assert_eq!(rows, vec![nb("b"), nb("c")]);
        assert!(resume.is_none());
    }
}
