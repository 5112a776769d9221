//! The index backfill / backremoval background service (§IV-D1).
//!
//! "Adding or removing a Firestore secondary index requires a backfill or
//! backremoval in the Spanner IndexEntries table. This is managed by a
//! background service that receives index change requests, scans the
//! Entities table for all affected documents, makes the required
//! IndexEntries row additions or removals in Spanner, and finally marks the
//! index change as complete."
//!
//! Correctness depends on writes concurrently maintaining `Building`
//! indexes (see [`crate::write::MAINTAINED_STATES`]): the backfill scans a
//! snapshot in batches while live traffic keeps newer versions indexed; a
//! per-batch transactional insert-if-current guards against racing deletes.

use crate::database::FirestoreDatabase;
use crate::error::{FirestoreError, FirestoreResult};
use crate::executor::{ENTITIES, INDEX_ENTRIES};
use crate::index::{entries_for_document, index_prefix, IndexId, IndexState};
use crate::path::DocumentName;
use crate::write;
use bytes::Bytes;
use simkit::Timestamp;
use spanner::{Key, KeyRange};

/// Progress cursor of an incremental backfill.
#[derive(Clone, Debug)]
pub struct BackfillCursor {
    index: IndexId,
    /// Resume scanning `Entities` from this key.
    next_key: Key,
    /// Documents processed so far.
    pub processed: usize,
    done: bool,
}

impl BackfillCursor {
    /// Start a backfill of `index` (must be in `Building` state).
    pub fn new(db: &FirestoreDatabase, index: IndexId) -> FirestoreResult<BackfillCursor> {
        let state = db.with_catalog(|c| c.composite(index).map(|d| d.state));
        match state {
            Some(IndexState::Building) => Ok(BackfillCursor {
                index,
                next_key: db.directory().range().start,
                processed: 0,
                done: false,
            }),
            Some(other) => Err(FirestoreError::FailedPrecondition(format!(
                "index {index:?} is {other:?}, not Building"
            ))),
            None => Err(FirestoreError::NotFound(format!("index {index:?}"))),
        }
    }

    /// Whether the scan has covered every document.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Process one batch of up to `batch_size` documents; returns how many
    /// were indexed. Marks the index `Ready` once the scan completes.
    pub fn step(&mut self, db: &FirestoreDatabase, batch_size: usize) -> FirestoreResult<usize> {
        if self.done {
            return Ok(0);
        }
        let spanner = db.spanner();
        let dir = db.directory();
        let ts = spanner.strong_read_ts();
        let range = KeyRange::new(self.next_key.clone(), dir.range().end);
        let rows = spanner.snapshot_scan(ENTITIES, &range, ts, batch_size)?;
        if rows.is_empty() {
            db.with_catalog(|c| c.set_state(self.index, IndexState::Ready));
            self.done = true;
            return Ok(0);
        }
        let mut txn = spanner.begin();
        let mut indexed = 0;
        for (key, _, _) in &rows {
            let Some(name) = DocumentName::decode(&key.as_slice()[4..]) else {
                return Err(FirestoreError::Internal("corrupt entity key".into()));
            };
            // Re-read under lock so a concurrent update/delete between the
            // snapshot scan and this transaction cannot resurrect stale
            // entries.
            let current = spanner.txn_read_versioned(&mut txn, ENTITIES, key)?;
            let Some(doc) = write::decode_row(&name, current)? else {
                continue;
            };
            let keys = db.with_catalog(|c| {
                // Compute only this index's entries.
                entries_for_document(c, dir, &doc, &[IndexState::Building])
                    .into_iter()
                    .filter(|k| k.has_prefix(&index_prefix(dir, self.index)))
                    .collect::<Vec<_>>()
            });
            for k in keys {
                spanner.txn_put(&mut txn, INDEX_ENTRIES, k, Bytes::from(name.encode()))?;
                indexed += 1;
            }
        }
        spanner.commit(txn, Timestamp::ZERO, Timestamp::MAX)?;
        self.processed += rows.len();
        self.next_key = rows.last().expect("non-empty").0.successor();
        Ok(indexed)
    }
}

/// Run a backfill to completion in batches of `batch_size`.
pub fn run_backfill(
    db: &FirestoreDatabase,
    index: IndexId,
    batch_size: usize,
) -> FirestoreResult<usize> {
    let mut cursor = BackfillCursor::new(db, index)?;
    let mut total = 0;
    while !cursor.is_done() {
        total += cursor.step(db, batch_size)?;
    }
    Ok(total)
}

/// Remove an index: mark `Removing` (writes stop maintaining it), delete
/// its entries in batches, then drop the definition.
pub fn run_backremoval(
    db: &FirestoreDatabase,
    index: IndexId,
    batch_size: usize,
) -> FirestoreResult<usize> {
    let exists = db.with_catalog(|c| c.set_state(index, IndexState::Removing));
    if !exists {
        return Err(FirestoreError::NotFound(format!("index {index:?}")));
    }
    let spanner = db.spanner();
    let dir = db.directory();
    let prefix = Key::from(index_prefix(dir, index));
    let range = KeyRange::prefix(&prefix);
    let mut removed = 0;
    loop {
        let ts = spanner.strong_read_ts();
        let rows = spanner.snapshot_scan(INDEX_ENTRIES, &range, ts, batch_size)?;
        if rows.is_empty() {
            break;
        }
        let mut txn = spanner.begin();
        for (key, _, _) in &rows {
            spanner.txn_delete(&mut txn, INDEX_ENTRIES, key.clone())?;
        }
        spanner.commit(txn, Timestamp::ZERO, Timestamp::MAX)?;
        removed += rows.len();
    }
    db.with_catalog(|c| c.remove(index));
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{doc, FirestoreDatabase};
    use crate::document::Value;
    use crate::encoding::Direction;
    use crate::index::IndexedField;
    use crate::query::{FilterOp, Query};
    use crate::write::{Caller, Write};
    use simkit::{Duration, SimClock};
    use spanner::SpannerDatabase;

    fn setup_with_docs(n: usize) -> FirestoreDatabase {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let db = FirestoreDatabase::create_default(SpannerDatabase::new(clock));
        for i in 0..n {
            let w = Write::set(
                doc(&format!("/restaurants/r{i:03}")),
                [
                    ("city", Value::from(if i % 2 == 0 { "SF" } else { "NY" })),
                    ("avgRating", Value::Double(i as f64 / 10.0)),
                ],
            );
            db.commit_writes(vec![w], &Caller::Service).unwrap();
        }
        db
    }

    fn composite_query() -> Query {
        Query::parse("/restaurants")
            .unwrap()
            .filter("city", FilterOp::Eq, "SF")
            .order_by("avgRating", Direction::Desc)
    }

    #[test]
    fn backfill_makes_composite_queryable() {
        let db = setup_with_docs(20);
        // Without the composite, the query fails.
        assert!(matches!(
            db.run_query(
                &composite_query(),
                crate::Consistency::Strong,
                &Caller::Service
            ),
            Err(FirestoreError::MissingIndex { .. })
        ));
        let id = db.with_catalog(|c| {
            c.add_composite(
                "restaurants",
                vec![IndexedField::asc("city"), IndexedField::desc("avgRating")],
                IndexState::Building,
            )
        });
        let entries = run_backfill(&db, id, 7).unwrap();
        // Every document has both fields, so all 20 get a composite entry.
        assert_eq!(entries, 20);
        let res = db
            .run_query(
                &composite_query(),
                crate::Consistency::Strong,
                &Caller::Service,
            )
            .unwrap();
        assert_eq!(res.documents.len(), 10);
        // Descending avgRating order.
        let ratings: Vec<f64> = res
            .documents
            .iter()
            .map(|d| match d.fields["avgRating"] {
                Value::Double(x) => x,
                _ => unreachable!(),
            })
            .collect();
        let mut sorted = ratings.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(ratings, sorted);
    }

    #[test]
    fn writes_during_backfill_are_indexed() {
        let db = setup_with_docs(10);
        let id = db.with_catalog(|c| {
            c.add_composite(
                "restaurants",
                vec![IndexedField::asc("city"), IndexedField::desc("avgRating")],
                IndexState::Building,
            )
        });
        let mut cursor = BackfillCursor::new(&db, id).unwrap();
        cursor.step(&db, 4).unwrap();
        // A write lands mid-backfill (beyond the cursor AND behind it).
        db.commit_writes(
            vec![Write::set(
                doc("/restaurants/a-early"),
                [
                    ("city", Value::from("SF")),
                    ("avgRating", Value::Double(9.9)),
                ],
            )],
            &Caller::Service,
        )
        .unwrap();
        while !cursor.is_done() {
            cursor.step(&db, 4).unwrap();
        }
        let res = db
            .run_query(
                &composite_query(),
                crate::Consistency::Strong,
                &Caller::Service,
            )
            .unwrap();
        assert!(res.documents.iter().any(|d| d.name.id() == "a-early"));
        // And it sorts first (9.9 is the max, desc order).
        assert_eq!(res.documents[0].name.id(), "a-early");
    }

    #[test]
    fn backremoval_deletes_entries_and_definition() {
        let db = setup_with_docs(8);
        let id = db.with_catalog(|c| {
            c.add_composite(
                "restaurants",
                vec![IndexedField::asc("city"), IndexedField::desc("avgRating")],
                IndexState::Building,
            )
        });
        run_backfill(&db, id, 3).unwrap();
        let removed = run_backremoval(&db, id, 3).unwrap();
        assert_eq!(removed, 8);
        assert!(db.with_catalog(|c| c.composite(id).is_none()));
        assert!(matches!(
            db.run_query(
                &composite_query(),
                crate::Consistency::Strong,
                &Caller::Service
            ),
            Err(FirestoreError::MissingIndex { .. })
        ));
    }

    #[test]
    fn backfill_requires_building_state() {
        let db = setup_with_docs(1);
        let id = db.with_catalog(|c| {
            c.add_composite(
                "restaurants",
                vec![IndexedField::asc("city")],
                IndexState::Ready,
            )
        });
        assert!(matches!(
            BackfillCursor::new(&db, id),
            Err(FirestoreError::FailedPrecondition(_))
        ));
        assert!(matches!(
            BackfillCursor::new(&db, IndexId(999)),
            Err(FirestoreError::NotFound(_))
        ));
    }
}
