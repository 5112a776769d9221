//! Transactional messaging.
//!
//! "Spanner also has a transactional messaging system that allows its user to
//! persist information that can be used to perform asynchronous work. This
//! system is used by the Firestore Backend to implement write triggers"
//! (paper §IV-D2). A message is enqueued *inside* a transaction — it becomes
//! visible exactly when (and only if) the transaction commits — and is later
//! dequeued and delivered asynchronously.
//!
//! Messages live in an ordinary table (`Messages`), keyed by
//! `(topic, sequence)`, so they inherit the substrate's atomicity; the
//! consumer is a cursor that scans forward and deletes delivered rows.

use crate::database::{SpannerDatabase, TableName};
use crate::error::{SpannerError, SpannerResult};
use crate::key::{Key, KeyRange};
use crate::txn::ReadWriteTransaction;
use bytes::Bytes;
use simkit::fault::FaultKind;
use simkit::Timestamp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The table backing all message topics.
pub const MESSAGES_TABLE: TableName = "Messages";

/// A durable message queue multiplexed over the `Messages` table by topic.
#[derive(Clone)]
pub struct MessageQueue {
    db: SpannerDatabase,
    seq: Arc<AtomicU64>,
}

/// A message read from the queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueuedMessage {
    /// The row key (needed to acknowledge).
    pub key: Key,
    /// Message payload.
    pub payload: Bytes,
}

impl MessageQueue {
    /// Create (or attach to) the message queue of `db`.
    pub fn new(db: SpannerDatabase) -> Self {
        db.create_table(MESSAGES_TABLE);
        MessageQueue {
            db,
            seq: Arc::new(AtomicU64::new(1)),
        }
    }

    fn message_key(&self, topic: &[u8]) -> Key {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let mut v = Vec::with_capacity(topic.len() + 1 + 8);
        v.extend_from_slice(topic);
        v.push(0);
        v.extend_from_slice(&seq.to_be_bytes());
        Key::from(v)
    }

    fn topic_range(topic: &[u8]) -> KeyRange {
        let mut start = topic.to_vec();
        start.push(0);
        let mut end = topic.to_vec();
        end.push(1);
        KeyRange::new(Key::from(start), Some(Key::from(end)))
    }

    /// Enqueue `payload` on `topic` inside `txn`: it is delivered only if
    /// the transaction commits.
    pub fn enqueue(
        &self,
        txn: &mut ReadWriteTransaction,
        topic: &[u8],
        payload: Bytes,
    ) -> SpannerResult<()> {
        let key = self.message_key(topic);
        self.db.txn_put(txn, MESSAGES_TABLE, key, payload)
    }

    /// Read up to `limit` pending messages of `topic` in enqueue order, at
    /// the given read timestamp.
    pub fn peek(
        &self,
        topic: &[u8],
        ts: Timestamp,
        limit: usize,
    ) -> SpannerResult<Vec<QueuedMessage>> {
        let rows = self
            .db
            .snapshot_scan(MESSAGES_TABLE, &Self::topic_range(topic), ts, limit)?;
        Ok(rows
            .into_iter()
            .map(|(key, payload, _)| QueuedMessage { key, payload })
            .collect())
    }

    /// Delete delivered messages (runs its own small transaction).
    pub fn ack(&self, messages: &[QueuedMessage]) -> SpannerResult<()> {
        if messages.is_empty() {
            return Ok(());
        }
        let mut txn = self.db.begin();
        for m in messages {
            self.db
                .txn_delete(&mut txn, MESSAGES_TABLE, m.key.clone())?;
        }
        self.db.commit(txn, Timestamp::ZERO, Timestamp::MAX)?;
        Ok(())
    }

    /// Convenience: dequeue (peek + ack) up to `limit` messages at the
    /// current strong-read timestamp.
    ///
    /// Under the chaos layer delivery is at-least-once: a
    /// [`FaultKind::MessageDrop`] fault fails the attempt while messages
    /// stay queued (delayed, never lost), and a
    /// [`FaultKind::MessageDuplicate`] fault delivers without acknowledging,
    /// so the same messages are redelivered on the next dequeue.
    pub fn dequeue(&self, topic: &[u8], limit: usize) -> SpannerResult<Vec<QueuedMessage>> {
        if let Some(inj) = self.db.fault_injector() {
            if inj.should_inject(FaultKind::MessageDrop, "dequeue") {
                return Err(SpannerError::Unavailable("dequeue: delivery dropped"));
            }
            if inj.should_inject(FaultKind::MessageDuplicate, "dequeue") {
                // Deliver without acking: redelivered next time.
                let ts = self.db.strong_read_ts();
                return self.peek(topic, ts, limit);
            }
        }
        let ts = self.db.strong_read_ts();
        let msgs = self.peek(topic, ts, limit)?;
        self.ack(&msgs)?;
        Ok(msgs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{Duration, SimClock};

    fn setup() -> (SpannerDatabase, MessageQueue) {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let db = SpannerDatabase::new(clock);
        db.create_table("Entities");
        let q = MessageQueue::new(db.clone());
        (db, q)
    }

    #[test]
    fn message_visible_only_after_commit() {
        let (db, q) = setup();
        let mut txn = db.begin();
        q.enqueue(&mut txn, b"topic", Bytes::from_static(b"m1"))
            .unwrap();
        assert!(q
            .peek(b"topic", db.strong_read_ts(), 10)
            .unwrap()
            .is_empty());
        db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap();
        let msgs = q.peek(b"topic", db.strong_read_ts(), 10).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].payload, Bytes::from_static(b"m1"));
    }

    #[test]
    fn aborted_transaction_discards_message() {
        let (db, q) = setup();
        let mut txn = db.begin();
        q.enqueue(&mut txn, b"topic", Bytes::from_static(b"m1"))
            .unwrap();
        db.abort(&mut txn);
        assert!(q
            .peek(b"topic", db.strong_read_ts(), 10)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn dequeue_preserves_order_and_removes() {
        let (db, q) = setup();
        for payload in ["a", "b", "c"] {
            let mut txn = db.begin();
            q.enqueue(&mut txn, b"t", Bytes::copy_from_slice(payload.as_bytes()))
                .unwrap();
            db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap();
        }
        let msgs = q.dequeue(b"t", 2).unwrap();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].payload, Bytes::from_static(b"a"));
        assert_eq!(msgs[1].payload, Bytes::from_static(b"b"));
        let rest = q.dequeue(b"t", 10).unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].payload, Bytes::from_static(b"c"));
        assert!(q.dequeue(b"t", 10).unwrap().is_empty());
    }

    #[test]
    fn topics_are_isolated() {
        let (db, q) = setup();
        let mut txn = db.begin();
        q.enqueue(&mut txn, b"t1", Bytes::from_static(b"m"))
            .unwrap();
        db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap();
        assert!(q.dequeue(b"t2", 10).unwrap().is_empty());
        assert_eq!(q.dequeue(b"t1", 10).unwrap().len(), 1);
    }

    #[test]
    fn message_and_data_commit_atomically() {
        let (db, q) = setup();
        db.inject_commit_failure(crate::error::SpannerError::UnknownOutcome);
        let mut txn = db.begin();
        db.txn_put(
            &mut txn,
            "Entities",
            Key::from("doc"),
            Bytes::from_static(b"v"),
        )
        .unwrap();
        q.enqueue(&mut txn, b"t", Bytes::from_static(b"m")).unwrap();
        assert!(db.commit(txn, Timestamp::ZERO, Timestamp::MAX).is_err());
        // Neither the row nor the message is visible.
        assert_eq!(
            db.snapshot_read_versioned("Entities", &Key::from("doc"), db.strong_read_ts())
                .unwrap(),
            None
        );
        assert!(q.peek(b"t", db.strong_read_ts(), 10).unwrap().is_empty());
    }
}
