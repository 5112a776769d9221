//! Read-write transactions.
//!
//! A transaction acquires cell locks as it reads, buffers its mutations, and
//! applies them atomically at a TrueTime commit timestamp (with exclusive
//! locks taken on written cells during commit, mirroring paper §IV-D2 step 6:
//! "Spanner acquires additional exclusive locks on the specific IndexEntries
//! rows"). Dropping an uncommitted transaction releases its locks.

use crate::key::Key;
use bytes::Bytes;
use std::fmt;

/// A transaction identifier, unique within one [`crate::SpannerDatabase`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// A buffered write: insert/update (`Some`) or delete (`None`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mutation {
    /// Interned table id.
    pub table: u32,
    /// Row key.
    pub key: Key,
    /// New value, or `None` for a delete.
    pub value: Option<Bytes>,
}

/// State of a read-write transaction. Created by
/// [`crate::SpannerDatabase::begin`]; all operations go through the database
/// handle, which owns locks and storage.
pub struct ReadWriteTransaction {
    pub(crate) id: TxnId,
    pub(crate) mutations: Vec<Mutation>,
    pub(crate) closed: bool,
    /// `(table, key, value-hash)` observations made under shared lock, kept
    /// only while a history recorder is attached (consistency oracle).
    pub(crate) observed_reads: Vec<(u32, Key, Option<u64>)>,
}

impl Default for ReadWriteTransaction {
    /// A closed placeholder transaction; used by callers that need to move
    /// a transaction out of a `&mut` slot (e.g. to hand it to `commit`).
    fn default() -> Self {
        let mut t = ReadWriteTransaction::new(TxnId(0));
        t.closed = true;
        t
    }
}

impl ReadWriteTransaction {
    pub(crate) fn new(id: TxnId) -> Self {
        ReadWriteTransaction {
            id,
            mutations: Vec::new(),
            closed: false,
            observed_reads: Vec::new(),
        }
    }

    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Buffered mutations, in buffer order (later writes to the same key
    /// supersede earlier ones at apply time).
    pub fn mutations(&self) -> &[Mutation] {
        &self.mutations
    }

    /// Total payload bytes across buffered mutations (keys + values).
    pub fn payload_bytes(&self) -> usize {
        self.mutations
            .iter()
            .map(|m| m.key.len() + m.value.as_ref().map_or(0, |v| v.len()))
            .sum()
    }

    /// Look up the buffered value for `(table, key)`, if this transaction
    /// wrote it (read-your-writes).
    pub(crate) fn buffered(&self, table: u32, key: &Key) -> Option<Option<Bytes>> {
        self.mutations
            .iter()
            .rev()
            .find(|m| m.table == table && &m.key == key)
            .map(|m| m.value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_counts_keys_and_values() {
        let mut t = ReadWriteTransaction::new(TxnId(1));
        t.mutations.push(Mutation {
            table: 0,
            key: Key::from("ab"),
            value: Some(Bytes::from_static(b"xyz")),
        });
        t.mutations.push(Mutation {
            table: 0,
            key: Key::from("c"),
            value: None,
        });
        assert_eq!(t.payload_bytes(), 2 + 3 + 1);
    }

    #[test]
    fn buffered_returns_last_write_wins() {
        let mut t = ReadWriteTransaction::new(TxnId(1));
        let k = Key::from("k");
        t.mutations.push(Mutation {
            table: 0,
            key: k.clone(),
            value: Some(Bytes::from_static(b"v1")),
        });
        t.mutations.push(Mutation {
            table: 0,
            key: k.clone(),
            value: None,
        });
        assert_eq!(t.buffered(0, &k), Some(None));
        assert_eq!(t.buffered(1, &k), None);
        assert_eq!(t.buffered(0, &Key::from("other")), None);
    }
}
