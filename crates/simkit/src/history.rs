//! Append-only operation-history recording and offline consistency checking.
//!
//! The paper's headline guarantees — externally consistent transactions via
//! TrueTime commit timestamps (§IV-D1) and listeners that deliver ordered,
//! gap-free consistent snapshots (§V) — are checked *mechanically* here:
//! every layer records what it did into a shared [`HistoryRecorder`], and at
//! end-of-test the checkers replay the committed transactions in
//! commit-timestamp order against a model store and verify that every read,
//! snapshot, and client ack observed exactly the model state.
//!
//! `simkit` sits below every other crate, so the event vocabulary is
//! deliberately opaque: tables are names, keys and values are bytes, and
//! observed values are FNV-64 hashes. The checks that need to *interpret*
//! bytes (decoding documents, evaluating queries for listener snapshots)
//! live in `firestore_core::checker`, which wraps the checkers here.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::Timestamp;

/// FNV-1a 64-bit hash — the digest used for recorded read observations.
///
/// Stable across runs and platforms (no `RandomState`), cheap, and good
/// enough to make "two different values collide" a non-concern at test scale.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One recorded operation. Events are appended by the layer that performed
/// the operation, at the point where its outcome became observable.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoryEvent {
    /// A transaction reached its durability point (outcome fsynced when a
    /// disk is attached, MVCC apply otherwise). `writes` carry the full
    /// value bytes (`None` = delete) so the model store can be rebuilt;
    /// `reads` carry the hash of what the transaction observed under its
    /// shared locks (`None` = absent).
    Commit {
        /// Transaction id.
        txn: u64,
        /// TrueTime commit timestamp.
        commit_ts: Timestamp,
        /// `(table, key, value)` mutations applied at `commit_ts`.
        writes: Vec<(String, Vec<u8>, Option<Vec<u8>>)>,
        /// `(table, key, observed-hash)` reads performed under lock.
        reads: Vec<(String, Vec<u8>, Option<u64>)>,
    },
    /// A snapshot (timestamp) read served by the storage layer.
    SnapshotRead {
        /// Read timestamp.
        ts: Timestamp,
        /// Table name.
        table: String,
        /// Key read.
        key: Vec<u8>,
        /// Hash of the value served, `None` if reported absent.
        observed: Option<u64>,
    },
    /// A document-level read served by the Firestore layer (lookup or query
    /// row). `digest` is `firestore_core::checker::doc_digest`.
    DocRead {
        /// 4-byte directory prefix of the database that served the read —
        /// scopes per-database checks in a multi-tenant history.
        dir: [u8; 4],
        /// Read timestamp.
        ts: Timestamp,
        /// Full document name.
        name: String,
        /// Digest of the served document, `None` if reported absent.
        digest: Option<u64>,
    },
    /// The client library acknowledged a flushed mutation to the caller.
    ClientAck {
        /// 4-byte directory prefix of the database the mutation targeted.
        dir: [u8; 4],
        /// Idempotency key of the mutation (`client-<session>:<id>`).
        dedup_id: String,
        /// Commit timestamp the ack reported.
        commit_ts: Timestamp,
    },
    /// A consistent snapshot delivered to one listener by the Real-time
    /// Cache: the full visible result set as `(doc name, doc digest)`.
    ListenerSnapshot {
        /// 4-byte directory prefix of the database the query listens on.
        dir: [u8; 4],
        /// Listening connection id.
        conn: u64,
        /// Query id (registry maintained by the test harness).
        query: u64,
        /// Snapshot timestamp.
        at: Timestamp,
        /// Whether this is the initial result set of a fresh listen.
        initial: bool,
        /// `(doc name, doc digest)` of every visible document, in order.
        visible: Vec<(String, u64)>,
    },
    /// A listener was reset (cache restart / unknown outcome): the client
    /// must re-listen; prior snapshot continuity is forgiven.
    ListenerReset {
        /// 4-byte directory prefix of the database the query listened on.
        dir: [u8; 4],
        /// Listening connection id.
        conn: u64,
        /// Query id.
        query: u64,
    },
    /// The storage layer crashed (volatile state lost).
    Crash,
    /// The storage layer finished recovery.
    Recovered,
}

/// A [`HistoryEvent`] stamped with its position in the global recording
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorded {
    /// Monotone sequence number assigned by the recorder.
    pub seq: u64,
    /// The event.
    pub event: HistoryEvent,
}

/// Append-only, shared operation-history recorder.
///
/// Layers hold an `Option<Arc<HistoryRecorder>>` and record only when one is
/// attached, so production paths pay a single null check.
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    events: Mutex<Vec<Recorded>>,
}

impl HistoryRecorder {
    /// A fresh recorder, ready to share across layers.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Append an event, assigning the next sequence number.
    pub fn record(&self, event: HistoryEvent) {
        let mut events = self.events.lock();
        let seq = events.len() as u64;
        events.push(Recorded { seq, event });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Snapshot of the full history in recording order.
    pub fn events(&self) -> Vec<Recorded> {
        self.events.lock().clone()
    }
}

/// A consistency violation found by a checker. `seq` pins the offending
/// event in the recorded history; `detail` names the operation (txn id,
/// timestamps, keys) so a failure is diagnosable from the report alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Violation class, e.g. `"stale-read"` or `"duplicate-apply"`.
    pub kind: &'static str,
    /// Sequence number of the offending event.
    pub seq: u64,
    /// Human-readable description naming the operation.
    pub detail: String,
}

/// One key's version chain: `(commit_ts, value)` in timestamp order, with
/// `None` marking a delete.
pub type VersionChain = Vec<(Timestamp, Option<Vec<u8>>)>;

/// The versioned model store rebuilt from recorded commits: for each table
/// and key, the full version chain `(commit_ts, value)` in timestamp order.
#[derive(Debug, Default)]
pub struct ModelStore {
    tables: std::collections::HashMap<String, std::collections::BTreeMap<Vec<u8>, VersionChain>>,
}

impl ModelStore {
    /// Build the model from every `Commit` event in `events`.
    pub fn build(events: &[Recorded]) -> Self {
        let mut model = Self::default();
        for rec in events {
            if let HistoryEvent::Commit {
                commit_ts, writes, ..
            } = &rec.event
            {
                for (table, key, value) in writes {
                    model
                        .tables
                        .entry(table.clone())
                        .or_default()
                        .entry(key.clone())
                        .or_default()
                        .push((*commit_ts, value.clone()));
                }
            }
        }
        for table in model.tables.values_mut() {
            for versions in table.values_mut() {
                versions.sort_by_key(|(ts, _)| *ts);
            }
        }
        model
    }

    /// The committed value of `(table, key)` visible at `ts` (newest version
    /// with `commit_ts <= ts`); `None` if absent or deleted.
    pub fn value_at(&self, table: &str, key: &[u8], ts: Timestamp) -> Option<&[u8]> {
        self.tables
            .get(table)?
            .get(key)?
            .iter()
            .rev()
            .find(|(vts, _)| *vts <= ts)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Like [`Self::value_at`] but strictly *before* `ts` — the state a
    /// transaction committing at `ts` observed under its shared locks.
    pub fn value_before(&self, table: &str, key: &[u8], ts: Timestamp) -> Option<&[u8]> {
        self.tables
            .get(table)?
            .get(key)?
            .iter()
            .rev()
            .find(|(vts, _)| *vts < ts)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Like [`Self::value_at`] but also returning the commit timestamp of
    /// the version read (callers derive document update times from it).
    pub fn versioned_at(
        &self,
        table: &str,
        key: &[u8],
        ts: Timestamp,
    ) -> Option<(Timestamp, &[u8])> {
        self.tables
            .get(table)?
            .get(key)?
            .iter()
            .rev()
            .find(|(vts, _)| *vts <= ts)
            .and_then(|(vts, v)| v.as_deref().map(|v| (*vts, v)))
    }

    /// All live `(key, version-ts, value)` triples of `table` visible at
    /// `ts`, in key order.
    pub fn scan_versioned_at(&self, table: &str, ts: Timestamp) -> Vec<(&[u8], Timestamp, &[u8])> {
        let Some(table) = self.tables.get(table) else {
            return Vec::new();
        };
        table
            .iter()
            .filter_map(|(key, versions)| {
                versions
                    .iter()
                    .rev()
                    .find(|(vts, _)| *vts <= ts)
                    .and_then(|(vts, v)| v.as_deref().map(|v| (key.as_slice(), *vts, v)))
            })
            .collect()
    }
}

fn fmt_key(key: &[u8]) -> String {
    if key.iter().all(|&b| (0x20..0x7f).contains(&b)) {
        format!("{:?}", String::from_utf8_lossy(key))
    } else {
        let hex: String = key.iter().map(|b| format!("{b:02x}")).collect();
        format!("0x{hex}")
    }
}

fn fmt_opt_hash(h: Option<u64>) -> String {
    match h {
        Some(h) => format!("{h:#018x}"),
        None => "<absent>".into(),
    }
}

/// Check strict serializability of the recorded history.
///
/// Commits are replayed in *recording* order, which in a TrueTime-correct
/// implementation is also commit-timestamp order: a commit becomes durable
/// (and therefore recordable) only after commit-wait, so any later-recorded
/// commit started after this one finished and must carry a larger timestamp.
/// A regression here is an external-consistency violation. Every recorded
/// read is then checked against the rebuilt model:
///
/// * transactional reads (held under shared locks to commit) must equal the
///   model state immediately *before* the transaction's commit timestamp;
/// * snapshot reads at `ts` must equal the model state *at* `ts` — all
///   commits with `commit_ts <= ts` visible, none with `commit_ts > ts`.
pub fn check_serializability(events: &[Recorded]) -> Vec<Violation> {
    let model = ModelStore::build(events);
    let mut violations = Vec::new();
    let mut last_commit: Option<(u64, Timestamp)> = None;

    for rec in events {
        match &rec.event {
            HistoryEvent::Commit {
                txn,
                commit_ts,
                reads,
                ..
            } => {
                if let Some((prev_txn, prev_ts)) = last_commit {
                    if *commit_ts <= prev_ts {
                        violations.push(Violation {
                            kind: "commit-ts-regression",
                            seq: rec.seq,
                            detail: format!(
                                "txn {txn} committed at {} ns but earlier txn {prev_txn} \
                                 already committed at {} ns — TrueTime external-consistency \
                                 ordering violated",
                                commit_ts.0, prev_ts.0
                            ),
                        });
                    }
                }
                last_commit = Some((*txn, *commit_ts));

                for (table, key, observed) in reads {
                    let expected = model
                        .value_before(table, key, *commit_ts)
                        .map(hash_bytes);
                    if *observed != expected {
                        violations.push(Violation {
                            kind: "txn-read-mismatch",
                            seq: rec.seq,
                            detail: format!(
                                "txn {txn} (commit_ts {} ns) read {}/{} = {} but the model \
                                 state immediately before its commit is {}",
                                commit_ts.0,
                                table,
                                fmt_key(key),
                                fmt_opt_hash(*observed),
                                fmt_opt_hash(expected),
                            ),
                        });
                    }
                }
            }
            HistoryEvent::SnapshotRead {
                ts,
                table,
                key,
                observed,
            } => {
                let expected = model.value_at(table, key, *ts).map(hash_bytes);
                if *observed != expected {
                    violations.push(Violation {
                        kind: "stale-read",
                        seq: rec.seq,
                        detail: format!(
                            "snapshot read of {}/{} at {} ns observed {} but the model \
                             holds {} — the read missed or anticipated a commit",
                            table,
                            fmt_key(key),
                            ts.0,
                            fmt_opt_hash(*observed),
                            fmt_opt_hash(expected),
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    violations
}

/// Check exactly-once application of acknowledged client mutations.
///
/// Every `ClientAck { dedup_id, commit_ts }` must be backed by *exactly one*
/// recorded commit that inserted the dedup ledger row for `dedup_id`
/// (a write of `Some` value to `ledger_table` whose key maps back to the
/// dedup id via `key_to_dedup` — ledger GC deletes write `None` and do not
/// count). Zero such commits means an acked write was lost; more than one
/// means a retried mutation applied twice.
///
/// `scope`, when set, restricts the check to acks recorded against that
/// directory prefix: in a multi-tenant history other databases' acks are
/// backed by ledger rows `key_to_dedup` cannot decode, and would otherwise
/// read as lost.
pub fn check_exactly_once(
    events: &[Recorded],
    ledger_table: &str,
    key_to_dedup: &dyn Fn(&[u8]) -> Option<String>,
    scope: Option<[u8; 4]>,
) -> Vec<Violation> {
    use std::collections::HashMap;
    // dedup_id -> [(seq, commit_ts)] of commits inserting its ledger row.
    let mut applies: HashMap<String, Vec<(u64, Timestamp)>> = HashMap::new();
    for rec in events {
        if let HistoryEvent::Commit {
            commit_ts, writes, ..
        } = &rec.event
        {
            for (table, key, value) in writes {
                if table == ledger_table && value.is_some() {
                    if let Some(id) = key_to_dedup(key) {
                        applies.entry(id).or_default().push((rec.seq, *commit_ts));
                    }
                }
            }
        }
    }

    let mut violations = Vec::new();
    for rec in events {
        if let HistoryEvent::ClientAck {
            dir,
            dedup_id,
            commit_ts,
        } = &rec.event
        {
            if scope.is_some_and(|s| s != *dir) {
                continue;
            }
            match applies.get(dedup_id).map(Vec::as_slice) {
                None | Some([]) => violations.push(Violation {
                    kind: "lost-ack",
                    seq: rec.seq,
                    detail: format!(
                        "client ack for {dedup_id} (commit_ts {} ns) has no recorded \
                         commit inserting its dedup ledger row",
                        commit_ts.0
                    ),
                }),
                Some([(_, apply_ts)]) => {
                    if apply_ts != commit_ts {
                        violations.push(Violation {
                            kind: "ack-ts-mismatch",
                            seq: rec.seq,
                            detail: format!(
                                "client ack for {dedup_id} reported commit_ts {} ns but \
                                 the ledger row was inserted at {} ns",
                                commit_ts.0, apply_ts.0
                            ),
                        });
                    }
                }
                Some(many) => {
                    let times: Vec<String> = many
                        .iter()
                        .map(|(seq, ts)| format!("seq {seq} @ {} ns", ts.0))
                        .collect();
                    violations.push(Violation {
                        kind: "duplicate-apply",
                        seq: rec.seq,
                        detail: format!(
                            "mutation {dedup_id} applied {} times ({}) — acked client \
                             writes must apply exactly once under crash/retry",
                            many.len(),
                            times.join(", ")
                        ),
                    });
                }
            }
        }
    }
    violations
}

/// Render a deterministic, self-contained failure report: each violation
/// plus a short window of the history around the earliest offender, so a CI
/// artifact alone is enough to understand the counterexample.
pub fn render_report(events: &[Recorded], violations: &[Violation]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "consistency oracle: {} violation(s) over {} recorded event(s)",
        violations.len(),
        events.len()
    );
    for v in violations {
        let _ = writeln!(out, "  [{}] seq {}: {}", v.kind, v.seq, v.detail);
    }
    if let Some(first) = violations.iter().map(|v| v.seq).min() {
        let lo = first.saturating_sub(5);
        let hi = first.saturating_add(3);
        let _ = writeln!(out, "history window around seq {first}:");
        for rec in events {
            if rec.seq >= lo && rec.seq <= hi {
                let marker = if violations.iter().any(|v| v.seq == rec.seq) {
                    ">>"
                } else {
                    "  "
                };
                let _ = writeln!(out, "{marker} seq {}: {}", rec.seq, summarize(&rec.event));
            }
        }
    }
    out
}

fn summarize(event: &HistoryEvent) -> String {
    match event {
        HistoryEvent::Commit {
            txn,
            commit_ts,
            writes,
            reads,
        } => format!(
            "Commit txn {txn} @ {} ns ({} writes, {} reads)",
            commit_ts.0,
            writes.len(),
            reads.len()
        ),
        HistoryEvent::SnapshotRead { ts, table, key, .. } => {
            format!("SnapshotRead {}/{} @ {} ns", table, fmt_key(key), ts.0)
        }
        HistoryEvent::DocRead { ts, name, .. } => format!("DocRead {name} @ {} ns", ts.0),
        HistoryEvent::ClientAck {
            dedup_id,
            commit_ts,
            ..
        } => format!("ClientAck {dedup_id} @ {} ns", commit_ts.0),
        HistoryEvent::ListenerSnapshot {
            conn,
            query,
            at,
            initial,
            visible,
            ..
        } => format!(
            "ListenerSnapshot conn {conn} query {query} @ {} ns ({} visible{})",
            at.0,
            visible.len(),
            if *initial { ", initial" } else { "" }
        ),
        HistoryEvent::ListenerReset { conn, query, .. } => {
            format!("ListenerReset conn {conn} query {query}")
        }
        HistoryEvent::Crash => "Crash".into(),
        HistoryEvent::Recovered => "Recovered".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(n: u64) -> Timestamp {
        Timestamp(n)
    }

    type TestWrite<'a> = (&'a str, &'a [u8], Option<&'a [u8]>);

    fn commit(txn: u64, at: u64, writes: Vec<TestWrite<'_>>) -> HistoryEvent {
        HistoryEvent::Commit {
            txn,
            commit_ts: ts(at),
            writes: writes
                .into_iter()
                .map(|(t, k, v)| (t.to_string(), k.to_vec(), v.map(|v| v.to_vec())))
                .collect(),
            reads: Vec::new(),
        }
    }

    fn record_all(events: Vec<HistoryEvent>) -> Vec<Recorded> {
        let rec = HistoryRecorder::new();
        for e in events {
            rec.record(e);
        }
        rec.events()
    }

    #[test]
    fn clean_history_passes() {
        let events = record_all(vec![
            commit(1, 10, vec![("T", b"a", Some(b"1"))]),
            HistoryEvent::SnapshotRead {
                ts: ts(15),
                table: "T".into(),
                key: b"a".to_vec(),
                observed: Some(hash_bytes(b"1")),
            },
            commit(2, 20, vec![("T", b"a", Some(b"2"))]),
            HistoryEvent::SnapshotRead {
                ts: ts(15),
                table: "T".into(),
                key: b"a".to_vec(),
                observed: Some(hash_bytes(b"1")),
            },
            HistoryEvent::SnapshotRead {
                ts: ts(25),
                table: "T".into(),
                key: b"a".to_vec(),
                observed: Some(hash_bytes(b"2")),
            },
        ]);
        assert!(check_serializability(&events).is_empty());
    }

    #[test]
    fn stale_snapshot_read_detected() {
        let events = record_all(vec![
            commit(1, 10, vec![("T", b"a", Some(b"1"))]),
            commit(2, 20, vec![("T", b"a", Some(b"2"))]),
            HistoryEvent::SnapshotRead {
                ts: ts(25),
                table: "T".into(),
                key: b"a".to_vec(),
                observed: Some(hash_bytes(b"1")), // stale: should see "2"
            },
        ]);
        let v = check_serializability(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, "stale-read");
        assert_eq!(v[0].seq, 2);
    }

    #[test]
    fn commit_ts_regression_detected() {
        let events = record_all(vec![
            commit(1, 20, vec![("T", b"a", Some(b"1"))]),
            commit(2, 15, vec![("T", b"b", Some(b"2"))]),
        ]);
        let v = check_serializability(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, "commit-ts-regression");
    }

    #[test]
    fn txn_read_checked_against_pre_commit_state() {
        let mut read_commit = commit(2, 20, vec![("T", b"a", Some(b"2"))]);
        if let HistoryEvent::Commit { reads, .. } = &mut read_commit {
            reads.push(("T".into(), b"a".to_vec(), Some(hash_bytes(b"1"))));
        }
        let events = record_all(vec![commit(1, 10, vec![("T", b"a", Some(b"1"))]), read_commit]);
        assert!(check_serializability(&events).is_empty());
    }

    #[test]
    fn deletes_are_tombstones() {
        let events = record_all(vec![
            commit(1, 10, vec![("T", b"a", Some(b"1"))]),
            commit(2, 20, vec![("T", b"a", None)]),
            HistoryEvent::SnapshotRead {
                ts: ts(25),
                table: "T".into(),
                key: b"a".to_vec(),
                observed: None,
            },
        ]);
        assert!(check_serializability(&events).is_empty());
    }

    #[test]
    fn exactly_once_flags_duplicates_and_losses() {
        let ledger = "Ledger";
        let to_id = |key: &[u8]| Some(String::from_utf8_lossy(key).into_owned());
        let events = record_all(vec![
            commit(1, 10, vec![(ledger, b"m1", Some(b"1"))]),
            HistoryEvent::ClientAck {
                dir: [0; 4],
                dedup_id: "m1".into(),
                commit_ts: ts(10),
            },
            commit(2, 20, vec![(ledger, b"m1", Some(b"1"))]),
            HistoryEvent::ClientAck {
                dir: [0; 4],
                dedup_id: "m2".into(),
                commit_ts: ts(30),
            },
        ]);
        let v = check_exactly_once(&events, ledger, &to_id, None);
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|v| v.kind == "duplicate-apply"));
        assert!(v.iter().any(|v| v.kind == "lost-ack"));
    }

    #[test]
    fn ledger_gc_deletes_do_not_count_as_applies() {
        let ledger = "Ledger";
        let to_id = |key: &[u8]| Some(String::from_utf8_lossy(key).into_owned());
        let events = record_all(vec![
            commit(1, 10, vec![(ledger, b"m1", Some(b"1"))]),
            HistoryEvent::ClientAck {
                dir: [0; 4],
                dedup_id: "m1".into(),
                commit_ts: ts(10),
            },
            commit(2, 20, vec![(ledger, b"m1", None)]), // GC
        ]);
        assert!(check_exactly_once(&events, ledger, &to_id, None).is_empty());
    }

    #[test]
    fn report_names_the_offender() {
        let events = record_all(vec![
            commit(1, 20, vec![("T", b"a", Some(b"1"))]),
            commit(7, 15, vec![("T", b"b", Some(b"2"))]),
        ]);
        let v = check_serializability(&events);
        let report = render_report(&events, &v);
        assert!(report.contains("commit-ts-regression"));
        assert!(report.contains("txn 7"));
        assert!(report.contains(">> seq 1"));
    }
}
