//! Document-level consistency checking over recorded operation histories.
//!
//! [`simkit::history`] records and checks the *storage-level* invariants
//! (commit-timestamp ordering, read-vs-model agreement, exactly-once ledger
//! application) without interpreting any bytes. This module adds the checks
//! that need Firestore semantics: decoding `Entities` rows into
//! [`Document`]s, evaluating queries against the model store, and verifying
//! every Real-time Cache listener snapshot against the model query result at
//! its timestamp (paper §V: listeners deliver ordered, gap-free consistent
//! snapshots).
//!
//! [`check_history`] is the single entry point tests use: it runs every
//! checker and returns an [`OracleReport`] whose rendered form names the
//! offending operation — a CI artifact is enough to diagnose a failure.

use std::collections::HashMap;

use simkit::history::{
    check_exactly_once, check_serializability, render_report, HistoryEvent, ModelStore, Recorded,
    Violation,
};
use simkit::Timestamp;
use spanner::database::DirectoryId;

use crate::database::WRITE_LEDGER;
use crate::document::{encode_value, Document, Value};
use crate::executor::ENTITIES;
use crate::matching;
use crate::path::DocumentName;
use crate::query::Query;
use crate::write;

/// Order-independent digest of one served document: name, update time, and
/// canonically encoded fields. The create time is deliberately excluded —
/// it is patched from the version timestamp on first write and preserved on
/// updates, so different (all correct) read paths can legitimately disagree
/// on it for the same version; `update_time` is always the version's commit
/// timestamp and pins the version exactly.
pub fn doc_digest(doc: &Document) -> u64 {
    let mut buf = Vec::new();
    buf.extend_from_slice(doc.name.to_string().as_bytes());
    buf.extend_from_slice(&doc.update_time.0.to_be_bytes());
    encode_value(&Value::Map(doc.fields.clone()), &mut buf);
    simkit::history::hash_bytes(&buf)
}

/// Decode the model's `Entities` row for `(key, version_ts, value)` into a
/// [`Document`], mirroring the read path's storage decoding.
fn decode_model_doc(dir: DirectoryId, key: &[u8], vts: Timestamp, value: &[u8]) -> Option<Document> {
    let suffix = key.strip_prefix(&dir.prefix()[..])?;
    let name = DocumentName::decode(suffix)?;
    write::decode_from_storage(name, value, vts)
}

/// Evaluate `query` against the model store at `ts`: decode every visible
/// `Entities` row in the directory, filter with the production matcher, sort
/// by the production order key, apply the window. This is the ground truth a
/// listener snapshot at `ts` must equal.
pub fn eval_query_at(
    model: &ModelStore,
    dir: DirectoryId,
    query: &Query,
    ts: Timestamp,
) -> Vec<Document> {
    let mut docs: Vec<Document> = model
        .scan_versioned_at(ENTITIES, ts)
        .into_iter()
        .filter_map(|(key, vts, value)| decode_model_doc(dir, key, vts, value))
        .filter(|doc| matching::matches_document(query, doc))
        .collect();
    docs.sort_by_cached_key(|doc| matching::order_key(query, doc));
    matching::apply_window(docs, query.offset, query.limit).collect()
}

fn digests(docs: &[Document]) -> Vec<(String, u64)> {
    docs.iter()
        .map(|d| (d.name.to_string(), doc_digest(d)))
        .collect()
}

fn fmt_visible(visible: &[(String, u64)]) -> String {
    let items: Vec<String> = visible
        .iter()
        .map(|(name, digest)| format!("{name}#{digest:016x}"))
        .collect();
    format!("[{}]", items.join(", "))
}

/// The full oracle verdict over one recorded history.
#[derive(Debug)]
pub struct OracleReport {
    /// Every violation found, in event order per checker.
    pub violations: Vec<Violation>,
    /// Number of events checked.
    pub events: usize,
    /// Rendered counterexample report (empty string when clean).
    pub report: String,
}

impl OracleReport {
    /// Whether the history satisfied every checked invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run every consistency checker over `events`:
///
/// 1. strict serializability and external-consistency ordering
///    ([`simkit::history::check_serializability`]);
/// 2. exactly-once application of acked client mutations, via the
///    `WriteLedger` rows inside `dir`;
/// 3. document reads: every `DocRead` digest equals the model document at
///    its timestamp;
/// 4. listener consistency: per listener, snapshot timestamps never regress,
///    every snapshot equals the model query result at its timestamp
///    (`queries` maps the recorded query ids to the queries the harness
///    registered), and every listener that was not reset has converged to
///    the model result at `final_ts`.
pub fn check_history(
    events: &[Recorded],
    dir: DirectoryId,
    queries: &HashMap<u64, Query>,
    final_ts: Timestamp,
) -> OracleReport {
    let model = ModelStore::build(events);
    let mut violations = check_serializability(events);

    // Exactly-once: WriteLedger keys are the 4-byte directory prefix
    // followed by the dedup id bytes.
    let prefix = dir.prefix();
    let key_to_dedup = move |key: &[u8]| -> Option<String> {
        let suffix = key.strip_prefix(&prefix[..])?;
        Some(String::from_utf8_lossy(suffix).into_owned())
    };
    violations.extend(check_exactly_once(
        events,
        WRITE_LEDGER,
        &key_to_dedup,
        Some(prefix),
    ));

    // Per-listener state: last snapshot (ts, visible), and whether a reset
    // forgave continuity since then.
    struct ListenerState {
        last_at: Timestamp,
        last_visible: Vec<(String, u64)>,
        reset: bool,
    }
    let mut listeners: HashMap<(u64, u64), ListenerState> = HashMap::new();

    for rec in events {
        // Document reads and listener events are per-database: in a
        // multi-tenant history, only the target directory's are checked.
        match &rec.event {
            HistoryEvent::DocRead {
                dir: edir,
                ts,
                name,
                digest,
            } if *edir == prefix => {
                let expected = DocumentName::parse(name)
                    .ok()
                    .and_then(|n| {
                        let key = dir.key(&n.encode());
                        model
                            .versioned_at(ENTITIES, key.as_slice(), *ts)
                            .and_then(|(vts, value)| write::decode_from_storage(n, value, vts))
                    })
                    .map(|doc| doc_digest(&doc));
                if *digest != expected {
                    violations.push(Violation {
                        kind: "doc-read-mismatch",
                        seq: rec.seq,
                        detail: format!(
                            "document read of {name} at {} ns served digest {:?} but the \
                             model holds {:?}",
                            ts.0, digest, expected
                        ),
                    });
                }
            }
            HistoryEvent::ListenerSnapshot {
                dir: edir,
                conn,
                query,
                at,
                initial,
                visible,
            } if *edir == prefix => {
                let state = listeners.entry((*conn, *query)).or_insert(ListenerState {
                    last_at: Timestamp::ZERO,
                    last_visible: Vec::new(),
                    reset: false,
                });
                if !*initial && !state.reset && *at < state.last_at {
                    violations.push(Violation {
                        kind: "listener-ts-regression",
                        seq: rec.seq,
                        detail: format!(
                            "listener conn {conn} query {query} delivered a snapshot at \
                             {} ns after one at {} ns — snapshot timestamps must be \
                             monotonic (§V ordered delivery)",
                            at.0, state.last_at.0
                        ),
                    });
                }
                state.last_at = *at;
                state.last_visible = visible.clone();
                state.reset = false;

                match queries.get(query) {
                    None => violations.push(Violation {
                        kind: "unregistered-query",
                        seq: rec.seq,
                        detail: format!(
                            "listener snapshot for query id {query} which the harness \
                             never registered"
                        ),
                    }),
                    Some(q) => {
                        let expected = digests(&eval_query_at(&model, dir, q, *at));
                        if *visible != expected {
                            violations.push(Violation {
                                kind: "listener-snapshot-divergence",
                                seq: rec.seq,
                                detail: format!(
                                    "listener conn {conn} query {query} snapshot at {} ns \
                                     delivered {} but the model query result is {}",
                                    at.0,
                                    fmt_visible(visible),
                                    fmt_visible(&expected)
                                ),
                            });
                        }
                    }
                }
            }
            HistoryEvent::ListenerReset {
                dir: edir,
                conn,
                query,
            } if *edir == prefix => {
                if let Some(state) = listeners.get_mut(&(*conn, *query)) {
                    state.reset = true;
                }
            }
            _ => {}
        }
    }

    // Convergence: a listener that was not reset after its last snapshot
    // must have caught up to the model state at `final_ts` — no acked write
    // may be permanently missing from its view (§V gap-free delivery).
    let mut keys: Vec<&(u64, u64)> = listeners.keys().collect();
    keys.sort();
    for key in keys {
        let (conn, query) = *key;
        let state = &listeners[&(conn, query)];
        if state.reset {
            continue;
        }
        let Some(q) = queries.get(&query) else {
            continue; // already reported as unregistered-query
        };
        let expected = digests(&eval_query_at(&model, dir, q, final_ts));
        if state.last_visible != expected {
            violations.push(Violation {
                kind: "listener-non-convergence",
                seq: u64::MAX,
                detail: format!(
                    "listener conn {conn} query {query} last delivered {} (at {} ns) but \
                     the model query result at final ts {} ns is {} — an acked write \
                     never reached the listener",
                    fmt_visible(&state.last_visible),
                    state.last_at.0,
                    final_ts.0,
                    fmt_visible(&expected)
                ),
            });
        }
    }

    let report = if violations.is_empty() {
        String::new()
    } else {
        render_report(events, &violations)
    };
    OracleReport {
        violations,
        events: events.len(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::history::HistoryRecorder;

    fn doc(name: &str, n: i64, at: u64) -> Document {
        let name = DocumentName::parse(name).unwrap();
        let mut fields = std::collections::BTreeMap::new();
        fields.insert("n".to_string(), Value::Int(n));
        let mut d = Document::new(name, fields);
        d.create_time = Timestamp(at);
        d.update_time = Timestamp(at);
        d
    }

    fn commit_doc(dir: DirectoryId, txn: u64, d: &Document) -> HistoryEvent {
        let stored = write::encode_for_storage(&d.name, &d.fields, Timestamp::ZERO);
        HistoryEvent::Commit {
            txn,
            commit_ts: d.update_time,
            writes: vec![(
                ENTITIES.to_string(),
                dir.key(&d.name.encode()).as_slice().to_vec(),
                Some(stored.to_vec()),
            )],
            reads: Vec::new(),
        }
    }

    fn base_query() -> Query {
        Query::collection(crate::path::CollectionPath::parse("col").unwrap())
    }

    #[test]
    fn listener_snapshot_matches_model() {
        let dir = DirectoryId(1);
        let rec = HistoryRecorder::new();
        let d = doc("col/a", 1, 10);
        rec.record(commit_doc(dir, 1, &d));
        rec.record(HistoryEvent::ListenerSnapshot {
            dir: dir.prefix(),
            conn: 1,
            query: 7,
            at: Timestamp(15),
            initial: true,
            visible: vec![(d.name.to_string(), doc_digest(&d))],
        });
        let mut queries = HashMap::new();
        queries.insert(7u64, base_query());
        let report = check_history(&rec.events(), dir, &queries, Timestamp(15));
        assert!(report.passed(), "{}", report.report);
    }

    #[test]
    fn diverged_snapshot_and_non_convergence_flagged() {
        let dir = DirectoryId(1);
        let rec = HistoryRecorder::new();
        let d = doc("col/a", 1, 10);
        rec.record(commit_doc(dir, 1, &d));
        // Snapshot claims an empty result set even though `col/a` exists.
        rec.record(HistoryEvent::ListenerSnapshot {
            dir: dir.prefix(),
            conn: 1,
            query: 7,
            at: Timestamp(15),
            initial: true,
            visible: vec![],
        });
        let mut queries = HashMap::new();
        queries.insert(7u64, base_query());
        let report = check_history(&rec.events(), dir, &queries, Timestamp(15));
        let kinds: Vec<&str> = report.violations.iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&"listener-snapshot-divergence"), "{kinds:?}");
        assert!(kinds.contains(&"listener-non-convergence"), "{kinds:?}");
        assert!(report.report.contains("conn 1 query 7"));
    }

    #[test]
    fn reset_forgives_convergence() {
        let dir = DirectoryId(1);
        let rec = HistoryRecorder::new();
        let d = doc("col/a", 1, 10);
        rec.record(HistoryEvent::ListenerSnapshot {
            dir: dir.prefix(),
            conn: 1,
            query: 7,
            at: Timestamp(5),
            initial: true,
            visible: vec![],
        });
        rec.record(commit_doc(dir, 1, &d));
        rec.record(HistoryEvent::ListenerReset {
            dir: dir.prefix(),
            conn: 1,
            query: 7,
        });
        let mut queries = HashMap::new();
        queries.insert(7u64, base_query());
        let report = check_history(&rec.events(), dir, &queries, Timestamp(15));
        assert!(report.passed(), "{}", report.report);
    }

    #[test]
    fn ts_regression_flagged() {
        let dir = DirectoryId(1);
        let rec = HistoryRecorder::new();
        for (at, initial) in [(20u64, true), (10, false)] {
            rec.record(HistoryEvent::ListenerSnapshot {
                dir: dir.prefix(),
                conn: 2,
                query: 9,
                at: Timestamp(at),
                initial,
                visible: vec![],
            });
        }
        let mut queries = HashMap::new();
        queries.insert(9u64, base_query());
        let report = check_history(&rec.events(), dir, &queries, Timestamp(30));
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == "listener-ts-regression"));
    }
}
