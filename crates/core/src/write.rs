//! The write pipeline (paper §IV-D2).
//!
//! A Firestore commit is processed as:
//!
//! 1. create a Spanner read-write transaction,
//! 2. read the affected documents with exclusive locks and verify
//!    preconditions,
//! 3. for third-party requests, execute the database's security rules
//!    (with `get()`/`exists()` lookups resolved *inside the same
//!    transaction*),
//! 4. compute index-entry changes from the cached index definitions and add
//!    the `Entities`/`IndexEntries` row mutations to the transaction,
//! 5. pick a max commit timestamp `M` and `Prepare` the Real-time Cache,
//!    receiving a minimum allowed timestamp `m`,
//! 6. commit the Spanner transaction with window `[m, M]`,
//! 7. `Accept` the Real-time Cache with the outcome and full document
//!    copies.
//!
//! Every failure path the paper enumerates is implemented: precondition /
//! rules denials return errors before any mutation; Prepare unavailability
//! fails the write; a definitive Spanner failure sends `Accept(Failed)`; an
//! unknown outcome sends `Accept(Unknown)`, and the write's result is
//! reported as unknown to the caller.

use crate::document::{Document, Value, MAX_DOCUMENT_SIZE};
use crate::error::{FirestoreError, FirestoreResult};
use crate::executor::{ReadAccess, ENTITIES, INDEX_ENTRIES};
use crate::index::{entry_diff_per_index, IndexState};
use crate::observer::{CommitOutcome, DocumentChange};
use crate::path::DocumentName;
use bytes::Bytes;
use rules::{AuthContext, DataSource, EvalError, Method, RequestContext, RuleValue};
use simkit::{prof, Duration, Timestamp};
use spanner::{ReadWriteTransaction, SpannerError};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Who is performing a request.
#[derive(Clone, Debug)]
pub enum Caller {
    /// A privileged server-side caller (Server SDKs, §III-D); security
    /// rules do not apply.
    Service,
    /// An end-user via the Mobile/Web SDKs; security rules apply, with
    /// `None` meaning unauthenticated.
    EndUser(Option<AuthContext>),
}

impl Caller {
    /// Whether rules must be evaluated for this caller.
    pub fn is_third_party(&self) -> bool {
        matches!(self, Caller::EndUser(_))
    }

    /// The auth context rules see.
    pub fn auth(&self) -> Option<AuthContext> {
        match self {
            Caller::Service => None,
            Caller::EndUser(a) => a.clone(),
        }
    }
}

/// A single operation within a commit.
#[derive(Clone, Debug, PartialEq)]
pub enum WriteOp {
    /// Create or replace the document.
    Set {
        /// Target document.
        name: DocumentName,
        /// The full new field map (Firestore `set` semantics).
        fields: BTreeMap<String, Value>,
    },
    /// Delete the document (idempotent).
    Delete {
        /// Target document.
        name: DocumentName,
    },
    /// Merge the given fields into the document, creating it if absent —
    /// the SDKs' `set(..., {merge: true})`. Unlisted fields are preserved.
    Merge {
        /// Target document.
        name: DocumentName,
        /// Fields to merge.
        fields: BTreeMap<String, Value>,
    },
    /// Verify-only: check the precondition (freshness revalidation for
    /// optimistic client transactions, §III-E: "all data read by the
    /// transaction is revalidated for freshness at the time of the
    /// commit") without mutating anything.
    Verify {
        /// Target document.
        name: DocumentName,
    },
}

impl WriteOp {
    /// The document this write targets.
    pub fn name(&self) -> &DocumentName {
        match self {
            WriteOp::Set { name, .. } => name,
            WriteOp::Merge { name, .. } => name,
            WriteOp::Delete { name } => name,
            WriteOp::Verify { name } => name,
        }
    }

    /// Whether this op mutates the document.
    pub fn is_mutation(&self) -> bool {
        !matches!(self, WriteOp::Verify { .. })
    }
}

/// A precondition attached to a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precondition {
    /// No precondition (blind write, "last update wins", §III-E).
    None,
    /// The document must already exist.
    MustExist,
    /// The document must not exist (create).
    MustNotExist,
    /// The document's `update_time` must equal the given timestamp — the
    /// freshness check behind the SDKs' optimistic concurrency control
    /// (§III-E: "all data read by the transaction is revalidated for
    /// freshness at the time of the commit").
    UpdateTimeEquals(Timestamp),
}

/// A write with its precondition.
#[derive(Clone, Debug, PartialEq)]
pub struct Write {
    /// The operation.
    pub op: WriteOp,
    /// Its precondition.
    pub precondition: Precondition,
}

impl Write {
    /// A set with no precondition.
    pub fn set(
        name: DocumentName,
        fields: impl IntoIterator<Item = (impl Into<String>, Value)>,
    ) -> Write {
        Write {
            op: WriteOp::Set {
                name,
                fields: fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            },
            precondition: Precondition::None,
        }
    }

    /// A create (set that must not overwrite).
    pub fn create(
        name: DocumentName,
        fields: impl IntoIterator<Item = (impl Into<String>, Value)>,
    ) -> Write {
        Write {
            precondition: Precondition::MustNotExist,
            ..Write::set(name, fields)
        }
    }

    /// An update (set that requires existence).
    pub fn update(
        name: DocumentName,
        fields: impl IntoIterator<Item = (impl Into<String>, Value)>,
    ) -> Write {
        Write {
            precondition: Precondition::MustExist,
            ..Write::set(name, fields)
        }
    }

    /// A delete with no precondition.
    pub fn delete(name: DocumentName) -> Write {
        Write {
            op: WriteOp::Delete { name },
            precondition: Precondition::None,
        }
    }

    /// A verify-only write (freshness check).
    pub fn verify(name: DocumentName, precondition: Precondition) -> Write {
        Write {
            op: WriteOp::Verify { name },
            precondition,
        }
    }

    /// A merge (upsert preserving unlisted fields).
    pub fn merge(
        name: DocumentName,
        fields: impl IntoIterator<Item = (impl Into<String>, Value)>,
    ) -> Write {
        Write {
            op: WriteOp::Merge {
                name,
                fields: fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            },
            precondition: Precondition::None,
        }
    }

    /// Attach a precondition.
    pub fn with_precondition(mut self, p: Precondition) -> Write {
        self.precondition = p;
        self
    }
}

/// Statistics of a committed write, used for billing and the latency model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Index-entry rows inserted or deleted.
    pub index_entries_touched: usize,
    /// Total mutation payload bytes.
    pub payload_bytes: usize,
    /// Distinct Spanner tablets (2PC participant groups).
    pub participants: usize,
    /// Documents written or deleted.
    pub documents: usize,
    /// Simulated time spent waiting for Spanner write locks (Phase 1).
    pub lock_wait: Duration,
    /// Simulated commit-wait (Spanner Phase 4, out of the TrueTime
    /// uncertainty window).
    pub commit_wait: Duration,
    /// CPU time the cost ledger charged to the simulated clock inside the
    /// engine for this commit: per-index maintenance (core) plus redo
    /// appends, fsyncs, and lock release (Spanner). Measured, not modeled —
    /// it reconciles against profiler self-time.
    pub engine_cpu: Duration,
}

/// The result of a successful commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteResult {
    /// The commit timestamp (also the new `update_time` of every written
    /// document).
    pub commit_ts: Timestamp,
    /// Work accounting.
    pub stats: WriteStats,
}

/// Convert a document value into the rules value domain.
pub fn value_to_rule(v: &Value) -> RuleValue {
    match v {
        Value::Null => RuleValue::Null,
        Value::Bool(b) => RuleValue::Bool(*b),
        Value::Int(i) => RuleValue::Int(*i),
        Value::Double(x) => RuleValue::Float(*x),
        Value::Timestamp(us) => RuleValue::Int(*us),
        Value::Str(s) => RuleValue::Str(s.clone()),
        Value::Bytes(b) => RuleValue::Str(format!("bytes:{}", b.len())),
        Value::Reference(r) => RuleValue::Str(r.to_string()),
        Value::Array(items) => RuleValue::List(items.iter().map(value_to_rule).collect()),
        Value::Map(m) => RuleValue::Map(
            m.iter()
                .map(|(k, val)| (k.clone(), value_to_rule(val)))
                .collect(),
        ),
    }
}

/// Convert a document's fields into a rules map.
pub fn fields_to_rule(fields: &BTreeMap<String, Value>) -> RuleValue {
    RuleValue::Map(
        fields
            .iter()
            .map(|(k, v)| (k.clone(), value_to_rule(v)))
            .collect(),
    )
}

/// The [`DataSource`] behind every rules `get()`/`exists()` lookup: reads
/// at the request's snapshot timestamp, or through the same Spanner
/// transaction as the write being authorized — "transactionally-consistent
/// fashion with the operation being authorized" (§III-E). A lookup that
/// meets a storage error is an evaluation error, which never grants; the
/// error is kept so the request fails with it rather than with a denial.
pub(crate) struct RulesDataSource<'a> {
    spanner: &'a spanner::SpannerDatabase,
    dir: spanner::database::DirectoryId,
    /// Interior mutability because [`DataSource::get_document`] takes
    /// `&self` and a transactional read needs `&mut` to the transaction.
    access: RefCell<ReadAccess<'a>>,
    failure: RefCell<Option<FirestoreError>>,
}

impl<'a> RulesDataSource<'a> {
    pub(crate) fn new(
        spanner: &'a spanner::SpannerDatabase,
        dir: spanner::database::DirectoryId,
        access: ReadAccess<'a>,
    ) -> RulesDataSource<'a> {
        RulesDataSource {
            spanner,
            dir,
            access: RefCell::new(access),
            failure: RefCell::new(None),
        }
    }

    /// The first storage error a lookup met, if any.
    pub(crate) fn into_failure(self) -> Option<FirestoreError> {
        self.failure.into_inner()
    }
}

impl DataSource for RulesDataSource<'_> {
    fn get_document(&self, path: &[String]) -> Result<Option<RuleValue>, EvalError> {
        let Ok(name) = DocumentName::from_segments(path.to_vec()) else {
            return Ok(None);
        };
        let key = self.dir.key(&name.encode());
        let row = match &mut *self.access.borrow_mut() {
            ReadAccess::Snapshot(ts) => self.spanner.snapshot_read_versioned(ENTITIES, &key, *ts),
            ReadAccess::Transaction(txn) => self.spanner.txn_read_versioned(txn, ENTITIES, &key),
        };
        match row {
            Ok(row) => Ok(row
                .and_then(|(bytes, _)| Document::decode(name, &bytes))
                .map(|doc| fields_to_rule(&doc.fields))),
            Err(e) => {
                let message = format!("lookup of {name} failed: {e}");
                self.failure.borrow_mut().get_or_insert(e.into());
                Err(EvalError { message })
            }
        }
    }
}

/// Validate a write's document contents (size limit, nested arrays).
pub fn validate_write(w: &Write) -> FirestoreResult<()> {
    if let WriteOp::Set { name, fields } | WriteOp::Merge { name, fields } = &w.op {
        let doc = Document::new(name.clone(), fields.clone());
        if doc.approx_size() > MAX_DOCUMENT_SIZE {
            return Err(FirestoreError::InvalidArgument(format!(
                "document {name} exceeds the 1 MiB limit ({} bytes)",
                doc.approx_size()
            )));
        }
        for (field, v) in fields {
            if v.has_nested_array() {
                return Err(FirestoreError::InvalidArgument(format!(
                    "field `{field}` contains a directly nested array"
                )));
            }
        }
    }
    Ok(())
}

/// Check a precondition against the currently stored document.
pub fn check_precondition(w: &Write, old: Option<&Document>) -> FirestoreResult<()> {
    let name = w.op.name();
    match (w.precondition, old) {
        (Precondition::None, _) => Ok(()),
        (Precondition::MustExist, Some(_)) => Ok(()),
        (Precondition::MustExist, None) => Err(FirestoreError::NotFound(name.to_string())),
        (Precondition::MustNotExist, None) => Ok(()),
        (Precondition::MustNotExist, Some(_)) => {
            Err(FirestoreError::AlreadyExists(name.to_string()))
        }
        (Precondition::UpdateTimeEquals(ts), Some(doc)) if doc.update_time == ts => Ok(()),
        (Precondition::UpdateTimeEquals(_), _) => Err(FirestoreError::FailedPrecondition(format!(
            "{name} was modified since it was read"
        ))),
    }
}

/// The rules method a write maps to.
pub fn write_method(w: &Write, old: Option<&Document>) -> Method {
    match &w.op {
        WriteOp::Verify { .. } => Method::Get,
        WriteOp::Delete { .. } => Method::Delete,
        WriteOp::Set { .. } | WriteOp::Merge { .. } => {
            if old.is_some() {
                Method::Update
            } else {
                Method::Create
            }
        }
    }
}

/// Build the rules request context for a write.
pub fn write_request_context(
    w: &Write,
    old: Option<&Document>,
    auth: Option<AuthContext>,
) -> RequestContext {
    let name = w.op.name();
    let doc_path: Vec<&str> = name.segments().iter().map(String::as_str).collect();
    let request_data = match &w.op {
        WriteOp::Set { fields, .. } | WriteOp::Merge { fields, .. } => Some(fields_to_rule(fields)),
        WriteOp::Delete { .. } | WriteOp::Verify { .. } => None,
    };
    RequestContext::for_document(
        write_method(w, old),
        &doc_path,
        auth,
        old.map(|d| fields_to_rule(&d.fields)),
        request_data,
    )
}

/// Map a Spanner commit error to `(outcome for Accept, error for caller)`.
pub fn classify_commit_error(e: SpannerError) -> (CommitOutcome, FirestoreError) {
    match e {
        SpannerError::UnknownOutcome => (
            CommitOutcome::Unknown,
            FirestoreError::Unknown("commit timed out".into()),
        ),
        other => (CommitOutcome::Failed, other.into()),
    }
}

/// Encode a document for storage. `create_time` is stored as zero for new
/// documents (meaning "same as the version timestamp"); `update_time` is
/// always derived from the MVCC version timestamp on read.
pub fn encode_for_storage(
    name: &DocumentName,
    fields: &BTreeMap<String, Value>,
    create_time: Timestamp,
) -> Bytes {
    let mut doc = Document::new(name.clone(), fields.clone());
    doc.create_time = create_time;
    doc.update_time = Timestamp::ZERO; // derived from the version timestamp
    doc.encode()
}

/// Decode a stored document, patching its timestamps from the version
/// timestamp.
pub fn decode_from_storage(
    name: DocumentName,
    bytes: &[u8],
    version_ts: Timestamp,
) -> Option<Document> {
    let mut doc = Document::decode(name, bytes)?;
    doc.update_time = version_ts;
    if doc.create_time == Timestamp::ZERO {
        doc.create_time = version_ts;
    }
    Some(doc)
}

/// Decode the `Entities` row of `name` as read (value and version
/// timestamp); a row that does not decode is corruption.
pub(crate) fn decode_row(
    name: &DocumentName,
    row: Option<(Bytes, Timestamp)>,
) -> FirestoreResult<Option<Document>> {
    row.map(|(bytes, version_ts)| {
        decode_from_storage(name.clone(), &bytes, version_ts)
            .ok_or_else(|| FirestoreError::Internal(format!("corrupt document {name}")))
    })
    .transpose()
}

/// The states whose indexes a write must maintain: `Ready` plus in-progress
/// backfills ("a query that mutates the database also makes all necessary
/// updates to the IndexEntries table so that it conforms to an on-going
/// backfill", §IV-D1).
pub const MAINTAINED_STATES: &[IndexState] = &[IndexState::Ready, IndexState::Building];

/// Assemble the Spanner mutations for one document change, per maintained
/// index, and return `(index entries touched, cost-ledger CPU charged)`.
///
/// Each index with a nonempty diff gets its own `core.index.maintain` span
/// (§III-C: index maintenance on every write is the write-amplification hot
/// spot, so the profiler must attribute it separately from lock and fsync
/// time); the per-entry cost is charged to the simulated clock whether or
/// not a tracer is attached.
pub fn apply_change_to_txn(
    spanner: &spanner::SpannerDatabase,
    dir: spanner::database::DirectoryId,
    catalog: &mut crate::index::IndexCatalog,
    txn: &mut ReadWriteTransaction,
    change: &DocumentChange,
    obs: Option<&simkit::Obs>,
) -> FirestoreResult<(usize, Duration)> {
    let key = dir.key(&change.name.encode());
    match &change.new {
        Some(doc) => {
            let create_time = change
                .old
                .as_ref()
                .map(|d| d.create_time)
                .unwrap_or(Timestamp::ZERO);
            let bytes = encode_for_storage(&change.name, &doc.fields, create_time);
            spanner.txn_put(txn, ENTITIES, key, bytes)?;
        }
        None => {
            spanner.txn_delete(txn, ENTITIES, key)?;
        }
    }
    let per_index = entry_diff_per_index(
        catalog,
        dir,
        change.old.as_ref(),
        change.new.as_ref(),
        MAINTAINED_STATES,
    );
    let clock = spanner.truetime().clock();
    let mut touched = 0usize;
    let mut charged = Duration::ZERO;
    for m in per_index {
        let n = m.removals.len() + m.additions.len();
        let span = (n > 0)
            .then(|| obs.map(|o| o.tracer.span("core.index.maintain")))
            .flatten();
        if let Some(s) = &span {
            s.attr("index", m.index.0);
            s.attr("removed", m.removals.len());
            s.attr("added", m.additions.len());
        }
        for k in m.removals {
            spanner.txn_delete(txn, INDEX_ENTRIES, k)?;
        }
        for k in m.additions {
            // The row value carries the encoded document name so the
            // executor never parses entry keys.
            spanner.txn_put(txn, INDEX_ENTRIES, k, Bytes::from(change.name.encode()))?;
        }
        // Examined indexes cost the diff base even when nothing changed.
        let c = prof::costs::INDEX_DIFF_BASE + prof::costs::INDEX_ENTRY * n as u64;
        clock.advance(c);
        charged += c;
        touched += n;
    }
    Ok((touched, charged))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name() -> DocumentName {
        DocumentName::parse("/c/d").unwrap()
    }

    #[test]
    fn builders_set_preconditions() {
        let c = Write::create(name(), [("a", Value::Int(1))]);
        assert_eq!(c.precondition, Precondition::MustNotExist);
        let u = Write::update(name(), [("a", Value::Int(1))]);
        assert_eq!(u.precondition, Precondition::MustExist);
        let d = Write::delete(name());
        assert_eq!(d.precondition, Precondition::None);
        let occ = Write::set(name(), [("a", Value::Int(1))])
            .with_precondition(Precondition::UpdateTimeEquals(Timestamp::from_millis(3)));
        assert_eq!(
            occ.precondition,
            Precondition::UpdateTimeEquals(Timestamp::from_millis(3))
        );
    }

    #[test]
    fn precondition_checks() {
        let doc = Document::new(name(), [("a", Value::Int(1))]);
        let exists = Some(&doc);
        assert!(check_precondition(&Write::create(name(), [("a", Value::Int(1))]), None).is_ok());
        assert!(matches!(
            check_precondition(&Write::create(name(), [("a", Value::Int(1))]), exists),
            Err(FirestoreError::AlreadyExists(_))
        ));
        assert!(matches!(
            check_precondition(&Write::update(name(), [("a", Value::Int(1))]), None),
            Err(FirestoreError::NotFound(_))
        ));
        let mut fresh = doc.clone();
        fresh.update_time = Timestamp::from_millis(7);
        let w = Write::set(name(), [("a", Value::Int(2))])
            .with_precondition(Precondition::UpdateTimeEquals(Timestamp::from_millis(7)));
        assert!(check_precondition(&w, Some(&fresh)).is_ok());
        let stale = Write::set(name(), [("a", Value::Int(2))])
            .with_precondition(Precondition::UpdateTimeEquals(Timestamp::from_millis(6)));
        assert!(matches!(
            check_precondition(&stale, Some(&fresh)),
            Err(FirestoreError::FailedPrecondition(_))
        ));
    }

    #[test]
    fn oversized_document_rejected() {
        let huge = Write::set(
            name(),
            [("blob", Value::Str("x".repeat(MAX_DOCUMENT_SIZE + 1)))],
        );
        assert!(matches!(
            validate_write(&huge),
            Err(FirestoreError::InvalidArgument(_))
        ));
    }

    #[test]
    fn nested_array_rejected() {
        let bad = Write::set(
            name(),
            [("a", Value::Array(vec![Value::Array(vec![Value::Int(1)])]))],
        );
        assert!(matches!(
            validate_write(&bad),
            Err(FirestoreError::InvalidArgument(_))
        ));
        let ok = Write::set(name(), [("a", Value::Array(vec![Value::Int(1)]))]);
        assert!(validate_write(&ok).is_ok());
    }

    #[test]
    fn write_methods() {
        let doc = Document::new(name(), [("a", Value::Int(1))]);
        let set = Write::set(name(), [("a", Value::Int(1))]);
        assert_eq!(write_method(&set, None), Method::Create);
        assert_eq!(write_method(&set, Some(&doc)), Method::Update);
        assert_eq!(
            write_method(&Write::delete(name()), Some(&doc)),
            Method::Delete
        );
    }

    #[test]
    fn value_to_rule_conversion() {
        let v = Value::map([
            ("n", Value::Int(3)),
            ("s", Value::from("x")),
            ("arr", Value::Array(vec![Value::Bool(true)])),
        ]);
        match value_to_rule(&v) {
            RuleValue::Map(m) => {
                assert_eq!(m["n"], RuleValue::Int(3));
                assert_eq!(m["s"], RuleValue::Str("x".into()));
                assert_eq!(m["arr"], RuleValue::List(vec![RuleValue::Bool(true)]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn storage_round_trip_derives_times() {
        let fields: BTreeMap<String, Value> = [("a".to_string(), Value::Int(1))].into();
        let bytes = encode_for_storage(&name(), &fields, Timestamp::ZERO);
        let v1 = decode_from_storage(name(), &bytes, Timestamp::from_millis(5)).unwrap();
        assert_eq!(v1.create_time, Timestamp::from_millis(5));
        assert_eq!(v1.update_time, Timestamp::from_millis(5));
        // An update preserves the original create time.
        let bytes2 = encode_for_storage(&name(), &fields, v1.create_time);
        let v2 = decode_from_storage(name(), &bytes2, Timestamp::from_millis(9)).unwrap();
        assert_eq!(v2.create_time, Timestamp::from_millis(5));
        assert_eq!(v2.update_time, Timestamp::from_millis(9));
    }

    #[test]
    fn classify_errors() {
        let (o, e) = classify_commit_error(SpannerError::UnknownOutcome);
        assert_eq!(o, CommitOutcome::Unknown);
        assert!(matches!(e, FirestoreError::Unknown(_)));
        let (o, e) = classify_commit_error(SpannerError::CommitWindowExpired);
        assert_eq!(o, CommitOutcome::Failed);
        assert!(matches!(e, FirestoreError::Aborted(_)));
    }
}
