//! `FirestoreDatabase`: the assembled engine.
//!
//! One `FirestoreDatabase` corresponds to one customer database: a directory
//! inside a shared Spanner database, an index catalog, optional security
//! rules, a commit observer (the Real-time Cache), write triggers, and the
//! read/write/query entry points the Frontend exposes.

use crate::document::{Document, Value};
use crate::error::{FirestoreError, FirestoreResult};
use crate::executor::{self, QueryResult, ReadAccess, ENTITIES};
use crate::gate::{GatedOp, RequestClass, TenantGate};
use crate::index::{IndexCatalog, IndexId, IndexState, IndexedField};
use crate::observer::{CommitObserver, CommitOutcome, DocumentChange, NullObserver};
use crate::path::{CollectionPath, DocumentName};
use crate::planner::{plan_query, Plan};
use crate::query::Query;
use crate::retry::{Backoff, Deadline, RetryPolicy};
use crate::triggers::TriggerRegistry;
#[cfg(test)]
use crate::write::Precondition;
use crate::write::{self, Caller, Write, WriteResult, WriteStats};
use parking_lot::{Mutex, RwLock};
use rules::{Method, RequestContext, Ruleset};
use simkit::{CounterHandle, Duration, Metrics, Obs, Timestamp};
use spanner::database::DirectoryId;
use spanner::messaging::MessageQueue;
use spanner::{ReadWriteTransaction, SpannerDatabase};
use simkit::history::{HistoryEvent, HistoryRecorder};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Table holding idempotence-ledger rows: one row per client-supplied dedup
/// id, written in the same Spanner transaction as the writes it guards, so
/// "applied" and "recorded as applied" are atomic — even across a server
/// crash and redo-log recovery.
pub const WRITE_LEDGER: &str = "WriteLedger";

/// Read consistency of a non-transactional read or query (§III-C: "point-in-
/// time queries that are either strongly-consistent or from a recent
/// timestamp").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Consistency {
    /// Strongly consistent: sees every write acknowledged before the read.
    Strong,
    /// Read at an explicit (possibly slightly stale) timestamp.
    AtTimestamp(Timestamp),
}

/// How a query entry point consumes the plan's matches.
#[derive(Clone, Copy)]
enum QueryMode {
    /// Fetch the matching documents, at most this many (§IV-C).
    Fetch(usize),
    /// COUNT (§VIII): stream the matches without fetching documents.
    Count,
}

/// What [`FirestoreDatabase::serve_query`] hands back to an entry point.
struct ServedQuery {
    plan: Plan,
    result: QueryResult,
    /// Matches inside the window: the documents fetched, or the COUNT.
    matched: usize,
}

/// Options for creating a database.
#[derive(Clone, Debug)]
pub struct DatabaseOptions {
    /// Human-readable database id (used by the multi-tenant scheduler).
    pub database_id: String,
    /// Window added to "now" for the max commit timestamp `M` handed to
    /// Prepare (§IV-D2 step 5).
    pub max_commit_window: Duration,
}

impl Default for DatabaseOptions {
    fn default() -> Self {
        DatabaseOptions {
            database_id: "(default)".to_string(),
            max_commit_window: Duration::from_secs(10),
        }
    }
}

/// The installed security rules: the parsed ruleset (retained as the
/// reference interpreter) plus its compiled first-match decision tree.
/// Serving decisions come from the compiled tree; under debug assertions
/// every decision is cross-checked against the interpreter, so the whole
/// debug test suite doubles as an equivalence harness.
struct RulesEngine {
    ruleset: Ruleset,
    compiled: rules::CompiledRules,
}

impl RulesEngine {
    fn new(ruleset: Ruleset) -> RulesEngine {
        let compiled = rules::compile(&ruleset);
        RulesEngine { ruleset, compiled }
    }

    fn allows(
        &self,
        req: &RequestContext,
        data: &dyn rules::DataSource,
        instruments: Option<&Instruments>,
    ) -> bool {
        let (decision, residual) = self.compiled.decide_traced(req, data);
        if cfg!(debug_assertions) {
            let reference = self.ruleset.decide(req, data);
            assert_eq!(
                decision, reference,
                "compiled rules diverged from the interpreter for {:?} /{}",
                req.method,
                req.path.join("/")
            );
        }
        if let Some(i) = instruments {
            // Bounded cardinality: two unlabelled counters. Their ratio is
            // the fraction of authorization decisions that paid the
            // residual-expression interpreter fallback.
            i.decisions.incr(1);
            if residual {
                i.residual_hits.incr(1);
            }
        }
        decision.allowed
    }
}

/// Which entry point served a query; labels the `query.*` metrics.
#[derive(Clone, Copy, Debug)]
enum QueryKind {
    Query,
    Partial,
    Count,
    Analyze,
}

impl QueryKind {
    const ALL: [QueryKind; 4] = [
        QueryKind::Query,
        QueryKind::Partial,
        QueryKind::Count,
        QueryKind::Analyze,
    ];

    fn label(self) -> &'static str {
        match self {
            QueryKind::Query => "query",
            QueryKind::Partial => "partial",
            QueryKind::Count => "count",
            QueryKind::Analyze => "analyze",
        }
    }
}

/// The executor's work counters for one `{db, kind}` label set.
struct QueryCounters {
    runs: CounterHandle,
    entries_examined: CounterHandle,
    entries_returned: CounterHandle,
    seeks: CounterHandle,
    docs_fetched: CounterHandle,
    bytes_returned: CounterHandle,
}

/// This database's rules and query series, resolved once per metrics
/// registry (the one attached to the underlying Spanner database).
struct Instruments {
    metrics: Metrics,
    decisions: CounterHandle,
    residual_hits: CounterHandle,
    /// Indexed by [`QueryKind`].
    query: [QueryCounters; 4],
}

impl Instruments {
    fn new(metrics: &Metrics, db: &str) -> Instruments {
        let query = QueryKind::ALL.map(|kind| {
            let labels = [("db", db), ("kind", kind.label())];
            QueryCounters {
                runs: metrics.counter("query.runs", &labels),
                entries_examined: metrics.counter("query.entries_examined", &labels),
                entries_returned: metrics.counter("query.entries_returned", &labels),
                seeks: metrics.counter("query.seeks", &labels),
                docs_fetched: metrics.counter("query.docs_fetched", &labels),
                bytes_returned: metrics.counter("query.bytes_returned", &labels),
            }
        });
        Instruments {
            metrics: metrics.clone(),
            decisions: metrics.counter("rules.decisions", &[]),
            residual_hits: metrics.counter("rules.residual_hits", &[]),
            query,
        }
    }
}

struct Inner {
    spanner: SpannerDatabase,
    /// `options.database_id`, shared so trace attributes can carry it
    /// without copying it.
    id: Arc<str>,
    instruments: Mutex<Option<Arc<Instruments>>>,
    dir: DirectoryId,
    catalog: RwLock<IndexCatalog>,
    ruleset: RwLock<Option<RulesEngine>>,
    observer: RwLock<Arc<dyn CommitObserver>>,
    triggers: TriggerRegistry,
    queue: MessageQueue,
    options: DatabaseOptions,
    /// Control-plane hook: when installed, every entry point consults it
    /// before doing engine work. `None` (the default) means ungated.
    gate: RwLock<Option<Arc<dyn TenantGate>>>,
    /// Oracle mutation toggle: skip the dedup-ledger read in
    /// [`FirestoreDatabase::commit_writes_dedup`], re-applying retried
    /// mutations — a deliberate exactly-once bug the oracle must catch.
    oracle_ignore_dedup: AtomicBool,
}

/// A Firestore database handle. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct FirestoreDatabase {
    inner: Arc<Inner>,
}

impl FirestoreDatabase {
    /// Create (or attach) a Firestore database on `spanner`, allocating a
    /// fresh directory.
    pub fn create(spanner: SpannerDatabase, options: DatabaseOptions) -> FirestoreDatabase {
        spanner.create_table(ENTITIES);
        spanner.create_table(crate::executor::INDEX_ENTRIES);
        spanner.create_table(WRITE_LEDGER);
        let dir = spanner.allocate_directory();
        let queue = MessageQueue::new(spanner.clone());
        FirestoreDatabase {
            inner: Arc::new(Inner {
                spanner,
                id: options.database_id.as_str().into(),
                instruments: Mutex::new(None),
                dir,
                catalog: RwLock::new(IndexCatalog::new()),
                ruleset: RwLock::new(None),
                observer: RwLock::new(Arc::new(NullObserver)),
                triggers: TriggerRegistry::new(),
                queue,
                options,
                gate: RwLock::new(None),
                oracle_ignore_dedup: AtomicBool::new(false),
            }),
        }
    }

    /// Create with default options.
    pub fn create_default(spanner: SpannerDatabase) -> FirestoreDatabase {
        FirestoreDatabase::create(spanner, DatabaseOptions::default())
    }

    /// This database's id.
    pub fn id(&self) -> &str {
        &self.inner.id
    }

    /// The underlying Spanner handle.
    pub fn spanner(&self) -> &SpannerDatabase {
        &self.inner.spanner
    }

    /// The directory this database occupies.
    pub fn directory(&self) -> DirectoryId {
        self.inner.dir
    }

    /// The observability handle, if one was attached to the underlying
    /// Spanner database (the service attaches one handle for the whole
    /// stack, so spans from every layer share one trace).
    pub fn obs(&self) -> Option<Obs> {
        self.inner.spanner.obs()
    }

    /// The consistency-oracle history recorder attached to the underlying
    /// Spanner database, if any (one recorder serves the whole stack).
    pub fn history(&self) -> Option<Arc<HistoryRecorder>> {
        self.inner.spanner.history()
    }

    /// Oracle mutation toggle (test-only): when enabled,
    /// [`FirestoreDatabase::commit_writes_dedup`] skips the ledger lookup
    /// and re-applies retried mutations — a seeded exactly-once bug the
    /// consistency oracle must detect.
    pub fn oracle_ignore_dedup_ledger(&self, ignore: bool) {
        self.inner.oracle_ignore_dedup.store(ignore, Ordering::SeqCst);
    }

    /// This database's series in `obs`'s registry, resolved on first use
    /// and again whenever a different registry is attached.
    fn instruments(&self, obs: &Obs) -> Arc<Instruments> {
        let mut slot = self.inner.instruments.lock();
        match &*slot {
            Some(i) if i.metrics.same_registry(&obs.metrics) => i.clone(),
            _ => {
                let i = Arc::new(Instruments::new(&obs.metrics, self.id()));
                *slot = Some(i.clone());
                i
            }
        }
    }

    /// Record the executor's work counters into the metrics registry,
    /// labelled with this database's id and the query kind.
    fn observe_query_stats(&self, obs: &Obs, kind: QueryKind, stats: &crate::executor::QueryStats) {
        let c = &self.instruments(obs).query[kind as usize];
        c.runs.incr(1);
        c.entries_examined.incr(stats.entries_examined as u64);
        c.entries_returned.incr(stats.entries_returned as u64);
        c.seeks.incr(stats.seeks as u64);
        c.docs_fetched.incr(stats.docs_fetched as u64);
        c.bytes_returned.incr(stats.bytes_returned as u64);
    }

    /// The transactional message queue (used by triggers).
    pub fn queue(&self) -> &MessageQueue {
        &self.inner.queue
    }

    /// The trigger registry.
    pub fn triggers(&self) -> &TriggerRegistry {
        &self.inner.triggers
    }

    /// Install (or replace) the security rules. The ruleset is compiled to
    /// a first-match decision tree at install time; authorization decisions
    /// are served from the compiled tree.
    pub fn set_rules(&self, source: &str) -> FirestoreResult<()> {
        let ruleset = rules::parse_ruleset(source)
            .map_err(|e| FirestoreError::InvalidArgument(e.to_string()))?;
        *self.inner.ruleset.write() = Some(RulesEngine::new(ruleset));
        Ok(())
    }

    /// Render the compiled rules decision tree (EXPLAIN for the
    /// authorization path), or `None` if no rules are installed.
    pub fn explain_rules(&self) -> Option<String> {
        self.inner
            .ruleset
            .read()
            .as_ref()
            .map(|engine| engine.compiled.render())
    }

    /// Remove the security rules (all third-party access denied).
    pub fn clear_rules(&self) {
        *self.inner.ruleset.write() = None;
    }

    /// Attach the Real-time Cache (or other observer) to the write path.
    pub fn set_observer(&self, observer: Arc<dyn CommitObserver>) {
        *self.inner.observer.write() = observer;
    }

    /// Install (or remove) the tenant gate. The serving layer's control
    /// plane installs one at provisioning time so that every entry point —
    /// including client-SDK flushes that call
    /// [`FirestoreDatabase::commit_writes_dedup`] directly — is subject to
    /// admission and throttle policy. Ungated databases admit everything.
    pub fn set_gate(&self, gate: Option<Arc<dyn TenantGate>>) {
        *self.inner.gate.write() = gate;
    }

    /// Consult the tenant gate (if installed) for one operation. Requests
    /// entering through the engine directly are interactive; batch traffic
    /// is classified at the service layer.
    fn check_gate(&self, op: GatedOp) -> FirestoreResult<()> {
        let gate = self.inner.gate.read();
        match gate.as_ref() {
            Some(g) => g.check(op, RequestClass::Interactive),
            None => Ok(()),
        }
    }

    /// Run `f` with mutable access to the index catalog.
    pub fn with_catalog<R>(&self, f: impl FnOnce(&mut IndexCatalog) -> R) -> R {
        f(&mut self.inner.catalog.write())
    }

    /// Exempt a field from automatic indexing (§III-B).
    pub fn add_index_exemption(&self, collection_id: &str, field: &str) {
        self.inner
            .catalog
            .write()
            .add_exemption(collection_id, field);
    }

    /// The strong read timestamp.
    pub fn strong_read_ts(&self) -> Timestamp {
        self.inner.spanner.strong_read_ts()
    }

    fn read_ts(&self, c: Consistency) -> Timestamp {
        match c {
            Consistency::Strong => self.strong_read_ts(),
            Consistency::AtTimestamp(ts) => ts,
        }
    }

    // --- reads --------------------------------------------------------------

    /// Fetch one document.
    pub fn get_document(
        &self,
        name: &DocumentName,
        consistency: Consistency,
        caller: &Caller,
    ) -> FirestoreResult<Option<Document>> {
        self.check_gate(GatedOp::Get)?;
        let ts = self.read_ts(consistency);
        let key = self.inner.dir.key(&name.encode());
        let row = self
            .inner
            .spanner
            .snapshot_read_versioned(ENTITIES, &key, ts)?;
        let doc = write::decode_row(name, row)?;
        if caller.is_third_party() {
            self.authorize_read(name, doc.as_ref(), Method::Get, caller, ts)?;
        }
        if let Some(h) = self.history() {
            h.record(self.doc_read_event(ts, name, doc.as_ref()));
        }
        Ok(doc)
    }

    /// The consistency-oracle event for one served document read.
    fn doc_read_event(
        &self,
        ts: Timestamp,
        name: &DocumentName,
        doc: Option<&Document>,
    ) -> HistoryEvent {
        HistoryEvent::DocRead {
            dir: self.inner.dir.prefix(),
            ts,
            name: name.to_string(),
            digest: doc.map(crate::checker::doc_digest),
        }
    }

    /// Authorize a third-party read of one document (`Get`, or `List` for
    /// a query result) at `ts`.
    fn authorize_read(
        &self,
        name: &DocumentName,
        doc: Option<&Document>,
        method: Method,
        caller: &Caller,
        ts: Timestamp,
    ) -> FirestoreResult<()> {
        let doc_path: Vec<&str> = name.segments().iter().map(String::as_str).collect();
        let req = RequestContext::for_document(
            method,
            &doc_path,
            caller.auth(),
            doc.map(|d| write::fields_to_rule(&d.fields)),
            None,
        );
        self.authorize(&req, name, ReadAccess::Snapshot(ts))
    }

    /// Check one third-party request against the installed rules, resolving
    /// `get()`/`exists()` lookups through `access`. A lookup that met a
    /// storage error refuses the request with that (retriable) error rather
    /// than with a denial.
    fn authorize(
        &self,
        req: &RequestContext,
        name: &DocumentName,
        access: ReadAccess<'_>,
    ) -> FirestoreResult<()> {
        let engine = self.inner.ruleset.read();
        let Some(engine) = engine.as_ref() else {
            return Err(FirestoreError::PermissionDenied(
                "no security rules installed; third-party access denied".into(),
            ));
        };
        let source = write::RulesDataSource::new(&self.inner.spanner, self.inner.dir, access);
        let instruments = self.obs().map(|o| self.instruments(&o));
        if engine.allows(req, &source, instruments.as_deref()) {
            return Ok(());
        }
        Err(source.into_failure().unwrap_or_else(|| {
            FirestoreError::PermissionDenied(format!("{:?} {name} denied by rules", req.method))
        }))
    }

    /// Run a query outside any transaction (lock-free timestamp read).
    pub fn run_query(
        &self,
        query: &Query,
        consistency: Consistency,
        caller: &Caller,
    ) -> FirestoreResult<QueryResult> {
        let served = self.serve_query(
            query,
            consistency,
            caller,
            QueryKind::Query,
            QueryMode::Fetch(usize::MAX),
        )?;
        Ok(served.result)
    }

    /// Run a query with a per-RPC work limit, returning partial results and
    /// a resume point when truncated (§IV-C). Continue with
    /// `query.clone().start_after(resume_after)`.
    pub fn run_query_partial(
        &self,
        query: &Query,
        consistency: Consistency,
        caller: &Caller,
        work_limit: usize,
    ) -> FirestoreResult<QueryResult> {
        let served = self.serve_query(
            query,
            consistency,
            caller,
            QueryKind::Partial,
            QueryMode::Fetch(work_limit),
        )?;
        Ok(served.result)
    }

    /// A COUNT aggregation (paper §VIII): the number of documents the query
    /// matches inside its window, computed from index entries without
    /// fetching documents. The returned stats reflect the entries examined
    /// — the cost such a query must be billed by ("a COUNT query returns a
    /// single value but may count millions of documents").
    pub fn run_count(
        &self,
        query: &Query,
        consistency: Consistency,
        caller: &Caller,
    ) -> FirestoreResult<(usize, crate::executor::QueryStats)> {
        let served = self.serve_query(query, consistency, caller, QueryKind::Count, QueryMode::Count)?;
        Ok((served.matched, served.result.stats))
    }

    /// The one pipeline behind every non-transactional query entry point:
    /// gate → plan → execute → observe → authorize → record. A COUNT's
    /// list-permission probe runs before planning, since refusing it must
    /// cost no reads. `kind` labels the query metrics.
    fn serve_query(
        &self,
        query: &Query,
        consistency: Consistency,
        caller: &Caller,
        kind: QueryKind,
        mode: QueryMode,
    ) -> FirestoreResult<ServedQuery> {
        self.check_gate(GatedOp::Query)?;
        let ts = self.read_ts(consistency);
        if caller.is_third_party() && matches!(mode, QueryMode::Count) {
            // Counting reveals result-set size: require list permission on
            // the collection via a representative (empty-resource) check,
            // before any index entry is read.
            let probe = query.collection.doc("__count__");
            self.authorize_read(&probe, None, Method::List, caller, ts)?;
        }
        let obs = self.obs();
        let plan = {
            let span = obs.as_ref().map(|o| o.tracer.span("query.plan"));
            let plan = plan_query(&mut self.inner.catalog.write(), self.inner.dir, query)?;
            if let Some(s) = &span {
                s.attr("collection", query.collection.to_string());
                s.attr("joined_indexes", plan.joined_indexes());
            }
            plan
        };
        let (result, matched) = {
            let span = obs.as_ref().map(|o| o.tracer.span("query.execute"));
            let (spanner, dir) = (&self.inner.spanner, self.inner.dir);
            let (result, matched) = match mode {
                QueryMode::Fetch(work_limit) => {
                    let access = ReadAccess::Snapshot(ts);
                    let result =
                        executor::execute_limited(spanner, dir, &plan, query, access, work_limit)?;
                    let matched = result.documents.len();
                    (result, matched)
                }
                QueryMode::Count => {
                    let (matched, stats) = executor::count(spanner, dir, &plan, query, ts)?;
                    let result = QueryResult {
                        documents: Vec::new(),
                        stats,
                        resume_after: None,
                    };
                    (result, matched)
                }
            };
            if let Some(s) = &span {
                s.attr("entries_examined", result.stats.entries_examined);
                s.attr("entries_returned", result.stats.entries_returned);
                s.attr("seeks", result.stats.seeks);
                s.attr("docs_fetched", result.stats.docs_fetched);
                s.attr("truncated", result.resume_after.is_some());
            }
            (result, matched)
        };
        if let Some(o) = &obs {
            self.observe_query_stats(o, kind, &result.stats);
        }
        if caller.is_third_party() {
            // Authorize each returned document as a `list` access. (The
            // production service proves the query's constraints satisfy the
            // rules instead; the per-document check is equivalent for the
            // rule shapes this reproduction supports.)
            for doc in &result.documents {
                self.authorize_read(&doc.name, Some(doc), Method::List, caller, ts)?;
            }
        }
        // Consistency oracle: record each served document (projections strip
        // fields, so their rows cannot be digest-checked against the model).
        if query.projection.is_none() {
            if let Some(h) = self.history() {
                for doc in &result.documents {
                    h.record(self.doc_read_event(ts, &doc.name, Some(doc)));
                }
            }
        }
        Ok(ServedQuery {
            plan,
            result,
            matched,
        })
    }

    // --- EXPLAIN ------------------------------------------------------------

    /// EXPLAIN: plan the query and render the chosen access path (indexes,
    /// zig-zag arms, pushed-down window) as a deterministic text tree,
    /// without executing it.
    pub fn explain(&self, query: &Query) -> FirestoreResult<String> {
        let plan = plan_query(&mut self.inner.catalog.write(), self.inner.dir, query)?;
        let catalog = self.inner.catalog.read();
        Ok(crate::explain::render_plan(&catalog, query, &plan))
    }

    /// EXPLAIN ANALYZE: plan, execute, and render the plan tree joined with
    /// the executor's observed work counters. Returns the rendering and the
    /// full query result.
    pub fn explain_analyze(
        &self,
        query: &Query,
        consistency: Consistency,
        caller: &Caller,
    ) -> FirestoreResult<(String, QueryResult)> {
        let served = self.serve_query(
            query,
            consistency,
            caller,
            QueryKind::Analyze,
            QueryMode::Fetch(usize::MAX),
        )?;
        let catalog = self.inner.catalog.read();
        let text =
            crate::explain::render_analyze(&catalog, query, &served.plan, &served.result.stats);
        Ok((text, served.result))
    }

    // --- writes -------------------------------------------------------------

    /// Commit a batch of writes atomically.
    pub fn commit_writes(
        &self,
        writes: Vec<Write>,
        caller: &Caller,
    ) -> FirestoreResult<WriteResult> {
        self.commit_writes_with_deadline(writes, caller, None)
    }

    /// Commit a batch of writes atomically under a per-request deadline
    /// budget. The deadline propagates through the whole pipeline: it caps
    /// the maximum commit timestamp `M` handed to Prepare and to the Spanner
    /// commit, so no stage can run past the caller's budget. A spent budget
    /// returns [`FirestoreError::DeadlineExceeded`], which is deliberately
    /// not retriable.
    pub fn commit_writes_with_deadline(
        &self,
        writes: Vec<Write>,
        caller: &Caller,
        deadline: Option<Deadline>,
    ) -> FirestoreResult<WriteResult> {
        self.check_gate(GatedOp::Commit)?;
        for w in &writes {
            write::validate_write(w)?;
        }
        let mut txn = self.inner.spanner.begin();
        let result = self.commit_pipeline(&mut txn, writes, caller, deadline);
        if result.is_err() {
            self.inner.spanner.abort(&mut txn);
        }
        result
    }

    /// Commit a batch of writes atomically and *idempotently*: a ledger row
    /// keyed by `dedup_id` is written in the same Spanner transaction as the
    /// writes, so a retry of the same `dedup_id` after an ambiguous outcome
    /// (a crash after the redo-log append but before the ack) observes the
    /// row and returns the original commit timestamp instead of applying the
    /// writes a second time.
    ///
    /// A dedup hit returns the original commit timestamp with empty
    /// [`WriteStats`] (no work was done on this attempt).
    pub fn commit_writes_dedup(
        &self,
        dedup_id: &str,
        writes: Vec<Write>,
        caller: &Caller,
    ) -> FirestoreResult<WriteResult> {
        self.check_gate(GatedOp::Commit)?;
        for w in &writes {
            write::validate_write(w)?;
        }
        let spanner = &self.inner.spanner;
        let key = self.inner.dir.key(dedup_id.as_bytes());
        let mut txn = spanner.begin();
        let ledger_row = if self.inner.oracle_ignore_dedup.load(Ordering::SeqCst) {
            Ok(None) // seeded bug: pretend the mutation was never applied
        } else {
            spanner.txn_read_for_update_versioned(&mut txn, WRITE_LEDGER, &key)
        };
        match ledger_row {
            // Already applied: the ledger row's MVCC version timestamp *is*
            // the original commit timestamp.
            Ok(Some((_, version_ts))) => {
                spanner.abort(&mut txn);
                return Ok(WriteResult {
                    commit_ts: version_ts,
                    stats: WriteStats::default(),
                });
            }
            Ok(None) => {}
            Err(e) => {
                spanner.abort(&mut txn);
                return Err(e.into());
            }
        }
        if let Err(e) = spanner.txn_put(
            &mut txn,
            WRITE_LEDGER,
            key,
            bytes::Bytes::from_static(b"1"),
        ) {
            spanner.abort(&mut txn);
            return Err(e.into());
        }
        let result = self.commit_pipeline(&mut txn, writes, caller, None);
        if result.is_err() {
            spanner.abort(&mut txn);
        }
        result
    }

    /// The shared §IV-D2 pipeline; `txn` may already contain reads (server
    /// SDK transactions).
    fn commit_pipeline(
        &self,
        txn: &mut ReadWriteTransaction,
        writes: Vec<Write>,
        caller: &Caller,
        deadline: Option<Deadline>,
    ) -> FirestoreResult<WriteResult> {
        let spanner = &self.inner.spanner;
        let dir = self.inner.dir;
        let obs = self.obs();
        let pipeline_span = obs.as_ref().map(|o| o.tracer.span("core.commit_pipeline"));
        if let Some(s) = &pipeline_span {
            s.attr("db", &self.inner.id);
            s.attr("writes", writes.len());
        }

        if let Some(dl) = deadline {
            if dl.expired(spanner.truetime().clock().now()) {
                return Err(FirestoreError::DeadlineExceeded(
                    "request budget spent before commit started".into(),
                ));
            }
        }

        // Step 2: read affected documents with exclusive locks; verify
        // preconditions.
        let mut olds: Vec<Option<Document>> = Vec::with_capacity(writes.len());
        for w in &writes {
            let name = w.op.name();
            let key = dir.key(&name.encode());
            let row = spanner.txn_read_for_update_versioned(txn, ENTITIES, &key)?;
            let old = write::decode_row(name, row)?;
            write::check_precondition(w, old.as_ref())?;
            olds.push(old);
        }

        // Step 3: security rules for third-party requests, resolved inside
        // this transaction.
        if caller.is_third_party() {
            for (w, old) in writes.iter().zip(&olds) {
                let req = write::write_request_context(w, old.as_ref(), caller.auth());
                self.authorize(&req, w.op.name(), ReadAccess::Transaction(&mut *txn))?;
            }
        }

        // Mutating writes become document changes; verify-only ops end here.
        let mut changes: Vec<DocumentChange> = Vec::with_capacity(writes.len());
        for (w, old) in writes.iter().zip(olds) {
            if !w.op.is_mutation() {
                continue;
            }
            let name = w.op.name().clone();
            let new = match &w.op {
                crate::write::WriteOp::Set { fields, .. } => {
                    let mut d = Document::new(name.clone(), fields.clone());
                    d.create_time = old
                        .as_ref()
                        .map(|o| o.create_time)
                        .unwrap_or(Timestamp::ZERO);
                    Some(d)
                }
                crate::write::WriteOp::Merge { fields, .. } => {
                    // Merge over the current contents: unlisted fields
                    // survive, listed ones are replaced.
                    let mut merged = old.as_ref().map(|o| o.fields.clone()).unwrap_or_default();
                    for (k, v) in fields {
                        merged.insert(k.clone(), v.clone());
                    }
                    let mut d = Document::new(name.clone(), merged.into_iter().collect::<Vec<_>>());
                    d.create_time = old
                        .as_ref()
                        .map(|o| o.create_time)
                        .unwrap_or(Timestamp::ZERO);
                    Some(d)
                }
                crate::write::WriteOp::Delete { .. } | crate::write::WriteOp::Verify { .. } => None,
            };
            changes.push(DocumentChange { name, old, new });
        }

        // Step 4: index-entry diffs + row mutations.
        let mut stats = WriteStats::default();
        {
            let mut catalog = self.inner.catalog.write();
            for change in &changes {
                let (touched, charged) = write::apply_change_to_txn(
                    spanner,
                    dir,
                    &mut catalog,
                    txn,
                    change,
                    obs.as_ref(),
                )?;
                stats.index_entries_touched += touched;
                stats.engine_cpu += charged;
                stats.documents += 1;
            }
        }

        // Step 4b: triggers — persist messages transactionally (§IV-D2).
        self.inner
            .triggers
            .enqueue_matches(&self.inner.queue, txn, &changes)?;

        stats.payload_bytes = txn.payload_bytes();

        // Step 5: Prepare the Real-time Cache with max timestamp M. The
        // caller's deadline caps M so the commit cannot outlive the budget.
        let now = spanner.truetime().clock().now();
        let mut max_ts = now + self.inner.options.max_commit_window;
        if let Some(dl) = deadline {
            max_ts = max_ts.min(dl.ts());
            if max_ts <= now {
                return Err(FirestoreError::DeadlineExceeded(
                    "no commit window remains within the request deadline".into(),
                ));
            }
        }
        let names: Vec<DocumentName> = changes.iter().map(|c| c.name.clone()).collect();
        let observer = self.inner.observer.read().clone();
        let (token, min_ts) = observer
            .prepare(&names, max_ts)
            .map_err(|_| FirestoreError::Unavailable("Real-time Cache Prepare failed".into()))?;

        // Step 6: Spanner commit within [m, M].
        let taken = std::mem::take(txn);
        match spanner.commit(taken, min_ts, max_ts) {
            Ok(info) => {
                stats.participants = info.participants;
                stats.lock_wait = info.lock_wait;
                stats.commit_wait = info.commit_wait;
                stats.engine_cpu += info.cpu_charged;
                if let Some(s) = &pipeline_span {
                    s.attr("commit_ts", info.commit_ts.as_nanos());
                    s.attr("documents", stats.documents);
                    s.attr("index_entries", stats.index_entries_touched);
                    s.attr("engine_cpu_ns", stats.engine_cpu.as_nanos());
                }
                // Step 7: Accept with full document copies at the commit
                // timestamp.
                let mut final_changes = changes;
                for c in &mut final_changes {
                    if let Some(new) = &mut c.new {
                        new.update_time = info.commit_ts;
                        if new.create_time == Timestamp::ZERO {
                            new.create_time = info.commit_ts;
                        }
                    }
                }
                observer.accept(
                    token,
                    CommitOutcome::Committed(info.commit_ts),
                    final_changes,
                );
                Ok(WriteResult {
                    commit_ts: info.commit_ts,
                    stats,
                })
            }
            Err(e) => {
                let (outcome, err) = write::classify_commit_error(e);
                observer.accept(token, outcome, vec![]);
                Err(err)
            }
        }
    }

    // --- interactive transactions (Server SDK, §III-D) ----------------------

    /// Begin an interactive lock-based transaction.
    pub fn begin_transaction(&self) -> FirestoreTransaction {
        FirestoreTransaction {
            db: self.clone(),
            txn: self.inner.spanner.begin(),
            writes: Vec::new(),
        }
    }

    /// Run `f` in a transaction, retrying on transient conflicts with the
    /// Server SDKs' automatic retry (§III-D), up to `max_attempts`.
    pub fn run_transaction<R>(
        &self,
        max_attempts: usize,
        f: impl FnMut(&mut FirestoreTransaction) -> FirestoreResult<R>,
    ) -> FirestoreResult<R> {
        let policy = RetryPolicy::default().with_max_attempts(max_attempts.max(1) as u32);
        self.run_transaction_with_policy(policy, f)
    }

    /// Run `f` in a transaction under an explicit [`RetryPolicy`]: transient
    /// failures are retried with exponential backoff whose jittered delays
    /// are drawn deterministically (seeded from the simulated clock) and
    /// spent by advancing that clock, so a chaos run replays identically.
    pub fn run_transaction_with_policy<R>(
        &self,
        policy: RetryPolicy,
        mut f: impl FnMut(&mut FirestoreTransaction) -> FirestoreResult<R>,
    ) -> FirestoreResult<R> {
        let clock = self.inner.spanner.truetime().clock().clone();
        let mut backoff = Backoff::new(policy, clock.now().as_nanos());
        loop {
            let mut txn = self.begin_transaction();
            match f(&mut txn).and_then(|r| txn.commit().map(|_| r)) {
                Ok(r) => return Ok(r),
                Err(e) if e.is_retryable() => match backoff.next_delay() {
                    Some(delay) => {
                        clock.advance(delay);
                    }
                    None => return Err(e),
                },
                Err(e) => return Err(e),
            }
        }
    }

    // --- maintenance ---------------------------------------------------------

    /// Storage statistics: `(live documents, approximate live bytes)` of
    /// this database's directory.
    pub fn storage_stats(&self) -> FirestoreResult<(usize, usize)> {
        let ts = self.strong_read_ts();
        let rows =
            self.inner
                .spanner
                .snapshot_scan(ENTITIES, &self.inner.dir.range(), ts, usize::MAX)?;
        let bytes = rows.iter().map(|(k, v, _)| k.len() + v.len()).sum();
        Ok((rows.len(), bytes))
    }

    /// Garbage-collect `WriteLedger` rows whose commit is older than
    /// `older_than`. Without this the ledger grows by one row per client
    /// mutation forever, inflating storage and recovery replay. A ledger row
    /// only needs to outlive the longest window in which its `dedup_id`
    /// could still be retried (the client retry-budget horizon); a retry
    /// arriving *after* its row was collected re-applies the write, so
    /// callers must pass a horizon no shorter than their retry policy's.
    /// Returns the number of rows dropped.
    pub fn gc_write_ledger(&self, older_than: Timestamp) -> FirestoreResult<usize> {
        let spanner = &self.inner.spanner;
        let ts = self.strong_read_ts();
        let range = self.inner.dir.range();
        let rows = spanner.snapshot_scan(WRITE_LEDGER, &range, ts, usize::MAX)?;
        let mut txn = spanner.begin();
        let mut dropped = 0usize;
        for (key, _, version_ts) in rows {
            if version_ts >= older_than {
                continue;
            }
            if let Err(e) = spanner.txn_delete(&mut txn, WRITE_LEDGER, key) {
                spanner.abort(&mut txn);
                return Err(e.into());
            }
            dropped += 1;
        }
        if dropped == 0 {
            spanner.abort(&mut txn);
            return Ok(0);
        }
        match spanner.commit(txn, Timestamp::ZERO, Timestamp::MAX) {
            Ok(_) => Ok(dropped),
            Err(e) => Err(e.into()),
        }
    }
}

impl std::fmt::Debug for FirestoreDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FirestoreDatabase({} @ {:?})", self.id(), self.inner.dir)
    }
}

/// An interactive transaction: locking reads followed by a commit of
/// buffered writes.
pub struct FirestoreTransaction {
    db: FirestoreDatabase,
    txn: ReadWriteTransaction,
    writes: Vec<Write>,
}

impl FirestoreTransaction {
    /// Read a document with a lock (exclusive, §IV-D2 step 2 — reads in
    /// Firestore transactions are reads-for-update).
    pub fn get(&mut self, name: &DocumentName) -> FirestoreResult<Option<Document>> {
        let key = self.db.inner.dir.key(&name.encode());
        let row = self
            .db
            .inner
            .spanner
            .txn_read_for_update_versioned(&mut self.txn, ENTITIES, &key)?;
        write::decode_row(name, row)
    }

    /// Run a query inside the transaction (reads acquire shared locks;
    /// "long-lived or large transactions may lead to lock contention and
    /// deadlocks that are resolved by failing and retrying", §IV-D3).
    pub fn query(&mut self, query: &Query) -> FirestoreResult<QueryResult> {
        let plan = plan_query(&mut self.db.inner.catalog.write(), self.db.inner.dir, query)?;
        executor::execute_limited(
            &self.db.inner.spanner,
            self.db.inner.dir,
            &plan,
            query,
            ReadAccess::Transaction(&mut self.txn),
            usize::MAX,
        )
    }

    /// Buffer a set.
    pub fn set(
        &mut self,
        name: DocumentName,
        fields: impl IntoIterator<Item = (impl Into<String>, Value)>,
    ) {
        self.writes.push(Write::set(name, fields));
    }

    /// Buffer a create.
    pub fn create(
        &mut self,
        name: DocumentName,
        fields: impl IntoIterator<Item = (impl Into<String>, Value)>,
    ) {
        self.writes.push(Write::create(name, fields));
    }

    /// Buffer a delete.
    pub fn delete(&mut self, name: DocumentName) {
        self.writes.push(Write::delete(name));
    }

    /// Buffer an arbitrary write.
    pub fn write(&mut self, w: Write) {
        self.writes.push(w);
    }

    /// Commit the transaction.
    pub fn commit(mut self) -> FirestoreResult<WriteResult> {
        self.db.check_gate(GatedOp::Commit)?;
        for w in &self.writes {
            write::validate_write(w)?;
        }
        let writes = std::mem::take(&mut self.writes);
        // Interactive transactions come from Server SDKs: privileged.
        let result = self
            .db
            .commit_pipeline(&mut self.txn, writes, &Caller::Service, None);
        if result.is_err() {
            self.db.inner.spanner.abort(&mut self.txn);
        }
        result
    }

    /// Abort the transaction, releasing locks.
    pub fn abort(mut self) {
        self.db.inner.spanner.abort(&mut self.txn);
    }
}

impl Drop for FirestoreTransaction {
    fn drop(&mut self) {
        self.db.inner.spanner.abort(&mut self.txn);
    }
}

/// Convenience: build a collection path (panics on invalid path; for
/// examples and tests).
pub fn collection(path: &str) -> CollectionPath {
    CollectionPath::parse(path).expect("valid collection path")
}

/// Convenience: build a document name (panics on invalid path; for examples
/// and tests).
pub fn doc(path: &str) -> DocumentName {
    DocumentName::parse(path).expect("valid document name")
}

/// Convenience: build a field map.
pub fn fields(entries: impl IntoIterator<Item = (&'static str, Value)>) -> BTreeMap<String, Value> {
    entries
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Re-export for `with_catalog` users.
pub use crate::index::IndexedField as Field;

/// Create a composite index synchronously: register as `Building`, backfill
/// every existing document, then mark `Ready` (§IV-D1's background service,
/// run to completion; see [`crate::backfill`] for the incremental version).
pub fn create_index_blocking(
    db: &FirestoreDatabase,
    collection_id: &str,
    fields: Vec<IndexedField>,
) -> FirestoreResult<IndexId> {
    let id = db.with_catalog(|c| c.add_composite(collection_id, fields, IndexState::Building));
    crate::backfill::run_backfill(db, id, 100)?;
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::FilterOp;
    use simkit::SimClock;

    fn setup() -> FirestoreDatabase {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let spanner = SpannerDatabase::new(clock);
        FirestoreDatabase::create_default(spanner)
    }

    fn put(db: &FirestoreDatabase, path: &str, fs: Vec<(&'static str, Value)>) -> WriteResult {
        db.commit_writes(vec![Write::set(doc(path), fs)], &Caller::Service)
            .unwrap()
    }

    #[test]
    fn write_ledger_gc_drops_only_expired_rows() {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let spanner = SpannerDatabase::new(clock.clone());
        let db = FirestoreDatabase::create_default(spanner);
        let w = |v: i64| vec![Write::set(doc("/c/d"), vec![("v", Value::Int(v))])];
        let old = db.commit_writes_dedup("old", w(1), &Caller::Service).unwrap();
        clock.advance(Duration::from_secs(60));
        let fresh = db
            .commit_writes_dedup("fresh", w(2), &Caller::Service)
            .unwrap();

        // Collect rows committed before the retry horizon (between the two).
        let horizon = old.commit_ts + Duration::from_secs(30);
        assert_eq!(db.gc_write_ledger(horizon).unwrap(), 1);
        assert_eq!(db.gc_write_ledger(horizon).unwrap(), 0, "idempotent");

        // The surviving row still dedups: a retry acks the original commit.
        let retry = db
            .commit_writes_dedup("fresh", w(2), &Caller::Service)
            .unwrap();
        assert_eq!(retry.commit_ts, fresh.commit_ts);
        assert_eq!(retry.stats, WriteStats::default());
        // The collected id is past its retry horizon, so a (contract-
        // violating) late retry re-applies as a fresh commit.
        let late = db.commit_writes_dedup("old", w(3), &Caller::Service).unwrap();
        assert!(late.commit_ts > old.commit_ts);
    }

    #[test]
    fn write_then_read() {
        let db = setup();
        let r = put(&db, "/restaurants/one", vec![("city", Value::from("SF"))]);
        let got = db
            .get_document(
                &doc("/restaurants/one"),
                Consistency::Strong,
                &Caller::Service,
            )
            .unwrap()
            .unwrap();
        assert_eq!(got.fields["city"], Value::from("SF"));
        assert_eq!(got.update_time, r.commit_ts);
        assert_eq!(got.create_time, r.commit_ts);
    }

    #[test]
    fn update_preserves_create_time() {
        let db = setup();
        let first = put(&db, "/c/d", vec![("v", Value::Int(1))]);
        let second = put(&db, "/c/d", vec![("v", Value::Int(2))]);
        let got = db
            .get_document(&doc("/c/d"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .unwrap();
        assert_eq!(got.create_time, first.commit_ts);
        assert_eq!(got.update_time, second.commit_ts);
        assert_eq!(got.fields["v"], Value::Int(2));
    }

    #[test]
    fn delete_removes_document_and_entries() {
        let db = setup();
        put(&db, "/c/d", vec![("v", Value::Int(1))]);
        db.commit_writes(vec![Write::delete(doc("/c/d"))], &Caller::Service)
            .unwrap();
        assert!(db
            .get_document(&doc("/c/d"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .is_none());
        // The query no longer returns it.
        let q = Query::parse("/c").unwrap().filter("v", FilterOp::Eq, 1i64);
        let res = db
            .run_query(&q, Consistency::Strong, &Caller::Service)
            .unwrap();
        assert!(res.documents.is_empty());
    }

    #[test]
    fn query_via_auto_index() {
        let db = setup();
        put(
            &db,
            "/restaurants/a",
            vec![("city", Value::from("SF")), ("r", Value::Int(3))],
        );
        put(
            &db,
            "/restaurants/b",
            vec![("city", Value::from("NY")), ("r", Value::Int(5))],
        );
        put(
            &db,
            "/restaurants/c",
            vec![("city", Value::from("SF")), ("r", Value::Int(4))],
        );
        let q = Query::parse("/restaurants")
            .unwrap()
            .filter("city", FilterOp::Eq, "SF");
        let res = db
            .run_query(&q, Consistency::Strong, &Caller::Service)
            .unwrap();
        let ids: Vec<&str> = res.documents.iter().map(|d| d.name.id()).collect();
        assert_eq!(ids, vec!["a", "c"]);
        assert!(res.stats.entries_examined >= 2);
    }

    #[test]
    fn snapshot_reads_are_stable() {
        let db = setup();
        put(&db, "/c/d", vec![("v", Value::Int(1))]);
        let ts = db.strong_read_ts();
        put(&db, "/c/d", vec![("v", Value::Int(2))]);
        let old = db
            .get_document(&doc("/c/d"), Consistency::AtTimestamp(ts), &Caller::Service)
            .unwrap()
            .unwrap();
        assert_eq!(old.fields["v"], Value::Int(1));
    }

    #[test]
    fn occ_precondition_detects_concurrent_update() {
        let db = setup();
        let r1 = put(&db, "/c/d", vec![("v", Value::Int(1))]);
        // Another writer sneaks in.
        put(&db, "/c/d", vec![("v", Value::Int(2))]);
        // An OCC write conditioned on the first version must fail.
        let stale = Write::set(doc("/c/d"), [("v", Value::Int(3))])
            .with_precondition(Precondition::UpdateTimeEquals(r1.commit_ts));
        let err = db.commit_writes(vec![stale], &Caller::Service).unwrap_err();
        assert!(matches!(err, FirestoreError::FailedPrecondition(_)));
    }

    #[test]
    fn transaction_readmodifywrite() {
        let db = setup();
        put(
            &db,
            "/restaurants/one",
            vec![
                ("numRatings", Value::Int(2)),
                ("avgRating", Value::Double(4.0)),
            ],
        );
        // The paper's example: add a rating and update the aggregates.
        db.run_transaction(5, |txn| {
            let r = txn.get(&doc("/restaurants/one"))?.expect("exists");
            let n = match r.fields["numRatings"] {
                Value::Int(n) => n,
                _ => unreachable!(),
            };
            let avg = match r.fields["avgRating"] {
                Value::Double(a) => a,
                _ => unreachable!(),
            };
            let new_avg = (avg * n as f64 + 5.0) / (n + 1) as f64;
            txn.create(
                doc("/restaurants/one/ratings/2"),
                [("rating", Value::Int(5)), ("userId", Value::from("alice"))],
            );
            txn.set(
                doc("/restaurants/one"),
                [
                    ("numRatings", Value::Int(n + 1)),
                    ("avgRating", Value::Double(new_avg)),
                ],
            );
            Ok(())
        })
        .unwrap();
        let r = db
            .get_document(
                &doc("/restaurants/one"),
                Consistency::Strong,
                &Caller::Service,
            )
            .unwrap()
            .unwrap();
        assert_eq!(r.fields["numRatings"], Value::Int(3));
        let rating = db
            .get_document(
                &doc("/restaurants/one/ratings/2"),
                Consistency::Strong,
                &Caller::Service,
            )
            .unwrap()
            .unwrap();
        assert_eq!(rating.fields["rating"], Value::Int(5));
    }

    #[test]
    fn transaction_conflict_retries() {
        let db = setup();
        put(&db, "/c/d", vec![("v", Value::Int(0))]);
        // Hold a lock with another transaction to force one conflict.
        let mut blocker = db.begin_transaction();
        blocker.get(&doc("/c/d")).unwrap();
        let blocker = std::cell::RefCell::new(Some(blocker));
        let mut attempts = 0;
        let db2 = db.clone();
        let result = db.run_transaction(5, |txn| {
            attempts += 1;
            if attempts > 1 {
                // Release the blocker so the retry can succeed.
                if let Some(b) = blocker.borrow_mut().take() {
                    b.abort();
                }
            }
            txn.get(&doc("/c/d"))?;
            txn.set(doc("/c/d"), [("v", Value::Int(9))]);
            Ok(())
        });
        result.unwrap();
        assert!(attempts > 1, "first attempt must have conflicted");
        let got = db2
            .get_document(&doc("/c/d"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .unwrap();
        assert_eq!(got.fields["v"], Value::Int(9));
    }

    #[test]
    fn third_party_requires_rules() {
        let db = setup();
        let w = Write::set(doc("/c/d"), [("v", Value::Int(1))]);
        let err = db
            .commit_writes(
                vec![w],
                &Caller::EndUser(Some(rules::AuthContext::uid("u"))),
            )
            .unwrap_err();
        assert!(matches!(err, FirestoreError::PermissionDenied(_)));
    }

    #[test]
    fn fig3_rules_enforced_on_write_path() {
        let db = setup();
        db.set_rules(
            r#"
            service cloud.firestore {
              match /databases/{database}/documents {
                match /restaurants/{restaurant}/ratings/{rating} {
                  allow read: if request.auth != null;
                  allow create: if request.auth != null
                                && request.resource.data.userId == request.auth.uid;
                  allow update, delete: if false;
                }
              }
            }
            "#,
        )
        .unwrap();
        let alice = Caller::EndUser(Some(rules::AuthContext::uid("alice")));
        let ok = Write::create(
            doc("/restaurants/one/ratings/2"),
            [("rating", Value::Int(5)), ("userId", Value::from("alice"))],
        );
        db.commit_writes(vec![ok], &alice).unwrap();
        // Updating the rating is denied.
        let upd = Write::set(
            doc("/restaurants/one/ratings/2"),
            [("rating", Value::Int(1)), ("userId", Value::from("alice"))],
        );
        assert!(matches!(
            db.commit_writes(vec![upd], &alice).unwrap_err(),
            FirestoreError::PermissionDenied(_)
        ));
        // Spoofing another user's id on create is denied.
        let spoof = Write::create(
            doc("/restaurants/one/ratings/3"),
            [("rating", Value::Int(5)), ("userId", Value::from("bob"))],
        );
        assert!(matches!(
            db.commit_writes(vec![spoof], &alice).unwrap_err(),
            FirestoreError::PermissionDenied(_)
        ));
        // Reads require auth.
        let anon = Caller::EndUser(None);
        assert!(matches!(
            db.get_document(
                &doc("/restaurants/one/ratings/2"),
                Consistency::Strong,
                &anon
            ),
            Err(FirestoreError::PermissionDenied(_))
        ));
        let got = db
            .get_document(
                &doc("/restaurants/one/ratings/2"),
                Consistency::Strong,
                &alice,
            )
            .unwrap();
        assert!(got.is_some());
        // The authorization path is served by the compiled decision tree,
        // and EXPLAIN renders it.
        let explain = db.explain_rules().expect("rules installed");
        assert!(explain.contains("rules decision tree"), "{explain}");
        assert!(explain.contains("restaurants"), "{explain}");
    }

    #[test]
    fn explain_rules_is_none_without_rules() {
        let db = setup();
        assert!(db.explain_rules().is_none());
    }

    #[test]
    fn batch_commit_is_atomic() {
        let db = setup();
        put(&db, "/c/exists", vec![("v", Value::Int(1))]);
        // Batch with one failing precondition: nothing is applied.
        let batch = vec![
            Write::set(doc("/c/new"), [("v", Value::Int(1))]),
            Write::create(doc("/c/exists"), [("v", Value::Int(2))]), // fails
        ];
        assert!(db.commit_writes(batch, &Caller::Service).is_err());
        assert!(db
            .get_document(&doc("/c/new"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .is_none());
    }

    #[test]
    fn query_results_carry_version_timestamps() {
        let db = setup();
        let r1 = put(&db, "/c/a", vec![("v", Value::Int(1))]);
        let r2 = put(&db, "/c/a", vec![("v", Value::Int(2))]);
        put(&db, "/c/b", vec![("v", Value::Int(3))]);
        // Index-served query.
        let q = Query::parse("/c").unwrap().filter("v", FilterOp::Eq, 2i64);
        let result = db.run_query(&q, Consistency::Strong, &Caller::Service).unwrap();
        assert_eq!(result.documents[0].update_time, r2.commit_ts);
        assert_eq!(result.documents[0].create_time, r1.commit_ts);
        // Primary-scan query.
        let all = db
            .run_query(&Query::parse("/c").unwrap(), Consistency::Strong, &Caller::Service)
            .unwrap();
        for d in &all.documents {
            assert!(d.update_time > Timestamp::ZERO, "{} has no version", d.name);
            // And it matches the point-read's view.
            let direct = db
                .get_document(&d.name, Consistency::Strong, &Caller::Service)
                .unwrap()
                .unwrap();
            assert_eq!(d.update_time, direct.update_time);
            assert_eq!(d.create_time, direct.create_time);
        }
    }

    #[test]
    fn merge_preserves_unlisted_fields() {
        let db = setup();
        put(
            &db,
            "/c/d",
            vec![("a", Value::Int(1)), ("b", Value::Int(2))],
        );
        db.commit_writes(
            vec![Write::merge(
                doc("/c/d"),
                [("b", Value::Int(20)), ("c", Value::Int(3))],
            )],
            &Caller::Service,
        )
        .unwrap();
        let got = db
            .get_document(&doc("/c/d"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .unwrap();
        assert_eq!(got.fields["a"], Value::Int(1), "unlisted field preserved");
        assert_eq!(got.fields["b"], Value::Int(20), "listed field replaced");
        assert_eq!(got.fields["c"], Value::Int(3), "new field added");
        // Merge into a missing document upserts.
        db.commit_writes(
            vec![Write::merge(doc("/c/new"), [("x", Value::Int(9))])],
            &Caller::Service,
        )
        .unwrap();
        assert!(db
            .get_document(&doc("/c/new"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .is_some());
        // Index entries follow the merged contents.
        let q = Query::parse("/c").unwrap().filter("a", FilterOp::Eq, 1i64);
        assert_eq!(
            db.run_query(&q, Consistency::Strong, &Caller::Service)
                .unwrap()
                .documents
                .len(),
            1
        );
    }

    #[test]
    fn count_query_without_fetching() {
        let db = setup();
        for i in 0..30 {
            put(
                &db,
                &format!("/r/d{i:02}"),
                vec![
                    ("city", Value::from(if i % 3 == 0 { "SF" } else { "NY" })),
                    ("n", Value::Int(i)),
                ],
            );
        }
        let q = Query::parse("/r")
            .unwrap()
            .filter("city", FilterOp::Eq, "SF");
        let (count, stats) = db
            .run_count(&q, Consistency::Strong, &Caller::Service)
            .unwrap();
        assert_eq!(count, 10);
        assert!(
            stats.entries_examined >= 10,
            "the count is billed by entries examined"
        );
        assert_eq!(stats.docs_fetched, 0, "COUNT never fetches documents");
        // Windowed count.
        let q = Query::parse("/r")
            .unwrap()
            .filter("city", FilterOp::Eq, "SF")
            .limit(4)
            .offset(8);
        let (count, _) = db
            .run_count(&q, Consistency::Strong, &Caller::Service)
            .unwrap();
        assert_eq!(count, 2);
        // Inequality count.
        let q = Query::parse("/r").unwrap().filter("n", FilterOp::Ge, 25i64);
        let (count, _) = db
            .run_count(&q, Consistency::Strong, &Caller::Service)
            .unwrap();
        assert_eq!(count, 5);
    }

    #[test]
    fn partial_results_resume_to_completion() {
        let db = setup();
        for i in 0..25 {
            put(&db, &format!("/r/d{i:02}"), vec![("v", Value::Int(i))]);
        }
        let ts = db.strong_read_ts();
        let mut collected = Vec::new();
        let mut query = Query::parse("/r").unwrap();
        loop {
            let result = db
                .run_query_partial(&query, Consistency::AtTimestamp(ts), &Caller::Service, 7)
                .unwrap();
            collected.extend(result.documents.iter().map(|d| d.name.id().to_string()));
            match result.resume_after {
                Some(after) => query = Query::parse("/r").unwrap().start_after(after),
                None => break,
            }
        }
        assert_eq!(
            collected.len(),
            25,
            "resumption covers everything exactly once"
        );
        let mut sorted = collected.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 25);
    }

    #[test]
    fn deadline_budget_caps_the_commit() {
        let db = setup();
        let clock = db.spanner().truetime().clock().clone();
        // A spent budget fails fast, and the failure is not retriable.
        let expired = Deadline::at(clock.now());
        let err = db
            .commit_writes_with_deadline(
                vec![Write::set(doc("/c/d"), [("v", Value::Int(1))])],
                &Caller::Service,
                Some(expired),
            )
            .unwrap_err();
        assert!(matches!(err, FirestoreError::DeadlineExceeded(_)));
        assert!(!err.is_retryable());
        assert!(db
            .get_document(&doc("/c/d"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .is_none());
        // A live budget commits, with M capped by the deadline.
        let dl = Deadline::after(&clock, Duration::from_secs(2));
        let r = db
            .commit_writes_with_deadline(
                vec![Write::set(doc("/c/d"), [("v", Value::Int(2))])],
                &Caller::Service,
                Some(dl),
            )
            .unwrap();
        assert!(r.commit_ts <= dl.ts(), "commit timestamp respects deadline");
    }

    /// A tenant gate that refuses everything, as for a suspended tenant.
    struct Suspended;

    impl TenantGate for Suspended {
        fn check(&self, _op: GatedOp, _class: RequestClass) -> FirestoreResult<()> {
            Err(FirestoreError::FailedPrecondition("tenant suspended".into()))
        }
    }

    #[test]
    fn tenant_gate_refuses_count_and_explain_analyze() {
        let db = setup();
        put(&db, "/c/d", vec![("v", Value::Int(1))]);
        db.set_gate(Some(Arc::new(Suspended)));
        let q = Query::parse("/c").unwrap();
        assert!(matches!(
            db.run_count(&q, Consistency::Strong, &Caller::Service),
            Err(FirestoreError::FailedPrecondition(_))
        ));
        assert!(matches!(
            db.explain_analyze(&q, Consistency::Strong, &Caller::Service),
            Err(FirestoreError::FailedPrecondition(_))
        ));
    }

    #[test]
    fn partial_query_reads_reach_the_history() {
        let db = setup();
        for i in 0..5 {
            put(&db, &format!("/c/d{i}"), vec![("v", Value::Int(i))]);
        }
        let rec = HistoryRecorder::new();
        db.spanner().set_history(Some(rec.clone()));
        let q = Query::parse("/c").unwrap();
        let result = db
            .run_query_partial(&q, Consistency::Strong, &Caller::Service, 3)
            .unwrap();
        assert_eq!(result.documents.len(), 3);
        let doc_reads: Vec<String> = rec
            .events()
            .into_iter()
            .filter_map(|r| match r.event {
                HistoryEvent::DocRead { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        let served: Vec<String> = result.documents.iter().map(|d| d.name.to_string()).collect();
        assert_eq!(doc_reads, served);
    }

    #[test]
    fn storage_stats_track_documents() {
        let db = setup();
        assert_eq!(db.storage_stats().unwrap().0, 0);
        put(&db, "/c/a", vec![("v", Value::Int(1))]);
        put(&db, "/c/b", vec![("v", Value::Int(2))]);
        let (docs, bytes) = db.storage_stats().unwrap();
        assert_eq!(docs, 2);
        assert!(bytes > 0);
    }
}
