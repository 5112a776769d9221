//! `FirestoreClient`: the Mobile/Web SDK entry point.
//!
//! All service traffic goes through [`firestore_core::Caller::EndUser`], so
//! security rules apply exactly as they would for a real device. The client
//! works in two states:
//!
//! * **connected** — reads/queries are served by the service and cached;
//!   writes are applied to the local cache immediately (latency
//!   compensation) and flushed; listeners combine the service's real-time
//!   snapshots with local pending writes;
//! * **disconnected** — everything is served from the local cache; writes
//!   queue up; on [`FirestoreClient::reconnect`] pending mutations replay
//!   ("last update wins" blind writes, §III-E) and every listener is
//!   re-seeded from a fresh server snapshot, emitting reconciliation deltas.
//!
//! A listener whose real-time stream is gone — reset by the cache, shed
//! under overload, lost with the link, or not yet re-subscribed after a
//! reconnect — is *pending*: each [`FirestoreClient::sync`] re-runs its
//! query (that read is the poll that keeps it current) and re-subscribes,
//! until a re-subscription succeeds (§IV-D4: the Real-time Cache is
//! strictly an enhancement).

use crate::listener::{local_results, ClientSnapshot, ListenerId, ListenerState};
use crate::store::{LocalStore, ServerEntry};
use firestore_core::{
    Backoff, Caller, Consistency, Document, DocumentName, FirestoreDatabase, FirestoreError,
    Precondition, Query, RetryBudget, RetryPolicy, Value, Write,
};
use parking_lot::Mutex;
use realtime::{
    Connection, ListenEvent, ListenSnapshot, RealtimeCache, ResetCause, OVERLOAD_RESUBSCRIBE_DELAY,
};
use rules::AuthContext;
use simkit::fault::FaultKind;
use simkit::Timestamp;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Client configuration.
#[derive(Clone, Debug, Default)]
pub struct ClientOptions {
    /// The authenticated end user (`None` = anonymous/unauthenticated).
    pub auth: Option<AuthContext>,
}

/// Client-side errors.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientError {
    /// The operation needs connectivity and the cache cannot serve it.
    Offline,
    /// The service rejected the request.
    Service(FirestoreError),
    /// A queued blind write was rejected after the fact (e.g. by security
    /// rules); the local cache has been rolled back.
    WriteRejected(FirestoreError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Offline => write!(f, "client is offline and the cache cannot serve this"),
            ClientError::Service(e) => write!(f, "service error: {e}"),
            ClientError::WriteRejected(e) => write!(f, "queued write rejected: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether retrying the same operation can succeed without user action.
    /// Offline and after-the-fact rejections are not retriable: the former
    /// needs a reconnect, the latter was rejected definitively.
    pub fn is_retriable(&self) -> bool {
        match self {
            ClientError::Offline => false,
            ClientError::Service(e) => e.is_retriable(),
            ClientError::WriteRejected(_) => false,
        }
    }

    /// Whether the error reflects a transient condition. Being offline is
    /// transient (connectivity can return) even though it is not retriable.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Offline => true,
            ClientError::Service(e) => e.is_transient(),
            ClientError::WriteRejected(_) => false,
        }
    }
}

impl From<FirestoreError> for ClientError {
    fn from(e: FirestoreError) -> Self {
        ClientError::Service(e)
    }
}

struct ClientState {
    connected: bool,
    store: LocalStore,
    listeners: HashMap<ListenerId, ListenerState>,
    next_listener: u64,
    conn: Option<Connection>,
    /// Errors from asynchronously rejected queued writes.
    write_errors: Vec<ClientError>,
    /// Listeners that need a re-seed, in `ListenerId` order, each with the
    /// first sync (a value of `syncs`) on which it may run: at once after a
    /// fault reset, a lost link, a reconnect or a failed re-seed;
    /// [`OVERLOAD_RESUBSCRIBE_DELAY`] syncs later after an overload reset.
    /// A listener leaves only when it has subscribed again.
    pending: BTreeMap<ListenerId, u64>,
    /// [`FirestoreClient::sync`] calls so far.
    syncs: u64,
    /// Overload (voluntary) resets observed, for tests and workloads.
    overload_resets: u64,
}

/// A Mobile/Web SDK client instance (one end-user device).
pub struct FirestoreClient {
    db: FirestoreDatabase,
    rtc: RealtimeCache,
    auth: Option<AuthContext>,
    state: Mutex<ClientState>,
    retry_policy: RetryPolicy,
    /// Shared across all of this client's flushes: a burst of transient
    /// failures drains it and silences further retries (no retry storms on
    /// an overloaded service, §VI).
    retry_budget: Mutex<RetryBudget>,
}

impl FirestoreClient {
    /// Create a connected client.
    pub fn connect(db: FirestoreDatabase, rtc: RealtimeCache, options: ClientOptions) -> Self {
        let conn = rtc.connect();
        FirestoreClient {
            db,
            rtc,
            auth: options.auth,
            state: Mutex::new(ClientState {
                connected: true,
                store: LocalStore::new(),
                listeners: HashMap::new(),
                next_listener: 1,
                conn: Some(conn),
                write_errors: Vec::new(),
                pending: BTreeMap::new(),
                syncs: 0,
                overload_resets: 0,
            }),
            retry_policy: RetryPolicy::default(),
            retry_budget: Mutex::new(RetryBudget::default()),
        }
    }

    /// Create a connected client with a persisted cache restored ("a warm
    /// cache as a starting point", §IV-E). Queued writes flush on the first
    /// [`FirestoreClient::sync`].
    pub fn connect_with_cache(
        db: FirestoreDatabase,
        rtc: RealtimeCache,
        options: ClientOptions,
        cache: LocalStore,
    ) -> Self {
        let client = FirestoreClient::connect(db, rtc, options);
        client.state.lock().store = cache;
        client
    }

    fn caller(&self) -> Caller {
        Caller::EndUser(self.auth.clone())
    }

    /// Whether the client currently talks to the service.
    pub fn is_connected(&self) -> bool {
        self.state.lock().connected
    }

    /// Number of queued (unacknowledged) writes.
    pub fn pending_writes(&self) -> usize {
        self.state.lock().store.pending_len()
    }

    /// Drain asynchronously rejected write errors.
    pub fn take_write_errors(&self) -> Vec<ClientError> {
        std::mem::take(&mut self.state.lock().write_errors)
    }

    /// Overload (voluntary) resets this client has absorbed.
    pub fn overload_resets(&self) -> u64 {
        self.state.lock().overload_resets
    }

    /// Serialize the local cache for persistence.
    pub fn persist_cache(&self) -> Vec<u8> {
        self.state.lock().store.persist()
    }

    // --- connectivity ---------------------------------------------------------

    /// Simulate losing network connectivity.
    pub fn disconnect(&self) {
        let mut st = self.state.lock();
        st.connected = false;
        if let Some(conn) = st.conn.take() {
            conn.close();
        }
        for l in st.listeners.values_mut() {
            l.server_query = None;
        }
    }

    /// Reconnect: flush queued writes, then re-seed every listener from a
    /// fresh server snapshot (automatic reconciliation, §I: "fully
    /// disconnected operation, with automatic reconciliation on
    /// reconnection"). A listener whose re-seed fails stays pending and is
    /// re-seeded by a later [`FirestoreClient::sync`].
    pub fn reconnect(&self) -> Result<(), ClientError> {
        {
            let mut st = self.state.lock();
            if st.connected {
                return Ok(());
            }
            st.connected = true;
            st.conn = Some(self.rtc.connect());
            let st = &mut *st;
            st.pending
                .extend(st.listeners.keys().map(|&id| (id, st.syncs)));
        }
        self.flush()?;
        self.reseed_pending()
    }

    // --- reads ------------------------------------------------------------------

    /// Fetch one document: from the service when connected (updating the
    /// cache), from the cache otherwise.
    pub fn get(&self, path: &str) -> Result<Option<Document>, ClientError> {
        let name = parse_doc(path)?;
        {
            let st = self.state.lock();
            if !st.connected {
                return match st.store.merged_doc(&name) {
                    Some(doc) => Ok(doc),
                    None => Err(ClientError::Offline),
                };
            }
            // Latency compensation: a pending local write wins even online.
            if st.store.has_pending_for(&name) {
                return Ok(st.store.merged_doc(&name).flatten());
            }
        }
        let doc = self
            .db
            .get_document(&name, Consistency::Strong, &self.caller())?;
        let mut st = self.state.lock();
        st.store.apply_server(name.clone(), doc);
        Ok(st.store.merged_doc(&name).flatten())
    }

    /// Run a one-shot query: server results merged with pending local
    /// writes when connected; pure cache results offline.
    pub fn query(&self, query: &Query) -> Result<Vec<Document>, ClientError> {
        let connected = self.state.lock().connected;
        if connected {
            let result =
                self.db
                    .run_query(&query.without_window(), Consistency::Strong, &self.caller())?;
            let mut st = self.state.lock();
            for doc in &result.documents {
                st.store.apply_server(doc.name.clone(), Some(doc.clone()));
            }
            Ok(local_results(query, &st.store))
        } else {
            Ok(local_results(query, &self.state.lock().store))
        }
    }

    // --- writes -----------------------------------------------------------------

    /// Set (create or replace) a document — a blind write, acknowledged
    /// locally at once and flushed asynchronously.
    pub fn set(
        &self,
        path: &str,
        fields: impl IntoIterator<Item = (impl Into<String>, Value)>,
    ) -> Result<(), ClientError> {
        let name = parse_doc(path)?;
        self.enqueue(Write::set(name, fields))
    }

    /// Merge fields into a document (the SDKs' `set(..., {merge: true})`):
    /// unlisted fields are preserved; creates the document if absent.
    pub fn merge(
        &self,
        path: &str,
        fields: impl IntoIterator<Item = (impl Into<String>, Value)>,
    ) -> Result<(), ClientError> {
        let name = parse_doc(path)?;
        self.enqueue(Write::merge(name, fields))
    }

    /// Delete a document (blind).
    pub fn delete(&self, path: &str) -> Result<(), ClientError> {
        let name = parse_doc(path)?;
        self.enqueue(Write::delete(name))
    }

    fn enqueue(&self, write: Write) -> Result<(), ClientError> {
        let name = write.op.name().clone();
        {
            let mut st = self.state.lock();
            st.store.enqueue(write);
            Self::notify_listeners(&mut st, &[name], true);
        }
        // Flush opportunistically while connected.
        if self.state.lock().connected {
            self.flush()?;
        }
        Ok(())
    }

    /// Push queued writes to the service in order. Transient errors are
    /// retried in place with deterministic jittered backoff (spent by
    /// advancing the simulated clock) while the retry budget allows;
    /// exhausted budgets leave the mutation queued for a later sync.
    /// Permanent rejections roll back the local cache and surface via
    /// [`FirestoreClient::take_write_errors`].
    ///
    /// Every mutation flushes under an idempotent write id
    /// (`client-{session}:{mutation}`) recorded in the service's dedup
    /// ledger atomically with the commit, so a retry after an *ambiguous*
    /// outcome — the server crashed after logging the commit but before
    /// acknowledging it — acks from the ledger instead of applying twice.
    pub fn flush(&self) -> Result<(), ClientError> {
        let clock = self.db.spanner().truetime().clock().clone();
        let obs = self.db.obs();
        loop {
            let (id, write, session) = {
                let st = self.state.lock();
                if !st.connected {
                    return Ok(());
                }
                let next = st.store.pending().next().map(|p| (p.id, p.write.clone()));
                match next {
                    None => return Ok(()),
                    Some((id, write)) => (id, write, st.store.session_id()),
                }
            };
            let name = write.op.name().clone();
            let dedup_id = format!("client-{session}:{id}");
            let span = obs.as_ref().map(|o| o.tracer.span("client.flush"));
            if let Some(s) = &span {
                s.attr("doc", name.to_string());
                s.attr("dedup_id", dedup_id.clone());
            }
            let mut backoff = Backoff::new(self.retry_policy, clock.now().as_nanos());
            let outcome = loop {
                match self
                    .db
                    .commit_writes_dedup(&dedup_id, vec![write.clone()], &self.caller())
                {
                    Ok(result) => {
                        self.retry_budget.lock().record_success();
                        break Ok(result);
                    }
                    // An ambiguous outcome (`Unknown`) is not retryable in
                    // general — the commit may have landed — but the dedup
                    // ledger makes this retry exactly-once, so flush treats
                    // it like any transient failure.
                    Err(e)
                        if e.is_retryable() || matches!(e, FirestoreError::Unknown(_)) =>
                    {
                        let can_retry = {
                            let mut budget = self.retry_budget.lock();
                            budget.record_failure();
                            budget.can_retry()
                        };
                        if !can_retry {
                            // Budget drained: stay queued, don't amplify.
                            if let Some(o) = &obs {
                                o.metrics.incr("client.flush.stalled", &[("cause", "budget")], 1);
                            }
                            return Ok(());
                        }
                        match backoff.next_delay() {
                            Some(delay) => {
                                // Throttle rejections carry a server-chosen
                                // minimum backoff; honor it so shed load
                                // drains instead of multiplying (§VI).
                                let delay = match e.retry_after() {
                                    Some(hint) => delay.max(hint),
                                    None => delay,
                                };
                                if let Some(o) = &obs {
                                    o.metrics.incr("client.flush.retries", &[], 1);
                                    o.metrics
                                        .observe_duration("client.flush.backoff_ms", &[], delay);
                                }
                                if let Some(s) = &span {
                                    s.event(format!("retry backoff={}ns", delay.as_nanos()));
                                }
                                clock.advance(delay)
                            }
                            // Attempts exhausted: stay queued for later.
                            None => {
                                if let Some(o) = &obs {
                                    o.metrics.incr(
                                        "client.flush.stalled",
                                        &[("cause", "attempts")],
                                        1,
                                    );
                                }
                                return Ok(());
                            }
                        };
                    }
                    Err(e) => break Err(e),
                }
            };
            match outcome {
                Ok(result) => {
                    if let Some(o) = &obs {
                        o.metrics.incr("client.flushes", &[], 1);
                    }
                    if let Some(h) = self.db.history() {
                        h.record(simkit::history::HistoryEvent::ClientAck {
                            dir: self.db.directory().prefix(),
                            dedup_id: dedup_id.clone(),
                            commit_ts: result.commit_ts,
                        });
                    }
                    let mut st = self.state.lock();
                    st.store.remove_pending(id);
                    // The acknowledged server state equals the write.
                    let server_doc = match &write.op {
                        firestore_core::WriteOp::Set { fields, .. } => {
                            let mut d = Document::new(name.clone(), fields.clone());
                            d.update_time = result.commit_ts;
                            d.create_time = match st.store.server_doc(&name) {
                                Some(ServerEntry::Exists(prev)) => prev.create_time,
                                _ => result.commit_ts,
                            };
                            Some(d)
                        }
                        firestore_core::WriteOp::Merge { fields, .. } => {
                            let (mut merged, create_time) = match st.store.server_doc(&name) {
                                Some(ServerEntry::Exists(prev)) => {
                                    (prev.fields.clone(), prev.create_time)
                                }
                                _ => (Default::default(), result.commit_ts),
                            };
                            for (k, v) in fields {
                                merged.insert(k.clone(), v.clone());
                            }
                            let mut d =
                                Document::new(name.clone(), merged.into_iter().collect::<Vec<_>>());
                            d.update_time = result.commit_ts;
                            d.create_time = create_time;
                            Some(d)
                        }
                        _ => None,
                    };
                    st.store.apply_server(name.clone(), server_doc);
                    Self::notify_listeners(&mut st, &[name], false);
                }
                Err(e) => {
                    // Permanent rejection: roll back the local effect.
                    if let Some(o) = &obs {
                        o.metrics.incr("client.flush.rejected", &[], 1);
                    }
                    let mut st = self.state.lock();
                    st.store.remove_pending(id);
                    st.write_errors.push(ClientError::WriteRejected(e));
                    Self::notify_listeners(&mut st, &[name], false);
                }
            }
        }
    }

    // --- transactions -------------------------------------------------------------

    /// Run an optimistic-concurrency transaction ("transactional writes
    /// based on optimistic concurrency control while connected", §III-E):
    /// reads record freshness, the commit revalidates every read, and the
    /// transaction retries automatically when validation fails.
    pub fn run_transaction<R>(
        &self,
        max_attempts: usize,
        mut f: impl FnMut(&mut ClientTransaction<'_>) -> Result<R, ClientError>,
    ) -> Result<R, ClientError> {
        if !self.state.lock().connected {
            return Err(ClientError::Offline);
        }
        let mut last = ClientError::Service(FirestoreError::Aborted("no attempts".into()));
        for _ in 0..max_attempts.max(1) {
            let mut txn = ClientTransaction {
                client: self,
                reads: HashMap::new(),
                writes: Vec::new(),
            };
            match f(&mut txn) {
                Err(e) => return Err(e),
                Ok(r) => match txn.commit() {
                    Ok(names) => {
                        let mut st = self.state.lock();
                        Self::notify_listeners(&mut st, &names, false);
                        return Ok(r);
                    }
                    Err(ClientError::Service(e)) if e.is_retryable() => {
                        last = ClientError::Service(e);
                    }
                    Err(ClientError::Service(FirestoreError::FailedPrecondition(m))) => {
                        // Freshness check failed: retry (§III-E).
                        last = ClientError::Service(FirestoreError::FailedPrecondition(m));
                    }
                    Err(e) => return Err(e),
                },
            }
        }
        Err(last)
    }

    // --- listeners ------------------------------------------------------------------

    /// Register an `onSnapshot` listener. The initial snapshot is queued
    /// immediately (from the server when connected, from the cache
    /// otherwise). After that the listener delivers only deltas of its
    /// window: a re-seed after a reconnect or a reset reconciles the
    /// listener's view with the fresh server snapshot, so unchanged
    /// documents are not announced again, and a re-seed that changes only
    /// the snapshot's metadata (`from_cache`) delivers nothing.
    pub fn listen(&self, query: Query) -> Result<ListenerId, ClientError> {
        let id = {
            let mut st = self.state.lock();
            let id = ListenerId(st.next_listener);
            st.next_listener += 1;
            id
        };
        let connected = self.state.lock().connected;
        if connected {
            self.seed_listener(id, query)?;
        } else {
            let mut st = self.state.lock();
            let mut l = ListenerState::new(id, query, &st.store);
            l.emit_initial(true);
            st.listeners.insert(id, l);
        }
        Ok(id)
    }

    /// The one listener path, shared by [`FirestoreClient::listen`] and
    /// every re-seed: read the listen snapshot, fold it into the local
    /// store, then seed a new listener from the store or reconcile an
    /// existing one's view with it, and subscribe on the connection. A
    /// listener the link does not let subscribe is pending; one that
    /// subscribed is not.
    fn seed_listener(&self, id: ListenerId, query: Query) -> Result<(), ClientError> {
        let snapshot = ListenSnapshot::read(&self.db, query.clone(), &self.caller())?;
        let link_up = !self.link_lost("listen");
        let mut st = self.state.lock();
        let st = &mut *st;
        // Detect server-side deletions for documents we previously cached
        // in this query's collection.
        let fresh: HashSet<&DocumentName> = snapshot.documents().iter().map(|d| &d.name).collect();
        let stale: Vec<DocumentName> = st
            .store
            .known_names()
            .into_iter()
            .filter(|n| query.collection.contains(n) && !fresh.contains(n))
            .collect();
        for name in stale {
            if !st.store.has_pending_for(&name) {
                st.store.apply_server(name, None);
            }
        }
        for doc in snapshot.documents() {
            st.store.apply_server(doc.name.clone(), Some(doc.clone()));
        }
        let l = match st.listeners.entry(id) {
            Entry::Occupied(e) => {
                let l = e.into_mut();
                l.read_time = snapshot.at();
                l.reconcile(&st.store);
                l
            }
            Entry::Vacant(e) => {
                let mut l = ListenerState::new(id, query, &st.store);
                l.read_time = snapshot.at();
                l.emit_initial(false);
                e.insert(l)
            }
        };
        l.server_query = match &st.conn {
            Some(conn) if link_up => Some(snapshot.listen(conn)),
            _ => None,
        };
        if l.server_query.is_some() {
            st.pending.remove(&id);
        } else {
            st.pending.insert(id, st.syncs);
        }
        Ok(())
    }

    /// Whether the link to the Real-time Cache fails at `site` now
    /// ([`FaultKind::ListenStreamLost`]).
    fn link_lost(&self, site: &'static str) -> bool {
        self.db
            .spanner()
            .env()
            .world()
            .inject(FaultKind::ListenStreamLost, site)
    }

    /// Re-seed every pending listener whose back-off has expired, in
    /// `ListenerId` order. One whose read fails stays pending for the next
    /// sync: a transient failure is not an error. The first other error is
    /// returned after every due listener has been tried.
    fn reseed_pending(&self) -> Result<(), ClientError> {
        let due: Vec<(ListenerId, Query)> = {
            let st = self.state.lock();
            st.pending
                .iter()
                .filter(|&(_, &due)| due <= st.syncs)
                .filter_map(|(id, _)| st.listeners.get(id).map(|l| (*id, l.query.clone())))
                .collect()
        };
        let mut result = Ok(());
        for (id, query) in due {
            if let Err(e) = self.seed_listener(id, query) {
                if !e.is_retriable() && result.is_ok() {
                    result = Err(e);
                }
            }
        }
        result
    }

    /// Stop a listener.
    pub fn unlisten(&self, id: ListenerId) {
        let mut st = self.state.lock();
        st.pending.remove(&id);
        if let Some(l) = st.listeners.remove(&id) {
            if let (Some(qid), Some(conn)) = (l.server_query, st.conn.as_ref()) {
                conn.unlisten(qid);
            }
        }
    }

    /// Process service events (real-time snapshots, resets), re-seed the
    /// pending listeners that are due, and flush pending writes. Call this
    /// from the application's event loop.
    ///
    /// While the link to the Real-time Cache is lost
    /// ([`FaultKind::ListenStreamLost`]), every subscribed listener drops
    /// its stream, and what the stream carried, and turns pending: its
    /// re-seed reads the query each sync, so the application still sees
    /// every change exactly once, until a re-subscription succeeds.
    pub fn sync(&self) -> Result<(), ClientError> {
        {
            let mut st = self.state.lock();
            let st = &mut *st;
            let Some(conn) = st.conn.as_ref().filter(|_| st.connected) else {
                return Ok(());
            };
            st.syncs += 1;
            let now = st.syncs;
            let mut events = conn.poll();
            if st.listeners.values().any(|l| l.server_query.is_some())
                && self.link_lost("listen-stream")
            {
                events.clear();
                for (id, l) in st.listeners.iter_mut() {
                    if let Some(qid) = l.server_query.take() {
                        conn.unlisten(qid);
                        st.pending.insert(*id, now);
                    }
                }
            }
            for event in events {
                match event {
                    ListenEvent::Snapshot {
                        query,
                        at,
                        changes,
                        is_initial,
                    } => {
                        if is_initial {
                            continue; // seeded synchronously at listen time
                        }
                        let mut touched: Vec<DocumentName> = Vec::new();
                        for c in &changes {
                            let doc = match c.kind {
                                realtime::ChangeKind::Removed => None,
                                _ => Some(c.doc.clone()),
                            };
                            // Note: a Removed event may mean "stopped
                            // matching" rather than "deleted"; the cache
                            // conservatively forgets the document either
                            // way and re-fetches on demand.
                            if !st.store.has_pending_for(&c.doc.name) {
                                st.store.apply_server(c.doc.name.clone(), doc);
                            }
                            touched.push(c.doc.name.clone());
                        }
                        if let Some(l) = st
                            .listeners
                            .values_mut()
                            .find(|l| l.server_query == Some(query))
                        {
                            l.read_time = at;
                        }
                        Self::notify_listeners(st, &touched, false);
                    }
                    ListenEvent::Reset { query, cause } => {
                        let Some((id, l)) = st
                            .listeners
                            .iter_mut()
                            .find(|(_, l)| l.server_query == Some(query))
                        else {
                            continue;
                        };
                        // The cache has already ended the query.
                        l.server_query = None;
                        let due = match cause {
                            ResetCause::Fault => now,
                            ResetCause::Overload => {
                                st.overload_resets += 1;
                                now + u64::from(OVERLOAD_RESUBSCRIBE_DELAY) + 1
                            }
                        };
                        st.pending.insert(*id, due);
                    }
                }
            }
        }
        let reseeded = self.reseed_pending();
        self.flush()?;
        reseeded
    }

    /// Drain queued snapshots of one listener (call [`FirestoreClient::sync`]
    /// first to pick up service events).
    pub fn take_snapshots(&self, id: ListenerId) -> Vec<ClientSnapshot> {
        let mut st = self.state.lock();
        st.listeners
            .get_mut(&id)
            .map(|l| l.take())
            .unwrap_or_default()
    }

    fn notify_listeners(st: &mut ClientState, names: &[DocumentName], from_cache: bool) {
        if names.is_empty() {
            return;
        }
        // Split borrow: listeners and store are separate fields.
        let store = &st.store;
        for l in st.listeners.values_mut() {
            l.apply_names(names, store, from_cache);
        }
    }
}

fn parse_doc(path: &str) -> Result<DocumentName, ClientError> {
    DocumentName::parse(path)
        .map_err(|e| ClientError::Service(FirestoreError::InvalidArgument(e.to_string())))
}

/// An in-flight optimistic client transaction.
pub struct ClientTransaction<'a> {
    client: &'a FirestoreClient,
    /// Documents read, with the `update_time` observed (`None` = absent).
    reads: HashMap<DocumentName, Option<Timestamp>>,
    writes: Vec<Write>,
}

impl ClientTransaction<'_> {
    /// Read a document from the service, recording its version for the
    /// commit-time freshness check.
    pub fn get(&mut self, path: &str) -> Result<Option<Document>, ClientError> {
        let name = parse_doc(path)?;
        let doc = self
            .client
            .db
            .get_document(&name, Consistency::Strong, &self.client.caller())?;
        self.reads.insert(name, doc.as_ref().map(|d| d.update_time));
        Ok(doc)
    }

    /// Buffer a set.
    pub fn set(
        &mut self,
        path: &str,
        fields: impl IntoIterator<Item = (impl Into<String>, Value)>,
    ) -> Result<(), ClientError> {
        let name = parse_doc(path)?;
        self.writes.push(Write::set(name, fields));
        Ok(())
    }

    /// Buffer a delete.
    pub fn delete(&mut self, path: &str) -> Result<(), ClientError> {
        let name = parse_doc(path)?;
        self.writes.push(Write::delete(name));
        Ok(())
    }

    /// Commit: every read is revalidated (verify-only writes for reads that
    /// were not written). Returns the touched names.
    fn commit(self) -> Result<Vec<DocumentName>, ClientError> {
        let mut writes = Vec::with_capacity(self.writes.len() + self.reads.len());
        let written: Vec<&DocumentName> = self.writes.iter().map(|w| w.op.name()).collect();
        let mut names: Vec<DocumentName> = Vec::new();
        for (name, version) in &self.reads {
            let precondition = match version {
                Some(ts) => Precondition::UpdateTimeEquals(*ts),
                None => Precondition::MustNotExist,
            };
            if written.contains(&name) {
                continue; // the write itself carries the precondition below
            }
            writes.push(Write::verify(name.clone(), precondition));
        }
        for mut w in self.writes {
            if let Some(version) = self.reads.get(w.op.name()) {
                w = w.with_precondition(match version {
                    Some(ts) => Precondition::UpdateTimeEquals(*ts),
                    None => Precondition::MustNotExist,
                });
            }
            names.push(w.op.name().clone());
            writes.push(w);
        }
        let result = self.client.db.commit_writes(writes, &self.client.caller());
        match result {
            Ok(res) => {
                // Refresh the cache for written docs.
                let mut st = self.client.state.lock();
                for name in &names {
                    // Cheap approach: forget, re-fetch lazily.
                    let _ = res;
                    let doc = self
                        .client
                        .db
                        .get_document(name, Consistency::Strong, &Caller::Service)
                        .ok()
                        .flatten();
                    st.store.apply_server(name.clone(), doc);
                }
                Ok(names)
            }
            Err(e) => Err(ClientError::Service(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firestore_core::database::doc as docname;
    use realtime::RealtimeOptions;
    use simkit::{Duration, SimClock};
    use spanner::SpannerDatabase;

    const OPEN_RULES: &str = r#"
        service cloud.firestore {
          match /databases/{db}/documents {
            match /{document=**} {
              allow read, write;
            }
          }
        }
    "#;

    fn setup() -> (FirestoreDatabase, RealtimeCache) {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let spanner = SpannerDatabase::new(clock);
        let db = FirestoreDatabase::create_default(spanner.clone());
        db.set_rules(OPEN_RULES).unwrap();
        let cache = RealtimeCache::new(&spanner, RealtimeOptions::default());
        db.set_observer(cache.observer_for(db.directory()));
        (db, cache)
    }

    fn client(db: &FirestoreDatabase, rtc: &RealtimeCache) -> FirestoreClient {
        FirestoreClient::connect(
            db.clone(),
            rtc.clone(),
            ClientOptions {
                auth: Some(AuthContext::uid("alice")),
            },
        )
    }

    #[test]
    fn online_write_and_read() {
        let (db, rtc) = setup();
        let c = client(&db, &rtc);
        c.set("/todos/1", [("title", Value::from("milk"))]).unwrap();
        assert_eq!(c.pending_writes(), 0, "flushed immediately while online");
        let got = c.get("/todos/1").unwrap().unwrap();
        assert_eq!(got.fields["title"], Value::from("milk"));
        // And it reached the server.
        let on_server = db
            .get_document(&docname("/todos/1"), Consistency::Strong, &Caller::Service)
            .unwrap();
        assert!(on_server.is_some());
    }

    #[test]
    fn offline_writes_queue_and_replay() {
        let (db, rtc) = setup();
        let c = client(&db, &rtc);
        c.disconnect();
        c.set("/todos/1", [("title", Value::from("offline"))])
            .unwrap();
        c.set("/todos/2", [("title", Value::from("second"))])
            .unwrap();
        assert_eq!(c.pending_writes(), 2);
        // Local reads see the pending writes.
        assert!(c.get("/todos/1").unwrap().is_some());
        // Server has nothing yet.
        assert!(db
            .get_document(&docname("/todos/1"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .is_none());
        c.reconnect().unwrap();
        assert_eq!(c.pending_writes(), 0);
        assert!(db
            .get_document(&docname("/todos/1"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .is_some());
    }

    #[test]
    fn offline_get_unknown_is_offline_error() {
        let (db, rtc) = setup();
        let c = client(&db, &rtc);
        c.disconnect();
        assert_eq!(c.get("/todos/unseen").unwrap_err(), ClientError::Offline);
    }

    #[test]
    fn offline_queries_serve_from_cache() {
        let (db, rtc) = setup();
        let c = client(&db, &rtc);
        c.set("/todos/1", [("done", Value::Bool(false))]).unwrap();
        let q = Query::parse("/todos").unwrap();
        assert_eq!(c.query(&q).unwrap().len(), 1);
        c.disconnect();
        // Cache still serves the query.
        assert_eq!(c.query(&q).unwrap().len(), 1);
        // And local mutations apply.
        c.delete("/todos/1").unwrap();
        assert_eq!(c.query(&q).unwrap().len(), 0);
    }

    #[test]
    fn blind_writes_last_update_wins() {
        let (db, rtc) = setup();
        let a = client(&db, &rtc);
        let b = client(&db, &rtc);
        a.disconnect();
        a.set("/doc/x", [("v", Value::from("from-a"))]).unwrap();
        b.set("/doc/x", [("v", Value::from("from-b"))]).unwrap();
        // A reconnects later: its write replays and wins (last update).
        a.reconnect().unwrap();
        let final_doc = db
            .get_document(&docname("/doc/x"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .unwrap();
        assert_eq!(final_doc.fields["v"], Value::from("from-a"));
    }

    #[test]
    fn listener_sees_remote_and_local_changes() {
        let (db, rtc) = setup();
        let alice = client(&db, &rtc);
        let bob = client(&db, &rtc);
        let q = Query::parse("/todos").unwrap();
        let l = alice.listen(q).unwrap();
        let initial = alice.take_snapshots(l);
        assert_eq!(initial.len(), 1);
        assert!(initial[0].documents.is_empty());

        // Local write: immediate snapshot from cache.
        alice.set("/todos/mine", [("t", Value::from("a"))]).unwrap();
        let snaps = alice.take_snapshots(l);
        assert!(!snaps.is_empty());

        // Remote write by bob: arrives via real-time sync.
        bob.set("/todos/theirs", [("t", Value::from("b"))]).unwrap();
        rtc.tick();
        alice.sync().unwrap();
        let snaps = alice.take_snapshots(l);
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].documents.len(), 2);
        assert!(!snaps[0].from_cache);
    }

    #[test]
    fn offset_listener_shows_the_queried_window() {
        let (db, rtc) = setup();
        let c = client(&db, &rtc);
        for i in 0..5 {
            c.set(&format!("/todos/{i}"), [("n", Value::Int(i))])
                .unwrap();
        }
        let q = Query::parse("/todos")
            .unwrap()
            .order_by("n", firestore_core::Direction::Asc)
            .limit(2)
            .offset(1);
        let names = |docs: &[Document]| -> Vec<String> {
            docs.iter().map(|d| d.name.id().to_string()).collect()
        };
        let id = c.listen(q.clone()).unwrap();
        let shown = names(&c.take_snapshots(id)[0].documents);
        let served = db
            .run_query(&q, Consistency::Strong, &Caller::Service)
            .unwrap();
        assert_eq!(shown, ["1", "2"], "the offset is skipped once");
        assert_eq!(shown, names(&c.query(&q).unwrap()));
        assert_eq!(shown, names(&served.documents));
    }

    #[test]
    fn disconnected_listener_reconciles_on_reconnect() {
        let (db, rtc) = setup();
        let alice = client(&db, &rtc);
        let bob = client(&db, &rtc);
        bob.set("/todos/1", [("t", Value::from("keep"))]).unwrap();
        bob.set("/todos/2", [("t", Value::from("to-delete"))])
            .unwrap();

        let q = Query::parse("/todos").unwrap();
        let l = alice.listen(q).unwrap();
        assert_eq!(alice.take_snapshots(l)[0].documents.len(), 2);

        alice.disconnect();
        // While alice is offline: bob deletes one doc and adds another.
        bob.delete("/todos/2").unwrap();
        bob.set("/todos/3", [("t", Value::from("new"))]).unwrap();
        // Alice makes a local change meanwhile.
        alice
            .set("/todos/local", [("t", Value::from("mine"))])
            .unwrap();
        let offline_snaps = alice.take_snapshots(l);
        assert!(!offline_snaps.is_empty());
        assert!(offline_snaps.iter().all(|s| s.from_cache));

        alice.reconnect().unwrap();
        let snaps = alice.take_snapshots(l);
        // The reconciled snapshot reflects: 1 (kept), 3 (new), local (pushed).
        let last = snaps.last().unwrap();
        let ids: Vec<&str> = last.documents.iter().map(|d| d.name.id()).collect();
        assert!(ids.contains(&"1"), "{ids:?}");
        assert!(ids.contains(&"3"), "{ids:?}");
        assert!(ids.contains(&"local"), "{ids:?}");
        assert!(!ids.contains(&"2"), "{ids:?}");
    }

    /// Every change a listener delivered since its last drain, as
    /// `(kind, document id)` pairs.
    fn delivered(c: &FirestoreClient, l: ListenerId) -> Vec<(realtime::ChangeKind, String)> {
        c.take_snapshots(l)
            .iter()
            .flat_map(|s| s.changes.iter())
            .map(|ch| (ch.kind, ch.doc.name.id().to_string()))
            .collect()
    }

    #[test]
    fn reconnect_without_remote_change_emits_nothing() {
        let (db, rtc) = setup();
        let alice = client(&db, &rtc);
        alice.set("/todos/1", [("t", Value::from("a"))]).unwrap();
        let l = alice.listen(Query::parse("/todos").unwrap()).unwrap();
        assert_eq!(
            delivered(&alice, l),
            [(realtime::ChangeKind::Added, "1".into())]
        );

        alice.disconnect();
        alice.reconnect().unwrap();
        assert!(
            alice.take_snapshots(l).is_empty(),
            "a reseed with nothing changed must not re-announce the window"
        );
    }

    #[test]
    fn reconnect_delivers_only_the_remote_deltas() {
        use realtime::ChangeKind::{Added, Removed};
        let (db, rtc) = setup();
        let alice = client(&db, &rtc);
        let bob = client(&db, &rtc);
        bob.set("/todos/1", [("t", Value::from("keep"))]).unwrap();
        bob.set("/todos/2", [("t", Value::from("gone"))]).unwrap();
        let l = alice.listen(Query::parse("/todos").unwrap()).unwrap();
        alice.take_snapshots(l);

        alice.disconnect();
        bob.delete("/todos/2").unwrap();
        bob.set("/todos/3", [("t", Value::from("new"))]).unwrap();
        alice.reconnect().unwrap();
        let mut got = delivered(&alice, l);
        got.sort_by(|a, b| a.1.cmp(&b.1));
        assert_eq!(got, [(Removed, "2".into()), (Added, "3".into())]);
    }

    #[test]
    fn fault_reset_does_not_reannounce_unchanged_documents() {
        let (db, rtc) = setup();
        let alice = client(&db, &rtc);
        alice.set("/todos/1", [("t", Value::from("a"))]).unwrap();
        alice.set("/todos/2", [("t", Value::from("b"))]).unwrap();
        let l = alice.listen(Query::parse("/todos").unwrap()).unwrap();
        alice.take_snapshots(l);

        // An unknown-outcome commit puts the range out of sync: the cache
        // resets the listener and the next sync re-seeds it.
        db.spanner()
            .inject_commit_failure(spanner::SpannerError::UnknownOutcome);
        let err = db
            .commit_writes(
                vec![Write::set(docname("/todos/x"), [("t", Value::from("x"))])],
                &Caller::Service,
            )
            .unwrap_err();
        assert!(matches!(err, FirestoreError::Unknown(_)));
        rtc.tick();
        alice.sync().unwrap();
        assert_eq!(rtc.stats().resets_fault, 1);
        assert_eq!(rtc.stats().active_queries, 1, "re-subscribed at once");
        assert!(
            delivered(&alice, l).is_empty(),
            "the reset must not re-announce /todos/1 and /todos/2"
        );

        // The re-seeded listener streams again.
        db.commit_writes(
            vec![Write::set(docname("/todos/3"), [("t", Value::from("c"))])],
            &Caller::Service,
        )
        .unwrap();
        rtc.tick();
        alice.sync().unwrap();
        assert_eq!(
            delivered(&alice, l),
            [(realtime::ChangeKind::Added, "3".into())]
        );
    }

    #[test]
    fn overload_reset_backs_off_then_resubscribes_once() {
        let (db, rtc) = setup();
        let clock = db.spanner().truetime().clock().clone();
        let alice = client(&db, &rtc);
        let bob = client(&db, &rtc);
        bob.set("/todos/1", [("t", Value::from("a"))]).unwrap();
        let l = alice.listen(Query::parse("/todos").unwrap()).unwrap();
        alice.take_snapshots(l);

        // Alice stops syncing with a delta queued: past the stall deadline
        // the cache sheds her listener and drops the delta.
        bob.set("/todos/2", [("t", Value::from("b"))]).unwrap();
        rtc.tick();
        clock.advance(RealtimeOptions::default().fanout.stall_deadline + Duration::from_secs(1));
        rtc.tick();
        alice.sync().unwrap();
        assert_eq!(alice.overload_resets(), 1);
        assert_eq!(rtc.stats().resets_overload, 1);

        // Backing off: no re-subscription for the back-off number of syncs.
        for i in 0..realtime::OVERLOAD_RESUBSCRIBE_DELAY {
            alice.sync().unwrap();
            assert_eq!(
                rtc.stats().active_queries,
                0,
                "re-subscribed during back-off sync {i}"
            );
        }
        // The next sync re-subscribes, once, and recovers the dropped delta
        // without re-announcing what was delivered before the shed.
        alice.sync().unwrap();
        assert_eq!(rtc.stats().active_queries, 1);
        assert_eq!(
            delivered(&alice, l),
            [(realtime::ChangeKind::Added, "2".into())]
        );
        for _ in 0..3 {
            alice.sync().unwrap();
        }
        assert_eq!(rtc.stats().active_queries, 1, "re-subscribed exactly once");
        assert!(delivered(&alice, l).is_empty());
    }

    /// Installs a one-rule chaos plan in the world of `db`.
    fn chaos(db: &FirestoreDatabase, rule: simkit::fault::FaultRule) {
        use simkit::fault::{FaultInjector, FaultPlan};
        let clock = db.spanner().truetime().clock().clone();
        let plan = FaultPlan::new(21).rule(rule);
        db.spanner()
            .env()
            .set_chaos(Some(FaultInjector::new(clock, plan)));
    }

    fn put(db: &FirestoreDatabase, path: &str, v: i64) {
        db.commit_writes(
            vec![Write::set(docname(path), [("v", Value::Int(v))])],
            &Caller::Service,
        )
        .unwrap();
    }

    #[test]
    fn lost_stream_polls_each_change_once_then_resubscribes() {
        use realtime::ChangeKind::{Added, Modified};
        use simkit::fault::{FaultKind, FaultRule};
        let (db, rtc) = setup();
        let clock = db.spanner().truetime().clock().clone();
        let alice = client(&db, &rtc);
        put(&db, "/scores/a", 1);
        let l = alice.listen(Query::parse("/scores").unwrap()).unwrap();
        alice.take_snapshots(l);

        // The link is down for the next 2 simulated seconds. What the
        // stream carried is lost with it; the poll delivers it once.
        let start = clock.now();
        let end = start + Duration::from_secs(2);
        chaos(
            &db,
            FaultRule::scheduled(FaultKind::ListenStreamLost, start, end),
        );
        put(&db, "/scores/b", 2);
        put(&db, "/scores/a", 3);
        rtc.tick();
        alice.sync().unwrap();
        assert_eq!(
            rtc.stats().active_queries,
            0,
            "the lost link forces polling"
        );
        let mut got = delivered(&alice, l);
        got.sort_by(|a, b| a.1.cmp(&b.1));
        assert_eq!(got, [(Modified, "a".into()), (Added, "b".into())]);

        // Still down: the next poll delivers the next write, once.
        put(&db, "/scores/c", 4);
        rtc.tick();
        alice.sync().unwrap();
        assert_eq!(delivered(&alice, l), [(Added, "c".into())]);
        assert_eq!(rtc.stats().active_queries, 0);

        // The link is back: the sync re-subscribes, and neither it nor the
        // cache's initial snapshot re-announces anything.
        clock.advance(Duration::from_secs(3));
        alice.sync().unwrap();
        assert_eq!(rtc.stats().active_queries, 1, "re-subscribed");
        put(&db, "/scores/d", 5);
        rtc.tick();
        alice.sync().unwrap();
        assert_eq!(delivered(&alice, l), [(Added, "d".into())]);
        assert_eq!(rtc.stats().active_queries, 1, "re-subscribed once");
    }

    #[test]
    fn lost_stream_polls_only_the_limit_window() {
        use simkit::fault::{FaultKind, FaultRule};
        let (db, rtc) = setup();
        let clock = db.spanner().truetime().clock().clone();
        let alice = client(&db, &rtc);
        for i in 0..5 {
            put(&db, &format!("/scores/p{i}"), i);
        }
        let l = alice
            .listen(Query::parse("/scores").unwrap().limit(2))
            .unwrap();
        assert_eq!(
            alice.take_snapshots(l)[0].changes.len(),
            2,
            "window limits the snapshot"
        );

        let start = clock.now();
        let end = start + Duration::from_secs(60);
        chaos(
            &db,
            FaultRule::scheduled(FaultKind::ListenStreamLost, start, end),
        );
        // A write beyond the window must not surface in a poll.
        put(&db, "/scores/z", 99);
        alice.sync().unwrap();
        assert_eq!(rtc.stats().active_queries, 0, "polling");
        assert!(
            alice.take_snapshots(l).is_empty(),
            "a write outside the limit window is invisible"
        );
    }

    #[test]
    fn failed_reseed_stays_pending_and_blocks_neither_listeners_nor_flush() {
        use simkit::fault::{FaultKind, FaultRule};
        let (db, rtc) = setup();
        let clock = db.spanner().truetime().clock().clone();
        let mut cache = LocalStore::new();
        cache.enqueue(Write::set(
            docname("/todos/1"),
            [("t", Value::from("queued"))],
        ));
        let alice = FirestoreClient::connect_with_cache(
            db.clone(),
            rtc.clone(),
            ClientOptions {
                auth: Some(AuthContext::uid("alice")),
            },
            cache,
        );
        let q = Query::parse("/todos").unwrap();
        let ls = [alice.listen(q.clone()).unwrap(), alice.listen(q).unwrap()];
        assert_eq!(alice.pending_writes(), 1, "queued until the first sync");

        // An unknown-outcome commit fault-resets both listeners.
        db.spanner()
            .inject_commit_failure(spanner::SpannerError::UnknownOutcome);
        let x = Write::set(docname("/todos/x"), [("t", Value::from("x"))]);
        assert!(db.commit_writes(vec![x], &Caller::Service).is_err());
        rtc.tick();

        // Every tablet is down for the next millisecond: both re-seeds
        // fail, and so does the first flush attempt, whose back-off
        // outlasts the outage.
        let start = clock.now();
        let end = start + Duration::from_millis(1);
        chaos(
            &db,
            FaultRule::scheduled(FaultKind::TabletUnavailable, start, end),
        );
        alice.sync().unwrap();
        assert_eq!(rtc.stats().resets_fault, 2);
        assert_eq!(
            alice.pending_writes(),
            0,
            "the failed re-seeds skip no flush"
        );
        assert_eq!(rtc.stats().active_queries, 0, "both re-seeds failed");

        db.spanner().env().set_chaos(None);
        for _ in 0..3 {
            rtc.tick();
            alice.sync().unwrap();
        }
        assert_eq!(rtc.stats().active_queries, 2, "both re-seeded");
        for l in ls {
            alice.take_snapshots(l);
        }
        put(&db, "/todos/3", 3);
        rtc.tick();
        alice.sync().unwrap();
        for l in ls {
            assert_eq!(
                delivered(&alice, l),
                [(realtime::ChangeKind::Added, "3".into())]
            );
        }
    }

    #[test]
    fn reconnect_whose_reseed_fails_resubscribes_on_a_later_sync() {
        use simkit::fault::{FaultKind, FaultRule};
        let (db, rtc) = setup();
        let alice = client(&db, &rtc);
        let q = Query::parse("/todos").unwrap();
        let ls = [alice.listen(q.clone()).unwrap(), alice.listen(q).unwrap()];
        alice.disconnect();

        chaos(
            &db,
            FaultRule::probabilistic(FaultKind::TabletUnavailable, 1.0),
        );
        alice.reconnect().unwrap();
        assert_eq!(rtc.stats().active_queries, 0, "every re-seed failed");

        db.spanner().env().set_chaos(None);
        alice.sync().unwrap();
        assert_eq!(rtc.stats().active_queries, 2, "both re-seeded");
        put(&db, "/todos/3", 3);
        rtc.tick();
        alice.sync().unwrap();
        for l in ls {
            assert_eq!(
                delivered(&alice, l),
                [(realtime::ChangeKind::Added, "3".into())]
            );
        }
    }

    #[test]
    fn occ_transaction_retries_on_conflict() {
        let (db, rtc) = setup();
        let c = client(&db, &rtc);
        c.set("/counters/hits", [("n", Value::Int(0))]).unwrap();
        let db2 = db.clone();
        let mut attempt = 0;
        c.run_transaction(5, |txn| {
            attempt += 1;
            let doc = txn.get("/counters/hits")?.unwrap();
            let n = match doc.fields["n"] {
                Value::Int(n) => n,
                _ => unreachable!(),
            };
            if attempt == 1 {
                // A concurrent writer bumps the counter between our read
                // and our commit: the freshness check must fail.
                db2.commit_writes(
                    vec![Write::set(
                        docname("/counters/hits"),
                        [("n", Value::Int(100))],
                    )],
                    &Caller::Service,
                )
                .unwrap();
            }
            txn.set("/counters/hits", [("n", Value::Int(n + 1))])?;
            Ok(())
        })
        .unwrap();
        assert!(attempt >= 2, "first attempt must have failed freshness");
        let final_doc = c.get("/counters/hits").unwrap().unwrap();
        assert_eq!(final_doc.fields["n"], Value::Int(101));
    }

    #[test]
    fn occ_readonly_validation() {
        let (db, rtc) = setup();
        let c = client(&db, &rtc);
        c.set("/cfg/a", [("v", Value::Int(1))]).unwrap();
        // Transaction reads /cfg/a, writes /cfg/b. A concurrent change to
        // /cfg/a between read and commit must abort the first attempt.
        let db2 = db.clone();
        let mut attempt = 0;
        c.run_transaction(5, |txn| {
            attempt += 1;
            let a = txn.get("/cfg/a")?.unwrap();
            if attempt == 1 {
                db2.commit_writes(
                    vec![Write::set(docname("/cfg/a"), [("v", Value::Int(9))])],
                    &Caller::Service,
                )
                .unwrap();
            }
            txn.set("/cfg/b", [("copy", a.fields["v"].clone())])?;
            Ok(())
        })
        .unwrap();
        assert!(attempt >= 2);
        // The second attempt read v=9.
        let b = c.get("/cfg/b").unwrap().unwrap();
        assert_eq!(b.fields["copy"], Value::Int(9));
    }

    #[test]
    fn rejected_write_rolls_back() {
        let (db, rtc) = setup();
        // Rules: only docs with owner == uid can be written.
        db.set_rules(
            r#"
            service cloud.firestore {
              match /databases/{db}/documents {
                match /docs/{id} {
                  allow read;
                  allow write: if request.resource.data.owner == request.auth.uid;
                }
              }
            }
            "#,
        )
        .unwrap();
        let c = client(&db, &rtc);
        c.set("/docs/spoof", [("owner", Value::from("bob"))])
            .unwrap();
        assert_eq!(c.pending_writes(), 0);
        let errors = c.take_write_errors();
        assert_eq!(errors.len(), 1);
        assert!(matches!(
            &errors[0],
            ClientError::WriteRejected(FirestoreError::PermissionDenied(_))
        ));
        // The local cache rolled back.
        assert!(c.get("/docs/spoof").unwrap().is_none());
    }

    #[test]
    fn transactions_require_connectivity() {
        let (db, rtc) = setup();
        let c = client(&db, &rtc);
        c.disconnect();
        let err = c.run_transaction(3, |_txn| Ok(())).unwrap_err();
        assert_eq!(err, ClientError::Offline);
    }

    #[test]
    fn merge_latency_compensation_and_flush() {
        let (db, rtc) = setup();
        let c = client(&db, &rtc);
        c.set(
            "/profile/me",
            [("name", Value::from("Dana")), ("bio", Value::from("old"))],
        )
        .unwrap();
        c.disconnect();
        c.merge("/profile/me", [("bio", Value::from("new"))])
            .unwrap();
        // The merged local view keeps the unlisted field.
        let local = c.get("/profile/me").unwrap().unwrap();
        assert_eq!(local.fields["name"], Value::from("Dana"));
        assert_eq!(local.fields["bio"], Value::from("new"));
        c.reconnect().unwrap();
        let on_server = db
            .get_document(
                &docname("/profile/me"),
                Consistency::Strong,
                &Caller::Service,
            )
            .unwrap()
            .unwrap();
        assert_eq!(on_server.fields["name"], Value::from("Dana"));
        assert_eq!(on_server.fields["bio"], Value::from("new"));
    }

    #[test]
    fn flush_retries_transient_errors_in_place() {
        let (db, rtc) = setup();
        let c = client(&db, &rtc);
        // Two transient failures, then success: one flush rides them out
        // with backoff instead of leaving the write queued.
        db.spanner()
            .inject_commit_failure(spanner::SpannerError::Unavailable("injected"));
        db.spanner()
            .inject_commit_failure(spanner::SpannerError::Unavailable("injected"));
        c.set("/todos/1", [("t", Value::from("x"))]).unwrap();
        assert_eq!(c.pending_writes(), 0, "retried to completion");
        assert!(c.take_write_errors().is_empty());
        assert!(db
            .get_document(&docname("/todos/1"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .is_some());
    }

    #[test]
    fn flush_honors_server_retry_after_hint() {
        use firestore_core::{GatedOp, RequestClass, TenantGate};
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// A gate that throttles the first `reject` commits with a large
        /// `retry_after`, then admits everything.
        struct ThrottleFirst {
            remaining: AtomicUsize,
            retry_after: simkit::Duration,
        }
        impl TenantGate for ThrottleFirst {
            fn check(&self, op: GatedOp, _class: RequestClass) -> firestore_core::FirestoreResult<()> {
                if op == GatedOp::Commit
                    && self
                        .remaining
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_ok()
                {
                    return Err(FirestoreError::ResourceExhausted {
                        message: "test throttle".into(),
                        retry_after: self.retry_after,
                    });
                }
                Ok(())
            }
        }

        let (db, rtc) = setup();
        let c = client(&db, &rtc);
        let clock = db.spanner().truetime().clock().clone();
        let retry_after = simkit::Duration::from_secs(2);
        db.set_gate(Some(std::sync::Arc::new(ThrottleFirst {
            remaining: AtomicUsize::new(2),
            retry_after,
        })));
        let before = clock.now();
        c.set("/todos/1", [("t", Value::from("x"))]).unwrap();
        // Two throttles were ridden out: the write landed exactly once and
        // each retry waited at least the server's hint.
        assert_eq!(c.pending_writes(), 0, "retried through the throttle");
        assert!(c.take_write_errors().is_empty());
        let waited = clock.now().saturating_sub(before);
        assert!(
            waited >= retry_after + retry_after,
            "each of 2 throttled attempts must wait >= the 2s hint; waited {waited}"
        );
        assert!(db
            .get_document(&docname("/todos/1"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .is_some());
    }

    #[test]
    fn retry_budget_prevents_storms() {
        use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};

        let (db, rtc) = setup();
        let c = client(&db, &rtc);
        let clock = db.spanner().truetime().clock().clone();
        // Every commit fails: the budget must drain and leave the write
        // queued rather than retrying forever.
        let plan = FaultPlan::new(11).rule(FaultRule::probabilistic(
            FaultKind::TabletUnavailable,
            1.0,
        ));
        let injector = FaultInjector::new(clock, plan);
        db.spanner().env().set_chaos(Some(injector.clone()));
        c.set("/todos/1", [("t", Value::from("x"))]).unwrap();
        assert_eq!(c.pending_writes(), 1, "write stays queued");
        assert!(c.take_write_errors().is_empty(), "transient, not rejected");
        let attempts = injector.stats().injected;
        assert!(
            attempts < 20,
            "budget bounds the attempt count, got {attempts}"
        );
        // The outage ends: the next sync flushes the queue.
        db.spanner().env().set_chaos(None);
        c.sync().unwrap();
        assert_eq!(c.pending_writes(), 0);
    }

    #[test]
    fn flush_retry_across_ambiguous_crash_does_not_double_apply() {
        use simkit::{CrashPoints, SimDisk};

        let (db, rtc) = setup();
        let sp = db.spanner().clone();
        sp.attach_durability(SimDisk::new());
        let cp = CrashPoints::new();
        sp.env().set_crash_points(Some(cp.clone()));
        // Crash inside the ambiguous window: the commit (document + dedup
        // ledger row) is durably logged but never acknowledged.
        cp.arm("commit-after-outcome", 0);

        let a = client(&db, &rtc);
        a.set("/doc/x", [("v", Value::from("from-a"))]).unwrap();
        assert_eq!(
            a.pending_writes(),
            1,
            "ambiguous ack leaves the write queued"
        );
        assert!(a.take_write_errors().is_empty(), "not a rejection");

        let report = sp.recover();
        assert!(report.replayed_txns >= 1, "the logged commit replays");
        // A later writer updates the document after recovery.
        db.commit_writes(
            vec![Write::set(docname("/doc/x"), [("v", Value::from("from-b"))])],
            &Caller::Service,
        )
        .unwrap();

        // The retried flush hits the dedup ledger and acks without
        // re-applying — the later write survives.
        a.sync().unwrap();
        assert_eq!(a.pending_writes(), 0);
        assert!(a.take_write_errors().is_empty());
        let doc = db
            .get_document(&docname("/doc/x"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .unwrap();
        assert_eq!(
            doc.fields["v"],
            Value::from("from-b"),
            "retry must not clobber the post-recovery write"
        );
    }

    #[test]
    fn cache_persistence_warm_start() {
        let (db, rtc) = setup();
        let c = client(&db, &rtc);
        c.set("/todos/1", [("t", Value::from("x"))]).unwrap();
        c.get("/todos/1").unwrap();
        c.disconnect();
        c.set("/todos/queued", [("t", Value::from("q"))]).unwrap();
        let blob = c.persist_cache();

        // A fresh client restores the cache: the cached doc is readable
        // offline and the queued write survives.
        let c2 = FirestoreClient::connect_with_cache(
            db.clone(),
            rtc.clone(),
            ClientOptions {
                auth: Some(AuthContext::uid("alice")),
            },
            LocalStore::restore(&blob).unwrap(),
        );
        c2.disconnect();
        assert!(c2.get("/todos/1").unwrap().is_some());
        assert_eq!(c2.pending_writes(), 1);
        c2.reconnect().unwrap();
        assert!(db
            .get_document(
                &docname("/todos/queued"),
                Consistency::Strong,
                &Caller::Service
            )
            .unwrap()
            .is_some());
    }
}
