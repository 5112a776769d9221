//! The Real-time Cache state machine: Changelog + Query Matcher task pairs
//! and Frontend sessions (paper §IV-D4, Fig 5).
//!
//! The request/response flow mirrors the paper:
//!
//! 1. a client opens a [`Connection`] (the long-lived Frontend connection),
//! 2. the caller runs the query on the Backend and registers it with the
//!    initial snapshot and its timestamp (the query's
//!    *max-commit-version*) — one handshake, [`ListenSnapshot`],
//! 3. the connection subscribes to every Changelog/Matcher task pair whose
//!    document-name ranges cover the query's result set,
//! 4. the write path's Prepare/Accept two-phase commit feeds committed
//!    mutations (in timestamp order) and heartbeats into the tasks,
//! 5. the Frontend session emits a new incremental snapshot for a query
//!    only when every subscribed range has reached a common timestamp, and
//!    all queries on a connection advance together.

use crate::fanout::{
    DeltaBuffer, FanoutMeter, FanoutOptions, OutboundQueue, QueueGauge, QueuePressure, ResetCause,
    BUFFERED_MAX_CHANGES, CHANGELOG_FLUSH_CHANGES, QUEUE_MAX_BYTES, QUEUE_MAX_EVENTS,
};
use crate::range::RangeMap;
use crate::view::QueryView;
pub use crate::view::{ChangeKind, DocChangeEvent};
use firestore_core::executor::collection_range;
use firestore_core::observer::{
    CommitObserver, CommitOutcome, DocumentChange, PrepareToken, PrepareUnavailable,
};
use firestore_core::checker::doc_digest;
use firestore_core::matchtree::MatcherTree;
use firestore_core::{Caller, Consistency, Document, FirestoreDatabase, FirestoreResult, Query};
use parking_lot::Mutex;
use simkit::fault::FaultKind;
use simkit::history::HistoryEvent;
use simkit::{
    prof, CounterHandle, Duration, Obs, SimEnv, TestMutation, Timestamp, TrueTime, World,
};
use spanner::database::DirectoryId;
use spanner::{Key, SpannerDatabase};
use std::collections::HashMap;
use std::sync::Arc;

/// A client connection id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ConnectionId(pub u64);

/// A registered real-time query id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// An event delivered to a client connection.
#[derive(Clone, Debug)]
pub enum ListenEvent {
    /// A consistent incremental snapshot: the deltas from the previous
    /// snapshot, at timestamp `at`.
    Snapshot {
        /// The query this snapshot belongs to.
        query: QueryId,
        /// The consistent timestamp.
        at: Timestamp,
        /// Visible deltas (non-empty except for the initial snapshot).
        changes: Vec<DocChangeEvent>,
        /// Whether this is the initial snapshot after `listen`.
        is_initial: bool,
    },
    /// The query went out of sync and must be recovered: the client
    /// re-runs the query and listens again. `cause` says why — `Fault` is
    /// the paper's involuntary path (unknown write outcome, expired
    /// Prepare, task restart); `Overload` is the voluntary path (the
    /// listener exceeded a queue/buffer bound or stalled past its drain
    /// deadline and its queued deltas were dropped).
    Reset {
        /// The invalidated query.
        query: QueryId,
        /// Why the reset fired.
        cause: ResetCause,
    },
}

/// Configuration of the cache.
#[derive(Clone, Debug)]
pub struct RealtimeOptions {
    /// Number of paired Changelog/Query Matcher tasks.
    pub tasks: usize,
    /// Extra wait beyond a Prepare's max timestamp before the Changelog
    /// gives up on its Accept and marks the range out-of-sync ("the maximum
    /// timestamp (plus a small margin) sets how long the Changelog will
    /// wait", §IV-D4).
    pub accept_margin: Duration,
    /// Overload-safety knobs: stall deadline and flush cadence (the queue
    /// and buffer bounds are the constants in [`crate::fanout`]).
    pub fanout: FanoutOptions,
}

impl Default for RealtimeOptions {
    fn default() -> Self {
        RealtimeOptions {
            tasks: 4,
            accept_margin: Duration::from_secs(5),
            fanout: FanoutOptions::default(),
        }
    }
}

/// Aggregate statistics (observability + benchmark instrumentation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RealtimeStats {
    /// Prepare RPCs processed.
    pub prepares: u64,
    /// Accept RPCs processed.
    pub accepts: u64,
    /// Document-change events delivered to clients.
    pub notifications: u64,
    /// Snapshot events emitted.
    pub snapshots: u64,
    /// Query resets (fault + overload).
    pub resets: u64,
    /// Resets on the involuntary fault path (§IV-D4 out-of-sync).
    pub resets_fault: u64,
    /// Voluntary overload resets (queue/buffer bound, stall deadline).
    pub resets_overload: u64,
    /// Buffered changes absorbed by per-flush coalescing (a hot document's
    /// superseded versions that were never materialized).
    pub coalesced: u64,
    /// Outbound events dropped by overload resets.
    pub dropped_events: u64,
    /// Changelog flushes routed through the matcher.
    pub flushes: u64,
    /// Currently registered real-time queries.
    pub active_queries: usize,
    /// Resident outbound-queue bytes across all connections (gauge,
    /// computed at [`RealtimeCache::stats`] time).
    pub queued_bytes: usize,
    /// Resident outbound-queue events across all connections (gauge).
    pub queued_events: usize,
}

struct Pending {
    token: u64,
    min_ts: Timestamp,
    max_ts: Timestamp,
    /// Collection-bucket keys (`dir.key(parent.encode_prefix())`) of the
    /// prepared documents — the reset path's inverse-lookup handles. The
    /// matcher routes changes bucket-exactly, so the queries registered in
    /// these buckets are precisely the ones that could have observed the
    /// writes.
    buckets: Vec<Vec<u8>>,
}

#[derive(Default)]
struct TaskState {
    pending: Vec<Pending>,
    watermark: Timestamp,
    /// Committed changes accepted but not yet routed through the matcher
    /// (batched changelog application; empty in eager mode). The task's
    /// watermark cannot pass an unrouted entry.
    backlog: Vec<(DirectoryId, Timestamp, Arc<DocumentChange>)>,
}

struct QueryState {
    /// Directory of the database the query listens on (stamped on the
    /// oracle events this listener records).
    dir: DirectoryId,
    sources: Vec<usize>,
    /// Updates at or below this timestamp are already reflected.
    resume: Timestamp,
    view: QueryView,
    /// Committed-but-not-yet-consistent updates, shared-payload and
    /// coalesced per document at flush time.
    buffered: DeltaBuffer,
}

struct ConnState {
    queries: HashMap<QueryId, QueryState>,
    out: OutboundQueue<ListenEvent>,
}

impl ConnState {
    fn new(now: Timestamp) -> ConnState {
        ConnState {
            queries: HashMap::new(),
            out: OutboundQueue::new(QUEUE_MAX_EVENTS, QUEUE_MAX_BYTES, now),
        }
    }
}

impl QueryState {
    /// A snapshot of this query's view, on its way to connection `conn`;
    /// the view is digested for the oracle only when `record` is set.
    fn emission(
        &self,
        conn: ConnectionId,
        query: QueryId,
        at: Timestamp,
        changes: Vec<DocChangeEvent>,
        is_initial: bool,
        record: bool,
    ) -> Emission {
        Emission {
            conn,
            query,
            dir: self.dir.prefix(),
            at,
            changes,
            is_initial,
            visible: if record {
                RealtimeCache::visible_digests(&self.view)
            } else {
                Vec::new()
            },
        }
    }
}

/// Approximate wire cost of one outbound event, for queue byte-accounting.
fn event_cost(event: &ListenEvent) -> usize {
    match event {
        ListenEvent::Snapshot { changes, .. } => {
            32 + changes
                .iter()
                .map(|c| 24 + 24 * c.doc.fields.len())
                .sum::<usize>()
        }
        ListenEvent::Reset { .. } => 40,
    }
}

struct RtState {
    ranges: RangeMap,
    tasks: Vec<TaskState>,
    /// The Query Matcher decision tree: registered queries indexed by
    /// collection prefix, encoded equality value, and encoded range
    /// interval, sharded by the same key ranges as the tasks. Matching a
    /// committed change is a tree descent instead of a scan over every
    /// subscription.
    matcher: MatcherTree<(ConnectionId, QueryId)>,
    conns: HashMap<ConnectionId, ConnState>,
    next_conn: u64,
    next_query: u64,
    next_token: u64,
    stats: RealtimeStats,
    obs: Option<Arc<Instruments>>,
    /// The snapshot held back under [`TestMutation::ReorderDelivery`].
    held_back: Option<Emission>,
    /// Bounded-cardinality per-connection queue metrics (top-K + other).
    meter: FanoutMeter,
    /// When the changelog backlog was last flushed through the matcher.
    last_flush: Timestamp,
}

/// The attached observability handle plus the Prepare/Accept and fanout
/// series, resolved once when the handle is attached.
struct Instruments {
    obs: Obs,
    prepares: CounterHandle,
    prepare_unavailable: CounterHandle,
    /// `rtc.accepts` by outcome: committed, failed, unknown.
    accepts: [CounterHandle; 3],
    notifications: CounterHandle,
    coalesced: CounterHandle,
    /// `rtc.fanout.routed` per Changelog task (shard).
    routed: Vec<CounterHandle>,
}

impl Instruments {
    fn new(obs: Obs, tasks: usize) -> Instruments {
        let m = &obs.metrics;
        Instruments {
            prepares: m.counter("rtc.prepares", &[]),
            prepare_unavailable: m.counter("rtc.prepare.unavailable", &[]),
            accepts: ["committed", "failed", "unknown"]
                .map(|outcome| m.counter("rtc.accepts", &[("outcome", outcome)])),
            notifications: m.counter("rtc.fanout.notifications", &[]),
            coalesced: m.counter("rtc.fanout.coalesced", &[]),
            routed: (0..tasks)
                .map(|ti| m.counter("rtc.fanout.routed", &[("shard", &ti.to_string())]))
                .collect(),
            obs,
        }
    }
}

/// One snapshot on its way to a listener: what the `Snapshot` event will
/// carry, the listening query's directory prefix, and the visible
/// per-document digests the oracle records with it (empty while no
/// recorder is attached).
struct Emission {
    conn: ConnectionId,
    query: QueryId,
    dir: [u8; 4],
    at: Timestamp,
    changes: Vec<DocChangeEvent>,
    is_initial: bool,
    visible: Vec<(String, u64)>,
}

/// The Real-time Cache. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct RealtimeCache {
    truetime: TrueTime,
    /// The world of the Spanner database the cache serves.
    env: SimEnv,
    opts: RealtimeOptions,
    state: Arc<Mutex<RtState>>,
}

impl RealtimeCache {
    /// Create a cache in front of `spanner`, sharing its TrueTime source
    /// and its simulated world ([`SpannerDatabase::env`]).
    pub fn new(spanner: &SpannerDatabase, opts: RealtimeOptions) -> RealtimeCache {
        let ranges = if opts.tasks <= 1 {
            RangeMap::single()
        } else {
            RangeMap::uniform(opts.tasks)
        };
        let tasks: Vec<TaskState> = (0..ranges.tasks()).map(|_| TaskState::default()).collect();
        let matcher = MatcherTree::new(tasks.len());
        RealtimeCache {
            truetime: spanner.truetime().clone(),
            env: spanner.env().clone(),
            opts,
            state: Arc::new(Mutex::new(RtState {
                ranges,
                tasks,
                matcher,
                conns: HashMap::new(),
                next_conn: 1,
                next_query: 1,
                next_token: 1,
                stats: RealtimeStats::default(),
                obs: None,
                held_back: None,
                meter: FanoutMeter::new(),
                last_flush: Timestamp::ZERO,
            })),
        }
    }

    /// Attach (or clear) an observability handle. Prepare/Accept spans and
    /// matcher-fanout metrics are recorded through it.
    pub fn set_obs(&self, obs: Option<Obs>) {
        let mut st = self.state.lock();
        let tasks = st.tasks.len();
        st.obs = obs.map(|o| Arc::new(Instruments::new(o, tasks)));
    }

    /// The attached observability handle, if any.
    pub fn obs(&self) -> Option<Obs> {
        self.state.lock().obs.as_ref().map(|i| i.obs.clone())
    }

    /// The `(name, digest)` list the oracle compares against the model:
    /// exactly what the listener has seen after this snapshot.
    fn visible_digests(view: &QueryView) -> Vec<(String, u64)> {
        view.last_visible()
            .iter()
            .map(|d| (d.name.to_string(), doc_digest(d)))
            .collect()
    }

    /// Live Query Matcher registrations (one per active query).
    pub fn matcher_registrations(&self) -> usize {
        self.state.lock().matcher.registrations()
    }

    /// Live Query Matcher shapes across all shards. Lower than the
    /// registration count when listeners multiplex onto shared shapes.
    pub fn matcher_shape_count(&self) -> usize {
        self.state.lock().matcher.shape_count()
    }

    /// Structural consistency check of the Query Matcher tree against the
    /// registration table (test/debug hook).
    pub fn matcher_validate(&self) -> Result<(), String> {
        self.state.lock().matcher.debug_validate()
    }

    /// EXPLAIN for the real-time matching path: render the Query Matcher
    /// descent the given change would take, without routing it.
    pub fn explain_change(&self, dir: DirectoryId, change: &DocumentChange) -> String {
        let st = self.state.lock();
        let key = dir.key(&change.name.encode());
        let owner = st.ranges.owner(&key);
        let trace = st.matcher.explain_change(owner, dir, change);
        firestore_core::explain::render_matcher_descent(&trace)
    }

    /// Current statistics.
    pub fn stats(&self) -> RealtimeStats {
        let st = self.state.lock();
        let mut s = st.stats;
        s.active_queries = st.conns.values().map(|c| c.queries.len()).sum();
        s.queued_bytes = st.conns.values().map(|c| c.out.bytes()).sum();
        s.queued_events = st.conns.values().map(|c| c.out.len()).sum();
        s
    }

    /// How loaded the fanout pipeline is, in `[0, 1]`: the fraction of
    /// connections at or above their backpressure watermark. The serving
    /// layer feeds this into the tenant control plane so listener
    /// admission sheds before the cache has to.
    pub fn fanout_pressure(&self) -> f64 {
        let st = self.state.lock();
        if st.conns.is_empty() {
            return 0.0;
        }
        let hot = st
            .conns
            .values()
            .filter(|c| c.out.pressure() != QueuePressure::Normal)
            .count();
        hot as f64 / st.conns.len() as f64
    }

    /// Open a client connection (to a Frontend task).
    pub fn connect(&self) -> Connection {
        let now = self.truetime.clock().now();
        let mut st = self.state.lock();
        let id = ConnectionId(st.next_conn);
        st.next_conn += 1;
        st.conns.insert(id, ConnState::new(now));
        Connection {
            cache: self.clone(),
            id,
        }
    }

    /// A per-database [`CommitObserver`] adapter for the write path.
    pub fn observer_for(&self, dir: DirectoryId) -> Arc<DatabaseObserver> {
        Arc::new(DatabaseObserver {
            cache: self.clone(),
            dir,
        })
    }

    /// Periodic maintenance: expire timed-out Prepares (→ out-of-sync
    /// resets) and emit heartbeats so idle ranges advance ("Changelog tasks
    /// generate a heartbeat every few milliseconds for every idle key
    /// range", §IV-D4). Call this on a timer (the serving layer does).
    pub fn tick(&self) {
        let now = self.truetime.clock().now();
        let world = self.env.world();
        let mut st = self.state.lock();
        // Expire pending prepares past max + margin: unknown outcome.
        let mut expired: Vec<Vec<Vec<u8>>> = Vec::new();
        for task in st.tasks.iter_mut() {
            let margin = self.opts.accept_margin;
            let mut expired_buckets = Vec::new();
            task.pending.retain(|p| {
                if p.max_ts.saturating_add(margin) < now {
                    expired_buckets.extend(p.buckets.iter().cloned());
                    false
                } else {
                    true
                }
            });
            if !expired_buckets.is_empty() {
                expired.push(expired_buckets);
            }
        }
        if !expired.is_empty() {
            if let Some(o) = &st.obs {
                o.obs.metrics
                    .incr("rtc.resets", &[("cause", "prepare-expired")], expired.len() as u64);
            }
        }
        for buckets in expired {
            Self::reset_matching(&mut st, &buckets, "prepare-expired", now, &world);
        }
        // Flush the batched changelog when its interval elapses (eager mode
        // keeps the backlog empty, so this is a no-op there).
        let interval = self.opts.fanout.flush_interval;
        let backlogged: usize = st.tasks.iter().map(|t| t.backlog.len()).sum();
        if backlogged > 0
            && (interval == Duration::ZERO
                || now.saturating_sub(st.last_flush) >= interval
                || backlogged >= CHANGELOG_FLUSH_CHANGES)
        {
            self.flush_backlogs(&mut st, now, &world);
        }
        self.enforce_overload(&mut st, now, &world);
        self.advance_all(&mut st, &world);
        // Bounded per-connection queue gauges: top-K + "other".
        let st = &mut *st;
        if let Some(o) = &st.obs {
            let meter = &mut st.meter;
            meter.export_gauges(
                &o.obs.metrics,
                st.conns
                    .iter()
                    .map(|(id, c)| (id.0, &c.out as &dyn QueueGauge)),
            );
        }
    }

    /// Rebuild the Query Matcher and every registered view after a cache
    /// restart. All volatile write-path state (pending Prepares, task
    /// watermarks, buffered changes) died with the process; each query's
    /// result set is re-read from the authoritative store via `requery` at
    /// `snapshot_ts` — a strong read timestamp taken *after* the storage
    /// layer recovered. Listeners receive exactly the deltas between what
    /// they last saw and the authoritative snapshot, so resumed listeners
    /// converge with no missed or duplicated events. A query whose requery
    /// fails is reset instead (the client re-runs and re-listens).
    ///
    /// `requery` receives the registered (windowless-applied) query and must
    /// perform a read-only snapshot query; it must not write through the
    /// observer (the cache lock is held).
    ///
    /// Returns the number of queries caught up.
    pub fn restart<E>(
        &self,
        mut requery: impl FnMut(&Query) -> Result<Vec<Document>, E>,
        snapshot_ts: Timestamp,
    ) -> usize {
        let now = self.truetime.clock().now();
        let world = self.env.world();
        let mut st = self.state.lock();
        let st = &mut *st;
        for task in st.tasks.iter_mut() {
            task.pending.clear();
            // Unrouted backlog died with the process: the requery below
            // re-reads everything authoritatively at `snapshot_ts`.
            task.backlog.clear();
            task.watermark = task.watermark.max(snapshot_ts);
        }
        let record = world.history().is_some();
        let mut targets: Vec<(ConnectionId, QueryId)> = st
            .conns
            .iter()
            .flat_map(|(cid, conn)| conn.queries.keys().map(move |qid| (*cid, *qid)))
            .collect();
        targets.sort_unstable();
        let mut caught_up = 0usize;
        for (conn_id, qid) in targets {
            let Some(qs) = st
                .conns
                .get_mut(&conn_id)
                .and_then(|c| c.queries.get_mut(&qid))
            else {
                continue;
            };
            match requery(qs.view.query()) {
                Ok(docs) => {
                    let deltas = qs.view.catch_up(docs);
                    qs.buffered.clear();
                    qs.resume = snapshot_ts;
                    caught_up += 1;
                    if !deltas.is_empty() {
                        let e = qs.emission(conn_id, qid, snapshot_ts, deltas, false, record);
                        Self::deliver(st, e, now, &world);
                    }
                }
                Err(_) => {
                    let reset = Some((ResetCause::Fault, "requery"));
                    Self::end_listener(st, conn_id, qid, reset, now, &world)
                }
            }
        }
        // Rebuild the Query Matcher tree once, from the queries that
        // survived the requery loop. A single from-scratch rebuild (rather
        // than per-query unregister/re-register against the pre-crash tree)
        // cannot leave stale shards or duplicate registrations behind.
        st.matcher.rebuild(st.conns.iter().flat_map(|(cid, conn)| {
            conn.queries.iter().map(move |(qid, qs)| {
                ((*cid, *qid), qs.sources.clone(), qs.dir, qs.view.query().clone())
            })
        }));
        caught_up
    }

    // --- write-path protocol -------------------------------------------------

    fn prepare(
        &self,
        dir: DirectoryId,
        names: &[firestore_core::DocumentName],
        max_ts: Timestamp,
    ) -> Result<(PrepareToken, Timestamp), PrepareUnavailable> {
        let world = self.env.world();
        let mut st = self.state.lock();
        let instruments = st.obs.clone();
        let span = instruments.as_ref().map(|i| i.obs.tracer.span("rtc.prepare"));
        if let Some(s) = &span {
            s.attr("names", names.len());
            s.attr("max_ts", max_ts.as_nanos());
        }
        if world.inject(FaultKind::CacheUnavailable, "rtc-prepare") {
            if let Some(i) = &instruments {
                i.prepare_unavailable.incr(1);
            }
            return Err(PrepareUnavailable);
        }
        st.stats.prepares += 1;
        if let Some(i) = &instruments {
            i.prepares.incr(1);
        }
        let token = st.next_token;
        st.next_token += 1;
        // Group by owning task; remember each document's parent-collection
        // bucket key — the handle the reset path uses for its sublinear
        // inverse lookup through the matcher tree.
        let mut by_task: HashMap<usize, Vec<Vec<u8>>> = HashMap::new();
        for n in names {
            let k: Key = dir.key(&n.encode());
            let owner = st.ranges.owner(&k);
            let bucket = dir.key(&n.parent().encode_prefix()).as_slice().to_vec();
            by_task.entry(owner).or_default().push(bucket);
        }
        let mut overall_min = Timestamp::ZERO;
        for (ti, mut buckets) in by_task {
            buckets.sort_unstable();
            buckets.dedup();
            let task = &mut st.tasks[ti];
            let min_ts = task.watermark + Duration::from_nanos(1);
            overall_min = overall_min.max(min_ts);
            task.pending.push(Pending {
                token,
                min_ts,
                max_ts,
                buckets,
            });
        }
        Ok((PrepareToken(token), overall_min))
    }

    fn accept(
        &self,
        dir: DirectoryId,
        token: PrepareToken,
        outcome: CommitOutcome,
        changes: Vec<DocumentChange>,
    ) {
        let world = self.env.world();
        let mut st = self.state.lock();
        st.stats.accepts += 1;
        let instruments = st.obs.clone();
        let span = instruments.as_ref().map(|i| i.obs.tracer.span("rtc.accept"));
        if let Some(i) = &instruments {
            let (label, n) = match &outcome {
                CommitOutcome::Committed(_) => ("committed", 0),
                CommitOutcome::Failed => ("failed", 1),
                CommitOutcome::Unknown => ("unknown", 2),
            };
            if let Some(s) = &span {
                s.attr("outcome", label);
                s.attr("changes", changes.len());
            }
            i.accepts[n].incr(1);
        }
        // Collect this token's pending buckets and drop the entries.
        let mut pending_buckets: Vec<Vec<u8>> = Vec::new();
        for task in st.tasks.iter_mut() {
            task.pending.retain(|p| {
                if p.token == token.0 {
                    pending_buckets.extend(p.buckets.iter().cloned());
                    false
                } else {
                    true
                }
            });
        }
        match outcome {
            CommitOutcome::Committed(ts) => {
                // Append to the owning Changelog task's backlog; in eager
                // mode (flush_interval == 0) route through the matcher
                // immediately, otherwise the batch flushes on the next tick
                // — one tree descent per collection per batch either way.
                let now = self.truetime.clock().now();
                for change in changes {
                    // Oracle mutation: silently drop the next N changelog
                    // entries — affected listeners never see the write (§V
                    // delivery violated).
                    if world.drop_change() {
                        continue;
                    }
                    // The change's true key: the writing database's
                    // directory plus the encoded name. Subscriptions of
                    // other directories can never contain it — tenant
                    // isolation at the matcher (the tree's collection
                    // buckets are directory-prefixed).
                    let key = dir.key(&change.name.encode());
                    let owner = st.ranges.owner(&key);
                    st.tasks[owner].backlog.push((dir, ts, Arc::new(change)));
                }
                let backlogged: usize = st.tasks.iter().map(|t| t.backlog.len()).sum();
                if self.opts.fanout.flush_interval == Duration::ZERO
                    || backlogged >= CHANGELOG_FLUSH_CHANGES
                {
                    self.flush_backlogs(&mut st, now, &world);
                }
                self.enforce_overload(&mut st, now, &world);
            }
            CommitOutcome::Failed => {
                // Dropped; nothing was committed.
            }
            CommitOutcome::Unknown => {
                // "the system cannot guarantee ordering of the updates for
                // that name range": reset every query matching the range.
                if let Some(o) = &st.obs {
                    o.obs.metrics.incr("rtc.resets", &[("cause", "unknown-outcome")], 1);
                }
                let now = self.truetime.clock().now();
                Self::reset_matching(&mut st, &pending_buckets, "unknown-outcome", now, &world);
            }
        }
        self.advance_all(&mut st, &world);
    }

    /// Route every backlogged committed change through the Query Matcher
    /// and buffer it at its subscribed listeners. Batched per task and
    /// directory: [`MatcherTree::match_batch`] memoizes the top-level tree
    /// descent per distinct collection, so a burst of writes to a hot
    /// collection costs one descent, and the shared `Arc` payload means a
    /// change fanning out to 10⁵ listeners costs 10⁵ pointers.
    fn flush_backlogs(&self, st: &mut RtState, now: Timestamp, world: &World) {
        st.last_flush = now;
        let instruments = st.obs.clone();
        let flush_span = instruments
            .as_ref()
            .map(|i| i.obs.tracer.span("rtc.fanout.flush"));
        let clock = self.truetime.clock();
        let mut flushed_changes = 0usize;
        let mut flushed_any = false;
        let mut over_buffer: Vec<(ConnectionId, QueryId)> = Vec::new();
        for ti in 0..st.tasks.len() {
            if st.tasks[ti].backlog.is_empty() {
                continue;
            }
            let backlog = std::mem::take(&mut st.tasks[ti].backlog);
            flushed_any = true;
            flushed_changes += backlog.len();
            // Group consecutive same-directory runs so each match_batch
            // call stays within one directory (commit order is preserved).
            let mut i = 0usize;
            while i < backlog.len() {
                let dir = backlog[i].0;
                let mut j = i;
                while j < backlog.len() && backlog[j].0 == dir {
                    j += 1;
                }
                let group = &backlog[i..j];
                let refs: Vec<&DocumentChange> =
                    group.iter().map(|(_, _, c)| c.as_ref()).collect();
                let token_lists = {
                    // One matcher-tree bucket descent per directory run:
                    // charge it and let the profiler see it.
                    let descent_span = instruments
                        .as_ref()
                        .map(|i| i.obs.tracer.span("rtc.matcher.descent"));
                    let lists = st.matcher.match_batch(ti, dir, &refs);
                    clock.advance(
                        prof::costs::MATCH_DESCENT_BASE
                            + prof::costs::MATCH_PER_CHANGE * group.len() as u64,
                    );
                    if let Some(s) = &descent_span {
                        s.attr("changes", group.len());
                    }
                    lists
                };
                if let Some(i) = &instruments {
                    i.routed[ti].incr(group.len() as u64);
                }
                for ((_, ts, change), tokens) in group.iter().zip(token_lists) {
                    let mut buffered_to = 0u64;
                    for (conn, qid) in tokens {
                        let Some(conn_state) = st.conns.get_mut(&conn) else {
                            continue;
                        };
                        let Some(qs) = conn_state.queries.get_mut(&qid) else {
                            continue;
                        };
                        if *ts > qs.resume {
                            qs.buffered.push(*ts, change.clone());
                            buffered_to += 1;
                            if qs.buffered.len() > BUFFERED_MAX_CHANGES {
                                over_buffer.push((conn, qid));
                            }
                        }
                    }
                    if let Some(i) = &instruments {
                        i.notifications.incr(buffered_to);
                    }
                }
                i = j;
            }
        }
        if flushed_any {
            st.stats.flushes += 1;
        }
        if let Some(s) = &flush_span {
            s.attr("changes", flushed_changes);
        }
        drop(flush_span);
        // A listener whose coalescing buffer outgrew its bound is shed —
        // backpressure parked changes here, and the bound is the second
        // resource limit after the outbound queue.
        over_buffer.sort_unstable();
        over_buffer.dedup();
        for (conn_id, qid) in over_buffer {
            let reset = Some((ResetCause::Overload, "buffer"));
            Self::end_listener(st, conn_id, qid, reset, now, world);
        }
    }

    /// Voluntary overload enforcement: shed connections whose outbound
    /// queue exceeded its hard bound or stalled past the drain deadline.
    /// The shed listener's queued deltas are dropped (the catch-up path
    /// recovers it); conforming listeners on other connections are never
    /// delayed.
    fn enforce_overload(&self, st: &mut RtState, now: Timestamp, world: &World) {
        let deadline = self.opts.fanout.stall_deadline;
        let mut shed: Vec<(ConnectionId, &'static str)> = Vec::new();
        for (conn_id, conn) in st.conns.iter() {
            if conn.queries.is_empty() {
                continue;
            }
            if conn.out.pressure() == QueuePressure::Overflow {
                shed.push((*conn_id, "queue"));
            } else if conn.out.stalled(now, deadline) {
                shed.push((*conn_id, "stall"));
            }
        }
        for (conn_id, reason) in shed {
            let mut qids: Vec<(ConnectionId, QueryId)> = Vec::new();
            if let Some(conn) = st.conns.get_mut(&conn_id) {
                // Drop the queued deltas first: the bound is hard.
                let before = conn.out.dropped();
                conn.out.clear();
                st.stats.dropped_events += conn.out.dropped() - before;
                qids.extend(conn.queries.keys().map(|q| (conn_id, *q)));
            }
            qids.sort_unstable();
            for (conn_id, qid) in qids {
                let reset = Some((ResetCause::Overload, reason));
                Self::end_listener(st, conn_id, qid, reset, now, world);
            }
        }
    }

    /// Fault-path reset (§IV-D4 out-of-sync): reset every query registered
    /// in the affected collection buckets. The inverse lookup goes through
    /// the matcher tree's buckets — work proportional to the queries
    /// watching those collections, never to total registrations — and is
    /// exact because matching is bucket-exact: a query outside the bucket
    /// can never have observed the affected documents.
    fn reset_matching(
        st: &mut RtState,
        buckets: &[Vec<u8>],
        reason: &'static str,
        now: Timestamp,
        world: &World,
    ) {
        let mut targets: Vec<(ConnectionId, QueryId)> = Vec::new();
        let mut seen: Vec<&Vec<u8>> = Vec::new();
        for b in buckets {
            if seen.contains(&b) {
                continue;
            }
            seen.push(b);
            targets.extend(st.matcher.bucket_tokens(b));
        }
        targets.sort_unstable();
        targets.dedup();
        for (conn_id, qid) in targets {
            let reset = Some((ResetCause::Fault, reason));
            Self::end_listener(st, conn_id, qid, reset, now, world);
        }
    }

    /// The one way a listener ends — an overload or fault reset, a failed
    /// catch-up requery, [`Connection::unlisten`] or [`Connection::close`]:
    /// unregister it from the matcher, drop its query state (and buffered
    /// deltas), and record the oracle's `ListenerReset` (the listener's
    /// continuity obligations end here). A `reset` (cause, reason) also
    /// queues the client-visible `Reset` notice and counts it.
    fn end_listener(
        st: &mut RtState,
        conn_id: ConnectionId,
        qid: QueryId,
        reset: Option<(ResetCause, &'static str)>,
        now: Timestamp,
        world: &World,
    ) {
        st.matcher.unregister(&(conn_id, qid));
        let Some(conn) = st.conns.get_mut(&conn_id) else {
            return;
        };
        let Some(qs) = conn.queries.remove(&qid) else {
            return;
        };
        if let Some((cause, reason)) = reset {
            let ev = ListenEvent::Reset { query: qid, cause };
            let cost = event_cost(&ev);
            conn.out.push(ev, cost, now);
            st.stats.resets += 1;
            match cause {
                ResetCause::Fault => st.stats.resets_fault += 1,
                ResetCause::Overload => st.stats.resets_overload += 1,
            }
            if let Some(o) = &st.obs {
                o.obs.metrics.incr(
                    "rtc.fanout.resets",
                    &[("cause", cause.label()), ("reason", reason)],
                    1,
                );
            }
        }
        world.record(HistoryEvent::ListenerReset {
            dir: qs.dir.prefix(),
            conn: conn_id.0,
            query: qid.0,
        });
    }

    /// The one delivery path: every snapshot a listener receives — the
    /// initial one from [`Connection::listen`], the incremental ones from
    /// `pump`, the catch-up ones from [`RealtimeCache::restart`] — is
    /// counted, recorded for the oracle, metered and queued here.
    fn deliver(st: &mut RtState, e: Emission, now: Timestamp, world: &World) {
        // Oracle mutation: hold a snapshot back and deliver it only after a
        // newer one on the same connection — §V ordered delivery violated.
        if world.mutation() == Some(TestMutation::ReorderDelivery) {
            match st.held_back.take() {
                None => {
                    st.held_back = Some(e);
                    return;
                }
                Some(held) if held.conn == e.conn => {
                    Self::emit(st, e, now, world);
                    Self::emit(st, held, now, world);
                    return;
                }
                held => st.held_back = held,
            }
        }
        Self::emit(st, e, now, world);
    }

    fn emit(st: &mut RtState, e: Emission, now: Timestamp, world: &World) {
        // The initial snapshot is the listener's starting state, not a
        // notification.
        if !e.is_initial {
            st.stats.notifications += e.changes.len() as u64;
        }
        st.stats.snapshots += 1;
        world.record(HistoryEvent::ListenerSnapshot {
            dir: e.dir,
            conn: e.conn.0,
            query: e.query.0,
            at: e.at,
            initial: e.is_initial,
            visible: e.visible,
        });
        let event = ListenEvent::Snapshot {
            query: e.query,
            at: e.at,
            changes: e.changes,
            is_initial: e.is_initial,
        };
        let cost = event_cost(&event);
        st.meter.note_queued(e.conn.0, cost);
        if let Some(conn) = st.conns.get_mut(&e.conn) {
            conn.out.push(event, cost, now);
        }
    }

    /// Recompute task watermarks and pump every connection. Watermarks are
    /// *pulled* by connections at pump time (no per-listener push state):
    /// a task's sequence is complete up to just before its earliest
    /// pending Prepare or unrouted backlog entry.
    fn advance_all(&self, st: &mut RtState, world: &World) {
        let safe_now = self.truetime.strong_read_timestamp();
        for task in st.tasks.iter_mut() {
            let pend_min = task
                .pending
                .iter()
                .map(|p| p.min_ts.0.saturating_sub(1))
                .min();
            let backlog_min = task
                .backlog
                .iter()
                .map(|(_, ts, _)| ts.0.saturating_sub(1))
                .min();
            let w = [pend_min, backlog_min]
                .into_iter()
                .flatten()
                .min()
                .map(Timestamp)
                .unwrap_or(safe_now)
                .max(task.watermark);
            task.watermark = w;
        }
        let task_watermarks: Vec<Timestamp> = st.tasks.iter().map(|t| t.watermark).collect();
        let conn_ids: Vec<ConnectionId> = st.conns.keys().copied().collect();
        for conn in conn_ids {
            self.pump(st, conn, &task_watermarks, world);
        }
    }

    /// Apply buffered updates up to the connection's consistent timestamp
    /// and emit snapshots ("queries on the same connection are only updated
    /// to a timestamp t once all queries' max-commit-version has reached at
    /// least t", §IV-D4). Under backpressure (the connection's outbound
    /// queue at or above its watermark) nothing is materialized: changes
    /// stay coalescing in the delta buffers and `resume` does not move, so
    /// a later pump picks up exactly where this one left off.
    fn pump(
        &self,
        st: &mut RtState,
        conn_id: ConnectionId,
        task_watermarks: &[Timestamp],
        world: &World,
    ) {
        let record = world.history().is_some();
        let Some(conn) = st.conns.get_mut(&conn_id) else {
            return;
        };
        if conn.queries.is_empty() {
            return;
        }
        if conn.out.pressure() != QueuePressure::Normal {
            // Backpressure: stop materializing for this connection. The
            // hard bound and the stall deadline are enforced separately.
            return;
        }
        let Some(conn_watermark) = conn
            .queries
            .values()
            .map(|qs| {
                qs.sources
                    .iter()
                    .map(|s| {
                        task_watermarks
                            .get(*s)
                            .copied()
                            .unwrap_or(Timestamp::ZERO)
                    })
                    .min()
                    .unwrap_or(Timestamp::ZERO)
            })
            .min()
        else {
            return;
        };
        let mut emitted: Vec<Emission> = Vec::new();
        let mut coalesced_total = 0u64;
        let mut walked_deltas = 0u64;
        for (qid, qs) in conn.queries.iter_mut() {
            if conn_watermark <= qs.resume {
                continue;
            }
            // Take everything consistent at the watermark, coalesced per
            // document: a hot document costs one applied change per flush.
            let (batch, coalesced) = qs.buffered.take_ready(conn_watermark);
            coalesced_total += coalesced;
            walked_deltas += batch.len() as u64 + coalesced;
            qs.resume = conn_watermark;
            if batch.is_empty() {
                continue;
            }
            let deltas = qs.view.apply_refs(batch.iter().map(|c| c.as_ref()));
            if !deltas.is_empty() {
                emitted.push(qs.emission(conn_id, *qid, conn_watermark, deltas, false, record));
            }
        }
        st.stats.coalesced += coalesced_total;
        if coalesced_total > 0 {
            if let Some(i) = &st.obs {
                i.coalesced.incr(coalesced_total);
            }
        }
        if walked_deltas > 0 {
            // The per-connection queue walk is the fanout pump's measured
            // hot spot (ROADMAP item 3); charge it per delta examined —
            // coalesced-away deltas were walked too. The span covers the
            // charge so its self-time IS the ledger entry (spans are only
            // emitted for pumps that did work, bounding trace volume at
            // 10⁵-listener populations).
            let walk_span = st
                .obs
                .as_ref()
                .map(|i| i.obs.tracer.span("rtc.fanout.queue_walk"));
            self.truetime
                .clock()
                .advance(prof::costs::QUEUE_WALK_PER_DELTA * walked_deltas);
            if let Some(s) = &walk_span {
                s.attr("deltas", walked_deltas);
                s.attr("coalesced", coalesced_total);
            }
        }
        let now = self.truetime.clock().now();
        for e in emitted {
            Self::deliver(st, e, now, world);
        }
    }
}

/// A client's long-lived connection to a Frontend task.
#[derive(Clone)]
pub struct Connection {
    cache: RealtimeCache,
    id: ConnectionId,
}

impl Connection {
    /// This connection's id.
    pub fn id(&self) -> ConnectionId {
        self.id
    }

    /// Register a real-time query — the Frontend half of the handshake;
    /// consumers go through [`ListenSnapshot::listen`], which supplies the
    /// arguments. `initial` is the snapshot the Backend returned **for the
    /// unwindowed query** (`query.without_window()`) and `snapshot_ts` its
    /// timestamp (the max-commit-version); the view applies the query's own
    /// limit/offset so that window eviction can backfill without a requery.
    /// The initial snapshot event is queued immediately.
    pub fn listen(
        &self,
        dir: DirectoryId,
        query: Query,
        initial: Vec<Document>,
        snapshot_ts: Timestamp,
    ) -> QueryId {
        let world = self.cache.env.world();
        let mut st = self.cache.state.lock();
        let qid = QueryId(st.next_query);
        st.next_query += 1;
        if !st.conns.contains_key(&self.id) {
            // The connection was closed (or lost to a restart) before the
            // listen landed: the registration is a no-op and the returned id
            // is dead — the client's poll loop observes nothing and
            // re-connects.
            return qid;
        }
        let range = collection_range(dir, &query);
        let sources = st.ranges.owners_of_range(&range);
        // Register the query shape with the Query Matcher tree in every
        // shard whose key range intersects the query's collection range.
        st.matcher.register((self.id, qid), &sources, dir, &query);
        let qs = QueryState {
            dir,
            sources,
            resume: snapshot_ts,
            view: QueryView::new(query, initial),
            buffered: DeltaBuffer::new(),
        };
        let initial = qs.view.initial_events();
        let e = qs.emission(
            self.id,
            qid,
            snapshot_ts,
            initial,
            true,
            world.history().is_some(),
        );
        let now = self.cache.truetime.clock().now();
        if let Some(conn) = st.conns.get_mut(&self.id) {
            // A listen is client activity: restart the stall clock so a
            // recovering listener is not re-shed for its older undrained
            // events.
            conn.out.touch(now);
            conn.queries.insert(qid, qs);
        }
        RealtimeCache::deliver(&mut st, e, now, &world);
        qid
    }

    /// Stop a real-time query.
    pub fn unlisten(&self, qid: QueryId) {
        let now = self.cache.truetime.clock().now();
        let world = self.cache.env.world();
        let mut st = self.cache.state.lock();
        RealtimeCache::end_listener(&mut st, self.id, qid, None, now, &world);
    }

    /// Drain queued events. A connection that leaves an event undrained
    /// for longer than the stall deadline is shed with an overload reset.
    pub fn poll(&self) -> Vec<ListenEvent> {
        let mut st = self.cache.state.lock();
        match st.conns.get_mut(&self.id) {
            Some(conn) => conn.out.drain(),
            None => Vec::new(),
        }
    }

    /// Close the connection, dropping all its queries.
    pub fn close(&self) {
        let now = self.cache.truetime.clock().now();
        let world = self.cache.env.world();
        let mut st = self.cache.state.lock();
        let Some(conn) = st.conns.get(&self.id) else {
            return;
        };
        let mut qids: Vec<QueryId> = conn.queries.keys().copied().collect();
        qids.sort();
        for qid in qids {
            RealtimeCache::end_listener(&mut st, self.id, qid, None, now, &world);
        }
        st.conns.remove(&self.id);
    }
}

/// The initial snapshot of a real-time query (§IV-D4 steps 1–2): the
/// query's *unwindowed* result set, read at one strong timestamp. It is the
/// listen handshake every consumer goes through — read it, then
/// [`ListenSnapshot::listen`] — so the snapshot the cache seeds a view with
/// is, by construction, the unwindowed query at exactly the timestamp the
/// listener resumes from.
pub struct ListenSnapshot {
    dir: DirectoryId,
    query: Query,
    at: Timestamp,
    documents: Vec<Document>,
}

impl ListenSnapshot {
    /// Read the snapshot of `query` on `db` at a fresh strong timestamp.
    pub fn read(
        db: &FirestoreDatabase,
        query: Query,
        caller: &Caller,
    ) -> FirestoreResult<ListenSnapshot> {
        Self::read_at(db, query, caller, db.strong_read_ts())
    }

    /// Read the snapshot at `at`: the requery of [`RealtimeCache::restart`]
    /// re-reads every registered listener at the restart's one timestamp.
    pub fn read_at(
        db: &FirestoreDatabase,
        query: Query,
        caller: &Caller,
        at: Timestamp,
    ) -> FirestoreResult<ListenSnapshot> {
        let documents = db
            .run_query(
                &query.without_window(),
                Consistency::AtTimestamp(at),
                caller,
            )?
            .documents;
        Ok(ListenSnapshot {
            dir: db.directory(),
            query,
            at,
            documents,
        })
    }

    /// The read timestamp (the query's max-commit-version).
    pub fn at(&self) -> Timestamp {
        self.at
    }

    /// Every document matching the query, ignoring its window.
    pub fn documents(&self) -> &[Document] {
        &self.documents
    }

    /// The documents, for a requery that only needs the result set.
    pub fn into_documents(self) -> Vec<Document> {
        self.documents
    }

    /// Register the query on `conn`, seeded with this snapshot (§IV-D4
    /// steps 3–4). The initial snapshot event is queued at once.
    pub fn listen(self, conn: &Connection) -> QueryId {
        conn.listen(self.dir, self.query, self.documents, self.at)
    }
}

/// The per-database adapter plugged into
/// [`firestore_core::FirestoreDatabase::set_observer`].
pub struct DatabaseObserver {
    cache: RealtimeCache,
    dir: DirectoryId,
}

impl CommitObserver for DatabaseObserver {
    fn prepare(
        &self,
        names: &[firestore_core::DocumentName],
        max_ts: Timestamp,
    ) -> Result<(PrepareToken, Timestamp), PrepareUnavailable> {
        self.cache.prepare(self.dir, names, max_ts)
    }

    fn accept(&self, token: PrepareToken, outcome: CommitOutcome, changes: Vec<DocumentChange>) {
        self.cache.accept(self.dir, token, outcome, changes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firestore_core::database::doc;
    use firestore_core::{Caller, Consistency, FirestoreDatabase, Value, Write};
    use simkit::SimClock;
    use spanner::SpannerDatabase;

    fn setup() -> (FirestoreDatabase, RealtimeCache) {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let spanner = SpannerDatabase::new(clock);
        let db = FirestoreDatabase::create_default(spanner.clone());
        let cache = RealtimeCache::new(&spanner, RealtimeOptions::default());
        db.set_observer(cache.observer_for(db.directory()));
        (db, cache)
    }

    fn put(db: &FirestoreDatabase, path: &str, rating: i64) {
        db.commit_writes(
            vec![Write::set(
                doc(path),
                [("rating", Value::Int(rating)), ("city", Value::from("SF"))],
            )],
            &Caller::Service,
        )
        .unwrap();
    }

    fn listen_all(
        db: &FirestoreDatabase,
        cache: &RealtimeCache,
        conn: &Connection,
        query: Query,
    ) -> QueryId {
        let ts = db.strong_read_ts();
        let initial = db
            .run_query(
                &query.without_window(),
                Consistency::AtTimestamp(ts),
                &Caller::Service,
            )
            .unwrap();
        let qid = conn.listen(db.directory(), query, initial.documents, ts);
        let _ = cache; // shared state
        qid
    }

    #[test]
    fn initial_snapshot_then_incremental_updates() {
        let (db, cache) = setup();
        put(&db, "/restaurants/a", 3);
        let conn = cache.connect();
        let q = Query::parse("/restaurants").unwrap();
        let qid = listen_all(&db, &cache, &conn, q);

        let events = conn.poll();
        assert_eq!(events.len(), 1);
        match &events[0] {
            ListenEvent::Snapshot {
                query,
                changes,
                is_initial,
                ..
            } => {
                assert_eq!(*query, qid);
                assert!(*is_initial);
                assert_eq!(changes.len(), 1);
                assert_eq!(changes[0].kind, ChangeKind::Added);
            }
            other => panic!("unexpected {other:?}"),
        }

        // A write produces an incremental snapshot.
        put(&db, "/restaurants/b", 5);
        cache.tick();
        let events = conn.poll();
        assert_eq!(events.len(), 1);
        match &events[0] {
            ListenEvent::Snapshot {
                changes,
                is_initial,
                ..
            } => {
                assert!(!*is_initial);
                assert_eq!(changes.len(), 1);
                assert_eq!(changes[0].kind, ChangeKind::Added);
                assert_eq!(changes[0].doc.name.id(), "b");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn updates_and_deletes_stream() {
        let (db, cache) = setup();
        put(&db, "/restaurants/a", 3);
        let conn = cache.connect();
        let qid = listen_all(&db, &cache, &conn, Query::parse("/restaurants").unwrap());
        conn.poll();

        put(&db, "/restaurants/a", 4);
        cache.tick();
        let events = conn.poll();
        assert!(matches!(
            &events[0],
            ListenEvent::Snapshot { changes, .. }
                if changes.len() == 1 && changes[0].kind == ChangeKind::Modified
        ));

        db.commit_writes(vec![Write::delete(doc("/restaurants/a"))], &Caller::Service)
            .unwrap();
        cache.tick();
        let events = conn.poll();
        assert!(matches!(
            &events[0],
            ListenEvent::Snapshot { changes, .. }
                if changes.len() == 1 && changes[0].kind == ChangeKind::Removed
        ));
        conn.unlisten(qid);
        assert_eq!(cache.stats().active_queries, 0);
    }

    #[test]
    fn snapshot_timestamps_are_consistent_and_increasing() {
        let (db, cache) = setup();
        let conn = cache.connect();
        listen_all(&db, &cache, &conn, Query::parse("/restaurants").unwrap());
        conn.poll();
        let mut last = Timestamp::ZERO;
        for i in 0..5 {
            put(&db, &format!("/restaurants/r{i}"), i);
            cache.tick();
            for e in conn.poll() {
                if let ListenEvent::Snapshot { at, .. } = e {
                    assert!(at > last);
                    last = at;
                }
            }
        }
        assert!(last > Timestamp::ZERO);
    }

    #[test]
    fn filtered_query_only_gets_matching_updates() {
        let (db, cache) = setup();
        let conn = cache.connect();
        let q = Query::parse("/restaurants").unwrap().filter(
            "rating",
            firestore_core::FilterOp::Eq,
            5i64,
        );
        listen_all(&db, &cache, &conn, q);
        conn.poll();
        put(&db, "/restaurants/low", 1);
        cache.tick();
        assert!(
            conn.poll().is_empty(),
            "non-matching write produces no snapshot"
        );
        put(&db, "/restaurants/hi", 5);
        cache.tick();
        let events = conn.poll();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn multiple_connections_fan_out() {
        let (db, cache) = setup();
        let conns: Vec<Connection> = (0..10).map(|_| cache.connect()).collect();
        for c in &conns {
            listen_all(&db, &cache, c, Query::parse("/restaurants").unwrap());
            c.poll();
        }
        put(&db, "/restaurants/x", 7);
        cache.tick();
        for c in &conns {
            let events = c.poll();
            assert_eq!(events.len(), 1, "every listener hears the write");
        }
        assert_eq!(cache.stats().notifications, 10);
    }

    #[test]
    fn unknown_outcome_resets_matching_queries() {
        let (db, cache) = setup();
        put(&db, "/restaurants/a", 1);
        let conn = cache.connect();
        let qid = listen_all(&db, &cache, &conn, Query::parse("/restaurants").unwrap());
        // A query on an unrelated collection must survive.
        let other = listen_all(&db, &cache, &conn, Query::parse("/users").unwrap());
        conn.poll();

        db.spanner()
            .inject_commit_failure(spanner::SpannerError::UnknownOutcome);
        let err = db
            .commit_writes(
                vec![Write::set(
                    doc("/restaurants/b"),
                    [("rating", Value::Int(1))],
                )],
                &Caller::Service,
            )
            .unwrap_err();
        assert!(matches!(err, firestore_core::FirestoreError::Unknown(_)));
        cache.tick();
        let events = conn.poll();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], ListenEvent::Reset { query, .. } if query == qid));
        assert_eq!(cache.stats().resets, 1);
        // The unrelated query is still live.
        let st = cache.stats();
        assert_eq!(st.active_queries, 1);
        let _ = other;
    }

    #[test]
    fn failed_commit_produces_no_snapshot() {
        let (db, cache) = setup();
        let conn = cache.connect();
        listen_all(&db, &cache, &conn, Query::parse("/restaurants").unwrap());
        conn.poll();
        db.spanner()
            .inject_commit_failure(spanner::SpannerError::CommitWindowExpired);
        let _ = db.commit_writes(
            vec![Write::set(
                doc("/restaurants/x"),
                [("rating", Value::Int(1))],
            )],
            &Caller::Service,
        );
        cache.tick();
        assert!(conn.poll().is_empty());
        // And nothing was reset: failure is a clean outcome.
        assert_eq!(cache.stats().resets, 0);
    }

    #[test]
    fn connection_close_removes_subscriptions() {
        let (db, cache) = setup();
        let conn = cache.connect();
        listen_all(&db, &cache, &conn, Query::parse("/restaurants").unwrap());
        conn.close();
        assert_eq!(cache.stats().active_queries, 0);
        put(&db, "/restaurants/x", 1);
        cache.tick();
        assert!(conn.poll().is_empty());
    }

    #[test]
    fn restart_catch_up_converges_without_missed_or_duplicate_events() {
        let (db, cache) = setup();
        put(&db, "/restaurants/a", 1);
        let conn = cache.connect();
        listen_all(&db, &cache, &conn, Query::parse("/restaurants").unwrap());
        conn.poll();
        put(&db, "/restaurants/b", 2);
        cache.tick();
        assert_eq!(conn.poll().len(), 1);

        // A write the cache never hears about (lost during its outage).
        db.set_observer(Arc::new(firestore_core::NullObserver));
        put(&db, "/restaurants/c", 3);
        db.set_observer(cache.observer_for(db.directory()));

        let ts = db.strong_read_ts();
        let requery = |q: &Query| {
            db.run_query(
                &q.without_window(),
                Consistency::AtTimestamp(ts),
                &Caller::Service,
            )
            .map(|r| r.documents)
        };
        assert_eq!(cache.restart(requery, ts), 1);
        let events = conn.poll();
        assert_eq!(events.len(), 1, "exactly one catch-up snapshot");
        match &events[0] {
            ListenEvent::Snapshot { changes, .. } => {
                assert_eq!(changes.len(), 1, "only the missed write surfaces");
                assert_eq!(changes[0].kind, ChangeKind::Added);
                assert_eq!(changes[0].doc.name.id(), "c");
            }
            other => panic!("unexpected {other:?}"),
        }

        // A second restart with no intervening writes emits nothing: no
        // duplicated events.
        let ts2 = db.strong_read_ts();
        let requery2 = |q: &Query| {
            db.run_query(
                &q.without_window(),
                Consistency::AtTimestamp(ts2),
                &Caller::Service,
            )
            .map(|r| r.documents)
        };
        assert_eq!(cache.restart(requery2, ts2), 1);
        assert!(conn.poll().is_empty());

        // The live stream continues normally afterwards.
        put(&db, "/restaurants/d", 4);
        cache.tick();
        assert_eq!(conn.poll().len(), 1);
    }

    #[test]
    fn restart_requery_failure_resets_query() {
        let (db, cache) = setup();
        put(&db, "/restaurants/a", 1);
        let conn = cache.connect();
        let qid = listen_all(&db, &cache, &conn, Query::parse("/restaurants").unwrap());
        conn.poll();
        let caught = cache.restart(|_q| Err::<Vec<Document>, ()>(()), db.strong_read_ts());
        assert_eq!(caught, 0);
        let events = conn.poll();
        assert!(matches!(events[0], ListenEvent::Reset { query, .. } if query == qid));
        assert_eq!(cache.stats().active_queries, 0);
    }

    #[test]
    fn matcher_registrations_track_listener_lifecycle() {
        let (db, cache) = setup();
        let conn = cache.connect();
        let q1 = listen_all(&db, &cache, &conn, Query::parse("/restaurants").unwrap());
        let _q2 = listen_all(&db, &cache, &conn, Query::parse("/users").unwrap());
        assert_eq!(cache.matcher_registrations(), 2);
        cache.matcher_validate().unwrap();
        conn.unlisten(q1);
        assert_eq!(cache.matcher_registrations(), 1);
        cache.matcher_validate().unwrap();
        conn.close();
        assert_eq!(cache.matcher_registrations(), 0);
        cache.matcher_validate().unwrap();
    }

    #[test]
    fn shared_query_shapes_multiplex_in_the_matcher() {
        let (db, cache) = setup();
        let conns: Vec<Connection> = (0..8).map(|_| cache.connect()).collect();
        for c in &conns {
            listen_all(&db, &cache, c, Query::parse("/restaurants").unwrap());
            c.poll();
        }
        assert_eq!(cache.matcher_registrations(), 8);
        let shapes = cache.matcher_shape_count();
        assert!(
            shapes < 8,
            "eight identical listeners must share shapes, got {shapes}"
        );
        put(&db, "/restaurants/x", 7);
        cache.tick();
        for c in &conns {
            assert_eq!(c.poll().len(), 1);
        }
    }

    #[test]
    fn restart_rebuilds_matcher_without_duplicate_registrations() {
        let (db, cache) = setup();
        put(&db, "/restaurants/a", 1);
        let conn = cache.connect();
        listen_all(&db, &cache, &conn, Query::parse("/restaurants").unwrap());
        conn.poll();
        assert_eq!(cache.matcher_registrations(), 1);

        // Crash/recover twice; each restart must rebuild the tree once from
        // the surviving queries — never re-register on top of the old tree.
        for round in 0..2 {
            let ts = db.strong_read_ts();
            let requery = |q: &Query| {
                db.run_query(
                    &q.without_window(),
                    Consistency::AtTimestamp(ts),
                    &Caller::Service,
                )
                .map(|r| r.documents)
            };
            assert_eq!(cache.restart(requery, ts), 1, "round {round}");
            assert_eq!(cache.matcher_registrations(), 1, "round {round}");
            cache.matcher_validate().unwrap();
        }

        // One write → exactly one snapshot: a duplicated registration would
        // double-buffer the change or double-count fanout.
        put(&db, "/restaurants/z", 9);
        cache.tick();
        let events = conn.poll();
        assert_eq!(events.len(), 1);
        match &events[0] {
            ListenEvent::Snapshot { changes, .. } => assert_eq!(changes.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            cache.stats().notifications,
            1,
            "exactly the one post-restart write was delivered"
        );

        // A restart that resets the query leaves no registration behind.
        let caught = cache.restart(|_q| Err::<Vec<Document>, ()>(()), db.strong_read_ts());
        assert_eq!(caught, 0);
        assert_eq!(cache.matcher_registrations(), 0);
        cache.matcher_validate().unwrap();
    }

    #[test]
    fn explain_change_renders_matcher_descent() {
        let (db, cache) = setup();
        let conn = cache.connect();
        let q = Query::parse("/restaurants").unwrap().filter(
            "rating",
            firestore_core::FilterOp::Eq,
            5i64,
        );
        listen_all(&db, &cache, &conn, q);
        let name = doc("/restaurants/hi");
        let change = DocumentChange {
            name: name.clone(),
            old: None,
            new: Some(Document::new(name, [("rating", Value::Int(5))])),
        };
        let text = cache.explain_change(db.directory(), &change);
        assert!(text.contains("matcher descent:"), "{text}");
        assert!(text.contains("eq-probe rating: 1 hits"), "{text}");
        assert!(text.contains("matched 1 shapes, 1 tokens"), "{text}");
    }

    #[test]
    fn limit_query_streams_window_changes() {
        let (db, cache) = setup();
        for i in 0..3 {
            put(&db, &format!("/restaurants/r{i}"), i);
        }
        let conn = cache.connect();
        let q = Query::parse("/restaurants")
            .unwrap()
            .order_by("rating", firestore_core::Direction::Desc)
            .limit(2);
        listen_all(&db, &cache, &conn, q);
        let initial = conn.poll();
        match &initial[0] {
            ListenEvent::Snapshot { changes, .. } => assert_eq!(changes.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // Delete the top doc: window backfills from below.
        db.commit_writes(
            vec![Write::delete(doc("/restaurants/r2"))],
            &Caller::Service,
        )
        .unwrap();
        cache.tick();
        let events = conn.poll();
        match &events[0] {
            ListenEvent::Snapshot { changes, .. } => {
                let kinds: Vec<ChangeKind> = changes.iter().map(|c| c.kind).collect();
                assert!(kinds.contains(&ChangeKind::Removed));
                assert!(kinds.contains(&ChangeKind::Added));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
