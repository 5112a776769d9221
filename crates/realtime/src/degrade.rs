//! Graceful degradation for real-time listeners.
//!
//! The paper treats the Real-time Cache as "strictly an enhancement": when
//! a range goes out of sync the client "re-runs the initial query and
//! re-subscribes", and the database itself keeps serving reads (§IV-D4).
//! [`ResilientListener`] packages that contract: it drives one real-time
//! query through a [`Connection`] and, when the cache becomes unavailable
//! mid-listen — a [`crate::cache::ListenEvent::Reset`] from an out-of-sync
//! range, or a chaos-injected [`FaultKind::CacheUnavailable`] outage — it
//! falls back to Spanner-backed polling snapshots. Each degraded poll reads
//! the listen snapshot ([`ListenSnapshot`]) and diffs its visible window
//! against the last state delivered to the client with the view's window
//! diff, so the subscriber keeps seeing exactly the real changes (no
//! misses, no duplicates). Once the cache answers again the listener
//! re-registers, seeding the cache view at the poll timestamp so the
//! changelog replays only what the poll has not already delivered; the
//! cache's own initial snapshot is suppressed because the client is
//! already up to date.

use crate::cache::{ChangeKind, Connection, DocChangeEvent, ListenEvent, ListenSnapshot, QueryId};
use crate::fanout::{ResetCause, OVERLOAD_RESUBSCRIBE_DELAY};
use crate::view::{diff_visible, QueryView};
use firestore_core::{Caller, Document, DocumentName, FirestoreDatabase, FirestoreResult, Query};
use simkit::fault::{FaultInjector, FaultKind};
use simkit::Timestamp;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How the listener is currently receiving updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListenerMode {
    /// Incremental snapshots stream from the Real-time Cache.
    Streaming,
    /// The cache is unavailable; updates come from polled strong reads.
    Polling,
}

/// Counters for observability and chaos-test assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ListenerStats {
    /// Times the listener fell back from streaming to polling.
    pub fallbacks: u64,
    /// Degraded polls executed.
    pub polls: u64,
    /// Degraded polls skipped because the strong read itself failed
    /// transiently (retried at the next poll interval).
    pub skipped_polls: u64,
    /// Successful re-subscriptions to the cache.
    pub recoveries: u64,
    /// `Reset` events received from the cache.
    pub resets_seen: u64,
    /// `Reset` events whose cause was `Overload` (the cache shed this
    /// listener voluntarily; re-subscription is backed off).
    pub overload_resets_seen: u64,
}

/// One batch of visible changes delivered to the subscriber.
#[derive(Clone, Debug)]
pub struct ListenerEvent {
    /// The consistent timestamp of this batch.
    pub at: Timestamp,
    /// The visible-window deltas since the previous batch.
    pub changes: Vec<DocChangeEvent>,
    /// Whether this batch came from a degraded poll rather than the cache.
    pub degraded: bool,
}

/// A real-time listener that survives Real-time Cache outages.
pub struct ResilientListener {
    db: FirestoreDatabase,
    conn: Connection,
    query: Query,
    caller: Caller,
    qid: Option<QueryId>,
    /// A recovery re-listen queues an `is_initial` snapshot whose contents
    /// the client already has; this marks it for suppression.
    suppress_initial: Option<QueryId>,
    mode: ListenerMode,
    injector: Option<Arc<FaultInjector>>,
    /// Last state delivered to the subscriber: name → document version.
    delivered: BTreeMap<DocumentName, Document>,
    last_ts: Timestamp,
    /// Degraded polls remaining before an overload-shed listener may
    /// re-subscribe (0 = no backoff in force).
    defer_resubscribe: u32,
    stats: ListenerStats,
}

impl ResilientListener {
    /// Register `query` on `conn`: runs the initial Backend query at a
    /// strong read timestamp and subscribes (§IV-D4 steps 1–4). The initial
    /// snapshot arrives on the first [`ResilientListener::poll`].
    pub fn listen(
        db: &FirestoreDatabase,
        conn: &Connection,
        query: Query,
        caller: Caller,
    ) -> FirestoreResult<ResilientListener> {
        let snapshot = ListenSnapshot::read(db, query.clone(), &caller)?;
        let ts = snapshot.at();
        let qid = snapshot.listen(conn);
        Ok(ResilientListener {
            db: db.clone(),
            conn: conn.clone(),
            query,
            caller,
            qid: Some(qid),
            suppress_initial: None,
            mode: ListenerMode::Streaming,
            injector: None,
            delivered: BTreeMap::new(),
            last_ts: ts,
            defer_resubscribe: 0,
            stats: ListenerStats::default(),
        })
    }

    /// Attach (or clear) a chaos [`FaultInjector`]. While a
    /// [`FaultKind::CacheUnavailable`] rule fires, the stream is treated as
    /// severed and polls cannot re-subscribe.
    pub fn set_fault_injector(&mut self, injector: Option<Arc<FaultInjector>>) {
        self.injector = injector;
    }

    /// Current delivery mode.
    pub fn mode(&self) -> ListenerMode {
        self.mode
    }

    /// Whether the listener is running on polled snapshots.
    pub fn is_degraded(&self) -> bool {
        self.mode == ListenerMode::Polling
    }

    /// Counters.
    pub fn stats(&self) -> ListenerStats {
        self.stats
    }

    /// Timestamp of the last delivered batch.
    pub fn last_ts(&self) -> Timestamp {
        self.last_ts
    }

    /// The current cache-side query id, if streaming.
    pub fn query_id(&self) -> Option<QueryId> {
        self.qid
    }

    /// The visible result set as last delivered, ordered by document name.
    pub fn delivered_docs(&self) -> Vec<Document> {
        self.delivered.values().cloned().collect()
    }

    /// Fetch the next batches of visible changes. In streaming mode this
    /// drains the connection; a `Reset` (or an injected cache outage)
    /// switches to polling, which also runs once immediately so the outage
    /// never hides updates. In polling mode each call polls and then
    /// attempts to re-subscribe.
    pub fn poll(&mut self) -> FirestoreResult<Vec<ListenerEvent>> {
        match self.mode {
            ListenerMode::Streaming => self.poll_streaming(),
            ListenerMode::Polling => self.poll_degraded(),
        }
    }

    fn cache_unavailable(&self, site: &'static str) -> bool {
        self.injector
            .as_ref()
            .is_some_and(|inj| inj.should_inject(FaultKind::CacheUnavailable, site))
    }

    fn poll_streaming(&mut self) -> FirestoreResult<Vec<ListenerEvent>> {
        if self.cache_unavailable("listen-stream") {
            // Mid-stream outage: drop the subscription and degrade. Events
            // the severed stream would have carried are recovered by the
            // poll's strong-read diff.
            if let Some(qid) = self.qid.take() {
                self.conn.unlisten(qid);
            }
            self.mode = ListenerMode::Polling;
            self.stats.fallbacks += 1;
            return self.poll_degraded();
        }
        let mut out = Vec::new();
        let mut reset = false;
        for event in self.conn.poll() {
            match event {
                ListenEvent::Snapshot {
                    query,
                    at,
                    changes,
                    is_initial,
                } => {
                    if Some(query) != self.qid {
                        continue;
                    }
                    if is_initial && self.suppress_initial.take() == Some(query) {
                        // Recovery snapshot: already delivered via polling.
                        continue;
                    }
                    self.apply_delivered(&changes);
                    self.last_ts = at;
                    out.push(ListenerEvent {
                        at,
                        changes,
                        degraded: false,
                    });
                }
                ListenEvent::Reset { query, cause } => {
                    if Some(query) == self.qid {
                        self.stats.resets_seen += 1;
                        if cause == ResetCause::Overload {
                            self.stats.overload_resets_seen += 1;
                            self.defer_resubscribe = OVERLOAD_RESUBSCRIBE_DELAY;
                        }
                        reset = true;
                    }
                }
            }
        }
        if reset {
            // The cache already dropped the query; re-running the initial
            // query is exactly the degraded path.
            self.qid = None;
            self.mode = ListenerMode::Polling;
            self.stats.fallbacks += 1;
            out.extend(self.poll_degraded()?);
        }
        Ok(out)
    }

    fn poll_degraded(&mut self) -> FirestoreResult<Vec<ListenerEvent>> {
        self.stats.polls += 1;
        let snapshot = match ListenSnapshot::read(&self.db, self.query.clone(), &self.caller) {
            Ok(snapshot) => snapshot,
            // The fallback is "strictly an enhancement" over the database:
            // a transient storage error costs one poll interval, never the
            // subscription. The next tick retries with a fresh timestamp.
            Err(e) if e.is_retriable() => {
                self.stats.skipped_polls += 1;
                return Ok(Vec::new());
            }
            Err(e) => return Err(e),
        };
        let ts = snapshot.at();
        let visible = QueryView::new(self.query.clone(), snapshot.documents().to_vec()).visible();
        let changes = self.diff_delivered(visible);
        self.last_ts = ts;
        let mut out = Vec::new();
        if !changes.is_empty() {
            out.push(ListenerEvent {
                at: ts,
                changes,
                degraded: true,
            });
        }
        // An overload-shed listener keeps polling (no data loss) but holds
        // off re-subscribing so it does not immediately re-create the
        // pressure that shed it.
        if self.defer_resubscribe > 0 {
            self.defer_resubscribe -= 1;
            return Ok(out);
        }
        // Attempt recovery: re-subscribe seeded at the poll timestamp so the
        // changelog replays only commits after `ts`.
        if !self.cache_unavailable("re-listen") {
            let qid = snapshot.listen(&self.conn);
            self.suppress_initial = Some(qid);
            self.qid = Some(qid);
            self.mode = ListenerMode::Streaming;
            self.stats.recoveries += 1;
        }
        Ok(out)
    }

    /// Fold a streamed batch into the delivered state.
    fn apply_delivered(&mut self, changes: &[DocChangeEvent]) {
        for c in changes {
            match c.kind {
                ChangeKind::Added | ChangeKind::Modified => {
                    self.delivered.insert(c.doc.name.clone(), c.doc.clone());
                }
                ChangeKind::Removed => {
                    self.delivered.remove(&c.doc.name);
                }
            }
        }
    }

    /// Diff a polled visible window against the delivered state with the
    /// view's window diff, and replace the delivered state with it.
    fn diff_delivered(&mut self, visible: Vec<Document>) -> Vec<DocChangeEvent> {
        let delivered: Vec<Document> = std::mem::take(&mut self.delivered).into_values().collect();
        let changes = diff_visible(&delivered, &visible);
        self.delivered = visible.into_iter().map(|d| (d.name.clone(), d)).collect();
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{RealtimeCache, RealtimeOptions};
    use firestore_core::database::doc;
    use firestore_core::{Value, Write};
    use simkit::fault::{FaultPlan, FaultRule};
    use simkit::{Duration, SimClock};
    use spanner::SpannerDatabase;

    fn setup() -> (SimClock, FirestoreDatabase, RealtimeCache) {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let spanner = SpannerDatabase::new(clock.clone());
        let db = FirestoreDatabase::create_default(spanner.clone());
        let cache = RealtimeCache::new(&spanner, RealtimeOptions::default());
        db.set_observer(cache.observer_for(db.directory()));
        (clock, db, cache)
    }

    fn put(db: &FirestoreDatabase, path: &str, v: i64) {
        db.commit_writes(
            vec![Write::set(doc(path), [("v", Value::Int(v))])],
            &Caller::Service,
        )
        .unwrap();
    }

    fn names(events: &[ListenerEvent]) -> Vec<(ChangeKind, String)> {
        events
            .iter()
            .flat_map(|e| e.changes.iter())
            .map(|c| (c.kind, c.doc.name.to_string()))
            .collect()
    }

    #[test]
    fn streams_normally_without_faults() {
        let (_clock, db, cache) = setup();
        put(&db, "/scores/a", 1);
        let conn = cache.connect();
        let mut listener = ResilientListener::listen(
            &db,
            &conn,
            Query::parse("/scores").unwrap(),
            Caller::Service,
        )
        .unwrap();
        let initial = listener.poll().unwrap();
        assert_eq!(names(&initial), vec![(ChangeKind::Added, "/scores/a".into())]);
        assert!(!initial[0].degraded);
        put(&db, "/scores/b", 2);
        cache.tick();
        let next = listener.poll().unwrap();
        assert_eq!(names(&next), vec![(ChangeKind::Added, "/scores/b".into())]);
        assert!(!listener.is_degraded());
        assert_eq!(listener.stats().fallbacks, 0);
    }

    #[test]
    fn outage_degrades_to_polling_and_recovers_without_loss_or_dup() {
        let (clock, db, cache) = setup();
        put(&db, "/scores/a", 1);
        let conn = cache.connect();
        let mut listener = ResilientListener::listen(
            &db,
            &conn,
            Query::parse("/scores").unwrap(),
            Caller::Service,
        )
        .unwrap();
        listener.poll().unwrap(); // initial snapshot

        // Cache outage for the next 2 simulated seconds.
        let start = clock.now();
        let end = start + Duration::from_secs(2);
        let plan = FaultPlan::new(21).rule(FaultRule::scheduled(
            FaultKind::CacheUnavailable,
            start,
            end,
        ));
        let injector = FaultInjector::new(clock.clone(), plan);
        listener.set_fault_injector(Some(injector));

        // Writes land while the stream is severed.
        put(&db, "/scores/b", 2);
        put(&db, "/scores/a", 3);
        let events = listener.poll().unwrap();
        assert!(listener.is_degraded(), "outage must force polling");
        assert_eq!(listener.stats().fallbacks, 1);
        assert!(events.iter().all(|e| e.degraded));
        let mut got = names(&events);
        got.sort_by(|a, b| a.1.cmp(&b.1));
        assert_eq!(
            got,
            vec![
                (ChangeKind::Modified, "/scores/a".into()),
                (ChangeKind::Added, "/scores/b".into()),
            ]
        );

        // Still down: another write arrives via a second poll, once.
        put(&db, "/scores/c", 4);
        let events = listener.poll().unwrap();
        assert_eq!(names(&events), vec![(ChangeKind::Added, "/scores/c".into())]);
        assert!(listener.is_degraded());

        // Outage ends; the next poll is empty (nothing new) and recovers.
        clock.advance(Duration::from_secs(3));
        let events = listener.poll().unwrap();
        assert!(events.is_empty(), "no new data, no duplicated catch-up");
        assert!(!listener.is_degraded(), "listener must re-subscribe");
        assert_eq!(listener.stats().recoveries, 1);

        // Back to streaming: a commit flows through the changelog once.
        put(&db, "/scores/d", 5);
        cache.tick();
        let events = listener.poll().unwrap();
        assert_eq!(names(&events), vec![(ChangeKind::Added, "/scores/d".into())]);
        assert!(!events[0].degraded);
        // The suppressed recovery snapshot never re-delivered a/b/c.
        assert_eq!(listener.delivered_docs().len(), 4);
    }

    #[test]
    fn reset_falls_back_and_catches_up() {
        let (_clock, db, cache) = setup();
        put(&db, "/scores/a", 1);
        let conn = cache.connect();
        let mut listener = ResilientListener::listen(
            &db,
            &conn,
            Query::parse("/scores").unwrap(),
            Caller::Service,
        )
        .unwrap();
        listener.poll().unwrap();

        // An unknown-outcome commit marks the range out of sync → Reset.
        db.spanner()
            .inject_commit_failure(spanner::SpannerError::UnknownOutcome);
        let err = db
            .commit_writes(
                vec![Write::set(doc("/scores/b"), [("v", Value::Int(2))])],
                &Caller::Service,
            )
            .unwrap_err();
        assert!(matches!(err, firestore_core::FirestoreError::Unknown(_)));

        let events = listener.poll().unwrap();
        assert_eq!(listener.stats().resets_seen, 1);
        assert_eq!(listener.stats().fallbacks, 1);
        // The poll re-ran the query and found no delta (commit outcome was
        // unknown but the write did not land), then re-subscribed.
        assert!(!listener.is_degraded());
        assert!(names(&events).is_empty());

        // Streaming works again after the recovery.
        put(&db, "/scores/c", 3);
        cache.tick();
        let events = listener.poll().unwrap();
        assert_eq!(names(&events), vec![(ChangeKind::Added, "/scores/c".into())]);
    }

    #[test]
    fn overload_reset_backs_off_resubscribe() {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let spanner = SpannerDatabase::new(clock.clone());
        let db = FirestoreDatabase::create_default(spanner.clone());
        let mut opts = RealtimeOptions::default();
        opts.fanout.stall_deadline = Duration::from_secs(1);
        let cache = RealtimeCache::new(&spanner, opts);
        db.set_observer(cache.observer_for(db.directory()));

        put(&db, "/scores/a", 1);
        let conn = cache.connect();
        let mut listener = ResilientListener::listen(
            &db,
            &conn,
            Query::parse("/scores").unwrap(),
            Caller::Service,
        )
        .unwrap();
        listener.poll().unwrap(); // the initial snapshot

        // Queue a delta, then stop draining past the stall deadline: the
        // cache must shed this listener voluntarily, not buffer forever.
        put(&db, "/scores/b", 2);
        cache.tick();
        clock.advance(Duration::from_secs(5));
        cache.tick();

        let events = listener.poll().unwrap();
        assert_eq!(listener.stats().resets_seen, 1);
        assert_eq!(listener.stats().overload_resets_seen, 1);
        assert!(
            listener.is_degraded(),
            "overload reset must defer re-subscription"
        );
        // The queued delta was dropped with the reset, but the degraded
        // poll recovered it from a strong read — no data loss.
        assert_eq!(names(&events), vec![(ChangeKind::Added, "/scores/b".into())]);

        // During backoff, polls keep delivering without re-subscribing.
        put(&db, "/scores/c", 3);
        let events = listener.poll().unwrap();
        assert_eq!(names(&events), vec![(ChangeKind::Added, "/scores/c".into())]);
        assert!(listener.is_degraded(), "still backing off");

        // Backoff expired: this poll re-subscribes.
        listener.poll().unwrap();
        assert!(!listener.is_degraded());
        assert_eq!(listener.stats().recoveries, 1);

        // Streaming works again after the recovery.
        put(&db, "/scores/d", 4);
        cache.tick();
        let events = listener.poll().unwrap();
        assert_eq!(names(&events), vec![(ChangeKind::Added, "/scores/d".into())]);
    }

    #[test]
    fn degraded_polls_respect_the_query_window() {
        let (clock, db, cache) = setup();
        for i in 0..5 {
            put(&db, &format!("/scores/p{i}"), i);
        }
        let conn = cache.connect();
        let query = Query::parse("/scores").unwrap().limit(2);
        let mut listener =
            ResilientListener::listen(&db, &conn, query, Caller::Service).unwrap();
        let initial = listener.poll().unwrap();
        assert_eq!(initial[0].changes.len(), 2, "window limits the snapshot");

        let start = clock.now();
        let plan = FaultPlan::new(3).rule(FaultRule::scheduled(
            FaultKind::CacheUnavailable,
            start,
            start + Duration::from_secs(60),
        ));
        listener.set_fault_injector(Some(FaultInjector::new(clock.clone(), plan)));
        // A write beyond the window must not surface in a degraded poll.
        put(&db, "/scores/z", 99);
        let events = listener.poll().unwrap();
        assert!(listener.is_degraded());
        assert!(events.is_empty(), "write outside the limit window is invisible");
        assert_eq!(listener.delivered_docs().len(), 2);
    }
}
