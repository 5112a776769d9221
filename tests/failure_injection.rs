//! Failure-injection tests: every failure path the paper enumerates in
//! §IV-D2's write pipeline, plus Real-time Cache recovery and client-side
//! rollback.

use client::{ClientError, ClientOptions, FirestoreClient};
use firestore_core::database::doc;
use firestore_core::observer::{
    CommitObserver, CommitOutcome, DocumentChange, PrepareToken, PrepareUnavailable,
};
use firestore_core::{Caller, Consistency, FirestoreDatabase, FirestoreError, Query, Value, Write};
use realtime::{ListenEvent, RealtimeCache};
use rules::AuthContext;
use simkit::{Duration, Timestamp};
use spanner::SpannerError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

mod common;

fn setup() -> (FirestoreDatabase, RealtimeCache) {
    let w = common::world_with_rules();
    (w.db, w.cache)
}

/// §IV-D2: "/restaurants/one does not exist ... an error is returned to
/// the user" — precondition failures abort before any mutation.
#[test]
fn precondition_failure_returns_error_and_mutates_nothing() {
    let (db, _) = setup();
    let update = Write::update(doc("/restaurants/one"), [("x", Value::Int(1))]);
    assert!(matches!(
        db.commit_writes(vec![update], &Caller::Service)
            .unwrap_err(),
        FirestoreError::NotFound(_)
    ));
    assert_eq!(db.storage_stats().unwrap().0, 0);
}

/// §IV-D2: "The Prepare RPC fails because the Real-time Cache is
/// unavailable ... the write fails and an error is returned to the user."
#[test]
fn prepare_failure_fails_the_write() {
    struct UnavailableObserver;
    impl CommitObserver for UnavailableObserver {
        fn prepare(
            &self,
            _names: &[firestore_core::DocumentName],
            _max_ts: Timestamp,
        ) -> Result<(PrepareToken, Timestamp), PrepareUnavailable> {
            Err(PrepareUnavailable)
        }
        fn accept(&self, _: PrepareToken, _: CommitOutcome, _: Vec<DocumentChange>) {
            panic!("accept must not run after a failed prepare");
        }
    }
    let (db, _) = setup();
    db.set_observer(Arc::new(UnavailableObserver));
    let err = db
        .commit_writes(
            vec![Write::set(doc("/c/d"), [("v", Value::Int(1))])],
            &Caller::Service,
        )
        .unwrap_err();
    assert!(matches!(err, FirestoreError::Unavailable(_)));
    assert_eq!(db.storage_stats().unwrap().0, 0, "nothing was committed");
}

/// §IV-D2: "The Spanner commit definitively fails ... The Accept RPC
/// notifies the Real-time Cache, and an error is returned to the user."
#[test]
fn definitive_commit_failure_sends_accept_failed() {
    struct Recording {
        outcome: Arc<AtomicU64>, // 0=none 1=committed 2=failed 3=unknown
    }
    impl CommitObserver for Recording {
        fn prepare(
            &self,
            _names: &[firestore_core::DocumentName],
            _max_ts: Timestamp,
        ) -> Result<(PrepareToken, Timestamp), PrepareUnavailable> {
            Ok((PrepareToken(1), Timestamp::ZERO))
        }
        fn accept(&self, _: PrepareToken, outcome: CommitOutcome, changes: Vec<DocumentChange>) {
            let code = match outcome {
                CommitOutcome::Committed(_) => 1,
                CommitOutcome::Failed => 2,
                CommitOutcome::Unknown => 3,
            };
            assert!(changes.is_empty() || code == 1);
            self.outcome.store(code, Ordering::SeqCst);
        }
    }
    let (db, _) = setup();
    let outcome = Arc::new(AtomicU64::new(0));
    db.set_observer(Arc::new(Recording {
        outcome: outcome.clone(),
    }));
    db.spanner()
        .inject_commit_failure(SpannerError::CommitWindowExpired);
    let err = db
        .commit_writes(
            vec![Write::set(doc("/c/d"), [("v", Value::Int(1))])],
            &Caller::Service,
        )
        .unwrap_err();
    assert!(matches!(err, FirestoreError::Aborted(_)));
    assert_eq!(
        outcome.load(Ordering::SeqCst),
        2,
        "Accept(Failed) was delivered"
    );
}

/// §IV-D2: "The Spanner commit has an unknown outcome ... The Accept RPC
/// notifies the Real-time Cache that the write outcome is unknown, which in
/// turn discards the in-memory sequence of mutations" — and §IV-D4: the
/// range is marked out-of-sync, resetting matching queries.
#[test]
fn unknown_outcome_resets_realtime_queries() {
    let (db, cache) = setup();
    let conn = cache.connect();
    let qid = conn.listen(
        db.directory(),
        Query::parse("/c").unwrap(),
        vec![],
        db.strong_read_ts(),
    );
    conn.poll();
    db.spanner()
        .inject_commit_failure(SpannerError::UnknownOutcome);
    let err = db
        .commit_writes(
            vec![Write::set(doc("/c/d"), [("v", Value::Int(1))])],
            &Caller::Service,
        )
        .unwrap_err();
    assert!(matches!(err, FirestoreError::Unknown(_)));
    cache.tick();
    let events = conn.poll();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ListenEvent::Reset { query, .. } if *query == qid)),
        "the matching query was reset: {events:?}"
    );
    // Recovery: the client re-runs the query and re-listens; updates flow
    // again ("this reset is fast, and is mostly transparent").
    let ts = db.strong_read_ts();
    let fresh = db
        .run_query(
            &Query::parse("/c").unwrap(),
            Consistency::AtTimestamp(ts),
            &Caller::Service,
        )
        .unwrap();
    let qid2 = conn.listen(
        db.directory(),
        Query::parse("/c").unwrap(),
        fresh.documents,
        ts,
    );
    conn.poll();
    db.commit_writes(
        vec![Write::set(doc("/c/e"), [("v", Value::Int(2))])],
        &Caller::Service,
    )
    .unwrap();
    cache.tick();
    let events = conn.poll();
    assert!(events
        .iter()
        .any(|e| matches!(e, ListenEvent::Snapshot { query, .. } if *query == qid2)));
}

/// A lost Accept (e.g. the Backend crashes after the Spanner commit): the
/// write IS durable, and the Changelog eventually times out the pending
/// prepare and resets matching queries rather than stalling forever.
#[test]
fn lost_accept_times_out_and_resets() {
    struct DropAccept {
        inner: Arc<realtime::cache::DatabaseObserver>,
        drop_next: Arc<AtomicBool>,
    }
    impl CommitObserver for DropAccept {
        fn prepare(
            &self,
            names: &[firestore_core::DocumentName],
            max_ts: Timestamp,
        ) -> Result<(PrepareToken, Timestamp), PrepareUnavailable> {
            self.inner.prepare(names, max_ts)
        }
        fn accept(
            &self,
            token: PrepareToken,
            outcome: CommitOutcome,
            changes: Vec<DocumentChange>,
        ) {
            if self.drop_next.swap(false, Ordering::SeqCst) {
                return; // the Accept never arrives
            }
            self.inner.accept(token, outcome, changes)
        }
    }
    let (db, cache) = setup();
    let drop_next = Arc::new(AtomicBool::new(true));
    db.set_observer(Arc::new(DropAccept {
        inner: cache.observer_for(db.directory()),
        drop_next: drop_next.clone(),
    }));
    let conn = cache.connect();
    let qid = conn.listen(
        db.directory(),
        Query::parse("/c").unwrap(),
        vec![],
        db.strong_read_ts(),
    );
    conn.poll();
    // The write succeeds (acknowledged to the user) but the Accept is lost.
    db.commit_writes(
        vec![Write::set(doc("/c/d"), [("v", Value::Int(1))])],
        &Caller::Service,
    )
    .unwrap();
    assert!(db
        .get_document(&doc("/c/d"), Consistency::Strong, &Caller::Service)
        .unwrap()
        .is_some());
    cache.tick();
    assert!(
        conn.poll().is_empty(),
        "no snapshot until the timeout resolves the gap"
    );
    // Past max_ts + margin the pending prepare expires → reset.
    db.spanner()
        .truetime()
        .clock()
        .advance(Duration::from_secs(60));
    cache.tick();
    let events = conn.poll();
    assert!(events
        .iter()
        .any(|e| matches!(e, ListenEvent::Reset { query, .. } if *query == qid)));
}

/// The client SDK recovers from a Real-time Cache reset transparently: the
/// paper calls the reset "mostly transparent to the end-user" — the SDK
/// re-runs the query and re-subscribes on its own during `sync()`.
#[test]
fn client_recovers_from_reset_transparently() {
    let (db, cache) = setup();
    let c = FirestoreClient::connect(
        db.clone(),
        cache.clone(),
        ClientOptions {
            auth: Some(AuthContext::uid("u")),
        },
    );
    let listener = c.listen(Query::parse("/c").unwrap()).unwrap();
    c.take_snapshots(listener);

    // An unknown-outcome write marks the range out of sync.
    db.spanner().inject_commit_failure(SpannerError::UnknownOutcome);
    let _ = db.commit_writes(
        vec![Write::set(doc("/c/x"), [("v", Value::Int(1))])],
        &Caller::Service,
    );
    cache.tick();
    // The app just keeps calling sync(); the listener re-seeds itself.
    c.sync().unwrap();
    // New writes flow to the re-established listener.
    db.commit_writes(
        vec![Write::set(doc("/c/y"), [("v", Value::Int(2))])],
        &Caller::Service,
    )
    .unwrap();
    cache.tick();
    c.sync().unwrap();
    let snaps = c.take_snapshots(listener);
    let last = snaps.last().expect("listener kept working");
    assert!(last.documents.iter().any(|d| d.name.id() == "y"));
}

/// §III-E: a queued offline write that the rules reject is rolled back on
/// the client once connectivity returns.
#[test]
fn rules_rejection_after_reconnect_rolls_back() {
    let (db, cache) = setup();
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
    let c = FirestoreClient::connect(
        db.clone(),
        cache,
        ClientOptions {
            auth: Some(AuthContext::uid("alice")),
        },
    );
    c.disconnect();
    c.set("/docs/mine", [("owner", Value::from("alice"))])
        .unwrap();
    c.set("/docs/forged", [("owner", Value::from("bob"))])
        .unwrap();
    assert_eq!(c.pending_writes(), 2);
    c.reconnect().unwrap();
    assert_eq!(c.pending_writes(), 0);
    let errors = c.take_write_errors();
    assert_eq!(errors.len(), 1);
    assert!(matches!(
        errors[0],
        ClientError::WriteRejected(FirestoreError::PermissionDenied(_))
    ));
    // The legitimate write landed; the forged one did not.
    assert!(db
        .get_document(&doc("/docs/mine"), Consistency::Strong, &Caller::Service)
        .unwrap()
        .is_some());
    assert!(db
        .get_document(&doc("/docs/forged"), Consistency::Strong, &Caller::Service)
        .unwrap()
        .is_none());
}

/// Lock conflicts abort and are retryable (§IV-D3: "resolved by failing
/// and retrying such transactions").
#[test]
fn lock_conflicts_are_retryable_errors() {
    let (db, _) = setup();
    db.commit_writes(
        vec![Write::set(doc("/c/d"), [("v", Value::Int(0))])],
        &Caller::Service,
    )
    .unwrap();
    let mut holder = db.begin_transaction();
    holder.get(&doc("/c/d")).unwrap();
    let err = db
        .commit_writes(
            vec![Write::set(doc("/c/d"), [("v", Value::Int(1))])],
            &Caller::Service,
        )
        .unwrap_err();
    assert!(err.is_retryable());
    holder.abort();
    // Retry succeeds.
    db.commit_writes(
        vec![Write::set(doc("/c/d"), [("v", Value::Int(1))])],
        &Caller::Service,
    )
    .unwrap();
}

/// A batch with a failing member is atomic: nothing from the batch lands.
#[test]
fn failed_batch_is_all_or_nothing() {
    let (db, cache) = setup();
    let conn = cache.connect();
    conn.listen(
        db.directory(),
        Query::parse("/c").unwrap(),
        vec![],
        db.strong_read_ts(),
    );
    conn.poll();
    let batch = vec![
        Write::set(doc("/c/ok"), [("v", Value::Int(1))]),
        Write::update(doc("/c/missing"), [("v", Value::Int(2))]), // fails
    ];
    assert!(db.commit_writes(batch, &Caller::Service).is_err());
    assert_eq!(db.storage_stats().unwrap().0, 0);
    cache.tick();
    assert!(
        conn.poll().is_empty(),
        "listeners never observe the failed batch"
    );
}

// --- deterministic chaos layer ----------------------------------------------

/// Acceptance: a seeded [`FaultPlan`] run over the YCSB driver completes
/// with zero lost or duplicated writes, and the same seed reproduces the
/// identical fault trace, retry count, and final database state.
#[test]
fn seeded_ycsb_chaos_run_is_lossless_and_reproducible() {
    use firestore_core::{Backoff, RetryPolicy};
    use simkit::fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRule};
    use simkit::SimRng;
    use std::collections::HashMap;
    use workloads::ycsb::{YcsbConfig, YcsbGenerator, YcsbOp, YcsbWorkload};

    let run = |seed: u64| -> (Vec<FaultEvent>, u64, Vec<(String, i64)>) {
        let (db, _cache) = setup();
        let clock = db.spanner().truetime().clock().clone();
        let gen = YcsbGenerator::new(YcsbConfig {
            workload: YcsbWorkload::A,
            records: 40,
            field_size: 16,
        });
        let mut rng = SimRng::new(seed ^ 0xD1CE);
        gen.load(&db, &mut rng).unwrap();

        // Chaos starts after the load phase: tablets flap and locks time out.
        let plan = FaultPlan::new(seed)
            .rule(FaultRule::probabilistic(FaultKind::TabletUnavailable, 0.15))
            .rule(FaultRule::probabilistic(FaultKind::LockTimeout, 0.05));
        let injector = FaultInjector::new(clock.clone(), plan);
        db.spanner().set_fault_injector(Some(injector.clone()));

        // Each acknowledged update stamps its op index; `expected` tracks the
        // last acknowledged stamp per record.
        let mut expected: HashMap<String, i64> = HashMap::new();
        let mut retries = 0u64;
        for i in 0..150i64 {
            let op = gen.next_op(&mut rng);
            let mut backoff = Backoff::new(RetryPolicy::default(), clock.now().as_nanos());
            loop {
                let attempt = match &op {
                    YcsbOp::Read(name) => db
                        .get_document(name, Consistency::Strong, &Caller::Service)
                        .map(|_| ()),
                    YcsbOp::Update(name) => db
                        .commit_writes(
                            vec![Write::set(name.clone(), [("seq", Value::Int(i))])],
                            &Caller::Service,
                        )
                        .map(|_| ()),
                };
                match attempt {
                    Ok(()) => {
                        if let YcsbOp::Update(name) = &op {
                            expected.insert(name.to_string(), i);
                        }
                        break;
                    }
                    Err(e) if e.is_retriable() => match backoff.next_delay() {
                        Some(delay) => {
                            retries += 1;
                            clock.advance(delay);
                        }
                        // Budget exhausted: the op is abandoned; the fault
                        // fired before Spanner committed, so nothing may
                        // have been applied.
                        None => break,
                    },
                    Err(e) => panic!("unexpected non-retriable chaos error: {e}"),
                }
            }
        }
        db.spanner().set_fault_injector(None);

        // Zero lost, zero duplicated: every record carries exactly the stamp
        // of its last acknowledged update — an abandoned attempt never
        // half-applied, an acknowledged one never vanished.
        let mut state: Vec<(String, i64)> = Vec::new();
        for (path, seq) in &expected {
            let d = db
                .get_document(&doc(path), Consistency::Strong, &Caller::Service)
                .unwrap()
                .unwrap_or_else(|| panic!("acknowledged write to {path} was lost"));
            assert_eq!(
                d.fields["seq"],
                Value::Int(*seq),
                "{path} does not match its last acknowledged update"
            );
            state.push((path.clone(), *seq));
        }
        state.sort();
        (injector.trace(), retries, state)
    };

    let (trace_a, retries_a, state_a) = run(7);
    let (trace_b, retries_b, state_b) = run(7);
    assert!(!trace_a.is_empty(), "the plan must actually inject faults");
    assert!(retries_a > 0, "the workload must actually retry");
    assert_eq!(trace_a, trace_b, "same seed, same fault trace");
    assert_eq!(retries_a, retries_b, "same seed, same retry schedule");
    assert_eq!(state_a, state_b, "same seed, same final state");
}

/// §III-F triggers are at-least-once; a [`FaultKind::MessageDuplicate`]
/// window redelivers the same event on every drain, and an idempotent
/// handler (keyed by document name) converges to the same state.
#[test]
fn trigger_redelivery_under_duplication_is_idempotent() {
    use firestore_core::triggers::TriggerExecutor;
    use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
    use std::collections::HashMap;

    let (db, _) = setup();
    let clock = db.spanner().truetime().clock().clone();
    let tid = db.triggers().register("ratings");
    db.commit_writes(
        vec![Write::set(
            doc("/restaurants/one/ratings/1"),
            [("stars", Value::Int(5))],
        )],
        &Caller::Service,
    )
    .unwrap();

    // For the next 10 simulated seconds every dequeue redelivers without
    // acking (delivery observed, ack lost).
    let start = db.spanner().truetime().clock().now();
    let plan = FaultPlan::new(5).rule(FaultRule::scheduled(
        FaultKind::MessageDuplicate,
        start,
        start + Duration::from_secs(10),
    ));
    db.spanner()
        .set_fault_injector(Some(FaultInjector::new(clock.clone(), plan)));

    let mut applied: HashMap<String, Value> = HashMap::new();
    let mut deliveries = 0usize;
    for _ in 0..3 {
        deliveries += TriggerExecutor::drain(db.queue(), tid, 10, |ev| {
            if let Some(new) = &ev.new {
                applied.insert(ev.name.to_string(), new.fields["stars"].clone());
            }
        })
        .unwrap();
    }
    assert_eq!(deliveries, 3, "the duplicate fault must redeliver");
    assert_eq!(applied.len(), 1, "idempotent application collapses redeliveries");
    assert_eq!(applied["/restaurants/one/ratings/1"], Value::Int(5));

    // Outage over: one final delivery acks the message; the queue drains dry.
    clock.advance(Duration::from_secs(11));
    let n = TriggerExecutor::drain(db.queue(), tid, 10, |_| {}).unwrap();
    assert_eq!(n, 1);
    let n = TriggerExecutor::drain(db.queue(), tid, 10, |_| {}).unwrap();
    assert_eq!(n, 0, "acked messages must not redeliver");
}

/// Acceptance: a listen stream survives a mid-stream Real-time Cache outage
/// — it degrades to Spanner-backed polling, catches up, re-subscribes via
/// the changelog, and the subscriber sees every event exactly once.
#[test]
fn listen_stream_survives_cache_outage_without_missed_or_duplicate_events() {
    use realtime::{ChangeKind, ResilientListener};
    use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
    use std::collections::HashMap;

    let (db, cache) = setup();
    let clock = db.spanner().truetime().clock().clone();
    let conn = cache.connect();
    let mut listener = ResilientListener::listen(
        &db,
        &conn,
        Query::parse("/scores").unwrap(),
        Caller::Service,
    )
    .unwrap();
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut deliver = |events: Vec<realtime::ListenerEvent>| {
        for e in events {
            for c in &e.changes {
                assert_eq!(c.kind, ChangeKind::Added, "only fresh documents here");
                *seen.entry(c.doc.name.to_string()).or_default() += 1;
            }
        }
    };
    deliver(listener.poll().unwrap()); // empty initial snapshot

    // Streaming delivery while healthy.
    let put = |path: &str| {
        db.commit_writes(
            vec![Write::set(doc(path), [("v", Value::Int(1))])],
            &Caller::Service,
        )
        .unwrap();
    };
    put("/scores/a");
    cache.tick();
    deliver(listener.poll().unwrap());

    // The cache goes dark for 2 simulated seconds; writes keep landing.
    let start = clock.now();
    let plan = FaultPlan::new(13).rule(FaultRule::scheduled(
        FaultKind::CacheUnavailable,
        start,
        start + Duration::from_secs(2),
    ));
    listener.set_fault_injector(Some(FaultInjector::new(clock.clone(), plan)));
    put("/scores/b");
    deliver(listener.poll().unwrap());
    assert!(listener.is_degraded(), "outage must force polling fallback");
    put("/scores/c");
    deliver(listener.poll().unwrap());

    // Outage ends: the listener recovers and streams again.
    clock.advance(Duration::from_secs(3));
    deliver(listener.poll().unwrap());
    assert!(!listener.is_degraded(), "listener must re-subscribe");
    put("/scores/d");
    cache.tick();
    deliver(listener.poll().unwrap());

    assert_eq!(listener.stats().fallbacks, 1);
    assert_eq!(listener.stats().recoveries, 1);
    let mut names: Vec<_> = seen.keys().cloned().collect();
    names.sort();
    assert_eq!(names, ["/scores/a", "/scores/b", "/scores/c", "/scores/d"]);
    assert!(
        seen.values().all(|&n| n == 1),
        "every event exactly once across the outage: {seen:?}"
    );
}

/// A scheduled [`FaultKind::StalledConsumer`] window: one listener's client
/// stops draining mid-run. The fanout pipeline must shed it with a
/// voluntary `overload` reset — not stall the flush for everyone and not
/// queue its deltas unboundedly — while the conforming listener keeps
/// receiving every write on cadence. When the window ends, the shed
/// listener degrades, backs off, and catches up without loss.
#[test]
fn stalled_consumer_is_shed_with_overload_reset_not_a_pipeline_stall() {
    use realtime::{RealtimeOptions, ResilientListener};
    use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
    use simkit::SimClock;
    use spanner::SpannerDatabase;

    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let spanner = SpannerDatabase::new(clock.clone());
    let db = FirestoreDatabase::create_default(spanner.clone());
    let mut opts = RealtimeOptions::default();
    opts.fanout.stall_deadline = Duration::from_millis(300);
    let cache = RealtimeCache::new(spanner.truetime().clone(), opts);
    db.set_observer(cache.observer_for(db.directory()));

    let put = |path: &str, v: i64| {
        db.commit_writes(
            vec![Write::set(doc(path), [("v", Value::Int(v))])],
            &Caller::Service,
        )
        .unwrap();
    };
    put("/scores/seed", 0);

    let conn_ok = cache.connect();
    let mut ok =
        ResilientListener::listen(&db, &conn_ok, Query::parse("/scores").unwrap(), Caller::Service)
            .unwrap();
    let conn_slow = cache.connect();
    let mut slow = ResilientListener::listen(
        &db,
        &conn_slow,
        Query::parse("/scores").unwrap(),
        Caller::Service,
    )
    .unwrap();
    ok.poll().unwrap();
    slow.poll().unwrap();

    // The slow client goes dark for the next simulated second.
    let start = clock.now();
    let stall = FaultInjector::new(
        clock.clone(),
        FaultPlan::new(17).rule(FaultRule::scheduled(
            FaultKind::StalledConsumer,
            start,
            start + Duration::from_secs(1),
        )),
    );

    let mut ok_batches = 0usize;
    for i in 1..=10i64 {
        clock.advance(Duration::from_millis(200));
        put(&format!("/scores/w{i}"), i);
        cache.tick();
        // The conforming listener is never delayed by the stalled sibling:
        // every write arrives on the very next poll.
        let events = ok.poll().unwrap();
        assert!(
            events.iter().any(|e| !e.changes.is_empty()),
            "conforming listener stalled at write {i}"
        );
        ok_batches += 1;
        if !stall.should_inject(FaultKind::StalledConsumer, "poll") {
            slow.poll().unwrap();
        }
    }
    assert_eq!(ok_batches, 10);

    // The stalled listener was shed voluntarily (cause `overload`), its
    // queued deltas dropped rather than held: memory stays bounded.
    let stats = cache.stats();
    assert!(
        stats.resets_overload >= 1,
        "the stalled consumer must be overload-reset: {stats:?}"
    );
    assert_eq!(stats.resets_fault, 0, "no involuntary resets fired");
    assert!(stats.dropped_events > 0, "its queued deltas were dropped");
    assert_eq!(
        slow.stats().overload_resets_seen,
        1,
        "stats: {:?} cache: {stats:?}",
        slow.stats()
    );

    // Both listeners converge on the full final state.
    for _ in 0..6 {
        clock.advance(Duration::from_millis(200));
        cache.tick();
        ok.poll().unwrap();
        slow.poll().unwrap();
    }
    assert!(!slow.is_degraded(), "shed listener must recover");
    assert_eq!(ok.delivered_docs().len(), 11);
    assert_eq!(
        slow.delivered_docs().len(),
        11,
        "catch-up must recover every dropped delta"
    );
}

/// Crash recovery under a TrueTime uncertainty spike: replay waits out the
/// widened interval, replayed commits keep their original timestamps, and
/// post-recovery commits stay monotonic past the spike.
#[test]
fn recovery_correct_under_truetime_spike_during_replay() {
    use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
    use simkit::{CrashPoints, SimDisk};

    let (db, _) = setup();
    let spanner = db.spanner().clone();
    spanner.attach_durability(SimDisk::new());
    let cp = CrashPoints::new();
    spanner.set_crash_points(Some(cp.clone()));

    db.commit_writes(
        vec![Write::set(doc("/c/a"), [("v", Value::Int(1))])],
        &Caller::Service,
    )
    .unwrap();
    let acked = db
        .get_document(&doc("/c/a"), Consistency::Strong, &Caller::Service)
        .unwrap()
        .unwrap();

    // Crash in the ambiguous window of the second commit: durably logged,
    // never acknowledged.
    cp.arm("commit-after-outcome", 1);
    let err = db
        .commit_writes(
            vec![Write::set(doc("/c/b"), [("v", Value::Int(2))])],
            &Caller::Service,
        )
        .unwrap_err();
    assert!(matches!(err, FirestoreError::Unknown(_)));

    // A 500 ms uncertainty spike hits exactly during replay.
    let clock = spanner.truetime().clock().clone();
    let before = clock.now();
    let spike = Duration::from_millis(500);
    let plan = FaultPlan::new(7)
        .rule(FaultRule::probabilistic(FaultKind::TtUncertaintySpike, 1.0))
        .with_tt_spike(spike);
    spanner.set_fault_injector(Some(FaultInjector::new(clock.clone(), plan)));
    let report = spanner.recover();
    spanner.set_fault_injector(None);
    assert!(report.replayed_txns >= 1);
    assert!(
        clock.now() >= before + spike,
        "replay must wait out the widened uncertainty interval"
    );

    // Replayed state keeps its original commit timestamps.
    let a = db
        .get_document(&doc("/c/a"), Consistency::Strong, &Caller::Service)
        .unwrap()
        .unwrap();
    assert_eq!(a.update_time, acked.update_time);
    // The logged-but-unacked commit recovered too (outcome was durable).
    let b = db
        .get_document(&doc("/c/b"), Consistency::Strong, &Caller::Service)
        .unwrap()
        .unwrap();
    assert_eq!(b.fields["v"], Value::Int(2));
    // New commits are monotonic past the spike.
    db.commit_writes(
        vec![Write::set(doc("/c/c"), [("v", Value::Int(3))])],
        &Caller::Service,
    )
    .unwrap();
    let c = db
        .get_document(&doc("/c/c"), Consistency::Strong, &Caller::Service)
        .unwrap()
        .unwrap();
    assert!(c.update_time > b.update_time);
}

/// Crash recovery under message-dequeue drops: the transactional trigger
/// queue is redo-logged, so messages enqueued before the crash replay, and
/// dequeue drops active through the replay window neither lose nor
/// duplicate them — the delivery lands exactly once when the outage ends.
#[test]
fn message_drops_during_replay_do_not_lose_trigger_messages() {
    use firestore_core::triggers::TriggerExecutor;
    use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
    use simkit::SimDisk;

    let (db, _) = setup();
    let spanner = db.spanner().clone();
    spanner.attach_durability(SimDisk::new());
    let clock = spanner.truetime().clock().clone();
    let tid = db.triggers().register("ratings");

    db.commit_writes(
        vec![Write::set(
            doc("/restaurants/one/ratings/1"),
            [("stars", Value::Int(4))],
        )],
        &Caller::Service,
    )
    .unwrap();

    // Crash before the trigger drains; every dequeue attempt in the next
    // 10 simulated seconds is dropped, covering the replay window.
    let start = clock.now();
    let plan = FaultPlan::new(9).rule(FaultRule::scheduled(
        FaultKind::MessageDrop,
        start,
        start + Duration::from_secs(10),
    ));
    spanner.set_fault_injector(Some(FaultInjector::new(clock.clone(), plan)));
    spanner.crash();
    let report = spanner.recover();
    assert!(report.replayed_txns >= 1, "the enqueue commit must replay");

    // While drops are active the drain attempt fails but loses nothing.
    assert!(
        TriggerExecutor::drain(db.queue(), tid, 10, |_| {}).is_err(),
        "dequeue drops surface as transient failures"
    );

    // Outage over: the message survived crash + drops, delivering once.
    clock.advance(Duration::from_secs(11));
    let mut stars = Vec::new();
    let n = TriggerExecutor::drain(db.queue(), tid, 10, |ev| {
        if let Some(new) = &ev.new {
            stars.push(new.fields["stars"].clone());
        }
    })
    .unwrap();
    assert_eq!(n, 1, "exactly one delivery after recovery");
    assert_eq!(stars, vec![Value::Int(4)]);
    let n = TriggerExecutor::drain(db.queue(), tid, 10, |_| {}).unwrap();
    assert_eq!(n, 0, "no duplicate deliveries");
}

/// Every read path consults the chaos layer: under a certain
/// `TabletUnavailable` plan, point reads, transactional reads, transactional
/// descending queries and COUNTs in either direction all fail with a
/// retriable `Unavailable` rather than bypassing the fault.
#[test]
fn tablet_unavailability_reaches_every_read_path() {
    use firestore_core::Direction;
    use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};

    let (db, _) = setup();
    for i in 0..3i64 {
        db.commit_writes(
            vec![Write::set(doc(&format!("/c/d{i}")), [("v", Value::Int(i))])],
            &Caller::Service,
        )
        .unwrap();
    }
    let plan = FaultPlan::new(1).rule(FaultRule::probabilistic(FaultKind::TabletUnavailable, 1.0));
    let clock = db.spanner().truetime().clock().clone();
    db.spanner()
        .set_fault_injector(Some(FaultInjector::new(clock, plan)));

    let forward = Query::parse("/c").unwrap().order_by("v", Direction::Asc);
    let descending = Query::parse("/c").unwrap().order_by("v", Direction::Desc);
    let name = doc("/c/d0");
    let outcomes = [
        (
            "get_document",
            db.get_document(&name, Consistency::Strong, &Caller::Service)
                .err(),
        ),
        ("transaction get", db.begin_transaction().get(&name).err()),
        (
            "transactional descending query",
            db.begin_transaction().query(&descending).err(),
        ),
        (
            "forward count",
            db.run_count(&forward, Consistency::Strong, &Caller::Service)
                .err(),
        ),
        (
            "descending count",
            db.run_count(&descending, Consistency::Strong, &Caller::Service)
                .err(),
        ),
    ];
    for (read, err) in outcomes {
        match err {
            Some(e @ FirestoreError::Unavailable(_)) => assert!(e.is_retriable(), "{read}"),
            other => panic!("{read}: expected a retriable Unavailable, got {other:?}"),
        }
    }
}

/// A rules `exists()` lookup that fails must fail the request closed: a
/// banned user's query is refused with the retriable storage error instead
/// of the failed ban-list read counting as "not banned".
#[test]
fn failed_rules_lookup_refuses_instead_of_granting() {
    use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
    use simkit::SimRng;

    let (db, _) = setup();
    db.set_rules(
        r#"
        service cloud.firestore {
          match /databases/{db}/documents {
            match /posts/{post} {
              allow read: if !exists(/databases/$(db)/documents/bans/$(request.auth.uid));
            }
          }
        }
        "#,
    )
    .unwrap();
    db.commit_writes(
        vec![
            Write::set(doc("/posts/p"), [("v", Value::Int(1))]),
            Write::set(doc("/bans/mallory"), [("why", Value::from("spam"))]),
        ],
        &Caller::Service,
    )
    .unwrap();
    let posts = Query::parse("/posts").unwrap();
    let mallory = Caller::EndUser(Some(AuthContext::uid("mallory")));
    let alice = Caller::EndUser(Some(AuthContext::uid("alice")));
    assert!(matches!(
        db.run_query(&posts, Consistency::Strong, &mallory),
        Err(FirestoreError::PermissionDenied(_))
    ));
    assert_eq!(
        db.run_query(&posts, Consistency::Strong, &alice)
            .unwrap()
            .documents
            .len(),
        1
    );

    // The query consults the chaos layer for its scan, then its document
    // fetch, then once per rules lookup (twice in debug builds, where the
    // interpreter cross-checks the compiled tree). Pick the seed whose scan
    // and fetch pass and whose lookups fail.
    let p = 0.5;
    let seed = (0u64..)
        .find(|&s| {
            let mut r = SimRng::new(s);
            r.next_f64() >= p && r.next_f64() >= p && r.next_f64() < p && r.next_f64() < p
        })
        .unwrap();
    let plan = FaultPlan::new(seed).rule(FaultRule::probabilistic(FaultKind::TabletUnavailable, p));
    let clock = db.spanner().truetime().clock().clone();

    // Under the same seed, the service's query (no rules lookup) proves
    // that the scan and the fetch pass.
    let service = FaultInjector::new(clock.clone(), plan.clone());
    db.spanner().set_fault_injector(Some(service.clone()));
    let served = db.run_query(&posts, Consistency::Strong, &Caller::Service);
    assert_eq!(served.unwrap().documents.len(), 1);
    assert_eq!(service.stats().injected, 0, "scan and fetch must pass");
    let scan_and_fetch = service.stats().checked;

    let injector = FaultInjector::new(clock, plan);
    db.spanner().set_fault_injector(Some(injector.clone()));
    let refused = db.run_query(&posts, Consistency::Strong, &mallory);
    db.spanner().set_fault_injector(None);
    match refused {
        Err(e @ FirestoreError::Unavailable(_)) => assert!(e.is_retriable()),
        other => panic!("a failed ban-list lookup must refuse the read, got {other:?}"),
    }
    // The same decision stream passed the first `scan_and_fetch`
    // consultations, so the fault fired at the rules lookup after them.
    let stats = injector.stats();
    assert!(
        stats.injected >= 1 && stats.checked > scan_and_fetch,
        "{stats:?}"
    );
}
