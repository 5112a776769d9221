//! History-based consistency oracle: capstone suite.
//!
//! A seeded chaos workload (`workloads::history`) drives the full stack
//! with a [`simkit::history::HistoryRecorder`] attached to every layer;
//! `firestore_core::checker::check_history` then replays the recorded
//! history against a model store and verifies strict serializability,
//! listener-snapshot consistency, and exactly-once application of acked
//! client mutations.
//!
//! Two families:
//!
//! * **Oracle passes** on clean (but chaotic, crashing) runs across
//!   several seeds. `HISTORY_SEED=<u64>` adds a seed (nightly CI sets a
//!   random one); on failure the rendered counterexample is written to
//!   `target/consistency_counterexample_<seed>.txt` for the CI artifact.
//! * **Oracle mutation tests**: each test-only toggle deliberately breaks
//!   one invariant, and the checker must FAIL with a counterexample naming
//!   the offending operation — proving the oracle can actually see each
//!   class of bug.

mod common;

use firestore_core::checker::{check_history, doc_digest, OracleReport};
use firestore_core::database::doc;
use firestore_core::{Caller, Consistency, Query, Value, Write};
use simkit::{CrashPoints, Duration};
use workloads::{run_history_workload, HistoryConfig, HistoryWorld};

fn check(world: &HistoryWorld, out: &workloads::HistoryOutcome) -> OracleReport {
    check_history(
        &world.recorder.events(),
        world.db.directory(),
        &out.queries,
        out.final_ts,
    )
}


/// The oracle accepts histories from seeded chaos + crash-recovery runs.
#[test]
fn oracle_passes_on_seeded_chaos_workloads() {
    let fixed = [0x0A11CE, 0xB0B5EED, 0xC3D4E5];
    let mut seeds: Vec<u64> = fixed.to_vec();
    if let Some(seed) = common::env_var("HISTORY_SEED") {
        println!("consistency oracle: HISTORY_SEED={seed}");
        seeds.push(seed);
    }
    for seed in seeds {
        let world = HistoryWorld::build();
        let out = run_history_workload(&world, &HistoryConfig::new(seed));
        assert!(out.commits > 0, "seed {seed}: workload committed nothing");
        if fixed.contains(&seed) {
            // The chaos plan declares fsync failures; the run must fire them.
            assert!(
                out.faults.iter().any(|f| f.site == "disk-fsync"),
                "seed {seed}: the chaos run injected no disk-fsync fault"
            );
        }
        let report = check(&world, &out);
        if !report.passed() {
            let path = common::artifact_path(&format!("consistency_counterexample_{seed}.txt"));
            let _ = std::fs::write(&path, &report.report);
            panic!(
                "seed {seed}: oracle rejected a clean history \
                 ({} violations; counterexample at {}):\n{}",
                report.violations.len(),
                path.display(),
                report.report
            );
        }
        println!(
            "seed {seed}: {} events, {} commits, {} crashes — oracle passed",
            report.events, out.commits, out.crashes
        );
    }
}

fn assert_rejects(report: &OracleReport, kind: &str, context: &str) {
    assert!(
        !report.passed(),
        "{context}: the oracle must reject the mutated history"
    );
    assert!(
        report.violations.iter().any(|v| v.kind == kind),
        "{context}: expected a `{kind}` violation, got {:?}",
        report
            .violations
            .iter()
            .map(|v| v.kind)
            .collect::<Vec<_>>()
    );
    // The rendered counterexample pinpoints the offending operation.
    assert!(
        report.report.contains(">>"),
        "{context}: the report must mark the offending event"
    );
}

/// Mutation 1: Spanner serves snapshot reads from an older timestamp than
/// requested while recording the requested one — a stale read the
/// serializability check must catch.
#[test]
fn oracle_rejects_stale_snapshot_reads() {
    let world = HistoryWorld::build();
    world
        .spanner
        .oracle_serve_stale_reads(Some(Duration::from_millis(40)));
    let mut cfg = HistoryConfig::new(0x57A1E);
    cfg.chaos = false; // isolate the mutation
    cfg.max_crashes = 0;
    let out = run_history_workload(&world, &cfg);
    let report = check(&world, &out);
    assert!(
        !report.passed(),
        "stale reads must not produce an accepted history"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == "stale-read" || v.kind == "doc-read-mismatch"
                || v.kind == "listener-snapshot-divergence"),
        "expected a stale-read-class violation, got {:?}",
        report.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
    );
    assert!(report.report.contains(">>"));
}

/// Mutation 2: the Real-time Cache silently skips changelog entries —
/// listeners never see those writes, so their snapshots diverge from the
/// model query results (and never converge).
#[test]
fn oracle_rejects_dropped_changelog_entries() {
    let world = HistoryWorld::build();
    world.cache.oracle_drop_next_changes(6);
    let mut cfg = HistoryConfig::new(0xD20BED);
    cfg.chaos = false;
    cfg.max_crashes = 0;
    let out = run_history_workload(&world, &cfg);
    let report = check(&world, &out);
    assert!(
        !report.passed(),
        "dropped changelog entries must not produce an accepted history"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == "listener-snapshot-divergence"
                || v.kind == "listener-non-convergence"),
        "expected a listener-delivery violation, got {:?}",
        report.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
    );
}

/// Mutation 3: the cache delivers a held-back snapshot after a newer one —
/// per-listener timestamps go backwards.
#[test]
fn oracle_rejects_reordered_listener_delivery() {
    let world = HistoryWorld::build();
    world.cache.oracle_reorder_delivery(true);
    let mut cfg = HistoryConfig::new(0x2E02DE2);
    cfg.chaos = false;
    cfg.max_crashes = 0;
    let out = run_history_workload(&world, &cfg);
    let report = check(&world, &out);
    assert_rejects(&report, "listener-ts-regression", "reordered delivery");
}

/// Mutation 4: the commit path pretends the dedup-ledger row is absent, so
/// a client retry after an ambiguous crash applies the mutation twice.
#[test]
fn oracle_rejects_double_applied_client_mutation() {
    use client::{ClientOptions, FirestoreClient};

    let world = HistoryWorld::build();
    let client = FirestoreClient::connect(
        world.db.clone(),
        world.cache.clone(),
        ClientOptions::default(),
    );
    client
        .set("/c/a1", [("v", Value::Int(1))])
        .expect("clean first write");

    // Arm a crash after the commit (document + ledger row) is durable but
    // before the ack: the flush sees an ambiguous outcome and the write
    // stays queued.
    let points = CrashPoints::new();
    points.arm("commit-after-outcome", 0);
    world.spanner.set_crash_points(Some(points));
    let _ = client.set("/c/a1", [("v", Value::Int(2))]);
    assert!(world.spanner.crashed(), "armed crash must fire");
    assert_eq!(client.pending_writes(), 1, "ambiguous write stays queued");
    world.spanner.set_crash_points(None);
    let _report = world.spanner.recover();

    // Recovery restored the committed-but-unacked mutation. Now break the
    // dedup ledger and retry: the commit applies a second time.
    world.db.oracle_ignore_dedup_ledger(true);
    world.clock.advance(Duration::from_secs(5));
    client.sync().expect("retry flush succeeds");
    assert_eq!(client.pending_writes(), 0);

    let final_ts = world.db.strong_read_ts();
    let report = check_history(
        &world.recorder.events(),
        world.db.directory(),
        &Default::default(),
        final_ts,
    );
    assert_rejects(&report, "duplicate-apply", "ignored dedup ledger");
    let dup = report
        .violations
        .iter()
        .find(|v| v.kind == "duplicate-apply")
        .unwrap();
    assert!(
        dup.detail.contains("client-"),
        "counterexample names the offending dedup id: {}",
        dup.detail
    );
}

/// Differential check (no oracle): after a ResilientListener degrades to
/// polling during a cache outage and recovers, its delivered result set
/// equals a fresh direct query at its last delivered timestamp.
#[test]
fn resilient_listener_matches_direct_query_after_degrade_recover() {
    use realtime::ResilientListener;
    use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};

    let w = common::world_with_rules();
    let conn = w.cache.connect();
    let query = Query::parse("/scores").unwrap();
    let mut listener =
        ResilientListener::listen(&w.db, &conn, query.clone(), Caller::Service).unwrap();
    let _ = listener.poll().unwrap();

    let put = |path: &str, v: i64| {
        w.db.commit_writes(
            vec![Write::set(doc(path), [("v", Value::Int(v))])],
            &Caller::Service,
        )
        .unwrap();
    };
    put("/scores/a", 1);
    w.cache.tick();
    let _ = listener.poll().unwrap();

    // Outage window: the stream severs and the listener degrades.
    let start = w.clock.now();
    let plan = FaultPlan::new(99).rule(FaultRule::scheduled(
        FaultKind::CacheUnavailable,
        start,
        start + Duration::from_secs(2),
    ));
    listener.set_fault_injector(Some(FaultInjector::new(w.clock.clone(), plan)));
    put("/scores/b", 2);
    let _ = listener.poll().unwrap();
    assert!(listener.is_degraded());
    put("/scores/c", 3);
    let _ = listener.poll().unwrap();

    // Outage over: recover, then keep streaming.
    w.clock.advance(Duration::from_secs(3));
    let _ = listener.poll().unwrap();
    assert!(!listener.is_degraded());
    put("/scores/d", 4);
    w.cache.tick();
    let _ = listener.poll().unwrap();

    // Differential: delivered state vs a fresh authoritative query at the
    // listener's last delivered timestamp.
    let delivered: Vec<(String, u64)> = listener
        .delivered_docs()
        .iter()
        .map(|d| (d.name.to_string(), doc_digest(d)))
        .collect();
    let fresh: Vec<(String, u64)> = w
        .db
        .run_query(
            &query,
            Consistency::AtTimestamp(listener.last_ts()),
            &Caller::Service,
        )
        .unwrap()
        .documents
        .iter()
        .map(|d| (d.name.to_string(), doc_digest(d)))
        .collect();
    assert_eq!(
        delivered, fresh,
        "degrade→recover delivered state diverged from a direct query"
    );
}

/// Differential check: after a crash, `cache.restart` + `QueryView::catch_up`
/// leave every listener's view identical to a fresh direct query at the
/// restart snapshot timestamp (digest-level, via the recorded history).
#[test]
fn catch_up_snapshot_matches_direct_query() {
    use realtime::ListenEvent;
    use simkit::history::HistoryEvent;

    let world = HistoryWorld::build();
    let put = |path: &str, v: i64| {
        world
            .db
            .commit_writes(
                vec![Write::set(doc(path), [("v", Value::Int(v))])],
                &Caller::Service,
            )
            .map(|_| ())
    };
    put("/c/a1", 1).unwrap();
    let conn = world.cache.connect();
    let query = Query::parse("/c").unwrap();
    let ts0 = world.db.strong_read_ts();
    let initial = world
        .db
        .run_query(&query, Consistency::AtTimestamp(ts0), &Caller::Service)
        .unwrap();
    let qid = conn.listen(world.db.directory(), query.clone(), initial.documents, ts0);
    let _ = conn.poll();

    put("/c/b2", 2).unwrap();
    world.cache.tick();
    let _ = conn.poll();

    // Crash between operations; the cache's volatile state dies with it.
    world.spanner.crash();
    let _ = world.spanner.recover();
    let ts = world.db.strong_read_ts();
    // Mutate storage "behind the cache's back" is impossible here — but a
    // commit while the cache is down would be; simulate by a commit whose
    // change is delivered only via catch_up.
    put("/c/k3", 3).unwrap();
    world.cache.restart(
        |q| {
            world
                .db
                .run_query(
                    &q.without_window(),
                    Consistency::AtTimestamp(ts),
                    &Caller::Service,
                )
                .map(|r| r.documents)
        },
        ts,
    );
    let events = conn.poll();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ListenEvent::Snapshot { .. })),
        "catch-up must deliver the missed write"
    );

    // The recorded catch-up snapshot equals a fresh direct query at ts.
    let recorded = world.recorder.events();
    let last = recorded
        .iter()
        .rev()
        .find_map(|r| match &r.event {
            HistoryEvent::ListenerSnapshot {
                query: q, visible, ..
            } if *q == qid.0 => Some(visible.clone()),
            _ => None,
        })
        .expect("catch-up snapshot recorded");
    let fresh: Vec<(String, u64)> = world
        .db
        .run_query(&query, Consistency::AtTimestamp(ts), &Caller::Service)
        .unwrap()
        .documents
        .iter()
        .map(|d| (d.name.to_string(), doc_digest(d)))
        .collect();
    assert_eq!(last, fresh, "catch-up snapshot diverged from direct query");
}

/// An unmutated focused run (no chaos, no crashes) also passes — the
/// oracle isn't only permissive under noise.
#[test]
fn oracle_passes_on_quiet_run() {
    let world = HistoryWorld::build();
    let mut cfg = HistoryConfig::new(42);
    cfg.chaos = false;
    cfg.max_crashes = 0;
    cfg.steps = 80;
    let out = run_history_workload(&world, &cfg);
    let report = check(&world, &out);
    assert!(
        report.passed(),
        "quiet run rejected:\n{}",
        report.report
    );
    // Ambiguity-free runs must exercise all three checker families.
    let events = world.recorder.events();
    use simkit::history::HistoryEvent;
    assert!(events.iter().any(|r| matches!(r.event, HistoryEvent::Commit { .. })));
    assert!(events.iter().any(|r| matches!(r.event, HistoryEvent::ClientAck { .. })));
    assert!(events
        .iter()
        .any(|r| matches!(r.event, HistoryEvent::ListenerSnapshot { .. })));
}
