//! Overload-safe fanout suite (§IV-D4 taken to overload territory).
//!
//! Fixed-seed chaos runs of the scaled fanout workload — seeded slow
//! consumers must be shed with a voluntary `overload` reset, conforming
//! listeners must stay on cadence, everyone converges, and the PR 5
//! consistency oracle checks the whole run.
//!
//! `FANOUT_SEED=<n>` overrides the built-in seed list (CI's nightly job
//! sweeps randomized seeds through it). When the oracle rejects a run, a
//! counterexample artifact with the config, the stats, and the full
//! violation report is written to `target/fanout_counterexample_<seed>.txt`
//! so the failure replays from the file alone.

mod common;

use firestore_core::database::doc;
use firestore_core::{Caller, Consistency, FirestoreDatabase, Query, Value, Write};
use realtime::{ListenEvent, RealtimeCache, RealtimeOptions, ResetCause};
use simkit::{Duration, SimClock};
use spanner::SpannerDatabase;
use std::path::PathBuf;
use workloads::fanout::{run_fanout, FanoutConfig, FanoutReport};

/// Seeds every CI run replays; `FANOUT_SEED` narrows the suite to one
/// externally chosen seed (the nightly randomized sweep).
const FIXED_SEEDS: &[u64] = &[0xFA_001, 0xFA_002, 7];

fn suite_seeds() -> Vec<u64> {
    match common::env_var("FANOUT_SEED") {
        Some(seed) => vec![seed],
        None => FIXED_SEEDS.to_vec(),
    }
}

/// Write the counterexample artifact and return its path for the panic
/// message.
fn write_counterexample(seed: u64, cfg: &FanoutConfig, report: &FanoutReport, why: &str) -> PathBuf {
    let path = common::artifact_path(&format!("fanout_counterexample_{seed}.txt"));
    let oracle = report
        .oracle
        .as_ref()
        .map(|o| o.report.clone())
        .unwrap_or_else(|| "(oracle disabled)".to_string());
    let body = format!(
        "fanout counterexample\n\
         =====================\n\
         reason: {why}\n\
         replay: FANOUT_SEED={seed} cargo test -p bench --test fanout_overload fixed_seed\n\
         config: {cfg:?}\n\
         notifications: {}\n\
         conforming_p50: {:.3}ms  conforming_p99: {:.3}ms\n\
         overload_resets: {}  fault_resets: {}\n\
         coalesced: {}  dropped_events: {}  peak_queue_bytes: {}\n\
         all_converged: {}  slow_recovered: {}\n\
         \n--- oracle report ---\n{oracle}\n",
        report.notifications,
        report.conforming_p50.as_millis_f64(),
        report.conforming_p99.as_millis_f64(),
        report.overload_resets,
        report.fault_resets,
        report.coalesced,
        report.dropped_events,
        report.peak_queue_bytes,
        report.all_converged,
        report.slow_recovered,
    );
    std::fs::write(&path, body).expect("write counterexample artifact");
    path
}

/// Check one chaos run's acceptance bundle; on any failure, persist the
/// counterexample artifact before panicking.
fn check_run(seed: u64, cfg: &FanoutConfig, report: &FanoutReport) {
    let fail = |why: &str| -> ! {
        let path = write_counterexample(seed, cfg, report, why);
        panic!("seed {seed}: {why} (counterexample at {})", path.display());
    };
    if report.notifications == 0 {
        fail("no notifications delivered to conforming listeners");
    }
    if report.overload_resets < cfg.slow as u64 {
        fail("stalled consumers were not all shed with an overload reset");
    }
    if report.fault_resets != 0 {
        fail("involuntary (fault) resets fired in an overload-only run");
    }
    if !report.slow_recovered {
        fail("a shed listener did not catch back up");
    }
    if !report.all_converged {
        fail("a listener's delivered state diverged from the final query result");
    }
    match &report.oracle {
        Some(o) if !o.passed() => fail("consistency oracle rejected the run"),
        None => fail("oracle was disabled for a suite run"),
        _ => {}
    }
}

/// The fixed-seed chaos suite: every seed must shed its slow consumers,
/// keep conforming listeners on cadence, converge everyone, and satisfy
/// the consistency oracle.
#[test]
fn fixed_seed_chaos_runs_shed_slow_consumers_and_pass_the_oracle() {
    for seed in suite_seeds() {
        let cfg = FanoutConfig {
            listeners: 48,
            slow: 2,
            ..FanoutConfig::new(seed)
        };
        let report = run_fanout(&cfg);
        check_run(seed, &cfg, &report);
    }
}

/// One slow consumer must never delay conforming listeners: the chaos
/// run's conforming delivery p99 stays within 2× of an identical run with
/// no slow consumers at all (floored at 1ms of sim time).
#[test]
fn conforming_p99_stays_within_2x_of_the_quiet_baseline() {
    let seed = 0xFA_0BA5Eu64;
    let mk = |slow: usize| FanoutConfig {
        listeners: 96,
        slow,
        ..FanoutConfig::new(seed)
    };
    let quiet = run_fanout(&mk(0));
    let loaded_cfg = mk(4);
    let loaded = run_fanout(&loaded_cfg);
    check_run(seed, &loaded_cfg, &loaded);
    let quiet_p99 = quiet.conforming_p99.as_nanos().max(1_000_000);
    if loaded.conforming_p99.as_nanos() > quiet_p99 * 2 {
        let path = write_counterexample(
            seed,
            &loaded_cfg,
            &loaded,
            "conforming p99 exceeded 2x the quiet baseline",
        );
        panic!(
            "conforming p99 {}ns vs quiet {}ns — slow consumers leaked delay \
             (counterexample at {})",
            loaded.conforming_p99.as_nanos(),
            quiet.conforming_p99.as_nanos(),
            path.display()
        );
    }
}

/// Satellite: two listeners multiplexing the *same query shape* on
/// different connections share Query Matcher routing, but resets are
/// per-listener. Shedding the stalled one must not reset the conforming
/// sibling, and must not duplicate or drop any of its events.
#[test]
fn overload_reset_of_one_multiplexed_listener_leaves_the_sibling_alone() {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let spanner = SpannerDatabase::new(clock.clone());
    let db = FirestoreDatabase::create_default(spanner.clone());
    let mut opts = RealtimeOptions::default();
    opts.fanout.stall_deadline = Duration::from_millis(300);
    let cache = RealtimeCache::new(&spanner, opts);
    db.set_observer(cache.observer_for(db.directory()));

    let put = |path: &str, v: i64| {
        db.commit_writes(
            vec![Write::set(doc(path), [("v", Value::Int(v))])],
            &Caller::Service,
        )
        .unwrap();
    };
    put("/scores/seed", 0);

    // Identical query shape on two connections: the matcher multiplexes
    // both registrations through the same decision-tree bucket.
    let listen = |conn: &realtime::Connection| {
        let query = Query::parse("/scores").unwrap();
        let ts = db.strong_read_ts();
        let docs = db
            .run_query(
                &query.without_window(),
                Consistency::AtTimestamp(ts),
                &Caller::Service,
            )
            .unwrap()
            .documents;
        let qid = conn.listen(db.directory(), query, docs, ts);
        conn.poll(); // drain the initial snapshot
        qid
    };
    let conn_ok = cache.connect();
    let qid_ok = listen(&conn_ok);
    let conn_stalled = cache.connect();
    let qid_stalled = listen(&conn_stalled);

    // Ten writes; the sibling drains every cycle, the stalled connection
    // never does.
    let mut ok_snapshots = 0usize;
    for i in 1..=10i64 {
        clock.advance(Duration::from_millis(200));
        put(&format!("/scores/w{i}"), i);
        cache.tick();
        for ev in conn_ok.poll() {
            match ev {
                ListenEvent::Snapshot { query, changes, .. } => {
                    assert_eq!(query, qid_ok);
                    assert_eq!(changes.len(), 1, "one delta per write, no duplicates");
                    ok_snapshots += 1;
                }
                ListenEvent::Reset { .. } => {
                    panic!("the conforming sibling must never be reset")
                }
            }
        }
    }
    assert_eq!(ok_snapshots, 10, "the sibling heard every write exactly once");

    // Only the stalled listener was shed, and only with cause `overload`.
    let stats = cache.stats();
    assert_eq!(stats.resets_overload, 1, "exactly one listener shed: {stats:?}");
    assert_eq!(stats.resets_fault, 0);
    let drained = conn_stalled.poll();
    assert!(
        drained.iter().any(|e| matches!(
            e,
            ListenEvent::Reset { query, cause: ResetCause::Overload } if *query == qid_stalled
        )),
        "the stalled listener sees its own overload reset: {drained:?}"
    );
    assert!(
        !drained
            .iter()
            .any(|e| matches!(e, ListenEvent::Snapshot { changes, .. } if !changes.is_empty())),
        "shed queued deltas are dropped, not replayed: {drained:?}"
    );

    // The sibling's registration survived in the matcher: the next write
    // still routes to it.
    clock.advance(Duration::from_millis(200));
    put("/scores/after", 99);
    cache.tick();
    let events = conn_ok.poll();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ListenEvent::Snapshot { changes, .. } if !changes.is_empty())),
        "sibling keeps streaming after the shed: {events:?}"
    );
}

/// Regression: the stall clock measures how long an event has waited, not
/// how long ago the client last polled. A healthy listener idle for longer
/// than the stall deadline must not be shed by the first event that reaches
/// it, as long as it polls that event within the deadline.
#[test]
fn idle_listener_is_not_shed_by_its_first_event() {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let spanner = SpannerDatabase::new(clock.clone());
    let db = FirestoreDatabase::create_default(spanner.clone());
    let cache = RealtimeCache::new(&spanner, RealtimeOptions::default());
    db.set_observer(cache.observer_for(db.directory()));
    let deadline = RealtimeOptions::default().fanout.stall_deadline;

    let query = Query::parse("/scores").unwrap();
    let ts = db.strong_read_ts();
    let conn = cache.connect();
    let qid = conn.listen(db.directory(), query, Vec::new(), ts);
    conn.poll(); // the initial snapshot

    // Idle for 60 simulated seconds, twice the deadline: nothing to poll.
    clock.advance(Duration::from_secs(60));
    assert!(Duration::from_secs(60) > deadline);
    cache.tick();
    db.commit_writes(
        vec![Write::set(doc("/scores/a"), [("v", Value::Int(1))])],
        &Caller::Service,
    )
    .unwrap();
    cache.tick();
    clock.advance(Duration::from_secs(1));
    cache.tick();

    let events = conn.poll();
    assert!(
        events.iter().any(|e| matches!(
            e,
            ListenEvent::Snapshot { query, changes, .. } if *query == qid && changes.len() == 1
        )),
        "the first event after the idle spell is delivered: {events:?}"
    );
    assert!(
        !events.iter().any(|e| matches!(e, ListenEvent::Reset { .. })),
        "a listener that polls within the deadline is not reset: {events:?}"
    );
    assert_eq!(cache.stats().resets_overload, 0);
}
