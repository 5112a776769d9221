//! Observability conformance: deterministic tracing, metrics coverage, and
//! EXPLAIN over the query-conformance corpus.
//!
//! Three suites:
//! * **Trace determinism** — two runs of the same seeded chaos workload
//!   must render byte-identical traces and metrics snapshots; the trace is
//!   diffable evidence of what the engine did.
//! * **Metrics coverage** — a mixed workload (commits, reads, queries,
//!   counts, listens, client flush with injected faults) must light up every
//!   instrumented metric family, so a renamed or dropped site fails here
//!   rather than silently disappearing from dashboards.
//! * **EXPLAIN golden** — every valid query in the conformance corpus must
//!   render a plan, and EXPLAIN ANALYZE must agree with the executor's
//!   actual work counters.

mod common;

use client::{ClientOptions, FirestoreClient};
use firestore_core::database::{create_index_blocking, doc};
use firestore_core::index::IndexedField;
use firestore_core::{
    Caller, Consistency, Direction, FilterOp, FirestoreError, Query, Value, Write,
};
use server::{FirestoreService, ServiceOptions};
use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
use simkit::{Duration, SimClock, SimDisk, SimRng};

// --- seeded chaos workload ---------------------------------------------------

/// Run a seeded mixed workload (with fault-injection chaos) through the full
/// service and return the rendered trace, the metrics snapshot text, and the
/// folded profile (tree rendering + collapsed-stack export).
fn seeded_chaos_run(seed: u64) -> (String, String, String) {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let svc = FirestoreService::new(
        clock.clone(),
        ServiceOptions {
            obs_seed: seed,
            ..ServiceOptions::default()
        },
    );
    svc.spanner().attach_durability(SimDisk::new());
    let _db = svc.create_database("trace");
    let mut rng = SimRng::new(seed ^ 0x0B5);

    // One real-time listener so commits fan out.
    let conn = svc.connect();
    svc.listen("trace", &conn, Query::parse("/c").unwrap(), &Caller::Service)
        .expect("listen");

    // Chaos: locks time out and tablets flap, YCSB-style (§PR1 substrate).
    let plan = FaultPlan::new(seed)
        .rule(FaultRule::probabilistic(FaultKind::LockTimeout, 0.08))
        .rule(FaultRule::probabilistic(FaultKind::TabletUnavailable, 0.08));
    svc.spanner()
        .env()
        .set_chaos(Some(FaultInjector::new(clock.clone(), plan)));

    for i in 0..60i64 {
        let key = rng.gen_range(20);
        match rng.gen_range(3) {
            0 => {
                // Writes retry on chaos with deterministic backoff.
                let mut backoff = firestore_core::Backoff::new(
                    firestore_core::RetryPolicy::default(),
                    clock.now().as_nanos(),
                );
                loop {
                    let w = Write::set(doc(&format!("/c/d{key:02}")), [("seq", Value::Int(i))]);
                    match svc.commit("trace", vec![w], &Caller::Service, &mut rng) {
                        Ok(_) => break,
                        Err(e) if e.is_retryable() => match backoff.next_delay() {
                            Some(d) => {
                                clock.advance(d);
                            }
                            None => break,
                        },
                        Err(e) => panic!("unexpected chaos error: {e}"),
                    }
                }
            }
            1 => {
                let name = doc(&format!("/c/d{key:02}"));
                let _ = svc.get_document("trace", &name, &Caller::Service, &mut rng);
            }
            _ => {
                let q = Query::parse("/c")
                    .unwrap()
                    .order_by("seq", Direction::Asc)
                    .limit(5);
                let _ = svc.run_query("trace", &q, &Caller::Service, &mut rng);
            }
        }
        svc.realtime().tick();
    }
    svc.spanner().env().set_chaos(None);

    let trace = svc.obs().tracer.render();
    let metrics = svc.obs().metrics.snapshot().to_text();
    let profile = simkit::FoldedProfile::fold(&svc.obs().tracer.finished_since(0));
    let profile_text = format!("{}---\n{}", profile.render(), profile.collapsed());
    (trace, metrics, profile_text)
}

/// Fixed-seed runs are byte-identical — the trace is diffable.
#[test]
fn same_seed_chaos_runs_render_identical_traces() {
    let (trace_a, metrics_a, _) = seeded_chaos_run(0xAB);
    let (trace_b, metrics_b, _) = seeded_chaos_run(0xAB);
    assert!(
        trace_a.contains("spanner.commit"),
        "chaos run must actually commit:\n{trace_a}"
    );
    assert!(trace_a.lines().count() > 100, "trace must be substantial");
    assert_eq!(trace_a, trace_b, "same seed must render the same trace");
    assert_eq!(metrics_a, metrics_b, "same seed, same metrics snapshot");
}

/// Different seeds diverge (different trace ids, different interleavings) —
/// the determinism above is seed-derived, not hard-coded.
#[test]
fn different_seeds_render_different_traces() {
    let (trace_a, _, _) = seeded_chaos_run(0xAB);
    let (trace_c, _, _) = seeded_chaos_run(0xAC);
    assert_ne!(trace_a, trace_c);
}

// --- folded profiles ---------------------------------------------------------

/// Same seed, byte-identical folded profile (tree + collapsed stacks) — the
/// profile is diffable CI evidence, like the trace. The hot-path attribution
/// spans must all appear: per-index maintenance, redo append/fsync, lock
/// acquire/release, commit wait.
#[test]
fn same_seed_chaos_runs_fold_identical_profiles() {
    let (_, _, profile_a) = seeded_chaos_run(0xAB);
    let (_, _, profile_b) = seeded_chaos_run(0xAB);
    assert_eq!(
        profile_a, profile_b,
        "same seed must fold byte-identical profiles"
    );
    for frame in [
        "core.index.maintain",
        "spanner.redo.append",
        "spanner.redo.fsync",
        "spanner.lock.acquire",
        "spanner.lock.release",
        "spanner.commit_wait",
        "core.commit_pipeline",
    ] {
        assert!(
            profile_a.contains(frame),
            "attribution span `{frame}` missing from profile:\n{profile_a}"
        );
    }
    // The collapsed export carries stack paths (`a;b;c self_ns`), so the
    // index-maintenance cost is attributed under its commit ancestry.
    assert!(
        profile_a.contains("core.commit_pipeline;"),
        "collapsed stacks must nest under the pipeline:\n{profile_a}"
    );
    let (_, _, profile_c) = seeded_chaos_run(0xAC);
    assert_ne!(profile_a, profile_c, "profiles are seed-derived");
}

/// The profiler's per-phase self-time reconciles against the service's
/// `PhaseBreakdown` totals: the *measured* phases (lock_wait, commit_wait)
/// agree exactly, and the engine's charged CPU is a lower bound on the
/// profiler's execute-phase self-time, which in turn is bounded by the
/// breakdown's (modeled-cost-inclusive) execute total.
#[test]
fn profiler_phase_self_time_reconciles_with_breakdowns() {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let svc = FirestoreService::new(
        clock.clone(),
        ServiceOptions {
            obs_seed: 0x9EC0,
            ..ServiceOptions::default()
        },
    );
    svc.spanner().attach_durability(SimDisk::new());
    let _db = svc.create_database("rec");
    let mut rng = SimRng::new(0x9EC0);

    // TabletUnavailable only: it injects *before* lock acquisition, so every
    // lock/commit-wait/redo span in the trace belongs to a successful commit
    // and the breakdown sums match the profiler exactly. (LockTimeout chaos
    // would leave partial-wait acquire spans with no matching breakdown.)
    let plan = simkit::fault::FaultPlan::new(0x9EC0)
        .rule(FaultRule::probabilistic(FaultKind::TabletUnavailable, 0.10));
    svc.spanner()
        .env()
        .set_chaos(Some(FaultInjector::new(clock.clone(), plan)));

    let mut lock_wait_total = Duration::ZERO;
    let mut commit_wait_total = Duration::ZERO;
    let mut engine_cpu_total = Duration::ZERO;
    for i in 0..40i64 {
        let mut backoff = firestore_core::Backoff::new(
            firestore_core::RetryPolicy::default(),
            clock.now().as_nanos(),
        );
        loop {
            let w = Write::set(doc(&format!("/c/d{:02}", i % 12)), [("seq", Value::Int(i))]);
            match svc.commit("rec", vec![w], &Caller::Service, &mut rng) {
                Ok((result, served)) => {
                    lock_wait_total += served.breakdown.lock_wait;
                    commit_wait_total += served.breakdown.commit_wait;
                    engine_cpu_total += result.stats.engine_cpu;
                    break;
                }
                Err(e) if e.is_retryable() => match backoff.next_delay() {
                    Some(d) => {
                        clock.advance(d);
                    }
                    None => break,
                },
                Err(e) => panic!("unexpected chaos error: {e}"),
            }
        }
    }
    svc.spanner().env().set_chaos(None);

    let profile = simkit::FoldedProfile::fold(&svc.obs().tracer.finished_since(0));
    let phases = profile.phase_self_times();
    let self_of = |p: &str| phases.get(p).copied().unwrap_or(Duration::ZERO);

    assert!(
        commit_wait_total > Duration::ZERO,
        "TrueTime commit wait must be real time"
    );
    assert_eq!(
        self_of("commit_wait"),
        commit_wait_total,
        "spanner.commit_wait spans bracket exactly the measured wait"
    );
    assert_eq!(
        self_of("lock_wait"),
        lock_wait_total,
        "spanner.lock.acquire spans bracket exactly the measured lock wait"
    );

    // Execute: the profiler sees every clock charge made under engine spans.
    // Successful commits' `engine_cpu` is a lower bound (attempts that
    // charged index maintenance and then died on the commit-entry fault are
    // profiled but not reported), and the modeled breakdown `execute`
    // (RPC + storage-latency costs that never elapse on the clock) is far
    // above it — so the measured value must sit in between, close to the
    // ledger.
    let execute_self = self_of("execute");
    assert!(
        engine_cpu_total > Duration::ZERO,
        "the cost ledger must have charged engine work"
    );
    assert!(
        execute_self >= engine_cpu_total,
        "execute self-time {}ns < charged engine CPU {}ns",
        execute_self.as_nanos(),
        engine_cpu_total.as_nanos()
    );
    assert!(
        execute_self.as_nanos() <= engine_cpu_total.as_nanos() * 3 / 2,
        "execute self-time {}ns strays >50% above the charged ledger {}ns — \
         unattributed clock advances under engine spans",
        execute_self.as_nanos(),
        engine_cpu_total.as_nanos()
    );
}

// --- metrics coverage --------------------------------------------------------

/// Every instrumented site fires under a seeded mixed workload: the metric
/// families below are the contract between the engine and its dashboards.
#[test]
fn mixed_workload_lights_up_every_metric_family() {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let svc = FirestoreService::new(clock.clone(), ServiceOptions::default());
    svc.spanner().attach_durability(SimDisk::new());
    let db = svc.create_database("cov");
    let mut rng = SimRng::new(0xC0FE);

    // Listener first, so commit fanout has a target.
    let conn = svc.connect();
    svc.listen("cov", &conn, Query::parse("/c").unwrap(), &Caller::Service)
        .expect("listen");

    // Service-path traffic: commits, reads, queries.
    for i in 0..10i64 {
        let w = Write::set(doc(&format!("/c/d{i:02}")), [("v", Value::Int(i))]);
        svc.commit("cov", vec![w], &Caller::Service, &mut rng)
            .expect("commit");
        svc.realtime().tick();
    }
    let name = doc("/c/d00");
    svc.get_document("cov", &name, &Caller::Service, &mut rng)
        .expect("get");
    let q = Query::parse("/c")
        .unwrap()
        .order_by("v", Direction::Asc)
        .limit(3);
    svc.run_query("cov", &q, &Caller::Service, &mut rng)
        .expect("query");
    db.run_count(&q.clone().without_window(), Consistency::Strong, &Caller::Service)
        .expect("count");

    // Client flush under a fault window: the first attempts hit lock
    // timeouts, backoff advances the clock past the window, then the flush
    // lands — exercising the retry metrics deterministically.
    db.set_rules(
        r#"
        service cloud.firestore {
          match /databases/{db}/documents {
            match /{document=**} { allow read, write; }
          }
        }
        "#,
    )
    .unwrap();
    let client = FirestoreClient::connect(
        db.clone(),
        svc.realtime().clone(),
        ClientOptions {
            auth: Some(rules::AuthContext::uid("u")),
        },
    );
    let now = clock.now();
    let plan = FaultPlan::new(7).rule(FaultRule::scheduled(
        FaultKind::LockTimeout,
        now,
        now + Duration::from_millis(20),
    ));
    svc.spanner()
        .env()
        .set_chaos(Some(FaultInjector::new(clock.clone(), plan)));
    client.set("/c/flushed", [("v", Value::Int(1))]).expect("set");
    client.flush().expect("flush");
    svc.spanner().env().set_chaos(None);
    client.flush().expect("flush after chaos");
    assert_eq!(client.pending_writes(), 0, "flush must eventually land");

    let snapshot = svc.obs().metrics.snapshot();
    let families = [
        // service entry
        "service.admission.admitted",
        "service.listens",
        "phase_ms",
        // planner/executor
        "query.runs",
        "query.entries_examined",
        "query.entries_returned",
        "query.seeks",
        "query.docs_fetched",
        "query.bytes_returned",
        // spanner commit pipeline + durability
        "spanner.commits",
        "spanner.lock_wait_ms",
        "spanner.commit_wait_ms",
        "spanner.redo.prepares",
        "spanner.redo.outcomes",
        "spanner.redo.fsyncs",
        // real-time cache
        "rtc.prepares",
        "rtc.accepts",
        "rtc.fanout.notifications",
        // client SDK
        "client.flushes",
        "client.flush.retries",
        "client.flush.backoff_ms",
    ];
    for family in families {
        assert!(
            snapshot.has_series(family),
            "instrumented site `{family}` never fired; series present:\n{}",
            snapshot.to_text()
        );
    }
    assert!(
        svc.obs().metrics.counter_value("client.flush.retries", &[]) >= 1,
        "the fault window must force at least one flush retry"
    );
}

// --- EXPLAIN over the conformance corpus -------------------------------------

// The corpus generators mirror tests/query_conformance.rs (same seed, same
// distributions) so EXPLAIN is exercised over exactly the query shapes the
// differential suite validates for correctness.

const FIELDS: [&str; 3] = ["a", "b", "c"];
const CONFORMANCE_SEED: u64 = 0xF1DE_5707;

fn pool_value(rng: &mut SimRng) -> Value {
    match rng.gen_range(9) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 | 3 => Value::Int(rng.gen_range(5) as i64),
        4 => Value::Double(rng.gen_range(5) as f64),
        5 => Value::Double(rng.gen_range(5) as f64 + 0.5),
        6 | 7 => Value::Str(["x", "y", "z", "zz"][rng.gen_range(4) as usize].to_string()),
        _ => Value::Array(
            (0..1 + rng.gen_range(3))
                .map(|_| Value::Int(rng.gen_range(3) as i64))
                .collect(),
        ),
    }
}

fn build_world(rng: &mut SimRng) -> firestore_core::database::FirestoreDatabase {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let db = firestore_core::database::FirestoreDatabase::create_default(
        spanner::SpannerDatabase::new(clock),
    );
    for e in FIELDS {
        for s in FIELDS {
            if e == s {
                continue;
            }
            create_index_blocking(&db, "c", vec![IndexedField::asc(e), IndexedField::asc(s)])
                .unwrap();
            create_index_blocking(&db, "c", vec![IndexedField::asc(e), IndexedField::desc(s)])
                .unwrap();
        }
    }
    let n = 20 + rng.gen_range(41) as usize;
    let mut writes = Vec::with_capacity(n);
    for i in 0..n {
        let name = doc(&format!("/c/d{i:03}"));
        let mut fields: Vec<(String, Value)> = Vec::new();
        for f in FIELDS {
            if rng.gen_bool(0.85) {
                fields.push((f.to_string(), pool_value(rng)));
            }
        }
        writes.push(Write::set(name, fields));
    }
    for chunk in writes.chunks(25) {
        db.commit_writes(chunk.to_vec(), &Caller::Service).unwrap();
    }
    db
}

fn gen_query(rng: &mut SimRng) -> Query {
    let mut q = Query::parse("/c").unwrap();
    let mut unused: Vec<&str> = FIELDS.to_vec();
    let n_eq = rng.gen_range(3);
    for _ in 0..n_eq {
        if unused.is_empty() {
            break;
        }
        let f = unused.remove(rng.gen_range(unused.len() as u64) as usize);
        q = q.filter(f, FilterOp::Eq, pool_value(rng));
    }
    if rng.gen_bool(0.25) && !unused.is_empty() {
        let f = unused.remove(rng.gen_range(unused.len() as u64) as usize);
        let alts: Vec<Value> = (0..1 + rng.gen_range(3)).map(|_| pool_value(rng)).collect();
        q = q.filter(f, FilterOp::In, Value::Array(alts));
    }
    if rng.gen_bool(0.15) && !unused.is_empty() {
        let f = unused.remove(rng.gen_range(unused.len() as u64) as usize);
        q = q.filter(f, FilterOp::ArrayContains, Value::Int(rng.gen_range(3) as i64));
    }
    if rng.gen_bool(0.35) && !unused.is_empty() {
        let f = unused.remove(rng.gen_range(unused.len() as u64) as usize);
        let lower_ops = [FilterOp::Gt, FilterOp::Ge];
        let upper_ops = [FilterOp::Lt, FilterOp::Le];
        let v = pool_value(rng);
        if rng.gen_bool(0.5) {
            q = q.filter(f, lower_ops[rng.gen_range(2) as usize], v.clone());
        } else {
            q = q.filter(f, upper_ops[rng.gen_range(2) as usize], v.clone());
        }
        if rng.gen_bool(0.4) {
            q = q.filter(f, upper_ops[rng.gen_range(2) as usize], pool_value(rng));
        }
        let dir = if rng.gen_bool(0.5) {
            Direction::Asc
        } else {
            Direction::Desc
        };
        q = q.order_by(f, dir);
    } else if rng.gen_bool(0.5) && !unused.is_empty() {
        let f = unused.remove(rng.gen_range(unused.len() as u64) as usize);
        let dir = if rng.gen_bool(0.5) {
            Direction::Asc
        } else {
            Direction::Desc
        };
        q = q.order_by(f, dir);
    }
    if rng.gen_bool(0.5) {
        q = q.limit(1 + rng.gen_range(6) as usize);
    }
    if rng.gen_bool(0.3) {
        q = q.offset(rng.gen_range(4) as usize);
    }
    q
}

/// Every valid corpus query renders a plan, and EXPLAIN ANALYZE's stats
/// block agrees with what the executor actually did.
#[test]
fn explain_renders_every_conformance_corpus_query() {
    let worlds = 5;
    let queries_per_world = 40;
    let mut rng = SimRng::new(CONFORMANCE_SEED);
    let (mut rendered, mut missing_index, mut invalid) = (0usize, 0usize, 0usize);

    for _ in 0..worlds {
        let mut wrng = rng.split();
        let db = build_world(&mut wrng);
        for _ in 0..queries_per_world {
            let query = gen_query(&mut wrng);
            if query.validate().is_err() {
                invalid += 1;
                continue;
            }
            let text = match db.explain(&query) {
                Ok(text) => text,
                // Same tolerance as the conformance suite: some corpus
                // shapes (e.g. a descending lead) have no covering index.
                Err(FirestoreError::MissingIndex { .. }) => {
                    missing_index += 1;
                    continue;
                }
                Err(e) => panic!("EXPLAIN failed: {e}"),
            };
            assert!(text.contains("plan:"), "no plan block:\n{text}");
            assert!(text.contains("  window: offset="), "no window line:\n{text}");

            let (analyzed, result) = db
                .explain_analyze(&query, Consistency::Strong, &Caller::Service)
                .expect("EXPLAIN ANALYZE on a plannable query");
            assert!(analyzed.starts_with(&text), "analyze must extend the plan");
            assert!(
                analyzed.contains(&format!(
                    "entries_returned: {}",
                    result.stats.entries_returned
                )),
                "stats join mismatch:\n{analyzed}"
            );
            rendered += 1;
        }
    }
    println!(
        "explain corpus: {rendered} rendered, {missing_index} missing-index, {invalid} invalid"
    );
    assert!(rendered >= 100, "corpus must exercise EXPLAIN broadly");
}

/// Golden renderings for the three plan shapes: primary scan, single index
/// scan, zig-zag join.
#[test]
fn explain_golden_plan_shapes() {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let db = firestore_core::database::FirestoreDatabase::create_default(
        spanner::SpannerDatabase::new(clock),
    );
    create_index_blocking(&db, "c", vec![IndexedField::asc("a"), IndexedField::asc("b")])
        .unwrap();
    db.commit_writes(
        vec![Write::set(
            doc("/c/d1"),
            [("a", Value::Int(1)), ("b", Value::Int(2)), ("z", Value::Int(3))],
        )],
        &Caller::Service,
    )
    .unwrap();

    // Primary scan: no filters, name order.
    let text = db.explain(&Query::parse("/c").unwrap()).unwrap();
    assert!(
        text.contains("primary scan (forward) over Entities"),
        "{text}"
    );

    // Composite index scan: equality + order on the indexed pair.
    let q = Query::parse("/c")
        .unwrap()
        .filter("a", FilterOp::Eq, Value::Int(1))
        .order_by("b", Direction::Asc)
        .limit(10);
    let text = db.explain(&q).unwrap();
    assert!(text.contains("index scan (forward)"), "{text}");
    assert!(text.contains("composite on c: a asc, b asc"), "{text}");
    assert!(text.contains("window: offset=0 limit=10"), "{text}");

    // Zig-zag join: two equalities with no covering composite (the `a`+`b`
    // pair would use the composite above, so pair `a` with the auto-indexed
    // `z` instead).
    let q = Query::parse("/c")
        .unwrap()
        .filter("a", FilterOp::Eq, Value::Int(1))
        .filter("z", FilterOp::Eq, Value::Int(3));
    let text = db.explain(&q).unwrap();
    assert!(text.contains("zig-zag join (2 scans"), "{text}");
    assert!(text.contains("auto c.a"), "{text}");
    assert!(text.contains("auto c.z"), "{text}");
}

// --- golden trace and metrics ------------------------------------------------

/// A small fixed-seed service run touching every request kind: a rules
/// deploy, commits (with redo durability), a get, a query, a COUNT, a
/// listener fed by the Real-time Cache, an interactive transaction, a
/// client flush that retries through a fault window, and a maintenance
/// tick. Returns the rendered trace and the JSON metrics snapshot.
fn golden_run() -> (String, String) {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let svc = FirestoreService::new(
        clock.clone(),
        ServiceOptions {
            obs_seed: 0x601D,
            ..ServiceOptions::default()
        },
    );
    svc.spanner().attach_durability(SimDisk::new());
    let db = svc.create_database("gold");
    let mut rng = SimRng::new(0x601D);
    svc.set_rules(
        "gold",
        r#"
        service cloud.firestore {
          match /databases/{db}/documents {
            match /{document=**} { allow read, write; }
          }
        }
        "#,
    )
    .expect("rules");
    create_index_blocking(
        &db,
        "c",
        vec![
            IndexedField::asc("tag"),
            IndexedField::desc("v"),
        ],
    )
    .expect("index");

    let conn = svc.connect();
    let listen_q = Query::parse("/c").unwrap().filter("tag", FilterOp::Eq, Value::Str("x".into()));
    svc.listen("gold", &conn, listen_q, &Caller::Service)
        .expect("listen");
    for i in 0..4i64 {
        let tag = if i % 2 == 0 { "x" } else { "y" };
        let w = Write::set(
            doc(&format!("/c/d{i}")),
            [("v", Value::Int(i)), ("tag", Value::Str(tag.into()))],
        );
        svc.commit("gold", vec![w], &Caller::Service, &mut rng)
            .expect("commit");
        svc.realtime().tick();
    }
    let _ = conn.poll();
    svc.get_document("gold", &doc("/c/d1"), &Caller::Service, &mut rng)
        .expect("get");
    let q = Query::parse("/c")
        .unwrap()
        .filter("tag", FilterOp::Eq, Value::Str("x".into()))
        .order_by("v", Direction::Desc)
        .limit(2);
    svc.run_query("gold", &q, &Caller::Service, &mut rng)
        .expect("query");
    db.run_count(&q.clone().without_window(), Consistency::Strong, &Caller::Service)
        .expect("count");
    db.run_transaction(3, |txn| {
        let cur = txn.get(&doc("/c/d0"))?;
        let v = cur
            .and_then(|d| d.fields.get("v").cloned())
            .unwrap_or(Value::Int(0));
        txn.set(doc("/c/d0"), [("v", v), ("tag", Value::Str("y".into()))]);
        Ok(())
    })
    .expect("transaction");
    svc.realtime().tick();
    let _ = conn.poll();

    let client = FirestoreClient::connect(
        db.clone(),
        svc.realtime().clone(),
        ClientOptions {
            auth: Some(rules::AuthContext::uid("u")),
        },
    );
    let now = clock.now();
    let plan = FaultPlan::new(3).rule(FaultRule::scheduled(
        FaultKind::LockTimeout,
        now,
        now + Duration::from_millis(20),
    ));
    svc.spanner()
        .env()
        .set_chaos(Some(FaultInjector::new(clock.clone(), plan)));
    client.set("/c/client", [("v", Value::Int(9))]).expect("set");
    client.flush().expect("flush");
    svc.spanner().env().set_chaos(None);
    client.flush().expect("flush after chaos");
    svc.tick();

    (
        svc.obs().tracer.render(),
        svc.obs().metrics.snapshot().to_json(),
    )
}

/// The trace and the metrics snapshot of [`golden_run`] are byte-equal to
/// the committed files under `tests/golden/`: instrumentation may get
/// cheaper, but never change what it records. On a mismatch the actual
/// output is written next to the build (`target/golden_actual/`) for `diff`.
#[test]
fn golden_trace_and_metrics_are_byte_identical() {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let (trace, metrics) = golden_run();
    assert!(trace.contains("locks-acquired n="), "{trace}");
    assert!(trace.contains("prepare-durable table="), "{trace}");
    assert!(trace.contains("outcome-durable"), "{trace}");
    assert!(trace.contains("retry backoff="), "{trace}");
    let mut mismatched = Vec::new();
    for (file, actual) in [("trace.txt", &trace), ("metrics.json", &metrics)] {
        let expected = std::fs::read_to_string(golden.join(file)).unwrap_or_default();
        if &expected != actual {
            let out = common::artifact_path(&format!("golden_actual/{file}"));
            std::fs::write(out, actual).expect("write actual");
            mismatched.push(file);
        }
    }
    assert!(
        mismatched.is_empty(),
        "{mismatched:?} differ from tests/golden/; actual output written to target/golden_actual/"
    );
}
