//! Mutation-proofs the perf-regression gate: a seeded slowdown in a benched
//! hot path must fail `bench_gate`'s comparison, and reverting it must pass.
//!
//! The slowdown knob is `TestMutation::FsyncPadding` in the Spanner
//! database's `SimEnv` — a test-only cost bump charged to the SimClock inside every redo-log fsync,
//! exactly where a real durability regression would land. Because the
//! benched latencies are simulated time, the padded run's numbers shift
//! deterministically; the gate's tight tolerance on sim metrics must catch
//! it. The comparison here goes through the same `bench::gate` library the
//! `bench_gate` bin runs in CI.

use bench::gate::{compare, parse_json};
use bench::report::BenchReport;
use firestore_core::database::doc;
use firestore_core::{Caller, Value, Write};
use server::{FirestoreService, ServiceOptions};
use simkit::{Duration, SimClock, SimDisk, SimRng, TestMutation};

/// Run a miniature commit-latency bench with the given fsync padding and
/// render its report JSON. Mirrors the real bench bins: sim-time latency
/// percentiles plus the engine's charged CPU, in a `results` row the gate
/// classifies as tight sim metrics (`*_ns`).
fn run_commit_bench(fsync_padding: Duration) -> String {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let svc = FirestoreService::new(clock.clone(), ServiceOptions::default());
    svc.spanner().attach_durability(SimDisk::new());
    svc.spanner()
        .env()
        .set_mutation(Some(TestMutation::FsyncPadding(fsync_padding)));
    let _db = svc.create_database("gate");
    let mut rng = SimRng::new(0x6A7E);

    let mut samples: Vec<u64> = Vec::new();
    let mut engine_cpu_ns = 0u64;
    for i in 0..50i64 {
        let start = clock.now();
        let w = Write::set(doc(&format!("/c/d{:02}", i % 10)), [("v", Value::Int(i))]);
        let (result, _) = svc
            .commit("gate", vec![w], &Caller::Service, &mut rng)
            .expect("commit");
        samples.push(clock.now().saturating_sub(start).as_nanos());
        engine_cpu_ns += result.stats.engine_cpu.as_nanos();
    }
    samples.sort_unstable();
    let p50 = samples[samples.len() / 2];
    let p99 = samples[samples.len() * 99 / 100];

    let mut report = BenchReport::new("gate_selftest").field("commits", "50");
    report.row(format!(
        "{{\"phase\": \"commit\", \"p50_commit_ns\": {p50}, \"p99_commit_ns\": {p99}, \
         \"engine_cpu_ns\": {engine_cpu_ns}}}"
    ));
    report.render()
}

#[test]
fn gate_catches_seeded_fsync_slowdown_and_passes_when_reverted() {
    let baseline = parse_json(&run_commit_bench(Duration::ZERO)).expect("baseline JSON");

    // Seeded mutation: every fsync costs an extra 5ms. Time charged after
    // the commit timestamp is assigned is absorbed by TrueTime commit wait
    // until it exceeds the uncertainty ε, so the bump must be large enough
    // to move end-to-end latency too — not just the charged-CPU ledger.
    let padded = parse_json(&run_commit_bench(Duration::from_millis(5))).expect("padded JSON");
    let verdict = compare("gate_selftest", &baseline, &padded);
    assert!(
        !verdict.ok(),
        "the gate must fail on a seeded fsync slowdown; it passed {} metrics",
        verdict.passed
    );
    let flagged: Vec<&str> = verdict
        .regressions
        .iter()
        .map(|r| r.metric.as_str())
        .collect();
    assert!(
        flagged.contains(&"engine_cpu_ns"),
        "the charged-CPU ledger must flag the slowdown, got {flagged:?}"
    );
    assert!(
        flagged.contains(&"p50_commit_ns") || flagged.contains(&"p99_commit_ns"),
        "commit latency must flag the slowdown, got {flagged:?}"
    );

    // Reverted: a fresh unpadded run is byte-for-byte reproducible in sim
    // time, so the gate passes with zero regressions.
    let reverted = parse_json(&run_commit_bench(Duration::ZERO)).expect("reverted JSON");
    let verdict = compare("gate_selftest", &baseline, &reverted);
    assert!(
        verdict.ok(),
        "reverting the mutation must pass the gate: {:?}",
        verdict.regressions
    );
}
