//! Tenant-fleet isolation capstone: the Fig 11 property at fleet scale.
//!
//! A fleet of 500+ simulated databases shares one fixed-capacity region
//! while four adversarial tenants abuse it — a hotspot-key hammer, an
//! unbounded-fanout batch scanner, a free-tier tenant over its daily
//! quota edge, and a 500/50/5-violating ramp — under seeded chaos and a
//! mid-run crash–recover cycle. The suite asserts the paper's §IV-C
//! promise from the *bystanders'* point of view:
//!
//! * conforming tenants' p99 latency stays within a fixed band (2×) of a
//!   quiet-fleet baseline run, while the adversaries are throttled and
//!   shed;
//! * every control-plane rejection is accounted in the throttle ledger,
//!   retriable ones carrying a positive `retry_after` hint, and no
//!   conforming tenant's offer is ever refused;
//! * the consistency oracle and listener-snapshot checker (PR 5) pass
//!   over the recorded history of the same abusive run;
//! * an offline-capable client on the *abusive* tenant retries through
//!   the throttles to eventual success without violating exactly-once.
//!
//! `FLEET_SEED=<u64>` overrides the workload seed (nightly CI sweeps
//! random seeds); on oracle failure the rendered counterexample is
//! written to `target/fleet_counterexample_<seed>.txt`.

mod common;

use firestore_core::checker::check_history;
use firestore_core::database::doc;
use firestore_core::{Caller, Consistency};
use workloads::fleet::{is_adversary, run_fleet, FleetConfig, FleetWorld, HAMMER_DB};

fn fleet_seed() -> u64 {
    common::env_or("FLEET_SEED", FleetConfig::default().seed)
}

fn config(adversaries: bool) -> FleetConfig {
    FleetConfig {
        seed: fleet_seed(),
        adversaries,
        ..FleetConfig::default()
    }
}

fn counterexample_path(seed: u64) -> std::path::PathBuf {
    common::artifact_path(&format!("fleet_counterexample_{seed}.txt"))
}

/// The tentpole assertion: an abusive fleet's conforming majority keeps
/// the latency profile of a quiet fleet, and only the adversaries pay.
#[test]
fn conforming_p99_stays_within_band_of_quiet_baseline() {
    let quiet_cfg = config(false);
    let quiet_world = FleetWorld::build(&quiet_cfg);
    let quiet = run_fleet(&quiet_world, &quiet_cfg);

    let abuse_cfg = config(true);
    let abuse_world = FleetWorld::build(&abuse_cfg);
    let abuse = run_fleet(&abuse_world, &abuse_cfg);

    // Fleet scale: 500+ databases, at least 3 of them adversarial.
    assert!(
        abuse_world.svc.database_count() >= 503,
        "fleet too small: {}",
        abuse_world.svc.database_count()
    );
    let adversaries = abuse_world
        .svc
        .tenants
        .throttle_ledger()
        .iter()
        .map(|e| e.database.clone())
        .filter(|db| is_adversary(db))
        .collect::<std::collections::BTreeSet<_>>();
    assert!(
        adversaries.len() >= 3,
        "expected ≥3 distinct throttled adversaries, got {adversaries:?}"
    );

    // Both runs produced a healthy post-warmup sample.
    assert!(quiet.conforming_latency.total() > 1_000);
    assert!(abuse.conforming_latency.total() > 1_000);

    // The isolation band: conforming p99 under abuse within 2× of the
    // quiet-fleet baseline (with a 1 ms floor absorbing bucket noise).
    let quiet_p99 = quiet.conforming_latency.quantile(0.99).unwrap();
    let abuse_p99 = abuse.conforming_latency.quantile(0.99).unwrap();
    assert!(
        abuse_p99 <= (2.0 * quiet_p99).max(quiet_p99 + 1.0),
        "conforming p99 under abuse ({abuse_p99:.2}ms) breached the band \
         around the quiet baseline ({quiet_p99:.2}ms)"
    );

    // Adversaries were throttled and shed; conforming tenants never were.
    assert!(abuse.rejected > 0, "adversaries should draw throttles");
    assert_eq!(
        abuse.rejected_conforming, 0,
        "no conforming tenant's offer may be refused"
    );
    assert_eq!(quiet.rejected, 0, "quiet fleet must be throttle-free");
    let count = |r: &str| abuse.throttle_counts.get(r).copied().unwrap_or(0);
    assert!(
        count("shed_nonconforming") > 0,
        "overload sheds of non-conforming tenants expected: {:?}",
        abuse.throttle_counts
    );
    assert!(
        count("shed_batch") > 0,
        "overload sheds of batch traffic expected: {:?}",
        abuse.throttle_counts
    );
    assert!(
        count("quota_exhausted") > 0,
        "free-tier quota throttles expected: {:?}",
        abuse.throttle_counts
    );

    // Ledger audit: every entry names an adversary, and every retriable
    // rejection carries a positive retry_after hint.
    let ledger = abuse_world.svc.tenants.throttle_ledger();
    assert!(!ledger.is_empty());
    for entry in &ledger {
        assert!(
            is_adversary(&entry.database),
            "conforming tenant {} found in throttle ledger",
            entry.database
        );
    }
    assert!(
        ledger
            .iter()
            .any(|e| e.retry_after > simkit::Duration::ZERO),
        "retriable throttles must carry retry_after hints"
    );
}

/// The abusive run's recorded history satisfies the consistency oracle:
/// strict serializability, listener-snapshot consistency, and
/// exactly-once application of acked client mutations — including the
/// hammer client's writes that retried through `retry_after` throttles.
#[test]
fn oracle_and_clients_pass_over_abusive_fleet_run() {
    let cfg = config(true);
    let world = FleetWorld::build(&cfg);
    let report = run_fleet(&world, &cfg);
    let events = world.recorder.events();
    assert!(!events.is_empty());

    // The listener checker actually had material to chew on.
    assert!(
        events.iter().any(|r| matches!(
            r.event,
            simkit::history::HistoryEvent::ListenerSnapshot { .. }
        )),
        "no listener snapshots recorded"
    );
    assert!(
        events
            .iter()
            .any(|r| matches!(r.event, simkit::history::HistoryEvent::ClientAck { .. })),
        "no client acks recorded"
    );

    // Oracle over every tracked (conforming) database and over the hammer
    // adversary's database — the latter proves the throttled client's
    // retries landed exactly once.
    let mut dirs = Vec::new();
    for i in 0.. {
        match world.svc.database(&format!("tracked-{i}")) {
            Some(db) => dirs.push((format!("tracked-{i}"), db)),
            None => break,
        }
    }
    dirs.push((HAMMER_DB.to_string(), world.svc.database(HAMMER_DB).unwrap()));
    for (name, db) in &dirs {
        let oracle = check_history(&events, db.directory(), &report.queries, report.final_ts);
        if !oracle.passed() {
            let path = counterexample_path(cfg.seed);
            let _ = std::fs::write(&path, &oracle.report);
            panic!(
                "oracle failed on {name} (seed {:#x}, {} violations, report at {}):\n{}",
                cfg.seed,
                oracle.violations.len(),
                path.display(),
                oracle.report
            );
        }
    }

    // The hammer client's writes were enqueued mid-abuse, throttled, and
    // still flushed to success by the end of the quiesce phase.
    assert!(report.hammer_client_writes > 0);
    assert_eq!(
        report.pending_after_quiesce, 0,
        "client writes must retry to eventual success"
    );
    let hammer_db = world.svc.database(HAMMER_DB).unwrap();
    for j in 0..3 {
        let got = hammer_db
            .get_document(
                &doc(&format!("/hot/doc{j}")),
                Consistency::Strong,
                &Caller::Service,
            )
            .unwrap();
        assert!(got.is_some(), "hammer client write /hot/doc{j} never landed");
    }

    // The crash machinery ran and the run stayed deterministic enough to
    // reach quiescence with a non-trivial history.
    assert!(report.crashes >= 1, "expected a crash–recover cycle");
    assert!(report.real_ops > 0);
}
