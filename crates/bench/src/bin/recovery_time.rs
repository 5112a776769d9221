//! Recovery-time trajectory (E10): crash–restart replay cost vs redo-log
//! size.
//!
//! Durable redo logs buy crash safety; the price is paid at restart, when
//! `recover()` replays every committed transaction in the per-tablet logs.
//! This harness seeds databases whose logs hold increasing numbers of
//! committed transactions, crashes them, and times recovery. The expected
//! shape is *linear* in replayed mutations — a superlinear trajectory means
//! replay is re-sorting or re-scanning something it shouldn't.
//!
//! Output: `target/BENCH_recovery.json` (see EXPERIMENTS.md E10 for
//! regeneration instructions).
//!
//! Set `RECOVERY_SMOKE=1` (or pass `--smoke`) for a seconds-long run with
//! smaller sizes, used by CI's smoke job.

use bench::banner;
use firestore_core::database::{doc, FirestoreDatabase};
use firestore_core::{Caller, Consistency, Value, Write};
use simkit::{Duration, SimClock, SimDisk};
use spanner::SpannerDatabase;
use std::time::Instant;

struct Row {
    commits: usize,
    replayed_txns: usize,
    replayed_mutations: usize,
    logs_scanned: usize,
    wall_ms: f64,
    per_txn_us: f64,
}

fn run_one(commits: usize) -> Row {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let spanner = SpannerDatabase::new(clock);
    spanner.attach_durability(SimDisk::new());
    let db = FirestoreDatabase::create_default(spanner.clone());

    for i in 0..commits {
        db.commit_writes(
            vec![Write::set(
                doc(&format!("/c/d{i:07}")),
                [("v", Value::Int(i as i64)), ("tag", Value::Int(i as i64 % 7))],
            )],
            &Caller::Service,
        )
        .expect("seed commit");
    }

    spanner.crash();
    let t = Instant::now();
    let report = spanner.recover();
    let wall = t.elapsed();

    assert_eq!(
        report.replayed_txns, commits,
        "every committed transaction must replay"
    );
    assert_eq!(report.discarded_prepares, 0);
    // Spot-check the recovered world.
    let got = db
        .get_document(&doc("/c/d0000000"), Consistency::Strong, &Caller::Service)
        .expect("recovered read")
        .expect("recovered doc");
    assert_eq!(got.fields["v"], Value::Int(0));

    Row {
        commits,
        replayed_txns: report.replayed_txns,
        replayed_mutations: report.replayed_mutations,
        logs_scanned: report.logs_scanned,
        wall_ms: wall.as_secs_f64() * 1e3,
        per_txn_us: wall.as_secs_f64() * 1e6 / commits.max(1) as f64,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("RECOVERY_SMOKE").is_ok_and(|v| v != "0");
    let sizes: &[usize] = if smoke {
        &[200, 1_000, 3_000]
    } else {
        &[1_000, 5_000, 20_000]
    };
    banner(
        "recovery time vs redo-log size (E10)",
        "crash–restart replay over logs of increasing committed-transaction counts",
    );
    if smoke {
        println!("(smoke mode: sizes {sizes:?})");
    }

    let mut rows: Vec<Row> = Vec::new();
    for &n in sizes {
        eprintln!("seeding {n} commits…");
        rows.push(run_one(n));
    }

    println!(
        "{:>9} {:>9} {:>11} {:>6} {:>10} {:>10}",
        "commits", "txns", "mutations", "logs", "wall_ms", "per_txn_us"
    );
    for r in &rows {
        println!(
            "{:>9} {:>9} {:>11} {:>6} {:>10.2} {:>10.2}",
            r.commits, r.replayed_txns, r.replayed_mutations, r.logs_scanned, r.wall_ms, r.per_txn_us
        );
    }

    let mut report =
        bench::report::BenchReport::new("recovery").field("smoke", smoke.to_string());
    for r in &rows {
        report.row(format!(
            "{{\"commits\": {}, \"replayed_txns\": {}, \"replayed_mutations\": {}, \
             \"logs_scanned\": {}, \"wall_ms\": {:.3}, \"per_txn_us\": {:.3}}}",
            r.commits, r.replayed_txns, r.replayed_mutations, r.logs_scanned, r.wall_ms, r.per_txn_us,
        ));
    }
    report.write();
}
