//! Query-cost trajectory: limit-k queries across index sizes (§IV-D3).
//!
//! The paper's core query claim is that "the cost of a query scales with
//! the size of the result set, not the size of the data set". This harness
//! pins the trajectory: it seeds indexes of 10k / 100k / 1M entries and
//! runs the same limit-k queries against each, recording wall-clock time,
//! `entries_examined`, and the modeled storage latency. Flat rows across
//! sizes — for both a single-index scan and a width-2 zig-zag join — are
//! the expected shape; anything growing with the index size is a pushdown
//! regression.
//!
//! Output: `target/BENCH_query_scaling.json` (CI uploads it as an
//! artifact; see EXPERIMENTS.md for regeneration instructions).
//!
//! Set `QUERY_SCALING_SMOKE=1` (or pass `--smoke`) for a seconds-long run
//! with smaller sizes, used by CI's smoke job.

use bench::banner;
use firestore_core::database::{create_index_blocking, doc};
use firestore_core::index::IndexedField;
use firestore_core::{Caller, Direction, FilterOp, Query, Value, Write};
use server::{FirestoreService, ServiceOptions};
use simkit::{Duration, SimClock, SimRng};
use std::time::Instant;

const REPEATS: usize = 5;

struct Row {
    index_size: usize,
    query: &'static str,
    limit: usize,
    join_width: usize,
    wall_us_p50: u128,
    entries_examined: usize,
    entries_returned: usize,
    seeks: usize,
    docs_fetched: usize,
    model_storage_us: u64,
}

fn build(svc: &FirestoreService, n: usize) -> firestore_core::database::FirestoreDatabase {
    let db = svc.create_database(&format!("scaling{n}"));
    create_index_blocking(
        &db,
        "c",
        vec![IndexedField::asc("tag"), IndexedField::asc("v")],
    )
    .unwrap();
    create_index_blocking(
        &db,
        "c",
        vec![IndexedField::asc("flag"), IndexedField::asc("v")],
    )
    .unwrap();
    let mut writes = Vec::with_capacity(500);
    for i in 0..n {
        writes.push(Write::set(
            doc(&format!("/c/d{i:07}")),
            [
                ("v".to_string(), Value::Int(i as i64)),
                ("tag".to_string(), Value::Str("all".into())),
                ("flag".to_string(), Value::Str("on".into())),
            ],
        ));
        if writes.len() == 500 {
            db.commit_writes(std::mem::take(&mut writes), &Caller::Service)
                .unwrap();
        }
    }
    if !writes.is_empty() {
        db.commit_writes(writes, &Caller::Service).unwrap();
    }
    db
}

fn measure(
    svc: &FirestoreService,
    database: &str,
    rng: &mut SimRng,
    index_size: usize,
    label: &'static str,
    join_width: usize,
    q: &Query,
) -> Row {
    let mut walls = Vec::with_capacity(REPEATS);
    let mut stats = firestore_core::executor::QueryStats::default();
    let mut storage = Duration::ZERO;
    let mut returned = 0usize;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let (result, served) = svc
            .run_query(database, q, &Caller::Service, rng)
            .expect("bench query");
        walls.push(t.elapsed().as_micros());
        stats = result.stats;
        storage = served.storage_latency;
        returned = result.documents.len();
    }
    walls.sort_unstable();
    let limit = q.limit.unwrap_or(0);
    assert_eq!(returned, limit.min(index_size), "bench query must fill its limit");
    Row {
        index_size,
        query: label,
        limit,
        join_width,
        wall_us_p50: walls[walls.len() / 2],
        entries_examined: stats.entries_examined,
        entries_returned: stats.entries_returned,
        seeks: stats.seeks,
        docs_fetched: stats.docs_fetched,
        model_storage_us: storage.as_nanos() / 1_000,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("QUERY_SCALING_SMOKE").is_ok_and(|v| v != "0");
    let sizes: &[usize] = if smoke {
        &[2_000, 10_000, 50_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    banner(
        "query scaling trajectory",
        "limit-k queries over 10k/100k/1M-entry indexes; cost must track the result set",
    );
    if smoke {
        println!("(smoke mode: sizes {sizes:?})");
    }

    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let svc = FirestoreService::new(clock, ServiceOptions::default());
    let mut rng = SimRng::new(42);
    let mut rows: Vec<Row> = Vec::new();

    for &n in sizes {
        let database = format!("scaling{n}");
        eprintln!("seeding {n} documents…");
        let t = Instant::now();
        build(&svc, n);
        eprintln!("  seeded in {:.1}s", t.elapsed().as_secs_f64());

        for limit in [1usize, 10, 100] {
            let q = Query::parse("/c")
                .unwrap()
                .order_by("v", Direction::Asc)
                .limit(limit);
            rows.push(measure(&svc, &database, &mut rng, n, "scan", 1, &q));
        }
        let zz = Query::parse("/c")
            .unwrap()
            .filter("tag", FilterOp::Eq, Value::Str("all".into()))
            .filter("flag", FilterOp::Eq, Value::Str("on".into()))
            .order_by("v", Direction::Asc)
            .limit(10);
        rows.push(measure(&svc, &database, &mut rng, n, "zigzag", 2, &zz));
    }

    println!(
        "{:>10} {:>7} {:>6} {:>6} {:>9} {:>9} {:>6} {:>6} {:>9}",
        "index", "query", "limit", "width", "wall_us", "examined", "ret", "seeks", "model_us"
    );
    for r in &rows {
        println!(
            "{:>10} {:>7} {:>6} {:>6} {:>9} {:>9} {:>6} {:>6} {:>9}",
            r.index_size,
            r.query,
            r.limit,
            r.join_width,
            r.wall_us_p50,
            r.entries_examined,
            r.entries_returned,
            r.seeks,
            r.model_storage_us
        );
    }

    // The trajectory check the suite pins as a test, repeated here so a full
    // run fails loudly if pushdown regresses at the 1M point.
    for r in rows.iter().filter(|r| r.limit == 10) {
        assert!(
            r.entries_examined <= 64 * r.join_width,
            "limit(10) {} over {} entries examined {} — not O(limit · width)",
            r.query,
            r.index_size,
            r.entries_examined
        );
    }

    let mut report = bench::report::BenchReport::new("query_scaling")
        .field("smoke", smoke.to_string())
        .metrics(&svc.obs().metrics.snapshot())
        .field(
            "sizes",
            format!(
                "[{}]",
                sizes
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
    for r in &rows {
        report.row(format!(
            "{{\"index_size\": {}, \"query\": \"{}\", \"limit\": {}, \"join_width\": {}, \
             \"wall_us_p50\": {}, \"entries_examined\": {}, \"entries_returned\": {}, \
             \"seeks\": {}, \"docs_fetched\": {}, \"model_storage_us\": {}}}",
            r.index_size,
            r.query,
            r.limit,
            r.join_width,
            r.wall_us_p50,
            r.entries_examined,
            r.entries_returned,
            r.seeks,
            r.docs_fetched,
            r.model_storage_us,
        ));
    }
    report.write();

    // Profile artifact: the whole sweep ran under the service's tracer, so
    // fold the span stream into the deterministic call tree and write the
    // collapsed stacks next to the bench JSON (flamegraph-ready).
    let profile = simkit::FoldedProfile::fold(&svc.obs().tracer.finished_since(0));
    std::fs::create_dir_all("target").expect("create target dir");
    std::fs::write("target/PROFILE_query_scaling.txt", profile.render())
        .expect("write profile tree");
    std::fs::write("target/PROFILE_query_scaling.folded", profile.collapsed())
        .expect("write folded profile");
    println!(
        "\nprofile: {} spans folded -> target/PROFILE_query_scaling.{{txt,folded}}",
        profile.spans
    );
}
