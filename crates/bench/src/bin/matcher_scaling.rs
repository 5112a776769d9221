//! Query Matcher fan-out trajectory: per-change matching cost across
//! registered-query populations (§V).
//!
//! The paper's matching claim is that the Query Matcher routes each
//! document change to the affected listeners without consulting every
//! registered query. This harness registers 10³ / 10⁴ / 10⁵ random
//! queries in the decision-tree matcher (`firestore_core::matchtree`) and
//! in a naive per-change linear scan, then probes both with the same
//! random document changes. The tree's per-change cost must grow far
//! slower than the query population — the linear baseline is the shape
//! the tree replaced.
//!
//! Output: `target/BENCH_matcher_scaling.json` (CI uploads it as an
//! artifact; see EXPERIMENTS.md for regeneration instructions).
//!
//! Set `MATCHER_SCALING_SMOKE=1` (or pass `--smoke`) for a seconds-long
//! run with smaller populations, used by CI's smoke job.

use bench::banner;
use firestore_core::database::doc;
use firestore_core::matching::matches_document;
use firestore_core::{
    Direction, Document, DocumentChange, FilterOp, MatcherTree, Query, Value,
};
use simkit::SimRng;
use spanner::database::DirectoryId;
use std::time::Instant;

/// Collections the registered queries watch; changes land in the same set,
/// so every probe descends into a populated bucket.
const COLLS: usize = 32;
/// Equality/range values are drawn from this domain.
const DOMAIN: i64 = 1024;
const DIR: DirectoryId = DirectoryId(7);
/// Changes probed against the tree per population size.
const TREE_PROBES: usize = 2_000;
/// Changes probed against the linear baseline (it is the slow side).
const LINEAR_PROBES: usize = 100;

struct Row {
    queries: usize,
    engine: &'static str,
    probes: usize,
    wall_ns_per_change: u128,
    candidates_per_change: f64,
    tokens_per_change: f64,
    shapes: usize,
}

/// A registered query: mostly single-value equalities, some narrow
/// intervals — the shapes the decision tree dispatches on. (A production
/// mix also has rare unindexable conjunctions; those degrade to the
/// bucket's scan list and are covered by the differential suite.)
fn gen_query(rng: &mut SimRng) -> Query {
    let coll = format!("c{:02}", rng.gen_range(COLLS as u64));
    let q = Query::parse(&format!("/{coll}")).unwrap();
    if rng.gen_bool(0.8) {
        q.filter("v", FilterOp::Eq, Value::Int(rng.gen_range(DOMAIN as u64) as i64))
    } else {
        let lo = rng.gen_range(DOMAIN as u64) as i64;
        q.filter("v", FilterOp::Ge, Value::Int(lo))
            .filter("v", FilterOp::Lt, Value::Int(lo + 4))
            .order_by("v", Direction::Asc)
    }
}

fn gen_change(rng: &mut SimRng) -> DocumentChange {
    let coll = format!("c{:02}", rng.gen_range(COLLS as u64));
    let name = doc(&format!("/{coll}/d{:04}", rng.gen_range(10_000)));
    let fields = [
        ("v".to_string(), Value::Int(rng.gen_range(DOMAIN as u64) as i64)),
        ("w".to_string(), Value::Int(rng.gen_range(8) as i64)),
    ];
    DocumentChange {
        name: name.clone(),
        old: None,
        new: Some(Document::new(name, fields)),
    }
}

fn linear_scan(regs: &[(usize, Query)], change: &DocumentChange) -> Vec<usize> {
    let docs: Vec<&Document> = change.old.iter().chain(change.new.iter()).collect();
    regs.iter()
        .filter(|(_, q)| docs.iter().any(|d| matches_document(q, d)))
        .map(|(t, _)| *t)
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("MATCHER_SCALING_SMOKE").is_ok_and(|v| v != "0");
    let sizes: &[usize] = if smoke {
        &[200, 1_000, 5_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    banner(
        "matcher scaling trajectory",
        "per-change match cost over 10^3/10^4/10^5 registered queries; \
         tree cost must not track the population",
    );
    if smoke {
        println!("(smoke mode: sizes {sizes:?})");
    }

    let mut rows: Vec<Row> = Vec::new();
    for &n in sizes {
        let mut rng = SimRng::new(0xF1DE_0000 + n as u64);
        // Register the same population in both engines. The unwindowed
        // query is what both engines match on.
        let regs: Vec<(usize, Query)> = (0..n)
            .map(|t| (t, gen_query(&mut rng).without_window()))
            .collect();
        let mut tree: MatcherTree<usize> = MatcherTree::new(1);
        let t = Instant::now();
        for (token, q) in &regs {
            tree.register(*token, &[0], DIR, q);
        }
        eprintln!(
            "{n} queries registered in {:.2}s ({} shapes)",
            t.elapsed().as_secs_f64(),
            tree.shape_count()
        );
        tree.debug_validate().expect("matcher invariants");

        let changes: Vec<DocumentChange> =
            (0..TREE_PROBES).map(|_| gen_change(&mut rng)).collect();

        // Correctness spot-check before timing: both engines agree.
        for change in changes.iter().take(50) {
            let mut got = tree.match_change(0, DIR, change);
            got.sort_unstable();
            assert_eq!(got, linear_scan(&regs, change), "engines diverged");
        }

        let before = tree.stats();
        let t = Instant::now();
        let mut tokens = 0usize;
        for change in &changes {
            tokens += tree.match_change(0, DIR, change).len();
        }
        let tree_wall = t.elapsed().as_nanos();
        let after = tree.stats();
        let probed = (after.changes - before.changes) as f64;
        rows.push(Row {
            queries: n,
            engine: "tree",
            probes: TREE_PROBES,
            wall_ns_per_change: tree_wall / TREE_PROBES as u128,
            candidates_per_change: (after.candidates - before.candidates) as f64 / probed,
            tokens_per_change: tokens as f64 / TREE_PROBES as f64,
            shapes: tree.shape_count(),
        });

        let t = Instant::now();
        let mut tokens = 0usize;
        let mut candidates = 0usize;
        for change in changes.iter().take(LINEAR_PROBES) {
            candidates += regs.len();
            tokens += linear_scan(&regs, change).len();
        }
        let linear_wall = t.elapsed().as_nanos();
        rows.push(Row {
            queries: n,
            engine: "linear",
            probes: LINEAR_PROBES,
            wall_ns_per_change: linear_wall / LINEAR_PROBES as u128,
            candidates_per_change: candidates as f64 / LINEAR_PROBES as f64,
            tokens_per_change: tokens as f64 / LINEAR_PROBES as f64,
            shapes: regs.len(),
        });
    }

    println!(
        "{:>9} {:>7} {:>7} {:>12} {:>12} {:>10} {:>8}",
        "queries", "engine", "probes", "ns/change", "cand/change", "tok/change", "shapes"
    );
    for r in &rows {
        println!(
            "{:>9} {:>7} {:>7} {:>12} {:>12.2} {:>10.3} {:>8}",
            r.queries, r.engine, r.probes, r.wall_ns_per_change, r.candidates_per_change,
            r.tokens_per_change, r.shapes
        );
    }

    // The trajectory checks: across a `growth`× larger population the
    // tree's per-change cost must grow by a small fraction of that, and at
    // the top size it must beat the linear scan by a wide margin.
    let tree_small = rows.first().expect("rows");
    let tree_large = &rows[rows.len() - 2];
    let linear_large = rows.last().expect("rows");
    assert_eq!(tree_small.engine, "tree");
    assert_eq!(tree_large.engine, "tree");
    assert_eq!(linear_large.engine, "linear");
    let growth = (tree_large.queries / tree_small.queries) as u128;
    // Floor the base cost at 1µs so machine noise on a ~100ns probe can't
    // fail the ratio check.
    let base = tree_small.wall_ns_per_change.max(1_000);
    assert!(
        tree_large.wall_ns_per_change < base * growth / 3,
        "tree per-change cost grew {}ns -> {}ns over a {growth}x population — not sublinear",
        tree_small.wall_ns_per_change,
        tree_large.wall_ns_per_change
    );
    assert!(
        linear_large.wall_ns_per_change > tree_large.wall_ns_per_change * 10,
        "tree ({}, ns/change) must be >10x faster than the linear scan ({}) at {} queries",
        tree_large.wall_ns_per_change,
        linear_large.wall_ns_per_change,
        tree_large.queries
    );
    println!(
        "\nsublinear: tree {}ns -> {}ns per change over {growth}x more queries \
         (linear baseline: {}ns)",
        tree_small.wall_ns_per_change, tree_large.wall_ns_per_change,
        linear_large.wall_ns_per_change
    );

    let mut report = bench::report::BenchReport::new("matcher_scaling")
        .field("smoke", smoke.to_string())
        .field(
            "sizes",
            format!(
                "[{}]",
                sizes.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(", ")
            ),
        );
    for r in &rows {
        report.row(format!(
            "{{\"queries\": {}, \"engine\": \"{}\", \"probes\": {}, \
             \"wall_ns_per_change\": {}, \"candidates_per_change\": {:.2}, \
             \"tokens_per_change\": {:.3}, \"shapes\": {}}}",
            r.queries, r.engine, r.probes, r.wall_ns_per_change, r.candidates_per_change,
            r.tokens_per_change, r.shapes
        ));
    }
    report.write();
}
