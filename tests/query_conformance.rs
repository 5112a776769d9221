//! Differential query conformance: seeded random worlds and random queries
//! executed through the planner + streaming executor must agree *exactly*
//! (membership and order) with a naive full-scan oracle built on
//! `firestore_core::matching` — the module that defines query semantics by
//! the index encoding.
//!
//! Seed control:
//! * `CONFORMANCE_SEED` — RNG seed (default fixed; CI's nightly job sets a
//!   random one and prints it for reproduction).
//! * `CONFORMANCE_CASES` — number of query cases (default 1000).
//!
//! The file also pins the executor's limit-pushdown invariant: a limit-k
//! query examines O(k) index entries regardless of index size.

mod common;

use firestore_core::database::{create_index_blocking, doc, FirestoreDatabase};
use firestore_core::index::IndexedField;
use firestore_core::matching::{matches_document, order_key};
use firestore_core::{
    Caller, Consistency, Direction, Document, DocumentName, FilterOp, FirestoreError, Query,
    Value, Write,
};
use simkit::{Duration, SimClock, SimRng};
use spanner::SpannerDatabase;

const FIELDS: [&str; 3] = ["a", "b", "c"];

fn fresh_db() -> FirestoreDatabase {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    FirestoreDatabase::create_default(SpannerDatabase::new(clock))
}

/// Values drawn from a small pool so random equality/`in` filters actually
/// intersect. Int/double collisions (3 vs 3.0) are deliberate.
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

/// A random world: a database with composite indexes over every ordered
/// field pair (both suffix directions) and 20–60 documents with randomly
/// present fields. Returns the documents as the oracle sees them.
fn build_world(rng: &mut SimRng) -> (FirestoreDatabase, Vec<Document>) {
    let db = fresh_db();
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
    let mut docs = Vec::with_capacity(n);
    let mut writes = Vec::with_capacity(n);
    for i in 0..n {
        let name = doc(&format!("/c/d{i:03}"));
        let mut fields: Vec<(String, Value)> = Vec::new();
        for f in FIELDS {
            // Occasionally absent: missing fields have no index entries.
            if rng.gen_bool(0.85) {
                fields.push((f.to_string(), pool_value(rng)));
            }
        }
        docs.push(Document::new(name.clone(), fields.clone()));
        writes.push(Write::set(name, fields));
    }
    for chunk in writes.chunks(25) {
        db.commit_writes(chunk.to_vec(), &Caller::Service).unwrap();
    }
    (db, docs)
}

/// A random query over the world's fields: equalities, at most one `in`,
/// array-contains, inequality bounds, order-by, offset and limit.
fn gen_query(rng: &mut SimRng) -> Query {
    gen_query_in(rng, "c")
}

/// [`gen_query`] against an arbitrary collection path.
fn gen_query_in(rng: &mut SimRng, coll: &str) -> Query {
    let mut q = Query::parse(&format!("/{coll}")).unwrap();
    let mut unused: Vec<&str> = FIELDS.to_vec();
    // Equality filters on up to two fields.
    let n_eq = rng.gen_range(3);
    for _ in 0..n_eq {
        if unused.is_empty() {
            break;
        }
        let f = unused.remove(rng.gen_range(unused.len() as u64) as usize);
        q = q.filter(f, FilterOp::Eq, pool_value(rng));
    }
    // Maybe one `in` filter.
    if rng.gen_bool(0.25) && !unused.is_empty() {
        let f = unused.remove(rng.gen_range(unused.len() as u64) as usize);
        let alts: Vec<Value> = (0..1 + rng.gen_range(3)).map(|_| pool_value(rng)).collect();
        q = q.filter(f, FilterOp::In, Value::Array(alts));
    }
    // Maybe array-contains.
    if rng.gen_bool(0.15) && !unused.is_empty() {
        let f = unused.remove(rng.gen_range(unused.len() as u64) as usize);
        q = q.filter(f, FilterOp::ArrayContains, Value::Int(rng.gen_range(3) as i64));
    }
    // Maybe an inequality (one or two bounds on one field), ordered by that
    // field so the query validates.
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

/// Full-scan oracle: filter with `matches_document`, order by `order_key`,
/// then apply cursor / offset / limit. `None` when the query is invalid.
fn oracle(query: &Query, docs: &[Document]) -> Option<Vec<DocumentName>> {
    query.validate().ok()?;
    let mut matched: Vec<&Document> = docs.iter().filter(|d| matches_document(query, d)).collect();
    matched.sort_by_key(|d| order_key(query, d).expect("matched docs have all order fields"));
    let mut names: Vec<DocumentName> = matched.into_iter().map(|d| d.name.clone()).collect();
    if let Some(after) = &query.start_after {
        match names.iter().position(|n| n == after) {
            Some(pos) => names.drain(..=pos),
            // Cursor document not in the result set: resumes nowhere.
            None => return Some(Vec::new()),
        };
    }
    Some(
        names
            .into_iter()
            .skip(query.offset)
            .take(query.limit.unwrap_or(usize::MAX))
            .collect(),
    )
}

#[test]
fn random_queries_match_full_scan_oracle() {
    let seed: u64 = common::env_or("CONFORMANCE_SEED", 0xF1DE_5707);
    let cases: usize = common::env_or("CONFORMANCE_CASES", 1000);
    println!("query conformance: CONFORMANCE_SEED={seed} CONFORMANCE_CASES={cases}");

    let queries_per_world = 40;
    let worlds = cases.div_ceil(queries_per_world);
    let mut rng = SimRng::new(seed);
    let (mut executed, mut missing_index, mut invalid) = (0usize, 0usize, 0usize);

    for w in 0..worlds {
        let mut wrng = rng.split();
        let (db, docs) = build_world(&mut wrng);
        for i in 0..queries_per_world {
            let mut query = gen_query(&mut wrng);
            // Sometimes resume from a cursor: usually a real result, rarely
            // a document outside the result set.
            if wrng.gen_bool(0.25) {
                if wrng.gen_bool(0.85) {
                    if let Some(full) = oracle(&query, &docs) {
                        if !full.is_empty() {
                            let pick = wrng.gen_range(full.len() as u64) as usize;
                            query = query.start_after(full[pick].clone());
                        }
                    }
                } else {
                    query = query.start_after(doc("/c/no-such-doc"));
                }
            }
            let expect = oracle(&query, &docs);
            match db.run_query(&query, Consistency::Strong, &Caller::Service) {
                Ok(res) => {
                    let got: Vec<DocumentName> =
                        res.documents.iter().map(|d| d.name.clone()).collect();
                    let expect = expect.unwrap_or_else(|| {
                        panic!(
                            "world {w} case {i} seed {seed}: executor accepted a query \
                             the oracle rejects: {query:?}"
                        )
                    });
                    assert_eq!(
                        got, expect,
                        "world {w} case {i} seed {seed}: result mismatch for {query:?}"
                    );
                    let (count, _) = db
                        .run_count(&query, Consistency::Strong, &Caller::Service)
                        .unwrap();
                    assert_eq!(
                        count,
                        expect.len(),
                        "world {w} case {i} seed {seed}: count mismatch for {query:?}"
                    );
                    executed += 1;
                }
                Err(FirestoreError::MissingIndex { .. }) => missing_index += 1,
                Err(FirestoreError::InvalidArgument(msg)) => {
                    assert!(
                        expect.is_none(),
                        "world {w} case {i} seed {seed}: executor rejected ({msg}) a query \
                         the oracle accepts: {query:?}"
                    );
                    invalid += 1;
                }
                Err(e) => panic!("world {w} case {i} seed {seed}: unexpected error {e:?}"),
            }
        }
    }
    println!(
        "conformance: executed={executed} missing_index={missing_index} invalid={invalid}"
    );
    assert!(
        executed * 2 >= cases,
        "too few executable cases (executed {executed} of {cases}) — generator drifted"
    );
}

/// Documents whose field `v` is `i`, plus two constant fields every
/// document shares (so zig-zag joins always have fat posting lists).
fn seed_sequential(db: &FirestoreDatabase, n: usize) {
    let writes: Vec<Write> = (0..n)
        .map(|i| {
            Write::set(
                doc(&format!("/c/d{i:06}")),
                [
                    ("v".to_string(), Value::Int(i as i64)),
                    ("tag".to_string(), Value::Str("all".into())),
                    ("flag".to_string(), Value::Str("on".into())),
                ],
            )
        })
        .collect();
    for chunk in writes.chunks(200) {
        db.commit_writes(chunk.to_vec(), &Caller::Service).unwrap();
    }
}

#[test]
fn limit_query_examines_o_limit_entries_not_o_index() {
    // The pushdown invariant (§IV-D3): limit-k cost is flat across index
    // sizes. Examined counts for the same query must be identical for a
    // 500-doc and a 2000-doc index, and far below the index size.
    let mut examined = Vec::new();
    for n in [500usize, 2000] {
        let db = fresh_db();
        seed_sequential(&db, n);
        let q = Query::parse("/c")
            .unwrap()
            .order_by("v", Direction::Asc)
            .limit(10);
        let res = db.run_query(&q, Consistency::Strong, &Caller::Service).unwrap();
        assert_eq!(res.documents.len(), 10);
        assert!(
            res.stats.entries_examined <= 32,
            "limit(10) over {n} entries examined {} — not O(limit)",
            res.stats.entries_examined
        );
        examined.push(res.stats.entries_examined);
    }
    assert_eq!(
        examined[0], examined[1],
        "entries_examined must be independent of index size"
    );
}

#[test]
fn zigzag_limit_examines_o_limit_per_joined_index() {
    let db = fresh_db();
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
    seed_sequential(&db, 1500);
    // Every document matches both filters: the join is width 2 and each
    // side must stream only O(limit).
    let q = Query::parse("/c")
        .unwrap()
        .filter("tag", FilterOp::Eq, Value::Str("all".into()))
        .filter("flag", FilterOp::Eq, Value::Str("on".into()))
        .order_by("v", Direction::Asc)
        .limit(10);
    let res = db.run_query(&q, Consistency::Strong, &Caller::Service).unwrap();
    assert_eq!(res.documents.len(), 10);
    assert!(
        res.stats.entries_examined <= 2 * 32,
        "limit(10) zig-zag of 2 indexes examined {} — not O(limit · width)",
        res.stats.entries_examined
    );
    assert_eq!(res.stats.docs_fetched, 10, "documents fetched per result only");
}

#[test]
fn desc_zigzag_with_cursor_matches_oracle_in_snapshot_and_txn() {
    // Pins the descending transactional scan path: a capped forward scan
    // reversed in memory would return the *lowest* entries here.
    let db = fresh_db();
    create_index_blocking(
        &db,
        "r",
        vec![IndexedField::asc("city"), IndexedField::desc("rating")],
    )
    .unwrap();
    create_index_blocking(
        &db,
        "r",
        vec![IndexedField::asc("kind"), IndexedField::desc("rating")],
    )
    .unwrap();
    let mut rng = SimRng::new(7);
    let mut docs = Vec::new();
    let mut writes = Vec::new();
    for i in 0..60 {
        let name = doc(&format!("/r/d{i:03}"));
        let fields = vec![
            (
                "city".to_string(),
                Value::Str(["SF", "NY"][rng.gen_range(2) as usize].to_string()),
            ),
            (
                "kind".to_string(),
                Value::Str(["BBQ", "Thai"][rng.gen_range(2) as usize].to_string()),
            ),
            ("rating".to_string(), Value::Int(rng.gen_range(10) as i64)),
        ];
        docs.push(Document::new(name.clone(), fields.clone()));
        writes.push(Write::set(name, fields));
    }
    db.commit_writes(writes, &Caller::Service).unwrap();

    let base = Query::parse("/r")
        .unwrap()
        .filter("city", FilterOp::Eq, Value::Str("SF".into()))
        .filter("kind", FilterOp::Eq, Value::Str("BBQ".into()))
        .order_by("rating", Direction::Desc);
    let full = oracle(&base, &docs).unwrap();
    assert!(full.len() >= 5, "world too sparse for the test");
    let query = base.clone().start_after(full[1].clone()).limit(3);
    let expect = oracle(&query, &docs).unwrap();
    assert!(!expect.is_empty());

    // Snapshot access.
    let res = db
        .run_query(&query, Consistency::Strong, &Caller::Service)
        .unwrap();
    let got: Vec<DocumentName> = res.documents.iter().map(|d| d.name.clone()).collect();
    assert_eq!(got, expect, "snapshot desc + cursor");

    // Transactional access (locking reads; descending scans must cap from
    // the top of the range, not the bottom).
    let mut txn = db.begin_transaction();
    let res = txn.query(&query).unwrap();
    let got: Vec<DocumentName> = res.documents.iter().map(|d| d.name.clone()).collect();
    txn.abort();
    assert_eq!(got, expect, "transactional desc + cursor");
}

#[test]
fn in_filter_matches_union_of_equalities() {
    let db = fresh_db();
    let mut writes = Vec::new();
    let mut docs = Vec::new();
    for (i, city) in ["SF", "NY", "LA", "SF", "NY", "Austin"].iter().enumerate() {
        let name = doc(&format!("/c/d{i}"));
        let fields = vec![("a".to_string(), Value::Str(city.to_string()))];
        docs.push(Document::new(name.clone(), fields.clone()));
        writes.push(Write::set(name, fields));
    }
    db.commit_writes(writes, &Caller::Service).unwrap();
    let q = Query::parse("/c").unwrap().filter(
        "a",
        FilterOp::In,
        Value::Array(vec![Value::Str("SF".into()), Value::Str("Austin".into())]),
    );
    let res = db.run_query(&q, Consistency::Strong, &Caller::Service).unwrap();
    let got: Vec<DocumentName> = res.documents.iter().map(|d| d.name.clone()).collect();
    assert_eq!(got, oracle(&q, &docs).unwrap());
    assert_eq!(got.len(), 3);
}

// --- Query Matcher decision tree: differential against brute force --------
//
// The realtime Query Matcher (`firestore_core::matchtree`) must route a
// document change to exactly the registered queries a per-change linear
// scan with `matches_document` would pick. The differential tracks its own
// registration list (token, shards, directory, unwindowed query) and
// replays random register / unregister / change sequences against both.
//
// Seed control mirrors the query differential: `MATCHER_SEED` (default
// fixed), `MATCHER_CASES` (default 800 change probes).

use firestore_core::matchtree::{MatcherMutation, MatcherTree};
use firestore_core::DocumentChange;
use spanner::database::DirectoryId;

const MATCHER_SHARDS: usize = 4;
const MATCHER_COLLS: [&str; 3] = ["c", "d", "c/d0/sub"];
const MATCHER_DIRS: [DirectoryId; 2] = [DirectoryId(3), DirectoryId(9)];

struct MatcherReg {
    token: usize,
    shards: Vec<usize>,
    dir: DirectoryId,
    /// The matching semantics: the registered query without its window.
    query: Query,
}

fn gen_matcher_reg(rng: &mut SimRng, token: usize) -> MatcherReg {
    let coll = MATCHER_COLLS[rng.gen_range(MATCHER_COLLS.len() as u64) as usize];
    let query = gen_query_in(rng, coll);
    let mut shards: Vec<usize> = (0..MATCHER_SHARDS)
        .filter(|_| rng.gen_bool(0.5))
        .collect();
    if shards.is_empty() {
        shards.push(rng.gen_range(MATCHER_SHARDS as u64) as usize);
    }
    MatcherReg {
        token,
        shards,
        dir: MATCHER_DIRS[rng.gen_range(2) as usize],
        query: query.without_window(),
    }
}

fn gen_matcher_doc(rng: &mut SimRng, name: &DocumentName) -> Document {
    let mut fields: Vec<(String, Value)> = Vec::new();
    for f in FIELDS {
        if rng.gen_bool(0.85) {
            fields.push((f.to_string(), pool_value(rng)));
        }
    }
    Document::new(name.clone(), fields)
}

/// A random insert, update, or delete under one of the matcher collections
/// — or, occasionally, under an unwatched one.
fn gen_matcher_change(rng: &mut SimRng) -> DocumentChange {
    let coll = if rng.gen_bool(0.1) {
        "elsewhere"
    } else {
        MATCHER_COLLS[rng.gen_range(MATCHER_COLLS.len() as u64) as usize]
    };
    let name = doc(&format!("/{coll}/d{:02}", rng.gen_range(30)));
    let old = rng.gen_bool(0.5).then(|| gen_matcher_doc(rng, &name));
    let new = if old.is_none() || rng.gen_bool(0.8) {
        Some(gen_matcher_doc(rng, &name))
    } else {
        None // delete
    };
    DocumentChange { name, old, new }
}

/// What the tree must return: every live registration covering this shard
/// and directory whose query matches the old or the new document version.
fn brute_force_tokens(
    regs: &[MatcherReg],
    shard: usize,
    dir: DirectoryId,
    change: &DocumentChange,
) -> Vec<usize> {
    let docs: Vec<&Document> = change.old.iter().chain(change.new.iter()).collect();
    let mut tokens: Vec<usize> = regs
        .iter()
        .filter(|r| {
            r.shards.contains(&shard)
                && r.dir == dir
                && docs.iter().any(|d| matches_document(&r.query, d))
        })
        .map(|r| r.token)
        .collect();
    tokens.sort_unstable();
    tokens
}

/// One differential round: build a random registration set, churn it with
/// some unregistrations, then probe random changes on both sides. Returns
/// the number of (probe, shard, dir) comparisons that disagreed — the main
/// test asserts zero; the mutation-sweep tests assert nonzero. When
/// `witnesses` is given, each disagreement is rendered into it (the main
/// test persists these as a CI failure artifact).
fn matcher_differential_round(
    rng: &mut SimRng,
    probes: usize,
    mutation: Option<MatcherMutation>,
    mut witnesses: Option<&mut Vec<String>>,
) -> usize {
    let mut tree: MatcherTree<usize> = MatcherTree::new(MATCHER_SHARDS);
    tree.set_mutation(mutation);
    let mut regs: Vec<MatcherReg> = Vec::new();
    let n = 1 + rng.gen_range(24) as usize;
    for token in 0..n {
        let reg = gen_matcher_reg(rng, token);
        tree.register(reg.token, &reg.shards, reg.dir, &reg.query);
        regs.push(reg);
    }
    // Churn: drop a few registrations so unregister paths are exercised.
    let drops = rng.gen_range(4) as usize;
    for _ in 0..drops.min(regs.len().saturating_sub(1)) {
        let victim = rng.gen_range(regs.len() as u64) as usize;
        let reg = regs.swap_remove(victim);
        tree.unregister(&reg.token);
    }
    if mutation.is_none() {
        tree.debug_validate().expect("matcher invariants after churn");
    }
    let mut mismatches = 0usize;
    for _ in 0..probes {
        let change = gen_matcher_change(rng);
        let shard = rng.gen_range(MATCHER_SHARDS as u64) as usize;
        let dir = MATCHER_DIRS[rng.gen_range(2) as usize];
        let got = tree.match_change(shard, dir, &change);
        let expect = brute_force_tokens(&regs, shard, dir, &change);
        if got != expect {
            mismatches += 1;
            if let Some(out) = witnesses.as_deref_mut() {
                let regs_desc: Vec<String> = regs
                    .iter()
                    .map(|r| {
                        format!(
                            "  token {} shards {:?} dir {:?}: {:?}",
                            r.token, r.shards, r.dir, r.query
                        )
                    })
                    .collect();
                out.push(format!(
                    "change {change:?}\nshard {shard} dir {dir:?}\n\
                     tree:        {got:?}\nbrute force: {expect:?}\nregistrations:\n{}",
                    regs_desc.join("\n")
                ));
            }
        }
    }
    mismatches
}

#[test]
fn matcher_tree_matches_brute_force_scan() {
    let seed: u64 = common::env_or("MATCHER_SEED", 0xF1DE_5711);
    let cases: usize = common::env_or("MATCHER_CASES", 800);
    println!("matcher differential: MATCHER_SEED={seed} MATCHER_CASES={cases}");
    let probes_per_round = 20;
    let rounds = cases.div_ceil(probes_per_round);
    let mut rng = SimRng::new(seed);
    for round in 0..rounds {
        let mut rrng = rng.split();
        let mut witnesses = Vec::new();
        let mismatches =
            matcher_differential_round(&mut rrng, probes_per_round, None, Some(&mut witnesses));
        if mismatches > 0 {
            // Persist every disagreement for CI's failure-artifact upload;
            // seed + round replays the exact sequence locally.
            let path = common::artifact_path(&format!("matcher_counterexample_{seed}_{round}.txt"));
            let body = format!(
                "MATCHER_SEED={seed} round {round}: {mismatches} divergent probes\n\n{}",
                witnesses.join("\n\n")
            );
            if std::fs::write(&path, &body).is_ok() {
                eprintln!("(counterexample written to {})", path.display());
            }
            panic!(
                "MATCHER_SEED={seed} round {round}: matcher tree diverged from \
                 the brute-force scan on {mismatches} probes:\n\n{}",
                witnesses.join("\n\n")
            );
        }
    }
}

#[test]
fn matcher_mutations_are_caught_by_the_differential() {
    // Fixed internal seed: this asserts the suite's killing power and must
    // not flake when the nightly randomizes MATCHER_SEED.
    const SWEEP_SEED: u64 = 0xD1FF_0002;
    for mutation in [
        MatcherMutation::SwappedRangeBound,
        MatcherMutation::StaleShardAfterUnregister,
    ] {
        let mut rng = SimRng::new(SWEEP_SEED);
        let mut caught = 0usize;
        for _ in 0..40 {
            let mut rrng = rng.split();
            caught += matcher_differential_round(&mut rrng, 20, Some(mutation), None);
        }
        assert!(
            caught > 0,
            "{mutation:?} survived a 40-round differential sweep — the \
             matcher suite has lost its mutation-killing power"
        );
    }
}

#[test]
fn swapped_range_bound_mutation_drops_interval_matches() {
    // Deterministic witness: a range query `a > 2` must match a=3. The
    // swapped-bound mutation inverts the interval probe and loses it.
    let mut tree: MatcherTree<u32> = MatcherTree::new(1);
    let q = Query::parse("/c")
        .unwrap()
        .filter("a", FilterOp::Gt, Value::Int(2))
        .order_by("a", Direction::Asc);
    tree.register(7, &[0], DirectoryId(3), &q);
    let change = DocumentChange {
        name: doc("/c/x"),
        old: None,
        new: Some(Document::new(doc("/c/x"), [("a".to_string(), Value::Int(3))])),
    };
    assert_eq!(tree.match_change(0, DirectoryId(3), &change), vec![7]);
    tree.set_mutation(Some(MatcherMutation::SwappedRangeBound));
    assert!(
        tree.match_change(0, DirectoryId(3), &change).is_empty(),
        "mutation must lose the interval hit for the differential to catch"
    );
}

#[test]
fn stale_shard_mutation_resurrects_unregistered_listener() {
    let mut tree: MatcherTree<u32> = MatcherTree::new(2);
    let q = Query::parse("/c")
        .unwrap()
        .filter("a", FilterOp::Eq, Value::Int(1));
    tree.set_mutation(Some(MatcherMutation::StaleShardAfterUnregister));
    tree.register(7, &[0, 1], DirectoryId(3), &q);
    tree.unregister(&7);
    let change = DocumentChange {
        name: doc("/c/x"),
        old: None,
        new: Some(Document::new(doc("/c/x"), [("a".to_string(), Value::Int(1))])),
    };
    // The mutation skips the last covering shard during unregister: the
    // dead token still matches there, and the invariant check notices.
    assert_eq!(tree.match_change(1, DirectoryId(3), &change), vec![7]);
    assert!(tree.debug_validate().is_err(), "stale index must fail validation");
}
