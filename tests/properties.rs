//! Property-based tests of the engine's core invariants.

use firestore_core::database::doc;
use firestore_core::encoding::{encoded, Direction};
use firestore_core::executor::{ENTITIES, INDEX_ENTRIES};
use firestore_core::index::{entries_for_document, IndexState};
use firestore_core::matching::matches_document;
use firestore_core::{
    Caller, Consistency, Document, FilterOp, FirestoreDatabase, Query, Value, Write,
};
use proptest::prelude::*;
use simkit::{Duration, SimClock};
use spanner::{KeyRange, SpannerDatabase};
use std::collections::BTreeSet;

// --- generators -------------------------------------------------------------

fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite doubles plus the interesting specials.
        prop_oneof![
            any::<f64>().prop_filter("finite", |x| x.is_finite()),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
        ]
        .prop_map(Value::Double),
        any::<i64>().prop_map(Value::Timestamp),
        "[a-z0-9]{0,12}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..12).prop_map(Value::Bytes),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_scalar().prop_recursive(2, 16, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            proptest::collection::btree_map("[a-c]{1}", inner, 0..3).prop_map(Value::Map),
        ]
    })
}

fn value_sort_key(v: &Value) -> Vec<u8> {
    encoded(v)
}

// --- encoding order ----------------------------------------------------------

/// Structural reference order over values — Firestore's documented semantic
/// order, written *without* the byte encoding: null < bool < numbers (NaN
/// first, int and double unified, -0 == 0) < timestamp < string < bytes <
/// reference < array (elementwise, shorter first) < map (as sorted key/value
/// pairs). The encoding must agree with this bytewise.
fn reference_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Double(_) => 2,
            Value::Timestamp(_) => 3,
            Value::Str(_) => 4,
            Value::Bytes(_) => 5,
            Value::Reference(_) => 6,
            Value::Array(_) => 7,
            Value::Map(_) => 8,
        }
    }
    fn num_cmp(x: f64, y: f64) -> Ordering {
        // NaN sorts before every number; -0 and 0 are equal.
        match (x.is_nan(), y.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => {
                let (x, y) = (x + 0.0, y + 0.0); // -0.0 → 0.0
                x.partial_cmp(&y).expect("non-NaN")
            }
        }
    }
    fn as_f64(v: &Value) -> f64 {
        match v {
            Value::Int(i) => *i as f64,
            Value::Double(x) => *x,
            _ => unreachable!("only numbers"),
        }
    }
    match rank(a).cmp(&rank(b)) {
        Ordering::Equal => {}
        other => return other,
    }
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Int(_) | Value::Double(_), Value::Int(_) | Value::Double(_)) => {
            num_cmp(as_f64(a), as_f64(b))
        }
        (Value::Timestamp(x), Value::Timestamp(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.as_bytes().cmp(y.as_bytes()),
        (Value::Bytes(x), Value::Bytes(y)) => x.cmp(y),
        (Value::Reference(x), Value::Reference(y)) => x.encode().cmp(&y.encode()),
        (Value::Array(x), Value::Array(y)) => {
            for (xi, yi) in x.iter().zip(y.iter()) {
                match reference_cmp(xi, yi) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            x.len().cmp(&y.len())
        }
        (Value::Map(x), Value::Map(y)) => {
            for ((xk, xv), (yk, yv)) in x.iter().zip(y.iter()) {
                match xk.as_bytes().cmp(yk.as_bytes()) {
                    Ordering::Equal => {}
                    other => return other,
                }
                match reference_cmp(xv, yv) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            x.len().cmp(&y.len())
        }
        _ => unreachable!("ranks matched"),
    }
}

proptest! {
    /// The index encoding is *order-preserving and prefix-free*: for any two
    /// values, byte order is a total order, equal encodings imply rules-equal
    /// values, and no encoding is a strict prefix of another's.
    #[test]
    fn encoding_is_prefix_free(a in arb_value(), b in arb_value()) {
        let ea = value_sort_key(&a);
        let eb = value_sort_key(&b);
        if ea != eb {
            prop_assert!(
                !ea.starts_with(&eb) && !eb.starts_with(&ea),
                "prefix collision between {a:?} and {b:?}"
            );
        }
    }

    /// The index encoding is *order-preserving*: byte order of encodings
    /// equals the structural reference order — `encode(a) < encode(b)` iff
    /// `a < b` under Firestore's documented value order. This is the single
    /// property the whole index-scan design leans on: a linear scan of
    /// IndexEntries rows IS a sorted walk of the logical index.
    #[test]
    fn encoding_preserves_reference_order(a in arb_value(), b in arb_value()) {
        let byte_order = value_sort_key(&a).cmp(&value_sort_key(&b));
        prop_assert_eq!(
            byte_order,
            reference_cmp(&a, &b),
            "byte order disagrees with semantic order for {:?} vs {:?}", a, b
        );
    }

    /// Tuple-order consistency: concatenating encodings compares like
    /// comparing component-wise (the property zig-zag joins rely on).
    #[test]
    fn tuple_concatenation_preserves_order(
        a1 in arb_scalar(), a2 in arb_scalar(),
        b1 in arb_scalar(), b2 in arb_scalar(),
    ) {
        let tuple = |x: &Value, y: &Value| {
            let mut v = value_sort_key(x);
            v.extend(value_sort_key(y));
            v
        };
        let component = (value_sort_key(&a1), value_sort_key(&a2));
        let component_b = (value_sort_key(&b1), value_sort_key(&b2));
        prop_assert_eq!(
            tuple(&a1, &a2).cmp(&tuple(&b1, &b2)),
            component.cmp(&component_b)
        );
    }

    /// Descending encoding is exactly the reverse order of ascending.
    #[test]
    fn descending_reverses(a in arb_value(), b in arb_value()) {
        let mut da = Vec::new();
        let mut db = Vec::new();
        firestore_core::encoding::encode_value(&a, Direction::Desc, &mut da);
        firestore_core::encoding::encode_value(&b, Direction::Desc, &mut db);
        prop_assert_eq!(value_sort_key(&a).cmp(&value_sort_key(&b)), db.cmp(&da));
    }

    /// Document serialization round-trips (NaN compares by bit pattern via
    /// re-encoding).
    #[test]
    fn document_round_trip(fields in proptest::collection::btree_map("[a-z]{1,6}", arb_value(), 0..6)) {
        let d = Document::new(doc("/t/x"), fields);
        let bytes = d.encode();
        let decoded = Document::decode(d.name.clone(), &bytes).unwrap();
        prop_assert_eq!(decoded.encode(), bytes);
    }
}

// --- engine invariants --------------------------------------------------------

/// A random mutation script against one collection.
#[derive(Clone, Debug)]
enum Op {
    Set(u8, i64, &'static str),
    Delete(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (
                any::<u8>(),
                any::<i64>(),
                prop_oneof![Just("SF"), Just("NY"), Just("LA")]
            )
                .prop_map(|(id, v, city)| Op::Set(id % 24, v % 100, city)),
            any::<u8>().prop_map(|id| Op::Delete(id % 24)),
        ],
        1..40,
    )
}

fn fresh_db() -> FirestoreDatabase {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    FirestoreDatabase::create_default(SpannerDatabase::new(clock))
}

fn apply_ops(db: &FirestoreDatabase, ops: &[Op]) {
    for op in ops {
        let w = match op {
            Op::Set(id, v, city) => Write::set(
                doc(&format!("/c/d{id:03}")),
                [("v", Value::Int(*v)), ("city", Value::from(*city))],
            ),
            Op::Delete(id) => Write::delete(doc(&format!("/c/d{id:03}"))),
        };
        db.commit_writes(vec![w], &Caller::Service).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any mutation sequence, the IndexEntries table equals the set
    /// recomputed from the live documents — "Firestore indexes stay
    /// strongly consistent with the documents" (§IV-D2).
    #[test]
    fn index_entries_match_documents(ops in arb_ops()) {
        let db = fresh_db();
        apply_ops(&db, &ops);
        let ts = db.strong_read_ts();
        let spanner = db.spanner();
        let dir = db.directory();
        // Recompute expected entries from every live document.
        let rows = spanner.snapshot_scan(ENTITIES, &dir.range(), ts, usize::MAX).unwrap();
        let mut expected: BTreeSet<Vec<u8>> = BTreeSet::new();
        for (key, bytes, _) in rows {
            let name = firestore_core::DocumentName::decode(&key.as_slice()[4..]).unwrap();
            let d = Document::decode(name, &bytes).unwrap();
            let keys = db.with_catalog(|c| {
                entries_for_document(c, dir, &d, &[IndexState::Ready])
            });
            for k in keys {
                expected.insert(k.as_slice().to_vec());
            }
        }
        let actual: BTreeSet<Vec<u8>> = spanner
            .snapshot_scan(INDEX_ENTRIES, &KeyRange::all(), ts, usize::MAX)
            .unwrap()
            .into_iter()
            .map(|(k, _, _)| k.as_slice().to_vec())
            .collect();
        prop_assert_eq!(actual, expected);
    }

    /// Every query result equals the naive scan filtered through
    /// `matches_document` and sorted by the order key (the index path and
    /// the matcher/local-cache path agree by construction — this checks the
    /// planner + executor against them).
    #[test]
    fn query_equals_naive_scan(ops in arb_ops(), threshold in -100i64..100) {
        let db = fresh_db();
        apply_ops(&db, &ops);
        let queries = vec![
            Query::parse("/c").unwrap(),
            Query::parse("/c").unwrap().filter("city", FilterOp::Eq, "SF"),
            Query::parse("/c").unwrap().filter("v", FilterOp::Gt, threshold),
            Query::parse("/c").unwrap().order_by("v", Direction::Desc).limit(5),
            Query::parse("/c").unwrap().filter("v", FilterOp::Le, threshold).order_by("v", Direction::Asc),
        ];
        let ts = db.strong_read_ts();
        for q in queries {
            let result = db.run_query(&q, Consistency::AtTimestamp(ts), &Caller::Service).unwrap();
            // Naive: scan all docs, filter, sort by order key, window.
            let rows = db
                .spanner()
                .snapshot_scan(ENTITIES, &db.directory().range(), ts, usize::MAX)
                .unwrap();
            let mut expected: Vec<(Vec<u8>, String)> = rows
                .into_iter()
                .filter_map(|(key, bytes, _)| {
                    let name = firestore_core::DocumentName::decode(&key.as_slice()[4..])?;
                    let d = Document::decode(name, &bytes)?;
                    if matches_document(&q, &d) {
                        let ok = firestore_core::matching::order_key(&q, &d)?;
                        Some((ok, d.name.to_string()))
                    } else {
                        None
                    }
                })
                .collect();
            expected.sort();
            let expected_names: Vec<String> = expected
                .into_iter()
                .map(|(_, n)| n)
                .skip(q.offset)
                .take(q.limit.unwrap_or(usize::MAX))
                .collect();
            let actual: Vec<String> =
                result.documents.iter().map(|d| d.name.to_string()).collect();
            prop_assert_eq!(actual, expected_names, "query {:?}", q);
        }
    }

    /// MVCC: a snapshot taken mid-sequence returns the same result before
    /// and after later mutations.
    #[test]
    fn snapshots_are_repeatable(ops_before in arb_ops(), ops_after in arb_ops()) {
        let db = fresh_db();
        apply_ops(&db, &ops_before);
        let ts = db.strong_read_ts();
        let q = Query::parse("/c").unwrap();
        let first = db.run_query(&q, Consistency::AtTimestamp(ts), &Caller::Service).unwrap();
        apply_ops(&db, &ops_after);
        let second = db.run_query(&q, Consistency::AtTimestamp(ts), &Caller::Service).unwrap();
        let names = |r: &firestore_core::executor::QueryResult| {
            r.documents.iter().map(|d| (d.name.to_string(), d.update_time)).collect::<Vec<_>>()
        };
        prop_assert_eq!(names(&first), names(&second));
    }

    /// The real-time view converges: a listener that receives the
    /// incremental snapshots ends with exactly the backend's result.
    #[test]
    fn realtime_view_converges(ops in arb_ops()) {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let spanner = SpannerDatabase::new(clock);
        let db = FirestoreDatabase::create_default(spanner.clone());
        let cache = realtime::RealtimeCache::new(
            &spanner,
            realtime::RealtimeOptions::default(),
        );
        db.set_observer(cache.observer_for(db.directory()));
        let conn = cache.connect();
        let q = Query::parse("/c").unwrap();
        conn.listen(db.directory(), q.clone(), vec![], db.strong_read_ts());
        conn.poll();
        apply_ops(&db, &ops);
        cache.tick();
        // Accumulate the view from snapshots.
        let mut view: BTreeSet<String> = BTreeSet::new();
        for e in conn.poll() {
            if let realtime::ListenEvent::Snapshot { changes, .. } = e {
                for c in changes {
                    match c.kind {
                        realtime::ChangeKind::Removed => {
                            view.remove(&c.doc.name.to_string());
                        }
                        _ => {
                            view.insert(c.doc.name.to_string());
                        }
                    }
                }
            }
        }
        let backend: BTreeSet<String> = db
            .run_query(&q, Consistency::Strong, &Caller::Service)
            .unwrap()
            .documents
            .iter()
            .map(|d| d.name.to_string())
            .collect();
        prop_assert_eq!(view, backend);
    }

    /// Offline/online equivalence: a client applying ops offline and then
    /// reconnecting converges to the same server state as applying them
    /// online ("last update wins").
    #[test]
    fn offline_replay_converges(ops in arb_ops()) {
        let run = |offline: bool| {
            let clock = SimClock::new();
            clock.advance(Duration::from_secs(1));
            let spanner = SpannerDatabase::new(clock);
            let db = FirestoreDatabase::create_default(spanner.clone());
            db.set_rules(r#"
                service cloud.firestore {
                  match /databases/{db}/documents {
                    match /{document=**} { allow read, write; }
                  }
                }
            "#).unwrap();
            let cache =
                realtime::RealtimeCache::new(&spanner, realtime::RealtimeOptions::default());
            db.set_observer(cache.observer_for(db.directory()));
            let c = client::FirestoreClient::connect(
                db.clone(),
                cache,
                client::ClientOptions { auth: Some(rules::AuthContext::uid("u")) },
            );
            if offline {
                c.disconnect();
            }
            for op in &ops {
                match op {
                    Op::Set(id, v, city) => c
                        .set(
                            &format!("/c/d{id:03}"),
                            [("v", Value::Int(*v)), ("city", Value::from(*city))],
                        )
                        .unwrap(),
                    Op::Delete(id) => c.delete(&format!("/c/d{id:03}")).unwrap(),
                }
            }
            if offline {
                c.reconnect().unwrap();
            }
            let result = db
                .run_query(
                    &Query::parse("/c").unwrap(),
                    Consistency::Strong,
                    &Caller::Service,
                )
                .unwrap();
            result
                .documents
                .iter()
                .map(|d| (d.name.to_string(), format!("{:?}", d.fields)))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(false), run(true));
    }
}

// --- first-match decision trees ----------------------------------------------

proptest! {
    /// First-match shadowing: among a block's allow statements, the decision
    /// tree must report the *earliest* granting rule's static pre-order id —
    /// later grants are shadowed — and agree with the reference interpreter
    /// on the full decision.
    #[test]
    fn rules_first_match_reports_earliest_granting_rule(
        grants in proptest::collection::vec(any::<bool>(), 1..6),
    ) {
        let allows: String = grants
            .iter()
            .map(|g| format!("allow read: if {g};\n"))
            .collect();
        let src = format!(
            "service cloud.firestore {{\n  match /databases/{{db}}/documents {{\n    \
             match /c/{{d}} {{\n{allows}    }}\n  }}\n}}"
        );
        let rs = rules::parse_ruleset(&src).unwrap();
        let compiled = rules::compile(&rs);
        let req = rules::RequestContext::for_document(
            rules::Method::Get, &["c", "x"], None, None, None,
        );
        let decision = compiled.decide(&req, &rules::EmptyDataSource);
        let earliest = grants.iter().position(|g| *g).map(|i| i as u32);
        prop_assert_eq!(decision.allowed, earliest.is_some());
        prop_assert_eq!(decision.rule, earliest, "shadowed rule reported");
        prop_assert_eq!(decision, rs.decide(&req, &rules::EmptyDataSource));
    }

    /// on_no_match: a request whose path matches no rule pattern falls off
    /// the decision tree and is denied with no rule id — identically in the
    /// compiled tree and the interpreter.
    #[test]
    fn rules_unmatched_paths_deny_with_no_rule(seg in "[a-b]{1,8}", id in "[a-z]{1,8}") {
        let rs = rules::parse_ruleset(r#"
            service cloud.firestore {
              match /databases/{db}/documents {
                match /watched/{d} { allow read, write: if true; }
              }
            }
        "#).unwrap();
        let compiled = rules::compile(&rs);
        let req = rules::RequestContext::for_document(
            rules::Method::Get, &[seg.as_str(), id.as_str()], None, None, None,
        );
        let decision = compiled.decide(&req, &rules::EmptyDataSource);
        prop_assert!(!decision.allowed);
        prop_assert_eq!(decision.rule, None);
        prop_assert_eq!(decision, rs.decide(&req, &rules::EmptyDataSource));
    }

    /// on_no_match for the Query Matcher: a change under a collection no
    /// registered query watches descends to no bucket, matches no tokens,
    /// and EXPLAIN renders the drop decision.
    #[test]
    fn matcher_unwatched_changes_drop(
        n_regs in 1usize..12,
        seg in "[d-z]{2,8}",
        id in "[a-z]{1,6}",
    ) {
        use spanner::database::DirectoryId;
        let dir = DirectoryId(5);
        let mut tree: firestore_core::MatcherTree<usize> = firestore_core::MatcherTree::new(2);
        for t in 0..n_regs {
            // All registrations watch /c (and only /c).
            let q = Query::parse("/c")
                .unwrap()
                .filter("v", FilterOp::Eq, Value::Int(t as i64));
            tree.register(t, &[0, 1], dir, &q);
        }
        // `seg` starts with d-z: never the watched collection "c".
        let change = firestore_core::DocumentChange {
            name: doc(&format!("/{seg}/{id}")),
            old: None,
            new: Some(Document::new(
                doc(&format!("/{seg}/{id}")),
                [("v".to_string(), Value::Int(1))],
            )),
        };
        for shard in 0..2 {
            prop_assert!(tree.match_change(shard, dir, &change).is_empty());
            let trace = tree.explain_change(shard, dir, &change);
            prop_assert!(!trace.bucket_found);
            let rendered = firestore_core::explain::render_matcher_descent(&trace);
            prop_assert!(
                rendered.contains("on_no_match: drop change"),
                "EXPLAIN must show the drop: {}", rendered
            );
        }
    }
}

// --- retry backoff determinism ----------------------------------------------

proptest! {
    /// Backoff delay sequences are a pure function of (policy, seed): the
    /// same seed replays the identical jittered sequence, the sequence has
    /// exactly `max_attempts - 1` delays, and every delay respects the
    /// `max_backoff` hard cap (subtractive jitter never overshoots).
    #[test]
    fn backoff_sequences_deterministic_and_bounded(
        seed in any::<u64>(),
        initial_ms in 1u64..500,
        cap_ms in 1u64..2_000,
        attempts in 1u32..10,
        jitter_pct in 0u32..101,
    ) {
        let policy = firestore_core::RetryPolicy {
            initial_backoff: Duration::from_millis(initial_ms),
            max_backoff: Duration::from_millis(cap_ms),
            multiplier: 2.0,
            max_attempts: attempts,
            jitter: f64::from(jitter_pct) / 100.0,
        };
        let collect = || {
            let mut b = firestore_core::Backoff::new(policy, seed);
            std::iter::from_fn(|| b.next_delay()).collect::<Vec<_>>()
        };
        let first = collect();
        let replay = collect();
        prop_assert_eq!(&first, &replay, "same seed must replay identically");
        prop_assert_eq!(first.len() as u32, attempts - 1);
        for d in &first {
            prop_assert!(*d <= policy.max_backoff, "delay {:?} exceeds cap {:?}", d, policy.max_backoff);
        }
    }
}
