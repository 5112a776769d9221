//! End-to-end integration tests spanning the whole stack: multi-tenant
//! service → Firestore engine → Spanner substrate → Real-time Cache →
//! client SDK.

use client::{ClientOptions, FirestoreClient};
use firestore_core::database::doc;
use firestore_core::{
    Caller, Consistency, Direction, FilterOp, FirestoreError, Query, Value, Write,
};
use rules::AuthContext;
use server::{FirestoreService, ServiceOptions};
use simkit::history::{HistoryEvent, HistoryRecorder};
use simkit::{Duration, SimClock};

const OPEN_RULES: &str = r#"
service cloud.firestore {
  match /databases/{db}/documents {
    match /{document=**} { allow read, write; }
  }
}
"#;

fn service() -> FirestoreService {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    FirestoreService::new(clock, ServiceOptions::default())
}

#[test]
fn full_stack_write_query_listen() {
    let svc = service();
    let db = svc.create_database("app");
    db.set_rules(OPEN_RULES).unwrap();

    // A client writes through the SDK; another listens.
    let writer = FirestoreClient::connect(
        db.clone(),
        svc.realtime().clone(),
        ClientOptions {
            auth: Some(AuthContext::uid("w")),
        },
    );
    let reader = FirestoreClient::connect(
        db.clone(),
        svc.realtime().clone(),
        ClientOptions {
            auth: Some(AuthContext::uid("r")),
        },
    );
    let q = Query::parse("/posts")
        .unwrap()
        .order_by("score", Direction::Desc);
    let listener = reader.listen(q.clone()).unwrap();
    reader.take_snapshots(listener);

    for (id, score) in [("a", 3i64), ("b", 9), ("c", 5)] {
        writer
            .set(&format!("/posts/{id}"), [("score", Value::Int(score))])
            .unwrap();
    }
    svc.realtime().tick();
    reader.sync().unwrap();
    let snaps = reader.take_snapshots(listener);
    let last = snaps.last().expect("snapshots arrived");
    let ids: Vec<&str> = last.documents.iter().map(|d| d.name.id()).collect();
    assert_eq!(
        ids,
        vec!["b", "c", "a"],
        "live view is sorted by score desc"
    );
}

#[test]
fn tenants_share_infrastructure_but_not_data() {
    let svc = service();
    let a = svc.create_database("tenant-a");
    let b = svc.create_database("tenant-b");
    for (db, tag) in [(&a, "a"), (&b, "b")] {
        db.commit_writes(
            vec![Write::set(
                doc("/items/shared-name"),
                [("owner", Value::from(tag))],
            )],
            &Caller::Service,
        )
        .unwrap();
    }
    let got_a = a
        .get_document(
            &doc("/items/shared-name"),
            Consistency::Strong,
            &Caller::Service,
        )
        .unwrap()
        .unwrap();
    let got_b = b
        .get_document(
            &doc("/items/shared-name"),
            Consistency::Strong,
            &Caller::Service,
        )
        .unwrap()
        .unwrap();
    assert_eq!(got_a.fields["owner"], Value::from("a"));
    assert_eq!(got_b.fields["owner"], Value::from("b"));
    // Same underlying Spanner tables hold both.
    assert_eq!(svc.spanner().live_keys("Entities").unwrap(), 2);
}

#[test]
fn composite_index_lifecycle_under_live_traffic() {
    let svc = service();
    let db = svc.create_database("app");
    for i in 0..40 {
        db.commit_writes(
            vec![Write::set(
                doc(&format!("/products/p{i:03}")),
                [
                    (
                        "category",
                        Value::from(if i % 2 == 0 { "tools" } else { "toys" }),
                    ),
                    ("price", Value::Int(i as i64)),
                ],
            )],
            &Caller::Service,
        )
        .unwrap();
    }
    let q = Query::parse("/products")
        .unwrap()
        .filter("category", FilterOp::Eq, "tools")
        .order_by("price", Direction::Desc);
    assert!(matches!(
        db.run_query(&q, Consistency::Strong, &Caller::Service),
        Err(FirestoreError::MissingIndex { .. })
    ));
    // Build incrementally with writes landing mid-backfill.
    let id = db.with_catalog(|c| {
        c.add_composite(
            "products",
            vec![
                firestore_core::index::IndexedField::asc("category"),
                firestore_core::index::IndexedField::desc("price"),
            ],
            firestore_core::index::IndexState::Building,
        )
    });
    let mut cursor = firestore_core::backfill::BackfillCursor::new(&db, id).unwrap();
    cursor.step(&db, 10).unwrap();
    db.commit_writes(
        vec![Write::set(
            doc("/products/hot"),
            [
                ("category", Value::from("tools")),
                ("price", Value::Int(999)),
            ],
        )],
        &Caller::Service,
    )
    .unwrap();
    while !cursor.is_done() {
        cursor.step(&db, 10).unwrap();
    }
    let result = db
        .run_query(&q, Consistency::Strong, &Caller::Service)
        .unwrap();
    assert_eq!(
        result.documents[0].name.id(),
        "hot",
        "mid-backfill write is indexed and first"
    );
    assert_eq!(result.documents.len(), 21);
    // Drop it again.
    firestore_core::backfill::run_backremoval(&db, id, 16).unwrap();
    assert!(db
        .run_query(&q, Consistency::Strong, &Caller::Service)
        .is_err());
}

#[test]
fn triggers_fire_once_per_committed_change() {
    let svc = service();
    let db = svc.create_database("app");
    let trigger = db.triggers().register("orders");
    db.commit_writes(
        vec![Write::set(doc("/orders/1"), [("total", Value::Int(10))])],
        &Caller::Service,
    )
    .unwrap();
    db.commit_writes(
        vec![Write::set(doc("/orders/1"), [("total", Value::Int(20))])],
        &Caller::Service,
    )
    .unwrap();
    // A failed commit must not fire the trigger.
    let dup = Write::create(doc("/orders/1"), [("total", Value::Int(99))]);
    assert!(db.commit_writes(vec![dup], &Caller::Service).is_err());

    let mut events = Vec::new();
    firestore_core::triggers::TriggerExecutor::drain(db.queue(), trigger, 100, |e| {
        events.push(e);
    })
    .unwrap();
    assert_eq!(events.len(), 2);
    assert!(events[0].old.is_none() && events[0].new.is_some());
    assert_eq!(
        events[1].old.as_ref().unwrap().fields["total"],
        Value::Int(10)
    );
    assert_eq!(
        events[1].new.as_ref().unwrap().fields["total"],
        Value::Int(20)
    );
}

#[test]
fn realtime_consistency_across_two_queries_one_connection() {
    // Paper §IV-D4: "queries on the same connection are only updated to a
    // timestamp t once all queries' max-commit-version has reached at
    // least t" — one atomic write touching both result sets must surface
    // in snapshots with the same timestamp.
    let svc = service();
    let db = svc.create_database("app");
    let conn = svc.connect();
    let q1 = Query::parse("/accounts").unwrap();
    let q2 = Query::parse("/ledger").unwrap();
    let id1 = svc.listen("app", &conn, q1, &Caller::Service).unwrap();
    let id2 = svc.listen("app", &conn, q2, &Caller::Service).unwrap();
    conn.poll();

    // One transaction debits an account and appends a ledger entry.
    db.commit_writes(
        vec![
            Write::set(doc("/accounts/alice"), [("balance", Value::Int(90))]),
            Write::set(doc("/ledger/tx1"), [("amount", Value::Int(-10))]),
        ],
        &Caller::Service,
    )
    .unwrap();
    svc.realtime().tick();
    let events = conn.poll();
    let stamps: Vec<(realtime::QueryId, simkit::Timestamp)> = events
        .iter()
        .filter_map(|e| match e {
            realtime::ListenEvent::Snapshot { query, at, .. } => Some((*query, *at)),
            _ => None,
        })
        .collect();
    assert_eq!(stamps.len(), 2, "both queries get a snapshot");
    assert_eq!(
        stamps[0].1, stamps[1].1,
        "and at the same consistent timestamp"
    );
    assert!(stamps.iter().any(|(q, _)| *q == id1));
    assert!(stamps.iter().any(|(q, _)| *q == id2));
}

#[test]
fn billing_meters_through_the_service() {
    let svc = service();
    let db = svc.create_database("app");
    db.set_rules(OPEN_RULES).unwrap();
    let mut rng = simkit::SimRng::new(1);
    for i in 0..5 {
        svc.commit(
            "app",
            vec![Write::set(doc(&format!("/d/x{i}")), [("v", Value::Int(i))])],
            &Caller::Service,
            &mut rng,
        )
        .unwrap();
    }
    let (result, _) = svc
        .run_query(
            "app",
            &Query::parse("/d").unwrap(),
            &Caller::Service,
            &mut rng,
        )
        .unwrap();
    assert_eq!(result.documents.len(), 5);
    let usage = svc.billing.usage("app");
    assert_eq!(usage.writes, 5);
    assert_eq!(usage.reads, 5, "a query bills per result document");
    // Everything is far below the free quota: the bill is zero.
    assert_eq!(svc.billing.bill("app").total_dollars, 0.0);
}

#[test]
fn snapshot_reads_do_not_block_under_write_load() {
    let svc = service();
    let db = svc.create_database("app");
    db.commit_writes(
        vec![Write::set(doc("/c/hot"), [("v", Value::Int(0))])],
        &Caller::Service,
    )
    .unwrap();
    let frozen_ts = db.strong_read_ts();
    // A transaction holds an exclusive lock on the hot document...
    let mut txn = db.begin_transaction();
    txn.get(&doc("/c/hot")).unwrap();
    // ...while timestamp reads keep being served.
    for _ in 0..10 {
        let got = db
            .get_document(
                &doc("/c/hot"),
                Consistency::AtTimestamp(frozen_ts),
                &Caller::Service,
            )
            .unwrap();
        assert!(got.is_some());
    }
    txn.abort();
}

#[test]
fn refused_count_reads_no_index_entry() {
    let svc = service();
    let db = svc.create_database("app");
    for i in 0..5 {
        db.commit_writes(
            vec![Write::set(doc(&format!("/c/d{i}")), [("v", Value::Int(i))])],
            &Caller::Service,
        )
        .unwrap();
    }
    let history = HistoryRecorder::new();
    db.spanner().set_history(Some(history.clone()));
    // No rules are installed, so a third party may not list `/c`.
    let user = Caller::EndUser(Some(AuthContext::uid("u")));
    let q = Query::parse("/c").unwrap();
    assert!(matches!(
        db.run_count(&q, Consistency::Strong, &user),
        Err(FirestoreError::PermissionDenied(_))
    ));
    assert!(
        !history
            .events()
            .iter()
            .any(|r| matches!(r.event, HistoryEvent::SnapshotRead { .. })),
        "a COUNT without list permission must be refused before any scan"
    );
}

#[test]
fn realtime_listeners_never_cross_tenants() {
    // Two databases share the Real-time Cache; identical document names
    // must stay isolated by directory.
    let svc = service();
    let a = svc.create_database("tenant-a");
    let b = svc.create_database("tenant-b");
    let conn_a = svc.connect();
    let conn_b = svc.connect();
    svc.listen(
        "tenant-a",
        &conn_a,
        Query::parse("/chat").unwrap(),
        &Caller::Service,
    )
    .unwrap();
    svc.listen(
        "tenant-b",
        &conn_b,
        Query::parse("/chat").unwrap(),
        &Caller::Service,
    )
    .unwrap();
    conn_a.poll();
    conn_b.poll();
    a.commit_writes(
        vec![Write::set(doc("/chat/msg1"), [("from", Value::from("a"))])],
        &Caller::Service,
    )
    .unwrap();
    svc.realtime().tick();
    assert_eq!(conn_a.poll().len(), 1, "tenant A hears its own write");
    assert!(
        conn_b.poll().is_empty(),
        "tenant B must not hear tenant A's write"
    );
    b.commit_writes(
        vec![Write::set(doc("/chat/msg1"), [("from", Value::from("b"))])],
        &Caller::Service,
    )
    .unwrap();
    svc.realtime().tick();
    assert!(conn_a.poll().is_empty());
    assert_eq!(conn_b.poll().len(), 1);
}

#[test]
fn version_gc_preserves_recent_snapshots() {
    let svc = service();
    let db = svc.create_database("app");
    db.commit_writes(
        vec![Write::set(doc("/c/d"), [("v", Value::Int(1))])],
        &Caller::Service,
    )
    .unwrap();
    let old_ts = db.strong_read_ts();
    svc.clock().advance(simkit::Duration::from_secs(7200));
    db.commit_writes(
        vec![Write::set(doc("/c/d"), [("v", Value::Int(2))])],
        &Caller::Service,
    )
    .unwrap();
    // Maintenance GCs versions older than an hour.
    svc.tick();
    // Recent strong reads still work.
    let now_doc = db
        .get_document(&doc("/c/d"), Consistency::Strong, &Caller::Service)
        .unwrap()
        .unwrap();
    assert_eq!(now_doc.fields["v"], Value::Int(2));
    // The 2-hour-old snapshot is gone.
    assert!(matches!(
        db.get_document(
            &doc("/c/d"),
            Consistency::AtTimestamp(old_ts),
            &Caller::Service
        ),
        Err(FirestoreError::FailedPrecondition(_))
    ));
}

#[test]
fn admission_override_throttles_one_tenant() {
    let svc = service();
    svc.create_database("noisy");
    svc.create_database("quiet");
    svc.admission.set_override("noisy", 2);
    assert!(svc.admission.try_admit("noisy").is_ok());
    assert!(svc.admission.try_admit("noisy").is_ok());
    assert!(
        svc.admission.try_admit("noisy").is_err(),
        "noisy tenant capped"
    );
    for _ in 0..50 {
        assert!(
            svc.admission.try_admit("quiet").is_ok(),
            "quiet tenant unaffected"
        );
    }
}
