//! Crash–restart recovery sweep (FoundationDB-style).
//!
//! A seeded mixed workload runs against the full stack — Firestore API over
//! Spanner with durable redo logs, the Real-time Cache, and two listeners —
//! while a crash-point registry counts every named crash site the workload
//! reaches. The sweep then re-runs the *same* workload once per (site,
//! occurrence) pair with a crash armed there, recovers, and asserts:
//!
//! * **durability** — every acknowledged commit survives the crash;
//! * **atomicity** — the in-flight (ambiguous) commit is either fully
//!   applied or fully absent, across tablets;
//! * **index consistency** — IndexEntries equals the set recomputed from
//!   the live Entities rows (the conformance oracle);
//! * **listener convergence** — after catch-up, every listener's view of
//!   its query equals an authoritative re-execution, with no missed or
//!   duplicated events.
//!
//! Seed control: `CRASH_SEED` (default fixed; CI's nightly job sets a
//! random one and prints it for reproduction).

mod common;

use firestore_core::database::doc;
use firestore_core::executor::{ENTITIES, INDEX_ENTRIES};
use firestore_core::index::{entries_for_document, IndexState};
use firestore_core::{
    Caller, Consistency, Document, FirestoreDatabase, FirestoreError, Query, Value, Write,
};
use realtime::{ChangeKind, Connection, ListenEvent, QueryId, RealtimeCache};
use simkit::{CrashPoints, SimDisk, SimRng};
use spanner::{KeyRange, SpannerDatabase};
use std::collections::{BTreeMap, BTreeSet};

/// Document ids on both sides of the `/c/m` tablet split boundary, so
/// multi-document commits become true multi-tablet transactions.
const C_IDS: [&str; 6] = ["a1", "b2", "k3", "n4", "p5", "z6"];
const D_IDS: [&str; 3] = ["d1", "d2", "d3"];

type Fields = BTreeMap<String, Value>;

fn fields_of(d: &Document) -> Fields {
    d.fields
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

fn build() -> (FirestoreDatabase, RealtimeCache, SpannerDatabase) {
    let w = common::world();
    // Split Entities at /c/m: commits touching ids on both sides become
    // multi-tablet (distributed) transactions.
    w.spanner
        .pre_split(ENTITIES, vec![w.db.directory().key(&doc("/c/m").encode())])
        .unwrap();
    (w.db, w.cache, w.spanner)
}

/// One listener: a real-time connection plus the client-visible mirror
/// built *only* from listen events.
struct Listener {
    conn: Connection,
    qid: QueryId,
    query: Query,
    label: String,
    mirror: BTreeMap<String, Fields>,
    reset: bool,
}

impl Listener {
    fn open(db: &FirestoreDatabase, cache: &RealtimeCache, path: &str) -> Listener {
        let query = Query::parse(path).unwrap();
        let conn = cache.connect();
        let ts = db.strong_read_ts();
        let res = db
            .run_query(&query.without_window(), Consistency::AtTimestamp(ts), &Caller::Service)
            .unwrap();
        let qid = conn.listen(db.directory(), query.clone(), res.documents, ts);
        let mut l = Listener {
            conn,
            qid,
            query,
            label: path.to_string(),
            mirror: BTreeMap::new(),
            reset: false,
        };
        l.drain();
        l
    }

    /// Apply queued events to the mirror; note a Reset.
    fn drain(&mut self) {
        for event in self.conn.poll() {
            match event {
                ListenEvent::Snapshot {
                    query,
                    changes,
                    is_initial,
                    ..
                } => {
                    if query != self.qid {
                        continue;
                    }
                    if is_initial {
                        self.mirror.clear();
                    }
                    for c in changes {
                        match c.kind {
                            ChangeKind::Added | ChangeKind::Modified => {
                                self.mirror
                                    .insert(c.doc.name.to_string(), fields_of(&c.doc));
                            }
                            ChangeKind::Removed => {
                                self.mirror.remove(&c.doc.name.to_string());
                            }
                        }
                    }
                }
                ListenEvent::Reset { query, .. } => {
                    if query == self.qid {
                        self.reset = true;
                    }
                }
            }
        }
    }

    /// Re-register after a Reset, rebuilding the mirror from a fresh
    /// authoritative snapshot.
    fn relisten(&mut self, db: &FirestoreDatabase) {
        let ts = db.strong_read_ts();
        let res = db
            .run_query(
                &self.query.without_window(),
                Consistency::AtTimestamp(ts),
                &Caller::Service,
            )
            .unwrap();
        self.qid = self
            .conn
            .listen(db.directory(), self.query.clone(), res.documents, ts);
        self.reset = false;
        self.drain();
    }

    /// The mirror must equal an authoritative re-execution of the query.
    fn assert_converged(&self, db: &FirestoreDatabase, context: &str) {
        let ts = db.strong_read_ts();
        let res = db
            .run_query(
                &self.query.without_window(),
                Consistency::AtTimestamp(ts),
                &Caller::Service,
            )
            .unwrap();
        let authoritative: BTreeMap<String, Fields> = res
            .documents
            .iter()
            .map(|d| (d.name.to_string(), fields_of(d)))
            .collect();
        assert_eq!(
            self.mirror, authoritative,
            "listener on {} diverged ({context})",
            self.label
        );
    }
}

/// One workload step: the writes of one atomic commit.
fn gen_steps(seed: u64, n: usize) -> Vec<Vec<Write>> {
    let mut rng = SimRng::new(seed);
    let mut counter = 0i64;
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        let mut writes = Vec::new();
        match rng.gen_range(10) {
            // Multi-document commit spanning the tablet split: ids from
            // both ends of C_IDS land in different tablets.
            0..=2 => {
                let k = 2 + rng.gen_range(2) as usize;
                let start = rng.gen_range(C_IDS.len() as u64) as usize;
                for j in 0..k {
                    let id = C_IDS[(start + j * 3) % C_IDS.len()];
                    counter += 1;
                    writes.push(Write::set(
                        doc(&format!("/c/{id}")),
                        [("v", Value::Int(counter)), ("grp", Value::Int(counter))],
                    ));
                }
            }
            // Delete.
            3 => {
                let id = C_IDS[rng.gen_range(C_IDS.len() as u64) as usize];
                writes.push(Write::delete(doc(&format!("/c/{id}"))));
            }
            // Single-document set in /d (the surviving listener's world).
            4 | 5 => {
                let id = D_IDS[rng.gen_range(D_IDS.len() as u64) as usize];
                counter += 1;
                writes.push(Write::set(
                    doc(&format!("/d/{id}")),
                    [("v", Value::Int(counter))],
                ));
            }
            // Single-document set in /c.
            _ => {
                let id = C_IDS[rng.gen_range(C_IDS.len() as u64) as usize];
                counter += 1;
                writes.push(Write::set(
                    doc(&format!("/c/{id}")),
                    [("v", Value::Int(counter))],
                ));
            }
        }
        // Deduplicate writes to the same name within one commit (the API
        // layer applies last-write-wins; the model below replays in order,
        // so keeping them would be fine too — this keeps verdicts crisp).
        let mut seen = BTreeSet::new();
        writes.retain(|w| seen.insert(w.op.name().to_string()));
        steps.push(writes);
    }
    steps
}

/// The acked-state model: name → fields of every document whose commit the
/// workload saw acknowledged.
type Model = BTreeMap<String, Fields>;

fn apply_to_model(model: &mut Model, writes: &[Write]) {
    for w in writes {
        match &w.op {
            firestore_core::WriteOp::Set { name, fields } => {
                model.insert(name.to_string(), fields.clone());
            }
            firestore_core::WriteOp::Delete { name } => {
                model.remove(&name.to_string());
            }
            _ => {}
        }
    }
}

/// Durability: every modeled (acked) document — except those touched by
/// the ambiguous commit — reads back exactly; no extra documents exist.
fn verify_durability(db: &FirestoreDatabase, model: &Model, ambiguous_names: &BTreeSet<String>) {
    let ts = db.strong_read_ts();
    let rows = db
        .spanner()
        .snapshot_scan(ENTITIES, &db.directory().range(), ts, usize::MAX)
        .unwrap();
    let mut present: BTreeMap<String, Fields> = BTreeMap::new();
    for (key, bytes, _) in rows {
        let name = firestore_core::DocumentName::decode(&key.as_slice()[4..]).unwrap();
        let d = Document::decode(name.clone(), &bytes).unwrap();
        present.insert(name.to_string(), fields_of(&d));
    }
    for (name, fields) in model {
        if ambiguous_names.contains(name) {
            continue;
        }
        assert_eq!(
            present.get(name),
            Some(fields),
            "acked write to {name} lost or corrupted by the crash"
        );
    }
    for name in present.keys() {
        assert!(
            model.contains_key(name) || ambiguous_names.contains(name),
            "phantom document {name} materialized from the crash"
        );
    }
}

/// Atomicity: the ambiguous commit is either fully applied or fully
/// absent. Folds the commit into the model if it applied. Verdicts come
/// from comparing each touched name against its would-be pre/post states;
/// names whose pre and post states coincide are indeterminate and carry
/// no vote.
fn reconcile_ambiguous(db: &FirestoreDatabase, model: &mut Model, writes: &[Write]) {
    let mut verdicts: Vec<bool> = Vec::new();
    for w in writes {
        let name = w.op.name();
        let actual = db
            .get_document(name, Consistency::Strong, &Caller::Service)
            .unwrap()
            .map(|d| fields_of(&d));
        let pre = model.get(&name.to_string()).cloned();
        let post = match &w.op {
            firestore_core::WriteOp::Set { fields, .. } => Some(fields.clone()),
            firestore_core::WriteOp::Delete { .. } => None,
            _ => continue,
        };
        if pre == post {
            continue;
        }
        if actual == post {
            verdicts.push(true);
        } else if actual == pre {
            verdicts.push(false);
        } else {
            panic!("document {name} is neither its pre- nor post-commit state after recovery");
        }
    }
    assert!(
        verdicts.windows(2).all(|v| v[0] == v[1]),
        "multi-tablet commit applied partially: {verdicts:?}"
    );
    if verdicts.first() == Some(&true) {
        apply_to_model(model, writes);
    }
}

/// Index consistency oracle: IndexEntries must equal the set recomputed
/// from the live documents (Entities↔IndexEntries, §IV-D2).
fn verify_index_consistency(db: &FirestoreDatabase, context: &str) {
    let ts = db.strong_read_ts();
    let spanner = db.spanner();
    let dir = db.directory();
    let rows = spanner
        .snapshot_scan(ENTITIES, &dir.range(), ts, usize::MAX)
        .unwrap();
    let mut expected: BTreeSet<Vec<u8>> = BTreeSet::new();
    for (key, bytes, _) in rows {
        let name = firestore_core::DocumentName::decode(&key.as_slice()[4..]).unwrap();
        let d = Document::decode(name, &bytes).unwrap();
        let keys = db.with_catalog(|c| entries_for_document(c, dir, &d, &[IndexState::Ready]));
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
    assert_eq!(actual, expected, "Entities↔IndexEntries diverged ({context})");
}

/// Run the seeded workload, optionally with one crash armed. Returns the
/// registry (for site enumeration) and whether a crash fired.
fn run(seed: u64, arm: Option<(&str, u64)>) -> (CrashPoints, bool) {
    let (db, cache, spanner) = build();
    spanner.attach_durability(SimDisk::new());
    let cp = CrashPoints::new();
    spanner.env().set_crash_points(Some(cp.clone()));
    if let Some((site, nth)) = arm {
        cp.arm(site, nth);
    }

    let mut listeners = vec![
        Listener::open(&db, &cache, "/c"),
        Listener::open(&db, &cache, "/d"),
    ];
    let mut model: Model = BTreeMap::new();
    let mut crashed = false;

    for writes in gen_steps(seed, 40) {
        match db.commit_writes(writes.clone(), &Caller::Service) {
            Ok(_) => {
                apply_to_model(&mut model, &writes);
                cache.tick();
                for l in &mut listeners {
                    l.drain();
                }
            }
            Err(FirestoreError::Unknown(_)) => {
                assert!(!crashed, "at most one crash per armed run");
                assert!(spanner.crashed(), "Unknown outcome must come from the crash");
                crashed = true;

                let report = spanner.recover();
                assert!(!spanner.crashed());
                if !model.is_empty() {
                    assert!(
                        report.replayed_txns > 0,
                        "acked commits existed, so recovery must replay something"
                    );
                }

                let ambiguous_names: BTreeSet<String> =
                    writes.iter().map(|w| w.op.name().to_string()).collect();
                verify_durability(&db, &model, &ambiguous_names);
                reconcile_ambiguous(&db, &mut model, &writes);
                verify_index_consistency(&db, "post-recovery");

                // Listener recovery: the crashed commit's Unknown outcome
                // reset queries matching its keys; others catch up through
                // the cache restart path.
                for l in &mut listeners {
                    l.drain();
                }
                let ts = db.strong_read_ts();
                cache.restart(
                    |q| {
                        db.run_query(
                            &q.without_window(),
                            Consistency::AtTimestamp(ts),
                            &Caller::Service,
                        )
                        .map(|r| r.documents)
                    },
                    ts,
                );
                for l in &mut listeners {
                    l.drain();
                    if l.reset {
                        l.relisten(&db);
                    }
                    l.assert_converged(&db, "post-recovery catch-up");
                }
            }
            Err(e) => panic!("unexpected commit error: {e}"),
        }
    }

    // Final invariants: the workload continued past recovery and the world
    // is still coherent.
    verify_durability(&db, &model, &BTreeSet::new());
    verify_index_consistency(&db, "end of run");
    cache.tick();
    for l in &mut listeners {
        l.drain();
        if l.reset {
            l.relisten(&db);
        }
        l.assert_converged(&db, "end of run");
    }
    (cp, crashed)
}

fn crash_seed() -> u64 {
    common::env_or("CRASH_SEED", 0xC0FFEE)
}

/// The full sweep: enumerate every crash site the workload reaches, then
/// crash at several occurrences of each in turn.
#[test]
fn crash_point_sweep() {
    let seed = crash_seed();
    println!("crash recovery sweep: CRASH_SEED={seed}");

    // Pass 1: unarmed enumeration.
    let (registry, crashed) = run(seed, None);
    assert!(!crashed);
    let sites = registry.sites();
    println!("registered crash sites: {sites:?}");
    for expected in [
        "commit-before-log",
        "commit-prepare-unsynced",
        "commit-partial-prepare",
        "commit-after-prepare",
        "commit-outcome-unsynced",
        "commit-after-outcome",
        "commit-after-apply",
    ] {
        assert!(
            sites.contains(&expected),
            "workload never reached crash site {expected}; sweep would be vacuous"
        );
    }

    // Pass 2: crash at the first, middle, and last occurrence of every
    // registered site.
    for site in sites {
        let total = registry.hits(site);
        assert!(total > 0);
        let mut occurrences = vec![0, total / 2, total - 1];
        occurrences.dedup();
        for nth in occurrences {
            let (_, crashed) = run(seed, Some((site, nth)));
            assert!(
                crashed,
                "armed crash at {site}#{nth} (of {total}) never fired"
            );
        }
    }
}

/// Torn redo-log tails are detected and truncated. The commit path fsyncs
/// every append and discards the tail when an fsync fails, so the way an
/// unsynced tail exists at crash time is a crash *between* an append and
/// its fsync (the `commit-*-unsynced` sites); with a `TornTail` fault a
/// prefix of the half-written record reaches the durable image, and
/// recovery must not let it resurrect the unacknowledged transaction.
#[test]
fn torn_tail_recovers_to_consistent_state() {
    use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};

    let seed = crash_seed().wrapping_add(1);
    let (db, _cache, spanner) = build();
    let disk = SimDisk::new();
    spanner.attach_durability(disk.clone());
    let clock = spanner.truetime().clock().clone();

    // Clean, acked commit.
    db.commit_writes(
        vec![Write::set(doc("/c/a1"), [("v", Value::Int(1))])],
        &Caller::Service,
    )
    .unwrap();

    // The next commit dies between the outcome append and its fsync, with
    // a TornTail fault active: its prepares are durable, and a prefix of
    // the half-written outcome record reaches the durable image.
    let torn = FaultPlan::new(seed).rule(FaultRule::probabilistic(FaultKind::TornTail, 1.0));
    spanner
        .env()
        .set_chaos(Some(FaultInjector::new(clock, torn)));
    let points = CrashPoints::new();
    points.arm("commit-outcome-unsynced", 0);
    spanner.env().set_crash_points(Some(points));
    let err = db
        .commit_writes(
            vec![Write::set(doc("/c/a1"), [("v", Value::Int(2))])],
            &Caller::Service,
        )
        .unwrap_err();
    assert!(matches!(err, FirestoreError::Unknown(_)));

    let report = spanner.recover();
    assert!(report.torn_tails > 0, "the torn tail must be observed");
    assert!(
        report.discarded_prepares > 0,
        "the prepared-but-undecided participant resolves to abort"
    );
    let got = db
        .get_document(&doc("/c/a1"), Consistency::Strong, &Caller::Service)
        .unwrap()
        .unwrap();
    assert_eq!(
        got.fields["v"],
        Value::Int(1),
        "the unacked commit must not survive via a torn tail"
    );
    verify_index_consistency(&db, "after torn-tail recovery");
}
