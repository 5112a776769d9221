//! Randomized history-generator workload for the consistency oracle.
//!
//! Drives the full stack — Spanner with durable redo logs, the Firestore
//! API, the Real-time Cache with several listeners, and an offline-capable
//! client — through a seeded mix of commits, snapshot and transactional
//! reads, listens, chaos windows, and crash–recover cycles, with a
//! [`HistoryRecorder`] attached to every layer. The recorded history feeds
//! `firestore_core::checker::check_history`, which replays it against a
//! model store and verifies strict serializability, listener-snapshot
//! consistency, and exactly-once application of acked client mutations.
//!
//! The world is built separately from the run so tests can flip oracle
//! mutation toggles (serve stale reads, drop changelog entries, reorder
//! delivery, ignore the dedup ledger) before generating a history, then
//! assert the checker *rejects* it.

use client::{ClientOptions, FirestoreClient};
use firestore_core::database::doc;
use firestore_core::{
    Caller, Consistency, Direction, FilterOp, FirestoreDatabase, FirestoreError, Query, Value,
    Write,
};
use realtime::{Connection, ListenEvent, ListenSnapshot, QueryId, RealtimeCache, RealtimeOptions};
use simkit::fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRule};
use simkit::history::HistoryRecorder;
use simkit::{Duration, SimClock, SimDisk, SimRng, Timestamp};
use spanner::SpannerDatabase;
use std::collections::HashMap;
use std::sync::Arc;

const OPEN_RULES: &str = r#"
service cloud.firestore {
  match /databases/{db}/documents {
    match /{document=**} { allow read, write; }
  }
}
"#;

const C_IDS: [&str; 6] = ["a1", "b2", "k3", "n4", "p5", "z6"];
const D_IDS: [&str; 4] = ["d1", "d2", "d3", "d4"];

/// The assembled stack with a history recorder attached to every layer.
pub struct HistoryWorld {
    /// Simulated clock shared by every component.
    pub clock: SimClock,
    /// The storage substrate (durable redo logs attached).
    pub spanner: SpannerDatabase,
    /// The Firestore API layer.
    pub db: FirestoreDatabase,
    /// The Real-time Cache.
    pub cache: RealtimeCache,
    /// The recorder all layers append to.
    pub recorder: Arc<HistoryRecorder>,
}

impl HistoryWorld {
    /// Build the stack: Spanner + durability, Firestore database with open
    /// rules, Real-time Cache wired as the commit observer, and one
    /// recorder installed in the world every layer shares.
    pub fn build() -> HistoryWorld {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let spanner = SpannerDatabase::new(clock.clone());
        spanner.attach_durability(SimDisk::new());
        let db = FirestoreDatabase::create_default(spanner.clone());
        db.set_rules(OPEN_RULES).unwrap();
        let cache = RealtimeCache::new(&spanner, RealtimeOptions::default());
        db.set_observer(cache.observer_for(db.directory()));
        let recorder = HistoryRecorder::new();
        spanner.env().set_history(Some(recorder.clone()));
        HistoryWorld {
            clock,
            spanner,
            db,
            cache,
            recorder,
        }
    }
}

/// Configuration for one generated history.
#[derive(Clone, Copy, Debug)]
pub struct HistoryConfig {
    /// Workload seed; every run with the same seed replays identically.
    pub seed: u64,
    /// Number of workload steps.
    pub steps: usize,
    /// Inject probabilistic faults (cache outages, lock timeouts, fsync
    /// failures, TrueTime spikes) during the run.
    pub chaos: bool,
    /// Maximum number of crash–recover cycles.
    pub max_crashes: usize,
}

impl HistoryConfig {
    /// Default shape: 120 steps, chaos on, up to 2 crash cycles.
    pub fn new(seed: u64) -> HistoryConfig {
        HistoryConfig {
            seed,
            steps: 120,
            chaos: true,
            max_crashes: 2,
        }
    }
}

/// What the run produced, ready to hand to the checker.
pub struct HistoryOutcome {
    /// Registered listener queries by raw query id (the checker resolves
    /// `ListenerSnapshot.query` through this).
    pub queries: HashMap<u64, Query>,
    /// Quiesced end-of-run timestamp for the convergence check.
    pub final_ts: Timestamp,
    /// Crash–recover cycles performed.
    pub crashes: usize,
    /// Successfully acknowledged commits (service + client + txn).
    pub commits: usize,
    /// The chaos injector's trace, in firing order (empty without chaos).
    pub faults: Vec<FaultEvent>,
}

struct Listener {
    conn: Connection,
    qid: QueryId,
    query: Query,
    reset: bool,
}

impl Listener {
    fn open(
        world: &HistoryWorld,
        query: Query,
        queries: &mut HashMap<u64, Query>,
    ) -> Listener {
        let conn = world.cache.connect();
        let mut l = Listener {
            conn,
            qid: QueryId(0),
            query,
            reset: false,
        };
        l.register(world, queries);
        l
    }

    /// (Re-)register the query on the connection from a fresh snapshot.
    fn register(&mut self, world: &HistoryWorld, queries: &mut HashMap<u64, Query>) {
        self.qid = ListenSnapshot::read(&world.db, self.query.clone(), &Caller::Service)
            .unwrap()
            .listen(&self.conn);
        queries.insert(self.qid.0, self.query.clone());
        self.reset = false;
        self.drain();
    }

    fn drain(&mut self) {
        for event in self.conn.poll() {
            if let ListenEvent::Reset { query, .. } = event {
                if query == self.qid {
                    self.reset = true;
                }
            }
        }
    }
}

fn chaos_injector(world: &HistoryWorld, seed: u64) -> Arc<FaultInjector> {
    let plan = FaultPlan::new(seed)
        .rule(FaultRule::probabilistic(FaultKind::CacheUnavailable, 0.05))
        .rule(FaultRule::probabilistic(FaultKind::LockTimeout, 0.03))
        .rule(FaultRule::probabilistic(FaultKind::FsyncFail, 0.02))
        .rule(FaultRule::probabilistic(FaultKind::TtUncertaintySpike, 0.05))
        .with_tt_spike(Duration::from_millis(20));
    FaultInjector::new(world.clock.clone(), plan)
}

fn crash_recover(
    world: &HistoryWorld,
    listeners: &mut [Listener],
    queries: &mut HashMap<u64, Query>,
) {
    world.spanner.crash();
    let _report = world.spanner.recover();
    let ts = world.db.strong_read_ts();
    world.cache.restart(
        |q| {
            ListenSnapshot::read_at(&world.db, q.clone(), &Caller::Service, ts)
                .map(ListenSnapshot::into_documents)
        },
        ts,
    );
    for l in listeners.iter_mut() {
        l.drain();
        if l.reset {
            l.register(world, queries);
        }
    }
}

/// Run the seeded workload against a built world and return everything the
/// checker needs. The recorder fills as a side effect
/// (`world.recorder`).
pub fn run_history_workload(world: &HistoryWorld, cfg: &HistoryConfig) -> HistoryOutcome {
    let mut rng = SimRng::new(cfg.seed);
    let injector = cfg.chaos.then(|| chaos_injector(world, cfg.seed ^ 0x51D));
    world.spanner.env().set_chaos(injector.clone());

    let mut queries: HashMap<u64, Query> = HashMap::new();
    let mut listeners = vec![
        Listener::open(world, Query::parse("/c").unwrap(), &mut queries),
        Listener::open(
            world,
            Query::parse("/c")
                .unwrap()
                .order_by("v", Direction::Desc)
                .limit(3),
            &mut queries,
        ),
        Listener::open(
            world,
            Query::parse("/d")
                .unwrap()
                .filter("flag", FilterOp::Eq, Value::Int(1)),
            &mut queries,
        ),
    ];

    let client = FirestoreClient::connect(
        world.db.clone(),
        world.cache.clone(),
        ClientOptions::default(),
    );

    let mut counter = 0i64;
    let mut commits = 0usize;
    let mut crashes = 0usize;

    for _step in 0..cfg.steps {
        world
            .clock
            .advance(Duration::from_millis(1 + rng.gen_range(20)));
        match rng.gen_range(100) {
            // Service commit of 1–3 writes (sets and the odd delete).
            0..=29 => {
                let k = 1 + rng.gen_range(3) as usize;
                let mut writes = Vec::new();
                for _ in 0..k {
                    let id = C_IDS[rng.gen_range(C_IDS.len() as u64) as usize];
                    if rng.gen_bool(0.15) {
                        writes.push(Write::delete(doc(&format!("/c/{id}"))));
                    } else {
                        counter += 1;
                        writes.push(Write::set(
                            doc(&format!("/c/{id}")),
                            [
                                ("v", Value::Int(counter)),
                                ("grp", Value::Int(counter % 5)),
                            ],
                        ));
                    }
                }
                let mut seen = std::collections::BTreeSet::new();
                writes.retain(|w| seen.insert(w.op.name().to_string()));
                match world.db.commit_writes(writes, &Caller::Service) {
                    Ok(_) => {
                        commits += 1;
                        world.cache.tick();
                    }
                    Err(FirestoreError::Unknown(_)) if world.spanner.crashed() => {
                        crashes += 1;
                        crash_recover(world, &mut listeners, &mut queries);
                    }
                    Err(_) => {} // chaos: unavailable / aborted / deadline
                }
            }
            // Client blind writes (acked through the dedup ledger).
            30..=44 => {
                let id = D_IDS[rng.gen_range(D_IDS.len() as u64) as usize];
                counter += 1;
                let res = if rng.gen_bool(0.1) {
                    client.delete(&format!("/d/{id}"))
                } else {
                    client.set(
                        &format!("/d/{id}"),
                        [
                            ("v", Value::Int(counter)),
                            ("flag", Value::Int(counter % 2)),
                        ],
                    )
                };
                if res.is_ok() {
                    commits += 1;
                }
            }
            // Client sync: flush stalled writes, drain listen events.
            45..=51 => {
                let _ = client.sync();
            }
            // Point read, strong or at a recent past timestamp.
            52..=64 => {
                let coll = if rng.gen_bool(0.5) { "c" } else { "d" };
                let ids: &[&str] = if coll == "c" { &C_IDS } else { &D_IDS };
                let id = ids[rng.gen_range(ids.len() as u64) as usize];
                let consistency = if rng.gen_bool(0.5) {
                    Consistency::Strong
                } else {
                    let strong = world.db.strong_read_ts();
                    let back = rng.gen_range(50_000_000); // ≤50ms into the past
                    Consistency::AtTimestamp(Timestamp(strong.0.saturating_sub(back).max(1)))
                };
                let _ = world.db.get_document(
                    &doc(&format!("/{coll}/{id}")),
                    consistency,
                    &Caller::Service,
                );
            }
            // Query, strong or at a recent past timestamp.
            65..=74 => {
                let q = match rng.gen_range(3) {
                    0 => Query::parse("/c").unwrap(),
                    1 => Query::parse("/c")
                        .unwrap()
                        .order_by("v", Direction::Desc)
                        .limit(4),
                    _ => Query::parse("/d").unwrap(),
                };
                let consistency = if rng.gen_bool(0.5) {
                    Consistency::Strong
                } else {
                    let strong = world.db.strong_read_ts();
                    let back = rng.gen_range(50_000_000);
                    Consistency::AtTimestamp(Timestamp(strong.0.saturating_sub(back).max(1)))
                };
                let _ = world.db.run_query(&q, consistency, &Caller::Service);
            }
            // Read-modify-write transaction (locking reads recorded).
            75..=81 => {
                let id = C_IDS[rng.gen_range(C_IDS.len() as u64) as usize];
                let name = doc(&format!("/c/{id}"));
                let res = world.db.run_transaction(3, |txn| {
                    let cur = txn.get(&name)?;
                    let v = cur
                        .and_then(|d| match d.fields.get("v") {
                            Some(Value::Int(v)) => Some(*v),
                            _ => None,
                        })
                        .unwrap_or(0);
                    txn.set(
                        name.clone(),
                        [("v", Value::Int(v + 1)), ("grp", Value::Int(v % 5))],
                    );
                    Ok(())
                });
                match res {
                    Ok(()) => {
                        commits += 1;
                        world.cache.tick();
                    }
                    Err(FirestoreError::Unknown(_)) if world.spanner.crashed() => {
                        crashes += 1;
                        crash_recover(world, &mut listeners, &mut queries);
                    }
                    Err(_) => {}
                }
            }
            // Pump the cache and the listeners.
            82..=89 => {
                world.cache.tick();
                for l in listeners.iter_mut() {
                    l.drain();
                    if l.reset {
                        l.register(world, &mut queries);
                    }
                }
            }
            // Maintenance: collect old dedup-ledger rows (the horizon is
            // far beyond any in-run retry window).
            90..=93 => {
                let horizon = Duration::from_secs(600);
                let now = world.clock.now();
                if now.0 > horizon.0 {
                    let _ = world.db.gc_write_ledger(Timestamp(now.0 - horizon.0));
                }
            }
            // Crash–recover cycle between operations.
            _ => {
                if crashes < cfg.max_crashes {
                    crashes += 1;
                    crash_recover(world, &mut listeners, &mut queries);
                }
            }
        }
    }

    // Quiesce: end the chaos windows, flush the client dry, and pump
    // everything until listeners are current.
    world.spanner.env().set_chaos(None);
    for _ in 0..32 {
        world.clock.advance(Duration::from_secs(2));
        let _ = client.sync();
        world.cache.tick();
        for l in listeners.iter_mut() {
            l.drain();
            if l.reset {
                l.register(world, &mut queries);
            }
        }
        if client.pending_writes() == 0 {
            break;
        }
    }
    world.cache.tick();
    for l in listeners.iter_mut() {
        l.drain();
    }
    let final_ts = world.db.strong_read_ts();

    HistoryOutcome {
        queries,
        final_ts,
        crashes,
        commits,
        faults: injector.map(|i| i.trace()).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_per_seed() {
        let run = |seed| {
            let world = HistoryWorld::build();
            let out = run_history_workload(&world, &HistoryConfig::new(seed));
            (world.recorder.len(), out.commits, out.crashes)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, 0);
    }

    #[test]
    fn workload_reaches_every_event_kind() {
        use simkit::history::HistoryEvent;
        let world = HistoryWorld::build();
        let out = run_history_workload(&world, &HistoryConfig::new(11));
        assert!(out.commits > 0);
        let events = world.recorder.events();
        let has = |f: &dyn Fn(&HistoryEvent) -> bool| events.iter().any(|r| f(&r.event));
        assert!(has(&|e| matches!(e, HistoryEvent::Commit { .. })));
        assert!(has(&|e| matches!(e, HistoryEvent::SnapshotRead { .. })));
        assert!(has(&|e| matches!(e, HistoryEvent::DocRead { .. })));
        assert!(has(&|e| matches!(e, HistoryEvent::ClientAck { .. })));
        assert!(has(&|e| matches!(e, HistoryEvent::ListenerSnapshot { .. })));
    }
}
