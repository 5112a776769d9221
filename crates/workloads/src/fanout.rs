//! The Fig 9 broadcast workload.
//!
//! "We set up a workload that writes to a single document once every
//! second, while an increasing number of Firestore clients open a real-time
//! query that includes that document in its result set. Thus, each write to
//! the document triggers a small update that is sent to each client."

use firestore_core::checker::{check_history, OracleReport};
use firestore_core::database::doc;
use firestore_core::{
    Caller, Consistency, FirestoreDatabase, FirestoreResult, Query, Value, Write,
};
use realtime::{Connection, QueryId, RealtimeCache, RealtimeOptions, ResilientListener};
use server::FirestoreService;
use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
use simkit::history::HistoryRecorder;
use simkit::{Duration, SimClock, SimDisk, SimRng, Timestamp};
use spanner::SpannerDatabase;
use std::collections::{BTreeSet, HashMap};

/// The broadcast fixture: one scoreboard document, N listening clients.
pub struct FanoutFixture {
    /// Service under test.
    pub database: String,
    /// Listening connections with their query ids.
    pub listeners: Vec<(Connection, QueryId)>,
    seq: i64,
}

impl FanoutFixture {
    /// Create the scoreboard and register `n` listeners (e.g. sports-score
    /// viewers).
    pub fn new(svc: &FirestoreService, database: &str, n: usize) -> FirestoreResult<FanoutFixture> {
        let db = svc.database(database).expect("database exists");
        db.commit_writes(
            vec![Write::set(
                doc("/scores/game1"),
                [("home", Value::Int(0)), ("away", Value::Int(0))],
            )],
            &Caller::Service,
        )?;
        let mut listeners = Vec::with_capacity(n);
        for _ in 0..n {
            let conn = svc.connect();
            let q = Query::parse("/scores").unwrap();
            let qid = svc.listen(database, &conn, q, &Caller::Service)?;
            conn.poll(); // drain the initial snapshot
            listeners.push((conn, qid));
        }
        Ok(FanoutFixture {
            database: database.to_string(),
            listeners,
            seq: 0,
        })
    }

    /// Perform one scoreboard write (a team scores).
    pub fn write_once(&mut self, svc: &FirestoreService) -> FirestoreResult<()> {
        self.seq += 1;
        let db = svc.database(&self.database).expect("database exists");
        db.commit_writes(
            vec![Write::set(
                doc("/scores/game1"),
                [("home", Value::Int(self.seq)), ("away", Value::Int(0))],
            )],
            &Caller::Service,
        )?;
        Ok(())
    }

    /// Poll all listeners; returns how many received a (non-initial)
    /// snapshot.
    pub fn poll_all(&self) -> usize {
        self.listeners
            .iter()
            .filter(|(conn, _)| {
                conn.poll()
                    .iter()
                    .any(|e| matches!(e, realtime::ListenEvent::Snapshot { .. }))
            })
            .count()
    }
}

// --- Scaled fanout workload -------------------------------------------------
//
// The Fig 9 shape taken to overload territory: 10³–10⁵ resilient listeners
// on one hot collection, a seeded subset of *slow consumers* whose clients
// stop draining mid-run (a scheduled [`FaultKind::StalledConsumer`] window).
// The pipeline must keep conforming listeners on cadence, shed the stalled
// ones with a voluntary `overload` reset, and let the degrade/catch-up
// machinery converge everyone by the end.

/// Configuration for one scaled fanout run.
#[derive(Clone, Copy, Debug)]
pub struct FanoutConfig {
    /// Workload seed; same seed replays identically.
    pub seed: u64,
    /// Total listeners on the hot collection.
    pub listeners: usize,
    /// Hot-document write cycles (one write + tick + poll sweep each).
    pub cycles: usize,
    /// Listeners whose client stalls during the scheduled window.
    pub slow: usize,
    /// Distinct hot documents written round-robin.
    pub hot_docs: usize,
    /// Attach the consistency recorder and run the oracle at the end
    /// (keep off at 10⁴+ listeners; the history itself becomes the cost).
    pub oracle: bool,
}

impl FanoutConfig {
    /// Default shape: 200 listeners, 4 slow, oracle on.
    pub fn new(seed: u64) -> FanoutConfig {
        FanoutConfig {
            seed,
            listeners: 200,
            cycles: 60,
            slow: 4,
            hot_docs: 2,
            oracle: true,
        }
    }
}

/// What one scaled run produced.
pub struct FanoutReport {
    /// Listeners registered.
    pub listeners: usize,
    /// Non-initial notification events delivered to conforming listeners.
    pub notifications: u64,
    /// Sim-time delivery latency (commit → poll) for conforming listeners.
    pub conforming_p50: Duration,
    /// p99 of the same; a pipeline that lets one slow consumer stall the
    /// flush shows up here as multiples of the write cadence.
    pub conforming_p99: Duration,
    /// Voluntary (overload) resets the cache fired.
    pub overload_resets: u64,
    /// Involuntary (fault) resets.
    pub fault_resets: u64,
    /// Per-listener deltas absorbed by coalescing.
    pub coalesced: u64,
    /// Events dropped with shed queues.
    pub dropped_events: u64,
    /// Peak resident outbound-queue bytes across the run.
    pub peak_queue_bytes: u64,
    /// Every listener's delivered state equals the query result at the end.
    pub all_converged: bool,
    /// Every slow listener was overload-reset and still converged.
    pub slow_recovered: bool,
    /// Oracle verdict over the recorded history (when enabled).
    pub oracle: Option<OracleReport>,
}

/// Run the scaled fanout workload.
pub fn run_fanout(cfg: &FanoutConfig) -> FanoutReport {
    assert!(cfg.slow <= cfg.listeners);
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let spanner = SpannerDatabase::new(clock.clone());
    spanner.attach_durability(SimDisk::new());
    let db = FirestoreDatabase::create_default(spanner.clone());
    let mut opts = RealtimeOptions::default();
    // Exercise the batched changelog path and a tight shed deadline so a
    // stalled consumer is detected within the run.
    opts.fanout.flush_interval = Duration::from_millis(50);
    opts.fanout.stall_deadline = Duration::from_millis(500);
    let cache = RealtimeCache::new(&spanner, opts);
    db.set_observer(cache.observer_for(db.directory()));
    let recorder = cfg.oracle.then(HistoryRecorder::new);
    spanner.env().set_history(recorder.clone());

    let mut rng = SimRng::new(cfg.seed);
    let query = Query::parse("/scores").unwrap();
    let mut queries: HashMap<u64, Query> = HashMap::new();
    let mut listeners: Vec<ResilientListener> = (0..cfg.listeners)
        .map(|_| {
            let conn = cache.connect();
            let l = ResilientListener::listen(&db, &conn, query.clone(), Caller::Service).unwrap();
            if let Some(qid) = l.query_id() {
                queries.insert(qid.0, query.clone());
            }
            l
        })
        .collect();
    for l in listeners.iter_mut() {
        l.poll().unwrap(); // initial snapshot; stamps the drain clock
    }

    // The stall window: slow consumers stop draining for long enough that
    // the shed deadline must fire well before the window ends.
    let cadence = Duration::from_millis(100);
    let window_start = clock.now() + Duration::from_nanos(cadence.as_nanos() * (cfg.cycles as u64 / 4));
    let window_end = window_start + Duration::from_millis(1500);
    let stall = FaultInjector::new(
        clock.clone(),
        FaultPlan::new(cfg.seed ^ 0xFA0).rule(FaultRule::scheduled(
            FaultKind::StalledConsumer,
            window_start,
            window_end,
        )),
    );

    let mut counter = 0i64;
    let mut notifications = 0u64;
    let mut conforming_lat: Vec<u64> = Vec::new();
    let mut peak_queue_bytes = 0u64;

    for cycle in 0..cfg.cycles {
        clock.advance(Duration::from_millis(10 + rng.gen_range(10)));
        counter += 1;
        let d = cycle % cfg.hot_docs.max(1);
        db.commit_writes(
            vec![Write::set(
                doc(&format!("/scores/hot{d}")),
                [("v", Value::Int(counter)), ("w", Value::Int(cycle as i64))],
            )],
            &Caller::Service,
        )
        .unwrap();
        clock.advance(Duration::from_millis(40));
        cache.tick();
        clock.advance(Duration::from_millis(50));
        let now = clock.now();
        for (i, l) in listeners.iter_mut().enumerate() {
            let stalled = i < cfg.slow && stall.should_inject(FaultKind::StalledConsumer, "poll");
            if stalled {
                continue; // the client has gone dark: nothing drains
            }
            for ev in l.poll().unwrap() {
                if ev.changes.is_empty() {
                    continue;
                }
                if i >= cfg.slow {
                    notifications += 1;
                    conforming_lat.push(now.saturating_sub(ev.at).as_nanos());
                }
            }
            if let Some(qid) = l.query_id() {
                queries.entry(qid.0).or_insert_with(|| query.clone());
            }
        }
        let s = cache.stats();
        peak_queue_bytes = peak_queue_bytes.max(s.queued_bytes as u64);
    }

    // Quiesce: run past the stall window and let everyone catch up.
    for _ in 0..24 {
        clock.advance(cadence);
        cache.tick();
        for l in listeners.iter_mut() {
            l.poll().unwrap();
            if let Some(qid) = l.query_id() {
                queries.entry(qid.0).or_insert_with(|| query.clone());
            }
        }
    }

    let final_ts = db.strong_read_ts();
    let expect: BTreeSet<(String, Timestamp)> = db
        .run_query(&query, Consistency::AtTimestamp(final_ts), &Caller::Service)
        .unwrap()
        .documents
        .into_iter()
        .map(|d| (d.name.to_string(), d.update_time))
        .collect();
    let delivered_set = |l: &ResilientListener| -> BTreeSet<(String, Timestamp)> {
        l.delivered_docs()
            .into_iter()
            .map(|d| (d.name.to_string(), d.update_time))
            .collect()
    };
    let all_converged = listeners.iter().all(|l| delivered_set(l) == expect);
    let slow_recovered = listeners[..cfg.slow]
        .iter()
        .all(|l| l.stats().overload_resets_seen >= 1 && !l.is_degraded());

    let s = cache.stats();
    let oracle = recorder
        .as_ref()
        .map(|rec| check_history(&rec.events(), db.directory(), &queries, final_ts));

    FanoutReport {
        listeners: cfg.listeners,
        notifications,
        conforming_p50: Duration::from_nanos(percentile(&mut conforming_lat, 50.0)),
        conforming_p99: Duration::from_nanos(percentile(&mut conforming_lat, 99.0)),
        overload_resets: s.resets_overload,
        fault_resets: s.resets_fault,
        coalesced: s.coalesced,
        dropped_events: s.dropped_events,
        peak_queue_bytes,
        all_converged,
        slow_recovered,
        oracle,
    }
}

/// Nearest-rank percentile over raw nanosecond samples (sorts in place).
fn percentile(samples: &mut [u64], pct: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use server::ServiceOptions;

    #[test]
    fn every_listener_hears_every_write() {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let svc = FirestoreService::new(clock, ServiceOptions::default());
        svc.create_database("scores");
        let mut fixture = FanoutFixture::new(&svc, "scores", 25).unwrap();
        for _ in 0..3 {
            fixture.write_once(&svc).unwrap();
            svc.realtime().tick();
            assert_eq!(fixture.poll_all(), 25, "all listeners notified");
        }
        // Realtime stats counted the deliveries: 25 listeners × 3 writes.
        assert_eq!(svc.realtime().stats().notifications, 75);
    }

    #[test]
    fn scaled_run_sheds_slow_consumers_and_converges() {
        let cfg = FanoutConfig {
            listeners: 64,
            slow: 3,
            ..FanoutConfig::new(0xFA9)
        };
        let report = run_fanout(&cfg);
        assert!(report.notifications > 0);
        assert!(
            report.overload_resets >= cfg.slow as u64,
            "each stalled consumer must be shed voluntarily (got {})",
            report.overload_resets
        );
        assert!(report.slow_recovered, "shed listeners must catch back up");
        assert!(report.all_converged, "every listener converges at the end");
        let oracle = report.oracle.as_ref().unwrap();
        assert!(
            oracle.passed(),
            "oracle violations under overload:\n{}",
            oracle.report
        );
    }

    #[test]
    fn scaled_run_is_deterministic_per_seed() {
        let run = |seed| {
            let cfg = FanoutConfig {
                listeners: 32,
                cycles: 30,
                slow: 2,
                oracle: false,
                ..FanoutConfig::new(seed)
            };
            let r = run_fanout(&cfg);
            (r.notifications, r.overload_resets, r.coalesced)
        };
        assert_eq!(run(42), run(42));
    }
}
