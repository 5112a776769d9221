//! The tenant-fleet chaos workload: Fig 11's isolation promise at fleet
//! scale.
//!
//! Provisions hundreds of databases on one region, keeps a quiet
//! conforming majority humming, and unleashes a handful of adversaries —
//! a hotspot-key hammer, an unbounded-fanout batch scanner, a free-tier
//! tenant riding its daily quota edge, and a tenant whose offered load
//! ramps far faster than the 500/50/5 rule allows — all through the tenant
//! control plane (`server::tenants`) and the fair-share Backend. A
//! [`HistoryRecorder`] is attached to every layer so the consistency
//! oracle can audit the run, seeded chaos (cache outages, fsync failures,
//! TrueTime spikes) and a crash–recover cycle run mid-flight, and
//! offline-capable clients exercise throttle `retry_after` hints end to
//! end.
//!
//! The paper's §IV-C property under test: "a tenant's traffic cannot
//! affect the latency of other tenants." The adversaries' own latency and
//! admission rate are allowed to collapse; the conforming majority's p99
//! must stay within a fixed band of a quiet-fleet baseline run.

use client::{ClientOptions, FirestoreClient};
use firestore_core::database::doc;
use firestore_core::{Caller, FirestoreDatabase, Query, RequestClass, Value, Write};
use realtime::{Connection, ListenEvent, ListenSnapshot, QueryId};
use server::{FirestoreService, ServiceOptions, TenantLimits};
use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
use simkit::history::HistoryRecorder;
use simkit::stats::Histogram;
use simkit::{Duration, SimClock, SimDisk, SimRng, Timestamp};
use std::collections::HashMap;
use std::sync::Arc;

use crate::driver::LoadDriver;

/// Database id of the hotspot-key hammer adversary.
pub const HAMMER_DB: &str = "abuser-hammer";
/// Database id of the unbounded-fanout batch-scan adversary.
pub const SCAN_DB: &str = "abuser-scan";
/// Database id of the free-tier quota-edge adversary.
pub const FREE_DB: &str = "abuser-free";
/// Database id of the 500/50/5-violating ramp adversary.
pub const RAMP_DB: &str = "abuser-ramp";

/// Whether a database id belongs to one of the fleet's adversaries.
pub fn is_adversary(database: &str) -> bool {
    database.starts_with("abuser-")
}

/// Security rules for databases that host client traffic: the clients in
/// this workload authenticate as plain users, so their flushes are subject
/// to rules evaluation.
const OPEN_RULES: &str = r#"
service cloud.firestore {
  match /databases/{db}/documents {
    match /{document=**} { allow read, write; }
  }
}
"#;

/// Fleet shape and schedule.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Quiet conforming databases (the bystander majority).
    pub quiet_databases: usize,
    /// Tracked conforming databases: real engine ops, listeners, and an
    /// offline-capable client, all feeding the consistency oracle.
    pub tracked: usize,
    /// Include the four adversaries. Disabled for the quiet-fleet baseline.
    pub adversaries: bool,
    /// Run length.
    pub duration: Duration,
    /// Leading time excluded from latency measurement.
    pub warmup: Duration,
    /// Backend scheduler quantum.
    pub quantum: Duration,
    /// Workload seed: the whole run replays identically per seed.
    pub seed: u64,
    /// Offered QPS per quiet database.
    pub quiet_qps: f64,
    /// Offered QPS per tracked database.
    pub tracked_qps: f64,
    /// The hammer's offered QPS against one hot document.
    pub hammer_qps: f64,
    /// The batch scanner's offered QPS.
    pub scan_qps: f64,
    /// CPU cost of one unbounded-fanout scan.
    pub scan_cpu: Duration,
    /// The ramp adversary's peak offered QPS (reached linearly by the end
    /// of the run — wildly violating the +50%-per-5-minutes rule).
    pub ramp_peak_qps: f64,
    /// The free-tier adversary's offered QPS (all writes, against an
    /// almost-exhausted daily quota).
    pub free_qps: f64,
    /// Probabilistic fault injection on Spanner and the Real-time Cache.
    pub chaos: bool,
    /// Crash–recover cycles performed mid-run.
    pub max_crashes: usize,
    /// Fixed Backend pool size (auto-scaling is off: the isolation
    /// property must hold at constant capacity, as in Fig 11).
    pub backend_tasks: usize,
    /// Backlog watermark beyond which the control plane sheds.
    pub shed_watermark: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            quiet_databases: 500,
            tracked: 3,
            adversaries: true,
            duration: Duration::from_secs(30),
            warmup: Duration::from_secs(8),
            quantum: Duration::from_micros(500),
            seed: 0xF1EE7,
            quiet_qps: 0.3,
            tracked_qps: 2.0,
            hammer_qps: 1200.0,
            scan_qps: 100.0,
            scan_cpu: Duration::from_millis(30),
            ramp_peak_qps: 1200.0,
            free_qps: 40.0,
            chaos: true,
            max_crashes: 1,
            backend_tasks: 2,
            shed_watermark: 192,
        }
    }
}

/// The assembled region hosting the fleet, with the oracle's recorder
/// attached to every layer.
pub struct FleetWorld {
    /// The multi-tenant service.
    pub svc: FirestoreService,
    /// The history recorder the consistency oracle replays.
    pub recorder: Arc<HistoryRecorder>,
    quiet_names: Vec<String>,
    tracked_names: Vec<String>,
}

impl FleetWorld {
    /// Bring up the region and provision the whole fleet: quiet majority,
    /// tracked tenants, and (per config) the adversaries — the free-tier
    /// one registered with `free_tier` limits and a billing meter already
    /// sitting a few writes short of its daily quota.
    pub fn build(cfg: &FleetConfig) -> FleetWorld {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let svc = FirestoreService::new(
            clock,
            ServiceOptions {
                backend_tasks: cfg.backend_tasks,
                autoscaling: false,
                shed_watermark: cfg.shed_watermark,
                gc_interval: Duration::from_secs(10),
                ..ServiceOptions::default()
            },
        );
        svc.spanner().attach_durability(SimDisk::new());
        let recorder = HistoryRecorder::new();
        svc.spanner().set_history(Some(recorder.clone()));
        svc.realtime().set_history(Some(recorder.clone()));

        let quiet_names: Vec<String> = (0..cfg.quiet_databases)
            .map(|i| format!("quiet-{i}"))
            .collect();
        for name in &quiet_names {
            svc.create_database(name);
        }
        let tracked_names: Vec<String> =
            (0..cfg.tracked).map(|i| format!("tracked-{i}")).collect();
        for name in &tracked_names {
            let db = svc.create_database(name);
            db.set_rules(OPEN_RULES).expect("open rules parse");
        }
        if cfg.adversaries {
            for name in [HAMMER_DB, SCAN_DB, FREE_DB, RAMP_DB] {
                let db = svc.create_database(name);
                db.set_rules(OPEN_RULES).expect("open rules parse");
            }
            svc.tenants.set_limits(
                FREE_DB,
                TenantLimits {
                    free_tier: true,
                    ..TenantLimits::default()
                },
            );
            // Park the free-tier tenant a few writes short of its daily
            // quota: it exhausts within the first second of the run.
            let quota = svc.billing.quota();
            svc.billing
                .record_writes(FREE_DB, quota.writes_per_day.saturating_sub(30));
        }
        FleetWorld {
            svc,
            recorder,
            quiet_names,
            tracked_names,
        }
    }
}

/// What one fleet run produced.
pub struct FleetReport {
    /// Latency of conforming tenants' admitted work (post-warmup, ms).
    pub conforming_latency: Histogram,
    /// Latency of the adversaries' admitted work (post-warmup, ms).
    pub adversary_latency: Histogram,
    /// Operations offered across the fleet.
    pub operations: u64,
    /// Offers the control plane admitted.
    pub admitted: u64,
    /// Offers the control plane refused.
    pub rejected: u64,
    /// Refused offers belonging to conforming (non-adversary) tenants —
    /// the isolation property wants this at zero.
    pub rejected_conforming: u64,
    /// Throttle-ledger tallies by reason label at end of run.
    pub throttle_counts: HashMap<&'static str, u64>,
    /// Real engine executions woven into the synthetic load.
    pub real_ops: u64,
    /// Crash–recover cycles performed.
    pub crashes: usize,
    /// Writes enqueued on the tracked tenant's offline-capable client.
    pub tracked_client_writes: u64,
    /// Writes enqueued on the hammer adversary's client (the ones that
    /// must retry through `retry_after` throttles to eventual success).
    pub hammer_client_writes: u64,
    /// Client writes still unflushed after the quiesce phase (must be 0).
    pub pending_after_quiesce: usize,
    /// Registered listener queries by raw query id, for the checker.
    pub queries: HashMap<u64, Query>,
    /// Quiesced end-of-run timestamp for the oracle's convergence check.
    pub final_ts: Timestamp,
}

/// Which stream an arrival belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Who {
    Quiet,
    Tracked,
    Hammer,
    Scan,
    Free,
    Ramp,
}

struct TrackedListener {
    index: usize,
    conn: Connection,
    qid: QueryId,
    query: Query,
    reset: bool,
}

impl TrackedListener {
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

fn chaos_injector(clock: &SimClock, seed: u64) -> Arc<FaultInjector> {
    let plan = FaultPlan::new(seed)
        .rule(FaultRule::probabilistic(FaultKind::CacheUnavailable, 0.02))
        .rule(FaultRule::probabilistic(FaultKind::LockTimeout, 0.01))
        .rule(FaultRule::probabilistic(FaultKind::FsyncFail, 0.01))
        .rule(FaultRule::probabilistic(FaultKind::TtUncertaintySpike, 0.02))
        .with_tt_spike(Duration::from_millis(10));
    FaultInjector::new(clock.clone(), plan)
}

/// Crash Spanner and bring the whole region back: redo-log recovery, a
/// Real-time Cache restart re-querying every registered listener from a
/// fresh snapshot, and listener re-registration where the cache signalled
/// a reset.
fn crash_recover(
    world: &FleetWorld,
    tracked_dbs: &[FirestoreDatabase],
    listeners: &mut [TrackedListener],
    queries: &mut HashMap<u64, Query>,
) {
    world.svc.spanner().crash();
    let _report = world.svc.spanner().recover();
    let ts = tracked_dbs[0].strong_read_ts();
    // Tracked db i listens on collection `u{i}`; dispatch each requery to
    // the owning database.
    let colls: Vec<_> = (0..tracked_dbs.len())
        .map(|i| Query::parse(&format!("/u{i}")).unwrap().collection)
        .collect();
    world.svc.realtime().restart(
        |q| {
            let db = colls
                .iter()
                .position(|c| *c == q.collection)
                .map(|i| &tracked_dbs[i])
                .unwrap_or(&tracked_dbs[0]);
            ListenSnapshot::read_at(db, q.clone(), &Caller::Service, ts)
                .map(ListenSnapshot::into_documents)
        },
        ts,
    );
    for l in listeners.iter_mut() {
        l.drain();
        if l.reset {
            reregister(world, l, queries);
        }
    }
}

/// Re-open a reset listener through the service path (gated, billed, and
/// counted against the tenant's listener cap).
fn reregister(world: &FleetWorld, l: &mut TrackedListener, queries: &mut HashMap<u64, Query>) {
    let name = format!("tracked-{}", l.index);
    if let Ok(qid) = world
        .svc
        .listen(&name, &l.conn, l.query.clone(), &Caller::Service)
    {
        l.qid = qid;
        l.reset = false;
        queries.insert(qid.0, l.query.clone());
        l.drain();
    }
}

/// Run the fleet workload. Deterministic per seed: two runs with the same
/// `FleetConfig` produce identical reports.
pub fn run_fleet(world: &FleetWorld, cfg: &FleetConfig) -> FleetReport {
    let svc = &world.svc;
    let mut rng = SimRng::new(cfg.seed);

    let tracked_dbs: Vec<FirestoreDatabase> = world
        .tracked_names
        .iter()
        .map(|n| svc.database(n).expect("tracked db"))
        .collect();

    // Seed each tracked database with a handful of documents in its own
    // collection (`/u{i}`), so queries and listeners have data to watch.
    let mut counter = 0i64;
    for (i, db) in tracked_dbs.iter().enumerate() {
        for k in 0..6 {
            counter += 1;
            db.commit_writes(
                vec![Write::set(
                    doc(&format!("/u{i}/k{k}")),
                    [("v", Value::Int(counter)), ("grp", Value::Int(k % 3))],
                )],
                &Caller::Service,
            )
            .expect("seed tracked data");
        }
    }

    // One listener per tracked database, registered through the service.
    let mut queries: HashMap<u64, Query> = HashMap::new();
    let mut listeners: Vec<TrackedListener> = Vec::new();
    for (i, name) in world.tracked_names.iter().enumerate() {
        let conn = svc.connect();
        let query = Query::parse(&format!("/u{i}")).unwrap();
        let qid = svc
            .listen(name, &conn, query.clone(), &Caller::Service)
            .expect("tracked listener registers");
        queries.insert(qid.0, query.clone());
        let mut l = TrackedListener {
            index: i,
            conn,
            qid,
            query,
            reset: false,
        };
        l.drain();
        listeners.push(l);
    }

    // Offline-capable clients: one on a conforming tracked tenant, one on
    // the hammer adversary (its flushes must ride `retry_after` hints
    // through throttles to eventual, exactly-once success).
    let tracked_client = FirestoreClient::connect(
        tracked_dbs[0].clone(),
        svc.realtime().clone(),
        ClientOptions::default(),
    );
    let hammer_client = if cfg.adversaries {
        Some(FirestoreClient::connect(
            svc.database(HAMMER_DB).expect("hammer db"),
            svc.realtime().clone(),
            ClientOptions::default(),
        ))
    } else {
        None
    };

    // Chaos starts only once the fleet is seeded and listening; the run
    // itself (not the setup) is what gets the faults.
    if cfg.chaos {
        let injector = chaos_injector(svc.clock(), cfg.seed ^ 0xF1EE);
        svc.spanner().set_fault_injector(Some(injector.clone()));
        svc.realtime().set_fault_injector(Some(injector));
    }

    let mut report = FleetReport {
        conforming_latency: Histogram::log_millis(),
        adversary_latency: Histogram::log_millis(),
        operations: 0,
        admitted: 0,
        rejected: 0,
        rejected_conforming: 0,
        throttle_counts: HashMap::new(),
        real_ops: 0,
        crashes: 0,
        tracked_client_writes: 0,
        hammer_client_writes: 0,
        pending_after_quiesce: 0,
        queries: HashMap::new(),
        final_ts: Timestamp::ZERO,
    };

    let mut driver = LoadDriver::new(svc);
    let start = svc.clock().now();
    let end = start + cfg.duration;
    let measure_from = start + cfg.warmup;
    let block = Duration::from_secs(1);
    let total_blocks = (cfg.duration.as_secs_f64()).ceil() as usize;
    let crash_block = total_blocks / 2;
    let mut block_start = start;
    let mut block_index = 0usize;
    let mut tracked_arrivals = 0u64;
    let latency_model = svc.latency_model();

    while block_start < end {
        let block_end = (block_start + block).min(end);
        let block_secs = (block_end - block_start).as_secs_f64();
        let elapsed_frac =
            (block_start - start).as_secs_f64() / cfg.duration.as_secs_f64().max(1e-9);

        // Poisson arrival streams for this block. Quiet and tracked
        // tenants are drawn as aggregates (identical statistics, far fewer
        // RNG streams); the owning database is picked per arrival.
        let mut arrivals: Vec<(Timestamp, Who)> = Vec::new();
        let stream = |rate: f64, who: Who, arrivals: &mut Vec<(Timestamp, Who)>,
                          rng: &mut SimRng| {
            if rate <= 0.0 {
                return;
            }
            let mut t = 0.0f64;
            loop {
                t += rng.exponential(1.0 / rate);
                if t >= block_secs {
                    break;
                }
                arrivals.push((block_start + Duration::from_millis_f64(t * 1000.0), who));
            }
        };
        stream(
            cfg.quiet_qps * cfg.quiet_databases as f64,
            Who::Quiet,
            &mut arrivals,
            &mut rng,
        );
        stream(
            cfg.tracked_qps * cfg.tracked as f64,
            Who::Tracked,
            &mut arrivals,
            &mut rng,
        );
        if cfg.adversaries {
            stream(cfg.hammer_qps, Who::Hammer, &mut arrivals, &mut rng);
            stream(cfg.scan_qps, Who::Scan, &mut arrivals, &mut rng);
            stream(cfg.free_qps, Who::Free, &mut arrivals, &mut rng);
            stream(
                cfg.ramp_peak_qps * elapsed_frac,
                Who::Ramp,
                &mut arrivals,
                &mut rng,
            );
        }
        arrivals.sort_unstable_by_key(|(at, _)| *at);

        let mut cursor = block_start;
        for (at, who) in arrivals {
            if at > cursor {
                driver.advance(cursor, at, cfg.quantum);
                cursor = at;
            }
            report.operations += 1;
            // A slice of tracked traffic executes for real against the
            // engine — through the gated service entry points — keeping
            // the dataset live and the oracle's history rich.
            if who == Who::Tracked {
                tracked_arrivals += 1;
                if tracked_arrivals.is_multiple_of(4) {
                    let i = rng.gen_range(cfg.tracked as u64) as usize;
                    let served = run_real_op(
                        world,
                        &tracked_dbs,
                        i,
                        &mut counter,
                        &mut listeners,
                        &mut queries,
                        &mut report,
                        &mut rng,
                    );
                    if let Some((is_read, cpu, storage)) = served {
                        report.admitted += 1;
                        report.real_ops += 1;
                        driver.submit(&world.tracked_names[i], is_read, cpu, storage, at);
                    }
                    continue;
                }
            }
            let (name, class, is_read, cpu, storage): (&str, _, _, _, _) = match who {
                Who::Quiet | Who::Tracked => {
                    let name = if who == Who::Quiet {
                        let i = rng.gen_range(cfg.quiet_databases as u64) as usize;
                        world.quiet_names[i].as_str()
                    } else {
                        let i = rng.gen_range(cfg.tracked as u64) as usize;
                        world.tracked_names[i].as_str()
                    };
                    let is_read = rng.gen_bool(0.8);
                    let (cpu, storage) = if is_read {
                        (
                            Duration::from_micros(80).mul_f64(rng.lognormal(0.0, 0.15)),
                            latency_model.spanner_read(1, &mut rng),
                        )
                    } else {
                        (
                            Duration::from_micros(130).mul_f64(rng.lognormal(0.0, 0.15)),
                            latency_model.spanner_commit(1, 900, &mut rng),
                        )
                    };
                    (name, RequestClass::Interactive, is_read, cpu, storage)
                }
                Who::Hammer => (
                    HAMMER_DB,
                    RequestClass::Interactive,
                    false,
                    Duration::from_micros(150).mul_f64(rng.lognormal(0.0, 0.1)),
                    latency_model.spanner_commit(1, 200, &mut rng),
                ),
                Who::Scan => (
                    SCAN_DB,
                    RequestClass::Batch,
                    true,
                    cfg.scan_cpu.mul_f64(rng.lognormal(0.0, 0.3)),
                    latency_model.spanner_read(500, &mut rng),
                ),
                Who::Free => (
                    FREE_DB,
                    RequestClass::Interactive,
                    false,
                    Duration::from_micros(120).mul_f64(rng.lognormal(0.0, 0.1)),
                    latency_model.spanner_commit(1, 400, &mut rng),
                ),
                Who::Ramp => (
                    RAMP_DB,
                    RequestClass::Interactive,
                    rng.gen_bool(0.5),
                    Duration::from_micros(110).mul_f64(rng.lognormal(0.0, 0.15)),
                    latency_model.spanner_read(1, &mut rng),
                ),
            };
            match driver.try_submit(name, class, is_read, cpu, storage, at) {
                Ok(()) => {
                    report.admitted += 1;
                    // The free-tier tenant's admitted writes burn quota;
                    // that is what pushes it over the edge.
                    if who == Who::Free {
                        svc.billing.record_writes(FREE_DB, 1);
                    }
                }
                Err(_) => {
                    report.rejected += 1;
                    if !is_adversary(name) {
                        report.rejected_conforming += 1;
                    }
                }
            }
        }
        driver.advance(cursor, block_end, cfg.quantum);

        // Per-block housekeeping: a couple of client writes on the tracked
        // tenant, one crash cycle mid-run, service maintenance, listener
        // pumping, and latency harvest.
        counter += 1;
        let path = format!("/u0/c{}", counter % 4);
        if tracked_client
            .set(&path, [("v", Value::Int(counter)), ("grp", Value::Int(0))])
            .is_ok()
        {
            report.tracked_client_writes += 1;
        } else {
            report.tracked_client_writes += 1; // enqueued even when flush stalls
        }
        if let Some(hc) = &hammer_client {
            // In the thick of the abuse, enqueue writes on the hammer's
            // own client: flushes hit ResourceExhausted throttles and must
            // back off by the server's `retry_after` hint.
            if block_index == total_blocks.saturating_sub(2) {
                for j in 0..3 {
                    counter += 1;
                    let _ = hc.set(&format!("/hot/doc{j}"), [("v", Value::Int(counter))]);
                    report.hammer_client_writes += 1;
                }
            }
        }
        if block_index == crash_block && report.crashes < cfg.max_crashes {
            report.crashes += 1;
            crash_recover(world, &tracked_dbs, &mut listeners, &mut queries);
        }
        svc.tick();
        for l in listeners.iter_mut() {
            l.drain();
            if l.reset {
                reregister(world, l, &mut queries);
            }
        }
        for (db, _is_read, submitted, latency) in driver.outcomes.drain(..) {
            if submitted >= measure_from {
                if is_adversary(&db) {
                    report.adversary_latency.record_duration(latency);
                } else {
                    report.conforming_latency.record_duration(latency);
                }
            }
        }
        block_start = block_end;
        block_index += 1;
    }

    // Quiesce: stop the chaos, drain the Backend, and flush every client
    // dry — the hammer client's stalled writes retry to success here as
    // the overload clears.
    svc.spanner().set_fault_injector(None);
    svc.realtime().set_fault_injector(None);
    for _ in 0..64 {
        let now = svc.clock().now();
        driver.advance(now, now + Duration::from_secs(1), cfg.quantum);
        svc.tick();
        let _ = tracked_client.sync();
        if let Some(hc) = &hammer_client {
            let _ = hc.sync();
        }
        for l in listeners.iter_mut() {
            l.drain();
            if l.reset {
                reregister(world, l, &mut queries);
            }
        }
        let pending = tracked_client.pending_writes()
            + hammer_client.as_ref().map_or(0, |c| c.pending_writes());
        if pending == 0 && driver.inflight() == 0 && svc.backend.lock().backlog() == 0 {
            break;
        }
    }
    driver.outcomes.clear();
    for l in listeners.iter_mut() {
        l.drain();
    }
    report.pending_after_quiesce = tracked_client.pending_writes()
        + hammer_client.as_ref().map_or(0, |c| c.pending_writes());
    report.final_ts = tracked_dbs[0].strong_read_ts();
    report.queries = queries;
    report.throttle_counts = svc.tenants.throttle_counts();
    report
}

/// One real engine operation on tracked database `i`, through the metered
/// service entry points. Returns the served cost so the caller can feed an
/// equivalent job to the Backend scheduler, or `None` when the op failed
/// (chaos) or triggered crash recovery.
#[allow(clippy::too_many_arguments)]
fn run_real_op(
    world: &FleetWorld,
    tracked_dbs: &[FirestoreDatabase],
    i: usize,
    counter: &mut i64,
    listeners: &mut [TrackedListener],
    queries: &mut HashMap<u64, Query>,
    report: &mut FleetReport,
    rng: &mut SimRng,
) -> Option<(bool, Duration, Duration)> {
    let svc = &world.svc;
    let name = &world.tracked_names[i];
    let outcome = match rng.gen_range(3) {
        0 => {
            *counter += 1;
            let k = rng.gen_range(6);
            svc.commit(
                name,
                vec![Write::set(
                    doc(&format!("/u{i}/k{k}")),
                    [
                        ("v", Value::Int(*counter)),
                        ("grp", Value::Int(*counter % 3)),
                    ],
                )],
                &Caller::Service,
                rng,
            )
            .map(|(_, served)| (false, served))
        }
        1 => {
            let k = rng.gen_range(6);
            svc.get_document(name, &doc(&format!("/u{i}/k{k}")), &Caller::Service, rng)
                .map(|(_, served)| (true, served))
        }
        _ => svc
            .run_query(
                name,
                &Query::parse(&format!("/u{i}")).unwrap(),
                &Caller::Service,
                rng,
            )
            .map(|(_, served)| (true, served)),
    };
    match outcome {
        Ok((is_read, served)) => Some((is_read, served.cpu_cost, served.storage_latency)),
        Err(_) if svc.spanner().crashed() => {
            report.crashes += 1;
            crash_recover(world, tracked_dbs, listeners, queries);
            None
        }
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(adversaries: bool) -> FleetConfig {
        FleetConfig {
            quiet_databases: 25,
            tracked: 2,
            adversaries,
            duration: Duration::from_secs(6),
            warmup: Duration::from_secs(2),
            seed: 0xABCD,
            hammer_qps: 400.0,
            scan_qps: 40.0,
            ramp_peak_qps: 400.0,
            free_qps: 20.0,
            backend_tasks: 1,
            shed_watermark: 64,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_run_is_deterministic_per_seed() {
        let run = || {
            let cfg = small_config(true);
            let world = FleetWorld::build(&cfg);
            let report = run_fleet(&world, &cfg);
            (
                report.operations,
                report.admitted,
                report.rejected,
                report.real_ops,
                world.recorder.len(),
            )
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.0 > 0 && a.1 > 0);
    }

    #[test]
    fn adversaries_draw_throttles_but_conforming_tenants_do_not() {
        let cfg = small_config(true);
        let world = FleetWorld::build(&cfg);
        let report = run_fleet(&world, &cfg);
        assert!(report.rejected > 0, "adversaries should be throttled");
        assert_eq!(
            report.rejected_conforming, 0,
            "no conforming offer may be refused"
        );
        // The free-tier quota edge must trip.
        assert!(
            report.throttle_counts.get("quota_exhausted").copied() > Some(0),
            "free-tier quota throttles expected: {:?}",
            report.throttle_counts
        );
        assert_eq!(report.pending_after_quiesce, 0);
    }

    #[test]
    fn quiet_baseline_run_admits_everything() {
        let cfg = small_config(false);
        let world = FleetWorld::build(&cfg);
        let report = run_fleet(&world, &cfg);
        assert_eq!(report.rejected, 0);
        assert!(report.conforming_latency.total() > 0);
        assert_eq!(report.adversary_latency.total(), 0);
    }
}
