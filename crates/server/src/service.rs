//! The assembled multi-tenant service.
//!
//! One [`FirestoreService`] models one region: a shared Spanner database,
//! a shared Real-time Cache, shared Frontend/Backend pools with
//! auto-scaling, an admission controller, a billing meter, and any number
//! of customer databases multiplexed on top (paper Fig 4). Request entry
//! points meter billing and report the modeled CPU cost and latency of
//! each operation so experiment harnesses can feed the fair-share
//! scheduler and latency distributions.

use crate::admission::AdmissionController;
use crate::autoscale::AutoScaler;
use crate::billing::BillingMeter;
use crate::conformance::TrafficConformance;
use crate::fairshare::{CpuScheduler, SchedulingMode};
use crate::router::{RegionId, Router};
use crate::tenants::{DbGate, ShedPolicy, TenantControl};
use firestore_core::database::DatabaseOptions;
use firestore_core::{
    Caller, Consistency, Document, DocumentName, FirestoreDatabase, FirestoreError,
    FirestoreResult, Query, RequestClass, Write, WriteResult,
};
use parking_lot::{Mutex, RwLock};
use realtime::{Connection, ListenSnapshot, QueryId, RealtimeCache, RealtimeOptions};
use simkit::latency::{CpuCostModel, Deployment, LatencyModel};
use simkit::{
    AttrValue, CounterHandle, Duration, Obs, PhaseBreakdown, PhaseHistograms, SimClock, SimRng,
    SpanGuard, Timestamp,
};
use spanner::SpannerDatabase;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServiceOptions {
    /// Region name (e.g. `nam5`).
    pub region: String,
    /// Replica placement (drives commit latency, §IV-D2).
    pub deployment: Deployment,
    /// Initial Backend pool size (CPU cores).
    pub backend_tasks: usize,
    /// Initial Frontend pool size.
    pub frontend_tasks: usize,
    /// Backend scheduling discipline (the Fig 11 switch).
    pub scheduling: SchedulingMode,
    /// Whether pools auto-scale (disabled for the fixed-capacity isolation
    /// experiment).
    pub autoscaling: bool,
    /// Real-time cache task pairs.
    pub realtime_tasks: usize,
    /// Seed for the observability trace id (spans and metrics are
    /// deterministic given this seed and the workload).
    pub obs_seed: u64,
    /// Backend backlog beyond which the control plane sheds load
    /// (non-conforming tenants first, then batch traffic).
    pub shed_watermark: usize,
    /// How long `WriteLedger` dedup rows are retained before the periodic
    /// GC collects them. Must cover the client retry-budget horizon.
    pub ledger_retention: Duration,
    /// How often [`FirestoreService::tick`] runs the write-ledger GC.
    pub gc_interval: Duration,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            region: "nam5".to_string(),
            deployment: Deployment::MultiRegional,
            backend_tasks: 8,
            frontend_tasks: 4,
            scheduling: SchedulingMode::FairShare,
            autoscaling: true,
            realtime_tasks: 4,
            obs_seed: 0xB5,
            shed_watermark: 1024,
            ledger_retention: Duration::from_secs(600),
            gc_interval: Duration::from_secs(60),
        }
    }
}

/// The cost and latency breakdown of one served request, for experiment
/// harnesses.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServedRequest {
    /// Backend CPU consumed (what the fair-share scheduler arbitrates).
    pub cpu_cost: Duration,
    /// Modeled storage/replication latency (excluding CPU queueing).
    pub storage_latency: Duration,
    /// Per-phase latency breakdown (queue is filled in by the scheduler-
    /// aware harness; lock/commit-wait are measured simulated-clock time).
    pub breakdown: PhaseBreakdown,
    /// Executor work counters, for queries (EXPLAIN ANALYZE surface).
    pub query_stats: Option<firestore_core::QueryStats>,
}

/// One region of the multi-tenant Firestore service.
pub struct FirestoreService {
    clock: SimClock,
    spanner: SpannerDatabase,
    rtc: RealtimeCache,
    databases: RwLock<HashMap<String, Hosted>>,
    /// Billing meter shared by all hosted databases.
    pub billing: Arc<BillingMeter>,
    /// Backend admission control.
    pub admission: Arc<AdmissionController>,
    /// Conforming-traffic tracking.
    pub conformance: Arc<TrafficConformance>,
    /// The tenant control plane: registry, lifecycle, throttles, sheds.
    pub tenants: Arc<TenantControl>,
    /// Global routing table (§IV-A): database → hosting region.
    pub router: Router,
    /// The Backend CPU pool.
    pub backend: Arc<Mutex<CpuScheduler>>,
    backend_scaler: Mutex<AutoScaler>,
    /// Last write-ledger GC run.
    last_gc: Mutex<Timestamp>,
    frontend_tasks: AtomicUsize,
    frontend_scaler: Mutex<AutoScaler>,
    latency: LatencyModel,
    cost: CpuCostModel,
    options: ServiceOptions,
    obs: Obs,
}

impl FirestoreService {
    /// Bring up a region.
    pub fn new(clock: SimClock, options: ServiceOptions) -> FirestoreService {
        let spanner = SpannerDatabase::new(clock.clone());
        let rtc = RealtimeCache::new(
            spanner.truetime().clone(),
            RealtimeOptions {
                tasks: options.realtime_tasks,
                ..RealtimeOptions::default()
            },
        );
        let latency = match options.deployment {
            Deployment::Regional => LatencyModel::regional(),
            Deployment::MultiRegional => LatencyModel::multi_regional(),
        };
        // One observability handle for the whole region: spans from the
        // service, planner, Spanner, and Real-time Cache share one trace.
        let obs = Obs::new(clock.clone(), options.obs_seed);
        spanner.set_obs(Some(obs.clone()));
        rtc.set_obs(Some(obs.clone()));
        let billing = Arc::new(BillingMeter::default());
        let admission = Arc::new(AdmissionController::new(1000, 100_000));
        let conformance = Arc::new(TrafficConformance::default());
        let backend = Arc::new(Mutex::new(CpuScheduler::new(
            options.backend_tasks,
            options.scheduling,
        )));
        let tenants = Arc::new(TenantControl::new(
            clock.clone(),
            conformance.clone(),
            billing.clone(),
            backend.clone(),
            admission.clone(),
            obs.clone(),
            ShedPolicy {
                backlog_watermark: options.shed_watermark,
                ..ShedPolicy::default()
            },
        ));
        FirestoreService {
            clock,
            spanner,
            rtc,
            databases: RwLock::new(HashMap::new()),
            billing,
            admission,
            conformance,
            tenants,
            router: Router::new(),
            backend,
            backend_scaler: Mutex::new(AutoScaler::new(options.backend_tasks.max(1), 4096)),
            last_gc: Mutex::new(Timestamp::ZERO),
            frontend_tasks: AtomicUsize::new(options.frontend_tasks),
            frontend_scaler: Mutex::new(AutoScaler::new(options.frontend_tasks.max(1), 4096)),
            latency,
            cost: CpuCostModel::default(),
            options,
            obs,
        }
    }

    /// The region's observability handle (tracer + metrics registry).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The shared Spanner database.
    pub fn spanner(&self) -> &SpannerDatabase {
        &self.spanner
    }

    /// The shared Real-time Cache.
    pub fn realtime(&self) -> &RealtimeCache {
        &self.rtc
    }

    /// The latency model of this region's deployment.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// The CPU cost model.
    pub fn cost_model(&self) -> &CpuCostModel {
        &self.cost
    }

    /// Current Frontend pool size.
    pub fn frontend_tasks(&self) -> usize {
        self.frontend_tasks.load(Ordering::Relaxed)
    }

    /// Provision a database on the shared infrastructure ("initialize a
    /// Firestore database", §I — this is all a customer does).
    pub fn create_database(&self, id: &str) -> FirestoreDatabase {
        let db = FirestoreDatabase::create(
            self.spanner.clone(),
            DatabaseOptions {
                database_id: id.to_string(),
                ..DatabaseOptions::default()
            },
        );
        db.set_observer(self.rtc.observer_for(db.directory()));
        // Provision the tenant in the control plane and install its gate:
        // from here on every entry point — including client-SDK flushes
        // that reach the engine directly — consults tenant policy first.
        self.tenants.register(id);
        db.set_gate(Some(Arc::new(DbGate::new(id, self.tenants.clone()))));
        let hosted = Hosted {
            db: db.clone(),
            meters: Arc::new(DbMeters::new(&self.obs, id)),
        };
        self.databases.write().insert(id.to_string(), hosted);
        // Placement is chosen at creation time and immutable (§IV-A).
        let _ = self.router.register(id, RegionId(self.options.region.clone()));
        db
    }

    /// Look up a hosted database.
    pub fn database(&self, id: &str) -> Option<FirestoreDatabase> {
        self.databases.read().get(id).map(|h| h.db.clone())
    }

    /// Number of hosted databases.
    pub fn database_count(&self) -> usize {
        self.databases.read().len()
    }

    /// Tag an entry point's span with the database and look it up. A
    /// hosted database's id is shared into the span without copying.
    fn enter(&self, span: &SpanGuard<'_>, database: &str) -> FirestoreResult<Hosted> {
        let hosted = self.databases.read().get(database).cloned();
        span.attr(
            "db",
            match &hosted {
                Some(h) => AttrValue::Shared(h.meters.id.clone()),
                None => AttrValue::shared(database),
            },
        );
        hosted.ok_or_else(|| FirestoreError::NotFound(format!("database {database}")))
    }

    /// Admit one request for `database` or fail with a retriable
    /// `Unavailable`; the returned guard releases the slot when dropped, so
    /// every exit path of an entry point gives the slot back. The
    /// per-database limit is bounded by the tenant's fair share of the
    /// global in-flight budget, so one tenant cannot monopolize the slots.
    fn admit<'a>(&'a self, database: &'a str, meters: &DbMeters) -> FirestoreResult<AdmitGuard<'a>> {
        let cap = self.tenants.fair_slot_cap();
        match self.admission.try_admit_bounded(database, cap) {
            Ok(()) => {
                meters.admitted.incr(1);
                Ok(AdmitGuard {
                    admission: &self.admission,
                    database,
                })
            }
            Err(e) => {
                meters.rejected.incr(1);
                Err(e.into())
            }
        }
    }

    /// Install (or replace) a database's security rules. The ruleset is
    /// parsed and compiled to its first-match decision tree here, at
    /// deploy time, so no per-request work depends on rules complexity.
    pub fn set_rules(&self, database: &str, source: &str) -> FirestoreResult<()> {
        let span = self.obs.tracer.span("service.set_rules");
        let hosted = self.enter(&span, database);
        span.attr("bytes", source.len());
        hosted?.db.set_rules(source)
    }

    // --- metered request entry points -------------------------------------

    /// Serve a single-document read.
    pub fn get_document(
        &self,
        database: &str,
        name: &DocumentName,
        caller: &Caller,
        rng: &mut SimRng,
    ) -> FirestoreResult<(Option<Document>, ServedRequest)> {
        let span = self.obs.tracer.span("service.get_document");
        let Hosted { db, meters } = self.enter(&span, database)?;
        let _slot = self.admit(database, &meters)?;
        let doc = db.get_document(name, Consistency::Strong, caller)?;
        self.billing.record_reads(database, 1);
        let bytes = doc.as_ref().map(|d| d.approx_size()).unwrap_or(0);
        let cpu_cost = self.cost.query_cost(1, 1, bytes);
        let storage_latency = self.latency.spanner_read(1, rng) + self.latency.hop(rng);
        let breakdown = PhaseBreakdown {
            execute: cpu_cost + storage_latency,
            ..PhaseBreakdown::default()
        };
        breakdown.record_to(&meters.get);
        let served = ServedRequest {
            cpu_cost,
            storage_latency,
            breakdown,
            query_stats: None,
        };
        Ok((doc, served))
    }

    /// Serve a query.
    pub fn run_query(
        &self,
        database: &str,
        query: &Query,
        caller: &Caller,
        rng: &mut SimRng,
    ) -> FirestoreResult<(firestore_core::executor::QueryResult, ServedRequest)> {
        let span = self.obs.tracer.span("service.run_query");
        let Hosted { db, meters } = self.enter(&span, database)?;
        let _slot = self.admit(database, &meters)?;
        let result = db.run_query(query, Consistency::Strong, caller)?;
        self.billing
            .record_reads(database, result.documents.len() as u64);
        let cpu_cost = self.cost.query_cost(
            result.stats.entries_examined + result.stats.seeks * 4,
            result.stats.docs_fetched,
            result.stats.bytes_returned,
        );
        let storage_latency = self
            .latency
            .spanner_read(result.stats.entries_examined.max(1), rng)
            + self.latency.hop(rng);
        // The fixed per-RPC overhead models parsing + planning; the rest of
        // the CPU cost plus the storage reads are the executor's share.
        let plan = self.cost.per_rpc;
        let breakdown = PhaseBreakdown {
            plan,
            execute: cpu_cost.saturating_sub(plan) + storage_latency,
            ..PhaseBreakdown::default()
        };
        breakdown.record_to(&meters.query);
        let served = ServedRequest {
            cpu_cost,
            storage_latency,
            breakdown,
            query_stats: Some(result.stats),
        };
        Ok((result, served))
    }

    /// Serve a commit.
    pub fn commit(
        &self,
        database: &str,
        writes: Vec<Write>,
        caller: &Caller,
        rng: &mut SimRng,
    ) -> FirestoreResult<(WriteResult, ServedRequest)> {
        let span = self.obs.tracer.span("service.commit");
        let Hosted { db, meters } = self.enter(&span, database)?;
        let _slot = self.admit(database, &meters)?;
        let deletes = writes
            .iter()
            .filter(|w| matches!(w.op, firestore_core::WriteOp::Delete { .. }))
            .count();
        let result = db.commit_writes(writes, caller)?;
        self.billing.record_writes(
            database,
            (result.stats.documents - deletes.min(result.stats.documents)) as u64,
        );
        self.billing.record_deletes(database, deletes as u64);
        // The engine's cost ledger now charges per-index maintenance, redo
        // appends/fsyncs, and lock release to the clock itself
        // (`stats.engine_cpu`, measured); the modeled residual is the RPC
        // overhead + payload term, so the per-entry cost isn't counted
        // twice.
        let cpu_cost =
            self.cost.write_cost(0, result.stats.payload_bytes) + result.stats.engine_cpu;
        let rtc_hops = self.latency.hop(rng).mul_f64(2.0); // Prepare + Accept hops
        let spanner_latency = self.latency.spanner_commit(
            result.stats.participants,
            result.stats.payload_bytes,
            rng,
        );
        let breakdown = PhaseBreakdown {
            execute: cpu_cost + spanner_latency,
            lock_wait: result.stats.lock_wait,
            commit_wait: result.stats.commit_wait,
            fanout: rtc_hops,
            ..PhaseBreakdown::default()
        };
        breakdown.record_to(&meters.commit);
        let served = ServedRequest {
            cpu_cost,
            storage_latency: spanner_latency + rtc_hops,
            breakdown,
            query_stats: None,
        };
        Ok((result, served))
    }

    /// Open a real-time connection.
    pub fn connect(&self) -> Connection {
        self.rtc.connect()
    }

    /// Register a real-time query for `conn`: runs the initial (unwindowed)
    /// snapshot on the Backend, bills its reads, and subscribes (§IV-D4
    /// steps 1–4).
    pub fn listen(
        &self,
        database: &str,
        conn: &Connection,
        query: Query,
        caller: &Caller,
    ) -> FirestoreResult<QueryId> {
        let span = self.obs.tracer.span("service.listen");
        let hosted = self.enter(&span, database);
        match &hosted {
            Ok(h) => h.meters.listens.incr(1),
            Err(_) => self.obs.metrics.incr("service.listens", &[("db", database)], 1),
        }
        let db = hosted?.db;
        // The initial snapshot below runs through the tenant gate (it is a
        // query); the listener registration itself is capped here.
        self.tenants.listener_opened(database)?;
        let snapshot = match ListenSnapshot::read(&db, query, caller) {
            Ok(snapshot) => snapshot,
            Err(e) => {
                self.tenants.listener_closed(database);
                return Err(e);
            }
        };
        self.billing
            .record_reads(database, snapshot.documents().len() as u64);
        Ok(snapshot.listen(conn))
    }

    /// Gate one unit of Backend work submitted outside the RPC entry points
    /// (load-driver jobs, batch pipelines), honoring the request class: the
    /// control plane sheds batch work before interactive work under
    /// overload. Returns `Ok` when the work may be enqueued.
    pub fn admit_work(&self, database: &str, class: RequestClass) -> FirestoreResult<()> {
        self.tenants
            .check(database, firestore_core::GatedOp::Query, class)
    }

    /// Model the per-listener notification delays of one fan-out: each
    /// Frontend task serializes the sends of the listeners it hosts
    /// (round-robin assignment), so delay grows within a task but the pool
    /// scales out with listener count (Fig 9).
    pub fn fanout_delays(&self, listeners: usize, rng: &mut SimRng) -> Vec<Duration> {
        let tasks = self.frontend_tasks.load(Ordering::Relaxed).max(1);
        let per_send = Duration::from_micros(30);
        (0..listeners)
            .map(|i| {
                let rank_in_task = (i / tasks) as u64;
                self.latency.hop(rng) + per_send * (rank_in_task + 1)
            })
            .collect()
    }

    /// Observe real-time load and let the Frontend pool scale with the
    /// number of active queries ("the increase in active real-time queries
    /// increases the load on Frontend tasks, which leads autoscaling to
    /// quickly scale up the number of Frontend tasks, independently of the
    /// rest of the system", §V-B1).
    pub fn autoscale_frontends(&self, now: Timestamp) {
        if !self.options.autoscaling {
            return;
        }
        let active = self.rtc.stats().active_queries;
        let tasks = self.frontend_tasks.load(Ordering::Relaxed);
        // Model: one task comfortably serves ~64 active queries.
        let utilization = active as f64 / (tasks as f64 * 64.0);
        if let Some(new) = self.frontend_scaler.lock().observe(tasks, utilization, now) {
            self.frontend_tasks.store(new, Ordering::Relaxed);
        }
    }

    /// Observe Backend utilization and scale the pool.
    pub fn autoscale_backend(&self, now: Timestamp) {
        if !self.options.autoscaling {
            return;
        }
        let mut backend = self.backend.lock();
        let utilization = backend.take_utilization();
        let tasks = backend.cores();
        if let Some(new) = self.backend_scaler.lock().observe(tasks, utilization, now) {
            backend.set_cores(new);
        }
    }

    /// Periodic service maintenance: real-time heartbeats, billing day
    /// rolls, storage maintenance, auto-scaling.
    pub fn tick(&self) {
        let now = self.clock.now();
        self.rtc.tick();
        // Feed fanout queue pressure to the control plane: under pressure
        // the effective per-tenant listener cap shrinks, shedding new
        // subscriptions at admission instead of onto saturated queues.
        self.tenants.set_fanout_pressure(self.rtc.fanout_pressure());
        self.billing.maybe_roll_day(now);
        self.spanner.maintain(Timestamp::from_nanos(
            now.as_nanos()
                .saturating_sub(Duration::from_secs(3600).as_nanos()),
        ));
        self.autoscale_frontends(now);
        self.autoscale_backend(now);
        // Refresh storage gauges.
        let dbs: Vec<(String, FirestoreDatabase)> = self
            .databases
            .read()
            .iter()
            .map(|(k, h)| (k.clone(), h.db.clone()))
            .collect();
        for (id, db) in &dbs {
            if let Ok((_, bytes)) = db.storage_stats() {
                self.billing.set_storage(id, bytes as u64);
            }
        }
        // Collect expired write-ledger dedup rows (PR 3's exactly-once
        // machinery) so long fleet runs don't grow the ledger unboundedly.
        // The retention horizon must outlive the client retry budget, so a
        // late retry still finds its row.
        let run_gc = {
            let mut last = self.last_gc.lock();
            if now.saturating_sub(*last) >= self.options.gc_interval {
                *last = now;
                true
            } else {
                false
            }
        };
        if run_gc {
            let horizon = Timestamp::from_nanos(
                now.as_nanos()
                    .saturating_sub(self.options.ledger_retention.as_nanos()),
            );
            let mut collected = 0usize;
            for (_, db) in &dbs {
                if let Ok(n) = db.gc_write_ledger(horizon) {
                    collected += n;
                }
            }
            if collected > 0 {
                self.obs
                    .metrics
                    .incr("service.ledger_gc.rows", &[], collected as u64);
            }
        }
        // Per-tenant backlog gauges (top-K heavy hitters + `other`).
        self.tenants.export_gauges();
    }
}

/// A hosted database and its service-level series.
#[derive(Clone)]
struct Hosted {
    db: FirestoreDatabase,
    meters: Arc<DbMeters>,
}

/// One database's service-level series, resolved once when it is
/// provisioned (none is exported before its first update).
struct DbMeters {
    /// The database id, shared into span attributes without copying.
    id: Arc<str>,
    admitted: CounterHandle,
    rejected: CounterHandle,
    listens: CounterHandle,
    get: PhaseHistograms,
    query: PhaseHistograms,
    commit: PhaseHistograms,
}

impl DbMeters {
    fn new(obs: &Obs, id: &str) -> DbMeters {
        let m = &obs.metrics;
        let phases = |op| PhaseHistograms::resolve(m, &[("db", id), ("op", op)]);
        DbMeters {
            id: id.into(),
            admitted: m.counter("service.admission.admitted", &[("db", id)]),
            rejected: m.counter("service.admission.rejected", &[("db", id)]),
            listens: m.counter("service.listens", &[("db", id)]),
            get: phases("get"),
            query: phases("query"),
            commit: phases("commit"),
        }
    }
}

/// Holds one admitted-request slot; dropping it releases the slot.
struct AdmitGuard<'a> {
    admission: &'a AdmissionController,
    database: &'a str,
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        self.admission.release(self.database);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firestore_core::database::doc;
    use firestore_core::Value;

    fn service() -> FirestoreService {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        FirestoreService::new(clock, ServiceOptions::default())
    }

    #[test]
    fn set_rules_compiles_and_enforces() {
        let svc = service();
        let db = svc.create_database("app");
        svc.set_rules(
            "app",
            r#"
            service cloud.firestore {
              match /databases/{database}/documents {
                match /open/{d} { allow read, write: if true; }
              }
            }
            "#,
        )
        .unwrap();
        let user = Caller::EndUser(Some(rules::AuthContext::uid("u")));
        db.commit_writes(
            vec![Write::set(doc("/open/x"), [("v", Value::Int(1))])],
            &user,
        )
        .unwrap();
        assert!(db
            .commit_writes(
                vec![Write::set(doc("/closed/x"), [("v", Value::Int(1))])],
                &user,
            )
            .is_err());
        // Rules deploys are routed per database; unknown databases error.
        assert!(svc.set_rules("nope", "service cloud.firestore {}").is_err());
        // Bad source is rejected at deploy time, not at request time.
        assert!(svc.set_rules("app", "match oops {").is_err());
    }

    #[test]
    fn multi_tenant_databases_are_isolated() {
        let svc = service();
        let a = svc.create_database("app-a");
        let b = svc.create_database("app-b");
        assert_eq!(svc.database_count(), 2);
        a.commit_writes(
            vec![Write::set(doc("/users/u"), [("app", Value::from("a"))])],
            &Caller::Service,
        )
        .unwrap();
        // Database B cannot see A's document despite the shared Spanner.
        assert!(b
            .get_document(&doc("/users/u"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .is_none());
        assert!(a
            .get_document(&doc("/users/u"), Consistency::Strong, &Caller::Service)
            .unwrap()
            .is_some());
    }

    #[test]
    fn requests_are_metered() {
        let svc = service();
        svc.create_database("app");
        let mut rng = SimRng::new(1);
        let (result, served) = svc
            .commit(
                "app",
                vec![Write::set(doc("/c/d"), [("v", Value::Int(1))])],
                &Caller::Service,
                &mut rng,
            )
            .unwrap();
        assert!(result.commit_ts > Timestamp::ZERO);
        assert!(served.cpu_cost > Duration::ZERO);
        assert!(served.storage_latency > Duration::ZERO);
        assert_eq!(svc.billing.usage("app").writes, 1);

        let (doc_read, _) = svc
            .get_document("app", &doc("/c/d"), &Caller::Service, &mut rng)
            .unwrap();
        assert!(doc_read.is_some());
        assert_eq!(svc.billing.usage("app").reads, 1);

        let q = Query::parse("/c").unwrap();
        let (qr, _) = svc
            .run_query("app", &q, &Caller::Service, &mut rng)
            .unwrap();
        assert_eq!(qr.documents.len(), 1);
        assert_eq!(svc.billing.usage("app").reads, 2);

        svc.commit(
            "app",
            vec![Write::delete(doc("/c/d"))],
            &Caller::Service,
            &mut rng,
        )
        .unwrap();
        assert_eq!(svc.billing.usage("app").deletes, 1);
    }

    #[test]
    fn admission_gates_entry_points_with_retriable_errors() {
        let svc = service();
        svc.create_database("throttled");
        let mut rng = SimRng::new(9);
        // Emergency-cap the database to zero in-flight requests (§VI).
        svc.admission.set_override("throttled", 0);
        let err = svc
            .get_document("throttled", &doc("/c/d"), &Caller::Service, &mut rng)
            .unwrap_err();
        assert!(matches!(err, FirestoreError::Unavailable(_)));
        assert!(err.is_retriable(), "shed load must invite a backoff-retry");
        let err = svc
            .commit(
                "throttled",
                vec![Write::set(doc("/c/d"), [("v", Value::Int(1))])],
                &Caller::Service,
                &mut rng,
            )
            .unwrap_err();
        assert!(err.is_retriable());
        assert!(svc.admission.stats().rejected_per_db >= 2);
        // Lifting the cap restores service, and slots were not leaked.
        svc.admission.clear_override("throttled");
        svc.get_document("throttled", &doc("/c/d"), &Caller::Service, &mut rng)
            .unwrap();
        assert_eq!(svc.admission.inflight("throttled"), 0);
    }

    #[test]
    fn unknown_database_rejected() {
        let svc = service();
        let mut rng = SimRng::new(1);
        assert!(matches!(
            svc.get_document("ghost", &doc("/c/d"), &Caller::Service, &mut rng),
            Err(FirestoreError::NotFound(_))
        ));
    }

    #[test]
    fn realtime_listen_through_service() {
        let svc = service();
        svc.create_database("app");
        let conn = svc.connect();
        let q = Query::parse("/scores").unwrap();
        svc.listen("app", &conn, q, &Caller::Service).unwrap();
        conn.poll(); // initial snapshot
        let mut rng = SimRng::new(2);
        svc.commit(
            "app",
            vec![Write::set(doc("/scores/game1"), [("home", Value::Int(1))])],
            &Caller::Service,
            &mut rng,
        )
        .unwrap();
        svc.realtime().tick();
        let events = conn.poll();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn multi_regional_commits_slower_than_regional() {
        let mk = |deployment| {
            let clock = SimClock::new();
            clock.advance(Duration::from_secs(1));
            let svc = FirestoreService::new(
                clock,
                ServiceOptions {
                    deployment,
                    ..ServiceOptions::default()
                },
            );
            svc.create_database("app");
            let mut rng = SimRng::new(3);
            let mut total = Duration::ZERO;
            for i in 0..50 {
                let (_, served) = svc
                    .commit(
                        "app",
                        vec![Write::set(
                            doc(&format!("/c/d{i}")),
                            [("v", Value::Int(i as i64))],
                        )],
                        &Caller::Service,
                        &mut rng,
                    )
                    .unwrap();
                total += served.storage_latency;
            }
            total
        };
        let regional = mk(Deployment::Regional);
        let multi = mk(Deployment::MultiRegional);
        assert!(
            multi > regional.mul_f64(2.0),
            "multi {multi} vs regional {regional}"
        );
    }

    #[test]
    fn frontend_autoscaling_follows_listeners() {
        let svc = service();
        svc.create_database("app");
        let before = svc.frontend_tasks();
        // Register many listeners, then advance past the reaction delay.
        let conn = svc.connect();
        for i in 0..2000 {
            let q = Query::parse(&format!("/c{i}")).unwrap();
            svc.listen("app", &conn, q, &Caller::Service).unwrap();
        }
        svc.autoscale_frontends(svc.clock().now());
        svc.clock().advance(Duration::from_secs(60));
        svc.autoscale_frontends(svc.clock().now());
        assert!(
            svc.frontend_tasks() > before,
            "pool should grow under listener load"
        );
        // Fan-out delays shrink as the pool grows.
        let mut rng = SimRng::new(4);
        let delays = svc.fanout_delays(1000, &mut rng);
        assert_eq!(delays.len(), 1000);
    }

    #[test]
    fn databases_route_to_their_region() {
        let svc = service();
        svc.create_database("app");
        assert_eq!(
            svc.router.route("app").unwrap(),
            crate::router::RegionId("nam5".into())
        );
        assert!(svc.router.route("elsewhere").is_err());
    }

    #[test]
    fn tick_runs_maintenance() {
        let svc = service();
        svc.create_database("app");
        let mut rng = SimRng::new(5);
        svc.commit(
            "app",
            vec![Write::set(doc("/c/d"), [("v", Value::Int(1))])],
            &Caller::Service,
            &mut rng,
        )
        .unwrap();
        svc.tick();
        assert!(svc.billing.usage("app").storage_bytes > 0);
    }
}
