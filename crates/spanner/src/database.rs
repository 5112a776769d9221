//! The Spanner database: tables, directories, transactions, commits.
//!
//! One `SpannerDatabase` models one of the "small number of pre-initialized
//! Spanner databases" per region that Firestore multiplexes millions of
//! customer databases onto (paper §IV-D1). Customer databases map to
//! *directories* — key-prefix placement units — allocated from this object.

use crate::error::{SpannerError, SpannerResult};
use crate::key::{Key, KeyRange};
use crate::lock::{LockManager, LockMode};
use crate::mvcc::MvccStore;
use crate::redo::{tablet_log, RecoveryReport, RedoRecord, OUTCOMES_LOG, TABLET_LOG_PREFIX};
use crate::tablet::{SplitPolicy, TabletMap};
use crate::txn::{Mutation, ReadWriteTransaction, TxnId};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use simkit::fault::{FaultInjector, FaultKind};
use simkit::history::{hash_bytes, HistoryEvent, HistoryRecorder};
use simkit::prof;
use simkit::{
    CounterHandle, CrashPoints, Duration, HistogramHandle, Obs, SimClock, SimDisk, Timestamp,
    TrueTime,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};

/// A table name. Firestore uses `Entities` and `IndexEntries` (§IV-D1), plus
/// a `Messages` table for the transactional messaging system (§IV-D2).
pub type TableName = &'static str;

/// Commit mutations grouped by participant tablet `(table id, tablet index)`,
/// the unit that receives one redo `Prepared` record during 2PC.
type ParticipantMutations = BTreeMap<(u32, usize), Vec<(Key, Option<Bytes>)>>;

/// Options controlling substrate behaviour.
#[derive(Clone, Debug, Default)]
pub struct SpannerOptions {
    /// Tablet split policy applied to every table.
    pub split_policy: SplitPolicy,
}

struct TableData {
    store: RwLock<MvccStore>,
    tablets: Mutex<TabletMap>,
}

/// A directory id: the placement unit one Firestore database occupies.
/// Directory `d`'s keys all start with the 4-byte big-endian encoding of `d`,
/// so a directory is a contiguous key range in every table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DirectoryId(pub u32);

impl DirectoryId {
    /// The key prefix of this directory.
    pub fn prefix(&self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Prefix a key with this directory.
    pub fn key(&self, suffix: &[u8]) -> Key {
        let mut v = Vec::with_capacity(4 + suffix.len());
        v.extend_from_slice(&self.prefix());
        v.extend_from_slice(suffix);
        Key::from(v)
    }

    /// The key range covering the whole directory.
    pub fn range(&self) -> KeyRange {
        KeyRange::prefix(&Key::from(self.prefix().to_vec()))
    }
}

/// The result of a successful commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitInfo {
    /// The TrueTime commit timestamp assigned to the transaction.
    pub commit_ts: Timestamp,
    /// Distinct tablets (Paxos participant groups) the commit touched.
    pub participants: usize,
    /// Total mutation payload bytes.
    pub payload_bytes: usize,
    /// Number of mutations applied.
    pub mutation_count: usize,
    /// Simulated time spent acquiring exclusive locks (phase 1).
    pub lock_wait: Duration,
    /// Simulated time spent in TrueTime commit wait (phase 4), including
    /// any injected uncertainty spike.
    pub commit_wait: Duration,
    /// CPU time the cost ledger charged to the clock inside this commit
    /// (redo appends, fsyncs, lock release) — see `simkit::prof::costs`.
    pub cpu_charged: Duration,
}

/// Failure injection hooks for testing the write pipeline's error paths
/// (paper §IV-D2 enumerates them; §VI stresses testing them).
#[derive(Debug, Default)]
struct FailureInjector {
    /// Fail the next `n` commits with the given error.
    fail_commits: Mutex<Vec<SpannerError>>,
}

struct Inner {
    truetime: TrueTime,
    tables: RwLock<HashMap<&'static str, (u32, Arc<TableData>)>>,
    locks: LockManager,
    next_txn: AtomicU64,
    next_directory: AtomicU32,
    options: SpannerOptions,
    failures: FailureInjector,
    fault_injector: Mutex<Option<Arc<FaultInjector>>>,
    obs: Mutex<Option<Arc<Instruments>>>,
    commits: AtomicU64,
    aborts: AtomicU64,
    /// The durable medium redo records are appended to; `None` runs the
    /// database fully volatile (the pre-durability behaviour).
    disk: Mutex<Option<SimDisk>>,
    /// The crash-point registry consulted inside the commit path.
    crash_points: Mutex<Option<CrashPoints>>,
    /// Set by [`SpannerDatabase::crash`]; every operation fails until
    /// [`SpannerDatabase::recover`] completes.
    crashed: AtomicBool,
    /// Transactions begun before the last crash are fenced off: any id
    /// below this is rejected (its locks and buffers died with the process).
    min_live_txn: AtomicU64,
    /// Locks discarded by the last crash (reported by `recover`).
    orphan_locks: AtomicU64,
    /// Consistency-oracle history recorder; commits, transactional reads,
    /// and snapshot reads are recorded while one is attached.
    history: Mutex<Option<Arc<HistoryRecorder>>>,
    /// Oracle mutation toggle: serve snapshot reads from this much earlier
    /// than the requested timestamp while *recording* the requested one — a
    /// deliberate staleness bug the oracle must catch. Nanoseconds; 0 is
    /// off. Read on every snapshot read, so an atomic rather than a lock.
    oracle_stale_reads_ns: AtomicU64,
    /// Commit timestamps assigned but not yet applied to the stores. A
    /// strong read waits until none at or below its timestamp remains
    /// (Spanner's safe time), so it never sees half a commit.
    unapplied: Mutex<BTreeSet<Timestamp>>,
    /// Signalled whenever a timestamp leaves [`Inner::unapplied`].
    applied: Condvar,
    /// Test-only perf-mutation knob (nanoseconds): extra charge added to
    /// every redo-log fsync, modeling a degraded device. The bench-gate
    /// mutation proof seeds this and asserts the gate fails.
    fsync_padding_ns: AtomicU64,
}

/// The attached observability handle plus the commit path's series,
/// resolved once when the handle is attached.
struct Instruments {
    obs: Obs,
    commits: CounterHandle,
    aborts: CounterHandle,
    redo_prepares: CounterHandle,
    redo_outcomes: CounterHandle,
    redo_fsyncs: CounterHandle,
    redo_fsync_failures: CounterHandle,
    lock_wait_ms: HistogramHandle,
    commit_wait_ms: HistogramHandle,
}

impl Instruments {
    fn new(obs: Obs) -> Instruments {
        let m = &obs.metrics;
        Instruments {
            commits: m.counter("spanner.commits", &[]),
            aborts: m.counter("spanner.aborts", &[]),
            redo_prepares: m.counter("spanner.redo.prepares", &[]),
            redo_outcomes: m.counter("spanner.redo.outcomes", &[]),
            redo_fsyncs: m.counter("spanner.redo.fsyncs", &[]),
            redo_fsync_failures: m.counter("spanner.redo.fsync_failures", &[]),
            lock_wait_ms: m.histogram_handle("spanner.lock_wait_ms", &[]),
            commit_wait_ms: m.histogram_handle("spanner.commit_wait_ms", &[]),
            obs,
        }
    }
}

/// Removes an assigned commit timestamp from [`Inner::unapplied`] once the
/// commit has been applied, or has failed, and wakes waiting strong reads.
struct Unapplied<'a> {
    inner: &'a Inner,
    ts: Timestamp,
}

impl Drop for Unapplied<'_> {
    fn drop(&mut self) {
        self.inner.unapplied.lock().remove(&self.ts);
        self.inner.applied.notify_all();
    }
}

/// A Spanner-like database. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct SpannerDatabase {
    inner: Arc<Inner>,
}

impl SpannerDatabase {
    /// Create a database over the given clock with default options.
    pub fn new(clock: SimClock) -> Self {
        SpannerDatabase::with_options(clock, SpannerOptions::default())
    }

    /// Create a database with explicit options.
    pub fn with_options(clock: SimClock, options: SpannerOptions) -> Self {
        let truetime = TrueTime::with_default_epsilon(clock);
        SpannerDatabase {
            inner: Arc::new(Inner {
                truetime,
                tables: RwLock::new(HashMap::new()),
                locks: LockManager::new(),
                next_txn: AtomicU64::new(1),
                next_directory: AtomicU32::new(1),
                options,
                failures: FailureInjector::default(),
                fault_injector: Mutex::new(None),
                obs: Mutex::new(None),
                commits: AtomicU64::new(0),
                aborts: AtomicU64::new(0),
                disk: Mutex::new(None),
                crash_points: Mutex::new(None),
                crashed: AtomicBool::new(false),
                min_live_txn: AtomicU64::new(0),
                orphan_locks: AtomicU64::new(0),
                history: Mutex::new(None),
                oracle_stale_reads_ns: AtomicU64::new(0),
                unapplied: Mutex::new(BTreeSet::new()),
                applied: Condvar::new(),
                fsync_padding_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Attach a durable medium. From now on every commit appends per-tablet
    /// `Prepared` redo records and a coordinator `Outcome` record (the
    /// durability point) before applying mutations, and
    /// [`SpannerDatabase::recover`] can rebuild state after a
    /// [`SpannerDatabase::crash`].
    pub fn attach_durability(&self, disk: SimDisk) {
        *self.inner.disk.lock() = Some(disk);
    }

    /// The attached durable medium, if any.
    pub fn durability(&self) -> Option<SimDisk> {
        self.inner.disk.lock().clone()
    }

    /// Test-only perf-mutation knob: pad every redo-log fsync charge by
    /// `d`, modeling a degraded device. The bench-gate mutation proof seeds
    /// this into a benched path and asserts the gate fails, then passes
    /// once reset to zero.
    pub fn set_redo_fsync_padding(&self, d: Duration) {
        self.inner
            .fsync_padding_ns
            .store(d.as_nanos(), Ordering::Relaxed);
    }

    /// Charge one redo-log fsync to the clock (cost-ledger model plus any
    /// test-only padding); returns the amount charged.
    fn charge_fsync(&self) -> Duration {
        let c = prof::costs::REDO_FSYNC
            + Duration::from_nanos(self.inner.fsync_padding_ns.load(Ordering::Relaxed));
        self.inner.truetime.clock().advance(c);
        c
    }

    /// Install (or clear) the crash-point registry consulted inside the
    /// commit path. When a registered site is armed, reaching it crashes the
    /// database mid-commit.
    pub fn set_crash_points(&self, points: Option<CrashPoints>) {
        *self.inner.crash_points.lock() = points;
    }

    /// Whether the process is currently crashed (every operation returns
    /// [`SpannerError::Unavailable`] until [`SpannerDatabase::recover`]).
    pub fn crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::SeqCst)
    }

    /// Record that execution reached a named crash site; returns `true` —
    /// after crashing the database — iff the site was armed.
    fn crash_if_armed(&self, site: &'static str) -> bool {
        let points = self.inner.crash_points.lock().clone();
        match points {
            Some(p) if p.reached(site) => {
                self.crash();
                true
            }
            _ => false,
        }
    }

    /// Crash the process: drop every piece of volatile state — MVCC stores,
    /// tablet maps, the lock table, all in-flight transactions — and fail
    /// every subsequent operation until [`SpannerDatabase::recover`]. The
    /// attached [`SimDisk`] (if any) also crashes, losing unsynced bytes and
    /// possibly leaving torn log tails.
    pub fn crash(&self) {
        self.inner.crashed.store(true, Ordering::SeqCst);
        // Fence off every transaction begun before the crash: its locks and
        // buffers died with the process.
        self.inner.min_live_txn.store(
            self.inner.next_txn.load(Ordering::SeqCst),
            Ordering::SeqCst,
        );
        let orphans = self.inner.locks.clear();
        self.inner
            .orphan_locks
            .store(orphans as u64, Ordering::SeqCst);
        for (_, data) in self.inner.tables.read().values() {
            *data.store.write() = MvccStore::new();
            *data.tablets.lock() = TabletMap::new(self.inner.options.split_policy);
        }
        if let Some(disk) = self.inner.disk.lock().as_ref() {
            disk.crash();
        }
        if let Some(h) = self.inner.history.lock().as_ref() {
            h.record(HistoryEvent::Crash);
        }
    }

    /// Recover from a crash by replaying the redo logs: rebuild every tablet
    /// from its durable `Prepared` records whose transaction has a durable
    /// coordinator `Outcome`, discard prepared-but-undecided participants
    /// (the 2PC coordinator resolution), and truncate torn log tails. A
    /// no-op when the database is not crashed.
    pub fn recover(&self) -> RecoveryReport {
        let mut report = RecoveryReport {
            orphan_locks_discarded: self.inner.orphan_locks.swap(0, Ordering::SeqCst) as usize,
            ..RecoveryReport::default()
        };
        if !self.inner.crashed.swap(false, Ordering::SeqCst) {
            return report;
        }
        let Some(disk) = self.inner.disk.lock().clone() else {
            return report;
        };
        // Chaos layer: a TrueTime uncertainty spike during replay stretches
        // recovery (the commit-wait equivalent for the restart path).
        if self.inject(FaultKind::TtUncertaintySpike, "recover-replay") {
            let spike = self
                .fault_injector()
                .map(|inj| inj.tt_spike())
                .unwrap_or_default();
            self.inner.truetime.clock().advance(spike);
        }
        // 1. The coordinator log decides which transactions committed.
        let outcomes = disk.read(OUTCOMES_LOG);
        report.torn_tails += usize::from(outcomes.torn_tail);
        // Keyed by (txn id, commit ts), not txn id alone: the on-disk format
        // permits duplicate txn ids (a fresh database attached to an existing
        // disk restarts the id sequence), and an id reuse must not shadow an
        // earlier acked commit's outcome.
        let mut committed: HashSet<(u64, Timestamp)> = HashSet::new();
        for raw in &outcomes.records {
            if let Some(RedoRecord::Outcome { txn_id, commit_ts }) = RedoRecord::decode(raw) {
                committed.insert((txn_id, commit_ts));
            }
        }
        // 2. Scan every participant log, keeping prepared mutations whose
        // transaction has a durable outcome.
        let mut replayed: Vec<(Timestamp, u64, u32, Key, Option<Bytes>)> = Vec::new();
        let mut replayed_txns: HashMap<u64, ()> = HashMap::new();
        for log in disk.logs_with_prefix(TABLET_LOG_PREFIX) {
            report.logs_scanned += 1;
            let replay = disk.read(&log);
            report.torn_tails += usize::from(replay.torn_tail);
            for raw in &replay.records {
                let Some(RedoRecord::Prepared {
                    txn_id,
                    commit_ts,
                    table,
                    mutations,
                }) = RedoRecord::decode(raw)
                else {
                    continue;
                };
                if committed.contains(&(txn_id, commit_ts)) {
                    replayed_txns.insert(txn_id, ());
                    for (key, value) in mutations {
                        replayed.push((commit_ts, txn_id, table, key, value));
                    }
                } else {
                    report.discarded_prepares += 1;
                }
            }
        }
        // 3. Reapply in commit-timestamp order so each key's version chain
        // is rebuilt monotonically.
        replayed.sort_by(|a, b| (a.0, a.1, a.2, &a.3).cmp(&(b.0, b.1, b.2, &b.3)));
        report.replayed_txns = replayed_txns.len();
        report.replayed_mutations = replayed.len();
        let now = self.inner.truetime.clock().now();
        let tables = self.inner.tables.read();
        let mut id_to_data: HashMap<u32, &Arc<TableData>> = HashMap::new();
        for (id, data) in tables.values() {
            id_to_data.insert(*id, data);
        }
        for (commit_ts, _txn, tid, key, value) in replayed {
            let Some(data) = id_to_data.get(&tid) else {
                // A log for a table this schema no longer knows: skip rather
                // than wedge recovery.
                continue;
            };
            let bytes = key.len() + value.as_ref().map_or(0, |v| v.len());
            data.tablets.lock().record_write(&key, bytes, now);
            data.store.write().apply(key, commit_ts, value);
        }
        if let Some(o) = self.obs() {
            o.metrics.incr("spanner.recoveries", &[], 1);
            let s = o.tracer.span("spanner.recover");
            s.attr("replayed_txns", report.replayed_txns);
            s.attr("replayed_mutations", report.replayed_mutations);
            s.attr("logs_scanned", report.logs_scanned);
            s.attr("discarded_prepares", report.discarded_prepares);
        }
        if let Some(h) = self.inner.history.lock().as_ref() {
            h.record(HistoryEvent::Recovered);
        }
        report
    }

    /// Fail with [`SpannerError::Unavailable`] while crashed.
    fn ensure_up(&self) -> SpannerResult<()> {
        if self.crashed() {
            return Err(SpannerError::Unavailable("process crashed; recovery required"));
        }
        Ok(())
    }

    /// Reject operations on transactions that predate the last crash (their
    /// locks and buffers were volatile) and all operations while crashed.
    fn fence(&self, txn: &ReadWriteTransaction) -> SpannerResult<()> {
        self.ensure_up()?;
        if txn.id.0 < self.inner.min_live_txn.load(Ordering::SeqCst) {
            return Err(SpannerError::TxnClosed(txn.id));
        }
        Ok(())
    }

    /// The TrueTime source.
    pub fn truetime(&self) -> &TrueTime {
        &self.inner.truetime
    }

    /// Install (or clear) the chaos-layer fault injector. Tablet
    /// unavailability, TrueTime uncertainty spikes, and lock timeouts are
    /// then injected per the injector's [`simkit::fault::FaultPlan`].
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        self.inner.locks.set_injector(injector.clone());
        *self.inner.fault_injector.lock() = injector;
    }

    /// The installed fault injector, if any (shared with the messaging and
    /// cache layers so all decisions come from one seeded stream).
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.inner.fault_injector.lock().clone()
    }

    /// Install (or clear) the observability handle. Commit phases, redo
    /// logging, tablet splits, and recovery then emit spans and metrics.
    pub fn set_obs(&self, obs: Option<Obs>) {
        *self.inner.obs.lock() = obs.map(|o| Arc::new(Instruments::new(o)));
    }

    /// The installed observability handle, if any.
    pub fn obs(&self) -> Option<Obs> {
        self.inner.obs.lock().as_ref().map(|i| i.obs.clone())
    }

    fn instruments(&self) -> Option<Arc<Instruments>> {
        self.inner.obs.lock().clone()
    }

    /// Attach (or clear) the consistency-oracle history recorder. While one
    /// is attached every commit, transactional read, and snapshot read is
    /// recorded; production paths pay a single null check otherwise.
    pub fn set_history(&self, history: Option<Arc<HistoryRecorder>>) {
        *self.inner.history.lock() = history;
    }

    /// The attached history recorder, if any.
    pub fn history(&self) -> Option<Arc<HistoryRecorder>> {
        self.inner.history.lock().clone()
    }

    /// Oracle mutation toggle (test-only): serve snapshot reads `delta`
    /// earlier than the requested timestamp while recording the requested
    /// one. A seeded staleness bug the consistency oracle must detect —
    /// `None` restores correct behaviour.
    pub fn oracle_serve_stale_reads(&self, delta: Option<Duration>) {
        let ns = delta.map_or(0, |d| d.as_nanos());
        self.inner.oracle_stale_reads_ns.store(ns, Ordering::SeqCst);
    }

    /// The timestamp snapshot reads are actually served at: the requested
    /// one unless the stale-read oracle mutation is active.
    fn serve_ts(&self, ts: Timestamp) -> Timestamp {
        Timestamp(ts.0.saturating_sub(self.inner.oracle_stale_reads_ns.load(Ordering::SeqCst)))
    }

    /// Record snapshot-read observations, if a recorder is attached.
    fn record_snapshot_reads<'r>(
        &self,
        table: TableName,
        ts: Timestamp,
        reads: impl Iterator<Item = (&'r Key, Option<&'r Bytes>)>,
    ) {
        if let Some(h) = self.inner.history.lock().as_ref() {
            for (key, value) in reads {
                h.record(HistoryEvent::SnapshotRead {
                    ts,
                    table: table.to_string(),
                    key: key.as_slice().to_vec(),
                    observed: value.map(|v| hash_bytes(v)),
                });
            }
        }
    }

    /// Record transactional read observations into the transaction, if a
    /// recorder is attached (drained into the `Commit` event on commit).
    fn observe_txn_reads<'r>(
        &self,
        txn: &mut ReadWriteTransaction,
        tid: u32,
        reads: impl Iterator<Item = (&'r Key, Option<&'r Bytes>)>,
    ) {
        if self.inner.history.lock().is_some() {
            for (key, value) in reads {
                txn.observed_reads
                    .push((tid, key.clone(), value.map(|v| hash_bytes(v))));
            }
        }
    }

    /// Consult the chaos layer at an injection site.
    fn inject(&self, kind: FaultKind, site: &'static str) -> bool {
        self.inner
            .fault_injector
            .lock()
            .as_ref()
            .is_some_and(|inj| inj.should_inject(kind, site))
    }

    /// Create `name` if it does not exist; idempotent.
    pub fn create_table(&self, name: TableName) {
        let mut tables = self.inner.tables.write();
        let next_id = tables.len() as u32;
        tables.entry(name).or_insert_with(|| {
            (
                next_id,
                Arc::new(TableData {
                    store: RwLock::new(MvccStore::new()),
                    tablets: Mutex::new(TabletMap::new(self.inner.options.split_policy)),
                }),
            )
        });
    }

    fn table(&self, name: &str) -> SpannerResult<(u32, Arc<TableData>)> {
        self.ensure_up()?;
        self.inner
            .tables
            .read()
            .get(name)
            .map(|(id, t)| (*id, t.clone()))
            .ok_or_else(|| SpannerError::NoSuchTable(name.to_string()))
    }

    /// Allocate a fresh directory (a Firestore database's placement unit).
    pub fn allocate_directory(&self) -> DirectoryId {
        DirectoryId(self.inner.next_directory.fetch_add(1, Ordering::SeqCst))
    }

    /// Begin a read-write transaction.
    pub fn begin(&self) -> ReadWriteTransaction {
        ReadWriteTransaction::new(TxnId(self.inner.next_txn.fetch_add(1, Ordering::SeqCst)))
    }

    /// Transactional read with a shared lock, returning the value and the
    /// commit timestamp of the version read. Sees the transaction's own
    /// buffered writes, reported with a version timestamp of zero (they are
    /// not committed yet).
    pub fn txn_read_versioned(
        &self,
        txn: &mut ReadWriteTransaction,
        table: TableName,
        key: &Key,
    ) -> SpannerResult<Option<(Bytes, Timestamp)>> {
        self.txn_read(txn, table, key, LockMode::Shared)
    }

    /// Transactional read with an *exclusive* lock, as the Backend does for
    /// documents it is about to write (paper §IV-D2 step 2); otherwise as
    /// [`SpannerDatabase::txn_read_versioned`].
    pub fn txn_read_for_update_versioned(
        &self,
        txn: &mut ReadWriteTransaction,
        table: TableName,
        key: &Key,
    ) -> SpannerResult<Option<(Bytes, Timestamp)>> {
        self.txn_read(txn, table, key, LockMode::Exclusive)
    }

    /// The one transactional point read: the shared prologue, the
    /// transaction's buffered write if any, else a `mode` lock on `key` and
    /// its latest committed version.
    fn txn_read(
        &self,
        txn: &mut ReadWriteTransaction,
        table: TableName,
        key: &Key,
        mode: LockMode,
    ) -> SpannerResult<Option<(Bytes, Timestamp)>> {
        let (tid, data) = self.txn_table(txn, table)?;
        if let Some(buffered) = txn.buffered(tid, key) {
            return Ok(buffered.map(|b| (b, Timestamp::ZERO)));
        }
        if let Err(e) = self.inner.locks.acquire(txn.id, tid, key, mode) {
            self.abort(txn);
            return Err(e);
        }
        let row = data
            .store
            .read()
            .read(key, Timestamp::MAX)
            .map_err(|_| SpannerError::SnapshotTooOld)?;
        self.observe_txn_reads(
            txn,
            tid,
            std::iter::once((key, row.as_ref().map(|(b, _)| b))),
        );
        Ok(row)
    }

    /// Transactional scan of up to `limit` rows of `range`, in key order or,
    /// when `reverse`, from the top of the range down. Shared-locks each
    /// returned key so concurrent writers conflict (the read-lock behaviour
    /// of queries inside transactions, §IV-D3); the bounded reverse read
    /// lets descending limit queries lock only the rows they examine. Does
    /// not merge buffered writes — Firestore's Backend performs queries
    /// before buffering mutations.
    pub fn txn_scan(
        &self,
        txn: &mut ReadWriteTransaction,
        table: TableName,
        range: &KeyRange,
        limit: usize,
        reverse: bool,
    ) -> SpannerResult<Vec<(Key, Bytes, Timestamp)>> {
        let (tid, data) = self.txn_table(txn, table)?;
        let rows = data
            .store
            .read()
            .scan(range, Timestamp::MAX, limit, reverse)
            .map_err(|_| SpannerError::SnapshotTooOld)?;
        for (k, _, _) in &rows {
            if let Err(e) = self.inner.locks.acquire(txn.id, tid, k, LockMode::Shared) {
                self.abort(txn);
                return Err(e);
            }
        }
        self.observe_txn_reads(txn, tid, rows.iter().map(|(k, v, _)| (k, Some(v))));
        Ok(rows)
    }

    /// The prologue of every transactional read and scan: reject a closed
    /// or fenced transaction, consult the chaos layer once at the
    /// `txn-read` site — before any lock is taken — and resolve the table.
    fn txn_table(
        &self,
        txn: &mut ReadWriteTransaction,
        table: TableName,
    ) -> SpannerResult<(u32, Arc<TableData>)> {
        if txn.closed {
            return Err(SpannerError::TxnClosed(txn.id));
        }
        self.fence(txn)?;
        if self.inject(FaultKind::TabletUnavailable, "txn-read") {
            self.abort(txn);
            return Err(SpannerError::Unavailable("txn-read: tablet unreachable"));
        }
        self.table(table)
    }

    /// Buffer an insert/update.
    pub fn txn_put(
        &self,
        txn: &mut ReadWriteTransaction,
        table: TableName,
        key: Key,
        value: Bytes,
    ) -> SpannerResult<()> {
        self.txn_mutate(txn, table, key, Some(value))
    }

    /// Buffer a delete.
    pub fn txn_delete(
        &self,
        txn: &mut ReadWriteTransaction,
        table: TableName,
        key: Key,
    ) -> SpannerResult<()> {
        self.txn_mutate(txn, table, key, None)
    }

    fn txn_mutate(
        &self,
        txn: &mut ReadWriteTransaction,
        table: TableName,
        key: Key,
        value: Option<Bytes>,
    ) -> SpannerResult<()> {
        if txn.closed {
            return Err(SpannerError::TxnClosed(txn.id));
        }
        self.fence(txn)?;
        let (tid, _) = self.table(table)?;
        txn.mutations.push(Mutation {
            table: tid,
            key,
            value,
        });
        Ok(())
    }

    /// Abort a transaction, releasing its locks.
    pub fn abort(&self, txn: &mut ReadWriteTransaction) {
        if !txn.closed {
            txn.closed = true;
            self.inner.locks.release_all(txn.id);
            self.inner.aborts.fetch_add(1, Ordering::Relaxed);
            if let Some(i) = self.instruments() {
                i.aborts.incr(1);
            }
        }
    }

    /// Commit a transaction with a commit timestamp constrained to
    /// `[min_ts, max_ts]` (the window negotiated with the Real-time Cache,
    /// paper §IV-D2 steps 5–6).
    ///
    /// On success every buffered mutation is applied atomically at the
    /// commit timestamp and commit-wait is performed so the timestamp is in
    /// the past when this returns.
    pub fn commit(
        &self,
        mut txn: ReadWriteTransaction,
        min_ts: Timestamp,
        max_ts: Timestamp,
    ) -> SpannerResult<CommitInfo> {
        if txn.closed {
            return Err(SpannerError::TxnClosed(txn.id));
        }
        self.fence(&txn)?;
        let instruments = self.instruments();
        let obs = instruments.as_ref().map(|i| &i.obs);
        let span = obs.map(|o| {
            let s = o.tracer.span("spanner.commit");
            s.attr("txn", txn.id.0);
            s.attr("mutations", txn.mutations.len());
            s
        });
        // Injected failures (tests / failure-injection experiments).
        if let Some(err) = self.inner.failures.fail_commits.lock().pop() {
            self.abort(&mut txn);
            return Err(err);
        }
        // Chaos layer: a participant tablet is transiently unreachable.
        if self.inject(FaultKind::TabletUnavailable, "commit") {
            self.abort(&mut txn);
            return Err(SpannerError::Unavailable("commit: tablet unreachable"));
        }

        // Phase 1: acquire exclusive locks on every written cell. The span
        // brackets exactly the measured `lock_wait` window, so profiler
        // self-time for `spanner.lock.acquire` reconciles against the
        // breakdown's lock_wait phase (an aborted acquisition still records
        // the time waited so far when the guard drops on the error return).
        let lock_span = obs.map(|o| {
            let s = o.tracer.span("spanner.lock.acquire");
            s.attr("cells", txn.mutations.len());
            s
        });
        let lock_start = self.inner.truetime.clock().now();
        for m in &txn.mutations {
            if let Err(e) = self
                .inner
                .locks
                .acquire(txn.id, m.table, &m.key, LockMode::Exclusive)
            {
                self.abort(&mut txn);
                return Err(e);
            }
        }
        let lock_wait = self.inner.truetime.clock().now().saturating_sub(lock_start);
        drop(lock_span);
        let mut cpu_charged = Duration::ZERO;
        if let Some(s) = &span {
            s.event_args("locks-acquired", &[("n", txn.mutations.len() as u64)]);
        }

        // Phase 2: assign a TrueTime commit timestamp inside the window,
        // registered as unapplied until phase 3b has applied it.
        let assigned = {
            let mut unapplied = self.inner.unapplied.lock();
            let ts = self.inner.truetime.assign_commit_timestamp(min_ts, max_ts);
            unapplied.extend(ts);
            ts
        };
        let Some(commit_ts) = assigned else {
            self.abort(&mut txn);
            return Err(SpannerError::CommitWindowExpired);
        };
        let unapplied = Unapplied {
            inner: &self.inner,
            ts: commit_ts,
        };
        if let Some(s) = &span {
            s.attr("commit_ts", commit_ts.as_nanos());
        }

        // Phase 3: log redo records, then apply mutations atomically (later
        // writes to the same key within the txn win) and account tablet
        // participation.
        let now = self.inner.truetime.clock().now();
        let mut participants = 0usize;
        let payload = txn.payload_bytes();
        let mutation_count = txn.mutations.len();
        {
            // Group mutations per table, deduplicated last-write-wins, in
            // deterministic table-id order (the redo logs must be stable
            // across identically seeded runs).
            let by_table: BTreeMap<u32, Vec<Mutation>> = {
                let mut dedup: HashMap<(u32, &Key), usize> = HashMap::new();
                for (i, m) in txn.mutations.iter().enumerate() {
                    dedup.insert((m.table, &m.key), i);
                }
                let mut grouped: BTreeMap<u32, Vec<Mutation>> = BTreeMap::new();
                for (i, m) in txn.mutations.iter().enumerate() {
                    if dedup[&(m.table, &m.key)] == i {
                        grouped.entry(m.table).or_default().push(m.clone());
                    }
                }
                grouped
            };
            // Snapshot the table map as owned handles: the crash sites
            // below re-enter the table map, so no guard may be held here.
            let id_to_data: HashMap<u32, Arc<TableData>> = self
                .inner
                .tables
                .read()
                .values()
                .map(|(id, data)| (*id, data.clone()))
                .collect();
            // Pre-flight: resolve every table id before touching any store,
            // so a corrupt id degrades to a clean abort instead of either a
            // panic or a partially applied transaction.
            for tid in by_table.keys() {
                if !id_to_data.contains_key(tid) {
                    self.abort(&mut txn);
                    return Err(SpannerError::Internal(format!(
                        "commit references unknown table id {tid}"
                    )));
                }
            }

            // Consistency oracle: stage the Commit event now (the mutation
            // groups are consumed by the apply loop below) and record it at
            // the durability point — right after the coordinator outcome
            // fsync when a disk is attached, so a commit that crashes inside
            // the ambiguous window still enters the model, or after the
            // volatile apply otherwise.
            let history = self.inner.history.lock().clone();
            let mut pending_commit_event = history.as_ref().map(|_| {
                let name_of: HashMap<u32, String> = self
                    .inner
                    .tables
                    .read()
                    .iter()
                    .map(|(name, (id, _))| (*id, name.to_string()))
                    .collect();
                let table_name =
                    |tid: &u32| name_of.get(tid).cloned().unwrap_or_else(|| tid.to_string());
                HistoryEvent::Commit {
                    txn: txn.id.0,
                    commit_ts,
                    writes: by_table
                        .iter()
                        .flat_map(|(tid, muts)| {
                            let t = table_name(tid);
                            muts.iter().map(move |m| {
                                (
                                    t.clone(),
                                    m.key.as_slice().to_vec(),
                                    m.value.as_ref().map(|v| v.to_vec()),
                                )
                            })
                        })
                        .collect(),
                    reads: txn
                        .observed_reads
                        .iter()
                        .map(|(tid, key, observed)| {
                            (table_name(tid), key.as_slice().to_vec(), *observed)
                        })
                        .collect(),
                }
            });

            // Phase 3a: 2PC prepare — append one redo record per participant
            // tablet, fsync, then log the coordinator outcome (the
            // durability point). Only then are mutations applied.
            let disk = self.inner.disk.lock().clone();
            if let Some(disk) = &disk {
                if self.crash_if_armed("commit-before-log") {
                    return Err(SpannerError::UnknownOutcome);
                }
                // Group each table's mutations by participant tablet.
                let mut by_participant = ParticipantMutations::new();
                for (tid, muts) in &by_table {
                    let data = &id_to_data[tid];
                    let tablets = data.tablets.lock();
                    for m in muts {
                        by_participant
                            .entry((*tid, tablets.tablet_index(&m.key)))
                            .or_default()
                            .push((m.key.clone(), m.value.clone()));
                    }
                }
                let multi = by_participant.len() > 1;
                for (i, ((tid, tablet_idx), mutations)) in by_participant.into_iter().enumerate()
                {
                    let record = RedoRecord::Prepared {
                        txn_id: txn.id.0,
                        commit_ts,
                        table: tid,
                        mutations,
                    };
                    let log = tablet_log(tid, tablet_idx);
                    let encoded = record.encode();
                    {
                        let append_span =
                            obs.map(|o| o.tracer.span("spanner.redo.append"));
                        disk.append(&log, &encoded);
                        let c = prof::costs::redo_append(encoded.len());
                        self.inner.truetime.clock().advance(c);
                        cpu_charged += c;
                        if let Some(s) = &append_span {
                            s.attr("bytes", encoded.len());
                        }
                    }
                    // A crash between the append and its fsync dies mid
                    // log write: the record is in flight, not durable, and
                    // may reach the disk torn.
                    if self.crash_if_armed("commit-prepare-unsynced") {
                        return Err(SpannerError::UnknownOutcome);
                    }
                    let fsync_span = obs.map(|o| o.tracer.span("spanner.redo.fsync"));
                    let c = self.charge_fsync();
                    cpu_charged += c;
                    if disk.fsync(&log).is_err() {
                        drop(fsync_span);
                        // The prepare is not durable; discard the dead
                        // record (a later commit's fsync of this log must
                        // not flush it) and abort cleanly. Earlier
                        // participants' prepares may be durable but have no
                        // outcome, so recovery discards them.
                        disk.discard_unsynced(&log);
                        if let Some(i) = &instruments {
                            i.redo_fsync_failures.incr(1);
                        }
                        self.abort(&mut txn);
                        return Err(SpannerError::Unavailable("redo-log fsync failed"));
                    }
                    drop(fsync_span);
                    if let Some(i) = &instruments {
                        i.redo_prepares.incr(1);
                        i.redo_fsyncs.incr(1);
                    }
                    if let Some(s) = &span {
                        s.event_args(
                            "prepare-durable",
                            &[("table", tid.into()), ("tablet", tablet_idx as u64)],
                        );
                    }
                    // A crash after the first of several prepares leaves a
                    // prepared-but-undecided participant for recovery to
                    // resolve.
                    if multi && i == 0 && self.crash_if_armed("commit-partial-prepare") {
                        return Err(SpannerError::UnknownOutcome);
                    }
                }
                if self.crash_if_armed("commit-after-prepare") {
                    return Err(SpannerError::UnknownOutcome);
                }
                // The coordinator outcome record: the transaction is
                // committed iff this record is durable.
                let outcome = RedoRecord::Outcome {
                    txn_id: txn.id.0,
                    commit_ts,
                };
                let encoded = outcome.encode();
                {
                    let append_span = obs.map(|o| o.tracer.span("spanner.redo.append"));
                    disk.append(OUTCOMES_LOG, &encoded);
                    let c = prof::costs::redo_append(encoded.len());
                    self.inner.truetime.clock().advance(c);
                    cpu_charged += c;
                    if let Some(s) = &append_span {
                        s.attr("bytes", encoded.len());
                    }
                }
                // A crash here dies mid write of the outcome record: not
                // durable, possibly torn — recovery resolves to abort.
                if self.crash_if_armed("commit-outcome-unsynced") {
                    return Err(SpannerError::UnknownOutcome);
                }
                let fsync_span = obs.map(|o| o.tracer.span("spanner.redo.fsync"));
                let c = self.charge_fsync();
                cpu_charged += c;
                if disk.fsync(OUTCOMES_LOG).is_err() {
                    drop(fsync_span);
                    // The outcome is not durable, so the transaction aborts
                    // — but the appended record still sits in the shared
                    // log's unsynced tail, and the next successful commit's
                    // fsync would flush it, silently resurrecting this
                    // aborted transaction after a crash (its prepares are
                    // already durable). Discard the tail before aborting.
                    disk.discard_unsynced(OUTCOMES_LOG);
                    if let Some(i) = &instruments {
                        i.redo_fsync_failures.incr(1);
                    }
                    self.abort(&mut txn);
                    return Err(SpannerError::Unavailable("redo-log fsync failed"));
                }
                drop(fsync_span);
                if let Some(i) = &instruments {
                    i.redo_outcomes.incr(1);
                    i.redo_fsyncs.incr(1);
                }
                if let Some(s) = &span {
                    s.event("outcome-durable");
                }
                // Durability point reached: the transaction is committed
                // whatever happens next, so the oracle's model must know it.
                if let (Some(h), Some(ev)) = (&history, pending_commit_event.take()) {
                    h.record(ev);
                }
                // The ambiguous window: the commit is durable but the client
                // never hears the ack.
                if self.crash_if_armed("commit-after-outcome") {
                    return Err(SpannerError::UnknownOutcome);
                }
            }

            // Phase 3b: apply to the volatile MVCC stores.
            for (tid, muts) in by_table {
                let Some(data) = id_to_data.get(&tid) else {
                    continue; // unreachable: pre-flight validated every id
                };
                let mut tablets = data.tablets.lock();
                let mut store = data.store.write();
                let mut idxs: Vec<usize> = Vec::with_capacity(muts.len());
                for m in muts {
                    let bytes = m.key.len() + m.value.as_ref().map_or(0, |v| v.len());
                    idxs.push(tablets.record_write(&m.key, bytes, now));
                    store.apply(m.key.clone(), commit_ts, m.value.clone());
                }
                idxs.sort_unstable();
                idxs.dedup();
                participants += idxs.len();
            }
            drop(unapplied);
            // No durable medium: the volatile apply is the commit point.
            if let (Some(h), Some(ev)) = (&history, pending_commit_event.take()) {
                h.record(ev);
            }
        }
        participants = participants.max(1);
        // Crash after apply but before the ack: durable and applied, yet the
        // client still observes an unknown outcome.
        if self.crash_if_armed("commit-after-apply") {
            return Err(SpannerError::UnknownOutcome);
        }

        // Phase 4: commit wait (external consistency), then release locks.
        // A TrueTime uncertainty spike widens ε, stretching the wait.
        let wait_span = obs.map(|o| o.tracer.span("spanner.commit_wait"));
        let wait_start = self.inner.truetime.clock().now();
        if self.inject(FaultKind::TtUncertaintySpike, "commit-wait") {
            let spike = self
                .fault_injector()
                .map(|inj| inj.tt_spike())
                .unwrap_or_default();
            self.inner.truetime.clock().advance(spike);
        }
        self.inner.truetime.commit_wait(commit_ts);
        let commit_wait = self.inner.truetime.clock().now().saturating_sub(wait_start);
        drop(wait_span);
        txn.closed = true;
        {
            let release_span = obs.map(|o| o.tracer.span("spanner.lock.release"));
            self.inner.locks.release_all(txn.id);
            let c = prof::costs::LOCK_RELEASE * txn.mutations.len().max(1) as u64;
            self.inner.truetime.clock().advance(c);
            cpu_charged += c;
            if let Some(s) = &release_span {
                s.attr("cells", txn.mutations.len());
            }
        }
        self.inner.commits.fetch_add(1, Ordering::Relaxed);
        if let Some(i) = &instruments {
            i.commits.incr(1);
            i.lock_wait_ms.observe_duration(lock_wait);
            i.commit_wait_ms.observe_duration(commit_wait);
        }
        if let Some(s) = &span {
            s.attr("participants", participants);
            s.attr("payload_bytes", payload);
            s.attr("commit_wait_ns", commit_wait.as_nanos());
        }

        Ok(CommitInfo {
            commit_ts,
            participants,
            payload_bytes: payload,
            mutation_count,
            lock_wait,
            commit_wait,
            cpu_charged,
        })
    }

    /// A timestamp at which a strong (lock-free) read sees every commit that
    /// completed before now. Returns only once every commit assigned a
    /// timestamp at or below it has been applied (or has failed), so a read
    /// at it never sees part of a commit.
    pub fn strong_read_ts(&self) -> Timestamp {
        // Under the registry lock: a commit assigned concurrently is either
        // registered already or gets a timestamp above `ts`.
        let unapplied = self.inner.unapplied.lock();
        let ts = self.inner.truetime.strong_read_timestamp();
        let _safe = self
            .inner
            .applied
            .wait_while(unapplied, |set| {
                set.first().is_some_and(|&first| first <= ts)
            })
            .unwrap_or_else(PoisonError::into_inner);
        ts
    }

    /// Lock-free read of `key` at `ts`, returning the value and the commit
    /// timestamp of the version read.
    pub fn snapshot_read_versioned(
        &self,
        table: TableName,
        key: &Key,
        ts: Timestamp,
    ) -> SpannerResult<Option<(Bytes, Timestamp)>> {
        let mut rows = self.snapshot_read_many_versioned(table, std::slice::from_ref(key), ts)?;
        Ok(rows.pop().flatten())
    }

    /// Lock-free batched read of many keys at `ts`, returning value and
    /// commit timestamp per key (in input order; `None` for absent rows).
    /// One storage lock acquisition and one consultation of the chaos layer
    /// (`snapshot-read` site) serve the whole page — the query executor's
    /// per-result-page document fetch (§IV-D3).
    pub fn snapshot_read_many_versioned(
        &self,
        table: TableName,
        keys: &[Key],
        ts: Timestamp,
    ) -> SpannerResult<Vec<Option<(Bytes, Timestamp)>>> {
        if self.inject(FaultKind::TabletUnavailable, "snapshot-read") {
            return Err(SpannerError::Unavailable(
                "snapshot-read: tablet unreachable",
            ));
        }
        let (_, data) = self.table(table)?;
        let at = self.serve_ts(ts);
        let rows = {
            let store = data.store.read();
            keys.iter()
                .map(|k| store.read(k, at))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| SpannerError::SnapshotTooOld)?
        };
        let values = rows.iter().map(|row| row.as_ref().map(|(b, _)| b));
        self.record_snapshot_reads(table, ts, keys.iter().zip(values));
        Ok(rows)
    }

    /// Lock-free ordered scan of up to `limit` rows of `range` at `ts`,
    /// returning each row's value and the commit timestamp of the version
    /// read. Reverse scans stream through a [`crate::RangeCursor`] over a
    /// [`crate::SnapshotBackend`].
    pub fn snapshot_scan(
        &self,
        table: TableName,
        range: &KeyRange,
        ts: Timestamp,
        limit: usize,
    ) -> SpannerResult<Vec<(Key, Bytes, Timestamp)>> {
        self.snapshot_scan_directed(table, range, ts, limit, false)
    }

    /// The one snapshot scan, in key order or (`reverse`) from the top of
    /// the range down: one consultation of the chaos layer at the
    /// `snapshot-scan` site, then a single MVCC range scan.
    pub(crate) fn snapshot_scan_directed(
        &self,
        table: TableName,
        range: &KeyRange,
        ts: Timestamp,
        limit: usize,
        reverse: bool,
    ) -> SpannerResult<Vec<(Key, Bytes, Timestamp)>> {
        if self.inject(FaultKind::TabletUnavailable, "snapshot-scan") {
            return Err(SpannerError::Unavailable(
                "snapshot-scan: tablet unreachable",
            ));
        }
        let (_, data) = self.table(table)?;
        let rows = data
            .store
            .read()
            .scan(range, self.serve_ts(ts), limit, reverse)
            .map_err(|_| SpannerError::SnapshotTooOld)?;
        self.record_snapshot_reads(table, ts, rows.iter().map(|(k, v, _)| (k, Some(v))));
        Ok(rows)
    }

    /// Run maintenance: split overloaded tablets at their median keys and
    /// garbage-collect versions older than `gc_before`.
    pub fn maintain(&self, gc_before: Timestamp) {
        let now = self.inner.truetime.clock().now();
        let obs = self.obs();
        let tables: Vec<Arc<TableData>> = self
            .inner
            .tables
            .read()
            .values()
            .map(|(_, d)| d.clone())
            .collect();
        let (mut splits, mut merges) = (0u64, 0u64);
        for data in tables {
            let mut tablets = data.tablets.lock();
            for idx in tablets.overloaded() {
                let median = {
                    let store = data.store.read();
                    store.median_key_in(&tablets.tablets()[idx].range)
                };
                if let Some(m) = median {
                    if tablets.split_at(idx, m, now) {
                        splits += 1;
                    }
                }
            }
            // Merge tablets that have gone cold (splits reverse under
            // sustained low load, §IV-D1).
            merges += tablets.merge_cold(now) as u64;
            data.store.write().gc(gc_before);
        }
        if let Some(o) = &obs {
            if splits > 0 {
                o.metrics.incr("spanner.tablet.splits", &[], splits);
            }
            if merges > 0 {
                o.metrics.incr("spanner.tablet.merges", &[], merges);
            }
            if splits > 0 || merges > 0 {
                let s = o.tracer.span("spanner.maintain");
                s.attr("splits", splits);
                s.attr("merges", merges);
            }
        }
    }

    /// Pre-split a table at explicit boundaries (for experiments that need
    /// multi-tablet commits from the start, §V-B2).
    pub fn pre_split(&self, table: TableName, boundaries: Vec<Key>) -> SpannerResult<()> {
        let (_, data) = self.table(table)?;
        let now = self.inner.truetime.clock().now();
        data.tablets.lock().pre_split(boundaries, now);
        Ok(())
    }

    /// Number of tablets currently backing `table`.
    pub fn tablet_count(&self, table: TableName) -> SpannerResult<usize> {
        let (_, data) = self.table(table)?;
        let n = data.tablets.lock().len();
        Ok(n)
    }

    /// How many distinct tablets the given keys of `table` span — the
    /// participant count a commit over those keys would pay.
    pub fn participants_for(&self, table: TableName, keys: &[Key]) -> SpannerResult<usize> {
        let (_, data) = self.table(table)?;
        let n = data.tablets.lock().participants(keys.iter());
        Ok(n)
    }

    /// Live key count of a table.
    pub fn live_keys(&self, table: TableName) -> SpannerResult<usize> {
        let (_, data) = self.table(table)?;
        let n = data.store.read().live_keys();
        Ok(n)
    }

    /// Approximate live bytes of a table.
    pub fn live_bytes(&self, table: TableName) -> SpannerResult<usize> {
        let (_, data) = self.table(table)?;
        let n = data.store.read().live_bytes();
        Ok(n)
    }

    /// Total committed transactions.
    pub fn commit_count(&self) -> u64 {
        self.inner.commits.load(Ordering::Relaxed)
    }

    /// Total aborted transactions.
    pub fn abort_count(&self) -> u64 {
        self.inner.aborts.load(Ordering::Relaxed)
    }

    /// Inject a failure for the next commit (testing hook; also used by the
    /// failure-injection integration tests).
    pub fn inject_commit_failure(&self, err: SpannerError) {
        self.inner.failures.fail_commits.lock().push(err);
    }
}

impl std::fmt::Debug for SpannerDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SpannerDatabase(tables={}, commits={})",
            self.inner.tables.read().len(),
            self.commit_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Duration;

    const T: TableName = "Entities";

    fn db() -> SpannerDatabase {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let db = SpannerDatabase::new(clock);
        db.create_table(T);
        db
    }

    fn bytes(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// The value of `key` at `ts`, without its version timestamp.
    fn read(
        db: &SpannerDatabase,
        table: TableName,
        key: &Key,
        ts: Timestamp,
    ) -> SpannerResult<Option<Bytes>> {
        Ok(db.snapshot_read_versioned(table, key, ts)?.map(|(v, _)| v))
    }

    /// The value of `key` inside `txn` (shared lock), without its version.
    fn txn_value(
        db: &SpannerDatabase,
        txn: &mut ReadWriteTransaction,
        key: &str,
    ) -> SpannerResult<Option<Bytes>> {
        Ok(db
            .txn_read_versioned(txn, T, &Key::from(key))?
            .map(|(v, _)| v))
    }

    #[test]
    fn basic_commit_and_snapshot_read() {
        let db = db();
        let mut txn = db.begin();
        db.txn_put(&mut txn, T, Key::from("k"), bytes("v")).unwrap();
        let info = db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap();
        assert_eq!(info.participants, 1);
        assert_eq!(info.mutation_count, 1);
        let ts = db.strong_read_ts();
        assert!(ts >= info.commit_ts);
        assert_eq!(read(&db, T, &Key::from("k"), ts).unwrap(), Some(bytes("v")));
    }

    #[test]
    fn read_your_writes_within_txn() {
        let db = db();
        let mut txn = db.begin();
        db.txn_put(&mut txn, T, Key::from("k"), bytes("v")).unwrap();
        assert_eq!(txn_value(&db, &mut txn, "k").unwrap(), Some(bytes("v")));
        db.txn_delete(&mut txn, T, Key::from("k")).unwrap();
        assert_eq!(txn_value(&db, &mut txn, "k").unwrap(), None);
        db.abort(&mut txn);
    }

    #[test]
    fn write_write_conflict_fails_fast() {
        let db = db();
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        db.txn_read_for_update_versioned(&mut t1, T, &Key::from("k"))
            .unwrap();
        let err = db
            .txn_read_for_update_versioned(&mut t2, T, &Key::from("k"))
            .unwrap_err();
        assert!(matches!(err, SpannerError::LockConflict { .. }));
        // t2 was auto-aborted; t1 can still commit.
        db.txn_put(&mut t1, T, Key::from("k"), bytes("v")).unwrap();
        db.commit(t1, Timestamp::ZERO, Timestamp::MAX).unwrap();
        assert_eq!(db.abort_count(), 1);
        assert_eq!(db.commit_count(), 1);
    }

    #[test]
    fn readers_do_not_block_snapshot_reads() {
        let db = db();
        let mut t1 = db.begin();
        db.txn_put(&mut t1, T, Key::from("k"), bytes("v1")).unwrap();
        db.commit(t1, Timestamp::ZERO, Timestamp::MAX).unwrap();
        let ts = db.strong_read_ts();

        // A transaction holds an exclusive lock...
        let mut t2 = db.begin();
        db.txn_read_for_update_versioned(&mut t2, T, &Key::from("k"))
            .unwrap();
        // ...but timestamp reads sail through without blocking.
        assert_eq!(
            read(&db, T, &Key::from("k"), ts).unwrap(),
            Some(bytes("v1"))
        );
        db.abort(&mut t2);
    }

    #[test]
    fn snapshot_scan_is_consistent_at_timestamp() {
        let db = db();
        for (k, v) in [("a", "1"), ("b", "2")] {
            let mut t = db.begin();
            db.txn_put(&mut t, T, Key::from(k), bytes(v)).unwrap();
            db.commit(t, Timestamp::ZERO, Timestamp::MAX).unwrap();
        }
        let ts = db.strong_read_ts();
        let mut t = db.begin();
        db.txn_put(&mut t, T, Key::from("c"), bytes("3")).unwrap();
        db.commit(t, Timestamp::ZERO, Timestamp::MAX).unwrap();
        let rows = db.snapshot_scan(T, &KeyRange::all(), ts, 100).unwrap();
        assert_eq!(
            rows.len(),
            2,
            "the later commit is invisible at the snapshot"
        );
    }

    #[test]
    fn strong_read_waits_for_commits_assigned_below_it() {
        let db = db();
        db.create_table("Other");
        // Commit A takes its timestamp, then stalls before applying: the
        // test holds table T's tablet map, which the apply step locks.
        let (_, data) = db.table(T).unwrap();
        let stall = data.tablets.lock();
        let a = {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut txn = db.begin();
                db.txn_put(&mut txn, T, Key::from("a"), bytes("A")).unwrap();
                db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap()
            })
        };
        while db.inner.unapplied.lock().is_empty() {
            std::thread::yield_now();
        }
        // Commit B, on another table, gets a later timestamp and completes.
        let mut txn = db.begin();
        db.txn_put(&mut txn, "Other", Key::from("b"), bytes("B"))
            .unwrap();
        let b = db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap();

        // A strong read may neither miss the acknowledged B nor see B
        // without A: it waits until A has applied.
        let reader = {
            let db = db.clone();
            std::thread::spawn(move || db.strong_read_ts())
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !reader.is_finished(),
            "strong read returned while a commit below it was unapplied"
        );
        drop(stall);
        let ts = reader.join().unwrap();
        let a = a.join().unwrap();
        assert!(a.commit_ts < b.commit_ts && b.commit_ts <= ts);
        assert_eq!(
            read(&db, "Other", &Key::from("b"), ts).unwrap(),
            Some(bytes("B"))
        );
        assert_eq!(read(&db, T, &Key::from("a"), ts).unwrap(), Some(bytes("A")));
    }

    #[test]
    fn commit_window_expired() {
        let db = db();
        let mut txn = db.begin();
        db.txn_put(&mut txn, T, Key::from("k"), bytes("v")).unwrap();
        // A max timestamp in the past cannot be honored.
        let err = db
            .commit(txn, Timestamp::ZERO, Timestamp::from_nanos(1))
            .unwrap_err();
        assert_eq!(err, SpannerError::CommitWindowExpired);
    }

    #[test]
    fn commit_respects_min_timestamp() {
        let db = db();
        let mut txn = db.begin();
        db.txn_put(&mut txn, T, Key::from("k"), bytes("v")).unwrap();
        let min = db.truetime().clock().now() + Duration::from_secs(5);
        let info = db.commit(txn, min, Timestamp::MAX).unwrap();
        assert!(info.commit_ts >= min);
    }

    #[test]
    fn injected_failure_aborts() {
        let db = db();
        db.inject_commit_failure(SpannerError::UnknownOutcome);
        let mut txn = db.begin();
        db.txn_put(&mut txn, T, Key::from("k"), bytes("v")).unwrap();
        assert_eq!(
            db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap_err(),
            SpannerError::UnknownOutcome
        );
        // The write is not visible.
        assert_eq!(
            read(&db, T, &Key::from("k"), db.strong_read_ts()).unwrap(),
            None
        );
    }

    #[test]
    fn multi_table_commit_is_atomic() {
        let db = db();
        db.create_table("IndexEntries");
        let mut txn = db.begin();
        db.txn_put(&mut txn, T, Key::from("doc"), bytes("d"))
            .unwrap();
        db.txn_put(&mut txn, "IndexEntries", Key::from("idx"), bytes(""))
            .unwrap();
        let info = db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap();
        let ts = db.strong_read_ts();
        assert_eq!(
            read(&db, T, &Key::from("doc"), ts).unwrap(),
            Some(bytes("d"))
        );
        assert_eq!(
            read(&db, "IndexEntries", &Key::from("idx"), ts).unwrap(),
            Some(bytes(""))
        );
        // Both rows currently live in single tablets of separate tables.
        assert_eq!(info.participants, 2);
    }

    #[test]
    fn pre_split_raises_participant_count() {
        let db = db();
        db.pre_split(T, vec![Key::from("m")]).unwrap();
        assert_eq!(db.tablet_count(T).unwrap(), 2);
        let keys = vec![Key::from("a"), Key::from("z")];
        assert_eq!(db.participants_for(T, &keys).unwrap(), 2);
        let mut txn = db.begin();
        db.txn_put(&mut txn, T, Key::from("a"), bytes("1")).unwrap();
        db.txn_put(&mut txn, T, Key::from("z"), bytes("2")).unwrap();
        let info = db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap();
        assert_eq!(info.participants, 2);
    }

    #[test]
    fn maintenance_splits_hot_tablet() {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let db = SpannerDatabase::with_options(
            clock,
            SpannerOptions {
                split_policy: SplitPolicy {
                    split_write_threshold: 50,
                    ..SplitPolicy::default()
                },
            },
        );
        db.create_table(T);
        for i in 0..100 {
            let mut t = db.begin();
            db.txn_put(
                &mut t,
                T,
                Key::from(format!("key{i:04}").as_str()),
                bytes("v"),
            )
            .unwrap();
            db.commit(t, Timestamp::ZERO, Timestamp::MAX).unwrap();
        }
        assert_eq!(db.tablet_count(T).unwrap(), 1);
        db.maintain(Timestamp::ZERO);
        assert!(db.tablet_count(T).unwrap() >= 2, "hot tablet should split");
    }

    #[test]
    fn commit_after_close_fails() {
        let db = db();
        let mut txn = db.begin();
        db.txn_put(&mut txn, T, Key::from("k"), bytes("v")).unwrap();
        db.abort(&mut txn);
        let id = txn.id();
        assert_eq!(
            db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap_err(),
            SpannerError::TxnClosed(id)
        );
    }

    #[test]
    fn directories_are_disjoint_prefixes() {
        let db = db();
        let d1 = db.allocate_directory();
        let d2 = db.allocate_directory();
        assert_ne!(d1, d2);
        let k1 = d1.key(b"doc");
        assert!(d1.range().contains(&k1));
        assert!(!d2.range().contains(&k1));
        assert!(!d1.range().intersects(&d2.range()));
    }

    #[test]
    fn last_write_wins_within_one_txn() {
        let db = db();
        let mut txn = db.begin();
        db.txn_put(&mut txn, T, Key::from("k"), bytes("v1"))
            .unwrap();
        db.txn_put(&mut txn, T, Key::from("k"), bytes("v2"))
            .unwrap();
        db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap();
        assert_eq!(
            read(&db, T, &Key::from("k"), db.strong_read_ts()).unwrap(),
            Some(bytes("v2"))
        );
    }

    #[test]
    fn txn_scan_locks_scanned_rows() {
        let db = db();
        let mut t0 = db.begin();
        db.txn_put(&mut t0, T, Key::from("a"), bytes("1")).unwrap();
        db.commit(t0, Timestamp::ZERO, Timestamp::MAX).unwrap();

        let mut reader = db.begin();
        let rows = db
            .txn_scan(&mut reader, T, &KeyRange::all(), 100, false)
            .unwrap();
        assert_eq!(rows.len(), 1);
        // A writer now conflicts on the scanned row.
        let mut writer = db.begin();
        assert!(db
            .txn_read_for_update_versioned(&mut writer, T, &Key::from("a"))
            .is_err());
        db.abort(&mut reader);
    }

    #[test]
    fn acked_commits_survive_crash_and_recover() {
        let db = db();
        let disk = SimDisk::new();
        db.attach_durability(disk.clone());
        for (k, v) in [("a", "1"), ("b", "2")] {
            let mut t = db.begin();
            db.txn_put(&mut t, T, Key::from(k), bytes(v)).unwrap();
            db.commit(t, Timestamp::ZERO, Timestamp::MAX).unwrap();
        }
        db.crash();
        assert!(db.crashed());
        assert!(matches!(
            read(&db, T, &Key::from("a"), Timestamp::MAX),
            Err(SpannerError::Unavailable(_))
        ));
        let report = db.recover();
        assert_eq!(report.replayed_txns, 2);
        assert_eq!(report.replayed_mutations, 2);
        let ts = db.strong_read_ts();
        assert_eq!(read(&db, T, &Key::from("a"), ts).unwrap(), Some(bytes("1")));
        assert_eq!(read(&db, T, &Key::from("b"), ts).unwrap(), Some(bytes("2")));
    }

    #[test]
    fn crash_without_disk_loses_everything() {
        let db = db();
        let mut t = db.begin();
        db.txn_put(&mut t, T, Key::from("k"), bytes("v")).unwrap();
        db.commit(t, Timestamp::ZERO, Timestamp::MAX).unwrap();
        db.crash();
        let report = db.recover();
        assert_eq!(report.replayed_txns, 0);
        assert_eq!(
            read(&db, T, &Key::from("k"), db.strong_read_ts()).unwrap(),
            None
        );
    }

    #[test]
    fn armed_crash_after_outcome_is_durable_but_unacked() {
        let db = db();
        let disk = SimDisk::new();
        db.attach_durability(disk.clone());
        let cp = CrashPoints::new();
        db.set_crash_points(Some(cp.clone()));
        cp.arm("commit-after-outcome", 0);
        let mut t = db.begin();
        db.txn_put(&mut t, T, Key::from("k"), bytes("v")).unwrap();
        assert_eq!(
            db.commit(t, Timestamp::ZERO, Timestamp::MAX).unwrap_err(),
            SpannerError::UnknownOutcome
        );
        assert_eq!(cp.fired(), Some("commit-after-outcome"));
        let report = db.recover();
        assert_eq!(report.replayed_txns, 1, "outcome was durable: replay wins");
        assert_eq!(
            read(&db, T, &Key::from("k"), db.strong_read_ts()).unwrap(),
            Some(bytes("v"))
        );
    }

    #[test]
    fn armed_crash_after_prepare_discards_undecided_txn() {
        let db = db();
        let disk = SimDisk::new();
        db.attach_durability(disk.clone());
        let cp = CrashPoints::new();
        db.set_crash_points(Some(cp.clone()));
        cp.arm("commit-after-prepare", 0);
        let mut t = db.begin();
        db.txn_put(&mut t, T, Key::from("k"), bytes("v")).unwrap();
        assert_eq!(
            db.commit(t, Timestamp::ZERO, Timestamp::MAX).unwrap_err(),
            SpannerError::UnknownOutcome
        );
        let report = db.recover();
        assert_eq!(report.replayed_txns, 0);
        assert_eq!(report.discarded_prepares, 1, "no outcome: prepare dropped");
        assert_eq!(
            read(&db, T, &Key::from("k"), db.strong_read_ts()).unwrap(),
            None
        );
    }

    #[test]
    fn multi_tablet_crash_between_prepares_stays_atomic() {
        let db = db();
        let disk = SimDisk::new();
        db.attach_durability(disk.clone());
        db.pre_split(T, vec![Key::from("m")]).unwrap();
        let cp = CrashPoints::new();
        db.set_crash_points(Some(cp.clone()));
        cp.arm("commit-partial-prepare", 0);
        let mut t = db.begin();
        db.txn_put(&mut t, T, Key::from("a"), bytes("1")).unwrap();
        db.txn_put(&mut t, T, Key::from("z"), bytes("2")).unwrap();
        assert_eq!(
            db.commit(t, Timestamp::ZERO, Timestamp::MAX).unwrap_err(),
            SpannerError::UnknownOutcome
        );
        let report = db.recover();
        assert_eq!(report.replayed_txns, 0, "undecided 2PC resolves to abort");
        let ts = db.strong_read_ts();
        assert_eq!(read(&db, T, &Key::from("a"), ts).unwrap(), None);
        assert_eq!(read(&db, T, &Key::from("z"), ts).unwrap(), None);
    }

    #[test]
    fn stale_txn_is_fenced_after_recovery() {
        let db = db();
        db.attach_durability(SimDisk::new());
        let mut t = db.begin();
        db.txn_put(&mut t, T, Key::from("k"), bytes("v")).unwrap();
        db.crash();
        db.recover();
        assert_eq!(
            db.commit(t, Timestamp::ZERO, Timestamp::MAX).unwrap_err(),
            SpannerError::TxnClosed(TxnId(1))
        );
        // Fresh transactions proceed normally.
        let mut t2 = db.begin();
        db.txn_put(&mut t2, T, Key::from("k"), bytes("v2")).unwrap();
        db.commit(t2, Timestamp::ZERO, Timestamp::MAX).unwrap();
    }

    #[test]
    fn fsync_failure_aborts_commit_cleanly() {
        use simkit::fault::{FaultPlan, FaultRule};

        let db = db();
        let disk = SimDisk::new();
        let plan = FaultPlan::new(3).rule(FaultRule::probabilistic(FaultKind::FsyncFail, 1.0));
        disk.set_fault_injector(Some(FaultInjector::new(
            db.truetime().clock().clone(),
            plan,
        )));
        db.attach_durability(disk.clone());
        let mut t = db.begin();
        db.txn_put(&mut t, T, Key::from("k"), bytes("v")).unwrap();
        assert_eq!(
            db.commit(t, Timestamp::ZERO, Timestamp::MAX).unwrap_err(),
            SpannerError::Unavailable("redo-log fsync failed")
        );
        // Nothing applied, no lock left behind, and a retry with a fresh
        // injector-free disk state succeeds.
        assert_eq!(
            read(&db, T, &Key::from("k"), db.strong_read_ts()).unwrap(),
            None
        );
        disk.set_fault_injector(None);
        let mut t = db.begin();
        db.txn_put(&mut t, T, Key::from("k"), bytes("v")).unwrap();
        db.commit(t, Timestamp::ZERO, Timestamp::MAX).unwrap();
    }

    #[test]
    fn failed_outcome_fsync_cannot_resurrect_aborted_txn() {
        use simkit::fault::{FaultPlan, FaultRule};
        use simkit::SimRng;

        let db = db();
        let disk = SimDisk::new();
        // A single-participant commit consults FsyncFail twice: the prepare
        // fsync, then the outcome fsync. Find a seed whose first draw lets
        // the prepare through and whose second fails the outcome, so the
        // prepare is durable but the outcome append is left unsynced.
        let p = 0.5;
        let seed = (0u64..)
            .find(|&s| {
                let mut r = SimRng::new(s);
                r.next_f64() >= p && r.next_f64() < p
            })
            .unwrap();
        let plan = FaultPlan::new(seed).rule(FaultRule::probabilistic(FaultKind::FsyncFail, p));
        disk.set_fault_injector(Some(FaultInjector::new(
            db.truetime().clock().clone(),
            plan,
        )));
        db.attach_durability(disk.clone());

        let mut t = db.begin();
        db.txn_put(&mut t, T, Key::from("poison"), bytes("v1")).unwrap();
        assert_eq!(
            db.commit(t, Timestamp::ZERO, Timestamp::MAX).unwrap_err(),
            SpannerError::Unavailable("redo-log fsync failed")
        );

        // A later commit fsyncs the shared outcomes log successfully. It
        // must not flush the aborted transaction's stale outcome record.
        disk.set_fault_injector(None);
        let mut t = db.begin();
        db.txn_put(&mut t, T, Key::from("other"), bytes("v2")).unwrap();
        db.commit(t, Timestamp::ZERO, Timestamp::MAX).unwrap();

        db.crash();
        db.recover();
        let ts = db.strong_read_ts();
        assert_eq!(
            read(&db, T, &Key::from("poison"), ts).unwrap(),
            None,
            "aborted txn must not become durable via a later commit's fsync"
        );
        assert_eq!(
            read(&db, T, &Key::from("other"), ts).unwrap(),
            Some(bytes("v2"))
        );
    }

    #[test]
    fn chaos_injector_fails_commits_and_locks() {
        use simkit::fault::{FaultPlan, FaultRule};

        let db = db();
        let clock = db.truetime().clock().clone();
        let plan = FaultPlan::new(5)
            .rule(FaultRule::probabilistic(FaultKind::TabletUnavailable, 1.0))
            .rule(FaultRule::probabilistic(FaultKind::LockTimeout, 1.0));
        db.set_fault_injector(Some(FaultInjector::new(clock, plan)));

        let mut txn = db.begin();
        assert_eq!(
            txn_value(&db, &mut txn, "k").unwrap_err(),
            SpannerError::Unavailable("txn-read: tablet unreachable")
        );
        let mut txn = db.begin();
        db.txn_put(&mut txn, T, Key::from("k"), bytes("v")).unwrap();
        assert_eq!(
            db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap_err(),
            SpannerError::Unavailable("commit: tablet unreachable")
        );
        assert!(read(&db, T, &Key::from("k"), db.strong_read_ts()).is_err());

        // Clearing the injector restores normal behaviour.
        db.set_fault_injector(None);
        let mut txn = db.begin();
        db.txn_put(&mut txn, T, Key::from("k"), bytes("v")).unwrap();
        db.commit(txn, Timestamp::ZERO, Timestamp::MAX).unwrap();
    }
}
