//! What the four scenarios share: the service under test and its pacing,
//! the measured-phase driver, the shadow model, and the process probes.

use crate::catalog::Metrics;
use crate::spans::Spans;
use crate::stats::{median, Recorder};
use firestore_core::{
    Document, DocumentName, FirestoreDatabase, FirestoreError, Value, Write, WriteOp,
};
use server::{FirestoreService, ServiceOptions};
use simkit::{Duration, SimClock, SimDisk, SimRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// The one customer database every scenario runs on.
pub const DB: &str = "app";

/// Simulated time every warm-up spans. `FirestoreService::tick` hard-wires a
/// one-hour MVCC GC horizon, so version chains only stop growing once the
/// warm-up has outlived it.
const WARMUP_SIM: Duration = Duration::from_secs(4_000);

/// `svc.tick()` calls per full-scale warm-up (and the cadence kept while
/// measuring).
const WARMUP_TICKS: u64 = 12;

/// The fewest warm-up operations at any scale. Fewer would stretch the pace
/// past the Real-time Cache's 30 s stall deadline: a connection that last
/// polled longer ago than that is shed the moment an event reaches it.
const MIN_WARMUP_OPS: u64 = 200;

/// Retries of a retriable engine error inside one operation.
const MAX_RETRIES: u32 = 8;

/// How far a scenario is shrunk: `FULL` for the workload being measured,
/// `SIDE` for the other three scenarios run beside it, `CHECK` for
/// `--check`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// Divides document, listener and ring counts.
    pub size_div: u64,
    /// Divides the warm-up operation count (the pace grows to match, so the
    /// warm-up still spans [`WARMUP_SIM`]).
    pub warm_div: u64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        size_div: 1,
        warm_div: 1,
    };
    pub const SIDE: Scale = Scale {
        size_div: 10,
        warm_div: 4,
    };
    pub const CHECK: Scale = Scale {
        size_div: 50,
        warm_div: 20,
    };

    pub fn size(&self, full: u64) -> u64 {
        (full / self.size_div).max(1)
    }

    pub fn warmup(&self, full: u64) -> u64 {
        (full / self.warm_div).max(MIN_WARMUP_OPS)
    }
}

/// One region with one database, durability attached, on a paced clock.
pub struct Env {
    pub svc: FirestoreService,
    pub db: FirestoreDatabase,
    pub clock: SimClock,
    pub disk: SimDisk,
    /// Feeds the service's latency model (modeled time only).
    pub lat: SimRng,
    /// Simulated time one operation takes.
    pub pace: Duration,
    /// Operations between `svc.tick()` calls.
    pub tick_every: u64,
    pub ops: u64,
    pub ticks: u64,
}

impl Env {
    /// `warmup_ops` fixes the pace: the warm-up spans [`WARMUP_SIM`]
    /// whatever its length. `full_warmup_ops` (the scenario's warm-up at full
    /// scale) fixes the tick cadence, [`WARMUP_TICKS`] per full warm-up: a
    /// shrunk scenario ticks every as many operations as the full one — a
    /// tick slows the operations right after it, and more of them would move
    /// the tail — but never fewer than three times per warm-up.
    pub fn new(seed: u64, rules: Option<&str>, warmup_ops: u64, full_warmup_ops: u64) -> Env {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        let svc = FirestoreService::new(clock.clone(), ServiceOptions::default());
        let disk = SimDisk::new();
        svc.spanner().attach_durability(disk.clone());
        let db = svc.create_database(DB);
        if let Some(rules) = rules {
            svc.set_rules(DB, rules).expect("scenario rules parse");
        }
        Env {
            svc,
            db,
            clock,
            disk,
            lat: SimRng::new(seed ^ 0x1a7e),
            pace: Duration::from_nanos(WARMUP_SIM.as_nanos() / warmup_ops),
            tick_every: (full_warmup_ops / WARMUP_TICKS).min(warmup_ops / 3),
            ops: 0,
            ticks: 0,
        }
    }

    /// Close one operation: advance the clock by the pace and, every
    /// `tick_every` operations, run the service's maintenance tick (timed
    /// into `run`, as a deployment's timer would land between requests).
    pub fn end_op(&mut self, run: &mut Run) {
        self.clock.advance(self.pace);
        self.ops += 1;
        if !self.ops.is_multiple_of(self.tick_every) {
            return;
        }
        self.ticks += 1;
        let Env { svc, clock, .. } = self;
        run.spans.span("server.tick", |spans| {
            if spans.on {
                // Tick's own horizon, timed on its own just before: the
                // second `maintain` inside `tick` then finds nothing to do.
                let horizon = clock.now().as_nanos().saturating_sub(3_600_000_000_000);
                let t = Instant::now();
                spans.span("spanner.maintain", |_| {
                    svc.spanner()
                        .maintain(simkit::Timestamp::from_nanos(horizon))
                });
                run.rec.record("maintain", t.elapsed().as_nanos() as u64);
            }
            run.rec.time("tick", || svc.tick());
        });
    }
}

/// Everything one scenario run accumulates.
pub struct Run {
    pub rec: Recorder,
    pub spans: Spans,
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
}

impl Run {
    pub fn new(kinds: &[&'static str]) -> Run {
        let mut all = vec!["tick", "maintain"];
        all.extend_from_slice(kinds);
        Run {
            rec: Recorder::new(&all),
            spans: Spans::new(),
            attempted: 0,
            failed: 0,
            retries: 0,
        }
    }

    /// Count one attempted operation and whether its outcome was right.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED OP: {}", what());
            }
        }
    }
}

/// Call `f` until it succeeds or stops being retriable, counting retries.
pub fn retry<T>(
    retries: &mut u64,
    mut f: impl FnMut() -> Result<T, FirestoreError>,
) -> Result<T, FirestoreError> {
    let mut tries = 0;
    loop {
        match f() {
            Err(e) if e.is_retriable() && tries < MAX_RETRIES => {
                tries += 1;
                *retries += 1;
            }
            other => return other,
        }
    }
}

/// A scenario: `setup` leaves it warmed up, `step` performs one operation of
/// the workload's stream against it.
pub trait Scenario: Sized {
    /// Latency kinds `step` records.
    const KINDS: &'static [&'static str];

    /// Build the service, load the data and run the warm-up (its
    /// operations are checked and counted into `run` like any other).
    fn setup(scale: Scale, seed: u64, run: &mut Run) -> Self;
    fn env(&mut self) -> &mut Env;
    /// One operation: generate it, run it, time it, check it against the
    /// shadow model. Does not pace; the driver calls [`Env::end_op`].
    fn step(&mut self, run: &mut Run);
    /// The fixed-count per-layer phase of a traced run (peel, direct and
    /// count measurements), run before the timed phase so that counts
    /// repeat exactly for a seed.
    fn layers(&mut self, run: &mut Run, out: &mut Metrics);
    /// Measurements that need a fixed amount of history behind them, made
    /// on every warmed-up instance before anything time-bounded.
    fn drill(&mut self, _run: &mut Run, _out: &mut Metrics) {}
    /// The model `finish` verifies the database against.
    fn shadow(&mut self) -> &mut Shadow;
    /// Quiesce, verify final state, and emit the scenario's own metrics.
    fn finish(&mut self, run: &mut Run, e2e: &mut Metrics, layer: &mut Metrics);
}

/// Run `ops` operations of the scenario's stream, pacing and ticking.
pub fn drive<S: Scenario>(s: &mut S, run: &mut Run, ops: u64) {
    for _ in 0..ops {
        s.step(run);
        s.env().end_op(run);
    }
}

/// Share of a timed segment spent getting caches warm again, unrecorded:
/// the scenarios of a run take turns, and the first operations after another
/// scenario had the processor would otherwise be the segment's tail.
const REWARM_SHARE: f64 = 0.1;

/// One segment of the timed phase: `len` of the scenario's stream, the
/// first [`REWARM_SHARE`] of it unrecorded, the rest filed under segment
/// `seg`. Returns `(operations, wall seconds)` of the recorded part.
pub fn run_segment<S: Scenario>(
    s: &mut S,
    run: &mut Run,
    seg: usize,
    len: std::time::Duration,
) -> (u64, f64) {
    let mut stretch = |run: &mut Run, len: std::time::Duration| {
        let start = Instant::now();
        let mut ops = 0u64;
        while start.elapsed() < len {
            run.spans.op += 1;
            let op = run.spans.enter("op");
            s.step(run);
            run.spans.exit(op);
            s.env().end_op(run);
            ops += 1;
        }
        (ops, start.elapsed().as_secs_f64())
    };
    let traced = std::mem::replace(&mut run.spans.on, false);
    run.rec.segment = crate::stats::DISCARD;
    stretch(run, len.mul_f64(REWARM_SHARE));
    run.spans.on = traced;
    run.rec.segment = seg;
    stretch(run, len.mul_f64(1.0 - REWARM_SHARE))
}

// --- shadow model -----------------------------------------------------------

pub type Fields = BTreeMap<String, Value>;

/// The harness-side model of the database: the last acknowledged write per
/// document.
#[derive(Default)]
pub struct Shadow {
    pub docs: BTreeMap<DocumentName, Fields>,
}

impl Shadow {
    /// Fold an acknowledged write in.
    pub fn apply(&mut self, w: &Write) {
        match &w.op {
            WriteOp::Set { name, fields } => {
                self.docs.insert(name.clone(), fields.clone());
            }
            WriteOp::Merge { name, fields } => {
                let doc = self.docs.entry(name.clone()).or_default();
                for (k, v) in fields {
                    doc.insert(k.clone(), v.clone());
                }
            }
            WriteOp::Delete { name } => {
                self.docs.remove(name);
            }
            WriteOp::Verify { .. } => {}
        }
    }

    /// Make the model wrong: it now believes in an acknowledged write of a
    /// document the database never saw. Every scenario's final check must
    /// notice (the self-test's proof that the checkers check).
    pub fn corrupt(&mut self) {
        let (name, fields) = self.docs.iter().next().expect("a loaded model");
        let phantom = name.parent().doc("phantom-never-written");
        let fields = fields.clone();
        self.docs.insert(phantom, fields);
    }

    /// Whether a read of `name` returned the last acknowledged write.
    pub fn agrees(&self, name: &DocumentName, got: Option<&Document>) -> bool {
        self.docs.get(name) == got.map(|d| &d.fields)
    }
}

/// The user's bytes in a write: the document name plus its fields.
pub fn user_bytes(w: &Write) -> u64 {
    let fields = match &w.op {
        WriteOp::Set { fields, .. } | WriteOp::Merge { fields, .. } => fields,
        _ => return 0,
    };
    Document::new(w.op.name().clone(), fields.clone()).approx_size() as u64
}

// --- process probes -----------------------------------------------------------

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .expect("/proc/self/status has VmHWM");
    kb / 1024.0
}

/// A fixed arithmetic + allocation loop timed in this process (median of
/// five), so that a loaded or slower machine is recognisable in the output.
pub fn calibration_ns() -> f64 {
    let once = || {
        let t = Instant::now();
        let mut acc = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..200_000u64 {
            acc = acc.rotate_left(7) ^ i.wrapping_mul(0xff51_afd7_ed55_8ccd);
            if i % 64 == 0 {
                let v: Vec<u64> = vec![acc; 32];
                acc = acc.wrapping_add(std::hint::black_box(&v)[31]);
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_nanos() as f64
    };
    let runs: Vec<f64> = (0..5).map(|_| once()).collect();
    median(&runs)
}

/// Median nanoseconds per call of `f` over `batches` timed batches of
/// `per_batch` calls each (the *direct* technique for leaf functions too
/// short to time one call at a time).
pub fn direct_ns(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(batches);
    for b in 0..batches {
        let t = Instant::now();
        for i in 0..per_batch {
            f(b * per_batch + i);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&per_call)
}

/// [`direct_ns`] over 20 batches inside a harness span, filed as `metric`.
pub fn direct(
    run: &mut Run,
    out: &mut Metrics,
    metric: &'static str,
    per_batch: usize,
    f: impl FnMut(usize),
) {
    let ns = run.spans.span(metric, |_| direct_ns(20, per_batch, f));
    out.insert(metric, ns);
}

/// The document leaf functions of `core`, timed directly on (up to 256 of)
/// the workload's own documents: index-entry computation, storage encode and
/// decode.
pub fn direct_document_leaves(
    db: &FirestoreDatabase,
    shadow: &Shadow,
    run: &mut Run,
    out: &mut Metrics,
) {
    use firestore_core::index::entries_for_document;
    use firestore_core::write::{decode_from_storage, encode_for_storage, MAINTAINED_STATES};
    let zero = simkit::Timestamp::ZERO;
    let dir = db.directory();
    let docs: Vec<Document> = shadow
        .docs
        .iter()
        .take(256)
        .map(|(name, fields)| Document::new(name.clone(), fields.clone()))
        .collect();
    let rows: Vec<_> = docs
        .iter()
        .map(|d| encode_for_storage(&d.name, &d.fields, zero))
        .collect();
    let n = docs.len();
    direct(run, out, "core.index.entries_for_document.ns", n, |i| {
        let keys =
            db.with_catalog(|c| entries_for_document(c, dir, &docs[i % n], MAINTAINED_STATES));
        std::hint::black_box(keys);
    });
    direct(run, out, "core.doc.encode.ns", n, |i| {
        let d = &docs[i % n];
        std::hint::black_box(encode_for_storage(&d.name, &d.fields, zero));
    });
    direct(run, out, "core.doc.decode.ns", n, |i| {
        let d = decode_from_storage(
            docs[i % n].name.clone(),
            rows[i % n].as_slice(),
            simkit::Timestamp(1),
        );
        assert!(std::hint::black_box(d).is_some());
    });
}
