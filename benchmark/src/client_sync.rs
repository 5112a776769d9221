//! `client_sync`: two devices of the Mobile/Web SDK on one database — the
//! path the paper's title is about.
//!
//! Devices A and B both listen on `/rooms/r/messages` order by `ts` desc
//! limit 50, over a ring of message ids (a bounded collection). The loop is
//! `A.set` → `A.flush` → `A.sync` → `B.sync` → `B.take_snapshots`, which must
//! hold the message; every 50 iterations A goes offline, queues 20 sets and
//! 5 merges, reads from its cache, and reconnects. The client crate does most
//! of the work (local store, pending-mutation overlay, listener
//! reconciliation); fan-out is two listeners. Writes reach the engine through
//! `commit_writes_dedup` and the `WriteLedger`, not `svc.commit`, so a ledger
//! or ledger-GC change invisible to `ycsb_a` shows here.

use crate::catalog::Metrics;
use crate::harness::{drive, Env, Fields, Run, Scale, Scenario, Shadow};
use crate::stats::median;
use client::{ClientOptions, FirestoreClient, ListenerId};
use firestore_core::{Caller, Direction, Document, DocumentName, Query, Value, Write};
use rules::AuthContext;
use simkit::SimRng;
use std::time::Instant;

const RING: u64 = 500;
const WARMUP_ITERATIONS: u64 = 2_000;
const WINDOW: usize = 50;
const OFFLINE_EVERY: u64 = 50;
const OFFLINE_SETS: u64 = 20;
const OFFLINE_MERGES: u64 = 5;

const RULES: &str = r#"
service cloud.firestore {
  match /databases/{database}/documents {
    match /rooms/{room}/messages/{message} {
      allow read, write: if request.auth != null;
    }
  }
}
"#;

struct Device {
    client: FirestoreClient,
    listener: ListenerId,
    /// The documents of the latest snapshot the listener delivered.
    view: Vec<Document>,
}

pub struct ClientSync {
    env: Env,
    rng: SimRng,
    ring: u64,
    a: Device,
    b: Device,
    shadow: Shadow,
    seq: u64,
    iterations: u64,
    /// Layer-phase timings of the offline excursion's parts (µs).
    set_ns: Vec<f64>,
    get_cached_ns: Vec<f64>,
    query_cached_us: Vec<f64>,
    sync_us: Vec<f64>,
}

fn messages() -> Query {
    Query::parse("/rooms/r/messages")
        .expect("valid collection")
        .order_by("ts", Direction::Desc)
        .limit(WINDOW)
}

fn path(slot: u64) -> String {
    format!("/rooms/r/messages/m{slot:05}")
}

fn name(slot: u64) -> DocumentName {
    DocumentName::parse(&path(slot)).expect("valid name")
}

impl Device {
    fn connect(env: &Env, uid: &str) -> Device {
        let client = FirestoreClient::connect(
            env.db.clone(),
            env.svc.realtime().clone(),
            ClientOptions {
                auth: Some(AuthContext::uid(uid)),
            },
        );
        let listener = client.listen(messages()).expect("listen");
        let mut d = Device {
            client,
            listener,
            view: Vec::new(),
        };
        d.drain();
        d
    }

    /// Take the listener's queued snapshots; remember the latest.
    fn drain(&mut self) -> usize {
        let mut snaps = self.client.take_snapshots(self.listener);
        let n = snaps.len();
        if let Some(last) = snaps.pop() {
            self.view = last.documents;
        }
        n
    }
}

impl ClientSync {
    fn message(&mut self) -> (u64, Fields) {
        self.seq += 1;
        let fields = [
            ("ts".to_string(), Value::Int(self.seq as i64)),
            ("from".to_string(), Value::from("a")),
            (
                "text".to_string(),
                Value::from(format!(
                    "message {} / {}",
                    self.seq,
                    self.rng.gen_range(1 << 30)
                )),
            ),
        ]
        .into();
        (self.seq % self.ring, fields)
    }

    /// The model's answer to the listeners' query: newest `WINDOW` messages.
    fn expected_window(&self) -> Vec<(&DocumentName, &Fields)> {
        let mut all: Vec<_> = self.shadow.docs.iter().collect();
        all.sort_by_key(|(_, f)| match f.get("ts") {
            Some(Value::Int(ts)) => std::cmp::Reverse(*ts),
            other => panic!("ts is {other:?}"),
        });
        all.truncate(WINDOW);
        all
    }

    fn view_agrees(&self, view: &[Document]) -> bool {
        self.expected_window()
            .into_iter()
            .eq(view.iter().map(|d| (&d.name, &d.fields)))
    }

    /// A goes offline, writes and reads locally, and comes back. Returns the
    /// wall time of `reconnect()`: the SDK flushes the queued writes and
    /// re-seeds A's listener inside that one call.
    fn offline_excursion(&mut self, run: &mut Run, writes: bool) -> u64 {
        run.spans
            .span("client.disconnect", |_| self.a.client.disconnect());
        let mut queued = Vec::new();
        if writes {
            for _ in 0..OFFLINE_SETS {
                let (slot, fields) = self.message();
                let t = Instant::now();
                let res = run.spans.span("client.set", |_| {
                    self.a.client.set(&path(slot), fields.clone())
                });
                self.set_ns.push(t.elapsed().as_nanos() as f64);
                run.check(res.is_ok(), || format!("offline set: {res:?}"));
                queued.push(Write::set(name(slot), fields));
            }
            for i in 0..OFFLINE_MERGES {
                let slot = (self.seq - i) % self.ring;
                let fields = [("edited", Value::Bool(true))];
                let res = run.spans.span("client.merge", |_| {
                    self.a.client.merge(&path(slot), fields.clone())
                });
                run.check(res.is_ok(), || format!("offline merge: {res:?}"));
                queued.push(Write::merge(name(slot), fields));
            }
            // Latency compensation: the cache answers with the queued
            // writes already applied.
            let slot = self.seq % self.ring;
            let t = Instant::now();
            let got = run
                .spans
                .span("client.get_cached", |_| self.a.client.get(&path(slot)));
            self.get_cached_ns.push(t.elapsed().as_nanos() as f64);
            let mut overlay = Shadow::default();
            overlay.docs.insert(
                name(slot),
                self.shadow
                    .docs
                    .get(&name(slot))
                    .cloned()
                    .unwrap_or_default(),
            );
            for w in queued.iter().filter(|w| *w.op.name() == name(slot)) {
                overlay.apply(w);
            }
            let ok = matches!(&got, Ok(doc) if overlay.agrees(&name(slot), doc.as_ref()));
            run.check(ok, || format!("cached get of {}", path(slot)));
            let t = Instant::now();
            let local = run
                .spans
                .span("client.query_cached", |_| self.a.client.query(&messages()));
            self.query_cached_us
                .push(t.elapsed().as_nanos() as f64 / 1e3);
            let newest = matches!(&local, Ok(docs) if docs.len() == WINDOW
                && docs[0].fields.get("ts") == Some(&Value::Int(self.seq as i64)));
            run.check(newest, || {
                "cached query misses the newest queued message".to_string()
            });
        }
        let t = Instant::now();
        let res = run
            .spans
            .span("client.reconnect", |_| self.a.client.reconnect());
        let ns = t.elapsed().as_nanos() as u64;
        let flushed = res.is_ok() && self.a.client.pending_writes() == 0;
        run.check(flushed, || format!("reconnect: {res:?}"));
        for w in &queued {
            self.shadow.apply(w);
        }
        let rejected = self.a.client.take_write_errors();
        run.check(rejected.is_empty(), || {
            format!("rejected writes: {rejected:?}")
        });
        self.a.drain();
        ns
    }
}

impl Scenario for ClientSync {
    const KINDS: &'static [&'static str] = &["sync", "flush"];

    fn setup(scale: Scale, seed: u64, run: &mut Run) -> ClientSync {
        let warmup = scale.warmup(WARMUP_ITERATIONS);
        let ring = scale.size(RING).max(2 * WINDOW as u64);
        let env = Env::new(seed, Some(RULES), warmup, WARMUP_ITERATIONS);
        let mut rng = SimRng::new(seed);
        let mut shadow = Shadow::default();
        // A full ring before anybody listens: the collection, and with it
        // every listener view, has its steady size from the first iteration.
        for slot in 1..=ring {
            let w = Write::set(
                name(slot % ring),
                [
                    ("ts", Value::Int(slot as i64)),
                    ("from", Value::from("seed")),
                    (
                        "text",
                        Value::from(format!("seed {}", rng.gen_range(1 << 30))),
                    ),
                ],
            );
            let res = env.db.commit_writes(vec![w.clone()], &Caller::Service);
            run.check(res.is_ok(), || format!("load: {:?}", res.as_ref().err()));
            shadow.apply(&w);
        }
        let a = Device::connect(&env, "a");
        let b = Device::connect(&env, "b");
        let mut s = ClientSync {
            env,
            rng,
            ring,
            a,
            b,
            shadow,
            seq: ring,
            iterations: 0,
            set_ns: Vec::new(),
            get_cached_ns: Vec::new(),
            query_cached_us: Vec::new(),
            sync_us: Vec::new(),
        };
        drive(&mut s, run, warmup);
        s
    }

    fn env(&mut self) -> &mut Env {
        &mut self.env
    }

    fn step(&mut self, run: &mut Run) {
        let (slot, fields) = self.message();
        let w = Write::set(name(slot), fields.clone());
        let start = Instant::now();
        // Connected, `set` acknowledges locally and flushes at once; the
        // explicit `flush` is the application's and finds nothing queued.
        let sent = run
            .spans
            .span("client.set", |_| self.a.client.set(&path(slot), fields))
            .and_then(|_| run.spans.span("client.flush", |_| self.a.client.flush()));
        let t = Instant::now();
        let synced = run
            .spans
            .span("client.sync", |_| self.a.client.sync())
            .and_then(|_| run.spans.span("client.sync", |_| self.b.client.sync()));
        self.sync_us.push(t.elapsed().as_nanos() as f64 / 2e3);
        let told = run.spans.span("client.take_snapshots", |_| self.b.drain());
        run.rec.record("sync", start.elapsed().as_nanos() as u64);
        self.shadow.apply(&w);
        self.a.drain();
        let newest = self.b.view.first();
        let ok = sent.is_ok()
            && synced.is_ok()
            && told > 0
            && newest
                .is_some_and(|d| d.name == *w.op.name() && self.shadow.agrees(&d.name, Some(d)));
        run.check(ok, || {
            format!(
                "B after message {}: sent={sent:?} synced={synced:?} told={told}",
                self.seq
            )
        });

        self.iterations += 1;
        if self.iterations.is_multiple_of(OFFLINE_EVERY) {
            let ns = self.offline_excursion(run, true);
            run.rec.record("flush", ns);
        }
    }

    fn shadow(&mut self) -> &mut Shadow {
        &mut self.shadow
    }

    fn layers(&mut self, run: &mut Run, out: &mut Metrics) {
        // A fixed window of the workload's stream, then the same number of
        // offline excursions without queued writes: `reconnect()` alone
        // re-seeds the listener, the difference is the flush.
        let excursions = 20;
        let (mut with_writes, mut empty) = (Vec::new(), Vec::new());
        for v in [
            &mut self.set_ns,
            &mut self.get_cached_ns,
            &mut self.query_cached_us,
            &mut self.sync_us,
        ] {
            v.clear();
        }
        let retries = |s: &ClientSync| {
            s.env
                .svc
                .obs()
                .metrics
                .counter_value("client.flush.retries", &[]) as f64
        };
        let retries0 = retries(self);
        for _ in 0..excursions {
            // `step` goes offline on every OFFLINE_EVERY-th iteration; stop
            // one short and make that excursion here, timed.
            while !(self.iterations + 1).is_multiple_of(OFFLINE_EVERY) {
                self.step(run);
                self.env.end_op(run);
            }
            self.iterations += 1;
            with_writes.push(self.offline_excursion(run, true) as f64);
            empty.push(self.offline_excursion(run, false) as f64);
        }
        let writes = (OFFLINE_SETS + OFFLINE_MERGES) as f64;
        out.insert("client.set.ns", median(&self.set_ns));
        out.insert("client.get_cached.ns", median(&self.get_cached_ns));
        out.insert("client.query_cached.us", median(&self.query_cached_us));
        out.insert("client.sync.us", median(&self.sync_us));
        out.insert("client.reconnect.ms", median(&empty) / 1e6);
        out.insert(
            "client.flush.us_per_write",
            (median(&with_writes) - median(&empty)) / 1e3 / writes,
        );
        out.insert(
            "client.persist_cache.bytes",
            self.a.client.persist_cache().len() as f64,
        );
        out.insert("client.flush.retries", retries(self) - retries0);
    }

    fn finish(&mut self, run: &mut Run, e2e: &mut Metrics, _layer: &mut Metrics) {
        // Quiesce: both devices drain, then both views must be the model's
        // newest window.
        for _ in 0..2 {
            self.env.svc.realtime().tick();
            for d in [&mut self.a, &mut self.b] {
                let synced = d.client.sync();
                run.check(synced.is_ok(), || format!("final sync: {synced:?}"));
                d.drain();
            }
        }
        let contents = |d: &Device| -> Vec<(DocumentName, Fields)> {
            d.view
                .iter()
                .map(|doc| (doc.name.clone(), doc.fields.clone()))
                .collect()
        };
        run.check(contents(&self.a) == contents(&self.b), || {
            "A and B views differ".to_string()
        });
        run.check(self.view_agrees(&self.b.view), || {
            "B's view is not the model's window".to_string()
        });
        for name in self.shadow.docs.keys() {
            let got = self.b.client.get(&name.to_string());
            let ok = matches!(&got, Ok(doc) if self.shadow.agrees(name, doc.as_ref()));
            run.check(ok, || format!("B reads {name}"));
        }
        e2e.insert(
            "sync_p50_us",
            run.rec.us("sync", 50.0).expect("iterations ran"),
        );
        e2e.insert(
            "flush_p50_us",
            run.rec.us("flush", 50.0).expect("offline excursions ran"),
        );
    }
}
