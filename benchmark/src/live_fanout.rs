//! `live_fanout`: one writer, thousands of real-time listeners.
//!
//! 1 000 connections with one listener each: 800 narrow (`/scores` where
//! `game == g`, 100 games × 8), 10 broad (the whole `/scores` collection),
//! 190 on a `/lobby` collection nobody writes — registered, never matched.
//! One write therefore matches exactly 18 listeners. (The issue's probe had
//! twice the games and four times the broad listeners; a broad listener's
//! view is re-diffed in full on every delivery, ≈1 µs per document in it, so
//! that size left too few writes per second to support a p99.) The Real-time Cache
//! (Prepare/Accept, changelog, matcher descent, delta coalescing, outbound
//! queues) does most of the work; rules and planner none. The commit path is
//! `ycsb_a`'s but *with* listeners, so a matcher or fan-out change that taxes
//! every commit shows here and must not show in `ycsb_a`.

use crate::catalog::Metrics;
use crate::harness::{direct, drive, retry, Env, Fields, Run, Scale, Scenario, Shadow, DB};
use crate::stats::median;
use firestore_core::observer::DocumentChange;
use firestore_core::{Caller, Document, DocumentName, FilterOp, MatcherTree, Query, Value, Write};
use realtime::{ChangeKind, Connection, ListenEvent};
use simkit::SimRng;
use std::collections::BTreeMap;
use std::time::Instant;

const GAMES: u64 = 100;
const NARROW_PER_GAME: u64 = 8;
const BROAD: u64 = 10;
const LOBBY: u64 = 190;
const WARMUP_WRITES: u64 = 1_000;
/// Simulated seconds between polls of *every* connection (the ones a write
/// did not match must have nothing queued). A connection that has not
/// polled for 30 simulated seconds is shed the moment an event reaches it,
/// so clients heartbeat; this is that heartbeat.
const POLL_ALL_SIM_SECS: u64 = 20;

struct Listener {
    conn: Connection,
    query: Query,
    /// The `game` the query filters on; `None` listens on a whole
    /// collection.
    game: Option<Value>,
    /// What this listener has been told, accumulated from its snapshots.
    view: BTreeMap<DocumentName, Fields>,
}

pub struct LiveFanout {
    env: Env,
    rng: SimRng,
    games: u64,
    /// Narrow listeners first (game-major), then broad, then lobby.
    listeners: Vec<Listener>,
    broad: std::ops::Range<usize>,
    shadow: Shadow,
    writes: u64,
    /// Writes between polls of every connection.
    poll_all_every: u64,
    /// While `Some` (the layer phase), the most bytes seen queued for
    /// delivery across all connections.
    queued_peak: Option<usize>,
    listen_us: Vec<f64>,
}

fn score_name(g: u64) -> DocumentName {
    DocumentName::parse(&format!("/scores/g{g:04}")).expect("valid name")
}

fn scores() -> Query {
    Query::parse("/scores").expect("valid collection")
}

impl Listener {
    /// Fold polled events into the accumulated view. `Err` on a reset.
    fn absorb(&mut self, events: Vec<ListenEvent>) -> Result<usize, String> {
        let mut changes_seen = 0;
        for event in events {
            match event {
                ListenEvent::Snapshot { changes, .. } => {
                    for c in changes {
                        changes_seen += 1;
                        match c.kind {
                            ChangeKind::Removed => self.view.remove(&c.doc.name),
                            _ => self.view.insert(c.doc.name, c.doc.fields),
                        };
                    }
                }
                ListenEvent::Reset { cause, .. } => return Err(format!("reset: {cause:?}")),
            }
        }
        Ok(changes_seen)
    }
}

impl LiveFanout {
    fn next_write(&mut self) -> (u64, Write) {
        self.writes += 1;
        let g = self.rng.gen_range(self.games);
        let fields = [
            ("game", Value::from(format!("g{g:04}"))),
            ("home", Value::Int(self.rng.gen_range(100) as i64)),
            ("away", Value::Int(self.rng.gen_range(100) as i64)),
            ("seq", Value::Int(self.writes as i64)),
        ];
        (g, Write::set(score_name(g), fields))
    }

    fn matched(&self, g: u64) -> impl Iterator<Item = usize> {
        let narrow = (g * NARROW_PER_GAME) as usize;
        (narrow..narrow + NARROW_PER_GAME as usize).chain(self.broad.clone())
    }

    /// Poll every connection the last write did not match: nothing may be
    /// queued there.
    fn poll_unmatched(&mut self, run: &mut Run, g: u64) {
        let matched: Vec<usize> = self.matched(g).collect();
        for (i, l) in self.listeners.iter_mut().enumerate() {
            if matched.contains(&i) {
                continue;
            }
            let t = Instant::now();
            let events = run.spans.span("realtime.poll_idle", |_| l.conn.poll());
            run.rec.record("poll_idle", t.elapsed().as_nanos() as u64);
            run.check(events.is_empty(), || {
                format!("listener {i} got an unmatched event")
            });
        }
    }
}

impl Scenario for LiveFanout {
    const KINDS: &'static [&'static str] =
        &["notify", "commit", "rtc_tick", "poll_hit", "poll_idle"];

    fn setup(scale: Scale, seed: u64, run: &mut Run) -> LiveFanout {
        let warmup = scale.warmup(WARMUP_WRITES);
        let games = scale.size(GAMES);
        let env = Env::new(seed, None, warmup, WARMUP_WRITES);
        let poll_all_every = (POLL_ALL_SIM_SECS * 1_000_000_000 / env.pace.as_nanos()).max(1);
        let mut s = LiveFanout {
            env,
            rng: SimRng::new(seed),
            games,
            listeners: Vec::new(),
            broad: 0..0,
            shadow: Shadow::default(),
            writes: 0,
            poll_all_every,
            queued_peak: None,
            listen_us: Vec::new(),
        };
        for g in 0..games {
            let w = Write::set(
                score_name(g),
                [
                    ("game", Value::from(format!("g{g:04}"))),
                    ("home", Value::Int(0)),
                    ("away", Value::Int(0)),
                    ("seq", Value::Int(0)),
                ],
            );
            let Env { svc, lat, .. } = &mut s.env;
            let res = svc.commit(DB, vec![w.clone()], &Caller::Service, lat);
            run.check(res.is_ok(), || format!("load: {:?}", res.as_ref().err()));
            s.shadow.apply(&w);
        }
        let narrow = (0..games * NARROW_PER_GAME).map(|i| {
            let game = Value::from(format!("g{:04}", i / NARROW_PER_GAME));
            (
                scores().filter("game", FilterOp::Eq, game.clone()),
                Some(game),
            )
        });
        let broad = (0..scale.size(BROAD)).map(|_| (scores(), None));
        let lobby = (0..scale.size(LOBBY))
            .map(|_| (Query::parse("/lobby").expect("valid collection"), None));
        let first_broad = (games * NARROW_PER_GAME) as usize;
        s.broad = first_broad..first_broad + scale.size(BROAD) as usize;
        for (query, game) in narrow.chain(broad).chain(lobby) {
            let conn = s.env.svc.connect();
            let t = Instant::now();
            let res = s.env.svc.listen(DB, &conn, query.clone(), &Caller::Service);
            s.listen_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            run.check(res.is_ok(), || format!("listen: {:?}", res.as_ref().err()));
            let mut l = Listener {
                conn,
                query,
                game,
                view: BTreeMap::new(),
            };
            // The initial snapshot, drained at once: an undrained queue
            // stalls and is shed after 30 simulated seconds.
            let seeded = l.absorb(l.conn.poll());
            run.check(seeded.is_ok(), || format!("initial snapshot: {seeded:?}"));
            s.listeners.push(l);
        }
        drive(&mut s, run, warmup);
        s
    }

    fn env(&mut self) -> &mut Env {
        &mut self.env
    }

    fn step(&mut self, run: &mut Run) {
        let (g, w) = self.next_write();
        let Env { svc, lat, .. } = &mut self.env;
        let start = Instant::now();
        let res = run.spans.span("server.commit", |_| {
            retry(&mut run.retries, || {
                svc.commit(DB, vec![w.clone()], &Caller::Service, lat)
            })
        });
        run.rec.record("commit", start.elapsed().as_nanos() as u64);
        run.check(res.is_ok(), || format!("write: {:?}", res.as_ref().err()));
        self.shadow.apply(&w);
        let t = Instant::now();
        run.spans.span("realtime.tick", |_| svc.realtime().tick());
        run.rec.record("rtc_tick", t.elapsed().as_nanos() as u64);
        if let Some(peak) = &mut self.queued_peak {
            // The write's deliveries sit in the outbound queues only here,
            // between the tick and the polls.
            *peak = (*peak).max(svc.realtime().stats().queued_bytes);
        }

        let wrote = &self.shadow.docs[w.op.name()];
        for i in self.matched(g) {
            let l = &mut self.listeners[i];
            let t = Instant::now();
            let events = run.spans.span("realtime.poll_hit", |_| l.conn.poll());
            run.rec.record("poll_hit", t.elapsed().as_nanos() as u64);
            let told = l.absorb(events);
            let ok = told == Ok(1) && l.view.get(w.op.name()) == Some(wrote);
            run.check(ok, || {
                format!("listener {i} after write {}: {told:?}", w.op.name())
            });
        }
        // From the commit call to the last matched listener holding the
        // snapshot.
        run.rec.record("notify", start.elapsed().as_nanos() as u64);
        if self.writes.is_multiple_of(self.poll_all_every) {
            self.poll_unmatched(run, g);
        }
    }

    fn shadow(&mut self) -> &mut Shadow {
        &mut self.shadow
    }

    fn layers(&mut self, run: &mut Run, out: &mut Metrics) {
        let window = 400;
        let rtc = self.env.svc.realtime().clone();

        // Counts and call-by-call timings over a fixed window of the
        // workload's writes.
        let before = rtc.stats();
        self.queued_peak = Some(0);
        drive(self, run, window);
        let queued_peak = self.queued_peak.take().expect("set above");
        let after = rtc.stats();
        let n = window as f64;
        out.insert(
            "realtime.notifications_per_commit",
            (after.notifications - before.notifications) as f64 / n,
        );
        out.insert(
            "realtime.snapshots",
            (after.snapshots - before.snapshots) as f64,
        );
        out.insert(
            "realtime.coalesced",
            (after.coalesced - before.coalesced) as f64,
        );
        out.insert("realtime.flushes", (after.flushes - before.flushes) as f64);
        out.insert("realtime.queued_bytes_peak", queued_peak as f64);
        let us = |kind: &str| run.rec.us(kind, 50.0).expect("window ran");
        out.insert("realtime.tick.us", us("rtc_tick"));
        out.insert("realtime.poll_hit.us", us("poll_hit"));
        out.insert("realtime.poll_idle.ns", us("poll_idle") * 1e3);
        let with_listeners = us("commit");

        // The same commits against a service nobody listens on.
        let mut bare = Env::new(0, None, window, window);
        let mut commits = Vec::new();
        for g in 0..self.games {
            let w = Write::set(score_name(g), self.shadow.docs[&score_name(g)].clone());
            bare.svc
                .commit(DB, vec![w], &Caller::Service, &mut bare.lat)
                .expect("bare load");
        }
        for _ in 0..window {
            let (_, w) = self.next_write();
            let t = Instant::now();
            let res = run.spans.span("server.commit.no_listeners", |_| {
                bare.svc
                    .commit(DB, vec![w], &Caller::Service, &mut bare.lat)
            });
            commits.push(t.elapsed().as_nanos() as f64 / 1e3);
            run.check(res.is_ok(), || {
                format!("bare write: {:?}", res.as_ref().err())
            });
            bare.clock.advance(bare.pace);
        }
        out.insert(
            "realtime.commit_overhead_us",
            with_listeners - median(&commits),
        );
        out.insert("server.listen.us", median(&self.listen_us));

        // Direct: a matcher tree loaded with the workload's listeners.
        let dir = self.env.db.directory();
        let mut tree: MatcherTree<usize> = MatcherTree::new(1);
        for (i, l) in self.listeners.iter().enumerate() {
            tree.register(i, &[0], dir, &l.query);
        }
        let changes: Vec<DocumentChange> = self
            .shadow
            .docs
            .iter()
            .map(|(name, fields)| {
                let doc = Document::new(name.clone(), fields.clone());
                DocumentChange {
                    name: name.clone(),
                    old: Some(doc.clone()),
                    new: Some(doc),
                }
            })
            .collect();
        direct(
            run,
            out,
            "core.matchtree.match_change.ns",
            changes.len(),
            |i| {
                let tokens = tree.match_change(0, dir, &changes[i % changes.len()]);
                std::hint::black_box(tokens);
            },
        );
        let stats = tree.stats();
        out.insert(
            "core.matchtree.candidates_per_change",
            stats.candidates as f64 / stats.changes as f64,
        );
        out.insert(
            "core.matchtree.tokens_per_change",
            stats.tokens as f64 / stats.changes as f64,
        );
    }

    fn finish(&mut self, run: &mut Run, e2e: &mut Metrics, _layer: &mut Metrics) {
        // Quiesce, then every listener's accumulated view must equal a fresh
        // run of its query and the model's answer to it.
        self.env.svc.realtime().tick();
        for i in 0..self.listeners.len() {
            let l = &mut self.listeners[i];
            let told = l.absorb(l.conn.poll());
            let Env { svc, lat, .. } = &mut self.env;
            let fresh = svc.run_query(DB, &l.query, &Caller::Service, lat);
            let expected: BTreeMap<&DocumentName, &Fields> = self
                .shadow
                .docs
                .iter()
                .filter(|(name, fields)| {
                    l.query.collection.contains(name)
                        && l.game
                            .as_ref()
                            .is_none_or(|g| fields.get("game") == Some(g))
                })
                .collect();
            let ok = told.is_ok()
                && l.view.iter().eq(expected.iter().map(|(n, f)| (*n, *f)))
                && matches!(&fresh, Ok((r, _)) if r.documents.len() == expected.len()
                    && r.documents.iter().all(|d| expected.get(&d.name) == Some(&&d.fields)));
            run.check(ok, || format!("listener {i} view after quiesce ({told:?})"));
        }
        e2e.insert(
            "notify_p50_us",
            run.rec.us("notify", 50.0).expect("writes ran"),
        );
        e2e.insert(
            "notify_p99_us",
            run.rec.us("notify", 99.0).expect("writes ran"),
        );
    }
}
