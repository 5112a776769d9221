//! `ycsb_a`: the paper's Fig 7/8 mix — 50 % point reads, 50 % whole-document
//! updates, uniform keys, security rules on, end-user caller.
//!
//! The commit path (rules write check, index diff, locks, redo append and
//! fsync, 2PC across the `Entities` and `IndexEntries` tablets) does most of
//! the work; planner, executor, matcher and client SDK do none. Reads run
//! beside writes on the same MVCC store, so a write-path gain that lengthens
//! version chains shows in `read_p50_us`.

use crate::catalog::Metrics;
use crate::harness::{
    direct, direct_document_leaves, drive, retry, user_bytes, Env, Fields, Run, Scale, Scenario,
    Shadow, DB,
};
use crate::stats::{median, percentile};
use bytes::Bytes;
use firestore_core::executor::{ENTITIES, INDEX_ENTRIES};
use firestore_core::index::entry_diff;
use firestore_core::write::{encode_for_storage, write_request_context, MAINTAINED_STATES};
use firestore_core::{Caller, Consistency, Document, DocumentName, Value, Write};
use rules::{AuthContext, EmptyDataSource, Method, RequestContext};
use simkit::{Duration, SimDisk, SimRng, Timestamp};
use std::time::Instant;

const DOCS: u64 = 10_000;
const WARMUP_OPS: u64 = 40_000;
const FIELD_BYTES: usize = 900;
const UID: &str = "u1";

const RULES: &str = r#"
service cloud.firestore {
  match /databases/{database}/documents {
    match /usertable/{doc} {
      allow read: if request.auth != null;
      allow write: if request.auth != null
                   && request.resource.data.owner == request.auth.uid;
    }
  }
}
"#;

pub struct YcsbA {
    env: Env,
    rng: SimRng,
    names: Vec<DocumentName>,
    shadow: Shadow,
    caller: Caller,
    /// Random text the 900-byte field values are cut from.
    pool: String,
    writes: u64,
    /// Σ user bytes of every acknowledged write.
    acked_user_bytes: u64,
    /// Modeled latency of each warm-up update; `None` once the warm-up is
    /// over. A fixed count of operations, so both numbers below are exact
    /// for a seed however long the timed phase runs.
    sim_update_ns: Option<Vec<u64>>,
    sim_update_p50_ms: f64,
    stored_bytes_per_user_byte: f64,
}

impl YcsbA {
    fn value(&mut self) -> Fields {
        // Unique per write (the counter) without generating 900 random
        // bytes per operation inside the closed loop.
        self.writes += 1;
        let head = format!("{:016x}", self.writes);
        let off = self.rng.gen_range((self.pool.len() - FIELD_BYTES) as u64) as usize;
        let mut field0 = String::with_capacity(FIELD_BYTES);
        field0.push_str(&head);
        field0.push_str(&self.pool[off..off + FIELD_BYTES - head.len()]);
        [
            ("field0".to_string(), Value::Str(field0)),
            ("owner".to_string(), Value::from(UID)),
        ]
        .into()
    }

    fn next_write(&mut self) -> Write {
        let k = self.rng.gen_range(self.names.len() as u64) as usize;
        let fields = self.value();
        Write::set(self.names[k].clone(), fields)
    }

    fn acked(&mut self, w: &Write) {
        self.acked_user_bytes += user_bytes(w);
        self.shadow.apply(w);
    }

    fn read(&mut self, run: &mut Run, caller: &Caller) -> u64 {
        let k = self.rng.gen_range(self.names.len() as u64) as usize;
        let name = &self.names[k];
        let Env { svc, lat, .. } = &mut self.env;
        let t = Instant::now();
        let got = run.spans.span("server.get_document", |_| {
            retry(&mut run.retries, || svc.get_document(DB, name, caller, lat))
        });
        let ns = t.elapsed().as_nanos() as u64;
        let ok = matches!(&got, Ok((doc, _)) if self.shadow.agrees(name, doc.as_ref()));
        run.check(ok, || {
            format!("read {name}: {:?}", got.as_ref().map(|(d, _)| d.is_some()))
        });
        ns
    }

    fn update(&mut self, run: &mut Run, caller: &Caller) -> u64 {
        let w = self.next_write();
        let Env { svc, lat, .. } = &mut self.env;
        let t = Instant::now();
        let res = run.spans.span("server.commit", |_| {
            retry(&mut run.retries, || {
                svc.commit(DB, vec![w.clone()], caller, lat)
            })
        });
        let ns = t.elapsed().as_nanos() as u64;
        run.check(res.is_ok(), || {
            format!("update {}: {:?}", w.op.name(), res.as_ref().err())
        });
        if let Ok((_, served)) = res {
            if let Some(sim) = &mut self.sim_update_ns {
                sim.push(served.breakdown.total().as_nanos());
            }
            self.acked(&w);
        }
        ns
    }

    /// The same update entered one layer down: `FirestoreDatabase`.
    fn update_core(&mut self, run: &mut Run) -> u64 {
        let w = self.next_write();
        let t = Instant::now();
        let res = run.spans.span("core.commit_writes", |_| {
            self.env.db.commit_writes(vec![w.clone()], &Caller::Service)
        });
        let ns = t.elapsed().as_nanos() as u64;
        run.check(res.is_ok(), || {
            format!("core update: {:?}", res.as_ref().err())
        });
        self.acked(&w);
        ns
    }

    /// The same update entered at the bottom: the rows core would write
    /// (the `encode_for_storage` row plus the index-entry diff), prepared
    /// outside the timer and committed through `SpannerDatabase` directly.
    fn update_spanner(&mut self, run: &mut Run) -> u64 {
        let w = self.next_write();
        let name = w.op.name().clone();
        let db = &self.env.db;
        let dir = db.directory();
        let old = db
            .get_document(&name, Consistency::Strong, &Caller::Service)
            .expect("read before raw commit")
            .expect("loaded document");
        let firestore_core::WriteOp::Set { fields, .. } = &w.op else {
            unreachable!("ycsb_a only sets");
        };
        let new = Document::new(name.clone(), fields.clone());
        let (mut removals, mut additions) =
            db.with_catalog(|c| entry_diff(c, dir, Some(&old), Some(&new), MAINTAINED_STATES));
        removals.sort();
        additions.sort();
        let row = encode_for_storage(&name, &new.fields, old.create_time);
        let key = dir.key(&name.encode());
        let name_bytes = Bytes::from(name.encode());
        let sp = self.env.svc.spanner();
        let max_ts = self.env.clock.now() + Duration::from_secs(10);
        let t = Instant::now();
        let res = run.spans.span("spanner.commit", |_| {
            let mut txn = sp.begin();
            sp.txn_read_for_update_versioned(&mut txn, ENTITIES, &key)?;
            sp.txn_put(&mut txn, ENTITIES, key.clone(), row)?;
            for k in removals {
                sp.txn_delete(&mut txn, INDEX_ENTRIES, k)?;
            }
            for k in additions {
                sp.txn_put(&mut txn, INDEX_ENTRIES, k, name_bytes.clone())?;
            }
            sp.commit(txn, Timestamp::ZERO, max_ts)
        });
        let ns = t.elapsed().as_nanos() as u64;
        run.check(res.is_ok(), || {
            format!("raw update: {:?}", res.as_ref().err())
        });
        self.acked(&w);
        ns
    }

    /// Every acknowledged write is readable and equal to the model.
    fn read_back(&mut self, run: &mut Run) {
        for (name, acked) in &self.shadow.docs {
            let Env { svc, lat, .. } = &mut self.env;
            let got = svc.get_document(DB, name, &self.caller, lat);
            let ok = matches!(&got, Ok((Some(doc), _)) if doc.fields == *acked);
            run.check(ok, || format!("read-back of {name}"));
        }
    }
}

impl Scenario for YcsbA {
    const KINDS: &'static [&'static str] = &["read", "update"];

    fn setup(scale: Scale, seed: u64, run: &mut Run) -> YcsbA {
        let warmup = scale.warmup(WARMUP_OPS);
        let mut rng = SimRng::new(seed);
        let pool: String = (0..4 * FIELD_BYTES)
            .map(|_| (b'a' + rng.gen_range(26) as u8) as char)
            .collect();
        let names = (0..scale.size(DOCS))
            .map(|i| DocumentName::parse(&format!("/usertable/user{i:07}")).expect("valid name"))
            .collect();
        let mut s = YcsbA {
            env: Env::new(seed, Some(RULES), warmup, WARMUP_OPS),
            rng,
            names,
            shadow: Shadow::default(),
            caller: Caller::EndUser(Some(AuthContext::uid(UID))),
            pool,
            writes: 0,
            acked_user_bytes: 0,
            sim_update_ns: None,
            sim_update_p50_ms: 0.0,
            stored_bytes_per_user_byte: 0.0,
        };
        for k in 0..s.names.len() {
            let w = Write::set(s.names[k].clone(), s.value());
            let Env { svc, lat, .. } = &mut s.env;
            let res = svc.commit(DB, vec![w.clone()], &s.caller, lat);
            run.check(res.is_ok(), || format!("load: {:?}", res.as_ref().err()));
            s.acked(&w);
        }
        s.sim_update_ns = Some(Vec::new());
        drive(&mut s, run, warmup);
        let mut sim = s.sim_update_ns.take().expect("collected above");
        sim.sort_unstable();
        s.sim_update_p50_ms = percentile(&sim, 50.0) as f64 / 1e6;
        s.stored_bytes_per_user_byte =
            s.env.disk.durable_bytes() as f64 / s.acked_user_bytes as f64;
        s
    }

    fn env(&mut self) -> &mut Env {
        &mut self.env
    }

    fn step(&mut self, run: &mut Run) {
        let caller = self.caller.clone();
        if self.rng.gen_bool(0.5) {
            let ns = self.read(run, &caller);
            run.rec.record("read", ns);
        } else {
            let ns = self.update(run, &caller);
            run.rec.record("update", ns);
        }
    }

    fn shadow(&mut self) -> &mut Shadow {
        &mut self.shadow
    }

    fn layers(&mut self, run: &mut Run, out: &mut Metrics) {
        const ROUNDS: usize = 10;
        const BLOCK: usize = 100;
        let eu = self.caller.clone();
        let sv = Caller::Service;
        let obs = self.env.svc.obs().clone();

        // Counts over a fixed window of the workload's own updates.
        let sp = self.env.svc.spanner().clone();
        let (commits0, bytes0) = (sp.commit_count(), self.env.disk.durable_bytes());
        let counter = |name: &str| obs.metrics.counter_value(name, &[]) as f64;
        let (fsyncs0, decisions0, residual0) = (
            counter("spanner.redo.fsyncs"),
            counter("rules.decisions"),
            counter("rules.residual_hits"),
        );
        let mut stats = Vec::new();
        for _ in 0..ROUNDS * BLOCK {
            let w = self.next_write();
            let Env { svc, lat, .. } = &mut self.env;
            let (result, _) = svc
                .commit(DB, vec![w.clone()], &eu, lat)
                .expect("counted update");
            run.attempted += 1;
            stats.push(result.stats);
            self.acked(&w);
        }
        let n = stats.len() as f64;
        let commits = (sp.commit_count() - commits0) as f64;
        let fsyncs = counter("spanner.redo.fsyncs") - fsyncs0;
        out.insert(
            "rules.residual_share",
            (counter("rules.residual_hits") - residual0)
                / (counter("rules.decisions") - decisions0),
        );
        let redo_bytes = (self.env.disk.durable_bytes() - bytes0) as f64;
        let mean = |f: &dyn Fn(&firestore_core::write::WriteStats) -> f64| {
            stats.iter().map(f).sum::<f64>() / n
        };
        out.insert(
            "core.index.entries_touched_per_commit",
            mean(&|s| s.index_entries_touched as f64),
        );
        out.insert(
            "core.ledger.engine_cpu_sim_ns_per_commit",
            mean(&|s| s.engine_cpu.as_nanos() as f64),
        );
        out.insert(
            "spanner.participants_per_commit",
            mean(&|s| s.participants as f64),
        );
        out.insert(
            "spanner.lock_wait_sim_ns",
            mean(&|s| s.lock_wait.as_nanos() as f64),
        );
        out.insert(
            "spanner.commit_wait_sim_ns",
            mean(&|s| s.commit_wait.as_nanos() as f64),
        );
        out.insert("spanner.fsyncs_per_commit", fsyncs / commits);
        out.insert("spanner.redo.bytes_per_commit", redo_bytes / commits);
        let live =
            sp.live_bytes(ENTITIES).expect("table") + sp.live_bytes(INDEX_ENTRIES).expect("table");
        let live_user: u64 = self
            .shadow
            .docs
            .iter()
            .map(|(name, fields)| user_bytes(&Write::set(name.clone(), fields.clone())))
            .sum();
        out.insert(
            "spanner.live_bytes_per_user_byte",
            live as f64 / live_user as f64,
        );

        // Peel: the same stream entered at successive depths, interleaved in
        // blocks so every depth sees the same drift.
        #[derive(Default)]
        struct Peel {
            commit_service: Vec<u64>,
            commit_core: Vec<u64>,
            commit_core_no_obs: Vec<u64>,
            commit_spanner: Vec<u64>,
            get_end_user: Vec<u64>,
            get_service: Vec<u64>,
            get_core: Vec<u64>,
        }
        let mut ns = Peel::default();
        for _ in 0..ROUNDS {
            for _ in 0..BLOCK {
                ns.commit_service.push(self.update(run, &sv));
                ns.commit_core.push(self.update_core(run));
                ns.commit_spanner.push(self.update_spanner(run));
                ns.get_end_user.push(self.read(run, &eu));
                ns.get_service.push(self.read(run, &sv));
                let k = self.rng.gen_range(self.names.len() as u64) as usize;
                let name = &self.names[k];
                let t = Instant::now();
                let doc = run.spans.span("core.get_document", |_| {
                    self.env.db.get_document(name, Consistency::Strong, &sv)
                });
                ns.get_core.push(t.elapsed().as_nanos() as u64);
                run.check(
                    matches!(&doc, Ok(d) if self.shadow.agrees(name, d.as_ref())),
                    || format!("core read {name}"),
                );
            }
            // Core depth again with the crates' own tracer and metrics
            // detached: the difference is what the instrumentation costs.
            sp.set_obs(None);
            self.env.svc.realtime().set_obs(None);
            for _ in 0..BLOCK {
                ns.commit_core_no_obs.push(self.update_core(run));
            }
            sp.set_obs(Some(obs.clone()));
            self.env.svc.realtime().set_obs(Some(obs.clone()));
        }
        let med = |v: &[u64]| median(&v.iter().map(|n| *n as f64).collect::<Vec<_>>());
        let (commit_sv, commit_core, commit_raw) = (
            med(&ns.commit_service),
            med(&ns.commit_core),
            med(&ns.commit_spanner),
        );
        let (get_eu, get_sv, get_core) = (
            med(&ns.get_end_user),
            med(&ns.get_service),
            med(&ns.get_core),
        );
        let commit_noobs = med(&ns.commit_core_no_obs);
        out.insert("server.commit.self_us", (commit_sv - commit_core) / 1e3);
        out.insert("server.get.self_us", (get_sv - get_core) / 1e3);
        out.insert("rules.gate.self_us", (get_eu - get_sv) / 1e3);
        out.insert("core.commit.self_us", (commit_core - commit_raw) / 1e3);
        out.insert("spanner.commit.us", commit_raw / 1e3);
        out.insert(
            "simkit.obs.overhead_pct",
            (commit_core / commit_noobs - 1.0) * 100.0,
        );

        // Direct: leaf functions timed in batches on the workload's inputs.
        let dir = self.env.db.directory();
        let keys: Vec<_> = self
            .names
            .iter()
            .take(256)
            .map(|n| dir.key(&n.encode()))
            .collect();
        let ts = sp.strong_read_ts();
        direct(run, out, "spanner.snapshot_read.ns", keys.len(), |i| {
            let row = sp.snapshot_read_versioned(ENTITIES, &keys[i % keys.len()], ts);
            assert!(matches!(std::hint::black_box(row), Ok(Some(_))));
        });
        let docs: Vec<Document> = self
            .shadow
            .docs
            .iter()
            .take(256)
            .map(|(name, fields)| Document::new(name.clone(), fields.clone()))
            .collect();
        let compiled = rules::compile(&rules::parse_ruleset(RULES).expect("rules parse"));
        let requests: Vec<RequestContext> = docs
            .iter()
            .flat_map(|d| {
                let path: Vec<&str> = d.name.segments().iter().map(String::as_str).collect();
                let write = Write::set(d.name.clone(), d.fields.clone());
                [
                    RequestContext::for_document(
                        Method::Get,
                        &path,
                        eu.auth(),
                        Some(firestore_core::write::fields_to_rule(&d.fields)),
                        None,
                    ),
                    write_request_context(&write, Some(d), eu.auth()),
                ]
            })
            .collect();
        direct(run, out, "rules.decide.ns", requests.len(), |i| {
            let d = compiled.decide(&requests[i % requests.len()], &EmptyDataSource);
            assert!(std::hint::black_box(d).allowed);
        });
        direct_document_leaves(&self.env.db, &self.shadow, run, out);
        let scratch = SimDisk::new();
        let record = vec![0u8; (redo_bytes / fsyncs) as usize];
        direct(run, out, "simkit.disk.append_fsync.ns", 100, |_| {
            scratch.append("redo.scratch", &record);
            scratch.fsync("redo.scratch").expect("no faults injected");
        });
    }

    /// Crash, recover from the redo logs alone, and read every acknowledged
    /// write back — on the history the set-up leaves (load + warm-up), so
    /// the time does not depend on how much the timed phase gets done.
    fn drill(&mut self, run: &mut Run, out: &mut Metrics) {
        let sp = self.env.svc.spanner().clone();
        sp.crash();
        let t = Instant::now();
        let report = run.spans.span("spanner.recover", |_| sp.recover());
        let recover_ns = t.elapsed().as_nanos() as f64;
        self.read_back(run);
        out.insert("recovery_ms", t.elapsed().as_nanos() as f64 / 1e6);
        out.insert(
            "spanner.recover.us_per_txn",
            recover_ns / 1e3 / report.replayed_txns.max(1) as f64,
        );
        // Replay brought back every version the GC had dropped; collect
        // them again before timing starts.
        self.env.svc.tick();
    }

    fn finish(&mut self, run: &mut Run, e2e: &mut Metrics, _layer: &mut Metrics) {
        self.read_back(run);
        e2e.insert("read_p50_us", run.rec.us("read", 50.0).expect("reads ran"));
        e2e.insert(
            "update_p50_us",
            run.rec.us("update", 50.0).expect("updates ran"),
        );
        e2e.insert(
            "update_p99_us",
            run.rec.us("update", 99.0).expect("updates ran"),
        );
        e2e.insert(
            "stored_bytes_per_user_byte",
            self.stored_bytes_per_user_byte,
        );
        e2e.insert("sim_update_p50_ms", self.sim_update_p50_ms);
    }
}
