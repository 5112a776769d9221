//! `app_query`: the restaurant-recommendation app of the paper's codelab
//! (§V-D) — four query shapes over `/restaurants`, point reads, and the
//! §IV-D2 add-review transaction.
//!
//! Planner, executor and index scans do most of the work and redo/fsync
//! almost none: the bypass for commit-path optimisations and the target for
//! query ones. The review transaction *writes* the indexes the queries
//! *read* (one entry per field, one per array element, plus the composite),
//! so a scan speed-up paid for in index maintenance shows in `txn_p50_us`.

use crate::catalog::Metrics;
use crate::harness::{
    direct_document_leaves, direct_ns, drive, retry, Env, Fields, Run, Scale, Scenario, Shadow, DB,
};
use crate::stats::median;
use firestore_core::database::create_index_blocking;
use firestore_core::executor::INDEX_ENTRIES;
use firestore_core::index::IndexedField;
use firestore_core::planner::plan_query;
use firestore_core::{
    Caller, Consistency, Direction, Document, DocumentName, FilterOp, FirestoreResult, Query,
    QueryStats, Value, Write,
};
use rules::AuthContext;
use simkit::SimRng;
use std::cmp::Ordering;
use std::time::Instant;

const RESTAURANTS: u64 = 10_000;
const WARMUP_OPS: u64 = 10_000;
const LIMIT: usize = 20;
/// Every this many queries the result is compared with a brute-force answer
/// over the shadow model (every query is checked for filter, order, limit
/// and document contents).
const EXACT_EVERY: u64 = 1_000;
const UID: &str = "alice";

const CITIES: [&str; 8] = ["SF", "NY", "LA", "SEA", "CHI", "AUS", "BOS", "DEN"];
const TYPES: [&str; 10] = [
    "bbq", "deli", "pho", "sushi", "taco", "pizza", "thai", "diner", "vegan", "ramen",
];
const TAGS: [&str; 16] = [
    "patio", "late", "kids", "vegan", "cash", "bar", "view", "quiet", "music", "brunch", "dogs",
    "wifi", "cheap", "fancy", "quick", "local",
];

/// The Figure 3 rules with open reads on restaurants.
const RULES: &str = r#"
service cloud.firestore {
  match /databases/{database}/documents {
    match /restaurants/{restaurant} {
      allow read;
      allow write: if request.auth != null;
      match /ratings/{rating} {
        allow read;
        allow create: if request.auth != null
                      && request.resource.data.userId == request.auth.uid;
        allow update, delete: if false;
      }
    }
  }
}
"#;

/// The four query shapes, by what the planner has to do for them.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `city ==` order by `avgRating` desc: one composite-index scan.
    Composite,
    /// `city ==` ∧ `type ==`: zig-zag join of two single-field indexes.
    ZigZag,
    /// `numRatings >=` order by `numRatings`: one range scan.
    Range,
    /// `tags array-contains`: one scan of the array-element entries.
    ArrayContains,
}

struct Probe {
    shape: Shape,
    query: Query,
    /// What a matching document's field must equal / reach.
    wants: Vec<(&'static str, Value)>,
}

pub struct AppQuery {
    env: Env,
    rng: SimRng,
    names: Vec<DocumentName>,
    shadow: Shadow,
    caller: Caller,
    reviews: u64,
    queries: u64,
    /// Executor counters summed over every query, and how many there were.
    query_totals: (u64, QueryStats),
    /// Index entries touched by the review transactions, and their count.
    txn_totals: (u64, usize),
}

fn restaurants() -> Query {
    Query::parse("/restaurants").expect("valid collection")
}

fn int(fields: &Fields, k: &str) -> i64 {
    match fields.get(k) {
        Some(Value::Int(n)) => *n,
        other => panic!("{k} is {other:?}"),
    }
}

fn double(fields: &Fields, k: &str) -> f64 {
    match fields.get(k) {
        Some(Value::Double(x)) => *x,
        other => panic!("{k} is {other:?}"),
    }
}

impl Probe {
    fn matches(&self, fields: &Fields) -> bool {
        match self.shape {
            Shape::Composite | Shape::ZigZag => {
                self.wants.iter().all(|(k, v)| fields.get(*k) == Some(v))
            }
            Shape::Range => int(fields, "numRatings") >= int_of(&self.wants[0].1),
            Shape::ArrayContains => match fields.get("tags") {
                Some(Value::Array(tags)) => tags.contains(&self.wants[0].1),
                _ => false,
            },
        }
    }

    /// Result order of the shape: the sort field, then the document name in
    /// the direction of the last sort order.
    fn order(&self, a: (&DocumentName, &Fields), b: (&DocumentName, &Fields)) -> Ordering {
        match self.shape {
            Shape::Composite => double(b.1, "avgRating")
                .total_cmp(&double(a.1, "avgRating"))
                .then_with(|| b.0.cmp(a.0)),
            Shape::Range => int(a.1, "numRatings")
                .cmp(&int(b.1, "numRatings"))
                .then_with(|| a.0.cmp(b.0)),
            Shape::ZigZag | Shape::ArrayContains => a.0.cmp(b.0),
        }
    }
}

fn int_of(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        other => panic!("expected an int, got {other:?}"),
    }
}

impl AppQuery {
    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.rng.gen_range(from.len() as u64) as usize]
    }

    fn restaurant(&mut self, i: u64) -> Fields {
        let mut tags: Vec<&str> = Vec::new();
        while tags.len() < 3 {
            let t = self.pick(&TAGS);
            if !tags.contains(&t) {
                tags.push(t);
            }
        }
        [
            ("name".to_string(), Value::from(format!("Restaurant {i}"))),
            ("city".to_string(), Value::from(self.pick(&CITIES))),
            ("type".to_string(), Value::from(self.pick(&TYPES))),
            (
                "price".to_string(),
                Value::Int(1 + self.rng.gen_range(4) as i64),
            ),
            (
                "numRatings".to_string(),
                Value::Int(self.rng.gen_range(200) as i64),
            ),
            (
                "avgRating".to_string(),
                Value::Double((self.rng.gen_range(4_001) as f64) / 1_000.0 + 1.0),
            ),
            (
                "tags".to_string(),
                Value::Array(tags.into_iter().map(Value::from).collect()),
            ),
        ]
        .into()
    }

    fn probe(&mut self, shape: Shape) -> Probe {
        let (query, wants) = match shape {
            Shape::Composite => {
                let city = Value::from(self.pick(&CITIES));
                (
                    restaurants()
                        .filter("city", FilterOp::Eq, city.clone())
                        .order_by("avgRating", Direction::Desc),
                    vec![("city", city)],
                )
            }
            Shape::ZigZag => {
                let city = Value::from(self.pick(&CITIES));
                let kind = Value::from(self.pick(&TYPES));
                (
                    restaurants()
                        .filter("city", FilterOp::Eq, city.clone())
                        .filter("type", FilterOp::Eq, kind.clone()),
                    vec![("city", city), ("type", kind)],
                )
            }
            Shape::Range => {
                let floor = Value::Int(self.rng.gen_range(180) as i64);
                (
                    restaurants()
                        .filter("numRatings", FilterOp::Ge, floor.clone())
                        .order_by("numRatings", Direction::Asc),
                    vec![("numRatings", floor)],
                )
            }
            Shape::ArrayContains => {
                let tag = Value::from(self.pick(&TAGS));
                (
                    restaurants().filter("tags", FilterOp::ArrayContains, tag.clone()),
                    vec![("tags", tag)],
                )
            }
        };
        Probe {
            shape,
            query: query.limit(LIMIT),
            wants,
        }
    }

    /// Every result is the shadow's version of a matching document, in
    /// order, within the limit; `exact` also demands the brute-force answer.
    fn check_result(&self, probe: &Probe, docs: &[Document], exact: bool) -> bool {
        let shadowed = docs
            .iter()
            .all(|d| self.shadow.docs.get(&d.name) == Some(&d.fields) && probe.matches(&d.fields));
        let ordered = docs.windows(2).all(|w| {
            probe
                .order((&w[0].name, &w[0].fields), (&w[1].name, &w[1].fields))
                .is_lt()
        });
        if !shadowed || !ordered || docs.len() > LIMIT {
            return false;
        }
        if !exact {
            return true;
        }
        let mut all: Vec<(&DocumentName, &Fields)> = self
            .shadow
            .docs
            .iter()
            .filter(|(name, fields)| name.segments().len() == 2 && probe.matches(fields))
            .collect();
        all.sort_by(|a, b| probe.order(*a, *b));
        all.truncate(LIMIT);
        all.iter().map(|(n, _)| *n).eq(docs.iter().map(|d| &d.name))
    }

    fn query(&mut self, run: &mut Run, shape: Shape) -> u64 {
        let probe = self.probe(shape);
        let Env { svc, lat, .. } = &mut self.env;
        let caller = &self.caller;
        let t = Instant::now();
        let res = run.spans.span("server.run_query", |_| {
            retry(&mut run.retries, || {
                svc.run_query(DB, &probe.query, caller, lat)
            })
        });
        let ns = t.elapsed().as_nanos() as u64;
        self.queries += 1;
        let exact = self.queries.is_multiple_of(EXACT_EVERY);
        let ok = matches!(&res, Ok((r, _)) if self.check_result(&probe, &r.documents, exact));
        run.check(ok, || format!("query {:?} {:?}", probe.shape, probe.wants));
        if let Ok((r, _)) = res {
            let (n, sum) = &mut self.query_totals;
            *n += 1;
            sum.entries_examined += r.stats.entries_examined;
            sum.entries_returned += r.stats.entries_returned;
            sum.seeks += r.stats.seeks;
            sum.docs_fetched += r.stats.docs_fetched;
        }
        ns
    }

    fn get(&mut self, run: &mut Run) -> u64 {
        let name = &self.names[self.rng.gen_range(self.names.len() as u64) as usize];
        let Env { svc, lat, .. } = &mut self.env;
        let caller = &self.caller;
        let t = Instant::now();
        let got = run.spans.span("server.get_document", |_| {
            retry(&mut run.retries, || svc.get_document(DB, name, caller, lat))
        });
        let ns = t.elapsed().as_nanos() as u64;
        let ok = matches!(&got, Ok((doc, _)) if self.shadow.agrees(name, doc.as_ref()));
        run.check(ok, || format!("get {name}"));
        ns
    }

    /// The §IV-D2 transaction: read the restaurant with a lock, insert the
    /// rating, update the restaurant's aggregates.
    fn add_review(&mut self, run: &mut Run) -> u64 {
        let name = self.names[self.rng.gen_range(self.names.len() as u64) as usize].clone();
        let rating = 1.0 + self.rng.gen_range(5) as f64;
        self.reviews += 1;
        let rating_name = name
            .collection("ratings")
            .doc(&format!("r{:08}", self.reviews));
        let db = &self.env.db;
        let mut writes: Vec<Write> = Vec::new();
        let mut seen = None;
        let t = Instant::now();
        let res = run.spans.span("core.transaction", |_| {
            retry(&mut run.retries, || -> FirestoreResult<_> {
                let mut txn = db.begin_transaction();
                let restaurant = txn.get(&name)?;
                let mut fields = restaurant
                    .as_ref()
                    .map(|d| d.fields.clone())
                    .unwrap_or_default();
                seen = restaurant;
                let n = int(&fields, "numRatings");
                let avg = double(&fields, "avgRating");
                fields.insert("numRatings".into(), Value::Int(n + 1));
                fields.insert(
                    "avgRating".into(),
                    Value::Double((avg * n as f64 + rating) / (n + 1) as f64),
                );
                writes = vec![
                    Write::create(
                        rating_name.clone(),
                        [
                            ("rating", Value::Double(rating)),
                            ("userId", Value::from(UID)),
                            ("text", Value::from("would eat here again")),
                        ],
                    ),
                    Write::set(name.clone(), fields),
                ];
                for w in &writes {
                    txn.write(w.clone());
                }
                txn.commit()
            })
        });
        let ns = t.elapsed().as_nanos() as u64;
        let ok = res.is_ok() && self.shadow.agrees(&name, seen.as_ref());
        run.check(ok, || format!("review of {name}: {:?}", res.as_ref().err()));
        if let Ok(result) = res {
            self.txn_totals.0 += 1;
            self.txn_totals.1 += result.stats.index_entries_touched;
            for w in &writes {
                self.shadow.apply(w);
            }
        }
        ns
    }

    fn shape(&mut self) -> Option<Shape> {
        // 35 / 25 / 10 / 10 % queries, 10 % gets, 10 % reviews.
        match self.rng.gen_range(100) {
            0..=34 => Some(Shape::Composite),
            35..=59 => Some(Shape::ZigZag),
            60..=69 => Some(Shape::Range),
            70..=79 => Some(Shape::ArrayContains),
            _ => None,
        }
    }
}

impl Scenario for AppQuery {
    const KINDS: &'static [&'static str] = &["read", "query", "txn"];

    fn setup(scale: Scale, seed: u64, run: &mut Run) -> AppQuery {
        let warmup = scale.warmup(WARMUP_OPS);
        let names = (0..scale.size(RESTAURANTS))
            .map(|i| DocumentName::parse(&format!("/restaurants/r{i:07}")).expect("valid name"))
            .collect();
        let mut s = AppQuery {
            env: Env::new(seed, Some(RULES), warmup, WARMUP_OPS),
            rng: SimRng::new(seed),
            names,
            shadow: Shadow::default(),
            caller: Caller::EndUser(Some(AuthContext::uid(UID))),
            reviews: 0,
            queries: 0,
            query_totals: Default::default(),
            txn_totals: Default::default(),
        };
        create_index_blocking(
            &s.env.db,
            "restaurants",
            vec![IndexedField::asc("city"), IndexedField::desc("avgRating")],
        )
        .expect("composite index on an empty collection");
        for i in 0..s.names.len() {
            let w = Write::set(s.names[i].clone(), s.restaurant(i as u64));
            let Env { svc, lat, .. } = &mut s.env;
            let res = svc.commit(DB, vec![w.clone()], &s.caller, lat);
            run.check(res.is_ok(), || format!("load: {:?}", res.as_ref().err()));
            s.shadow.apply(&w);
        }
        drive(&mut s, run, warmup);
        s
    }

    fn env(&mut self) -> &mut Env {
        &mut self.env
    }

    fn step(&mut self, run: &mut Run) {
        if let Some(shape) = self.shape() {
            let ns = self.query(run, shape);
            run.rec.record("query", ns);
        } else if self.rng.gen_bool(0.5) {
            let ns = self.get(run);
            run.rec.record("read", ns);
        } else {
            let ns = self.add_review(run);
            run.rec.record("txn", ns);
        }
    }

    fn shadow(&mut self) -> &mut Shadow {
        &mut self.shadow
    }

    fn layers(&mut self, run: &mut Run, out: &mut Metrics) {
        const ROUNDS: usize = 10;
        const BLOCK: usize = 50;
        let sv = Caller::Service;
        let dir = self.env.db.directory();

        // Counts over a fixed window of the workload's own stream.
        self.query_totals = Default::default();
        self.txn_totals = Default::default();
        drive(self, run, (ROUNDS * BLOCK * 4) as u64);
        let (queries, sum) = self.query_totals;
        let (reviews, touched) = self.txn_totals;
        out.insert(
            "core.query.entries_examined_per_result",
            sum.entries_examined as f64 / sum.entries_returned.max(1) as f64,
        );
        out.insert(
            "core.query.seeks_per_query",
            sum.seeks as f64 / queries as f64,
        );
        out.insert(
            "core.query.docs_fetched_per_query",
            sum.docs_fetched as f64 / queries as f64,
        );
        out.insert(
            "core.index.entries_touched_per_commit",
            touched as f64 / reviews as f64,
        );

        // Peel: the query stream at service and core depth (privileged
        // caller on both, so the difference is the service's own work), and
        // planning alone.
        let (mut at_service, mut at_core, mut plan) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            for _ in 0..BLOCK {
                let shape = loop {
                    if let Some(s) = self.shape() {
                        break s;
                    }
                };
                let probe = self.probe(shape);
                let Env { svc, db, lat, .. } = &mut self.env;
                let t = Instant::now();
                let r = run.spans.span("server.run_query", |_| {
                    svc.run_query(DB, &probe.query, &sv, lat)
                });
                at_service.push(t.elapsed().as_nanos() as f64);
                let t = Instant::now();
                let c = run.spans.span("core.run_query", |_| {
                    db.run_query(&probe.query, Consistency::Strong, &sv)
                });
                at_core.push(t.elapsed().as_nanos() as f64);
                let t = Instant::now();
                let p = run.spans.span("core.plan_query", |_| {
                    db.with_catalog(|c| plan_query(c, dir, &probe.query))
                });
                plan.push(t.elapsed().as_nanos() as f64);
                let ok = p.is_ok()
                    && matches!((&r, &c), (Ok((r, _)), Ok(c))
                        if r.documents == c.documents && self.check_result(&probe, &c.documents, false));
                run.check(ok, || format!("peeled query {:?}", probe.shape));
            }
        }
        out.insert(
            "server.query.self_us",
            (median(&at_service) - median(&at_core)) / 1e3,
        );
        out.insert("core.plan.ns", median(&plan));
        out.insert("core.execute.us", (median(&at_core) - median(&plan)) / 1e3);

        // Direct: leaf functions in batches on the workload's documents.
        let sp = self.env.svc.spanner().clone();
        let ts = sp.strong_read_ts();
        let range = dir.range();
        out.insert(
            "spanner.scan.ns_per_row",
            run.spans.span("spanner.snapshot_scan", |_| {
                direct_ns(20, 10, |_| {
                    let rows = sp
                        .snapshot_scan(INDEX_ENTRIES, &range, ts, 1_000)
                        .expect("scan");
                    assert_eq!(std::hint::black_box(rows).len(), 1_000);
                }) / 1_000.0
            }),
        );
        direct_document_leaves(&self.env.db, &self.shadow, run, out);
    }

    fn finish(&mut self, run: &mut Run, e2e: &mut Metrics, _layer: &mut Metrics) {
        // Every restaurant and every rating the model holds is readable
        // and equal.
        let names: Vec<DocumentName> = self.shadow.docs.keys().cloned().collect();
        for name in &names {
            let got = self
                .env
                .db
                .get_document(name, Consistency::Strong, &Caller::Service);
            let ok = matches!(&got, Ok(doc) if self.shadow.agrees(name, doc.as_ref()));
            run.check(ok, || format!("final read of {name}"));
        }
        e2e.insert("read_p50_us", run.rec.us("read", 50.0).expect("gets ran"));
        e2e.insert(
            "query_p50_us",
            run.rec.us("query", 50.0).expect("queries ran"),
        );
        e2e.insert(
            "query_p99_us",
            run.rec.us("query", 99.0).expect("queries ran"),
        );
        e2e.insert("txn_p50_us", run.rec.us("txn", 50.0).expect("reviews ran"));
    }
}
