//! Differential equivalence suite: the compiled rules decision tree
//! ([`rules::compile`]) against the reference interpreter ([`rules::eval`]).
//!
//! Every case builds a random ruleset AST, compiles it, and runs the same
//! requests through both engines, asserting the full [`Decision`] (grant
//! *and* first-match rule id) is identical. Failures are shrunk greedily —
//! roots, allows, and nested blocks are removed while the divergence
//! persists — and reported as a rendered minimal ruleset plus the request,
//! so a nightly-seed failure is directly replayable.
//!
//! Generation is seeded like the rules property tests: fixed default seed
//! (CI reproducible), `RULES_SEED=<u64>` explores a fresh corner, and
//! `RULES_CASES=<n>` scales the corpus (default 1000 rulesets, 4 requests
//! each). The seeded [`LoweringMutation`]s are proven *caught*: each one
//! makes the compiled engine diverge from the interpreter on targeted
//! cases and on a fixed corpus sweep.

mod common;

use proptest::test_runner::TestRng;
use rules::ast::*;
use rules::compile;
use rules::eval::Decision;
use rules::render::render_ruleset;
use rules::value::RuleValue;
use rules::{AuthContext, EmptyDataSource, LoweringMutation, Method, RequestContext, Ruleset};

const DEFAULT_SEED: u64 = 0xF1DE_5703;

fn seed() -> u64 {
    common::env_or("RULES_SEED", DEFAULT_SEED)
}

fn cases() -> usize {
    common::env_or("RULES_CASES", 1000)
}

// --- generators ----------------------------------------------------------
//
// Same TestRng idiom as crates/rules/tests/properties.rs (test crates can't
// import each other), but biased so requests actually hit rule patterns:
// path segments and wildcard names come from small fixed pools, and
// conditions mix indexable shapes (auth checks, literal comparisons, `in`
// lists) with fully random expressions that only the residual path can
// evaluate.

/// Literal path segments: tiny pool so random requests collide with them.
const SEGS: &[&str] = &["a", "b", "c", "users", "docs"];
/// Wildcard binding names: conditions reference these (bound or not).
const WILDS: &[&str] = &["w1", "w2", "w3"];
/// User ids for auth contexts and uid comparisons.
const UIDS: &[&str] = &["u1", "u2", "zed"];

fn gen_ident(rng: &mut TestRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    loop {
        let len = rng.usize_in(1, 9);
        let mut s = String::new();
        s.push(FIRST[rng.usize_in(0, FIRST.len())] as char);
        for _ in 1..len {
            s.push(REST[rng.usize_in(0, REST.len())] as char);
        }
        if !matches!(s.as_str(), "true" | "false" | "null" | "in") {
            return s;
        }
    }
}

fn gen_lit(rng: &mut TestRng) -> RuleValue {
    match rng.below(5) {
        0 => RuleValue::Null,
        1 => RuleValue::Bool(rng.chance(1, 2)),
        2 => RuleValue::Int(rng.below(50) as i64),
        3 => RuleValue::Float(rng.below(50) as f64 + 0.5),
        _ => RuleValue::Str(UIDS[rng.usize_in(0, UIDS.len())].to_string()),
    }
}

fn gen_binop(rng: &mut TestRng) -> BinOp {
    const OPS: &[BinOp] = &[
        BinOp::Or,
        BinOp::And,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::In,
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Mod,
    ];
    OPS[rng.usize_in(0, OPS.len())]
}

/// Fully random expression (mostly lowers to the residual path).
fn gen_expr(rng: &mut TestRng, depth: usize) -> Expr {
    if depth == 0 || rng.chance(1, 4) {
        return if rng.chance(1, 3) {
            let name = if rng.chance(1, 2) {
                WILDS[rng.usize_in(0, WILDS.len())].to_string()
            } else {
                gen_ident(rng)
            };
            Expr::Var(name)
        } else {
            Expr::Lit(gen_lit(rng))
        };
    }
    match rng.below(6) {
        0 => Expr::Member(Box::new(gen_expr(rng, depth - 1)), gen_ident(rng)),
        1 => Expr::Unary(
            if rng.chance(1, 2) {
                UnaryOp::Not
            } else {
                UnaryOp::Neg
            },
            Box::new(gen_expr(rng, depth - 1)),
        ),
        2 | 3 => Expr::Binary(
            gen_binop(rng),
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        4 => {
            let n = rng.usize_in(0, 4);
            Expr::List((0..n).map(|_| gen_expr(rng, depth - 1)).collect())
        }
        _ => Expr::Index(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
    }
}

fn auth_uid() -> Expr {
    Expr::Member(
        Box::new(Expr::Member(
            Box::new(Expr::Var("request".into())),
            "auth".into(),
        )),
        "uid".into(),
    )
}

fn auth() -> Expr {
    Expr::Member(Box::new(Expr::Var("request".into())), "auth".into())
}

fn lit_str(s: &str) -> Expr {
    Expr::Lit(RuleValue::Str(s.to_string()))
}

/// Condition generator biased towards the compiler's indexable predicate
/// shapes, with random residual expressions mixed in.
fn gen_cond(rng: &mut TestRng, depth: usize) -> Expr {
    match rng.below(10) {
        // request.auth != null / == null  →  auth-present nodes
        0 => Expr::Binary(
            if rng.chance(1, 2) { BinOp::Ne } else { BinOp::Eq },
            Box::new(auth()),
            Box::new(Expr::Lit(RuleValue::Null)),
        ),
        // request.auth.uid == 'u'  →  eq nodes (either operand order)
        1 => {
            let uid = lit_str(UIDS[rng.usize_in(0, UIDS.len())]);
            if rng.chance(1, 2) {
                Expr::Binary(BinOp::Eq, Box::new(auth_uid()), Box::new(uid))
            } else {
                Expr::Binary(BinOp::Eq, Box::new(uid), Box::new(auth_uid()))
            }
        }
        // request.auth.uid < 'm' (all four ops, literal on either side)
        2 => {
            let op = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge][rng.usize_in(0, 4)];
            let bound = lit_str(["m", "u1", "zz"][rng.usize_in(0, 3)]);
            if rng.chance(1, 2) {
                Expr::Binary(op, Box::new(auth_uid()), Box::new(bound))
            } else {
                Expr::Binary(op, Box::new(bound), Box::new(auth_uid()))
            }
        }
        // request.auth.uid in ['u1', 'u2']  →  in-set nodes
        3 => {
            let n = rng.usize_in(0, 3);
            let items = (0..n)
                .map(|_| lit_str(UIDS[rng.usize_in(0, UIDS.len())]))
                .collect();
            Expr::Binary(BinOp::In, Box::new(auth_uid()), Box::new(Expr::List(items)))
        }
        // wildcard binding comparisons (bound by the pattern, or not —
        // unbound variables must deny identically in both engines)
        4 => Expr::Binary(
            if rng.chance(1, 2) { BinOp::Eq } else { BinOp::Ne },
            Box::new(Expr::Var(WILDS[rng.usize_in(0, WILDS.len())].to_string())),
            Box::new(lit_str(SEGS[rng.usize_in(0, SEGS.len())])),
        ),
        // constants
        5 => Expr::Lit(RuleValue::Bool(rng.chance(2, 3))),
        // boolean combinators over smaller conditions
        6 | 7 if depth > 0 => Expr::Binary(
            if rng.chance(1, 2) { BinOp::And } else { BinOp::Or },
            Box::new(gen_cond(rng, depth - 1)),
            Box::new(gen_cond(rng, depth - 1)),
        ),
        8 if depth > 0 => Expr::Unary(UnaryOp::Not, Box::new(gen_cond(rng, depth - 1))),
        // anything else: the residual path
        _ => gen_expr(rng, 3),
    }
}

fn gen_segment(rng: &mut TestRng) -> Segment {
    match rng.below(5) {
        0..=2 => Segment::Literal(SEGS[rng.usize_in(0, SEGS.len())].to_string()),
        3 => Segment::Single(WILDS[rng.usize_in(0, WILDS.len())].to_string()),
        _ => Segment::Recursive(WILDS[rng.usize_in(0, WILDS.len())].to_string()),
    }
}

fn gen_allow(rng: &mut TestRng) -> Allow {
    const SPECS: &[MethodSpec] = &[
        MethodSpec::Read,
        MethodSpec::Write,
        MethodSpec::Get,
        MethodSpec::List,
        MethodSpec::Create,
        MethodSpec::Update,
        MethodSpec::Delete,
    ];
    let n = rng.usize_in(1, 3);
    Allow {
        methods: (0..n).map(|_| SPECS[rng.usize_in(0, SPECS.len())]).collect(),
        condition: gen_cond(rng, 2),
    }
}

fn gen_match(rng: &mut TestRng, depth: usize) -> MatchBlock {
    let nseg = rng.usize_in(1, 3);
    let nallow = rng.usize_in(0, 3);
    let nchild = if depth == 0 { 0 } else { rng.usize_in(0, 2) };
    MatchBlock {
        pattern: (0..nseg).map(|_| gen_segment(rng)).collect(),
        allows: (0..nallow).map(|_| gen_allow(rng)).collect(),
        children: (0..nchild).map(|_| gen_match(rng, depth - 1)).collect(),
    }
}

fn gen_ruleset(rng: &mut TestRng) -> Ruleset {
    let n = rng.usize_in(1, 3);
    Ruleset {
        roots: (0..n).map(|_| gen_match(rng, 2)).collect(),
    }
}

fn gen_request(rng: &mut TestRng) -> RequestContext {
    const METHODS: &[Method] = &[
        Method::Get,
        Method::List,
        Method::Create,
        Method::Update,
        Method::Delete,
    ];
    let method = METHODS[rng.usize_in(0, METHODS.len())];
    let nseg = rng.usize_in(1, 5);
    let path: Vec<String> = (0..nseg)
        .map(|_| SEGS[rng.usize_in(0, SEGS.len())].to_string())
        .collect();
    let path_refs: Vec<&str> = path.iter().map(String::as_str).collect();
    let auth = match rng.below(4) {
        0 => None,
        _ => {
            let mut a = AuthContext::uid(UIDS[rng.usize_in(0, UIDS.len())]);
            if rng.chance(1, 3) {
                a.token
                    .insert("admin".to_string(), RuleValue::Bool(rng.chance(1, 2)));
            }
            Some(a)
        }
    };
    let data = |rng: &mut TestRng| {
        rng.chance(1, 2).then(|| {
            RuleValue::map([
                (
                    "userId",
                    RuleValue::Str(UIDS[rng.usize_in(0, UIDS.len())].to_string()),
                ),
                ("v", RuleValue::Int(rng.below(10) as i64)),
            ])
        })
    };
    let resource_data = data(rng);
    let request_data = data(rng);
    RequestContext::for_document(method, &path_refs, auth, resource_data, request_data)
}

// --- differential comparison + shrinking ---------------------------------

fn decisions(rs: &Ruleset, req: &RequestContext) -> (Decision, Decision) {
    let interp = rs.decide(req, &EmptyDataSource);
    let compiled = compile(rs).decide(req, &EmptyDataSource);
    (interp, compiled)
}

fn diverges(rs: &Ruleset, req: &RequestContext) -> bool {
    let (i, c) = decisions(rs, req);
    i != c
}

/// All single-step reductions of a ruleset: drop a root, or reduce one
/// block (drop an allow, drop a child, or reduce a child in place).
fn variants(rs: &Ruleset) -> Vec<Ruleset> {
    let mut out = Vec::new();
    for i in 0..rs.roots.len() {
        if rs.roots.len() > 1 {
            let mut c = rs.clone();
            c.roots.remove(i);
            out.push(c);
        }
        for v in block_variants(&rs.roots[i]) {
            let mut c = rs.clone();
            c.roots[i] = v;
            out.push(c);
        }
    }
    out
}

fn block_variants(b: &MatchBlock) -> Vec<MatchBlock> {
    let mut out = Vec::new();
    for j in 0..b.allows.len() {
        let mut c = b.clone();
        c.allows.remove(j);
        out.push(c);
    }
    for k in 0..b.children.len() {
        let mut c = b.clone();
        c.children.remove(k);
        out.push(c);
        for v in block_variants(&b.children[k]) {
            let mut c = b.clone();
            c.children[k] = v;
            out.push(c);
        }
    }
    out
}

/// Greedily shrink a diverging (ruleset, request) to a minimal ruleset
/// that still diverges.
fn shrink(mut rs: Ruleset, req: &RequestContext) -> Ruleset {
    loop {
        match variants(&rs).into_iter().find(|v| diverges(v, req)) {
            Some(smaller) => rs = smaller,
            None => return rs,
        }
    }
}

fn report_divergence(seed: u64, case: usize, rs: &Ruleset, req: &RequestContext) -> ! {
    let minimal = shrink(rs.clone(), req);
    let (interp, compiled) = decisions(&minimal, req);
    let rendered = format!(
        "seed {seed:#x} case {case}: compiled rules diverged from the \
         interpreter\n  interpreter: {interp:?}\n  compiled:    {compiled:?}\n\
         request: {:?} /{} auth={:?}\nminimal ruleset:\n{}",
        req.method,
        req.path.join("/"),
        req.auth.as_ref().map(|a| a.uid.as_str()),
        render_ruleset(&minimal),
    );
    // Persist the shrunk counterexample for CI's failure-artifact upload.
    let path = common::artifact_path(&format!("rules_counterexample_{seed:#x}_{case}.txt"));
    if std::fs::write(&path, &rendered).is_ok() {
        eprintln!("(counterexample written to {})", path.display());
    }
    panic!("{rendered}");
}

// --- 1. the corpus: compiled ≡ interpreter -------------------------------

#[test]
fn compiled_tree_equals_interpreter_on_random_corpus() {
    let seed = seed();
    let cases = cases();
    let mut rng = TestRng::from_seed(seed);
    let mut comparisons = 0usize;
    let mut decisions_total = 0u64;
    let mut residual_total = 0u64;
    for case in 0..cases {
        let rs = gen_ruleset(&mut rng);
        let compiled = compile(&rs);
        assert_eq!(
            compiled.rule_count(),
            rs.rule_count(),
            "seed {seed:#x} case {case}: rule-id spaces differ"
        );
        for _ in 0..4 {
            let req = gen_request(&mut rng);
            let interp = rs.decide(&req, &EmptyDataSource);
            let comp = compiled.decide(&req, &EmptyDataSource);
            if interp != comp {
                report_divergence(seed, case, &rs, &req);
            }
            comparisons += 1;
        }
        let (d, h) = compiled.counters().snapshot();
        decisions_total += d;
        residual_total += h;
    }
    assert!(comparisons >= 4000 || cases < 1000, "{comparisons}");
    // Residual-fallback hit rate over the corpus: the generator mixes
    // indexable condition shapes with fully random expressions, so the
    // counters must see both specialised decisions (rate < 1) and
    // interpreter fallbacks (hits > 0). This is the observable behind the
    // `rules.residual_hits` metric.
    assert_eq!(decisions_total, comparisons as u64);
    assert!(residual_total > 0, "corpus never hit the residual path");
    assert!(
        residual_total < decisions_total,
        "every decision fell back to the interpreter — the lowering \
         specialises nothing"
    );
    println!(
        "residual fallback hit rate: {residual_total}/{decisions_total} \
         decisions ({:.1}%)",
        100.0 * residual_total as f64 / decisions_total as f64
    );
}

// --- 1b. the residual-hit counters themselves -----------------------------

#[test]
fn residual_counters_track_interpreter_fallbacks() {
    // Fully specialised ruleset: decisions count up, residual hits stay 0.
    let specialised = rules::parse_ruleset(
        r#"
        service cloud.firestore {
          match /databases/{database}/documents {
            match /docs/{d} {
              allow read: if request.auth != null;
            }
          }
        }
    "#,
    )
    .unwrap();
    let compiled = compile(&specialised);
    let req = RequestContext::for_document(
        Method::Get,
        &["docs", "d1"],
        Some(AuthContext::uid("u1")),
        None,
        None,
    );
    for _ in 0..3 {
        assert!(compiled.decide(&req, &EmptyDataSource).allowed);
    }
    assert_eq!(compiled.counters().snapshot(), (3, 0));

    // A bare member-chain condition is one the lowering can't specialise
    // (it only special-cases `== / < / in` shapes), so it stays a residual
    // predicate; every decision that evaluates it is a hit.
    let residual = rules::parse_ruleset(
        r#"
        service cloud.firestore {
          match /databases/{database}/documents {
            match /docs/{d} {
              allow read: if request.auth.token.admin;
            }
          }
        }
    "#,
    )
    .unwrap();
    let compiled = compile(&residual);
    let mut admin = AuthContext::uid("u1");
    admin
        .token
        .insert("admin".to_string(), rules::value::RuleValue::Bool(true));
    let req = RequestContext::for_document(
        Method::Get,
        &["docs", "d1"],
        Some(admin),
        None,
        None,
    );
    for _ in 0..3 {
        assert!(compiled.decide(&req, &EmptyDataSource).allowed);
    }
    assert_eq!(compiled.counters().snapshot(), (3, 3));

    // Off-tree requests never reach the predicate: decision counted, no
    // residual hit.
    let miss = RequestContext::for_document(Method::Get, &["elsewhere"], None, None, None);
    assert!(!compiled.decide(&miss, &EmptyDataSource).allowed);
    assert_eq!(compiled.counters().snapshot(), (4, 3));
}

// --- 2. the lowering hits the indexable fast paths ------------------------

#[test]
fn targeted_conditions_lower_to_indexed_nodes() {
    let src = r#"
        service cloud.firestore {
          match /databases/{database}/documents {
            match /docs/{w1} {
              allow get: if request.auth != null;
              allow list: if request.auth.uid == 'u1';
              allow create: if request.auth.uid < 'm';
              allow update: if request.auth.uid in ['u1', 'u2'];
              allow delete: if w1 == request.auth.uid && request.auth != null;
            }
          }
        }
    "#;
    let rs = rules::parse_ruleset(src).unwrap();
    let compiled = compile(&rs);
    let tree = compiled.render();
    for marker in ["auth-present", "eq", "range(<)", "in-set", "all"] {
        assert!(tree.contains(marker), "missing {marker} in:\n{tree}");
    }
    // And the fast paths agree with the interpreter on every method/auth.
    for uid in [None, Some("u1"), Some("u2"), Some("zed")] {
        for method in [
            Method::Get,
            Method::List,
            Method::Create,
            Method::Update,
            Method::Delete,
        ] {
            let req = RequestContext::for_document(
                method,
                &["docs", "d1"],
                uid.map(AuthContext::uid),
                None,
                None,
            );
            assert_eq!(
                rs.decide(&req, &EmptyDataSource),
                compiled.decide(&req, &EmptyDataSource),
                "{method:?} uid={uid:?}"
            );
        }
    }
}

// --- 3. seeded mutations are caught --------------------------------------

fn fig_range_ruleset() -> Ruleset {
    rules::parse_ruleset(
        r#"
        service cloud.firestore {
          match /databases/{database}/documents {
            match /docs/{d} {
              allow read: if request.auth.uid < 'm';
            }
          }
        }
    "#,
    )
    .unwrap()
}

#[test]
fn swapped_range_bound_mutation_is_caught() {
    let rs = fig_range_ruleset();
    let req = RequestContext::for_document(
        Method::Get,
        &["docs", "d1"],
        Some(AuthContext::uid("alice")),
        None,
        None,
    );
    let mut compiled = compile(&rs);
    assert_eq!(rs.decide(&req, &EmptyDataSource), compiled.decide(&req, &EmptyDataSource));
    compiled.set_mutation(Some(LoweringMutation::SwappedRangeBound));
    assert_ne!(
        rs.decide(&req, &EmptyDataSource),
        compiled.decide(&req, &EmptyDataSource),
        "the differential must observe the swapped bound"
    );
}

#[test]
fn dropped_fallback_mutation_is_caught() {
    let rs = fig_range_ruleset();
    // A request no rule matches: on_no_match must deny.
    let req = RequestContext::for_document(
        Method::Get,
        &["elsewhere", "x"],
        Some(AuthContext::uid("alice")),
        None,
        None,
    );
    let mut compiled = compile(&rs);
    assert_eq!(
        rs.decide(&req, &EmptyDataSource),
        compiled.decide(&req, &EmptyDataSource)
    );
    compiled.set_mutation(Some(LoweringMutation::DroppedFallback));
    assert_ne!(
        rs.decide(&req, &EmptyDataSource),
        compiled.decide(&req, &EmptyDataSource),
        "the differential must observe the missing deny fallback"
    );
}

#[test]
fn shadow_reorder_mutation_is_caught() {
    // Two rules cover the same request; first-match must report the
    // earlier rule id. Reordering shadows it.
    let rs = rules::parse_ruleset(
        r#"
        service cloud.firestore {
          match /databases/{database}/documents {
            match /docs/{d} {
              allow read: if true;
              allow read: if request.auth != null;
            }
          }
        }
    "#,
    )
    .unwrap();
    let req = RequestContext::for_document(
        Method::Get,
        &["docs", "d1"],
        Some(AuthContext::uid("alice")),
        None,
        None,
    );
    let mut compiled = compile(&rs);
    assert_eq!(
        rs.decide(&req, &EmptyDataSource),
        compiled.decide(&req, &EmptyDataSource)
    );
    compiled.set_mutation(Some(LoweringMutation::ShadowReorder));
    assert_ne!(
        rs.decide(&req, &EmptyDataSource),
        compiled.decide(&req, &EmptyDataSource),
        "the differential must observe the shadowed first match"
    );
}

#[test]
fn every_mutation_is_caught_by_a_fixed_corpus_sweep() {
    // Internal fixed seed (independent of RULES_SEED): this test asserts
    // the *suite's power* against each mutation, and must not flake when
    // the nightly job randomizes the corpus seed.
    const SWEEP_SEED: u64 = 0xD1FF_0001;
    for mutation in [
        LoweringMutation::SwappedRangeBound,
        LoweringMutation::DroppedFallback,
        LoweringMutation::ShadowReorder,
    ] {
        let mut rng = TestRng::from_seed(SWEEP_SEED);
        let mut caught = false;
        'outer: for _ in 0..400 {
            let rs = gen_ruleset(&mut rng);
            let mut compiled = compile(&rs);
            compiled.set_mutation(Some(mutation));
            for _ in 0..4 {
                let req = gen_request(&mut rng);
                if rs.decide(&req, &EmptyDataSource) != compiled.decide(&req, &EmptyDataSource) {
                    caught = true;
                    break 'outer;
                }
            }
        }
        assert!(
            caught,
            "{mutation:?} survived a 400-ruleset differential sweep — the \
             suite has lost its mutation-killing power"
        );
    }
}
