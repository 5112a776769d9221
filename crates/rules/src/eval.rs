//! Evaluation of rulesets against requests.
//!
//! Semantics (matching production Firestore rules):
//!
//! * Every `match` chain whose concatenated pattern covers the *entire*
//!   request path contributes its `allow` statements; access is granted if
//!   any applicable condition evaluates to `true`.
//! * A `{name=**}` recursive wildcard consumes all remaining segments
//!   (at least one) and binds them as a `/`-joined string.
//! * Conditions see `request` (auth, method, path, resource = incoming data),
//!   `resource` (the stored document), wildcard bindings, and may call
//!   `get()`/`exists()` to inspect other documents through a [`DataSource`] —
//!   the hook the Firestore Backend implements transactionally (§III-E:
//!   "executed in a transactionally-consistent fashion with the operation
//!   being authorized").
//! * Any evaluation error makes the condition false: errors never grant.

use crate::ast::*;
use crate::value::RuleValue;
use std::collections::BTreeMap;
use std::fmt;

/// Resolves `get()`/`exists()` document lookups during evaluation.
///
/// Paths passed here are document path segments relative to the documents
/// root (the standard `/databases/{db}/documents` prefix is stripped).
pub trait DataSource {
    /// The stored data (a map) of the document at `path`, `Ok(None)` if it
    /// does not exist, or an error if the lookup itself failed (storage
    /// unavailable, lock conflict). A failed lookup is an evaluation error,
    /// so it never grants access.
    fn get_document(&self, path: &[String]) -> Result<Option<RuleValue>, EvalError>;
}

/// A data source with no documents (for rulesets that never call `get`).
pub struct EmptyDataSource;

impl DataSource for EmptyDataSource {
    fn get_document(&self, _path: &[String]) -> Result<Option<RuleValue>, EvalError> {
        Ok(None)
    }
}

/// The authenticated end user, as provided by Firebase Authentication
/// (paper §III-E). `None` in a [`RequestContext`] means unauthenticated.
#[derive(Clone, Debug, PartialEq)]
pub struct AuthContext {
    /// Stable user id.
    pub uid: String,
    /// Identity-token claims (email, name, custom claims, ...).
    pub token: BTreeMap<String, RuleValue>,
}

impl AuthContext {
    /// An auth context with just a uid.
    pub fn uid(uid: impl Into<String>) -> Self {
        AuthContext {
            uid: uid.into(),
            token: BTreeMap::new(),
        }
    }

    fn to_value(&self) -> RuleValue {
        RuleValue::map([
            ("uid", RuleValue::Str(self.uid.clone())),
            ("token", RuleValue::Map(self.token.clone())),
        ])
    }
}

/// One operation to authorize.
#[derive(Clone, Debug)]
pub struct RequestContext {
    /// The concrete method.
    pub method: Method,
    /// Full path segments, including the `databases/{db}/documents` prefix.
    pub path: Vec<String>,
    /// The end user, or `None` for unauthenticated access.
    pub auth: Option<AuthContext>,
    /// The stored document's data (a map), if it exists.
    pub resource_data: Option<RuleValue>,
    /// The incoming document's data (a map), for create/update.
    pub request_data: Option<RuleValue>,
}

impl RequestContext {
    /// Build a request for a document path relative to the documents root
    /// (e.g. `["restaurants", "one", "ratings", "2"]`), automatically
    /// prefixing the standard `databases/(default)/documents`.
    pub fn for_document(
        method: Method,
        doc_path: &[&str],
        auth: Option<AuthContext>,
        resource_data: Option<RuleValue>,
        request_data: Option<RuleValue>,
    ) -> Self {
        let mut path = vec![
            "databases".to_string(),
            "(default)".to_string(),
            "documents".to_string(),
        ];
        path.extend(doc_path.iter().map(|s| s.to_string()));
        RequestContext {
            method,
            path,
            auth,
            resource_data,
            request_data,
        }
    }

    fn request_value(&self) -> RuleValue {
        let auth = self.auth.as_ref().map_or(RuleValue::Null, |a| a.to_value());
        let resource = self
            .request_data
            .clone()
            .map_or(RuleValue::Null, |data| RuleValue::map([("data", data)]));
        RuleValue::map([
            ("auth", auth),
            ("method", RuleValue::Str(self.method.name().to_string())),
            ("path", RuleValue::Str(self.path.join("/"))),
            ("resource", resource),
        ])
    }

    fn resource_value(&self) -> RuleValue {
        match &self.resource_data {
            None => RuleValue::Null,
            Some(data) => RuleValue::map([
                ("data", data.clone()),
                (
                    "id",
                    RuleValue::Str(self.path.last().cloned().unwrap_or_default()),
                ),
                ("name", RuleValue::Str(self.path.join("/"))),
            ]),
        }
    }
}

/// An expression evaluation error. Errors deny access; they are surfaced for
/// diagnostics and tests.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalError {
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rules evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

fn err<T>(message: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError {
        message: message.into(),
    })
}

/// The outcome of authorizing one request: whether access was granted and,
/// if so, by which `allow` statement.
///
/// Rule ids are *stable pre-order positions* shared between the interpreter
/// and the compiled decision tree ([`crate::compile::CompiledRules`]): roots
/// in source order, and within each match block the allows before the
/// children. The differential suites compare full decisions, not just the
/// boolean, so a compiled tree that grants for the *wrong* rule (e.g. a
/// shadowing reorder) is still a detected divergence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Whether access is granted.
    pub allowed: bool,
    /// The granting allow statement's pre-order id, when granted.
    pub rule: Option<u32>,
}

impl Decision {
    /// The deny fallback: no rule matched (or every condition was false).
    pub const DENY: Decision = Decision {
        allowed: false,
        rule: None,
    };
}

/// Number of allow statements in `block` and all its descendants — the
/// width of the pre-order id range a block occupies.
pub(crate) fn rules_in(block: &MatchBlock) -> u32 {
    block.allows.len() as u32
        + block
            .children
            .iter()
            .map(rules_in)
            .sum::<u32>()
}

pub(crate) struct Evaluator<'a> {
    request: RuleValue,
    resource: RuleValue,
    bindings: Vec<(String, RuleValue)>,
    data: &'a dyn DataSource,
}

impl Ruleset {
    /// Whether `request` is allowed by this ruleset.
    pub fn allows(&self, request: &RequestContext, data: &dyn DataSource) -> bool {
        self.decide(request, data).allowed
    }

    /// Authorize `request`, reporting which allow statement granted it.
    pub fn decide(&self, request: &RequestContext, data: &dyn DataSource) -> Decision {
        let mut ev = Evaluator::for_request(request, data, Vec::new());
        let mut base = 0u32;
        for block in &self.roots {
            let depth = ev.bindings.len();
            if let Some(rule) = ev.block_decide(block, &request.path, request.method, base) {
                return Decision {
                    allowed: true,
                    rule: Some(rule),
                };
            }
            ev.bindings.truncate(depth);
            base += rules_in(block);
        }
        Decision::DENY
    }

    /// Total number of allow statements (the pre-order id space size).
    pub fn rule_count(&self) -> u32 {
        self.roots.iter().map(rules_in).sum()
    }
}

impl<'a> Evaluator<'a> {
    /// An evaluator for one request with pre-computed wildcard `bindings`
    /// (the compiled tree reconstructs them from the leaf's bind table).
    pub(crate) fn for_request(
        request: &RequestContext,
        data: &'a dyn DataSource,
        bindings: Vec<(String, RuleValue)>,
    ) -> Evaluator<'a> {
        Evaluator {
            request: request.request_value(),
            resource: request.resource_value(),
            bindings,
            data,
        }
    }

    /// Try to match `block` against `path`; if the block (or a descendant)
    /// fully consumes the path and has a granting allow, return its id
    /// (offset from `base`, the block's first pre-order id).
    fn block_decide(
        &mut self,
        block: &MatchBlock,
        path: &[String],
        method: Method,
        base: u32,
    ) -> Option<u32> {
        let binding_depth = self.bindings.len();
        let result = self.match_pattern_and_check(block, path, 0, method, base);
        self.bindings.truncate(binding_depth);
        result
    }

    fn match_pattern_and_check(
        &mut self,
        block: &MatchBlock,
        path: &[String],
        seg: usize,
        method: Method,
        base: u32,
    ) -> Option<u32> {
        if seg == block.pattern.len() {
            let rest = path;
            if rest.is_empty() {
                // Full path consumed: this block's allows apply, first
                // granting one wins (ties in `allows` are unobservable, but
                // the id of the *first* true condition is the decision).
                for (i, a) in block.allows.iter().enumerate() {
                    if a.methods.iter().any(|m| m.covers(method))
                        && self
                            .eval(&a.condition)
                            .map(|v| v.is_true())
                            .unwrap_or(false)
                    {
                        return Some(base + i as u32);
                    }
                }
            } else {
                // Remaining path: descend into children.
                let mut child_base = base + block.allows.len() as u32;
                for child in &block.children {
                    let depth = self.bindings.len();
                    if let Some(id) =
                        self.match_pattern_and_check(child, rest, 0, method, child_base)
                    {
                        return Some(id);
                    }
                    self.bindings.truncate(depth);
                    child_base += rules_in(child);
                }
            }
            return None;
        }
        if path.is_empty() {
            return None;
        }
        match &block.pattern[seg] {
            Segment::Literal(lit) => {
                if &path[0] == lit {
                    self.match_pattern_and_check(block, &path[1..], seg + 1, method, base)
                } else {
                    None
                }
            }
            Segment::Single(name) => {
                self.bindings
                    .push((name.clone(), RuleValue::Str(path[0].clone())));
                let ok = self.match_pattern_and_check(block, &path[1..], seg + 1, method, base);
                if ok.is_none() {
                    self.bindings.pop();
                }
                ok
            }
            Segment::Recursive(name) => {
                // Must be the final pattern segment; consumes everything.
                if seg + 1 != block.pattern.len() {
                    return None;
                }
                self.bindings
                    .push((name.clone(), RuleValue::Str(path.join("/"))));
                let ok = self.match_pattern_and_check(block, &[], seg + 1, method, base);
                if ok.is_none() {
                    self.bindings.pop();
                }
                ok
            }
        }
    }

    pub(crate) fn lookup_var(&self, name: &str) -> Result<RuleValue, EvalError> {
        if name == "request" {
            return Ok(self.request.clone());
        }
        if name == "resource" {
            return Ok(self.resource.clone());
        }
        // Innermost binding wins.
        if let Some((_, v)) = self.bindings.iter().rev().find(|(n, _)| n == name) {
            return Ok(v.clone());
        }
        err(format!("unknown variable `{name}`"))
    }

    pub(crate) fn eval(&self, e: &Expr) -> Result<RuleValue, EvalError> {
        match e {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Var(name) => self.lookup_var(name),
            Expr::Member(obj, field) => {
                let obj = self.eval(obj)?;
                obj.get_field(field).ok_or_else(|| EvalError {
                    message: format!("cannot access `.{field}` on {}", obj.type_name()),
                })
            }
            Expr::Index(obj, idx) => {
                let obj = self.eval(obj)?;
                let idx = self.eval(idx)?;
                match (&obj, &idx) {
                    (RuleValue::List(items), RuleValue::Int(i)) => {
                        let i = *i;
                        if i < 0 || i as usize >= items.len() {
                            err(format!("index {i} out of bounds"))
                        } else {
                            Ok(items[i as usize].clone())
                        }
                    }
                    (RuleValue::Map(m), RuleValue::Str(k)) => {
                        Ok(m.get(k).cloned().unwrap_or(RuleValue::Null))
                    }
                    _ => err(format!(
                        "cannot index {} with {}",
                        obj.type_name(),
                        idx.type_name()
                    )),
                }
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner)?;
                match op {
                    UnaryOp::Not => match v {
                        RuleValue::Bool(b) => Ok(RuleValue::Bool(!b)),
                        other => err(format!("`!` needs bool, got {}", other.type_name())),
                    },
                    UnaryOp::Neg => match v {
                        RuleValue::Int(i) => Ok(RuleValue::Int(-i)),
                        RuleValue::Float(x) => Ok(RuleValue::Float(-x)),
                        other => err(format!("`-` needs number, got {}", other.type_name())),
                    },
                }
            }
            Expr::Binary(op, lhs, rhs) => self.eval_binary(*op, lhs, rhs),
            Expr::Call(callee, args) => self.eval_call(callee, args),
            Expr::List(items) => {
                let vals: Result<Vec<_>, _> = items.iter().map(|i| self.eval(i)).collect();
                Ok(RuleValue::List(vals?))
            }
            Expr::Path(parts) => {
                let segments = self.eval_path(parts)?;
                Ok(RuleValue::Str(segments.join("/")))
            }
        }
    }

    fn eval_binary(&self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<RuleValue, EvalError> {
        // Short-circuit booleans first.
        match op {
            BinOp::And => {
                let l = self.eval(lhs)?;
                return match l {
                    RuleValue::Bool(false) => Ok(RuleValue::Bool(false)),
                    RuleValue::Bool(true) => match self.eval(rhs)? {
                        RuleValue::Bool(b) => Ok(RuleValue::Bool(b)),
                        other => err(format!("`&&` needs bools, got {}", other.type_name())),
                    },
                    other => err(format!("`&&` needs bools, got {}", other.type_name())),
                };
            }
            BinOp::Or => {
                let l = self.eval(lhs)?;
                return match l {
                    RuleValue::Bool(true) => Ok(RuleValue::Bool(true)),
                    RuleValue::Bool(false) => match self.eval(rhs)? {
                        RuleValue::Bool(b) => Ok(RuleValue::Bool(b)),
                        other => err(format!("`||` needs bools, got {}", other.type_name())),
                    },
                    other => err(format!("`||` needs bools, got {}", other.type_name())),
                };
            }
            _ => {}
        }
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        match op {
            BinOp::Eq => Ok(RuleValue::Bool(l.rules_eq(&r))),
            BinOp::Ne => Ok(RuleValue::Bool(!l.rules_eq(&r))),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let ord = l.rules_cmp(&r).ok_or_else(|| EvalError {
                    message: format!("cannot compare {} with {}", l.type_name(), r.type_name()),
                })?;
                let b = match op {
                    BinOp::Lt => ord.is_lt(),
                    BinOp::Le => ord.is_le(),
                    BinOp::Gt => ord.is_gt(),
                    BinOp::Ge => ord.is_ge(),
                    _ => unreachable!(),
                };
                Ok(RuleValue::Bool(b))
            }
            BinOp::In => match &r {
                RuleValue::List(items) => Ok(RuleValue::Bool(items.iter().any(|i| i.rules_eq(&l)))),
                RuleValue::Map(m) => match &l {
                    RuleValue::Str(k) => Ok(RuleValue::Bool(m.contains_key(k))),
                    other => err(format!(
                        "`in` on map needs string key, got {}",
                        other.type_name()
                    )),
                },
                other => err(format!("`in` needs list or map, got {}", other.type_name())),
            },
            BinOp::Add => match (&l, &r) {
                (RuleValue::Str(a), RuleValue::Str(b)) => Ok(RuleValue::Str(format!("{a}{b}"))),
                (RuleValue::Int(a), RuleValue::Int(b)) => Ok(RuleValue::Int(a + b)),
                _ => match (l.as_number(), r.as_number()) {
                    (Some(a), Some(b)) => Ok(RuleValue::Float(a + b)),
                    _ => err(format!(
                        "cannot add {} and {}",
                        l.type_name(),
                        r.type_name()
                    )),
                },
            },
            BinOp::Sub | BinOp::Mul | BinOp::Mod => {
                if let (RuleValue::Int(a), RuleValue::Int(b)) = (&l, &r) {
                    return match op {
                        BinOp::Sub => Ok(RuleValue::Int(a - b)),
                        BinOp::Mul => Ok(RuleValue::Int(a * b)),
                        BinOp::Mod => {
                            if *b == 0 {
                                err("modulo by zero")
                            } else {
                                Ok(RuleValue::Int(a % b))
                            }
                        }
                        _ => unreachable!(),
                    };
                }
                match (l.as_number(), r.as_number()) {
                    (Some(a), Some(b)) => Ok(RuleValue::Float(match op {
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Mod => a % b,
                        _ => unreachable!(),
                    })),
                    _ => err(format!(
                        "arithmetic needs numbers, got {} and {}",
                        l.type_name(),
                        r.type_name()
                    )),
                }
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }

    fn eval_call(&self, callee: &Expr, args: &[Expr]) -> Result<RuleValue, EvalError> {
        match callee {
            // Global functions.
            Expr::Var(name) => match name.as_str() {
                "get" | "exists" => {
                    if args.len() != 1 {
                        return err(format!("{name}() takes exactly one path"));
                    }
                    let segments = match &args[0] {
                        Expr::Path(parts) => self.eval_path(parts)?,
                        other => match self.eval(other)? {
                            RuleValue::Str(s) => s
                                .split('/')
                                .filter(|p| !p.is_empty())
                                .map(str::to_string)
                                .collect(),
                            v => {
                                return err(format!("{name}() needs a path, got {}", v.type_name()))
                            }
                        },
                    };
                    let doc_path = strip_documents_prefix(&segments);
                    let doc = self.data.get_document(doc_path)?;
                    if name == "exists" {
                        Ok(RuleValue::Bool(doc.is_some()))
                    } else {
                        match doc {
                            Some(data) => Ok(RuleValue::map([
                                ("data", data),
                                (
                                    "id",
                                    RuleValue::Str(doc_path.last().cloned().unwrap_or_default()),
                                ),
                            ])),
                            None => err("get(): document does not exist"),
                        }
                    }
                }
                other => err(format!("unknown function `{other}`")),
            },
            // Methods on values.
            Expr::Member(obj, method) => {
                let obj = self.eval(obj)?;
                match method.as_str() {
                    "size" => obj.size().map(RuleValue::Int).ok_or_else(|| EvalError {
                        message: format!("size() not supported on {}", obj.type_name()),
                    }),
                    "keys" => match obj {
                        RuleValue::Map(m) => Ok(RuleValue::List(
                            m.keys().map(|k| RuleValue::Str(k.clone())).collect(),
                        )),
                        other => err(format!("keys() needs map, got {}", other.type_name())),
                    },
                    "hasAll" => match (&obj, args.first().map(|a| self.eval(a)).transpose()?) {
                        (RuleValue::List(items), Some(RuleValue::List(required))) => {
                            Ok(RuleValue::Bool(
                                required.iter().all(|r| items.iter().any(|i| i.rules_eq(r))),
                            ))
                        }
                        _ => err("hasAll() needs list receiver and list argument"),
                    },
                    "hasAny" => match (&obj, args.first().map(|a| self.eval(a)).transpose()?) {
                        (RuleValue::List(items), Some(RuleValue::List(candidates))) => {
                            Ok(RuleValue::Bool(
                                candidates
                                    .iter()
                                    .any(|c| items.iter().any(|i| i.rules_eq(c))),
                            ))
                        }
                        _ => err("hasAny() needs list receiver and list argument"),
                    },
                    other => err(format!("unknown method `{other}`")),
                }
            }
            _ => err("value is not callable"),
        }
    }

    fn eval_path(&self, parts: &[PathPart]) -> Result<Vec<String>, EvalError> {
        let mut segments = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                PathPart::Literal(s) => segments.push(s.clone()),
                PathPart::Interp(e) => match self.eval(e)? {
                    RuleValue::Str(s) => segments.push(s),
                    RuleValue::Int(i) => segments.push(i.to_string()),
                    other => {
                        return err(format!(
                            "path interpolation needs string, got {}",
                            other.type_name()
                        ))
                    }
                },
            }
        }
        Ok(segments)
    }
}

/// Strip a leading `databases/{db}/documents` prefix from path segments.
fn strip_documents_prefix(segments: &[String]) -> &[String] {
    if segments.len() >= 3 && segments[0] == "databases" && segments[2] == "documents" {
        &segments[3..]
    } else {
        segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ruleset;
    use std::collections::HashMap;

    const FIG3: &str = r#"
        service cloud.firestore {
          match /databases/{database}/documents {
            match /restaurants/{restaurant}/ratings/{rating} {
              allow read: if request.auth != null;
              allow create: if request.auth != null
                            && request.resource.data.userId == request.auth.uid;
              allow update, delete: if false;
            }
          }
        }
    "#;

    fn rating_request(
        method: Method,
        auth: Option<AuthContext>,
        user_id_field: Option<&str>,
    ) -> RequestContext {
        let data = user_id_field.map(|uid| {
            RuleValue::map([
                ("userId", RuleValue::Str(uid.into())),
                ("rating", RuleValue::Int(3)),
            ])
        });
        RequestContext::for_document(
            method,
            &["restaurants", "one", "ratings", "2"],
            auth,
            None,
            data,
        )
    }

    #[test]
    fn fig3_read_requires_auth() {
        let rs = parse_ruleset(FIG3).unwrap();
        let anon = rating_request(Method::Get, None, None);
        assert!(!rs.allows(&anon, &EmptyDataSource));
        let authed = rating_request(Method::Get, Some(AuthContext::uid("alice")), None);
        assert!(rs.allows(&authed, &EmptyDataSource));
    }

    #[test]
    fn fig3_create_requires_matching_uid() {
        let rs = parse_ruleset(FIG3).unwrap();
        let ok = rating_request(
            Method::Create,
            Some(AuthContext::uid("alice")),
            Some("alice"),
        );
        assert!(rs.allows(&ok, &EmptyDataSource));
        let spoofed = rating_request(Method::Create, Some(AuthContext::uid("alice")), Some("bob"));
        assert!(!rs.allows(&spoofed, &EmptyDataSource));
        let anon = rating_request(Method::Create, None, Some("alice"));
        assert!(!rs.allows(&anon, &EmptyDataSource));
    }

    #[test]
    fn fig3_update_delete_denied() {
        let rs = parse_ruleset(FIG3).unwrap();
        for m in [Method::Update, Method::Delete] {
            let req = rating_request(m, Some(AuthContext::uid("alice")), Some("alice"));
            assert!(!rs.allows(&req, &EmptyDataSource), "{m:?} must be denied");
        }
    }

    #[test]
    fn unmatched_paths_deny() {
        let rs = parse_ruleset(FIG3).unwrap();
        let req = RequestContext::for_document(
            Method::Get,
            &["users", "alice"],
            Some(AuthContext::uid("alice")),
            None,
            None,
        );
        assert!(!rs.allows(&req, &EmptyDataSource));
    }

    #[test]
    fn wildcard_bindings_are_visible_in_conditions() {
        let src = r#"
            match /databases/{db}/documents {
              match /users/{userId} {
                allow read: if request.auth.uid == userId;
              }
            }
        "#;
        let rs = parse_ruleset(src).unwrap();
        let own = RequestContext::for_document(
            Method::Get,
            &["users", "alice"],
            Some(AuthContext::uid("alice")),
            None,
            None,
        );
        assert!(rs.allows(&own, &EmptyDataSource));
        let other = RequestContext::for_document(
            Method::Get,
            &["users", "bob"],
            Some(AuthContext::uid("alice")),
            None,
            None,
        );
        assert!(!rs.allows(&other, &EmptyDataSource));
    }

    #[test]
    fn recursive_wildcard_matches_any_depth() {
        let src = r#"
            match /databases/{db}/documents {
              match /{doc=**} {
                allow read;
              }
            }
        "#;
        let rs = parse_ruleset(src).unwrap();
        for path in [vec!["a"], vec!["a", "b"], vec!["a", "b", "c", "d"]] {
            let req = RequestContext::for_document(Method::Get, &path, None, None, None);
            assert!(rs.allows(&req, &EmptyDataSource), "path {path:?}");
        }
        // Writes are not granted.
        let req = RequestContext::for_document(Method::Create, &["a"], None, None, None);
        assert!(!rs.allows(&req, &EmptyDataSource));
    }

    #[test]
    fn evaluation_errors_deny() {
        // `request.resource.data.userId` errors for a delete (no incoming
        // data); the error must deny rather than grant or panic.
        let src = r#"
            match /databases/{db}/documents {
              match /d/{id} {
                allow write: if request.resource.data.userId == 'alice';
              }
            }
        "#;
        let rs = parse_ruleset(src).unwrap();
        let del = RequestContext::for_document(
            Method::Delete,
            &["d", "1"],
            Some(AuthContext::uid("alice")),
            Some(RuleValue::map([("userId", RuleValue::Str("alice".into()))])),
            None,
        );
        assert!(!rs.allows(&del, &EmptyDataSource));
    }

    struct MapSource(HashMap<String, RuleValue>);

    impl DataSource for MapSource {
        fn get_document(&self, path: &[String]) -> Result<Option<RuleValue>, EvalError> {
            Ok(self.0.get(&path.join("/")).cloned())
        }
    }

    #[test]
    fn get_based_acl_check() {
        // The paper: "the if condition can ... fetch and inspect fields of
        // other database documents (e.g., check an access control list)".
        let src = r#"
            match /databases/{db}/documents {
              match /projects/{project} {
                allow read: if request.auth.uid in get(/databases/$(db)/documents/acls/$(project)).data.readers;
              }
            }
        "#;
        let rs = parse_ruleset(src).unwrap();
        let mut docs = HashMap::new();
        docs.insert(
            "acls/p1".to_string(),
            RuleValue::map([(
                "readers",
                RuleValue::List(vec![RuleValue::Str("alice".into())]),
            )]),
        );
        let source = MapSource(docs);
        let alice = RequestContext::for_document(
            Method::Get,
            &["projects", "p1"],
            Some(AuthContext::uid("alice")),
            None,
            None,
        );
        assert!(rs.allows(&alice, &source));
        let bob = RequestContext::for_document(
            Method::Get,
            &["projects", "p1"],
            Some(AuthContext::uid("bob")),
            None,
            None,
        );
        assert!(!rs.allows(&bob, &source));
        // Missing ACL document => get() errors => deny.
        let missing = RequestContext::for_document(
            Method::Get,
            &["projects", "p2"],
            Some(AuthContext::uid("alice")),
            None,
            None,
        );
        assert!(!rs.allows(&missing, &source));
    }

    #[test]
    fn exists_function() {
        let src = r#"
            match /databases/{db}/documents {
              match /posts/{post} {
                allow read: if exists(/databases/$(db)/documents/published/$(post));
              }
            }
        "#;
        let rs = parse_ruleset(src).unwrap();
        let mut docs = HashMap::new();
        docs.insert(
            "published/x".to_string(),
            RuleValue::map([("ok", RuleValue::Bool(true))]),
        );
        let source = MapSource(docs);
        let pub_req = RequestContext::for_document(Method::Get, &["posts", "x"], None, None, None);
        assert!(rs.allows(&pub_req, &source));
        let unpub = RequestContext::for_document(Method::Get, &["posts", "y"], None, None, None);
        assert!(!rs.allows(&unpub, &source));
    }

    #[test]
    fn token_claims_accessible() {
        let src = r#"
            match /databases/{db}/documents {
              match /admin/{doc} {
                allow read, write: if request.auth.token.admin == true;
              }
            }
        "#;
        let rs = parse_ruleset(src).unwrap();
        let mut admin = AuthContext::uid("root");
        admin.token.insert("admin".into(), RuleValue::Bool(true));
        let req = RequestContext::for_document(
            Method::Update,
            &["admin", "cfg"],
            Some(admin),
            Some(RuleValue::map([("x", RuleValue::Int(1))])),
            Some(RuleValue::map([("x", RuleValue::Int(2))])),
        );
        assert!(rs.allows(&req, &EmptyDataSource));
        let pleb = RequestContext::for_document(
            Method::Update,
            &["admin", "cfg"],
            Some(AuthContext::uid("pleb")),
            None,
            None,
        );
        assert!(!rs.allows(&pleb, &EmptyDataSource));
    }

    #[test]
    fn resource_data_visible_for_updates() {
        let src = r#"
            match /databases/{db}/documents {
              match /docs/{id} {
                allow update: if resource.data.owner == request.auth.uid
                              && request.resource.data.owner == resource.data.owner;
              }
            }
        "#;
        let rs = parse_ruleset(src).unwrap();
        let stored = RuleValue::map([("owner", RuleValue::Str("alice".into()))]);
        let ok = RequestContext::for_document(
            Method::Update,
            &["docs", "1"],
            Some(AuthContext::uid("alice")),
            Some(stored.clone()),
            Some(RuleValue::map([
                ("owner", RuleValue::Str("alice".into())),
                ("v", RuleValue::Int(2)),
            ])),
        );
        assert!(rs.allows(&ok, &EmptyDataSource));
        // Attempting to change the owner is denied.
        let steal = RequestContext::for_document(
            Method::Update,
            &["docs", "1"],
            Some(AuthContext::uid("alice")),
            Some(stored),
            Some(RuleValue::map([(
                "owner",
                RuleValue::Str("mallory".into()),
            )])),
        );
        assert!(!rs.allows(&steal, &EmptyDataSource));
    }

    #[test]
    fn any_matching_allow_grants() {
        let src = r#"
            match /databases/{db}/documents {
              match /m/{id} {
                allow read: if false;
                allow read: if true;
              }
            }
        "#;
        let rs = parse_ruleset(src).unwrap();
        let req = RequestContext::for_document(Method::Get, &["m", "1"], None, None, None);
        assert!(rs.allows(&req, &EmptyDataSource));
    }

    #[test]
    fn sibling_match_blocks_both_apply() {
        let src = r#"
            match /databases/{db}/documents {
              match /m/{id} { allow read: if false; }
              match /m/{other} { allow read: if true; }
            }
        "#;
        let rs = parse_ruleset(src).unwrap();
        let req = RequestContext::for_document(Method::Get, &["m", "1"], None, None, None);
        assert!(rs.allows(&req, &EmptyDataSource));
    }

    #[test]
    fn size_and_builtin_methods() {
        let src = r#"
            match /databases/{db}/documents {
              match /m/{id} {
                allow create: if request.resource.data.keys().hasAll(['a', 'b'])
                              && request.resource.data.name.size() <= 5;
              }
            }
        "#;
        let rs = parse_ruleset(src).unwrap();
        let good = RequestContext::for_document(
            Method::Create,
            &["m", "1"],
            None,
            None,
            Some(RuleValue::map([
                ("a", RuleValue::Int(1)),
                ("b", RuleValue::Int(2)),
                ("name", RuleValue::Str("ok".into())),
            ])),
        );
        assert!(rs.allows(&good, &EmptyDataSource));
        let missing_field = RequestContext::for_document(
            Method::Create,
            &["m", "1"],
            None,
            None,
            Some(RuleValue::map([
                ("a", RuleValue::Int(1)),
                ("name", RuleValue::Str("ok".into())),
            ])),
        );
        assert!(!rs.allows(&missing_field, &EmptyDataSource));
    }
}
