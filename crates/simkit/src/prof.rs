//! Deterministic span-folding profiler and the hot-path cost ledger.
//!
//! [`crate::obs::Tracer`] records *where* simulated time was spent as a flat
//! stream of parent-linked spans; this module folds that stream into a
//! weighted call tree keyed by span-*name* stacks (every occurrence of the
//! same stack aggregates into one node), splitting **cumulative** time (the
//! span's whole window) from **self** time (the window minus its direct
//! children) — the quantity an optimizer actually chases.
//!
//! Everything renders with integer nanoseconds only, so a profile is
//! byte-stable: the same seed produces the same bytes, on any machine, and
//! CI can `diff` two runs the way it already diffs traces (DESIGN.md §11).
//! [`FoldedProfile::collapsed`] exports the standard collapsed-stack
//! ("flamegraph") text form, one `frame;frame;frame self_ns` line per stack.
//!
//! # The cost ledger
//!
//! Span durations are simulated-clock elapse. CPU work inside the engine
//! (index-entry maintenance, redo-log appends, fsyncs, matcher descents,
//! fanout queue walks) is charged to the [`SimClock`](crate::clock::SimClock)
//! *at the site where it happens*, using the deterministic integer costs in
//! [`costs`] — so the folded profile is a ledger of where modeled CPU went,
//! not a wall-clock measurement. The charges are part of the simulation
//! (they happen whether or not a tracer is attached); spans merely observe
//! them. [`phase_of`] maps span names onto the
//! [`PhaseBreakdown`](crate::obs::PhaseBreakdown) phase taxonomy so
//! profiler self-time can be reconciled against per-request phase totals.

use crate::clock::Duration;
use crate::obs::{PhaseBreakdown, Span, PHASES};
use std::collections::{BTreeMap, HashMap};

/// Deterministic integer CPU costs charged to the simulated clock on the
/// hot paths (the §III-C write path, the redo logs, and the fanout pump).
/// These are *model parameters*, aligned with
/// [`CpuCostModel`](crate::latency::CpuCostModel) where the two overlap
/// (per maintained index entry), chosen so relative magnitudes match the
/// paper's cost narrative: fsync dominates append, index maintenance
/// dominates both on multi-entry writes.
pub mod costs {
    use crate::clock::Duration;

    /// Per index entry inserted or deleted while maintaining the
    /// IndexEntries table on a write (§III-C write amplification; mirrors
    /// `CpuCostModel::per_index_entry`).
    pub const INDEX_ENTRY: Duration = Duration::from_micros(2);
    /// Per (document, index) pair examined when diffing entries, even when
    /// the diff turns out empty.
    pub const INDEX_DIFF_BASE: Duration = Duration::from_nanos(500);
    /// Releasing one transaction's locks at commit/abort.
    pub const LOCK_RELEASE: Duration = Duration::from_nanos(200);
    /// Framing and buffering one redo record (base).
    pub const REDO_APPEND_BASE: Duration = Duration::from_micros(1);
    /// Additional append cost per KiB of redo payload.
    pub const REDO_APPEND_PER_KIB: Duration = Duration::from_micros(1);
    /// One fsync of a redo log: the simulated device flush.
    pub const REDO_FSYNC: Duration = Duration::from_micros(25);
    /// One matcher-tree bucket descent (per batched directory run).
    pub const MATCH_DESCENT_BASE: Duration = Duration::from_nanos(500);
    /// Matching one changed document against the registered queries.
    pub const MATCH_PER_CHANGE: Duration = Duration::from_nanos(200);
    /// Examining one queued delta during a connection's pump queue walk.
    pub const QUEUE_WALK_PER_DELTA: Duration = Duration::from_nanos(100);

    /// Redo-append cost for a record of `bytes` payload.
    pub fn redo_append(bytes: usize) -> Duration {
        REDO_APPEND_BASE + REDO_APPEND_PER_KIB * (bytes as u64 / 1024)
    }
}

/// Which [`PhaseBreakdown`] phase a span name's self-time belongs to, or
/// `None` for spans outside the request taxonomy.
pub fn phase_of(name: &str) -> Option<&'static str> {
    match name {
        "spanner.lock.acquire" => Some("lock_wait"),
        "spanner.commit_wait" => Some("commit_wait"),
        "query.plan" => Some("plan"),
        n if n.starts_with("rtc.") => Some("fanout"),
        n if n.starts_with("core.")
            || n.starts_with("spanner.")
            || n.starts_with("query.")
            || n.starts_with("service.")
            || n.starts_with("client.") =>
        {
            Some("execute")
        }
        _ => None,
    }
}

/// One aggregated call-tree node: every span whose name stack ends here.
#[derive(Clone, Debug, Default)]
pub struct Node {
    /// Spans folded into this node.
    pub count: u64,
    /// Sum of those spans' full durations.
    pub cum: Duration,
    /// Sum of duration minus direct-children time, clamped at zero per span.
    pub self_time: Duration,
    /// Child nodes keyed by span name (sorted, hence stable).
    pub children: BTreeMap<String, Node>,
}

/// A folded, name-stack-keyed profile of one span stream.
#[derive(Clone, Debug, Default)]
pub struct FoldedProfile {
    /// Top-level frames (spans with no retained parent).
    pub roots: BTreeMap<String, Node>,
    /// Spans folded in.
    pub spans: u64,
}

impl FoldedProfile {
    /// Fold a span stream (e.g. [`Tracer::finished_since`]
    /// (crate::obs::Tracer::finished_since)) into a weighted call tree.
    /// A span whose parent is absent from `spans` (dropped past capacity,
    /// still open, or before the mark) roots its own stack.
    pub fn fold(spans: &[Span]) -> FoldedProfile {
        let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id.raw(), s)).collect();
        // Direct-children time per parent, for self-time.
        let mut child_time: HashMap<u64, Duration> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                if by_id.contains_key(&p.raw()) {
                    *child_time.entry(p.raw()).or_default() += s.duration();
                }
            }
        }
        let mut prof = FoldedProfile::default();
        for s in spans {
            // Build the name stack root→self by walking retained parents.
            let mut stack: Vec<&str> = vec![s.name];
            let mut cur = s.parent;
            while let Some(p) = cur {
                match by_id.get(&p.raw()) {
                    Some(ps) => {
                        stack.push(ps.name);
                        cur = ps.parent;
                    }
                    None => break,
                }
            }
            stack.reverse();
            let mut node = prof
                .roots
                .entry(stack[0].to_string())
                .or_default();
            for frame in &stack[1..] {
                node = node.children.entry((*frame).to_string()).or_default();
            }
            let dur = s.duration();
            let kids = child_time.get(&s.id.raw()).copied().unwrap_or(Duration::ZERO);
            node.count += 1;
            node.cum += dur;
            node.self_time += dur.saturating_sub(kids);
            prof.spans += 1;
        }
        prof
    }

    /// Total self-time over the whole tree (== total cumulative time of the
    /// roots, up to clamping).
    pub fn total_self(&self) -> Duration {
        fn walk(n: &Node) -> Duration {
            n.children.values().fold(n.self_time, |acc, c| acc + walk(c))
        }
        self.roots.values().fold(Duration::ZERO, |acc, n| acc + walk(n))
    }

    /// Byte-stable tree rendering: integers only, sorted child order,
    /// two-space indentation.
    ///
    /// ```text
    /// # profile spans=7 total_self_ns=4500
    /// core.commit_pipeline count=2 cum_ns=4000 self_ns=1000
    ///   core.index.maintain count=4 cum_ns=3000 self_ns=3000
    /// ```
    pub fn render(&self) -> String {
        fn walk(out: &mut String, name: &str, n: &Node, depth: usize) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&format!(
                "{name} count={} cum_ns={} self_ns={}\n",
                n.count,
                n.cum.as_nanos(),
                n.self_time.as_nanos()
            ));
            for (cname, c) in &n.children {
                walk(out, cname, c, depth + 1);
            }
        }
        let mut out = format!(
            "# profile spans={} total_self_ns={}\n",
            self.spans,
            self.total_self().as_nanos()
        );
        for (name, n) in &self.roots {
            walk(&mut out, name, n, 0);
        }
        out
    }

    /// Collapsed-stack (flamegraph) export: one `a;b;c self_ns` line per
    /// stack with nonzero self-time, in sorted (hence stable) order.
    pub fn collapsed(&self) -> String {
        fn walk(out: &mut String, prefix: &str, name: &str, n: &Node) {
            let path = if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix};{name}")
            };
            if n.self_time > Duration::ZERO {
                out.push_str(&format!("{path} {}\n", n.self_time.as_nanos()));
            }
            for (cname, c) in &n.children {
                walk(out, &path, cname, c);
            }
        }
        let mut out = String::new();
        for (name, n) in &self.roots {
            walk(&mut out, "", name, n);
        }
        out
    }

    /// The flat frames ranked by total self-time (summed over every stack
    /// the frame name appears in), descending, ties broken by name — the
    /// "top N" table of a profile.
    pub fn top_self(&self, n: usize) -> Vec<(String, u64, Duration)> {
        let mut by_name: BTreeMap<String, (u64, Duration)> = BTreeMap::new();
        fn walk(acc: &mut BTreeMap<String, (u64, Duration)>, name: &str, node: &Node) {
            let e = acc.entry(name.to_string()).or_default();
            e.0 += node.count;
            e.1 += node.self_time;
            for (cname, c) in &node.children {
                walk(acc, cname, c);
            }
        }
        for (name, node) in &self.roots {
            walk(&mut by_name, name, node);
        }
        let mut rows: Vec<(String, u64, Duration)> =
            by_name.into_iter().map(|(k, (c, d))| (k, c, d)).collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Self-time summed per [`PhaseBreakdown`] phase via [`phase_of`].
    pub fn phase_self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut acc: BTreeMap<&'static str, Duration> = BTreeMap::new();
        fn walk(acc: &mut BTreeMap<&'static str, Duration>, name: &str, n: &Node) {
            if let Some(phase) = phase_of(name) {
                *acc.entry(phase).or_default() += n.self_time;
            }
            for (cname, c) in &n.children {
                walk(acc, cname, c);
            }
        }
        for (name, n) in &self.roots {
            walk(&mut acc, name, n);
        }
        acc
    }

    /// Line up profiler self-time against a summed [`PhaseBreakdown`]:
    /// `(phase, profiler, breakdown)` for every canonical phase. The caller
    /// asserts whichever tolerances its workload justifies (measured phases
    /// — lock_wait, commit_wait — reconcile tightly; modeled phases only
    /// bound the profiler from above).
    pub fn reconcile(&self, totals: &PhaseBreakdown) -> Vec<(&'static str, Duration, Duration)> {
        let mine = self.phase_self_times();
        PHASES
            .iter()
            .zip(totals.phases())
            .map(|(p, (_, d))| (*p, mine.get(p).copied().unwrap_or(Duration::ZERO), d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::obs::Tracer;

    fn sample_tracer() -> Tracer {
        let clock = SimClock::new();
        let tracer = Tracer::new(clock.clone(), 7);
        for _ in 0..2 {
            let outer = tracer.span("core.commit_pipeline");
            clock.advance(Duration::from_nanos(500)); // self
            {
                let _inner = tracer.span("core.index.maintain");
                clock.advance(Duration::from_nanos(1500));
            }
            let _ = &outer;
        }
        {
            let _lock = tracer.span("spanner.lock.acquire");
            clock.advance(Duration::from_nanos(250));
        }
        tracer
    }

    #[test]
    fn fold_splits_self_from_cumulative() {
        let t = sample_tracer();
        let prof = FoldedProfile::fold(&t.finished_since(0));
        let root = &prof.roots["core.commit_pipeline"];
        assert_eq!(root.count, 2);
        assert_eq!(root.cum.as_nanos(), 4000);
        assert_eq!(root.self_time.as_nanos(), 1000);
        let child = &root.children["core.index.maintain"];
        assert_eq!(child.count, 2);
        assert_eq!(child.self_time.as_nanos(), 3000);
        assert_eq!(prof.total_self().as_nanos(), 4250);
    }

    #[test]
    fn render_and_collapsed_are_stable() {
        let a = FoldedProfile::fold(&sample_tracer().finished_since(0)).render();
        let b = FoldedProfile::fold(&sample_tracer().finished_since(0)).render();
        assert_eq!(a, b);
        assert!(a.starts_with("# profile spans=5 total_self_ns=4250\n"), "{a}");
        let collapsed = FoldedProfile::fold(&sample_tracer().finished_since(0)).collapsed();
        assert_eq!(
            collapsed,
            "core.commit_pipeline 1000\n\
             core.commit_pipeline;core.index.maintain 3000\n\
             spanner.lock.acquire 250\n"
        );
    }

    #[test]
    fn orphan_spans_root_their_stack() {
        let t = sample_tracer();
        let mark = 1; // skip the first finished span (an index.maintain child)
        let prof = FoldedProfile::fold(&t.finished_since(mark));
        // The second index.maintain's parent (commit_pipeline #2) is
        // retained, but the first pipeline span is included — count stays
        // consistent regardless of where the mark fell.
        assert_eq!(prof.spans, 4);
    }

    #[test]
    fn top_self_ranks_by_self_time() {
        let prof = FoldedProfile::fold(&sample_tracer().finished_since(0));
        let top = prof.top_self(2);
        assert_eq!(top[0].0, "core.index.maintain");
        assert_eq!(top[0].2.as_nanos(), 3000);
        assert_eq!(top[1].0, "core.commit_pipeline");
    }

    #[test]
    fn phase_mapping_covers_the_ledger_spans() {
        assert_eq!(phase_of("spanner.lock.acquire"), Some("lock_wait"));
        assert_eq!(phase_of("spanner.commit_wait"), Some("commit_wait"));
        assert_eq!(phase_of("core.index.maintain"), Some("execute"));
        assert_eq!(phase_of("rtc.fanout.pump"), Some("fanout"));
        assert_eq!(phase_of("query.plan"), Some("plan"));
        assert_eq!(phase_of("workload.tick"), None);
        let prof = FoldedProfile::fold(&sample_tracer().finished_since(0));
        let phases = prof.phase_self_times();
        assert_eq!(phases["execute"].as_nanos(), 4000);
        assert_eq!(phases["lock_wait"].as_nanos(), 250);
    }
}
