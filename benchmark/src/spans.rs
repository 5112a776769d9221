//! The harness-side wall-clock tracer of the traced run.
//!
//! The crates' own tracer stamps *simulated* time; wall-clock spans inside
//! the crates are a later issue. Until then the harness records a span
//! around every call it makes *into* a layer, keeps them in memory, and
//! writes them out with a folded self-time table when the run ends.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One finished span.
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The workload operation this span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. `on == false` makes every call a branch.
pub struct Spans {
    pub on: bool,
    /// Stamped on every span opened from now on.
    pub op: u64,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Spans kept in memory per scenario; later ones are counted, not stored.
const MAX_SPANS: usize = 200_000;

impl Spans {
    pub fn new() -> Spans {
        Spans {
            on: false,
            op: 0,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span; `None` when tracing is off or the buffer is full.
    pub fn enter(&mut self, name: &'static str) -> Option<u32> {
        if !self.on || self.spans.len() >= MAX_SPANS {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close the span `enter` returned (spans close innermost first).
    pub fn exit(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `name -> (count, total ns, self ns)`; a span's self time is its
    /// duration minus the part its child spans cover.
    pub fn fold(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let row = table.entry(s.name).or_default();
            row.0 += 1;
            row.1 += total;
            row.2 += total.saturating_sub(children);
        }
        table
    }

    /// The folded table, widest self time first.
    pub fn render_fold(&self) -> String {
        let mut rows: Vec<_> = self.fold().into_iter().collect();
        rows.sort_by_key(|(_, (_, _, self_ns))| std::cmp::Reverse(*self_ns));
        let mut out = format!(
            "  {:<28} {:>9} {:>12} {:>12} {:>10}\n",
            "span", "count", "total_ms", "self_ms", "self_us/op"
        );
        for (name, (count, total, self_ns)) in rows {
            out.push_str(&format!(
                "  {name:<28} {count:>9} {:>12.2} {:>12.2} {:>10.2}\n",
                total as f64 / 1e6,
                self_ns as f64 / 1e6,
                self_ns as f64 / 1e3 / count as f64
            ));
        }
        out
    }

    /// One JSON object per span: `{"id","parent","op","name","start_ns","end_ns"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Spans::new();
        t.on = true;
        t.span("op", |t| {
            t.span("server.commit", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("server.commit", |_| ());
        });
        let fold = t.fold();
        let (n_op, total_op, self_op) = fold["op"];
        let (n_commit, total_commit, _) = fold["server.commit"];
        assert_eq!((n_op, n_commit), (1, 2));
        assert!(total_commit >= 2_000_000);
        assert_eq!(self_op, total_op - total_commit);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Spans::new();
        assert_eq!(t.span("op", |_| 7), 7);
        assert_eq!(t.len(), 0);
    }
}
