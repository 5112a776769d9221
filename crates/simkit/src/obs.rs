//! Deterministic observability: structured tracing, a metrics registry, and
//! per-phase latency breakdowns shared by every layer of the stack.
//!
//! Three pillars, all driven exclusively by simulated time and seeded
//! randomness so that a fixed-seed run emits **byte-identical** output:
//!
//! * [`Tracer`] — spans with parent/child causality. Span ids are sequential
//!   (allocation order is deterministic under the discrete-event model) and
//!   the trace id is derived from the seed via [`crate::rng::SimRng`];
//!   timestamps come from the shared [`SimClock`]. [`Tracer::render`]
//!   serializes spans sorted by id with attributes in insertion order, so
//!   `diff` across two runs (or two commits) is meaningful.
//! * [`Metrics`] — counters, gauges, and memory-bounded log-bucketed
//!   histograms keyed by `name{label=value,…}` with labels sorted, exported
//!   as deterministic text or JSON via [`MetricsSnapshot`].
//! * [`PhaseBreakdown`] — the per-request queue / plan / execute / lock-wait
//!   / commit-wait / fanout decomposition that the service attaches to every
//!   response and the emulator prints after every command.
//!
//! Everything is optional at every call site: components hold an
//! `Option<Obs>` and skip instrumentation entirely when unset, so existing
//! constructors, tests, and benches are unaffected unless they opt in.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::{Duration, SimClock, Timestamp};
use crate::rng::SimRng;
use crate::stats::Histogram;

/// Identifier of one span within a trace. Allocated sequentially.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw sequence number.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A typed span attribute value. It is stored as is and formatted only by
/// [`Tracer::render`], so attaching one never formats or allocates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttrValue {
    /// An unsigned integer: a count, a size, nanoseconds, an id.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A boolean.
    Bool(bool),
    /// A string known at compile time, e.g. an outcome label.
    Str(&'static str),
    /// A runtime string shared by reference count, e.g. a database id.
    Shared(Arc<str>),
}

impl AttrValue {
    /// A runtime string copied into a new shared value (this allocates;
    /// hot paths keep an `Arc<str>` and convert that instead).
    pub fn shared(s: &str) -> AttrValue {
        AttrValue::Shared(Arc::from(s))
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Str(v) => f.write_str(v),
            AttrValue::Shared(v) => f.write_str(v),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}

impl From<&Arc<str>> for AttrValue {
    fn from(v: &Arc<str>) -> Self {
        AttrValue::Shared(v.clone())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Shared(v.into())
    }
}

/// Most integer arguments a point event carries.
pub const EVENT_ARGS: usize = 2;

/// A timestamped point event: a text plus up to [`EVENT_ARGS`] integer
/// arguments, rendered as `text k=v k=v`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// When the event happened (simulated time).
    pub at: Timestamp,
    /// The event text.
    pub text: AttrValue,
    /// Named integer arguments, in order; unused slots are `None`.
    pub args: [Option<(&'static str, u64)>; EVENT_ARGS],
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.text)?;
        for (k, v) in self.args.iter().flatten() {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// One finished (or in-flight) span: a named interval of simulated time with
/// a causal parent, key=value attributes, and point-in-time events.
#[derive(Clone, Debug, Default)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The enclosing span at the time this one started, if any.
    pub parent: Option<SpanId>,
    /// Dotted span name, e.g. `spanner.commit` (see DESIGN.md §11 taxonomy).
    pub name: &'static str,
    /// Simulated start time.
    pub start: Timestamp,
    /// Simulated end time (== `start` until the guard drops).
    pub end: Timestamp,
    /// Attributes in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Timestamped point events.
    pub events: Vec<Event>,
}

impl Span {
    /// Span length in simulated time.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An append-only log addressed by position. Entries live in a ring that is
/// overwritten in place, oldest first; it grows only when the entries still
/// needed (positions from `floor` on) would not fit. Appends and overwrites
/// walk memory sequentially, so a full ring costs no scattered cache misses.
struct Log<T> {
    ring: Vec<T>,
    cap: usize,
    /// Position held by `ring[0]` since the ring was last rebuilt.
    base: u64,
    /// The next position, and the ring slot it goes to.
    head: u64,
    next: usize,
}

impl<T> Log<T> {
    fn new(cap: usize, head: u64) -> Log<T> {
        Log {
            ring: Vec::new(),
            cap: cap.max(1),
            base: head,
            head,
            next: 0,
        }
    }

    fn get(&self, pos: u64) -> &T {
        &self.ring[((pos - self.base) % self.cap as u64) as usize]
    }

    fn push(&mut self, item: T, floor: u64) {
        if self.head - floor >= self.cap as u64 {
            // Every slot holds a needed entry: unroll the ring so `floor`
            // sits at 0, then double it.
            self.ring.rotate_left(self.next);
            self.base = floor;
            self.next = self.cap;
            self.cap *= 2;
        }
        if self.next == self.ring.len() {
            self.ring.push(item);
        } else {
            self.ring[self.next] = item;
        }
        self.head += 1;
        self.next += 1;
        if self.next == self.cap {
            self.next = 0;
        }
    }
}

/// A retained finished span; its attributes and events sit in the tracer's
/// logs, `n_attrs` from position `attrs` and `n_events` from `events`.
struct Record {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start: Timestamp,
    end: Timestamp,
    attrs: u64,
    n_attrs: u32,
    events: u64,
    n_events: u32,
}

type Attr = (&'static str, AttrValue);

struct TracerInner {
    next_id: u64,
    /// Ids of the open spans, innermost last: the top is the parent of new
    /// spans.
    stack: Vec<SpanId>,
    /// Emptied attribute and event buffers of finished spans, reused by
    /// the next spans to open (as many as spans are ever open at once).
    buffers: Vec<(Vec<Attr>, Vec<Event>)>,
    /// Finished spans by finish sequence number. Its `head` is the number
    /// of spans finished so far.
    records: Log<Record>,
    attrs: Log<Attr>,
    events: Log<Event>,
    capacity: usize,
    /// Finish sequence numbers below this are no longer retained. Once more
    /// than `capacity` spans are retained it jumps to keep the newest half,
    /// so retention stays amortized O(1) per span and the retained set is
    /// the same as a buffer that sheds its oldest half when full.
    retained_from: u64,
    /// Log positions of the oldest retained span's attributes and events:
    /// entries from here on are still needed.
    attr_floor: u64,
    event_floor: u64,
}

impl TracerInner {
    /// A tracer state whose next finished span has sequence number `first`.
    fn new(capacity: usize, first: u64) -> TracerInner {
        TracerInner {
            next_id: 0,
            stack: Vec::new(),
            buffers: Vec::new(),
            // One slot more than retained: a finish lands before the
            // oldest retained span is dropped.
            records: Log::new(capacity + 1, first),
            attrs: Log::new(1024, 0),
            events: Log::new(256, 0),
            capacity,
            retained_from: first,
            attr_floor: 0,
            event_floor: 0,
        }
    }

    fn finished(&self) -> u64 {
        self.records.head
    }

    /// Move a finished span's attributes and events into the logs and keep
    /// its record, recycling its emptied buffers.
    fn retain(&mut self, mut span: Span) {
        let record = Record {
            id: span.id,
            parent: span.parent,
            name: span.name,
            start: span.start,
            end: span.end,
            attrs: self.attrs.head,
            n_attrs: span.attrs.len() as u32,
            events: self.events.head,
            n_events: span.events.len() as u32,
        };
        for attr in span.attrs.drain(..) {
            self.attrs.push(attr, self.attr_floor);
        }
        for event in span.events.drain(..) {
            self.events.push(event, self.event_floor);
        }
        self.buffers.push((span.attrs, span.events));
        self.records.push(record, self.retained_from);
        if self.finished() - self.retained_from > self.capacity as u64 {
            self.retained_from = self.finished() - (self.capacity / 2).max(1) as u64;
            let oldest = self.records.get(self.retained_from);
            (self.attr_floor, self.event_floor) = (oldest.attrs, oldest.events);
        }
    }

    /// Copies of the retained spans finished at or after `from`, in finish
    /// order.
    fn retained(&self, from: u64) -> Vec<Span> {
        (from.max(self.retained_from)..self.finished())
            .map(|seq| {
                let r = self.records.get(seq);
                Span {
                    id: r.id,
                    parent: r.parent,
                    name: r.name,
                    start: r.start,
                    end: r.end,
                    attrs: (r.attrs..r.attrs + u64::from(r.n_attrs))
                        .map(|p| self.attrs.get(p).clone())
                        .collect(),
                    events: (r.events..r.events + u64::from(r.n_events))
                        .map(|p| self.events.get(p).clone())
                        .collect(),
                }
            })
            .collect()
    }
}

/// Deterministic structured tracer. Cheap to clone; clones share state.
///
/// Opening and finishing a span each take the tracer's lock once;
/// attaching an attribute or event takes none (the guard holds them). Once
/// the tracer's logs have grown to their steady size nothing allocates:
/// names and keys are `&'static str`, values are typed [`AttrValue`]s,
/// open spans reuse the buffers of finished ones, and finished spans are
/// appended to rings overwritten in place.
#[derive(Clone)]
pub struct Tracer {
    clock: SimClock,
    trace_id: u64,
    inner: Arc<Mutex<TracerInner>>,
}

/// Default cap on retained finished spans; older spans are dropped (and
/// counted) past this, bounding memory on long runs.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

impl Tracer {
    /// Create a tracer whose trace id is derived from `seed` and whose
    /// timestamps come from `clock`.
    pub fn new(clock: SimClock, seed: u64) -> Self {
        Tracer {
            clock,
            trace_id: SimRng::new(seed).next_u64(),
            inner: Arc::new(Mutex::new(TracerInner::new(DEFAULT_TRACE_CAPACITY, 0))),
        }
    }

    /// The seed-derived trace id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Cap the number of retained finished spans (older spans are dropped).
    /// The newest retained spans that fit are kept.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock();
        let capacity = capacity.max(1);
        let from = inner.finished().saturating_sub(capacity as u64).max(inner.retained_from);
        let kept = inner.retained(from);
        let mut fresh = TracerInner::new(capacity, from);
        fresh.next_id = inner.next_id;
        fresh.stack = std::mem::take(&mut inner.stack);
        for span in kept {
            fresh.retain(span);
        }
        *inner = fresh;
    }

    /// Start a span as a child of the innermost open span. The returned
    /// guard finishes the span (stamping its end time) when dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start = self.clock.now();
        let mut inner = self.inner.lock();
        inner.next_id += 1;
        let id = SpanId(inner.next_id);
        let parent = inner.stack.last().copied();
        inner.stack.push(id);
        let (attrs, events) = inner.buffers.pop().unwrap_or_default();
        SpanGuard {
            tracer: self,
            span: RefCell::new(Span {
                id,
                parent,
                name,
                start,
                end: start,
                attrs,
                events,
            }),
        }
    }

    /// The innermost open span, if any.
    pub fn current(&self) -> Option<SpanId> {
        self.inner.lock().stack.last().copied()
    }

    fn finish(&self, mut span: Span) {
        span.end = self.clock.now();
        let mut inner = self.inner.lock();
        if let Some(pos) = inner.stack.iter().rposition(|&id| id == span.id) {
            inner.stack.remove(pos);
        }
        inner.retain(span);
    }

    /// Total spans finished so far. Use as a mark for
    /// [`Tracer::finished_since`].
    pub fn mark(&self) -> u64 {
        self.inner.lock().finished()
    }

    /// Clones of the retained finished spans finished at or after `mark`
    /// (the `mark`-th finish onwards), in finish order.
    pub fn finished_since(&self, mark: u64) -> Vec<Span> {
        self.inner.lock().retained(mark)
    }

    /// Total spans finished so far (including any dropped past capacity).
    pub fn finished_count(&self) -> u64 {
        self.inner.lock().finished()
    }

    /// Serialize the retained finished spans, sorted by span id, in a
    /// byte-stable text format:
    ///
    /// ```text
    /// # trace 2545f4914f6cdd1d spans=3 dropped=0
    /// [000001] parent=- service.commit t=1000000+500000ns db=app
    /// [000001]   @1200000 locks-acquired
    /// ```
    ///
    /// All numbers are integers (nanoseconds / counts): no float formatting
    /// can perturb byte identity across runs.
    pub fn render(&self) -> String {
        let (mut spans, dropped) = {
            let inner = self.inner.lock();
            (inner.retained(0), inner.retained_from)
        };
        spans.sort_by_key(|s| s.id);
        let mut out = format!(
            "# trace {:016x} spans={} dropped={dropped}\n",
            self.trace_id,
            spans.len(),
        );
        for span in &spans {
            let _ = write!(out, "[{:06}] parent=", span.id.0);
            match span.parent {
                Some(p) => {
                    let _ = write!(out, "{:06}", p.0);
                }
                None => out.push('-'),
            }
            let _ = write!(
                out,
                " {} t={}+{}ns",
                span.name,
                span.start.as_nanos(),
                span.duration().as_nanos(),
            );
            for (k, v) in &span.attrs {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
            for event in &span.events {
                let _ = writeln!(out, "[{:06}]   @{} {event}", span.id.0, event.at.as_nanos());
            }
        }
        out
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tracer({:016x})", self.trace_id)
    }
}

/// RAII guard for an open span: finishes it (stamping the simulated end
/// time and popping it off the causality stack) on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    /// The span so far. Its attributes and events stay with the guard until
    /// it finishes, so attaching one takes no lock.
    span: RefCell<Span>,
}

impl SpanGuard<'_> {
    /// This span's id.
    pub fn id(&self) -> SpanId {
        self.span.borrow().id
    }

    /// Attach an attribute to this span.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        self.span.borrow_mut().attrs.push((key, value.into()));
    }

    /// Attach a timestamped point event to this span.
    pub fn event(&self, text: impl Into<AttrValue>) {
        self.push_event(text.into(), &[]);
    }

    /// Attach a timestamped point event with up to [`EVENT_ARGS`] integer
    /// arguments, rendered `text k=v k=v` without formatting anything now.
    pub fn event_args(&self, text: &'static str, args: &[(&'static str, u64)]) {
        self.push_event(AttrValue::Str(text), args);
    }

    fn push_event(&self, text: AttrValue, args: &[(&'static str, u64)]) {
        assert!(args.len() <= EVENT_ARGS, "an event carries at most {EVENT_ARGS} args");
        let mut event = Event {
            at: self.tracer.clock.now(),
            text,
            args: [None; EVENT_ARGS],
        };
        for (slot, &arg) in event.args.iter_mut().zip(args) {
            *slot = Some(arg);
        }
        self.span.borrow_mut().events.push(event);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.finish(std::mem::take(self.span.get_mut()));
    }
}

/// One counter series: its value and whether it has been updated yet (a
/// series resolved ahead of its first update is not exported).
#[derive(Default, Debug)]
struct CounterCell {
    value: AtomicU64,
    live: AtomicBool,
}

#[derive(Debug)]
enum Series {
    Counter(Arc<CounterCell>),
    Gauge(f64),
    /// Exported once it holds an observation.
    Histo(Arc<Mutex<Histogram>>),
}

/// A counter series resolved once by [`Metrics::counter`]: updating it is
/// two atomic operations, with no key formatting, lookup or allocation.
#[derive(Clone, Debug)]
pub struct CounterHandle(Arc<CounterCell>);

impl CounterHandle {
    /// Add `by` to the counter. The series is exported from now on, even
    /// when `by` is zero.
    pub fn incr(&self, by: u64) {
        self.0.value.fetch_add(by, Ordering::Relaxed);
        self.0.live.store(true, Ordering::Relaxed);
    }
}

/// A histogram series resolved once by [`Metrics::histogram_handle`]:
/// recording into it takes the series' own lock and allocates nothing.
#[derive(Clone, Debug)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        self.0.lock().record(v);
    }

    /// Record a simulated duration as fractional milliseconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_millis_f64());
    }
}

/// Metrics registry: counters, gauges, and log-bucketed histograms keyed by
/// `name{label=value,…}`. Cheap to clone; clones share state.
///
/// Hot paths resolve each series once into a [`CounterHandle`] or
/// [`HistogramHandle`]; [`Metrics::incr`] and [`Metrics::observe`] resolve
/// on every call and serve cold paths. A resolved series appears in
/// snapshots only after its first update.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<BTreeMap<String, Series>>>,
}

/// Render `name{k=v,…}` with labels sorted by key — the canonical series
/// key used by [`Metrics`] and its snapshots.
pub fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted = labels.to_vec();
    sorted.sort();
    let mut out = format!("{name}{{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}={v}");
    }
    out.push('}');
    out
}

impl Metrics {
    /// Create an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Whether `self` and `other` are clones of one registry.
    pub fn same_registry(&self, other: &Metrics) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Resolve the counter `name{labels}` into a handle, registering it
    /// (unexported until its first update) if absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        let key = series_key(name, labels);
        let mut inner = self.inner.lock();
        match inner
            .entry(key)
            .or_insert_with(|| Series::Counter(Arc::default()))
        {
            Series::Counter(c) => CounterHandle(c.clone()),
            _ => panic!("metric {name} is not a counter"),
        }
    }

    /// Resolve the histogram `name{labels}` into a handle, registering it
    /// (unexported until its first observation) if absent.
    pub fn histogram_handle(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        let key = series_key(name, labels);
        let mut inner = self.inner.lock();
        match inner
            .entry(key)
            .or_insert_with(|| Series::Histo(Arc::new(Mutex::new(Histogram::log_millis()))))
        {
            Series::Histo(h) => HistogramHandle(h.clone()),
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// Add `by` to the counter `name{labels}`.
    pub fn incr(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        self.counter(name, labels).incr(by);
    }

    /// Set the gauge `name{labels}` to `v`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let key = series_key(name, labels);
        self.inner.lock().insert(key, Series::Gauge(v));
    }

    /// Record one observation (milliseconds or any unit-consistent value)
    /// into the log-bucketed histogram `name{labels}`.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.histogram_handle(name, labels).observe(v);
    }

    /// Record a simulated duration (as fractional milliseconds) into the
    /// histogram `name{labels}`.
    pub fn observe_duration(&self, name: &str, labels: &[(&str, &str)], d: Duration) {
        self.observe(name, labels, d.as_millis_f64());
    }

    /// Current value of the counter `name{labels}` (0 when absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.inner.lock().get(&series_key(name, labels)) {
            Some(Series::Counter(c)) => c.value.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Current value of the gauge `name{labels}`, if set.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.inner.lock().get(&series_key(name, labels)) {
            Some(Series::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Clone of the histogram `name{labels}`, if any observation landed.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        match self.inner.lock().get(&series_key(name, labels)) {
            Some(Series::Histo(h)) => Some(h.lock().clone()).filter(|h| h.total() > 0),
            _ => None,
        }
    }

    /// A point-in-time copy of every updated series, for export.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let series = inner
            .iter()
            .filter_map(|(key, series)| {
                let value = match series {
                    Series::Counter(c) => c
                        .live
                        .load(Ordering::Relaxed)
                        .then(|| MetricValue::Counter(c.value.load(Ordering::Relaxed)))?,
                    Series::Gauge(g) => MetricValue::Gauge(*g),
                    Series::Histo(h) => {
                        let h = h.lock();
                        (h.total() > 0).then(|| MetricValue::Histo(h.clone()))?
                    }
                };
                Some((key.clone(), value))
            })
            .collect();
        MetricsSnapshot { series }
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Metrics({} series)", self.snapshot().len())
    }
}

#[derive(Clone, Debug)]
enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histo(Histogram),
}

/// A point-in-time copy of a [`Metrics`] registry, renderable as
/// deterministic text or JSON (series sorted by key).
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    series: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Number of series captured.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether no series were captured.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Series keys (`name{label=value,…}`), sorted.
    pub fn keys(&self) -> Vec<String> {
        self.series.keys().cloned().collect()
    }

    /// Whether any series of the given metric `name` exists (any labels).
    pub fn has_series(&self, name: &str) -> bool {
        self.series
            .keys()
            .any(|k| k == name || k.starts_with(&format!("{name}{{")))
    }

    /// One line per series, sorted by key:
    /// `counter name{…} 12` / `gauge name 3.5` /
    /// `histogram name total=9 p50=1.5 p99=12.0`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.series {
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "counter {key} {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "gauge {key} {g}");
                }
                MetricValue::Histo(h) => {
                    let _ = writeln!(
                        out,
                        "histogram {key} total={} p50={} p99={}",
                        h.total(),
                        h.quantile(0.5).unwrap_or(0.0),
                        h.quantile(0.99).unwrap_or(0.0),
                    );
                }
            }
        }
        out
    }

    /// JSON object `{"counters":{…},"gauges":{…},"histograms":{…}}` with
    /// keys sorted; histogram buckets are `[bucket_index, count]` pairs for
    /// non-empty buckets only.
    pub fn to_json(&self) -> String {
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histos = String::new();
        for (key, value) in &self.series {
            match value {
                MetricValue::Counter(c) => {
                    if !counters.is_empty() {
                        counters.push(',');
                    }
                    let _ = write!(counters, "\"{key}\":{c}");
                }
                MetricValue::Gauge(g) => {
                    if !gauges.is_empty() {
                        gauges.push(',');
                    }
                    let _ = write!(gauges, "\"{key}\":{g}");
                }
                MetricValue::Histo(h) => {
                    if !histos.is_empty() {
                        histos.push(',');
                    }
                    let mut buckets = String::new();
                    for (i, &c) in h.counts().iter().enumerate() {
                        if c > 0 {
                            if !buckets.is_empty() {
                                buckets.push(',');
                            }
                            let _ = write!(buckets, "[{i},{c}]");
                        }
                    }
                    let _ = write!(
                        histos,
                        "\"{key}\":{{\"total\":{},\"p50\":{},\"p99\":{},\"buckets\":[{buckets}]}}",
                        h.total(),
                        h.quantile(0.5).unwrap_or(0.0),
                        h.quantile(0.99).unwrap_or(0.0),
                    );
                }
            }
        }
        format!("{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histos}}}}}")
    }
}

/// Per-request latency decomposition across the serving stack (§ Fig 7's
/// spirit): how long the request spent in each phase of its life.
///
/// Phases that the simulation models as instantaneous (e.g. lock acquisition
/// without contention) are honestly zero; `queue`, `plan` and `execute` carry
/// the modeled CPU/storage costs, `commit_wait` and `fanout` carry real
/// simulated-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Fair-share scheduler queueing delay (modeled).
    pub queue: Duration,
    /// Query planning share of CPU cost (modeled).
    pub plan: Duration,
    /// Execution CPU + storage time (modeled).
    pub execute: Duration,
    /// Time spent acquiring Spanner locks (measured simulated time).
    pub lock_wait: Duration,
    /// TrueTime commit wait (measured simulated time).
    pub commit_wait: Duration,
    /// Real-time Cache matcher fanout delay (modeled).
    pub fanout: Duration,
}

/// The canonical phase label set, in breakdown order.
pub const PHASES: [&str; 6] = [
    "queue",
    "plan",
    "execute",
    "lock_wait",
    "commit_wait",
    "fanout",
];

impl PhaseBreakdown {
    /// Sum of every phase.
    pub fn total(&self) -> Duration {
        self.queue + self.plan + self.execute + self.lock_wait + self.commit_wait + self.fanout
    }

    /// The phases in canonical order, labelled as in [`PHASES`].
    pub fn phases(&self) -> [(&'static str, Duration); 6] {
        [
            ("queue", self.queue),
            ("plan", self.plan),
            ("execute", self.execute),
            ("lock_wait", self.lock_wait),
            ("commit_wait", self.commit_wait),
            ("fanout", self.fanout),
        ]
    }

    /// One-line human rendering, e.g.
    /// `queue=0.000ms plan=0.010ms … total=7.120ms`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (label, d) in self.phases() {
            let _ = write!(out, "{label}={:.3}ms ", d.as_millis_f64());
        }
        let _ = write!(out, "total={:.3}ms", self.total().as_millis_f64());
        out
    }

    /// Record every phase into `metrics` as `phase_ms{phase=…,…labels}`
    /// histograms (shared by the service, the load driver, and the bench
    /// bins so breakdowns aggregate uniformly). Resolves the six series on
    /// every call; a hot path resolves them once into [`PhaseHistograms`]
    /// and calls [`PhaseBreakdown::record_to`].
    pub fn record(&self, metrics: &Metrics, labels: &[(&str, &str)]) {
        self.record_to(&PhaseHistograms::resolve(metrics, labels));
    }

    /// Record every phase into its pre-resolved histogram.
    pub fn record_to(&self, histograms: &PhaseHistograms) {
        for ((_, d), h) in self.phases().into_iter().zip(&histograms.0) {
            h.observe_duration(d);
        }
    }
}

/// The six `phase_ms{phase=…,…labels}` histograms of one label set, in
/// [`PHASES`] order, resolved once for [`PhaseBreakdown::record_to`].
#[derive(Clone, Debug)]
pub struct PhaseHistograms([HistogramHandle; 6]);

impl PhaseHistograms {
    /// Resolve the phase histograms labelled `labels` plus `phase=…`.
    pub fn resolve(metrics: &Metrics, labels: &[(&str, &str)]) -> PhaseHistograms {
        PhaseHistograms(PHASES.map(|phase| {
            let mut all: Vec<(&str, &str)> = labels.to_vec();
            all.push(("phase", phase));
            metrics.histogram_handle("phase_ms", &all)
        }))
    }
}

/// A Misra–Gries heavy-hitter sketch for bounded-cardinality metric labels.
///
/// A fleet of thousands of databases cannot each get their own label value
/// without blowing up the registry (the classic cardinality explosion), but
/// the handful of heavy tenants are exactly the ones worth seeing by name.
/// The sketch tracks at most `k` candidate heavy hitters; [`TopK::label_for`]
/// returns the key itself while it is tracked and `"other"` once it is not.
/// Any key consuming more than `1/(k+1)` of the total observed weight is
/// guaranteed to be tracked.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    counters: BTreeMap<String, u64>,
}

/// The bucket label given to keys outside the top-K set.
pub const OTHER_LABEL: &str = "other";

impl TopK {
    /// A sketch tracking at most `k` keys.
    pub fn new(k: usize) -> TopK {
        TopK {
            k: k.max(1),
            counters: BTreeMap::new(),
        }
    }

    /// Add `n` observations of `key`.
    pub fn observe(&mut self, key: &str, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(c) = self.counters.get_mut(key) {
            *c += n;
            return;
        }
        if self.counters.len() < self.k {
            self.counters.insert(key.to_string(), n);
            return;
        }
        // Misra–Gries decrement step: charge the new key against every
        // tracked counter; keys driven to zero vacate their slot.
        let dec = n.min(self.counters.values().copied().min().unwrap_or(0));
        if dec > 0 {
            for c in self.counters.values_mut() {
                *c -= dec;
            }
            self.counters.retain(|_, c| *c > 0);
        }
        let leftover = n - dec;
        if leftover > 0 && self.counters.len() < self.k {
            self.counters.insert(key.to_string(), leftover);
        }
    }

    /// The metric label for `key`: the key itself while it is a tracked
    /// heavy hitter, [`OTHER_LABEL`] otherwise.
    pub fn label_for<'a>(&'a self, key: &'a str) -> &'a str {
        if self.counters.contains_key(key) {
            key
        } else {
            OTHER_LABEL
        }
    }

    /// Whether `key` is currently tracked.
    pub fn contains(&self, key: &str) -> bool {
        self.counters.contains_key(key)
    }

    /// The tracked keys and their (approximate, under-counted) weights, in
    /// key order.
    pub fn entries(&self) -> Vec<(String, u64)> {
        self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }
}

/// The shared observability handle: one [`Tracer`] and one [`Metrics`]
/// registry threaded through every layer. Cheap to clone.
#[derive(Clone, Debug)]
pub struct Obs {
    /// Deterministic structured tracer.
    pub tracer: Tracer,
    /// Metrics registry.
    pub metrics: Metrics,
}

impl Obs {
    /// Create an observability handle over `clock`, deriving the trace id
    /// from `seed`.
    pub fn new(clock: SimClock, seed: u64) -> Self {
        Obs {
            tracer: Tracer::new(clock, seed),
            metrics: Metrics::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_tracks_heavy_hitters_and_buckets_the_tail() {
        let mut t = TopK::new(3);
        // Three heavy tenants plus a long tail of one-hit wonders.
        for _ in 0..100 {
            t.observe("whale1", 10);
            t.observe("whale2", 8);
            t.observe("whale3", 6);
        }
        for i in 0..500 {
            t.observe(&format!("minnow{i}"), 1);
        }
        assert!(t.contains("whale1"));
        assert!(t.contains("whale2"));
        assert!(t.contains("whale3"));
        assert_eq!(t.label_for("whale1"), "whale1");
        assert_eq!(t.label_for("minnow7"), OTHER_LABEL);
        assert!(t.entries().len() <= 3);
    }

    #[test]
    fn topk_evicts_cold_keys_under_pressure() {
        let mut t = TopK::new(2);
        t.observe("a", 1);
        t.observe("b", 1);
        // A new heavy key displaces both cold ones.
        t.observe("c", 100);
        assert!(t.contains("c"));
        assert!(!t.contains("a"));
        assert!(!t.contains("b"));
    }

    #[test]
    fn spans_nest_and_render_deterministically() {
        let run = || {
            let clock = SimClock::new();
            let obs = Obs::new(clock.clone(), 42);
            {
                let root = obs.tracer.span("service.commit");
                root.attr("db", "app");
                clock.advance(Duration::from_millis(1));
                {
                    let child = obs.tracer.span("spanner.commit");
                    child.event("locks-acquired");
                    clock.advance(Duration::from_millis(2));
                }
                root.event("after-child");
            }
            obs.tracer.render()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed + same schedule must be byte-identical");
        assert!(a.contains("service.commit"));
        assert!(a.contains("parent=000001 spanner.commit"));
        assert!(a.contains("locks-acquired"));
        assert!(a.contains("db=app"));
    }

    #[test]
    fn tracer_capacity_bounds_memory() {
        let obs = Obs::new(SimClock::new(), 1);
        obs.tracer.set_capacity(4);
        for name in ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"] {
            let _s = obs.tracer.span(name);
        }
        assert_eq!(obs.tracer.finished_count(), 10);
        assert_eq!(obs.tracer.finished_since(0).len(), 4);
        assert!(obs.tracer.render().contains("dropped=6"));
    }

    #[test]
    fn retained_spans_keep_their_attrs_and_events_across_wraps() {
        // A small capacity wraps the span ring many times and makes the
        // attribute and event logs grow; every retained span must still
        // read back exactly its own attributes and events.
        let clock = SimClock::new();
        let obs = Obs::new(clock.clone(), 3);
        obs.tracer.set_capacity(5);
        for i in 0..100u64 {
            let s = obs.tracer.span("op");
            for k in 0..i % 4 {
                s.attr("k", k);
            }
            s.attr("i", i);
            if i % 3 == 0 {
                s.event_args("tick", &[("i", i)]);
            }
            clock.advance(Duration::from_nanos(1));
        }
        assert_eq!(obs.tracer.finished_count(), 100);
        let kept = obs.tracer.finished_since(0);
        assert!((2..=5).contains(&kept.len()), "{}", kept.len());
        assert_eq!(kept.last().map(|s| s.id.raw()), Some(100));
        for span in &kept {
            let i = span.id.raw() - 1;
            assert_eq!(span.attrs.len() as u64, i % 4 + 1);
            assert_eq!(span.attrs.last(), Some(&("i", AttrValue::U64(i))));
            assert_eq!(span.events.len(), usize::from(i % 3 == 0));
        }
        let text = obs.tracer.render();
        assert!(text.contains(&format!("dropped={}", 100 - kept.len())));
        assert!(text.contains("op t=99+1ns k=0 k=1 k=2 i=99"), "{text}");
        assert!(text.contains("@99 tick i=99"), "{text}");
    }

    #[test]
    fn metrics_snapshot_is_sorted_and_stable() {
        let m = Metrics::new();
        m.incr("b.count", &[("db", "x")], 2);
        m.incr("a.count", &[], 1);
        m.gauge_set("g", &[], 1.5);
        m.observe("lat_ms", &[("op", "read")], 3.0);
        m.observe("lat_ms", &[("op", "read")], 5.0);
        let snap = m.snapshot();
        let text = snap.to_text();
        let a = text.find("a.count").unwrap();
        let b = text.find("b.count").unwrap();
        assert!(a < b, "series must be sorted by key");
        assert!(snap.has_series("lat_ms"));
        assert!(!snap.has_series("lat"));
        assert_eq!(m.counter_value("b.count", &[("db", "x")]), 2);
        let json = snap.to_json();
        assert!(json.contains("\"a.count\":1"));
        assert!(json.contains("\"lat_ms{op=read}\""));
        assert_eq!(json, m.snapshot().to_json());
    }

    #[test]
    fn label_order_is_canonicalized() {
        assert_eq!(
            series_key("m", &[("z", "1"), ("a", "2")]),
            series_key("m", &[("a", "2"), ("z", "1")]),
        );
    }

    #[test]
    fn phase_breakdown_renders_and_records() {
        let pb = PhaseBreakdown {
            queue: Duration::from_millis(1),
            commit_wait: Duration::from_millis(7),
            ..PhaseBreakdown::default()
        };
        assert_eq!(pb.total(), Duration::from_millis(8));
        let line = pb.render();
        assert!(line.contains("queue=1.000ms"));
        assert!(line.contains("commit_wait=7.000ms"));
        assert!(line.contains("total=8.000ms"));
        let m = Metrics::new();
        pb.record(&m, &[("db", "app")]);
        let h = m.histogram("phase_ms", &[("db", "app"), ("phase", "queue")]);
        assert_eq!(h.unwrap().total(), 1);
    }
}
