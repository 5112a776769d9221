//! Overload-safe fanout primitives: bounded outbound queues, coalescing
//! delta buffers, and the reset-cause taxonomy.
//!
//! The paper's Real-time Cache fires its out-of-sync reset only on faults
//! (§IV-D4: unknown write outcomes, task restarts). At production fanout
//! scale the same path must double as the overload escape hatch — otherwise
//! one listener that stops draining grows an unbounded queue and a hot
//! document costs one materialized notification per write per listener.
//! This module supplies the mechanisms the cache composes:
//!
//! * [`OutboundQueue`] — the per-connection outbound event queue behind a
//!   hard entry/byte bound, with a watermark below the bound at which the
//!   pipeline stops materializing new snapshots for that connection
//!   (backpressure), and a drain clock for stall detection;
//! * [`DeltaBuffer`] — the per-query committed-but-not-yet-consistent
//!   buffer. Payloads are shared (`Arc<DocumentChange>`), so fanning one
//!   change out to 10⁵ listeners costs 10⁵ pointers, not 10⁵ deep copies,
//!   and the flush coalesces per document (last write wins) so a hot
//!   document produces one applied change per flush instead of one per
//!   write;
//! * [`ResetCause`] — every reset is labelled `fault` (the paper's
//!   out-of-sync path: unknown outcome, expired prepare, failed requery) or
//!   `overload` (voluntary: bound exceeded, buffer exceeded, stalled past
//!   the deadline), so operators and the chaos suites can tell recovery
//!   from shedding;
//! * [`FanoutMeter`] — bounded-cardinality metrics: per-connection queue
//!   gauges aggregate through a top-K + `other` table (the PR 6 tenant
//!   pattern), so 10⁵ listeners cannot blow up the metrics registry.

use firestore_core::observer::DocumentChange;
use simkit::{Duration, Metrics, Timestamp, TopK};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Why a listener was reset (the §IV-D4 reset path's cause taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResetCause {
    /// The paper's involuntary path: the range went out of sync (unknown
    /// write outcome, expired Prepare, cache restart, failed requery).
    Fault,
    /// The voluntary path: the listener exceeded a queue/buffer bound or
    /// stalled past its drain deadline and was shed to protect the
    /// pipeline. Its queued deltas were dropped; catch-up recovers it.
    Overload,
}

impl ResetCause {
    /// Stable metrics/label name.
    pub fn label(self) -> &'static str {
        match self {
            ResetCause::Fault => "fault",
            ResetCause::Overload => "overload",
        }
    }
}

/// Hard bound on queued outbound events per connection; exceeding it fires
/// an overload reset (cause `overload`, reason `queue`).
pub const QUEUE_MAX_EVENTS: usize = 1024;

/// Hard bound on queued outbound bytes per connection (approximate, from
/// the cache's per-event cost accounting).
pub const QUEUE_MAX_BYTES: usize = 1 << 20;

/// Fraction of either hard bound at which backpressure starts: above it the
/// pipeline defers materializing new snapshots for the connection (changes
/// stay coalesced in the [`DeltaBuffer`]) instead of queueing more.
pub const HIGH_WATERMARK: f64 = 0.5;

/// Hard bound on buffered (pre-flush) changes per query; exceeding it fires
/// an overload reset (reason `buffer`). Backpressured listeners park
/// changes here, so this is the second resource bound.
pub const BUFFERED_MAX_CHANGES: usize = 4096;

/// Safety valve for batched mode: flush inline once this many changes are
/// backlogged, so a write burst cannot grow the changelog unboundedly
/// within one flush interval.
pub const CHANGELOG_FLUSH_CHANGES: usize = 8192;

/// How many of its own polling calls (an SDK client's `sync`) a consumer
/// shed by an overload reset sits out before it re-subscribes.
/// Re-subscribing at once would re-create the pressure that shed it; a
/// fault reset recovers without delay.
pub const OVERLOAD_RESUBSCRIBE_DELAY: u32 = 2;

/// Configuration of the overload-safe fanout pipeline.
#[derive(Clone, Debug)]
pub struct FanoutOptions {
    /// A connection with queued events that has not drained for this long
    /// is stalled: overload reset (reason `stall`).
    pub stall_deadline: Duration,
    /// Flush cadence: `ZERO` emits on every Accept (the eager pre-batching
    /// behavior every interactive test expects); a positive interval
    /// batches committed changes in the changelog and routes + emits them
    /// once per interval — one tree descent per batch, one notification
    /// per flush per hot document.
    pub flush_interval: Duration,
}

impl Default for FanoutOptions {
    fn default() -> Self {
        FanoutOptions {
            stall_deadline: Duration::from_secs(30),
            flush_interval: Duration::ZERO,
        }
    }
}

/// Pressure classification of an [`OutboundQueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueuePressure {
    /// Below the high watermark.
    Normal,
    /// At or above the watermark but under the hard bound: stop
    /// materializing new snapshots, keep coalescing upstream.
    High,
    /// Hard bound exceeded: shed the listener (overload reset).
    Overflow,
}

/// A per-connection outbound queue behind hard entry/byte bounds.
///
/// Generic over the event type so the module stays independent of the
/// cache's `ListenEvent`; each push carries the event's approximate cost in
/// bytes.
#[derive(Debug)]
pub struct OutboundQueue<E> {
    events: VecDeque<(E, usize)>,
    bytes: usize,
    max_events: usize,
    max_bytes: usize,
    /// When the oldest undrained event was queued: the drain clock starts
    /// when the queue goes from empty to non-empty, so a connection that
    /// was idle for a long time is not stalled by its first event.
    pending_since: Timestamp,
    /// Cumulative events dropped by [`OutboundQueue::clear`] (reset path).
    dropped: u64,
}

impl<E> OutboundQueue<E> {
    /// An empty queue with the given hard bounds (the cache uses
    /// [`QUEUE_MAX_EVENTS`] and [`QUEUE_MAX_BYTES`]); backpressure starts at
    /// [`HIGH_WATERMARK`] of either.
    pub fn new(max_events: usize, max_bytes: usize, now: Timestamp) -> OutboundQueue<E> {
        OutboundQueue {
            events: VecDeque::new(),
            bytes: 0,
            max_events: max_events.max(1),
            max_bytes: max_bytes.max(1),
            pending_since: now,
            dropped: 0,
        }
    }

    /// Queued events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Queued approximate bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Events dropped by resets so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Enqueue an event with its approximate cost at `now`.
    pub fn push(&mut self, event: E, cost: usize, now: Timestamp) {
        if self.events.is_empty() {
            self.pending_since = now;
        }
        self.bytes += cost;
        self.events.push_back((event, cost));
    }

    /// Current pressure classification.
    pub fn pressure(&self) -> QueuePressure {
        if self.events.len() > self.max_events || self.bytes > self.max_bytes {
            return QueuePressure::Overflow;
        }
        let ev_mark = (self.max_events as f64 * HIGH_WATERMARK) as usize;
        let by_mark = (self.max_bytes as f64 * HIGH_WATERMARK) as usize;
        if self.events.len() >= ev_mark.max(1) || self.bytes >= by_mark.max(1) {
            QueuePressure::High
        } else {
            QueuePressure::Normal
        }
    }

    /// Drain everything (the client's poll).
    pub fn drain(&mut self) -> Vec<E> {
        self.bytes = 0;
        self.events.drain(..).map(|(e, _)| e).collect()
    }

    /// Drop all queued events (the reset path discards a shed listener's
    /// deltas). The reset notice queued next starts a fresh drain clock,
    /// so the listener gets a full deadline to pick it up.
    pub fn clear(&mut self) {
        self.dropped += self.events.len() as u64;
        self.events.clear();
        self.bytes = 0;
    }

    /// Restart the drain clock without draining. A fresh subscription on
    /// the connection proves the client is alive *now*; without this, a
    /// listener recovering from a shed inherits the stale pre-stall clock
    /// and is immediately shed again.
    pub fn touch(&mut self, now: Timestamp) {
        self.pending_since = now;
    }

    /// Whether the connection has an undrained event queued longer than
    /// `deadline` ago.
    pub fn stalled(&self, now: Timestamp, deadline: Duration) -> bool {
        !self.events.is_empty() && now.saturating_sub(self.pending_since) > deadline
    }
}

/// Per-query buffer of committed-but-not-yet-consistent changes, with
/// shared payloads and flush-time per-document coalescing.
#[derive(Debug, Default)]
pub struct DeltaBuffer {
    by_ts: BTreeMap<Timestamp, Vec<Arc<DocumentChange>>>,
    entries: usize,
}

impl DeltaBuffer {
    /// An empty buffer.
    pub fn new() -> DeltaBuffer {
        DeltaBuffer::default()
    }

    /// Buffered change count.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Buffer one committed change at its commit timestamp.
    pub fn push(&mut self, ts: Timestamp, change: Arc<DocumentChange>) {
        self.by_ts.entry(ts).or_default().push(change);
        self.entries += 1;
    }

    /// Drop everything (reset / restart path).
    pub fn clear(&mut self) {
        self.by_ts.clear();
        self.entries = 0;
    }

    /// Take every change with commit timestamp ≤ `watermark`, coalesced per
    /// document: only the *last* buffered change of each document survives
    /// (the view's apply is last-write-wins per document, so the result is
    /// identical and a hot document costs one applied change per flush).
    /// Returns `(coalesced_batch, changes_absorbed)` where the second count
    /// is how many raw changes coalescing absorbed.
    pub fn take_ready(&mut self, watermark: Timestamp) -> (Vec<Arc<DocumentChange>>, u64) {
        let ready: Vec<Timestamp> = self
            .by_ts
            .range(..=watermark)
            .map(|(t, _)| *t)
            .collect();
        if ready.is_empty() {
            return (Vec::new(), 0);
        }
        let mut raw: Vec<Arc<DocumentChange>> = Vec::new();
        for t in ready {
            if let Some(changes) = self.by_ts.remove(&t) {
                raw.extend(changes);
            }
        }
        self.entries -= raw.len();
        let total = raw.len();
        // Keep the last change per document, in the order of those last
        // occurrences (timestamp order is preserved between documents).
        let mut last_index: HashMap<&firestore_core::DocumentName, usize> =
            HashMap::with_capacity(raw.len());
        for (i, c) in raw.iter().enumerate() {
            last_index.insert(&c.name, i);
        }
        let keep: Vec<Arc<DocumentChange>> = raw
            .iter()
            .enumerate()
            .filter(|(i, c)| last_index.get(&c.name) == Some(i))
            .map(|(_, c)| c.clone())
            .collect();
        let absorbed = (total - keep.len()) as u64;
        (keep, absorbed)
    }
}

/// Approximate wire cost of one document change (name + field payload).
pub fn change_cost(change: &DocumentChange) -> usize {
    let doc_cost = |d: &firestore_core::Document| 24 + 24 * d.fields.len();
    32 + change.new.as_ref().map(doc_cost).unwrap_or(8)
}

/// Bounded-cardinality fanout metrics: totals plus per-connection queue
/// gauges through a top-K + `other` aggregation, mirroring the PR 6
/// per-tenant metrics discipline. Registered series stay O(K + causes +
/// shards) no matter how many listeners connect.
#[derive(Debug)]
pub struct FanoutMeter {
    topk: TopK,
    /// Gauge keys exported last round (cleared to zero before re-export so
    /// a connection leaving the top-K does not leave a stale gauge).
    exported: Vec<String>,
}

/// Top-K table size for per-connection gauges (matches the tenant plane).
pub const FANOUT_TOP_K: usize = 8;

impl Default for FanoutMeter {
    fn default() -> Self {
        FanoutMeter::new()
    }
}

impl FanoutMeter {
    /// An empty meter.
    pub fn new() -> FanoutMeter {
        FanoutMeter {
            topk: TopK::new(FANOUT_TOP_K),
            exported: Vec::new(),
        }
    }

    /// Note bytes queued for a connection (feeds the top-K ranking).
    pub fn note_queued(&mut self, conn: u64, bytes: usize) {
        self.topk.observe(&conn.to_string(), bytes as u64);
    }

    /// Export per-connection queue gauges, aggregating everything outside
    /// the top-K under `conn="other"`.
    pub fn export_gauges<'a>(
        &mut self,
        metrics: &Metrics,
        queues: impl Iterator<Item = (u64, &'a (dyn QueueGauge + 'a))>,
    ) {
        for key in self.exported.drain(..) {
            metrics.gauge_set("rtc.fanout.queue_bytes", &[("conn", &key)], 0.0);
        }
        let mut agg: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for (conn, q) in queues {
            let raw = conn.to_string();
            let label = self.topk.label_for(&raw).to_string();
            let e = agg.entry(label).or_insert((0.0, 0.0));
            e.0 += q.queued_bytes() as f64;
            e.1 += q.queued_events() as f64;
        }
        for (label, (bytes, events)) in agg {
            metrics.gauge_set("rtc.fanout.queue_bytes", &[("conn", &label)], bytes);
            metrics.gauge_set("rtc.fanout.queue_events", &[("conn", &label)], events);
            self.exported.push(label);
        }
    }
}

/// What [`FanoutMeter::export_gauges`] reads off a queue — object-safe so
/// the meter does not need the queue's event type.
pub trait QueueGauge {
    /// Queued approximate bytes.
    fn queued_bytes(&self) -> usize;
    /// Queued event count.
    fn queued_events(&self) -> usize;
}

impl<E> QueueGauge for OutboundQueue<E> {
    fn queued_bytes(&self) -> usize {
        self.bytes()
    }
    fn queued_events(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firestore_core::database::doc;
    use firestore_core::{Document, Value};

    fn change(path: &str, v: i64) -> Arc<DocumentChange> {
        let name = doc(path);
        Arc::new(DocumentChange {
            name: name.clone(),
            old: None,
            new: Some(Document::new(name, [("v", Value::Int(v))])),
        })
    }

    /// A tiny queue: 4 events / 1000 bytes.
    fn queue() -> OutboundQueue<u32> {
        OutboundQueue::new(4, 1000, Timestamp::ZERO)
    }

    #[test]
    fn queue_pressure_classification() {
        let mut q = queue();
        assert_eq!(q.pressure(), QueuePressure::Normal);
        let t = Timestamp::ZERO;
        q.push(1, 10, t);
        q.push(2, 10, t);
        assert_eq!(q.pressure(), QueuePressure::High, "watermark at 2 of 4");
        q.push(3, 10, t);
        q.push(4, 10, t);
        assert_eq!(q.pressure(), QueuePressure::High);
        q.push(5, 10, t);
        assert_eq!(q.pressure(), QueuePressure::Overflow);
        let drained = q.drain();
        assert_eq!(drained, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.pressure(), QueuePressure::Normal);
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn queue_byte_bound_trips_independently() {
        let mut q = queue();
        q.push(1, 1200, Timestamp::ZERO);
        assert_eq!(q.pressure(), QueuePressure::Overflow, "1200 > 1000 bytes");
    }

    #[test]
    fn stall_detection_uses_drain_clock() {
        let mut q = queue();
        let deadline = Duration::from_secs(5);
        assert!(!q.stalled(Timestamp::from_millis(60_000), deadline), "empty never stalls");
        // Idle for a minute, then one event: the clock starts now.
        q.push(1, 1, Timestamp::from_millis(60_000));
        assert!(!q.stalled(Timestamp::from_millis(64_000), deadline));
        q.push(2, 1, Timestamp::from_millis(65_500));
        assert!(q.stalled(Timestamp::from_millis(66_000), deadline), "oldest event is 6 s old");
        q.drain();
        q.push(3, 1, Timestamp::from_millis(70_000));
        assert!(!q.stalled(Timestamp::from_millis(74_000), deadline), "drain resets the clock");
    }

    #[test]
    fn clear_counts_dropped_events() {
        let mut q = queue();
        q.push(1, 10, Timestamp::ZERO);
        q.push(2, 10, Timestamp::ZERO);
        q.clear();
        assert_eq!(q.dropped(), 2);
        assert!(q.is_empty());
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn delta_buffer_coalesces_hot_document_per_flush() {
        let mut b = DeltaBuffer::new();
        for i in 0..5 {
            b.push(Timestamp::from_millis(i + 1), change("/scores/game1", i as i64));
        }
        b.push(Timestamp::from_millis(3), change("/scores/other", 9));
        assert_eq!(b.len(), 6);
        let (batch, absorbed) = b.take_ready(Timestamp::from_millis(10));
        assert_eq!(batch.len(), 2, "one change per document");
        assert_eq!(absorbed, 4);
        assert!(b.is_empty());
        // The hot document kept its *latest* version.
        let hot = batch.iter().find(|c| c.name.id() == "game1").unwrap();
        assert_eq!(hot.new.as_ref().unwrap().fields.get("v"), Some(&Value::Int(4)));
    }

    #[test]
    fn delta_buffer_respects_watermark() {
        let mut b = DeltaBuffer::new();
        b.push(Timestamp::from_millis(1), change("/c/a", 1));
        b.push(Timestamp::from_millis(9), change("/c/a", 2));
        let (batch, absorbed) = b.take_ready(Timestamp::from_millis(5));
        assert_eq!(batch.len(), 1);
        assert_eq!(absorbed, 0, "the later write is beyond the watermark");
        assert_eq!(batch[0].new.as_ref().unwrap().fields.get("v"), Some(&Value::Int(1)));
        assert_eq!(b.len(), 1, "the post-watermark change stays buffered");
    }

    #[test]
    fn reset_cause_labels() {
        assert_eq!(ResetCause::Fault.label(), "fault");
        assert_eq!(ResetCause::Overload.label(), "overload");
    }
}
