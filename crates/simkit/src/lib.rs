#![warn(missing_docs)]

//! Simulation kit shared by the whole `firestore-rs` workspace.
//!
//! The library engine (documents, indexes, transactions, real-time matching)
//! executes for real; what a laptop cannot reproduce is the *latency* of a
//! planet-scale deployment: Paxos quorum round trips, task CPU contention,
//! auto-scaler reaction times. `simkit` provides the building blocks used to
//! model those components deterministically:
//!
//! * [`clock::SimClock`] — a shared, monotonically advancing simulated clock.
//! * [`truetime::TrueTime`] — Spanner-style bounded-uncertainty time source
//!   producing globally ordered commit timestamps.
//! * [`des::Scheduler`] — a single-threaded discrete-event executor.
//! * [`rng::SimRng`] — a seeded, splittable random number generator with the
//!   distributions used by the workload generators.
//! * [`latency`] — latency models for replication quorums, RPC hops, and CPU
//!   service times.
//! * [`fault::FaultInjector`] — seeded, replayable fault injection (the
//!   chaos layer) consulted by the storage, messaging, and cache layers.
//! * [`stats`] — percentile / histogram / boxplot summaries used by the
//!   benchmark harness.
//! * [`obs`] — deterministic structured tracing, a metrics registry, and
//!   per-request phase breakdowns threaded through every layer.
//! * [`prof`] — a span-folding profiler over the trace stream (self vs.
//!   cumulative time, collapsed-stack export) and the integer cost ledger
//!   charged to the clock on the hot paths.
//!
//! Everything is deterministic given a seed: running an experiment twice
//! produces identical output.

pub mod clock;
pub mod des;
pub mod disk;
pub mod fault;
pub mod history;
pub mod latency;
pub mod obs;
pub mod prof;
pub mod rng;
pub mod stats;
pub mod truetime;

pub use clock::{Duration, SimClock, Timestamp};
pub use des::Scheduler;
pub use disk::{CrashPoints, DiskError, LogReplay, SimDisk};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRule, FaultStats};
pub use history::{HistoryEvent, HistoryRecorder, ModelStore, Recorded, Violation};
pub use obs::{
    AttrValue, CounterHandle, HistogramHandle, Metrics, MetricsSnapshot, Obs, PhaseBreakdown,
    PhaseHistograms, Span, SpanGuard, SpanId, TopK, Tracer,
};
pub use prof::FoldedProfile;
pub use rng::SimRng;
pub use truetime::{TrueTime, TtInterval};
