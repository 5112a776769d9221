#![warn(missing_docs)]

//! The Real-time Cache (paper §IV-D4, Fig 5).
//!
//! Firestore's real-time queries are served by two in-memory components fed
//! from the write path's Prepare/Accept two-phase commit:
//!
//! * the **In-memory Changelog** ([`cache`]) tracks pending writes per
//!   document-name range, orders committed mutations by TrueTime timestamp,
//!   and knows when its sequence of updates is *complete* up to a timestamp
//!   (its watermark) — emitting heartbeats so idle ranges still make
//!   progress;
//! * the **Query Matcher** ([`cache`]) holds registered queries per
//!   document-name range — indexed as a decision tree over collection
//!   prefixes and encoded field values ([`firestore_core::matchtree`]), so
//!   matching an update is a tree descent, not a scan of every
//!   subscription — and matches each incoming document update against
//!   them;
//! * **Frontend sessions** ([`view`], [`cache::Connection`]) assemble the
//!   matched updates from all subscribed ranges into *consistent
//!   incremental snapshots*: a snapshot at timestamp `t` is only emitted
//!   once every subscribed range has reported (data or heartbeat) up to
//!   `t`, and queries multiplexed on one connection advance to `t`
//!   together.
//!
//! Range ownership ([`range`]) stands in for the Slicer auto-sharding
//! framework: one mechanism assigns document-name ranges to paired
//! Changelog/Query Matcher tasks and can move boundaries for load
//! balancing.
//!
//! Failure handling follows the paper: a Prepare that cannot be tracked
//! fails the write; an `Accept(Unknown)` or a Prepare that times out marks
//! the range out-of-sync and resets every real-time query matching it — the
//! client re-runs the initial query ([`ListenSnapshot`]) and re-subscribes.
//! That recovery loop lives in the client SDK, which also keeps its
//! listeners current by re-running their queries while its stream is down.

pub mod cache;
pub mod fanout;
pub mod range;
pub mod view;

pub use cache::{
    ChangeKind, Connection, ConnectionId, DocChangeEvent, ListenEvent, ListenSnapshot, QueryId,
    RealtimeCache, RealtimeOptions,
};
pub use fanout::{FanoutOptions, ResetCause, OVERLOAD_RESUBSCRIBE_DELAY};
pub use range::RangeMap;
