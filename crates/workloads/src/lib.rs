#![warn(missing_docs)]

//! Workload generators and load drivers for the paper's evaluation (§V).
//!
//! * [`ycsb`] — the YCSB benchmark (§V-B1): workload A (50% reads / 50%
//!   updates) and workload B (95/5), uniform key distribution, 900-byte
//!   single-field documents.
//! * [`datashape`] — the Fig 10 sweeps: documents of growing size and
//!   documents with a growing number of indexed fields.
//! * [`fanout`] — the Fig 9 broadcast scenario: one document written once a
//!   second while N clients hold a real-time query over it.
//! * [`isolation`] — the Fig 11 culprit/bystander pair: CPU-hungry
//!   inefficiently-indexed queries ramping up against steady single-
//!   document fetches.
//! * [`fleet`] — the tenant-fleet chaos workload: hundreds of databases, a
//!   conforming majority, and adversarial tenants (hotspot hammer, batch
//!   scanner, quota-edge free tier, 500/50/5-violating ramp) driven through
//!   the tenant control plane under seeded chaos and crash–recover cycles.
//! * [`production`] — the Fig 6 synthesis: heavy-tailed per-database
//!   storage / QPS / active-query distributions spanning many orders of
//!   magnitude.
//! * [`driver`] — the closed measurement loop: Poisson arrivals at a target
//!   QPS feeding the Backend CPU scheduler, with calibrated costs sampled
//!   from real engine executions, producing per-request latency samples.

pub mod datashape;
pub mod driver;
pub mod fanout;
pub mod fleet;
pub mod history;
pub mod isolation;
pub mod production;
pub mod ycsb;

/// Rules granting everything: the SDK clients of these workloads
/// authenticate as plain users, so their requests are subject to rules
/// evaluation.
const OPEN_RULES: &str = r#"
service cloud.firestore {
  match /databases/{db}/documents {
    match /{document=**} { allow read, write; }
  }
}
"#;

pub use driver::{DriverConfig, DriverReport};
pub use fleet::{run_fleet, FleetConfig, FleetReport, FleetWorld};
pub use history::{run_history_workload, HistoryConfig, HistoryOutcome, HistoryWorld};
pub use ycsb::{YcsbConfig, YcsbOp, YcsbWorkload};
