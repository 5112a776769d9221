//! The simulated durable medium and the crash-point registry.
//!
//! Spanner's durability rests on replicated redo logs (paper §IV-D1); to
//! exercise crash–restart recovery deterministically the workspace needs a
//! durable medium whose failure modes are injectable and replayable. This
//! module provides two building blocks:
//!
//! * [`SimDisk`] — a set of named append-only logs with an explicit
//!   `append`/`fsync` boundary. Only fsynced bytes survive a [`SimDisk::crash`];
//!   a [`FaultKind::FsyncFail`] fault makes an fsync fail (the unsynced tail
//!   stays volatile), and a [`FaultKind::TornTail`] fault makes a crash leave
//!   a *partial* record at the end of the durable image, which recovery must
//!   detect and truncate — the FoundationDB-style torn-write model.
//! * [`CrashPoints`] — a registry of named crash sites. Components call
//!   [`CrashPoints::reached`] at each site; the registry records every site a
//!   workload passes through so a sweep harness can enumerate them, and an
//!   *armed* site fires exactly once, telling the component to simulate a
//!   process kill at that instant.
//!
//! Both are deterministic: the same seed and the same operation sequence
//! produce bit-identical durable images and crash decisions.

use crate::env::SimEnv;
use crate::fault::FaultKind;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Errors surfaced by the durable medium.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// The fsync failed; bytes appended since the last successful fsync are
    /// not durable. The caller should treat the write as failed.
    FsyncFailed,
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::FsyncFailed => write!(f, "fsync failed; tail not durable"),
        }
    }
}

impl std::error::Error for DiskError {}

/// Frame header magic byte; a parser that does not find it stops (torn tail).
const FRAME_MAGIC: u8 = 0xA5;

/// Frame one record: `[magic][len u32 BE][payload][checksum u32 BE]`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 9);
    out.push(FRAME_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(payload).to_be_bytes());
    out
}

fn checksum(payload: &[u8]) -> u32 {
    // A simple order-sensitive rolling sum: enough to catch a torn or
    // bit-rotted tail in the simulator (we are not defending against an
    // adversary, only detecting incomplete flushes).
    let mut sum: u32 = 0x9E37_79B9;
    for &b in payload {
        sum = sum.rotate_left(5) ^ (b as u32);
    }
    sum
}

#[derive(Default)]
struct LogState {
    /// Bytes confirmed durable by a successful fsync.
    durable: Vec<u8>,
    /// Bytes appended but not yet fsynced; lost (or torn) at crash.
    unsynced: Vec<u8>,
}

#[derive(Default)]
struct DiskState {
    logs: HashMap<String, LogState>,
    /// The world whose chaos decides fsync failures and torn tails.
    env: SimEnv,
    crashes: u64,
    torn_tails: u64,
}

/// A deterministic simulated durable medium: named append-only logs with an
/// explicit fsync boundary. Cheap to clone; clones share state (the same
/// "disk" survives the volatile components that write to it).
#[derive(Clone, Default)]
pub struct SimDisk {
    state: Arc<Mutex<DiskState>>,
}

/// The result of reading a log back: parsed records plus whether a torn
/// (incomplete or corrupt) tail was found and truncated.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogReplay {
    /// Complete, checksum-valid records in append order.
    pub records: Vec<Vec<u8>>,
    /// Whether the log ended in a partial record (truncated by the reader).
    pub torn_tail: bool,
}

impl SimDisk {
    /// An empty disk.
    pub fn new() -> SimDisk {
        SimDisk::default()
    }

    /// Join the simulated world `env`: its chaos injector decides
    /// [`FaultKind::FsyncFail`] and [`FaultKind::TornTail`] faults from now
    /// on. A new disk is alone in a world of its own with nothing
    /// installed; attaching it to a Spanner database joins that database's
    /// world.
    pub fn join(&self, env: &SimEnv) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).env = env.clone();
    }

    /// Append one framed record to `log`'s unsynced tail. Appends never fail
    /// — durability is only claimed at [`SimDisk::fsync`].
    pub fn append(&self, log: &str, payload: &[u8]) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let framed = frame(payload);
        st.logs.entry(log.to_string()).or_default().unsynced.extend(framed);
    }

    /// Flush `log`'s unsynced tail to the durable image. A
    /// [`FaultKind::FsyncFail`] fault fails the flush; the tail stays
    /// unsynced (the caller may retry or abort).
    pub fn fsync(&self, log: &str) -> Result<(), DiskError> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.env.world().inject(FaultKind::FsyncFail, "disk-fsync") {
            return Err(DiskError::FsyncFailed);
        }
        if let Some(l) = st.logs.get_mut(log) {
            let tail = std::mem::take(&mut l.unsynced);
            l.durable.extend(tail);
        }
        Ok(())
    }

    /// Drop `log`'s unsynced tail without flushing it. A caller that aborts
    /// after a failed [`SimDisk::fsync`] must discard the dead record;
    /// otherwise a later, unrelated fsync of the same log would flush it,
    /// making a write durable that the caller reported as failed.
    pub fn discard_unsynced(&self, log: &str) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(l) = st.logs.get_mut(log) {
            l.unsynced.clear();
        }
    }

    /// Simulate a process crash: all unsynced tails are lost. Where a
    /// [`FaultKind::TornTail`] fault fires, a *prefix* of the unsynced tail
    /// reaches the durable image instead — a partially flushed record that
    /// replay must detect and truncate.
    pub fn crash(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.crashes += 1;
        let world = st.env.world();
        let mut torn = 0u64;
        for l in st.logs.values_mut() {
            let tail = std::mem::take(&mut l.unsynced);
            if tail.is_empty() {
                continue;
            }
            if world.inject(FaultKind::TornTail, "disk-crash") {
                // Half the in-flight bytes made it out — never the whole
                // tail, so the final record is always incomplete.
                let keep = (tail.len() / 2).max(1).min(tail.len() - 1);
                l.durable.extend_from_slice(&tail[..keep]);
                torn += 1;
            }
        }
        st.torn_tails += torn;
    }

    /// Read `log`'s durable image back as parsed records, truncating any
    /// torn tail. Unknown logs read as empty.
    pub fn read(&self, log: &str) -> LogReplay {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let Some(l) = st.logs.get(log) else {
            return LogReplay::default();
        };
        parse_frames(&l.durable)
    }

    /// Names of all logs whose name starts with `prefix`, sorted (so replay
    /// order is deterministic).
    pub fn logs_with_prefix(&self, prefix: &str) -> Vec<String> {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut names: Vec<String> = st
            .logs
            .keys()
            .filter(|n| n.starts_with(prefix))
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Total durable bytes across all logs (observability / benchmarks).
    pub fn durable_bytes(&self) -> usize {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.logs.values().map(|l| l.durable.len()).sum()
    }

    /// Number of crashes simulated so far.
    pub fn crash_count(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).crashes
    }

    /// Number of torn tails produced by crashes so far.
    pub fn torn_tail_count(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).torn_tails
    }
}

impl fmt::Debug for SimDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        write!(
            f,
            "SimDisk(logs={}, durable_bytes={}, crashes={})",
            st.logs.len(),
            st.logs.values().map(|l| l.durable.len()).sum::<usize>(),
            st.crashes
        )
    }
}

fn parse_frames(bytes: &[u8]) -> LogReplay {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        // Header: magic + length.
        if bytes[pos] != FRAME_MAGIC || pos + 5 > bytes.len() {
            return LogReplay {
                records,
                torn_tail: true,
            };
        }
        let len = u32::from_be_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
        let payload_start = pos + 5;
        let payload_end = payload_start + len;
        let frame_end = payload_end + 4;
        if frame_end > bytes.len() {
            return LogReplay {
                records,
                torn_tail: true,
            };
        }
        let payload = &bytes[payload_start..payload_end];
        let stored = u32::from_be_bytes(bytes[payload_end..frame_end].try_into().unwrap());
        if stored != checksum(payload) {
            return LogReplay {
                records,
                torn_tail: true,
            };
        }
        records.push(payload.to_vec());
        pos = frame_end;
    }
    LogReplay {
        records,
        torn_tail: false,
    }
}

// --- crash points -----------------------------------------------------------

#[derive(Default)]
struct CpState {
    /// Every site reached, in first-reached order (deduplicated).
    reached: Vec<&'static str>,
    /// Hit counters per site.
    counts: HashMap<&'static str, u64>,
    /// The armed site and the 0-based hit index at which it fires.
    armed: Option<(String, u64)>,
    /// Whether the armed site has fired.
    fired: Option<&'static str>,
}

/// The crash-point registry. Components consult it at every named crash
/// site; a sweep harness first runs a workload unarmed to enumerate the
/// sites it reaches, then re-runs with each site armed in turn.
#[derive(Clone, Default)]
pub struct CrashPoints {
    state: Arc<Mutex<CpState>>,
}

impl CrashPoints {
    /// An empty, unarmed registry.
    pub fn new() -> CrashPoints {
        CrashPoints::default()
    }

    /// Arm a crash at the `nth` (0-based) hit of `site`. Only one site is
    /// armed at a time; re-arming replaces the previous target.
    pub fn arm(&self, site: &str, nth: u64) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.armed = Some((site.to_string(), nth));
        st.fired = None;
    }

    /// Disarm any pending crash.
    pub fn disarm(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.armed = None;
    }

    /// Record that execution reached `site`. Returns `true` when the armed
    /// crash fires here — the caller must then simulate a process kill
    /// (drop volatile state). Fires at most once per arming.
    pub fn reached(&self, site: &'static str) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !st.counts.contains_key(site) {
            st.reached.push(site);
        }
        let count = st.counts.entry(site).or_insert(0);
        let hit = *count;
        *count += 1;
        if st.fired.is_some() {
            return false;
        }
        match &st.armed {
            Some((armed, nth)) if armed == site && *nth == hit => {
                st.fired = Some(site);
                true
            }
            _ => false,
        }
    }

    /// Every site reached so far, in first-reached order.
    pub fn sites(&self) -> Vec<&'static str> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .reached
            .clone()
    }

    /// Hit count of one site.
    pub fn hits(&self, site: &str) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .counts
            .get(site)
            .copied()
            .unwrap_or(0)
    }

    /// The site where the armed crash fired, if it has.
    pub fn fired(&self) -> Option<&'static str> {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).fired
    }

    /// Clear counters and the reached list (keeps nothing armed).
    pub fn reset(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *st = CpState::default();
    }
}

impl fmt::Debug for CrashPoints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        write!(
            f,
            "CrashPoints(sites={}, armed={:?}, fired={:?})",
            st.reached.len(),
            st.armed,
            st.fired
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::fault::{FaultInjector, FaultPlan, FaultRule};

    /// A disk in a world of its own running `plan`.
    fn chaotic_disk(clock: SimClock, plan: FaultPlan) -> SimDisk {
        let env = SimEnv::default();
        env.set_chaos(Some(FaultInjector::new(clock, plan)));
        let disk = SimDisk::new();
        disk.join(&env);
        disk
    }

    #[test]
    fn unsynced_bytes_are_lost_at_crash() {
        let disk = SimDisk::new();
        disk.append("wal", b"one");
        disk.fsync("wal").unwrap();
        disk.append("wal", b"two");
        disk.crash();
        let replay = disk.read("wal");
        assert_eq!(replay.records, vec![b"one".to_vec()]);
        assert!(!replay.torn_tail);
    }

    #[test]
    fn fsynced_bytes_survive_crash() {
        let disk = SimDisk::new();
        for i in 0..10u8 {
            disk.append("wal", &[i]);
        }
        disk.fsync("wal").unwrap();
        disk.crash();
        assert_eq!(disk.read("wal").records.len(), 10);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let clock = SimClock::new();
        let plan = FaultPlan::new(11).rule(FaultRule::probabilistic(FaultKind::TornTail, 1.0));
        let disk = chaotic_disk(clock, plan);
        disk.append("wal", b"durable");
        disk.fsync("wal").unwrap();
        disk.append("wal", b"in-flight-record");
        disk.crash();
        let replay = disk.read("wal");
        assert_eq!(replay.records, vec![b"durable".to_vec()]);
        assert!(replay.torn_tail, "partial flush must be detected");
        assert_eq!(disk.torn_tail_count(), 1);
    }

    #[test]
    fn fsync_failure_keeps_tail_unsynced() {
        let clock = SimClock::new();
        // First fsync consultation fails, later ones succeed.
        let plan = FaultPlan::new(1).rule(FaultRule::scheduled(
            FaultKind::FsyncFail,
            crate::clock::Timestamp::ZERO,
            crate::clock::Timestamp::from_nanos(1),
        ));
        let disk = chaotic_disk(clock.clone(), plan);
        disk.append("wal", b"r");
        assert_eq!(disk.fsync("wal"), Err(DiskError::FsyncFailed));
        // Outside the fault window the retry succeeds and the bytes are kept.
        clock.advance(crate::clock::Duration::from_millis(1));
        disk.fsync("wal").unwrap();
        disk.crash();
        assert_eq!(disk.read("wal").records, vec![b"r".to_vec()]);
    }

    #[test]
    fn discarded_tail_is_not_flushed_by_a_later_fsync() {
        let clock = SimClock::new();
        // First fsync consultation fails, later ones succeed.
        let plan = FaultPlan::new(1).rule(FaultRule::scheduled(
            FaultKind::FsyncFail,
            crate::clock::Timestamp::ZERO,
            crate::clock::Timestamp::from_nanos(1),
        ));
        let disk = chaotic_disk(clock.clone(), plan);
        disk.append("wal", b"dead");
        assert_eq!(disk.fsync("wal"), Err(DiskError::FsyncFailed));
        disk.discard_unsynced("wal");
        clock.advance(crate::clock::Duration::from_millis(1));
        disk.append("wal", b"live");
        disk.fsync("wal").unwrap();
        disk.crash();
        assert_eq!(disk.read("wal").records, vec![b"live".to_vec()]);
    }

    #[test]
    fn log_listing_is_sorted_and_prefix_filtered() {
        let disk = SimDisk::new();
        for name in ["t0.p1", "t1.p0", "t0.p0", "outcomes"] {
            disk.append(name, b"x");
        }
        assert_eq!(disk.logs_with_prefix("t0."), vec!["t0.p0", "t0.p1"]);
        assert_eq!(disk.logs_with_prefix("outcomes"), vec!["outcomes"]);
    }

    #[test]
    fn crash_points_enumerate_and_fire_once() {
        let cp = CrashPoints::new();
        assert!(!cp.reached("a"));
        assert!(!cp.reached("b"));
        assert!(!cp.reached("a"));
        assert_eq!(cp.sites(), vec!["a", "b"]);
        assert_eq!(cp.hits("a"), 2);

        // Two hits of "a" have happened; arm the fourth (0-based index 3).
        cp.arm("a", 3);
        assert!(!cp.reached("a"));
        assert!(cp.reached("a"), "armed hit fires");
        assert!(!cp.reached("a"), "fires at most once");
        assert_eq!(cp.fired(), Some("a"));
    }

    #[test]
    fn disarm_prevents_firing() {
        let cp = CrashPoints::new();
        cp.arm("x", 0);
        cp.disarm();
        assert!(!cp.reached("x"));
        assert_eq!(cp.fired(), None);
    }
}
