//! Deterministic fault injection (the chaos layer).
//!
//! The paper's operational sections (§IV-D2's failure enumeration, §VI's
//! emphasis on rehearsing failure modes) assume a substrate where faults are
//! *routine*: tablets go unavailable, message deliveries are dropped or
//! duplicated, lock acquisitions time out, and TrueTime uncertainty spikes
//! stretch commit waits. This module provides the injection substrate the
//! rest of the workspace hooks into:
//!
//! * a [`FaultPlan`] declares *which* faults can fire — either inside a
//!   scheduled window of simulated time or probabilistically in the
//!   background — and carries the seed that makes every run replayable;
//! * a [`FaultInjector`] is consulted at each injection site
//!   ([`FaultInjector::should_inject`]) and records every decision that
//!   fired in an ordered [`FaultEvent`] trace.
//!
//! Determinism is the point: given the same plan (same seed, same rules) and
//! the same sequence of injection-site consultations, the injector makes
//! bit-identical decisions and produces an identical trace. A failure found
//! under chaos is therefore reproducible from one `u64`.

use crate::clock::{Duration, SimClock, Timestamp};
use crate::rng::SimRng;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The categories of transient failure the chaos layer can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A tablet (key range) is transiently unavailable: reads and commits
    /// that touch it fail with an `Unavailable`-class error.
    TabletUnavailable,
    /// The transactional message queue fails a delivery attempt; messages
    /// stay queued (at-least-once: delivery is delayed, never lost).
    MessageDrop,
    /// The message queue delivers a batch without acknowledging it, so the
    /// same messages are redelivered later (at-least-once duplication).
    MessageDuplicate,
    /// A lock acquisition times out instead of resolving promptly.
    LockTimeout,
    /// TrueTime uncertainty spikes, stretching commit wait.
    TtUncertaintySpike,
    /// The Real-time Cache is unavailable (Prepare fails, listen streams
    /// break and must degrade to polling).
    CacheUnavailable,
    /// A crash leaves a partially flushed record at the end of a redo log
    /// (a torn tail); recovery must detect and truncate it.
    TornTail,
    /// A durable-medium fsync fails; bytes appended since the last
    /// successful fsync are not durable.
    FsyncFail,
    /// A listener's client stops draining its outbound queue (slow or
    /// wedged consumer); the fanout pipeline must shed it with an
    /// overload reset instead of queueing unboundedly or stalling.
    StalledConsumer,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::TabletUnavailable => "tablet-unavailable",
            FaultKind::MessageDrop => "message-drop",
            FaultKind::MessageDuplicate => "message-duplicate",
            FaultKind::LockTimeout => "lock-timeout",
            FaultKind::TtUncertaintySpike => "tt-uncertainty-spike",
            FaultKind::CacheUnavailable => "cache-unavailable",
            FaultKind::TornTail => "torn-tail",
            FaultKind::FsyncFail => "fsync-fail",
            FaultKind::StalledConsumer => "stalled-consumer",
        };
        f.write_str(s)
    }
}

/// One injection rule: a fault kind, an optional scheduled window of
/// simulated time outside which the rule is inert, and the probability with
/// which an in-scope consultation fires.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Which fault this rule injects.
    pub kind: FaultKind,
    /// Half-open window `[start, end)` of simulated time during which the
    /// rule is active; `None` means always active.
    pub window: Option<(Timestamp, Timestamp)>,
    /// Probability that an active consultation fires (1.0 = every time).
    pub probability: f64,
}

impl FaultRule {
    /// A background rule: fire with probability `p` at every consultation.
    pub fn probabilistic(kind: FaultKind, p: f64) -> FaultRule {
        FaultRule {
            kind,
            window: None,
            probability: p,
        }
    }

    /// A scheduled outage: fire on every consultation inside `[start, end)`.
    pub fn scheduled(kind: FaultKind, start: Timestamp, end: Timestamp) -> FaultRule {
        FaultRule {
            kind,
            window: Some((start, end)),
            probability: 1.0,
        }
    }
}

/// A replayable chaos schedule: a seed plus a set of rules.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for the injector's decision stream.
    pub seed: u64,
    /// The injection rules. Rules are consulted in order; the first one
    /// that fires wins.
    pub rules: Vec<FaultRule>,
    /// Extra clock advance applied when a [`FaultKind::TtUncertaintySpike`]
    /// fires (models a widened ε stretching commit wait).
    pub tt_spike: Duration,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
            tt_spike: Duration::from_millis(10),
        }
    }

    /// Add a rule (builder style).
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Override the TrueTime spike magnitude.
    pub fn with_tt_spike(mut self, spike: Duration) -> FaultPlan {
        self.tt_spike = spike;
        self
    }
}

/// One injection decision that fired, in consultation order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Position in the fired-event sequence (0-based).
    pub seq: u64,
    /// Simulated time of the consultation.
    pub at: Timestamp,
    /// Which fault fired.
    pub kind: FaultKind,
    /// The injection site that consulted the injector (e.g. `"commit"`).
    pub site: &'static str,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {} {} @{}", self.seq, self.kind, self.site, self.at)
    }
}

/// Injection counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total consultations.
    pub checked: u64,
    /// Consultations that fired a fault.
    pub injected: u64,
}

struct InjectorState {
    rng: SimRng,
    trace: Vec<FaultEvent>,
    stats: FaultStats,
}

/// The shared injector consulted at every injection site.
///
/// Cheap to share via `Arc`; internally synchronized. With an empty plan it
/// fires nothing and records nothing beyond counters.
pub struct FaultInjector {
    clock: SimClock,
    plan: FaultPlan,
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    /// Build an injector over `clock` executing `plan`.
    pub fn new(clock: SimClock, plan: FaultPlan) -> Arc<FaultInjector> {
        let rng = SimRng::new(plan.seed);
        Arc::new(FaultInjector {
            clock,
            plan,
            state: Mutex::new(InjectorState {
                rng,
                trace: Vec::new(),
                stats: FaultStats::default(),
            }),
        })
    }

    /// Consult the injector at an injection site. Returns `true` when a
    /// fault of `kind` fires now; the decision is recorded in the trace.
    ///
    /// The decision stream is deterministic: the same plan and the same
    /// sequence of consultations yield the same answers and the same trace.
    pub fn should_inject(&self, kind: FaultKind, site: &'static str) -> bool {
        let now = self.clock.now();
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.stats.checked += 1;
        let mut fired = false;
        for rule in self.plan.rules.iter().filter(|r| r.kind == kind) {
            let in_scope = match rule.window {
                Some((start, end)) => now >= start && now < end,
                None => true,
            };
            if !in_scope {
                continue;
            }
            // Always draw so the decision stream stays aligned no matter
            // which rule fires.
            let roll = st.rng.next_f64();
            if roll < rule.probability {
                fired = true;
                break;
            }
        }
        if fired {
            let seq = st.stats.injected;
            st.stats.injected += 1;
            st.trace.push(FaultEvent {
                seq,
                at: now,
                kind,
                site,
            });
        }
        fired
    }

    /// The extra clock advance a TrueTime uncertainty spike applies.
    pub fn tt_spike(&self) -> Duration {
        self.plan.tt_spike
    }

    /// The recorded fault trace, in firing order.
    pub fn trace(&self) -> Vec<FaultEvent> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .trace
            .clone()
    }

    /// Injection counters.
    pub fn stats(&self) -> FaultStats {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "FaultInjector(rules={}, checked={}, injected={})",
            self.plan.rules.len(),
            stats.checked,
            stats.injected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let clock = SimClock::new();
        let inj = FaultInjector::new(clock, FaultPlan::new(1));
        for _ in 0..100 {
            assert!(!inj.should_inject(FaultKind::TabletUnavailable, "read"));
        }
        assert!(inj.trace().is_empty());
        assert_eq!(inj.stats().checked, 100);
        assert_eq!(inj.stats().injected, 0);
    }

    #[test]
    fn scheduled_window_fires_only_inside() {
        let clock = SimClock::new();
        let plan = FaultPlan::new(7).rule(FaultRule::scheduled(
            FaultKind::TabletUnavailable,
            Timestamp::from_millis(10),
            Timestamp::from_millis(20),
        ));
        let inj = FaultInjector::new(clock.clone(), plan);
        assert!(!inj.should_inject(FaultKind::TabletUnavailable, "read"));
        clock.advance(Duration::from_millis(15));
        assert!(inj.should_inject(FaultKind::TabletUnavailable, "read"));
        // A different kind is unaffected even inside the window.
        assert!(!inj.should_inject(FaultKind::MessageDrop, "dequeue"));
        clock.advance(Duration::from_millis(10));
        assert!(!inj.should_inject(FaultKind::TabletUnavailable, "read"));
    }

    #[test]
    fn probabilistic_rate_is_roughly_honored() {
        let clock = SimClock::new();
        let plan = FaultPlan::new(42).rule(FaultRule::probabilistic(FaultKind::LockTimeout, 0.25));
        let inj = FaultInjector::new(clock, plan);
        let fired = (0..10_000)
            .filter(|_| inj.should_inject(FaultKind::LockTimeout, "acquire"))
            .count();
        assert!((2000..3000).contains(&fired), "fired {fired} of 10000");
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed: u64| {
            let clock = SimClock::new();
            let plan = FaultPlan::new(seed)
                .rule(FaultRule::probabilistic(FaultKind::TabletUnavailable, 0.3))
                .rule(FaultRule::probabilistic(FaultKind::MessageDrop, 0.2));
            let inj = FaultInjector::new(clock.clone(), plan);
            for i in 0..500 {
                clock.advance(Duration::from_millis(1));
                let kind = if i % 2 == 0 {
                    FaultKind::TabletUnavailable
                } else {
                    FaultKind::MessageDrop
                };
                inj.should_inject(kind, "site");
            }
            inj.trace()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100), "different seeds should diverge");
    }

    #[test]
    fn first_matching_rule_wins_and_stream_stays_aligned() {
        // Two rules of the same kind: the certain one fires; the trace holds
        // exactly one event per consultation.
        let clock = SimClock::new();
        let plan = FaultPlan::new(3)
            .rule(FaultRule::probabilistic(FaultKind::MessageDuplicate, 1.0))
            .rule(FaultRule::probabilistic(FaultKind::MessageDuplicate, 0.5));
        let inj = FaultInjector::new(clock, plan);
        for _ in 0..10 {
            assert!(inj.should_inject(FaultKind::MessageDuplicate, "dequeue"));
        }
        let trace = inj.trace();
        assert_eq!(trace.len(), 10);
        assert_eq!(trace[9].seq, 9);
    }
}
