//! One simulated world's environment: the chaos injector, crash points,
//! history recorder and test mutation every layer of one stack consults.
//! The Spanner database creates the [`SimEnv`]; everything built over it
//! reads that one handle, so a harness installs each thing with one call.
//! An operation reads it once ([`SimEnv::world`]): one atomic load while
//! nothing is installed.

use crate::clock::Duration;
use crate::disk::CrashPoints;
use crate::fault::{FaultInjector, FaultKind};
use crate::history::{HistoryEvent, HistoryRecorder};
use parking_lot::Mutex;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A deliberate bug a test seeds to prove a checker or a gate catches it.
/// At most one is active per world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TestMutation {
    /// Spanner serves snapshot reads this much earlier than requested while
    /// recording the requested timestamp.
    StaleReads(Duration),
    /// The Real-time Cache drops the next `n` committed changes at the
    /// Changelog → Query Matcher hop.
    DropChanges(u64),
    /// The Real-time Cache delivers a held-back snapshot after a newer one
    /// on the same connection (§V ordered delivery violated).
    ReorderDelivery,
    /// The idempotent commit path skips its dedup-ledger lookup.
    IgnoreDedupLedger,
    /// Every redo-log fsync is charged this much extra (a degraded device).
    FsyncPadding(Duration),
}

/// What is installed in one world, as one operation sees it.
pub struct World {
    chaos: Option<Arc<FaultInjector>>,
    crash_points: Option<CrashPoints>,
    history: Option<Arc<HistoryRecorder>>,
    mutation: Option<TestMutation>,
    /// Changes dropped so far under [`TestMutation::DropChanges`].
    dropped: AtomicU64,
}

static EMPTY: World = World {
    chaos: None,
    crash_points: None,
    history: None,
    mutation: None,
    dropped: AtomicU64::new(0),
};

impl World {
    /// Consult the chaos injector at an injection site: `true` when a fault
    /// of `kind` fires now.
    pub fn inject(&self, kind: FaultKind, site: &'static str) -> bool {
        self.chaos
            .as_ref()
            .is_some_and(|inj| inj.should_inject(kind, site))
    }

    /// The extra clock advance of a TrueTime uncertainty spike, when one
    /// fires at `site`.
    pub fn tt_spike(&self, site: &'static str) -> Option<Duration> {
        let inj = self.chaos.as_ref()?;
        inj.should_inject(FaultKind::TtUncertaintySpike, site)
            .then(|| inj.tt_spike())
    }

    /// Record reaching crash site `site`; `true` when the armed crash fires
    /// here ([`CrashPoints::reached`]).
    pub fn crash_point(&self, site: &'static str) -> bool {
        self.crash_points.as_ref().is_some_and(|p| p.reached(site))
    }

    /// The installed history recorder, if any.
    pub fn history(&self) -> Option<&Arc<HistoryRecorder>> {
        self.history.as_ref()
    }

    /// Record `event` if a recorder is installed (for events that cost
    /// nothing to build; build others only when [`World::history`] is set).
    pub fn record(&self, event: HistoryEvent) {
        if let Some(h) = &self.history {
            h.record(event);
        }
    }

    /// The active test mutation, if any.
    pub fn mutation(&self) -> Option<TestMutation> {
        self.mutation
    }

    /// Under [`TestMutation::DropChanges`]`(n)`: whether to drop this
    /// change (the first `n` asked are dropped).
    pub fn drop_change(&self) -> bool {
        match self.mutation {
            Some(TestMutation::DropChanges(n)) => self.dropped.fetch_add(1, Ordering::Relaxed) < n,
            _ => false,
        }
    }
}

/// One operation's view of the environment; dereferences to [`World`].
pub struct WorldRef(Option<Arc<World>>);

impl Deref for WorldRef {
    type Target = World;

    fn deref(&self) -> &World {
        self.0.as_deref().unwrap_or(&EMPTY)
    }
}

/// The handle every layer of one simulated world shares. Cheap to clone;
/// clones share what is installed.
#[derive(Clone, Default)]
pub struct SimEnv {
    shared: Arc<Shared>,
}

#[derive(Default)]
struct Shared {
    /// Whether anything is installed; while not, reads skip the lock.
    installed: AtomicBool,
    world: Mutex<Option<Arc<World>>>,
}

impl SimEnv {
    /// What is installed now. Read it once per operation.
    pub fn world(&self) -> WorldRef {
        // SeqCst pairs with the store in `install`.
        if !self.shared.installed.load(Ordering::SeqCst) {
            return WorldRef(None);
        }
        WorldRef(self.shared.world.lock().clone())
    }

    /// Install (or clear) the chaos injector every layer consults.
    pub fn set_chaos(&self, injector: Option<Arc<FaultInjector>>) {
        self.install(|w| w.chaos = injector);
    }

    /// Install (or clear) the crash-point registry of the commit path.
    pub fn set_crash_points(&self, points: Option<CrashPoints>) {
        self.install(|w| w.crash_points = points);
    }

    /// Install (or clear) the history recorder every layer appends to.
    pub fn set_history(&self, history: Option<Arc<HistoryRecorder>>) {
        self.install(|w| w.history = history);
    }

    /// Activate (or clear) the test mutation, replacing any active one.
    pub fn set_mutation(&self, mutation: Option<TestMutation>) {
        self.install(|w| {
            w.mutation = mutation;
            w.dropped = AtomicU64::new(0);
        });
    }

    fn install(&self, edit: impl FnOnce(&mut World)) {
        let mut slot = self.shared.world.lock();
        let old = slot.as_deref().unwrap_or(&EMPTY);
        let mut next = World {
            chaos: old.chaos.clone(),
            crash_points: old.crash_points.clone(),
            history: old.history.clone(),
            mutation: old.mutation,
            dropped: AtomicU64::new(old.dropped.load(Ordering::Relaxed)),
        };
        edit(&mut next);
        let installed = next.chaos.is_some()
            || next.crash_points.is_some()
            || next.history.is_some()
            || next.mutation.is_some();
        *slot = installed.then(|| Arc::new(next));
        self.shared.installed.store(installed, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::fault::{FaultPlan, FaultRule};

    #[test]
    fn nothing_installed_reads_the_empty_world() {
        let env = SimEnv::default();
        let world = env.world();
        assert!(world.0.is_none(), "no lock taken, nothing shared");
        assert!(!world.inject(FaultKind::FsyncFail, "disk-fsync"));
        assert!(!world.crash_point("commit-after-apply"));
        assert!(world.history().is_none() && world.mutation().is_none());
    }

    #[test]
    fn each_install_keeps_the_others_and_clones_share_them() {
        let env = SimEnv::default();
        let clone = env.clone();
        let plan = FaultPlan::new(1).rule(FaultRule::probabilistic(FaultKind::FsyncFail, 1.0));
        env.set_chaos(Some(FaultInjector::new(SimClock::new(), plan)));
        env.set_history(Some(HistoryRecorder::new()));
        env.set_chaos(None);
        let world = clone.world();
        assert!(!world.inject(FaultKind::FsyncFail, "disk-fsync"));
        assert!(world.history().is_some());
        env.set_history(None);
        assert!(clone.world().0.is_none(), "cleared back to the empty world");
    }

    #[test]
    fn drop_changes_drops_the_first_n_and_reinstalling_rearms() {
        let env = SimEnv::default();
        env.set_mutation(Some(TestMutation::DropChanges(2)));
        let world = env.world();
        let dropped: Vec<bool> = (0..4).map(|_| world.drop_change()).collect();
        assert_eq!(dropped, [true, true, false, false]);
        env.set_history(Some(HistoryRecorder::new()));
        assert!(
            !env.world().drop_change(),
            "another install keeps the count"
        );
        env.set_mutation(Some(TestMutation::DropChanges(1)));
        assert!(env.world().drop_change());
    }
}
