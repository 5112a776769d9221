//! Allocation budget of the instrumentation.
//!
//! A counting global allocator measures two things:
//!
//! * what tracing and metrics add to one core `commit_writes`: the same
//!   commits run with the service's `Obs` attached to Spanner and the
//!   Real-time Cache, then detached, and the difference per commit must stay
//!   within [`COMMIT_BUDGET`] allocations. The tracer's retention ring is
//!   filled first, so the figure is the steady state of a long run;
//! * that updating a pre-resolved counter, histogram or phase-histogram
//!   handle allocates nothing.
//!
//! Only allocations made on the measuring thread are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use firestore_core::database::doc;
use firestore_core::{Caller, Value, Write};
use server::{FirestoreService, ServiceOptions};
use simkit::obs::DEFAULT_TRACE_CAPACITY;
use simkit::{Duration, Metrics, PhaseBreakdown, PhaseHistograms, SimClock, SimDisk};

/// Most allocations instrumentation may add to one core commit.
const COMMIT_BUDGET: f64 = 20.0;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only an atomic and a
// const-initialized thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

const DOCS: usize = 100;
const BLOCK: usize = 100;

fn commit(svc: &FirestoreService, i: usize) {
    let w = Write::set(
        doc(&format!("/users/u{:03}", i % DOCS)),
        [
            ("field0", Value::Int(i as i64)),
            ("field1", Value::Str("abcdefghijklmnop".into())),
        ],
    );
    svc.database("ycsb")
        .expect("db")
        .commit_writes(vec![w], &Caller::Service)
        .expect("commit");
}

#[test]
fn instrumentation_stays_within_its_allocation_budget() {
    // --- per-commit cost of tracing and metrics ---
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let svc = FirestoreService::new(clock, ServiceOptions::default());
    svc.spanner().attach_durability(SimDisk::new());
    svc.create_database("ycsb");
    let obs = svc.obs().clone();
    let mut i = 0;
    // Warm up until the tracer's retention ring has wrapped.
    while obs.tracer.finished_count() < 2 * DEFAULT_TRACE_CAPACITY as u64 {
        commit(&svc, i);
        i += 1;
    }
    // Blocks of BLOCK commits touch every document once, each with a new
    // value, so the blocks with and without obs do the same index work.
    let block = |i: &mut usize| {
        let start = *i;
        *i += BLOCK;
        allocations(|| (start..start + BLOCK).for_each(|k| commit(&svc, k)))
    };
    let (mut on, mut off) = (0u64, 0u64);
    for _ in 0..3 {
        on += block(&mut i);
        svc.spanner().set_obs(None);
        svc.realtime().set_obs(None);
        off += block(&mut i);
        svc.spanner().set_obs(Some(obs.clone()));
        svc.realtime().set_obs(Some(obs.clone()));
    }
    let commits = (3 * BLOCK) as f64;
    let added = (on as f64 - off as f64) / commits;
    println!(
        "allocations per core commit: {:.1} with obs, {:.1} without, {added:.1} added",
        on as f64 / commits,
        off as f64 / commits,
    );
    assert!(
        added <= COMMIT_BUDGET,
        "instrumentation adds {added:.1} allocations per commit (budget {COMMIT_BUDGET})"
    );

    // --- a handle update allocates nothing ---
    let metrics = Metrics::new();
    let counter = metrics.counter("c", &[("db", "x")]);
    let histogram = metrics.histogram_handle("h", &[]);
    let phases = PhaseHistograms::resolve(&metrics, &[("db", "x"), ("op", "commit")]);
    let breakdown = PhaseBreakdown {
        execute: Duration::from_micros(30),
        commit_wait: Duration::from_millis(4),
        ..PhaseBreakdown::default()
    };
    let n = allocations(|| {
        for k in 0..1000u64 {
            counter.incr(k);
            histogram.observe(k as f64);
            breakdown.record_to(&phases);
        }
    });
    assert_eq!(n, 0, "metric-handle updates allocated {n} times");
    assert_eq!(metrics.counter_value("c", &[("db", "x")]), 999 * 1000 / 2);
}
