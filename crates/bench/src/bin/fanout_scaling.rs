//! Overload-safe fanout trajectory: per-notification pipeline cost and
//! resident queue bytes across listener populations (§IV-D4, Fig 9 taken
//! to overload territory).
//!
//! Phase 1 (scaling): 10³ / 10⁴ / 10⁵ listeners on one hot collection;
//! every write is routed once through the batched changelog path and
//! fanned out to every listener. The per-notification cost of the fanout
//! tick must stay near-flat as the population grows — the pipeline does
//! one tree descent per batch and O(1) work per delivered event, so total
//! tick cost is proportional to deliveries, not to deliveries × listeners.
//! Resident outbound-queue bytes are sampled at their post-tick peak and
//! must stay proportional to the population (bounded per connection).
//! A hot-document burst sub-phase buffers several superseded versions of
//! one document inside a single flush window so per-flush coalescing does
//! real work; the `coalesced` column must be nonzero at every population.
//!
//! Phase 2 (overload): a fixed fleet with seeded slow consumers (clients
//! that stop draining mid-run). Conforming listeners' sim-time delivery
//! p99 must stay within 2× the quiet baseline while the slow consumers
//! are voluntarily reset (`overload`) and caught back up by the degrade
//! machinery; the consistency oracle checks the whole chaos run.
//!
//! Output: `BENCH_fanout.json` at the workspace root (CI uploads it as an
//! artifact; see EXPERIMENTS.md E15 for regeneration instructions).
//!
//! Set `FANOUT_SCALING_SMOKE=1` (or pass `--smoke`) for a seconds-long run
//! with smaller populations, used by CI's smoke job.

use bench::banner;
use firestore_core::database::doc;
use firestore_core::{Caller, FirestoreDatabase, Query, Value, Write};
use realtime::{ListenSnapshot, RealtimeCache, RealtimeOptions};
use simkit::{Duration, SimClock, SimDisk};
use spanner::SpannerDatabase;
use std::time::Instant;
use workloads::fanout::{run_fanout, FanoutConfig};

/// Hot documents written round-robin; all under the watched collection.
const HOT_DOCS: usize = 4;
/// Write cycles measured per population size.
const CYCLES: usize = 24;
/// Superseded versions of one document committed inside a single flush
/// window by the burst sub-phase; all but the last coalesce away.
const BURST: usize = 6;

struct ScaleRow {
    listeners: usize,
    notifications: u64,
    p50_ns_per_notification: u128,
    p99_ns_per_notification: u128,
    peak_queue_bytes: usize,
    coalesced: u64,
}

/// One scaling measurement: N plain connections, `CYCLES` hot writes, the
/// fanout tick timed wall-clock and charged per delivered notification.
fn measure(listeners: usize) -> ScaleRow {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let spanner = SpannerDatabase::new(clock.clone());
    let db = FirestoreDatabase::create_default(spanner.clone());
    let mut opts = RealtimeOptions::default();
    // The batched path: changelog application deferred to the flush.
    opts.fanout.flush_interval = Duration::from_millis(50);
    let cache = RealtimeCache::new(spanner.truetime().clone(), opts);
    db.set_observer(cache.observer_for(db.directory()));

    for d in 0..HOT_DOCS {
        db.commit_writes(
            vec![Write::set(
                doc(&format!("/scores/hot{d}")),
                [("v", Value::Int(0))],
            )],
            &Caller::Service,
        )
        .unwrap();
    }
    cache.tick();

    let query = Query::parse("/scores").unwrap();
    let conns: Vec<realtime::Connection> = (0..listeners)
        .map(|_| {
            let conn = cache.connect();
            ListenSnapshot::read(&db, query.clone(), &Caller::Service)
                .unwrap()
                .listen(&conn);
            conn.poll(); // drain the initial snapshot
            conn
        })
        .collect();

    let mut samples: Vec<u128> = Vec::with_capacity(CYCLES);
    let mut notifications = 0u64;
    let mut peak_queue_bytes = 0usize;
    let mut counter = 0i64;
    for cycle in 0..CYCLES {
        clock.advance(Duration::from_millis(100));
        counter += 1;
        db.commit_writes(
            vec![Write::set(
                doc(&format!("/scores/hot{}", cycle % HOT_DOCS)),
                [("v", Value::Int(counter))],
            )],
            &Caller::Service,
        )
        .unwrap();
        let t = Instant::now();
        cache.tick();
        let tick_ns = t.elapsed().as_nanos();
        peak_queue_bytes = peak_queue_bytes.max(cache.stats().queued_bytes);
        let mut delivered = 0u64;
        for conn in &conns {
            delivered += conn
                .poll()
                .iter()
                .filter(|e| matches!(e, realtime::ListenEvent::Snapshot { .. }))
                .count() as u64;
        }
        assert_eq!(
            delivered, listeners as u64,
            "every listener hears every hot write"
        );
        notifications += delivered;
        samples.push(tick_ns / delivered.max(1) as u128);
    }
    // --- hot-document burst: the cycle loop above writes each doc at most
    // once per flush, so per-flush coalescing never fires there. Buffer
    // BURST superseded versions of one doc inside a single flush window,
    // then flush once: each listener hears one snapshot and the pump
    // coalesces away the BURST-1 stale versions per listener.
    let coalesced_before = cache.stats().coalesced;
    for _ in 0..BURST {
        clock.advance(Duration::from_millis(1));
        counter += 1;
        db.commit_writes(
            vec![Write::set(doc("/scores/hot0"), [("v", Value::Int(counter))])],
            &Caller::Service,
        )
        .unwrap();
    }
    clock.advance(Duration::from_millis(100));
    cache.tick();
    let mut burst_delivered = 0u64;
    for conn in &conns {
        burst_delivered += conn
            .poll()
            .iter()
            .filter(|e| matches!(e, realtime::ListenEvent::Snapshot { .. }))
            .count() as u64;
    }
    assert_eq!(
        burst_delivered, listeners as u64,
        "the burst collapses to one snapshot per listener"
    );
    notifications += burst_delivered;
    let burst_coalesced = cache.stats().coalesced - coalesced_before;
    assert_eq!(
        burst_coalesced,
        (BURST as u64 - 1) * listeners as u64,
        "each listener's queue absorbs the burst's superseded versions"
    );

    samples.sort_unstable();
    let pick = |pct: f64| -> u128 {
        let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
        samples[rank.clamp(1, samples.len()) - 1]
    };
    let stats = cache.stats();
    ScaleRow {
        listeners,
        notifications,
        p50_ns_per_notification: pick(50.0),
        p99_ns_per_notification: pick(99.0),
        peak_queue_bytes,
        coalesced: stats.coalesced,
    }
}

/// Profile pass: a small fully-instrumented replay of the scaling loop.
/// Kept separate from the measured sweep — tracer bookkeeping would pollute
/// the wall-clock tick samples, and at 10^5 listeners the per-connection
/// queue-walk spans alone run to millions. A few hundred listeners exercise
/// every instrumented site (matcher descent, pump flush, queue walk,
/// per-index maintenance, redo append) at negligible cost.
fn profile_pass(listeners: usize) {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let obs = simkit::Obs::new(clock.clone(), 0xFA_0F11);
    let spanner = SpannerDatabase::new(clock.clone());
    spanner.set_obs(Some(obs.clone()));
    spanner.attach_durability(SimDisk::new());
    let db = FirestoreDatabase::create_default(spanner.clone());
    let mut opts = RealtimeOptions::default();
    opts.fanout.flush_interval = Duration::from_millis(50);
    let cache = RealtimeCache::new(spanner.truetime().clone(), opts);
    cache.set_obs(Some(obs.clone()));
    db.set_observer(cache.observer_for(db.directory()));

    for d in 0..HOT_DOCS {
        db.commit_writes(
            vec![Write::set(
                doc(&format!("/scores/hot{d}")),
                [("v", Value::Int(0))],
            )],
            &Caller::Service,
        )
        .unwrap();
    }
    cache.tick();

    let query = Query::parse("/scores").unwrap();
    let conns: Vec<realtime::Connection> = (0..listeners)
        .map(|_| {
            let conn = cache.connect();
            ListenSnapshot::read(&db, query.clone(), &Caller::Service)
                .unwrap()
                .listen(&conn);
            conn.poll();
            conn
        })
        .collect();

    let mut counter = 0i64;
    for cycle in 0..8usize {
        clock.advance(Duration::from_millis(100));
        counter += 1;
        db.commit_writes(
            vec![Write::set(
                doc(&format!("/scores/hot{}", cycle % HOT_DOCS)),
                [("v", Value::Int(counter))],
            )],
            &Caller::Service,
        )
        .unwrap();
        cache.tick();
        for conn in &conns {
            conn.poll();
        }
    }

    let profile = simkit::FoldedProfile::fold(&obs.tracer.finished_since(0));
    std::fs::create_dir_all("target").expect("create target dir");
    std::fs::write("target/PROFILE_fanout.txt", profile.render()).expect("write profile tree");
    std::fs::write("target/PROFILE_fanout.folded", profile.collapsed())
        .expect("write folded profile");
    println!(
        "profile: {} spans folded ({} listeners) -> target/PROFILE_fanout.{{txt,folded}}",
        profile.spans, listeners
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("FANOUT_SCALING_SMOKE").is_ok_and(|v| v != "0");
    let sizes: &[usize] = if smoke {
        &[200, 1_000, 5_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    banner(
        "fanout scaling + overload",
        "per-notification fanout cost over 10^3/10^4/10^5 listeners must stay \
         near-flat; seeded slow consumers are shed, conforming p99 holds",
    );
    if smoke {
        println!("(smoke mode: sizes {sizes:?})");
    }

    // --- Phase 1: scaling sweep -------------------------------------------
    let mut rows: Vec<ScaleRow> = Vec::new();
    for &n in sizes {
        let t = Instant::now();
        let row = measure(n);
        eprintln!(
            "{n} listeners: {} notifications in {:.2}s, p99 {}ns/notification, \
             peak queues {} bytes",
            row.notifications,
            t.elapsed().as_secs_f64(),
            row.p99_ns_per_notification,
            row.peak_queue_bytes,
        );
        rows.push(row);
    }

    println!(
        "{:>9} {:>13} {:>10} {:>10} {:>12} {:>10}",
        "listeners", "notifications", "p50 ns/n", "p99 ns/n", "queue bytes", "coalesced"
    );
    for r in &rows {
        println!(
            "{:>9} {:>13} {:>10} {:>10} {:>12} {:>10}",
            r.listeners,
            r.notifications,
            r.p50_ns_per_notification,
            r.p99_ns_per_notification,
            r.peak_queue_bytes,
            r.coalesced
        );
    }

    for r in &rows {
        assert!(
            r.coalesced >= (BURST as u64 - 1) * r.listeners as u64,
            "{} listeners: burst sub-phase coalesced only {} deltas",
            r.listeners,
            r.coalesced
        );
    }

    // Near-flat: p99 per-notification cost at the top population must stay
    // within a small factor of the bottom one (floored at 2µs so machine
    // noise on a sub-microsecond sample can't fail the check), against a
    // 100× population growth.
    let small = rows.first().expect("rows");
    let large = rows.last().expect("rows");
    let base = small.p99_ns_per_notification.max(2_000);
    assert!(
        large.p99_ns_per_notification < base * 5,
        "per-notification p99 grew {}ns -> {}ns over {}x more listeners — not flat",
        small.p99_ns_per_notification,
        large.p99_ns_per_notification,
        large.listeners / small.listeners
    );
    println!(
        "\nnear-flat: {}ns -> {}ns per notification over {}x more listeners",
        small.p99_ns_per_notification,
        large.p99_ns_per_notification,
        large.listeners / small.listeners
    );

    // --- Phase 2: seeded slow consumers vs quiet baseline ------------------
    let overload_listeners = if smoke { 300 } else { 1_000 };
    let mk = |slow: usize| FanoutConfig {
        listeners: overload_listeners,
        slow,
        ..FanoutConfig::new(0xFA_007)
    };
    let quiet = run_fanout(&mk(0));
    let loaded = run_fanout(&mk(6));
    println!(
        "\noverload fleet ({overload_listeners} listeners): quiet p99 {:.3}ms, \
         with 6 slow consumers p99 {:.3}ms, {} overload resets, converged={}",
        quiet.conforming_p99.as_millis_f64(),
        loaded.conforming_p99.as_millis_f64(),
        loaded.overload_resets,
        loaded.all_converged,
    );
    assert!(loaded.overload_resets >= 6, "slow consumers must be shed");
    assert!(loaded.slow_recovered, "shed listeners must catch back up");
    assert!(loaded.all_converged, "every listener must converge");
    // Conforming listeners ride out the overload: p99 within 2× the quiet
    // baseline (floored at 1ms of sim time).
    let quiet_p99 = quiet.conforming_p99.as_nanos().max(1_000_000);
    assert!(
        loaded.conforming_p99.as_nanos() <= quiet_p99 * 2,
        "conforming p99 {}ns vs quiet baseline {}ns — slow consumers leaked delay",
        loaded.conforming_p99.as_nanos(),
        quiet.conforming_p99.as_nanos()
    );
    for r in [&quiet, &loaded] {
        let oracle = r.oracle.as_ref().expect("oracle enabled");
        assert!(oracle.passed(), "oracle violations:\n{}", oracle.report);
    }

    let mut report = bench::report::BenchReport::new("fanout")
        .field("smoke", smoke.to_string())
        .field(
            "sizes",
            format!(
                "[{}]",
                sizes
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
    for r in &rows {
        report.row(format!(
            "{{\"phase\": \"scaling\", \"listeners\": {}, \"notifications\": {}, \
             \"p50_ns_per_notification\": {}, \"p99_ns_per_notification\": {}, \
             \"peak_queue_bytes\": {}, \"coalesced\": {}}}",
            r.listeners,
            r.notifications,
            r.p50_ns_per_notification,
            r.p99_ns_per_notification,
            r.peak_queue_bytes,
            r.coalesced
        ));
    }
    for (label, r) in [("quiet", &quiet), ("slow-consumers", &loaded)] {
        report.row(format!(
            "{{\"phase\": \"overload\", \"fleet\": \"{label}\", \"listeners\": {}, \
             \"conforming_p50_ms\": {:.3}, \"conforming_p99_ms\": {:.3}, \
             \"overload_resets\": {}, \"fault_resets\": {}, \"dropped_events\": {}, \
             \"peak_queue_bytes\": {}, \"converged\": {}}}",
            r.listeners,
            r.conforming_p50.as_millis_f64(),
            r.conforming_p99.as_millis_f64(),
            r.overload_resets,
            r.fault_resets,
            r.dropped_events,
            r.peak_queue_bytes,
            r.all_converged
        ));
    }
    report.write();

    // Profile artifact, from a separate instrumented pass at the smallest
    // population (see `profile_pass` for why the measured sweep is untraced).
    profile_pass(sizes[0].min(200));
}
