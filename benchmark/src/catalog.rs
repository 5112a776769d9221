//! Every metric the benchmark emits: name, unit, and whether it belongs to
//! the workload being measured or to one scenario.
//!
//! The benchmark contract wants every metric from every run, while most
//! metrics are defined on one scenario only (`notify_p50_us` needs
//! listeners, `recovery_ms` a crash). A run therefore gives the workload
//! named by `--workload` the full size and most of the time, and runs the
//! other three scenarios beside it at `Scale::SIDE`. A *generic* metric is
//! always the measured workload's own; any other metric comes from the
//! measured workload if its scenario produces it, else from the side
//! scenario that does. `BENCHMARK.json` repeats the names and units; the
//! self-test checks the two agree.

use std::collections::BTreeMap;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Measured on the `--workload` scenario only (never filled from a side
    /// scenario).
    pub generic: bool,
}

const fn own(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        generic: false,
    }
}

const fn generic(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        generic: true,
    }
}

pub const WORKLOADS: [&str; 4] = ["ycsb_a", "app_query", "live_fanout", "client_sync"];

pub const END_TO_END: &[MetricDef] = &[
    generic("setup_s", "s"),
    generic("ops_per_s", "ops/s"),
    own("read_p50_us", "us"),
    own("update_p50_us", "us"),
    own("update_p99_us", "us"),
    own("query_p50_us", "us"),
    own("query_p99_us", "us"),
    own("txn_p50_us", "us"),
    own("notify_p50_us", "us"),
    own("notify_p99_us", "us"),
    own("sync_p50_us", "us"),
    own("flush_p50_us", "us"),
    own("recovery_ms", "ms"),
    generic("peak_rss_mb", "MiB"),
    own("stored_bytes_per_user_byte", "ratio"),
    own("sim_update_p50_ms", "ms"),
];

pub const PER_LAYER: &[MetricDef] = &[
    // server
    own("server.commit.self_us", "us"),
    own("server.get.self_us", "us"),
    own("server.query.self_us", "us"),
    generic("server.tick.ms", "ms"),
    generic("server.tick.share", "ratio"),
    own("server.listen.us", "us"),
    generic("server.admission.rejected", "count"),
    // rules
    own("rules.decide.ns", "ns"),
    own("rules.gate.self_us", "us"),
    own("rules.residual_share", "ratio"),
    // core
    own("core.plan.ns", "ns"),
    own("core.execute.us", "us"),
    own("core.query.entries_examined_per_result", "ratio"),
    own("core.query.seeks_per_query", "count"),
    own("core.query.docs_fetched_per_query", "count"),
    own("core.index.entries_for_document.ns", "ns"),
    own("core.index.entries_touched_per_commit", "count"),
    own("core.doc.encode.ns", "ns"),
    own("core.doc.decode.ns", "ns"),
    own("core.commit.self_us", "us"),
    own("core.ledger.engine_cpu_sim_ns_per_commit", "ns"),
    own("core.matchtree.match_change.ns", "ns"),
    own("core.matchtree.candidates_per_change", "count"),
    own("core.matchtree.tokens_per_change", "count"),
    // spanner
    own("spanner.commit.us", "us"),
    own("spanner.snapshot_read.ns", "ns"),
    own("spanner.scan.ns_per_row", "ns"),
    own("spanner.fsyncs_per_commit", "count"),
    own("spanner.redo.bytes_per_commit", "bytes"),
    own("spanner.participants_per_commit", "count"),
    generic("spanner.tablets", "count"),
    own("spanner.lock_wait_sim_ns", "ns"),
    own("spanner.commit_wait_sim_ns", "ns"),
    generic("spanner.aborts", "count"),
    generic("spanner.retries", "count"),
    generic("spanner.maintain.ms", "ms"),
    own("spanner.recover.us_per_txn", "us"),
    own("spanner.live_bytes_per_user_byte", "ratio"),
    // simkit
    own("simkit.disk.append_fsync.ns", "ns"),
    generic("simkit.disk.durable_bytes", "bytes"),
    generic("simkit.obs.spans_per_op", "count"),
    own("simkit.obs.overhead_pct", "%"),
    // realtime
    own("realtime.tick.us", "us"),
    own("realtime.poll_idle.ns", "ns"),
    own("realtime.poll_hit.us", "us"),
    own("realtime.commit_overhead_us", "us"),
    own("realtime.notifications_per_commit", "count"),
    own("realtime.snapshots", "count"),
    own("realtime.coalesced", "count"),
    own("realtime.flushes", "count"),
    generic("realtime.resets", "count"),
    own("realtime.queued_bytes_peak", "bytes"),
    // client
    own("client.set.ns", "ns"),
    own("client.flush.us_per_write", "us"),
    own("client.sync.us", "us"),
    own("client.get_cached.ns", "ns"),
    own("client.query_cached.us", "us"),
    own("client.reconnect.ms", "ms"),
    own("client.persist_cache.bytes", "bytes"),
    own("client.flush.retries", "count"),
    // bench
    generic("bench.trace_overhead_pct", "%"),
    generic("bench.calibration.ns", "ns"),
    generic("bench.drift_pct", "%"),
    generic("bench.failed_ops", "count"),
    generic("bench.attempted_ops", "count"),
];

/// Fill `into` (the measured workload's metrics) with every non-generic
/// metric of `side` it does not have yet.
pub fn fill_from_side(defs: &[MetricDef], into: &mut Metrics, side: &Metrics) {
    for def in defs.iter().filter(|d| !d.generic) {
        if let Some(v) = side.get(def.name) {
            into.entry(def.name).or_insert(*v);
        }
    }
}

/// The `"metrics"` object of the result line: every metric of `defs`, in
/// catalog order. Panics on a missing or non-finite value — either is a
/// harness bug, not a measurement.
pub fn render(defs: &[MetricDef], values: &Metrics) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = *values
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            assert!(v.is_finite(), "metric {} is {v}", d.name);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
        assert_eq!(END_TO_END.len(), 16);
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn side_fills_only_missing_owned_metrics() {
        let mut main: Metrics = [("ops_per_s", 10.0), ("read_p50_us", 1.0)].into();
        let side: Metrics = [
            ("ops_per_s", 99.0),
            ("read_p50_us", 9.0),
            ("txn_p50_us", 5.0),
        ]
        .into();
        fill_from_side(END_TO_END, &mut main, &side);
        assert_eq!(main["ops_per_s"], 10.0);
        assert_eq!(main["read_p50_us"], 1.0);
        assert_eq!(main["txn_p50_us"], 5.0);
    }
}
