//! One scenario run, start to finish: set-up, steady-state guard, the
//! fixed-work drill, the fixed-count layer phase (traced runs), the timed
//! segments, final checks, and the metrics the runner itself measures.
//!
//! A run is split into `prepare` / `segment` / `finish` so that `main` can
//! interleave the segments of the four scenarios of a benchmark run: each
//! scenario's five segments are then spread over the whole run, and a few
//! seconds of a noisy neighbour land in at most two of them — which the
//! median over segments ignores — instead of swallowing a side scenario
//! whole.

use crate::catalog::{Metrics, END_TO_END};
use crate::harness::{calibration_ns, peak_rss_mb, run_segment, Run, Scale, Scenario, DB};
use crate::stats::{median, SEGMENTS};
use firestore_core::executor::{ENTITIES, INDEX_ENTRIES};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// First-to-last segment throughput change beyond which the run is flagged.
const UNSTEADY_PCT: f64 = 15.0;

pub struct RunCfg {
    pub name: &'static str,
    pub scale: Scale,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub traced: bool,
    /// How often set-up runs (`setup_s` is the median).
    pub setups: usize,
    /// Where a traced run writes `<name>.spans.jsonl`.
    pub out_dir: Option<PathBuf>,
    /// Self-test only: corrupt one shadow entry after set-up.
    pub corrupt_shadow: bool,
}

pub struct Outcome {
    pub e2e: Metrics,
    pub layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// A prepared scenario, whatever its type.
pub trait Job {
    /// Run timed segment `seg` (of [`SEGMENTS`]).
    fn segment(&mut self, seg: usize);
    fn finish(self: Box<Self>) -> Outcome;
}

struct Prepared<S: Scenario> {
    cfg: RunCfg,
    s: S,
    run: Run,
    e2e: Metrics,
    layer: Metrics,
    setup_s: Vec<f64>,
    /// `(operations, wall seconds)` of each timed segment so far.
    segments: Vec<(u64, f64)>,
}

/// Set the scenario up (several times for the measured workload), check it
/// reached steady state, and run everything that needs a fixed amount of
/// work behind it.
pub fn prepare<S: Scenario + 'static>(cfg: RunCfg) -> Box<dyn Job> {
    let mut run = Run::new(S::KINDS);
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut drills: Vec<Metrics> = Vec::with_capacity(cfg.setups);
    let mut scenario = None;
    for _ in 0..cfg.setups {
        // The previous instance goes first: two at once would double the
        // peak the workload is charged with.
        drop(scenario.take());
        let t = Instant::now();
        let mut s = S::setup(cfg.scale, cfg.seed, &mut run);
        setup_s.push(t.elapsed().as_secs_f64());

        // Steady-state guard: the warm-up outlived the one-hour MVCC
        // horizon and the periodic GC has cycled.
        let sim_s = s.env().clock.now().as_secs_f64();
        assert!(
            sim_s > 3_600.0,
            "{}: warm-up covered only {sim_s:.0} sim-s",
            cfg.name
        );
        assert!(
            s.env().ticks >= 3,
            "{}: only {} ticks before timing",
            cfg.name,
            s.env().ticks
        );

        let mut drilled = Metrics::new();
        s.drill(&mut run, &mut drilled);
        drills.push(drilled);
        scenario = Some(s);
    }
    let mut s = scenario.expect("at least one set-up");
    run.rec.reset();

    // Every instance was drilled; like `setup_s`, each result is the median.
    let (mut e2e, mut layer) = (Metrics::new(), Metrics::new());
    for name in drills[0].keys() {
        let values: Vec<f64> = drills.iter().map(|d| d[name]).collect();
        let end_to_end = END_TO_END.iter().any(|d| d.name == *name);
        let of = if end_to_end { &mut e2e } else { &mut layer };
        of.insert(name, median(&values));
    }
    // Memory is read here, after a fixed amount of work: at the end of the
    // timed phase it would grow with throughput, and a faster commit path
    // would read as a memory regression.
    e2e.insert("peak_rss_mb", peak_rss_mb());
    if cfg.corrupt_shadow {
        s.shadow().corrupt();
    }

    if cfg.traced {
        run.spans.on = true;
        s.layers(&mut run, &mut layer);
        run.spans.on = false;
        run.rec.reset();
        // State counts, taken here so that they repeat exactly for a seed.
        let env = s.env();
        let sp = env.svc.spanner();
        let tablets = sp.tablet_count(ENTITIES).expect("table")
            + sp.tablet_count(INDEX_ENTRIES).expect("table");
        layer.insert("spanner.tablets", tablets as f64);
        layer.insert("spanner.aborts", sp.abort_count() as f64);
        layer.insert("simkit.disk.durable_bytes", env.disk.durable_bytes() as f64);
        layer.insert(
            "simkit.obs.spans_per_op",
            env.svc.obs().tracer.finished_count() as f64 / env.ops as f64,
        );
    }
    Box::new(Prepared {
        cfg,
        s,
        run,
        e2e,
        layer,
        setup_s,
        segments: Vec::with_capacity(SEGMENTS),
    })
}

impl<S: Scenario> Job for Prepared<S> {
    fn segment(&mut self, seg: usize) {
        // In a traced run the even segments record spans and the odd ones
        // do not, so the two throughputs share the run's drift.
        self.run.spans.on = self.cfg.traced && seg.is_multiple_of(2);
        let len = Duration::from_secs_f64(self.cfg.seconds / SEGMENTS as f64);
        self.segments
            .push(run_segment(&mut self.s, &mut self.run, seg, len));
        self.run.spans.on = false;
    }

    fn finish(self: Box<Self>) -> Outcome {
        let Prepared {
            cfg,
            mut s,
            mut run,
            mut e2e,
            mut layer,
            setup_s,
            segments,
        } = *self;
        let per_segment: Vec<f64> = segments
            .iter()
            .map(|(ops, secs)| *ops as f64 / secs)
            .collect();
        let every_other = |from: usize| -> f64 {
            median(
                &per_segment
                    .iter()
                    .copied()
                    .skip(from)
                    .step_by(2)
                    .collect::<Vec<_>>(),
            )
        };
        let ops: u64 = segments.iter().map(|(ops, _)| ops).sum();
        let wall_s: f64 = segments.iter().map(|(_, secs)| secs).sum();
        let drift_pct = (per_segment[per_segment.len() - 1] / per_segment[0] - 1.0) * 100.0;
        s.finish(&mut run, &mut e2e, &mut layer);

        e2e.insert("setup_s", median(&setup_s));
        e2e.insert("ops_per_s", median(&per_segment));

        let env = s.env();
        let rejected = env
            .svc
            .obs()
            .metrics
            .counter_value("service.admission.rejected", &[("db", DB)]);
        let ms = |kind: &str| run.rec.us(kind, 50.0).map_or(0.0, |us| us / 1e3);
        layer.insert("server.tick.ms", ms("tick"));
        layer.insert(
            "server.tick.share",
            run.rec.total_ns("tick") as f64 / 1e9 / wall_s,
        );
        layer.insert("server.admission.rejected", rejected as f64);
        layer.insert("spanner.retries", run.retries as f64);
        layer.insert("spanner.maintain.ms", ms("maintain"));
        layer.insert("realtime.resets", env.svc.realtime().stats().resets as f64);
        layer.insert(
            "bench.trace_overhead_pct",
            (every_other(1) / every_other(0) - 1.0) * 100.0,
        );
        layer.insert("bench.calibration.ns", calibration_ns());
        layer.insert("bench.drift_pct", drift_pct);
        layer.insert("bench.failed_ops", run.failed as f64);
        layer.insert("bench.attempted_ops", run.attempted as f64);

        eprintln!(
            "[{}] {:?} seed={} setup={:.2}s x{} timed={wall_s:.2}s ops={ops} ({:.0} ops/s) drift={drift_pct:+.1}% attempted={} failed={} retries={}",
            cfg.name, cfg.scale, cfg.seed, median(&setup_s), cfg.setups, median(&per_segment),
            run.attempted, run.failed, run.retries,
        );
        eprint!("{}", run.rec.describe());
        if drift_pct.abs() > UNSTEADY_PCT {
            eprintln!(
                "UNSTEADY [{}]: throughput moved {drift_pct:+.1}% from the first to the last segment",
                cfg.name
            );
        }
        if cfg.traced {
            eprintln!(
                "[{}] folded self time of {} harness spans:",
                cfg.name,
                run.spans.len()
            );
            eprint!("{}", run.spans.render_fold());
            if let Some(dir) = &cfg.out_dir {
                let path = dir.join(format!("{}.spans.jsonl", cfg.name));
                std::fs::create_dir_all(dir)
                    .and_then(|_| run.spans.write_jsonl(&path))
                    .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            }
        }
        Outcome {
            e2e,
            layer,
            attempted: run.attempted,
            failed: run.failed,
        }
    }
}

/// Run the jobs' timed segments round-robin, then finish each.
pub fn run_interleaved(mut jobs: Vec<Box<dyn Job>>) -> Vec<Outcome> {
    for seg in 0..SEGMENTS {
        for job in &mut jobs {
            job.segment(seg);
        }
    }
    jobs.into_iter().map(Job::finish).collect()
}
