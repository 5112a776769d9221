//! `scoreboard`: the wall-clock benchmark of the real request path.
//!
//! ```text
//! scoreboard --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
//! scoreboard --check
//! scoreboard compare <a.jsonl> <b.jsonl>
//! ```
//!
//! Run it through `benchmark/run.sh` from the root of the repository, which
//! builds it first; `benchmark/README.md` has the load model and the metric
//! tables.

mod app_query;
mod catalog;
mod check;
mod client_sync;
mod compare;
mod harness;
mod live_fanout;
mod runner;
mod sides;
mod spans;
mod stats;
mod ycsb_a;

use catalog::{fill_from_side, MetricDef, Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use harness::Scale;
use runner::{prepare, Job, Outcome, RunCfg};
use stats::SEGMENTS;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Read from the directory the benchmark is run in: the root of a checkout.
const CONTRACT: &str = "BENCHMARK.json";

/// Share of `--seconds` the measured workload's timed phase gets; the three
/// side scenarios split the rest evenly.
const MAIN_SHARE: f64 = 0.6;

/// Set-ups of the measured workload per run (`setup_s` is their median).
const SETUPS: usize = 3;

fn dispatch(cfg: RunCfg) -> Box<dyn Job> {
    match cfg.name {
        "ycsb_a" => prepare::<ycsb_a::YcsbA>(cfg),
        "app_query" => prepare::<app_query::AppQuery>(cfg),
        "live_fanout" => prepare::<live_fanout::LiveFanout>(cfg),
        "client_sync" => prepare::<client_sync::ClientSync>(cfg),
        other => panic!("unknown workload {other}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

impl Args {
    fn cfg(&self, name: &'static str, main: bool) -> RunCfg {
        RunCfg {
            name,
            scale: if main { Scale::FULL } else { Scale::SIDE },
            seed: self.seed,
            seconds: if main {
                self.seconds * MAIN_SHARE
            } else {
                self.seconds * (1.0 - MAIN_SHARE) / (WORKLOADS.len() - 1) as f64
            },
            traced: self.traced,
            setups: if main { SETUPS } else { 1 },
            out_dir: main.then(|| self.out.clone()),
            corrupt_shadow: false,
        }
    }

    /// The measured workload, and the three scenarios run beside it.
    fn scenarios(&self) -> (&'static str, Vec<&'static str>) {
        let main = *WORKLOADS
            .iter()
            .find(|w| **w == self.workload)
            .unwrap_or_else(|| panic!("--workload must be one of {WORKLOADS:?}"));
        (main, WORKLOADS.into_iter().filter(|w| *w != main).collect())
    }
}

/// One benchmark run: the named workload at full scale in this process, the
/// other three scenarios at side scale in a child (see `sides.rs`), timed
/// segments taking turns, merged into one result.
fn run(args: &Args, argv: &[String]) -> Outcome {
    let (main, sides) = args.scenarios();
    let mut job = dispatch(args.cfg(main, true));
    let mut child = sides::Sides::spawn(&[&["sides".to_string()], argv].concat());
    for seg in 0..SEGMENTS {
        job.segment(seg);
        child.round();
    }
    let mut merged = job.finish();
    for side in child.finish(sides.len()) {
        fill_from_side(END_TO_END, &mut merged.e2e, &side.e2e);
        fill_from_side(PER_LAYER, &mut merged.layer, &side.layer);
        merged.attempted += side.attempted;
        merged.failed += side.failed;
    }
    merged
}

/// The result line of the benchmark contract.
fn result_line(defs: &[MetricDef], values: &Metrics, o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        catalog::render(defs, values)
    )
}

fn parse(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: 18.0,
        traced: false,
        out: PathBuf::from("benchmark/out"),
    };
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            panic!("{} needs a value", pair[0]);
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().expect("--seed takes a whole number"),
            "--seconds" => args.seconds = value.parse().expect("--seconds takes a number"),
            "--trace" => args.traced = value == "1",
            "--out" => args.out = PathBuf::from(value),
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

fn benchmark(argv: &[String]) -> ExitCode {
    let args = parse(argv);
    let outcome = run(&args, argv);
    let (defs, values) = if args.traced {
        (PER_LAYER, &outcome.layer)
    } else {
        (END_TO_END, &outcome.e2e)
    };
    eprintln!(
        "--- {} seed {} trace {} ---",
        args.workload, args.seed, args.traced as u8
    );
    for d in defs {
        eprintln!("  {:<44} {:>16.4} {}", d.name, values[d.name], d.unit);
    }
    let line = result_line(defs, values, &outcome);
    // Kept beside the spans for `scoreboard compare`.
    let tagged = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}",
        args.workload,
        args.seed,
        args.traced as u8,
        &line[1..]
    );
    std::fs::create_dir_all(&args.out)
        .and_then(|_| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(args.out.join("runs.jsonl"))
        })
        .and_then(|mut f| writeln!(f, "{tagged}"))
        .unwrap_or_else(|e| panic!("appending to {}/runs.jsonl: {e}", args.out.display()));
    if outcome.failed > 0 {
        eprintln!(
            "INCORRECT: {} operations disagreed with the shadow model",
            outcome.failed
        );
    }
    println!("{line}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match argv.first().map(String::as_str) {
        Some("--check") => check::check(CONTRACT, dispatch).map(|()| {
            eprintln!("check passed");
            true
        }),
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare(CONTRACT, a, b),
            _ => Err("usage: scoreboard compare <a.jsonl> <b.jsonl>".into()),
        },
        // Internal: the child process of a benchmark run.
        Some("sides") => {
            let args = parse(&argv[1..]);
            let (_, sides) = args.scenarios();
            sides::serve(
                sides
                    .into_iter()
                    .map(|s| dispatch(args.cfg(s, false)))
                    .collect(),
            );
            return ExitCode::SUCCESS;
        }
        _ => return benchmark(&argv),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
