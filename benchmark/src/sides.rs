//! The side scenarios of a benchmark run, in a process of their own.
//!
//! Sharing a process with the measured workload cost the side scenarios
//! their repeatability: a side scenario at 1/10 scale, run alone, repeats its
//! query p99 within 4 % over ten seeds; sharing a heap with a full-scale
//! `ycsb_a` (which churns hundreds of MB between the side's turns) the same
//! p99 read anywhere from 185 to 303 µs. So the measured workload keeps the
//! process the driver started — its `peak_rss_mb` is then its own, too — and
//! the other three run in a child of the same executable.
//!
//! Parent and child still take turns on the processor, one timed segment of
//! the measured workload, then one of each side scenario, five times: each
//! scenario's five segments are spread over the whole run, so a few seconds
//! of a noisy neighbour land in at most two of them. The child does what the
//! parent's lines on its stdin say (`round`, then `finish`) and answers on
//! its stdout (`ready`, `done`, then one outcome line per scenario).

use crate::catalog::{Metrics, END_TO_END, PER_LAYER};
use crate::runner::{Job, Outcome};
use bench::gate::{parse_json, Json};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// The child's side of the protocol: run `jobs` as the parent says.
pub fn serve(mut jobs: Vec<Box<dyn Job>>) {
    println!("ready");
    let mut seg = 0;
    for line in std::io::stdin().lines() {
        match line.expect("parent's command").as_str() {
            "round" => {
                for job in &mut jobs {
                    job.segment(seg);
                }
                seg += 1;
                println!("done");
            }
            "finish" => break,
            other => panic!("unknown command {other:?}"),
        }
    }
    for job in jobs {
        println!("{}", to_line(&job.finish()));
    }
}

fn to_line(o: &Outcome) -> String {
    let object = |m: &Metrics| {
        let fields: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    };
    format!(
        "{{\"attempted\": {}, \"failed\": {}, \"e2e\": {}, \"layer\": {}}}",
        o.attempted,
        o.failed,
        object(&o.e2e),
        object(&o.layer)
    )
}

fn from_line(line: &str) -> Outcome {
    let json = parse_json(line).unwrap_or_else(|e| panic!("side outcome {line:?}: {e}"));
    let count = |key: &str| json.get(key).and_then(Json::as_num).expect("a count") as u64;
    let metrics = |key: &str| -> Metrics {
        let Some(Json::Obj(fields)) = json.get(key) else {
            panic!("side outcome without {key}");
        };
        fields
            .iter()
            .map(|(name, value)| {
                let def = END_TO_END
                    .iter()
                    .chain(PER_LAYER)
                    .find(|d| d.name == name)
                    .unwrap_or_else(|| panic!("side outcome names unknown metric {name}"));
                (def.name, value.as_num().expect("a number"))
            })
            .collect()
    };
    Outcome {
        e2e: metrics("e2e"),
        layer: metrics("layer"),
        attempted: count("attempted"),
        failed: count("failed"),
    }
}

/// The parent's handle on the child.
pub struct Sides {
    child: Child,
    commands: ChildStdin,
    answers: std::io::Lines<BufReader<ChildStdout>>,
}

impl Sides {
    /// Start this executable again with `args` and wait until its scenarios
    /// are set up.
    pub fn spawn(args: &[String]) -> Sides {
        let exe = std::env::current_exe().expect("own path");
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("starting the side scenarios' process");
        let commands = child.stdin.take().expect("piped");
        let answers = BufReader::new(child.stdout.take().expect("piped")).lines();
        let mut sides = Sides {
            child,
            commands,
            answers,
        };
        sides.expect("ready");
        sides
    }

    fn answer(&mut self) -> String {
        self.answers
            .next()
            .expect("the side scenarios' process ended early")
            .expect("its answer")
    }

    fn expect(&mut self, word: &str) {
        let got = self.answer();
        assert_eq!(got, word, "side scenarios' process");
    }

    /// Let every side scenario run its next timed segment.
    pub fn round(&mut self) {
        writeln!(self.commands, "round").expect("child's stdin");
        self.expect("done");
    }

    /// Collect `n` outcomes and wait for the child to end.
    pub fn finish(mut self, n: usize) -> Vec<Outcome> {
        writeln!(self.commands, "finish").expect("child's stdin");
        let outcomes = (0..n).map(|_| from_line(&self.answer())).collect();
        let status = self.child.wait().expect("waiting for the child");
        assert!(status.success(), "side scenarios' process: {status}");
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_survive_the_pipe() {
        let o = Outcome {
            e2e: [("read_p50_us", 8.5), ("ops_per_s", 20000.25)].into(),
            layer: [("server.tick.ms", 0.0)].into(),
            attempted: 12,
            failed: 1,
        };
        let back = from_line(&to_line(&o));
        assert_eq!(back.e2e, o.e2e);
        assert_eq!(back.layer, o.layer);
        assert_eq!((back.attempted, back.failed), (12, 1));
    }
}
