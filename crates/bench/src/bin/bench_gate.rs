//! CI perf-regression gate: diff fresh `BENCH_*.json` reports against the
//! committed baselines and exit nonzero on any regression.
//!
//! ```text
//! bench_gate --baseline bench/baselines/smoke --fresh target
//! bench_gate --baseline bench/baselines/smoke --fresh target --update
//! ```
//!
//! The baseline directory holds one `BENCH_<name>.json` per gated bench;
//! for each, the same filename is looked up under `--fresh` (typically
//! `target/`, where the bench bins write their reports). A baseline
//! without a fresh counterpart fails the gate — losing a report silently
//! would otherwise read as "no regressions". Fresh reports without a
//! baseline are listed but don't fail, so new benches can land before
//! their first baseline snapshot.
//!
//! `--update` copies each fresh report over its baseline instead of
//! gating, for intentional perf-profile changes (review the diff!).

use bench::gate::{compare, parse_json, Json};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: bench_gate --baseline <dir> --fresh <dir> [--update]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut baseline_dir: Option<PathBuf> = None;
    let mut fresh_dir: Option<PathBuf> = None;
    let mut update = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_dir = args.next().map(PathBuf::from),
            "--fresh" => fresh_dir = args.next().map(PathBuf::from),
            "--update" => update = true,
            _ => usage(),
        }
    }
    let (Some(baseline_dir), Some(fresh_dir)) = (baseline_dir, fresh_dir) else {
        usage()
    };

    let baselines = bench_reports(&baseline_dir);
    if baselines.is_empty() {
        eprintln!("bench_gate: no BENCH_*.json under {}", baseline_dir.display());
        return ExitCode::from(2);
    }

    if update {
        for name in &baselines {
            let src = fresh_dir.join(name);
            let dst = baseline_dir.join(name);
            match fs::copy(&src, &dst) {
                Ok(_) => println!("updated {}", dst.display()),
                Err(e) => eprintln!("skip {name}: {e}"),
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut failed = false;
    let mut total_passed = 0usize;
    for name in &baselines {
        let base_path = baseline_dir.join(name);
        let fresh_path = fresh_dir.join(name);
        let base = match load(&base_path) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("FAIL {name}: baseline unreadable: {e}");
                failed = true;
                continue;
            }
        };
        let fresh = match load(&fresh_path) {
            Ok(v) => v,
            Err(e) => {
                eprintln!(
                    "FAIL {name}: fresh report missing or unreadable ({e}) — \
                     run the bench before gating"
                );
                failed = true;
                continue;
            }
        };
        let bench = base
            .get("bench")
            .and_then(Json::as_str)
            .unwrap_or(name)
            .to_string();
        let result = compare(&bench, &base, &fresh);
        for note in &result.notes {
            println!("  note: {note}");
        }
        if result.ok() {
            println!("PASS {name}: {} metrics within tolerance", result.passed);
            total_passed += result.passed;
        } else {
            failed = true;
            for r in &result.regressions {
                eprintln!("  {r}");
            }
            eprintln!(
                "FAIL {name}: {} regression(s), {} metrics passed",
                result.regressions.len(),
                result.passed
            );
        }
    }

    // Surface un-baselined fresh reports for visibility.
    for name in bench_reports(&fresh_dir) {
        if !baselines.contains(&name) {
            println!("note: {name} has no baseline (not gated)");
        }
    }

    if failed {
        eprintln!("bench_gate: FAILED");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: OK ({total_passed} metrics across {} benches)", baselines.len());
        ExitCode::SUCCESS
    }
}

fn bench_reports(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

fn load(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse_json(&text)
}
