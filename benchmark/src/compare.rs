//! `scoreboard compare <a.jsonl> <b.jsonl>`: two sets of runs, metric by
//! metric.
//!
//! Each file holds the result lines `run.sh` appends to `out/runs.jsonl`.
//! Per workload × metric the tool prints both medians, the relative
//! difference and the bound from `BENCHMARK.json`. An end-to-end metric whose
//! median got worse by more than its bound is a regression (exit code 1);
//! one whose run-to-run spread on either side is wider than its bound cannot
//! be called unchanged and is reported as *unresolved* instead.

use bench::gate::{parse_json, Json};
use std::collections::BTreeMap;

/// `(workload, metric) -> values`, one per run.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// A metric's declaration in `BENCHMARK.json`.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

pub fn read_contract(path: &str) -> Result<Contract, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = |key: &str| -> Result<&[Json], String> {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("{path}: no `{key}` array"))
    };
    let field = |j: &Json, key: &str| -> Result<String, String> {
        j.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("{path}: entry without `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<Declared>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    lower_is_better: field(m, "better")? == "lower",
                    bound: m.get("bound").and_then(Json::as_num),
                })
            })
            .collect()
    };
    Ok(Contract {
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let json = parse_json(line).map_err(|e| format!("{path}: {e}"))?;
        let workload = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: line without `workload`"))?;
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            return Err(format!("{path}: line without `metrics`"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_num)
                .ok_or(format!("{path}: {name} has no value"))?;
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// Python's `statistics.quantiles(values, n=4)` (the default, exclusive
/// method): the three quartile cut points. Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile range as a share of the median; zero for a single run.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

pub fn compare(contract_path: &str, a_path: &str, b_path: &str) -> Result<bool, String> {
    let contract = read_contract(contract_path)?;
    let (a, b) = (read_runs(a_path)?, read_runs(b_path)?);
    let mut regressions = 0;
    println!(
        "{:<12} {:<42} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "diff", "bound", "spread"
    );
    for workload in &contract.workloads {
        for m in contract.end_to_end.iter().chain(&contract.per_layer) {
            let key = (workload.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (ma, mb) = (crate::stats::median(va), crate::stats::median(vb));
            let diff = if ma == mb { 0.0 } else { (mb - ma) / ma.abs() };
            let worse = if m.lower_is_better { diff } else { -diff };
            let widest = spread(va).max(spread(vb));
            let verdict = match m.bound {
                None => "",
                Some(bound) if worse > bound => {
                    regressions += 1;
                    "REGRESSED"
                }
                Some(bound) if widest > bound => "unresolved",
                Some(bound) if worse < -bound => "improved",
                Some(_) => "ok",
            };
            println!(
                "{workload:<12} {:<42} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>7} {:>6.1}%  {verdict}",
                format!("{} [{}]", m.name, m.unit),
                diff * 100.0,
                m.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                widest * 100.0,
            );
        }
    }
    println!("{regressions} end-to-end metric(s) outside their bound");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4)
        assert_eq!(quartiles(&[20., 10.]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], n=4)
        assert_eq!(
            quartiles(&[3., 1., 4., 1., 5., 9., 2., 6., 5., 3., 5.]),
            [2.0, 4.0, 5.0]
        );
        assert_eq!(spread(&[7.0]), 0.0);
        assert!((spread(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]) - 1.0).abs() < 1e-12);
    }
}
