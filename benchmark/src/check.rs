//! `scoreboard --check`: the benchmark's self-test.
//!
//! Runs all four scenarios at 1/50 size, traced, and checks that
//! `BENCHMARK.json` and the catalog name the same workloads, metrics and
//! units, that every one of them is emitted for every workload, that no
//! operation fails — and that every scenario's checker *does* fail once an
//! entry of its shadow model has been corrupted.

use crate::catalog::{fill_from_side, render, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::compare::{read_contract, Declared};
use crate::harness::Scale;
use crate::runner::{run_interleaved, Job, Outcome, RunCfg};

const SECONDS: f64 = 0.5;

fn same_metrics(what: &str, declared: &[Declared], catalog: &[MetricDef]) -> Result<(), String> {
    let declared: Vec<(&str, &str)> = declared
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    let catalog: Vec<(&str, &str)> = catalog.iter().map(|d| (d.name, d.unit)).collect();
    for (name, _) in &declared {
        let well_formed = !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        if !well_formed {
            return Err(format!(
                "{what}: metric name {name:?} is not [A-Za-z0-9_.-]+"
            ));
        }
    }
    if declared != catalog {
        let missing: Vec<_> = catalog.iter().filter(|m| !declared.contains(m)).collect();
        let extra: Vec<_> = declared.iter().filter(|m| !catalog.contains(m)).collect();
        return Err(format!(
            "{what}: BENCHMARK.json and the catalog differ (not declared: {missing:?}; not emitted: {extra:?}; or the order differs)"
        ));
    }
    Ok(())
}

pub fn check(contract_path: &str, dispatch: fn(RunCfg) -> Box<dyn Job>) -> Result<(), String> {
    let contract = read_contract(contract_path)?;
    if contract.workloads != WORKLOADS {
        return Err(format!(
            "workloads: {:?} declared, {WORKLOADS:?} run",
            contract.workloads
        ));
    }
    same_metrics("end_to_end", &contract.end_to_end, END_TO_END)?;
    same_metrics("per_layer", &contract.per_layer, PER_LAYER)?;
    if contract
        .end_to_end
        .iter()
        .any(|m| !m.bound.is_some_and(|b| b > 0.0 && b <= 0.25))
    {
        return Err("end_to_end: every bound must lie in (0, 0.25]".into());
    }

    let cfg = |name: &'static str, corrupt_shadow: bool| RunCfg {
        name,
        scale: Scale::CHECK,
        seed: 11,
        seconds: SECONDS,
        traced: true,
        setups: 1,
        out_dir: None,
        corrupt_shadow,
    };
    let outcomes: Vec<Outcome> =
        run_interleaved(WORKLOADS.iter().map(|w| dispatch(cfg(w, false))).collect());
    for (i, workload) in WORKLOADS.iter().enumerate() {
        if outcomes[i].failed > 0 {
            return Err(format!(
                "{workload}: {} failed operations",
                outcomes[i].failed
            ));
        }
        // Every metric must be there whichever workload is the measured one.
        let (mut e2e, mut layer) = (outcomes[i].e2e.clone(), outcomes[i].layer.clone());
        for (j, side) in outcomes.iter().enumerate() {
            if j != i {
                fill_from_side(END_TO_END, &mut e2e, &side.e2e);
                fill_from_side(PER_LAYER, &mut layer, &side.layer);
            }
        }
        render(END_TO_END, &e2e);
        render(PER_LAYER, &layer);
    }
    for workload in WORKLOADS {
        eprintln!("--- {workload} with a corrupted shadow entry: failures below are the test ---");
        let outcome = run_interleaved(vec![dispatch(cfg(workload, true))]);
        if outcome[0].failed == 0 {
            return Err(format!(
                "{workload}: a corrupted shadow entry went unnoticed"
            ));
        }
    }
    Ok(())
}
