//! Spread of one set of benchmark runs, or a paired wall-clock
//! comparison of two sets.
//!
//! ```text
//! wallcmp [--spec BENCHMARK.json] <reports…>
//! wallcmp [--spec BENCHMARK.json] <parent reports…> -- <change reports…>
//! ```
//!
//! A report is the file `e2ebench/run.py --trace 0 --out FILE` writes.
//!
//! Given one set, it prints for every workload × end-to-end metric of the
//! spec the median and quartiles of the runs, the spread
//! (q3 − q1) / median, and whether the spread stays within a third of
//! the metric's bound, within the bound, or above it.
//!
//! Given two sets, runs pair up by position within a workload: the i-th
//! parent report of a workload with its i-th change report, so make them
//! as alternating pairs. For every workload × end-to-end metric it
//! prints the parent's and the change's median and quartiles, the median
//! shift, the pair wins, the verdict of the paired rule
//! (`rectpart_e2ebench::compare`) and whether the change's median is
//! worse than the parent's by more than the metric's bound.
//!
//! The tool is advisory: it exits 0 whatever it finds, and 2 on
//! unreadable input.

use std::collections::BTreeMap;
use std::process::ExitCode;

use rectpart_e2ebench::compare::{compare, Quartiles};
use rectpart_e2ebench::spec::{Metric, Spec};
use rectpart_json::Json;

/// Metric values of one run, by name.
type Values = BTreeMap<String, f64>;

fn read_report(path: &str) -> Result<(String, Values), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = rectpart_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or(format!("{path}: no `workload`"))?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{path}: no `metrics` object"));
    };
    let values = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((workload.to_string(), values))
}

/// One metric's values over a set of runs, in the order given.
fn column(runs: &[Values], workload: &str, m: &Metric) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|v| v.get(&m.name).copied())
        .collect::<Option<_>>()
        .ok_or(format!("{workload}: a report lacks `{}`", m.name))
}

fn side(q: Quartiles) -> String {
    format!("{:.6} [{:.6}, {:.6}]", q.median, q.q1, q.q3)
}

/// Prints the spread table of one set of runs per workload.
fn spread(spec: &Spec, runs: &BTreeMap<String, (Vec<Values>, Vec<Values>)>) -> Result<(), String> {
    println!(
        "{:<18} {:<16} {:>5} {:>36} {:>8} {:>6}  against bound",
        "workload", "metric", "runs", "median [q1, q3]", "spread", "bound"
    );
    for w in &spec.workloads {
        let Some((set, _)) = runs.get(&w.name) else {
            continue;
        };
        for m in &spec.end_to_end {
            let Some(q) = Quartiles::of(&column(set, &w.name, m)?) else {
                println!("{:<18} {:<16} needs two runs", w.name, m.name);
                continue;
            };
            let spread = q.spread();
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if spread <= bound / 3.0 {
                "within a third"
            } else if spread <= bound {
                "within"
            } else {
                "exceeded"
            };
            println!(
                "{:<18} {:<16} {:>5} {:>36} {:>7.2}% {:>5.1}%  {}",
                w.name,
                m.name,
                set.len(),
                side(q),
                spread * 100.0,
                bound * 100.0,
                verdict
            );
        }
    }
    Ok(())
}

/// Prints the paired comparison of two sets of runs per workload.
fn paired(spec: &Spec, runs: &BTreeMap<String, (Vec<Values>, Vec<Values>)>) -> Result<(), String> {
    println!(
        "{:<18} {:<16} {:>36} {:>36} {:>8} {:>7} {:>6} {:<11} against bound",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "shift",
        "wins",
        "bound",
        "verdict"
    );
    for w in &spec.workloads {
        let Some((parent, change)) = runs.get(&w.name) else {
            continue;
        };
        for m in &spec.end_to_end {
            let (p, c) = (column(parent, &w.name, m)?, column(change, &w.name, m)?);
            let Some(c) = compare(&p, &c, m.better) else {
                println!("{:<18} {:<16} needs two runs on each side", w.name, m.name);
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let over = if c.exceeds_bound(m.better, bound) {
                "exceeded"
            } else {
                "within"
            };
            println!(
                "{:<18} {:<16} {:>36} {:>36} {:>+7.2}% {:>3}/{:<3} {:>5.1}% {:<11} {}",
                w.name,
                m.name,
                side(c.parent),
                side(c.change),
                c.shift() * 100.0,
                c.change_wins,
                c.pairs,
                bound * 100.0,
                c.verdict.as_str(),
                over
            );
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec_path = "BENCHMARK.json".to_string();
    if args.first().map(String::as_str) == Some("--spec") {
        if args.len() < 2 {
            return Err("--spec needs a path".into());
        }
        spec_path = args.remove(1);
        args.remove(0);
    }
    if args.is_empty() {
        return Err("usage: wallcmp [--spec FILE] <reports…> [-- <change reports…>]".into());
    }
    let split = args.iter().position(|a| a == "--");
    let text = std::fs::read_to_string(&spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = Spec::parse(&text).map_err(|e| format!("{spec_path}: {e}"))?;

    // workload -> (first set, second set), in the order given.
    let mut runs: BTreeMap<String, (Vec<Values>, Vec<Values>)> = BTreeMap::new();
    for (i, path) in args.iter().enumerate().filter(|&(i, _)| Some(i) != split) {
        let (workload, values) = read_report(path)?;
        let entry = runs.entry(workload).or_default();
        if split.is_some_and(|s| i > s) {
            entry.1.push(values);
        } else {
            entry.0.push(values);
        }
    }
    match split {
        Some(_) => paired(&spec, &runs),
        None => spread(&spec, &runs),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wallcmp: {e}");
            ExitCode::from(2)
        }
    }
}
