//! The run comparator: parent runs against change runs, metric by metric.
//!
//! Runs are the outputs a sweep writes, one file per run, named
//! `<workload>.trace<0|1>.seed<n>.json`: the run's whole standard output,
//! whose first line names the run length and whose last line is the
//! result. Runs of different lengths are never compared. For every
//! workload × end-to-end metric the comparator prints both sides' medians
//! and quartiles and a verdict against the metric's bound from
//! `BENCHMARK.json`; for traced runs it prints the per-layer median deltas.

use crate::stats::{median, quartiles, spread};
use kfusion::trace::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// An end-to-end metric's bound and direction, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Whether lower values are better.
    pub lower_is_better: bool,
}

/// The comparator's judgement of one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by more than the parent's own spread.
    Better,
    /// The change is no worse than the bound allows.
    WithinBound,
    /// The change is worse by more than the bound.
    Worse,
    /// The run-to-run spread exceeds the bound and the runs overlap.
    Unresolved,
}

impl Verdict {
    /// The verdict as printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` runs against `parent` runs of one metric (each side at
/// least two runs).
///
/// If either side's spread (interquartile distance over median) exceeds
/// the bound, the verdict is unresolved unless every change run beats, or
/// every change run loses to, every parent run. Otherwise the change is
/// worse when its median is worse than the parent's by more than the bound,
/// better when its median is better by more than the parent's
/// interquartile distance, and within bound in between.
pub fn verdict(parent: &[f64], change: &[f64], b: Bound) -> Verdict {
    let sign = if b.lower_is_better { 1.0 } else { -1.0 };
    // Positive `worse_by` means the change reads worse.
    let worse_by = |p: f64, c: f64| sign * (c - p);
    let [pq1, pmed, pq3] = quartiles(parent);
    let cmed = median(change);
    if spread(parent).max(spread(change)) > b.bound {
        let all =
            |f: &dyn Fn(f64, f64) -> bool| parent.iter().all(|&p| change.iter().all(|&c| f(p, c)));
        return if all(&|p, c| worse_by(p, c) < 0.0) {
            Verdict::Better
        } else if all(&|p, c| worse_by(p, c) > 0.0) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let delta = worse_by(pmed, cmed);
    if delta > b.bound * pmed.abs() {
        Verdict::Worse
    } else if -delta > pq3 - pq1 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Bounds of the end-to-end metrics listed in a `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let list = doc.get("end_to_end").and_then(Value::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("metric without a bound")?;
            let better = m.get("better").and_then(Value::as_str).ok_or("metric without better")?;
            Ok((name.to_string(), Bound { bound, lower_is_better: better == "lower" }))
        })
        .collect()
}

/// The run length (`run_seconds`) and workload names a `BENCHMARK.json`
/// text fixes.
pub fn schedule(benchmark_json: &str) -> Result<(u64, Vec<String>), String> {
    let doc = json::parse(benchmark_json)?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .filter(|s| *s >= 1.0 && s.fract() == 0.0)
        .ok_or("no whole run_seconds")? as u64;
    let list = doc.get("workloads").and_then(Value::as_arr).ok_or("no workloads list")?;
    let names = list
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("workload without a name")?;
    Ok((seconds, names))
}

/// The `seconds=<n>` a run's first output line reports.
pub fn run_seconds(output: &str) -> Option<u64> {
    output.lines().next()?.split_whitespace().find_map(|w| w.strip_prefix("seconds=")?.parse().ok())
}

/// Metric values of one run, parsed from its result line.
fn parse_result(line: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = json::parse(line)?;
    let metrics = doc.get("metrics").and_then(Value::as_obj).ok_or("result without metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Value::as_f64).ok_or("metric without a value")?;
            Ok((name.clone(), v))
        })
        .collect()
}

/// Runs in a sweep directory: workload → trace flag → metric → values,
/// one value per run.
pub type Runs = BTreeMap<String, BTreeMap<u8, BTreeMap<String, Vec<f64>>>>;

/// Load every `<workload>.trace<t>.seed<n>.json` run in `dir`, with the
/// run length they share. Runs of different lengths are refused.
pub fn load_runs(dir: &Path) -> Result<(u64, Runs), String> {
    let mut runs = Runs::new();
    let mut length = None;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let mut parts = name.split('.');
        let (Some(workload), Some(trace)) = (parts.next(), parts.next()) else { continue };
        let Some(trace) = trace.strip_prefix("trace").and_then(|t| t.parse::<u8>().ok()) else {
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let seconds = run_seconds(&text).ok_or(format!("{name}: no seconds= in its first line"))?;
        match length {
            Some(l) if l != seconds => {
                return Err(format!("{}: runs of {l} s and {seconds} s mixed", dir.display()))
            }
            _ => length = Some(seconds),
        }
        let line = text.lines().last().unwrap_or_default();
        let metrics = parse_result(line).map_err(|e| format!("{name}: {e}"))?;
        let slot = runs.entry(workload.to_string()).or_default().entry(trace).or_default();
        for (metric, v) in metrics {
            slot.entry(metric).or_default().push(v);
        }
    }
    Ok((length.ok_or(format!("{}: no runs", dir.display()))?, runs))
}

fn summary(v: &[f64]) -> String {
    let [q1, med, q3] = quartiles(v);
    format!("{med:>12.4} [{q1:.4}, {q3:.4}]")
}

/// The comparison report: one row per workload × end-to-end metric, then
/// the per-layer median deltas from the traced runs.
pub fn report(parent: &Runs, change: &Runs, bounds: &BTreeMap<String, Bound>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<18} {:>34} {:>34}  verdict (bound)\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]"
    ));
    for (workload, p) in parent {
        let (Some(pe), Some(ce)) = (p.get(&0), change.get(workload).and_then(|c| c.get(&0))) else {
            continue;
        };
        for (metric, b) in bounds {
            let (Some(pv), Some(cv)) = (pe.get(metric), ce.get(metric)) else { continue };
            if pv.len() < 2 || cv.len() < 2 {
                out.push_str(&format!("{workload:<14} {metric:<18} needs two runs a side\n"));
                continue;
            }
            out.push_str(&format!(
                "{workload:<14} {metric:<18} {:>34} {:>34}  {} ({})\n",
                summary(pv),
                summary(cv),
                verdict(pv, cv, *b).as_str(),
                b.bound
            ));
        }
    }
    out.push_str(&format!(
        "\n{:<14} {:<24} {:>14} {:>14} {:>10}\n",
        "workload", "layer metric", "parent median", "change median", "delta"
    ));
    for (workload, p) in parent {
        let (Some(pl), Some(cl)) = (p.get(&1), change.get(workload).and_then(|c| c.get(&1))) else {
            continue;
        };
        for (metric, pv) in pl {
            let Some(cv) = cl.get(metric) else { continue };
            let (pm, cm) = (median(pv), median(cv));
            let delta = if pm == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", (cm - pm) / pm * 100.0)
            };
            out.push_str(&format!(
                "{workload:<14} {metric:<24} {pm:>14.4} {cm:>14.4} {delta:>10}\n"
            ));
        }
    }
    out
}
