//! Output: the one-line result the benchmark contract asks for, the
//! recorded suite JSON, and the by-name metric listing.

use std::fmt::Write as _;

use serde_json::Value;

use crate::catalog;
use crate::clock::load_average_1m;
use crate::json::{int, num, obj, text};
use crate::ledger::Ledger;
use crate::run::{E2e, E2E_METRICS};
use crate::stats::Summary;
use crate::workload::hardware_threads;

/// A start load above this marks a recorded set "noisy".
const NOISY_LOAD: f64 = 0.5;

/// The contract's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, each metric with its value and unit.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (String, f64)>,
) -> String {
    let metrics = metrics.into_iter().map(|(name, value)| {
        let unit = catalog::unit(&name);
        (name, obj([("value", num(value)), ("unit", text(unit))]))
    });
    obj([
        ("correct", Value::Bool(correct)),
        ("attempted", int(attempted.max(1))),
        ("failed", int(failed)),
        ("metrics", obj(metrics)),
    ])
    .to_string()
}

/// End-to-end medians of one run, in catalogue order.
pub fn e2e_medians(e: &E2e) -> Vec<(String, f64)> {
    E2E_METRICS
        .iter()
        .map(|name| (name.to_string(), e.summary(name).median))
        .collect()
}

/// Every catalogued per-layer figure of one traced run, in catalogue order.
pub fn per_layer_values(l: &Ledger) -> Vec<(String, f64)> {
    catalog::per_layer_names()
        .into_iter()
        .map(|name| {
            let v = l
                .figure(&name)
                .unwrap_or_else(|| panic!("ledger did not measure {name}"));
            (name, v)
        })
        .collect()
}

fn summary_json(name: &str, s: &Summary, values: &[f64]) -> Value {
    obj([
        ("unit", text(catalog::unit(name))),
        ("median", num(s.median)),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("min", num(s.min)),
        ("max", num(s.max)),
        ("n", int(s.n as u64)),
        (
            "values",
            Value::Array(values.iter().copied().map(num).collect()),
        ),
    ])
}

/// One workload's section of the recorded suite output; `traced` is the
/// ledger of the workload's trace and what failed its checks.
pub fn workload_json(e: &E2e, traced: Option<(&Ledger, &[String])>) -> Value {
    let facts = obj([
        (
            "events_per_rep",
            int(e.reps.first().map_or(0, |r| r.events)),
        ),
        ("bytes_per_event", num(e.bytes_per_event)),
        ("input", text(e.spec.trace.name())),
        ("days", int(e.days)),
        ("reps", int(e.reps.len() as u64)),
        ("threads", int(e.threads as u64)),
        ("seed", int(e.seed)),
        ("report_digest", text(e.reference_digest.clone())),
        (
            "min_rep_wall_s",
            num(e
                .reps
                .iter()
                .map(|r| r.wall_s)
                .fold(f64::INFINITY, f64::min)),
        ),
        ("attempted", int(e.attempted())),
        ("failed", int(e.failed())),
        ("fail_share", num(e.fail_share())),
        ("correct", Value::Bool(e.correct())),
        (
            "problems",
            Value::Array(e.problems.iter().cloned().map(text).collect()),
        ),
    ]);
    let end_to_end = obj(E2E_METRICS
        .iter()
        .map(|name| (*name, summary_json(name, &e.summary(name), &e.values(name)))));
    let mut sections = vec![("facts", facts), ("end_to_end", end_to_end)];
    if let Some((l, problems)) = traced {
        let per_layer = obj(per_layer_values(l).into_iter().map(|(name, v)| {
            let entry = obj([("unit", text(catalog::unit(&name))), ("value", num(v))]);
            (name, entry)
        }));
        sections.push(("per_layer", per_layer));
        sections.push((
            "ledger_facts",
            obj(l.facts().iter().map(|(k, v)| (*k, num(*v)))),
        ));
        sections.push((
            "ledger_problems",
            Value::Array(problems.iter().cloned().map(text).collect()),
        ));
    }
    obj(sections)
}

/// The host note recorded with every suite output.
pub fn host_json(git_sha: &str, rustc: &str) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load = load_average_1m().unwrap_or(0.0);
    obj([
        ("nproc", int(hardware_threads() as u64)),
        ("cpu_model", text(cpu_model)),
        ("rustc", text(rustc)),
        ("git_sha", text(git_sha)),
        ("load_1m_at_start", num(load)),
        ("noisy", Value::Bool(load > NOISY_LOAD)),
    ])
}

/// One line per per-layer figure: name, value, unit; then the facts.
pub fn print_per_layer(l: &Ledger, problems: &[String], out: &mut String) {
    for (name, v) in per_layer_values(l) {
        let _ = writeln!(out, "  {name:<44} {v:>16.4} {}", catalog::unit(&name));
    }
    for (name, v) in l.facts() {
        let _ = writeln!(out, "  {name:<44} {v:>16.4} (fact)");
    }
    for p in problems {
        let _ = writeln!(out, "  PROBLEM: {p}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::members;

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_units_from_the_catalogue() {
        let line = contract_line(true, 0, 0, [("events_per_s".to_string(), 1234.5678)]);
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = members(&v).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["attempted"].as_u64(), Some(1));
        assert_eq!(
            v["metrics"]["events_per_s"]["value"].as_f64(),
            Some(1234.5678)
        );
        assert_eq!(
            v["metrics"]["events_per_s"]["unit"].as_str(),
            Some("events/s")
        );
    }
}
