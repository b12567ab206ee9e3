//! `dnh-bench compare A.json B.json`: hold B against A, metric by metric,
//! with the bounds `BENCHMARK.json` fixes. A is the parent (or the first
//! set), B the change (or the second set).

use std::fmt::Write as _;

use serde_json::Value;

use crate::catalog;
use crate::json::members;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// difference within the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Median and IQR share of one recorded end-to-end metric.
fn recorded(metric: &Value) -> Option<(f64, f64)> {
    let median = metric["median"].as_f64()?;
    let iqr = metric["q3"].as_f64()? - metric["q1"].as_f64()?;
    Some((
        median,
        if median == 0.0 {
            0.0
        } else {
            iqr / median.abs()
        },
    ))
}

/// Verdict on one metric: `worse` is B's change for the worse as a share
/// of A's median (negative when B is better).
pub fn judge(worse: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The comparison table and whether B may pass (nothing regressed, digests
/// and failure shares equal).
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<12} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse%", "iqrA%", "iqrB%", "bound%"
    );
    for (name, wa) in members(&a["workloads"]) {
        let wb = &b["workloads"][name.as_str()];
        if wb.is_null() {
            let _ = writeln!(out, "{name:<12} missing from B");
            pass = false;
            continue;
        }
        for (metric, ma) in members(&wa["end_to_end"]) {
            let mb = &wb["end_to_end"][metric.as_str()];
            let (Some((med_a, iqr_a)), Some((med_b, iqr_b)), Some(bound)) =
                (recorded(ma), recorded(mb), catalog::bound(metric))
            else {
                let _ = writeln!(out, "{name:<12} {metric:<18} not comparable");
                pass = false;
                continue;
            };
            let change = if med_a == 0.0 {
                0.0
            } else {
                (med_b - med_a) / med_a.abs()
            };
            let worse = if catalog::higher_is_better(metric) {
                -change
            } else {
                change
            };
            let verdict = judge(worse, iqr_a, iqr_b, bound);
            pass &= verdict != Verdict::Regressed;
            let _ = writeln!(
                out,
                "{name:<12} {metric:<18} {med_a:>14.4} {med_b:>14.4} {:>8.2} {:>7.2} {:>7.2} {:>6.1}  {}",
                100.0 * worse,
                100.0 * iqr_a,
                100.0 * iqr_b,
                100.0 * bound,
                verdict.label()
            );
        }
        let (fa, fb) = (&wa["facts"], &wb["facts"]);
        let same_input = fa["seed"] == fb["seed"] && fa["days"] == fb["days"];
        for key in ["report_digest", "fail_share"] {
            // Outputs of different inputs differ by construction.
            let equal = fa[key] == fb[key];
            let note = match (equal, same_input) {
                (true, _) => "equal",
                (false, true) => "DIFFERENT",
                (false, false) => "different inputs, not comparable",
            };
            pass &= equal || !same_input;
            let _ = writeln!(
                out,
                "{name:<12} {key:<18} {} | {}  {note}",
                fa[key], fb[key]
            );
        }
        if fb["correct"].as_bool() != Some(true) {
            let _ = writeln!(out, "{name:<12} B failed its own correctness gates");
            pass = false;
        }
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{int, num, obj, text};

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(judge(0.10, 0.01, 0.01, 0.07), Verdict::Regressed);
        assert_eq!(judge(-0.10, 0.01, 0.01, 0.07), Verdict::Improved);
        assert_eq!(judge(0.05, 0.01, 0.01, 0.07), Verdict::Unchanged);
        assert_eq!(judge(0.0, 0.08, 0.01, 0.07), Verdict::Unresolved);
        assert_eq!(judge(0.5, 0.01, 0.09, 0.07), Verdict::Unresolved);
    }

    fn set(events_per_s: f64, digest: &str) -> Value {
        let metric = obj([
            ("median", num(events_per_s)),
            ("q1", num(events_per_s * 0.99)),
            ("q3", num(events_per_s * 1.01)),
        ]);
        let workload = obj([
            ("end_to_end", obj([("events_per_s", metric)])),
            (
                "facts",
                obj([
                    ("seed", int(1)),
                    ("days", int(4)),
                    ("report_digest", text(digest)),
                    ("fail_share", num(0.0)),
                    ("correct", Value::Bool(true)),
                ]),
            ),
        ]);
        obj([("workloads", obj([("web-day-seq", workload)]))])
    }

    #[test]
    fn direction_comes_from_the_catalogue_and_digests_must_agree() {
        // events_per_s is higher-is-better; no bound may exceed 25%, so
        // halving it regresses and doubling it improves.
        let (table, pass) = compare(&set(1000.0, "d"), &set(500.0, "d"));
        assert!(!pass && table.contains("regressed"), "{table}");
        let (table, pass) = compare(&set(1000.0, "d"), &set(2000.0, "d"));
        assert!(pass && table.contains("improved"), "{table}");
        let (table, pass) = compare(&set(1000.0, "d"), &set(1001.0, "d"));
        assert!(pass && table.contains("unchanged"), "{table}");
        let (table, pass) = compare(&set(1000.0, "d"), &set(1000.0, "e"));
        assert!(!pass && table.contains("DIFFERENT"), "{table}");
    }
}
