//! The metric catalogue: `BENCHMARK.json` (names, units, directions,
//! bounds), compiled in so the binary and the file it was built beside
//! cannot disagree. The tests also hold `catalog.json`, the interaction
//! map, against it.

use std::sync::OnceLock;

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub fn benchmark() -> &'static Value {
    static V: OnceLock<Value> = OnceLock::new();
    V.get_or_init(|| serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is JSON"))
}

fn entries(section: &str) -> &'static [Value] {
    benchmark()[section]
        .as_array()
        .map_or(&[][..], |v| v.as_slice())
}

fn names(section: &str) -> Vec<String> {
    entries(section)
        .iter()
        .filter_map(|m| m["name"].as_str().map(str::to_string))
        .collect()
}

/// How long one run measures, seconds: sets the timed reps of a run.
pub fn run_seconds() -> u64 {
    benchmark()["run_seconds"]
        .as_u64()
        .expect("BENCHMARK.json run_seconds")
}

pub fn per_layer_names() -> Vec<String> {
    names("per_layer")
}

/// The entry of one metric, whichever section lists it.
pub fn metric(name: &str) -> Option<&'static Value> {
    entries("end_to_end")
        .iter()
        .chain(entries("per_layer"))
        .find(|m| m["name"].as_str() == Some(name))
}

pub fn unit(name: &str) -> &'static str {
    metric(name).and_then(|m| m["unit"].as_str()).unwrap_or("")
}

/// True when a larger value of `name` is the better one.
pub fn higher_is_better(name: &str) -> bool {
    metric(name).and_then(|m| m["better"].as_str()) == Some("higher")
}

/// The share of the parent's median an end-to-end metric may worsen by.
pub fn bound(name: &str) -> Option<f64> {
    metric(name)?["bound"].as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::members;
    use crate::run::E2E_METRICS;
    use crate::workload::WORKLOADS;

    fn interaction_map() -> Value {
        serde_json::from_str(include_str!("../catalog.json")).expect("catalog.json is JSON")
    }

    fn workload_names() -> Vec<String> {
        names("workloads")
    }

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let b = benchmark();
        let keys: Vec<&str> = members(b).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        assert!((2..=8).contains(&entries("workloads").len()));
        assert!((1..=16).contains(&entries("end_to_end").len()));
        assert!((1..=128).contains(&entries("per_layer").len()));
        assert!((1..=60).contains(&run_seconds()));

        let mut all: Vec<String> = ["workloads", "end_to_end", "per_layer"]
            .iter()
            .flat_map(|s| names(s))
            .collect();
        assert!(all.iter().all(|n| well_formed(n)), "{all:?}");
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used twice");

        for w in entries("workloads") {
            let why = w["why"].as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert_eq!(members(w).len(), 2);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in entries("end_to_end") {
            assert_eq!(members(m).len(), 4, "{m}");
            let bound = m["bound"].as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m}");
        }
        for m in entries("per_layer") {
            assert_eq!(members(m).len(), 3, "{m}");
        }
        for m in entries("end_to_end").iter().chain(entries("per_layer")) {
            assert!(unit_ok(m["unit"].as_str().unwrap()), "{m}");
            assert!(
                matches!(m["better"].as_str(), Some("higher" | "lower")),
                "{m}"
            );
        }
        let setup = metric("setup_s").unwrap();
        assert_eq!(setup["unit"].as_str(), Some("s"));
        assert_eq!(setup["better"].as_str(), Some("lower"));
        let max = entries("end_to_end")
            .iter()
            .filter_map(|m| m["bound"].as_f64())
            .fold(0.0, f64::max);
        assert_eq!(
            bound("setup_s"),
            Some(max),
            "setup_s takes the largest bound"
        );
    }

    #[test]
    fn benchmark_json_names_what_the_binary_measures() {
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workload_names(), workloads);
        let e2e = names("end_to_end");
        let ours: Vec<String> = E2E_METRICS.iter().map(|n| n.to_string()).collect();
        assert_eq!(e2e, ours);
    }

    #[test]
    fn every_per_layer_metric_says_what_it_should_move() {
        let doc = interaction_map();
        let map = &doc["per_layer"];
        let listed: Vec<&str> = members(map).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            listed,
            per_layer_names(),
            "catalog.json and BENCHMARK.json differ"
        );
        let e2e = names("end_to_end");
        let workloads = workload_names();
        for (name, entry) in members(map) {
            let moves = entry["moves"].as_array().unwrap();
            for pair in moves {
                let (w, m) = (pair[0].as_str().unwrap(), pair[1].as_str().unwrap());
                assert!(workloads.iter().any(|x| x == w), "{name}: workload {w}");
                assert!(e2e.iter().any(|x| x == m), "{name}: metric {m}");
            }
            if moves.is_empty() {
                let reason = entry["moves_nothing_because"].as_str();
                assert!(
                    reason.is_some_and(|r| !r.is_empty()),
                    "{name}: no target, no reason"
                );
            } else {
                assert!(
                    entry["why"].as_str().is_some_and(|r| !r.is_empty()),
                    "{name}"
                );
            }
        }
    }
}
