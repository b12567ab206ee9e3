//! `dnh-bench`: long-run ingest benchmark for DN-Hunter — four workloads
//! of time-shifted day replay, end-to-end metrics over timed reps, and a
//! per-layer cost ledger from a separate traced run. See README.md.

mod alloc;
mod catalog;
mod clock;
mod compare;
mod json;
mod ledger;
mod report;
mod run;
mod stats;
mod sut;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::Value;

use crate::json::{int, obj, text};
use crate::ledger::Ledger;
use crate::run::{print_e2e, run_e2e, set_up, SETUP_REPEATS};
use crate::sut::BALANCE_FACT;
use crate::workload::{spec_by_name, TraceKind, WORKLOADS};

// `unsafe` lives in `alloc` only: the counting allocator is what measures
// allocs_per_event and peak_state_mb.
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The fewest timed reps a run may have.
const MIN_REPS: usize = 5;
/// Seconds of measurement one timed rep stands for when `--seconds` sets
/// the rep count: every workload's rep lasts 2 s or more.
const NOMINAL_REP_SECS: u64 = 2;

/// Where a suite run records its set, from the root of the checkout.
const OUT_DIR: &str = "dnh-bench/out";

const USAGE: &str = "usage:
  dnh-bench run --workload NAME --seed N --seconds S --trace 0|1
  dnh-bench suite [--quick] [--seed N] [--only NAME] [--no-trace]
                  [--git-sha SHA] [--rustc VERSION]
  dnh-bench compare A.json B.json";

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number(&self, key: &str) -> Result<Option<u64>, String> {
        self.value(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{key} {v}: not a whole number"))
            })
            .transpose()
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

/// Timed reps that measure for `seconds` seconds.
fn reps_for(seconds: u64) -> usize {
    (seconds.div_ceil(NOMINAL_REP_SECS) as usize).max(MIN_REPS)
}

fn traced(kind: TraceKind, trace: &sut::Trace, days: u64) -> (Ledger, Vec<String>) {
    let mut l = Ledger::new();
    let problems = sut::ledger(kind, trace, days, &mut l);
    (l, problems)
}

/// One workload, one mode, one result line: the benchmark contract's entry.
/// A run that printed its line exits 0; the line says whether it was correct.
fn cmd_run(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let spec = spec_by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = args.number("--seed")?.unwrap_or(1);
    let seconds = args
        .number("--seconds")?
        .unwrap_or_else(catalog::run_seconds);
    let mut text = String::new();
    let line = match args.value("--trace").unwrap_or("0") {
        "0" => {
            let (e, _) = run_e2e(&spec, seed, spec.days, reps_for(seconds), SETUP_REPEATS);
            print_e2e(&e, &mut text);
            report::contract_line(
                e.correct(),
                e.attempted(),
                e.failed(),
                report::e2e_medians(&e),
            )
        }
        "1" => {
            let (trace, _) = set_up(&spec, seed, 1);
            let (l, problems) = traced(spec.trace, &trace, spec.trace.ledger_days());
            report::print_per_layer(&l, &problems, &mut text);
            let ops = l.total_ops("core.engine");
            report::contract_line(problems.is_empty(), ops, 0, report::per_layer_values(&l))
        }
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    eprint!("{text}");
    println!("{line}");
    Ok(true)
}

/// Every workload as the contract runs it — timed reps, then one traced run
/// per distinct trace; prints every metric by name, checks outputs, records
/// the set.
fn cmd_suite(args: &Args) -> Result<bool, String> {
    let quick = args.flag("--quick");
    let seed = args.number("--seed")?.unwrap_or(1);
    let only = args.value("--only");
    if let Some(name) = only {
        spec_by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    }
    let out_dir = PathBuf::from(OUT_DIR);
    let git_sha = args.value("--git-sha").unwrap_or("nogit");
    let host = report::host_json(git_sha, args.value("--rustc").unwrap_or("unknown"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let mut ok = true;
    let mut sections = Vec::new();
    let mut digests: Vec<(&str, String)> = Vec::new();
    // Workloads that share a trace share every layer's input: one ledger
    // per trace, not one per workload.
    let mut ledgers: Vec<(TraceKind, Ledger, Vec<String>)> = Vec::new();
    for spec in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|n| n == w.name))
    {
        // `--quick` is a smoke mode (1 day, 2 reps, 1 set-up), not valid
        // for claims.
        let (days, reps, setups, ledger_days) = if quick {
            (1, 2, 1, 1)
        } else {
            (
                spec.days,
                reps_for(catalog::run_seconds()),
                SETUP_REPEATS,
                spec.trace.ledger_days(),
            )
        };
        let (e, trace) = run_e2e(spec, seed, days, reps, setups);
        let mut text = String::new();
        print_e2e(&e, &mut text);
        ok &= e.correct();
        digests.push((spec.name, e.reference_digest.clone()));
        if !args.flag("--no-trace") && ledgers.iter().all(|(k, ..)| *k != spec.trace) {
            let (l, problems) = traced(spec.trace, &trace, ledger_days);
            let _ = writeln!(text, "ledger of {}", spec.trace.name());
            report::print_per_layer(&l, &problems, &mut text);
            ok &= problems.is_empty();
            let path = out_dir.join(format!("{git_sha}-spans-{}.json", spec.trace.name()));
            std::fs::write(&path, l.chrome_trace())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            ledgers.push((spec.trace, l, problems));
        }
        print!("{text}");
        let ledger = ledgers.iter().find(|(k, ..)| *k == spec.trace);
        let section = report::workload_json(&e, ledger.map(|(_, l, p)| (l, p.as_slice())));
        sections.push((spec.name, section));
    }

    // Cross-workload gates and predictions.
    let digest_of = |name: &str| digests.iter().find(|(n, _)| *n == name).map(|(_, d)| d);
    if let (Some(seq), Some(par)) = (digest_of("web-day-seq"), digest_of("web-day-par")) {
        let equal = seq == par;
        println!("gate: web-day-par digest == web-day-seq digest: {equal}");
        ok &= equal;
    }
    let balance_of = |kind: TraceKind| {
        let (_, l, _) = ledgers.iter().find(|(k, ..)| *k == kind)?;
        l.facts().get(BALANCE_FACT).copied()
    };
    if let (Some(web), Some(storm)) = (
        balance_of(TraceKind::WebDay),
        balance_of(TraceKind::DnsStorm),
    ) {
        // A prediction, not a gate: the set is recorded either way.
        println!(
            "prediction: dns+resolver share of engine time is at least 3x higher on dns-storm \
             ({storm:.3}) than on web-day ({web:.3}): {}",
            if storm >= 3.0 * web {
                "holds"
            } else {
                "DOES NOT HOLD"
            }
        );
    }

    let doc = obj([
        ("schema", text("dnh-bench/1")),
        ("host", host),
        ("seed", int(seed)),
        ("quick", Value::Bool(quick)),
        ("correct", Value::Bool(ok)),
        ("workloads", obj(sections)),
    ]);
    let path = out_dir.join(format!("{git_sha}.json"));
    std::fs::write(&path, json::pretty(&doc)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    let load = |path: &String| -> Result<Value, String> {
        let s = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&s).map_err(|e| format!("{path}: {e}"))
    };
    let [a, b] = &args.0[..] else {
        return Err("compare takes two recorded sets".into());
    };
    let (table, pass) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let result = match command.as_str() {
        "run" => cmd_run(&args),
        "suite" => cmd_suite(&args),
        "compare" => cmd_compare(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("dnh-bench: {message}");
            ExitCode::from(2)
        }
    }
}
