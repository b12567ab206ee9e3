//! `cargo xtask` — workspace automation for the DN-Hunter reproduction.
//!
//! Subcommands:
//!
//! * `lint` — the invariant gate described in DESIGN.md ("Machine-checked
//!   invariants"): workspace-specific lints (L1–L11) that encode properties
//!   the paper's hot path depends on and that rustc/clippy cannot express,
//!   including the call-graph reachability lints L7–L10. Exits non-zero on
//!   any violation, so CI can gate on it. `--json` prints machine-readable
//!   findings; `--github` adds `::error file=…,line=…` annotation lines.
//! * `ci-check` — the CI coverage gate: every integration test must be
//!   wired into a workflow step, and every `--test`/`--bin` a workflow
//!   invokes must still exist (see `ci_check.rs`).
//! * `fuzz` — the seeded structure-aware corpus fuzzer over the ingest
//!   parsers (DNS codec, frame parser, DPI extractors); panics shrink to
//!   minimal reproducers committed under `tests/corpus/regressions/`.
//!
//! All run as `cargo xtask <cmd>` (aliased in `.cargo/config.toml`).

mod fuzz;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("ci-check") => ci_check(&args[1..]),
        Some("fuzz") => fuzz::run(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask `{other}`\n");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: cargo xtask <command>\n\ncommands:\n  lint        run the workspace invariant lints (L1-L11)\n              [--json] [--github]\n  ci-check    verify the CI workflows and the integration-test suite\n              agree (every test wired in; no stale targets)\n  fuzz        seeded corpus fuzzer over the ingest parsers\n              [--smoke] [--cases N] [--seed S] [--max-seconds T]"
    );
}

fn ci_check(args: &[String]) -> ExitCode {
    if let Some(bad) = args.first() {
        eprintln!("xtask ci-check: unknown flag `{bad}` (the check takes no options)");
        return ExitCode::from(2);
    }
    let root = xtask::workspace_root();
    match xtask::ci_check::check(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("xtask ci-check: workflows and test suite agree");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("xtask ci-check: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask ci-check: {e}");
            ExitCode::from(2)
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let json = args.iter().any(|a| a == "--json");
    let github = args.iter().any(|a| a == "--github");
    if let Some(bad) = args.iter().find(|a| *a != "--json" && *a != "--github") {
        eprintln!("xtask lint: unknown flag `{bad}`");
        return ExitCode::from(2);
    }
    let root = xtask::workspace_root();
    let outcome = match xtask::runner::run(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    let violations = &outcome.violations;
    if json {
        println!("{}", render_json(&outcome));
    } else {
        for v in violations {
            println!(
                "{}:{}: [{}] {}",
                v.path.display(),
                v.line,
                v.lint,
                v.message
            );
        }
        if violations.is_empty() {
            println!(
                "xtask lint: clean ({} files, lints L1-L11)",
                outcome.files_scanned
            );
        } else {
            println!(
                "xtask lint: {} violation(s) across {} files",
                violations.len(),
                outcome.files_scanned
            );
        }
    }
    if github {
        for v in violations {
            // GitHub annotation protocol: %0A escapes newlines; our
            // messages are single-line already.
            println!(
                "::error file={},line={},title=xtask lint {}::{}",
                v.path.display(),
                v.line,
                v.lint,
                v.message
            );
        }
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Machine-readable findings for CI (`lint --json`). Hand-rolled because
/// the vendored `serde_json` shim has no `json!` macro; the escaping is
/// validated by round-tripping through `serde_json::from_str` in tests.
fn render_json(outcome: &xtask::runner::LintOutcome) -> String {
    let mut out = String::from("{\"violations\":[");
    for (i, v) in outcome.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"lint\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&v.path.to_string_lossy()),
            v.line,
            v.lint,
            json_escape(&v.message)
        ));
    }
    out.push_str(&format!(
        "],\"files_scanned\":{},\"clean\":{}}}",
        outcome.files_scanned,
        outcome.violations.is_empty()
    ));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn json_output_round_trips_through_the_parser() {
        let outcome = xtask::runner::LintOutcome {
            violations: vec![xtask::lints::Violation {
                path: PathBuf::from("crates/dns/src/codec.rs"),
                line: 7,
                lint: "L8",
                message: "size \"n\"\tderives from input\\net".into(),
            }],
            files_scanned: 3,
        };
        let text = render_json(&outcome);
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(doc["clean"], serde_json::Value::Bool(false));
        let v = &doc["violations"][0];
        assert_eq!(
            v["line"],
            serde_json::from_str::<serde_json::Value>("7").unwrap()
        );
        assert!(v["message"].as_str().unwrap_or("").contains("derives"));
    }
}
