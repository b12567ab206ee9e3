//! The `dn-hunter` binary driven as a subprocess: every pcap replay goes
//! through the one daemon loop, so a plain file run must still print
//! exactly what the library's exporters render for the sequential sniffer
//! — at any `--workers` — the deleted `--dispatchers` flag must be
//! refused like any other unknown argument, and a seconds flag too large
//! for microseconds must be a usage error. A flow-record stream runs the
//! same loop, so it takes `--workers` and `--metrics` like a pcap does.
//! The default summary and `--port` tags print the library's own counts
//! and Eq. 1 ranking at any `--workers`.

use std::collections::BTreeSet;
use std::io::{Cursor, Write};
use std::net::IpAddr;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use dnhunter::db::token_scores;
use dnhunter::{
    write_csv, write_tstat_log, FlowDatabase, FlowrecConfig, RealTimeSniffer, SnifferConfig,
};
use dnhunter_dns::suffix::SuffixSet;
use dnhunter_net::flowrec::encode_stream;
use dnhunter_net::FlowRecReader;
use dnhunter_simnet::{flowexport, profiles, TraceGenerator};

fn dn_hunter(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dn-hunter"))
        .args(args)
        .output()
        .expect("dn-hunter binary runs")
}

/// A per-process temp path, so parallel test binaries never share a file.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dnh-cli-{}-{name}", std::process::id()))
}

#[test]
fn dispatchers_flag_is_rejected_as_unknown() {
    let out = dn_hunter(&["x.pcap", "--dispatchers", "2"]);
    assert!(!out.status.success(), "a removed flag must not be accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument '--dispatchers'"),
        "unexpected stderr: {stderr}"
    );
}

/// Seconds flags are scaled to microseconds; a value whose product
/// overflows `u64` is a usage error, not a wrapped (release) or panicking
/// (debug) duration. `u64::MAX / 1_000_000` is the largest accepted.
#[test]
fn seconds_flags_reject_values_that_overflow_microseconds() {
    let missing = temp_path("missing.pcap");
    let missing = missing.to_str().expect("utf-8 temp path");
    for flag in ["--warmup", "--metrics-interval", "--stream-interval"] {
        let out = dn_hunter(&[missing, flag, "18446744073710"]);
        assert_eq!(out.status.code(), Some(1), "{flag}: expected a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} needs seconds")),
            "{flag}: unexpected stderr: {stderr}"
        );
    }
    // The largest representable value parses; the run then fails on the
    // missing input, not on the flag.
    let out = dn_hunter(&[missing, "--warmup", "18446744073709"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));
}

/// A small EU1-FTTH trace written to a pcap at `temp_path(name)`, and the
/// database the library's sequential sniffer builds from it under the
/// binary's default configuration (300 s warm-up, all else default).
fn replay_fixture(name: &str) -> (PathBuf, FlowDatabase) {
    let trace = TraceGenerator::new(profiles::eu1_ftth().scaled(0.05), false).generate();
    let pcap = temp_path(name);
    std::fs::write(&pcap, trace.write_pcap(Vec::new()).expect("pcap encodes"))
        .expect("pcap writes");
    let mut sniffer = RealTimeSniffer::new(SnifferConfig {
        warmup_micros: 300 * 1_000_000,
        ..SnifferConfig::default()
    });
    for rec in &trace.records {
        sniffer.process_record(rec);
    }
    let db = sniffer.finish().database;
    assert!(db.len() > 50, "trace too small to mean anything");
    (pcap, db)
}

#[test]
fn file_replay_prints_the_library_exports_at_one_and_two_workers() {
    let (pcap, db) = replay_fixture("replay.pcap");
    let mut csv = Vec::new();
    write_csv(&db, &mut csv).expect("csv renders");
    let mut tstat = Vec::new();
    write_tstat_log(&db, &mut tstat).expect("tstat log renders");
    let expected = [
        ("--json", db.to_json_lines().into_bytes()),
        ("--csv", csv),
        ("--tstat", tstat),
    ];

    let path = pcap.to_str().expect("utf-8 temp path");
    for workers in ["1", "2"] {
        for (flag, want) in &expected {
            let out = dn_hunter(&[path, flag, "--workers", workers]);
            assert!(out.status.success(), "{flag} --workers {workers} failed");
            assert!(
                out.stdout == *want,
                "{flag} --workers {workers} diverged from the library export"
            );
        }
    }
    let _ = std::fs::remove_file(&pcap);
}

/// The default summary at one and two workers: its flow, FQDN and server
/// counts are the library rows' own, counted here with `BTreeSet`s, and the
/// top-labels block is the same at both worker counts.
#[test]
fn summary_counts_match_the_library_rows_at_one_and_two_workers() {
    let (pcap, db) = replay_fixture("summary.pcap");
    let fqdns: BTreeSet<String> = db
        .flows()
        .iter()
        .filter_map(|f| f.fqdn.as_ref().map(|n| n.to_string()))
        .collect();
    let servers: BTreeSet<IpAddr> = db.flows().iter().map(|f| f.key.server).collect();
    let expected = [
        format!("flows           : {}", db.len()),
        format!("distinct FQDNs  : {}", fqdns.len()),
        format!("distinct servers: {}", servers.len()),
    ];

    let path = pcap.to_str().expect("utf-8 temp path");
    let mut top_labels = Vec::new();
    for workers in ["1", "2"] {
        let out = dn_hunter(&[path, "--workers", workers]);
        assert!(out.status.success(), "summary --workers {workers} failed");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 summary");
        for line in &expected {
            assert!(
                stdout.lines().any(|l| l == line),
                "--workers {workers}: missing '{line}' in:\n{stdout}"
            );
        }
        let (_, top) = stdout
            .split_once("top labels by flows:")
            .expect("summary has a top-labels block");
        assert!(top.lines().count() > 5, "top-labels block too short: {top}");
        top_labels.push(top.to_string());
    }
    assert_eq!(
        top_labels[0], top_labels[1],
        "top labels differ by worker count"
    );
    let _ = std::fs::remove_file(&pcap);
}

/// `--port N` prints the library's Eq. 1 top 10 for that port — score
/// descending, ties by token — at one and two workers.
#[test]
fn port_tags_are_the_library_top_ten_at_one_and_two_workers() {
    let (pcap, db) = replay_fixture("port.pcap");
    let suffixes = SuffixSet::builtin();
    let path = pcap.to_str().expect("utf-8 temp path");
    let mut ranked_ports = 0;
    for port in [25u16, 80, 110, 443, 995] {
        // Token order in, a stable sort on the score: ties stay by token.
        let mut ranked = token_scores(db.by_port(port), &suffixes);
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut want = format!("service tags for port {port}:\n");
        for (token, score) in ranked.iter().take(10) {
            want.push_str(&format!("  ({score:.0}) {token}\n"));
        }
        ranked_ports += usize::from(ranked.len() >= 3);
        let port_arg = port.to_string();
        for workers in ["1", "2"] {
            let out = dn_hunter(&[path, "--port", &port_arg, "--workers", workers]);
            assert!(
                out.status.success(),
                "--port {port} --workers {workers} failed"
            );
            assert_eq!(
                String::from_utf8(out.stdout).expect("utf-8 tags"),
                want,
                "--port {port} --workers {workers}"
            );
        }
    }
    assert!(
        ranked_ports >= 2,
        "too few ports with tags to mean anything"
    );
    let _ = std::fs::remove_file(&pcap);
}

/// `dn-hunter` with `stdin` piped in.
fn dn_hunter_stdin(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dn-hunter"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dn-hunter binary runs");
    let mut pipe = child.stdin.take().expect("stdin is piped");
    pipe.write_all(stdin).expect("stdin takes the stream");
    drop(pipe);
    child.wait_with_output().expect("dn-hunter finishes")
}

#[test]
fn flowrec_replay_composes_with_workers_and_metrics() {
    let trace = TraceGenerator::new(profiles::eu1_ftth().scaled(0.05), false).generate();
    let stream = flowexport::export_stream(&trace.records, 7, 53);
    let bytes = encode_stream(&stream);
    let dnfr = temp_path("replay.dnfr");
    std::fs::write(&dnfr, &bytes).expect("dnfr writes");

    // The library's flow-record loop under the binary's default
    // configuration: 300 s warm-up, default reorder buffer.
    let mut sniffer = RealTimeSniffer::new(SnifferConfig {
        warmup_micros: 300 * 1_000_000,
        ..SnifferConfig::default()
    });
    let mut reader = FlowRecReader::new(Cursor::new(&bytes)).expect("valid header");
    dnhunter::run_flowrec_daemon(&mut reader, &mut sniffer, &FlowrecConfig::default(), None)
        .expect("flow-record stream ingests");
    let want = sniffer.finish().database.to_json_lines();
    assert!(
        want.lines().count() > 50,
        "stream too small to mean anything"
    );

    let path = dnfr.to_str().expect("utf-8 temp path");
    for workers in ["1", "2"] {
        let args = ["--flowrec", "--json", "--workers", workers];
        let from_file = dn_hunter(&[&[path][..], &args].concat());
        let from_stdin = dn_hunter_stdin(&[&["-"][..], &args].concat(), &bytes);
        for (input, out) in [("file", from_file), ("stdin", from_stdin)] {
            assert!(out.status.success(), "{input} --workers {workers} failed");
            assert!(
                out.stdout == want.as_bytes(),
                "{input} --workers {workers} diverged from the library export"
            );
        }
    }

    let metrics = temp_path("flowrec-metrics.jsonl");
    let metrics_path = metrics.to_str().expect("utf-8 temp path");
    let out = dn_hunter(&[
        path,
        "--flowrec",
        "--metrics",
        metrics_path,
        "--workers",
        "2",
    ]);
    assert!(out.status.success(), "--flowrec --metrics failed");
    let lines = std::fs::read_to_string(&metrics).expect("metrics file written");
    let last: serde_json::Value =
        serde_json::from_str(lines.lines().last().expect("a final line")).expect("JSON line");
    let counter = |name: &str| last["counters"][name].as_u64().expect("counter present");
    assert_eq!(
        counter("dnh_flowrec_dns_records_total") + counter("dnh_flowrec_flow_records_total"),
        stream.len() as u64,
        "the final metrics line lost flow records"
    );
    for p in [
        dnfr,
        metrics.clone(),
        PathBuf::from(format!("{metrics_path}.prom")),
    ] {
        let _ = std::fs::remove_file(p);
    }
}
