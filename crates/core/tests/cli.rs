//! The `dn-hunter` binary driven as a subprocess: every pcap replay goes
//! through the one daemon loop, so a plain file run must still print
//! exactly what the library's exporters render for the sequential sniffer
//! — at any `--workers` — and the deleted `--dispatchers` flag must be
//! refused like any other unknown argument.

use std::path::PathBuf;
use std::process::{Command, Output};

use dnhunter::{write_csv, write_tstat_log, RealTimeSniffer, SnifferConfig};
use dnhunter_simnet::{profiles, TraceGenerator};

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

#[test]
fn file_replay_prints_the_library_exports_at_one_and_two_workers() {
    let trace = TraceGenerator::new(profiles::eu1_ftth().scaled(0.05), false).generate();
    let pcap = temp_path("replay.pcap");
    std::fs::write(&pcap, trace.write_pcap(Vec::new()).expect("pcap encodes"))
        .expect("pcap writes");

    // The binary's default configuration: 300 s warm-up, all else default.
    let mut sniffer = RealTimeSniffer::new(SnifferConfig {
        warmup_micros: 300 * 1_000_000,
        ..SnifferConfig::default()
    });
    for rec in &trace.records {
        sniffer.process_record(rec);
    }
    let db = sniffer.finish().database;
    assert!(db.len() > 50, "trace too small to mean anything");
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
