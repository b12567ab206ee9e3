//! Telemetry companion to `pipeline_determinism`: the *stable-class*
//! metric snapshot is a pure function of the input trace. A sequential
//! run and merged parallel runs at any worker count must render the same
//! Prometheus exposition and the same final JSONL line, byte for byte
//! (DESIGN.md "Telemetry and live monitoring") — and the binary's
//! `--metrics` file is the same whether the pcap arrives as a file or on
//! stdin, because both run the one daemon loop.

use std::io::Write as _;
use std::process::{Command, Stdio};
use std::sync::Arc;

use dnhunter::{ParallelSniffer, RealTimeSniffer, SnifferConfig};
use dnhunter_simnet::{profiles, TraceGenerator};
use dnhunter_telemetry as telemetry;

#[test]
fn stable_metrics_identical_across_worker_counts() {
    let profile = profiles::eu1_adsl1().scaled(0.1);
    let trace = TraceGenerator::new(profile, false).generate();
    assert!(
        trace.records.len() > 5_000,
        "trace too small ({} frames) to exercise the pipeline",
        trace.records.len()
    );
    let config = SnifferConfig::default();

    let reference = {
        let registry = Arc::new(telemetry::Registry::new());
        let _guard = telemetry::bind(registry.clone());
        let mut sequential = RealTimeSniffer::new(config.clone());
        for rec in &trace.records {
            sequential.process_record(rec);
        }
        let report = sequential.finish();
        // The workload must actually drive the instrumented layers for
        // byte-equality to mean anything.
        assert!(report.sniffer_stats.tag_hits > 0, "no tags assigned");
        registry.snapshot()
    };
    let reference_prom = telemetry::prometheus(&reference, false);
    let reference_jsonl = telemetry::jsonl(&reference, 0, 0, false);
    assert!(reference.get(telemetry::Metric::IngestFrames) > 5_000);
    assert!(reference.get(telemetry::Metric::DnsResponsesSniffed) > 0);
    assert!(reference.get(telemetry::Metric::ResolverHits) > 0);
    assert!(reference.get(telemetry::Metric::FlowsStarted) > 0);
    // Final flush returned every flow: the gauge must read empty.
    assert_eq!(reference.gauge(telemetry::Metric::FlowTableSize), 0);

    for workers in [1usize, 2, 8] {
        let registry = Arc::new(telemetry::Registry::new());
        let _guard = telemetry::bind(registry.clone());
        let mut parallel = ParallelSniffer::new(config.clone(), workers);
        for rec in &trace.records {
            parallel.process_record(rec);
        }
        let _ = parallel.finish();
        let snap = registry.snapshot();
        assert_eq!(
            telemetry::prometheus(&snap, false),
            reference_prom,
            "{workers}-worker stable exposition diverged from sequential"
        );
        assert_eq!(
            telemetry::jsonl(&snap, 0, 0, false),
            reference_jsonl,
            "{workers}-worker stable JSONL diverged from sequential"
        );
    }
}

#[test]
fn snapshots_fire_on_packet_timestamps() {
    let profile = profiles::eu1_adsl1().scaled(0.1);
    let trace = TraceGenerator::new(profile, false).generate();
    let registry = Arc::new(telemetry::Registry::new());
    let _guard = telemetry::bind(registry.clone());
    // One snapshot per 10 minutes of *trace* time: the count depends only
    // on the trace's timestamps, never on host speed.
    let mut emitter = telemetry::SnapshotEmitter::new(600 * 1_000_000);
    let mut sniffer = RealTimeSniffer::new(SnifferConfig::default());
    let mut lines = Vec::new();
    for rec in &trace.records {
        let ts = rec.timestamp_micros();
        sniffer.process_record(rec);
        if emitter.poll(ts) {
            let seq = emitter.emitted().saturating_sub(1);
            lines.push(telemetry::jsonl(&registry.snapshot(), seq, ts, false));
        }
    }
    let span = trace
        .records
        .last()
        .map(|r| r.timestamp_micros())
        .unwrap_or(0)
        .saturating_sub(
            trace
                .records
                .first()
                .map(|r| r.timestamp_micros())
                .unwrap_or(0),
        );
    let expected = (span / (600 * 1_000_000)) as usize;
    assert!(
        lines.len() >= expected.saturating_sub(1) && lines.len() <= expected + 1,
        "{} snapshots over a {span}µs trace (expected ~{expected})",
        lines.len()
    );
    assert!(lines.len() >= 2, "need at least two mid-run snapshots");
    // Counters are monotone across successive snapshots of one run.
    let frames: Vec<u64> = lines
        .iter()
        .map(|l| {
            l.split("\"dnh_ingest_frames_total\":")
                .nth(1)
                .and_then(|r| r.split([',', '}']).next())
                .and_then(|v| v.parse().ok())
                .expect("frames counter present")
        })
        .collect();
    assert!(frames.windows(2).all(|w| w[0] <= w[1]));
}

/// The value of counter `name` in one `--metrics` JSONL line.
fn counter(line: &str, name: &str) -> u64 {
    line.split(&format!("\"{name}\":"))
        .nth(1)
        .and_then(|r| r.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
}

#[test]
fn cli_metrics_lines_agree_between_file_and_stdin_at_two_workers() {
    let profile = profiles::eu1_adsl1().scaled(0.1);
    let trace = TraceGenerator::new(profile, false).generate();
    let bytes = trace.write_pcap(Vec::new()).expect("pcap encodes");
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("dnh-metrics-{}-{name}", std::process::id()))
    };
    let (pcap, file_out, stdin_out) = (tmp("in.pcap"), tmp("file.jsonl"), tmp("stdin.jsonl"));
    std::fs::write(&pcap, &bytes).expect("pcap writes");

    let run = |input: &str, out: &std::path::Path| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dn-hunter"))
            .arg(input)
            .args(["--workers", "2", "--metrics-interval", "600", "--metrics"])
            .arg(out)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .expect("dn-hunter binary runs");
        let mut stdin = child.stdin.take().expect("piped stdin");
        if input == "-" {
            stdin.write_all(&bytes).expect("pcap streams into stdin");
        }
        drop(stdin);
        assert!(child.wait().expect("dn-hunter exits").success());
        let text = std::fs::read_to_string(out).expect("metrics file written");
        text.lines().map(str::to_owned).collect::<Vec<_>>()
    };
    let from_file = run(pcap.to_str().expect("utf-8 temp path"), &file_out);
    let from_stdin = run("-", &stdin_out);

    assert!(
        from_file.len() >= 3,
        "need mid-run lines plus the final one"
    );
    assert_eq!(
        from_file.len(),
        from_stdin.len(),
        "interval line counts differ"
    );
    assert_eq!(
        from_file.last(),
        from_stdin.last(),
        "final stable-class lines differ between file and stdin"
    );
    // Mid-run lines carry the workers' counters too, whichever way the
    // bytes arrived: the rings bound how far a worker can lag the
    // dispatcher, so by the last interval line flows have been opened.
    for lines in [&from_file, &from_stdin] {
        let last_mid_run = &lines[lines.len() - 2];
        assert!(counter(last_mid_run, "dnh_ingest_frames_total") > 0);
        assert!(
            counter(last_mid_run, "dnh_flow_started_total") > 0,
            "worker-side counters frozen in mid-run line: {last_mid_run}"
        );
    }
    for path in [&pcap, &file_out, &stdin_out] {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(format!("{}.prom", path.display()));
    }
}
