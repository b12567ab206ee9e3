//! The flight recorder's headline guarantee: observing the pipeline does
//! not change it. Reports, stable metrics and streaming analytics must be
//! byte-identical with tracing on and off, across worker counts — and the
//! `--explain` chain itself is deterministic: stable trace events are a
//! pure function of the input trace, so the rendered provenance of any
//! FQDN is identical no matter which lanes recorded it.

use std::sync::Arc;

use dnhunter::{
    FlowSink, ParallelSniffer, RealTimeSniffer, SnifferConfig, SnifferReport, StreamingAnalytics,
    StreamingConfig,
};
use dnhunter_simnet::{profiles, TraceGenerator};
use dnhunter_telemetry as telemetry;

/// The `pipeline_determinism` digest: equal strings mean equal reports.
fn digest(report: &SnifferReport) -> String {
    let mut out = String::new();
    let mut push = |part: Result<String, serde_json::Error>| {
        out.push_str(&part.expect("report part serializes"));
        out.push('\n');
    };
    push(serde_json::to_string(report.database.flows()));
    push(serde_json::to_string(&report.sniffer_stats));
    push(serde_json::to_string(&report.resolver_stats));
    push(serde_json::to_string(&report.delays));
    push(serde_json::to_string(&report.dns_response_times));
    push(serde_json::to_string(&report.answers_per_response));
    push(serde_json::to_string(&report.trace_start));
    push(serde_json::to_string(&report.trace_end));
    push(serde_json::to_string(&report.warmup_micros));
    out
}

/// The busiest FQDN of a report, ties broken by name — a deterministic
/// pick of a provenance target that every grid cell resolves identically.
fn busiest_fqdn(report: &SnifferReport) -> String {
    report
        .database
        .fqdn_flow_counts()
        .map(|(k, v)| (k.to_string(), v))
        .max_by(|(fa, na), (fb, nb)| na.cmp(nb).then_with(|| fb.cmp(fa)))
        .map(|(f, _)| f)
        .expect("workload produced labeled flows")
}

#[test]
fn tracing_changes_nothing_and_explains_identically_across_the_grid() {
    let profile = profiles::eu1_adsl1().scaled(0.1);
    let trace = TraceGenerator::new(profile, false).generate();
    assert!(trace.records.len() > 5_000, "trace too small");
    let config = SnifferConfig::default();
    let scfg = StreamingConfig {
        snapshot_interval_micros: 60 * 1_000_000,
        ..StreamingConfig::default()
    };

    // Reference: the sequential sniffer, traced — it pins the outputs the
    // grid must reproduce *and* the explain chain (stable events are
    // packet-timestamped, so one reference covers both traced and
    // untraced cells).
    let (reference_digest, reference_prom, reference_stream, reference_explain, target) = {
        let registry = Arc::new(telemetry::Registry::new());
        let _guard = telemetry::bind(registry.clone());
        let trace_set = telemetry::TraceSet::new();
        let _trace_guard = telemetry::trace_bind(&trace_set, telemetry::LaneKind::Driver, 0);
        let mut sniffer = RealTimeSniffer::new(config.clone());
        sniffer.set_sink(Box::new(StreamingAnalytics::new(scfg.clone())));
        for rec in &trace.records {
            sniffer.process_record(rec);
        }
        let (report, sinks) = sniffer.finish_with_sinks();
        assert!(report.sniffer_stats.tag_hits > 0, "no tags assigned");
        assert_eq!(dnhunter::note_trace_drops(&trace_set), 0);
        let streaming = StreamingAnalytics::fold(sinks).expect("sink returned");
        let target = dnhunter::parse_explain_target(&busiest_fqdn(&report))
            .expect("busiest FQDN parses as an explain target");
        let explain = telemetry::explain(&trace_set, &target);
        // The chain must actually chain: the target's own DNS events plus
        // the flow events joined through its bound servers.
        assert!(explain.contains("dns_response"), "{explain}");
        assert!(explain.contains("flow_open"), "{explain}");
        (
            digest(&report),
            telemetry::prometheus(&registry.snapshot(), false),
            streaming.render(),
            explain,
            target,
        )
    };

    for traced in [false, true] {
        for workers in [1usize, 2, 8] {
            let registry = Arc::new(telemetry::Registry::new());
            let _guard = telemetry::bind(registry.clone());
            let trace_set = traced.then(telemetry::TraceSet::new);
            let _trace_guard = trace_set
                .as_ref()
                .map(|set| telemetry::trace_bind(set, telemetry::LaneKind::Driver, 0));
            let mut sniffer = ParallelSniffer::with_sinks(config.clone(), workers, &mut |_| {
                Box::new(StreamingAnalytics::new(scfg.clone())) as Box<dyn FlowSink>
            });
            for rec in &trace.records {
                sniffer.process_record(rec);
            }
            let (report, sinks) = sniffer.finish_with_sinks();
            let cell = format!("traced={traced} workers={workers}");
            assert_eq!(digest(&report), reference_digest, "{cell}: report diverged");
            assert_eq!(
                telemetry::prometheus(&registry.snapshot(), false),
                reference_prom,
                "{cell}: stable metrics diverged"
            );
            let streaming = StreamingAnalytics::fold(sinks).expect("worker sinks returned");
            assert_eq!(
                streaming.render(),
                reference_stream,
                "{cell}: streaming analytics diverged"
            );
            if let Some(set) = &trace_set {
                assert_eq!(dnhunter::note_trace_drops(set), 0, "{cell}: rings wrapped");
                assert_eq!(
                    telemetry::explain(set, &target),
                    reference_explain,
                    "{cell}: explain chain diverged from the sequential one"
                );
            }
        }
    }
}
