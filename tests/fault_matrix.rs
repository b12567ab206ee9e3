//! The fault matrix: every fault class × intensity cell must be survived
//! (no panic), *counted* (each class moves its dedicated stable telemetry
//! counter), and *deterministic* (the merged parallel report stays
//! byte-identical to the sequential one even on hostile, lossy input).
//! A separate test pins graceful degradation: the tagging hit ratio falls
//! monotonically as the DNS-response drop rate rises — the mechanism the
//! paper blames for the US-3G trace's ~75% hit ratio (§4.1, Tab. 3) —
//! and never rises. See DESIGN.md §10.
//!
//! `FAULT_MATRIX_FULL=1` (the nightly pipeline) raises the trace scales;
//! the PR gate runs the same assertions on smaller traces.

use std::io::Cursor;
use std::sync::Arc;

use dnhunter::{
    DaemonSniffer, FlowSink, FlowrecConfig, ParallelSniffer, RealTimeSniffer, Rotation,
    SnifferConfig, SnifferReport, StreamingAnalytics, StreamingConfig, WindowConfig,
    WindowedAnalytics,
};
use dnhunter_net::flowrec::encode_stream;
use dnhunter_net::{FlowRecReader, PcapFileSource, PcapRecord, PcapWriter};
use dnhunter_simnet::{flowexport, profiles, FaultPlan, TraceGenerator};
use dnhunter_telemetry as telemetry;
use telemetry::Metric;

/// Nightly (`FAULT_MATRIX_FULL=1`) multiplies every trace scale by 4.
fn scaled(base: f64) -> f64 {
    if std::env::var_os("FAULT_MATRIX_FULL").is_some() {
        base * 4.0
    } else {
        base
    }
}

/// Canonical serialization of everything a report contains (the
/// `pipeline_determinism` digest): equal digests mean equal reports,
/// field for field.
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

/// Run the sequential sniffer under a fresh telemetry registry *and* a
/// fresh flight recorder: every matrix cell also proves that, at the
/// default `TRACE_RING_CAP`, no fault class records fast enough to wrap a
/// ring — the dropped counter (and its metric) must stay zero.
fn run_sequential(records: &[PcapRecord]) -> (SnifferReport, telemetry::Snapshot) {
    let registry = Arc::new(telemetry::Registry::new());
    let _guard = telemetry::bind(registry.clone());
    let trace_set = telemetry::TraceSet::new();
    let _trace_guard = telemetry::trace_bind(&trace_set, telemetry::LaneKind::Driver, 0);
    let mut sniffer = RealTimeSniffer::new(SnifferConfig::default());
    for rec in records {
        sniffer.process_record(rec);
    }
    let report = sniffer.finish();
    assert_eq!(
        dnhunter::note_trace_drops(&trace_set),
        0,
        "sequential trace ring wrapped at default capacity"
    );
    let snap = registry.snapshot();
    assert_eq!(snap.get(Metric::TraceEventsDropped), 0);
    (report, snap)
}

/// Run the parallel sniffer under a fresh telemetry registry and flight
/// recorder (one lane per worker; see [`run_sequential`] on the zero-drop
/// guarantee).
fn run_parallel(records: &[PcapRecord], workers: usize) -> (SnifferReport, telemetry::Snapshot) {
    let registry = Arc::new(telemetry::Registry::new());
    let _guard = telemetry::bind(registry.clone());
    let trace_set = telemetry::TraceSet::new();
    let _trace_guard = telemetry::trace_bind(&trace_set, telemetry::LaneKind::Driver, 0);
    let mut sniffer = ParallelSniffer::new(SnifferConfig::default(), workers);
    for rec in records {
        sniffer.process_record(rec);
    }
    let report = sniffer.finish();
    assert_eq!(
        dnhunter::note_trace_drops(&trace_set),
        0,
        "{workers}-worker trace rings wrapped at default capacity"
    );
    let snap = registry.snapshot();
    assert_eq!(snap.get(Metric::TraceEventsDropped), 0);
    (report, snap)
}

/// One fault class of the matrix: a name, a plan builder parameterised by
/// intensity, and the dedicated stable counters that must move.
struct FaultClass {
    name: &'static str,
    plan: fn(f64) -> FaultPlan,
    /// Counters this class must increment (all of them).
    counters: &'static [Metric],
}

const CLASSES: &[FaultClass] = &[
    FaultClass {
        name: "drop",
        plan: |rate| FaultPlan {
            drop_rate: rate,
            ..FaultPlan::default()
        },
        // A dropped mid-flow segment leaves a hole the next segment's
        // sequence number exposes.
        counters: &[Metric::TcpSeqGap],
    },
    FaultClass {
        name: "dns-response-drop",
        plan: |rate| FaultPlan {
            dns_response_drop_rate: rate,
            ..FaultPlan::default()
        },
        // Absence is not frame-observable; this class is asserted via the
        // monotone hit-ratio test below instead of a counter.
        counters: &[],
    },
    FaultClass {
        name: "duplicate",
        plan: |rate| FaultPlan {
            duplicate_rate: rate,
            ..FaultPlan::default()
        },
        counters: &[Metric::TcpSeqRewind],
    },
    FaultClass {
        name: "reorder",
        plan: |rate| FaultPlan {
            reorder_rate: rate,
            ..FaultPlan::default()
        },
        // A swap shows up as a gap (early segment) then a rewind (the
        // late one).
        counters: &[Metric::TcpSeqGap, Metric::TcpSeqRewind],
    },
    FaultClass {
        name: "truncate",
        plan: |rate| FaultPlan {
            truncate_rate: rate,
            ..FaultPlan::default()
        },
        counters: &[Metric::NetFramesTruncated],
    },
    FaultClass {
        name: "corrupt",
        plan: |rate| FaultPlan {
            corrupt_rate: rate,
            ..FaultPlan::default()
        },
        counters: &[Metric::NetChecksumErrors],
    },
    FaultClass {
        name: "midstream-start",
        plan: |rate| FaultPlan {
            // Both faces of a mid-stream start: a wall-clock cut off the
            // front of the capture (intensity = fraction of an hour), and
            // per-flow SYN stripping so data segments arrive orphaned.
            midstream_cut_micros: (rate * 3_600_000_000.0) as u64,
            syn_strip_rate: rate,
            ..FaultPlan::default()
        },
        counters: &[Metric::FlowMidstreamStarts],
    },
    FaultClass {
        name: "malicious-dns",
        plan: |rate| FaultPlan {
            malicious_rate: rate,
            ..FaultPlan::default()
        },
        counters: &[Metric::DnsDecodeErrors],
    },
];

#[test]
fn every_fault_cell_is_counted_and_deterministic() {
    let profile = profiles::eu1_adsl1().scaled(scaled(0.05));
    let trace = TraceGenerator::new(profile, false).generate();
    assert!(trace.records.len() > 1_000, "trace too small");

    for class in CLASSES {
        for intensity in [0.08, 0.3] {
            let plan = (class.plan)(intensity);
            let (records, stats) = plan.apply(&trace.records);
            assert!(
                stats.total() > 0,
                "{} @ {intensity}: plan inflicted nothing",
                class.name
            );

            // Survive + count, sequentially.
            let (report, snap) = run_sequential(&records);
            for &metric in class.counters {
                assert!(
                    snap.get(metric) > 0,
                    "{} @ {intensity}: {} never moved",
                    class.name,
                    metric.info().name
                );
            }
            // Whatever happened, the pipeline still ingested every frame
            // it was given and the report is internally consistent.
            assert_eq!(report.sniffer_stats.frames, records.len() as u64);
            assert!(report.sniffer_stats.tag_attempts >= report.sniffer_stats.tag_hits);

            // Same digest and same stable exposition for any worker count.
            let reference_digest = digest(&report);
            let reference_prom = telemetry::prometheus(&snap, false);
            for workers in [1usize, 2, 8] {
                let (preport, psnap) = run_parallel(&records, workers);
                assert_eq!(
                    digest(&preport),
                    reference_digest,
                    "{} @ {intensity}: {workers}-worker report diverged",
                    class.name
                );
                assert_eq!(
                    telemetry::prometheus(&psnap, false),
                    reference_prom,
                    "{} @ {intensity}: {workers}-worker stable metrics diverged",
                    class.name
                );
            }
        }
    }
}

#[test]
fn combined_fault_storm_is_survived_on_every_profile() {
    // All classes at once, on a small slice of every paper profile: the
    // pure no-panic sweep of the matrix.
    for profile in profiles::all_paper_profiles() {
        let name = profile.name.clone();
        let trace = TraceGenerator::new(profile.scaled(scaled(0.02)), false).generate();
        let plan = FaultPlan {
            drop_rate: 0.05,
            dns_response_drop_rate: 0.2,
            duplicate_rate: 0.05,
            reorder_rate: 0.05,
            truncate_rate: 0.03,
            corrupt_rate: 0.03,
            midstream_cut_micros: 600_000_000,
            malicious_rate: 0.02,
            ..FaultPlan::default()
        };
        let (records, stats) = plan.apply(&trace.records);
        assert!(stats.total() > 0, "{name}: storm inflicted nothing");
        let (report, snap) = run_sequential(&records);
        assert_eq!(report.sniffer_stats.frames, records.len() as u64);
        // The storm must be visible across the whole taxonomy at once.
        for metric in [
            Metric::NetFramesTruncated,
            Metric::NetChecksumErrors,
            Metric::TcpSeqGap,
            Metric::TcpSeqRewind,
            Metric::FlowMidstreamStarts,
            Metric::DnsDecodeErrors,
        ] {
            assert!(
                snap.get(metric) > 0,
                "{name}: {} never moved under the storm",
                metric.info().name
            );
        }
        // And the faulted stream still tags flows — degraded, not dead.
        assert!(report.sniffer_stats.tag_hits > 0, "{name}: tagging died");
    }
}

#[test]
fn hit_ratio_degrades_monotonically_with_dns_loss() {
    let profile = profiles::eu1_adsl1().scaled(scaled(0.15));
    let trace = TraceGenerator::new(profile, false).generate();

    let mut ratios = Vec::new();
    let mut attempts = Vec::new();
    for rate in [0.0, 0.35, 0.7, 0.95] {
        let plan = FaultPlan {
            dns_response_drop_rate: rate,
            ..FaultPlan::default()
        };
        let (records, _) = plan.apply(&trace.records);
        let (report, _) = run_sequential(&records);
        let s = &report.sniffer_stats;
        assert!(s.tag_attempts > 0, "rate {rate}: no tag attempts");
        ratios.push(s.tag_hits as f64 / s.tag_attempts as f64);
        attempts.push(s.tag_attempts);
    }
    // Dropping responses removes bindings, never flows: the denominator
    // is untouched while the numerator can only shrink.
    assert!(
        attempts.windows(2).all(|w| w[0] == w[1]),
        "tag attempts moved with DNS loss: {attempts:?}"
    );
    // Nested fault sets (same seed) make degradation *exactly* monotone,
    // not just statistically so.
    assert!(
        ratios.windows(2).all(|w| w[0] >= w[1]),
        "hit ratio rose under rising DNS loss: {ratios:?}"
    );
    // The paper's 3G-vs-ADSL gap (Tab. 3): heavy response loss costs well
    // over ten points of hit ratio.
    assert!(
        ratios[0] - ratios[3] > 0.1,
        "expected a >10pt drop, got {ratios:?}"
    );
    println!("hit ratio vs dns-response drop rate: {ratios:?}");
}

#[test]
fn streaming_analytics_degrade_monotonically_with_dns_loss() {
    // The streaming sink under the same nested DNS-response-drop fault
    // sets: it must survive every rate (panic-free), its label-dependent
    // counters can only shrink as more responses disappear, its flow count
    // must not move (drops remove bindings, never flows), and the 2-worker
    // fold must stay byte-identical to the sequential render throughout.
    let profile = profiles::eu1_adsl1().scaled(scaled(0.1));
    let trace = TraceGenerator::new(profile, false).generate();
    let cfg = StreamingConfig {
        snapshot_interval_micros: 60 * 1_000_000,
        ..StreamingConfig::default()
    };

    let mut flows = Vec::new();
    let mut labeled = Vec::new();
    let mut answered = Vec::new();
    for rate in [0.0, 0.35, 0.7, 0.95] {
        let plan = FaultPlan {
            dns_response_drop_rate: rate,
            ..FaultPlan::default()
        };
        let (records, _) = plan.apply(&trace.records);

        let mut sniffer = RealTimeSniffer::new(SnifferConfig::default());
        sniffer.set_sink(Box::new(StreamingAnalytics::new(cfg.clone())));
        for rec in &records {
            sniffer.process_record(rec);
        }
        let (_, sinks) = sniffer.finish_with_sinks();
        let streaming = StreamingAnalytics::fold(sinks).expect("sequential sink returned");

        let mut parallel = ParallelSniffer::with_sinks(SnifferConfig::default(), 2, &mut |_| {
            Box::new(StreamingAnalytics::new(cfg.clone())) as Box<dyn FlowSink>
        });
        for rec in &records {
            parallel.process_record(rec);
        }
        let (_, psinks) = parallel.finish_with_sinks();
        let pstreaming = StreamingAnalytics::fold(psinks).expect("worker sinks returned");
        assert_eq!(
            pstreaming.render(),
            streaming.render(),
            "rate {rate}: 2-worker streaming output diverged"
        );

        flows.push(streaming.flows());
        labeled.push(streaming.labeled_flows());
        answered.push(streaming.answered_responses());
    }
    assert!(
        flows.windows(2).all(|w| w[0] == w[1]),
        "streaming flow count moved with DNS loss: {flows:?}"
    );
    assert!(
        labeled.windows(2).all(|w| w[0] >= w[1]),
        "streaming labeled flows rose under rising DNS loss: {labeled:?}"
    );
    assert!(
        answered.windows(2).all(|w| w[0] >= w[1]),
        "streaming answered responses rose under rising DNS loss: {answered:?}"
    );
    assert!(
        labeled[0] > labeled[3],
        "heavy DNS loss left labeled flows untouched: {labeled:?}"
    );
    println!("streaming labeled flows vs dns-response drop rate: {labeled:?}");
}

// --------------------------------------------------------------- windowed

/// The windowed cells run 30-minute windows stepping every 10 minutes, so
/// every render sweeps through merge *and* retraction at each position.
fn window_cfg() -> WindowConfig {
    WindowConfig::new(30 * 60 * 1_000_000, 10 * 60 * 1_000_000)
}

/// Sequential windowed run under a fresh registry. The render happens
/// *inside* the registry binding: retraction underflows are counted during
/// the window sweep, and the returned snapshot must show zero.
fn run_windowed_sequential(
    records: &[PcapRecord],
) -> (WindowedAnalytics, String, telemetry::Snapshot) {
    let registry = Arc::new(telemetry::Registry::new());
    let _guard = telemetry::bind(registry.clone());
    let mut sniffer = RealTimeSniffer::new(SnifferConfig::default());
    sniffer.set_sink(Box::new(WindowedAnalytics::new(window_cfg())));
    for rec in records {
        sniffer.process_record(rec);
    }
    let (_, sinks) = sniffer.finish_with_sinks();
    let windowed = WindowedAnalytics::fold(sinks).expect("sequential windowed sink returned");
    let render = windowed.render();
    (windowed, render, registry.snapshot())
}

/// Windowed run through the sharded pipeline at `workers` shards, under a
/// fresh registry, returning the folded render and the snapshot.
fn run_windowed_sharded(
    records: &[PcapRecord],
    workers: usize,
) -> (WindowedAnalytics, String, telemetry::Snapshot) {
    let registry = Arc::new(telemetry::Registry::new());
    let _guard = telemetry::bind(registry.clone());
    let mut sniffer = ParallelSniffer::with_sinks(SnifferConfig::default(), workers, &mut |_| {
        Box::new(WindowedAnalytics::new(window_cfg())) as Box<dyn FlowSink>
    });
    for rec in records {
        sniffer.process_record(rec);
    }
    let (_, sinks) = sniffer.finish_with_sinks();
    assert_eq!(sinks.len(), workers, "one windowed partial per worker");
    let windowed = WindowedAnalytics::fold(sinks).expect("worker sinks returned");
    let render = windowed.render();
    (windowed, render, registry.snapshot())
}

#[test]
fn windowed_fault_cells_survive_and_retract_cleanly() {
    // Every fault class × intensity with windowing enabled: the sweep must
    // survive, never underflow a retraction (the counter is an invariant
    // breach detector, pinned to zero), never hit the bucket cap, and the
    // sharded pipeline must reproduce the sequential render byte for byte.
    let profile = profiles::eu1_adsl1().scaled(scaled(0.04));
    let trace = TraceGenerator::new(profile, false).generate();

    for class in CLASSES {
        for intensity in [0.08, 0.3] {
            let plan = (class.plan)(intensity);
            let (records, stats) = plan.apply(&trace.records);
            assert!(
                stats.total() > 0,
                "{} @ {intensity}: plan inflicted nothing",
                class.name
            );

            let (windowed, render, snap) = run_windowed_sequential(&records);
            assert_eq!(
                snap.get(Metric::WindowRetractUnderflow),
                0,
                "{} @ {intensity}: a retraction underflowed",
                class.name
            );
            assert_eq!(
                windowed.dropped_bucket_events(),
                0,
                "{} @ {intensity}: bucket cap engaged",
                class.name
            );
            assert!(
                render.lines().count() > 1,
                "{} @ {intensity}: no window lines emitted",
                class.name
            );

            let (shard, srender, ssnap) = run_windowed_sharded(&records, 2);
            assert_eq!(
                srender, render,
                "{} @ {intensity}: 2-worker windowed output diverged",
                class.name
            );
            assert_eq!(ssnap.get(Metric::WindowRetractUnderflow), 0);
            assert_eq!(shard.dropped_bucket_events(), 0);
        }
    }
}

#[test]
fn windowed_storm_renders_identically_at_any_worker_count() {
    // The full storm at 1/2/8 workers, all byte-identical.
    let profile = profiles::eu1_adsl1().scaled(scaled(0.05));
    let trace = TraceGenerator::new(profile, false).generate();
    let plan = FaultPlan {
        drop_rate: 0.05,
        dns_response_drop_rate: 0.2,
        duplicate_rate: 0.05,
        reorder_rate: 0.05,
        truncate_rate: 0.03,
        corrupt_rate: 0.03,
        midstream_cut_micros: 600_000_000,
        malicious_rate: 0.02,
        ..FaultPlan::default()
    };
    let (records, stats) = plan.apply(&trace.records);
    assert!(stats.total() > 0, "storm inflicted nothing");

    let (_, reference, snap) = run_windowed_sequential(&records);
    assert_eq!(snap.get(Metric::WindowRetractUnderflow), 0);
    for workers in [1usize, 2, 8] {
        let (windowed, render, snap) = run_windowed_sharded(&records, workers);
        assert_eq!(
            render, reference,
            "{workers}-worker windowed storm output diverged"
        );
        assert_eq!(
            snap.get(Metric::WindowRetractUnderflow),
            0,
            "{workers} workers: a retraction underflowed"
        );
        assert_eq!(windowed.dropped_bucket_events(), 0);
    }
}

#[test]
fn windowed_storm_is_survived_on_every_profile() {
    // The no-panic sweep of the matrix with windowing enabled, on a slice
    // of every paper profile plus the rotating-mix stressor.
    let mut all = profiles::all_paper_profiles();
    all.push(profiles::shifting_mix());
    for profile in all {
        let name = profile.name.clone();
        let trace = TraceGenerator::new(profile.scaled(scaled(0.02)), false).generate();
        let plan = FaultPlan {
            drop_rate: 0.05,
            dns_response_drop_rate: 0.2,
            duplicate_rate: 0.05,
            reorder_rate: 0.05,
            truncate_rate: 0.03,
            corrupt_rate: 0.03,
            midstream_cut_micros: 600_000_000,
            malicious_rate: 0.02,
            ..FaultPlan::default()
        };
        let (records, stats) = plan.apply(&trace.records);
        assert!(stats.total() > 0, "{name}: storm inflicted nothing");
        let (windowed, render, snap) = run_windowed_sequential(&records);
        assert_eq!(
            snap.get(Metric::WindowRetractUnderflow),
            0,
            "{name}: a retraction underflowed under the storm"
        );
        assert_eq!(windowed.dropped_bucket_events(), 0, "{name}");
        assert!(render.lines().count() > 1, "{name}: no window lines");
        // Degraded, not dead: the windowed totals still contain labels.
        assert!(
            windowed.totals().labeled_flows() > 0,
            "{name}: windowed tagging died under the storm"
        );
    }
}

// --------------------------------------------------------------- rotation

/// Run the faulted records through the daemon loop with rotation enabled,
/// returning the rotated JSONL and the snapshot. Retire-and-emit replaces
/// the bucket-cap overflow drop, so `dropped_bucket_events` must be zero in
/// every cell regardless of fault class.
fn run_rotated(records: &[PcapRecord], workers: usize) -> (String, telemetry::Snapshot) {
    let registry = Arc::new(telemetry::Registry::new());
    let _guard = telemetry::bind(registry.clone());
    let mut writer = PcapWriter::new(Vec::new()).expect("header writes");
    for rec in records {
        writer.write_record(rec).expect("record writes");
    }
    let bytes = writer.into_inner().expect("flushes");

    let mut sniffer = if workers > 1 {
        DaemonSniffer::Par(Box::new(ParallelSniffer::with_sinks(
            SnifferConfig::default(),
            workers,
            &mut |_| Box::new(WindowedAnalytics::new(window_cfg())) as Box<dyn FlowSink>,
        )))
    } else {
        let mut s = RealTimeSniffer::new(SnifferConfig::default());
        s.set_sink(Box::new(WindowedAnalytics::new(window_cfg())));
        DaemonSniffer::Seq(Box::new(s))
    };
    let mut rotation = Rotation::new(10 * 60 * 1_000_000, window_cfg());
    let mut source = PcapFileSource::new(Cursor::new(&bytes)).expect("valid pcap");
    dnhunter::run_frame_daemon(&mut source, &mut sniffer, Some(&mut rotation), |_| {})
        .expect("daemon loop survives the fault cell");
    let (_, sinks) = sniffer.finish_with_sinks();
    let rotations = rotation.rotations;
    assert!(rotations > 0, "no rotation fired in a fault cell");
    (
        rotation.emitter.finish(rotations, sinks),
        registry.snapshot(),
    )
}

#[test]
fn rotated_fault_cells_retire_and_emit_without_drops() {
    // Every fault class × intensity through the rotating daemon: rotation
    // must retire-and-emit (never engage the bucket-cap drop), retraction
    // must stay clean, and the 2-worker rotated output must reproduce the
    // sequential one byte for byte even on hostile input.
    let profile = profiles::eu1_adsl1().scaled(scaled(0.04));
    let trace = TraceGenerator::new(profile, false).generate();

    for class in CLASSES {
        for intensity in [0.08, 0.3] {
            let plan = (class.plan)(intensity);
            let (records, stats) = plan.apply(&trace.records);
            assert!(
                stats.total() > 0,
                "{} @ {intensity}: plan inflicted nothing",
                class.name
            );

            let (out, snap) = run_rotated(&records, 1);
            assert!(
                out.ends_with("\"dropped_bucket_events\":0}\n"),
                "{} @ {intensity}: rotation dropped bucket events:\n{}",
                class.name,
                out.lines().last().unwrap_or("")
            );
            assert_eq!(
                snap.get(Metric::WindowRetractUnderflow),
                0,
                "{} @ {intensity}: a retraction underflowed under rotation",
                class.name
            );
            assert!(snap.get(Metric::DaemonRotations) > 0);
            assert!(snap.get(Metric::WindowBucketsRetired) > 0);

            let (pout, psnap) = run_rotated(&records, 2);
            assert_eq!(
                pout, out,
                "{} @ {intensity}: 2-worker rotated output diverged",
                class.name
            );
            assert_eq!(psnap.get(Metric::WindowRetractUnderflow), 0);
        }
    }
}

// --------------------------------------------------------------- flowrec

/// Run an encoded DNFR stream through the flow-record daemon, returning
/// the stats, the report, and the snapshot.
fn run_flowrec(
    bytes: &[u8],
    cfg: &FlowrecConfig,
) -> (dnhunter::FlowrecStats, SnifferReport, telemetry::Snapshot) {
    let registry = Arc::new(telemetry::Registry::new());
    let _guard = telemetry::bind(registry.clone());
    let mut sniffer = RealTimeSniffer::new(SnifferConfig::default());
    let mut reader = FlowRecReader::new(Cursor::new(bytes)).expect("valid header");
    let stats = dnhunter::run_flowrec_daemon(&mut reader, &mut sniffer, cfg, None)
        .expect("flow-record stream ingests");
    (stats, sniffer.finish(), registry.snapshot())
}

#[test]
fn flowrec_skew_and_reorder_cells_are_counted_and_survived() {
    // The flow-record regime under seeded export skew/reorder (the
    // flowexport jitter model): DNS must still tag flows through the
    // reorder buffer, a too-tight skew bound shows up on the late-records
    // counter, capacity pressure shows up on the skew-overflow counter, and
    // nothing ever panics.
    let profile = profiles::eu1_adsl1().scaled(scaled(0.04));
    let trace = TraceGenerator::new(profile, false).generate();
    let stream = flowexport::export_stream(&trace.records, 7, 53);
    assert!(stream.len() > 500, "export stream too small");
    let bytes = encode_stream(&stream);

    // Generous skew, generous capacity: clean correlation, zero faults.
    let roomy = FlowrecConfig::default();
    let (stats, report, snap) = run_flowrec(&bytes, &roomy);
    assert_eq!(stats.skew_overflow, 0, "clean stream counted skew overflow");
    assert_eq!(stats.late_records, 0, "clean stream counted late records");
    assert_eq!(
        stats.dns_records + stats.flow_records,
        stream.len() as u64,
        "records lost in the reorder buffer"
    );
    assert!(
        report.sniffer_stats.tag_hits > 0,
        "flow-record regime tagged nothing"
    );
    assert_eq!(snap.get(Metric::FlowrecSkewOverflow), 0);

    // Skew bound tighter than the export jitter: late releases, counted,
    // still ingested in full.
    let tight = FlowrecConfig {
        skew_micros: 50_000,
        ..FlowrecConfig::default()
    };
    let (stats, report, snap) = run_flowrec(&bytes, &tight);
    assert!(
        stats.late_records > 0,
        "sub-jitter skew bound never saw a late record"
    );
    assert!(snap.get(Metric::FlowrecLateRecords) > 0);
    assert_eq!(stats.dns_records + stats.flow_records, stream.len() as u64);
    assert!(report.sniffer_stats.tag_hits > 0, "tagging died under skew");

    // Capacity pressure: forced early releases, counted as skew overflow.
    let cramped = FlowrecConfig {
        capacity: 8,
        ..FlowrecConfig::default()
    };
    let (stats, _, snap) = run_flowrec(&bytes, &cramped);
    assert!(
        stats.skew_overflow > 0,
        "8-slot reorder buffer never overflowed"
    );
    assert!(snap.get(Metric::FlowrecSkewOverflow) > 0);
    assert_eq!(stats.dns_records + stats.flow_records, stream.len() as u64);
}

#[test]
fn flowrec_decode_faults_error_cleanly_mid_stream() {
    // Truncation and corruption of the export stream surface as counted
    // errors after a clean partial ingest — never as panics.
    let profile = profiles::eu1_adsl1().scaled(scaled(0.02));
    let trace = TraceGenerator::new(profile, false).generate();
    let stream = flowexport::export_stream(&trace.records, 7, 53);
    let bytes = encode_stream(&stream);

    for (name, mutate) in [
        ("truncate", {
            fn cut(b: &[u8]) -> Vec<u8> {
                b[..b.len() * 2 / 3 + 3].to_vec()
            }
            cut as fn(&[u8]) -> Vec<u8>
        }),
        ("corrupt", {
            fn flip(b: &[u8]) -> Vec<u8> {
                let mut v = b.to_vec();
                let mid = v.len() / 2;
                // A long 0xff run is guaranteed to cross a record boundary,
                // where it reads as an invalid type or oversize length.
                let end = (mid + 4096).min(v.len());
                for byte in &mut v[mid..end] {
                    *byte = 0xff;
                }
                v
            }
            flip as fn(&[u8]) -> Vec<u8>
        }),
    ] {
        let registry = Arc::new(telemetry::Registry::new());
        let _guard = telemetry::bind(registry.clone());
        let mangled = mutate(&bytes);
        let mut sniffer = RealTimeSniffer::new(SnifferConfig::default());
        let mut reader = FlowRecReader::new(Cursor::new(&mangled)).expect("header intact");
        let result = dnhunter::run_flowrec_daemon(
            &mut reader,
            &mut sniffer,
            &FlowrecConfig::default(),
            None,
        );
        assert!(result.is_err(), "{name}: mangled stream decoded cleanly");
        assert!(
            registry.snapshot().get(Metric::FlowrecDecodeErrors) > 0,
            "{name}: decode error was not counted"
        );
        // The sniffer survives the partial ingest and still finishes.
        let _ = sniffer.finish();
    }
}

#[test]
fn windowed_hit_ratio_degrades_monotonically_with_dns_loss() {
    // The windowed aggregate under nested DNS-response-drop fault sets:
    // same monotone-degradation law the flat sink obeys, read off
    // `totals()` — and retraction stays clean at every loss rate.
    let profile = profiles::eu1_adsl1().scaled(scaled(0.08));
    let trace = TraceGenerator::new(profile, false).generate();

    let mut flows = Vec::new();
    let mut labeled = Vec::new();
    for rate in [0.0, 0.35, 0.7, 0.95] {
        let plan = FaultPlan {
            dns_response_drop_rate: rate,
            ..FaultPlan::default()
        };
        let (records, _) = plan.apply(&trace.records);
        let (windowed, _, snap) = run_windowed_sequential(&records);
        assert_eq!(
            snap.get(Metric::WindowRetractUnderflow),
            0,
            "rate {rate}: a retraction underflowed"
        );
        let totals = windowed.totals();
        flows.push(totals.flows());
        labeled.push(totals.labeled_flows());
    }
    // Dropping responses removes labels, never flows.
    assert!(
        flows.windows(2).all(|w| w[0] == w[1]),
        "windowed flow count moved with DNS loss: {flows:?}"
    );
    assert!(
        labeled.windows(2).all(|w| w[0] >= w[1]),
        "windowed labeled flows rose under rising DNS loss: {labeled:?}"
    );
    assert!(
        labeled[0] > labeled[3],
        "heavy DNS loss left windowed labels untouched: {labeled:?}"
    );
    println!("windowed labeled flows vs dns-response drop rate: {labeled:?}");
}
