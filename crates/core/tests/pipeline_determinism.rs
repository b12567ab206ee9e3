//! The parallel pipeline's headline guarantee: for any worker count the
//! merged [`SnifferReport`] is **byte-identical** to the sequential
//! sniffer's. Determinism is by construction — global sequence numbers,
//! dispatcher-broadcast eviction ticks, `(seq, phase)`-ordered merge —
//! and these tests pin it against a full seeded simnet workload (DNS,
//! TCP/TLS, UDP, port reuse, idle evictions, the §5.1 delay accounting,
//! all of it).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dnhunter::{
    FlowSink, ParallelSniffer, RealTimeSniffer, SnifferConfig, SnifferReport, TaggedFlow,
};
use dnhunter_net::PcapRecord;
use dnhunter_simnet::{profiles, TraceGenerator};
use dnhunter_telemetry::{self as telemetry, Metric};

/// Canonical serialization of everything a report contains. Two reports
/// with equal digests are equal field-for-field, including database row
/// order and every delay/time-series sample.
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

#[test]
fn parallel_report_is_byte_identical_to_sequential() {
    let profile = profiles::eu1_adsl1().scaled(0.2);
    let trace = TraceGenerator::new(profile, false).generate();
    assert!(
        trace.records.len() > 5_000,
        "trace too small ({} frames) to exercise the pipeline",
        trace.records.len()
    );

    let config = SnifferConfig::default();

    let mut sequential = RealTimeSniffer::new(config.clone());
    for rec in &trace.records {
        sequential.process_record(rec);
    }
    let reference = sequential.finish();
    let reference_digest = digest(&reference);

    // The workload must actually exercise tagging and flow accounting for
    // the byte-identity claim to mean anything.
    assert!(reference.database.len() > 50, "too few flows");
    assert!(
        reference.sniffer_stats.dns_responses > 50,
        "too few responses"
    );
    assert!(reference.sniffer_stats.tag_hits > 0, "no tags assigned");

    for workers in [1usize, 2, 8] {
        let mut parallel = ParallelSniffer::new(config.clone(), workers);
        for rec in &trace.records {
            parallel.process_record(rec);
        }
        let (report, timings) = parallel.finish_with_timings();
        assert_eq!(timings.workers, workers);
        assert_eq!(
            digest(&report),
            reference_digest,
            "{workers}-worker report diverged from the sequential report"
        );
        // The allocation diet must be visible: interning reuses far more
        // FQDN Arcs than it allocates on a workload with repeated lookups.
        assert!(
            timings.intern.reused > timings.intern.allocated,
            "interner should mostly reuse ({:?})",
            timings.intern
        );
    }
}

#[test]
fn parallel_sniffer_with_empty_input_matches_sequential() {
    let config = SnifferConfig::default();
    let reference = RealTimeSniffer::new(config.clone()).finish();
    let parallel = ParallelSniffer::new(config.clone(), 4).finish();
    assert_eq!(digest(&parallel), digest(&reference));
    // An absurd worker count clamps to the pipeline's fan-out cap instead
    // of spawning a thousand threads, and still merges to the empty report.
    let clamped = ParallelSniffer::new(config, 1000);
    assert_eq!(clamped.workers(), 64);
    assert_eq!(digest(&clamped.finish()), digest(&reference));
}

/// A sink that reacts to finished flows only — the hook the channel tests
/// use to stall, kill or observe a worker from inside its thread.
struct OnFlowFinished<F>(F);

impl<F: FnMut() + Send + 'static> FlowSink for OnFlowFinished<F> {
    fn on_trace_start(&mut self, _ts: u64) {}
    fn on_answered_response(&mut self, _ts: u64) {}
    fn on_first_flow_delay(&mut self, _ts: u64, _delay_micros: u64) {}
    fn on_any_flow_delay(&mut self, _ts: u64, _delay_micros: u64) {}
    fn on_flow_finished(&mut self, _flow: &TaggedFlow) {
        (self.0)()
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

fn small_trace() -> Vec<PcapRecord> {
    let profile = profiles::eu1_adsl1().scaled(0.02);
    let records = TraceGenerator::new(profile, false).generate().records;
    assert!(records.len() > 5_000, "trace too small: {}", records.len());
    records
}

#[test]
fn backpressure_stalls_the_dispatcher_without_changing_the_report() {
    let records = small_trace();
    let config = SnifferConfig::default();
    let mut sequential = RealTimeSniffer::new(config.clone());
    for rec in &records {
        sequential.process_record(rec);
    }
    let reference_digest = digest(&sequential.finish());

    let registry = Arc::new(telemetry::Registry::new());
    let _guard = telemetry::bind(Arc::clone(&registry));
    // Each worker parks at its first finished flow until the dispatcher
    // has run into a full channel: the interleaving under test is forced,
    // not hoped for. The deadline only turns a hang into a failed assert.
    let mut make_sink = |_shard: usize| -> Box<dyn FlowSink> {
        let registry = Arc::clone(&registry);
        let mut parked = false;
        Box::new(OnFlowFinished(move || {
            if std::mem::replace(&mut parked, true) {
                return;
            }
            let deadline = Instant::now() + Duration::from_secs(20);
            while registry.snapshot().get(Metric::PipelineSendStalls) == 0
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }))
    };
    let mut parallel = ParallelSniffer::with_sinks(config, 2, &mut make_sink);
    for rec in &records {
        parallel.process_record(rec);
    }
    assert_eq!(digest(&parallel.finish()), reference_digest);

    let snap = registry.snapshot();
    assert!(
        snap.get(Metric::PipelineSendStalls) >= 1,
        "channel never filled"
    );
    let occupancy = snap.hist(Metric::RingOccupancy).expect("histogram metric");
    assert_eq!(occupancy.count, snap.get(Metric::PipelineBatchesSent));
}

#[test]
fn worker_panic_is_reraised_by_finish() {
    let records = small_trace();
    let mut make_sink = |_shard: usize| -> Box<dyn FlowSink> {
        Box::new(OnFlowFinished(|| panic!("sink failed on its first flow")))
    };
    let mut sniffer = ParallelSniffer::with_sinks(SnifferConfig::default(), 2, &mut make_sink);
    for rec in &records {
        sniffer.process_record(rec);
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| sniffer.finish()));
    assert!(outcome.is_err(), "a shard's flows went missing silently");
}

#[test]
fn dropping_the_sniffer_mid_run_winds_the_workers_down() {
    let records = small_trace();
    // Every sink holds a sender; the receiver disconnects only once every
    // worker has drained its queue, flushed its engine and exited.
    let (alive_tx, alive_rx) = mpsc::channel::<()>();
    let mut make_sink = |_shard: usize| -> Box<dyn FlowSink> {
        let alive = alive_tx.clone();
        Box::new(OnFlowFinished(move || {
            let _ = &alive;
            std::thread::sleep(Duration::from_micros(200));
        }))
    };
    let mut sniffer = ParallelSniffer::with_sinks(SnifferConfig::default(), 2, &mut make_sink);
    drop(alive_tx);
    for rec in &records {
        sniffer.process_record(rec);
    }
    drop(sniffer); // frames still queued, `finish` never called
    assert_eq!(
        alive_rx.recv_timeout(Duration::from_secs(20)),
        Err(mpsc::RecvTimeoutError::Disconnected),
        "workers still running after the dispatcher dropped its channels"
    );
}
