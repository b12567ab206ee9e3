//! The parallel pipeline's headline guarantee: for any worker count the
//! merged [`SnifferReport`] is **equal**, field for field, to the sequential
//! sniffer's. Determinism is by construction — the dispatcher runs the
//! sequential sniffer's own front end and flow table, stamps every event
//! with its frame's global sequence number, and the merge sorts on
//! `(seq, phase)` — and these tests pin it on two inputs: a full seeded
//! simnet workload (DNS, TCP/TLS, UDP, port reuse, idle evictions, the
//! §5.1 delay accounting, all of it) and a hand-built frame sequence for
//! the corner cases of flow orientation and rotation.

use std::any::Any;
use std::net::{IpAddr, Ipv4Addr};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dnhunter::{
    DaemonDriver, FlowSink, ParallelSniffer, PipelineTimings, RealTimeSniffer, SnifferConfig,
    SnifferReport, TaggedFlow,
};
use dnhunter_dns::{codec, DnsMessage, QClass, QType, RData, ResourceRecord};
use dnhunter_flow::FlowTableConfig;
use dnhunter_net::{build_tcp_v4, build_udp_v4, MacAddr, PcapRecord, TcpFlags};
use dnhunter_resolver::shard_of;
use dnhunter_simnet::{profiles, TraceGenerator};
use dnhunter_telemetry::{self as telemetry, Metric};

/// Feed `frames` to the sequential sniffer and to the pipeline at 1, 2
/// and 8 workers, rotating at packet clock `clock` before frame `index`
/// for each `(index, clock)` of `rotations`. Asserts equal reports
/// and equal rotation horizons; returns the sequential report, its
/// horizons, and each pipeline run's timings.
fn assert_pipeline_matches_sequential(
    config: &SnifferConfig,
    frames: &[(u64, &[u8])],
    rotations: &[(usize, u64)],
) -> (SnifferReport, Vec<u64>, Vec<PipelineTimings>) {
    let rotations_before = |i: usize| rotations.iter().filter(move |(at, _)| *at == i);
    let mut sequential = RealTimeSniffer::new(config.clone());
    let mut horizons = Vec::new();
    for (i, &(ts, frame)) in frames.iter().enumerate() {
        for &(_, clock) in rotations_before(i) {
            horizons.push(sequential.rotate(clock).0);
        }
        sequential.process_frame(ts, frame);
    }
    let reference = sequential.finish();

    let mut timings = Vec::new();
    for workers in [1usize, 2, 8] {
        let mut parallel = ParallelSniffer::new(config.clone(), workers);
        let mut parallel_horizons = Vec::new();
        for (i, &(ts, frame)) in frames.iter().enumerate() {
            for &(_, clock) in rotations_before(i) {
                parallel_horizons.push(parallel.rotate(clock).0);
            }
            parallel.process_frame(ts, frame);
        }
        assert_eq!(
            parallel_horizons, horizons,
            "{workers}-worker rotation horizons diverged from the sequential ones"
        );
        let (report, run) = parallel.finish_with_timings();
        assert_eq!(run.workers, workers);
        assert_eq!(
            report, reference,
            "{workers}-worker report diverged from the sequential report"
        );
        timings.push(run);
    }
    (reference, horizons, timings)
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
    let frames: Vec<(u64, &[u8])> = trace
        .records
        .iter()
        .map(|rec| (rec.timestamp_micros(), rec.frame.as_slice()))
        .collect();
    let (reference, _, timings) =
        assert_pipeline_matches_sequential(&SnifferConfig::default(), &frames, &[]);

    // The workload must actually exercise tagging and flow accounting for
    // the byte-identity claim to mean anything.
    assert!(reference.database.len() > 50, "too few flows");
    assert!(
        reference.sniffer_stats.dns_responses > 50,
        "too few responses"
    );
    assert!(reference.sniffer_stats.tag_hits > 0, "no tags assigned");
    for run in timings {
        // The allocation diet must be visible: interning reuses far more
        // FQDN Arcs than it allocates on a workload with repeated lookups.
        assert!(
            run.intern.reused > run.intern.allocated,
            "interner should mostly reuse ({:?})",
            run.intern
        );
    }
}

const DNS_SERVER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);

fn dns_response(at: u64, client: Ipv4Addr, name: &str, server: Ipv4Addr) -> (u64, Vec<u8>) {
    let q = DnsMessage::query(1, name.parse().unwrap(), QType::A);
    let answer = ResourceRecord {
        name: name.parse().unwrap(),
        class: QClass::In,
        ttl: 300,
        rdata: RData::A(server),
    };
    let payload = codec::encode(&DnsMessage::answer_to(&q, vec![answer])).unwrap();
    let mac = MacAddr::from_id;
    let frame = build_udp_v4(mac(1), mac(2), DNS_SERVER, client, 53, 40000, &payload).unwrap();
    (at, frame)
}

fn tcp(
    at: u64,
    (src, sport): (Ipv4Addr, u16),
    (dst, dport): (Ipv4Addr, u16),
    flags: TcpFlags,
    payload: &[u8],
) -> (u64, Vec<u8>) {
    let mac = MacAddr::from_id;
    let frame = build_tcp_v4(mac(1), mac(2), src, dst, sport, dport, 1, 1, flags, payload);
    (at, frame.unwrap())
}

/// The cases the dispatcher once kept a per-flow mirror of the flow table
/// for, now run by the one flow table: a closed flow evicted after its
/// linger whose 5-tuple reopens server-first (re-oriented onto the other
/// endpoint's shard), a SYN reusing the ports of a terminated flow, and a
/// flow still live across a rotation that clamps the horizon.
#[test]
fn reoriented_reused_and_rotated_flows_match_sequential() {
    let server = Ipv4Addr::new(93, 184, 216, 34);
    // A client whose shard differs from the server's at 2 and 8 workers,
    // so re-orientation really moves the reopened flow.
    let client = (1..=254)
        .map(|i| Ipv4Addr::new(10, 0, 0, i))
        .find(|c| {
            [2, 8]
                .iter()
                .all(|&n| shard_of(IpAddr::V4(*c), n) != shard_of(IpAddr::V4(server), n))
        })
        .expect("some client shards apart from the server");
    let (a, b) = ((client, 50000), (server, 443));
    let (live_c, live_s) = ((client, 50100), (Ipv4Addr::new(198, 51, 100, 7), 443));
    let (reuse_c, reuse_s) = (
        (Ipv4Addr::new(10, 0, 1, 9), 51000),
        (Ipv4Addr::new(203, 0, 113, 80), 80),
    );
    let (syn, ack, fin) = (TcpFlags::SYN, TcpFlags::ACK, TcpFlags::FIN | TcpFlags::ACK);
    let data = TcpFlags::PSH | TcpFlags::ACK;
    let ms = |t: u64| t * 1_000;
    let owned = vec![
        dns_response(ms(1_000), client, "www.example.com", server),
        // The flow that stays live across the rotation below.
        tcp(ms(1_050), live_c, live_s, syn, &[]),
        // A full close: terminal at 1.5 s, evicted by the 2.05 s scan.
        tcp(ms(1_100), a, b, syn, &[]),
        tcp(ms(1_200), b, a, syn | ack, &[]),
        tcp(ms(1_300), a, b, data, b"\x16\x03\x01\x00\x05hello"),
        tcp(ms(1_400), b, a, data, b"\x16\x03\x03\x00\x02ok"),
        tcp(ms(1_450), a, b, fin, &[]),
        tcp(ms(1_500), b, a, fin, &[]),
        // Closed at 2.25 s, then a fresh SYN on the same ports inside the
        // linger: the old record finishes and a new one starts.
        tcp(ms(2_000), reuse_c, reuse_s, syn, &[]),
        tcp(ms(2_050), reuse_s, reuse_c, syn | ack, &[]),
        tcp(ms(2_100), reuse_c, reuse_s, ack, &[]),
        tcp(ms(2_200), reuse_c, reuse_s, fin, &[]),
        tcp(ms(2_250), reuse_s, reuse_c, fin, &[]),
        tcp(ms(2_300), reuse_c, reuse_s, syn, &[]),
        tcp(ms(2_350), reuse_s, reuse_c, syn | ack, &[]),
        // The evicted 5-tuple reopens with the server speaking first.
        tcp(ms(3_000), b, a, data, b"late"),
        tcp(ms(3_100), a, b, ack, &[]),
        dns_response(ms(3_500), reuse_c.0, "cdn.example.net", reuse_s.0),
        tcp(ms(3_600), (reuse_c.0, 51001), reuse_s, syn, &[]),
        tcp(ms(13_600), live_c, live_s, data, b"keepalive"),
    ];
    let frames: Vec<(u64, &[u8])> = owned.iter().map(|(t, f)| (*t, f.as_slice())).collect();
    let config = SnifferConfig {
        flow_table: FlowTableConfig {
            idle_timeout_micros: ms(20_000),
            eviction_interval_micros: ms(1_000),
            terminal_linger_micros: ms(500),
        },
        warmup_micros: 0,
        ..SnifferConfig::default()
    };
    let registry = Arc::new(telemetry::Registry::new());
    let _guard = telemetry::bind(Arc::clone(&registry));
    // Rotate before the first eviction scan: rotation drains the finished
    // flows, and both orientations must reach the final database.
    let rotations = [(9, ms(2_000))];
    let (reference, horizons, _) = assert_pipeline_matches_sequential(&config, &frames, &rotations);

    // Each case really ran: the reuse finished a record on a live 5-tuple,
    // the live flow held the horizon back, and both orientations of the
    // evicted 5-tuple reached the database.
    assert!(registry.snapshot().get(Metric::FlowSynReuse) >= 1);
    assert_eq!(horizons, [ms(1_050)]);
    let oriented = |(c, cp): (Ipv4Addr, u16), (s, sp): (Ipv4Addr, u16)| {
        reference.database.flows().iter().any(|f| {
            (
                f.key.client,
                f.key.client_port,
                f.key.server,
                f.key.server_port,
            ) == (IpAddr::V4(c), cp, IpAddr::V4(s), sp)
        })
    };
    assert!(
        oriented(a, b) && oriented(b, a),
        "5-tuple was not re-oriented"
    );
}

#[test]
fn parallel_sniffer_with_empty_input_matches_sequential() {
    let config = SnifferConfig::default();
    let reference = RealTimeSniffer::new(config.clone()).finish();
    let parallel = ParallelSniffer::new(config.clone(), 4).finish();
    assert_eq!(parallel, reference);
    // An absurd worker count clamps to the pipeline's fan-out cap instead
    // of spawning a thousand threads, and still merges to the empty report.
    let clamped = ParallelSniffer::new(config, 1000);
    assert_eq!(clamped.workers(), 64);
    assert_eq!(clamped.finish(), reference);
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
    let reference = sequential.finish();

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
    assert_eq!(parallel.finish(), reference);

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
