//! The adapter to the system under test: the only file of the benchmark
//! that names `dnhunter*` items. It builds the seeded traces, constructs
//! and drives each driver for the end-to-end reps, and feeds each layer's
//! public entry point for the ledger. Everything it needs from the rest of
//! the benchmark (clocks, spans, replay, statistics) is program-agnostic,
//! so a change to the program's public API is corrected here alone.

use std::any::Any;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Read;
use std::net::IpAddr;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

use dnhunter::{
    run_flowrec_daemon, run_frame_daemon, DaemonSniffer, FlowSink, FlowrecConfig, ParallelSniffer,
    RealTimeSniffer, Rotation, SnifferConfig, SnifferReport, StreamingAnalytics, StreamingConfig,
    TaggedFlow, WindowConfig, WindowedAnalytics,
};
use dnhunter_dns::{codec, DomainName};
use dnhunter_flow::{dpi, CompactSeg, FlowEvent, FlowRecord, FlowTable};
use dnhunter_net::{
    flowrec, parse_flat, ExportRecord, FlatParse, FlowRecReader, FrameSource, IpProtocol, NetError,
    PcapFileSource, PcapReader, PcapRecord, PcapStreamSource, SourcePoll,
};
use dnhunter_resolver::DnsResolver;
use dnhunter_simnet::{flowexport, profiles, TraceGenerator, TraceProfile};
use dnhunter_telemetry as telemetry;

use crate::alloc::HEAP;
use crate::ledger::{ratio, Ledger, CHUNK};
use crate::run::{Digest, RepMeter};
use crate::stats::percentile;
use crate::workload::{
    par_workers, stream_replay, thread_ids, Driver, Frames, PcapReplay, Pinned, Spec, TraceKind,
    DAY_MICROS, ROTATE_MICROS, SLIDE_MICROS, WINDOW_MICROS,
};

/// Days of flow-export records the flow-record leg replays, fewer when a
/// day holds so many records that this budget is reached sooner.
const FLOWREC_DAYS: u64 = 10;
const FLOWREC_RECORD_BUDGET: usize = 1_500_000;
/// Encoded pcap bytes the two capture-reading legs materialise at most.
const PCAP_LEG_MAX_BYTES: usize = 512 << 20;
/// Finished flows kept as DPI inputs at most.
const DPI_INPUT_CAP: usize = 4 * CHUNK;
const DNS_PORT: u16 = 53;

/// The profile a workload's trace is generated from, `seed` folded into the
/// profile's own.
pub fn profile(kind: TraceKind, seed: u64) -> TraceProfile {
    let mut p = match kind {
        // EU1-ADSL1's aggregate mix at scale 0.4 (about 700k frames and
        // 1.7 GB a day, 80% TCP data, 10% DNS responses), spread over ten
        // times the clients at a tenth of the per-client rate, with the
        // BitTorrent announces spread over all of them. At 96 clients the
        // seed decides how many are heavy P2P users (5 +- 2), and with
        // that the flow count, the hit ratio (0.64 to 0.85) and every
        // per-event cost; here one seed's day is like another's.
        TraceKind::WebDay => TraceProfile {
            name: "WEB-DAY".into(),
            clients: 960,
            views_per_client_hour: 0.7,
            p2p_client_fraction: 1.0,
            announce_interval_hours: 10.0,
            peers_per_announce: 4.0,
            ..profiles::eu1_adsl1()
        },
        // Calibrated on the reference host (seed 1): 1.53 M frames a day of
        // 420 bytes on average, 42% of them DNS responses, 0.64 GB.
        TraceKind::DnsStorm => TraceProfile {
            name: "DNS-STORM".into(),
            clients: 3000,
            views_per_client_hour: 1.25,
            embedded_per_view: 0.0,
            prefetch_per_view: 40.0,
            p2p_client_fraction: 0.0,
            ..profiles::eu2_adsl()
        },
    };
    p.seed ^= seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    p
}

/// A generated base trace, held in memory.
pub struct Trace {
    records: Vec<PcapRecord>,
    seed: u64,
}

impl Trace {
    fn from_profile(p: TraceProfile) -> Trace {
        let seed = p.seed;
        Trace {
            records: TraceGenerator::new(p, false).generate().records,
            seed,
        }
    }
}

impl Frames for Trace {
    fn len(&self) -> usize {
        self.records.len()
    }
    fn get(&self, i: usize) -> (u64, &[u8]) {
        let r = &self.records[i];
        (r.timestamp_micros(), &r.frame)
    }
}

pub fn generate(kind: TraceKind, seed: u64) -> Trace {
    Trace::from_profile(profile(kind, seed))
}

fn sniffer_config(kind: TraceKind) -> SnifferConfig {
    let mut cfg = SnifferConfig::default();
    cfg.resolver.clist_size = 1 << kind.clist_log2();
    cfg
}

fn window_config() -> WindowConfig {
    WindowConfig::new(WINDOW_MICROS, SLIDE_MICROS)
}

/// Threads the workload keeps busy, load generator included.
pub fn threads(spec: &Spec) -> usize {
    match spec.driver {
        Driver::Seq => 1,
        Driver::Par => 1 + par_workers(),
        Driver::Fifo => 2,
    }
}

/// What one rep produced.
pub struct Outcome {
    /// Input events the driver reports having ingested.
    pub events: u64,
    pub hit_ratio: f64,
    /// Events that failed: parse faults, DNS decode errors, late or dropped
    /// bucket events, records fed but not counted.
    pub faults: u64,
    pub digest: String,
    /// CPU seconds spent by the benchmark's own load thread, if any.
    pub load_cpu_s: f64,
}

/// Every field of the report, flow rows included, folded into `d`.
fn digest_report(r: &SnifferReport, d: &mut Digest) {
    for flow in r.database.flows() {
        let _ = writeln!(d, "{flow:?}");
    }
    let _ = write!(
        d,
        "{:?}{:?}{:?}{:?}{:?}{:?}{:?}{}",
        r.sniffer_stats,
        r.resolver_stats,
        r.delays,
        r.dns_response_times,
        r.answers_per_response,
        r.trace_start,
        r.trace_end,
        r.warmup_micros
    );
}

fn outcome(report: &SnifferReport, fed: u64, extra: Option<&str>, load_cpu_s: f64) -> Outcome {
    let mut d = Digest::new();
    digest_report(report, &mut d);
    let mut faults = report.sniffer_stats.parse_errors
        + report.sniffer_stats.dns_decode_errors
        + fed.abs_diff(report.sniffer_stats.frames);
    if let Some(rotated) = extra {
        d.update(rotated.as_bytes());
        faults += rotated_footer_faults(rotated);
    }
    Outcome {
        events: report.sniffer_stats.frames,
        hit_ratio: report.hit_ratio(),
        faults,
        digest: d.hex(),
        load_cpu_s,
    }
}

/// `late_bucket_events + dropped_bucket_events` from the footer line of a
/// rotated JSONL stream; a stream without one counts as one fault.
fn rotated_footer_faults(rotated: &str) -> u64 {
    let footer = rotated.lines().last().unwrap_or("");
    match serde_json::from_str::<serde_json::Value>(footer) {
        Ok(v) => match (
            v["late_bucket_events"].as_u64(),
            v["dropped_bucket_events"].as_u64(),
        ) {
            (Some(late), Some(dropped)) => late + dropped,
            _ => 1,
        },
        Err(_) => 1,
    }
}

/// One rep of the workload's driver over `days` shifted days.
pub fn rep(spec: &Spec, trace: &Trace, days: u64, m: &mut RepMeter) -> Outcome {
    let cfg = sniffer_config(spec.trace);
    let fed = days * trace.len() as u64;
    match spec.driver {
        Driver::Seq => {
            m.before_driver();
            let mut s = RealTimeSniffer::new(cfg);
            m.start();
            trace.replay(days, |ts, frame| s.process_frame(ts, frame));
            let report = s.finish();
            m.stop();
            outcome(&report, fed, None, 0.0)
        }
        Driver::Par => {
            let before = thread_ids();
            m.before_driver();
            let mut s = ParallelSniffer::new(cfg, par_workers());
            let _one_thread_per_cpu = Pinned::spread(&before);
            m.start();
            trace.replay(days, |ts, frame| s.process_frame(ts, frame));
            let (report, _timings) = s.finish_with_timings();
            m.stop();
            outcome(&report, fed, None, 0.0)
        }
        Driver::Fifo => {
            let (rx, tx) = UnixStream::pair().expect("socketpair for the daemon workload");
            let before = thread_ids();
            m.before_driver();
            let mut source = PcapStreamSource::new(rx);
            let daemon = Daemon::new(cfg);
            std::thread::scope(|scope| {
                let writer = scope.spawn(move || stream_replay(trace, days, tx));
                let _one_thread_per_cpu = Pinned::spread(&before);
                m.start();
                let (report, rotated) = daemon_run(&mut source, daemon, |_| {});
                m.stop();
                let load_cpu_s = writer
                    .join()
                    .expect("writer thread panicked")
                    .expect("writing the replay into the socket");
                outcome(&report, fed, Some(&rotated), load_cpu_s)
            })
        }
    }
}

/// The daemon configuration of `fifo-rotate`: sequential engine, windowed
/// sink, packet-clock rotation.
struct Daemon {
    sniffer: DaemonSniffer,
    rotation: Rotation,
}

impl Daemon {
    fn new(cfg: SnifferConfig) -> Self {
        let mut s = RealTimeSniffer::new(cfg);
        s.set_sink(Box::new(WindowedAnalytics::new(window_config())));
        Daemon {
            sniffer: DaemonSniffer::Seq(Box::new(s)),
            rotation: Rotation::new(ROTATE_MICROS, window_config()),
        }
    }
}

/// Drive the daemon loop to end of stream and finish it: the report and the
/// rotated JSONL.
fn daemon_run(
    source: &mut dyn FrameSource,
    mut daemon: Daemon,
    on_record: impl FnMut(u64),
) -> (SnifferReport, String) {
    run_frame_daemon(
        source,
        &mut daemon.sniffer,
        Some(&mut daemon.rotation),
        on_record,
    )
    .expect("the generated pcap stream is well-formed");
    let (report, sinks) = daemon.sniffer.finish_with_sinks();
    let Rotation {
        rotations, emitter, ..
    } = daemon.rotation;
    (report, emitter.finish(rotations, sinks))
}

/// The reference output from a second ingest path over the same input:
/// the sequential sniffer for the pipeline, the file source for the socket
/// daemon. `None` where the workload's own warm-up rep is the reference.
pub fn reference(spec: &Spec, trace: &Trace, days: u64) -> Option<Outcome> {
    let cfg = sniffer_config(spec.trace);
    let fed = days * trace.len() as u64;
    match spec.driver {
        Driver::Seq => None,
        Driver::Par => {
            let mut s = RealTimeSniffer::new(cfg);
            trace.replay(days, |ts, frame| s.process_frame(ts, frame));
            Some(outcome(&s.finish(), fed, None, 0.0))
        }
        Driver::Fifo => {
            let mut source = PcapFileSource::new(PcapReplay::new(trace, days))
                .expect("the generated pcap stream starts with a header");
            let (report, rotated) = daemon_run(&mut source, Daemon::new(cfg), |_| {});
            Some(outcome(&report, fed, Some(&rotated), 0.0))
        }
    }
}

// ---------------------------------------------------------------------
// The ledger: each layer's public entry point over inputs materialised
// from the workload's trace.
// ---------------------------------------------------------------------

/// A data segment projected for the flow table: where its payload sits in
/// its frame, so the head bytes are re-sliced, not copied.
struct SegIn {
    ts: u64,
    seg: CompactSeg,
    frame: u32,
    payload_at: u32,
}

/// One resolver operation in capture order.
enum ResolverOp {
    Insert(u32),
    Lookup(IpAddr, IpAddr),
}

struct Binding {
    client: IpAddr,
    name: DomainName,
    servers: Vec<IpAddr>,
}

/// Layer inputs projected from one day of the trace.
struct Projection<'a> {
    dns_payloads: Vec<&'a [u8]>,
    segs: Vec<SegIn>,
    bindings: Vec<Binding>,
    ops: Vec<ResolverOp>,
}

/// Split the base day the way the sequential driver demultiplexes it, and
/// derive the resolver's operation sequence by running the data segments
/// through a scratch flow table (a lookup happens at each flow start).
fn project<'a>(trace: &'a Trace, cfg: &SnifferConfig) -> Projection<'a> {
    let mut dns_payloads = Vec::new();
    let mut segs = Vec::new();
    let mut bindings = Vec::new();
    let mut ops = Vec::new();
    let mut table = FlowTable::new(cfg.flow_table.clone());
    let mut last_eviction = 0u64;
    for (i, rec) in trace.records.iter().enumerate() {
        let Ok(FlatParse::Seg(seg)) = parse_flat(&rec.frame) else {
            continue;
        };
        let ts = rec.timestamp_micros();
        if seg.src_port == cfg.dns_port || seg.dst_port == cfg.dns_port {
            if seg.proto == IpProtocol::Udp && seg.src_port == cfg.dns_port {
                dns_payloads.push(seg.payload);
                let Ok(msg) = codec::decode(seg.payload) else {
                    continue;
                };
                if !msg.header.is_response || msg.header.truncated {
                    continue;
                }
                if let Some(name) = msg.queried_fqdn() {
                    ops.push(ResolverOp::Insert(bindings.len() as u32));
                    bindings.push(Binding {
                        client: seg.dst,
                        name: name.clone(),
                        servers: msg.answer_addresses(),
                    });
                }
            }
            continue;
        }
        let cseg = CompactSeg {
            src: seg.src,
            src_port: seg.src_port,
            dst: seg.dst,
            dst_port: seg.dst_port,
            proto: seg.proto,
            tcp_flags: seg.tcp_flags,
            tcp_seq: seg.tcp_seq,
            wire_bytes: seg.wire_bytes,
            payload_len: seg.payload.len(),
        };
        for event in table.process_seg(ts, &cseg, seg.payload) {
            if let FlowEvent::FlowStarted(key) = event {
                ops.push(ResolverOp::Lookup(key.client, key.server));
            }
        }
        if ts.saturating_sub(last_eviction) >= cfg.flow_table.eviction_interval_micros {
            last_eviction = ts;
            table.evict_idle(ts);
        }
        segs.push(SegIn {
            ts,
            seg: cseg,
            frame: i as u32,
            payload_at: (seg.payload.as_ptr() as usize - rec.frame.as_ptr() as usize) as u32,
        });
    }
    Projection {
        dns_payloads,
        segs,
        bindings,
        ops,
    }
}

/// The first frames of a trace, up to a byte budget.
struct Prefix<'a> {
    trace: &'a Trace,
    len: usize,
}

impl Frames for Prefix<'_> {
    fn len(&self) -> usize {
        self.len
    }
    fn get(&self, i: usize) -> (u64, &[u8]) {
        self.trace.get(i)
    }
}

/// The ledger fact the balance prediction reads: (dns.decode + resolver)
/// time as a share of whole-engine time.
pub const BALANCE_FACT: &str = "balance.dns_resolver_share_of_engine";

/// Run every layer's leg over a trace of `kind` and record in `l` the
/// per-layer figures under their catalogue names, and as facts the counts
/// that no optimisation moves (shares that are 0 on every workload, and the
/// worker skew, which is 1 with one worker). Workloads that share a trace
/// share all of this. Returns what failed the ledger's own checks.
pub fn ledger(kind: TraceKind, trace: &Trace, days: u64, l: &mut Ledger) -> Vec<String> {
    let cfg = sniffer_config(kind);
    let name = kind.name();
    let n = trace.len();
    let frames_total = (days * n as u64) as f64;
    let mut problems = Vec::new();

    eprintln!("# {name}: ledger: projecting layer inputs");
    let proj = project(trace, &cfg);

    // --- net: capture reading -------------------------------------------
    {
        let mut len = 0;
        let mut bytes = 24;
        while len < n && bytes + 16 + trace.records[len].frame.len() <= PCAP_LEG_MAX_BYTES {
            bytes += 16 + trace.records[len].frame.len();
            len += 1;
        }
        let prefix = Prefix { trace, len };
        let mut pcap = Vec::with_capacity(bytes);
        PcapReplay::new(&prefix, 1)
            .read_to_end(&mut pcap)
            .expect("encoding pcap into memory");

        let mut reader = PcapReader::new(&pcap[..]).expect("pcap header");
        l.chunked_days("net.pcap_read.day", "net.pcap_read", 1, len, |_, range| {
            for _ in range {
                black_box(reader.next_record().expect("pcap record"));
            }
        });
        l.set_ns_per_op("net.pcap_read.ns_per_frame", "net.pcap_read");
        let secs = l.total_ns("net.pcap_read") as f64 / 1e9;
        l.set(
            "net.pcap_read.mb_per_s",
            ratio(pcap.len() as f64 / 1e6, secs),
        );
        let allocs = l.allocs_per_op("net.pcap_read");
        l.set("net.pcap_read.allocs_per_frame", allocs);

        let mut source = PcapStreamSource::new(&pcap[..]);
        l.chunked_days(
            "net.stream_poll.day",
            "net.stream_poll",
            1,
            len,
            |_, range| {
                for _ in range {
                    match source.poll_next().expect("pcap stream") {
                        SourcePoll::Ready(rec) => drop(black_box(rec)),
                        other => panic!("in-memory stream not ready: {other:?}"),
                    }
                }
            },
        );
        l.set_ns_per_op("net.stream_poll.ns_per_frame", "net.stream_poll");
    }

    // --- net: header walk -----------------------------------------------
    let mut parse_faults = 0u64;
    l.chunked_days(
        "net.parse_flat.day",
        "net.parse_flat",
        days,
        n,
        |_, range| {
            for rec in &trace.records[range] {
                parse_faults += u64::from(black_box(parse_flat(&rec.frame)).is_err());
            }
        },
    );
    l.set_ns_per_op("net.parse_flat.ns_per_frame", "net.parse_flat");
    let allocs = l.allocs_per_op("net.parse_flat");
    l.fact("net.parse_flat.allocs_per_frame", allocs);
    l.fact(
        "net.parse_flat.fault_share",
        parse_faults as f64 / frames_total,
    );

    // --- dns: message decode --------------------------------------------
    let mut decode_errors = 0u64;
    let msgs = proj.dns_payloads.len();
    l.chunked_days("dns.decode.day", "dns.decode", days, msgs, |_, range| {
        for payload in &proj.dns_payloads[range] {
            decode_errors += u64::from(black_box(codec::decode(payload)).is_err());
        }
    });
    l.set_ns_per_op("dns.decode.ns_per_msg", "dns.decode");
    let allocs = l.allocs_per_op("dns.decode");
    l.set("dns.decode.allocs_per_msg", allocs);
    l.fact(
        "dns.decode.error_share",
        ratio(decode_errors as f64, (days as usize * msgs) as f64),
    );

    // --- resolver: inserts, lookups, and both in capture order ------------
    let lookup_ns_total;
    {
        let lookups: Vec<(IpAddr, IpAddr)> = proj
            .ops
            .iter()
            .filter_map(|op| match *op {
                ResolverOp::Lookup(client, server) => Some((client, server)),
                ResolverOp::Insert(_) => None,
            })
            .collect();
        let level = HEAP.live();
        let mut resolver: DnsResolver = DnsResolver::with_config(cfg.resolver);
        let binds = proj.bindings.len();
        for _ in 0..days {
            l.chunked_days(
                "resolver.insert.day",
                "resolver.insert",
                1,
                binds,
                |_, range| {
                    for b in &proj.bindings[range] {
                        black_box(resolver.insert(b.client, &b.name, &b.servers));
                    }
                },
            );
            // A lookup costs less than a clock read, so the day's lookups
            // are timed together, against the state the day's inserts left.
            l.chunked_days(
                "resolver.lookup.day",
                "resolver.lookup",
                1,
                lookups.len(),
                |_, range| {
                    for &(client, server) in &lookups[range] {
                        black_box(resolver.lookup(client, server));
                    }
                },
            );
        }
        // By the allocator's count, beside `memory_estimate`'s below.
        l.fact(
            "resolver.state.alloc_bytes_per_entry",
            ratio(
                HEAP.live().saturating_sub(level) as f64,
                resolver.len() as f64,
            ),
        );
        l.set_ns_per_op("resolver.insert.ns_per_op", "resolver.insert");
        let allocs = l.allocs_per_op("resolver.insert");
        l.set("resolver.insert.allocs_per_op", allocs);
        l.set_ns_per_op("resolver.lookup.ns_per_op", "resolver.lookup");
        lookup_ns_total = l.total_ns("resolver.lookup") as f64;
        let stats = *resolver.stats();
        l.set(
            "resolver.insert.evict_share",
            ratio(stats.evictions as f64, stats.responses as f64),
        );
        let intern = resolver.intern_stats();
        l.set(
            "resolver.intern.reuse_share",
            ratio(
                intern.reused as f64,
                (intern.allocated + intern.reused) as f64,
            ),
        );
        l.set("resolver.state.entries", resolver.len() as f64);
        l.set(
            "resolver.state.bytes_per_entry",
            ratio(resolver.memory_estimate() as f64, resolver.len() as f64),
        );
        drop(resolver);

        // Whether a lookup hits depends on what was inserted before it, so
        // the hit share comes from a replay of both in capture order.
        let mut mixed: DnsResolver = DnsResolver::with_config(cfg.resolver);
        for _ in 0..days {
            for op in &proj.ops {
                match *op {
                    ResolverOp::Insert(i) => {
                        let b = &proj.bindings[i as usize];
                        mixed.insert(b.client, &b.name, &b.servers);
                    }
                    ResolverOp::Lookup(client, server) => {
                        mixed.lookup(client, server);
                    }
                }
            }
        }
        let stats = *mixed.stats();
        l.set(
            "resolver.lookup.hit_share",
            ratio(stats.hits as f64, stats.lookups as f64),
        );
    }

    // --- flow: table and DPI --------------------------------------------
    let flows_finished;
    {
        let mut table = FlowTable::new(cfg.flow_table.clone());
        let mut last_eviction = 0u64;
        let mut live_peak = 0usize;
        let mut finished_total = 0u64;
        let mut finished: Vec<Box<FlowRecord>> = Vec::new();
        let mut keep = |events: Vec<FlowEvent>| {
            for event in events {
                if let FlowEvent::FlowFinished(rec) = event {
                    finished_total += 1;
                    if finished.len() < DPI_INPUT_CAP {
                        finished.push(rec);
                    }
                }
            }
        };
        let interval = cfg.flow_table.eviction_interval_micros;
        let segs = proj.segs.len();
        l.chunked_days("flow.table.day", "flow.table", days, segs, |day, range| {
            let shift = day * DAY_MICROS;
            for s in &proj.segs[range] {
                let ts = s.ts + shift;
                let head = &trace.records[s.frame as usize].frame[s.payload_at as usize..];
                keep(table.process_seg(ts, &s.seg, head));
                // The engine's scan cadence.
                if ts.saturating_sub(last_eviction) >= interval {
                    last_eviction = ts;
                    live_peak = live_peak.max(table.live_flows());
                    keep(table.evict_idle(ts));
                }
            }
        });
        keep(table.flush());
        flows_finished = finished_total;
        l.set_ns_per_op("flow.table.ns_per_seg", "flow.table");
        let allocs = l.allocs_per_op("flow.table");
        l.set("flow.table.allocs_per_seg", allocs);
        l.set("flow.table.live_flows_peak", live_peak as f64);

        l.chunked_days("flow.dpi.day", "flow.dpi", 1, finished.len(), |_, range| {
            for rec in &finished[range] {
                black_box(dpi::classify(
                    &rec.head_c2s,
                    &rec.head_s2c,
                    rec.key.server_port,
                ));
            }
        });
        l.set_ns_per_op("flow.dpi.ns_per_flow", "flow.dpi");
    }

    // --- core: the whole engine, chunk-timed -------------------------------
    eprintln!("# {name}: ledger: engine leg");
    if engine_leg(l, trace, days, &cfg).1 as f64 != frames_total {
        problems.push("engine leg lost frames".into());
    }
    l.set_ns_per_op("core.engine.ns_per_frame", "core.engine");
    let finish_ns = l.total_ns("core.engine.finish") as f64;
    l.set("core.engine.finish_ms", finish_ns / 1e6);
    let engine_ns = l.total_ns("core.engine") as f64;
    let dpi_ns = l.ns_per_op("flow.dpi") * flows_finished as f64;
    let resolver_ns = l.total_ns("resolver.insert") as f64 + lookup_ns_total;
    let dns_ns = l.total_ns("dns.decode") as f64;
    let isolated_ns = l.total_ns("net.parse_flat") as f64
        + dns_ns
        + resolver_ns
        + l.total_ns("flow.table") as f64
        + dpi_ns;
    let unattributed = 1.0 - ratio(isolated_ns, engine_ns);
    l.set("core.engine.unattributed_share", unattributed);
    if unattributed < -0.10 {
        problems.push(format!(
            "ledger does not close: layers claim {:.1}% more than the whole engine",
            -100.0 * unattributed
        ));
    }

    // --- core: analytics sinks over the recorded event stream -------------
    {
        let mut s = RealTimeSniffer::new(cfg.clone());
        s.set_sink(Box::new(Recorder::default()));
        trace.replay(days, |ts, frame| s.process_frame(ts, frame));
        let (_, sinks) = s.finish_with_sinks();
        let events = sinks
            .into_iter()
            .next()
            .and_then(|s| s.as_any_box().downcast::<Recorder>().ok())
            .map(|r| r.0)
            .unwrap_or_default();

        let mut stream = StreamingAnalytics::new(StreamingConfig::default());
        l.chunked_days(
            "core.stream.day",
            "core.stream",
            1,
            events.len(),
            |_, range| {
                for ev in &events[range] {
                    ev.feed(&mut stream);
                }
            },
        );
        l.set_ns_per_op("core.stream.ns_per_event", "core.stream");
        let rendered = l.day("core.stream.render.day", |l| {
            l.chunk("core.stream.render", 1, || stream.render())
        });
        black_box(rendered);
        let ms = l.total_ns("core.stream.render") as f64 / 1e6;
        l.set("core.stream.render_ms", ms);

        let mut window = WindowedAnalytics::new(window_config());
        let mut buckets_peak = 0usize;
        l.chunked_days(
            "core.window.day",
            "core.window",
            1,
            events.len(),
            |_, range| {
                for ev in &events[range] {
                    ev.feed(&mut window);
                }
                buckets_peak = buckets_peak.max(window.live_buckets());
            },
        );
        l.set_ns_per_op("core.window.ns_per_event", "core.window");
        l.set("core.window.live_buckets_peak", buckets_peak as f64);
        let rendered = l.day("core.window.render.day", |l| {
            l.chunk("core.window.render", 1, || window.render())
        });
        black_box(rendered);
        let ms = l.total_ns("core.window.render") as f64 / 1e6;
        l.set("core.window.render_ms", ms);
    }

    // --- telemetry: bound registry and flight recorder, paired ------------
    eprintln!("# {name}: ledger: telemetry pairs");
    {
        // Four whole ingests back to back, each share taken between
        // neighbours: the host's speed drifts by more than these overheads
        // between one leg and a much later one.
        let plain = seq_secs(trace, days, &cfg);
        // The same ingest with the chunk clocks around it, into a ledger of
        // its own, prices the tracing.
        let traced = engine_leg(&mut Ledger::new(), trace, days, &cfg).0;
        let bound = {
            let _registry = telemetry::bind(Arc::new(telemetry::Registry::new()));
            seq_secs(trace, days, &cfg)
        };
        let flight = {
            let _registry = telemetry::bind(Arc::new(telemetry::Registry::new()));
            let set = telemetry::TraceSet::new();
            let _lane = telemetry::trace_bind(&set, telemetry::LaneKind::Driver, 0);
            seq_secs(trace, days, &cfg)
        };
        l.set("bench.trace_overhead_share", (traced - plain) / plain);
        l.set("telemetry.bound_overhead_share", (bound - plain) / plain);
        l.set("telemetry.flight_overhead_share", (flight - bound) / bound);
    }

    // --- core: pipeline ---------------------------------------------------
    eprintln!("# {name}: ledger: pipeline, daemon and flow-record legs");
    {
        let before = thread_ids();
        let mut s = ParallelSniffer::new(cfg.clone(), par_workers());
        let _one_thread_per_cpu = Pinned::spread(&before);
        let timings = l.day("core.pipeline.day", |l| {
            l.chunk("core.pipeline.feed", days as usize * n, || {
                trace.replay(days, |ts, frame| s.process_frame(ts, frame));
            });
            l.chunk("core.pipeline.join", 1, || s.finish_with_timings().1)
        });
        let feed_micros = l.total_ns("core.pipeline.feed") as f64 / 1e3;
        l.set(
            "core.pipeline.dispatch_busy_ns_per_frame",
            timings.dispatch_busy_micros as f64 * 1e3 / frames_total,
        );
        l.set(
            "core.pipeline.send_wait_share",
            ratio(timings.send_wait_micros as f64, feed_micros),
        );
        let busy: Vec<f64> = timings
            .worker_busy_micros
            .iter()
            .map(|&m| m as f64)
            .collect();
        let max = busy.iter().copied().fold(0.0, f64::max);
        let mean = ratio(busy.iter().sum(), busy.len() as f64);
        l.set(
            "core.pipeline.worker_busy_ns_per_frame",
            max * 1e3 / frames_total,
        );
        l.fact("core.pipeline.worker_skew", ratio(max, mean));
        let join_ms = l.total_ns("core.pipeline.join") as f64 / 1e6;
        l.set("core.pipeline.join_wait_ms", join_ms);
    }

    // --- core: daemon over an OS byte stream ------------------------------
    {
        let (rx, tx) = UnixStream::pair().expect("socketpair for the daemon leg");
        let mut source = CountingSource::new(PcapStreamSource::new(rx));
        let daemon = Daemon::new(cfg.clone());
        // The rotation schedule, replicated from packet time so that the
        // wall-clock gap across each rotation can be told from the others.
        let mut pauses_us = Vec::new();
        let mut anchor: Option<u64> = None;
        let mut clock = 0u64;
        let mut prev = Instant::now();
        let on_record = |ts: u64| {
            let now = Instant::now();
            clock = clock.max(ts);
            let a = *anchor.get_or_insert(ts);
            if clock - a >= ROTATE_MICROS {
                anchor = Some(clock);
                pauses_us.push(now.duration_since(prev).as_secs_f64() * 1e6);
            }
            prev = now;
        };
        let before = thread_ids();
        let rotated = std::thread::scope(|scope| {
            let writer = scope.spawn(move || stream_replay(trace, days, tx));
            let _one_thread_per_cpu = Pinned::spread(&before);
            let rotated = l.day("core.daemon.day", |l| {
                l.chunk("core.daemon", days as usize * n, || {
                    daemon_run(&mut source, daemon, on_record).1
                })
            });
            writer
                .join()
                .expect("writer thread panicked")
                .expect("writing the replay into the socket");
            rotated
        });
        let footer: serde_json::Value = serde_json::from_str(rotated.lines().last().unwrap_or(""))
            .unwrap_or(serde_json::Value::Null);
        let rotations = footer["rotations"].as_u64().unwrap_or(0);
        if rotations != pauses_us.len() as u64 {
            problems.push(format!(
                "daemon leg: {rotations} rotations fired, {} predicted from packet time",
                pauses_us.len()
            ));
        }
        l.set("core.daemon.rotations", rotations as f64);
        l.set(
            "core.daemon.rotate_pause_us_p50",
            percentile(&pauses_us, 50.0),
        );
        l.set(
            "core.daemon.rotate_pause_us_p95",
            percentile(&pauses_us, 95.0),
        );
        let wall_ns = l.total_ns("core.daemon") as f64;
        // Both are 0 while the writer keeps the socket full; above 0 the
        // load generator, not the program, bounds the daemon workload.
        l.fact(
            "core.daemon.idle_share",
            ratio(source.idle_ns as f64, wall_ns),
        );
        l.fact(
            "net.stream_poll.pending_share",
            ratio(source.pending as f64, source.polls as f64),
        );
    }

    // --- net + core: flow records -----------------------------------------
    {
        let base = flowexport::export_stream(&trace.records, trace.seed, DNS_PORT);
        let mut s = RealTimeSniffer::new(cfg.clone());
        let (mut records, mut late) = (0u64, 0u64);
        let flowrec_days = FLOWREC_RECORD_BUDGET
            .div_ceil(base.len().max(1))
            .clamp(2, FLOWREC_DAYS as usize) as u64;
        for day in 0..flowrec_days {
            let shifted: Vec<ExportRecord> = base.iter().map(|r| shift_export(r, day)).collect();
            let bytes = flowrec::encode_stream(&shifted);
            drop(shifted);
            let mut reader = FlowRecReader::new(&bytes[..]).expect("DNFR header");
            l.chunked_days(
                "net.flowrec_decode.day",
                "net.flowrec_decode",
                1,
                base.len(),
                |_, range| {
                    for _ in range {
                        black_box(reader.next_record().expect("DNFR record"));
                    }
                },
            );
            let mut reader = FlowRecReader::new(&bytes[..]).expect("DNFR header");
            let stats = l.day("core.flowrec.day", |l| {
                l.chunk("core.flowrec", base.len(), || {
                    run_flowrec_daemon(&mut reader, &mut s, &FlowrecConfig::default(), None)
                        .expect("the generated export stream is well-formed")
                })
            });
            records += stats.dns_records + stats.flow_records;
            late += stats.late_records;
        }
        black_box(s.finish());
        l.set_ns_per_op("net.flowrec_decode.ns_per_record", "net.flowrec_decode");
        l.set_ns_per_op("core.flowrec.ns_per_record", "core.flowrec");
        l.fact(
            "core.flowrec.late_share",
            ratio(late as f64, records as f64),
        );
    }

    l.fact(BALANCE_FACT, ratio(dns_ns + resolver_ns, engine_ns));
    problems
}

/// The whole engine over `days` days with the clock read once per chunk,
/// recorded in `l` as `core.engine` and `core.engine.finish`: seconds inside
/// those spans (what [`seq_secs`] measures untimed) and frames ingested.
fn engine_leg(l: &mut Ledger, trace: &Trace, days: u64, cfg: &SnifferConfig) -> (f64, u64) {
    let mut s = RealTimeSniffer::new(cfg.clone());
    l.chunked_days(
        "core.engine.day",
        "core.engine",
        days,
        trace.len(),
        |day, range| {
            let shift = day * DAY_MICROS;
            for rec in &trace.records[range] {
                s.process_frame(rec.timestamp_micros() + shift, &rec.frame);
            }
        },
    );
    let report = l.day("core.engine.finish.day", |l| {
        l.chunk("core.engine.finish", 1, || s.finish())
    });
    let ns = l.total_ns("core.engine") + l.total_ns("core.engine.finish");
    (ns as f64 / 1e9, report.sniffer_stats.frames)
}

/// Wall seconds of one plain sequential ingest, first frame to `finish`
/// returned, under whatever telemetry binding the caller holds.
fn seq_secs(trace: &Trace, days: u64, cfg: &SnifferConfig) -> f64 {
    let mut s = RealTimeSniffer::new(cfg.clone());
    let t0 = Instant::now();
    trace.replay(days, |ts, frame| s.process_frame(ts, frame));
    let report = s.finish();
    let secs = t0.elapsed().as_secs_f64();
    // Dropping a few hundred thousand flow rows is not ingest time.
    drop(black_box(report));
    secs
}

fn shift_export(rec: &ExportRecord, day: u64) -> ExportRecord {
    let shift = day * DAY_MICROS;
    match rec {
        ExportRecord::Dns(d) => {
            let mut d = d.clone();
            d.ts_micros += shift;
            ExportRecord::Dns(d)
        }
        ExportRecord::Flow(f) => {
            let mut f = *f;
            f.first_ts += shift;
            f.last_ts += shift;
            ExportRecord::Flow(f)
        }
    }
}

/// A frame source that counts polls and `Pending` results and clocks the
/// back-off after each `Pending` (the one place it reads a clock).
struct CountingSource<S> {
    inner: S,
    polls: u64,
    pending: u64,
    idle_ns: u64,
    pending_since: Option<Instant>,
}

impl<S> CountingSource<S> {
    fn new(inner: S) -> Self {
        CountingSource {
            inner,
            polls: 0,
            pending: 0,
            idle_ns: 0,
            pending_since: None,
        }
    }
}

impl<S: FrameSource> FrameSource for CountingSource<S> {
    fn poll_next(&mut self) -> Result<SourcePoll, NetError> {
        if let Some(since) = self.pending_since.take() {
            self.idle_ns += since.elapsed().as_nanos() as u64;
        }
        let poll = self.inner.poll_next()?;
        self.polls += 1;
        if matches!(poll, SourcePoll::Pending) {
            self.pending += 1;
            self.pending_since = Some(Instant::now());
        }
        Ok(poll)
    }
}

/// One event the engine fed its sink.
enum SinkEvent {
    TraceStart(u64),
    Answered(u64),
    FirstFlowDelay(u64, u64),
    AnyFlowDelay(u64, u64),
    Finished(Box<TaggedFlow>),
}

impl SinkEvent {
    fn feed(&self, sink: &mut dyn FlowSink) {
        match self {
            SinkEvent::TraceStart(ts) => sink.on_trace_start(*ts),
            SinkEvent::Answered(ts) => sink.on_answered_response(*ts),
            SinkEvent::FirstFlowDelay(ts, d) => sink.on_first_flow_delay(*ts, *d),
            SinkEvent::AnyFlowDelay(ts, d) => sink.on_any_flow_delay(*ts, *d),
            SinkEvent::Finished(flow) => sink.on_flow_finished(flow),
        }
    }
}

/// A sink that keeps the event stream for replay into the analytics sinks.
#[derive(Default)]
struct Recorder(Vec<SinkEvent>);

impl FlowSink for Recorder {
    fn on_trace_start(&mut self, ts: u64) {
        self.0.push(SinkEvent::TraceStart(ts));
    }
    fn on_answered_response(&mut self, ts: u64) {
        self.0.push(SinkEvent::Answered(ts));
    }
    fn on_first_flow_delay(&mut self, ts: u64, delay_micros: u64) {
        self.0.push(SinkEvent::FirstFlowDelay(ts, delay_micros));
    }
    fn on_any_flow_delay(&mut self, ts: u64, delay_micros: u64) {
        self.0.push(SinkEvent::AnyFlowDelay(ts, delay_micros));
    }
    fn on_flow_finished(&mut self, flow: &TaggedFlow) {
        self.0.push(SinkEvent::Finished(Box::new(flow.clone())));
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec_by_name, WORKLOADS};
    use dnhunter_net::PcapWriter;

    /// A web-day trace small enough for an unoptimised test build.
    fn small_trace() -> Trace {
        let mut p = profile(TraceKind::WebDay, 7);
        p.clients = 60;
        p.duration_hours = 6.0;
        Trace::from_profile(p)
    }

    fn seq_outcome(trace: &Trace, days: u64) -> (Outcome, usize) {
        let mut s = RealTimeSniffer::new(sniffer_config(TraceKind::WebDay));
        trace.replay(days, |ts, frame| s.process_frame(ts, frame));
        let report = s.finish();
        let flows = report.database.len();
        (
            outcome(&report, days * trace.len() as u64, None, 0.0),
            flows,
        )
    }

    #[test]
    fn day_shift_replay_multiplies_flows_and_digest_is_stable() {
        let trace = small_trace();
        let (one, flows_one) = seq_outcome(&trace, 1);
        let (three, flows_three) = seq_outcome(&trace, 3);
        assert!(flows_one > 100, "trace too small to mean anything");
        assert_eq!(flows_three, 3 * flows_one);
        assert_eq!(three.events, 3 * one.events);
        assert_eq!((one.faults, three.faults), (0, 0));
        // Same input, same digest; more days, another digest.
        assert_eq!(seq_outcome(&trace, 1).0.digest, one.digest);
        assert_ne!(three.digest, one.digest);
        // Same seed, same trace; another seed, another trace.
        assert_eq!(seq_outcome(&small_trace(), 1).0.digest, one.digest);
    }

    #[test]
    fn every_driver_agrees_with_its_reference_on_a_small_trace() {
        let trace = small_trace();
        let seq = rep(&WORKLOADS[0], &trace, 2, &mut RepMeter::default());
        for name in ["web-day-par", "fifo-rotate"] {
            let spec = spec_by_name(name).unwrap();
            let out = rep(&spec, &trace, 2, &mut RepMeter::default());
            let reference = reference(&spec, &trace, 2).expect("a second ingest path");
            assert_eq!(out.digest, reference.digest, "{name}");
            assert_eq!(out.events, seq.events, "{name}");
            assert_eq!(out.faults, 0, "{name}");
            assert_eq!(out.hit_ratio.to_bits(), seq.hit_ratio.to_bits(), "{name}");
        }
        let par = rep(&WORKLOADS[1], &trace, 2, &mut RepMeter::default());
        assert_eq!(par.digest, seq.digest);
    }

    #[test]
    fn replay_encoder_writes_what_the_programs_pcap_writer_writes() {
        let trace = small_trace();
        let prefix = Prefix {
            trace: &trace,
            len: 50,
        };
        let mut ours = Vec::new();
        PcapReplay::new(&prefix, 1).read_to_end(&mut ours).unwrap();
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for rec in &trace.records[..50] {
            w.write_record(rec).unwrap();
        }
        assert_eq!(ours, w.into_inner().unwrap());
    }

    #[test]
    fn rotated_footer_counts_late_and_dropped() {
        let ok =
            "{\"x\":1}\n{\"rotations\":3,\"late_bucket_events\":2,\"dropped_bucket_events\":5}\n";
        assert_eq!(rotated_footer_faults(ok), 7);
        assert_eq!(rotated_footer_faults("{\"rotations\":3}\n"), 1);
        assert_eq!(rotated_footer_faults(""), 1);
    }

    #[test]
    fn ledger_emits_every_catalogued_figure_and_closes_on_a_small_trace() {
        let trace = small_trace();
        let mut l = Ledger::new();
        let problems = ledger(TraceKind::WebDay, &trace, 2, &mut l);
        // Whether the ledger closes is a matter of timing, which a tiny
        // trace in an unoptimised build cannot show; the counts can.
        let counted: Vec<_> = problems
            .iter()
            .filter(|p| !p.contains("does not close"))
            .collect();
        assert!(counted.is_empty(), "{counted:?}");
        for m in crate::catalog::per_layer_names() {
            assert!(l.figure(&m).is_some(), "ledger did not emit {m}");
        }
        assert_eq!(l.figure_count(), crate::catalog::per_layer_names().len());
        assert!(l.figure("resolver.lookup.hit_share").unwrap() > 0.5);
        assert!(l.figure("core.daemon.rotations").unwrap() >= 1.0);
        assert_eq!(l.facts().get("net.parse_flat.fault_share"), Some(&0.0));
        assert!(l.facts()["core.pipeline.worker_skew"] >= 1.0);
        let balance = l.facts()[BALANCE_FACT];
        assert!(balance > 0.0 && balance < 1.0);
    }
}
