//! The real-time sniffer: DNS response sniffer + flow sniffer + flow tagger
//! (paper Fig. 1 and §3.1).

use std::net::IpAddr;

use dnhunter_flow::{CompactSeg, FlowEvent, FlowKey, FlowRecord, FlowTable, FlowTableConfig};
use dnhunter_net::seg::{parse_flat, FlatParse, FrameFault};
use dnhunter_net::{ExportRecord, FlowExportRecord, IpProtocol, PcapRecord, SourcePoll};
use dnhunter_resolver::{DnsResolver, ResolverConfig, ResolverStats};
use dnhunter_telemetry::{self as telemetry, tm_count, tm_trace, Metric as Tm, TraceEvent as Te};

use crate::daemon::DaemonDriver;
use crate::db::FlowDatabase;
use crate::engine::{assemble_report, EventKey, ShardEngine, PHASE_FRAME, PHASE_SCAN};
use crate::policy::PolicyEnforcer;
use crate::stream::{FlowSink, StreamingAnalytics};

/// Sniffer configuration.
#[derive(Debug, Clone)]
pub struct SnifferConfig {
    pub resolver: ResolverConfig,
    pub flow_table: FlowTableConfig,
    /// UDP port carrying DNS (53 everywhere, configurable for tests).
    pub dns_port: u16,
    /// Flows starting within this window after the first frame are marked
    /// `in_warmup` and excluded from hit-ratio accounting (the paper uses
    /// 5 minutes).
    pub warmup_micros: u64,
}

impl Default for SnifferConfig {
    fn default() -> Self {
        SnifferConfig {
            resolver: ResolverConfig::default(),
            flow_table: FlowTableConfig::default(),
            dns_port: 53,
            warmup_micros: 5 * 60 * 1_000_000,
        }
    }
}

/// Frame/packet-level counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SnifferStats {
    pub frames: u64,
    pub parse_errors: u64,
    /// Subset of `parse_errors`: frames cut short of a header or length
    /// field (snaplen truncation — the §3.2 vantage point's reality).
    pub frames_truncated: u64,
    /// Subset of `parse_errors`: frames failing a header checksum
    /// (on-the-wire corruption).
    pub checksum_errors: u64,
    pub dns_queries: u64,
    pub dns_responses: u64,
    pub dns_decode_errors: u64,
    /// Flow-start tag attempts and successes, outside warm-up.
    pub tag_attempts: u64,
    pub tag_hits: u64,
}

impl SnifferStats {
    /// Record one rejected frame, classing truncation and checksum failure
    /// apart from other malformations — the three fault families a passive
    /// capture point actually produces. Both drivers (sequential and
    /// pipeline dispatcher) route their parse rejects through here so the
    /// merged report counts each class identically.
    pub fn note_parse_error(&mut self, err: &dnhunter_net::NetError) {
        self.note_parse_fault(FrameFault::of(err));
    }

    /// [`SnifferStats::note_parse_error`] for the flat parser's
    /// pre-classified fault families — the hot-path form, no error value to
    /// inspect (or allocate).
    pub fn note_parse_fault(&mut self, fault: FrameFault) {
        self.parse_errors += 1;
        match fault {
            FrameFault::Truncated => self.frames_truncated += 1,
            FrameFault::Checksum => self.checksum_errors += 1,
            FrameFault::Malformed => {}
        }
    }
}

/// Timing samples for Figs. 12–13 and the useless-DNS fraction (Tab. 9).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DelaySamples {
    /// Per DNS response: µs until the *first* flow to any answered server.
    pub first_flow_delays: Vec<u64>,
    /// µs from a response to *every* subsequent flow using it.
    pub any_flow_delays: Vec<u64>,
    /// Responses (with at least one answer) never followed by a flow.
    pub useless_responses: u64,
    /// Responses carrying at least one A/AAAA answer.
    pub answered_responses: u64,
}

impl DelaySamples {
    /// Fraction of answered responses never followed by any flow.
    pub fn useless_fraction(&self) -> f64 {
        if self.answered_responses == 0 {
            0.0
        } else {
            self.useless_responses as f64 / self.answered_responses as f64
        }
    }
}

/// Everything the offline analyzer needs, produced by
/// [`RealTimeSniffer::finish`].
#[derive(Debug, PartialEq)]
pub struct SnifferReport {
    pub database: FlowDatabase,
    pub sniffer_stats: SnifferStats,
    pub resolver_stats: ResolverStats,
    pub delays: DelaySamples,
    /// Timestamp (µs) of every DNS response seen (Fig. 14 time series).
    pub dns_response_times: Vec<u64>,
    /// Answer-list length of every DNS response with answers (§6).
    pub answers_per_response: Vec<usize>,
    /// First and last frame timestamps.
    pub trace_start: Option<u64>,
    pub trace_end: Option<u64>,
    pub warmup_micros: u64,
}

/// The DN-Hunter real-time sniffer.
///
/// Feed it raw Ethernet frames (or pcap records) in timestamp order; it
/// demultiplexes DNS responses into the [`DnsResolver`], reconstructs every
/// other UDP/TCP flow, tags each flow at its first packet, and accumulates
/// the labeled-flow database.
///
/// This is the single-threaded driver: one `FrontEnd` feeding one
/// `ShardEngine` (`engine.rs`). The parallel [`crate::ParallelSniffer`]
/// runs the same front end on its dispatcher and the same engine per
/// worker, which is what makes its merge byte-identical to this sniffer's
/// output.
pub struct RealTimeSniffer {
    front: FrontEnd,
    engine: ShardEngine,
    /// Global frame sequence number (orders events in the merge).
    seq: u64,
}

impl RealTimeSniffer {
    /// Build a sniffer.
    pub fn new(config: SnifferConfig) -> Self {
        let resolver_config = config.resolver;
        RealTimeSniffer {
            front: FrontEnd::new(&config),
            engine: ShardEngine::new(config, resolver_config),
            seq: 0,
        }
    }

    /// Access the live resolver (e.g. to pre-warm it).
    pub fn resolver_mut(&mut self) -> &mut DnsResolver {
        self.engine.resolver_mut()
    }

    /// Install a streaming-analytics sink fed as flows are labeled and
    /// expire; retrieve it with [`RealTimeSniffer::finish_with_sinks`].
    pub fn set_sink(&mut self, sink: Box<dyn FlowSink>) {
        self.engine.set_sink(sink);
    }

    /// Frame counters so far.
    pub fn stats(&self) -> &SnifferStats {
        &self.engine.stats
    }

    /// Process one pcap record.
    pub fn process_record(&mut self, rec: &PcapRecord) {
        self.process_frame(rec.timestamp_micros(), &rec.frame);
    }

    /// Process one raw Ethernet frame with its capture timestamp (µs).
    pub fn process_frame(&mut self, ts: u64, frame: &[u8]) {
        self.process_frame_with_policy(ts, frame, None::<&mut crate::policy::RuleEnforcer>);
    }

    /// Like [`RealTimeSniffer::process_frame`], invoking `enforcer` at every
    /// flow start (with the label, when the resolver had one).
    pub fn process_frame_with_policy<E: PolicyEnforcer>(
        &mut self,
        ts: u64,
        frame: &[u8],
        enforcer: Option<&mut E>,
    ) {
        let seq = self.seq;
        self.seq += 1;
        let mut direct = Direct {
            engine: &mut self.engine,
            enforcer,
        };
        self.front.frame(seq, ts, frame, &mut direct);
    }

    /// Ingest one decoded flow-export record — the NetFlow/IPFIX-style
    /// regime, where the probe ships pre-aggregated flow summaries and
    /// mirrored DNS payloads instead of raw frames. DNS records feed
    /// Algorithm 1 exactly as sniffed responses do; flow records are
    /// tagged and emitted directly (there is nothing to reconstruct).
    pub fn ingest_export(&mut self, rec: &ExportRecord) {
        let seq = self.seq;
        self.seq += 1;
        let mut direct = Direct {
            engine: &mut self.engine,
            enforcer: None::<&mut crate::policy::RuleEnforcer>,
        };
        self.front.export(seq, rec, &mut direct);
    }

    /// End of trace: flush live flows and assemble the report.
    pub fn finish(self) -> SnifferReport {
        self.finish_with_sinks().0
    }

    /// [`RealTimeSniffer::finish`], also handing back the sink installed
    /// with [`RealTimeSniffer::set_sink`] (empty vec when none was). The
    /// one-element vec mirrors [`crate::ParallelSniffer::finish_with_sinks`]
    /// so drivers fold both shapes through the same code path.
    pub fn finish_with_sinks(mut self) -> (SnifferReport, Vec<Box<dyn FlowSink>>) {
        self.front.flush(&mut Direct {
            engine: &mut self.engine,
            enforcer: None::<&mut crate::policy::RuleEnforcer>,
        });
        let warmup = self.engine.config.warmup_micros;
        let mut out = self.engine.finish_shard();
        let sinks: Vec<Box<dyn FlowSink>> = out.sink.take().into_iter().collect();
        let report = assemble_report(
            vec![out],
            SnifferStats::default(),
            self.front.trace_start,
            self.front.trace_end,
            warmup,
        );
        (report, sinks)
    }
}

impl DaemonDriver for RealTimeSniffer {
    fn ingest(&mut self, rec: &SourcePoll) {
        match rec {
            SourcePoll::Ready(rec) => self.process_record(rec),
            SourcePoll::Export(rec) => self.ingest_export(rec),
            SourcePoll::Pending | SourcePoll::Eof => {}
        }
    }

    /// Retire windowed-analytics buckets below the rotation horizon,
    /// returning the retired `(bucket, partial)` pairs in bucket order.
    /// The horizon is `clock` clamped down to the oldest live flow's first
    /// timestamp (`FrontEnd::horizon`, the same call the
    /// [`crate::ParallelSniffer`] makes), so no window a live flow can
    /// still contribute to is ever emitted early.
    fn rotate(&mut self, clock: u64) -> (u64, Vec<(u64, StreamingAnalytics)>) {
        let horizon = self.front.horizon(clock);
        (horizon, self.engine.rotate(horizon))
    }
}

/// Where the [`FrontEnd`]'s engine events go — the one thing the two
/// drivers do differently with a frame.
pub(crate) trait EngineEvents {
    /// The counters the front end bumps: frames, parse faults, queries.
    fn stats(&mut self) -> &mut SnifferStats;
    /// The trace's first record arrived, at `ts`.
    fn trace_start(&mut self, seq: u64, ts: u64);
    /// A DNS response payload headed to `client` (the endpoint that
    /// asked); `over_tcp` means RFC 1035 §4.2.2 length-prefixed framing.
    fn dns(&mut self, seq: u64, ts: u64, client: IpAddr, payload: &[u8], over_tcp: bool);
    /// The flow table created a flow: the tagger's moment (Fig. 1).
    fn flow_started(&mut self, seq: u64, ts: u64, key: FlowKey);
    /// The flow table emitted a finished flow at merge position `at`.
    fn flow_finished(&mut self, at: EventKey, record: Box<FlowRecord>);
    /// A flow-export record: a flow that starts and finishes at once.
    fn flow_export(&mut self, seq: u64, rec: &FlowExportRecord);
}

/// The sequential driver's [`EngineEvents`]: every event goes straight
/// into the one engine, flow starts past the policy enforcer.
struct Direct<'a, E> {
    engine: &'a mut ShardEngine,
    enforcer: Option<&'a mut E>,
}

impl<E: PolicyEnforcer> EngineEvents for Direct<'_, E> {
    fn stats(&mut self) -> &mut SnifferStats {
        &mut self.engine.stats
    }

    fn trace_start(&mut self, _seq: u64, ts: u64) {
        self.engine.note_trace_start(ts);
    }

    fn dns(&mut self, seq: u64, ts: u64, client: IpAddr, payload: &[u8], over_tcp: bool) {
        self.engine
            .handle_dns_payload(seq, ts, client, payload, over_tcp);
    }

    fn flow_started(&mut self, seq: u64, ts: u64, key: FlowKey) {
        self.engine
            .on_flow_started(seq, ts, key, self.enforcer.as_deref_mut());
    }

    fn flow_finished(&mut self, at: EventKey, record: Box<FlowRecord>) {
        self.engine.on_flow_finished(at, &record);
    }

    fn flow_export(&mut self, seq: u64, rec: &FlowExportRecord) {
        self.engine.ingest_flow_export(seq, rec);
    }
}

/// Frame classification, written once for both drivers: the frame
/// counters, the trace bounds, the flat parse, the DNS demultiplexer, the
/// one [`FlowTable`] with its eviction-scan gate, the end-of-trace flush,
/// and the split of flow-export records into DNS and flow events. [`RealTimeSniffer`] runs it into its engine, the
/// [`crate::ParallelSniffer`] dispatcher into its shard batches; on the
/// same frames both see the same events under the same `(seq, phase)`
/// stamps.
pub(crate) struct FrontEnd {
    dns_port: u16,
    eviction_interval: u64,
    /// Eviction-scan clock: trace time of the last scan.
    last_eviction: u64,
    flows: FlowTable,
    pub(crate) trace_start: Option<u64>,
    pub(crate) trace_end: Option<u64>,
}

impl FrontEnd {
    pub(crate) fn new(config: &SnifferConfig) -> Self {
        FrontEnd {
            dns_port: config.dns_port,
            eviction_interval: config.flow_table.eviction_interval_micros,
            last_eviction: 0,
            flows: FlowTable::new(config.flow_table.clone()),
            trace_start: None,
            trace_end: None,
        }
    }

    /// Widen the trace bounds to `ts`; `true` for the trace's first record.
    fn note_ts(&mut self, ts: u64) -> bool {
        self.trace_end = Some(self.trace_end.map_or(ts, |t| t.max(ts)));
        let first = self.trace_start.is_none();
        self.trace_start.get_or_insert(ts);
        first
    }

    /// Classify one raw frame, `seq`-th of the trace, and hand whatever it
    /// produces to `out`.
    pub(crate) fn frame(&mut self, seq: u64, ts: u64, frame: &[u8], out: &mut impl EngineEvents) {
        out.stats().frames += 1;
        tm_count!(Tm::IngestFrames);
        if self.note_ts(ts) {
            out.trace_start(seq, ts);
        }
        let seg = match parse_flat(frame) {
            Ok(FlatParse::Seg(seg)) => seg,
            // Not reconstructed; never advances the eviction-scan clock.
            Ok(FlatParse::Opaque) => return,
            Err(fault) => {
                out.stats().note_parse_fault(fault);
                if telemetry::trace_enabled() {
                    tm_trace!(Te::FrameParse, seq, ts, fault as u64, frame.len() as u64);
                }
                return;
            }
        };
        // DNS demultiplexing: traffic to/from the DNS port is the
        // measurement channel, not user traffic. `parse_flat` yields only
        // TCP or UDP; TCP carries DNS after truncated UDP responses.
        let over_tcp = seg.proto != IpProtocol::Udp;
        if seg.src_port == self.dns_port {
            out.dns(seq, ts, seg.dst, seg.payload, over_tcp);
            return;
        }
        if seg.dst_port == self.dns_port {
            // A payload-free TCP segment is handshake, not a query.
            if !over_tcp || !seg.payload.is_empty() {
                out.stats().dns_queries += 1;
                tm_count!(Tm::IngestDnsQueries);
            }
            return;
        }
        // Everything else is a data segment: flow reconstruction, then the
        // periodic eviction scan this frame's timestamp may gate open.
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
        for event in self.flows.process_seg(ts, &cseg, seg.payload) {
            match event {
                FlowEvent::FlowStarted(key) => out.flow_started(seq, ts, key),
                FlowEvent::FlowFinished(record) => out.flow_finished((seq, PHASE_FRAME), record),
            }
        }
        if ts.saturating_sub(self.last_eviction) >= self.eviction_interval {
            self.last_eviction = ts;
            finished(self.flows.evict_idle(ts), (seq, PHASE_SCAN), out);
        }
    }

    /// Hand one flow-export record, `seq`-th of the stream, to `out`: it
    /// widens the trace bounds at its event time, a DNS record goes on as a
    /// UDP response, a flow record as a whole flow.
    pub(crate) fn export(&mut self, seq: u64, rec: &ExportRecord, out: &mut impl EngineEvents) {
        let ts = rec.event_ts();
        if self.note_ts(ts) {
            out.trace_start(seq, ts);
        }
        match rec {
            ExportRecord::Dns(d) => out.dns(seq, d.ts_micros, d.client, &d.message, false),
            ExportRecord::Flow(f) => out.flow_export(seq, f),
        }
    }

    /// The rotation horizon at packet-clock `clock`: clamped down to the
    /// oldest live flow's first packet, which will still emit into the
    /// bucket of its `first_ts` when it finishes.
    pub(crate) fn horizon(&self, clock: u64) -> u64 {
        self.flows
            .oldest_live_first_ts()
            .map_or(clock, |t| t.min(clock))
    }

    /// End of trace: emit every live flow, after every frame's events.
    pub(crate) fn flush(&mut self, out: &mut impl EngineEvents) {
        finished(self.flows.flush(), (u64::MAX, PHASE_SCAN), out);
    }
}

/// Hand a scan's or flush's finished flows to `out`, all stamped `at`.
fn finished(events: Vec<FlowEvent>, at: EventKey, out: &mut impl EngineEvents) {
    for event in events {
        if let FlowEvent::FlowFinished(record) = event {
            out.flow_finished(at, record);
        }
    }
}

impl SnifferReport {
    /// Hit ratio over post-warm-up flows: the paper's "DNS hit ratio".
    pub fn hit_ratio(&self) -> f64 {
        if self.sniffer_stats.tag_attempts == 0 {
            0.0
        } else {
            self.sniffer_stats.tag_hits as f64 / self.sniffer_stats.tag_attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PolicyAction, PolicyRule, RuleEnforcer};
    use dnhunter_dns::{codec, DnsMessage, QClass, QType, RData, ResourceRecord};
    use dnhunter_net::{build_tcp_v4, build_udp_v4, MacAddr, TcpFlags};
    use std::net::Ipv4Addr;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 5);
    const DNS_SERVER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);
    const WEB_SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

    fn mac(i: u64) -> MacAddr {
        MacAddr::from_id(i)
    }

    fn dns_response_frame(name: &str, servers: &[Ipv4Addr], id: u16) -> Vec<u8> {
        let q = DnsMessage::query(id, name.parse().unwrap(), QType::A);
        let answers = servers
            .iter()
            .map(|s| ResourceRecord {
                name: name.parse().unwrap(),
                class: QClass::In,
                ttl: 300,
                rdata: RData::A(*s),
            })
            .collect();
        let resp = DnsMessage::answer_to(&q, answers);
        build_udp_v4(
            mac(1),
            mac(2),
            DNS_SERVER,
            CLIENT,
            53,
            40000,
            &codec::encode(&resp).unwrap(),
        )
        .unwrap()
    }

    fn syn_frame(server: Ipv4Addr, dport: u16, sport: u16) -> Vec<u8> {
        build_tcp_v4(
            mac(1),
            mac(2),
            CLIENT,
            server,
            sport,
            dport,
            1,
            0,
            TcpFlags::SYN,
            &[],
        )
        .unwrap()
    }

    fn no_warmup_config() -> SnifferConfig {
        SnifferConfig {
            warmup_micros: 0,
            ..SnifferConfig::default()
        }
    }

    #[test]
    fn tags_flow_after_response() {
        let mut s = RealTimeSniffer::new(no_warmup_config());
        s.process_frame(
            1_000_000,
            &dns_response_frame("www.example.com", &[WEB_SERVER], 1),
        );
        s.process_frame(1_500_000, &syn_frame(WEB_SERVER, 443, 50001));
        let report = s.finish();
        assert_eq!(report.database.len(), 1);
        let f = &report.database.flows()[0];
        assert_eq!(f.fqdn.as_ref().unwrap().to_string(), "www.example.com");
        assert_eq!(f.tag_delay_micros, Some(500_000));
        assert_eq!(report.hit_ratio(), 1.0);
        assert_eq!(report.sniffer_stats.dns_responses, 1);
        assert_eq!(report.delays.first_flow_delays, vec![500_000]);
        assert_eq!(report.delays.useless_responses, 0);
    }

    #[test]
    fn midstream_flow_is_tagged_on_first_observed_segment() {
        // The capture starts mid-stream: the flow's first observed segment
        // is a data packet, no SYN ever seen. Algorithm 1 keys on
        // (client, server IP), not on handshake state, so the tagger must
        // still label the flow at that first segment.
        let mut s = RealTimeSniffer::new(no_warmup_config());
        s.process_frame(
            1_000_000,
            &dns_response_frame("cdn.example.com", &[WEB_SERVER], 7),
        );
        let data = build_tcp_v4(
            mac(1),
            mac(2),
            CLIENT,
            WEB_SERVER,
            50003,
            443,
            123_456,
            1,
            TcpFlags::PSH | TcpFlags::ACK,
            b"\x17\x03\x01\x00\x10opaque-appdata..",
        )
        .unwrap();
        s.process_frame(2_000_000, &data);
        let report = s.finish();
        assert_eq!(report.database.len(), 1);
        let f = &report.database.flows()[0];
        assert_eq!(f.fqdn.as_ref().unwrap().to_string(), "cdn.example.com");
        assert_eq!(report.hit_ratio(), 1.0);
    }

    #[test]
    fn flow_without_dns_is_untagged() {
        let mut s = RealTimeSniffer::new(no_warmup_config());
        s.process_frame(1_000_000, &syn_frame(WEB_SERVER, 80, 50002));
        let report = s.finish();
        assert_eq!(report.database.len(), 1);
        assert!(!report.database.flows()[0].is_tagged());
        assert_eq!(report.hit_ratio(), 0.0);
    }

    #[test]
    fn useless_response_is_counted() {
        let mut s = RealTimeSniffer::new(no_warmup_config());
        s.process_frame(
            1_000_000,
            &dns_response_frame("prefetch.example.com", &[WEB_SERVER], 2),
        );
        let report = s.finish();
        assert_eq!(report.delays.answered_responses, 1);
        assert_eq!(report.delays.useless_responses, 1);
        assert_eq!(report.delays.useless_fraction(), 1.0);
    }

    #[test]
    fn warmup_flows_excluded_from_hit_ratio() {
        let mut s = RealTimeSniffer::new(SnifferConfig {
            warmup_micros: 10_000_000,
            ..SnifferConfig::default()
        });
        // Flow at t=1s (inside warm-up): doesn't count.
        s.process_frame(1_000_000, &syn_frame(WEB_SERVER, 80, 50003));
        // Response + flow at t=20s: counts and hits.
        s.process_frame(
            20_000_000,
            &dns_response_frame("late.example.com", &[WEB_SERVER], 3),
        );
        s.process_frame(20_100_000, &syn_frame(WEB_SERVER, 443, 50004));
        let report = s.finish();
        assert_eq!(report.sniffer_stats.tag_attempts, 1);
        assert_eq!(report.sniffer_stats.tag_hits, 1);
        let warm: Vec<bool> = report
            .database
            .flows()
            .iter()
            .map(|f| f.in_warmup)
            .collect();
        assert!(warm.contains(&true) && warm.contains(&false));
    }

    #[test]
    fn second_flow_to_same_binding_counts_in_any_delays_only() {
        let mut s = RealTimeSniffer::new(no_warmup_config());
        s.process_frame(
            1_000_000,
            &dns_response_frame("multi.example.com", &[WEB_SERVER], 4),
        );
        s.process_frame(1_200_000, &syn_frame(WEB_SERVER, 443, 50005));
        s.process_frame(3_000_000, &syn_frame(WEB_SERVER, 443, 50006));
        let report = s.finish();
        assert_eq!(report.delays.first_flow_delays, vec![200_000]);
        assert_eq!(report.delays.any_flow_delays, vec![200_000, 2_000_000]);
    }

    #[test]
    fn policy_applies_at_first_packet() {
        let mut s = RealTimeSniffer::new(no_warmup_config());
        let mut enforcer =
            RuleEnforcer::new(vec![
                PolicyRule::new("zynga.com", PolicyAction::Block).unwrap()
            ]);
        s.process_frame(
            1_000_000,
            &dns_response_frame("farm.zynga.com", &[WEB_SERVER], 5),
        );
        s.process_frame_with_policy(
            1_100_000,
            &syn_frame(WEB_SERVER, 443, 50007),
            Some(&mut enforcer),
        );
        assert_eq!(enforcer.blocked(), 1);
        assert!(enforcer.decisions()[0].at_first_packet);
    }

    #[test]
    fn queries_are_counted_but_not_inserted() {
        let mut s = RealTimeSniffer::new(no_warmup_config());
        let q = DnsMessage::query(9, "ask.example.com".parse().unwrap(), QType::A);
        let frame = build_udp_v4(
            mac(1),
            mac(2),
            CLIENT,
            DNS_SERVER,
            40000,
            53,
            &codec::encode(&q).unwrap(),
        )
        .unwrap();
        s.process_frame(1_000, &frame);
        let report = s.finish();
        assert_eq!(report.sniffer_stats.dns_queries, 1);
        assert_eq!(report.sniffer_stats.dns_responses, 0);
    }

    #[test]
    fn garbage_frames_are_counted_as_parse_errors() {
        let mut s = RealTimeSniffer::new(no_warmup_config());
        s.process_frame(1, &[0u8; 7]);
        s.process_frame(2, b"not a frame at all, definitely not");
        assert_eq!(s.stats().parse_errors, 2);
    }

    #[test]
    fn answers_per_response_distribution_is_recorded() {
        let mut s = RealTimeSniffer::new(no_warmup_config());
        let many: Vec<Ipv4Addr> = (0..16).map(|i| Ipv4Addr::new(74, 125, 0, i)).collect();
        s.process_frame(1_000, &dns_response_frame("www.google.com", &many, 6));
        s.process_frame(
            2_000,
            &dns_response_frame("single.example.com", &[WEB_SERVER], 7),
        );
        let report = s.finish();
        assert_eq!(report.answers_per_response, vec![16, 1]);
    }

    /// The §6 alternative labels are the tagger's, not the packet path's:
    /// one flow fed as frames and as a flow-export record carries the same
    /// primary label and the same alternatives.
    #[test]
    fn exported_flows_get_the_same_alternative_labels_as_sniffed_ones() {
        let config = SnifferConfig {
            resolver: dnhunter_resolver::ResolverConfig {
                labels_per_server: 2,
                ..dnhunter_resolver::ResolverConfig::default()
            },
            ..no_warmup_config()
        };
        let names = ["first.example.com", "second.example.com"];

        let mut sniffed = RealTimeSniffer::new(config.clone());
        for (i, name) in names.iter().enumerate() {
            let ts = 1_000_000 + i as u64 * 100_000;
            sniffed.process_frame(ts, &dns_response_frame(name, &[WEB_SERVER], i as u16));
        }
        sniffed.process_frame(1_500_000, &syn_frame(WEB_SERVER, 443, 50010));
        let sniffed = sniffed.finish();

        let mut exported = RealTimeSniffer::new(config);
        for (i, name) in names.iter().enumerate() {
            let frame = dns_response_frame(name, &[WEB_SERVER], i as u16);
            let Ok(FlatParse::Seg(seg)) = parse_flat(&frame) else {
                panic!("response frame parses");
            };
            exported.ingest_export(&ExportRecord::Dns(dnhunter_net::DnsExportRecord {
                ts_micros: 1_000_000 + i as u64 * 100_000,
                client: IpAddr::V4(CLIENT),
                message: seg.payload.to_vec(),
            }));
        }
        exported.ingest_export(&ExportRecord::Flow(FlowExportRecord {
            first_ts: 1_500_000,
            last_ts: 1_500_000,
            client: IpAddr::V4(CLIENT),
            client_port: 50010,
            server: IpAddr::V4(WEB_SERVER),
            server_port: 443,
            ip_proto: 6,
            packets_c2s: 1,
            packets_s2c: 0,
            bytes_c2s: 0,
            bytes_s2c: 0,
        }));
        let exported = exported.finish();

        let (s, e) = (&sniffed.database.flows()[0], &exported.database.flows()[0]);
        assert_eq!(s.fqdn.as_ref().unwrap().to_string(), "second.example.com");
        assert_eq!(s.alt_labels.len(), 1, "sniffed flow has no alternative");
        assert_eq!(e.fqdn, s.fqdn);
        assert_eq!(
            e.alt_labels, s.alt_labels,
            "exported flow lost its alternatives"
        );
    }

    #[test]
    fn useless_fraction_with_no_answered_responses_is_zero() {
        // No answered responses at all: 0/0 must read as 0, not NaN.
        let d = DelaySamples::default();
        assert_eq!(d.useless_fraction(), 0.0);
    }

    #[test]
    fn useless_fraction_all_useless() {
        let d = DelaySamples {
            useless_responses: 4,
            answered_responses: 4,
            ..DelaySamples::default()
        };
        assert_eq!(d.useless_fraction(), 1.0);
    }

    #[test]
    fn useless_fraction_mixed() {
        let d = DelaySamples {
            first_flow_delays: vec![100, 200, 300],
            useless_responses: 1,
            answered_responses: 4,
            ..DelaySamples::default()
        };
        assert_eq!(d.useless_fraction(), 0.25);
    }
}
