//! The real-time sniffer: DNS response sniffer + flow sniffer + flow tagger
//! (paper Fig. 1 and §3.1).

use dnhunter_dns::codec;
use dnhunter_flow::{CompactSeg, FlowTableConfig};
use dnhunter_net::seg::{parse_flat, FlatParse, FlatSeg, FrameFault};
use dnhunter_net::{IpProtocol, PcapRecord};
use dnhunter_resolver::{DnsResolver, ResolverConfig, ResolverStats};
use dnhunter_telemetry::{self as telemetry, tm_count, tm_trace, Metric as Tm, TraceEvent as Te};
use serde::{Deserialize, Serialize};

use crate::db::FlowDatabase;
use crate::engine::{assemble_report, ShardEngine};
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
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
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
/// This is the single-threaded driver over one
/// [`crate::engine::ShardEngine`] — the same engine the parallel
/// [`crate::ParallelSniffer`] runs per worker, which is what makes the
/// parallel merge byte-identical to this sniffer's output.
pub struct RealTimeSniffer {
    engine: ShardEngine,
    /// Global frame sequence number (orders events in the merge).
    seq: u64,
    /// Eviction-scan clock, replicating the flow table's interval gate.
    last_eviction: u64,
    trace_start: Option<u64>,
    trace_end: Option<u64>,
}

impl RealTimeSniffer {
    /// Build a sniffer.
    pub fn new(config: SnifferConfig) -> Self {
        let resolver_config = config.resolver;
        RealTimeSniffer {
            engine: ShardEngine::new(config, resolver_config),
            seq: 0,
            last_eviction: 0,
            trace_start: None,
            trace_end: None,
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
    // lint_root(ingest): sequential ingest entry, one call per captured frame
    pub fn process_frame(&mut self, ts: u64, frame: &[u8]) {
        self.process_frame_with_policy(ts, frame, None::<&mut crate::policy::RuleEnforcer>);
    }

    /// Like [`RealTimeSniffer::process_frame`], invoking `enforcer` at every
    /// flow start (with the label, when the resolver had one).
    // lint_root(ingest): sequential ingest entry, one call per captured frame
    pub fn process_frame_with_policy<E: PolicyEnforcer>(
        &mut self,
        ts: u64,
        frame: &[u8],
        mut enforcer: Option<&mut E>,
    ) {
        let seq = self.seq;
        self.seq += 1;
        self.engine.stats.frames += 1;
        tm_count!(Tm::IngestFrames);
        self.trace_start.get_or_insert(ts);
        self.engine.note_trace_start(ts);
        self.trace_end = Some(self.trace_end.map_or(ts, |t| t.max(ts)));
        let seg = match parse_flat(frame) {
            Ok(FlatParse::Seg(seg)) => seg,
            // Not reconstructed; never advances the eviction-scan clock
            // (matching `FlowTable::process`, which returned before its
            // internal scan gate for opaque transports).
            Ok(FlatParse::Opaque) => return,
            Err(fault) => {
                self.engine.stats.note_parse_fault(fault);
                if telemetry::trace_enabled() {
                    tm_trace!(Te::FrameParse, seq, ts, fault as u64, frame.len() as u64);
                }
                return;
            }
        };
        // DNS demultiplexing: traffic to/from the DNS port is the
        // measurement channel, not user traffic. TCP is used after
        // truncated UDP responses (RFC 1035 §4.2.2 framing).
        let dns_port = self.engine.config.dns_port;
        match seg.proto {
            IpProtocol::Udp => {
                if seg.src_port == dns_port {
                    self.engine
                        .handle_dns_payload(seq, ts, seg.dst, seg.payload);
                    return;
                }
                if seg.dst_port == dns_port {
                    self.engine.stats.dns_queries += 1;
                    tm_count!(Tm::IngestDnsQueries);
                    return;
                }
            }
            // `parse_flat` only yields TCP or UDP segments.
            _ => {
                if seg.src_port == dns_port {
                    for msg in codec::decode_tcp_stream(seg.payload) {
                        self.engine.handle_dns_message(seq, ts, seg.dst, &msg);
                    }
                    return;
                }
                if seg.dst_port == dns_port {
                    if !seg.payload.is_empty() {
                        self.engine.stats.dns_queries += 1;
                        tm_count!(Tm::IngestDnsQueries);
                    }
                    return;
                }
            }
        }
        // Everything else is a data segment: flow reconstruction + tagging,
        // then the same periodic eviction scan `FlowTable::process` ran
        // internally — driven here so the pipeline dispatcher can replicate
        // the identical gate when it broadcasts ticks to shard workers.
        let (cseg, head) = compact_seg(&seg);
        self.engine.process_seg(seq, ts, &cseg, head, &mut enforcer);
        if ts.saturating_sub(self.last_eviction)
            >= self.engine.config.flow_table.eviction_interval_micros
        {
            self.last_eviction = ts;
            self.engine.tick(seq, ts);
        }
    }

    /// Retire windowed-analytics buckets below the rotation horizon,
    /// returning the retired `(bucket, partial)` pairs in bucket order.
    /// The horizon is `clock` clamped down to the oldest live flow's first
    /// timestamp, so no window a live flow can still contribute to is ever
    /// emitted early — [`crate::ParallelSniffer::rotate`] computes the same
    /// horizon from its routing-table mirror, which is what makes rotated
    /// output identical at every worker count.
    // lint_root(determinism): sequential half of the rotation contract
    pub fn rotate(&mut self, clock: u64) -> (u64, Vec<(u64, StreamingAnalytics)>) {
        let horizon = self
            .engine
            .oldest_live_first_ts()
            .map_or(clock, |t| t.min(clock));
        (horizon, self.engine.rotate(horizon))
    }

    /// Ingest one decoded flow-export record — the NetFlow/IPFIX-style
    /// regime, where the probe ships pre-aggregated flow summaries and
    /// mirrored DNS payloads instead of raw frames. DNS records feed
    /// Algorithm 1 exactly as sniffed responses do; flow records are
    /// tagged and emitted directly (there is nothing to reconstruct).
    // lint_root(ingest): flow-export ingest entry, attacker-controlled records
    pub fn ingest_export(&mut self, rec: &dnhunter_net::ExportRecord) {
        let seq = self.seq;
        self.seq += 1;
        let ts = rec.event_ts();
        self.trace_start.get_or_insert(ts);
        self.engine.note_trace_start(ts);
        self.trace_end = Some(self.trace_end.map_or(ts, |t| t.max(ts)));
        match rec {
            dnhunter_net::ExportRecord::Dns(d) => {
                self.engine
                    .handle_dns_payload(seq, d.ts_micros, d.client, &d.message);
            }
            dnhunter_net::ExportRecord::Flow(f) => {
                self.engine.ingest_flow_export(seq, f);
            }
        }
    }

    /// End of trace: flush live flows and assemble the report.
    pub fn finish(self) -> SnifferReport {
        self.finish_with_sinks().0
    }

    /// [`RealTimeSniffer::finish`], also handing back the sink installed
    /// with [`RealTimeSniffer::set_sink`] (empty vec when none was). The
    /// one-element vec mirrors [`crate::ParallelSniffer::finish_with_sinks`]
    /// so drivers fold both shapes through the same code path.
    pub fn finish_with_sinks(self) -> (SnifferReport, Vec<Box<dyn FlowSink>>) {
        let warmup = self.engine.config.warmup_micros;
        let mut out = self.engine.finish_shard();
        let sinks: Vec<Box<dyn FlowSink>> = out.sink.take().into_iter().collect();
        let report = assemble_report(
            vec![out],
            SnifferStats::default(),
            self.trace_start,
            self.trace_end,
            warmup,
        );
        (report, sinks)
    }
}

/// Project a flat-parsed segment onto the flow table's
/// ([`CompactSeg`], head bytes) shape — shared by the sequential driver
/// and the pipeline dispatcher.
pub(crate) fn compact_seg<'a>(seg: &FlatSeg<'a>) -> (CompactSeg, &'a [u8]) {
    (
        CompactSeg {
            src: seg.src,
            src_port: seg.src_port,
            dst: seg.dst,
            dst_port: seg.dst_port,
            proto: seg.proto,
            tcp_flags: seg.tcp_flags,
            tcp_seq: seg.tcp_seq,
            wire_bytes: seg.wire_bytes,
            payload_len: seg.payload.len(),
        },
        seg.payload,
    )
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
    use dnhunter_dns::{DnsMessage, QClass, QType, RData, ResourceRecord};
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
