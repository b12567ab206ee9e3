//! The per-shard sniffer engine.
//!
//! Everything the DN-Hunter real-time sniffer (paper Fig. 1) tracks *per
//! client shard* lives here: the shard's DNS resolver (Algorithm 1), its
//! flow table, pending tags, and delay samples. The single-threaded
//! [`crate::RealTimeSniffer`] drives exactly one engine; the parallel
//! [`crate::ParallelSniffer`] drives N of them, one per worker thread,
//! sharing this code path so the two produce identical per-event behaviour
//! by construction.
//!
//! Every output the engine accumulates is tagged with an [`EventKey`]
//! — `(dispatch sequence number, phase)` — which totally orders events
//! across shards exactly as the sequential sniffer would have emitted
//! them. [`assemble_report`] merges any number of shard outputs under that
//! order into the one [`SnifferReport`] the offline analytics consume.

use std::net::IpAddr;

use dnhunter_dns::suffix::SuffixSet;
use dnhunter_dns::DomainName;
use dnhunter_flow::{CompactSeg, FlowEvent, FlowKey, FlowTable};
use dnhunter_resolver::maps::{FnvHashMap, PairMap};
use dnhunter_resolver::{DnsResolver, InternStats, ResolverConfig, ResolverStats};
use dnhunter_telemetry::{
    self as telemetry, tm_count, tm_span, tm_trace, Metric as Tm, TraceEvent as Te,
};

use crate::db::{FlowDatabase, TaggedFlow};
use crate::policy::PolicyEnforcer;
use crate::sniffer::{DelaySamples, SnifferConfig, SnifferReport, SnifferStats};
use crate::stream::{FlowSink, StreamingAnalytics};

/// Total order on sniffer events across shards: `(seq, phase)`.
///
/// `seq` is the global frame sequence number assigned by whoever feeds the
/// engine (the sequential driver or the pipeline dispatcher). `phase`
/// separates the two event sources a single data frame can trigger, in
/// their sequential order: `0` for events of the frame itself (flow start,
/// port-reuse finish), `1` for the eviction scan that the same frame's
/// timestamp may gate open. Ties beyond the key are broken by the flow
/// table's deterministic `(first_ts, 5-tuple)` eviction order.
pub(crate) type EventKey = (u64, u8);

/// Phase of events produced directly by a frame.
pub(crate) const PHASE_FRAME: u8 = 0;
/// Phase of events produced by an eviction scan (tick) or the final flush.
pub(crate) const PHASE_SCAN: u8 = 1;

/// [`ResponseRecord::first_flow_delay`] of a response no flow has used yet.
const NO_FLOW: u64 = u64::MAX;

/// Book-keeping for one sniffed DNS response of any kind, tagged with its
/// frame seq: 32 bytes, off which the report's `dns_response_times`,
/// `answers_per_response` and first-flow delay samples are all read.
#[derive(Debug)]
struct ResponseRecord {
    seq: u64,
    ts: u64,
    /// µs from the response to the first flow it covered, or [`NO_FLOW`].
    first_flow_delay: u64,
    /// Answer addresses; 0 for truncated and answerless responses.
    answers: usize,
}

/// Tag assigned when a flow started.
#[derive(Debug, Clone)]
struct PendingTag {
    fqdn: Option<DomainName>,
    alt_labels: Vec<DomainName>,
    tag_delay: Option<u64>,
    in_warmup: bool,
}

/// One shard's accumulated output, ready to merge (see [`assemble_report`]).
pub(crate) struct ShardOutput {
    pub(crate) stats: SnifferStats,
    pub(crate) resolver_stats: ResolverStats,
    pub(crate) intern: InternStats,
    responses: Vec<ResponseRecord>,
    any_flow_delays: Vec<(u64, u64)>,
    tagged: Vec<(EventKey, TaggedFlow)>,
    /// The shard's streaming-analytics partial, riding back to the driver
    /// for the deterministic fold (`None` unless a sink was installed).
    pub(crate) sink: Option<Box<dyn FlowSink>>,
}

/// Per-shard sniffer state: one §3.1 resolver + one flow table + the
/// tagging and delay accounting of the paper's Fig. 1 fast path.
pub(crate) struct ShardEngine {
    pub(crate) config: SnifferConfig,
    resolver: DnsResolver,
    flows: FlowTable,
    pub(crate) stats: SnifferStats,
    pending_tags: FnvHashMap<FlowKey, PendingTag>,
    /// (client, server) → index into `responses` of the latest response
    /// binding that pair.
    response_index: PairMap<usize>,
    /// One record per DNS response seen, in arrival order (Fig. 14 time
    /// series, §6 answer counts, Figs. 12–13 first-flow delays).
    responses: Vec<ResponseRecord>,
    /// (seq, delay µs) from a response to every subsequent flow using it.
    any_flow_delays: Vec<(u64, u64)>,
    /// Finished flows in event order, awaiting the merge.
    tagged: Vec<(EventKey, TaggedFlow)>,
    /// First frame timestamp of the whole trace (not just this shard) —
    /// set by the driver, anchors the warm-up window.
    trace_start: Option<u64>,
    /// Optional streaming-analytics sink, fed as events happen (one per
    /// shard; the driver folds them after the run).
    sink: Option<Box<dyn FlowSink>>,
    /// Decode scratch: every UDP response is decoded into this one
    /// message, whose section `Vec`s keep their capacity.
    dns_scratch: dnhunter_dns::DnsMessage,
    /// Answer-list scratch for [`ShardEngine::handle_dns_message`].
    addr_scratch: Vec<IpAddr>,
}

impl ShardEngine {
    /// Build one engine. `resolver_config` is passed separately from
    /// `config.resolver` so the pipeline can hand each shard its partition
    /// of the Clist budget `L` (`L / workers`, remainder to the lowest
    /// shards, minimum 1).
    pub(crate) fn new(config: SnifferConfig, resolver_config: ResolverConfig) -> Self {
        ShardEngine {
            resolver: DnsResolver::with_config(resolver_config),
            flows: FlowTable::new(config.flow_table.clone()),
            stats: SnifferStats::default(),
            pending_tags: FnvHashMap::default(),
            response_index: PairMap::default(),
            responses: Vec::new(),
            any_flow_delays: Vec::new(),
            tagged: Vec::new(),
            trace_start: None,
            sink: None,
            dns_scratch: dnhunter_dns::DnsMessage::default(),
            addr_scratch: Vec::new(),
            config,
        }
    }

    /// Install a streaming-analytics sink. Events observed from here on
    /// are forwarded; the sink rides back in [`ShardOutput`] at the end.
    pub(crate) fn set_sink(&mut self, sink: Box<dyn FlowSink>) {
        self.sink = Some(sink);
    }

    /// Access the live resolver (e.g. to pre-warm it).
    pub(crate) fn resolver_mut(&mut self) -> &mut DnsResolver {
        &mut self.resolver
    }

    /// Anchor the warm-up window at the trace's first frame timestamp.
    /// Idempotent: only the first call takes effect.
    pub(crate) fn note_trace_start(&mut self, ts: u64) {
        if self.trace_start.is_none() {
            self.trace_start = Some(ts);
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.on_trace_start(ts);
            }
        }
    }

    /// Decode and apply one UDP DNS response payload. `client` is the
    /// packet's destination — the resolver the answer is headed to. Both
    /// drivers hand the raw payload bytes straight here; neither re-parses
    /// the frame.
    // lint_root(ingest): per-shard handler for attacker-controlled DNS responses
    pub(crate) fn handle_dns_payload(&mut self, seq: u64, ts: u64, client: IpAddr, payload: &[u8]) {
        let mut msg = std::mem::take(&mut self.dns_scratch);
        match dnhunter_dns::codec::decode_into(&mut msg, payload) {
            Ok(()) => self.handle_dns_message(seq, ts, client, &msg),
            Err(_) => self.stats.dns_decode_errors += 1,
        }
        self.dns_scratch = msg;
    }

    /// Common path for UDP and TCP responses. Truncated (TC-bit) responses
    /// are counted but carry no bindings — the client retries over TCP.
    // lint_root(ingest): per-shard handler for decoded (still untrusted) DNS messages
    pub(crate) fn handle_dns_message(
        &mut self,
        seq: u64,
        ts: u64,
        client: IpAddr,
        msg: &dnhunter_dns::DnsMessage,
    ) {
        if !msg.header.is_response {
            return;
        }
        self.stats.dns_responses += 1;
        tm_count!(Tm::DnsResponsesSniffed);
        let mut servers = std::mem::take(&mut self.addr_scratch);
        servers.clear();
        if !msg.header.truncated {
            servers.extend(msg.answer_address_iter());
            if let Some(name) = msg.queried_fqdn() {
                let outcome = self.resolver.insert(client, name, &servers);
                // Provenance: which response, what it bound, what it displaced.
                // The FQDN key is only hashed when a recorder is listening.
                if telemetry::trace_enabled() {
                    let fqdn_key = name.trace_key();
                    tm_trace!(Te::DnsResponse, seq, ts, fqdn_key, servers.len() as u64);
                    if outcome.bindings > 0 {
                        tm_trace!(Te::ResolverBind, seq, ts, fqdn_key, outcome.bindings);
                    }
                    if outcome.evicted > 0 {
                        tm_trace!(Te::ResolverEvict, seq, ts, fqdn_key, outcome.evicted);
                    }
                }
            }
        }
        let idx = self.responses.len();
        self.responses.push(ResponseRecord {
            seq,
            ts,
            first_flow_delay: NO_FLOW,
            answers: servers.len(),
        });
        if !servers.is_empty() {
            for &s in &servers {
                self.response_index.insert(client, s, idx);
            }
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.on_answered_response(ts);
            }
        }
        self.addr_scratch = servers;
    }

    /// Feed one data segment (anything that is not DNS) through the flow
    /// table, without an eviction scan — the driver owns the scan clock and
    /// calls [`ShardEngine::tick`]. Both drivers pre-parse: the sequential
    /// sniffer from its flat parse, the pipeline dispatcher shipping
    /// `CompactSeg`s plus DPI head bytes across the ring.
    // lint_root(ingest): per-shard handler for attacker-controlled TCP payload bytes
    pub(crate) fn process_seg<E: PolicyEnforcer>(
        &mut self,
        seq: u64,
        ts: u64,
        seg: &CompactSeg,
        head: &[u8],
        enforcer: &mut Option<&mut E>,
    ) {
        for event in self.flows.process_seg(ts, seg, head) {
            match event {
                FlowEvent::FlowStarted(key) => self.on_flow_started(seq, ts, key, enforcer),
                FlowEvent::FlowFinished(record) => {
                    self.on_flow_finished((seq, PHASE_FRAME), *record)
                }
            }
        }
    }

    /// Run one eviction scan, exactly when the sequential interval gate
    /// would have (the driver replicates that gate and broadcasts the tick).
    // lint_root(ingest): per-shard timer driven by the ingest clock domain
    pub(crate) fn tick(&mut self, seq: u64, now: u64) {
        for event in self.flows.evict_idle(now) {
            if let FlowEvent::FlowFinished(record) = event {
                self.on_flow_finished((seq, PHASE_SCAN), *record);
            }
        }
    }

    // lint_root(ingest): FlowTable callback driven per segment from ingest (dyn dispatch the call graph cannot see)
    fn on_flow_started<E: PolicyEnforcer>(
        &mut self,
        seq: u64,
        ts: u64,
        key: FlowKey,
        enforcer: &mut Option<&mut E>,
    ) {
        let mut tag = self.tag_flow_start(seq, ts, key.client, key.server);
        if telemetry::trace_enabled() {
            let server_key = key.server_trace_key();
            match &tag.fqdn {
                Some(name) => tm_trace!(Te::ResolverHit, seq, ts, server_key, name.trace_key()),
                None => tm_trace!(
                    Te::ResolverMiss,
                    seq,
                    ts,
                    server_key,
                    u64::from(tag.in_warmup)
                ),
            }
            tm_trace!(
                Te::FlowOpen,
                seq,
                ts,
                server_key,
                u64::from(key.server_port)
            );
        }
        // §6 extension: when the resolver keeps several labels per pair,
        // record the alternatives so downstream consumers can resolve
        // ambiguity themselves.
        if self.config.resolver.labels_per_server > 1 && tag.fqdn.is_some() {
            for alt in self.resolver.lookup_all(key.client, key.server) {
                // Distinct alternatives only; repeated resolutions of the
                // primary name are not ambiguity.
                if Some(&alt) != tag.fqdn.as_ref() && !tag.alt_labels.contains(&alt) {
                    tag.alt_labels.push(alt);
                }
            }
        }
        if let Some(e) = enforcer.as_deref_mut() {
            let _ = e.on_flow_start(key, tag.fqdn.as_ref());
        }
        self.pending_tags.insert(key, tag);
    }

    /// Tag a flow at its first packet, for both the packet path and the
    /// flow-record path: the resolver lookup (Algorithm 1 lines 27–34), the
    /// warm-up gate on hit accounting, and the delay accounting against the
    /// latest response covering `(client, server)`. Alternative labels are
    /// the caller's to add.
    fn tag_flow_start(&mut self, seq: u64, ts: u64, client: IpAddr, server: IpAddr) -> PendingTag {
        let in_warmup = self
            .trace_start
            .is_some_and(|t0| ts.saturating_sub(t0) < self.config.warmup_micros);
        let fqdn = self.resolver.lookup(client, server);
        if !in_warmup {
            self.stats.tag_attempts += 1;
            tm_count!(Tm::TagAttempts);
            if fqdn.is_some() {
                self.stats.tag_hits += 1;
                tm_count!(Tm::TagHits);
            }
        }
        let mut tag_delay = None;
        let covering = self.response_index.get(client, server);
        if let Some(rec) = covering.and_then(|&idx| self.responses.get_mut(idx)) {
            // Saturated one short of the sentinel, so a measured delay never
            // reads as "no flow yet".
            let delay = ts.saturating_sub(rec.ts).min(NO_FLOW - 1);
            let first = rec.first_flow_delay == NO_FLOW;
            if first {
                rec.first_flow_delay = delay;
            }
            // Keyed by the *flow's* frame seq: the sequential sniffer
            // appends this sample when the flow starts, not when the
            // response arrived.
            self.any_flow_delays.push((seq, delay));
            if let Some(sink) = self.sink.as_deref_mut() {
                if first {
                    sink.on_first_flow_delay(ts, delay);
                }
                sink.on_any_flow_delay(ts, delay);
            }
            tag_delay = Some(delay);
        }
        PendingTag {
            fqdn,
            alt_labels: Vec::new(),
            tag_delay,
            in_warmup,
        }
    }

    // lint_root(ingest): FlowTable callback driven per flow end from ingest (dyn dispatch the call graph cannot see)
    fn on_flow_finished(&mut self, at: EventKey, record: dnhunter_flow::FlowRecord) {
        let tag = self.pending_tags.remove(&record.key).unwrap_or(PendingTag {
            fqdn: None,
            alt_labels: Vec::new(),
            tag_delay: None,
            in_warmup: false,
        });
        let protocol = record.protocol_now();
        tm_count!(match protocol {
            dnhunter_flow::AppProtocol::Http => Tm::DpiHttp,
            dnhunter_flow::AppProtocol::Tls => Tm::DpiTls,
            dnhunter_flow::AppProtocol::P2p => Tm::DpiP2p,
            dnhunter_flow::AppProtocol::Dns => Tm::DpiDns,
            dnhunter_flow::AppProtocol::Mail => Tm::DpiMail,
            dnhunter_flow::AppProtocol::Chat => Tm::DpiChat,
            dnhunter_flow::AppProtocol::Other => Tm::DpiOther,
        });
        if telemetry::trace_enabled() {
            let server_key = record.key.server_trace_key();
            tm_trace!(
                Te::FlowVerdict,
                at.0,
                record.last_ts,
                server_key,
                protocol as u64
            );
            let bytes = record.bytes_c2s.saturating_add(record.bytes_s2c);
            tm_trace!(Te::FlowFinish, at.0, record.last_ts, server_key, bytes);
        }
        let tls = if protocol == dnhunter_flow::AppProtocol::Tls {
            Some(record.tls_info())
        } else {
            None
        };
        let flow = TaggedFlow {
            key: record.key,
            fqdn: tag.fqdn,
            second_level: None,
            alt_labels: tag.alt_labels,
            tag_delay_micros: tag.tag_delay,
            first_ts: record.first_ts,
            last_ts: record.last_ts,
            packets_c2s: record.packets_c2s,
            packets_s2c: record.packets_s2c,
            bytes_c2s: record.bytes_c2s,
            bytes_s2c: record.bytes_s2c,
            protocol,
            tls,
            in_warmup: tag.in_warmup,
        };
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.on_flow_finished(&flow);
        }
        self.tagged.push((at, flow));
    }

    /// Daemon-mode state rotation at the given packet-clock `horizon`:
    /// retire windowed sink buckets below it (returned for emission) and
    /// drain the accumulated sample streams so memory stays bounded on an
    /// unbounded stream. The horizon the driver passes is a *global* lower
    /// bound on all future event timestamps (rotation clock clamped to the
    /// oldest live flow's first packet), so nothing retired here can still
    /// be written to — except under injected reordering, which the sink
    /// counts. Draining is all-or-nothing rather than a timestamp-filtered
    /// prefix: rotation points are the same trace instants at every worker
    /// count, so a full drain is deterministic while a prefix split on
    /// per-shard sample order would not be. The final report therefore
    /// covers the post-rotation residue; the retired history lives in the
    /// rotated window stream.
    // lint_root(determinism): rotation fires at the same packet-clock instants at every worker count
    pub(crate) fn rotate(&mut self, horizon: u64) -> Vec<(u64, StreamingAnalytics)> {
        self.responses.clear();
        self.response_index.clear();
        self.any_flow_delays.clear();
        self.tagged.clear();
        match self.sink.as_deref_mut() {
            Some(sink) => sink.rotate(horizon),
            None => Vec::new(),
        }
    }

    /// Ingest one pre-aggregated flow export record (the NetFlow/IPFIX
    /// regime, paper-adjacent FlowDNS): no packets ever existed, so the
    /// flow starts *and* finishes here. Tagging, warm-up gating, and delay
    /// accounting run exactly as [`ShardEngine::on_flow_started`] would at
    /// the flow's first-packet time; DPI falls back to the server port
    /// (payload bytes don't exist in this regime).
    // lint_root(ingest): handler for attacker-controlled flow-record exports
    pub(crate) fn ingest_flow_export(&mut self, seq: u64, rec: &dnhunter_net::FlowExportRecord) {
        let tag = self.tag_flow_start(seq, rec.first_ts, rec.client, rec.server);
        let protocol = dnhunter_flow::AppProtocol::from_server_port(rec.server_port);
        tm_count!(match protocol {
            dnhunter_flow::AppProtocol::Http => Tm::DpiHttp,
            dnhunter_flow::AppProtocol::Tls => Tm::DpiTls,
            dnhunter_flow::AppProtocol::P2p => Tm::DpiP2p,
            dnhunter_flow::AppProtocol::Dns => Tm::DpiDns,
            dnhunter_flow::AppProtocol::Mail => Tm::DpiMail,
            dnhunter_flow::AppProtocol::Chat => Tm::DpiChat,
            dnhunter_flow::AppProtocol::Other => Tm::DpiOther,
        });
        tm_count!(Tm::FlowsStarted);
        tm_count!(Tm::FlowsFinished);
        let key = FlowKey::from_initiator(
            rec.client,
            rec.server,
            rec.client_port,
            rec.server_port,
            dnhunter_net::IpProtocol::from(rec.ip_proto),
        );
        let flow = TaggedFlow {
            key,
            fqdn: tag.fqdn,
            second_level: None,
            alt_labels: tag.alt_labels,
            tag_delay_micros: tag.tag_delay,
            first_ts: rec.first_ts,
            last_ts: rec.last_ts,
            packets_c2s: rec.packets_c2s,
            packets_s2c: rec.packets_s2c,
            bytes_c2s: rec.bytes_c2s,
            bytes_s2c: rec.bytes_s2c,
            protocol,
            tls: None,
            in_warmup: tag.in_warmup,
        };
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.on_flow_finished(&flow);
        }
        self.tagged.push(((seq, PHASE_FRAME), flow));
    }

    /// First-packet timestamp of the oldest still-live flow (rotation
    /// horizon clamp; see [`dnhunter_flow::FlowTable::oldest_live_first_ts`]).
    pub(crate) fn oldest_live_first_ts(&self) -> Option<u64> {
        self.flows.oldest_live_first_ts()
    }

    /// End of trace: flush live flows and hand over everything accumulated.
    pub(crate) fn finish_shard(mut self) -> ShardOutput {
        for event in self.flows.flush() {
            if let FlowEvent::FlowFinished(record) = event {
                self.on_flow_finished((u64::MAX, PHASE_SCAN), *record);
            }
        }
        ShardOutput {
            stats: self.stats,
            resolver_stats: *self.resolver.stats(),
            intern: self.resolver.intern_stats(),
            responses: self.responses,
            any_flow_delays: self.any_flow_delays,
            tagged: self.tagged,
            sink: self.sink,
        }
    }
}

fn add_sniffer_stats(into: &mut SnifferStats, from: &SnifferStats) {
    into.frames += from.frames;
    into.parse_errors += from.parse_errors;
    into.frames_truncated += from.frames_truncated;
    into.checksum_errors += from.checksum_errors;
    into.dns_queries += from.dns_queries;
    into.dns_responses += from.dns_responses;
    into.dns_decode_errors += from.dns_decode_errors;
    into.tag_attempts += from.tag_attempts;
    into.tag_hits += from.tag_hits;
}

fn add_resolver_stats(into: &mut ResolverStats, from: &ResolverStats) {
    into.responses += from.responses;
    into.bindings += from.bindings;
    into.replaced_same_fqdn += from.replaced_same_fqdn;
    into.replaced_different_fqdn += from.replaced_different_fqdn;
    into.evictions += from.evictions;
    into.lookups += from.lookups;
    into.hits += from.hits;
}

/// Merge shard outputs into the one [`SnifferReport`] the offline
/// analytics consume.
///
/// Counters are summed; every sample stream is re-ordered under the global
/// [`EventKey`] order (stable, so same-key samples keep their within-shard
/// order — a frame never splits across shards). Finished flows sort by
/// `(EventKey, first_ts, 5-tuple)`, reproducing the sequential sniffer's
/// database row order exactly: frame events precede the scan their frame
/// gated open, and scan evictions across shards interleave in the flow
/// table's deterministic `(first_ts, 5-tuple)` order. With one shard the
/// sort is the identity, so the sequential report *is* the merged report
/// of a single shard.
// lint_root(determinism): the deterministic merge that assembles the final report
pub(crate) fn assemble_report(
    outputs: Vec<ShardOutput>,
    dispatch_stats: SnifferStats,
    trace_start: Option<u64>,
    trace_end: Option<u64>,
    warmup_micros: u64,
) -> SnifferReport {
    let _merge_timer = tm_span!(Tm::MergeNanos);
    let mut stats = dispatch_stats;
    let mut resolver_stats = ResolverStats::default();
    let mut responses: Vec<ResponseRecord> = Vec::new();
    let mut any_flow_delays: Vec<(u64, u64)> = Vec::new();
    let mut tagged: Vec<(EventKey, TaggedFlow)> = Vec::new();
    for out in outputs {
        add_sniffer_stats(&mut stats, &out.stats);
        add_resolver_stats(&mut resolver_stats, &out.resolver_stats);
        responses.extend(out.responses);
        any_flow_delays.extend(out.any_flow_delays);
        tagged.extend(out.tagged);
    }
    responses.sort_by_key(|r| r.seq);
    any_flow_delays.sort_by_key(|&(seq, _)| seq);
    tagged.sort_by_key(|(at, f)| {
        (
            *at,
            f.first_ts,
            f.key.client,
            f.key.client_port,
            f.key.server,
            f.key.server_port,
            f.key.protocol,
        )
    });

    let mut delays = DelaySamples {
        any_flow_delays: any_flow_delays.into_iter().map(|(_, d)| d).collect(),
        ..DelaySamples::default()
    };
    // One pass over the response records, freed before the database is
    // built: every response has a time, answered ones a count and a delay.
    let mut dns_response_times = Vec::with_capacity(responses.len());
    let mut answers_per_response = Vec::new();
    for r in responses {
        dns_response_times.push(r.ts);
        if r.answers == 0 {
            continue;
        }
        answers_per_response.push(r.answers);
        delays.answered_responses += 1;
        match r.first_flow_delay {
            NO_FLOW => delays.useless_responses += 1,
            d => delays.first_flow_delays.push(d),
        }
    }

    let suffixes = SuffixSet::builtin();
    let mut database = FlowDatabase::new();
    for (_, flow) in tagged {
        database.push(flow, &suffixes);
    }

    SnifferReport {
        database,
        sniffer_stats: stats,
        resolver_stats,
        delays,
        dns_response_times,
        answers_per_response,
        trace_start,
        trace_end,
        warmup_micros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn stats(
        frames: u64,
        parse_errors: u64,
        frames_truncated: u64,
        checksum_errors: u64,
        dns_queries: u64,
        dns_responses: u64,
        dns_decode_errors: u64,
        tag_attempts: u64,
        tag_hits: u64,
    ) -> SnifferStats {
        SnifferStats {
            frames,
            parse_errors,
            frames_truncated,
            checksum_errors,
            dns_queries,
            dns_responses,
            dns_decode_errors,
            tag_attempts,
            tag_hits,
        }
    }

    #[test]
    fn per_response_state_is_one_record_and_one_packed_bucket() {
        assert_eq!(std::mem::size_of::<ResponseRecord>(), 32);
        assert_eq!(PairMap::<usize>::V4_BUCKET, 16);
    }

    #[test]
    fn clist_budget_splits_with_remainder_to_lowest_shards() {
        let capacities = |clist_size, workers| -> Vec<usize> {
            let mut config = SnifferConfig::default();
            config.resolver.clist_size = clist_size;
            crate::pipeline::shard_engines(&config, workers, &mut None)
                .iter()
                .map(|e| e.resolver.capacity())
                .collect()
        };
        // 103 over 4: never 25×4 = 100.
        assert_eq!(capacities(103, 4), [26, 26, 26, 25]);
        assert_eq!(capacities(100, 4), [25; 4]);
        // An empty Clist cannot hold a binding: round up to one per shard.
        assert_eq!(capacities(2, 4), [1; 4]);
    }

    #[test]
    fn sniffer_stats_accumulate_field_by_field() {
        let mut into = stats(10, 1, 1, 0, 2, 3, 0, 4, 2);
        add_sniffer_stats(&mut into, &stats(5, 2, 1, 1, 1, 2, 7, 3, 1));
        assert_eq!(into, stats(15, 3, 2, 1, 3, 5, 7, 7, 3));
    }

    #[test]
    fn sniffer_stats_zero_shard_is_identity() {
        let mut into = stats(10, 1, 1, 0, 2, 3, 4, 5, 6);
        add_sniffer_stats(&mut into, &SnifferStats::default());
        assert_eq!(into, stats(10, 1, 1, 0, 2, 3, 4, 5, 6));
    }

    #[test]
    fn note_parse_error_classifies_fault_families() {
        let mut s = SnifferStats::default();
        s.note_parse_error(&dnhunter_net::NetError::Truncated {
            layer: "ipv4",
            needed: 20,
            available: 7,
        });
        s.note_parse_error(&dnhunter_net::NetError::BadChecksum {
            layer: "ipv4",
            expected: 1,
            found: 2,
        });
        s.note_parse_error(&dnhunter_net::NetError::Unsupported {
            layer: "ethernet",
            detail: "arp".into(),
        });
        assert_eq!(s.parse_errors, 3);
        assert_eq!(s.frames_truncated, 1);
        assert_eq!(s.checksum_errors, 1);
    }

    #[test]
    fn resolver_stats_accumulate_field_by_field() {
        let mut into = ResolverStats {
            responses: 1,
            bindings: 2,
            replaced_same_fqdn: 3,
            replaced_different_fqdn: 4,
            evictions: 5,
            lookups: 6,
            hits: 7,
        };
        let from = ResolverStats {
            responses: 10,
            bindings: 20,
            replaced_same_fqdn: 30,
            replaced_different_fqdn: 40,
            evictions: 50,
            lookups: 60,
            hits: 70,
        };
        add_resolver_stats(&mut into, &from);
        assert_eq!(into.responses, 11);
        assert_eq!(into.bindings, 22);
        assert_eq!(into.replaced_same_fqdn, 33);
        assert_eq!(into.replaced_different_fqdn, 44);
        assert_eq!(into.evictions, 55);
        assert_eq!(into.lookups, 66);
        assert_eq!(into.hits, 77);
    }
}
