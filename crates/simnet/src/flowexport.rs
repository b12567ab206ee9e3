//! Deterministic flow-export emitter: the NetFlow/IPFIX-style view of a
//! generated trace.
//!
//! A flow probe at the same vantage point as the packet sniffer sees the
//! same traffic but ships a different stream: mirrored DNS payloads the
//! moment they pass, and one pre-aggregated summary per flow when the
//! probe's flush cycle exports it — *after* the flow's last packet, with
//! seeded jitter standing in for the flush period. The transform is a pure
//! function of the generated pcap records plus the seed, so the same
//! profile/seed pair always yields byte-identical export streams (the
//! property the flow-record daemon's tests lean on).
//!
//! Export order is deliberately **not** event order: DNS mirrors lead
//! their flows (as in the real regime), but two flows export in flush
//! order, not start order — the reorder buffer in
//! `dnhunter_net::FlowRecSource` is what puts events back on the clock.

use std::collections::HashMap;
use std::net::IpAddr;

use dnhunter_flow::CanonFlowKey;
use dnhunter_net::seg::{parse_flat, FlatParse};
use dnhunter_net::{DnsExportRecord, ExportRecord, FlowExportRecord, IpProtocol, PcapRecord};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Export jitter on a mirrored DNS payload (µs): the probe forwards DNS
/// nearly immediately.
const DNS_EXPORT_JITTER_MICROS: u64 = 50_000;
/// Export jitter past a flow's last packet (µs): the probe's flush cycle.
const FLOW_EXPORT_JITTER_MICROS: u64 = 2_000_000;

/// One flow's accumulating summary.
struct FlowAgg {
    first_ts: u64,
    last_ts: u64,
    client: IpAddr,
    client_port: u16,
    server: IpAddr,
    server_port: u16,
    ip_proto: u8,
    packets_c2s: u64,
    packets_s2c: u64,
    bytes_c2s: u64,
    bytes_s2c: u64,
}

/// Transform generated pcap records into the export stream a flow probe
/// would ship: DNS responses (UDP from the DNS port) as mirrored payloads,
/// every other UDP/TCP segment folded into per-flow summaries keyed by the
/// canonical 5-tuple with the first sender as the client — the same
/// orientation rule the flow table applies to an unseen 5-tuple.
pub fn export_stream(records: &[PcapRecord], seed: u64, dns_port: u16) -> Vec<ExportRecord> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0066_6c6f_7772_6563);
    // (export_ts, tie-break, record): sorted at the end into probe order.
    let mut out: Vec<(u64, u64, ExportRecord)> = Vec::new();
    let mut flows: HashMap<CanonFlowKey, usize> = HashMap::new();
    let mut aggs: Vec<FlowAgg> = Vec::new();
    for rec in records {
        let ts = rec.timestamp_micros();
        let Ok(FlatParse::Seg(seg)) = parse_flat(&rec.frame) else {
            continue;
        };
        if seg.src_port == dns_port {
            // Mirror UDP DNS responses only: real probes rarely reassemble
            // the TCP fallback, and the daemon's skew metrics should see
            // the same gap.
            if seg.proto == IpProtocol::Udp && !seg.payload.is_empty() {
                let export_ts = ts + rng.gen_range(0..DNS_EXPORT_JITTER_MICROS);
                out.push((
                    export_ts,
                    ts,
                    ExportRecord::Dns(DnsExportRecord {
                        ts_micros: ts,
                        client: seg.dst,
                        message: seg.payload.to_vec(),
                    }),
                ));
            }
            continue;
        }
        if seg.dst_port == dns_port {
            continue; // queries are not exported
        }
        let key = CanonFlowKey::of(seg.src, seg.src_port, seg.dst, seg.dst_port, seg.proto);
        let idx = *flows.entry(key).or_insert_with(|| {
            aggs.push(FlowAgg {
                first_ts: ts,
                last_ts: ts,
                client: seg.src,
                client_port: seg.src_port,
                server: seg.dst,
                server_port: seg.dst_port,
                ip_proto: seg.proto.number(),
                packets_c2s: 0,
                packets_s2c: 0,
                bytes_c2s: 0,
                bytes_s2c: 0,
            });
            aggs.len() - 1
        });
        let agg = &mut aggs[idx];
        agg.last_ts = agg.last_ts.max(ts);
        let from_client = seg.src == agg.client && seg.src_port == agg.client_port;
        if from_client {
            agg.packets_c2s += 1;
            agg.bytes_c2s += seg.wire_bytes as u64;
        } else {
            agg.packets_s2c += 1;
            agg.bytes_s2c += seg.wire_bytes as u64;
        }
    }
    // Jitter draws happen in first-seen flow order: deterministic for a
    // fixed record stream and seed.
    for agg in aggs {
        let export_ts = agg.last_ts + rng.gen_range(0..FLOW_EXPORT_JITTER_MICROS);
        out.push((
            export_ts,
            agg.first_ts,
            ExportRecord::Flow(FlowExportRecord {
                first_ts: agg.first_ts,
                last_ts: agg.last_ts,
                client: agg.client,
                client_port: agg.client_port,
                server: agg.server,
                server_port: agg.server_port,
                ip_proto: agg.ip_proto,
                packets_c2s: agg.packets_c2s,
                packets_s2c: agg.packets_s2c,
                bytes_c2s: agg.bytes_c2s,
                bytes_s2c: agg.bytes_s2c,
            }),
        ));
    }
    out.sort_by_key(|&(export_ts, tie, _)| (export_ts, tie));
    out.into_iter().map(|(_, _, rec)| rec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profiles, TraceGenerator};
    use dnhunter_net::flowrec::encode_stream;

    fn tiny_trace() -> Vec<PcapRecord> {
        let mut profile = profiles::profile_by_name("EU1-FTTH").unwrap().scaled(0.02);
        profile.seed = 42;
        TraceGenerator::new(profile, false).generate().records
    }

    #[test]
    fn export_stream_is_deterministic_and_nonempty() {
        let records = tiny_trace();
        let a = export_stream(&records, 7, 53);
        let b = export_stream(&records, 7, 53);
        assert!(!a.is_empty());
        assert_eq!(encode_stream(&a), encode_stream(&b));
        let dns = a
            .iter()
            .filter(|r| matches!(r, ExportRecord::Dns(_)))
            .count();
        let flows = a.len() - dns;
        assert!(dns > 0, "no DNS mirrors in export stream");
        assert!(flows > 0, "no flow summaries in export stream");
    }

    #[test]
    fn export_order_is_monotone_in_export_time_not_event_time() {
        let records = tiny_trace();
        let stream = export_stream(&records, 7, 53);
        // Event times must arrive out of order somewhere (flows export at
        // flush time), or the reorder buffer would be untestable here.
        let event_ts: Vec<u64> = stream.iter().map(|r| r.event_ts()).collect();
        assert!(
            event_ts.windows(2).any(|w| w[1] < w[0]),
            "export stream is accidentally event-ordered; jitter model broken"
        );
    }

    #[test]
    fn different_seed_changes_export_order_only_in_jitter() {
        let records = tiny_trace();
        let a = export_stream(&records, 1, 53);
        let b = export_stream(&records, 2, 53);
        assert_eq!(a.len(), b.len(), "seed must not change record count");
    }
}
