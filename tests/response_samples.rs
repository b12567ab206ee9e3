//! The per-response sample streams of a [`SnifferReport`], pinned on a
//! hand-built trace.
//!
//! `dns_response_times` (Fig. 14), `answers_per_response` (§6) and the
//! delay samples (Figs. 12–13, Tab. 9's useless fraction) come from the
//! engine's per-response bookkeeping, which simnet traces exercise only in
//! aggregate. Here every sample is known in advance: a truncated response
//! (counted, never bound), an NXDOMAIN (counted, no answers), a
//! multi-answer response, two TCP-framed responses in one segment (one
//! frame sequence number, two records), an IPv6 client, and a flow-record
//! DNS export. The frame trace must also come out byte-identical from the
//! parallel sniffer at two workers.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use dnhunter::{ParallelSniffer, RealTimeSniffer, SnifferConfig};
use dnhunter_dns::{codec, DnsMessage, QClass, QType, RData, Rcode, ResourceRecord};
use dnhunter_net::{
    build_tcp_v4, build_tcp_v6, build_udp_v4, build_udp_v6, DnsExportRecord, ExportRecord,
    FlowExportRecord, MacAddr, TcpFlags,
};

const DNS4: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);
const C1: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const DNS6: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0x53, 0, 0, 0, 0, 0x53);
const C6: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0xaa, 0, 0, 0, 0, 6);
const S8: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0x5, 0, 0, 0, 0, 8);

/// Server `i` of the IPv4 universe.
fn s(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(93, 184, 216, i)
}

fn config() -> SnifferConfig {
    SnifferConfig {
        warmup_micros: 0,
        ..SnifferConfig::default()
    }
}

/// A response to an A (or AAAA) query for `name` carrying `answers`.
fn response(id: u16, name: &str, answers: &[IpAddr]) -> DnsMessage {
    let qtype = match answers.first() {
        Some(IpAddr::V6(_)) => QType::Aaaa,
        _ => QType::A,
    };
    let q = DnsMessage::query(id, name.parse().expect("name"), qtype);
    let answers = answers
        .iter()
        .map(|ip| ResourceRecord {
            name: name.parse().expect("name"),
            class: QClass::In,
            ttl: 300,
            rdata: match *ip {
                IpAddr::V4(a) => RData::A(a),
                IpAddr::V6(a) => RData::Aaaa(a),
            },
        })
        .collect();
    DnsMessage::answer_to(&q, answers)
}

fn truncated(id: u16, name: &str, answers: &[IpAddr]) -> DnsMessage {
    let mut msg = response(id, name, answers);
    msg.header.truncated = true;
    msg
}

fn nxdomain(id: u16, name: &str) -> DnsMessage {
    let q = DnsMessage::query(id, name.parse().expect("name"), QType::A);
    DnsMessage::error_to(&q, Rcode::NxDomain)
}

fn udp4(msg: &DnsMessage) -> Vec<u8> {
    let payload = codec::encode(msg).expect("encode");
    build_udp_v4(
        MacAddr::from_id(1),
        MacAddr::from_id(2),
        DNS4,
        C1,
        53,
        40000,
        &payload,
    )
    .expect("frame")
}

fn syn4(server: Ipv4Addr, sport: u16) -> Vec<u8> {
    build_tcp_v4(
        MacAddr::from_id(2),
        MacAddr::from_id(1),
        C1,
        server,
        sport,
        443,
        1,
        0,
        TcpFlags::SYN,
        &[],
    )
    .expect("frame")
}

fn v4(a: Ipv4Addr) -> IpAddr {
    IpAddr::V4(a)
}

/// The frame trace, `(ts µs, frame)` in capture order.
fn frames() -> Vec<(u64, Vec<u8>)> {
    // Two length-prefixed responses in one TCP segment (RFC 1035 §4.2.2).
    let mut tcp_payload =
        codec::encode_tcp(&response(5, "tcp1.example.com", &[v4(s(5))])).expect("encode");
    tcp_payload.extend(
        codec::encode_tcp(&response(6, "tcp2.example.com", &[v4(s(6)), v4(s(7))])).expect("encode"),
    );
    let tcp = build_tcp_v4(
        MacAddr::from_id(1),
        MacAddr::from_id(2),
        DNS4,
        C1,
        53,
        40001,
        1,
        1,
        TcpFlags::PSH | TcpFlags::ACK,
        &tcp_payload,
    )
    .expect("frame");
    let v6_response = build_udp_v6(
        MacAddr::from_id(1),
        MacAddr::from_id(2),
        DNS6,
        C6,
        53,
        40002,
        &codec::encode(&response(7, "v6.example.com", &[IpAddr::V6(S8)])).expect("encode"),
    )
    .expect("frame");
    let v6_syn = build_tcp_v6(
        MacAddr::from_id(2),
        MacAddr::from_id(1),
        C6,
        S8,
        50010,
        443,
        1,
        0,
        TcpFlags::SYN,
        &[],
    )
    .expect("frame");
    vec![
        (
            1_000_000,
            udp4(&response(1, "www.example.com", &[v4(s(1))])),
        ),
        // The answer of a truncated response is never bound (the client
        // retries over TCP), so the flow to s(9) below stays untagged.
        (
            1_100_000,
            udp4(&truncated(2, "big.example.com", &[v4(s(9))])),
        ),
        (1_200_000, udp4(&nxdomain(3, "nx.example.com"))),
        (
            1_300_000,
            udp4(&response(
                4,
                "cdn.example.com",
                &[v4(s(2)), v4(s(3)), v4(s(4))],
            )),
        ),
        (1_400_000, tcp),
        (1_500_000, v6_response),
        (2_000_000, syn4(s(1), 50001)),
        (2_500_000, syn4(s(3), 50002)),
        (2_600_000, syn4(s(2), 50003)),
        (3_000_000, syn4(s(7), 50004)),
        (3_100_000, v6_syn),
        (3_200_000, syn4(s(1), 50005)),
        (3_300_000, syn4(s(9), 50006)),
    ]
}

#[test]
fn every_response_kind_lands_in_the_right_sample_stream() {
    let mut sniffer = RealTimeSniffer::new(config());
    for (ts, frame) in frames() {
        sniffer.process_frame(ts, &frame);
    }
    let report = sniffer.finish();

    // Every response, truncated and answerless ones included; the two
    // TCP-framed responses share their segment's timestamp.
    assert_eq!(
        report.dns_response_times,
        [1_000_000, 1_100_000, 1_200_000, 1_300_000, 1_400_000, 1_400_000, 1_500_000]
    );
    assert_eq!(report.sniffer_stats.dns_responses, 7);
    // Answered responses only, in capture order: www, cdn, tcp1, tcp2, v6.
    assert_eq!(report.answers_per_response, [1, 3, 1, 2, 1]);
    assert_eq!(report.delays.answered_responses, 5);
    // First flow per answered response, in response order; tcp1's server
    // never sees a flow.
    assert_eq!(
        report.delays.first_flow_delays,
        [1_000_000, 1_200_000, 1_600_000, 1_600_000]
    );
    assert_eq!(report.delays.useless_responses, 1);
    // Every flow that found a covering response, in flow order; the flow
    // to the truncated response's address found none.
    assert_eq!(
        report.delays.any_flow_delays,
        [1_000_000, 1_200_000, 1_300_000, 1_600_000, 1_600_000, 2_200_000]
    );
    assert_eq!(report.sniffer_stats.tag_attempts, 7);
    assert_eq!(report.sniffer_stats.tag_hits, 6);
    let untagged: Vec<IpAddr> = report
        .database
        .flows()
        .iter()
        .filter(|f| !f.is_tagged())
        .map(|f| f.key.server)
        .collect();
    assert_eq!(untagged, [v4(s(9))]);
}

#[test]
fn two_workers_report_the_same_samples() {
    let mut seq = RealTimeSniffer::new(config());
    let mut par = ParallelSniffer::new(config(), 2);
    for (ts, frame) in frames() {
        seq.process_frame(ts, &frame);
        par.process_frame(ts, &frame);
    }
    assert_eq!(par.finish(), seq.finish());
}

#[test]
fn flow_record_exports_feed_the_same_samples() {
    let dns = |ts_micros, client, msg: &DnsMessage| {
        ExportRecord::Dns(DnsExportRecord {
            ts_micros,
            client,
            message: codec::encode(msg).expect("encode"),
        })
    };
    let flow = |first_ts, server, client_port| {
        ExportRecord::Flow(FlowExportRecord {
            first_ts,
            last_ts: first_ts + 50_000,
            client: v4(C1),
            client_port,
            server,
            server_port: 443,
            ip_proto: 6,
            packets_c2s: 3,
            packets_s2c: 2,
            bytes_c2s: 300,
            bytes_s2c: 2_000,
        })
    };
    let records = [
        dns(
            1_000_000,
            v4(C1),
            &response(1, "rec.example.com", &[v4(s(1)), v4(s(2))]),
        ),
        dns(
            1_100_000,
            IpAddr::V6(C6),
            &response(2, "rec6.example.com", &[IpAddr::V6(S8)]),
        ),
        dns(
            1_200_000,
            v4(C1),
            &truncated(3, "big.example.com", &[v4(s(9))]),
        ),
        flow(1_500_000, v4(s(2)), 50001),
        flow(1_700_000, v4(s(1)), 50002),
        flow(1_800_000, v4(s(9)), 50003),
    ];
    let mut sniffer = RealTimeSniffer::new(config());
    for rec in &records {
        sniffer.ingest_export(rec);
    }
    let report = sniffer.finish();
    assert_eq!(report.dns_response_times, [1_000_000, 1_100_000, 1_200_000]);
    assert_eq!(report.answers_per_response, [2, 1]);
    assert_eq!(report.delays.answered_responses, 2);
    assert_eq!(report.delays.first_flow_delays, [500_000]);
    assert_eq!(report.delays.useless_responses, 1);
    assert_eq!(report.delays.any_flow_delays, [500_000, 700_000]);
    assert_eq!(report.sniffer_stats.tag_attempts, 3);
    assert_eq!(report.sniffer_stats.tag_hits, 2);
}
