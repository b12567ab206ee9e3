//! Packet-level synthesis of one flow.
//!
//! Every flow becomes a realistic TCP exchange: handshake, payload by
//! protocol personality, bulk transfer, orderly close — all as checksummed
//! Ethernet frames the sniffer has to parse like real traffic.

use std::net::{Ipv4Addr, Ipv6Addr};

use dnhunter_flow::{bittorrent, http, tls};
use dnhunter_net::{build_tcp_v4, build_tcp_v6, MacAddr, TcpFlags};

use crate::catalog::{CertPolicy, PayloadStyle};

/// Maximum transport payload per synthetic bulk packet. Larger than an MTU
/// — the capture sees what a segmentation-offload NIC would deliver, which
/// keeps packet counts manageable without distorting byte accounting.
const BULK_SEGMENT: usize = 15_000;

/// Specification of one flow to synthesize.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    pub client: Ipv4Addr,
    pub server: Ipv4Addr,
    pub client_mac: MacAddr,
    pub server_mac: MacAddr,
    pub sport: u16,
    pub dport: u16,
    /// First-packet timestamp (µs, trace-relative).
    pub start: u64,
    /// Round-trip time (µs).
    pub rtt: u64,
    pub style: PayloadStyle,
    /// The FQDN the client believes it is contacting (Host header / SNI).
    pub fqdn: String,
    /// Its second-level domain (wildcard certificates).
    pub sld: String,
    pub cert: CertPolicy,
    /// TLS session resumption: server sends no certificate.
    pub resume: bool,
    /// Whether the ClientHello carries SNI.
    pub sni: bool,
    /// Certificate CN when `cert == CdnName` (e.g. `a248.e.akamai.net`).
    pub cdn_cert_name: Option<String>,
    /// Application bytes client→server / server→client.
    pub req_bytes: u32,
    pub resp_bytes: u32,
    /// Seed for deterministic filler bytes.
    pub seed: u64,
}

/// One synthesized frame with its timestamp.
pub type TimedFrame = (u64, Vec<u8>);

/// Internal helper carrying sequence state.
struct TcpStream<'a> {
    spec: &'a FlowSpec,
    frames: Vec<TimedFrame>,
    seq_c: u32,
    seq_s: u32,
    t: u64,
}

impl<'a> TcpStream<'a> {
    fn new(spec: &'a FlowSpec) -> Self {
        TcpStream {
            seq_c: (spec.seed as u32) | 1,
            seq_s: (spec.seed >> 32) as u32 | 1,
            t: spec.start,
            spec,
            frames: Vec::with_capacity(12),
        }
    }

    fn push(&mut self, from_client: bool, flags: TcpFlags, payload: &[u8]) {
        let s = self.spec;
        let (src, dst, sm, dm, sp, dp, seq, ack) = if from_client {
            (
                s.client,
                s.server,
                s.client_mac,
                s.server_mac,
                s.sport,
                s.dport,
                self.seq_c,
                self.seq_s,
            )
        } else {
            (
                s.server,
                s.client,
                s.server_mac,
                s.client_mac,
                s.dport,
                s.sport,
                self.seq_s,
                self.seq_c,
            )
        };
        let frame = build_tcp_v4(sm, dm, src, dst, sp, dp, seq, ack, flags, payload)
            .expect("synthesized frame is valid");
        self.frames.push((self.t, frame));
        let advance = payload.len() as u32 + u32::from(flags.syn()) + u32::from(flags.fin());
        if from_client {
            self.seq_c = self.seq_c.wrapping_add(advance);
        } else {
            self.seq_s = self.seq_s.wrapping_add(advance);
        }
    }

    fn wait(&mut self, micros: u64) {
        self.t += micros;
    }
}

/// Deterministic filler bytes.
fn filler(len: usize, seed: u64) -> Vec<u8> {
    let mut out = vec![0u8; len];
    let mut s = seed | 1;
    for b in out.iter_mut() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (s >> 33) as u8;
    }
    out
}

/// Synthesize one complete client-initiated TCP flow.
pub fn synthesize(spec: &FlowSpec) -> Vec<TimedFrame> {
    let mut s = TcpStream::new(spec);
    let rtt = spec.rtt.max(2_000);
    let half = rtt / 2;

    // Three-way handshake.
    s.push(true, TcpFlags::SYN, &[]);
    s.wait(rtt);
    s.push(false, TcpFlags::SYN | TcpFlags::ACK, &[]);
    s.wait(half);
    s.push(true, TcpFlags::ACK, &[]);
    s.wait(1_000);

    // Application conversation.
    let (c2s_first, s2c_first) = app_payloads(spec);
    match spec.style {
        PayloadStyle::Smtp | PayloadStyle::Pop3 | PayloadStyle::Imap => {
            // Server banner goes first for mail protocols.
            s.push(false, TcpFlags::PSH | TcpFlags::ACK, &s2c_first);
            s.wait(half);
            s.push(true, TcpFlags::PSH | TcpFlags::ACK, &c2s_first);
            s.wait(rtt);
        }
        _ => {
            s.push(true, TcpFlags::PSH | TcpFlags::ACK, &c2s_first);
            s.wait(rtt);
            if !s2c_first.is_empty() {
                s.push(false, TcpFlags::PSH | TcpFlags::ACK, &s2c_first);
                s.wait(half);
            }
        }
    }

    // Remaining request upload (client→server bulk, e.g. POST bodies or
    // tracker keep-alives).
    let mut remaining_up = spec.req_bytes as usize;
    remaining_up = remaining_up.saturating_sub(c2s_first.len());
    let mut chunk_seed = spec.seed ^ 0x5151;
    while remaining_up > 0 {
        let n = remaining_up.min(BULK_SEGMENT);
        let body = filler(n, chunk_seed);
        chunk_seed = chunk_seed.wrapping_add(1);
        s.push(true, TcpFlags::ACK, &body);
        s.wait(half / 2 + 500);
        remaining_up -= n;
    }

    // Response download (server→client bulk).
    let mut remaining_down = spec.resp_bytes as usize;
    remaining_down = remaining_down.saturating_sub(s2c_first.len());
    while remaining_down > 0 {
        let n = remaining_down.min(BULK_SEGMENT);
        let body = filler(n, chunk_seed);
        chunk_seed = chunk_seed.wrapping_add(1);
        s.push(false, TcpFlags::ACK, &body);
        s.wait(half / 2 + 500);
        remaining_down -= n;
    }

    // Orderly close.
    s.push(true, TcpFlags::FIN | TcpFlags::ACK, &[]);
    s.wait(half);
    s.push(false, TcpFlags::FIN | TcpFlags::ACK, &[]);
    s.wait(half);
    s.push(true, TcpFlags::ACK, &[]);

    s.frames
}

/// First application payloads per protocol personality.
fn app_payloads(spec: &FlowSpec) -> (Vec<u8>, Vec<u8>) {
    match spec.style {
        PayloadStyle::Http => {
            let req = http::build_request(
                "GET",
                &format!("/content/{}", spec.seed % 997),
                &spec.fqdn,
                "Mozilla/5.0 (sim)",
            );
            let resp = http::build_response(200, spec.resp_bytes as usize);
            (req, resp)
        }
        PayloadStyle::Tls => {
            let ch =
                tls::build_client_hello(if spec.sni { Some(&spec.fqdn) } else { None }, spec.seed);
            let cn;
            let flight = if spec.resume {
                tls::build_server_flight(None, spec.seed ^ 0xbeef)
            } else {
                let name: &str = match spec.cert {
                    CertPolicy::Exact => &spec.fqdn,
                    CertPolicy::Wildcard => {
                        cn = format!("*.{}", spec.sld);
                        &cn
                    }
                    CertPolicy::CdnName => spec
                        .cdn_cert_name
                        .as_deref()
                        .unwrap_or("edge.generic-cdn.net"),
                };
                tls::build_server_flight(Some(name), spec.seed ^ 0xbeef)
            };
            (ch, flight)
        }
        PayloadStyle::Smtp => (
            b"EHLO client.local\r\n".to_vec(),
            format!("220 {} ESMTP Postfix\r\n", spec.fqdn).into_bytes(),
        ),
        PayloadStyle::Pop3 => (
            b"USER subscriber\r\n".to_vec(),
            format!("+OK {} POP3 server ready\r\n", spec.fqdn).into_bytes(),
        ),
        PayloadStyle::Imap => (
            b"a001 LOGIN subscriber secret\r\n".to_vec(),
            format!("* OK {} IMAP4rev1 ready\r\n", spec.fqdn).into_bytes(),
        ),
        PayloadStyle::Rtsp => (
            format!(
                "DESCRIBE rtsp://{}/live RTSP/1.0\r\nCSeq: 1\r\n\r\n",
                spec.fqdn
            )
            .into_bytes(),
            b"RTSP/1.0 200 OK\r\nCSeq: 1\r\n\r\n".to_vec(),
        ),
        PayloadStyle::Msn => (
            b"VER 1 MSNP15 MSNP14 CVR0\r\n".to_vec(),
            b"VER 1 MSNP15\r\n".to_vec(),
        ),
        PayloadStyle::Xmpp => (
            format!("<stream:stream to='{}' xmlns='jabber:client'>", spec.sld).into_bytes(),
            b"<?xml version='1.0'?><stream:stream>".to_vec(),
        ),
        PayloadStyle::TrackerHttp => {
            let hash = format!("{:040x}", (spec.seed as u128) * 0x9e3779b97f4a7c15);
            let req = bittorrent::build_tracker_announce(&spec.fqdn, &hash[..40], 6881);
            let resp = http::build_response(200, 128);
            (req, resp)
        }
        PayloadStyle::BinaryTcp => (
            filler(48, spec.seed ^ 0xaaaa),
            filler(64, spec.seed ^ 0xbbbb),
        ),
    }
}

/// Synthesize a compact IPv6 flow (dual-stack clients). Handshake, one
/// request, response bulk, close — same shape as the v4 path, over v6.
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per flow parameter the generator draws"
)]
pub fn synthesize_v6(
    client: Ipv6Addr,
    server: Ipv6Addr,
    client_mac: MacAddr,
    server_mac: MacAddr,
    sport: u16,
    dport: u16,
    start: u64,
    rtt: u64,
    style: PayloadStyle,
    fqdn: &str,
    resp_bytes: u32,
    seed: u64,
) -> Vec<TimedFrame> {
    let rtt = rtt.max(2_000);
    let half = rtt / 2;
    let mut frames: Vec<TimedFrame> = Vec::with_capacity(10);
    let mut seq_c: u32 = (seed as u32) | 1;
    let mut seq_s: u32 = (seed >> 32) as u32 | 1;
    let mut t = start;
    let push = |frames: &mut Vec<TimedFrame>,
                t: u64,
                from_client: bool,
                seq_c: &mut u32,
                seq_s: &mut u32,
                flags: TcpFlags,
                payload: &[u8]| {
        let frame = if from_client {
            build_tcp_v6(
                client_mac, server_mac, client, server, sport, dport, *seq_c, *seq_s, flags,
                payload,
            )
        } else {
            build_tcp_v6(
                server_mac, client_mac, server, client, dport, sport, *seq_s, *seq_c, flags,
                payload,
            )
        }
        .expect("v6 frame builds");
        frames.push((t, frame));
        let advance = payload.len() as u32 + u32::from(flags.syn()) + u32::from(flags.fin());
        if from_client {
            *seq_c = seq_c.wrapping_add(advance);
        } else {
            *seq_s = seq_s.wrapping_add(advance);
        }
    };
    push(
        &mut frames,
        t,
        true,
        &mut seq_c,
        &mut seq_s,
        TcpFlags::SYN,
        &[],
    );
    t += rtt;
    push(
        &mut frames,
        t,
        false,
        &mut seq_c,
        &mut seq_s,
        TcpFlags::SYN | TcpFlags::ACK,
        &[],
    );
    t += half;
    push(
        &mut frames,
        t,
        true,
        &mut seq_c,
        &mut seq_s,
        TcpFlags::ACK,
        &[],
    );
    t += 1_000;
    let (req, resp_head) = match style {
        PayloadStyle::Tls => (
            tls::build_client_hello(Some(fqdn), seed),
            tls::build_server_flight(Some(fqdn), seed ^ 0x66),
        ),
        _ => (
            http::build_request("GET", "/v6", fqdn, "Mozilla/5.0 (sim)"),
            http::build_response(200, resp_bytes as usize),
        ),
    };
    push(
        &mut frames,
        t,
        true,
        &mut seq_c,
        &mut seq_s,
        TcpFlags::PSH | TcpFlags::ACK,
        &req,
    );
    t += rtt;
    push(
        &mut frames,
        t,
        false,
        &mut seq_c,
        &mut seq_s,
        TcpFlags::PSH | TcpFlags::ACK,
        &resp_head,
    );
    t += half;
    let mut remaining = (resp_bytes as usize).saturating_sub(resp_head.len());
    let mut chunk_seed = seed ^ 0x7777;
    while remaining > 0 {
        let n = remaining.min(BULK_SEGMENT);
        let body = filler(n, chunk_seed);
        chunk_seed = chunk_seed.wrapping_add(1);
        push(
            &mut frames,
            t,
            false,
            &mut seq_c,
            &mut seq_s,
            TcpFlags::ACK,
            &body,
        );
        t += half / 2 + 500;
        remaining -= n;
    }
    push(
        &mut frames,
        t,
        true,
        &mut seq_c,
        &mut seq_s,
        TcpFlags::FIN | TcpFlags::ACK,
        &[],
    );
    t += half;
    push(
        &mut frames,
        t,
        false,
        &mut seq_c,
        &mut seq_s,
        TcpFlags::FIN | TcpFlags::ACK,
        &[],
    );
    frames
}

/// Synthesize a BitTorrent peer-wire flow (no DNS ever precedes these).
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per flow parameter the generator draws"
)]
pub fn synthesize_peer_flow(
    client: Ipv4Addr,
    peer: Ipv4Addr,
    client_mac: MacAddr,
    peer_mac: MacAddr,
    sport: u16,
    start: u64,
    rtt: u64,
    bytes: u32,
    seed: u64,
) -> Vec<TimedFrame> {
    let mut info_hash = [0u8; 20];
    let mut peer_id = [0u8; 20];
    for (i, b) in info_hash.iter_mut().enumerate() {
        *b = ((seed >> (i % 8)) & 0xff) as u8;
    }
    for (i, b) in peer_id.iter_mut().enumerate() {
        *b = ((seed >> ((i + 3) % 8)) & 0x7f) as u8;
    }
    let spec = FlowSpec {
        client,
        server: peer,
        client_mac,
        server_mac: peer_mac,
        sport,
        dport: 6881 + (seed % 4) as u16,
        start,
        rtt,
        style: PayloadStyle::BinaryTcp,
        fqdn: String::new(),
        sld: String::new(),
        cert: CertPolicy::Exact,
        resume: false,
        sni: false,
        cdn_cert_name: None,
        req_bytes: bytes / 3,
        resp_bytes: bytes,
        seed,
    };
    let mut s = TcpStream::new(&spec);
    let half = rtt / 2;
    s.push(true, TcpFlags::SYN, &[]);
    s.wait(rtt);
    s.push(false, TcpFlags::SYN | TcpFlags::ACK, &[]);
    s.wait(half);
    s.push(true, TcpFlags::ACK, &[]);
    s.wait(1_000);
    s.push(
        true,
        TcpFlags::PSH | TcpFlags::ACK,
        &bittorrent::build_peer_handshake(info_hash, peer_id),
    );
    s.wait(rtt);
    s.push(
        false,
        TcpFlags::PSH | TcpFlags::ACK,
        &bittorrent::build_peer_handshake(info_hash, peer_id),
    );
    s.wait(half);
    let mut remaining = bytes as usize;
    let mut chunk_seed = seed;
    while remaining > 0 {
        let n = remaining.min(BULK_SEGMENT);
        s.push(false, TcpFlags::ACK, &filler(n, chunk_seed));
        chunk_seed = chunk_seed.wrapping_add(1);
        s.wait(half / 2 + 500);
        remaining -= n;
    }
    s.push(true, TcpFlags::FIN | TcpFlags::ACK, &[]);
    s.wait(half);
    s.push(false, TcpFlags::FIN | TcpFlags::ACK, &[]);
    s.frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnhunter_flow::{AppProtocol, FlowEvent, FlowTable, FlowTableConfig};
    use dnhunter_net::Packet;

    fn base_spec(style: PayloadStyle) -> FlowSpec {
        FlowSpec {
            client: Ipv4Addr::new(10, 0, 0, 1),
            server: Ipv4Addr::new(93, 184, 216, 34),
            client_mac: MacAddr::from_id(1),
            server_mac: MacAddr::from_id(2),
            sport: 51000,
            dport: 443,
            start: 1_000_000,
            rtt: 40_000,
            style,
            fqdn: "www.example.com".into(),
            sld: "example.com".into(),
            cert: CertPolicy::Exact,
            resume: false,
            sni: true,
            cdn_cert_name: None,
            req_bytes: 500,
            resp_bytes: 40_000,
            seed: 42,
        }
    }

    /// Run synthesized frames through the real flow table + DPI.
    fn classify(frames: &[TimedFrame]) -> (AppProtocol, u64, u64) {
        let mut table = FlowTable::new(FlowTableConfig::default());
        for (ts, frame) in frames {
            let pkt = Packet::parse(frame).expect("synthesized frames parse");
            table.process(*ts, &pkt, frame.len());
        }
        let finished = table.flush();
        assert_eq!(finished.len(), 1);
        match &finished[0] {
            FlowEvent::FlowFinished(r) => (r.protocol_now(), r.bytes_c2s, r.bytes_s2c),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn frames_are_ordered_and_parse() {
        let frames = synthesize(&base_spec(PayloadStyle::Http));
        assert!(frames.len() >= 8);
        for w in frames.windows(2) {
            assert!(w[0].0 <= w[1].0, "timestamps must be non-decreasing");
        }
    }

    #[test]
    fn http_flow_classifies_as_http() {
        let (proto, c2s, s2c) = classify(&synthesize(&base_spec(PayloadStyle::Http)));
        assert_eq!(proto, AppProtocol::Http);
        assert!(s2c > c2s, "response should dominate: {c2s} vs {s2c}");
        assert!(s2c > 40_000_u64);
    }

    #[test]
    fn tls_flow_classifies_with_sni_and_cert() {
        let spec = base_spec(PayloadStyle::Tls);
        let frames = synthesize(&spec);
        let mut table = FlowTable::new(FlowTableConfig::default());
        for (ts, frame) in &frames {
            let pkt = Packet::parse(frame).unwrap();
            table.process(*ts, &pkt, frame.len());
        }
        let finished = table.flush();
        match &finished[0] {
            FlowEvent::FlowFinished(r) => {
                assert_eq!(r.protocol_now(), AppProtocol::Tls);
                let info = r.tls_info();
                assert_eq!(info.sni.as_deref(), Some("www.example.com"));
                assert_eq!(info.certificate_cn.as_deref(), Some("www.example.com"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resumed_tls_has_no_certificate() {
        let mut spec = base_spec(PayloadStyle::Tls);
        spec.resume = true;
        let frames = synthesize(&spec);
        let mut table = FlowTable::new(FlowTableConfig::default());
        for (ts, frame) in &frames {
            let pkt = Packet::parse(frame).unwrap();
            table.process(*ts, &pkt, frame.len());
        }
        match &table.flush()[0] {
            FlowEvent::FlowFinished(r) => {
                let info = r.tls_info();
                assert!(!info.certificate_seen);
                assert_eq!(info.sni.as_deref(), Some("www.example.com"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wildcard_and_cdn_certs() {
        let mut spec = base_spec(PayloadStyle::Tls);
        spec.cert = CertPolicy::Wildcard;
        let frames = synthesize(&spec);
        let all: Vec<u8> = frames.iter().flat_map(|(_, f)| f.clone()).collect();
        // The wildcard CN appears in the raw bytes of the certificate.
        let needle = b"*.example.com";
        assert!(all.windows(needle.len()).any(|w| w == needle));

        spec.cert = CertPolicy::CdnName;
        spec.cdn_cert_name = Some("a248.e.akamai.net".into());
        let frames = synthesize(&spec);
        let all: Vec<u8> = frames.iter().flat_map(|(_, f)| f.clone()).collect();
        let needle = b"a248.e.akamai.net";
        assert!(all.windows(needle.len()).any(|w| w == needle));
    }

    #[test]
    fn mail_personalities_classify_as_mail() {
        for style in [PayloadStyle::Smtp, PayloadStyle::Pop3, PayloadStyle::Imap] {
            let mut spec = base_spec(style);
            spec.dport = match style {
                PayloadStyle::Smtp => 25,
                PayloadStyle::Pop3 => 110,
                _ => 143,
            };
            spec.resp_bytes = 500;
            let (proto, _, _) = classify(&synthesize(&spec));
            assert_eq!(proto, AppProtocol::Mail, "{style:?}");
        }
    }

    #[test]
    fn tracker_flow_classifies_as_p2p() {
        let mut spec = base_spec(PayloadStyle::TrackerHttp);
        spec.dport = 6969;
        spec.resp_bytes = 200;
        let (proto, _, _) = classify(&synthesize(&spec));
        assert_eq!(proto, AppProtocol::P2p);
    }

    #[test]
    fn peer_flow_classifies_as_p2p() {
        let frames = synthesize_peer_flow(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(171, 44, 5, 6),
            MacAddr::from_id(1),
            MacAddr::from_id(9),
            40123,
            5_000_000,
            120_000,
            30_000,
            77,
        );
        let (proto, _, s2c) = classify(&frames);
        assert_eq!(proto, AppProtocol::P2p);
        assert!(s2c > 30_000);
    }

    #[test]
    fn determinism() {
        let a = synthesize(&base_spec(PayloadStyle::Http));
        let b = synthesize(&base_spec(PayloadStyle::Http));
        assert_eq!(a, b);
    }
}
