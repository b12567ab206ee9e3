//! Composite packet parsing and building.
//!
//! [`Packet::parse`] walks a raw Ethernet frame through IP and transport
//! layers in one call; builder helpers synthesize complete, checksummed
//! frames for the traffic simulator.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use crate::error::{NetError, Result};
use crate::ethernet::{EtherType, EthernetHeader};
use crate::ipv4::Ipv4Header;
use crate::ipv6::Ipv6Header;
use crate::mac::MacAddr;
use crate::proto::IpProtocol;
use crate::tcp::{TcpFlags, TcpHeader};
use crate::udp::UdpHeader;

/// Either IP version's header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpHeader {
    V4(Ipv4Header),
    V6(Ipv6Header),
}

impl IpHeader {
    /// Source address, version-erased.
    pub fn src(&self) -> IpAddr {
        match self {
            IpHeader::V4(h) => IpAddr::V4(h.src),
            IpHeader::V6(h) => IpAddr::V6(h.src),
        }
    }

    /// Destination address, version-erased.
    pub fn dst(&self) -> IpAddr {
        match self {
            IpHeader::V4(h) => IpAddr::V4(h.dst),
            IpHeader::V6(h) => IpAddr::V6(h.dst),
        }
    }

    /// Transport protocol carried.
    pub fn protocol(&self) -> IpProtocol {
        match self {
            IpHeader::V4(h) => h.protocol,
            IpHeader::V6(h) => h.next_header,
        }
    }
}

/// Parsed transport header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportHeader {
    Tcp(TcpHeader),
    Udp(UdpHeader),
    /// Protocol the sniffer doesn't reconstruct (ICMP, GRE, …).
    Opaque(IpProtocol),
}

impl TransportHeader {
    /// Source port if the transport has ports.
    pub fn src_port(&self) -> Option<u16> {
        match self {
            TransportHeader::Tcp(h) => Some(h.src_port),
            TransportHeader::Udp(h) => Some(h.src_port),
            TransportHeader::Opaque(_) => None,
        }
    }

    /// Destination port if the transport has ports.
    pub fn dst_port(&self) -> Option<u16> {
        match self {
            TransportHeader::Tcp(h) => Some(h.dst_port),
            TransportHeader::Udp(h) => Some(h.dst_port),
            TransportHeader::Opaque(_) => None,
        }
    }
}

/// A fully parsed frame: link + IP + transport headers plus the transport
/// payload copied out of the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    pub ethernet: EthernetHeader,
    /// 802.1Q VLAN id, when the frame was tagged.
    pub vlan: Option<u16>,
    pub ip: IpHeader,
    pub transport: TransportHeader,
    /// Application-layer bytes (after the transport header).
    pub payload: Vec<u8>,
}

/// A parsed frame whose payload *borrows* the input buffer.
///
/// This is the allocation-free stage [`Packet::parse`] is built on, and the
/// generic fallback of the sniffers' flat parser
/// ([`crate::seg::parse_flat`]): callers that need the addresses, ports and
/// flags but not an owned payload pay no heap allocation per packet.
/// Because [`Packet::parse`] is `PacketView::parse` + one copy, both accept
/// and reject exactly the same frames by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketView<'a> {
    pub ethernet: EthernetHeader,
    /// 802.1Q VLAN id, when the frame was tagged.
    pub vlan: Option<u16>,
    pub ip: IpHeader,
    pub transport: TransportHeader,
    /// Application-layer bytes (after the transport header), borrowed.
    pub payload: &'a [u8],
}

impl<'a> PacketView<'a> {
    /// Parse a raw Ethernet frame down to the application payload without
    /// copying it out of `frame`.
    ///
    /// Non-IP frames and IP fragments beyond the first are rejected with
    /// [`NetError::Unsupported`]; the passive sniffer simply skips them, as
    /// the paper's tool does. A frame cut short of a header or of a length
    /// field's claim is [`NetError::Truncated`] — "snaplen cut us off" and
    /// "VLAN we don't speak" are different capture pathologies and are
    /// counted apart.
    ///
    /// Telemetry: accepted frames count into `dnh_net_parses_total`
    /// (runtime class — the two-stage pipeline parses DNS frames twice);
    /// rejects split by cause into `dnh_net_frames_truncated_total`,
    /// `dnh_net_checksum_errors_total`, and
    /// `dnh_net_frames_malformed_total` (all stable — a rejected frame is
    /// counted exactly once by every driver).
    pub fn parse(frame: &'a [u8]) -> Result<PacketView<'a>> {
        match Self::parse_inner(frame) {
            Ok(view) => {
                dnhunter_telemetry::tm_count!(dnhunter_telemetry::Metric::NetParses);
                Ok(view)
            }
            Err(e) => {
                match &e {
                    NetError::Truncated { .. } => {
                        dnhunter_telemetry::tm_count!(
                            dnhunter_telemetry::Metric::NetFramesTruncated
                        )
                    }
                    NetError::BadChecksum { .. } => {
                        dnhunter_telemetry::tm_count!(dnhunter_telemetry::Metric::NetChecksumErrors)
                    }
                    _ => dnhunter_telemetry::tm_count!(
                        dnhunter_telemetry::Metric::NetFramesMalformed
                    ),
                }
                Err(e)
            }
        }
    }

    // allow_lint(L1): every slice offset is validated first — the vlan `need` guard, and the layer parsers (Ipv4Header/Ipv6Header/TcpHeader/UdpHeader::parse) check their lengths before returning offsets
    fn parse_inner(frame: &'a [u8]) -> Result<PacketView<'a>> {
        let (mut eth, mut eth_len) = EthernetHeader::parse(frame)?;
        // 802.1Q VLAN tag: 2 bytes TCI + 2 bytes real EtherType.
        let mut vlan = None;
        if eth.ethertype == EtherType::Other(0x8100) {
            crate::error::need("vlan", frame, eth_len + 4)?;
            let tci = u16::from_be_bytes([frame[eth_len], frame[eth_len + 1]]);
            vlan = Some(tci & 0x0fff);
            eth.ethertype =
                EtherType::from(u16::from_be_bytes([frame[eth_len + 2], frame[eth_len + 3]]));
            eth_len += 4;
        }
        let rest = &frame[eth_len..];
        let (ip, ip_len, ip_payload_len) = match eth.ethertype {
            EtherType::Ipv4 => {
                let (h, len) = Ipv4Header::parse(rest)?;
                if h.is_fragment() && h.fragment_offset != 0 {
                    return Err(NetError::Unsupported {
                        layer: "ipv4",
                        detail: "non-first fragment".into(),
                    });
                }
                let payload_len = usize::from(h.total_len) - len;
                (IpHeader::V4(h), len, payload_len)
            }
            EtherType::Ipv6 => {
                let (h, len) = Ipv6Header::parse(rest)?;
                let payload_len = usize::from(h.payload_len);
                (IpHeader::V6(h), len, payload_len)
            }
            other => {
                return Err(NetError::Unsupported {
                    layer: "ethernet",
                    detail: format!("non-IP ethertype {:#06x}", other.value()),
                })
            }
        };
        let segment = &rest[ip_len..ip_len + ip_payload_len];
        let (transport, payload) = match ip.protocol() {
            IpProtocol::Tcp => {
                let (h, off) = TcpHeader::parse(segment)?;
                (TransportHeader::Tcp(h), &segment[off..])
            }
            IpProtocol::Udp => {
                let (h, off) = UdpHeader::parse(segment)?;
                let end = usize::from(h.length);
                (TransportHeader::Udp(h), &segment[off..end])
            }
            other => (TransportHeader::Opaque(other), segment),
        };
        Ok(PacketView {
            ethernet: eth,
            vlan,
            ip,
            transport,
            payload,
        })
    }

    /// [`PacketView::parse`] minus the telemetry: the flat parser's generic
    /// fallback ([`crate::seg::parse_flat`]) classifies and counts the
    /// outcome itself, exactly once per frame.
    pub(crate) fn parse_uncounted(frame: &'a [u8]) -> Result<PacketView<'a>> {
        Self::parse_inner(frame)
    }

    /// Copy the payload out, producing an owned [`Packet`].
    pub fn to_packet(&self) -> Packet {
        Packet {
            ethernet: self.ethernet,
            vlan: self.vlan,
            ip: self.ip.clone(),
            transport: self.transport.clone(),
            payload: self.payload.to_vec(),
        }
    }

    /// Client/server convenience accessors.
    pub fn src_ip(&self) -> IpAddr {
        self.ip.src()
    }
    pub fn dst_ip(&self) -> IpAddr {
        self.ip.dst()
    }
}

impl Packet {
    /// Parse a raw Ethernet frame down to the application payload.
    ///
    /// Equivalent to [`PacketView::parse`] followed by one payload copy —
    /// the two stages accept and reject identical frame sets.
    pub fn parse(frame: &[u8]) -> Result<Packet> {
        PacketView::parse(frame).map(|v| v.to_packet())
    }

    /// Client/server convenience accessors.
    pub fn src_ip(&self) -> IpAddr {
        self.ip.src()
    }
    pub fn dst_ip(&self) -> IpAddr {
        self.ip.dst()
    }
}

/// Build a complete Ethernet+IPv4+UDP frame carrying `payload`.
// allow_lint(L8): frame builder; sizes come from the payload the caller already holds, not from a length read off the wire
pub fn build_udp_v4(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Result<Vec<u8>> {
    let mut seg = Vec::with_capacity(8 + payload.len());
    UdpHeader::write_segment_v4(src_port, dst_port, payload, src, dst, &mut seg)?;
    let mut frame = Vec::with_capacity(14 + 20 + seg.len());
    EthernetHeader {
        dst: dst_mac,
        src: src_mac,
        ethertype: EtherType::Ipv4,
    }
    .write(&mut frame);
    Ipv4Header::new(src, dst, IpProtocol::Udp).write(&mut frame, seg.len())?;
    frame.extend_from_slice(&seg);
    Ok(frame)
}

/// Build a complete Ethernet+IPv4+TCP frame carrying `payload`.
// allow_lint(L8): frame builder; sizes come from the payload the caller already holds, not from a length read off the wire
#[allow(clippy::too_many_arguments)]
pub fn build_tcp_v4(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    payload: &[u8],
) -> Result<Vec<u8>> {
    let tcp = TcpHeader::new(src_port, dst_port, seq, ack, flags);
    let mut seg = Vec::with_capacity(tcp.header_len() + payload.len());
    tcp.write_segment_v4(payload, src, dst, &mut seg)?;
    let mut frame = Vec::with_capacity(14 + 20 + seg.len());
    EthernetHeader {
        dst: dst_mac,
        src: src_mac,
        ethertype: EtherType::Ipv4,
    }
    .write(&mut frame);
    Ipv4Header::new(src, dst, IpProtocol::Tcp).write(&mut frame, seg.len())?;
    frame.extend_from_slice(&seg);
    Ok(frame)
}

/// Build a complete Ethernet+IPv6+UDP frame carrying `payload`. The simulator
/// uses this to exercise the v6 code path of the sniffer.
// allow_lint(L8): frame builder; sizes come from the payload the caller already holds, not from a length read off the wire
// allow_lint(L1): seg holds 8 header bytes before the checksum is patched at 6..8
pub fn build_udp_v6(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Result<Vec<u8>> {
    use crate::checksum::pseudo_header_checksum_v6;
    let total = 8 + payload.len();
    let mut seg = Vec::with_capacity(total);
    seg.extend_from_slice(&src_port.to_be_bytes());
    seg.extend_from_slice(&dst_port.to_be_bytes());
    seg.extend_from_slice(&(total as u16).to_be_bytes());
    seg.extend_from_slice(&[0, 0]);
    seg.extend_from_slice(payload);
    let mut ck = pseudo_header_checksum_v6(src, dst, 17, &seg);
    if ck == 0 {
        ck = 0xffff;
    }
    seg[6..8].copy_from_slice(&ck.to_be_bytes());

    let mut frame = Vec::with_capacity(14 + 40 + seg.len());
    EthernetHeader {
        dst: dst_mac,
        src: src_mac,
        ethertype: EtherType::Ipv6,
    }
    .write(&mut frame);
    Ipv6Header::new(src, dst, IpProtocol::Udp).write(&mut frame, seg.len())?;
    frame.extend_from_slice(&seg);
    Ok(frame)
}

/// Build a complete Ethernet+IPv6+TCP frame carrying `payload`.
// allow_lint(L8): frame builder; sizes come from the payload the caller already holds, not from a length read off the wire
#[allow(clippy::too_many_arguments)]
pub fn build_tcp_v6(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    payload: &[u8],
) -> Result<Vec<u8>> {
    let tcp = TcpHeader::new(src_port, dst_port, seq, ack, flags);
    let mut seg = Vec::with_capacity(tcp.header_len() + payload.len());
    tcp.write_segment_v6(payload, src, dst, &mut seg)?;
    let mut frame = Vec::with_capacity(14 + 40 + seg.len());
    EthernetHeader {
        dst: dst_mac,
        src: src_mac,
        ethertype: EtherType::Ipv6,
    }
    .write(&mut frame);
    Ipv6Header::new(src, dst, IpProtocol::Tcp).write(&mut frame, seg.len())?;
    frame.extend_from_slice(&seg);
    Ok(frame)
}

/// Insert an 802.1Q tag (vlan id) into an untagged Ethernet frame —
/// useful for testing trunk-port captures.
// allow_lint(L8): copies a frame the caller already holds plus the 4-byte tag; no length is read off the wire
pub fn insert_vlan_tag(frame: &[u8], vlan_id: u16) -> Vec<u8> {
    // Runt frames (shorter than the two MAC addresses) can't carry a tag;
    // return them unchanged rather than panic (lint L1).
    if frame.len() < 12 {
        return frame.to_vec();
    }
    let (macs, rest) = frame.split_at(12);
    let mut out = Vec::with_capacity(frame.len() + 4);
    out.extend_from_slice(macs);
    out.extend_from_slice(&0x8100u16.to_be_bytes());
    out.extend_from_slice(&(vlan_id & 0x0fff).to_be_bytes());
    out.extend_from_slice(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn macs() -> (MacAddr, MacAddr) {
        (MacAddr::from_id(1), MacAddr::from_id(2))
    }

    #[test]
    fn udp_v4_full_roundtrip() {
        let (sm, dm) = macs();
        let frame = build_udp_v4(
            sm,
            dm,
            Ipv4Addr::new(10, 0, 0, 9),
            Ipv4Addr::new(198, 51, 100, 7),
            40001,
            53,
            b"dns query bytes",
        )
        .unwrap();
        let p = Packet::parse(&frame).unwrap();
        assert_eq!(p.src_ip(), IpAddr::V4(Ipv4Addr::new(10, 0, 0, 9)));
        assert_eq!(p.transport.dst_port(), Some(53));
        assert_eq!(p.payload, b"dns query bytes");
    }

    #[test]
    fn tcp_v4_full_roundtrip() {
        let (sm, dm) = macs();
        let frame = build_tcp_v4(
            sm,
            dm,
            Ipv4Addr::new(10, 0, 0, 9),
            Ipv4Addr::new(198, 51, 100, 7),
            51515,
            443,
            42,
            0,
            TcpFlags::SYN,
            &[],
        )
        .unwrap();
        let p = Packet::parse(&frame).unwrap();
        match &p.transport {
            TransportHeader::Tcp(h) => {
                assert!(h.flags.syn());
                assert_eq!(h.seq, 42);
            }
            other => panic!("expected TCP, got {other:?}"),
        }
        assert!(p.payload.is_empty());
    }

    #[test]
    fn udp_v6_full_roundtrip() {
        let (sm, dm) = macs();
        let frame = build_udp_v6(
            sm,
            dm,
            "2001:db8::10".parse().unwrap(),
            "2001:db8::53".parse().unwrap(),
            55555,
            53,
            b"v6 dns",
        )
        .unwrap();
        let p = Packet::parse(&frame).unwrap();
        assert_eq!(p.transport.dst_port(), Some(53));
        assert_eq!(p.payload, b"v6 dns");
        assert!(matches!(p.ip, IpHeader::V6(_)));
    }

    #[test]
    fn arp_frames_are_skipped_as_unsupported() {
        let mut frame = Vec::new();
        EthernetHeader {
            dst: MacAddr::BROADCAST,
            src: MacAddr::from_id(3),
            ethertype: EtherType::Arp,
        }
        .write(&mut frame);
        frame.extend_from_slice(&[0u8; 28]);
        assert!(matches!(
            Packet::parse(&frame),
            Err(NetError::Unsupported { .. })
        ));
    }

    #[test]
    fn trailing_link_padding_is_ignored() {
        // Ethernet frames are often padded to 60 bytes; the IP total length
        // field must win over the buffer length.
        let (sm, dm) = macs();
        let mut frame = build_udp_v4(
            sm,
            dm,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            2000,
            b"x",
        )
        .unwrap();
        while frame.len() < 60 {
            frame.push(0);
        }
        let p = Packet::parse(&frame).unwrap();
        assert_eq!(p.payload, b"x");
    }

    #[test]
    fn tcp_v6_full_roundtrip() {
        let (sm, dm) = macs();
        let frame = build_tcp_v6(
            sm,
            dm,
            "2001:db8::10".parse().unwrap(),
            "2001:4860::1".parse().unwrap(),
            51000,
            80,
            7,
            0,
            TcpFlags::SYN,
            &[],
        )
        .unwrap();
        let p = Packet::parse(&frame).unwrap();
        assert!(matches!(p.ip, IpHeader::V6(_)));
        assert_eq!(p.transport.dst_port(), Some(80));
        match &p.transport {
            TransportHeader::Tcp(h) => assert!(h.flags.syn()),
            other => panic!("expected TCP, got {other:?}"),
        }
    }

    #[test]
    fn vlan_tagged_frames_parse() {
        let (sm, dm) = macs();
        let plain = build_udp_v4(
            sm,
            dm,
            Ipv4Addr::new(10, 0, 0, 9),
            Ipv4Addr::new(198, 51, 100, 7),
            40001,
            53,
            b"tagged dns",
        )
        .unwrap();
        let tagged = insert_vlan_tag(&plain, 113);
        let p = Packet::parse(&tagged).unwrap();
        assert_eq!(p.vlan, Some(113));
        assert_eq!(p.payload, b"tagged dns");
        assert_eq!(p.transport.dst_port(), Some(53));
        // Untagged frames report no VLAN.
        assert_eq!(Packet::parse(&plain).unwrap().vlan, None);
        // A truncated tag is an error, not a panic.
        assert!(Packet::parse(&tagged[..15]).is_err());
    }

    #[test]
    fn view_and_packet_agree() {
        // PacketView::parse is the stage Packet::parse is built on; spot
        // check that the borrowed view carries the same fields and payload.
        let (sm, dm) = macs();
        let frame = build_udp_v4(
            sm,
            dm,
            Ipv4Addr::new(10, 0, 0, 9),
            Ipv4Addr::new(198, 51, 100, 7),
            40001,
            53,
            b"same bytes",
        )
        .unwrap();
        let view = PacketView::parse(&frame).unwrap();
        let pkt = Packet::parse(&frame).unwrap();
        assert_eq!(view.to_packet(), pkt);
        assert_eq!(view.payload, &pkt.payload[..]);
        assert_eq!(view.src_ip(), pkt.src_ip());
        // Both stages reject the same garbage.
        assert!(PacketView::parse(&frame[..10]).is_err());
        assert!(Packet::parse(&frame[..10]).is_err());
    }

    #[test]
    fn opaque_protocol_preserved() {
        // Hand-build an IPv4+ICMP frame.
        let mut frame = Vec::new();
        EthernetHeader {
            dst: MacAddr::from_id(1),
            src: MacAddr::from_id(2),
            ethertype: EtherType::Ipv4,
        }
        .write(&mut frame);
        Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Icmp,
        )
        .write(&mut frame, 8)
        .unwrap();
        frame.extend_from_slice(&[8, 0, 0, 0, 0, 0, 0, 0]);
        let p = Packet::parse(&frame).unwrap();
        assert_eq!(p.transport, TransportHeader::Opaque(IpProtocol::Icmp));
        assert_eq!(p.transport.src_port(), None);
    }
}
