//! Branch-light batched 5-tuple parsing for the ingest fast path.
//!
//! [`crate::PacketView::parse`] is the general decoder: it materialises
//! header structs (TCP options, IPv4 options) and version-erasing enums for
//! every frame. The sniffer's hot path needs none of that — routing and flow
//! reconstruction consume exactly a 5-tuple, the TCP flags/seq, and the
//! payload slice. [`parse_flat`] produces that ([`FlatSeg`]) in one pass
//! with zero allocations: the overwhelmingly common shape (untagged
//! Ethernet II + IPv4 + TCP/UDP) is decoded by a specialised walk that
//! validates *exactly* what the layer parsers validate — same length
//! guards, same checksum, same option-structure checks — but builds no
//! intermediate structs; every other shape (VLAN tags, IPv6, 802.3,
//! malformed frames) falls back to the generic path, so both parsers accept
//! and reject identical frame sets by construction
//! (`tests/properties.rs` pins the equivalence, and the pipeline's
//! byte-identical-to-sequential determinism tests would catch any drift
//! end-to-end).
//!
//! Telemetry matches [`crate::PacketView::parse`] exactly: accepted frames
//! count into `dnh_net_parses_total`, rejects split by fault family into
//! the truncated / checksum / malformed counters.

use std::net::{IpAddr, Ipv4Addr};

use crate::error::NetError;
use crate::packet::{PacketView, TransportHeader};
use crate::proto::IpProtocol;
use crate::tcp::TcpFlags;

/// Why a frame was rejected, reduced to the fault family the sniffer's
/// stats track. Unlike [`NetError`] this carries no detail strings, so the
/// reject path of the hot parser allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Frame cut short of a header or a length field's claim (snaplen).
    Truncated,
    /// A header checksum failed (on-the-wire corruption).
    Checksum,
    /// Anything else: unsupported layer, inconsistent length fields.
    Malformed,
}

impl FrameFault {
    /// Classify a [`NetError`] into its fault family — the same mapping the
    /// sniffer's `note_parse_error` and `PacketView::parse`'s telemetry use.
    pub fn of(err: &NetError) -> Self {
        match err {
            NetError::Truncated { .. } => FrameFault::Truncated,
            NetError::BadChecksum { .. } => FrameFault::Checksum,
            _ => FrameFault::Malformed,
        }
    }
}

/// One reconstructable transport segment, flat: exactly the fields flow
/// reconstruction and DNS demultiplexing consume, payload borrowed from the
/// frame. No header structs, no version enums, no owned bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatSeg<'a> {
    pub src: IpAddr,
    pub dst: IpAddr,
    pub src_port: u16,
    pub dst_port: u16,
    /// [`IpProtocol::Tcp`] or [`IpProtocol::Udp`] — nothing else becomes a
    /// `FlatSeg` (see [`FlatParse::Opaque`]).
    pub proto: IpProtocol,
    /// `None` for UDP.
    pub tcp_flags: Option<TcpFlags>,
    /// TCP sequence number; 0 for UDP.
    pub tcp_seq: u32,
    /// Transport payload, borrowed from the frame.
    pub payload: &'a [u8],
    /// Full frame length on the wire (flow byte accounting).
    pub wire_bytes: usize,
}

/// Outcome of [`parse_flat`] on an accepted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatParse<'a> {
    /// A TCP or UDP segment the sniffer reconstructs.
    Seg(FlatSeg<'a>),
    /// Valid IP frame over a transport the sniffer does not reconstruct
    /// (ICMP, GRE, …) — counted as parsed, then skipped.
    Opaque,
}

/// Parse one raw Ethernet frame into a [`FlatSeg`] without allocating.
///
/// Accept/reject behaviour (and telemetry counts) are identical to
/// [`PacketView::parse`]; only the representation differs. The fast path
/// handles untagged Ethernet II + IPv4 + TCP/UDP; VLAN-tagged, IPv6 and
/// exotic frames take the generic fallback.
pub fn parse_flat(frame: &[u8]) -> Result<FlatParse<'_>, FrameFault> {
    let parsed = flat_fast(frame).unwrap_or_else(|| flat_generic(frame));
    match parsed {
        Ok(_) => dnhunter_telemetry::tm_count!(dnhunter_telemetry::Metric::NetParses),
        Err(FrameFault::Truncated) => {
            dnhunter_telemetry::tm_count!(dnhunter_telemetry::Metric::NetFramesTruncated)
        }
        Err(FrameFault::Checksum) => {
            dnhunter_telemetry::tm_count!(dnhunter_telemetry::Metric::NetChecksumErrors)
        }
        Err(FrameFault::Malformed) => {
            dnhunter_telemetry::tm_count!(dnhunter_telemetry::Metric::NetFramesMalformed)
        }
    }
    parsed
}

/// Generic fallback: run the [`PacketView`] walk and flatten its result.
fn flat_generic(frame: &[u8]) -> Result<FlatParse<'_>, FrameFault> {
    let view = PacketView::parse_uncounted(frame).map_err(|e| FrameFault::of(&e))?;
    Ok(match &view.transport {
        TransportHeader::Tcp(h) => FlatParse::Seg(FlatSeg {
            src: view.src_ip(),
            dst: view.dst_ip(),
            src_port: h.src_port,
            dst_port: h.dst_port,
            proto: view.ip.protocol(),
            tcp_flags: Some(h.flags),
            tcp_seq: h.seq,
            payload: view.payload,
            wire_bytes: frame.len(),
        }),
        TransportHeader::Udp(h) => FlatParse::Seg(FlatSeg {
            src: view.src_ip(),
            dst: view.dst_ip(),
            src_port: h.src_port,
            dst_port: h.dst_port,
            proto: view.ip.protocol(),
            tcp_flags: None,
            tcp_seq: 0,
            payload: view.payload,
            wire_bytes: frame.len(),
        }),
        TransportHeader::Opaque(_) => FlatParse::Opaque,
    })
}

/// Specialised walk for the dominant frame shape: untagged Ethernet II
/// carrying IPv4. Returns `None` when the frame is not that shape (the
/// caller then takes the generic path — including for all error handling of
/// non-IPv4 frames, so the two parsers cannot disagree there).
///
/// Every validation below replicates one the layer parsers perform, in the
/// same order, with the same fault class: Ethernet length guard, IPv4
/// version/IHL/total-length/checksum, the non-first-fragment reject, TCP
/// data-offset and option-structure checks, UDP length checks.
// allow_lint(L1): every fixed offset is guarded by the length checks above it (14-byte Ethernet gate, MIN_IPV4/ihl/total_len guards, tcp data_offset and udp length guards)
fn flat_fast(frame: &[u8]) -> Option<Result<FlatParse<'_>, FrameFault>> {
    const ETH: usize = 14;
    const MIN_IPV4: usize = 20;
    // Fast-path gate: enough bytes to read an EtherType, and it is IPv4.
    if frame.len() < ETH || frame[12] != 0x08 || frame[13] != 0x00 {
        return None;
    }
    let rest = &frame[ETH..];
    if rest.len() < MIN_IPV4 {
        return Some(Err(FrameFault::Truncated));
    }
    if rest[0] >> 4 != 4 {
        return Some(Err(FrameFault::Malformed));
    }
    let ihl = usize::from(rest[0] & 0x0f) * 4;
    if ihl < MIN_IPV4 {
        return Some(Err(FrameFault::Malformed));
    }
    if rest.len() < ihl {
        return Some(Err(FrameFault::Truncated));
    }
    let total_len = usize::from(u16::from_be_bytes([rest[2], rest[3]]));
    if total_len < ihl {
        return Some(Err(FrameFault::Malformed));
    }
    if rest.len() < total_len {
        return Some(Err(FrameFault::Truncated));
    }
    if crate::checksum::internet_checksum(&rest[..ihl]) != 0 {
        return Some(Err(FrameFault::Checksum));
    }
    let flags_frag = u16::from_be_bytes([rest[6], rest[7]]);
    // Non-first fragments are not reconstructed (same reject as the
    // generic walk; a first fragment with MF set passes, as there).
    if flags_frag & 0x1fff != 0 {
        return Some(Err(FrameFault::Malformed));
    }
    let src = IpAddr::V4(Ipv4Addr::new(rest[12], rest[13], rest[14], rest[15]));
    let dst = IpAddr::V4(Ipv4Addr::new(rest[16], rest[17], rest[18], rest[19]));
    let segment = &rest[ihl..total_len];
    match rest[9] {
        // TCP: validate header + option structure exactly as
        // `TcpHeader::parse`, materialising nothing.
        6 => {
            const MIN_TCP: usize = 20;
            if segment.len() < MIN_TCP {
                return Some(Err(FrameFault::Truncated));
            }
            let data_offset = usize::from(segment[12] >> 4) * 4;
            if data_offset < MIN_TCP {
                return Some(Err(FrameFault::Malformed));
            }
            if segment.len() < data_offset {
                return Some(Err(FrameFault::Truncated));
            }
            let mut i = MIN_TCP;
            while i < data_offset {
                match segment[i] {
                    0 => break, // EOL
                    1 => i += 1,
                    _kind => {
                        if i + 1 >= data_offset {
                            return Some(Err(FrameFault::Malformed));
                        }
                        let len = usize::from(segment[i + 1]);
                        if len < 2 || i + len > data_offset {
                            return Some(Err(FrameFault::Malformed));
                        }
                        i += len;
                    }
                }
            }
            Some(Ok(FlatParse::Seg(FlatSeg {
                src,
                dst,
                src_port: u16::from_be_bytes([segment[0], segment[1]]),
                dst_port: u16::from_be_bytes([segment[2], segment[3]]),
                proto: IpProtocol::Tcp,
                tcp_flags: Some(TcpFlags(segment[13] & 0x3f)),
                tcp_seq: u32::from_be_bytes([segment[4], segment[5], segment[6], segment[7]]),
                payload: &segment[data_offset..],
                wire_bytes: frame.len(),
            })))
        }
        // UDP: same length-field checks as `UdpHeader::parse`.
        17 => {
            const UDP_HDR: usize = 8;
            if segment.len() < UDP_HDR {
                return Some(Err(FrameFault::Truncated));
            }
            let length = usize::from(u16::from_be_bytes([segment[4], segment[5]]));
            if length < UDP_HDR {
                return Some(Err(FrameFault::Malformed));
            }
            if segment.len() < length {
                return Some(Err(FrameFault::Truncated));
            }
            Some(Ok(FlatParse::Seg(FlatSeg {
                src,
                dst,
                src_port: u16::from_be_bytes([segment[0], segment[1]]),
                dst_port: u16::from_be_bytes([segment[2], segment[3]]),
                proto: IpProtocol::Udp,
                tcp_flags: None,
                tcp_seq: 0,
                payload: &segment[UDP_HDR..length],
                wire_bytes: frame.len(),
            })))
        }
        _ => Some(Ok(FlatParse::Opaque)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{build_tcp_v4, build_udp_v4, insert_vlan_tag};
    use crate::MacAddr;
    use std::net::Ipv4Addr;

    fn macs() -> (MacAddr, MacAddr) {
        (MacAddr::from_id(1), MacAddr::from_id(2))
    }

    fn flat_of(frame: &[u8]) -> FlatSeg<'_> {
        match parse_flat(frame) {
            Ok(FlatParse::Seg(s)) => s,
            other => panic!("expected a segment, got {other:?}"),
        }
    }

    #[test]
    fn tcp_fast_path_matches_view() {
        let (sm, dm) = macs();
        let frame = build_tcp_v4(
            sm,
            dm,
            Ipv4Addr::new(10, 0, 0, 9),
            Ipv4Addr::new(198, 51, 100, 7),
            51515,
            443,
            42,
            7,
            TcpFlags::SYN | TcpFlags::ACK,
            b"hello",
        )
        .unwrap();
        let seg = flat_of(&frame);
        let view = PacketView::parse(&frame).unwrap();
        assert_eq!(seg.src, view.src_ip());
        assert_eq!(seg.dst, view.dst_ip());
        assert_eq!(seg.src_port, 51515);
        assert_eq!(seg.dst_port, 443);
        assert_eq!(seg.proto, IpProtocol::Tcp);
        assert_eq!(seg.tcp_seq, 42);
        assert!(seg.tcp_flags.unwrap().syn());
        assert_eq!(seg.payload, view.payload);
        assert_eq!(seg.wire_bytes, frame.len());
    }

    #[test]
    fn udp_fast_path_matches_view() {
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
        let seg = flat_of(&frame);
        assert_eq!(seg.proto, IpProtocol::Udp);
        assert_eq!(seg.tcp_flags, None);
        assert_eq!(seg.payload, b"dns query bytes");
    }

    #[test]
    fn vlan_and_v6_take_the_generic_path_and_agree() {
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
        let seg = flat_of(&tagged);
        assert_eq!(seg.payload, b"tagged dns");
        assert_eq!(seg.dst_port, 53);
        let v6 = crate::packet::build_udp_v6(
            sm,
            dm,
            "2001:db8::10".parse().unwrap(),
            "2001:db8::53".parse().unwrap(),
            55555,
            53,
            b"v6 dns",
        )
        .unwrap();
        let seg6 = flat_of(&v6);
        assert_eq!(seg6.payload, b"v6 dns");
        assert!(matches!(seg6.src, IpAddr::V6(_)));
    }

    #[test]
    fn rejects_mirror_view_fault_classes() {
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
            b"payload",
        )
        .unwrap();
        // Truncations at every depth, a corrupted IPv4 checksum, and runt
        // garbage must classify identically to the generic parser.
        let mut corrupt = frame.clone();
        corrupt[14 + 12] ^= 0xff; // IPv4 src byte → header checksum breaks
        let cases: Vec<Vec<u8>> = vec![
            frame[..10].to_vec(),
            frame[..16].to_vec(),
            frame[..40].to_vec(),
            corrupt,
            vec![0u8; 7],
        ];
        for case in cases {
            let flat = parse_flat(&case);
            let view = PacketView::parse(&case);
            match (flat, view) {
                (Err(fault), Err(e)) => assert_eq!(fault, FrameFault::of(&e), "case {case:?}"),
                (f, v) => panic!("accept/reject disagreement: {f:?} vs {v:?}"),
            }
        }
    }

    #[test]
    fn opaque_protocols_flatten_to_opaque() {
        use crate::ethernet::{EtherType, EthernetHeader};
        use crate::ipv4::Ipv4Header;
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
        assert_eq!(parse_flat(&frame), Ok(FlatParse::Opaque));
    }
}
