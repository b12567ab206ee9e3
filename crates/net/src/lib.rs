//! # dnhunter-net
//!
//! Wire-format encoders and decoders used by the DN-Hunter reproduction.
//!
//! This crate implements, from scratch, the subset of the TCP/IP stack that a
//! passive sniffer placed at an ISP Point-of-Presence needs to understand:
//!
//! * Ethernet II framing ([`ethernet`])
//! * IPv4 and IPv6 headers with checksum generation/validation ([`ipv4`],
//!   [`ipv6`])
//! * UDP and TCP transport headers, including the pseudo-header checksum and
//!   TCP options ([`udp`], [`tcp`])
//! * A composite [`packet::Packet`] parser that walks a raw frame down to the
//!   transport payload in one call, plus builder helpers used by the traffic
//!   simulator to synthesize valid frames
//! * A classic libpcap container reader/writer ([`pcap`]) so synthetic traces
//!   can be stored on disk and re-read exactly like a real capture
//!
//! Everything is pure safe Rust with no system dependencies; the goal is that
//! the byte streams produced by `dnhunter-simnet` and consumed by the
//! `dnhunter` sniffer are indistinguishable, at this layer, from frames read
//! off a real wire.

#![forbid(unsafe_code)]
// No panics and no unchecked indexing on the packet path (DESIGN.md §8).
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::panic, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented))]

pub mod checksum;
pub mod error;
pub mod ethernet;
pub mod flowrec;
pub mod ipv4;
pub mod ipv6;
pub mod mac;
pub mod packet;
pub mod pcap;
pub mod proto;
pub mod seg;
pub mod source;
pub mod tcp;
pub mod udp;

pub use error::{NetError, Result};
pub use ethernet::{EtherType, EthernetHeader};
pub use flowrec::{
    DnsExportRecord, ExportRecord, FlowExportRecord, FlowRecError, FlowRecReader, FlowRecWriter,
};
pub use ipv4::Ipv4Header;
pub use ipv6::Ipv6Header;
pub use mac::MacAddr;
pub use packet::{
    build_tcp_v4, build_tcp_v6, build_udp_v4, build_udp_v6, insert_vlan_tag, IpHeader, Packet,
    PacketView, TransportHeader,
};
pub use pcap::{PcapReader, PcapRecord, PcapWriter};
pub use proto::IpProtocol;
pub use seg::{parse_flat, FlatParse, FlatSeg, FrameFault};
pub use source::{
    FlowRecSource, FlowrecConfig, FlowrecStats, FrameSource, PcapFileSource, PcapStreamSource,
    SourcePoll,
};
pub use tcp::{TcpFlags, TcpHeader};
pub use udp::UdpHeader;
