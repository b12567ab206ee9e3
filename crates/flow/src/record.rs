//! Per-flow accounting records.

use crate::dpi::{self, AppProtocol};
use crate::tcp_state::{TcpConnState, TcpTracker};
use crate::tls::{self, TlsInfo};
use crate::tuple::FlowKey;

/// Packet direction relative to the flow's client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowDirection {
    ClientToServer,
    ServerToClient,
}

/// How many leading payload bytes each direction keeps for DPI.
pub const DPI_SNAP: usize = 1024;

/// Accumulated state for one layer-4 flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    pub key: FlowKey,
    /// Timestamp (µs) of the first packet.
    pub first_ts: u64,
    /// Timestamp (µs) of the most recent packet.
    pub last_ts: u64,
    pub packets_c2s: u64,
    pub packets_s2c: u64,
    pub bytes_c2s: u64,
    pub bytes_s2c: u64,
    /// First payload bytes in each direction (up to [`DPI_SNAP`]).
    pub head_c2s: Vec<u8>,
    pub head_s2c: Vec<u8>,
    tcp: TcpTracker,
    /// Segments observed starting beyond the expected sequence number
    /// (packet loss, or the leading half of a reordering).
    pub seq_gaps: u32,
    /// Segments observed starting below the expected sequence number
    /// (duplicate, retransmission, or late reordered delivery).
    pub seq_rewinds: u32,
    /// Per-direction next-expected TCP sequence number, once initialised.
    next_seq_c2s: Option<u32>,
    next_seq_s2c: Option<u32>,
    /// Cached DPI verdict; recomputed lazily when new head bytes arrive.
    dpi_dirty: bool,
    dpi_cache: AppProtocol,
}

impl FlowRecord {
    /// Start a record at the first observed packet.
    pub fn new(key: FlowKey, ts: u64) -> Self {
        FlowRecord {
            key,
            first_ts: ts,
            last_ts: ts,
            packets_c2s: 0,
            packets_s2c: 0,
            bytes_c2s: 0,
            bytes_s2c: 0,
            head_c2s: Vec::new(),
            head_s2c: Vec::new(),
            tcp: TcpTracker::new(),
            seq_gaps: 0,
            seq_rewinds: 0,
            next_seq_c2s: None,
            next_seq_s2c: None,
            dpi_dirty: true,
            dpi_cache: AppProtocol::Other,
        }
    }

    /// Account one packet. `wire_bytes` is the full frame length,
    /// `payload` the transport payload.
    pub fn observe(
        &mut self,
        direction: FlowDirection,
        ts: u64,
        wire_bytes: usize,
        payload: &[u8],
        tcp_flags: Option<dnhunter_net::TcpFlags>,
    ) {
        self.observe_seg(direction, ts, wire_bytes, payload, payload.len(), tcp_flags);
    }

    /// [`FlowRecord::observe`] when only a payload *prefix* is at hand.
    ///
    /// `head` must hold at least the first
    /// `min(DPI_SNAP - head_so_far, payload_len)` payload bytes; everything
    /// past that is never read, and `payload_len` alone drives the TCP
    /// state. The sniffer drivers pass the full payload borrowed from the
    /// frame, which makes this identical to [`FlowRecord::observe`] without
    /// copying the payload out first.
    pub fn observe_seg(
        &mut self,
        direction: FlowDirection,
        ts: u64,
        wire_bytes: usize,
        head: &[u8],
        payload_len: usize,
        tcp_flags: Option<dnhunter_net::TcpFlags>,
    ) {
        self.last_ts = self.last_ts.max(ts);
        let from_client = matches!(direction, FlowDirection::ClientToServer);
        let (packets, bytes, head_buf) = if from_client {
            (
                &mut self.packets_c2s,
                &mut self.bytes_c2s,
                &mut self.head_c2s,
            )
        } else {
            (
                &mut self.packets_s2c,
                &mut self.bytes_s2c,
                &mut self.head_s2c,
            )
        };
        *packets += 1;
        *bytes += wire_bytes as u64;
        if payload_len > 0 && head_buf.len() < DPI_SNAP {
            let take = (DPI_SNAP - head_buf.len()).min(payload_len).min(head.len());
            #[expect(
                clippy::indexing_slicing,
                reason = "take <= head.len() by the `.min()` above"
            )]
            head_buf.extend_from_slice(&head[..take]);
            self.dpi_dirty = true;
        }
        if let Some(flags) = tcp_flags {
            self.tcp.observe(from_client, flags, payload_len);
        }
    }

    /// Track one direction's TCP sequence progression, counting gaps
    /// (segment starts beyond the expected number: a drop or the leading
    /// half of a reordering) and rewinds (segment starts below it: a
    /// duplicate, retransmission, or late reordered delivery). Pure
    /// wrapping arithmetic — a capture that starts mid-stream or wraps the
    /// 32-bit space stays consistent. Empty rewinds (bare ACKs re-stating
    /// an old number) are ignored; they carry no stream bytes.
    pub fn observe_tcp_seq(
        &mut self,
        from_client: bool,
        seq: u32,
        payload_len: usize,
        flags: dnhunter_net::TcpFlags,
    ) {
        // SYN and FIN each consume one sequence number (RFC 9293 §3.4).
        let advance = (payload_len as u32)
            .wrapping_add(u32::from(flags.syn()))
            .wrapping_add(u32::from(flags.fin()));
        let next = if from_client {
            &mut self.next_seq_c2s
        } else {
            &mut self.next_seq_s2c
        };
        let Some(expected) = *next else {
            *next = Some(seq.wrapping_add(advance));
            return;
        };
        let delta = seq.wrapping_sub(expected) as i32;
        if delta > 0 {
            self.seq_gaps += 1;
            dnhunter_telemetry::tm_count!(dnhunter_telemetry::Metric::TcpSeqGap);
            *next = Some(seq.wrapping_add(advance));
        } else if delta < 0 {
            if payload_len > 0 || flags.syn() || flags.fin() {
                self.seq_rewinds += 1;
                dnhunter_telemetry::tm_count!(dnhunter_telemetry::Metric::TcpSeqRewind);
            }
            // Keep the high-water expectation unless the segment extends it.
            let end = seq.wrapping_add(advance);
            if (end.wrapping_sub(expected) as i32) > 0 {
                *next = Some(end);
            }
        } else {
            *next = Some(expected.wrapping_add(advance));
        }
    }

    /// TCP connection state (meaningless for UDP flows).
    pub fn tcp_state(&self) -> TcpConnState {
        self.tcp.state()
    }

    /// DPI protocol verdict over the captured head bytes.
    pub fn protocol(&mut self) -> AppProtocol {
        if self.dpi_dirty {
            self.dpi_cache = dpi::classify(&self.head_c2s, &self.head_s2c, self.key.server_port);
            self.dpi_dirty = false;
        }
        self.dpi_cache
    }

    /// DPI verdict without mutation (recomputes if dirty).
    pub fn protocol_now(&self) -> AppProtocol {
        if self.dpi_dirty {
            dpi::classify(&self.head_c2s, &self.head_s2c, self.key.server_port)
        } else {
            self.dpi_cache
        }
    }

    /// TLS handshake information extracted from both directions.
    pub fn tls_info(&self) -> TlsInfo {
        let mut info = tls::inspect(&self.head_c2s);
        let server = tls::inspect(&self.head_s2c);
        info.server_hello |= server.server_hello;
        info.certificate_seen |= server.certificate_seen;
        if info.certificate_cn.is_none() {
            info.certificate_cn = server.certificate_cn;
        }
        info
    }

    /// Total packets both directions.
    pub fn packets(&self) -> u64 {
        self.packets_c2s + self.packets_s2c
    }

    /// Duration in microseconds.
    pub fn duration_micros(&self) -> u64 {
        self.last_ts - self.first_ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http;
    use dnhunter_net::{IpProtocol, TcpFlags};

    fn key() -> FlowKey {
        FlowKey::from_initiator(
            "10.0.0.1".parse().unwrap(),
            "23.4.5.6".parse().unwrap(),
            50000,
            80,
            IpProtocol::Tcp,
        )
    }

    #[test]
    fn accounting_per_direction() {
        let mut r = FlowRecord::new(key(), 1_000);
        r.observe(
            FlowDirection::ClientToServer,
            1_000,
            74,
            &[],
            Some(TcpFlags::SYN),
        );
        r.observe(
            FlowDirection::ServerToClient,
            1_100,
            74,
            &[],
            Some(TcpFlags::SYN | TcpFlags::ACK),
        );
        r.observe(
            FlowDirection::ClientToServer,
            1_200,
            66,
            &[],
            Some(TcpFlags::ACK),
        );
        let req = http::build_request("GET", "/", "a.com", "x");
        r.observe(
            FlowDirection::ClientToServer,
            1_300,
            66 + req.len(),
            &req,
            Some(TcpFlags::PSH | TcpFlags::ACK),
        );
        assert_eq!(r.packets_c2s, 3);
        assert_eq!(r.packets_s2c, 1);
        assert_eq!(r.packets(), 4);
        assert_eq!(r.duration_micros(), 300);
        assert!(r.tcp_state().is_established());
        assert_eq!(r.protocol(), AppProtocol::Http);
    }

    #[test]
    fn head_capture_is_bounded() {
        let mut r = FlowRecord::new(key(), 0);
        let big = vec![0x41u8; DPI_SNAP * 2];
        r.observe(FlowDirection::ClientToServer, 1, big.len(), &big, None);
        r.observe(FlowDirection::ClientToServer, 2, big.len(), &big, None);
        assert_eq!(r.head_c2s.len(), DPI_SNAP);
    }

    #[test]
    fn dpi_cache_updates_with_new_bytes() {
        let mut r = FlowRecord::new(key(), 0);
        assert_eq!(r.protocol(), AppProtocol::Other);
        let ch = crate::tls::build_client_hello(Some("secure.example.com"), 3);
        r.observe(FlowDirection::ClientToServer, 1, ch.len(), &ch, None);
        assert_eq!(r.protocol(), AppProtocol::Tls);
        assert_eq!(r.protocol_now(), AppProtocol::Tls);
    }

    #[test]
    fn seq_tracking_counts_gaps_and_rewinds() {
        let mut r = FlowRecord::new(key(), 0);
        let fl = TcpFlags::PSH | TcpFlags::ACK;
        // Establish expectation: seq 1000, 100 bytes -> next = 1100.
        r.observe_tcp_seq(true, 1_000, 100, fl);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (0, 0));
        // In order: no fault.
        r.observe_tcp_seq(true, 1_100, 50, fl);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (0, 0));
        // A dropped segment: next arrives beyond expected 1150.
        r.observe_tcp_seq(true, 1_400, 50, fl);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (1, 0));
        // A retransmission of old data: below expected 1450.
        r.observe_tcp_seq(true, 1_100, 50, fl);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (1, 1));
        // An empty ACK re-stating an old number is not a rewind.
        r.observe_tcp_seq(true, 1_100, 0, TcpFlags::ACK);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (1, 1));
        // Directions are tracked independently.
        r.observe_tcp_seq(false, 9_000, 10, fl);
        r.observe_tcp_seq(false, 9_010, 10, fl);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (1, 1));
    }

    #[test]
    fn seq_tracking_survives_wraparound() {
        let mut r = FlowRecord::new(key(), 0);
        let fl = TcpFlags::PSH | TcpFlags::ACK;
        // 10 bytes covering MAX-9..=MAX: the next expected seq wraps to 0.
        r.observe_tcp_seq(true, u32::MAX - 9, 10, fl);
        // The next in-order segment starts at 0 (wrapped): no fault.
        r.observe_tcp_seq(true, 0, 10, fl);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (0, 0));
        // And a post-wrap retransmission still counts as a rewind.
        r.observe_tcp_seq(true, 0, 10, fl);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (0, 1));
    }

    #[test]
    fn syn_advances_expected_seq_by_one() {
        let mut r = FlowRecord::new(key(), 0);
        r.observe_tcp_seq(true, 500, 0, TcpFlags::SYN);
        // ISN+1 is in order after a SYN.
        r.observe_tcp_seq(true, 501, 20, TcpFlags::PSH | TcpFlags::ACK);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (0, 0));
        // A duplicated SYN is a rewind even with no payload.
        r.observe_tcp_seq(true, 500, 0, TcpFlags::SYN);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (0, 1));
    }

    #[test]
    fn fin_advances_expected_seq_by_one() {
        let mut r = FlowRecord::new(key(), 0);
        r.observe_tcp_seq(true, 500, 0, TcpFlags::SYN);
        r.observe_tcp_seq(true, 501, 20, TcpFlags::PSH | TcpFlags::ACK);
        // FIN consumes one sequence number...
        r.observe_tcp_seq(true, 521, 0, TcpFlags::FIN | TcpFlags::ACK);
        // ...so an ACK restating seq 522 after it is in order, not a gap.
        r.observe_tcp_seq(true, 522, 0, TcpFlags::ACK);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (0, 0));
        // A retransmitted FIN is a rewind even with no payload.
        r.observe_tcp_seq(true, 521, 0, TcpFlags::FIN | TcpFlags::ACK);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (0, 1));
    }

    #[test]
    fn midstream_flow_accounting_stays_consistent() {
        // A flow first observed mid-stream (no SYN ever): bytes/packets
        // accounting and seq tracking initialise from the first segment.
        let mut r = FlowRecord::new(key(), 10);
        let fl = TcpFlags::PSH | TcpFlags::ACK;
        r.observe(
            FlowDirection::ClientToServer,
            10,
            120,
            &[0x41; 54],
            Some(fl),
        );
        r.observe_tcp_seq(true, 77_000, 54, fl);
        r.observe(
            FlowDirection::ServerToClient,
            20,
            1_400,
            &[0x42; 1_334],
            Some(fl),
        );
        r.observe_tcp_seq(false, 12_000, 1_334, fl);
        assert_eq!(r.packets_c2s, 1);
        assert_eq!(r.packets_s2c, 1);
        assert_eq!(r.bytes_c2s, 120);
        assert_eq!(r.bytes_s2c, 1_400);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (0, 0));
        // Contiguous continuation in both directions stays fault-free.
        r.observe_tcp_seq(true, 77_054, 10, fl);
        r.observe_tcp_seq(false, 13_334, 10, fl);
        assert_eq!((r.seq_gaps, r.seq_rewinds), (0, 0));
        assert!(!r.tcp_state().is_terminal());
    }

    #[test]
    fn tls_info_merges_directions() {
        let mut r = FlowRecord::new(key(), 0);
        let ch = crate::tls::build_client_hello(Some("mail.google.com"), 3);
        let fl = crate::tls::build_server_flight(Some("*.google.com"), 4);
        r.observe(FlowDirection::ClientToServer, 1, ch.len(), &ch, None);
        r.observe(FlowDirection::ServerToClient, 2, fl.len(), &fl, None);
        let info = r.tls_info();
        assert_eq!(info.sni.as_deref(), Some("mail.google.com"));
        assert_eq!(info.certificate_cn.as_deref(), Some("*.google.com"));
        assert!(info.server_hello);
    }
}
