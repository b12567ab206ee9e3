//! The flow table: aggregates packets into flows and emits completed flows.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::IpAddr;

use dnhunter_net::{IpProtocol, Packet, TransportHeader};
// The flow table sits on the per-packet path: every segment does one map
// lookup (paper §3.2's real-time constraint), so it uses the FNV-keyed map
// rather than the default SipHash `HashMap` (lint L2).
use dnhunter_resolver::maps::FnvHashMap;
use dnhunter_telemetry::{tm_count, tm_gauge, Metric as Tm};

use crate::record::{FlowDirection, FlowRecord};
use crate::tuple::{CanonFlowKey, FlowKey};

/// Tuning knobs for the flow table.
#[derive(Debug, Clone)]
pub struct FlowTableConfig {
    /// Idle timeout (µs) after which a flow is considered finished.
    pub idle_timeout_micros: u64,
    /// How often (µs) to scan for idle flows.
    pub eviction_interval_micros: u64,
    /// Extra linger (µs) after FIN/RST before eviction, to absorb
    /// retransmissions.
    pub terminal_linger_micros: u64,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        FlowTableConfig {
            idle_timeout_micros: 120 * 1_000_000,
            eviction_interval_micros: 10 * 1_000_000,
            terminal_linger_micros: 2 * 1_000_000,
        }
    }
}

/// A pre-parsed transport segment: everything [`FlowTable::process_seg`]
/// needs from a packet, minus the payload bytes themselves. Both sniffer
/// drivers project their allocation-free flat parse onto this shape and
/// hand the payload alongside, so the table never sees an owned packet.
#[derive(Debug, Clone, Copy)]
pub struct CompactSeg {
    pub src: IpAddr,
    pub src_port: u16,
    pub dst: IpAddr,
    pub dst_port: u16,
    pub proto: IpProtocol,
    /// `None` for UDP segments.
    pub tcp_flags: Option<dnhunter_net::TcpFlags>,
    /// TCP sequence number of this segment; 0 for UDP.
    pub tcp_seq: u32,
    /// Full frame length on the wire.
    pub wire_bytes: usize,
    /// Full transport payload length (the `head` handed alongside may be
    /// shorter; see [`FlowRecord::observe_seg`]).
    pub payload_len: usize,
}

/// Events emitted while processing packets.
#[derive(Debug)]
pub enum FlowEvent {
    /// A new flow was created (paper: the moment the tagger queries the
    /// DNS resolver).
    FlowStarted(FlowKey),
    /// A flow finished (FIN/RST + linger, or idle timeout) and is handed off.
    FlowFinished(Box<FlowRecord>),
}

/// Aggregates packets on the 5-tuple. The *initiator* of a flow is whichever
/// endpoint sent its first observed packet, matching how a PoP-located
/// sniffer orients flows.
///
/// The map is keyed by the direction-free [`CanonFlowKey`], so the
/// per-segment path does exactly one hash probe; the oriented [`FlowKey`]
/// lives in each record and direction falls out of comparing the segment's
/// source endpoint to it.
pub struct FlowTable {
    config: FlowTableConfig,
    flows: FnvHashMap<CanonFlowKey, FlowRecord>,
    last_eviction: u64,
    /// Lazy min-heap of eviction candidates `(deadline, key)`, so each
    /// scan touches only the entries whose deadline has passed instead of
    /// filtering the whole table (the gate fires every interval; most
    /// flows are nowhere near expiry). Entries are *lower bounds*: one is
    /// pushed when a flow is created and when it turns terminal (the only
    /// events that can move a deadline down — activity only extends it),
    /// and a popped entry whose flow fails the exact predicate is pushed
    /// back at the flow's current deadline. Stale entries (evicted or
    /// replaced flows) re-check against whatever record now owns the key,
    /// which is exactly the predicate the full filter would apply.
    expiry_heap: BinaryHeap<Reverse<(u64, CanonFlowKey)>>,
    total_created: u64,
    total_finished: u64,
}

impl FlowTable {
    /// Fresh table.
    pub fn new(config: FlowTableConfig) -> Self {
        FlowTable {
            config,
            flows: FnvHashMap::default(),
            last_eviction: 0,
            expiry_heap: BinaryHeap::new(),
            total_created: 0,
            total_finished: 0,
        }
    }

    /// Number of live flows.
    pub fn live_flows(&self) -> usize {
        self.flows.len()
    }

    /// First-packet timestamp of the oldest live flow, if any. The daemon's
    /// rotation horizon is clamped to this: a still-live flow will emit its
    /// finish event at `first_ts`, so no bucket at or above the minimum may
    /// be retired yet. O(live flows), called only at rotation points.
    pub fn oldest_live_first_ts(&self) -> Option<u64> {
        self.flows.values().map(|r| r.first_ts).min()
    }

    /// Flows created since start.
    pub fn total_created(&self) -> u64 {
        self.total_created
    }

    /// Flows finished (emitted) since start.
    pub fn total_finished(&self) -> u64 {
        self.total_finished
    }

    /// Feed one parsed packet; returns the events it produced.
    /// `ts` is the capture timestamp in microseconds.
    pub fn process(&mut self, ts: u64, pkt: &Packet, wire_bytes: usize) -> Vec<FlowEvent> {
        let (src_port, dst_port, tcp_flags, tcp_seq) = match &pkt.transport {
            TransportHeader::Tcp(h) => (h.src_port, h.dst_port, Some(h.flags), h.seq),
            TransportHeader::Udp(h) => (h.src_port, h.dst_port, None, 0),
            // Not reconstructed; never advances the scan clock.
            TransportHeader::Opaque(_) => return Vec::new(),
        };
        let seg = CompactSeg {
            src: pkt.src_ip(),
            src_port,
            dst: pkt.dst_ip(),
            dst_port,
            proto: pkt.ip.protocol(),
            tcp_flags,
            tcp_seq,
            wire_bytes,
            payload_len: pkt.payload.len(),
        };
        let mut events = self.process_seg(ts, &seg, &pkt.payload);
        // Immediate eviction on terminal state is deferred by a linger so
        // late retransmissions don't recreate the flow; the periodic scan
        // below handles both idle and terminal flows.
        if ts.saturating_sub(self.last_eviction) >= self.config.eviction_interval_micros {
            self.last_eviction = ts;
            events.extend(self.evict(ts));
        }
        events
    }

    /// [`FlowTable::process`] for a pre-parsed segment, without the
    /// periodic eviction scan: the sniffer drivers gate
    /// [`FlowTable::evict_idle`] themselves, so the events of the frame and
    /// those of the scan it opens can carry different merge phases. `head`
    /// needs only the payload prefix [`FlowRecord::observe_seg`] documents.
    pub fn process_seg(&mut self, ts: u64, seg: &CompactSeg, head: &[u8]) -> Vec<FlowEvent> {
        use std::collections::hash_map::Entry;
        let mut events = Vec::new();
        let ckey = CanonFlowKey::of(seg.src, seg.src_port, seg.dst, seg.dst_port, seg.proto);
        let mut inserted = false;
        let record = match self.flows.entry(ckey) {
            Entry::Occupied(mut occ) => {
                // A fresh SYN on a terminated flow starts a new flow on the
                // same 5-tuple (port reuse); emit the old record first. The
                // replacement keeps the *old* flow's orientation — exactly
                // what re-resolving the oriented key used to produce.
                let fresh_syn = seg.tcp_flags.is_some_and(|f| f.syn() && !f.ack());
                if fresh_syn && occ.get().tcp_state().is_terminal() {
                    let key = occ.get().key;
                    let old = occ.insert(FlowRecord::new(key, ts));
                    self.total_finished += 1;
                    tm_count!(Tm::FlowSynReuse);
                    tm_count!(Tm::FlowsFinished);
                    tm_gauge!(Tm::FlowTableSize, -1);
                    events.push(FlowEvent::FlowFinished(Box::new(old)));
                    events.push(FlowEvent::FlowStarted(key));
                    self.total_created += 1;
                    tm_count!(Tm::FlowsStarted);
                    tm_gauge!(Tm::FlowTableSize, 1);
                    inserted = true;
                }
                occ.into_mut()
            }
            Entry::Vacant(vacant) => {
                let key = FlowKey::from_initiator(
                    seg.src,
                    seg.dst,
                    seg.src_port,
                    seg.dst_port,
                    seg.proto,
                );
                events.push(FlowEvent::FlowStarted(key));
                self.total_created += 1;
                tm_count!(Tm::FlowsStarted);
                tm_gauge!(Tm::FlowTableSize, 1);
                // A TCP flow whose first observed segment carries no SYN
                // means the capture started mid-stream (paper §3.2: PoP
                // sniffers see flows already in flight). Count it but track
                // it normally — the tagger still gets its chance on this
                // first segment.
                if seg.tcp_flags.is_some_and(|f| !f.syn()) {
                    tm_count!(Tm::FlowMidstreamStarts);
                }
                inserted = true;
                vacant.insert(FlowRecord::new(key, ts))
            }
        };
        let was_terminal = record.tcp_state().is_terminal();
        // Oriented direction: canonical-key equality guarantees the source
        // endpoint matches exactly one side of the record's key.
        let direction = if seg.src == record.key.client && seg.src_port == record.key.client_port {
            FlowDirection::ClientToServer
        } else {
            FlowDirection::ServerToClient
        };
        record.observe_seg(
            direction,
            ts,
            seg.wire_bytes,
            head,
            seg.payload_len,
            seg.tcp_flags,
        );
        if let Some(flags) = seg.tcp_flags {
            record.observe_tcp_seq(
                matches!(direction, FlowDirection::ClientToServer),
                seg.tcp_seq,
                seg.payload_len,
                flags,
            );
        }
        // A new flow or a terminal transition is the only way a deadline
        // can move *down*; those get a heap entry at the flow's current
        // deadline. Plain activity only extends deadlines, which existing
        // entries already lower-bound.
        if inserted || (!was_terminal && record.tcp_state().is_terminal()) {
            let deadline = Self::expiry_deadline(record, &self.config);
            self.expiry_heap.push(Reverse((deadline, ckey)));
        }
        events
    }

    /// First instant at which `record` can satisfy the eviction predicate
    /// in [`FlowTable::evict`] if it sees no further traffic.
    fn expiry_deadline(record: &FlowRecord, config: &FlowTableConfig) -> u64 {
        let ttl = if record.tcp_state().is_terminal() {
            config
                .terminal_linger_micros
                .min(config.idle_timeout_micros)
        } else {
            config.idle_timeout_micros
        };
        record.last_ts.saturating_add(ttl)
    }

    /// Run one eviction scan as of `now`, emitting idle and
    /// terminated-past-linger flows in deterministic order. Public for
    /// callers of [`FlowTable::process_seg`], which own the scan gate;
    /// [`FlowTable::process`] calls the same scan on its own interval gate.
    pub fn evict_idle(&mut self, now: u64) -> Vec<FlowEvent> {
        self.evict(now)
    }

    /// Evict idle/terminated flows as of time `now`. Emission order is
    /// deterministic (by first-packet time, then oriented 5-tuple) so
    /// identical inputs give identical outputs regardless of hash seeding.
    fn evict(&mut self, now: u64) -> Vec<FlowEvent> {
        let idle = self.config.idle_timeout_micros;
        let linger = self.config.terminal_linger_micros;
        // Pop every candidate whose (lower-bound) deadline has passed and
        // apply the exact predicate to whatever record owns the key today:
        // still-live flows go back at their current deadline, stale entries
        // (flow already evicted, key not reused) just drop. Every expired
        // flow is found — its heap entry can never postdate its deadline.
        let mut expired: Vec<CanonFlowKey> = Vec::new();
        while let Some(&Reverse((deadline, key))) = self.expiry_heap.peek() {
            if deadline > now {
                break;
            }
            self.expiry_heap.pop();
            let Some(r) = self.flows.get(&key) else {
                continue;
            };
            let silent = now.saturating_sub(r.last_ts);
            if silent >= idle || (r.tcp_state().is_terminal() && silent >= linger) {
                expired.push(key); // duplicates are fine: remove_all skips them
            } else {
                self.expiry_heap
                    .push(Reverse((Self::expiry_deadline(r, &self.config), key)));
            }
        }
        if expired.is_empty() {
            return Vec::new();
        }
        let ordered = Self::sorted_keys(
            expired
                .iter()
                .filter_map(|k| self.flows.get(k).map(|r| (k, r))),
        );
        self.remove_all(ordered)
    }

    /// Flush every remaining flow (end of trace), in deterministic order.
    pub fn flush(&mut self) -> Vec<FlowEvent> {
        self.expiry_heap.clear();
        let keys = Self::sorted_keys(self.flows.iter());
        self.remove_all(keys)
    }

    /// Canonical keys of the given entries, ordered by (first-packet time,
    /// oriented 5-tuple) — the deterministic emission order.
    fn sorted_keys<'a>(
        entries: impl Iterator<Item = (&'a CanonFlowKey, &'a FlowRecord)>,
    ) -> Vec<CanonFlowKey> {
        let mut keyed: Vec<(u64, FlowKey, CanonFlowKey)> =
            entries.map(|(ck, r)| (r.first_ts, r.key, *ck)).collect();
        keyed.sort_by_key(|(first_ts, k, _)| {
            (
                *first_ts,
                k.client,
                k.client_port,
                k.server,
                k.server_port,
                k.protocol,
            )
        });
        keyed.into_iter().map(|(_, _, ck)| ck).collect()
    }

    fn remove_all(&mut self, keys: Vec<CanonFlowKey>) -> Vec<FlowEvent> {
        // allow_lint(L8): one event slot per flow already resident in the
        // table — bounded by live-table size, not by a wire-claimed length
        let mut events = Vec::with_capacity(keys.len());
        for k in keys {
            if let Some(r) = self.flows.remove(&k) {
                self.total_finished += 1;
                tm_count!(Tm::FlowsFinished);
                tm_gauge!(Tm::FlowTableSize, -1);
                events.push(FlowEvent::FlowFinished(Box::new(r)));
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnhunter_net::{build_tcp_v4, build_udp_v4, MacAddr, TcpFlags};
    use std::net::Ipv4Addr;

    fn client() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 3)
    }
    fn server() -> Ipv4Addr {
        Ipv4Addr::new(23, 1, 2, 3)
    }

    fn tcp_pkt(from_client: bool, flags: TcpFlags, payload: &[u8]) -> Packet {
        let (s, d, sp, dp) = if from_client {
            (client(), server(), 50000, 80)
        } else {
            (server(), client(), 80, 50000)
        };
        let frame = build_tcp_v4(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            s,
            d,
            sp,
            dp,
            1,
            1,
            flags,
            payload,
        )
        .unwrap();
        Packet::parse(&frame).unwrap()
    }

    #[test]
    fn flow_lifecycle_and_orientation() {
        let mut t = FlowTable::new(FlowTableConfig::default());
        let ev = t.process(0, &tcp_pkt(true, TcpFlags::SYN, &[]), 74);
        assert!(matches!(ev.as_slice(), [FlowEvent::FlowStarted(_)]));
        t.process(100, &tcp_pkt(false, TcpFlags::SYN | TcpFlags::ACK, &[]), 74);
        t.process(200, &tcp_pkt(true, TcpFlags::ACK, &[]), 66);
        assert_eq!(t.live_flows(), 1);
        assert_eq!(t.total_created(), 1);
        // The single flow is oriented client→server.
        let finished = t.flush();
        assert_eq!(finished.len(), 1);
        match &finished[0] {
            FlowEvent::FlowFinished(r) => {
                assert_eq!(r.key.client, IpAddr::V4(client()));
                assert_eq!(r.key.server_port, 80);
                assert_eq!(r.packets_c2s, 2);
                assert_eq!(r.packets_s2c, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn server_first_packet_orients_server_as_initiator() {
        // If the trace catches the server's packet first (mid-flow pickup),
        // the flow is oriented from the first packet seen — the documented
        // passive-monitoring behaviour.
        let mut t = FlowTable::new(FlowTableConfig::default());
        t.process(0, &tcp_pkt(false, TcpFlags::ACK, b"data"), 70);
        let finished = t.flush();
        match &finished[0] {
            FlowEvent::FlowFinished(r) => {
                assert_eq!(r.key.client, IpAddr::V4(server()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn idle_timeout_evicts() {
        let mut t = FlowTable::new(FlowTableConfig {
            idle_timeout_micros: 1_000,
            eviction_interval_micros: 500,
            terminal_linger_micros: 100,
        });
        t.process(0, &tcp_pkt(true, TcpFlags::SYN, &[]), 74);
        // A later unrelated packet triggers the eviction scan.
        let udp_frame = build_udp_v4(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            client(),
            Ipv4Addr::new(8, 8, 8, 8),
            40000,
            53,
            b"q",
        )
        .unwrap();
        let udp = Packet::parse(&udp_frame).unwrap();
        let ev = t.process(10_000, &udp, udp_frame.len());
        let finished: Vec<_> = ev
            .iter()
            .filter(|e| matches!(e, FlowEvent::FlowFinished(_)))
            .collect();
        assert_eq!(finished.len(), 1);
        assert_eq!(t.live_flows(), 1); // the UDP flow remains
    }

    #[test]
    fn fin_fin_evicts_after_linger() {
        let mut t = FlowTable::new(FlowTableConfig {
            idle_timeout_micros: 1_000_000,
            eviction_interval_micros: 1,
            terminal_linger_micros: 10,
        });
        t.process(0, &tcp_pkt(true, TcpFlags::SYN, &[]), 74);
        t.process(10, &tcp_pkt(false, TcpFlags::SYN | TcpFlags::ACK, &[]), 74);
        t.process(20, &tcp_pkt(true, TcpFlags::FIN | TcpFlags::ACK, &[]), 66);
        t.process(30, &tcp_pkt(false, TcpFlags::FIN | TcpFlags::ACK, &[]), 66);
        // Next packet long after linger triggers eviction of the closed flow.
        let ev = t.process(1_000, &tcp_pkt(true, TcpFlags::SYN, &[]), 74);
        // Note: same 5-tuple — the closed flow is emitted and a new one starts.
        let finished = ev.iter().any(|e| matches!(e, FlowEvent::FlowFinished(_)));
        assert!(finished);
        assert_eq!(t.total_finished(), 1);
    }

    fn tcp_pkt_seq(from_client: bool, flags: TcpFlags, seq: u32, payload: &[u8]) -> Packet {
        let (s, d, sp, dp) = if from_client {
            (client(), server(), 50000, 80)
        } else {
            (server(), client(), 80, 50000)
        };
        let frame = build_tcp_v4(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            s,
            d,
            sp,
            dp,
            seq,
            0,
            flags,
            payload,
        )
        .unwrap();
        Packet::parse(&frame).unwrap()
    }

    #[test]
    fn midstream_flow_is_counted_and_tracked() {
        use dnhunter_telemetry as telemetry;
        let registry = std::sync::Arc::new(telemetry::Registry::new());
        let _guard = telemetry::bind(registry.clone());
        let mut t = FlowTable::new(FlowTableConfig::default());
        // First observed segment of the flow carries data, no SYN: the
        // capture started mid-stream.
        let ev = t.process(
            0,
            &tcp_pkt_seq(true, TcpFlags::PSH | TcpFlags::ACK, 5_000, b"data"),
            70,
        );
        assert!(matches!(ev.as_slice(), [FlowEvent::FlowStarted(_)]));
        // Contiguous continuation: tracked cleanly, no phantom faults.
        t.process(
            10,
            &tcp_pkt_seq(true, TcpFlags::PSH | TcpFlags::ACK, 5_004, b"more"),
            70,
        );
        let snap = registry.snapshot();
        assert_eq!(snap.get(Tm::FlowMidstreamStarts), 1);
        assert_eq!(snap.get(Tm::TcpSeqGap), 0);
        assert_eq!(snap.get(Tm::TcpSeqRewind), 0);
        // Byte accounting covers every observed frame despite the missing
        // handshake.
        let finished = t.flush();
        match &finished[0] {
            FlowEvent::FlowFinished(r) => {
                assert_eq!(r.packets_c2s, 2);
                assert_eq!(r.bytes_c2s, 140);
                assert_eq!((r.seq_gaps, r.seq_rewinds), (0, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn syn_opened_flow_is_not_midstream_and_faults_are_counted() {
        use dnhunter_telemetry as telemetry;
        let registry = std::sync::Arc::new(telemetry::Registry::new());
        let _guard = telemetry::bind(registry.clone());
        let mut t = FlowTable::new(FlowTableConfig::default());
        t.process(0, &tcp_pkt_seq(true, TcpFlags::SYN, 100, &[]), 74);
        // 100+1 expected; jump to 300 = a gap; replaying 101 = a rewind.
        t.process(
            10,
            &tcp_pkt_seq(true, TcpFlags::PSH | TcpFlags::ACK, 300, b"x"),
            67,
        );
        t.process(
            20,
            &tcp_pkt_seq(true, TcpFlags::PSH | TcpFlags::ACK, 101, b"y"),
            67,
        );
        let snap = registry.snapshot();
        assert_eq!(snap.get(Tm::FlowMidstreamStarts), 0);
        assert_eq!(snap.get(Tm::TcpSeqGap), 1);
        assert_eq!(snap.get(Tm::TcpSeqRewind), 1);
    }

    #[test]
    fn udp_flows_are_tracked() {
        let mut t = FlowTable::new(FlowTableConfig::default());
        let frame = build_udp_v4(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            client(),
            Ipv4Addr::new(8, 8, 4, 4),
            40000,
            53,
            b"query",
        )
        .unwrap();
        let pkt = Packet::parse(&frame).unwrap();
        t.process(0, &pkt, frame.len());
        assert_eq!(t.live_flows(), 1);
        let finished = t.flush();
        match &finished[0] {
            FlowEvent::FlowFinished(r) => {
                assert_eq!(r.key.protocol(), IpProtocol::Udp);
                assert_eq!(r.key.server_port, 53);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    use std::net::IpAddr;
}
