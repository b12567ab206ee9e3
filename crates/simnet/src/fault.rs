//! Seeded post-hoc fault injection: perturb a generated trace the way a
//! real capture point would — loss, duplication, reordering, snaplen
//! truncation, on-the-wire corruption, mid-stream capture start, and
//! actively hostile DNS payloads.
//!
//! The paper's traces are imperfect captures: the US-3G trace tags only
//! ~75% of flows because the sniffer misses the DNS responses that
//! precede them (§4.1, Tab. 3), and any PoP capture starts mid-stream
//! for flows already in flight. [`FaultPlan`] reproduces those defects
//! deterministically so the ingest stack's *graceful degradation* is a
//! testable property rather than a hope (see DESIGN.md §10).
//!
//! ## Nested fault sets
//!
//! Every record draws the **same fixed number of uniforms regardless of
//! the configured rates**, and each fault class fires when its dedicated
//! draw falls below its rate. A record dropped at rate `r1` is therefore
//! also dropped at every rate `r2 > r1` under the same seed: fault sets
//! are *nested* across intensities, which makes degradation exactly
//! monotone (the fault-matrix test asserts the tagging hit ratio never
//! rises as the DNS-drop rate rises — with nesting this holds exactly,
//! not just in expectation).

use std::net::Ipv4Addr;

use dnhunter_net::{build_udp_v4, MacAddr, PcapRecord};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::generator::DNS_SERVER;

/// What to inflict on a trace. All rates are probabilities in `[0, 1]`;
/// the default plan is the identity (every rate zero).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// RNG seed; the same seed and rates always pick the same victims.
    pub seed: u64,
    /// Drop any frame (uniform loss).
    pub drop_rate: f64,
    /// Drop specifically UDP frames sourced from port 53 — the unseen
    /// DNS responses behind the 3G trace's depressed hit ratio.
    pub dns_response_drop_rate: f64,
    /// Emit a frame twice back-to-back (link-layer duplication).
    pub duplicate_rate: f64,
    /// Delay a frame past the next [`FaultPlan::reorder_window`] frames
    /// (bounded reordering, as a multi-queue capture card produces).
    pub reorder_rate: f64,
    /// How many frames a reordered frame is delayed past.
    pub reorder_window: usize,
    /// Cut a frame short of its full length (snaplen truncation). The cut
    /// always lands strictly inside the frame, so the parser must reject
    /// it as truncated.
    pub truncate_rate: f64,
    /// Flip one IPv4 address byte (on-the-wire corruption). The IPv4
    /// header checksum is computed over the addresses, so the parser must
    /// reject the frame as a checksum failure — never mis-route it.
    pub corrupt_rate: f64,
    /// Discard everything before `first_ts + midstream_cut_micros`: the
    /// capture starts while flows are already in flight (TCP without SYN).
    pub midstream_cut_micros: u64,
    /// Drop SYN-carrying frames (handshake packets) at this rate — the
    /// per-flow version of a mid-stream capture start: the flow's data
    /// segments arrive with no SYN ever observed.
    pub syn_strip_rate: f64,
    /// Inject a crafted hostile DNS "response" after a frame: compression
    /// pointer loops, over-long names, bogus rdlength claims, truncated
    /// headers. Every one must fail decoding — counted, never crashed on.
    pub malicious_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xD15_EA5E,
            drop_rate: 0.0,
            dns_response_drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_window: 3,
            truncate_rate: 0.0,
            corrupt_rate: 0.0,
            midstream_cut_micros: 0,
            syn_strip_rate: 0.0,
            malicious_rate: 0.0,
        }
    }
}

/// How many faults of each class [`FaultPlan::apply`] actually inflicted —
/// ground truth for the fault-matrix assertions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    pub frames_in: u64,
    pub frames_out: u64,
    pub dropped: u64,
    pub dns_responses_dropped: u64,
    pub duplicated: u64,
    pub reordered: u64,
    pub truncated: u64,
    pub corrupted: u64,
    pub midstream_cut: u64,
    pub syn_stripped: u64,
    pub malicious_injected: u64,
}

impl FaultStats {
    /// Total faults inflicted, all classes.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.dns_responses_dropped
            + self.duplicated
            + self.reordered
            + self.truncated
            + self.corrupted
            + self.midstream_cut
            + self.syn_stripped
            + self.malicious_injected
    }
}

/// Source address for injected hostile frames: a TEST-NET-2 "attacker"
/// client that never collides with generated client space.
const MALICIOUS_CLIENT: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 99);

impl FaultPlan {
    /// True when this plan perturbs nothing.
    pub fn is_noop(&self) -> bool {
        self.drop_rate == 0.0
            && self.dns_response_drop_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.reorder_rate == 0.0
            && self.truncate_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.midstream_cut_micros == 0
            && self.syn_strip_rate == 0.0
            && self.malicious_rate == 0.0
    }

    /// Perturb `records`, returning the faulted stream and what was done.
    ///
    /// Deterministic per `(plan, input)`; see the module docs for why the
    /// fault sets are nested across rates under a fixed seed.
    pub fn apply(&self, records: &[PcapRecord]) -> (Vec<PcapRecord>, FaultStats) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut stats = FaultStats {
            frames_in: records.len() as u64,
            ..FaultStats::default()
        };
        let cut_before = records
            .first()
            .map(|r| r.timestamp_micros() + self.midstream_cut_micros)
            .unwrap_or(0);
        let mut out: Vec<PcapRecord> = Vec::with_capacity(records.len());
        // Frames delayed by reordering: (release-after countdown, frame).
        let mut held: Vec<(usize, PcapRecord)> = Vec::new();
        let mut malicious_kind = 0usize;
        for rec in records {
            // Fixed draw schedule — every record consumes exactly nine
            // uniforms whether or not any class fires, so victim sets are
            // identical across different rate settings of the same seed.
            let u_dns_drop: f64 = rng.gen();
            let u_drop: f64 = rng.gen();
            let u_trunc: f64 = rng.gen();
            let u_cut: f64 = rng.gen();
            let u_corrupt: f64 = rng.gen();
            let u_corrupt_byte: f64 = rng.gen();
            let u_dup: f64 = rng.gen();
            let u_reorder: f64 = rng.gen();
            let u_malicious: f64 = rng.gen();
            let u_syn: f64 = rng.gen();

            if rec.timestamp_micros() < cut_before {
                stats.midstream_cut += 1;
                continue;
            }
            if is_dns_response(&rec.frame) && u_dns_drop < self.dns_response_drop_rate {
                stats.dns_responses_dropped += 1;
                continue;
            }
            if u_drop < self.drop_rate {
                stats.dropped += 1;
                continue;
            }
            if u_syn < self.syn_strip_rate && is_tcp_syn(&rec.frame) {
                stats.syn_stripped += 1;
                continue;
            }
            let mut rec = rec.clone();
            if u_trunc < self.truncate_rate && rec.frame.len() >= 2 {
                // Cut strictly inside the frame: some header or length
                // claim is now unsatisfiable and the parser must say so.
                let max_keep = rec.frame.len() - 1;
                let keep = (1 + (u_cut * max_keep as f64) as usize).min(max_keep);
                rec.frame.truncate(keep);
                stats.truncated += 1;
            }
            if u_corrupt < self.corrupt_rate && is_ipv4(&rec.frame) && rec.frame.len() >= 34 {
                // Flip one src/dst address byte (frame offsets 26..34).
                // Those bytes are under the IPv4 header checksum, so the
                // parser rejects the frame instead of mis-routing it.
                let idx = 26 + ((u_corrupt_byte * 8.0) as usize).min(7);
                rec.frame[idx] ^= 0xff;
                stats.corrupted += 1;
            }
            let dup = u_dup < self.duplicate_rate;
            let inject = u_malicious < self.malicious_rate;
            let ts = rec.timestamp_micros();
            if u_reorder < self.reorder_rate && self.reorder_window > 0 {
                held.push((self.reorder_window, rec.clone()));
                if dup {
                    held.push((self.reorder_window, rec));
                    stats.duplicated += 1;
                }
                stats.reordered += 1;
            } else {
                out.push(rec.clone());
                if dup {
                    out.push(rec);
                    stats.duplicated += 1;
                }
            }
            if inject {
                out.push(PcapRecord::from_micros(
                    ts,
                    malicious_dns_frame(malicious_kind),
                ));
                malicious_kind += 1;
                stats.malicious_injected += 1;
            }
            // Every emitted frame ages the held queue by one slot.
            release_due(&mut held, &mut out);
        }
        // Flush whatever is still delayed, oldest first.
        for (_, rec) in held.drain(..) {
            out.push(rec);
        }
        stats.frames_out = out.len() as u64;
        (out, stats)
    }

    /// [`FaultPlan::apply`] in place on a [`crate::Trace`].
    pub fn apply_to_trace(&self, trace: &mut crate::Trace) -> FaultStats {
        let (records, stats) = self.apply(&trace.records);
        trace.records = records;
        stats
    }
}

/// Age the reorder queue by one emitted frame and release every frame
/// whose delay has elapsed, in hold order.
fn release_due(held: &mut Vec<(usize, PcapRecord)>, out: &mut Vec<PcapRecord>) {
    for entry in held.iter_mut() {
        entry.0 = entry.0.saturating_sub(1);
    }
    let mut i = 0;
    while i < held.len() {
        if held[i].0 == 0 {
            let (_, rec) = held.remove(i);
            out.push(rec);
        } else {
            i += 1;
        }
    }
}

/// Ethertype says IPv4. Hand-rolled peek — deliberately *not*
/// [`dnhunter_net::PacketView::parse`], which would count telemetry for
/// frames the plan merely inspects.
fn is_ipv4(frame: &[u8]) -> bool {
    frame.len() >= 34 && frame[12] == 0x08 && frame[13] == 0x00
}

/// True for a UDP frame sourced from port 53 (a DNS response on its way
/// to a client), over IPv4 or IPv6. Same hand-rolled-peek rationale as
/// [`is_ipv4`].
fn is_dns_response(frame: &[u8]) -> bool {
    if frame.len() < 14 {
        return false;
    }
    match (frame[12], frame[13]) {
        (0x08, 0x00) => {
            // IPv4: IHL in the low nibble of the first header byte.
            let ihl = usize::from(frame[14] & 0x0f) * 4;
            ihl >= 20
                && frame.len() >= 14 + ihl + 4
                && frame[23] == 17
                && frame[14 + ihl] == 0
                && frame[14 + ihl + 1] == 53
        }
        (0x86, 0xdd) => {
            // IPv6: fixed 40-byte header, next-header at offset 6.
            frame.len() >= 14 + 40 + 4 && frame[20] == 17 && frame[54] == 0 && frame[55] == 53
        }
        _ => false,
    }
}

/// True for a TCP frame with the SYN flag set, over IPv4 or IPv6. Same
/// hand-rolled-peek rationale as [`is_ipv4`].
fn is_tcp_syn(frame: &[u8]) -> bool {
    if frame.len() < 14 {
        return false;
    }
    match (frame[12], frame[13]) {
        (0x08, 0x00) => {
            let ihl = usize::from(frame[14] & 0x0f) * 4;
            ihl >= 20
                && frame.len() > 14 + ihl + 13
                && frame[23] == 6
                && frame[14 + ihl + 13] & 0x02 != 0
        }
        (0x86, 0xdd) => frame.len() > 14 + 40 + 13 && frame[20] == 6 && frame[67] & 0x02 != 0,
        _ => false,
    }
}

/// Build one hostile DNS "response" frame, cycling through five attack
/// shapes. Every payload must *fail* `dnhunter_dns::codec::decode` — the
/// fault matrix asserts the decode-reject counter moves, and the fuzz
/// harness keeps these shapes in its corpus.
fn malicious_dns_frame(kind: usize) -> Vec<u8> {
    let payload = malicious_dns_payload(kind);
    build_udp_v4(
        MacAddr::from_id(0xbad),
        MacAddr::from_id(1),
        DNS_SERVER,
        MALICIOUS_CLIENT,
        53,
        33433,
        &payload,
    )
    .expect("hostile payloads are well under the UDP size cap")
}

/// How many distinct payloads [`malicious_dns_payload`] cycles through.
const MALICIOUS_SHAPES: usize = 5;

/// The hostile payload shapes, indexable for corpus reuse.
pub fn malicious_dns_payload(kind: usize) -> Vec<u8> {
    match kind % MALICIOUS_SHAPES {
        // A name that is a compression pointer to itself: a naive decoder
        // chases it forever.
        0 => {
            let mut p = header(0x6661, 1, 0);
            p.extend_from_slice(&[0xc0, 12]); // pointer to offset 12 = itself
            p.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]);
            p
        }
        // A name whose labels total far past the 255-octet limit.
        1 => {
            let mut p = header(0x6662, 1, 0);
            for _ in 0..5 {
                p.push(63);
                p.extend_from_slice(&[b'a'; 63]);
            }
            p.push(0);
            p.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]);
            p
        }
        // An answer whose rdlength claims kilobytes that are not there.
        2 => {
            let mut p = header(0x6663, 1, 1);
            p.extend_from_slice(b"\x03www\x07invalid\x00\x00\x01\x00\x01");
            p.extend_from_slice(&[0xc0, 12]); // answer name: pointer to question
            p.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]); // TYPE A, IN
            p.extend_from_slice(&[0x00, 0x00, 0x00, 0x3c]); // TTL
            p.extend_from_slice(&[0xff, 0xff]); // rdlength 65535...
            p.extend_from_slice(&[1, 2, 3, 4]); // ...but 4 bytes follow
            p
        }
        // Not even a full 12-byte header.
        3 => vec![0x66, 0x64, 0x81, 0x80, 0x00, 0x01, 0x00],
        // An answer owned by a compression pointer into the header: the ID
        // 0x0377 reads as a 3-byte label, so a decoder that only rejects
        // forward pointers turns header bytes into a name.
        _ => {
            let mut p = header(0x0377, 1, 1);
            p.extend_from_slice(b"\x02ok\x00\x00\x01\x00\x01");
            p.extend_from_slice(&[0xc0, 0]); // answer name: pointer to offset 0
            p.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]); // TYPE A, IN
            p.extend_from_slice(&[0x00, 0x00, 0x00, 0x3c]); // TTL
            p.extend_from_slice(&[0x00, 0x04, 10, 0, 0, 1]);
            p
        }
    }
}

fn header(id: u16, qd: u16, an: u16) -> Vec<u8> {
    let mut p = Vec::with_capacity(12);
    p.extend_from_slice(&id.to_be_bytes());
    p.extend_from_slice(&[0x81, 0x80]); // QR=1, RD, RA
    p.extend_from_slice(&qd.to_be_bytes());
    p.extend_from_slice(&an.to_be_bytes());
    p.extend_from_slice(&[0, 0, 0, 0]); // NS, AR
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnhunter_net::{NetError, Packet};

    fn sample_records(n: usize) -> Vec<PcapRecord> {
        (0..n)
            .map(|i| {
                let frame = build_udp_v4(
                    MacAddr::from_id(2),
                    MacAddr::from_id(3),
                    if i % 3 == 0 {
                        DNS_SERVER
                    } else {
                        Ipv4Addr::new(10, 0, 0, 7)
                    },
                    Ipv4Addr::new(10, 0, 0, 9),
                    if i % 3 == 0 { 53 } else { 40_000 },
                    if i % 3 == 0 { 41_000 } else { 80 },
                    format!("payload-{i}").as_bytes(),
                )
                .unwrap();
                PcapRecord::from_micros(1_000_000 + i as u64 * 1_000, frame)
            })
            .collect()
    }

    #[test]
    fn noop_plan_is_identity() {
        let records = sample_records(50);
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        let (out, stats) = plan.apply(&records);
        assert_eq!(out.len(), records.len());
        assert_eq!(stats.total(), 0);
        for (a, b) in records.iter().zip(&out) {
            assert_eq!(a.frame, b.frame);
            assert_eq!(a.timestamp_micros(), b.timestamp_micros());
        }
    }

    #[test]
    fn drop_sets_are_nested_across_rates() {
        let records = sample_records(200);
        let survivors = |rate: f64| -> Vec<Vec<u8>> {
            let plan = FaultPlan {
                dns_response_drop_rate: rate,
                ..FaultPlan::default()
            };
            plan.apply(&records)
                .0
                .into_iter()
                .map(|r| r.frame)
                .collect()
        };
        let loose = survivors(0.3);
        let tight = survivors(0.8);
        // Everything alive at the higher rate is alive at the lower rate.
        for frame in &tight {
            assert!(loose.contains(frame));
        }
        assert!(tight.len() < loose.len());
        assert!(loose.len() < records.len());
    }

    #[test]
    fn dns_drop_only_hits_responses() {
        let records = sample_records(120);
        let plan = FaultPlan {
            dns_response_drop_rate: 1.0,
            ..FaultPlan::default()
        };
        let (out, stats) = plan.apply(&records);
        assert!(stats.dns_responses_dropped > 0);
        assert_eq!(
            out.len() + stats.dns_responses_dropped as usize,
            records.len()
        );
        assert!(out.iter().all(|r| !is_dns_response(&r.frame)));
    }

    #[test]
    fn truncation_yields_truncated_parse_errors() {
        let records = sample_records(60);
        let plan = FaultPlan {
            truncate_rate: 1.0,
            ..FaultPlan::default()
        };
        let (out, stats) = plan.apply(&records);
        assert_eq!(stats.truncated as usize, out.len());
        for rec in &out {
            match Packet::parse(&rec.frame) {
                Err(NetError::Truncated { .. }) => {}
                other => panic!("expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_yields_checksum_errors() {
        let records = sample_records(60);
        let plan = FaultPlan {
            corrupt_rate: 1.0,
            ..FaultPlan::default()
        };
        let (out, stats) = plan.apply(&records);
        assert_eq!(stats.corrupted as usize, out.len());
        for rec in &out {
            match Packet::parse(&rec.frame) {
                Err(NetError::BadChecksum { .. }) => {}
                other => panic!("expected BadChecksum, got {other:?}"),
            }
        }
    }

    #[test]
    fn reordering_preserves_the_frame_multiset() {
        let records = sample_records(100);
        let plan = FaultPlan {
            reorder_rate: 0.5,
            reorder_window: 4,
            ..FaultPlan::default()
        };
        let (out, stats) = plan.apply(&records);
        assert!(stats.reordered > 0);
        assert_eq!(out.len(), records.len());
        let mut a: Vec<_> = records.iter().map(|r| r.frame.clone()).collect();
        let mut b: Vec<_> = out.iter().map(|r| r.frame.clone()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // ...but the stream order did change.
        let orig: Vec<_> = records.iter().map(|r| r.frame.clone()).collect();
        let seen: Vec<_> = out.iter().map(|r| r.frame.clone()).collect();
        assert_ne!(orig, seen);
    }

    #[test]
    fn duplication_adds_adjacent_copies() {
        let records = sample_records(80);
        let plan = FaultPlan {
            duplicate_rate: 0.5,
            ..FaultPlan::default()
        };
        let (out, stats) = plan.apply(&records);
        assert!(stats.duplicated > 0);
        assert_eq!(out.len(), records.len() + stats.duplicated as usize);
    }

    #[test]
    fn midstream_cut_drops_the_head_of_the_trace() {
        let records = sample_records(100);
        let plan = FaultPlan {
            midstream_cut_micros: 50_000, // first 50 records (1ms spacing)
            ..FaultPlan::default()
        };
        let (out, stats) = plan.apply(&records);
        assert_eq!(stats.midstream_cut, 50);
        assert_eq!(out.len(), 50);
        assert!(out
            .iter()
            .all(|r| r.timestamp_micros() >= 1_000_000 + 50_000));
    }

    #[test]
    fn syn_strip_removes_only_handshake_frames() {
        use dnhunter_net::{build_tcp_v4, TcpFlags};
        let mut records = sample_records(10); // UDP, untouched
        for i in 0..10u32 {
            let flags = if i % 2 == 0 {
                TcpFlags::SYN
            } else {
                TcpFlags::ACK
            };
            let frame = build_tcp_v4(
                MacAddr::from_id(2),
                MacAddr::from_id(3),
                Ipv4Addr::new(10, 0, 0, 7),
                Ipv4Addr::new(10, 0, 0, 9),
                50_000,
                80,
                i,
                0,
                flags,
                b"x",
            )
            .unwrap();
            records.push(PcapRecord::from_micros(2_000_000 + u64::from(i), frame));
        }
        let plan = FaultPlan {
            syn_strip_rate: 1.0,
            ..FaultPlan::default()
        };
        let (out, stats) = plan.apply(&records);
        assert_eq!(stats.syn_stripped, 5);
        assert_eq!(out.len(), records.len() - 5);
        assert!(out.iter().all(|r| !is_tcp_syn(&r.frame)));
    }

    #[test]
    fn malicious_payloads_all_fail_decode() {
        for kind in 0..MALICIOUS_SHAPES {
            let payload = malicious_dns_payload(kind);
            assert!(
                dnhunter_dns::codec::decode(&payload).is_err(),
                "hostile payload {kind} decoded cleanly"
            );
            // The carrier frame itself parses fine — the *DNS layer* must
            // be the one that rejects it.
            let frame = malicious_dns_frame(kind);
            let pkt = Packet::parse(&frame).expect("carrier frame is valid");
            assert!(is_dns_response(&frame));
            drop(pkt);
        }
    }

    #[test]
    fn malicious_injection_counts_and_survives() {
        let records = sample_records(60);
        let plan = FaultPlan {
            malicious_rate: 0.5,
            ..FaultPlan::default()
        };
        let (out, stats) = plan.apply(&records);
        assert!(stats.malicious_injected > 0);
        assert_eq!(out.len(), records.len() + stats.malicious_injected as usize);
    }
}
