//! The static trace-event catalog — every flight-recorder event the
//! pipeline can emit, declared in one place with the same discipline as
//! the [`metrics!`](crate::metric) catalog.
//!
//! A trace record is four machine words: a catalog id + frame sequence
//! number, a timestamp, and two opaque `u64` arguments. What the
//! arguments *mean* is part of the catalog entry ([`ArgKind`]): a plain
//! value, an FQDN provenance key, or a server provenance key. Provenance
//! keys are FNV-1a hashes ([`TraceKeyHasher`]) computed by the owning
//! crates (`dnhunter-dns` hashes names, `dnhunter-flow` hashes server
//! endpoints) so the explain renderer can join DNS, resolver, and flow
//! events for one target without ever storing a string on the record
//! path.
//!
//! Events are classed like metrics:
//!
//! * [`TraceClass::Stable`] — a pure function of the input trace
//!   (parse faults, DNS responses, resolver and flow decisions). Stable
//!   events carry *packet* timestamps and their multiset is identical
//!   across worker counts, which is what makes `--explain` output
//!   golden-testable.
//! * [`TraceClass::Runtime`] — scheduling events (ring batches, worker
//!   drains) stamped with wall-clock microseconds; these exist for the
//!   Chrome-trace profile view and are never part of deterministic
//!   output.
//!
//! The catalog generates [`TraceEvent`], so a `tm_trace!`/`tm_trace_wall!`
//! site naming an uncataloged event does not compile. Record arguments
//! must stay free of allocation, locking, and formatting; no lint checks
//! that (DESIGN.md §8).

/// Determinism class of a trace event (mirrors [`crate::Class`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// Pure function of the input trace; packet-timestamped.
    Stable,
    /// Scheduling/timing event; wall-clock-timestamped.
    Runtime,
}

/// What a record's `a`/`b` argument holds — the join key the explain
/// renderer matches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgKind {
    /// FNV-1a key of a fully-qualified domain name.
    FqdnKey,
    /// FNV-1a key of a `(server IP, server port)` endpoint.
    ServerKey,
    /// A plain integer (count, byte total, fault code, lane index...).
    Value,
}

/// Static metadata for one cataloged trace event.
#[derive(Debug, Clone, Copy)]
pub struct TraceEventInfo {
    /// Short snake_case event name used in every rendered form.
    pub name: &'static str,
    /// Determinism class (see module docs).
    pub class: TraceClass,
    /// Kind of the `a` argument.
    pub a_kind: ArgKind,
    /// Rendered label of the `a` argument.
    pub a_label: &'static str,
    /// Kind of the `b` argument.
    pub b_kind: ArgKind,
    /// Rendered label of the `b` argument.
    pub b_label: &'static str,
    /// One-line description.
    pub help: &'static str,
}

macro_rules! trace_events {
    ($($variant:ident => $name:literal, $class:ident,
        $akind:ident($alabel:literal), $bkind:ident($blabel:literal),
        $help:literal;)+) => {
        /// A cataloged trace event. See the module docs for the catalog
        /// discipline; the numeric discriminant is the on-ring event id.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u16)]
        pub enum TraceEvent {
            $(#[doc = $help] $variant,)+
        }

        impl TraceEvent {
            /// Number of cataloged events.
            pub const COUNT: usize = [$(TraceEvent::$variant,)+].len();

            /// Every event, in catalog order.
            pub const ALL: [TraceEvent; Self::COUNT] = [$(TraceEvent::$variant,)+];

            /// Static metadata for this event.
            pub const fn info(self) -> TraceEventInfo {
                match self {
                    $(TraceEvent::$variant => TraceEventInfo {
                        name: $name,
                        class: TraceClass::$class,
                        a_kind: ArgKind::$akind,
                        a_label: $alabel,
                        b_kind: ArgKind::$bkind,
                        b_label: $blabel,
                        help: $help,
                    },)+
                }
            }

            /// Recover an event from its on-ring id; `None` for ids the
            /// running catalog does not know (stale dump, corrupt ring).
            pub fn from_id(id: u16) -> Option<TraceEvent> {
                Self::ALL.get(id as usize).copied()
            }
        }
    };
}

trace_events! {
    // -- Stable events: pure functions of the input trace ----------------
    FrameParse => "frame_parse", Stable,
        Value("fault"), Value("wire_bytes"),
        "A frame failed to parse; `fault` is the FrameFault discriminant.";
    DnsResponse => "dns_response", Stable,
        FqdnKey("fqdn"), Value("answers"),
        "A DNS response for `fqdn` carried `answers` A/AAAA records.";
    ResolverBind => "resolver_bind", Stable,
        FqdnKey("fqdn"), Value("bound"),
        "The resolver bound `bound` new (client,server) entries to `fqdn`.";
    ResolverEvict => "resolver_evict", Stable,
        FqdnKey("fqdn"), Value("evicted"),
        "Inserting `fqdn` evicted `evicted` older Clist entries.";
    ResolverHit => "resolver_hit", Stable,
        ServerKey("server"), FqdnKey("fqdn"),
        "A flow to `server` matched the Clist entry for `fqdn`.";
    ResolverMiss => "resolver_miss", Stable,
        ServerKey("server"), Value("warmup"),
        "A flow to `server` found no Clist entry (`warmup`=1 inside warm-up).";
    FlowOpen => "flow_open", Stable,
        ServerKey("server"), Value("port"),
        "A new flow opened towards `server` on destination `port`.";
    FlowVerdict => "flow_verdict", Stable,
        ServerKey("server"), Value("protocol"),
        "DPI classified a flow to `server`; `protocol` is the AppProtocol id.";
    FlowFinish => "flow_finish", Stable,
        ServerKey("server"), Value("bytes"),
        "A flow to `server` finished having carried `bytes` payload bytes.";
    SinkFlow => "sink_flow", Stable,
        ServerKey("server"), Value("bytes"),
        "Streaming analytics consumed a finished flow to `server`.";
    // -- Runtime events: scheduling, for the Chrome-trace view -----------
    RingSendBatch => "ring_send_batch", Runtime,
        Value("shard"), Value("batches"),
        "The dispatcher flushed `batches` outbox batches to worker `shard`.";
    RingRecvBatch => "ring_recv_batch", Runtime,
        Value("shard"), Value("batches"),
        "Worker `shard` drained `batches` batches from its inbound ring.";
    WorkerDrain => "worker_drain", Runtime,
        Value("items"), Value("busy_nanos"),
        "A worker processed `items` segments in one drain sweep.";
}

/// Incremental FNV-1a/64 over raw bytes — the provenance-key hash.
///
/// Lives here (the zero-dependency crate every other crate can see) so
/// `dnhunter-dns` can key domain names and `dnhunter-flow` can key server
/// endpoints with the *same* function the CLI uses to hash an `--explain`
/// target, without any of them allocating on the record path.
#[derive(Debug, Clone)]
pub struct TraceKeyHasher(u64);

impl TraceKeyHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// Start a fresh hash.
    pub const fn new() -> Self {
        TraceKeyHasher(Self::OFFSET)
    }

    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Fold a single byte into the hash.
    pub fn write_u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// The finished 64-bit key.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for TraceKeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_consistent() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, ev) in TraceEvent::ALL.iter().enumerate() {
            let info = ev.info();
            assert!(!info.name.is_empty());
            assert!(
                info.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '_'),
                "{} must be snake_case",
                info.name
            );
            assert!(seen.insert(info.name), "duplicate name {}", info.name);
            assert!(!info.help.is_empty());
            assert_eq!(TraceEvent::from_id(i as u16), Some(*ev));
        }
        assert_eq!(TraceEvent::from_id(TraceEvent::COUNT as u16), None);
    }

    #[test]
    fn stable_events_precede_runtime_events() {
        // The explain renderer relies on discriminant order as a stable
        // tie-break; keep the catalog grouped Stable-first so related
        // provenance events sort together.
        let first_runtime = TraceEvent::ALL
            .iter()
            .position(|e| e.info().class == TraceClass::Runtime)
            .unwrap_or(TraceEvent::COUNT);
        for ev in &TraceEvent::ALL[first_runtime..] {
            assert_eq!(ev.info().class, TraceClass::Runtime);
        }
    }

    #[test]
    fn key_hasher_matches_reference_vector() {
        // FNV-1a("a") from the published reference vectors.
        let mut h = TraceKeyHasher::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h2 = TraceKeyHasher::new();
        h2.write_u8(b'a');
        assert_eq!(h2.finish(), h.finish());
    }
}
