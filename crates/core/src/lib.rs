//! # DN-Hunter
//!
//! A reproduction of *"DNS to the Rescue: Discerning Content and Services in
//! a Tangled Web"* (Bermudez, Mellia, Munafò, Keralapura, Nucci — IMC 2012).
//!
//! DN-Hunter correlates sniffed **DNS responses** with **layer-4 flows** so
//! every flow is tagged with the FQDN its client resolved just before
//! connecting — even when the payload is encrypted, and *before the first
//! data packet arrives*:
//!
//! ```
//! use dnhunter::{RealTimeSniffer, SnifferConfig};
//! use dnhunter_net::{build_udp_v4, build_tcp_v4, MacAddr, TcpFlags};
//! use dnhunter_dns::{codec, DnsMessage, DomainName, QType, ResourceRecord, QClass, RData};
//!
//! let mut sniffer = RealTimeSniffer::new(SnifferConfig::default());
//!
//! // The client resolves www.example.com …
//! let q = DnsMessage::query(7, "www.example.com".parse().unwrap(), QType::A);
//! let resp = DnsMessage::answer_to(&q, vec![ResourceRecord {
//!     name: "www.example.com".parse().unwrap(),
//!     class: QClass::In,
//!     ttl: 60,
//!     rdata: RData::A("93.184.216.34".parse().unwrap()),
//! }]);
//! let frame = build_udp_v4(MacAddr::from_id(1), MacAddr::from_id(2),
//!     "192.0.2.53".parse().unwrap(), "10.0.0.5".parse().unwrap(),
//!     53, 40000, &codec::encode(&resp).unwrap()).unwrap();
//! sniffer.process_frame(1_000_000, &frame);
//!
//! // … and the SYN that follows is labelled immediately.
//! let syn = build_tcp_v4(MacAddr::from_id(1), MacAddr::from_id(2),
//!     "10.0.0.5".parse().unwrap(), "93.184.216.34".parse().unwrap(),
//!     51000, 443, 1, 0, TcpFlags::SYN, &[]).unwrap();
//! sniffer.process_frame(1_200_000, &syn);
//!
//! let report = sniffer.finish();
//! let flow = &report.database.flows()[0];
//! assert_eq!(flow.fqdn.as_ref().unwrap().to_string(), "www.example.com");
//! ```
//!
//! The crate hosts the *real-time sniffer* of the paper's Fig. 1 — flow
//! sniffer + DNS response sniffer + DNS resolver + flow tagger — plus the
//! labeled-flow [`db::FlowDatabase`] consumed by the offline analytics in
//! `dnhunter-analytics`, and a [`policy`] layer demonstrating the
//! "identify flows before the flows begin" capability.

#![forbid(unsafe_code)]

/// Daemon mode: the one poll-driven ingest loop over every source (pcap
/// files and streams, flow-record exports) and packet-clock state rotation.
pub mod daemon;
pub mod db;
/// Per-shard sniffer engine shared by the sequential and parallel drivers.
mod engine;
pub mod export;
/// The JSON writer shared by the `--json` rows and the sink renders.
mod json;
/// Multi-core ingest: sharded parallel sniffer over §3.1.1 client shards.
pub mod pipeline;
pub mod policy;
pub mod sniffer;
/// One-pass streaming analytics fed by the engine, merged per shard.
pub mod stream;
/// Flight-recorder consumers: drop accounting, `--explain` parsing, export.
pub mod traceio;
/// Sliding-window analytics: time-bucketed partial sinks maintained by
/// merge + retraction (also reachable as `stream::windowed`).
pub mod window;

pub use daemon::{
    run_flowrec_daemon, run_frame_daemon, DaemonDriver, DaemonSniffer, FlowrecConfig, FlowrecStats,
    Rotation, RotationEmitter,
};
pub use db::{FlowDatabase, TaggedFlow};
pub use export::{write_csv, write_json_lines, write_tstat_log};
pub use pipeline::{ParallelSniffer, PipelineTimings};
pub use policy::{PolicyAction, PolicyDecision, PolicyEnforcer, PolicyRule, RuleEnforcer};
pub use sniffer::{DelaySamples, RealTimeSniffer, SnifferConfig, SnifferReport, SnifferStats};
pub use stream::{FlowSink, RetractError, StreamGrowth, StreamingAnalytics, StreamingConfig};
pub use traceio::{note_trace_drops, parse_explain_target, write_chrome_trace, write_trace_jsonl};
pub use window::{WindowConfig, WindowSpan, WindowedAnalytics, MAX_LIVE_BUCKETS};
