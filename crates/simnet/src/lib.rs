//! # dnhunter-simnet
//!
//! A deterministic, seeded simulator of the traffic visible at an ISP
//! Point-of-Presence: DNS queries/responses between clients and the local
//! resolver, plus the TCP/UDP data flows those resolutions precede. It
//! substitutes for the five proprietary packet traces of the paper
//! (Tab. 1: US-3G, EU2-ADSL, EU1-ADSL1, EU1-ADSL2, EU1-FTTH) and for the
//! 18-day live deployment, while exercising the *identical* code paths a
//! real capture would: every event is emitted as a checksummed Ethernet
//! frame that the DN-Hunter sniffer parses byte by byte.
//!
//! The model includes the mechanisms behind every phenomenon the paper
//! measures:
//!
//! * client-side DNS caching with TTLs (first-flow and cache-lifetime
//!   delays, Figs. 12–13),
//! * browser prefetching that resolves names never used ("useless" DNS,
//!   Tab. 9),
//! * CDN server pools with diurnal expansion and answer-list rotation
//!   (Figs. 3–5),
//! * multi-CDN hosting with per-geography weights (Figs. 7–9, Tab. 5),
//! * encrypted services with SNI/certificate behaviour matching Tab. 4,
//! * P2P traffic that bypasses DNS except for tracker announces (Tab. 2),
//! * client mobility and HTTP tunnelling on the 3G profile (its lower hit
//!   ratio), and
//! * an `appspot.com` model with BitTorrent trackers for the live-trace
//!   case study (Tab. 8, Figs. 10–11).

#![forbid(unsafe_code)]
#![expect(clippy::disallowed_types, reason = "trace generator, not per packet")]

pub mod address;
pub mod appspot;
pub mod catalog;
pub mod client;
pub mod config;
pub mod diurnal;
pub mod dnsmodel;
pub mod fault;
/// NetFlow/IPFIX-style view of a generated trace: the deterministic
/// flow-export emitter behind `gen-trace --flowrec-out`.
pub mod flowexport;
pub mod flowgen;
pub mod generator;
pub mod profiles;

pub use address::{AddressAllocator, PtrZone};
pub use catalog::{Catalog, Domain, Hosting, NamePattern, PayloadStyle, PoolSchedule, Service};
pub use config::{AccessTech, Geography, TraceProfile};
pub use fault::{FaultPlan, FaultStats};
pub use generator::{Trace, TraceGenerator};
pub use profiles::{all_paper_profiles, live_profile, profile_by_name};
