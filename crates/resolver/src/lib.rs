//! # dnhunter-resolver
//!
//! The **DNS Resolver** of DN-Hunter (paper §3.1.1, Fig. 2, Algorithm 1):
//! a replica of the monitored clients' DNS caches built by sniffing DNS
//! responses.
//!
//! * FQDN entries live in a FIFO circular list (*Clist*) of size `L`
//!   ([`clist`]), which bounds entry lifetime without garbage collection.
//! * Lookup goes `(clientIP, serverIP) → FQDN` through one hash map
//!   ([`resolver`], [`maps::PairMap`]) whose value is the Clist generation
//!   of the pair's newest binding; an all-IPv4 pair is keyed by one
//!   packed `u64`. The paper uses two levels of ordered C++ `map`s and
//!   notes hash tables as the cheaper alternative (footnote 2).
//! * When a Clist slot is overwritten, its back-references are removed from
//!   the index (Algorithm 1 lines 23–25).
//! * [`DnsResolver::lookup`] implements lines 27–34: given the
//!   `(clientIP, serverIP)` of a new flow, return the FQDN the client
//!   resolved most recently for that server.
//!
//! Extensions evaluated in the paper's §6 are included: a multi-label mode
//! (return *all* recent FQDNs for a pair, quantifying label confusion) and
//! the client [`shard`]ing hash for scaling to larger client populations.

#![forbid(unsafe_code)]

/// Shadow-model self-checking of the §3.1 resolver semantics.
pub mod check;
/// The paper's §3.1 FIFO circular list (*Clist*).
pub mod clist;
/// The paper's §6 Clist-sizing replay harness.
pub mod dimensioning;
/// FQDN interning: the §3.2 real-time allocation diet for Algorithm 1.
pub mod intern;
/// The FNV-keyed hash tables of the per-packet path (paper footnote 2).
pub mod maps;
/// The single-threaded DNS resolver of the paper's §3.1 / Algorithm 1.
pub mod resolver;
/// Client→shard routing hash for scaling beyond one core (§3.1.1).
pub mod shard;
/// Hit/miss/confusion counters for the paper's §6 efficiency numbers.
pub mod stats;

pub use check::{CheckedResolver, ShadowModel};
pub use intern::{InternStats, NameInterner};
pub use resolver::{DnsResolver, InsertOutcome, ResolverConfig};
pub use shard::shard_of;
pub use stats::ResolverStats;
