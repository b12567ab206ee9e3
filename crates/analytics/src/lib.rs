//! # dnhunter-analytics
//!
//! The *off-line analyzer* of DN-Hunter (paper Fig. 1, §4–§5): a set of
//! analytics over the labeled-flow database produced by the real-time
//! sniffer.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`spatial`] | Algorithm 2, Figs. 4 & 9 — which servers/CDNs serve a domain |
//! | [`content`] | Algorithm 3, Fig. 5, Tab. 5 — what a CDN/cloud hosts |
//! | [`tags`] | Algorithm 4 + Eq. (1), Tabs. 6–7 — service tags per port |
//! | [`tree`] | Figs. 7–8 — domain-token trees with CDN grouping |
//! | [`degree`] | Fig. 3 — FQDN↔serverIP degree CDFs |
//! | [`growth`] | Fig. 6 — unique FQDN / 2nd-level / serverIP birth curves |
//! | [`delay`] | Figs. 12–13, Tab. 9 — DNS-to-flow delays, useless DNS |
//! | [`appspot`] | §5.6, Tab. 8, Figs. 10–11 — the appspot.com case study |
//! | [`confusion`] | §6 — label-confusion and answer-list statistics |
//! | [`anomaly`] | §4.1's sketched application: DNS hijack/poisoning detection |
//! | [`streaming`] | the one-pass in-stream variant of spatial/content/tags/growth/delay, plus offline-equivalence checks |
//! | [`cdf`], [`timeseries`], [`report`] | shared statistical/rendering plumbing |

#![forbid(unsafe_code)]
#![expect(clippy::disallowed_types, reason = "offline analyzer, not per packet")]

pub mod anomaly;
pub mod appspot;
pub mod cdf;
pub mod confusion;
pub mod content;
pub mod degree;
pub mod delay;
pub mod growth;
pub mod report;
pub mod spatial;
pub mod streaming;
pub mod tags;
pub mod timeseries;
pub mod tree;

pub use cdf::Ecdf;
pub use report::TextTable;
pub use timeseries::BinnedCounts;
