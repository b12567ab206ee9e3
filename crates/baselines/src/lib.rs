//! # dnhunter-baselines
//!
//! The alternatives the paper compares DN-Hunter against:
//!
//! * [`reverse`] — active reverse-DNS (PTR) lookup of server addresses
//!   (§3.1.3, Tab. 3): returns the *designated* name of the machine, which
//!   for CDN servers has nothing to do with the content.
//! * [`cert`] — TLS certificate inspection (§5.2.1, Tab. 4): a DPI that
//!   reads the server certificate's CN, defeated by generic wildcards, CDN
//!   certificates and session resumption.
//! * [`ports`] — classic port-based ground truth used for the "GT" columns
//!   of Tabs. 6–7.

#![forbid(unsafe_code)]
#![expect(clippy::disallowed_types, reason = "offline baselines, not per packet")]

pub mod cert;
pub mod ports;
pub mod reverse;

pub use cert::{certificate_comparison, CertMatch, CertMatchCounts};
pub use ports::well_known_service;
pub use reverse::{reverse_lookup_comparison, ReverseMatch, ReverseMatchCounts};
