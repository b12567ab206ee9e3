//! # dnhunter-dns
//!
//! A from-scratch DNS implementation sized for passive monitoring:
//!
//! * [`name::DomainName`] — a validated, case-normalised domain name with the
//!   label structure the paper's analytics operate on (TLD, second-level
//!   domain, FQDN sub-labels).
//! * [`suffix`] — a compact public-suffix table so that `bbc.co.uk` yields
//!   `bbc.co.uk` as its *second-level domain* (the "organization" in the
//!   paper's terminology) rather than `co.uk`.
//! * [`message`] / [`rdata`] / [`codec`] — the RFC 1035 wire format with
//!   name-compression on encode and pointer-chasing (loop-safe) on decode,
//!   covering the record types a flow-tagging sniffer sees in practice
//!   (A, AAAA, CNAME, PTR, NS, MX, TXT, SOA).
//! * [`tokenizer`] — the FQDN tokenization of the paper's Algorithm 4
//!   (drop TLD + second-level domain, split the remaining labels on
//!   non-alphanumeric characters, collapse digit runs to `N`).

#![forbid(unsafe_code)]

/// Reference model of [`DomainName`]'s §4.1 label arithmetic, for
/// differential tests and the fuzzer.
pub mod check;
/// RFC 1035 §4 wire codec (name compression, pointer chasing).
pub mod codec;
/// Error type for DNS parsing; limits per RFC 1035 §2.3.4.
pub mod error;
/// Message structure per RFC 1035 §4.1: header, questions, records.
pub mod message;
/// Validated domain names and the label splits the paper's §4 analytics use.
pub mod name;
/// Resource-record payloads (RFC 1035 §3.3 / RFC 3596).
pub mod rdata;
/// Public-suffix table backing the paper's second-level-domain notion (§4.1).
pub mod suffix;
/// FQDN tokenization of the paper's Algorithm 4.
pub mod tokenizer;

pub use error::{DnsError, Result};
pub use message::{DnsHeader, DnsMessage, QClass, QType, Question, Rcode, ResourceRecord};
pub use name::DomainName;
pub use rdata::RData;
pub use tokenizer::{tokenize_fqdn, tokenize_label};
