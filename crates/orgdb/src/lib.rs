//! # dnhunter-orgdb
//!
//! The paper's content-discovery analytics (§4.2, Fig. 5, Fig. 9, Tab. 5)
//! attribute each `serverIP` to the *organization* operating it — Akamai,
//! Amazon EC2, Google, EdgeCast, … — using the MaxMind organization
//! database. This crate plays that role: a longest-prefix-match database
//! from IP prefixes to organization records, plus the synthetic registry
//! that matches the address plan of `dnhunter-simnet`.

#![forbid(unsafe_code)]

pub mod db;
pub mod prefix;
pub mod registry;

pub use db::{OrgDb, OrgRecord};
pub use prefix::Prefix;
pub use registry::{builtin_registry, org_plan, OrgKind};
