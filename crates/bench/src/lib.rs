//! # dnhunter-bench
//!
//! The experiment harness that regenerates **every table and figure** of
//! the paper's evaluation from synthetic traces, plus shared plumbing for
//! the Criterion micro-benchmarks.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p dnhunter-bench --bin repro -- --all
//! ```
//!
//! or a single artefact:
//!
//! ```text
//! cargo run --release -p dnhunter-bench --bin repro -- --table 2
//! cargo run --release -p dnhunter-bench --bin repro -- --figure 8
//! cargo run --release -p dnhunter-bench --bin repro -- --dimensioning
//! ```

#![forbid(unsafe_code)]
#![expect(clippy::disallowed_types, reason = "experiment driver, not per packet")]

pub mod experiments;
pub mod harness;

pub use harness::Harness;
