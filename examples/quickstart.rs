//! Quickstart: build a tiny synthetic ISP trace, run the DN-Hunter sniffer
//! over it, and print what the labeled-flow database knows.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![expect(clippy::disallowed_types, reason = "example code, not per packet")]

use dn_hunter_repro::run_scaled;
use dnhunter_simnet::profiles;

fn main() {
    // A 0.1× EU1-FTTH trace: a few thousand flows, runs in seconds.
    let run = run_scaled(profiles::eu1_ftth(), 0.1, false);
    let report = &run.report;

    println!("trace          : {}", run.profile.name);
    println!("frames         : {}", report.sniffer_stats.frames);
    println!("dns responses  : {}", report.sniffer_stats.dns_responses);
    println!("flows          : {}", report.database.len());
    println!("distinct FQDNs : {}", report.database.distinct_fqdns());
    // Per-protocol hit ratios — the paper's Tab. 2 framing. (The overall
    // ratio would be dragged down by P2P peer flows, which never resolve.)
    let mut per_proto: std::collections::HashMap<&str, (u64, u64)> = Default::default();
    for f in report.database.flows() {
        if f.in_warmup {
            continue;
        }
        let e = per_proto.entry(f.protocol.label()).or_default();
        e.0 += 1;
        e.1 += u64::from(f.is_tagged());
    }
    for proto in ["http", "tls", "p2p"] {
        if let Some((n, h)) = per_proto.get(proto) {
            println!(
                "hit ratio {proto:<4} : {:.1}% of {n} flows",
                100.0 * *h as f64 / *n as f64
            );
        }
    }
    println!(
        "useless DNS    : {:.1}% of responses never followed by a flow",
        report.delays.useless_fraction() * 100.0
    );

    // Every flow carries the FQDN its client resolved — print a sample.
    println!("\nsample labelled flows:");
    for f in report
        .database
        .flows()
        .iter()
        .filter(|f| f.is_tagged())
        .take(8)
    {
        println!(
            "  {:<46} -> {:<16} {:>5} {:?}",
            f.fqdn.as_ref().expect("filtered on is_tagged").to_string(),
            f.key.server.to_string(),
            f.key.server_port,
            f.protocol
        );
    }

    // And the tag was known *before* the flow started:
    let early = report
        .database
        .flows()
        .iter()
        .filter(|f| f.tag_delay_micros.is_some())
        .count();
    println!(
        "\n{early} flows were identifiable at their first packet (the DNS response preceded them)"
    );
}
