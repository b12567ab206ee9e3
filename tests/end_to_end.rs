//! End-to-end integration: synthetic trace → sniffer → labeled flows.
//! Asserts the *shape* properties the paper reports.

#![expect(clippy::disallowed_types, reason = "test harness, not per packet")]

use dn_hunter_repro::run_scaled;
use dnhunter_flow::AppProtocol;
use dnhunter_simnet::profiles;

#[test]
fn ftth_trace_has_high_hit_ratio_and_labeled_flows() {
    let run = run_scaled(profiles::eu1_ftth(), 0.25, false);
    let report = &run.report;
    assert!(
        report.database.len() > 200,
        "flows: {}",
        report.database.len()
    );

    // Per-protocol hit ratios (Tab. 2 shape): HTTP and TLS high, P2P ~0.
    let mut stats: std::collections::HashMap<AppProtocol, (u64, u64)> = Default::default();
    for f in report.database.flows() {
        if f.in_warmup {
            continue;
        }
        let e = stats.entry(f.protocol).or_default();
        e.0 += 1;
        if f.is_tagged() {
            e.1 += 1;
        }
    }
    let ratio = |p: AppProtocol| {
        let (n, h) = stats.get(&p).copied().unwrap_or((0, 0));
        if n == 0 {
            -1.0
        } else {
            h as f64 / n as f64
        }
    };
    let http = ratio(AppProtocol::Http);
    let tls = ratio(AppProtocol::Tls);
    let p2p = ratio(AppProtocol::P2p);
    assert!(http > 0.80, "HTTP hit ratio {http}");
    assert!(tls > 0.70, "TLS hit ratio {tls}");
    assert!(
        (0.0..0.25).contains(&p2p) || p2p == -1.0,
        "P2P hit ratio {p2p}"
    );

    // Useless DNS (Tab. 9 shape): a substantial fraction, not a corner case.
    let useless = report.delays.useless_fraction();
    assert!(
        (0.25..0.70).contains(&useless),
        "useless DNS fraction {useless}"
    );

    // First-flow delay (Fig. 12 shape): most flows follow their response
    // within a second.
    let mut delays = report.delays.first_flow_delays.clone();
    assert!(!delays.is_empty());
    delays.sort_unstable();
    let p80 = delays[delays.len() * 8 / 10];
    assert!(p80 < 2_000_000, "p80 first-flow delay {p80}µs");
}

/// Tab. 2 compares hit ratios per protocol class; do the same here.
fn protocol_hit_ratio(run: &dn_hunter_repro::TraceRun, proto: AppProtocol) -> f64 {
    let (mut n, mut h) = (0u64, 0u64);
    for f in run.report.database.flows() {
        if f.in_warmup || f.protocol != proto {
            continue;
        }
        n += 1;
        h += u64::from(f.is_tagged());
    }
    if n == 0 {
        return -1.0;
    }
    h as f64 / n as f64
}

#[test]
fn mobile_trace_has_lower_hit_ratio_than_fixed_line() {
    let mobile = run_scaled(profiles::us_3g(), 0.25, false);
    let fixed = run_scaled(profiles::eu2_adsl(), 0.15, false);
    let hm = protocol_hit_ratio(&mobile, AppProtocol::Http);
    let hf = protocol_hit_ratio(&fixed, AppProtocol::Http);
    assert!(
        hm < hf - 0.05,
        "mobile HTTP {hm} should be clearly below fixed HTTP {hf}"
    );
    // And less useless DNS on mobile (Tab. 9: 30% vs ~47%).
    let um = mobile.report.delays.useless_fraction();
    let uf = fixed.report.delays.useless_fraction();
    assert!(um < uf, "useless mobile {um} vs fixed {uf}");
}

#[test]
fn encrypted_flows_carry_fqdn_labels() {
    let run = run_scaled(profiles::eu1_adsl2(), 0.2, false);
    let tls_labeled = run
        .report
        .database
        .flows()
        .iter()
        .filter(|f| f.protocol == AppProtocol::Tls && f.is_tagged())
        .count();
    assert!(tls_labeled > 20, "labeled TLS flows: {tls_labeled}");
    // Some of those have certificate CNs that differ from the label —
    // the weakness of cert inspection (Tab. 4).
    let mismatched = run
        .report
        .database
        .flows()
        .iter()
        .filter(|f| {
            matches!((&f.tls, &f.fqdn), (Some(tls), Some(fqdn))
                if tls.certificate_cn.as_deref().is_some_and(|cn| cn != fqdn.to_string()))
        })
        .count();
    assert!(mismatched > 0, "expected some cert/label mismatches");
}

#[test]
fn dns_responses_show_multi_address_answers() {
    let run = run_scaled(profiles::eu1_adsl2(), 0.2, false);
    let multi = run
        .report
        .answers_per_response
        .iter()
        .filter(|&&n| n > 1)
        .count();
    let frac = multi as f64 / run.report.answers_per_response.len().max(1) as f64;
    // §6: about 40% of responses return more than one address.
    assert!((0.15..0.65).contains(&frac), "multi-answer fraction {frac}");
    let max = run
        .report
        .answers_per_response
        .iter()
        .max()
        .copied()
        .unwrap_or(0);
    assert!(max >= 10, "expected some long answer lists, max {max}");
}

#[test]
fn truncated_responses_retry_over_tcp_and_still_tag() {
    use dnhunter_net::{Packet, TransportHeader};
    use dnhunter_simnet::TraceGenerator;

    let profile = profiles::eu2_adsl().scaled(0.06);
    let trace = TraceGenerator::new(profile.clone(), false).generate();
    // The trace must contain DNS-over-TCP segments (long google answer
    // lists exceed the UDP limit and set the TC bit).
    let mut tcp53 = 0;
    let mut truncated_udp = 0;
    for r in &trace.records {
        let Ok(pkt) = Packet::parse(&r.frame) else {
            continue;
        };
        match &pkt.transport {
            TransportHeader::Tcp(h) if h.src_port == 53 || h.dst_port == 53 => tcp53 += 1,
            TransportHeader::Udp(u) if u.src_port == 53 => {
                if let Ok(msg) = dnhunter_dns::codec::decode(&pkt.payload) {
                    truncated_udp += u32::from(msg.header.truncated);
                }
            }
            _ => {}
        }
    }
    assert!(tcp53 > 10, "expected DNS-over-TCP segments, got {tcp53}");
    assert!(truncated_udp > 0, "expected TC-bit responses");

    // And the sniffer still labels google flows (whose resolutions came
    // over TCP at least sometimes).
    let run = dn_hunter_repro::run_trace(profile, trace);
    let google: Vec<_> = run
        .report
        .database
        .by_second_level(&"google.com".parse().unwrap())
        .collect();
    assert!(!google.is_empty());
    let tagged = google.iter().filter(|f| f.is_tagged()).count();
    assert!(
        tagged * 10 >= google.len() * 7,
        "google flows tagged {tagged}/{}",
        google.len()
    );
}

#[test]
fn dual_stack_clients_get_v6_flows_tagged() {
    use dnhunter_simnet::TraceGenerator;

    let mut profile = profiles::eu1_ftth().scaled(0.3);
    profile.ipv6_client_fraction = 0.5; // exaggerate for test signal
    let trace = TraceGenerator::new(profile.clone(), false).generate();
    assert!(
        trace.stats.ipv6_flows > 5,
        "v6 flows: {}",
        trace.stats.ipv6_flows
    );

    let run = dn_hunter_repro::run_trace(profile, trace);
    let v6: Vec<_> = run
        .report
        .database
        .flows()
        .iter()
        .filter(|f| f.key.client.is_ipv6())
        .collect();
    assert!(!v6.is_empty(), "sniffer should reconstruct v6 flows");
    let tagged = v6.iter().filter(|f| f.is_tagged()).count();
    // AAAA responses over v6 feed the same resolver: v6 flows are labelled.
    assert!(
        tagged * 10 >= v6.len() * 8,
        "v6 tagged {tagged}/{}",
        v6.len()
    );
    // Labels point at google content.
    assert!(v6
        .iter()
        .filter_map(|f| f.second_level.as_ref())
        .any(|sld| {
            let s = sld.to_string();
            s.contains("google")
                || s.contains("youtube")
                || s.contains("blogspot")
                || s.contains("ytimg")
                || s.contains("appspot")
        }));
}

#[test]
fn multilabel_mode_surfaces_alternative_labels() {
    use dnhunter::{RealTimeSniffer, SnifferConfig};
    use dnhunter_resolver::ResolverConfig;
    use dnhunter_simnet::TraceGenerator;

    let profile = profiles::eu1_adsl2().scaled(0.15);
    let trace = TraceGenerator::new(profile.clone(), false).generate();
    let mut sniffer = RealTimeSniffer::new(SnifferConfig {
        warmup_micros: profile.warmup_micros,
        resolver: ResolverConfig {
            labels_per_server: 4,
            ..ResolverConfig::default()
        },
        ..SnifferConfig::default()
    });
    for r in &trace.records {
        sniffer.process_record(r);
    }
    let report = sniffer.finish();
    // Shared estates (EC2, Akamai) make several names live on one server;
    // the §6 extension surfaces them.
    let with_alts = report
        .database
        .flows()
        .iter()
        .filter(|f| !f.alt_labels.is_empty())
        .count();
    assert!(with_alts > 10, "flows with alternative labels: {with_alts}");
    // The alternatives never duplicate the primary label.
    for f in report.database.flows() {
        if let Some(primary) = &f.fqdn {
            assert!(
                !f.alt_labels.contains(primary),
                "primary duplicated for {primary}"
            );
        }
    }
}
