//! Calibration harness: prints Tab. 2 / Tab. 9-style numbers for scaled
//! profiles. Run explicitly with:
//! `cargo test --test calibration -- --ignored --nocapture`

#![expect(clippy::disallowed_types, reason = "test harness, not per packet")]

use std::collections::HashMap;

use dn_hunter_repro::run_scaled;
use dnhunter_flow::AppProtocol;
use dnhunter_simnet::profiles;

fn per_protocol(run: &dn_hunter_repro::TraceRun) -> HashMap<AppProtocol, (u64, u64)> {
    let mut stats: HashMap<AppProtocol, (u64, u64)> = HashMap::new();
    for f in run.report.database.flows() {
        if f.in_warmup {
            continue;
        }
        let e = stats.entry(f.protocol).or_default();
        e.0 += 1;
        if f.is_tagged() {
            e.1 += 1;
        }
    }
    stats
}

#[test]
#[ignore = "calibration printout, run on demand"]
fn print_hit_ratios_all_profiles() {
    for profile in profiles::all_paper_profiles() {
        let name = profile.name.clone();
        let run = run_scaled(profile, 0.25, false);
        let stats = per_protocol(&run);
        println!("=== {name} ===");
        println!(
            "  flows={} dns_resp={} useless={:.0}%",
            run.report.database.len(),
            run.report.sniffer_stats.dns_responses,
            run.report.delays.useless_fraction() * 100.0
        );
        let mut keys: Vec<_> = stats.keys().copied().collect();
        keys.sort_by_key(|k| k.label());
        for k in keys {
            let (n, h) = stats[&k];
            println!(
                "  {:<6} {:>6} flows  hit {:>5.1}%",
                k.label(),
                n,
                100.0 * h as f64 / n as f64
            );
        }
    }
}

#[test]
#[ignore = "degree diagnostics, run on demand"]
fn print_degree_breakdown() {
    use std::collections::{HashMap, HashSet};
    let run = run_scaled(profiles::eu2_adsl(), 0.25, false);
    let mut fqdn_ips: HashMap<String, HashSet<std::net::IpAddr>> = HashMap::new();
    for f in run.report.database.flows() {
        if let Some(fq) = &f.fqdn {
            fqdn_ips
                .entry(fq.to_string())
                .or_default()
                .insert(f.key.server);
        }
    }
    let mut per_sld: HashMap<String, (u32, u32)> = HashMap::new(); // (single, multi)
    for (fq, ips) in &fqdn_ips {
        let sld = fq.rsplit('.').take(2).collect::<Vec<_>>().join(".");
        let e = per_sld.entry(sld).or_default();
        if ips.len() == 1 {
            e.0 += 1
        } else {
            e.1 += 1
        }
    }
    let mut v: Vec<_> = per_sld.into_iter().collect();
    v.sort_by_key(|(_, (s, m))| std::cmp::Reverse(s + m));
    println!("total distinct fqdns: {}", fqdn_ips.len());
    for (sld, (s, m)) in v.into_iter().take(20) {
        println!("{sld:>22}  single={s:<5} multi={m}");
    }
}
