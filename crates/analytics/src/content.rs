//! Content discovery — paper Algorithm 3, Fig. 5 and Tab. 5: what does a
//! CDN/cloud host, seen from this vantage point?

use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

use dnhunter::FlowDatabase;
use dnhunter_dns::suffix::SuffixSet;
use dnhunter_dns::DomainName;
use dnhunter_orgdb::OrgDb;

use crate::timeseries::BinnedDistinct;

/// Granularity at which Algorithm 3 aggregates names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameGranularity {
    /// Whole FQDNs.
    Fqdn,
    /// Second-level domains (organizations) — the Tab. 5 view.
    SecondLevel,
}

/// CONTENT_DISCOVERY(ServerIPSet): rank the names served by a set of
/// server addresses by flow count (the paper's token `score.update()` over
/// database hits), in one pass over the rows.
pub fn content_discovery(
    db: &FlowDatabase,
    servers: &[IpAddr],
    granularity: NameGranularity,
    suffixes: &SuffixSet,
) -> Vec<(DomainName, u64)> {
    let servers: HashSet<IpAddr> = servers.iter().copied().collect();
    let mut scores: HashMap<DomainName, u64> = HashMap::new();
    for f in db
        .flows()
        .iter()
        .filter(|f| servers.contains(&f.key.server))
    {
        let Some(fqdn) = &f.fqdn else { continue };
        let key = match granularity {
            NameGranularity::Fqdn => fqdn.clone(),
            NameGranularity::SecondLevel => fqdn.second_level_domain(suffixes),
        };
        *scores.entry(key).or_default() += 1;
    }
    let mut out: Vec<(DomainName, u64)> = scores.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Every server address the database attributes to `org`.
pub fn servers_of_org(db: &FlowDatabase, orgdb: &OrgDb, org: &str) -> Vec<IpAddr> {
    let mut out: Vec<IpAddr> = db
        .servers()
        .filter(|ip| orgdb.org_name(*ip) == org)
        .collect();
    out.sort();
    out
}

/// Tab. 5: the top-k second-level domains hosted on an organization's
/// servers, with their share of the org's labelled flows.
pub fn top_domains_on_org(
    db: &FlowDatabase,
    orgdb: &OrgDb,
    org: &str,
    k: usize,
    suffixes: &SuffixSet,
) -> Vec<(DomainName, f64)> {
    let servers = servers_of_org(db, orgdb, org);
    let ranked = content_discovery(db, &servers, NameGranularity::SecondLevel, suffixes);
    let total: u64 = ranked.iter().map(|(_, n)| n).sum();
    ranked
        .into_iter()
        .take(k)
        .map(|(d, n)| (d, n as f64 / total.max(1) as f64))
        .collect()
}

/// Fig. 5: distinct FQDNs served per organization per time bin.
pub fn fqdns_per_org_over_time(
    db: &FlowDatabase,
    orgdb: &OrgDb,
    orgs: &[&str],
    origin: u64,
    bin_micros: u64,
) -> HashMap<String, Vec<(u64, u64)>> {
    let mut bins: HashMap<&str, BinnedDistinct<DomainName>> = orgs
        .iter()
        .map(|&o| (o, BinnedDistinct::new(origin, bin_micros)))
        .collect();
    for f in db.flows() {
        let Some(fqdn) = &f.fqdn else { continue };
        let org = orgdb.org_name(f.key.server);
        if let Some(b) = bins.get_mut(org) {
            b.add(f.first_ts, fqdn.clone());
        }
    }
    bins.into_iter()
        .map(|(k, v)| (k.to_string(), v.series()))
        .collect()
}

/// Total distinct FQDNs an organization served over the whole trace
/// ("In total, Amazon served 7995 FQDN in the whole day").
pub fn total_fqdns_on_org(db: &FlowDatabase, orgdb: &OrgDb, org: &str) -> usize {
    let mut set: HashSet<&DomainName> = HashSet::new();
    for f in db.flows() {
        if let Some(fqdn) = &f.fqdn {
            if orgdb.org_name(f.key.server) == org {
                set.insert(fqdn);
            }
        }
    }
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnhunter::TaggedFlow;
    use dnhunter_flow::{AppProtocol, FlowKey};
    use dnhunter_net::IpProtocol;
    use dnhunter_orgdb::builtin_registry;

    fn flow(fqdn: &str, server: &str, ts: u64) -> TaggedFlow {
        TaggedFlow {
            key: FlowKey::from_initiator(
                "10.0.0.1".parse().unwrap(),
                server.parse().unwrap(),
                50000,
                80,
                IpProtocol::Tcp,
            ),
            fqdn: Some(fqdn.parse().unwrap()),
            second_level: None,
            alt_labels: Vec::new(),
            tag_delay_micros: None,
            first_ts: ts,
            last_ts: ts + 1,
            packets_c2s: 1,
            packets_s2c: 1,
            bytes_c2s: 10,
            bytes_s2c: 10,
            protocol: AppProtocol::Http,
            tls: None,
            in_warmup: false,
        }
    }

    fn amazon_db() -> FlowDatabase {
        let s = SuffixSet::builtin();
        let mut db = FlowDatabase::new();
        // Amazon-hosted tenants (54.224.0.0/12 is amazon in the plan).
        db.push(flow("d1.cloudfront.net", "54.230.0.1", 0), &s);
        db.push(flow("d2.cloudfront.net", "54.230.0.1", 100), &s);
        db.push(flow("d2.cloudfront.net", "54.230.0.2", 150), &s);
        db.push(flow("cdn.playfish.com", "54.230.0.2", 200), &s);
        db.push(flow("farm.zynga.com", "54.230.0.3", 300), &s);
        // Not Amazon.
        db.push(flow("www.facebook.com", "66.220.144.9", 400), &s);
        db
    }

    #[test]
    fn algorithm_3_ranks_names_by_flows() {
        let db = amazon_db();
        let s = SuffixSet::builtin();
        let servers: Vec<IpAddr> = vec![
            "54.230.0.1".parse().unwrap(),
            "54.230.0.2".parse().unwrap(),
            "54.230.0.3".parse().unwrap(),
        ];
        let by_fqdn = content_discovery(&db, &servers, NameGranularity::Fqdn, &s);
        assert_eq!(by_fqdn[0].0.to_string(), "d2.cloudfront.net");
        assert_eq!(by_fqdn[0].1, 2);
        let by_sld = content_discovery(&db, &servers, NameGranularity::SecondLevel, &s);
        assert_eq!(by_sld[0].0.to_string(), "cloudfront.net");
        assert_eq!(by_sld[0].1, 3);
    }

    #[test]
    fn top_domains_on_amazon_excludes_facebook() {
        let db = amazon_db();
        let orgdb = builtin_registry();
        let s = SuffixSet::builtin();
        let top = top_domains_on_org(&db, &orgdb, "amazon", 10, &s);
        assert_eq!(top[0].0.to_string(), "cloudfront.net");
        assert!((top[0].1 - 0.6).abs() < 1e-9); // 3 of 5 amazon flows
        assert!(top.iter().all(|(d, _)| d.to_string() != "facebook.com"));
    }

    #[test]
    fn fig5_series_counts_distinct_fqdns_per_bin() {
        let db = amazon_db();
        let orgdb = builtin_registry();
        let series = fqdns_per_org_over_time(&db, &orgdb, &["amazon", "facebook"], 0, 200);
        let amazon = &series["amazon"];
        // Bin 0 (0-199): d1, d2 → 2 distinct FQDNs.
        assert_eq!(amazon[0].1, 2);
        // Bin 1 (200-399): playfish + zynga → 2.
        assert_eq!(amazon[1].1, 2);
        let facebook = &series["facebook"];
        assert_eq!(facebook.iter().map(|x| x.1).sum::<u64>(), 1);
    }

    #[test]
    fn totals() {
        let db = amazon_db();
        let orgdb = builtin_registry();
        assert_eq!(total_fqdns_on_org(&db, &orgdb, "amazon"), 4);
        assert_eq!(total_fqdns_on_org(&db, &orgdb, "facebook"), 1);
        assert_eq!(total_fqdns_on_org(&db, &orgdb, "akamai"), 0);
        assert_eq!(servers_of_org(&db, &orgdb, "amazon").len(), 3);
    }
}
