//! The synthetic Internet registry: organizations and their address plan.
//!
//! This single table is the shared contract between the organization
//! database (standing in for MaxMind) and the traffic simulator's address
//! allocator: the simulator places a CDN's servers inside the prefixes
//! announced here, so that the analytics' whois-style attribution works the
//! same way it does in the paper. Names follow the organizations that appear
//! in the paper's figures (Fig. 5, 7, 8, 9; Tab. 5).

use crate::db::OrgDb;
use crate::prefix::Prefix;

/// What kind of operator an organization is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrgKind {
    /// Content delivery network (Akamai, EdgeCast, …).
    Cdn,
    /// Cloud/IaaS provider (Amazon EC2, Microsoft).
    Cloud,
    /// A content owner hosting its own servers ("SELF" in Fig. 9).
    SelfHosted,
    /// The monitored ISP itself (client space, resolvers).
    Isp,
    /// Anything else (unattributed peers, …).
    Other,
}

/// (name, kind, announced prefixes) for every organization in the synthetic
/// Internet. The simulator allocates server addresses from these prefixes.
pub fn org_plan() -> Vec<(&'static str, OrgKind, Vec<&'static str>)> {
    vec![
        // --- CDNs ---
        ("akamai", OrgKind::Cdn, vec!["23.0.0.0/12", "96.16.0.0/15"]),
        ("edgecast", OrgKind::Cdn, vec!["93.184.216.0/22"]),
        ("level 3", OrgKind::Cdn, vec!["8.19.0.0/16"]),
        ("leaseweb", OrgKind::Cdn, vec!["85.17.0.0/16"]),
        ("cotendo", OrgKind::Cdn, vec!["67.131.0.0/16"]),
        ("cdnetworks", OrgKind::Cdn, vec!["120.29.0.0/16"]),
        ("limelight", OrgKind::Cdn, vec!["68.142.64.0/18"]),
        ("dedibox", OrgKind::Cdn, vec!["88.190.0.0/16"]),
        ("meta", OrgKind::Cdn, vec!["205.186.0.0/16"]),
        ("ntt", OrgKind::Cdn, vec!["129.250.0.0/16"]),
        // --- Clouds ---
        (
            "amazon",
            OrgKind::Cloud,
            vec!["54.224.0.0/12", "107.20.0.0/14"],
        ),
        ("microsoft", OrgKind::Cloud, vec!["65.52.0.0/14"]),
        (
            "google",
            OrgKind::Cloud,
            vec!["74.125.0.0/16", "173.194.0.0/16"],
        ),
        // --- Self-hosting content owners ---
        (
            "facebook",
            OrgKind::SelfHosted,
            vec!["66.220.144.0/20", "69.171.224.0/19"],
        ),
        ("twitter", OrgKind::SelfHosted, vec!["199.59.148.0/22"]),
        ("linkedin", OrgKind::SelfHosted, vec!["216.52.242.0/24"]),
        ("zynga", OrgKind::SelfHosted, vec!["72.26.200.0/24"]),
        ("dailymotion", OrgKind::SelfHosted, vec!["195.8.215.0/24"]),
        ("apple", OrgKind::SelfHosted, vec!["17.0.0.0/8"]),
        ("yahoo", OrgKind::SelfHosted, vec!["98.136.0.0/14"]),
        ("wikipedia", OrgKind::SelfHosted, vec!["208.80.152.0/22"]),
        ("flurry", OrgKind::SelfHosted, vec!["216.74.41.0/24"]),
        ("aol", OrgKind::SelfHosted, vec!["64.12.0.0/16"]),
        ("opera", OrgKind::SelfHosted, vec!["195.189.142.0/24"]),
        ("lindenlab", OrgKind::SelfHosted, vec!["216.82.0.0/18"]),
        ("mailprovider", OrgKind::SelfHosted, vec!["62.211.72.0/21"]),
        ("smallhosts", OrgKind::SelfHosted, vec!["151.1.0.0/16"]),
        // --- ISP-internal space ---
        ("isp-clients", OrgKind::Isp, vec!["10.0.0.0/8"]),
        ("isp-infra", OrgKind::Isp, vec!["192.0.2.0/24"]),
        // --- Un-attributed peer-to-peer space ---
        (
            "p2p-space",
            OrgKind::Other,
            vec!["171.0.0.0/8", "186.0.0.0/8"],
        ),
    ]
}

/// Build the [`OrgDb`] from [`org_plan`].
pub fn builtin_registry() -> OrgDb {
    let mut db = OrgDb::new();
    for (name, kind, prefixes) in org_plan() {
        let h = db.add_org(name, kind);
        for p in prefixes {
            let prefix: Prefix = p.parse().expect("builtin prefix is valid");
            db.announce(h, prefix);
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::IpAddr;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn builtin_covers_paper_organizations() {
        let db = builtin_registry();
        for org in [
            "akamai",
            "amazon",
            "google",
            "level 3",
            "leaseweb",
            "cotendo",
            "edgecast",
            "microsoft",
            "facebook",
            "twitter",
            "linkedin",
            "zynga",
            "dailymotion",
            "dedibox",
            "meta",
            "ntt",
            "cdnetworks",
        ] {
            assert!(db.org_by_name(org).is_some(), "missing {org}");
        }
    }

    #[test]
    fn sample_attributions() {
        let db = builtin_registry();
        assert_eq!(db.org_name(ip("23.3.4.5")), "akamai");
        assert_eq!(db.org_name(ip("54.230.0.9")), "amazon");
        assert_eq!(db.org_name(ip("10.22.33.44")), "isp-clients");
        assert_eq!(db.org_name(ip("93.184.216.34")), "edgecast");
        assert_eq!(db.org_name(ip("171.5.5.5")), "p2p-space");
    }

    #[test]
    fn plan_prefixes_do_not_overlap() {
        // Pairwise disjointness keeps attribution unambiguous.
        let plan = org_plan();
        let mut all: Vec<(String, Prefix)> = Vec::new();
        for (name, _, prefixes) in &plan {
            for p in prefixes {
                all.push((name.to_string(), p.parse().unwrap()));
            }
        }
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                let (na, a) = &all[i];
                let (nb, b) = &all[j];
                let nested = a.contains(b.network()) || b.contains(a.network());
                assert!(!nested, "prefixes overlap: {na} {a} vs {nb} {b}");
            }
        }
    }

    #[test]
    fn kinds_are_attached() {
        let db = builtin_registry();
        assert_eq!(db.org_by_name("akamai").unwrap().kind, OrgKind::Cdn);
        assert_eq!(db.org_by_name("amazon").unwrap().kind, OrgKind::Cloud);
        assert_eq!(
            db.org_by_name("facebook").unwrap().kind,
            OrgKind::SelfHosted
        );
    }
}
