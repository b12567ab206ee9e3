//! Domain-structure trees — paper Figs. 7 and 8.
//!
//! For one organization (second-level domain), build the token tree of its
//! FQDNs (numbers collapsed to `N`), and group the leaves by the CDN that
//! serves them, with server counts and flow shares — the LinkedIn/Zynga
//! pictures.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::net::IpAddr;

use dnhunter::FlowDatabase;
use dnhunter_dns::suffix::SuffixSet;
use dnhunter_dns::tokenizer::normalize_token;
use dnhunter_dns::DomainName;
use dnhunter_orgdb::OrgDb;

/// One node of the token tree.
#[derive(Debug, Default)]
pub struct TokenNode {
    /// Children keyed by token.
    pub children: BTreeMap<String, TokenNode>,
    /// Flows terminating exactly at this node.
    pub flows: u64,
    /// Distinct servers serving names terminating here.
    pub servers: HashSet<IpAddr>,
    /// Hosting organizations observed for names terminating here.
    pub orgs: BTreeMap<String, u64>,
}

/// The per-CDN rollup the figures print in their rectangular boxes.
#[derive(Debug, Clone, PartialEq)]
pub struct CdnGroup {
    pub org: String,
    pub servers: usize,
    pub flow_share: f64,
}

/// The whole Fig. 7/8 artefact.
#[derive(Debug)]
pub struct DomainTree {
    pub sld: DomainName,
    pub root: TokenNode,
    pub total_flows: u64,
    pub groups: Vec<CdnGroup>,
}

/// Build the tree for `sld` from the labeled flows.
pub fn domain_tree(
    db: &FlowDatabase,
    sld: &DomainName,
    orgdb: &OrgDb,
    suffixes: &SuffixSet,
) -> DomainTree {
    let mut root = TokenNode::default();
    let mut total = 0u64;
    let mut org_flows: HashMap<String, u64> = HashMap::new();
    let mut org_servers: HashMap<String, HashSet<IpAddr>> = HashMap::new();
    for f in db.by_second_level(sld) {
        let Some(fqdn) = &f.fqdn else { continue };
        total += 1;
        let org = orgdb.org_name(f.key.server).to_string();
        *org_flows.entry(org.clone()).or_default() += 1;
        org_servers
            .entry(org.clone())
            .or_default()
            .insert(f.key.server);
        // Walk tokens outermost-first (`mediaN` under `linkedin.com`).
        let mut node = &mut root;
        let subs: Vec<&str> = fqdn.sub_labels(suffixes).collect();
        for label in subs.into_iter().rev() {
            let token = normalize_token(label).unwrap_or_else(|| "N".to_string());
            node = node.children.entry(token).or_default();
        }
        node.flows += 1;
        node.servers.insert(f.key.server);
        *node.orgs.entry(org).or_default() += 1;
    }
    let mut groups: Vec<CdnGroup> = org_flows
        .into_iter()
        .map(|(org, flows)| CdnGroup {
            servers: org_servers[&org].len(),
            flow_share: flows as f64 / total.max(1) as f64,
            org,
        })
        .collect();
    groups.sort_by(|a, b| b.flow_share.partial_cmp(&a.flow_share).expect("no NaN"));
    DomainTree {
        sld: sld.clone(),
        root,
        total_flows: total,
        groups,
    }
}

impl DomainTree {
    /// Render as an indented text tree, with the CDN group boxes first —
    /// a textual Fig. 7/8.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} — {} flows", self.sld, self.total_flows);
        for g in &self.groups {
            let _ = writeln!(
                out,
                "  [{}: servers {}, flows {:.0}%]",
                g.org,
                g.servers,
                g.flow_share * 100.0
            );
        }
        render_node(&mut out, &self.root, 1);
        out
    }

    /// Look up a node by token path (for tests and queries).
    pub fn node(&self, path: &[&str]) -> Option<&TokenNode> {
        let mut node = &self.root;
        for p in path {
            node = node.children.get(*p)?;
        }
        Some(node)
    }
}

fn render_node(out: &mut String, node: &TokenNode, depth: usize) {
    for (token, child) in &node.children {
        let _ = write!(out, "{}{}", "  ".repeat(depth), token);
        if child.flows > 0 {
            let orgs: Vec<String> = child.orgs.iter().map(|(o, n)| format!("{o}:{n}")).collect();
            let _ = write!(
                out,
                "  ({} flows, {} servers; {})",
                child.flows,
                child.servers.len(),
                orgs.join(", ")
            );
        }
        out.push('\n');
        render_node(out, child, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnhunter::TaggedFlow;
    use dnhunter_flow::{AppProtocol, FlowKey};
    use dnhunter_net::IpProtocol;
    use dnhunter_orgdb::builtin_registry;

    fn flow(fqdn: &str, server: &str) -> TaggedFlow {
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
            first_ts: 0,
            last_ts: 1,
            packets_c2s: 1,
            packets_s2c: 1,
            bytes_c2s: 10,
            bytes_s2c: 10,
            protocol: AppProtocol::Http,
            tls: None,
            in_warmup: false,
        }
    }

    fn linkedin_db() -> FlowDatabase {
        let s = SuffixSet::builtin();
        let mut db = FlowDatabase::new();
        db.push(flow("media1.linkedin.com", "23.1.0.1"), &s);
        db.push(flow("media2.linkedin.com", "23.1.0.2"), &s);
        db.push(flow("media.linkedin.com", "93.184.216.4"), &s);
        db.push(flow("media.linkedin.com", "93.184.216.4"), &s);
        db.push(flow("www.linkedin.com", "216.52.242.7"), &s);
        db.push(flow("iphone.stats.zynga.com", "54.230.0.1"), &s); // other domain
        db
    }

    #[test]
    fn tree_collapses_numbered_names() {
        let db = linkedin_db();
        let orgdb = builtin_registry();
        let s = SuffixSet::builtin();
        let tree = domain_tree(&db, &"linkedin.com".parse().unwrap(), &orgdb, &s);
        assert_eq!(tree.total_flows, 5);
        // media1 + media2 collapse into one `mediaN` node with 2 flows.
        let median = tree.node(&["mediaN"]).unwrap();
        assert_eq!(median.flows, 2);
        assert_eq!(median.servers.len(), 2);
        assert_eq!(median.orgs.get("akamai"), Some(&2));
        // `media` is a distinct token.
        assert_eq!(tree.node(&["media"]).unwrap().flows, 2);
        assert_eq!(tree.node(&["www"]).unwrap().flows, 1);
        assert!(tree.node(&["stats"]).is_none()); // zynga flow excluded
    }

    #[test]
    fn multi_label_names_nest() {
        let orgdb = builtin_registry();
        let s = SuffixSet::builtin();
        let mut db = FlowDatabase::new();
        db.push(flow("iphone.stats.zynga.com", "54.230.0.1"), &s);
        let tree = domain_tree(&db, &"zynga.com".parse().unwrap(), &orgdb, &s);
        // Outermost-first: stats → iphone.
        let node = tree.node(&["stats", "iphone"]).unwrap();
        assert_eq!(node.flows, 1);
        assert_eq!(node.orgs.get("amazon"), Some(&1));
    }

    #[test]
    fn groups_match_hosting_shares() {
        let db = linkedin_db();
        let orgdb = builtin_registry();
        let s = SuffixSet::builtin();
        let tree = domain_tree(&db, &"linkedin.com".parse().unwrap(), &orgdb, &s);
        assert_eq!(tree.groups.len(), 3);
        let edgecast = tree.groups.iter().find(|g| g.org == "edgecast").unwrap();
        assert!((edgecast.flow_share - 0.4).abs() < 1e-9);
        assert_eq!(edgecast.servers, 1);
    }

    #[test]
    fn render_contains_key_elements() {
        let db = linkedin_db();
        let orgdb = builtin_registry();
        let s = SuffixSet::builtin();
        let tree = domain_tree(&db, &"linkedin.com".parse().unwrap(), &orgdb, &s);
        let text = tree.render();
        assert!(text.contains("linkedin.com — 5 flows"));
        assert!(text.contains("mediaN"));
        assert!(text.contains("akamai"));
        assert!(text.contains("edgecast"));
    }
}
