//! The labeled-flow database (paper Fig. 1, "Flow Database").
//!
//! Stores one row per finished flow, tagged with the FQDN the client
//! resolved, and maintains the secondary indexes the offline analytics
//! query: by FQDN, by second-level domain, by server address, by server
//! port.

use std::collections::HashMap;
use std::net::IpAddr;

use dnhunter_dns::suffix::SuffixSet;
use dnhunter_dns::DomainName;
use dnhunter_flow::tls::TlsInfo;
use dnhunter_flow::{AppProtocol, FlowKey};
use serde::{Deserialize, Serialize};

/// One finished, labelled flow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaggedFlow {
    pub key: FlowKey,
    /// The label: the FQDN the client resolved for the server, if the DNS
    /// resolver had one.
    pub fqdn: Option<DomainName>,
    /// The organization-level name (second-level domain) of the label.
    pub second_level: Option<DomainName>,
    /// Older labels still live for the same (client, server) pair, newest
    /// first — §6's "return all possible labels" extension. Empty unless
    /// the resolver runs with `labels_per_server > 1`.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub alt_labels: Vec<DomainName>,
    /// Microseconds between the tagging DNS response and the flow's first
    /// packet — the paper's "first flow delay" ingredient.
    pub tag_delay_micros: Option<u64>,
    /// First/last packet timestamps (µs since epoch).
    pub first_ts: u64,
    pub last_ts: u64,
    pub packets_c2s: u64,
    pub packets_s2c: u64,
    pub bytes_c2s: u64,
    pub bytes_s2c: u64,
    /// DPI ground-truth protocol.
    pub protocol: AppProtocol,
    /// TLS observations (SNI / certificate CN), when the flow was TLS.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tls: Option<TlsInfo>,
    /// True if the flow began during the warm-up window (excluded from
    /// hit-ratio accounting, as in the paper's 5-minute warm-up).
    pub in_warmup: bool,
}

impl TaggedFlow {
    /// Total bytes both directions.
    pub fn bytes(&self) -> u64 {
        self.bytes_c2s + self.bytes_s2c
    }

    /// True when a label was assigned.
    pub fn is_tagged(&self) -> bool {
        self.fqdn.is_some()
    }
}

/// The labeled-flow database with secondary indexes.
#[derive(Debug, Default)]
pub struct FlowDatabase {
    flows: Vec<TaggedFlow>,
    by_fqdn: HashMap<DomainName, Vec<usize>>,
    by_second_level: HashMap<DomainName, Vec<usize>>,
    by_server: HashMap<IpAddr, Vec<usize>>,
    by_port: HashMap<u16, Vec<usize>>,
}

impl FlowDatabase {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert one finished flow, maintaining indexes. The second-level
    /// domain is derived here so every query path shares one definition.
    pub fn push(&mut self, mut flow: TaggedFlow, suffixes: &SuffixSet) {
        if flow.second_level.is_none() {
            flow.second_level = flow.fqdn.as_ref().map(|f| f.second_level_domain(suffixes));
        }
        let idx = self.flows.len();
        if let Some(f) = &flow.fqdn {
            self.by_fqdn.entry(f.clone()).or_default().push(idx);
        }
        if let Some(sld) = &flow.second_level {
            self.by_second_level
                .entry(sld.clone())
                .or_default()
                .push(idx);
        }
        self.by_server.entry(flow.key.server).or_default().push(idx);
        self.by_port
            .entry(flow.key.server_port)
            .or_default()
            .push(idx);
        self.flows.push(flow);
    }

    /// All rows, in completion order.
    pub fn flows(&self) -> &[TaggedFlow] {
        &self.flows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows are stored.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Flows labelled with exactly `fqdn`.
    pub fn by_fqdn<'a>(&'a self, fqdn: &DomainName) -> impl Iterator<Item = &'a TaggedFlow> {
        self.by_fqdn
            .get(fqdn)
            .into_iter()
            .flatten()
            .map(move |&i| &self.flows[i])
    }

    /// Flows whose label falls under the given second-level domain
    /// (paper Algorithm 2, line 5: `queryByDomainName(2ndDomain)`).
    pub fn by_second_level<'a>(&'a self, sld: &DomainName) -> impl Iterator<Item = &'a TaggedFlow> {
        self.by_second_level
            .get(sld)
            .into_iter()
            .flatten()
            .map(move |&i| &self.flows[i])
    }

    /// Flows to a specific server address (content discovery, Algorithm 3).
    pub fn by_server(&self, server: IpAddr) -> impl Iterator<Item = &TaggedFlow> {
        self.by_server
            .get(&server)
            .into_iter()
            .flatten()
            .map(move |&i| &self.flows[i])
    }

    /// Flows to a specific server port (service-tag extraction, Algorithm 4,
    /// line 4: `FlowDB.query(dPort)`).
    pub fn by_port(&self, port: u16) -> impl Iterator<Item = &TaggedFlow> {
        self.by_port
            .get(&port)
            .into_iter()
            .flatten()
            .map(move |&i| &self.flows[i])
    }

    /// Distinct FQDNs observed (labels only).
    pub fn distinct_fqdns(&self) -> usize {
        self.by_fqdn.len()
    }

    /// Distinct second-level domains observed.
    pub fn distinct_second_levels(&self) -> usize {
        self.by_second_level.len()
    }

    /// Distinct server addresses observed.
    pub fn distinct_servers(&self) -> usize {
        self.by_server.len()
    }

    /// Iterate (fqdn, flow indices count) pairs.
    pub fn fqdn_flow_counts(&self) -> impl Iterator<Item = (&DomainName, usize)> {
        self.by_fqdn.iter().map(|(k, v)| (k, v.len()))
    }

    /// Iterate all distinct server IPs.
    pub fn servers(&self) -> impl Iterator<Item = IpAddr> + '_ {
        self.by_server.keys().copied()
    }

    /// Iterate all distinct labelled FQDNs.
    pub fn fqdns(&self) -> impl Iterator<Item = &DomainName> {
        self.by_fqdn.keys()
    }

    /// Export all rows as JSON lines (one row per line).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for f in &self.flows {
            out.push_str(&serde_json::to_string(f).expect("row serializes"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnhunter_net::IpProtocol;

    fn suffixes() -> SuffixSet {
        SuffixSet::builtin()
    }

    fn flow(fqdn: Option<&str>, server: &str, port: u16) -> TaggedFlow {
        TaggedFlow {
            key: FlowKey::from_initiator(
                "10.0.0.1".parse().unwrap(),
                server.parse().unwrap(),
                50000,
                port,
                IpProtocol::Tcp,
            ),
            fqdn: fqdn.map(|f| f.parse().unwrap()),
            second_level: None,
            alt_labels: Vec::new(),
            tag_delay_micros: Some(1000),
            first_ts: 0,
            last_ts: 10,
            packets_c2s: 2,
            packets_s2c: 2,
            bytes_c2s: 100,
            bytes_s2c: 2000,
            protocol: AppProtocol::Http,
            tls: None,
            in_warmup: false,
        }
    }

    #[test]
    fn push_builds_all_indexes() {
        let mut db = FlowDatabase::new();
        db.push(
            flow(Some("www.example.com"), "93.184.216.34", 80),
            &suffixes(),
        );
        db.push(
            flow(Some("img.example.com"), "93.184.216.35", 80),
            &suffixes(),
        );
        db.push(
            flow(Some("api.other.org"), "198.51.100.1", 443),
            &suffixes(),
        );
        db.push(flow(None, "203.0.113.1", 6881), &suffixes());

        assert_eq!(db.len(), 4);
        assert_eq!(db.distinct_fqdns(), 3);
        assert_eq!(db.distinct_second_levels(), 2);
        assert_eq!(db.distinct_servers(), 4);
        assert_eq!(db.by_fqdn(&"www.example.com".parse().unwrap()).count(), 1);
        assert_eq!(
            db.by_second_level(&"example.com".parse().unwrap()).count(),
            2
        );
        assert_eq!(db.by_port(80).count(), 2);
        assert_eq!(db.by_server("198.51.100.1".parse().unwrap()).count(), 1);
    }

    #[test]
    fn second_level_is_derived_on_push() {
        let mut db = FlowDatabase::new();
        db.push(flow(Some("news.bbc.co.uk"), "23.1.2.3", 80), &suffixes());
        let row = &db.flows()[0];
        assert_eq!(row.second_level.as_ref().unwrap().to_string(), "bbc.co.uk");
    }

    #[test]
    fn untagged_flows_have_no_fqdn_index() {
        let mut db = FlowDatabase::new();
        db.push(flow(None, "203.0.113.1", 6881), &suffixes());
        assert_eq!(db.distinct_fqdns(), 0);
        assert!(!db.flows()[0].is_tagged());
        assert_eq!(db.flows()[0].bytes(), 2100);
    }

    #[test]
    fn json_export_round_trips_basic_fields() {
        let mut db = FlowDatabase::new();
        db.push(flow(Some("a.example.com"), "1.2.3.4", 443), &suffixes());
        let json = db.to_json_lines();
        assert!(json.contains("a.example.com"));
        let v: serde_json::Value = serde_json::from_str(json.lines().next().unwrap()).unwrap();
        assert_eq!(v["key"]["server_port"], 443);
    }

    #[test]
    fn missing_keys_yield_empty_iterators() {
        let db = FlowDatabase::new();
        assert_eq!(db.by_fqdn(&"x.com".parse().unwrap()).count(), 0);
        assert_eq!(db.by_port(80).count(), 0);
        assert_eq!(db.by_server("9.9.9.9".parse().unwrap()).count(), 0);
        assert!(db.is_empty());
    }
}
