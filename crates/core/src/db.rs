//! The labeled-flow database (paper Fig. 1): one row per finished flow,
//! tagged with the FQDN its client resolved, in event order, and no index:
//! queries by second-level domain, server and port (Algorithms 2–4) filter
//! the rows in row order, and [`token_scores`] is the offline Eq. 1.

use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;

use dnhunter_dns::{suffix::SuffixSet, tokenize_fqdn, DomainName};
use dnhunter_flow::{tls::TlsInfo, AppProtocol, FlowKey};

/// One finished, labelled flow.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedFlow {
    pub key: FlowKey,
    /// The label: the FQDN the client resolved for the server, if any.
    pub fqdn: Option<DomainName>,
    /// The organization-level name (second-level domain) of the label.
    pub second_level: Option<DomainName>,
    /// Older live labels of the same (client, server) pair, newest first (§6
    /// "return all possible labels"); empty unless `labels_per_server > 1`.
    pub alt_labels: Vec<DomainName>,
    /// µs from the tagging DNS response to the flow's first packet.
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
    pub tls: Option<TlsInfo>,
    /// The flow began in the warm-up window: no hit-ratio accounting.
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

/// The labeled-flow database: its rows, in merge order.
#[derive(Debug, Default, PartialEq)]
pub struct FlowDatabase {
    flows: Vec<TaggedFlow>,
}

impl FlowDatabase {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The database of `flows`, in their order, second-level domains derived.
    pub fn from_rows(mut flows: Vec<TaggedFlow>, suffixes: &SuffixSet) -> Self {
        for f in flows.iter_mut().filter(|f| f.second_level.is_none()) {
            f.second_level = f.fqdn.as_ref().map(|n| n.second_level_domain(suffixes));
        }
        FlowDatabase { flows }
    }

    /// Append one finished flow, deriving its second-level domain.
    pub fn push(&mut self, flow: TaggedFlow, suffixes: &SuffixSet) {
        let mut row = Self::from_rows(vec![flow], suffixes);
        self.flows.append(&mut row.flows);
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

    /// Flows under a second-level domain (Algorithm 2: `queryByDomainName`).
    pub fn by_second_level<'a>(&'a self, sld: &DomainName) -> impl Iterator<Item = &'a TaggedFlow> {
        let sld = Some(sld.clone());
        self.flows.iter().filter(move |f| f.second_level == sld)
    }

    /// Flows to a specific server address (content discovery, Algorithm 3).
    pub fn by_server(&self, server: IpAddr) -> impl Iterator<Item = &TaggedFlow> {
        self.flows.iter().filter(move |f| f.key.server == server)
    }

    /// Flows to a server port (Algorithm 4, line 4: `FlowDB.query(dPort)`).
    pub fn by_port(&self, port: u16) -> impl Iterator<Item = &TaggedFlow> {
        self.flows.iter().filter(move |f| f.key.server_port == port)
    }

    /// Distinct FQDNs observed (labels only).
    pub fn distinct_fqdns(&self) -> usize {
        self.fqdn_flow_counts().count()
    }

    /// Distinct server addresses observed.
    pub fn distinct_servers(&self) -> usize {
        self.servers().count()
    }

    /// (FQDN, labelled flows) pairs, in name order.
    pub fn fqdn_flow_counts(&self) -> impl Iterator<Item = (&DomainName, usize)> {
        let mut counts: BTreeMap<&DomainName, usize> = BTreeMap::new();
        for fqdn in self.flows.iter().filter_map(|f| f.fqdn.as_ref()) {
            *counts.entry(fqdn).or_default() += 1;
        }
        counts.into_iter()
    }

    /// Every distinct server address, in address order.
    pub fn servers(&self) -> impl Iterator<Item = IpAddr> {
        BTreeSet::from_iter(self.flows.iter().map(|f| f.key.server)).into_iter()
    }
}

/// Eq. 1 scores of `flows`' tokens, `score(X) = Σ_c ln(N_X(c) + 1)`: each
/// sum in client order, the scores in token order, as `StreamingAnalytics`
/// computes them, so tied tokens tie exactly on every run.
pub fn token_scores<'a>(
    flows: impl IntoIterator<Item = &'a TaggedFlow>,
    suffixes: &SuffixSet,
) -> Vec<(String, f64)> {
    let mut counts: BTreeMap<String, BTreeMap<IpAddr, u64>> = BTreeMap::new();
    for f in flows {
        for token in f.fqdn.iter().flat_map(|fqdn| tokenize_fqdn(fqdn, suffixes)) {
            let clients = counts.entry(token).or_default();
            *clients.entry(f.key.client).or_default() += 1;
        }
    }
    let score = |c: BTreeMap<_, u64>| c.values().map(|&n| ((n + 1) as f64).ln()).sum();
    counts.into_iter().map(|(t, c)| (t, score(c))).collect()
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
    fn queries_filter_the_rows() {
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
        assert_eq!(db.distinct_servers(), 4);
        assert_eq!(
            db.by_second_level(&"example.com".parse().unwrap()).count(),
            2
        );
        assert_eq!(db.by_port(80).count(), 2);
        assert_eq!(db.by_server("198.51.100.1".parse().unwrap()).count(), 1);
    }

    #[test]
    fn queries_return_rows_in_row_order_and_summaries_sorted() {
        let mut db = FlowDatabase::new();
        for (fqdn, server) in [
            ("b.example.com", "10.9.0.2"),
            ("a.example.com", "10.9.0.1"),
            ("b.example.com", "10.9.0.3"),
        ] {
            db.push(flow(Some(fqdn), server, 80), &suffixes());
        }
        let servers: Vec<String> = db
            .by_second_level(&"example.com".parse().unwrap())
            .map(|f| f.key.server.to_string())
            .collect();
        assert_eq!(servers, ["10.9.0.2", "10.9.0.1", "10.9.0.3"]);
        let sorted: Vec<String> = db.servers().map(|s| s.to_string()).collect();
        assert_eq!(sorted, ["10.9.0.1", "10.9.0.2", "10.9.0.3"]);
        let counts: Vec<(String, usize)> = db
            .fqdn_flow_counts()
            .map(|(f, n)| (f.to_string(), n))
            .collect();
        assert_eq!(
            counts,
            [
                ("a.example.com".to_string(), 1),
                ("b.example.com".to_string(), 2)
            ]
        );
    }

    #[test]
    fn from_rows_keeps_the_order_and_derives_second_levels() {
        let rows = vec![
            flow(Some("news.bbc.co.uk"), "23.1.2.3", 80),
            flow(None, "203.0.113.1", 6881),
        ];
        let db = FlowDatabase::from_rows(rows, &suffixes());
        assert_eq!(
            db.flows()[0].second_level.as_ref().unwrap().to_string(),
            "bbc.co.uk"
        );
        assert!(db.flows()[1].second_level.is_none());
        assert_eq!(db.flows()[1].key.server_port, 6881);
    }

    #[test]
    fn second_level_is_derived_on_push() {
        let mut db = FlowDatabase::new();
        db.push(flow(Some("news.bbc.co.uk"), "23.1.2.3", 80), &suffixes());
        let row = &db.flows()[0];
        assert_eq!(row.second_level.as_ref().unwrap().to_string(), "bbc.co.uk");
    }

    #[test]
    fn untagged_flows_count_no_fqdn() {
        let mut db = FlowDatabase::new();
        db.push(flow(None, "203.0.113.1", 6881), &suffixes());
        assert_eq!(db.distinct_fqdns(), 0);
        assert!(!db.flows()[0].is_tagged());
        assert_eq!(db.flows()[0].bytes(), 2100);
    }

    #[test]
    fn missing_keys_yield_empty_iterators() {
        let db = FlowDatabase::new();
        assert_eq!(db.by_second_level(&"x.com".parse().unwrap()).count(), 0);
        assert_eq!(db.by_port(80).count(), 0);
        assert_eq!(db.by_server("9.9.9.9".parse().unwrap()).count(), 0);
        assert!(db.is_empty());
    }
}
