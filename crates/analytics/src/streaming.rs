//! Streaming analytics: re-exports of the in-core one-pass sink plus the
//! offline reference aggregates the equivalence tests compare it against.
//!
//! The [`StreamingAnalytics`] implementation lives in `dnhunter::stream`
//! (the engine feeds it, so it must sit below this crate in the dependency
//! graph); this module is its analytics-side home. [`offline_aggregates`]
//! recomputes the same state shapes from a finished [`SnifferReport`]
//! database using only this crate's offline modules, and
//! [`check_equivalence`] asserts the two agree exactly: the aggregates
//! (spatial / content / tags / growth / delay counters) and the Eq. 1
//! scores, which both sides sum in client-address order.

use std::collections::BTreeMap;
use std::net::IpAddr;

use dnhunter::SnifferReport;
use dnhunter_dns::suffix::SuffixSet;
use dnhunter_dns::tokenizer::tokenize_fqdn;
use dnhunter_dns::DomainName;
use dnhunter_orgdb::OrgDb;
use dnhunter_telemetry::Log2Hist;

pub use dnhunter::stream::{
    FlowSink, RetractError, StreamGrowth, StreamingAnalytics, StreamingConfig, DELAY_HIST_BUCKETS,
};
pub use dnhunter::window::{WindowConfig, WindowSpan, WindowedAnalytics, MAX_LIVE_BUCKETS};

use crate::growth::growth_curves;
use crate::tags::token_scores;

/// The streaming state shapes, recomputed offline from the full database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfflineAggregates {
    /// Alg. 2: FQDN → (server → labeled-flow count). The key set of the
    /// inner map is the paper's server set; the counts are what make the
    /// streaming side's state retractable, so the reference mirrors them.
    pub fqdn_servers: BTreeMap<DomainName, BTreeMap<IpAddr, u64>>,
    /// Alg. 2: 2nd-level domain → (server → labeled-flow count).
    pub sld_servers: BTreeMap<DomainName, BTreeMap<IpAddr, u64>>,
    /// Alg. 3: organization → (2nd-level domain → labeled flow count).
    pub org_content: BTreeMap<String, BTreeMap<DomainName, u64>>,
    /// Alg. 4: port → token → client → flow count.
    pub tag_counts: BTreeMap<u16, BTreeMap<String, BTreeMap<IpAddr, u64>>>,
}

/// Recompute the streaming aggregates from a finished report's database —
/// the ground truth the one-pass sink must reproduce.
pub fn offline_aggregates(
    report: &SnifferReport,
    orgdb: &OrgDb,
    suffixes: &SuffixSet,
) -> OfflineAggregates {
    let mut out = OfflineAggregates {
        fqdn_servers: BTreeMap::new(),
        sld_servers: BTreeMap::new(),
        org_content: BTreeMap::new(),
        tag_counts: BTreeMap::new(),
    };
    for f in report.database.flows() {
        let Some(fqdn) = &f.fqdn else { continue };
        let sld = f
            .second_level
            .clone()
            .unwrap_or_else(|| fqdn.second_level_domain(suffixes));
        let server = f.key.server;
        *out.fqdn_servers
            .entry(fqdn.clone())
            .or_default()
            .entry(server)
            .or_default() += 1;
        *out.sld_servers
            .entry(sld.clone())
            .or_default()
            .entry(server)
            .or_default() += 1;
        *out.org_content
            .entry(orgdb.org_name(server).to_string())
            .or_default()
            .entry(sld)
            .or_default() += 1;
        // Mirror the streaming sink: apex names tokenize to nothing, and a
        // port entry holding only void values would break retraction's
        // remove-when-empty key accounting, so neither side stores one.
        let fqdn_tokens = tokenize_fqdn(fqdn, suffixes);
        if !fqdn_tokens.is_empty() {
            let tokens = out.tag_counts.entry(f.key.server_port).or_default();
            for token in fqdn_tokens {
                *tokens
                    .entry(token)
                    .or_default()
                    .entry(f.key.client)
                    .or_default() += 1;
            }
        }
    }
    out
}

/// Build a [`Log2Hist`] (streaming layout) over raw offline delay samples.
pub fn hist_of(samples: &[u64]) -> Log2Hist {
    let mut h = Log2Hist::new(DELAY_HIST_BUCKETS);
    for &v in samples {
        h.record(v);
    }
    h
}

/// Assert streaming state equals the offline modules' output for one run.
/// Returns a list of human-readable mismatch descriptions (empty ⇒ fully
/// equivalent). `streaming` must come from the same trace as `report`.
pub fn check_equivalence(
    streaming: &StreamingAnalytics,
    report: &SnifferReport,
    orgdb: &OrgDb,
    suffixes: &SuffixSet,
) -> Vec<String> {
    let mut errs = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            errs.push(msg);
        }
    };

    check(
        streaming.dropped_entities() == 0,
        format!(
            "entity cap engaged ({} drops): aggregates are no longer exact",
            streaming.dropped_entities()
        ),
    );

    // Totals.
    let db = &report.database;
    check(
        streaming.flows() == db.len() as u64,
        format!(
            "flows: streaming {} vs offline {}",
            streaming.flows(),
            db.len()
        ),
    );
    let labeled = db.flows().iter().filter(|f| f.is_tagged()).count() as u64;
    check(
        streaming.labeled_flows() == labeled,
        format!(
            "labeled flows: streaming {} vs offline {labeled}",
            streaming.labeled_flows()
        ),
    );

    // Exact aggregates: spatial, content, tag counts.
    let offline = offline_aggregates(report, orgdb, suffixes);
    check(
        streaming.fqdn_servers() == offline.fqdn_servers,
        format!(
            "Alg. 2 fqdn→servers: streaming {} keys vs offline {} keys",
            streaming.fqdn_servers().len(),
            offline.fqdn_servers.len()
        ),
    );
    check(
        streaming.sld_servers() == offline.sld_servers,
        format!(
            "Alg. 2 sld→servers: streaming {} keys vs offline {} keys",
            streaming.sld_servers().len(),
            offline.sld_servers.len()
        ),
    );
    check(
        streaming.org_content() == offline.org_content,
        format!(
            "Alg. 3 org→content: streaming {} orgs vs offline {} orgs",
            streaming.org_content().len(),
            offline.org_content.len()
        ),
    );
    check(
        streaming.tag_counts() == offline.tag_counts,
        format!(
            "Alg. 4 per-client token counts: streaming {} ports vs offline {} ports",
            streaming.tag_counts().len(),
            offline.tag_counts.len()
        ),
    );

    // Eq. 1 scores, exactly: both sides sum in client-address order.
    for &port in streaming.tag_counts().keys() {
        let offline_scores = token_scores(db.by_port(port), suffixes);
        let stream_scores = streaming.token_scores(port);
        check(
            stream_scores == offline_scores,
            format!(
                "port {port}: Eq. 1 scores differ ({} streaming tokens vs {} offline)",
                stream_scores.len(),
                offline_scores.len()
            ),
        );
    }

    // Growth curves, exactly (same origin + bin width as the sink).
    if let Some(origin) = report.trace_start {
        let offline_growth = growth_curves(db, origin, streaming.config().snapshot_interval_micros);
        let g = streaming.growth();
        check(
            g.bin_starts == offline_growth.bin_starts,
            format!(
                "growth bins: streaming {} vs offline {}",
                g.bin_starts.len(),
                offline_growth.bin_starts.len()
            ),
        );
        check(
            g.unique_fqdns == offline_growth.unique_fqdns,
            "growth unique_fqdns curve mismatch".to_string(),
        );
        check(
            g.unique_second_levels == offline_growth.unique_second_levels,
            "growth unique_second_levels curve mismatch".to_string(),
        );
        check(
            g.unique_servers == offline_growth.unique_servers,
            "growth unique_servers curve mismatch".to_string(),
        );
    }

    // Delay summaries: histograms over the identical sample multisets, and
    // the Tab. 9 useless-DNS counters.
    check(
        streaming.first_flow_hist() == &hist_of(&report.delays.first_flow_delays),
        "first-flow delay histogram mismatch".to_string(),
    );
    check(
        streaming.any_flow_hist() == &hist_of(&report.delays.any_flow_delays),
        "any-flow delay histogram mismatch".to_string(),
    );
    check(
        streaming.answered_responses() == report.delays.answered_responses,
        format!(
            "answered responses: streaming {} vs offline {}",
            streaming.answered_responses(),
            report.delays.answered_responses
        ),
    );
    check(
        streaming.useless_responses() == report.delays.useless_responses,
        format!(
            "useless responses: streaming {} vs offline {}",
            streaming.useless_responses(),
            report.delays.useless_responses
        ),
    );

    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnhunter::{RealTimeSniffer, SnifferConfig};
    use dnhunter_dns::{codec, DnsMessage, QClass, QType, RData, ResourceRecord};
    use dnhunter_net::{build_tcp_v4, build_udp_v4, MacAddr, TcpFlags};
    use dnhunter_orgdb::builtin_registry;
    use std::net::Ipv4Addr;

    #[test]
    fn streaming_matches_offline_on_a_tiny_trace() {
        let mut sniffer = RealTimeSniffer::new(SnifferConfig {
            warmup_micros: 0,
            ..SnifferConfig::default()
        });
        sniffer.set_sink(Box::new(StreamingAnalytics::new(StreamingConfig {
            snapshot_interval_micros: 1_000_000,
            ..StreamingConfig::default()
        })));
        let client: Ipv4Addr = "10.0.0.5".parse().unwrap();
        let dns: Ipv4Addr = "192.0.2.53".parse().unwrap();
        let web: Ipv4Addr = "93.184.216.34".parse().unwrap();
        let q = DnsMessage::query(1, "www.example.com".parse().unwrap(), QType::A);
        let resp = DnsMessage::answer_to(
            &q,
            vec![ResourceRecord {
                name: "www.example.com".parse().unwrap(),
                class: QClass::In,
                ttl: 60,
                rdata: RData::A(web),
            }],
        );
        let frame = build_udp_v4(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            dns,
            client,
            53,
            40000,
            &codec::encode(&resp).unwrap(),
        )
        .unwrap();
        sniffer.process_frame(1_000_000, &frame);
        let syn = build_tcp_v4(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            client,
            web,
            51000,
            443,
            1,
            0,
            TcpFlags::SYN,
            &[],
        )
        .unwrap();
        sniffer.process_frame(1_200_000, &syn);
        let (report, sinks) = sniffer.finish_with_sinks();
        let streaming = StreamingAnalytics::fold(sinks).expect("sink installed");
        let errs = check_equivalence(
            &streaming,
            &report,
            &builtin_registry(),
            &SuffixSet::builtin(),
        );
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(streaming.labeled_flows(), 1);
        assert_eq!(streaming.answered_responses(), 1);
    }
}
