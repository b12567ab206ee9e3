//! The appspot.com case study — paper §5.6: Tab. 8, Figs. 10–11.
//!
//! Using only the flow labels, split the Google-hosted apps into
//! BitTorrent trackers and legitimate services, build the tag cloud of app
//! names, and reconstruct the tracker activity timeline.

use std::collections::{BTreeMap, HashSet};

use dnhunter::db::token_scores;
use dnhunter::FlowDatabase;
use dnhunter_dns::suffix::SuffixSet;
use dnhunter_dns::DomainName;
use dnhunter_flow::AppProtocol;

/// Tab. 8: per service class, distinct services, flows and bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceClassRow {
    pub services: usize,
    pub flows: u64,
    pub bytes_c2s: u64,
    pub bytes_s2c: u64,
}

/// The appspot analysis output.
#[derive(Debug)]
pub struct AppspotReport {
    pub trackers: ServiceClassRow,
    pub general: ServiceClassRow,
    /// Fig. 10: token → score (font size in the word cloud).
    pub tag_cloud: Vec<(String, f64)>,
    /// Fig. 11: per tracker FQDN (ordered by first appearance), the set of
    /// active bins.
    pub tracker_timeline: Vec<(DomainName, Vec<u64>)>,
    /// Bin width used for the timeline (µs).
    pub timeline_bin_micros: u64,
}

/// Classify one appspot app as a tracker from its observed traffic: any
/// flow DPI-classified P2P (tracker announces) marks the FQDN.
fn tracker_fqdns(db: &FlowDatabase, sld: &DomainName) -> HashSet<DomainName> {
    let mut out = HashSet::new();
    for f in db.by_second_level(sld) {
        if f.protocol == AppProtocol::P2p {
            if let Some(fqdn) = &f.fqdn {
                out.insert(fqdn.clone());
            }
        }
    }
    out
}

/// Run the full §5.6 analysis over a (live) flow database.
pub fn appspot_report(
    db: &FlowDatabase,
    suffixes: &SuffixSet,
    origin: u64,
    timeline_bin_micros: u64,
) -> AppspotReport {
    let sld: DomainName = "appspot.com".parse().expect("constant name");
    let trackers = tracker_fqdns(db, &sld);

    let mut tracker_row = ServiceClassRow {
        services: 0,
        flows: 0,
        bytes_c2s: 0,
        bytes_s2c: 0,
    };
    let mut general_row = tracker_row;
    let mut tracker_services: HashSet<&DomainName> = HashSet::new();
    let mut general_services: HashSet<&DomainName> = HashSet::new();
    let mut timeline: BTreeMap<DomainName, (u64, HashSet<u64>)> = BTreeMap::new();

    for f in db.by_second_level(&sld) {
        let Some(fqdn) = &f.fqdn else { continue };
        let is_tracker = trackers.contains(fqdn);
        let (row, services) = if is_tracker {
            (&mut tracker_row, &mut tracker_services)
        } else {
            (&mut general_row, &mut general_services)
        };
        services.insert(fqdn);
        row.flows += 1;
        row.bytes_c2s += f.bytes_c2s;
        row.bytes_s2c += f.bytes_s2c;
        // Fig. 11 timeline for trackers.
        if is_tracker {
            let bin = f.first_ts.saturating_sub(origin) / timeline_bin_micros;
            let entry = timeline
                .entry(fqdn.clone())
                .or_insert_with(|| (f.first_ts, HashSet::new()));
            entry.0 = entry.0.min(f.first_ts);
            entry.1.insert(bin);
        }
    }
    tracker_row.services = tracker_services.len();
    general_row.services = general_services.len();

    // Fig. 10 tokens, scored by Eq. (1) for the per-client damping.
    let mut tag_cloud = token_scores(db.by_second_level(&sld), suffixes);
    tag_cloud.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));

    // Order trackers by first appearance, as Fig. 11 assigns ids.
    let mut tl: Vec<(DomainName, (u64, HashSet<u64>))> = timeline.into_iter().collect();
    tl.sort_by_key(|(_, (first, _))| *first);
    let tracker_timeline = tl
        .into_iter()
        .map(|(fqdn, (_, bins))| {
            let mut b: Vec<u64> = bins.into_iter().collect();
            b.sort_unstable();
            (fqdn, b)
        })
        .collect();

    AppspotReport {
        trackers: tracker_row,
        general: general_row,
        tag_cloud,
        tracker_timeline,
        timeline_bin_micros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnhunter::TaggedFlow;
    use dnhunter_flow::FlowKey;
    use dnhunter_net::IpProtocol;

    fn flow(fqdn: &str, proto: AppProtocol, ts: u64, c2s: u64, s2c: u64) -> TaggedFlow {
        TaggedFlow {
            key: FlowKey::from_initiator(
                "10.0.0.1".parse().unwrap(),
                "74.125.3.3".parse().unwrap(),
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
            bytes_c2s: c2s,
            bytes_s2c: s2c,
            protocol: proto,
            tls: None,
            in_warmup: false,
        }
    }

    const HOUR: u64 = 3600 * 1_000_000;

    fn db() -> FlowDatabase {
        let s = SuffixSet::builtin();
        let mut db = FlowDatabase::new();
        // A tracker announcing in two separate 4h bins (plus one HTTP flow
        // to the same app, which still counts as tracker traffic).
        db.push(
            flow(
                "open-tracker-1.appspot.com",
                AppProtocol::P2p,
                0,
                1000,
                2000,
            ),
            &s,
        );
        db.push(
            flow(
                "open-tracker-1.appspot.com",
                AppProtocol::P2p,
                5 * HOUR,
                1000,
                2000,
            ),
            &s,
        );
        db.push(
            flow(
                "open-tracker-1.appspot.com",
                AppProtocol::Http,
                HOUR,
                500,
                500,
            ),
            &s,
        );
        // A later-born tracker.
        db.push(
            flow(
                "rlskingbt-2.appspot.com",
                AppProtocol::P2p,
                9 * HOUR,
                800,
                900,
            ),
            &s,
        );
        // Legit apps: few flows, fat downloads.
        db.push(
            flow("game-1.appspot.com", AppProtocol::Http, 0, 2000, 90_000),
            &s,
        );
        db.push(
            flow("tool-4.appspot.com", AppProtocol::Http, HOUR, 1500, 60_000),
            &s,
        );
        // Non-appspot noise must be ignored.
        db.push(flow("www.google.com", AppProtocol::Http, 0, 1, 1), &s);
        db
    }

    #[test]
    fn table_8_shape() {
        let s = SuffixSet::builtin();
        let r = appspot_report(&db(), &s, 0, 4 * HOUR);
        assert_eq!(r.trackers.services, 2);
        assert_eq!(r.general.services, 2);
        // Trackers have more flows but fewer bytes than general apps
        // (Tab. 8's headline contrast).
        assert!(r.trackers.flows > r.general.flows);
        assert!(r.general.bytes_s2c > r.trackers.bytes_s2c);
        // Tracker traffic is relatively upload-heavy.
        let t_ratio = r.trackers.bytes_c2s as f64 / r.trackers.bytes_s2c as f64;
        let g_ratio = r.general.bytes_c2s as f64 / r.general.bytes_s2c as f64;
        assert!(t_ratio > g_ratio * 3.0);
    }

    #[test]
    fn tag_cloud_contains_app_tokens() {
        let s = SuffixSet::builtin();
        let r = appspot_report(&db(), &s, 0, 4 * HOUR);
        let tokens: Vec<&str> = r.tag_cloud.iter().map(|(t, _)| t.as_str()).collect();
        assert!(tokens.contains(&"open"));
        assert!(tokens.contains(&"tracker"));
        assert!(tokens.contains(&"rlskingbt"));
        assert!(tokens.contains(&"gameN") || tokens.contains(&"game"));
        assert!(!tokens.contains(&"www")); // non-appspot excluded
    }

    #[test]
    fn timeline_is_ordered_by_first_seen_with_active_bins() {
        let s = SuffixSet::builtin();
        let r = appspot_report(&db(), &s, 0, 4 * HOUR);
        assert_eq!(r.tracker_timeline.len(), 2);
        assert_eq!(
            r.tracker_timeline[0].0.to_string(),
            "open-tracker-1.appspot.com"
        );
        // Active in bin 0 (t=0 and t=1h) and bin 1 (t=5h).
        assert_eq!(r.tracker_timeline[0].1, vec![0, 1]);
        assert_eq!(r.tracker_timeline[1].1, vec![2]); // t=9h → bin 2
    }

    #[test]
    fn empty_db_is_all_zero() {
        let s = SuffixSet::builtin();
        let r = appspot_report(&FlowDatabase::new(), &s, 0, 4 * HOUR);
        assert_eq!(r.trackers.flows, 0);
        assert_eq!(r.general.services, 0);
        assert!(r.tag_cloud.is_empty());
        assert!(r.tracker_timeline.is_empty());
    }
}
