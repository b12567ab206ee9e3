//! DNS anomaly detection — the paper's §4.1 sketch made concrete:
//!
//! > "consider the case of DNS cache poisoning where a response for certain
//! > FQDN suddenly changes and is different from what was seen by DN-Hunter
//! > in the past. We can easily flag this scenario as an anomaly."
//!
//! The detector keeps, per FQDN, the set of organizations that historically
//! served it; a resolution landing in an organization never seen for that
//! name (after a learning period) is flagged.

use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

use dnhunter_dns::DomainName;
use dnhunter_orgdb::OrgDb;

/// One flagged resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly {
    pub fqdn: DomainName,
    pub server: IpAddr,
    /// Organization the suspicious address belongs to.
    pub new_org: String,
    /// Organizations seen for this name during learning.
    pub known_orgs: Vec<String>,
    /// Timestamp (µs) of the offending observation.
    pub ts: u64,
}

/// Streaming detector over (fqdn, serverIP) observations.
pub struct AnomalyDetector<'a> {
    orgdb: &'a OrgDb,
    /// Observations to accumulate per FQDN before enforcement starts.
    learning_observations: u32,
    history: HashMap<DomainName, (u32, HashSet<String>)>,
    anomalies: Vec<Anomaly>,
}

impl<'a> AnomalyDetector<'a> {
    /// A detector that trusts the first `learning_observations` sightings
    /// of each FQDN (3 is a reasonable default: multi-CDN names learn all
    /// their homes quickly).
    pub fn new(orgdb: &'a OrgDb, learning_observations: u32) -> Self {
        AnomalyDetector {
            orgdb,
            learning_observations: learning_observations.max(1),
            history: HashMap::new(),
            anomalies: Vec::new(),
        }
    }

    /// Feed one observation (a DNS answer binding or a tagged flow).
    /// Returns the anomaly if this observation was flagged.
    pub fn observe(&mut self, fqdn: &DomainName, server: IpAddr, ts: u64) -> Option<Anomaly> {
        let org = self.orgdb.org_name(server).to_string();
        let entry = self
            .history
            .entry(fqdn.clone())
            .or_insert_with(|| (0, HashSet::new()));
        entry.0 += 1;
        if entry.0 <= self.learning_observations || entry.1.contains(&org) {
            entry.1.insert(org);
            return None;
        }
        // Seen enough history, and this organization is new for the name.
        let anomaly = Anomaly {
            fqdn: fqdn.clone(),
            server,
            new_org: org.clone(),
            known_orgs: {
                let mut v: Vec<String> = entry.1.iter().cloned().collect();
                v.sort();
                v
            },
            ts,
        };
        // Learn it anyway so one hijack is flagged once, not forever —
        // the operator decides what to do with the alert.
        entry.1.insert(org);
        self.anomalies.push(anomaly.clone());
        Some(anomaly)
    }

    /// Everything flagged so far.
    pub fn anomalies(&self) -> &[Anomaly] {
        &self.anomalies
    }

    /// Names tracked.
    pub fn tracked_names(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnhunter_orgdb::builtin_registry;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn flags_resolution_to_unknown_org() {
        let db = builtin_registry();
        let mut det = AnomalyDetector::new(&db, 2);
        let fqdn = name("www.mybank.it");
        // Learning: the bank lives on smallhosts (151.1.0.0/16).
        assert!(det.observe(&fqdn, ip("151.1.0.10"), 1).is_none());
        assert!(det.observe(&fqdn, ip("151.1.0.11"), 2).is_none());
        assert!(det.observe(&fqdn, ip("151.1.0.10"), 3).is_none());
        // Poisoned answer pointing into the P2P wasteland.
        let a = det.observe(&fqdn, ip("171.66.6.6"), 4).unwrap();
        assert_eq!(a.new_org, "p2p-space");
        assert_eq!(a.known_orgs, vec!["smallhosts".to_string()]);
        assert_eq!(det.anomalies().len(), 1);
    }

    #[test]
    fn multi_cdn_names_learn_all_their_homes() {
        let db = builtin_registry();
        let mut det = AnomalyDetector::new(&db, 3);
        let fqdn = name("www.twitter.com");
        // Twitter legitimately flips between SELF and Akamai.
        assert!(det.observe(&fqdn, ip("199.59.148.10"), 1).is_none());
        assert!(det.observe(&fqdn, ip("23.0.0.5"), 2).is_none());
        assert!(det.observe(&fqdn, ip("199.59.148.11"), 3).is_none());
        // Post-learning, both orgs stay silent.
        assert!(det.observe(&fqdn, ip("23.0.0.9"), 4).is_none());
        assert!(det.observe(&fqdn, ip("199.59.148.12"), 5).is_none());
        // A brand-new org fires.
        assert!(det.observe(&fqdn, ip("85.17.0.3"), 6).is_some()); // leaseweb
    }

    #[test]
    fn one_hijack_is_flagged_once() {
        let db = builtin_registry();
        let mut det = AnomalyDetector::new(&db, 1);
        let fqdn = name("login.example.org");
        det.observe(&fqdn, ip("151.1.0.1"), 1);
        det.observe(&fqdn, ip("151.1.0.1"), 2);
        assert!(det.observe(&fqdn, ip("186.1.2.3"), 3).is_some());
        // Repeats of the same (now-learned) org are not re-flagged.
        assert!(det.observe(&fqdn, ip("186.1.2.4"), 4).is_none());
        assert_eq!(det.anomalies().len(), 1);
        assert_eq!(det.tracked_names(), 1);
    }

    #[test]
    fn names_are_independent() {
        let db = builtin_registry();
        let mut det = AnomalyDetector::new(&db, 1);
        det.observe(&name("a.example.org"), ip("151.1.0.1"), 1);
        det.observe(&name("a.example.org"), ip("151.1.0.2"), 2);
        // b's first sighting is learning, even though a is enforced.
        assert!(det
            .observe(&name("b.example.org"), ip("186.1.1.1"), 3)
            .is_none());
        assert_eq!(det.tracked_names(), 2);
    }
}
