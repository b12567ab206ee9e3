//! The reverse-DNS baseline (paper §3.1.3, Tab. 3).
//!
//! For a sample of server addresses that DN-Hunter labelled, perform a PTR
//! lookup in the (synthetic) reverse zone and compare the outcome with the
//! sniffer's FQDN. Four outcome classes, as in Tab. 3.

use std::collections::HashMap;
use std::net::IpAddr;

use dnhunter::FlowDatabase;
use dnhunter_dns::suffix::SuffixSet;
use dnhunter_dns::DomainName;
use dnhunter_simnet::PtrZone;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Outcome of comparing one PTR answer with the sniffer's label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReverseMatch {
    /// PTR equals the FQDN the client actually used.
    SameFqdn,
    /// PTR shares only the second-level domain.
    SameSecondLevel,
    /// PTR names something else entirely.
    Different,
    /// No PTR record.
    NoAnswer,
}

/// Tab. 3 counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReverseMatchCounts {
    pub same_fqdn: usize,
    pub same_second_level: usize,
    pub different: usize,
    pub no_answer: usize,
}

impl ReverseMatchCounts {
    /// Total samples.
    pub fn total(&self) -> usize {
        self.same_fqdn + self.same_second_level + self.different + self.no_answer
    }

    /// Fractions in Tab. 3 order (same FQDN, same 2nd-level, different,
    /// no answer).
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total().max(1) as f64;
        [
            self.same_fqdn as f64 / t,
            self.same_second_level as f64 / t,
            self.different as f64 / t,
            self.no_answer as f64 / t,
        ]
    }
}

/// Compare one PTR answer against the sniffer's label.
pub fn classify_match(
    label: &DomainName,
    ptr: Option<&DomainName>,
    suffixes: &SuffixSet,
) -> ReverseMatch {
    match ptr {
        None => ReverseMatch::NoAnswer,
        Some(p) if p == label => ReverseMatch::SameFqdn,
        Some(p) => {
            if p.second_level_domain(suffixes) == label.second_level_domain(suffixes) {
                ReverseMatch::SameSecondLevel
            } else {
                ReverseMatch::Different
            }
        }
    }
}

/// The Tab. 3 experiment: sample up to `sample_size` labelled server
/// addresses from the database, PTR-look them up, classify the outcomes.
/// Deterministic for a given `seed`.
pub fn reverse_lookup_comparison(
    db: &FlowDatabase,
    zone: &PtrZone,
    suffixes: &SuffixSet,
    sample_size: usize,
    seed: u64,
) -> ReverseMatchCounts {
    // The sniffer's label per server: most common FQDN observed.
    let mut per_server: HashMap<IpAddr, HashMap<&DomainName, u64>> = HashMap::new();
    for f in db.flows() {
        if let Some(fqdn) = &f.fqdn {
            *per_server
                .entry(f.key.server)
                .or_default()
                .entry(fqdn)
                .or_default() += 1;
        }
    }
    let mut servers: Vec<(IpAddr, &DomainName)> = per_server
        .iter()
        .map(|(ip, counts)| {
            let label = counts
                .iter()
                .max_by_key(|(name, n)| (**n, std::cmp::Reverse(*name)))
                .map(|(name, _)| *name)
                .expect("non-empty counts");
            (*ip, label)
        })
        .collect();
    servers.sort_by_key(|(ip, _)| *ip);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    servers.shuffle(&mut rng);
    servers.truncate(sample_size);

    let mut counts = ReverseMatchCounts::default();
    for (ip, label) in servers {
        match classify_match(label, zone.lookup(ip), suffixes) {
            ReverseMatch::SameFqdn => counts.same_fqdn += 1,
            ReverseMatch::SameSecondLevel => counts.same_second_level += 1,
            ReverseMatch::Different => counts.different += 1,
            ReverseMatch::NoAnswer => counts.no_answer += 1,
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn classification_rules() {
        let s = SuffixSet::builtin();
        let label = n("www.linkedin.com");
        assert_eq!(
            classify_match(&label, Some(&n("www.linkedin.com")), &s),
            ReverseMatch::SameFqdn
        );
        assert_eq!(
            classify_match(&label, Some(&n("host7.linkedin.com")), &s),
            ReverseMatch::SameSecondLevel
        );
        assert_eq!(
            classify_match(
                &label,
                Some(&n("a23-1-2-3.deploy.akamaitechnologies.com")),
                &s
            ),
            ReverseMatch::Different
        );
        assert_eq!(classify_match(&label, None, &s), ReverseMatch::NoAnswer);
    }

    #[test]
    fn counts_and_fractions() {
        let c = ReverseMatchCounts {
            same_fqdn: 9,
            same_second_level: 36,
            different: 26,
            no_answer: 29,
        };
        assert_eq!(c.total(), 100);
        let f = c.fractions();
        assert!((f[0] - 0.09).abs() < 1e-9);
        assert!((f[3] - 0.29).abs() < 1e-9);
    }

    #[test]
    fn multi_label_suffix_counts_as_same_org() {
        let s = SuffixSet::builtin();
        assert_eq!(
            classify_match(&n("news.bbc.co.uk"), Some(&n("cache3.bbc.co.uk")), &s),
            ReverseMatch::SameSecondLevel
        );
        assert_eq!(
            classify_match(&n("news.bbc.co.uk"), Some(&n("cache3.itv.co.uk")), &s),
            ReverseMatch::Different
        );
    }
}
