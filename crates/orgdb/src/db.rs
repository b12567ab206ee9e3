//! Longest-prefix-match organization lookup.

use std::collections::BTreeMap;
use std::net::IpAddr;

use crate::prefix::Prefix;
use crate::registry::OrgKind;

/// One organization entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrgRecord {
    /// Canonical lowercase name, e.g. `akamai`, `amazon`.
    pub name: String,
    /// What kind of operator this is.
    pub kind: OrgKind,
}

/// One announced prefix length and its networks (canonical network
/// address → org index).
type Networks = (u8, BTreeMap<IpAddr, usize>);

/// An IP→organization database with longest-prefix-match semantics,
/// mirroring what the paper obtains from MaxMind/whois.
///
/// Prefixes are bucketed by length, longest first, so a lookup probes one
/// ordered map per announced length (11 for the builtin registry's IPv4
/// plan) and stops at the first hit. The streaming sink looks up every
/// labelled flow's server, so nothing here hashes with SipHash.
#[derive(Debug, Default, Clone)]
pub struct OrgDb {
    orgs: Vec<OrgRecord>,
    v4: Vec<Networks>,
    v6: Vec<Networks>,
}

impl OrgDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an organization; returns its handle for [`OrgDb::announce`].
    pub fn add_org(&mut self, name: &str, kind: OrgKind) -> usize {
        let name = name.to_ascii_lowercase();
        if let Some(i) = self.orgs.iter().position(|o| o.name == name) {
            return i;
        }
        self.orgs.push(OrgRecord { name, kind });
        self.orgs.len() - 1
    }

    /// Announce a prefix as belonging to `org` (handle from [`OrgDb::add_org`]).
    /// Later announcements of the same prefix overwrite earlier ones.
    pub fn announce(&mut self, org: usize, prefix: Prefix) {
        assert!(org < self.orgs.len(), "unknown org handle {org}");
        let table = match prefix.network() {
            IpAddr::V4(_) => &mut self.v4,
            IpAddr::V6(_) => &mut self.v6,
        };
        let len = prefix.len();
        // Longest first: the slot of the first length not longer than `len`.
        let at = table.partition_point(|(l, _)| *l > len);
        if table.get(at).is_none_or(|(l, _)| *l != len) {
            table.insert(at, (len, BTreeMap::new()));
        }
        table[at].1.insert(prefix.network(), org);
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, ip: IpAddr) -> Option<&OrgRecord> {
        let table = match ip {
            IpAddr::V4(_) => &self.v4,
            IpAddr::V6(_) => &self.v6,
        };
        for (len, networks) in table {
            let masked = Prefix::new(ip, *len).expect("len came from announce");
            if let Some(&idx) = networks.get(&masked.network()) {
                return Some(&self.orgs[idx]);
            }
        }
        None
    }

    /// Organization name for `ip`, or `"unknown"`.
    pub fn org_name(&self, ip: IpAddr) -> &str {
        self.lookup(ip).map_or("unknown", |o| o.name.as_str())
    }

    /// All registered organizations.
    pub fn orgs(&self) -> &[OrgRecord] {
        &self.orgs
    }

    /// Record for an organization by name.
    pub fn org_by_name(&self, name: &str) -> Option<&OrgRecord> {
        let name = name.to_ascii_lowercase();
        self.orgs.iter().find(|o| o.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn basic_lookup() {
        let mut db = OrgDb::new();
        let ak = db.add_org("Akamai", OrgKind::Cdn);
        db.announce(ak, p("23.0.0.0/12"));
        assert_eq!(db.org_name(ip("23.15.9.9")), "akamai");
        assert_eq!(db.org_name(ip("24.0.0.1")), "unknown");
        assert!(db.lookup(ip("24.0.0.1")).is_none());
    }

    #[test]
    fn longest_prefix_wins() {
        let mut db = OrgDb::new();
        let isp = db.add_org("bigisp", OrgKind::Isp);
        let tenant = db.add_org("tenant", OrgKind::Cloud);
        db.announce(isp, p("100.64.0.0/10"));
        db.announce(tenant, p("100.64.8.0/24"));
        assert_eq!(db.org_name(ip("100.64.8.77")), "tenant");
        assert_eq!(db.org_name(ip("100.64.9.77")), "bigisp");
    }

    #[test]
    fn add_org_is_idempotent_by_name() {
        let mut db = OrgDb::new();
        let a = db.add_org("Google", OrgKind::Cloud);
        let b = db.add_org("google", OrgKind::Cdn); // same name, kind ignored
        assert_eq!(a, b);
        assert_eq!(db.orgs().len(), 1);
    }

    #[test]
    fn v6_lookups_are_independent() {
        let mut db = OrgDb::new();
        let g = db.add_org("google", OrgKind::Cloud);
        db.announce(g, p("2001:4860::/32"));
        assert_eq!(db.org_name(ip("2001:4860::8888")), "google");
        assert_eq!(db.org_name(ip("8.8.8.8")), "unknown");
    }

    #[test]
    fn overwrite_same_prefix() {
        let mut db = OrgDb::new();
        let a = db.add_org("first", OrgKind::Cdn);
        let b = db.add_org("second", OrgKind::Cdn);
        db.announce(a, p("198.51.100.0/24"));
        db.announce(b, p("198.51.100.0/24"));
        assert_eq!(db.org_name(ip("198.51.100.1")), "second");
    }

    #[test]
    fn org_by_name_is_case_insensitive() {
        let mut db = OrgDb::new();
        db.add_org("EdgeCast", OrgKind::Cdn);
        assert!(db.org_by_name("edgecast").is_some());
        assert!(db.org_by_name("EDGECAST").is_some());
        assert!(db.org_by_name("nope").is_none());
    }

    #[test]
    fn default_route_matches_everything_v4() {
        let mut db = OrgDb::new();
        let rest = db.add_org("internet", OrgKind::Other);
        db.announce(rest, p("0.0.0.0/0"));
        assert_eq!(db.org_name(ip("203.0.113.99")), "internet");
        assert_eq!(db.org_name(ip("2001:db8::1")), "unknown");
    }
}
