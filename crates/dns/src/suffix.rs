//! A compact public-suffix table.
//!
//! The paper's analytics hinge on splitting an FQDN into
//! `sub-labels . second-level-domain . TLD`, where the second-level domain
//! identifies the *organization* owning the name. Multi-label public
//! suffixes (`co.uk`, `com.au`, …) must count as part of the "TLD" for that
//! split to name the organization correctly. A full Mozilla PSL is overkill
//! for synthetic traffic; this table covers the suffixes the simulator and
//! tests use, plus the common global ones, and is extensible at runtime.

use std::collections::HashSet;

use crate::name::DomainName;

/// Single-label public suffixes (classic TLDs).
pub const SINGLE_LABEL: &[&str] = &[
    "com", "net", "org", "edu", "gov", "mil", "int", "arpa", "biz", "info", "name", "io", "tv",
    "me", "cc", "ly", "fm", "am", "it", "fr", "de", "es", "nl", "be", "ch", "at", "se", "no", "fi",
    "dk", "pl", "cz", "pt", "gr", "ie", "us", "ca", "mx", "ru", "in", "kr",
];

/// Multi-label public suffixes.
pub const MULTI_LABEL: &[&str] = &[
    "co.uk",
    "org.uk",
    "ac.uk",
    "gov.uk",
    "me.uk",
    "net.uk",
    "com.au",
    "net.au",
    "org.au",
    "co.jp",
    "ne.jp",
    "or.jp",
    "ac.jp",
    "com.br",
    "net.br",
    "org.br",
    "com.cn",
    "net.cn",
    "org.cn",
    "co.nz",
    "net.nz",
    "co.in",
    "net.in",
    "in-addr.arpa",
    "ip6.arpa",
];

/// Runtime-extensible suffix set with longest-match lookup — backs the
/// paper's second-level-domain ("organization") notion, §4.1.
#[derive(Debug, Clone)]
pub struct SuffixSet {
    /// Dotted lowercase suffixes, probed with slices of a name's text.
    suffixes: HashSet<String>,
    /// Longest suffix in the set, in labels; bounds the matching loop.
    max_labels: usize,
}

impl SuffixSet {
    /// The built-in table (common public suffixes; extend via [`SuffixSet::insert`]
    /// for deployment-specific zones, per the paper's §4.1 grouping).
    pub fn builtin() -> Self {
        let mut set = SuffixSet {
            suffixes: HashSet::new(),
            max_labels: 0,
        };
        for s in SINGLE_LABEL.iter().chain(MULTI_LABEL) {
            set.insert(s);
        }
        set
    }

    /// Add a suffix (lowercased) to the set, widening the paper's §4.1
    /// organization grouping.
    pub fn insert(&mut self, suffix: &str) {
        let s = suffix.to_ascii_lowercase();
        self.max_labels = self.max_labels.max(s.split('.').count());
        self.suffixes.insert(s);
    }

    /// Number of labels of the longest public suffix matching the tail of
    /// `name`. Returns 1 as a fallback for unknown TLDs, 0 for the root
    /// name — so `sld_len = suffix + 1`, the paper's second-level domain
    /// (§4.1).
    pub fn matching_suffix_labels(&self, name: &DomainName) -> usize {
        if name.is_root() {
            return 0;
        }
        let upper = self.max_labels.min(name.label_count());
        (1..=upper)
            .rev()
            .find(|&take| self.suffixes.contains(name.tail_text(take)))
            .unwrap_or(1) // unknown TLD: treat the last label as the public suffix
    }

    /// True if the exact string is a known public suffix (§4.1 grouping).
    pub fn contains(&self, suffix: &str) -> bool {
        self.suffixes.contains(&suffix.to_ascii_lowercase())
    }
}

impl Default for SuffixSet {
    fn default() -> Self {
        Self::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn single_label_match() {
        let set = SuffixSet::builtin();
        assert_eq!(set.matching_suffix_labels(&labels("example.com")), 1);
        assert_eq!(set.matching_suffix_labels(&labels("www.example.com")), 1);
    }

    #[test]
    fn multi_label_match_wins() {
        let set = SuffixSet::builtin();
        assert_eq!(set.matching_suffix_labels(&labels("bbc.co.uk")), 2);
        assert_eq!(set.matching_suffix_labels(&labels("news.bbc.co.uk")), 2);
    }

    #[test]
    fn unknown_tld_falls_back_to_one() {
        let set = SuffixSet::builtin();
        assert_eq!(set.matching_suffix_labels(&labels("host.weirdtld")), 1);
    }

    #[test]
    fn empty_name() {
        let set = SuffixSet::builtin();
        assert_eq!(set.matching_suffix_labels(&DomainName::root()), 0);
    }

    #[test]
    fn runtime_insert_extends_matching() {
        let mut set = SuffixSet::builtin();
        assert_eq!(
            set.matching_suffix_labels(&labels("a.b.example.internal")),
            1
        );
        set.insert("example.internal");
        assert_eq!(
            set.matching_suffix_labels(&labels("a.b.example.internal")),
            2
        );
        assert!(set.contains("EXAMPLE.INTERNAL"));
    }

    #[test]
    fn reverse_zone_suffix() {
        let set = SuffixSet::builtin();
        assert_eq!(
            set.matching_suffix_labels(&labels("34.216.184.93.in-addr.arpa")),
            2
        );
    }
}
