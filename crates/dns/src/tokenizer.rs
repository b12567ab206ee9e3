//! FQDN tokenization — the paper's Algorithm 4 preprocessing.
//!
//! Given an FQDN, the service-tag extractor considers only the sub-labels
//! below the second-level domain, splits them on non-alphanumeric
//! characters, and replaces every digit run with a generic `N` so that
//! `smtp2.mail.google.com` yields the tokens `{smtpN, mail}` and
//! `mediaN.linkedin.com` groups all of `media1…media9` together.

use crate::name::DomainName;
use crate::suffix::SuffixSet;

/// Normalise one raw token per the paper's Algorithm 4: lowercase, digit
/// runs collapsed to a single `N`. Returns `None` when nothing but
/// separators/digits-only-noise remains.
pub fn normalize_token(raw: &str) -> Option<String> {
    if raw.is_empty() {
        return None;
    }
    let mut out = String::with_capacity(raw.len());
    let mut in_digits = false;
    for c in raw.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('N');
                in_digits = true;
            }
        } else {
            in_digits = false;
            out.push(c.to_ascii_lowercase());
        }
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// Split one label into normalised tokens (Algorithm 4). Separators are
/// any non-alphanumeric characters (`-`, `_`).
pub fn tokenize_label(label: &str) -> Vec<String> {
    label
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter_map(normalize_token)
        .filter(|t| t != "N") // a bare number carries no service semantics
        .collect()
}

/// Tokenize a whole FQDN per Algorithm 4: drop the TLD and second-level
/// domain, tokenize every remaining label.
pub fn tokenize_fqdn(fqdn: &DomainName, suffixes: &SuffixSet) -> Vec<String> {
    fqdn.sub_labels(suffixes).flat_map(tokenize_label).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn paper_example_smtp2_mail_google() {
        let s = SuffixSet::builtin();
        assert_eq!(
            tokenize_fqdn(&n("smtp2.mail.google.com"), &s),
            vec!["smtpN", "mail"]
        );
    }

    #[test]
    fn digit_runs_collapse_to_single_n() {
        assert_eq!(normalize_token("media123"), Some("mediaN".into()));
        assert_eq!(normalize_token("a1b22c"), Some("aNbNc".into()));
        assert_eq!(normalize_token("42"), Some("N".into()));
    }

    #[test]
    fn separators_split_tokens() {
        assert_eq!(tokenize_label("fb_client_7"), vec!["fb", "client"]);
        // A purely numeric fragment is dropped entirely.
        assert_eq!(tokenize_label("42"), Vec::<String>::new());
        assert_eq!(tokenize_label("dev3-cclough"), vec!["devN", "cclough"]);
        assert_eq!(tokenize_label("---"), Vec::<String>::new());
    }

    #[test]
    fn sld_and_tld_are_excluded() {
        let s = SuffixSet::builtin();
        assert!(tokenize_fqdn(&n("google.com"), &s).is_empty());
        assert!(tokenize_fqdn(&n("com"), &s).is_empty());
        // Multi-label public suffix: only `static` survives.
        assert_eq!(tokenize_fqdn(&n("static.bbc.co.uk"), &s), vec!["static"]);
    }

    #[test]
    fn deep_names_produce_all_sub_tokens() {
        let s = SuffixSet::builtin();
        assert_eq!(
            tokenize_fqdn(&n("streetracing.myspace2.zynga.com"), &s),
            vec!["streetracing", "myspaceN"]
        );
        assert_eq!(
            tokenize_fqdn(&n("iphone.stats.zynga.com"), &s),
            vec!["iphone", "stats"]
        );
    }

    #[test]
    fn empty_and_root() {
        let s = SuffixSet::builtin();
        assert!(tokenize_fqdn(&DomainName::root(), &s).is_empty());
        assert_eq!(normalize_token(""), None);
    }

    #[test]
    fn case_is_normalised() {
        assert_eq!(normalize_token("MeDiA5"), Some("mediaN".into()));
    }
}
