//! FQDN tokenization — the paper's Algorithm 4 preprocessing.
//!
//! Given an FQDN, the service-tag extractor considers only the sub-labels
//! below the second-level domain, splits them on non-alphanumeric
//! characters, and replaces every digit run with a generic `N` so that
//! `smtp2.mail.google.com` yields the tokens `{smtpN, mail}` and
//! `mediaN.linkedin.com` groups all of `media1…media9` together.
//!
//! There is one walk, [`TokenBuf::fill`]: it writes the tokens into a
//! buffer its owner reuses, so a sink that tokenizes every labelled flow
//! allocates nothing once the buffer has grown. [`tokenize_fqdn`] and
//! [`tokenize_label`] collect that walk into owned strings.

use crate::name::DomainName;
use crate::suffix::SuffixSet;

/// Ends every token in a [`TokenBuf`]. A token holds only ASCII letters
/// (digit runs become `N`), never a `.`: Algorithm 4 splits labels on
/// every other character.
const TOKEN_END: char = '.';

/// Write `raw` into `out` normalised per the paper's Algorithm 4:
/// lowercase, digit runs collapsed to a single `N`.
fn normalize_into(raw: &str, out: &mut String) {
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
}

/// Normalise one raw token per the paper's Algorithm 4: lowercase, digit
/// runs collapsed to a single `N`. Returns `None` when nothing but
/// separators/digits-only-noise remains.
pub fn normalize_token(raw: &str) -> Option<String> {
    let mut out = String::new();
    normalize_into(raw, &mut out);
    (!out.is_empty()).then_some(out)
}

/// The Algorithm 4 tokens of some labels, back to back in one reusable
/// buffer: [`TokenBuf::fill`] replaces them, [`TokenBuf::iter`] reads them
/// in label order.
#[derive(Debug, Clone, Default)]
pub struct TokenBuf {
    /// Every token followed by [`TOKEN_END`].
    text: String,
}

impl TokenBuf {
    /// Replace the held tokens with those of `labels` (Algorithm 4): split
    /// each label on non-alphanumeric characters, normalise every piece,
    /// and drop empty pieces and bare numbers (`N` carries no service
    /// semantics).
    pub fn fill<'a>(&mut self, labels: impl IntoIterator<Item = &'a str>) {
        self.text.clear();
        for label in labels {
            for raw in label.split(|c: char| !c.is_ascii_alphanumeric()) {
                let start = self.text.len();
                normalize_into(raw, &mut self.text);
                match self.text.get(start..) {
                    Some("" | "N") => self.text.truncate(start),
                    _ => self.text.push(TOKEN_END),
                }
            }
        }
    }

    /// The held tokens in label order (Algorithm 4's token multiset).
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.text.split_terminator(TOKEN_END)
    }

    /// True when the labels held no token — an apex name's case
    /// (Algorithm 4 drops the TLD and the second-level domain).
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }
}

/// [`TokenBuf::fill`] collected into owned tokens.
fn collect<'a>(labels: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    let mut tokens = TokenBuf::default();
    tokens.fill(labels);
    tokens.iter().map(str::to_owned).collect()
}

/// Split one label into normalised tokens (Algorithm 4). Separators are
/// any non-alphanumeric characters (`-`, `_`).
pub fn tokenize_label(label: &str) -> Vec<String> {
    collect([label])
}

/// Tokenize a whole FQDN per Algorithm 4: drop the TLD and second-level
/// domain, tokenize every remaining label.
pub fn tokenize_fqdn(fqdn: &DomainName, suffixes: &SuffixSet) -> Vec<String> {
    collect(fqdn.sub_labels(suffixes))
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

    /// The buffer walk yields the label-vector model's tokens, in order,
    /// for every name these tests use, and a refill replaces what the
    /// buffer held: apex names and the root yield nothing.
    #[test]
    fn buffer_walk_matches_the_reference_model() {
        let s = SuffixSet::builtin();
        let names = [
            "smtp2.mail.google.com",
            "static.bbc.co.uk",
            "streetracing.myspace2.zynga.com",
            "iphone.stats.zynga.com",
            "dev3-cclough.fb_client_7.example.com",
            "media123.a1b22c.42.x--y.linkedin.com",
            "MeDiA5.bbc.co.uk",
            "google.com",
            "bbc.co.uk",
            "com",
        ];
        let mut buf = TokenBuf::default();
        for name in names.iter().map(|s| n(s)).chain([DomainName::root()]) {
            buf.fill(name.sub_labels(&s));
            let walked: Vec<&str> = buf.iter().collect();
            assert_eq!(
                walked,
                crate::check::NameModel::of(&name).tokens(),
                "{name}"
            );
            assert_eq!(walked, tokenize_fqdn(&name, &s), "{name}");
            assert_eq!(buf.is_empty(), walked.is_empty(), "{name}");
        }
        assert!(buf.is_empty(), "the root name leaves no token behind");
    }

    #[test]
    fn case_is_normalised() {
        assert_eq!(normalize_token("MeDiA5"), Some("mediaN".into()));
    }
}
