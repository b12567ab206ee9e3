//! Domain names: validation, normalisation, and the label arithmetic the
//! paper's analytics are built on.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use crate::error::{DnsError, Result};
use crate::suffix::SuffixSet;

/// Maximum encoded name length in octets (RFC 1035 §2.3.4).
pub const MAX_NAME_OCTETS: usize = 255;
/// Maximum label length in octets.
pub const MAX_LABEL_OCTETS: usize = 63;

/// A validated, lowercase domain name (limits per RFC 1035 §2.3.4): its
/// label sequence, most-specific label first (`www`, `example`, `com`) —
/// the unit the paper's label analytics (§4.1) operate on.
///
/// A name is one immutable refcounted buffer, so `clone()` is a refcount
/// bump and a name costs one allocation however many Clist entries, flow
/// rows and map keys carry it. The buffer holds the dotted text
/// (`www.example.com`) followed by one two-byte length entry per label;
/// the text alone serves display, serialization, hashing and suffix
/// probes as a single slice, and the lengths keep label boundaries exact
/// when a label itself contains a `.` (any octet can occur on the wire).
/// Suffix names ([`DomainName::parent`],
/// [`DomainName::second_level_domain`]) share the buffer of the name they
/// were cut from: a later start in the text, the last entries of the
/// length table.
///
/// The root name has zero labels and displays as `.`.
#[derive(Clone)]
pub struct DomainName {
    /// Dotted text of the longest name in the buffer, then its length
    /// table: [`LEN_ENTRY`] bytes per label.
    buf: Arc<str>,
    /// Where this name's text starts in `buf`.
    start: u16,
    /// Where the text (every suffix's text) ends and the table begins.
    text_end: u16,
    /// This name's labels: the last `labels` entries of the table.
    labels: u8,
}

/// Bytes per length-table entry: the label's byte length as two 7-bit
/// halves, high first — both ASCII, so the buffer stays a `str`.
const LEN_ENTRY: usize = 2;

/// The table entry for a label of `len` bytes (14 bits: a wire label is
/// at most 63 octets, 189 bytes once its invalid UTF-8 is replaced).
pub(crate) fn len_entry(len: usize) -> [u8; LEN_ENTRY] {
    [(len >> 7) as u8 & 0x7f, len as u8 & 0x7f]
}

/// The label length a table entry stands for.
fn entry_len(hi: u8, lo: u8) -> usize {
    usize::from(hi) << 7 | usize::from(lo)
}

/// Iterator over a name's labels, most-specific first (RFC 1035 §3.1
/// wire order).
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    /// Dotted text from the next label on.
    text: &'a str,
    /// Table entries from the next label on.
    lens: std::str::Bytes<'a>,
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let len = entry_len(self.lens.next()?, self.lens.next()?);
        let (label, rest) = self.text.split_at_checked(len)?;
        self.text = rest.get(1..).unwrap_or_default(); // past the dot
        Some(label)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.lens.len() / LEN_ENTRY;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Labels<'_> {}

/// A name buffer under construction from label strings — the slow-path
/// builder (parsing, [`DomainName::child`], the reference model); the
/// decoder fills its own scratch. Labels are taken as they are: callers
/// validate, and stay within RFC 1035 §2.3.4 (at most 127 labels).
#[derive(Default)]
pub(crate) struct Assembly {
    text: String,
    lens: String,
    labels: u8,
}

impl Assembly {
    pub(crate) fn push(&mut self, label: &str) {
        if self.labels > 0 {
            self.text.push('.');
        }
        self.text.push_str(label);
        self.lens.extend(len_entry(label.len()).map(char::from));
        self.labels += 1;
    }

    /// Lower-case the text (never the length table) and seal the buffer.
    pub(crate) fn finish(mut self) -> DomainName {
        self.text.make_ascii_lowercase();
        let text_len = self.text.len();
        self.text.push_str(&self.lens);
        DomainName::from_buffer(&self.text, text_len, self.labels)
    }
}

impl DomainName {
    /// The root name (zero labels, RFC 1035 §3.1).
    pub fn root() -> Self {
        static ROOT: OnceLock<Arc<str>> = OnceLock::new();
        DomainName {
            buf: Arc::clone(ROOT.get_or_init(|| Arc::from(""))),
            start: 0,
            text_end: 0,
            labels: 0,
        }
    }

    /// Build from a finished buffer — `text_len` bytes of lowercase dotted
    /// text, then the length table of its `labels` labels (the codec's
    /// scratch). This is the one allocation a decoded name costs. The
    /// buffer of a name within the RFC 1035 §2.3.4 limits is under 1 KiB.
    pub(crate) fn from_buffer(buf: &str, text_len: usize, labels: u8) -> Self {
        if labels == 0 {
            return DomainName::root();
        }
        DomainName {
            buf: Arc::from(buf),
            start: 0,
            text_end: text_len as u16,
            labels,
        }
    }

    /// Build from labels with full validation (RFC 1035 §2.3.4 limits).
    pub fn from_labels<I, S>(labels: I) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut name = Assembly::default();
        let mut octets = 1; // trailing root byte
        for l in labels {
            let l = l.as_ref();
            validate_label(l)?;
            octets += l.len() + 1;
            if octets > MAX_NAME_OCTETS {
                return Err(DnsError::NameTooLong(octets));
            }
            name.push(l);
        }
        Ok(name.finish())
    }

    /// The dotted lowercase text, labels joined by `.`; empty for the
    /// root name.
    pub(crate) fn text(&self) -> &str {
        self.buf
            .get(usize::from(self.start)..usize::from(self.text_end))
            .unwrap_or_default()
    }

    /// This name's slice of the length table.
    fn lens(&self) -> &str {
        let table = usize::from(self.labels) * LEN_ENTRY;
        self.buf
            .get(self.buf.len().saturating_sub(table)..)
            .unwrap_or_default()
    }

    /// The name as it displays: the dotted text, `.` for the root name.
    fn dotted(&self) -> &str {
        if self.is_root() {
            "."
        } else {
            self.text()
        }
    }

    /// The labels, most-specific first (wire order, RFC 1035 §3.1).
    pub fn labels(&self) -> Labels<'_> {
        Labels {
            text: self.text(),
            lens: self.lens().bytes(),
        }
    }

    /// The dotted text of the last `take` labels (all of it when the name
    /// has fewer) — what [`SuffixSet`] probes its table with: a slice of
    /// the buffer, found from the back of the length table.
    pub(crate) fn tail_text(&self, take: usize) -> &str {
        let take = take.min(self.label_count());
        let mut bytes = take.saturating_sub(1); // the dots between them
        for entry in self.lens().as_bytes().rchunks_exact(LEN_ENTRY).take(take) {
            if let [hi, lo] = entry {
                bytes += entry_len(*hi, *lo);
            }
        }
        let text = self.text();
        text.get(text.len() - bytes.min(text.len())..)
            .unwrap_or_default()
    }

    /// The name made of the last `take` labels, sharing this buffer.
    fn suffix(&self, take: usize) -> DomainName {
        let take = take.min(self.label_count());
        DomainName {
            buf: Arc::clone(&self.buf),
            start: self.text_end - self.tail_text(take).len() as u16,
            text_end: self.text_end,
            labels: take as u8,
        }
    }

    /// True when both names are the same view of the same buffer: equal,
    /// and sharing storage rather than holding two copies of the text —
    /// what the §3.2 allocation diet promises for repeated names.
    pub fn ptr_eq(&self, other: &DomainName) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf) && self.start == other.start
    }

    /// How many names — clones and suffixes alike — share this name's
    /// buffer right now (RFC 1035 names are immutable here, so sharing is
    /// always safe); 1 means this is the only holder.
    pub fn holders(&self) -> usize {
        Arc::strong_count(&self.buf)
    }

    /// Heap bytes of the buffer this name points into (refcounts
    /// included) — shared by every clone and suffix of the name, so
    /// memory accounting (the paper's §6 sizing) counts it once per
    /// distinct name.
    pub fn heap_bytes(&self) -> usize {
        2 * std::mem::size_of::<usize>() + self.buf.len()
    }

    /// The name's flight-recorder provenance key: FNV-1a over the
    /// dotted lowercase form (names compare case-insensitively, RFC 1035
    /// §2.3.3) — the buffer's text as it stands, so the record path never
    /// allocates. `--explain` hashes its FQDN argument through the
    /// same parse-then-key path, so keys match by construction.
    pub fn trace_key(&self) -> u64 {
        let mut h = dnhunter_telemetry::TraceKeyHasher::new();
        h.write(self.text().as_bytes());
        h.finish()
    }

    /// Number of labels — the depth the paper's Fig. 8 CDF is taken over.
    pub fn label_count(&self) -> usize {
        usize::from(self.labels)
    }

    /// True for the root name (RFC 1035 §3.1).
    pub fn is_root(&self) -> bool {
        self.labels == 0
    }

    /// Encoded length in octets (labels + length bytes + root byte,
    /// RFC 1035 §3.1).
    pub fn encoded_len(&self) -> usize {
        if self.is_root() {
            return 1;
        }
        // Each dot in the text stands for a length byte; the first label's
        // length byte and the root byte are the other two.
        self.text().len() + 2
    }

    /// The top-level domain (`com` for `www.example.com`), if any — level 1
    /// in the paper's §4.1 naming.
    pub fn tld(&self) -> Option<&str> {
        (!self.is_root()).then(|| self.tail_text(1))
    }

    /// Labels of the *second-level domain* (public suffix plus one),
    /// capped at the labels the name has.
    fn second_level_labels(&self, suffixes: &SuffixSet) -> usize {
        (suffixes.matching_suffix_labels(self) + 1).min(self.label_count())
    }

    /// The *second-level domain* in the paper's sense: the organization name
    /// — the public suffix plus one label. `www.example.com` → `example.com`;
    /// `news.bbc.co.uk` → `bbc.co.uk`. Names that *are* a public suffix (or
    /// shorter) return themselves.
    pub fn second_level_domain(&self, suffixes: &SuffixSet) -> DomainName {
        self.suffix(self.second_level_labels(suffixes))
    }

    /// The sub-labels *below* the second-level domain, most-specific first.
    /// `smtp2.mail.google.com` → `smtp2`, `mail`. These feed Algorithm 4.
    pub fn sub_labels(&self, suffixes: &SuffixSet) -> std::iter::Take<Labels<'_>> {
        let below = self.label_count() - self.second_level_labels(suffixes);
        self.labels().take(below)
    }

    /// Both halves of the §4.1 split from one suffix probe: the
    /// [second-level domain](Self::second_level_domain) and the
    /// [sub-labels](Self::sub_labels) below it — what a sink that files a
    /// flow under its SLD and tokenizes it (Algorithm 4) needs of a name.
    pub fn split_second_level(
        &self,
        suffixes: &SuffixSet,
    ) -> (DomainName, std::iter::Take<Labels<'_>>) {
        let keep = self.second_level_labels(suffixes);
        (
            self.suffix(keep),
            self.labels().take(self.label_count() - keep),
        )
    }

    /// True if `self` equals `other` or is a subdomain of it (label-suffix
    /// containment, the paper's §4.1 hierarchy).
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        other.labels <= self.labels
            && self.tail_text(other.label_count()) == other.text()
            && self.lens().ends_with(other.lens())
    }

    /// Prepend a label, producing the child name (stays within RFC 1035
    /// §2.3.4 length limits).
    pub fn child(&self, label: &str) -> Result<DomainName> {
        validate_label(label)?;
        let octets = self.encoded_len() + label.len() + 1;
        if octets > MAX_NAME_OCTETS {
            return Err(DnsError::NameTooLong(octets));
        }
        let mut name = Assembly::default();
        name.push(label);
        self.labels().for_each(|l| name.push(l));
        Ok(name.finish())
    }

    /// The parent name (drop the most-specific label, one level up in the
    /// paper's §4.1 hierarchy); root's parent is root.
    pub fn parent(&self) -> DomainName {
        self.suffix(self.label_count().saturating_sub(1))
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &DomainName) -> bool {
        self.ptr_eq(other) || (self.text() == other.text() && self.lens() == other.lens())
    }
}

impl Eq for DomainName {}

/// Equal names have equal text; names that differ only in where a `.`
/// falls inside a label (hostile input) collide, which a hash may.
impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.text().hash(state);
    }
}

/// Label by label from the most-specific end, each label by its bytes; a
/// name that is a proper label-prefix of another sorts first.
impl Ord for DomainName {
    fn cmp(&self, other: &DomainName) -> Ordering {
        self.labels().cmp(other.labels())
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &DomainName) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.labels()).finish()
    }
}

/// Validate one label: 1–63 octets of letters, digits, `-` or `_`, not
/// beginning or ending with `-`. Underscore is accepted because service
/// labels (`_sip._tcp`) occur in real traffic.
fn validate_label(l: &str) -> Result<()> {
    if l.is_empty() {
        return Err(DnsError::BadName("empty label".into()));
    }
    if l.len() > MAX_LABEL_OCTETS {
        return Err(DnsError::LabelTooLong(l.len()));
    }
    if l.starts_with('-') || l.ends_with('-') {
        return Err(DnsError::BadName(format!(
            "label '{l}' begins or ends with a hyphen"
        )));
    }
    for c in l.chars() {
        if !(c.is_ascii_alphanumeric() || c == '-' || c == '_') {
            return Err(DnsError::BadName(format!(
                "label '{l}' contains invalid character '{c}'"
            )));
        }
    }
    Ok(())
}

impl FromStr for DomainName {
    type Err = DnsError;

    fn from_str(s: &str) -> Result<Self> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(DomainName::root());
        }
        DomainName::from_labels(s.split('.'))
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.dotted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("www.Example.COM").to_string(), "www.example.com");
        assert_eq!(n("www.example.com.").to_string(), "www.example.com");
        assert_eq!(DomainName::root().to_string(), ".");
        assert_eq!("".parse::<DomainName>().unwrap(), DomainName::root());
        assert_eq!(".".parse::<DomainName>().unwrap(), DomainName::root());
    }

    #[test]
    fn rejects_bad_labels() {
        assert!("ex ample.com".parse::<DomainName>().is_err());
        assert!("-bad.com".parse::<DomainName>().is_err());
        assert!("bad-.com".parse::<DomainName>().is_err());
        assert!("a..b".parse::<DomainName>().is_err());
        let long = "a".repeat(64);
        assert!(format!("{long}.com").parse::<DomainName>().is_err());
    }

    #[test]
    fn rejects_overlong_names() {
        let label = "a".repeat(60);
        let name = [label.as_str(); 5].join(".");
        assert!(matches!(
            name.parse::<DomainName>(),
            Err(DnsError::NameTooLong(_))
        ));
    }

    #[test]
    fn underscore_labels_accepted() {
        assert_eq!(n("_sip._tcp.example.com").label_count(), 4);
    }

    #[test]
    fn tld_and_sld() {
        let s = SuffixSet::builtin();
        assert_eq!(n("www.example.com").tld(), Some("com"));
        assert_eq!(
            n("www.example.com").second_level_domain(&s).to_string(),
            "example.com"
        );
        assert_eq!(
            n("news.bbc.co.uk").second_level_domain(&s).to_string(),
            "bbc.co.uk"
        );
        // A bare public suffix maps to itself.
        assert_eq!(n("com").second_level_domain(&s).to_string(), "com");
        assert_eq!(n("co.uk").second_level_domain(&s).to_string(), "co.uk");
    }

    #[test]
    fn sub_labels_for_tokenizer() {
        let s = SuffixSet::builtin();
        let name = n("smtp2.mail.google.com");
        assert_eq!(name.sub_labels(&s).collect::<Vec<_>>(), ["smtp2", "mail"]);
        assert_eq!(n("google.com").sub_labels(&s).len(), 0);
        assert_eq!(n("media4.static.bbc.co.uk").sub_labels(&s).len(), 2);
    }

    #[test]
    fn subdomain_relation() {
        assert!(n("www.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(!n("example.com").is_subdomain_of(&n("www.example.com")));
        assert!(!n("badexample.com").is_subdomain_of(&n("example.com")));
        assert!(n("anything.at.all").is_subdomain_of(&DomainName::root()));
    }

    #[test]
    fn child_and_parent() {
        let base = n("example.com");
        let www = base.child("WWW").unwrap();
        assert_eq!(www.to_string(), "www.example.com");
        assert_eq!(www.parent(), base);
        assert_eq!(DomainName::root().parent(), DomainName::root());
        assert!(base.child("bad label").is_err());
    }

    #[test]
    fn encoded_len_matches_wire_rule() {
        assert_eq!(DomainName::root().encoded_len(), 1);
        assert_eq!(n("a.bc").encoded_len(), 1 + 2 + 3); // 1a 2bc 0
    }

    #[test]
    fn ordering_is_stable_for_map_keys() {
        let mut v = vec![n("b.com"), n("a.com"), n("a.com")];
        v.sort();
        v.dedup();
        assert_eq!(v, vec![n("a.com"), n("b.com")]);
    }
}
