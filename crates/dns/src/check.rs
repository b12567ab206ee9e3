//! Reference model for [`DomainName`] — the differential oracle.
//!
//! [`DomainName`] packs its labels into one shared buffer and answers the
//! paper's §4.1 label questions by slicing it. This module keeps the
//! representation that design replaced — a plain `Vec` of label `String`s,
//! with every operation written the obvious way — and
//! [`NameModel::assert_agrees`] replays each operation against both. The
//! property tests (`tests/dns_wire.rs` at the workspace root) build the
//! model from the raw wire labels, independently of the decoder; `cargo
//! xtask fuzz dns` builds it from whatever a mutated message decoded to.
//! Like the resolver's shadow model, it is the dumbest structure that can
//! express the semantics, and nothing on a packet path touches it.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::message::DnsMessage;
use crate::name::{Assembly, DomainName, MAX_NAME_OCTETS};
use crate::rdata::RData;
use crate::suffix::{SuffixSet, MULTI_LABEL, SINGLE_LABEL};

/// A name as a vector of lowercase label strings, most-specific first
/// (RFC 1035 §3.1 wire order); the derived `Eq`/`Ord`/`Hash` are the
/// contract [`DomainName`]'s hand-written ones must meet.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameModel {
    labels: Vec<String>,
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

impl NameModel {
    /// The model of a name given its raw wire labels (RFC 1035 §3.1):
    /// invalid UTF-8 replaced, ASCII lower-cased (§2.3.3) — what the
    /// decoder must produce for them.
    pub fn from_wire_labels<L: AsRef<[u8]>>(labels: &[L]) -> Self {
        NameModel {
            labels: labels
                .iter()
                .map(|raw| String::from_utf8_lossy(raw.as_ref()).to_ascii_lowercase())
                .collect(),
        }
    }

    /// The model of an already-built name, read off its labels
    /// (RFC 1035 §3.1 order).
    pub fn of(name: &DomainName) -> Self {
        NameModel {
            labels: name.labels().map(str::to_string).collect(),
        }
    }

    fn dotted(&self) -> String {
        if self.labels.is_empty() {
            ".".to_string()
        } else {
            self.labels.join(".")
        }
    }

    /// Labels kept by the second-level domain: longest built-in public
    /// suffix matching the dotted tail, plus one (the paper's §4.1 split).
    fn second_level_labels(&self) -> usize {
        let n = self.labels.len();
        let suffix = (1..=n.min(2))
            .rev()
            .find(|&take| {
                let tail = self.tail(take).dotted();
                SINGLE_LABEL.contains(&tail.as_str()) || MULTI_LABEL.contains(&tail.as_str())
            })
            .unwrap_or(usize::from(n > 0));
        (suffix + 1).min(n)
    }

    /// A [`DomainName`] with these labels in a buffer of its own.
    fn rebuild(&self) -> DomainName {
        let mut name = Assembly::default();
        self.labels.iter().for_each(|l| name.push(l));
        name.finish()
    }

    /// The last `take` labels.
    fn tail(&self, take: usize) -> NameModel {
        let skip = self.labels.len().saturating_sub(take);
        NameModel {
            labels: self.labels.iter().skip(skip).cloned().collect(),
        }
    }

    /// Panic unless `name` answers every §4.1 label question, and every
    /// comparison against `other`, exactly as the models do. `suffixes`
    /// must be [`SuffixSet::builtin`].
    pub fn assert_agrees(
        &self,
        name: &DomainName,
        other: (&NameModel, &DomainName),
        suffixes: &SuffixSet,
    ) {
        let n = self.labels.len();
        assert_eq!(name.labels().collect::<Vec<_>>(), self.labels, "labels");
        assert_eq!(name.label_count(), n, "label_count");
        assert_eq!(name.is_root(), n == 0, "is_root");
        assert_eq!(name.to_string(), self.dotted(), "Display");
        assert_eq!(name.tld(), self.labels.last().map(String::as_str), "tld");
        let encoded_len = 1 + self.labels.iter().map(|l| l.len() + 1).sum::<usize>();
        assert_eq!(name.encoded_len(), encoded_len, "encoded_len");
        let mut key = dnhunter_telemetry::TraceKeyHasher::new();
        if n > 0 {
            key.write(self.dotted().as_bytes());
        }
        assert_eq!(name.trace_key(), key.finish(), "trace_key");

        let (other_model, other_name) = other;
        assert_eq!(name == other_name, self == other_model, "Eq");
        assert_eq!(name.cmp(other_name), self.cmp(other_model), "Ord");
        if self == other_model {
            assert_eq!(hash_of(name), hash_of(other_name), "Hash of equal names");
        }
        let is_sub = self.labels.ends_with(&other_model.labels);
        assert_eq!(name.is_subdomain_of(other_name), is_sub, "is_subdomain_of");

        let keep = self.second_level_labels();
        let sld = name.second_level_domain(suffixes);
        assert_eq!(NameModel::of(&sld), self.tail(keep), "second_level_domain");
        assert!(name.is_subdomain_of(&sld), "name is under its own sld");
        let below: Vec<&String> = self.labels.iter().take(n - keep).collect();
        assert_eq!(
            name.sub_labels(suffixes).collect::<Vec<_>>(),
            below,
            "sub_labels"
        );
        let parent = name.parent();
        let parent_model = self.tail(n.saturating_sub(1));
        assert_eq!(NameModel::of(&parent), parent_model, "parent");
        // A suffix sharing the buffer is the same name as one that owns its
        // text: equal, same hash, same place in a map.
        let own = parent_model.rebuild();
        assert_eq!(parent, own, "suffix view == own buffer");
        assert_eq!(hash_of(&parent), hash_of(&own), "suffix view hash");

        let label = "Kid-0";
        let fits = encoded_len + label.len() < MAX_NAME_OCTETS;
        match name.child(label) {
            Ok(child) => {
                assert!(fits, "child accepted past the name limit");
                let mut labels = vec![label.to_ascii_lowercase()];
                labels.extend(self.labels.iter().cloned());
                assert_eq!(NameModel::of(&child), NameModel { labels }, "child");
                assert_eq!(&child.parent(), name, "child's parent");
            }
            Err(_) => assert!(!fits, "child refused within the name limit"),
        }
    }
}

/// Run [`NameModel::assert_agrees`] over every name a decoded message
/// carries (RFC 1035 §4.1: question names, record owners, names inside
/// RDATA), each against itself and against the message's first name —
/// the fuzzer's hook: whatever bytes decoded, the names they decoded to
/// must behave.
pub fn assert_message_names_agree(msg: &DnsMessage, suffixes: &SuffixSet) {
    let mut names: Vec<&DomainName> = msg.questions.iter().map(|q| &q.qname).collect();
    let records = msg
        .answers
        .iter()
        .chain(&msg.authorities)
        .chain(&msg.additionals);
    for rr in records {
        names.push(&rr.name);
        match &rr.rdata {
            RData::Cname(n) | RData::Ptr(n) | RData::Ns(n) => names.push(n),
            RData::Mx { exchange, .. } => names.push(exchange),
            RData::Soa { mname, rname, .. } => names.extend([mname, rname]),
            RData::A(_) | RData::Aaaa(_) | RData::Txt(_) | RData::Unknown { .. } => {}
        }
    }
    let Some(&first) = names.first() else {
        return;
    };
    let first_model = NameModel::of(first);
    for name in names {
        let model = NameModel::of(name);
        model.assert_agrees(name, (&model, name), suffixes);
        model.assert_agrees(name, (&first_model, first), suffixes);
    }
}
