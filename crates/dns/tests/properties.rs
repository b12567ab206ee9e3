//! Property-based tests for the DNS codec and name handling.

use dnhunter_dns::suffix::SuffixSet;
use dnhunter_dns::{codec, DnsMessage, DomainName, QClass, QType, RData, ResourceRecord};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// A strategy for valid domain-name labels.
fn arb_label() -> impl Strategy<Value = String> {
    "[a-z0-9]{1,12}(-[a-z0-9]{1,8})?"
}

/// A strategy for valid domain names (1–5 labels).
fn arb_name() -> impl Strategy<Value = DomainName> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| DomainName::from_labels(labels).expect("labels are valid"))
}

proptest! {
    /// Display → parse is the identity for valid names.
    #[test]
    fn name_display_parse_roundtrip(name in arb_name()) {
        let s = name.to_string();
        let back: DomainName = s.parse().unwrap();
        prop_assert_eq!(back, name);
    }

    /// Encoded length matches the wire rule (sum of labels + len bytes + root).
    #[test]
    fn encoded_len_formula(name in arb_name()) {
        let expected: usize = 1 + name.labels().map(|l| l.len() + 1).sum::<usize>();
        prop_assert_eq!(name.encoded_len(), expected);
    }

    /// A child is always a subdomain of its parent; parent shortens by one.
    #[test]
    fn child_parent_relation(name in arb_name(), label in arb_label()) {
        prop_assume!(name.encoded_len() + label.len() < 255);
        let child = name.child(&label).unwrap();
        prop_assert!(child.is_subdomain_of(&name));
        prop_assert_eq!(child.parent(), name);
    }

    /// DNS messages round-trip through the wire codec, whatever the
    /// question/answer composition.
    #[test]
    fn message_roundtrip(
        qname in arb_name(),
        id in any::<u16>(),
        answers in proptest::collection::vec((arb_name(), any::<u32>(), any::<u32>()), 0..8),
    ) {
        let q = DnsMessage::query(id, qname, QType::A);
        let rrs = answers
            .into_iter()
            .map(|(name, ttl, ip)| ResourceRecord {
                name,
                class: QClass::In,
                ttl,
                rdata: RData::A(Ipv4Addr::from(ip)),
            })
            .collect();
        let msg = DnsMessage::answer_to(&q, rrs);
        let bytes = codec::encode(&msg).unwrap();
        let back = codec::decode(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn decoder_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = codec::decode(&junk);
    }

    /// Truncating a valid message never panics and never yields a message
    /// with more records than the original.
    #[test]
    fn truncation_is_safe(qname in arb_name(), cut_seed in any::<usize>()) {
        let q = DnsMessage::query(1, qname.clone(), QType::A);
        let msg = DnsMessage::answer_to(&q, vec![ResourceRecord {
            name: qname,
            class: QClass::In,
            ttl: 60,
            rdata: RData::A(Ipv4Addr::new(1, 2, 3, 4)),
        }]);
        let bytes = codec::encode(&msg).unwrap();
        let cut = cut_seed % bytes.len();
        let _ = codec::decode(&bytes[..cut]);
    }

    /// Tokenizer output never contains digits, uppercase, or empty/bare-N
    /// tokens.
    #[test]
    fn tokenizer_invariants(name in arb_name()) {
        let suffixes = SuffixSet::builtin();
        for token in dnhunter_dns::tokenize_fqdn(&name, &suffixes) {
            prop_assert!(!token.is_empty());
            prop_assert_ne!(token.as_str(), "N");
            for c in token.chars() {
                prop_assert!(!c.is_ascii_digit(), "digit survived in {token}");
                // 'N' is the digit-run placeholder; everything else must be
                // lowercase.
                prop_assert!(
                    c == 'N' || !c.is_ascii_uppercase(),
                    "uppercase in {token}"
                );
            }
        }
    }

    /// The second-level domain is always a suffix of the name and has at
    /// most (public suffix + 1) labels.
    #[test]
    fn sld_is_suffix(name in arb_name()) {
        let suffixes = SuffixSet::builtin();
        let sld = name.second_level_domain(&suffixes);
        prop_assert!(name.is_subdomain_of(&sld));
        prop_assert!(sld.label_count() <= name.label_count());
    }
}
