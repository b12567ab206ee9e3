//! The DNS wire-format layer, pinned independently of simnet's encoder
//! (which only ever produces well-formed, conventionally compressed
//! messages): every message here is assembled by hand, octet by octet.
//!
//! Three groups:
//!
//! * the decoder's limits — pointer chains at the 32-jump budget and one
//!   past it, loops, forward pointers, pointers into the header, 255- and
//!   256-octet names, 63- and 64-octet labels;
//! * the name model — for arbitrary label bytes (mixed case, `.`, invalid
//!   UTF-8) the one-buffer `DomainName` answers every question the way
//!   the label-vector reference (`dnhunter_dns::check::NameModel`) does;
//! * sharing — names that are the same name are the same buffer, from the
//!   decoder's per-message memo through the resolver to the report.

use std::net::{IpAddr, Ipv4Addr};

use dnhunter::{RealTimeSniffer, SnifferConfig};
use dnhunter_dns::check::NameModel;
use dnhunter_dns::suffix::SuffixSet;
use dnhunter_dns::{codec, DnsError, DnsMessage, DomainName, RData};
use dnhunter_net::{build_tcp_v4, build_udp_v4, MacAddr, TcpFlags};
use proptest::prelude::*;

// --- a wire assembler that knows nothing about names ----------------------

/// Header of a response with the given question and answer counts.
fn header(qd: u16, an: u16) -> Vec<u8> {
    let mut m = vec![0x12, 0x34, 0x81, 0x80];
    m.extend_from_slice(&qd.to_be_bytes());
    m.extend_from_slice(&an.to_be_bytes());
    m.extend_from_slice(&[0, 0, 0, 0]);
    m
}

/// Length-prefixed labels, without a terminator.
fn labels<L: AsRef<[u8]>>(m: &mut Vec<u8>, labels: &[L]) {
    for l in labels {
        m.push(l.as_ref().len() as u8);
        m.extend_from_slice(l.as_ref());
    }
}

fn pointer(m: &mut Vec<u8>, target: usize) {
    m.extend_from_slice(&(0xc000 | target as u16).to_be_bytes());
}

/// QTYPE A, QCLASS IN.
fn question_tail(m: &mut Vec<u8>) {
    m.extend_from_slice(&[0, 1, 0, 1]);
}

/// TYPE, CLASS IN, TTL 60, RDLENGTH, RDATA — everything after the owner.
fn record_tail(m: &mut Vec<u8>, rtype: u16, rdata: &[u8]) {
    m.extend_from_slice(&rtype.to_be_bytes());
    m.extend_from_slice(&[0, 1, 0, 0, 0, 60]);
    m.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
    m.extend_from_slice(rdata);
}

/// A one-question message whose question name is `name` (terminated).
fn question_only<L: AsRef<[u8]>>(name: &[L]) -> Vec<u8> {
    let mut m = header(1, 0);
    labels(&mut m, name);
    m.push(0);
    question_tail(&mut m);
    m
}

fn qname(m: &DnsMessage) -> &DomainName {
    &m.questions[0].qname
}

// --- decoder limits -------------------------------------------------------

/// Question `a` at offset 12; an opaque record whose RDATA is a ladder of
/// `rungs` pointers (the first at 12, each next at the one before); then
/// whatever `tail` appends, given the offset of the ladder's top rung.
fn ladder(rungs: usize, answers: u16, tail: impl FnOnce(&mut Vec<u8>, usize)) -> Vec<u8> {
    let mut m = header(1, answers);
    labels(&mut m, &["a"]);
    m.push(0);
    question_tail(&mut m);
    pointer(&mut m, 12);
    let rdata_at = m.len() + 10;
    let mut rdata = Vec::new();
    for rung in 0..rungs {
        let below = if rung == 0 {
            12
        } else {
            rdata_at + 2 * (rung - 1)
        };
        pointer(&mut rdata, below);
    }
    record_tail(&mut m, 99, &rdata);
    tail(&mut m, rdata_at + 2 * (rungs - 1));
    m
}

#[test]
fn pointer_chain_of_32_decodes_and_33_is_a_loop() {
    // The second answer's owner points at the top rung: 1 + rungs jumps.
    let chain = |jumps: usize| {
        ladder(jumps - 1, 2, |m, top| {
            pointer(m, top);
            record_tail(m, 1, &[10, 0, 0, 1]);
        })
    };
    let ok = codec::decode(&chain(32)).expect("32 jumps are within budget");
    assert_eq!(ok.answers[1].name.to_string(), "a");
    assert!(matches!(
        codec::decode(&chain(33)),
        Err(DnsError::BadPointer(_))
    ));
}

#[test]
fn memoised_name_keeps_its_pointer_count() {
    // A CNAME target `w` + pointer up a 31-rung ladder is 32 jumps deep on
    // its own. A later owner that is a pointer *to that target* is 33 deep
    // and must fail exactly as if nothing had been remembered.
    let msg = |with_pointer_to_target: bool| {
        ladder(31, 3, |m, top| {
            pointer(m, 12);
            let mut target = Vec::new();
            labels(&mut target, &["w"]);
            pointer(&mut target, top);
            let target_at = m.len() + 10;
            record_tail(m, 5, &target);
            if with_pointer_to_target {
                pointer(m, target_at);
            } else {
                pointer(m, 12);
            }
            record_tail(m, 1, &[10, 0, 0, 1]);
        })
    };
    let ok = codec::decode(&msg(false)).expect("32 jumps are within budget");
    assert_eq!(
        ok.answers[1].rdata,
        RData::Cname("w.a".parse().expect("valid name"))
    );
    assert!(matches!(
        codec::decode(&msg(true)),
        Err(DnsError::BadPointer(_))
    ));
}

#[test]
fn loops_and_forward_pointers_are_rejected() {
    // A pointer to itself.
    let mut own = header(1, 0);
    pointer(&mut own, 12);
    question_tail(&mut own);
    // Two pointers at each other: the first is a forward pointer.
    let mut mutual = header(1, 1);
    pointer(&mut mutual, 18);
    question_tail(&mut mutual);
    pointer(&mut mutual, 12);
    record_tail(&mut mutual, 1, &[10, 0, 0, 1]);
    // A pointer past the end of the message.
    let mut forward = header(1, 0);
    pointer(&mut forward, 400);
    question_tail(&mut forward);
    for (what, m) in [("self", own), ("mutual", mutual), ("forward", forward)] {
        assert!(
            matches!(codec::decode(&m), Err(DnsError::BadPointer(_))),
            "{what} pointer was not rejected"
        );
    }
}

#[test]
fn pointer_into_the_header_is_rejected() {
    // Offsets 0..12 are the header: ID 0x0377 would read as the label `w..`.
    for target in [0, 2, 11] {
        let mut m = header(1, 1);
        m[0] = 3;
        labels(&mut m, &["ok"]);
        m.push(0);
        question_tail(&mut m);
        pointer(&mut m, target);
        record_tail(&mut m, 1, &[10, 0, 0, 1]);
        assert!(
            matches!(codec::decode(&m), Err(DnsError::BadPointer(_))),
            "pointer to header offset {target} decoded"
        );
    }
}

#[test]
fn name_and_label_length_limits() {
    let label = |n: usize| vec![b'x'; n];
    // 64 + 64 + 64 + 62 + root = 255 octets: the longest legal name.
    let longest = [label(63), label(63), label(63), label(61)];
    let m = codec::decode(&question_only(&longest)).expect("255 octets fit");
    assert_eq!(qname(&m).encoded_len(), 255);
    assert_eq!(qname(&m).label_count(), 4);
    let too_long = [label(63), label(63), label(63), label(62)];
    assert!(matches!(
        codec::decode(&question_only(&too_long)),
        Err(DnsError::NameTooLong(256))
    ));
    // A length octet of 64 is not a label at all (RFC 1035 §4.1.4: the top
    // two bits 01 are reserved).
    assert!(codec::decode(&question_only(&[label(63)])).is_ok());
    assert!(matches!(
        codec::decode(&question_only(&[label(64)])),
        Err(DnsError::Malformed(_))
    ));
}

#[test]
fn case_dots_and_invalid_utf8_in_labels() {
    let m = codec::decode(&question_only(&["WwW", "ExAmPlE", "CoM"])).expect("decodes");
    assert_eq!(qname(&m).to_string(), "www.example.com");
    assert_eq!(
        qname(&m),
        &"www.example.com".parse::<DomainName>().expect("valid")
    );

    // A dot inside a label is text, not a separator: same display, another
    // name, and the label count tells them apart.
    let dotted = codec::decode(&question_only(&["a.b", "c"])).expect("decodes");
    let plain = codec::decode(&question_only(&["a", "b", "c"])).expect("decodes");
    assert_eq!(qname(&dotted).to_string(), qname(&plain).to_string());
    assert_ne!(qname(&dotted), qname(&plain));
    assert_eq!(qname(&dotted).label_count(), 2);
    assert_eq!(qname(&dotted).labels().collect::<Vec<_>>(), ["a.b", "c"]);

    // Invalid UTF-8 becomes U+FFFD (three bytes each); 63 such octets are a
    // 189-byte label, the longest a buffer has to hold.
    let bad =
        codec::decode(&question_only(&[&[0xff_u8; 63][..], &b"\xc3\x28X"[..]])).expect("decodes");
    let got: Vec<&str> = qname(&bad).labels().collect();
    assert_eq!(got, ["\u{fffd}".repeat(63).as_str(), "\u{fffd}(x"]);
    assert_eq!(qname(&bad).encoded_len(), 1 + 190 + 6);
}

// --- the name model -------------------------------------------------------

/// Bytes drawn to hit every decoder branch often: both cases, digits, the
/// separator-looking `.` and `-`, NUL, a valid two-byte sequence (`é`),
/// and octets that are invalid UTF-8 alone or in the wrong place.
const ALPHABET: &[u8] = b"aAbZz09-_.\x00\xc3\xa9\xff\x80\xe2";

fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..12).prop_map(|picks| {
        picks
            .into_iter()
            .map(|p| ALPHABET[usize::from(p) % ALPHABET.len()])
            .collect()
    })
}

fn arb_wire_name() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(arb_label(), 0..6)
}

proptest! {
    /// Decoding arbitrary label bytes gives the name the label-vector
    /// model predicts, and the two then agree on every operation —
    /// including against a second, unrelated name and against a name
    /// sharing a suffix (the second with the first's tail compressed).
    #[test]
    fn decoded_names_agree_with_the_label_vector_model(
        a in arb_wire_name(),
        b in arb_wire_name(),
        front in arb_label(),
    ) {
        // Question `a`; answer owned by `b` with CNAME target `front` +
        // pointer to `a`.
        let mut m = header(1, 1);
        labels(&mut m, &a);
        m.push(0);
        question_tail(&mut m);
        labels(&mut m, &b);
        m.push(0);
        let mut target = Vec::new();
        labels(&mut target, std::slice::from_ref(&front));
        pointer(&mut target, 12);
        record_tail(&mut m, 5, &target);
        let msg = codec::decode(&m).expect("well-formed by construction");

        let mut under_a = vec![front];
        under_a.extend(a.iter().cloned());
        let RData::Cname(cname) = &msg.answers[0].rdata else {
            panic!("CNAME record decoded as {:?}", msg.answers[0].rdata);
        };
        let names = [
            (NameModel::from_wire_labels(&a), qname(&msg)),
            (NameModel::from_wire_labels(&b), &msg.answers[0].name),
            (NameModel::from_wire_labels(&under_a), cname),
        ];
        let suffixes = SuffixSet::builtin();
        for (model, name) in &names {
            for (other_model, other_name) in &names {
                model.assert_agrees(name, (other_model, *other_name), &suffixes);
            }
        }
    }
}

// --- sharing --------------------------------------------------------------

/// `www.example.com A?` answered by `answers` A records, every owner a
/// pointer to the question name.
fn a_response(answers: u16) -> Vec<u8> {
    let mut m = header(1, answers);
    labels(&mut m, &["www", "example", "com"]);
    m.push(0);
    question_tail(&mut m);
    for i in 0..answers {
        pointer(&mut m, 12);
        record_tail(&mut m, 1, &[93, 184, 216, i as u8]);
    }
    m
}

#[test]
fn one_buffer_per_name_within_a_message() {
    let m = codec::decode(&a_response(4)).expect("decodes");
    assert_eq!(m.answers.len(), 4);
    for rr in &m.answers {
        assert!(rr.name.ptr_eq(qname(&m)), "answer owner is its own buffer");
    }

    // Question, CNAME owner, CNAME target, and the A record that points at
    // the target: two names, two buffers.
    let mut c = header(1, 2);
    labels(&mut c, &["www", "example", "com"]);
    c.push(0);
    question_tail(&mut c);
    pointer(&mut c, 12);
    let target_at = c.len() + 10;
    let mut target = Vec::new();
    labels(&mut target, &["edge"]);
    pointer(&mut target, 16); // example.com
    record_tail(&mut c, 5, &target);
    pointer(&mut c, target_at);
    record_tail(&mut c, 1, &[23, 1, 2, 3]);
    let c = codec::decode(&c).expect("decodes");
    assert!(c.answers[0].name.ptr_eq(qname(&c)));
    let RData::Cname(cname) = &c.answers[0].rdata else {
        panic!("not a CNAME");
    };
    assert_eq!(cname.to_string(), "edge.example.com");
    assert!(c.answers[1].name.ptr_eq(cname));
    assert!(!cname.ptr_eq(qname(&c)));
}

#[test]
fn decode_into_reuses_the_scratch_sections() {
    let big = a_response(7);
    let small = a_response(1);
    let mut scratch = DnsMessage::default();
    codec::decode_into(&mut scratch, &big).expect("decodes");
    let caps = |m: &DnsMessage| {
        (
            m.questions.capacity(),
            m.answers.capacity(),
            m.authorities.capacity(),
            m.additionals.capacity(),
        )
    };
    assert_eq!(caps(&scratch), (1, 7, 0, 0));
    for i in 0..1000 {
        let wire = if i % 3 == 0 { &big } else { &small };
        codec::decode_into(&mut scratch, wire).expect("decodes");
        assert_eq!(scratch, codec::decode(wire).expect("decodes"));
        assert_eq!(caps(&scratch), (1, 7, 0, 0), "scratch grew at message {i}");
    }
    // A failed decode leaves no half-message behind.
    assert!(codec::decode_into(&mut scratch, &big[..big.len() - 1]).is_err());
    assert!(scratch.questions.is_empty() && scratch.answers.is_empty());
}

#[test]
fn one_buffer_per_name_from_the_wire_to_the_report() {
    const CLIENTS: u8 = 5;
    let server = Ipv4Addr::new(93, 184, 216, 0);
    let resolver_ip = Ipv4Addr::new(10, 0, 0, 53);
    let (mac_a, mac_b) = (MacAddr::from_id(1), MacAddr::from_id(2));
    let mut sniffer = RealTimeSniffer::new(SnifferConfig::default());
    let response = a_response(1);
    let mut ts = 1_000_000;
    for c in 1..=CLIENTS {
        let client = Ipv4Addr::new(10, 0, 0, c);
        let dns = build_udp_v4(mac_a, mac_b, resolver_ip, client, 53, 40_000, &response);
        sniffer.process_frame(ts, &dns.expect("frame builds"));
        let syn = build_tcp_v4(
            mac_b,
            mac_a,
            client,
            server,
            50_000,
            80,
            1,
            0,
            TcpFlags::SYN,
            &[],
        );
        sniffer.process_frame(ts + 10, &syn.expect("frame builds"));
        ts += 1_000;
    }
    // N responses for one name from N clients: one buffer in the resolver,
    // shared by every Clist entry.
    let resolver = sniffer.resolver_mut();
    let intern = resolver.intern_stats();
    assert_eq!(
        (intern.allocated, intern.reused),
        (1, u64::from(CLIENTS) - 1)
    );
    let bound: Vec<DomainName> = (1..=CLIENTS)
        .map(|c| {
            let client = IpAddr::from(Ipv4Addr::new(10, 0, 0, c));
            resolver.peek(client, server.into()).expect("bound")
        })
        .collect();
    let looked_up = resolver
        .lookup(Ipv4Addr::new(10, 0, 0, 1).into(), server.into())
        .expect("bound");
    assert!(bound.iter().all(|n| n.ptr_eq(&looked_up)));

    // ...and by every row of the report.
    let report = sniffer.finish();
    let db = &report.database;
    assert_eq!(db.len(), usize::from(CLIENTS));
    for flow in db.flows() {
        let fqdn = flow.fqdn.as_ref().expect("tagged");
        assert!(fqdn.ptr_eq(&looked_up), "row holds a private copy");
    }
    // The organization name is a suffix of the same buffer, not a copy.
    let sld = db.flows()[0].second_level.as_ref().expect("derived");
    assert_eq!(sld.to_string(), "example.com");
    assert_eq!(sld.heap_bytes(), looked_up.heap_bytes());
}
