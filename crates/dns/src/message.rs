//! DNS message structure per RFC 1035 §4.1: header, questions and
//! resource records.

use std::fmt;
use std::net::IpAddr;

use crate::name::DomainName;
use crate::rdata::RData;

/// Query/record type codes (RFC 1035 §3.2.2; AAAA per RFC 3596).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QType {
    A,
    Ns,
    Cname,
    Soa,
    Ptr,
    Mx,
    Txt,
    Aaaa,
    /// `ANY` meta-query.
    Any,
    Other(u16),
}

impl QType {
    /// Wire value (RFC 1035 §3.2.2).
    pub fn value(self) -> u16 {
        match self {
            QType::A => 1,
            QType::Ns => 2,
            QType::Cname => 5,
            QType::Soa => 6,
            QType::Ptr => 12,
            QType::Mx => 15,
            QType::Txt => 16,
            QType::Aaaa => 28,
            QType::Any => 255,
            QType::Other(v) => v,
        }
    }
}

impl From<u16> for QType {
    fn from(v: u16) -> Self {
        match v {
            1 => QType::A,
            2 => QType::Ns,
            5 => QType::Cname,
            6 => QType::Soa,
            12 => QType::Ptr,
            15 => QType::Mx,
            16 => QType::Txt,
            28 => QType::Aaaa,
            255 => QType::Any,
            other => QType::Other(other),
        }
    }
}

impl fmt::Display for QType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QType::A => write!(f, "A"),
            QType::Ns => write!(f, "NS"),
            QType::Cname => write!(f, "CNAME"),
            QType::Soa => write!(f, "SOA"),
            QType::Ptr => write!(f, "PTR"),
            QType::Mx => write!(f, "MX"),
            QType::Txt => write!(f, "TXT"),
            QType::Aaaa => write!(f, "AAAA"),
            QType::Any => write!(f, "ANY"),
            QType::Other(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// Query/record class codes (RFC 1035 §3.2.4). Only IN matters in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QClass {
    In,
    Any,
    Other(u16),
}

impl QClass {
    /// Wire value (RFC 1035 §3.2.4).
    pub fn value(self) -> u16 {
        match self {
            QClass::In => 1,
            QClass::Any => 255,
            QClass::Other(v) => v,
        }
    }
}

impl From<u16> for QClass {
    fn from(v: u16) -> Self {
        match v {
            1 => QClass::In,
            255 => QClass::Any,
            other => QClass::Other(other),
        }
    }
}

/// Response codes (RFC 1035 §4.1.1, subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    NoError,
    FormErr,
    ServFail,
    NxDomain,
    NotImp,
    Refused,
    Other(u8),
}

impl Rcode {
    /// Wire value (4 bits, RFC 1035 §4.1.1).
    pub fn value(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0f,
        }
    }
}

impl From<u8> for Rcode {
    fn from(v: u8) -> Self {
        match v & 0x0f {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// The fixed 12-byte header (RFC 1035 §4.1.1), decomposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsHeader {
    pub id: u16,
    /// True for responses (QR bit).
    pub is_response: bool,
    pub opcode: u8,
    pub authoritative: bool,
    pub truncated: bool,
    pub recursion_desired: bool,
    pub recursion_available: bool,
    pub rcode: Rcode,
}

impl DnsHeader {
    /// Header for a standard recursive query (RFC 1035 §4.1.1 flags).
    pub fn query(id: u16) -> Self {
        DnsHeader {
            id,
            is_response: false,
            opcode: 0,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: false,
            rcode: Rcode::NoError,
        }
    }

    /// Header for a response to the given query id (RFC 1035 §4.1.1 flags).
    pub fn response(id: u16, rcode: Rcode) -> Self {
        DnsHeader {
            id,
            is_response: true,
            opcode: 0,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: true,
            rcode,
        }
    }
}

/// One question entry (RFC 1035 §4.1.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    pub qname: DomainName,
    pub qtype: QType,
    pub qclass: QClass,
}

/// One resource record (RFC 1035 §4.1.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    pub name: DomainName,
    pub class: QClass,
    pub ttl: u32,
    pub rdata: RData,
}

/// A whole DNS message (RFC 1035 §4.1): header plus four sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsMessage {
    pub header: DnsHeader,
    pub questions: Vec<Question>,
    pub answers: Vec<ResourceRecord>,
    pub authorities: Vec<ResourceRecord>,
    pub additionals: Vec<ResourceRecord>,
}

impl Default for DnsMessage {
    /// An empty query with id 0 (RFC 1035 §4.1): the blank a scratch
    /// message for [`crate::codec::decode_into`] starts from.
    fn default() -> Self {
        DnsMessage {
            header: DnsHeader::query(0),
            questions: Vec::new(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }
}

impl DnsMessage {
    /// A standard A/AAAA/PTR/... query for `name` (RFC 1035 §4.1).
    pub fn query(id: u16, name: DomainName, qtype: QType) -> Self {
        DnsMessage {
            header: DnsHeader::query(id),
            questions: vec![Question {
                qname: name,
                qtype,
                qclass: QClass::In,
            }],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// A NOERROR response answering `query` with the given records
    /// (RFC 1035 §4.1).
    pub fn answer_to(query: &DnsMessage, answers: Vec<ResourceRecord>) -> Self {
        DnsMessage {
            header: DnsHeader::response(query.header.id, Rcode::NoError),
            questions: query.questions.clone(),
            answers,
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// An NXDOMAIN (or other error, RFC 1035 §4.1.1) response to `query`.
    pub fn error_to(query: &DnsMessage, rcode: Rcode) -> Self {
        DnsMessage {
            header: DnsHeader::response(query.header.id, rcode),
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// The question name, if there is exactly one question (the common case
    /// the paper's sniffer relies on, §3.1).
    pub fn question_name(&self) -> Option<&DomainName> {
        match self.questions.as_slice() {
            [q] => Some(&q.qname),
            _ => None,
        }
    }

    /// All server IP addresses carried in answer A/AAAA records — the
    /// "answer list" of the paper. CNAME chains contribute nothing here;
    /// their terminal A records do.
    pub fn answer_addresses(&self) -> Vec<IpAddr> {
        self.answer_address_iter().collect()
    }

    /// [`DnsMessage::answer_addresses`] (the paper's §3.1 answer list)
    /// without the `Vec`, for callers that keep their own scratch.
    pub fn answer_address_iter(&self) -> impl Iterator<Item = IpAddr> + '_ {
        self.answers.iter().filter_map(|rr| rr.rdata.ip())
    }

    /// The FQDN that was queried, following CNAME indirection: the paper tags
    /// flows with the *queried* name, not the canonical one.
    pub fn queried_fqdn(&self) -> Option<&DomainName> {
        self.question_name()
    }

    /// Minimum TTL across answers (how long a client may cache the mapping —
    /// the horizon the paper's §4.2 dimensioning reasons about); `None` when
    /// there are no answers.
    pub fn min_answer_ttl(&self) -> Option<u32> {
        self.answers.iter().map(|rr| rr.ttl).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn a_record(n: &str, ttl: u32, ip: [u8; 4]) -> ResourceRecord {
        ResourceRecord {
            name: name(n),
            class: QClass::In,
            ttl,
            rdata: RData::A(Ipv4Addr::from(ip)),
        }
    }

    #[test]
    fn qtype_roundtrip() {
        for v in [1u16, 2, 5, 6, 12, 15, 16, 28, 255, 999] {
            assert_eq!(QType::from(v).value(), v);
        }
    }

    #[test]
    fn qclass_and_rcode_roundtrip() {
        for v in [1u16, 255, 4] {
            assert_eq!(QClass::from(v).value(), v);
        }
        for v in 0u8..16 {
            assert_eq!(Rcode::from(v).value(), v);
        }
    }

    #[test]
    fn query_builder() {
        let q = DnsMessage::query(0x1234, name("itunes.apple.com"), QType::A);
        assert!(!q.header.is_response);
        assert!(q.header.recursion_desired);
        assert_eq!(q.question_name(), Some(&name("itunes.apple.com")));
        assert!(q.answer_addresses().is_empty());
    }

    #[test]
    fn answer_builder_and_addresses() {
        let q = DnsMessage::query(7, name("data.flurry.com"), QType::A);
        let r = DnsMessage::answer_to(
            &q,
            vec![
                a_record("data.flurry.com", 60, [216, 74, 41, 8]),
                a_record("data.flurry.com", 60, [216, 74, 41, 10]),
                a_record("data.flurry.com", 30, [216, 74, 41, 12]),
            ],
        );
        assert!(r.header.is_response);
        assert_eq!(r.header.id, 7);
        assert_eq!(r.answer_addresses().len(), 3);
        assert_eq!(r.min_answer_ttl(), Some(30));
        assert_eq!(r.queried_fqdn(), Some(&name("data.flurry.com")));
    }

    #[test]
    fn error_response() {
        let q = DnsMessage::query(9, name("nope.example"), QType::A);
        let r = DnsMessage::error_to(&q, Rcode::NxDomain);
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert!(r.answers.is_empty());
        assert_eq!(r.min_answer_ttl(), None);
    }

    #[test]
    fn multi_question_has_no_single_name() {
        let mut q = DnsMessage::query(1, name("a.com"), QType::A);
        q.questions.push(Question {
            qname: name("b.com"),
            qtype: QType::A,
            qclass: QClass::In,
        });
        assert_eq!(q.question_name(), None);
    }

    #[test]
    fn cname_answers_do_not_contribute_addresses() {
        let q = DnsMessage::query(2, name("www.zynga.com"), QType::A);
        let r = DnsMessage::answer_to(
            &q,
            vec![
                ResourceRecord {
                    name: name("www.zynga.com"),
                    class: QClass::In,
                    ttl: 300,
                    rdata: RData::Cname(name("www.zynga.com.edgekey.net")),
                },
                a_record("www.zynga.com.edgekey.net", 20, [23, 3, 4, 5]),
            ],
        );
        assert_eq!(r.answer_addresses().len(), 1);
    }
}
