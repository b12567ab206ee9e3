//! RFC 1035 wire codec with name compression.

// Lint L2 forbids default-hasher HashMaps on per-packet paths, and this
// crate cannot depend on `resolver::maps` (the resolver depends on `dns`),
// so the compression table is a BTreeMap: at most a handful of suffixes per
// message, where the tree walk beats hashing the whole suffix string anyway.
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::error::{DnsError, Result};
use crate::message::{DnsHeader, DnsMessage, QClass, QType, Question, Rcode, ResourceRecord};
use crate::name::{len_entry, DomainName, MAX_NAME_OCTETS};
use crate::rdata::RData;

/// Encode a message to wire bytes (RFC 1035 §4 format, suitable for a
/// UDP payload).
pub fn encode(msg: &DnsMessage) -> Result<Vec<u8>> {
    let mut enc = Encoder::new();
    enc.header(msg)?;
    for q in &msg.questions {
        enc.question(q)?;
    }
    for rr in &msg.answers {
        enc.record(rr)?;
    }
    for rr in &msg.authorities {
        enc.record(rr)?;
    }
    for rr in &msg.additionals {
        enc.record(rr)?;
    }
    Ok(enc.buf)
}

/// Decode a message from wire bytes (RFC 1035 §4) into a fresh
/// [`DnsMessage`]; see [`decode_into`], which this wraps.
pub fn decode(buf: &[u8]) -> Result<DnsMessage> {
    let mut msg = DnsMessage::default();
    decode_into(&mut msg, buf)?;
    Ok(msg)
}

/// Decode a message from wire bytes (RFC 1035 §4) into `msg`, replacing
/// its contents and reusing its four section `Vec`s — a caller that keeps
/// one scratch message decodes a steady stream of responses with one
/// allocation each: the question name's buffer, which every answer owner
/// that points back at it shares. On error the sections are left empty.
///
/// Telemetry: successful decodes count into
/// `dnh_dns_messages_decoded_total`, failures into
/// `dnh_dns_decode_errors_total` (both stable — every driver decodes each
/// DNS payload the same number of times).
// lint_root(ingest): DNS wire-format decode of untrusted payloads
pub fn decode_into(msg: &mut DnsMessage, buf: &[u8]) -> Result<()> {
    let decoded = decode_sections(msg, buf);
    if decoded.is_ok() {
        dnhunter_telemetry::tm_count!(dnhunter_telemetry::Metric::DnsMessagesDecoded);
    } else {
        dnhunter_telemetry::tm_count!(dnhunter_telemetry::Metric::DnsDecodeErrors);
        msg.questions.clear();
        msg.answers.clear();
        msg.authorities.clear();
        msg.additionals.clear();
    }
    decoded
}

/// Cap on the *pre-allocated* capacity per message section. Header counts
/// are attacker-controlled u16s (RFC 1035 §4.1.1): a hostile 12-byte header
/// can claim 65535 records, so sizing `Vec`s straight from the count turns
/// one datagram into a 4×65535-slot allocation. Records below the cap still
/// decode — the vectors just grow normally past it, bounded by the actual
/// buffer contents.
const MAX_SECTION_PREALLOC: usize = 256;

fn decode_sections(msg: &mut DnsMessage, buf: &[u8]) -> Result<()> {
    let mut dec = Decoder::new(buf);
    let (header, counts) = dec.header()?;
    msg.header = header;
    msg.questions.clear();
    msg.questions
        .reserve_exact(usize::from(counts.0).min(MAX_SECTION_PREALLOC));
    for _ in 0..counts.0 {
        msg.questions.push(dec.question()?);
    }
    dec.records(&mut msg.answers, counts.1)?;
    dec.records(&mut msg.authorities, counts.2)?;
    dec.records(&mut msg.additionals, counts.3)?;
    Ok(())
}

/// Encode a message for a TCP transport: two-byte big-endian length prefix
/// followed by the wire message (RFC 1035 §4.2.2).
pub fn encode_tcp(msg: &DnsMessage) -> Result<Vec<u8>> {
    let body = encode(msg)?;
    if body.len() > usize::from(u16::MAX) {
        return Err(DnsError::Malformed(format!(
            "message of {} bytes cannot be framed over TCP",
            body.len()
        )));
    }
    let mut out = Vec::with_capacity(body.len() + 2);
    out.extend_from_slice(&(body.len() as u16).to_be_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Decode every complete length-prefixed message (RFC 1035 §4.2.2) at the
/// start of a TCP payload. Trailing partial data (a message split across segments) is
/// ignored; malformed messages stop the scan.
// allow_lint(L1): pos+1 is readable by the `pos + 2 <= buf.len()` loop guard; start..end is readable because `end > buf.len()` breaks first
// lint_root(ingest): TCP-framed DNS decode of untrusted payloads
pub fn decode_tcp_stream(buf: &[u8]) -> Vec<DnsMessage> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos + 2 <= buf.len() {
        let len = usize::from(u16::from_be_bytes([buf[pos], buf[pos + 1]]));
        let start = pos + 2;
        let end = start + len;
        if len == 0 || end > buf.len() {
            break;
        }
        match decode(&buf[start..end]) {
            Ok(msg) => out.push(msg),
            Err(_) => break,
        }
        pos = end;
    }
    out
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Encoder {
    buf: Vec<u8>,
    /// Suffix (as dotted string) → offset where it was first written.
    compression: BTreeMap<String, u16>,
}

impl Encoder {
    fn new() -> Self {
        Encoder {
            buf: Vec::with_capacity(512),
            compression: BTreeMap::new(),
        }
    }

    fn header(&mut self, msg: &DnsMessage) -> Result<()> {
        let h = &msg.header;
        self.buf.extend_from_slice(&h.id.to_be_bytes());
        let mut b2 = 0u8;
        if h.is_response {
            b2 |= 0x80;
        }
        b2 |= (h.opcode & 0x0f) << 3;
        if h.authoritative {
            b2 |= 0x04;
        }
        if h.truncated {
            b2 |= 0x02;
        }
        if h.recursion_desired {
            b2 |= 0x01;
        }
        let mut b3 = 0u8;
        if h.recursion_available {
            b3 |= 0x80;
        }
        b3 |= h.rcode.value();
        self.buf.push(b2);
        self.buf.push(b3);
        for count in [
            msg.questions.len(),
            msg.answers.len(),
            msg.authorities.len(),
            msg.additionals.len(),
        ] {
            if count > usize::from(u16::MAX) {
                return Err(DnsError::Malformed(format!(
                    "section count {count} too large"
                )));
            }
            self.buf.extend_from_slice(&(count as u16).to_be_bytes());
        }
        Ok(())
    }

    /// Write a name with compression: at every suffix, if that suffix was
    /// written before at a pointer-reachable offset, emit a pointer instead.
    fn name(&mut self, name: &DomainName) -> Result<()> {
        // Every suffix of the name is a tail of its dotted text.
        let dotted = name.text();
        let mut at = 0;
        for label in name.labels() {
            let suffix = dotted.get(at..).unwrap_or_default();
            if let Some(&off) = self.compression.get(suffix) {
                let ptr = 0xc000 | off;
                self.buf.extend_from_slice(&ptr.to_be_bytes());
                return Ok(());
            }
            let here = self.buf.len();
            if here <= 0x3fff {
                self.compression.insert(suffix.to_string(), here as u16);
            }
            debug_assert!(label.len() <= 63);
            self.buf.push(label.len() as u8);
            self.buf.extend_from_slice(label.as_bytes());
            at += label.len() + 1;
        }
        self.buf.push(0);
        Ok(())
    }

    fn question(&mut self, q: &Question) -> Result<()> {
        self.name(&q.qname)?;
        self.buf.extend_from_slice(&q.qtype.value().to_be_bytes());
        self.buf.extend_from_slice(&q.qclass.value().to_be_bytes());
        Ok(())
    }

    fn record(&mut self, rr: &ResourceRecord) -> Result<()> {
        self.name(&rr.name)?;
        self.buf
            .extend_from_slice(&rr.rdata.rtype().value().to_be_bytes());
        self.buf.extend_from_slice(&rr.class.value().to_be_bytes());
        self.buf.extend_from_slice(&rr.ttl.to_be_bytes());
        // RDLENGTH is written after the fact.
        let len_pos = self.buf.len();
        self.buf.extend_from_slice(&[0, 0]);
        let data_start = self.buf.len();
        match &rr.rdata {
            RData::A(a) => self.buf.extend_from_slice(&a.octets()),
            RData::Aaaa(a) => self.buf.extend_from_slice(&a.octets()),
            RData::Cname(n) | RData::Ptr(n) | RData::Ns(n) => self.name(n)?,
            RData::Mx {
                preference,
                exchange,
            } => {
                self.buf.extend_from_slice(&preference.to_be_bytes());
                self.name(exchange)?;
            }
            RData::Txt(strings) => {
                for s in strings {
                    let b = s.as_bytes();
                    if b.len() > 255 {
                        return Err(DnsError::Malformed("TXT string over 255 bytes".into()));
                    }
                    self.buf.push(b.len() as u8);
                    self.buf.extend_from_slice(b);
                }
            }
            RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => {
                self.name(mname)?;
                self.name(rname)?;
                for v in [serial, refresh, retry, expire, minimum] {
                    self.buf.extend_from_slice(&v.to_be_bytes());
                }
            }
            RData::Unknown { data, .. } => self.buf.extend_from_slice(data),
        }
        let rdlen = self.buf.len() - data_start;
        if rdlen > usize::from(u16::MAX) {
            return Err(DnsError::Malformed(format!(
                "RDATA length {rdlen} too large"
            )));
        }
        // allow_lint(L1): len_pos points at the two placeholder bytes appended before the RDATA body
        self.buf[len_pos..len_pos + 2].copy_from_slice(&(rdlen as u16).to_be_bytes());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The fixed header (RFC 1035 §4.1.1); no name can start inside it.
const HEADER_OCTETS: usize = 12;

/// Compression pointers one name may follow before it is called a loop.
const MAX_POINTER_JUMPS: usize = 32;

/// Names the per-message memo holds. A response carries the queried name,
/// a CNAME target or two, and pointers back at them.
const NAME_MEMO: usize = 8;

/// Scratch for one name's buffer (see [`DomainName`]): dotted text, then
/// the length table. A wire name is at most [`MAX_NAME_OCTETS`];
/// replacing invalid UTF-8 triples a label's text at worst, and each
/// label adds a dot and a two-byte table entry — three bytes for its one
/// length octet — so `3 * MAX_NAME_OCTETS` bounds the whole.
const NAME_SCRATCH: usize = 3 * MAX_NAME_OCTETS;

/// A name already decoded from this message, filed under the wire offset
/// its first label sits at.
struct MemoEntry {
    at: usize,
    /// Compression pointers followed from `at` to the end of the name.
    jumps: usize,
    name: DomainName,
}

struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Names decoded so far: a name that is nothing but a pointer to one
    /// of them (every answer owner, in the usual response) is a refcount
    /// bump instead of a second buffer.
    memo: [Option<MemoEntry>; NAME_MEMO],
    scratch: [u8; NAME_SCRATCH],
    /// The length table of the name being decoded, until it is appended
    /// to the scratch: two bytes per label, and at most 127 labels fit in
    /// [`MAX_NAME_OCTETS`].
    lens: [u8; MAX_NAME_OCTETS],
}

impl<'a> Decoder<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Decoder {
            buf,
            pos: 0,
            memo: [const { None }; NAME_MEMO],
            scratch: [0; NAME_SCRATCH],
            lens: [0; MAX_NAME_OCTETS],
        }
    }

    // allow_lint(L1): pos..pos+n is readable — the `pos + n > buf.len()` check above returns Malformed first
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(DnsError::Malformed(format!(
                "truncated at offset {} (need {n} more bytes)",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    // allow_lint(L1): take(2) returned a slice of exactly 2 bytes
    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    // allow_lint(L1): take(4) returned a slice of exactly 4 bytes
    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn header(&mut self) -> Result<(DnsHeader, (u16, u16, u16, u16))> {
        let id = self.u16()?;
        let b2 = self.u8()?;
        let b3 = self.u8()?;
        let qd = self.u16()?;
        let an = self.u16()?;
        let ns = self.u16()?;
        let ar = self.u16()?;
        Ok((
            DnsHeader {
                id,
                is_response: b2 & 0x80 != 0,
                opcode: (b2 >> 3) & 0x0f,
                authoritative: b2 & 0x04 != 0,
                truncated: b2 & 0x02 != 0,
                recursion_desired: b2 & 0x01 != 0,
                recursion_available: b3 & 0x80 != 0,
                rcode: Rcode::from(b3 & 0x0f),
            },
            (qd, an, ns, ar),
        ))
    }

    /// Append wire label number `labels` to the name being assembled: its
    /// text — invalid UTF-8 replaced, ASCII lower-cased (the `Cow` borrows
    /// unless a replacement was needed) — joins the dotted text, which
    /// fills the first `used` bytes of the scratch, and its length joins
    /// the table. Returns the new text length; `None` if the scratch were
    /// too small, which [`NAME_SCRATCH`] rules out.
    fn append_label(&mut self, raw: &[u8], labels: u8, used: usize) -> Option<usize> {
        let text = String::from_utf8_lossy(raw);
        let dot = usize::from(labels > 0);
        let end = used + dot + text.len();
        let (sep, label) = self.scratch.get_mut(used..end)?.split_at_mut(dot);
        sep.fill(b'.');
        label.copy_from_slice(text.as_bytes());
        label.make_ascii_lowercase();
        let entry = 2 * usize::from(labels);
        self.lens
            .get_mut(entry..entry + 2)?
            .copy_from_slice(&len_entry(text.len()));
        Some(end)
    }

    /// Decode a (possibly compressed) name starting at the cursor.
    fn name(&mut self) -> Result<DomainName> {
        let wire = self.buf;
        let mut pos = self.pos;
        let mut jumped = false;
        let mut jumps = 0usize;
        let mut total_octets = 1usize;
        // Where the labels begin (past any leading pointers), and how many
        // pointers led there: what the memo files this name under.
        let mut labels_at = pos;
        let mut jumps_before = 0usize;
        let mut labels = 0u8;
        let mut used = 0usize; // bytes of dotted text in the scratch
        loop {
            let len = *wire
                .get(pos)
                .ok_or_else(|| DnsError::Malformed("name runs off buffer".into()))?
                as usize;
            if len & 0xc0 == 0xc0 {
                // Compression pointer.
                let b2 = *wire
                    .get(pos + 1)
                    .ok_or_else(|| DnsError::Malformed("pointer truncated".into()))?
                    as usize;
                let target = ((len & 0x3f) << 8) | b2;
                if target >= pos {
                    return Err(DnsError::BadPointer(format!(
                        "forward pointer {target} at offset {pos}"
                    )));
                }
                if target < HEADER_OCTETS {
                    return Err(DnsError::BadPointer(format!(
                        "pointer into the header ({target}) at offset {pos}"
                    )));
                }
                jumps += 1;
                if jumps > MAX_POINTER_JUMPS {
                    return Err(DnsError::BadPointer("pointer chain too long".into()));
                }
                if !jumped {
                    self.pos = pos + 2;
                    jumped = true;
                }
                pos = target;
                if labels == 0 {
                    // Nothing but pointers so far: this name *is* the name
                    // at `target`.
                    if let Some(hit) = self.memo.iter().flatten().find(|e| e.at == target) {
                        if jumps + hit.jumps > MAX_POINTER_JUMPS {
                            return Err(DnsError::BadPointer("pointer chain too long".into()));
                        }
                        return Ok(hit.name.clone());
                    }
                    labels_at = target;
                    jumps_before = jumps;
                }
                continue;
            }
            if len & 0xc0 != 0 {
                return Err(DnsError::Malformed(format!(
                    "reserved label type {len:#04x} at offset {pos}"
                )));
            }
            if len == 0 {
                if !jumped {
                    self.pos = pos + 1;
                }
                break;
            }
            let start = pos + 1;
            let end_of_label = start + len;
            let raw = wire
                .get(start..end_of_label)
                .ok_or_else(|| DnsError::Malformed("label runs off buffer".into()))?;
            total_octets += len + 1;
            if total_octets > MAX_NAME_OCTETS {
                return Err(DnsError::NameTooLong(total_octets));
            }
            used = self
                .append_label(raw, labels, used)
                .ok_or(DnsError::NameTooLong(total_octets))?;
            labels += 1;
            pos = end_of_label;
        }
        let lens = self.lens.get(..2 * usize::from(labels)).unwrap_or_default();
        let table = self.scratch.get_mut(used..used + lens.len());
        table
            .ok_or(DnsError::NameTooLong(total_octets))?
            .copy_from_slice(lens);
        let buf = self.scratch.get(..used + lens.len()).unwrap_or_default();
        let buf = std::str::from_utf8(buf)
            .map_err(|_| DnsError::Malformed("name scratch is not UTF-8".into()))?;
        let name = DomainName::from_buffer(buf, used, labels);
        if labels > 0 {
            // The first names of a message are the ones later records
            // point at: once the memo is full it stays as it is.
            if let Some(free) = self.memo.iter_mut().find(|e| e.is_none()) {
                *free = Some(MemoEntry {
                    at: labels_at,
                    jumps: jumps - jumps_before,
                    name: name.clone(),
                });
            }
        }
        Ok(name)
    }

    fn question(&mut self) -> Result<Question> {
        let qname = self.name()?;
        let qtype = QType::from(self.u16()?);
        let qclass = QClass::from(self.u16()?);
        Ok(Question {
            qname,
            qtype,
            qclass,
        })
    }

    /// Refill one section with its `count` records, keeping its capacity.
    fn records(&mut self, section: &mut Vec<ResourceRecord>, count: u16) -> Result<()> {
        section.clear();
        section.reserve_exact(usize::from(count).min(MAX_SECTION_PREALLOC));
        for _ in 0..count {
            section.push(self.record()?);
        }
        Ok(())
    }

    fn record(&mut self) -> Result<ResourceRecord> {
        let name = self.name()?;
        let rtype = self.u16()?;
        let class = QClass::from(self.u16()?);
        let ttl = self.u32()?;
        let rdlen = usize::from(self.u16()?);
        let data_end = self.pos + rdlen;
        if data_end > self.buf.len() {
            return Err(DnsError::Malformed("RDATA runs off buffer".into()));
        }
        let rdata = match QType::from(rtype) {
            QType::A => {
                if rdlen != 4 {
                    return Err(DnsError::Malformed(format!("A RDATA length {rdlen}")));
                }
                let b = self.take(4)?;
                // allow_lint(L1): take(4) returned a slice of exactly 4 bytes
                RData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            QType::Aaaa => {
                if rdlen != 16 {
                    return Err(DnsError::Malformed(format!("AAAA RDATA length {rdlen}")));
                }
                let b = self.take(16)?;
                let mut o = [0u8; 16];
                o.copy_from_slice(b);
                RData::Aaaa(Ipv6Addr::from(o))
            }
            QType::Cname => RData::Cname(self.name_bounded(data_end)?),
            QType::Ptr => RData::Ptr(self.name_bounded(data_end)?),
            QType::Ns => RData::Ns(self.name_bounded(data_end)?),
            QType::Mx => {
                let preference = self.u16()?;
                RData::Mx {
                    preference,
                    exchange: self.name_bounded(data_end)?,
                }
            }
            QType::Txt => {
                let mut strings = Vec::new();
                while self.pos < data_end {
                    let len = usize::from(self.u8()?);
                    if self.pos + len > data_end {
                        return Err(DnsError::Malformed("TXT string runs past RDATA".into()));
                    }
                    let raw = self.take(len)?;
                    strings.push(String::from_utf8_lossy(raw).into_owned());
                }
                RData::Txt(strings)
            }
            QType::Soa => {
                let mname = self.name_bounded(data_end)?;
                let rname = self.name_bounded(data_end)?;
                RData::Soa {
                    mname,
                    rname,
                    serial: self.u32()?,
                    refresh: self.u32()?,
                    retry: self.u32()?,
                    expire: self.u32()?,
                    minimum: self.u32()?,
                }
            }
            _ => {
                let data = self.take(rdlen)?.to_vec();
                RData::Unknown { rtype, data }
            }
        };
        if self.pos != data_end {
            return Err(DnsError::Malformed(format!(
                "RDATA length mismatch: ended at {} expected {data_end}",
                self.pos
            )));
        }
        Ok(ResourceRecord {
            name,
            class,
            ttl,
            rdata,
        })
    }

    /// Decode a name that must not advance the cursor past `bound`.
    fn name_bounded(&mut self, bound: usize) -> Result<DomainName> {
        let n = self.name()?;
        if self.pos > bound {
            return Err(DnsError::Malformed("name runs past RDATA bound".into()));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::DnsMessage;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn a(n: &str, ip: [u8; 4]) -> ResourceRecord {
        ResourceRecord {
            name: name(n),
            class: QClass::In,
            ttl: 120,
            rdata: RData::A(Ipv4Addr::from(ip)),
        }
    }

    #[test]
    fn query_roundtrip() {
        let q = DnsMessage::query(0xbeef, name("itunes.apple.com"), QType::A);
        let bytes = encode(&q).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn response_roundtrip_with_compression() {
        let q = DnsMessage::query(1, name("data.flurry.com"), QType::A);
        let r = DnsMessage::answer_to(
            &q,
            vec![
                a("data.flurry.com", [216, 74, 41, 8]),
                a("data.flurry.com", [216, 74, 41, 10]),
                a("data.flurry.com", [216, 74, 41, 12]),
            ],
        );
        let bytes = encode(&r).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, r);
        // Compression must actually shrink repeated names: the name occurs 4
        // times (question + 3 answers); uncompressed it is 17 bytes each.
        let uncompressed_estimate = 12 + 4 * (17 + 4) + 3 * (10 + 4);
        assert!(bytes.len() < uncompressed_estimate);
    }

    #[test]
    fn cname_chain_roundtrip() {
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
                a("www.zynga.com.edgekey.net", [23, 7, 7, 7]),
            ],
        );
        let bytes = encode(&r).unwrap();
        assert_eq!(decode(&bytes).unwrap(), r);
    }

    #[test]
    fn all_rdata_types_roundtrip() {
        let q = DnsMessage::query(3, name("example.com"), QType::Any);
        let r = DnsMessage::answer_to(
            &q,
            vec![
                a("example.com", [93, 184, 216, 34]),
                ResourceRecord {
                    name: name("example.com"),
                    class: QClass::In,
                    ttl: 60,
                    rdata: RData::Aaaa("2606:2800:220:1::1946".parse().unwrap()),
                },
                ResourceRecord {
                    name: name("example.com"),
                    class: QClass::In,
                    ttl: 60,
                    rdata: RData::Ns(name("ns1.example.com")),
                },
                ResourceRecord {
                    name: name("example.com"),
                    class: QClass::In,
                    ttl: 60,
                    rdata: RData::Mx {
                        preference: 10,
                        exchange: name("mx.example.com"),
                    },
                },
                ResourceRecord {
                    name: name("example.com"),
                    class: QClass::In,
                    ttl: 60,
                    rdata: RData::Txt(vec!["v=spf1 -all".into(), "second".into()]),
                },
                ResourceRecord {
                    name: name("example.com"),
                    class: QClass::In,
                    ttl: 60,
                    rdata: RData::Soa {
                        mname: name("ns1.example.com"),
                        rname: name("hostmaster.example.com"),
                        serial: 20121101,
                        refresh: 7200,
                        retry: 3600,
                        expire: 1209600,
                        minimum: 300,
                    },
                },
                ResourceRecord {
                    name: name("example.com"),
                    class: QClass::In,
                    ttl: 60,
                    rdata: RData::Unknown {
                        rtype: 99,
                        data: vec![1, 2, 3],
                    },
                },
            ],
        );
        let bytes = encode(&r).unwrap();
        assert_eq!(decode(&bytes).unwrap(), r);
    }

    #[test]
    fn ptr_roundtrip() {
        let q = DnsMessage::query(4, name("8.41.74.216.in-addr.arpa"), QType::Ptr);
        let r = DnsMessage::answer_to(
            &q,
            vec![ResourceRecord {
                name: name("8.41.74.216.in-addr.arpa"),
                class: QClass::In,
                ttl: 3600,
                rdata: RData::Ptr(name("srv8.flurry.com")),
            }],
        );
        let bytes = encode(&r).unwrap();
        assert_eq!(decode(&bytes).unwrap(), r);
    }

    #[test]
    fn rejects_truncated_message() {
        let q = DnsMessage::query(5, name("example.com"), QType::A);
        let bytes = encode(&q).unwrap();
        for cut in [1, 5, 11, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_pointer_loop() {
        // Header claiming 1 question, then a name that is a pointer to itself.
        let mut buf = vec![0u8; 12];
        buf[4..6].copy_from_slice(&1u16.to_be_bytes()); // QDCOUNT=1
        buf.extend_from_slice(&[0xc0, 12]); // pointer to offset 12 (itself)
        buf.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(decode(&buf), Err(DnsError::BadPointer(_))));
    }

    #[test]
    fn rejects_forward_pointer() {
        let mut buf = vec![0u8; 12];
        buf[4..6].copy_from_slice(&1u16.to_be_bytes());
        buf.extend_from_slice(&[0xc0, 40]); // forward pointer
        buf.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(decode(&buf), Err(DnsError::BadPointer(_))));
    }

    #[test]
    fn rejects_pointer_into_header() {
        // Offsets 0..12 are the fixed header; with ID 0x0377 a pointer to
        // offset 0 would otherwise decode header bytes as the label "w..".
        for target in 0..12u8 {
            let mut buf = vec![0u8; 12];
            buf[0..2].copy_from_slice(&[0x03, 0x77]);
            buf[4..6].copy_from_slice(&1u16.to_be_bytes()); // QDCOUNT=1
            buf[6..8].copy_from_slice(&1u16.to_be_bytes()); // ANCOUNT=1
            buf.extend_from_slice(b"\x02ok\x00\x00\x01\x00\x01");
            buf.extend_from_slice(&[0xc0, target]);
            buf.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 10, 0, 0, 1]);
            assert!(
                matches!(decode(&buf), Err(DnsError::BadPointer(_))),
                "pointer to header offset {target}"
            );
        }
    }

    #[test]
    fn rejects_bad_rdata_length() {
        let q = DnsMessage::query(6, name("x.com"), QType::A);
        let r = DnsMessage::answer_to(&q, vec![a("x.com", [1, 2, 3, 4])]);
        let mut bytes = encode(&r).unwrap();
        // Find and corrupt the RDLENGTH of the A record (last 6 bytes are
        // rdlen(2) + rdata(4)).
        let p = bytes.len() - 6;
        bytes[p..p + 2].copy_from_slice(&3u16.to_be_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn tcp_framing_roundtrip() {
        let q = DnsMessage::query(0xaaaa, name("big.example.com"), QType::A);
        let answers: Vec<ResourceRecord> = (0..20)
            .map(|i| a("big.example.com", [8, 8, (i >> 8) as u8, i as u8]))
            .collect();
        let r = DnsMessage::answer_to(&q, answers);
        let framed = encode_tcp(&r).unwrap();
        let back = decode_tcp_stream(&framed);
        assert_eq!(back, vec![r.clone()]);
        // Two messages back to back.
        let mut two = framed.clone();
        two.extend_from_slice(&encode_tcp(&q).unwrap());
        assert_eq!(decode_tcp_stream(&two), vec![r, q]);
    }

    #[test]
    fn tcp_stream_ignores_partial_tail() {
        let q = DnsMessage::query(1, name("x.example.com"), QType::A);
        let framed = encode_tcp(&q).unwrap();
        // Full message + truncated second one.
        let mut buf = framed.clone();
        buf.extend_from_slice(&framed[..framed.len() / 2]);
        assert_eq!(decode_tcp_stream(&buf), vec![q]);
        // Garbage yields nothing, no panic.
        assert!(decode_tcp_stream(&[0xff, 0xff, 1, 2, 3]).is_empty());
        assert!(decode_tcp_stream(&[]).is_empty());
    }

    #[test]
    fn decoded_names_are_lowercase() {
        // Encode with mixed case by hand-building labels.
        let mut buf = vec![0u8; 12];
        buf[4..6].copy_from_slice(&1u16.to_be_bytes());
        buf.push(3);
        buf.extend_from_slice(b"WwW");
        buf.push(7);
        buf.extend_from_slice(b"ExAmPlE");
        buf.push(3);
        buf.extend_from_slice(b"CoM");
        buf.push(0);
        buf.extend_from_slice(&[0, 1, 0, 1]);
        let m = decode(&buf).unwrap();
        assert_eq!(m.questions[0].qname.to_string(), "www.example.com");
    }
}
