//! A deliberately small X.509/DER subset: enough to build a syntactically
//! valid certificate skeleton carrying a subject common name, and to extract
//! that CN from arbitrary DER the way certificate-grepping DPI boxes do.

/// DER tag numbers used here.
const TAG_INTEGER: u8 = 0x02;
const TAG_OID: u8 = 0x06;
const TAG_UTF8STRING: u8 = 0x0c;
const TAG_PRINTABLESTRING: u8 = 0x13;
const TAG_SEQUENCE: u8 = 0x30;
const TAG_SET: u8 = 0x31;

/// OID 2.5.4.3 (id-at-commonName) in DER body form.
const OID_CN: &[u8] = &[0x55, 0x04, 0x03];

/// Encode a DER length.
fn push_len(out: &mut Vec<u8>, len: usize) {
    if len < 0x80 {
        out.push(len as u8);
    } else if len <= 0xff {
        out.push(0x81);
        out.push(len as u8);
    } else {
        out.push(0x82);
        out.extend_from_slice(&(len as u16).to_be_bytes());
    }
}

/// Encode one TLV.
// allow_lint(L8): certificate builder; `body` is DER the program encoded, not a length read off the wire
fn tlv(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 4);
    out.push(tag);
    push_len(&mut out, body.len());
    out.extend_from_slice(body);
    out
}

/// A `SEQUENCE` of the given encoded elements.
fn sequence(parts: &[Vec<u8>]) -> Vec<u8> {
    let body: Vec<u8> = parts.iter().flatten().copied().collect();
    tlv(TAG_SEQUENCE, &body)
}

/// One RDN: `SET { SEQUENCE { OID, string } }`.
fn rdn(oid: &[u8], value: &str, printable: bool) -> Vec<u8> {
    let tag = if printable {
        TAG_PRINTABLESTRING
    } else {
        TAG_UTF8STRING
    };
    let attr = sequence(&[tlv(TAG_OID, oid), tlv(tag, value.as_bytes())]);
    tlv(TAG_SET, &attr)
}

/// Build a minimal certificate-shaped DER blob:
/// `SEQUENCE { SEQUENCE { serial, issuerName, subjectName } }` where both
/// names are `SEQUENCE of RDN` and the subject carries CN=`subject_cn`.
/// This is not a signable certificate, but it has the exact DER name
/// structure real CN extractors walk.
pub fn build_certificate(subject_cn: &str, issuer_cn: &str) -> Vec<u8> {
    let serial = tlv(TAG_INTEGER, &[0x01, 0x7f]);
    let issuer = sequence(&[rdn(OID_CN, issuer_cn, true)]);
    let subject = sequence(&[rdn(OID_CN, subject_cn, false)]);
    let tbs = sequence(&[serial, issuer, subject]);
    sequence(&[tbs])
}

/// Read one TLV header at `pos`; returns (tag, body_start, body_end).
fn read_tlv(der: &[u8], pos: usize) -> Option<(u8, usize, usize)> {
    let tag = *der.get(pos)?;
    let first = *der.get(pos + 1)?;
    let (len, header) = if first < 0x80 {
        (usize::from(first), 2)
    } else {
        let n = usize::from(first & 0x7f);
        if n == 0 || n > 4 {
            return None;
        }
        let mut len = 0usize;
        for i in 0..n {
            len = (len << 8) | usize::from(*der.get(pos + 2 + i)?);
        }
        (len, 2 + n)
    };
    let body_start = pos + header;
    let body_end = body_start.checked_add(len)?;
    if body_end > der.len() {
        return None;
    }
    Some((tag, body_start, body_end))
}

/// Extract the *last* CN attribute in document order (subject follows issuer
/// in X.509, so the last CN is the subject's) — the same byte-scanning
/// heuristic certificate-inspection middleboxes use: find the encoded
/// id-at-commonName OID (`06 03 55 04 03`) and read the string TLV after it.
///
/// A CN is only reported when the certificate's outer TLV is *complete* in
/// the buffer. On a truncated capture the subject name is exactly the part
/// most likely to be cut, and the last CN still present would be the
/// **issuer**'s — reporting it would hand the flow tagger a bogus FQDN
/// (the CA's name). No name beats a wrong name.
// allow_lint(L1): the window i..i+needle.len() is readable by the loop guard (outer_end <= der.len() from read_tlv); vs..ve come from read_tlv, which bounds-checks them against der.len()
pub fn extract_common_name(der: &[u8]) -> Option<String> {
    let (_, _, outer_end) = read_tlv(der, 0)?;
    let mut found: Option<String> = None;
    let needle = [TAG_OID, OID_CN.len() as u8, OID_CN[0], OID_CN[1], OID_CN[2]];
    let mut i = 0;
    while i + needle.len() <= outer_end {
        if der[i..i + needle.len()] == needle {
            if let Some((tag, vs, ve)) = read_tlv(der, i + needle.len()) {
                if ve <= outer_end && (tag == TAG_UTF8STRING || tag == TAG_PRINTABLESTRING) {
                    found = Some(String::from_utf8_lossy(&der[vs..ve]).to_ascii_lowercase());
                }
            }
        }
        i += 1;
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_extract_cn() {
        let der = build_certificate("www.linkedin.com", "Verisign CA");
        assert_eq!(
            extract_common_name(&der).as_deref(),
            Some("www.linkedin.com")
        );
    }

    #[test]
    fn wildcard_and_cdn_cns() {
        for cn in ["*.google.com", "a248.e.akamai.net", "SSL.example.COM"] {
            let der = build_certificate(cn, "CA");
            assert_eq!(
                extract_common_name(&der).as_deref(),
                Some(cn.to_ascii_lowercase().as_str())
            );
        }
    }

    #[test]
    fn subject_cn_wins_over_issuer_cn() {
        let der = build_certificate("subject.example.com", "issuer.example.com");
        assert_eq!(
            extract_common_name(&der).as_deref(),
            Some("subject.example.com")
        );
    }

    #[test]
    fn garbage_yields_none() {
        assert_eq!(extract_common_name(b"not der at all"), None);
        assert_eq!(extract_common_name(&[]), None);
        assert_eq!(extract_common_name(&[0x30, 0x82]), None); // truncated length
    }

    #[test]
    fn long_cn_uses_multibyte_length() {
        let long = format!("{}.example.com", "a".repeat(150));
        let der = build_certificate(&long, "CA");
        assert_eq!(extract_common_name(&der).as_deref(), Some(long.as_str()));
    }

    #[test]
    fn truncated_der_is_safe() {
        let der = build_certificate("host.example.com", "CA");
        for cut in [1, 5, der.len() / 2] {
            // Must not panic; result may be None or partial.
            let _ = extract_common_name(&der[..cut]);
        }
    }

    #[test]
    fn truncation_never_surfaces_the_issuer_cn() {
        // Cutting the subject off a certificate must not promote the
        // issuer's CN to "the" CN: every strict prefix yields None.
        let der = build_certificate("subject.example.com", "issuer-ca.example.com");
        for cut in 0..der.len() {
            assert_eq!(
                extract_common_name(&der[..cut]),
                None,
                "prefix of {cut} bytes produced a CN"
            );
        }
    }
}
