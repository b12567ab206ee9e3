//! TLS record/handshake parsing — SNI extraction from ClientHello and
//! subject-CN extraction from the Certificate message.
//!
//! The paper compares DN-Hunter against a DPI extended to inspect TLS
//! certificates (§5.2.1, Tab. 4); the simulator emits realistic handshakes
//! through [`build_client_hello`] / [`build_server_flight`] and this module
//! decodes them the way such a DPI would.

pub mod x509;

/// TLS record content types.
pub const CONTENT_HANDSHAKE: u8 = 22;
/// Handshake message types we care about.
pub const HS_CLIENT_HELLO: u8 = 1;
pub const HS_SERVER_HELLO: u8 = 2;
pub const HS_CERTIFICATE: u8 = 11;

/// What a passive observer learned from one direction of a TLS flow.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TlsInfo {
    /// Server name from the ClientHello SNI extension.
    pub sni: Option<String>,
    /// Subject common name of the first certificate, if a Certificate
    /// message was observed.
    pub certificate_cn: Option<String>,
    /// True if a ServerHello was seen.
    pub server_hello: bool,
    /// True if a Certificate message was seen (even without a parsable CN).
    pub certificate_seen: bool,
}

/// Quick check: does this payload begin with a plausible TLS record?
#[expect(
    clippy::indexing_slicing,
    reason = "indices 0..=2 are readable — `payload.len() >= 5` is the first conjunct"
)]
pub fn looks_like_tls(payload: &[u8]) -> bool {
    payload.len() >= 5 && (20..=23).contains(&payload[0]) && payload[1] == 3 && payload[2] <= 4
}

/// Parse all complete TLS records at the start of `payload`, accumulating
/// handshake information. Unknown/encrypted content is skipped gracefully.
#[expect(
    clippy::indexing_slicing,
    reason = "header bytes pos..pos+5 are readable by the loop guard; body_start.. slices are clamped by the `body_end > payload.len()` branch"
)]
pub fn inspect(payload: &[u8]) -> TlsInfo {
    let mut info = TlsInfo::default();
    let mut pos = 0;
    while pos + 5 <= payload.len() {
        let ctype = payload[pos];
        if !(20..=23).contains(&ctype) || payload[pos + 1] != 3 {
            break;
        }
        let len = usize::from(u16::from_be_bytes([payload[pos + 3], payload[pos + 4]]));
        let body_start = pos + 5;
        let body_end = body_start + len;
        if body_end > payload.len() {
            // Truncated record (segment boundary); inspect what we have.
            if ctype == CONTENT_HANDSHAKE {
                inspect_handshakes(&payload[body_start..], &mut info);
            }
            break;
        }
        if ctype == CONTENT_HANDSHAKE {
            inspect_handshakes(&payload[body_start..body_end], &mut info);
        }
        pos = body_end;
    }
    info
}

/// Walk the handshake messages inside one record body.
#[expect(
    clippy::indexing_slicing,
    reason = "the 4 header bytes are readable by the `body.len() >= 4` guard; msg_end is min-clamped to body.len(); the tail slice is guarded by the `4 + hs_len > body.len()` break"
)]
fn inspect_handshakes(mut body: &[u8], info: &mut TlsInfo) {
    while body.len() >= 4 {
        let hs_type = body[0];
        let hs_len =
            (usize::from(body[1]) << 16) | (usize::from(body[2]) << 8) | usize::from(body[3]);
        let msg_end = (4 + hs_len).min(body.len());
        let msg = &body[4..msg_end];
        match hs_type {
            HS_CLIENT_HELLO => {
                if let Some(sni) = parse_client_hello_sni(msg) {
                    info.sni = Some(sni);
                }
            }
            HS_SERVER_HELLO => info.server_hello = true,
            HS_CERTIFICATE => {
                info.certificate_seen = true;
                if let Some(cn) = parse_certificate_cn(msg) {
                    info.certificate_cn = Some(cn);
                }
            }
            _ => {}
        }
        if 4 + hs_len > body.len() {
            break;
        }
        body = &body[4 + hs_len..];
    }
}

/// Extract the SNI host name from a ClientHello body (after the 4-byte
/// handshake header).
#[expect(
    clippy::indexing_slicing,
    reason = "extension-walk indices stay below ext_end which is min-clamped to msg.len(); SNI body indices are guarded by the d.len() checks"
)]
fn parse_client_hello_sni(msg: &[u8]) -> Option<String> {
    // version(2) random(32)
    let mut pos = 34;
    // session_id
    let sid_len = usize::from(*msg.get(pos)?);
    pos += 1 + sid_len;
    // cipher_suites
    let cs_len = usize::from(u16::from_be_bytes([*msg.get(pos)?, *msg.get(pos + 1)?]));
    pos += 2 + cs_len;
    // compression_methods
    let cm_len = usize::from(*msg.get(pos)?);
    pos += 1 + cm_len;
    // extensions
    let ext_total = usize::from(u16::from_be_bytes([*msg.get(pos)?, *msg.get(pos + 1)?]));
    pos += 2;
    let ext_end = (pos + ext_total).min(msg.len());
    while pos + 4 <= ext_end {
        let etype = u16::from_be_bytes([msg[pos], msg[pos + 1]]);
        let elen = usize::from(u16::from_be_bytes([msg[pos + 2], msg[pos + 3]]));
        let edata_start = pos + 4;
        let edata_end = (edata_start + elen).min(ext_end);
        if etype == 0 {
            // server_name: list_len(2) type(1) name_len(2) name
            let d = &msg[edata_start..edata_end];
            if d.len() >= 5 && d[2] == 0 {
                let nlen = usize::from(u16::from_be_bytes([d[3], d[4]]));
                if 5 + nlen <= d.len() {
                    return Some(String::from_utf8_lossy(&d[5..5 + nlen]).to_ascii_lowercase());
                }
            }
            return None;
        }
        pos = edata_start + elen;
    }
    None
}

/// Extract the subject CN from a Certificate message body: the message is a
/// 3-byte list length, then per-certificate 3-byte lengths + DER bytes.
#[expect(
    clippy::indexing_slicing,
    reason = "indices 3..=5 are readable — the `msg.len() < 6` case returned None above"
)]
fn parse_certificate_cn(msg: &[u8]) -> Option<String> {
    if msg.len() < 6 {
        return None;
    }
    let first_len = (usize::from(msg[3]) << 16) | (usize::from(msg[4]) << 8) | usize::from(msg[5]);
    let der = msg.get(6..6 + first_len)?;
    x509::extract_common_name(der)
}

// ---------------------------------------------------------------------------
// Builders (used by the simulator)
// ---------------------------------------------------------------------------

// allow_lint(L8): simulator builder; `body` is bytes the program built, not a length read off the wire
fn record(ctype: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + body.len());
    out.push(ctype);
    out.extend_from_slice(&[3, 1]); // TLS 1.0 record version, as real stacks send
    out.extend_from_slice(&(body.len() as u16).to_be_bytes());
    out.extend_from_slice(body);
    out
}

// allow_lint(L8): simulator builder; `body` is bytes the program built, not a length read off the wire
fn handshake(hs_type: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    out.push(hs_type);
    out.push((body.len() >> 16) as u8);
    out.push((body.len() >> 8) as u8);
    out.push(body.len() as u8);
    out.extend_from_slice(body);
    out
}

/// Build a ClientHello record, optionally carrying an SNI extension.
/// `random_seed` varies the random field deterministically.
pub fn build_client_hello(sni: Option<&str>, random_seed: u64) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&[3, 3]); // TLS 1.2
    let mut random = [0u8; 32];
    for (i, b) in random.iter_mut().enumerate() {
        *b = (random_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(i as u32)
            >> 24) as u8;
    }
    body.extend_from_slice(&random);
    body.push(0); // empty session id
    let suites: [u16; 4] = [0xc02f, 0xc030, 0x009e, 0x002f];
    body.extend_from_slice(&((suites.len() * 2) as u16).to_be_bytes());
    for s in suites {
        body.extend_from_slice(&s.to_be_bytes());
    }
    body.extend_from_slice(&[1, 0]); // one compression method: null
    let mut exts = Vec::new();
    if let Some(name) = sni {
        let name = name.as_bytes();
        let mut ext = Vec::new();
        ext.extend_from_slice(&((name.len() + 3) as u16).to_be_bytes()); // list len
        ext.push(0); // host_name
        ext.extend_from_slice(&(name.len() as u16).to_be_bytes());
        ext.extend_from_slice(name);
        exts.extend_from_slice(&0u16.to_be_bytes()); // ext type server_name
        exts.extend_from_slice(&(ext.len() as u16).to_be_bytes());
        exts.extend_from_slice(&ext);
    }
    // supported_groups extension for realism
    exts.extend_from_slice(&10u16.to_be_bytes());
    exts.extend_from_slice(&4u16.to_be_bytes());
    exts.extend_from_slice(&[0, 2, 0, 23]);
    body.extend_from_slice(&(exts.len() as u16).to_be_bytes());
    body.extend_from_slice(&exts);
    record(CONTENT_HANDSHAKE, &handshake(HS_CLIENT_HELLO, &body))
}

/// Build the server's first flight: ServerHello, plus a Certificate message
/// carrying a certificate for `cert_cn` when given (omitted on session
/// resumption, which is how the paper's 23% "no certificate" cases arise).
pub fn build_server_flight(cert_cn: Option<&str>, random_seed: u64) -> Vec<u8> {
    let mut sh = Vec::new();
    sh.extend_from_slice(&[3, 3]);
    let mut random = [0u8; 32];
    for (i, b) in random.iter_mut().enumerate() {
        *b = (random_seed
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .rotate_left(i as u32)
            >> 16) as u8;
    }
    sh.extend_from_slice(&random);
    sh.push(0); // empty session id
    sh.extend_from_slice(&0xc02fu16.to_be_bytes()); // chosen suite
    sh.push(0); // null compression
    sh.extend_from_slice(&0u16.to_be_bytes()); // no extensions
    let mut flight = record(CONTENT_HANDSHAKE, &handshake(HS_SERVER_HELLO, &sh));
    if let Some(cn) = cert_cn {
        let der = x509::build_certificate(cn, "DN-Hunter Synthetic CA");
        let mut certs = Vec::new();
        let total = der.len() + 3;
        certs.push((total >> 16) as u8);
        certs.push((total >> 8) as u8);
        certs.push(total as u8);
        certs.push((der.len() >> 16) as u8);
        certs.push((der.len() >> 8) as u8);
        certs.push(der.len() as u8);
        certs.extend_from_slice(&der);
        flight.extend_from_slice(&record(
            CONTENT_HANDSHAKE,
            &handshake(HS_CERTIFICATE, &certs),
        ));
    }
    flight
}

/// Build an opaque application-data record (encrypted traffic stand-in).
// allow_lint(L8): simulator builder; `len` comes from the traffic model and is capped at 16 000 bytes
pub fn build_application_data(len: usize, seed: u64) -> Vec<u8> {
    let mut body = vec![0u8; len.min(16_000)];
    let mut s = seed | 1;
    for b in body.iter_mut() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (s >> 33) as u8;
    }
    record(23, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_hello_sni_roundtrip() {
        let ch = build_client_hello(Some("mail.google.com"), 42);
        assert!(looks_like_tls(&ch));
        let info = inspect(&ch);
        assert_eq!(info.sni.as_deref(), Some("mail.google.com"));
        assert!(!info.server_hello);
    }

    #[test]
    fn client_hello_without_sni() {
        let ch = build_client_hello(None, 7);
        let info = inspect(&ch);
        assert_eq!(info.sni, None);
    }

    #[test]
    fn server_flight_with_certificate() {
        let fl = build_server_flight(Some("*.google.com"), 9);
        let info = inspect(&fl);
        assert!(info.server_hello);
        assert!(info.certificate_seen);
        assert_eq!(info.certificate_cn.as_deref(), Some("*.google.com"));
    }

    #[test]
    fn resumed_session_has_no_certificate() {
        let fl = build_server_flight(None, 9);
        let info = inspect(&fl);
        assert!(info.server_hello);
        assert!(!info.certificate_seen);
        assert_eq!(info.certificate_cn, None);
    }

    #[test]
    fn multiple_records_in_one_segment() {
        let mut seg = build_client_hello(Some("x.example.com"), 1);
        seg.extend_from_slice(&build_application_data(64, 3));
        let info = inspect(&seg);
        assert_eq!(info.sni.as_deref(), Some("x.example.com"));
    }

    #[test]
    fn non_tls_is_rejected() {
        assert!(!looks_like_tls(b"GET / HTTP/1.1\r\n"));
        assert!(!looks_like_tls(&[22, 9, 9, 0, 5]));
        assert!(!looks_like_tls(&[22, 3]));
        let info = inspect(b"definitely not tls at all");
        assert_eq!(info, TlsInfo::default());
    }

    #[test]
    fn truncated_record_is_inspected_best_effort() {
        let ch = build_client_hello(Some("long.name.example.org"), 5);
        // Cut mid-record but after the SNI extension bytes.
        let cut = ch.len() - 3;
        let info = inspect(&ch[..cut]);
        assert_eq!(info.sni.as_deref(), Some("long.name.example.org"));
    }

    #[test]
    fn application_data_is_deterministic_per_seed() {
        assert_eq!(
            build_application_data(100, 5),
            build_application_data(100, 5)
        );
        assert_ne!(
            build_application_data(100, 5),
            build_application_data(100, 6)
        );
    }
}
