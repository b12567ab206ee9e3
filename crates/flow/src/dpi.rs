//! The lightweight DPI classifier.
//!
//! Combines the protocol detectors over the first payload bytes of each
//! direction. This plays the role Tstat's DPI plays in the paper: a ground
//! truth for the protocol mix (Tab. 2) and the "GT" column of Tables 6–7.

use crate::bittorrent;
use crate::http;
use crate::tls;

/// Application protocol classes the paper's evaluation distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppProtocol {
    /// Plain HTTP.
    Http,
    /// TLS/SSL (HTTPS and other TLS services).
    Tls,
    /// Peer-to-peer: BitTorrent peer-wire *or* tracker traffic.
    P2p,
    /// DNS itself (UDP port 53 payloads).
    Dns,
    /// Mail protocols (SMTP/POP3/IMAP banners).
    Mail,
    /// Messaging/chat (XMPP/MSN-style banners).
    Chat,
    /// Unknown / unclassified.
    Other,
}

impl AppProtocol {
    /// Port-only classification for the flow-record ingest regime, where
    /// no payload bytes exist to inspect. Mirrors the port tie-break sets
    /// [`classify`] uses — the best a NetFlow/IPFIX probe can offer.
    pub fn from_server_port(port: u16) -> AppProtocol {
        match port {
            80 | 8080 => AppProtocol::Http,
            443 => AppProtocol::Tls,
            53 => AppProtocol::Dns,
            25 | 110 | 143 | 587 => AppProtocol::Mail,
            5222 | 1863 => AppProtocol::Chat,
            _ => AppProtocol::Other,
        }
    }

    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AppProtocol::Http => "http",
            AppProtocol::Tls => "tls",
            AppProtocol::P2p => "p2p",
            AppProtocol::Dns => "dns",
            AppProtocol::Mail => "mail",
            AppProtocol::Chat => "chat",
            AppProtocol::Other => "other",
        }
    }
}

/// Classify a flow from the first payload bytes of each direction plus the
/// server port. Payload evidence always beats port numbers; ports only
/// break ties for protocols whose first payload is server-sent banners we
/// may have missed.
pub fn classify(c2s: &[u8], s2c: &[u8], server_port: u16) -> AppProtocol {
    // P2P first: a tracker announce is also valid HTTP, and the paper
    // counts it as P2P.
    if bittorrent::is_peer_handshake(c2s)
        || bittorrent::is_peer_handshake(s2c)
        || bittorrent::is_tracker_announce(c2s)
    {
        return AppProtocol::P2p;
    }
    if tls::looks_like_tls(c2s) || tls::looks_like_tls(s2c) {
        return AppProtocol::Tls;
    }
    if http::looks_like_http_request(c2s) || http::looks_like_http_response(s2c) {
        return AppProtocol::Http;
    }
    if server_port == 53 {
        return AppProtocol::Dns;
    }
    if is_mail_banner(s2c) || matches!(server_port, 25 | 110 | 143 | 587) {
        return AppProtocol::Mail;
    }
    if is_chat_banner(c2s) || server_port == 5222 || server_port == 1863 {
        return AppProtocol::Chat;
    }
    AppProtocol::Other
}

/// SMTP/POP3/IMAP server banners.
fn is_mail_banner(s2c: &[u8]) -> bool {
    s2c.starts_with(b"220 ") || s2c.starts_with(b"+OK") || s2c.starts_with(b"* OK")
}

/// XMPP stream header or MSNP verb.
fn is_chat_banner(c2s: &[u8]) -> bool {
    c2s.starts_with(b"<stream:stream") || c2s.starts_with(b"<?xml") || c2s.starts_with(b"VER ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_http() {
        let req = http::build_request("GET", "/", "example.com", "x");
        assert_eq!(classify(&req, &[], 80), AppProtocol::Http);
        // Response-only evidence also works.
        let resp = http::build_response(200, 3);
        assert_eq!(classify(&[], &resp, 8080), AppProtocol::Http);
    }

    #[test]
    fn classifies_tls_even_on_odd_ports() {
        let ch = tls::build_client_hello(Some("x.com"), 1);
        assert_eq!(classify(&ch, &[], 8443), AppProtocol::Tls);
    }

    #[test]
    fn tracker_announce_is_p2p_not_http() {
        let ann = bittorrent::build_tracker_announce("t.example.org", "aa", 6881);
        assert_eq!(classify(&ann, &[], 6969), AppProtocol::P2p);
    }

    #[test]
    fn peer_handshake_is_p2p() {
        let hs = bittorrent::build_peer_handshake([1; 20], [2; 20]);
        assert_eq!(classify(&hs, &[], 51413), AppProtocol::P2p);
        assert_eq!(classify(&[], &hs, 51413), AppProtocol::P2p);
    }

    #[test]
    fn mail_banners_and_ports() {
        assert_eq!(
            classify(b"EHLO x", b"220 mail.example.com ESMTP", 2525),
            AppProtocol::Mail
        );
        assert_eq!(classify(b"", b"", 25), AppProtocol::Mail);
        assert_eq!(
            classify(b"USER x", b"+OK pop ready", 12345),
            AppProtocol::Mail
        );
    }

    #[test]
    fn dns_by_port() {
        assert_eq!(classify(&[0x12, 0x34], &[], 53), AppProtocol::Dns);
    }

    #[test]
    fn chat_detection() {
        assert_eq!(
            classify(b"<stream:stream to='gmail.com'>", b"", 5222),
            AppProtocol::Chat
        );
        assert_eq!(classify(b"VER 1 MSNP15", b"", 1863), AppProtocol::Chat);
    }

    #[test]
    fn unknown_falls_through() {
        assert_eq!(classify(b"\x00\x01\x02", b"\x00", 9999), AppProtocol::Other);
        assert_eq!(classify(&[], &[], 9999), AppProtocol::Other);
    }

    #[test]
    fn labels() {
        assert_eq!(AppProtocol::Http.label(), "http");
        assert_eq!(AppProtocol::P2p.label(), "p2p");
    }
}
