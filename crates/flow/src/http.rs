//! Minimal HTTP/1.x request parsing — enough for DPI and tracker detection.

/// A parsed HTTP request line plus the headers DPI cares about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    pub method: String,
    pub target: String,
    pub version: String,
    /// `Host:` header value, lowercased, if present.
    pub host: Option<String>,
    /// `User-Agent:` header value, if present.
    pub user_agent: Option<String>,
}

/// HTTP methods recognised by the detector.
const METHODS: &[&str] = &[
    "GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS", "CONNECT", "TRACE", "PATCH",
];

/// Quick check: does this client-to-server payload begin like an HTTP request?
#[expect(
    clippy::indexing_slicing,
    reason = "payload[m.len()] is readable — `payload.len() > m.len()` is checked first in the conjunction"
)]
pub fn looks_like_http_request(payload: &[u8]) -> bool {
    METHODS.iter().any(|m| {
        payload.len() > m.len() && payload.starts_with(m.as_bytes()) && payload[m.len()] == b' '
    })
}

/// Quick check: does this server-to-client payload begin like a response?
pub fn looks_like_http_response(payload: &[u8]) -> bool {
    payload.starts_with(b"HTTP/1.") || payload.starts_with(b"HTTP/2")
}

/// Parse the request line and headers from the start of a TCP payload.
/// Returns `None` if it does not look like HTTP at all. Tolerates a payload
/// truncated mid-headers (DPI only sees the first segment).
pub fn parse_request(payload: &[u8]) -> Option<HttpRequest> {
    if !looks_like_http_request(payload) {
        return None;
    }
    let text = String::from_utf8_lossy(payload);
    let mut lines = text.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split(' ');
    let method = parts.next()?.to_string();
    let target = parts.next()?.to_string();
    let version = parts.next().unwrap_or("HTTP/1.0").to_string();
    let mut host = None;
    let mut user_agent = None;
    for line in lines {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "host" => host = Some(value.to_ascii_lowercase()),
                "user-agent" => user_agent = Some(value.to_string()),
                _ => {}
            }
        }
    }
    Some(HttpRequest {
        method,
        target,
        version,
        host,
        user_agent,
    })
}

/// Build a plausible HTTP request payload (used by the simulator).
pub fn build_request(method: &str, target: &str, host: &str, user_agent: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: {user_agent}\r\nAccept: */*\r\nConnection: keep-alive\r\n\r\n"
    )
    .into_bytes()
}

/// Build a plausible HTTP response header (used by the simulator).
pub fn build_response(status: u16, content_length: usize) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} OK\r\nServer: httpd\r\nContent-Length: {content_length}\r\nConnection: keep-alive\r\n\r\n"
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_and_parses_requests() {
        let req = build_request("GET", "/index.html", "www.Example.com", "tester/1.0");
        assert!(looks_like_http_request(&req));
        let p = parse_request(&req).unwrap();
        assert_eq!(p.method, "GET");
        assert_eq!(p.target, "/index.html");
        assert_eq!(p.version, "HTTP/1.1");
        assert_eq!(p.host.as_deref(), Some("www.example.com"));
        assert_eq!(p.user_agent.as_deref(), Some("tester/1.0"));
    }

    #[test]
    fn rejects_non_http() {
        assert!(!looks_like_http_request(b"\x16\x03\x01\x00\x50"));
        assert!(!looks_like_http_request(b"GETX / HTTP/1.1"));
        assert!(!looks_like_http_request(b""));
        assert!(parse_request(b"\x13BitTorrent protocol").is_none());
    }

    #[test]
    fn detects_responses() {
        assert!(looks_like_http_response(&build_response(200, 10)));
        assert!(!looks_like_http_response(b"nope"));
    }

    #[test]
    fn truncated_headers_still_parse() {
        let req = b"POST /api HTTP/1.1\r\nHost: api.test.co";
        let p = parse_request(req).unwrap();
        assert_eq!(p.method, "POST");
        // Truncated Host line still yields a value (best effort).
        assert_eq!(p.host.as_deref(), Some("api.test.co"));
    }

    #[test]
    fn missing_host_is_none() {
        let p = parse_request(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(p.host, None);
    }
}
