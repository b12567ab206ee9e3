//! The 5-tuple flow identifier.

use std::fmt;
use std::net::IpAddr;

use dnhunter_net::IpProtocol;

/// The oriented 5-tuple `Fid = (clientIP, serverIP, sPort, dPort, protocol)`
/// of paper §3.1. "Client" is the flow initiator (first packet seen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    pub client: IpAddr,
    pub server: IpAddr,
    pub client_port: u16,
    pub server_port: u16,
    pub protocol: u8,
}

impl FlowKey {
    /// Build an oriented key from the initiator's first packet.
    pub fn from_initiator(
        src: IpAddr,
        dst: IpAddr,
        src_port: u16,
        dst_port: u16,
        protocol: IpProtocol,
    ) -> Self {
        FlowKey {
            client: src,
            server: dst,
            client_port: src_port,
            server_port: dst_port,
            protocol: protocol.number(),
        }
    }

    /// The key as seen from the opposite direction (server → client).
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            client: self.server,
            server: self.client,
            client_port: self.server_port,
            server_port: self.client_port,
            protocol: self.protocol,
        }
    }

    /// The transport protocol.
    pub fn protocol(&self) -> IpProtocol {
        IpProtocol::from(self.protocol)
    }

    /// Flight-recorder provenance key of this flow's server endpoint.
    pub fn server_trace_key(&self) -> u64 {
        server_trace_key(self.server, self.server_port)
    }

    /// Direction of a packet with the given endpoints relative to this key:
    /// `Some(true)` = client→server, `Some(false)` = server→client,
    /// `None` = not this flow.
    pub fn direction_of(
        &self,
        src: IpAddr,
        src_port: u16,
        dst: IpAddr,
        dst_port: u16,
    ) -> Option<bool> {
        if src == self.client
            && src_port == self.client_port
            && dst == self.server
            && dst_port == self.server_port
        {
            Some(true)
        } else if src == self.server
            && src_port == self.server_port
            && dst == self.client
            && dst_port == self.client_port
        {
            Some(false)
        } else {
            None
        }
    }
}

/// The direction-free form of the 5-tuple: endpoints ordered by
/// `(address, port)` instead of by who spoke first. Both directions of a
/// conversation canonicalise to the same key, so the flow table resolves
/// any segment with a *single* hash probe — the oriented [`FlowKey`]
/// needed up to two (`forward`, then `reversed`) on the per-packet path
/// the paper's real-time constraint (§3.2) cares about. Orientation still exists: it lives in the value
/// (the record's [`FlowKey`]), not in the map key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonFlowKey {
    lo: (IpAddr, u16),
    hi: (IpAddr, u16),
    protocol: u8,
}

impl CanonFlowKey {
    /// Canonicalise a segment's endpoints (either direction).
    pub fn of(
        src: IpAddr,
        src_port: u16,
        dst: IpAddr,
        dst_port: u16,
        protocol: IpProtocol,
    ) -> Self {
        let a = (src, src_port);
        let b = (dst, dst_port);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        CanonFlowKey {
            lo,
            hi,
            protocol: protocol.number(),
        }
    }

    /// The canonical form of an oriented key.
    pub fn from_key(k: &FlowKey) -> Self {
        Self::of(
            k.client,
            k.client_port,
            k.server,
            k.server_port,
            k.protocol(),
        )
    }
}

/// Flight-recorder provenance key of a `(server IP, server port)`
/// endpoint: FNV-1a over the address octets then the big-endian port.
/// Engine trace events and the CLI's `--explain IP:PORT` parser both key
/// through this function, so their hashes join without storing strings.
pub fn server_trace_key(ip: IpAddr, port: u16) -> u64 {
    let mut h = dnhunter_telemetry::TraceKeyHasher::new();
    match ip {
        IpAddr::V4(v4) => h.write(&v4.octets()),
        IpAddr::V6(v6) => h.write(&v6.octets()),
    }
    h.write(&port.to_be_bytes());
    h.finish()
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.protocol(),
            self.client,
            self.client_port,
            self.server,
            self.server_port
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey::from_initiator(
            "10.0.0.5".parse().unwrap(),
            "93.184.216.34".parse().unwrap(),
            51000,
            443,
            IpProtocol::Tcp,
        )
    }

    #[test]
    fn reversal_is_involutive() {
        let k = key();
        assert_eq!(k.reversed().reversed(), k);
        assert_ne!(k.reversed(), k);
    }

    #[test]
    fn direction_detection() {
        let k = key();
        assert_eq!(
            k.direction_of(k.client, k.client_port, k.server, k.server_port),
            Some(true)
        );
        assert_eq!(
            k.direction_of(k.server, k.server_port, k.client, k.client_port),
            Some(false)
        );
        assert_eq!(k.direction_of(k.client, 1, k.server, k.server_port), None);
    }

    #[test]
    fn display_is_oriented() {
        let s = key().to_string();
        assert!(s.starts_with("TCP 10.0.0.5:51000 ->"));
    }
}
