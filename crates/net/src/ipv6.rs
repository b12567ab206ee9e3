//! IPv6 fixed header codec (RFC 8200). Extension headers other than
//! hop-by-hop are treated as opaque payload by the sniffer.

use std::net::Ipv6Addr;

use crate::error::{need, NetError, Result};
use crate::proto::IpProtocol;

/// IPv6 fixed header length.
pub const HEADER_LEN: usize = 40;

/// A decoded IPv6 fixed header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv6Header {
    pub traffic_class: u8,
    pub flow_label: u32,
    /// Payload length as claimed on the wire (excludes the fixed header).
    pub payload_len: u16,
    pub next_header: IpProtocol,
    pub hop_limit: u8,
    pub src: Ipv6Addr,
    pub dst: Ipv6Addr,
}

impl Ipv6Header {
    /// A conventional header for synthetic traffic.
    pub fn new(src: Ipv6Addr, dst: Ipv6Addr, next_header: IpProtocol) -> Self {
        Ipv6Header {
            traffic_class: 0,
            flow_label: 0,
            payload_len: 0, // filled by `write`
            next_header,
            hop_limit: 64,
            src,
            dst,
        }
    }

    /// Decode from `buf`; returns the header and payload offset.
    #[expect(
        clippy::indexing_slicing,
        reason = "all fixed offsets sit below HEADER_LEN, checked by the `need` guard on entry"
    )]
    pub fn parse(buf: &[u8]) -> Result<(Ipv6Header, usize)> {
        need("ipv6", buf, HEADER_LEN)?;
        let version = buf[0] >> 4;
        if version != 6 {
            return Err(NetError::Unsupported {
                layer: "ipv6",
                detail: format!("version {version}"),
            });
        }
        let payload_len = u16::from_be_bytes([buf[4], buf[5]]);
        if buf.len() < HEADER_LEN + usize::from(payload_len) {
            return Err(NetError::Truncated {
                layer: "ipv6",
                needed: HEADER_LEN + usize::from(payload_len),
                available: buf.len(),
            });
        }
        let mut src = [0u8; 16];
        src.copy_from_slice(&buf[8..24]);
        let mut dst = [0u8; 16];
        dst.copy_from_slice(&buf[24..40]);
        Ok((
            Ipv6Header {
                traffic_class: ((buf[0] & 0x0f) << 4) | (buf[1] >> 4),
                flow_label: (u32::from(buf[1] & 0x0f) << 16)
                    | (u32::from(buf[2]) << 8)
                    | u32::from(buf[3]),
                payload_len,
                next_header: IpProtocol::from(buf[6]),
                hop_limit: buf[7],
                src: Ipv6Addr::from(src),
                dst: Ipv6Addr::from(dst),
            },
            HEADER_LEN,
        ))
    }

    /// Encode this header assuming `payload_len` bytes of payload follow.
    pub fn write(&self, out: &mut Vec<u8>, payload_len: usize) -> Result<()> {
        if payload_len > usize::from(u16::MAX) {
            return Err(NetError::BadLength {
                layer: "ipv6",
                detail: format!("payload length {payload_len} exceeds 65535"),
            });
        }
        out.push(0x60 | (self.traffic_class >> 4));
        out.push(((self.traffic_class & 0x0f) << 4) | ((self.flow_label >> 16) as u8 & 0x0f));
        out.push((self.flow_label >> 8) as u8);
        out.push(self.flow_label as u8);
        out.extend_from_slice(&(payload_len as u16).to_be_bytes());
        out.push(self.next_header.number());
        out.push(self.hop_limit);
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv6Header {
        Ipv6Header::new(
            "2001:db8::1".parse().unwrap(),
            "2001:db8:ffff::2".parse().unwrap(),
            IpProtocol::Tcp,
        )
    }

    #[test]
    fn roundtrip() {
        let mut h = sample();
        h.traffic_class = 0xb8;
        h.flow_label = 0xabcde;
        let mut buf = Vec::new();
        h.write(&mut buf, 4).unwrap();
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let (parsed, off) = Ipv6Header::parse(&buf).unwrap();
        assert_eq!(off, HEADER_LEN);
        assert_eq!(parsed.src, h.src);
        assert_eq!(parsed.dst, h.dst);
        assert_eq!(parsed.traffic_class, 0xb8);
        assert_eq!(parsed.flow_label, 0xabcde);
        assert_eq!(parsed.payload_len, 4);
        assert_eq!(parsed.next_header, IpProtocol::Tcp);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        sample().write(&mut buf, 0).unwrap();
        buf[0] = 0x45;
        assert!(matches!(
            Ipv6Header::parse(&buf),
            Err(NetError::Unsupported { .. })
        ));
    }

    #[test]
    fn rejects_short_payload() {
        let mut buf = Vec::new();
        sample().write(&mut buf, 10).unwrap();
        // no payload appended
        assert!(matches!(
            Ipv6Header::parse(&buf),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_short_header() {
        assert!(Ipv6Header::parse(&[0x60; 39]).is_err());
    }
}
