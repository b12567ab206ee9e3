//! IPv4 header codec (RFC 791).

use std::net::Ipv4Addr;

use crate::checksum::internet_checksum;
use crate::error::{need, NetError, Result};
use crate::proto::IpProtocol;

/// Minimum IPv4 header length (no options).
pub const MIN_HEADER_LEN: usize = 20;

/// A decoded IPv4 header. Options are preserved as raw bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Header {
    pub dscp_ecn: u8,
    /// Total length of header + payload as claimed on the wire.
    pub total_len: u16,
    pub identification: u16,
    pub dont_fragment: bool,
    pub more_fragments: bool,
    pub fragment_offset: u16,
    pub ttl: u8,
    pub protocol: IpProtocol,
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    /// Raw option bytes (already padded to a 4-byte multiple).
    pub options: Vec<u8>,
}

impl Ipv4Header {
    /// A conventional header for synthetic traffic.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol) -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: 0, // filled in by `write`
            identification: 0,
            dont_fragment: true,
            more_fragments: false,
            fragment_offset: 0,
            ttl: 64,
            protocol,
            src,
            dst,
            options: Vec::new(),
        }
    }

    /// Header length in bytes including options.
    pub fn header_len(&self) -> usize {
        MIN_HEADER_LEN + self.options.len()
    }

    /// True if this packet is a fragment (either offset non-zero or MF set).
    pub fn is_fragment(&self) -> bool {
        self.more_fragments || self.fragment_offset != 0
    }

    /// Decode from `buf`, validating version, IHL, total length and checksum.
    /// Returns the header and the offset where the payload begins.
    #[expect(
        clippy::indexing_slicing,
        reason = "fixed offsets sit below MIN_HEADER_LEN (the `need` guard); ihl-relative slices follow the `ihl <= buf.len()` check"
    )]
    pub fn parse(buf: &[u8]) -> Result<(Ipv4Header, usize)> {
        need("ipv4", buf, MIN_HEADER_LEN)?;
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(NetError::Unsupported {
                layer: "ipv4",
                detail: format!("version {version}"),
            });
        }
        let ihl = usize::from(buf[0] & 0x0f) * 4;
        if ihl < MIN_HEADER_LEN {
            return Err(NetError::BadLength {
                layer: "ipv4",
                detail: format!("IHL {ihl} < 20"),
            });
        }
        need("ipv4", buf, ihl)?;
        let total_len = u16::from_be_bytes([buf[2], buf[3]]);
        if usize::from(total_len) < ihl {
            return Err(NetError::BadLength {
                layer: "ipv4",
                detail: format!("total length {total_len} < header length {ihl}"),
            });
        }
        if buf.len() < usize::from(total_len) {
            return Err(NetError::Truncated {
                layer: "ipv4",
                needed: usize::from(total_len),
                available: buf.len(),
            });
        }
        let sum = internet_checksum(&buf[..ihl]);
        if sum != 0 {
            let found = u16::from_be_bytes([buf[10], buf[11]]);
            return Err(NetError::BadChecksum {
                layer: "ipv4",
                expected: 0,
                found,
            });
        }
        let flags_frag = u16::from_be_bytes([buf[6], buf[7]]);
        Ok((
            Ipv4Header {
                dscp_ecn: buf[1],
                total_len,
                identification: u16::from_be_bytes([buf[4], buf[5]]),
                dont_fragment: flags_frag & 0x4000 != 0,
                more_fragments: flags_frag & 0x2000 != 0,
                fragment_offset: flags_frag & 0x1fff,
                ttl: buf[8],
                protocol: IpProtocol::from(buf[9]),
                src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
                dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
                options: buf[MIN_HEADER_LEN..ihl].to_vec(),
            },
            ihl,
        ))
    }

    /// Encode this header followed by `payload_len` bytes of payload (which
    /// the caller appends). Computes total length and checksum.
    #[expect(
        clippy::indexing_slicing,
        reason = "`out` grows from `start` by exactly `header_len` pushes before the checksum is patched in at start+10..start+12"
    )]
    pub fn write(&self, out: &mut Vec<u8>, payload_len: usize) -> Result<()> {
        if !self.options.len().is_multiple_of(4) || self.options.len() > 40 {
            return Err(NetError::BadLength {
                layer: "ipv4",
                detail: format!("options length {} invalid", self.options.len()),
            });
        }
        let header_len = self.header_len();
        let total = header_len + payload_len;
        if total > usize::from(u16::MAX) {
            return Err(NetError::BadLength {
                layer: "ipv4",
                detail: format!("total length {total} exceeds 65535"),
            });
        }
        let start = out.len();
        let ihl_words = (header_len / 4) as u8;
        out.push(0x40 | ihl_words);
        out.push(self.dscp_ecn);
        out.extend_from_slice(&(total as u16).to_be_bytes());
        out.extend_from_slice(&self.identification.to_be_bytes());
        let mut flags_frag = self.fragment_offset & 0x1fff;
        if self.dont_fragment {
            flags_frag |= 0x4000;
        }
        if self.more_fragments {
            flags_frag |= 0x2000;
        }
        out.extend_from_slice(&flags_frag.to_be_bytes());
        out.push(self.ttl);
        out.push(self.protocol.number());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        out.extend_from_slice(&self.options);
        let ck = internet_checksum(&out[start..start + header_len]);
        out[start + 10..start + 12].copy_from_slice(&ck.to_be_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(192, 0, 2, 55),
            IpProtocol::Udp,
        )
    }

    #[test]
    fn roundtrip_no_options() {
        let h = sample();
        let mut buf = Vec::new();
        h.write(&mut buf, 8).unwrap();
        buf.extend_from_slice(&[0xaa; 8]);
        let (parsed, off) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(off, MIN_HEADER_LEN);
        assert_eq!(parsed.src, h.src);
        assert_eq!(parsed.dst, h.dst);
        assert_eq!(parsed.protocol, IpProtocol::Udp);
        assert_eq!(parsed.total_len, 28);
        assert!(parsed.dont_fragment);
        assert!(!parsed.is_fragment());
    }

    #[test]
    fn roundtrip_with_options() {
        let mut h = sample();
        h.options = vec![1, 1, 1, 1]; // four NOPs
        let mut buf = Vec::new();
        h.write(&mut buf, 0).unwrap();
        let (parsed, off) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(off, 24);
        assert_eq!(parsed.options, vec![1, 1, 1, 1]);
    }

    #[test]
    fn bad_checksum_detected() {
        let h = sample();
        let mut buf = Vec::new();
        h.write(&mut buf, 0).unwrap();
        buf[8] = buf[8].wrapping_add(1); // corrupt TTL
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(NetError::BadChecksum { .. })
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let h = sample();
        let mut buf = Vec::new();
        h.write(&mut buf, 0).unwrap();
        buf[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(NetError::Unsupported { .. })
        ));
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        let h = sample();
        let mut buf = Vec::new();
        h.write(&mut buf, 4).unwrap();
        // claim 4 bytes of payload but provide none
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_unaligned_options_on_write() {
        let mut h = sample();
        h.options = vec![1, 1, 1]; // not a multiple of 4
        let mut buf = Vec::new();
        assert!(h.write(&mut buf, 0).is_err());
    }

    #[test]
    fn fragment_fields_roundtrip() {
        let mut h = sample();
        h.dont_fragment = false;
        h.more_fragments = true;
        h.fragment_offset = 185;
        let mut buf = Vec::new();
        h.write(&mut buf, 0).unwrap();
        let (parsed, _) = Ipv4Header::parse(&buf).unwrap();
        assert!(parsed.more_fragments);
        assert!(!parsed.dont_fragment);
        assert_eq!(parsed.fragment_offset, 185);
        assert!(parsed.is_fragment());
    }
}
