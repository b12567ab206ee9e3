//! UDP header codec (RFC 768).

use std::net::{Ipv4Addr, Ipv6Addr};

use crate::checksum::{pseudo_header_checksum_v4, pseudo_header_checksum_v6};
use crate::error::{need, NetError, Result};

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A decoded UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    /// Length of header + payload as claimed on the wire.
    pub length: u16,
    pub checksum: u16,
}

impl UdpHeader {
    /// Decode from `buf`; returns the header and the payload offset. The
    /// checksum is *not* validated here because that requires the IP
    /// pseudo-header; use [`UdpHeader::verify_checksum_v4`] /
    /// [`UdpHeader::verify_checksum_v6`] with the full segment.
    #[expect(
        clippy::indexing_slicing,
        reason = "all fixed offsets sit below HEADER_LEN, checked by the `need` guard on entry"
    )]
    pub fn parse(buf: &[u8]) -> Result<(UdpHeader, usize)> {
        need("udp", buf, HEADER_LEN)?;
        let length = u16::from_be_bytes([buf[4], buf[5]]);
        if usize::from(length) < HEADER_LEN {
            return Err(NetError::BadLength {
                layer: "udp",
                detail: format!("length field {length} < 8"),
            });
        }
        if buf.len() < usize::from(length) {
            return Err(NetError::Truncated {
                layer: "udp",
                needed: usize::from(length),
                available: buf.len(),
            });
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([buf[0], buf[1]]),
                dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                length,
                checksum: u16::from_be_bytes([buf[6], buf[7]]),
            },
            HEADER_LEN,
        ))
    }

    /// Validate the checksum of a full UDP segment carried over IPv4.
    /// A zero checksum means "not computed" and is accepted (RFC 768).
    pub fn verify_checksum_v4(segment: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<()> {
        if segment.get(6..HEADER_LEN) == Some(&[0, 0]) {
            return Ok(());
        }
        let sum = pseudo_header_checksum_v4(src, dst, 17, segment);
        if sum != 0 {
            return Err(NetError::BadChecksum {
                layer: "udp",
                expected: 0,
                found: sum,
            });
        }
        Ok(())
    }

    /// Validate the checksum of a full UDP segment carried over IPv6
    /// (mandatory there).
    pub fn verify_checksum_v6(segment: &[u8], src: Ipv6Addr, dst: Ipv6Addr) -> Result<()> {
        let sum = pseudo_header_checksum_v6(src, dst, 17, segment);
        if sum != 0 {
            return Err(NetError::BadChecksum {
                layer: "udp",
                expected: 0,
                found: sum,
            });
        }
        Ok(())
    }

    /// Encode a full UDP segment (header + payload) over IPv4, computing the
    /// checksum. Appends to `out`.
    #[expect(
        clippy::indexing_slicing,
        reason = "the checksum patch at start+6..start+8 lands inside the 8 header bytes appended above it"
    )]
    pub fn write_segment_v4(
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let total = HEADER_LEN + payload.len();
        if total > usize::from(u16::MAX) {
            return Err(NetError::BadLength {
                layer: "udp",
                detail: format!("segment length {total} exceeds 65535"),
            });
        }
        let start = out.len();
        out.extend_from_slice(&src_port.to_be_bytes());
        out.extend_from_slice(&dst_port.to_be_bytes());
        out.extend_from_slice(&(total as u16).to_be_bytes());
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(payload);
        let mut ck = pseudo_header_checksum_v4(src, dst, 17, &out[start..]);
        if ck == 0 {
            // RFC 768: transmitted as all-ones if the computed sum is zero.
            ck = 0xffff;
        }
        out[start + 6..start + 8].copy_from_slice(&ck.to_be_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_checksum() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(8, 8, 8, 8);
        let mut seg = Vec::new();
        UdpHeader::write_segment_v4(40000, 53, b"hello dns", src, dst, &mut seg).unwrap();
        let (h, off) = UdpHeader::parse(&seg).unwrap();
        assert_eq!(h.src_port, 40000);
        assert_eq!(h.dst_port, 53);
        assert_eq!(usize::from(h.length), seg.len());
        assert_eq!(&seg[off..], b"hello dns");
        UdpHeader::verify_checksum_v4(&seg, src, dst).unwrap();
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(8, 8, 8, 8);
        let mut seg = Vec::new();
        UdpHeader::write_segment_v4(1234, 53, b"payload", src, dst, &mut seg).unwrap();
        let last = seg.len() - 1;
        seg[last] ^= 0x01;
        assert!(UdpHeader::verify_checksum_v4(&seg, src, dst).is_err());
    }

    #[test]
    fn zero_checksum_is_accepted_on_v4() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(8, 8, 8, 8);
        let mut seg = Vec::new();
        UdpHeader::write_segment_v4(1234, 53, b"x", src, dst, &mut seg).unwrap();
        seg[6] = 0;
        seg[7] = 0;
        UdpHeader::verify_checksum_v4(&seg, src, dst).unwrap();
    }

    #[test]
    fn rejects_length_shorter_than_header() {
        let mut seg = vec![0u8; 8];
        seg[4..6].copy_from_slice(&4u16.to_be_bytes());
        assert!(matches!(
            UdpHeader::parse(&seg),
            Err(NetError::BadLength { .. })
        ));
    }

    #[test]
    fn rejects_truncated_segment() {
        let mut seg = vec![0u8; 8];
        seg[4..6].copy_from_slice(&20u16.to_be_bytes());
        assert!(matches!(
            UdpHeader::parse(&seg),
            Err(NetError::Truncated { .. })
        ));
    }
}
