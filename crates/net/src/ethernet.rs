//! Ethernet II framing.

use crate::error::{need, NetError, Result};
use crate::mac::MacAddr;

/// Length of an Ethernet II header in bytes.
pub const HEADER_LEN: usize = 14;

/// EtherType discriminator for the encapsulated payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// IPv6 (0x86DD).
    Ipv6,
    /// ARP (0x0806) — recognised but not decoded further.
    Arp,
    /// Any other value.
    Other(u16),
}

impl EtherType {
    /// Wire value.
    pub fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Ipv6 => 0x86DD,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x86DD => EtherType::Ipv6,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// A decoded Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    pub dst: MacAddr,
    pub src: MacAddr,
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Decode the header; returns the header and the payload slice offset.
    #[expect(
        clippy::indexing_slicing,
        reason = "all offsets are below HEADER_LEN, checked by the `need` guard on entry"
    )]
    pub fn parse(buf: &[u8]) -> Result<(EthernetHeader, usize)> {
        need("ethernet", buf, HEADER_LEN)?;
        let mut dst = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        let mut src = [0u8; 6];
        src.copy_from_slice(&buf[6..12]);
        let ethertype = u16::from_be_bytes([buf[12], buf[13]]);
        if ethertype < 0x0600 {
            // 802.3 length field rather than an EtherType; the paper's sniffer
            // (and ours) only handles Ethernet II.
            return Err(NetError::Unsupported {
                layer: "ethernet",
                detail: format!("802.3 length-field frame ({ethertype:#06x})"),
            });
        }
        Ok((
            EthernetHeader {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype: EtherType::from(ethertype),
            },
            HEADER_LEN,
        ))
    }

    /// Append the encoded header to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&self.ethertype.value().to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = EthernetHeader {
            dst: MacAddr::from_id(1),
            src: MacAddr::from_id(2),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let (parsed, off) = EthernetHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(off, HEADER_LEN);
    }

    #[test]
    fn parse_rejects_short_buffer() {
        assert!(matches!(
            EthernetHeader::parse(&[0u8; 13]),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn parse_rejects_8023_length_frames() {
        let mut buf = vec![0u8; 14];
        buf[12..14].copy_from_slice(&100u16.to_be_bytes());
        assert!(matches!(
            EthernetHeader::parse(&buf),
            Err(NetError::Unsupported { .. })
        ));
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x86DD), EtherType::Ipv6);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from(0x9999), EtherType::Other(0x9999));
        assert_eq!(EtherType::Other(0x1234).value(), 0x1234);
    }
}
