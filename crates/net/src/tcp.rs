//! TCP header codec (RFC 9293), including the option kinds the sniffer and
//! simulator need (MSS, window scale, SACK-permitted, timestamps, NOP, EOL).

use std::net::{Ipv4Addr, Ipv6Addr};

use crate::checksum::{pseudo_header_checksum_v4, pseudo_header_checksum_v6};
use crate::error::{need, NetError, Result};

/// Minimum TCP header length (no options).
pub const MIN_HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    pub const FIN: TcpFlags = TcpFlags(0x01);
    pub const SYN: TcpFlags = TcpFlags(0x02);
    pub const RST: TcpFlags = TcpFlags(0x04);
    pub const PSH: TcpFlags = TcpFlags(0x08);
    pub const ACK: TcpFlags = TcpFlags(0x10);
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Union of two flag sets.
    pub const fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// True if all bits of `other` are present.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    pub fn syn(self) -> bool {
        self.contains(Self::SYN)
    }
    pub fn ack(self) -> bool {
        self.contains(Self::ACK)
    }
    pub fn fin(self) -> bool {
        self.contains(Self::FIN)
    }
    pub fn rst(self) -> bool {
        self.contains(Self::RST)
    }
    pub fn psh(self) -> bool {
        self.contains(Self::PSH)
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        self.union(rhs)
    }
}

impl std::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut any = false;
        for (bit, name) in [
            (Self::SYN, "SYN"),
            (Self::ACK, "ACK"),
            (Self::FIN, "FIN"),
            (Self::RST, "RST"),
            (Self::PSH, "PSH"),
            (Self::URG, "URG"),
        ] {
            if self.contains(bit) {
                if any {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// Decoded TCP options the stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpOption {
    /// Maximum segment size (kind 2), SYN only.
    Mss(u16),
    /// Window scale shift (kind 3), SYN only.
    WindowScale(u8),
    /// SACK permitted (kind 4), SYN only.
    SackPermitted,
    /// Timestamps (kind 8): TSval, TSecr.
    Timestamps(u32, u32),
    /// NOP padding (kind 1).
    Nop,
    /// Unknown option preserved by kind (payload dropped).
    Unknown(u8),
}

/// A decoded TCP header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    pub window: u16,
    pub checksum: u16,
    pub urgent: u16,
    pub options: Vec<TcpOption>,
}

impl TcpHeader {
    /// A plain header for synthetic traffic; options empty, window 65535.
    pub fn new(src_port: u16, dst_port: u16, seq: u32, ack: u32, flags: TcpFlags) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 65535,
            checksum: 0,
            urgent: 0,
            options: Vec::new(),
        }
    }

    /// Length the encoded header will occupy (options padded to 4 bytes).
    pub fn header_len(&self) -> usize {
        let opt: usize = self
            .options
            .iter()
            .map(|o| match o {
                TcpOption::Mss(_) => 4,
                TcpOption::WindowScale(_) => 3,
                TcpOption::SackPermitted => 2,
                TcpOption::Timestamps(_, _) => 10,
                TcpOption::Nop => 1,
                TcpOption::Unknown(_) => 2,
            })
            .sum();
        MIN_HEADER_LEN + opt.div_ceil(4) * 4
    }

    /// Decode from `buf`; returns the header and the payload offset.
    #[expect(
        clippy::indexing_slicing,
        reason = "fixed offsets sit below MIN_HEADER_LEN (first `need` guard); option bytes are below data_offset (second `need` guard plus the per-option i/len range checks); body indices are matched against body.len()"
    )]
    pub fn parse(buf: &[u8]) -> Result<(TcpHeader, usize)> {
        need("tcp", buf, MIN_HEADER_LEN)?;
        let data_offset = usize::from(buf[12] >> 4) * 4;
        if data_offset < MIN_HEADER_LEN {
            return Err(NetError::BadLength {
                layer: "tcp",
                detail: format!("data offset {data_offset} < 20"),
            });
        }
        need("tcp", buf, data_offset)?;
        let mut options = Vec::new();
        let mut i = MIN_HEADER_LEN;
        while i < data_offset {
            match buf[i] {
                0 => break, // EOL
                1 => {
                    options.push(TcpOption::Nop);
                    i += 1;
                }
                kind => {
                    if i + 1 >= data_offset {
                        return Err(NetError::BadLength {
                            layer: "tcp",
                            detail: format!("option kind {kind} truncated"),
                        });
                    }
                    let len = usize::from(buf[i + 1]);
                    if len < 2 || i + len > data_offset {
                        return Err(NetError::BadLength {
                            layer: "tcp",
                            detail: format!("option kind {kind} has bad length {len}"),
                        });
                    }
                    let body = &buf[i + 2..i + len];
                    options.push(match (kind, body.len()) {
                        (2, 2) => TcpOption::Mss(u16::from_be_bytes([body[0], body[1]])),
                        (3, 1) => TcpOption::WindowScale(body[0]),
                        (4, 0) => TcpOption::SackPermitted,
                        (8, 8) => TcpOption::Timestamps(
                            u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                            u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                        ),
                        _ => TcpOption::Unknown(kind),
                    });
                    i += len;
                }
            }
        }
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([buf[0], buf[1]]),
                dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
                ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
                flags: TcpFlags(buf[13] & 0x3f),
                window: u16::from_be_bytes([buf[14], buf[15]]),
                checksum: u16::from_be_bytes([buf[16], buf[17]]),
                urgent: u16::from_be_bytes([buf[18], buf[19]]),
                options,
            },
            data_offset,
        ))
    }

    /// Encode a full TCP segment (header + payload) over IPv4 with a valid
    /// checksum; appends to `out`.
    #[expect(
        clippy::indexing_slicing,
        reason = "the checksum patch at start+16..start+18 lands inside the 20+ header bytes appended above it"
    )]
    pub fn write_segment_v4(
        &self,
        payload: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let header_len = self.header_len();
        if header_len > 60 {
            return Err(NetError::BadLength {
                layer: "tcp",
                detail: format!("header length {header_len} exceeds 60"),
            });
        }
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(((header_len / 4) as u8) << 4);
        out.push(self.flags.0);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.urgent.to_be_bytes());
        for opt in &self.options {
            match opt {
                TcpOption::Mss(v) => {
                    out.extend_from_slice(&[2, 4]);
                    out.extend_from_slice(&v.to_be_bytes());
                }
                TcpOption::WindowScale(s) => out.extend_from_slice(&[3, 3, *s]),
                TcpOption::SackPermitted => out.extend_from_slice(&[4, 2]),
                TcpOption::Timestamps(val, ecr) => {
                    out.extend_from_slice(&[8, 10]);
                    out.extend_from_slice(&val.to_be_bytes());
                    out.extend_from_slice(&ecr.to_be_bytes());
                }
                TcpOption::Nop => out.push(1),
                TcpOption::Unknown(kind) => out.extend_from_slice(&[*kind, 2]),
            }
        }
        while (out.len() - start) < header_len {
            out.push(0); // EOL padding
        }
        out.extend_from_slice(payload);
        let ck = pseudo_header_checksum_v4(src, dst, 6, &out[start..]);
        out[start + 16..start + 18].copy_from_slice(&ck.to_be_bytes());
        Ok(())
    }

    /// Encode a full TCP segment over IPv6, computing the checksum.
    #[expect(
        clippy::indexing_slicing,
        reason = "the checksum patch at start+16..start+18 lands inside the header the v4 writer just appended"
    )]
    pub fn write_segment_v6(
        &self,
        payload: &[u8],
        src: Ipv6Addr,
        dst: Ipv6Addr,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let start = out.len();
        // Reuse the v4 writer's layout with a dummy checksum, then fix it.
        self.write_segment_v4(payload, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, out)?;
        out[start + 16..start + 18].copy_from_slice(&[0, 0]);
        let ck = pseudo_header_checksum_v6(src, dst, 6, &out[start..]);
        out[start + 16..start + 18].copy_from_slice(&ck.to_be_bytes());
        Ok(())
    }

    /// Validate the checksum of a full TCP segment carried over IPv6.
    pub fn verify_checksum_v6(segment: &[u8], src: Ipv6Addr, dst: Ipv6Addr) -> Result<()> {
        let sum = pseudo_header_checksum_v6(src, dst, 6, segment);
        if sum != 0 {
            return Err(NetError::BadChecksum {
                layer: "tcp",
                expected: 0,
                found: sum,
            });
        }
        Ok(())
    }

    /// Validate the checksum of a full TCP segment carried over IPv4.
    pub fn verify_checksum_v4(segment: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<()> {
        let sum = pseudo_header_checksum_v4(src, dst, 6, segment);
        if sum != 0 {
            return Err(NetError::BadChecksum {
                layer: "tcp",
                expected: 0,
                found: sum,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(93, 184, 216, 34))
    }

    #[test]
    fn roundtrip_plain() {
        let (s, d) = addrs();
        let h = TcpHeader::new(51000, 443, 1000, 0, TcpFlags::SYN);
        let mut seg = Vec::new();
        h.write_segment_v4(&[], s, d, &mut seg).unwrap();
        let (parsed, off) = TcpHeader::parse(&seg).unwrap();
        assert_eq!(off, MIN_HEADER_LEN);
        assert_eq!(parsed.src_port, 51000);
        assert_eq!(parsed.dst_port, 443);
        assert_eq!(parsed.seq, 1000);
        assert!(parsed.flags.syn());
        assert!(!parsed.flags.ack());
        TcpHeader::verify_checksum_v4(&seg, s, d).unwrap();
    }

    #[test]
    fn roundtrip_with_options_and_payload() {
        let (s, d) = addrs();
        let mut h = TcpHeader::new(51000, 80, 7, 9, TcpFlags::PSH | TcpFlags::ACK);
        h.options = vec![
            TcpOption::Mss(1460),
            TcpOption::SackPermitted,
            TcpOption::WindowScale(7),
            TcpOption::Timestamps(123, 456),
        ];
        let mut seg = Vec::new();
        h.write_segment_v4(b"GET / HTTP/1.1\r\n", s, d, &mut seg)
            .unwrap();
        let (parsed, off) = TcpHeader::parse(&seg).unwrap();
        assert!(parsed.options.contains(&TcpOption::Mss(1460)));
        assert!(parsed.options.contains(&TcpOption::WindowScale(7)));
        assert!(parsed.options.contains(&TcpOption::SackPermitted));
        assert!(parsed.options.contains(&TcpOption::Timestamps(123, 456)));
        assert_eq!(&seg[off..], b"GET / HTTP/1.1\r\n");
        TcpHeader::verify_checksum_v4(&seg, s, d).unwrap();
    }

    #[test]
    fn corrupted_segment_fails_checksum() {
        let (s, d) = addrs();
        let h = TcpHeader::new(51000, 80, 7, 9, TcpFlags::ACK);
        let mut seg = Vec::new();
        h.write_segment_v4(b"data", s, d, &mut seg).unwrap();
        seg[4] ^= 0xff;
        assert!(TcpHeader::verify_checksum_v4(&seg, s, d).is_err());
    }

    #[test]
    fn rejects_bad_data_offset() {
        let mut seg = vec![0u8; 20];
        seg[12] = 0x40; // data offset 16 bytes < 20
        assert!(matches!(
            TcpHeader::parse(&seg),
            Err(NetError::BadLength { .. })
        ));
    }

    #[test]
    fn rejects_truncated_option() {
        let (s, d) = addrs();
        let mut h = TcpHeader::new(1, 2, 0, 0, TcpFlags::SYN);
        h.options = vec![TcpOption::Mss(1460)];
        let mut seg = Vec::new();
        h.write_segment_v4(&[], s, d, &mut seg).unwrap();
        // Claim the MSS option extends beyond the header.
        seg[21] = 60;
        assert!(matches!(
            TcpHeader::parse(&seg),
            Err(NetError::BadLength { .. })
        ));
    }

    #[test]
    fn v6_segment_roundtrip() {
        let src: Ipv6Addr = "2001:db8::10".parse().unwrap();
        let dst: Ipv6Addr = "2001:4860::1".parse().unwrap();
        let h = TcpHeader::new(50000, 80, 9, 4, TcpFlags::PSH | TcpFlags::ACK);
        let mut seg = Vec::new();
        h.write_segment_v6(b"GET /6 HTTP/1.1\r\n", src, dst, &mut seg)
            .unwrap();
        TcpHeader::verify_checksum_v6(&seg, src, dst).unwrap();
        let (parsed, off) = TcpHeader::parse(&seg).unwrap();
        assert_eq!(parsed.src_port, 50000);
        assert_eq!(&seg[off..], b"GET /6 HTTP/1.1\r\n");
        // Corruption detected.
        seg[off] ^= 1;
        assert!(TcpHeader::verify_checksum_v6(&seg, src, dst).is_err());
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::default().to_string(), "-");
    }

    #[test]
    fn eol_terminates_option_parsing() {
        let (s, d) = addrs();
        let mut h = TcpHeader::new(1, 2, 0, 0, TcpFlags::SYN);
        h.options = vec![TcpOption::WindowScale(2)]; // 3 bytes -> 1 byte EOL pad
        let mut seg = Vec::new();
        h.write_segment_v4(&[], s, d, &mut seg).unwrap();
        let (parsed, _) = TcpHeader::parse(&seg).unwrap();
        assert_eq!(parsed.options, vec![TcpOption::WindowScale(2)]);
    }
}
