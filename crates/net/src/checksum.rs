//! The Internet checksum (RFC 1071) and the TCP/UDP pseudo-header variants.

use std::net::{Ipv4Addr, Ipv6Addr};

/// Incremental ones-complement sum accumulator.
///
/// Fold 16-bit big-endian words into a 32-bit accumulator; [`Checksum::finish`]
/// folds the carries and complements the result.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Checksum { sum: 0 }
    }

    /// Add a byte slice. An odd trailing byte is padded with a zero octet, as
    /// required by RFC 1071.
    pub fn add_bytes(&mut self, data: &[u8]) {
        let (pairs, rest) = data.as_chunks::<2>();
        for &c in pairs {
            self.sum += u32::from(u16::from_be_bytes(c));
        }
        if let [last] = rest {
            self.sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Add a single big-endian 16-bit word.
    pub fn add_u16(&mut self, word: u16) {
        self.sum += u32::from(word);
    }

    /// Add a 32-bit value as two 16-bit words.
    pub fn add_u32(&mut self, word: u32) {
        self.add_u16((word >> 16) as u16);
        self.add_u16((word & 0xffff) as u16);
    }

    /// Fold carries and return the ones-complement of the sum.
    pub fn finish(self) -> u16 {
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// One-shot checksum over a byte slice (e.g. an IPv4 header with its checksum
/// field zeroed).
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// Checksum for UDP/TCP over IPv4: pseudo-header (src, dst, zero, protocol,
/// length) plus the transport header and payload.
pub fn pseudo_header_checksum_v4(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: u8,
    segment: &[u8],
) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(&src.octets());
    c.add_bytes(&dst.octets());
    c.add_u16(u16::from(protocol));
    c.add_u16(segment.len() as u16);
    c.add_bytes(segment);
    c.finish()
}

/// Checksum for UDP/TCP over IPv6 (RFC 8200 §8.1).
pub fn pseudo_header_checksum_v6(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    protocol: u8,
    segment: &[u8],
) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(&src.octets());
    c.add_bytes(&dst.octets());
    c.add_u32(segment.len() as u32);
    c.add_u32(u32::from(protocol));
    c.add_bytes(segment);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Worked example from RFC 1071 §3: the data {00 01, f2 03, f4 f5, f6 f7}
    // sums to ddf2 before complement.
    #[test]
    fn rfc1071_example() {
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let mut c = Checksum::new();
        c.add_bytes(&data);
        assert_eq!(c.finish(), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // [ab] is treated as the word ab00.
        let mut odd = Checksum::new();
        odd.add_bytes(&[0xab]);
        let mut even = Checksum::new();
        even.add_bytes(&[0xab, 0x00]);
        assert_eq!(odd.finish(), even.finish());
    }

    #[test]
    fn checksum_of_zeroes_is_ffff() {
        assert_eq!(internet_checksum(&[0u8; 20]), 0xffff);
    }

    #[test]
    fn verifying_a_packet_with_its_checksum_yields_zero() {
        // Build a pretend header, compute the checksum, insert it, re-sum: 0.
        let mut header = vec![0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06];
        header.extend_from_slice(&[0x00, 0x00]); // checksum slot
        header.extend_from_slice(&[10, 0, 0, 1, 192, 168, 0, 1]);
        let ck = internet_checksum(&header);
        header[10..12].copy_from_slice(&ck.to_be_bytes());
        // Re-checksumming a correct packet gives zero.
        assert_eq!(internet_checksum(&header), 0);
    }

    #[test]
    fn pseudo_header_v4_detects_corruption() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(192, 0, 2, 10);
        let mut seg = vec![0u8; 16];
        seg[0..2].copy_from_slice(&4321u16.to_be_bytes());
        seg[2..4].copy_from_slice(&53u16.to_be_bytes());
        let ck = pseudo_header_checksum_v4(src, dst, 17, &seg);
        seg[6..8].copy_from_slice(&ck.to_be_bytes());
        // Valid: sums to zero.
        assert_eq!(pseudo_header_checksum_v4(src, dst, 17, &seg), 0);
        // Flip a payload byte: no longer zero.
        seg[12] ^= 0xff;
        assert_ne!(pseudo_header_checksum_v4(src, dst, 17, &seg), 0);
    }

    #[test]
    fn pseudo_header_v6_roundtrip() {
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let mut seg = vec![0u8; 12];
        let ck = pseudo_header_checksum_v6(src, dst, 6, &seg);
        seg[6..8].copy_from_slice(&ck.to_be_bytes()); // not the real TCP slot; sum property holds anyway
        assert_eq!(pseudo_header_checksum_v6(src, dst, 6, &seg), 0);
    }

    #[test]
    fn add_u32_equals_two_u16() {
        let mut a = Checksum::new();
        a.add_u32(0xdead_beef);
        let mut b = Checksum::new();
        b.add_u16(0xdead);
        b.add_u16(0xbeef);
        assert_eq!(a.finish(), b.finish());
    }
}
