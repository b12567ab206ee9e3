//! CIDR prefixes over v4 and v6 addresses.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// An IP prefix (`10.0.0.0/8`, `2001:db8::/32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    addr: IpAddr,
    len: u8,
}

impl Prefix {
    /// Build a prefix, canonicalising the address (host bits cleared).
    /// Returns `None` if `len` exceeds the address width.
    pub fn new(addr: IpAddr, len: u8) -> Option<Prefix> {
        let max = match addr {
            IpAddr::V4(_) => 32,
            IpAddr::V6(_) => 128,
        };
        if len > max {
            return None;
        }
        Some(Prefix {
            addr: mask_addr(addr, len),
            len,
        })
    }

    /// The canonical network address.
    pub fn network(&self) -> IpAddr {
        self.addr
    }

    /// Prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True for the zero-length (match-everything) prefix of this family.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `ip` (same family) falls inside this prefix.
    pub fn contains(&self, ip: IpAddr) -> bool {
        match (self.addr, ip) {
            (IpAddr::V4(_), IpAddr::V4(_)) | (IpAddr::V6(_), IpAddr::V6(_)) => {
                mask_addr(ip, self.len) == self.addr
            }
            _ => false,
        }
    }

    /// The `n`-th host address inside a v4 prefix (wraps within the prefix).
    /// Handy for the simulator's deterministic address allocation.
    pub fn v4_host(&self, n: u32) -> Option<Ipv4Addr> {
        match self.addr {
            IpAddr::V4(net) => {
                let size = 1u64 << (32 - self.len);
                let base = u32::from(net);
                let off = (u64::from(n) % size) as u32;
                Some(Ipv4Addr::from(base + off))
            }
            IpAddr::V6(_) => None,
        }
    }
}

fn mask_addr(addr: IpAddr, len: u8) -> IpAddr {
    match addr {
        IpAddr::V4(a) => {
            let bits = u32::from(a);
            let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
            IpAddr::V4(Ipv4Addr::from(bits & mask))
        }
        IpAddr::V6(a) => {
            let bits = u128::from(a);
            let mask = if len == 0 {
                0
            } else {
                u128::MAX << (128 - len)
            };
            IpAddr::V6(Ipv6Addr::from(bits & mask))
        }
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Prefix {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| format!("'{s}': missing '/'"))?;
        let addr: IpAddr = addr_s.parse().map_err(|e| format!("'{addr_s}': {e}"))?;
        let len: u8 = len_s.parse().map_err(|e| format!("'{len_s}': {e}"))?;
        Prefix::new(addr, len).ok_or_else(|| format!("'{s}': prefix length out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        assert_eq!(p("10.0.0.0/8").to_string(), "10.0.0.0/8");
        assert_eq!(p("2001:db8::/32").to_string(), "2001:db8::/32");
    }

    #[test]
    fn canonicalises_host_bits() {
        assert_eq!(p("10.1.2.3/8").to_string(), "10.0.0.0/8");
        assert_eq!(p("2001:db8:1::1/32").to_string(), "2001:db8::/32");
    }

    #[test]
    fn containment_v4() {
        let pre = p("192.168.0.0/16");
        assert!(pre.contains("192.168.255.1".parse().unwrap()));
        assert!(!pre.contains("192.169.0.1".parse().unwrap()));
        assert!(!pre.contains("2001:db8::1".parse().unwrap())); // family mismatch
    }

    #[test]
    fn containment_v6_and_zero_len() {
        let pre = p("2001:db8::/32");
        assert!(pre.contains("2001:db8:ffff::1".parse().unwrap()));
        assert!(!pre.contains("2001:db9::1".parse().unwrap()));
        let all4 = p("0.0.0.0/0");
        assert!(all4.contains("8.8.8.8".parse().unwrap()));
        assert!(all4.is_empty());
    }

    #[test]
    fn rejects_overlong_prefix() {
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("::/129".parse::<Prefix>().is_err());
        assert!("10.0.0.0".parse::<Prefix>().is_err());
    }

    #[test]
    fn v4_host_allocation() {
        let pre = p("203.0.113.0/24");
        assert_eq!(pre.v4_host(0), Some(Ipv4Addr::new(203, 0, 113, 0)));
        assert_eq!(pre.v4_host(7), Some(Ipv4Addr::new(203, 0, 113, 7)));
        // Wraps modulo the prefix size.
        assert_eq!(pre.v4_host(256), Some(Ipv4Addr::new(203, 0, 113, 0)));
        assert_eq!(p("2001:db8::/32").v4_host(1), None);
    }
}
