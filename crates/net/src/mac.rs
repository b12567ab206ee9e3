//! 48-bit IEEE 802 MAC addresses.

use std::fmt;
use std::str::FromStr;

/// A 48-bit Ethernet hardware address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address, used as a placeholder by the simulator.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Build from the six octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8) -> Self {
        MacAddr([a, b, c, d, e, f])
    }

    /// True if the group bit (least significant bit of first octet) is set.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True for the all-ones broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// True if the locally-administered bit is set.
    pub fn is_local(&self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// Raw octets.
    pub fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Deterministically derive a locally-administered unicast MAC from an
    /// integer id. Used by the simulator to give every host a stable MAC.
    pub fn from_id(id: u64) -> Self {
        let b = id.to_be_bytes();
        // 0x02 prefix = locally administered, unicast.
        MacAddr([0x02, b[3], b[4], b[5], b[6], b[7]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl FromStr for MacAddr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 6 {
            return Err(format!(
                "expected 6 colon-separated octets, got {}",
                parts.len()
            ));
        }
        let mut out = [0u8; 6];
        for (i, (o, p)) in out.iter_mut().zip(&parts).enumerate() {
            *o = u8::from_str_radix(p, 16).map_err(|e| format!("octet {i}: {e}"))?;
        }
        Ok(MacAddr(out))
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrip() {
        let m = MacAddr::new(0x02, 0xab, 0x00, 0x10, 0xff, 0x7e);
        let s = m.to_string();
        assert_eq!(s, "02:ab:00:10:ff:7e");
        assert_eq!(s.parse::<MacAddr>().unwrap(), m);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("02:ab:00:10:ff".parse::<MacAddr>().is_err());
        assert!("02:ab:00:10:ff:zz".parse::<MacAddr>().is_err());
        assert!("not a mac".parse::<MacAddr>().is_err());
    }

    #[test]
    fn classification_bits() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::new(0x02, 0, 0, 0, 0, 1).is_multicast());
        assert!(MacAddr::new(0x02, 0, 0, 0, 0, 1).is_local());
        assert!(MacAddr::new(0x01, 0, 0x5e, 0, 0, 1).is_multicast());
    }

    #[test]
    fn from_id_is_stable_and_unicast() {
        let a = MacAddr::from_id(42);
        let b = MacAddr::from_id(42);
        let c = MacAddr::from_id(43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_multicast());
        assert!(a.is_local());
    }
}
