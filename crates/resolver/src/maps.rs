//! The hash tables of the per-packet path.
//!
//! The paper implements its lookup tables as C++ ordered `map`s, noting
//! ("Unordered maps, i.e., hash tables, can be used as well to further
//! reduce the computational costs") — footnote 2. The resolver's
//! `(client, server)` index, the FQDN intern table and the flow tables are
//! all hash tables keyed through [`FnvHasher`].
//!
//! They deliberately avoid the standard library's default SipHash hasher:
//! SipHash buys DoS resistance the per-packet path does not need (keys are
//! IP addresses already constrained by the monitored network), at roughly
//! 2–3× the hashing cost of [`FnvHasher`] on short keys. Lint L2
//! (`cargo xtask lint`) enforces that per-packet code uses [`FnvHashMap`]
//! rather than a bare `HashMap`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// FNV-1a, the classic fast non-cryptographic hash for short keys
/// (paper §3.1.1's per-packet lookup path hashes 4–16 byte IP addresses),
/// finished with one avalanche round so the low bits — the ones `HashMap`
/// turns into bucket indices — are uniformly mixed (see
/// [`Hasher::finish`] below for the measurement that motivated it).
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        // FNV-1a's byte loop only propagates entropy upward (each step is
        // xor-into-the-low-byte then multiply), so the *low* bits of the
        // raw state mix poorly across multi-byte keys — and hashbrown
        // derives the bucket index from exactly those low bits. On flow
        // 5-tuples this clusters badly enough to dominate the sniffer's
        // per-packet cost (3.2x end-to-end on the eu1-adsl1 trace when
        // first measured). One xor-shift-multiply avalanche round
        // (Murmur3's fmix64 first half) restores uniform low bits while
        // keeping the hash deterministic and seed-free.
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// `BuildHasher` handing out [`FnvHasher`]s; the third `HashMap` type
/// parameter that satisfies lint L2 (paper footnote 2's hash-table option).
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

impl BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

/// A `HashMap` keyed by FNV-1a — the map type per-packet code should reach
/// for instead of the SipHash default (lint L2, paper footnote 2).
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` keyed by FNV-1a, for the same reason as [`FnvHashMap`]
/// (lint L2, paper footnote 2).
pub type FnvHashSet<K> = HashSet<K, FnvBuildHasher>;

/// Heap bytes of a hashbrown table with room for `capacity` entries of
/// `entry` bytes (paper footnote 2's backend): a power-of-two bucket
/// array at most 7/8 full, one control byte per bucket plus one group.
pub(crate) fn hash_table_bytes(capacity: usize, entry: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = (capacity * 8).div_ceil(7).next_power_of_two().max(4);
    buckets * (entry + 1) + 16
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `finish()` = avalanche(raw FNV-1a state): check the raw accumulator
    /// against the classic FNV-1a reference vectors, through the finalizer.
    fn fmix(mut x: u64) -> u64 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a reference: empty input → offset basis; "a" → 0xaf63dc4c8601ec8c.
        let mut h = FnvHasher::default();
        assert_eq!(h.finish(), fmix(FNV_OFFSET));
        h.write(b"a");
        assert_eq!(h.finish(), fmix(0xaf63_dc4c_8601_ec8c));
        let mut h2 = FnvHasher::default();
        h2.write(b"foobar");
        assert_eq!(h2.finish(), fmix(0x8594_4171_f739_67e8));
    }

    #[test]
    fn finish_low_bits_avalanche() {
        // The reason for the finalizer: raw FNV-1a low bits barely move
        // between near-identical short keys (hashbrown's bucket index comes
        // from the low bits), while finished values must differ there.
        let mut a = FnvHasher::default();
        a.write(&[1, 0, 0, 0]);
        let mut b = FnvHasher::default();
        b.write(&[2, 0, 0, 0]);
        let low_a = a.finish() & 0xffff;
        let low_b = b.finish() & 0xffff;
        assert_ne!(low_a, low_b);
    }

    #[test]
    fn table_bytes_follow_the_bucket_array() {
        assert_eq!(hash_table_bytes(0, 42), 0);
        // 7 entries fill 8 buckets to the 7/8 limit; the 8th doubles them.
        assert_eq!(hash_table_bytes(7, 42), 8 * 43 + 16);
        assert_eq!(hash_table_bytes(8, 42), 16 * 43 + 16);
        let mut m: FnvHashMap<u64, u64> = FnvHashMap::default();
        m.extend((0..1000).map(|k| (k, k)));
        assert_eq!(hash_table_bytes(m.capacity(), 16), 2048 * 17 + 16);
    }
}
