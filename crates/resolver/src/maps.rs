//! The hash tables of the per-packet path.
//!
//! The paper implements its lookup tables as C++ ordered `map`s, noting
//! ("Unordered maps, i.e., hash tables, can be used as well to further
//! reduce the computational costs") — footnote 2. The resolver's
//! `(client, server)` index, the FQDN intern table and the flow tables are
//! all hash tables keyed through
//! [`FnvHasher`](crate::maps::FnvHasher); every map keyed by a
//! `(client, server)` address pair is a
//! [`PairMap`](crate::maps::PairMap).
//!
//! They deliberately avoid the standard library's default SipHash hasher:
//! SipHash buys DoS resistance the per-packet path does not need (keys are
//! IP addresses already constrained by the monitored network), at roughly
//! 2–3× the hashing cost of FNV-1a on short keys. The root
//! `clippy.toml` disallows the bare std `HashMap` and `HashSet`, so code
//! reaches for [`FnvHashMap`](crate::maps::FnvHashMap) and
//! [`FnvHashSet`](crate::maps::FnvHashSet); these aliases are the one
//! place that names the std types.

use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, Hash, Hasher};
use std::mem::size_of;
use std::net::{IpAddr, Ipv4Addr};

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
/// parameter of the FNV aliases (paper footnote 2's hash-table option).
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

impl BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

/// A `HashMap` keyed by FNV-1a — the map type per-packet code should reach
/// for instead of the SipHash default (paper footnote 2).
#[expect(
    clippy::disallowed_types,
    reason = "the FNV alias is the one sanctioned spelling of the std map"
)]
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` keyed by FNV-1a, for the same reason as [`FnvHashMap`]
/// (paper footnote 2).
#[expect(
    clippy::disallowed_types,
    reason = "the FNV alias is the one sanctioned spelling of the std set"
)]
pub type FnvHashSet<K> = std::collections::HashSet<K, FnvBuildHasher>;

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

/// Key of [`PairMap`]'s wide table: a monitored client and a server
/// address, at least one of them IPv6. Two 17-byte `IpAddr`s, alignment 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pair {
    client: IpAddr,
    server: IpAddr,
}

impl Hash for Pair {
    /// The address octets and nothing else (the derived impl would feed
    /// FNV discriminants and array length prefixes too). Byte streams of
    /// different family mixes may coincide; that is a collision `Eq`
    /// settles, not an equality.
    fn hash<H: Hasher>(&self, state: &mut H) {
        for ip in [self.client, self.server] {
            match ip {
                IpAddr::V4(a) => state.write(&a.octets()),
                IpAddr::V6(a) => state.write(&a.octets()),
            }
        }
    }
}

/// The packed key of an all-IPv4 pair: `client << 32 | server`.
fn pack(client: Ipv4Addr, server: Ipv4Addr) -> u64 {
    u64::from(u32::from(client)) << 32 | u64::from(u32::from(server))
}

/// A hash map keyed by a `(client, server)` address pair — the shape of
/// the paper's Fig. 2 lookup and of every other per-binding table.
///
/// On the traces this system is sized for nearly every pair is two IPv4
/// addresses, 8 bytes of key, yet a `(IpAddr, IpAddr)` key costs 34. So
/// the map is two tables behind one `match` on the address families: a
/// pair whose sides are both IPv4 is keyed by one `u64`
/// (`client << 32 | server`), and any pair with an IPv6 side — an
/// IPv4-mapped IPv6 address included, which stays distinct from the IPv4
/// address it maps — by the wide `Pair`. A pair lives in exactly one
/// table, so every operation is one probe.
#[derive(Debug)]
pub struct PairMap<V> {
    v4: FnvHashMap<u64, V>,
    wide: FnvHashMap<Pair, V>,
}

impl<V> Default for PairMap<V> {
    fn default() -> Self {
        PairMap {
            v4: FnvHashMap::default(),
            wide: FnvHashMap::default(),
        }
    }
}

/// Remove `key` from `map` if `matches` accepts its value.
fn remove_if_in<K: Hash + Eq, V>(
    map: &mut FnvHashMap<K, V>,
    key: K,
    matches: impl FnOnce(&V) -> bool,
) -> Option<V> {
    match map.entry(key) {
        Entry::Occupied(e) if matches(e.get()) => Some(e.remove()),
        _ => None,
    }
}

impl<V> PairMap<V> {
    /// Bytes of one bucket of the packed all-IPv4 table (the §6 memory
    /// question, per binding).
    pub const V4_BUCKET: usize = size_of::<(u64, V)>();
    /// Bytes of one bucket of the wide table, pairs with an IPv6 side
    /// (the §6 memory question, per binding).
    pub const WIDE_BUCKET: usize = size_of::<(Pair, V)>();

    /// The value stored for the pair (the Fig. 2 lookup, one probe).
    pub fn get(&self, client: IpAddr, server: IpAddr) -> Option<&V> {
        match (client, server) {
            (IpAddr::V4(c), IpAddr::V4(s)) => self.v4.get(&pack(c, s)),
            _ => self.wide.get(&Pair { client, server }),
        }
    }

    /// Store `value` for the pair, returning the value it displaces
    /// (Algorithm 1's per-answer link step).
    pub fn insert(&mut self, client: IpAddr, server: IpAddr, value: V) -> Option<V> {
        match (client, server) {
            (IpAddr::V4(c), IpAddr::V4(s)) => self.v4.insert(pack(c, s), value),
            _ => self.wide.insert(Pair { client, server }, value),
        }
    }

    /// The pair's value, inserting `V::default()` first if it has none
    /// (Algorithm 1's insert, for values that accumulate).
    pub fn get_or_insert_default(&mut self, client: IpAddr, server: IpAddr) -> &mut V
    where
        V: Default,
    {
        match (client, server) {
            (IpAddr::V4(c), IpAddr::V4(s)) => self.v4.entry(pack(c, s)).or_default(),
            _ => self.wide.entry(Pair { client, server }).or_default(),
        }
    }

    /// Remove the pair, returning its value (Algorithm 1 lines 23–25).
    pub fn remove(&mut self, client: IpAddr, server: IpAddr) -> Option<V> {
        match (client, server) {
            (IpAddr::V4(c), IpAddr::V4(s)) => self.v4.remove(&pack(c, s)),
            _ => self.wide.remove(&Pair { client, server }),
        }
    }

    /// Remove the pair only if `matches` accepts its value, in one probe,
    /// returning the removed value — Algorithm 1 lines 23–25, where an
    /// evicted entry's back-reference goes only if nothing newer replaced it.
    pub fn remove_if(
        &mut self,
        client: IpAddr,
        server: IpAddr,
        matches: impl FnOnce(&V) -> bool,
    ) -> Option<V> {
        match (client, server) {
            (IpAddr::V4(c), IpAddr::V4(s)) => remove_if_in(&mut self.v4, pack(c, s), matches),
            _ => remove_if_in(&mut self.wide, Pair { client, server }, matches),
        }
    }

    /// Number of pairs stored (the Fig. 2 structure's population).
    pub fn len(&self) -> usize {
        self.v4.len() + self.wide.len()
    }

    /// True when no pair is stored (a fresh §3.1 replica).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove every pair from both tables, keeping their allocations
    /// (daemon-mode rotation; DN-Hunter's bounded-state path).
    pub fn clear(&mut self) {
        self.v4.clear();
        self.wide.clear();
    }

    /// Every stored `(client, server)` pair, in no particular order (the
    /// Fig. 2 keys; callers must not let the order reach an output).
    pub fn keys(&self) -> impl Iterator<Item = (IpAddr, IpAddr)> + '_ {
        let v4 = self.v4.keys().map(|&k| {
            let (c, s) = ((k >> 32) as u32, k as u32);
            (IpAddr::V4(c.into()), IpAddr::V4(s.into()))
        });
        v4.chain(self.wide.keys().map(|p| (p.client, p.server)))
    }

    /// Every stored value, in no particular order (the §6 memory sum).
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.v4.values().chain(self.wide.values())
    }

    /// Heap bytes of both bucket arrays (the §6 memory question; see
    /// `hash_table_bytes`). What the values own on the heap is the
    /// caller's to add.
    pub fn heap_bytes(&self) -> usize {
        hash_table_bytes(self.v4.capacity(), Self::V4_BUCKET)
            + hash_table_bytes(self.wide.capacity(), Self::WIDE_BUCKET)
    }

    #[cfg(test)]
    fn table_lens(&self) -> (usize, usize) {
        (self.v4.len(), self.wide.len())
    }
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

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn pairs_split_by_address_family() {
        let (a4, b4) = (ip("10.0.0.1"), ip("23.9.9.9"));
        let (a6, b6) = (ip("2001:db8::1"), ip("2001:db8::2"));
        let mut m = PairMap::default();
        m.insert(a4, b4, 1);
        assert_eq!(m.table_lens(), (1, 0));
        m.insert(a4, b6, 2);
        m.insert(a6, b4, 3);
        m.insert(a6, b6, 4);
        assert_eq!(m.table_lens(), (1, 3));
        assert_eq!(m.len(), 4);
        for (c, s, v) in [(a4, b4, 1), (a4, b6, 2), (a6, b4, 3), (a6, b6, 4)] {
            assert_eq!(m.get(c, s), Some(&v));
        }
        let mut keys: Vec<_> = m.keys().collect();
        keys.sort();
        assert_eq!(keys, [(a4, b4), (a4, b6), (a6, b4), (a6, b6)]);
        // The packed key is the two addresses, client first.
        assert_eq!(
            pack("10.0.0.1".parse().unwrap(), "23.9.9.9".parse().unwrap()),
            0x0a00_0001_1709_0909
        );
    }

    #[test]
    fn a_pair_is_ordered() {
        let (a, b) = (ip("10.0.0.1"), ip("10.0.0.2"));
        let (a6, b6) = (ip("2001:db8::1"), ip("2001:db8::2"));
        let mut m = PairMap::default();
        m.insert(a, b, 1);
        m.insert(a6, b6, 1);
        assert_eq!(m.get(b, a), None);
        assert_eq!(m.get(b6, a6), None);
        m.insert(b, a, 2);
        m.insert(b6, a6, 2);
        assert_eq!((m.get(a, b), m.get(b, a)), (Some(&1), Some(&2)));
        assert_eq!((m.get(a6, b6), m.get(b6, a6)), (Some(&1), Some(&2)));
        assert_eq!(m.table_lens(), (2, 2));
    }

    #[test]
    fn an_ipv4_mapped_address_is_not_the_ipv4_address() {
        let (v4, mapped, server) = (ip("10.0.0.1"), ip("::ffff:10.0.0.1"), ip("23.9.9.9"));
        let mut m = PairMap::default();
        m.insert(v4, server, 4);
        assert_eq!(m.get(mapped, server), None);
        assert_eq!(m.get(server, mapped), None);
        m.insert(mapped, server, 6);
        m.insert(server, mapped, 7);
        assert_eq!(m.table_lens(), (1, 2));
        assert_eq!(m.get(v4, server), Some(&4));
        assert_eq!(m.get(mapped, server), Some(&6));
        assert_eq!(m.remove(v4, server), Some(4));
        assert_eq!(m.get(mapped, server), Some(&6));
    }

    #[test]
    fn remove_if_removes_only_a_matching_value() {
        let (c4, s4, s6) = (ip("10.0.0.1"), ip("23.9.9.9"), ip("2001:db8::9"));
        let mut m = PairMap::default();
        for s in [s4, s6] {
            m.insert(c4, s, 7u64);
            assert_eq!(m.remove_if(c4, s, |&v| v == 6), None);
            assert_eq!(m.get(c4, s), Some(&7));
            assert_eq!(m.remove_if(c4, s, |&v| v == 7), Some(7));
            assert_eq!(m.get(c4, s), None);
            // An absent pair is never offered to the predicate.
            assert_eq!(m.remove_if(c4, s, |_| unreachable!()), None);
        }
        assert!(m.is_empty());
    }

    #[test]
    fn clear_empties_both_tables_and_keeps_their_buckets() {
        let mut m: PairMap<Vec<u64>> = PairMap::default();
        m.get_or_insert_default(ip("10.0.0.1"), ip("23.9.9.9"))
            .push(1);
        m.get_or_insert_default(ip("10.0.0.1"), ip("23.9.9.9"))
            .push(2);
        m.get_or_insert_default(ip("2001:db8::1"), ip("23.9.9.9"))
            .push(3);
        assert_eq!(m.get(ip("10.0.0.1"), ip("23.9.9.9")), Some(&vec![1, 2]));
        assert_eq!(m.values().map(Vec::len).sum::<usize>(), 3);
        let bytes = m.heap_bytes();
        assert_eq!(
            bytes,
            4 * (PairMap::<Vec<u64>>::V4_BUCKET + 1)
                + 16
                + 4 * (PairMap::<Vec<u64>>::WIDE_BUCKET + 1)
                + 16
        );
        m.clear();
        assert_eq!(m.table_lens(), (0, 0));
        assert!(m.is_empty() && m.keys().next().is_none());
        assert_eq!(m.heap_bytes(), bytes);
    }

    #[test]
    fn bucket_sizes() {
        // A packed IPv4 key beside an 8-byte value; the wide key is two
        // 17-byte addresses, alignment 1, padded only by the value.
        assert_eq!(PairMap::<[u8; 8]>::V4_BUCKET, 16);
        assert_eq!(PairMap::<[u8; 8]>::WIDE_BUCKET, 42);
        assert_eq!(PairMap::<usize>::V4_BUCKET, 16);
        assert_eq!(PairMap::<usize>::WIDE_BUCKET, 48);
    }
}
