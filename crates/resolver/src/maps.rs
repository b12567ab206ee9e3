//! Pluggable map backends for the two-level lookup tables.
//!
//! The paper implements the tables as C++ ordered `map`s, noting
//! ("Unordered maps, i.e., hash tables, can be used as well to further
//! reduce the computational costs") — footnote 2. Both backends are
//! provided; `bench/resolver_maps` quantifies the difference.
//!
//! The hashed backend deliberately avoids the standard library's default
//! SipHash hasher: SipHash buys DoS resistance the per-packet path does not
//! need (keys are IP addresses already constrained by the monitored
//! network), at roughly 2–3× the hashing cost of [`FnvHasher`] on short
//! keys. Lint L2 (`cargo xtask lint`) enforces that per-packet code uses
//! [`FnvHashMap`] / [`TableFamily`] rather than a bare `HashMap`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::net::IpAddr;

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

/// Minimal map operations the resolver needs (paper Algorithm 1's INSERT
/// and LOOKUP touch the tables only through these).
pub trait MapOps<K, V>: Default {
    fn get(&self, k: &K) -> Option<&V>;
    fn get_mut(&mut self, k: &K) -> Option<&mut V>;
    fn insert(&mut self, k: K, v: V) -> Option<V>;
    fn remove(&mut self, k: &K) -> Option<V>;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The entry the key maps to, inserting `V::default()` first if absent.
    /// Lets Algorithm 1's INSERT stay panic-free (lint L1): no
    /// `get_mut(...).expect(...)` after an insert.
    fn get_or_default(&mut self, k: K) -> &mut V
    where
        V: Default;
    /// Every value, in the backend's own order — for walking the §3.1
    /// structure when sizing it, never for output.
    fn values<'a>(&'a self) -> impl Iterator<Item = &'a V>
    where
        V: 'a;
    /// Estimated heap bytes of the map's own nodes or buckets (not what
    /// its values own) — the paper's §6 memory question, per map.
    fn table_bytes(&self) -> usize;
}

/// Heap bytes of a `BTreeMap<K, V>` holding `len` entries. The standard
/// library's nodes have room for 11 entries (plus 12 edges when internal)
/// whatever they hold, so a 3-entry map costs a whole leaf — the dominant
/// term for the paper's per-client server maps (Fig. 2). Nodes past the
/// first are taken as 8/11 full, between half full after a split and full.
fn btree_bytes<K, V>(len: usize) -> usize {
    const NODE_ENTRIES: usize = 11;
    const TYPICAL_FILL: usize = 8;
    let leaf = 2 * size_of::<usize>() + NODE_ENTRIES * (size_of::<K>() + size_of::<V>());
    let internal = leaf + (NODE_ENTRIES + 1) * size_of::<usize>();
    let nodes_for = |n: usize, fits: usize, fill: usize| match n {
        0 => 0,
        n if n <= fits => 1,
        n => n.div_ceil(fill),
    };
    let mut level = nodes_for(len, NODE_ENTRIES, TYPICAL_FILL);
    let mut bytes = level * leaf;
    while level > 1 {
        level = nodes_for(level, NODE_ENTRIES + 1, TYPICAL_FILL + 1);
        bytes += level * internal;
    }
    bytes
}

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

impl<K: Ord, V> MapOps<K, V> for BTreeMap<K, V> {
    fn get(&self, k: &K) -> Option<&V> {
        BTreeMap::get(self, k)
    }
    fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        BTreeMap::get_mut(self, k)
    }
    fn insert(&mut self, k: K, v: V) -> Option<V> {
        BTreeMap::insert(self, k, v)
    }
    fn remove(&mut self, k: &K) -> Option<V> {
        BTreeMap::remove(self, k)
    }
    fn len(&self) -> usize {
        BTreeMap::len(self)
    }
    fn get_or_default(&mut self, k: K) -> &mut V
    where
        V: Default,
    {
        self.entry(k).or_default()
    }
    fn values<'a>(&'a self) -> impl Iterator<Item = &'a V>
    where
        V: 'a,
    {
        BTreeMap::values(self)
    }
    fn table_bytes(&self) -> usize {
        btree_bytes::<K, V>(self.len())
    }
}

impl<K: Eq + Hash, V, S: BuildHasher + Default> MapOps<K, V> for HashMap<K, V, S> {
    fn get(&self, k: &K) -> Option<&V> {
        HashMap::get(self, k)
    }
    fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        HashMap::get_mut(self, k)
    }
    fn insert(&mut self, k: K, v: V) -> Option<V> {
        HashMap::insert(self, k, v)
    }
    fn remove(&mut self, k: &K) -> Option<V> {
        HashMap::remove(self, k)
    }
    fn len(&self) -> usize {
        HashMap::len(self)
    }
    fn get_or_default(&mut self, k: K) -> &mut V
    where
        V: Default,
    {
        self.entry(k).or_default()
    }
    fn values<'a>(&'a self) -> impl Iterator<Item = &'a V>
    where
        V: 'a,
    {
        HashMap::values(self)
    }
    fn table_bytes(&self) -> usize {
        hash_table_bytes(self.capacity(), size_of::<(K, V)>())
    }
}

/// Chooses the concrete map types for both levels of the paper's
/// clientIP → serverIP → FQDN lookup structure (Fig. 2).
pub trait TableFamily {
    /// clientIP → server table.
    type Client<V>: MapOps<IpAddr, V>;
    /// serverIP → entry references.
    type Server<V>: MapOps<IpAddr, V>;

    /// Human-readable backend name (for benches/reports).
    const NAME: &'static str;
}

/// Ordered maps — the paper's primary implementation
/// (O(log N_C) + O(log N_S(c)) lookups).
#[derive(Debug, Default, Clone, Copy)]
pub struct OrderedTables;

impl TableFamily for OrderedTables {
    type Client<V> = BTreeMap<IpAddr, V>;
    type Server<V> = BTreeMap<IpAddr, V>;
    const NAME: &'static str = "ordered (BTreeMap)";
}

/// Hash maps — the paper's footnote-2 alternative, FNV-keyed (see module
/// doc).
#[derive(Debug, Default, Clone, Copy)]
pub struct HashedTables;

impl TableFamily for HashedTables {
    type Client<V> = FnvHashMap<IpAddr, V>;
    type Server<V> = FnvHashMap<IpAddr, V>;
    const NAME: &'static str = "hashed (FNV HashMap)";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<M: MapOps<IpAddr, u32>>() {
        let mut m = M::default();
        let a: IpAddr = "10.0.0.1".parse().unwrap();
        let b: IpAddr = "10.0.0.2".parse().unwrap();
        assert!(m.is_empty());
        assert_eq!(m.insert(a, 1), None);
        assert_eq!(m.insert(a, 2), Some(1));
        m.insert(b, 3);
        assert_eq!(m.len(), 2);
        *m.get_mut(&a).unwrap() += 10;
        assert_eq!(m.get(&a), Some(&12));
        assert_eq!(m.remove(&b), Some(3));
        assert_eq!(m.remove(&b), None);
        assert_eq!(m.len(), 1);
        assert_eq!(*m.get_or_default(b), 0);
        *m.get_or_default(b) += 5;
        assert_eq!(m.get(&b), Some(&5));
    }

    #[test]
    fn btreemap_backend() {
        exercise::<BTreeMap<IpAddr, u32>>();
    }

    #[test]
    fn hashmap_backend() {
        exercise::<FnvHashMap<IpAddr, u32>>();
    }

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
    fn family_names() {
        assert!(OrderedTables::NAME.contains("ordered"));
        assert!(HashedTables::NAME.contains("FNV"));
    }
}
