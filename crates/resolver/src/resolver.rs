//! The DNS Resolver structure — paper Algorithm 1.

use std::mem::size_of;
use std::net::IpAddr;

use dnhunter_dns::{DnsMessage, DomainName};
use dnhunter_telemetry::{tm_count, tm_gauge, Metric as Tm};

use crate::clist::CircularList;
use crate::intern::{InternStats, NameInterner};
use crate::maps::{FnvHashMap, FnvHashSet, PairMap};
use crate::stats::ResolverStats;

/// Configuration of a [`DnsResolver`] (the paper's §3.1 engine).
#[derive(Debug, Clone, Copy)]
pub struct ResolverConfig {
    /// Clist capacity `L` — bounds entry lifetime (paper §6: a well-chosen
    /// `L` emulates ~1 h of client-side caching).
    pub clist_size: usize,
    /// How many recent distinct FQDN labels to retain per
    /// `(clientIP, serverIP)` pair. `1` reproduces Algorithm 1 exactly
    /// (last-writer-wins); larger values implement the §6 extension
    /// "DN-Hunter could easily be extended to return all possible labels".
    pub labels_per_server: usize,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            clist_size: 1 << 20,
            labels_per_server: 1,
        }
    }
}

/// What one [`DnsResolver::insert`] (Algorithm 1) actually did — the
/// provenance the flight recorder's resolver events are built from
/// (which insert bound entries, whether it recycled a Clist slot,
/// whether it overwrote a different name). Counts, not booleans: one response can bind several
/// server addresses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertOutcome {
    /// `(client, server) → FQDN` bindings created (Algorithm 1 lines 10–21).
    pub bindings: u64,
    /// Clist slots recycled by this insert (lines 22–25); 0 or 1.
    pub evicted: u64,
    /// Bindings that replaced a still-live entry carrying a *different*
    /// FQDN — the paper's label-confusion signal.
    pub replaced_different: u64,
}

/// One Clist entry: the FQDN of a sniffed response, plus the keys needed to
/// remove its back-references when the FIFO recycles the slot
/// (Algorithm 1 lines 23–25).
#[derive(Debug, Clone)]
struct DnEntry {
    fqdn: DomainName,
    client: IpAddr,
    servers: Servers,
}

/// The answer list of one Clist entry. Most responses carry one address,
/// which lives inline; only longer lists own a heap block (sized exactly,
/// and the enum is no larger than the `Vec` it replaces).
#[derive(Debug, Clone)]
enum Servers {
    One(IpAddr),
    Many(Box<[IpAddr]>),
}

impl Servers {
    fn new(servers: &[IpAddr]) -> Self {
        match servers {
            [one] => Servers::One(*one),
            many => Servers::Many(many.into()),
        }
    }

    fn as_slice(&self) -> &[IpAddr] {
        match self {
            Servers::One(one) => std::slice::from_ref(one),
            Servers::Many(many) => many,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Servers::One(_) => 0,
            Servers::Many(many) => std::mem::size_of_val(&**many),
        }
    }
}

/// A Clist generation stored unaligned, so that a wide index bucket is
/// 34 + 8 = 42 bytes rather than the 48 a `u64` would pad it to (a packed
/// IPv4 bucket is 8 + 8 = 16 either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Gen([u8; 8]);

impl Gen {
    fn new(generation: u64) -> Self {
        Gen(generation.to_le_bytes())
    }

    fn get(self) -> u64 {
        u64::from_le_bytes(self.0)
    }
}

/// The resolver: a bounded replica of every monitored client's DNS cache.
///
/// The paper's Fig. 2 reaches a Clist entry through two levels of ordered
/// maps; this is its footnote 2 taken one step further — one hash map
/// keyed by the `(client, server)` pair ([`PairMap`]: 16-byte buckets for
/// an all-IPv4 pair, 42 with an IPv6 side) whose value is the Clist
/// generation of the pair's newest binding. The generation is the whole
/// reference: [`CircularList::push`] advances slot and generation in
/// lock-step, and because eviction is FIFO an older binding of a pair
/// never outlives a newer one, so a key is dropped exactly when the
/// binding it names is recycled.
pub struct DnsResolver {
    config: ResolverConfig,
    clist: CircularList<DnEntry>,
    /// `(client, server)` → generation of the pair's newest binding. Every
    /// key names a live Clist entry.
    pairs: PairMap<Gen>,
    /// §6 multi-label history: generations of a pair's bindings older than
    /// the one in `pairs`, oldest first, at most `labels_per_server - 1`.
    /// Never touched when `labels_per_server` is 1.
    older: PairMap<Vec<u64>>,
    stats: ResolverStats,
    /// FQDN dedup table (§3.2 allocation diet): repeat resolutions of the
    /// same name share one buffer instead of retaining one per response.
    interner: NameInterner,
}

impl DnsResolver {
    /// Build with the given configuration (Clist size per the paper's §6
    /// dimensioning).
    pub fn with_config(config: ResolverConfig) -> Self {
        assert!(
            config.labels_per_server >= 1,
            "labels_per_server must be >= 1"
        );
        DnsResolver {
            clist: CircularList::new(config.clist_size),
            pairs: PairMap::default(),
            older: PairMap::default(),
            config,
            stats: ResolverStats::default(),
            interner: NameInterner::new(),
        }
    }

    /// Build with a Clist of `l` entries and paper-exact single labels.
    pub fn new(l: usize) -> Self {
        Self::with_config(ResolverConfig {
            clist_size: l,
            ..ResolverConfig::default()
        })
    }

    /// Counters feeding the paper's §6 efficiency numbers.
    pub fn stats(&self) -> &ResolverStats {
        &self.stats
    }

    /// FQDN-interning counters (allocations avoided on the §3.1 insert
    /// path). Kept out of [`ResolverStats`] on purpose: per-shard distinct
    /// name counts differ from a global resolver's, and the merged parallel
    /// report must stay byte-identical to the sequential one.
    pub fn intern_stats(&self) -> InternStats {
        self.interner.stats()
    }

    /// Occupied Clist entries (bounded by the §4.2/§6 `L`).
    pub fn len(&self) -> usize {
        self.clist.len()
    }

    /// Clist capacity `L` (paper §3.1.1: the Clist bounds entry lifetime,
    /// so `L` is the resolver's total binding budget).
    pub fn capacity(&self) -> usize {
        self.clist.capacity()
    }

    /// True before any insert (fresh §3.1 replica).
    pub fn is_empty(&self) -> bool {
        self.clist.is_empty()
    }

    /// Number of distinct clients with a live binding (the outer level of
    /// the paper's Fig. 2 lookup). Counted on demand over the pair index's
    /// keys: nothing on the per-packet path needs it.
    pub fn clients_tracked(&self) -> usize {
        let clients: FnvHashSet<IpAddr> = self.pairs.keys().map(|(client, _)| client).collect();
        clients.len()
    }

    /// Number of distinct `(client, server)` pairs with a live binding —
    /// the population of the Fig. 2 lookup structure.
    pub fn pairs_tracked(&self) -> usize {
        self.pairs.len()
    }

    /// The configuration in use (`L` and the §6 multi-label width).
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Heap footprint of the live structure, in bytes — the paper's §6
    /// asks how big `L` can be under real-time constraints; this answers
    /// "what does that cost in memory". Counted from the layout: the Clist
    /// ring, boxed answer lists, the intern table and each name buffer
    /// nothing but the resolver holds (once, however many entries share
    /// it), and the buckets of both halves of the pair index and
    /// (multi-label mode only) of the history with its vectors. So it is
    /// what dropping the resolver would free.
    pub fn memory_estimate(&self) -> usize {
        let mut bytes = self.clist.heap_bytes();
        let mut entries_per_name: FnvHashMap<&DomainName, usize> = FnvHashMap::default();
        for e in self.clist.iter() {
            bytes += e.servers.heap_bytes();
            *entries_per_name.entry(&e.fqdn).or_default() += 1;
        }
        bytes += self
            .interner
            .heap_bytes(|name| entries_per_name.get(name).copied().unwrap_or(0));
        bytes += self.pairs.heap_bytes() + self.older.heap_bytes();
        for gens in self.older.values() {
            bytes += gens.capacity() * size_of::<u64>();
        }
        bytes
    }

    /// INSERT (Algorithm 1, lines 1–25): record that `client` resolved
    /// `fqdn` to the addresses in `servers`. Returns what the insert did
    /// so callers can trace provenance without re-deriving it from stats
    /// deltas.
    pub fn insert(
        &mut self,
        client: IpAddr,
        fqdn: &DomainName,
        servers: &[IpAddr],
    ) -> InsertOutcome {
        let mut outcome = InsertOutcome::default();
        self.stats.responses += 1;
        if servers.is_empty() {
            return outcome;
        }
        let fqdn = self.interner.intern(fqdn);
        let entry = DnEntry {
            fqdn: fqdn.clone(),
            client,
            servers: Servers::new(servers),
        };
        // Insert into the circular array, possibly recycling a slot
        // (lines 22–25: delete the evicted entry's back-references).
        let (slot, evicted) = self.clist.push(entry);
        let generation = slot.generation;
        if let Some(old) = evicted {
            self.stats.evictions += 1;
            outcome.evicted += 1;
            tm_count!(Tm::ResolverEvictions);
            // A recycled slot held the entry pushed one lap earlier.
            self.remove_backrefs(&old, generation - self.clist.capacity() as u64);
        } else {
            // The push claimed a fresh slot instead of recycling one.
            tm_gauge!(Tm::ClistOccupancy, 1);
        }
        // Link (client, serverIP) → new entry for every answer address
        // (lines 10–21).
        for &server in servers {
            self.stats.bindings += 1;
            outcome.bindings += 1;
            tm_count!(Tm::ResolverBindings);
            let Some(prev) = self.pairs.insert(client, server, Gen::new(generation)) else {
                continue;
            };
            // Account the replacement against the label it displaces
            // (live, or `remove_backrefs` would have dropped the key).
            if let Some(displaced) = self.clist.at(prev.get()) {
                if displaced.fqdn == fqdn {
                    self.stats.replaced_same_fqdn += 1;
                } else {
                    self.stats.replaced_different_fqdn += 1;
                    outcome.replaced_different += 1;
                    tm_count!(Tm::ResolverConfusion);
                }
            }
            if self.config.labels_per_server > 1 {
                self.remember_older(client, server, prev.get(), generation);
            }
        }
        outcome
    }

    /// Convenience: insert straight from a decoded DNS response addressed to
    /// `client` — the paper's §3.1 sniffing path. Non-responses and
    /// answerless responses are counted but add no bindings.
    pub fn insert_response(&mut self, client: IpAddr, response: &DnsMessage) -> InsertOutcome {
        if !response.header.is_response {
            return InsertOutcome::default();
        }
        let Some(name) = response.queried_fqdn() else {
            self.stats.responses += 1;
            return InsertOutcome::default();
        };
        let servers = response.answer_addresses();
        self.insert(client, name, &servers)
    }

    /// LOOKUP (Algorithm 1, lines 27–34): the FQDN `client` most recently
    /// resolved for `server`.
    pub fn lookup(&mut self, client: IpAddr, server: IpAddr) -> Option<DomainName> {
        self.stats.lookups += 1;
        tm_count!(Tm::ResolverLookups);
        let found = self.peek(client, server);
        if found.is_some() {
            self.stats.hits += 1;
            tm_count!(Tm::ResolverHits);
        }
        found
    }

    /// [`DnsResolver::lookup`] (Algorithm 1 lines 27–34) without touching
    /// the statistics.
    pub fn peek(&self, client: IpAddr, server: IpAddr) -> Option<DomainName> {
        let newest = self.pairs.get(client, server)?;
        self.clist.at(newest.get()).map(|e| e.fqdn.clone())
    }

    /// All still-live labels for the pair, newest first (§6 multi-label
    /// extension). Always at most `labels_per_server` entries.
    pub fn lookup_all(&self, client: IpAddr, server: IpAddr) -> Vec<DomainName> {
        let Some(newest) = self.pairs.get(client, server) else {
            return Vec::new();
        };
        let older = self
            .older
            .get(client, server)
            .map(Vec::as_slice)
            .unwrap_or_default();
        std::iter::once(newest.get())
            .chain(older.iter().rev().copied())
            .filter_map(|generation| self.clist.at(generation))
            .map(|e| e.fqdn.clone())
            .collect()
    }

    /// Multi-label mode only: `prev` stopped being the pair's newest
    /// binding when `newest` was pushed. Keep it behind the index entry,
    /// shedding what the Clist has recycled and then the oldest beyond
    /// the configured width.
    fn remember_older(&mut self, client: IpAddr, server: IpAddr, prev: u64, newest: u64) {
        let lap = self.clist.capacity() as u64;
        let gens = self.older.get_or_insert_default(client, server);
        gens.push(prev);
        gens.retain(|&g| g + lap > newest);
        let keep = self.config.labels_per_server - 1;
        if gens.len() > keep {
            gens.drain(..gens.len() - keep);
        }
    }

    /// Remove an evicted entry's back-references from the index: every
    /// pair still naming `generation`, along with its history (older
    /// still, so recycled already). A pair rebound since then names a
    /// newer entry and stays.
    fn remove_backrefs(&mut self, old: &DnEntry, generation: u64) {
        let stale = Gen::new(generation);
        for &server in old.servers.as_slice() {
            let removed = self
                .pairs
                .remove_if(old.client, server, |&newest| newest == stale);
            if removed.is_some() && self.config.labels_per_server > 1 {
                self.older.remove(old.client, server);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn fqdn(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn resolver(l: usize) -> DnsResolver {
        DnsResolver::new(l)
    }

    #[test]
    fn basic_insert_lookup() {
        let mut r = resolver(16);
        r.insert(
            ip("10.0.0.1"),
            &fqdn("itunes.apple.com"),
            &[ip("213.254.17.14"), ip("213.254.17.17")],
        );
        assert_eq!(
            r.lookup(ip("10.0.0.1"), ip("213.254.17.14"))
                .unwrap()
                .to_string(),
            "itunes.apple.com"
        );
        assert_eq!(
            r.lookup(ip("10.0.0.1"), ip("213.254.17.17"))
                .unwrap()
                .to_string(),
            "itunes.apple.com"
        );
        // Another client never resolved this name.
        assert!(r.lookup(ip("10.0.0.2"), ip("213.254.17.14")).is_none());
        assert_eq!(r.stats().lookups, 3);
        assert_eq!(r.stats().hits, 2);
        assert_eq!(r.stats().bindings, 2);
    }

    #[test]
    fn last_writer_wins_per_pair() {
        let mut r = resolver(16);
        let c = ip("10.0.0.1");
        let s = ip("23.9.9.9");
        r.insert(c, &fqdn("a.example.com"), &[s]);
        r.insert(c, &fqdn("b.example.com"), &[s]);
        assert_eq!(r.lookup(c, s).unwrap().to_string(), "b.example.com");
        assert_eq!(r.stats().replaced_different_fqdn, 1);
        assert_eq!(r.stats().replaced_same_fqdn, 0);
    }

    #[test]
    fn repeated_resolution_counts_as_same_fqdn() {
        let mut r = resolver(16);
        let c = ip("10.0.0.1");
        let s = ip("23.9.9.9");
        r.insert(c, &fqdn("x.example.com"), &[s]);
        r.insert(c, &fqdn("x.example.com"), &[s]);
        assert_eq!(r.stats().replaced_same_fqdn, 1);
        assert_eq!(r.stats().confusion_ratio(), 0.0);
    }

    #[test]
    fn fifo_eviction_limits_lifetime() {
        let mut r = resolver(2);
        let c = ip("10.0.0.1");
        r.insert(c, &fqdn("one.example.com"), &[ip("1.1.1.1")]);
        r.insert(c, &fqdn("two.example.com"), &[ip("2.2.2.2")]);
        r.insert(c, &fqdn("three.example.com"), &[ip("3.3.3.3")]);
        // "one" was evicted by the FIFO.
        assert!(r.lookup(c, ip("1.1.1.1")).is_none());
        assert!(r.lookup(c, ip("2.2.2.2")).is_some());
        assert!(r.lookup(c, ip("3.3.3.3")).is_some());
        assert_eq!(r.stats().evictions, 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn eviction_cleans_up_empty_clients() {
        let mut r = resolver(1);
        r.insert(ip("10.0.0.1"), &fqdn("a.com"), &[ip("1.1.1.1")]);
        assert_eq!(r.clients_tracked(), 1);
        r.insert(ip("10.0.0.2"), &fqdn("b.com"), &[ip("2.2.2.2")]);
        // Client 1's only entry was evicted; its tables are gone.
        assert_eq!(r.clients_tracked(), 1);
        assert!(r.peek(ip("10.0.0.1"), ip("1.1.1.1")).is_none());
    }

    #[test]
    fn per_client_isolation() {
        let mut r = resolver(16);
        let s = ip("23.0.0.5");
        r.insert(ip("10.0.0.1"), &fqdn("alpha.example.com"), &[s]);
        r.insert(ip("10.0.0.2"), &fqdn("beta.example.com"), &[s]);
        assert_eq!(
            r.peek(ip("10.0.0.1"), s).unwrap().to_string(),
            "alpha.example.com"
        );
        assert_eq!(
            r.peek(ip("10.0.0.2"), s).unwrap().to_string(),
            "beta.example.com"
        );
    }

    #[test]
    fn multilabel_mode_retains_history() {
        let mut r = DnsResolver::with_config(ResolverConfig {
            clist_size: 16,
            labels_per_server: 3,
        });
        let c = ip("10.0.0.1");
        let s = ip("23.9.9.9");
        for name in ["a.com", "b.com", "c.com", "d.com"] {
            r.insert(c, &fqdn(name), &[s]);
        }
        let all: Vec<String> = r.lookup_all(c, s).iter().map(|f| f.to_string()).collect();
        assert_eq!(all, vec!["d.com", "c.com", "b.com"]);
        // Single-label lookup still returns the newest.
        assert_eq!(r.peek(c, s).unwrap().to_string(), "d.com");
    }

    #[test]
    fn insert_response_wires_through() {
        use dnhunter_dns::{QClass, QType, RData, ResourceRecord};
        let q = DnsMessage::query(1, fqdn("data.flurry.com"), QType::A);
        let resp = DnsMessage::answer_to(
            &q,
            vec![ResourceRecord {
                name: fqdn("data.flurry.com"),
                class: QClass::In,
                ttl: 60,
                rdata: RData::A("216.74.41.8".parse().unwrap()),
            }],
        );
        let mut r = resolver(16);
        r.insert_response(ip("10.0.0.9"), &resp);
        assert_eq!(
            r.peek(ip("10.0.0.9"), ip("216.74.41.8"))
                .unwrap()
                .to_string(),
            "data.flurry.com"
        );
        // Queries are ignored.
        r.insert_response(ip("10.0.0.9"), &q);
        assert_eq!(r.stats().responses, 1);
    }

    #[test]
    fn empty_answer_lists_add_nothing() {
        let mut r = resolver(4);
        r.insert(ip("10.0.0.1"), &fqdn("nxdomain.example.com"), &[]);
        assert_eq!(r.stats().responses, 1);
        assert_eq!(r.stats().bindings, 0);
        assert!(r.is_empty());
    }

    #[test]
    fn one_name_from_many_clients_is_one_buffer() {
        let mut r = resolver(64);
        let s = ip("93.184.216.34");
        let clients: Vec<IpAddr> = (1..=20).map(|c| ip(&format!("10.0.0.{c}"))).collect();
        for &c in &clients {
            // A fresh buffer per response, as the decoder hands them over.
            r.insert(c, &fqdn("www.example.com"), &[s]);
        }
        assert_eq!(r.interner.resident(), 1);
        assert_eq!(r.intern_stats().allocated, 1);
        assert_eq!(r.intern_stats().reused, 19);
        let first = r.peek(clients[0], s).unwrap();
        assert!(r.clist.iter().all(|e| e.fqdn.ptr_eq(&first)));
        assert!(clients
            .iter()
            .all(|&c| r.lookup(c, s).unwrap().ptr_eq(&first)));
        // The table, 20 Clist entries, `first`: the buffer is counted once
        // however many hold it.
        assert_eq!(first.holders(), 22);
    }

    #[test]
    fn index_buckets_are_sixteen_and_forty_two_bytes() {
        // A packed IPv4 pair and a generation; two 17-byte addresses and
        // an unaligned generation for a pair with an IPv6 side.
        assert_eq!(PairMap::<Gen>::V4_BUCKET, 16);
        assert_eq!(PairMap::<Gen>::WIDE_BUCKET, 42);
        assert_eq!(size_of::<Servers>(), size_of::<Vec<IpAddr>>());
    }

    /// A hashbrown table: a power-of-two bucket array, a control byte per
    /// bucket and one trailing group of 16.
    fn table(buckets: usize, bucket: usize) -> usize {
        buckets * (bucket + 1) + 16
    }

    #[test]
    fn memory_estimate_adds_up_from_the_layout() {
        let mut r = resolver(8);
        let name = fqdn("www.example.com");
        let c = ip("10.0.0.1");
        r.insert(c, &name, &[ip("1.1.1.1")]);
        r.insert(
            c,
            &name,
            &[
                ip("2.2.2.2"),
                ip("3.3.3.3"),
                ip("4.4.4.4"),
                ip("2001:db8::4"),
            ],
        );
        let slot = size_of::<Option<(u64, DnEntry)>>();
        let layout = 8 * slot // the ring, occupied or not
            + 4 * size_of::<IpAddr>() // the one boxed answer list; the single answer is inline
            + table(4, size_of::<DomainName>()) // the intern table, holding one name
            + table(8, 16) // 4 IPv4 pairs: past the 3 that 4 buckets hold
            + table(4, 42); // 1 pair with an IPv6 side; single-label mode keeps no history
                            // While the caller still holds the name's buffer it is the caller's.
        assert_eq!(r.memory_estimate(), layout);
        // Refcounts, "www.example.com", three two-byte label lengths.
        let name_bytes = name.heap_bytes();
        assert_eq!(name_bytes, 16 + 15 + 6);
        // Once the resolver alone holds it, it is counted, once for both
        // entries.
        drop(name);
        assert_eq!(r.memory_estimate(), layout + name_bytes);
        // A second resolution of the same name to known addresses adds
        // neither name bytes nor an index bucket.
        r.insert(c, &fqdn("www.example.com"), &[ip("1.1.1.1")]);
        r.insert(c, &fqdn("www.example.com"), &[ip("2001:db8::4")]);
        assert_eq!(r.memory_estimate(), layout + name_bytes);
    }

    #[test]
    fn memory_estimate_counts_multilabel_history() {
        let mut r = DnsResolver::with_config(ResolverConfig {
            clist_size: 8,
            labels_per_server: 3,
        });
        let (c, s4, s6) = (ip("10.0.0.1"), ip("23.9.9.9"), ip("2001:db8::9"));
        r.insert(c, &fqdn("a.com"), &[s4, s6]);
        let single = r.memory_estimate();
        // The first rebinding opens each pair's history: one table group
        // per family, and the vectors behind them (beside the new entry's
        // boxed answer list).
        r.insert(c, &fqdn("a.com"), &[s4, s6]);
        let history = r.older.values().map(Vec::capacity).sum::<usize>() * size_of::<u64>();
        assert!(history >= 2 * size_of::<u64>());
        assert_eq!(
            r.memory_estimate(),
            single
                + 2 * size_of::<IpAddr>()
                + table(4, PairMap::<Vec<u64>>::V4_BUCKET)
                + table(4, PairMap::<Vec<u64>>::WIDE_BUCKET)
                + history
        );
    }

    #[test]
    fn eviction_keeps_a_rebound_pair_and_drops_its_history() {
        let mut r = DnsResolver::with_config(ResolverConfig {
            clist_size: 2,
            labels_per_server: 2,
        });
        let (c, s) = (ip("10.0.0.1"), ip("23.9.9.9"));
        r.insert(c, &fqdn("a.com"), &[s]);
        r.insert(c, &fqdn("b.com"), &[s]);
        assert_eq!(r.lookup_all(c, s), vec![fqdn("b.com"), fqdn("a.com")]);
        // Recycling a.com's slot leaves the pair with b.com: the newer
        // binding outlives the older one.
        r.insert(c, &fqdn("other.com"), &[ip("1.1.1.1")]);
        assert_eq!(r.lookup_all(c, s), vec![fqdn("b.com")]);
        assert_eq!(r.pairs_tracked(), 2);
        // Recycling b.com's slot ends the pair, history and all.
        r.insert(c, &fqdn("last.com"), &[ip("2.2.2.2")]);
        assert!(r.lookup_all(c, s).is_empty());
        assert_eq!(r.pairs_tracked(), 2);
        assert!(r.older.is_empty());
        assert_eq!(r.clients_tracked(), 1);
    }

    #[test]
    fn duplicate_servers_in_answer() {
        let mut r = resolver(8);
        let c = ip("10.0.0.1");
        let s = ip("5.5.5.5");
        r.insert(c, &fqdn("dup.example.com"), &[s, s]);
        assert_eq!(r.peek(c, s).unwrap().to_string(), "dup.example.com");
        // Second binding for the same pair in the same insert counts as a
        // same-FQDN replacement.
        assert_eq!(r.stats().replaced_same_fqdn, 1);
    }
}
