//! The DNS Resolver structure — paper Algorithm 1.

use std::net::IpAddr;

use dnhunter_dns::{DnsMessage, DomainName};
use dnhunter_telemetry::{tm_count, tm_gauge, Metric as Tm};

use crate::clist::{CircularList, SlotRef};
use crate::intern::{InternStats, NameInterner};
use crate::maps::{MapOps, OrderedTables, TableFamily};
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

/// The resolver: a bounded replica of every monitored client's DNS cache.
///
/// Generic over the map backend (ordered maps as in the paper, or hash maps
/// as in its footnote 2); see [`crate::maps`].
pub struct DnsResolver<F: TableFamily = OrderedTables> {
    config: ResolverConfig,
    clist: CircularList<DnEntry>,
    clients: F::Client<F::Server<Vec<SlotRef>>>,
    stats: ResolverStats,
    /// FQDN dedup table (§3.2 allocation diet): repeat resolutions of the
    /// same name share one buffer instead of retaining one per response.
    interner: NameInterner,
}

impl<F: TableFamily> DnsResolver<F> {
    /// Build with the given configuration (Clist size per the paper's §6
    /// dimensioning).
    pub fn with_config(config: ResolverConfig) -> Self {
        assert!(
            config.labels_per_server >= 1,
            "labels_per_server must be >= 1"
        );
        DnsResolver {
            clist: CircularList::new(config.clist_size),
            clients: Default::default(),
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

    /// Number of distinct clients currently tracked (outer map of the §3.1
    /// two-level lookup).
    pub fn clients_tracked(&self) -> usize {
        self.clients.len()
    }

    /// The configuration in use (`L` and the §6 multi-label width).
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Heap footprint of the live structure, in bytes — the paper's §6
    /// asks how big `L` can be under real-time constraints; this answers
    /// "what does that cost in memory". Counted from the layout: the Clist
    /// ring, boxed answer lists, each distinct name buffer once (via the
    /// interner), the slot-reference vectors, and the two map levels'
    /// nodes or buckets ([`MapOps::table_bytes`], the one estimated part).
    pub fn memory_estimate(&self) -> usize {
        let mut bytes = self.clist.heap_bytes() + self.interner.heap_bytes();
        for e in self.clist.iter() {
            bytes += e.servers.heap_bytes();
        }
        bytes += self.clients.table_bytes();
        for server_map in self.clients.values() {
            bytes += server_map.table_bytes();
            for refs in server_map.values() {
                bytes += refs.capacity() * std::mem::size_of::<SlotRef>();
            }
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
        if let Some(old) = evicted {
            self.stats.evictions += 1;
            outcome.evicted += 1;
            tm_count!(Tm::ResolverEvictions);
            self.remove_backrefs(&old);
        } else {
            // The push claimed a fresh slot instead of recycling one.
            tm_gauge!(Tm::ClistOccupancy, 1);
        }
        // Link (client, serverIP) → new entry for every answer address
        // (lines 10–21).
        let max_labels = self.config.labels_per_server;
        let clist = &self.clist;
        let stats = &mut self.stats;
        let server_map = self.clients.get_or_default(client);
        for &server in servers {
            stats.bindings += 1;
            outcome.bindings += 1;
            tm_count!(Tm::ResolverBindings);
            let refs = server_map.get_or_default(server);
            // Account replacements against the newest still-valid label.
            if let Some(prev) = refs.iter().rev().find_map(|r| clist.get(*r)) {
                if prev.fqdn == fqdn {
                    stats.replaced_same_fqdn += 1;
                } else {
                    stats.replaced_different_fqdn += 1;
                    outcome.replaced_different += 1;
                    tm_count!(Tm::ResolverConfusion);
                }
            }
            refs.retain(|r| clist.get(*r).is_some());
            refs.push(slot);
            if refs.len() > max_labels {
                let drop_n = refs.len() - max_labels;
                refs.drain(..drop_n);
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
        let server_map = self.clients.get(&client)?;
        let refs = server_map.get(&server)?;
        refs.iter()
            .rev()
            .find_map(|r| self.clist.get(*r))
            .map(|e| e.fqdn.clone())
    }

    /// All still-live labels for the pair, newest first (§6 multi-label
    /// extension). Always at most `labels_per_server` entries.
    pub fn lookup_all(&self, client: IpAddr, server: IpAddr) -> Vec<DomainName> {
        let Some(server_map) = self.clients.get(&client) else {
            return Vec::new();
        };
        let Some(refs) = server_map.get(&server) else {
            return Vec::new();
        };
        refs.iter()
            .rev()
            .filter_map(|r| self.clist.get(*r))
            .map(|e| e.fqdn.clone())
            .collect()
    }

    /// Remove an evicted entry's back-references from the lookup maps.
    fn remove_backrefs(&mut self, old: &DnEntry) {
        let clist = &self.clist;
        let Some(server_map) = self.clients.get_mut(&old.client) else {
            return;
        };
        for server in old.servers.as_slice() {
            let now_empty = if let Some(refs) = server_map.get_mut(server) {
                refs.retain(|r| clist.get(*r).is_some());
                refs.is_empty()
            } else {
                false
            };
            if now_empty {
                server_map.remove(server);
            }
        }
        if server_map.is_empty() {
            self.clients.remove(&old.client);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::HashedTables;
    use std::collections::BTreeMap;

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
        let mut r: DnsResolver = DnsResolver::with_config(ResolverConfig {
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
    fn hashed_backend_behaves_identically() {
        let mut r: DnsResolver<HashedTables> = DnsResolver::with_config(ResolverConfig {
            clist_size: 4,
            labels_per_server: 1,
        });
        let c = ip("10.0.0.1");
        r.insert(c, &fqdn("x.com"), &[ip("9.9.9.9")]);
        assert_eq!(r.lookup(c, ip("9.9.9.9")).unwrap().to_string(), "x.com");
        assert_eq!(r.stats().hit_ratio(), 1.0);
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
    fn memory_estimate_adds_up_from_the_layout() {
        use std::mem::size_of;
        let mut r = resolver(8);
        let name = fqdn("www.example.com");
        let c = ip("10.0.0.1");
        r.insert(c, &name, &[ip("1.1.1.1")]);
        r.insert(c, &name, &[ip("2.2.2.2"), ip("3.3.3.3"), ip("4.4.4.4")]);
        let slot = size_of::<Option<(u64, DnEntry)>>();
        assert_eq!(size_of::<Servers>(), size_of::<Vec<IpAddr>>());
        // One leaf node holds up to 11 entries, whatever it holds.
        let leaf = |value: usize| 2 * size_of::<usize>() + 11 * (size_of::<IpAddr>() + value);
        let refs: usize = r
            .clients
            .values()
            .flat_map(|servers| servers.values())
            .map(|refs| refs.capacity() * size_of::<SlotRef>())
            .sum();
        let want = 8 * slot // the ring, occupied or not
            + 3 * size_of::<IpAddr>() // the one boxed answer list; the single answer is inline
            + r.interner.heap_bytes() // one buffer for the one name, plus the table
            + leaf(size_of::<BTreeMap<IpAddr, Vec<SlotRef>>>()) // 1 client
            + leaf(size_of::<Vec<SlotRef>>()) // its 4 servers
            + refs;
        assert_eq!(r.memory_estimate(), want);
        // Refcounts, "www.example.com", three two-byte label lengths.
        assert_eq!(name.heap_bytes(), 16 + 15 + 6);
        assert!(r.interner.heap_bytes() >= name.heap_bytes() + size_of::<DomainName>());
        // A second resolution of the same name adds no name bytes.
        let before = r.memory_estimate();
        r.insert(ip("10.0.0.1"), &fqdn("www.example.com"), &[ip("1.1.1.1")]);
        assert_eq!(r.memory_estimate(), before);
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
