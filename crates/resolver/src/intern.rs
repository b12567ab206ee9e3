//! FQDN interning — the resolver's hot-path allocation diet.
//!
//! Algorithm 1 (paper §3.1) inserts one Clist entry per sniffed DNS
//! response, and each entry carries the response's FQDN. Popular names
//! (CDN front-ends, trackers, ad servers) recur constantly in real traces.
//! A [`DomainName`] is one refcounted buffer, so the decoder's name could
//! be stored as it is — but then every response would keep its own copy of
//! the same text alive in the Clist. The interner deduplicates: one buffer
//! per live name, handed out again (a refcount bump) for every repeat
//! resolution, while the decoder's duplicate is dropped with its message.
//! That is what keeps resolver state at one name buffer per *distinct*
//! name under the §3.2 real-time constraint. Counters record how many
//! buffers were shared rather than retained, feeding the ingest
//! benchmark's before/after numbers.

use dnhunter_dns::DomainName;

use crate::maps::{hash_table_bytes, FnvHashSet};

/// Interning counters: how often the §3.1 insert path reused a live name
/// versus retaining a new one. `reused` is exactly the number of name
/// buffers the diet kept out of resolver state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Names retained (first sighting, or resighting after pruning).
    pub allocated: u64,
    /// Names served from the intern table (no second buffer retained).
    pub reused: u64,
}

/// Deduplication table for the FQDNs stored in Clist entries (paper §3.1).
///
/// Dead names — evicted from every Clist slot and dropped by every flow
/// row or map key a lookup handed them to, so the table holds the only
/// reference — are pruned lazily when the table doubles past its previous
/// live size, keeping the amortized per-insert cost O(1).
pub struct NameInterner {
    names: FnvHashSet<DomainName>,
    /// Prune when `names.len()` reaches this threshold.
    prune_at: usize,
    stats: InternStats,
}

/// Initial (and minimum) prune threshold.
const MIN_PRUNE_AT: usize = 1024;

impl Default for NameInterner {
    /// A fresh, empty intern table (see the type-level §3.1 rationale).
    fn default() -> Self {
        NameInterner {
            names: FnvHashSet::default(),
            prune_at: MIN_PRUNE_AT,
            stats: InternStats::default(),
        }
    }
}

impl NameInterner {
    /// Fresh interner (one per resolver shard, matching the §3.1.1
    /// share-nothing sharding).
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared copy of `name`: the table's own on a repeat sighting,
    /// a clone of the caller's (a refcount bump, no deep copy) on the
    /// first — Algorithm 1's insert path stores what this returns.
    pub fn intern(&mut self, name: &DomainName) -> DomainName {
        if let Some(existing) = self.names.get(name) {
            self.stats.reused += 1;
            return existing.clone();
        }
        self.stats.allocated += 1;
        if self.names.len() >= self.prune_at {
            self.prune();
        }
        self.names.insert(name.clone());
        name.clone()
    }

    /// Drop names nothing but the table still holds and re-arm the
    /// threshold (lazy garbage collection mirroring the Clist's own
    /// bounded-lifetime design, paper §3.1.1).
    fn prune(&mut self) {
        self.names.retain(|k| k.holders() > 1);
        self.prune_at = (self.names.len() * 2).max(MIN_PRUNE_AT);
    }

    /// Heap bytes of the table itself plus every resident name buffer the
    /// resolver alone keeps alive, each counted once (the §6 memory
    /// question; see [`crate::DnsResolver::memory_estimate`]).
    /// `resolver_refs(name)` is how many holders the resolver has besides
    /// the table; a buffer with more holders than that is also a caller's
    /// input, a flow row's or a report's, and dropping the resolver would
    /// not free it.
    pub fn heap_bytes(&self, resolver_refs: impl Fn(&DomainName) -> usize) -> usize {
        let table = hash_table_bytes(self.names.capacity(), std::mem::size_of::<DomainName>());
        let names = self
            .names
            .iter()
            .filter(|name| name.holders() == 1 + resolver_refs(name))
            .map(DomainName::heap_bytes);
        table + names.sum::<usize>()
    }

    /// Allocation-avoidance counters (the §3.2 real-time argument,
    /// quantified).
    pub fn stats(&self) -> InternStats {
        self.stats
    }

    /// Distinct names currently in the table (live + not-yet-pruned dead).
    /// Bounded by the §3.1.1 Clist budget plus the lazy-prune slack.
    pub fn resident(&self) -> usize {
        self.names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn repeat_interning_reuses_one_buffer() {
        let mut i = NameInterner::new();
        let a = i.intern(&name("www.example.com"));
        let b = i.intern(&name("www.example.com"));
        assert!(a.ptr_eq(&b));
        assert_eq!(i.stats().allocated, 1);
        assert_eq!(i.stats().reused, 1);
        assert_eq!(i.resident(), 1);
    }

    #[test]
    fn distinct_names_allocate() {
        let mut i = NameInterner::new();
        let a = i.intern(&name("a.example.com"));
        let b = i.intern(&name("b.example.com"));
        assert!(!a.ptr_eq(&b));
        assert_eq!(i.stats().allocated, 2);
        assert_eq!(i.stats().reused, 0);
    }

    #[test]
    fn pruning_drops_dead_names_and_keeps_live_ones() {
        let mut i = NameInterner::new();
        let live = i.intern(&name("keep.example.com"));
        for k in 0..MIN_PRUNE_AT {
            // Dropped immediately: dead as soon as the loop iterates.
            let _ = i.intern(&name(&format!("n{k}.example.com")));
        }
        // The threshold crossing pruned the dead names; `live` survives.
        assert!(i.resident() < MIN_PRUNE_AT);
        let again = i.intern(&name("keep.example.com"));
        assert!(live.ptr_eq(&again));
    }
}
