//! Shadow-model checking for [`DnsResolver`].
//!
//! The resolver earns its performance with an easy-to-get-wrong design:
//! a pair index holding bare Clist generations, back-reference removal on
//! eviction, per-pair label caps (paper Algorithm 1 lines 10–25 plus the
//! §6 multi-label extension). This module
//! re-implements the *semantics* with the dumbest structures that can
//! express them — a `VecDeque` standing in for the Clist ring and an
//! ordered map of per-pair id lists — and replays every mutation against
//! both, asserting agreement.
//!
//! [`CheckedResolver`] wraps a real resolver plus the shadow model. Its
//! mutation and query methods forward to both and compare results; the
//! whole-state [`CheckedResolver::verify`] cross-checks occupancy, client
//! tracking, and counter conservation. The comparisons are compiled only
//! under `debug_assertions`, so release binaries pay nothing; the proptest
//! suites (`tests/properties.rs`) drive randomized workloads through it.

use std::collections::{BTreeMap, VecDeque};
use std::net::IpAddr;

use dnhunter_dns::DomainName;

use crate::resolver::{DnsResolver, InsertOutcome, ResolverConfig};

/// One live binding in the shadow ring.
#[derive(Debug, Clone)]
struct ShadowEntry {
    id: u64,
    client: IpAddr,
    fqdn: DomainName,
}

/// The naive replica of the paper's §3.1 circular-list resolver: a FIFO
/// `VecDeque` for the Clist and per-pair insert-id lists for the lookup
/// maps. Entry ids are the insert sequence number;
/// because eviction is strictly FIFO, the live ids always form a contiguous
/// range, making liveness a single comparison.
#[derive(Debug, Clone)]
pub struct ShadowModel {
    capacity: usize,
    labels_per_server: usize,
    entries: VecDeque<ShadowEntry>,
    next_id: u64,
    /// `(client, server)` → ids of inserts bound to the pair, oldest first,
    /// replaying the resolver's cull-push-cap maintenance.
    pairs: BTreeMap<(IpAddr, IpAddr), VecDeque<u64>>,
    pub responses: u64,
    pub evictions: u64,
}

impl ShadowModel {
    /// An empty model mirroring `config` (capacity = the paper's §4.2 `L`).
    pub fn new(config: &ResolverConfig) -> Self {
        ShadowModel {
            capacity: config.clist_size.max(1),
            labels_per_server: config.labels_per_server,
            entries: VecDeque::new(),
            next_id: 0,
            pairs: BTreeMap::new(),
            responses: 0,
            evictions: 0,
        }
    }

    fn is_live(&self, id: u64) -> bool {
        self.entries.front().is_some_and(|f| id >= f.id)
    }

    fn entry(&self, id: u64) -> Option<&ShadowEntry> {
        let front = self.entries.front()?.id;
        self.entries
            .get(usize::try_from(id.checked_sub(front)?).ok()?)
    }

    /// Mirror of [`DnsResolver::insert`] — the paper's §3.1 update step.
    pub fn insert(&mut self, client: IpAddr, fqdn: &DomainName, servers: &[IpAddr]) {
        self.responses += 1;
        if servers.is_empty() {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.evictions += 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.entries.push_back(ShadowEntry {
            id,
            client,
            fqdn: fqdn.clone(),
        });
        for &server in servers {
            let refs = self.pairs.entry((client, server)).or_default();
            let live_front = self.entries.front().map(|f| f.id).unwrap_or(0);
            refs.retain(|&r| r >= live_front);
            refs.push_back(id);
            while refs.len() > self.labels_per_server {
                refs.pop_front();
            }
        }
    }

    /// Mirror of [`DnsResolver::peek`] — the paper's §3.1 most-recent-binding
    /// rule, without touching hit counters.
    pub fn peek(&self, client: IpAddr, server: IpAddr) -> Option<DomainName> {
        let refs = self.pairs.get(&(client, server))?;
        refs.iter()
            .rev()
            .find(|&&r| self.is_live(r))
            .and_then(|&r| self.entry(r))
            .map(|e| e.fqdn.clone())
    }

    /// Mirror of [`DnsResolver::lookup_all`] — the paper's §4.1 multi-label
    /// view, newest first.
    pub fn lookup_all(&self, client: IpAddr, server: IpAddr) -> Vec<DomainName> {
        let Some(refs) = self.pairs.get(&(client, server)) else {
            return Vec::new();
        };
        refs.iter()
            .rev()
            .filter(|&&r| self.is_live(r))
            .filter_map(|&r| self.entry(r))
            .map(|e| e.fqdn.clone())
            .collect()
    }

    /// Live occupancy (the resolver's `len`; bounded by the paper's §4.2 `L`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True before any effective insert (answerless responses don't count,
    /// §3.1).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Distinct `(client, server)` pairs whose newest binding is still
    /// live (the resolver's `pairs_tracked`: the §3.1 index must hold
    /// exactly these, no key outliving its last Clist entry).
    pub fn live_pairs(&self) -> usize {
        self.pairs
            .values()
            .filter(|ids| ids.back().is_some_and(|&id| self.is_live(id)))
            .count()
    }

    /// Distinct clients among live entries (the resolver's
    /// `clients_tracked`, by the eager-backref-cleanup argument in
    /// `resolver::remove_backrefs`) — the per-client map population of the
    /// paper's §3.1 data structure.
    pub fn clients_tracked(&self) -> usize {
        let mut clients: Vec<IpAddr> = self.entries.iter().map(|e| e.client).collect();
        clients.sort_unstable();
        clients.dedup();
        clients.len()
    }
}

/// A [`DnsResolver`] that checks itself against a [`ShadowModel`] on every
/// operation (debug builds only — under `--release` it degrades to plain
/// forwarding). This is the machine-checked form of the paper's §3.1
/// resolver semantics.
pub struct CheckedResolver {
    real: DnsResolver,
    shadow: ShadowModel,
}

impl CheckedResolver {
    /// Build both the real resolver and its shadow from one config
    /// (capacity = the paper's §4.2 `L`).
    pub fn with_config(config: ResolverConfig) -> Self {
        CheckedResolver {
            shadow: ShadowModel::new(&config),
            real: DnsResolver::with_config(config),
        }
    }

    /// The wrapped resolver (the paper's §3.1 engine), for read-only
    /// inspection.
    pub fn real(&self) -> &DnsResolver {
        &self.real
    }

    /// The shadow model (naive replica of §3.1), for read-only inspection.
    pub fn shadow(&self) -> &ShadowModel {
        &self.shadow
    }

    /// Insert through both (§3.1 update step), then (debug builds)
    /// cross-check global state.
    pub fn insert(
        &mut self,
        client: IpAddr,
        fqdn: &DomainName,
        servers: &[IpAddr],
    ) -> InsertOutcome {
        let outcome = self.real.insert(client, fqdn, servers);
        self.shadow.insert(client, fqdn, servers);
        #[cfg(debug_assertions)]
        self.verify();
        outcome
    }

    /// Lookup through both (§3.1, counting hits); panics (debug builds) on
    /// disagreement.
    pub fn lookup(&mut self, client: IpAddr, server: IpAddr) -> Option<DomainName> {
        let got = self.real.lookup(client, server);
        #[cfg(debug_assertions)]
        {
            let want = self.shadow.peek(client, server);
            assert_eq!(
                got, want,
                "lookup({client}, {server}) diverged from the shadow model"
            );
        }
        got
    }

    /// Peek through both (§3.1 most-recent-binding rule); panics (debug
    /// builds) on disagreement.
    pub fn peek(&self, client: IpAddr, server: IpAddr) -> Option<DomainName> {
        let got = self.real.peek(client, server);
        #[cfg(debug_assertions)]
        {
            let want = self.shadow.peek(client, server);
            assert_eq!(
                got, want,
                "peek({client}, {server}) diverged from the shadow model"
            );
        }
        got
    }

    /// Multi-label lookup through both (§4.1 view); panics (debug builds) on
    /// disagreement.
    pub fn lookup_all(&self, client: IpAddr, server: IpAddr) -> Vec<DomainName> {
        let got = self.real.lookup_all(client, server);
        #[cfg(debug_assertions)]
        {
            let want = self.shadow.lookup_all(client, server);
            assert_eq!(
                got, want,
                "lookup_all({client}, {server}) diverged from the shadow model"
            );
        }
        got
    }

    /// Cross-check the whole-state invariants:
    ///
    /// * occupancy agrees and never exceeds the configured `L` (§4.2);
    /// * the tracked clients and `(client, server)` pairs agree (the index
    ///   holds no ghosts);
    /// * counter conservation — `responses` and `evictions` agree, and
    ///   occupancy equals effective inserts minus evictions.
    pub fn verify(&self) {
        let stats = self.real.stats();
        assert_eq!(
            self.real.len(),
            self.shadow.len(),
            "occupancy diverged from the shadow model"
        );
        assert!(
            self.real.len() <= self.real.capacity(),
            "occupancy {} exceeds capacity {}",
            self.real.len(),
            self.real.capacity()
        );
        assert_eq!(
            self.real.clients_tracked(),
            self.shadow.clients_tracked(),
            "tracked-client count diverged from the shadow model"
        );
        assert_eq!(
            self.real.pairs_tracked(),
            self.shadow.live_pairs(),
            "the index holds a pair the shadow model does not (or misses one)"
        );
        assert_eq!(stats.responses, self.shadow.responses, "responses diverged");
        assert_eq!(stats.evictions, self.shadow.evictions, "evictions diverged");
        assert_eq!(
            self.shadow.next_id,
            self.shadow.evictions + self.shadow.len() as u64,
            "shadow id accounting broken: inserts != evictions + live"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn tiny_config() -> ResolverConfig {
        ResolverConfig {
            clist_size: 4,
            labels_per_server: 2,
        }
    }

    #[test]
    fn checked_resolver_accepts_a_wraparound_workload() {
        let mut r: CheckedResolver = CheckedResolver::with_config(tiny_config());
        for i in 0..20u8 {
            let client = ip(&format!("10.0.0.{}", 1 + i % 3));
            r.insert(
                client,
                &name(&format!("n{i}.example.com")),
                &[ip("23.0.0.9")],
            );
            r.lookup(client, ip("23.0.0.9"));
            let _ = r.lookup_all(client, ip("23.0.0.9"));
        }
        r.verify();
        assert_eq!(r.real().stats().responses, 20);
    }

    #[test]
    fn answerless_inserts_count_but_do_not_occupy() {
        let mut r: CheckedResolver = CheckedResolver::with_config(tiny_config());
        r.insert(ip("10.0.0.1"), &name("empty.example.com"), &[]);
        r.verify();
        assert_eq!(r.real().stats().responses, 1);
        assert_eq!(r.real().len(), 0);
        assert!(r.shadow().is_empty());
    }
}
