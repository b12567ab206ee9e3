//! Property-based tests for the DNS Resolver (Algorithm 1 invariants).

use dnhunter_dns::DomainName;
use dnhunter_resolver::clist::{CircularList, SlotRef};
use dnhunter_resolver::{CheckedResolver, DnsResolver, ResolverConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

#[derive(Debug, Clone)]
struct Op {
    client: u8,
    server: u8,
    fqdn: u8,
}

fn client_ip(c: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(10, 0, 0, c))
}
fn server_ip(s: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(23, 0, 0, s))
}
fn fqdn(f: u8) -> DomainName {
    format!("name{f}.example.com").parse().expect("valid")
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..6, 0u8..10, 0u8..20).prop_map(|(client, server, fqdn)| Op {
            client,
            server,
            fqdn,
        }),
        0..200,
    )
}

proptest! {
    /// With a Clist big enough to never evict, a lookup always returns the
    /// most recent insert for the (client, server) pair — exactly the
    /// paper's last-writer-wins semantics.
    #[test]
    fn lookup_returns_latest_binding(ops in arb_ops()) {
        let mut resolver: DnsResolver = DnsResolver::new(1024);
        let mut model: HashMap<(u8, u8), u8> = HashMap::new();
        for op in &ops {
            resolver.insert(client_ip(op.client), &fqdn(op.fqdn), &[server_ip(op.server)]);
            model.insert((op.client, op.server), op.fqdn);
        }
        for ((c, s), f) in model {
            let got = resolver.peek(client_ip(c), server_ip(s));
            prop_assert_eq!(got, Some(fqdn(f)));
        }
    }

    /// The Clist occupancy never exceeds L, whatever the workload, and
    /// evictions are exactly inserts − occupancy.
    #[test]
    fn occupancy_bounded_by_l(ops in arb_ops(), l in 1usize..64) {
        let mut resolver: DnsResolver = DnsResolver::with_config(ResolverConfig {
            clist_size: l,
            labels_per_server: 1,
        });
        for op in &ops {
            resolver.insert(client_ip(op.client), &fqdn(op.fqdn), &[server_ip(op.server)]);
        }
        prop_assert!(resolver.len() <= l);
        let stats = resolver.stats();
        prop_assert_eq!(stats.evictions, ops.len() as u64 - resolver.len() as u64);
    }

    /// After eviction, only the most recent L bindings can be found; any
    /// hit must correspond to one of the last L inserts.
    #[test]
    fn hits_come_from_recent_window(ops in arb_ops(), l in 1usize..32) {
        let mut resolver: DnsResolver = DnsResolver::with_config(ResolverConfig {
            clist_size: l,
            labels_per_server: 1,
        });
        for op in &ops {
            resolver.insert(client_ip(op.client), &fqdn(op.fqdn), &[server_ip(op.server)]);
        }
        let window: Vec<&Op> = ops.iter().rev().take(l).collect();
        for c in 0..6u8 {
            for s in 0..10u8 {
                if let Some(hit) = resolver.peek(client_ip(c), server_ip(s)) {
                    let in_window = window.iter().any(|op| {
                        op.client == c && op.server == s && fqdn(op.fqdn) == hit
                    });
                    prop_assert!(in_window, "hit {hit} for ({c},{s}) not among last {l} inserts");
                }
            }
        }
    }

    /// A `SlotRef` captured at insert time is detected stale the moment its
    /// slot is evicted (wraparound overwrite) or removed — the generation
    /// counter prevents every ABA confusion — and live refs always resolve
    /// to exactly the value that was stored through them. Throughout any
    /// workload, occupancy never exceeds capacity.
    #[test]
    fn stale_slot_refs_never_resolve(
        ops in proptest::collection::vec((0u16..600, any::<bool>()), 1..300),
        l in 1usize..24,
    ) {
        let mut clist: CircularList<u16> = CircularList::new(l);
        // Every ref ever captured, the value stored through it, and
        // whether the model says it should still be live.
        let mut refs: Vec<(SlotRef, u16, bool)> = Vec::new();
        for &(value, do_remove) in &ops {
            if do_remove && !refs.is_empty() {
                // Remove a pseudo-arbitrary previously captured ref (live
                // or already stale — remove must be generation-checked).
                let pick = usize::from(value) % refs.len();
                let (slot, _, ref mut live) = refs[pick];
                let removed = clist.remove(slot);
                prop_assert_eq!(removed.is_some(), *live,
                    "remove must succeed exactly for live refs");
                *live = false;
            } else {
                let (slot, _evicted) = clist.push(value);
                // The overwritten slot's older refs are now stale.
                for (old, _, live) in refs.iter_mut() {
                    if old.index == slot.index {
                        *live = false;
                    }
                }
                refs.push((slot, value, true));
            }
            prop_assert!(clist.len() <= clist.capacity(),
                "occupancy {} exceeds capacity {}", clist.len(), clist.capacity());
            for &(slot, stored, live) in &refs {
                match clist.get(slot) {
                    Some(&v) => {
                        prop_assert!(live, "stale ref {slot:?} resolved to {v}");
                        prop_assert_eq!(v, stored);
                    }
                    None => prop_assert!(!live, "live ref {slot:?} failed to resolve"),
                }
            }
        }
    }

    /// Every mutation and query agrees with the naive shadow model
    /// (`resolver::check`) — a `VecDeque` ring plus per-pair id lists — under
    /// workloads small enough to force constant eviction.
    /// `CheckedResolver` asserts agreement internally after every op; the
    /// wider differential (IPv6, many wraps, duplicate answers) is the
    /// workspace-level `tests/resolver_index.rs`.
    #[test]
    fn resolver_agrees_with_shadow_model(ops in arb_ops(), l in 1usize..16, k in 1usize..4) {
        let config = ResolverConfig { clist_size: l, labels_per_server: k };
        let mut checked = CheckedResolver::with_config(config);
        for op in &ops {
            // Alternate single- and dual-server answers so eviction has to
            // clean back-references of more than one pair.
            let servers: Vec<IpAddr> = if op.fqdn % 3 == 0 {
                vec![server_ip(op.server), server_ip(op.server.wrapping_add(1) % 10)]
            } else {
                vec![server_ip(op.server)]
            };
            checked.insert(client_ip(op.client), &fqdn(op.fqdn), &servers);
            checked.lookup(client_ip(op.client), server_ip(op.server));
            let _ = checked.lookup_all(client_ip(op.client), server_ip(op.server));
        }
        for c in 0..6u8 {
            for s in 0..10u8 {
                let _ = checked.peek(client_ip(c), server_ip(s));
                let _ = checked.lookup_all(client_ip(c), server_ip(s));
            }
        }
        checked.verify();
    }

    /// Multi-label mode returns newest-first, at most `labels_per_server`
    /// distinct entries, and its head agrees with single lookup.
    #[test]
    fn multilabel_head_matches_lookup(ops in arb_ops(), k in 1usize..4) {
        let mut resolver: DnsResolver = DnsResolver::with_config(ResolverConfig {
            clist_size: 1024,
            labels_per_server: k,
        });
        for op in &ops {
            resolver.insert(client_ip(op.client), &fqdn(op.fqdn), &[server_ip(op.server)]);
        }
        for c in 0..6u8 {
            for s in 0..10u8 {
                let all = resolver.lookup_all(client_ip(c), server_ip(s));
                prop_assert!(all.len() <= k);
                let head = resolver.peek(client_ip(c), server_ip(s));
                prop_assert_eq!(all.first().cloned(), head);
            }
        }
    }
}
