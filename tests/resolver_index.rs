//! Differential test of the resolver's `(client, server)` index against
//! the shadow model (`dnhunter_resolver::check`).
//!
//! The index stores nothing but the Clist generation of a pair's newest
//! binding, and drops a key exactly when that binding's slot is recycled.
//! Both halves are easy to get subtly wrong — a key that outlives its last
//! Clist entry leaks memory and a client count, one dropped while a newer
//! binding lives loses a label — so every operation of a random stream is
//! followed by a comparison of the whole observable state: occupancy,
//! tracked clients, tracked pairs, and `peek`/`lookup_all` for every pair
//! of the address universe. Small Clists make the ring wrap hundreds of
//! times per case; the universe mixes IPv4 and IPv6 on both sides — so the
//! index's packed all-IPv4 table and its wide table fill in the same run —
//! includes an IPv4-mapped IPv6 address on each side, repeats addresses
//! inside one answer list, and lets one client re-resolve one server under
//! many names, in single-label and multi-label (§6) mode.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use dnhunter_dns::DomainName;
use dnhunter_resolver::{CheckedResolver, ResolverConfig};
use proptest::prelude::*;

const CLIENTS: u8 = 6;
const SERVERS: u8 = 9;
const NAMES: u8 = 12;
const CLIST_SIZES: [usize; 4] = [1, 2, 7, 64];

/// Even ids are IPv4, odd ids IPv6 — every family pairing occurs — and the
/// `mapped` id is the IPv4-mapped IPv6 form of id 2's address, which must
/// stay a key apart from the IPv4 address it maps.
fn addr(net: u8, id: u8, mapped: u8) -> IpAddr {
    if id == mapped {
        IpAddr::V6(Ipv4Addr::new(net, 0, 0, 2).to_ipv6_mapped())
    } else if id.is_multiple_of(2) {
        IpAddr::V4(Ipv4Addr::new(net, 0, 0, id))
    } else {
        IpAddr::V6(Ipv6Addr::new(
            0x2001,
            0xdb8,
            net.into(),
            0,
            0,
            0,
            0,
            id.into(),
        ))
    }
}

fn client(id: u8) -> IpAddr {
    addr(10, id, CLIENTS - 1)
}

fn server(id: u8) -> IpAddr {
    addr(23, id, SERVERS - 1)
}

fn name(id: u8) -> DomainName {
    format!("n{id}.example.com").parse().expect("valid name")
}

#[derive(Debug, Clone)]
enum Op {
    /// A response; `servers` may be empty or repeat an address.
    Insert {
        client: u8,
        name: u8,
        servers: Vec<u8>,
    },
    Lookup {
        client: u8,
        server: u8,
    },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (
        0u8..3,
        0..CLIENTS,
        0..NAMES,
        proptest::collection::vec(0..SERVERS, 0..5),
    )
        .prop_map(
            |(kind, client, name, servers)| match (kind, servers.first()) {
                (0, Some(&server)) => Op::Lookup { client, server },
                _ => Op::Insert {
                    client,
                    name,
                    servers,
                },
            },
        );
    proptest::collection::vec(op, 0..400)
}

/// Everything observable agrees with the shadow model, and the index holds
/// exactly the pairs that still have a live binding.
fn assert_same_state(r: &CheckedResolver) -> Result<(), TestCaseError> {
    // Occupancy, counters, tracked clients and tracked pairs.
    r.verify();
    let (real, shadow) = (r.real(), r.shadow());
    let mut live_pairs = 0;
    for c in 0..CLIENTS {
        for s in 0..SERVERS {
            let (c, s) = (client(c), server(s));
            let newest = shadow.peek(c, s);
            let all = shadow.lookup_all(c, s);
            prop_assert_eq!(real.peek(c, s), newest.clone(), "peek({}, {})", c, s);
            prop_assert_eq!(
                real.lookup_all(c, s),
                all.clone(),
                "lookup_all({}, {})",
                c,
                s
            );
            prop_assert_eq!(all.first().cloned(), newest.clone());
            prop_assert!(all.len() <= real.config().labels_per_server);
            live_pairs += usize::from(newest.is_some());
        }
    }
    prop_assert_eq!(real.pairs_tracked(), live_pairs);
    Ok(())
}

proptest! {
    #[test]
    fn index_agrees_with_the_shadow_model_after_every_op(
        ops in arb_ops(),
        size in 0usize..CLIST_SIZES.len(),
        multilabel in any::<bool>(),
    ) {
        let mut r = CheckedResolver::with_config(ResolverConfig {
            clist_size: CLIST_SIZES[size],
            labels_per_server: if multilabel { 4 } else { 1 },
        });
        let mut lookups = 0;
        for op in &ops {
            match op {
                Op::Insert { client: c, name: n, servers } => {
                    let servers: Vec<IpAddr> = servers.iter().map(|&s| server(s)).collect();
                    let outcome = r.insert(client(*c), &name(*n), &servers);
                    prop_assert_eq!(outcome.bindings, servers.len() as u64);
                }
                Op::Lookup { client: c, server: s } => {
                    let hit = r.lookup(client(*c), server(*s));
                    prop_assert_eq!(hit, r.shadow().peek(client(*c), server(*s)));
                    lookups += 1;
                }
            }
            assert_same_state(&r)?;
        }
        prop_assert_eq!(r.real().stats().lookups, lookups);
    }
}

/// One client, one server, a new name per response: the pair's key is
/// rebound on every insert and must survive every eviction but the last.
#[test]
fn one_pair_under_many_names_keeps_one_key() {
    for width in [1usize, 4] {
        let mut r = CheckedResolver::with_config(ResolverConfig {
            clist_size: 3,
            labels_per_server: width,
        });
        let (c, s) = (client(1), server(2));
        for i in 0..20u8 {
            r.insert(c, &name(i % 5), &[s]);
            assert_eq!(r.real().pairs_tracked(), 1);
            assert_eq!(r.real().clients_tracked(), 1);
            let want: Vec<DomainName> = (0..=i)
                .rev()
                .take(width.min(3))
                .map(|j| name(j % 5))
                .collect();
            assert_eq!(r.lookup_all(c, s), want, "width {width}, insert {i}");
        }
        // Three unrelated responses push the pair's bindings out of the
        // Clist; the key goes with the last of them.
        for i in 0..3u8 {
            assert_eq!(r.real().pairs_tracked(), 1 + usize::from(i));
            r.insert(client(3), &name(i), &[server(4 + i)]);
        }
        assert_eq!(r.peek(c, s), None);
        assert_eq!(r.real().pairs_tracked(), 3);
        assert_eq!(r.real().clients_tracked(), 1);
    }
}
