//! Clist dimensioning (paper §6): replay one event stream against several
//! Clist sizes `L` and measure the resolver efficiency each achieves.
//!
//! The paper concludes that, at EU1-ADSL1's peak rate of ~350k responses per
//! 10 minutes, `L ≈ 2.1M` emulates one hour of client caching and resolves
//! ~98% of flows. The same sweep, on synthetic traces, is reproduced by
//! `bench/clist_sizing` using this harness.

use std::net::IpAddr;

use dnhunter_dns::DomainName;

use crate::resolver::{DnsResolver, ResolverConfig};

/// One event in a resolver workload (the paper's §6 replay input): a
/// sniffed DNS response or the first packet of a flow (which triggers a
/// lookup).
#[derive(Debug, Clone)]
pub enum ResolverEvent {
    /// DNS response: `client` resolved `fqdn` to `servers`.
    Response {
        client: IpAddr,
        fqdn: DomainName,
        servers: Vec<IpAddr>,
    },
    /// New flow from `client` to `server`.
    FlowStart { client: IpAddr, server: IpAddr },
}

/// Result of replaying a workload at one Clist size — one point of the
/// paper's §6 sizing curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingPoint {
    /// Clist capacity that was tested.
    pub clist_size: usize,
    /// Fraction of flow-start lookups that found a label.
    pub efficiency: f64,
    /// FIFO evictions observed (0 means L was never exceeded).
    pub evictions: u64,
    /// Estimated heap footprint at end of replay, bytes.
    pub memory_bytes: usize,
}

/// Replay `events` against a fresh resolver with Clist size `l` (the
/// paper's §6 methodology).
pub fn replay(events: &[ResolverEvent], l: usize) -> SizingPoint {
    let mut r = DnsResolver::with_config(ResolverConfig {
        clist_size: l,
        labels_per_server: 1,
    });
    for ev in events {
        match ev {
            ResolverEvent::Response {
                client,
                fqdn,
                servers,
            } => {
                // A buffer of the resolver's own, as the decoder hands one
                // over per response: `events` holds every name for the
                // whole replay, and `memory_estimate` leaves a buffer that
                // someone else also holds to them.
                let own = DomainName::from_labels(fqdn.labels()).unwrap_or_else(|_| fqdn.clone());
                let _ = r.insert(*client, &own, servers);
            }
            ResolverEvent::FlowStart { client, server } => {
                let _ = r.lookup(*client, *server);
            }
        }
    }
    SizingPoint {
        clist_size: l,
        efficiency: r.stats().hit_ratio(),
        evictions: r.stats().evictions,
        memory_bytes: r.memory_estimate(),
    }
}

/// Sweep several Clist sizes over the same workload, tracing the paper's
/// §6 efficiency-vs-`L` curve.
pub fn sweep(events: &[ResolverEvent], sizes: &[usize]) -> Vec<SizingPoint> {
    sizes.iter().map(|&l| replay(events, l)).collect()
}

/// The smallest tested size reaching `target` efficiency, if any — how
/// the paper picks `L ≈ 2.1M` for 98% in §6.
pub fn smallest_sufficient(points: &[SizingPoint], target: f64) -> Option<SizingPoint> {
    points
        .iter()
        .filter(|p| p.efficiency >= target)
        .min_by_key(|p| p.clist_size)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8) -> IpAddr {
        IpAddr::V4(std::net::Ipv4Addr::new(10, 0, a, b))
    }

    fn server(i: u16) -> IpAddr {
        IpAddr::V4(std::net::Ipv4Addr::new(23, 0, (i >> 8) as u8, i as u8))
    }

    /// Workload where each response is looked up after `gap` intervening
    /// responses — so efficiency is a step function of L around `gap`.
    fn gapped_workload(n: u16, gap: usize) -> Vec<ResolverEvent> {
        let mut events = Vec::new();
        for i in 0..n {
            events.push(ResolverEvent::Response {
                client: ip(0, 1),
                fqdn: format!("host{i}.example.com").parse().unwrap(),
                servers: vec![server(i)],
            });
            if usize::from(i) >= gap {
                let j = i - gap as u16;
                events.push(ResolverEvent::FlowStart {
                    client: ip(0, 1),
                    server: server(j),
                });
            }
        }
        events
    }

    #[test]
    fn efficiency_grows_with_l() {
        let events = gapped_workload(200, 50);
        let points = sweep(&events, &[10, 40, 60, 100]);
        assert!(points[0].efficiency < 0.1);
        assert!(points[1].efficiency < 0.5); // L=40 < gap+1
        assert!(points[2].efficiency > 0.9); // L=60 > gap
        assert!((points[3].efficiency - 1.0).abs() < 1e-9);
        // Monotone non-decreasing.
        for w in points.windows(2) {
            assert!(w[1].efficiency >= w[0].efficiency - 1e-12);
        }
    }

    #[test]
    fn evictions_reported() {
        let events = gapped_workload(100, 10);
        let p = replay(&events, 20);
        assert_eq!(p.evictions, 80);
        let p_big = replay(&events, 1000);
        assert_eq!(p_big.evictions, 0);
        // A bigger Clist costs more memory.
        assert!(p_big.memory_bytes > p.memory_bytes);
    }

    #[test]
    fn smallest_sufficient_selection() {
        let points = vec![
            SizingPoint {
                clist_size: 10,
                efficiency: 0.2,
                evictions: 5,
                memory_bytes: 1_000,
            },
            SizingPoint {
                clist_size: 100,
                efficiency: 0.97,
                evictions: 1,
                memory_bytes: 10_000,
            },
            SizingPoint {
                clist_size: 1000,
                efficiency: 0.99,
                evictions: 0,
                memory_bytes: 100_000,
            },
        ];
        assert_eq!(smallest_sufficient(&points, 0.95).unwrap().clist_size, 100);
        assert!(smallest_sufficient(&points, 0.999).is_none());
    }
}
