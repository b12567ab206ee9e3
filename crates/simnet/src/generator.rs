//! The trace generator: drives the client population through the catalog
//! and emits the full frame stream of one vantage point.

use std::collections::HashMap;
use std::io::Write;
use std::net::Ipv4Addr;

use dnhunter_dns::{codec, DnsMessage, DomainName, QClass, QType, RData, ResourceRecord};
use dnhunter_net::{build_udp_v4, MacAddr, PcapRecord, PcapWriter};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::address::PtrZone;
use crate::appspot::{self, TrackerInstance};
use crate::catalog::{
    paper_catalog, Catalog, CertPolicy, NamePattern, PayloadStyle, ServiceId, ServiceSampler,
};
use crate::client::ClientState;
use crate::config::TraceProfile;
use crate::diurnal;
use crate::dnsmodel::AuthoritativeDns;
use crate::flowgen::{self, FlowSpec};

/// The ISP-side DNS resolver every client queries.
pub const DNS_SERVER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);
/// Gateway MAC standing in for the PoP router.
const GATEWAY_MAC: MacAddr = MacAddr([0x02, 0xaa, 0, 0, 0, 1]);

/// Small FNV for stable v6 address derivation.
fn fnv6(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x01000193);
    }
    h
}

/// Counters of what was generated — ground truth for tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct GenStats {
    pub page_views: u64,
    pub accesses: u64,
    pub flows: u64,
    pub dns_queries: u64,
    pub prefetch_only: u64,
    pub nxdomain: u64,
    pub silent_resolutions: u64,
    pub peer_flows: u64,
    pub tracker_announces: u64,
    pub tunnel_flows: u64,
    pub ipv6_flows: u64,
}

/// A generated trace.
pub struct Trace {
    pub profile: TraceProfile,
    /// Frames in timestamp order, absolute epoch µs.
    pub records: Vec<PcapRecord>,
    pub ptr_zone: PtrZone,
    pub stats: GenStats,
}

impl Trace {
    /// Write as a classic pcap file.
    pub fn write_pcap<W: Write>(&self, w: W) -> dnhunter_net::Result<W> {
        let mut out = PcapWriter::new(w)?;
        for r in &self.records {
            out.write_record(r)?;
        }
        out.into_inner()
    }
}

/// Generates one trace from a profile. Deterministic per seed.
pub struct TraceGenerator {
    profile: TraceProfile,
    catalog: Catalog,
    auth: AuthoritativeDns,
    rng: ChaCha8Rng,
    sampler_main: ServiceSampler,
    sampler_embed: ServiceSampler,
    sampler_prefetch: ServiceSampler,
    sampler_tracker: ServiceSampler,
    /// Next fresh instance per unbounded service.
    instance_next: HashMap<ServiceId, u32>,
    frames: Vec<(u64, Vec<u8>)>,
    dns_id: u16,
    trackers_live: Vec<TrackerInstance>,
    stats: GenStats,
}

impl TraceGenerator {
    /// Build for a profile. `live` adds the appspot.com model.
    pub fn new(profile: TraceProfile, live: bool) -> Self {
        let catalog = paper_catalog(live);
        let geo = profile.geography;
        let sampler_main = catalog.sampler(geo, |s| {
            s.style != PayloadStyle::TrackerHttp && !s.embeddable
        });
        let sampler_embed = catalog.sampler(geo, |s| s.embeddable);
        let sampler_prefetch = catalog.sampler(geo, |s| s.style != PayloadStyle::TrackerHttp);
        let sampler_tracker = catalog.sampler(geo, |s| s.style == PayloadStyle::TrackerHttp);
        let mut rng = ChaCha8Rng::seed_from_u64(profile.seed);
        let trackers_live = if live {
            appspot::tracker_schedules(&catalog, &mut rng)
        } else {
            Vec::new()
        };
        TraceGenerator {
            auth: AuthoritativeDns::new(geo),
            rng,
            sampler_main,
            sampler_embed,
            sampler_prefetch,
            sampler_tracker,
            instance_next: HashMap::new(),
            frames: Vec::new(),
            dns_id: 1,
            trackers_live,
            stats: GenStats::default(),
            catalog,
            profile,
        }
    }

    /// Tracker lifecycle schedules (live mode), for analytics ground truth.
    pub fn tracker_schedules(&self) -> &[TrackerInstance] {
        &self.trackers_live
    }

    /// Run the simulation and return the trace.
    pub fn generate(mut self) -> Trace {
        let duration = self.profile.duration_micros();
        let n = self.profile.clients;
        for id in 0..n as u32 {
            let mut client = ClientState::new(id);
            self.assign_roles(&mut client, duration);
            self.simulate_client(&mut client, duration);
        }
        // Sort and clip to the observation window (flows may run over the
        // end a little, as in a real capture stopped at a fixed time).
        let grace = 30_000_000;
        self.frames.retain(|(ts, _)| *ts <= duration + grace);
        self.frames.sort_by_key(|(ts, _)| *ts);
        let epoch = self.profile.start_epoch_micros;
        let records = self
            .frames
            .drain(..)
            .map(|(ts, frame)| PcapRecord::from_micros(epoch + ts, frame))
            .collect();
        Trace {
            profile: self.profile,
            records,
            ptr_zone: self.auth.into_ptr_zone(),
            stats: self.stats,
        }
    }

    fn assign_roles(&mut self, client: &mut ClientState, duration: u64) {
        let p = &self.profile;
        // Client 0 is always the first P2P user when the profile has any,
        // so small-scale runs still exhibit the P2P row of Tab. 2.
        client.is_p2p = self.rng.gen::<f64>() < p.p2p_client_fraction
            || (client.id == 0 && p.p2p_client_fraction > 0.0);
        client.is_tunnel = self.rng.gen::<f64>() < p.tunnel_client_fraction;
        client.is_dual_stack = self.rng.gen::<f64>() < p.ipv6_client_fraction;
        if self.rng.gen::<f64>() < p.mobility_client_fraction {
            client.is_mobile_arrival = true;
            client.join_ts = (self.rng.gen::<f64>() * 0.8 * duration as f64) as u64;
        }
    }

    fn simulate_client(&mut self, client: &mut ClientState, duration: u64) {
        let mean_gap = 3.6e9 / self.profile.views_per_client_hour.max(0.01);
        let mut t = client.join_ts;
        loop {
            t += self.exp(mean_gap);
            if t >= duration {
                break;
            }
            let act = diurnal::activity(self.profile.hour_of_day(t));
            if self.rng.gen::<f64>() < act {
                self.page_view(client, t);
            }
        }
        if client.is_p2p {
            self.simulate_p2p(client, duration);
        }
    }

    // ------------------------------------------------------------ browsing

    fn page_view(&mut self, client: &mut ClientState, t: u64) {
        self.stats.page_views += 1;
        if client.is_tunnel {
            self.tunnel_flow(client, t);
            return;
        }
        let draw: f64 = self.rng.gen();
        let u = self.mix_draw(t, draw);
        let Some(primary) = self.sampler_main.sample(u) else {
            return;
        };
        self.access(client, t, primary);
        // HTTP redirection chains (§6 confusion: apex → www on shared IPs).
        if let Some(target_sub) = self.catalog.service(primary).redirect_to {
            if let Some(target) = self.find_sibling(primary, target_sub) {
                let t2 = t + 80_000 + self.exp(50_000.0);
                self.access(client, t2, target);
            }
        }
        // Embedded resources.
        let embedded = self.poisson(self.profile.embedded_per_view);
        for _ in 0..embedded {
            let draw: f64 = self.rng.gen();
            let u = self.mix_draw(t, draw);
            if let Some(svc) = self.sampler_embed.sample(u) {
                let te = t + 100_000 + (self.rng.gen::<f64>() * 1.4e6) as u64;
                self.access(client, te, svc);
            }
        }
        // Browser prefetching: resolutions never followed by a flow.
        let prefetch = self.poisson(self.profile.prefetch_per_view);
        for _ in 0..prefetch {
            let draw: f64 = self.rng.gen();
            let u = self.mix_draw(t, draw);
            if let Some(svc) = self.sampler_prefetch.sample(u) {
                let tp = t + 50_000 + (self.rng.gen::<f64>() * 450_000.0) as u64;
                self.resolve_only(client, tp, svc);
            }
        }
    }

    /// Warp a uniform sampler draw by the content-mix epoch containing
    /// `t`: with `mix_epoch_hours > 0`, the draw is squared (density
    /// `1/(2√x)`, sharply peaked at 0) and the peak is rotated around the
    /// cumulative popularity distribution by a golden-ratio step per
    /// epoch, so *which* slice of the catalog is hot genuinely changes
    /// every epoch (a plain constant shift of a uniform draw would leave
    /// the sampled mix distributionally unchanged). Pure in `(t, u)`, so
    /// traces stay seed-deterministic.
    fn mix_draw(&self, t: u64, u: f64) -> f64 {
        let epoch_hours = self.profile.mix_epoch_hours;
        if epoch_hours <= 0.0 {
            return u;
        }
        let band = (t as f64 / (epoch_hours * 3.6e9)).floor();
        (u * u + band * 0.618_033_988_749_895).fract()
    }

    /// Find a service in the same domain whose pattern is `Fixed(sub)`.
    fn find_sibling(&self, id: ServiceId, sub: &str) -> Option<ServiceId> {
        let dom = &self.catalog.domains[id.domain];
        dom.services
            .iter()
            .position(|s| matches!(s.pattern, NamePattern::Fixed(f) if f == sub))
            .map(|service| ServiceId {
                domain: id.domain,
                service,
            })
    }

    /// One access: resolve (cached / silent / on the wire) and emit a flow.
    fn access(&mut self, client: &mut ClientState, t: u64, id: ServiceId) {
        self.stats.accesses += 1;
        // Dual-stack hosts fetch some v6-enabled content over IPv6
        // (AAAA resolution over v6 transport + a v6 flow).
        if client.is_dual_stack
            && self
                .catalog
                .service(id)
                .hosting
                .iter()
                .any(|h| h.org == "google")
            && self.rng.gen::<f64>() < 0.5
        {
            self.access_v6(client, t, id);
            return;
        }
        let instance = self.choose_instance(id);
        let (fqdn, sld, style, port, cert, resp_kib) = {
            let svc = self.catalog.service(id);
            let dom = self.catalog.domain(id);
            (
                svc.fqdn(dom.sld, instance),
                dom.sld.to_string(),
                svc.style,
                svc.port,
                svc.cert,
                svc.resp_kib,
            )
        };
        let resolved = self.ensure_resolved(client, t, id, instance, &fqdn);
        let Some((servers, flow_start)) = resolved else {
            return;
        };
        let server = self.pick_server(&servers);
        let resp_bytes = {
            let (lo, hi) = resp_kib;
            let kib = self.rng.gen_range(lo..=hi).min(120);
            kib * 1024
        };
        let spec = FlowSpec {
            client: client.ip,
            server,
            client_mac: client.mac,
            server_mac: GATEWAY_MAC,
            sport: client.sport(),
            dport: port,
            start: flow_start,
            rtt: self.jittered_rtt(),
            style,
            fqdn: fqdn.to_string(),
            sld,
            cert,
            resume: style == PayloadStyle::Tls && self.rng.gen::<f64>() < 0.23,
            sni: self.rng.gen::<f64>() < 0.97,
            cdn_cert_name: if cert == CertPolicy::CdnName {
                Some(format!(
                    "a{}.e.akamai.net",
                    200 + (self.rng.gen::<u32>() % 99)
                ))
            } else {
                None
            },
            req_bytes: self.rng.gen_range(200..1500),
            resp_bytes,
            seed: self.rng.gen(),
        };
        self.frames.extend(flowgen::synthesize(&spec));
        self.stats.flows += 1;
        if style == PayloadStyle::TrackerHttp {
            self.stats.tracker_announces += 1;
        }
    }

    /// A complete IPv6 access: AAAA query/response over v6 UDP, then a v6
    /// flow. Only Google content is v6-enabled in the synthetic Internet
    /// (true to the 2011-era deployment state).
    fn access_v6(&mut self, client: &mut ClientState, t: u64, id: ServiceId) {
        use std::net::Ipv6Addr;
        let instance = self.choose_instance(id);
        let (fqdn, style, port, resp_kib) = {
            let svc = self.catalog.service(id);
            let dom = self.catalog.domain(id);
            (
                svc.fqdn(dom.sld, instance),
                svc.style,
                svc.port,
                svc.resp_kib,
            )
        };
        // v6 server: a stable address in Google's v6 block per instance.
        let h = fnv6(fqdn.to_string().as_bytes());
        let server = Ipv6Addr::new(0x2001, 0x4860, 0x4000, 0, 0, 0, (h >> 16) as u16, h as u16);
        let client6 = client.ip6();
        let dns_server6 = Ipv6Addr::new(0x2001, 0xdb8, 0x00aa, 0xffff, 0, 0, 0, 0x53);
        // AAAA exchange over v6 UDP.
        let qid = self.dns_id;
        self.dns_id = self.dns_id.wrapping_add(1);
        let sport = client.sport();
        let query = DnsMessage::query(qid, fqdn.clone(), dnhunter_dns::QType::Aaaa);
        let response = DnsMessage::answer_to(
            &query,
            vec![ResourceRecord {
                name: fqdn.clone(),
                class: QClass::In,
                ttl: 300,
                rdata: RData::Aaaa(server),
            }],
        );
        let qframe = dnhunter_net::build_udp_v6(
            client.mac,
            GATEWAY_MAC,
            client6,
            dns_server6,
            sport,
            53,
            &codec::encode(&query).expect("query encodes"),
        )
        .expect("v6 query frame builds");
        let delay = (self.profile.tech.dns_delay_micros() as f64
            * (0.6 + self.rng.gen::<f64>() * 1.6)) as u64;
        let resp_ts = t + delay;
        let rframe = dnhunter_net::build_udp_v6(
            GATEWAY_MAC,
            client.mac,
            dns_server6,
            client6,
            53,
            sport,
            &codec::encode(&response).expect("response encodes"),
        )
        .expect("v6 response frame builds");
        self.frames.push((t, qframe));
        self.frames.push((resp_ts, rframe));
        self.stats.dns_queries += 1;
        // The flow, over v6.
        let style6 = if style == PayloadStyle::Tls {
            PayloadStyle::Tls
        } else {
            PayloadStyle::Http
        };
        let port6 = if matches!(port, 80 | 443) { port } else { 443 };
        let start = resp_ts + self.first_flow_delay();
        let resp_bytes = {
            let (lo, hi) = resp_kib;
            self.rng.gen_range(lo..=hi).min(120) * 1024
        };
        let frames = flowgen::synthesize_v6(
            client6,
            server,
            client.mac,
            GATEWAY_MAC,
            client.sport(),
            port6,
            start,
            self.jittered_rtt(),
            style6,
            &fqdn.to_string(),
            resp_bytes,
            self.rng.gen(),
        );
        self.frames.extend(frames);
        self.stats.flows += 1;
        self.stats.ipv6_flows += 1;
    }

    /// Resolve `fqdn` for the client at `t`. Returns the usable server list
    /// and the flow start time, or `None` if resolution failed entirely.
    fn ensure_resolved(
        &mut self,
        client: &mut ClientState,
        t: u64,
        id: ServiceId,
        instance: u32,
        fqdn: &DomainName,
    ) -> Option<(Vec<Ipv4Addr>, u64)> {
        if let Some(entry) = client.cache_get(fqdn, t) {
            let servers = entry.servers.clone();
            let start = t + 5_000 + (self.rng.gen::<f64>() * 75_000.0) as u64;
            return Some((servers, start));
        }
        let svc = self.catalog.service(id);
        // Pre-warm shortcut: the OS resolved this before the trace started
        // (or, for mobile arrivals, before the device entered our coverage)
        // — the response never crossed the vantage point.
        let ttl_micros = u64::from(svc.ttl) * 1_000_000;
        if !client.cache_has(fqdn) && !svc.unbounded {
            // Pre-warm: the name was in the OS cache when the trace (or the
            // client's session) began; a name nobody has seen before can't
            // be in any cache.
            let p = (self.profile.prewarm_prob * svc.prewarm_boost).min(0.95);
            let expiry = client.join_ts + (self.rng.gen::<f64>() * ttl_micros as f64) as u64;
            if self.rng.gen::<f64>() < p && expiry > t {
                let remaining_secs = ((expiry - t) / 1_000_000) as u32;
                let addrs = self.silent_resolve(client, t, id, instance, fqdn, remaining_secs);
                let start = t + 5_000 + (self.rng.gen::<f64>() * 75_000.0) as u64;
                return Some((addrs, start));
            }
        }
        // Steady-state invisible resolutions: home-gateway caches answer
        // some queries without the PoP ever seeing a response, and roaming
        // mobile devices resolve while attached elsewhere. TLS apps reuse
        // sessions longer, so their resolutions go invisible a bit more
        // often (Tab. 2: TLS hit ratios trail HTTP's).
        let mut q = self.profile.invisible_resolution_prob;
        if svc.style == PayloadStyle::Tls {
            q *= 1.3;
        }
        if client.is_mobile_arrival {
            q = q.max(0.72);
        }
        if self.rng.gen::<f64>() < q.min(0.95) {
            let ttl_secs = ((svc.ttl as f64) * (0.5 + self.rng.gen::<f64>() * 0.5)) as u32;
            let addrs = self.silent_resolve(client, t, id, instance, fqdn, ttl_secs);
            let start = t + 5_000 + (self.rng.gen::<f64>() * 75_000.0) as u64;
            return Some((addrs, start));
        }
        // Visible resolution on the wire.
        let (servers, resp_ts) = self.emit_dns(client, t, id, instance, fqdn);
        let start = resp_ts + self.first_flow_delay();
        Some((servers, start))
    }

    /// Resolve without emitting frames (the response is invisible to the
    /// vantage point) and cache the result for `ttl_secs`.
    fn silent_resolve(
        &mut self,
        client: &mut ClientState,
        t: u64,
        id: ServiceId,
        instance: u32,
        fqdn: &DomainName,
        ttl_secs: u32,
    ) -> Vec<Ipv4Addr> {
        let hour = self.profile.hour_of_day(t);
        let res = self
            .auth
            .resolve(&self.catalog, id, instance, hour, &mut self.rng);
        client.cache_put(fqdn.clone(), t, ttl_secs.max(1), res.addrs.clone());
        self.stats.silent_resolutions += 1;
        res.addrs
    }

    /// Emit query + response frames; update client cache; return answers.
    fn emit_dns(
        &mut self,
        client: &mut ClientState,
        t: u64,
        id: ServiceId,
        instance: u32,
        fqdn: &DomainName,
    ) -> (Vec<Ipv4Addr>, u64) {
        let hour = self.profile.hour_of_day(t);
        let res = self
            .auth
            .resolve(&self.catalog, id, instance, hour, &mut self.rng);
        let qid = self.dns_id;
        self.dns_id = self.dns_id.wrapping_add(1);
        let sport = client.sport();
        let query = DnsMessage::query(qid, fqdn.clone(), QType::A);
        // CNAME-fronted names answer with the alias first, then the A
        // records under the alias — exactly what a CDN authority returns.
        let a_owner = res.cname.as_ref().unwrap_or(fqdn);
        let mut answers: Vec<ResourceRecord> = Vec::with_capacity(res.addrs.len() + 1);
        if let Some(cn) = &res.cname {
            answers.push(ResourceRecord {
                name: fqdn.clone(),
                class: QClass::In,
                ttl: res.ttl,
                rdata: RData::Cname(cn.clone()),
            });
        }
        answers.extend(res.addrs.iter().map(|ip| ResourceRecord {
            name: a_owner.clone(),
            class: QClass::In,
            ttl: res.ttl,
            rdata: RData::A(*ip),
        }));
        let response = DnsMessage::answer_to(&query, answers);
        let qframe = build_udp_v4(
            client.mac,
            GATEWAY_MAC,
            client.ip,
            DNS_SERVER,
            sport,
            53,
            &codec::encode(&query).expect("query encodes"),
        )
        .expect("query frame builds");
        let delay = (self.profile.tech.dns_delay_micros() as f64
            * (0.6 + self.rng.gen::<f64>() * 1.6)) as u64;
        let mut resp_ts = t + delay;
        self.frames.push((t, qframe));
        self.stats.dns_queries += 1;
        // Long answer lists don't fit a 512-byte UDP response: the server
        // sets the TC bit and the stub retries over TCP (RFC 1035 §4.2.2).
        if res.addrs.len() > 12 {
            let mut truncated = DnsMessage::error_to(&query, dnhunter_dns::Rcode::NoError);
            truncated.header.truncated = true;
            let tframe = build_udp_v4(
                GATEWAY_MAC,
                client.mac,
                DNS_SERVER,
                client.ip,
                53,
                sport,
                &codec::encode(&truncated).expect("truncated response encodes"),
            )
            .expect("truncated frame builds");
            self.frames.push((resp_ts, tframe));
            resp_ts = self.emit_dns_tcp_retry(client, resp_ts, &query, &response);
        } else {
            let rframe = build_udp_v4(
                GATEWAY_MAC,
                client.mac,
                DNS_SERVER,
                client.ip,
                53,
                sport,
                &codec::encode(&response).expect("response encodes"),
            )
            .expect("response frame builds");
            self.frames.push((resp_ts, rframe));
        }
        client.cache_put(fqdn.clone(), resp_ts, res.ttl, res.addrs.clone());
        (res.addrs, resp_ts)
    }

    /// The TCP retry after a truncated UDP response: handshake, framed
    /// query, framed response, orderly close. Returns the time the client
    /// had the full answer.
    fn emit_dns_tcp_retry(
        &mut self,
        client: &mut ClientState,
        t: u64,
        query: &DnsMessage,
        response: &DnsMessage,
    ) -> u64 {
        use dnhunter_net::{build_tcp_v4, TcpFlags};
        let sport = client.sport();
        let rtt = self.jittered_rtt().max(2_000);
        let half = rtt / 2;
        let qbytes = codec::encode_tcp(query).expect("query frames over TCP");
        let rbytes = codec::encode_tcp(response).expect("response frames over TCP");
        let mk = |src_client: bool, seq: u32, ack: u32, flags: TcpFlags, payload: &[u8]| {
            if src_client {
                build_tcp_v4(
                    client.mac,
                    GATEWAY_MAC,
                    client.ip,
                    DNS_SERVER,
                    sport,
                    53,
                    seq,
                    ack,
                    flags,
                    payload,
                )
            } else {
                build_tcp_v4(
                    GATEWAY_MAC,
                    client.mac,
                    DNS_SERVER,
                    client.ip,
                    53,
                    sport,
                    seq,
                    ack,
                    flags,
                    payload,
                )
            }
            .expect("dns tcp frame builds")
        };
        let mut ts = t + 1_000;
        self.frames.push((ts, mk(true, 1, 0, TcpFlags::SYN, &[])));
        ts += rtt;
        self.frames
            .push((ts, mk(false, 1, 2, TcpFlags::SYN | TcpFlags::ACK, &[])));
        ts += half;
        self.frames.push((ts, mk(true, 2, 2, TcpFlags::ACK, &[])));
        ts += 1_000;
        self.frames
            .push((ts, mk(true, 2, 2, TcpFlags::PSH | TcpFlags::ACK, &qbytes)));
        ts += rtt;
        self.frames.push((
            ts,
            mk(
                false,
                2,
                2 + qbytes.len() as u32,
                TcpFlags::PSH | TcpFlags::ACK,
                &rbytes,
            ),
        ));
        let answered = ts;
        ts += half;
        self.frames.push((
            ts,
            mk(
                true,
                2 + qbytes.len() as u32,
                2 + rbytes.len() as u32,
                TcpFlags::FIN | TcpFlags::ACK,
                &[],
            ),
        ));
        ts += half;
        self.frames.push((
            ts,
            mk(
                false,
                2 + rbytes.len() as u32,
                3 + qbytes.len() as u32,
                TcpFlags::FIN | TcpFlags::ACK,
                &[],
            ),
        ));
        answered
    }

    /// A failed resolution: the user followed a dead link or typo'd a name
    /// (NXDOMAIN). Pure DNS noise the sniffer must absorb.
    fn emit_nxdomain(&mut self, client: &mut ClientState, t: u64) {
        let qid = self.dns_id;
        self.dns_id = self.dns_id.wrapping_add(1);
        let sport = client.sport();
        let n = self.rng.gen::<u32>() % 100_000;
        let fqdn: DomainName = format!("www.no-such-site-{n}.com")
            .parse()
            .expect("generated name is valid");
        let query = DnsMessage::query(qid, fqdn, QType::A);
        let nx = DnsMessage::error_to(&query, dnhunter_dns::Rcode::NxDomain);
        let qframe = build_udp_v4(
            client.mac,
            GATEWAY_MAC,
            client.ip,
            DNS_SERVER,
            sport,
            53,
            &codec::encode(&query).expect("query encodes"),
        )
        .expect("query frame builds");
        let delay = (self.profile.tech.dns_delay_micros() as f64
            * (0.6 + self.rng.gen::<f64>() * 1.6)) as u64;
        let rframe = build_udp_v4(
            GATEWAY_MAC,
            client.mac,
            DNS_SERVER,
            client.ip,
            53,
            sport,
            &codec::encode(&nx).expect("nx encodes"),
        )
        .expect("nx frame builds");
        self.frames.push((t, qframe));
        self.frames.push((t + delay, rframe));
        self.stats.dns_queries += 1;
        self.stats.nxdomain += 1;
    }

    /// Prefetch: resolve on the wire (or silently skip if cached), no flow.
    fn resolve_only(&mut self, client: &mut ClientState, t: u64, id: ServiceId) {
        // A slice of speculative resolutions fail outright.
        if self.rng.gen::<f64>() < 0.06 {
            self.emit_nxdomain(client, t);
            return;
        }
        let instance = self.choose_instance(id);
        let fqdn = {
            let svc = self.catalog.service(id);
            svc.fqdn(self.catalog.domain(id).sld, instance)
        };
        if client.cache_get(&fqdn, t).is_some() {
            return; // already cached, browser doesn't re-resolve
        }
        self.emit_dns(client, t, id, instance, &fqdn);
        self.stats.prefetch_only += 1;
    }

    // ----------------------------------------------------------- tunnels

    /// 3G tunnel clients: everything rides one long-lived endpoint whose
    /// resolution happened out of sight.
    fn tunnel_flow(&mut self, client: &mut ClientState, t: u64) {
        let Some(id) = self.find_by_sld("opera-mini.net") else {
            return;
        };
        let instance = 0;
        let fqdn = {
            let svc = self.catalog.service(id);
            svc.fqdn(self.catalog.domain(id).sld, instance)
        };
        let servers = if let Some(entry) = client.cache_get(&fqdn, t) {
            entry.servers.clone()
        } else {
            // Resolved before the trace (or on another network): silent.
            let hour = self.profile.hour_of_day(t);
            let res = self
                .auth
                .resolve(&self.catalog, id, instance, hour, &mut self.rng);
            client.cache_put(fqdn.clone(), t, 7200, res.addrs.clone());
            self.stats.silent_resolutions += 1;
            res.addrs
        };
        let server = self.pick_server(&servers);
        let spec = FlowSpec {
            client: client.ip,
            server,
            client_mac: client.mac,
            server_mac: GATEWAY_MAC,
            sport: client.sport(),
            dport: 1080,
            start: t + 10_000,
            rtt: self.jittered_rtt(),
            // Opera Mini's transcoding socket is a proprietary binary
            // protocol, not TLS.
            style: PayloadStyle::BinaryTcp,
            fqdn: fqdn.to_string(),
            sld: "opera-mini.net".into(),
            cert: CertPolicy::Wildcard,
            resume: false,
            sni: false,
            cdn_cert_name: None,
            req_bytes: self.rng.gen_range(1_000..8_000),
            resp_bytes: self.rng.gen_range(4_000..60_000),
            seed: self.rng.gen(),
        };
        self.frames.extend(flowgen::synthesize(&spec));
        self.stats.flows += 1;
        self.stats.tunnel_flows += 1;
    }

    fn find_by_sld(&self, sld: &str) -> Option<ServiceId> {
        self.catalog
            .domains
            .iter()
            .position(|d| d.sld == sld)
            .map(|domain| ServiceId { domain, service: 0 })
    }

    // -------------------------------------------------------------- P2P

    fn simulate_p2p(&mut self, client: &mut ClientState, duration: u64) {
        let interval = self.profile.announce_interval_hours.max(0.05) * 3.6e9;
        let mut t = client.join_ts + self.exp(interval / 3.0);
        while t < duration {
            self.announce_and_swarm(client, t, duration);
            t += self.exp(interval);
        }
    }

    fn announce_and_swarm(&mut self, client: &mut ClientState, t: u64, duration: u64) {
        // Choose a tracker: live appspot trackers when available, the
        // public tracker population otherwise.
        let day = t as f64 / 86_400e6;
        let appspot_choice = if !self.trackers_live.is_empty() && self.rng.gen::<f64>() < 0.65 {
            let active = appspot::active_trackers(&self.trackers_live, day);
            if active.is_empty() {
                None
            } else {
                let pick = active[self.rng.gen_range(0..active.len())];
                Some((pick.service, pick.instance))
            }
        } else {
            None
        };
        match appspot_choice {
            Some((service, instance)) => {
                self.tracker_access(client, t, service, instance);
            }
            None => {
                if let Some(id) = self.sampler_tracker.sample(self.rng.gen()) {
                    let instance = self.choose_instance(id);
                    self.tracker_access(client, t, id, instance);
                }
            }
        }
        // The swarm: peer-wire flows to addresses learned from the tracker —
        // no DNS involved, ever.
        let peers = self.poisson(self.profile.peers_per_announce);
        for _ in 0..peers {
            let tp = t + (self.rng.gen::<f64>() * 300e6) as u64;
            if tp >= duration {
                continue;
            }
            let peer = Ipv4Addr::new(
                if self.rng.gen() { 171 } else { 186 },
                self.rng.gen(),
                self.rng.gen(),
                self.rng.gen_range(1..255),
            );
            let frames = flowgen::synthesize_peer_flow(
                client.ip,
                peer,
                client.mac,
                GATEWAY_MAC,
                client.sport(),
                tp,
                self.jittered_rtt() * 2,
                self.rng.gen_range(2_000..40_000),
                self.rng.gen(),
            );
            self.frames.extend(frames);
            self.stats.peer_flows += 1;
            self.stats.flows += 1;
        }
    }

    /// Tracker announce with an explicit instance (appspot schedules pick
    /// their own instance).
    fn tracker_access(&mut self, client: &mut ClientState, t: u64, id: ServiceId, instance: u32) {
        let (fqdn, sld, port) = {
            let svc = self.catalog.service(id);
            let dom = self.catalog.domain(id);
            (svc.fqdn(dom.sld, instance), dom.sld.to_string(), svc.port)
        };
        let Some((servers, start)) = self.ensure_resolved(client, t, id, instance, &fqdn) else {
            return;
        };
        let server = self.pick_server(&servers);
        let spec = FlowSpec {
            client: client.ip,
            server,
            client_mac: client.mac,
            server_mac: GATEWAY_MAC,
            sport: client.sport(),
            dport: port,
            start,
            rtt: self.jittered_rtt(),
            style: PayloadStyle::TrackerHttp,
            fqdn: fqdn.to_string(),
            sld,
            cert: CertPolicy::Exact,
            resume: false,
            sni: false,
            cdn_cert_name: None,
            req_bytes: self.rng.gen_range(600..1_400),
            resp_bytes: self.rng.gen_range(800..2_500),
            seed: self.rng.gen(),
        };
        self.frames.extend(flowgen::synthesize(&spec));
        self.stats.flows += 1;
        self.stats.tracker_announces += 1;
    }

    // ---------------------------------------------------------- sampling

    fn choose_instance(&mut self, id: ServiceId) -> u32 {
        let svc = self.catalog.service(id);
        if svc.instances <= 1 {
            return 0;
        }
        if svc.unbounded {
            // Birth process: new names keep appearing (Fig. 6).
            let next = self.instance_next.entry(id).or_insert(4);
            if self.rng.gen::<f64>() < 0.30 {
                let i = *next;
                *next += 1;
                i
            } else {
                let u: f64 = self.rng.gen();
                ((u * u) * (*next as f64)) as u32
            }
        } else {
            // Skewed towards low indices.
            let u: f64 = self.rng.gen();
            ((u * u * u) * svc.instances as f64) as u32
        }
    }

    fn pick_server(&mut self, servers: &[Ipv4Addr]) -> Ipv4Addr {
        // Clients overwhelmingly connect to the first answer; resolvers
        // already rotate the list for load balancing.
        if servers.len() == 1 || self.rng.gen::<f64>() < 0.97 {
            servers[0]
        } else {
            servers[self.rng.gen_range(0..servers.len())]
        }
    }

    fn jittered_rtt(&mut self) -> u64 {
        let base = self.profile.tech.rtt_micros() as f64;
        (base * (0.6 + self.rng.gen::<f64>() * 1.2)) as u64
    }

    /// First-flow delay distribution (Fig. 12): ~90% sub-second, ~5%
    /// 1–10 s, ~5% beyond 10 s (prefetch-then-use-later), scaled by access
    /// technology.
    fn first_flow_delay(&mut self) -> u64 {
        let u: f64 = self.rng.gen();
        let ms = if u < 0.90 {
            self.log_uniform(20.0, 900.0)
        } else if u < 0.95 {
            self.log_uniform(1_000.0, 10_000.0)
        } else {
            self.log_uniform(10_000.0, 400_000.0)
        };
        let tech_factor = match self.profile.tech {
            crate::config::AccessTech::Ftth => 0.5,
            crate::config::AccessTech::Adsl => 1.0,
            crate::config::AccessTech::Mobile3g => 2.2,
        };
        (ms * tech_factor * 1_000.0) as u64
    }

    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u: f64 = self.rng.gen();
        (lo.ln() + u * (hi.ln() - lo.ln())).exp()
    }

    fn exp(&mut self, mean: f64) -> u64 {
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        (-mean * u.ln()) as u64
    }

    fn poisson(&mut self, mean: f64) -> u32 {
        if mean <= 0.0 {
            return 0;
        }
        let l = (-mean).exp();
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= self.rng.gen::<f64>();
            if p <= l || k > 1000 {
                return k;
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    fn tiny_profile() -> TraceProfile {
        let mut p = profiles::profile_by_name("EU1-FTTH").unwrap();
        p.clients = 6;
        p.duration_hours = 0.5;
        p
    }

    #[test]
    fn generates_sorted_parseable_frames() {
        let g = TraceGenerator::new(tiny_profile(), false);
        let trace = g.generate();
        assert!(trace.records.len() > 100, "got {}", trace.records.len());
        let mut last = 0;
        for r in &trace.records {
            assert!(r.timestamp_micros() >= last);
            last = r.timestamp_micros();
            dnhunter_net::Packet::parse(&r.frame).expect("every frame parses");
        }
    }

    #[test]
    fn determinism_per_seed() {
        let a = TraceGenerator::new(tiny_profile(), false).generate();
        let b = TraceGenerator::new(tiny_profile(), false).generate();
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.records[10], b.records[10]);
        let mut p2 = tiny_profile();
        p2.seed ^= 0xdead;
        let c = TraceGenerator::new(p2, false).generate();
        assert_ne!(a.records.len(), c.records.len());
    }

    #[test]
    fn stats_account_for_activity() {
        let trace = TraceGenerator::new(tiny_profile(), false).generate();
        let s = trace.stats;
        assert!(s.page_views > 0);
        assert!(s.flows > 0);
        assert!(s.dns_queries > 0);
        assert!(s.accesses >= s.page_views);
    }

    #[test]
    fn ptr_zone_is_populated() {
        let trace = TraceGenerator::new(tiny_profile(), false).generate();
        assert!(!trace.ptr_zone.is_empty());
    }

    #[test]
    fn pcap_roundtrip() {
        let trace = TraceGenerator::new(tiny_profile(), false).generate();
        let bytes = trace.write_pcap(Vec::new()).unwrap();
        let reader = dnhunter_net::PcapReader::new(std::io::Cursor::new(bytes)).unwrap();
        let n = reader.inspect(|r| assert!(r.is_ok())).count();
        assert_eq!(n, trace.records.len());
    }

    #[test]
    fn live_mode_includes_appspot_trackers() {
        let mut p = profiles::live_profile();
        p.clients = 16;
        p.p2p_client_fraction = 0.5;
        p.duration_hours = 24.0;
        let g = TraceGenerator::new(p, true);
        assert!(!g.tracker_schedules().is_empty());
        let trace = g.generate();
        assert!(trace.stats.tracker_announces > 0);
    }
}
