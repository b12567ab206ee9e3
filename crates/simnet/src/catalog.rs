//! The content catalog: who owns which names, what services live under
//! them, and which organizations' servers deliver them.
//!
//! The catalog is the synthetic counterpart of "the web as seen from the
//! vantage point". Every domain/service that appears in the paper's
//! figures and tables is modelled here — LinkedIn's and Zynga's CDN split
//! (Figs. 7–8), the Facebook/Twitter/Dailymotion hosting matrices (Fig. 9),
//! the Amazon EC2 tenant mix (Tab. 5), the mail/chat/tracker services whose
//! tokens drive Tables 6–7, and the diurnally-expanding pools of Fig. 4.
//! Pool sizes are scaled down ~5–10× from the paper's absolute counts; the
//! relative ordering and temporal shape are preserved (see DESIGN.md).

use dnhunter_dns::DomainName;

use crate::config::Geography;
use crate::diurnal;

/// How a service's concrete FQDNs are formed below the domain's SLD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamePattern {
    /// The bare second-level domain (`zynga.com`).
    Apex,
    /// A fixed sub-name, possibly multi-label (`iphone.stats`).
    Fixed(&'static str),
    /// A numbered family; `{}` is replaced by the instance number
    /// (`media{}` → `media1`, `media2`, …).
    Numbered(&'static str),
}

/// What bytes the flow carries — selects the payload synthesizer and thereby
/// the DPI ground-truth class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadStyle {
    Http,
    Tls,
    Smtp,
    Pop3,
    Imap,
    Rtsp,
    Msn,
    Xmpp,
    /// HTTP BitTorrent tracker announce (DPI class: P2P).
    TrackerHttp,
    /// Opaque binary protocol (push services, proprietary messengers…).
    BinaryTcp,
}

/// Certificate behaviour of a TLS service (Tab. 4 classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertPolicy {
    /// CN equals the FQDN.
    Exact,
    /// Generic wildcard CN (`*.google.com`).
    Wildcard,
    /// CN names the hosting CDN's machine, not the service.
    CdnName,
}

/// Server-pool size over the day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoolSchedule {
    /// Constant pool.
    Flat(u32),
    /// Grows with the diurnal activity curve (fbcdn.net in Fig. 4).
    Diurnal { min: u32, max: u32 },
    /// Step change during an evening window (YouTube's 17:00–20:30 jump
    /// in Fig. 4).
    Step {
        base: u32,
        peak: u32,
        start_hour: f64,
        end_hour: f64,
    },
}

impl PoolSchedule {
    /// Active pool size at a local-time hour.
    pub fn size_at(&self, hour: f64) -> u32 {
        match *self {
            PoolSchedule::Flat(n) => n.max(1),
            PoolSchedule::Diurnal { min, max } => {
                let a = diurnal::activity(hour);
                let f = ((a - 0.15) / 0.85).clamp(0.0, 1.0);
                (min as f64 + (max.saturating_sub(min)) as f64 * f).round() as u32
            }
            PoolSchedule::Step {
                base,
                peak,
                start_hour,
                end_hour,
            } => {
                let h = hour.rem_euclid(24.0);
                if h >= start_hour && h < end_hour {
                    peak.max(1)
                } else {
                    base.max(1)
                }
            }
        }
    }

    /// The maximum size the schedule can reach (block allocation size).
    pub fn max_size(&self) -> u32 {
        match *self {
            PoolSchedule::Flat(n) => n.max(1),
            PoolSchedule::Diurnal { max, .. } => max.max(1),
            PoolSchedule::Step { base, peak, .. } => base.max(peak).max(1),
        }
    }
}

/// One hosting arrangement: an organization's pool serving a service, with
/// per-geography selection weight.
#[derive(Debug, Clone)]
pub struct Hosting {
    pub org: &'static str,
    pub pool: PoolSchedule,
    pub weight_us: f64,
    pub weight_eu: f64,
    /// Draw servers from the org's *shared* estate (same addresses serve
    /// many tenants — EC2, Akamai) rather than a dedicated block.
    pub shared: bool,
}

impl Hosting {
    /// Dedicated pool with equal weight in both geographies.
    pub fn new(org: &'static str, pool: PoolSchedule) -> Self {
        Hosting {
            org,
            pool,
            weight_us: 1.0,
            weight_eu: 1.0,
            shared: false,
        }
    }

    /// Set per-geography weights.
    pub fn geo(mut self, us: f64, eu: f64) -> Self {
        self.weight_us = us;
        self.weight_eu = eu;
        self
    }

    /// Mark as shared-estate hosting.
    pub fn shared(mut self) -> Self {
        self.shared = true;
        self
    }

    /// Selection weight for a geography.
    pub fn weight(&self, geo: Geography) -> f64 {
        match geo {
            Geography::Us => self.weight_us,
            Geography::Eu => self.weight_eu,
        }
    }
}

/// One service: a family of FQDNs under a domain, a layer-4 personality,
/// and its hosting arrangements.
#[derive(Debug, Clone)]
pub struct Service {
    pub pattern: NamePattern,
    /// Concrete FQDN instances for `Numbered` patterns.
    pub instances: u32,
    /// Unbounded instance space: fresh names keep appearing over time
    /// (drives the FQDN birth process of Fig. 6).
    pub unbounded: bool,
    pub port: u16,
    pub style: PayloadStyle,
    /// Relative access weight (before geography).
    pub popularity: f64,
    pub weight_us: f64,
    pub weight_eu: f64,
    /// DNS TTL seconds for this service's records.
    pub ttl: u32,
    /// Maximum answers per DNS response (answer-list rotation draws
    /// 1..=this, skewed towards 1).
    pub answers_max: u8,
    /// May be fetched as an embedded resource from any page.
    pub embeddable: bool,
    pub hosting: Vec<Hosting>,
    /// Probability multiplier that a client had this name cached before the
    /// trace started (warm OS caches → early sniffer misses).
    pub prewarm_boost: f64,
    /// Immediately follow an access with an access to this sub-name on the
    /// same servers (HTTP redirection → §6 label confusion).
    pub redirect_to: Option<&'static str>,
    /// Response body size range in KiB.
    pub resp_kib: (u32, u32),
    pub cert: CertPolicy,
    /// Pin each instance to one stable server (small dedicated sites) —
    /// the mass of single-IP FQDNs in Fig. 3's top plot.
    pub pinned: bool,
}

impl Service {
    /// A service with sensible defaults; tune with the builder methods.
    pub fn new(pattern: NamePattern, port: u16, style: PayloadStyle) -> Self {
        Service {
            pattern,
            instances: 1,
            unbounded: false,
            port,
            style,
            popularity: 1.0,
            weight_us: 1.0,
            weight_eu: 1.0,
            ttl: 300,
            answers_max: 3,
            embeddable: false,
            hosting: Vec::new(),
            prewarm_boost: 1.0,
            redirect_to: None,
            resp_kib: (2, 30),
            cert: CertPolicy::Exact,
            pinned: false,
        }
    }

    pub fn pop(mut self, p: f64) -> Self {
        self.popularity = p;
        self
    }
    pub fn geo(mut self, us: f64, eu: f64) -> Self {
        self.weight_us = us;
        self.weight_eu = eu;
        self
    }
    pub fn instances(mut self, n: u32) -> Self {
        self.instances = n.max(1);
        self
    }
    pub fn unbounded(mut self) -> Self {
        self.unbounded = true;
        self
    }
    pub fn ttl(mut self, t: u32) -> Self {
        self.ttl = t;
        self
    }
    pub fn answers(mut self, n: u8) -> Self {
        self.answers_max = n.max(1);
        self
    }
    pub fn embeddable(mut self) -> Self {
        self.embeddable = true;
        self
    }
    pub fn host(mut self, h: Hosting) -> Self {
        self.hosting.push(h);
        self
    }
    pub fn prewarm(mut self, f: f64) -> Self {
        self.prewarm_boost = f;
        self
    }
    pub fn redirect(mut self, sub: &'static str) -> Self {
        self.redirect_to = Some(sub);
        self
    }
    pub fn resp(mut self, lo: u32, hi: u32) -> Self {
        self.resp_kib = (lo, hi.max(lo));
        self
    }
    pub fn cert(mut self, c: CertPolicy) -> Self {
        self.cert = c;
        self
    }
    pub fn pinned(mut self) -> Self {
        self.pinned = true;
        self
    }

    /// Popularity weight in a geography.
    pub fn weight(&self, geo: Geography) -> f64 {
        self.popularity
            * match geo {
                Geography::Us => self.weight_us,
                Geography::Eu => self.weight_eu,
            }
    }

    /// The concrete FQDN of instance `i` under `sld`.
    pub fn fqdn(&self, sld: &str, i: u32) -> DomainName {
        let s = match self.pattern {
            NamePattern::Apex => sld.to_string(),
            NamePattern::Fixed(sub) => format!("{sub}.{sld}"),
            NamePattern::Numbered(pat) => {
                let sub = pat.replace("{}", &(i + 1).to_string());
                format!("{sub}.{sld}")
            }
        };
        s.parse().expect("catalog names are valid")
    }
}

/// A second-level domain and its services.
#[derive(Debug, Clone)]
pub struct Domain {
    pub sld: &'static str,
    pub services: Vec<Service>,
}

impl Domain {
    pub fn new(sld: &'static str, services: Vec<Service>) -> Self {
        Domain { sld, services }
    }
}

/// Identifies one service in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceId {
    pub domain: usize,
    pub service: usize,
}

/// The whole catalog plus samplers.
#[derive(Debug, Clone)]
pub struct Catalog {
    pub domains: Vec<Domain>,
}

impl Catalog {
    /// Service by id.
    pub fn service(&self, id: ServiceId) -> &Service {
        &self.domains[id.domain].services[id.service]
    }

    /// Domain of a service.
    pub fn domain(&self, id: ServiceId) -> &Domain {
        &self.domains[id.domain]
    }

    /// All service ids.
    pub fn service_ids(&self) -> Vec<ServiceId> {
        let mut out = Vec::new();
        for (d, dom) in self.domains.iter().enumerate() {
            for s in 0..dom.services.len() {
                out.push(ServiceId {
                    domain: d,
                    service: s,
                });
            }
        }
        out
    }

    /// Cumulative-weight sampler over all services for a geography.
    /// Returns (cumulative weights, ids); sample with a uniform draw in
    /// [0, total).
    pub fn sampler(&self, geo: Geography, filter: impl Fn(&Service) -> bool) -> ServiceSampler {
        let mut cum = Vec::new();
        let mut ids = Vec::new();
        let mut total = 0.0;
        for id in self.service_ids() {
            let svc = self.service(id);
            let w = svc.weight(geo);
            if w > 0.0 && filter(svc) {
                total += w;
                cum.push(total);
                ids.push(id);
            }
        }
        ServiceSampler { cum, ids, total }
    }
}

/// Weighted sampler over services.
#[derive(Debug, Clone)]
pub struct ServiceSampler {
    cum: Vec<f64>,
    ids: Vec<ServiceId>,
    total: f64,
}

impl ServiceSampler {
    /// Number of sampleable services.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing is sampleable.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Map a uniform draw `u ∈ [0,1)` to a service.
    pub fn sample(&self, u: f64) -> Option<ServiceId> {
        if self.ids.is_empty() {
            return None;
        }
        let x = u.clamp(0.0, 0.999_999_9) * self.total;
        let i = self.cum.partition_point(|&c| c <= x);
        Some(self.ids[i.min(self.ids.len() - 1)])
    }
}

/// Build the catalog that backs all paper experiments. `include_appspot`
/// adds the `appspot.com` model used by the live-trace case study.
pub fn paper_catalog(include_appspot: bool) -> Catalog {
    use CertPolicy::*;
    use NamePattern::*;
    use PayloadStyle::*;
    use PoolSchedule::*;

    let mut domains = vec![
        // ------------------------------------------------------ google.com
        Domain::new(
            "google.com",
            vec![
                Service::new(Apex, 80, Http)
                    .pop(1.2)
                    .redirect("www")
                    .answers(16)
                    .ttl(300)
                    .host(Hosting::new("google", Flat(16)).shared()),
                Service::new(Fixed("www"), 80, Http)
                    .pop(7.0)
                    .answers(16)
                    .ttl(300)
                    .prewarm(2.5)
                    .host(Hosting::new("google", Flat(16)).shared()),
                Service::new(Fixed("mail"), 443, Tls)
                    .pop(3.5)
                    .answers(16)
                    .ttl(300)
                    .cert(Wildcard)
                    .prewarm(2.0)
                    .host(Hosting::new("google", Flat(16)).shared()),
                Service::new(Fixed("docs"), 443, Tls)
                    .pop(1.4)
                    .answers(8)
                    .cert(CdnName)
                    .host(Hosting::new("google", Flat(16)).shared()),
                Service::new(Fixed("accounts"), 443, Tls)
                    .pop(1.8)
                    .answers(8)
                    .cert(CdnName)
                    .host(Hosting::new("google", Flat(16)).shared()),
                Service::new(Fixed("maps"), 80, Http)
                    .pop(1.2)
                    .answers(8)
                    .host(Hosting::new("google", Flat(16)).shared()),
                Service::new(Fixed("scholar"), 443, Tls)
                    .pop(0.3)
                    .cert(Wildcard)
                    .host(Hosting::new("google", Flat(16)).shared()),
                // Gmail SMTP endpoints (Tab. 6 port 25: smtpN, mail, gmail,
                // aspmx tokens).
                Service::new(Numbered("smtp{}.mail"), 25, Smtp)
                    .instances(4)
                    .pop(0.5)
                    .geo(0.4, 1.0)
                    .host(Hosting::new("google", Flat(6)).shared()),
                Service::new(Fixed("aspmx.l.gmail"), 25, Smtp)
                    .pop(0.35)
                    .geo(0.4, 1.0)
                    .host(Hosting::new("google", Flat(4)).shared()),
                // Google Talk / Android push (Tab. 7 ports 5222/5228).
                Service::new(Fixed("chat"), 5222, Xmpp)
                    .pop(1.6)
                    .geo(2.2, 0.8)
                    .host(Hosting::new("google", Flat(8)).shared()),
                Service::new(Fixed("mtalk"), 5228, BinaryTcp)
                    .pop(2.8)
                    .geo(3.0, 0.5)
                    .ttl(1800)
                    .host(Hosting::new("google", Flat(8)).shared()),
            ],
        ),
        // ----------------------------------------------------- youtube.com
        Domain::new(
            "youtube.com",
            vec![
                Service::new(Fixed("www"), 80, Http)
                    .pop(5.5)
                    .answers(8)
                    .ttl(300)
                    .prewarm(1.6)
                    .resp(30, 400)
                    .host(Hosting::new(
                        "google",
                        Step {
                            base: 10,
                            peak: 60,
                            start_hour: 17.0,
                            end_hour: 20.5,
                        },
                    )),
                Service::new(Numbered("r{}.sn-cache"), 80, Http)
                    .instances(24)
                    .pop(3.0)
                    .embeddable()
                    .resp(100, 900)
                    .host(Hosting::new(
                        "google",
                        Step {
                            base: 12,
                            peak: 48,
                            start_hour: 17.0,
                            end_hour: 20.5,
                        },
                    )),
            ],
        ),
        // ----------------------------------------------------- ytimg.com
        Domain::new(
            "ytimg.com",
            vec![Service::new(Numbered("i{}"), 80, Http)
                .instances(4)
                .pop(1.8)
                .embeddable()
                .host(Hosting::new("google", Flat(8)).shared())],
        ),
        // --------------------------------------------------- blogspot.com
        Domain::new(
            "blogspot.com",
            vec![Service::new(Numbered("blog-{}"), 80, Http)
                .unbounded()
                .instances(600)
                .pop(3.6)
                .ttl(3600)
                .pinned()
                .host(Hosting::new("google", Flat(12)).shared())],
        ),
        // --------------------------------------------------- facebook.com
        Domain::new(
            "facebook.com",
            vec![
                Service::new(Apex, 80, Http)
                    .pop(1.5)
                    .redirect("www")
                    .host(Hosting::new("facebook", Diurnal { min: 12, max: 40 })),
                Service::new(Fixed("www"), 80, Http)
                    .pop(6.5)
                    .prewarm(2.2)
                    .ttl(900)
                    .host(Hosting::new("facebook", Diurnal { min: 12, max: 40 }).geo(1.0, 1.0))
                    .host(Hosting::new("akamai", Flat(6)).geo(0.10, 0.14).shared()),
                Service::new(Fixed("login"), 443, Tls)
                    .pop(2.2)
                    .cert(CdnName)
                    .host(Hosting::new("facebook", Diurnal { min: 8, max: 24 })),
                Service::new(Fixed("api"), 443, Tls)
                    .pop(1.6)
                    .cert(CdnName)
                    .host(Hosting::new("facebook", Diurnal { min: 8, max: 24 })),
            ],
        ),
        // ------------------------------------------------------ fbcdn.net
        Domain::new(
            "fbcdn.net",
            vec![
                Service::new(Numbered("photos-{}.ak"), 80, Http)
                    .unbounded()
                    .instances(400)
                    .pop(5.5)
                    .embeddable()
                    .answers(6)
                    .ttl(120)
                    .resp(10, 120)
                    .host(Hosting::new("akamai", Diurnal { min: 25, max: 120 }).shared()),
                Service::new(Numbered("static-{}.ak"), 80, Http)
                    .instances(12)
                    .pop(2.5)
                    .embeddable()
                    .answers(33)
                    .ttl(120)
                    .host(Hosting::new("akamai", Diurnal { min: 25, max: 120 }).shared()),
            ],
        ),
        // ---------------------------------------------------- twitter.com
        Domain::new(
            "twitter.com",
            vec![
                Service::new(Fixed("www"), 443, Tls)
                    .pop(3.2)
                    .cert(CdnName)
                    .ttl(600)
                    .prewarm(1.6)
                    .host(Hosting::new("twitter", Diurnal { min: 6, max: 20 }).geo(0.92, 0.55))
                    .host(Hosting::new("akamai", Flat(8)).geo(0.08, 0.45).shared()),
                Service::new(Fixed("api"), 443, Tls)
                    .pop(2.0)
                    .cert(CdnName)
                    .host(Hosting::new("twitter", Diurnal { min: 6, max: 20 }).geo(0.9, 0.6))
                    .host(Hosting::new("akamai", Flat(8)).geo(0.1, 0.4).shared()),
            ],
        ),
        // ------------------------------------------------------ twimg.com
        Domain::new(
            "twimg.com",
            vec![Service::new(Numbered("a{}"), 80, Http)
                .instances(5)
                .pop(2.2)
                .geo(1.0, 1.3)
                .embeddable()
                .ttl(120)
                .answers(4)
                .host(Hosting::new("amazon", Diurnal { min: 8, max: 30 }).shared())],
        ),
        // --------------------------------------------------- linkedin.com
        // Fig. 7: mediaN → Akamai (2 servers, 17% of flows); media →
        // EdgeCast (1 server, 59%); platform/staticN → CDNetworks (15
        // servers, 3%); www + others → LinkedIn itself (3 servers, 22%).
        Domain::new(
            "linkedin.com",
            vec![
                Service::new(Numbered("media{}"), 80, Http)
                    .instances(6)
                    .pop(0.34)
                    .geo(1.8, 0.8)
                    .ttl(600)
                    .host(Hosting::new("akamai", Flat(2))),
                Service::new(Fixed("media"), 80, Http)
                    .pop(1.18)
                    .geo(1.8, 0.8)
                    .ttl(600)
                    .host(Hosting::new("edgecast", Flat(1))),
                Service::new(Fixed("platform"), 80, Http)
                    .pop(0.03)
                    .host(Hosting::new("cdnetworks", Flat(15))),
                Service::new(Numbered("static{}"), 80, Http)
                    .instances(4)
                    .pop(0.03)
                    .host(Hosting::new("cdnetworks", Flat(15))),
                Service::new(Fixed("www"), 443, Tls)
                    .pop(0.36)
                    .geo(1.8, 0.8)
                    .cert(Exact)
                    .prewarm(1.4)
                    .host(Hosting::new("linkedin", Flat(3))),
                Service::new(Numbered("m{}"), 80, Http)
                    .instances(7)
                    .pop(0.08)
                    .geo(1.8, 0.8)
                    .host(Hosting::new("linkedin", Flat(3))),
            ],
        ),
        // ------------------------------------------------------ zynga.com
        // Fig. 8: games on Amazon EC2 (≈500 IPs, 86% of flows), static
        // assets on Akamai (30 IPs, 7%), MafiaWars & co. on Zynga's own
        // servers (28 IPs, 7%).
        Domain::new(
            "zynga.com",
            vec![
                Service::new(Fixed("farmville.facebook"), 80, Http)
                    .pop(1.1)
                    .ttl(60)
                    .answers(4)
                    .host(Hosting::new("amazon", Diurnal { min: 40, max: 110 }).shared()),
                Service::new(Fixed("cityville"), 80, Http)
                    .pop(0.8)
                    .ttl(60)
                    .answers(4)
                    .host(Hosting::new("amazon", Diurnal { min: 40, max: 110 }).shared()),
                Service::new(Fixed("petville"), 80, Http)
                    .pop(0.35)
                    .ttl(60)
                    .host(Hosting::new("amazon", Diurnal { min: 40, max: 110 }).shared()),
                Service::new(Fixed("fishville.facebook"), 80, Http)
                    .pop(0.3)
                    .ttl(60)
                    .host(Hosting::new("amazon", Diurnal { min: 40, max: 110 }).shared()),
                Service::new(Fixed("frontierville"), 80, Http)
                    .pop(0.3)
                    .ttl(60)
                    .host(Hosting::new("amazon", Diurnal { min: 40, max: 110 }).shared()),
                Service::new(Fixed("treasure"), 80, Http)
                    .pop(0.2)
                    .host(Hosting::new("amazon", Diurnal { min: 40, max: 110 }).shared()),
                Service::new(Fixed("cafe"), 80, Http)
                    .pop(0.2)
                    .host(Hosting::new("amazon", Diurnal { min: 40, max: 110 }).shared()),
                Service::new(Fixed("poker"), 80, Http)
                    .pop(0.35)
                    .host(Hosting::new("amazon", Diurnal { min: 40, max: 110 }).shared()),
                Service::new(Fixed("iphone.stats"), 80, Http)
                    .pop(0.25)
                    .geo(1.6, 0.6)
                    .host(Hosting::new("amazon", Diurnal { min: 40, max: 110 }).shared()),
                Service::new(Numbered("fb_client_{}"), 80, Http)
                    .instances(9)
                    .pop(0.3)
                    .host(Hosting::new("amazon", Diurnal { min: 40, max: 110 }).shared()),
                Service::new(Fixed("zbar"), 80, Http)
                    .pop(0.15)
                    .host(Hosting::new("amazon", Diurnal { min: 40, max: 110 }).shared()),
                Service::new(Fixed("sslrewards"), 443, Tls)
                    .pop(0.12)
                    .cert(CdnName)
                    .host(Hosting::new("amazon", Diurnal { min: 40, max: 110 }).shared()),
                Service::new(Fixed("assets.static"), 80, Http)
                    .pop(0.28)
                    .embeddable()
                    .host(Hosting::new("akamai", Flat(30)).shared()),
                Service::new(Fixed("avatars.static"), 80, Http)
                    .pop(0.12)
                    .embeddable()
                    .host(Hosting::new("akamai", Flat(30)).shared()),
                Service::new(Fixed("mafiawars"), 80, Http)
                    .pop(0.25)
                    .host(Hosting::new("zynga", Flat(28))),
                Service::new(Fixed("vampires"), 80, Http)
                    .pop(0.08)
                    .host(Hosting::new("zynga", Flat(28))),
                Service::new(Numbered("streetracing.myspace{}"), 80, Http)
                    .instances(4)
                    .pop(0.07)
                    .geo(1.5, 0.4)
                    .host(Hosting::new("zynga", Flat(28))),
                Service::new(Fixed("www"), 80, Http)
                    .pop(0.12)
                    .host(Hosting::new("zynga", Flat(28))),
                Service::new(Numbered("secure{}"), 443, Tls)
                    .instances(3)
                    .pop(0.08)
                    .cert(Exact)
                    .host(Hosting::new("zynga", Flat(28))),
            ],
        ),
        // ---------------------------------------------------- dropbox.com
        Domain::new(
            "dropbox.com",
            vec![
                Service::new(Fixed("client"), 443, Tls)
                    .pop(1.4)
                    .cert(CdnName)
                    .ttl(300)
                    .resp(20, 400)
                    .host(Hosting::new("amazon", Diurnal { min: 15, max: 45 }).shared()),
                Service::new(Fixed("www"), 443, Tls)
                    .pop(0.5)
                    .cert(Exact)
                    .host(Hosting::new("amazon", Diurnal { min: 15, max: 45 }).shared()),
            ],
        ),
        // ------------------------------------------------ dailymotion.com
        // Fig. 9: Dedibox everywhere; self-hosting and Meta/NTT only in the
        // US view; EdgeCast only in the EU view.
        Domain::new(
            "dailymotion.com",
            vec![
                Service::new(Fixed("www"), 80, Http)
                    .pop(1.9)
                    .geo(0.8, 1.6)
                    .resp(50, 600)
                    .host(Hosting::new("dedibox", Diurnal { min: 8, max: 25 }).geo(0.45, 0.72))
                    .host(Hosting::new("dailymotion", Flat(6)).geo(0.40, 0.0))
                    .host(Hosting::new("meta", Flat(4)).geo(0.15, 0.0))
                    .host(Hosting::new("ntt", Flat(4)).geo(0.15, 0.0))
                    .host(Hosting::new("edgecast", Flat(3)).geo(0.0, 0.28)),
                Service::new(Numbered("proxy-{}"), 80, Http)
                    .instances(8)
                    .pop(0.9)
                    .geo(0.8, 1.5)
                    .embeddable()
                    .resp(100, 900)
                    .host(Hosting::new("dedibox", Diurnal { min: 8, max: 25 }).geo(0.6, 0.75))
                    .host(Hosting::new("meta", Flat(4)).geo(0.2, 0.0))
                    .host(Hosting::new("ntt", Flat(4)).geo(0.2, 0.0))
                    .host(Hosting::new("edgecast", Flat(3)).geo(0.0, 0.25)),
            ],
        ),
        // -------------------------------------- Amazon EC2 tenants (Tab. 5)
        Domain::new(
            "cloudfront.net",
            vec![Service::new(Numbered("d{}"), 80, Http)
                .unbounded()
                .instances(300)
                .pop(2.6)
                .geo(1.0, 1.9)
                .embeddable()
                .ttl(60)
                .answers(8)
                .host(Hosting::new("amazon", Diurnal { min: 20, max: 60 }).shared())],
        ),
        Domain::new(
            "invitemedia.com",
            vec![Service::new(Numbered("ad{}"), 80, Http)
                .instances(6)
                .pop(1.6)
                .geo(2.0, 0.5)
                .embeddable()
                .ttl(60)
                .host(Hosting::new("amazon", Flat(10)).shared())],
        ),
        Domain::new(
            "playfish.com",
            vec![Service::new(Fixed("cdn"), 80, Http)
                .pop(1.3)
                .geo(0.1, 2.4)
                .ttl(120)
                .host(Hosting::new("amazon", Flat(12)).shared())],
        ),
        Domain::new(
            "sharethis.com",
            vec![Service::new(Fixed("w"), 80, Http)
                .pop(1.0)
                .geo(1.3, 0.9)
                .embeddable()
                .ttl(300)
                .host(Hosting::new("amazon", Flat(8)).shared())],
        ),
        Domain::new(
            "rubiconproject.com",
            vec![Service::new(Fixed("optimized-by"), 80, Http)
                .pop(0.9)
                .geo(1.7, 0.5)
                .embeddable()
                .ttl(60)
                .host(Hosting::new("amazon", Flat(8)).shared())],
        ),
        Domain::new(
            "andomedia.com",
            vec![Service::new(Fixed("media"), 80, Http)
                .pop(0.7)
                .geo(1.4, 0.02)
                .embeddable()
                .host(Hosting::new("amazon", Flat(6)).shared())],
        ),
        Domain::new(
            "mobclix.com",
            vec![Service::new(Fixed("ads"), 80, Http)
                .pop(0.6)
                .geo(1.2, 0.02)
                .embeddable()
                .host(Hosting::new("amazon", Flat(6)).shared())],
        ),
        Domain::new(
            "admarvel.com",
            vec![Service::new(Fixed("ads"), 80, Http)
                .pop(0.5)
                .geo(1.1, 0.02)
                .embeddable()
                .host(Hosting::new("amazon", Flat(5)).shared())],
        ),
        Domain::new(
            "amazon.com",
            vec![Service::new(Fixed("www"), 80, Http)
                .pop(1.4)
                .geo(1.3, 0.5)
                .resp(20, 150)
                .host(Hosting::new("amazon", Flat(14)).shared())],
        ),
        Domain::new(
            "amazonaws.com",
            vec![Service::new(Numbered("s3-{}"), 80, Http)
                .instances(12)
                .pop(0.8)
                .geo(0.9, 1.0)
                .embeddable()
                .host(Hosting::new("amazon", Flat(16)).shared())],
        ),
        Domain::new(
            "imdb.com",
            vec![Service::new(Fixed("www"), 80, Http)
                .pop(0.5)
                .geo(0.5, 0.9)
                .host(Hosting::new("amazon", Flat(6)).shared())],
        ),
        // ------------------------------------------------------ apple.com
        Domain::new(
            "apple.com",
            vec![
                Service::new(Fixed("itunes"), 443, Tls)
                    .pop(1.5)
                    .cert(CdnName)
                    .host(Hosting::new("apple", Flat(6))),
                Service::new(Fixed("www"), 80, Http)
                    .pop(1.0)
                    .host(Hosting::new("apple", Flat(6))),
                // Apple push (Tab. 7 port 5223: courier/push tokens).
                Service::new(Numbered("courier{}.push"), 5223, BinaryTcp)
                    .instances(8)
                    .pinned()
                    .pop(0.9)
                    .geo(1.8, 0.6)
                    .ttl(1800)
                    .host(Hosting::new("apple", Flat(10))),
                Service::new(Fixed("imap.mail"), 143, Imap)
                    .pop(0.12)
                    .geo(0.6, 1.0)
                    .host(Hosting::new("apple", Flat(3))),
            ],
        ),
        // ----------------------------------------------------- flurry.com
        Domain::new(
            "flurry.com",
            vec![Service::new(Fixed("data"), 80, Http)
                .pop(1.1)
                .geo(1.8, 0.5)
                .embeddable()
                .ttl(600)
                .answers(3)
                .host(Hosting::new("flurry", Flat(3)))],
        ),
        // -------------------------------------------------- wikipedia.org
        Domain::new(
            "wikipedia.org",
            vec![Service::new(Fixed("en"), 80, Http)
                .pop(1.6)
                .ttl(3600)
                .host(Hosting::new("wikipedia", Flat(5)))],
        ),
        // ------------------------------------------------------ yahoo.com
        Domain::new(
            "yahoo.com",
            vec![
                Service::new(Fixed("www"), 80, Http)
                    .pop(1.4)
                    .host(Hosting::new("yahoo", Flat(8))),
                Service::new(Fixed("mail"), 443, Tls)
                    .pop(0.9)
                    .cert(Exact)
                    .host(Hosting::new("yahoo", Flat(8))),
                // Yahoo Messenger voice/chat (Tab. 7 port 5050).
                Service::new(Fixed("msg.webcs"), 5050, BinaryTcp)
                    .pop(0.55)
                    .geo(1.6, 0.3)
                    .host(Hosting::new("yahoo", Flat(4))),
                Service::new(Fixed("sip.voipa"), 5050, BinaryTcp)
                    .pop(0.25)
                    .geo(1.5, 0.3)
                    .host(Hosting::new("yahoo", Flat(4))),
            ],
        ),
        // ------------------------------------------- Italian mail provider
        // (Tab. 6 is from EU1-FTTH: classic ISP mail on 25/110/143/587/995.)
        Domain::new(
            "mailprovider.it",
            vec![
                Service::new(Numbered("smtp{}"), 25, Smtp)
                    .instances(3)
                    .pinned()
                    .pop(1.2)
                    .geo(0.15, 1.6)
                    .host(Hosting::new("mailprovider", Flat(4))),
                Service::new(Numbered("mail{}"), 25, Smtp)
                    .instances(4)
                    .pinned()
                    .pop(0.5)
                    .geo(0.1, 1.2)
                    .host(Hosting::new("mailprovider", Flat(4))),
                Service::new(Numbered("mx{}"), 25, Smtp)
                    .instances(3)
                    .pinned()
                    .pop(0.45)
                    .geo(0.1, 1.1)
                    .host(Hosting::new("mailprovider", Flat(4))),
                Service::new(Fixed("mailin.altn"), 25, Smtp)
                    .pop(0.3)
                    .geo(0.05, 0.9)
                    .host(Hosting::new("mailprovider", Flat(2))),
                Service::new(Fixed("pop.mail"), 110, Pop3)
                    .pop(1.6)
                    .geo(0.15, 1.8)
                    .prewarm(1.3)
                    .host(Hosting::new("mailprovider", Flat(4))),
                Service::new(Numbered("pop{}.mail"), 110, Pop3)
                    .instances(4)
                    .pinned()
                    .pop(0.8)
                    .geo(0.1, 1.4)
                    .host(Hosting::new("mailprovider", Flat(4))),
                Service::new(Fixed("mailbus"), 110, Pop3)
                    .pop(0.3)
                    .geo(0.05, 0.9)
                    .host(Hosting::new("mailprovider", Flat(2))),
                Service::new(Fixed("imap.mail"), 143, Imap)
                    .pop(0.5)
                    .geo(0.1, 1.3)
                    .host(Hosting::new("mailprovider", Flat(3))),
                Service::new(Fixed("pop.imap"), 143, Imap)
                    .pop(0.2)
                    .geo(0.05, 0.8)
                    .host(Hosting::new("mailprovider", Flat(3))),
                Service::new(Fixed("smtp.auth"), 587, Smtp)
                    .pop(0.35)
                    .geo(0.1, 1.0)
                    .host(Hosting::new("mailprovider", Flat(2))),
                Service::new(Fixed("pop.auth"), 587, Smtp)
                    .pop(0.12)
                    .geo(0.05, 0.6)
                    .host(Hosting::new("mailprovider", Flat(2))),
                Service::new(Fixed("imap.auth"), 587, Smtp)
                    .pop(0.06)
                    .geo(0.02, 0.5)
                    .host(Hosting::new("mailprovider", Flat(2))),
                Service::new(Numbered("pop{}.secure"), 995, Tls)
                    .instances(3)
                    .pinned()
                    .pop(0.7)
                    .geo(0.1, 1.4)
                    .cert(Exact)
                    .host(Hosting::new("mailprovider", Flat(3))),
                Service::new(Fixed("pop.mail.pec"), 995, Tls)
                    .pop(0.3)
                    .geo(0.0, 0.9)
                    .cert(Exact)
                    .host(Hosting::new("mailprovider", Flat(2))),
            ],
        ),
        // --------------------------------------------- Microsoft live/msn
        Domain::new(
            "live.com",
            vec![
                Service::new(Numbered("pop{}.hot.glbdns"), 995, Tls)
                    .instances(3)
                    .pop(0.6)
                    .geo(0.3, 1.2)
                    .cert(Wildcard)
                    .host(Hosting::new("microsoft", Flat(6))),
                Service::new(Fixed("mail.hot.glbdns"), 995, Tls)
                    .pop(0.3)
                    .geo(0.2, 0.9)
                    .cert(Wildcard)
                    .host(Hosting::new("microsoft", Flat(6))),
                Service::new(Fixed("www"), 443, Tls)
                    .pop(0.9)
                    .cert(Wildcard)
                    .host(Hosting::new("microsoft", Flat(10))),
            ],
        ),
        Domain::new(
            "msn.com",
            vec![
                // MSN Messenger (Tab. 6 port 1863).
                Service::new(Fixed("messenger"), 1863, Msn)
                    .pop(0.8)
                    .geo(0.5, 1.3)
                    .host(Hosting::new("microsoft", Flat(5))),
                Service::new(Fixed("relay.edge.messenger"), 1863, Msn)
                    .pop(0.25)
                    .geo(0.4, 1.0)
                    .host(Hosting::new("microsoft", Flat(5))),
                Service::new(Fixed("voice.relay.emea.messenger"), 1863, Msn)
                    .pop(0.15)
                    .geo(0.1, 0.9)
                    .host(Hosting::new("microsoft", Flat(5))),
                Service::new(Fixed("www"), 80, Http)
                    .pop(0.9)
                    .host(Hosting::new("microsoft", Flat(10))),
            ],
        ),
        // --------------------------------------------------- RTSP streaming
        Domain::new(
            "rai.it",
            vec![Service::new(Fixed("streaming"), 554, Rtsp)
                .pop(0.25)
                .geo(0.02, 0.9)
                .host(Hosting::new("smallhosts", Flat(3)))],
        ),
        // ------------------------------------------------------ opera mini
        Domain::new(
            "opera-mini.net",
            vec![Service::new(Numbered("mini{}.opera"), 1080, BinaryTcp)
                .instances(6)
                .pinned()
                .pop(0.7)
                .geo(1.8, 0.2)
                .ttl(1800)
                .host(Hosting::new("opera", Flat(6)))],
        ),
        // ----------------------------------------------------------- AOL
        Domain::new(
            "aol.com",
            vec![Service::new(Fixed("americaonline"), 5190, BinaryTcp)
                .pop(0.35)
                .geo(1.4, 0.1)
                .host(Hosting::new("aol", Flat(4)))],
        ),
        // ----------------------------------------------------- Second Life
        Domain::new(
            "lindenlab.com",
            vec![
                Service::new(Numbered("sim{}.agni"), 12043, BinaryTcp)
                    .instances(12)
                    .pinned()
                    .pop(0.4)
                    .geo(1.5, 0.1)
                    .ttl(1800)
                    .host(Hosting::new("lindenlab", Flat(16))),
                Service::new(Numbered("sim{}.agni"), 12046, BinaryTcp)
                    .instances(12)
                    .pinned()
                    .pop(0.3)
                    .geo(1.4, 0.1)
                    .ttl(1800)
                    .host(Hosting::new("lindenlab", Flat(16))),
            ],
        ),
        // ------------------------------------------------- BitTorrent trackers
        Domain::new(
            "1337x.org",
            vec![
                Service::new(Fixed("exodus"), 1337, TrackerHttp)
                    .pop(0.9)
                    .geo(1.6, 0.7)
                    .ttl(1800)
                    .host(Hosting::new("smallhosts", Flat(2))),
                Service::new(Fixed("genesis"), 1337, TrackerHttp)
                    .pop(0.45)
                    .geo(1.5, 0.6)
                    .ttl(1800)
                    .host(Hosting::new("smallhosts", Flat(2))),
            ],
        ),
        Domain::new(
            "openbittorrent.org",
            vec![
                Service::new(Fixed("tracker"), 2710, TrackerHttp)
                    .pop(0.7)
                    .geo(1.3, 0.9)
                    .ttl(1800)
                    .host(Hosting::new("smallhosts", Flat(2))),
                Service::new(Fixed("www.tracker"), 2710, TrackerHttp)
                    .pop(0.12)
                    .geo(1.1, 0.7)
                    .host(Hosting::new("smallhosts", Flat(1))),
            ],
        ),
        Domain::new(
            "publicbt.org",
            vec![
                Service::new(Fixed("tracker"), 6969, TrackerHttp)
                    .pop(0.9)
                    .geo(1.3, 1.0)
                    .ttl(1800)
                    .host(Hosting::new("smallhosts", Flat(3))),
                Service::new(Numbered("tracker{}"), 6969, TrackerHttp)
                    .instances(4)
                    .pinned()
                    .pop(0.25)
                    .geo(1.2, 0.8)
                    .host(Hosting::new("smallhosts", Flat(2))),
                Service::new(Fixed("torrent.exodus"), 6969, TrackerHttp)
                    .pop(0.12)
                    .geo(1.1, 0.6)
                    .host(Hosting::new("smallhosts", Flat(1))),
            ],
        ),
        Domain::new(
            "btdig.org",
            vec![Service::new(Fixed("useful.broker"), 18182, TrackerHttp)
                .pop(0.5)
                .geo(1.5, 0.4)
                .ttl(1800)
                .host(Hosting::new("smallhosts", Flat(2)))],
        ),
        // ------------------------------- small CDN tenants (Fig. 5 tail)
        Domain::new(
            "streamcdn.net",
            vec![Service::new(Numbered("edge{}"), 80, Http)
                .instances(6)
                .pop(0.5)
                .embeddable()
                .ttl(120)
                .host(Hosting::new("level 3", Flat(8)))],
        ),
        Domain::new(
            "filepush.net",
            vec![Service::new(Numbered("dl{}"), 80, Http)
                .instances(5)
                .pop(0.4)
                .embeddable()
                .ttl(300)
                .host(Hosting::new("leaseweb", Flat(6)))],
        ),
        Domain::new(
            "adimg.net",
            vec![Service::new(Numbered("img{}"), 80, Http)
                .instances(4)
                .pop(0.35)
                .embeddable()
                .ttl(120)
                .host(Hosting::new("cotendo", Flat(4)))],
        ),
        // ----------------------------------------- long tail of small sites
        Domain::new(
            "smallsites.net",
            vec![Service::new(Numbered("site-{}"), 80, Http)
                .unbounded()
                .instances(2000)
                .pop(12.0)
                .ttl(3600)
                .pinned()
                .host(Hosting::new("smallhosts", Flat(2000)))],
        ),
        Domain::new(
            "smallsecure.net",
            vec![Service::new(Numbered("shop-{}"), 443, Tls)
                .unbounded()
                .instances(800)
                .pop(3.2)
                .cert(Exact)
                .ttl(3600)
                .pinned()
                .host(Hosting::new("smallhosts", Flat(800)))],
        ),
    ];

    if include_appspot {
        domains.push(appspot_domain());
    }

    Catalog { domains }
}

/// The `appspot.com` model (§5.6): Google-hosted web apps, a third of which
/// turn out to be BitTorrent trackers. Tracker activity schedules live in
/// [`crate::appspot`]; this is just the name/hosting structure.
pub fn appspot_domain() -> Domain {
    use NamePattern::*;
    use PayloadStyle::*;
    use PoolSchedule::*;

    Domain::new(
        "appspot.com",
        vec![
            // The 45 trackers of Fig. 11, across a few name families so the
            // tag cloud (Fig. 10) shows the paper's flavour of names.
            Service::new(Numbered("open-tracker-{}"), 80, TrackerHttp)
                .instances(15)
                .pop(1.2)
                .ttl(600)
                .host(Hosting::new("google", Flat(10)).shared()),
            Service::new(Numbered("rlskingbt-{}"), 80, TrackerHttp)
                .instances(12)
                .pop(0.9)
                .ttl(600)
                .host(Hosting::new("google", Flat(10)).shared()),
            Service::new(Numbered("bt-swarm-{}"), 80, TrackerHttp)
                .instances(10)
                .pop(0.7)
                .ttl(600)
                .host(Hosting::new("google", Flat(10)).shared()),
            Service::new(Numbered("annex-tracker-{}"), 80, TrackerHttp)
                .instances(8)
                .pop(0.5)
                .ttl(600)
                .host(Hosting::new("google", Flat(10)).shared()),
            // Legitimate apps: many names, fewer flows each, fat downloads
            // (Tab. 8's General Services row).
            Service::new(Numbered("game-{}"), 80, Http)
                .unbounded()
                .instances(300)
                .pop(2.4)
                .resp(30, 200)
                .ttl(600)
                .host(Hosting::new("google", Flat(12)).shared()),
            Service::new(Numbered("tool-{}"), 80, Http)
                .unbounded()
                .instances(250)
                .pop(1.9)
                .resp(30, 160)
                .ttl(600)
                .host(Hosting::new("google", Flat(12)).shared()),
            Service::new(Numbered("blogapp-{}"), 80, Http)
                .unbounded()
                .instances(280)
                .pop(1.7)
                .resp(20, 120)
                .ttl(600)
                .host(Hosting::new("google", Flat(12)).shared()),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_builds_and_names_are_valid() {
        let c = paper_catalog(true);
        assert!(c.domains.len() > 25);
        for id in c.service_ids() {
            let svc = c.service(id);
            let dom = c.domain(id);
            // Every pattern expands to a valid name for a few instances.
            for i in 0..3.min(svc.instances) {
                let f = svc.fqdn(dom.sld, i);
                assert!(f.label_count() >= 2, "{f}");
            }
            assert!(!svc.hosting.is_empty(), "{} has no hosting", dom.sld);
        }
    }

    /// The sink's allocation-free token walk yields exactly the reference
    /// model's Algorithm 4 tokens, in order, for every name the catalog
    /// generates (unbounded families sampled far past their first
    /// instances), and an apex name yields none.
    #[test]
    fn token_walk_matches_the_reference_on_every_catalog_name() {
        use dnhunter_dns::check::NameModel;
        use dnhunter_dns::suffix::SuffixSet;
        use dnhunter_dns::{tokenize_fqdn, TokenBuf};

        let suffixes = SuffixSet::builtin();
        let c = paper_catalog(true);
        let mut buf = TokenBuf::default();
        let mut names = 0;
        for id in c.service_ids() {
            let (svc, dom) = (c.service(id), c.domain(id));
            let far = if svc.unbounded {
                vec![99, 12_345]
            } else {
                Vec::new()
            };
            for i in (0..svc.instances).chain(far) {
                let fqdn = svc.fqdn(dom.sld, i);
                let (_, below) = fqdn.split_second_level(&suffixes);
                buf.fill(below);
                let walked: Vec<&str> = buf.iter().collect();
                assert_eq!(walked, NameModel::of(&fqdn).tokens(), "{fqdn}");
                assert_eq!(walked, tokenize_fqdn(&fqdn, &suffixes), "{fqdn}");
                if matches!(svc.pattern, NamePattern::Apex) {
                    assert!(buf.is_empty(), "apex {fqdn} tokenized");
                }
                names += 1;
            }
        }
        assert!(names > 100, "only {names} catalog names walked");
    }

    #[test]
    fn fqdn_patterns() {
        let s = Service::new(NamePattern::Apex, 80, PayloadStyle::Http);
        assert_eq!(s.fqdn("zynga.com", 0).to_string(), "zynga.com");
        let s = Service::new(NamePattern::Fixed("iphone.stats"), 80, PayloadStyle::Http);
        assert_eq!(s.fqdn("zynga.com", 0).to_string(), "iphone.stats.zynga.com");
        let s = Service::new(NamePattern::Numbered("media{}"), 80, PayloadStyle::Http);
        assert_eq!(s.fqdn("linkedin.com", 0).to_string(), "media1.linkedin.com");
        assert_eq!(s.fqdn("linkedin.com", 4).to_string(), "media5.linkedin.com");
    }

    #[test]
    fn pool_schedules() {
        let flat = PoolSchedule::Flat(7);
        assert_eq!(flat.size_at(3.0), 7);
        assert_eq!(flat.max_size(), 7);

        let di = PoolSchedule::Diurnal { min: 10, max: 100 };
        assert!(di.size_at(21.0) > di.size_at(4.0) * 3);
        assert_eq!(di.max_size(), 100);

        let step = PoolSchedule::Step {
            base: 10,
            peak: 60,
            start_hour: 17.0,
            end_hour: 20.5,
        };
        assert_eq!(step.size_at(12.0), 10);
        assert_eq!(step.size_at(18.0), 60);
        assert_eq!(step.size_at(20.4), 60);
        assert_eq!(step.size_at(20.6), 10);
    }

    #[test]
    fn sampler_respects_geography() {
        let c = paper_catalog(false);
        let us = c.sampler(Geography::Us, |_| true);
        let eu = c.sampler(Geography::Eu, |_| true);
        assert!(!us.is_empty() && !eu.is_empty());
        // andomedia is US-only in practice (weight_eu = 0.02): count
        // samples landing on it across a deterministic sweep.
        let andomedia: Vec<usize> = c
            .service_ids()
            .iter()
            .enumerate()
            .filter(|(_, id)| c.domain(**id).sld == "andomedia.com")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(andomedia.len(), 1);
        let mut us_hits = 0;
        let mut eu_hits = 0;
        for k in 0..20_000 {
            let u = (k as f64 + 0.5) / 20_000.0;
            if c.domain(us.sample(u).unwrap()).sld == "andomedia.com" {
                us_hits += 1;
            }
            if c.domain(eu.sample(u).unwrap()).sld == "andomedia.com" {
                eu_hits += 1;
            }
        }
        assert!(us_hits > eu_hits * 5, "us={us_hits} eu={eu_hits}");
    }

    #[test]
    fn sampler_filter_restricts() {
        let c = paper_catalog(false);
        let only_tls = c.sampler(Geography::Eu, |s| s.style == PayloadStyle::Tls);
        for k in 0..100 {
            let id = only_tls.sample(k as f64 / 100.0).unwrap();
            assert_eq!(c.service(id).style, PayloadStyle::Tls);
        }
    }

    #[test]
    fn appspot_included_only_on_request() {
        let without = paper_catalog(false);
        let with = paper_catalog(true);
        assert!(!without.domains.iter().any(|d| d.sld == "appspot.com"));
        assert!(with.domains.iter().any(|d| d.sld == "appspot.com"));
    }

    #[test]
    fn embeddables_exist_in_both_geographies() {
        let c = paper_catalog(false);
        for geo in [Geography::Us, Geography::Eu] {
            let s = c.sampler(geo, |svc| svc.embeddable);
            assert!(s.len() > 4, "{geo:?} has too few embeddables");
        }
    }
}
