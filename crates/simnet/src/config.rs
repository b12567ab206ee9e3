//! Trace profiles: the knobs that differentiate the five paper traces.

/// Access technology at the vantage point — drives RTT and delay spreads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessTech {
    Ftth,
    Adsl,
    Mobile3g,
}

impl AccessTech {
    /// Median client↔server round-trip time in microseconds.
    pub fn rtt_micros(self) -> u64 {
        match self {
            AccessTech::Ftth => 12_000,
            AccessTech::Adsl => 45_000,
            AccessTech::Mobile3g => 180_000,
        }
    }

    /// Client↔local-DNS-resolver delay in microseconds.
    pub fn dns_delay_micros(self) -> u64 {
        match self {
            AccessTech::Ftth => 4_000,
            AccessTech::Adsl => 18_000,
            AccessTech::Mobile3g => 90_000,
        }
    }
}

/// Vantage-point geography — selects per-service hosting weights
/// (Fig. 9, Tab. 5 differ between US and EU viewpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geography {
    Us,
    Eu,
}

/// Everything that parameterises one synthetic trace.
///
/// Rates are scaled down from the paper's multi-million-flow traces
/// (see DESIGN.md §2); the `scale` factor multiplies the client population
/// if a larger run is wanted.
#[derive(Debug, Clone)]
pub struct TraceProfile {
    /// Trace name as reported in tables (e.g. "EU1-ADSL1").
    pub name: String,
    /// RNG seed — same seed, same trace, bit for bit.
    pub seed: u64,
    pub tech: AccessTech,
    pub geography: Geography,
    /// Absolute epoch (µs) of the first frame; paper traces are from 2011.
    pub start_epoch_micros: u64,
    /// Local start hour (affects the diurnal curve phase), 0–23.
    pub start_hour: f64,
    /// Trace duration in hours.
    pub duration_hours: f64,
    /// Monitored client population.
    pub clients: usize,
    /// Mean page views per client per hour at full diurnal activity.
    pub views_per_client_hour: f64,
    /// Mean embedded resources fetched per page view.
    pub embedded_per_view: f64,
    /// Mean prefetch-only resolutions per page view (drives Tab. 9).
    pub prefetch_per_view: f64,
    /// Fraction of clients running BitTorrent.
    pub p2p_client_fraction: f64,
    /// Peer-wire flows generated per tracker announce.
    pub peers_per_announce: f64,
    /// Mean hours between tracker announces of a P2P client.
    pub announce_interval_hours: f64,
    /// Fraction of clients whose traffic is tunnelled over a single
    /// HTTPS endpoint resolved before the trace (3G: lowers hit ratio).
    pub tunnel_client_fraction: f64,
    /// Fraction of clients that "arrive" mid-trace with a warm OS cache
    /// (mobility: the DNS response happened outside our vantage point).
    pub mobility_client_fraction: f64,
    /// Probability that a popular name is already cached at t=0 (drives the
    /// warm-up misses of Tab. 2).
    pub prewarm_prob: f64,
    /// Steady-state probability that a needed resolution happens out of
    /// sight (home-gateway DNS cache, OS quirks) — the paper's residual
    /// misses beyond the warm-up window.
    pub invisible_resolution_prob: f64,
    /// Fraction of clients that are dual-stack and fetch some content over
    /// IPv6 (AAAA resolutions + v6 flows).
    pub ipv6_client_fraction: f64,
    /// Hours per content-mix epoch. When > 0, the popularity ranking the
    /// browsing samplers draw from rotates every epoch of trace time, so
    /// sliding-window aggregates provably differ from the global ones
    /// (0 = stationary mix, the paper-trace default).
    pub mix_epoch_hours: f64,
    /// Warm-up window (µs) the evaluation excludes, as in the paper (5 min).
    pub warmup_micros: u64,
}

impl TraceProfile {
    /// Duration in microseconds.
    pub fn duration_micros(&self) -> u64 {
        (self.duration_hours * 3600.0 * 1e6) as u64
    }

    /// Local wall-clock hour for a trace-relative timestamp.
    pub fn hour_of_day(&self, ts_micros: u64) -> f64 {
        (self.start_hour + ts_micros as f64 / 3.6e9) % 24.0
    }

    /// Scale the client population (and thus every rate) by `factor`.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.clients = ((self.clients as f64 * factor).round() as usize).max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> TraceProfile {
        TraceProfile {
            name: "TEST".into(),
            seed: 1,
            tech: AccessTech::Adsl,
            geography: Geography::Eu,
            start_epoch_micros: 1_300_000_000_000_000,
            start_hour: 8.0,
            duration_hours: 24.0,
            clients: 100,
            views_per_client_hour: 6.0,
            embedded_per_view: 3.0,
            prefetch_per_view: 2.0,
            p2p_client_fraction: 0.05,
            peers_per_announce: 30.0,
            announce_interval_hours: 0.5,
            tunnel_client_fraction: 0.0,
            mobility_client_fraction: 0.0,
            prewarm_prob: 0.3,
            invisible_resolution_prob: 0.05,
            ipv6_client_fraction: 0.0,
            mix_epoch_hours: 0.0,
            warmup_micros: 300_000_000,
        }
    }

    #[test]
    fn duration_and_hours() {
        let p = profile();
        assert_eq!(p.duration_micros(), 86_400_000_000);
        assert!((p.hour_of_day(0) - 8.0).abs() < 1e-9);
        assert!((p.hour_of_day(3_600_000_000) - 9.0).abs() < 1e-9);
        // Wraps at midnight.
        assert!((p.hour_of_day(20 * 3_600_000_000) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_population() {
        let p = profile().scaled(0.1);
        assert_eq!(p.clients, 10);
        let q = profile().scaled(0.0001);
        assert_eq!(q.clients, 1); // never zero
    }

    #[test]
    fn tech_latencies_are_ordered() {
        assert!(AccessTech::Ftth.rtt_micros() < AccessTech::Adsl.rtt_micros());
        assert!(AccessTech::Adsl.rtt_micros() < AccessTech::Mobile3g.rtt_micros());
        assert!(AccessTech::Ftth.dns_delay_micros() < AccessTech::Mobile3g.dns_delay_micros());
    }
}
