//! One-pass streaming analytics: the paper's offline algorithms as
//! bounded-memory incremental state, fed by the engine while the trace
//! streams through (DESIGN.md "Streaming analytics and bounded-memory
//! summaries").
//!
//! The offline modules in `dnhunter-analytics` consume the complete
//! [`crate::SnifferReport`] — a full flow log buffered in memory. A
//! long-running daemon cannot afford that, so [`StreamingAnalytics`]
//! maintains, per worker shard, exactly the aggregates the paper's
//! algorithms need and nothing per-flow:
//!
//! * **Spatial (Alg. 2):** FQDN → server-IP occurrence counts and
//!   2nd-level-domain → server-IP occurrence counts.
//! * **Content (Alg. 3):** organization → (2nd-level domain → flow count).
//! * **Service tags (Alg. 4, Eq. 1):** port → token → client → flow count,
//!   from which `score(X) = Σ_c ln(N_X(c)+1)` is derived at render time.
//! * **Growth (Fig. 6):** per-entity birth-bin multisets, from which the
//!   cumulative unique-entity curves are reconstructed (an entity's birth
//!   bin is the minimum bin still holding one of its flows).
//! * **Delays (Figs. 12–13, Tab. 9):** log2 histograms
//!   ([`dnhunter_telemetry::Log2Hist`] — the same counter-summary shape the
//!   telemetry registry uses) over first-flow and any-flow delays, plus the
//!   answered/useless response counters.
//!
//! **Merge determinism.** Every piece of state is a sum over ordered maps
//! — commutative and associative — so folding per-shard partials in any
//! order yields exactly the sequential run's state, and everything rendered
//! from the folded state (periodic packet-clock snapshot lines plus the
//! final summary) is byte-identical at any `--workers N`. Snapshot lines
//! are scheduled on the packet clock but *derived at finish* from the
//! per-bin counters: emitting them live from one shard's partial view would
//! break that byte-identity.
//!
//! **Retraction.** Because every data field is an occurrence count (what
//! used to be set-union state is a refcounted multiset, and what used to be
//! a min-timestamp is a bin-keyed multiset whose minimum is its first key),
//! every merge has an exact inverse: [`StreamingAnalytics::unmerge`]
//! subtracts a previously merged partial with checked arithmetic, deleting
//! entries whose count reaches zero so the result is indistinguishable from
//! never having merged. This is what lets `dnhunter::stream::windowed`
//! maintain sliding windows by retiring whole time buckets (DESIGN.md
//! "Windowed analytics and retraction"). The two run anchors
//! (`trace_start`, `last_ts`) are deliberately excluded: they are monotone
//! extremes a subtraction cannot restore, and nothing rendered reads them
//! (`last_ts` is write-only; windowed views override `trace_start`).
//!
//! **Memory bounds.** State grows with distinct entities (times active
//! snapshot bins for the birth multisets), not flows. A configurable cap
//! ([`StreamingConfig::max_tracked`]) stops each family of maps from
//! growing past the budget; drops are counted in `dropped_entities` and
//! reported in the summary. While no drop occurs (the default cap of 2^20
//! entities is far above trace scale) streaming aggregates equal the
//! offline modules exactly; past the cap they degrade to documented
//! under-counts — and because caps apply per shard, a run that drops
//! entities is no longer guaranteed byte-identical across worker counts.
//! The equivalence tests pin `dropped_entities == 0`.

use std::any::Any;
use std::collections::BTreeMap;
use std::net::IpAddr;

use dnhunter_dns::suffix::SuffixSet;
use dnhunter_dns::tokenizer::tokenize_fqdn;
use dnhunter_dns::DomainName;
use dnhunter_orgdb::{builtin_registry, OrgDb};
use dnhunter_telemetry::{self as telemetry, tm_trace, Log2Hist, TraceEvent as Te};

use crate::db::TaggedFlow;

/// Windowed sibling of this module: time-bucketed partial sinks with
/// merge/retract window maintenance (`dnhunter::stream::windowed`).
pub use crate::window as windowed;

/// Finite log2 buckets for the delay histograms: `2^39 µs` ≈ 6.4 days,
/// wide enough that real DNS-to-flow delays never hit the overflow cell.
pub const DELAY_HIST_BUCKETS: usize = 40;

/// Events the engine feeds a streaming sink, in per-shard event order.
///
/// A sink must be mergeable: the parallel pipeline gives each worker its
/// own sink and folds them after the join, so implementations may only
/// keep state whose merge is order-independent (see the module docs).
/// Every event carries its packet timestamp — the windowed sink routes on
/// it, so the time an event is attributed to is part of the contract.
pub trait FlowSink: Send {
    /// First frame timestamp of the whole trace (not just this shard).
    /// Fired once, before any other event of the run.
    fn on_trace_start(&mut self, ts: u64);
    /// A DNS response carrying at least one A/AAAA answer, at its frame
    /// timestamp.
    fn on_answered_response(&mut self, ts: u64);
    /// The *first* flow matching an answered response started
    /// `delay_micros` after it (one event per answered response at most —
    /// the Fig. 12 sample). `ts` is the flow-start timestamp the sample
    /// is attributed to.
    fn on_first_flow_delay(&mut self, ts: u64, delay_micros: u64);
    /// *Any* flow matched a response `delay_micros` after it (the Fig. 13
    /// sample; fires for every tagged flow start). `ts` is the flow-start
    /// timestamp the sample is attributed to.
    fn on_any_flow_delay(&mut self, ts: u64, delay_micros: u64);
    /// A flow finished (eviction, port reuse, or final flush) and its
    /// database row is complete. `flow.second_level` is still unset here;
    /// sinks derive it themselves.
    fn on_flow_finished(&mut self, flow: &TaggedFlow);
    /// Daemon-mode state rotation: retire and return every time bucket
    /// strictly before the packet-clock `horizon` (µs), as `(bucket_index,
    /// partial)` pairs. The engine guarantees no further event at a
    /// timestamp below `horizon` except under injected reordering, which
    /// the windowed sink counts rather than mis-attributes. Sinks without
    /// time-bucketed state (the default) have nothing to retire.
    fn rotate(&mut self, _horizon: u64) -> Vec<(u64, StreamingAnalytics)> {
        Vec::new()
    }
    /// Downcast support for [`StreamingAnalytics::fold`].
    fn as_any_box(self: Box<Self>) -> Box<dyn Any + Send>;
}

/// Tuning for [`StreamingAnalytics`].
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// Packet-clock width of one snapshot bin (µs). Snapshot lines and the
    /// reconstructed growth curves use this granularity.
    pub snapshot_interval_micros: u64,
    /// Entries per ranking in the rendered summary.
    pub top_k: usize,
    /// Soft cap on tracked entities per state family (distinct FQDNs,
    /// organizations, tokens per port, …). Inserts beyond the cap are
    /// dropped and counted.
    pub max_tracked: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            snapshot_interval_micros: 300 * 1_000_000,
            top_k: 10,
            max_tracked: 1 << 20,
        }
    }
}

/// A retraction failed because the subtracted partial was not contained
/// in the receiver. `field` names the first [`StreamState`] field whose
/// checked subtraction underflowed, so every sink field is accounted for
/// in diagnostics (and the xtask L11 lint keeps the unmerge coverage
/// complete). The receiver may be left partially retracted; callers
/// rebuild from the surviving buckets (see `window.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetractError {
    /// The state field that failed its checked subtraction.
    pub field: &'static str,
}

impl std::fmt::Display for RetractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retraction underflow in streaming state field `{}`",
            self.field
        )
    }
}

/// Checked subtraction every piece of retractable sink state implements.
///
/// `retract` removes `other`'s contribution exactly or fails without a
/// silent wrap; `is_void` tells a parent container the value carries no
/// information left and must be deleted, so a retracted map is
/// byte-identical to one that never saw the merged entries.
trait Retract {
    fn retract(&mut self, other: &Self) -> Result<(), ()>;
    fn is_void(&self) -> bool;
}

impl Retract for u64 {
    fn retract(&mut self, other: &Self) -> Result<(), ()> {
        *self = self.checked_sub(*other).ok_or(())?;
        Ok(())
    }
    fn is_void(&self) -> bool {
        *self == 0
    }
}

impl<K: Ord + Clone, V: Retract> Retract for BTreeMap<K, V> {
    fn retract(&mut self, other: &Self) -> Result<(), ()> {
        for (k, v) in other {
            let slot = self.get_mut(k).ok_or(())?;
            slot.retract(v)?;
            if slot.is_void() {
                self.remove(k);
            }
        }
        Ok(())
    }
    fn is_void(&self) -> bool {
        self.is_empty()
    }
}

/// Per-snapshot-bin counters (packet clock, relative to trace start).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct BinCounters {
    flows: u64,
    labeled: u64,
    responses: u64,
}

impl Retract for BinCounters {
    fn retract(&mut self, other: &Self) -> Result<(), ()> {
        self.flows.retract(&other.flows)?;
        self.labeled.retract(&other.labeled)?;
        self.responses.retract(&other.responses)?;
        Ok(())
    }
    fn is_void(&self) -> bool {
        self.flows == 0 && self.labeled == 0 && self.responses == 0
    }
}

/// Per-entity birth record: snapshot bin → number of labeled flows whose
/// `first_ts` fell in that bin. The entity's birth bin is the minimum key,
/// which survives retraction exactly (removing one bucket's flows deletes
/// its bins when their count reaches zero, re-exposing the next-oldest).
type BirthBins = BTreeMap<u64, u64>;

/// The mergeable aggregate state. Separated from [`StreamingAnalytics`] so
/// equality (used by the determinism tests) covers exactly the data, not
/// the suffix/org lookup tables. Every field is either subtractive state
/// covered by `unmerge` or an explicitly waived run anchor — the xtask
/// L11 lint enforces that no field is silently missing an inverse.
// retract_state(unmerge)
#[derive(Debug, Clone, PartialEq, Eq)]
struct StreamState {
    trace_start: Option<u64>, // not_retracted: monotone run anchor (min over shards); windowed views override it
    last_ts: Option<u64>, // not_retracted: monotone run anchor (max over shards); write-only, nothing rendered reads it
    flows: u64,
    labeled_flows: u64,
    answered_responses: u64,
    first_flow_count: u64,
    /// Alg. 2: FQDN → (server → labeled-flow count). The key set of the
    /// inner map is the paper's server set; counts make it retractable.
    fqdn_servers: BTreeMap<DomainName, BTreeMap<IpAddr, u64>>,
    /// Alg. 2: 2nd-level domain → (server → labeled-flow count).
    sld_servers: BTreeMap<DomainName, BTreeMap<IpAddr, u64>>,
    /// Alg. 3: organization → (2nd-level domain → labeled flow count).
    org_content: BTreeMap<String, BTreeMap<DomainName, u64>>,
    /// Alg. 4: port → token → client → flow count (N_X(c) of Eq. 1).
    tag_counts: BTreeMap<u16, BTreeMap<String, BTreeMap<IpAddr, u64>>>,
    /// Labeled flows per server port (ranks ports in the summary).
    port_flows: BTreeMap<u16, u64>,
    /// Fig. 6 birth processes: entity → bin-keyed flow multiset (see
    /// [`BirthBins`]).
    fqdn_birth: BTreeMap<DomainName, BirthBins>,
    sld_birth: BTreeMap<DomainName, BirthBins>,
    server_birth: BTreeMap<IpAddr, BirthBins>,
    /// Packet-clock snapshot bins.
    bins: BTreeMap<u64, BinCounters>,
    first_flow_hist: Log2Hist,
    any_flow_hist: Log2Hist,
    /// Entities discarded by the `max_tracked` cap (summed across families
    /// and, after a fold, across shards).
    dropped_entities: u64,
}

impl StreamState {
    fn new() -> Self {
        StreamState {
            trace_start: None,
            last_ts: None,
            flows: 0,
            labeled_flows: 0,
            answered_responses: 0,
            first_flow_count: 0,
            fqdn_servers: BTreeMap::new(),
            sld_servers: BTreeMap::new(),
            org_content: BTreeMap::new(),
            tag_counts: BTreeMap::new(),
            port_flows: BTreeMap::new(),
            fqdn_birth: BTreeMap::new(),
            sld_birth: BTreeMap::new(),
            server_birth: BTreeMap::new(),
            bins: BTreeMap::new(),
            first_flow_hist: Log2Hist::new(DELAY_HIST_BUCKETS),
            any_flow_hist: Log2Hist::new(DELAY_HIST_BUCKETS),
            dropped_entities: 0,
        }
    }
}

/// Reconstructed Fig. 6 growth curves (mirrors
/// `dnhunter-analytics`' `GrowthCurves` field-for-field).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamGrowth {
    pub bin_starts: Vec<u64>,
    pub unique_fqdns: Vec<u64>,
    pub unique_second_levels: Vec<u64>,
    pub unique_servers: Vec<u64>,
}

/// Mutate-or-drop insert under the entity cap: returns the value slot when
/// the key exists or fits, else counts a drop.
fn capped<'m, K: Ord, V: Default>(
    map: &'m mut BTreeMap<K, V>,
    key: K,
    cap: usize,
    dropped: &mut u64,
) -> Option<&'m mut V> {
    if map.len() >= cap && !map.contains_key(&key) {
        *dropped = dropped.saturating_add(1);
        return None;
    }
    Some(map.entry(key).or_default())
}

/// Number of entities per birth bin: each entity contributes once, at its
/// minimum (first) recorded bin.
fn birth_bin_counts<K>(map: &BTreeMap<K, BirthBins>) -> BTreeMap<u64, u64> {
    let mut out: BTreeMap<u64, u64> = BTreeMap::new();
    for bins in map.values() {
        if let Some((&bin, _)) = bins.iter().next() {
            *out.entry(bin).or_default() += 1;
        }
    }
    out
}

/// The streaming analytics sink (see the module docs).
pub struct StreamingAnalytics {
    cfg: StreamingConfig,
    suffixes: SuffixSet,
    orgdb: OrgDb,
    state: StreamState,
}

impl StreamingAnalytics {
    /// A fresh sink. Each pipeline worker gets its own (the suffix set and
    /// org database are per-sink copies so updates stay lock-free).
    pub fn new(cfg: StreamingConfig) -> Self {
        let mut cfg = cfg;
        cfg.snapshot_interval_micros = cfg.snapshot_interval_micros.max(1);
        cfg.max_tracked = cfg.max_tracked.max(1);
        StreamingAnalytics {
            cfg,
            suffixes: SuffixSet::builtin(),
            orgdb: builtin_registry(),
            state: StreamState::new(),
        }
    }

    /// The configuration the sink runs with.
    pub fn config(&self) -> &StreamingConfig {
        &self.cfg
    }

    fn bin_of(&self, ts: u64) -> u64 {
        ts.saturating_sub(self.state.trace_start.unwrap_or(ts)) / self.cfg.snapshot_interval_micros
    }

    /// Fold per-worker partials (in shard order) back into one aggregate.
    /// Returns `None` when `sinks` is empty or holds a foreign sink type.
    pub fn fold(sinks: Vec<Box<dyn FlowSink>>) -> Option<StreamingAnalytics> {
        let mut acc: Option<StreamingAnalytics> = None;
        for sink in sinks {
            let part = *sink.as_any_box().downcast::<StreamingAnalytics>().ok()?;
            match &mut acc {
                None => acc = Some(part),
                Some(a) => a.merge(part),
            }
        }
        acc
    }

    /// Commutative, associative merge of another partial into this one.
    pub fn merge(&mut self, other: StreamingAnalytics) {
        self.merge_ref(&other);
    }

    /// [`merge`](Self::merge) by reference: the windowed layer folds the
    /// same bucket partial into many window positions, so the source must
    /// survive the call.
    pub fn merge_ref(&mut self, other: &StreamingAnalytics) {
        let cap = self.cfg.max_tracked;
        let s = &mut self.state;
        let o = &other.state;
        s.trace_start = match (s.trace_start, o.trace_start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        s.last_ts = match (s.last_ts, o.last_ts) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        s.flows += o.flows;
        s.labeled_flows += o.labeled_flows;
        s.answered_responses += o.answered_responses;
        s.first_flow_count += o.first_flow_count;
        s.dropped_entities += o.dropped_entities;
        let mut dropped = 0u64;
        for (fqdn, servers) in &o.fqdn_servers {
            if let Some(m) = capped(&mut s.fqdn_servers, fqdn.clone(), cap, &mut dropped) {
                for (ip, n) in servers {
                    if let Some(c) = capped(m, *ip, cap, &mut dropped) {
                        *c += n;
                    }
                }
            }
        }
        for (sld, servers) in &o.sld_servers {
            if let Some(m) = capped(&mut s.sld_servers, sld.clone(), cap, &mut dropped) {
                for (ip, n) in servers {
                    if let Some(c) = capped(m, *ip, cap, &mut dropped) {
                        *c += n;
                    }
                }
            }
        }
        for (org, domains) in &o.org_content {
            if let Some(m) = capped(&mut s.org_content, org.clone(), cap, &mut dropped) {
                for (sld, n) in domains {
                    if let Some(c) = capped(m, sld.clone(), cap, &mut dropped) {
                        *c += n;
                    }
                }
            }
        }
        for (port, tokens) in &o.tag_counts {
            // Never materialise a void entry: retraction removes keys when
            // their value empties, so a key held only by empty values would
            // vanish while another partial still "owns" it, and retracting
            // that partial would underflow.
            if tokens.is_empty() {
                continue;
            }
            if let Some(m) = capped(&mut s.tag_counts, *port, cap, &mut dropped) {
                for (token, clients) in tokens {
                    if let Some(cm) = capped(m, token.clone(), cap, &mut dropped) {
                        for (client, n) in clients {
                            if let Some(c) = capped(cm, *client, cap, &mut dropped) {
                                *c += n;
                            }
                        }
                    }
                }
            }
        }
        for (port, n) in &o.port_flows {
            *s.port_flows.entry(*port).or_default() += n;
        }
        for (fqdn, bins) in &o.fqdn_birth {
            if let Some(m) = capped(&mut s.fqdn_birth, fqdn.clone(), cap, &mut dropped) {
                for (bin, n) in bins {
                    *m.entry(*bin).or_default() += n;
                }
            }
        }
        for (sld, bins) in &o.sld_birth {
            if let Some(m) = capped(&mut s.sld_birth, sld.clone(), cap, &mut dropped) {
                for (bin, n) in bins {
                    *m.entry(*bin).or_default() += n;
                }
            }
        }
        for (ip, bins) in &o.server_birth {
            if let Some(m) = capped(&mut s.server_birth, *ip, cap, &mut dropped) {
                for (bin, n) in bins {
                    *m.entry(*bin).or_default() += n;
                }
            }
        }
        for (bin, counters) in &o.bins {
            let c = s.bins.entry(*bin).or_default();
            c.flows += counters.flows;
            c.labeled += counters.labeled;
            c.responses += counters.responses;
        }
        s.first_flow_hist.merge(&o.first_flow_hist);
        s.any_flow_hist.merge(&o.any_flow_hist);
        s.dropped_entities += dropped;
    }

    /// The exact inverse of [`merge_ref`](Self::merge_ref): subtract a
    /// previously merged partial from this aggregate with checked
    /// arithmetic, deleting entries whose count reaches zero.
    ///
    /// After `a.merge_ref(&b); a.unmerge(&b)` every data field of `a` —
    /// maps, sums, histograms, and everything rendered from them — equals
    /// the state before the merge ([`data_eq`](Self::data_eq) holds and
    /// renders are byte-identical). The two run anchors (`trace_start`,
    /// `last_ts`) are not retracted; see the module docs.
    ///
    /// Fails with the first underflowing field when `other` was not
    /// contained in `self` (e.g. it was never merged, or was merged into a
    /// different aggregate). On failure the receiver may be left partially
    /// retracted; the windowed layer counts the event on the
    /// `dnh_window_retract_underflow_total` metric and rebuilds from its
    /// surviving buckets instead.
    pub fn unmerge(&mut self, other: &StreamingAnalytics) -> Result<(), RetractError> {
        let err = |field: &'static str| RetractError { field };
        let s = &mut self.state;
        let o = &other.state;
        s.flows.retract(&o.flows).map_err(|()| err("flows"))?;
        s.labeled_flows
            .retract(&o.labeled_flows)
            .map_err(|()| err("labeled_flows"))?;
        s.answered_responses
            .retract(&o.answered_responses)
            .map_err(|()| err("answered_responses"))?;
        s.first_flow_count
            .retract(&o.first_flow_count)
            .map_err(|()| err("first_flow_count"))?;
        s.fqdn_servers
            .retract(&o.fqdn_servers)
            .map_err(|()| err("fqdn_servers"))?;
        s.sld_servers
            .retract(&o.sld_servers)
            .map_err(|()| err("sld_servers"))?;
        s.org_content
            .retract(&o.org_content)
            .map_err(|()| err("org_content"))?;
        s.tag_counts
            .retract(&o.tag_counts)
            .map_err(|()| err("tag_counts"))?;
        s.port_flows
            .retract(&o.port_flows)
            .map_err(|()| err("port_flows"))?;
        s.fqdn_birth
            .retract(&o.fqdn_birth)
            .map_err(|()| err("fqdn_birth"))?;
        s.sld_birth
            .retract(&o.sld_birth)
            .map_err(|()| err("sld_birth"))?;
        s.server_birth
            .retract(&o.server_birth)
            .map_err(|()| err("server_birth"))?;
        s.bins.retract(&o.bins).map_err(|()| err("bins"))?;
        s.first_flow_hist
            .sub_merge(&o.first_flow_hist)
            .map_err(|_| err("first_flow_hist"))?;
        s.any_flow_hist
            .sub_merge(&o.any_flow_hist)
            .map_err(|_| err("any_flow_hist"))?;
        s.dropped_entities
            .retract(&o.dropped_entities)
            .map_err(|()| err("dropped_entities"))?;
        Ok(())
    }

    /// Equality over every data field, ignoring the two run anchors
    /// (`trace_start`, `last_ts`) that retraction deliberately leaves
    /// alone. This is the equality [`unmerge`](Self::unmerge) restores.
    pub fn data_eq(&self, other: &StreamingAnalytics) -> bool {
        let (s, o) = (&self.state, &other.state);
        s.flows == o.flows
            && s.labeled_flows == o.labeled_flows
            && s.answered_responses == o.answered_responses
            && s.first_flow_count == o.first_flow_count
            && s.fqdn_servers == o.fqdn_servers
            && s.sld_servers == o.sld_servers
            && s.org_content == o.org_content
            && s.tag_counts == o.tag_counts
            && s.port_flows == o.port_flows
            && s.fqdn_birth == o.fqdn_birth
            && s.sld_birth == o.sld_birth
            && s.server_birth == o.server_birth
            && s.bins == o.bins
            && s.first_flow_hist == o.first_flow_hist
            && s.any_flow_hist == o.any_flow_hist
            && s.dropped_entities == o.dropped_entities
    }

    /// A window's-eye view of this aggregate: same data, anchored at
    /// `origin` with every packet-clock bin key (snapshot bins and birth
    /// bins) shifted down by `bin_offset`. The windowed layer keeps bucket
    /// partials on an absolute bin clock (bin = ts / slide) and rebases at
    /// render time, so a view over `[t0, t1)` is field-for-field equal —
    /// and therefore byte-identical in render — to a fresh sink that only
    /// ever saw the events of `[t0, t1)` with `on_trace_start(t0)`.
    pub(crate) fn rebased_view(&self, origin: u64, bin_offset: u64) -> StreamingAnalytics {
        let mut view = self.clone_data();
        let s = &mut view.state;
        s.trace_start = Some(origin);
        s.last_ts = None;
        let shift = |bins: &mut BirthBins| {
            let shifted: BirthBins = bins
                .iter()
                .map(|(&b, &n)| (b.saturating_sub(bin_offset), n))
                .collect();
            *bins = shifted;
        };
        s.bins = s
            .bins
            .iter()
            .map(|(&b, &c)| (b.saturating_sub(bin_offset), c))
            .collect();
        for b in s.fqdn_birth.values_mut() {
            shift(b);
        }
        for b in s.sld_birth.values_mut() {
            shift(b);
        }
        for b in s.server_birth.values_mut() {
            shift(b);
        }
        view
    }

    /// Clone configuration, lookup tables, and state into a new sink.
    fn clone_data(&self) -> StreamingAnalytics {
        StreamingAnalytics {
            cfg: self.cfg.clone(),
            suffixes: SuffixSet::builtin(),
            orgdb: builtin_registry(),
            state: self.state.clone(),
        }
    }

    // ---- accessors (the equivalence tests compare these against the ----
    // ---- offline modules' output)                                   ----

    /// Total finished flows (labeled or not).
    pub fn flows(&self) -> u64 {
        self.state.flows
    }

    /// Finished flows that carried a label.
    pub fn labeled_flows(&self) -> u64 {
        self.state.labeled_flows
    }

    /// DNS responses with at least one A/AAAA answer.
    pub fn answered_responses(&self) -> u64 {
        self.state.answered_responses
    }

    /// Answered responses never followed by any flow (Tab. 9).
    pub fn useless_responses(&self) -> u64 {
        self.state
            .answered_responses
            .saturating_sub(self.state.first_flow_count)
    }

    /// Entities dropped by the `max_tracked` cap (0 ⇒ aggregates exact).
    pub fn dropped_entities(&self) -> u64 {
        self.state.dropped_entities
    }

    /// Alg. 2 state: FQDN → (server → labeled-flow count). The inner key
    /// set is the paper's server set.
    pub fn fqdn_servers(&self) -> &BTreeMap<DomainName, BTreeMap<IpAddr, u64>> {
        &self.state.fqdn_servers
    }

    /// Alg. 2 state: 2nd-level domain → (server → labeled-flow count).
    pub fn sld_servers(&self) -> &BTreeMap<DomainName, BTreeMap<IpAddr, u64>> {
        &self.state.sld_servers
    }

    /// Alg. 3 state: organization → (2nd-level domain → flow count).
    pub fn org_content(&self) -> &BTreeMap<String, BTreeMap<DomainName, u64>> {
        &self.state.org_content
    }

    /// Alg. 4 state: port → token → client → flow count.
    pub fn tag_counts(&self) -> &BTreeMap<u16, BTreeMap<String, BTreeMap<IpAddr, u64>>> {
        &self.state.tag_counts
    }

    /// First-flow delay histogram (Fig. 12 summary).
    pub fn first_flow_hist(&self) -> &Log2Hist {
        &self.state.first_flow_hist
    }

    /// Any-flow delay histogram (Fig. 13 summary).
    pub fn any_flow_hist(&self) -> &Log2Hist {
        &self.state.any_flow_hist
    }

    /// Eq. 1 scores for one port, in deterministic (token-ordered) sum
    /// order: `score(X) = Σ_c ln(N_X(c) + 1)`.
    pub fn token_scores(&self, port: u16) -> Vec<(String, f64)> {
        let Some(tokens) = self.state.tag_counts.get(&port) else {
            return Vec::new();
        };
        tokens
            .iter()
            .map(|(token, clients)| {
                let score: f64 = clients.values().map(|&n| ((n + 1) as f64).ln()).sum();
                (token.clone(), score)
            })
            .collect()
    }

    /// Reconstruct the Fig. 6 growth curves at the snapshot granularity —
    /// exactly the offline `growth_curves(db, trace_start, interval)`
    /// output: one contiguous sample per bin from the first to the last
    /// bin containing a flow, each sample counting entities born up to
    /// that bin.
    pub fn growth(&self) -> StreamGrowth {
        let mut out = StreamGrowth {
            bin_starts: Vec::new(),
            unique_fqdns: Vec::new(),
            unique_second_levels: Vec::new(),
            unique_servers: Vec::new(),
        };
        let (Some(origin), Some(first), Some(last)) = (
            self.state.trace_start,
            self.flow_bin_edge(true),
            self.flow_bin_edge(false),
        ) else {
            return out;
        };
        let interval = self.cfg.snapshot_interval_micros;
        let fqdn_bins = birth_bin_counts(&self.state.fqdn_birth);
        let sld_bins = birth_bin_counts(&self.state.sld_birth);
        let server_bins = birth_bin_counts(&self.state.server_birth);
        let (mut f, mut s, mut v) = (0u64, 0u64, 0u64);
        // Births can only land in bins that contain a flow, so summing the
        // range below reaches each family's total by `last`.
        for bin in 0..=last {
            f += fqdn_bins.get(&bin).copied().unwrap_or(0);
            s += sld_bins.get(&bin).copied().unwrap_or(0);
            v += server_bins.get(&bin).copied().unwrap_or(0);
            if bin < first {
                continue;
            }
            out.bin_starts.push(origin + bin * interval);
            out.unique_fqdns.push(f);
            out.unique_second_levels.push(s);
            out.unique_servers.push(v);
        }
        out
    }

    /// First (`true`) or last (`false`) snapshot bin containing a flow.
    fn flow_bin_edge(&self, first: bool) -> Option<u64> {
        let mut it = self
            .state
            .bins
            .iter()
            .filter(|(_, c)| c.flows > 0)
            .map(|(&b, _)| b);
        if first {
            it.next()
        } else {
            it.next_back()
        }
    }

    // ---- rendering -------------------------------------------------------

    /// Render the full deterministic output: a header line, one JSONL
    /// snapshot per packet-clock bin, and a final summary object. Derived
    /// entirely from merged state, so the bytes are identical for
    /// sequential and any-worker-count parallel runs.
    // lint_root(determinism): streaming output must be byte-identical across worker counts
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"stream\":\"dn-hunter\",\"interval_micros\":");
        push_u64(&mut out, self.cfg.snapshot_interval_micros);
        out.push_str(",\"origin\":");
        match self.state.trace_start {
            Some(t) => push_u64(&mut out, t),
            None => out.push_str("null"),
        }
        out.push_str("}\n");
        self.render_snapshots(&mut out);
        self.render_summary(&mut out);
        out
    }

    /// The periodic packet-clock snapshot lines: cumulative totals at the
    /// end of every active bin (first to last bin with any activity).
    fn render_snapshots(&self, out: &mut String) {
        let Some(origin) = self.state.trace_start else {
            return;
        };
        let (Some(&first), Some(&last)) = (
            self.state.bins.keys().next(),
            self.state.bins.keys().next_back(),
        ) else {
            return;
        };
        let interval = self.cfg.snapshot_interval_micros;
        let fqdn_bins = birth_bin_counts(&self.state.fqdn_birth);
        let sld_bins = birth_bin_counts(&self.state.sld_birth);
        let server_bins = birth_bin_counts(&self.state.server_birth);
        let (mut flows, mut labeled, mut responses) = (0u64, 0u64, 0u64);
        let (mut f, mut s, mut v) = (0u64, 0u64, 0u64);
        for bin in first..=last {
            if let Some(c) = self.state.bins.get(&bin) {
                flows += c.flows;
                labeled += c.labeled;
                responses += c.responses;
            }
            f += fqdn_bins.get(&bin).copied().unwrap_or(0);
            s += sld_bins.get(&bin).copied().unwrap_or(0);
            v += server_bins.get(&bin).copied().unwrap_or(0);
            out.push_str("{\"ts\":");
            push_u64(out, origin + (bin + 1) * interval);
            out.push_str(",\"flows\":");
            push_u64(out, flows);
            out.push_str(",\"labeled\":");
            push_u64(out, labeled);
            out.push_str(",\"answered_responses\":");
            push_u64(out, responses);
            out.push_str(",\"unique_fqdns\":");
            push_u64(out, f);
            out.push_str(",\"unique_slds\":");
            push_u64(out, s);
            out.push_str(",\"unique_servers\":");
            push_u64(out, v);
            out.push_str("}\n");
        }
    }

    fn render_summary(&self, out: &mut String) {
        out.push_str("{\"summary\":");
        self.render_summary_object(out);
        out.push_str("}\n");
    }

    /// The summary as one JSON object (no wrapper, no newline) — shared
    /// between the stream summary line and the windowed per-window lines.
    /// Reads totals, key sets and rankings only — no snapshot bin, no
    /// birth-bin value, no run anchor — so an aggregate on the absolute
    /// bucket clock and its [`rebased_view`](Self::rebased_view) render
    /// the same bytes; the windowed renderers rely on that.
    pub(crate) fn render_summary_object(&self, out: &mut String) {
        let st = &self.state;
        out.push_str("{\"flows\":");
        push_u64(out, st.flows);
        out.push_str(",\"labeled_flows\":");
        push_u64(out, st.labeled_flows);
        out.push_str(",\"unique_fqdns\":");
        push_u64(out, st.fqdn_servers.len() as u64);
        out.push_str(",\"unique_slds\":");
        push_u64(out, st.sld_servers.len() as u64);
        out.push_str(",\"unique_servers\":");
        push_u64(out, st.server_birth.len() as u64);
        out.push_str(",\"answered_responses\":");
        push_u64(out, st.answered_responses);
        out.push_str(",\"useless_responses\":");
        push_u64(out, self.useless_responses());
        out.push_str(",\"useless_fraction\":");
        let frac = if st.answered_responses == 0 {
            0.0
        } else {
            self.useless_responses() as f64 / st.answered_responses as f64
        };
        push_f64(out, frac);
        out.push_str(",\"first_flow_delay\":");
        push_hist(out, &st.first_flow_hist);
        out.push_str(",\"any_flow_delay\":");
        push_hist(out, &st.any_flow_hist);

        // Alg. 2 view: FQDNs ranked by server-set size.
        out.push_str(",\"top_fqdns_by_servers\":[");
        let mut fqdns: Vec<(&DomainName, usize)> =
            st.fqdn_servers.iter().map(|(d, s)| (d, s.len())).collect();
        fqdns.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        for (i, (fqdn, servers)) in fqdns.iter().take(self.cfg.top_k).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"fqdn\":");
            push_str(out, &fqdn.to_string());
            out.push_str(",\"servers\":");
            push_u64(out, *servers as u64);
            out.push('}');
        }
        out.push(']');

        // Alg. 3 view: organizations ranked by labeled flows, with their
        // top hosted 2nd-level domains.
        out.push_str(",\"top_orgs\":[");
        let mut orgs: Vec<(&String, u64)> = st
            .org_content
            .iter()
            .map(|(org, domains)| (org, domains.values().sum::<u64>()))
            .collect();
        orgs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        for (i, (org, total)) in orgs.iter().take(self.cfg.top_k).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"org\":");
            push_str(out, org);
            out.push_str(",\"labeled_flows\":");
            push_u64(out, *total);
            out.push_str(",\"top_domains\":[");
            let mut domains: Vec<(&DomainName, u64)> = st
                .org_content
                .get(*org)
                .map(|m| m.iter().map(|(d, &n)| (d, n)).collect())
                .unwrap_or_default();
            domains.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            for (j, (domain, n)) in domains.iter().take(self.cfg.top_k).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"domain\":");
                push_str(out, &domain.to_string());
                out.push_str(",\"flows\":");
                push_u64(out, *n);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push(']');

        // Alg. 4 / Eq. 1 view: ports ranked by labeled flows, each with its
        // top-scoring service tokens.
        out.push_str(",\"top_ports\":[");
        let mut ports: Vec<(u16, u64)> = st.port_flows.iter().map(|(&p, &n)| (p, n)).collect();
        ports.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (i, (port, n)) in ports.iter().take(self.cfg.top_k).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"port\":");
            push_u64(out, u64::from(*port));
            out.push_str(",\"labeled_flows\":");
            push_u64(out, *n);
            out.push_str(",\"tags\":[");
            let mut scores = self.token_scores(*port);
            scores.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (j, (token, score)) in scores.iter().take(self.cfg.top_k).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"token\":");
                push_str(out, token);
                out.push_str(",\"score\":");
                push_f64(out, *score);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push(']');

        out.push_str(",\"dropped_entities\":");
        push_u64(out, st.dropped_entities);
        out.push('}');
    }
}

impl FlowSink for StreamingAnalytics {
    fn on_trace_start(&mut self, ts: u64) {
        let s = &mut self.state;
        s.trace_start = Some(s.trace_start.map_or(ts, |t| t.min(ts)));
    }

    fn on_answered_response(&mut self, ts: u64) {
        let bin = self.bin_of(ts);
        let s = &mut self.state;
        s.answered_responses += 1;
        s.last_ts = Some(s.last_ts.map_or(ts, |t| t.max(ts)));
        s.bins.entry(bin).or_default().responses += 1;
    }

    fn on_first_flow_delay(&mut self, _ts: u64, delay_micros: u64) {
        self.state.first_flow_count += 1;
        self.state.first_flow_hist.record(delay_micros);
    }

    fn on_any_flow_delay(&mut self, _ts: u64, delay_micros: u64) {
        self.state.any_flow_hist.record(delay_micros);
    }

    fn on_flow_finished(&mut self, flow: &TaggedFlow) {
        if telemetry::trace_enabled() {
            let server_key = flow.key.server_trace_key();
            let bytes = flow.bytes_c2s.saturating_add(flow.bytes_s2c);
            tm_trace!(Te::SinkFlow, 0, flow.last_ts, server_key, bytes);
        }
        let bin = self.bin_of(flow.first_ts);
        let cap = self.cfg.max_tracked;
        let mut dropped = 0u64;
        {
            let s = &mut self.state;
            s.flows += 1;
            s.last_ts = Some(s.last_ts.map_or(flow.last_ts, |t| t.max(flow.last_ts)));
            let c = s.bins.entry(bin).or_default();
            c.flows += 1;
            if flow.fqdn.is_some() {
                c.labeled += 1;
                s.labeled_flows += 1;
            }
        }
        if let Some(fqdn) = &flow.fqdn {
            let sld = fqdn.second_level_domain(&self.suffixes);
            let server = flow.key.server;
            let port = flow.key.server_port;
            let client = flow.key.client;
            let org = self.orgdb.org_name(server).to_string();
            let s = &mut self.state;
            if let Some(m) = capped(&mut s.fqdn_servers, fqdn.clone(), cap, &mut dropped) {
                if let Some(n) = capped(m, server, cap, &mut dropped) {
                    *n += 1;
                }
            }
            if let Some(m) = capped(&mut s.sld_servers, sld.clone(), cap, &mut dropped) {
                if let Some(n) = capped(m, server, cap, &mut dropped) {
                    *n += 1;
                }
            }
            if let Some(m) = capped(&mut s.org_content, org, cap, &mut dropped) {
                if let Some(n) = capped(m, sld.clone(), cap, &mut dropped) {
                    *n += 1;
                }
            }
            *s.port_flows.entry(port).or_default() += 1;
            // Apex names tokenize to nothing; creating the port entry for
            // them would store a void value, which breaks retraction's
            // remove-when-empty key accounting (see `merge_ref`).
            let port_tokens = tokenize_fqdn(fqdn, &self.suffixes);
            if !port_tokens.is_empty() {
                if let Some(tokens) = capped(&mut s.tag_counts, port, cap, &mut dropped) {
                    for token in port_tokens {
                        if let Some(clients) = capped(tokens, token, cap, &mut dropped) {
                            if let Some(n) = capped(clients, client, cap, &mut dropped) {
                                *n += 1;
                            }
                        }
                    }
                }
            }
            if let Some(m) = capped(&mut s.fqdn_birth, fqdn.clone(), cap, &mut dropped) {
                *m.entry(bin).or_default() += 1;
            }
            if let Some(m) = capped(&mut s.sld_birth, sld, cap, &mut dropped) {
                *m.entry(bin).or_default() += 1;
            }
            if let Some(m) = capped(&mut s.server_birth, server, cap, &mut dropped) {
                *m.entry(bin).or_default() += 1;
            }
        }
        self.state.dropped_entities += dropped;
    }

    fn as_any_box(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

// ---- JSON helpers (hand-rolled, zero-dependency, deterministic) ----------

pub(crate) fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &b in &buf[i..] {
        out.push(b as char);
    }
}

fn push_f64(out: &mut String, v: f64) {
    // Fixed 6-decimal formatting: deterministic across platforms, enough
    // precision for fractions and Eq. 1 scores.
    out.push_str(&format!("{v:.6}"));
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_hist(out: &mut String, h: &Log2Hist) {
    out.push_str("{\"count\":");
    push_u64(out, h.count());
    out.push_str(",\"sum\":");
    push_u64(out, h.sum());
    out.push_str(",\"buckets\":[");
    // Trailing zero buckets are elided to keep lines short; the layout is
    // fixed (DELAY_HIST_BUCKETS), so elision is deterministic too.
    let cells = h.buckets();
    let used = cells.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    for (i, &c) in cells.iter().take(used).enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, c);
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnhunter_flow::{AppProtocol, FlowKey};
    use dnhunter_net::IpProtocol;

    fn flow(client: &str, fqdn: Option<&str>, server: &str, port: u16, ts: u64) -> TaggedFlow {
        TaggedFlow {
            key: FlowKey::from_initiator(
                client.parse().unwrap(),
                server.parse().unwrap(),
                50000,
                port,
                IpProtocol::Tcp,
            ),
            fqdn: fqdn.map(|f| f.parse().unwrap()),
            second_level: None,
            alt_labels: Vec::new(),
            tag_delay_micros: Some(1000),
            first_ts: ts,
            last_ts: ts + 10,
            packets_c2s: 1,
            packets_s2c: 1,
            bytes_c2s: 10,
            bytes_s2c: 10,
            protocol: AppProtocol::Http,
            tls: None,
            in_warmup: false,
        }
    }

    fn feed(sink: &mut StreamingAnalytics, flows: &[TaggedFlow]) {
        sink.on_trace_start(0);
        for f in flows {
            sink.on_flow_finished(f);
        }
    }

    #[test]
    fn merge_of_split_equals_sequential() {
        let flows: Vec<TaggedFlow> = (0..40)
            .map(|i| {
                flow(
                    &format!("10.0.0.{}", i % 7),
                    if i % 3 == 0 {
                        None
                    } else {
                        Some(if i % 2 == 0 {
                            "www.example.com"
                        } else {
                            "img.other.org"
                        })
                    },
                    &format!("93.184.216.{}", i % 5),
                    if i % 2 == 0 { 80 } else { 443 },
                    i * 1_000_000,
                )
            })
            .collect();
        let cfg = StreamingConfig {
            snapshot_interval_micros: 5_000_000,
            ..StreamingConfig::default()
        };
        let mut seq = StreamingAnalytics::new(cfg.clone());
        feed(&mut seq, &flows);
        seq.on_answered_response(500_000);
        seq.on_first_flow_delay(500_042, 42);
        seq.on_any_flow_delay(500_042, 42);

        // Split by client hash parity into two partials, merged in both
        // orders.
        let mut a = StreamingAnalytics::new(cfg.clone());
        let mut b = StreamingAnalytics::new(cfg.clone());
        a.on_trace_start(0);
        b.on_trace_start(0);
        for (i, f) in flows.iter().enumerate() {
            if i % 2 == 0 {
                a.on_flow_finished(f);
            } else {
                b.on_flow_finished(f);
            }
        }
        a.on_answered_response(500_000);
        a.on_first_flow_delay(500_042, 42);
        a.on_any_flow_delay(500_042, 42);

        let mut ab = StreamingAnalytics::new(cfg.clone());
        ab.merge(a);
        ab.merge(b);
        assert_eq!(ab.state, seq.state);
        assert_eq!(ab.render(), seq.render());
        assert_eq!(ab.dropped_entities(), 0);
    }

    #[test]
    fn unmerge_inverts_merge_exactly() {
        let mk_flows = |salt: u64| -> Vec<TaggedFlow> {
            (0..25)
                .map(|i| {
                    flow(
                        &format!("10.0.{salt}.{}", i % 5),
                        if i % 4 == 0 {
                            None
                        } else {
                            Some(if (i + salt).is_multiple_of(2) {
                                "cdn.example.com"
                            } else {
                                "static.other.org"
                            })
                        },
                        &format!("93.184.21{salt}.{}", i % 3),
                        443,
                        salt * 1_000 + i * 977,
                    )
                })
                .collect()
        };
        let cfg = StreamingConfig {
            snapshot_interval_micros: 4_000,
            ..StreamingConfig::default()
        };
        let mut a = StreamingAnalytics::new(cfg.clone());
        feed(&mut a, &mk_flows(1));
        a.on_answered_response(123);
        a.on_first_flow_delay(150, 27);
        a.on_any_flow_delay(150, 27);
        let mut b = StreamingAnalytics::new(cfg.clone());
        feed(&mut b, &mk_flows(2));
        b.on_answered_response(456);
        b.on_any_flow_delay(500, 44);

        let before_render = a.render();
        let mut merged = a.clone_data();
        merged.merge_ref(&b);
        assert!(!merged.data_eq(&a), "merge must change the state");
        merged.unmerge(&b).expect("merged partial retracts");
        assert!(merged.data_eq(&a), "unmerge must restore every data field");
        assert_eq!(merged.render(), before_render);
    }

    #[test]
    fn unmerge_of_foreign_partial_is_a_checked_error() {
        let cfg = StreamingConfig::default();
        let mut a = StreamingAnalytics::new(cfg.clone());
        feed(
            &mut a,
            &[flow("10.0.0.1", Some("a.x.com"), "1.1.1.1", 80, 0)],
        );
        let mut b = StreamingAnalytics::new(cfg);
        feed(
            &mut b,
            &[
                flow("10.0.0.1", Some("b.y.com"), "2.2.2.2", 80, 0),
                flow("10.0.0.1", Some("b.y.com"), "2.2.2.2", 80, 5),
            ],
        );
        let e = a.unmerge(&b).expect_err("b was never merged into a");
        assert!(!e.field.is_empty());
    }

    #[test]
    fn growth_counts_entities_by_birth_bin() {
        let mut sink = StreamingAnalytics::new(StreamingConfig {
            snapshot_interval_micros: 100,
            ..StreamingConfig::default()
        });
        feed(
            &mut sink,
            &[
                flow("10.0.0.1", Some("a.x.com"), "1.1.1.1", 80, 0),
                flow("10.0.0.1", Some("b.x.com"), "1.1.1.1", 80, 150),
                flow("10.0.0.1", Some("a.x.com"), "1.1.1.1", 80, 260),
                flow("10.0.0.1", Some("c.y.org"), "2.2.2.2", 80, 350),
            ],
        );
        let g = sink.growth();
        assert_eq!(g.unique_fqdns, vec![1, 2, 2, 3]);
        assert_eq!(g.unique_second_levels, vec![1, 1, 1, 2]);
        assert_eq!(g.unique_servers, vec![1, 1, 1, 2]);
        assert_eq!(g.bin_starts, vec![0, 100, 200, 300]);
    }

    #[test]
    fn useless_fraction_matches_counters() {
        let mut sink = StreamingAnalytics::new(StreamingConfig::default());
        sink.on_trace_start(0);
        sink.on_answered_response(10);
        sink.on_answered_response(20);
        sink.on_first_flow_delay(110, 100);
        assert_eq!(sink.answered_responses(), 2);
        assert_eq!(sink.useless_responses(), 1);
    }

    #[test]
    fn cap_drops_new_entities_and_counts_them() {
        let mut sink = StreamingAnalytics::new(StreamingConfig {
            max_tracked: 2,
            ..StreamingConfig::default()
        });
        feed(
            &mut sink,
            &[
                flow("10.0.0.1", Some("a.x.com"), "1.1.1.1", 80, 0),
                flow("10.0.0.1", Some("b.x.com"), "1.1.1.2", 80, 10),
                flow("10.0.0.1", Some("c.x.com"), "1.1.1.3", 80, 20),
            ],
        );
        assert_eq!(sink.fqdn_servers().len(), 2);
        assert!(sink.dropped_entities() > 0);
        // Flow-level counters are never capped.
        assert_eq!(sink.flows(), 3);
        assert_eq!(sink.labeled_flows(), 3);
    }

    #[test]
    fn render_is_stable_and_escapes_strings() {
        let mut sink = StreamingAnalytics::new(StreamingConfig {
            snapshot_interval_micros: 1_000,
            ..StreamingConfig::default()
        });
        feed(
            &mut sink,
            &[flow("10.0.0.1", Some("www.example.com"), "1.1.1.1", 80, 5)],
        );
        let r1 = sink.render();
        let r2 = sink.render();
        assert_eq!(r1, r2);
        assert!(r1.starts_with("{\"stream\":\"dn-hunter\""));
        assert!(r1.contains("\"summary\""));
        assert!(r1.contains("www.example.com"));
        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\u0001\"");
    }

    #[test]
    fn fold_downcasts_and_merges() {
        let mk = || {
            let mut s = StreamingAnalytics::new(StreamingConfig::default());
            s.on_trace_start(0);
            s.on_answered_response(5);
            Box::new(s) as Box<dyn FlowSink>
        };
        let folded = StreamingAnalytics::fold(vec![mk(), mk()]).unwrap();
        assert_eq!(folded.answered_responses(), 2);
        assert!(StreamingAnalytics::fold(Vec::new()).is_none());
    }

    #[test]
    fn rebased_view_matches_a_fresh_run_over_the_same_events() {
        // A sink anchored at bin clock 0 (the windowed bucket trick) viewed
        // through `rebased_view(origin, offset)` must equal a fresh sink
        // that saw the same events with `on_trace_start(origin)`.
        let interval = 1_000u64;
        let origin = 7 * interval;
        let flows = [
            flow("10.0.0.1", Some("a.x.com"), "1.1.1.1", 80, origin + 10),
            flow("10.0.0.2", Some("b.y.org"), "2.2.2.2", 443, origin + 1_500),
        ];
        let cfg = StreamingConfig {
            snapshot_interval_micros: interval,
            ..StreamingConfig::default()
        };
        let mut absolute = StreamingAnalytics::new(cfg.clone());
        absolute.on_trace_start(0);
        for f in &flows {
            absolute.on_flow_finished(f);
        }
        absolute.on_answered_response(origin + 20);
        let mut fresh = StreamingAnalytics::new(cfg);
        fresh.on_trace_start(origin);
        for f in &flows {
            fresh.on_flow_finished(f);
        }
        fresh.on_answered_response(origin + 20);
        let view = absolute.rebased_view(origin, 7);
        assert!(view.data_eq(&fresh));
        assert_eq!(view.render(), fresh.render());
        // The summary object is anchor-free: the windowed renderers take it
        // from the absolute accumulator without building the view.
        let (mut from_absolute, mut from_view) = (String::new(), String::new());
        absolute.render_summary_object(&mut from_absolute);
        view.render_summary_object(&mut from_view);
        assert_eq!(from_absolute, from_view);
    }
}
