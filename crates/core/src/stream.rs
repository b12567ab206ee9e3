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
//! **Merge determinism.** Every piece of state is a sum over maps —
//! commutative and associative — so folding per-shard partials in any
//! order yields exactly the sequential run's state, and everything rendered
//! from the folded state (periodic packet-clock snapshot lines plus the
//! final summary) is byte-identical at any `--workers N`. The entity-keyed
//! maps (FQDN, SLD, organization, server, token) are `FnvHashMap`s, whose
//! iteration order nothing reads: the render imposes its own total order
//! on what it prints. A map stays a `BTreeMap` only where an order is
//! read — the snapshot bins, each entity's birth bins (its minimum is the
//! birth bin), the port maps, and each token's client map (Eq. 1 sums in
//! client-address order, as `db::token_scores` does, so scores are equal
//! bit for bit). Snapshot lines are scheduled on the packet clock but
//! *derived at finish* from the per-bin counters: emitting them live from
//! one shard's partial view would break that byte-identity.
//!
//! **Retraction.** Because every data field is an occurrence count (what
//! used to be set-union state is a refcounted multiset, and what used to be
//! a min-timestamp is a bin-keyed multiset whose minimum is its first key),
//! every merge has an exact inverse: [`StreamingAnalytics::unmerge`]
//! subtracts a previously merged partial with checked arithmetic, deleting
//! entries whose count reaches zero so the result is indistinguishable from
//! never having merged. One trait walks each field in both directions, so
//! merge and retraction cannot disagree on where the entity cap applies.
//! This is what lets `dnhunter::stream::windowed` maintain sliding windows
//! by retiring whole time buckets (DESIGN.md "Windowed analytics and
//! retraction"). The run anchor `trace_start` (a min over shards that no
//! subtraction restores) sits outside the data, beside the config;
//! windowed views set it to the window's start.
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
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::hash::Hash;
use std::net::IpAddr;
use std::sync::OnceLock;

use dnhunter_dns::suffix::SuffixSet;
use dnhunter_dns::{DomainName, TokenBuf};
use dnhunter_orgdb::{builtin_registry, OrgDb};
use dnhunter_resolver::maps::FnvHashMap;
use dnhunter_telemetry::{self as telemetry, tm_trace, Log2Hist, TraceEvent as Te};

use crate::db::TaggedFlow;
use crate::json::{push_f64, push_opt, push_str, push_u64};

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
/// in the receiver. `field` names the first `StreamState` field whose
/// checked subtraction underflowed (`unmerge`'s exhaustive destructuring
/// names every field). The receiver may be left partially retracted; callers
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

/// Map width passed where `max_tracked` does not apply.
const UNCAPPED: usize = usize::MAX;

/// Counted sink state: every field of [`StreamState`] is a sum, so one
/// trait carries both directions of the walk.
///
/// `add` folds `other` in, creating a map key only while the map holds
/// fewer than `cap` entries (each refused key is one drop, its whole value
/// with it); `retract` removes `other`'s contribution exactly or fails
/// without a silent wrap, naming the [`StreamState`] `field` it walks;
/// `is_void` marks a value that carries nothing. A void value is never
/// stored — `add` skips it and `retract` deletes a key whose value empties
/// — so a retracted map is byte-identical to one that never saw the merged
/// entries, and no key is held only by a void value another partial could
/// not retract.
trait Counted {
    fn add(&mut self, other: &Self, cap: usize, dropped: &mut u64);
    fn retract(&mut self, other: &Self, field: &'static str) -> Result<(), RetractError>;
    fn is_void(&self) -> bool;
}

impl Counted for u64 {
    fn add(&mut self, other: &Self, _cap: usize, _dropped: &mut u64) {
        *self += other;
    }
    fn retract(&mut self, other: &Self, field: &'static str) -> Result<(), RetractError> {
        *self = self.checked_sub(*other).ok_or(RetractError { field })?;
        Ok(())
    }
    fn is_void(&self) -> bool {
        *self == 0
    }
}

/// What the cap gate and the `Counted` walk need of a state map, for the
/// two shapes [`StreamState`] keeps: `FnvHashMap` for entity keys and
/// `BTreeMap` where an order is read. Keys are probed by reference (an
/// organization or token by `&str`), so a key is cloned only on insert.
trait Slots {
    type Key;
    type Value;
    fn len(&self) -> usize;
    fn slot<Q>(&mut self, key: &Q) -> Option<&mut Self::Value>
    where
        Self::Key: Borrow<Q>,
        Q: Hash + Ord + ?Sized;
    fn put(&mut self, key: Self::Key) -> &mut Self::Value;
    fn take<Q>(&mut self, key: &Q)
    where
        Self::Key: Borrow<Q>,
        Q: Hash + Ord + ?Sized;
}

impl<K: Ord, V: Default> Slots for BTreeMap<K, V> {
    type Key = K;
    type Value = V;
    fn len(&self) -> usize {
        self.len()
    }
    fn slot<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Ord + ?Sized,
    {
        self.get_mut(key)
    }
    fn put(&mut self, key: K) -> &mut V {
        self.entry(key).or_default()
    }
    fn take<Q>(&mut self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Hash + Ord + ?Sized,
    {
        self.remove(key);
    }
}

impl<K: Hash + Eq, V: Default> Slots for FnvHashMap<K, V> {
    type Key = K;
    type Value = V;
    fn len(&self) -> usize {
        self.len()
    }
    fn slot<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Ord + ?Sized,
    {
        self.get_mut(key)
    }
    fn put(&mut self, key: K) -> &mut V {
        self.entry(key).or_default()
    }
    fn take<Q>(&mut self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Hash + Ord + ?Sized,
    {
        self.remove(key);
    }
}

/// Fold `other`'s entries into `map` under the cap (see [`Counted`]).
fn add_entries<'a, M, K, V>(
    map: &mut M,
    other: impl Iterator<Item = (&'a K, &'a V)>,
    cap: usize,
    dropped: &mut u64,
) where
    M: Slots<Key = K, Value = V>,
    K: Clone + Hash + Ord + 'a,
    V: Counted + Default + 'a,
{
    for (k, v) in other.filter(|(_, v)| !v.is_void()) {
        if let Some(slot) = capped(map, k, cap, dropped) {
            slot.add(v, cap, dropped);
        }
    }
}

/// Subtract `other`'s entries from `map`, deleting keys that empty.
fn retract_entries<'a, M, K, V>(
    map: &mut M,
    other: impl Iterator<Item = (&'a K, &'a V)>,
    field: &'static str,
) -> Result<(), RetractError>
where
    M: Slots<Key = K, Value = V>,
    K: Hash + Ord + 'a,
    V: Counted + 'a,
{
    for (k, v) in other {
        let slot = map.slot(k).ok_or(RetractError { field })?;
        slot.retract(v, field)?;
        if slot.is_void() {
            map.take(k);
        }
    }
    Ok(())
}

/// `cap` bounds this map's keys and, passed down, every nested map's.
impl<K: Ord + Clone + Hash, V: Counted + Default> Counted for BTreeMap<K, V> {
    fn add(&mut self, other: &Self, cap: usize, dropped: &mut u64) {
        add_entries(self, other.iter(), cap, dropped);
    }
    fn retract(&mut self, other: &Self, field: &'static str) -> Result<(), RetractError> {
        retract_entries(self, other.iter(), field)
    }
    fn is_void(&self) -> bool {
        self.is_empty()
    }
}

/// As for `BTreeMap`. Where the cap may refuse keys, they are offered in
/// key order, as the ordered map offers them, so which keys survive never
/// depends on hash order; below the cap the order cannot matter.
impl<K: Ord + Clone + Hash, V: Counted + Default> Counted for FnvHashMap<K, V> {
    fn add(&mut self, other: &Self, cap: usize, dropped: &mut u64) {
        if self.len().saturating_add(other.len()) <= cap {
            add_entries(self, other.iter(), cap, dropped);
        } else {
            let mut sorted: Vec<(&K, &V)> = other.iter().collect();
            sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
            add_entries(self, sorted.into_iter(), cap, dropped);
        }
    }
    fn retract(&mut self, other: &Self, field: &'static str) -> Result<(), RetractError> {
        retract_entries(self, other.iter(), field)
    }
    fn is_void(&self) -> bool {
        self.is_empty()
    }
}

impl Counted for Log2Hist {
    fn add(&mut self, other: &Self, _cap: usize, _dropped: &mut u64) {
        self.merge(other);
    }
    fn retract(&mut self, other: &Self, field: &'static str) -> Result<(), RetractError> {
        self.sub_merge(other).map_err(|_| RetractError { field })
    }
    fn is_void(&self) -> bool {
        self.count() == 0
    }
}

/// Per-snapshot-bin counters (packet clock, relative to trace start).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct BinCounters {
    flows: u64,
    labeled: u64,
    responses: u64,
}

impl Counted for BinCounters {
    fn add(&mut self, other: &Self, _cap: usize, _dropped: &mut u64) {
        self.flows += other.flows;
        self.labeled += other.labeled;
        self.responses += other.responses;
    }
    fn retract(&mut self, other: &Self, field: &'static str) -> Result<(), RetractError> {
        self.flows.retract(&other.flows, field)?;
        self.labeled.retract(&other.labeled, field)?;
        self.responses.retract(&other.responses, field)
    }
    fn is_void(&self) -> bool {
        self.flows == 0 && self.labeled == 0 && self.responses == 0
    }
}

/// Per-entity birth record: snapshot bin → number of labeled flows whose
/// `first_ts` fell in that bin. The entity's birth bin is the minimum key,
/// which survives retraction exactly (removing one bucket's flows deletes
/// its bins when their count reaches zero, re-exposing the next-oldest).
/// The entity map above it is capped; the bins inside are not.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct BirthBins(BTreeMap<u64, u64>);

impl Counted for BirthBins {
    fn add(&mut self, other: &Self, _cap: usize, dropped: &mut u64) {
        self.0.add(&other.0, UNCAPPED, dropped);
    }
    fn retract(&mut self, other: &Self, field: &'static str) -> Result<(), RetractError> {
        self.0.retract(&other.0, field)
    }
    fn is_void(&self) -> bool {
        self.0.is_empty()
    }
}

/// The mergeable aggregate state: the data only, so its derived equality
/// is the one [`StreamingAnalytics::unmerge`] restores. The lookup tables
/// and the run anchor (`trace_start`, a min over shards that subtraction
/// cannot restore) live in [`StreamingAnalytics`]. `merge_ref` and
/// `unmerge` destructure the struct exhaustively, so a field added without
/// both directions of the walk is a compile error.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StreamState {
    flows: u64,
    labeled_flows: u64,
    answered_responses: u64,
    first_flow_count: u64,
    /// Alg. 2: FQDN → (server → labeled-flow count). The key set of the
    /// inner map is the paper's server set; counts make it retractable.
    fqdn_servers: FnvHashMap<DomainName, FnvHashMap<IpAddr, u64>>,
    /// Alg. 2: 2nd-level domain → (server → labeled-flow count).
    sld_servers: FnvHashMap<DomainName, FnvHashMap<IpAddr, u64>>,
    /// Alg. 3: organization → (2nd-level domain → labeled flow count).
    org_content: FnvHashMap<String, FnvHashMap<DomainName, u64>>,
    /// Alg. 4: port → token → client → flow count (N_X(c) of Eq. 1).
    tag_counts: BTreeMap<u16, FnvHashMap<String, BTreeMap<IpAddr, u64>>>,
    /// Labeled flows per server port (ranks ports in the summary).
    port_flows: BTreeMap<u16, u64>,
    /// Fig. 6 birth processes: entity → bin-keyed flow multiset (see
    /// [`BirthBins`]).
    fqdn_birth: FnvHashMap<DomainName, BirthBins>,
    sld_birth: FnvHashMap<DomainName, BirthBins>,
    server_birth: FnvHashMap<IpAddr, BirthBins>,
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
            flows: 0,
            labeled_flows: 0,
            answered_responses: 0,
            first_flow_count: 0,
            fqdn_servers: FnvHashMap::default(),
            sld_servers: FnvHashMap::default(),
            org_content: FnvHashMap::default(),
            tag_counts: BTreeMap::new(),
            port_flows: BTreeMap::new(),
            fqdn_birth: FnvHashMap::default(),
            sld_birth: FnvHashMap::default(),
            server_birth: FnvHashMap::default(),
            bins: BTreeMap::new(),
            first_flow_hist: Log2Hist::new(DELAY_HIST_BUCKETS),
            any_flow_hist: Log2Hist::new(DELAY_HIST_BUCKETS),
            dropped_entities: 0,
        }
    }
}

/// Reconstructed Fig. 6 growth curves (mirrors
/// `dnhunter-analytics`' `GrowthCurves` field-for-field).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamGrowth {
    pub bin_starts: Vec<u64>,
    pub unique_fqdns: Vec<u64>,
    pub unique_second_levels: Vec<u64>,
    pub unique_servers: Vec<u64>,
}

/// Mutate-or-drop insert under the entity cap: returns the value slot when
/// the key exists or fits, else counts a drop. The key is probed by
/// reference and cloned only when it is inserted.
fn capped<'m, M, Q>(
    map: &'m mut M,
    key: &Q,
    cap: usize,
    dropped: &mut u64,
) -> Option<&'m mut M::Value>
where
    M: Slots,
    M::Key: Borrow<Q>,
    Q: ToOwned<Owned = M::Key> + Hash + Ord + ?Sized,
{
    if map.slot(key).is_some() {
        return map.slot(key);
    }
    if map.len() >= cap {
        *dropped = dropped.saturating_add(1);
        return None;
    }
    Some(map.put(key.to_owned()))
}

/// An ordered copy of an entity map, for the accessors: its values mapped
/// by `value`.
fn ordered<K: Ord + Clone, V, W>(
    map: &FnvHashMap<K, V>,
    value: impl Fn(&V) -> W,
) -> BTreeMap<K, W> {
    map.iter().map(|(k, v)| (k.clone(), value(v))).collect()
}

/// The first `k` of `items` under `order`, sorted: what sort-then-take
/// yields, without sorting the rest. Every order the render passes breaks
/// ties on a unique name, port or token, so the selection is exact.
fn top_k<T>(items: &mut Vec<T>, k: usize, order: impl Fn(&T, &T) -> Ordering) {
    if items.len() > k {
        items.select_nth_unstable_by(k, &order);
        items.truncate(k);
    }
    items.sort_unstable_by(order);
}

/// Number of entities per birth bin: each entity contributes once, at its
/// minimum (first) recorded bin.
fn birth_bin_counts<K>(map: &FnvHashMap<K, BirthBins>) -> BTreeMap<u64, u64> {
    let mut out: BTreeMap<u64, u64> = BTreeMap::new();
    for bins in map.values() {
        if let Some((&bin, _)) = bins.0.first_key_value() {
            *out.entry(bin).or_default() += 1;
        }
    }
    out
}

/// Downcast per-worker sinks (in shard order) to `T` and fold them with
/// `merge`; `None` when `sinks` is empty or holds a foreign sink type.
pub(crate) fn fold_sinks<T: 'static>(
    sinks: Vec<Box<dyn FlowSink>>,
    merge: fn(&mut T, T),
) -> Option<T> {
    let mut parts = sinks
        .into_iter()
        .map(|s| s.as_any_box().downcast::<T>().ok());
    let mut acc = *parts.next()??;
    for part in parts {
        merge(&mut acc, *part?);
    }
    Some(acc)
}

/// The suffix set and organization database every sink reads: built once
/// per process and never updated, so all sinks share one copy.
fn lookup_tables() -> &'static (SuffixSet, OrgDb) {
    static TABLES: OnceLock<(SuffixSet, OrgDb)> = OnceLock::new();
    TABLES.get_or_init(|| (SuffixSet::builtin(), builtin_registry()))
}

/// The streaming analytics sink (see the module docs).
pub struct StreamingAnalytics {
    cfg: StreamingConfig,
    /// The run anchor snapshot bins count from: the first frame of the
    /// trace (min over shards), or a window's start in a rebased view.
    trace_start: Option<u64>,
    state: StreamState,
    /// Reused token storage for [`FlowSink::on_flow_finished`]: scratch,
    /// not state, so a labelled flow's tokens allocate nothing once it
    /// has grown.
    tokens: TokenBuf,
}

impl StreamingAnalytics {
    /// A fresh sink. Each pipeline worker gets its own.
    pub fn new(cfg: StreamingConfig) -> Self {
        let mut cfg = cfg;
        cfg.snapshot_interval_micros = cfg.snapshot_interval_micros.max(1);
        cfg.max_tracked = cfg.max_tracked.max(1);
        StreamingAnalytics {
            cfg,
            trace_start: None,
            state: StreamState::new(),
            tokens: TokenBuf::default(),
        }
    }

    /// The configuration the sink runs with.
    pub fn config(&self) -> &StreamingConfig {
        &self.cfg
    }

    fn bin_of(&self, ts: u64) -> u64 {
        ts.saturating_sub(self.trace_start.unwrap_or(ts)) / self.cfg.snapshot_interval_micros
    }

    /// Fold per-worker partials (in shard order) back into one aggregate.
    /// Returns `None` when `sinks` is empty or holds a foreign sink type.
    pub fn fold(sinks: Vec<Box<dyn FlowSink>>) -> Option<StreamingAnalytics> {
        fold_sinks(sinks, StreamingAnalytics::merge)
    }

    /// Commutative, associative merge of another partial into this one.
    pub fn merge(&mut self, other: StreamingAnalytics) {
        self.merge_ref(&other);
    }

    /// [`merge`](Self::merge) by reference: the windowed layer folds the
    /// same bucket partial into many window positions, so the source must
    /// survive the call.
    pub fn merge_ref(&mut self, other: &StreamingAnalytics) {
        self.trace_start = self.trace_start.into_iter().chain(other.trace_start).min();
        let (cap, mut dropped) = (self.cfg.max_tracked, 0u64);
        let d = &mut dropped;
        // Exhaustive on purpose (no `..`), like `unmerge`: a new field
        // fails to compile here until it is merged.
        let StreamState {
            flows,
            labeled_flows,
            answered_responses,
            first_flow_count,
            fqdn_servers,
            sld_servers,
            org_content,
            tag_counts,
            port_flows,
            fqdn_birth,
            sld_birth,
            server_birth,
            bins,
            first_flow_hist,
            any_flow_hist,
            dropped_entities,
        } = &other.state;
        let s = &mut self.state;
        s.flows.add(flows, cap, d);
        s.labeled_flows.add(labeled_flows, cap, d);
        s.answered_responses.add(answered_responses, cap, d);
        s.first_flow_count.add(first_flow_count, cap, d);
        s.fqdn_servers.add(fqdn_servers, cap, d);
        s.sld_servers.add(sld_servers, cap, d);
        s.org_content.add(org_content, cap, d);
        s.tag_counts.add(tag_counts, cap, d);
        s.port_flows.add(port_flows, UNCAPPED, d);
        s.fqdn_birth.add(fqdn_birth, cap, d);
        s.sld_birth.add(sld_birth, cap, d);
        s.server_birth.add(server_birth, cap, d);
        s.bins.add(bins, UNCAPPED, d);
        s.first_flow_hist.add(first_flow_hist, cap, d);
        s.any_flow_hist.add(any_flow_hist, cap, d);
        s.dropped_entities.add(dropped_entities, cap, d);
        s.dropped_entities += dropped;
    }

    /// The exact inverse of [`merge_ref`](Self::merge_ref): subtract a
    /// previously merged partial from this aggregate with checked
    /// arithmetic, deleting entries whose count reaches zero.
    ///
    /// After `a.merge_ref(&b); a.unmerge(&b)` every data field of `a` —
    /// maps, sums, histograms, and everything rendered from them — equals
    /// the state before the merge ([`data_eq`](Self::data_eq) holds and
    /// renders are byte-identical). The run anchor `trace_start` is not
    /// data and is not retracted; see the module docs.
    ///
    /// Fails with the first underflowing field when `other` was not
    /// contained in `self` (e.g. it was never merged, or was merged into a
    /// different aggregate). On failure the receiver may be left partially
    /// retracted; the windowed layer counts the event on the
    /// `dnh_window_retract_underflow_total` metric and rebuilds from its
    /// surviving buckets instead.
    pub fn unmerge(&mut self, other: &StreamingAnalytics) -> Result<(), RetractError> {
        // Exhaustive on purpose (no `..`): a new field fails to compile
        // here until it is retracted.
        let StreamState {
            flows,
            labeled_flows,
            answered_responses,
            first_flow_count,
            fqdn_servers,
            sld_servers,
            org_content,
            tag_counts,
            port_flows,
            fqdn_birth,
            sld_birth,
            server_birth,
            bins,
            first_flow_hist,
            any_flow_hist,
            dropped_entities,
        } = &other.state;
        let s = &mut self.state;
        s.flows.retract(flows, "flows")?;
        s.labeled_flows.retract(labeled_flows, "labeled_flows")?;
        s.answered_responses
            .retract(answered_responses, "answered_responses")?;
        s.first_flow_count
            .retract(first_flow_count, "first_flow_count")?;
        s.fqdn_servers.retract(fqdn_servers, "fqdn_servers")?;
        s.sld_servers.retract(sld_servers, "sld_servers")?;
        s.org_content.retract(org_content, "org_content")?;
        s.tag_counts.retract(tag_counts, "tag_counts")?;
        s.port_flows.retract(port_flows, "port_flows")?;
        s.fqdn_birth.retract(fqdn_birth, "fqdn_birth")?;
        s.sld_birth.retract(sld_birth, "sld_birth")?;
        s.server_birth.retract(server_birth, "server_birth")?;
        s.bins.retract(bins, "bins")?;
        s.first_flow_hist
            .retract(first_flow_hist, "first_flow_hist")?;
        s.any_flow_hist.retract(any_flow_hist, "any_flow_hist")?;
        s.dropped_entities
            .retract(dropped_entities, "dropped_entities")?;
        Ok(())
    }

    /// Equality over every data field — the equality
    /// [`unmerge`](Self::unmerge) restores. The run anchor is not data.
    pub fn data_eq(&self, other: &StreamingAnalytics) -> bool {
        self.state == other.state
    }

    /// A window's-eye view of this aggregate: same data, anchored at
    /// `origin` with every packet-clock bin key (snapshot bins and birth
    /// bins) shifted down by `bin_offset`. The windowed layer keeps bucket
    /// partials on an absolute bin clock (bin = ts / slide) and rebases at
    /// render time, so a view over `[t0, t1)` is field-for-field equal —
    /// and therefore byte-identical in render — to a fresh sink that only
    /// ever saw the events of `[t0, t1)` with `on_trace_start(t0)`.
    pub(crate) fn rebased_view(&self, origin: u64, bin_offset: u64) -> StreamingAnalytics {
        fn shift<V: Copy>(bins: &mut BTreeMap<u64, V>, by: u64) {
            *bins = bins
                .iter()
                .map(|(&b, &v)| (b.saturating_sub(by), v))
                .collect();
        }
        let mut state = self.state.clone();
        shift(&mut state.bins, bin_offset);
        let births = [state.fqdn_birth.values_mut(), state.sld_birth.values_mut()];
        for b in births
            .into_iter()
            .flatten()
            .chain(state.server_birth.values_mut())
        {
            shift(&mut b.0, bin_offset);
        }
        StreamingAnalytics {
            cfg: self.cfg.clone(),
            trace_start: Some(origin),
            state,
            tokens: TokenBuf::default(),
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

    /// Every sink event this partial holds — finished flows, answered
    /// responses and both kinds of delay sample — which is what a windowed
    /// sink counts as dropped when it refuses the partial's bucket.
    pub(crate) fn events(&self) -> u64 {
        let s = &self.state;
        s.flows + s.answered_responses + s.first_flow_count + s.any_flow_hist.count()
    }

    /// Entities dropped by the `max_tracked` cap (0 ⇒ aggregates exact).
    pub fn dropped_entities(&self) -> u64 {
        self.state.dropped_entities
    }

    /// Alg. 2 state: FQDN → (server → labeled-flow count). The inner key
    /// set is the paper's server set. Built ordered on each call.
    pub fn fqdn_servers(&self) -> BTreeMap<DomainName, BTreeMap<IpAddr, u64>> {
        ordered(&self.state.fqdn_servers, |m| ordered(m, |&n| n))
    }

    /// Alg. 2 state: 2nd-level domain → (server → labeled-flow count).
    /// Built ordered on each call.
    pub fn sld_servers(&self) -> BTreeMap<DomainName, BTreeMap<IpAddr, u64>> {
        ordered(&self.state.sld_servers, |m| ordered(m, |&n| n))
    }

    /// Alg. 3 state: organization → (2nd-level domain → flow count).
    /// Built ordered on each call.
    pub fn org_content(&self) -> BTreeMap<String, BTreeMap<DomainName, u64>> {
        ordered(&self.state.org_content, |m| ordered(m, |&n| n))
    }

    /// Alg. 4 state: port → token → client → flow count. Built ordered on
    /// each call.
    pub fn tag_counts(&self) -> BTreeMap<u16, BTreeMap<String, BTreeMap<IpAddr, u64>>> {
        self.state
            .tag_counts
            .iter()
            .map(|(&port, tokens)| (port, ordered(tokens, BTreeMap::clone)))
            .collect()
    }

    /// First-flow delay histogram (Fig. 12 summary).
    pub fn first_flow_hist(&self) -> &Log2Hist {
        &self.state.first_flow_hist
    }

    /// Any-flow delay histogram (Fig. 13 summary).
    pub fn any_flow_hist(&self) -> &Log2Hist {
        &self.state.any_flow_hist
    }

    /// Eq. 1 scores for one port, in token order: `score(X) = Σ_c
    /// ln(N_X(c) + 1)`, each summed in client-address order.
    pub fn token_scores(&self, port: u16) -> Vec<(String, f64)> {
        let mut scores: Vec<(String, f64)> = self
            .port_scores(port)
            .into_iter()
            .map(|(token, score)| (token.to_owned(), score))
            .collect();
        scores.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        scores
    }

    /// [`token_scores`](Self::token_scores) by reference, in no order.
    fn port_scores(&self, port: u16) -> Vec<(&str, f64)> {
        let Some(tokens) = self.state.tag_counts.get(&port) else {
            return Vec::new();
        };
        tokens
            .iter()
            .map(|(token, clients)| {
                let score: f64 = clients.values().map(|&n| ((n + 1) as f64).ln()).sum();
                (token.as_str(), score)
            })
            .collect()
    }

    /// Reconstruct the Fig. 6 growth curves at the snapshot granularity —
    /// exactly the offline `growth_curves(db, trace_start, interval)`
    /// output: one contiguous sample per bin from the first to the last
    /// bin containing a flow, each sample counting entities born up to
    /// that bin.
    pub fn growth(&self) -> StreamGrowth {
        let mut out = StreamGrowth::default();
        let mut flow_bins = self.state.bins.iter().filter(|(_, c)| c.flows > 0);
        let (Some(origin), Some((&first, _))) = (self.trace_start, flow_bins.next()) else {
            return out;
        };
        let last = flow_bins.next_back().map_or(first, |(&b, _)| b);
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

    // ---- rendering -------------------------------------------------------

    /// Render the full deterministic output: a header line, one JSONL
    /// snapshot per packet-clock bin, and a final summary object. Derived
    /// entirely from merged state, so the bytes are identical for
    /// sequential and any-worker-count parallel runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"stream\":\"dn-hunter\",\"interval_micros\":");
        push_u64(&mut out, self.cfg.snapshot_interval_micros);
        out.push_str(",\"origin\":");
        push_opt(&mut out, self.trace_start, push_u64);
        out.push_str("}\n");
        self.render_snapshots(&mut out);
        self.render_summary(&mut out);
        out
    }

    /// The periodic packet-clock snapshot lines: cumulative totals at the
    /// end of every active bin (first to last bin with any activity).
    fn render_snapshots(&self, out: &mut String) {
        let Some(origin) = self.trace_start else {
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

        let k = self.cfg.top_k;
        // Alg. 2 view: FQDNs ranked by server-set size.
        out.push_str(",\"top_fqdns_by_servers\":[");
        let mut fqdns: Vec<(&DomainName, usize)> =
            st.fqdn_servers.iter().map(|(d, s)| (d, s.len())).collect();
        top_k(&mut fqdns, k, |a, b| {
            b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0))
        });
        for (i, (fqdn, servers)) in fqdns.iter().enumerate() {
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
        let mut orgs: Vec<(&String, u64, &FnvHashMap<DomainName, u64>)> = st
            .org_content
            .iter()
            .map(|(org, domains)| (org, domains.values().sum::<u64>(), domains))
            .collect();
        top_k(&mut orgs, k, |a, b| {
            b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0))
        });
        for (i, (org, total, domains)) in orgs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"org\":");
            push_str(out, org);
            out.push_str(",\"labeled_flows\":");
            push_u64(out, *total);
            out.push_str(",\"top_domains\":[");
            let mut domains: Vec<(&DomainName, u64)> =
                domains.iter().map(|(d, &n)| (d, n)).collect();
            top_k(&mut domains, k, |a, b| {
                b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0))
            });
            for (j, (domain, n)) in domains.iter().enumerate() {
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
        top_k(&mut ports, k, |a, b| {
            b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0))
        });
        for (i, (port, n)) in ports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"port\":");
            push_u64(out, u64::from(*port));
            out.push_str(",\"labeled_flows\":");
            push_u64(out, *n);
            out.push_str(",\"tags\":[");
            let mut scores = self.port_scores(*port);
            top_k(&mut scores, k, |a, b| {
                b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0))
            });
            for (j, (token, score)) in scores.iter().enumerate() {
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
        self.trace_start = Some(self.trace_start.map_or(ts, |t| t.min(ts)));
    }

    fn on_answered_response(&mut self, ts: u64) {
        let bin = self.bin_of(ts);
        let s = &mut self.state;
        s.answered_responses += 1;
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
            let c = s.bins.entry(bin).or_default();
            c.flows += 1;
            if flow.fqdn.is_some() {
                c.labeled += 1;
                s.labeled_flows += 1;
            }
        }
        if let Some(fqdn) = &flow.fqdn {
            let (suffixes, orgdb) = lookup_tables();
            let (sld, below) = fqdn.split_second_level(suffixes);
            self.tokens.fill(below);
            let server = flow.key.server;
            let port = flow.key.server_port;
            let client = flow.key.client;
            let org = orgdb.org_name(server);
            let (s, d) = (&mut self.state, &mut dropped);
            if let Some(m) = capped(&mut s.fqdn_servers, fqdn, cap, d) {
                if let Some(n) = capped(m, &server, cap, d) {
                    *n += 1;
                }
            }
            if let Some(m) = capped(&mut s.sld_servers, &sld, cap, d) {
                if let Some(n) = capped(m, &server, cap, d) {
                    *n += 1;
                }
            }
            if let Some(m) = capped(&mut s.org_content, org, cap, d) {
                if let Some(n) = capped(m, &sld, cap, d) {
                    *n += 1;
                }
            }
            *s.port_flows.entry(port).or_default() += 1;
            // Apex names tokenize to nothing; creating the port entry for
            // them would store a void value, which breaks retraction's
            // remove-when-empty key accounting (see `Counted`).
            if !self.tokens.is_empty() {
                if let Some(tokens) = capped(&mut s.tag_counts, &port, cap, d) {
                    for token in self.tokens.iter() {
                        if let Some(clients) = capped(tokens, token, cap, d) {
                            if let Some(n) = capped(clients, &client, cap, d) {
                                *n += 1;
                            }
                        }
                    }
                }
            }
            if let Some(m) = capped(&mut s.fqdn_birth, fqdn, cap, d) {
                *m.0.entry(bin).or_default() += 1;
            }
            if let Some(m) = capped(&mut s.sld_birth, &sld, cap, d) {
                *m.0.entry(bin).or_default() += 1;
            }
            if let Some(m) = capped(&mut s.server_birth, &server, cap, d) {
                *m.0.entry(bin).or_default() += 1;
            }
        }
        self.state.dropped_entities += dropped;
    }

    fn as_any_box(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
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
pub(crate) mod tests {
    use super::*;
    use dnhunter_flow::{AppProtocol, FlowKey};
    use dnhunter_net::IpProtocol;

    /// A labelled HTTP flow `client → server:port` first seen at `ts`;
    /// the window tests build their flows here too.
    pub(crate) fn flow(
        client: &str,
        fqdn: Option<&str>,
        server: &str,
        port: u16,
        ts: u64,
    ) -> TaggedFlow {
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
        assert_eq!(ab.trace_start, seq.trace_start);
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
        let mut merged = StreamingAnalytics::new(cfg.clone());
        merged.merge_ref(&a);
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
    fn render_is_stable() {
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

    /// More than `top_k` FQDNs, organizations, domains per organization,
    /// ports and tokens, tied on their counts and fed in shuffled order,
    /// render exactly what a full sort then take would: the first `top_k`
    /// of each under the count order with its name, port or token
    /// tie-break. Pinned directly and through a fold of two partials.
    #[test]
    fn ties_beyond_top_k_render_as_sort_then_take() {
        const WORDS: [&str; 16] = [
            "kilo", "alpha", "golf", "delta", "papa", "echo", "bravo", "oscar", "hotel", "juliet",
            "charlie", "india", "lima", "foxtrot", "mike", "nova",
        ];
        // akamai, edgecast, google and apple in the builtin registry.
        const ORG_NETS: [&str; 4] = ["23.0.0", "93.184.216", "74.125.0", "17.0.0"];
        let mut flows: Vec<TaggedFlow> = (0..16)
            .map(|i| {
                let fqdn = format!("{}.s{i:02}.net", WORDS[i]);
                let server = format!("{}.{}", ORG_NETS[i % 4], i + 1);
                flow("10.0.0.1", Some(&fqdn), &server, 80, i as u64)
            })
            .collect();
        // Apex names on four more ports, served from no registered org.
        for (i, port) in [443, 8443, 25, 110].into_iter().enumerate() {
            let fqdn = format!("s{}.net", 16 + i);
            let server = format!("203.0.113.{}", i + 1);
            flows.push(flow("10.0.0.1", Some(&fqdn), &server, port, 16 + i as u64));
        }
        let shuffled: Vec<TaggedFlow> = (0..flows.len())
            .map(|i| flows[i * 7 % flows.len()].clone())
            .collect();
        let cfg = StreamingConfig {
            top_k: 3,
            ..StreamingConfig::default()
        };
        let mut direct = StreamingAnalytics::new(cfg.clone());
        feed(&mut direct, &shuffled);
        let (mut a, mut b) = (
            StreamingAnalytics::new(cfg.clone()),
            StreamingAnalytics::new(cfg),
        );
        let (front, back) = shuffled.split_at(9);
        feed(&mut a, back);
        feed(&mut b, front);
        a.merge(b);

        const RANKINGS: &str = concat!(
            "\"top_fqdns_by_servers\":[{\"fqdn\":\"alpha.s01.net\",\"servers\":1},",
            "{\"fqdn\":\"bravo.s06.net\",\"servers\":1},{\"fqdn\":\"charlie.s10.net\",\"servers\":1}],",
            "\"top_orgs\":[{\"org\":\"akamai\",\"labeled_flows\":4,\"top_domains\":[",
            "{\"domain\":\"s00.net\",\"flows\":1},{\"domain\":\"s04.net\",\"flows\":1},",
            "{\"domain\":\"s08.net\",\"flows\":1}]},",
            "{\"org\":\"apple\",\"labeled_flows\":4,\"top_domains\":[",
            "{\"domain\":\"s03.net\",\"flows\":1},{\"domain\":\"s07.net\",\"flows\":1},",
            "{\"domain\":\"s11.net\",\"flows\":1}]},",
            "{\"org\":\"edgecast\",\"labeled_flows\":4,\"top_domains\":[",
            "{\"domain\":\"s01.net\",\"flows\":1},{\"domain\":\"s05.net\",\"flows\":1},",
            "{\"domain\":\"s09.net\",\"flows\":1}]}],",
            "\"top_ports\":[{\"port\":80,\"labeled_flows\":16,\"tags\":[",
            "{\"token\":\"alpha\",\"score\":0.693147},{\"token\":\"bravo\",\"score\":0.693147},",
            "{\"token\":\"charlie\",\"score\":0.693147}]},",
            "{\"port\":25,\"labeled_flows\":1,\"tags\":[]},",
            "{\"port\":110,\"labeled_flows\":1,\"tags\":[]}],",
            "\"dropped_entities\":0}",
        );
        for sink in [&direct, &a] {
            let mut summary = String::new();
            sink.render_summary_object(&mut summary);
            let rankings = summary.find("\"top_fqdns_by_servers\"").unwrap();
            assert_eq!(&summary[rankings..], RANKINGS);
        }
    }

    /// Where `max_tracked` bites, pinned at a cap of 2 over more FQDNs,
    /// ports, tokens, clients and snapshot bins than that: entity keys
    /// (FQDN, SLD, org, server, token, client) and `tag_counts`' port
    /// level are capped; `port_flows`, the snapshot bins and each
    /// entity's birth-bin multiset are not. Pinned fed directly, through
    /// `fold` of two partials and through `unmerge`, by rendered bytes and
    /// drop counts.
    #[test]
    fn cap_applies_to_entity_keys_and_tag_ports_only() {
        let cfg = StreamingConfig {
            snapshot_interval_micros: 100,
            top_k: 10,
            max_tracked: 2,
        };
        let flows = [
            flow("10.0.0.1", Some("mail.one.com"), "1.1.1.1", 25, 0),
            flow("10.0.0.2", Some("video.two.com"), "1.1.1.2", 80, 150),
            flow("10.0.0.3", Some("chat.three.com"), "1.1.1.3", 443, 250),
            flow("10.0.0.2", Some("mx-relay.one.com"), "1.1.1.1", 25, 260),
            flow("10.0.0.3", Some("mail.one.com"), "1.1.1.4", 25, 280),
            flow("10.0.0.4", Some("mail.one.com"), "1.1.1.5", 25, 360),
            flow("10.0.0.5", None, "1.1.1.6", 22, 420),
        ];
        let mut direct = StreamingAnalytics::new(cfg.clone());
        feed(&mut direct, &flows);
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
        let mut retracted = StreamingAnalytics::new(cfg);
        retracted.merge_ref(&a);
        retracted.merge_ref(&b);
        retracted.unmerge(&a).expect("a was merged whole");
        let folded = StreamingAnalytics::fold(vec![Box::new(a), Box::new(b)]).unwrap();

        const DIRECT: &str = concat!(
            "{\"stream\":\"dn-hunter\",\"interval_micros\":100,\"origin\":0}\n",
            "{\"ts\":100,\"flows\":1,\"labeled\":1,\"answered_responses\":0,\"unique_fqdns\":1,\"unique_slds\":1,\"unique_servers\":1}\n",
            "{\"ts\":200,\"flows\":2,\"labeled\":2,\"answered_responses\":0,\"unique_fqdns\":2,\"unique_slds\":2,\"unique_servers\":2}\n",
            "{\"ts\":300,\"flows\":5,\"labeled\":5,\"answered_responses\":0,\"unique_fqdns\":2,\"unique_slds\":2,\"unique_servers\":2}\n",
            "{\"ts\":400,\"flows\":6,\"labeled\":6,\"answered_responses\":0,\"unique_fqdns\":2,\"unique_slds\":2,\"unique_servers\":2}\n",
            "{\"ts\":500,\"flows\":7,\"labeled\":6,\"answered_responses\":0,\"unique_fqdns\":2,\"unique_slds\":2,\"unique_servers\":2}\n",
            "{\"summary\":{\"flows\":7,\"labeled_flows\":6,\"unique_fqdns\":2,\"unique_slds\":2,\"unique_servers\":2,\"answered_responses\":0,\"useless_responses\":0,\"useless_fraction\":0.000000",
            ",\"first_flow_delay\":{\"count\":0,\"sum\":0,\"buckets\":[]},\"any_flow_delay\":{\"count\":0,\"sum\":0,\"buckets\":[]},\"top_fqdns_by_servers\":[{\"fqdn\":\"mail.one.com\",\"servers\":2},{\"fqdn\":\"video.two.com\",\"servers\":1}]",
            ",\"top_orgs\":[{\"org\":\"unknown\",\"labeled_flows\":5,\"top_domains\":[{\"domain\":\"one.com\",\"flows\":4},{\"domain\":\"two.com\",\"flows\":1}]}]",
            ",\"top_ports\":[{\"port\":25,\"labeled_flows\":4,\"tags\":[{\"token\":\"mail\",\"score\":1.386294},{\"token\":\"mx\",\"score\":0.693147}]},{\"port\":80,\"labeled_flows\":1,\"tags\":[{\"token\":\"video\",\"score\":0.693147}]},{\"port\":443,\"labeled_flows\":1,\"tags\":[]}]",
            ",\"dropped_entities\":15}}\n",
        );
        const FOLDED: &str = concat!(
            "{\"stream\":\"dn-hunter\",\"interval_micros\":100,\"origin\":0}\n",
            "{\"ts\":100,\"flows\":1,\"labeled\":1,\"answered_responses\":0,\"unique_fqdns\":1,\"unique_slds\":1,\"unique_servers\":1}\n",
            "{\"ts\":200,\"flows\":2,\"labeled\":2,\"answered_responses\":0,\"unique_fqdns\":1,\"unique_slds\":1,\"unique_servers\":1}\n",
            "{\"ts\":300,\"flows\":5,\"labeled\":5,\"answered_responses\":0,\"unique_fqdns\":2,\"unique_slds\":2,\"unique_servers\":2}\n",
            "{\"ts\":400,\"flows\":6,\"labeled\":6,\"answered_responses\":0,\"unique_fqdns\":2,\"unique_slds\":2,\"unique_servers\":2}\n",
            "{\"ts\":500,\"flows\":7,\"labeled\":6,\"answered_responses\":0,\"unique_fqdns\":2,\"unique_slds\":2,\"unique_servers\":2}\n",
            "{\"summary\":{\"flows\":7,\"labeled_flows\":6,\"unique_fqdns\":2,\"unique_slds\":2,\"unique_servers\":2,\"answered_responses\":0,\"useless_responses\":0,\"useless_fraction\":0.000000",
            ",\"first_flow_delay\":{\"count\":0,\"sum\":0,\"buckets\":[]},\"any_flow_delay\":{\"count\":0,\"sum\":0,\"buckets\":[]},\"top_fqdns_by_servers\":[{\"fqdn\":\"mail.one.com\",\"servers\":2},{\"fqdn\":\"chat.three.com\",\"servers\":1}]",
            ",\"top_orgs\":[{\"org\":\"unknown\",\"labeled_flows\":5,\"top_domains\":[{\"domain\":\"one.com\",\"flows\":4},{\"domain\":\"three.com\",\"flows\":1}]}]",
            ",\"top_ports\":[{\"port\":25,\"labeled_flows\":4,\"tags\":[{\"token\":\"mail\",\"score\":1.386294},{\"token\":\"mx\",\"score\":0.693147}]},{\"port\":80,\"labeled_flows\":1,\"tags\":[]},{\"port\":443,\"labeled_flows\":1,\"tags\":[{\"token\":\"chat\",\"score\":0.693147}]}]",
            ",\"dropped_entities\":16}}\n",
        );
        const RETRACTED: &str = concat!(
            "{\"stream\":\"dn-hunter\",\"interval_micros\":100,\"origin\":0}\n",
            "{\"ts\":200,\"flows\":1,\"labeled\":1,\"answered_responses\":0,\"unique_fqdns\":0,\"unique_slds\":0,\"unique_servers\":0}\n",
            "{\"ts\":300,\"flows\":2,\"labeled\":2,\"answered_responses\":0,\"unique_fqdns\":0,\"unique_slds\":1,\"unique_servers\":1}\n",
            "{\"ts\":400,\"flows\":3,\"labeled\":3,\"answered_responses\":0,\"unique_fqdns\":0,\"unique_slds\":1,\"unique_servers\":1}\n",
            "{\"summary\":{\"flows\":3,\"labeled_flows\":3,\"unique_fqdns\":0,\"unique_slds\":1,\"unique_servers\":1,\"answered_responses\":0,\"useless_responses\":0,\"useless_fraction\":0.000000",
            ",\"first_flow_delay\":{\"count\":0,\"sum\":0,\"buckets\":[]},\"any_flow_delay\":{\"count\":0,\"sum\":0,\"buckets\":[]},\"top_fqdns_by_servers\":[]",
            ",\"top_orgs\":[{\"org\":\"unknown\",\"labeled_flows\":2,\"top_domains\":[{\"domain\":\"one.com\",\"flows\":2}]}]",
            ",\"top_ports\":[{\"port\":25,\"labeled_flows\":2,\"tags\":[{\"token\":\"mx\",\"score\":0.693147}]},{\"port\":80,\"labeled_flows\":1,\"tags\":[]}]",
            ",\"dropped_entities\":15}}\n",
        );
        assert_eq!(direct.render(), DIRECT);
        assert_eq!(direct.dropped_entities(), 15);
        assert_eq!(folded.render(), FOLDED);
        assert_eq!(folded.dropped_entities(), 16);
        assert_eq!(retracted.render(), RETRACTED);
        assert_eq!(retracted.dropped_entities(), 15);
    }
}
