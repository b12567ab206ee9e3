//! Parallel ingest: the multi-core DN-Hunter sniffer.
//!
//! The paper sizes DN-Hunter for a single monitor thread (§3.2 shows one
//! core keeps up with a 1M-packets/s PoP) and names one scaling escape
//! hatch in §3.1.1: partition the monitored *clients* across independent
//! resolvers. [`ParallelSniffer`] applies that idea to the whole fast
//! path: the caller's thread is the one dispatcher, flat-parsing each
//! frame ([`parse_flat`]) and fanning work out over bounded channels to
//! `N` shard workers.
//!
//! Work travels as batches: up to `BATCH_ITEMS` pre-parsed items plus one
//! shared byte arena holding only what the worker still needs — a DNS
//! response's transport payload, or the payload prefix the flow record's
//! DPI head still wants (usually nothing once a flow's first ~[`DPI_SNAP`]
//! bytes per direction have shipped) — so the channels move tens of bytes
//! per packet instead of whole frames, and workers never re-parse. Every
//! edge is a `std::sync::mpsc::sync_channel`: sealed batches travel
//! dispatcher→worker one per send over a bounded FIFO (a slow shard
//! backpressures ingest instead of buffering the trace), drained arenas
//! come back worker→dispatcher best-effort for reuse, and either
//! endpoint's drop closes the link. Shard routing keys client IPs through
//! one FNV hash ([`shard_of`]) — the *shard-affinity invariant*: a
//! client's DNS bindings (Algorithm 1 state), the flows those bindings
//! tag, and the §5.1 delay samples for both always live on the same
//! worker, so workers share nothing and take no locks on the per-packet
//! path.
//!
//! Determinism is by construction, not by luck (see `DESIGN.md` §7): every
//! frame carries a global sequence number (its arrival index), the
//! dispatcher replicates the flow table's eviction-scan gate and
//! broadcasts explicit tick events, each worker sees its items in
//! sequence order over its one channel, and the final merge re-orders every
//! output stream under the `(seq, phase)` key — so the [`SnifferReport`]
//! is byte-identical to [`crate::RealTimeSniffer`]'s for any worker count
//! (as long as no shard overflows its Clist partition; the default
//! `L = 2^20` makes evictions a non-issue at trace scale).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use dnhunter_dns::codec;
use dnhunter_flow::{CanonFlowKey, CompactSeg, TcpTracker, DPI_SNAP};
use dnhunter_net::seg::{parse_flat, FlatParse, FlatSeg, FrameFault};
use dnhunter_net::{IpProtocol, PcapRecord};
use dnhunter_resolver::maps::FnvHashMap;
use dnhunter_resolver::{shard_of, InternStats, ResolverConfig};
use dnhunter_telemetry::{
    self as telemetry, tm_count, tm_observe, tm_trace, tm_trace_wall, LaneKind, Metric as Tm,
    TraceEvent as Te, TraceSet,
};

use crate::engine::{assemble_report, ShardEngine, ShardOutput};
use crate::policy::RuleEnforcer;
use crate::sniffer::{compact_seg, SnifferConfig, SnifferReport, SnifferStats};
use crate::stream::{FlowSink, StreamingAnalytics};

/// What a worker hands back over its rotation channel: the retired
/// `(bucket index, partial)` pairs its windowed sink gave up, in bucket
/// order.
type RotateReply = Vec<(u64, StreamingAnalytics)>;

/// Frames per batch before the dispatcher seals a batch. Batching
/// amortises the channel handoff over many frames (§3.2's per-packet
/// budget is far below one syscall/lock per packet).
const BATCH_ITEMS: usize = 128;
/// Arena bytes per batch before an early seal (keeps batches cache-sized
/// even under jumbo frames).
const BATCH_BYTES: usize = 128 * 1024;
/// In-flight batches per dispatcher→worker channel: enough to keep a worker
/// busy while the dispatcher fills the next batch, small enough that a slow
/// shard backpressures ingest instead of buffering the trace.
const CHANNEL_BATCHES: usize = 4;
/// Capacity of each worker→dispatcher arena recycle channel: every batch
/// that can be in flight on the data edge, plus slack, fits a best-effort
/// `try_send`.
const RECYCLE_BATCHES: usize = CHANNEL_BATCHES + 2;
/// Hard ceiling on pipeline fan-out. The worker count is operator
/// configuration, but every per-thread channel and merge buffer is sized from
/// it, so the bounded-allocation discipline (L8) wants a named cap on those
/// statements — and far past the core count extra threads only add
/// contention anyway.
const MAX_PIPELINE_THREADS: usize = 64;

/// What a batch item tells the worker to do.
#[derive(Debug, Clone, Copy)]
enum ItemKind {
    /// Anchor the warm-up window at the trace's first frame timestamp.
    Start,
    /// A UDP datagram from the DNS port: the item's byte range is the
    /// transport payload; decode it and feed Algorithm 1 for `client`
    /// (the response's destination — the endpoint that asked).
    DnsUdp { client: IpAddr },
    /// A TCP segment from the DNS port: the byte range is the payload,
    /// framed per RFC 1035 §4.2.2 (2-byte length prefixes).
    DnsTcp { client: IpAddr },
    /// A user data segment, pre-parsed by the dispatcher: flow
    /// reconstruction + tagging (Fig. 1 fast path). The item's byte range
    /// holds only the payload prefix the flow record's DPI head still
    /// wants — usually nothing once a flow's first ~[`DPI_SNAP`] bytes per
    /// direction have shipped — so the channel moves tens of bytes per
    /// segment instead of whole frames, and the worker never re-parses.
    Seg(CompactSeg),
    /// Run one eviction scan — the dispatcher's replica of the sequential
    /// interval gate fired at this frame.
    Tick,
    /// Retire every windowed-analytics bucket strictly below `horizon` and
    /// answer with the retired partials on this worker's rotation channel —
    /// the broadcast half of [`ParallelSniffer::rotate`]'s barrier.
    Rotate { horizon: u64 },
}

/// One event in a batch; `off..off+len` indexes the batch's byte arena
/// (empty for `Start`/`Tick`).
#[derive(Debug, Clone, Copy)]
struct Item {
    kind: ItemKind,
    seq: u64,
    ts: u64,
    off: u32,
    len: u32,
}

/// A batch of items plus the arena holding their payload bytes. Recycled
/// between worker and dispatcher so steady-state ingest allocates nothing.
#[derive(Default)]
struct Batch {
    items: Vec<Item>,
    bytes: Vec<u8>,
}

/// The dispatcher's mirror of one live flow: which shard owns it, which
/// endpoint initiated it, and exactly the state the worker's flow table
/// consults when deciding evictions (`last_ts`, TCP terminal state) — kept
/// in lock-step so the routing table prunes entries at the same tick the
/// worker emits the flow, and a later packet on the same 5-tuple re-orients
/// identically on both sides.
#[derive(Debug, Clone, Copy)]
struct Route {
    shard: usize,
    client: IpAddr,
    client_port: u16,
    /// When this flow record started — the dispatcher's replica of
    /// `FlowRecord::first_ts`, reset on SYN port-reuse renewal exactly as
    /// the worker's table resets it. The rotation horizon clamps to the
    /// minimum of these so no window a live flow can still touch is
    /// retired early.
    first_ts: u64,
    last_ts: u64,
    tcp: TcpTracker,
    /// Bytes of each direction's DPI head already shipped — the
    /// dispatcher's replica of `FlowRecord::head_{c2s,s2c}.len()`, so it
    /// can truncate segment payloads to exactly the prefix the worker's
    /// record will still consume (capped at [`DPI_SNAP`]).
    head_c2s: u16,
    head_s2c: u16,
}

/// First instant at which `route` can satisfy the prune predicate in
/// [`Dispatcher::prune_routes`] if it sees no further traffic — the mirror
/// of `FlowTable`'s expiry deadline.
fn route_deadline(route: &Route, idle: u64, linger: u64) -> u64 {
    let ttl = if route.tcp.state().is_terminal() {
        linger.min(idle)
    } else {
        idle
    };
    route.last_ts.saturating_add(ttl)
}

/// Dispatcher-side handle for one shard worker.
struct WorkerLink {
    tx: SyncSender<Batch>,
    /// Batches sent and not yet received by the worker: bumped before each
    /// send, dropped by the worker after each receive. A statistic only
    /// (feeds `RingOccupancy`), hence `Relaxed` on both sides.
    depth: Arc<AtomicU64>,
    recycle_rx: Receiver<Batch>,
    pending: Batch,
}

/// Worker-side ends of the same channels, plus the rotation reply edge.
struct WorkerPort {
    rx: Receiver<Batch>,
    depth: Arc<AtomicU64>,
    recycle: SyncSender<Batch>,
    rotate_tx: SyncSender<RotateReply>,
}

/// Busy-time decomposition of one pipeline run, for the throughput
/// baseline. "Busy" excludes time blocked on channel waits (a full channel
/// means the dispatcher is waiting for a slow shard, and on a one-core
/// host it means the worker is running *on the dispatcher's core*), so
/// even with fewer cores than pipeline threads the per-stage busy time
/// still measures each stage's real CPU cost. Accumulated in nanoseconds
/// internally: the dispatcher's per-frame window is sub-microsecond, so
/// microsecond accumulation would truncate most of it to zero.
#[derive(Debug, Clone)]
pub struct PipelineTimings {
    /// Worker count the pipeline ran with.
    pub workers: usize,
    /// Dispatcher CPU time (parse + route + batch building), µs —
    /// blocking channel sends excluded.
    pub dispatch_busy_micros: u64,
    /// Dispatcher time spent inside (possibly blocking) channel sends, µs.
    pub send_wait_micros: u64,
    /// Per-worker CPU time (engine work + DNS decode + final flush), µs.
    pub worker_busy_micros: Vec<u64>,
    /// FQDN interning effectiveness summed over all shard resolvers.
    pub intern: InternStats,
}

/// The dispatcher: links to every shard worker, the order-sensitive
/// routing state (flow-routing table, eviction clock, warm-up anchor —
/// all observing frames in exactly arrival order), and the counters the
/// merge needs. One per [`ParallelSniffer`], on the caller's thread.
struct Dispatcher {
    dns_port: u16,
    eviction_interval: u64,
    idle_timeout: u64,
    terminal_linger: u64,
    links: Vec<WorkerLink>,
    routes: FnvHashMap<CanonFlowKey, Route>,
    last_eviction: u64,
    /// Lazy min-heap of prune candidates `(deadline, key)` — the
    /// dispatcher-side mirror of the flow table's expiry heap, so each
    /// prune pass touches only routes whose deadline has passed instead of
    /// retaining over the whole table. Entries are lower bounds (pushed on
    /// insert, port-reuse renewal, and terminal transition; re-pushed at
    /// the current deadline when the exact predicate says "not yet"), so
    /// a route is always re-examined no later than it can expire — prunes
    /// stay in lock-step with the workers' evictions.
    prune_heap: BinaryHeap<Reverse<(u64, CanonFlowKey)>>,
    /// Dispatcher-side counters (frames, parse faults, DNS queries);
    /// worker engines count the rest, and the merge sums both.
    stats: SnifferStats,
    trace_start: Option<u64>,
    trace_end: Option<u64>,
    send_wait_nanos: u64,
}

impl Dispatcher {
    fn new(config: &SnifferConfig, links: Vec<WorkerLink>) -> Self {
        Dispatcher {
            dns_port: config.dns_port,
            eviction_interval: config.flow_table.eviction_interval_micros,
            idle_timeout: config.flow_table.idle_timeout_micros,
            terminal_linger: config.flow_table.terminal_linger_micros,
            links,
            routes: FnvHashMap::default(),
            last_eviction: 0,
            prune_heap: BinaryHeap::new(),
            stats: SnifferStats::default(),
            trace_start: None,
            trace_end: None,
            send_wait_nanos: 0,
        }
    }

    /// Classify one flat-parsed frame and enqueue whatever its shard
    /// worker needs — the dispatcher's whole per-frame job. Same
    /// demultiplexing order as the sequential sniffer;
    /// DNS frames route by the *client* (the responses' destination) so
    /// bindings land on the shard that will tag that client's flows.
    // lint_root(ingest): routes every captured frame, parsed or faulted
    fn route_frame(
        &mut self,
        seq: u64,
        ts: u64,
        wire_len: u32,
        parse: &Result<FlatParse<'_>, FrameFault>,
    ) {
        self.stats.frames += 1;
        tm_count!(Tm::IngestFrames);
        if self.trace_start.is_none() {
            self.trace_start = Some(ts);
            // Every shard anchors its warm-up window at the global trace
            // start, not its own first frame.
            for shard in 0..self.links.len() {
                self.push_item(shard, ItemKind::Start, seq, ts, &[]);
            }
        }
        self.trace_end = Some(self.trace_end.map_or(ts, |t| t.max(ts)));
        let seg = match parse {
            Ok(FlatParse::Seg(seg)) => seg,
            // Not reconstructed; never advances the eviction-scan clock.
            Ok(FlatParse::Opaque) => return,
            Err(fault) => {
                self.stats.note_parse_fault(*fault);
                if telemetry::trace_enabled() {
                    tm_trace!(Te::FrameParse, seq, ts, *fault as u64, u64::from(wire_len));
                }
                return;
            }
        };
        let dns_port = self.dns_port;
        match seg.proto {
            IpProtocol::Udp => {
                if seg.src_port == dns_port {
                    let shard = shard_of(seg.dst, self.links.len());
                    let kind = ItemKind::DnsUdp { client: seg.dst };
                    self.push_item(shard, kind, seq, ts, seg.payload);
                    return;
                }
                if seg.dst_port == dns_port {
                    self.stats.dns_queries += 1;
                    tm_count!(Tm::IngestDnsQueries);
                    return;
                }
            }
            // `parse_flat` only yields TCP or UDP segments; TCP DNS is
            // used after truncated UDP responses (RFC 1035 §4.2.2).
            _ => {
                if seg.src_port == dns_port {
                    let shard = shard_of(seg.dst, self.links.len());
                    let kind = ItemKind::DnsTcp { client: seg.dst };
                    self.push_item(shard, kind, seq, ts, seg.payload);
                    return;
                }
                if seg.dst_port == dns_port {
                    if !seg.payload.is_empty() {
                        self.stats.dns_queries += 1;
                        tm_count!(Tm::IngestDnsQueries);
                    }
                    return;
                }
            }
        }
        self.dispatch_data(seq, ts, seg);
    }

    /// Route one user data segment to its flow's shard, mirroring the flow
    /// table's orientation rules, then run the eviction gate.
    fn dispatch_data(&mut self, seq: u64, ts: u64, seg: &FlatSeg<'_>) {
        let payload_len = seg.payload.len();
        let key = CanonFlowKey::of(seg.src, seg.src_port, seg.dst, seg.dst_port, seg.proto);
        let idle = self.idle_timeout;
        let linger = self.terminal_linger;
        let (shard, head_take, push_deadline) = match self.routes.get_mut(&key) {
            Some(route) => {
                // An existing entry fixes the orientation; the new-flow
                // case below sets sender=initiator.
                let from_client = seg.src == route.client && seg.src_port == route.client_port;
                let mut renewed = false;
                let mut was_terminal = route.tcp.state().is_terminal();
                if let Some(flags) = seg.tcp_flags {
                    // Mirror of the flow table's port-reuse rule: a fresh SYN
                    // on a terminated flow finishes the old record and starts
                    // a new one under the *same* oriented key, so the route
                    // keeps its orientation and shard but resets TCP state,
                    // DPI head fill, and ages from this packet.
                    if flags.syn() && !flags.ack() && was_terminal {
                        route.tcp = TcpTracker::new();
                        route.first_ts = ts;
                        route.last_ts = ts;
                        route.head_c2s = 0;
                        route.head_s2c = 0;
                        renewed = true;
                        was_terminal = false;
                    }
                    route.tcp.observe(from_client, flags, payload_len);
                }
                route.last_ts = route.last_ts.max(ts);
                // Replica of `FlowRecord::observe_seg`'s head fill: ship
                // exactly the prefix the worker's record will append.
                let fill = if from_client {
                    &mut route.head_c2s
                } else {
                    &mut route.head_s2c
                };
                let take = (DPI_SNAP - *fill as usize).min(payload_len);
                *fill += take as u16;
                // Renewal and terminal transition are the only events that
                // can move this route's prune deadline down (the flow
                // table's heap applies the same rule).
                let push = (renewed || (!was_terminal && route.tcp.state().is_terminal()))
                    .then(|| route_deadline(route, idle, linger));
                (route.shard, take, push)
            }
            None => {
                let shard = shard_of(seg.src, self.links.len());
                let mut tcp = TcpTracker::new();
                if let Some(flags) = seg.tcp_flags {
                    tcp.observe(true, flags, payload_len);
                }
                let take = DPI_SNAP.min(payload_len);
                let route = Route {
                    shard,
                    client: seg.src,
                    client_port: seg.src_port,
                    first_ts: ts,
                    last_ts: ts,
                    tcp,
                    head_c2s: take as u16,
                    head_s2c: 0,
                };
                let deadline = route_deadline(&route, idle, linger);
                self.routes.insert(key, route);
                (shard, take, Some(deadline))
            }
        };
        // Same lazy-heap bookkeeping the workers' flow tables keep: insert,
        // SYN-renewal, and terminal transition are the events that can move
        // a route's prune deadline down, so each pushes a fresh candidate.
        if let Some(deadline) = push_deadline {
            self.prune_heap.push(Reverse((deadline, key)));
        }
        let (cseg, payload) = compact_seg(seg);
        let head = payload.get(..head_take).unwrap_or(payload);
        self.push_item(shard, ItemKind::Seg(cseg), seq, ts, head);
        // The sequential flow table's scan gate, replicated bit-for-bit:
        // only a reconstructed data frame advances the clock, and the scan
        // runs *after* that frame — so the tick follows the data item in
        // its shard's queue, and every shard scans at the same trace times
        // the single-threaded table would.
        if ts.saturating_sub(self.last_eviction) >= self.eviction_interval {
            self.last_eviction = ts;
            self.prune_routes(ts);
            for shard in 0..self.links.len() {
                self.push_item(shard, ItemKind::Tick, seq, ts, &[]);
            }
        }
    }

    /// Drop routing entries for every flow the workers' scan at `now` will
    /// evict — the same predicate `FlowTable::evict` applies, over the same
    /// `last_ts`/terminal state (kept in lock-step by `dispatch_data`), at
    /// the same tick times. A later packet on such a 5-tuple then starts a
    /// fresh flow with sender-as-initiator on both sides.
    fn prune_routes(&mut self, now: u64) {
        let idle = self.idle_timeout;
        let linger = self.terminal_linger;
        while let Some(&Reverse((deadline, key))) = self.prune_heap.peek() {
            if deadline > now {
                break; // every remaining candidate is provably still alive
            }
            self.prune_heap.pop();
            let Some(r) = self.routes.get(&key) else {
                continue; // stale: route already pruned via an earlier entry
            };
            let silent = now.saturating_sub(r.last_ts);
            if silent >= idle || (r.tcp.state().is_terminal() && silent >= linger) {
                self.routes.remove(&key);
            } else {
                // Activity extended the deadline past this (lower-bound)
                // entry; re-arm at the route's current deadline.
                self.prune_heap
                    .push(Reverse((route_deadline(r, idle, linger), key)));
            }
        }
    }

    /// Append one item (and its arena bytes — a DNS payload, or a data
    /// segment's DPI head prefix) to a shard's pending batch, sealing the
    /// batch when it fills.
    fn push_item(&mut self, shard: usize, kind: ItemKind, seq: u64, ts: u64, bytes: &[u8]) {
        let Some(link) = self.links.get_mut(shard) else {
            return;
        };
        match kind {
            ItemKind::Tick => tm_count!(Tm::PipelineTicks),
            ItemKind::DnsUdp { .. } | ItemKind::DnsTcp { .. } | ItemKind::Seg(_) => {
                tm_count!(Tm::PipelineItemsRouted)
            }
            ItemKind::Start | ItemKind::Rotate { .. } => {}
        }
        let off = link.pending.bytes.len() as u32;
        link.pending.bytes.extend_from_slice(bytes);
        link.pending.items.push(Item {
            kind,
            seq,
            ts,
            off,
            len: bytes.len() as u32,
        });
        if link.pending.items.len() >= BATCH_ITEMS || link.pending.bytes.len() >= BATCH_BYTES {
            self.seal_pending(shard);
        }
    }

    /// Send a shard's filled batch, swapping in a recycled (or fresh)
    /// arena. Send time is accounted separately from dispatch busy time: a
    /// full channel means the dispatcher is *waiting* on a slow shard.
    fn seal_pending(&mut self, shard: usize) {
        let Some(link) = self.links.get_mut(shard) else {
            return;
        };
        if link.pending.items.is_empty() {
            return;
        }
        let next = link.recycle_rx.try_recv().unwrap_or_default();
        let batch = std::mem::replace(&mut link.pending, next);
        tm_count!(Tm::PipelineBatchesSent);
        tm_observe!(Tm::BatchItems, batch.items.len() as u64);
        let queued = link.depth.fetch_add(1, Ordering::Relaxed) + 1;
        tm_observe!(Tm::RingOccupancy, queued);
        // allow_lint(L7): wall-clock here feeds only the `send_wait_nanos`
        // telemetry split; no emitted byte depends on it
        let t0 = Instant::now();
        // A send only fails when the worker died; `finish` re-raises its
        // panic at the join — nothing to do here.
        if let Err(TrySendError::Full(batch)) = link.tx.try_send(batch) {
            tm_count!(Tm::PipelineSendStalls);
            let _ = link.tx.send(batch);
        }
        self.send_wait_nanos += t0.elapsed().as_nanos() as u64;
        if telemetry::trace_enabled() {
            tm_trace_wall!(Te::RingSendBatch, 0, shard as u64, 1);
        }
    }

    /// Seal and send everything still pending, on every link.
    fn flush_all(&mut self) {
        for shard in 0..self.links.len() {
            self.seal_pending(shard);
        }
    }
}

/// Multi-core variant of [`crate::RealTimeSniffer`]: same input API, same
/// [`SnifferReport`] (byte-identical — see the module docs), `N` shard
/// workers doing the heavy lifting behind a single caller-thread
/// dispatcher.
///
/// Policy enforcement (the `process_frame_with_policy` path) stays on the
/// sequential sniffer: an enforcer is a synchronous admission hook, which
/// would reserialize the workers.
pub struct ParallelSniffer {
    config: SnifferConfig,
    dispatcher: Dispatcher,
    handles: Vec<JoinHandle<(ShardOutput, u64)>>,
    /// Receive half of each worker's capacity-1 rotation channel, shard
    /// order; [`ParallelSniffer::rotate`] blocks on one reply per worker.
    rotation_rxs: Vec<Receiver<RotateReply>>,
    seq: u64,
    busy_nanos: u64,
    /// Per-worker telemetry registries, present only when the constructing
    /// thread had one bound. Workers bind theirs for their thread's
    /// lifetime; `finish` folds them into the dispatcher's registry so the
    /// final stable-class snapshot equals the sequential run's, and
    /// [`crate::DaemonSniffer::live_snapshot`] samples them mid-run.
    pub(crate) worker_registries: Vec<Arc<telemetry::Registry>>,
}

impl ParallelSniffer {
    /// Spawn `workers` shard threads (at least one, at most
    /// `MAX_PIPELINE_THREADS`). Each worker gets its
    /// slice of the Clist budget `L`: `L / workers` entries, the remainder
    /// one each to the lowest shards, at least 1 (§3.1.1 — sharding splits
    /// the §4.2 memory budget, it does not multiply it).
    pub fn new(config: SnifferConfig, workers: usize) -> Self {
        Self::build(config, workers, None)
    }

    /// [`ParallelSniffer::new`], additionally installing a streaming
    /// analytics sink per worker: `make_sink(shard)` is called once per
    /// shard before its thread spawns. The per-shard partials come back
    /// (in shard order) from [`ParallelSniffer::finish_with_sinks`].
    pub fn with_sinks(
        config: SnifferConfig,
        workers: usize,
        make_sink: &mut dyn FnMut(usize) -> Box<dyn FlowSink>,
    ) -> Self {
        Self::build(config, workers, Some(make_sink))
    }

    fn build(
        config: SnifferConfig,
        workers: usize,
        mut make_sink: Option<&mut dyn FnMut(usize) -> Box<dyn FlowSink>>,
    ) -> Self {
        let workers = workers.clamp(1, MAX_PIPELINE_THREADS);
        let mut links = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let telemetry_on = telemetry::is_bound();
        // Captured on the constructing thread: workers bind their own
        // flight-recorder lanes off the same set, so one `--trace-out`
        // export shows every thread of this pipeline.
        let trace = telemetry::trace_set();
        let mut worker_registries = Vec::new();
        let mut rotation_rxs = Vec::with_capacity(workers);
        for (shard, engine) in shard_engines(&config, workers, &mut make_sink)
            .into_iter()
            .enumerate()
        {
            let (tx, rx) = sync_channel::<Batch>(CHANNEL_BATCHES);
            let (recycle_tx, recycle_rx) = sync_channel::<Batch>(RECYCLE_BATCHES);
            let (rotate_tx, rotate_rx) = sync_channel::<RotateReply>(1);
            rotation_rxs.push(rotate_rx);
            let depth = Arc::new(AtomicU64::new(0));
            links.push(WorkerLink {
                tx,
                depth: Arc::clone(&depth),
                recycle_rx,
                pending: Batch::default(),
            });
            let port = WorkerPort {
                rx,
                depth,
                recycle: recycle_tx,
                rotate_tx,
            };
            let registry = telemetry_on.then(|| {
                let reg = Arc::new(telemetry::Registry::new());
                worker_registries.push(Arc::clone(&reg));
                reg
            });
            let trace = trace.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(engine, shard, port, registry, trace)
            }));
        }
        let dispatcher = Dispatcher::new(&config, links);
        ParallelSniffer {
            config,
            dispatcher,
            handles,
            rotation_rxs,
            seq: 0,
            busy_nanos: 0,
            worker_registries,
        }
    }

    /// Retire windowed-analytics buckets below the rotation horizon on
    /// every shard, returning the retired `(bucket, partial)` lists in
    /// shard order. The horizon is `clock` clamped down to the oldest live
    /// flow's start (the routing table's `first_ts` minimum — the mirror
    /// of the sequential sniffer's `FlowTable::oldest_live_first_ts`), so
    /// no window a live flow can still contribute to is emitted early.
    /// Runs as a barrier: a `Rotate` item is broadcast to every shard,
    /// pending batches flush, and the call blocks until each worker
    /// answers on its capacity-1 rotation channel — cheap at rotation cadence,
    /// and it pins retirement to the same packet-clock instant at every
    /// worker count.
    // lint_root(determinism): rotation barrier fires identically at every worker count
    pub fn rotate(&mut self, clock: u64) -> (u64, Vec<Vec<(u64, StreamingAnalytics)>>) {
        let oldest = self.dispatcher.routes.values().map(|r| r.first_ts).min();
        let horizon = oldest.map_or(clock, |t| t.min(clock));
        let seq = self.seq;
        for shard in 0..self.dispatcher.links.len() {
            self.dispatcher
                .push_item(shard, ItemKind::Rotate { horizon }, seq, clock, &[]);
        }
        self.dispatcher.flush_all();
        let mut replies = Vec::with_capacity(self.rotation_rxs.len());
        for rx in &self.rotation_rxs {
            // `Err` = the worker died; treat as "nothing retired" and let
            // the join in `finish` re-raise its panic.
            replies.push(rx.recv().unwrap_or_default());
        }
        (horizon, replies)
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.dispatcher.links.len()
    }

    /// Process one pcap record.
    // lint_root(ingest): dispatcher entry, one call per pcap record
    pub fn process_record(&mut self, rec: &PcapRecord) {
        self.process_frame(rec.timestamp_micros(), &rec.frame);
    }

    /// Dispatch one raw Ethernet frame: flat-parse ([`parse_flat`], no
    /// payload copy), classify exactly as the sequential sniffer does, and
    /// enqueue it for the owning shard.
    // lint_root(ingest): dispatcher entry, one call per captured frame
    pub fn process_frame(&mut self, ts: u64, frame: &[u8]) {
        let t0 = Instant::now();
        // Blocking sends inside this frame's window are counted by
        // `seal_pending` into `send_wait_nanos`; subtract them so busy time
        // is dispatcher CPU only.
        let send_before = self.dispatcher.send_wait_nanos;
        let seq = self.seq;
        self.seq += 1;
        let parse = parse_flat(frame);
        self.dispatcher
            .route_frame(seq, ts, frame.len() as u32, &parse);
        self.busy_nanos += (t0.elapsed().as_nanos() as u64)
            .saturating_sub(self.dispatcher.send_wait_nanos - send_before);
    }

    /// End of trace: flush every pending batch, close the channels, join
    /// the workers and merge their outputs into the one report. A worker
    /// that panicked has its panic re-raised here (and from every other
    /// `finish*`), never papered over with a partial report.
    pub fn finish(self) -> SnifferReport {
        self.finish_full().0
    }

    /// [`ParallelSniffer::finish`], also returning the busy-time
    /// decomposition for the throughput baseline.
    pub fn finish_with_timings(self) -> (SnifferReport, PipelineTimings) {
        let (report, timings, _) = self.finish_full();
        (report, timings)
    }

    /// [`ParallelSniffer::finish`], also handing back the per-shard
    /// streaming sinks (shard order; empty unless built
    /// [`ParallelSniffer::with_sinks`]).
    pub fn finish_with_sinks(self) -> (SnifferReport, Vec<Box<dyn FlowSink>>) {
        let (report, _, sinks) = self.finish_full();
        (report, sinks)
    }

    fn finish_full(mut self) -> (SnifferReport, PipelineTimings, Vec<Box<dyn FlowSink>>) {
        self.dispatcher.flush_all();
        // Dropping the links drops the senders, which closes each channel;
        // workers drain what is queued, flush their engines and return.
        let links = std::mem::take(&mut self.dispatcher.links);
        let workers = links.len();
        drop(links);
        let mut outputs = Vec::with_capacity(workers);
        let mut worker_busy_micros = Vec::with_capacity(workers);
        let mut panicked = None;
        for handle in std::mem::take(&mut self.handles) {
            match handle.join() {
                Ok((out, busy)) => {
                    outputs.push(out);
                    worker_busy_micros.push(busy);
                }
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        // Every worker is joined first; then the first panic continues on
        // the caller's thread instead of a report missing that shard.
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        // Shard-order extraction; the streaming fold is commutative, but a
        // stable order keeps the driver's view reproducible regardless.
        let sinks: Vec<Box<dyn FlowSink>> =
            outputs.iter_mut().filter_map(|o| o.sink.take()).collect();
        let intern = fold_intern(&outputs);
        // The joins above are the happens-before edge: every worker-side
        // relaxed store is visible, so folding the per-shard registries
        // into the dispatcher's yields exact totals — and, for the stable
        // class, the same values a sequential run records.
        tm_count!(Tm::DispatchBusyNanos, self.busy_nanos);
        tm_count!(Tm::SendWaitNanos, self.dispatcher.send_wait_nanos);
        for reg in &self.worker_registries {
            telemetry::merge_into_bound(reg);
        }
        let report = assemble_report(
            outputs,
            std::mem::take(&mut self.dispatcher.stats),
            self.dispatcher.trace_start,
            self.dispatcher.trace_end,
            self.config.warmup_micros,
        );
        (
            report,
            PipelineTimings {
                workers,
                dispatch_busy_micros: self.busy_nanos / 1_000,
                send_wait_micros: self.dispatcher.send_wait_nanos / 1_000,
                worker_busy_micros,
                intern,
            },
            sinks,
        )
    }
}

/// Build the `workers` shard engines, splitting the Clist budget `L`:
/// `L / workers` entries each, the remainder one each to the lowest
/// shards, at least 1 (§3.1.1 — sharding splits the §4.2 memory budget, it
/// does not multiply it).
pub(crate) fn shard_engines(
    config: &SnifferConfig,
    workers: usize,
    make_sink: &mut Option<&mut dyn FnMut(usize) -> Box<dyn FlowSink>>,
) -> Vec<ShardEngine> {
    let base = config.resolver.clist_size / workers;
    let remainder = config.resolver.clist_size % workers;
    (0..workers)
        .map(|i| {
            let per_shard = (base + usize::from(i < remainder)).max(1);
            let mut engine = ShardEngine::new(
                config.clone(),
                ResolverConfig {
                    clist_size: per_shard,
                    ..config.resolver
                },
            );
            if let Some(make_sink) = make_sink.as_deref_mut() {
                engine.set_sink(make_sink(i));
            }
            engine
        })
        .collect()
}

/// Sum the per-shard interning stats.
fn fold_intern(outputs: &[ShardOutput]) -> InternStats {
    let mut intern = InternStats::default();
    for out in outputs {
        intern.allocated += out.intern.allocated;
        intern.reused += out.intern.reused;
    }
    intern
}

/// One shard worker: drive this shard's [`ShardEngine`]. Items arrive
/// pre-parsed — a [`CompactSeg`] plus DPI head bytes straight into the
/// flow table, or a DNS payload decoded here, the exact decode path the
/// sequential sniffer runs — one batch per `recv`, until the dispatcher
/// drops its sender and the queue is drained. Returns the shard's output
/// plus its busy time (µs, excluding `recv` blocking).
// lint_root(ingest): per-worker ingest: decodes DNS and drives the shard engine
fn worker_loop(
    mut engine: ShardEngine,
    shard: usize,
    port: WorkerPort,
    registry: Option<Arc<telemetry::Registry>>,
    trace: Option<Arc<TraceSet>>,
) -> (ShardOutput, u64) {
    // Bind this shard's registry for the thread's whole lifetime, so every
    // engine/resolver/flow-table update below lands in per-shard cells that
    // the merge later folds into the dispatcher's registry.
    let _telemetry_guard = registry.map(telemetry::bind);
    // And its flight-recorder lane: resolver/flow/sink provenance events
    // fired by the engine below record into this worker's ring.
    let _trace_guard = trace
        .as_ref()
        .map(|set| telemetry::trace_bind(set, LaneKind::Worker, shard as u16));
    let mut busy_nanos = 0u64;
    let mut last_seq = 0u64;
    // `Err` only once the dispatcher dropped its sender *and* the queue is
    // drained: nothing sent before the close is lost.
    while let Ok(mut batch) = port.rx.recv() {
        port.depth.fetch_sub(1, Ordering::Relaxed);
        if telemetry::trace_enabled() {
            tm_trace_wall!(Te::RingRecvBatch, 0, shard as u64, 1);
        }
        let t0 = Instant::now();
        for item in &batch.items {
            debug_assert!(
                item.seq >= last_seq,
                "worker observed seq {} after {}",
                item.seq,
                last_seq
            );
            last_seq = item.seq;
            let start = item.off as usize;
            let end = start + item.len as usize;
            match item.kind {
                ItemKind::Start => engine.note_trace_start(item.ts),
                ItemKind::Tick => engine.tick(item.seq, item.ts),
                ItemKind::Seg(seg) => {
                    let head = batch.bytes.get(start..end).unwrap_or(&[]);
                    engine.process_seg(
                        item.seq,
                        item.ts,
                        &seg,
                        head,
                        &mut None::<&mut RuleEnforcer>,
                    );
                }
                ItemKind::DnsUdp { client } => {
                    let payload = batch.bytes.get(start..end).unwrap_or(&[]);
                    engine.handle_dns_payload(item.seq, item.ts, client, payload);
                }
                ItemKind::DnsTcp { client } => {
                    let payload = batch.bytes.get(start..end).unwrap_or(&[]);
                    for msg in codec::decode_tcp_stream(payload) {
                        engine.handle_dns_message(item.seq, item.ts, client, &msg);
                    }
                }
                ItemKind::Rotate { horizon } => {
                    let retired = engine.rotate(horizon);
                    // The barrier half: the dispatcher blocks on this
                    // reply, so the send can never find the capacity-1
                    // channel full. A failed send means the dispatcher
                    // already gave up on us.
                    let _ = port.rotate_tx.send(retired);
                }
            }
        }
        let drain_nanos = t0.elapsed().as_nanos() as u64;
        busy_nanos += drain_nanos;
        if telemetry::trace_enabled() {
            tm_trace_wall!(Te::WorkerDrain, 0, batch.items.len() as u64, drain_nanos);
        }
        batch.items.clear();
        batch.bytes.clear();
        // Best effort, never blocking: an arena that doesn't fit the
        // recycle channel is simply dropped and the dispatcher allocates a
        // fresh one.
        let _ = port.recycle.try_send(batch);
    }
    let t0 = Instant::now();
    let out = engine.finish_shard();
    busy_nanos += t0.elapsed().as_nanos() as u64;
    tm_count!(Tm::WorkerBusyNanos, busy_nanos);
    (out, busy_nanos / 1_000)
}
