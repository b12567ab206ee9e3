//! Parallel ingest: the multi-core DN-Hunter sniffer.
//!
//! The paper sizes DN-Hunter for a single monitor thread (§3.2 shows one
//! core keeps up with a 1M-packets/s PoP) and names one scaling escape
//! hatch in §3.1.1: partition the monitored *clients* across independent
//! resolvers. [`ParallelSniffer`] applies that idea behind one dispatcher,
//! the caller's thread, which runs the sequential sniffer's own front end
//! (`sniffer::FrontEnd`: flat parse, DNS demultiplexing, the one flow
//! table and its eviction gate) and fans the engine events it produces —
//! DNS response payloads, flow starts, finished flow records, flow-export
//! records — out over bounded channels to `N` shard workers. The workers
//! run the rest of Fig. 1: DNS decode, the resolver (Algorithm 1), tagging
//! at flow start, delay accounting, the DPI verdict of each finished flow,
//! and the sink.
//!
//! Work travels as batches: up to `BATCH_ITEMS` items plus one shared byte
//! arena holding the DNS payloads, so steady-state ingest copies no frame
//! and allocates nothing beyond what the flow table already does. Every
//! edge is a `std::sync::mpsc::sync_channel`: sealed batches travel
//! dispatcher→worker one per send over a bounded FIFO (a slow shard
//! backpressures ingest instead of buffering the trace), drained batches
//! come back worker→dispatcher best-effort for reuse, and either
//! endpoint's drop closes the link. Every event routes by its client IP
//! through one FNV hash ([`shard_of`]) — a DNS response by its destination,
//! a flow by its key's client — the *shard-affinity invariant*: a client's
//! DNS bindings (Algorithm 1 state), the flows those bindings tag, and the
//! §5.1 delay samples for both always live on the same worker, so workers
//! share nothing and take no locks on the per-packet path.
//!
//! Determinism is by construction (see `DESIGN.md` §7): both drivers run
//! the same front end on the same frame order, so the one flow table emits
//! the same events under the same `(seq, phase)` stamps; each worker sees
//! its items in sequence order over its one channel; and the final merge
//! re-orders every output stream under that key — so the [`SnifferReport`]
//! is byte-identical to [`crate::RealTimeSniffer`]'s for any worker count
//! (as long as no shard overflows its Clist partition; the default
//! `L = 2^20` makes evictions a non-issue at trace scale).

// No panics and no unchecked indexing on the packet path (DESIGN.md §8).
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::panic, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented))]

use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use dnhunter_flow::{FlowKey, FlowRecord};
use dnhunter_net::{ExportRecord, FlowExportRecord, PcapRecord, SourcePoll};
use dnhunter_resolver::{shard_of, InternStats, ResolverConfig};
use dnhunter_telemetry::{
    self as telemetry, tm_count, tm_observe, tm_trace_wall, LaneKind, Metric as Tm,
    TraceEvent as Te, TraceSet,
};

use crate::daemon::DaemonDriver;
use crate::engine::{assemble_report, EventKey, ShardEngine, ShardOutput};
use crate::policy::RuleEnforcer;
use crate::sniffer::{EngineEvents, FrontEnd, SnifferConfig, SnifferReport, SnifferStats};
use crate::stream::{FlowSink, StreamingAnalytics};

/// What a worker hands back over its rotation channel: the retired
/// `(bucket index, partial)` pairs its windowed sink gave up, in bucket
/// order.
type RotateReply = Vec<(u64, StreamingAnalytics)>;

/// Items per batch before the dispatcher seals a batch. Batching amortises
/// the channel handoff over many events (§3.2's per-packet budget is far
/// below one syscall/lock per packet).
const BATCH_ITEMS: usize = 128;
/// Arena bytes per batch before an early seal (keeps batches cache-sized
/// even under jumbo DNS payloads).
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
#[derive(Debug)]
enum ItemKind {
    /// Anchor the warm-up window at the trace's first frame timestamp.
    Start,
    /// A DNS response for `client` (the endpoint that asked): the item's
    /// byte range is the transport payload; decode it and feed
    /// Algorithm 1. `over_tcp` payloads are RFC 1035 §4.2.2 framed.
    Dns { client: IpAddr, over_tcp: bool },
    /// The flow table created this flow: tag it.
    FlowStart(FlowKey),
    /// The flow table emitted this finished flow at `(item.seq, phase)`:
    /// classify it and emit it. Unboxed on the dispatcher and, once the
    /// batch comes back, freed there too (see [`Batch`]).
    FlowEnd { record: FlowRecord, phase: u8 },
    /// A flow-export record: tag the flow and emit it at `(item.seq, 0)`.
    FlowExport(FlowExportRecord),
    /// Retire every windowed-analytics bucket strictly below `horizon` and
    /// answer with the retired partials on this worker's rotation channel —
    /// the broadcast half of the [`DaemonDriver::rotate`] barrier.
    Rotate { horizon: u64 },
}

/// One event in a batch; `off..off+len` indexes the batch's byte arena
/// (empty for everything but `Dns`).
#[derive(Debug)]
struct Item {
    kind: ItemKind,
    seq: u64,
    ts: u64,
    off: u32,
    len: u32,
}

/// A batch of items plus the arena holding their payload bytes. Recycled
/// between worker and dispatcher so steady-state ingest allocates nothing.
/// The worker hands a drained batch back uncleared and the dispatcher
/// clears it before refilling it: the finished records it still holds,
/// DPI head buffers included, are freed on the thread that allocated them,
/// whose allocator caches then serve the next flows warm. Boxed records
/// freed on the worker measured about a fifth fewer events/s through the
/// dispatcher (`dnh-bench` `web-day-par`, 2-vCPU host).
#[derive(Default)]
struct Batch {
    items: Vec<Item>,
    bytes: Vec<u8>,
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
    /// Dispatcher CPU time (parse + flow table + batch building, and the
    /// final flow-table flush), µs — blocking channel sends excluded.
    pub dispatch_busy_micros: u64,
    /// Dispatcher time spent inside (possibly blocking) channel sends, µs.
    pub send_wait_micros: u64,
    /// Per-worker CPU time (DNS decode + resolver + tagging + DPI verdicts
    /// + sink), µs.
    pub worker_busy_micros: Vec<u64>,
    /// FQDN interning effectiveness summed over all shard resolvers.
    pub intern: InternStats,
}

/// The dispatcher's [`EngineEvents`]: links to every shard worker, each
/// event appended to its client's shard batch, and the counters the front
/// end bumps (the merge adds the workers' to them). One per
/// [`ParallelSniffer`], on the caller's thread.
struct Dispatcher {
    links: Vec<WorkerLink>,
    stats: SnifferStats,
    send_wait_nanos: u64,
}

impl EngineEvents for Dispatcher {
    fn stats(&mut self) -> &mut SnifferStats {
        &mut self.stats
    }

    fn trace_start(&mut self, seq: u64, ts: u64) {
        // Every shard anchors its warm-up window at the global trace
        // start, not its own first frame.
        for shard in 0..self.links.len() {
            self.push_item(shard, ItemKind::Start, seq, ts, &[]);
        }
    }

    fn dns(&mut self, seq: u64, ts: u64, client: IpAddr, payload: &[u8], over_tcp: bool) {
        let kind = ItemKind::Dns { client, over_tcp };
        self.push_item(shard_of(client, self.links.len()), kind, seq, ts, payload);
    }

    fn flow_started(&mut self, seq: u64, ts: u64, key: FlowKey) {
        let shard = shard_of(key.client, self.links.len());
        self.push_item(shard, ItemKind::FlowStart(key), seq, ts, &[]);
    }

    fn flow_finished(&mut self, (seq, phase): EventKey, record: Box<FlowRecord>) {
        let shard = shard_of(record.key.client, self.links.len());
        let (ts, record) = (record.last_ts, *record);
        self.push_item(shard, ItemKind::FlowEnd { record, phase }, seq, ts, &[]);
    }

    fn flow_export(&mut self, seq: u64, rec: &FlowExportRecord) {
        let shard = shard_of(rec.client, self.links.len());
        self.push_item(shard, ItemKind::FlowExport(*rec), seq, rec.first_ts, &[]);
    }
}

impl Dispatcher {
    /// Append one item (and its arena bytes, a DNS payload) to a shard's
    /// pending batch, sealing the batch when it fills.
    fn push_item(&mut self, shard: usize, kind: ItemKind, seq: u64, ts: u64, bytes: &[u8]) {
        let Some(link) = self.links.get_mut(shard) else {
            return;
        };
        if !matches!(kind, ItemKind::Start | ItemKind::Rotate { .. }) {
            tm_count!(Tm::PipelineItemsRouted);
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
        let mut next = link.recycle_rx.try_recv().unwrap_or_default();
        next.items.clear();
        next.bytes.clear();
        let batch = std::mem::replace(&mut link.pending, next);
        tm_count!(Tm::PipelineBatchesSent);
        tm_observe!(Tm::BatchItems, batch.items.len() as u64);
        let queued = link.depth.fetch_add(1, Ordering::Relaxed) + 1;
        tm_observe!(Tm::RingOccupancy, queued);
        // Wall-clock here feeds only the `send_wait_nanos` telemetry split;
        // no emitted byte depends on it.
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
    front: FrontEnd,
    dispatcher: Dispatcher,
    handles: Vec<JoinHandle<(ShardOutput, u64)>>,
    /// Receive half of each worker's capacity-1 rotation channel, shard
    /// order; [`DaemonDriver::rotate`] blocks on one reply per worker.
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

    // allow_lint(L8): sized from configuration; `workers` is clamped to MAX_PIPELINE_THREADS on the first line
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
        ParallelSniffer {
            front: FrontEnd::new(&config),
            config,
            dispatcher: Dispatcher {
                links,
                stats: SnifferStats::default(),
                send_wait_nanos: 0,
            },
            handles,
            rotation_rxs,
            seq: 0,
            busy_nanos: 0,
            worker_registries,
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.dispatcher.links.len()
    }

    /// Process one pcap record.
    pub fn process_record(&mut self, rec: &PcapRecord) {
        self.process_frame(rec.timestamp_micros(), &rec.frame);
    }

    /// Dispatch one raw Ethernet frame: run it through the front end exactly
    /// as the sequential sniffer does, and enqueue the engine events it
    /// produces for their shards.
    pub fn process_frame(&mut self, ts: u64, frame: &[u8]) {
        let seq = self.seq;
        self.seq += 1;
        self.timed(|front, dispatcher| front.frame(seq, ts, frame, dispatcher));
    }

    /// Dispatch one flow-export record through the front end, exactly as
    /// [`crate::RealTimeSniffer::ingest_export`] does.
    pub fn ingest_export(&mut self, rec: &ExportRecord) {
        let seq = self.seq;
        self.seq += 1;
        self.timed(|front, dispatcher| front.export(seq, rec, dispatcher));
    }

    /// Run dispatcher work, adding its CPU time to the busy total. Blocking
    /// sends inside the window are counted by `seal_pending` into
    /// `send_wait_nanos` and subtracted here.
    fn timed(&mut self, work: impl FnOnce(&mut FrontEnd, &mut Dispatcher)) {
        let t0 = Instant::now();
        let send_before = self.dispatcher.send_wait_nanos;
        work(&mut self.front, &mut self.dispatcher);
        self.busy_nanos += (t0.elapsed().as_nanos() as u64)
            .saturating_sub(self.dispatcher.send_wait_nanos - send_before);
    }

    /// End of trace: flush the flow table, send every pending batch, close
    /// the channels, join the workers and merge their outputs into the one
    /// report. A worker that panicked has its panic re-raised here (and
    /// from every other `finish*`), never papered over with a partial
    /// report.
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
        self.timed(|front, dispatcher| {
            front.flush(dispatcher);
            dispatcher.flush_all();
        });
        // Dropping the links drops the senders, which closes each channel;
        // workers drain what is queued and return.
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
            self.front.trace_start,
            self.front.trace_end,
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

impl DaemonDriver for ParallelSniffer {
    fn ingest(&mut self, rec: &SourcePoll) {
        match rec {
            SourcePoll::Ready(rec) => self.process_record(rec),
            SourcePoll::Export(rec) => self.ingest_export(rec),
            SourcePoll::Pending | SourcePoll::Eof => {}
        }
    }

    /// Retire windowed-analytics buckets below the rotation horizon on
    /// every shard, returning the retired `(bucket, partial)` lists
    /// concatenated in shard order. The horizon is `clock` clamped down to
    /// the oldest live flow's start — the same flow table and the same
    /// clamp as the [`crate::RealTimeSniffer`] — so no window a live flow
    /// can still contribute to is emitted early. Runs as a barrier: a
    /// `Rotate` item is broadcast to every shard, pending batches flush,
    /// and the call blocks until each worker answers on its capacity-1
    /// rotation channel — cheap at rotation cadence, and it pins
    /// retirement to the same packet-clock instant at every worker count.
    fn rotate(&mut self, clock: u64) -> (u64, Vec<(u64, StreamingAnalytics)>) {
        let horizon = self.front.horizon(clock);
        let seq = self.seq;
        for shard in 0..self.dispatcher.links.len() {
            self.dispatcher
                .push_item(shard, ItemKind::Rotate { horizon }, seq, clock, &[]);
        }
        self.dispatcher.flush_all();
        let mut retired = Vec::new();
        for rx in &self.rotation_rxs {
            // `Err` = the worker died; treat as "nothing retired" and let
            // the join in `finish` re-raise its panic.
            retired.extend(rx.recv().unwrap_or_default());
        }
        (horizon, retired)
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

/// One shard worker: drive this shard's [`ShardEngine`] with the events
/// the dispatcher's front end produced — a DNS payload decoded here (the
/// exact decode path the sequential sniffer runs), a flow start to tag, a
/// finished flow record to classify and emit — one batch per `recv`, until
/// the dispatcher drops its sender and the queue is drained. Returns the
/// shard's output plus its busy time (µs, excluding `recv` blocking).
fn worker_loop(
    mut engine: ShardEngine,
    shard: usize,
    port: WorkerPort,
    registry: Option<Arc<telemetry::Registry>>,
    trace: Option<Arc<TraceSet>>,
) -> (ShardOutput, u64) {
    // Bind this shard's registry for the thread's whole lifetime, so every
    // engine/resolver update below lands in per-shard cells that the merge
    // later folds into the dispatcher's registry.
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
    while let Ok(batch) = port.rx.recv() {
        port.depth.fetch_sub(1, Ordering::Relaxed);
        if telemetry::trace_enabled() {
            tm_trace_wall!(Te::RingRecvBatch, 0, shard as u64, 1);
        }
        let t0 = Instant::now();
        let items = batch.items.len() as u64;
        for item in &batch.items {
            debug_assert!(
                item.seq >= last_seq,
                "worker observed seq {} after {}",
                item.seq,
                last_seq
            );
            last_seq = item.seq;
            match item.kind {
                ItemKind::Start => engine.note_trace_start(item.ts),
                ItemKind::Dns { client, over_tcp } => {
                    let start = item.off as usize;
                    let end = start + item.len as usize;
                    let payload = batch.bytes.get(start..end).unwrap_or(&[]);
                    engine.handle_dns_payload(item.seq, item.ts, client, payload, over_tcp);
                }
                ItemKind::FlowStart(key) => {
                    engine.on_flow_started(item.seq, item.ts, key, None::<&mut RuleEnforcer>)
                }
                ItemKind::FlowEnd { ref record, phase } => {
                    engine.on_flow_finished((item.seq, phase), record)
                }
                ItemKind::FlowExport(ref rec) => engine.ingest_flow_export(item.seq, rec),
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
            tm_trace_wall!(Te::WorkerDrain, 0, items, drain_nanos);
        }
        // Best effort, never blocking: a batch that doesn't fit the recycle
        // channel is simply dropped here and the dispatcher allocates a
        // fresh one.
        let _ = port.recycle.try_send(batch);
    }
    let t0 = Instant::now();
    let out = engine.finish_shard();
    busy_nanos += t0.elapsed().as_nanos() as u64;
    tm_count!(Tm::WorkerBusyNanos, busy_nanos);
    (out, busy_nanos / 1_000)
}
