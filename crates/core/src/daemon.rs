//! Daemon mode: a poll/backpressure event loop over any [`FrameSource`],
//! with packet-clock-driven **state rotation** (DESIGN.md §13).
//!
//! The batch drivers hold the whole trace's windowed-analytics state live
//! until `finish`. A long-running service cannot: the [`run_frame_daemon`]
//! loop polls its source (`Pending`/`Ready`/`Eof`), advances a packet
//! clock (`clock = max(clock, ts)` — monotone even over jittered capture
//! stamps), and every `rotate` interval retires every windowed bucket no
//! future event can touch. Retired buckets flow into the
//! [`RotationEmitter`], which replays [`WindowedAnalytics::for_each_window`]
//! *incrementally*: window positions are emitted as soon as every bucket
//! they cover is final, in exactly the order — and with exactly the bytes —
//! the batch sweep would produce. Retire-and-emit is what replaces the
//! [`crate::window::MAX_LIVE_BUCKETS`] overflow drop on an unbounded
//! stream: live state is bounded by rotation cadence, not by dropping
//! events.
//!
//! The **rotation horizon** is the packet clock clamped down to the oldest
//! live flow's first timestamp (a flow contributes to the bucket of its
//! `first_ts` only when it *finishes*, which can be arbitrarily later), so
//! no bucket a live flow can still touch is ever retired. Both drivers
//! compute the same horizon — the sequential sniffer from its flow table,
//! the parallel one from its routing-table mirror — which, together with
//! the rotation barrier firing at the same packet-clock instants, makes
//! daemon output byte-identical at every worker count.
//!
//! [`run_flowrec_daemon`] is the NetFlow/IPFIX-style regime: a versioned
//! export stream ([`dnhunter_net::flowrec`]) carrying mirrored DNS
//! payloads and pre-aggregated flow summaries. Export order is not event
//! order (a flow exports at its *last* packet), so a bounded reorder
//! buffer sits in front of the resolver: records are released in event-time
//! order once the watermark (max event time seen minus the skew bound)
//! passes them, overflow past the buffer's capacity force-releases the
//! earliest record (counted on `dnh_flowrec_skew_overflow_total`), and a
//! record landing behind the release clock is counted late but still
//! processed — never dropped, never panicking.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io::Read;

use dnhunter_net::{
    ExportRecord, FlowRecError, FlowRecReader, FrameSource, NetError, PcapRecord, SourcePoll,
};
use dnhunter_telemetry::{self as telemetry, tm_count, Metric};

use crate::pipeline::ParallelSniffer;
use crate::sniffer::{RealTimeSniffer, SnifferReport};
use crate::stream::{push_u64, FlowSink, StreamingAnalytics};
use crate::window::{WindowConfig, WindowedAnalytics};

/// How long the daemon loop sleeps when its source reports `Pending`
/// (a non-blocking FIFO/socket with nothing buffered). Short enough that
/// replay latency stays sub-millisecond, long enough not to spin.
const PENDING_BACKOFF_MICROS: u64 = 200;

/// Either sniffer driver, behind the one record/rotate surface the daemon
/// loop needs.
pub enum DaemonSniffer {
    Seq(Box<RealTimeSniffer>),
    Par(Box<ParallelSniffer>),
}

impl DaemonSniffer {
    /// Feed one pcap record to the underlying driver.
    // lint_root(ingest): daemon record entry, one call per polled record
    pub fn process_record(&mut self, rec: &PcapRecord) {
        match self {
            DaemonSniffer::Seq(s) => s.process_record(rec),
            DaemonSniffer::Par(s) => s.process_record(rec),
        }
    }

    /// Rotate at packet-clock `clock`: returns the horizon actually used
    /// (clamped to the oldest live flow) and the retired bucket partials,
    /// per-shard lists concatenated in shard order.
    // lint_root(determinism): one rotation point for both drivers
    pub fn rotate(&mut self, clock: u64) -> (u64, Vec<(u64, StreamingAnalytics)>) {
        match self {
            DaemonSniffer::Seq(s) => s.rotate(clock),
            DaemonSniffer::Par(s) => {
                let (horizon, per_shard) = s.rotate(clock);
                (horizon, per_shard.into_iter().flatten().collect())
            }
        }
    }

    /// Live telemetry view for mid-run `--metrics` interval lines: a
    /// sampler that, given the driver thread's registry, returns its
    /// snapshot plus (for the parallel sniffer) a racy-but-monotone sum of
    /// the workers' registries. It holds its own handles on those
    /// registries because the daemon loop has the sniffer mutably borrowed
    /// whenever `on_record` runs. The final post-`finish` snapshot comes
    /// from the merged driver registry instead.
    pub fn live_snapshot(&self) -> impl Fn(&telemetry::Registry) -> telemetry::Snapshot {
        let workers = match self {
            DaemonSniffer::Seq(_) => Vec::new(),
            DaemonSniffer::Par(s) => s.worker_registries.clone(),
        };
        move |registry| {
            let mut snap = registry.snapshot();
            for reg in &workers {
                snap.merge(&reg.snapshot());
            }
            snap
        }
    }

    /// Finish the run, handing back the report and the per-shard sinks
    /// (shard order) for the emitter's final fold.
    pub fn finish_with_sinks(self) -> (SnifferReport, Vec<Box<dyn FlowSink>>) {
        match self {
            DaemonSniffer::Seq(s) => s.finish_with_sinks(),
            DaemonSniffer::Par(s) => s.finish_with_sinks(),
        }
    }
}

/// The rotation schedule plus the emitter it feeds. Owned by the daemon
/// loop caller so the final [`RotationEmitter::finish`] can fold the
/// post-`finish` sinks in.
pub struct Rotation {
    interval_micros: u64,
    /// Monotone packet clock: `max` over every observed record timestamp.
    clock: u64,
    /// Clock value at the last rotation, anchored at the first record's
    /// timestamp — both are functions of the record stream alone, so the
    /// schedule is deterministic for any source pacing or worker count.
    last_rotate: Option<u64>,
    /// Rotations fired so far.
    pub rotations: u64,
    /// The incremental window renderer fed by each rotation.
    pub emitter: RotationEmitter,
}

impl Rotation {
    /// A rotation schedule firing every `interval_micros` of packet time,
    /// emitting windows shaped by `cfg`.
    pub fn new(interval_micros: u64, cfg: WindowConfig) -> Self {
        Rotation {
            interval_micros: interval_micros.max(1),
            clock: 0,
            last_rotate: None,
            rotations: 0,
            emitter: RotationEmitter::new(cfg, interval_micros.max(1)),
        }
    }

    /// Advance the packet clock by one record timestamp; `Some(clock)`
    /// means a rotation is due at that clock value.
    fn observe(&mut self, ts: u64) -> Option<u64> {
        self.clock = self.clock.max(ts);
        let anchor = *self.last_rotate.get_or_insert(ts);
        (self.clock.saturating_sub(anchor) >= self.interval_micros).then_some(self.clock)
    }

    /// Account one rotation the sniffer just ran at packet-clock `clock`,
    /// feeding what it retired below `horizon` to the emitter.
    // lint_root(determinism): rotation instants are a function of the record stream
    fn fire(&mut self, clock: u64, (horizon, retired): (u64, Vec<(u64, StreamingAnalytics)>)) {
        self.last_rotate = Some(clock);
        self.rotations += 1;
        tm_count!(Metric::DaemonRotations);
        self.emitter.on_rotation(horizon, retired);
    }
}

/// Drive `sniffer` from `source` until `Eof`: the daemon's event loop.
/// `Ready` records advance the packet clock and may fire a rotation;
/// `Pending` sleeps briefly (bounded backpressure — the pipeline's rings
/// already bound in-flight work); `on_record(ts)` runs after every record
/// for driver-side polling (metric snapshots). Returns the record count.
// lint_root(ingest): daemon event loop over a polled frame source
pub fn run_frame_daemon(
    source: &mut dyn FrameSource,
    sniffer: &mut DaemonSniffer,
    mut rotation: Option<&mut Rotation>,
    mut on_record: impl FnMut(u64),
) -> Result<u64, NetError> {
    let mut records = 0u64;
    loop {
        match source.poll_next()? {
            SourcePoll::Ready(rec) => {
                records += 1;
                let ts = rec.timestamp_micros();
                if let Some(rot) = rotation.as_deref_mut() {
                    rot.emitter.note_origin(ts);
                }
                sniffer.process_record(&rec);
                if let Some(rot) = rotation.as_deref_mut() {
                    if let Some(clock) = rot.observe(ts) {
                        rot.fire(clock, sniffer.rotate(clock));
                    }
                }
                on_record(ts);
                source.recycle(rec);
            }
            SourcePoll::Pending => {
                std::thread::sleep(std::time::Duration::from_micros(PENDING_BACKOFF_MICROS));
            }
            SourcePoll::Eof => return Ok(records),
        }
    }
}

/// Flow-record ingest tuning: how much export-time skew the reorder
/// buffer absorbs, and its hard capacity.
#[derive(Debug, Clone)]
pub struct FlowrecConfig {
    /// Watermark lag: a record is released once the maximum event time
    /// seen exceeds its own by this much (export order lags event order by
    /// at most a flow's duration; size this to the probe's active timeout).
    pub skew_micros: u64,
    /// Hard cap on buffered records; beyond it the earliest buffered
    /// record is force-released and counted as a skew overflow.
    pub capacity: usize,
}

impl Default for FlowrecConfig {
    fn default() -> Self {
        FlowrecConfig {
            skew_micros: 60 * 1_000_000,
            capacity: 65_536,
        }
    }
}

/// What the flow-record daemon counted, for the driver's summary.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlowrecStats {
    /// DNS export records ingested.
    pub dns_records: u64,
    /// Flow export records ingested.
    pub flow_records: u64,
    /// Records force-released because the buffer hit capacity.
    pub skew_overflow: u64,
    /// Records released behind the release clock (reordering beyond the
    /// skew bound); processed anyway, never dropped.
    pub late_records: u64,
}

/// One buffered export record, ordered by `(event_ts, arrival)` so the
/// release order is deterministic even among equal timestamps.
struct PendingRec {
    ts: u64,
    arrival: u64,
    rec: ExportRecord,
}

impl PartialEq for PendingRec {
    fn eq(&self, other: &Self) -> bool {
        (self.ts, self.arrival) == (other.ts, other.arrival)
    }
}
impl Eq for PendingRec {}
impl PartialOrd for PendingRec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingRec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ts, self.arrival).cmp(&(other.ts, other.arrival))
    }
}

/// The bounded reorder buffer in front of the resolver for the
/// NetFlow/IPFIX regime: DNS must reach Algorithm 1 before the flows it
/// tags, but a flow exports at its *last* packet — so releases follow
/// event time under a watermark, not arrival order.
struct ReorderBuffer {
    heap: BinaryHeap<Reverse<PendingRec>>,
    arrival: u64,
    max_event_ts: u64,
    released_ts: u64,
}

impl ReorderBuffer {
    fn new() -> Self {
        ReorderBuffer {
            heap: BinaryHeap::new(),
            arrival: 0,
            max_event_ts: 0,
            released_ts: 0,
        }
    }

    fn push(&mut self, rec: ExportRecord) {
        let ts = rec.event_ts();
        self.max_event_ts = self.max_event_ts.max(ts);
        let arrival = self.arrival;
        self.arrival += 1;
        self.heap.push(Reverse(PendingRec { ts, arrival, rec }));
    }

    /// End of stream: every buffered record is present and heap-ordered,
    /// so the watermark can jump to infinity — remaining releases are
    /// exact, not skew violations.
    fn seal(&mut self) {
        self.max_event_ts = u64::MAX;
    }

    /// Pop the earliest buffered record if the watermark passed it, or
    /// unconditionally when `force` (capacity overflow).
    fn release(
        &mut self,
        skew: u64,
        force: bool,
        stats: &mut FlowrecStats,
    ) -> Option<ExportRecord> {
        let watermark = self.max_event_ts.saturating_sub(skew);
        let due = self.heap.peek().is_some_and(|p| p.0.ts <= watermark);
        let capacity_forced = force && !self.heap.is_empty();
        if !(due || capacity_forced) {
            return None;
        }
        let Reverse(p) = self.heap.pop()?;
        if !due {
            stats.skew_overflow += 1;
            tm_count!(Metric::FlowrecSkewOverflow);
        }
        if p.ts < self.released_ts {
            // Reordered beyond the skew bound: the resolver sees it out of
            // order (a flow may miss a binding DNS already established for
            // a later clock). Count it; never drop it.
            stats.late_records += 1;
            tm_count!(Metric::FlowrecLateRecords);
        }
        self.released_ts = self.released_ts.max(p.ts);
        Some(p.rec)
    }
}

/// Drive `sniffer` from a flow-record export stream until EOF, releasing
/// records in watermarked event-time order. Rotation (when given) runs on
/// the released-record clock — the same packet-clock contract as
/// [`run_frame_daemon`]. Decode errors surface as `Err` (counted first),
/// never as panics.
// lint_root(ingest): flow-record daemon over an attacker-controlled export stream
pub fn run_flowrec_daemon<R: Read>(
    reader: &mut FlowRecReader<R>,
    sniffer: &mut RealTimeSniffer,
    cfg: &FlowrecConfig,
    mut rotation: Option<&mut Rotation>,
) -> Result<FlowrecStats, FlowRecError> {
    let mut stats = FlowrecStats::default();
    let mut buf = ReorderBuffer::new();
    let capacity = cfg.capacity.max(1);
    let mut ingest =
        |rec: ExportRecord, stats: &mut FlowrecStats, rotation: &mut Option<&mut Rotation>| {
            let ts = rec.event_ts();
            match &rec {
                ExportRecord::Dns(_) => {
                    stats.dns_records += 1;
                    tm_count!(Metric::FlowrecDnsRecords);
                }
                ExportRecord::Flow(_) => {
                    stats.flow_records += 1;
                    tm_count!(Metric::FlowrecFlowRecords);
                }
            }
            if let Some(rot) = rotation.as_deref_mut() {
                rot.emitter.note_origin(ts);
            }
            sniffer.ingest_export(&rec);
            if let Some(rot) = rotation.as_deref_mut() {
                if let Some(clock) = rot.observe(ts) {
                    rot.fire(clock, sniffer.rotate(clock));
                }
            }
        };
    loop {
        let rec = match reader.next_record() {
            Ok(Some(rec)) => rec,
            Ok(None) => break,
            Err(err) => {
                tm_count!(Metric::FlowrecDecodeErrors);
                return Err(err);
            }
        };
        buf.push(rec);
        while let Some(rec) = buf.release(cfg.skew_micros, buf.heap.len() > capacity, &mut stats) {
            ingest(rec, &mut stats, &mut rotation);
        }
    }
    // End of stream: seal the watermark and drain — the tail releases in
    // exact event order, so it is not a skew violation.
    buf.seal();
    while let Some(rec) = buf.release(cfg.skew_micros, false, &mut stats) {
        ingest(rec, &mut stats, &mut rotation);
    }
    Ok(stats)
}

/// Incremental replica of [`WindowedAnalytics`]'s window sweep, fed by
/// rotations instead of a finish-time pass.
///
/// Correctness rests on the rotation horizon's invariants:
///
/// * every bucket strictly below the retirement floor is **final** — no
///   future event can land in it (late arrivals are counted and refused by
///   the sink), so a window position `e` is emittable once `e < floor`;
/// * the first non-empty retirement's minimum bucket is the **global**
///   minimum (`lo` of the batch sweep): rotation retires *every* bucket
///   below the floor, and later events only open buckets at or above it;
/// * positions are additionally held back until `e ≤ hi + (steps-1)` for
///   the highest retired bucket `hi` seen so far — the batch sweep ends
///   there, so emitting further would fabricate trailing empty windows.
///
/// The rolling accumulator mirrors the batch sweep exactly: merge bucket
/// `e` on entry, retract bucket `e − steps` on exit, rebuild from the
/// surviving range on retraction underflow (counted — the fault matrix
/// pins it to zero). Retired buckets are dropped as soon as their last
/// window retires them, so emitter memory is bounded by rotation cadence
/// plus one window, not by stream length.
pub struct RotationEmitter {
    cfg: WindowConfig,
    rotate_micros: u64,
    /// First record timestamp — the rendered header's `origin`.
    origin: Option<u64>,
    /// Retired-but-still-windowed bucket partials.
    retired: BTreeMap<u64, StreamingAnalytics>,
    /// The batch sweep's `lo`: fixed by the first non-empty retirement.
    lo: Option<u64>,
    /// Highest retired bucket index seen so far.
    hi: u64,
    /// Everything below is final: `horizon / slide` of the last rotation.
    floor: u64,
    /// Next window position to emit.
    next_pos: u64,
    /// The rolling window aggregate, as of `next_pos`.
    acc: StreamingAnalytics,
    /// Unique buckets retired into the emitter.
    pub buckets_retired: u64,
    /// Rendered output: header (lazy), window lines, then one footer line
    /// appended by [`RotationEmitter::finish`].
    pub out: String,
    header_written: bool,
}

impl RotationEmitter {
    /// An emitter for windows shaped by `cfg`, rotating every
    /// `rotate_micros` (echoed in the stream header).
    pub fn new(cfg: WindowConfig, rotate_micros: u64) -> Self {
        let cfg = WindowConfig::new(cfg.window_micros, cfg.slide_micros);
        let acc = StreamingAnalytics::new(cfg.bucket_sink_config());
        RotationEmitter {
            cfg,
            rotate_micros,
            origin: None,
            retired: BTreeMap::new(),
            lo: None,
            hi: 0,
            floor: 0,
            next_pos: 0,
            acc,
            buckets_retired: 0,
            out: String::new(),
            header_written: false,
        }
    }

    /// Record the stream origin (first record timestamp); first call wins.
    pub fn note_origin(&mut self, ts: u64) {
        self.origin.get_or_insert(ts);
    }

    /// Fold one rotation's retired partials in and emit every window
    /// position that became final.
    pub fn on_rotation(&mut self, horizon: u64, retired: Vec<(u64, StreamingAnalytics)>) {
        self.absorb(retired);
        self.floor = self.floor.max(horizon / self.cfg.slide_micros);
        self.emit_ready(false);
    }

    /// Fold retired pairs (shard lists concatenated in shard order; the
    /// per-bucket merge is commutative, so any order folds to the same
    /// partial) and account unique buckets.
    fn absorb(&mut self, retired: Vec<(u64, StreamingAnalytics)>) {
        for (idx, part) in retired {
            self.hi = self.hi.max(idx);
            match self.retired.get_mut(&idx) {
                Some(existing) => existing.merge(part),
                None => {
                    self.buckets_retired += 1;
                    tm_count!(Metric::WindowBucketsRetired);
                    self.retired.insert(idx, part);
                }
            }
        }
    }

    /// Emit every position the batch sweep would have reached by now: all
    /// buckets `≤ e` final (`e < floor`, waived at `finish`) and inside
    /// the sweep's range (`e ≤ hi + steps − 1`).
    // lint_root(determinism): emitted bytes must equal the batch window sweep's
    fn emit_ready(&mut self, at_finish: bool) {
        let n = self.cfg.steps();
        let slide = self.cfg.slide_micros;
        let Some(lo) = self.lo.or_else(|| {
            let first = self.retired.keys().next().copied();
            self.lo = first;
            first
        }) else {
            return;
        };
        if self.next_pos < lo {
            self.next_pos = lo;
        }
        while (at_finish || self.next_pos < self.floor) && self.next_pos <= self.hi + (n - 1) {
            let e = self.next_pos;
            if let Some(part) = self.retired.get(&e) {
                self.acc.merge_ref(part);
            }
            if e >= lo + n {
                if let Some(expired) = self.retired.get(&(e - n)) {
                    if self.acc.unmerge(expired).is_err() {
                        // Same observable-not-fatal contract as the batch
                        // sweep: count the breach, rebuild from surviving
                        // buckets, keep the output correct.
                        tm_count!(Metric::WindowRetractUnderflow);
                        self.acc = StreamingAnalytics::new(self.cfg.bucket_sink_config());
                        for (_, part) in self.retired.range(e + 1 - n..=e) {
                            self.acc.merge_ref(part);
                        }
                    }
                }
                // Bucket e−n left the window; no later position needs it.
                self.retired.remove(&(e - n));
            }
            let first_bucket = (e + 1).saturating_sub(n);
            let start = first_bucket * slide;
            self.write_header_once();
            self.out.push_str("{\"window_start\":");
            push_u64(&mut self.out, start);
            self.out.push_str(",\"window_end\":");
            push_u64(&mut self.out, (e + 1) * slide);
            self.out.push_str(",\"seq\":");
            push_u64(&mut self.out, e - lo);
            self.out.push_str(",\"summary\":");
            // No rebased view: the summary reads no bin key.
            self.acc.render_summary_object(&mut self.out);
            self.out.push_str("}\n");
            self.next_pos += 1;
        }
    }

    fn write_header_once(&mut self) {
        if self.header_written {
            return;
        }
        self.header_written = true;
        self.out
            .push_str("{\"stream\":\"dn-hunter-rotated\",\"window_micros\":");
        push_u64(&mut self.out, self.cfg.window_micros);
        self.out.push_str(",\"slide_micros\":");
        push_u64(&mut self.out, self.cfg.slide_micros);
        self.out.push_str(",\"rotate_micros\":");
        push_u64(&mut self.out, self.rotate_micros);
        self.out.push_str(",\"origin\":");
        match self.origin {
            Some(t) => push_u64(&mut self.out, t),
            None => self.out.push_str("null"),
        }
        self.out.push_str("}\n");
    }

    /// End of stream: retire everything still live in the finished sinks,
    /// sweep the remaining window positions, and append the footer line.
    /// Returns the full rotated JSONL stream.
    pub fn finish(mut self, rotations: u64, sinks: Vec<Box<dyn FlowSink>>) -> String {
        let mut late_bucket_events = 0u64;
        let mut dropped_bucket_events = 0u64;
        for mut sink in sinks {
            self.absorb(sink.rotate(u64::MAX));
            if let Ok(w) = sink.as_any_box().downcast::<WindowedAnalytics>() {
                late_bucket_events += w.late_bucket_events();
                dropped_bucket_events += w.dropped_bucket_events();
            }
        }
        self.emit_ready(true);
        self.write_header_once();
        self.out.push_str("{\"rotations\":");
        push_u64(&mut self.out, rotations);
        self.out.push_str(",\"buckets_retired\":");
        push_u64(&mut self.out, self.buckets_retired);
        self.out.push_str(",\"late_bucket_events\":");
        push_u64(&mut self.out, late_bucket_events);
        self.out.push_str(",\"dropped_bucket_events\":");
        push_u64(&mut self.out, dropped_bucket_events);
        self.out.push_str("}\n");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::TaggedFlow;
    use dnhunter_flow::{AppProtocol, FlowKey};
    use dnhunter_net::IpProtocol;

    fn flow(i: u64, ts: u64) -> TaggedFlow {
        TaggedFlow {
            key: FlowKey::from_initiator(
                format!("10.0.0.{}", i % 5).parse().unwrap(),
                format!("93.184.216.{}", i % 3).parse().unwrap(),
                50000 + i as u16,
                443,
                IpProtocol::Tcp,
            ),
            fqdn: (!i.is_multiple_of(3)).then(|| {
                if i.is_multiple_of(2) {
                    "www.example.com".parse().unwrap()
                } else {
                    "img.other.org".parse().unwrap()
                }
            }),
            second_level: None,
            alt_labels: Vec::new(),
            tag_delay_micros: Some(1000 + i),
            first_ts: ts,
            last_ts: ts + 10,
            packets_c2s: 1 + i,
            packets_s2c: 1,
            bytes_c2s: 10 * (i + 1),
            bytes_s2c: 10,
            protocol: AppProtocol::Tls,
            tls: None,
            in_warmup: false,
        }
    }

    fn feed(sink: &mut WindowedAnalytics, flows: &[TaggedFlow]) {
        sink.on_trace_start(flows.first().map_or(0, |f| f.first_ts));
        for f in flows {
            sink.on_flow_finished(f);
            sink.on_any_flow_delay(f.first_ts, 40);
        }
    }

    fn cfg() -> WindowConfig {
        WindowConfig::new(4_000_000, 2_000_000)
    }

    /// Rotating at any cadence reproduces the batch sweep's window lines.
    #[test]
    fn rotated_lines_equal_batch_sweep() {
        let flows: Vec<TaggedFlow> = (0u64..40).map(|i| flow(i, 500_000 + i * 600_000)).collect();
        let mut batch = WindowedAnalytics::new(cfg());
        feed(&mut batch, &flows);
        let reference: Vec<String> = batch.render().lines().skip(1).map(str::to_owned).collect();

        for rotate_every in [1usize, 3, 7, 40] {
            let mut sink = WindowedAnalytics::new(cfg());
            let mut emitter = RotationEmitter::new(cfg(), 1_000_000);
            emitter.note_origin(flows[0].first_ts);
            sink.on_trace_start(flows[0].first_ts);
            for (i, f) in flows.iter().enumerate() {
                sink.on_flow_finished(f);
                sink.on_any_flow_delay(f.first_ts, 40);
                if (i + 1) % rotate_every == 0 {
                    // Horizon = current clock: every flow here is finished
                    // the moment it is fed, so nothing live holds it back.
                    let horizon = f.first_ts;
                    let retired = FlowSink::rotate(&mut sink, horizon);
                    emitter.on_rotation(horizon, retired);
                }
            }
            let out = emitter.finish(0, vec![Box::new(sink) as Box<dyn FlowSink>]);
            let lines: Vec<String> = out
                .lines()
                .filter(|l| l.starts_with("{\"window_start\""))
                .map(str::to_owned)
                .collect();
            assert_eq!(lines, reference, "cadence {rotate_every} diverged");
        }
    }

    #[test]
    fn header_and_footer_shape() {
        let sink = WindowedAnalytics::new(cfg());
        let emitter = RotationEmitter::new(cfg(), 600_000_000);
        let out = emitter.finish(3, vec![Box::new(sink) as Box<dyn FlowSink>]);
        let mut lines = out.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("{\"stream\":\"dn-hunter-rotated\""));
        assert!(header.contains("\"rotate_micros\":600000000"));
        assert!(header.contains("\"origin\":null"));
        let footer = lines.next().unwrap();
        assert!(footer.starts_with("{\"rotations\":3"));
        assert!(footer.contains("\"dropped_bucket_events\":0"));
        assert!(lines.next().is_none());
    }

    #[test]
    fn reorder_buffer_releases_in_event_order_within_skew() {
        let mut stats = FlowrecStats::default();
        let mut buf = ReorderBuffer::new();
        let dns = |ts: u64| {
            ExportRecord::Dns(dnhunter_net::DnsExportRecord {
                ts_micros: ts,
                client: "10.0.0.1".parse().unwrap(),
                message: vec![0; 4],
            })
        };
        for ts in [500u64, 100, 300, 900, 200] {
            buf.push(dns(ts));
        }
        // Watermark = 900 - 250 = 650: releases 100, 200, 300, 500.
        let mut released = Vec::new();
        while let Some(rec) = buf.release(250, false, &mut stats) {
            released.push(rec.event_ts());
        }
        assert_eq!(released, vec![100, 200, 300, 500]);
        assert_eq!(stats.late_records, 0);
        // Capacity pressure forces the 900-ts record out while it is still
        // inside the skew window: that is the overflow the metric counts.
        assert!(buf.release(250, true, &mut stats).is_some());
        assert_eq!(stats.skew_overflow, 1);
        // A record behind the release clock is late but still released,
        // and the sealed EOF drain is not a skew violation.
        buf.push(dns(50));
        buf.seal();
        while buf.release(250, false, &mut stats).is_some() {}
        assert_eq!(stats.late_records, 1);
        assert_eq!(stats.skew_overflow, 1);
    }
}
