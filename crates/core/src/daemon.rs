//! Daemon mode: a poll/backpressure event loop over any
//! [`FrameSource`](dnhunter_net::FrameSource), with packet-clock-driven
//! **state rotation** (DESIGN.md §13).
//!
//! The batch drivers hold the whole trace's windowed-analytics state live
//! until `finish`. A long-running service cannot: the [`run_frame_daemon`]
//! loop polls its source (`Pending`/`Ready`/`Eof`), advances a packet
//! clock (`clock = max(clock, ts)` — monotone even over jittered capture
//! stamps), and every `rotate` interval retires every windowed bucket no
//! future event can touch. Retired buckets flow into the
//! [`RotationEmitter`], which advances the window sweep that
//! [`WindowedAnalytics::render`] runs at finish as far as every bucket a
//! position covers is final: the same lines, in the same order, with the
//! same bytes. Retire-and-emit replaces the
//! [`crate::window::MAX_LIVE_BUCKETS`] overflow drop on an unbounded
//! stream: live state is bounded by rotation cadence, not by dropping
//! events.
//!
//! The **rotation horizon** is the packet clock clamped down to the oldest
//! live flow's first timestamp (a flow contributes to the bucket of its
//! `first_ts` only when it *finishes*, which can be arbitrarily later), so
//! no bucket a live flow can still touch is ever retired. Both drivers
//! read that horizon off the same flow table, in their shared front end
//! (the parallel one runs it on its dispatcher), which, together with the
//! rotation barrier firing at the same packet-clock instants, makes daemon
//! output byte-identical at every worker count.
//!
//! One loop serves every source: pcap files, pcap byte streams and DNFR
//! flow-export streams ([`dnhunter_net::FlowRecSource`], which releases
//! export records in event-time order through its bounded reorder
//! buffer). Frames and export records advance the same packet clock, fire
//! the same rotations and reach the driver through the same front end, so
//! every driver takes every source. [`run_flowrec_daemon`] is that loop
//! over a flow-record reader, for callers that only want its counts.

use std::collections::BTreeMap;
use std::io::Read;

use dnhunter_net::{FlowRecReader, FlowRecSource, FrameSource, NetError, SourcePoll};
pub use dnhunter_net::{FlowrecConfig, FlowrecStats};
use dnhunter_telemetry::{self as telemetry, tm_count, Metric};

use crate::json::{push_opt, push_u64};
use crate::pipeline::ParallelSniffer;
use crate::sniffer::{RealTimeSniffer, SnifferReport};
use crate::stream::{FlowSink, StreamingAnalytics};
use crate::window::{push_window_line, Sweep, WindowConfig, WindowedAnalytics};

/// How long the daemon loop sleeps when its source reports `Pending`:
/// its reader returned `WouldBlock` (a non-blocking FIFO/socket with
/// nothing buffered; a blocking reader never gets here). Short enough that
/// replay latency stays sub-millisecond, long enough not to spin.
const PENDING_BACKOFF_MICROS: u64 = 200;

/// What the daemon loop drives: one record in, one rotation at a time.
/// [`RealTimeSniffer`], [`ParallelSniffer`] and [`DaemonSniffer`] (either
/// of the two) implement it.
pub trait DaemonDriver {
    /// Feed one record the source produced: a `Ready` frame or an `Export`
    /// record. The loop never passes `Pending` or `Eof`.
    fn ingest(&mut self, rec: &SourcePoll);

    /// Rotate at packet-clock `clock`: returns the horizon actually used
    /// (clamped to the oldest live flow) and the retired bucket partials,
    /// per-shard lists concatenated in shard order.
    fn rotate(&mut self, clock: u64) -> (u64, Vec<(u64, StreamingAnalytics)>);
}

/// Either sniffer driver, chosen at run time.
pub enum DaemonSniffer {
    Seq(Box<RealTimeSniffer>),
    Par(Box<ParallelSniffer>),
}

impl DaemonDriver for DaemonSniffer {
    fn ingest(&mut self, rec: &SourcePoll) {
        match self {
            DaemonSniffer::Seq(s) => s.ingest(rec),
            DaemonSniffer::Par(s) => s.ingest(rec),
        }
    }

    fn rotate(&mut self, clock: u64) -> (u64, Vec<(u64, StreamingAnalytics)>) {
        match self {
            DaemonSniffer::Seq(s) => s.rotate(clock),
            DaemonSniffer::Par(s) => s.rotate(clock),
        }
    }
}

impl DaemonSniffer {
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
    /// The window renderer fed by each rotation.
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
    fn fire(&mut self, clock: u64, (horizon, retired): (u64, Vec<(u64, StreamingAnalytics)>)) {
        self.last_rotate = Some(clock);
        self.rotations += 1;
        tm_count!(Metric::DaemonRotations);
        self.emitter.on_rotation(horizon, retired);
    }
}

/// Drive `sniffer` from `source` until `Eof`: the daemon's event loop.
/// Each record — a frame, or an export record at its event time —
/// advances the packet clock and may fire a rotation; `Pending`, which
/// only a non-blocking reader with nothing buffered yields, sleeps
/// briefly (bounded backpressure — the pipeline's channels already bound
/// in-flight work); `on_record(ts)` runs after every record for
/// driver-side polling (metric snapshots). Returns the record count.
pub fn run_frame_daemon<S: DaemonDriver + ?Sized>(
    source: &mut dyn FrameSource,
    sniffer: &mut S,
    mut rotation: Option<&mut Rotation>,
    mut on_record: impl FnMut(u64),
) -> Result<u64, NetError> {
    let mut records = 0u64;
    loop {
        let poll = source.poll_next()?;
        let ts = match &poll {
            SourcePoll::Ready(rec) => rec.timestamp_micros(),
            SourcePoll::Export(rec) => rec.event_ts(),
            SourcePoll::Pending => {
                std::thread::sleep(std::time::Duration::from_micros(PENDING_BACKOFF_MICROS));
                continue;
            }
            SourcePoll::Eof => return Ok(records),
        };
        records += 1;
        if let Some(rot) = rotation.as_deref_mut() {
            rot.emitter.note_origin(ts);
        }
        sniffer.ingest(&poll);
        if let Some(rot) = rotation.as_deref_mut() {
            if let Some(clock) = rot.observe(ts) {
                rot.fire(clock, sniffer.rotate(clock));
            }
        }
        on_record(ts);
        if let SourcePoll::Ready(rec) = poll {
            source.recycle(rec);
        }
    }
}

/// [`run_frame_daemon`] over a flow-record export stream into the
/// sequential sniffer, returning what the reorder buffer counted. A decode
/// error comes back as `Err` after every record decoded ahead of it was
/// ingested.
pub fn run_flowrec_daemon<R: Read>(
    reader: &mut FlowRecReader<R>,
    sniffer: &mut RealTimeSniffer,
    cfg: &FlowrecConfig,
    rotation: Option<&mut Rotation>,
) -> Result<FlowrecStats, NetError> {
    let mut source = FlowRecSource::new(reader, cfg.clone());
    run_frame_daemon(&mut source, sniffer, rotation, |_| {})?;
    Ok(source.stats())
}

/// The rotated window renderer: the one window sweep of
/// [`WindowedAnalytics`], advanced by rotations instead of a finish-time
/// pass, so it emits exactly the batch render's window lines.
///
/// It decides only how far the sweep may go and when a bucket can go:
///
/// * every bucket strictly below the retirement floor (`horizon / slide`
///   of the last rotation) is **final** — no future event can land in it
///   (late arrivals are counted and refused by the sink) — so the sweep
///   advances to the floor, and at `finish` to the end;
/// * the first non-empty retirement's minimum bucket is the **global**
///   minimum the batch sweep starts from: rotation retires *every* bucket
///   below the floor, and later events only open buckets at or above it;
/// * a retired bucket is dropped once the sweep has moved past the last
///   window holding it, so emitter memory is bounded by rotation cadence
///   plus one window, not by stream length.
pub struct RotationEmitter {
    cfg: WindowConfig,
    rotate_micros: u64,
    /// First record timestamp — the rendered header's `origin`.
    origin: Option<u64>,
    /// Retired bucket partials a window not yet emitted still reads.
    retired: BTreeMap<u64, StreamingAnalytics>,
    sweep: Sweep,
    /// Unique buckets retired into the emitter.
    pub buckets_retired: u64,
    /// Rendered output: header (written at the first emission), window
    /// lines, then one footer line appended by [`RotationEmitter::finish`].
    pub out: String,
}

impl RotationEmitter {
    /// An emitter for windows shaped by `cfg`, rotating every
    /// `rotate_micros` (echoed in the stream header).
    pub fn new(cfg: WindowConfig, rotate_micros: u64) -> Self {
        let cfg = WindowConfig::new(cfg.window_micros, cfg.slide_micros);
        RotationEmitter {
            sweep: Sweep::new(&cfg),
            cfg,
            rotate_micros,
            origin: None,
            retired: BTreeMap::new(),
            buckets_retired: 0,
            out: String::new(),
        }
    }

    /// Record the stream origin (first record timestamp); first call wins.
    pub fn note_origin(&mut self, ts: u64) {
        self.origin.get_or_insert(ts);
    }

    /// Fold one rotation's retired partials in and emit every window
    /// position that became final: every bucket below `horizon` is.
    pub fn on_rotation(&mut self, horizon: u64, retired: Vec<(u64, StreamingAnalytics)>) {
        self.absorb(retired);
        self.emit(horizon / self.cfg.slide_micros);
    }

    /// Fold retired pairs (shard lists concatenated in shard order; the
    /// per-bucket merge is commutative, so any order folds to the same
    /// partial) and account unique buckets.
    fn absorb(&mut self, retired: Vec<(u64, StreamingAnalytics)>) {
        for (idx, part) in retired {
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

    /// Sweep every window position below `end`, then drop the buckets no
    /// later position reads.
    fn emit(&mut self, end: u64) {
        if self.out.is_empty() {
            self.write_header();
        }
        let out = &mut self.out;
        self.sweep.advance(&self.retired, end, |span, acc| {
            push_window_line(out, span, acc)
        });
        let keep = self.sweep.needs_from();
        self.retired.retain(|&idx, _| idx >= keep);
    }

    fn write_header(&mut self) {
        self.out
            .push_str("{\"stream\":\"dn-hunter-rotated\",\"window_micros\":");
        push_u64(&mut self.out, self.cfg.window_micros);
        self.out.push_str(",\"slide_micros\":");
        push_u64(&mut self.out, self.cfg.slide_micros);
        self.out.push_str(",\"rotate_micros\":");
        push_u64(&mut self.out, self.rotate_micros);
        self.out.push_str(",\"origin\":");
        push_opt(&mut self.out, self.origin, push_u64);
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
        self.emit(u64::MAX);
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
}
