//! Sliding-window streaming analytics over packet-timestamp-aligned time
//! buckets (DESIGN.md "Windowed analytics and retraction").
//!
//! [`crate::stream::StreamingAnalytics`] answers the paper's questions as
//! since-trace-start accumulations. A long-running deployment wants "last
//! hour, refreshed every five minutes" instead — over an unbounded stream,
//! with bounded state. This module borrows the differential-dataflow idea
//! of timestamped deltas: sink events are routed into **time buckets**
//! (one per `slide` interval of the packet clock), each bucket owning a
//! partial `StreamingAnalytics`, and a sliding window is maintained by
//! *merging* each newly-sealed bucket and **retracting** each expired one
//! via [`StreamingAnalytics::unmerge`] — the exact subtractive inverse of
//! merge that PR 9 gave every piece of sink state.
//!
//! **The bucket trick.** Every bucket partial is anchored at packet-clock
//! origin 0 with a snapshot interval equal to `slide`, so its internal
//! bins are *absolute bucket indices* (`bin = ts / slide`). Bucket
//! partials therefore merge with plain `merge_ref` — no per-bucket offset
//! bookkeeping — and a window view over buckets `[w, w+n)` is produced by
//! [`StreamingAnalytics::rebased_view`], which re-anchors the accumulated
//! state at the window's start time. The equivalence suite
//! (`tests/windowed_equivalence.rs`) proves the resulting render is
//! byte-identical to running a fresh sink over the trace sliced to
//! `[window_start, window_end)`.
//!
//! **Retraction failure is observable, not fatal.** `unmerge` of a bucket
//! that was merged earlier cannot underflow; if it ever does, that is an
//! invariant breach — the sweep counts it on the Runtime metric
//! `dnh_window_retract_underflow_total` and falls back to rebuilding the
//! window by merging its surviving buckets, so output stays correct even
//! then. The fault matrix asserts the counter is zero everywhere.
//!
//! **Memory bound.** Live bucket state is capped by [`MAX_LIVE_BUCKETS`]:
//! events whose timestamp would open a bucket beyond the cap are dropped
//! and counted (`dropped_bucket_events`, reported in the render header and
//! pinned to zero by the equivalence tests). Within the cap, state grows
//! with distinct entities per bucket, not flows — the same bound the
//! underlying sink provides.

use std::any::Any;
use std::collections::BTreeMap;

use dnhunter_telemetry::{tm_count, Metric};

use crate::db::TaggedFlow;
use crate::stream::{push_u64, FlowSink, StreamingAnalytics, StreamingConfig};

/// Cap on simultaneously-live bucket partials. At the default
/// `--slide 5m` this is over two weeks of stream; a hostile trace whose
/// timestamps span more opens no further buckets (events beyond the cap
/// are dropped and counted, never allocated for).
pub const MAX_LIVE_BUCKETS: usize = 4096;

/// Sliding-window configuration (`--window 1h --slide 5m` style).
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// Window length in µs, always a whole multiple of `slide_micros`
    /// (constructor rounds up).
    pub window_micros: u64,
    /// Bucket width / window step in µs.
    pub slide_micros: u64,
    /// Tuning for the per-bucket partial sinks. Its snapshot interval is
    /// overridden to `slide_micros` so bucket bins align with windows.
    pub stream: StreamingConfig,
}

impl WindowConfig {
    /// Validated config: `slide` is clamped to ≥ 1 µs and `window` is
    /// rounded up to the nearest non-zero multiple of `slide`.
    pub fn new(window_micros: u64, slide_micros: u64) -> Self {
        let slide = slide_micros.max(1);
        let steps = window_micros.div_ceil(slide).max(1);
        WindowConfig {
            window_micros: steps * slide,
            slide_micros: slide,
            stream: StreamingConfig::default(),
        }
    }

    /// Buckets per window.
    pub fn steps(&self) -> u64 {
        self.window_micros / self.slide_micros
    }

    /// The configuration the per-bucket partial sinks run with: `stream`
    /// with its snapshot interval overridden to `slide_micros`. A fresh
    /// [`StreamingAnalytics`] built from this over a window's slice of the
    /// trace is the reference the equivalence suite compares against.
    pub fn bucket_sink_config(&self) -> StreamingConfig {
        StreamingConfig {
            snapshot_interval_micros: self.slide_micros,
            ..self.stream.clone()
        }
    }
}

/// One emitted window position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpan {
    /// Inclusive start of the window on the packet clock (µs).
    pub start: u64,
    /// Exclusive end of the window (µs).
    pub end: u64,
    /// Monotonic window sequence number, starting at 0.
    pub seq: u64,
}

/// A [`FlowSink`] that routes every event into its packet-time bucket and
/// derives sliding windows by merge + retraction at finish time.
pub struct WindowedAnalytics {
    cfg: WindowConfig,
    /// Bucket index (`ts / slide`) → partial sink anchored at origin 0.
    buckets: BTreeMap<u64, StreamingAnalytics>,
    trace_start: Option<u64>,
    /// Events dropped because their bucket would exceed
    /// [`MAX_LIVE_BUCKETS`].
    dropped_bucket_events: u64,
    /// First bucket index still live: everything below it was retired by
    /// [`FlowSink::rotate`] and emitted. 0 until the first rotation.
    retired_floor: u64,
    /// Events that arrived for an already-retired bucket (possible only
    /// under injected reordering — the rotation horizon otherwise
    /// lower-bounds every future event). Counted, never mis-attributed.
    late_bucket_events: u64,
}

impl WindowedAnalytics {
    pub fn new(cfg: WindowConfig) -> Self {
        let cfg = WindowConfig::new(cfg.window_micros, cfg.slide_micros).with_stream(cfg.stream);
        WindowedAnalytics {
            cfg,
            buckets: BTreeMap::new(),
            trace_start: None,
            dropped_bucket_events: 0,
            retired_floor: 0,
            late_bucket_events: 0,
        }
    }

    /// The configuration the sink runs with.
    pub fn config(&self) -> &WindowConfig {
        &self.cfg
    }

    /// Live bucket partials.
    pub fn live_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Events dropped by the [`MAX_LIVE_BUCKETS`] cap (0 ⇒ windows exact).
    pub fn dropped_bucket_events(&self) -> u64 {
        self.dropped_bucket_events
    }

    /// Events that arrived below the rotation floor (0 without injected
    /// reordering).
    pub fn late_bucket_events(&self) -> u64 {
        self.late_bucket_events
    }

    /// First bucket index still live after rotation.
    pub fn retired_floor(&self) -> u64 {
        self.retired_floor
    }

    fn bucket_of(&self, ts: u64) -> u64 {
        ts / self.cfg.slide_micros
    }

    /// The bucket partial for `ts`, or `None` (counted) when the bucket
    /// was already retired by rotation or would exceed the cap.
    fn bucket_mut(&mut self, ts: u64) -> Option<&mut StreamingAnalytics> {
        let idx = self.bucket_of(ts);
        if idx < self.retired_floor {
            self.late_bucket_events += 1;
            tm_count!(Metric::WindowLateEvents);
            return None;
        }
        if self.buckets.len() >= MAX_LIVE_BUCKETS && !self.buckets.contains_key(&idx) {
            self.dropped_bucket_events += 1;
            return None;
        }
        let cfg = &self.cfg;
        Some(self.buckets.entry(idx).or_insert_with(|| {
            let mut sink = StreamingAnalytics::new(cfg.bucket_sink_config());
            // Anchor at 0 so the partial's bins are absolute bucket
            // indices — the invariant the whole module rides on.
            sink.on_trace_start(0);
            sink
        }))
    }

    /// Fold per-worker partials (in shard order) back into one aggregate.
    /// Returns `None` when `sinks` is empty or holds a foreign sink type.
    pub fn fold(sinks: Vec<Box<dyn FlowSink>>) -> Option<WindowedAnalytics> {
        let mut acc: Option<WindowedAnalytics> = None;
        for sink in sinks {
            let part = *sink.as_any_box().downcast::<WindowedAnalytics>().ok()?;
            match &mut acc {
                None => acc = Some(part),
                Some(a) => a.merge(part),
            }
        }
        acc
    }

    /// Commutative, associative merge of another windowed partial:
    /// bucket-wise merge of the underlying sinks.
    pub fn merge(&mut self, other: WindowedAnalytics) {
        self.trace_start = match (self.trace_start, other.trace_start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.dropped_bucket_events += other.dropped_bucket_events;
        self.late_bucket_events += other.late_bucket_events;
        // Shards rotate at the same global horizons, so floors agree; max
        // is the safe fold either way.
        self.retired_floor = self.retired_floor.max(other.retired_floor);
        for (idx, part) in other.buckets {
            if let Some(existing) = self.buckets.get_mut(&idx) {
                existing.merge(part);
            } else if self.buckets.len() < MAX_LIVE_BUCKETS {
                self.buckets.insert(idx, part);
            } else {
                self.dropped_bucket_events += part.flows();
            }
        }
    }

    /// The whole-stream aggregate: every bucket folded and re-anchored at
    /// the bucket-aligned trace start (`trace_start` rounded down to a
    /// slide boundary — bucket bins only exist on that grid), equivalent
    /// to a plain [`StreamingAnalytics`] over the full run anchored there
    /// (used by the fault matrix for global hit ratios).
    pub fn totals(&self) -> StreamingAnalytics {
        let origin_bucket = self.trace_start.unwrap_or(0) / self.cfg.slide_micros;
        let mut acc = StreamingAnalytics::new(self.cfg.bucket_sink_config());
        for part in self.buckets.values() {
            acc.merge_ref(part);
        }
        acc.rebased_view(origin_bucket * self.cfg.slide_micros, origin_bucket)
    }

    /// Walk every window position in time order, maintaining the window
    /// aggregate incrementally: merge the bucket entering the window,
    /// retract the bucket leaving it. `f` receives the window span and a
    /// re-anchored view whose render is byte-identical to a fresh sink
    /// over the slice `[span.start, span.end)`.
    ///
    /// Emitted positions run from the first window containing the first
    /// non-empty bucket to the last window containing the last one, so
    /// leading and trailing windows may be partially filled — exactly as a
    /// slice of the trace over those spans would be.
    // lint_root(determinism): window sweep output must be byte-identical across worker counts
    pub fn for_each_window(&self, mut f: impl FnMut(WindowSpan, &StreamingAnalytics)) {
        let slide = self.cfg.slide_micros;
        self.sweep(|span, acc| f(span, &acc.rebased_view(span.start, span.start / slide)));
    }

    /// The sweep behind [`for_each_window`](Self::for_each_window): `f`
    /// receives the window aggregate as accumulated, still on the absolute
    /// bucket clock — enough for everything that reads no bin key.
    fn sweep(&self, mut f: impl FnMut(WindowSpan, &StreamingAnalytics)) {
        let n = self.cfg.steps();
        let (Some(&lo), Some(&hi)) = (self.buckets.keys().next(), self.buckets.keys().next_back())
        else {
            return;
        };
        let slide = self.cfg.slide_micros;
        let mut acc = StreamingAnalytics::new(self.cfg.bucket_sink_config());
        // Window `e` covers buckets [e + 1 - n, e]; sweeping e over
        // lo..=hi+n-1 visits every position overlapping the data.
        for (seq, e) in (lo..=hi + (n - 1)).enumerate() {
            let seq = seq as u64;
            if e <= hi {
                if let Some(part) = self.buckets.get(&e) {
                    acc.merge_ref(part);
                }
            }
            if e >= lo + n {
                if let Some(expired) = self.buckets.get(&(e - n)) {
                    if acc.unmerge(expired).is_err() {
                        // Invariant breach: a bucket merged above failed to
                        // retract. Count it and rebuild from scratch so the
                        // emitted windows stay correct regardless.
                        tm_count!(Metric::WindowRetractUnderflow);
                        acc = StreamingAnalytics::new(self.cfg.bucket_sink_config());
                        for (_, part) in self.buckets.range(e + 1 - n..=e.min(hi)) {
                            acc.merge_ref(part);
                        }
                    }
                }
            }
            // Saturating: windows overlapping the origin of the packet
            // clock are clipped at 0 rather than reaching before it.
            let first_bucket = (e + 1).saturating_sub(n);
            let span = WindowSpan {
                start: first_bucket * slide,
                end: (e + 1) * slide,
                seq,
            };
            f(span, &acc);
        }
    }

    /// Render the windowed JSONL stream: a header line, then one line per
    /// window position carrying `window_start`/`window_end`/`seq` and the
    /// same summary object the plain stream renderer emits. Derived
    /// entirely from merged state — byte-identical at any worker count.
    // lint_root(determinism): windowed output must be byte-identical across worker counts
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"stream\":\"dn-hunter-windowed\",\"window_micros\":");
        push_u64(&mut out, self.cfg.window_micros);
        out.push_str(",\"slide_micros\":");
        push_u64(&mut out, self.cfg.slide_micros);
        out.push_str(",\"origin\":");
        match self.trace_start {
            Some(t) => push_u64(&mut out, t),
            None => out.push_str("null"),
        }
        out.push_str(",\"dropped_bucket_events\":");
        push_u64(&mut out, self.dropped_bucket_events);
        out.push_str("}\n");
        // The summary reads no bin key, so it renders straight off the
        // sweep's accumulator: no per-window clone and rebase.
        self.sweep(|span, acc| {
            out.push_str("{\"window_start\":");
            push_u64(&mut out, span.start);
            out.push_str(",\"window_end\":");
            push_u64(&mut out, span.end);
            out.push_str(",\"seq\":");
            push_u64(&mut out, span.seq);
            out.push_str(",\"summary\":");
            acc.render_summary_object(&mut out);
            out.push_str("}\n");
        });
        out
    }
}

impl WindowConfig {
    fn with_stream(mut self, stream: StreamingConfig) -> Self {
        self.stream = stream;
        self
    }
}

impl FlowSink for WindowedAnalytics {
    fn on_trace_start(&mut self, ts: u64) {
        self.trace_start = Some(self.trace_start.map_or(ts, |t| t.min(ts)));
    }

    fn on_answered_response(&mut self, ts: u64) {
        if let Some(b) = self.bucket_mut(ts) {
            b.on_answered_response(ts);
        }
    }

    fn on_first_flow_delay(&mut self, ts: u64, delay_micros: u64) {
        if let Some(b) = self.bucket_mut(ts) {
            b.on_first_flow_delay(ts, delay_micros);
        }
    }

    fn on_any_flow_delay(&mut self, ts: u64, delay_micros: u64) {
        if let Some(b) = self.bucket_mut(ts) {
            b.on_any_flow_delay(ts, delay_micros);
        }
    }

    fn on_flow_finished(&mut self, flow: &TaggedFlow) {
        if let Some(b) = self.bucket_mut(flow.first_ts) {
            b.on_flow_finished(flow);
        }
    }

    /// Retire-and-emit: split off every bucket strictly below the horizon
    /// and hand the partials to the caller (the daemon's rotation
    /// emitter). This is what replaces the [`MAX_LIVE_BUCKETS`] overflow
    /// drop on an unbounded stream — live state stays bounded by rotation
    /// cadence instead of by dropping events.
    fn rotate(&mut self, horizon: u64) -> Vec<(u64, StreamingAnalytics)> {
        let floor = horizon / self.cfg.slide_micros;
        if floor <= self.retired_floor {
            return Vec::new();
        }
        let keep = self.buckets.split_off(&floor);
        let retired = std::mem::replace(&mut self.buckets, keep);
        self.retired_floor = floor;
        retired.into_iter().collect()
    }

    fn as_any_box(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
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

    fn sample_flows() -> Vec<TaggedFlow> {
        (0u64..30)
            .map(|i| {
                flow(
                    &format!("10.0.0.{}", i % 4),
                    if i % 5 == 0 {
                        None
                    } else {
                        Some(if i % 2 == 0 {
                            "www.example.com"
                        } else {
                            "img.other.org"
                        })
                    },
                    &format!("93.184.216.{}", i % 3),
                    443,
                    1_000_000 + i * 700_000,
                )
            })
            .collect()
    }

    fn feed(sink: &mut WindowedAnalytics, flows: &[TaggedFlow]) {
        sink.on_trace_start(1_000_000);
        for f in flows {
            sink.on_flow_finished(f);
        }
        sink.on_answered_response(1_100_000);
        sink.on_first_flow_delay(1_200_000, 31);
        sink.on_any_flow_delay(1_200_000, 31);
    }

    fn cfg() -> WindowConfig {
        WindowConfig::new(4_000_000, 2_000_000)
    }

    #[test]
    fn config_rounds_window_up_to_slide_multiple() {
        let c = WindowConfig::new(3_500_000, 2_000_000);
        assert_eq!(c.window_micros, 4_000_000);
        assert_eq!(c.steps(), 2);
        let degenerate = WindowConfig::new(0, 0);
        assert_eq!(degenerate.slide_micros, 1);
        assert_eq!(degenerate.steps(), 1);
    }

    #[test]
    fn each_window_view_equals_a_fresh_sink_over_the_slice() {
        let flows = sample_flows();
        let mut w = WindowedAnalytics::new(cfg());
        feed(&mut w, &flows);
        assert_eq!(w.dropped_bucket_events(), 0);
        let mut positions = 0u64;
        w.for_each_window(|span, view| {
            assert_eq!(span.seq, positions);
            positions += 1;
            let mut reference = StreamingAnalytics::new(w.config().bucket_sink_config());
            reference.on_trace_start(span.start);
            for f in &flows {
                if f.first_ts >= span.start && f.first_ts < span.end {
                    reference.on_flow_finished(f);
                }
            }
            if (span.start..span.end).contains(&1_100_000) {
                reference.on_answered_response(1_100_000);
            }
            if (span.start..span.end).contains(&1_200_000) {
                reference.on_first_flow_delay(1_200_000, 31);
                reference.on_any_flow_delay(1_200_000, 31);
            }
            assert!(view.data_eq(&reference), "window {span:?} diverged");
            assert_eq!(view.render(), reference.render(), "window {span:?}");
        });
        assert!(positions > 2, "sweep visited only {positions} windows");
    }

    #[test]
    fn fold_of_split_sinks_renders_identically() {
        let flows = sample_flows();
        let mut seq = WindowedAnalytics::new(cfg());
        feed(&mut seq, &flows);
        let mut a = WindowedAnalytics::new(cfg());
        let mut b = WindowedAnalytics::new(cfg());
        a.on_trace_start(1_000_000);
        b.on_trace_start(1_000_000);
        for (i, f) in flows.iter().enumerate() {
            if i % 2 == 0 {
                a.on_flow_finished(f);
            } else {
                b.on_flow_finished(f);
            }
        }
        a.on_answered_response(1_100_000);
        a.on_first_flow_delay(1_200_000, 31);
        b.on_any_flow_delay(1_200_000, 31);
        let folded = WindowedAnalytics::fold(vec![
            Box::new(a) as Box<dyn FlowSink>,
            Box::new(b) as Box<dyn FlowSink>,
        ])
        .unwrap();
        assert_eq!(folded.render(), seq.render());
    }

    #[test]
    fn totals_match_an_unwindowed_sink() {
        let flows = sample_flows();
        let mut w = WindowedAnalytics::new(cfg());
        feed(&mut w, &flows);
        let mut plain = StreamingAnalytics::new(w.config().bucket_sink_config());
        // totals() anchors at the slide-aligned trace start (1 M rounds
        // down to 0 on the 2 M grid).
        plain.on_trace_start(0);
        for f in &flows {
            plain.on_flow_finished(f);
        }
        plain.on_answered_response(1_100_000);
        plain.on_first_flow_delay(1_200_000, 31);
        plain.on_any_flow_delay(1_200_000, 31);
        let totals = w.totals();
        assert!(totals.data_eq(&plain));
        assert_eq!(totals.render(), plain.render());
    }

    #[test]
    fn bucket_cap_drops_and_counts_far_future_events() {
        let mut w = WindowedAnalytics::new(WindowConfig::new(4, 2));
        w.on_trace_start(0);
        // One event per bucket until the cap, then one beyond it.
        for i in 0..MAX_LIVE_BUCKETS as u64 {
            w.on_answered_response(i * 2);
        }
        assert_eq!(w.live_buckets(), MAX_LIVE_BUCKETS);
        assert_eq!(w.dropped_bucket_events(), 0);
        w.on_answered_response(MAX_LIVE_BUCKETS as u64 * 2);
        assert_eq!(w.live_buckets(), MAX_LIVE_BUCKETS);
        assert_eq!(w.dropped_bucket_events(), 1);
    }

    #[test]
    fn render_has_header_and_tagged_window_lines() {
        let mut w = WindowedAnalytics::new(cfg());
        feed(&mut w, &sample_flows());
        let r = w.render();
        let mut lines = r.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("{\"stream\":\"dn-hunter-windowed\""));
        assert!(header.contains("\"window_micros\":4000000"));
        assert!(header.contains("\"dropped_bucket_events\":0"));
        let mut expect_seq = 0u64;
        for line in lines {
            assert!(line.starts_with("{\"window_start\":"), "{line}");
            assert!(line.contains(&format!("\"seq\":{expect_seq},")), "{line}");
            assert!(line.contains("\"summary\":{"), "{line}");
            expect_seq += 1;
        }
        assert!(expect_seq > 2);
        assert_eq!(r, w.render(), "render must be stable");
    }
}
