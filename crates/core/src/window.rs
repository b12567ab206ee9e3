//! Sliding-window streaming analytics over packet-timestamp-aligned time
//! buckets (DESIGN.md "Windowed analytics and retraction").
//!
//! [`crate::stream::StreamingAnalytics`] answers the paper's questions as
//! since-trace-start accumulations. A long-running deployment wants "last
//! hour, refreshed every five minutes" instead — over an unbounded stream,
//! with bounded state. This module borrows the differential-dataflow idea
//! of timestamped deltas: sink events are routed into **time buckets**
//! (one per `slide` interval of the packet clock), each bucket owning a
//! partial `StreamingAnalytics`, and one window sweep (`Sweep`) derives
//! every window position by *merging* the bucket that enters the window
//! and **retracting** the one that leaves it via
//! [`StreamingAnalytics::unmerge`], the exact inverse of merge. The batch
//! renderers run the sweep once at finish; the daemon's
//! [`crate::RotationEmitter`] advances the same sweep as rotation makes
//! buckets final.
//!
//! **The bucket trick.** Every bucket partial is anchored at packet-clock
//! origin 0 with a snapshot interval equal to `slide`, so its internal
//! bins are *absolute bucket indices* (`bin = ts / slide`). Bucket
//! partials therefore merge with plain `merge_ref` — no per-bucket offset
//! bookkeeping — and a window view over buckets `[w, w+n)` is produced by
//! `StreamingAnalytics::rebased_view`, which re-anchors the accumulated
//! state at the window's start time. The equivalence suite
//! (`tests/windowed_equivalence.rs`) proves the resulting render is
//! byte-identical to running a fresh sink over the trace sliced to
//! `[window_start, window_end)`.
//!
//! **Retraction failure is observable, not fatal**: the sweep counts an
//! underflow on `dnh_window_retract_underflow_total` and rebuilds the
//! window from its surviving buckets. The fault matrix asserts the counter
//! is zero everywhere.
//!
//! **Memory bound.** Live bucket state is capped by [`MAX_LIVE_BUCKETS`]:
//! events whose timestamp would open a bucket beyond the cap are dropped
//! and counted (`dropped_bucket_events`, reported in the render header and
//! pinned to zero by the equivalence tests). Within the cap, state grows
//! with distinct entities per bucket, not flows — the same bound the
//! underlying sink provides. No window longer than the cap can ever be
//! full, which is why `dn-hunter` refuses `--window` above
//! `MAX_LIVE_BUCKETS` slides.

use std::any::Any;
use std::collections::BTreeMap;

use dnhunter_telemetry::{tm_count, Metric};

use crate::db::TaggedFlow;
use crate::json::{push_opt, push_u64};
use crate::stream::{fold_sinks, FlowSink, StreamingAnalytics, StreamingConfig};

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
    /// rounded up to the nearest non-zero multiple of `slide` (down, where
    /// rounding up would overflow `u64`).
    pub fn new(window_micros: u64, slide_micros: u64) -> Self {
        let slide = slide_micros.max(1);
        let steps = window_micros.div_ceil(slide).min(u64::MAX / slide).max(1);
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
        let cfg = WindowConfig {
            stream: cfg.stream,
            ..WindowConfig::new(cfg.window_micros, cfg.slide_micros)
        };
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

    /// The bucket partial for `ts`, or `None` (counted) when the bucket
    /// was already retired by rotation or would exceed the cap.
    fn bucket_mut(&mut self, ts: u64) -> Option<&mut StreamingAnalytics> {
        let idx = ts / self.cfg.slide_micros;
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
        fold_sinks(sinks, WindowedAnalytics::merge)
    }

    /// Commutative, associative merge of another windowed partial:
    /// bucket-wise merge of the underlying sinks.
    pub fn merge(&mut self, other: WindowedAnalytics) {
        self.trace_start = self.trace_start.into_iter().chain(other.trace_start).min();
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
                self.dropped_bucket_events += part.events();
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

    /// Walk every window position in time order through the window sweep.
    /// `f` receives the window span and a re-anchored view whose render is
    /// byte-identical to a fresh sink over the slice `[span.start,
    /// span.end)`.
    ///
    /// Emitted positions run from the first window containing the first
    /// non-empty bucket to the last window containing the last one, so
    /// leading and trailing windows may be partially filled — exactly as a
    /// slice of the trace over those spans would be.
    pub fn for_each_window(&self, mut f: impl FnMut(WindowSpan, &StreamingAnalytics)) {
        let slide = self.cfg.slide_micros;
        Sweep::new(&self.cfg).advance(&self.buckets, u64::MAX, |span, acc| {
            f(span, &acc.rebased_view(span.start, span.start / slide));
        });
    }

    /// Render the windowed JSONL stream: a header line, then one line per
    /// window position carrying `window_start`/`window_end`/`seq` and the
    /// same summary object the plain stream renderer emits. Derived
    /// entirely from merged state — byte-identical at any worker count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"stream\":\"dn-hunter-windowed\",\"window_micros\":");
        push_u64(&mut out, self.cfg.window_micros);
        out.push_str(",\"slide_micros\":");
        push_u64(&mut out, self.cfg.slide_micros);
        out.push_str(",\"origin\":");
        push_opt(&mut out, self.trace_start, push_u64);
        out.push_str(",\"dropped_bucket_events\":");
        push_u64(&mut out, self.dropped_bucket_events);
        out.push_str("}\n");
        Sweep::new(&self.cfg).advance(&self.buckets, u64::MAX, |span, acc| {
            push_window_line(&mut out, span, acc);
        });
        out
    }
}

/// The one sliding-window sweep: window position `e` covers buckets
/// `[e + 1 − steps, e]`, and the aggregate moves to the next position by
/// merging bucket `e` and retracting bucket `e − steps`. The batch
/// renderers advance it once over a finished bucket map; the rotation
/// emitter advances it as far as rotation has made buckets final.
pub(crate) struct Sweep {
    steps: u64,
    slide: u64,
    /// First non-empty bucket: position `seq` 0. Fixed by the first
    /// advance that sees a bucket, so later buckets may not lie below it.
    lo: Option<u64>,
    /// Next window position to visit.
    next: u64,
    /// The window aggregate, on the absolute bucket clock.
    acc: StreamingAnalytics,
}

impl Sweep {
    pub(crate) fn new(cfg: &WindowConfig) -> Self {
        Sweep {
            steps: cfg.steps(),
            slide: cfg.slide_micros,
            lo: None,
            next: 0,
            acc: StreamingAnalytics::new(cfg.bucket_sink_config()),
        }
    }

    /// Visit, in order, every position below `end` up to the last window
    /// holding the highest bucket; `f` gets the span and the aggregate on
    /// the absolute bucket clock. A retraction underflow (an invariant
    /// breach) is counted and repaired from the window's buckets.
    pub(crate) fn advance(
        &mut self,
        buckets: &BTreeMap<u64, StreamingAnalytics>,
        end: u64,
        mut f: impl FnMut(WindowSpan, &StreamingAnalytics),
    ) {
        let (Some(&first), Some(&hi)) = (buckets.keys().next(), buckets.keys().next_back()) else {
            return;
        };
        let (n, lo) = (self.steps, *self.lo.get_or_insert(first));
        self.next = self.next.max(lo);
        while self.next < end && self.next <= hi.saturating_add(n - 1) {
            let e = self.next;
            if let Some(part) = buckets.get(&e) {
                self.acc.merge_ref(part);
            }
            if let Some(expired) = e.checked_sub(n).and_then(|x| buckets.get(&x)) {
                if self.acc.unmerge(expired).is_err() {
                    tm_count!(Metric::WindowRetractUnderflow);
                    self.acc = StreamingAnalytics::new(self.acc.config().clone());
                    for (_, part) in buckets.range(e + 1 - n..=e) {
                        self.acc.merge_ref(part);
                    }
                }
            }
            self.next += 1;
            // Saturating: windows overlapping the origin of the packet
            // clock are clipped at 0 rather than reaching before it.
            let span = WindowSpan {
                start: (e + 1).saturating_sub(n) * self.slide,
                end: (e + 1) * self.slide,
                seq: e - lo,
            };
            f(span, &self.acc);
        }
    }

    /// The first bucket a position not yet visited can read: everything
    /// below has left the window for good.
    pub(crate) fn needs_from(&self) -> u64 {
        self.next.saturating_sub(self.steps)
    }
}

/// One window line of the windowed and rotated streams: the span, `seq`,
/// and the same summary object the plain stream renderer emits. The
/// summary reads no bin key, so it renders straight off the sweep's
/// accumulator: no per-window clone and rebase.
pub(crate) fn push_window_line(out: &mut String, span: WindowSpan, acc: &StreamingAnalytics) {
    out.push_str("{\"window_start\":");
    push_u64(out, span.start);
    out.push_str(",\"window_end\":");
    push_u64(out, span.end);
    out.push_str(",\"seq\":");
    push_u64(out, span.seq);
    out.push_str(",\"summary\":");
    acc.render_summary_object(out);
    out.push_str("}\n");
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
    use crate::stream::tests::flow;

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

    /// Rounding the window up to a whole number of slides may not overflow
    /// `u64`: where it would, the window rounds down instead.
    #[test]
    fn config_rounds_down_where_rounding_up_would_overflow() {
        let c = WindowConfig::new(u64::MAX, 7_000_000);
        assert_eq!(c.slide_micros, 7_000_000);
        assert_eq!(c.steps(), u64::MAX / 7_000_000);
        assert_eq!(c.window_micros, c.steps() * 7_000_000);
    }

    /// A bucket that changed after the sweep merged it cannot be retracted
    /// from the window: the sweep counts the underflow and rebuilds, so the
    /// window line is still a fresh merge of the buckets it covers.
    #[test]
    fn retract_underflow_is_counted_and_rebuilt_from_the_surviving_buckets() {
        let registry = std::sync::Arc::new(dnhunter_telemetry::Registry::new());
        let _bound = dnhunter_telemetry::bind(registry.clone());
        let cfg = cfg();
        let (steps, slide) = (cfg.steps(), cfg.slide_micros);
        let mut w = WindowedAnalytics::new(cfg.clone());
        feed(&mut w, &sample_flows());
        let mut buckets = std::mem::take(&mut w.buckets);
        let lo = *buckets.keys().next().unwrap();
        let mut sweep = Sweep::new(&cfg);
        // Positions lo .. lo + steps merge bucket lo and never retract it.
        sweep.advance(&buckets, lo + steps, |_, _| {});
        assert_eq!(registry.snapshot().get(Metric::WindowRetractUnderflow), 0);
        // Tamper with bucket lo: it gains an FQDN the window never merged.
        let tamper = flow(
            "10.0.0.9",
            Some("late.tamper.net"),
            "9.9.9.9",
            443,
            lo * slide,
        );
        buckets.get_mut(&lo).unwrap().on_flow_finished(&tamper);
        // Position lo + steps retracts bucket lo.
        let mut line = String::new();
        sweep.advance(&buckets, lo + steps + 1, |span, acc| {
            push_window_line(&mut line, span, acc);
        });
        assert_eq!(registry.snapshot().get(Metric::WindowRetractUnderflow), 1);
        let mut fresh = StreamingAnalytics::new(cfg.bucket_sink_config());
        for (_, part) in buckets.range(lo + 1..=lo + steps) {
            fresh.merge_ref(part);
        }
        let span = WindowSpan {
            start: (lo + 1) * slide,
            end: (lo + steps + 1) * slide,
            seq: steps,
        };
        let mut expected = String::new();
        push_window_line(&mut expected, span, &fresh);
        assert_eq!(line, expected);
        assert!(!line.contains("late.tamper.net"), "{line}");
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

    /// A partial refused at the cap in a fold counts every event it holds,
    /// as the same events refused one by one are counted: an answered
    /// response and a delay sample are events as much as a flow is.
    #[test]
    fn fold_counts_every_event_of_a_refused_bucket() {
        let full = || {
            let mut w = WindowedAnalytics::new(WindowConfig::new(4, 2));
            w.on_trace_start(0);
            for i in 0..MAX_LIVE_BUCKETS as u64 {
                w.on_answered_response(i * 2);
            }
            w
        };
        let beyond = MAX_LIVE_BUCKETS as u64 * 2;
        let mut one_sink = full();
        one_sink.on_answered_response(beyond);
        one_sink.on_any_flow_delay(beyond, 7);
        assert_eq!(one_sink.dropped_bucket_events(), 2);

        let mut folded = full();
        let mut part = WindowedAnalytics::new(WindowConfig::new(4, 2));
        part.on_trace_start(0);
        part.on_answered_response(beyond);
        part.on_any_flow_delay(beyond, 7);
        folded.merge(part);
        assert_eq!(folded.live_buckets(), MAX_LIVE_BUCKETS);
        assert_eq!(
            folded.dropped_bucket_events(),
            one_sink.dropped_bucket_events()
        );
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
