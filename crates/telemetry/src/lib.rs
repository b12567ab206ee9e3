//! `dnhunter-telemetry` — always-on observability for the ingest pipeline.
//!
//! The paper's operational claim is that DN-Hunter runs *live* at an ISP
//! vantage point; a production deployment therefore needs to see drop
//! rates, table occupancy, and tag hit ratios while the sniffer runs, not
//! only in the post-hoc `SnifferReport`. This crate provides that layer
//! with three hard constraints:
//!
//! 1. **Hot-path safe.** An update is a thread-local load, a branch, and
//!    (when enabled) one relaxed `fetch_add`. No locks, no allocation, no
//!    formatting. When no registry is bound the branch falls through and
//!    the cost is a few nanoseconds — cheap enough to leave compiled in.
//! 2. **Deterministic.** Snapshots are scheduled on *packet* timestamps
//!    ([`SnapshotEmitter`]), and metrics are split into [`Class::Stable`]
//!    (a pure function of the input trace; identical between sequential
//!    and merged parallel runs) and [`Class::Runtime`] (timings, queue
//!    depths). Default exposition renders only stable metrics, so final
//!    snapshots are byte-identical at any worker count.
//! 3. **Zero dependencies.** Plain `std`; the Prometheus and JSONL
//!    renderers are hand-rolled over static names and integers.
//!
//! Instrumentation sites use the macros:
//!
//! ```
//! use dnhunter_telemetry::{self as telemetry, Metric, Registry};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new());
//! let _guard = telemetry::bind(registry.clone());
//! dnhunter_telemetry::tm_count!(Metric::IngestFrames);
//! dnhunter_telemetry::tm_gauge!(Metric::FlowTableSize, 1);
//! dnhunter_telemetry::tm_observe!(Metric::BatchItems, 128);
//! assert_eq!(registry.snapshot().get(Metric::IngestFrames), 1);
//! ```

#![forbid(unsafe_code)]

mod emitter;
mod export;
mod flight;
mod log2hist;
mod metric;
mod recorder;
mod registry;
mod trace;
mod trace_export;

pub use emitter::SnapshotEmitter;
pub use export::{jsonl, prometheus};
pub use flight::{
    fault_dump_now, install_fault_dump, trace_bind, trace_enabled, trace_note, trace_note_wall,
    trace_set, FlightRecorder, LaneKind, LaneSnapshot, TraceBindGuard, TraceRecord, TraceSet,
    TRACE_RING_CAP,
};
pub use log2hist::{log2_bucket_index, log2_bucket_le, HistUnderflow, Log2Hist};
pub use metric::{Class, Kind, Metric, MetricInfo, HIST_COUNT, HIST_METRICS};
pub use recorder::{
    bind, counter_add, gauge_add, is_bound, merge_into_bound, observe, span, BindGuard, Span,
};
pub use registry::{bucket_le, HistSnapshot, Registry, Snapshot, BUCKETS, BUCKET_CELLS};
pub use trace::{ArgKind, TraceClass, TraceEvent, TraceEventInfo, TraceKeyHasher};
pub use trace_export::{chrome_trace, explain, trace_jsonl, ExplainTarget};

/// Increment a counter: `tm_count!(Metric::X)` or `tm_count!(Metric::X, n)`.
#[macro_export]
macro_rules! tm_count {
    ($m:expr) => {
        $crate::counter_add($m, 1)
    };
    ($m:expr, $n:expr) => {
        $crate::counter_add($m, $n)
    };
}

/// Apply a signed delta to a gauge: `tm_gauge!(Metric::X, -1)`.
#[macro_export]
macro_rules! tm_gauge {
    ($m:expr, $delta:expr) => {
        $crate::gauge_add($m, $delta)
    };
}

/// Record a histogram observation: `tm_observe!(Metric::X, value)`.
#[macro_export]
macro_rules! tm_observe {
    ($m:expr, $v:expr) => {
        $crate::observe($m, $v)
    };
}

/// Time a scope into a nanosecond counter: `let _t = tm_span!(Metric::X);`.
#[macro_export]
macro_rules! tm_span {
    ($m:expr) => {
        $crate::span($m)
    };
}

/// Record a Stable-class flight-recorder event with an explicit packet
/// timestamp: `tm_trace!(TraceEvent::X, seq, ts, a, b)`. No-op when no
/// recorder is bound; an event not in the `trace_events!` catalog does
/// not compile, since the catalog generates [`TraceEvent`].
#[macro_export]
macro_rules! tm_trace {
    ($e:expr, $seq:expr, $ts:expr, $a:expr, $b:expr) => {
        $crate::trace_note($e, $seq, $ts, $a, $b)
    };
}

/// Record a Runtime-class flight-recorder event stamped with wall-clock
/// microseconds: `tm_trace_wall!(TraceEvent::X, seq, a, b)`.
#[macro_export]
macro_rules! tm_trace_wall {
    ($e:expr, $seq:expr, $a:expr, $b:expr) => {
        $crate::trace_note_wall($e, $seq, $a, $b)
    };
}
