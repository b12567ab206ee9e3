//! Snapshot renderers: Prometheus text exposition and JSONL.
//!
//! Both renderers walk [`Metric::ALL`] in catalog order and emit nothing
//! but static names and decimal integers, so output for a given snapshot
//! is a pure function of its cell values — the byte-stability the
//! determinism tests rely on. By default only [`Class::Stable`] metrics
//! are rendered (identical between sequential and merged parallel runs);
//! pass `include_runtime = true` for the full operational view.

use std::fmt::Write as _;

use crate::metric::{Class, Kind, Metric};
use crate::registry::{bucket_le, Snapshot, BUCKETS};

fn included(m: Metric, include_runtime: bool) -> bool {
    include_runtime || m.info().class == Class::Stable
}

/// Render a snapshot in the Prometheus text exposition format
/// (`# HELP` / `# TYPE` comments, cumulative `_bucket{le=...}` cells,
/// `_sum`/`_count` for histograms).
pub fn prometheus(snap: &Snapshot, include_runtime: bool) -> String {
    let mut out = String::with_capacity(4096);
    for m in Metric::ALL {
        if !included(m, include_runtime) {
            continue;
        }
        let info = m.info();
        let _ = writeln!(out, "# HELP {} {}", info.name, info.help);
        match info.kind {
            Kind::Counter => {
                let _ = writeln!(out, "# TYPE {} counter", info.name);
                let _ = writeln!(out, "{} {}", info.name, snap.get(m));
            }
            Kind::Gauge => {
                let _ = writeln!(out, "# TYPE {} gauge", info.name);
                let _ = writeln!(out, "{} {}", info.name, snap.gauge(m));
            }
            Kind::Histogram => {
                let _ = writeln!(out, "# TYPE {} histogram", info.name);
                let h = snap.hist(m).copied().unwrap_or_default();
                let mut cumulative = 0u64;
                for (i, cell) in h.buckets.iter().enumerate() {
                    cumulative = cumulative.wrapping_add(*cell);
                    if i < BUCKETS {
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {cumulative}",
                            info.name,
                            bucket_le(i)
                        );
                    } else {
                        let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {cumulative}", info.name);
                    }
                }
                let _ = writeln!(out, "{}_sum {}", info.name, h.sum);
                let _ = writeln!(out, "{}_count {}", info.name, h.count);
            }
        }
    }
    out
}

/// Render a snapshot as one newline-terminated JSON line:
/// `{"seq":..,"ts_micros":..,"counters":{..},"gauges":{..},"histograms":{..}}`.
///
/// `seq` is the 0-based index of this line in its snapshot stream
/// ([`crate::SnapshotEmitter::emitted`]) so a consumer tailing the JSONL
/// file can detect dropped or reordered lines. `ts_micros` is the
/// packet-clock timestamp that triggered the snapshot (trace time, not
/// wall time — see [`crate::SnapshotEmitter`]).
pub fn jsonl(snap: &Snapshot, seq: u64, ts_micros: u64, include_runtime: bool) -> String {
    let mut out = String::with_capacity(2048);
    let _ = write!(
        out,
        "{{\"seq\":{seq},\"ts_micros\":{ts_micros},\"counters\":{{"
    );
    let mut first = true;
    for m in Metric::ALL {
        if m.info().kind != Kind::Counter || !included(m, include_runtime) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{}", m.info().name, snap.get(m));
    }
    let _ = write!(out, "}},\"gauges\":{{");
    let mut first = true;
    for m in Metric::ALL {
        if m.info().kind != Kind::Gauge || !included(m, include_runtime) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{}", m.info().name, snap.gauge(m));
    }
    let _ = write!(out, "}},\"histograms\":{{");
    let mut first = true;
    for (m, h) in snap.histograms() {
        if !included(m, include_runtime) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{{\"buckets\":[", m.info().name);
        for (i, cell) in h.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{cell}");
        }
        let _ = write!(out, "],\"sum\":{},\"count\":{}}}", h.sum, h.count);
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter_add(Metric::IngestFrames, 42);
        r.gauge_add(Metric::FlowTableSize, 7);
        r.counter_add(Metric::NetParses, 99); // runtime-class
        r.observe(Metric::RingOccupancy, 2);
        r.observe(Metric::RingOccupancy, 2);
        r.snapshot()
    }

    #[test]
    fn prometheus_stable_only_by_default() {
        let text = prometheus(&sample(), false);
        assert!(text.contains("dnh_ingest_frames_total 42\n"));
        assert!(text.contains("# TYPE dnh_flow_table_size gauge"));
        assert!(text.contains("dnh_flow_table_size 7\n"));
        assert!(!text.contains("dnh_net_parses_total"));
        assert!(!text.contains("dnh_pipeline_ring_occupancy"));
    }

    #[test]
    fn prometheus_full_includes_runtime_and_histograms() {
        let text = prometheus(&sample(), true);
        assert!(text.contains("dnh_net_parses_total 99\n"));
        assert!(text.contains("dnh_pipeline_ring_occupancy_bucket{le=\"1\"} 0\n"));
        assert!(text.contains("dnh_pipeline_ring_occupancy_bucket{le=\"2\"} 2\n"));
        // Cumulative: every later bucket carries the 2 observations.
        assert!(text.contains("dnh_pipeline_ring_occupancy_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("dnh_pipeline_ring_occupancy_sum 4\n"));
        assert!(text.contains("dnh_pipeline_ring_occupancy_count 2\n"));
    }

    #[test]
    fn jsonl_is_one_line_and_stable() {
        let a = jsonl(&sample(), 3, 1_000_000, false);
        let b = jsonl(&sample(), 3, 1_000_000, false);
        assert_eq!(a, b);
        // Exactly one line, terminated for appending to a JSONL stream.
        assert_eq!(a.matches('\n').count(), 1);
        assert!(a.starts_with("{\"seq\":3,\"ts_micros\":1000000,\"counters\":{"));
        assert!(a.contains("\"dnh_ingest_frames_total\":42"));
        assert!(
            a.contains("\"gauges\":{\"dnh_resolver_clist_occupancy\":0,\"dnh_flow_table_size\":7}")
        );
        assert!(a.ends_with("\"histograms\":{}}\n"));
        let full = jsonl(&sample(), 0, 5, true);
        assert!(full.contains("\"dnh_net_parses_total\":99"));
        assert!(full.contains("\"dnh_pipeline_ring_occupancy\":{\"buckets\":[0,2,0"));
    }
}
