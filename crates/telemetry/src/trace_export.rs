//! Flight-recorder consumers: Chrome `trace_event` JSON, post-mortem
//! JSONL dumps, and the deterministic `--explain` provenance renderer.
//!
//! All three are hand-rolled string renderers over the decoded
//! [`LaneSnapshot`]s — the zero-dependency rule of this crate applies to
//! exports too. None of this runs on the record path; allocation and
//! formatting are fine here.
//!
//! * [`chrome_trace`] targets `chrome://tracing` / Perfetto: one thread
//!   lane per driver/worker, with each `worker_drain` rendered as a
//!   duration slice so a worker's busy periods read as a timeline.
//! * [`trace_jsonl`] is the dump-on-fault format: self-describing, one
//!   JSON object per line, decodable without the catalog at hand.
//! * [`explain`] filters Stable-class events down to the causal chain
//!   for one FQDN or server endpoint and renders it sorted on
//!   `(packet ts, frame seq, catalog id, a, b)` — a pure function of the
//!   Stable event multiset, hence byte-identical at any worker count and
//!   golden-file testable.

use std::fmt::Write as _;

use crate::flight::{LaneKind, TraceRecord, TraceSet};
use crate::trace::{ArgKind, TraceClass, TraceEvent};

/// Chrome-trace pid hosting wall-clock (Runtime) lanes.
const PID_WALL: u32 = 1;
/// Chrome-trace pid hosting packet-clock (Stable) lanes.
const PID_TRACE: u32 = 2;

fn lane_tid(kind: LaneKind, index: u16) -> u32 {
    match kind {
        LaneKind::Driver => 1,
        LaneKind::Worker => 100 + u32::from(index),
    }
}

fn push_meta(out: &mut String, pid: u32, tid: u32, what: &str, name: &str) {
    let _ = writeln!(
        out,
        "{{\"name\":\"{what}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{name}\"}}}},"
    );
}

fn arg_json(kind: ArgKind, v: u64) -> String {
    match kind {
        ArgKind::Value => format!("{v}"),
        ArgKind::FqdnKey | ArgKind::ServerKey => format!("\"0x{v:016x}\""),
    }
}

fn push_instant(out: &mut String, pid: u32, tid: u32, ts: u64, r: &TraceRecord) {
    let info = r.event.info();
    let _ = writeln!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\
         \"tid\":{tid},\"args\":{{\"seq\":{},\"{}\":{},\"{}\":{}}}}},",
        info.name,
        r.seq,
        info.a_label,
        arg_json(info.a_kind, r.a),
        info.b_label,
        arg_json(info.b_kind, r.b),
    );
}

fn push_slice(
    out: &mut String,
    pid: u32,
    tid: u32,
    name: &str,
    ts: u64,
    dur: u64,
    args: &[(&str, u64)],
) {
    let _ = write!(out, "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid},\"args\":{{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    }
    out.push_str("}},\n");
}

/// Render the whole set as Chrome `trace_event` JSON (the object form,
/// `{"traceEvents":[...]}`), loadable in `chrome://tracing` or Perfetto.
pub fn chrome_trace(set: &TraceSet) -> String {
    let lanes = set.lanes();
    let mut out = String::from("{\"traceEvents\":[\n");
    push_meta(
        &mut out,
        PID_WALL,
        0,
        "process_name",
        "dn-hunter wall clock",
    );
    push_meta(
        &mut out,
        PID_TRACE,
        0,
        "process_name",
        "dn-hunter packet clock",
    );
    for lane in &lanes {
        let tid = lane_tid(lane.kind, lane.index);
        let mut name = String::new();
        let _ = write!(name, "{} {}", lane.kind.name(), lane.index);
        push_meta(&mut out, PID_WALL, tid, "thread_name", &name);
        push_meta(&mut out, PID_TRACE, tid, "thread_name", &name);
    }
    for lane in &lanes {
        let tid = lane_tid(lane.kind, lane.index);
        for r in &lane.records {
            match r.event.info().class {
                TraceClass::Stable => push_instant(&mut out, PID_TRACE, tid, r.ts, r),
                TraceClass::Runtime => match r.event {
                    TraceEvent::WorkerDrain => {
                        let dur_us = r.b / 1_000;
                        push_slice(
                            &mut out,
                            PID_WALL,
                            tid,
                            "drain",
                            r.ts.saturating_sub(dur_us),
                            dur_us,
                            &[("items", r.a), ("busy_nanos", r.b)],
                        );
                    }
                    _ => push_instant(&mut out, PID_WALL, tid, r.ts, r),
                },
            }
        }
    }
    // Trailing metadata entry avoids dangling-comma special-casing.
    let _ = writeln!(
        out,
        "{{\"name\":\"trace_events_dropped\",\"ph\":\"M\",\"pid\":{PID_WALL},\"tid\":0,\
         \"args\":{{\"dropped\":{}}}}}",
        set.dropped_total()
    );
    out.push_str("]}\n");
    out
}

fn class_name(c: TraceClass) -> &'static str {
    match c {
        TraceClass::Stable => "stable",
        TraceClass::Runtime => "runtime",
    }
}

/// Render the whole set as self-describing JSONL — the dump-on-fault
/// format. One header object per lane, then one object per record.
pub fn trace_jsonl(set: &TraceSet) -> String {
    let mut out = String::new();
    for lane in set.lanes() {
        let _ = writeln!(
            out,
            "{{\"lane\":\"{}\",\"index\":{},\"dropped\":{},\"records\":{}}}",
            lane.kind.name(),
            lane.index,
            lane.dropped,
            lane.records.len()
        );
        for r in &lane.records {
            let info = r.event.info();
            let _ = writeln!(
                out,
                "{{\"lane\":\"{}\",\"index\":{},\"event\":\"{}\",\"class\":\"{}\",\
                 \"seq\":{},\"ts\":{},\"{}\":{},\"{}\":{}}}",
                lane.kind.name(),
                lane.index,
                info.name,
                class_name(info.class),
                r.seq,
                r.ts,
                info.a_label,
                arg_json(info.a_kind, r.a),
                info.b_label,
                arg_json(info.b_kind, r.b),
            );
        }
    }
    out
}

/// What `--explain` is asking about: a provenance key plus the label it
/// was derived from. Build with [`ExplainTarget::fqdn`] /
/// [`ExplainTarget::server`].
pub struct ExplainTarget {
    pub label: String,
    pub kind: ArgKind,
    pub key: u64,
}

impl ExplainTarget {
    /// Explain the tag chain of a domain name (key from
    /// `DomainName::trace_key`).
    pub fn fqdn(label: impl Into<String>, key: u64) -> Self {
        ExplainTarget {
            label: label.into(),
            kind: ArgKind::FqdnKey,
            key,
        }
    }

    /// Explain the tag chain of a `(server IP, port)` endpoint (key from
    /// `server_trace_key`).
    pub fn server(label: impl Into<String>, key: u64) -> Self {
        ExplainTarget {
            label: label.into(),
            kind: ArgKind::ServerKey,
            key,
        }
    }
}

fn matches_key(r: &TraceRecord, kind: ArgKind, key: u64) -> bool {
    let info = r.event.info();
    (info.a_kind == kind && r.a == key) || (info.b_kind == kind && r.b == key)
}

/// Render the causal chain for `target` from the set's Stable events —
/// deterministic for a deterministic input trace (see module docs).
pub fn explain(set: &TraceSet, target: &ExplainTarget) -> String {
    let mut stable: Vec<TraceRecord> = Vec::new();
    let mut dropped = 0u64;
    for lane in set.lanes() {
        dropped += lane.dropped;
        stable.extend(
            lane.records
                .iter()
                .filter(|r| r.event.info().class == TraceClass::Stable),
        );
    }

    // Pass 1: events naming the target key directly.
    let direct: Vec<TraceRecord> = stable
        .iter()
        .filter(|r| matches_key(r, target.kind, target.key))
        .copied()
        .collect();

    // Pass 2: keys of the *other* kind the direct events join to — a
    // resolver hit carries (server, fqdn), linking the two domains.
    let linked_kind = match target.kind {
        ArgKind::FqdnKey => ArgKind::ServerKey,
        _ => ArgKind::FqdnKey,
    };
    let mut linked: Vec<u64> = direct
        .iter()
        .flat_map(|r| {
            let info = r.event.info();
            [(info.a_kind, r.a), (info.b_kind, r.b)]
        })
        .filter(|(k, _)| *k == linked_kind)
        .map(|(_, v)| v)
        .collect();
    linked.sort_unstable();
    linked.dedup();

    let mut chain: Vec<TraceRecord> = stable
        .iter()
        .filter(|r| {
            matches_key(r, target.kind, target.key)
                || linked.iter().any(|k| matches_key(r, linked_kind, *k))
        })
        .copied()
        .collect();
    chain.sort_by_key(|r| (r.ts, r.seq, r.event, r.a, r.b));

    let mut out = String::new();
    let _ = write!(
        out,
        "explain {}\n  target {} key 0x{:016x}\n  {} linked key(s), {} event(s), {} record(s) dropped\n\n",
        target.label,
        match target.kind {
            ArgKind::FqdnKey => "fqdn",
            _ => "server",
        },
        target.key,
        linked.len(),
        chain.len(),
        dropped
    );
    for r in &chain {
        let info = r.event.info();
        let _ = writeln!(
            out,
            "  ts={:<12} seq={:<8} {:<14} {}={} {}={}",
            r.ts,
            r.seq,
            info.name,
            info.a_label,
            arg_text(info.a_kind, r.a),
            info.b_label,
            arg_text(info.b_kind, r.b),
        );
    }
    out
}

fn arg_text(kind: ArgKind, v: u64) -> String {
    match kind {
        ArgKind::Value => format!("{v}"),
        ArgKind::FqdnKey | ArgKind::ServerKey => format!("0x{v:016x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{trace_bind, TraceSet};

    fn seeded_set() -> std::sync::Arc<TraceSet> {
        let set = TraceSet::new();
        {
            let _g = trace_bind(&set, LaneKind::Worker, 0);
            // fqdn 0xF1 resolves and binds; server 0x51 hits it; a flow
            // opens, gets a verdict, finishes; an unrelated server 0x99.
            crate::tm_trace!(TraceEvent::DnsResponse, 1, 100, 0xf1, 2);
            crate::tm_trace!(TraceEvent::ResolverBind, 1, 100, 0xf1, 2);
            crate::tm_trace!(TraceEvent::ResolverHit, 2, 200, 0x51, 0xf1);
            crate::tm_trace!(TraceEvent::FlowOpen, 2, 200, 0x51, 443);
            crate::tm_trace!(TraceEvent::FlowFinish, 3, 300, 0x51, 900);
            crate::tm_trace!(TraceEvent::ResolverMiss, 4, 400, 0x99, 0);
            crate::tm_trace_wall!(TraceEvent::RingRecvBatch, 0, 0, 1);
            crate::tm_trace_wall!(TraceEvent::WorkerDrain, 0, 6, 1234);
        }
        set
    }

    #[test]
    fn explain_fqdn_joins_server_events_and_skips_unrelated() {
        let set = seeded_set();
        let text = explain(&set, &ExplainTarget::fqdn("www.example.com", 0xf1));
        assert!(text.starts_with("explain www.example.com\n"));
        for needle in [
            "dns_response",
            "resolver_bind",
            "resolver_hit",
            "flow_open",
            "flow_finish",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        // The unrelated server and all Runtime events stay out.
        assert!(!text.contains("resolver_miss"));
        assert!(!text.contains("worker_drain"));
        assert!(text.contains("1 linked key(s), 5 event(s), 0 record(s) dropped"));
    }

    #[test]
    fn explain_server_joins_fqdn_events() {
        let set = seeded_set();
        let text = explain(&set, &ExplainTarget::server("10.0.0.1:443", 0x51));
        for needle in ["resolver_hit", "flow_open", "dns_response", "resolver_bind"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(!text.contains("resolver_miss"));
    }

    #[test]
    fn explain_is_insensitive_to_lane_assignment() {
        // Same stable multiset split across different lanes renders
        // identically — the property the worker-count grid test relies on.
        let split = TraceSet::new();
        {
            let _g = trace_bind(&split, LaneKind::Worker, 1);
            crate::tm_trace!(TraceEvent::ResolverHit, 2, 200, 0x51, 0xf1);
            crate::tm_trace!(TraceEvent::FlowOpen, 2, 200, 0x51, 443);
        }
        {
            let _g = trace_bind(&split, LaneKind::Worker, 0);
            crate::tm_trace!(TraceEvent::DnsResponse, 1, 100, 0xf1, 2);
        }
        let merged = TraceSet::new();
        {
            let _g = trace_bind(&merged, LaneKind::Driver, 0);
            crate::tm_trace!(TraceEvent::DnsResponse, 1, 100, 0xf1, 2);
            crate::tm_trace!(TraceEvent::ResolverHit, 2, 200, 0x51, 0xf1);
            crate::tm_trace!(TraceEvent::FlowOpen, 2, 200, 0x51, 443);
        }
        let t = ExplainTarget::fqdn("www.example.com", 0xf1);
        assert_eq!(explain(&split, &t), explain(&merged, &t));
    }

    #[test]
    fn chrome_trace_renders_drain_slices_and_parses_shape() {
        let set = seeded_set();
        let json = chrome_trace(&set);
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"name\":\"worker 0\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"drain\""));
        assert!(json.contains("\"busy_nanos\":1234"));
        assert!(json.contains("\"name\":\"ring_recv_batch\""));
        assert!(json.contains("\"name\":\"dns_response\""));
    }

    #[test]
    fn trace_jsonl_is_one_object_per_line() {
        let set = seeded_set();
        let dump = trace_jsonl(&set);
        let lines: Vec<&str> = dump.lines().collect();
        // 1 lane header + 8 records.
        assert_eq!(lines.len(), 9);
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "bad line {l}");
        }
        assert!(lines[0].contains("\"lane\":\"worker\""));
        assert!(dump.contains("\"event\":\"worker_drain\""));
        assert!(dump.contains("\"server\":\"0x0000000000000051\""));
    }
}
