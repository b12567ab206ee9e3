//! The per-layer cost ledger: spans recorded in memory around chunks of
//! calls into one layer, counts taken at the same boundaries, and the
//! per-layer figures derived from them.
//!
//! An operation here costs tens to hundreds of nanoseconds, so the clock is
//! read once per chunk of [`CHUNK`] operations, never once per call. A leg
//! has 20 to 50 chunks, so no percentile above the median has ten samples
//! beyond it: a layer's figure is the median over its chunks.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc::HEAP;
use crate::stats::median;

/// Operations per timed chunk.
pub const CHUNK: usize = 65_536;
/// A trailing chunk shorter than this share of [`CHUNK`] is kept as a span
/// but left out of the per-op medians, where its fixed costs would show.
const MIN_CHUNK_SHARE: f64 = 0.25;

/// One recorded span. `parent` indexes the span that caused it (the day
/// span of its leg); day spans have none.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub ops: u64,
    pub allocs: u64,
}

/// Spans, figures and facts of one traced run. A figure is a per-layer
/// metric of the catalogue; a fact is a count recorded beside them.
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    open_day: Option<usize>,
    figures: BTreeMap<&'static str, f64>,
    facts: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            open_day: None,
            figures: BTreeMap::new(),
            facts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` under a parent span named `leg` (one replayed day of one
    /// leg); chunks recorded inside it name it as their cause.
    pub fn day<R>(&mut self, leg: &'static str, f: impl FnOnce(&mut Ledger) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: leg,
            start_ns,
            end_ns: start_ns,
            parent: None,
            ops: 0,
            allocs: 0,
        });
        let outer = self.open_day.replace(idx);
        let r = f(self);
        self.open_day = outer;
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Time `f`, which performs `ops` operations of layer `name`, as one
    /// span, with the allocator calls it made.
    pub fn chunk<R>(&mut self, name: &'static str, ops: usize, f: impl FnOnce() -> R) -> R {
        let allocs0 = HEAP.calls();
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open_day,
            ops: ops as u64,
            allocs: HEAP.calls() - allocs0,
        });
        r
    }

    /// Replay `days` days of `n` operations each through `body`, one day
    /// span per day and one `name` span per [`CHUNK`] operations; `body`
    /// gets the day number and the index range of its chunk.
    pub fn chunked_days(
        &mut self,
        leg: &'static str,
        name: &'static str,
        days: u64,
        n: usize,
        mut body: impl FnMut(u64, std::ops::Range<usize>),
    ) {
        for day in 0..days {
            self.day(leg, |l| {
                for start in (0..n).step_by(CHUNK) {
                    let end = (start + CHUNK).min(n);
                    l.chunk(name, end - start, || body(day, start..end));
                }
            });
        }
    }

    fn chunks<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.parent.is_some())
    }

    /// ns per operation of each full-enough chunk of `name`.
    fn ns_per_op_samples(&self, name: &str) -> Vec<f64> {
        let floor = (CHUNK as f64 * MIN_CHUNK_SHARE) as u64;
        let full: Vec<f64> = self
            .chunks(name)
            .filter(|s| s.ops >= floor)
            .map(|s| (s.end_ns - s.start_ns) as f64 / s.ops as f64)
            .collect();
        if !full.is_empty() {
            return full;
        }
        // A layer with less than a quarter chunk of work in total: all of
        // it as one sample.
        match (self.total_ns(name), self.total_ops(name)) {
            (ns, ops) if ops > 0 => vec![ns as f64 / ops as f64],
            _ => Vec::new(),
        }
    }

    /// Median over chunks of ns per operation of layer `name`.
    pub fn ns_per_op(&self, name: &str) -> f64 {
        median(&self.ns_per_op_samples(name))
    }

    /// Nanoseconds inside all chunks of `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.chunks(name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Operations in all chunks of `name`.
    pub fn total_ops(&self, name: &str) -> u64 {
        self.chunks(name).map(|s| s.ops).sum()
    }

    /// Allocator calls per operation over all chunks of `name`.
    pub fn allocs_per_op(&self, name: &str) -> f64 {
        let allocs: u64 = self.chunks(name).map(|s| s.allocs).sum();
        ratio(allocs as f64, self.total_ops(name) as f64)
    }

    /// Record one per-layer figure under its catalogue name.
    pub fn set(&mut self, metric: &'static str, value: f64) {
        self.figures.insert(metric, value);
    }

    /// Record `span`'s median ns/op as `metric`.
    pub fn set_ns_per_op(&mut self, metric: &'static str, span: &str) {
        let v = self.ns_per_op(span);
        self.set(metric, v);
    }

    /// Record one fact: a count taken by a leg that is not in the catalogue.
    pub fn fact(&mut self, name: &'static str, value: f64) {
        self.facts.insert(name, value);
    }

    pub fn facts(&self) -> &BTreeMap<&'static str, f64> {
        &self.facts
    }

    pub fn figure(&self, metric: &str) -> Option<f64> {
        self.figures.get(metric).copied()
    }

    /// How many figures were recorded.
    #[cfg(test)]
    pub fn figure_count(&self) -> usize {
        self.figures.len()
    }

    /// The spans as Chrome `trace_event` JSON (complete events, µs).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"ops\":{},\"allocs\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.ops,
                s.allocs
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// `num / den`, 0 when there was nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_nest_under_their_day_and_sum_up() {
        let mut l = Ledger::new();
        l.day("leg", |l| {
            l.chunk("layer", CHUNK, || std::hint::black_box(vec![0u8; 64]));
            l.chunk("layer", CHUNK, || ());
            l.chunk("layer", 10, || ()); // short tail
        });
        l.day("leg", |l| l.chunk("other", 5, || ()));
        let spans = &l.spans;
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..4].iter().all(|s| s.parent == Some(0)));
        assert_eq!(spans[5].parent, Some(4));
        assert!(spans[0].end_ns >= spans[3].end_ns);
        assert_eq!(l.total_ops("layer"), 2 * CHUNK as u64 + 10);
        assert!(l.allocs_per_op("layer") > 0.0);
        // The short tail is a span but not a per-op sample ...
        assert_eq!(l.ns_per_op_samples("layer").len(), 2);
        // ... unless a layer has nothing else.
        assert_eq!(l.ns_per_op_samples("other").len(), 1);
        assert_eq!(l.ns_per_op("absent"), 0.0);
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let mut l = Ledger::new();
        l.day("leg", |l| l.chunk("layer", 3, || ()));
        let v: serde_json::Value = serde_json::from_str(&l.chrome_trace()).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1]["name"].as_str(), Some("layer"));
        assert_eq!(events[1]["args"]["parent"].as_u64(), Some(0));
        assert!(events[0]["args"]["parent"].is_null());
    }
}
