//! Per-thread ring-buffer flight recorders.
//!
//! Each pipeline thread (driver, dispatcher, worker) binds its own
//! [`FlightRecorder`]: a fixed-capacity ring of atomic cells sized by
//! [`TRACE_RING_CAP`]. Recording is single-writer and allocation-free —
//! one relaxed `fetch_add` on the head plus four relaxed stores — so the
//! record path costs a TLS load and a handful of nanoseconds, cheap
//! enough to leave compiled in (the bench's `trace_overhead` section
//! holds it under the same 3% budget as the metric layer). When the ring
//! wraps, the oldest records are overwritten and a dropped counter
//! advances; exports surface that count and the fault matrix asserts it
//! stays zero at the default capacity.
//!
//! Reading a recorder from its own thread, or after joining the writer
//! thread, is exact. The dump-on-fault path ([`install_fault_dump`])
//! reads *other* threads' rings mid-flight; individual cells are atomic
//! so the dump cannot tear a word, but a record whose four cells were
//! mid-write may mix neighbours — acceptable for a post-mortem artifact,
//! and why exports tolerate unknown event ids.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, Weak};
use std::time::Instant;

use crate::trace::TraceEvent;

/// Records each flight recorder holds before drop-oldest kicks in.
/// 128Ki records × 32 bytes = 4 MiB per bound thread — large enough that
/// the full fault matrix records zero drops (asserted in
/// `tests/fault_matrix.rs`), small enough to leave enabled under `--trace-out`.
pub const TRACE_RING_CAP: usize = 1 << 17;

/// `u64` cells per record: packed event id + frame seq, timestamp, a, b.
const CELLS_PER_RECORD: usize = 4;

/// Bits of the meta cell reserved for the frame sequence number.
const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// Which pipeline role a recorder belongs to — one Chrome-trace lane each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LaneKind {
    /// The thread driving ingest (sequential sniffer, or the parallel
    /// sniffer's dispatcher — its caller's thread).
    Driver,
    /// A worker shard draining inbound rings.
    Worker,
}

impl LaneKind {
    /// Lane name stem used by exports (`driver`, `worker`).
    pub const fn name(self) -> &'static str {
        match self {
            LaneKind::Driver => "driver",
            LaneKind::Worker => "worker",
        }
    }
}

/// One decoded flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The cataloged event.
    pub event: TraceEvent,
    /// Frame sequence number at the record site (0 when not applicable).
    pub seq: u64,
    /// Packet microseconds (Stable events) or wall microseconds since the
    /// [`TraceSet`] epoch (Runtime events).
    pub ts: u64,
    /// First argument; meaning per the catalog's [`ArgKind`](crate::ArgKind).
    pub a: u64,
    /// Second argument.
    pub b: u64,
}

/// A single-writer ring of trace records owned by one pipeline thread.
pub struct FlightRecorder {
    kind: LaneKind,
    index: u16,
    head: AtomicU64,
    dropped: AtomicU64,
    cells: Box<[AtomicU64]>,
}

impl FlightRecorder {
    fn new(kind: LaneKind, index: u16) -> Self {
        let mut cells = Vec::new();
        cells.resize_with(TRACE_RING_CAP * CELLS_PER_RECORD, || AtomicU64::new(0));
        FlightRecorder {
            kind,
            index,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            cells: cells.into_boxed_slice(),
        }
    }

    /// Lane identity: role + index within that role.
    pub fn lane(&self) -> (LaneKind, u16) {
        (self.kind, self.index)
    }

    /// Append one record, overwriting the oldest when full. Allocation-,
    /// lock- and format-free; relaxed atomics only.
    #[inline]
    pub fn note_event(&self, event: TraceEvent, seq: u64, ts: u64, a: u64, b: u64) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        if idx >= TRACE_RING_CAP as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let base = (idx as usize % TRACE_RING_CAP) * CELLS_PER_RECORD;
        let meta = ((event as u64) << SEQ_BITS) | (seq & SEQ_MASK);
        // One bounds check for the whole record, not four.
        if let Some(cells) = self.cells.get(base..base + CELLS_PER_RECORD) {
            for (cell, v) in cells.iter().zip([meta, ts, a, b]) {
                cell.store(v, Ordering::Relaxed);
            }
        }
    }

    /// Records overwritten before they could be exported.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Decode the ring's surviving records, oldest first. Records whose
    /// event id is unknown (torn mid-flight read) are skipped.
    pub fn records(&self) -> Vec<TraceRecord> {
        let head = self.head.load(Ordering::Relaxed);
        let kept = head.min(TRACE_RING_CAP as u64);
        let mut out = Vec::with_capacity(kept as usize);
        for i in (head - kept)..head {
            let base = (i as usize % TRACE_RING_CAP) * CELLS_PER_RECORD;
            let cell = |off: usize| {
                self.cells
                    .get(base + off)
                    .map(|c| c.load(Ordering::Relaxed))
                    .unwrap_or(0)
            };
            let meta = cell(0);
            let id = (meta >> SEQ_BITS) as u16;
            if let Some(event) = TraceEvent::from_id(id) {
                out.push(TraceRecord {
                    event,
                    seq: meta & SEQ_MASK,
                    ts: cell(1),
                    a: cell(2),
                    b: cell(3),
                });
            }
        }
        out
    }
}

/// Everything recorded by one lane, decoded for export.
pub struct LaneSnapshot {
    /// Lane role.
    pub kind: LaneKind,
    /// Index within the role (dispatcher 0, worker 3, ...).
    pub index: u16,
    /// Records overwritten in this lane before export.
    pub dropped: u64,
    /// Surviving records, oldest first.
    pub records: Vec<TraceRecord>,
}

/// The set of flight recorders for one traced run: hands out per-thread
/// recorders, owns the wall-clock epoch Runtime events are stamped
/// against, and aggregates lanes for export.
pub struct TraceSet {
    epoch: Instant,
    recorders: Mutex<Vec<Arc<FlightRecorder>>>,
}

impl TraceSet {
    /// Start a traced run; the wall-clock epoch is now.
    pub fn new() -> Arc<TraceSet> {
        Arc::new(TraceSet {
            epoch: Instant::now(),
            recorders: Mutex::new(Vec::new()),
        })
    }

    /// Create and register the recorder for one lane. Cold path (thread
    /// start): takes the registry lock and allocates the ring.
    pub fn recorder(&self, kind: LaneKind, index: u16) -> Arc<FlightRecorder> {
        let rec = Arc::new(FlightRecorder::new(kind, index));
        if let Ok(mut all) = self.recorders.lock() {
            all.push(rec.clone());
        }
        rec
    }

    /// Wall microseconds since the set's epoch (Runtime event timestamps).
    #[inline]
    pub fn wall_micros(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Total records overwritten across all lanes — feeds the
    /// `TraceEventsDropped` Runtime metric.
    pub fn dropped_total(&self) -> u64 {
        match self.recorders.lock() {
            Ok(all) => all.iter().map(|r| r.dropped()).sum(),
            Err(_) => 0,
        }
    }

    /// Decode every lane, ordered by (role, index, registration order).
    pub fn lanes(&self) -> Vec<LaneSnapshot> {
        let mut out: Vec<LaneSnapshot> = match self.recorders.lock() {
            Ok(all) => all
                .iter()
                .map(|r| {
                    let (kind, index) = r.lane();
                    LaneSnapshot {
                        kind,
                        index,
                        dropped: r.dropped(),
                        records: r.records(),
                    }
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        out.sort_by_key(|l| (l.kind, l.index));
        out
    }
}

struct TraceBinding {
    set: Arc<TraceSet>,
    recorder: Arc<FlightRecorder>,
}

thread_local! {
    static TRACE: RefCell<Option<TraceBinding>> = const { RefCell::new(None) };
}

/// Restores the previously bound recorder (if any) when dropped.
/// Deliberately `!Send`: a binding belongs to one thread.
#[must_use = "dropping the guard immediately unbinds the flight recorder"]
pub struct TraceBindGuard {
    prev: Option<TraceBinding>,
    restore: bool,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for TraceBindGuard {
    fn drop(&mut self) {
        if self.restore {
            let prev = self.prev.take();
            let _ = TRACE.try_with(|c| {
                if let Ok(mut slot) = c.try_borrow_mut() {
                    *slot = prev;
                }
            });
        }
    }
}

/// Bind a fresh flight recorder for lane `(kind, index)` of `set` as the
/// current thread's trace sink until the guard drops.
pub fn trace_bind(set: &Arc<TraceSet>, kind: LaneKind, index: u16) -> TraceBindGuard {
    let binding = TraceBinding {
        set: set.clone(),
        recorder: set.recorder(kind, index),
    };
    let prev = TRACE
        .try_with(|c| match c.try_borrow_mut() {
            Ok(mut slot) => Some(slot.replace(binding)),
            Err(_) => None,
        })
        .ok()
        .flatten();
    match prev {
        Some(prev) => TraceBindGuard {
            prev,
            restore: true,
            _thread_bound: PhantomData,
        },
        // TLS unavailable (thread teardown): nothing installed.
        None => TraceBindGuard {
            prev: None,
            restore: false,
            _thread_bound: PhantomData,
        },
    }
}

/// Whether the current thread has a flight recorder bound.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE
        .try_with(|c| c.try_borrow().map(|slot| slot.is_some()).unwrap_or(false))
        .unwrap_or(false)
}

/// The [`TraceSet`] bound on this thread, if any — how the pipeline
/// propagates tracing to the threads it spawns (each binds its own lane).
pub fn trace_set() -> Option<Arc<TraceSet>> {
    TRACE
        .try_with(|c| {
            c.try_borrow()
                .ok()
                .and_then(|slot| slot.as_ref().map(|b| b.set.clone()))
        })
        .ok()
        .flatten()
}

#[inline]
fn with_binding(f: impl FnOnce(&TraceBinding)) {
    let _ = TRACE.try_with(|c| {
        if let Ok(slot) = c.try_borrow() {
            if let Some(b) = slot.as_ref() {
                f(b);
            }
        }
    });
}

/// Record a Stable-class event with an explicit (packet) timestamp on the
/// bound recorder; no-op when unbound. Use through [`tm_trace!`](crate::tm_trace).
#[inline]
pub fn trace_note(event: TraceEvent, seq: u64, ts: u64, a: u64, b: u64) {
    with_binding(|b_| b_.recorder.note_event(event, seq, ts, a, b));
}

/// Record a Runtime-class event stamped with wall microseconds since the
/// bound set's epoch; no-op when unbound. Use through
/// [`tm_trace_wall!`](crate::tm_trace_wall).
#[inline]
pub fn trace_note_wall(event: TraceEvent, seq: u64, a: u64, b: u64) {
    with_binding(|bind| {
        let ts = bind.set.wall_micros();
        bind.recorder.note_event(event, seq, ts, a, b);
    });
}

struct FaultDump {
    path: PathBuf,
    set: Weak<TraceSet>,
}

static FAULT_DUMP: Mutex<Option<FaultDump>> = Mutex::new(None);
static FAULT_HOOK: Once = Once::new();

/// Arm dump-on-fault: if the process panics while `set` is alive, its
/// flight recorders are flushed to `path` as a `*.trace.jsonl`
/// post-mortem artifact (the previous panic hook still runs). Re-arming
/// replaces the target; the hook itself installs once per process.
pub fn install_fault_dump(path: PathBuf, set: &Arc<TraceSet>) {
    if let Ok(mut slot) = FAULT_DUMP.lock() {
        *slot = Some(FaultDump {
            path,
            set: Arc::downgrade(set),
        });
    }
    FAULT_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            fault_dump_now();
            prev(info);
        }));
    });
}

/// Flush the armed dump target immediately (fault-matrix anomaly path).
/// Returns the path written, or `None` if nothing is armed.
pub fn fault_dump_now() -> Option<PathBuf> {
    let (path, set) = match FAULT_DUMP.lock() {
        Ok(slot) => {
            let d = slot.as_ref()?;
            (d.path.clone(), d.set.upgrade()?)
        }
        Err(_) => return None,
    };
    let body = crate::trace_export::trace_jsonl(&set);
    match std::fs::write(&path, body) {
        Ok(()) => Some(path),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_decode_roundtrip() {
        let set = TraceSet::new();
        let rec = set.recorder(LaneKind::Worker, 3);
        rec.note_event(TraceEvent::DnsResponse, 7, 1_000_000, 0xabc, 2);
        rec.note_event(TraceEvent::FlowOpen, 8, 1_000_001, 0xdef, 443);
        let records = rec.records();
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0],
            TraceRecord {
                event: TraceEvent::DnsResponse,
                seq: 7,
                ts: 1_000_000,
                a: 0xabc,
                b: 2,
            }
        );
        assert_eq!(records[1].event, TraceEvent::FlowOpen);
        assert_eq!(rec.dropped(), 0);
        assert_eq!(set.dropped_total(), 0);
    }

    #[test]
    fn ring_wrap_drops_oldest_and_counts() {
        let set = TraceSet::new();
        let rec = set.recorder(LaneKind::Driver, 0);
        let n = TRACE_RING_CAP as u64 + 10;
        for i in 0..n {
            rec.note_event(TraceEvent::FrameParse, i, i, 0, 0);
        }
        assert_eq!(rec.dropped(), 10);
        let records = rec.records();
        assert_eq!(records.len(), TRACE_RING_CAP);
        // Oldest surviving record is the 11th ever written.
        assert_eq!(records.first().map(|r| r.seq), Some(10));
        assert_eq!(records.last().map(|r| r.seq), Some(n - 1));
        assert_eq!(set.dropped_total(), 10);
    }

    #[test]
    fn unbound_trace_notes_are_noops() {
        assert!(!trace_enabled());
        trace_note(TraceEvent::FlowOpen, 1, 2, 3, 4);
        trace_note_wall(TraceEvent::WorkerDrain, 0, 1, 2);
        assert!(trace_set().is_none());
    }

    #[test]
    fn bind_routes_notes_and_nests() {
        let set = TraceSet::new();
        {
            let _g = trace_bind(&set, LaneKind::Driver, 0);
            assert!(trace_enabled());
            trace_note(TraceEvent::FlowOpen, 1, 10, 0xaa, 80);
            {
                let inner = TraceSet::new();
                let _g2 = trace_bind(&inner, LaneKind::Worker, 1);
                trace_note(TraceEvent::FlowFinish, 2, 20, 0xbb, 9);
                assert_eq!(inner.lanes().len(), 1);
            }
            // Inner guard dropped: back on the outer set.
            trace_note_wall(TraceEvent::RingSendBatch, 3, 0, 0);
        }
        assert!(!trace_enabled());
        let lanes = set.lanes();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].records.len(), 2);
        assert_eq!(lanes[0].records[0].event, TraceEvent::FlowOpen);
        assert_eq!(lanes[0].records[1].event, TraceEvent::RingSendBatch);
    }

    #[test]
    fn lanes_sort_by_role_and_index() {
        let set = TraceSet::new();
        set.recorder(LaneKind::Worker, 1);
        set.recorder(LaneKind::Worker, 0);
        set.recorder(LaneKind::Driver, 0);
        let order: Vec<(LaneKind, u16)> = set.lanes().iter().map(|l| (l.kind, l.index)).collect();
        assert_eq!(
            order,
            vec![
                (LaneKind::Driver, 0),
                (LaneKind::Worker, 0),
                (LaneKind::Worker, 1),
            ]
        );
    }
}
