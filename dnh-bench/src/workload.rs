//! The four workloads, time-shifted day replay, and the on-the-fly pcap
//! byte stream the daemon workload reads.

use std::io::{self, Read, Write};
use std::sync::OnceLock;

use crate::clock::thread_cpu_secs;

/// One replayed "day": every replay of the base trace is shifted by this.
pub const DAY_MICROS: u64 = 86_400 * 1_000_000;

/// Which seeded trace a workload replays. The trace fixes the resolver's
/// Clist size with it, so workloads that share a trace share every layer's
/// input and one ledger serves them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The paper's flagship 24 h ADSL mix: mostly large TCP data segments.
    WebDay,
    /// Prefetch-heavy mix over a large client population: mostly small
    /// DNS frames.
    DnsStorm,
}

impl TraceKind {
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::WebDay => "web-day",
            TraceKind::DnsStorm => "dns-storm",
        }
    }

    /// log2 of the resolver's Clist capacity: `web-day` wraps it within the
    /// first day, `dns-storm` recycles it about four times a day.
    pub fn clist_log2(self) -> u32 {
        match self {
            TraceKind::WebDay => 16,
            TraceKind::DnsStorm => 17,
        }
    }

    /// Days the traced run replays: its figures are per-operation medians
    /// over chunks, which this many days supply.
    pub fn ledger_days(self) -> u64 {
        match self {
            TraceKind::WebDay => 2,
            TraceKind::DnsStorm => 1,
        }
    }
}

/// Which driver of the program ingests the replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// The single-threaded sniffer, frames pushed from memory.
    Seq,
    /// The dispatcher + worker pipeline, frames pushed from memory.
    Par,
    /// The daemon loop reading a pcap byte stream from an OS socket, with
    /// windowed analytics and rotation.
    Fifo,
}

/// One workload. `days` is the length of one rep: the longest the
/// benchmark contract's time cap leaves room for (92 runs and two builds in
/// 3420 s, about 35 s a run with set-up, reference and warm-up), every rep
/// lasting 2 s or more on the reference host.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub trace: TraceKind,
    pub driver: Driver,
    pub days: u64,
}

/// Names are normative (ISSUE 11); BENCHMARK.json lists the same four.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "web-day-seq",
        trace: TraceKind::WebDay,
        driver: Driver::Seq,
        days: 4,
    },
    Spec {
        name: "web-day-par",
        trace: TraceKind::WebDay,
        driver: Driver::Par,
        days: 4,
    },
    Spec {
        name: "dns-storm",
        trace: TraceKind::DnsStorm,
        driver: Driver::Seq,
        days: 1,
    },
    Spec {
        name: "fifo-rotate",
        trace: TraceKind::WebDay,
        driver: Driver::Fifo,
        days: 2,
    },
];

pub fn spec_by_name(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Window, slide and rotation interval of the daemon workload, µs.
pub const WINDOW_MICROS: u64 = 3_600 * 1_000_000;
pub const SLIDE_MICROS: u64 = 600 * 1_000_000;
pub const ROTATE_MICROS: u64 = 600 * 1_000_000;

/// Worker threads of the pipeline workload: the caller is the dispatcher,
/// so workers + 1 never exceeds the hardware threads (3 workers at most).
pub fn par_workers() -> usize {
    hardware_threads().saturating_sub(1).clamp(1, 3)
}

/// CPUs this process may run on, as first asked: `available_parallelism`
/// follows the calling thread's affinity mask, which [`Pinned`] narrows.
pub fn hardware_threads() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Thread ids of this process, from procfs.
pub fn thread_ids() -> Vec<u32> {
    let mut ids: Vec<u32> = std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

fn taskset(cpus: &str, tid: u32) -> bool {
    std::process::Command::new("taskset")
        .args(["-cp", cpus, &tid.to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// One thread per CPU while a multi-threaded rep runs.
///
/// On the reference host (a 2-vCPU guest) the scheduler leaves the two
/// threads of a pipeline on one vCPU for minutes at a time and on two at
/// other times, so unpinned throughput is bimodal (0.88 M or 1.40 M
/// events/s on `web-day-par`, whole runs at a time) and tells more about
/// the guest than about the program. There is no libc in the tree, so
/// affinity is set with util-linux `taskset` by thread id; where that is
/// missing the rep runs unpinned.
pub struct Pinned {
    caller: Option<u32>,
}

impl Pinned {
    /// Pin the calling thread to CPU 0 and every thread of the process not
    /// listed in `before` (the ones the driver or the load generator just
    /// spawned) to CPUs 1, 2, … in thread-id order.
    pub fn spread(before: &[u32]) -> Pinned {
        // Unit tests run side by side in one process: pinning "every thread
        // not listed" would pin other tests' threads.
        if cfg!(test) {
            return Pinned { caller: None };
        }
        let cpus = hardware_threads();
        let caller = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| p.file_name()?.to_str()?.parse::<u32>().ok());
        let (Some(caller), true) = (caller, cpus > 1) else {
            return Pinned { caller: None };
        };
        if !taskset("0", caller) {
            eprintln!("# taskset unavailable: threads run unpinned");
            return Pinned { caller: None };
        }
        let spawned = thread_ids().into_iter().filter(|t| !before.contains(t));
        for (i, tid) in spawned.enumerate() {
            taskset(&(1 + i % (cpus - 1)).to_string(), tid);
        }
        Pinned {
            caller: Some(caller),
        }
    }
}

impl Drop for Pinned {
    /// Give the calling thread all CPUs back (the spawned ones have ended
    /// or end with the rep).
    fn drop(&mut self) {
        if let Some(caller) = self.caller {
            taskset(&format!("0-{}", hardware_threads() - 1), caller);
        }
    }
}

/// A base trace held in memory: `(timestamp µs, frame bytes)` in capture
/// order.
pub trait Frames: Sync {
    fn len(&self) -> usize;
    fn get(&self, i: usize) -> (u64, &[u8]);

    /// Feed the trace `days` times, replay `k` shifted by `k` days, into
    /// one consumer.
    fn replay(&self, days: u64, mut f: impl FnMut(u64, &[u8]))
    where
        Self: Sized,
    {
        for day in 0..days {
            let shift = day * DAY_MICROS;
            for i in 0..self.len() {
                let (ts, frame) = self.get(i);
                f(ts + shift, frame);
            }
        }
    }
}

const PCAP_MAGIC: u32 = 0xa1b2_c3d4;
const PCAP_SNAPLEN: u32 = 262_144;
const PCAP_LINKTYPE_ETHERNET: u32 = 1;

fn pcap_global_header() -> [u8; 24] {
    let mut h = [0u8; 24];
    h[0..4].copy_from_slice(&PCAP_MAGIC.to_le_bytes());
    h[4..6].copy_from_slice(&2u16.to_le_bytes());
    h[6..8].copy_from_slice(&4u16.to_le_bytes());
    h[16..20].copy_from_slice(&PCAP_SNAPLEN.to_le_bytes());
    h[20..24].copy_from_slice(&PCAP_LINKTYPE_ETHERNET.to_le_bytes());
    h
}

fn pcap_record_header(ts: u64, len: usize) -> [u8; 16] {
    let mut h = [0u8; 16];
    h[0..4].copy_from_slice(&((ts / 1_000_000) as u32).to_le_bytes());
    h[4..8].copy_from_slice(&((ts % 1_000_000) as u32).to_le_bytes());
    h[8..12].copy_from_slice(&(len as u32).to_le_bytes());
    h[12..16].copy_from_slice(&(len as u32).to_le_bytes());
    h
}

/// The day-shifted replay of a trace as a classic little-endian
/// microsecond pcap byte stream, encoded as it is read. Both the socket
/// writer and the in-process reference read their bytes from here, so the
/// two ingest paths see the same stream without it ever being resident.
pub struct PcapReplay<'a, F: Frames> {
    frames: &'a F,
    days: u64,
    day: u64,
    next: usize,
    /// Header bytes not yet handed out (global header first).
    head: [u8; 24],
    head_len: usize,
    head_pos: usize,
    /// Frame whose body is being handed out, and how far.
    body: &'a [u8],
}

impl<'a, F: Frames> PcapReplay<'a, F> {
    pub fn new(frames: &'a F, days: u64) -> Self {
        PcapReplay {
            frames,
            days,
            day: 0,
            next: 0,
            head: pcap_global_header(),
            head_len: 24,
            head_pos: 0,
            body: &[],
        }
    }

    /// Load the next record's header and body; false at end of replay.
    fn advance(&mut self) -> bool {
        if self.next == self.frames.len() {
            self.next = 0;
            self.day += 1;
        }
        if self.day >= self.days || self.frames.len() == 0 {
            return false;
        }
        let (ts, frame) = self.frames.get(self.next);
        self.next += 1;
        let h = pcap_record_header(ts + self.day * DAY_MICROS, frame.len());
        self.head[..16].copy_from_slice(&h);
        self.head_len = 16;
        self.head_pos = 0;
        self.body = frame;
        true
    }
}

impl<F: Frames> Read for PcapReplay<'_, F> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut filled = 0;
        while filled < buf.len() {
            if self.head_pos < self.head_len {
                let n = (self.head_len - self.head_pos).min(buf.len() - filled);
                buf[filled..filled + n]
                    .copy_from_slice(&self.head[self.head_pos..self.head_pos + n]);
                self.head_pos += n;
                filled += n;
            } else if !self.body.is_empty() {
                let n = self.body.len().min(buf.len() - filled);
                buf[filled..filled + n].copy_from_slice(&self.body[..n]);
                self.body = &self.body[n..];
                filled += n;
            } else if !self.advance() {
                break;
            }
        }
        Ok(filled)
    }
}

/// Write granularity of the socket writer: one pipe buffer's worth.
const WRITE_CHUNK: usize = 64 * 1024;

/// Body of the daemon workload's one writer thread: stream the replay into
/// `sink`, close it, and return the CPU seconds this thread used, which
/// the rep subtracts from the process's (the writer is load, not program).
pub fn stream_replay<F: Frames>(frames: &F, days: u64, mut sink: impl Write) -> io::Result<f64> {
    let cpu0 = thread_cpu_secs();
    let mut replay = PcapReplay::new(frames, days);
    let mut buf = vec![0u8; WRITE_CHUNK];
    loop {
        let n = replay.read(&mut buf)?;
        if n == 0 {
            break;
        }
        sink.write_all(&buf[..n])?;
    }
    sink.flush()?;
    drop(sink);
    Ok(thread_cpu_secs() - cpu0)
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub struct VecFrames(pub Vec<(u64, Vec<u8>)>);

    impl Frames for VecFrames {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn get(&self, i: usize) -> (u64, &[u8]) {
            (self.0[i].0, &self.0[i].1)
        }
    }

    fn sample() -> VecFrames {
        VecFrames(vec![
            (1_000_000, vec![1; 5]),
            (1_500_123, vec![2; 70_000]),
            (2_000_000, vec![]),
        ])
    }

    #[test]
    fn replay_shifts_each_day_and_keeps_order() {
        let mut seen = Vec::new();
        sample().replay(3, |ts, f| seen.push((ts, f.len())));
        assert_eq!(seen.len(), 9);
        assert_eq!(seen[0], (1_000_000, 5));
        assert_eq!(seen[3], (1_000_000 + DAY_MICROS, 5));
        assert_eq!(seen[8], (2_000_000 + 2 * DAY_MICROS, 0));
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn pcap_replay_bytes_do_not_depend_on_read_sizes() {
        let frames = sample();
        let mut whole = Vec::new();
        PcapReplay::new(&frames, 2).read_to_end(&mut whole).unwrap();
        assert_eq!(whole.len(), 24 + 2 * (3 * 16 + 70_005));
        assert_eq!(&whole[0..4], &PCAP_MAGIC.to_le_bytes());
        // Second record of day 1: shifted seconds, same microseconds.
        let rec = 24 + (3 * 16 + 70_005) + 16 + 5;
        let sec = u32::from_le_bytes(whole[rec..rec + 4].try_into().unwrap());
        let usec = u32::from_le_bytes(whole[rec + 4..rec + 8].try_into().unwrap());
        assert_eq!((sec, usec), (1 + 86_400, 500_123));

        let mut dribbled = Vec::new();
        let mut r = PcapReplay::new(&frames, 2);
        let mut buf = [0u8; 7];
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            dribbled.extend_from_slice(&buf[..n]);
        }
        assert_eq!(dribbled, whole);

        let mut streamed = Vec::new();
        stream_replay(&frames, 2, &mut streamed).unwrap();
        assert_eq!(streamed, whole);
    }

    #[test]
    fn empty_trace_is_a_bare_header() {
        let mut out = Vec::new();
        PcapReplay::new(&VecFrames(Vec::new()), 5)
            .read_to_end(&mut out)
            .unwrap();
        assert_eq!(out.len(), 24);
    }

    #[test]
    fn workload_names_are_unique_and_worker_count_leaves_the_dispatcher_a_thread() {
        for (i, a) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|b| b.name != a.name));
            assert!(a.days >= a.trace.ledger_days());
            assert_eq!(spec_by_name(a.name).map(|s| s.days), Some(a.days));
        }
        assert!((1..=3).contains(&par_workers()));
        assert!(par_workers() < hardware_threads().max(2));
    }
}
