//! The end-to-end protocol: set up, one untimed warm-up ingest, timed reps,
//! and the correctness gates over them.
//!
//! Load is a closed loop from this one process: a single thread feeds the
//! driver the next frame as soon as the previous call returns.

use std::fmt::{self, Write as _};
use std::time::Instant;

use crate::alloc::HEAP;
use crate::catalog;
use crate::clock::process_cpu_secs;
use crate::stats::{median, Summary};
use crate::sut::{self, Outcome, Trace};
use crate::workload::{Frames, Spec};

/// How often set-up is repeated in a run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// FNV-1a/64 over everything formatted into it: the report digest, cheap
/// enough to run over hundreds of thousands of flow rows.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// The resource clocks of one rep. The driver adapter calls
/// [`RepMeter::before_driver`] ahead of constructing the driver,
/// [`RepMeter::start`] ahead of the first frame and [`RepMeter::stop`] once
/// `finish` has returned; nothing is read in between.
#[derive(Default)]
pub struct RepMeter {
    level: u64,
    allocs0: u64,
    cpu0: f64,
    t0: Option<Instant>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub allocs: u64,
    pub peak_bytes: u64,
}

impl RepMeter {
    /// Live heap now is input, not state: peak is measured above it.
    pub fn before_driver(&mut self) {
        self.level = HEAP.reset_peak();
    }

    pub fn start(&mut self) {
        self.allocs0 = HEAP.calls();
        self.cpu0 = process_cpu_secs();
        self.t0 = Some(Instant::now());
    }

    pub fn stop(&mut self) {
        let t0 = self.t0.take().expect("RepMeter::stop without start");
        self.wall_s = t0.elapsed().as_secs_f64();
        self.cpu_s = process_cpu_secs() - self.cpu0;
        self.allocs = HEAP.calls() - self.allocs0;
        self.peak_bytes = HEAP.peak().saturating_sub(self.level);
    }
}

/// One timed rep, as end-to-end metric values plus what the gates need.
#[derive(Debug, Clone)]
pub struct RepSample {
    pub wall_s: f64,
    pub events_per_s: f64,
    pub cpu_ns_per_event: f64,
    pub peak_state_mb: f64,
    pub allocs_per_event: f64,
    pub hit_ratio: f64,
    pub events: u64,
    pub failed: u64,
    pub digest: String,
}

fn sample(m: &RepMeter, out: &Outcome, reference: &str) -> RepSample {
    let events = out.events.max(1) as f64;
    // A rep whose output differs from the reference got every event wrong.
    let failed = if out.digest == reference {
        out.faults
    } else {
        out.events.max(out.faults)
    };
    RepSample {
        wall_s: m.wall_s,
        events_per_s: events / m.wall_s,
        cpu_ns_per_event: (m.cpu_s - out.load_cpu_s).max(0.0) * 1e9 / events,
        peak_state_mb: m.peak_bytes as f64 / 1e6,
        allocs_per_event: m.allocs as f64 / events,
        hit_ratio: out.hit_ratio,
        events: out.events,
        failed,
        digest: out.digest.clone(),
    }
}

/// Everything one end-to-end run of one workload produced.
pub struct E2e {
    pub spec: Spec,
    pub days: u64,
    pub seed: u64,
    pub threads: usize,
    pub setup_secs: Vec<f64>,
    pub reference_secs: f64,
    pub reference_digest: String,
    pub bytes_per_event: f64,
    pub reps: Vec<RepSample>,
    /// Gate failures, empty when the run is correct.
    pub problems: Vec<String>,
}

/// The end-to-end metric names, in BENCHMARK.json order (which also holds
/// their units).
pub const E2E_METRICS: [&str; 6] = [
    "events_per_s",
    "cpu_ns_per_event",
    "peak_state_mb",
    "allocs_per_event",
    "hit_ratio",
    "setup_s",
];

impl E2e {
    /// `setup_s`: median generation + materialisation time, plus the one
    /// reference computation.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_secs) + self.reference_secs
    }

    /// Values of one end-to-end metric over the timed reps.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        let pick: fn(&RepSample) -> f64 = match metric {
            "events_per_s" => |r| r.events_per_s,
            "cpu_ns_per_event" => |r| r.cpu_ns_per_event,
            "peak_state_mb" => |r| r.peak_state_mb,
            "allocs_per_event" => |r| r.allocs_per_event,
            "hit_ratio" => |r| r.hit_ratio,
            "setup_s" => return vec![self.setup_s()],
            other => panic!("unknown end-to-end metric {other}"),
        };
        self.reps.iter().map(pick).collect()
    }

    pub fn summary(&self, metric: &str) -> Summary {
        Summary::of(&self.values(metric)).expect("a run has at least one rep")
    }

    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.events).sum::<u64>().max(1)
    }

    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }

    pub fn fail_share(&self) -> f64 {
        self.failed() as f64 / self.attempted() as f64
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Generate the workload's base trace `repeats` times (keeping one trace
/// resident at a time) and return the last with every generation's time.
pub fn set_up(spec: &Spec, seed: u64, repeats: usize) -> (Trace, Vec<f64>) {
    let mut secs = Vec::with_capacity(repeats);
    let mut trace = None;
    for _ in 0..repeats.max(1) {
        drop(trace.take());
        let t0 = Instant::now();
        trace = Some(sut::generate(spec.trace, seed));
        secs.push(t0.elapsed().as_secs_f64());
    }
    (trace.expect("at least one set-up"), secs)
}

/// Run one workload end to end: set-up, reference, warm-up, `reps` timed
/// reps of `days` days each. The trace comes back for the traced run.
pub fn run_e2e(spec: &Spec, seed: u64, days: u64, reps: usize, setups: usize) -> (E2e, Trace) {
    let (trace, setup_secs) = set_up(spec, seed, setups);
    let mut problems = Vec::new();

    // The untimed warm-up ingest is also the reference output: a second
    // ingest path over the same input where the workload has one (it grows
    // the heap to the size a rep needs and touches all of the input, and its
    // time is set-up), else a rep of the workload's own driver.
    eprintln!("# {}: reference and warm-up ingest (untimed)", spec.name);
    let t0 = Instant::now();
    let reference = sut::reference(spec, &trace, days);
    let reference_secs = t0.elapsed().as_secs_f64();
    let warm = reference.unwrap_or_else(|| sut::rep(spec, &trace, days, &mut RepMeter::default()));
    let reference_digest = warm.digest;

    let mut samples = Vec::with_capacity(reps);
    for i in 0..reps {
        let mut m = RepMeter::default();
        let out = sut::rep(spec, &trace, days, &mut m);
        let s = sample(&m, &out, &reference_digest);
        eprintln!(
            "# {}: rep {}/{reps}: {} events in {:.3} s = {:.0} events/s, {:.1} MB state",
            spec.name,
            i + 1,
            s.events,
            s.wall_s,
            s.events_per_s,
            s.peak_state_mb
        );
        if s.digest != reference_digest {
            problems.push(format!("rep {} digest {} differs", i + 1, s.digest));
        }
        if out.faults > 0 {
            problems.push(format!("rep {}: {} failed events", i + 1, out.faults));
        }
        if s.hit_ratio.to_bits() != warm.hit_ratio.to_bits() {
            problems.push(format!("rep {}: hit ratio {} moved", i + 1, s.hit_ratio));
        }
        samples.push(s);
    }

    let bytes: u64 = (0..trace.len()).map(|i| trace.get(i).1.len() as u64).sum();
    let e2e = E2e {
        spec: *spec,
        days,
        seed,
        threads: sut::threads(spec),
        setup_secs,
        reference_secs,
        reference_digest,
        bytes_per_event: bytes as f64 / trace.len().max(1) as f64,
        reps: samples,
        problems,
    };
    (e2e, trace)
}

/// One line per end-to-end metric: name, unit, median, quartiles, range.
pub fn print_e2e(e: &E2e, out: &mut String) {
    let _ = writeln!(
        out,
        "{} (seed {}, {} days/rep, {} reps, {} threads, {:.0} bytes/event, digest {})",
        e.spec.name,
        e.seed,
        e.days,
        e.reps.len(),
        e.threads,
        e.bytes_per_event,
        e.reference_digest
    );
    for name in E2E_METRICS {
        let s = e.summary(name);
        let unit = catalog::unit(name);
        let _ = writeln!(
            out,
            "  {name:<18} {:>16.4} {unit:<12} q1 {:.4} q3 {:.4} min {:.4} max {:.4} n {} iqr {:.2}%",
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.n,
            100.0 * s.iqr_share()
        );
    }
    let _ = writeln!(
        out,
        "  {:<18} {:>16.4} {:<12} ({} of {} events)",
        "fail_share",
        e.fail_share(),
        "share",
        e.failed(),
        e.attempted()
    );
    for p in &e.problems {
        let _ = writeln!(out, "  PROBLEM: {p}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a64() {
        let mut d = Digest::new();
        assert_eq!(d.hex(), "cbf29ce484222325");
        write!(d, "a").unwrap();
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
        let mut e = Digest::new();
        e.update(b"foobar");
        assert_eq!(e.hex(), "85944171f73967e8");
    }

    #[test]
    fn a_rep_with_the_wrong_digest_fails_every_event() {
        let m = RepMeter {
            wall_s: 2.0,
            cpu_s: 3.0,
            allocs: 50,
            peak_bytes: 4_000_000,
            ..RepMeter::default()
        };
        let out = Outcome {
            events: 100,
            hit_ratio: 0.9,
            faults: 1,
            digest: "x".into(),
            load_cpu_s: 1.0,
        };
        let good = sample(&m, &out, "x");
        assert_eq!(good.failed, 1);
        assert_eq!(good.events_per_s, 50.0);
        assert_eq!(good.cpu_ns_per_event, 2e7);
        assert_eq!(good.peak_state_mb, 4.0);
        assert_eq!(good.allocs_per_event, 0.5);
        assert_eq!(sample(&m, &out, "y").failed, 100);
    }
}
