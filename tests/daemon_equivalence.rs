//! Daemon-mode equivalence: replaying the same pcap bytes through the
//! poll/backpressure event loop must render byte-identical rotated output
//! whether the source is a file or a dribbling byte stream (the FIFO/socket
//! regime: short reads, mid-record stalls, `WouldBlock`), at 1, 2, and 8
//! workers, on every simnet profile. Rotation cadence, horizons, and the
//! emitted window lines are functions of the record stream alone — never of
//! source pacing or shard count. The flow-record regime runs through the
//! same loop and is held to the same bar, against an event-order oracle.
//! See DESIGN.md §13.

use std::io::{Cursor, Read};
use std::sync::Arc;

use dnhunter::{
    DaemonSniffer, FlowSink, FlowrecConfig, FlowrecStats, ParallelSniffer, RealTimeSniffer,
    Rotation, SnifferConfig, SnifferReport, WindowConfig, WindowedAnalytics,
};
use dnhunter_net::flowrec::encode_stream;
use dnhunter_net::{
    ExportRecord, FlowRecReader, FlowRecSource, PcapFileSource, PcapRecord, PcapStreamSource,
    PcapWriter,
};
use dnhunter_simnet::{flowexport, profiles, TraceGenerator};
use dnhunter_telemetry as telemetry;
use telemetry::Metric;

const WINDOW_MICROS: u64 = 30 * 60 * 1_000_000;
const SLIDE_MICROS: u64 = 10 * 60 * 1_000_000;
const ROTATE_MICROS: u64 = 10 * 60 * 1_000_000;

/// Nightly (`FAULT_MATRIX_FULL=1`) multiplies the trace scale by 4 and
/// widens the worker/source grid; the PR gate keeps the runs quick.
fn full() -> bool {
    std::env::var_os("FAULT_MATRIX_FULL").is_some()
}

fn scaled(base: f64) -> f64 {
    if full() {
        base * 4.0
    } else {
        base
    }
}

fn pcap_bytes(records: &[PcapRecord]) -> Vec<u8> {
    let mut writer = PcapWriter::new(Vec::new()).expect("header writes");
    for rec in records {
        writer.write_record(rec).expect("record writes");
    }
    writer.into_inner().expect("flushes")
}

/// A hostile byte source: short reads sized to split pcap records across
/// poll boundaries, with periodic `WouldBlock` stalls — what a FIFO or
/// non-blocking socket hands the daemon.
struct Dribble {
    data: Vec<u8>,
    pos: usize,
    tick: u64,
}

impl Read for Dribble {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.tick += 1;
        if self.tick.is_multiple_of(13) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        // 997 is coprime to every pcap record size in play: the cut point
        // walks through header/payload boundaries as the stream advances.
        let n = buf.len().min(997).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn window_cfg() -> WindowConfig {
    WindowConfig::new(WINDOW_MICROS, SLIDE_MICROS)
}

fn make_sniffer(workers: usize) -> DaemonSniffer {
    let config = SnifferConfig::default();
    if workers > 1 {
        DaemonSniffer::Par(Box::new(ParallelSniffer::with_sinks(
            config,
            workers,
            &mut |_| Box::new(WindowedAnalytics::new(window_cfg())) as Box<dyn FlowSink>,
        )))
    } else {
        let mut s = RealTimeSniffer::new(config);
        s.set_sink(Box::new(WindowedAnalytics::new(window_cfg())));
        DaemonSniffer::Seq(Box::new(s))
    }
}

/// Run the daemon loop over `bytes` and return the rotated JSONL plus the
/// telemetry snapshot. `stream` selects the FIFO-style dribbling source.
fn run_rotated(bytes: &[u8], workers: usize, stream: bool) -> (String, telemetry::Snapshot) {
    let registry = Arc::new(telemetry::Registry::new());
    let _guard = telemetry::bind(registry.clone());
    let mut sniffer = make_sniffer(workers);
    let mut rotation = Rotation::new(ROTATE_MICROS, window_cfg());
    let records = if stream {
        let mut source = PcapStreamSource::new(Dribble {
            data: bytes.to_vec(),
            pos: 0,
            tick: 0,
        });
        dnhunter::run_frame_daemon(&mut source, &mut sniffer, Some(&mut rotation), |_| {})
    } else {
        let mut source = PcapFileSource::new(Cursor::new(bytes)).expect("valid pcap");
        dnhunter::run_frame_daemon(&mut source, &mut sniffer, Some(&mut rotation), |_| {})
    }
    .expect("daemon loop completes");
    assert!(records > 0, "daemon ingested nothing");
    let (_, sinks) = sniffer.finish_with_sinks();
    let rotations = rotation.rotations;
    assert!(rotations > 0, "no rotation fired over a multi-hour trace");
    let out = rotation.emitter.finish(rotations, sinks);
    (out, registry.snapshot())
}

#[test]
fn daemon_stream_replay_matches_batch_on_every_profile() {
    for profile in profiles::all_paper_profiles() {
        let name = profile.name.clone();
        let trace = TraceGenerator::new(profile.scaled(scaled(0.006)), false).generate();
        let bytes = pcap_bytes(&trace.records);

        let (reference, refsnap) = run_rotated(&bytes, 1, false);
        assert!(
            reference.lines().count() > 2,
            "{name}: rotated output has no window lines"
        );
        assert!(
            reference.ends_with("\"dropped_bucket_events\":0}\n"),
            "{name}: rotation dropped bucket events:\n{}",
            reference.lines().last().unwrap_or("")
        );
        assert!(refsnap.get(Metric::DaemonRotations) > 0);
        assert!(refsnap.get(Metric::WindowBucketsRetired) > 0);
        assert_eq!(refsnap.get(Metric::WindowRetractUnderflow), 0, "{name}");
        let reference_prom = telemetry::prometheus(&refsnap, false);

        // (1, file) is the reference itself; every other grid cell must
        // reproduce it byte for byte.
        let grid: &[(usize, bool)] = if full() {
            &[(1, true), (2, false), (2, true), (8, false), (8, true)]
        } else {
            &[(1, true), (2, true), (8, false)]
        };
        for &(workers, stream) in grid {
            {
                let kind = if stream { "stream" } else { "file" };
                let (out, snap) = run_rotated(&bytes, workers, stream);
                assert_eq!(
                    out, reference,
                    "{name}: {workers}-worker {kind} rotated output diverged"
                );
                assert_eq!(
                    telemetry::prometheus(&snap, false),
                    reference_prom,
                    "{name}: {workers}-worker {kind} stable metrics diverged"
                );
            }
        }
    }
}

#[test]
fn rotation_cadence_does_not_change_which_windows_exist() {
    // Different rotation cadences retire buckets at different instants, but
    // the set of emitted windows and their line content must be identical:
    // the emitter replicates the batch sweep regardless of when state
    // rotates out of the live sinks.
    let trace = TraceGenerator::new(
        profiles::profile_by_name("EU1-FTTH")
            .unwrap()
            .scaled(scaled(0.006)),
        false,
    )
    .generate();
    let bytes = pcap_bytes(&trace.records);

    let strip_header = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.contains("\"window_start\""))
            .map(str::to_owned)
            .collect()
    };

    let run_at = |rotate_micros: u64| -> Vec<String> {
        let mut sniffer = make_sniffer(1);
        let mut rotation = Rotation::new(rotate_micros, window_cfg());
        let mut source = PcapFileSource::new(Cursor::new(&bytes)).expect("valid pcap");
        dnhunter::run_frame_daemon(&mut source, &mut sniffer, Some(&mut rotation), |_| {})
            .expect("daemon loop completes");
        let (_, sinks) = sniffer.finish_with_sinks();
        let rotations = rotation.rotations;
        strip_header(&rotation.emitter.finish(rotations, sinks))
    };

    // Cadences from one slide up to effectively-never (one giant interval):
    // the *set* of emitted window positions must not depend on the
    // retirement schedule. (Window contents can differ across cadences —
    // rotation deliberately evicts cross-window DNS correlation state — so
    // this pins the sweep's shape, not the summaries.)
    let reference = run_at(SLIDE_MICROS);
    assert!(!reference.is_empty());
    for cadence in [ROTATE_MICROS * 3, u64::MAX / 2] {
        let lines = run_at(cadence);
        assert_eq!(
            lines.len(),
            reference.len(),
            "cadence {cadence}: window count diverged"
        );
    }
}

/// One run of a DNFR stream through the daemon loop at `workers`: what the
/// source's reorder buffer counted, the report, and (under `rotation`) the
/// rotated JSONL.
fn run_flowrec(
    bytes: &[u8],
    workers: usize,
    mut rotation: Option<Rotation>,
) -> (FlowrecStats, SnifferReport, Option<String>) {
    let mut sniffer = make_sniffer(workers);
    let reader = FlowRecReader::new(Cursor::new(bytes)).expect("valid header");
    let mut source = FlowRecSource::new(reader, FlowrecConfig::default());
    dnhunter::run_frame_daemon(&mut source, &mut sniffer, rotation.as_mut(), |_| {})
        .expect("flow-record stream ingests");
    let (report, sinks) = sniffer.finish_with_sinks();
    let rotated = rotation.map(|rot| {
        assert!(
            rot.rotations > 0,
            "no rotation fired over a multi-hour stream"
        );
        rot.emitter.finish(rot.rotations, sinks)
    });
    (source.stats(), report, rotated)
}

#[test]
fn flowrec_replay_matches_the_event_order_oracle_at_any_worker_count() {
    let trace = TraceGenerator::new(profiles::eu1_ftth().scaled(scaled(0.006)), false).generate();
    let stream = flowexport::export_stream(&trace.records, 11, 53);
    assert!(stream.len() > 200, "export stream too small");
    let bytes = encode_stream(&stream);

    // With nothing late and nothing forced out, the reorder buffer's release
    // order is the stable sort by event time: the oracle feeds exactly that
    // order to the sequential sniffer, no buffer involved.
    let mut sorted = stream.clone();
    sorted.sort_by_key(ExportRecord::event_ts);
    let mut oracle = RealTimeSniffer::new(SnifferConfig::default());
    for rec in &sorted {
        oracle.ingest_export(rec);
    }
    let oracle = oracle.finish().database;
    assert!(oracle.len() > 50, "oracle tagged too few flows");

    let mut reference_rotated: Option<String> = None;
    for workers in [1usize, 2, 8] {
        let (stats, report, _) = run_flowrec(&bytes, workers, None);
        assert_eq!(
            (stats.late_records, stats.skew_overflow),
            (0, 0),
            "{workers} workers: the clean stream left event order"
        );
        assert_eq!(stats.dns_records + stats.flow_records, stream.len() as u64);
        assert!(
            report.database == oracle,
            "{workers} workers: report diverged from the event-order oracle"
        );

        let rotation = Rotation::new(ROTATE_MICROS, window_cfg());
        let (_, _, rotated) = run_flowrec(&bytes, workers, Some(rotation));
        let rotated = rotated.expect("rotated output");
        assert!(rotated.lines().count() > 2, "no rotated window lines");
        assert!(rotated.ends_with("\"dropped_bucket_events\":0}\n"));
        match &reference_rotated {
            None => reference_rotated = Some(rotated),
            Some(reference) => assert!(
                rotated == *reference,
                "{workers} workers: rotated flow-record output diverged"
            ),
        }
    }
}
