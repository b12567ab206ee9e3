//! `dn-hunter` — run the sniffer over a pcap file and report labeled flows.
//!
//! ```text
//! dn-hunter capture.pcap                  # summary + sample of labels
//! dn-hunter capture.pcap --flows          # one line per labeled flow
//! dn-hunter capture.pcap --json > db.jsonl# labeled-flow DB as JSON lines
//! dn-hunter capture.pcap --port 443       # service tags for one port
//! dn-hunter capture.pcap --metrics m.jsonl --metrics-interval 60 --workers 4
//! #   live telemetry: one JSONL snapshot per 60s of *trace* time, plus a
//! #   final Prometheus exposition at m.jsonl.prom
//! dn-hunter capture.pcap --trace-out run.trace.json --workers 4
//! #   flight-recorder export: Chrome trace_event JSON, one lane per
//! #   pipeline thread (open with chrome://tracing or Perfetto)
//! dn-hunter capture.pcap --explain www.example.com
//! dn-hunter capture.pcap --explain 93.184.216.34:443
//! #   provenance: the causal chain of trace events that tagged (or failed
//! #   to tag) the flows behind one FQDN or server endpoint
//! cat capture.pcap | dn-hunter - --stream-analytics w.jsonl \
//!     --window 1h --slide 5m --rotate 10m
//! #   daemon mode: poll a pcap byte stream (FIFO, pipe, socket) and rotate
//! #   window state every 10 minutes of packet time — rotated output is
//! #   byte-identical to a batch --window run over the same bytes
//! dn-hunter flows.dnfr --flowrec --flowrec-skew 30s
//! #   flow-record regime: ingest a NetFlow/IPFIX-style export stream
//! #   (gen-trace --flowrec-out) through a bounded reorder buffer
//! ```

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

use dnhunter::{
    DaemonSniffer, FlowSink, FlowrecConfig, ParallelSniffer, RealTimeSniffer, Rotation,
    SnifferConfig, StreamingAnalytics, StreamingConfig, WindowConfig, WindowedAnalytics,
};
use dnhunter_net::{FlowRecReader, FrameSource, PcapFileSource, PcapStreamSource};
use dnhunter_telemetry as telemetry;

fn usage() -> &'static str {
    "usage: dn-hunter <capture.pcap|-> [--flows] [--json] [--tstat] [--csv] [--port N] \
     [--warmup SECS] [--workers N] [--metrics FILE] [--metrics-interval SECS] [--metrics-full] \
     [--stream-analytics FILE] [--stream-interval SECS] [--window DUR] [--slide DUR] \
     [--rotate DUR] [--flowrec] [--flowrec-skew DUR] \
     [--trace-out FILE] [--explain FQDN|IP:PORT]\n\
     DUR is seconds, or a number suffixed s/m/h (e.g. --window 1h --slide 5m); --window \
     switches --stream-analytics to sliding-window JSONL output; '-' reads a pcap byte \
     stream from stdin (FIFO/pipe daemon mode); --rotate retires window state every DUR \
     of packet time; --flowrec ingests a DNFR flow-record export stream instead of pcap"
}

/// Parse `30`, `30s`, `5m`, or `1h` into microseconds.
fn parse_duration_micros(s: &str) -> Option<u64> {
    let (digits, unit) = match s.strip_suffix(['s', 'm', 'h']) {
        Some(d) => (d, &s[s.len() - 1..]),
        None => (s, "s"),
    };
    let n: u64 = digits.parse().ok()?;
    let per_unit = match unit {
        "s" => 1_000_000,
        "m" => 60 * 1_000_000,
        _ => 3_600 * 1_000_000,
    };
    n.checked_mul(per_unit)
}

/// Which analytics sink `--stream-analytics` installs: the since-start
/// accumulator, or (with `--window`) the sliding-window sink.
#[derive(Clone)]
enum SinkMode {
    Plain(StreamingConfig),
    Windowed(WindowConfig),
}

impl SinkMode {
    fn make_sink(&self) -> Box<dyn FlowSink> {
        match self {
            SinkMode::Plain(cfg) => Box::new(StreamingAnalytics::new(cfg.clone())),
            SinkMode::Windowed(cfg) => Box::new(WindowedAnalytics::new(cfg.clone())),
        }
    }

    /// Fold per-worker partials and render the mode's JSONL output.
    fn fold_render(&self, sinks: Vec<Box<dyn FlowSink>>) -> Option<String> {
        match self {
            SinkMode::Plain(_) => StreamingAnalytics::fold(sinks).map(|s| s.render()),
            SinkMode::Windowed(_) => WindowedAnalytics::fold(sinks).map(|w| w.render()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut flows = false;
    let mut json = false;
    let mut tstat = false;
    let mut csv = false;
    let mut port: Option<u16> = None;
    let mut warmup_secs: u64 = 300;
    let mut workers: usize = 1;
    let mut metrics_path: Option<String> = None;
    let mut metrics_interval_secs: u64 = 60;
    let mut metrics_full = false;
    let mut stream_path: Option<String> = None;
    let mut stream_interval_secs: u64 = 300;
    let mut window_micros: Option<u64> = None;
    let mut slide_micros: Option<u64> = None;
    let mut trace_out: Option<String> = None;
    let mut explain: Option<String> = None;
    let mut rotate_micros: Option<u64> = None;
    let mut flowrec = false;
    let mut flowrec_skew_micros: Option<u64> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--flows" => flows = true,
            "--json" => json = true,
            "--tstat" => tstat = true,
            "--csv" => csv = true,
            "--metrics-full" => metrics_full = true,
            "--workers" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n >= 1 => workers = n,
                    _ => {
                        eprintln!("--workers needs a count >= 1\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--metrics" => {
                i += 1;
                match args.get(i) {
                    Some(p) => metrics_path = Some(p.clone()),
                    None => {
                        eprintln!("--metrics needs a file path\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--metrics-interval" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(s) if s >= 1 => metrics_interval_secs = s,
                    _ => {
                        eprintln!("--metrics-interval needs seconds >= 1\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--stream-analytics" => {
                i += 1;
                match args.get(i) {
                    Some(p) => stream_path = Some(p.clone()),
                    None => {
                        eprintln!("--stream-analytics needs a file path\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--stream-interval" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(s) if s >= 1 => stream_interval_secs = s,
                    _ => {
                        eprintln!("--stream-interval needs seconds >= 1\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--window" => {
                i += 1;
                match args.get(i).and_then(|s| parse_duration_micros(s)) {
                    Some(w) if w >= 1_000_000 => window_micros = Some(w),
                    _ => {
                        eprintln!(
                            "--window needs a duration >= 1s (e.g. 1h, 5m, 30s)\n{}",
                            usage()
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--slide" => {
                i += 1;
                match args.get(i).and_then(|s| parse_duration_micros(s)) {
                    Some(w) if w >= 1_000_000 => slide_micros = Some(w),
                    _ => {
                        eprintln!("--slide needs a duration >= 1s (e.g. 5m, 30s)\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--rotate" => {
                i += 1;
                match args.get(i).and_then(|s| parse_duration_micros(s)) {
                    Some(r) if r >= 1_000_000 => rotate_micros = Some(r),
                    _ => {
                        eprintln!(
                            "--rotate needs a duration >= 1s (e.g. 10m, 1h)\n{}",
                            usage()
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--flowrec" => flowrec = true,
            "--flowrec-skew" => {
                i += 1;
                match args.get(i).and_then(|s| parse_duration_micros(s)) {
                    Some(s) => flowrec_skew_micros = Some(s),
                    _ => {
                        eprintln!(
                            "--flowrec-skew needs a duration (e.g. 30s, 2m)\n{}",
                            usage()
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--trace-out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => trace_out = Some(p.clone()),
                    None => {
                        eprintln!("--trace-out needs a file path\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--explain" => {
                i += 1;
                match args.get(i) {
                    Some(t) => explain = Some(t.clone()),
                    None => {
                        eprintln!("--explain needs an FQDN or IP:PORT\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--port" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(p) => port = Some(p),
                    None => {
                        eprintln!("--port needs a number\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--warmup" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(w) => warmup_secs = w,
                    None => {
                        eprintln!("--warmup needs seconds\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "-" if path.is_none() => path = Some("-".to_string()),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("unknown argument '{other}'\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(path) = path else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if slide_micros.is_some() && window_micros.is_none() {
        eprintln!("--slide needs --window\n{}", usage());
        return ExitCode::FAILURE;
    }
    if window_micros.is_some() && stream_path.is_none() {
        eprintln!(
            "--window needs --stream-analytics FILE to write the windowed JSONL to\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }
    let stdin_input = path == "-";
    if rotate_micros.is_some() && window_micros.is_none() {
        eprintln!(
            "--rotate needs --window: rotation retires sliding-window buckets\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }
    if flowrec && workers > 1 {
        eprintln!(
            "--flowrec is a sequential regime: flow records are pre-aggregated, so the \
             sharded pipeline has nothing to parallelise\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }
    if flowrec && metrics_path.is_some() {
        eprintln!(
            "--flowrec and --metrics do not compose yet: the flow-record loop has no \
             per-packet clock for interval snapshots\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }
    if flowrec_skew_micros.is_some() && !flowrec {
        eprintln!("--flowrec-skew needs --flowrec\n{}", usage());
        return ExitCode::FAILURE;
    }

    let config = SnifferConfig {
        warmup_micros: warmup_secs * 1_000_000,
        ..SnifferConfig::default()
    };

    // Parse the explain target up front, so a typo fails before the replay
    // rather than after it.
    let explain_target = match &explain {
        Some(s) => match dnhunter::parse_explain_target(s) {
            Some(t) => Some(t),
            None => {
                eprintln!("--explain target '{s}' is neither a domain name nor IP:PORT");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // Like telemetry below, the flight recorder must be bound *before* the
    // parallel sniffer spawns its threads: each worker binds its own lane
    // off the set it finds at construction time.
    let trace_set =
        (trace_out.is_some() || explain_target.is_some()).then(telemetry::TraceSet::new);
    let _trace_guard = trace_set
        .as_ref()
        .map(|set| telemetry::trace_bind(set, telemetry::LaneKind::Driver, 0));
    if let Some(set) = &trace_set {
        // Dump-on-fault: a panic anywhere flushes the rings next to the
        // requested export (or the pcap, for --explain-only runs).
        let stem = trace_out.as_deref().unwrap_or(&path);
        telemetry::install_fault_dump(format!("{stem}.trace.jsonl").into(), set);
    }

    // Telemetry must be bound *before* the parallel sniffer spawns its
    // workers — construction is when it decides to give each shard a
    // registry of its own.
    let registry = metrics_path
        .as_ref()
        .map(|_| Arc::new(telemetry::Registry::new()));
    let _telemetry_guard = registry.clone().map(telemetry::bind);
    let mut metrics_out = match &metrics_path {
        Some(p) => match File::create(p) {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("cannot create metrics file {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // Snapshots are scheduled on packet timestamps, so a replayed trace
    // emits the same lines a live capture would have.
    let mut emitter = telemetry::SnapshotEmitter::new(metrics_interval_secs * 1_000_000);

    // Like telemetry, streaming sinks must be installed before the parallel
    // workers spawn: each shard owns a partial sink and the final fold
    // reconstitutes the sequential answer deterministically. `--window`
    // swaps the since-start accumulator for the sliding-window sink.
    let stream_cfg = stream_path.as_ref().map(|_| {
        let stream = StreamingConfig {
            snapshot_interval_micros: stream_interval_secs * 1_000_000,
            ..StreamingConfig::default()
        };
        match window_micros {
            Some(w) => {
                let mut wc = WindowConfig::new(w, slide_micros.unwrap_or(300 * 1_000_000));
                wc.stream = stream;
                SinkMode::Windowed(wc)
            }
            None => SinkMode::Plain(stream),
        }
    });
    // Rotation state outlives the replay: the emitter's `finish` folds the
    // post-run sinks in, replacing the batch fold below.
    let mut rotation = rotate_micros.map(|r| {
        let Some(SinkMode::Windowed(wc)) = &stream_cfg else {
            unreachable!("--rotate validated to require --window")
        };
        Rotation::new(r, wc.clone())
    });
    let mut last_ts = 0u64;
    let (report, sinks) = if flowrec {
        // Flow-record regime: a DNFR export stream through the bounded
        // reorder buffer, sequential by construction.
        let mut sniffer = RealTimeSniffer::new(config);
        if let Some(mode) = &stream_cfg {
            sniffer.set_sink(mode.make_sink());
        }
        let input: Box<dyn Read> = if stdin_input {
            Box::new(std::io::stdin().lock())
        } else {
            match File::open(&path) {
                Ok(f) => Box::new(BufReader::new(f)),
                Err(e) => {
                    eprintln!("cannot open {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        let mut reader = match FlowRecReader::new(input) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("not a readable flow-record stream: {e}");
                return ExitCode::FAILURE;
            }
        };
        let fcfg = FlowrecConfig {
            skew_micros: flowrec_skew_micros.unwrap_or(FlowrecConfig::default().skew_micros),
            ..FlowrecConfig::default()
        };
        match dnhunter::run_flowrec_daemon(&mut reader, &mut sniffer, &fcfg, rotation.as_mut()) {
            Ok(stats) => eprintln!(
                "flow-record ingest: {} dns, {} flow, {} skew-overflow, {} late",
                stats.dns_records, stats.flow_records, stats.skew_overflow, stats.late_records
            ),
            Err(e) => {
                eprintln!("flow-record stream error: {e}");
                return ExitCode::FAILURE;
            }
        }
        sniffer.finish_with_sinks()
    } else {
        // Every pcap input — file or byte stream, with or without
        // `--rotate` — polls a frame source through the one daemon event
        // loop. Output is a function of the record stream alone, so file
        // and FIFO replays of the same bytes render byte-identically at
        // any worker count.
        let mut sniffer = if workers > 1 {
            DaemonSniffer::Par(Box::new(match &stream_cfg {
                Some(mode) => {
                    ParallelSniffer::with_sinks(config, workers, &mut |_| mode.make_sink())
                }
                None => ParallelSniffer::new(config, workers),
            }))
        } else {
            let mut s = RealTimeSniffer::new(config);
            if let Some(mode) = &stream_cfg {
                s.set_sink(mode.make_sink());
            }
            DaemonSniffer::Seq(Box::new(s))
        };
        let mut source: Box<dyn FrameSource> = if stdin_input {
            Box::new(PcapStreamSource::new(std::io::stdin().lock()))
        } else {
            let file = match File::open(&path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot open {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match PcapFileSource::new(BufReader::new(file)) {
                Ok(s) => Box::new(s),
                Err(e) => {
                    eprintln!("not a readable pcap: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        let live_snapshot = sniffer.live_snapshot();
        let mut metrics_err: Option<std::io::Error> = None;
        let run =
            dnhunter::run_frame_daemon(source.as_mut(), &mut sniffer, rotation.as_mut(), |ts| {
                last_ts = last_ts.max(ts);
                if let (Some(out), Some(reg)) = (metrics_out.as_mut(), registry.as_deref()) {
                    if emitter.poll(ts) && metrics_err.is_none() {
                        let seq = emitter.emitted().saturating_sub(1);
                        let line = telemetry::jsonl(&live_snapshot(reg), seq, ts, metrics_full);
                        if let Err(e) = out.write_all(line.as_bytes()) {
                            metrics_err = Some(e);
                        }
                    }
                }
            });
        if let Err(e) = run {
            eprintln!("pcap error: {e}");
            return ExitCode::FAILURE;
        }
        if let Some(e) = metrics_err {
            eprintln!("metrics write failed: {e}");
            return ExitCode::FAILURE;
        }
        sniffer.finish_with_sinks()
    };
    // Fold the flight recorder's drop count into the registry before the
    // final snapshot: a wrapped ring means the export below is partial.
    if let Some(set) = &trace_set {
        let dropped = dnhunter::note_trace_drops(set);
        if dropped > 0 {
            eprintln!("trace rings dropped {dropped} events; the export is partial");
        }
    }

    // Fold the per-worker partial analytics into one deterministic summary
    // (byte-identical for any --workers count) and write it out. Under
    // --rotate the incremental emitter has already rendered every retired
    // window; `finish` folds in the post-rotation residue the sinks hold.
    if let (Some(out_path), Some(mode)) = (&stream_path, &stream_cfg) {
        let rendered = match rotation.take() {
            Some(rot) => {
                let rotations = rot.rotations;
                Some(rot.emitter.finish(rotations, sinks))
            }
            None => mode.fold_render(sinks),
        };
        match rendered {
            Some(rendered) => {
                if let Err(e) = std::fs::write(out_path, rendered) {
                    eprintln!("cannot write streaming analytics to {out_path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            None => {
                eprintln!("streaming analytics sinks were lost; no output written");
                return ExitCode::FAILURE;
            }
        }
    }

    // Final snapshot: `finish` merged every worker registry into ours, so
    // the stable-class values here match a sequential run byte-for-byte.
    if let (Some(out), Some(reg), Some(path)) = (
        metrics_out.as_mut(),
        registry.as_deref(),
        metrics_path.as_deref(),
    ) {
        let snap = reg.snapshot();
        let final_write = out
            .write_all(telemetry::jsonl(&snap, emitter.emitted(), last_ts, metrics_full).as_bytes())
            .and_then(|()| {
                std::fs::write(
                    format!("{path}.prom"),
                    telemetry::prometheus(&snap, metrics_full),
                )
            });
        if let Err(e) = final_write {
            eprintln!("metrics write failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Flight-recorder export: one Chrome trace_event JSON with a lane per
    // pipeline thread.
    if let (Some(set), Some(out_path)) = (&trace_set, &trace_out) {
        if let Err(e) = dnhunter::write_chrome_trace(set, std::path::Path::new(out_path)) {
            eprintln!("cannot write trace to {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Provenance mode: print the causal chain and stop — the summary would
    // only bury it.
    if let (Some(set), Some(target)) = (&trace_set, &explain_target) {
        print!("{}", telemetry::explain(set, target));
        return ExitCode::SUCCESS;
    }

    if json {
        print!("{}", report.database.to_json_lines());
        return ExitCode::SUCCESS;
    }
    if tstat || csv {
        let result = if tstat {
            dnhunter::write_tstat_log(&report.database, std::io::stdout().lock())
        } else {
            dnhunter::write_csv(&report.database, std::io::stdout().lock())
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            // A closed pipe (`| head`) is a normal way to stop reading.
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("write failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(port) = port {
        let suffixes = dnhunter_dns::suffix::SuffixSet::builtin();
        // Inline Algorithm 4, so the binary has no analytics dependency.
        let mut per_client: HashMap<(String, std::net::IpAddr), u64> = HashMap::new();
        for f in report.database.by_port(port) {
            if let Some(fqdn) = &f.fqdn {
                for token in dnhunter_dns::tokenize_fqdn(fqdn, &suffixes) {
                    *per_client.entry((token, f.key.client)).or_default() += 1;
                }
            }
        }
        let mut scores: HashMap<String, f64> = HashMap::new();
        for ((token, _), n) in per_client {
            *scores.entry(token).or_default() += ((n + 1) as f64).ln();
        }
        let mut ranked: Vec<(String, f64)> = scores.into_iter().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        println!("service tags for port {port}:");
        for (token, score) in ranked.into_iter().take(10) {
            println!("  ({score:.0}) {token}");
        }
        return ExitCode::SUCCESS;
    }

    if flows {
        for f in report.database.flows() {
            println!(
                "{}\t{}\t{}:{}\t{}\t{}B",
                f.fqdn
                    .as_ref()
                    .map(|x| x.to_string())
                    .unwrap_or_else(|| "-".into()),
                f.key.client,
                f.key.server,
                f.key.server_port,
                f.protocol.label(),
                f.bytes(),
            );
        }
        return ExitCode::SUCCESS;
    }

    // Default: summary.
    println!("frames          : {}", report.sniffer_stats.frames);
    println!("parse errors    : {}", report.sniffer_stats.parse_errors);
    println!("dns responses   : {}", report.sniffer_stats.dns_responses);
    println!("flows           : {}", report.database.len());
    println!("distinct FQDNs  : {}", report.database.distinct_fqdns());
    println!("distinct servers: {}", report.database.distinct_servers());
    println!(
        "hit ratio       : {:.1}% (post {warmup_secs}s warm-up)",
        report.hit_ratio() * 100.0
    );
    // Per-protocol hit ratios, the paper's Tab. 2 framing (P2P never
    // resolves names, so the overall number understates coverage).
    let mut per_proto: HashMap<&str, (u64, u64)> = HashMap::new();
    for f in report.database.flows() {
        if f.in_warmup {
            continue;
        }
        let e = per_proto.entry(f.protocol.label()).or_default();
        e.0 += 1;
        e.1 += u64::from(f.is_tagged());
    }
    let mut keys: Vec<&&str> = per_proto.keys().collect();
    keys.sort();
    for k in keys {
        let (n, h) = per_proto[*k];
        println!("  {k:<6}: {:>5.1}% of {n}", 100.0 * h as f64 / n as f64);
    }
    println!(
        "useless DNS     : {:.1}%",
        report.delays.useless_fraction() * 100.0
    );
    println!("\ntop labels by flows:");
    let mut counts: Vec<(String, usize)> = report
        .database
        .fqdn_flow_counts()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    // Tie-break by name: `by_fqdn` iterates in randomized hash order, so
    // without this the top-15 cutoff varies run to run on tied counts.
    counts.sort_by(|(fa, na), (fb, nb)| nb.cmp(na).then_with(|| fa.cmp(fb)));
    for (fqdn, n) in counts.into_iter().take(15) {
        println!("  {n:>6}  {fqdn}");
    }
    ExitCode::SUCCESS
}
