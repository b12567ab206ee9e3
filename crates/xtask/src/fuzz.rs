//! `cargo xtask fuzz` — a seeded, structure-aware corpus fuzzer for the
//! ingest parsers, self-contained so it runs in the offline build
//! environment (no cargo-fuzz, no libFuzzer).
//!
//! Four targets, one per parsing layer the fault model attacks:
//!
//! * `dns` — `dnhunter_dns::codec::decode` and `decode_tcp_stream`, plus
//!   the name-model differential (`dnhunter_dns::check`) on whatever decodes
//! * `net` — `dnhunter_net::Packet::parse`
//! * `dpi` — the flow-layer extractors (`http::parse_request`,
//!   `tls::inspect`, `dpi::classify`)
//! * `flowrec` — the DNFR flow-record stream decoder
//!   (`dnhunter_net::flowrec::decode_stream`), the daemon's NetFlow/IPFIX
//!   ingest surface
//!
//! Inputs start from a committed corpus (`tests/corpus/<target>/*.hex`)
//! plus programmatic seeds built with the crates' own builders, then get
//! mutated structure-aware-ly (length-field lies, compression pointers,
//! truncations, splices). Every case runs under `catch_unwind`: the
//! parsers' contract is *errors, never panics* (lint L1 enforces the same
//! statically; the fuzzer enforces it dynamically).
//!
//! On a panic the input is shrunk greedily to a minimal reproducer, hex
//! dumped into `tests/corpus/regressions/`, and the run exits non-zero.
//! Committed regressions are replayed before every run, so a fixed panic
//! stays fixed.

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

use dnhunter_dns::suffix::SuffixSet;

/// Fixed default seed: `cargo xtask fuzz` is reproducible run-to-run
/// unless `--seed` says otherwise.
const DEFAULT_SEED: u64 = 0xD0_5EED;
const DEFAULT_CASES: u64 = 100_000;
const SMOKE_CASES: u64 = 10_000;

/// splitmix64: tiny, seedable, and std-only.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Dns,
    Net,
    Dpi,
    Flowrec,
}

impl Target {
    const ALL: [Target; 4] = [Target::Dns, Target::Net, Target::Dpi, Target::Flowrec];

    fn name(self) -> &'static str {
        match self {
            Target::Dns => "dns",
            Target::Net => "net",
            Target::Dpi => "dpi",
            Target::Flowrec => "flowrec",
        }
    }

    fn from_name(name: &str) -> Option<Target> {
        Target::ALL.into_iter().find(|t| t.name() == name)
    }

    /// Run the target's parsers over `input`. Return values are
    /// deliberately discarded — the only failure mode under test is a
    /// panic, which `catch_unwind` at the call site turns into a finding.
    fn exercise(self, input: &[u8]) {
        match self {
            Target::Dns => {
                // Beyond not panicking: every name that does decode must
                // agree with the label-vector reference model.
                static SUFFIXES: OnceLock<SuffixSet> = OnceLock::new();
                let suffixes = SUFFIXES.get_or_init(SuffixSet::builtin);
                let udp = dnhunter_dns::codec::decode(input).ok();
                let tcp = dnhunter_dns::codec::decode_tcp_stream(input);
                for msg in udp.iter().chain(&tcp) {
                    dnhunter_dns::check::assert_message_names_agree(msg, suffixes);
                }
            }
            Target::Net => {
                let _ = dnhunter_net::Packet::parse(input);
                let _ = dnhunter_net::PacketView::parse(input);
            }
            Target::Dpi => {
                let _ = dnhunter_flow::http::looks_like_http_request(input);
                let _ = dnhunter_flow::http::parse_request(input);
                let _ = dnhunter_flow::tls::looks_like_tls(input);
                let _ = dnhunter_flow::tls::inspect(input);
                let mid = input.len() / 2;
                let (c2s, s2c) = input.split_at(mid);
                let _ = dnhunter_flow::dpi::classify(c2s, s2c, 443);
            }
            Target::Flowrec => {
                let _ = dnhunter_net::flowrec::decode_stream(input);
            }
        }
    }

    /// Builder-made seeds, so the corpus always contains structurally
    /// valid inputs for the mutators to break in interesting ways.
    fn builtin_seeds(self) -> Vec<Vec<u8>> {
        match self {
            Target::Dns => Vec::new(), // committed hex corpus covers DNS
            Target::Net => {
                use dnhunter_net::{build_tcp_v4, build_udp_v4, MacAddr, TcpFlags};
                let c = std::net::Ipv4Addr::new(10, 0, 0, 1);
                let s = std::net::Ipv4Addr::new(93, 184, 216, 34);
                vec![
                    build_udp_v4(
                        MacAddr::from_id(1),
                        MacAddr::from_id(2),
                        c,
                        s,
                        40000,
                        53,
                        b"q",
                    )
                    .expect("seed frame builds"),
                    build_tcp_v4(
                        MacAddr::from_id(1),
                        MacAddr::from_id(2),
                        c,
                        s,
                        50000,
                        443,
                        7,
                        0,
                        TcpFlags::SYN,
                        &[],
                    )
                    .expect("seed frame builds"),
                ]
            }
            Target::Dpi => {
                use dnhunter_flow::{http, tls};
                vec![
                    http::build_request("GET", "/index.html", "www.example.com", "fuzz/1.0"),
                    http::build_response(200, 128),
                    tls::build_client_hello(Some("www.example.com"), 7),
                    tls::build_server_flight(Some("*.example.com"), 9),
                ]
            }
            Target::Flowrec => {
                use dnhunter_net::{DnsExportRecord, ExportRecord, FlowExportRecord};
                let c = std::net::IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, 1));
                let s = std::net::IpAddr::V4(std::net::Ipv4Addr::new(93, 184, 216, 34));
                let dns = ExportRecord::Dns(DnsExportRecord {
                    ts_micros: 1_000_000,
                    client: c,
                    message: vec![0x66, 0x61, 0x81, 0x80, 0, 1, 0, 0, 0, 0, 0, 0],
                });
                let flow = ExportRecord::Flow(FlowExportRecord {
                    first_ts: 1_000_500,
                    last_ts: 9_000_000,
                    client: c,
                    client_port: 40000,
                    server: s,
                    server_port: 443,
                    ip_proto: 6,
                    packets_c2s: 12,
                    packets_s2c: 18,
                    bytes_c2s: 900,
                    bytes_s2c: 21_000,
                });
                vec![
                    dnhunter_net::flowrec::encode_stream(std::slice::from_ref(&dns)),
                    dnhunter_net::flowrec::encode_stream(&[dns, flow]),
                ]
            }
        }
    }
}

pub fn run(args: &[String]) -> ExitCode {
    let mut cases = DEFAULT_CASES;
    let mut seed = DEFAULT_SEED;
    let mut max_seconds: u64 = 300;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => {
                cases = SMOKE_CASES;
                max_seconds = 120;
            }
            "--cases" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cases = v,
                None => return bad_usage("--cases needs a number"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return bad_usage("--seed needs a number"),
            },
            "--max-seconds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_seconds = v,
                None => return bad_usage("--max-seconds needs a number"),
            },
            other => return bad_usage(&format!("unknown fuzz option `{other}`")),
        }
    }

    let root = xtask::workspace_root();
    let corpus_dir = root.join("tests").join("corpus");
    let regressions_dir = corpus_dir.join("regressions");

    // 1. Replay committed regressions: a fixed panic stays fixed. All
    //    files are replayed (panic hooks silenced) and every failure is
    //    reported together, so one reintroduced bug doesn't hide another
    //    and the output names exactly which corpus files to look at.
    let regressions = load_hex_dir(&regressions_dir);
    let failures = with_quiet_panics(|| {
        let mut failures: Vec<(&PathBuf, Target, usize, String)> = Vec::new();
        for (path, bytes) in &regressions {
            for t in target_for_file(path) {
                if let Err(msg) = run_case(t, bytes) {
                    failures.push((path, t, bytes.len(), msg));
                }
            }
        }
        failures
    });
    if !failures.is_empty() {
        eprintln!(
            "xtask fuzz: {} committed regression(s) panic again — a previously \
             fixed parser bug has been reintroduced:\n",
            failures.len()
        );
        eprintln!(
            "  {:<44} {:<6} {:>7}  panic",
            "corpus file", "target", "bytes"
        );
        for (path, target, len, msg) in &failures {
            let rel = path.strip_prefix(&root).unwrap_or(path.as_path()).display();
            eprintln!(
                "  {:<44} {:<6} {:>7}  {}",
                rel.to_string(),
                target.name(),
                len,
                msg.lines().next().unwrap_or("")
            );
        }
        eprintln!(
            "\n  reproduce one with its hex bytes (see the file) against the named \
             target's parsers; the fix must make the replay clean again before \
             `cargo xtask fuzz` passes"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "xtask fuzz: replayed {} committed regression(s), all clean",
        regressions.len()
    );

    // 2. Assemble the per-target corpora: committed hex + builder seeds.
    let mut corpora: Vec<(Target, Vec<Vec<u8>>)> = Vec::new();
    for t in Target::ALL {
        let mut seeds: Vec<Vec<u8>> = load_hex_dir(&corpus_dir.join(t.name()))
            .into_iter()
            .map(|(_, b)| b)
            .collect();
        seeds.extend(t.builtin_seeds());
        if seeds.is_empty() {
            eprintln!("xtask fuzz: no corpus for target `{}`", t.name());
            return ExitCode::FAILURE;
        }
        corpora.push((t, seeds));
    }

    // 3. The fuzz loop proper.
    let mut rng = Rng(seed);
    let started = Instant::now();
    let mut executed: u64 = 0;
    let mut per_target = [0u64; Target::ALL.len()];
    let result = with_quiet_panics(|| -> Option<(Target, Vec<u8>, String)> {
        while executed < cases {
            if started.elapsed().as_secs() >= max_seconds {
                break;
            }
            let idx = (executed % Target::ALL.len() as u64) as usize;
            let (target, seeds) = &corpora[idx];
            let input = mutate(seeds, &mut rng);
            executed += 1;
            per_target[idx] += 1;
            if let Err(msg) = run_case(*target, &input) {
                return Some((*target, input, msg));
            }
        }
        None
    });

    match result {
        None => {
            println!(
                "xtask fuzz: {executed} case(s) in {:.1}s, no panics \
                 (dns {}, net {}, dpi {}, flowrec {}; seed {seed})",
                started.elapsed().as_secs_f64(),
                per_target[0],
                per_target[1],
                per_target[2],
                per_target[3],
            );
            ExitCode::SUCCESS
        }
        Some((target, input, msg)) => {
            let minimal = with_quiet_panics(|| shrink(target, input));
            let path = write_regression(&regressions_dir, target, &minimal);
            eprintln!(
                "xtask fuzz: `{}` panicked after {executed} case(s): {msg}\n\
                 minimal reproducer ({} bytes) written to {}",
                target.name(),
                minimal.len(),
                path.display()
            );
            ExitCode::FAILURE
        }
    }
}

fn bad_usage(msg: &str) -> ExitCode {
    eprintln!("xtask fuzz: {msg}");
    ExitCode::from(2)
}

/// Run one input through one target, turning a panic into `Err(message)`.
fn run_case(target: Target, input: &[u8]) -> Result<(), String> {
    panic::catch_unwind(AssertUnwindSafe(|| target.exercise(input))).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic payload not a string".into())
    })
}

/// Silence the default panic-to-stderr hook for the duration of `f`
/// (thousands of expected-catchable panic printouts would bury a finding).
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let out = f();
    panic::set_hook(hook);
    out
}

/// One mutated input: pick a seed, stack 1–4 structure-aware mutations.
fn mutate(seeds: &[Vec<u8>], rng: &mut Rng) -> Vec<u8> {
    let mut buf = seeds[rng.below(seeds.len())].clone();
    for _ in 0..1 + rng.below(4) {
        match rng.below(8) {
            // Bit flip.
            0 if !buf.is_empty() => {
                let i = rng.below(buf.len());
                buf[i] ^= 1 << rng.below(8);
            }
            // Truncate: the snaplen fault, and every length field's enemy.
            1 if buf.len() > 1 => {
                let keep = 1 + rng.below(buf.len() - 1);
                buf.truncate(keep);
            }
            // Extend with junk.
            2 => {
                for _ in 0..1 + rng.below(32) {
                    buf.push(rng.next() as u8);
                }
            }
            // Lie in a 16-bit field (counts, lengths, rdlength...).
            3 if buf.len() >= 2 => {
                let i = rng.below(buf.len() - 1);
                let lie: u16 = match rng.below(5) {
                    0 => 0,
                    1 => 0xffff,
                    2 => buf.len() as u16,
                    3 => (buf.len() as u16).wrapping_sub(1),
                    _ => 0x8000,
                };
                buf[i] = (lie >> 8) as u8;
                buf[i + 1] = lie as u8;
            }
            // Plant a DNS compression pointer (possibly a loop).
            4 if buf.len() >= 2 => {
                let i = rng.below(buf.len() - 1);
                let at = rng.below(buf.len());
                buf[i] = 0xc0 | ((at >> 8) as u8 & 0x3f);
                buf[i + 1] = at as u8;
            }
            // Zero a range.
            5 if !buf.is_empty() => {
                let start = rng.below(buf.len());
                let end = (start + 1 + rng.below(16)).min(buf.len());
                for b in &mut buf[start..end] {
                    *b = 0;
                }
            }
            // Splice with another corpus entry.
            6 => {
                let other = &seeds[rng.below(seeds.len())];
                if !other.is_empty() && !buf.is_empty() {
                    let cut = rng.below(buf.len());
                    let from = rng.below(other.len());
                    buf.truncate(cut);
                    buf.extend_from_slice(&other[from..]);
                }
            }
            // Duplicate a slice in place (repeated labels / records).
            _ if buf.len() >= 4 => {
                let start = rng.below(buf.len() / 2);
                let len = 1 + rng.below((buf.len() - start).min(16));
                let slice = buf[start..start + len].to_vec();
                let at = rng.below(buf.len());
                for (k, b) in slice.into_iter().enumerate() {
                    buf.insert(at + k, b);
                }
            }
            _ => {}
        }
    }
    buf
}

/// Greedy shrink: keep any cut that still panics — halves off either end,
/// then window deletions, then single bytes. Bounded, deterministic.
fn shrink(target: Target, input: Vec<u8>) -> Vec<u8> {
    let still_panics = |bytes: &[u8]| run_case(target, bytes).is_err();
    let mut cur = input;
    let mut budget = 4_000usize;
    loop {
        let before = cur.len();
        // Chop halves and quarters off both ends.
        for denom in [2usize, 4] {
            let cut = cur.len() / denom;
            if cut == 0 {
                continue;
            }
            while budget > 0 && cur.len() > cut && still_panics(&cur[cut..]) {
                cur.drain(..cut);
                budget -= 1;
            }
            while budget > 0 && cur.len() > cut && still_panics(&cur[..cur.len() - cut]) {
                cur.truncate(cur.len() - cut);
                budget -= 1;
            }
        }
        // Window deletions, then single-byte deletions.
        for window in [8usize, 1] {
            let mut i = 0;
            while i < cur.len() && budget > 0 {
                let end = (i + window).min(cur.len());
                let mut trial = cur.clone();
                trial.drain(i..end);
                budget -= 1;
                if !trial.is_empty() && still_panics(&trial) {
                    cur = trial;
                } else {
                    i = end;
                }
            }
        }
        if cur.len() == before || budget == 0 {
            return cur;
        }
    }
}

/// Persist a minimal reproducer as hex under `regressions/`, named after
/// its target and content hash so replays know where to route it.
fn write_regression(dir: &Path, target: Target, bytes: &[u8]) -> PathBuf {
    let _ = std::fs::create_dir_all(dir);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let path = dir.join(format!("{}-{h:016x}.hex", target.name()));
    let mut text = String::from(
        "# Minimal reproducer found by `cargo xtask fuzz` — replayed before\n\
         # every fuzz run; delete only with the fix that makes it obsolete.\n",
    );
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 {
            text.push(if i % 16 == 0 { '\n' } else { ' ' });
        }
        text.push_str(&format!("{b:02x}"));
    }
    text.push('\n');
    let _ = std::fs::write(&path, text);
    path
}

/// Map a regression file to the target(s) it replays under, from its
/// `<target>-` name prefix; unprefixed files replay under every target.
fn target_for_file(path: &Path) -> Vec<Target> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    match name.split('-').next().and_then(Target::from_name) {
        Some(t) => vec![t],
        None => Target::ALL.to_vec(),
    }
}

/// Load every `*.hex` file under `dir` (hex bytes, whitespace-separated,
/// `#` comments), sorted by name for determinism.
fn load_hex_dir(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "hex"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        match parse_hex(&text) {
            Some(bytes) => out.push((path, bytes)),
            None => eprintln!("xtask fuzz: skipping malformed hex file {}", path.display()),
        }
    }
    out
}

fn parse_hex(text: &str) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("");
        for tok in line.split_whitespace() {
            // Allow both "de ad" and "dead" token shapes.
            if tok.len() % 2 != 0 {
                return None;
            }
            for i in (0..tok.len()).step_by(2) {
                out.push(u8::from_str_radix(tok.get(i..i + 2)?, 16).ok()?);
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        assert_eq!(
            parse_hex("de ad\nbe ef # comment"),
            Some(vec![0xde, 0xad, 0xbe, 0xef])
        );
        assert_eq!(parse_hex("dead beef"), Some(vec![0xde, 0xad, 0xbe, 0xef]));
        assert_eq!(parse_hex("xyz"), None);
        assert_eq!(parse_hex(""), Some(Vec::new()));
    }

    #[test]
    fn targets_never_panic_on_committed_shapes() {
        // The hostile DNS shapes from the fault plan, inlined: the fuzz
        // targets must reject them without panicking.
        let loop_ptr = {
            let mut p = vec![0x66, 0x61, 0x81, 0x80, 0, 1, 0, 0, 0, 0, 0, 0];
            p.extend_from_slice(&[0xc0, 12, 0, 1, 0, 1]);
            p
        };
        for t in Target::ALL {
            assert!(run_case(t, &loop_ptr).is_ok());
            assert!(run_case(t, &[]).is_ok());
            assert!(run_case(t, &[0xff; 3]).is_ok());
        }
    }

    #[test]
    fn mutator_is_deterministic_per_seed() {
        let seeds = vec![vec![1u8, 2, 3, 4, 5, 6, 7, 8]];
        let a: Vec<Vec<u8>> = {
            let mut rng = Rng(42);
            (0..50).map(|_| mutate(&seeds, &mut rng)).collect()
        };
        let b: Vec<Vec<u8>> = {
            let mut rng = Rng(42);
            (0..50).map(|_| mutate(&seeds, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn shrinker_reaches_a_small_reproducer() {
        // A stand-in "parser" cannot be injected into `shrink` (it fuzzes
        // the real targets), so exercise the windowed deletion logic via a
        // real non-panic: shrink must return the input unchanged-or-smaller
        // and never loop forever on a healthy target.
        let out = shrink(Target::Dns, vec![0u8; 64]);
        assert!(out.len() <= 64);
    }
}
