//! Ablation (DESIGN.md §5.3): Eq. (1)'s log score vs raw counting for
//! service-tag extraction — both cost and robustness-to-chatty-clients.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dnhunter::{FlowDatabase, TaggedFlow};
use dnhunter_analytics::tags::{extract_tags, token_scores};
use dnhunter_dns::suffix::SuffixSet;
use dnhunter_dns::tokenizer::tokenize_fqdn;
use dnhunter_flow::{AppProtocol, FlowKey};
use dnhunter_net::IpProtocol;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

fn synth_db(flows: usize) -> FlowDatabase {
    let s = SuffixSet::builtin();
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let mut db = FlowDatabase::new();
    let names = [
        "smtp1.mail.provider.it",
        "smtp2.mail.provider.it",
        "mx1.provider.it",
        "pop.mail.provider.it",
        "aspmx.l.gmail.google.com",
    ];
    for _ in 0..flows {
        let client = format!("10.0.{}.{}", rng.gen_range(0..4), rng.gen_range(1..250));
        let fqdn = names[rng.gen_range(0..names.len())];
        db.push(
            TaggedFlow {
                key: FlowKey::from_initiator(
                    client.parse().expect("ip"),
                    "62.211.72.5".parse().expect("ip"),
                    50_000,
                    25,
                    IpProtocol::Tcp,
                ),
                fqdn: Some(fqdn.parse().expect("name")),
                second_level: None,
                alt_labels: Vec::new(),
                tag_delay_micros: None,
                first_ts: 0,
                last_ts: 1,
                packets_c2s: 1,
                packets_s2c: 1,
                bytes_c2s: 100,
                bytes_s2c: 100,
                protocol: AppProtocol::Mail,
                tls: None,
                in_warmup: false,
            },
            &s,
        );
    }
    db
}

/// The naïve alternative: raw per-token flow counts (no per-client damping).
fn raw_counts(db: &FlowDatabase, port: u16, suffixes: &SuffixSet) -> HashMap<String, u64> {
    let mut counts: HashMap<String, u64> = HashMap::new();
    for f in db.by_port(port) {
        if let Some(fqdn) = &f.fqdn {
            for token in tokenize_fqdn(fqdn, suffixes) {
                *counts.entry(token).or_default() += 1;
            }
        }
    }
    counts
}

fn bench_scoring(c: &mut Criterion) {
    let db = synth_db(20_000);
    let suffixes = SuffixSet::builtin();
    let mut g = c.benchmark_group("tag_scoring");
    g.bench_function("eq1_log_score", |b| {
        b.iter(|| black_box(token_scores(db.by_port(25), &suffixes)))
    });
    g.bench_function("raw_counts", |b| {
        b.iter(|| black_box(raw_counts(&db, 25, &suffixes)))
    });
    g.bench_function("extract_top_k", |b| {
        b.iter(|| black_box(extract_tags(&db, 25, 10, &suffixes)))
    });
    g.finish();
}

criterion_group!(benches, bench_scoring);
criterion_main!(benches);
