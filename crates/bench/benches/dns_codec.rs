//! DNS wire-codec throughput: the sniffer decodes every response on the
//! fast path, so this is latency-budget critical.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dnhunter_dns::{codec, DnsMessage, DomainName, QClass, QType, RData, ResourceRecord};
use std::net::Ipv4Addr;

fn sample_response(answers: usize) -> DnsMessage {
    let name: DomainName = "photos-42.ak.fbcdn.net".parse().expect("valid");
    let q = DnsMessage::query(0x4242, name.clone(), QType::A);
    let rrs = (0..answers)
        .map(|i| ResourceRecord {
            name: name.clone(),
            class: QClass::In,
            ttl: 120,
            rdata: RData::A(Ipv4Addr::new(23, 0, (i >> 8) as u8, i as u8)),
        })
        .collect();
    DnsMessage::answer_to(&q, rrs)
}

fn bench_encode(c: &mut Criterion) {
    let msg = sample_response(8);
    let mut g = c.benchmark_group("dns_encode");
    g.throughput(Throughput::Elements(1));
    g.bench_function("response_8_answers", |b| {
        b.iter(|| black_box(codec::encode(&msg).expect("encodes")))
    });
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("dns_decode");
    for answers in [1usize, 8, 16] {
        let bytes = codec::encode(&sample_response(answers)).expect("encodes");
        g.throughput(Throughput::Bytes(bytes.len() as u64));
        g.bench_function(format!("response_{answers}_answers"), |b| {
            b.iter(|| black_box(codec::decode(&bytes).expect("decodes")))
        });
        // The sniffer's form: one scratch message, sections reused.
        let mut scratch = DnsMessage::default();
        g.bench_function(format!("response_{answers}_answers_into_scratch"), |b| {
            b.iter(|| {
                codec::decode_into(&mut scratch, black_box(&bytes)).expect("decodes");
                black_box(scratch.answers.len())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);
