//! Wall-clock cost of the signature-sharing store: MD5 throughput and
//! shared-vs-distinct insert cost.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use placeless_cache::{md5, ConcurrentStore};
use std::hint::black_box;

fn bench_md5(c: &mut Criterion) {
    let mut group = c.benchmark_group("md5");
    for size in [1_024usize, 16_384, 262_144] {
        let data = vec![0xA5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| black_box(md5(data)))
        });
    }
    group.finish();
}

fn bench_shared_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("shared_store");
    let payload = Bytes::from(vec![7u8; 4_096]);

    group.bench_function("insert_distinct", |b| {
        let mut i = 0u64;
        let store = ConcurrentStore::new();
        b.iter(|| {
            i += 1;
            let mut content = payload.to_vec();
            content[0..8].copy_from_slice(&i.to_le_bytes());
            let content = Bytes::from(content);
            let sig = ConcurrentStore::signature_of(&content);
            black_box(store.try_acquire(sig, &content, u64::MAX))
        })
    });

    group.bench_function("insert_shared", |b| {
        let store = ConcurrentStore::new();
        let sig = ConcurrentStore::signature_of(&payload);
        let _ = store.try_acquire(sig, &payload, u64::MAX);
        b.iter(|| {
            let sig = ConcurrentStore::signature_of(&payload);
            black_box(store.try_acquire(sig, &payload, u64::MAX))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_md5, bench_shared_store);
criterion_main!(benches);
