//! Criterion benchmarks for the serving layer: end-to-end pipe-mode
//! sessions (parse → schedule → execute → stream), cache-hit turnaround,
//! and the protocol codec on its own, from a small request up to a 35k
//! nonzero inline matrix. These isolate the service overhead from the
//! partitioning kernels the `bipartition` bench already covers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mg_server::codec::{decode_partition_payload, request_json_line, request_payload};
use mg_server::{parse_request_line, Service, ServiceConfig};
use mg_sparse::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small but non-trivial request script: distinct Laplacian-band
/// matrices as inline COO, mixed methods.
fn script(requests: usize, distinct: usize) -> String {
    let mut out = String::new();
    for r in 0..requests {
        let variant = r % distinct;
        let n = 24 + variant as u32;
        let mut entries = String::new();
        for i in 0..n {
            for j in [i.saturating_sub(1), i, (i + 1).min(n - 1)] {
                if !entries.is_empty() {
                    entries.push(',');
                }
                entries.push_str(&format!("[{i},{j}]"));
            }
        }
        let method = if variant.is_multiple_of(2) {
            "mg-ir"
        } else {
            "lb"
        };
        out.push_str(&format!(
            "{{\"id\":{r},\"matrix\":{{\"rows\":{n},\"cols\":{n},\"entries\":[{entries}]}},\
             \"method\":\"{method}\"}}\n"
        ));
    }
    out
}

fn bench_pipe_sessions(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_pipe");
    group.sample_size(10);
    for &threads in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("fresh_16", threads),
            &threads,
            |b, &threads| {
                let text = script(16, 16);
                b.iter(|| {
                    let service = Service::start(ServiceConfig {
                        threads,
                        ..ServiceConfig::default()
                    });
                    let mut out = Vec::new();
                    let summary = service.run_session(text.as_bytes(), &mut out);
                    assert_eq!(summary.responses, 16);
                    out
                })
            },
        );
    }
    group.finish();
}

fn bench_cache_hits(c: &mut Criterion) {
    // 64 requests over 4 distinct jobs: 60 responses come from the cache
    // or in-flight coalescing, measuring service overhead rather than
    // partitioning time.
    let text = script(64, 4);
    c.bench_function("service_cached_64_of_4", |b| {
        b.iter(|| {
            let service = Service::start(ServiceConfig::default());
            let mut out = Vec::new();
            let summary = service.run_session(text.as_bytes(), &mut out);
            assert_eq!(summary.responses, 64);
            assert_eq!(summary.cache_hits, 60);
            out
        })
    });
}

fn bench_protocol_codec(c: &mut Criterion) {
    let line = script(1, 1);
    let line = line.trim();
    c.bench_function("protocol_parse_request", |b| {
        b.iter(|| parse_request_line(line).unwrap())
    });
}

/// One inline request of about 35k nonzeros (some 440 KB of JSON), the
/// upper middle of the sizes a router forwards: its JSON decode, and the
/// JSON line a router renders when it forwards the binary form.
fn bench_large_inline(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(35);
    let a = gen::scale_free_directed(35_000 / 6, 35_000, 0.8, 1.0, &mut rng);
    let entries: Vec<String> = a.iter().map(|(i, j)| format!("[{i},{j}]")).collect();
    let line = format!(
        "{{\"id\":1,\"matrix\":{{\"rows\":{},\"cols\":{},\"entries\":[{}]}},\"seed\":7}}",
        a.rows(),
        a.cols(),
        entries.join(",")
    );
    let payload = request_payload(&line);
    let binary = decode_partition_payload(&payload[1..]).unwrap();
    let mut group = c.benchmark_group("inline_35k");
    group.sample_size(20);
    group.bench_function("json_decode", |b| {
        b.iter(|| parse_request_line(&line).unwrap())
    });
    group.bench_function("binary_to_json_line", |b| {
        b.iter(|| request_json_line(&binary))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pipe_sessions,
    bench_cache_hits,
    bench_protocol_codec,
    bench_large_inline
);
criterion_main!(benches);
