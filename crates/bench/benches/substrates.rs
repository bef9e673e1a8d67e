//! Criterion micro-benchmarks for the substrates: model construction, the
//! Algorithm 1 split, FM refinement, volume computation and iterative
//! refinement. These are the ablation-style timings DESIGN.md calls out —
//! they show *where* the medium-grain method's speed advantage comes from
//! (hypergraph size at model-build time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mg_core::{initial_split, iterative_refinement, MediumGrainModel, RefineOptions};
use mg_hypergraph::{fine_grain_model, row_net_model, VertexBipartition};
use mg_partitioner::{fm_refine, FmLimits};
use mg_sparse::{communication_volume, Idx, NonzeroPartition};
use mg_test_support::fixtures::substrate_bench_matrix as matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_models(c: &mut Criterion) {
    let a = matrix();
    let mut group = c.benchmark_group("model_build");
    group.bench_function("row_net", |b| b.iter(|| row_net_model(&a)));
    group.bench_function("fine_grain", |b| b.iter(|| fine_grain_model(&a)));
    group.bench_function("medium_grain", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let split = initial_split(&a, &mut rng);
        b.iter(|| MediumGrainModel::build(&a, &split))
    });
    group.finish();
}

fn bench_split(c: &mut Criterion) {
    let a = matrix();
    c.bench_function("algorithm1_split", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| initial_split(&a, &mut rng))
    });
}

fn bench_volume(c: &mut Criterion) {
    let a = matrix();
    let parts: Vec<Idx> = (0..a.nnz()).map(|k| (k % 2) as Idx).collect();
    let p = NonzeroPartition::new(2, parts).unwrap();
    c.bench_function("communication_volume", |b| {
        b.iter(|| communication_volume(&a, &p))
    });
}

fn bench_fm(c: &mut Criterion) {
    let a = matrix();
    let model = row_net_model(&a);
    let h = &model.hypergraph;
    let n = h.num_vertices() as usize;
    let w = h.total_vertex_weight();
    let budget = [(w * 103) / 200, (w * 103) / 200];
    let mut group = c.benchmark_group("fm_refine");
    for passes in [1u32, 4] {
        group.bench_with_input(BenchmarkId::new("passes", passes), &passes, |b, &passes| {
            b.iter(|| {
                let sides: Vec<u8> = (0..n).map(|v| (v % 2) as u8).collect();
                let mut bp = VertexBipartition::new(h, sides);
                let limits = FmLimits {
                    budget,
                    max_passes: passes,
                    stall_limit: 2000,
                    scan_cap: 128,
                    boundary_only: false,
                };
                fm_refine(h, &mut bp, &limits)
            })
        });
    }
    group.finish();
}

fn bench_iterative_refinement(c: &mut Criterion) {
    let a = matrix();
    let parts: Vec<Idx> = a.iter().map(|(i, _)| (i as usize >= 1800) as Idx).collect();
    let p = NonzeroPartition::new(2, parts).unwrap();
    c.bench_function("iterative_refinement", |b| {
        b.iter(|| iterative_refinement(&a, &p, 0.03, &RefineOptions::default()))
    });
}

criterion_group!(
    benches,
    bench_models,
    bench_split,
    bench_volume,
    bench_fm,
    bench_iterative_refinement
);
criterion_main!(benches);
