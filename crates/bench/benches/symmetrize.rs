//! Criterion benchmarks for the four symmetrization methods (§3), plus the
//! sample-based threshold-selection step (§5.3.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symclust_core::{
    Bibliometric, DegreeDiscounted, DegreeDiscountedOptions, PlusTranspose, RandomWalk, Symmetrizer,
};
use symclust_datasets::cora_like_scaled;
use symclust_graph::DiGraph;
use symclust_sparse::Exec;

fn graph(n: usize) -> DiGraph {
    cora_like_scaled(n).graph
}

fn bench_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("symmetrize");
    group.sample_size(10);
    let g = graph(2100);
    group.bench_function("plus_transpose", |b| {
        b.iter(|| PlusTranspose.symmetrize(&g, &Exec::default()).unwrap())
    });
    group.bench_function("random_walk", |b| {
        b.iter(|| {
            RandomWalk::default()
                .symmetrize(&g, &Exec::default())
                .unwrap()
        })
    });
    group.bench_function("bibliometric", |b| {
        b.iter(|| {
            Bibliometric::default()
                .symmetrize(&g, &Exec::default())
                .unwrap()
        })
    });
    group.bench_function("degree_discounted", |b| {
        b.iter(|| {
            DegreeDiscounted::default()
                .symmetrize(&g, &Exec::default())
                .unwrap()
        })
    });
    let all_cores = Exec {
        threads: 0,
        ..Exec::default()
    };
    group.bench_function("degree_discounted_parallel", |b| {
        b.iter(|| {
            DegreeDiscounted::default()
                .symmetrize(&g, &all_cores)
                .unwrap()
        })
    });
    group.bench_function("bibliometric_parallel", |b| {
        b.iter(|| Bibliometric::default().symmetrize(&g, &all_cores).unwrap())
    });
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("degree_discounted_scaling");
    group.sample_size(10);
    for n in [1000usize, 2000, 4000] {
        let g = graph(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                DegreeDiscounted::default()
                    .symmetrize(&g, &Exec::default())
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_threshold_selection(c: &mut Criterion) {
    let g = graph(2100);
    c.bench_function("select_threshold_120_samples", |b| {
        b.iter(|| {
            symclust_core::select_threshold(&g, &DegreeDiscountedOptions::default(), 60.0, 120, 7)
                .unwrap()
        })
    });
}

criterion_group!(
    benches,
    bench_methods,
    bench_scaling,
    bench_threshold_selection
);
criterion_main!(benches);
