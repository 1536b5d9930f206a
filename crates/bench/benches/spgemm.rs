//! Criterion micro-benchmarks for the SpGEMM kernel — the cost center of
//! the Bibliometric and Degree-discounted symmetrizations (§3.6).
//!
//! Covers: serial Gustavson, the crossbeam-parallel variant, and the
//! effect of on-the-fly thresholding on hub-heavy graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symclust_graph::generators::{shared_link_dsbm, SharedLinkDsbmConfig};
use symclust_sparse::{ops, spgemm, CsrMatrix, Exec, SpgemmOptions};

/// An [`Exec`] on `threads` threads (`0` = all cores).
fn on(threads: usize) -> Exec {
    Exec {
        threads,
        ..Exec::default()
    }
}

fn test_matrix(n: usize) -> CsrMatrix {
    shared_link_dsbm(&SharedLinkDsbmConfig {
        n_nodes: n,
        n_clusters: (n / 60).max(4),
        n_hubs: (n / 400).max(2),
        seed: 1,
        ..Default::default()
    })
    .expect("generator succeeds")
    .graph
    .into_adjacency()
}

fn bench_spgemm_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm_aat");
    group.sample_size(10);
    for n in [1000usize, 2000, 4000] {
        let a = test_matrix(n);
        let at = ops::transpose(&a);
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, _| {
            b.iter(|| spgemm(&a, &at, &SpgemmOptions::default(), &on(1)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("parallel", n), &n, |b, _| {
            b.iter(|| spgemm(&a, &at, &SpgemmOptions::default(), &on(0)).unwrap())
        });
    }
    group.finish();
}

fn bench_thresholding(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm_threshold");
    group.sample_size(10);
    let a = test_matrix(3000);
    let at = ops::transpose(&a);
    for threshold in [0.0f64, 2.0, 5.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threshold),
            &threshold,
            |b, &t| {
                let opts = SpgemmOptions {
                    threshold: t,
                    drop_diagonal: true,
                    ..Default::default()
                };
                b.iter(|| spgemm(&a, &at, &opts, &on(1)).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_transpose(c: &mut Criterion) {
    let a = test_matrix(4000);
    c.bench_function("transpose_4000", |b| b.iter(|| ops::transpose(&a)));
}

criterion_group!(
    benches,
    bench_spgemm_scaling,
    bench_thresholding,
    bench_transpose
);
criterion_main!(benches);
