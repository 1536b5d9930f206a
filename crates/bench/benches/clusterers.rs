//! Criterion benchmarks for the stage-2 clustering algorithms on a
//! Degree-discounted-symmetrized citation graph (Figure 6b / Figure 8's
//! timing comparisons in micro form).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symclust_cluster::{
    BestWCut, BestWCutOptions, ClusterAlgorithm, GraclusLike, MetisLike, MlrMcl, SpectralClustering,
};
use symclust_core::{DegreeDiscounted, SymmetrizedGraph, Symmetrizer};
use symclust_datasets::cora_like_scaled;
use symclust_sparse::Exec;

fn symmetrized(n: usize) -> (symclust_graph::DiGraph, SymmetrizedGraph) {
    let d = cora_like_scaled(n);
    let sym = DegreeDiscounted::default()
        .symmetrize(&d.graph, &Exec::default())
        .expect("symmetrize");
    (d.graph, sym)
}

fn bench_clusterers(c: &mut Criterion) {
    let mut group = c.benchmark_group("clusterers_cora1500_k70");
    group.sample_size(10);
    let (digraph, sym) = symmetrized(1500);
    group.bench_function("mlrmcl", |b| {
        b.iter(|| {
            MlrMcl::with_inflation(2.0)
                .cluster(&sym, &Exec::default())
                .unwrap()
        })
    });
    group.bench_function("metis", |b| {
        b.iter(|| {
            MetisLike::with_k(70)
                .cluster(&sym, &Exec::default())
                .unwrap()
        })
    });
    group.bench_function("graclus", |b| {
        b.iter(|| {
            GraclusLike::with_k(70)
                .cluster(&sym, &Exec::default())
                .unwrap()
        })
    });
    group.bench_function("spectral", |b| {
        b.iter(|| {
            SpectralClustering::with_k(70)
                .cluster(&sym, &Exec::default())
                .unwrap()
        })
    });
    group.bench_function("bestwcut_directed", |b| {
        let mut opts = BestWCutOptions {
            k: 70,
            ..Default::default()
        };
        opts.lanczos.max_subspace = 110;
        let algo = BestWCut { options: opts };
        b.iter(|| algo.cluster_digraph(&digraph).unwrap())
    });
    group.finish();
}

fn bench_metis_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("metis_scaling_k70");
    group.sample_size(10);
    for n in [1000usize, 2000, 4000] {
        let (_, sym) = symmetrized(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                MetisLike::with_k(70)
                    .cluster(&sym, &Exec::default())
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_clusterers, bench_metis_scaling);
criterion_main!(benches);
