//! End-to-end integration tests: directed graph → symmetrization →
//! clustering → evaluation, across crates.

use symclust::cluster::{ClusterAlgorithm, GraclusLike, MetisLike, MlrMcl};
use symclust::core::{Bibliometric, DegreeDiscounted, PlusTranspose, RandomWalk, Symmetrizer};
use symclust::eval::{adjusted_rand_index, avg_f_score};
use symclust::graph::generators::{figure1_graph, shared_link_dsbm, SharedLinkDsbmConfig};
use symclust::sparse::Exec;

fn planted_graph(seed: u64) -> symclust::graph::generators::GeneratedGraph {
    shared_link_dsbm(&SharedLinkDsbmConfig {
        n_nodes: 600,
        n_clusters: 12,
        p_signature: 0.7,
        p_intra: 0.01,
        n_hubs: 4,
        seed,
        ..Default::default()
    })
    .expect("generator succeeds")
}

#[test]
fn degree_discounted_recovers_planted_clusters_with_metis() {
    let g = planted_graph(11);
    let sym = DegreeDiscounted::default()
        .symmetrize(&g.graph, &Exec::default())
        .expect("symmetrize");
    let c = MetisLike::with_k(12)
        .cluster(&sym, &Exec::default())
        .expect("cluster");
    let f = avg_f_score(c.assignments(), &g.truth).avg_f;
    assert!(f > 60.0, "F = {f}");
}

#[test]
fn degree_discounted_recovers_planted_clusters_with_mlrmcl() {
    let g = planted_graph(12);
    let sym = DegreeDiscounted::default()
        .symmetrize(&g.graph, &Exec::default())
        .expect("symmetrize");
    let c = MlrMcl::with_inflation(2.0)
        .cluster(&sym, &Exec::default())
        .expect("cluster");
    let f = avg_f_score(c.assignments(), &g.truth).avg_f;
    assert!(f > 50.0, "F = {f} with k = {}", c.n_clusters());
}

#[test]
fn degree_discounted_recovers_planted_clusters_with_graclus() {
    let g = planted_graph(13);
    let sym = DegreeDiscounted::default()
        .symmetrize(&g.graph, &Exec::default())
        .expect("symmetrize");
    let c = GraclusLike::with_k(12)
        .cluster(&sym, &Exec::default())
        .expect("cluster");
    let f = avg_f_score(c.assignments(), &g.truth).avg_f;
    assert!(f > 55.0, "F = {f}");
}

#[test]
fn degree_discounted_beats_plus_transpose_on_shared_link_clusters() {
    // The headline claim of the paper, as an invariant of this repo: on a
    // graph whose clusters are defined by shared links (not interlinkage),
    // Degree-discounted symmetrization yields better clusters than A+Aᵀ.
    let g = planted_graph(14);
    let k = 12;
    let dd = DegreeDiscounted::default()
        .symmetrize(&g.graph, &Exec::default())
        .expect("symmetrize");
    let pt = PlusTranspose
        .symmetrize(&g.graph, &Exec::default())
        .expect("symmetrize");
    let f_dd = avg_f_score(
        MetisLike::with_k(k)
            .cluster(&dd, &Exec::default())
            .expect("cluster")
            .assignments(),
        &g.truth,
    )
    .avg_f;
    let f_pt = avg_f_score(
        MetisLike::with_k(k)
            .cluster(&pt, &Exec::default())
            .expect("cluster")
            .assignments(),
        &g.truth,
    )
    .avg_f;
    assert!(
        f_dd > f_pt + 5.0,
        "Degree-discounted F = {f_dd} vs A+A' F = {f_pt}"
    );
}

#[test]
fn all_symmetrizations_produce_clusterable_graphs() {
    let g = planted_graph(15);
    let syms: Vec<Box<dyn Symmetrizer>> = vec![
        Box::new(PlusTranspose),
        Box::new(RandomWalk::default()),
        Box::new(Bibliometric::default()),
        Box::new(DegreeDiscounted::default()),
    ];
    for sym_method in syms {
        let sym = sym_method
            .symmetrize(&g.graph, &Exec::default())
            .expect("symmetrize");
        assert!(sym.adjacency().is_symmetric(1e-9), "{}", sym.method());
        let c = MetisLike::with_k(12)
            .cluster(&sym, &Exec::default())
            .expect("cluster");
        assert_eq!(c.n_nodes(), 600);
        assert_eq!(c.n_clusters(), 12, "{}", sym.method());
    }
}

#[test]
fn planted_recovery_measured_by_ari() {
    // ARI against the *complete* planted partition (no unlabeled holes).
    let cfg = SharedLinkDsbmConfig {
        n_nodes: 500,
        n_clusters: 10,
        p_signature: 0.8,
        n_hubs: 0,
        unlabeled_fraction: 0.0,
        seed: 99,
        ..Default::default()
    };
    let g = shared_link_dsbm(&cfg).expect("generate");
    let sym = DegreeDiscounted::default()
        .symmetrize(&g.graph, &Exec::default())
        .expect("symmetrize");
    let c = MetisLike::with_k(10)
        .cluster(&sym, &Exec::default())
        .expect("cluster");
    let ari = adjusted_rand_index(c.assignments(), &g.planted);
    assert!(ari > 0.5, "ARI = {ari}");
}

#[test]
fn figure1_pair_clusters_under_dd_but_not_under_plus_transpose() {
    let g = figure1_graph();
    let dd = DegreeDiscounted::default()
        .symmetrize(&g, &Exec::default())
        .expect("dd");
    // Under DD the pair is connected with the strongest weight incident to
    // either node.
    let w45 = dd.adjacency().get(4, 5);
    assert!(w45 > 0.0);
    let pt = PlusTranspose.symmetrize(&g, &Exec::default()).expect("pt");
    assert_eq!(pt.adjacency().get(4, 5), 0.0);
}

#[test]
fn pipeline_is_deterministic() {
    let g = planted_graph(16);
    let run = || {
        let sym = DegreeDiscounted::default()
            .symmetrize(&g.graph, &Exec::default())
            .expect("symmetrize");
        MetisLike::with_k(12)
            .cluster(&sym, &Exec::default())
            .expect("cluster")
            .assignments()
            .to_vec()
    };
    assert_eq!(run(), run());
}
