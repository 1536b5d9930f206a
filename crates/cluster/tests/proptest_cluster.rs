//! Property-based tests for the clustering algorithms.

mod oracle;

use oracle::inflate_and_prune;
use proptest::prelude::*;
use symclust_cluster::graclus_like::normalized_cut;
use symclust_cluster::mcl::{canonical_flow, MclOptions};
use symclust_cluster::metis_like::{edge_cut, kway_refine, recursive_bisection_partition};
use symclust_cluster::{ClusterAlgorithm, GraclusLike, MetisLike, MlrMcl};
use symclust_graph::UnGraph;
use symclust_sparse::Exec;

/// Strategy: a random undirected graph with at least a few edges.
fn ungraph(max_n: usize, max_edges: usize) -> impl Strategy<Value = UnGraph> {
    (4..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 1..max_edges)
            .prop_map(move |edges| UnGraph::from_edges(n, &edges).expect("in-bounds edges"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metis_partition_is_valid(g in ungraph(40, 150), k in 1usize..8) {
        let c = MetisLike::with_k(k).cluster_ungraph(&g, &Exec::default()).unwrap();
        prop_assert_eq!(c.n_nodes(), g.n_nodes());
        // Every node assigned; cluster ids dense.
        for node in 0..g.n_nodes() {
            prop_assert!((c.cluster_of(node) as usize) < c.n_clusters());
        }
        if k < g.n_nodes() {
            prop_assert_eq!(c.n_clusters(), k);
        }
    }

    #[test]
    fn graclus_partition_is_valid(g in ungraph(40, 150), k in 1usize..8) {
        let c = GraclusLike::with_k(k).cluster_ungraph(&g, &Exec::default()).unwrap();
        prop_assert_eq!(c.n_nodes(), g.n_nodes());
        let sizes = c.sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), g.n_nodes());
        prop_assert!(sizes.iter().all(|&s| s > 0));
    }

    #[test]
    fn mlrmcl_partition_is_valid(g in ungraph(30, 100)) {
        let c = MlrMcl::default().cluster_ungraph(&g, &Exec::default()).unwrap();
        prop_assert_eq!(c.n_nodes(), g.n_nodes());
        let sizes = c.sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), g.n_nodes());
        prop_assert!(sizes.iter().all(|&s| s > 0));
    }

    #[test]
    fn canonical_flow_is_row_stochastic(g in ungraph(30, 100)) {
        let m = canonical_flow(&g);
        for row in 0..m.n_rows() {
            let s: f64 = m.row_values(row).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9, "row {row} sums to {s}");
        }
    }

    #[test]
    fn inflation_preserves_stochasticity(g in ungraph(30, 100), r in 1.1f64..4.0) {
        let m = canonical_flow(&g);
        let opts = MclOptions { inflation: r, ..Default::default() };
        let i = inflate_and_prune(&m, &opts);
        for row in 0..i.n_rows() {
            let s: f64 = i.row_values(row).iter().sum();
            // Rows with entries must renormalize to 1.
            prop_assert!(s.abs() < 1e-12 || (s - 1.0).abs() < 1e-9);
            prop_assert!(i.row_nnz(row) <= opts.max_row_nnz);
        }
    }

    #[test]
    fn kway_refine_never_increases_cut(g in ungraph(30, 120), k in 2usize..6) {
        let n = g.n_nodes();
        let mut assignment: Vec<u32> = (0..n).map(|i| (i % k) as u32).collect();
        let weights = vec![1.0; n];
        let before = edge_cut(&g, &assignment);
        kway_refine(&g, &weights, &mut assignment, k, 0.5, 4, 7);
        let after = edge_cut(&g, &assignment);
        prop_assert!(after <= before + 1e-9, "cut went {before} -> {after}");
        // Still a valid assignment.
        prop_assert!(assignment.iter().all(|&a| (a as usize) < k));
    }

    #[test]
    fn recursive_bisection_produces_k_parts(g in ungraph(40, 150), k in 2usize..8) {
        let n = g.n_nodes();
        prop_assume!(k <= n);
        let a = recursive_bisection_partition(&g, &vec![1.0; n], k, 0.3, 4, 11);
        let mut seen = vec![false; k];
        for &x in &a {
            prop_assert!((x as usize) < k);
            seen[x as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "empty part in {a:?}");
    }

    #[test]
    fn normalized_cut_bounds(g in ungraph(30, 120), k in 1usize..6) {
        let n = g.n_nodes();
        let assignment: Vec<u32> = (0..n).map(|i| (i % k) as u32).collect();
        let ncut = normalized_cut(&g, &assignment, k);
        prop_assert!(ncut >= -1e-12);
        prop_assert!(ncut <= k as f64 + 1e-9);
    }

    #[test]
    fn fused_kernel_matches_two_step_pipeline(g in ungraph(25, 90), r in 1.2f64..3.0) {
        use symclust_cluster::mcl::rmcl_step;
        use symclust_sparse::{spgemm, SpgemmOptions};
        let serial = Exec { threads: 1, ..Exec::default() };
        let m_g = canonical_flow(&g);
        let opts = MclOptions { inflation: r, ..Default::default() };
        let fused = rmcl_step(&m_g, &m_g, &opts, &serial).unwrap();
        let two_step = inflate_and_prune(&spgemm(&m_g, &m_g, &SpgemmOptions::default(), &serial).unwrap(), &opts);
        prop_assert_eq!(fused.indptr(), two_step.indptr());
        prop_assert_eq!(fused.indices(), two_step.indices());
        for (a, b) in fused.values().iter().zip(two_step.values()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn clusterers_are_deterministic(g in ungraph(25, 80), k in 2usize..5) {
        let a = MetisLike::with_k(k).cluster_ungraph(&g, &Exec::default()).unwrap();
        let b = MetisLike::with_k(k).cluster_ungraph(&g, &Exec::default()).unwrap();
        prop_assert_eq!(a.assignments(), b.assignments());
        let a = MlrMcl::default().cluster_ungraph(&g, &Exec::default()).unwrap();
        let b = MlrMcl::default().cluster_ungraph(&g, &Exec::default()).unwrap();
        prop_assert_eq!(a.assignments(), b.assignments());
    }
}
