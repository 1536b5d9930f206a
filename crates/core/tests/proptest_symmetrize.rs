//! Property-based tests for the symmetrization framework.

use proptest::prelude::*;
use symclust_core::{
    Bibliometric, BibliometricOptions, DegreeDiscounted, DegreeDiscountedOptions, DiscountExponent,
    PlusTranspose, RandomWalk, Symmetrizer,
};
use symclust_graph::DiGraph;
use symclust_sparse::Exec;

/// Strategy: a random directed graph.
fn digraph(max_n: usize, max_edges: usize) -> impl Strategy<Value = DiGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 1..max_edges)
            .prop_map(move |edges| DiGraph::from_edges(n, &edges).expect("in-bounds edges"))
    })
}

proptest! {
    #[test]
    fn plus_transpose_output_symmetric(g in digraph(30, 150)) {
        let s = PlusTranspose.symmetrize(&g, &Exec::default()).unwrap();
        prop_assert!(s.adjacency().is_symmetric(1e-12));
        // Every original edge survives.
        for (u, v, _) in g.edges() {
            prop_assert!(s.adjacency().get(u, v as usize) > 0.0);
        }
    }

    #[test]
    fn random_walk_output_symmetric_with_same_structure(g in digraph(25, 120)) {
        let rw = RandomWalk::default().symmetrize(&g, &Exec::default()).unwrap();
        prop_assert!(rw.adjacency().is_symmetric(1e-10));
        let pt = PlusTranspose.symmetrize(&g, &Exec::default()).unwrap();
        // §3.2: identical edge set to A + Aᵀ (weights differ). Exact
        // cancellation aside, structures match.
        prop_assert_eq!(rw.adjacency().indices(), pt.adjacency().indices());
        // Total weight equals the walk's non-dangling stationary mass ≤ 1.
        let total: f64 = rw.adjacency().values().iter().sum();
        prop_assert!(total <= 1.0 + 1e-9);
    }

    #[test]
    fn bibliometric_output_symmetric_nonnegative(g in digraph(25, 120)) {
        let s = Bibliometric::default().symmetrize(&g, &Exec::default()).unwrap();
        prop_assert!(s.adjacency().is_symmetric(1e-9));
        for &v in s.adjacency().values() {
            prop_assert!(v > 0.0);
        }
        // No diagonal entries (self-similarity dropped).
        for i in 0..g.n_nodes() {
            prop_assert_eq!(s.adjacency().get(i, i), 0.0);
        }
    }

    #[test]
    fn degree_discounted_output_symmetric_nonnegative(g in digraph(25, 120)) {
        let s = DegreeDiscounted::default().symmetrize(&g, &Exec::default()).unwrap();
        prop_assert!(s.adjacency().is_symmetric(1e-9));
        for &v in s.adjacency().values() {
            prop_assert!(v > 0.0);
        }
    }

    #[test]
    fn dd_with_zero_exponents_equals_undiscounted_bibliometric(g in digraph(20, 100)) {
        let dd = DegreeDiscounted::with_exponents(0.0, 0.0).symmetrize(&g, &Exec::default()).unwrap();
        let bib = Bibliometric {
            options: BibliometricOptions { add_identity: false, ..Default::default() },
        }
        .symmetrize(&g, &Exec::default())
        .unwrap();
        prop_assert_eq!(dd.adjacency(), bib.adjacency());
    }

    #[test]
    fn dd_weights_bounded_by_undiscounted(g in digraph(20, 100)) {
        // Degrees ≥ 1 wherever A has entries, so every discount factor is
        // ≤ 1 and each DD weight is bounded by the Bibliometric count.
        let dd = DegreeDiscounted::default().symmetrize(&g, &Exec::default()).unwrap();
        let bib = DegreeDiscounted::with_exponents(0.0, 0.0).symmetrize(&g, &Exec::default()).unwrap();
        for (r, c, v) in dd.adjacency().iter() {
            prop_assert!(v <= bib.adjacency().get(r, c as usize) + 1e-9);
        }
    }

    #[test]
    fn threshold_monotonically_prunes(g in digraph(20, 100), t in 0.0f64..0.5) {
        let full = DegreeDiscounted::default().symmetrize(&g, &Exec::default()).unwrap();
        let pruned = DegreeDiscounted::with_threshold(t).symmetrize(&g, &Exec::default()).unwrap();
        prop_assert!(pruned.n_edges() <= full.n_edges());
        for &v in pruned.adjacency().values() {
            prop_assert!(v >= t);
        }
    }

    #[test]
    fn stronger_discount_never_increases_weights(g in digraph(20, 100)) {
        let half = DegreeDiscounted::with_exponents(0.5, 0.5).symmetrize(&g, &Exec::default()).unwrap();
        let full = DegreeDiscounted::with_exponents(1.0, 1.0).symmetrize(&g, &Exec::default()).unwrap();
        for (r, c, v) in full.adjacency().iter() {
            prop_assert!(v <= half.adjacency().get(r, c as usize) + 1e-9);
        }
    }

    #[test]
    fn log_discount_factor_monotone_decreasing(d in 1.0f64..10000.0) {
        let log = DiscountExponent::Log;
        prop_assert!(log.factor(d) >= log.factor(d * 2.0));
        prop_assert!(log.factor(d) <= 1.0 + 1e-12);
        prop_assert!(log.factor(d) > 0.0);
    }

    #[test]
    fn labels_propagate_through_all_methods(g in digraph(12, 40)) {
        let labels: Vec<String> = (0..g.n_nodes()).map(|i| format!("node-{i}")).collect();
        let g = g.with_labels(labels.clone()).unwrap();
        let methods: Vec<Box<dyn Symmetrizer>> = vec![
            Box::new(PlusTranspose),
            Box::new(RandomWalk::default()),
            Box::new(Bibliometric::default()),
            Box::new(DegreeDiscounted::default()),
        ];
        for m in methods {
            let s = m.symmetrize(&g, &Exec::default()).unwrap();
            prop_assert_eq!(s.graph().labels().unwrap(), &labels[..]);
        }
    }

    #[test]
    fn select_threshold_respects_ordering(g in digraph(30, 200)) {
        let opts = DegreeDiscountedOptions::default();
        let hi = symclust_core::select_threshold(&g, &opts, 50.0, 20, 3).unwrap();
        let lo = symclust_core::select_threshold(&g, &opts, 2.0, 20, 3).unwrap();
        prop_assert!(lo.threshold >= hi.threshold);
    }
}
