//! Degree-discounted similarity for bipartite graphs.
//!
//! The paper's conclusion names "extending our approaches to bi-partite and
//! multi-partite graphs" as a promising avenue; this module implements that
//! extension. A bipartite graph (users × items, papers × venues, documents
//! × terms) has an `n × m` biadjacency matrix `B` relating *left* nodes to
//! *right* nodes. Two left nodes are similar when they connect to the same
//! right nodes — exactly the bibliographic-coupling intuition — and hub
//! right-nodes (items everyone buys, terms every document contains) inflate
//! raw co-occurrence counts exactly like hub pages inflate `AAᵀ`.
//!
//! The degree-discounted left-similarity therefore mirrors Eq. 6:
//!
//! ```text
//! S_left  = Dl^{-α} · B · Dr^{-β} · Bᵀ · Dl^{-α}
//! S_right = Dr^{-β} · Bᵀ · Dl^{-α} · B · Dr^{-β}
//! ```
//!
//! with `Dl`, `Dr` the left/right degree matrices. `α = β = 0.5` again
//! makes this a cosine-style normalization. The result is an undirected
//! similarity graph over one side of the bipartite graph, ready for any
//! stage-2 clusterer.

use crate::degree_discounted::DiscountExponent;
use crate::{Result, SymmetrizeError};
use std::time::Instant;
use symclust_graph::UnGraph;
use symclust_sparse::{ops, spgemm_syrk, CsrMatrix, Exec, SpgemmOptions};

/// A bipartite graph with `n_left` left nodes and `n_right` right nodes.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    biadjacency: CsrMatrix,
}

impl BipartiteGraph {
    /// Wraps an `n_left × n_right` biadjacency matrix.
    pub fn from_biadjacency(biadjacency: CsrMatrix) -> BipartiteGraph {
        BipartiteGraph { biadjacency }
    }

    /// Builds from `(left, right)` edges.
    pub fn from_edges(
        n_left: usize,
        n_right: usize,
        edges: &[(usize, usize)],
    ) -> Result<BipartiteGraph> {
        let mut coo = symclust_sparse::CooMatrix::with_capacity(n_left, n_right, edges.len());
        for &(l, r) in edges {
            coo.push(l, r, 1.0).map_err(SymmetrizeError::Sparse)?;
        }
        Ok(BipartiteGraph {
            biadjacency: coo.to_csr(),
        })
    }

    /// Number of left nodes.
    pub fn n_left(&self) -> usize {
        self.biadjacency.n_rows()
    }

    /// Number of right nodes.
    pub fn n_right(&self) -> usize {
        self.biadjacency.n_cols()
    }

    /// Number of bipartite edges.
    pub fn n_edges(&self) -> usize {
        self.biadjacency.nnz()
    }

    /// The biadjacency matrix.
    pub fn biadjacency(&self) -> &CsrMatrix {
        &self.biadjacency
    }

    /// Left-node weighted degrees.
    pub fn left_degrees(&self) -> Vec<f64> {
        self.biadjacency.row_sums()
    }

    /// Right-node weighted degrees.
    pub fn right_degrees(&self) -> Vec<f64> {
        self.biadjacency.col_sums()
    }
}

/// Which side of the bipartite graph to project the similarity onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BipartiteSide {
    /// Similarity among left (row) nodes.
    Left,
    /// Similarity among right (column) nodes.
    Right,
}

/// Options for [`bipartite_degree_discounted`].
#[derive(Debug, Clone, Copy)]
pub struct BipartiteOptions {
    /// Discount on the projected side's own degrees (α).
    pub own_discount: DiscountExponent,
    /// Discount on the shared-neighbor side's degrees (β).
    pub shared_discount: DiscountExponent,
    /// Prune threshold applied during the product.
    pub threshold: f64,
}

impl Default for BipartiteOptions {
    fn default() -> Self {
        BipartiteOptions {
            own_discount: DiscountExponent::Power(0.5),
            shared_discount: DiscountExponent::Power(0.5),
            threshold: 0.0,
        }
    }
}

/// Computes the degree-discounted similarity graph over one side of a
/// bipartite graph.
pub fn bipartite_degree_discounted(
    g: &BipartiteGraph,
    side: BipartiteSide,
    opts: &BipartiteOptions,
) -> Result<BipartiteProjection> {
    let start = Instant::now();
    // Work with X = Downᵅ · M · sqrt(Dsharedᵝ) so S = X·Xᵀ, exactly as the
    // directed factorization in `degree_discounted`.
    let m = match side {
        BipartiteSide::Left => g.biadjacency.clone(),
        BipartiteSide::Right => ops::transpose(&g.biadjacency),
    };
    let own_deg = m.row_sums();
    let shared_deg = m.col_sums();
    let f_own: Vec<f64> = own_deg
        .iter()
        .map(|&d| opts.own_discount.factor(d))
        .collect();
    let f_shared_sqrt: Vec<f64> = shared_deg
        .iter()
        .map(|&d| opts.shared_discount.factor(d).sqrt())
        .collect();
    let mut x = m;
    ops::scale_rows(&mut x, &f_own).map_err(SymmetrizeError::Sparse)?;
    ops::scale_cols(&mut x, &f_shared_sqrt).map_err(SymmetrizeError::Sparse)?;
    let xt = ops::transpose(&x);
    let s = spgemm_syrk(
        &x,
        &xt,
        &SpgemmOptions {
            threshold: opts.threshold,
            drop_diagonal: true,
            ..Default::default()
        },
        &Exec {
            threads: 0,
            ..Exec::default()
        },
    )
    .map_err(SymmetrizeError::Sparse)?;
    Ok(BipartiteProjection {
        graph: UnGraph::from_symmetric_unchecked(s),
        side,
        threshold: opts.threshold,
        elapsed: start.elapsed(),
    })
}

/// The similarity graph over one side of a bipartite graph.
#[derive(Debug, Clone)]
pub struct BipartiteProjection {
    graph: UnGraph,
    side: BipartiteSide,
    threshold: f64,
    elapsed: std::time::Duration,
}

impl BipartiteProjection {
    /// The undirected similarity graph (nodes are the projected side's).
    pub fn graph(&self) -> &UnGraph {
        &self.graph
    }

    /// Which side was projected.
    pub fn side(&self) -> BipartiteSide {
        self.side
    }

    /// The prune threshold used.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Wall time of the projection.
    pub fn elapsed(&self) -> std::time::Duration {
        self.elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Users 0,1 buy items 0,1; users 2,3 buy items 2,3; everyone buys the
    /// hub item 4.
    fn two_communities_with_hub() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            4,
            5,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 2),
                (2, 3),
                (3, 2),
                (3, 3),
                (0, 4),
                (1, 4),
                (2, 4),
                (3, 4),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dimensions_and_degrees() {
        let g = two_communities_with_hub();
        assert_eq!(g.n_left(), 4);
        assert_eq!(g.n_right(), 5);
        assert_eq!(g.n_edges(), 12);
        assert_eq!(g.left_degrees(), vec![3.0, 3.0, 3.0, 3.0]);
        assert_eq!(g.right_degrees(), vec![2.0, 2.0, 2.0, 2.0, 4.0]);
    }

    #[test]
    fn left_projection_is_symmetric_and_discounts_hub() {
        let g = two_communities_with_hub();
        let p = bipartite_degree_discounted(&g, BipartiteSide::Left, &BipartiteOptions::default())
            .unwrap();
        let s = p.graph().adjacency();
        assert!(s.is_symmetric(1e-12));
        // Within-community similarity: two shared specific items + the hub.
        // Cross-community: hub only. The former must dominate.
        assert!(
            s.get(0, 1) > 2.0 * s.get(0, 2),
            "within {} vs cross {}",
            s.get(0, 1),
            s.get(0, 2)
        );
    }

    #[test]
    fn undiscounted_projection_counts_shared_neighbors() {
        let g = two_communities_with_hub();
        let opts = BipartiteOptions {
            own_discount: DiscountExponent::Power(0.0),
            shared_discount: DiscountExponent::Power(0.0),
            threshold: 0.0,
        };
        let p = bipartite_degree_discounted(&g, BipartiteSide::Left, &opts).unwrap();
        // Users 0,1 share items {0,1,4} → count 3; users 0,2 share {4} → 1.
        assert_eq!(p.graph().adjacency().get(0, 1), 3.0);
        assert_eq!(p.graph().adjacency().get(0, 2), 1.0);
    }

    #[test]
    fn right_projection_clusters_items() {
        let g = two_communities_with_hub();
        let p = bipartite_degree_discounted(&g, BipartiteSide::Right, &BipartiteOptions::default())
            .unwrap();
        let s = p.graph().adjacency();
        assert_eq!(p.graph().n_nodes(), 5);
        // Items 0 and 1 share buyers {0,1}: strongly similar. Items 0 and 2
        // share none directly (only via hub item? no — right projection
        // counts shared LEFT neighbors; 0 and 2 have disjoint buyers).
        assert!(s.get(0, 1) > 0.0);
        assert_eq!(s.get(0, 2), 0.0);
        assert_eq!(p.side(), BipartiteSide::Right);
    }

    #[test]
    fn threshold_prunes_hub_only_pairs() {
        let g = two_communities_with_hub();
        let full =
            bipartite_degree_discounted(&g, BipartiteSide::Left, &BipartiteOptions::default())
                .unwrap();
        let hub_only = full.graph().adjacency().get(0, 2);
        let within = full.graph().adjacency().get(0, 1);
        let mid = (hub_only + within) / 2.0;
        let pruned = bipartite_degree_discounted(
            &g,
            BipartiteSide::Left,
            &BipartiteOptions {
                threshold: mid,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(pruned.graph().adjacency().get(0, 2), 0.0);
        assert!(pruned.graph().adjacency().get(0, 1) > 0.0);
        assert_eq!(pruned.threshold(), mid);
    }

    #[test]
    fn projection_feeds_clustering() {
        // End-to-end: project then verify the two planted communities are
        // separable by connected components after hub pruning.
        let g = two_communities_with_hub();
        let p = bipartite_degree_discounted(
            &g,
            BipartiteSide::Left,
            &BipartiteOptions {
                threshold: 0.2,
                ..Default::default()
            },
        )
        .unwrap();
        let (labels, count) = symclust_graph::stats::connected_components(p.graph());
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn rejects_out_of_bounds_edges() {
        assert!(BipartiteGraph::from_edges(2, 2, &[(0, 5)]).is_err());
    }
}
