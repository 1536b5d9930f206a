//! Bibliometric symmetrization (§3.3): `U = AAᵀ + AᵀA`.
//!
//! `AAᵀ` is Kessler's bibliographic-coupling matrix — entry `(i, j)` counts
//! the out-links `i` and `j` share — and `AᵀA` is Small's co-citation matrix
//! counting shared in-links. Their sum connects exactly the node pairs with
//! shared links, fixing the Figure-1 drawback of `A + Aᵀ`. The paper notes
//! the combined `AAᵀ + AᵀA` had not been used for clustering before.
//!
//! Following the paper, `A := A + I` is applied first (configurable) so that
//! original edges survive: with the identity added, `i → j` contributes
//! `A(i,·)·A(j,·) ≥ A(i,j)·A(j,j) = A(i,j)` to the coupling count.
//!
//! On power-law graphs hub nodes make this matrix both dense and
//! hub-dominated (§3.4/§3.5) — the motivation for degree discounting.

use crate::{Result, SymmetrizedGraph, Symmetrizer};
use std::time::Instant;
use symclust_graph::{DiGraph, UnGraph};
use symclust_sparse::{
    ops, spgemm_syrk_sum, spgemm_syrk_sum_budgeted, Exec, SpgemmOptions, SyrkTerm,
};

/// Options for [`Bibliometric`].
#[derive(Debug, Clone)]
pub struct BibliometricOptions {
    /// Apply `A := A + I` before multiplying (paper §3.3). Default true.
    pub add_identity: bool,
    /// Prune threshold applied to the fused sum `AAᵀ + AᵀA` during the
    /// multiply (Table 2 uses e.g. 25 for Wikipedia, 0 for Cora).
    /// Default 0.
    pub threshold: f64,
    /// Memory budget as a cap on the stored nnz of the similarity matrix.
    /// When the Gustavson upper bound exceeds it, the product degrades to
    /// an adaptively thresholded multiply instead of aborting; the result
    /// is flagged [`SymmetrizedGraph::degraded`]. Default `None` (exact).
    pub nnz_budget: Option<usize>,
}

impl Default for BibliometricOptions {
    fn default() -> Self {
        BibliometricOptions {
            add_identity: true,
            threshold: 0.0,
            nnz_budget: None,
        }
    }
}

/// `U = AAᵀ + AᵀA` (bibliographic coupling + co-citation).
#[derive(Debug, Clone, Default)]
pub struct Bibliometric {
    /// Execution options.
    pub options: BibliometricOptions,
}

impl Bibliometric {
    /// Creates the symmetrizer with a prune threshold.
    pub fn with_threshold(threshold: f64) -> Self {
        Bibliometric {
            options: BibliometricOptions {
                threshold,
                ..Default::default()
            },
        }
    }
}

impl Symmetrizer for Bibliometric {
    fn name(&self) -> String {
        "Bibliometric".to_string()
    }

    fn symmetrize(&self, g: &DiGraph, exec: &Exec) -> Result<SymmetrizedGraph> {
        let start = Instant::now();
        let a_base = g.adjacency();
        let a = if self.options.add_identity {
            ops::add_diagonal(a_base, 1.0)?
        } else {
            a_base.clone()
        };
        let at = ops::transpose(&a);
        // One fused symmetric multiply: AAᵀ = A·(A)ᵀ and AᵀA = Aᵀ·(Aᵀ)ᵀ
        // are both X·Xᵀ terms, accumulated upper-triangle-only in a single
        // pass with the sum thresholded during emission and mirrored —
        // neither full product is ever materialized.
        let opts = SpgemmOptions {
            threshold: self.options.threshold,
            drop_diagonal: true,
            ..Default::default()
        };
        let terms = [
            SyrkTerm { x: &a, xt: &at }, // AAᵀ (coupling)
            SyrkTerm { x: &at, xt: &a }, // AᵀA (co-citation)
        ];
        let (u, degraded) = if let Some(budget) = self.options.nnz_budget {
            let r = spgemm_syrk_sum_budgeted(&terms, &opts, budget, exec)?;
            (r.matrix, r.degraded)
        } else {
            (spgemm_syrk_sum(&terms, &opts, exec)?, false)
        };
        let mut un = UnGraph::from_symmetric_unchecked(u);
        if let Some(labels) = g.labels() {
            un = un.with_labels(labels.to_vec())?;
        }
        Ok(
            SymmetrizedGraph::new(un, self.name(), self.options.threshold, start.elapsed())
                .with_degraded(degraded),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::generators::{figure1_graph, star_graph};

    fn no_identity() -> Bibliometric {
        Bibliometric {
            options: BibliometricOptions {
                add_identity: false,
                ..Default::default()
            },
        }
    }

    #[test]
    fn cancelled_token_aborts_and_live_token_matches() {
        let g = figure1_graph();
        let token = symclust_sparse::CancelToken::new();
        let exec = Exec {
            token: Some(token.clone()),
            ..Exec::default()
        };
        let same = Bibliometric::default().symmetrize(&g, &exec).unwrap();
        let plain = Bibliometric::default()
            .symmetrize(&g, &Exec::default())
            .unwrap();
        assert_eq!(same.adjacency(), plain.adjacency());
        token.cancel();
        let err = Bibliometric::default().symmetrize(&g, &exec).unwrap_err();
        assert!(err.is_cancelled(), "got {err:?}");
    }

    #[test]
    fn connects_figure1_pair() {
        let g = figure1_graph();
        let s = no_identity().symmetrize(&g, &Exec::default()).unwrap();
        // Nodes 4 and 5 share 3 out-links (6,7,8) + node 0, and 3 in-links
        // (1,2,3) + node 0: coupling 4, co-citation 4 → weight 8.
        assert_eq!(s.adjacency().get(4, 5), 8.0);
    }

    #[test]
    fn counts_match_definitions() {
        // A: 0->2, 1->2 ; coupling(0,1) = 1 shared out-link, cocitation = 0.
        let g = DiGraph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let s = no_identity().symmetrize(&g, &Exec::default()).unwrap();
        assert_eq!(s.adjacency().get(0, 1), 1.0);
        // Node 2 is commonly pointed-to: cocitation(2, x) = 0 for others...
        assert_eq!(s.adjacency().get(0, 2), 0.0);
    }

    #[test]
    fn add_identity_preserves_original_edges() {
        let g = figure1_graph();
        let without = no_identity().symmetrize(&g, &Exec::default()).unwrap();
        // Edge 1→4 exists but 1 and 4 share no links: absent without +I.
        assert_eq!(without.adjacency().get(1, 4), 0.0);
        let with = Bibliometric::default()
            .symmetrize(&g, &Exec::default())
            .unwrap();
        assert!(with.adjacency().get(1, 4) > 0.0, "original edge lost");
    }

    #[test]
    fn output_is_symmetric() {
        let g = figure1_graph();
        let s = Bibliometric::default()
            .symmetrize(&g, &Exec::default())
            .unwrap();
        assert!(s.adjacency().is_symmetric(1e-12));
    }

    #[test]
    fn hub_creates_dense_rows() {
        // Star: all leaves point at 0 → co-citation connects every leaf
        // pair: the quadratic blow-up the paper warns about.
        let g = star_graph(10);
        let s = no_identity().symmetrize(&g, &Exec::default()).unwrap();
        for i in 1..10 {
            for j in (i + 1)..10 {
                assert_eq!(s.adjacency().get(i, j), 1.0);
            }
        }
        // 9 leaves, all pairs connected: 36 undirected edges.
        assert_eq!(s.n_edges(), 36);
    }

    #[test]
    fn threshold_prunes_weak_pairs() {
        let g = figure1_graph();
        let s = Bibliometric {
            options: BibliometricOptions {
                add_identity: false,
                threshold: 3.0,
                ..Default::default()
            },
        }
        .symmetrize(&g, &Exec::default())
        .unwrap();
        // (4,5) has weight 8, survives; weaker pairs pruned.
        assert_eq!(s.adjacency().get(4, 5), 8.0);
        // (1,2) share out-links {4,5} → weight 2 < 3, pruned.
        assert_eq!(s.adjacency().get(1, 2), 0.0);
        assert_eq!(s.threshold(), 3.0);
    }

    #[test]
    fn parallel_matches_serial() {
        let g = figure1_graph();
        let serial = Bibliometric::default()
            .symmetrize(&g, &Exec::default())
            .unwrap();
        let all_cores = Exec {
            threads: 0,
            ..Exec::default()
        };
        let parallel = Bibliometric::default().symmetrize(&g, &all_cores).unwrap();
        assert_eq!(serial.adjacency(), parallel.adjacency());
    }

    #[test]
    fn generous_budget_is_exact_and_not_degraded() {
        let g = figure1_graph();
        let exact = Bibliometric::default()
            .symmetrize(&g, &Exec::default())
            .unwrap();
        let budgeted = Bibliometric {
            options: BibliometricOptions {
                nnz_budget: Some(1_000_000),
                ..Default::default()
            },
        }
        .symmetrize(&g, &Exec::default())
        .unwrap();
        assert!(!budgeted.degraded());
        assert_eq!(exact.adjacency(), budgeted.adjacency());
    }

    #[test]
    fn tight_budget_degrades_on_hub_graph() {
        // Star: co-citation densifies into all leaf pairs; a tiny budget
        // must force the thresholded fallback rather than abort.
        let g = star_graph(40);
        let s = Bibliometric {
            options: BibliometricOptions {
                add_identity: false,
                nnz_budget: Some(20),
                ..Default::default()
            },
        }
        .symmetrize(&g, &Exec::default())
        .unwrap();
        assert!(s.degraded(), "tiny budget on a hub graph must degrade");
        assert!(s.adjacency().is_symmetric(1e-12));
        // Deterministic: rerunning yields the identical graph.
        let again = Bibliometric {
            options: BibliometricOptions {
                add_identity: false,
                nnz_budget: Some(20),
                ..Default::default()
            },
        }
        .symmetrize(&g, &Exec::default())
        .unwrap();
        assert_eq!(s.adjacency(), again.adjacency());
    }

    #[test]
    fn diagonal_is_dropped() {
        let g = figure1_graph();
        let s = Bibliometric::default()
            .symmetrize(&g, &Exec::default())
            .unwrap();
        for i in 0..g.n_nodes() {
            assert_eq!(s.adjacency().get(i, i), 0.0);
        }
    }
}
