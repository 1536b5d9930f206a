//! Degree-discounted similarity over multi-partite chains.
//!
//! Completes the paper's future-work sentence — "extending our approaches
//! to bi-partite and **multi-partite** graphs". A chain-structured
//! multi-partite graph has layers `0..=L` with a biadjacency matrix `Bᵢ`
//! relating layer `i` to layer `i+1` (e.g. users → items → tags). Two
//! layer-0 nodes are similar when the *meta-path* through the chain lands
//! them on the same terminal-layer nodes, with every traversed node
//! discounted by (a power of) its degree so high-degree intermediates —
//! blockbuster items, umbrella tags — contribute little, exactly like hubs
//! in the directed case (§3.4).
//!
//! Formally, with `Dᵢ` the layer-`i` degree matrices along the chain,
//!
//! ```text
//! X = D₀⁻ᵅ · B₀ · D₁⁻ᵝ · B₁ · ... · B_{L-1} · D_L^{-β/2}
//! S = X · Xᵀ
//! ```
//!
//! which reduces exactly to the bipartite projection for a single link.

use crate::degree_discounted::DiscountExponent;
use crate::{Result, SymmetrizeError};
use symclust_graph::UnGraph;
use symclust_sparse::{ops, spgemm, spgemm_syrk, CsrMatrix, Exec, SpgemmOptions};

/// A chain of biadjacency matrices: `links[i]` relates layer `i` (rows) to
/// layer `i+1` (columns).
#[derive(Debug, Clone)]
pub struct MultipartiteChain {
    links: Vec<CsrMatrix>,
}

impl MultipartiteChain {
    /// Builds a chain, validating that consecutive dimensions agree.
    pub fn new(links: Vec<CsrMatrix>) -> Result<MultipartiteChain> {
        if links.is_empty() {
            return Err(SymmetrizeError::InvalidConfig(
                "chain needs at least one link".into(),
            ));
        }
        for (i, pair) in links.windows(2).enumerate() {
            if pair[0].n_cols() != pair[1].n_rows() {
                return Err(SymmetrizeError::InvalidConfig(format!(
                    "link {i} has {} columns but link {} has {} rows",
                    pair[0].n_cols(),
                    i + 1,
                    pair[1].n_rows()
                )));
            }
        }
        Ok(MultipartiteChain { links })
    }

    /// Number of layers (`links + 1`).
    pub fn n_layers(&self) -> usize {
        self.links.len() + 1
    }

    /// Node count of layer `i`.
    pub fn layer_size(&self, i: usize) -> usize {
        if i == 0 {
            self.links[0].n_rows()
        } else {
            self.links[i - 1].n_cols()
        }
    }

    /// The biadjacency matrices.
    pub fn links(&self) -> &[CsrMatrix] {
        &self.links
    }
}

/// Options for [`chain_degree_discounted`].
#[derive(Debug, Clone, Copy)]
pub struct ChainOptions {
    /// Discount on layer-0 (the projected side's) degrees — the paper's α.
    pub own_discount: DiscountExponent,
    /// Discount on intermediate and terminal layer degrees — the paper's β.
    pub via_discount: DiscountExponent,
    /// Prune threshold for the final similarity product.
    pub threshold: f64,
}

impl Default for ChainOptions {
    fn default() -> Self {
        ChainOptions {
            own_discount: DiscountExponent::Power(0.5),
            via_discount: DiscountExponent::Power(0.5),
            threshold: 0.0,
        }
    }
}

/// Computes the degree-discounted meta-path similarity among layer-0 nodes
/// of a multipartite chain.
pub fn chain_degree_discounted(chain: &MultipartiteChain, opts: &ChainOptions) -> Result<UnGraph> {
    // Layer degrees: layer 0 uses row sums of B₀; intermediate layer i
    // combines incoming (col sums of B_{i-1}) and outgoing (row sums of
    // Bᵢ) mass; the terminal layer uses col sums of the last link.
    let links = chain.links();
    let factor = |exp: DiscountExponent, degs: &[f64]| -> Vec<f64> {
        degs.iter().map(|&d| exp.factor(d)).collect()
    };

    // The meta-path products run serially, the final similarity product on
    // every core.
    let serial = Exec {
        threads: 1,
        ..Exec::default()
    };
    let all_cores = Exec {
        threads: 0,
        ..serial.clone()
    };

    // X starts as D₀⁻ᵅ · B₀.
    let mut x = links[0].clone();
    let own_deg = links[0].row_sums();
    ops::scale_rows(&mut x, &factor(opts.own_discount, &own_deg))
        .map_err(SymmetrizeError::Sparse)?;

    // Walk the chain, discounting each intermediate layer once.
    for (i, link) in links.iter().enumerate().skip(1) {
        let mut via_deg = links[i - 1].col_sums();
        for (d, extra) in via_deg.iter_mut().zip(link.row_sums()) {
            *d += extra;
        }
        ops::scale_cols(&mut x, &factor(opts.via_discount, &via_deg))
            .map_err(SymmetrizeError::Sparse)?;
        x = spgemm(&x, link, &SpgemmOptions::default(), &serial)
            .map_err(SymmetrizeError::Sparse)?;
    }

    // Terminal layer: split the discount across the two sides of X·Xᵀ.
    let term_deg = links[links.len() - 1].col_sums();
    let sqrt_factor: Vec<f64> = term_deg
        .iter()
        .map(|&d| opts.via_discount.factor(d).sqrt())
        .collect();
    ops::scale_cols(&mut x, &sqrt_factor).map_err(SymmetrizeError::Sparse)?;

    let xt = ops::transpose(&x);
    let s = spgemm_syrk(
        &x,
        &xt,
        &SpgemmOptions {
            threshold: opts.threshold,
            drop_diagonal: true,
            ..Default::default()
        },
        &all_cores,
    )
    .map_err(SymmetrizeError::Sparse)?;
    Ok(UnGraph::from_symmetric_unchecked(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::{
        bipartite_degree_discounted, BipartiteGraph, BipartiteOptions, BipartiteSide,
    };
    use symclust_sparse::CooMatrix;

    fn link(rows: usize, cols: usize, edges: &[(usize, usize)]) -> CsrMatrix {
        CooMatrix::from_triplets(rows, cols, edges.iter().map(|&(r, c)| (r, c, 1.0)))
            .unwrap()
            .to_csr()
    }

    #[test]
    fn single_link_chain_matches_bipartite_projection() {
        let edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 2), (0, 3)];
        let b = link(4, 4, &edges);
        let chain = MultipartiteChain::new(vec![b.clone()]).unwrap();
        let s = chain_degree_discounted(&chain, &ChainOptions::default()).unwrap();
        let bip = bipartite_degree_discounted(
            &BipartiteGraph::from_biadjacency(b),
            BipartiteSide::Left,
            &BipartiteOptions::default(),
        )
        .unwrap();
        assert_eq!(s.adjacency(), bip.graph().adjacency());
    }

    #[test]
    fn three_layer_chain_links_users_through_tags() {
        // Users 0,1 buy items 0,1; users 2,3 buy items 2,3.
        // Items 0,1 share tag 0; items 2,3 share tag 1.
        let users_items = link(
            4,
            4,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 2),
                (2, 3),
                (3, 2),
                (3, 3),
            ],
        );
        let items_tags = link(4, 2, &[(0, 0), (1, 0), (2, 1), (3, 1)]);
        let chain = MultipartiteChain::new(vec![users_items, items_tags]).unwrap();
        assert_eq!(chain.n_layers(), 3);
        assert_eq!(chain.layer_size(0), 4);
        assert_eq!(chain.layer_size(2), 2);
        let s = chain_degree_discounted(&chain, &ChainOptions::default()).unwrap();
        // Users 0,1 reach tag 0; users 2,3 reach tag 1: within-community
        // similarity positive, cross-community zero.
        assert!(s.weight(0, 1) > 0.0);
        assert!(s.weight(2, 3) > 0.0);
        assert_eq!(s.weight(0, 2), 0.0);
        assert_eq!(s.weight(1, 3), 0.0);
    }

    #[test]
    fn umbrella_tags_are_discounted() {
        // All four items share umbrella tag 0; items 0,1 also share the
        // niche tag 1 and items 2,3 the niche tag 2.
        let users_items = link(4, 4, &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let items_tags = link(
            4,
            3,
            &[
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (0, 1),
                (1, 1),
                (2, 2),
                (3, 2),
            ],
        );
        let chain = MultipartiteChain::new(vec![users_items, items_tags]).unwrap();
        let s = chain_degree_discounted(&chain, &ChainOptions::default()).unwrap();
        // Within-pair similarity (via umbrella + niche) must exceed
        // cross-pair similarity (umbrella only).
        assert!(
            s.weight(0, 1) > s.weight(0, 2),
            "within {} vs cross {}",
            s.weight(0, 1),
            s.weight(0, 2)
        );
        // With no discount the umbrella tag contributes as much as a niche.
        let raw = chain_degree_discounted(
            &chain,
            &ChainOptions {
                own_discount: DiscountExponent::Power(0.0),
                via_discount: DiscountExponent::Power(0.0),
                threshold: 0.0,
            },
        )
        .unwrap();
        let ratio_disc = s.weight(0, 1) / s.weight(0, 2);
        let ratio_raw = raw.weight(0, 1) / raw.weight(0, 2);
        assert!(
            ratio_disc > ratio_raw,
            "discounting should sharpen the contrast: {ratio_disc} vs {ratio_raw}"
        );
    }

    #[test]
    fn rejects_mismatched_chain() {
        let a = link(2, 3, &[(0, 0)]);
        let b = link(4, 2, &[(0, 0)]);
        assert!(MultipartiteChain::new(vec![a, b]).is_err());
        assert!(MultipartiteChain::new(vec![]).is_err());
    }

    #[test]
    fn threshold_prunes() {
        let users_items = link(3, 2, &[(0, 0), (1, 0), (2, 1)]);
        let chain = MultipartiteChain::new(vec![users_items]).unwrap();
        let full = chain_degree_discounted(&chain, &ChainOptions::default()).unwrap();
        assert!(full.weight(0, 1) > 0.0);
        let pruned = chain_degree_discounted(
            &chain,
            &ChainOptions {
                threshold: full.weight(0, 1) * 1.01,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(pruned.weight(0, 1), 0.0);
    }
}
