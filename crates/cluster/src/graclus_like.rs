//! Multilevel normalized-cut minimization via weighted kernel k-means, in
//! the style of Graclus (Dhillon, Guan & Kulis, IEEE TPAMI 2007 — the
//! paper's reference \[5\]).
//!
//! Dhillon et al. showed that minimizing normalized cut is equivalent to
//! weighted kernel k-means with kernel `K = σD⁻¹ + D⁻¹AD⁻¹` and node
//! weights `w_v = d_v` (the weighted degree). The "distance" from node `v`
//! to cluster `c` reduces to closed form in graph quantities:
//!
//! ```text
//! dist(v, c) ∝ −2·(σ·[v∈c] + links(v,c)/d_v)/s_c + (σ·s_c + l_c)/s_c²
//! ```
//!
//! where `s_c = Σ_{u∈c} d_u` (cluster volume) and `l_c = Σ_{u,u'∈c} A(u,u')`
//! (internal ordered-pair weight). Moving each node to its minimum-distance
//! neighboring cluster monotonically improves the kernel k-means objective,
//! i.e. the normalized cut. Like the real Graclus, we run this refinement at
//! every level of a heavy-edge-matching multilevel hierarchy.

use crate::clustering::Clustering;
use crate::coarsen::{coarsen_graph, lift_assignment, CoarsenOptions};
use crate::metis_like::{best_initial_partition, kway_refine};
use crate::{ClusterAlgorithm, ClusterError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use symclust_graph::UnGraph;
use symclust_sparse::Exec;

/// Options for [`GraclusLike`].
#[derive(Debug, Clone, Copy)]
pub struct GraclusOptions {
    /// Number of clusters.
    pub k: usize,
    /// Kernel regularization σ. Dhillon et al. add σD⁻¹ to make the
    /// kernel positive-definite; the side effect is a stay-bonus of 2σ/s_c
    /// per move comparison, so anything above ~1/avg_degree freezes the
    /// refinement. 0.0 (pure normalized-cut moves) works best in practice.
    pub sigma: f64,
    /// Kernel-k-means passes per level.
    pub refine_passes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GraclusOptions {
    fn default() -> Self {
        GraclusOptions {
            k: 8,
            sigma: 0.0,
            refine_passes: 8,
            seed: 0x6AC1,
        }
    }
}

/// Multilevel weighted-kernel-k-means normalized-cut clusterer.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraclusLike {
    /// Execution options.
    pub options: GraclusOptions,
}

impl GraclusLike {
    /// Creates a clusterer for `k` clusters.
    pub fn with_k(k: usize) -> Self {
        GraclusLike {
            options: GraclusOptions {
                k,
                ..Default::default()
            },
        }
    }
}

/// Normalized cut of a clustering: `Σ_c cut(c)/vol(c)` (Eq. 1 of the
/// paper, summed over clusters).
pub fn normalized_cut(g: &UnGraph, assignment: &[u32], k: usize) -> f64 {
    let degrees = g.weighted_degrees();
    let mut vol = vec![0.0f64; k];
    let mut internal = vec![0.0f64; k];
    for (v, &a) in assignment.iter().enumerate() {
        vol[a as usize] += degrees[v];
    }
    for (u, v, w) in g.adjacency().iter() {
        if assignment[u] == assignment[v as usize] {
            internal[assignment[u] as usize] += w;
        }
    }
    (0..k)
        .filter(|&c| vol[c] > 0.0)
        .map(|c| (vol[c] - internal[c]) / vol[c])
        .sum()
}

/// Weighted-kernel-k-means refinement passes; mutates `assignment` and
/// returns the number of moves.
pub fn kernel_kmeans_refine(
    g: &UnGraph,
    assignment: &mut [u32],
    k: usize,
    sigma: f64,
    passes: usize,
    seed: u64,
) -> usize {
    let n = g.n_nodes();
    let degrees = g.weighted_degrees();
    let mut volume = vec![0.0f64; k]; // s_c
    let mut internal = vec![0.0f64; k]; // l_c
    let mut count = vec![0usize; k];
    for (v, &a) in assignment.iter().enumerate() {
        volume[a as usize] += degrees[v];
        count[a as usize] += 1;
    }
    for (u, v, w) in g.adjacency().iter() {
        if assignment[u] == assignment[v as usize] {
            internal[assignment[u] as usize] += w;
        }
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut links = vec![0.0f64; k];
    let mut touched: Vec<u32> = Vec::new();
    let mut total_moves = 0usize;
    for _ in 0..passes {
        order.shuffle(&mut rng);
        let mut moves = 0usize;
        for &v in &order {
            let d_v = degrees[v];
            if d_v <= 0.0 {
                continue; // isolated: no effect on NCut
            }
            let own = assignment[v] as usize;
            if count[own] <= 1 {
                continue; // never empty a cluster
            }
            touched.clear();
            let mut self_loop = 0.0f64;
            for (nb, w) in g.neighbors(v) {
                if nb as usize == v {
                    self_loop = w;
                    continue;
                }
                let p = assignment[nb as usize] as usize;
                if links[p] == 0.0 {
                    touched.push(p as u32);
                }
                links[p] += w;
            }
            // Distance to own cluster, evaluated with v included (the
            // standard batch kernel-k-means rule; the σ cross-term appears
            // only for the own cluster and acts as a stay-bonus — dropping
            // it systematically favors large clusters and collapses the
            // partition).
            let links_own = links[own]; // excludes self-loop
            let s_own = volume[own];
            let dist_own = if s_own > 0.0 {
                -2.0 * (sigma + (links_own + self_loop) / d_v) / s_own
                    + (sigma * s_own + internal[own]) / (s_own * s_own)
            } else {
                f64::INFINITY
            };
            let mut best: Option<(usize, f64)> = None;
            for &p in &touched {
                let p = p as usize;
                if p == own {
                    continue;
                }
                let s_c = volume[p];
                if s_c <= 0.0 {
                    continue;
                }
                let dist =
                    -2.0 * (links[p] / d_v) / s_c + (sigma * s_c + internal[p]) / (s_c * s_c);
                if dist < dist_own - 1e-15 && best.is_none_or(|(_, bd)| dist < bd) {
                    best = Some((p, dist));
                }
            }
            if let Some((p, _)) = best {
                volume[own] -= d_v;
                count[own] -= 1;
                internal[own] -= 2.0 * links_own + self_loop;
                volume[p] += d_v;
                count[p] += 1;
                internal[p] += 2.0 * links[p] + self_loop;
                assignment[v] = p as u32;
                moves += 1;
            }
            for &p in &touched {
                links[p as usize] = 0.0;
            }
        }
        total_moves += moves;
        if moves == 0 {
            break;
        }
    }
    total_moves
}

impl ClusterAlgorithm for GraclusLike {
    fn name(&self) -> String {
        "Graclus".to_string()
    }

    fn cluster_ungraph(&self, g: &UnGraph, exec: &Exec) -> Result<Clustering> {
        exec.checkpoint()?;
        let k = self.options.k;
        let n = g.n_nodes();
        if k == 0 {
            return Err(ClusterError::InvalidConfig("k must be positive".into()));
        }
        if n == 0 {
            return Ok(Clustering::single_cluster(0));
        }
        if k >= n {
            return Ok(Clustering::singletons(n));
        }
        let coarsen_opts = CoarsenOptions {
            target_nodes: (10 * k).max(200),
            seed: self.options.seed,
            ..Default::default()
        };
        let levels = coarsen_graph(g, &coarsen_opts)?;
        let (coarsest, coarsest_weights) = match levels.last() {
            Some(l) => (&l.graph, l.vertex_weights.clone()),
            None => (g, vec![1.0; n]),
        };
        let mut assignment = best_initial_partition(
            coarsest,
            &coarsest_weights,
            k,
            0.5,
            self.options.refine_passes,
            self.options.seed,
        );
        // An edge-cut pass first: cheap, and it hands kernel k-means a
        // starting point clear of the worst region-growing artifacts.
        kway_refine(
            coarsest,
            &coarsest_weights,
            &mut assignment,
            k,
            0.5,
            self.options.refine_passes,
            self.options.seed ^ 7,
        );
        kernel_kmeans_refine(
            coarsest,
            &mut assignment,
            k,
            self.options.sigma,
            self.options.refine_passes,
            self.options.seed ^ 1,
        );
        for level_idx in (0..levels.len()).rev() {
            let fine_graph = if level_idx == 0 {
                g
            } else {
                &levels[level_idx - 1].graph
            };
            assignment = lift_assignment(&assignment, &levels[level_idx].map);
            let fine_weights = if level_idx == 0 {
                vec![1.0; n]
            } else {
                levels[level_idx - 1].vertex_weights.clone()
            };
            kway_refine(
                fine_graph,
                &fine_weights,
                &mut assignment,
                k,
                0.5,
                self.options.refine_passes,
                self.options.seed ^ (level_idx as u64 + 11),
            );
            kernel_kmeans_refine(
                fine_graph,
                &mut assignment,
                k,
                self.options.sigma,
                self.options.refine_passes,
                self.options.seed ^ (level_idx as u64 + 2),
            );
        }
        Ok(Clustering::from_assignments(&assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique_ring(c: usize, k: usize) -> UnGraph {
        let mut edges = Vec::new();
        for ci in 0..c {
            let base = ci * k;
            for i in 0..k {
                for j in (i + 1)..k {
                    edges.push((base + i, base + j));
                }
            }
            edges.push((base + k - 1, (base + k) % (c * k)));
        }
        UnGraph::from_edges(c * k, &edges).unwrap()
    }

    #[test]
    fn recovers_clique_ring() {
        let g = clique_ring(6, 6);
        let c = GraclusLike::with_k(6)
            .cluster_ungraph(&g, &Exec::default())
            .unwrap();
        assert_eq!(c.n_clusters(), 6);
        let mut intact = 0;
        for clique in 0..6 {
            let first = c.cluster_of(clique * 6);
            if (0..6).all(|i| c.cluster_of(clique * 6 + i) == first) {
                intact += 1;
            }
        }
        assert!(intact >= 5, "{intact}/6 cliques intact");
    }

    #[test]
    fn refinement_never_worsens_ncut() {
        let g = clique_ring(4, 6);
        let mut assignment: Vec<u32> = (0..24).map(|i| (i % 4) as u32).collect();
        let before = normalized_cut(&g, &assignment, 4);
        kernel_kmeans_refine(&g, &mut assignment, 4, 0.0, 10, 3);
        let after = normalized_cut(&g, &assignment, 4);
        assert!(
            after <= before + 1e-9,
            "ncut increased: {before} -> {after}"
        );
        assert!(after < before, "refinement made no progress");
    }

    #[test]
    fn normalized_cut_hand_computed() {
        // Two triangles joined by one edge, perfect split.
        let mut edges = vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)];
        let g = UnGraph::from_edges(6, &std::mem::take(&mut edges)).unwrap();
        // vol of each side = 2*3 + 1 = 7, cut = 1 → ncut = 2/7.
        let ncut = normalized_cut(&g, &[0, 0, 0, 1, 1, 1], 2);
        assert!((ncut - 2.0 / 7.0).abs() < 1e-12);
        // Trivial single cluster has ncut 0.
        assert_eq!(normalized_cut(&g, &[0; 6], 1), 0.0);
    }

    #[test]
    fn multilevel_on_larger_graph() {
        let g = clique_ring(40, 8); // 320 nodes -> coarsening kicks in
        let c = GraclusLike::with_k(40)
            .cluster_ungraph(&g, &Exec::default())
            .unwrap();
        let ncut = normalized_cut(&g, c.assignments(), c.n_clusters());
        // Ideal ncut: 40 clusters each with cut 2, vol 8·7+2 = 58 → ~1.38.
        assert!(ncut < 3.0, "ncut = {ncut}");
        assert_eq!(c.n_clusters(), 40);
    }

    #[test]
    fn handles_isolated_nodes() {
        let g = UnGraph::from_edges(5, &[(0, 1), (1, 2)]).unwrap();
        let c = GraclusLike::with_k(2)
            .cluster_ungraph(&g, &Exec::default())
            .unwrap();
        assert_eq!(c.n_nodes(), 5);
        assert!(c.n_clusters() <= 2 + 1); // isolated nodes may pool
    }

    #[test]
    fn edge_cases() {
        let g = clique_ring(2, 3);
        assert!(GraclusLike::with_k(0)
            .cluster_ungraph(&g, &Exec::default())
            .is_err());
        let c = GraclusLike::with_k(10)
            .cluster_ungraph(&g, &Exec::default())
            .unwrap();
        assert_eq!(c.n_clusters(), 6); // k >= n → singletons
        let empty = UnGraph::from_edges(0, &[]).unwrap();
        assert_eq!(
            GraclusLike::with_k(2)
                .cluster_ungraph(&empty, &Exec::default())
                .unwrap()
                .n_nodes(),
            0
        );
    }

    #[test]
    fn sigma_does_not_break_clustering() {
        let g = clique_ring(4, 5);
        for sigma in [0.0, 0.5, 2.0] {
            let algo = GraclusLike {
                options: GraclusOptions {
                    k: 4,
                    sigma,
                    ..Default::default()
                },
            };
            let c = algo.cluster_ungraph(&g, &Exec::default()).unwrap();
            assert_eq!(c.n_clusters(), 4, "sigma {sigma}");
        }
    }
}
