//! Multi-Level Regularized Markov Clustering (MLR-MCL).
//!
//! Satuluri & Parthasarathy, KDD 2009 — the paper's primary stage-2
//! clusterer. The graph is coarsened by heavy-edge matching; R-MCL runs to
//! convergence on the coarsest graph; the converged flow is then projected
//! level by level back to the original graph, with a few R-MCL iterations of
//! refinement at each level. The multilevel strategy both accelerates
//! convergence (flows start near their fixed point) and improves quality
//! (coarse-level flows capture global structure).

use crate::clustering::Clustering;
use crate::coarsen::{coarsen_graph, CoarsenOptions};
use crate::mcl::{canonical_flow_capped, extract_clusters, rmcl_iterate, MclOptions};
use crate::{ClusterAlgorithm, ClusterError, Result};
use symclust_graph::UnGraph;
use symclust_sparse::{CsrMatrix, Exec};

/// Options for [`MlrMcl`].
#[derive(Debug, Clone, Copy)]
pub struct MlrMclOptions {
    /// R-MCL parameters (inflation controls output granularity).
    pub mcl: MclOptions,
    /// Coarsening cascade parameters.
    pub coarsen: CoarsenOptions,
    /// R-MCL refinement iterations per intermediate level.
    pub iterations_per_level: usize,
}

impl Default for MlrMclOptions {
    fn default() -> Self {
        MlrMclOptions {
            mcl: MclOptions::default(),
            // Graphs at or below this size run single-level R-MCL. The
            // coarsen-project-refine path buys wall-clock on large graphs
            // but the projected flow starts refinement in a worse basin
            // (`experiments -- ablations`, ablation 3), so it is reserved
            // for inputs where single-level iteration is genuinely slow.
            coarsen: CoarsenOptions {
                target_nodes: 4000,
                ..Default::default()
            },
            iterations_per_level: 4,
        }
    }
}

/// Multi-Level Regularized MCL.
///
/// ```
/// use symclust_cluster::{ClusterAlgorithm, MlrMcl};
/// use symclust_graph::UnGraph;
/// // Two triangles joined by one edge.
/// let g = UnGraph::from_edges(6, &[(0,1),(1,2),(0,2),(3,4),(4,5),(3,5),(2,3)]).unwrap();
/// let c = MlrMcl::default()
///     .cluster(&g, &symclust_sparse::Exec::default())
///     .unwrap();
/// assert_eq!(c.n_clusters(), 2);
/// assert!(c.same_cluster(0, 2) && !c.same_cluster(0, 3));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MlrMcl {
    /// Execution options.
    pub options: MlrMclOptions,
}

impl MlrMcl {
    /// Creates MLR-MCL with a given inflation (granularity knob).
    pub fn with_inflation(inflation: f64) -> Self {
        let mut options = MlrMclOptions::default();
        options.mcl.inflation = inflation;
        MlrMcl { options }
    }
}

/// Projects a coarse flow matrix onto the finer level: fine node `i`
/// inherits the flow row of its coarse parent, distributed uniformly over
/// each target coarse node's children, then renormalized.
fn project_flow(coarse_flow: &CsrMatrix, map: &[u32], n_fine: usize) -> CsrMatrix {
    // children[c] = fine nodes merged into coarse node c.
    let n_coarse = coarse_flow.n_rows();
    let mut child_count = vec![0u32; n_coarse];
    for &c in map {
        child_count[c as usize] += 1;
    }
    let mut child_start = vec![0usize; n_coarse + 1];
    for c in 0..n_coarse {
        child_start[c + 1] = child_start[c] + child_count[c] as usize;
    }
    let mut children = vec![0u32; n_fine];
    {
        let mut cursor = child_start.clone();
        for (fine, &c) in map.iter().enumerate() {
            children[cursor[c as usize]] = fine as u32;
            cursor[c as usize] += 1;
        }
    }

    let mut indptr = Vec::with_capacity(n_fine + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut scratch: Vec<(u32, f64)> = Vec::new();
    for &fine_parent in map.iter().take(n_fine) {
        let parent = fine_parent as usize;
        scratch.clear();
        for (cj, v) in coarse_flow.row_iter(parent) {
            let cj = cj as usize;
            let kids = &children[child_start[cj]..child_start[cj + 1]];
            if kids.is_empty() {
                continue;
            }
            let share = v / kids.len() as f64;
            for &kid in kids {
                scratch.push((kid, share));
            }
        }
        scratch.sort_unstable_by_key(|&(c, _)| c);
        let sum: f64 = scratch.iter().map(|&(_, v)| v).sum();
        if sum > 0.0 {
            for &(c, v) in &scratch {
                indices.push(c);
                values.push(v / sum);
            }
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_parts_unchecked(n_fine, n_fine, indptr, indices, values)
}

impl ClusterAlgorithm for MlrMcl {
    fn name(&self) -> String {
        "MLR-MCL".to_string()
    }

    fn cluster_ungraph(&self, g: &UnGraph, exec: &Exec) -> Result<Clustering> {
        if self.options.mcl.inflation <= 1.0 {
            return Err(ClusterError::InvalidConfig(format!(
                "inflation must exceed 1.0, got {}",
                self.options.mcl.inflation
            )));
        }
        if g.n_nodes() == 0 {
            return Ok(Clustering::single_cluster(0));
        }
        exec.checkpoint()?;
        let levels = coarsen_graph(g, &self.options.coarsen)?;

        // R-MCL to convergence on the coarsest graph.
        let coarsest = levels.last().map(|l| &l.graph).unwrap_or(g);
        let m_g_coarse = canonical_flow_capped(coarsest, self.options.mcl.max_graph_row_nnz);
        let (mut flow, _, mut converged) = rmcl_iterate(
            &m_g_coarse,
            m_g_coarse.clone(),
            &self.options.mcl,
            self.options.mcl.max_iter,
            exec,
        )?;

        // Walk back up the hierarchy, refining at each level.
        for level_idx in (0..levels.len()).rev() {
            exec.checkpoint()?;
            let fine_graph = if level_idx == 0 {
                g
            } else {
                &levels[level_idx - 1].graph
            };
            let map = &levels[level_idx].map;
            let projected = project_flow(&flow, map, fine_graph.n_nodes());
            let m_g_fine = canonical_flow_capped(fine_graph, self.options.mcl.max_graph_row_nnz);
            let iters = if level_idx == 0 {
                self.options.mcl.max_iter
            } else {
                self.options.iterations_per_level
            };
            let (refined, _, level_converged) =
                rmcl_iterate(&m_g_fine, projected, &self.options.mcl, iters, exec)?;
            flow = refined;
            // Only the final (level-0) run gets the full iteration budget;
            // its convergence is what the best-effort flag reports.
            // Intermediate levels run a fixed handful of refinement steps
            // and are not expected to converge.
            if level_idx == 0 {
                converged = level_converged;
            }
        }
        Ok(extract_clusters(&flow).with_converged(converged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ring of `c` cliques of size `k`, adjacent cliques joined by 1 edge.
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
    fn recovers_clique_ring_clusters() {
        let g = clique_ring(8, 6); // 48 nodes, forces no coarsening need
        let c = MlrMcl::default()
            .cluster_ungraph(&g, &Exec::default())
            .unwrap();
        assert_eq!(c.n_clusters(), 8, "sizes: {:?}", c.sizes());
        for clique in 0..8 {
            let first = c.cluster_of(clique * 6);
            for i in 0..6 {
                assert_eq!(c.cluster_of(clique * 6 + i), first);
            }
        }
    }

    #[test]
    fn multilevel_path_recovers_clusters_on_larger_graph() {
        // Force coarsening: 64 cliques of 8 = 512 nodes > target 100.
        let g = clique_ring(64, 8);
        let algo = MlrMcl {
            options: MlrMclOptions {
                coarsen: CoarsenOptions {
                    target_nodes: 100,
                    ..Default::default()
                },
                ..Default::default()
            },
        };
        let c = algo.cluster_ungraph(&g, &Exec::default()).unwrap();
        // Should find close to 64 clusters with cliques kept intact.
        assert!(
            (48..=80).contains(&c.n_clusters()),
            "found {} clusters",
            c.n_clusters()
        );
        let mut intact = 0;
        for clique in 0..64 {
            let first = c.cluster_of(clique * 8);
            if (0..8).all(|i| c.cluster_of(clique * 8 + i) == first) {
                intact += 1;
            }
        }
        assert!(intact >= 56, "only {intact}/64 cliques intact");
    }

    #[test]
    fn project_flow_distributes_over_children() {
        // Coarse: 2 nodes; flow row of coarse node 0 = [0.5, 0.5].
        let coarse_flow = CsrMatrix::from_dense(&[vec![0.5, 0.5], vec![0.0, 1.0]]);
        // Fine: 4 nodes; 0,1 -> coarse 0; 2,3 -> coarse 1.
        let map = vec![0u32, 0, 1, 1];
        let fine = project_flow(&coarse_flow, &map, 4);
        // Fine node 0: 0.5 split over children {0,1} (0.25 each) and 0.5
        // over {2,3}.
        assert!((fine.get(0, 0) - 0.25).abs() < 1e-12);
        assert!((fine.get(0, 3) - 0.25).abs() < 1e-12);
        assert!((fine.get(2, 2) - 0.5).abs() < 1e-12);
        for row in 0..4 {
            let sum: f64 = fine.row_values(row).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_graph() {
        let g = UnGraph::from_edges(0, &[]).unwrap();
        let c = MlrMcl::default()
            .cluster_ungraph(&g, &Exec::default())
            .unwrap();
        assert_eq!(c.n_nodes(), 0);
    }

    #[test]
    fn inflation_knob_changes_granularity() {
        let g = clique_ring(6, 5);
        let coarse = MlrMcl::with_inflation(1.3)
            .cluster_ungraph(&g, &Exec::default())
            .unwrap();
        let fine = MlrMcl::with_inflation(3.0)
            .cluster_ungraph(&g, &Exec::default())
            .unwrap();
        assert!(fine.n_clusters() >= coarse.n_clusters());
    }

    #[test]
    fn rejects_bad_inflation() {
        let g = clique_ring(2, 3);
        assert!(MlrMcl::with_inflation(0.9)
            .cluster_ungraph(&g, &Exec::default())
            .is_err());
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(MlrMcl::default().name(), "MLR-MCL");
    }

    #[test]
    fn converged_flag_reports_exhausted_iteration_budget() {
        let g = clique_ring(8, 6);
        // A run with a normal budget converges and says so.
        let ok = MlrMcl::default()
            .cluster_ungraph(&g, &Exec::default())
            .unwrap();
        assert!(ok.converged());
        // One single iteration cannot converge on this graph: the result is
        // best-effort and flagged, not an error.
        let mut options = MlrMclOptions::default();
        options.mcl.max_iter = 1;
        let best_effort = MlrMcl { options }
            .cluster_ungraph(&g, &Exec::default())
            .unwrap();
        assert!(!best_effort.converged());
        assert_eq!(best_effort.n_nodes(), g.n_nodes());
    }

    #[test]
    fn cancelled_token_aborts_clustering() {
        let g = clique_ring(8, 6);
        let token = symclust_sparse::CancelToken::new();
        token.cancel();
        let exec = Exec {
            token: Some(token),
            ..Exec::default()
        };
        let err = MlrMcl::default().cluster_ungraph(&g, &exec).unwrap_err();
        assert!(err.is_cancelled(), "got {err:?}");
    }

    #[test]
    fn live_token_matches_plain_clustering() {
        let g = clique_ring(8, 6);
        let exec = Exec {
            token: Some(symclust_sparse::CancelToken::new()),
            ..Exec::default()
        };
        let with_token = MlrMcl::default().cluster_ungraph(&g, &exec).unwrap();
        let plain = MlrMcl::default()
            .cluster_ungraph(&g, &Exec::default())
            .unwrap();
        assert_eq!(with_token.assignments(), plain.assignments());
    }

    #[test]
    fn observed_run_records_mcl_counters() {
        use crate::mcl::metric_names;
        let g = clique_ring(8, 6);
        let m = symclust_obs::MetricsRegistry::new();
        let exec = Exec {
            token: Some(symclust_sparse::CancelToken::new()),
            metrics: Some(m.clone()),
            ..Exec::default()
        };
        let c = MlrMcl::default().cluster_ungraph(&g, &exec).unwrap();
        assert!(c.converged());
        let snap = m.snapshot();
        assert_eq!(snap.counter(metric_names::RUNS), Some(1));
        assert!(snap.counter(metric_names::ITERATIONS).unwrap() >= 2);
        assert_eq!(snap.counter(metric_names::CONVERGED_RUNS), Some(1));
        assert_eq!(snap.counter(metric_names::NONCONVERGED_RUNS), None);
        // Converged run: nothing changed in the last iteration.
        assert_eq!(snap.gauge(metric_names::FINAL_RESIDUAL), Some(0.0));
    }
}
