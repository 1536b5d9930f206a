//! One-call pipeline: symmetrize → cluster → evaluate.
//!
//! The two-stage framework of the paper's Figure 2, packaged for
//! applications that want a single entry point with measurements included.

use std::time::Instant;
use symclust_cluster::{ClusterAlgorithm, Clustering};
use symclust_core::Symmetrizer;
use symclust_eval::{avg_f_score, modularity, normalized_cut};
use symclust_graph::{DiGraph, GroundTruth};
use symclust_sparse::Exec;

/// A configured symmetrize-then-cluster pipeline.
///
/// ```
/// use symclust::pipeline::Pipeline;
/// use symclust::prelude::*;
///
/// let g = figure1_graph();
/// let report = Pipeline::new(DegreeDiscounted::default(), MlrMcl::default())
///     .run(&g)
///     .unwrap();
/// assert!(report.clustering.same_cluster(4, 5));
/// assert!(report.modularity > 0.0);
/// ```
pub struct Pipeline<S, C> {
    symmetrizer: S,
    clusterer: C,
}

/// Everything a pipeline run produced and measured.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The clustering of the input graph's nodes.
    pub clustering: Clustering,
    /// Name of the symmetrization used.
    pub symmetrization: String,
    /// Name of the clustering algorithm used.
    pub algorithm: String,
    /// Undirected edges in the symmetrized graph.
    pub sym_edges: usize,
    /// Symmetrization wall time (seconds).
    pub symmetrize_secs: f64,
    /// Clustering wall time (seconds).
    pub cluster_secs: f64,
    /// Undirected normalized cut of the clustering on the symmetrized graph.
    pub normalized_cut: f64,
    /// Newman–Girvan modularity on the symmetrized graph.
    pub modularity: f64,
    /// Micro-averaged best-match F (percent), when ground truth was given.
    pub f_score: Option<f64>,
}

impl<S: Symmetrizer, C: ClusterAlgorithm> Pipeline<S, C> {
    /// Builds a pipeline from a symmetrizer and a clusterer.
    pub fn new(symmetrizer: S, clusterer: C) -> Self {
        Pipeline {
            symmetrizer,
            clusterer,
        }
    }

    /// Runs the pipeline without ground truth.
    pub fn run(&self, g: &DiGraph) -> Result<PipelineReport, Box<dyn std::error::Error>> {
        self.run_inner(g, None)
    }

    /// Runs the pipeline and scores the clustering against ground truth.
    pub fn run_with_truth(
        &self,
        g: &DiGraph,
        truth: &GroundTruth,
    ) -> Result<PipelineReport, Box<dyn std::error::Error>> {
        self.run_inner(g, Some(truth))
    }

    fn run_inner(
        &self,
        g: &DiGraph,
        truth: Option<&GroundTruth>,
    ) -> Result<PipelineReport, Box<dyn std::error::Error>> {
        let exec = Exec::default();
        let sym = self.symmetrizer.symmetrize(g, &exec)?;
        let start = Instant::now();
        let clustering = self.clusterer.cluster_ungraph(sym.graph(), &exec)?;
        let cluster_secs = start.elapsed().as_secs_f64();
        let f_score = truth.map(|t| avg_f_score(clustering.assignments(), t).avg_f);
        Ok(PipelineReport {
            symmetrization: sym.method().to_string(),
            algorithm: self.clusterer.name(),
            sym_edges: sym.n_edges(),
            symmetrize_secs: sym.elapsed().as_secs_f64(),
            cluster_secs,
            normalized_cut: normalized_cut(sym.graph(), clustering.assignments()),
            modularity: modularity(sym.graph(), clustering.assignments()),
            f_score,
            clustering,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_cluster::{MetisLike, MlrMcl};
    use symclust_core::{DegreeDiscounted, PlusTranspose};
    use symclust_graph::generators::{shared_link_dsbm, SharedLinkDsbmConfig};

    fn planted() -> symclust_graph::generators::GeneratedGraph {
        shared_link_dsbm(&SharedLinkDsbmConfig {
            n_nodes: 400,
            n_clusters: 8,
            seed: 31,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn pipeline_produces_full_report() {
        let g = planted();
        let report = Pipeline::new(DegreeDiscounted::default(), MetisLike::with_k(8))
            .run_with_truth(&g.graph, &g.truth)
            .unwrap();
        assert_eq!(report.symmetrization, "Degree-discounted");
        assert_eq!(report.algorithm, "Metis");
        assert_eq!(report.clustering.n_clusters(), 8);
        assert!(report.f_score.unwrap() > 40.0);
        assert!(report.sym_edges > 0);
        assert!(report.normalized_cut >= 0.0);
        assert!(report.modularity > 0.0);
        assert!(report.symmetrize_secs >= 0.0 && report.cluster_secs >= 0.0);
    }

    #[test]
    fn pipeline_without_truth_skips_f() {
        let g = planted();
        let report = Pipeline::new(PlusTranspose, MlrMcl::default())
            .run(&g.graph)
            .unwrap();
        assert!(report.f_score.is_none());
        assert_eq!(report.clustering.n_nodes(), 400);
    }

    #[test]
    fn better_symmetrization_gives_better_internal_quality() {
        let g = planted();
        let dd = Pipeline::new(DegreeDiscounted::default(), MetisLike::with_k(8))
            .run_with_truth(&g.graph, &g.truth)
            .unwrap();
        let pt = Pipeline::new(PlusTranspose, MetisLike::with_k(8))
            .run_with_truth(&g.graph, &g.truth)
            .unwrap();
        assert!(dd.f_score.unwrap() > pt.f_score.unwrap());
    }
}
