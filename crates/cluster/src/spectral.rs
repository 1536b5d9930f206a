//! Normalized spectral clustering of undirected graphs.
//!
//! Shi–Malik style: compute the `k` smallest eigenvectors of the symmetric
//! normalized Laplacian `L = I − D^{-1/2} A D^{-1/2}` (via Lanczos),
//! row-normalize the spectral embedding, and run k-means++ on the rows.
//! Used standalone as a quality reference and as the spectral engine inside
//! [`crate::BestWCut`].

use crate::clustering::Clustering;
use crate::kmeans::{kmeans, KMeansOptions};
use crate::{ClusterAlgorithm, ClusterError, Result};
use symclust_graph::UnGraph;
use symclust_sparse::{lanczos_smallest, ops, CsrMatrix, Exec, LanczosOptions};

/// Options for [`SpectralClustering`].
#[derive(Debug, Clone, Copy)]
pub struct SpectralOptions {
    /// Number of clusters (and eigenvectors).
    pub k: usize,
    /// k-means settings for the embedding.
    pub kmeans: KMeansOptions,
    /// Lanczos settings.
    pub lanczos: LanczosOptions,
}

impl Default for SpectralOptions {
    fn default() -> Self {
        SpectralOptions {
            k: 8,
            kmeans: KMeansOptions::default(),
            lanczos: LanczosOptions::default(),
        }
    }
}

/// Shi–Malik normalized spectral clustering.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpectralClustering {
    /// Execution options.
    pub options: SpectralOptions,
}

impl SpectralClustering {
    /// Creates a spectral clusterer for `k` clusters.
    pub fn with_k(k: usize) -> Self {
        SpectralClustering {
            options: SpectralOptions {
                k,
                ..Default::default()
            },
        }
    }
}

/// Builds the symmetric normalized Laplacian `I − D^{-1/2} A D^{-1/2}`.
/// Zero-degree nodes get an identity row (eigenvalue 1, isolated in the
/// embedding).
pub fn normalized_laplacian(g: &UnGraph) -> CsrMatrix {
    let a = g.adjacency();
    let degrees = g.weighted_degrees();
    let inv_sqrt: Vec<f64> = degrees
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let mut norm = a.clone();
    ops::scale_rows(&mut norm, &inv_sqrt).expect("degree length matches");
    ops::scale_cols(&mut norm, &inv_sqrt).expect("degree length matches");
    let eye = CsrMatrix::identity(a.n_rows());
    ops::add_scaled(&eye, 1.0, &norm, -1.0).expect("same shape")
}

/// Clusters rows of a spectral embedding (n × k, row-major after
/// row-normalization) with k-means++.
pub fn cluster_embedding(
    eigenvectors: &[Vec<f64>],
    n: usize,
    kmeans_opts: &KMeansOptions,
) -> Result<Clustering> {
    let d = eigenvectors.len();
    let mut points = vec![0.0f64; n * d];
    for (j, vec) in eigenvectors.iter().enumerate() {
        for i in 0..n {
            points[i * d + j] = vec[i];
        }
    }
    // Row-normalize (standard for normalized spectral clustering).
    for i in 0..n {
        let row = &mut points[i * d..(i + 1) * d];
        let norm: f64 = row.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
    }
    let result = kmeans(&points, n, d, kmeans_opts)?;
    Ok(Clustering::from_assignments(&result.assignments))
}

impl ClusterAlgorithm for SpectralClustering {
    fn name(&self) -> String {
        "Spectral".to_string()
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
        let l = normalized_laplacian(g);
        let eig = lanczos_smallest(&l, k, &self.options.lanczos, exec)?;
        let kmeans_opts = KMeansOptions {
            k,
            ..self.options.kmeans
        };
        cluster_embedding(&eig.eigenvectors, n, &kmeans_opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cliques_un(k: usize) -> UnGraph {
        let mut edges = Vec::new();
        for base in [0, k] {
            for i in 0..k {
                for j in (i + 1)..k {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((k - 1, k));
        UnGraph::from_edges(2 * k, &edges).unwrap()
    }

    #[test]
    fn laplacian_psd_and_null_vector() {
        let g = two_cliques_un(4);
        let l = normalized_laplacian(&g);
        assert!(l.is_symmetric(1e-12));
        // L · D^{1/2}·1 = 0 for connected graphs.
        let d_sqrt: Vec<f64> = g.weighted_degrees().iter().map(|d| d.sqrt()).collect();
        let y = l.mul_vec(&d_sqrt).unwrap();
        for v in y {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn laplacian_handles_isolated_nodes() {
        let g = UnGraph::from_edges(3, &[(0, 1)]).unwrap();
        let l = normalized_laplacian(&g);
        assert_eq!(l.get(2, 2), 1.0);
        assert_eq!(l.get(2, 0), 0.0);
    }

    #[test]
    fn separates_two_cliques() {
        let g = two_cliques_un(6);
        let c = SpectralClustering::with_k(2)
            .cluster_ungraph(&g, &Exec::default())
            .unwrap();
        assert_eq!(c.n_clusters(), 2);
        for i in 0..6 {
            assert!(c.same_cluster(0, i), "node {i} strayed");
            assert!(c.same_cluster(6, 6 + i), "node {} strayed", 6 + i);
        }
        assert!(!c.same_cluster(0, 6));
    }

    #[test]
    fn finds_four_cliques() {
        let mut edges = Vec::new();
        for c in 0..4 {
            let base = c * 5;
            for i in 0..5 {
                for j in (i + 1)..5 {
                    edges.push((base + i, base + j));
                }
            }
            edges.push((base + 4, (base + 5) % 20));
        }
        let g = UnGraph::from_edges(20, &edges).unwrap();
        let c = SpectralClustering::with_k(4)
            .cluster_ungraph(&g, &Exec::default())
            .unwrap();
        assert_eq!(c.n_clusters(), 4);
        let mut intact = 0;
        for clique in 0..4 {
            let first = c.cluster_of(clique * 5);
            if (0..5).all(|i| c.cluster_of(clique * 5 + i) == first) {
                intact += 1;
            }
        }
        assert!(intact >= 3, "{intact}/4 cliques intact");
    }

    #[test]
    fn edge_cases() {
        let g = two_cliques_un(3);
        assert!(SpectralClustering::with_k(0)
            .cluster_ungraph(&g, &Exec::default())
            .is_err());
        assert_eq!(
            SpectralClustering::with_k(100)
                .cluster_ungraph(&g, &Exec::default())
                .unwrap()
                .n_clusters(),
            6
        );
        let empty = UnGraph::from_edges(0, &[]).unwrap();
        assert_eq!(
            SpectralClustering::with_k(2)
                .cluster_ungraph(&empty, &Exec::default())
                .unwrap()
                .n_nodes(),
            0
        );
    }

    #[test]
    fn cluster_embedding_separates_obvious_blocks() {
        // Two eigenvector columns that cleanly separate nodes 0-2 from 3-5.
        let v1 = vec![1.0, 1.0, 1.0, -1.0, -1.0, -1.0];
        let v2 = vec![0.5, 0.5, 0.5, 0.5, 0.5, 0.5];
        let c = cluster_embedding(
            &[v2, v1],
            6,
            &KMeansOptions {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(c.same_cluster(0, 1) && c.same_cluster(1, 2));
        assert!(c.same_cluster(3, 4) && c.same_cluster(4, 5));
        assert!(!c.same_cluster(0, 3));
    }
}
