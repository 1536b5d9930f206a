//! Prune-threshold selection by node sampling (§5.3.1).
//!
//! "One can compute all the similarities corresponding to a small random
//! sample of the nodes, and choose a prune threshold such that the average
//! degree when this threshold is applied to the random sample approximates
//! the final average degree that the user desires. For many real networks,
//! an average degree of 50–150 in the symmetrized graph seems most
//! reasonable, since this is the size of typical clusters."

use crate::degree_discounted::{DegreeDiscountedOptions, SimilarityFactors};
use crate::Result;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use symclust_graph::DiGraph;

/// Result of sample-based threshold selection.
#[derive(Debug, Clone)]
pub struct ThresholdSelection {
    /// The selected threshold.
    pub threshold: f64,
    /// Average degree the sampled rows would have at that threshold.
    pub expected_avg_degree: f64,
    /// How many nodes were sampled.
    pub n_sampled: usize,
}

/// Selects a prune threshold for the Degree-discounted similarity of `g`
/// such that the symmetrized graph's average degree approximates
/// `target_avg_degree`, by computing the full similarity rows of
/// `sample_size` random nodes.
pub fn select_threshold(
    g: &DiGraph,
    opts: &DegreeDiscountedOptions,
    target_avg_degree: f64,
    sample_size: usize,
    seed: u64,
) -> Result<ThresholdSelection> {
    let n = g.n_nodes();
    let sample_size = sample_size.max(1).min(n);
    let factors = SimilarityFactors::build(g, opts)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<usize> = (0..n).collect();
    nodes.shuffle(&mut rng);
    nodes.truncate(sample_size);

    // Pool every similarity value from the sampled rows; the threshold that
    // yields average degree `t` keeps the top `t * sample_size` of them.
    let mut values: Vec<f64> = Vec::new();
    for &node in &nodes {
        for (_, v) in factors.row(node) {
            values.push(v);
        }
    }
    if values.is_empty() {
        return Ok(ThresholdSelection {
            threshold: 0.0,
            expected_avg_degree: 0.0,
            n_sampled: sample_size,
        });
    }
    values.sort_unstable_by(|a, b| b.total_cmp(a));
    let keep = ((target_avg_degree * sample_size as f64).round() as usize).max(1);
    let (threshold, kept) = if keep >= values.len() {
        // Everything already passes: threshold just below the minimum.
        (values[values.len() - 1] * 0.999, values.len())
    } else {
        (values[keep - 1], keep)
    };
    Ok(ThresholdSelection {
        threshold,
        expected_avg_degree: kept as f64 / sample_size as f64,
        n_sampled: sample_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DegreeDiscounted, Symmetrizer};
    use symclust_graph::generators::{shared_link_dsbm, SharedLinkDsbmConfig};
    use symclust_sparse::Exec;

    fn test_graph() -> DiGraph {
        shared_link_dsbm(&SharedLinkDsbmConfig {
            n_nodes: 400,
            n_clusters: 10,
            seed: 21,
            ..Default::default()
        })
        .unwrap()
        .graph
    }

    #[test]
    fn selected_threshold_hits_target_degree() {
        let g = test_graph();
        let opts = DegreeDiscountedOptions::default();
        let target = 20.0;
        let sel = select_threshold(&g, &opts, target, 100, 1).unwrap();
        assert!(sel.threshold > 0.0);
        // Symmetrize with the selected threshold and check the avg degree.
        let dd = DegreeDiscounted {
            options: DegreeDiscountedOptions {
                threshold: sel.threshold,
                ..opts
            },
        };
        let s = dd.symmetrize(&g, &Exec::default()).unwrap();
        let avg_degree = 2.0 * s.n_edges() as f64 / s.n_nodes() as f64;
        assert!(
            (avg_degree - target).abs() < target * 0.5,
            "target {target}, got {avg_degree} (threshold {})",
            sel.threshold
        );
    }

    #[test]
    fn higher_target_degree_gives_lower_threshold() {
        let g = test_graph();
        let opts = DegreeDiscountedOptions::default();
        let hi = select_threshold(&g, &opts, 50.0, 80, 1).unwrap();
        let lo = select_threshold(&g, &opts, 5.0, 80, 1).unwrap();
        assert!(lo.threshold > hi.threshold);
    }

    #[test]
    fn target_beyond_all_values_keeps_everything() {
        let g = test_graph();
        let opts = DegreeDiscountedOptions::default();
        let sel = select_threshold(&g, &opts, 1e9, 50, 1).unwrap();
        // Expected avg degree is just the sample's full degree.
        assert!(sel.expected_avg_degree > 0.0);
        assert!(sel.threshold > 0.0);
    }

    #[test]
    fn empty_graph_returns_zero_threshold() {
        let g = DiGraph::from_edges(10, &[]).unwrap();
        let sel = select_threshold(&g, &DegreeDiscountedOptions::default(), 50.0, 5, 1).unwrap();
        assert_eq!(sel.threshold, 0.0);
        assert_eq!(sel.expected_avg_degree, 0.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let g = test_graph();
        let opts = DegreeDiscountedOptions::default();
        let a = select_threshold(&g, &opts, 20.0, 50, 9).unwrap();
        let b = select_threshold(&g, &opts, 20.0, 50, 9).unwrap();
        assert_eq!(a.threshold, b.threshold);
    }
}
