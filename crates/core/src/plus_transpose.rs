//! The `A + Aᵀ` symmetrization (§3.1).
//!
//! The simplest possible symmetrization — drop edge directions, summing the
//! weights of reciprocal edge pairs. This is the *implicit* symmetrization
//! used by most prior work that "simply ignores directionality", included as
//! the primary baseline. Its failure mode is exactly Figure 1: nodes that
//! share links without linking to each other stay disconnected.

use crate::{Result, SymmetrizedGraph, Symmetrizer};
use std::time::Instant;
use symclust_graph::{DiGraph, UnGraph};
use symclust_sparse::{ops, Exec};

/// `U = A + Aᵀ`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlusTranspose;

impl Symmetrizer for PlusTranspose {
    fn name(&self) -> String {
        "A+A'".to_string()
    }

    fn symmetrize(&self, g: &DiGraph, exec: &Exec) -> Result<SymmetrizedGraph> {
        exec.checkpoint()?;
        let start = Instant::now();
        let u = ops::plus_transpose(g.adjacency())?;
        let mut un = UnGraph::from_symmetric_unchecked(u);
        if let Some(labels) = g.labels() {
            un = un.with_labels(labels.to_vec())?;
        }
        Ok(SymmetrizedGraph::new(un, self.name(), 0.0, start.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::generators::figure1_graph;

    #[test]
    fn sums_reciprocal_edge_weights() {
        let g = DiGraph::from_weighted_edges(2, &[(0, 1, 2.0), (1, 0, 3.0)]).unwrap();
        let s = PlusTranspose.symmetrize(&g, &Exec::default()).unwrap();
        assert_eq!(s.adjacency().get(0, 1), 5.0);
        assert_eq!(s.adjacency().get(1, 0), 5.0);
    }

    #[test]
    fn preserves_edge_set_structure() {
        let g = figure1_graph();
        let s = PlusTranspose.symmetrize(&g, &Exec::default()).unwrap();
        // Every original edge survives, undirected.
        for (u, v, _) in g.edges() {
            assert!(s.adjacency().get(u, v as usize) > 0.0);
        }
        // The Figure-1 failure mode: nodes 4 and 5 stay disconnected.
        assert_eq!(s.adjacency().get(4, 5), 0.0);
    }

    #[test]
    fn output_is_symmetric() {
        let g = figure1_graph();
        let s = PlusTranspose.symmetrize(&g, &Exec::default()).unwrap();
        assert!(s.adjacency().is_symmetric(0.0));
    }

    #[test]
    fn propagates_labels() {
        let g = DiGraph::from_edges(2, &[(0, 1)])
            .unwrap()
            .with_labels(vec!["a".into(), "b".into()])
            .unwrap();
        let s = PlusTranspose.symmetrize(&g, &Exec::default()).unwrap();
        assert_eq!(s.graph().label(1), "b");
    }

    #[test]
    fn name_matches_paper_notation() {
        assert_eq!(PlusTranspose.name(), "A+A'");
    }
}
