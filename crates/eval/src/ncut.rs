//! Normalized cuts of clusterings, undirected (Eq. 1) and directed (Eq. 3).

use symclust_graph::{DiGraph, UnGraph};
use symclust_sparse::{pagerank, Exec, PageRankOptions};

/// Undirected normalized cut of a clustering: `Σ_c cut(c) / vol(c)`
/// (Eq. 1 of the paper summed over clusters; `vol` is the weighted-degree
/// sum). Clusters with zero volume contribute nothing.
pub fn normalized_cut(g: &UnGraph, assignments: &[u32]) -> f64 {
    assert_eq!(assignments.len(), g.n_nodes());
    let k = assignments
        .iter()
        .map(|&a| a as usize + 1)
        .max()
        .unwrap_or(0);
    let degrees = g.weighted_degrees();
    let mut vol = vec![0.0f64; k];
    let mut internal = vec![0.0f64; k];
    for (v, &a) in assignments.iter().enumerate() {
        vol[a as usize] += degrees[v];
    }
    for (u, v, w) in g.adjacency().iter() {
        if assignments[u] == assignments[v as usize] {
            internal[assignments[u] as usize] += w;
        }
    }
    (0..k)
        .filter(|&c| vol[c] > 0.0)
        .map(|c| (vol[c] - internal[c]) / vol[c])
        .sum()
}

/// Directed normalized cut, k-way generalization of Eq. 3:
/// `Σ_c (flow(c → c̄) + flow(c̄ → c)) / (2·π(c))`, where flows are
/// stationary one-step probabilities `π(i)P(i, j)`.
///
/// For a 2-clustering on a graph whose stationary distribution satisfies
/// `πP = π` exactly, this equals Eq. 3's `NCut_dir(S)` (outflow and inflow
/// of `S` coincide under stationarity) and therefore also equals the
/// undirected normalized cut of the Random-walk symmetrization — Gleich's
/// identity, verified in `tests/theory.rs`.
pub fn directed_normalized_cut(g: &DiGraph, assignments: &[u32], teleport: f64) -> f64 {
    assert_eq!(assignments.len(), g.n_nodes());
    let k = assignments
        .iter()
        .map(|&a| a as usize + 1)
        .max()
        .unwrap_or(0);
    let pi = pagerank(
        g.adjacency(),
        &PageRankOptions {
            teleport,
            ..Default::default()
        },
        &Exec::default(),
    )
    .expect("pagerank converges on any graph with teleport > 0")
    .pi;
    let out_deg = g.weighted_out_degrees();
    let mut mass = vec![0.0f64; k];
    for (v, &a) in assignments.iter().enumerate() {
        mass[a as usize] += pi[v];
    }
    // Cross-cluster stationary flow π(i)·P(i,j) per source/target cluster.
    let mut outflow = vec![0.0f64; k];
    let mut inflow = vec![0.0f64; k];
    for (u, v, w) in g.edges() {
        let (cu, cv) = (assignments[u] as usize, assignments[v as usize] as usize);
        if cu != cv && out_deg[u] > 0.0 {
            let flow = pi[u] * w / out_deg[u];
            outflow[cu] += flow;
            inflow[cv] += flow;
        }
    }
    (0..k)
        .filter(|&c| mass[c] > 0.0)
        .map(|c| (outflow[c] + inflow[c]) / (2.0 * mass[c]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::generators::{figure1_graph, two_cliques};

    #[test]
    fn undirected_ncut_hand_computed() {
        // Two triangles + bridge, perfect split: vol 7 each, cut 1.
        let g = UnGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            .unwrap();
        let ncut = normalized_cut(&g, &[0, 0, 0, 1, 1, 1]);
        assert!((ncut - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn undirected_ncut_zero_for_single_cluster() {
        let g = UnGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(normalized_cut(&g, &[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn undirected_ncut_worse_for_bad_split() {
        let g = UnGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            .unwrap();
        let good = normalized_cut(&g, &[0, 0, 0, 1, 1, 1]);
        let bad = normalized_cut(&g, &[0, 1, 0, 1, 0, 1]);
        assert!(good < bad);
    }

    #[test]
    fn directed_ncut_prefers_clique_split() {
        let g = two_cliques(5);
        let good: Vec<u32> = (0..10).map(|i| u32::from(i >= 5)).collect();
        let bad: Vec<u32> = (0..10).map(|i| (i % 2) as u32).collect();
        let ng = directed_normalized_cut(&g, &good, 0.05);
        let nb = directed_normalized_cut(&g, &bad, 0.05);
        assert!(ng < nb, "good {ng} >= bad {nb}");
    }

    #[test]
    fn directed_ncut_high_for_shared_link_cluster() {
        // The paper's key observation (§2.1.1): the natural cluster {4, 5}
        // of Figure 1 has HIGH directed NCut — a random walk always leaves
        // it in one step — even though it is a perfectly meaningful cluster.
        let g = figure1_graph();
        let mut assignment = vec![0u32; 9];
        assignment[4] = 1;
        assignment[5] = 1;
        let ncut = directed_normalized_cut(&g, &assignment, 0.05);
        // The {4,5} cluster term alone is near its maximum of 1 (every
        // walk step exits), so total exceeds 0.9 comfortably.
        assert!(ncut > 0.9, "ncut = {ncut}");
    }

    #[test]
    fn directed_ncut_zero_single_cluster() {
        let g = two_cliques(3);
        let ncut = directed_normalized_cut(&g, &[0; 6], 0.05);
        assert!(ncut.abs() < 1e-12);
    }
}
