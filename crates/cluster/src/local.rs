//! Local partitioning via PageRank-Nibble.
//!
//! The paper (§2.1.1) singles out Andersen, Chung & Lang's local
//! partitioning \[1\] as the one scalable algorithm in the directed
//! normalized-cut line of work. This module implements the undirected
//! PageRank-Nibble primitive — approximate personalized PageRank by the
//! *push* algorithm followed by a sweep cut — and a directed front-end that
//! routes through the Random-walk symmetrization, which by Gleich's
//! identity preserves directed normalized cuts (§3.2).
//!
//! Use it to extract one community around a seed node without touching the
//! rest of the graph: cost is proportional to the output cluster's volume,
//! not the graph size.

use crate::{ClusterError, Result};
use std::collections::VecDeque;
use symclust_core::{RandomWalk, Symmetrizer};
use symclust_graph::{DiGraph, UnGraph};
use symclust_sparse::Exec;

/// Options for [`pagerank_nibble`].
#[derive(Debug, Clone, Copy)]
pub struct NibbleOptions {
    /// Teleport probability of the personalized walk (ACL's α).
    pub alpha: f64,
    /// Push tolerance: stop when every residual satisfies
    /// `r(u) < epsilon · deg(u)`. Smaller ⇒ larger support, better cuts.
    pub epsilon: f64,
    /// Upper bound on returned cluster size (0 = unbounded).
    pub max_cluster_size: usize,
}

impl Default for NibbleOptions {
    fn default() -> Self {
        NibbleOptions {
            alpha: 0.15,
            epsilon: 1e-5,
            max_cluster_size: 0,
        }
    }
}

/// A local cluster found around a seed node.
#[derive(Debug, Clone)]
pub struct LocalCluster {
    /// Member nodes, sorted ascending.
    pub members: Vec<u32>,
    /// Conductance of the cut: `cut(S) / min(vol(S), vol(V∖S))`.
    pub conductance: f64,
    /// Number of push operations performed (work measure).
    pub pushes: usize,
}

/// Approximate personalized PageRank by the ACL push algorithm. Returns the
/// dense approximation vector `p` (most entries zero) and the push count.
pub fn approximate_ppr(
    g: &UnGraph,
    seed: usize,
    alpha: f64,
    epsilon: f64,
) -> Result<(Vec<f64>, usize)> {
    let n = g.n_nodes();
    if seed >= n {
        return Err(ClusterError::InvalidConfig(format!(
            "seed {seed} out of range for {n} nodes"
        )));
    }
    if !(0.0..1.0).contains(&alpha) || alpha == 0.0 {
        return Err(ClusterError::InvalidConfig(format!(
            "alpha {alpha} outside (0, 1)"
        )));
    }
    if epsilon <= 0.0 {
        return Err(ClusterError::InvalidConfig(
            "epsilon must be positive".into(),
        ));
    }
    let degrees = g.weighted_degrees();
    // Scale-invariant residual threshold: the ACL condition r(u) < ε·d(u)
    // assumes unweighted degrees; for weighted graphs (e.g. the Random-walk
    // symmetrization, whose total volume is ~1) the degree is normalized by
    // the mean so ε keeps its usual meaning regardless of weight scale.
    let n_nonzero = degrees.iter().filter(|&&d| d > 0.0).count().max(1);
    let mean_degree = degrees.iter().sum::<f64>() / n_nonzero as f64;
    let norm = if mean_degree > 0.0 {
        1.0 / mean_degree
    } else {
        1.0
    };
    if degrees[seed] <= 0.0 {
        // Isolated seed: its own cluster, trivially.
        let mut p = vec![0.0; n];
        p[seed] = 1.0;
        return Ok((p, 0));
    }
    let mut p = vec![0.0f64; n];
    let mut r = vec![0.0f64; n];
    r[seed] = 1.0;
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut queued = vec![false; n];
    queue.push_back(seed as u32);
    queued[seed] = true;
    let mut pushes = 0usize;
    // Hard work bound: the push algorithm touches O(1/(ε·α)) volume.
    let max_pushes = ((2.0 / (epsilon * alpha)) as usize).max(1000);
    while let Some(u) = queue.pop_front() {
        let u = u as usize;
        queued[u] = false;
        let du = degrees[u];
        if du <= 0.0 || r[u] < epsilon * du * norm {
            continue;
        }
        pushes += 1;
        if pushes > max_pushes {
            break;
        }
        let ru = r[u];
        p[u] += alpha * ru;
        r[u] = (1.0 - alpha) * ru / 2.0;
        if r[u] >= epsilon * du * norm && !queued[u] {
            queue.push_back(u as u32);
            queued[u] = true;
        }
        let spread = (1.0 - alpha) * ru / 2.0;
        for (v, w) in g.neighbors(u) {
            let v = v as usize;
            r[v] += spread * w / du;
            if degrees[v] > 0.0 && r[v] >= epsilon * degrees[v] * norm && !queued[v] {
                queue.push_back(v as u32);
                queued[v] = true;
            }
        }
    }
    Ok((p, pushes))
}

/// Conductance of a node set: `cut(S) / min(vol(S), vol(V∖S))`.
pub fn conductance(g: &UnGraph, members: &[u32]) -> f64 {
    let mut in_set = vec![false; g.n_nodes()];
    for &m in members {
        in_set[m as usize] = true;
    }
    let degrees = g.weighted_degrees();
    let total_vol: f64 = degrees.iter().sum();
    let vol: f64 = members.iter().map(|&m| degrees[m as usize]).sum();
    let mut cut = 0.0;
    for &m in members {
        for (v, w) in g.neighbors(m as usize) {
            if !in_set[v as usize] {
                cut += w;
            }
        }
    }
    let denom = vol.min(total_vol - vol);
    if denom <= 0.0 {
        if cut == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        cut / denom
    }
}

/// PageRank-Nibble: approximate PPR from `seed`, then sweep the nodes in
/// decreasing `p(u)/deg(u)` order and return the prefix with the lowest
/// conductance.
pub fn pagerank_nibble(g: &UnGraph, seed: usize, opts: &NibbleOptions) -> Result<LocalCluster> {
    let (p, pushes) = approximate_ppr(g, seed, opts.alpha, opts.epsilon)?;
    let degrees = g.weighted_degrees();
    let total_vol: f64 = degrees.iter().sum();
    // Candidate nodes with positive mass, ordered by degree-normalized PPR.
    let mut order: Vec<u32> = (0..g.n_nodes() as u32)
        .filter(|&u| p[u as usize] > 0.0)
        .collect();
    order.sort_unstable_by(|&a, &b| {
        let ra = p[a as usize] / degrees[a as usize].max(1e-300);
        let rb = p[b as usize] / degrees[b as usize].max(1e-300);
        rb.total_cmp(&ra)
    });
    if order.is_empty() {
        return Ok(LocalCluster {
            members: vec![seed as u32],
            conductance: 0.0,
            pushes,
        });
    }
    let limit = if opts.max_cluster_size == 0 {
        order.len()
    } else {
        opts.max_cluster_size.min(order.len())
    };
    // Incremental sweep: maintain cut and volume as nodes enter the set.
    let mut in_set = vec![false; g.n_nodes()];
    let mut vol = 0.0f64;
    let mut cut = 0.0f64;
    let mut best_phi = f64::INFINITY;
    let mut best_len = 1;
    for (i, &u) in order.iter().take(limit).enumerate() {
        let u = u as usize;
        vol += degrees[u];
        for (v, w) in g.neighbors(u) {
            if in_set[v as usize] {
                cut -= w;
            } else if v as usize != u {
                cut += w;
            }
        }
        in_set[u] = true;
        // Standard sweep restriction: only sets up to half the volume are
        // candidate communities (beyond that the "cluster" is really the
        // complement, and float cancellation can even drive cut negative).
        if vol > total_vol / 2.0 {
            break;
        }
        let denom = vol.min(total_vol - vol);
        if denom > 0.0 {
            let phi = cut.max(0.0) / denom;
            if phi < best_phi {
                best_phi = phi;
                best_len = i + 1;
            }
        }
    }
    let mut members: Vec<u32> = order[..best_len].to_vec();
    members.sort_unstable();
    // Recompute from the final set: authoritative, and covers the case
    // where no sweep prefix qualified (best_phi untouched).
    let phi = conductance(g, &members);
    Ok(LocalCluster {
        members,
        conductance: phi,
        pushes,
    })
}

/// Local clustering of a *directed* graph around a seed: Random-walk
/// symmetrization (which preserves directed normalized cuts, §3.2) followed
/// by PageRank-Nibble. This is the framework's answer to Andersen et al.'s
/// directed local partitioning.
pub fn pagerank_nibble_directed(
    g: &DiGraph,
    seed: usize,
    opts: &NibbleOptions,
) -> Result<LocalCluster> {
    let sym = RandomWalk::default()
        .symmetrize(g, &Exec::default())
        .map_err(|e| ClusterError::InvalidConfig(format!("symmetrization failed: {e}")))?;
    pagerank_nibble(sym.graph(), seed, opts)
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
    fn ppr_mass_concentrates_near_seed() {
        let g = two_cliques_un(6);
        let (p, pushes) = approximate_ppr(&g, 0, 0.15, 1e-6).unwrap();
        assert!(pushes > 0);
        // Seed-side mass exceeds far-side mass.
        let near: f64 = p[..6].iter().sum();
        let far: f64 = p[6..].iter().sum();
        assert!(near > 3.0 * far, "near {near} far {far}");
        // Approximation never exceeds total mass 1.
        assert!(p.iter().sum::<f64>() <= 1.0 + 1e-9);
    }

    #[test]
    fn nibble_recovers_seed_clique() {
        let g = two_cliques_un(8);
        let c = pagerank_nibble(&g, 2, &NibbleOptions::default()).unwrap();
        assert_eq!(c.members, (0..8).collect::<Vec<u32>>());
        // Conductance of a k-clique with one external edge: 1/vol.
        assert!(c.conductance < 0.05, "phi = {}", c.conductance);
    }

    #[test]
    fn nibble_from_other_side() {
        let g = two_cliques_un(8);
        let c = pagerank_nibble(&g, 12, &NibbleOptions::default()).unwrap();
        assert_eq!(c.members, (8..16).collect::<Vec<u32>>());
    }

    #[test]
    fn conductance_hand_computed() {
        let g = two_cliques_un(4);
        // Clique side: vol = 3*4 + 1 = 13, cut = 1 → φ = 1/13.
        let phi = conductance(&g, &[0, 1, 2, 3]);
        assert!((phi - 1.0 / 13.0).abs() < 1e-12);
        // Whole graph: cut 0.
        let all: Vec<u32> = (0..8).collect();
        assert_eq!(conductance(&g, &all), 0.0);
    }

    #[test]
    fn isolated_seed_is_own_cluster() {
        let g = UnGraph::from_edges(4, &[(0, 1)]).unwrap();
        let c = pagerank_nibble(&g, 3, &NibbleOptions::default()).unwrap();
        assert_eq!(c.members, vec![3]);
    }

    #[test]
    fn max_cluster_size_caps_sweep() {
        let g = two_cliques_un(8);
        let c = pagerank_nibble(
            &g,
            0,
            &NibbleOptions {
                max_cluster_size: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(c.members.len() <= 3);
    }

    #[test]
    fn rejects_bad_arguments() {
        let g = two_cliques_un(3);
        assert!(approximate_ppr(&g, 99, 0.15, 1e-4).is_err());
        assert!(approximate_ppr(&g, 0, 0.0, 1e-4).is_err());
        assert!(approximate_ppr(&g, 0, 1.5, 1e-4).is_err());
        assert!(approximate_ppr(&g, 0, 0.15, 0.0).is_err());
    }

    #[test]
    fn directed_nibble_finds_shared_link_cluster() {
        // Figure-1 graph: nibble from node 4 should pull in node 5's
        // neighborhood via the random-walk symmetrization.
        let g = symclust_graph::generators::two_cliques(6);
        let c = pagerank_nibble_directed(&g, 0, &NibbleOptions::default()).unwrap();
        // Seed-side clique recovered.
        for i in 0..6u32 {
            assert!(c.members.contains(&i), "missing {i}: {:?}", c.members);
        }
    }

    #[test]
    fn coarser_epsilon_does_less_work() {
        let g = two_cliques_un(10);
        let fine = pagerank_nibble(
            &g,
            0,
            &NibbleOptions {
                epsilon: 1e-7,
                ..Default::default()
            },
        )
        .unwrap();
        let coarse = pagerank_nibble(
            &g,
            0,
            &NibbleOptions {
                epsilon: 1e-3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(coarse.pushes <= fine.pushes);
    }
}
