//! Regularized Markov Clustering (R-MCL).
//!
//! The flow-simulation core of MLR-MCL (Satuluri & Parthasarathy, KDD 2009).
//! Classic MCL alternates *expansion* (`M := M·M`) and *inflation*
//! (element-wise power then renormalization); R-MCL replaces self-expansion
//! with multiplication by the fixed canonical transition matrix `M_G`
//! (`M := M·M_G` in the row-stochastic convention used here), which
//! regularizes flows toward the graph topology and avoids MCL's tendency to
//! produce massive attractor imbalance.
//!
//! Rows of `M` are kept sparse by per-row pruning (drop entries below a
//! fraction of the row maximum, keep at most `max_row_nnz`), the standard
//! MCL scalability device.

use crate::clustering::Clustering;
use crate::{ClusterError, Result};
use symclust_graph::stats::UnionFind;
use symclust_graph::UnGraph;
use symclust_sparse::{ops, CsrMatrix, Exec};

/// Stable metric names recorded by the R-MCL iteration (DESIGN.md §11).
pub mod metric_names {
    /// R-MCL iteration loops completed (one per flow run, across levels).
    pub const RUNS: &str = "mcl.runs";
    /// Total expand–inflate–prune iterations performed.
    pub const ITERATIONS: &str = "mcl.iterations";
    /// Runs whose assignment stabilized within the iteration budget.
    pub const CONVERGED_RUNS: &str = "mcl.converged_runs";
    /// Runs that exhausted the budget without stabilizing.
    pub const NONCONVERGED_RUNS: &str = "mcl.nonconverged_runs";
    /// Gauge: fraction of nodes whose cluster assignment changed in the
    /// last iteration of the most recent run (0 at convergence).
    pub const FINAL_RESIDUAL: &str = "mcl.final_residual";
}

/// Options for [`rmcl`].
#[derive(Debug, Clone, Copy)]
pub struct MclOptions {
    /// Inflation exponent `r > 1`. Higher inflation yields more, smaller
    /// clusters; this is how MLR-MCL's output granularity is (indirectly)
    /// controlled, as the paper notes in §4.2.
    pub inflation: f64,
    /// Iteration budget.
    pub max_iter: usize,
    /// Per-row relative prune threshold: entries below
    /// `prune_threshold * row_max` are dropped after inflation.
    pub prune_threshold: f64,
    /// Keep at most this many entries per row after pruning.
    pub max_row_nnz: usize,
    /// Cap on the canonical flow matrix's row width: hub rows of `M_G` are
    /// truncated to their `max_graph_row_nnz` heaviest entries (then
    /// renormalized). Hub rows spread vanishing flow everywhere — it is
    /// pruned right after inflation anyway — but each expansion pays for
    /// the full fan-out; capping bounds the per-iteration cost at
    /// `n · max_row_nnz · max_graph_row_nnz`.
    pub max_graph_row_nnz: usize,
    /// Declare convergence after the cluster assignment is stable for this
    /// many consecutive iterations.
    pub stable_iterations: usize,
}

impl Default for MclOptions {
    fn default() -> Self {
        MclOptions {
            inflation: 2.0,
            max_iter: 40,
            prune_threshold: 1e-3,
            max_row_nnz: 64,
            max_graph_row_nnz: 512,
            stable_iterations: 2,
        }
    }
}

/// Outcome of an R-MCL run.
#[derive(Debug, Clone)]
pub struct MclResult {
    /// The extracted hard clustering.
    pub clustering: Clustering,
    /// The converged flow matrix (row-stochastic).
    pub flow: CsrMatrix,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the assignment stabilized within the budget.
    pub converged: bool,
}

/// Builds the canonical flow matrix `M_G`: adjacency plus self-loops
/// (weight = the node's maximum incident edge weight, so self-flow is
/// comparable to the strongest neighbor flow), row-normalized. Rows wider
/// than `max_graph_row_nnz` are truncated to their heaviest entries before
/// normalization (see [`MclOptions::max_graph_row_nnz`]); self-loops carry
/// the row maximum so they always survive truncation.
pub fn canonical_flow_capped(g: &UnGraph, max_graph_row_nnz: usize) -> CsrMatrix {
    let a = g.adjacency();
    let n = a.n_rows();
    let mut loop_weights = CsrMatrix::identity(n);
    {
        let values = loop_weights.values_mut();
        for (row, v) in values.iter_mut().enumerate() {
            let row_max = a.row_values(row).iter().cloned().fold(0.0f64, f64::max);
            *v = if row_max > 0.0 { row_max } else { 1.0 };
        }
    }
    let mut with_loops =
        ops::add(&ops::drop_diagonal(a), &loop_weights).expect("same-shape add cannot fail");
    if max_graph_row_nnz > 0 {
        with_loops = ops::top_k_per_row(&with_loops, max_graph_row_nnz);
    }
    ops::row_normalize(&with_loops)
}

/// [`canonical_flow_capped`] with the default row cap.
pub fn canonical_flow(g: &UnGraph) -> CsrMatrix {
    canonical_flow_capped(g, MclOptions::default().max_graph_row_nnz)
}

/// Applies inflation (element-wise power `r`), per-row pruning and
/// renormalization to a row-stochastic matrix.
pub fn inflate_and_prune(m: &CsrMatrix, opts: &MclOptions) -> CsrMatrix {
    let n = m.n_rows();
    let mut indptr = Vec::with_capacity(n + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut scratch: Vec<(u32, f64)> = Vec::new();
    for row in 0..n {
        scratch.clear();
        let mut row_max = 0.0f64;
        for (c, v) in m.row_iter(row) {
            let p = v.powf(opts.inflation);
            if p > row_max {
                row_max = p;
            }
            scratch.push((c, p));
        }
        let cutoff = row_max * opts.prune_threshold;
        scratch.retain(|&(_, v)| v >= cutoff && v > 0.0);
        if scratch.len() > opts.max_row_nnz {
            scratch.sort_unstable_by(|a, b| b.1.total_cmp(&a.1));
            scratch.truncate(opts.max_row_nnz);
            scratch.sort_unstable_by_key(|&(c, _)| c);
        }
        let sum: f64 = scratch.iter().map(|&(_, v)| v).sum();
        if sum > 0.0 {
            for &(c, v) in &scratch {
                indices.push(c);
                values.push(v / sum);
            }
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_parts_unchecked(n, m.n_cols(), indptr, indices, values)
}

/// Orphan-repair level: a self-attracted node that attracts nobody else
/// joins its strongest other target if that flow is at least this fraction
/// of its self-flow.
pub const ORPHAN_REATTACH_THRESHOLD: f64 = 0.5;

/// Fused expansion + inflation + pruning: computes one R-MCL iteration
/// `M' = inflate_and_prune(M · M_G)` without materializing the expanded
/// matrix. The expanded row (potentially `max_row_nnz × avg_degree` wide)
/// goes straight from the Gustavson accumulator through inflation and
/// top-`max_row_nnz` selection, skipping the column sort of the wide
/// intermediate — the dominant cost of the naive two-step pipeline.
pub fn expand_inflate_prune(m: &CsrMatrix, m_g: &CsrMatrix, opts: &MclOptions) -> CsrMatrix {
    let n = m.n_rows();
    let n_cols = m_g.n_cols();
    let mut acc = vec![0.0f64; n_cols];
    let mut touched: Vec<u32> = Vec::new();
    let mut scratch: Vec<(u32, f64)> = Vec::new();
    let mut indptr = Vec::with_capacity(n + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    for row in 0..n {
        // Expand: acc = Σ_k M(row, k) · M_G(k, ·).
        for (k, mv) in m.row_iter(row) {
            for (j, gv) in m_g.row_iter(k as usize) {
                let slot = &mut acc[j as usize];
                if *slot == 0.0 {
                    touched.push(j);
                }
                *slot += mv * gv;
            }
        }
        // Inflate + threshold against the inflated row maximum.
        scratch.clear();
        let mut row_max = 0.0f64;
        for &j in &touched {
            let v = acc[j as usize];
            acc[j as usize] = 0.0;
            if v > 0.0 {
                let p = v.powf(opts.inflation);
                if p > row_max {
                    row_max = p;
                }
                scratch.push((j, p));
            }
        }
        touched.clear();
        let cutoff = row_max * opts.prune_threshold;
        scratch.retain(|&(_, v)| v >= cutoff && v > 0.0);
        if scratch.len() > opts.max_row_nnz {
            // Partial selection of the top entries, then sort only those.
            let k = opts.max_row_nnz;
            scratch.select_nth_unstable_by(k - 1, |a, b| b.1.total_cmp(&a.1));
            scratch.truncate(k);
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
    CsrMatrix::from_raw_parts_unchecked(n, n_cols, indptr, indices, values)
}

/// Row-parallel variant of [`expand_inflate_prune`]: output rows are split
/// One worker's share of the parallel flow matrix: `(indptr deltas,
/// indices, values)` for its contiguous row chunk.
type FlowChunk = (Vec<usize>, Vec<u32>, Vec<f64>);

/// into contiguous chunks processed by crossbeam scoped threads, each with
/// its own accumulator. Falls back to the serial kernel for small inputs or
/// single-thread environments. Produces the same output as the serial
/// kernel (each row's computation is independent).
pub fn expand_inflate_prune_parallel(
    m: &CsrMatrix,
    m_g: &CsrMatrix,
    opts: &MclOptions,
    n_threads: usize,
) -> CsrMatrix {
    let n = m.n_rows();
    let n_threads = if n_threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        n_threads
    };
    if n_threads <= 1 || n < 4 * n_threads {
        return expand_inflate_prune(m, m_g, opts);
    }
    let chunk = n.div_ceil(n_threads);
    let mut results: Vec<Option<FlowChunk>> = (0..n_threads).map(|_| None).collect();
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let opts = *opts;
            handles.push((
                t,
                scope.spawn(move |_| {
                    let n_cols = m_g.n_cols();
                    let mut acc = vec![0.0f64; n_cols];
                    let mut touched: Vec<u32> = Vec::new();
                    let mut scratch: Vec<(u32, f64)> = Vec::new();
                    let mut row_lens = Vec::with_capacity(hi - lo);
                    let mut indices: Vec<u32> = Vec::new();
                    let mut values: Vec<f64> = Vec::new();
                    for row in lo..hi {
                        let before = indices.len();
                        for (k, mv) in m.row_iter(row) {
                            for (j, gv) in m_g.row_iter(k as usize) {
                                let slot = &mut acc[j as usize];
                                if *slot == 0.0 {
                                    touched.push(j);
                                }
                                *slot += mv * gv;
                            }
                        }
                        scratch.clear();
                        let mut row_max = 0.0f64;
                        for &j in &touched {
                            let v = acc[j as usize];
                            acc[j as usize] = 0.0;
                            if v > 0.0 {
                                let p = v.powf(opts.inflation);
                                if p > row_max {
                                    row_max = p;
                                }
                                scratch.push((j, p));
                            }
                        }
                        touched.clear();
                        let cutoff = row_max * opts.prune_threshold;
                        scratch.retain(|&(_, v)| v >= cutoff && v > 0.0);
                        if scratch.len() > opts.max_row_nnz {
                            let k = opts.max_row_nnz;
                            scratch.select_nth_unstable_by(k - 1, |a, b| b.1.total_cmp(&a.1));
                            scratch.truncate(k);
                        }
                        scratch.sort_unstable_by_key(|&(c, _)| c);
                        let sum: f64 = scratch.iter().map(|&(_, v)| v).sum();
                        if sum > 0.0 {
                            for &(c, v) in &scratch {
                                indices.push(c);
                                values.push(v / sum);
                            }
                        }
                        row_lens.push(indices.len() - before);
                    }
                    (row_lens, indices, values)
                }),
            ));
        }
        for (t, handle) in handles {
            results[t] = Some(handle.join().expect("mcl worker panicked"));
        }
    })
    .expect("crossbeam scope failed");
    let mut indptr = Vec::with_capacity(n + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    for (row_lens, idx, vals) in results.into_iter().flatten() {
        for len in row_lens {
            indptr.push(indptr.last().unwrap() + len);
        }
        indices.extend_from_slice(&idx);
        values.extend_from_slice(&vals);
    }
    CsrMatrix::from_raw_parts_unchecked(n, m_g.n_cols(), indptr, indices, values)
}

/// Extracts a hard clustering from a flow matrix.
///
/// Each node attaches to its highest-flow column (its *attractor*), and
/// attraction chains merge via union–find — the standard R-MCL reading.
/// One subtlety: R-MCL's regularization keeps a persistent trickle of flow
/// across cluster boundaries (the fixed operator `M_G` re-injects bridge
/// edges every iteration), and for symmetric clique-like clusters the flow
/// equilibrium is a *uniform block* whose argmax is decided by noise. A
/// boundary node can then be self-attracted while nothing else attracts it,
/// stranding it as a spurious singleton. The repair pass reattaches such
/// orphans to their strongest non-self target when that flow is comparable
/// ([`ORPHAN_REATTACH_THRESHOLD`]) to the self-flow.
pub fn extract_clusters(flow: &CsrMatrix) -> Clustering {
    let n = flow.n_rows();
    let mut attractor: Vec<u32> = (0..n as u32).collect();
    let mut best_other: Vec<Option<(u32, f64)>> = vec![None; n];
    let mut self_flow = vec![0.0f64; n];
    for row in 0..n {
        let mut best: Option<(u32, f64)> = None;
        for (c, v) in flow.row_iter(row) {
            if c as usize == row {
                self_flow[row] = v;
            } else if best_other[row].is_none_or(|(_, bv)| v > bv) {
                best_other[row] = Some((c, v));
            }
            if best.is_none_or(|(_, bv)| v > bv) {
                best = Some((c, v));
            }
        }
        if let Some((a, _)) = best {
            attractor[row] = a;
        }
    }
    // Count incoming attractions to detect orphans.
    let mut attracted = vec![false; n];
    for (row, &a) in attractor.iter().enumerate() {
        if a as usize != row {
            attracted[a as usize] = true;
        }
    }
    let mut uf = UnionFind::new(n);
    for row in 0..n {
        let mut target = attractor[row] as usize;
        if target == row && !attracted[row] {
            if let Some((other, v)) = best_other[row] {
                if v >= ORPHAN_REATTACH_THRESHOLD * self_flow[row] {
                    target = other as usize;
                }
            }
        }
        uf.union(row, target);
    }
    let (labels, _) = uf.into_component_labels();
    Clustering::from_assignments(&labels)
}

/// Runs the R-MCL iteration `M := inflate(M · M_G)` starting from `m0`.
/// Returns the final flow, iterations used and whether it converged.
/// Polls `exec`'s token before every expand-inflate-prune step, so a
/// runaway flow computation stops within one iteration of the token
/// tripping, and records the run's counters into `exec.metrics`.
pub fn rmcl_iterate(
    m_g: &CsrMatrix,
    m0: CsrMatrix,
    opts: &MclOptions,
    max_iter: usize,
    exec: &Exec,
) -> Result<(CsrMatrix, usize, bool)> {
    let mut m = m0;
    let mut prev_assignment: Option<Vec<u32>> = None;
    let mut stable = 0usize;
    let mut iterations = 0usize;
    // Convergence residual: fraction of nodes whose assignment changed in
    // the latest iteration (1.0 before the first comparison is possible).
    let mut residual = 1.0f64;
    let mut converged = false;
    for iter in 1..=max_iter {
        exec.checkpoint()?;
        iterations = iter;
        m = expand_inflate_prune(&m, m_g, opts);
        let assignment = extract_clusters(&m).assignments().to_vec();
        let changed = match prev_assignment.as_deref() {
            Some(prev) => prev.iter().zip(&assignment).filter(|(a, b)| a != b).count(),
            None => assignment.len(),
        };
        residual = changed as f64 / assignment.len().max(1) as f64;
        if changed == 0 && prev_assignment.is_some() {
            stable += 1;
            if stable >= opts.stable_iterations {
                converged = true;
                break;
            }
        } else {
            stable = 0;
        }
        prev_assignment = Some(assignment);
    }
    if let Some(metrics) = exec.metrics() {
        metrics.counter(metric_names::RUNS).inc();
        metrics
            .counter(metric_names::ITERATIONS)
            .add(iterations as u64);
        if converged {
            metrics.counter(metric_names::CONVERGED_RUNS).inc();
        } else {
            metrics.counter(metric_names::NONCONVERGED_RUNS).inc();
        }
        metrics.gauge(metric_names::FINAL_RESIDUAL).set(residual);
    }
    Ok((m, iterations, converged))
}

/// Runs single-level R-MCL on an undirected graph.
pub fn rmcl(g: &UnGraph, opts: &MclOptions) -> Result<MclResult> {
    if opts.inflation <= 1.0 {
        return Err(ClusterError::InvalidConfig(format!(
            "inflation must exceed 1.0, got {}",
            opts.inflation
        )));
    }
    let m_g = canonical_flow_capped(g, opts.max_graph_row_nnz);
    let (flow, iterations, converged) =
        rmcl_iterate(&m_g, m_g.clone(), opts, opts.max_iter, &Exec::default())?;
    let clustering = extract_clusters(&flow).with_converged(converged);
    Ok(MclResult {
        clustering,
        flow,
        iterations,
        converged,
    })
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
        edges.push((k - 1, k)); // bridge
        UnGraph::from_edges(2 * k, &edges).unwrap()
    }

    #[test]
    fn canonical_flow_is_row_stochastic_with_loops() {
        let g = two_cliques_un(3);
        let m = canonical_flow(&g);
        for row in 0..m.n_rows() {
            let sum: f64 = m.row_values(row).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(m.get(row, row) > 0.0, "missing self-loop on {row}");
        }
    }

    #[test]
    fn canonical_flow_isolated_node_self_loops() {
        let g = UnGraph::from_edges(3, &[(0, 1)]).unwrap();
        let m = canonical_flow(&g);
        assert_eq!(m.get(2, 2), 1.0);
    }

    #[test]
    fn inflation_sharpens_rows() {
        let m = CsrMatrix::from_dense(&[vec![0.8, 0.2], vec![0.5, 0.5]]);
        let opts = MclOptions {
            inflation: 2.0,
            prune_threshold: 0.0,
            ..Default::default()
        };
        let i = inflate_and_prune(&m, &opts);
        // 0.8² / (0.8² + 0.2²) ≈ 0.941
        assert!((i.get(0, 0) - 0.64 / 0.68).abs() < 1e-12);
        assert!((i.get(1, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pruning_caps_row_width() {
        let m = CsrMatrix::from_dense(&[vec![0.4, 0.3, 0.2, 0.1]]);
        let opts = MclOptions {
            max_row_nnz: 2,
            prune_threshold: 0.0,
            inflation: 1.5,
            ..Default::default()
        };
        let p = inflate_and_prune(&m, &opts);
        assert_eq!(p.row_nnz(0), 2);
        let sum: f64 = p.row_values(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // The two largest entries survive.
        assert!(p.get(0, 0) > 0.0 && p.get(0, 1) > 0.0);
    }

    #[test]
    fn separates_two_cliques() {
        let g = two_cliques_un(5);
        let r = rmcl(&g, &MclOptions::default()).unwrap();
        assert!(r.converged, "did not converge in {} iters", r.iterations);
        assert_eq!(r.clustering.n_clusters(), 2);
        for i in 0..5 {
            assert!(r.clustering.same_cluster(0, i));
            assert!(r.clustering.same_cluster(5, 5 + i));
        }
        assert!(!r.clustering.same_cluster(0, 5));
    }

    #[test]
    fn flow_rows_remain_stochastic() {
        let g = two_cliques_un(4);
        let r = rmcl(&g, &MclOptions::default()).unwrap();
        for row in 0..r.flow.n_rows() {
            let sum: f64 = r.flow.row_values(row).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {row} sums to {sum}");
        }
    }

    #[test]
    fn higher_inflation_gives_more_clusters() {
        // A ring of 4 small cliques lightly connected.
        let mut edges = Vec::new();
        let k = 4;
        for c in 0..4 {
            let base = c * k;
            for i in 0..k {
                for j in (i + 1)..k {
                    edges.push((base + i, base + j));
                }
            }
            edges.push((base + k - 1, (base + k) % (4 * k)));
        }
        let g = UnGraph::from_edges(4 * k, &edges).unwrap();
        let low = rmcl(
            &g,
            &MclOptions {
                inflation: 1.2,
                ..Default::default()
            },
        )
        .unwrap();
        let high = rmcl(
            &g,
            &MclOptions {
                inflation: 3.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            high.clustering.n_clusters() >= low.clustering.n_clusters(),
            "high inflation {} clusters < low inflation {}",
            high.clustering.n_clusters(),
            low.clustering.n_clusters()
        );
        assert_eq!(high.clustering.n_clusters(), 4);
    }

    #[test]
    fn isolated_nodes_become_singletons() {
        let g = UnGraph::from_edges(4, &[(0, 1)]).unwrap();
        let r = rmcl(&g, &MclOptions::default()).unwrap();
        assert_eq!(r.clustering.n_clusters(), 3);
        assert!(r.clustering.same_cluster(0, 1));
        assert!(!r.clustering.same_cluster(2, 3));
    }

    #[test]
    fn rejects_bad_inflation() {
        let g = UnGraph::from_edges(2, &[(0, 1)]).unwrap();
        assert!(rmcl(
            &g,
            &MclOptions {
                inflation: 1.0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn parallel_kernel_matches_serial() {
        let g = two_cliques_un(8); // 16 nodes > 4*3 threads
        let m_g = canonical_flow(&g);
        let opts = MclOptions::default();
        let serial = expand_inflate_prune(&m_g, &m_g, &opts);
        let parallel = expand_inflate_prune_parallel(&m_g, &m_g, &opts, 3);
        assert_eq!(serial.indptr(), parallel.indptr());
        assert_eq!(serial.indices(), parallel.indices());
        for (a, b) in serial.values().iter().zip(parallel.values()) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn parallel_kernel_small_input_falls_back() {
        let g = two_cliques_un(3);
        let m_g = canonical_flow(&g);
        let opts = MclOptions::default();
        let serial = expand_inflate_prune(&m_g, &m_g, &opts);
        let parallel = expand_inflate_prune_parallel(&m_g, &m_g, &opts, 8);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn extract_clusters_follows_attractors() {
        // Row 0 flows to 1, row 1 to 1, row 2 to 2: clusters {0,1}, {2}.
        let m = CsrMatrix::from_dense(&[
            vec![0.2, 0.8, 0.0],
            vec![0.1, 0.9, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let c = extract_clusters(&m);
        assert_eq!(c.n_clusters(), 2);
        assert!(c.same_cluster(0, 1));
        assert!(!c.same_cluster(0, 2));
    }
}
