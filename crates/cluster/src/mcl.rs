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
use symclust_sparse::{ops, spgemm_rows, CsrMatrix, Exec};

/// Stable metric names recorded by the R-MCL iteration (DESIGN.md §11).
pub mod metric_names {
    /// R-MCL iteration loops completed (one per flow run, across levels).
    pub const RUNS: &str = "mcl.runs";
    /// Total expand–inflate–prune iterations performed.
    pub const ITERATIONS: &str = "mcl.iterations";
    /// Multiply-adds performed by the expansions (`M · M_G`).
    pub const FLOPS: &str = "mcl.flops";
    /// Flow-matrix rows expanded.
    pub const ROWS: &str = "mcl.rows";
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
    let mut indptr = Vec::with_capacity(n + 1);
    indptr.push(0usize);
    let mut indices = Vec::with_capacity(a.nnz() + n);
    let mut values = Vec::with_capacity(a.nnz() + n);
    for row in 0..n {
        let row_max = a.row_values(row).iter().cloned().fold(0.0f64, f64::max);
        // The self-loop replaces any stored diagonal entry and is spliced
        // in at its column position; explicit zeros are dropped.
        let mut self_loop = Some(if row_max > 0.0 { row_max } else { 1.0 });
        for (c, v) in a.row_iter(row) {
            if c as usize > row {
                if let Some(w) = self_loop.take() {
                    indices.push(row as u32);
                    values.push(w);
                }
            }
            if c as usize != row && v != 0.0 {
                indices.push(c);
                values.push(v);
            }
        }
        if let Some(w) = self_loop {
            indices.push(row as u32);
            values.push(w);
        }
        indptr.push(indices.len());
    }
    let mut with_loops = CsrMatrix::from_raw_parts_unchecked(n, n, indptr, indices, values);
    if max_graph_row_nnz > 0 {
        with_loops = ops::top_k_per_row(&with_loops, max_graph_row_nnz);
    }
    ops::row_normalize(&with_loops)
}

/// [`canonical_flow_capped`] with the default row cap.
pub fn canonical_flow(g: &UnGraph) -> CsrMatrix {
    canonical_flow_capped(g, MclOptions::default().max_graph_row_nnz)
}

/// Orphan-repair level: a self-attracted node that attracts nobody else
/// joins its strongest other target if that flow is at least this fraction
/// of its self-flow.
pub const ORPHAN_REATTACH_THRESHOLD: f64 = 0.5;

/// Relative band below a row's raw maximum inside which an entry is still
/// inflated to find the inflated maximum. `powf` is monotone only up to a
/// few ulps; an entry further below the raw maximum is inflated to a
/// strictly smaller value whenever `inflation >= 1`.
const MAX_BAND: f64 = 1e-12;

/// Relative slack on the raw-value prune floor `cutoff^(1/inflation)`:
/// an entry below the slackened floor inflates to strictly less than the
/// cutoff, so it is dropped without calling `powf`.
const FLOOR_SLACK: f64 = 1e-9;

/// One R-MCL step `M' = inflate_prune(M · M_G)` on the shared row runner
/// ([`spgemm_rows`]), without materializing the expanded matrix: each
/// expanded row goes straight from the accumulator through inflation,
/// threshold, top-`max_row_nnz` selection and renormalization. Runs per
/// `exec` (threads, a cancellation poll per row) and records
/// [`metric_names::FLOPS`] and [`metric_names::ROWS`] once per call. The
/// output is bit-identical for every thread count.
pub fn rmcl_step(
    m: &CsrMatrix,
    m_g: &CsrMatrix,
    opts: &MclOptions,
    exec: &Exec,
) -> Result<CsrMatrix> {
    let (next, flops) = spgemm_rows(m, m_g, exec, |entries, indices, values| {
        inflate_prune_row(entries, opts, indices, values)
    })?;
    if let Some(metrics) = exec.metrics() {
        metrics.counter(metric_names::FLOPS).add(flops);
        metrics.counter(metric_names::ROWS).add(m.n_rows() as u64);
    }
    Ok(next)
}

/// The R-MCL row epilogue: inflates (`p = v^r`), drops entries with
/// `p < prune_threshold · max p`, keeps the `max_row_nnz` largest and
/// renormalizes, appending the survivors in column order. `entries` holds
/// the expanded row in first-touch order.
///
/// The prune test is monotone in `v` for `r >= 1`, so `powf` runs only on
/// the entries near the raw maximum (to find `max p`) and on those at or
/// above the slackened floor `(prune_threshold · max p)^(1/r)`; both
/// margins are over a thousand times wider than `powf`'s few-ulp error.
/// The kept set, each kept `p`, and the survivors' first-touch order —
/// which decides ties at the top-k boundary — are exactly those of
/// inflating every entry.
fn inflate_prune_row(
    entries: &mut Vec<(u32, f64)>,
    opts: &MclOptions,
    indices: &mut Vec<u32>,
    values: &mut Vec<f64>,
) {
    let r = opts.inflation;
    let monotone = r >= 1.0;
    let raw_max = entries.iter().fold(0.0f64, |acc, &(_, v)| acc.max(v));
    let near_max = if monotone {
        raw_max * (1.0 - MAX_BAND)
    } else {
        0.0
    };
    let row_max = entries
        .iter()
        .filter(|&&(_, v)| v > 0.0 && v >= near_max)
        .fold(0.0f64, |acc, &(_, v)| {
            let p = v.powf(r);
            if p > acc {
                p
            } else {
                acc
            }
        });
    let cutoff = row_max * opts.prune_threshold;
    let floor = if monotone && cutoff.is_normal() && cutoff > 0.0 {
        cutoff.powf(1.0 / r) * (1.0 - FLOOR_SLACK)
    } else {
        0.0
    };
    entries.retain_mut(|(_, v)| {
        if !(*v > 0.0 && *v >= floor) {
            return false;
        }
        *v = v.powf(r);
        *v >= cutoff && *v > 0.0
    });
    let k = opts.max_row_nnz;
    if entries.len() > k {
        // Partial selection of the top entries, then sort only those.
        if k > 0 {
            entries.select_nth_unstable_by(k - 1, |a, b| b.1.total_cmp(&a.1));
        }
        entries.truncate(k);
    }
    entries.sort_unstable_by_key(|&(c, _)| c);
    let sum: f64 = entries.iter().map(|&(_, v)| v).sum();
    if sum > 0.0 {
        for &(c, v) in entries.iter() {
            indices.push(c);
            values.push(v / sum);
        }
    }
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
/// Every [`rmcl_step`] polls `exec`'s token once per row, so a runaway
/// flow computation stops within one row of the token tripping; the
/// run's counters go to `exec.metrics`.
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
        iterations = iter;
        m = rmcl_step(&m, m_g, opts, exec)?;
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

    /// An [`Exec`] on `threads` threads, everything else at the default.
    fn on(threads: usize) -> Exec {
        Exec {
            threads,
            ..Exec::default()
        }
    }

    /// Inflation and pruning alone: one R-MCL step against `M_G = I`.
    fn inflate_and_prune(m: &CsrMatrix, opts: &MclOptions) -> CsrMatrix {
        rmcl_step(m, &CsrMatrix::identity(m.n_cols()), opts, &on(1)).unwrap()
    }

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
    fn zero_row_cap_empties_the_flow_instead_of_panicking() {
        let m = CsrMatrix::from_dense(&[vec![0.4, 0.6], vec![0.5, 0.5]]);
        let opts = MclOptions {
            max_row_nnz: 0,
            ..Default::default()
        };
        assert_eq!(inflate_and_prune(&m, &opts).nnz(), 0);
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
        let serial = rmcl_step(&m_g, &m_g, &opts, &on(1)).unwrap();
        let parallel = rmcl_step(&m_g, &m_g, &opts, &on(3)).unwrap();
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
        let serial = rmcl_step(&m_g, &m_g, &opts, &on(1)).unwrap();
        let parallel = rmcl_step(&m_g, &m_g, &opts, &on(8)).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn work_counters_match_across_thread_counts() {
        // 40 six-cliques in a ring: 240 rows, four scheduler blocks.
        let (c, k) = (40, 6);
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
        let g = UnGraph::from_edges(c * k, &edges).unwrap();
        let m_g = canonical_flow(&g);
        let counted = |threads| {
            let m = symclust_obs::MetricsRegistry::new();
            let exec = Exec {
                metrics: Some(m.clone()),
                ..on(threads)
            };
            let opts = MclOptions::default();
            let (_, iterations, _) = rmcl_iterate(&m_g, m_g.clone(), &opts, 40, &exec).unwrap();
            let snap = m.snapshot();
            assert_eq!(
                snap.counter("spgemm.flops"),
                None,
                "MCL work is not SpGEMM work"
            );
            (
                snap.counter(metric_names::FLOPS),
                snap.counter(metric_names::ROWS),
                iterations,
            )
        };
        let serial = counted(1);
        assert_eq!(serial, counted(4));
        let (flops, rows, iterations) = serial;
        assert_eq!(rows, Some((iterations * c * k) as u64));
        assert!(flops.unwrap() >= rows.unwrap());
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
