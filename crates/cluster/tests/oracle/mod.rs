//! The serial R-MCL kernels as they stood before R-MCL moved onto the
//! shared row runner, kept verbatim as the bit-identity oracle for
//! `symclust_cluster::mcl::rmcl_step` and for the flow built by
//! `canonical_flow_capped`.
#![allow(dead_code)]

use symclust_cluster::mcl::{extract_clusters, MclOptions};
use symclust_graph::UnGraph;
use symclust_sparse::{ops, CsrMatrix};

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

/// The R-MCL iteration loop with the oracle kernel: runs
/// `M := expand_inflate_prune(M, M_G)` from `m0` under the same
/// convergence rule as `rmcl_iterate`, and returns every iterate, in
/// order, and whether the assignment stabilized.
pub fn rmcl_trajectory(
    m_g: &CsrMatrix,
    m0: CsrMatrix,
    opts: &MclOptions,
    max_iter: usize,
) -> (Vec<CsrMatrix>, bool) {
    let mut m = m0;
    let mut steps = Vec::new();
    let mut prev_assignment: Option<Vec<u32>> = None;
    let mut stable = 0usize;
    for _ in 1..=max_iter {
        m = expand_inflate_prune(&m, m_g, opts);
        steps.push(m.clone());
        let assignment = extract_clusters(&m).assignments().to_vec();
        let changed = match prev_assignment.as_deref() {
            Some(prev) => prev.iter().zip(&assignment).filter(|(a, b)| a != b).count(),
            None => assignment.len(),
        };
        if changed == 0 && prev_assignment.is_some() {
            stable += 1;
            if stable >= opts.stable_iterations {
                return (steps, true);
            }
        } else {
            stable = 0;
        }
        prev_assignment = Some(assignment);
    }
    (steps, false)
}
