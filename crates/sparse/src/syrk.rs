//! Symmetric SpGEMM (sparse SYRK): `C = X·Xᵀ` and sums of such products.
//!
//! The paper's two expensive symmetrizations are both sums of `X·Xᵀ`-shaped
//! products — Bibliometric `AAᵀ + AᵀA` (§3.3) and Degree-discounted
//! `Ud = Bd + Cd` (Eq. 8), already computed factored as `X·Xᵀ`. Such a
//! product is symmetric by construction, so the general Gustavson kernel
//! does every multiply-add twice: once for `C(i,j)` and once for the
//! identical `C(j,i)`.
//!
//! This module computes the **upper triangle only**: row `i` accumulates
//! only columns `j ≥ i`, found by a binary search (`partition_point`) on
//! the sorted column indices of the transpose's rows, then mirrors the
//! strict upper entries into the lower triangle in one O(nnz) pass —
//! roughly halving multiply-adds and accumulator traffic.
//!
//! Why the mirror is exact and not an approximation:
//! `C(j,i) = Σₖ X(j,k)·Xᵀ(k,i)` and `C(i,j) = Σₖ X(i,k)·Xᵀ(k,j)`. When
//! `Xᵀ` is the bitwise transpose of `X`, the two sums are the same
//! sequence of products (by commutativity of each f64 multiply) added in
//! the same ascending-`k` order, hence bit-identical. Mirroring therefore
//! reproduces exactly what the general kernel would have computed for the
//! lower triangle.
//!
//! The multi-term sum variant fuses `Σₜ Xₜ·Xₜᵀ` into a single pass with
//! one accumulator *per term*: each term's partial sums accumulate in
//! ascending-`k` order and the per-entry total is formed by one final
//! ordered add — the same rounding sequence as computing each product
//! separately and adding the results with [`crate::ops::add`], so fusing
//! changes no bits. Thresholding and `drop_diagonal` apply to the fused
//! sum during emission, which is what lets `Bibliometric` and
//! `DegreeDiscounted` skip materializing the two full intermediate
//! products entirely.
//!
//! A SYRK row is the general kernel's row body
//! ([`crate::spgemm::product_row`]) over the terms, clipped to columns
//! `[row, n)`, so each row picks its accumulator adaptively (see
//! [`crate::accum`]): wide rows scatter into per-term zero-on-emit dense
//! slots with one shared duplicate-free touched list; narrow rows gather
//! `(column, term, product)` triples and reduce them with a stable sort
//! that reproduces the dense path's term-ordered rounding bit for bit.
//! The width estimate is the row's full Σₜ Σₖ nnz(Xₜᵀ row k) product
//! count — a deterministic function of the input structure alone, so the
//! strategy mix never depends on thread count.
//!
//! Parallelism, cancellation, budget degradation and observability all
//! ride on the shared row-runner in [`crate::spgemm`]: work-stealing row
//! blocks with deterministic assembly, per-row cancellation checkpoints,
//! adaptive-threshold degraded fallback, and the `spgemm.*` counters plus
//! the SYRK-specific `spgemm.syrk_calls` / `spgemm.syrk_mirrored_nnz`.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::exec::Exec;
use crate::spgemm::{
    compact_thresholded, metric_names, product_row, raised_threshold, run_rows, spgemm_flops,
    BudgetedSpgemm, RowKernelOutput, RowScratch, SpgemmCounts, SpgemmOptions,
};
use crate::Result;
use symclust_obs::MetricsRegistry;

/// One `X·Xᵀ` term of a symmetric product sum.
///
/// `xt` must be the transpose of `x`; callers that already hold both
/// factors (the symmetrizers do) pass them directly. Only dimensions are
/// validated: passing
/// an `xt` that is not bitwise `transpose(x)` silently computes
/// `upper(X·Y)` mirrored, which is not `X·Y`.
#[derive(Debug, Clone, Copy)]
pub struct SyrkTerm<'a> {
    /// Left factor (`n × k`).
    pub x: &'a CsrMatrix,
    /// Transpose of the left factor (`k × n`).
    pub xt: &'a CsrMatrix,
}

fn check_terms(terms: &[SyrkTerm<'_>]) -> Result<usize> {
    let Some(first) = terms.first() else {
        return Err(SparseError::InvalidArgument(
            "spgemm_syrk needs at least one term".into(),
        ));
    };
    let n = first.x.n_rows();
    for term in terms {
        if term.x.n_rows() != n || term.xt.n_cols() != n || term.x.n_cols() != term.xt.n_rows() {
            return Err(SparseError::DimensionMismatch {
                op: "spgemm_syrk",
                lhs: (term.x.n_rows(), term.x.n_cols()),
                rhs: (term.xt.n_rows(), term.xt.n_cols()),
            });
        }
    }
    Ok(n)
}

/// Mirrors an upper-triangular CSR (every stored column `j ≥` its row)
/// into the full symmetric matrix in one O(nnz) pass. Returns the full
/// CSR triple plus the number of lower-triangle entries materialized.
pub(crate) fn mirror_upper(
    n: usize,
    upper_indptr: &[usize],
    upper_indices: &[u32],
    upper_values: &[f64],
) -> (Vec<usize>, Vec<u32>, Vec<f64>, u64) {
    // Count pass: row i gets its own upper entries plus one mirrored
    // entry for every strict-upper (i', i) with i' < i.
    let mut full_len = vec![0usize; n];
    for i in 0..n {
        full_len[i] += upper_indptr[i + 1] - upper_indptr[i];
        for &j in &upper_indices[upper_indptr[i]..upper_indptr[i + 1]] {
            if j as usize > i {
                full_len[j as usize] += 1;
            }
        }
    }
    let mut indptr = Vec::with_capacity(n + 1);
    indptr.push(0usize);
    let mut total = 0usize;
    for len in &full_len {
        total += len;
        indptr.push(total);
    }
    let mirrored = (total - upper_indices.len()) as u64;
    let mut indices = vec![0u32; total];
    let mut values = vec![0.0f64; total];
    let mut cursor: Vec<usize> = indptr[..n].to_vec();
    // Fill pass, ascending rows. When row i is reached, its lower
    // entries (columns < i) have already been scattered by earlier rows
    // in ascending column order; its own upper entries (columns ≥ i)
    // follow, so each row ends up sorted without any per-row sort.
    for i in 0..n {
        let lo = upper_indptr[i];
        let hi = upper_indptr[i + 1];
        let own = hi - lo;
        let at = cursor[i];
        indices[at..at + own].copy_from_slice(&upper_indices[lo..hi]);
        values[at..at + own].copy_from_slice(&upper_values[lo..hi]);
        cursor[i] += own;
        for (&j, &v) in upper_indices[lo..hi].iter().zip(&upper_values[lo..hi]) {
            let j = j as usize;
            if j > i {
                indices[cursor[j]] = i as u32;
                values[cursor[j]] = v;
                cursor[j] += 1;
            }
        }
    }
    (indptr, indices, values, mirrored)
}

pub(crate) fn flush_syrk(out: &RowKernelOutput, mirrored: u64, metrics: Option<&MetricsRegistry>) {
    out.counts.flush(metrics);
    out.flush_steals(metrics);
    if let Some(m) = metrics {
        m.counter(metric_names::SYRK_CALLS).inc();
        m.counter(metric_names::SYRK_MIRRORED_NNZ).add(mirrored);
    }
}

/// Symmetric SpGEMM `C = X·Xᵀ` with a caller-supplied transpose `xt`.
pub fn spgemm_syrk(
    x: &CsrMatrix,
    xt: &CsrMatrix,
    opts: &SpgemmOptions,
    exec: &Exec,
) -> Result<CsrMatrix> {
    spgemm_syrk_sum(&[SyrkTerm { x, xt }], opts, exec)
}

/// Fused symmetric product sum: `C = Σₜ Xₜ·Xₜᵀ` in one upper-triangle
/// pass with per-term accumulators, thresholding the *sum* during
/// emission (see the module docs for the bit-exactness argument). Runs
/// per `exec` like [`crate::spgemm::spgemm`].
pub fn spgemm_syrk_sum(
    terms: &[SyrkTerm<'_>],
    opts: &SpgemmOptions,
    exec: &Exec,
) -> Result<CsrMatrix> {
    let n = check_terms(terms)?;
    if exec.panel.engaged() {
        return crate::panel::spgemm_syrk_sum_panel(terms, n, opts, exec);
    }
    let out = run_rows(
        n,
        exec.threads,
        exec.token.as_ref(),
        || RowScratch::new(n, terms.len()),
        |row, scratch: &mut RowScratch, indices, values, counts| {
            let dense = product_row(
                terms,
                row,
                (row, n),
                scratch,
                opts,
                exec.accum,
                indices,
                values,
                counts,
            );
            counts.row(dense);
        },
    )?;
    let (indptr, indices, values, mirrored) =
        mirror_upper(n, &out.indptr, &out.indices, &out.values);
    flush_syrk(&out, mirrored, exec.metrics());
    Ok(CsrMatrix::from_raw_parts_unchecked(
        n, n, indptr, indices, values,
    ))
}

/// [`spgemm_syrk_sum`] under an output-size budget, mirroring
/// the degradation contract of [`crate::spgemm::spgemm_budgeted`]: if the
/// Gustavson bound on the *full* output fits the budget the multiply is
/// exact (and possibly parallel); otherwise it degrades to a serial
/// upper-triangle pass with an adaptive threshold, compacting whenever
/// the upper output exceeds half the budget (the mirror doubles it back).
pub fn spgemm_syrk_sum_budgeted(
    terms: &[SyrkTerm<'_>],
    opts: &SpgemmOptions,
    budget_nnz: usize,
    exec: &Exec,
) -> Result<BudgetedSpgemm> {
    let n = check_terms(terms)?;
    if budget_nnz == 0 {
        return Err(SparseError::InvalidArgument(
            "spgemm budget must be positive".into(),
        ));
    }
    let estimated_nnz: usize = terms.iter().map(|t| spgemm_flops(t.x, t.xt)).sum();
    if estimated_nnz <= budget_nnz {
        return Ok(BudgetedSpgemm {
            matrix: spgemm_syrk_sum(terms, opts, exec)?,
            degraded: false,
            threshold_used: opts.threshold,
            estimated_nnz,
        });
    }

    let metrics = exec.metrics();
    if let Some(m) = metrics {
        m.counter(metric_names::DEGRADED_FALLBACKS).inc();
    }
    // The budget bounds the *full* symmetric output; the upper-triangle
    // pass may keep at most half of it (the mirror restores the rest).
    let upper_budget = (budget_nnz / 2).max(1);
    let mut compactions = 0u64;
    let mut scratch = RowScratch::new(n, terms.len());
    let mut indptr = Vec::with_capacity(n + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut live_opts = opts.clone();
    let mut counts = SpgemmCounts::default();
    for row in 0..n {
        exec.checkpoint()?;
        let dense = product_row(
            terms,
            row,
            (row, n),
            &mut scratch,
            &live_opts,
            exec.accum,
            &mut indices,
            &mut values,
            &mut counts,
        );
        counts.row(dense);
        indptr.push(indices.len());
        if values.len() > upper_budget {
            live_opts.threshold = raised_threshold(&values, live_opts.threshold, upper_budget);
            compact_thresholded(&mut indptr, &mut indices, &mut values, live_opts.threshold);
            compactions += 1;
        }
    }
    counts.emitted = indices.len() as u64;
    let (full_indptr, full_indices, full_values, mirrored) =
        mirror_upper(n, &indptr, &indices, &values);
    let out = RowKernelOutput {
        indptr: full_indptr,
        indices: full_indices,
        values: full_values,
        counts,
        steals: 0,
    };
    flush_syrk(&out, mirrored, metrics);
    if let Some(m) = metrics {
        m.counter(metric_names::BUDGET_COMPACTIONS).add(compactions);
    }
    Ok(BudgetedSpgemm {
        matrix: CsrMatrix::from_raw_parts_unchecked(n, n, out.indptr, out.indices, out.values),
        degraded: true,
        threshold_used: live_opts.threshold,
        estimated_nnz,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::ops::{self, transpose};
    use crate::spgemm::spgemm;
    use symclust_obs::MetricsRegistry;

    /// An [`Exec`] on `threads` threads, everything else at the default.
    fn on(threads: usize) -> Exec {
        Exec {
            threads,
            ..Exec::default()
        }
    }

    /// `exec` recording into `m`.
    fn observed(exec: Exec, m: &MetricsRegistry) -> Exec {
        Exec {
            metrics: Some(m.clone()),
            ..exec
        }
    }

    /// The plain serial general product.
    fn mul(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix> {
        spgemm(a, b, &SpgemmOptions::default(), &on(1))
    }

    fn pseudo_random_matrix(
        n_rows: usize,
        n_cols: usize,
        seed: u64,
        density_shift: u32,
    ) -> CsrMatrix {
        let mut rows = vec![vec![0.0; n_cols]; n_rows];
        let mut state = seed;
        for r in rows.iter_mut() {
            for v in r.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> (64 - density_shift) == 0 {
                    *v = ((state >> 32) % 9 + 1) as f64 * 0.25;
                }
            }
        }
        CsrMatrix::from_dense(&rows)
    }

    #[test]
    fn syrk_matches_general_kernel_exactly() {
        let x = pseudo_random_matrix(60, 40, 0x243F6A8885A308D3, 3);
        let xt = transpose(&x);
        let general = mul(&x, &xt).unwrap();
        let syrk = spgemm_syrk(&x, &xt, &SpgemmOptions::default(), &on(0)).unwrap();
        syrk.validate().unwrap();
        assert_eq!(general, syrk);
    }

    #[test]
    fn syrk_rectangular_and_empty_rows() {
        // Tall, sparse factor with several all-zero rows.
        let x = pseudo_random_matrix(37, 5, 0x9E3779B97F4A7C15, 5);
        let xt = transpose(&x);
        assert_eq!(
            mul(&x, &xt).unwrap(),
            spgemm_syrk(&x, &xt, &SpgemmOptions::default(), &on(0)).unwrap()
        );
    }

    #[test]
    fn syrk_output_is_symmetric() {
        let x = pseudo_random_matrix(50, 50, 0xB7E151628AED2A6A, 3);
        let c = spgemm_syrk(&x, &transpose(&x), &SpgemmOptions::default(), &on(0)).unwrap();
        assert!(c.is_symmetric(0.0));
        assert_eq!(c, transpose(&c));
    }

    #[test]
    fn syrk_threshold_and_drop_diagonal_match_general() {
        let x = pseudo_random_matrix(48, 32, 0x452821E638D01377, 3);
        let xt = transpose(&x);
        let opts = SpgemmOptions {
            threshold: 0.8,
            drop_diagonal: true,
            ..Default::default()
        };
        let general = spgemm(&x, &xt, &opts, &on(1)).unwrap();
        let syrk = spgemm_syrk(&x, &xt, &opts, &on(0)).unwrap();
        assert_eq!(general, syrk);
    }

    #[test]
    fn syrk_sum_matches_separate_products_bitwise() {
        let x = pseudo_random_matrix(40, 30, 0x243F6A8885A308D3, 3);
        let y = pseudo_random_matrix(40, 25, 0x9E3779B97F4A7C15, 3);
        let (xt, yt) = (transpose(&x), transpose(&y));
        let separate = ops::add(&mul(&x, &xt).unwrap(), &mul(&y, &yt).unwrap()).unwrap();
        let fused = spgemm_syrk_sum(
            &[SyrkTerm { x: &x, xt: &xt }, SyrkTerm { x: &y, xt: &yt }],
            &SpgemmOptions::default(),
            &on(0),
        )
        .unwrap();
        assert_eq!(separate, fused);
    }

    #[test]
    fn syrk_accum_strategies_are_bitwise_identical() {
        use crate::accum::AccumStrategy;
        let x = pseudo_random_matrix(64, 48, 0x243F6A8885A308D3, 3);
        let y = pseudo_random_matrix(64, 40, 0x9E3779B97F4A7C15, 3);
        let (xt, yt) = (transpose(&x), transpose(&y));
        let terms = [SyrkTerm { x: &x, xt: &xt }, SyrkTerm { x: &y, xt: &yt }];
        let run = |accum, crossover| {
            let opts = SpgemmOptions {
                accum_crossover: crossover,
                drop_diagonal: true,
                threshold: 0.5,
            };
            let exec = Exec { accum, ..on(0) };
            spgemm_syrk_sum(&terms, &opts, &exec).unwrap()
        };
        let dense = run(AccumStrategy::Dense, None);
        let sparse = run(AccumStrategy::Sparse, None);
        assert_eq!(dense, sparse);
        for crossover in [1, 8, 64, 10_000] {
            assert_eq!(dense, run(AccumStrategy::Adaptive, Some(crossover)));
        }
    }

    #[test]
    fn syrk_rows_split_between_strategies_deterministically() {
        use crate::accum::AccumStrategy;
        // Skewed rows: even rows are wide hubs (estimate far above the
        // crossover), odd rows touch one private column (estimate 1).
        let n = 64usize;
        let mut dense = vec![vec![0.0f64; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            if i % 2 == 0 {
                for v in row.iter_mut().take(16) {
                    *v = 1.0 + i as f64 * 0.125;
                }
            } else {
                row[i] = 2.0;
            }
        }
        let x = CsrMatrix::from_dense(&dense);
        let xt = transpose(&x);
        let count = |n_threads| {
            let m = MetricsRegistry::new();
            let opts = SpgemmOptions {
                accum_crossover: Some(64),
                ..Default::default()
            };
            let exec = Exec {
                accum: AccumStrategy::Adaptive,
                ..on(n_threads)
            };
            spgemm_syrk(&x, &xt, &opts, &observed(exec, &m)).unwrap();
            let snap = m.snapshot();
            (
                snap.counter(metric_names::ROWS_DENSE).unwrap(),
                snap.counter(metric_names::ROWS_SPARSE).unwrap(),
                snap.counter(metric_names::ROWS).unwrap(),
            )
        };
        let (d1, s1, rows1) = count(1);
        assert!(d1 > 0, "expected some dense rows");
        assert!(s1 > 0, "expected some sparse rows");
        assert_eq!(d1 + s1, rows1);
        assert_eq!((d1, s1, rows1), count(4), "strategy mix depends on threads");
    }

    #[test]
    fn syrk_parallel_is_identical_across_thread_counts() {
        let x = pseudo_random_matrix(300, 200, 0x243F6A8885A308D3, 4);
        let xt = transpose(&x);
        let opts = SpgemmOptions::default();
        let serial = spgemm_syrk(&x, &xt, &opts, &on(1)).unwrap();
        for n_threads in [2, 3, 8] {
            let parallel = spgemm_syrk(&x, &xt, &opts, &on(n_threads)).unwrap();
            assert_eq!(serial, parallel, "thread count {n_threads}");
        }
    }

    #[test]
    fn syrk_counters_show_halved_flops_and_mirrored_nnz() {
        let x = pseudo_random_matrix(64, 64, 0x243F6A8885A308D3, 3);
        let xt = transpose(&x);
        let general = MetricsRegistry::new();
        let opts = SpgemmOptions::default();
        spgemm(&x, &xt, &opts, &observed(on(1), &general)).unwrap();
        let syrk = MetricsRegistry::new();
        let c = spgemm_syrk(&x, &xt, &opts, &observed(on(1), &syrk)).unwrap();
        let gsnap = general.snapshot();
        let ssnap = syrk.snapshot();
        let gflops = gsnap.counter(metric_names::FLOPS).unwrap();
        let sflops = ssnap.counter(metric_names::FLOPS).unwrap();
        assert!(
            sflops * 2 <= gflops + c.n_rows() as u64 * 64,
            "syrk flops {sflops} not ~half of general {gflops}"
        );
        assert_eq!(ssnap.counter(metric_names::SYRK_CALLS), Some(1));
        let mirrored = ssnap.counter(metric_names::SYRK_MIRRORED_NNZ).unwrap();
        let emitted = ssnap.counter(metric_names::NNZ_FINAL).unwrap();
        assert_eq!(emitted + mirrored, c.nnz() as u64);
        // General kernel records the full output as final nnz.
        assert_eq!(gsnap.counter(metric_names::NNZ_FINAL), Some(c.nnz() as u64));
    }

    #[test]
    fn syrk_rejects_empty_terms_and_bad_dims() {
        assert!(spgemm_syrk_sum(&[], &SpgemmOptions::default(), &on(0)).is_err());
        let x = CsrMatrix::zeros(3, 4);
        let bad_xt = CsrMatrix::zeros(4, 5); // n_cols != x.n_rows
        let r = spgemm_syrk(&x, &bad_xt, &SpgemmOptions::default(), &on(0));
        assert!(r.is_err());
    }

    #[test]
    fn syrk_cancellation_aborts() {
        let x = pseudo_random_matrix(128, 64, 0x243F6A8885A308D3, 3);
        let xt = transpose(&x);
        let token = CancelToken::new();
        token.cancel();
        for n_threads in [1, 4] {
            let exec = Exec {
                token: Some(token.clone()),
                ..on(n_threads)
            };
            let r = spgemm_syrk(&x, &xt, &SpgemmOptions::default(), &exec);
            assert_eq!(r, Err(SparseError::Cancelled));
        }
    }

    #[test]
    fn syrk_budgeted_within_budget_is_exact() {
        let x = pseudo_random_matrix(40, 30, 0x243F6A8885A308D3, 3);
        let xt = transpose(&x);
        let r = spgemm_syrk_sum_budgeted(
            &[SyrkTerm { x: &x, xt: &xt }],
            &SpgemmOptions::default(),
            1_000_000,
            &on(0),
        )
        .unwrap();
        assert!(!r.degraded);
        assert_eq!(r.matrix, mul(&x, &xt).unwrap());
    }

    #[test]
    fn syrk_budgeted_degrades_deterministically_and_stays_symmetric() {
        let x = pseudo_random_matrix(48, 48, 0x9E3779B97F4A7C15, 2);
        let xt = transpose(&x);
        let terms = [SyrkTerm { x: &x, xt: &xt }];
        let budget = 120;
        let m = MetricsRegistry::new();
        let r = spgemm_syrk_sum_budgeted(
            &terms,
            &SpgemmOptions::default(),
            budget,
            &observed(on(0), &m),
        )
        .unwrap();
        assert!(r.degraded);
        assert!(r.threshold_used > 0.0);
        r.matrix.validate().unwrap();
        assert!(r.matrix.is_symmetric(0.0));
        // Every surviving entry matches the exact product.
        let exact = mul(&x, &xt).unwrap();
        for (row, col, v) in r.matrix.iter() {
            assert_eq!(exact.get(row, col as usize), v);
            assert!(v.abs() >= r.threshold_used);
        }
        let snap = m.snapshot();
        assert_eq!(snap.counter(metric_names::DEGRADED_FALLBACKS), Some(1));
        assert!(snap.counter(metric_names::BUDGET_COMPACTIONS).unwrap() > 0);
        // Deterministic.
        let again =
            spgemm_syrk_sum_budgeted(&terms, &SpgemmOptions::default(), budget, &on(0)).unwrap();
        assert_eq!(r.matrix, again.matrix);
    }

    #[test]
    fn mirror_handles_missing_diagonal() {
        // Row 0 has no diagonal entry after drop_diagonal.
        let x = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![0.0, 1.0], vec![1.0, 0.0]]);
        let xt = transpose(&x);
        let opts = SpgemmOptions {
            drop_diagonal: true,
            ..Default::default()
        };
        let general = spgemm(&x, &xt, &opts, &on(1)).unwrap();
        let syrk = spgemm_syrk(&x, &xt, &opts, &on(0)).unwrap();
        assert_eq!(general, syrk);
    }
}
