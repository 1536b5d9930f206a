//! Sparse matrix–matrix multiplication (SpGEMM).
//!
//! [`spgemm`] uses Gustavson's row-wise algorithm: row `i` of `C = A·B` is
//! the linear combination of the rows of `B` selected by the non-zeros of row
//! `i` of `A`, accumulated in a dense scratch vector with a "touched columns"
//! list so clearing costs O(row nnz), not O(n).
//!
//! [`SpgemmOptions::threshold`] prunes *during* accumulation output, which
//! is what makes the paper's Degree-discounted symmetrization tractable on
//! hub-heavy graphs: the full product is never materialized (§3.5 of the
//! paper). With more than one thread ([`Exec::threads`]) output-row
//! *blocks* are scheduled over crossbeam scoped threads with per-thread
//! accumulators and work-stealing (see [`crate::sched`]): a worker that
//! drains its own block range steals blocks from a victim's tail, so
//! power-law rows cannot strand the pool behind one overloaded static
//! chunk. Blocks are reassembled in index order, so the output and every
//! work counter are bit-identical for any thread count.
//!
//! The symmetric `C = X·Xᵀ` case has a dedicated upper-triangle kernel in
//! [`crate::syrk`] that shares this module's scratch discipline, counters
//! and scheduler.

use crate::accum::{
    gather_scaled, reduce_pairs, scatter_scaled, AccumStrategy, DenseAccum, DEFAULT_ACCUM_CROSSOVER,
};
use crate::cancel::CancelToken;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::exec::Exec;
use crate::sched::{BlockQueues, DEFAULT_BLOCK_ROWS};
use crate::Result;
use symclust_obs::MetricsRegistry;

/// Stable metric names recorded by the SpGEMM kernels (DESIGN.md §11).
pub mod metric_names {
    /// Kernel invocations (one per top-level SpGEMM call).
    pub const CALLS: &str = "spgemm.calls";
    /// Output rows produced.
    pub const ROWS: &str = "spgemm.rows";
    /// Exact multiply-add count performed. The SYRK kernels count only the
    /// upper-triangle multiply-adds they actually perform — roughly half of
    /// the general kernel's count for the same product.
    pub const FLOPS: &str = "spgemm.flops";
    /// Distinct accumulator entries touched before thresholding
    /// (intermediate nnz).
    pub const NNZ_INTERMEDIATE: &str = "spgemm.nnz_intermediate";
    /// Entries emitted into the output (final nnz). For the SYRK kernels
    /// this counts the upper-triangle entries the row pass emits; the
    /// mirrored lower copies are tallied separately under
    /// [`SYRK_MIRRORED_NNZ`].
    pub const NNZ_FINAL: &str = "spgemm.nnz_final";
    /// Accumulated entries not emitted (threshold, exact zero, or dropped
    /// diagonal).
    pub const THRESHOLD_DROPPED: &str = "spgemm.threshold_dropped";
    /// Times the memory budget forced the degraded adaptive-threshold
    /// path instead of an exact multiply.
    pub const DEGRADED_FALLBACKS: &str = "spgemm.degraded_fallbacks";
    /// Mid-run output compactions performed by the degraded path.
    pub const BUDGET_COMPACTIONS: &str = "spgemm.budget_compactions";
    /// Invocations of the symmetric `X·Xᵀ` (SYRK) kernel family. Each also
    /// counts once under [`CALLS`].
    pub const SYRK_CALLS: &str = "spgemm.syrk_calls";
    /// Lower-triangle entries materialized by the SYRK mirror pass (the
    /// multiply-adds the symmetric kernel *skipped*; full output nnz is
    /// [`NNZ_FINAL`] + this).
    pub const SYRK_MIRRORED_NNZ: &str = "spgemm.syrk_mirrored_nnz";
    /// Row blocks executed by a worker other than their initial owner
    /// under the work-stealing scheduler. Scheduling-dependent: varies
    /// with thread count and machine load (excluded from the bench gate),
    /// but a persistently high ratio versus total blocks on a skewed graph
    /// is the load-balancing at work.
    pub const SCHED_STEALS: &str = "spgemm.sched_steals";
    /// Output rows accumulated with the dense epoch-stamped scratch
    /// (estimated intermediate width at or above the crossover). The
    /// dense/sparse split depends only on the input structure and the
    /// crossover — never on thread count — so both counters are
    /// deterministic and bench-gated.
    pub const ROWS_DENSE: &str = "spgemm.rows_dense";
    /// Output rows accumulated with sorted sparse pair lists (estimated
    /// intermediate width below the crossover).
    pub const ROWS_SPARSE: &str = "spgemm.rows_sparse";
    /// Panel-pair tiles executed by the out-of-core panel path (0 when the
    /// in-memory path ran). A function of the matrix shape and the
    /// configured panel size only, so deterministic and bench-gated.
    pub const PANELS: &str = "spgemm.panels";
    /// Tiles whose partial products were spilled to scratch files under
    /// the panel byte budget. The spill plan is decided from a
    /// structure-only estimate *before* execution (see [`crate::panel`]),
    /// so the count never depends on scheduling or thread count.
    pub const PANEL_SPILLS: &str = "spgemm.panel_spills";
    /// Bytes written to spill files: 12 bytes (`u32` column + `f64` value)
    /// per spilled intermediate entry. Deterministic for a fixed input,
    /// panel size and budget.
    pub const SPILL_BYTES: &str = "spgemm.spill_bytes";
}

/// Work counts accumulated in plain locals during a kernel run and
/// flushed to the registry once per call — the atomics are never touched
/// in the row loop.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SpgemmCounts {
    pub(crate) rows: u64,
    pub(crate) flops: u64,
    pub(crate) touched: u64,
    pub(crate) emitted: u64,
    pub(crate) rows_dense: u64,
    pub(crate) rows_sparse: u64,
    pub(crate) panels: u64,
    pub(crate) panel_spills: u64,
    pub(crate) spill_bytes: u64,
}

impl SpgemmCounts {
    pub(crate) fn merge(&mut self, other: &SpgemmCounts) {
        self.rows += other.rows;
        self.flops += other.flops;
        self.touched += other.touched;
        self.emitted += other.emitted;
        self.rows_dense += other.rows_dense;
        self.rows_sparse += other.rows_sparse;
        self.panels += other.panels;
        self.panel_spills += other.panel_spills;
        self.spill_bytes += other.spill_bytes;
    }

    pub(crate) fn flush(&self, metrics: Option<&MetricsRegistry>) {
        let Some(m) = metrics else { return };
        m.counter(metric_names::CALLS).inc();
        m.counter(metric_names::ROWS).add(self.rows);
        m.counter(metric_names::FLOPS).add(self.flops);
        m.counter(metric_names::NNZ_INTERMEDIATE).add(self.touched);
        m.counter(metric_names::NNZ_FINAL).add(self.emitted);
        m.counter(metric_names::THRESHOLD_DROPPED)
            .add(self.touched - self.emitted);
        m.counter(metric_names::ROWS_DENSE).add(self.rows_dense);
        m.counter(metric_names::ROWS_SPARSE).add(self.rows_sparse);
        m.counter(metric_names::PANELS).add(self.panels);
        m.counter(metric_names::PANEL_SPILLS).add(self.panel_spills);
        m.counter(metric_names::SPILL_BYTES).add(self.spill_bytes);
    }
}

/// What an SpGEMM call computes. How it runs — threads, accumulator
/// strategy, panel plan, cancellation, metrics — is the [`Exec`] passed
/// alongside.
#[derive(Debug, Clone, Default)]
pub struct SpgemmOptions {
    /// Entries with value strictly below this threshold are discarded from
    /// the output (applied to the final accumulated value of each entry).
    pub threshold: f64,
    /// When true, diagonal entries of the output are discarded. Similarity
    /// matrices use this: self-similarity carries no clustering signal.
    pub drop_diagonal: bool,
    /// Adaptive crossover in estimated multiply-adds per row: rows at or
    /// above it accumulate densely, rows below it sparsely. `None` uses
    /// [`DEFAULT_ACCUM_CROSSOVER`].
    pub accum_crossover: Option<usize>,
}

impl SpgemmOptions {
    /// The effective adaptive crossover for this call.
    pub(crate) fn crossover(&self) -> usize {
        self.accum_crossover.unwrap_or(DEFAULT_ACCUM_CROSSOVER)
    }

    /// Resolves the per-row strategy from the estimated multiply-add
    /// count (= estimated intermediate width upper bound) for the row.
    #[inline]
    pub(crate) fn row_is_dense(&self, accum: AccumStrategy, estimated_width: usize) -> bool {
        match accum {
            AccumStrategy::Dense => true,
            AccumStrategy::Sparse => false,
            AccumStrategy::Adaptive => estimated_width >= self.crossover(),
        }
    }
}

fn check_dims(a: &CsrMatrix, b: &CsrMatrix) -> Result<()> {
    if a.n_cols() != b.n_rows() {
        return Err(SparseError::DimensionMismatch {
            op: "spgemm",
            lhs: (a.n_rows(), a.n_cols()),
            rhs: (b.n_rows(), b.n_cols()),
        });
    }
    Ok(())
}

/// Resolves an [`Exec::threads`] request to a concrete count.
pub(crate) fn resolve_threads(n_threads: usize) -> usize {
    if n_threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        n_threads
    }
}

/// Whether an accumulated entry survives emission for output row `row`.
#[inline]
pub(crate) fn emits(v: f64, j: u32, row: usize, opts: &SpgemmOptions) -> bool {
    v != 0.0 && v.abs() >= opts.threshold && !(opts.drop_diagonal && j as usize == row)
}

/// Computes one output row with the strategy [`SpgemmOptions::row_is_dense`]
/// picks for `accum` from the row's Gustavson FLOP estimate, and flushes
/// entries that pass the threshold into `(indices, values)`. Both
/// strategies emit in ascending column order with bit-identical values
/// (see [`crate::accum`]), so the choice never leaks into the output or
/// the downstream block assembly.
#[inline]
#[allow(clippy::too_many_arguments)]
fn gustavson_row(
    a: &CsrMatrix,
    b: &CsrMatrix,
    row: usize,
    scratch: &mut RowScratch,
    opts: &SpgemmOptions,
    accum: AccumStrategy,
    indices: &mut Vec<u32>,
    values: &mut Vec<f64>,
    counts: &mut SpgemmCounts,
) {
    let emitted_before = indices.len();
    // The row's exact multiply-add count doubles as the §3.6-style
    // estimate of its intermediate width (every product touches at most
    // one distinct column), so the strategy decision is free and depends
    // only on the input structure.
    let estimated_width: usize = a
        .row_indices(row)
        .iter()
        .map(|&k| b.row_nnz(k as usize))
        .sum();
    counts.flops += estimated_width as u64;
    if opts.row_is_dense(accum, estimated_width) {
        counts.rows_dense += 1;
        scatter_row(a, b, row, scratch);
        let RowScratch { acc, touched, .. } = scratch;
        touched.sort_unstable();
        for &j in touched.iter() {
            let v = acc.get(j);
            if emits(v, j, row, opts) {
                indices.push(j);
                values.push(v);
            }
        }
        counts.touched += touched.len() as u64;
    } else {
        counts.rows_sparse += 1;
        let pairs = &mut scratch.pairs;
        pairs.clear();
        for (k, av) in a.row_iter(row) {
            gather_scaled(
                pairs,
                av,
                b.row_indices(k as usize),
                b.row_values(k as usize),
            );
        }
        counts.touched += reduce_pairs(pairs, |j, v| {
            if emits(v, j, row, opts) {
                indices.push(j);
                values.push(v);
            }
        });
    }
    counts.rows += 1;
    counts.emitted += (indices.len() - emitted_before) as u64;
}

/// Accumulates row `row` of `A·B` into `scratch`'s dense accumulator,
/// listing the touched columns in first-touch order.
#[inline]
fn scatter_row(a: &CsrMatrix, b: &CsrMatrix, row: usize, scratch: &mut RowScratch) {
    let RowScratch { acc, touched, .. } = scratch;
    acc.begin_row();
    touched.clear();
    for (k, av) in a.row_iter(row) {
        let k = k as usize;
        scatter_scaled(acc, touched, av, b.row_indices(k), b.row_values(k));
    }
}

/// Output triple (plus work counters) of a row-kernel run, shared between
/// the general and SYRK entry points.
#[derive(Debug)]
pub(crate) struct RowKernelOutput {
    pub(crate) indptr: Vec<usize>,
    pub(crate) indices: Vec<u32>,
    pub(crate) values: Vec<f64>,
    pub(crate) counts: SpgemmCounts,
    /// Blocks executed by a non-owner worker (0 on the serial path).
    pub(crate) steals: u64,
}

impl RowKernelOutput {
    pub(crate) fn flush_steals(&self, metrics: Option<&MetricsRegistry>) {
        if let Some(m) = metrics {
            m.counter(metric_names::SCHED_STEALS).add(self.steals);
        }
    }
}

pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "(non-string panic payload)".to_string()
    }
}

/// Runs `row_kernel` over every output row, serially or under the
/// work-stealing block scheduler, and assembles the rows in order.
///
/// `row_kernel(row, scratch, indices, values, counts)` must append row
/// `row`'s entries to `(indices, values)` in ascending column order and
/// leave `scratch` clean for the next row. `new_scratch` builds one
/// per-worker scratch (dense accumulators + touched list), reused across
/// every block that worker executes.
///
/// The parallel path converts worker panics into
/// [`SparseError::WorkerPanic`] instead of unwinding: a poisoned kernel
/// fails the call, not the process.
pub(crate) fn run_rows<S, N, K>(
    n_rows: usize,
    n_threads: usize,
    token: Option<&CancelToken>,
    new_scratch: N,
    row_kernel: K,
) -> Result<RowKernelOutput>
where
    N: Fn() -> S + Sync,
    K: Fn(usize, &mut S, &mut Vec<u32>, &mut Vec<f64>, &mut SpgemmCounts) + Sync,
{
    let n_threads = resolve_threads(n_threads);
    if n_threads <= 1 || n_rows < 2 * n_threads {
        return run_rows_serial(n_rows, token, &new_scratch, &row_kernel);
    }

    let block_rows = DEFAULT_BLOCK_ROWS;
    let n_blocks = n_rows.div_ceil(block_rows);
    let n_workers = n_threads.min(n_blocks);
    let queues = BlockQueues::new(n_blocks, n_workers);

    /// One finished block, tagged for deterministic reassembly.
    struct BlockOut {
        block: usize,
        row_lens: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    }
    type WorkerResult = Result<(Vec<BlockOut>, SpgemmCounts, u64)>;

    let mut worker_results: Vec<WorkerResult> = Vec::with_capacity(n_workers);
    let scope_result = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let queues = &queues;
            let new_scratch = &new_scratch;
            let row_kernel = &row_kernel;
            handles.push(scope.spawn(move |_| -> WorkerResult {
                let body =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> WorkerResult {
                        let mut scratch = new_scratch();
                        let mut outs: Vec<BlockOut> = Vec::new();
                        let mut counts = SpgemmCounts::default();
                        let mut steals = 0u64;
                        loop {
                            let (block, stolen) = match queues.pop_own(w) {
                                Some(b) => (b, false),
                                None => match queues.steal(w) {
                                    Some(b) => (b, true),
                                    None => break,
                                },
                            };
                            steals += u64::from(stolen);
                            let lo = block * block_rows;
                            let hi = (lo + block_rows).min(n_rows);
                            let mut row_lens = Vec::with_capacity(hi - lo);
                            let mut indices = Vec::new();
                            let mut values = Vec::new();
                            for row in lo..hi {
                                if let Some(t) = token {
                                    t.checkpoint()?;
                                }
                                let before = indices.len();
                                row_kernel(
                                    row,
                                    &mut scratch,
                                    &mut indices,
                                    &mut values,
                                    &mut counts,
                                );
                                row_lens.push(indices.len() - before);
                            }
                            outs.push(BlockOut {
                                block,
                                row_lens,
                                indices,
                                values,
                            });
                        }
                        Ok((outs, counts, steals))
                    }));
                match body {
                    Ok(r) => r,
                    Err(payload) => Err(SparseError::WorkerPanic(panic_text(payload.as_ref()))),
                }
            }));
        }
        for handle in handles {
            worker_results.push(
                handle
                    .join()
                    .unwrap_or_else(|p| Err(SparseError::WorkerPanic(panic_text(p.as_ref())))),
            );
        }
    });
    if let Err(payload) = scope_result {
        return Err(SparseError::WorkerPanic(panic_text(payload.as_ref())));
    }

    // Error priority: a real failure (panic, invalid input) beats
    // cancellation — when a worker dies, siblings usually just see the
    // token trip afterwards.
    let mut cancelled = false;
    let mut blocks: Vec<BlockOut> = Vec::with_capacity(n_blocks);
    let mut counts = SpgemmCounts::default();
    let mut steals = 0u64;
    let mut first_error: Option<SparseError> = None;
    for wr in worker_results {
        match wr {
            Ok((outs, worker_counts, worker_steals)) => {
                blocks.extend(outs);
                counts.merge(&worker_counts);
                steals += worker_steals;
            }
            Err(SparseError::Cancelled) => cancelled = true,
            Err(e) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    if cancelled {
        return Err(SparseError::Cancelled);
    }

    blocks.sort_unstable_by_key(|b| b.block);
    let total_nnz: usize = blocks.iter().map(|b| b.indices.len()).sum();
    let mut indptr = Vec::with_capacity(n_rows + 1);
    indptr.push(0usize);
    let mut indices = Vec::with_capacity(total_nnz);
    let mut values = Vec::with_capacity(total_nnz);
    for b in blocks {
        for len in b.row_lens {
            indptr.push(indptr.last().unwrap() + len);
        }
        indices.extend_from_slice(&b.indices);
        values.extend_from_slice(&b.values);
    }
    debug_assert_eq!(indptr.len(), n_rows + 1, "blocks must cover every row");
    Ok(RowKernelOutput {
        indptr,
        indices,
        values,
        counts,
        steals,
    })
}

fn run_rows_serial<S, N, K>(
    n_rows: usize,
    token: Option<&CancelToken>,
    new_scratch: &N,
    row_kernel: &K,
) -> Result<RowKernelOutput>
where
    N: Fn() -> S,
    K: Fn(usize, &mut S, &mut Vec<u32>, &mut Vec<f64>, &mut SpgemmCounts),
{
    let mut scratch = new_scratch();
    let mut indptr = Vec::with_capacity(n_rows + 1);
    indptr.push(0usize);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    let mut counts = SpgemmCounts::default();
    for row in 0..n_rows {
        if let Some(t) = token {
            t.checkpoint()?;
        }
        row_kernel(row, &mut scratch, &mut indices, &mut values, &mut counts);
        indptr.push(indices.len());
    }
    Ok(RowKernelOutput {
        indptr,
        indices,
        values,
        counts,
        steals: 0,
    })
}

/// Per-worker scratch for the general Gustavson kernel: the dense
/// epoch-stamped accumulator, its duplicate-free touched-column list, and
/// the pair buffer the sparse strategy gathers into. Both buffers are
/// reused across every row the worker executes, so a mixed adaptive run
/// allocates each at its high-water mark once.
pub(crate) struct RowScratch {
    pub(crate) acc: DenseAccum,
    pub(crate) touched: Vec<u32>,
    pub(crate) pairs: Vec<(u32, f64)>,
}

impl RowScratch {
    pub(crate) fn new(n_cols: usize) -> Self {
        RowScratch {
            acc: DenseAccum::new(n_cols),
            touched: Vec::new(),
            pairs: Vec::new(),
        }
    }
}

/// Gustavson SpGEMM `C = A·B`, pruned per `opts`, run per `exec`: on
/// `exec.threads` workers (serially when `1`), through the out-of-core
/// panel path when `exec.panel` is engaged, polling `exec.token` between
/// output rows. Work counts (rows, flops, intermediate/final nnz,
/// threshold drops — see [`metric_names`]) are accumulated in locals and
/// flushed to `exec.metrics` once at the end of the call.
pub fn spgemm(
    a: &CsrMatrix,
    b: &CsrMatrix,
    opts: &SpgemmOptions,
    exec: &Exec,
) -> Result<CsrMatrix> {
    check_dims(a, b)?;
    // A serial call has no scheduler, so it records no steal counter.
    let record_steals = exec.threads != 1;
    if exec.panel.engaged() {
        return crate::panel::spgemm_panel(a, b, opts, exec, record_steals);
    }
    let n_rows = a.n_rows();
    let n_cols = b.n_cols();
    let out = run_rows(
        n_rows,
        exec.threads,
        exec.token.as_ref(),
        || RowScratch::new(n_cols),
        |row, scratch: &mut RowScratch, indices, values, counts| {
            gustavson_row(
                a, b, row, scratch, opts, exec.accum, indices, values, counts,
            );
        },
    )?;
    out.counts.flush(exec.metrics());
    if record_steals {
        out.flush_steals(exec.metrics());
    }
    Ok(CsrMatrix::from_raw_parts_unchecked(
        n_rows,
        n_cols,
        out.indptr,
        out.indices,
        out.values,
    ))
}

/// Gustavson `A·B` fused with a per-row `epilogue`, run per `exec` on the
/// shared row runner (work stealing, a cancellation poll per row, worker
/// panics as [`SparseError::WorkerPanic`]). Returns the product and the
/// multiply-adds performed; nothing is flushed under `spgemm.*`.
///
/// Every row accumulates densely whatever `exec.accum` says, and
/// `exec.panel` is ignored. The epilogue gets the row's `(column, value)`
/// entries in *first-touch* order, may reorder or overwrite them, and
/// appends the output row to `(indices, values)` in ascending column
/// order; the result is validated, so an epilogue that breaks that order
/// fails the call with [`SparseError::InvalidStructure`].
pub fn spgemm_rows<E>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    exec: &Exec,
    epilogue: E,
) -> Result<(CsrMatrix, u64)>
where
    E: Fn(&mut Vec<(u32, f64)>, &mut Vec<u32>, &mut Vec<f64>) + Sync,
{
    check_dims(a, b)?;
    let (n_rows, n_cols) = (a.n_rows(), b.n_cols());
    let out = run_rows(
        n_rows,
        exec.threads,
        exec.token.as_ref(),
        || RowScratch::new(n_cols),
        |row, scratch: &mut RowScratch, indices, values, _| {
            scatter_row(a, b, row, scratch);
            let RowScratch {
                acc,
                touched,
                pairs,
            } = scratch;
            pairs.clear();
            pairs.extend(touched.iter().map(|&j| (j, acc.get(j))));
            epilogue(pairs, indices, values);
        },
    )?;
    let m = CsrMatrix::from_raw_parts(n_rows, n_cols, out.indptr, out.indices, out.values)?;
    Ok((m, spgemm_flops(a, b) as u64))
}

/// Estimated number of multiply-adds for `A·B` (the paper's Σᵢ dᵢ² bound
/// specializes this to `A·Aᵀ`). Useful for predicting symmetrization cost.
pub fn spgemm_flops(a: &CsrMatrix, b: &CsrMatrix) -> usize {
    (0..a.n_rows())
        .map(|r| {
            a.row_indices(r)
                .iter()
                .map(|&k| b.row_nnz(k as usize))
                .sum::<usize>()
        })
        .sum()
}

/// Gustavson upper bound on `nnz(A·B)`: every multiply-add produces at most
/// one output entry, so the FLOP count of the row pass bounds the output
/// size. This is the estimate the memory-budget guard compares against its
/// nnz budget *before* allocating anything output-sized.
pub fn spgemm_nnz_upper_bound(a: &CsrMatrix, b: &CsrMatrix) -> usize {
    spgemm_flops(a, b)
}

/// Outcome of [`spgemm_budgeted`]: the product plus degradation provenance.
#[derive(Debug, Clone)]
pub struct BudgetedSpgemm {
    /// The (possibly additionally thresholded) product.
    pub matrix: CsrMatrix,
    /// Whether the budget forced a degraded (adaptively thresholded)
    /// computation instead of the exact one.
    pub degraded: bool,
    /// The threshold in effect when the last row was produced. Equals
    /// `opts.threshold` when not degraded.
    pub threshold_used: f64,
    /// The Gustavson upper bound on the exact output nnz that was compared
    /// against the budget.
    pub estimated_nnz: usize,
}

/// SpGEMM under an output-size budget: if the Gustavson upper bound on
/// `nnz(A·B)` fits within `budget_nnz`, this is an exact (possibly
/// parallel) multiply. Otherwise the multiply degrades gracefully instead
/// of aborting: it runs serially with an *adaptive* threshold — whenever
/// the accumulated output exceeds the budget, the threshold is raised to
/// the magnitude that keeps roughly `budget_nnz / 2` of the strongest
/// entries and the output built so far is compacted. The result is a
/// deterministic, thresholded approximation whose memory never grows
/// past O(`budget_nnz`) plus one dense accumulator row.
pub fn spgemm_budgeted(
    a: &CsrMatrix,
    b: &CsrMatrix,
    opts: &SpgemmOptions,
    budget_nnz: usize,
    exec: &Exec,
) -> Result<BudgetedSpgemm> {
    check_dims(a, b)?;
    if budget_nnz == 0 {
        return Err(SparseError::InvalidArgument(
            "spgemm budget must be positive".into(),
        ));
    }
    let estimated_nnz = spgemm_nnz_upper_bound(a, b);
    if estimated_nnz <= budget_nnz {
        return Ok(BudgetedSpgemm {
            matrix: spgemm(a, b, opts, exec)?,
            degraded: false,
            threshold_used: opts.threshold,
            estimated_nnz,
        });
    }

    // Degraded path: serial Gustavson with adaptive thresholding.
    let metrics = exec.metrics();
    if let Some(m) = metrics {
        m.counter(metric_names::DEGRADED_FALLBACKS).inc();
    }
    let mut compactions = 0u64;
    let n_rows = a.n_rows();
    let n_cols = b.n_cols();
    let mut scratch = RowScratch::new(n_cols);
    let mut indptr = Vec::with_capacity(n_rows + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut live_opts = opts.clone();
    let mut counts = SpgemmCounts::default();
    for row in 0..n_rows {
        exec.checkpoint()?;
        gustavson_row(
            a,
            b,
            row,
            &mut scratch,
            &live_opts,
            exec.accum,
            &mut indices,
            &mut values,
            &mut counts,
        );
        indptr.push(indices.len());
        if values.len() > budget_nnz {
            live_opts.threshold = raised_threshold(&values, live_opts.threshold, budget_nnz);
            compact_thresholded(&mut indptr, &mut indices, &mut values, live_opts.threshold);
            compactions += 1;
        }
    }
    // Compactions may have removed entries counted as emitted; the final
    // output length is the true final nnz.
    counts.emitted = indices.len() as u64;
    counts.flush(metrics);
    if let Some(m) = metrics {
        m.counter(metric_names::BUDGET_COMPACTIONS).add(compactions);
    }
    Ok(BudgetedSpgemm {
        matrix: CsrMatrix::from_raw_parts_unchecked(n_rows, n_cols, indptr, indices, values),
        degraded: true,
        threshold_used: live_opts.threshold,
        estimated_nnz,
    })
}

/// The adaptive-threshold raise used by the budget-degraded paths: the
/// magnitude of the ~(budget/2)-th strongest entry seen so far. Halving
/// (instead of trimming to exactly the budget) keeps compactions O(log)
/// in number rather than per-row.
pub(crate) fn raised_threshold(values: &[f64], current: f64, budget_nnz: usize) -> f64 {
    let keep = (budget_nnz / 2).max(1);
    let mut mags: Vec<f64> = values.iter().map(|v| v.abs()).collect();
    let kth = keep.min(mags.len()) - 1;
    mags.select_nth_unstable_by(kth, |x, y| y.total_cmp(x));
    current.max(mags[kth])
}

/// Drops entries with `|v| < threshold` from a partially-built CSR triple
/// in place, rewriting `indptr` for the rows emitted so far.
pub(crate) fn compact_thresholded(
    indptr: &mut [usize],
    indices: &mut Vec<u32>,
    values: &mut Vec<f64>,
    threshold: f64,
) {
    let mut write = 0usize;
    let mut read_row_end = 0usize;
    for p in indptr.iter_mut().skip(1) {
        let row_start = read_row_end;
        read_row_end = *p;
        for read in row_start..read_row_end {
            if values[read].abs() >= threshold {
                indices[write] = indices[read];
                values[write] = values[read];
                write += 1;
            }
        }
        *p = write;
    }
    indices.truncate(write);
    values.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::transpose;

    /// An [`Exec`] on `threads` threads, everything else at the default.
    fn on(threads: usize) -> Exec {
        Exec {
            threads,
            ..Exec::default()
        }
    }

    /// The plain serial product.
    fn mul(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix> {
        spgemm(a, b, &SpgemmOptions::default(), &on(1))
    }

    fn dense_mul(a: &CsrMatrix, b: &CsrMatrix) -> Vec<Vec<f64>> {
        let (n, k, m) = (a.n_rows(), a.n_cols(), b.n_cols());
        let da = a.to_dense();
        let db = b.to_dense();
        let mut out = vec![vec![0.0; m]; n];
        for i in 0..n {
            for l in 0..k {
                if da[i][l] == 0.0 {
                    continue;
                }
                for j in 0..m {
                    out[i][j] += da[i][l] * db[l][j];
                }
            }
        }
        out
    }

    #[test]
    fn spgemm_matches_dense_reference() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 2.0, 0.0], vec![0.0, 3.0, 4.0]]);
        let b = CsrMatrix::from_dense(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![2.0, 2.0]]);
        let c = mul(&a, &b).unwrap();
        c.validate().unwrap();
        assert_eq!(c.to_dense(), dense_mul(&a, &b));
    }

    #[test]
    fn spgemm_identity_is_noop() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 2.0], vec![3.0, 0.0]]);
        let i = CsrMatrix::identity(2);
        assert_eq!(mul(&a, &i).unwrap(), a);
        assert_eq!(mul(&i, &a).unwrap(), a);
    }

    #[test]
    fn spgemm_rejects_bad_dims() {
        let a = CsrMatrix::zeros(2, 3);
        let b = CsrMatrix::zeros(2, 3);
        assert!(mul(&a, &b).is_err());
    }

    #[test]
    fn aat_is_symmetric_and_counts_common_outlinks() {
        // Figure-1-style: rows 0 and 1 both point at columns 2 and 3.
        let a = CsrMatrix::from_dense(&[
            vec![0.0, 0.0, 1.0, 1.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
        ]);
        let b = mul(&a, &transpose(&a)).unwrap();
        assert!(b.is_symmetric(0.0));
        assert_eq!(b.get(0, 1), 2.0); // two shared out-links
        assert_eq!(b.get(0, 0), 2.0); // self-similarity = out-degree
        assert_eq!(b.get(2, 3), 0.0);
    }

    #[test]
    fn threshold_prunes_small_products() {
        let a = CsrMatrix::from_dense(&[vec![0.5, 1.0], vec![1.0, 1.0]]);
        let opts = SpgemmOptions {
            threshold: 1.2,
            ..Default::default()
        };
        let c = spgemm(&a, &a, &opts, &on(1)).unwrap();
        let full = mul(&a, &a).unwrap();
        for (r, col, v) in full.iter() {
            if v.abs() >= 1.2 {
                assert_eq!(c.get(r, col as usize), v);
            } else {
                assert_eq!(c.get(r, col as usize), 0.0);
            }
        }
    }

    #[test]
    fn drop_diagonal_option() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let opts = SpgemmOptions {
            drop_diagonal: true,
            ..Default::default()
        };
        let c = spgemm(&a, &a, &opts, &on(1)).unwrap();
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(1, 1), 0.0);
        assert_eq!(c.get(0, 1), 2.0);
    }

    fn pseudo_random_matrix(n: usize, seed: u64, density_shift: u32) -> CsrMatrix {
        let mut rows = vec![vec![0.0; n]; n];
        let mut state = seed;
        for r in rows.iter_mut() {
            for v in r.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> (64 - density_shift) == 0 {
                    *v = ((state >> 32) % 7 + 1) as f64;
                }
            }
        }
        CsrMatrix::from_dense(&rows)
    }

    #[test]
    fn parallel_matches_serial() {
        // Deterministic pseudo-random matrix, large enough to split.
        let a = pseudo_random_matrix(64, 0x243F6A8885A308D3, 4);
        let serial = mul(&a, &a).unwrap();
        let parallel = spgemm(&a, &a, &SpgemmOptions::default(), &on(4)).unwrap();
        parallel.validate().unwrap();
        assert_eq!(serial.indptr(), parallel.indptr());
        assert_eq!(serial.indices(), parallel.indices());
        for (s, p) in serial.values().iter().zip(parallel.values()) {
            assert!((s - p).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_is_identical_across_thread_counts() {
        // Bit-identical output regardless of scheduling: the block
        // assembly is deterministic even when every block is stolen.
        let a = pseudo_random_matrix(200, 0x9E3779B97F4A7C15, 3);
        let serial = mul(&a, &a).unwrap();
        for n_threads in [2, 3, 5, 8] {
            let parallel = spgemm(&a, &a, &SpgemmOptions::default(), &on(n_threads)).unwrap();
            assert_eq!(serial, parallel, "thread count {n_threads}");
        }
    }

    #[test]
    fn parallel_small_input_falls_back_to_serial() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let c = spgemm(&a, &a, &SpgemmOptions::default(), &on(8)).unwrap();
        assert_eq!(c, mul(&a, &a).unwrap());
    }

    #[test]
    fn worker_panic_becomes_error_not_abort() {
        // A panic inside a worker's row kernel must surface as
        // SparseError::WorkerPanic from the runner, not kill the process.
        let err = run_rows(
            1024,
            4,
            None,
            || (),
            |row, _scratch: &mut (), indices, values, _counts| {
                if row == 700 {
                    panic!("injected row failure");
                }
                indices.push(0);
                values.push(1.0);
            },
        )
        .unwrap_err();
        match err {
            SparseError::WorkerPanic(msg) => assert!(msg.contains("injected row failure")),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn steals_counter_is_recorded_for_parallel_runs() {
        let a = pseudo_random_matrix(300, 0x243F6A8885A308D3, 3);
        let m = MetricsRegistry::new();
        let exec = Exec {
            metrics: Some(m.clone()),
            ..on(4)
        };
        spgemm(&a, &a, &SpgemmOptions::default(), &exec).unwrap();
        // The steal count itself is scheduling-dependent; what is
        // guaranteed is that the counter exists after a parallel run.
        assert!(m.snapshot().counter(metric_names::SCHED_STEALS).is_some());
    }

    #[test]
    fn cancelled_token_aborts_serial_and_parallel() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let cancelled = |threads| Exec {
            token: Some(token.clone()),
            ..on(threads)
        };
        let serial = spgemm(&a, &a, &SpgemmOptions::default(), &cancelled(0));
        assert_eq!(serial, Err(SparseError::Cancelled));
        let parallel = spgemm(&a, &a, &SpgemmOptions::default(), &cancelled(4));
        assert_eq!(parallel, Err(SparseError::Cancelled));
    }

    #[test]
    fn cancelled_token_aborts_large_parallel_multiply() {
        // Large enough that the parallel path actually spawns workers.
        let a = pseudo_random_matrix(128, 0x243F6A8885A308D3, 3);
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let exec = Exec {
            token: Some(token),
            ..on(4)
        };
        let r = spgemm(&a, &a, &SpgemmOptions::default(), &exec);
        assert_eq!(r, Err(SparseError::Cancelled));
    }

    #[test]
    fn live_token_matches_uncancelled_result() {
        let a = CsrMatrix::from_dense(&[
            vec![1.0, 2.0, 0.0],
            vec![0.0, 3.0, 4.0],
            vec![1.0, 0.0, 1.0],
        ]);
        let exec = Exec {
            token: Some(crate::cancel::CancelToken::new()),
            ..on(0)
        };
        let c = spgemm(&a, &a, &SpgemmOptions::default(), &exec).unwrap();
        assert_eq!(c, mul(&a, &a).unwrap());
    }

    #[test]
    fn flops_estimate_matches_structure() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![0.0, 1.0]]);
        // row0 of A hits rows 0 and 1 of B (nnz 2 + 1), row1 hits row 1 (1).
        assert_eq!(spgemm_flops(&a, &a), 4);
        assert_eq!(spgemm_nnz_upper_bound(&a, &a), 4);
    }

    #[test]
    fn budgeted_within_budget_is_exact() {
        let a = CsrMatrix::from_dense(&[
            vec![1.0, 2.0, 0.0],
            vec![0.0, 3.0, 4.0],
            vec![1.0, 0.0, 1.0],
        ]);
        let r = spgemm_budgeted(&a, &a, &SpgemmOptions::default(), 1_000_000, &on(0)).unwrap();
        assert!(!r.degraded);
        assert_eq!(r.threshold_used, 0.0);
        assert_eq!(r.matrix, mul(&a, &a).unwrap());
        assert!(r.estimated_nnz >= r.matrix.nnz());
    }

    #[test]
    fn budgeted_over_budget_degrades_and_respects_budget() {
        // Dense-ish 32x32 product: exact output has ~1024 entries.
        let n = 32;
        let mut rows = vec![vec![0.0; n]; n];
        let mut state = 0x9E3779B97F4A7C15u64;
        for r in rows.iter_mut() {
            for v in r.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *v = ((state >> 56) % 5) as f64; // many nonzeros, varied values
            }
        }
        let a = CsrMatrix::from_dense(&rows);
        let budget = 64;
        let r = spgemm_budgeted(&a, &a, &SpgemmOptions::default(), budget, &on(0)).unwrap();
        assert!(r.degraded);
        assert!(r.threshold_used > 0.0);
        assert!(r.estimated_nnz > budget);
        // The final compaction keeps the output near the budget (it can
        // exceed budget only transiently, between compactions).
        assert!(
            r.matrix.nnz() <= budget + n,
            "nnz {} way over budget {budget}",
            r.matrix.nnz()
        );
        r.matrix.validate().unwrap();
        // Every surviving entry matches the exact product and passes the
        // final threshold.
        let exact = mul(&a, &a).unwrap();
        for (row, col, v) in r.matrix.iter() {
            assert!((exact.get(row, col as usize) - v).abs() < 1e-12);
            assert!(v.abs() >= r.threshold_used);
        }
        // Degraded output is deterministic.
        let again = spgemm_budgeted(&a, &a, &SpgemmOptions::default(), budget, &on(0)).unwrap();
        assert_eq!(r.matrix, again.matrix);
    }

    #[test]
    fn observed_records_exact_work_counters() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![0.0, 1.0]]);
        let m = MetricsRegistry::new();
        let exec = Exec {
            metrics: Some(m.clone()),
            ..on(1)
        };
        let c = spgemm(&a, &a, &SpgemmOptions::default(), &exec).unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.counter(metric_names::CALLS), Some(1));
        assert_eq!(snap.counter(metric_names::ROWS), Some(2));
        assert_eq!(
            snap.counter(metric_names::FLOPS),
            Some(spgemm_flops(&a, &a) as u64)
        );
        assert_eq!(snap.counter(metric_names::NNZ_FINAL), Some(c.nnz() as u64));
        // No threshold, positive values: nothing dropped.
        assert_eq!(snap.counter(metric_names::THRESHOLD_DROPPED), Some(0));
        assert_eq!(
            snap.counter(metric_names::NNZ_INTERMEDIATE),
            Some(c.nnz() as u64)
        );
    }

    #[test]
    fn parallel_observed_counters_match_serial() {
        let a = pseudo_random_matrix(64, 0x243F6A8885A308D3, 4);
        let observed = |threads| {
            let m = MetricsRegistry::new();
            let exec = Exec {
                metrics: Some(m.clone()),
                ..on(threads)
            };
            spgemm(&a, &a, &SpgemmOptions::default(), &exec).unwrap();
            m
        };
        let serial = observed(1);
        let parallel = observed(4);
        for key in [
            metric_names::ROWS,
            metric_names::FLOPS,
            metric_names::NNZ_INTERMEDIATE,
            metric_names::NNZ_FINAL,
            metric_names::THRESHOLD_DROPPED,
        ] {
            assert_eq!(
                serial.snapshot().counter(key),
                parallel.snapshot().counter(key),
                "{key} differs between serial and parallel"
            );
        }
    }

    #[test]
    fn budgeted_degraded_records_fallback_and_compactions() {
        let n = 32;
        let mut rows = vec![vec![0.0; n]; n];
        let mut state = 0x9E3779B97F4A7C15u64;
        for r in rows.iter_mut() {
            for v in r.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *v = ((state >> 56) % 5) as f64;
            }
        }
        let a = CsrMatrix::from_dense(&rows);
        let m = MetricsRegistry::new();
        let exec = Exec {
            metrics: Some(m.clone()),
            ..on(0)
        };
        let r = spgemm_budgeted(&a, &a, &SpgemmOptions::default(), 64, &exec).unwrap();
        assert!(r.degraded);
        let snap = m.snapshot();
        assert_eq!(snap.counter(metric_names::DEGRADED_FALLBACKS), Some(1));
        assert!(snap.counter(metric_names::BUDGET_COMPACTIONS).unwrap() > 0);
        assert_eq!(
            snap.counter(metric_names::NNZ_FINAL),
            Some(r.matrix.nnz() as u64)
        );
    }

    #[test]
    fn budgeted_rejects_zero_budget_and_honors_cancellation() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert!(spgemm_budgeted(&a, &a, &SpgemmOptions::default(), 0, &on(0)).is_err());
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let exec = Exec {
            token: Some(token),
            ..on(0)
        };
        let r = spgemm_budgeted(&a, &a, &SpgemmOptions::default(), 1, &exec);
        assert_eq!(r.err(), Some(SparseError::Cancelled));
    }
}
