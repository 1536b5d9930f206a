//! Out-of-core 2D panel-partitioned SpGEMM.
//!
//! The in-memory kernels in [`crate::spgemm`] and [`crate::syrk`] hold the
//! whole intermediate product in RAM. This module splits the output into a
//! 2D grid of **tiles** — row panels × column panels of `panel_rows` rows
//! and columns each — and streams the tiles through the same work-stealing
//! scheduler the row kernels use ([`crate::sched`]), one tile per
//! scheduling block. Each tile computes the *complete* restriction of its
//! output rows to its column range (the inner `k` loop is never split), so
//! thresholding, `drop_diagonal` and per-entry emission all work per tile
//! exactly as they do in memory.
//!
//! ## Bit-identity with the in-memory path
//!
//! A tile runs the in-memory row body ([`crate::spgemm::product_row`])
//! with its column range `[c_lo, c_hi)`, which clips each right-factor
//! row with a `partition_point` at every edge that cuts into it. Clipping
//! preserves, for every output column `j`, the exact sequence of `f64`
//! adds the in-memory kernel performs for `j`: products are generated in
//! the same ascending-`k` (and, for SYRK sums, term-major) order and
//! accumulate into a slot that starts at the same `+0.0`. Which emission
//! the dense accumulator picks can differ between a tile and the whole
//! row (the tile's span is narrower), but both emissions read the same
//! sums. The sparse strategy's stable sort preserves the same order per
//! column. Tiles are concatenated in ascending column-panel order per
//! row, so each merged row is the in-memory row, bit for bit — at any
//! panel size, thread count, or spill budget.
//!
//! Every deterministic work counter also matches: tile column ranges
//! partition the full column range, so per-tile FLOP / touched / emitted
//! counts sum to the in-memory totals, and the per-row counters
//! (`rows`, `rows_dense`, `rows_sparse`) are counted once, on the row
//! panel's *owner* tile, using the **full-row** width estimate — the same
//! estimate the in-memory kernel uses — so the strategy mix is identical.
//!
//! ## Spilling
//!
//! When a [`PanelPlan::budget_bytes`] is set, tiles whose cumulative
//! estimated intermediate size exceeds the budget write their partial
//! products to scratch files through [`crate::spill`] (the only module
//! allowed to touch the filesystem) and are streamed back, row by row,
//! during the deterministic merge. The spill decision is made from a
//! structure-only estimate *before* execution, so `spgemm.panel_spills`
//! and `spgemm.spill_bytes` never depend on scheduling. Scratch files live
//! in a process-unique RAII directory that is removed on success, error,
//! cancellation, and panic.

use std::path::PathBuf;

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::exec::Exec;
use crate::sched::BlockQueues;
use crate::spgemm::{
    panic_text, product_row, resolve_threads, row_products, RowKernelOutput, RowScratch,
    SpgemmCounts, SpgemmOptions,
};
use crate::spill::{self, SpillDir, TileReader};
use crate::syrk::{flush_syrk, mirror_upper, SyrkTerm};
use crate::Result;

/// Default rows (and columns) per panel when a [`PanelPlan`] is engaged
/// without an explicit size. Large enough that panel bookkeeping is noise
/// on in-memory-sized graphs, small enough that one tile's intermediate
/// fits comfortably in RAM at paper scale.
pub const DEFAULT_PANEL_ROWS: usize = 4096;

/// Out-of-core execution plan for SpGEMM, carried by [`Exec::panel`].
/// The plan changes *where* the multiply runs — never its output bytes or
/// deterministic work counters — so, like the thread and accumulator
/// knobs, it must never reach cache keys (enforced by the
/// `cache-key-purity` lint).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PanelPlan {
    /// Rows (and columns) per panel. `None` or `Some(0)` means
    /// [`DEFAULT_PANEL_ROWS`] when the plan is otherwise engaged.
    pub panel_rows: Option<usize>,
    /// Directory under which per-multiply scratch directories are created.
    /// `None` uses the OS temp dir.
    pub spill_dir: Option<PathBuf>,
    /// Estimated-intermediate byte budget: tiles past the cumulative
    /// budget spill to scratch files. `None` keeps every tile in memory.
    pub budget_bytes: Option<usize>,
}

impl PanelPlan {
    /// Whether the panel path should run at all. A default plan is
    /// disengaged: the kernels use the ordinary in-memory path.
    pub fn engaged(&self) -> bool {
        self.panel_rows.is_some() || self.budget_bytes.is_some()
    }

    /// The panel size this plan resolves to.
    pub fn effective_panel_rows(&self) -> usize {
        self.panel_rows
            .filter(|&r| r > 0)
            .unwrap_or(DEFAULT_PANEL_ROWS)
    }
}

/// One computed tile's payload: in memory, or spilled (byte count; the
/// entries live in the scratch file until the merge reads them back).
enum TileBody {
    InMem(Vec<u32>, Vec<f64>),
    Spilled(u64),
}

/// One finished tile, tagged for deterministic merge order. Row lengths
/// are always kept in memory (one `u32` per panel row) so the merge knows
/// how much of each spilled file belongs to each row.
struct TileOut {
    tile: usize,
    row_lens: Vec<u32>,
    body: TileBody,
}

/// Buffers a tile kernel fills: per-row segment lengths plus the
/// concatenated entries in row-major, ascending-column order.
#[derive(Default)]
struct TileData {
    row_lens: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

/// Deterministic spill plan: accumulate each tile's estimated intermediate
/// bytes in tile-index order; tiles past the budget spill. Independent of
/// scheduling, so the spill counters are bench-gateable.
fn plan_spills(
    n_tiles: usize,
    budget_bytes: Option<usize>,
    est: impl Fn(usize) -> u64,
) -> (Vec<bool>, usize) {
    let mut flags = vec![false; n_tiles];
    let Some(budget) = budget_bytes else {
        return (flags, 0);
    };
    let budget = budget as u64;
    let mut running = 0u64;
    let mut n_spilled = 0usize;
    for (tile, flag) in flags.iter_mut().enumerate() {
        running = running.saturating_add(est(tile));
        if running > budget {
            *flag = true;
            n_spilled += 1;
        }
    }
    (flags, n_spilled)
}

/// Routes a computed tile to memory or disk per the spill plan.
fn finish_tile(
    tile: usize,
    data: TileData,
    spill: &[bool],
    dir: Option<&SpillDir>,
    spill_bytes: &mut u64,
) -> Result<TileOut> {
    let body = match dir {
        Some(d) if spill[tile] => {
            let bytes = spill::write_tile(
                &d.tile_path(tile),
                &data.row_lens,
                &data.indices,
                &data.values,
            )?;
            *spill_bytes += bytes;
            TileBody::Spilled(bytes)
        }
        _ => TileBody::InMem(data.indices, data.values),
    };
    Ok(TileOut {
        tile,
        row_lens: data.row_lens,
        body,
    })
}

/// Runs `tile_kernel` over every tile, serially or under the work-stealing
/// scheduler (one tile per scheduling block), writing tiles the spill plan
/// marked to scratch files as they finish. Returns the tiles sorted by
/// index, the merged work counters, the steal count, and the bytes
/// spilled. Mirrors [`crate::spgemm::run_rows`]'s panic and error
/// semantics: worker panics become [`SparseError::WorkerPanic`] and real
/// failures outrank cancellation.
fn run_tiles<S, N, K>(
    n_tiles: usize,
    n_threads: usize,
    spill: &[bool],
    dir: Option<&SpillDir>,
    new_scratch: N,
    tile_kernel: K,
) -> Result<(Vec<TileOut>, SpgemmCounts, u64, u64)>
where
    N: Fn() -> S + Sync,
    K: Fn(usize, &mut S, &mut TileData, &mut SpgemmCounts) -> Result<()> + Sync,
{
    let n_threads = resolve_threads(n_threads);
    if n_threads <= 1 || n_tiles < 2 * n_threads {
        let mut scratch = new_scratch();
        let mut outs = Vec::with_capacity(n_tiles);
        let mut counts = SpgemmCounts::default();
        let mut spill_bytes = 0u64;
        for tile in 0..n_tiles {
            let mut data = TileData::default();
            tile_kernel(tile, &mut scratch, &mut data, &mut counts)?;
            outs.push(finish_tile(tile, data, spill, dir, &mut spill_bytes)?);
        }
        return Ok((outs, counts, 0, spill_bytes));
    }

    let n_workers = n_threads.min(n_tiles);
    let queues = BlockQueues::new(n_tiles, n_workers);
    type WorkerResult = Result<(Vec<TileOut>, SpgemmCounts, u64, u64)>;
    let mut worker_results: Vec<WorkerResult> = Vec::with_capacity(n_workers);
    let scope_result = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let queues = &queues;
            let new_scratch = &new_scratch;
            let tile_kernel = &tile_kernel;
            handles.push(scope.spawn(move |_| -> WorkerResult {
                let body =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> WorkerResult {
                        let mut scratch = new_scratch();
                        let mut outs: Vec<TileOut> = Vec::new();
                        let mut counts = SpgemmCounts::default();
                        let mut steals = 0u64;
                        let mut spill_bytes = 0u64;
                        loop {
                            let (tile, stolen) = match queues.pop_own(w) {
                                Some(t) => (t, false),
                                None => match queues.steal(w) {
                                    Some(t) => (t, true),
                                    None => break,
                                },
                            };
                            steals += u64::from(stolen);
                            let mut data = TileData::default();
                            tile_kernel(tile, &mut scratch, &mut data, &mut counts)?;
                            outs.push(finish_tile(tile, data, spill, dir, &mut spill_bytes)?);
                        }
                        Ok((outs, counts, steals, spill_bytes))
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

    // Same error priority as the row runner: a real failure (panic, I/O)
    // beats cancellation.
    let mut cancelled = false;
    let mut outs: Vec<TileOut> = Vec::with_capacity(n_tiles);
    let mut counts = SpgemmCounts::default();
    let mut steals = 0u64;
    let mut spill_bytes = 0u64;
    let mut first_error: Option<SparseError> = None;
    for wr in worker_results {
        match wr {
            Ok((wouts, wcounts, wsteals, wbytes)) => {
                outs.extend(wouts);
                counts.merge(&wcounts);
                steals += wsteals;
                spill_bytes += wbytes;
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
    outs.sort_unstable_by_key(|t| t.tile);
    Ok((outs, counts, steals, spill_bytes))
}

/// Streaming read position into one tile during the merge.
enum Cursor<'a> {
    Mem {
        indices: &'a [u32],
        values: &'a [f64],
        at: usize,
    },
    Disk(TileReader),
}

/// Concatenates tiles into the final CSR triple, row panel by row panel:
/// within a panel, each output row is assembled by appending its segment
/// from every column tile in ascending tile order (in-memory tiles are
/// sliced, spilled tiles streamed back row by row). Tile indices must be
/// contiguous and grouped by row panel — `panel_tile_counts[pi]` tiles for
/// panel `pi`, in order.
fn merge_panel_outputs(
    n_rows: usize,
    panel_rows: usize,
    outs: &[TileOut],
    panel_tile_counts: &[usize],
    dir: Option<&SpillDir>,
) -> Result<(Vec<usize>, Vec<u32>, Vec<f64>)> {
    let total_nnz: usize = outs
        .iter()
        .map(|t| match &t.body {
            TileBody::InMem(i, _) => i.len(),
            TileBody::Spilled(bytes) => (*bytes / 12) as usize,
        })
        .sum();
    let mut indptr = Vec::with_capacity(n_rows + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::with_capacity(total_nnz);
    let mut values: Vec<f64> = Vec::with_capacity(total_nnz);
    let mut tile_at = 0usize;
    for (pi, &n_panel_tiles) in panel_tile_counts.iter().enumerate() {
        let r_lo = pi * panel_rows;
        let r_hi = ((pi + 1) * panel_rows).min(n_rows);
        let panel_tiles = &outs[tile_at..tile_at + n_panel_tiles];
        tile_at += n_panel_tiles;
        let mut cursors: Vec<Cursor<'_>> = Vec::with_capacity(n_panel_tiles);
        for t in panel_tiles {
            cursors.push(match &t.body {
                TileBody::InMem(i, v) => Cursor::Mem {
                    indices: i,
                    values: v,
                    at: 0,
                },
                TileBody::Spilled(_) => {
                    let d = dir.ok_or_else(|| {
                        SparseError::Io("spilled tile without a scratch dir".into())
                    })?;
                    Cursor::Disk(TileReader::open(&d.tile_path(t.tile))?)
                }
            });
        }
        for local in 0..(r_hi - r_lo) {
            for (t, cur) in panel_tiles.iter().zip(cursors.iter_mut()) {
                let len = t.row_lens[local] as usize;
                match cur {
                    Cursor::Mem {
                        indices: ti,
                        values: tv,
                        at,
                    } => {
                        indices.extend_from_slice(&ti[*at..*at + len]);
                        values.extend_from_slice(&tv[*at..*at + len]);
                        *at += len;
                    }
                    Cursor::Disk(reader) => reader.read_row(len, &mut indices, &mut values)?,
                }
            }
            indptr.push(indices.len());
        }
    }
    debug_assert_eq!(indptr.len(), n_rows + 1, "panels must cover every row");
    Ok((indptr, indices, values))
}

/// Computes one tile: rows `[r_lo, r_hi)` of `Σₜ xₜ·xtₜ` restricted to
/// columns `[c_lo, c_hi)` — further to `[max(row, c_lo), c_hi)` for an
/// upper-triangle (`triangle`) SYRK tile — through the in-memory row body
/// [`product_row`]. Flops / touched / emitted are counted per tile over
/// disjoint column ranges, so they sum to the in-memory totals; the
/// per-row counters are counted only on the row panel's `owner` tile.
#[allow(clippy::too_many_arguments)]
fn product_tile(
    terms: &[SyrkTerm<'_>],
    rows: (usize, usize),
    cols: (usize, usize),
    triangle: bool,
    owner: bool,
    scratch: &mut RowScratch,
    opts: &SpgemmOptions,
    exec: &Exec,
    out: &mut TileData,
    counts: &mut SpgemmCounts,
) -> Result<()> {
    let (c_lo, c_hi) = cols;
    for row in rows.0..rows.1 {
        exec.checkpoint()?;
        let before = out.indices.len();
        let floor = if triangle { c_lo.max(row) } else { c_lo };
        let dense = product_row(
            terms,
            row,
            (floor, c_hi),
            scratch,
            opts,
            exec.accum,
            &mut out.indices,
            &mut out.values,
            counts,
        );
        if owner {
            counts.row(dense);
        }
        out.row_lens.push((out.indices.len() - before) as u32);
    }
    Ok(())
}

/// Panel range `[lo, hi)` for panel `p` of `n` items at `panel_rows` each.
fn panel_range(p: usize, panel_rows: usize, n: usize) -> (usize, usize) {
    (p * panel_rows, ((p + 1) * panel_rows).min(n))
}

/// Out-of-core general SpGEMM: `C = A·B` through the panel grid.
/// Dimensions must already be checked. `record_steals` carries the
/// in-memory path's rule (a serial call records no steal counter).
pub(crate) fn spgemm_panel(
    a: &CsrMatrix,
    b: &CsrMatrix,
    opts: &SpgemmOptions,
    exec: &Exec,
    record_steals: bool,
) -> Result<CsrMatrix> {
    let n_rows = a.n_rows();
    let n_cols = b.n_cols();
    let panel_rows = exec.panel.effective_panel_rows();
    let n_row_panels = n_rows.div_ceil(panel_rows);
    let n_col_panels = n_cols.div_ceil(panel_rows).max(1);
    let n_tiles = n_row_panels * n_col_panels;

    let mut panel_flops = vec![0u64; n_row_panels];
    for (pi, pf) in panel_flops.iter_mut().enumerate() {
        let (r_lo, r_hi) = panel_range(pi, panel_rows, n_rows);
        for row in r_lo..r_hi {
            *pf += row_products(a, b, row) as u64;
        }
    }
    let est = |tile: usize| -> u64 {
        panel_flops[tile / n_col_panels].saturating_mul(12) / n_col_panels as u64
    };
    let (spill_flags, n_spilled) = plan_spills(n_tiles, exec.panel.budget_bytes, est);
    let dir = if n_spilled > 0 {
        Some(SpillDir::create(exec.panel.spill_dir.as_deref())?)
    } else {
        None
    };

    let terms = [SyrkTerm { x: a, xt: b }];
    let (outs, mut counts, steals, spill_bytes) = run_tiles(
        n_tiles,
        exec.threads,
        &spill_flags,
        dir.as_ref(),
        || RowScratch::new(n_cols, 1),
        |tile, scratch, data, counts| {
            let pi = tile / n_col_panels;
            let pj = tile % n_col_panels;
            product_tile(
                &terms,
                panel_range(pi, panel_rows, n_rows),
                panel_range(pj, panel_rows, n_cols),
                false,
                pj == 0,
                scratch,
                opts,
                exec,
                data,
                counts,
            )
        },
    )?;
    counts.panels = n_tiles as u64;
    counts.panel_spills = n_spilled as u64;
    counts.spill_bytes = spill_bytes;

    let panel_tile_counts = vec![n_col_panels; n_row_panels];
    let (indptr, indices, values) =
        merge_panel_outputs(n_rows, panel_rows, &outs, &panel_tile_counts, dir.as_ref())?;
    let out = RowKernelOutput {
        indptr,
        indices,
        values,
        counts,
        steals,
    };
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

/// Out-of-core fused SYRK sum: upper triangle of `Σₜ Xₜ·Xₜᵀ` through an
/// upper-triangular tile grid, then the shared O(nnz) mirror pass. Terms
/// must already be checked; `n` is their common output dimension.
pub(crate) fn spgemm_syrk_sum_panel(
    terms: &[SyrkTerm<'_>],
    n: usize,
    opts: &SpgemmOptions,
    exec: &Exec,
) -> Result<CsrMatrix> {
    let panel_rows = exec.panel.effective_panel_rows();
    let n_panels = n.div_ceil(panel_rows);
    // Upper-triangular tile list: tiles for row panel pi are (pi, pi..n_panels),
    // contiguous in index order — the layout merge_panel_outputs expects.
    let mut tile_panels: Vec<(usize, usize)> = Vec::new();
    let mut panel_tile_counts = Vec::with_capacity(n_panels);
    for pi in 0..n_panels {
        panel_tile_counts.push(n_panels - pi);
        for pj in pi..n_panels {
            tile_panels.push((pi, pj));
        }
    }
    let n_tiles = tile_panels.len();

    let mut panel_flops = vec![0u64; n_panels];
    for (pi, pf) in panel_flops.iter_mut().enumerate() {
        let (r_lo, r_hi) = panel_range(pi, panel_rows, n);
        for row in r_lo..r_hi {
            for term in terms {
                *pf += row_products(term.x, term.xt, row) as u64;
            }
        }
    }
    let est = |tile: usize| -> u64 {
        let (pi, _) = tile_panels[tile];
        panel_flops[pi].saturating_mul(12) / (n_panels - pi) as u64
    };
    let (spill_flags, n_spilled) = plan_spills(n_tiles, exec.panel.budget_bytes, est);
    let dir = if n_spilled > 0 {
        Some(SpillDir::create(exec.panel.spill_dir.as_deref())?)
    } else {
        None
    };

    let (outs, mut counts, steals, spill_bytes) = run_tiles(
        n_tiles,
        exec.threads,
        &spill_flags,
        dir.as_ref(),
        || RowScratch::new(n, terms.len()),
        |tile, scratch, data, counts| {
            let (pi, pj) = tile_panels[tile];
            product_tile(
                terms,
                panel_range(pi, panel_rows, n),
                panel_range(pj, panel_rows, n),
                true,
                pj == pi,
                scratch,
                opts,
                exec,
                data,
                counts,
            )
        },
    )?;
    counts.panels = n_tiles as u64;
    counts.panel_spills = n_spilled as u64;
    counts.spill_bytes = spill_bytes;

    let (upper_indptr, upper_indices, upper_values) =
        merge_panel_outputs(n, panel_rows, &outs, &panel_tile_counts, dir.as_ref())?;
    drop(dir);
    let (indptr, indices, values, mirrored) =
        mirror_upper(n, &upper_indptr, &upper_indices, &upper_values);
    let out = RowKernelOutput {
        indptr,
        indices,
        values,
        counts,
        steals,
    };
    flush_syrk(&out, mirrored, exec.metrics());
    Ok(CsrMatrix::from_raw_parts_unchecked(
        n,
        n,
        out.indptr,
        out.indices,
        out.values,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::ops::transpose;
    use crate::spgemm::spgemm;
    use crate::syrk::spgemm_syrk_sum;
    use symclust_obs::MetricsRegistry;

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

    fn panel_exec(panel_rows: usize, budget: Option<usize>) -> Exec {
        Exec {
            threads: 1,
            panel: PanelPlan {
                panel_rows: Some(panel_rows),
                spill_dir: None,
                budget_bytes: budget,
            },
            ..Exec::default()
        }
    }

    fn baseline_exec() -> Exec {
        Exec {
            threads: 1,
            panel: PanelPlan::default(),
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

    fn mul(a: &CsrMatrix, b: &CsrMatrix, exec: &Exec) -> Result<CsrMatrix> {
        spgemm(a, b, &SpgemmOptions::default(), exec)
    }

    #[test]
    fn plan_is_disengaged_by_default_and_engages_on_any_knob() {
        assert!(!PanelPlan::default().engaged());
        assert!(PanelPlan {
            panel_rows: Some(16),
            ..Default::default()
        }
        .engaged());
        assert!(PanelPlan {
            budget_bytes: Some(1),
            ..Default::default()
        }
        .engaged());
        assert_eq!(
            PanelPlan::default().effective_panel_rows(),
            DEFAULT_PANEL_ROWS
        );
        assert_eq!(
            PanelPlan {
                panel_rows: Some(0),
                ..Default::default()
            }
            .effective_panel_rows(),
            DEFAULT_PANEL_ROWS
        );
        assert_eq!(
            PanelPlan {
                panel_rows: Some(7),
                ..Default::default()
            }
            .effective_panel_rows(),
            7
        );
    }

    #[test]
    fn spill_plan_is_a_budgeted_suffix() {
        let (flags, n) = plan_spills(4, None, |_| 100);
        assert_eq!(flags, vec![false; 4]);
        assert_eq!(n, 0);
        // Budget holds the first two 100-byte tiles, spills the rest.
        let (flags, n) = plan_spills(4, Some(250), |_| 100);
        assert_eq!(flags, vec![false, false, true, true]);
        assert_eq!(n, 2);
        // A budget smaller than the first tile spills everything.
        let (flags, n) = plan_spills(3, Some(1), |_| 100);
        assert_eq!(flags, vec![true; 3]);
        assert_eq!(n, 3);
    }

    #[test]
    fn panel_matches_in_memory_bitwise_across_panel_sizes() {
        let a = pseudo_random_matrix(80, 0x243F6A8885A308D3, 3);
        let baseline = mul(&a, &a, &baseline_exec()).unwrap();
        for panel_rows in [1, 3, 7, 16, 100] {
            let got = mul(&a, &a, &panel_exec(panel_rows, None)).unwrap();
            assert_eq!(baseline, got, "panel_rows {panel_rows}");
        }
    }

    #[test]
    fn forced_spills_do_not_change_output() {
        let a = pseudo_random_matrix(60, 0x9E3779B97F4A7C15, 3);
        let baseline = mul(&a, &a, &baseline_exec()).unwrap();
        let m = MetricsRegistry::new();
        let got = mul(&a, &a, &observed(panel_exec(16, Some(1)), &m)).unwrap();
        assert_eq!(baseline, got);
        let snap = m.snapshot();
        assert!(snap.counter("spgemm.panels").unwrap() > 1);
        assert!(snap.counter("spgemm.panel_spills").unwrap() >= 1);
        assert!(snap.counter("spgemm.spill_bytes").unwrap() >= 12);
    }

    #[test]
    fn panel_work_counters_match_in_memory() {
        let a = pseudo_random_matrix(70, 0xB7E151628AED2A6A, 3);
        let base = MetricsRegistry::new();
        mul(&a, &a, &observed(baseline_exec(), &base)).unwrap();
        let pan = MetricsRegistry::new();
        mul(&a, &a, &observed(panel_exec(9, Some(64)), &pan)).unwrap();
        for key in [
            "spgemm.rows",
            "spgemm.flops",
            "spgemm.nnz_intermediate",
            "spgemm.nnz_final",
            "spgemm.threshold_dropped",
            "spgemm.rows_dense",
            "spgemm.rows_sparse",
        ] {
            assert_eq!(
                base.snapshot().counter(key),
                pan.snapshot().counter(key),
                "{key} differs between in-memory and panel paths"
            );
        }
        // In-memory path reports the panel counters as zero.
        let bsnap = base.snapshot();
        assert_eq!(bsnap.counter("spgemm.panels"), Some(0));
        assert_eq!(bsnap.counter("spgemm.panel_spills"), Some(0));
        assert_eq!(bsnap.counter("spgemm.spill_bytes"), Some(0));
    }

    #[test]
    fn parallel_panel_is_bit_identical_and_spills_deterministically() {
        let a = pseudo_random_matrix(150, 0x452821E638D01377, 3);
        let baseline = mul(&a, &a, &baseline_exec()).unwrap();
        for n_threads in [2, 4] {
            let exec = Exec {
                threads: n_threads,
                ..panel_exec(13, Some(2000))
            };
            let m = MetricsRegistry::new();
            let got = mul(&a, &a, &exec).unwrap();
            assert_eq!(baseline, got, "threads {n_threads}");
            mul(&a, &a, &observed(exec.clone(), &m)).unwrap();
            let spills = m.snapshot().counter("spgemm.panel_spills");
            let serial = MetricsRegistry::new();
            let serial_exec = Exec {
                threads: 1,
                ..exec.clone()
            };
            mul(&a, &a, &observed(serial_exec, &serial)).unwrap();
            assert_eq!(
                spills,
                serial.snapshot().counter("spgemm.panel_spills"),
                "spill plan must not depend on threads"
            );
        }
    }

    #[test]
    fn syrk_panel_matches_in_memory_with_terms_and_threshold() {
        let x = pseudo_random_matrix(64, 0x243F6A8885A308D3, 3);
        let y = pseudo_random_matrix(64, 0x9E3779B97F4A7C15, 3);
        let (xt, yt) = (transpose(&x), transpose(&y));
        let terms = [SyrkTerm { x: &x, xt: &xt }, SyrkTerm { x: &y, xt: &yt }];
        let opts = SpgemmOptions {
            threshold: 0.5,
            drop_diagonal: true,
            ..Default::default()
        };
        let baseline = spgemm_syrk_sum(&terms, &opts, &baseline_exec()).unwrap();
        for panel_rows in [1, 5, 17, 64] {
            for budget in [None, Some(1), Some(4096)] {
                let got = spgemm_syrk_sum(&terms, &opts, &panel_exec(panel_rows, budget)).unwrap();
                assert_eq!(baseline, got, "panel_rows {panel_rows} budget {budget:?}");
            }
        }
    }

    #[test]
    fn cancellation_aborts_and_cleans_up_scratch() {
        let a = pseudo_random_matrix(64, 0x243F6A8885A308D3, 3);
        let base =
            std::env::temp_dir().join(format!("symclust_panel_cancel_test_{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let exec = Exec {
            token: Some(token),
            threads: 1,
            panel: PanelPlan {
                panel_rows: Some(8),
                spill_dir: Some(base.clone()),
                budget_bytes: Some(1),
            },
            ..Exec::default()
        };
        let r = mul(&a, &a, &exec);
        assert_eq!(r, Err(SparseError::Cancelled));
        let leftovers = std::fs::read_dir(&base).unwrap().count();
        assert_eq!(leftovers, 0, "scratch dirs must be removed on cancellation");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn worker_panic_surfaces_and_cleans_up_scratch() {
        let base =
            std::env::temp_dir().join(format!("symclust_panel_panic_test_{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let err = {
            let dir = SpillDir::create(Some(&base)).unwrap();
            let spill = vec![true; 32];
            run_tiles(
                32,
                4,
                &spill,
                Some(&dir),
                || (),
                |tile, _scratch: &mut (), data, _counts| {
                    if tile == 19 {
                        panic!("injected tile failure");
                    }
                    data.row_lens.push(1);
                    data.indices.push(0);
                    data.values.push(1.0);
                    Ok(())
                },
            )
            .err()
            .expect("a panicking tile must fail the run")
            // `dir` drops here — the entry points own their SpillDir the
            // same way, so an error return removes every spilled tile.
        };
        match err {
            SparseError::WorkerPanic(msg) => assert!(msg.contains("injected tile failure")),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        let leftovers = std::fs::read_dir(&base).unwrap().count();
        assert_eq!(leftovers, 0, "scratch dirs must be removed on panic");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn empty_and_degenerate_shapes_round_trip() {
        for (rows, cols) in [(0usize, 0usize), (0, 5), (5, 0), (1, 1)] {
            let a = CsrMatrix::zeros(rows, 7);
            let b = CsrMatrix::zeros(7, cols);
            let got = mul(&a, &b, &panel_exec(2, Some(1))).unwrap();
            let want = mul(&a, &b, &baseline_exec()).unwrap();
            assert_eq!(want, got, "{rows}x{cols}");
        }
    }
}
