//! Per-row accumulator strategies for the Gustavson and SYRK kernels.
//!
//! Gustavson-style SpGEMM implementations win by switching accumulator
//! strategy *per output row*: a row whose intermediate product is wide
//! amortizes a dense scatter array, while a narrow row is cheaper to
//! gather into a small sorted list than to touch a cache-cold dense
//! vector. The paper's Σdᵢ² cost model (§3.6) already predicts per-row
//! intermediate width — the same quantity the kernels count as per-row
//! FLOPs — so the crossover decision is free: it is derived from counts
//! the row pass computes anyway, which also makes it deterministic and
//! independent of thread count.
//!
//! Two strategies, bit-identical by construction:
//!
//! * **Dense** ([`DenseAccum`]): f64 slots indexed by `u32` column id, one
//!   array per term, held at `+0.0` between rows and zeroed by the
//!   emission that reads them (**zero-on-emit**), so starting a row costs
//!   nothing. First touches are marked in a byte array and listed in
//!   first-touch order. Emission is sort-free when the row fills a large
//!   share of its column span (one ordered sweep of the span); otherwise
//!   only the entries that survive the threshold are sorted.
//! * **Sparse** ([`gather_scaled_term`] / [`reduce_pairs_terms`]):
//!   products are gathered into a `(column, term, value)` list,
//!   **stably** sorted by column, and summed per column run. Stability
//!   preserves the generation order within a column — term-major,
//!   ascending `k` within a term — which is the exact order the dense
//!   slots accumulate in, so the two strategies round identically and the
//!   output bits never depend on which one ran.
//!
//! The scale-and-accumulate inner loops are written in fixed-width chunks
//! ([`CHUNK`]): the products `aᵢₖ · bₖⱼ` for one chunk are computed into a
//! local array first (a straight-line multiply loop the autovectorizer
//! turns into packed `mulpd`s) and only then scattered or appended. No
//! `std::simd`, no intrinsics, no new dependencies — the chunking is plain
//! safe Rust shaped so the compiler can vectorize the arithmetic half of
//! the loop even though the scatter half is inherently serial.

/// Which accumulator the row kernels use per output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccumStrategy {
    /// Decide per row: dense when the estimated intermediate width
    /// reaches the crossover, sparse below it. The estimate (the row's
    /// Gustavson FLOP count) depends only on the input structure, so the
    /// mix — and the `spgemm.rows_dense` / `spgemm.rows_sparse` counters —
    /// is deterministic for a fixed input and crossover.
    #[default]
    Adaptive,
    /// Force the dense zero-on-emit accumulator for every row.
    Dense,
    /// Force sorted sparse accumulation for every row.
    Sparse,
}

impl AccumStrategy {
    /// Stable lowercase name (`adaptive` / `dense` / `sparse`).
    pub fn name(self) -> &'static str {
        match self {
            AccumStrategy::Adaptive => "adaptive",
            AccumStrategy::Dense => "dense",
            AccumStrategy::Sparse => "sparse",
        }
    }
}

impl std::str::FromStr for AccumStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "adaptive" => Ok(AccumStrategy::Adaptive),
            "dense" => Ok(AccumStrategy::Dense),
            "sparse" => Ok(AccumStrategy::Sparse),
            other => Err(format!(
                "unknown accumulator strategy '{other}' (adaptive|dense|sparse)"
            )),
        }
    }
}

/// Default crossover (in estimated multiply-adds per row) between sparse
/// and dense accumulation under [`AccumStrategy::Adaptive`]. Sparse
/// accumulation pays O(e·log e) for the sort plus a pair buffer; the dense
/// scatter pays one indexed read-modify-write per product against a large
/// scratch array. The sort constant loses once a row generates a few
/// cache lines' worth of products; 64 is the conservative knee measured
/// on the bundled dsbm graphs and is overridable per call via
/// [`crate::SpgemmOptions::accum_crossover`].
pub const DEFAULT_ACCUM_CROSSOVER: usize = 64;

/// Fixed chunk width for the scale-and-accumulate inner loops. Products
/// for one chunk are computed into a `[f64; CHUNK]` before the scatter,
/// giving the autovectorizer a straight-line multiply loop (4×2 `mulpd`
/// at width 8 on SSE2, 2×4 on AVX) regardless of the scatter's serial
/// data dependences.
pub(crate) const CHUNK: usize = 8;

/// A row emits its dense entries by sweeping the column span once it
/// touched at least one column in this many of the span: the sweep reads
/// the slots sequentially with no branch per slot, where the survivor
/// path below the share pays a random read per touched column plus a
/// sort of what survives.
const SPAN_SCAN_SHARE: usize = 8;

/// Dense accumulator over one or more terms (one term for `A·B`, one per
/// `X·Xᵀ` product of a SYRK sum), with **zero-on-emit** slots.
///
/// Every slot holds `+0.0` between rows; whoever reads a row out zeroes
/// what it read, so a row starts with no clearing work and no per-slot
/// epoch. A column's first touch in a row (by any term) is marked in a
/// byte array and appended to `touched` in first-touch order. The row's
/// column span (smallest and one past the largest touched column) is
/// tracked per scattered slice, which is cheap because the slices are
/// sorted.
pub(crate) struct DenseAccum {
    /// `slots[t][j]`: term `t`'s running sum for column `j` this row.
    slots: Vec<Vec<f64>>,
    /// `mark[j] != 0` iff column `j` was touched this row.
    mark: Vec<u8>,
    /// `touched[..len]`: this row's distinct columns in first-touch order.
    /// Always longer than `len` so the next write never reallocates.
    touched: Vec<u32>,
    len: usize,
    /// `[lo, hi)`: the touched column span (`lo >= hi` when none).
    lo: usize,
    hi: usize,
    /// Survivor buffer for the sort-the-survivors emission.
    survivors: Vec<(u32, f64)>,
}

impl DenseAccum {
    pub(crate) fn new(n_cols: usize, n_terms: usize) -> Self {
        DenseAccum {
            slots: vec![vec![0.0f64; n_cols]; n_terms],
            mark: vec![0u8; n_cols],
            touched: Vec::new(),
            len: 0,
            lo: usize::MAX,
            hi: 0,
            survivors: Vec::new(),
        }
    }

    /// Starts a row that touches at most `max_distinct` columns (any
    /// upper bound: its product count, its column range width). Grows the
    /// touched list to fit, never to the column count up front.
    pub(crate) fn start_row(&mut self, max_distinct: usize) {
        if self.touched.len() <= max_distinct {
            self.touched.resize(max_distinct + 1, 0);
        }
        self.len = 0;
        self.lo = usize::MAX;
        self.hi = 0;
    }

    /// Distinct columns touched so far this row.
    pub(crate) fn distinct(&self) -> usize {
        self.len
    }

    /// Scale-and-accumulate into term `term`: `slots[term][cols[i]] +=
    /// av · vals[i]`, with the multiplies chunked for autovectorization.
    /// `cols` must be sorted. The touched-list write is unconditional and
    /// only the length advances on a first touch, so the loop carries no
    /// branch on the mark — the faster form when first touches are
    /// scattered unpredictably through wide rows.
    #[inline]
    pub(crate) fn scatter(&mut self, term: usize, av: f64, cols: &[u32], vals: &[f64]) {
        self.scatter_as::<true>(term, av, cols, vals);
    }

    /// [`scatter`](Self::scatter) into term 0 with the touched-list
    /// write behind a branch on the mark: the faster form on R-MCL's
    /// short, dense flow rows, which [`drain_first_touch`](Self::drain_first_touch) reads.
    #[inline]
    pub(crate) fn scatter_first_touch(&mut self, av: f64, cols: &[u32], vals: &[f64]) {
        self.scatter_as::<false>(0, av, cols, vals);
    }

    #[inline]
    fn scatter_as<const BRANCH_FREE: bool>(
        &mut self,
        term: usize,
        av: f64,
        cols: &[u32],
        vals: &[f64],
    ) {
        let (Some(&first), Some(&last)) = (cols.first(), cols.last()) else {
            return;
        };
        self.lo = self.lo.min(first as usize);
        self.hi = self.hi.max(last as usize + 1);
        let slots = &mut self.slots[term];
        let mark = &mut self.mark;
        let touched = &mut self.touched;
        let mut len = self.len;
        let mut prod = [0.0f64; CHUNK];
        for (cch, vch) in cols.chunks(CHUNK).zip(vals.chunks(CHUNK)) {
            for (p, v) in prod.iter_mut().zip(vch) {
                *p = av * v;
            }
            for (&j, &p) in cch.iter().zip(&prod) {
                let ju = j as usize;
                slots[ju] += p;
                if BRANCH_FREE {
                    let fresh = mark[ju] == 0;
                    mark[ju] = 1;
                    touched[len] = j;
                    len += usize::from(fresh);
                } else if mark[ju] == 0 {
                    mark[ju] = 1;
                    touched[len] = j;
                    len += 1;
                }
            }
        }
        self.len = len;
    }

    /// Whether the row touched at least `1/`[`SPAN_SCAN_SHARE`] of its
    /// span, so reading or zeroing the whole span beats visiting the
    /// touched columns one by one.
    fn fills_span(&self) -> bool {
        self.lo < self.hi && self.len.saturating_mul(SPAN_SCAN_SHARE) >= self.hi - self.lo
    }

    /// Reads the row out in first-touch order as `(column, value)` pairs
    /// (single-term accumulators only; the value is term 0's slot) and
    /// re-zeroes what it read: the span with `fill` when the row
    /// [fills](Self::fills_span) it, else slot by slot, so a narrow row
    /// spread over a wide span costs O(touched), not O(span).
    pub(crate) fn drain_first_touch(&mut self, out: &mut Vec<(u32, f64)>) {
        let fills_span = self.fills_span();
        let slots = &mut self.slots[0];
        let touched = &self.touched[..self.len];
        out.extend(touched.iter().map(|&j| (j, slots[j as usize])));
        if fills_span {
            slots[self.lo..self.hi].fill(0.0);
            self.mark[self.lo..self.hi].fill(0);
        } else {
            for &j in touched {
                slots[j as usize] = 0.0;
                self.mark[j as usize] = 0;
            }
        }
        self.len = 0;
    }

    /// Reads the row out in ascending column order, appending every entry
    /// `keep(column, value)` accepts to `(indices, values)`, and zeroes
    /// every slot it read. A column's value is the ordered sum of its
    /// per-term slots, `s₀ + s₁ + …`.
    ///
    /// When the touched columns fill at least `1/`[`SPAN_SCAN_SHARE`] of
    /// the span, the span is swept in order: the other terms are folded
    /// into term 0 slice-wise, term 0 is filtered, and the span is
    /// re-zeroed with `fill`. Otherwise the touched list is summed and
    /// zeroed entry by entry and only the survivors are sorted. Both read
    /// the same sums, so they emit the same columns and value bits: an
    /// untouched slot is `+0.0`, which `keep` must reject, and a term that
    /// never touched a column adds `+0.0` to a sum that, starting from
    /// `+0.0`, is never `−0.0` — and `x + 0.0 == x` bitwise for every
    /// other `x`.
    pub(crate) fn emit_sorted(
        &mut self,
        mut keep: impl FnMut(u32, f64) -> bool,
        indices: &mut Vec<u32>,
        values: &mut Vec<f64>,
    ) {
        let (lo, hi, fills_span) = (self.lo, self.hi, self.fills_span());
        let Some((sum, rest)) = self.slots.split_first_mut() else {
            return;
        };
        if fills_span {
            let span = &mut sum[lo..hi];
            for term in rest.iter_mut() {
                for (s, x) in span.iter_mut().zip(&term[lo..hi]) {
                    *s += *x;
                }
                term[lo..hi].fill(0.0);
            }
            for (j, &v) in (lo as u32..).zip(span.iter()) {
                if keep(j, v) {
                    indices.push(j);
                    values.push(v);
                }
            }
            span.fill(0.0);
            self.mark[lo..hi].fill(0);
        } else {
            let survivors = &mut self.survivors;
            survivors.clear();
            for &j in &self.touched[..self.len] {
                let ju = j as usize;
                let mut v = sum[ju];
                sum[ju] = 0.0;
                for term in rest.iter_mut() {
                    v += term[ju];
                    term[ju] = 0.0;
                }
                self.mark[ju] = 0;
                if keep(j, v) {
                    survivors.push((j, v));
                }
            }
            survivors.sort_unstable_by_key(|&(j, _)| j);
            for &(j, v) in survivors.iter() {
                indices.push(j);
                values.push(v);
            }
        }
        self.len = 0;
    }
}

/// Sparse scale-and-gather for the multi-term kernels: appends
/// `(cols[i], term, av · vals[i])` triples in generation order, the
/// multiplies chunked exactly like [`DenseAccum::scatter`] so both paths
/// compute each product bit-identically. The term tag lets the per-column
/// reduction reproduce the dense path's one-ordered-add-per-term rounding.
#[inline]
pub(crate) fn gather_scaled_term(
    pairs: &mut Vec<(u32, u32, f64)>,
    term: u32,
    av: f64,
    cols: &[u32],
    vals: &[f64],
) {
    let mut prod = [0.0f64; CHUNK];
    for (cch, vch) in cols.chunks(CHUNK).zip(vals.chunks(CHUNK)) {
        for (p, v) in prod.iter_mut().zip(vch) {
            *p = av * v;
        }
        for (j, p) in cch.iter().zip(&prod) {
            pairs.push((*j, term, *p));
        }
    }
}

/// Reduces a gathered triple list into per-column sums, visiting columns
/// in ascending order. The sort is **stable**, so within a column run the
/// triples stay in generation order — term-major, ascending `k` within a
/// term. Each term's products are summed into a subtotal from `0.0` (the
/// dense slot's `+0.0 + p₀ + p₁ + …`) and the subtotals are added in term
/// order (the dense path's `s₀ + s₁ + …`). Terms that never touched a
/// column are skipped, which only elides `+ 0.0` adds that cannot change
/// a bit (see [`DenseAccum::emit_sorted`]). Calls `emit(col, sum)` once
/// per distinct column and returns the distinct column count.
#[inline]
pub(crate) fn reduce_pairs_terms(
    pairs: &mut [(u32, u32, f64)],
    mut emit: impl FnMut(u32, f64),
) -> u64 {
    pairs.sort_by_key(|p| p.0);
    let mut distinct = 0u64;
    let mut i = 0usize;
    while i < pairs.len() {
        let j = pairs[i].0;
        let mut v = 0.0f64;
        while i < pairs.len() && pairs[i].0 == j {
            let t = pairs[i].1;
            let mut subtotal = 0.0f64;
            while i < pairs.len() && pairs[i].0 == j && pairs[i].1 == t {
                subtotal += pairs[i].2;
                i += 1;
            }
            v += subtotal;
        }
        distinct += 1;
        emit(j, v);
    }
    distinct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_parses_and_names_roundtrip() {
        for s in [
            AccumStrategy::Adaptive,
            AccumStrategy::Dense,
            AccumStrategy::Sparse,
        ] {
            assert_eq!(s.name().parse::<AccumStrategy>().unwrap(), s);
        }
        assert!("densest".parse::<AccumStrategy>().is_err());
        assert_eq!(AccumStrategy::default(), AccumStrategy::Adaptive);
    }

    /// Reads a row out of `acc` with a filter that keeps every nonzero.
    fn emit_all(acc: &mut DenseAccum) -> Vec<(u32, f64)> {
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        acc.emit_sorted(|_, v| v != 0.0, &mut idx, &mut val);
        idx.into_iter().zip(val).collect()
    }

    /// Asserts every slot and mark is back at zero.
    fn assert_clean(acc: &DenseAccum) {
        for slots in &acc.slots {
            assert!(slots.iter().all(|v| v.to_bits() == 0), "slot left dirty");
        }
        assert!(acc.mark.iter().all(|&m| m == 0), "mark left set");
    }

    #[test]
    fn dense_rows_are_isolated_without_clearing() {
        let mut acc = DenseAccum::new(4, 1);
        acc.start_row(2);
        acc.scatter(0, 1.0, &[2], &[1.5]);
        acc.scatter(0, 1.0, &[2], &[2.5]);
        assert_eq!(acc.distinct(), 1);
        assert_eq!(emit_all(&mut acc), vec![(2, 4.0)]);
        assert_clean(&acc);
        // Next row: slot 2 starts from +0.0 again.
        acc.start_row(1);
        acc.scatter(0, 1.0, &[2], &[7.0]);
        assert_eq!(emit_all(&mut acc), vec![(2, 7.0)]);
        assert_clean(&acc);
    }

    #[test]
    fn touched_list_grows_to_the_bound_only() {
        let mut acc = DenseAccum::new(1000, 1);
        acc.start_row(3);
        assert_eq!(acc.touched.len(), 4);
        acc.scatter(0, 1.0, &[5, 900, 901], &[1.0, 1.0, 1.0]);
        assert_eq!(acc.distinct(), 3);
        // A repeat visit writes one past the distinct count: still in bounds.
        acc.scatter(0, 1.0, &[900], &[1.0]);
        assert_eq!(acc.distinct(), 3);
        emit_all(&mut acc);
        acc.start_row(2);
        assert_eq!(acc.touched.len(), 4, "never shrinks, never jumps to n");
    }

    #[test]
    fn both_emissions_agree_and_leave_slots_zeroed() {
        // Term 1 touches column 3 only; column 6 cancels to exactly zero.
        let cols: Vec<u32> = (0..23).map(|i| i % 7).collect();
        let vals: Vec<f64> = (0..23).map(|i| 0.1 + i as f64 * 0.3).collect();
        let run = |stretch: u32| {
            // `stretch` spreads the same columns over a wider span, which
            // moves the row from the span sweep to the survivor sort.
            let cols: Vec<u32> = cols.iter().map(|&j| j * stretch).collect();
            let mut acc = DenseAccum::new(7 * stretch as usize, 2);
            acc.start_row(40);
            for (c, v) in cols.chunks(5).zip(vals.chunks(5)) {
                let mut c = c.to_vec();
                c.sort_unstable();
                acc.scatter(0, 1.7, &c, v);
            }
            acc.scatter(1, 2.0, &[3 * stretch], &[0.25]);
            let cancel = -acc.slots[0][6 * stretch as usize];
            acc.scatter(0, 1.0, &[6 * stretch], &[cancel]);
            assert_eq!(acc.distinct(), 7);
            let out = emit_all(&mut acc);
            assert_clean(&acc);
            out.into_iter()
                .map(|(j, v)| (j / stretch, v.to_bits()))
                .collect::<Vec<_>>()
        };
        let swept = run(1);
        let sorted = run(1000);
        assert_eq!(swept, sorted);
        assert_eq!(swept.len(), 6, "the cancelled column is not emitted");
        assert!(swept.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn dense_and_sparse_sums_are_bitwise_identical() {
        let cols: Vec<u32> = (0..40).map(|i| (i * 7) % 11).collect();
        let vals: Vec<f64> = (0..40).map(|i| 0.1 + i as f64 * 0.37).collect();
        let mut acc = DenseAccum::new(11, 2);
        let mut pairs = Vec::new();
        acc.start_row(80);
        for (t, chunk) in [(0usize, 0..20), (1, 20..40)] {
            for (c, v) in cols[chunk.clone()].chunks(4).zip(vals[chunk].chunks(4)) {
                let mut order: Vec<usize> = (0..c.len()).collect();
                order.sort_by_key(|&i| c[i]);
                let c: Vec<u32> = order.iter().map(|&i| c[i]).collect();
                let v: Vec<f64> = order.iter().map(|&i| v[i]).collect();
                acc.scatter(t, 1.3, &c, &v);
                gather_scaled_term(&mut pairs, t as u32, 1.3, &c, &v);
            }
        }
        let mut sparse = Vec::new();
        let distinct = reduce_pairs_terms(&mut pairs, |j, v| sparse.push((j, v.to_bits())));
        assert_eq!(distinct as usize, acc.distinct());
        let dense: Vec<(u32, u64)> = emit_all(&mut acc)
            .into_iter()
            .map(|(j, v)| (j, v.to_bits()))
            .collect();
        assert_eq!(dense, sparse);
    }

    #[test]
    fn drain_first_touch_keeps_touch_order() {
        let mut acc = DenseAccum::new(10, 1);
        acc.start_row(5);
        acc.scatter_first_touch(2.0, &[7, 9], &[1.0, 2.0]);
        acc.scatter_first_touch(1.0, &[1, 7], &[3.0, 4.0]);
        let mut out = Vec::new();
        acc.drain_first_touch(&mut out);
        assert_eq!(out, vec![(7, 6.0), (9, 4.0), (1, 3.0)]);
        assert_clean(&acc);
        // Two columns far apart: zeroed one by one, not by span.
        let mut acc = DenseAccum::new(1000, 1);
        acc.start_row(2);
        acc.scatter_first_touch(1.0, &[3, 990], &[1.0, 2.0]);
        assert!(!acc.fills_span());
        out.clear();
        acc.drain_first_touch(&mut out);
        assert_eq!(out, vec![(3, 1.0), (990, 2.0)]);
        assert_clean(&acc);
    }

    #[test]
    fn reduce_pairs_terms_sums_term_major() {
        // Column 3 touched by terms 0 and 1; column 5 only by term 1.
        let mut pairs = vec![(3u32, 0u32, 1.0), (5, 1, 4.0), (3, 0, 2.0), (3, 1, 8.0)];
        let mut out = Vec::new();
        let distinct = reduce_pairs_terms(&mut pairs, |j, v| out.push((j, v)));
        assert_eq!(distinct, 2);
        assert_eq!(out, vec![(3, 11.0), (5, 4.0)]);
    }
}
