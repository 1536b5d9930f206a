//! Fixed inputs that put every dense row on one emission path by
//! construction (DESIGN.md §16), shared by the accumulator and panel
//! suites.
//!
//! A dense row is read out by sweeping its column span when it touched at
//! least 1/8 of the span, and by sorting only its survivors otherwise:
//!
//! * [`whole_span`]: column 0 of `X` is all nonzero, so every row of
//!   `X·Xᵀ` touches every column of its span — the sweep, in every row;
//! * [`scattered`]: row `i` of `X` holds columns `i` and `n−1−i` (row
//!   `i` of `Y` columns `i` and `i+n/2`), so a row of `X·Xᵀ`, `Y·Yᵀ` or
//!   their sum touches two or three columns spread over a span of up to
//!   `n` — the survivor sort, in every row whose touched columns lie more
//!   than 8 apart. (A SYRK row keeps only its upper triangle, so a row
//!   whose partners all lie left of the diagonal touches the diagonal
//!   alone and is swept.)
//!
//! Values are non-dyadic (multiples of 0.1), so a change in the order of
//! the adds would show in the value bits.

#![allow(dead_code)]

use symclust_obs::MetricsRegistry;
use symclust_sparse::spgemm::metric_names;
use symclust_sparse::{spgemm, spgemm_syrk_sum, CsrMatrix, Exec, SpgemmOptions, SyrkTerm};

/// Rows (and, for [`scattered`], columns) of every fixed input.
pub const N: usize = 96;

/// Threshold / `drop_diagonal` settings every path is checked under.
pub const FILTERS: [(f64, bool); 4] = [(0.0, false), (0.0, true), (0.45, false), (0.45, true)];

/// `N × 16`: column 0 all nonzero plus two more entries per row.
pub fn whole_span(salt: usize) -> CsrMatrix {
    let mut rows = vec![vec![0.0f64; 16]; N];
    for (i, row) in rows.iter_mut().enumerate() {
        let s = i + salt;
        row[0] = 0.3 + 0.1 * (s % 5) as f64;
        row[1 + s % 5] = 0.1 * (1 + s % 7) as f64;
        row[6 + s % 9] = 0.1 * (3 + s % 4) as f64;
    }
    CsrMatrix::from_dense(&rows)
}

/// `N × N` with two entries per row: columns `i` and `partner(i)`, where
/// `partner` is `n−1−i` (`mirror`) or `i+n/2 mod n` (not `mirror`).
/// Either partner map is an involution, so row `i` of the `X·Xᵀ` shares
/// columns only with rows `i` and `partner(i)`.
pub fn scattered(mirror: bool) -> CsrMatrix {
    let mut rows = vec![vec![0.0f64; N]; N];
    for (i, row) in rows.iter_mut().enumerate() {
        let partner = if mirror { N - 1 - i } else { (i + N / 2) % N };
        row[i] = 0.1 * (3 + i % 7) as f64;
        row[partner] += 0.1 * (2 + i % 5) as f64;
    }
    CsrMatrix::from_dense(&rows)
}

/// Rows of `m` whose stored entries fill at least 1/8 of their span,
/// and nonempty rows that do not. On an unthresholded product of
/// positive values the stored entries are exactly the touched columns,
/// so this is the emission path each row takes.
pub fn path_split(m: &CsrMatrix) -> (usize, usize) {
    let (mut swept, mut sorted) = (0, 0);
    for row in 0..m.n_rows() {
        let cols = m.row_indices(row);
        if let (Some(&lo), Some(&hi)) = (cols.first(), cols.last()) {
            if cols.len() * 8 >= (hi - lo + 1) as usize {
                swept += 1;
            } else {
                sorted += 1;
            }
        }
    }
    (swept, sorted)
}

/// The counters an emission path must not move.
pub const COUNTERS: [&str; 5] = [
    metric_names::NNZ_INTERMEDIATE,
    metric_names::NNZ_FINAL,
    metric_names::THRESHOLD_DROPPED,
    metric_names::ROWS_DENSE,
    metric_names::ROWS_SPARSE,
];

/// Runs `f` under `exec` with a fresh registry and returns its result
/// and the [`COUNTERS`] it recorded.
pub fn counted<T>(exec: &Exec, f: impl FnOnce(&Exec) -> T) -> (T, [u64; 5]) {
    let m = MetricsRegistry::new();
    let observed = Exec {
        metrics: Some(m.clone()),
        ..exec.clone()
    };
    let out = f(&observed);
    let snap = m.snapshot();
    (out, COUNTERS.map(|k| snap.counter(k).unwrap_or(0)))
}

/// Asserts `a` and `b` store the same structure and value bits.
pub fn assert_same_bits(a: &CsrMatrix, b: &CsrMatrix, ctx: &str) {
    assert_eq!(a.indptr(), b.indptr(), "{ctx}: indptr");
    assert_eq!(a.indices(), b.indices(), "{ctx}: indices");
    let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b), "{ctx}: value bits");
}

/// A named kernel call on fixed inputs, run under a given [`Exec`].
pub type Product<'a> = (&'static str, Box<dyn Fn(&Exec) -> CsrMatrix + 'a>);

/// The general kernel on `x·xᵀ` and the 1- and 2-term SYRK sums
/// `x·xᵀ` and `x·xᵀ + y·yᵀ`, all under `o`.
pub fn products<'a>(
    (x, xt): (&'a CsrMatrix, &'a CsrMatrix),
    (y, yt): (&'a CsrMatrix, &'a CsrMatrix),
    o: &'a SpgemmOptions,
) -> [Product<'a>; 3] {
    [
        ("general", Box::new(move |e| spgemm(x, xt, o, e).unwrap())),
        (
            "syrk-1",
            Box::new(move |e| spgemm_syrk_sum(&[SyrkTerm { x, xt }], o, e).unwrap()),
        ),
        (
            "syrk-2",
            Box::new(move |e| {
                let terms = [SyrkTerm { x, xt }, SyrkTerm { x: y, xt: yt }];
                spgemm_syrk_sum(&terms, o, e).unwrap()
            }),
        ),
    ]
}
