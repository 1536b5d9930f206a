//! Property tests for the CSR structural validators (DESIGN.md §13).
//!
//! Two directions, both seeded and shrinkable:
//!
//! * **soundness** — `validate`/`validate_graph`/`validate_symmetric`
//!   accept the outputs of every kernel that promises well-formed CSR:
//!   transpose, diagonal scaling, SpGEMM, and the mirrored SYRK kernels;
//! * **completeness** — `validate_parts` rejects seeded corruptions of
//!   otherwise-valid raw arrays (non-monotone indptr, unsorted or
//!   duplicate columns, NaN values) and names the violated invariant, and
//!   post-construction value corruption is caught by `validate()`.
//!
//! The corruption tests probe `validate_parts` on raw slices rather than
//! a corrupted `CsrMatrix`, because the unchecked constructor
//! `debug_assert`s validity — in a debug test build you cannot even hold
//! a malformed matrix, which is itself the first line of defense.

use proptest::prelude::*;
use symclust_sparse::{
    ops, spgemm, spgemm_syrk, validate_parts, CooMatrix, CsrMatrix, Exec, SpgemmOptions,
};

/// The serial plain product's execution context.
fn serial() -> Exec {
    Exec {
        threads: 1,
        ..Exec::default()
    }
}

/// Random sparse matrix with signed values (Laplacian-like inputs).
fn sparse_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (1..max_dim, 1..max_dim).prop_flat_map(move |(r, c)| {
        proptest::collection::vec((0..r, 0..c, -10.0f64..10.0), 0..max_nnz).prop_map(
            move |triplets| {
                CooMatrix::from_triplets(r, c, triplets)
                    .expect("in-bounds triplets")
                    .to_csr()
            },
        )
    })
}

/// Random square matrix with non-negative values (graph-like inputs).
fn graph_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (2..max_dim).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 0.25f64..10.0), 1..max_nnz).prop_map(
            move |triplets| {
                CooMatrix::from_triplets(n, n, triplets)
                    .expect("in-bounds triplets")
                    .to_csr()
            },
        )
    })
}

proptest! {
    #[test]
    fn transpose_output_validates(m in sparse_matrix(30, 120)) {
        prop_assert!(ops::transpose(&m).validate().is_ok());
    }

    #[test]
    fn diag_scaled_output_validates(m in graph_matrix(25, 100), scale in 0.25f64..4.0) {
        let mut scaled = m;
        let diag = vec![scale; scaled.n_rows()];
        ops::scale_rows(&mut scaled, &diag).expect("diag length matches");
        prop_assert!(scaled.validate().is_ok());
        prop_assert!(scaled.validate_graph().is_ok());
    }

    #[test]
    fn spgemm_output_validates(a in graph_matrix(18, 70)) {
        let t = ops::transpose(&a);
        let c = spgemm(&a, &t, &SpgemmOptions::default(), &serial()).expect("compatible shapes");
        prop_assert!(c.validate().is_ok());
        prop_assert!(c.validate_graph().is_ok());
    }

    #[test]
    fn syrk_output_validates_as_exactly_symmetric(a in graph_matrix(18, 70)) {
        // X·Xᵀ through the upper-triangle + mirror kernel must satisfy the
        // strictest validator: structure, non-negativity (entries are sums
        // of products of non-negatives), and bitwise mirror equality.
        let on_all_cores = Exec {
            threads: 0,
            ..Exec::default()
        };
        let c = spgemm_syrk(&a, &ops::transpose(&a), &SpgemmOptions::default(), &on_all_cores)
            .expect("syrk");
        prop_assert!(c.validate_symmetric().is_ok());
    }

    #[test]
    fn pruned_output_validates(m in graph_matrix(25, 100), threshold in 0.0f64..5.0) {
        let (pruned, _) = ops::prune(&m, threshold);
        prop_assert!(pruned.validate().is_ok());
    }

    #[test]
    fn validate_graph_rejects_injected_negative(m in graph_matrix(25, 100), pick in 0usize..10_000) {
        prop_assume!(m.nnz() > 0);
        let mut m = m;
        let at = pick % m.nnz();
        m.values_mut()[at] = -1.0;
        // Structure is still fine; the graph contract is not.
        prop_assert!(m.validate().is_ok());
        let err = m.validate_graph().expect_err("negative weight must be rejected");
        prop_assert!(err.to_string().contains("nonnegative"), "{err}");
    }

    #[test]
    fn validate_detects_injected_nan(m in graph_matrix(25, 100), pick in 0usize..10_000) {
        prop_assume!(m.nnz() > 0);
        let mut m = m;
        let at = pick % m.nnz();
        m.values_mut()[at] = f64::NAN;
        let err = m.validate().expect_err("NaN must be rejected");
        prop_assert!(err.to_string().contains("value"), "{err}");
    }

    #[test]
    fn validate_parts_rejects_nonmonotone_indptr(m in sparse_matrix(20, 80), pick in 0usize..10_000) {
        prop_assume!(m.n_rows() >= 2 && m.nnz() >= 1);
        let mut indptr = m.indptr().to_vec();
        // Pull one interior boundary above its successor.
        let row = 1 + pick % (m.n_rows() - 1);
        indptr[row] = indptr[row + 1] + 1;
        // Keep total length consistent so the monotonicity check is the
        // one that fires (not the cheaper length check).
        let (check, detail) =
            validate_parts(m.n_rows(), m.n_cols(), &indptr, m.indices(), m.values())
                .expect_err("corrupted indptr must be rejected");
        prop_assert!(check == "indptr", "check {check}: {detail}");
    }

    #[test]
    fn validate_parts_rejects_unsorted_or_duplicate_columns(m in sparse_matrix(20, 80), dup in any::<bool>()) {
        // Need one row with at least two entries to corrupt.
        let row = (0..m.n_rows()).find(|&r| {
            let (s, e) = (m.indptr()[r], m.indptr()[r + 1]);
            e - s >= 2
        });
        prop_assume!(row.is_some());
        let row = row.expect("checked above");
        let start = m.indptr()[row];
        let mut indices = m.indices().to_vec();
        if dup {
            indices[start + 1] = indices[start]; // duplicate
        } else {
            indices.swap(start, start + 1); // unsorted
        }
        let (check, detail) =
            validate_parts(m.n_rows(), m.n_cols(), m.indptr(), &indices, m.values())
                .expect_err("corrupted columns must be rejected");
        prop_assert!(check == "columns", "check {check}: {detail}");
    }

    #[test]
    fn validate_parts_rejects_out_of_bounds_column(m in sparse_matrix(20, 80), pick in 0usize..10_000) {
        prop_assume!(m.nnz() >= 1);
        let mut indices = m.indices().to_vec();
        let at = pick % indices.len();
        indices[at] = m.n_cols() as u32; // one past the end
        let (check, _) =
            validate_parts(m.n_rows(), m.n_cols(), m.indptr(), &indices, m.values())
                .expect_err("out-of-bounds column must be rejected");
        // Bumping a column can break sortedness before the bounds check
        // sees it; either way the corruption is caught and named.
        prop_assert!(check == "bounds" || check == "columns", "check {check}");
    }
}
