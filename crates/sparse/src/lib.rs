#![warn(missing_docs)]

//! Sparse linear-algebra substrate for the `symclust` workspace.
//!
//! This crate provides everything the symmetrization framework of
//! *"Symmetrizations for Clustering Directed Graphs"* (EDBT 2011) needs from
//! a linear-algebra library, built from scratch:
//!
//! * [`CsrMatrix`] — compressed sparse row matrices with checked invariants,
//! * [`CooMatrix`] — a triplet builder that deduplicates on conversion,
//! * Gustavson-style sparse matrix–matrix multiplication ([`spgemm`]) that
//!   prunes on the fly and runs crossbeam-parallel, scheduled by
//!   work-stealing over row blocks, with per-row adaptive accumulation
//!   ([`AccumStrategy`]): wide rows use a dense zero-on-emit accumulator
//!   with sort-free emission, narrow rows a sorted sparse gather,
//!   bit-identical either way,
//! * a symmetric SYRK kernel family ([`spgemm_syrk`]) computing `X·Xᵀ`
//!   (and fused sums of such products) upper-triangle-only with an O(nnz)
//!   mirror pass — the hot path of the Bibliometric and Degree-discounted
//!   symmetrizations,
//! * diagonal scaling, transposition, element-wise combination and pruning,
//! * [`pagerank`] — power iteration for the stationary distribution of a
//!   random walk with teleportation (used by the Random-walk symmetrization
//!   and by BestWCut),
//! * [`lanczos`] — a symmetric Lanczos eigensolver with full
//!   reorthogonalization plus an implicit-QL tridiagonal eigensolver (used by
//!   the spectral clustering baseline).
//!
//! Every kernel takes one [`Exec`]: the cancel token, the metrics
//! registry, the thread count, the accumulator strategy and the panel
//! plan — everything about a call that never changes its output.
//!
//! The matrix types use `u32` column indices and `f64` values; graphs of up
//! to ~4 billion vertices are representable, far beyond what the in-memory
//! algorithms here will be asked to handle.

pub mod accum;
pub mod cancel;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod exec;
pub mod lanczos;
pub mod ops;
pub mod pagerank;
pub mod panel;
mod sched;
pub mod spgemm;
mod spill;
pub mod syrk;

pub use accum::{AccumStrategy, DEFAULT_ACCUM_CROSSOVER};
pub use cancel::CancelToken;
pub use coo::CooMatrix;
pub use csr::{validate_parts, CsrMatrix};
pub use error::SparseError;
pub use exec::Exec;
pub use lanczos::{lanczos_smallest, tridiagonal_eigen, LanczosOptions, LanczosResult};
pub use pagerank::{pagerank, stationary_distribution, PageRankOptions, PageRankResult};
pub use panel::{PanelPlan, DEFAULT_PANEL_ROWS};
pub use spgemm::{
    spgemm, spgemm_budgeted, spgemm_nnz_upper_bound, spgemm_rows, BudgetedSpgemm, SpgemmOptions,
};
pub use syrk::{spgemm_syrk, spgemm_syrk_sum, spgemm_syrk_sum_budgeted, SyrkTerm};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, SparseError>;
