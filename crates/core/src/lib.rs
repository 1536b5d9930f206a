#![warn(missing_docs)]

//! # symclust-core — graph symmetrizations
//!
//! The primary contribution of *"Symmetrizations for Clustering Directed
//! Graphs"* (Satuluri & Parthasarathy, EDBT 2011): transformations that turn
//! a directed graph `G` with adjacency matrix `A` into a weighted undirected
//! graph `G_U` whose edges capture the similarity structure relevant for
//! clustering. The four methods compared in the paper:
//!
//! | method | formula | paper § |
//! |--------|---------|---------|
//! | [`PlusTranspose`] | `U = A + Aᵀ` | 3.1 |
//! | [`RandomWalk`] | `U = (ΠP + PᵀΠ)/2` | 3.2 |
//! | [`Bibliometric`] | `U = AAᵀ + AᵀA` (with `A := A + I`) | 3.3 |
//! | [`DegreeDiscounted`] | `U = Do⁻ᵅADi⁻ᵝAᵀDo⁻ᵅ + Di⁻ᵝAᵀDo⁻ᵅADi⁻ᵝ` | 3.4 |
//!
//! All methods implement the [`Symmetrizer`] trait and produce a
//! [`SymmetrizedGraph`] carrying the undirected graph plus provenance
//! metadata. The [`prune`] module implements the paper's §3.5/§5.3.1
//! machinery: thresholding similarity matrices and selecting a threshold
//! from a random node sample so the symmetrized graph hits a target average
//! degree.

pub mod bibliometric;
pub mod bipartite;
pub mod degree_discounted;
pub mod multipartite;
pub mod plus_transpose;
pub mod prune;
pub mod random_walk;
pub mod symmetrized;

pub use bibliometric::{Bibliometric, BibliometricOptions};
pub use bipartite::{
    bipartite_degree_discounted, BipartiteGraph, BipartiteOptions, BipartiteProjection,
    BipartiteSide,
};
pub use degree_discounted::{DegreeDiscounted, DegreeDiscountedOptions, DiscountExponent};
pub use multipartite::{chain_degree_discounted, ChainOptions, MultipartiteChain};
pub use plus_transpose::PlusTranspose;
pub use prune::{select_threshold, ThresholdSelection};
pub use random_walk::{RandomWalk, RandomWalkOptions};
pub use symmetrized::SymmetrizedGraph;

use symclust_graph::DiGraph;
use symclust_sparse::Exec;

/// Error type for symmetrization operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum SymmetrizeError {
    /// Underlying sparse-matrix failure.
    Sparse(symclust_sparse::SparseError),
    /// Underlying graph failure.
    Graph(symclust_graph::GraphError),
    /// Invalid configuration.
    InvalidConfig(String),
    /// The symmetrization was cancelled via a
    /// [`CancelToken`](symclust_sparse::CancelToken) (explicitly or by
    /// deadline).
    Cancelled,
}

impl SymmetrizeError {
    /// Whether this error stems from cooperative cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, SymmetrizeError::Cancelled)
    }
}

impl std::fmt::Display for SymmetrizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymmetrizeError::Sparse(e) => write!(f, "sparse error: {e}"),
            SymmetrizeError::Graph(e) => write!(f, "graph error: {e}"),
            SymmetrizeError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            SymmetrizeError::Cancelled => write!(f, "symmetrization cancelled"),
        }
    }
}

impl std::error::Error for SymmetrizeError {}

impl From<symclust_sparse::SparseError> for SymmetrizeError {
    fn from(e: symclust_sparse::SparseError) -> Self {
        match e {
            symclust_sparse::SparseError::Cancelled => SymmetrizeError::Cancelled,
            e => SymmetrizeError::Sparse(e),
        }
    }
}

impl From<symclust_graph::GraphError> for SymmetrizeError {
    fn from(e: symclust_graph::GraphError) -> Self {
        SymmetrizeError::Graph(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SymmetrizeError>;

/// A transformation from a directed graph to a weighted undirected graph.
///
/// This is stage 1 of the paper's two-stage framework (Figure 2); any
/// [`Symmetrizer`] can be paired with any stage-2 clustering algorithm.
pub trait Symmetrizer {
    /// Short human-readable method name ("A+A'", "Degree-discounted", ...).
    fn name(&self) -> String;

    /// Transforms the directed graph into an undirected one, run per
    /// `exec`. The cheap methods (`A+Aᵀ`, Random Walk) check the token
    /// before starting; the similarity methods ([`Bibliometric`],
    /// [`DegreeDiscounted`]) run their SpGEMM under `exec`, so a
    /// multi-second symmetrization stops within one row's work of the
    /// token tripping and its work counters (DESIGN.md §11) land in
    /// `exec.metrics`. The output never depends on `exec`.
    fn symmetrize(&self, g: &DiGraph, exec: &Exec) -> Result<SymmetrizedGraph>;
}
