#![warn(missing_docs)]

//! # symclust
//!
//! A production-quality Rust reproduction of *"Symmetrizations for
//! Clustering Directed Graphs"* (Satuluri & Parthasarathy, EDBT 2011).
//!
//! The paper's two-stage framework: (1) **symmetrize** a directed graph into
//! a weighted undirected graph whose edge weights capture in-link and
//! out-link similarity, then (2) **cluster** the undirected graph with any
//! off-the-shelf algorithm.
//!
//! ```
//! use symclust::prelude::*;
//!
//! // The idealized graph of Figure 1: nodes 4 and 5 share all their
//! // in-links and out-links but never link to each other.
//! let g = figure1_graph();
//!
//! // Degree-discounted symmetrization (the paper's contribution, Eq. 8).
//! // `Exec` says how the kernels run (threads, cancellation, metrics);
//! // it never changes the output.
//! let exec = Exec::default();
//! let sym = DegreeDiscounted::default().symmetrize(&g, &exec).unwrap();
//!
//! // Nodes 4 and 5 are now strongly connected in the undirected graph.
//! assert!(sym.adjacency().get(4, 5) > 0.0);
//!
//! // Cluster the symmetrized graph with MLR-MCL.
//! let clustering = MlrMcl::default().cluster(&sym, &exec).unwrap();
//! assert_eq!(clustering.cluster_of(4), clustering.cluster_of(5));
//! ```
//!
//! The workspace is organized as one crate per subsystem:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`sparse`] | CSR matrices, SpGEMM, PageRank, Lanczos |
//! | [`graph`]  | directed/undirected graph types, statistics, generators, I/O |
//! | [`core`]   | the four symmetrizations + pruning (the paper's contribution) |
//! | [`cluster`]| MLR-MCL, Metis-like, Graclus-like, BestWCut |
//! | [`eval`]   | F-measure, normalized cuts, paired sign test |
//! | [`datasets`]| synthetic stand-ins for the paper's datasets |

pub mod pipeline;

pub use symclust_cluster as cluster;
pub use symclust_core as core;
pub use symclust_datasets as datasets;
pub use symclust_eval as eval;
pub use symclust_graph as graph;
pub use symclust_sparse as sparse;

/// Convenient glob import surface for applications.
pub mod prelude {
    pub use symclust_cluster::{
        BestWCut, ClusterAlgorithm, Clustering, GraclusLike, KMeansOptions, MetisLike, MlrMcl,
    };
    pub use symclust_core::{
        Bibliometric, DegreeDiscounted, PlusTranspose, RandomWalk, SymmetrizedGraph, Symmetrizer,
    };
    pub use symclust_datasets::{cora_like, flickr_like, livejournal_like, wikipedia_like};
    pub use symclust_eval::{avg_f_score, normalized_cut, sign_test};
    pub use symclust_graph::generators::figure1_graph;
    pub use symclust_graph::{DiGraph, GraphStats, UnGraph};
    pub use symclust_sparse::{CooMatrix, CsrMatrix, Exec};

    pub use crate::pipeline::{Pipeline, PipelineReport};
}
