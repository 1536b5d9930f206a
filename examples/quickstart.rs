//! Quickstart: symmetrize and cluster the paper's Figure-1 graph.
//!
//! Demonstrates the two-stage framework on the idealized example from the
//! paper's introduction: nodes 4 and 5 never link to each other, yet they
//! form a natural cluster because they share all their in-links and
//! out-links. The `A + Aᵀ` symmetrization cannot see this; the
//! Degree-discounted similarity can.
//!
//! Run with: `cargo run --release --example quickstart`

use symclust::prelude::*;

fn main() {
    // How the kernels run (threads, cancellation, metrics); never what
    // they compute.
    let exec = Exec::default();
    // The directed graph of Figure 1 (9 nodes, 16 edges).
    let g = figure1_graph();
    println!(
        "Figure-1 graph: {} nodes, {} directed edges",
        g.n_nodes(),
        g.n_edges()
    );
    println!("edge 4→5 exists: {}", g.has_edge(4, 5));
    println!("edge 5→4 exists: {}", g.has_edge(5, 4));

    // Stage 1: symmetrize. Compare the naive A+Aᵀ with the paper's
    // Degree-discounted similarity (Eq. 8, α = β = 0.5).
    let naive = PlusTranspose.symmetrize(&g, &exec).expect("symmetrize");
    let dd = DegreeDiscounted::default()
        .symmetrize(&g, &exec)
        .expect("symmetrize");
    println!("\nsimilarity weight between nodes 4 and 5:");
    println!("  A + A'            : {:.4}", naive.adjacency().get(4, 5));
    println!("  Degree-discounted : {:.4}", dd.adjacency().get(4, 5));

    // Stage 2: cluster the symmetrized graph with MLR-MCL.
    let clustering = MlrMcl::default().cluster(&dd, &exec).expect("cluster");
    println!(
        "\nMLR-MCL on the Degree-discounted graph found {} clusters:",
        clustering.n_clusters()
    );
    for (i, members) in clustering.clusters().iter().enumerate() {
        println!("  cluster {i}: {members:?}");
    }
    assert!(
        clustering.same_cluster(4, 5),
        "nodes 4 and 5 should share a cluster"
    );
    println!("\nnodes 4 and 5 share a cluster, as the paper argues they should.");
}
