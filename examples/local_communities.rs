//! Local community detection: extract one cluster without clustering the
//! whole graph.
//!
//! The paper's §2.1.1 credits Andersen, Chung & Lang with the one scalable
//! algorithm in the directed-cut line of work — local partitioning with
//! personalized PageRank. This example runs our PageRank-Nibble on the
//! Wikipedia stand-in: pick a seed page, pull out its community, and check
//! it against the planted ground truth — touching only the neighborhood of
//! the seed rather than all nodes.
//!
//! Run with: `cargo run --release --example local_communities`

use symclust::cluster::{pagerank_nibble, pagerank_nibble_directed, NibbleOptions};
use symclust::prelude::*;

fn main() {
    let dataset = symclust::datasets::wikipedia_like_scaled(4000);
    let truth = dataset.truth.as_ref().expect("ground truth");
    println!(
        "wikipedia_like: {} pages, {} links, {} categories\n",
        dataset.n_nodes(),
        dataset.n_edges(),
        truth.n_categories()
    );

    let node_cats = truth.node_categories();
    // Planted communities hold ~60 pages; match ε to the target volume
    // (ACL picks ε ≈ 1/vol(target)) and cap the sweep accordingly.
    let opts = NibbleOptions {
        epsilon: 3e-4,
        max_cluster_size: 200,
        ..Default::default()
    };
    // The paper's thesis holds locally too: PageRank-Nibble through the
    // Random-walk symmetrization optimizes the *directed cut*, which cannot
    // see shared-link communities; nibbling the Degree-discounted
    // similarity graph instead finds them.
    let dd = DegreeDiscounted::default()
        .symmetrize(&dataset.graph, &Exec::default())
        .expect("symmetrize");
    // Seed from the middle of five different planted categories (seeds
    // must be labeled nodes for the precision metric to mean anything).
    let seeds: Vec<usize> = (0..5).map(|i| truth.members(i * 10)[5] as usize).collect();
    for (name, run) in [
        (
            "random-walk (directed-cut) nibble",
            Box::new(|seed: usize| {
                pagerank_nibble_directed(&dataset.graph, seed, &opts).expect("nibble")
            }) as Box<dyn Fn(usize) -> symclust::cluster::LocalCluster>,
        ),
        (
            "degree-discounted nibble",
            Box::new(|seed: usize| pagerank_nibble(dd.graph(), seed, &opts).expect("nibble")),
        ),
    ] {
        println!("--- {name} ---");
        let mut total_precision = 0.0;
        let mut runs = 0;
        for &seed in seeds.iter() {
            let cluster = run(seed);
            let seed_cats = &node_cats[seed];
            let hits = cluster
                .members
                .iter()
                .filter(|&&m| node_cats[m as usize].iter().any(|c| seed_cats.contains(c)))
                .count();
            let precision = if cluster.members.is_empty() {
                0.0
            } else {
                hits as f64 / cluster.members.len() as f64
            };
            println!(
                "  seed {seed:>5}: {:>4} members, conductance {:.3}, precision {:.2} ({} pushes)",
                cluster.members.len(),
                cluster.conductance,
                precision,
                cluster.pushes
            );
            if !seed_cats.is_empty() {
                total_precision += precision;
                runs += 1;
            }
        }
        if runs > 0 {
            println!(
                "  mean local precision: {:.2}",
                total_precision / runs as f64
            );
        }
    }
}
